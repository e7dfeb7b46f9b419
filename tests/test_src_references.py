"""Every top-level function and class in ``src/modcat`` has a user there.

A definition counts as used when some code in the package outside its
own body names it (as a name or an attribute), when a docstring or other
string in the package names it (the public entry points that no package
code calls are documented that way), or when ``modcat.__all__`` exports
it.  Code that only the tests use belongs under ``tests/``.
"""

import ast
import pathlib
import re

import modcat

SRC = pathlib.Path(modcat.__file__).parent


def _names_outside(tree, skip):
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(re.findall(r"\w+", node.value))
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreferenced_definitions(src=SRC, exported=modcat.__all__):
    """``module.name`` of each top-level definition nothing in ``src`` uses."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(pathlib.Path(src).glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in exported:
                continue
            if not any(node.name in _names_outside(t, node) for t in trees.values()):
                unused.append(f"{module}.{node.name}")
    return unused


def test_src_holds_no_unreferenced_definitions():
    assert unreferenced_definitions() == []


def test_the_scan_sees_a_definition_nothing_uses(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""Mentions documented_entry."""\n\n'
        "def used():\n    return 1\n\n\n"
        "def recursive(k):\n    return recursive(k - 1) if k else used()\n\n\n"
        "def documented_entry():\n    pass\n\n\n"
        "def exported():\n    pass\n\n\n"
        "class Helper:\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import Helper\n")
    assert unreferenced_definitions(tmp_path, ["exported"]) == ["a.recursive", "a.Helper"]
