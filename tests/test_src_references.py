"""Every top-level function and class in ``src/modcat``, and every method
of those classes, has a user there, and every name a module of the
package imports is used by its code.

A definition counts as used when some code in the package outside its
own body names it (as a name or an attribute), or when ``modcat.__all__``
exports it; a name that only a docstring or other string mentions does
not count.  Dunder methods are called by the language itself and are not
scanned.  Code that only the tests use belongs under ``tests/``.  An import
counts as used only when the module's code names it; ``__init__.py``,
which imports to re-export, is exempt.

A third scan keeps each ``_trusted`` constructor, which skips validation
(``Morphism._trusted`` and those of ``Conflation``, ``Complex``,
``ChainMap`` and ``ComplexConflation``), inside an allow-list of functions per class, and a fourth finds local
names that a function binds and never reads (``_`` is exempt).  A fifth
keeps ``smith_normal_form``, the factorization with transforms, inside
the canonical form ``_canonical_form``: every subgroup, image and kernel
then comes from a cokernel and the dual kernel, by one route, and the
solver ``_solve_mod`` eliminates per prime power instead.  A sixth keeps
``hom_module``, the internal hom in coordinates, inside the closed
structure and the double-dual unit.  A seventh finds a function-level
``from .x import`` in a file that already imports from ``.x`` at the top:
such a name cannot be patched on the module that uses it, while a
top-level import is the seam every route of ``modcat.suites`` offers.  An
eighth finds ``.carried``, the columns a Smith form carries through its row
operations, anywhere in the package: only the tests' Smith-form oracles
read them.  A ninth keeps the solver ``_solve_mod`` inside
``_canonicalized``, ``solve`` and ``solve_blocks``: every unknown
morphism is one ``solve_blocks`` system; and ``solve_blocks`` inside the
one-unknown factorization ``modules._factor`` and the two chain-level
systems of ``complexes``.  A tenth keeps
``.generator_lifts``, the solver's lifts of the canonical generators, with
the change of coordinates ``Canonicalized.coordinates``, ``tensor_mor``
and ``direct_sum_many``.  An eleventh keeps the layers in order: no relative
import, at the top of a file or inside a function, names a layer at or
above its own, in the order the ``modcat`` docstring lists them, with
``cli`` last.  Last, every file parses under the grammar of the oldest
Python that ``pyproject.toml`` admits.
"""

import ast
import pathlib
import re

import pytest

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
        stack.extend(ast.iter_child_nodes(node))
    return found


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree):
    """(node, qualified name) of each top-level definition and each method."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            yield node, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not re.fullmatch(r"__\w+__", item.name):
                    yield item, f"{node.name}.{item.name}"


def unreferenced_definitions(src=SRC, exported=modcat.__all__):
    """``module.name`` of each top-level definition, and ``module.Class.name``
    of each method, that nothing in ``src`` uses."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(pathlib.Path(src).glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for node, name in _definitions(tree):
            if node.name in exported:
                continue
            if not any(node.name in _names_outside(t, node) for t in trees.values()):
                unused.append(f"{module}.{name}")
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
    assert unreferenced_definitions(tmp_path, ["exported"]) == [
        "a.recursive",
        "a.documented_entry",
        "a.Helper",
    ]


def test_the_scan_sees_a_method_nothing_uses(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Shape:\n"
        "    def __init__(self, k):\n        self.k = self.checked(k)\n\n"
        "    def checked(self, k):\n        return k\n\n"
        "    @property\n    def size(self):\n        return self.k\n\n"
        "    def documented(self):\n        pass\n\n"
        "    def exported(self):\n        pass\n\n"
        "    def unused(self):\n        return self.unused_too()\n\n"
        "    @classmethod\n    def unused_too(cls):\n        return cls(1).size\n"
    )
    (tmp_path / "b.py").write_text(
        '"""Shape.documented is the entry point."""\n\n'
        "from .a import Shape\n\n\n"
        "def area(s: Shape):\n    return s.size\n"
    )
    assert unreferenced_definitions(tmp_path, ["exported"]) == [
        "a.Shape.documented",
        "a.Shape.unused",
        "b.area",
    ]


def unused_imports(src=SRC):
    """``module.py: name`` of each imported name its module never uses."""
    unused = []
    for path in sorted(pathlib.Path(src).glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    return unused


def test_src_imports_no_unused_name():
    assert unused_imports() == []


def test_the_scan_sees_an_import_nothing_uses(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import unused_here\n")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\n"
        "from math import gcd, lcm as least\n"
        "from .b import helper, unused_here\n\n\n"
        "def f(x: int) -> int:\n    return gcd(x, helper(os.sep))\n"
    )
    assert unused_imports(tmp_path) == ["a.py: least", "a.py: unused_here"]


# Each ``_trusted`` constructor skips validation, so only constructions whose
# result is valid by construction may call it; the allowed callers, by the
# class whose constructor they call.  Kernel inclusions, cokernel
# projections, pullback and pushout legs (their slices) and enumerated
# morphisms are reduced and well defined by construction, and so are a
# subgroup entry's inclusion and projection, which every ring wraps from the
# kernel and cokernel rows its walked subgroup stores; maps from
# user-supplied generators (``_generator_map``) keep validating.  Chain
# objects are trusted in the two dual builders and in the dual f+ of an
# inflation that purity builds, because the character dual is an exact
# anti-equivalence that keeps windows normalized; in the flat disk cover,
# whose kernel is written in closed form; and in a family middle
# (``_middle``), whose differentials the stack walk read as composing to
# zero and lifting d_f, whose deflation is the catalog entries'
# projections, and whose inclusions are the entries' kernel inclusions,
# which commute by ``factor_through_mono``'s check (its kernel complex
# validates).  The tensor of two morphisms and the
# solutions of a block system are reduced and well defined by construction
# (the tensor's rows are reduced mod the target factors; each unknown entry is a
# multiple of B_b / gcd(A_a, B_b), reduced mod B_b).  Conflations are
# trusted only in a subgroup entry, whose inclusion is the kernel of its
# cokernel projection.  Tier-1 tests
# revalidate what every trusted builder builds.
TRUSTED_CALLERS = {
    "Morphism": {
        "modules.Morphism.identity",
        "modules.Morphism.zero",
        "modules.Morphism.__matmul__",
        "modules.Morphism.__add__",
        "modules.Morphism.scaled",
        "modules.kernel",
        "modules.cokernel",
        "exact.pullback",
        "exact.pushout",
        "enumeration.enumerate_morphisms",
        "enumeration.flat_disk_cover",
        "monoidal.HomModule.to_morphism",
        "monoidal.tensor_mor",
        "modules.solve_blocks",
        "modules.dual_mor",
        "enumeration.SubgroupEntry._build",
    },
    "Conflation": {"enumeration.SubgroupEntry.conflation"},
    "Complex": {
        "complexes.dual_complex",
        "enumeration.enumerate_complexes",
        "enumeration.flat_disk_cover",
        "enumeration._middle",
    },
    "ChainMap": {
        "complexes.is_pure_complex_conflation",
        "complexes.double_dual_complex_iso",
        "enumeration._middle",
        "enumeration.flat_disk_cover",
    },
    "ComplexConflation": {
        "enumeration._middle",
        "enumeration.flat_disk_cover",
    },
}


def _scopes_naming(node, attr, names, scope=()):
    """The enclosing class and function names of each ``.attr`` under
    ``node``, and of each bare ``attr`` if ``names``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, FUNCTIONS + (ast.ClassDef,)):
            yield from _scopes_naming(child, attr, names, scope + (child.name,))
            continue
        if (isinstance(child, ast.Attribute) and child.attr == attr) or (
            names and isinstance(child, ast.Name) and child.id == attr
        ):
            yield scope
        yield from _scopes_naming(child, attr, names, scope)


def uses_outside(src, attr, allowed, names=True):
    """``module.qualified.name`` of each function outside ``allowed`` that
    names ``.attr``, or bare ``attr`` if ``names`` (``module`` alone for
    module-level code)."""
    found = []
    for path in sorted(pathlib.Path(src).glob("*.py")):
        for scope in _scopes_naming(ast.parse(path.read_text()), attr, names):
            name = ".".join((path.stem,) + scope)
            if name not in allowed:
                found.append(name)
    return found


def _trusted_owners(node, scope=(), cls=None):
    """(enclosing scope, class) of each ``_trusted`` named under ``node``:
    ``X._trusted`` belongs to X, ``cls._trusted`` to the enclosing class,
    and a bare name or any other receiver to no class (None)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, FUNCTIONS + (ast.ClassDef,)):
            inner = child.name if isinstance(child, ast.ClassDef) else cls
            yield from _trusted_owners(child, scope + (child.name,), inner)
            continue
        if isinstance(child, ast.Attribute) and child.attr == "_trusted":
            owner = child.value.id if isinstance(child.value, ast.Name) else None
            yield scope, cls if owner == "cls" else owner
        elif isinstance(child, ast.Name) and child.id == "_trusted":
            yield scope, None
        yield from _trusted_owners(child, scope, cls)


def trusted_uses(src=SRC, allowed=TRUSTED_CALLERS):
    """``module.qualified.name`` of each function that names a ``_trusted``
    constructor outside the allow-list of its class."""
    found = []
    for path in sorted(pathlib.Path(src).glob("*.py")):
        for scope, owner in _trusted_owners(ast.parse(path.read_text())):
            name = ".".join((path.stem,) + scope)
            if name not in allowed.get(owner, ()):
                found.append(name)
    return found


def test_only_the_allowed_constructions_skip_validation():
    assert trusted_uses() == []


def test_the_scan_sees_a_trusted_call_outside_the_allow_list(tmp_path):
    (tmp_path / "modules.py").write_text(
        "class Morphism:\n"
        "    @classmethod\n    def _trusted(cls, dom, cod, rows):\n        return cls()\n\n"
        "    def __post_init__(self):\n        Morphism._trusted(1, 2, 3)\n\n"
        "    def __matmul__(self, other):\n        return Morphism._trusted(1, 2, 3)\n\n"
        "    @classmethod\n    def from_dict(cls, data):\n        return cls._trusted(1, 2, 3)\n\n"
        "    @classmethod\n    def from_columns(cls, dom, cod, columns):\n"
        "        build = cls._trusted\n        return build(dom, cod, columns)\n"
    )
    (tmp_path / "enumeration.py").write_text(
        "from .modules import Morphism\n\n\n"
        "def enumerate_morphisms(dom, cod):\n    yield Morphism._trusted(dom, cod, ())\n\n\n"
        "def enumerate_complexes(n, span):\n    return [Morphism._trusted(1, 2, 3)]\n\n\n"
        "class SubgroupEntry:\n"
        "    def conflation(self):\n        return Conflation._trusted(1, 2)\n"
    )
    (tmp_path / "exact.py").write_text(
        "class Conflation:\n"
        "    @classmethod\n    def _trusted(cls, f, g):\n        return cls()\n\n\n"
        "def conflation_from_epi(g):\n    return Conflation._trusted(1, g)\n"
    )
    assert trusted_uses(tmp_path) == [
        "enumeration.enumerate_complexes",
        "exact.conflation_from_epi",
        "modules.Morphism.__post_init__",
        "modules.Morphism.from_dict",
        "modules.Morphism.from_columns",
    ]


def test_the_scan_keeps_each_chain_object_in_its_dual_builders(tmp_path):
    """A dual builder, or purity's dual of an inflation, may call only the
    constructors it is listed for, and a validating path may call none of
    them."""
    (tmp_path / "complexes.py").write_text(
        "class Complex:\n"
        "    @classmethod\n    def from_dict(cls, data):\n        return cls._trusted(1, 2, 3, 4)\n\n\n"
        "def dual_complex(x):\n"
        "    return Complex._trusted(1, 2, 3, 4), Morphism._trusted(1, 2, 3)\n\n\n"
        "def dual_chain_map(phi):\n    return ChainMap._trusted(1, 2, 3)\n\n\n"
        "def is_pure_complex_conflation(c):\n"
        "    return ChainMap._trusted(1, 2, 3), ComplexConflation._trusted(1, c)\n\n\n"
        "def double_dual_complex_iso(x):\n"
        "    return ChainMap._trusted(1, 2, 3), ComplexConflation._trusted(1, 2)\n\n\n"
        "def splits_as_complexes(c):\n    return type(c)._trusted(1, 2, 3)\n"
    )
    assert trusted_uses(tmp_path) == [
        "complexes.Complex.from_dict",
        "complexes.dual_complex",
        "complexes.dual_chain_map",
        "complexes.is_pure_complex_conflation",
        "complexes.double_dual_complex_iso",
        "complexes.splits_as_complexes",
    ]


# The one factorization with transforms: presentations in canonical form
# (``canonicalize`` appends n times the identity and calls the private
# ``_canonical_form``, which kernels, cokernels and sums call directly).
# Subgroups and images are kernels of the projection onto a cokernel, and
# kernels are duals of cokernels.  Linear systems are solved per prime
# power by ``_solve_mod``, which takes no Smith form.
SMITH_FORM_CALLERS = {"modules._canonical_form"}


def smith_form_uses(src=SRC, allowed=SMITH_FORM_CALLERS):
    return uses_outside(src, "smith_normal_form", allowed)


def test_only_canonicalize_and_the_solver_take_smith_forms():
    assert smith_form_uses() == []


def test_the_scan_sees_a_smith_form_outside_the_allow_list(tmp_path):
    (tmp_path / "modules.py").write_text(
        "from .snf import smith_normal_form, snf_diagonal\n\n\n"
        "def _canonical_form(ring, g, rows):\n    return smith_normal_form(rows)\n\n\n"
        "def _solve_mod(a, t):\n    return smith_normal_form(a, carry=t)\n\n\n"
        "def subgroup_from_lattice(ambient, gens):\n"
        "    return smith_normal_form(gens).right_inv\n\n\n"
        "def kernel(f):\n    factor = smith_normal_form\n    return factor(f)\n\n\n"
        "def _cokernel_order(m):\n    return snf_diagonal(m)\n"
    )
    (tmp_path / "enumeration.py").write_text(
        "from . import snf\n\n\n"
        "class SubgroupEntry:\n"
        "    def _build(self):\n        return snf.smith_normal_form(self.rows)\n"
    )
    assert smith_form_uses(tmp_path) == [
        "enumeration.SubgroupEntry._build",
        "modules._solve_mod",
        "modules.subgroup_from_lattice",
        "modules.kernel",
    ]


# One way to solve a linear system: ``_solve_mod`` is called by the
# canonical form's generator lifts (``_canonicalized``), by ``solve`` for
# one element and by ``solve_blocks`` for morphism unknowns.  Every other
# unknown morphism (a section, a factor through a mono or an epi, a
# contraction) is a ``solve_blocks`` system.
SOLVE_MOD_CALLERS = {"modules._canonicalized", "modules.solve", "modules.solve_blocks"}


def solve_mod_uses(src=SRC, allowed=SOLVE_MOD_CALLERS):
    return uses_outside(src, "_solve_mod", allowed)


def test_only_the_canonical_form_solve_and_the_block_solver_call_the_solver():
    assert solve_mod_uses() == []


def test_the_scan_sees_a_solver_call_outside_the_allow_list(tmp_path):
    (tmp_path / "modules.py").write_text(
        "def _solve_mod(a, e, targets, k):\n    return [a]\n\n\n"
        "def solve(f, t):\n    return _solve_mod(f, (), [t], 1)\n\n\n"
        "def factor_through_mono(h, m):\n    return _solve_mod(m, (), h, 1)\n"
    )
    (tmp_path / "exact.py").write_text(
        "from . import modules\n\n\n"
        "class Witness:\n    def find(self, g):\n        return modules._solve_mod(g, (), [], 0)\n"
    )
    assert solve_mod_uses(tmp_path) == ["exact.Witness.find", "modules.factor_through_mono"]


# One way to solve for one unknown morphism: a section (g . s = id), a
# factor through a mono and a lift of a family differential
# (p . D_0 = d_f . p) are all ``modules._factor``, which checks its answer.
# Only the chain-level systems, whose unknowns are one morphism per degree,
# pose their own blocks.
SOLVE_BLOCKS_CALLERS = {
    "modules._factor",
    "complexes.splits_as_complexes",
    "complexes.is_contractible",
}


def solve_blocks_uses(src=SRC, allowed=SOLVE_BLOCKS_CALLERS):
    return uses_outside(src, "solve_blocks", allowed)


def test_only_the_factorization_and_the_chain_systems_call_the_block_solver():
    assert solve_blocks_uses() == []


def test_the_scan_sees_a_block_solver_call_outside_the_allow_list(tmp_path):
    (tmp_path / "modules.py").write_text(
        "def solve_blocks(blocks, cols, targets):\n    return None\n\n\n"
        "def _factor(h, m):\n    return solve_blocks({(0, 0): (m, None)}, [], [h])\n"
    )
    (tmp_path / "exact.py").write_text(
        "from .modules import solve_blocks\n\n\n"
        "def splits(g):\n    return solve_blocks({(0, 0): (g, None)}, [], [])\n"
    )
    (tmp_path / "enumeration.py").write_text(
        "from . import modules\n\n\n"
        "class Walk:\n    def lift(self, p, t):\n"
        "        return modules.solve_blocks({(0, 0): (p, None)}, [], [t])\n"
    )
    assert solve_blocks_uses(tmp_path) == ["enumeration.Walk.lift", "exact.splits"]


# L @ t for columns t, the only part of the left transform a Smith form
# offers, is read by the Smith-form oracles under ``tests/`` only; the
# package's solver eliminates per prime power and carries nothing.
# Attributes only: ``carried`` is also the field and a local of ``snf``.
CARRIED_READERS = set()


def carried_reads(src=SRC, allowed=CARRIED_READERS):
    return uses_outside(src, "carried", allowed, names=False)


def test_only_the_solver_reads_carried_columns():
    assert carried_reads() == []


def test_the_scan_sees_a_carried_read_outside_the_allow_list(tmp_path):
    (tmp_path / "snf.py").write_text(
        "class SmithForm:\n    carried: list\n\n\n"
        "def _smith(m, carry):\n    carried = [list(c) for c in carry]\n    return carried\n\n\n"
        "def left_of(form):\n    return form.carried\n"
    )
    (tmp_path / "modules.py").write_text(
        "def _solve_mod(a, targets):\n"
        "    return smith_normal_form(a, carry=targets).carried\n\n\n"
        "def kernel(f):\n    cols = smith_normal_form(f, carry=f).carried\n    return cols\n\n\n"
        "class Canonicalized:\n"
        "    def combine(self, c):\n        return c or self.form.carried\n"
    )
    assert carried_reads(tmp_path) == [
        "modules._solve_mod",
        "modules.kernel",
        "modules.Canonicalized.combine",
        "snf.left_of",
    ]


# Generator lifts are solved for only where a canonical form is read
# backwards: the coordinates of a canonical element, the source lifts that
# f (x) g sends through f and g, and the projections of a direct sum.
# Attributes only, as for ``carried``.
GENERATOR_LIFT_READERS = {
    "modules.Canonicalized.coordinates",
    "monoidal.tensor_mor",
    "modules.direct_sum_many",
}


def generator_lift_reads(src=SRC, allowed=GENERATOR_LIFT_READERS):
    return uses_outside(src, "generator_lifts", allowed, names=False)


def test_only_coordinates_tensor_mor_and_direct_sums_read_generator_lifts():
    assert generator_lift_reads() == []


def test_the_scan_sees_a_generator_lift_read_outside_the_allow_list(tmp_path):
    (tmp_path / "modules.py").write_text(
        "class Canonicalized:\n    generator_lifts: tuple\n\n"
        "    def coordinates(self, z):\n        return self.generator_lifts\n\n\n"
        "def _canonical_form(ring, g, rows):\n"
        "    generator_lifts = ()\n    return rows, generator_lifts\n\n\n"
        "def kernel(f):\n    return canonicalize(f).generator_lifts\n"
    )
    (tmp_path / "monoidal.py").write_text(
        "def tensor_mor(f, g):\n    return tensor(f, g).generator_lifts\n\n\n"
        "def tensor(m, n):\n    can = _pair_sum(m, n)\n"
        "    return TensorProduct(can.module, can.generator_lifts)\n"
    )
    assert generator_lift_reads(tmp_path) == ["modules.kernel", "monoidal.tensor"]


# Hom-module coordinates stay where the internal hom is the subject: the
# closed structure itself (curry, uncurry, evaluation), and the unit
# M -> M++ that is the second route against the closed-form dual.  Every
# other solve or walk has morphisms for unknowns.
HOM_MODULE_CALLERS = {
    "monoidal.curry",
    "monoidal.uncurry",
    "monoidal.evaluation",
    "purity.double_dual_unit",
}


def hom_module_uses(src=SRC, allowed=HOM_MODULE_CALLERS):
    return uses_outside(src, "hom_module", allowed)


def test_only_the_closed_structure_and_the_double_dual_use_hom_coordinates():
    assert hom_module_uses() == []


def test_the_scan_sees_hom_coordinates_outside_the_allow_list(tmp_path):
    (tmp_path / "monoidal.py").write_text(
        "def hom_module(m, n):\n    return (m, n)\n\n\n"
        "def curry(f, m, n):\n    return hom_module(n, f)\n\n\n"
        "def postcompose_map(g, source):\n    return hom_module(source, g)\n"
    )
    (tmp_path / "enumeration.py").write_text(
        "from . import monoidal\n"
        "from .monoidal import hom_module\n\n\n"
        "def _complete_differentials(f, combo):\n"
        "    return monoidal.hom_module(f, combo)\n\n\n"
        "class Walk:\n    def step(self, y):\n        h = hom_module\n        return h(y, y)\n"
    )
    assert hom_module_uses(tmp_path) == [
        "enumeration._complete_differentials",
        "enumeration.Walk.step",
        "monoidal.postcompose_map",
    ]


def _bound_names(fn):
    """Names bound in ``fn``'s own scope, outside nested functions and classes."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, FUNCTIONS + (ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        stack.extend(ast.iter_child_nodes(node))


def dead_locals(src=SRC):
    """``module.function: name`` of each name a function binds and never
    reads; a read inside a nested function counts."""
    dead = []
    for path in sorted(pathlib.Path(src).glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, FUNCTIONS):
                continue
            read = {
                node.id
                for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            unread = set(_bound_names(fn)) - read - {"_"}
            dead += [f"{path.stem}.{fn.name}: {name}" for name in sorted(unread)]
    return dead


def test_src_binds_no_unread_local():
    assert dead_locals() == []


def test_the_scan_sees_a_local_nothing_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(xs):\n"
        "    total, unused = 0, 1\n"
        "    _, kept = divmod(7, 2)\n"
        "    for i, x in enumerate(xs):\n        total += x\n"
        "    seen = [y for y in xs]\n"
        "    closed = 3\n\n"
        "    def inner():\n        late = closed\n        return kept\n\n"
        "    return total, inner, lambda: seen\n"
    )
    assert dead_locals(tmp_path) == ["a.f: i", "a.f: unused", "a.inner: late"]


def _local_imports(node, scope=()):
    """(enclosing class and function names, node) of each ``from ... import``
    inside a function or class under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, FUNCTIONS + (ast.ClassDef,)):
            yield from _local_imports(child, scope + (child.name,))
        elif isinstance(child, ast.ImportFrom) and scope:
            yield scope, child
        else:
            yield from _local_imports(child, scope)


def redundant_local_imports(src=SRC):
    """``module.qualified.name: .x`` of each function-level ``from .x import``
    whose file imports from ``.x`` at the top level too.  A local import
    that breaks an import cycle has no top-level twin and is not flagged."""
    found = []
    for path in sorted(pathlib.Path(src).glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {
            (node.level, node.module) for node in tree.body if isinstance(node, ast.ImportFrom)
        }
        for scope, node in _local_imports(tree):
            if node.level and (node.level, node.module) in top:
                found.append(f"{'.'.join((path.stem,) + scope)}: .{node.module}")
    return found


def test_no_function_imports_what_its_file_imports_at_the_top():
    assert redundant_local_imports() == []


def test_the_scan_sees_a_local_import_with_a_top_level_twin(tmp_path):
    (tmp_path / "suites.py").write_text(
        "import json\n"
        "from .exact import pullback\n"
        "from .purity import is_pure\n\n\n"
        "def check(c):\n"
        "    from .purity import extract_section\n"
        "    from .enumeration import catalog\n"
        "    import traceback\n"
        "    from json import dumps\n"
        "    return extract_section(c), catalog, traceback, dumps\n\n\n"
        "class Runner:\n"
        "    def run(self):\n"
        "        def inner():\n            from .exact import pushout\n            return pushout\n"
        "        return inner, is_pure, pullback\n"
    )
    (tmp_path / "purity.py").write_text(
        "from .exact import splits\n\n\n"
        "def is_pure_injective(m):\n"
        "    from .enumeration import conflations_with_sub\n"
        "    return splits, conflations_with_sub\n"
    )
    assert redundant_local_imports(tmp_path) == [
        "suites.check: .purity",
        "suites.Runner.run.inner: .exact",
    ]


def layers(src=SRC):
    """The package's modules, bottom layer first: those the ``modcat``
    docstring lists, in its order, then ``cli``."""
    doc = ast.get_docstring(ast.parse((pathlib.Path(src) / "__init__.py").read_text()))
    return re.findall(r"^- ``(\w+)``", doc, re.MULTILINE) + ["cli"]


def upward_imports(src=SRC):
    """``module: .x`` of each relative import, at the top of a file or
    inside a function, of a layer x at or above the module's own, and
    ``module: unlisted`` for a module the layer order leaves out;
    ``__init__.py``, which imports every layer to re-export it, is exempt."""
    rank = {name: i for i, name in enumerate(layers(src))}
    found = []
    for path in sorted(pathlib.Path(src).glob("*.py")):
        if path.name == "__init__.py":
            continue
        if path.stem not in rank:
            found.append(f"{path.stem}: unlisted")
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module] if node.module else [alias.name for alias in node.names]
                for name in names:
                    if rank.get(name.split(".")[0], len(rank)) >= rank[path.stem]:
                        found.append(f"{path.stem}: .{name}")
    return found


def test_no_module_imports_a_layer_at_or_above_its_own():
    assert layers()[0] == "snf" and layers()[-2:] == ["suites", "cli"]
    assert upward_imports() == []


def test_the_scan_sees_an_import_from_a_layer_at_or_above(tmp_path):
    (tmp_path / "__init__.py").write_text(
        '"""Layers.\n\n- ``low``   first\n- ``mid``   second\n- ``high``  third\n"""\n\n'
        "from .cli import main\n"
    )
    (tmp_path / "low.py").write_text("from .mid import helper\n")
    (tmp_path / "mid.py").write_text(
        "from .low import base\n\n\n"
        "def check(m):\n    from .high import walk\n\n    return walk(base(m))\n"
    )
    (tmp_path / "high.py").write_text("from . import cli, low\nfrom .mid import check\n")
    (tmp_path / "cli.py").write_text("from .high import check\n")
    (tmp_path / "extra.py").write_text("from .low import base\n")
    assert upward_imports(tmp_path) == [
        "extra: unlisted",
        "high: .cli",
        "low: .mid",
        "mid: .high",
    ]


def oldest_python():
    """(major, minor) of ``requires-python`` in pyproject.toml."""
    pyproject = (pathlib.Path(__file__).parent.parent / "pyproject.toml").read_text()
    return tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()))


def test_src_parses_at_the_oldest_supported_python():
    floor = oldest_python()
    assert floor == (3, 10)
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)


def test_the_parse_at_the_floor_sees_newer_syntax():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # 3.11
    ast.parse(newer)
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=oldest_python())
