"""Outside-in tracer for the traced run: spans around each layer's functions.

The tracer edits no file of the package.  ``modcat`` modules bind helpers
with ``from .x import y``, so wrapping ``modcat.snf.smith_normal_form``
alone would miss the calls ``modules`` makes through its own binding.
``install`` therefore rebinds each wrapped function in every ``modcat.*``
namespace that holds it, and in the default arguments of their functions
(``run_suite(..., pullback_fn=pullback)`` binds ``pullback`` at definition
time).  It also wraps a few methods on the value classes.

A span is (name, start, end, parent); spans stay in four arrays in memory
and ``write`` stores them once, at the end of the run.  A generator is
wrapped so that each ``next`` is a span and each yielded item is counted.
"""

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = ("snf", "modules", "monoidal", "exact", "purity", "complexes", "enumeration", "suites")

# (layer, class name, method, span name)
METHODS = (
    ("modules", "Morphism", "__post_init__", "modules.morphism"),
    ("modules", "Morphism", "__matmul__", "modules.matmul"),
    ("complexes", "Complex", "__post_init__", "complexes.Complex"),
    ("complexes", "ChainMap", "__post_init__", "complexes.ChainMap"),
    ("complexes", "ComplexConflation", "__post_init__", "complexes.ComplexConflation"),
)

# Functions whose result is None when the search fails: their share of
# non-None results is the layer's useful-outcome ratio.
OUTCOME_COUNTED = ("exact.splits", "complexes.splits_as_complexes")


def _is_traceable(obj, module_name):
    """A function, or an ``lru_cache`` around one, defined in that module."""
    plain = inspect.isfunction(obj)
    cached = callable(obj) and hasattr(obj, "cache_info")
    return (plain or cached) and getattr(obj, "__module__", None) == module_name


class Tracer:
    def __init__(self):
        self.names = []
        self.layer_of = []
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.created = []  # generator objects created, per name
        self.yielded = []  # items yielded, per name
        self.non_none = []  # non-None results, per name in OUTCOME_COUNTED

    # -- wrapping -------------------------------------------------------------

    def _register(self, name, layer):
        self.names.append(name)
        self.layer_of.append(layer)
        self.created.append(0)
        self.yielded.append(0)
        self.non_none.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, name, layer):
        nid = self._register(name, layer)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        def open_span():
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            stack.append(idx)
            ends.append(0.0)
            starts.append(clock())
            return idx

        if inspect.isgeneratorfunction(fn):
            created, yielded = self.created, self.yielded

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                created[nid] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        stack.pop()
                    yielded[nid] += 1
                    yield item

        elif name in OUTCOME_COUNTED:
            non_none = self.non_none

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = open_span()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
                if result is not None:
                    non_none[nid] += 1
                return result

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = open_span()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()

        return wrapper

    def install(self):
        """Wrap every public function of each layer, and the METHODS."""
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "modcat" or n.startswith("modcat.")]
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"modcat.{layer}"]
            for attr, obj in sorted(vars(mod).items()):
                if not attr.startswith("_") and _is_traceable(obj, mod.__name__):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
        for layer, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[f"modcat.{layer}"], cls_name)
            setattr(cls, method, self._wrap(getattr(cls, method), name, layer))

        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
            functions = [o for o in vars(mod).values() if inspect.isfunction(o)]
            for cls in (o for o in vars(mod).values() if inspect.isclass(o)):
                functions += [o for o in vars(cls).values() if inspect.isfunction(o)]
            for fn in functions:
                fn = inspect.unwrap(fn)
                if fn.__defaults__:
                    fn.__defaults__ = tuple(wrappers.get(id(d), d) for d in fn.__defaults__)
                if fn.__kwdefaults__:
                    fn.__kwdefaults__ = {k: wrappers.get(id(d), d) for k, d in fn.__kwdefaults__.items()}

    # -- results --------------------------------------------------------------

    def summary(self):
        """Per span name so far: spans, total seconds, self seconds, counters.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        n = len(self.span_start)
        starts, ends, parents, names = self.span_start, self.span_end, self.span_parent, self.span_name
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        rows = [
            {"name": name, "layer": layer, "spans": 0, "total_s": 0.0, "self_s": 0.0,
             "created": self.created[k], "yielded": self.yielded[k], "non_none": self.non_none[k]}
            for k, (name, layer) in enumerate(zip(self.names, self.layer_of))
        ]
        for i in range(n):
            row = rows[names[i]]
            dur = ends[i] - starts[i]
            row["spans"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return {row["name"]: row for row in rows}

    def write(self, path):
        """Store the spans: one JSON header line, then the four raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "arrays": ["name:H", "parent:q", "start:d", "end:d"],
            "clock": "time.perf_counter, seconds",
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


# -- per-layer metrics --------------------------------------------------------

# Span name -> the figures reported for it.  ``calls`` counts spans, or
# generator objects for a generator; ``yielded`` counts generator items.
# ``total_s`` includes nested spans: the two enumeration functions do their
# work through snf and modules, so their self time alone hides it.
FUNCTION_METRICS = {
    "snf.smith_normal_form": ("calls", "self_s"),
    "snf.snf_diagonal": ("calls",),
    "snf.hermite_normal_form": ("calls",),
    "modules.matmul": ("calls", "self_s"),
    "modules.solve": ("calls", "self_s"),
    "modules.solution_set": ("yielded",),
    "modules.canonicalize": ("calls", "self_s"),
    "modules.kernel": ("calls",),
    "modules.cokernel": ("calls",),
    "modules.direct_sum_many": ("calls",),
    "monoidal.tensor_mor": ("calls", "self_s"),
    "monoidal.hom_module": ("calls",),
    "exact.splits": ("calls", "self_s", "split_ratio"),
    "exact.pullback": ("calls", "self_s"),
    "exact.pushout": ("calls", "self_s"),
    "purity.is_pure": ("calls", "self_s"),
    "purity.is_pure_oracle": ("calls", "self_s"),
    "purity.dual_conflation": ("calls",),
    "purity.extract_section": ("calls",),
    "complexes.splits_as_complexes": ("calls", "self_s", "split_ratio"),
    "complexes.is_contractible": ("calls", "self_s"),
    "enumeration.subgroup_catalog": ("calls", "self_s", "total_s"),
    "enumeration.enumerate_complexes": ("self_s", "total_s"),
    "enumeration.conflations_ending_in": ("yielded",),
    "enumeration.enumerate_complex_conflations_ending_in": ("yielded", "self_s"),
    "enumeration.enumerate_morphisms": ("yielded",),
}

# Metric prefix -> (layer, attribute) of an ``lru_cache`` whose
# ``cache_info()`` is read after the run.
CACHES = {
    "enumeration.subgroup_catalog": ("enumeration", "subgroup_catalog"),
    "enumeration.enumerate_complexes": ("enumeration", "enumerate_complexes"),
    "modules.direct_sum_many": ("modules", "direct_sum_many"),
    "modules.cokernel_order": ("modules", "_cokernel_order"),
    "monoidal.hom_module": ("monoidal", "hom_module"),
    "monoidal.tensor": ("monoidal", "tensor"),
    "purity.baer_injective": ("purity", "_baer_injective"),
    "suites.entry_pure": ("suites", "_entry_pure"),
}

SUITE_RUNNERS = {
    "axioms": "suites.run_axioms",
    "prop1": "suites.run_prop1",
    "flat-equiv": "suites.run_flat_equiv",
    "enough-pi": "suites.run_enough_pi",
    "complexes": "suites.run_complexes",
}

CHAIN_OBJECTS = ("complexes.Complex", "complexes.ChainMap", "complexes.ComplexConflation")


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def _ratio(part, whole):
    return part / whole if whole else 0.0


def per_layer_metrics(summary, report):
    """The per-layer metrics of one traced run, as {name: value}.

    ``report`` is the run's ``Report``, or None when the run crashed.
    """
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(r["self_s"] for r in summary.values() if r["layer"] == layer)
    for name, figures in FUNCTION_METRICS.items():
        row = summary[name]
        calls = row["created"] or row["spans"]
        for figure in figures:
            if figure == "calls":
                values[f"{name}.calls"] = calls
            elif figure == "split_ratio":
                values[f"{name}.split_ratio"] = _ratio(row["non_none"], row["spans"])
            else:
                values[f"{name}.{figure}"] = row[figure]
    values["modules.morphism.constructions"] = summary["modules.morphism"]["spans"]
    values["modules.morphism.validate_s"] = summary["modules.morphism"]["total_s"]
    values["complexes.chain_objects.constructions"] = sum(summary[n]["spans"] for n in CHAIN_OBJECTS)

    for prefix, (layer, attr) in CACHES.items():
        fn = getattr(sys.modules[f"modcat.{layer}"], attr)
        info = (fn if hasattr(fn, "cache_info") else fn.__wrapped__).cache_info()
        lookups = info.hits + info.misses
        values[f"{prefix}.hit_ratio"] = _ratio(info.hits, lookups)
        values[f"{prefix}.cache_hits"] = info.hits
        values[f"{prefix}.cache_calls"] = lookups

    results = {s.name: s for s in report.suites} if report is not None else {}
    for suite, runner in SUITE_RUNNERS.items():
        values[f"suites.{suite}.wall_s"] = summary[runner]["total_s"]
        values[f"suites.{suite}.checks"] = results[suite].checked if suite in results else 0
        values[f"suites.{suite}.failed"] = results[suite].failed if suite in results else 0

    values["trace.spans"] = sum(r["spans"] for r in summary.values())
    return {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}
