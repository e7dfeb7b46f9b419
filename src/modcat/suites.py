"""Verification suites: every headline property re-checked over enumerated data.

Five suites, matching the CLI subcommands; ``SUITES`` names each one's
runner and its CLI help, in run order:

- ``axioms``     exact-structure closure: identities, composition of
                 inflations/deflations, pullback/pushout stability with
                 explicit commuting-square checks.
- ``prop1``      purity decided by "the dual splits" against the
                 independent tensor-with-every-divisor oracle.
- ``flat-equiv`` flatness by tensor exactness, by injectivity of the
                 dual, by the structural factor test, and by purity of
                 every enumerated conflation ending in the module; plus
                 section extraction on every conflation with a flat end.
- ``enough-pi``  the double-dual embedding: lambda mono, embedding pure,
                 double dual pure-injective, triangle identity.
- ``complexes``  the four-way flat-complex equivalence, the
                 componentwise-split witness, and the double-dual
                 check: lambda is an iso in each degree and a chain map.

All walks are deterministic; identical configs yield identical reports
(modulo the wall-time field).

Each check kind is one entry of ``CHECKS``: a function that takes the
record's inputs as its parameters and returns ``{route name: bool}``, and
a policy, under which either every verdict must hold or all verdicts must
agree.  ``SuiteResult.check`` evaluates a check, and only when it fails
writes a record whose ``data`` holds the encoded inputs and the
``verdicts``; ``replay_counterexample`` decodes those inputs by field name,
as the function's annotations type them, and evaluates the same entry.
An exception inside a suite becomes one ``crash`` record for that suite,
whose replay reruns the suite; the remaining suites still run.

``run_suite(config, names)`` and ``replay_counterexample(record)`` take
nothing else: ``SUITES`` names each runner, ``CHECKS`` each check, and the
checks call the routes they test (``pullback``, ``pushout``,
``is_pure_oracle``, ...), by their names in this module at call time, so
patching such a name substitutes a fake for a run and its replay.
"""

from __future__ import annotations

import inspect
import json
import os
import random
import time
import typing
from dataclasses import dataclass, field, fields
from functools import lru_cache

from .complexes import (
    ChainMap,
    Complex,
    ComplexConflation,
    double_dual_complex_iso,
    dual_complex,
    is_flat_complex,
    is_injective_complex,
    is_pure_acyclic,
    is_pure_complex_conflation,
    kernel_objects,
    single_complex,
    splits_as_complexes,
    two_term_complex,
)
from .enumeration import (
    conflations_ending_in,
    enumerate_complexes,
    enumerate_complex_conflations_ending_in,
    enumerate_modules,
    enumerate_morphisms,
    is_pure_injective,
    subgroup_catalog,
)
from .exact import (
    Conflation,
    conflation_from_epi,
    conflation_from_mono,
    is_deflation,
    is_inflation,
    pullback,
    pushout,
)
from .modules import FiniteModule, Morphism, RingSpec, _compose_rows, _prime_powers, cyclic
from .purity import (
    InternalInconsistency,
    NotFlat,
    double_dual_unit,
    extract_section,
    flat_structural_oracle,
    is_flat,
    is_flat_tensor_route,
    is_pure,
    is_pure_oracle,
    pure_embedding_conflation,
    triangle_identity_check,
)

# Closure checks quantify over (conflation, partner) pairs, which grows
# much faster than the per-object walks; these caps keep the axioms
# suite exhaustive at the scale where it is actually run while the rest
# of a default run ranges over the full module bound.
AXIOM_MIDDLE_CAP = 16
AXIOM_PARTNER_CAP = 8

# The complex-conflation family ending in a fixed complex: kernels up to
# this order per degree, and at most this many members beyond the
# always-included disk cover.
COMPLEX_KERNEL_CAP = 4
COMPLEX_FAMILY_CAP = 6

# Version of the JSON report layout; bump it when a field changes meaning.
REPORT_SCHEMA_VERSION = 3


class ConfigError(ValueError):
    """Invalid suite configuration (maps to CLI exit code 2)."""


def _check_kernel_bound(moduli, max_module_order: int, max_kernel_order: int):
    """Raise ``ConfigError`` when flat-equiv would miss an impure conflation
    ending in some non-flat module over Z/n of order <= ``max_module_order``.

    A module is non-flat at a prime p with p^2 | n when its p-part is not
    free, which takes order >= p, and then its smallest impure ending
    conflation Z/p -> Z/p^(b+1) + ... -> F has a kernel of order p.  The
    kernel bound must reach the largest such p; below it the purity leg
    reads "all pure" vacuously and the run reports false counterexamples
    to the flatness theorem.  No other suite reads the kernel bound that
    way: a smaller one only checks fewer conflations.
    """
    for n in moduli:
        needed = max(
            (p for p, q in _prime_powers(n) if q > p and p <= max_module_order),
            default=0,
        )
        if max_kernel_order < needed:
            raise ConfigError(
                f"max_kernel_order {max_kernel_order} is too small for modulus {n}: "
                f"flat-equiv needs kernels of order {needed} to see an impure conflation "
                f"ending in each non-flat module, so it must be at least {needed}"
            )


@dataclass(frozen=True)
class SuiteConfig:
    moduli: tuple[int, ...] = (4, 8, 9, 12)
    max_module_order: int = 64
    max_kernel_order: int = 16
    max_complex_span: int = 4
    mode: str = "exhaustive"
    sample_count: int = 200
    seed: int | None = None

    def __post_init__(self):
        try:
            object.__setattr__(self, "moduli", tuple(self.moduli))
        except TypeError:
            raise ConfigError(f"moduli must be a sequence of integers, got {self.moduli!r}") from None
        if not self.moduli:
            raise ConfigError("moduli must name at least one modulus")
        for n in self.moduli:
            if not isinstance(n, int) or n < 2:
                raise ConfigError(f"modulus must be an integer >= 2, got {n!r}")
        if len(set(self.moduli)) != len(self.moduli):
            raise ConfigError(f"moduli must be distinct, got {self.moduli!r}")
        bounds = ("max_module_order", "max_kernel_order", "max_complex_span")
        integers = bounds + ("sample_count",) + (() if self.seed is None else ("seed",))
        for name in integers:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        # No module has order 0, so a module bound of 0 would check nothing
        # and pass.  A kernel bound of 0 still runs flat-equiv's checks
        # (run_suite rejects it for prop1), and a span of 0 the witness checks.
        for name in bounds:
            least = 1 if name == "max_module_order" else 0
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}")
        if self.mode not in ("exhaustive", "sample"):
            raise ConfigError(f"mode must be 'exhaustive' or 'sample', got {self.mode!r}")
        if self.mode == "sample":
            if self.seed is None:
                raise ConfigError("sample mode requires a seed")
            if self.sample_count <= 0:
                raise ConfigError("sample mode requires a positive sample count")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)} | {"moduli": list(self.moduli)}


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    failed: int = 0
    counterexamples: list = field(default_factory=list)

    def check(self, kind: str, modulus: int, *inputs) -> bool:
        """Evaluate one check of ``kind`` on ``inputs``, given in the order of
        its parameters, and record it when it fails; True when it passes."""
        name, policy, types = CHECKS[kind]
        verdicts = globals()[name](*inputs)
        self.checked += 1
        values = verdicts.values()
        if all(values) if policy == "hold" else len(set(values)) == 1:
            return True
        self.failed += 1
        data = {f: x.to_dict() if hasattr(x, "to_dict") else x for f, x in zip(types, inputs)}
        data["verdicts"] = verdicts
        reason = f"verdicts must {policy}: {verdicts}"
        self.counterexamples.append(dict(check=kind, modulus=modulus, reason=reason, data=data))
        return False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "failed": self.failed,
            "counterexamples": self.counterexamples,
        }


@dataclass
class Report:
    config: SuiteConfig
    suites: list
    elapsed_ms: int

    @property
    def exit_code(self) -> int:
        """0 all passed, 1 some check failed, 3 some suite crashed."""
        if any(ce["check"] == "crash" for s in self.suites for ce in s.counterexamples):
            return 3
        return 1 if any(s.failed for s in self.suites) else 0

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "suites": [s.to_dict() for s in self.suites],
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = ["verification report"]
        cfg = self.config
        lines.append(
            f"moduli {', '.join(str(n) for n in cfg.moduli)}"
            f" | order <= {cfg.max_module_order}"
            f" | kernel <= {cfg.max_kernel_order}"
            f" | span <= {cfg.max_complex_span}"
            f" | mode {cfg.mode}"
            + (f" (samples {cfg.sample_count}, seed {cfg.seed})" if cfg.mode == "sample" else "")
        )
        for s in self.suites:
            status = "ok" if s.failed == 0 else "FAIL"
            lines.append(f"  {s.name:<11} checked {s.checked:>7}  failed {s.failed:>3}  [{status}]")
            for ce in s.counterexamples:
                if ce["check"] == "crash":
                    lines.append(f"    crash: {ce['reason']}")
                else:
                    lines.append(f"    counterexample ({ce['check']}, n={ce['modulus']}): {ce['reason']}")
        lines.append(f"elapsed {self.elapsed_ms} ms")
        return "\n".join(lines) + "\n"


def _crash_record(suite: str, config: SuiteConfig, exc: Exception) -> dict:
    import traceback

    # Frames as "file.py:line in function", without directories, so the
    # record reads the same in every checkout of the same code.
    frames = [
        f"{os.path.basename(fr.filename)}:{fr.lineno} in {fr.name}"
        for fr in traceback.extract_tb(exc.__traceback__)
    ]
    data = {
        "suite": suite,
        "exception": type(exc).__name__,
        "message": str(exc),
        "traceback": frames,
        "config": config.to_dict(),
    }
    return dict(check="crash", modulus=None, reason=f"{type(exc).__name__}: {exc}", data=data)


def _select(items, config: SuiteConfig, salt: str) -> list:
    """The whole list, or a reproducible seeded subsample of it."""
    items = list(items)
    if config.mode == "exhaustive" or len(items) <= config.sample_count:
        return items
    rng = random.Random(f"{config.seed}:{salt}")
    picked = sorted(rng.sample(range(len(items)), config.sample_count))
    return [items[i] for i in picked]


@lru_cache(maxsize=1 << 17)
def _entry_pure(conflation: Conflation) -> bool:
    return is_pure(conflation)


# ---------------------------------------------------------------------------
# the checks: each takes its record's inputs as its parameters and returns
# {verdict name: bool}; CHECKS below says which verdicts must hold or agree
# ---------------------------------------------------------------------------


def _identity_check(module: FiniteModule):
    ident = Morphism.identity(module)
    return {"inflation": is_inflation(ident), "deflation": is_deflation(ident)}


def _composition_check(first: Morphism, second: Morphism, is_kind, complete) -> bool:
    """``second @ first`` is again an inflation (or deflation), which
    ``complete`` completes to a conflation."""
    comp = second @ first
    if not is_kind(comp):
        return False
    # completing an epi / mono can only fail by an internal error,
    # which must surface as a crash, not as a counterexample
    complete(comp)
    return True


def _deflation_composition_check(first: Morphism, second: Morphism):
    return {"deflation": _composition_check(first, second, is_deflation, conflation_from_epi)}


def _inflation_composition_check(first: Morphism, second: Morphism):
    return {"inflation": _composition_check(first, second, is_inflation, conflation_from_mono)}


def _pullback_check(deflation: Morphism, along: Morphism):
    """The leg opposite g is a deflation and the square commutes, read as
    one product built here: [g | -h] . [to_g; to_h] == 0 mod cod g."""
    g, h = deflation, along
    pb = pullback(g, h)
    e = g.codomain.invariant_factors
    span = tuple(rg + tuple(-x % ej for x in rh) for rg, rh, ej in zip(g.matrix, h.matrix, e))
    legs = pb.to_domg.matrix + pb.to_domh.matrix
    return {
        "deflation": is_deflation(pb.to_domh),
        "commutes": not any(map(any, _compose_rows(span, legs, e, pb.module.rank()))),
    }


def _pushout_check(inflation: Morphism, along: Morphism):
    """The coprojection opposite f is an inflation and the square
    commutes, read as one product built here: [from_f | from_h] . [f; -h]
    == 0 mod the pushout's factors."""
    f, h = inflation, along
    po = pushout(f, h)
    eh = h.codomain.invariant_factors
    cospan = f.matrix + tuple(tuple(-x % ej for x in row) for row, ej in zip(h.matrix, eh))
    copair = tuple(a + b for a, b in zip(po.from_codf.matrix, po.from_codh.matrix))
    product = _compose_rows(copair, cospan, po.module.invariant_factors, f.domain.rank())
    return {"inflation": is_inflation(po.from_codh), "commutes": not any(map(any, product))}


def _purity_check(conflation: Conflation):
    return {"dual_splits": _entry_pure(conflation), "tensor_oracle": is_pure_oracle(conflation)}


def _flat_equiv_check(module: FiniteModule, max_kernel_order: int, max_module_order: int):
    """Four flatness routes agree.  The purity leg walks the subgroup entries
    of the conflations ending in the module within the two bounds lazily,
    up to the first impure one."""
    _check_kernel_bound((module.ring.modulus,), max_module_order, max_kernel_order)
    entries = conflations_ending_in(module, max_kernel_order, max_module_order)
    return {
        "tensor_route": is_flat_tensor_route(module),
        "dual_injective": is_flat(module),
        "structural": flat_structural_oracle(module),
        "all_ending_pure": all(_entry_pure(e.conflation()) for e in entries),
    }


def _extract_section_check(conflation: Conflation):
    try:
        extract_section(conflation)
    except (NotFlat, InternalInconsistency):
        return {"section_extracted": False}
    return {"section_extracted": True}


def _enough_pi_check(module: FiniteModule, bound: int):
    lam = double_dual_unit(module)
    return {
        "lambda_mono": lam.is_mono(),
        "embedding_pure": is_pure(pure_embedding_conflation(module)),
        "double_dual_pure_injective": is_pure_injective(lam.codomain, bound),
        "triangle": triangle_identity_check(module),
    }


def _four_way_check(complex: Complex, kernel_cap: int, family_cap: int):
    flat_kernels = all(is_flat(k) for k in kernel_objects(complex).values())
    family = enumerate_complex_conflations_ending_in(complex, kernel_cap, family_cap)
    return {
        "flat_complex": is_flat_complex(complex),
        "dual_injective_complex": is_injective_complex(dual_complex(complex)),
        "pure_acyclic_flat_kernels": is_pure_acyclic(complex) and flat_kernels,
        "all_ending_pure": all(is_pure_complex_conflation(cc) for cc in family),
    }


def _witness_check(modulus: int):
    """The componentwise-split, non-chain-split conflation: sphere at
    degree 1 into the two-term identity disk onto the sphere at degree 0."""
    ring = RingSpec(modulus)
    s = cyclic(ring, _prime_powers(modulus)[0][0])
    disk = two_term_complex(Morphism.identity(s), degree=0)
    x = single_complex(s, 1)
    z = single_complex(s, 0)
    cc = ComplexConflation(
        ChainMap(x, disk, (Morphism.identity(s),)),
        ChainMap(disk, z, (Morphism.identity(s), Morphism.zero(s, ring.zero_module()))),
    )
    return {
        "degreewise_pure": all(is_pure(cc.degreewise(m)) for m in disk.degrees()),
        "not_chain_split": splits_as_complexes(cc.g) is None,
        "not_pure": not is_pure_complex_conflation(cc),
    }


def _lambda_degreewise_check(complex: Complex):
    lam = double_dual_complex_iso(complex)
    return {
        "degreewise_iso": all(part.is_iso() for part in lam.parts),
        "chain_map": lam.noncommuting_degree() is None,
    }


def _fields(check) -> dict:
    """A check's record fields, each with the type it decodes to: its
    parameters, as annotated."""
    hints = typing.get_type_hints(check)
    return {name: hints[name] for name in inspect.signature(check).parameters}


# check kind -> (name of its function in this module, policy, record
# fields and their types); under "hold" every verdict must be True, under
# "agree" all verdicts must be equal.  The function is looked up by name
# at call time.
CHECKS = {
    kind: (check.__name__, policy, _fields(check))
    for kind, check, policy in (
        ("identity-inflation-deflation", _identity_check, "hold"),
        ("deflation-composition", _deflation_composition_check, "hold"),
        ("inflation-composition", _inflation_composition_check, "hold"),
        ("pullback-stability", _pullback_check, "hold"),
        ("pushout-stability", _pushout_check, "hold"),
        ("purity-agreement", _purity_check, "agree"),
        ("flat-equiv", _flat_equiv_check, "agree"),
        ("extract-section", _extract_section_check, "hold"),
        ("enough-pi", _enough_pi_check, "hold"),
        ("complex-witness", _witness_check, "hold"),
        ("complex-four-way", _four_way_check, "agree"),
        ("lambda-degreewise", _lambda_degreewise_check, "hold"),
    )
}


def _decode(name: str, cls: type, value):
    if cls is not int:
        if not isinstance(value, dict):
            raise ValueError(f"record field {name} must be a dict, not {type(value).__name__}")
        try:
            return cls.from_dict(value)
        except KeyError as exc:
            raise ValueError(f"record field {name} lacks the key {exc.args[0]!r}") from exc
        except TypeError as exc:
            raise ValueError(f"record field {name} is malformed: {exc}") from exc
    if type(value) is not int:
        raise TypeError(f"record field {name} must be an int, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def run_axioms(config: SuiteConfig) -> SuiteResult:
    res = SuiteResult("axioms")
    for n in config.moduli:
        mid_cap = min(config.max_module_order, AXIOM_MIDDLE_CAP)
        part_cap = min(config.max_module_order, AXIOM_PARTNER_CAP)
        for m in enumerate_modules(n, config.max_module_order):
            res.check("identity-inflation-deflation", n, m)
        for y in enumerate_modules(n, mid_cap):
            for e in subgroup_catalog(y):
                f, g = e.inclusion, e.projection
                for e2 in subgroup_catalog(e.quotient):
                    res.check("deflation-composition", n, g, e2.projection)
                for e2 in subgroup_catalog(e.sub):
                    res.check("inflation-composition", n, e2.inclusion, f)
                for w in enumerate_modules(n, part_cap):
                    salt = f"{n}:{y.invariant_factors}:{e.key}:{w.invariant_factors}"
                    for h in _select(enumerate_morphisms(w, e.quotient), config, f"ax-pb:{salt}"):
                        res.check("pullback-stability", n, g, h)
                    for h in _select(enumerate_morphisms(e.sub, w), config, f"ax-po:{salt}"):
                        res.check("pushout-stability", n, f, h)
    return res


def run_prop1(config: SuiteConfig) -> SuiteResult:
    """Dual-splits purity against the tensor oracle."""
    res = SuiteResult("prop1")
    for n in config.moduli:
        for y in enumerate_modules(n, config.max_module_order):
            entries = _select(
                (e for e in subgroup_catalog(y) if e.sub_order <= config.max_kernel_order),
                config,
                f"prop1:{n}:{y.invariant_factors}",
            )
            for e in entries:
                res.check("purity-agreement", n, e.conflation())
    return res


def run_flat_equiv(config: SuiteConfig) -> SuiteResult:
    """Four flatness routes, then section extraction on every flat end."""
    res = SuiteResult("flat-equiv")
    k, o = config.max_kernel_order, config.max_module_order
    for n in config.moduli:
        for m in enumerate_modules(n, o):
            # The purity leg walks the ending conflations up to the first
            # impure one, in sample mode too; only section extraction
            # below, which walks them again for a flat end, is sampled.
            if res.check("flat-equiv", n, m, k, o) and is_flat(m):
                salt = f"flat:{n}:{m.invariant_factors}"
                for e in _select(conflations_ending_in(m, k, o), config, salt):
                    res.check("extract-section", n, e.conflation())
    return res


def run_enough_pi(config: SuiteConfig) -> SuiteResult:
    """The double-dual embedding package.  Its pure-injective leg reads
    ``max_kernel_order`` as the largest *middle* order of the conflations
    starting at M++: at default bounds 53 of the 76 modules have no
    nontrivial one (38 none, as |M| > 16; 15 only M++ -> M++ -> 0)."""
    res = SuiteResult("enough-pi")
    for n in config.moduli:
        for m in _select(enumerate_modules(n, config.max_module_order), config, f"epi:{n}"):
            res.check("enough-pi", n, m, config.max_kernel_order)
    return res


def run_complexes(config: SuiteConfig) -> SuiteResult:
    """The witness case, then the four-way equivalence and the double-dual
    check on every enumerated complex."""
    res = SuiteResult("complexes")
    for n in config.moduli:
        res.check("complex-witness", n, n)
        for f in _select(enumerate_complexes(n, config.max_complex_span), config, f"cpx:{n}"):
            res.check("complex-four-way", n, f, COMPLEX_KERNEL_CAP, COMPLEX_FAMILY_CAP)
            res.check("lambda-degreewise", n, f)
    return res


# ---------------------------------------------------------------------------
# orchestration and replay
# ---------------------------------------------------------------------------


# suite name -> (name of its runner in this module, CLI help), in run
# order.  The runner is looked up by name at call time, so a runner
# patched or wrapped in this module after import is the one that runs.
SUITES = {
    name: (runner.__name__, help_)
    for name, runner, help_ in (
        ("axioms", run_axioms,
         "exact-structure closure axioms (identities, composition, pullback/pushout stability)"),
        ("prop1", run_prop1, "purity via dual-splits against the tensor oracle"),
        ("flat-equiv", run_flat_equiv, "flatness equivalences and section extraction"),
        ("enough-pi", run_enough_pi, "double-dual pure-injective embedding"),
        ("complexes", run_complexes, "four-way flat-complex equivalence"),
    )
}
SUITE_ORDER = tuple(SUITES)


def run_suite(config: SuiteConfig, names=SUITE_ORDER) -> Report:
    start = time.monotonic()
    unknown = [x for x in names if x not in SUITES]
    if unknown:
        raise ConfigError(f"unknown suite name(s): {', '.join(unknown)}")
    if "flat-equiv" in names:
        _check_kernel_bound(config.moduli, config.max_module_order, config.max_kernel_order)
    if "prop1" in names and config.max_kernel_order < 1:
        raise ConfigError(
            "max_kernel_order must be >= 1 for prop1, which checks only conflations "
            "with a kernel of order at most the bound"
        )
    suites = []
    for name, (runner, _) in SUITES.items():
        if name not in names:
            continue
        try:
            suites.append(globals()[runner](config))
        except Exception as exc:  # noqa: BLE001 - becomes a crash record; the other suites still run
            suites.append(SuiteResult(name, 1, 1, [_crash_record(name, config, exc)]))
    elapsed = int((time.monotonic() - start) * 1000)
    return Report(config, suites, elapsed)


def replay_counterexample(ce: dict) -> bool:
    """Re-run the check a counterexample came from; True = failure reproduces.

    A ``crash`` record reruns its suite; every other record decodes its
    inputs by field name and evaluates the same ``CHECKS`` entry the suite
    evaluated.  A record without ``check``, ``modulus`` or ``data``, a
    record whose ``data`` is not a dict of its kind's fields plus
    ``verdicts``, a field that is not a dict or that lacks a key or holds
    a value of the wrong type at any depth, or a crash record whose
    ``data`` lacks ``suite`` or whose ``config`` is not the fields of
    ``SuiteConfig``, raises ``ValueError``; a record's modulus or an int
    field that is not an int raises ``TypeError``.
    """
    _expect_fields("counterexample record", ce, ("check", "modulus", "data"), exact=False)
    kind, data = ce["check"], ce["data"]
    if kind == "crash":
        _expect_fields("crash record's data", data, ("suite", "config"), exact=False)
        _expect_fields("crash record's config", data["config"], [f.name for f in fields(SuiteConfig)])
        report = run_suite(SuiteConfig(**data["config"]), names=(data["suite"],))
        return report.exit_code == 3
    if kind not in CHECKS:
        raise ValueError(f"unknown counterexample kind: {kind!r}")
    types = CHECKS[kind][2]
    _expect_fields(f"{kind} record's data", data, [*types, "verdicts"])
    inputs = [_decode(name, t, data[name]) for name, t in types.items()]
    return not SuiteResult(kind).check(kind, _decode("modulus", int, ce["modulus"]), *inputs)


def _expect_fields(what: str, data, names, exact: bool = True) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"a {what} must be a dict, not {type(data).__name__}")
    if any(name not in data for name in names) or (exact and len(data) != len(names)):
        raise ValueError(f"a {what} must have the fields {', '.join(names)}, not {', '.join(data)}")
