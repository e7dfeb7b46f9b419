"""Verification suites: every headline property re-checked over enumerated data.

Five suites, matching the CLI subcommands:

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
                 componentwise-split witness, and the degreewise
                 double-dual spot check.

All walks are deterministic; identical configs yield identical reports
(modulo the wall-time field).

Each check kind (``identity-inflation-deflation``, ``deflation-composition``,
``inflation-composition``, ``pullback-stability``, ``pushout-stability``,
``purity-agreement``, ``flat-equiv``, ``extract-section``, ``enough-pi``,
``complex-witness``, ``complex-four-way``, ``lambda-degreewise``) is one
function that returns None when the check passes and ``(reason, data)``
when it fails.  The suite runner records the result with
``SuiteResult.check``; ``replay_counterexample`` decodes a record's
``data`` and calls the same function.  An exception inside a suite becomes
one ``crash`` record for that suite, whose replay reruns the suite; the
remaining suites still run.

``run_suite(config, names)`` and ``replay_counterexample(record)`` take
nothing else: the checks call the routes they test (``pullback``,
``pushout``, ``is_pure_oracle``, ...) by their names in this module at call
time, so patching such a name substitutes a fake for a run and its replay.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
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
from .modules import FiniteModule, Morphism, RingSpec, _compose_rows, _prime_factors, cyclic
from .purity import (
    double_dual_unit,
    extract_section,
    flat_structural_oracle,
    is_flat,
    is_flat_tensor_route,
    is_pure,
    is_pure_injective,
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
REPORT_SCHEMA_VERSION = 1


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
            (p for p in _prime_factors(n) if n % (p * p) == 0 and p <= max_module_order),
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
    output_format: str = "text"
    output_path: str | None = None

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
        if self.output_format not in ("text", "json"):
            raise ConfigError(f"format must be 'text' or 'json', got {self.output_format!r}")

    def to_dict(self) -> dict:
        return {
            "moduli": list(self.moduli),
            "max_module_order": self.max_module_order,
            "max_kernel_order": self.max_kernel_order,
            "max_complex_span": self.max_complex_span,
            "mode": self.mode,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "output_format": self.output_format,
            "output_path": self.output_path,
        }


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    failed: int = 0
    counterexamples: list = field(default_factory=list)

    def check(self, kind: str, modulus: int | None, failure: tuple[str, dict] | None):
        """Count one check of ``kind``; ``failure`` is None or its (reason, data)."""
        self.checked += 1
        if failure is not None:
            self.failed += 1
            reason, data = failure
            self.counterexamples.append(
                {"check": kind, "modulus": modulus, "reason": reason, "data": data}
            )

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


def _crash_failure(suite: str, config: SuiteConfig, exc: Exception) -> tuple[str, dict]:
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
    return f"{type(exc).__name__}: {exc}", data


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
    return is_pure(conflation).is_pure


# ---------------------------------------------------------------------------
# the checks: each returns None when it passes and (reason, data) when it
# fails; its runner and replay_counterexample both call it
# ---------------------------------------------------------------------------


def _identity_check(m: FiniteModule):
    ident = Morphism.identity(m)
    if is_inflation(ident) and is_deflation(ident):
        return None
    reason = f"identity of {m.invariant_factors} is not both an inflation and a deflation"
    return reason, {"module": m.to_dict()}


def _composition_check(first: Morphism, second: Morphism, inflations: bool):
    """``second @ first`` is again an inflation (or deflation) with a conflation."""
    if inflations:
        is_kind, complete, kind = is_inflation, conflation_from_mono, "inflation"
    else:
        is_kind, complete, kind = is_deflation, conflation_from_epi, "deflation"
    comp = second @ first
    if is_kind(comp):
        # completing an epi / mono can only fail by an internal error,
        # which must surface as a crash, not as a counterexample
        complete(comp)
        return None
    reason = f"composite of two {kind}s is not {'an' if inflations else 'a'} {kind}"
    return reason, {"first": first.to_dict(), "second": second.to_dict()}


def _pullback_check(g: Morphism, h: Morphism):
    """The leg opposite g is a deflation and the square commutes, read as
    one product built here: [g | -h] . [to_g; to_h] == 0 mod cod g."""
    pb = pullback(g, h)
    e = g.codomain.invariant_factors
    span = tuple(rg + tuple(-x % ej for x in rh) for rg, rh, ej in zip(g.matrix, h.matrix, e))
    legs = pb.to_domg.matrix + pb.to_domh.matrix
    if is_deflation(pb.to_domh) and not any(
        map(any, _compose_rows(span, legs, e, pb.module.rank()))
    ):
        return None
    reason = "pullback of a deflation is not a commuting deflation square"
    return reason, {"deflation": g.to_dict(), "along": h.to_dict()}


def _pushout_check(f: Morphism, h: Morphism):
    """The coprojection opposite f is an inflation and the square
    commutes, read as one product built here: [from_f | from_h] . [f; -h]
    == 0 mod the pushout's factors."""
    po = pushout(f, h)
    eh = h.codomain.invariant_factors
    cospan = f.matrix + tuple(tuple(-x % ej for x in row) for row, ej in zip(h.matrix, eh))
    copair = tuple(a + b for a, b in zip(po.from_codf.matrix, po.from_codh.matrix))
    if is_inflation(po.from_codh) and not any(
        map(any, _compose_rows(copair, cospan, po.module.invariant_factors, f.domain.rank()))
    ):
        return None
    reason = "pushout of an inflation is not a commuting inflation square"
    return reason, {"inflation": f.to_dict(), "along": h.to_dict()}


def _purity_check(c: Conflation):
    primary = _entry_pure(c)
    oracle = is_pure_oracle(c).is_pure
    if primary == oracle:
        return None
    reason = f"dual-splits says {primary}, tensor oracle says {oracle}"
    return reason, {"conflation": c.to_dict()}


def _flat_equiv_check(m: FiniteModule, entries, max_kernel_order: int, max_module_order: int):
    """Four flatness routes agree.  ``entries`` are the subgroup entries of
    the conflations ending in m within the two bounds; the purity leg walks
    them up to the first impure one."""
    verdicts = {
        "tensor_route": is_flat_tensor_route(m),
        "dual_injective": is_flat(m),
        "structural": flat_structural_oracle(m),
    }
    witness = next((e for e in entries if not _entry_pure(e.conflation())), None)
    verdicts["all_ending_pure"] = witness is None
    if len(set(verdicts.values())) == 1:
        return None
    data = {
        "module": m.to_dict(),
        "verdicts": verdicts,
        "max_kernel_order": max_kernel_order,
        "max_module_order": max_module_order,
    }
    if witness is not None:
        data["witness_conflation"] = witness.conflation().to_dict()
    return "flatness routes disagree: " + repr(verdicts), data


def _extract_section_check(c: Conflation):
    try:
        extract_section(c)
    except Exception as exc:  # noqa: BLE001 - recorded, not hidden
        return f"section extraction failed on a flat end: {exc}", {"conflation": c.to_dict()}
    return None


def _enough_pi_check(m: FiniteModule, bound: int):
    lam = double_dual_unit(m)
    legs = {
        "lambda_mono": lam.is_mono(),
        "embedding_pure": is_pure(pure_embedding_conflation(m)).is_pure,
        "double_dual_pure_injective": is_pure_injective(lam.codomain, bound),
        "triangle": triangle_identity_check(m),
    }
    if all(legs.values()):
        return None
    reason = "embedding package failed: " + ", ".join(k for k, v in legs.items() if not v)
    return reason, {"module": m.to_dict(), "legs": legs, "bound": bound}


def _four_way_check(f: Complex):
    flat_kernels = all(is_flat(k) for k in kernel_objects(f).values())
    legs = {
        "flat_complex": is_flat_complex(f),
        "dual_injective_complex": is_injective_complex(dual_complex(f)),
        "pure_acyclic_flat_kernels": is_pure_acyclic(f) and flat_kernels,
        "all_ending_pure": all(
            is_pure_complex_conflation(cc).is_pure
            for cc in enumerate_complex_conflations_ending_in(
                f, COMPLEX_KERNEL_CAP, COMPLEX_FAMILY_CAP
            )
        ),
    }
    if len(set(legs.values())) == 1:
        return None
    data = {
        "complex": f.to_dict(),
        "legs": legs,
        "kernel_cap": COMPLEX_KERNEL_CAP,
        "family_cap": COMPLEX_FAMILY_CAP,
    }
    return "flat-complex conditions disagree: " + repr(legs), data


def _witness_check(ring: RingSpec):
    """The componentwise-split, non-chain-split conflation: sphere at
    degree 1 into the two-term identity disk onto the sphere at degree 0."""
    p = _prime_factors(ring.modulus)[0]
    s = cyclic(ring, p)
    disk = two_term_complex(Morphism.identity(s), degree=0)
    x = single_complex(s, 1)
    z = single_complex(s, 0)
    cc = ComplexConflation(
        ChainMap(x, disk, (Morphism.identity(s),)),
        ChainMap(disk, z, (Morphism.identity(s), Morphism.zero(s, ring.zero_module()))),
    )
    data = {
        "prime": p,
        "degreewise_pure": all(is_pure(cc.degreewise(m)).is_pure for m in disk.degrees()),
        "chain_split": splits_as_complexes(cc) is not None,
        "complex_pure": is_pure_complex_conflation(cc).is_pure,
    }
    if data["degreewise_pure"] and not data["chain_split"] and not data["complex_pure"]:
        return None
    return "componentwise-split witness misclassified: " + repr(data), data


def _lambda_degreewise_check(f: Complex):
    if all(part.is_iso() for part in double_dual_complex_iso(f).parts):
        return None
    return "double-dual comparison map is not a degreewise isomorphism", {"complex": f.to_dict()}


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def run_axioms(config: SuiteConfig) -> SuiteResult:
    res = SuiteResult("axioms")
    for n in config.moduli:
        mid_cap = min(config.max_module_order, AXIOM_MIDDLE_CAP)
        part_cap = min(config.max_module_order, AXIOM_PARTNER_CAP)
        for m in enumerate_modules(n, config.max_module_order):
            res.check("identity-inflation-deflation", n, _identity_check(m))
        for y in enumerate_modules(n, mid_cap):
            for e in subgroup_catalog(y):
                f, g = e.inclusion, e.projection
                for e2 in subgroup_catalog(e.quotient):
                    failure = _composition_check(g, e2.projection, inflations=False)
                    res.check("deflation-composition", n, failure)
                for e2 in subgroup_catalog(e.sub):
                    failure = _composition_check(e2.inclusion, f, inflations=True)
                    res.check("inflation-composition", n, failure)
                for w in enumerate_modules(n, part_cap):
                    salt = f"{n}:{y.invariant_factors}:{e.key}:{w.invariant_factors}"
                    for h in _select(enumerate_morphisms(w, e.quotient), config, f"ax-pb:{salt}"):
                        res.check("pullback-stability", n, _pullback_check(g, h))
                    for h in _select(enumerate_morphisms(e.sub, w), config, f"ax-po:{salt}"):
                        res.check("pushout-stability", n, _pushout_check(f, h))
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
                res.check("purity-agreement", n, _purity_check(e.conflation()))
    return res


def run_flat_equiv(config: SuiteConfig) -> SuiteResult:
    """Four flatness routes, then section extraction on every flat end."""
    res = SuiteResult("flat-equiv")
    k, o = config.max_kernel_order, config.max_module_order
    for n in config.moduli:
        for m in enumerate_modules(n, o):
            # The purity leg quantifies over every ending conflation, in
            # sample mode too; only section extraction below is sampled.
            entries = list(conflations_ending_in(m, k, o))
            failure = _flat_equiv_check(m, entries, k, o)
            res.check("flat-equiv", n, failure)
            if failure is None and is_flat(m):
                for e in _select(entries, config, f"flat:{n}:{m.invariant_factors}"):
                    res.check("extract-section", n, _extract_section_check(e.conflation()))
    return res


def run_enough_pi(config: SuiteConfig) -> SuiteResult:
    """The double-dual embedding package."""
    res = SuiteResult("enough-pi")
    for n in config.moduli:
        for m in _select(enumerate_modules(n, config.max_module_order), config, f"epi:{n}"):
            res.check("enough-pi", n, _enough_pi_check(m, config.max_kernel_order))
    return res


def run_complexes(config: SuiteConfig) -> SuiteResult:
    """The witness case, then the four-way equivalence and the degreewise
    double-dual check on every enumerated complex."""
    res = SuiteResult("complexes")
    for n in config.moduli:
        res.check("complex-witness", n, _witness_check(RingSpec(n)))
        for f in _select(enumerate_complexes(n, config.max_complex_span), config, f"cpx:{n}"):
            res.check("complex-four-way", n, _four_way_check(f))
            res.check("lambda-degreewise", n, _lambda_degreewise_check(f))
    return res


# ---------------------------------------------------------------------------
# orchestration and replay
# ---------------------------------------------------------------------------


SUITE_ORDER = ("axioms", "prop1", "flat-equiv", "enough-pi", "complexes")


def run_suite(config: SuiteConfig, names=SUITE_ORDER) -> Report:
    start = time.monotonic()
    # Built per call, so that a name patched or wrapped in this module
    # after import is the one that runs.
    runners = {
        "axioms": run_axioms,
        "prop1": run_prop1,
        "flat-equiv": run_flat_equiv,
        "enough-pi": run_enough_pi,
        "complexes": run_complexes,
    }
    unknown = [x for x in names if x not in runners]
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
    for name in SUITE_ORDER:
        if name not in names:
            continue
        try:
            suites.append(runners[name](config))
        except Exception as exc:  # noqa: BLE001 - becomes a crash record; the other suites still run
            crashed = SuiteResult(name)
            crashed.check("crash", None, _crash_failure(name, config, exc))
            suites.append(crashed)
    elapsed = int((time.monotonic() - start) * 1000)
    return Report(config, suites, elapsed)


def replay_counterexample(ce: dict) -> bool:
    """Re-run the check a counterexample came from; True = failure reproduces.

    A ``crash`` record reruns its suite; every other record decodes its
    data and calls the same check function the suite called.
    """
    check = ce["check"]
    data = ce["data"]
    if check == "crash":
        report = run_suite(SuiteConfig(**data["config"]), names=(data["suite"],))
        return report.exit_code == 3

    def mor(key):
        return Morphism.from_dict(data[key])

    def flat_equiv():
        m = FiniteModule.from_dict(data["module"])
        k, o = data["max_kernel_order"], data["max_module_order"]
        _check_kernel_bound((ce["modulus"],), o, k)
        return _flat_equiv_check(m, conflations_ending_in(m, k, o), k, o)

    replays = {
        "identity-inflation-deflation": lambda: _identity_check(
            FiniteModule.from_dict(data["module"])
        ),
        "deflation-composition": lambda: _composition_check(
            mor("first"), mor("second"), inflations=False
        ),
        "inflation-composition": lambda: _composition_check(
            mor("first"), mor("second"), inflations=True
        ),
        "pullback-stability": lambda: _pullback_check(mor("deflation"), mor("along")),
        "pushout-stability": lambda: _pushout_check(mor("inflation"), mor("along")),
        "purity-agreement": lambda: _purity_check(Conflation.from_dict(data["conflation"])),
        "flat-equiv": flat_equiv,
        "extract-section": lambda: _extract_section_check(Conflation.from_dict(data["conflation"])),
        "enough-pi": lambda: _enough_pi_check(
            FiniteModule.from_dict(data["module"]), data["bound"]
        ),
        "complex-four-way": lambda: _four_way_check(Complex.from_dict(data["complex"])),
        "complex-witness": lambda: _witness_check(RingSpec(ce["modulus"])),
        "lambda-degreewise": lambda: _lambda_degreewise_check(
            Complex.from_dict(data["complex"])
        ),
    }
    if check not in replays:
        raise ValueError(f"unknown counterexample kind: {check!r}")
    return replays[check]() is not None
