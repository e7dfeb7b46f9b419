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
(modulo the wall-time field).  Each failure is recorded as a dict that
``replay_counterexample`` can feed back through the original checker.  An
exception inside a suite becomes one ``crash`` record for that suite, and
the remaining suites still run.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache

from .complexes import (
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
from .modules import FiniteModule, Morphism, RingSpec, cyclic
from .purity import (
    double_dual_unit,
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
        object.__setattr__(self, "moduli", tuple(self.moduli))
        for n in self.moduli:
            if not isinstance(n, int) or n < 2:
                raise ConfigError(f"modulus must be an integer >= 2, got {n!r}")
        for name in ("max_module_order", "max_kernel_order", "max_complex_span"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
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

    def record(self, ok: bool, ce: dict | None = None):
        self.checked += 1
        if not ok:
            self.failed += 1
            if ce is not None:
                self.counterexamples.append(ce)

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
            f"moduli {', '.join(str(n) for n in cfg.moduli) or '(none)'}"
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


def _ce(check: str, modulus: int | None, reason: str, data: dict) -> dict:
    return {"check": check, "modulus": modulus, "reason": reason, "data": data}


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
    return _ce("crash", None, f"{type(exc).__name__}: {exc}", data)


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
# axioms
# ---------------------------------------------------------------------------


def run_axioms(config: SuiteConfig, pullback_fn=pullback, pushout_fn=pushout) -> SuiteResult:
    res = SuiteResult("axioms")
    for n in config.moduli:
        mid_cap = min(config.max_module_order, AXIOM_MIDDLE_CAP)
        part_cap = min(config.max_module_order, AXIOM_PARTNER_CAP)
        for m in enumerate_modules(n, config.max_module_order):
            ident = Morphism.identity(m)
            ok = is_inflation(ident) and is_deflation(ident)
            res.record(
                ok,
                None
                if ok
                else _ce(
                    "identity-inflation-deflation",
                    n,
                    f"identity of {m.invariant_factors} is not both an inflation and a deflation",
                    {"module": m.to_dict()},
                ),
            )
        for y in enumerate_modules(n, mid_cap):
            for e in subgroup_catalog(y):
                f, g = e.inclusion, e.projection
                for e2 in subgroup_catalog(e.quotient):
                    comp = e2.projection @ g
                    ok = is_deflation(comp)
                    if ok:
                        try:
                            conflation_from_epi(comp)
                        except ValueError:
                            ok = False
                    res.record(
                        ok,
                        None
                        if ok
                        else _ce(
                            "deflation-composition",
                            n,
                            "composite of two deflations is not a deflation",
                            {"first": g.to_dict(), "second": e2.projection.to_dict()},
                        ),
                    )
                for e2 in subgroup_catalog(e.sub):
                    comp = f @ e2.inclusion
                    ok = is_inflation(comp)
                    if ok:
                        try:
                            conflation_from_mono(comp)
                        except ValueError:
                            ok = False
                    res.record(
                        ok,
                        None
                        if ok
                        else _ce(
                            "inflation-composition",
                            n,
                            "composite of two inflations is not an inflation",
                            {"first": e2.inclusion.to_dict(), "second": f.to_dict()},
                        ),
                    )
                for w in enumerate_modules(n, part_cap):
                    hs = _select(
                        enumerate_morphisms(w, e.quotient),
                        config,
                        f"ax-pb:{n}:{y.invariant_factors}:{e.key}:{w.invariant_factors}",
                    )
                    for h in hs:
                        pb = pullback_fn(g, h)
                        ok = is_deflation(pb.to_domh) and (g @ pb.to_domg == h @ pb.to_domh)
                        res.record(
                            ok,
                            None
                            if ok
                            else _ce(
                                "pullback-stability",
                                n,
                                "pullback of a deflation is not a commuting deflation square",
                                {"deflation": g.to_dict(), "along": h.to_dict()},
                            ),
                        )
                    hs = _select(
                        enumerate_morphisms(e.sub, w),
                        config,
                        f"ax-po:{n}:{y.invariant_factors}:{e.key}:{w.invariant_factors}",
                    )
                    for h in hs:
                        po = pushout_fn(f, h)
                        ok = is_inflation(po.from_codh) and (po.from_codf @ f == po.from_codh @ h)
                        res.record(
                            ok,
                            None
                            if ok
                            else _ce(
                                "pushout-stability",
                                n,
                                "pushout of an inflation is not a commuting inflation square",
                                {"inflation": f.to_dict(), "along": h.to_dict()},
                            ),
                        )
    return res


# ---------------------------------------------------------------------------
# prop1: dual-splits purity against the tensor oracle
# ---------------------------------------------------------------------------


def run_prop1(config: SuiteConfig, purity_oracle=is_pure_oracle) -> SuiteResult:
    res = SuiteResult("prop1")
    for n in config.moduli:
        for y in enumerate_modules(n, config.max_module_order):
            entries = _select(
                (
                    e
                    for e in subgroup_catalog(y)
                    if e.sub_order <= config.max_kernel_order
                ),
                config,
                f"prop1:{n}:{y.invariant_factors}",
            )
            for e in entries:
                c = e.conflation()
                primary = _entry_pure(c)
                oracle = purity_oracle(c).is_pure
                ok = primary == oracle
                res.record(
                    ok,
                    None
                    if ok
                    else _ce(
                        "purity-agreement",
                        n,
                        f"dual-splits says {primary}, tensor oracle says {oracle}",
                        {"conflation": c.to_dict()},
                    ),
                )
    return res


# ---------------------------------------------------------------------------
# flat-equiv: four flatness routes + section extraction
# ---------------------------------------------------------------------------


def run_flat_equiv(config: SuiteConfig) -> SuiteResult:
    from .purity import extract_section

    res = SuiteResult("flat-equiv")
    for n in config.moduli:
        for m in enumerate_modules(n, config.max_module_order):
            by_tensor = is_flat_tensor_route(m)
            by_dual = is_flat(m)
            by_structure = flat_structural_oracle(m)
            # The purity leg quantifies over every ending conflation, in
            # sample mode too; only section extraction below is sampled.
            entries = list(
                conflations_ending_in(m, config.max_kernel_order, config.max_module_order)
            )
            witness = next((e for e in entries if not _entry_pure(e.conflation())), None)
            all_pure = witness is None
            ok = by_tensor == by_dual == by_structure == all_pure
            data = {
                "module": m.to_dict(),
                "verdicts": {
                    "tensor_route": by_tensor,
                    "dual_injective": by_dual,
                    "structural": by_structure,
                    "all_ending_pure": all_pure,
                },
                "max_kernel_order": config.max_kernel_order,
                "max_module_order": config.max_module_order,
            }
            if witness is not None:
                data["witness_conflation"] = witness.conflation().to_dict()
            res.record(
                ok,
                None
                if ok
                else _ce(
                    "flat-equiv",
                    n,
                    "flatness routes disagree: " + repr(data["verdicts"]),
                    data,
                ),
            )
            if by_dual and ok:
                for e in _select(entries, config, f"flat:{n}:{m.invariant_factors}"):
                    c = e.conflation()
                    try:
                        extract_section(c)
                        res.record(True)
                    except Exception as exc:  # noqa: BLE001 - recorded, not hidden
                        res.record(
                            False,
                            _ce(
                                "extract-section",
                                n,
                                f"section extraction failed on a flat end: {exc}",
                                {"conflation": c.to_dict()},
                            ),
                        )
    return res


# ---------------------------------------------------------------------------
# enough-pi: the double-dual embedding package
# ---------------------------------------------------------------------------


def run_enough_pi(config: SuiteConfig) -> SuiteResult:
    res = SuiteResult("enough-pi")
    for n in config.moduli:
        mods = _select(
            enumerate_modules(n, config.max_module_order), config, f"epi:{n}"
        )
        for m in mods:
            lam = double_dual_unit(m)
            legs = {
                "lambda_mono": lam.is_mono(),
                "embedding_pure": is_pure(pure_embedding_conflation(m)).is_pure,
                "double_dual_pure_injective": is_pure_injective(
                    lam.codomain, config.max_kernel_order
                ),
                "triangle": triangle_identity_check(m),
            }
            ok = all(legs.values())
            res.record(
                ok,
                None
                if ok
                else _ce(
                    "enough-pi",
                    n,
                    "embedding package failed: "
                    + ", ".join(k for k, v in legs.items() if not v),
                    {
                        "module": m.to_dict(),
                        "legs": legs,
                        "bound": config.max_kernel_order,
                    },
                ),
            )
    return res


# ---------------------------------------------------------------------------
# complexes: the four-way equivalence
# ---------------------------------------------------------------------------


def _complex_legs(f: Complex) -> dict:
    flat_kernels = all(is_flat(k) for k in kernel_objects(f).values())
    return {
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


def _witness_case(ring: RingSpec) -> tuple[bool, dict]:
    """The componentwise-split, non-chain-split conflation: sphere at
    degree 1 into the two-term identity disk onto the sphere at degree 0."""
    p = min(q for q in range(2, ring.modulus + 1) if ring.modulus % q == 0)
    s = cyclic(ring, p)
    disk = two_term_complex(Morphism.identity(s), degree=0)
    x = single_complex(s, 1)
    z = single_complex(s, 0)
    from .complexes import ChainMap

    cc = ComplexConflation(
        ChainMap(x, disk, (Morphism.identity(s),)),
        ChainMap(disk, z, (Morphism.identity(s), Morphism.zero(s, ring.zero_module()))),
    )
    degreewise_pure = all(
        is_pure(cc.degreewise(m)).is_pure for m in disk.degrees()
    )
    chain_split = splits_as_complexes(cc) is not None
    complex_pure = is_pure_complex_conflation(cc).is_pure
    ok = degreewise_pure and not chain_split and not complex_pure
    return ok, {
        "prime": p,
        "degreewise_pure": degreewise_pure,
        "chain_split": chain_split,
        "complex_pure": complex_pure,
    }


def run_complexes(config: SuiteConfig) -> SuiteResult:
    res = SuiteResult("complexes")
    for n in config.moduli:
        ring = RingSpec(n)
        ok, data = _witness_case(ring)
        res.record(
            ok,
            None
            if ok
            else _ce(
                "complex-witness",
                n,
                "componentwise-split witness misclassified: " + repr(data),
                data,
            ),
        )
        complexes = _select(
            enumerate_complexes(n, config.max_complex_span, n),
            config,
            f"cpx:{n}",
        )
        for f in complexes:
            legs = _complex_legs(f)
            verdicts = set(legs.values())
            ok = len(verdicts) == 1
            res.record(
                ok,
                None
                if ok
                else _ce(
                    "complex-four-way",
                    n,
                    "flat-complex conditions disagree: " + repr(legs),
                    {
                        "complex": f.to_dict(),
                        "legs": legs,
                        "kernel_cap": COMPLEX_KERNEL_CAP,
                        "family_cap": COMPLEX_FAMILY_CAP,
                    },
                ),
            )
            dd = double_dual_complex_iso(f)
            ok = all(part.is_iso() for part in dd.parts) or f.is_zero
            res.record(
                ok,
                None
                if ok
                else _ce(
                    "lambda-degreewise",
                    n,
                    "double-dual comparison map is not a degreewise isomorphism",
                    {"complex": f.to_dict()},
                ),
            )
    return res


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


SUITE_ORDER = ("axioms", "prop1", "flat-equiv", "enough-pi", "complexes")


def run_suite(
    config: SuiteConfig,
    names=SUITE_ORDER,
    purity_oracle=is_pure_oracle,
    pullback_fn=pullback,
    pushout_fn=pushout,
) -> Report:
    start = time.monotonic()
    runners = {
        "axioms": lambda: run_axioms(config, pullback_fn=pullback_fn, pushout_fn=pushout_fn),
        "prop1": lambda: run_prop1(config, purity_oracle=purity_oracle),
        "flat-equiv": lambda: run_flat_equiv(config),
        "enough-pi": lambda: run_enough_pi(config),
        "complexes": lambda: run_complexes(config),
    }
    unknown = [x for x in names if x not in runners]
    if unknown:
        raise ConfigError(f"unknown suite name(s): {', '.join(unknown)}")
    suites = []
    for name in SUITE_ORDER:
        if name not in names:
            continue
        try:
            suites.append(runners[name]())
        except Exception as exc:  # noqa: BLE001 - becomes a crash record; the other suites still run
            crashed = SuiteResult(name)
            crashed.record(False, _crash_record(name, config, exc))
            suites.append(crashed)
    elapsed = int((time.monotonic() - start) * 1000)
    return Report(config, suites, elapsed)


def axiom_suite(ring: RingSpec, config: SuiteConfig | None = None) -> Report:
    config = config or SuiteConfig()
    cfg = SuiteConfig(**{**config.to_dict(), "moduli": (ring.modulus,)})
    return run_suite(cfg, names=("axioms",))


def verify_flat_equiv(ring: RingSpec, config: SuiteConfig | None = None) -> Report:
    config = config or SuiteConfig()
    cfg = SuiteConfig(**{**config.to_dict(), "moduli": (ring.modulus,)})
    return run_suite(cfg, names=("flat-equiv",))


def verify_enough_pure_injectives(ring: RingSpec, config: SuiteConfig | None = None) -> Report:
    config = config or SuiteConfig()
    cfg = SuiteConfig(**{**config.to_dict(), "moduli": (ring.modulus,)})
    return run_suite(cfg, names=("enough-pi",))


def verify_complex_flat_equiv(ring: RingSpec, config: SuiteConfig | None = None) -> Report:
    config = config or SuiteConfig()
    cfg = SuiteConfig(**{**config.to_dict(), "moduli": (ring.modulus,)})
    return run_suite(cfg, names=("complexes",))


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def replay_counterexample(
    ce: dict,
    purity_oracle=is_pure_oracle,
    pullback_fn=pullback,
    pushout_fn=pushout,
) -> bool:
    """Re-run the check a counterexample came from; True = failure reproduces."""
    check = ce["check"]
    data = ce["data"]
    if check == "crash":
        report = run_suite(
            SuiteConfig(**data["config"]),
            names=(data["suite"],),
            purity_oracle=purity_oracle,
            pullback_fn=pullback_fn,
            pushout_fn=pushout_fn,
        )
        return report.exit_code == 3
    if check == "identity-inflation-deflation":
        m = FiniteModule.from_dict(data["module"])
        ident = Morphism.identity(m)
        return not (is_inflation(ident) and is_deflation(ident))
    if check == "deflation-composition":
        comp = Morphism.from_dict(data["second"]) @ Morphism.from_dict(data["first"])
        if not is_deflation(comp):
            return True
        try:
            conflation_from_epi(comp)
        except ValueError:
            return True
        return False
    if check == "inflation-composition":
        comp = Morphism.from_dict(data["second"]) @ Morphism.from_dict(data["first"])
        if not is_inflation(comp):
            return True
        try:
            conflation_from_mono(comp)
        except ValueError:
            return True
        return False
    if check == "pullback-stability":
        g = Morphism.from_dict(data["deflation"])
        h = Morphism.from_dict(data["along"])
        pb = pullback_fn(g, h)
        return not (is_deflation(pb.to_domh) and (g @ pb.to_domg == h @ pb.to_domh))
    if check == "pushout-stability":
        f = Morphism.from_dict(data["inflation"])
        h = Morphism.from_dict(data["along"])
        po = pushout_fn(f, h)
        return not (is_inflation(po.from_codh) and (po.from_codf @ f == po.from_codh @ h))
    if check == "purity-agreement":
        c = Conflation.from_dict(data["conflation"])
        return is_pure(c).is_pure != purity_oracle(c).is_pure
    if check == "flat-equiv":
        m = FiniteModule.from_dict(data["module"])
        verdicts = [is_flat_tensor_route(m), is_flat(m), flat_structural_oracle(m)]
        if "witness_conflation" in data:
            c = Conflation.from_dict(data["witness_conflation"])
            verdicts.append(is_pure(c).is_pure)
        else:
            verdicts.append(
                all(
                    _entry_pure(e.conflation())
                    for e in conflations_ending_in(
                        m, data["max_kernel_order"], data["max_module_order"]
                    )
                )
            )
        return len(set(verdicts)) != 1
    if check == "extract-section":
        from .purity import extract_section

        c = Conflation.from_dict(data["conflation"])
        try:
            extract_section(c)
        except Exception:  # noqa: BLE001 - the replay reports, never hides
            return True
        return False
    if check == "enough-pi":
        m = FiniteModule.from_dict(data["module"])
        lam = double_dual_unit(m)
        return not (
            lam.is_mono()
            and is_pure(pure_embedding_conflation(m)).is_pure
            and is_pure_injective(lam.codomain, data["bound"])
            and triangle_identity_check(m)
        )
    if check == "complex-four-way":
        f = Complex.from_dict(data["complex"])
        legs = _complex_legs(f)
        return len(set(legs.values())) != 1
    if check == "complex-witness":
        ok, _ = _witness_case(RingSpec(ce["modulus"]))
        return not ok
    if check == "lambda-degreewise":
        f = Complex.from_dict(data["complex"])
        dd = double_dual_complex_iso(f)
        return not (all(part.is_iso() for part in dd.parts) or f.is_zero)
    raise ValueError(f"unknown counterexample kind: {check!r}")
