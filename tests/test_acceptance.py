"""Acceptance gate: one test (and one printed verdict line) per criterion.

Run with -s to see the verdict lines; `pytest -v` shows one PASSED/FAILED
row per criterion either way.  Bounds here are the contract bounds, not the
unit-test bounds: moduli {4, 8, 9, 12}, modules to order 64, kernels to 16,
complexes over {4, 9} with span 3.
"""

import json
import random
import time

from modcat.modules import FiniteModule, Morphism, RingSpec, cyclic
from modcat.monoidal import (
    curry,
    hom_module,
    tensor,
    tensor_mor,
    uncurry,
)
from modcat.exact import Conflation
from modcat.purity import (
    PurityVerdict,
    conflation_tensor_failure,
    dual,
    dual_conflation,
    is_pure,
    is_pure_oracle,
)
from modcat.enumeration import (
    conflations_ending_in,
    enumerate_modules,
    subgroup_catalog,
)
from modcat.suites import SuiteConfig, replay_counterexample, run_suite

from helpers import postcompose_map, precompose_map, sample_morphisms


MODULI = (4, 8, 9, 12)


def _verdict(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. purity: dual-splits decision vs tensor oracle, zero disagreements
# ---------------------------------------------------------------------------


def test_criterion_1_purity_decision_matches_tensor_oracle():
    t0 = time.monotonic()
    checked = 0
    disagreements = 0
    for n in MODULI:
        for end in enumerate_modules(n, 8):
            for entry in conflations_ending_in(end, 8, 64):
                c = entry.conflation()
                checked += 1
                if is_pure(c).is_pure != is_pure_oracle(c).is_pure:
                    disagreements += 1
    elapsed = time.monotonic() - t0
    _verdict(
        1,
        disagreements == 0 and elapsed <= 300.0,
        f"{checked} conflations (kernel and end <= 8, middle <= 64), "
        f"{disagreements} disagreements, {elapsed:.1f}s (limit 300s)",
    )


# ---------------------------------------------------------------------------
# 2. flatness three ways, with section extraction on flat ends
# ---------------------------------------------------------------------------


def test_criterion_2_flat_equivalence_three_routes():
    cfg = SuiteConfig(moduli=MODULI, max_module_order=64, max_kernel_order=16)
    report = run_suite(cfg, names=("flat-equiv",))
    suite = report.suites[0]
    _verdict(
        2,
        report.exit_code == 0 and suite.checked > 0,
        f"{suite.checked} checks (modules to order 64, kernels to 16), "
        f"{suite.failed} failures",
    )


# ---------------------------------------------------------------------------
# 3. the double-dual pure-injective embedding
# ---------------------------------------------------------------------------


def test_criterion_3_pure_injective_embedding():
    cfg = SuiteConfig(moduli=MODULI, max_module_order=64, max_kernel_order=16)
    report = run_suite(cfg, names=("enough-pi",))
    suite = report.suites[0]
    _verdict(
        3,
        report.exit_code == 0 and suite.checked > 0,
        f"{suite.checked} embeddings (modules to order 64, pure-injectivity "
        f"probed to middle order 16), {suite.failed} failures",
    )


# ---------------------------------------------------------------------------
# 4. complexes: four-way equivalence and the witness classification
# ---------------------------------------------------------------------------


def test_criterion_4_complex_flat_equivalence():
    cfg = SuiteConfig(moduli=(4, 9), max_complex_span=3)
    report = run_suite(cfg, names=("complexes",))
    suite = report.suites[0]
    _verdict(
        4,
        report.exit_code == 0 and suite.checked > 0,
        f"{suite.checked} checks over n in (4, 9), span <= 3, cyclic "
        f"components <= n, {suite.failed} failures",
    )


# ---------------------------------------------------------------------------
# 5. exact-structure axioms
# ---------------------------------------------------------------------------


def test_criterion_5_exact_structure_axioms():
    cfg = SuiteConfig(moduli=MODULI, max_module_order=8)
    report = run_suite(cfg, names=("axioms",))
    suite = report.suites[0]
    _verdict(
        5,
        report.exit_code == 0 and suite.checked > 0,
        f"{suite.checked} axiom instances at module order <= 8, "
        f"{suite.failed} failures",
    )


# ---------------------------------------------------------------------------
# 6. adjunction on >= 1000 sampled triples, exact and natural
# ---------------------------------------------------------------------------


def test_criterion_6_adjunction_on_sampled_triples():
    rng = random.Random("adjunction-acceptance")
    pools = {n: [m for m in enumerate_modules(n, 8)] for n in MODULI}
    checked = 0
    failures = 0
    while checked < 1000:
        n = MODULI[checked % len(MODULI)]
        pool = pools[n]
        f_mod, g_mod, k_mod = (pool[rng.randrange(len(pool))] for _ in range(3))
        t = tensor(f_mod, g_mod)
        seed = rng.randrange(1 << 30)
        f = next(iter(sample_morphisms(t.module, k_mod, 1, seed=seed)))
        cf = curry(f, f_mod, g_mod)
        ok = uncurry(cf, f_mod, g_mod, k_mod) == f
        # round trip from the other side
        h = hom_module(g_mod, k_mod)
        g = next(iter(sample_morphisms(f_mod, h.module, 1, seed=seed + 1)))
        ok = ok and curry(uncurry(g, f_mod, g_mod, k_mod), f_mod, g_mod) == g
        # naturality in each argument against fresh partners
        f2 = pool[rng.randrange(len(pool))]
        u = next(iter(sample_morphisms(f2, f_mod, 1, seed=seed + 2)))
        ok = ok and curry(
            f @ tensor_mor(u, Morphism.identity(g_mod)), f2, g_mod
        ) == cf @ u
        g2 = pool[rng.randrange(len(pool))]
        v = next(iter(sample_morphisms(g2, g_mod, 1, seed=seed + 3)))
        ok = ok and curry(
            f @ tensor_mor(Morphism.identity(f_mod), v), f_mod, g2
        ) == precompose_map(v, k_mod) @ cf
        k2 = pool[rng.randrange(len(pool))]
        w = next(iter(sample_morphisms(k_mod, k2, 1, seed=seed + 4)))
        ok = ok and curry(w @ f, f_mod, g_mod) == postcompose_map(w, g_mod) @ cf
        checked += 1
        if not ok:
            failures += 1
    _verdict(
        6,
        checked >= 1000 and failures == 0,
        f"{checked} sampled (F, G, K, f) instances, both transposes and all "
        f"three naturality squares exact, {failures} failures",
    )


# ---------------------------------------------------------------------------
# 7. structural cross-checks
# ---------------------------------------------------------------------------


def test_criterion_7_structural_cross_checks():
    from math import gcd

    bad = 0
    checked = 0
    for n in MODULI:
        r = RingSpec(n)
        for a in r.divisors():
            for b in r.divisors():
                checked += 1
                h = hom_module(cyclic(r, a), cyclic(r, b)).module.order
                t = tensor(cyclic(r, a), cyclic(r, b)).module.order
                if not (h == t == gcd(a, b)):
                    bad += 1
        for m in enumerate_modules(n, 64):
            checked += 1
            if dual(m).order != m.order:
                bad += 1
        for y in enumerate_modules(n, 16):
            for entry in subgroup_catalog(y):
                checked += 1
                # the entry and its dual are built trusted, so each is
                # rebuilt through the validating constructor
                try:
                    c = entry.conflation()
                    dc = dual_conflation(c)
                    if Conflation(c.f, c.g) != c or Conflation(dc.f, dc.g) != dc:
                        bad += 1
                except ValueError:
                    bad += 1
    _verdict(
        7,
        bad == 0,
        f"{checked} checks: hom/tensor orders are gcds, duals preserve "
        f"order, duals of conflations re-validate; {bad} failures",
    )


# ---------------------------------------------------------------------------
# 8. mutation sensitivity of the purity suite
# ---------------------------------------------------------------------------


def _oracle_skipping_divisor_two(c) -> PurityVerdict:
    ring = c.total.ring
    for d in ring.divisors():
        if d == 2:
            continue
        w = cyclic(ring, d)
        if conflation_tensor_failure(c, w) is not None:
            return PurityVerdict(False, "broken-scan", w.to_dict())
    return PurityVerdict(True, "broken-scan", None)


def test_criterion_8_mutation_sensitivity(monkeypatch):
    cfg = SuiteConfig(moduli=(4,), max_module_order=8, max_kernel_order=4,
                      max_complex_span=2)
    monkeypatch.setattr("modcat.suites.is_pure_oracle", _oracle_skipping_divisor_two)
    report = run_suite(cfg, names=("prop1",))
    suite = report.suites[0]
    ces = [json.loads(json.dumps(ce)) for ce in suite.counterexamples]  # must survive serialization
    replayed = sum(replay_counterexample(ce) for ce in ces)
    monkeypatch.undo()
    honest = sum(replay_counterexample(ce) for ce in ces)
    _verdict(
        8,
        report.exit_code == 1 and suite.failed >= 1 and replayed == len(ces) > 0 and honest == 0,
        f"broken oracle (divisor 2 skipped): exit code {report.exit_code}, "
        f"{suite.failed} counterexamples, {replayed} replayed, "
        f"{honest} replayed with the honest oracle",
    )
