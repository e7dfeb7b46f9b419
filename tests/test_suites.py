"""Verification suites: green runs, determinism, and mutation sensitivity.

The mutants here are the point of the file: a purity oracle that skips one
divisor, a pullback and a pushout built with the wrong sign, and one forced
failure for every other check kind.  A healthy suite must flag each, emit
counterexamples that replay, and stay green when the honest implementations
are restored.
"""

import inspect
import itertools
import json
import pathlib
import re
import sys
import typing

import pytest

import modcat
from modcat.complexes import ChainMap, double_dual_complex_iso, dual_complex, single_complex
from modcat.modules import Morphism, RingSpec, cyclic
from modcat.exact import Pullback, Pushout
from modcat.purity import InternalInconsistency, conflation_tensor_failure, dual_mor, is_flat
from modcat.suites import (
    CHECKS,
    COMPLEX_FAMILY_CAP,
    COMPLEX_KERNEL_CAP,
    ConfigError,
    Report,
    SuiteConfig,
    SUITE_ORDER,
    _check_kernel_bound,
    replay_counterexample,
    run_suite,
)

from helpers import direct_sum_pullback, direct_sum_pushout, source_mutant


TINY = SuiteConfig(
    moduli=(4,), max_module_order=8, max_kernel_order=4, max_complex_span=2
)


# ---------------------------------------------------------------------------
# mutants
# ---------------------------------------------------------------------------


def broken_oracle(c) -> bool:
    """Tensor-scan purity that never tests the divisor 2."""
    ring = c.total.ring
    for d in ring.divisors():
        if d == 2:
            continue
        if conflation_tensor_failure(c, cyclic(ring, d)) is not None:
            return False
    return True


def bad_pullback(g, h) -> Pullback:
    """Pullback assembled from {(y, w) : g(y) = -h(w)} — the wrong square."""
    return direct_sum_pullback(g, -h)[0]


def bad_pushout(f, h) -> Pushout:
    """Pushout taken modulo {(f x, h x)} — the wrong square."""
    return direct_sum_pushout(f, -h)[0]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_defaults():
    cfg = SuiteConfig()
    assert cfg.moduli == (4, 8, 9, 12)
    assert cfg.max_module_order == 64
    assert cfg.max_kernel_order == 16
    assert cfg.max_complex_span == 4
    assert cfg.mode == "exhaustive"


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        SuiteConfig(moduli=(1,))
    with pytest.raises(ConfigError):
        SuiteConfig(moduli=(4.0,))
    with pytest.raises(ConfigError):
        SuiteConfig(moduli=())
    with pytest.raises(ConfigError):
        SuiteConfig(moduli=4)
    with pytest.raises(ConfigError):
        SuiteConfig(moduli=(4, 4))
    with pytest.raises(ConfigError):
        SuiteConfig(max_module_order=-1)
    # No module has order 0, so these bounds would check nothing and pass:
    # axioms, prop1 and enough-pi at module bound 0, prop1 at kernel bound 0.
    with pytest.raises(ConfigError, match="max_module_order must be >= 1"):
        SuiteConfig(moduli=(4,), max_module_order=0)
    for names in (("prop1",), SUITE_ORDER):
        with pytest.raises(ConfigError, match="max_kernel_order must be >= 1"):
            run_suite(SuiteConfig(moduli=(6,), max_kernel_order=0), names=names)
    with pytest.raises(ConfigError):
        SuiteConfig(max_kernel_order=-1)
    with pytest.raises(ConfigError):
        SuiteConfig(max_complex_span=-1)
    # Kernel bound 0 still runs flat-equiv (test_flat_equiv_passes_at_the_
    # kernel_threshold), and span 0 the complex-witness checks.
    report = run_suite(SuiteConfig(moduli=(4,), max_module_order=4, max_complex_span=0),
                       names=("complexes",))
    assert report.suites[0].checked > 0 and report.exit_code == 0
    with pytest.raises(ConfigError):
        SuiteConfig(mode="fuzz")
    with pytest.raises(ConfigError):
        SuiteConfig(mode="sample")  # no seed
    with pytest.raises(ConfigError):
        SuiteConfig(mode="sample", seed=1, sample_count=0)
    for bad in (
        {"max_module_order": "8"},
        {"max_kernel_order": 2.5},
        {"max_complex_span": True},
        {"mode": "sample", "seed": 1, "sample_count": 2.5},
        {"mode": "sample", "seed": 1.5},
        {"mode": "sample", "seed": "1"},
    ):
        with pytest.raises(ConfigError):
            SuiteConfig(**bad)
    # Below the largest prime p with p^2 | n, flat-equiv misses the impure
    # conflations Z/p -> ... -> F and reports false counterexamples, so a
    # run that includes it is rejected before any suite runs.  The other
    # suites only check fewer conflations and accept such a config
    # (test_cli's repeated-modulus run is enough-pi at modulus 9, kernel 2).
    for moduli, order, kernel, named in (
        ((4, 8, 9, 12), 16, 2, "modulus 9"),
        ((4,), 64, 1, "modulus 4"),
        ((50,), 8, 4, "modulus 50"),
    ):
        cfg = SuiteConfig(moduli=moduli, max_module_order=order, max_kernel_order=kernel)
        for names in (("flat-equiv",), SUITE_ORDER):
            with pytest.raises(ConfigError, match=named):
                run_suite(cfg, names=names)


@pytest.mark.parametrize(
    "n,order,kernel",
    [
        (9, 16, 3),
        (36, 16, 3),
        (50, 8, 5),
        (25, 4, 0),  # Z/5 has order 5: no non-flat module within the order bound
        (6, 16, 0),  # squarefree: every module is flat
    ],
)
def test_flat_equiv_passes_at_the_kernel_threshold(n, order, kernel):
    """At the smallest accepted kernel bound, flat-equiv reports no failure."""
    cfg = SuiteConfig(moduli=(n,), max_module_order=order, max_kernel_order=kernel)
    report = run_suite(cfg, names=("flat-equiv",))
    assert report.suites[0].checked > 0
    assert report.exit_code == 0
    if kernel:
        below = SuiteConfig(moduli=(n,), max_module_order=order, max_kernel_order=kernel - 1)
        with pytest.raises(ConfigError, match=f"at least {kernel}"):
            run_suite(below, names=("flat-equiv",))


@pytest.mark.parametrize(
    "n,needed",
    [(4, 2), (8, 2), (12, 2), (9, 3), (18, 3), (36, 3), (25, 5), (50, 5), (6, 0), (30, 0)],
)
def test_kernel_bound_table(n, needed):
    """The README's table: the largest prime p with p^2 | n, 0 when squarefree."""
    _check_kernel_bound((n,), 64, needed)
    if needed:
        with pytest.raises(ConfigError, match=f"modulus {n}.*at least {needed}"):
            _check_kernel_bound((n,), 64, needed - 1)


def test_replay_rejects_a_flat_equiv_record_below_the_kernel_bound():
    # A record written below the bound (as older versions did, for Z/3 over
    # Z/9 at order 8, kernel 2) would replay as a reproduced counterexample.
    record = {
        "check": "flat-equiv",
        "modulus": 9,
        "reason": "flatness routes disagree",
        "data": {
            "module": cyclic(RingSpec(9), 3).to_dict(),
            "max_kernel_order": 2,
            "max_module_order": 8,
            "verdicts": {
                "tensor_route": False,
                "dual_injective": False,
                "structural": False,
                "all_ending_pure": True,
            },
        },
    }
    with pytest.raises(ConfigError, match="modulus 9.*at least 3"):
        replay_counterexample(record)
    record["data"]["max_kernel_order"] = 3
    assert not replay_counterexample(record)


def test_unknown_suite_name():
    with pytest.raises(ConfigError):
        run_suite(TINY, names=("axioms", "nonsense"))


# ---------------------------------------------------------------------------
# green runs
# ---------------------------------------------------------------------------


def test_tiny_run_is_green_everywhere():
    report = run_suite(TINY)
    assert report.exit_code == 0
    assert [s.name for s in report.suites] == list(SUITE_ORDER)
    for s in report.suites:
        assert s.checked > 0
        assert s.failed == 0
        assert s.counterexamples == []


def test_report_rendering():
    report = run_suite(TINY, names=("axioms",))
    text = report.to_text()
    assert text.startswith("verification report")
    assert "axioms" in text and "[ok]" in text
    payload = json.loads(report.to_json())
    assert payload["schema_version"] == 3
    assert payload["suites"][0]["name"] == "axioms"
    assert payload["config"]["moduli"] == [4]


def test_determinism_modulo_elapsed():
    a = run_suite(TINY, names=("prop1", "flat-equiv")).to_dict()
    b = run_suite(TINY, names=("prop1", "flat-equiv")).to_dict()
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a["schema_version"] == 3
    assert a == b


def test_sample_mode_is_deterministic_and_green():
    cfg = SuiteConfig(
        moduli=(4,),
        max_module_order=8,
        max_kernel_order=4,
        max_complex_span=2,
        mode="sample",
        sample_count=25,
        seed=99,
    )
    r1 = run_suite(cfg).to_dict()
    r2 = run_suite(cfg).to_dict()
    r1.pop("elapsed_ms")
    r2.pop("elapsed_ms")
    assert r1 == r2
    assert all(s["failed"] == 0 for s in r1["suites"])


def test_sample_mode_flat_equiv_checks_every_ending_conflation():
    # One sample per module misses most impure ending conflations; the
    # "every conflation ending in F is pure" leg must still see them all,
    # so that only section extraction is sampled.
    cfg = SuiteConfig(
        moduli=(4,),
        max_module_order=16,
        max_kernel_order=4,
        mode="sample",
        sample_count=1,
        seed=0,
    )
    sampled = run_suite(cfg, names=("flat-equiv",)).suites[0]
    assert sampled.failed == 0, sampled.counterexamples
    exhaustive = run_suite(
        SuiteConfig(moduli=(4,), max_module_order=16, max_kernel_order=4),
        names=("flat-equiv",),
    ).suites[0]
    assert exhaustive.failed == 0
    assert sampled.checked < exhaustive.checked


def test_the_flat_equiv_purity_leg_stops_at_the_first_impure_conflation(monkeypatch):
    """The check walks the conflations ending in its module lazily: for a
    non-flat end it pulls them up to its first impure one and no further,
    and for a flat end the runner walks them once more for sections."""
    import modcat.suites as ms

    walks = []
    real_walk, real_pure = ms.conflations_ending_in, ms._entry_pure

    def walk(module, kernel_bound, middle_bound):
        pulled, verdicts = [], []
        walks.append((module, pulled, verdicts))
        for entry in real_walk(module, kernel_bound, middle_bound):
            pulled.append(entry)
            yield entry

    def entry_pure(conflation):
        verdict = real_pure(conflation)
        walks[-1][2].append(verdict)
        return verdict

    monkeypatch.setattr(ms, "conflations_ending_in", walk)
    monkeypatch.setattr(ms, "_entry_pure", entry_pure)
    assert run_suite(TINY, names=("flat-equiv",)).exit_code == 0
    modules = [module for module, _, _ in walks]
    assert all(is_flat(m) for m in modules if modules.count(m) > 1)
    non_flat = [(pulled, verdicts) for module, pulled, verdicts in walks if not is_flat(module)]
    assert non_flat
    for pulled, verdicts in non_flat:
        assert len(pulled) == len(verdicts) and verdicts == [True] * (len(verdicts) - 1) + [False]
    assert sum(len(pulled) for _, pulled, _ in walks) == 34


# ---------------------------------------------------------------------------
# mutation sensitivity
# ---------------------------------------------------------------------------


def test_broken_tensor_oracle_is_caught_and_replayable(monkeypatch):
    monkeypatch.setattr("modcat.suites.is_pure_oracle", broken_oracle)
    report = run_suite(TINY, names=("prop1",))
    assert report.exit_code == 1
    suite = report.suites[0]
    assert suite.failed > 0
    assert suite.counterexamples
    # serialize through JSON: the stored detail must survive transport
    ces = [json.loads(json.dumps(ce)) for ce in suite.counterexamples]
    for ce in ces:
        assert ce["check"] == "purity-agreement"
        assert replay_counterexample(ce)
    monkeypatch.undo()
    for ce in ces:
        assert not replay_counterexample(ce)  # honest oracle: no disagreement


def test_wrong_sign_pullback_is_caught_by_the_square_check(monkeypatch):
    monkeypatch.setattr("modcat.suites.pullback", bad_pullback)
    report = run_suite(TINY, names=("axioms",))
    assert report.exit_code == 1
    suite = report.suites[0]
    assert suite.failed > 0
    kinds = {ce["check"] for ce in suite.counterexamples}
    assert "pullback-stability" in kinds
    ces = [json.loads(json.dumps(ce)) for ce in suite.counterexamples]
    ces = [ce for ce in ces if ce["check"] == "pullback-stability"]
    for ce in ces:
        assert replay_counterexample(ce)
    monkeypatch.undo()
    for ce in ces:
        assert not replay_counterexample(ce)


@pytest.mark.parametrize("name", ["pullback", "pushout"])
def test_a_construction_that_negates_the_wrong_leg_fails_its_own_square(monkeypatch, name):
    """A construction that negates the wrong leg (``x % ej`` for
    ``-x % ej``) takes the kernel or cokernel of the wrong stacked rows;
    its square, read off the given maps and the legs rather than those
    rows, does not commute, so the run is a crash record, not a
    counterexample to the axioms."""
    import modcat.exact as ex
    import modcat.suites as ms

    mutant = source_mutant(getattr(ex, name), "-x % ej", "x % ej")
    monkeypatch.setattr(ms, name, mutant)
    report = run_suite(TINY, names=("axioms",))
    assert report.exit_code == 3
    records = report.suites[0].counterexamples
    assert records and all(ce["check"] == "crash" for ce in records)
    assert records[0]["data"]["exception"] == "AssertionError"
    assert "square does not commute" in records[0]["reason"]


@pytest.mark.parametrize(
    "name, kind",
    [("_pullback_check", "pullback-stability"), ("_pushout_check", "pushout-stability")],
)
def test_the_checks_own_square_product_is_not_vacuous(monkeypatch, name, kind):
    """The check's own product [g | -h] . [to_g; to_h] (or
    [from_f | from_h] . [f; -h]) is evaluated, not trusted to the
    construction: the same flip of sign in the check fails honest
    constructions, with counterexamples that replay under the mutant and
    not under the honest check."""
    import modcat.suites as ms

    monkeypatch.setattr(ms, name, source_mutant(getattr(ms, name), "-x % ej", "x % ej"))
    report = run_suite(TINY, names=("axioms",))
    ces = [json.loads(json.dumps(ce)) for ce in report.suites[0].counterexamples]
    assert report.exit_code == 1
    assert ces and {ce["check"] for ce in ces} == {kind}
    for ce in ces:
        assert replay_counterexample(ce)
    monkeypatch.undo()
    for ce in ces:
        assert not replay_counterexample(ce)


def test_each_square_is_evaluated_once_in_its_construction_and_once_in_its_check(monkeypatch):
    """A pullback or pushout check composes no morphism: its square is
    evaluated once by the construction, as the two residue products of
    its sides, and once by the check, as one stacked product."""
    import modcat.exact as ex
    import modcat.modules as mm
    import modcat.suites as ms

    matmul_callers = []
    real_matmul = Morphism.__matmul__

    def recording_matmul(self, other):
        matmul_callers.append(sys._getframe(1).f_code.co_name)
        return real_matmul(self, other)

    products = []
    real_compose = mm._compose_rows

    def counting_compose(*args):
        products[-1] += 1
        return real_compose(*args)

    per_check = {"_pullback_check": [], "_pushout_check": []}

    def counted(name):
        check = getattr(ms, name)

        def wrapper(*args):
            products.append(0)
            result = check(*args)
            per_check[name].append(products.pop())
            return result

        return wrapper

    products.append(0)  # the products outside the two checks
    monkeypatch.setattr(Morphism, "__matmul__", recording_matmul)
    for module in (mm, ex, ms):
        monkeypatch.setattr(module, "_compose_rows", counting_compose)
    for name in per_check:
        monkeypatch.setattr(ms, name, counted(name))
    report = run_suite(TINY, names=("axioms",))
    assert report.exit_code == 0
    assert "_composition_check" in matmul_callers
    assert not {"_pullback_check", "_pushout_check"} & set(matmul_callers)
    for counts in per_check.values():
        assert counts and set(counts) == {3}


def _raise(*args):
    raise RuntimeError("mutated to raise")


def _inconsistent(*args):
    raise InternalInconsistency("mutated to fail")


def _zero_double_dual(x):
    """The zero chain map x -> x++: a chain map whose parts are not isos."""
    xx = dual_complex(dual_complex(x))
    return ChainMap(x, xx, tuple(Morphism.zero(m, m) for m in x.components))


# lambda without its (-1)^n signs: an iso in every degree, but a chain map
# only when 2d = 0 for every differential d of x, as x++ carries -d++.
_unsigned_double_dual = source_mutant(
    double_dual_complex_iso, "double_dual_unit(m).scaled(_sign(n))", "double_dual_unit(m)"
)


# (id, suites, expected kinds, module attributes to patch)
REPLAY_SCENARIOS = [
    (
        "no-inflations",
        ("axioms",),
        {"identity-inflation-deflation", "inflation-composition", "pushout-stability"},
        {"modcat.suites.is_inflation": lambda m: False},
    ),
    (
        "no-deflations",
        ("axioms",),
        {"identity-inflation-deflation", "deflation-composition", "pullback-stability"},
        {"modcat.suites.is_deflation": lambda m: False},
    ),
    (
        "wrong-sign-pullback",
        ("axioms",),
        {"pullback-stability"},
        {"modcat.suites.pullback": bad_pullback},
    ),
    (
        "wrong-sign-pushout",
        ("axioms",),
        {"pushout-stability"},
        {"modcat.suites.pushout": bad_pushout},
    ),
    (
        "broken-oracle",
        ("prop1",),
        {"purity-agreement"},
        {"modcat.suites.is_pure_oracle": broken_oracle},
    ),
    (
        "structural-always-flat",
        ("flat-equiv",),
        {"flat-equiv"},
        {"modcat.suites.flat_structural_oracle": lambda m: True},
    ),
    (
        "extract-section-raises",
        ("flat-equiv",),
        {"extract-section"},
        {"modcat.suites.extract_section": _inconsistent},
    ),
    (
        "triangle-fails",
        ("enough-pi",),
        {"enough-pi"},
        {"modcat.suites.triangle_identity_check": lambda m: False},
    ),
    (
        "negated-dual",
        ("enough-pi",),
        {"enough-pi"},
        {"modcat.purity.dual_mor": lambda f: -dual_mor(f)},
    ),
    (
        "every-complex-flat",
        ("complexes",),
        {"complex-four-way"},
        {"modcat.suites.is_flat_complex": lambda x: True},
    ),
    (
        "everything-chain-splits",
        ("complexes",),
        {"complex-witness"},
        {"modcat.suites.splits_as_complexes": lambda c: object()},
    ),
    (
        "zero-double-dual",
        ("complexes",),
        {"lambda-degreewise"},
        {"modcat.suites.double_dual_complex_iso": _zero_double_dual},
    ),
    (
        "unsigned-lambda",
        ("complexes",),
        {"lambda-degreewise"},
        {"modcat.suites.double_dual_complex_iso": _unsigned_double_dual},
    ),
]


@pytest.mark.parametrize(
    "suites, kinds, patches",
    [s[1:] for s in REPLAY_SCENARIOS],
    ids=[s[0] for s in REPLAY_SCENARIOS],
)
def test_every_check_kind_replays_its_failures(monkeypatch, suites, kinds, patches):
    for target, value in patches.items():
        monkeypatch.setattr(target, value)
    report = run_suite(TINY, names=suites)
    ces = [json.loads(json.dumps(ce)) for s in report.suites for ce in s.counterexamples]
    assert report.exit_code == 1
    assert {ce["check"] for ce in ces} == kinds
    for ce in ces:
        assert replay_counterexample(ce), ce["check"]
    monkeypatch.undo()
    for ce in ces:
        assert not replay_counterexample(ce), ce["check"]


def test_a_programming_error_in_section_extraction_is_a_crash(monkeypatch):
    """The extract-section check records the route's own failures
    (``NotFlat``, ``InternalInconsistency``) as verdicts; any other
    exception escapes the check and ends the run as a crash."""
    monkeypatch.setattr("modcat.suites.extract_section", _raise)
    report = run_suite(TINY, names=("flat-equiv",))
    assert report.exit_code == 3
    records = report.suites[0].counterexamples
    assert records and all(ce["check"] == "crash" for ce in records)
    assert records[0]["data"]["exception"] == "RuntimeError"
    assert records[0]["reason"] == "RuntimeError: mutated to raise"


def test_every_check_kind_has_a_replay_scenario():
    covered = set().union(*(kinds for _, _, kinds, _ in REPLAY_SCENARIOS))
    assert covered == set(CHECKS)


def test_the_readme_lists_each_check_kinds_record_fields():
    """The README's record table lists, for each check kind, exactly the
    parameters of its check function and ``verdicts``; each such field is
    annotated with a type the replay can decode: ``int``, or a class with
    ``from_dict``."""
    import modcat.suites as ms

    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    lines = readme[readme.index("| suite | check kind | `data` fields |"):].splitlines()[2:]
    listed = {}
    for row in itertools.takewhile(lambda line: line.startswith("|"), lines):
        _, kinds, fields = row.strip("|").split("|")
        for kind in re.findall(r"`([\w-]+)`", kinds):
            listed[kind] = re.findall(r"`(\w+)`", fields)
    assert listed.pop("crash") == ["suite", "exception", "message", "traceback", "config"]
    assert listed.keys() == CHECKS.keys()
    for kind, (name, _, _) in CHECKS.items():
        inputs = list(inspect.signature(getattr(ms, name)).parameters)
        assert listed[kind] == inputs + ["verdicts"], kind
        hints = typing.get_type_hints(getattr(ms, name))
        for field in inputs:
            assert hints[field] is int or hasattr(hints[field], "from_dict"), (kind, field)


def test_four_way_replay_reads_its_recorded_caps(monkeypatch):
    """The run passes the family caps to the four-way check, and a record
    replays its family under the caps it recorded, not the constants."""
    import modcat.suites as ms

    real = ms.enumerate_complex_conflations_ending_in
    caps = []

    def recording(f, kernel_cap, max_count):
        caps.append((kernel_cap, max_count))
        return real(f, kernel_cap, max_count)

    monkeypatch.setattr(ms, "enumerate_complex_conflations_ending_in", recording)
    assert run_suite(TINY, names=("complexes",)).exit_code == 0
    assert caps and set(caps) == {(COMPLEX_KERNEL_CAP, COMPLEX_FAMILY_CAP)}
    caps.clear()
    record = {
        "check": "complex-four-way",
        "modulus": 4,
        "reason": "verdicts must agree",
        "data": {
            "complex": single_complex(cyclic(RingSpec(4), 2), 0).to_dict(),
            "kernel_cap": 0,
            "family_cap": 0,
            "verdicts": {},
        },
    }
    replay_counterexample(record)
    assert caps == [(0, 0)]


def test_replay_rejects_a_record_whose_data_is_not_its_checks_inputs():
    module = cyclic(RingSpec(4), 2).to_dict()
    identity = Morphism.identity(cyclic(RingSpec(4), 2)).to_dict()
    verdicts = {
        "lambda_mono": True,
        "embedding_pure": True,
        "double_dual_pure_injective": False,
        "triangle": True,
    }

    def record(**data):
        return {"check": "enough-pi", "modulus": 4, "reason": "", "data": data}

    schema_1 = record(module=module, legs=verdicts, bound=4)
    for malformed in (schema_1, record(module=module, verdicts=verdicts)):
        with pytest.raises(ValueError, match="module, bound, verdicts"):
            replay_counterexample(malformed)
    for bound in ("4", 4.0, True):
        with pytest.raises(TypeError, match="bound must be an int"):
            replay_counterexample(record(module=module, bound=bound, verdicts=verdicts))
    assert not replay_counterexample(record(module=module, bound=4, verdicts=verdicts))
    # A schema-2 crash record still carries the CLI's output settings in
    # its config; they are not suite settings, and the replay names them.
    crash = {"suite": "axioms", "exception": "RuntimeError", "message": "", "traceback": [],
             "config": dict(TINY.to_dict(), output_format="text", output_path=None)}
    with pytest.raises(ValueError, match="not moduli, .*output_format, output_path"):
        replay_counterexample({"check": "crash", "modulus": None, "reason": "", "data": crash})
    # A record without one of its keys, or with data that is not a dict,
    # names what is wrong instead of escaping as a KeyError or TypeError.
    valid = record(module=module, bound=4, verdicts=verdicts)
    no_suite = {"check": "crash", "modulus": None, "reason": "",
                "data": {k: v for k, v in crash.items() if k != "suite"} | {"config": TINY.to_dict()}}
    for malformed, match in (
        ({k: v for k, v in valid.items() if k != "modulus"}, "check, modulus, data, not check, reason"),
        ({k: v for k, v in valid.items() if k != "check"}, "check, modulus, data, not modulus, reason"),
        (no_suite, "suite, config, not exception, message, traceback, config"),
        (dict(valid, data=[module, 4, verdicts]), "data must be a dict, not list"),
        # ... and so does a field inside the data, at any depth.
        (record(module={"factors": [2]}, bound=4, verdicts=verdicts), "field module lacks the key 'n'"),
        (record(module=[2], bound=4, verdicts=verdicts), "field module must be a dict, not list"),
        ({"check": "deflation-composition", "modulus": 4, "reason": "",
          "data": {"first": {"cod": module, "matrix": [[1]]}, "second": identity, "verdicts": {}}},
         "field first lacks the key 'dom'"),
        # ... and a value of the wrong type inside a field is malformed.
        *(({"check": "deflation-composition", "modulus": 4, "reason": "",
            "data": {"first": dict(identity, **bad), "second": identity, "verdicts": {}}},
           "field first is malformed")
          for bad in ({"dom": [2]}, {"dom": {"n": 4, "factors": 2}}, {"matrix": 5},
                      {"matrix": [["1"]]})),
    ):
        with pytest.raises(ValueError, match=match):
            replay_counterexample(malformed)
    # A record's modulus decodes as an int, as its int fields do.
    with pytest.raises(TypeError, match="modulus must be an int"):
        replay_counterexample(dict(valid, modulus="x"))
    assert not replay_counterexample(valid)


def test_the_pure_injective_leg_fails_where_is_pure_and_splits_disagree(monkeypatch):
    """At finite scale every module is pure-injective, so the leg can fail
    only when a conflation starting at M++ is called pure and does not split."""
    monkeypatch.setattr("modcat.enumeration.is_pure", lambda c: True)
    config = SuiteConfig(moduli=(4,), max_module_order=4, max_kernel_order=4)
    report = run_suite(config, names=("enough-pi",))
    ces = [json.loads(json.dumps(ce)) for ce in report.suites[0].counterexamples]
    assert report.exit_code == 1
    assert ces
    for ce in ces:
        assert ce["check"] == "enough-pi"
        verdicts = ce["data"]["verdicts"]
        assert verdicts["double_dual_pure_injective"] is False
        assert [v for v, ok in verdicts.items() if not ok] == ["double_dual_pure_injective"]
        assert replay_counterexample(ce)
    monkeypatch.undo()
    for ce in ces:
        assert not replay_counterexample(ce)


def raising_pullback(g, h):
    raise RuntimeError("pullback exploded")


def test_a_crash_is_recorded_and_the_other_suites_still_run(monkeypatch):
    honest = run_suite(TINY, names=("prop1",)).suites[0]
    monkeypatch.setattr("modcat.suites.pullback", raising_pullback)
    report = run_suite(TINY, names=("axioms", "prop1"))
    assert report.exit_code == 3
    axioms, prop1 = report.suites
    assert (axioms.name, axioms.checked, axioms.failed) == ("axioms", 1, 1)
    (ce,) = axioms.counterexamples
    assert ce["check"] == "crash"
    assert ce["reason"] == "RuntimeError: pullback exploded"
    assert ce["data"]["suite"] == "axioms"
    assert ce["data"]["exception"] == "RuntimeError"
    assert ce["data"]["message"] == "pullback exploded"
    assert ce["data"]["traceback"][-1].startswith("test_suites.py:")
    assert ce["data"]["traceback"][-1].endswith("in raising_pullback")
    assert ce["data"]["config"] == TINY.to_dict()
    assert (prop1.checked, prop1.failed) == (honest.checked, 0)
    assert "crash: RuntimeError: pullback exploded" in report.to_text()
    ce = json.loads(json.dumps(ce))
    assert replay_counterexample(ce)
    monkeypatch.undo()
    assert not replay_counterexample(ce)


def test_replay_is_exported_from_the_package():
    from modcat import replay_counterexample as exported

    assert exported is replay_counterexample
    assert "replay_counterexample" in modcat.__all__


def test_replay_rejects_unknown_check():
    with pytest.raises(ValueError):
        replay_counterexample({"check": "no-such-check", "modulus": 4, "data": {}})


def test_counterexamples_are_json_serializable(monkeypatch):
    monkeypatch.setattr("modcat.suites.is_pure_oracle", broken_oracle)
    report = run_suite(TINY, names=("prop1",))
    blob = report.to_json()
    parsed = json.loads(blob)
    ces = parsed["suites"][0]["counterexamples"]
    assert ces
    for ce in ces:
        assert replay_counterexample(ce)
    monkeypatch.undo()
    for ce in ces:
        assert not replay_counterexample(ce)
