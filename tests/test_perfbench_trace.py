"""The benchmark's traced run keeps working against the package.

``perfbench/tracer.py`` wraps the layer functions it finds by name and then
reads fixed metric names such as ``snf.snf_diagonal.calls``, so renaming or
removing one of them in ``modcat`` would break ``perfbench/run.py --trace 1``.
These tests run the tracer on a tiny prop1 suite, a tiny flat-equiv suite
and a tiny complexes suite, each in a fresh process the way the benchmark's
traced run does, and read the per-layer metrics.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRACED_RUN = """
import json

import modcat
from modcat.suites import SuiteConfig, run_suite
from tracer import Tracer, per_layer_metrics

tracer = Tracer()
tracer.install()
report = run_suite(SuiteConfig(%s), names=(%r,))
metrics = per_layer_metrics(tracer.summary(), report)
print(json.dumps({name: m["value"] for name, m in metrics.items()}))
"""


def traced_run(config: str, suite: str) -> dict:
    """Per-layer metric values of one traced suite run in a fresh process."""
    path = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN % (config, suite)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_prop1_run_reports_per_layer_metrics():
    values = traced_run("moduli=(4,), max_module_order=8", "prop1")
    assert values["suites.prop1.checks"] > 0
    assert values["suites.prop1.failed"] == 0
    # The tracer rebinds module names: a runner or check that captured its
    # function before the tracer installed would read 0 here.
    assert values["suites.prop1.wall_s"] > 0
    assert values["purity.is_pure_oracle.calls"] > 0
    assert values["exact.splits.calls"] > 0
    # purity splits f+ alone and builds no dual conflation
    assert values["purity.dual_conflation.calls"] == 0
    assert values["snf.smith_normal_form.calls"] > 0
    assert values["snf.snf_diagonal.calls"] > 0
    # split search takes one deterministic solution and walks no coset
    assert values["modules.solution_set.yielded"] == 0


def test_traced_flat_equiv_run_reaches_the_cyclic_catalogs():
    # kernel bound 4 over middles of order <= 4: every kernel order above 1
    # takes the per-order cyclic catalog, whose Hermite forms the tracer counts
    values = traced_run("moduli=(4,), max_module_order=4, max_kernel_order=4", "flat-equiv")
    assert values["suites.flat-equiv.checks"] > 0
    assert values["suites.flat-equiv.failed"] == 0
    assert values["enumeration.conflations_ending_in.yielded"] > 0
    assert values["snf.hermite_normal_form.calls"] > 0


def test_traced_complexes_run_completes_differentials_over_morphisms():
    # the capped complex families lift each differential once and walk
    # corrections as morphisms: no coset walk and no hom-coordinate direct
    # sum.  The tracer still reads modules.solution_set by name, so the key
    # must resolve even while the suites never walk it.
    values = traced_run("moduli=(4,), max_module_order=4, max_complex_span=2", "complexes")
    assert values["suites.complexes.checks"] > 0
    assert values["suites.complexes.failed"] == 0
    assert values["modules.solution_set.yielded"] == 0
    assert values["modules.direct_sum_many.calls"] == 0
    assert values["enumeration.enumerate_morphisms.yielded"] > 0
    # chain purity splits f+ through the public splits_as_complexes, so
    # the family's chain splits count beside the witness check's one call
    assert values["complexes.splits_as_complexes.calls"] > 1
    # the family middles factor their kernel differentials through
    # solve_blocks, built trusted; what still validates is the double-dual
    # unit and the subgroup generators (from_columns)
    assert values["modules.morphism.constructions"] == 8
