"""The benchmark's traced run keeps working against the package.

``perfbench/tracer.py`` wraps the layer functions it finds by name and then
reads fixed metric names such as ``snf.snf_diagonal.calls``, so renaming or
removing one of them in ``modcat`` would break ``perfbench/run.py --trace 1``.
This test runs the tracer on a tiny prop1 suite in a fresh process, the way
the benchmark's traced run does, and reads the per-layer metrics.
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
report = run_suite(SuiteConfig(moduli=(4,), max_module_order=8), names=("prop1",))
metrics = per_layer_metrics(tracer.summary(), report)
print(json.dumps({name: m["value"] for name, m in metrics.items()}))
"""


def test_traced_prop1_run_reports_per_layer_metrics():
    path = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    values = json.loads(proc.stdout.splitlines()[-1])
    assert values["suites.prop1.checks"] > 0
    assert values["suites.prop1.failed"] == 0
    # The tracer rebinds module names: a runner or check that captured its
    # function before the tracer installed would read 0 here.
    assert values["suites.prop1.wall_s"] > 0
    assert values["purity.is_pure_oracle.calls"] > 0
    assert values["exact.splits.calls"] > 0
    assert values["snf.smith_normal_form.calls"] > 0
    assert values["snf.snf_diagonal.calls"] > 0
    # split search takes one deterministic solution and walks no coset
    assert values["modules.solution_set.yielded"] == 0
