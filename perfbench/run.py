"""modcat benchmark: cold verification runs of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
Every timed run is a fresh single-threaded Python process (child.py), so
every ``lru_cache`` in the package starts cold, as it does for each
``modcat`` invocation.  Runs follow one another while the next one is
expected to end within S seconds (at least one run); set-up is sampled by
extra processes that only import and configure.  Each run's output is
checked (workloads.py).

With ``--trace 0`` the end-to-end metrics are medians over the runs, with
times in reference seconds: wall time rescaled by the core speed sampled
during the run (speed.py), so that a loaded host does not show as a slower
program.  The plain wall and CPU times are printed beside them.  With
``--trace 1`` one untraced run and one run under the outside-in tracer
(tracer.py) give the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (checks) and ``metrics``.  Exit code 2 means the benchmark could
not run at all, for example outside a checkout.
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up-only processes per benchmark run.  With one sample from each timed
# run, their median is setup_s.  One more runs first and is not counted: it
# writes the bytecode caches.
SETUP_RUNS = 8
# A cold run still going this many seconds after the start is killed, so
# that a benchmark run ends within 180 s.
DEADLINE_S = 170


def spawn(workload, seed, mode, timeout):
    """Run child.py once; return (its JSON result or None, error or None)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    # Set-up is timed with bytecode caches in the checkout, as an installed
    # package has them, whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed), mode],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"run killed after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit code {proc.returncode}: {tail[0]}"
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError:
        return None, f"unreadable result: {lines[-1][:200]}"


def check_run(workload, result, error):
    """(checks attempted, checks failed, output errors) of one run.

    A run that crashed or died counts every check of the workload as failed.
    """
    total = workload.total_checks
    if error is not None:
        return total, total, [error]
    if result["crash"] is not None:
        return total, total, ["crash " + result["crash"]]
    errors = list(result["other_failures"])
    if result["checked"] != workload.expected_checks:
        errors.append(f"checked counts {result['checked']} differ from {workload.expected_checks}")
    failed = sum(result["failed"].values())
    if result["counterexamples"] != failed:
        errors.append(f"{failed} failed checks but {result['counterexamples']} counterexamples")
    return sum(result["checked"].values()), failed, errors


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "modcat" / "__init__.py").is_file():
        print(f"error: no modcat package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    begin = time.monotonic()

    def remaining():
        return DEADLINE_S - (time.monotonic() - begin)

    errors = []
    setup = []
    for i in range(SETUP_RUNS + 1):
        result, error = spawn(args.workload, args.seed, "setup", remaining())
        if error is not None:
            errors.append(f"set-up run: {error}")
        elif i > 0:
            setup.append(result["setup_s"])

    runs = []  # (mode, result or None, error or None)

    def cold_run(mode):
        started = time.monotonic()
        result, error = spawn(args.workload, args.seed, mode, max(remaining(), 1))
        runs.append((mode, result, error))
        if result is not None and mode == "run":
            setup.append(result["setup_s"])
        print(f"{mode} {len(runs)}: " + (error or f"wall {result['wall_s']:.3f} s,"
                                         f" {result['reference_s']:.3f} reference s"), file=sys.stderr)
        return time.monotonic() - started

    if args.trace:
        cold_run("run")
        cold_run("trace")
    else:
        loop_start = time.monotonic()
        longest = cold_run("run")
        while time.monotonic() - loop_start + longest <= args.seconds and remaining() > longest:
            longest = max(longest, cold_run("run"))

    attempted = failed = 0
    for _, result, error in runs:
        a, f, run_errors = check_run(workload, result, error)
        attempted += a
        failed += f
        errors += run_errors
    reported = [r for _, r, _ in runs if r is not None]

    print(f"workload {args.workload}, seed {args.seed}"
          f"{'' if workload.sampled else ' (not used)'}: {len(runs)} cold run(s), "
          f"{len(setup)} set-up sample(s)")
    if args.trace:
        (_, untraced, _), (_, traced, _) = runs
        if untraced is None or traced is None:
            errors.append("the untraced or the traced run gave no result")
        metrics = dict(traced["per_layer"]) if traced else {}
        # Plain seconds: the traced run takes no speed samples inside the call.
        overhead = traced["wall_s"] - (untraced["wall_s"] - untraced["sampled_s"]) if traced and untraced else 0.0
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for name, m in metrics.items():
            print(f"  {name:<58} {m['value']:>14.6g} {m['unit']}")
    else:
        refs = [r["reference_s"] for r in reported]
        metrics = {
            "ref_wall_s": (median(refs), "s"),
            "ref_checks_per_s": (median([sum(r["checked"].values()) / r["reference_s"]
                                         for r in reported if "checked" in r]), "1/s"),
            "setup_s": (median(setup), "s"),
            "peak_rss_mb": (median([r["peak_rss_mb"] for r in reported]), "MB"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        for name, m in metrics.items():
            print(f"  {name:<16} {m['value']:>12.4f} {m['unit']}")
        print(f"  {'(range)':<16} {min(refs, default=0.0):>12.4f} to {max(refs, default=0.0):.4f} s"
              f" over {len(refs)} run(s)")
        # Plain times, as measured on this host at this moment; the samples
        # taken inside the call are left out of wall_s.
        walls = [r["wall_s"] - r["sampled_s"] for r in reported]
        rates = [sum(r["checked"].values()) / w for r, w in zip(reported, walls) if "checked" in r]
        print(f"  {'wall_s':<16} {median(walls):>12.4f} s (plain)")
        print(f"  {'cpu_s':<16} {median([r['cpu_s'] for r in reported]):>12.4f} s (plain, whole process)")
        print(f"  {'checks_per_s':<16} {median(rates):>12.4f} 1/s (plain)")
        known = sum(r.get("known_defect", 0) for r in reported)
        print(f"  {'failed_share':<16} {failed / attempted:>12.4f} share"
              f" ({failed} of {attempted} checks; {known} of the known sample-mode flat-equiv kind)")
    for error, count in collections.Counter(errors).items():
        print(f"  output error ({count}x): {error}")

    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
