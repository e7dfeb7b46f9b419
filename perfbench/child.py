"""One cold run of a workload, in a fresh single-threaded process.

    python child.py WORKLOAD SEED MODE

MODE is ``setup`` (import and configure, then stop), ``run`` (one timed
``run_suite`` call) or ``trace`` (the same call under the outside-in
tracer).  The last line of stdout is one JSON object.

Times are taken with ``speed.SpeedSampler``: ``setup_s`` covers
``import modcat`` and ``SuiteConfig`` validation, and ``reference_s`` the
``run_suite`` call, both in reference seconds (see speed.py).  ``wall_s`` is
the plain wall time of the call, with the samples taken inside it.  The
traced run takes no samples inside the call, so that no span contains one.

A fresh process per run keeps every ``lru_cache`` in the package cold, as
it is for each ``modcat`` invocation.  ``PYTHONPATH`` must name the
checkout's ``src`` directory.
"""

import sys

from speed import SpeedSampler
from workloads import WORKLOADS, is_known_sample_defect

# Samples a few times during set-up, which takes about 0.05 s.
SETUP_PERIOD_S = 0.01
# Samples about 20 times a second during the suite run.
RUN_PERIOD_S = 0.05


def main():
    workload_name, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workload = WORKLOADS[workload_name]
    sampler = SpeedSampler(SETUP_PERIOD_S)
    sampler.start()
    import modcat
    from modcat.suites import SuiteConfig, replay_counterexample, run_suite

    config = SuiteConfig(**workload.suite_config(seed))
    sampler.stop()
    setup_s = sampler.reference_s

    import json
    import os
    import resource

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if os.path.commonpath([os.path.abspath(modcat.__file__), src]) != src:
        sys.exit(f"modcat imported from {modcat.__file__}, not from {src}")
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    sampler = SpeedSampler(RUN_PERIOD_S if tracer is None else None)
    sampler.start()
    try:
        report = run_suite(config, names=workload.suites)
        crash = None
    except Exception as exc:  # a crash is recorded for this run, not raised
        report, crash = None, f"{type(exc).__name__}: {exc}"
    finally:
        sampler.stop()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_s": setup_s,
        "wall_s": sampler.wall_s,
        "reference_s": sampler.reference_s,
        "sampled_s": sampler.sampled_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "crash": crash,
    }
    if tracer is not None:
        from tracer import per_layer_metrics

        # Read before the failures are replayed below, so that neither the
        # counters nor the spans include the replays.
        result["per_layer"] = per_layer_metrics(tracer.summary(), report)
        os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
        tracer.write(os.path.join(root, ".bench_out", f"spans-{workload_name}.bin"))

    if report is not None:
        known, other, counterexamples = 0, [], 0
        for suite in report.suites:
            for ce in suite.counterexamples:
                counterexamples += 1
                if workload.sampled and is_known_sample_defect(ce, replay_counterexample):
                    known += 1
                else:
                    other.append(f"{ce['check']} (n={ce['modulus']}): {ce['reason']}")
        result.update(
            checked={s.name: s.checked for s in report.suites},
            failed={s.name: s.failed for s in report.suites},
            counterexamples=counterexamples,
            known_defect=known,
            other_failures=other,
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
