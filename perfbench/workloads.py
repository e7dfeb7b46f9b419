"""The benchmark's workloads and the check of their output.

Each workload is one ``modcat.suites.run_suite`` call.  ``modcat all`` at
default bounds takes about five minutes a run, too long to repeat, so the
workloads slice it: the three exhaustive ones each load a different layer
and bypass others, and ``all-sampled`` runs the same suites in sample mode,
where enumeration dominates.  See README.md for why each one was chosen.

This module imports nothing, so a cold run pays only for ``import modcat``.
"""

MODULI = (4, 8, 9, 12)


class Workload:
    def __init__(self, suites, config, expected_checks):
        self.suites = suites
        self.config = config
        # Checked count of each suite; the same for every seed.
        self.expected_checks = expected_checks
        # Only sample mode reads the seed, and only sample mode has the
        # known flat-equiv defect (see is_known_sample_defect).
        self.sampled = config["mode"] == "sample"

    def suite_config(self, seed):
        return dict(self.config, seed=seed) if self.sampled else dict(self.config)

    @property
    def total_checks(self):
        return sum(self.expected_checks.values())


WORKLOADS = {
    "prop1-exhaustive": Workload(
        ("prop1",),
        dict(moduli=MODULI, max_module_order=32, max_kernel_order=8, mode="exhaustive"),
        {"prop1": 2069},
    ),
    "axioms-exhaustive": Workload(
        ("axioms",),
        dict(moduli=MODULI, max_module_order=8, mode="exhaustive"),
        {"axioms": 14559},
    ),
    "complexes-exhaustive": Workload(
        ("complexes",),
        dict(moduli=(4, 9), max_complex_span=4, mode="exhaustive"),
        {"complexes": 1798},
    ),
    "all-sampled": Workload(
        ("prop1", "flat-equiv", "enough-pi", "complexes"),
        dict(
            moduli=MODULI,
            max_module_order=64,
            max_kernel_order=16,
            max_complex_span=4,
            mode="sample",
            sample_count=5,
        ),
        {"prop1": 339, "flat-equiv": 170, "enough-pi": 20, "complexes": 44},
    ),
}


def is_known_sample_defect(ce, replay):
    """The one failure the output check accepts, and only in sample mode.

    ``run_flat_equiv`` computes its "all ending conflations pure" leg over
    the sampled conflations only.  When the sample misses the impure one,
    the three module routes say "not flat", the purity leg says "all pure",
    and ``replay(ce)`` (``replay_counterexample``, which walks every
    conflation) does not reproduce the disagreement.  Any other failure is
    an output error.
    """
    if ce["check"] != "flat-equiv":
        return False
    v = ce["data"]["verdicts"]
    routes_not_flat = not (v["tensor_route"] or v["dual_injective"] or v["structural"])
    return routes_not_flat and v["all_ending_pure"] and not replay(ce)
