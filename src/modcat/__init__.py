"""Finite modules over Z/n as a symmetric monoidal closed exact category,
with exhaustively verified purity, flatness, and duality structure.

The layers build bottom-up, each importing only from the layers before it:

- ``snf``          Smith and Hermite normal forms over Z
- ``modules``      invariant-factor modules, morphisms, (co)kernels, duals
- ``monoidal``     tensor, internal hom, currying, evaluation
- ``exact``        conflations, pullback/pushout, splittings
- ``purity``       double-dual unit, purity, flatness
- ``complexes``    bounded complexes and the chain-level analogues
- ``enumeration``  deterministic walks over all objects at desk scale, and
                   pure-injectivity over the conflations they walk
- ``suites``       the verification suites behind the ``modcat`` CLI
"""

from .modules import (
    FiniteModule,
    Morphism,
    Presentation,
    RingSpec,
    canonicalize,
    cokernel,
    cyclic,
    direct_sum,
    dual,
    dual_mor,
    factor_through_epi,
    factor_through_mono,
    image,
    kernel,
    solution_set,
    solve,
    subgroup_from_lattice,
)
from .monoidal import curry, evaluation, hom_module, tensor, tensor_mor, uncurry
from .exact import (
    Conflation,
    NotAConflation,
    conflation_from_epi,
    conflation_from_mono,
    is_deflation,
    is_inflation,
    make_conflation,
    pullback,
    pushout,
    splits,
)
from .purity import (
    InternalInconsistency,
    NotFlat,
    double_dual_unit,
    dual_conflation,
    extract_section,
    is_flat,
    is_injective,
    is_pure,
    is_pure_oracle,
    pure_embedding_conflation,
)
from .complexes import (
    ChainMap,
    Complex,
    ComplexConflation,
    cohomology,
    dual_complex,
    is_acyclic,
    is_contractible,
    is_flat_complex,
    is_injective_complex,
    is_pure_acyclic,
    is_pure_complex_conflation,
    single_complex,
    splits_as_complexes,
    two_term_complex,
    zero_complex,
)
from .enumeration import is_pure_injective
from .suites import Report, SuiteConfig, replay_counterexample, run_suite

__all__ = [
    "ChainMap",
    "Complex",
    "ComplexConflation",
    "Conflation",
    "FiniteModule",
    "InternalInconsistency",
    "Morphism",
    "NotAConflation",
    "NotFlat",
    "Presentation",
    "Report",
    "RingSpec",
    "SuiteConfig",
    "canonicalize",
    "cohomology",
    "cokernel",
    "conflation_from_epi",
    "conflation_from_mono",
    "curry",
    "cyclic",
    "direct_sum",
    "double_dual_unit",
    "dual",
    "dual_complex",
    "dual_conflation",
    "dual_mor",
    "evaluation",
    "extract_section",
    "factor_through_epi",
    "factor_through_mono",
    "hom_module",
    "image",
    "is_acyclic",
    "is_contractible",
    "is_deflation",
    "is_flat",
    "is_flat_complex",
    "is_inflation",
    "is_injective",
    "is_injective_complex",
    "is_pure",
    "is_pure_acyclic",
    "is_pure_complex_conflation",
    "is_pure_injective",
    "is_pure_oracle",
    "kernel",
    "make_conflation",
    "pullback",
    "pure_embedding_conflation",
    "pushout",
    "replay_counterexample",
    "run_suite",
    "single_complex",
    "solution_set",
    "solve",
    "splits",
    "splits_as_complexes",
    "subgroup_from_lattice",
    "tensor",
    "tensor_mor",
    "two_term_complex",
    "uncurry",
    "zero_complex",
]
