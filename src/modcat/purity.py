"""Character duality, purity, flatness, and pure-injective embeddings.

The dualizing object is the ring itself: M+ = Hom(M, Z/n).  Purity of a
conflation is decided by whether its dual splits; an independent oracle
re-decides it by tensoring with Z/d for every divisor d of n (cyclic
test objects suffice, since every finite module is a sum of cyclics and
tensoring distributes over direct sums).

Flatness comes in three inter-verifiable routes: the primary decision is
"the dual is injective" (injectivity via the Baer criterion over Z/n,
whose ideals are exactly dZ/n for d | n); a tensor route checks that
tensoring the ideal conflations dZ/n -> Z/n -> Z/d preserves
conflation-ness; a structural oracle inspects p-primary invariant
factors directly.  The three must always agree — the verification suites
exist to demonstrate that on enumerated data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .exact import (
    Conflation,
    SplitWitness,
    conflation_from_epi,
    conflation_from_mono,
    pullback,
    splits,
)
from .modules import FiniteModule, Morphism, RingSpec, cyclic
from .monoidal import hom_module, precompose_map, tensor_mor


class NotFlat(ValueError):
    """Raised when a flatness precondition fails."""


class InternalInconsistency(RuntimeError):
    """A verification identity failed; signals a bug, never expected data."""


# ---------------------------------------------------------------------------
# the character dual
# ---------------------------------------------------------------------------


def dual(m: FiniteModule) -> FiniteModule:
    """M+ = Hom(M, Z/n) in canonical form."""
    return hom_module(m, m.ring.unit_module()).module


def dual_mor(f: Morphism) -> Morphism:
    """Hom(cod f, Z/n) -> Hom(dom f, Z/n); contravariant."""
    return precompose_map(f, f.domain.ring.unit_module())


def dual_conflation(c: Conflation) -> Conflation:
    """Dualize a conflation; validity of the result is checked on construction."""
    return Conflation(dual_mor(c.g), dual_mor(c.f))


def double_dual_unit(m: FiniteModule) -> Morphism:
    """The evaluation map M -> M++, x |-> (phi |-> phi(x))."""
    j = m.ring.unit_module()
    h1 = hom_module(m, j)
    h2 = hom_module(h1.module, j)
    h1_gens = [
        tuple(1 if s == a else 0 for s in range(h1.module.rank()))
        for a in range(h1.module.rank())
    ]
    columns = []
    for t in range(m.rank()):
        x = tuple(1 if s == t else 0 for s in range(m.rank()))
        ev_cols = [h1.to_morphism(z).apply(x) for z in h1_gens]
        ev = Morphism.from_columns(h1.module, j, ev_cols)
        columns.append(h2.of_morphism(ev))
    return Morphism.from_columns(m, h2.module, columns)


def triangle_identity_check(m: FiniteModule) -> bool:
    """dual_mor(unit of M) composed with the unit of M+ is the identity on M+."""
    md = dual(m)
    composite = dual_mor(double_dual_unit(m)) @ double_dual_unit(md)
    return composite.matrix == Morphism.identity(md).matrix


# ---------------------------------------------------------------------------
# purity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorFailure:
    """Tensoring with Z/divisor broke the recorded conflation property."""

    divisor: int
    position: str


@dataclass(frozen=True)
class PurityVerdict:
    is_pure: bool
    method: str
    witness: SplitWitness | TensorFailure | None


def is_pure(c: Conflation) -> PurityVerdict:
    """Decide purity by splitting the dual conflation."""
    w = splits(dual_conflation(c))
    return PurityVerdict(w is not None, "dual-splits", w)


def conflation_tensor_failure(c: Conflation, w: FiniteModule) -> TensorFailure | None:
    """First conflation property broken by tensoring c with w, if any."""
    ident = Morphism.identity(w)
    f2 = tensor_mor(c.f, ident)
    g2 = tensor_mor(c.g, ident)
    tag = w.order
    if not f2.is_mono():
        return TensorFailure(tag, "inflation leg loses injectivity")
    if not g2.is_epi():
        return TensorFailure(tag, "deflation leg loses surjectivity")
    if not (g2 @ f2).is_zero_morphism:
        return TensorFailure(tag, "legs no longer compose to zero")
    if f2.codomain.order != f2.domain.order * g2.codomain.order:
        return TensorFailure(tag, "middle order no longer multiplies")
    return None


def is_pure_oracle(c: Conflation) -> PurityVerdict:
    """Decide purity by tensoring with Z/d for every divisor d | n, d > 1."""
    ring = c.sub.ring
    for d in ring.divisors():
        if d == 1:
            continue
        failure = conflation_tensor_failure(c, cyclic(ring, d))
        if failure is not None:
            return PurityVerdict(False, "tensor-oracle", failure)
    return PurityVerdict(True, "tensor-oracle", None)


# ---------------------------------------------------------------------------
# injectivity and flatness
# ---------------------------------------------------------------------------


@lru_cache(maxsize=65536)
def _baer_injective(n: int, factors: tuple[int, ...]) -> bool:
    m = FiniteModule(RingSpec(n), factors)
    for d in m.ring.divisors():
        c = n // d
        # A morphism dZ/n -> M is an element x with c*x = 0; it extends to
        # Z/n -> M exactly when x is divisible by d in M.
        for x in m.elements():
            if all((c * xi) % di == 0 for xi, di in zip(x, factors)):
                if any(xi % gcd(d, di) for xi, di in zip(x, factors)):
                    return False
    return True


def is_injective(m: FiniteModule) -> bool:
    """Baer criterion over Z/n: homs from every ideal dZ/n extend to the ring."""
    return _baer_injective(m.ring.modulus, m.invariant_factors)


def is_flat(m: FiniteModule) -> bool:
    """Flat exactly when the character dual is injective."""
    return is_injective(dual(m))


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def flat_structural_oracle(m: FiniteModule) -> bool:
    """Independent flatness check on invariant factors directly.

    Flat modules over Z/n are exactly the sums of cyclics whose p-primary
    parts are each either trivial or the full p-power of n.
    """
    n = m.ring.modulus
    for d in m.invariant_factors:
        for p in _prime_factors(n):
            full = 1
            while n % (full * p) == 0:
                full *= p
            part = 1
            while d % (part * p) == 0:
                part *= p
            if part != 1 and part != full:
                return False
    return True


def ideal_conflation(ring: RingSpec, d: int) -> Conflation:
    """dZ/n -> Z/n -> Z/d for a divisor d of n."""
    n = ring.modulus
    if n % d:
        raise ValueError(f"{d} does not divide the modulus {n}")
    sub = cyclic(ring, n // d)
    unit = ring.unit_module()
    quot = cyclic(ring, d)
    f = Morphism(sub, unit, ((d,) * sub.rank(),))
    g = Morphism(unit, quot, tuple((1,) * unit.rank() for _ in range(quot.rank())))
    return Conflation(f, g)


def is_flat_tensor_route(m: FiniteModule) -> bool:
    """Flatness by exactness: tensoring every ideal conflation with m
    must again give a conflation."""
    ring = m.ring
    for d in ring.divisors():
        if conflation_tensor_failure(ideal_conflation(ring, d), m) is not None:
            return False
    return True


# ---------------------------------------------------------------------------
# pure injectivity and the section-extraction diagram
# ---------------------------------------------------------------------------


def is_pure_injective(m: FiniteModule, bound: int) -> bool:
    """Every pure conflation starting at m with middle order <= bound splits."""
    from .enumeration import conflations_with_sub

    for c in conflations_with_sub(m, bound):
        if is_pure(c).is_pure and splits(c) is None:
            return False
    return True


def extract_section(c: Conflation) -> Morphism:
    """Produce the retraction of b+ for a conflation b ending in a flat module.

    Runs the constructive diagram rather than a direct split search:
    dualize the deflation twice, pull the double dual back along the
    evaluation unit of the flat end, split the resulting top row, and
    assemble the retraction r = (g . t')+ . k where k is the evaluation
    unit of B+.  The identity r . b+ = id is verified exactly before
    returning.
    """
    flat_end = c.quotient
    if not is_flat(flat_end):
        raise NotFlat(
            f"conflation ends in {list(flat_end.invariant_factors)} over "
            f"Z/{flat_end.ring.modulus}, which is not flat"
        )
    b = c.g
    b_plus = dual_mor(b)
    b_plus_plus = dual_mor(b_plus)
    lam = double_dual_unit(flat_end)
    pb = pullback(b_plus_plus, lam)
    top = conflation_from_epi(pb.to_domh)
    w = splits(top)
    if w is None:
        raise InternalInconsistency(
            "top row of the pullback diagram (pure, pure-injective kernel) did not split"
        )
    g1 = pb.to_domg @ w.section
    k = double_dual_unit(dual(c.total))
    r = dual_mor(g1) @ k
    if (r @ b_plus).matrix != Morphism.identity(dual(flat_end)).matrix:
        raise InternalInconsistency("extracted retraction fails r . b+ = id")
    return r


def pure_embedding_conflation(m: FiniteModule) -> Conflation:
    """The conflation M -> M++ -> coker built on the evaluation unit."""
    return conflation_from_mono(double_dual_unit(m))
