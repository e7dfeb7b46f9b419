"""Character duality, purity, flatness, and the pure embedding into M++.

The dualizing object is the ring itself: M+ = Hom(M, Z/n).  As
Hom(Z/d, Z/n) is cyclic of order d, generated by x |-> (n/d) x, M+ = M
on the same generators and f+ is the transpose of f rescaled by d_i / e_j.
``dual`` and ``dual_mor`` are defined in ``modules``, whose kernels and
epi factorizations read through them, and exported from here.  The unit
M -> M++ alone is built through ``hom_module``, so the triangle identity
keeps testing that closed form against the internal hom.

Purity of a conflation is decided by whether its dual splits, that is,
whether f+: Y+ -> X+, the dual of its inflation, has a section; nothing
else of the dual conflation is built.  An independent oracle re-decides
it by tensoring with Z/d for every divisor d > 1 of the middle's exponent
e (cyclic test objects suffice, since every finite module is a sum of
cyclics and tensoring distributes over direct sums).  The other divisors
of n add nothing: e kills all three terms, so tensoring with Z/d is
tensoring with Z/gcd(d, e), the same test step for step, or gives
0 -> 0 -> 0 when the gcd is 1.  The tensored legs are built without a
second validation, as f (x) Z/d is well defined by construction; what
the oracle decides is whether they are still a conflation.

Flatness comes in three inter-verifiable routes: the primary decision is
"the dual is injective" (injectivity via the Baer criterion over Z/n,
whose ideals are exactly dZ/n for d | n); a tensor route checks that
tensoring the ideal conflations dZ/n -> Z/n -> Z/d preserves
conflation-ness; a structural oracle inspects p-primary invariant
factors directly.  The three must always agree — the verification suites
exist to demonstrate that on enumerated data.

Pure-injectivity quantifies over the conflations that start at a module,
so ``enumeration.is_pure_injective`` decides it, next to that walk.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .exact import Conflation, conflation_from_mono, pullback, splits
from .modules import FiniteModule, Morphism, RingSpec, _prime_powers, cyclic, dual, dual_mor
from .monoidal import hom_module, tensor_mor


class NotFlat(ValueError):
    """Raised when a flatness precondition fails."""


class InternalInconsistency(RuntimeError):
    """A verification identity failed; signals a bug, never expected data."""


# ---------------------------------------------------------------------------
# the character dual
# ---------------------------------------------------------------------------


def dual_conflation(c: Conflation) -> Conflation:
    """Dualize a conflation: (g+, f+), validated as any conflation is.

    Purity reads f+ alone and never builds this pair; it is the whole dual
    for callers that want one."""
    return Conflation(dual_mor(c.g), dual_mor(c.f))


@lru_cache(maxsize=64)
def double_dual_unit(m: FiniteModule) -> Morphism:
    """The evaluation map M -> M++, x |-> (phi |-> phi(x)).

    Cached: enough-pi asks for it on every module it walks, section
    extraction on the ends and middles of its conflations, and the
    complexes suite on the components of every complex, over and over.  A
    ``modcat all`` at default bounds made 165 misses and 62,479 hits."""
    j = m.ring.unit_module()
    h1 = hom_module(m, j)
    h2 = hom_module(h1.module, j)
    columns = []
    for x in m.generators():
        ev_cols = [h1.to_morphism(z).apply(x) for z in h1.module.generators()]
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


def is_pure(c: Conflation) -> bool:
    """Decide purity by splitting the dual conflation, that is, its
    deflation f+: Y+ -> X+, the dual of the inflation."""
    return splits(dual_mor(c.f)) is not None


def conflation_tensor_failure(c: Conflation, w: FiniteModule) -> str | None:
    """The first conflation property broken by tensoring c with w, if any."""
    ident = Morphism.identity(w)
    f2 = tensor_mor(c.f, ident)
    g2 = tensor_mor(c.g, ident)
    if not f2.is_mono():
        return "inflation leg loses injectivity"
    if not g2.is_epi():
        return "deflation leg loses surjectivity"
    if not (g2 @ f2).is_zero_morphism:
        return "legs no longer compose to zero"
    if f2.codomain.order != f2.domain.order * g2.codomain.order:
        return "middle order no longer multiplies"
    return None


def is_pure_oracle(c: Conflation) -> bool:
    """Decide purity by tensoring with Z/d for every divisor d > 1 of the
    middle's exponent e.

    e kills X, Y and Z, so M (x) Z/d = + Z/gcd(m_i, d) = + Z/gcd(m_i, g)
    for g = gcd(d, e): for any other divisor d of n the test with Z/d is
    the test with Z/g, step for step, or tensors c to 0 -> 0 -> 0 when
    g = 1.  d = e is kept, although c (x) Z/e is c again, so that the
    route still tests something when e is prime."""
    ring = c.sub.ring
    e = max(c.total.invariant_factors, default=1)
    return all(
        conflation_tensor_failure(c, cyclic(ring, d)) is None
        for d in ring.divisors()
        if d > 1 and e % d == 0
    )


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


def flat_structural_oracle(m: FiniteModule) -> bool:
    """Independent flatness check on invariant factors directly.

    Flat modules over Z/n are exactly the sums of cyclics whose p-primary
    parts are each either trivial or the full p-power of n: the p-part of
    an invariant factor d is gcd(d, p^k) for p^k exactly dividing n.
    """
    powers = [q for _, q in _prime_powers(m.ring.modulus)]
    return all(gcd(d, q) in (1, q) for d in m.invariant_factors for q in powers)


@lru_cache(maxsize=64)
def ideal_conflation(ring: RingSpec, d: int) -> Conflation:
    """dZ/n -> Z/n -> Z/d for a divisor d of n.

    Cached: the tensor route of flatness tensors every module it tests
    with the same few ideal conflations of its ring, which were built and
    validated again for each module (408 of the 2,161 validating
    ``Morphism`` constructions of a sampled run)."""
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
# the section-extraction diagram
# ---------------------------------------------------------------------------


def extract_section(c: Conflation) -> Morphism:
    """Produce the retraction of b+ for a conflation b ending in a flat module.

    Runs the constructive diagram rather than a direct split search:
    dualize the deflation twice, pull the double dual back along the
    evaluation unit of the flat end, split the deflation of the resulting
    top row (the pullback leg, which ``pullback`` asserts is one), and
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
    section = splits(pb.to_domh)
    if section is None:
        raise InternalInconsistency(
            "top row of the pullback diagram (pure, pure-injective kernel) did not split"
        )
    g1 = pb.to_domg @ section
    k = double_dual_unit(dual(c.total))
    r = dual_mor(g1) @ k
    if (r @ b_plus).matrix != Morphism.identity(dual(flat_end)).matrix:
        raise InternalInconsistency("extracted retraction fails r . b+ = id")
    return r


def pure_embedding_conflation(m: FiniteModule) -> Conflation:
    """The conflation M -> M++ -> coker built on the evaluation unit."""
    return conflation_from_mono(double_dual_unit(m))
