"""Tensor products and internal homs of finite Z/n-modules.

Both constructions reduce to the same shape: for M = + Z/d_i and
N = + Z/e_j, the pure tensors x_i (x) y_j and the elementary homs
h_ij (sending the i-th generator to a multiple of the j-th) each
generate a cyclic group of order gcd(d_i, e_j), and the whole object
is the direct sum over all pairs (i major, j minor), re-canonicalized
into a divisor chain.  ``TensorProduct`` and ``HomModule`` are that
canonical form: its ``combine`` and ``coordinates`` convert between pair
coordinates and canonical ones, so a pure tensor is one ``combine``.
f (x) g is two products of integer matrices: the Kronecker product of f
and g on pair coordinates, taken to the target's canonical coordinates
through its generator images, and then applied to the source's generator
lifts, reduced mod the target factors.  f (x) g is reduced and well
defined by construction, so it is built without a second validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import mul

from .modules import (
    Canonicalized,
    FiniteModule,
    Morphism,
    RingSpec,
    _canonicalized,
    _diagonal_rows,
)


def _pair_sum(ring: RingSpec, dom: tuple[int, ...], cod: tuple[int, ...]) -> Canonicalized:
    """Canonicalize + Z/gcd(d_i, e_j) over all pairs (i, j), i major."""
    rel = _diagonal_rows([gcd(d, e) for d in dom for e in cod])
    return _canonicalized(ring, len(rel), rel)


@dataclass(frozen=True)
class TensorProduct(Canonicalized):
    """M (x) N, whose generators are the pure tensors x_i (x) y_j."""

    left: FiniteModule
    right: FiniteModule

    def pure(self, x, y) -> tuple[int, ...]:
        """The element x (x) y in canonical coordinates; x and y are checked
        against ``left`` and ``right``."""
        self.left._check_rank(x)
        self.right._check_rank(y)
        return self.combine([a * b for a in x for b in y])

    def expand(self, z) -> list[tuple[int, int, int]]:
        """Write z as a sum of coefficient * (generator pair): [(c, i, j), ...]."""
        d, e = self.left.invariant_factors, self.right.invariant_factors
        out = []
        for t, c in enumerate(self.coordinates(z)):
            i, j = divmod(t, len(e))
            c %= gcd(d[i], e[j])
            if c:
                out.append((c, i, j))
        return out


@lru_cache(maxsize=16384)
def tensor(m: FiniteModule, n: FiniteModule) -> TensorProduct:
    if m.ring != n.ring:
        raise ValueError("tensor factors live over different rings")
    can = _pair_sum(m.ring, m.invariant_factors, n.invariant_factors)
    return TensorProduct(**vars(can), left=m, right=n)


def tensor_mor(f: Morphism, g: Morphism) -> Morphism:
    """f (x) g on the canonical tensor modules, as two products.

    K = f (x) g on pair coordinates has entry f[i'][i] * g[j'][j] at
    ((i', j'), (i, j)); L = (target generator images)^T . K, unreduced,
    sends a pair of the source to its image in the target's canonical
    coordinates; the rows are L . (source generator lifts), reduced mod
    the target factors.  These are the sums of combining F W G^T in the
    target for each lift W, reassociated in exact integers.  The lifts
    are not reduced mod gcd(d_i, e_j): f and g are well defined, so the
    image of a pair generator is killed by its order.  f (x) g is well
    defined on the pair sum, so the rows (one empty row per target factor
    when the source is zero) are built through ``Morphism._trusted``.
    """
    src = tensor(f.domain, g.domain)
    dst = tensor(f.codomain, g.codomain)
    k = [[a * b for a in fr for b in gr] for fr in f.matrix for gr in g.matrix]
    k_cols = list(zip(*k))
    l = [[sum(map(mul, ir, kc)) for kc in k_cols] for ir in zip(*dst.generator_images)]
    lifts = src.generator_lifts
    rows = tuple(
        [
            tuple([sum(map(mul, lr, lift)) % d for lift in lifts])
            for lr, d in zip(l, dst.module.invariant_factors)
        ]
    )
    return Morphism._trusted(src.module, dst.module, rows)


@dataclass(frozen=True)
class HomModule(Canonicalized):
    """Hom(M, N), whose generators are the elementary homs h_ij with
    entry ``multipliers[t]`` = e_j / gcd(d_i, e_j) at (j, i) for pair t."""

    source: FiniteModule
    target: FiniteModule
    multipliers: tuple[int, ...]

    def to_morphism(self, z) -> Morphism:
        """The actual morphism M -> N encoded by the element z."""
        e = self.target.invariant_factors
        # every integer multiple of a multiplier is a well-defined entry
        entries = [c * step for c, step in zip(self.coordinates(z), self.multipliers)]
        rows = tuple(tuple(a % ej for a in entries[j :: len(e)]) for j, ej in enumerate(e))
        return Morphism._trusted(self.source, self.target, rows)

    def of_morphism(self, f: Morphism) -> tuple[int, ...]:
        """Canonical coordinates of a morphism M -> N."""
        if f.domain != self.source or f.codomain != self.target:
            raise ValueError("morphism does not belong to this hom module")
        # pair (i, j) is entry (j, i): the matrix read column by column
        entries = (a for col in zip(*f.matrix) for a in col)
        coeffs = []
        for a, step in zip(entries, self.multipliers):
            c, rem = divmod(a, step)
            if rem:
                raise AssertionError("well-defined morphism fell outside the hom lattice")
            coeffs.append(c)
        return self.combine(coeffs)


@lru_cache(maxsize=16384)
def hom_module(m: FiniteModule, n: FiniteModule) -> HomModule:
    if m.ring != n.ring:
        raise ValueError("hom endpoints live over different rings")
    can = _pair_sum(m.ring, m.invariant_factors, n.invariant_factors)
    mult = tuple(e // gcd(d, e) for d in m.invariant_factors for e in n.invariant_factors)
    return HomModule(**vars(can), source=m, target=n, multipliers=mult)


def _canonical_generators(m: FiniteModule):
    k = m.rank()
    return [tuple(1 if s == t else 0 for s in range(k)) for t in range(k)]


# ---------------------------------------------------------------------------
# closed structure: currying and evaluation
# ---------------------------------------------------------------------------


def curry(f: Morphism, m: FiniteModule, n: FiniteModule) -> Morphism:
    """Transpose Hom(M (x) N, K) -> Hom(M, Hom(N, K)) of f."""
    t = tensor(m, n)
    if f.domain != t.module:
        raise ValueError("morphism domain is not the tensor of the given factors")
    k = f.codomain
    h = hom_module(n, k)
    d = m.invariant_factors
    e = n.invariant_factors
    columns = []
    for i in range(len(d)):
        xi = tuple(1 if s == i else 0 for s in range(len(d)))
        cols = []
        for j in range(len(e)):
            yj = tuple(1 if s == j else 0 for s in range(len(e)))
            cols.append(f.apply(t.pure(xi, yj)))
        slice_mor = Morphism.from_columns(n, k, cols)
        columns.append(h.of_morphism(slice_mor))
    return Morphism.from_columns(m, h.module, columns)


def uncurry(g: Morphism, m: FiniteModule, n: FiniteModule, k: FiniteModule) -> Morphism:
    """Inverse transpose of g : M -> Hom(N, K), landing in Hom(M (x) N, K)."""
    h = hom_module(n, k)
    if g.domain != m or g.codomain != h.module:
        raise ValueError("morphism is not of shape M -> Hom(N, K)")
    t = tensor(m, n)
    columns = []
    for z in _canonical_generators(t.module):
        acc = k.zero_element()
        for c, i, j in t.expand(z):
            xi = tuple(1 if s == i else 0 for s in range(m.rank()))
            slice_mor = h.to_morphism(g.apply(xi))
            yj = tuple(1 if s == j else 0 for s in range(n.rank()))
            acc = k.add(acc, k.scale(c, slice_mor.apply(yj)))
        columns.append(acc)
    return Morphism.from_columns(t.module, k, columns)


def evaluation(m: FiniteModule, n: FiniteModule) -> Morphism:
    """Hom(M, N) (x) M -> N, the counit of the tensor-hom adjunction: the
    uncurried identity of Hom(M, N)."""
    h = hom_module(m, n).module
    return uncurry(Morphism.identity(h), h, m, n)
