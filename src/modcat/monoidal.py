"""Tensor products and internal homs of finite Z/n-modules.

Both constructions reduce to the same shape: for M = + Z/d_i and
N = + Z/e_j, the pure tensors x_i (x) y_j and the elementary homs
h_ij (sending the i-th generator to a multiple of the j-th) each
generate a cyclic group of order gcd(d_i, e_j), and the whole object
is the direct sum over all pairs, re-canonicalized into a divisor
chain.  We keep the pair bookkeeping so elements can be converted
between canonical coordinates and pure-tensor / matrix form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .modules import (
    Canonicalized,
    FiniteModule,
    Morphism,
    RingSpec,
    _canonical_form,
)


def _pair_sum(
    ring: RingSpec, dom: tuple[int, ...], cod: tuple[int, ...]
) -> tuple[tuple[tuple[int, int], ...], Canonicalized]:
    """Canonicalize + Z/gcd(d_i, e_j) over all pairs (i, j)."""
    pairs = tuple((i, j) for i in range(len(dom)) for j in range(len(cod)))
    rel = tuple(
        tuple(gcd(dom[i], cod[j]) if t == s else 0 for s in range(len(pairs)))
        for t, (i, j) in enumerate(pairs)
    )
    return pairs, _canonical_form(ring, len(pairs), rel)


@dataclass(frozen=True)
class TensorProduct:
    """M (x) N with conversion between canonical and pure-tensor coordinates."""

    left: FiniteModule
    right: FiniteModule
    module: FiniteModule
    pairs: tuple[tuple[int, int], ...]
    pure_images: tuple[tuple[int, ...], ...]
    lifts: tuple[tuple[int, ...], ...]

    def pure(self, x, y) -> tuple[int, ...]:
        """The element x (x) y in canonical coordinates."""
        acc = [0] * self.module.rank()
        for t, (i, j) in enumerate(self.pairs):
            c = x[i] * y[j]
            if c:
                img = self.pure_images[t]
                for s in range(len(acc)):
                    acc[s] += c * img[s]
        return self.module.reduce(acc)

    def expand(self, z) -> list[tuple[int, int, int]]:
        """Write z as a sum of coefficient * (generator pair): [(c, i, j), ...]."""
        out = []
        for t, (i, j) in enumerate(self.pairs):
            c = sum(z[s] * self.lifts[s][t] for s in range(len(z)))
            g = gcd(self.left.invariant_factors[i], self.right.invariant_factors[j])
            c %= g
            if c:
                out.append((c, i, j))
        return out


@lru_cache(maxsize=16384)
def tensor(m: FiniteModule, n: FiniteModule) -> TensorProduct:
    if m.ring != n.ring:
        raise ValueError("tensor factors live over different rings")
    pairs, can = _pair_sum(m.ring, m.invariant_factors, n.invariant_factors)
    return TensorProduct(
        m, n, can.module, pairs, can.generator_images, can.generator_lifts
    )


def tensor_mor(f: Morphism, g: Morphism) -> Morphism:
    """f (x) g on the canonical tensor modules."""
    src = tensor(f.domain, g.domain)
    dst = tensor(f.codomain, g.codomain)
    fcols = [
        tuple(f.matrix[j][i] for j in range(f.codomain.rank()))
        for i in range(f.domain.rank())
    ]
    gcols = [
        tuple(g.matrix[j][i] for j in range(g.codomain.rank()))
        for i in range(g.domain.rank())
    ]
    columns = []
    for t in range(src.module.rank()):
        acc = dst.module.zero_element()
        for c, i, j in src.expand(
            tuple(1 if s == t else 0 for s in range(src.module.rank()))
        ):
            acc = dst.module.add(acc, dst.module.scale(c, dst.pure(fcols[i], gcols[j])))
        columns.append(acc)
    return Morphism.from_columns(src.module, dst.module, columns)


@dataclass(frozen=True)
class HomModule:
    """Hom(M, N) as a canonical module, convertible to and from morphisms."""

    source: FiniteModule
    target: FiniteModule
    module: FiniteModule
    pairs: tuple[tuple[int, int], ...]
    pure_images: tuple[tuple[int, ...], ...]
    lifts: tuple[tuple[int, ...], ...]
    multipliers: tuple[int, ...]

    def to_morphism(self, z) -> Morphism:
        """The actual morphism M -> N encoded by the element z."""
        d = self.source.invariant_factors
        e = self.target.invariant_factors
        matrix = [[0] * len(d) for _ in range(len(e))]
        for t, (i, j) in enumerate(self.pairs):
            c = sum(z[s] * self.lifts[s][t] for s in range(len(z)))
            # multipliers[t] is e_j / gcd(d_i, e_j): well defined for every c
            matrix[j][i] = c * self.multipliers[t] % e[j]
        return Morphism._trusted(self.source, self.target, tuple(map(tuple, matrix)))

    def of_morphism(self, f: Morphism) -> tuple[int, ...]:
        """Canonical coordinates of a morphism M -> N."""
        if f.domain != self.source or f.codomain != self.target:
            raise ValueError("morphism does not belong to this hom module")
        acc = [0] * self.module.rank()
        for t, (i, j) in enumerate(self.pairs):
            a = f.matrix[j][i]
            c, rem = divmod(a, self.multipliers[t])
            if rem:
                raise AssertionError("well-defined morphism fell outside the hom lattice")
            img = self.pure_images[t]
            for s in range(len(acc)):
                acc[s] += c * img[s]
        return self.module.reduce(acc)


@lru_cache(maxsize=16384)
def hom_module(m: FiniteModule, n: FiniteModule) -> HomModule:
    if m.ring != n.ring:
        raise ValueError("hom endpoints live over different rings")
    pairs, can = _pair_sum(m.ring, m.invariant_factors, n.invariant_factors)
    mult = tuple(
        n.invariant_factors[j] // gcd(m.invariant_factors[i], n.invariant_factors[j])
        for (i, j) in pairs
    )
    return HomModule(
        m, n, can.module, pairs, can.generator_images, can.generator_lifts, mult
    )


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
    """Hom(M, N) (x) M -> N, the counit of the tensor-hom adjunction."""
    h = hom_module(m, n)
    t = tensor(h.module, m)
    columns = []
    for z in _canonical_generators(t.module):
        acc = n.zero_element()
        for c, a, i in t.expand(z):
            ga = tuple(1 if s == a else 0 for s in range(h.module.rank()))
            mor = h.to_morphism(ga)
            xi = tuple(1 if s == i else 0 for s in range(m.rank()))
            acc = n.add(acc, n.scale(c, mor.apply(xi)))
        columns.append(acc)
    return Morphism.from_columns(t.module, n, columns)
