"""Constructions that only the tests use: morphism samples, mono slices,
mediating morphisms of pullbacks and pushouts, identity chain maps,
multiplication maps and element orders.

The package never calls these, so they live next to the tests.
"""

import random
from math import gcd

from modcat.complexes import ChainMap, Complex
from modcat.enumeration import enumerate_morphisms
from modcat.exact import Pullback, Pushout
from modcat.modules import FiniteModule, Morphism, factor_through_epi, factor_through_mono


def sample_morphisms(dom: FiniteModule, cod: FiniteModule, count: int, seed: int):
    """A reproducible sample of morphisms dom -> cod."""
    rng = random.Random((seed, dom.invariant_factors, cod.invariant_factors, count).__repr__())
    d = dom.invariant_factors
    e = cod.invariant_factors
    for _ in range(count):
        matrix = tuple(
            tuple(
                rng.randrange(gcd(d[i], e[j])) * (e[j] // gcd(d[i], e[j]))
                for i in range(len(d))
            )
            for j in range(len(e))
        )
        yield Morphism(dom, cod, matrix)


def enumerate_monos(dom: FiniteModule, cod: FiniteModule):
    return (f for f in enumerate_morphisms(dom, cod) if f.is_mono())


def pullback_mediate(pb: Pullback, u: Morphism, v: Morphism) -> Morphism:
    """The unique w with to_domg . w = u and to_domh . w = v."""
    ds = pb.ambient
    pair = ds.injections[0] @ u + ds.injections[1] @ v
    w = factor_through_mono(pair, pb.embed)
    if (pb.to_domg @ w).matrix != u.matrix or (pb.to_domh @ w).matrix != v.matrix:
        raise AssertionError("mediating morphism does not reproduce the cone")
    return w


def pushout_mediate(po: Pushout, u: Morphism, v: Morphism) -> Morphism:
    """The unique w with w . from_codf = u and w . from_codh = v."""
    ds = po.ambient
    copair = u @ ds.projections[0] + v @ ds.projections[1]
    w = factor_through_epi(copair, po.project)
    if (w @ po.from_codf).matrix != u.matrix or (w @ po.from_codh).matrix != v.matrix:
        raise AssertionError("mediating morphism does not reproduce the cocone")
    return w


def identity_chain_map(x: Complex) -> ChainMap:
    return ChainMap(x, x, tuple(Morphism.identity(m) for m in x.components))


def multiplication(m: FiniteModule, c: int) -> Morphism:
    """x |-> c * x on m."""
    k = m.rank()
    return Morphism(m, m, tuple(tuple(c if i == j else 0 for i in range(k)) for j in range(k)))


def element_order(m: FiniteModule, x) -> int:
    """The additive order of the element x of m."""
    result = 1
    for v, d in zip(x, m.invariant_factors):
        if v % d:
            result = result * (d // gcd(v, d)) // gcd(result, d // gcd(v, d))
    return result
