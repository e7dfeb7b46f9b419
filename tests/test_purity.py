"""Character duals, purity, flatness, injectivity, pure-injective embeddings.

Independent oracles:
  * the character dual through the internal hom, Hom(-, Z/n) built by
    ``hom_module`` and the test helper ``precompose_map`` (the package uses
    the closed form),
  * purity by tensoring against *every* small module (the in-package oracle
    only scans cyclic divisor modules; the scan here is strictly broader),
  * injectivity by brute extension search over a subgroup catalog (the
    in-package test is the Baer criterion on ideals).
"""

import pytest

from modcat.modules import FiniteModule, Morphism, RingSpec, cyclic, direct_sum
from modcat.exact import Conflation, make_conflation, splits
from modcat.monoidal import hom_module
from modcat.purity import (
    NotFlat,
    conflation_tensor_failure,
    double_dual_unit,
    dual,
    dual_conflation,
    dual_mor,
    extract_section,
    flat_structural_oracle,
    ideal_conflation,
    is_flat,
    is_flat_tensor_route,
    is_injective,
    is_pure,
    is_pure_oracle,
    pure_embedding_conflation,
    triangle_identity_check,
)
from modcat.enumeration import (
    enumerate_modules,
    enumerate_morphisms,
    is_pure_injective,
    subgroup_catalog,
)

from helpers import precompose_map, sample_morphisms


R4 = RingSpec(4)
Z4 = cyclic(R4, 4)
Z2 = cyclic(R4, 2)


def two_in_four() -> Conflation:
    return make_conflation(Morphism(Z2, Z4, ((2,),)), Morphism(Z4, Z2, ((1,),)))


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12])
def test_dual_preserves_order_and_factors(n):
    # The d-torsion counts over d | n determine a finite Z/n-module, so
    # counting the characters chi: M -> Z/n with d . chi = 0 one by one
    # pins the module dual(m) claims to be Hom(M, Z/n).
    ring = RingSpec(n)
    for m in enumerate_modules(n, 24):
        chars = list(enumerate_morphisms(m, ring.unit_module()))
        dm = dual(m)
        for d in ring.divisors():
            killed = sum(chi.scaled(d).is_zero_morphism for chi in chars)
            torsion = sum(not any(dm.scale(d, x)) for x in dm.elements())
            assert torsion == killed, (m, d)


def test_dual_mor_is_contravariant_and_additive():
    a = FiniteModule(R4, (2, 4))
    b = FiniteModule(R4, (4,))
    c = FiniteModule(R4, (2, 2))
    for f in sample_morphisms(a, b, 3, seed=7):
        for g in sample_morphisms(b, c, 3, seed=11):
            assert dual_mor(g @ f) == dual_mor(f) @ dual_mor(g)
        for f2 in sample_morphisms(a, b, 3, seed=13):
            assert dual_mor(f + f2) == dual_mor(f) + dual_mor(f2)
    assert dual_mor(Morphism.identity(a)) == Morphism.identity(dual(a))


def test_dual_exchanges_mono_and_epi():
    c = two_in_four()
    dc = dual_conflation(c)
    assert dc.f.is_mono() and dc.g.is_epi()
    assert dc.sub.order == c.quotient.order
    assert dc.quotient.order == c.sub.order


@pytest.mark.parametrize("n", [4, 9])
def test_dual_of_every_catalog_conflation_is_a_conflation(n):
    ring = RingSpec(n)
    for y in enumerate_modules(n, 16):
        for entry in subgroup_catalog(y):
            c = entry.conflation()
            dc = dual_conflation(c)
            # c is built trusted, dc validated: the validating constructor
            # rebuilds both equal
            assert Conflation(c.f, c.g) == c
            assert Conflation(dc.f, dc.g) == dc


def test_double_dual_unit_is_an_iso_and_triangle_holds():
    for n in (4, 6, 9, 12):
        for m in enumerate_modules(n, 16):
            lam = double_dual_unit(m)
            assert lam.is_mono()
            assert lam.is_iso()  # finite case: reflexive
            assert triangle_identity_check(m)


def test_double_dual_unit_is_natural():
    a = FiniteModule(R4, (2, 4))
    b = FiniteModule(R4, (4,))
    for f in sample_morphisms(a, b, 6, seed=17):
        assert double_dual_unit(b) @ f == dual_mor(dual_mor(f)) @ double_dual_unit(a)


def hom_route_dual(m: FiniteModule) -> FiniteModule:
    return hom_module(m, m.ring.unit_module()).module


def hom_route_dual_mor(f: Morphism) -> Morphism:
    return precompose_map(f, f.domain.ring.unit_module())


def test_closed_form_dual_matches_the_hom_route():
    morphisms = legs = 0
    for n in (4, 8, 9, 12, 30):
        small = enumerate_modules(n, 8)
        for a in small:
            for b in small:
                for f in enumerate_morphisms(a, b):
                    assert dual_mor(f) == hom_route_dual_mor(f)
                    morphisms += 1
        for y in enumerate_modules(n, 32):
            for entry in subgroup_catalog(y):
                for f in (entry.inclusion, entry.projection):
                    assert dual_mor(f) == hom_route_dual_mor(f)
                    legs += 1
        for m in enumerate_modules(n, 256):
            assert dual(m) == hom_route_dual(m)
    assert (morphisms, legs) == (3719, 5812)


# ---------------------------------------------------------------------------
# purity
# ---------------------------------------------------------------------------


def brute_pure(c: Conflation, w_pool) -> bool:
    return all(conflation_tensor_failure(c, w) is None for w in w_pool)


def test_frozen_purity_verdicts():
    c = two_in_four()
    assert not is_pure(c)
    assert not is_pure_oracle(c)
    fail = conflation_tensor_failure(c, Z2)
    assert fail is not None
    ds = direct_sum(Z2, Z4)
    split_c = make_conflation(ds.injections[0], ds.projections[1])
    assert is_pure(split_c)
    assert is_pure_oracle(split_c)
    assert brute_pure(split_c, enumerate_modules(4, 16))


@pytest.mark.parametrize("n", [4, 9])
def test_three_purity_routes_agree_on_full_catalog(n):
    pool = enumerate_modules(n, 16)
    for y in pool:
        for entry in subgroup_catalog(y):
            c = entry.conflation()
            via_dual = is_pure(c)
            via_divisors = is_pure_oracle(c)
            via_everything = brute_pure(c, pool)
            assert via_dual == via_divisors == via_everything


def test_tensor_failure_names_the_broken_property():
    c = two_in_four()
    assert not is_pure_oracle(c)
    assert conflation_tensor_failure(c, Z2) == "inflation leg loses injectivity"
    assert conflation_tensor_failure(c, Z4) is None


# ---------------------------------------------------------------------------
# injectivity and flatness
# ---------------------------------------------------------------------------


def brute_injective(m: FiniteModule, ambient_bound: int = 0) -> bool:
    """Extension-search injectivity: every map from a subgroup extends.

    The ambient pool must reach at least the regular module Z/n, or the
    search cannot see the Baer-critical embeddings of ideals.
    """
    ambient_bound = ambient_bound or max(8, m.ring.modulus)
    for y in enumerate_modules(m.ring.modulus, ambient_bound):
        for entry in subgroup_catalog(y):
            i = entry.inclusion
            for f in enumerate_morphisms(entry.sub, m):
                if not any(g @ i == f for g in enumerate_morphisms(y, m)):
                    return False
    return True


@pytest.mark.parametrize("n", [4, 6, 9])
def test_baer_matches_extension_search(n):
    for m in enumerate_modules(n, 8):
        assert is_injective(m) == brute_injective(m)


def test_frozen_injectivity_facts():
    assert is_injective(cyclic(RingSpec(4), 4))
    assert not is_injective(cyclic(RingSpec(4), 2))
    assert is_injective(cyclic(RingSpec(6), 2))  # 2 and 6/2 = 3 are coprime
    assert is_injective(cyclic(RingSpec(6), 3))
    assert not is_injective(cyclic(RingSpec(12), 6))
    assert is_injective(RingSpec(12).zero_module())


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12, 18, 22, 27, 36, 50])
def test_flat_routes_agree(n):
    for m in enumerate_modules(n, 32):
        a = is_flat(m)
        b = is_flat_tensor_route(m)
        c = flat_structural_oracle(m)
        assert a == b == c


def test_frozen_flatness_facts():
    assert is_flat(cyclic(RingSpec(4), 4))
    assert not is_flat(cyclic(RingSpec(4), 2))
    assert is_flat(cyclic(RingSpec(6), 2))
    assert is_flat(cyclic(RingSpec(6), 3))
    assert is_flat(FiniteModule(RingSpec(6), (2, 6)))
    assert not is_flat(FiniteModule(RingSpec(8), (2, 8)))


def test_ideal_conflations_are_conflations():
    for n in (4, 6, 12):
        r = RingSpec(n)
        for d in r.divisors():
            c = ideal_conflation(r, d)
            assert c.total == r.unit_module()


def test_flat_iff_all_catalog_conflations_ending_in_it_are_pure():
    # fourth route, by raw enumeration rather than the package's walk
    n = 4
    pool = enumerate_modules(n, 16)
    verdicts = {}
    for y in pool:
        for entry in subgroup_catalog(y):
            c = entry.conflation()
            q = c.quotient
            ok = is_pure(c)
            verdicts[q] = verdicts.get(q, True) and ok
    for m in pool:
        # only quotients whose family included nontrivial kernels: a module
        # of order 16 shows up solely in 0 -> Y -> Y here, which decides
        # nothing about flatness
        if m in verdicts and 1 < m.order <= 8:
            assert verdicts[m] == is_flat(m), m


# ---------------------------------------------------------------------------
# sections of conflations with flat quotient
# ---------------------------------------------------------------------------


def invert(f: Morphism) -> Morphism:
    """Inverse of an iso, one generator preimage at a time."""
    assert f.is_iso()
    cols = []
    for t in range(f.codomain.rank()):
        gen = tuple(1 if s == t else 0 for s in range(f.codomain.rank()))
        from modcat.modules import solve

        pre = solve(f, gen)
        assert pre is not None
        cols.append(pre)
    return Morphism.from_columns(f.codomain, f.domain, cols)


def test_extract_section_on_flat_ends():
    # extract_section hands back the retraction r of g+ and checks
    # r . g+ = id itself; re-check that identity here, then turn r into an
    # honest section of g through the double-dual unit and naturality
    for n in (4, 6, 12):
        for y in enumerate_modules(n, 16):
            for entry in subgroup_catalog(y):
                c = entry.conflation()
                if is_flat(c.quotient):
                    r = extract_section(c)
                    g_plus = dual_mor(c.g)
                    assert r @ g_plus == Morphism.identity(dual(c.quotient))
                    lam_y = double_dual_unit(c.total)
                    lam_q = double_dual_unit(c.quotient)
                    s = invert(lam_y) @ dual_mor(r) @ lam_q
                    assert c.g @ s == Morphism.identity(c.quotient)


def test_extract_section_rejects_non_flat_quotient():
    with pytest.raises(NotFlat):
        extract_section(two_in_four())


# ---------------------------------------------------------------------------
# pure-injective embedding
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 9, 12])
def test_pure_embedding_conflation(n):
    for m in enumerate_modules(n, 16):
        c = pure_embedding_conflation(m)
        assert c.sub == m
        assert c.f == double_dual_unit(m)
        assert is_pure(c)
        assert is_pure_oracle(c)


def test_pure_injectivity_at_desk_scale():
    # over a finite ring at this scale every pure conflation splits, so
    # every module must test pure-injective; the value of the check is that
    # the walk actually exercises the splitting search
    for m in enumerate_modules(4, 8):
        assert is_pure_injective(m, 16)


def test_pure_conflations_split_at_desk_scale():
    for y in enumerate_modules(4, 16):
        for entry in subgroup_catalog(y):
            c = entry.conflation()
            assert is_pure(c) == (splits(c.g) is not None)
            # the validating whole dual is the oracle for the f+-alone route
            assert is_pure(c) == (splits(dual_conflation(c).g) is not None)
