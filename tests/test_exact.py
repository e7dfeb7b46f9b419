"""Conflations, pullbacks, pushouts, and split witnesses."""

import pytest

from modcat.modules import (
    FiniteModule,
    Morphism,
    RingSpec,
    cyclic,
    direct_sum,
    kernel,
    subgroup_from_lattice,
)
from modcat.exact import (
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
from modcat.enumeration import enumerate_morphisms, subgroup_catalog

from helpers import multiplication, pullback_mediate, pushout_mediate, sample_morphisms


R4 = RingSpec(4)
Z4 = cyclic(R4, 4)
Z2 = cyclic(R4, 2)


def two_in_four() -> Conflation:
    """The fundamental non-split conflation Z/2 -> Z/4 -> Z/2 over n = 4."""
    f = Morphism(Z2, Z4, ((2,),))
    g = Morphism(Z4, Z2, ((1,),))
    return make_conflation(f, g)


def test_frozen_conflation_accepts():
    c = two_in_four()
    assert c.sub == Z2 and c.total == Z4 and c.quotient == Z2
    assert is_inflation(c.f) and is_deflation(c.g)


def test_conflation_rejects_bad_legs():
    with pytest.raises(NotAConflation):
        make_conflation(Morphism.zero(Z2, Z4), Morphism(Z4, Z2, ((1,),)))  # f not mono
    with pytest.raises(NotAConflation):
        make_conflation(Morphism(Z2, Z4, ((2,),)), Morphism.zero(Z4, Z2))  # g not epi
    with pytest.raises(NotAConflation):
        # mono and epi but composite nonzero
        make_conflation(Morphism.identity(Z4), Morphism(Z4, Z2, ((1,),)))
    with pytest.raises(NotAConflation):
        # mono, epi, composite zero, but order bookkeeping fails: 4 != 1 * 2
        make_conflation(Morphism.zero(R4.zero_module(), Z4), Morphism(Z4, Z2, ((1,),)))


def test_exactness_is_forced_by_the_order_check():
    # im f is contained in ker g whenever gf = 0; with |B| = |A| |M| and f
    # mono the containment is an equality, so the class never needs an
    # explicit exactness scan.  Spot-verify on a catalog walk anyway.
    y = FiniteModule(R4, (2, 4))
    for entry in subgroup_catalog(y):
        c = entry.conflation()
        ker_mod, _ = kernel(c.g)
        assert ker_mod.order == c.sub.order


def test_conflation_from_mono_and_epi():
    f = Morphism(Z2, Z4, ((2,),))
    c = conflation_from_mono(f)
    assert c.f == f and c.quotient.invariant_factors == (2,)
    g = Morphism(Z4, Z2, ((1,),))
    c2 = conflation_from_epi(g)
    assert c2.g == g and c2.sub.invariant_factors == (2,)


def test_conflation_serialization_roundtrip():
    c = two_in_four()
    assert Conflation.from_dict(c.to_dict()) == c


def test_inflation_deflation_of_identity_and_zero():
    z = R4.zero_module()
    assert is_inflation(Morphism.identity(Z4))
    assert is_deflation(Morphism.identity(Z4))
    assert is_inflation(Morphism.zero(z, Z4))
    assert is_deflation(Morphism.zero(Z4, z))
    assert not is_inflation(multiplication(Z4, 2))
    assert not is_deflation(multiplication(Z4, 2))


# ---------------------------------------------------------------------------
# pullbacks
# ---------------------------------------------------------------------------


def count_mediators(pb, u, v):
    """Brute count of morphisms T -> P commuting with both projections."""
    t = u.domain
    count = 0
    for med in enumerate_morphisms(t, pb.module):
        if pb.to_domg @ med == u and pb.to_domh @ med == v:
            count += 1
    return count


def test_pullback_square_and_mediation():
    c = two_in_four()
    g = c.g
    for h in enumerate_morphisms(Z4, Z2):
        pb = pullback(g, h)
        assert g @ pb.to_domg == h @ pb.to_domh
        assert pb.embed.is_mono()
        # deflations pull back to deflations
        assert is_deflation(pb.to_domh)
        # universal property, with uniqueness, against a brute scan
        t = FiniteModule(R4, (2, 2))
        for u in sample_morphisms(t, Z4, 2, seed=7):
            for v in sample_morphisms(t, Z4, 2, seed=11):
                if g @ u == h @ v:
                    med = pullback_mediate(pb, u, v)
                    assert pb.to_domg @ med == u
                    assert pb.to_domh @ med == v
                    assert count_mediators(pb, u, v) == 1


def test_pullback_of_identity_recovers_the_map():
    h = Morphism(Z4, Z2, ((1,),))
    pb = pullback(Morphism.identity(Z2), h)
    # P = {(y, w) : y = h(w)} is the graph of h, so to_domh is an iso
    assert pb.to_domh.is_iso()


def test_pullback_mediate_rejects_non_commuting_pair():
    c = two_in_four()
    pb = pullback(c.g, Morphism.identity(Z2))
    u = Morphism.identity(Z4)
    v = Morphism.zero(Z4, Z2)
    assert c.g @ u != Morphism.identity(Z2) @ v
    with pytest.raises(ValueError):
        pullback_mediate(pb, u, v)


# ---------------------------------------------------------------------------
# pushouts
# ---------------------------------------------------------------------------


def test_pushout_square_and_mediation():
    c = two_in_four()
    f = c.f
    for h in enumerate_morphisms(Z2, Z4):
        po = pushout(f, h)
        assert po.from_codf @ f == po.from_codh @ h
        assert po.project.is_epi()
        # inflations push out to inflations
        assert is_inflation(po.from_codh)
        # universal property against a brute scan
        t = FiniteModule(R4, (2, 4))
        for u in sample_morphisms(Z4, t, 2, seed=13):
            for v in sample_morphisms(Z4, t, 2, seed=17):
                if u @ f == v @ h:
                    med = pushout_mediate(po, u, v)
                    assert med @ po.from_codf == u
                    assert med @ po.from_codh == v


def test_pushout_along_identity_recovers_the_map():
    f = Morphism(Z2, Z4, ((2,),))
    po = pushout(f, Morphism.identity(Z2))
    assert po.from_codh.is_mono()
    assert po.from_codf.is_iso()


# ---------------------------------------------------------------------------
# splittings
# ---------------------------------------------------------------------------


def brute_has_section(c: Conflation) -> bool:
    return any(
        c.g @ s == Morphism.identity(c.quotient)
        for s in enumerate_morphisms(c.quotient, c.total)
    )


def test_split_witness_on_direct_sum():
    ds = direct_sum(Z2, Z4)
    c = make_conflation(ds.injections[0], ds.projections[1])
    w = splits(c)
    assert w is not None
    assert w.retraction @ c.f == Morphism.identity(c.sub)
    assert c.g @ w.section == Morphism.identity(c.quotient)


def test_nonsplit_witnessed_by_brute_scan():
    c = two_in_four()
    assert splits(c) is None
    assert not brute_has_section(c)


def test_splits_agrees_with_brute_scan_over_small_catalog():
    for factors in [(2, 4), (4, 4), (2, 2)]:
        y = FiniteModule(R4, factors)
        for entry in subgroup_catalog(y):
            c = entry.conflation()
            assert (splits(c) is not None) == brute_has_section(c)


def test_section_exists_iff_retraction_exists():
    # not a general categorical fact, but here splits() must find both at once
    for factors in [(2, 4), (2, 2)]:
        y = FiniteModule(R4, factors)
        for entry in subgroup_catalog(y):
            c = entry.conflation()
            has_retraction = any(
                r @ c.f == Morphism.identity(c.sub)
                for r in enumerate_morphisms(c.total, c.sub)
            )
            assert (splits(c) is not None) == has_retraction
