"""Conflations, pullbacks, pushouts, and split sections."""

import pytest

from modcat.modules import (
    FiniteModule,
    Morphism,
    RingSpec,
    cokernel,
    cyclic,
    direct_sum,
    kernel,
    solve,
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
from modcat.enumeration import enumerate_modules, enumerate_morphisms, subgroup_catalog
from modcat.suites import SuiteConfig, run_suite

from helpers import (
    clear_package_caches,
    direct_sum_pullback,
    direct_sum_pushout,
    multiplication,
    pullback_embedding,
    pullback_mediate,
    pushout_mediate,
    pushout_projection,
    retraction,
    sample_morphisms,
    source_mutant,
    trusted_builds,
)


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


@pytest.mark.parametrize("n", [4, 8, 9, 12])
def test_the_not_epi_witness_is_the_first_element_outside_the_image(n):
    # Element-walk oracle: the lexicographically first y with no preimage.
    mods = list(enumerate_modules(n, 12))
    seen = 0
    for a in mods:
        for b in mods:
            for g in enumerate_morphisms(a, b):
                if g.is_epi():
                    continue
                first = next(y for y in b.elements() if solve(g, y) is None)
                with pytest.raises(NotAConflation, match="not epic") as info:
                    Conflation(Morphism.zero(RingSpec(n).zero_module(), a), g)
                assert info.value.witness == first
                seen += 1
    assert seen > 0


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
        assert pullback_embedding(pb)[1].is_mono()
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
        assert pushout_projection(po)[1].is_epi()
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
# concatenated coordinates against the direct-sum oracle
# ---------------------------------------------------------------------------


def _image_set(f: Morphism) -> frozenset:
    return frozenset(f.apply(x) for x in f.domain.elements())


def _kernel_set(f: Morphism) -> frozenset:
    zero = f.codomain.zero_element()
    return frozenset(x for x in f.domain.elements() if f.apply(x) == zero)


@pytest.mark.parametrize("n", [4, 12])
def test_pullbacks_and_pushouts_agree_with_the_direct_sum_oracle(monkeypatch, n):
    """Every pullback and pushout of the axioms suite at modulus n, order
    <= 8, against the construction inside the canonical direct sum: the
    same invariant factors, the same image of the embedding into
    dom g + dom h, and the same kernel of the projection from
    cod f + cod h, compared as sets of elements."""
    built = {"pullback": [], "pushout": []}

    def recording(kind, construct):
        def wrapper(a, b):
            result = construct(a, b)
            built[kind].append((a, b, result))
            return result

        return wrapper

    monkeypatch.setattr("modcat.suites.pullback", recording("pullback", pullback))
    monkeypatch.setattr("modcat.suites.pushout", recording("pushout", pushout))
    report = run_suite(SuiteConfig(moduli=(n,), max_module_order=8), names=("axioms",))
    monkeypatch.undo()
    assert report.exit_code == 0
    assert built["pullback"] and built["pushout"]
    for g, h, pb in built["pullback"]:
        oracle, ds, embed = direct_sum_pullback(g, h)
        assert pb.module.invariant_factors == oracle.module.invariant_factors
        ambient, pair = pullback_embedding(pb)
        assert ambient == ds
        assert _image_set(pair) == _image_set(embed)
    for f, h, po in built["pushout"]:
        oracle, ds, project = direct_sum_pushout(f, h)
        assert po.module.invariant_factors == oracle.module.invariant_factors
        ambient, copair = pushout_projection(po)
        assert ambient == ds
        assert _kernel_set(copair) == _kernel_set(project)


def test_pullback_and_pushout_take_one_smith_form_and_no_direct_sum(monkeypatch):
    """Each construction is one Smith form (the kernel of [g | -h] or the
    cokernel of [f; -h]), builds no direct sum, composes no morphism, and
    evaluates its square once, as the two residue products of its sides
    (g . to_g and h . to_h, or from_f . f and from_h . h)."""
    import modcat.exact as ex
    import modcat.modules as mm

    r = RingSpec(12)
    y = FiniteModule(r, (2, 12))
    w = FiniteModule(r, (2, 6))
    entries = [e for e in subgroup_catalog(y) if e.sub.rank() and e.quotient.rank()]
    cases = [
        (e.projection, e.inclusion, h_pb, h_po)
        for e in entries[:4]
        for h_pb in sample_morphisms(w, e.quotient, 2, seed=53)
        for h_po in sample_morphisms(e.sub, w, 2, seed=59)
    ]
    assert len(cases) == 16
    smith_forms = []
    real_smith = mm.smith_normal_form

    def counting(matrix, *args, **kwargs):
        smith_forms.append(len(matrix))
        return real_smith(matrix, *args, **kwargs)

    composites = []
    real_matmul = Morphism.__matmul__

    def recording(self, other):
        composites.append((self, other))
        return real_matmul(self, other)

    products = []
    real_compose = mm._compose_rows

    def compose_recording(a, b, e, k):
        products.append(e)
        return real_compose(a, b, e, k)

    monkeypatch.setattr(mm, "smith_normal_form", counting)
    monkeypatch.setattr(Morphism, "__matmul__", recording)
    monkeypatch.setattr(mm, "_compose_rows", compose_recording)
    monkeypatch.setattr(ex, "_compose_rows", compose_recording)
    sums = mm.direct_sum_many.cache_info()
    for g, f, h_pb, h_po in cases:
        smith_forms.clear()
        products.clear()
        pb = pullback(g, h_pb)
        assert len(smith_forms) == 1
        assert products == [g.codomain.invariant_factors] * 2
        smith_forms.clear()
        products.clear()
        po = pushout(f, h_po)
        assert len(smith_forms) == 1
        assert products == [po.module.invariant_factors] * 2
    assert composites == []
    info = mm.direct_sum_many.cache_info()
    assert info.hits + info.misses == sums.hits + sums.misses


def test_kernels_cokernels_pullbacks_and_pushouts_take_one_smith_form_and_no_solve(monkeypatch):
    """Each reads only the generator images of its canonical form: one
    Smith form, and no generator lift solved through ``_solve_mod``."""
    import modcat.modules as mm

    r = RingSpec(12)
    y = FiniteModule(r, (2, 12))
    w = FiniteModule(r, (2, 6))
    entries = [e for e in subgroup_catalog(y) if e.sub.rank() and e.quotient.rank()][:4]
    maps = [*sample_morphisms(w, y, 4, seed=61), *sample_morphisms(y, w, 4, seed=67)]
    smith_forms = []
    real_smith = mm.smith_normal_form

    def counting(matrix, *args, **kwargs):
        smith_forms.append(len(matrix))
        return real_smith(matrix, *args, **kwargs)

    def no_solve(*args):
        raise AssertionError("a kernel, cokernel, pullback or pushout solved a system")

    monkeypatch.setattr(mm, "smith_normal_form", counting)
    monkeypatch.setattr(mm, "_solve_mod", no_solve)
    calls = [lambda f=f: mm.kernel.__wrapped__(f) for f in maps]
    calls += [lambda f=f: cokernel(f) for f in maps]
    for e in entries:
        calls += [lambda e=e, h=h: pullback(e.projection, h)
                  for h in sample_morphisms(w, e.quotient, 2, seed=53)]
        calls += [lambda e=e, h=h: pushout(e.inclusion, h)
                  for h in sample_morphisms(e.sub, w, 2, seed=59)]
    assert len(calls) == 32
    for call in calls:
        smith_forms.clear()
        call()
        assert len(smith_forms) == 1


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
    section = splits(c.g)
    assert section is not None
    assert c.g @ section == Morphism.identity(c.quotient)
    assert retraction(c, section) @ c.f == Morphism.identity(c.sub)


def test_nonsplit_witnessed_by_brute_scan():
    c = two_in_four()
    assert splits(c.g) is None
    assert not brute_has_section(c)


def test_splits_agrees_with_brute_scan_over_small_catalog():
    for factors in [(2, 4), (4, 4), (2, 2)]:
        y = FiniteModule(R4, factors)
        for entry in subgroup_catalog(y):
            c = entry.conflation()
            assert (splits(c.g) is not None) == brute_has_section(c)


def test_section_exists_iff_retraction_exists():
    # f is mono, so a section s gives the retraction r with f . r = id - s . g
    # (tests/helpers.py), and a retraction gives a section the same way
    for factors in [(2, 4), (2, 2)]:
        y = FiniteModule(R4, factors)
        for entry in subgroup_catalog(y):
            c = entry.conflation()
            has_retraction = any(
                r @ c.f == Morphism.identity(c.sub)
                for r in enumerate_morphisms(c.total, c.sub)
            )
            assert (splits(c.g) is not None) == has_retraction


# ---------------------------------------------------------------------------
# conflations built without validation
# ---------------------------------------------------------------------------


def rejected_conflations(built) -> int:
    """How many of ``built`` the validating constructor refuses, or rebuilds
    unequal or with another hash (``suites._entry_pure`` caches on it)."""
    rejected = 0
    for c in built:
        try:
            again = Conflation(c.f, c.g)
        except NotAConflation:
            rejected += 1
            continue
        rejected += again != c or hash(again) != hash(c)
    return rejected


def test_every_trusted_conflation_of_a_purity_run_validates():
    """Every conflation that a prop1 and flat-equiv run builds through
    ``Conflation._trusted`` (subgroup entries; purity builds no dual
    conflation) passes the validating constructor, equal and with the same
    hash.  Six moduli, since prop1 builds each invariant-factor input's
    conflation over one of them only."""
    report, built, callers = trusted_builds(
        dict(moduli=(4, 8, 9, 12, 16, 18), max_module_order=16, max_kernel_order=8),
        ("prop1", "flat-equiv"),
        (Conflation,),
    )
    assert report.exit_code == 0
    assert callers == {"conflation"}
    assert len(built) > 500
    assert rejected_conflations(built) == 0


def test_revalidation_rejects_a_dual_conflation_with_mismatched_legs(monkeypatch):
    """A dual conflation whose legs are f+ then g+ (the wrong way round)
    is rejected by the validating constructor it is built through; and a
    purity that splits g+, the dual of the deflation, instead of f+ fails
    the prop1 agreement checks."""
    import modcat.purity as purity

    old = "dual_mor(c.g), dual_mor(c.f)"
    swapped = source_mutant(purity.dual_conflation, old, "dual_mor(c.f), dual_mor(c.g)")
    with pytest.raises(NotAConflation):
        swapped(two_in_four())
    monkeypatch.setattr(
        "modcat.suites.is_pure", source_mutant(purity.is_pure, "dual_mor(c.f)", "dual_mor(c.g)")
    )
    clear_package_caches()
    report = run_suite(
        SuiteConfig(moduli=(4,), max_module_order=8, max_kernel_order=4), names=("prop1",)
    )
    prop1 = report.suites[0]
    kinds = [ce["check"] for ce in prop1.counterexamples]
    assert (prop1.checked, prop1.failed) == (33, 24)
    assert set(kinds) == {"purity-agreement"}


def test_revalidation_rejects_a_subgroup_entry_whose_inclusion_is_not_mono(monkeypatch):
    """A subgroup entry whose inclusion is scaled by 2 (still killed by the
    projection, no longer mono on a subgroup of even order) is caught by
    the revalidation, although the prop1 run itself passes."""
    import modcat.enumeration as me

    mutant = source_mutant(me.SubgroupEntry.conflation, "self.inclusion,", "self.inclusion.scaled(2),")
    monkeypatch.setattr(me.SubgroupEntry, "conflation", mutant)
    report, built, callers = trusted_builds(
        dict(moduli=(4,), max_module_order=8, max_kernel_order=4), ("prop1",), (Conflation,)
    )
    assert report.exit_code == 0
    assert "conflation" in callers
    assert rejected_conflations(built) > 0
