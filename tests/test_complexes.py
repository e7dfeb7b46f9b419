"""Bounded complexes: cohomology, duals with signs, purity, contractibility.

The brute cohomology oracle below scans elements (kernel and image as raw
sets) and never touches the canonical-form machinery used by cohomology().
The hom-exactness oracle for injective complexes assembles chain-hom
groups through canonical direct sums, independently of the block solver
behind is_contractible().  The hom-module block systems, which canonicalize
every Hom(A, B) and solve for elements of it, are the oracle for the
morphism-unknown systems behind splits_as_complexes() and is_contractible().
The d . d = 0 and commutation checks composed through Morphism, with zero
maps synthesized outside a window, are the oracle for the residue-row
checks in Complex and ChainMap.
"""

import itertools
from math import gcd, prod

import pytest

from modcat.modules import (
    FiniteModule,
    Morphism,
    RingSpec,
    _solve_mod,
    cyclic,
    direct_sum,
    direct_sum_many,
    factor_through_epi,
    factor_through_mono,
    kernel,
)
from modcat.exact import NotAConflation
from modcat.monoidal import hom_module
from modcat.purity import dual, dual_mor, is_flat, is_injective
from modcat.complexes import (
    ChainMap,
    Complex,
    ComplexConflation,
    cohomology,
    double_dual_complex_iso,
    dual_complex,
    is_acyclic,
    is_contractible,
    is_flat_complex,
    is_injective_complex,
    is_pure_acyclic,
    is_pure_complex_conflation,
    kernel_objects,
    single_complex,
    splits_as_complexes,
    tensor_with_module,
    two_term_complex,
    zero_complex,
)
from modcat.enumeration import (
    cyclic_subgroup_catalog,
    enumerate_complex_conflations_ending_in,
    enumerate_complexes,
    enumerate_modules,
    enumerate_morphisms,
    flat_disk_cover,
)
from helpers import (
    chain_retraction,
    complex_conflation_from_chain_epi,
    dual_chain_map,
    dual_complex_conflation,
    identity_chain_map,
    multiplication,
    postcompose_map,
    precompose_map,
    source_mutant,
    trusted_builds,
)


R4 = RingSpec(4)
Z4 = cyclic(R4, 4)
Z2 = cyclic(R4, 2)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_complex_enforces_dd_zero():
    with pytest.raises(ValueError):
        Complex(R4, 0, (Z4, Z4, Z4), (Morphism.identity(Z4), Morphism.identity(Z4)))
    # mult-by-2 twice is zero on Z/4, so this one is legal
    d = multiplication(Z4, 2)
    Complex(R4, 0, (Z4, Z4, Z4), (d, d))


def test_complex_strips_zero_edges():
    z = R4.zero_module()
    x = Complex(R4, -2, (z, Z2, z), (Morphism.zero(z, Z2), Morphism.zero(Z2, z)))
    assert x.lo == -1 and x.hi == -1
    assert x.component(-1) == Z2
    assert x.component(5).is_zero
    assert zero_complex(R4).is_zero


def test_out_of_window_accessors_are_zero():
    x = single_complex(Z4, degree=3)
    assert x.component(2).is_zero and x.component(4).is_zero
    assert x.differential(3).is_zero_morphism
    assert x.differential(-10).is_zero_morphism


def test_chain_map_must_commute():
    disk = two_term_complex(Morphism.identity(Z2), degree=0)
    sphere0 = single_complex(Z2, degree=0)
    # degree-0 identity into the disk fails: d . u = id != 0 = u . d
    with pytest.raises(ValueError):
        ChainMap(sphere0, disk, (Morphism.identity(Z2),))
    # into degree 1 it is fine
    sphere1 = single_complex(Z2, degree=1)
    ChainMap(sphere1, disk, (Morphism.identity(Z2),))


def test_complex_conflation_checks_the_quotient_window():
    # X = Z/2 and Y = Z/4 in degree 0; Z = Z/2 in degrees 0 and 1, zero
    # differential.  Degree 0 is a conflation, but degree 1 is 0 -> 0 -> Z/2.
    x, y = single_complex(Z2, 0), single_complex(Z4, 0)
    z = Complex(R4, 0, (Z2, Z2), (Morphism.zero(Z2, Z2),))
    f = ChainMap(x, y, (Morphism(Z2, Z4, ((2,),)),))
    g = ChainMap(y, z, (Morphism(Z4, Z2, ((1,),)),))
    with pytest.raises(NotAConflation):
        ComplexConflation(f, g)
    with pytest.raises(NotAConflation):
        ComplexConflation.from_dict({"f": f.to_dict(), "g": g.to_dict()})


def test_serialization_roundtrip():
    d = multiplication(Z4, 2)
    x = Complex(R4, -1, (Z4, Z4), (d,))
    assert Complex.from_dict(x.to_dict()) == x
    cm = identity_chain_map(x)
    assert ChainMap.from_dict(cm.to_dict()) == cm


@pytest.mark.parametrize("degrees", [[7, 99], [5], []])
def test_from_dict_rejects_degrees_that_do_not_number_the_components(degrees):
    d = multiplication(Z4, 2)
    record = Complex(R4, 3, (Z4, Z4), (d,)).to_dict()
    assert record["degrees"] == [3, 4]
    record["degrees"] = degrees
    with pytest.raises(ValueError):
        Complex.from_dict(record)


@pytest.mark.parametrize("key,value", [("degrees", [1.5]), ("degrees", [True]), ("n", 4.0)])
def test_from_dict_rejects_values_that_are_not_ints(key, value):
    record = single_complex(Z4, 1).to_dict()
    assert record["degrees"] == [1]
    record[key] = value
    with pytest.raises(TypeError):
        Complex.from_dict(record)


# ---------------------------------------------------------------------------
# cohomology against an element-scan oracle
# ---------------------------------------------------------------------------


def brute_cohomology_order(x: Complex, n: int) -> int:
    d_out = x.differential(n)
    d_in = x.differential(n - 1)
    zero = d_out.codomain.zero_element()
    ker = {v for v in x.component(n).elements() if d_out.apply(v) == zero}
    im = {d_in.apply(v) for v in x.component(n - 1).elements()}
    return len(ker) // len(im)


def test_frozen_cohomology():
    d = multiplication(Z4, 2)
    x = two_term_complex(d)
    assert cohomology(x, 0).invariant_factors == (2,)
    assert cohomology(x, 1).invariant_factors == (2,)
    assert not is_acyclic(x)
    disk = two_term_complex(Morphism.identity(Z4))
    assert is_acyclic(disk)
    assert cohomology(disk, 0).is_zero and cohomology(disk, 1).is_zero
    sphere = single_complex(Z2)
    assert cohomology(sphere, 0) == Z2


@pytest.mark.parametrize("n", [4, 9])
def test_cohomology_matches_element_scan(n):
    for x in enumerate_complexes(n, 3):
        for deg in range(x.lo - 1, x.hi + 2):
            assert cohomology(x, deg).order == brute_cohomology_order(x, deg)


def test_kernel_objects():
    d = multiplication(Z4, 2)
    x = two_term_complex(d)
    ks = kernel_objects(x)
    assert ks[0].invariant_factors == (2,)
    assert ks[1] == Z4  # top-degree kernel is the whole component


# ---------------------------------------------------------------------------
# duals and signs
# ---------------------------------------------------------------------------


def test_dual_complex_shapes():
    sphere = single_complex(Z2, degree=2)
    ds = dual_complex(sphere)
    assert ds.lo == -2 and ds.component(-2).order == 2
    disk = two_term_complex(Morphism.identity(Z4), degree=0)
    dd = dual_complex(disk)
    assert list(dd.degrees()) == [-1, 0]
    assert is_contractible(dd)


def test_dual_complex_squares_to_identity_window():
    d = multiplication(Z4, 2)
    for base in (-3, -1, 0, 2):
        x = Complex(R4, base, (Z4, Z4, Z4), (d, d))
        dd = dual_complex(dual_complex(x))
        assert list(dd.degrees()) == list(x.degrees())
        iso = double_dual_complex_iso(x)
        assert iso.source == x and iso.target == dd
        assert all(p.is_iso() for p in iso.parts)


def test_dual_entries_stay_integral_at_negative_degrees():
    # regression: a sign computed as (-1) ** n silently becomes a float for
    # negative n and poisons every matrix entry downstream
    d = multiplication(Z4, 2)
    x = Complex(R4, -5, (Z4, Z4, Z4), (d, d))
    dx = dual_complex(x)
    for mor in dx.differentials:
        for row in mor.matrix:
            for a in row:
                assert type(a) is int
    iso = double_dual_complex_iso(x)
    for p in iso.parts:
        for row in p.matrix:
            for a in row:
                assert type(a) is int


def test_dual_complex_preserves_cohomology_orders_reversed():
    d = multiplication(Z4, 2)
    x = Complex(R4, 0, (Z4, Z4), (d,))
    dx = dual_complex(x)
    for n in x.degrees():
        assert cohomology(x, n).order == cohomology(dx, -n).order


def test_dual_chain_map_contravariant():
    d = multiplication(Z4, 2)
    x = two_term_complex(d)
    ident = identity_chain_map(x)
    di = dual_chain_map(ident)
    assert di.source == dual_complex(x) and di.target == dual_complex(x)
    assert all(p.is_iso() for p in di.parts)


# ---------------------------------------------------------------------------
# trusted chain objects: the validating constructors, rerun afterwards
# ---------------------------------------------------------------------------


def revalidated(obj):
    """obj rebuilt through the validating constructors, endpoints included."""
    if isinstance(obj, Complex):
        return Complex(obj.ring, obj.lo, obj.components, obj.differentials)
    if isinstance(obj, ChainMap):
        return ChainMap(revalidated(obj.source), revalidated(obj.target), obj.parts)
    return ComplexConflation(revalidated(obj.f), revalidated(obj.g))


CHAIN_CLASSES = (Complex, ChainMap, ComplexConflation)


def test_every_trusted_chain_object_of_a_suite_run_validates():
    """Every chain object that the dual builders, the dual inflation of
    purity, the disk cover, the family middles and the complex enumeration
    build without validation passes the validating constructors unchanged,
    ``hi`` included."""
    report, built, callers = trusted_builds(
        dict(moduli=(4, 9, 12), max_complex_span=3), ("complexes",), CHAIN_CLASSES
    )
    assert report.exit_code == 0
    # The suites dualize a chain map only as the inflation of a conflation.
    assert callers == {
        "dual_complex",
        "is_pure_complex_conflation",
        "double_dual_complex_iso",
        "flat_disk_cover",
        "_middle",
        "enumerate_complexes",
    }
    kinds = {cls: sum(isinstance(obj, cls) for obj in built) for cls in CHAIN_CLASSES}
    assert min(kinds.values()) > 100, kinds
    for obj in built:
        again = revalidated(obj)
        assert again == obj
        if isinstance(obj, Complex):
            assert again.hi == obj.hi


def assert_complexes_revalidate(family):
    for x in family:
        again = Complex(x.ring, x.lo, x.components, x.differentials)
        assert again == x
        assert again.hi == x.hi


@pytest.mark.parametrize("n", [4, 9, 12])
def test_every_enumerated_complex_validates(n):
    """``enumerate_complexes`` builds its complexes trusted; each passes
    the validating constructor unchanged, ``hi`` included."""
    assert_complexes_revalidate(enumerate_complexes(n, 3))


def test_revalidation_rejects_stacks_whose_composite_is_not_zero(monkeypatch):
    """A stack filter that keeps every stack enumerates complexes whose
    differentials do not compose to zero; the validating constructor
    rejects them."""
    import modcat.enumeration as me

    mutant = source_mutant(me._differential_stacks, "continue", "pass")
    monkeypatch.setattr(me, "_differential_stacks", mutant)
    with pytest.raises(ValueError, match="do not compose to zero"):
        assert_complexes_revalidate(me.enumerate_complexes.__wrapped__(4, 3))


@pytest.mark.parametrize(
    "name, old",
    [
        ("dual_complex", "dual_mor(d).scaled(_sign(n + 1))"),
        ("double_dual_complex_iso", "double_dual_unit(m).scaled(_sign(n))"),
    ],
)
def test_revalidation_rejects_a_dual_without_its_sign(monkeypatch, name, old):
    """Without its sign, a dual builder still builds a complex, but the
    double-dual unit no longer commutes with the differentials.  The
    suite's verdicts do not read that; the revalidation does."""
    import modcat.complexes as mc
    import modcat.suites as ms

    mutant = source_mutant(getattr(mc, name), old, old.split(".scaled")[0])
    monkeypatch.setattr(mc, name, mutant)
    monkeypatch.setattr(ms, name, mutant)
    _, built, callers = trusted_builds(
        dict(moduli=(4, 9), max_complex_span=2), ("complexes",), CHAIN_CLASSES
    )
    assert name in callers
    rejected = 0
    for obj in built:
        try:
            revalidated(obj)
        except ValueError as exc:
            assert "fails to commute" in str(exc), exc
            rejected += 1
    assert rejected > 0


def test_revalidation_rejects_a_disk_cover_without_its_minus(monkeypatch):
    """With +delta instead of -delta in the kernel inclusion, the disk cover
    is still built, but g no longer kills the inclusion wherever 2 delta is
    nonzero.  The revalidation rejects those covers (the run itself stops
    at a crash record)."""
    import modcat.enumeration as me

    old = "-row[j] % n"
    monkeypatch.setattr(me, "flat_disk_cover", source_mutant(flat_disk_cover, old, old[1:]))
    _, built, callers = trusted_builds(
        dict(moduli=(4, 9), max_complex_span=2), ("complexes",), CHAIN_CLASSES
    )
    assert "flat_disk_cover" in callers
    rejected = 0
    for obj in built:
        try:
            revalidated(obj)
        except ValueError:
            rejected += 1
    assert rejected > 0


def test_revalidation_rejects_a_middle_with_its_inclusion_at_the_wrong_degree(monkeypatch):
    """Read at X's degree offset instead of Y's, a family middle's
    inclusion takes the wrong entry's inclusion wherever X's window is
    narrower than Y's.  The revalidation rejects those middles (the run
    itself stops at a crash record)."""
    import modcat.enumeration as me

    old = "combo[n - f.lo].inclusion"
    monkeypatch.setattr(me, "_middle", source_mutant(me._middle, old, "combo[n - x.lo].inclusion"))
    _, built, callers = trusted_builds(
        dict(moduli=(4, 9), max_complex_span=2), ("complexes",), CHAIN_CLASSES
    )
    assert "_middle" in callers
    rejected = 0
    for obj in built:
        try:
            revalidated(obj)
        except ValueError:
            rejected += 1
    assert rejected > 0


def test_revalidation_rejects_a_dual_inflation_on_the_wrong_window(monkeypatch):
    """With its parts read on the window of X+ instead of Y+, the f+ that
    purity builds has the wrong number of parts wherever the two windows
    differ.  The suite's verdicts do not read that; the revalidation
    does."""
    import modcat.complexes as mc
    import modcat.suites as ms

    old = "_dual_parts(c.f, y)"
    mutant = source_mutant(mc.is_pure_complex_conflation, old, "_dual_parts(c.f, dual_complex(c.sub))")
    monkeypatch.setattr(mc, "is_pure_complex_conflation", mutant)
    monkeypatch.setattr(ms, "is_pure_complex_conflation", mutant)
    _, built, callers = trusted_builds(
        dict(moduli=(4, 9), max_complex_span=2), ("complexes",), CHAIN_CLASSES
    )
    assert "is_pure_complex_conflation" in callers
    rejected = 0
    for obj in built:
        try:
            revalidated(obj)
        except ValueError as exc:
            assert "one part per source-window degree" in str(exc), exc
            rejected += 1
    assert rejected > 0


def test_closed_form_cover_on_components_that_are_not_cyclic():
    """On two-term complexes of modules of order <= 16 with |Hom| <= 32,
    the closed-form cover revalidates, and its kernel is the one that
    ``kernel`` takes degree by degree: the same modules, and a comparison
    map through ``factor_through_mono`` that is a chain isomorphism.  The
    coordinates differ wherever a component is not cyclic."""
    covers = differ = 0
    for n in (4, 6, 8, 9, 12):
        mods = [m for m in enumerate_modules(n, 16) if not m.is_zero]
        for a, b in itertools.product(mods, repeat=2):
            if prod(gcd(x, y) for x in a.invariant_factors for y in b.invariant_factors) > 32:
                continue
            for d in enumerate_morphisms(a, b):
                cover = flat_disk_cover(two_term_complex(d))
                assert revalidated(cover) == cover
                routed = complex_conflation_from_chain_epi(cover.g)
                assert (routed.sub.lo, routed.sub.components) == (
                    cover.sub.lo,
                    cover.sub.components,
                )
                parts = tuple(
                    factor_through_mono(cover.f.part(k), routed.f.part(k))
                    for k in cover.sub.degrees()
                )
                assert all(p.is_iso() for p in parts)
                ChainMap(cover.sub, routed.sub, parts)
                covers += 1
                differ += routed != cover
    assert covers == 2_248
    assert differ > 1_000


def test_completing_a_chain_map_that_is_not_epi_raises():
    """Not epi inside the source window, and not epi where only the target
    has a component."""
    not_onto = ChainMap(single_complex(Z4), single_complex(Z4), (multiplication(Z4, 2),))
    past_source = ChainMap(
        single_complex(Z4),
        two_term_complex(Morphism.zero(Z4, Z2)),
        (Morphism.identity(Z4),),
    )
    for g in (not_onto, past_source):
        with pytest.raises(ValueError, match="not epi"):
            complex_conflation_from_chain_epi(g)


def test_hi_is_fixed_on_every_construction_path():
    d = multiplication(Z4, 2)
    z = R4.zero_module()
    x = Complex(R4, -1, (z, Z4, Z4, z), (Morphism.zero(z, Z4), d, Morphism.zero(Z4, z)))
    built = [
        x,
        Complex.from_dict(x.to_dict()),
        zero_complex(R4),
        single_complex(Z2, degree=-3),
        two_term_complex(d, degree=5),
        dual_complex(x),
        Complex._trusted(R4, 2, (Z4, Z4), (d,)),
    ]
    assert (x.lo, x.hi) == (0, 1)
    for y in built:
        assert y.hi == y.lo + len(y.components) - 1
    assert zero_complex(R4).hi == -1
    assert "hi=" not in repr(x)


def test_trusted_duals_equal_their_validated_rebuilds():
    """Equal, with the same hash and the same serialization, for each of
    the two dual builders."""
    objects = []
    for n in (4, 9):
        for x in enumerate_complexes(n, 3):
            objects += [dual_complex(x), double_dual_complex_iso(x)]
    assert len(objects) > 200
    for obj in objects:
        again = revalidated(obj)
        assert again == obj and hash(again) == hash(obj)
        assert again.to_dict() == obj.to_dict()


# ---------------------------------------------------------------------------
# the componentwise-split, non-chain-split witness
# ---------------------------------------------------------------------------


def witness_conflation() -> ComplexConflation:
    """S(Z/2)[1] -> D(Z/2) -> S(Z/2)[0], split in every degree, not split
    as complexes."""
    disk = two_term_complex(Morphism.identity(Z2), degree=0)
    sub = single_complex(Z2, degree=1)
    quot = single_complex(Z2, degree=0)
    f = ChainMap(sub, disk, (Morphism.identity(Z2),))
    g = ChainMap(disk, quot, (Morphism.identity(Z2), Morphism.zero(Z2, R4.zero_module())))
    return ComplexConflation(f, g)


def test_witness_degreewise_split_but_not_chain_split():
    c = witness_conflation()
    from modcat.exact import splits
    from modcat.purity import is_pure

    for n in (0, 1):
        assert splits(c.degreewise(n)) is not None
        assert is_pure(c.degreewise(n))
    assert splits_as_complexes(c) is None
    assert not is_pure_complex_conflation(c)


def test_genuinely_chain_split_conflation():
    x = two_term_complex(multiplication(Z4, 2), degree=0)
    z = single_complex(Z2, degree=1)
    # middle = x (+) z with block-diagonal differential
    ds0 = direct_sum(x.component(0), z.component(0))
    ds1 = direct_sum(x.component(1), z.component(1))
    mid_d = ds1.injections[0] @ x.differential(0) @ ds0.projections[0]
    mid = Complex(R4, 0, (ds0.module, ds1.module), (mid_d,))
    f = ChainMap(x, mid, (ds0.injections[0], ds1.injections[0]))
    g = ChainMap(mid, z, (ds0.projections[1], ds1.projections[1]))
    c = ComplexConflation(f, g)
    section = splits_as_complexes(c)
    assert section is not None
    r = chain_retraction(c, section)
    for n in (0, 1):
        assert (c.g.part(n) @ section.part(n)) == Morphism.identity(z.component(n))
        assert (r.part(n) @ c.f.part(n)) == Morphism.identity(x.component(n))
    assert is_pure_complex_conflation(c)


# ---------------------------------------------------------------------------
# flatness / purity / contractibility of complexes
# ---------------------------------------------------------------------------


def test_pure_acyclicity_frozen_cases():
    disk = two_term_complex(Morphism.identity(Z4))
    assert is_pure_acyclic(disk)
    # exact but not pure: 0 -> Z/2 -> Z/4 -> Z/2 -> 0 read as a complex
    x = Complex(R4, 0, (Z2, Z4, Z2), (Morphism(Z2, Z4, ((2,),)), Morphism(Z4, Z2, ((1,),))))
    assert is_acyclic(x)
    assert not is_pure_acyclic(x)
    t = tensor_with_module(x, Z2)
    assert not is_acyclic(t)
    # not acyclic (H^0 = 2Z/4), but acyclic after tensoring with Z/2: the
    # divisor d = n must be checked too
    proj = two_term_complex(Morphism(Z4, Z2, ((1,),)))
    assert not is_acyclic(proj)
    assert is_acyclic(tensor_with_module(proj, Z2))
    assert not is_pure_acyclic(proj)


def test_flat_complex_frozen_cases():
    assert is_flat_complex(zero_complex(R4))
    assert is_flat_complex(two_term_complex(Morphism.identity(Z4)))
    assert not is_flat_complex(single_complex(Z4))  # not acyclic
    assert not is_flat_complex(two_term_complex(Morphism.identity(Z2)))  # kernels not flat


def test_contractibility():
    assert is_contractible(zero_complex(R4))
    assert is_contractible(two_term_complex(Morphism.identity(Z4)))
    assert not is_contractible(single_complex(Z2))
    d = multiplication(Z4, 2)
    assert not is_contractible(Complex(R4, 0, (Z4, Z4), (d,)))


def test_contractible_iff_acyclic_with_split_kernels():
    # brute cross-check on the enumerated family over n = 4
    from modcat.exact import splits, conflation_from_mono
    from modcat.modules import kernel

    for x in enumerate_complexes(4, 3):
        got = is_contractible(x)
        if x.is_zero:
            assert got
            continue
        if not is_acyclic(x):
            assert not got
            continue
        # acyclic: contractible iff each degreewise kernel inclusion splits
        expected = True
        for n in x.degrees():
            ker_mod, incl = kernel(x.differential(n))
            if ker_mod.order in (1, x.component(n).order):
                continue
            if splits(conflation_from_mono(incl)) is None:
                expected = False
                break
        assert got == expected, x


def test_injective_complex():
    assert is_injective_complex(two_term_complex(Morphism.identity(Z4)))
    assert not is_injective_complex(two_term_complex(Morphism.identity(Z2)))
    assert not is_injective_complex(single_complex(Z4))
    # secondary route: Hom(-, x) is exact on a small family of complex conflations
    x = two_term_complex(Morphism.identity(Z4))
    for cc in enumerate_complex_conflations_bounded(R4, 4):
        assert hom_exactness_oracle(cc, x)


def test_purity_dualizes_the_inflation_alone(monkeypatch):
    """``is_pure_complex_conflation`` dualizes the middle and the sub of a
    conflation, once each and never its quotient, and hands
    ``_chain_section`` their dual f+, which equals the deflation of the
    dual conflation that the validating constructors build: on the witness
    and on every capped family at n = 4, span 3."""
    import modcat.complexes as mc

    dualized, sections = [], []

    def recording(real, seen):
        def call(x):
            seen.append(x)
            return real(x)

        return call

    monkeypatch.setattr(mc, "dual_complex", recording(dual_complex, dualized))
    monkeypatch.setattr(mc, "_chain_section", recording(mc._chain_section, sections))
    family = [witness_conflation()] + [
        cc for x in enumerate_complexes(4, 3) for cc in enumerate_complex_conflations_ending_in(x, 4, 3)
    ]
    assert dual_complex_conflation(family[0]).sub.component(0).order == 2
    for cc in family:
        dualized.clear()
        sections.clear()
        pure = is_pure_complex_conflation(cc)
        assert [id(x) for x in dualized] == [id(cc.total), id(cc.sub)]
        dc = dual_complex_conflation(cc)
        assert sections == [dc.g]
        assert pure == (splits_as_complexes(dc) is not None)
    assert len(family) > 100


# ---------------------------------------------------------------------------
# the composite-morphism identity checks, kept as the oracle for the
# residue-row checks in Complex and ChainMap
# ---------------------------------------------------------------------------


def composite_route_dd_zero(diffs) -> bool:
    """d^(i+1) . d^i is the zero morphism, composed through Morphism."""
    return all((diffs[i + 1] @ diffs[i]).is_zero_morphism for i in range(len(diffs) - 1))


def composite_route_commutes(source: Complex, target: Complex, parts) -> bool:
    """d_T . f^n == f^(n+1) . d_S, with synthesized zero maps outside the window."""

    def part(n):
        if source.components and source.lo <= n <= source.hi:
            return parts[n - source.lo]
        return Morphism.zero(source.component(n), target.component(n))

    lo = min(source.lo if source.components else 0, target.lo if target.components else 0)
    hi = max(source.hi if source.components else 0, target.hi if target.components else 0)
    return all(
        (target.differential(n) @ part(n)).matrix == (part(n + 1) @ source.differential(n)).matrix
        for n in range(lo - 1, hi + 1)
    )


def single_entry_mutations(f: Morphism):
    """Every f with one entry moved to another well-defined value."""
    dom, cod = f.domain.invariant_factors, f.codomain.invariant_factors
    for j, row in enumerate(f.matrix):
        for i, a in enumerate(row):
            step = cod[j] // gcd(dom[i], cod[j])
            if step < cod[j]:
                rows = [list(r) for r in f.matrix]
                rows[j][i] = a + step
                yield Morphism(f.domain, f.codomain, tuple(map(tuple, rows)))


def accepts(build) -> bool:
    try:
        build()
    except ValueError as exc:
        assert "compose to zero" in str(exc) or "fails to commute" in str(exc), exc
        return False
    return True


def test_residue_row_checks_match_the_composite_route():
    """Same verdict on every enumerated complex and conflation chain map, and
    on every single-entry mutation of their differentials and parts."""
    verdicts = {"complex": [0, 0], "chain map": [0, 0]}  # [rejected, accepted]

    def compare(kind, build, expected):
        assert accepts(build) == expected
        verdicts[kind][expected] += 1

    for n in (4, 9):
        for x in enumerate_complexes(n, 3):
            comps, diffs = x.components, x.differentials
            assert composite_route_dd_zero(diffs)
            compare("complex", lambda: Complex(x.ring, x.lo, comps, diffs), composite_route_dd_zero(diffs))
            for i, d in enumerate(diffs):
                for bad in single_entry_mutations(d):
                    mutated = diffs[:i] + (bad,) + diffs[i + 1 :]
                    compare(
                        "complex",
                        lambda: Complex(x.ring, x.lo, comps, mutated),
                        composite_route_dd_zero(mutated),
                    )
            for cc in enumerate_complex_conflations_ending_in(x, 4, 6):
                for phi in (cc.f, cc.g):
                    src, tgt, parts = phi.source, phi.target, phi.parts
                    assert composite_route_commutes(src, tgt, parts)
                    compare(
                        "chain map",
                        lambda: ChainMap(src, tgt, parts),
                        composite_route_commutes(src, tgt, parts),
                    )
                    for i, p in enumerate(parts):
                        for bad in single_entry_mutations(p):
                            mutated = parts[:i] + (bad,) + parts[i + 1 :]
                            compare(
                                "chain map",
                                lambda: ChainMap(src, tgt, mutated),
                                composite_route_commutes(src, tgt, mutated),
                            )
    # The parts of cc.f are kernel inclusions, so the chain-map split follows
    # the basis `kernel` picks for them; the total, 8,940, does not.
    assert verdicts == {"complex": [88, 330], "chain map": [3063, 5877]}


def test_chain_map_commutes_where_the_source_is_out_of_window():
    # degree 0: d_T . id = id, while f^1 . d_S = 0 (no part in degree 1,
    # no source differential): only the zero side outside the window sees it
    parts = (Morphism.identity(Z4),)
    src, tgt = single_complex(Z4, 0), two_term_complex(Morphism.identity(Z4), 0)
    assert not composite_route_commutes(src, tgt, parts)
    with pytest.raises(ValueError, match="fails to commute with differentials at degree 0"):
        ChainMap(src, tgt, parts)


# ---------------------------------------------------------------------------
# the hom-module block systems, kept as the oracle for the morphism-unknown
# solver behind splits_as_complexes and is_contractible
# ---------------------------------------------------------------------------


def element_solve_blocks(blocks: dict, rows, cols, targets) -> tuple | None:
    """sum_j blocks[i, j](x_j) == targets[i] over elements x_j of cols[j]."""
    row_off, col_off = [0], [0]
    for m in rows:
        row_off.append(row_off[-1] + m.rank())
    for m in cols:
        col_off.append(col_off[-1] + m.rank())
    a = [[0] * col_off[-1] for _ in range(row_off[-1])]
    for (i, j), mor in blocks.items():
        assert mor.domain == cols[j] and mor.codomain == rows[i]
        c0 = col_off[j]
        for r, row in enumerate(mor.matrix, row_off[i]):
            a[r][c0 : c0 + len(row)] = row
    e = tuple(d for m in rows for d in m.invariant_factors)
    xs = _solve_mod(a, e, [[v for t in targets for v in t]], col_off[-1])
    if xs is None:
        return None
    x = xs[0]
    return tuple(m.reduce(x[col_off[j] : col_off[j + 1]]) for j, m in enumerate(cols))


def hom_route_chain_splits(c: ComplexConflation) -> bool:
    """g^n s^n = id and d_Y s^n = s^(n+1) d_Z, with s^n in Hom(Z^n, Y^n)."""
    z, y = c.quotient, c.total
    if z.is_zero:
        return True
    window = list(z.degrees())
    k = len(window)
    s_homs = [hom_module(z.component(n), y.component(n)) for n in window]
    id_homs = [hom_module(z.component(n), z.component(n)) for n in window]
    comm_rows = [hom_module(z.component(n), y.component(n + 1)).module for n in window]
    blocks = {}
    for i, n in enumerate(window):
        blocks[i, i] = postcompose_map(c.g.part(n), z.component(n))
        blocks[k + i, i] = postcompose_map(y.differential(n), z.component(n))
        if i + 1 < k:
            blocks[k + i, i + 1] = -precompose_map(z.differential(n), y.component(n + 1))
    targets = [h.of_morphism(Morphism.identity(h.source)) for h in id_homs]
    targets += [m.zero_element() for m in comm_rows]
    rows = [h.module for h in id_homs] + comm_rows
    return element_solve_blocks(blocks, rows, [h.module for h in s_homs], targets) is not None


def hom_route_contractible(x: Complex) -> bool:
    """d h^n + h^(n+1) d = id, with h^n in Hom(X^n, X^(n-1))."""
    if x.is_zero:
        return True
    window = list(x.degrees())
    h_cols = [hom_module(x.component(n), x.component(n - 1)).module for n in window]
    t_homs = [hom_module(x.component(n), x.component(n)) for n in window]
    blocks = {}
    for i, n in enumerate(window):
        blocks[i, i] = postcompose_map(x.differential(n - 1), x.component(n))
        if i + 1 < len(window):
            blocks[i, i + 1] = precompose_map(x.differential(n), x.component(n))
    targets = [h.of_morphism(Morphism.identity(h.source)) for h in t_homs]
    return element_solve_blocks(blocks, [h.module for h in t_homs], h_cols, targets) is not None


def test_morphism_unknowns_match_the_hom_module_route():
    verdicts = contractible = conflations = chain_split = 0
    for n, span in ((4, 3), (9, 3), (12, 2)):
        for f in enumerate_complexes(n, span):
            for x in (f, dual_complex(f)):
                got = is_contractible(x)
                assert got == hom_route_contractible(x), x
                verdicts += 1
                contractible += got
            for cc in enumerate_complex_conflations_ending_in(f, 4, 6):
                dual = dual_complex_conflation(cc)
                for c in (cc, dual):
                    section = splits_as_complexes(c)
                    assert (section is not None) == hom_route_chain_splits(c), c
                    if c is dual:
                        assert is_pure_complex_conflation(cc) == (section is not None), cc
                    conflations += 1
                    if section is not None:
                        chain_split += 1
                        for d in c.quotient.degrees():
                            assert c.g.part(d) @ section.part(d) == Morphism.identity(
                                c.quotient.component(d)
                            )
                        r = chain_retraction(c, section)
                        for d in c.sub.degrees():
                            assert r.part(d) @ c.f.part(d) == Morphism.identity(
                                c.sub.component(d)
                            )
    assert (verdicts, contractible) == (486, 50)
    assert (conflations, chain_split) == (3358, 1998)


# ---------------------------------------------------------------------------
# chain hom groups
# ---------------------------------------------------------------------------


def _hom_sum(pairs):
    """Direct sum of hom modules with their per-degree bookkeeping."""
    homs = [hom_module(a, b) for a, b in pairs]
    ds = direct_sum_many(tuple(h.module for h in homs))
    return homs, ds


def _chain_hom_with_embedding(w: Complex, target: Complex):
    """Chain maps w -> target as a kernel submodule of the degreewise hom sum."""
    if w.is_zero:
        zero = w.ring.zero_module()
        return zero, None, None, []
    window = list(w.degrees())
    a_homs, a_ds = _hom_sum([(w.component(n), target.component(n)) for n in window])
    _, c_ds = _hom_sum([(w.component(n), target.component(n + 1)) for n in window])
    op = None
    for i, n in enumerate(window):
        post = postcompose_map(target.differential(n), w.component(n))
        term = c_ds.injections[i] @ post @ a_ds.projections[i]
        op = term if op is None else op + term
        if i + 1 < len(window):
            pre = precompose_map(w.differential(n), target.component(n + 1))
            op = op - c_ds.injections[i] @ pre @ a_ds.projections[i + 1]
    k, incl = kernel(op)
    return k, incl, a_ds, a_homs


def chain_hom_module(w: Complex, target: Complex):
    """The group of chain maps w -> target as (module, decode callable)."""
    k, incl, a_ds, a_homs = _chain_hom_with_embedding(w, target)
    if incl is None:
        return k, lambda z: ChainMap(w, target, ())

    def decode(zcoord):
        amb = incl.apply(zcoord)
        parts = tuple(
            h.to_morphism(a_ds.projections[i].apply(amb)) for i, h in enumerate(a_homs)
        )
        return ChainMap(w, target, parts)

    return k, decode


def _induced_precompose(phi: ChainMap, target: Complex, from_data, to_data) -> Morphism:
    """Hom(phi.target, target) -> Hom(phi.source, target) on chain-hom groups."""
    k_from, incl_from, ds_from, homs_from = from_data
    k_to, incl_to, ds_to, homs_to = to_data
    if k_from.is_zero or incl_from is None:
        return Morphism.zero(k_from, k_to)
    if k_to.is_zero or incl_to is None:
        return Morphism.zero(k_from, k_to)
    amb = None
    for i, n in enumerate(phi.source.degrees()):
        pre = precompose_map(phi.part(n), target.component(n))
        if n in phi.target.degrees():
            j = n - phi.target.lo
            term = ds_to.injections[i] @ pre @ ds_from.projections[j]
            amb = term if amb is None else amb + term
    if amb is None:
        return Morphism.zero(k_from, k_to)
    return factor_through_mono(amb @ incl_from, incl_to)


def hom_exactness_oracle(c: ComplexConflation, target: Complex) -> bool:
    """Does Hom(-, target) send the complex conflation to a short exact
    sequence of (finite abelian) groups?"""
    z_data = _chain_hom_with_embedding(c.quotient, target)
    y_data = _chain_hom_with_embedding(c.total, target)
    x_data = _chain_hom_with_embedding(c.sub, target)
    u = _induced_precompose(c.g, target, z_data, y_data)
    v = _induced_precompose(c.f, target, y_data, x_data)
    if not u.is_mono() or not v.is_epi() or not (v @ u).is_zero_morphism:
        return False
    return y_data[0].order == z_data[0].order * x_data[0].order


def enumerate_complex_conflations_bounded(ring: RingSpec, bound: int):
    """A small, deterministic family of complex conflations with middle
    order <= bound: trivial ends plus prime spheres inside every
    enumerated two-term middle."""
    out = []
    for y in enumerate_complexes(ring.modulus, 2):
        total = 1
        for c in y.components:
            total *= c.order
        if y.is_zero or total > bound:
            continue
        ident = identity_chain_map(y)
        zero = zero_complex(ring)
        to_zero = ChainMap(y, zero, tuple(Morphism.zero(c, ring.zero_module()) for c in y.components))
        out.append(ComplexConflation(ChainMap(zero, y, ()), ident))
        out.append(ComplexConflation(ident, to_zero))
        for nd in y.degrees():
            for entry in (
                e for p in (2, 3, 5, 7, 11) for e in cyclic_subgroup_catalog(y.component(nd), p)
            ):
                if not (y.differential(nd) @ entry.inclusion).is_zero_morphism:
                    continue
                fmap = ChainMap(single_complex(entry.sub, nd), y, (entry.inclusion,))
                z_projs = {
                    m: entry.projection if m == nd else Morphism.identity(y.component(m))
                    for m in y.degrees()
                }
                z_diffs = tuple(
                    factor_through_epi(z_projs[m + 1] @ y.differential(m), z_projs[m])
                    for m in list(y.degrees())[:-1]
                )
                z_comps = tuple(z_projs[m].codomain for m in y.degrees())
                z = Complex(ring, y.lo, z_comps, z_diffs)
                gmap = ChainMap(y, z, tuple(z_projs[m] for m in y.degrees()))
                out.append(ComplexConflation(fmap, gmap))
    return out


def test_enumerate_complex_conflations_bounded():
    items = list(enumerate_complex_conflations_bounded(R4, 4))
    assert items
    for cc in items:
        total = 1
        for m in cc.total.components:
            total *= m.order
        assert total <= 4


def brute_chain_map_count(w: Complex, target: Complex) -> int:
    if w.is_zero:
        return 1
    window = list(w.degrees())
    pools = [list(enumerate_morphisms(w.component(n), target.component(n))) for n in window]
    count = 0
    for combo in itertools.product(*pools):
        try:
            ChainMap(w, target, tuple(combo))
        except ValueError:
            continue
        count += 1
    return count


def test_chain_hom_module_counts():
    d = multiplication(Z4, 2)
    x = two_term_complex(d)
    disk = two_term_complex(Morphism.identity(Z4))
    for w, t in [(x, disk), (disk, x), (x, x), (single_complex(Z2), x)]:
        mod, decode = chain_hom_module(w, t)
        assert mod.order == brute_chain_map_count(w, t)
        seen = set()
        for z in mod.elements():
            cm = decode(z)
            assert cm.source == w and cm.target == t
            seen.add(tuple(p.matrix for p in cm.parts))
        assert len(seen) == mod.order


def test_hom_exactness_oracle_flags_the_witness():
    c = witness_conflation()
    # mapping into the sub complex: a preimage of its identity under
    # Hom(f, -) would be a retraction, and the witness has none.  Indeed
    # Hom(D, S^1) = 0 while id lives in Hom(S^1, S^1)
    sub = single_complex(Z2, degree=1)
    assert not hom_exactness_oracle(c, sub)
    # mapping into the middle disk happens to be exact (both chain maps
    # S^1 -> D extend), so the oracle must NOT flag that target
    disk = two_term_complex(Morphism.identity(Z2), degree=0)
    assert hom_exactness_oracle(c, disk)
    # mapping into an injective contractible complex is always exact
    inj = two_term_complex(Morphism.identity(Z4), degree=0)
    assert hom_exactness_oracle(c, inj)


def test_flat_disk_cover_is_a_complex_conflation():
    d = multiplication(Z4, 2)
    x = two_term_complex(d)
    cover = flat_disk_cover(x)
    assert cover.quotient == x
    assert is_flat_complex(cover.total)
    for n in cover.total.degrees():
        assert is_flat(cover.total.component(n))


def test_chain_validation_composes_no_morphism_and_kernels_are_cached(monkeypatch):
    """Complex and ChainMap check their identities on residue rows, the
    disk cover is written in closed form (no composite, no ``kernel`` call),
    and the cached kernels of its differentials and parts are the uncached
    ones."""
    import modcat.modules as mm

    family = enumerate_complexes(4, 3)
    depth = [0]  # > 0 while a Complex or ChainMap validates itself
    calls = {"validation": 0, "construction": 0}
    real_matmul = Morphism.__matmul__

    def counting_matmul(self, other):
        calls["validation" if depth[0] else "construction"] += 1
        return real_matmul(self, other)

    def nested(post_init):
        def wrapper(self):
            depth[0] += 1
            try:
                post_init(self)
            finally:
                depth[0] -= 1

        return wrapper

    monkeypatch.setattr(Morphism, "__matmul__", counting_matmul)
    monkeypatch.setattr(Complex, "__post_init__", nested(Complex.__post_init__))
    monkeypatch.setattr(ChainMap, "__post_init__", nested(ChainMap.__post_init__))
    mm.kernel.cache_clear()
    covers = [flat_disk_cover(x) for x in family]
    info = mm.kernel.cache_info()
    monkeypatch.undo()
    assert calls == {"validation": 0, "construction": 0}
    assert info.maxsize is not None and 0 < info.maxsize <= 64
    assert info.hits == info.misses == 0
    for x, cover in zip(family, covers):
        for n in range(x.lo - 1, x.hi + 2):
            d = x.differential(n)
            assert mm.kernel(d) == mm.kernel.__wrapped__(d)
        for n in cover.total.degrees():
            g = cover.g.part(n)
            assert mm.kernel(g) == mm.kernel.__wrapped__(g)
    mm.kernel.cache_clear()

