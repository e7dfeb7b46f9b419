"""Finite modules, presentations, morphisms, kernels/cokernels, biproducts.

Independent oracles used throughout:
  * brute coset enumeration of a presented module (set arithmetic only),
  * additive closure of generator sets for subgroups,
  * elementwise scans for kernel / image / mono / epi facts.
None of these touch the Smith-normal-form path under test.  The lattice
route of ``helpers.lattice_subgroup`` is a second Smith-form route to
subgroups and kernels: it diagonalizes the subgroup lattice itself, where
the package takes the kernel of the projection onto a cokernel.
"""

import hashlib
import importlib
import itertools
import json
import random
import sys
from collections import Counter
from math import gcd, prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modcat.suites
from modcat.modules import (
    DirectSum,
    FiniteModule,
    Morphism,
    Presentation,
    RingSpec,
    _solve_mod,
    canonicalize,
    cokernel,
    cokernel_order,
    cyclic,
    direct_sum,
    direct_sum_many,
    factor_through_epi,
    factor_through_mono,
    image,
    kernel,
    kernel_order,
    solution_set,
    solve,
    subgroup_from_lattice,
)
from modcat.enumeration import (
    SubgroupEntry,
    enumerate_modules,
    enumerate_morphisms,
    subgroup_catalog,
)
from modcat.complexes import (
    ChainMap,
    Complex,
    ComplexConflation,
    single_complex,
    splits_as_complexes,
    two_term_complex,
)
from modcat.exact import Conflation, pullback, splits
from modcat.suites import SUITE_ORDER, SuiteConfig, run_suite

from helpers import (
    clear_package_caches,
    element_order,
    kernel_lattice_gens,
    lattice_subgroup,
    multiplication,
    sample_morphisms,
    smith_solve_mod,
    source_mutant,
    trusted_builds,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def closure(ambient: FiniteModule, gens) -> frozenset:
    """Additive closure of ``gens`` in ``ambient`` (pure set arithmetic)."""
    zero = ambient.zero_element()
    seen = {zero}
    frontier = [zero]
    gens = [ambient.reduce(g) for g in gens]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = ambient.add(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def brute_presented_profile(pres: Presentation) -> Counter:
    """Element-order profile of Z_n^g / <relations>, by coset enumeration.

    For finite abelian groups the multiset of element orders pins down the
    isomorphism type, so matching profiles is a complete check here.
    """
    ring = pres.ring
    n = ring.modulus
    free = FiniteModule(ring, (n,) * pres.generators) if pres.generators else ring.zero_module()
    rel = closure(free, list(pres.relations))
    reps = {}
    for x in free.elements():
        key = min(free.add(x, r) for r in rel)
        reps.setdefault(key, x)
    profile = Counter()
    for rep in reps:
        k = 1
        acc = rep
        while min(free.add(acc, r) for r in rel) != min(rel):
            acc = free.add(acc, rep)
            k += 1
        profile[k] += 1
    return profile


def module_profile(m: FiniteModule) -> Counter:
    return Counter(element_order(m, x) for x in m.elements())


# ---------------------------------------------------------------------------
# modules and presentations
# ---------------------------------------------------------------------------


def test_ring_and_module_basics():
    r = RingSpec(12)
    assert r.divisors() == (1, 2, 3, 4, 6, 12)
    assert r.unit_module().invariant_factors == (12,)
    assert r.zero_module().order == 1 and r.zero_module().is_zero
    assert r.zero_module().generators() == ()
    m = FiniteModule(r, (2, 6))
    assert m.order == 12 and m.rank() == 2
    assert m.generators() == ((1, 0), (0, 1))
    assert m.reduce((5, 7)) == (1, 1)
    assert len(list(m.elements())) == 12
    assert element_order(m, (1, 0)) == 2
    assert element_order(m, (0, 1)) == 6
    assert element_order(m, (1, 3)) == 2
    with pytest.raises(ValueError):
        FiniteModule(r, (6, 2))  # chain out of order
    with pytest.raises(ValueError):
        FiniteModule(r, (5,))  # 5 does not divide 12


def test_each_ring_has_one_zero_module():
    """Every degree outside a complex's window reads one zero module per
    ring; it is no dataclass field, so ==, hash, repr and to_dict of the
    ring are those of a ring that never built it."""
    r = RingSpec(4)
    assert r.zero_module() is r.zero_module()
    assert cyclic(r, 1) is r.zero_module()
    fresh = RingSpec(4)
    assert r == fresh and hash(r) == hash(fresh)
    assert repr(r) == repr(fresh) and r.to_dict() == fresh.to_dict()
    assert r.zero_module() == fresh.zero_module()


def test_ring_and_module_reject_non_int_input():
    r = RingSpec(8)
    m = FiniteModule(r, [2, 4])
    assert m == FiniteModule(r, (2, 4)) and m.invariant_factors == (2, 4)
    assert hash(m) == hash(FiniteModule(r, (2, 4)))
    for factors in ((2.0, 4), (True, 4), (2, "4")):
        with pytest.raises(TypeError):
            FiniteModule(r, factors)
    for modulus in (4.0, True, "4"):
        with pytest.raises(TypeError):
            RingSpec(modulus)
    for factor in (0.5, "2"):
        with pytest.raises(TypeError):
            m.scale(factor, (1, 1))
    with pytest.raises(ValueError):
        Presentation(r, -1, ())
    for generators, relations in ((2.0, ()), ("2", ()), (2, ((1, 0.5),)), (2, ((1, "0"),))):
        with pytest.raises(TypeError):
            Presentation(r, generators, relations)


def test_canonicalize_frozen_example():
    # Z/12 presentation <x, y | 6x, 4y>: the 2-parts (2, 4) and 3-part (3)
    # interleave to the chain (2, 12)
    r = RingSpec(12)
    pres = Presentation(r, 2, ((6, 0), (0, 4)))
    can = canonicalize(pres)
    assert can.module.invariant_factors == (2, 12)
    assert brute_presented_profile(pres) == module_profile(can.module)


@pytest.mark.parametrize(
    "n,relations,gens",
    [
        (4, ((2, 0), (0, 2)), 2),
        (8, ((4, 2),), 2),
        (9, ((3, 3), (0, 3)), 2),
        (6, ((2, 0, 3),), 3),
        (12, ((6, 4),), 2),
        (4, (), 2),
    ],
)
def test_canonicalize_against_coset_oracle(n, relations, gens):
    pres = Presentation(RingSpec(n), gens, relations)
    can = canonicalize(pres)
    assert brute_presented_profile(pres) == module_profile(can.module)
    # generator images must present the same subgroup they claim to generate
    full = closure(can.module, list(can.generator_images))
    assert len(full) == can.module.order


def test_canonicalize_generator_lifts_hit_canonical_generators():
    r = RingSpec(8)
    pres = Presentation(r, 3, ((4, 2, 0), (0, 2, 2)))
    can = canonicalize(pres)
    m = can.module
    for t in range(m.rank()):
        lift = can.generator_lifts[t]
        combo = m.zero_element()
        for u in range(pres.generators):
            combo = m.add(combo, m.scale(lift[u], can.generator_images[u]))
        expect = tuple(1 if i == t else 0 for i in range(m.rank()))
        assert combo == expect


@pytest.mark.parametrize(
    "n,relations,gens",
    [(8, ((4, 2, 0), (0, 2, 2)), 3), (12, ((6, 4),), 2), (9, ((3, 3), (0, 3)), 2), (4, (), 2)],
)
def test_combine_and_coordinates_change_coordinates_both_ways(n, relations, gens):
    can = canonicalize(Presentation(RingSpec(n), gens, relations))
    m = can.module
    for i in range(gens):
        unit = [1 if u == i else 0 for u in range(gens)]
        assert can.combine(unit) == can.generator_images[i]
        # integer multiples of a generator: combine reduces, not the caller
        assert can.combine([n * 7 + 3 * x for x in unit]) == m.scale(3, can.generator_images[i])
    for t in range(m.rank()):
        unit = tuple(1 if s == t else 0 for s in range(m.rank()))
        assert can.coordinates(unit) == list(can.generator_lifts[t])
    for z in m.elements():
        assert can.combine(can.coordinates(z)) == z
    with pytest.raises(ValueError):
        can.combine([0] * (gens + 1))
    with pytest.raises(TypeError):
        can.combine([0.5] + [1] * (gens - 1))
    with pytest.raises(ValueError):
        can.coordinates((0,) * (m.rank() + 1))


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,ambient,gens",
    [
        (4, (2, 4), [[1, 2]]),
        (4, (2, 4), [[0, 2], [1, 0]]),
        (8, (8,), [[6]]),
        (9, (3, 9), [[1, 3], [0, 3]]),
        (12, (2, 12), [[1, 6], [0, 4]]),
    ],
)
def test_subgroup_matches_additive_closure(n, ambient, gens):
    y = FiniteModule(RingSpec(n), tuple(ambient))
    want = closure(y, gens)
    # the package's route and the lattice oracle
    for sub, incl in (subgroup_from_lattice(y, gens), lattice_subgroup(y, gens)):
        got = {incl.apply(e) for e in sub.elements()}
        assert incl.is_mono()
        assert got == want
        assert sub.order == len(want)


def test_subgroup_of_zero_gens_is_zero():
    y = FiniteModule(RingSpec(4), (2, 4))
    for gens in ([[0, 0]], []):
        sub, incl = subgroup_from_lattice(y, gens)
        assert sub.is_zero
        assert incl.is_mono()


@pytest.mark.parametrize(
    "gens,error",
    [
        ([[1, 2, 3]], ValueError),  # longer than the rank: must not be truncated
        ([[1]], ValueError),
        ([[0, 2], []], ValueError),
        ([[1.0, 2]], TypeError),
        ([[1, 2.5]], TypeError),
        ([[1, "2"]], TypeError),
    ],
)
def test_subgroup_rejects_malformed_generators(gens, error):
    y = FiniteModule(RingSpec(12), (2, 12))
    with pytest.raises(error, match="generator"):
        subgroup_from_lattice(y, gens)


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


def test_morphism_validation():
    r = RingSpec(4)
    a, b = cyclic(r, 2), cyclic(r, 4)
    # Z/2 -> Z/4 sending 1 to 1 is not additive: 2*1 = 0 must map to 0
    with pytest.raises(ValueError):
        Morphism(a, b, ((1,),))
    Morphism(a, b, ((2,),))  # fine
    with pytest.raises(TypeError):
        Morphism(a, b, ((2.0,),))
    with pytest.raises(TypeError):
        Morphism(b, b, ((True,),))
    with pytest.raises(ValueError):
        Morphism(a, cyclic(RingSpec(8), 2), ((0,),))
    # scaled builds its result without the constructor, so it checks c itself
    with pytest.raises(TypeError):
        Morphism(b, b, ((1,),)).scaled(1.5)


@pytest.mark.parametrize(
    "x,error,message",
    [
        ((1,), ValueError, "domain rank 2"),
        ((1, 0, 0), ValueError, "domain rank 2"),
        ((), ValueError, "domain rank 2"),
        ((1.5, 2), TypeError, "not an int"),
    ],
    ids=["x0", "x1", "x2", "float"],
)
def test_apply_rejects_an_element_of_the_wrong_length(x, error, message):
    f = Morphism.identity(FiniteModule(RingSpec(12), (2, 12)))
    with pytest.raises(error, match=message):
        f.apply(x)
    assert f.apply((1, 5)) == (1, 5)


Z2_Z12 = FiniteModule(RingSpec(12), (2, 12))


@pytest.mark.parametrize(
    "x,error,message",
    [
        ((1, 6, 5), ValueError, "rank 2"),
        ((1,), ValueError, "rank 2"),
        ((), ValueError, "rank 2"),
        ((1.5, 2), TypeError, "not an int"),
        ((0.5, 0), TypeError, "not an int"),
    ],
    ids=["x0", "x1", "x2", "float", "half"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda x: Z2_Z12.reduce(x),
        lambda x: Z2_Z12.add(x, (1, 1)),
        lambda x: Z2_Z12.add((1, 1), x),
        lambda x: Z2_Z12.scale(5, x),
        lambda x: Morphism.from_columns(cyclic(RingSpec(12), 12), Z2_Z12, [x]),
    ],
    ids=["reduce", "add-left", "add-right", "scale", "from_columns"],
)
def test_elements_and_columns_of_the_wrong_length_are_rejected(call, x, error, message):
    with pytest.raises(error, match=message):
        call(x)
    assert call((1, 6)) is not None


def test_morphism_matrix_is_reduced_mod_codomain():
    r = RingSpec(8)
    f = Morphism(cyclic(r, 4), cyclic(r, 4), ((6,),))
    assert f.matrix == ((2,),)
    assert f == multiplication(cyclic(r, 4), 2)


def test_mono_epi_iso_against_element_scan():
    r = RingSpec(12)
    pool = enumerate_modules(12, 12)
    for dom in pool:
        for cod in pool:
            for f in sample_morphisms(dom, cod, 6, seed=5):
                images = [f.apply(x) for x in dom.elements()]
                assert f.is_mono() == (len(set(images)) == dom.order)
                assert f.is_epi() == (len(set(images)) == cod.order)
                assert f.is_iso() == (f.is_mono() and f.is_epi())


def test_apply_is_additive():
    r = RingSpec(9)
    dom = FiniteModule(r, (3, 9))
    cod = FiniteModule(r, (9,))
    for f in sample_morphisms(dom, cod, 4, seed=11):
        for x in dom.elements():
            for y in dom.elements():
                assert f.apply(dom.add(x, y)) == cod.reduce(
                    tuple(a + b for a, b in zip(f.apply(x), f.apply(y)))
                )


rings = st.sampled_from([2, 4, 6, 9, 12])


@given(rings, st.integers(0, 2**32), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_composition_associative_and_unital(n, s1, s2):
    pool = enumerate_modules(n, 9)
    rng_pairs = [(pool[s1 % len(pool)], pool[(s1 // 7) % len(pool)], pool[(s1 // 49) % len(pool)], pool[s2 % len(pool)])]
    for a, b, c, d in rng_pairs:
        f = next(iter(sample_morphisms(a, b, 1, seed=s2)))
        g = next(iter(sample_morphisms(b, c, 1, seed=s2 + 1)))
        h = next(iter(sample_morphisms(c, d, 1, seed=s2 + 2)))
        assert ((h @ g) @ f) == (h @ (g @ f))
        assert (f @ Morphism.identity(a)) == f
        assert (Morphism.identity(b) @ f) == f
        for x in a.elements():
            assert (g @ f).apply(x) == g.apply(f.apply(x))


def test_morphism_additive_group_ops():
    r = RingSpec(8)
    m = FiniteModule(r, (2, 8))
    fs = list(sample_morphisms(m, m, 5, seed=3))
    z = Morphism.zero(m, m)
    for f in fs:
        assert f + z == f
        assert f - f == z
        assert -(-f) == f
        assert f.scaled(3) == f + f + f
        for g in fs:
            assert f + g == g + f
            for x in m.elements():
                assert (f + g).apply(x) == m.add(f.apply(x), g.apply(x))


def test_serialization_roundtrip():
    r = RingSpec(12)
    m = FiniteModule(r, (2, 6))
    assert FiniteModule.from_dict(m.to_dict()) == m
    f = multiplication(m, 5)
    assert Morphism.from_dict(f.to_dict()) == f
    assert RingSpec.from_dict(r.to_dict()) == r


def _identity_on_z8_with_entry(entry):
    record = Morphism.identity(FiniteModule(RingSpec(8), (8,))).to_dict()
    record["matrix"][0][0] = entry
    return record


@pytest.mark.parametrize(
    "cls,record",
    [
        (RingSpec, {"n": 8.9}),
        (RingSpec, {"n": "8"}),
        (RingSpec, {"n": True}),
        (FiniteModule, {"n": 8.9, "factors": [2.9, "4"]}),
        (FiniteModule, {"n": 8, "factors": [2.9, 4]}),
        (FiniteModule, {"n": 8, "factors": [2, "4"]}),
        (FiniteModule, {"n": 8, "factors": [True]}),
        (Morphism, _identity_on_z8_with_entry(1.7)),
        (Morphism, _identity_on_z8_with_entry("1")),
        (Morphism, _identity_on_z8_with_entry(True)),
    ],
)
def test_from_dict_rejects_values_that_are_not_ints(cls, record):
    """A corrupted record is rejected, never truncated to a nearby int."""
    with pytest.raises(TypeError):
        cls.from_dict(record)


def _partners(morphisms, count=3):
    """At most ``count`` members of a list, first and last included."""
    if len(morphisms) <= count:
        return list(morphisms)
    step = (len(morphisms) - 1) / (count - 1)
    return [morphisms[round(i * step)] for i in range(count)]


def _entrywise(op, *morphisms):
    """Unreduced integer rows combining the matrices entry by entry."""
    return tuple(
        tuple(op(*entries) for entries in zip(*rows))
        for rows in zip(*(m.matrix for m in morphisms))
    )


def test_trusted_arithmetic_matches_the_validating_constructor():
    """Composites, sums, negatives, multiples, identities and zero maps
    skip validation; each equals the validating constructor's morphism
    built from unreduced integer rows, so its rows are reduced and well
    defined."""
    composites = 0
    for n in (4, 8, 9, 12):
        mods = enumerate_modules(n, 8)
        homs = {(a, b): list(enumerate_morphisms(a, b)) for a in mods for b in mods}
        for a in mods:
            k = a.rank()
            ident = tuple(tuple(int(i == j) for i in range(k)) for j in range(k))
            assert Morphism.identity(a) == Morphism(a, a, ident)
        for (a, b), fs in homs.items():
            zero = tuple((0,) * a.rank() for _ in range(b.rank()))
            assert Morphism.zero(a, b) == Morphism(a, b, zero)
            for f in fs:
                assert -f == Morphism(a, b, _entrywise(lambda x: -x, f))
                for c in (-3, 2, 5, n + 1):
                    assert f.scaled(c) == Morphism(a, b, _entrywise(lambda x: c * x, f))
                for g in _partners(fs):
                    assert f + g == Morphism(a, b, _entrywise(lambda x, y: x + y, f, g))
                    assert f - g == Morphism(a, b, _entrywise(lambda x, y: x - y, f, g))
                for c in mods:
                    for g in _partners(homs[b, c]):
                        columns = list(zip(*f.matrix)) or [()] * a.rank()
                        rows = tuple(
                            tuple(sum(x * y for x, y in zip(row, col)) for col in columns)
                            for row in g.matrix
                        )
                        assert g @ f == Morphism(a, c, rows)
                        composites += 1
    assert composites > 10_000


def test_hom_decoding_is_reduced():
    """``HomModule.to_morphism`` skips validation too.  Its raw entries
    first reach past the codomain factors over Z/12 at Hom(Z/2+Z/6,
    Z/3+Z/6), of order 36, so the walk covers modules up to order 18 and
    hom modules up to order 144."""
    from modcat.monoidal import hom_module

    mods = enumerate_modules(12, 18)
    decoded = 0
    for a in mods:
        for b in mods:
            h = hom_module(a, b)
            if h.module.order > 144:
                continue
            for z in h.module.elements():
                f = h.to_morphism(z)
                assert Morphism(a, b, f.matrix) == f
                assert h.of_morphism(f) == z
                decoded += 1
    assert decoded > 1000


def rejected_by_revalidation(built) -> int:
    """How many of ``built`` the validating constructor refuses or rebuilds
    with other rows (rows that were not reduced)."""
    rejected = 0
    for m in built:
        try:
            rejected += Morphism(m.domain, m.codomain, m.matrix) != m
        except ValueError:
            rejected += 1
    return rejected


def test_every_trusted_morphism_of_a_suite_run_validates():
    """Every morphism that a run of all five suites builds through
    ``Morphism._trusted`` passes the validating constructor unchanged.

    The axioms suite builds each invariant-factor input once, over the
    first modulus that covers it, so the moduli 8, 16 and 18 are walked
    to reach new factor tuples, not to repeat the ones of 4, 9 and 12."""
    report, built, callers = trusted_builds(
        dict(
            moduli=(4, 8, 9, 12, 16, 18), max_module_order=12, max_kernel_order=4, max_complex_span=2
        ),
        SUITE_ORDER,
        (Morphism,),
    )
    assert report.exit_code == 0
    assert callers == {
        "__matmul__", "__add__", "scaled", "identity", "zero", "to_morphism", "dual_mor",
        "pullback", "pushout", "kernel", "cokernel", "enumerate_morphisms", "flat_disk_cover",
        "tensor_mor", "solve_blocks", "_build",
    }
    # 5,389 distinct morphisms at this config, most of them enumerated
    # morphisms and pullback and pushout legs (3,712 at the moduli 4, 9
    # and 12 alone, once the axioms suite shares its inputs across moduli).
    assert len(built) > 5_000
    assert rejected_by_revalidation(built) == 0


@pytest.mark.parametrize(
    "owner, builder, old, new",
    [
        # Every residue below gcd(d_i, e_j) instead of its multiples of
        # e_j / gcd(d_i, e_j): maps that are not well defined.
        (modcat.suites, enumerate_morphisms, "step = e[j] // g", "step = 1"),
        # The first entry of the leg to dom g plus its factor d_0: the same
        # map, which every assert of the pullback accepts, on rows that are
        # not reduced.
        (
            modcat.suites,
            pullback,
            "incl[: len(d)])",
            "tuple(r[:1] and (r[0] + dj,) + r[1:] for r, dj in zip(incl, d[:1]))"
            " + incl[1 : len(d)])",
        ),
        # Each row of a subgroup entry's shared inclusion, as every ring
        # wraps it, with its first entry plus the ambient factor: the same
        # map on rows that are not reduced.
        (
            SubgroupEntry,
            SubgroupEntry._build,
            "self.ambient, incl_rows)",
            "self.ambient, tuple(r[:1] and (r[0] + dj,) + r[1:]"
            " for r, dj in zip(incl_rows, self.ambient.invariant_factors)))",
        ),
    ],
    ids=["enumerate-step-1", "pullback-unreduced-leg", "shared-inclusion-unreduced"],
)
def test_revalidation_rejects_a_wrong_trusted_leg(monkeypatch, owner, builder, old, new):
    """A builder that skips validation and builds a wrong or unreduced
    morphism is caught by the revalidation, whether or not the axioms
    suite notices."""
    monkeypatch.setattr(owner, builder.__name__, source_mutant(builder, old, new))
    _, built, callers = trusted_builds(
        dict(moduli=(4, 12), max_module_order=8, max_kernel_order=4), ("axioms",), (Morphism,)
    )
    assert builder.__name__ in callers
    assert rejected_by_revalidation(built) > 0


@pytest.mark.parametrize(
    "module, builder, old, new",
    [
        # The rows of f (x) g, the second product, without the reduction
        # mod the target factors: the same map, on rows that are not
        # reduced.
        ("purity", "tensor_mor", " % d", ""),
        # A section's entries step * c without the reduction mod B_b: over
        # Z/12 the section Z/6 -> Z/2 + Z/6 of one conflation with a
        # middle of order 12 gets the entry 3 in its Z/2 row.
        ("modules", "solve_blocks", " % dst.invariant_factors[b]", ""),
    ],
    ids=["tensor-mor-unreduced", "solve-blocks-unreduced"],
)
def test_revalidation_rejects_an_unreduced_product_or_solution(
    monkeypatch, module, builder, old, new
):
    """The prop1 suite's trusted products and solutions are caught by the
    revalidation when their builder skips the reduction, although every
    verdict of the run stays the same."""
    target = importlib.import_module(f"modcat.{module}")
    monkeypatch.setattr(target, builder, source_mutant(getattr(target, builder), old, new))
    report, built, callers = trusted_builds(
        dict(moduli=(4, 12), max_module_order=16, max_kernel_order=8), ("prop1",), (Morphism,)
    )
    assert report.exit_code == 0
    assert builder in callers
    assert rejected_by_revalidation(built) > 0


def test_a_prop1_run_validates_only_at_the_boundary(monkeypatch):
    """The prop1 suite validates a ``Morphism`` only where a subgroup entry
    maps its generators in (``_generator_map``); the tensored legs and the
    sections are built trusted, and no retraction is factored.  It
    validates no ``Conflation``: the subgroup entries' conflations and
    their duals are built trusted.  The caches start cold."""
    clear_package_caches()
    callers = Counter()
    conflations = Counter()
    real, real_conflation = Morphism.__post_init__, Conflation.__post_init__

    def recording(self):
        frame = sys._getframe(2)  # past the dataclass __init__
        callers[frame.f_code.co_name, frame.f_back.f_code.co_name] += 1
        real(self)

    def recording_conflation(self):
        conflations[sys._getframe(2).f_code.co_name] += 1
        real_conflation(self)

    monkeypatch.setattr(Morphism, "__post_init__", recording)
    monkeypatch.setattr(Conflation, "__post_init__", recording_conflation)
    report = run_suite(
        SuiteConfig(moduli=(4, 9, 12), max_module_order=16, max_kernel_order=4), names=("prop1",)
    )
    monkeypatch.undo()
    assert report.exit_code == 0 and report.suites[0].checked > 100
    assert set(callers) == {("from_columns", "_generator_map")}
    assert callers["from_columns", "_generator_map"] > 10
    assert not conflations


def test_an_axioms_run_validates_only_at_the_boundary(monkeypatch):
    """Every ``Morphism`` that the axioms suite builds is well defined by
    construction, except the maps from the generators of a subgroup that
    a catalog entry builds on first use: only ``from_columns``, called by
    ``_generator_map``, runs the validating constructor.  The caches
    start cold, as in a fresh run."""
    clear_package_caches()
    callers = Counter()
    real = Morphism.__post_init__

    def recording(self):
        frame = sys._getframe(2)  # past the dataclass __init__
        callers[frame.f_code.co_name, frame.f_back.f_code.co_name] += 1
        real(self)

    monkeypatch.setattr(Morphism, "__post_init__", recording)
    report = run_suite(
        SuiteConfig(moduli=(4, 9, 12), max_module_order=8, max_kernel_order=4), names=("axioms",)
    )
    monkeypatch.undo()
    assert report.exit_code == 0 and report.suites[0].checked > 1_000
    assert set(callers) == {("from_columns", "_generator_map")}
    assert callers["from_columns", "_generator_map"] > 10


# ---------------------------------------------------------------------------
# kernel / image / cokernel vs element scans
# ---------------------------------------------------------------------------


def brute_kernel(f: Morphism) -> frozenset:
    zero = f.codomain.zero_element()
    return frozenset(x for x in f.domain.elements() if f.apply(x) == zero)


def brute_image(f: Morphism) -> frozenset:
    return frozenset(f.apply(x) for x in f.domain.elements())


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12])
def test_kernel_image_cokernel_element_scan(n):
    pool = [m for m in enumerate_modules(n, 16) if m.order <= 16]
    for dom in pool:
        for cod in pool:
            for f in sample_morphisms(dom, cod, 3, seed=17):
                ker, incl = kernel(f)
                assert incl.is_mono()
                assert {incl.apply(e) for e in ker.elements()} == brute_kernel(f)
                assert kernel_order(f) == len(brute_kernel(f))

                im, iincl = image(f)
                assert iincl.is_mono()
                assert {iincl.apply(e) for e in im.elements()} == brute_image(f)

                cok, proj = cokernel(f)
                assert proj.is_epi()
                assert (proj @ f).is_zero_morphism
                assert cok.order * len(brute_image(f)) == cod.order
                assert cokernel_order(f) == cok.order
                # ker(proj) is exactly im(f)
                assert brute_kernel(proj) == brute_image(f)


def test_frozen_multiplication_by_two_over_z4():
    r = RingSpec(4)
    m = cyclic(r, 4)
    f = multiplication(m, 2)
    ker, _ = kernel(f)
    im, _ = image(f)
    cok, _ = cokernel(f)
    assert ker.invariant_factors == (2,)
    assert im.invariant_factors == (2,)
    assert cok.invariant_factors == (2,)


def hom_order(dom: FiniteModule, cod: FiniteModule) -> int:
    return prod(gcd(d, e) for d in dom.invariant_factors for e in cod.invariant_factors)


@pytest.mark.parametrize("n,per_pair", [(4, 32), (8, 32), (9, 32), (12, 32), (18, 8), (30, 8), (36, 8)])
def test_dual_route_kernel_against_element_scan(n, per_pair):
    """Every morphism between modules of order <= 16 whose Hom group has at
    most 256 elements, and a fixed sample of ``per_pair`` beyond that; only
    a sample at the three larger moduli.  ker f = (coker f^+)^+ must give
    the scanned kernel through a mono, with the lattice route's factors."""
    pool = [m for m in enumerate_modules(n, 16) if m.order <= 16]
    for dom in pool:
        for cod in pool:
            exhaustive = n in (4, 8, 9, 12) and hom_order(dom, cod) <= 256
            morphisms = (
                enumerate_morphisms(dom, cod) if exhaustive
                else sample_morphisms(dom, cod, per_pair, seed=43)
            )
            for f in morphisms:
                ker, incl = kernel(f)
                assert incl.domain == ker and incl.codomain == dom
                assert {incl.apply(e) for e in ker.elements()} == brute_kernel(f)
                assert incl.is_mono()
                lattice_ker, _ = lattice_subgroup(dom, kernel_lattice_gens(f))
                assert ker.invariant_factors == lattice_ker.invariant_factors


def test_kernel_takes_one_smith_form_per_call(monkeypatch):
    import modcat.modules as mm

    r = RingSpec(12)
    calls = []
    real = mm.smith_normal_form

    def counting(matrix, *args, **kwargs):
        calls.append(len(matrix))
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(mm, "smith_normal_form", counting)
    y = FiniteModule(r, (2, 6, 12))
    for f in sample_morphisms(y, FiniteModule(r, (3, 12)), 6, seed=47):
        mm.kernel.cache_clear()
        calls.clear()
        ker, _ = kernel(f)
        assert len(calls) == 1
        assert ker.order == kernel_order(f)


def test_kernel_asserts_that_the_map_kills_its_inclusion(monkeypatch):
    # ``_kernel_rows`` checks nothing; ``kernel`` checks f . incl == 0
    # itself, so rows outside the kernel are an assertion, not a map.
    import modcat.modules as mm

    real = mm._kernel_rows

    def unit_rows(ring, d, e, a):
        ker, rows = real(ring, d, e, a)
        return ker, tuple(tuple(1 for _ in row) for row in rows)

    monkeypatch.setattr(mm, "_kernel_rows", unit_rows)
    r = RingSpec(12)
    f = Morphism(cyclic(r, 12), cyclic(r, 12), ((2,),))
    with pytest.raises(AssertionError, match="not killed"):
        mm.kernel.__wrapped__(f)


def _mangled(vectors, wrong):
    """Doubled or zeroed integer vectors."""
    return tuple(tuple(2 * x if wrong == "doubled" else 0 for x in v) for v in vectors)


def _crash_only(report, exception="AssertionError"):
    assert report.exit_code == 3
    records = report.suites[0].counterexamples
    assert records and all(ce["check"] == "crash" for ce in records)
    assert records[0]["data"]["exception"] == exception


@pytest.mark.parametrize("wrong", ["doubled", "zero"])
def test_a_wrong_kernel_inclusion_is_a_crash_not_a_counterexample(monkeypatch, wrong):
    # The pullback's own asserts catch a wrong basis of the kernel of
    # [g | -h]; the suite must report the crash rather than a
    # counterexample to the exact-category axioms.
    import modcat.modules as mm

    real = mm._kernel_rows

    def wrong_kernel(ring, d, e, a):
        ker, rows = real(ring, d, e, a)
        return ker, _mangled(rows, wrong)

    monkeypatch.setattr("modcat.exact._kernel_rows", wrong_kernel)
    _crash_only(run_suite(SuiteConfig(moduli=(4,), max_module_order=4), names=("axioms",)))


@pytest.mark.parametrize("wrong", ["doubled", "zero"])
def test_a_wrong_cokernel_projection_is_a_crash_not_a_counterexample(monkeypatch, wrong):
    # Likewise the pushout's asserts for the cokernel of [f; -h].
    import modcat.modules as mm

    real = mm._cokernel_columns

    def wrong_cokernel(ring, e, a):
        q, cols = real(ring, e, a)
        return q, _mangled(cols, wrong)

    monkeypatch.setattr("modcat.exact._cokernel_columns", wrong_cokernel)
    _crash_only(run_suite(SuiteConfig(moduli=(4,), max_module_order=4), names=("axioms",)))


@pytest.mark.parametrize("route", ["kernel", "cokernel"])
def test_a_zero_kernel_or_cokernel_in_a_composition_is_a_crash_not_a_counterexample(
    monkeypatch, route
):
    # A composite of two deflations (inflations) is completed to a
    # conflation through the kernel (cokernel) that modcat.exact takes.  A
    # zero inclusion (projection) there makes the completion fail, which
    # is an internal error and not a verdict on the composite.
    import modcat.exact as ex

    real = getattr(ex, route)

    def zeroed(f):
        obj, leg = real(f)
        return obj, Morphism.zero(leg.domain, leg.codomain)

    monkeypatch.setattr(f"modcat.exact.{route}", zeroed)
    report = run_suite(SuiteConfig(moduli=(4,), max_module_order=4), names=("axioms",))
    _crash_only(report, exception="NotAConflation")


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 9, 12])
def test_solve_against_scan(n):
    pool = [m for m in enumerate_modules(n, 12) if m.order <= 12]
    for dom in pool:
        for cod in pool:
            for f in sample_morphisms(dom, cod, 2, seed=23):
                img = brute_image(f)
                for target in cod.elements():
                    got = solve(f, target)
                    if target in img:
                        assert got is not None and f.apply(got) == target
                    else:
                        assert got is None


def random_systems(seed=2018, count=400, moduli=(4, 8, 9, 12, 36)):
    """Seeded systems (a, e, targets, k) with l, k <= 4 and each modulus
    dividing n; about half the targets are images a @ x, so both
    verdicts occur."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice(moduli)
        l, k = rng.randint(1, 4), rng.randint(1, 4)
        e = tuple(rng.choice(RingSpec(n).divisors()[1:]) for _ in range(l))
        a = [[rng.randrange(-n, n) for _ in range(k)] for _ in range(l)]
        targets = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                x = [rng.randrange(n) for _ in range(k)]
                targets.append([sum(c * y for c, y in zip(row, x)) % d for row, d in zip(a, e)])
            else:
                targets.append([rng.randrange(d) for d in e])
        yield a, e, targets, k


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def test_solver_outputs_are_pinned():
    """Every solution and every None of ``_solve_mod`` on 400 seeded
    systems, hashed: a change of the Smith form or the solver that moves
    any witness fails here."""
    out = [_solve_mod(a, e, targets, k) for a, e, targets, k in random_systems()]
    assert sum(x is not None for x in out) == 249
    assert digest(out) == "05565b21e10ebd34ed1ea33aa1117a919acd721859baaacaba256887cd194f13"


def solves(a, e, targets, k, xs) -> bool:
    """Whether xs holds one solution of a @ x == t (mod e) per target t."""
    return len(xs) == len(targets) and all(
        len(x) == k and all((sum(map(mul, row, x)) - t[j]) % e[j] == 0 for j, row in enumerate(a))
        for x, t in zip(xs, targets)
    )


def assert_solvers_agree(systems):
    """The per-prime-power solver and the Smith-form oracle give None on
    the same systems, and each solution of either solves its system."""
    count = solvable = 0
    for a, e, targets, k in systems:
        got = _solve_mod(a, e, targets, k)
        want = smith_solve_mod(a, e, targets, k)
        assert (got is None) == (want is None), (a, e, targets, k)
        if got is not None:
            assert solves(a, e, targets, k, got) and solves(a, e, targets, k, want)
            solvable += 1
        count += 1
    return count, solvable


@pytest.mark.parametrize("seed", [3, 1986, 1998])
def test_solver_agrees_with_the_smith_form_route_on_random_systems(seed):
    count, solvable = assert_solvers_agree(random_systems(seed, moduli=(4, 8, 9, 12, 30, 36, 72)))
    assert count == 400 and 0 < solvable < count


def test_solver_agrees_with_the_smith_form_route_on_suite_systems(monkeypatch):
    """Every system that the complexes and prop1 suites hand the solver at
    n = 12, recorded through a wrapper and replayed on both routes."""
    import modcat.modules as mm

    recorded = []
    real = mm._solve_mod

    def recording(a, e, targets, k):
        recorded.append(([list(r) for r in a], tuple(e), [list(t) for t in targets], k))
        return real(a, e, targets, k)

    monkeypatch.setattr(mm, "_solve_mod", recording)
    for config, suite in [
        (SuiteConfig(moduli=(12,), max_complex_span=2), "complexes"),
        (SuiteConfig(moduli=(12,), max_module_order=16, max_kernel_order=4), "prop1"),
    ]:
        assert run_suite(config, names=(suite,)).exit_code == 0
    monkeypatch.undo()
    count, solvable = assert_solvers_agree(recorded)
    assert count == len(recorded) > 100 and 0 < solvable < count


@pytest.mark.parametrize(
    "a,e,targets,k,solvable",
    [
        ([[2], [1]], (1, 4), [[1, 3]], 1, True),
        ([[2], [3]], (4, 9), [[2, 6]], 1, True),
        ([[2], [3]], (4, 9), [[2, 6], [1, 0]], 1, False),
        ([], (), [[]], 3, True),
        ([[], []], (4, 6), [[0, 0]], 0, True),
        ([[], []], (4, 6), [[0, 3]], 0, False),
        ([[-3, 5], [-7, -2]], (8, 9), [[-1, -4]], 2, True),
        ([[2], [3]], (4, 9), [[2, 1]], 1, False),
    ],
    ids=[
        "modulus-1-row", "coprime-moduli", "one-target-unsolvable", "no-rows",
        "k-0-zero-target", "k-0-nonzero-target", "negative", "fails-only-at-3",
    ],
)
def test_solver_corner_cases(a, e, targets, k, solvable):
    """A row mod 1 constrains nothing (2x = 1 holds mod 1); coprime moduli
    meet through the Chinese remainder theorem; one unsolvable target makes
    the whole call None; with k = 0 a target is solvable exactly when it is
    0; negative entries and targets are residues; a system solvable at
    p = 2 but not at p = 3 (3x = 1 mod 9) has no solution at all."""
    xs = _solve_mod(a, e, targets, k)
    assert (xs is not None) == solvable
    assert xs is None or solves(a, e, targets, k, xs)
    assert (smith_solve_mod(a, e, targets, k) is not None) == solvable


def test_canonical_forms_are_pinned():
    """Module, generator images and generator lifts of ``canonicalize`` on
    300 seeded presentations, hashed.  The lifts are the solver's solutions
    of images @ x == unit, so a change to ``_solve_mod`` moves this digest
    too."""
    rng = random.Random(2018)
    out = []
    for _ in range(300):
        n = rng.choice((4, 8, 9, 12, 36))
        g = rng.randint(1, 4)
        relations = tuple(
            tuple(rng.randrange(n) for _ in range(g)) for _ in range(rng.randint(0, 4))
        )
        can = canonicalize(Presentation(RingSpec(n), g, relations))
        out.append([can.module.to_dict(), can.generator_images, can.generator_lifts])
    assert digest(out) == "c21d0822be4909d3552a4d9344de9dd0b6980dc8c607fe795bf39459ad276729"


def test_canonical_images_left_unreduced_fail_the_pinned_forms(monkeypatch):
    """The canonical form reduces each generator image mod its factor as
    it reads it off R; without that reduction the images are the same
    elements in other residues, and the pinned digest moves."""
    import modcat.modules as mm

    mutant = source_mutant(mm._canonical_form, "r[j] % x for", "r[j] for")
    monkeypatch.setattr(mm, "_canonical_form", mutant)
    with pytest.raises(AssertionError):
        test_canonical_forms_are_pinned()


@pytest.mark.parametrize(
    "target,error",
    [((1,), ValueError), ((1, 1, 1), ValueError), ((1.5, 1), TypeError)],
    ids=["short", "long", "float"],
)
def test_solve_rejects_a_target_that_is_not_a_codomain_element(target, error):
    """The solver reads only the first rank entries of a target, so a
    longer one must not be truncated, nor a float read as unsolvable."""
    f = Morphism.identity(Z2_Z12)
    with pytest.raises(error, match="rank 2" if error is ValueError else "not an int"):
        solve(f, target)
    assert solve(f, (1, 1)) == (1, 1)


def test_solution_set_is_a_kernel_coset():
    r = RingSpec(8)
    m = FiniteModule(r, (2, 8))
    f = multiplication(m, 2)
    target = f.apply((1, 3))
    sols = list(solution_set(f, target))
    assert len(sols) == len(set(sols)) == kernel_order(f)
    for s in sols:
        assert f.apply(s) == target
    assert not list(solution_set(f, (1, 1)))  # (1,1) has no preimage under *2


# ---------------------------------------------------------------------------
# factorizations
# ---------------------------------------------------------------------------


def test_factor_through_mono_recovers_the_unique_factor(monkeypatch):
    """The factor is the one ``solve_blocks`` unknown, built trusted: no
    ``Morphism`` is validated inside ``factor_through_mono``."""
    r = RingSpec(8)
    y = FiniteModule(r, (2, 8))
    sub, m = subgroup_from_lattice(y, [[0, 2], [1, 0]])
    validated = []
    real = Morphism.__post_init__

    def counting(self):
        validated.append(self)
        real(self)

    for u in sample_morphisms(FiniteModule(r, (4,)), sub, 4, seed=29):
        h = m @ u
        monkeypatch.setattr(Morphism, "__post_init__", counting)
        phi = factor_through_mono(h, m)
        monkeypatch.undo()
        assert phi == u
    assert validated == []
    bad = Morphism.from_columns(r.unit_module(), y, [(0, 1)])
    with pytest.raises(ValueError):
        factor_through_mono(bad, m)  # (0,1) is not in the subgroup


def test_factor_through_epi_recovers_the_unique_factor():
    r = RingSpec(12)
    y = FiniteModule(r, (2, 12))
    f = multiplication(y, 2)
    cok, e = cokernel(f)
    for u in sample_morphisms(cok, FiniteModule(r, (6,)), 4, seed=31):
        h = u @ e
        assert factor_through_epi(h, e) == u
    with pytest.raises(ValueError, match="does not descend along the epi"):
        factor_through_epi(Morphism.identity(y), e)  # does not kill ker(e)
    with pytest.raises(ValueError, match="surjective"):
        factor_through_epi(f, f)  # multiplication by 2 is not onto Z/2 + Z/12
    # every catalog projection of a module of order <= 16, against every
    # map u out of its quotient into a module of order <= 4
    count = 0
    for n in (4, 8, 9, 12):
        targets = list(enumerate_modules(n, 4))
        for y in enumerate_modules(n, 16):
            for entry in subgroup_catalog(y):
                e = entry.projection
                for w in targets:
                    for u in enumerate_morphisms(entry.quotient, w):
                        h = u @ e
                        phi = factor_through_epi(h, e)
                        assert phi @ e == h and phi == u
                        count += 1
    assert count == 12430


def counting_local_eliminations(monkeypatch):
    """A list that records the modulus q of each call of the solver's
    per-prime-power elimination."""
    import modcat.modules as mm

    calls = []
    real = mm._solve_local

    def counting(a, e, targets, k, q):
        calls.append(q)
        return real(a, e, targets, k, q)

    monkeypatch.setattr(mm, "_solve_local", counting)
    return calls


@pytest.mark.parametrize(
    "n,y_factors,c,per_call", [(8, (2, 8), 2, 1), (12, (6, 12), 6, 2)], ids=["8", "12"]
)
def test_factorizations_take_one_local_elimination_per_prime_power(
    monkeypatch, n, y_factors, c, per_call
):
    """One system per factorization: one elimination per prime power of
    the lcm of its moduli (8 = 2^3; 12 = 2^2 * 3 for both maps here)."""
    r = RingSpec(n)
    y = FiniteModule(r, y_factors)
    sub, m = subgroup_from_lattice(y, [[0, 2], [1, 0]])
    cok, e = cokernel(multiplication(y, c))
    dom = FiniteModule(r, (2, n))
    assert sub.rank() >= 2 and dom.rank() >= 2 and cok.rank() >= 2
    calls = counting_local_eliminations(monkeypatch)
    for u in sample_morphisms(dom, sub, 4, seed=37):
        h = m @ u
        calls.clear()
        phi = factor_through_mono(h, m)
        assert len(calls) == per_call
        assert phi == u
        # the per-column route gives the same columns
        cols = [solve(m, tuple(row[i] for row in h.matrix)) for i in range(dom.rank())]
        assert phi == Morphism.from_columns(dom, sub, cols)
    for u in sample_morphisms(cok, FiniteModule(r, (2, 4)), 4, seed=41):
        calls.clear()
        assert factor_through_epi(u @ e, e) == u
        assert len(calls) == per_call


@pytest.mark.parametrize(
    "n,per_solve,top,bottom", [(8, 1, 4, 2), (12, 2, 12, 6)], ids=["8", "12"]
)
def test_splits_takes_one_local_elimination_per_prime_power(monkeypatch, n, per_solve, top, bottom):
    """A split search is one system, for the section alone, and factors no
    retraction, for modules and for complexes.  The non-split
    Z/2 -> Z/top -> Z/bottom has no section mod 2, its first prime, so at
    n = 12 the 3-part is not tried; nor has the disk on Z/2 read as a
    conflation of its ends a chain section."""
    r = RingSpec(n)
    z2 = FiniteModule(r, (2,))
    quotient = FiniteModule(r, (2, n))
    ds = direct_sum(z2, quotient)
    assert ds.module.invariant_factors == (2, 2, n)
    split = Conflation(ds.injections[0], ds.projections[1])
    y, z = FiniteModule(r, (top,)), FiniteModule(r, (bottom,))
    non_split = Conflation(Morphism(z2, y, ((top // 2,),)), Morphism(y, z, ((1,),)))
    # the disk Z/n -> Z/n plus the quotient in degree 1, and the disk on
    # Z/2 over its ends Z/2 in degree 1 and Z/2 in degree 0
    zn = FiniteModule(r, (n,))
    disk = two_term_complex(Morphism.identity(zn))
    ends = direct_sum(zn, quotient)
    middle = Complex(r, 0, (zn, ends.module), (ends.injections[0],))
    to_zero = Morphism.zero(zn, r.zero_module())
    chain_split = ComplexConflation(
        ChainMap(disk, middle, (Morphism.identity(zn), ends.injections[0])),
        ChainMap(middle, single_complex(quotient, 1), (to_zero, ends.projections[1])),
    )
    z2_disk = two_term_complex(Morphism.identity(z2))
    z2_parts = (Morphism.identity(z2), Morphism.zero(z2, r.zero_module()))
    chain_non_split = ComplexConflation(
        ChainMap(single_complex(z2, 1), z2_disk, (Morphism.identity(z2),)),
        ChainMap(z2_disk, single_complex(z2, 0), z2_parts),
    )
    assert splits(chain_split.degreewise(0).g) is not None
    assert splits(chain_non_split.degreewise(0).g) is not None

    import modcat.complexes as mc
    import modcat.exact as me

    def refuse(h, m):
        raise AssertionError("a split search factored a retraction")

    for module in (me, mc):
        monkeypatch.setattr(module, "factor_through_mono", refuse)
    calls = counting_local_eliminations(monkeypatch)
    assert splits(split.g) is not None
    assert len(calls) == per_solve  # the section alone
    calls.clear()
    assert splits(non_split.g) is None
    assert calls == [2]
    calls.clear()
    assert splits_as_complexes(chain_split.g) is not None
    assert len(calls) == per_solve
    calls.clear()
    assert splits_as_complexes(chain_non_split.g) is None
    assert calls == [2]


# ---------------------------------------------------------------------------
# direct sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,parts",
    [
        (4, ((2,), (4,))),
        (12, ((2, 6), (12,))),
        (8, ((2,), (2,), (8,))),
        (9, ((1,) * 0, (3, 9))),  # zero summand via empty factors
    ],
)
def test_direct_sum_biproduct_identities(n, parts):
    r = RingSpec(n)
    mods = tuple(FiniteModule(r, p) for p in parts)
    ds = direct_sum_many(mods)
    total = 1
    for m in mods:
        total *= m.order
    assert ds.module.order == total
    k = len(mods)
    for i in range(k):
        for j in range(k):
            comp = ds.projections[i] @ ds.injections[j]
            if i == j:
                assert comp == Morphism.identity(mods[i])
            else:
                assert comp.is_zero_morphism
    acc = Morphism.zero(ds.module, ds.module)
    for i in range(k):
        acc = acc + ds.injections[i] @ ds.projections[i]
    assert acc == Morphism.identity(ds.module)


def test_direct_sum_two_cyclics_invariant_factors():
    r = RingSpec(12)
    ds = direct_sum(cyclic(r, 6), cyclic(r, 4))
    assert ds.module.invariant_factors == (2, 12)


def test_direct_sum_rejects_mixed_rings():
    with pytest.raises(ValueError):
        direct_sum(cyclic(RingSpec(4), 2), cyclic(RingSpec(8), 2))
