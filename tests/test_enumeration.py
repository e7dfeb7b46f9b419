"""Deterministic walks: modules, morphisms, subgroups, conflations, complexes.

The subgroup walks are cross-checked against plain set arithmetic: every
subgroup of a rank-k module is generated by at most k elements, so closing
all k-tuples of elements enumerates subgroups with no lattice machinery.
"""

import functools
import hashlib
import itertools
import json
from collections import Counter
from dataclasses import replace

import pytest

import modcat.enumeration
from modcat.exact import Conflation, conflation_from_mono
from modcat.modules import (
    FiniteModule,
    Morphism,
    RingSpec,
    cokernel,
    cyclic,
    direct_sum,
    kernel,
)
from modcat.snf import hermite_normal_form, lattice_member, snf_diagonal
from modcat.suites import COMPLEX_FAMILY_CAP, COMPLEX_KERNEL_CAP, SuiteConfig, run_suite
from modcat.monoidal import hom_module
from modcat.purity import is_flat
from modcat.complexes import (
    ChainMap,
    Complex,
    ComplexConflation,
    single_complex,
    two_term_complex,
    zero_complex,
)
from modcat.enumeration import (
    SubgroupEntry,
    _SharedSubgroup,
    _complete_differentials,
    _contains,
    _horizontal_strip,
    _local_types,
    _quotient_factors,
    conflations_ending_in,
    conflations_with_sub,
    cyclic_subgroup_catalog,
    enumerate_complex_conflations_ending_in,
    enumerate_complexes,
    enumerate_modules,
    enumerate_morphisms,
    flat_disk_cover,
    modules_of_order,
    subgroup_catalog,
)

from helpers import (
    clear_package_caches,
    complex_conflation_from_chain_epi,
    enumerate_monos,
    full_cyclic_subgroup_walk,
    hom_coordinate_middles,
    lattice_subgroup,
    multiplication,
    sample_morphisms,
    source_mutant,
    unfiltered_conflations_ending_in,
    unfiltered_conflations_with_sub,
    unshared_run_prop1,
)


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


def test_enumerate_modules_frozen_list_n6():
    got = [m.invariant_factors for m in enumerate_modules(6, 12)]
    assert got == [
        (),
        (2,),
        (3,),
        (2, 2),
        (6,),
        (2, 2, 2),
        (3, 3),
        (2, 6),
    ]


def test_enumerate_modules_keeps_its_order_bound_below_one():
    assert enumerate_modules(4, 0) == ()
    assert enumerate_modules(4, -3) == ()
    assert enumerate_modules(4, 1) == (RingSpec(4).zero_module(),)


def test_enumerate_modules_all_chains_divide():
    for n in (4, 8, 9, 12):
        for m in enumerate_modules(n, 64):
            fs = m.invariant_factors
            assert all(n % d == 0 for d in fs)
            assert all(b % a == 0 for a, b in zip(fs, fs[1:]))
            assert m.order <= 64
        orders = [m.order for m in enumerate_modules(n, 64)]
        assert orders == sorted(orders)


def test_modules_of_order():
    got = {m.invariant_factors for m in modules_of_order(4, 8)}
    assert got == {(2, 4), (2, 2, 2)}
    assert [m.invariant_factors for m in modules_of_order(4, 1)] == [()]
    assert list(modules_of_order(4, 3)) == []


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


def test_enumerate_morphisms_matches_hom_order():
    for n in (4, 6, 9):
        pool = enumerate_modules(n, 12)
        for dom in pool:
            for cod in pool:
                mors = list(enumerate_morphisms(dom, cod))
                assert len(mors) == hom_module(dom, cod).module.order
                assert len({f.matrix for f in mors}) == len(mors)


def test_enumerate_monos_is_the_mono_slice():
    r = RingSpec(4)
    k = cyclic(r, 2)
    y = FiniteModule(r, (2, 4))
    monos = list(enumerate_monos(k, y))
    brute = [f for f in enumerate_morphisms(k, y) if f.is_mono()]
    assert {f.matrix for f in monos} == {f.matrix for f in brute}


def test_sample_morphisms_deterministic():
    r = RingSpec(8)
    m = FiniteModule(r, (2, 8))
    a = [f.matrix for f in sample_morphisms(m, m, 10, seed=1)]
    b = [f.matrix for f in sample_morphisms(m, m, 10, seed=1)]
    c = [f.matrix for f in sample_morphisms(m, m, 10, seed=2)]
    assert a == b
    assert a != c  # astronomically unlikely to collide for this hom group


# ---------------------------------------------------------------------------
# subgroup walks vs set arithmetic
# ---------------------------------------------------------------------------


def brute_subgroup_sets(y: FiniteModule) -> set:
    """All subgroups of y as frozensets, from closures of rank-many tuples."""
    elems = list(y.elements())
    k = max(y.rank(), 1)
    out = set()
    for gens in itertools.product(elems, repeat=k):
        seen = {y.zero_element()}
        frontier = [y.zero_element()]
        while frontier:
            x = frontier.pop()
            for g in gens:
                z = y.add(x, g)
                if z not in seen:
                    seen.add(z)
                    frontier.append(z)
        out.add(frozenset(seen))
    return out


@pytest.mark.parametrize(
    "n,factors",
    [(4, (4,)), (4, (2, 4)), (4, (2, 2)), (8, (2, 2, 2)), (9, (3, 9)), (6, (6,))],
)
def test_subgroup_catalog_complete_and_exact(n, factors):
    y = FiniteModule(RingSpec(n), factors)
    entries = subgroup_catalog(y)
    got = set()
    for e in entries:
        members = frozenset(e.inclusion.apply(v) for v in e.sub.elements())
        assert len(members) == e.sub.order
        assert e.sub.order * e.quotient.order == y.order
        got.add(members)
    assert len(got) == len(entries)  # no duplicate subgroups
    assert got == brute_subgroup_sets(y)


def test_subgroup_counts_over_f2_six_dims():
    """Subspace counts of F_2^6: Gaussian binomials, summing to 2825."""
    y = FiniteModule(RingSpec(2), (2,) * 6)
    entries = subgroup_catalog(y)
    assert len(entries) == 2825
    by_order = {}
    for e in entries:
        by_order[e.sub.order] = by_order.get(e.sub.order, 0) + 1
    assert by_order == {1: 1, 2: 63, 4: 651, 8: 1395, 16: 651, 32: 63, 64: 1}


def brute_cyclic_subgroup_sets(y: FiniteModule) -> set:
    """All cyclic subgroups of y as frozensets, by repeated addition."""
    out = set()
    for x in y.elements():
        seen = {y.zero_element()}
        acc = x
        while acc not in seen:
            seen.add(acc)
            acc = y.add(acc, x)
        out.add(frozenset(seen))
    return out


def test_cyclic_subgroup_catalog():
    y = FiniteModule(RingSpec(4), (2, 4))
    entries = [e for order in (1, 2, 4) for e in cyclic_subgroup_catalog(y, order)]
    assert len(entries) == 6
    got = {frozenset(e.inclusion.apply(v) for v in e.sub.elements()) for e in entries}
    assert got == brute_cyclic_subgroup_sets(y)
    assert cyclic_subgroup_catalog(y, 3) == ()
    assert cyclic_subgroup_catalog(y, 8) == ()


@pytest.mark.parametrize(
    "n,factors",
    [(8, (2, 8)), (9, (3, 9)), (12, (2, 12)), (12, (6, 12)), (30, (30,)), (36, (6, 36))],
)
def test_cyclic_catalogs_over_all_orders_are_every_cyclic_subgroup(n, factors):
    y = FiniteModule(RingSpec(n), factors)
    got = []
    for order in range(1, n + 1):
        for e in cyclic_subgroup_catalog(y, order):
            members = frozenset(e.inclusion.apply(v) for v in e.sub.elements())
            assert len(members) == e.sub_order == order
            got.append(members)
    assert len(set(got)) == len(got)  # no subgroup twice, across orders too
    assert set(got) == brute_cyclic_subgroup_sets(y)


@pytest.mark.parametrize("n,bound", [(4, 64), (8, 64), (9, 64), (12, 64), (30, 120)])
def test_the_cyclic_walk_over_the_torsion_matches_the_walk_over_every_element(n, bound):
    """Walking only the elements killed by ``order`` gives the same keys,
    lex-first generators and quotients, in the same order, as walking the
    whole module; every order up to the exponent, divisors or not."""
    walks = 0
    for y in enumerate_modules(n, bound):
        d = y.invariant_factors
        for order in range(1, (d[-1] if d else 1) + 1):
            walk = modcat.enumeration._cyclic_subgroup_walk.__wrapped__(d, order)
            got = tuple((s.key, *s.rows, s.factors) for s in walk)
            assert got == full_cyclic_subgroup_walk(d, order), (d, order)
            walks += bool(walk)
    assert walks > len(enumerate_modules(n, bound))


# ---------------------------------------------------------------------------
# lazy catalog entries vs an eager oracle
# ---------------------------------------------------------------------------


def _eager(y, rows, key):
    """Every field of a catalog entry, built up front through the public
    calls, and the elements of the subgroup by the lattice oracle."""
    free = FiniteModule(y.ring, (y.ring.modulus,) * len(rows))
    quot, proj = cokernel(Morphism.from_columns(free, y, [tuple(r) for r in rows]))
    sub, incl = kernel(proj)
    lattice_sub, lattice_incl = lattice_subgroup(y, rows)
    members = frozenset(lattice_incl.apply(v) for v in lattice_sub.elements())
    return key, sub, incl, quot, proj, members


def eager_subgroup_catalog(y):
    """The complete Hermite-basis walk, building every entry at once."""
    d = y.invariant_factors
    k = len(d)
    out = []

    def walk(i, below):
        if i < 0:
            key = tuple(tuple(r) for r in below)
            out.append(_eager(y, below, key))
            return
        pivots = {j: below[j - i - 1][j] for j in range(i + 1, k)}
        for h in range(1, d[i] + 1):
            if d[i] % h:
                continue
            for tail in itertools.product(*[range(pivots[j]) for j in range(i + 1, k)]):
                cand = [[0] * i + [h] + list(tail)] + below
                if lattice_member(cand, [d[i] if c == i else 0 for c in range(k)]):
                    walk(i - 1, cand)

    walk(k - 1, [])
    return out


@functools.lru_cache(maxsize=None)
def first_generators(y):
    """(key, x) per cyclic subgroup, x its lex-first generator: one Hermite
    form per element, the walk that the per-order catalogs replace."""
    d = y.invariant_factors
    k = len(d)
    seen = {}
    for x in y.elements():
        rows = [list(x)] + [[d[i] if c == i else 0 for c in range(k)] for i in range(k)]
        key = tuple(tuple(r) for r in hermite_normal_form(rows, k))
        seen.setdefault(key, x)
    return tuple(seen.items())


def eager_cyclic_subgroup_catalog(y):
    return [_eager(y, [x], key) for key, x in first_generators(y)]


def assert_lazy_matches_eager(lazy, eager, y):
    assert [e.key for e in lazy] == [row[0] for row in eager]
    for e, (key, sub, incl, quot, proj, members) in zip(lazy, eager):
        # the cheap invariants, read before anything is built
        assert e.sub_order == sub.order
        assert e.quotient == quot
        assert e.ambient == y
        assert e.sub == sub
        assert e.inclusion == incl
        assert e.projection == proj
        assert {e.inclusion.apply(v) for v in e.sub.elements()} == members


def assert_cyclic_catalogs_match_eager(y):
    eager = eager_cyclic_subgroup_catalog(y)
    exponent = y.invariant_factors[-1] if y.invariant_factors else 1
    for order in range(1, exponent + 1):
        lazy = cyclic_subgroup_catalog(y, order)
        assert_lazy_matches_eager(lazy, [row for row in eager if row[1].order == order], y)


@pytest.mark.parametrize("n", [4, 8, 9, 12])
def test_lazy_catalogs_match_the_eager_oracle(n):
    for y in enumerate_modules(n, 32):
        assert_lazy_matches_eager(subgroup_catalog(y), eager_subgroup_catalog(y), y)
        assert_cyclic_catalogs_match_eager(y)


@pytest.mark.parametrize("n,bound", [(30, 60), (36, 72)])
def test_cyclic_catalogs_match_the_eager_oracle_beyond_cyclic_unit_groups(n, bound):
    """Element orders such as 15, 9 or 36 have unit groups that are not
    cyclic 2-groups, so a unit orbit can be larger than {x, -x}."""
    for y in enumerate_modules(n, bound):
        assert_cyclic_catalogs_match_eager(y)


def test_sample_mode_builds_at_most_the_sampled_entries(monkeypatch):
    cfg = SuiteConfig(
        moduli=(4, 8), max_module_order=32, max_kernel_order=8,
        mode="sample", sample_count=3, seed=5,
    )
    builds = []
    real = modcat.enumeration._generator_map

    def counting(ambient, gens):
        builds.append(ambient)
        return real(ambient, gens)

    monkeypatch.setattr(modcat.enumeration, "_generator_map", counting)
    clear_package_caches()
    report = run_suite(cfg, names=("prop1",))
    clear_package_caches()
    assert report.exit_code == 0
    middles = [y for n in cfg.moduli for y in enumerate_modules(n, cfg.max_module_order)]
    for y in middles:
        assert sum(1 for b in builds if b == y) <= cfg.sample_count
    # the catalogs themselves are far larger than what the run builds
    assert sum(len(subgroup_catalog(y)) for y in middles) > 4 * len(builds)


# ---------------------------------------------------------------------------
# walks shared across moduli
# ---------------------------------------------------------------------------


def test_subgroup_walks_are_shared_across_moduli():
    """A module's full and cyclic catalogs depend on its invariant factors
    only: over every modulus they carry equal keys and quotient factors,
    the very same key objects and walked subgroups (whose rows and build
    they share), and each quotient is the Smith diagonal of its key.  A
    prop1 run over each modulus apart walks each tuple once."""
    moduli, bound = (4, 8, 12), 32
    clear_package_caches()
    groups = {}
    for y in (y for n in moduli for y in enumerate_modules(n, bound)):
        groups.setdefault(y.invariant_factors, []).append(y)
    shared = {d: ys for d, ys in groups.items() if len(ys) > 1}
    assert len(shared) >= 10, sorted(shared)
    for d, (first, *rest) in shared.items():
        orders = range(1, (d[-1] if d else 1) + 1)
        walks = [subgroup_catalog]
        walks += [functools.partial(cyclic_subgroup_catalog, order=o) for o in orders]
        for catalog in walks:
            want = catalog(first)
            for e in want:
                assert e.quotient.invariant_factors == tuple(x for x in snf_diagonal(e.key) if x > 1)
            for y in rest:
                got = catalog(y)
                assert [e.key for e in got] == [e.key for e in want]
                assert all(a.key is b.key for a, b in zip(got, want))
                assert all(a._shared is b._shared for a, b in zip(got, want))
                assert [e.quotient.invariant_factors for e in got] == [
                    e.quotient.invariant_factors for e in want
                ]
                assert all(e.ambient == y and e.quotient.ring == y.ring for e in got)

    clear_package_caches()
    config = SuiteConfig(moduli=moduli, max_module_order=bound, max_kernel_order=8)
    assert unshared_run_prop1(config).failed == 0
    info = modcat.enumeration._subgroup_walk.cache_info()
    assert info.misses == len(groups)
    assert info.hits == sum(len(ys) for ys in groups.values()) - len(groups)


def test_a_shared_walk_with_wrong_quotients_crashes_the_build(monkeypatch):
    """A shared walk that stores each key's Hermite pivots instead of its
    Smith diagonal gives entries whose quotient is wrong (the key with
    rows (2, 1), (0, 2) in (Z/4)^2 has pivots 2, 2 but quotient Z/4);
    building one fails the check against the Smith invariants, which the
    run records as a crash.  (The Smith diagonal of the transposed key
    would be no mutant: a matrix and its transpose have one Smith form.)
    The check runs on every ring's wrap of the shared build: built first
    at n = 4, the entry fails again at n = 8 without a build of its own,
    and a run at n = 8 records the crash too."""
    import modcat.enumeration as me

    pivots = "tuple(sorted(r[i] for i, r in enumerate(key) if r[i] > 1))"
    mutant = source_mutant(me._subgroup_walk.__wrapped__, "_quotient_factors(key)", pivots)
    monkeypatch.setattr(me, "_subgroup_walk", mutant)
    clear_package_caches()
    config = SuiteConfig(moduli=(4,), max_module_order=16, max_kernel_order=4)
    reports = [run_suite(config, names=("prop1",))]
    message = "built subgroup disagrees with its Smith invariants"
    for n in (4, 8):
        [entry] = [
            e for e in subgroup_catalog(FiniteModule(RingSpec(n), (4, 4)))
            if e.key == ((2, 1), (0, 2))
        ]
        with monkeypatch.context() as mp:
            if n == 8:
                mp.setattr(me, "_generator_map", None)  # a build of its own would fail otherwise
            with pytest.raises(AssertionError, match=message):
                entry.sub
    reports.append(run_suite(replace(config, moduli=(8,)), names=("prop1",)))
    monkeypatch.undo()
    clear_package_caches()
    for report in reports:
        assert report.exit_code == 3
        [record] = report.suites[0].counterexamples
        assert record["check"] == "crash"
        assert record["data"]["message"] == message


def _fresh_build(e):
    """(sub, inclusion, projection) of a catalog entry, built over its own
    ring as the first build of a walked subgroup is."""
    quot, proj = cokernel(modcat.enumeration._generator_map(e.ambient, e._shared.rows))
    sub, incl = kernel(proj)
    return sub, incl, proj


def _entries(n, d):
    y = FiniteModule(RingSpec(n), d)
    orders = range(1, (d[-1] if d else 1) + 1)
    return subgroup_catalog(y) + sum((cyclic_subgroup_catalog(y, o) for o in orders), ())


def test_an_entry_built_at_one_modulus_is_wrapped_at_every_other(monkeypatch):
    """At moduli 4, 8 and 12, an entry over a module whose factors divide 4,
    once built at n = 4, takes no Smith form and no map from its
    generators at n = 8 or 12: it wraps the rows its walked subgroup
    stores.  Those equal a fresh build over each ring, and the validating
    constructor keeps them as they are."""
    import modcat.modules as mm

    clear_package_caches()
    tuples = [m.invariant_factors for m in enumerate_modules(4, 32)]
    catalogs = {(n, d): _entries(n, d) for n in (4, 8, 12) for d in tuples}
    for d in tuples:
        for e in catalogs[4, d]:
            e.sub
    calls = Counter()

    def counting(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    with monkeypatch.context() as mp:
        mp.setattr(mm, "smith_normal_form", counting("smith", mm.smith_normal_form))
        real = modcat.enumeration._generator_map
        mp.setattr(modcat.enumeration, "_generator_map", counting("generators", real))
        wrapped = [e for n in (8, 12) for d in tuples for e in catalogs[n, d]]
        for e in wrapped:
            e.sub
    assert not calls
    assert len(wrapped) > 300
    for (n, d), entries in catalogs.items():
        for e in entries:
            assert (e.sub, e.inclusion, e.projection) == _fresh_build(e), (n, d, e.key)
            for m in (e.inclusion, e.projection):
                assert Morphism(m.domain, m.codomain, m.matrix).matrix == m.matrix


def test_the_shared_build_does_not_depend_on_which_modulus_builds_first(monkeypatch):
    """Building every entry at n = 12 first and then at n = 4 gives the same
    modules and rows as the opposite order, and a reset of the package's
    caches drops the shared builds."""
    tuples = [m.invariant_factors for m in enumerate_modules(4, 32)]
    built = {}
    for moduli in ((4, 12), (12, 4)):
        clear_package_caches()
        built[moduli] = {
            (n, d, e.key, e.sub_order): (e.sub, e.inclusion, e.projection)
            for n in moduli
            for d in tuples
            for e in _entries(n, d)
        }
    assert built[4, 12] == built[12, 4]
    assert len(built[4, 12]) > 600
    # after the reset an entry built at n = 4 above is built afresh
    clear_package_caches()
    real, gens = modcat.enumeration._generator_map, []
    monkeypatch.setattr(
        modcat.enumeration, "_generator_map", lambda *args: gens.append(args) or real(*args)
    )
    _entries(8, (2, 4))[0].sub
    assert len(gens) == 1


# ---------------------------------------------------------------------------
# extensions and conflation families
# ---------------------------------------------------------------------------


def enumerate_extensions(k, f):
    """Every conflation k -> Y -> f, one per monomorphism k -> Y."""
    out = []
    for y in modules_of_order(k.ring.modulus, k.order * f.order):
        for mono in enumerate_monos(k, y):
            if cokernel(mono)[0] == f:
                out.append(conflation_from_mono(mono))
    return out


def test_enumerate_extensions_frozen_middles():
    r4 = RingSpec(4)
    k = cyclic(r4, 2)
    exts = enumerate_extensions(k, k)
    middles = sorted({c.total.invariant_factors for c in exts})
    assert middles == [(2, 2), (4,)]
    r2 = RingSpec(2)
    k2 = cyclic(r2, 2)
    exts2 = enumerate_extensions(k2, k2)
    assert sorted({c.total.invariant_factors for c in exts2}) == [(2, 2)]


def test_conflations_ending_in_frozen_count():
    r = RingSpec(4)
    f = cyclic(r, 2)
    entries = list(conflations_ending_in(f, 16, 16))
    assert len(entries) == 40
    tags = {(e.ambient.invariant_factors, e.key) for e in entries}
    assert len(tags) == 40
    for e in entries:
        assert e.quotient == f
        assert e.sub.order <= 16
        c = e.conflation()  # built trusted: the validating constructor rebuilds it
        assert Conflation(c.f, c.g) == c
    # each middle belongs to one kernel order and each catalog's keys are
    # distinct, so no (middle, key) tag repeats anywhere in the family
    for n in (4, 8, 9, 12):
        for end in enumerate_modules(n, 32):
            tags = [(e.ambient.invariant_factors, e.key) for e in conflations_ending_in(end, 16, 32)]
            assert len(set(tags)) == len(tags), end


def test_conflations_beyond_the_middle_bound_match_the_whole_catalog_filter():
    """The per-order catalogs yield what filtering one catalog of every
    cyclic subgroup by kernel order and quotient kept, in the same order."""
    for n in (4, 8, 9, 12):
        for end in enumerate_modules(n, 32):
            got = [
                (e.ambient.invariant_factors, e.key, e.sub_order)
                for e in conflations_ending_in(end, 16, 32)
                if e.ambient.order > 32
            ]
            want = [
                (y.invariant_factors, e.key, e.sub_order)
                for k_ord in range(1, 17)
                if end.order * k_ord > 32 and n % k_ord == 0
                for y in modules_of_order(n, end.order * k_ord)
                for e in (
                    SubgroupEntry(y, _SharedSubgroup(key, (x,), _quotient_factors(key)))
                    for key, x in first_generators(y)
                )
                if e.sub_order == k_ord and e.quotient == end
            ]
            assert got == want, end


def test_conflations_ending_in_goes_cyclic_beyond_the_middle_bound():
    r = RingSpec(4)
    f = cyclic(r, 2)
    small = list(conflations_ending_in(f, 8, 4))
    assert any(e.ambient.order > 4 for e in small)
    for e in small:
        if e.ambient.order > 4:
            assert e.sub.rank() <= 1  # only cyclic kernels beyond the bound


def test_conflations_with_sub():
    r = RingSpec(4)
    m = cyclic(r, 2)
    cs = list(conflations_with_sub(m, 8))
    assert cs
    for c in cs:
        assert c.sub == m
        assert c.total.order <= 8


def test_the_walks_that_skip_middles_yield_what_the_unfiltered_walks_yield():
    """Skipping the middles that no wanted conflation fits changes no
    entry of a walk, nor its place: for every end and every start, the
    filtered walks hand out the oracles' (middle, key) sequence.  A
    middle bound of |F| runs the cyclic branch for every kernel order
    above 1, and one of 32 runs both branches."""
    for n in (4, 8, 9, 12, 16, 18, 27, 30):
        for f in enumerate_modules(n, 32):
            for middle_bound in (f.order, 32):
                got = conflations_ending_in(f, 8, middle_bound)
                want = unfiltered_conflations_ending_in(f, 8, middle_bound)
                assert [(e.ambient.invariant_factors, e.key) for e in got] == [
                    (e.ambient.invariant_factors, e.key) for e in want
                ], (f, middle_bound)
            got = conflations_with_sub(f, 64)
            want = unfiltered_conflations_with_sub(f, 64)
            assert [(c.total.invariant_factors, c.f.matrix) for c in got] == [
                (c.total.invariant_factors, c.f.matrix) for c in want
            ], f


def test_the_partition_criteria_match_the_subgroup_catalogs():
    """For every middle Y of order <= 64 and every F whose order divides
    |Y|, with lam and nu their partitions of p-exponents at each prime:
    nu inside lam at every p iff some subgroup of Y has quotient F, and
    iff some subgroup of Y is F; lam / nu a horizontal strip at every p
    iff some cyclic subgroup of Y has quotient F."""
    fits = Counter()
    for n in (4, 8, 9, 12):
        mods = enumerate_modules(n, 64)
        for y in mods:
            lams = _local_types(y)
            catalog = subgroup_catalog(y)
            quotients = {e.quotient for e in catalog}
            subs = {e.sub for e in catalog}
            for f in mods:
                if y.order % f.order:
                    continue
                nus = _local_types(f)
                cyclic = {e.quotient for e in cyclic_subgroup_catalog(y, y.order // f.order)}
                inside = all(map(_contains, lams, nus))
                strip = all(map(_horizontal_strip, lams, nus))
                assert inside == (f in quotients) == (f in subs), (y, f)
                assert strip == (f in cyclic), (y, f)
                fits.update(pairs=1, inside=inside, strip=strip)
    assert fits == Counter(pairs=785, inside=496, strip=260)


def cold_run(config, names):
    """The report of a run from cold caches, without its elapsed time, and
    the cache misses of the subgroup walks and catalogs."""
    clear_package_caches()
    report = run_suite(config, names=names).to_dict()
    del report["elapsed_ms"]
    misses = {
        name: getattr(modcat.enumeration, name).cache_info().misses
        for name in ("_subgroup_walk", "_cyclic_subgroup_walk", "subgroup_catalog", "cyclic_subgroup_catalog")
    }
    return report, misses


def patch_in_the_unfiltered_walks(monkeypatch):
    monkeypatch.setattr(modcat.suites, "conflations_ending_in", unfiltered_conflations_ending_in)
    monkeypatch.setattr(modcat.enumeration, "conflations_ending_in", unfiltered_conflations_ending_in)
    monkeypatch.setattr(modcat.enumeration, "conflations_with_sub", unfiltered_conflations_with_sub)


def catalogs_built_by_the_walks_from_each_start(walk):
    """The subgroup catalogs ``walk(m, 16)`` builds from cold caches,
    summed over every start m of order <= 16 at moduli 4 and 12."""
    built = 0
    for m in (m for n in (4, 12) for m in enumerate_modules(n, 16)):
        clear_package_caches()
        list(walk(m, 16))
        built += subgroup_catalog.cache_info().misses
    return built


def test_flat_equiv_and_enough_pi_build_only_the_catalogs_a_conflation_fits(monkeypatch):
    """At moduli 4 and 12, order <= 16, kernel <= 8, flat-equiv walks
    cyclic kernels beyond the middle bound.  Its cyclic catalogs are
    built only for middles a conflation ending in the end module fits:
    15 walks and 18 catalogs, against 30 and 37 on the unfiltered walks,
    for the same report.  Every whole catalog is built in both runs (the
    zero module fits every middle), so the walk from each start is
    counted apart: 93 catalogs against 125."""
    assert catalogs_built_by_the_walks_from_each_start(conflations_with_sub) == 93
    assert catalogs_built_by_the_walks_from_each_start(unfiltered_conflations_with_sub) == 125
    config = SuiteConfig(moduli=(4, 12), max_module_order=16, max_kernel_order=8)
    names = ("flat-equiv", "enough-pi")
    report, misses = cold_run(config, names)
    assert [(s["name"], s["checked"], s["failed"]) for s in report["suites"]] == [
        ("flat-equiv", 199, 0),
        ("enough-pi", 23, 0),
    ]
    assert misses == {
        "_subgroup_walk": 14, "_cyclic_subgroup_walk": 15, "subgroup_catalog": 23, "cyclic_subgroup_catalog": 18
    }
    patch_in_the_unfiltered_walks(monkeypatch)
    unfiltered, misses = cold_run(config, names)
    assert unfiltered == report
    assert misses == {
        "_subgroup_walk": 14, "_cyclic_subgroup_walk": 30, "subgroup_catalog": 23, "cyclic_subgroup_catalog": 37
    }


def test_flat_equiv_and_enough_pi_at_three_primes_and_a_prime_cube(monkeypatch):
    """The partition criteria work prime by prime, so n = 30 (three
    primes) and n = 27 (3^3) test them where the default moduli do not.
    At order <= 32, kernel <= 8 both suites pass, with the same report as
    on the unfiltered walks."""
    config = SuiteConfig(moduli=(27, 30), max_module_order=32, max_kernel_order=8)
    names = ("flat-equiv", "enough-pi")
    report, _ = cold_run(config, names)
    assert [(s["name"], s["checked"], s["failed"]) for s in report["suites"]] == [
        ("flat-equiv", 1115, 0),
        ("enough-pi", 26, 0),
    ]
    patch_in_the_unfiltered_walks(monkeypatch)
    assert cold_run(config, names)[0] == report


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------


def test_enumerate_complexes_frozen_counts():
    # n=2, span 3, components <= 2: by hand —
    #   zero complex: 1
    #   one slot [2]: 1
    #   two slots ([2],[2]): 2 differentials (0 and id): 2
    #   three slots ([2],0,[2]): 1;  ([2],[2],[2]): pairs with d1 d0 = 0: 3
    assert len(enumerate_complexes(2, 3)) == 8
    # n=4, span 2, components <= 4: 1 + 2 spheres + (2+2+2+4) two-slot = 13
    assert len(enumerate_complexes(4, 2)) == 13


def test_enumerate_complexes_no_duplicates_and_valid():
    seen = set()
    for x in enumerate_complexes(4, 3):
        key = (
            x.lo,
            tuple(m.invariant_factors for m in x.components),
            tuple(d.matrix for d in x.differentials),
        )
        assert key not in seen
        seen.add(key)
        for m in x.components:
            assert m.order <= 4
        assert len(x.components) <= 3


def composite_filtered_complexes(n: int, span: int, max_component_order: int):
    """The complexes of ``enumerate_complexes``, with d . d == 0 tested on
    composite morphisms: the stacks are built as there, in the same order."""
    ring = RingSpec(n)
    cyclics = [m for m in enumerate_modules(n, max_component_order) if m.rank() == 1]
    out = [zero_complex(ring)]
    for s in range(1, span + 1):
        inner = [ring.zero_module()] + cyclics
        universes = [cyclics if pos in (0, s - 1) else inner for pos in range(s)]
        for comps in itertools.product(*universes):
            stacks = [[]]
            for i in range(s - 1):
                stacks = [
                    stack + [d]
                    for stack in stacks
                    for d in enumerate_morphisms(comps[i], comps[i + 1])
                    if not stack or (d @ stack[-1]).is_zero_morphism
                ]
            out += [Complex(ring, 0, comps, tuple(stack)) for stack in stacks]
    return tuple(out)


@pytest.mark.parametrize("n", [4, 9])
def test_enumerate_complexes_builds_no_composite(monkeypatch, n):
    """The d . d == 0 filter reads the residue rows of the composite; the
    family is the one the composite filter gives."""
    calls = []
    real = Morphism.__matmul__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(Morphism, "__matmul__", counting)
    family = enumerate_complexes.__wrapped__(n, 3)
    monkeypatch.undo()
    assert calls == []
    assert family == composite_filtered_complexes(n, 3, n)


@pytest.mark.parametrize(
    "n,span,count,digest",
    [
        (4, 4, 241, "e2f0a288ae0063ee9e2124b555850ec1676d7f7cdb07576045f3c9e8a696b7ba"),
        (9, 4, 657, "78c2afa22656f5d11a2217fa73322a034d98011343618795cf75d74b3164fb45"),
        (12, 3, 983, "0d3a958861c80165a8e5a3cac9c7f3d88b5633b22a6102ebff601ff2548da6aa"),
    ],
    ids=["4-4", "9-4", "12-3"],
)
def test_enumerate_complexes_order_is_pinned(n, span, count, digest):
    """Sample mode picks complexes by index, so the order of
    ``enumerate_complexes`` decides what a sampled run checks."""
    seq = [x.to_dict() for x in enumerate_complexes(n, span)]
    assert len(seq) == count
    assert hashlib.sha256(json.dumps(seq, sort_keys=True).encode()).hexdigest() == digest


def counted_morphism_walks(monkeypatch):
    """Record the (dom, cod) of every ``enumerate_morphisms`` call made
    through ``modcat.enumeration``."""
    calls = []
    real = enumerate_morphisms

    def counting(dom, cod):
        calls.append((dom, cod))
        return real(dom, cod)

    monkeypatch.setattr(modcat.enumeration, "enumerate_morphisms", counting)
    return calls


def test_complex_enumeration_walks_each_level_once(monkeypatch):
    """One morphism walk per adjacent pair of each component tuple: at
    n = 4, span 3, 4 two-slot tuples and 12 three-slot tuples give 28."""
    calls = counted_morphism_walks(monkeypatch)
    enumerate_complexes.__wrapped__(4, 3)
    assert len(calls) == 28


def test_family_middles_walk_each_level_once(monkeypatch):
    """A combo with a lift at every degree walks Hom(Y^n, X^(n+1)) once per
    level, whatever the number of stacks; a combo without one walks none.
    Span 3 gives combos with two levels."""
    calls = counted_morphism_walks(monkeypatch)
    deep = 0
    for n, span in [(4, 2), (9, 2), (3, 3)]:
        for f in enumerate_complexes(n, span)[1:]:
            per_degree = [
                list(conflations_ending_in(c, COMPLEX_KERNEL_CAP, c.order * COMPLEX_KERNEL_CAP))
                for c in f.components
            ]
            for combo in itertools.product(*per_degree):
                calls.clear()
                stacks = list(_complete_differentials(f, combo))
                levels = [(here.ambient, there.sub) for here, there in zip(combo, combo[1:])]
                assert calls in ([], levels)
                if stacks:
                    assert calls == levels
                deep += len(calls) > 1
    assert deep > 0


def test_complex_conflation_from_chain_epi():
    cover = flat_disk_cover(two_term_complex(multiplication(cyclic(RingSpec(4), 4), 2)))
    rebuilt = complex_conflation_from_chain_epi(cover.g)
    assert rebuilt.quotient == cover.quotient
    assert rebuilt.total == cover.total
    for n in rebuilt.total.degrees():
        assert rebuilt.sub.component(n).order == cover.sub.component(n).order


def direct_sum_disk_cover(f):
    """The disk cover assembled through canonical direct sums of free modules."""
    ring = f.ring
    if f.is_zero:
        g = ChainMap(zero_complex(ring), f, ())
        return ComplexConflation(g, ChainMap(f, f, ()))
    free = {
        n: FiniteModule(ring, (ring.modulus,) * f.component(n).rank())
        for n in range(f.lo, f.hi + 1)
    }
    free[f.lo - 1] = ring.zero_module()
    free[f.hi + 1] = ring.zero_module()
    covers = {
        n: Morphism(
            free[n],
            f.component(n),
            tuple(
                tuple(1 if i == j else 0 for i in range(free[n].rank()))
                for j in range(f.component(n).rank())
            ),
        )
        for n in range(f.lo, f.hi + 1)
    }
    comps = []
    parts = []
    window = list(range(f.lo, f.hi + 2))
    q_data = {}
    for n in window:
        lower = free.get(n, ring.zero_module())
        upper = free.get(n - 1, ring.zero_module())
        ds = direct_sum(lower, upper)
        q_data[n] = ds
        comps.append(ds.module)
    diffs = []
    for idx, n in enumerate(window[:-1]):
        src = q_data[n]
        dst = q_data[n + 1]
        lower = free.get(n, ring.zero_module())
        step = dst.injections[1] @ Morphism.identity(lower) @ src.projections[0]
        diffs.append(step)
    q = Complex(ring, f.lo, tuple(comps), tuple(diffs))
    for n in q.degrees():
        ds = q_data[n]
        lower = covers.get(n)
        upper = covers.get(n - 1)
        term = None
        if lower is not None:
            term = lower @ ds.projections[0]
        if upper is not None:
            boundary = f.differential(n - 1) @ upper @ ds.projections[1]
            term = boundary if term is None else term + boundary
        if term is None:
            term = Morphism.zero(ds.module, f.component(n))
        parts.append(term)
    g = ChainMap(q, f, tuple(parts))
    return complex_conflation_from_chain_epi(g)


@pytest.mark.parametrize("n", [4, 9])
def test_flat_disk_cover_matches_direct_sum_oracle(n):
    complexes = enumerate_complexes(n, 4)
    assert len(complexes) > 100
    for f in complexes:
        assert flat_disk_cover(f) == direct_sum_disk_cover(f)


def test_flat_disk_cover_shapes():
    r = RingSpec(4)
    f = single_complex(cyclic(r, 2), degree=3)
    cover = flat_disk_cover(f)
    assert cover.quotient == f
    assert is_flat(cover.total.component(3))
    assert is_flat(cover.total.component(4))
    z = flat_disk_cover(Complex(r, 0, (), ()))
    assert z.quotient.is_zero and z.total.is_zero


def test_enumerate_complex_conflations_ending_in():
    r = RingSpec(4)
    f = two_term_complex(multiplication(cyclic(r, 4), 2))
    items = list(enumerate_complex_conflations_ending_in(f, 4, 5))
    # the uncapped disk cover plus at most max_count walked extras
    assert 1 <= len(items) <= 6
    first = items[0]
    # the flat disk cover always leads
    from modcat.complexes import is_flat_complex

    assert is_flat_complex(first.total)
    for cc in items:
        assert isinstance(cc, ComplexConflation)
        assert cc.quotient == f


def test_uncapped_middles_match_the_hom_coordinate_route():
    """Every middle over every combo of per-degree conflations, once each.

    The walk lifts each differential once and adds corrections into the
    kernel of the next deflation; the oracle solves p . D = d_f . p and
    D . D_prev = 0 in hom-module coordinates and walks the whole coset.
    Span 3 puts the D . D_prev filter to work.
    """
    def matrices(stack):
        return tuple(d.matrix for d in stack)

    combos = 0
    for n, span in [(4, 2), (9, 2), (3, 3)]:
        for f in enumerate_complexes(n, span)[1:]:
            per_degree = [
                list(conflations_ending_in(c, COMPLEX_KERNEL_CAP, c.order * COMPLEX_KERNEL_CAP))
                for c in f.components
            ]
            for combo in itertools.product(*per_degree):
                got = [matrices(stack) for stack in _complete_differentials(f, combo)]
                want = {matrices(stack) for stack in hom_coordinate_middles(f, combo)}
                assert len(set(got)) == len(got)
                assert set(got) == want, (f, combo)
                combos += 1
    assert combos > 3000


@pytest.mark.parametrize(
    "n,span,count,digest",
    [
        (4, 3, 365, "c2e6b49eaea3e753a63b2bc42d75221d1940541ebaab2ff82a215891c4873fbc"),
        (9, 3, 725, "08d0510f87059c02dd2c1bd923d71035acf02559525a58c30bf52237e1bd4fba"),
        (12, 2, 589, "267a36cf7a7efe71cc84001bbd16373facefa1eeadc0a5fa5f6e225324fcbfbc"),
    ],
    ids=["4-3", "9-3", "12-2"],
)
def test_capped_complex_families_are_pinned(n, span, count, digest):
    """The capped families the complexes suite checks, both halves of
    each conflation.

    Under COMPLEX_FAMILY_CAP the walk order decides which conflations are
    checked: combos in product order over the per-degree catalogs, then
    middles depth first, each differential one lift plus a correction E
    into the next kernel in ``enumerate_morphisms`` order.  A change of
    basis anywhere under it (a lift, a kernel inclusion) would silently
    change the suite's coverage.  A change that means to choose the family
    differently updates these pins.

    Every middle after the disk cover is read off its catalog entries; it
    equals the completion of its deflation through ``kernel`` and the
    validating constructors.
    """
    seq = []
    for x in enumerate_complexes(n, span):
        family = enumerate_complex_conflations_ending_in(x, COMPLEX_KERNEL_CAP, COMPLEX_FAMILY_CAP)
        for i, cc in enumerate(family):
            if i:
                assert cc == complex_conflation_from_chain_epi(cc.g)
            seq.append(cc.to_dict())
    assert len(seq) == count
    assert hashlib.sha256(json.dumps(seq, sort_keys=True).encode()).hexdigest() == digest
