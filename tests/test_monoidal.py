"""Tensor products, hom modules, and the tensor-hom adjunction.

Two independent oracles:
  * the tensor of two small modules is rebuilt as the abelian group
    presented by all element pairs modulo bilinearity (the canonical-form
    code only ever sees the raw relation matrix),
  * hom modules are counted against a scan over all functions that
    happen to be additive.
"""

import itertools
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcat.modules import FiniteModule, Morphism, RingSpec, cyclic, direct_sum_many
from modcat.monoidal import (
    curry,
    evaluation,
    hom_module,
    tensor,
    tensor_mor,
    uncurry,
)
from modcat.snf import snf_diagonal
from modcat.enumeration import enumerate_modules, enumerate_morphisms, subgroup_catalog

from helpers import (
    multiplication,
    per_term_tensor_mor,
    postcompose_map,
    precompose_map,
    sample_morphisms,
    source_mutant,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def bilinear_quotient_factors(m: FiniteModule, n: FiniteModule) -> tuple[int, ...]:
    """Invariant factors of the group <pairs | bilinearity>, from scratch.

    Generators: one free-abelian generator per element pair (x, y).
    Relations: (x+x', y) = (x, y) + (x', y) and symmetrically.  Scalar
    compatibility over Z/n is a consequence, since scalars are integers.
    """
    xs = list(m.elements())
    ys = list(n.elements())
    index = {(x, y): t for t, (x, y) in enumerate(itertools.product(xs, ys))}
    width = len(index)
    rows = []
    for x, x2 in itertools.product(xs, repeat=2):
        for y in ys:
            row = [0] * width
            row[index[(m.add(x, x2), y)]] += 1
            row[index[(x, y)]] -= 1
            row[index[(x2, y)]] -= 1
            if any(row):
                rows.append(row)
    for y, y2 in itertools.product(ys, repeat=2):
        for x in xs:
            row = [0] * width
            row[index[(x, n.add(y, y2))]] += 1
            row[index[(x, y)]] -= 1
            row[index[(x, y2)]] -= 1
            if any(row):
                rows.append(row)
    diag = snf_diagonal(rows) if rows else []
    assert len(diag) == width and all(diag), "bilinear relations must have full rank"
    return tuple(sorted(d for d in diag if d > 1))


def brute_additive_map_count(m: FiniteModule, n: FiniteModule) -> int:
    """Count additive functions M -> N by scanning all functions (tiny only)."""
    xs = list(m.elements())
    count = 0
    for values in itertools.product(list(n.elements()), repeat=len(xs)):
        table = dict(zip(xs, values))
        if all(
            table[m.add(a, b)] == n.add(table[a], table[b])
            for a in xs
            for b in xs
        ):
            count += 1
    return count


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12])
def test_cyclic_tensor_and_hom_orders_are_gcds(n):
    r = RingSpec(n)
    for a in r.divisors():
        for b in r.divisors():
            t = tensor(cyclic(r, a), cyclic(r, b))
            h = hom_module(cyclic(r, a), cyclic(r, b))
            assert t.module.order == gcd(a, b)
            assert h.module.order == gcd(a, b)


@pytest.mark.parametrize(
    "n,mf,nf",
    [
        (4, (2,), (4,)),
        (4, (2, 4), (4,)),
        (6, (2,), (3,)),
        (6, (6,), (6,)),
        (8, (2, 4), (2, 4)),
        (9, (3,), (3, 9)),
        (12, (2, 12), (3,)),
    ],
)
def test_tensor_matches_bilinear_presentation(n, mf, nf):
    r = RingSpec(n)
    m, w = FiniteModule(r, mf), FiniteModule(r, nf)
    t = tensor(m, w)
    assert tuple(t.module.invariant_factors) == bilinear_quotient_factors(m, w)


def test_pure_tensor_is_bilinear_and_generates():
    r = RingSpec(8)
    m = FiniteModule(r, (2, 8))
    w = FiniteModule(r, (4,))
    t = tensor(m, w)
    for x in m.elements():
        for x2 in m.elements():
            for y in w.elements():
                left = t.pure(m.add(x, x2), y)
                right = t.module.add(t.pure(x, y), t.pure(x2, y))
                assert left == right
    for y in w.elements():
        for y2 in w.elements():
            x = (1, 1)
            assert t.pure(x, w.add(y, y2)) == t.module.add(t.pure(x, y), t.pure(x, y2))
    reached = {t.pure(x, y) for x in m.elements() for y in w.elements()}
    # pure tensors need not be closed under addition, but they must generate
    span = set(reached)
    frontier = list(reached)
    while frontier:
        a = frontier.pop()
        for b in reached:
            c = t.module.add(a, b)
            if c not in span:
                span.add(c)
                frontier.append(c)
    assert len(span) == t.module.order


def test_expand_inverts_pure_on_canonical_basis():
    r = RingSpec(12)
    m = FiniteModule(r, (2, 12))
    w = FiniteModule(r, (6,))
    t = tensor(m, w)
    for z in t.module.elements():
        acc = t.module.zero_element()
        for c, i, j in t.expand(z):
            xi = tuple(1 if s == i else 0 for s in range(m.rank()))
            yj = tuple(1 if s == j else 0 for s in range(w.rank()))
            acc = t.module.add(acc, t.module.scale(c, t.pure(xi, yj)))
        assert acc == z


def test_tensor_mor_functorial():
    r = RingSpec(12)
    pool = [m for m in enumerate_modules(12, 12) if m.order <= 12]
    for a in pool[:6]:
        for b in pool[:6]:
            ida, idb = Morphism.identity(a), Morphism.identity(b)
            assert tensor_mor(ida, idb) == Morphism.identity(tensor(a, b).module)
    a, b, c = FiniteModule(r, (4,)), FiniteModule(r, (2, 12)), FiniteModule(r, (6,))
    for f in sample_morphisms(a, b, 3, seed=41):
        for g in sample_morphisms(b, c, 3, seed=43):
            for u in sample_morphisms(c, a, 3, seed=47):
                lhs = tensor_mor(g @ f, u @ g)
                rhs = tensor_mor(g, u) @ tensor_mor(f, g)
                assert lhs == rhs


@pytest.mark.parametrize("n", [4, 8, 9, 12])
def test_tensor_mor_is_the_per_term_tensor(n):
    # Every pair of morphisms between modules of order <= 4, and every
    # morphism between modules of order <= 8 against every 97th one from
    # an offset of its own index, so each appears as f and as g (all pairs
    # at order <= 8 are about three million).
    def morphisms(bound):
        mods = list(enumerate_modules(n, bound))
        return [f for a in mods for b in mods for f in enumerate_morphisms(a, b)]

    small, large = morphisms(4), morphisms(8)
    pairs = [(f, g) for f in small for g in small]
    pairs += [(f, g) for k, f in enumerate(large) for g in large[k % 97 :: 97]]
    assert sum(g != Morphism.identity(g.domain) for _, g in pairs) > len(pairs) // 2
    # (source tensor zero, target tensor zero, all four ends nonzero): the
    # rows are the transpose of the columns, so a zero source has one empty
    # row per target factor and a zero target none.  Over Z/12 the tensor
    # of two nonzero modules can be zero (Z/3 (x) Z/4).
    shapes = Counter()
    for f, g in pairs:
        fg = tensor_mor(f, g)
        assert fg == per_term_tensor_mor(f, g)
        src, dst = fg.domain, fg.codomain
        if src.is_zero or dst.is_zero:
            assert fg.matrix == ((),) * dst.rank()
        ends = (f.domain, f.codomain, g.domain, g.codomain)
        shapes[src.is_zero, dst.is_zero, not any(m.is_zero for m in ends)] += 1
    zero_shapes = {(True, False), (False, True), (True, True)}
    expected = {(False, False, True)} | {z + (False,) for z in zero_shapes}
    if n == 12:
        expected |= {z + (True,) for z in zero_shapes}
    assert set(shapes) == expected


def test_a_tensor_mor_with_k_transposed_fails_the_per_term_test(monkeypatch):
    """K's rows and columns swapped: the products read the transpose of
    f (x) g, cut to the lengths of their factors, which gives f (x) g only
    by accident.  The per-term comparison catches it."""
    mutant = source_mutant(tensor_mor, "k_cols = list(zip(*k))", "k_cols = k")
    monkeypatch.setitem(globals(), "tensor_mor", mutant)
    with pytest.raises(AssertionError):
        test_tensor_mor_is_the_per_term_tensor(4)


@pytest.mark.parametrize("n", [4, 12])
def test_tensor_mor_with_a_zero_end(n):
    """f (x) g where one end of f is the zero module: the source tensor is
    zero (one empty row per target factor) or the target tensor is (no
    rows), and both match the per-term tensor, on either side of g."""
    zero = RingSpec(n).zero_module()
    mods = [m for m in enumerate_modules(n, 12) if not m.is_zero]
    for m in mods:
        for f in (Morphism.zero(zero, m), Morphism.zero(m, zero)):
            for w in mods:
                for g in (Morphism.identity(w), multiplication(w, n - 1)):
                    for a, b in ((f, g), (g, f)):
                        ab = tensor_mor(a, b)
                        assert ab == per_term_tensor_mor(a, b)
                        assert ab.domain.is_zero or ab.codomain.is_zero
                        assert ab.matrix == ((),) * ab.codomain.rank()


def test_tensor_mor_over_pairs_of_order_one():
    """Over Z/12 a pair of coprime factors, as in Z/3 (x) Z/4 = 0, is a
    generator of order 1 of the pair sum, which the canonical form drops:
    its image and lift still enter the two products.  Every morphism
    between modules with 3- and 2-parts, tensored with every morphism
    between Z/3, Z/4 and Z/2 + Z/6, matches the per-term tensor."""
    r = RingSpec(12)
    pool = [FiniteModule(r, d) for d in ((3,), (4,), (2, 6), (6,), (12,), (2, 12))]
    fs = [f for a in pool for b in pool for f in enumerate_morphisms(a, b)]
    gs = [g for a in pool[:3] for b in pool[:3] for g in enumerate_morphisms(a, b)]
    coprime = Counter()
    for f in fs:
        for g in gs:
            fg = tensor_mor(f, g)
            assert fg == per_term_tensor_mor(f, g)
            for side, a, b in (("src", f.domain, g.domain), ("dst", f.codomain, g.codomain)):
                d, e = a.invariant_factors, b.invariant_factors
                if 1 in [gcd(x, y) for x in d for y in e]:
                    coprime[side, tensor(a, b).module.is_zero] += 1
    assert set(coprime) == {("src", True), ("src", False), ("dst", True), ("dst", False)}


@pytest.mark.parametrize("n", [4, 8, 9, 12])
def test_tensor_mor_on_the_purity_oracles_shape(n):
    """The purity oracle tensors each conflation with Z/d for every d | n:
    f (x) id_{Z/d} for every inclusion and projection of the subgroup
    catalog of every module of order <= 32 matches the per-term tensor."""
    ring = RingSpec(n)
    ids = [Morphism.identity(cyclic(ring, d)) for d in ring.divisors() if d > 1]
    count = 0
    for y in enumerate_modules(n, 32):
        for entry in subgroup_catalog(y):
            for f in (entry.inclusion, entry.projection):
                for i in ids:
                    assert tensor_mor(f, i) == per_term_tensor_mor(f, i)
                    count += 1
    assert count > 100


def test_pure_checks_its_factors():
    """``pure`` checks x against ``left`` and y against ``right`` where they
    enter, since ``combine`` checks no entry."""
    r = RingSpec(8)
    t = tensor(FiniteModule(r, (2, 8)), FiniteModule(r, (4,)))
    assert t.pure((1, 3), (2,)) == t.combine([2, 6])
    with pytest.raises(TypeError, match="not an int"):
        t.pure((1, 1.0), (2,))
    with pytest.raises(TypeError, match="not an int"):
        t.pure((1, 1), (2.5,))
    with pytest.raises(ValueError, match="not the rank 2"):
        t.pure((1,), (2,))
    with pytest.raises(ValueError, match="not the rank 1"):
        t.pure((1, 1), (2, 0))


def test_tensor_mor_on_pure_tensors():
    r = RingSpec(8)
    a, b = FiniteModule(r, (2, 8)), FiniteModule(r, (4,))
    f = multiplication(a, 3)
    g = multiplication(b, 2)
    t = tensor(a, b)
    fg = tensor_mor(f, g)
    for x in a.elements():
        for y in b.elements():
            assert fg.apply(t.pure(x, y)) == t.pure(f.apply(x), g.apply(y))


# ---------------------------------------------------------------------------
# hom
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,mf,nf",
    [
        (4, (2,), (4,)),
        (4, (4,), (2,)),
        (4, (2, 2), (4,)),
        (6, (2,), (3,)),
        (9, (3,), (3,)),
    ],
)
def test_hom_count_matches_additive_function_scan(n, mf, nf):
    r = RingSpec(n)
    m, w = FiniteModule(r, mf), FiniteModule(r, nf)
    assert hom_module(m, w).module.order == brute_additive_map_count(m, w)


def test_hom_coordinates_biject_with_morphisms():
    r = RingSpec(12)
    m = FiniteModule(r, (2, 12))
    w = FiniteModule(r, (6,))
    h = hom_module(m, w)
    seen = set()
    for z in h.module.elements():
        mor = h.to_morphism(z)
        assert h.of_morphism(mor) == z
        assert mor.domain == m and mor.codomain == w
        seen.add(mor.matrix)
    assert len(seen) == h.module.order


def test_postcompose_and_precompose_act_correctly():
    r = RingSpec(8)
    m = FiniteModule(r, (2, 4))
    n1 = FiniteModule(r, (8,))
    n2 = FiniteModule(r, (4,))
    for g in sample_morphisms(n1, n2, 4, seed=53):
        post = postcompose_map(g, m)
        h_in, h_out = hom_module(m, n1), hom_module(m, n2)
        for z in h_in.module.elements():
            assert h_out.to_morphism(post.apply(z)) == g @ h_in.to_morphism(z)
    for f in sample_morphisms(n2, m, 4, seed=59):
        pre = precompose_map(f, n1)
        h_in, h_out = hom_module(m, n1), hom_module(n2, n1)
        for z in h_in.module.elements():
            assert h_out.to_morphism(pre.apply(z)) == h_in.to_morphism(z) @ f


def test_hom_functor_composition_laws():
    r = RingSpec(4)
    m = FiniteModule(r, (2, 4))
    a, b, c = cyclic(r, 4), cyclic(r, 2), cyclic(r, 4)
    for g1 in sample_morphisms(a, b, 3, seed=61):
        for g2 in sample_morphisms(b, c, 3, seed=67):
            assert postcompose_map(g2 @ g1, m) == postcompose_map(g2, m) @ postcompose_map(g1, m)
            assert precompose_map(g2 @ g1, m) == precompose_map(g1, m) @ precompose_map(g2, m)
    assert postcompose_map(Morphism.identity(a), m) == Morphism.identity(hom_module(m, a).module)
    assert precompose_map(Morphism.identity(a), m) == Morphism.identity(hom_module(a, m).module)


# ---------------------------------------------------------------------------
# adjunction
# ---------------------------------------------------------------------------


TRIPLES = [
    (4, (2,), (4,), (2, 4)),
    (4, (2, 4), (2,), (4,)),
    (8, (2, 8), (4,), (2,)),
    (9, (3, 9), (3,), (9,)),
    (12, (2, 12), (6,), (4,)),
    (6, (6,), (2, 6), (3,)),
]


@pytest.mark.parametrize("n,ff,gf,kf", TRIPLES)
def test_curry_uncurry_mutually_inverse(n, ff, gf, kf):
    r = RingSpec(n)
    f_mod, g_mod, k_mod = (FiniteModule(r, x) for x in (ff, gf, kf))
    t = tensor(f_mod, g_mod)
    h = hom_module(g_mod, k_mod)
    for f in sample_morphisms(t.module, k_mod, 5, seed=71):
        assert uncurry(curry(f, f_mod, g_mod), f_mod, g_mod, k_mod) == f
    for g in sample_morphisms(f_mod, h.module, 5, seed=73):
        assert curry(uncurry(g, f_mod, g_mod, k_mod), f_mod, g_mod) == g


def test_curry_agrees_with_pointwise_slices():
    r = RingSpec(8)
    f_mod, g_mod, k_mod = FiniteModule(r, (4,)), FiniteModule(r, (2, 8)), FiniteModule(r, (8,))
    t = tensor(f_mod, g_mod)
    h = hom_module(g_mod, k_mod)
    for f in sample_morphisms(t.module, k_mod, 4, seed=79):
        cf = curry(f, f_mod, g_mod)
        for x in f_mod.elements():
            slice_mor = h.to_morphism(cf.apply(x))
            for y in g_mod.elements():
                assert slice_mor.apply(y) == f.apply(t.pure(x, y))


def test_naturality_in_all_three_arguments():
    r = RingSpec(12)
    f_mod, g_mod, k_mod = FiniteModule(r, (2, 6)), FiniteModule(r, (4,)), FiniteModule(r, (12,))
    f2_mod, g2_mod, k2_mod = FiniteModule(r, (6,)), FiniteModule(r, (2, 4)), FiniteModule(r, (6,))
    t = tensor(f_mod, g_mod)
    for f in sample_morphisms(t.module, k_mod, 3, seed=83):
        cf = curry(f, f_mod, g_mod)
        # in the first argument: precompose with u (x) id
        for u in sample_morphisms(f2_mod, f_mod, 3, seed=89):
            lhs = curry(f @ tensor_mor(u, Morphism.identity(g_mod)), f2_mod, g_mod)
            assert lhs == cf @ u
        # in the second: postcompose the hom side with (- . v)
        for v in sample_morphisms(g2_mod, g_mod, 3, seed=97):
            lhs = curry(f @ tensor_mor(Morphism.identity(f_mod), v), f_mod, g2_mod)
            assert lhs == precompose_map(v, k_mod) @ cf
        # in the third: postcompose with w
        for w in sample_morphisms(k_mod, k2_mod, 3, seed=101):
            lhs = curry(w @ f, f_mod, g_mod)
            assert lhs == postcompose_map(w, g_mod) @ cf


def test_evaluation_is_the_counit():
    r = RingSpec(8)
    m, n = FiniteModule(r, (2, 4)), FiniteModule(r, (8,))
    h = hom_module(m, n)
    ev = evaluation(m, n)
    t = tensor(h.module, m)
    for z in h.module.elements():
        mor = h.to_morphism(z)
        for x in m.elements():
            assert ev.apply(t.pure(z, x)) == mor.apply(x)
    # counit law: ev . (curry(f) (x) id) == f
    f_mod = FiniteModule(r, (4,))
    tf = tensor(f_mod, m)
    for f in sample_morphisms(tf.module, n, 4, seed=103):
        cf = curry(f, f_mod, m)
        assert ev @ tensor_mor(cf, Morphism.identity(m)) == f


# ---------------------------------------------------------------------------
# generator lifts of the pair sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 8, 9, 12])
def test_pair_sum_lifts_and_coordinates_change_coordinates_both_ways(n):
    """Every tensor, hom module and direct sum of two modules of order
    <= 16: each generator lift combines to its canonical unit, coordinates
    send each pair generator back to itself modulo its order gcd(d_i, e_j),
    and combine . coordinates is the identity on every element of a module
    of order <= 256 (on the units of larger ones, which suffices as both
    maps are additive).  A direct sum reads its projections off the lifts,
    so its biproduct identities are the same statement."""
    mods = enumerate_modules(n, 16)
    for a, b in itertools.product(mods, repeat=2):
        orders = [gcd(d, e) for d in a.invariant_factors for e in b.invariant_factors]
        for can in (tensor(a, b), hom_module(a, b)):
            m = can.module
            units = [tuple(1 if s == t else 0 for s in range(m.rank())) for t in range(m.rank())]
            assert [can.combine(lift) for lift in can.generator_lifts] == units
            for i, img in enumerate(can.generator_images):
                back = can.coordinates(img)
                assert all((x - (u == i)) % o == 0 for u, (x, o) in enumerate(zip(back, orders)))
            for z in m.elements() if m.order <= 256 else units:
                assert can.combine(can.coordinates(z)) == z
        ds = direct_sum_many((a, b))
        for k, (proj, part) in enumerate(zip(ds.projections, (a, b))):
            for l, inj in enumerate(ds.injections):
                expect = Morphism.identity(part) if k == l else Morphism.zero(inj.domain, part)
                assert proj @ inj == expect
        total = ds.injections[0] @ ds.projections[0] + ds.injections[1] @ ds.projections[1]
        assert total == Morphism.identity(ds.module)
