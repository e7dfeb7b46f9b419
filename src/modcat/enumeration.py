"""Deterministic enumeration of modules, morphisms, conflations, complexes.

Everything here is ordered and reproducible: module lists sort by
(order, rank, factors), matrix enumerations walk entries row-major, and
subgroup walks run over canonical Hermite-form bases, so two runs with
the same bounds always visit the same objects in the same order.

Subgroups of a module Y correspond to integer lattices between Y's
relation lattice and the full ambient lattice; those are enumerated as
reduced upper-triangular bases (pivots dividing Y's invariant factors,
entries above each pivot reduced mod the pivot) filtered by containment
of the relation lattice.  Each valid basis is its own Hermite normal
form, so distinct candidates are distinct subgroups and the walk is
complete.  Conflations ending in a given module come from two
complementary families: the full subgroup walk while the middle stays
small, and single-generator (cyclic) subgroups — enumerable by walking
elements — with no cap on the middle.  Together they are discriminating:
a non-flat end always admits a non-pure conflation with cyclic prime
kernel, middle = end order times p.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, lcm

from .complexes import (
    ChainMap,
    Complex,
    ComplexConflation,
    zero_complex,
)
from .exact import Conflation
from .modules import (
    FiniteModule,
    Morphism,
    RingSpec,
    _compose_rows,
    _generator_map,
    cokernel,
    factor_through_mono,
    kernel,
    solve_blocks,
)
from .snf import hermite_normal_form, lattice_member, snf_diagonal


# ---------------------------------------------------------------------------
# modules and morphisms
# ---------------------------------------------------------------------------


@lru_cache(maxsize=512)
def enumerate_modules(n: int, max_order: int) -> tuple[FiniteModule, ...]:
    """All canonical modules over Z/n of order <= max_order, sorted."""
    if max_order < 1:
        return ()
    ring = RingSpec(n)
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    chains = [()]

    def extend(chain: tuple[int, ...], product: int):
        last = chain[-1] if chain else 1
        for d in divisors:
            if d % last == 0 and product * d <= max_order:
                chains.append(chain + (d,))
                extend(chain + (d,), product * d)

    if max_order >= 2:
        extend((), 1)
    mods = [FiniteModule(ring, c) for c in chains]
    mods.sort(key=lambda m: (m.order, m.rank(), m.invariant_factors))
    return tuple(mods)


def modules_of_order(n: int, order: int) -> tuple[FiniteModule, ...]:
    return tuple(m for m in enumerate_modules(n, order) if m.order == order)


def enumerate_morphisms(dom: FiniteModule, cod: FiniteModule):
    """All morphisms dom -> cod, entries walked row-major."""
    d = dom.invariant_factors
    e = cod.invariant_factors
    cells = []
    for j in range(len(e)):
        for i in range(len(d)):
            g = gcd(d[i], e[j])
            step = e[j] // g
            cells.append([t * step for t in range(g)])
    k = len(d)
    for combo in itertools.product(*cells):
        matrix = tuple(combo[j * k : (j + 1) * k] for j in range(len(e)))
        yield Morphism(dom, cod, matrix)


# ---------------------------------------------------------------------------
# subgroup walks
# ---------------------------------------------------------------------------


class SubgroupEntry:
    """A subgroup of a fixed ambient module with its conflation data.

    ``key`` is the canonical Hermite basis of the subgroup's lattice, the
    ambient relations included, and ``rows`` generate the subgroup.  The
    two invariants the filters read, ``quotient`` and ``sub_order``, come
    from one Smith diagonal of ``key`` up front.  ``sub``, ``inclusion``
    and ``projection`` are built from ``rows`` on first use and cached,
    because a run usually checks only a few entries of each catalog it
    walks; building checks them against the two invariants.
    """

    __slots__ = (
        "ambient", "key", "quotient", "sub_order", "_rows", "_sub", "_inclusion", "_projection"
    )

    def __init__(self, ambient: FiniteModule, key: tuple, rows):
        factors = tuple(x for x in snf_diagonal([list(r) for r in key]) if x > 1)
        self.ambient = ambient
        self.key = key
        self.quotient = FiniteModule(ambient.ring, factors)
        self.sub_order = ambient.order // self.quotient.order
        self._rows = rows
        self._sub = None

    def _build(self) -> None:
        quot, proj = cokernel(_generator_map(self.ambient, self._rows))
        sub, incl = kernel(proj)
        if quot != self.quotient or sub.order != self.sub_order:
            raise AssertionError("built subgroup disagrees with its Smith invariants")
        self._sub, self._inclusion, self._projection = sub, incl, proj
        self._rows = None

    @property
    def sub(self) -> FiniteModule:
        if self._sub is None:
            self._build()
        return self._sub

    @property
    def inclusion(self) -> Morphism:
        if self._sub is None:
            self._build()
        return self._inclusion

    @property
    def projection(self) -> Morphism:
        if self._sub is None:
            self._build()
        return self._projection

    def conflation(self) -> Conflation:
        return Conflation(self.inclusion, self.projection)


@lru_cache(maxsize=2048)
def subgroup_catalog(y: FiniteModule) -> tuple[SubgroupEntry, ...]:
    """Every subgroup of y, via the complete Hermite-basis walk.

    Rows are chosen bottom-up.  Whether row i's ambient relation
    d_i * e_i lies in the lattice depends only on rows i..k-1, so each
    partial choice is checked immediately and dead branches are cut
    before the walk ever touches the rows above them.
    """
    d = y.invariant_factors
    k = len(d)
    entries = []

    def walk(i: int, below: list[list[int]]):
        if i < 0:
            key = tuple(tuple(r) for r in below)
            entries.append(SubgroupEntry(y, key, key))
            return
        pivots = {j: below[j - i - 1][j] for j in range(i + 1, k)}
        for h in range(1, d[i] + 1):
            if d[i] % h:
                continue
            for tail in itertools.product(*[range(pivots[j]) for j in range(i + 1, k)]):
                row = [0] * i + [h] + list(tail)
                cand = [row] + below
                if lattice_member(cand, [d[i] if c == i else 0 for c in range(k)]):
                    walk(i - 1, cand)

    walk(k - 1, [])
    return tuple(entries)


@lru_cache(maxsize=4096)
def cyclic_subgroup_catalog(y: FiniteModule, order: int) -> tuple[SubgroupEntry, ...]:
    """Every cyclic subgroup of y of the given order, one Hermite form each.

    The generators of a cyclic group of order o are exactly u*x with u a
    unit mod o.  Elements are walked in lexicographic order, so the first
    element of order ``order`` not yet covered is the lex-first generator of
    its subgroup; marking its unit multiples covers the subgroup's other
    generators.  Entries come in the order of their lex-first generators,
    with that generator as the single row.
    """
    d = y.invariant_factors
    k = len(d)
    if (d[-1] if d else 1) % order:
        return ()
    relations = [[d[i] if c == i else 0 for c in range(k)] for i in range(k)]
    units = [u for u in range(order) if gcd(u, order) == 1]
    covered = set()
    keys = set()
    entries = []
    for x in y.elements():
        if x in covered or lcm(*(di // gcd(xi, di) for xi, di in zip(x, d))) != order:
            continue
        covered.update(tuple(u * xi % di for xi, di in zip(x, d)) for u in units)
        key = tuple(tuple(r) for r in hermite_normal_form([list(x)] + relations, k))
        assert key not in keys, "two unit orbits gave one subgroup"
        keys.add(key)
        entries.append(SubgroupEntry(y, key, (x,)))
    return tuple(entries)


def conflations_ending_in(
    f: FiniteModule, kernel_bound: int, middle_bound: int
):
    """Subgroup entries for every enumerated conflation K -> Y -> f with
    |K| <= kernel_bound.

    For each kernel order the full subgroup walk runs while |Y| <=
    middle_bound; beyond it cyclic kernels are walked for every divisor
    of n regardless of middle size, from a catalog built for that kernel
    order alone, which keeps the family discriminating
    for flatness at every end module.  Each middle belongs to exactly one
    kernel order and each catalog's keys are distinct, so no conflation
    is handed out twice.
    """
    n = f.ring.modulus
    for k_ord in range(1, kernel_bound + 1):
        middle_order = f.order * k_ord
        whole = middle_order <= middle_bound
        if not whole and n % k_ord:
            continue
        for y in modules_of_order(n, middle_order):
            catalog = subgroup_catalog(y) if whole else cyclic_subgroup_catalog(y, k_ord)
            for entry in catalog:
                if entry.sub_order == k_ord and entry.quotient == f:
                    yield entry


def conflations_with_sub(m: FiniteModule, middle_bound: int):
    """Conflations m -> Y -> C with |Y| <= middle_bound."""
    n = m.ring.modulus
    for y in enumerate_modules(n, middle_bound):
        if y.order % m.order:
            continue
        for entry in subgroup_catalog(y):
            if entry.sub_order == m.order and entry.sub == m:
                yield entry.conflation()


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------


def _differential_stacks(levels, stack=()):
    """Every stack of differentials (d^0, d^1, ...) with d^i from the tuple
    ``levels[i]`` and d^(i+1) . d^i == 0, depth first in lexicographic
    level order.

    The composite is read on its residue rows; none is built.
    """
    if len(stack) == len(levels):
        yield stack
        return
    prev = stack[-1] if stack else None
    for d in levels[len(stack)]:
        if prev is not None and any(map(any, _compose_rows(
            d.matrix, prev.matrix, d.codomain.invariant_factors, prev.domain.rank()
        ))):
            continue
        yield from _differential_stacks(levels, stack + (d,))


@lru_cache(maxsize=128)
def enumerate_complexes(n: int, span: int) -> tuple[Complex, ...]:
    """All complexes over Z/n with window span <= ``span``, cyclic components
    and base degree 0.

    Interior slots may be zero (edges never are — windows are normalized).
    For each tuple of components every level's morphisms are enumerated
    once, and ``_differential_stacks`` keeps the stacks with vanishing
    composites.
    """
    ring = RingSpec(n)
    cyclics = [m for m in enumerate_modules(n, n) if m.rank() == 1]
    inner = [ring.zero_module()] + cyclics
    out = [zero_complex(ring)]
    for s in range(1, span + 1):
        universes = [cyclics if pos in (0, s - 1) else inner for pos in range(s)]
        for comps in itertools.product(*universes):
            levels = [tuple(enumerate_morphisms(a, b)) for a, b in zip(comps, comps[1:])]
            out += (Complex(ring, 0, comps, stack) for stack in _differential_stacks(levels))
    return tuple(out)


def complex_conflation_from_chain_epi(g: ChainMap) -> ComplexConflation:
    """Complete a degreewise-epi chain map to a conflation of complexes."""
    y = g.source
    incl = {n: kernel(g.part(n))[1] for n in y.degrees()}
    diffs = tuple(
        factor_through_mono(y.differential(n) @ incl[n], incl[n + 1]) for n in y.degrees()[:-1]
    )
    x = Complex(y.ring, y.lo, tuple(incl[n].domain for n in y.degrees()), diffs)
    return ComplexConflation(ChainMap(x, y, tuple(incl[n] for n in x.degrees())), g)


def flat_disk_cover(f: Complex) -> ComplexConflation:
    """The canonical conflation K -> Q -> f with Q contractible and flat.

    Q is a sum of two-term identity complexes on free modules, one disk
    per degree of f, written directly as free blocks.  With r_d the rank
    of f^d (0 outside the window), Q^d is free of rank r_d + r_(d-1),
    d_Q sends (a, b) to (0, a), and g^d = [I | f.differential(d-1)] maps
    onto f by (generator cover, boundary of the cover).  Purity of this
    single conflation already discriminates flat complexes, because a
    split dual would exhibit dual(f) as a summand of an injective
    contractible complex.
    """
    ring = f.ring
    if f.is_zero:
        g = ChainMap(zero_complex(ring), f, ())
        return ComplexConflation(g, ChainMap(f, f, ()))

    def unit_rows(count: int, width: int) -> tuple:
        return tuple(tuple(int(c == j) for c in range(width)) for j in range(count))

    window = range(f.lo, f.hi + 2)
    rank = {d: f.component(d).rank() for d in range(f.lo - 1, f.hi + 2)}
    comps = [FiniteModule(ring, (ring.modulus,) * (rank[d] + rank[d - 1])) for d in window]
    diffs = []
    for i, d in enumerate(window[:-1]):
        width = comps[i].rank()
        rows = ((0,) * width,) * rank[d + 1] + unit_rows(rank[d], width)
        diffs.append(Morphism(comps[i], comps[i + 1], rows))
    parts = []
    for i, d in enumerate(window):
        boundary = f.differential(d - 1).matrix
        rows = tuple(a + b for a, b in zip(unit_rows(rank[d], rank[d]), boundary))
        parts.append(Morphism(comps[i], f.component(d), rows))
    q = Complex(ring, f.lo, tuple(comps), tuple(diffs))
    return complex_conflation_from_chain_epi(ChainMap(q, f, tuple(parts)))


def enumerate_complex_conflations_ending_in(
    f: Complex, kernel_cap: int, max_count: int
):
    """Conflations of complexes ending in f: the disk cover, then the first
    ``max_count`` middles over the degreewise extensions.

    Combos of per-degree conflations (kernel order <= ``kernel_cap``) are
    walked in product order, skipping the all-zero kernel; within a combo
    the middles come depth first from ``_complete_differentials``.
    """
    yield flat_disk_cover(f)
    if f.is_zero or max_count <= 0:
        return
    per_degree = [
        list(conflations_ending_in(comp, kernel_cap, comp.order * kernel_cap))
        for comp in f.components
    ]
    middles = (
        complex_conflation_from_chain_epi(
            ChainMap(
                Complex(f.ring, f.lo, tuple(e.ambient for e in combo), diffs),
                f,
                tuple(e.projection for e in combo),
            )
        )
        for combo in itertools.product(*per_degree)
        if any(e.sub_order > 1 for e in combo)
        for diffs in _complete_differentials(f, combo)
    )
    yield from itertools.islice(middles, max_count)


def _complete_differentials(f: Complex, combo):
    """Every stack of middle differentials over the degreewise deflations
    p of ``combo``, lazily.

    A middle differential D: Y^n -> Y^(n+1) over d_f has p . D = d_f . p,
    so it is D_0 + i . E for one lift D_0 and a unique E: Y^n -> X^(n+1),
    i the inclusion of the kernel X^(n+1) of p.  The lifts do not depend on
    the stack: if one level has none, the combo has no middle.  Each level's
    candidates D_0 + i . E, E in ``enumerate_morphisms`` order, are built
    once, and ``_differential_stacks`` keeps the stacks with D . D_prev == 0.
    """
    lifts = []
    for n, (here, there) in enumerate(zip(combo, combo[1:]), f.lo):
        target = f.differential(n) @ here.projection
        cols = [(here.ambient, there.ambient)]
        sol = solve_blocks({(0, 0): (there.projection, None)}, cols, [target])
        if sol is None:
            return
        lifts.append(sol[0])
    levels = [
        tuple(lift + there.inclusion @ e for e in enumerate_morphisms(here.ambient, there.sub))
        for lift, here, there in zip(lifts, combo, combo[1:])
    ]
    yield from _differential_stacks(levels)
