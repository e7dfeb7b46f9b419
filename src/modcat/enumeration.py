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
kernel, middle = end order times p.  A walk skips every middle that
its invariant factors rule out before building that middle's catalog
(``conflations_ending_in``).  Pure-injectivity is decided here,
over the conflations that start at a module (``is_pure_injective``).

Both subgroup walks depend only on a module's invariant factors d, not
on the modulus: a subgroup is a lattice between the relation lattice and
Z^k, and the elements are the same tuples over every Z/n that d divides.
So each walk runs once per invariant-factor tuple, together with one
Smith diagonal per subgroup for its quotient, and is shared by every
ring; the catalogs wrap the shared keys in per-ring entries.  An entry's
build (sub, inclusion, projection) is ring-free too: the first ring to
build it stores the rows with the walk, and every other ring wraps them
(``SubgroupEntry``).  Enumerated complexes are built trusted, since
their differentials are enumerated morphisms whose composites the walk
has just read as zero; so are the family middles, read off subgroup
catalog entries that carry their kernels (``_middle``).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul

from .complexes import (
    ChainMap,
    Complex,
    ComplexConflation,
    zero_complex,
)
from .exact import Conflation, splits
from .modules import (
    FiniteModule,
    Morphism,
    RingSpec,
    _compose_rows,
    _diagonal_rows,
    _factor,
    _generator_map,
    _prime_powers,
    cokernel,
    factor_through_mono,
    kernel,
)
from .purity import is_pure
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
    divisors = ring.divisors()[1:]
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
    """All morphisms dom -> cod, entries walked row-major.

    Entry (j, i) runs over the multiples of e_j / gcd(d_i, e_j) below e_j,
    which are exactly the reduced, well-defined ones, so each map is built
    trusted."""
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
        yield Morphism._trusted(dom, cod, matrix)


# ---------------------------------------------------------------------------
# subgroup walks
# ---------------------------------------------------------------------------


class _SharedSubgroup:
    """A subgroup as a shared walk finds it, for every module with the
    walked invariant factors d: its ``key``, the ``rows`` that generate it
    and ``factors``, the quotient's invariant factors.  ``built`` is None
    until the first ``SubgroupEntry`` over it is built, then the ring-free
    result of that build: (sub factors, quotient factors, inclusion rows,
    projection rows).
    """

    __slots__ = ("key", "rows", "factors", "built")

    def __init__(self, key: tuple, rows, factors: tuple[int, ...]):
        self.key = key
        self.rows = rows
        self.factors = factors
        self.built = None


class SubgroupEntry:
    """A subgroup of a fixed ambient module with its conflation data.

    ``key`` is the canonical Hermite basis of the subgroup's lattice, the
    ambient relations included.  The two invariants the filters read,
    ``quotient`` and ``sub_order``, come from the quotient's invariant
    factors, which the shared walk read off one Smith diagonal of
    ``key``.  ``sub``, ``inclusion`` and ``projection`` are built on first
    use and cached, because a run usually checks only a few entries of
    each catalog it walks.

    The build is shared, as the walk is, by every modulus that the
    ambient factors d divide.  The first ring to build an entry over a
    walked subgroup takes the cokernel of the map from its rows and the
    kernel of that projection, and stores both modules' factors and both
    row tuples with the walked subgroup; every ring wraps the stored rows.
    That is sound because the build reads only d, the rows and Smith
    forms of residue rows (``_canonical_form`` / ``_kernel_rows``): the
    ring enters only as the ``FiniteModule`` wrapper and the check that
    the factors divide n, which holds for every n that d's factors
    divide.  Every ring's wrap checks the stored build against this
    entry's two invariants, a tuple comparison.
    """

    __slots__ = (
        "ambient", "key", "quotient", "sub_order", "_shared", "_sub", "_inclusion", "_projection"
    )

    def __init__(self, ambient: FiniteModule, shared: _SharedSubgroup):
        self.ambient = ambient
        self.key = shared.key
        self.quotient = FiniteModule(ambient.ring, shared.factors)
        self.sub_order = ambient.order // self.quotient.order
        self._shared = shared
        self._sub = None

    def _build(self) -> None:
        shared = self._shared
        if shared.built is None:
            quot, proj = cokernel(_generator_map(self.ambient, shared.rows))
            sub, incl = kernel(proj)
            shared.built = sub.invariant_factors, quot.invariant_factors, incl.matrix, proj.matrix
        sub_factors, quot_factors, incl_rows, proj_rows = shared.built
        if quot_factors != self.quotient.invariant_factors or prod(sub_factors) != self.sub_order:
            raise AssertionError("built subgroup disagrees with its Smith invariants")
        self._sub = FiniteModule(self.ambient.ring, sub_factors)
        self._inclusion = Morphism._trusted(self._sub, self.ambient, incl_rows)
        self._projection = Morphism._trusted(self.ambient, self.quotient, proj_rows)

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
        """inclusion -> ambient -> quotient, built through
        ``Conflation._trusted``: the inclusion is the kernel of the
        projection, a cokernel projection, and the build checks both
        orders against the Smith invariants."""
        return Conflation._trusted(self.inclusion, self.projection)


def _quotient_factors(key: tuple) -> tuple[int, ...]:
    """The invariant factors of Z^k modulo the lattice with basis ``key``,
    from one Smith diagonal."""
    return tuple(x for x in snf_diagonal(key) if x > 1)


@lru_cache(maxsize=2048)
def _subgroup_walk(d: tuple[int, ...]) -> tuple[_SharedSubgroup, ...]:
    """Every subgroup of the module with invariant factors d, via the
    complete Hermite-basis walk; each one's rows are its key.

    Rows are chosen bottom-up.  Whether row i's ambient relation
    d_i * e_i lies in the lattice depends only on rows i..k-1, so each
    partial choice is checked immediately and dead branches are cut
    before the walk ever touches the rows above them.
    """
    k = len(d)
    relations = _diagonal_rows(d)
    found = []

    def walk(i: int, below: list[list[int]]):
        if i < 0:
            key = tuple(tuple(r) for r in below)
            found.append(_SharedSubgroup(key, key, _quotient_factors(key)))
            return
        pivots = {j: below[j - i - 1][j] for j in range(i + 1, k)}
        for h in range(1, d[i] + 1):
            if d[i] % h:
                continue
            for tail in itertools.product(*[range(pivots[j]) for j in range(i + 1, k)]):
                row = [0] * i + [h] + list(tail)
                cand = [row] + below
                if lattice_member(cand, relations[i]):
                    walk(i - 1, cand)

    walk(k - 1, [])
    return tuple(found)


@lru_cache(maxsize=2048)
def subgroup_catalog(y: FiniteModule) -> tuple[SubgroupEntry, ...]:
    """Every subgroup of y, via the complete Hermite-basis walk, which is
    shared by every module with y's invariant factors (``_subgroup_walk``);
    each entry's rows are its key."""
    return tuple(SubgroupEntry(y, shared) for shared in _subgroup_walk(y.invariant_factors))


@lru_cache(maxsize=4096)
def _cyclic_subgroup_walk(d: tuple[int, ...], order: int) -> tuple[_SharedSubgroup, ...]:
    """Every cyclic subgroup of the given order of the module with
    invariant factors d, its lex-first generator its single row.

    The generators of a cyclic group of order o are exactly u*x with u a
    unit mod o.  Only the ``order``-torsion is walked, coordinate i over
    the multiples of d_i / gcd(d_i, order); it holds every element of
    order ``order`` and comes in the lexicographic order in which
    ``FiniteModule.elements`` walks the whole module, so the first element
    of order ``order`` not yet covered is the lex-first generator of its
    subgroup; marking its unit multiples covers the subgroup's other
    generators.
    """
    k = len(d)
    if (d[-1] if d else 1) % order:
        return ()
    relations = _diagonal_rows(d)
    units = [u for u in range(order) if gcd(u, order) == 1]
    covered = set()
    keys = set()
    found = []
    for x in itertools.product(*(range(0, di, di // gcd(di, order)) for di in d)):
        if x in covered or lcm(*(di // gcd(xi, di) for xi, di in zip(x, d))) != order:
            continue
        covered.update(tuple(u * xi % di for xi, di in zip(x, d)) for u in units)
        key = tuple(tuple(r) for r in hermite_normal_form([list(x)] + relations, k))
        assert key not in keys, "two unit orbits gave one subgroup"
        keys.add(key)
        found.append(_SharedSubgroup(key, (x,), _quotient_factors(key)))
    return tuple(found)


@lru_cache(maxsize=4096)
def cyclic_subgroup_catalog(y: FiniteModule, order: int) -> tuple[SubgroupEntry, ...]:
    """Every cyclic subgroup of y of the given order, one Hermite form each,
    from the unit-orbit walk shared by every module with y's invariant
    factors (``_cyclic_subgroup_walk``).  Entries come in the order of
    their lex-first generators, with that generator as the single row.
    """
    return tuple(
        SubgroupEntry(y, shared) for shared in _cyclic_subgroup_walk(y.invariant_factors, order)
    )


def _local_types(m: FiniteModule) -> list[list[int]]:
    """For each prime p of the modulus, increasing, the partition of the
    p-exponents of m's invariant factors, largest first, zeros kept: the
    p-primary part of m is the sum of the Z/p^e over those exponents e."""
    types = []
    for p, _ in _prime_powers(m.ring.modulus):
        part = []
        for d in reversed(m.invariant_factors):
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            part.append(e)
        types.append(part)
    return types


def _contains(lam: list[int], nu: list[int]) -> bool:
    """nu inside lam: nu_i <= lam_i for every i."""
    return all(a >= b for a, b in itertools.zip_longest(lam, nu, fillvalue=0))


def _horizontal_strip(lam: list[int], nu: list[int]) -> bool:
    """lam / nu is a horizontal strip: lam_i >= nu_i >= lam_(i+1) for every i."""
    return all(a >= b >= c for a, b, c in itertools.zip_longest(lam, nu, lam[1:], fillvalue=0))


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

    A middle whose catalog holds no entry with quotient f is skipped
    before its catalog is built.  With lam and nu the partitions of
    p-exponents of Y and f at a prime p (``_local_types``), some subgroup
    of Y has quotient f iff nu lies inside lam at every p, and some
    cyclic subgroup does iff lam / nu is a horizontal strip at every p.
    These are the existence criteria of the Hall polynomials, which are
    nonzero exactly where the Littlewood-Richardson coefficients are, and
    Pieri's rule for a cyclic kernel (I. G. Macdonald, Symmetric Functions
    and Hall Polynomials, 2nd ed., Ch. II Sec. 4 and Ch. I Sec. 5;
    L. M. Butler, Subgroup lattices and symmetric functions, Mem. AMS
    539, 1994).  So the skipped middles would have yielded nothing.
    """
    n = f.ring.modulus
    nus = _local_types(f)
    for k_ord in range(1, kernel_bound + 1):
        middle_order = f.order * k_ord
        whole = middle_order <= middle_bound
        if not whole and n % k_ord:
            continue
        fits = _contains if whole else _horizontal_strip
        for y in modules_of_order(n, middle_order):
            if not all(map(fits, _local_types(y), nus)):
                continue
            catalog = subgroup_catalog(y) if whole else cyclic_subgroup_catalog(y, k_ord)
            for entry in catalog:
                if entry.sub_order == k_ord and entry.quotient == f:
                    yield entry


def conflations_with_sub(m: FiniteModule, middle_bound: int):
    """Conflations m -> Y -> C with |Y| <= middle_bound.

    A middle Y has a subgroup isomorphic to m iff m's partition of
    p-exponents lies inside Y's at every prime p (the containment
    criterion of ``conflations_ending_in``), so every other middle is
    skipped before its catalog is built.
    """
    n = m.ring.modulus
    mus = _local_types(m)
    for y in enumerate_modules(n, middle_bound):
        if not all(map(_contains, _local_types(y), mus)):
            continue
        for entry in subgroup_catalog(y):
            if entry.sub_order == m.order and entry.sub == m:
                yield entry.conflation()


def is_pure_injective(m: FiniteModule, bound: int) -> bool:
    """Every pure conflation starting at m with middle order <= bound splits."""
    return all(splits(c.g) is not None for c in conflations_with_sub(m, bound) if is_pure(c))


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
    composites.  So each complex is built through ``Complex._trusted``:
    its edges are nonzero cyclics, each differential comes from
    ``enumerate_morphisms`` between consecutive components, and d . d = 0
    was just read on the residue rows.
    """
    ring = RingSpec(n)
    cyclics = [m for m in enumerate_modules(n, n) if m.rank() == 1]
    inner = [ring.zero_module()] + cyclics
    out = [zero_complex(ring)]
    for s in range(1, span + 1):
        universes = [cyclics if pos in (0, s - 1) else inner for pos in range(s)]
        for comps in itertools.product(*universes):
            levels = [tuple(enumerate_morphisms(a, b)) for a, b in zip(comps, comps[1:])]
            for stack in _differential_stacks(levels):
                out.append(Complex._trusted(ring, 0, comps, stack))
    return tuple(out)


def flat_disk_cover(f: Complex) -> ComplexConflation:
    """The canonical conflation K -> Q -> f with Q contractible and flat,
    in closed form.

    Q is a sum of two-term identity complexes on free modules, one disk
    per degree of f, written directly as free blocks.  With f^d = + Z/c_i
    of rank r_d (0 outside the window) and delta the rows of
    f.differential(d-1), Q^d is free of rank r_d + r_(d-1) with
    coordinates (a, b), d_Q sends (a, b) to (0, a), and g^d = [I | delta]
    maps onto f by (generator cover, boundary of the cover).

    Its kernel K^d = {(a, b) : a = -delta b mod c} is + Z/(n/c_i) over the
    c_i < n, listed ascending, followed by (Z/n)^(r_(d-1)): the inclusion
    sends t_i to (c_i e_i, 0) and b_j to (-delta e_j mod n, e_j).  The
    differential of K is the restriction of d_Q: a generator with
    Q-coordinates (a, b) goes to b' = a and t'_k = (delta' a)_k / c'_k
    mod n/c'_k, an exact division because f is well defined and
    d . d = 0.  Every identity holds by construction, so all of it is
    built trusted; K's window drops its lowest degree when f^lo is free.

    Purity of this single conflation already discriminates flat
    complexes, because a split dual would exhibit dual(f) as a summand of
    an injective contractible complex.
    """
    ring, n = f.ring, f.ring.modulus
    if f.is_zero:
        g = ChainMap(zero_complex(ring), f, ())
        return ComplexConflation(g, ChainMap(f, f, ()))
    window = range(f.lo, f.hi + 2)
    c = {d: f.component(d).invariant_factors for d in range(f.lo - 1, f.hi + 2)}
    rank = {d: len(c[d]) for d in c}
    delta = {d: f.differential(d - 1).matrix for d in window}
    # The t-generators of K^d: the factors c_i < n, by ascending n / c_i.
    torsion = {d: [i for i in reversed(range(rank[d])) if c[d][i] < n] for d in window}

    def unit(j: int, width: int) -> tuple:
        return tuple(int(t == j) for t in range(width))

    def transpose(columns, height: int) -> tuple:
        return tuple(tuple(col[j] for col in columns) for j in range(height))

    qs, ks, gens = {}, {}, {}
    for d in window:
        r, r_prev = rank[d], rank[d - 1]
        qs[d] = FiniteModule(ring, (n,) * (r + r_prev))
        ks[d] = FiniteModule(ring, tuple(n // c[d][i] for i in torsion[d]) + (n,) * r_prev)
        # The Q^d-coordinates (a, b) of the generators of K^d, t_i then b_j.
        gens[d] = [(tuple(c[d][i] * x for x in unit(i, r)), (0,) * r_prev) for i in torsion[d]]
        gens[d] += [(tuple(-row[j] % n for row in delta[d]), unit(j, r_prev)) for j in range(r_prev)]
    g_parts, incl_parts, q_diffs, k_diffs = [], [], [], []
    for d in window:
        rows = tuple(unit(j, rank[d]) + row for j, row in enumerate(delta[d]))
        g_parts.append(Morphism._trusted(qs[d], f.component(d), rows))
        rows = transpose([a + b for a, b in gens[d]], qs[d].rank())
        incl_parts.append(Morphism._trusted(ks[d], qs[d], rows))
        if d + 1 not in window:
            break
        width = qs[d].rank()
        rows = ((0,) * width,) * rank[d + 1] + tuple(unit(j, width) for j in range(rank[d]))
        q_diffs.append(Morphism._trusted(qs[d], qs[d + 1], rows))
        # d_Q(a, b) = (0, a) is t'_k = (delta' a)_k / c'_k, b' = a in K^(d+1).
        above, factors = delta[d + 1], c[d + 1]
        images = [
            tuple(sum(map(mul, above[k], a)) // factors[k] % (n // factors[k]) for k in torsion[d + 1])
            + a
            for a, _ in gens[d]
        ]
        k_diffs.append(Morphism._trusted(ks[d], ks[d + 1], transpose(images, ks[d + 1].rank())))
    q = Complex._trusted(ring, f.lo, tuple(qs.values()), tuple(q_diffs))
    s = 1 if ks[f.lo].is_zero else 0
    k = Complex._trusted(ring, f.lo + s, tuple(ks.values())[s:], tuple(k_diffs[s:]))
    return ComplexConflation._trusted(
        ChainMap._trusted(k, q, tuple(incl_parts[s:])), ChainMap._trusted(q, f, tuple(g_parts))
    )


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
        _middle(f, combo, stack)
        for combo in itertools.product(*per_degree)
        if any(e.sub_order > 1 for e in combo)
        for stack in _complete_differentials(f, combo)
    )
    yield from itertools.islice(middles, max_count)


def _middle(f: Complex, combo, stack) -> ComplexConflation:
    """The conflation X -> Y -> f over the subgroup entries ``combo``, one
    per degree of f, with middle differentials ``stack``.

    Y, g and the inclusion are built trusted: the stack walk read
    D . D = 0 and each D lifts d_f, and each entry's inclusion is the
    kernel of its projection.  X's differentials factor D . i through the
    next inclusion, a ``solve_blocks`` unknown that ``factor_through_mono``
    checks, and the validating ``Complex`` strips X's zero edges.
    """
    y = Complex._trusted(f.ring, f.lo, tuple(e.ambient for e in combo), stack)
    g = ChainMap._trusted(y, f, tuple(e.projection for e in combo))
    diffs = tuple(
        factor_through_mono(d @ here.inclusion, there.inclusion)
        for d, here, there in zip(stack, combo, combo[1:])
    )
    x = Complex(f.ring, f.lo, tuple(e.sub for e in combo), diffs)
    incl = ChainMap._trusted(x, y, tuple(combo[n - f.lo].inclusion for n in x.degrees()))
    return ComplexConflation._trusted(incl, g)


def _complete_differentials(f: Complex, combo):
    """Every stack of middle differentials over the degreewise deflations
    p of ``combo``, lazily.

    A middle differential D: Y^n -> Y^(n+1) over d_f has p . D = d_f . p,
    so it is D_0 + i . E for one lift D_0 (``_factor``, checked) and a
    unique E: Y^n -> X^(n+1), i the inclusion of the kernel X^(n+1) of p.
    The lifts do not depend on the stack: if one level has none, the combo
    has no middle.  Each level's candidates D_0 + i . E, E in
    ``enumerate_morphisms`` order, are built once, and
    ``_differential_stacks`` keeps the stacks with D . D_prev == 0.
    """
    lifts = []
    for n, (here, there) in enumerate(zip(combo, combo[1:]), f.lo):
        lift = _factor(f.differential(n) @ here.projection, there.projection)
        if lift is None:
            return
        lifts.append(lift)
    levels = [
        tuple(lift + there.inclusion @ e for e in enumerate_morphisms(here.ambient, there.sub))
        for lift, here, there in zip(lifts, combo, combo[1:])
    ]
    yield from _differential_stacks(levels)
