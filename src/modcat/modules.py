"""Finite modules over Z/n in canonical invariant-factor form.

A module is a direct sum of cyclic groups Z/d_1 + ... + Z/d_k with
1 < d_1 | d_2 | ... | d_k and every d_i dividing the ring modulus n; the
empty list is the zero module.  Two modules are isomorphic exactly when
their factor tuples are equal, so isomorphism testing is `==`.

Elements are tuples with entry i taken mod d_i.  A morphism is a residue
matrix with one row per codomain factor e_j and one column per domain
factor d_i, entry a[j][i] mod e_j, subject to the well-definedness
condition d_i * a[j][i] == 0 (mod e_j).

All structural computations (canonical form, kernels, cokernels, sums)
go through the integer relation lattice: a presentation with g
generators is the quotient of Z^g by the lattice spanned by its relation
rows together with n times the identity, and Smith normal form over Z
diagonalizes it.  Kernels, cokernels and sums pass diag(d) rows that
already imply n times the identity, so their canonical form leaves those
rows out.  Only the canonical form takes that factorization: a cokernel
is one canonicalized presentation, a kernel the dual of one, and a
subgroup or an image the kernel of the projection onto a cokernel.
The character dual M+ = Hom(M, Z/n) is M on the same generators, and f+
the transpose of f rescaled by d_i / e_j (``dual``, ``dual_mor``); it is
an exact anti-equivalence, so the mirror image of a construction is read
through it: a kernel is the dual of a cokernel, and factoring through an
epi e is factoring h+ through the mono e+.
Linear systems are solved in each local ring Z/p^K of Z/n, by
elimination on pivots of least p-adic valuation, and joined by the
Chinese remainder theorem.  Kernels and cokernels are taken on residue
rows between any cyclic decompositions, so a pullback or a pushout works
in the concatenated coordinates of two modules without their direct sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from operator import mul

from .snf import smith_normal_form, snf_diagonal


@dataclass(frozen=True)
class RingSpec:
    """The base ring Z/n (n >= 2), also the dualizing object."""

    modulus: int

    def __post_init__(self):
        if type(self.modulus) is not int:
            raise TypeError("modulus must be an int")
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")

    def divisors(self) -> tuple[int, ...]:
        n = self.modulus
        return tuple(d for d in range(1, n + 1) if n % d == 0)

    def unit_module(self) -> "FiniteModule":
        """Z/n as a module over itself (free of rank one)."""
        return FiniteModule(self, (self.modulus,))

    def zero_module(self) -> "FiniteModule":
        return self._zero

    @cached_property
    def _zero(self) -> "FiniteModule":
        """One zero module per ring, read in every degree outside a complex's window."""
        return FiniteModule(self, ())

    def to_dict(self) -> dict:
        return {"n": self.modulus}

    @classmethod
    def from_dict(cls, data: dict) -> "RingSpec":
        return cls(data["n"])


@dataclass(frozen=True)
class FiniteModule:
    ring: RingSpec
    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(self.invariant_factors)
        object.__setattr__(self, "invariant_factors", factors)
        n = self.ring.modulus
        prev = 1
        for d in factors:
            if type(d) is not int:
                raise TypeError("invariant factors must be ints")
            if d <= 1:
                raise ValueError(f"invariant factor {d} must exceed 1")
            if n % d:
                raise ValueError(f"invariant factor {d} does not divide {n}")
            if d % prev:
                raise ValueError(
                    f"invariant factors {self.invariant_factors} do not form a divisor chain"
                )
            prev = d

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def is_zero(self) -> bool:
        return not self.invariant_factors

    def rank(self) -> int:
        return len(self.invariant_factors)

    def zero_element(self) -> tuple[int, ...]:
        return (0,) * len(self.invariant_factors)

    def generators(self) -> tuple[tuple[int, ...], ...]:
        """The canonical generators, as unit vectors."""
        return tuple(_diagonal_rows((1,) * len(self.invariant_factors)))

    def _check_rank(self, *vecs) -> None:
        """Raise ValueError for a vector whose length is not the rank, TypeError for a non-int."""
        k = len(self.invariant_factors)
        for v in vecs:
            if len(v) != k:
                raise ValueError(f"element {tuple(v)} has length {len(v)}, not the rank {k}")
            for a in v:
                if type(a) is not int:
                    raise TypeError(f"element {tuple(v)} has an entry that is not an int")

    def reduce(self, vec) -> tuple[int, ...]:
        """Reduce an integer vector to the canonical element it represents."""
        self._check_rank(vec)
        return tuple(v % d for v, d in zip(vec, self.invariant_factors))

    def elements(self):
        """All elements in lexicographic order."""
        return itertools.product(*(range(d) for d in self.invariant_factors))

    def add(self, x, y) -> tuple[int, ...]:
        self._check_rank(x, y)
        return tuple((a + b) % d for a, b, d in zip(x, y, self.invariant_factors))

    def scale(self, c: int, x) -> tuple[int, ...]:
        if not isinstance(c, int):
            raise TypeError("an element is scaled by an int")
        self._check_rank(x)
        return tuple((c * a) % d for a, d in zip(x, self.invariant_factors))

    def to_dict(self) -> dict:
        return {"n": self.ring.modulus, "factors": list(self.invariant_factors)}

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteModule":
        return cls(RingSpec(data["n"]), tuple(data["factors"]))


def cyclic(ring: RingSpec, d: int) -> FiniteModule:
    """Z/d as a Z/n-module (d | n); d == 1 gives the zero module."""
    if d == 1:
        return ring.zero_module()
    return FiniteModule(ring, (d,))


@dataclass(frozen=True)
class Presentation:
    """Generators and relations: the quotient of Z^g by the relation rows.

    Relation entries are residues mod n; the lattice always implicitly
    contains n * identity, so the presented module is a Z/n-module.
    """

    ring: RingSpec
    generators: int
    relations: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if type(self.generators) is not int:
            raise TypeError("the generator count must be an int")
        if self.generators < 0:
            raise ValueError(f"generator count {self.generators} is negative")
        for row in self.relations:
            if len(row) != self.generators:
                raise ValueError("relation row length does not match generator count")
            if any(type(a) is not int for a in row):
                raise TypeError("relation entries must be ints")


@dataclass(frozen=True)
class Morphism:
    domain: FiniteModule
    codomain: FiniteModule
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.domain.ring != self.codomain.ring:
            raise ValueError("domain and codomain live over different rings")
        dom = self.domain.invariant_factors
        cod = self.codomain.invariant_factors
        if len(self.matrix) != len(cod):
            raise ValueError("matrix must have one row per codomain factor")
        reduced = []
        for j, row in enumerate(self.matrix):
            if len(row) != len(dom):
                raise ValueError("matrix row length must match domain rank")
            if any(type(a) is not int for a in row):
                raise TypeError("a generator image has an entry that is not an int")
            e = cod[j]
            red = tuple(a % e for a in row)
            for i, a in enumerate(red):
                if (dom[i] * a) % e:
                    raise ValueError(
                        f"entry {a} at ({j},{i}) is not a well-defined "
                        f"map Z/{dom[i]} -> Z/{e}"
                    )
            reduced.append(red)
        object.__setattr__(self, "matrix", tuple(reduced))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _trusted(cls, dom: FiniteModule, cod: FiniteModule, rows) -> "Morphism":
        """A morphism built without ``__post_init__``.

        Only for rows that are well defined and reduced mod the codomain
        factors by construction (composites, sums, identities, kernel
        inclusions, cokernel projections, ...); the public constructor and
        ``from_dict`` keep validating.

        The fields are set one by one, as the frozen dataclass's own
        ``__init__`` sets them: reading ``m.__dict__`` would materialise an
        instance dict (248 B against 104 B per morphism under tracemalloc,
        CPython 3.11), and runs build tens of thousands of these.
        """
        m = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(m, "domain", dom)
        setattr_(m, "codomain", cod)
        setattr_(m, "matrix", rows)
        return m

    @classmethod
    def identity(cls, m: FiniteModule) -> "Morphism":
        return cls._trusted(m, m, m.generators())

    @classmethod
    def zero(cls, dom: FiniteModule, cod: FiniteModule) -> "Morphism":
        return cls._trusted(dom, cod, tuple((0,) * dom.rank() for _ in range(cod.rank())))

    @classmethod
    def from_columns(cls, dom: FiniteModule, cod: FiniteModule, columns) -> "Morphism":
        """Build from the list of images of the domain generators; the
        constructor checks their entries."""
        cols = list(columns)
        if len(cols) != dom.rank():
            raise ValueError("need one column per domain generator")
        l = cod.rank()
        for i, col in enumerate(cols):
            if len(col) != l:
                raise ValueError(
                    f"the image {tuple(col)} of generator {i} has length {len(col)}, not the rank {l}"
                )
        return cls(dom, cod, tuple(tuple(col[j] for col in cols) for j in range(l)))

    # -- arithmetic -----------------------------------------------------------

    def apply(self, x) -> tuple[int, ...]:
        k = self.domain.rank()
        if len(x) != k:
            raise ValueError(f"element {tuple(x)} has length {len(x)}, not the domain rank {k}")
        if any(type(a) is not int for a in x):
            raise TypeError(f"element {tuple(x)} has an entry that is not an int")
        cod = self.codomain.invariant_factors
        return tuple(
            sum(row[i] * x[i] for i in range(k)) % cod[j]
            for j, row in enumerate(self.matrix)
        )

    def __matmul__(self, other: "Morphism") -> "Morphism":
        """Composition self after other."""
        if other.codomain != self.domain:
            raise ValueError("composition mismatch")
        rows = _compose_rows(
            self.matrix, other.matrix, self.codomain.invariant_factors, other.domain.rank()
        )
        return Morphism._trusted(other.domain, self.codomain, rows)

    def __add__(self, other: "Morphism") -> "Morphism":
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ValueError("can only add parallel morphisms")
        rows = tuple(
            tuple((x + y) % e for x, y in zip(r1, r2))
            for r1, r2, e in zip(self.matrix, other.matrix, self.codomain.invariant_factors)
        )
        return Morphism._trusted(self.domain, self.codomain, rows)

    def __sub__(self, other: "Morphism") -> "Morphism":
        return self + (-other)

    def __neg__(self) -> "Morphism":
        return self.scaled(-1)

    def scaled(self, c: int) -> "Morphism":
        if not isinstance(c, int):
            raise TypeError("a morphism is scaled by an int")
        if c == 1:
            return self
        rows = tuple(
            tuple(c * x % e for x in row)
            for row, e in zip(self.matrix, self.codomain.invariant_factors)
        )
        return Morphism._trusted(self.domain, self.codomain, rows)

    # -- predicates -----------------------------------------------------------

    @property
    def is_zero_morphism(self) -> bool:
        return all(not any(row) for row in self.matrix)

    def is_mono(self) -> bool:
        return kernel_order(self) == 1

    def is_epi(self) -> bool:
        return cokernel_order(self) == 1

    def is_iso(self) -> bool:
        return (
            self.domain.invariant_factors == self.codomain.invariant_factors
            and self.is_mono()
        )

    def to_dict(self) -> dict:
        return {
            "dom": self.domain.to_dict(),
            "cod": self.codomain.to_dict(),
            "matrix": [list(row) for row in self.matrix],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Morphism":
        return cls(
            FiniteModule.from_dict(data["dom"]),
            FiniteModule.from_dict(data["cod"]),
            tuple(tuple(row) for row in data["matrix"]),
        )


def _compose_rows(a, b, e: tuple[int, ...], k: int) -> tuple[tuple[int, ...], ...]:
    """The rows of a . b reduced mod the codomain factors e, with k columns.

    ``a`` and ``b`` are residue matrices (rows of a morphism).  Nothing is
    validated: the rows of a composite of two morphisms are well defined
    and reduced, so ``Morphism.__matmul__`` builds it through
    ``Morphism._trusted``, and the chain identity checks compare the rows.
    """
    if not b:
        return tuple((0,) * k for _ in e)
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) % d for col in cols) for row, d in zip(a, e))


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Canonicalized:
    """Result of putting a presentation in invariant-factor form.

    ``generator_images[i]`` is the canonical element presented by the i-th
    generator; ``generator_lifts[t]`` is an integer combination of the
    presentation generators mapping onto the t-th canonical generator, the
    solver's solution of that equation.  ``combine`` and ``coordinates``
    are the one change of coordinates between the presentation generators
    and the canonical module, and both check what they are given; the
    tensor and hom modules extend this class over their pair sums.
    Kernels and cokernels read only the images, so they take
    ``_canonical_form`` and build no lifts.
    """

    module: FiniteModule
    generator_images: tuple[tuple[int, ...], ...]
    generator_lifts: tuple[tuple[int, ...], ...]

    def combine(self, c) -> tuple[int, ...]:
        """The canonical element presented by sum_i c[i] * generator i;
        the c[i] are any integers."""
        acc = [0] * self.module.rank()
        for x, img in zip(c, self.generator_images, strict=True):
            if x:
                acc = [a + x * v for a, v in zip(acc, img)]
        return self.module.reduce(acc)

    def coordinates(self, z) -> list[int]:
        """Integer generator coordinates that ``combine`` maps onto the
        canonical element z: the sum of z[t] times the t-th lift."""
        self.module._check_rank(z)
        acc = [0] * len(self.generator_images)
        for x, lift in zip(z, self.generator_lifts):
            if x:
                acc = [a + x * v for a, v in zip(acc, lift)]
        return acc


def canonicalize(pres: Presentation) -> Canonicalized:
    """The invariant-factor form of a presentation, whose lattice also
    holds n times the identity."""
    g = pres.generators
    rows = list(pres.relations) + _diagonal_rows((pres.ring.modulus,) * g)
    return _canonicalized(pres.ring, g, rows)


def _diagonal_rows(c) -> list[tuple[int, ...]]:
    """The rows of diag(c): generator i has order c[i]."""
    k = len(c)
    return [(0,) * i + (x,) + (0,) * (k - 1 - i) for i, x in enumerate(c)]


def _canonical_form(ring: RingSpec, g: int, rows):
    """(module, generator images): the invariant-factor form of Z^g modulo
    the lattice of ``rows``, read off R of one Smith form.

    The rows must bound every generator by some divisor of n, as the
    diag(d) rows of kernels, cokernels and direct sums do; they then imply
    n times the identity, so the Smith form runs without those g rows.
    """
    form = smith_normal_form(rows)
    n = ring.modulus
    if len(form.diagonal) != g:
        raise AssertionError("relation lattice must have full rank with factors dividing n")
    kept = []
    for j, x in enumerate(form.diagonal):
        if x == 0 or n % x:
            raise AssertionError("relation lattice must have full rank with factors dividing n")
        if x > 1:
            kept.append((j, x))
    module = FiniteModule(ring, tuple([x for _, x in kept]))
    return module, tuple([tuple([r[j] % x for j, x in kept]) for r in form.right])


def _canonicalized(ring: RingSpec, g: int, rows) -> Canonicalized:
    """``_canonical_form`` with generator lifts: the t-th lift solves
    images @ x == t-th unit, so ``_solve_mod`` checks each one."""
    module, images = _canonical_form(ring, g, rows)
    lifts = _solve_mod(list(zip(*images)), module.invariant_factors, module.generators(), g)
    return Canonicalized(module, images, tuple(map(tuple, lifts)))


# ---------------------------------------------------------------------------
# kernels, images, cokernels
# ---------------------------------------------------------------------------


def _augmented(a, e: tuple[int, ...]) -> list[list[int]]:
    """[a | diag(e)]: integer relations of a @ x == 0 (mod e)."""
    l = len(e)
    return [list(a[j]) + [e[j] if j == t else 0 for t in range(l)] for j in range(l)]


def _kernel_rows(ring: RingSpec, d: tuple[int, ...], e: tuple[int, ...], a):
    """(kernel module, inclusion rows) of the map with residue rows ``a``
    from + Z/d_i to + Z/e_j, in one Smith form.

    Uses ker f = (coker f^+)^+ for the character dual (-)^+ = Hom(-, Z/n),
    which is exact on finite Z/n-modules because Z/n is self-injective.
    The columns of f^+ and diag(d) present coker f^+; the inclusion is the
    dual of the projection onto it.  Both duals are taken summand by
    summand, as ``_dual_rows`` takes them, so d and e are any cyclic
    decompositions, divisor chains or not, and each is written in the
    orientation it is read in, without a transpose: relation j of
    coker f^+ is (a[j][i] * d_i / e_j)_i, row i of the inclusion is
    (images[i][t] * d_i / c_t)_t.  Nothing is checked here: each caller
    checks that its own map kills the rows, ``kernel`` as f . rows == 0,
    ``exact.pullback`` as its square g . to_g == h . to_h read off g and h.
    """
    rel = [[x * di // ej for x, di in zip(row, d)] for row, ej in zip(a, e)]
    ker, images = _canonical_form(ring, len(d), rel + _diagonal_rows(d))
    c = ker.invariant_factors
    rows = tuple(tuple(x * di // ct for x, ct in zip(img, c)) for img, di in zip(images, d))
    return ker, rows


def _dual_rows(d: tuple[int, ...], e: tuple[int, ...], a) -> tuple[tuple[int, ...], ...]:
    """The rows of f^+ = - . f for f with residue rows ``a`` from + Z/d_i to
    + Z/e_j: entry a[j][i] * d[i] // e[j] at (i, j), exact and in [0, d_i)
    as f is well defined."""
    return tuple(tuple(a[j][i] * d[i] // e[j] for j in range(len(e))) for i in range(len(d)))


def dual(m: FiniteModule) -> FiniteModule:
    """M+ = Hom(M, Z/n), identified with M: generator i is x_i |-> n/d_i."""
    return m


def dual_mor(f: Morphism) -> Morphism:
    """f+ = - . f: N+ -> M+; entry (i, j) is a[j][i] d_i / e_j, exact as f is well defined.

    Each entry lies in [0, d_i), so f+ is built without validation."""
    rows = _dual_rows(f.domain.invariant_factors, f.codomain.invariant_factors, f.matrix)
    return Morphism._trusted(f.codomain, f.domain, rows)


def _cokernel_columns(ring: RingSpec, e: tuple[int, ...], a):
    """(cokernel module, images of the codomain generators) of the map with
    residue rows ``a`` into + Z/e_j, in one Smith form: the columns of a
    and diag(e) present it.  e is any cyclic decomposition."""
    return _canonical_form(ring, len(e), list(zip(*a)) + _diagonal_rows(e))


# Small on purpose.  The complexes suite asks for the kernels of a few
# dozen differentials over and over, all from kernel_objects (the disk
# cover writes its kernel in closed form, and a family middle reads its
# kernel off its subgroup-catalog entries), close together: at moduli 4
# and 9, span 4, 3,764 calls ask for 43 distinct kernels (3,757 calls
# from kernel_objects, 7 from catalog builds), and 64 entries catch all
# 3,721 repeats.  Every subgroup or image built is one call that is
# rarely asked again (prop1 at moduli 4 8 9 12, order 32, kernel 8: 785
# calls, no repeat; a catalog entry is built once for all the moduli its
# factors divide): a large cache would only hold them.  Pullbacks and
# pushouts take their kernels and cokernels on rows, not through this cache.
@lru_cache(maxsize=64)
def kernel(f: Morphism):
    """(kernel module, inclusion into the domain), in one Smith form: the
    dual of the projection onto the cokernel of the dual map.  Its rows
    are reduced and well defined as duals of reduced images, so the
    inclusion is built trusted once f . inclusion == 0 is checked."""
    e = f.codomain.invariant_factors
    ker, rows = _kernel_rows(f.domain.ring, f.domain.invariant_factors, e, f.matrix)
    if any(map(any, _compose_rows(f.matrix, rows, e, ker.rank()))):
        raise AssertionError("kernel inclusion is not killed by the morphism")
    return ker, Morphism._trusted(ker, f.domain, rows)


def image(f: Morphism):
    """(image module, inclusion into the codomain): the kernel of the
    projection onto the cokernel."""
    return kernel(cokernel(f)[1])


def cokernel(f: Morphism):
    """(cokernel module, projection from the codomain).  The images of the
    codomain generators are reduced mod the cokernel factors and killed by
    the generators' orders, so the projection is built trusted."""
    q, cols = _cokernel_columns(f.codomain.ring, f.codomain.invariant_factors, f.matrix)
    return q, Morphism._trusted(f.codomain, q, tuple(zip(*cols)))


def _generator_map(ambient: FiniteModule, gens) -> Morphism:
    """The map to ``ambient`` from a free module whose columns are ``gens``;
    its image is the subgroup they generate.

    ``from_columns`` raises ValueError for a vector whose length is not
    the ambient rank, and the constructor TypeError for an entry that is
    not an int.
    """
    cols = [tuple(v) for v in gens]
    free = FiniteModule(ambient.ring, (ambient.ring.modulus,) * len(cols))
    return Morphism.from_columns(free, ambient, cols)


def subgroup_from_lattice(ambient: FiniteModule, gens):
    """The subgroup of ``ambient`` generated by the given integer vectors.

    Returns (module, inclusion), the image of ``_generator_map``: the
    kernel of the projection onto ambient / <gens>.  The vectors are
    taken mod the ambient factors.
    """
    return image(_generator_map(ambient, gens))


@lru_cache(maxsize=65536)
def _cokernel_order(cod_factors: tuple[int, ...], matrix: tuple[tuple[int, ...], ...]) -> int:
    if not cod_factors:
        return 1
    return prod(snf_diagonal(_augmented(matrix, cod_factors))[: len(cod_factors)])


def cokernel_order(f: Morphism) -> int:
    return _cokernel_order(f.codomain.invariant_factors, f.matrix)


def image_order(f: Morphism) -> int:
    return f.codomain.order // cokernel_order(f)


def kernel_order(f: Morphism) -> int:
    im = image_order(f)
    return f.domain.order // im


# ---------------------------------------------------------------------------
# linear solving
# ---------------------------------------------------------------------------


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """The pairs (p, p^k) with p^k exactly dividing n, p increasing: Z/n is
    the product of the local rings Z/p^k."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append((p, q))
        p += 1
    if n > 1:
        out.append((n, n))
    return out


def _solve_local(a, e: tuple[int, ...], targets, k: int, q: int):
    """``_solve_mod`` over the local ring Z/q, q = p^K the p-part of lcm(e).

    A row mod e_j keeps its p-part p^w = gcd(e_j, q) and is scaled, with
    its targets, by q / p^w into a row mod q; rows with p^w = 1 drop out.
    Gaussian elimination on [a | targets] mod q pivots on the first entry
    of least valuation (gcd with q) in row-major order and scales its unit
    part to 1.  That power of p divides every entry of the rows not yet
    pivoted, so clearing below takes one exact quotient per row and no gcd
    steps, and a pivot row's target must be divisible by it.  Leftover
    zero rows need zero targets.  Back-substitution sets the free unknowns
    to 0.  Returns one solution mod q per target, or None.
    """
    rows = []
    for j, d in enumerate(e):
        w = gcd(d, q)
        if w > 1:
            s = q // w
            rows.append([v * s % q for v in a[j]] + [t[j] * s % q for t in targets])
    pivots = []
    for t in range(len(rows)):
        best, pos = q, None
        for i in range(t, len(rows)):
            for c, v in enumerate(rows[i][:k]):
                if v and gcd(v, q) < best:
                    best, pos = gcd(v, q), (i, c)
            if best == 1:
                break
        if pos is None:
            break
        i, c = pos
        rows[i], rows[t] = rows[t], rows[i]
        unit = pow(rows[t][c] // best, -1, q)
        top = rows[t] = [v * unit % q for v in rows[t]]
        for r in range(t + 1, len(rows)):
            f = rows[r][c] // best
            if f:
                rows[r] = [(v - f * u) % q for v, u in zip(rows[r], top)]
        pivots.append((c, best, top))
    if any(any(row[k:]) for row in rows[len(pivots):]):
        return None
    solutions = []
    for col in range(k, k + len(targets)):
        x = [0] * k
        for c, g, row in reversed(pivots):
            rem = row[col] - sum(map(mul, row[:k], x))
            if rem % g:
                return None
            x[c] = rem % q // g
        solutions.append(x)
    return solutions


def _solve_mod(a, e: tuple[int, ...], targets, k: int) -> list[list[int]] | None:
    """One integer x of length k with a @ x == t (mod e) per target t, or None.

    ``e`` is any tuple of moduli, one per row of ``a``; it need not be a
    divisor chain.  Z/lcm(e) is the product of its local rings Z/p^K, so
    the system is solved in each (``_solve_local``) and the solutions are
    joined by the Chinese remainder theorem.  Deterministic: identical
    inputs give identical witnesses.  None means some target has no
    solution.
    """
    if not targets:
        return []
    n = lcm(*e)
    solutions = [[0] * k for _ in targets]
    for _, q in _prime_powers(n):
        m = n // q
        local = _solve_local(a, e, targets, k, q)
        if local is None:
            return None
        c = m * pow(m, -1, q)  # 1 mod q, 0 mod m
        for x, y in zip(solutions, local):
            x[:] = [(u + c * v) % n for u, v in zip(x, y)]
    for x, target in zip(solutions, targets):
        for j in range(len(e)):
            if (sum(map(mul, a[j], x)) - target[j]) % e[j]:
                raise AssertionError("solver produced a non-solution")
    return solutions


def solve(f: Morphism, target) -> tuple[int, ...] | None:
    """One solution x of f(x) == target, or None.

    Deterministic: the solution comes from ``_solve_mod``, so identical
    inputs give identical witnesses.  Checks the target like ``reduce``.
    """
    f.codomain._check_rank(target)
    xs = _solve_mod(f.matrix, f.codomain.invariant_factors, [target], f.domain.rank())
    return None if xs is None else f.domain.reduce(xs[0])


def solve_blocks(blocks: dict, cols, targets) -> tuple | None:
    """Solve sum_j l . x_j . r == targets[i] for all i over morphisms x_j.

    x_j: A_j -> B_j with ``cols[j] == (A_j, B_j)``, targets[i]: C_i -> D_i,
    and ``blocks[i, j] == (l, r)`` stands for x |-> l . x . r (None is an
    identity, absent blocks are zero).  Entry (b, a) of x_j is
    (B_b / gcd(A_a, B_b)) * c, well defined for every integer c; entry
    (r, s) of row i is one equation mod D_r, and all of them go into one
    ``_solve_mod`` system.  Returns one morphism per column, or None if
    unsolvable.  Each solution's entries are step * c mod B_b, reduced and
    well defined by the choice of step, so the morphisms are built through
    ``Morphism._trusted``.
    """
    unknowns = [
        [(b, a, e // gcd(d, e)) for b, e in enumerate(dst.invariant_factors)
         for a, d in enumerate(src.invariant_factors) if gcd(d, e) > 1]
        for src, dst in cols
    ]
    col_off = list(itertools.accumulate(map(len, unknowns), initial=0))
    sizes = (t.codomain.rank() * t.domain.rank() for t in targets)
    row_off = list(itertools.accumulate(sizes, initial=0))
    system = [[0] * col_off[-1] for _ in range(row_off[-1])]
    for (i, j), (l, r) in blocks.items():
        (src, dst), t = cols[j], targets[i]
        l_ends = (dst, dst) if l is None else (l.domain, l.codomain)
        r_ends = (src, src) if r is None else (r.domain, r.codomain)
        if l_ends != (dst, t.codomain) or r_ends != (t.domain, src):
            raise ValueError(f"block ({i}, {j}) has mismatched endpoints")
        left = dst.generators() if l is None else l.matrix
        right = src.generators() if r is None else r.matrix
        for v, (b, a, step) in enumerate(unknowns[j], col_off[j]):
            for row, lrow in enumerate(left):
                if lrow[b]:
                    for s, y in enumerate(right[a], row_off[i] + row * t.domain.rank()):
                        system[s][v] += lrow[b] * step * y
    e = [d for t in targets for d in t.codomain.invariant_factors for _ in range(t.domain.rank())]
    rhs = [v for t in targets for row in t.matrix for v in row]
    xs = _solve_mod(system, e, [rhs], col_off[-1])
    if xs is None:
        return None
    out = []
    for j, (src, dst) in enumerate(cols):
        rows = [[0] * src.rank() for _ in range(dst.rank())]
        for v, (b, a, step) in enumerate(unknowns[j], col_off[j]):
            rows[b][a] = step * xs[0][v] % dst.invariant_factors[b]
        out.append(Morphism._trusted(src, dst, tuple(map(tuple, rows))))
    return tuple(out)


def solution_set(f: Morphism, target):
    """All solutions of f(x) == target as an iterator: the coset of x0 =
    ``solve(f, target)``, walked in lex order of ``kernel(f)``'s coordinates."""
    x0 = solve(f, target)
    if x0 is None:
        return
    ker, incl = kernel(f)
    dom = f.domain
    for coeffs in ker.elements():
        yield dom.add(x0, incl.apply(coeffs))


def _factor(h: Morphism, m: Morphism) -> Morphism | None:
    """The one deterministic phi with m @ phi == h, checked, or None: phi
    is the one unknown of one ``solve_blocks`` system, so None is a
    definitive absence.  Behind ``splits`` (g . s = id),
    ``factor_through_mono`` and the family lifts (p . D_0 = d_f . p)."""
    sol = solve_blocks({(0, 0): (m, None)}, [(h.domain, m.domain)], [h])
    if sol is None:
        return None
    phi = sol[0]
    if (m @ phi).matrix != h.matrix:
        raise AssertionError("solved factor fails m . phi = h")
    return phi


def factor_through_mono(h: Morphism, m: Morphism) -> Morphism:
    """The unique phi with m @ phi == h (``_factor``), when the image of h
    lies in m.  Raises ValueError when no factorization exists."""
    if h.codomain != m.codomain:
        raise ValueError("codomain mismatch")
    phi = _factor(h, m)
    if phi is None:
        raise ValueError("morphism does not factor through the given mono")
    return phi


def factor_through_epi(h: Morphism, e: Morphism) -> Morphism:
    """The unique phi with phi @ e == h, when h kills the kernel of e.

    The dual of ``factor_through_mono``: e+ is mono exactly when e is epi,
    and phi @ e == h exactly when e+ @ phi+ == h+, as (-)+ is a faithful
    anti-equivalence with f++ == f.  Raises ValueError when e is not
    surjective or no factorization exists.
    """
    if h.domain != e.domain:
        raise ValueError("domain mismatch")
    if not e.is_epi():
        raise ValueError("the would-be epi is not surjective onto its codomain")
    try:
        return dual_mor(factor_through_mono(dual_mor(h), dual_mor(e)))
    except ValueError:
        raise ValueError("morphism does not descend along the epi") from None


# ---------------------------------------------------------------------------
# direct sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectSum:
    module: FiniteModule
    injections: tuple[Morphism, ...]
    projections: tuple[Morphism, ...]


@lru_cache(maxsize=4096)
def direct_sum_many(summands: tuple[FiniteModule, ...]) -> DirectSum:
    """Biproduct of finitely many modules, with structural morphisms."""
    if not summands:
        raise ValueError("direct_sum_many needs at least one summand")
    ring = summands[0].ring
    if any(m.ring != ring for m in summands):
        raise ValueError("summands live over different rings")
    rel = _diagonal_rows([d for m in summands for d in m.invariant_factors])
    can = _canonicalized(ring, len(rel), rel)
    s = can.module
    injections = []
    projections = []
    offsets = itertools.accumulate((m.rank() for m in summands), initial=0)
    for m, off in zip(summands, offsets):
        block = slice(off, off + m.rank())
        injections.append(Morphism.from_columns(m, s, can.generator_images[block]))
        proj_cols = [m.reduce(lift[block]) for lift in can.generator_lifts]
        projections.append(Morphism.from_columns(s, m, proj_cols))
    return DirectSum(s, tuple(injections), tuple(projections))


def direct_sum(m1: FiniteModule, m2: FiniteModule) -> DirectSum:
    return direct_sum_many((m1, m2))
