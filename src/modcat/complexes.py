"""Bounded cochain complexes of finite Z/n-modules.

A complex stores a contiguous support window: a lowest degree, the
components in consecutive degrees, and the differentials between them.
Outside the window everything is zero; accessors synthesize the zero
components and zero differentials so degree arithmetic never needs
special cases.  Windows are normalized (no zero components at either
edge), which makes structural equality meaningful.

The chain identities (d . d = 0 in a complex, d_T . f = f . d_S for a
chain map, exactness in every degree of a conflation of complexes) are
checked by the public constructors and ``from_dict``, on the residue rows
of the composites: no composite morphism and no synthesized zero map is
built for them, and degrees outside a window read as zero matrices.  The
duals (``dual_complex``, ``double_dual_complex_iso`` and the f+ of
``is_pure_complex_conflation``) build through the private ``_trusted``
constructors instead: the character dual is an exact anti-equivalence
that keeps windows normalized, so their identities hold by construction.
So do the flat disk cover, whose kernel ``enumeration`` writes in closed
form, and the family middles that ``enumeration._middle`` reads off
subgroup-catalog entries.  A tier-1 test rebuilds every trusted object of
a suite run through the validating constructors.

Chain-level questions (does a conflation of complexes split? is a
complex contractible?) are one exact block system whose unknowns are the
degreewise morphisms themselves (``solve_blocks``), so every "no" is a
definitive absence, not a search failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exact import Conflation
from .modules import (
    FiniteModule,
    Morphism,
    RingSpec,
    _compose_rows,
    cokernel,
    cyclic,
    dual,
    dual_mor,
    factor_through_mono,
    image_order,
    kernel,
    kernel_order,
    solve_blocks,
)
from .monoidal import tensor, tensor_mor
from .purity import double_dual_unit, is_flat, is_injective


def _strip(lo: int, components: tuple, differentials: tuple):
    comps = list(components)
    diffs = list(differentials)
    while comps and comps[0].is_zero:
        comps.pop(0)
        if diffs:
            diffs.pop(0)
        lo += 1
    while comps and comps[-1].is_zero:
        comps.pop()
        if diffs:
            diffs.pop()
    if not comps:
        return 0, (), ()
    return lo, tuple(comps), tuple(diffs)


@dataclass(frozen=True)
class Complex:
    ring: RingSpec
    lo: int
    components: tuple[FiniteModule, ...]
    differentials: tuple[Morphism, ...]
    hi: int = field(init=False, repr=False, compare=False)
    """Highest degree carrying a (possibly) nonzero component; lo - 1 when zero."""

    def __post_init__(self):
        lo, comps, diffs = _strip(self.lo, self.components, self.differentials)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "differentials", diffs)
        object.__setattr__(self, "hi", lo + len(comps) - 1)
        if comps and len(diffs) != len(comps) - 1:
            raise ValueError("need exactly one differential between consecutive degrees")
        for m in comps:
            if m.ring != self.ring:
                raise ValueError("component over the wrong ring")
        for i, d in enumerate(diffs):
            if d.domain != comps[i] or d.codomain != comps[i + 1]:
                raise ValueError(f"differential {i} has mismatched endpoints")
        for i in range(len(diffs) - 1):
            rows = _compose_rows(
                diffs[i + 1].matrix, diffs[i].matrix, comps[i + 2].invariant_factors, comps[i].rank()
            )
            if any(map(any, rows)):
                raise ValueError(f"differentials at positions {i}, {i + 1} do not compose to zero")

    @classmethod
    def _trusted(cls, ring: RingSpec, lo: int, components, differentials) -> "Complex":
        """A complex built without ``__post_init__``.

        Only for a window that is normalized, with differentials that
        match their endpoints and compose to zero, by construction (a
        dual, the disk cover and its kernel, a family middle); the public
        constructor and ``from_dict`` keep validating.  The fields are set
        one by one, as in ``Morphism._trusted``, so that no instance dict
        is materialised.
        """
        x = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(x, "ring", ring)
        setattr_(x, "lo", lo)
        setattr_(x, "components", components)
        setattr_(x, "differentials", differentials)
        setattr_(x, "hi", lo + len(components) - 1)
        return x

    @property
    def is_zero(self) -> bool:
        return not self.components

    def degrees(self) -> range:
        return range(self.lo, self.lo + len(self.components))

    def component(self, n: int) -> FiniteModule:
        if self.lo <= n <= self.hi:
            return self.components[n - self.lo]
        return self.ring.zero_module()

    def differential(self, n: int) -> Morphism:
        if self.lo <= n < self.hi:
            return self.differentials[n - self.lo]
        return Morphism.zero(self.component(n), self.component(n + 1))

    def _factors(self, n: int) -> tuple[int, ...]:
        """Invariant factors of the degree-n component (() outside the window)."""
        if self.lo <= n <= self.hi:
            return self.components[n - self.lo].invariant_factors
        return ()

    def _differential_rows(self, n: int):
        """The matrix of d^n, or None where it is zero outside the window."""
        if self.lo <= n < self.hi:
            return self.differentials[n - self.lo].matrix
        return None

    def to_dict(self) -> dict:
        return {
            "n": self.ring.modulus,
            "degrees": list(self.degrees()),
            "components": [m.to_dict() for m in self.components],
            "differentials": [d.to_dict() for d in self.differentials],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Complex":
        ring = RingSpec(data["n"])
        degrees = list(data["degrees"])
        if any(type(x) is not int for x in degrees):
            raise TypeError("degrees must be ints")
        comps = tuple(FiniteModule.from_dict(m) for m in data["components"])
        diffs = tuple(Morphism.from_dict(d) for d in data["differentials"])
        lo = degrees[0] if degrees else 0
        if degrees != list(range(lo, lo + len(comps))):
            raise ValueError(f"degrees {degrees} do not number the {len(comps)} components")
        return cls(ring, lo, comps, diffs)


def zero_complex(ring: RingSpec) -> Complex:
    return Complex(ring, 0, (), ())


def single_complex(m: FiniteModule, degree: int = 0) -> Complex:
    """The complex with m concentrated in one degree."""
    return Complex(m.ring, degree, (m,), ())


def two_term_complex(d: Morphism, degree: int = 0) -> Complex:
    """The complex dom(d) -> cod(d) in degrees (degree, degree + 1)."""
    return Complex(d.domain.ring, degree, (d.domain, d.codomain), (d,))


@dataclass(frozen=True)
class ChainMap:
    source: Complex
    target: Complex
    parts: tuple[Morphism, ...]
    """One morphism per source-window degree; zero maps elsewhere are implied."""

    def __post_init__(self):
        if self.source.ring != self.target.ring:
            raise ValueError("chain map endpoints over different rings")
        if len(self.parts) != len(self.source.components):
            raise ValueError("need exactly one part per source-window degree")
        for i, p in enumerate(self.parts):
            n = self.source.lo + i
            if p.domain != self.source.component(n) or p.codomain != self.target.component(n):
                raise ValueError(f"part at degree {n} has mismatched endpoints")
        src, tgt = self.source, self.target
        windows = [x.degrees() for x in (src, tgt) if x.components]
        if not windows:
            return
        lo = min(w.start for w in windows)
        hi = max(w.stop for w in windows)
        for n in range(lo - 1, hi):
            e, k = tgt._factors(n + 1), len(src._factors(n))
            lhs = _compose_rows(tgt._differential_rows(n), self._part_rows(n), e, k)
            rhs = _compose_rows(self._part_rows(n + 1), src._differential_rows(n), e, k)
            if lhs != rhs:
                raise ValueError(f"chain map fails to commute with differentials at degree {n}")

    @classmethod
    def _trusted(cls, source: Complex, target: Complex, parts) -> "ChainMap":
        """A chain map built without ``__post_init__``, for parts that match
        their endpoints and commute with the differentials by construction
        (a dual, the double-dual unit, the maps of the disk cover and of a
        family middle, whose inclusions ``factor_through_mono`` checked);
        the public constructor keeps validating."""
        phi = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(phi, "source", source)
        setattr_(phi, "target", target)
        setattr_(phi, "parts", parts)
        return phi

    def part(self, n: int) -> Morphism:
        if self.source.lo <= n <= self.source.hi:
            return self.parts[n - self.source.lo]
        return Morphism.zero(self.source.component(n), self.target.component(n))

    def _part_rows(self, n: int):
        """The matrix of f^n, or None where it is zero outside the window."""
        if self.source.lo <= n <= self.source.hi:
            return self.parts[n - self.source.lo].matrix
        return None

    def to_dict(self) -> dict:
        return {
            "source": self.source.to_dict(),
            "target": self.target.to_dict(),
            "parts": [p.to_dict() for p in self.parts],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChainMap":
        return cls(
            Complex.from_dict(data["source"]),
            Complex.from_dict(data["target"]),
            tuple(Morphism.from_dict(p) for p in data["parts"]),
        )


@dataclass(frozen=True)
class ComplexConflation:
    f: ChainMap
    g: ChainMap

    def __post_init__(self):
        if self.f.target != self.g.source:
            raise ValueError("chain maps do not compose through a common middle")
        # Every degree of any of the three windows: elsewhere all three are 0.
        for n in sorted({n for x in (self.sub, self.total, self.quotient) for n in x.degrees()}):
            self.degreewise(n)

    @classmethod
    def _trusted(cls, f: ChainMap, g: ChainMap) -> "ComplexConflation":
        """A conflation of complexes built without ``__post_init__``, for
        chain maps that are degreewise conflations by construction (the
        disk cover, a family middle over subgroup-catalog entries); the
        public constructor keeps validating."""
        c = object.__new__(cls)
        object.__setattr__(c, "f", f)
        object.__setattr__(c, "g", g)
        return c

    @property
    def sub(self) -> Complex:
        return self.f.source

    @property
    def total(self) -> Complex:
        return self.f.target

    @property
    def quotient(self) -> Complex:
        return self.g.target

    def degreewise(self, n: int) -> Conflation:
        return Conflation(self.f.part(n), self.g.part(n))

    def to_dict(self) -> dict:
        return {"f": self.f.to_dict(), "g": self.g.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "ComplexConflation":
        return cls(ChainMap.from_dict(data["f"]), ChainMap.from_dict(data["g"]))


# ---------------------------------------------------------------------------
# acyclicity, kernels, flatness
# ---------------------------------------------------------------------------


def cohomology(x: Complex, n: int) -> FiniteModule:
    """ker(d^n) / im(d^(n-1)) in canonical form."""
    _, incl = kernel(x.differential(n))
    into_kernel = factor_through_mono(x.differential(n - 1), incl)
    h, _ = cokernel(into_kernel)
    return h


def is_acyclic(x: Complex) -> bool:
    """Cohomology vanishes in every degree, support boundaries included."""
    if x.is_zero:
        return True
    for n in range(x.lo, x.hi + 2):
        if kernel_order(x.differential(n)) != image_order(x.differential(n - 1)):
            return False
    return True


def kernel_objects(x: Complex) -> dict[int, FiniteModule]:
    """The modules ker(d^n) for every degree in the window."""
    return {n: kernel(x.differential(n))[0] for n in x.degrees()}


def tensor_with_module(x: Complex, w: FiniteModule) -> Complex:
    ident = Morphism.identity(w)
    comps = tuple(tensor(m, w).module for m in x.components)
    diffs = tuple(tensor_mor(d, ident) for d in x.differentials)
    return Complex(x.ring, x.lo, comps, diffs)


def is_pure_acyclic(x: Complex) -> bool:
    """Acyclic after tensoring with Z/d for every divisor d | n, d > 1."""
    for d in x.ring.divisors():
        if d == 1:
            continue
        if not is_acyclic(tensor_with_module(x, cyclic(x.ring, d))):
            return False
    return True


def is_flat_complex(x: Complex) -> bool:
    """Acyclic with every kernel object flat."""
    if not is_acyclic(x):
        return False
    return all(is_flat(k) for k in kernel_objects(x).values())


# ---------------------------------------------------------------------------
# duality on complexes
# ---------------------------------------------------------------------------


def _sign(n: int) -> int:
    # (-1) ** n, safe for negative n (int ** negative int is a float)
    return 1 if n % 2 == 0 else -1


def dual_complex(x: Complex) -> Complex:
    """Degreewise dual with degrees negated; differential carries (-1)^(n+1).

    Trusted: dual(m) = m keeps the window normalized, and (d . d)+ = 0."""
    if x.is_zero:
        return x
    lo = -x.hi
    comps = tuple(dual(m) for m in reversed(x.components))
    diffs = tuple(
        dual_mor(d).scaled(_sign(n + 1))
        for n, d in zip(range(lo, -x.lo), reversed(x.differentials))
    )
    return Complex._trusted(x.ring, lo, comps, diffs)


def _dual_parts(phi: ChainMap, src: Complex) -> tuple[Morphism, ...]:
    """The parts of phi+: target+ -> source+ on the window of
    src = dual_complex(phi.target), degreewise duals with no extra signs:
    (-)+ is a functor, and both dual differentials carry the same sign in
    each degree."""
    return tuple(dual_mor(phi.part(-n)) for n in src.degrees())


def double_dual_complex_iso(x: Complex) -> ChainMap:
    """The chain isomorphism x -> dual(dual(x)) with parts (-1)^n * lambda.

    Trusted: lambda is natural and the double dual's differentials are
    -d++, which the signs (-1)^n absorb."""
    dd = dual_complex(dual_complex(x))
    parts = tuple(
        double_dual_unit(m).scaled(_sign(n)) for n, m in zip(x.degrees(), x.components)
    )
    return ChainMap._trusted(x, dd, parts)


# ---------------------------------------------------------------------------
# chain-level splitting and contractibility
# ---------------------------------------------------------------------------


def splits_as_complexes(c: ComplexConflation) -> ChainMap | None:
    """A chain section s: Z -> Y of the deflation (``_chain_section``), or
    None when c does not chain-split.  It is the whole witness: a
    retraction of f is factored from id - s . g degreewise and then
    commutes with the differentials."""
    return _chain_section(c.g)


def _chain_section(g: ChainMap) -> ChainMap | None:
    """A chain map s: Z -> Y with g . s = id, or None: one block system
    for all degrees at once, whose unknowns are the degreewise candidate
    sections s^n: Z^n -> Y^n and whose constraints are g^n . s^n = id and
    d_Y . s^n - s^(n+1) . d_Z = 0, so None is a definitive absence.  The
    solution is validated as a chain map."""
    z = g.target
    y = g.source
    window = list(z.degrees())
    k = len(window)
    blocks = {}
    for i, n in enumerate(window):
        blocks[i, i] = (g.part(n), None)
        blocks[k + i, i] = (y.differential(n), None)
        if i + 1 < k:
            blocks[k + i, i + 1] = (None, -z.differential(n))
    targets = [Morphism.identity(z.component(n)) for n in window]
    targets += [Morphism.zero(z.component(n), y.component(n + 1)) for n in window]
    cols = [(z.component(n), y.component(n)) for n in window]
    sol = solve_blocks(blocks, cols, targets)
    if sol is None:
        return None
    return ChainMap(z, y, sol)


def is_pure_complex_conflation(c: ComplexConflation) -> bool:
    """Purity in the complex category: the dual conflation chain-splits.
    That reads only its deflation f+: Y+ -> X+, the one dual built
    (trusted, as (-)+ is an exact functor); Z+ and g+ are never needed."""
    y = dual_complex(c.total)
    f_dual = ChainMap._trusted(y, dual_complex(c.sub), _dual_parts(c.f, y))
    return _chain_section(f_dual) is not None


def is_contractible(x: Complex) -> bool:
    """A homotopy h with d h + h d = id exists (exact linear solve)."""
    window = list(x.degrees())
    blocks = {}
    for i, n in enumerate(window):
        blocks[i, i] = (x.differential(n - 1), None)
        if i + 1 < len(window):
            blocks[i, i + 1] = (None, x.differential(n))
    targets = [Morphism.identity(x.component(n)) for n in window]
    cols = [(x.component(n), x.component(n - 1)) for n in window]
    return solve_blocks(blocks, cols, targets) is not None


def is_injective_complex(x: Complex) -> bool:
    """Contractible with injective components."""
    return is_contractible(x) and all(is_injective(m) for m in x.components)
