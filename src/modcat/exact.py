"""Conflations of finite Z/n-modules and their exact-structure operations.

A conflation is a kernel-cokernel pair (f, g): f is monic, g is epic,
g . f = 0, and the middle order equals the product of the end orders —
over a finite base these four cheap checks together are equivalent to
"f is a kernel of g and g is a cokernel of f".  ``make_conflation``
additionally re-derives both universal properties through the canonical
kernel and cokernel and checks the comparison maps are isomorphisms,
giving an independent route to the same verdict.  ``Conflation._trusted``
skips the four checks for the one pair that is a conflation by
construction, a subgroup entry's inclusion and projection; every other
conflation is checked once, where it is built.

A pullback is the kernel of [g | -h] on the concatenated coordinates of
dom g and dom h, a pushout the cokernel of [f; -h] into those of cod f
and cod h; neither builds the direct sum or composes with its
injections or projections.  The legs are row slices of the kernel
inclusion and of the cokernel projection, reduced and well defined by
construction, so they are built through ``Morphism._trusted`` without a
second validation.  What covers them is asserted at construction time:
the commuting square, once, as two products of residue rows read off the
given maps and the legs (g . to_g == h . to_h, from_f . f == from_h . h),
with no ``Morphism`` composite and none of the stacked rows the kernel or
cokernel was taken of, so a wrong sign in those rows is caught here; the
order of the fiber product (pushout); and the deflation (inflation)
stability of the leg opposite g (f).  A conflation splits exactly when
its deflation has a section, so ``splits`` takes the deflation alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .modules import (
    FiniteModule,
    Morphism,
    _cokernel_columns,
    _compose_rows,
    _factor,
    _kernel_rows,
    cokernel,
    factor_through_epi,
    factor_through_mono,
    kernel,
    solve,
)


class NotAConflation(ValueError):
    """A would-be conflation failed validation.

    ``reason`` says which property broke; ``witness`` carries the element
    or order data demonstrating it.
    """

    def __init__(self, reason: str, witness=None):
        super().__init__(reason if witness is None else f"{reason} (witness: {witness})")
        self.reason = reason
        self.witness = witness


@dataclass(frozen=True)
class Conflation:
    f: Morphism
    g: Morphism

    def __post_init__(self):
        f, g = self.f, self.g
        if f.codomain != g.domain:
            raise NotAConflation("inflation codomain differs from deflation domain")
        comp = g @ f
        if not comp.is_zero_morphism:
            for gen in f.domain.generators():
                if any(comp.apply(gen)):
                    raise NotAConflation(
                        "composite of the two legs is nonzero", witness=gen
                    )
        if not f.is_mono():
            ker, incl = kernel(f)
            raise NotAConflation(
                "first leg is not a kernel of the second (not monic)",
                witness=incl.apply(ker.generators()[0]),
            )
        if not g.is_epi():
            # The lexicographically first element outside the image: the
            # last unit vector outside it, since every element before that
            # one lies in the span of the later unit vectors.
            for y in reversed(g.codomain.generators()):
                if solve(g, y) is None:
                    raise NotAConflation(
                        "second leg is not a cokernel of the first (not epic)",
                        witness=y,
                    )
        if f.codomain.order != f.domain.order * g.codomain.order:
            raise NotAConflation(
                "middle order differs from the product of the end orders",
                witness=(f.domain.order, f.codomain.order, g.codomain.order),
            )

    @classmethod
    def _trusted(cls, f: Morphism, g: Morphism) -> "Conflation":
        """A conflation built without ``__post_init__``.

        Only for a pair that is a conflation by construction: a subgroup
        entry's kernel inclusion and cokernel projection, whose orders its
        build checks against the Smith invariants.  The public constructor,
        ``from_dict``, ``conflation_from_mono``, ``conflation_from_epi`` and
        ``purity.dual_conflation`` keep validating.  The fields are set as
        the frozen dataclass's ``__init__`` sets them, so equality and the
        hash are the validated conflation's.
        """
        c = object.__new__(cls)
        object.__setattr__(c, "f", f)
        object.__setattr__(c, "g", g)
        return c

    @property
    def sub(self) -> FiniteModule:
        return self.f.domain

    @property
    def total(self) -> FiniteModule:
        return self.f.codomain

    @property
    def quotient(self) -> FiniteModule:
        return self.g.codomain

    def to_dict(self) -> dict:
        return {"f": self.f.to_dict(), "g": self.g.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "Conflation":
        return cls(Morphism.from_dict(data["f"]), Morphism.from_dict(data["g"]))


def make_conflation(f: Morphism, g: Morphism) -> Conflation:
    """Validate (f, g) through both universal properties and return it.

    Beyond the constructor's order-counting characterization, this
    computes kernel(g) and cokernel(f) and checks the comparison maps
    are isomorphisms — a second, independent derivation of the verdict.
    """
    c = Conflation(f, g)
    kmod, kincl = kernel(g)
    phi = factor_through_mono(f, kincl)
    if not phi.is_iso():
        raise NotAConflation(
            "first leg is not a kernel of the second",
            witness=(kmod.invariant_factors, f.domain.invariant_factors),
        )
    cmod, cproj = cokernel(f)
    psi = factor_through_epi(g, cproj)
    if not psi.is_iso():
        raise NotAConflation(
            "second leg is not a cokernel of the first",
            witness=(cmod.invariant_factors, g.codomain.invariant_factors),
        )
    return c


def conflation_from_mono(f: Morphism) -> Conflation:
    """Complete a monomorphism to a conflation with its canonical cokernel."""
    _, proj = cokernel(f)
    return Conflation(f, proj)


def conflation_from_epi(g: Morphism) -> Conflation:
    """Complete an epimorphism to a conflation with its canonical kernel."""
    _, incl = kernel(g)
    return Conflation(incl, g)


def is_inflation(f: Morphism) -> bool:
    return f.is_mono()


def is_deflation(f: Morphism) -> bool:
    return f.is_epi()


# ---------------------------------------------------------------------------
# pullbacks and pushouts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pullback:
    """Fiber product of g and h with its two projections."""

    module: FiniteModule
    to_domg: Morphism
    to_domh: Morphism


def pullback(g: Morphism, h: Morphism) -> Pullback:
    """Pull the deflation g back along h: {(y, w) : g(y) = h(w)}.

    The fiber product is the kernel of [g | -h] on dom g + dom h in the
    concatenated coordinates, factors d_g then d_h; the first len(d_g)
    rows of its inclusion are the projection to dom g, the rest the one
    to dom h.  The square g . to_g == h . to_h is asserted on the rows of
    g, h and the two legs; it is also what puts the inclusion in the
    kernel, which ``_kernel_rows`` leaves to its caller.  The projection
    opposite g (to dom h) is again a deflation; this is asserted, as is
    the fiber-product order |Q| = |dom g| * |dom h| / |cod g|.
    """
    if g.codomain != h.codomain:
        raise ValueError("pullback legs must share a codomain")
    if not g.is_epi():
        raise ValueError("pullback requires its first leg to be a deflation")
    d = g.domain.invariant_factors
    e = g.codomain.invariant_factors
    rows = tuple(
        rg + tuple(-x % ej for x in rh) for rg, rh, ej in zip(g.matrix, h.matrix, e)
    )
    q, incl = _kernel_rows(g.domain.ring, d + h.domain.invariant_factors, e, rows)
    to_g = Morphism._trusted(q, g.domain, incl[: len(d)])
    to_h = Morphism._trusted(q, h.domain, incl[len(d) :])
    k = q.rank()
    if _compose_rows(g.matrix, to_g.matrix, e, k) != _compose_rows(h.matrix, to_h.matrix, e, k):
        raise AssertionError("pullback square does not commute")
    if q.order * g.codomain.order != g.domain.order * h.domain.order:
        raise AssertionError("fiber product has the wrong order")
    if not to_h.is_epi():
        raise AssertionError("pullback of a deflation failed to be a deflation")
    return Pullback(q, to_g, to_h)


@dataclass(frozen=True)
class Pushout:
    """Cofiber coproduct of f and h with its two coprojections."""

    module: FiniteModule
    from_codf: Morphism
    from_codh: Morphism


def pushout(f: Morphism, h: Morphism) -> Pushout:
    """Push the inflation f out along h: (cod f + cod h) / {(f x, -h x)}.

    The pushout is the cokernel of [f; -h] into cod f + cod h in the
    concatenated coordinates, factors e_f then e_h; the first len(e_f)
    columns of its projection are the coprojection from cod f, the rest
    the one from cod h.  The square from_f . f == from_h . h is asserted
    on the rows of the two coprojections, f and h.  The coprojection
    opposite f (from cod h) is again an inflation; asserted together
    with the quotient order.
    """
    if f.domain != h.domain:
        raise ValueError("pushout legs must share a domain")
    if not f.is_mono():
        raise ValueError("pushout requires its first leg to be an inflation")
    e = f.codomain.invariant_factors
    eh = h.codomain.invariant_factors
    rows = f.matrix + tuple(tuple(-x % ej for x in row) for row, ej in zip(h.matrix, eh))
    q, cols = _cokernel_columns(f.domain.ring, e + eh, rows)
    proj = tuple(zip(*cols))
    from_f = Morphism._trusted(f.codomain, q, tuple(r[: len(e)] for r in proj))
    from_h = Morphism._trusted(h.codomain, q, tuple(r[len(e) :] for r in proj))
    eq, k = q.invariant_factors, f.domain.rank()
    via_f = _compose_rows(from_f.matrix, f.matrix, eq, k)
    if via_f != _compose_rows(from_h.matrix, h.matrix, eq, k):
        raise AssertionError("pushout square does not commute")
    if q.order * f.domain.order != f.codomain.order * h.codomain.order:
        raise AssertionError("pushout has the wrong order")
    if not from_h.is_mono():
        raise AssertionError("pushout of an inflation failed to be an inflation")
    return Pushout(q, from_f, from_h)


# ---------------------------------------------------------------------------
# splittings
# ---------------------------------------------------------------------------


def splits(g: Morphism) -> Morphism | None:
    """A section s: M -> B of the deflation g: B -> M, or None if none.

    s is the factor of id_M through g (``_factor``), so None is a definitive
    absence.  A section is the whole witness: with f: A -> B a kernel of g,
    id - s . g factors as f . r through ``factor_through_mono``, and that r
    is a retraction of f.
    """
    return _factor(Morphism.identity(g.codomain), g)
