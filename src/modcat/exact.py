"""Conflations of finite Z/n-modules and their exact-structure operations.

A conflation is a kernel-cokernel pair (f, g): f is monic, g is epic,
g . f = 0, and the middle order equals the product of the end orders —
over a finite base these four cheap checks together are equivalent to
"f is a kernel of g and g is a cokernel of f".  ``make_conflation``
additionally re-derives both universal properties through the canonical
kernel and cokernel and checks the comparison maps are isomorphisms,
giving an independent route to the same verdict.

Pullbacks are fiber products carved out of a biproduct, pushouts are
quotients of one; both validate their defining squares and the
inflation/deflation stability postconditions at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .modules import (
    DirectSum,
    FiniteModule,
    Morphism,
    cokernel,
    direct_sum,
    factor_through_epi,
    factor_through_mono,
    kernel,
    solve,
    solve_blocks,
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
            for t in range(f.domain.rank()):
                gen = tuple(1 if s == t else 0 for s in range(f.domain.rank()))
                if any(comp.apply(gen)):
                    raise NotAConflation(
                        "composite of the two legs is nonzero", witness=gen
                    )
        if not f.is_mono():
            ker, incl = kernel(f)
            gen = tuple(1 if s == 0 else 0 for s in range(ker.rank()))
            raise NotAConflation(
                "first leg is not a kernel of the second (not monic)",
                witness=incl.apply(gen),
            )
        if not g.is_epi():
            for y in g.codomain.elements():
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
    """Fiber product of g and h with its two projections.

    ``embed`` realizes the module as a submodule of dom(g) + dom(h);
    it is what mediating morphisms factor through.
    """

    module: FiniteModule
    to_domg: Morphism
    to_domh: Morphism
    embed: Morphism
    ambient: DirectSum


def pullback(g: Morphism, h: Morphism) -> Pullback:
    """Pull the deflation g back along h.

    The projection opposite g (to dom h) is again a deflation; this and
    the commuting square are asserted, as is the fiber-product order
    |Q| = |dom g| * |dom h| / |cod g|.
    """
    if g.codomain != h.codomain:
        raise ValueError("pullback legs must share a codomain")
    if not g.is_epi():
        raise ValueError("pullback requires its first leg to be a deflation")
    ds = direct_sum(g.domain, h.domain)
    delta = g @ ds.projections[0] - h @ ds.projections[1]
    q, embed = kernel(delta)
    to_g = ds.projections[0] @ embed
    to_h = ds.projections[1] @ embed
    if (g @ to_g).matrix != (h @ to_h).matrix:
        raise AssertionError("pullback square does not commute")
    if q.order * g.codomain.order != g.domain.order * h.domain.order:
        raise AssertionError("fiber product has the wrong order")
    if not to_h.is_epi():
        raise AssertionError("pullback of a deflation failed to be a deflation")
    return Pullback(q, to_g, to_h, embed, ds)


@dataclass(frozen=True)
class Pushout:
    """Cofiber coproduct of f and h with its two coprojections."""

    module: FiniteModule
    from_codf: Morphism
    from_codh: Morphism
    project: Morphism
    ambient: DirectSum


def pushout(f: Morphism, h: Morphism) -> Pushout:
    """Push the inflation f out along h: (cod f + cod h) / {(f x, -h x)}.

    The coprojection opposite f (from cod h) is again an inflation;
    asserted together with the square and the quotient order.
    """
    if f.domain != h.domain:
        raise ValueError("pushout legs must share a domain")
    if not f.is_mono():
        raise ValueError("pushout requires its first leg to be an inflation")
    ds = direct_sum(f.codomain, h.codomain)
    gamma = ds.injections[0] @ f - ds.injections[1] @ h
    q, proj = cokernel(gamma)
    from_f = proj @ ds.injections[0]
    from_h = proj @ ds.injections[1]
    if (from_f @ f).matrix != (from_h @ h).matrix:
        raise AssertionError("pushout square does not commute")
    if q.order * f.domain.order != f.codomain.order * h.codomain.order:
        raise AssertionError("pushout has the wrong order")
    if not from_h.is_mono():
        raise AssertionError("pushout of an inflation failed to be an inflation")
    return Pushout(q, from_f, from_h, proj, ds)


# ---------------------------------------------------------------------------
# splittings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitWitness:
    """A section of the deflation and the matching retraction of the inflation."""

    section: Morphism
    retraction: Morphism


def splits(c: Conflation) -> SplitWitness | None:
    """Search for a splitting of the conflation; None is definitive absence.

    The section is the one unknown s: M -> B of the block system
    g . s = id_M, solved exactly with one Smith form, so it is the
    system's one deterministic solution.  The retraction is derived from
    the section, so a witness always carries both or the conflation does
    not split at all.
    """
    g, f = c.g, c.f
    m = c.quotient
    sol = solve_blocks({(0, 0): (g, None)}, [(m, c.total)], [Morphism.identity(m)])
    if sol is None:
        return None
    section = sol[0]
    retraction = factor_through_mono(Morphism.identity(c.total) - section @ g, f)
    if (g @ section).matrix != Morphism.identity(m).matrix:
        raise AssertionError("computed section fails g . s = id")
    if (retraction @ f).matrix != Morphism.identity(c.sub).matrix:
        raise AssertionError("derived retraction fails r . f = id")
    return SplitWitness(section, retraction)
