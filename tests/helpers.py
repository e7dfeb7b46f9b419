"""Constructions that only the tests use: morphism samples, mono slices,
the direct-sum embedding of a pullback and projection onto a pushout,
their mediating morphisms, the direct-sum route to pullbacks and pushouts
as an oracle for the concatenated-coordinate one, identity chain maps,
the dual of a chain map and of a conflation of complexes (the oracle for
chain-level purity), the completion of a chain epi to a conflation of
complexes (the oracle for the family middles), multiplication maps,
element orders, the per-term tensor of two morphisms as an oracle for the
products of ``tensor_mor``, the tensor oracle of purity over every
divisor of n as the oracle for the one over the middle's exponent, the lattice
route to subgroups and kernels, an oracle independent of the package's cokernel-and-dual-kernel
route, and the hom-module coordinate maps h |-> g . h and h |-> h . f with
the walk over their solution cosets that completes middle differentials,
the retraction of a split conflation (of modules or of complexes)
factored from its section, the cyclic-subgroup walk over every element
of the module, the conflation walks that build the catalog of every
middle as the oracles for the ones that skip the middles no conflation
fits, package functions recompiled with one source
change, as mutants, a reset of the package's caches, a recorder of
what a suite run builds through the private ``_trusted`` constructors,
and the axioms suite run once per modulus, without the sharing across
moduli, as the oracle for the shared run.

The package never calls these, so they live next to the tests.
"""

import importlib
import inspect
import itertools
import pkgutil
import random
import sys
import textwrap
from math import gcd, lcm

import pytest

import modcat
from modcat.complexes import ChainMap, Complex, ComplexConflation, _dual_parts, dual_complex
from modcat.enumeration import (
    _quotient_factors,
    cyclic_subgroup_catalog,
    enumerate_modules,
    enumerate_morphisms,
    modules_of_order,
    subgroup_catalog,
)
from modcat.exact import Conflation, Pullback, Pushout
from modcat.modules import (
    FiniteModule,
    Morphism,
    Presentation,
    _augmented,
    canonicalize,
    cokernel,
    cyclic,
    direct_sum,
    factor_through_epi,
    factor_through_mono,
    kernel,
    solution_set,
)
from modcat.monoidal import hom_module, tensor
from modcat.purity import conflation_tensor_failure
from modcat.snf import hermite_normal_form, smith_normal_form
from modcat.suites import (
    AXIOM_MIDDLE_CAP,
    AXIOM_PARTNER_CAP,
    SuiteConfig,
    SuiteResult,
    _select,
    run_suite,
)


def sample_morphisms(dom: FiniteModule, cod: FiniteModule, count: int, seed: int):
    """A reproducible sample of morphisms dom -> cod."""
    rng = random.Random((seed, dom.invariant_factors, cod.invariant_factors, count).__repr__())
    d = dom.invariant_factors
    e = cod.invariant_factors
    for _ in range(count):
        matrix = tuple(
            tuple(
                rng.randrange(gcd(d[i], e[j])) * (e[j] // gcd(d[i], e[j]))
                for i in range(len(d))
            )
            for j in range(len(e))
        )
        yield Morphism(dom, cod, matrix)


def enumerate_monos(dom: FiniteModule, cod: FiniteModule):
    return (f for f in enumerate_morphisms(dom, cod) if f.is_mono())


def pullback_embedding(pb: Pullback):
    """(dom g + dom h, the embedding of the fiber product into it): the
    pair of the two projections."""
    ds = direct_sum(pb.to_domg.codomain, pb.to_domh.codomain)
    return ds, ds.injections[0] @ pb.to_domg + ds.injections[1] @ pb.to_domh


def pushout_projection(po: Pushout):
    """(cod f + cod h, the projection from it onto the pushout): the copair
    of the two coprojections."""
    ds = direct_sum(po.from_codf.domain, po.from_codh.domain)
    return ds, po.from_codf @ ds.projections[0] + po.from_codh @ ds.projections[1]


def pullback_mediate(pb: Pullback, u: Morphism, v: Morphism) -> Morphism:
    """The unique w with to_domg . w = u and to_domh . w = v."""
    ds, embed = pullback_embedding(pb)
    pair = ds.injections[0] @ u + ds.injections[1] @ v
    w = factor_through_mono(pair, embed)
    if (pb.to_domg @ w).matrix != u.matrix or (pb.to_domh @ w).matrix != v.matrix:
        raise AssertionError("mediating morphism does not reproduce the cone")
    return w


def pushout_mediate(po: Pushout, u: Morphism, v: Morphism) -> Morphism:
    """The unique w with w . from_codf = u and w . from_codh = v."""
    ds, project = pushout_projection(po)
    copair = u @ ds.projections[0] + v @ ds.projections[1]
    w = factor_through_epi(copair, project)
    if (w @ po.from_codf).matrix != u.matrix or (w @ po.from_codh).matrix != v.matrix:
        raise AssertionError("mediating morphism does not reproduce the cocone")
    return w


def direct_sum_pullback(g: Morphism, h: Morphism):
    """(pullback, dom g + dom h, embedding): the fiber product carved out
    of the canonical direct sum as the kernel of g . p_0 - h . p_1."""
    ds = direct_sum(g.domain, h.domain)
    q, embed = kernel(g @ ds.projections[0] - h @ ds.projections[1])
    return Pullback(q, ds.projections[0] @ embed, ds.projections[1] @ embed), ds, embed


def direct_sum_pushout(f: Morphism, h: Morphism):
    """(pushout, cod f + cod h, projection): the canonical direct sum
    modulo the image of i_0 . f - i_1 . h."""
    ds = direct_sum(f.codomain, h.codomain)
    q, project = cokernel(ds.injections[0] @ f - ds.injections[1] @ h)
    return Pushout(q, project @ ds.injections[0], project @ ds.injections[1]), ds, project


def retraction(c: Conflation, section: Morphism) -> Morphism:
    """The retraction of the inflation that a section s of the deflation
    determines: the r with f . r = id - s . g, so r . f = id."""
    return factor_through_mono(Morphism.identity(c.total) - section @ c.g, c.f)


def chain_retraction(c: ComplexConflation, section: ChainMap) -> ChainMap:
    """The chain retraction Y -> X of a chain section s, factored degreewise
    as ``retraction`` does, zero where Y's window passes X's; the chain map
    is validated, so it commutes with the differentials."""
    x, y = c.sub, c.total
    parts = {
        n: factor_through_mono(
            Morphism.identity(y.component(n)) - section.part(n) @ c.g.part(n), c.f.part(n)
        )
        for n in x.degrees()
    }
    return ChainMap(
        y,
        x,
        tuple(parts.get(n, Morphism.zero(y.component(n), x.component(n))) for n in y.degrees()),
    )


def identity_chain_map(x: Complex) -> ChainMap:
    return ChainMap(x, x, tuple(Morphism.identity(m) for m in x.components))


def dual_chain_map(phi: ChainMap) -> ChainMap:
    """target+ -> source+, the degreewise duals, through the validating
    constructor."""
    src = dual_complex(phi.target)
    return ChainMap(src, dual_complex(phi.source), _dual_parts(phi, src))


def dual_complex_conflation(c: ComplexConflation) -> ComplexConflation:
    """0 -> Z+ -> Y+ -> X+ -> 0, the duals of g and f, through the
    validating constructors: the oracle for purity, which dualizes f
    alone."""
    return ComplexConflation(dual_chain_map(c.g), dual_chain_map(c.f))


def complex_conflation_from_chain_epi(g: ChainMap) -> ComplexConflation:
    """Complete a degreewise-epi chain map to a conflation of complexes,
    through the validating constructors: the kernel of g in every degree,
    its differentials factored through the next kernel inclusion.  The
    oracle for the family middles, which read their kernels off their
    subgroup-catalog entries.

    Raises ValueError unless every part of g is epi.
    """
    y = g.source
    for n in sorted(set(y.degrees()) | set(g.target.degrees())):
        if not g.part(n).is_epi():
            raise ValueError(f"chain map is not epi in degree {n}")
    incl = {n: kernel(g.part(n))[1] for n in y.degrees()}
    diffs = tuple(
        factor_through_mono(y.differential(n) @ incl[n], incl[n + 1]) for n in y.degrees()[:-1]
    )
    x = Complex(y.ring, y.lo, tuple(incl[n].domain for n in y.degrees()), diffs)
    return ComplexConflation(ChainMap(x, y, tuple(incl[n] for n in x.degrees())), g)


def multiplication(m: FiniteModule, c: int) -> Morphism:
    """x |-> c * x on m."""
    k = m.rank()
    return Morphism(m, m, tuple(tuple(c if i == j else 0 for i in range(k)) for j in range(k)))


def element_order(m: FiniteModule, x) -> int:
    """The additive order of the element x of m."""
    result = 1
    for v, d in zip(x, m.invariant_factors):
        if v % d:
            result = result * (d // gcd(v, d)) // gcd(result, d // gcd(v, d))
    return result


def lattice_subgroup(ambient: FiniteModule, gens):
    """The subgroup of ``ambient`` generated by the integer vectors ``gens``,
    as (module, inclusion), read off the Smith form of the lattice they span
    together with the ambient relations.  Its basis rows are the rows of
    L @ A = D @ R^-1, carried through the row operations as A's columns."""
    d = ambient.invariant_factors
    k = len(d)
    rows = [list(v) for v in gens]
    rows.extend([d[i] if i == j else 0 for j in range(k)] for i in range(k))
    form = smith_normal_form(rows, carry=[list(c) for c in zip(*rows)])
    diag = form.diagonal
    if any(diag[i] == 0 for i in range(k)):
        raise AssertionError("subgroup lattice must have full rank")
    basis = [[form.carried[j][i] for j in range(k)] for i in range(k)]
    v = form.right
    rel = []
    for j in range(k):
        row = []
        for i in range(k):
            num = d[j] * v[j][i]
            if num % diag[i]:
                raise AssertionError("ambient relation fell outside the subgroup lattice")
            row.append((num // diag[i]) % ambient.ring.modulus)
        rel.append(tuple(row))
    can = canonicalize(Presentation(ambient.ring, k, tuple(rel)))
    columns = []
    for t in range(can.module.rank()):
        lift = can.generator_lifts[t]
        vec = [sum(lift[u] * basis[u][j] for u in range(k)) for j in range(k)]
        columns.append(ambient.reduce(vec))
    return can.module, Morphism.from_columns(can.module, ambient, columns)


def mat_vec(a: list[list[int]], x: list[int]) -> list[int]:
    return [sum(row[i] * x[i] for i in range(len(x))) for row in a]


def smith_solve_mod(a, e: tuple[int, ...], targets, k: int) -> list[list[int]] | None:
    """One integer x of length k with a @ x == t (mod e) per target t, or None.

    ``e`` is any tuple of moduli, one per row of ``a``; it need not be a
    divisor chain.  Every solution comes from the one Smith form L @ [a | diag(e)] @ R,
    which carries each t to L @ t, so identical inputs give identical
    witnesses.  None means some target has no solution.  The Smith-form
    route over Z, an oracle for the package's per-prime-power solver.
    """
    l = len(e)
    if l == 0 or not targets:
        return [[0] * k for _ in targets]
    form = smith_normal_form(_augmented(a, e), carry=targets)
    solutions = []
    for target, c in zip(targets, form.carried):
        w = [0] * (k + l)
        for j in range(l):
            dj = form.diagonal[j]
            if dj:
                if c[j] % dj:
                    return None
                w[j] = c[j] // dj
            elif c[j]:
                return None
        x = mat_vec(form.right, w)[:k]
        for j in range(l):
            if (sum(a[j][i] * x[i] for i in range(k)) - target[j]) % e[j]:
                raise AssertionError("solver produced a non-solution")
        solutions.append(x)
    return solutions


def kernel_lattice_gens(f: Morphism) -> list[list[int]]:
    """Integer vectors spanning the preimage of the codomain lattice: the
    kernel of f is ``lattice_subgroup(f.domain, kernel_lattice_gens(f))``."""
    k = f.domain.rank()
    e = f.codomain.invariant_factors
    l = len(e)
    if l == 0:
        return [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    augmented = [list(f.matrix[j]) + [e[j] if j == t else 0 for t in range(l)] for j in range(l)]
    form = smith_normal_form(augmented)
    return [[form.right[row][col] for row in range(k)] for col in range(form.rank, k + l)]


def per_term_tensor_mor(f: Morphism, g: Morphism) -> Morphism:
    """f (x) g term by term: each canonical generator of the source is
    expanded into reduced pure-tensor terms c * x_i (x) y_j, and each term
    adds c * f(x_i) (x) g(y_j) in the target.  The oracle for the
    products of ``monoidal.tensor_mor``."""
    src = tensor(f.domain, g.domain)
    dst = tensor(f.codomain, g.codomain)
    fcols = [
        tuple(f.matrix[j][i] for j in range(f.codomain.rank()))
        for i in range(f.domain.rank())
    ]
    gcols = [
        tuple(g.matrix[j][i] for j in range(g.codomain.rank()))
        for i in range(g.domain.rank())
    ]
    columns = []
    for z in src.module.generators():
        acc = dst.module.zero_element()
        for c, i, j in src.expand(z):
            acc = dst.module.add(acc, dst.module.scale(c, dst.pure(fcols[i], gcols[j])))
        columns.append(acc)
    return Morphism.from_columns(src.module, dst.module, columns)


def every_divisor_is_pure_oracle(c: Conflation) -> bool:
    """Decide purity by tensoring with Z/d for every divisor d | n, d > 1:
    the oracle for ``purity.is_pure_oracle``, which tensors only with the
    divisors of the middle's exponent."""
    ring = c.sub.ring
    return all(
        conflation_tensor_failure(c, cyclic(ring, d)) is None for d in ring.divisors() if d > 1
    )


def postcompose_map(g: Morphism, source: FiniteModule) -> Morphism:
    """Hom(source, dom g) -> Hom(source, cod g) by h |-> g . h."""
    h_in = hom_module(source, g.domain)
    h_out = hom_module(source, g.codomain)
    columns = [
        h_out.of_morphism(g @ h_in.to_morphism(z))
        for z in h_in.module.generators()
    ]
    return Morphism.from_columns(h_in.module, h_out.module, columns)


def precompose_map(f: Morphism, target: FiniteModule) -> Morphism:
    """Hom(cod f, target) -> Hom(dom f, target) by h |-> h . f."""
    h_in = hom_module(f.codomain, target)
    h_out = hom_module(f.domain, target)
    columns = [
        h_out.of_morphism(h_in.to_morphism(z) @ f)
        for z in h_in.module.generators()
    ]
    return Morphism.from_columns(h_in.module, h_out.module, columns)


def hom_coordinate_middles(f: Complex, combo) -> list[tuple[Morphism, ...]]:
    """Every stack of middle differentials over the degreewise deflations of
    ``combo`` (subgroup entries, one per degree of f), in hom coordinates.

    Level by level, D: Y^n -> Y^(n+1) solves p^(n+1) . D = d_f . p^n and
    D . D_prev = 0 as one linear system on Hom(Y^n, Y^(n+1)); each stack is
    extended by the whole solution coset.  No cap.
    """
    stacks = [()]
    for n, (here, there) in enumerate(zip(combo, combo[1:]), f.lo):
        h = hom_module(here.ambient, there.ambient)
        post = postcompose_map(there.projection, here.ambient)
        rhs = hom_module(here.ambient, f.component(n + 1)).of_morphism(
            f.differential(n) @ here.projection
        )
        new_stacks = []
        for stack in stacks:
            system, target = post, rhs
            if stack:
                pre = precompose_map(stack[-1], there.ambient)
                big = direct_sum(post.codomain, pre.codomain)
                system = big.injections[0] @ post + big.injections[1] @ pre
                target = big.injections[0].apply(rhs)
            new_stacks += [stack + (h.to_morphism(z),) for z in solution_set(system, target)]
        stacks = new_stacks
    return stacks


def full_cyclic_subgroup_walk(d: tuple[int, ...], order: int) -> tuple[tuple, ...]:
    """(key, lex-first generator, quotient factors) of every cyclic
    subgroup of the given order of the module with invariant factors d,
    walking every element of the module in ``FiniteModule.elements``
    order: the oracle for the package's walk over the ``order``-torsion."""
    k = len(d)
    relations = [[d[i] if c == i else 0 for c in range(k)] for i in range(k)]
    units = [u for u in range(order) if gcd(u, order) == 1]
    covered = set()
    found = []
    for x in itertools.product(*(range(di) for di in d)):
        if x in covered or lcm(*(di // gcd(xi, di) for xi, di in zip(x, d))) != order:
            continue
        covered.update(tuple(u * xi % di for xi, di in zip(x, d)) for u in units)
        key = tuple(tuple(r) for r in hermite_normal_form([list(x)] + relations, k))
        found.append((key, x, _quotient_factors(key)))
    return tuple(found)


def unfiltered_conflations_ending_in(f: FiniteModule, kernel_bound: int, middle_bound: int):
    """``conflations_ending_in`` building the catalog of every middle of
    order |f| * k: the oracle for the walk that skips the middles whose
    partitions of p-exponents rule out a conflation ending in f."""
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


def unfiltered_conflations_with_sub(m: FiniteModule, middle_bound: int):
    """``conflations_with_sub`` building the catalog of every middle whose
    order |m| divides: the oracle for the walk that skips the middles with
    no subgroup isomorphic to m."""
    n = m.ring.modulus
    for y in enumerate_modules(n, middle_bound):
        if y.order % m.order:
            continue
        for entry in subgroup_catalog(y):
            if entry.sub_order == m.order and entry.sub == m:
                yield entry.conflation()


def source_mutant(fn, old, new):
    """fn recompiled from its source with the one ``old`` replaced by ``new``;
    a method comes back as a plain function, to be set on its class."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, old
    namespace = dict(fn.__globals__)
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"), namespace)
    return namespace[fn.__name__]


def clear_package_caches():
    """Empty every ``lru_cache`` of every ``modcat`` module, so that a run
    recorded afterwards sees the same cache misses whatever ran before it
    in the process.  The subgroup walks' caches hold the catalog builds
    that every modulus shares, so those go too."""
    for info in pkgutil.iter_modules(modcat.__path__):
        module = importlib.import_module(f"modcat.{info.name}")
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def trusted_builds(config, names, classes):
    """(report, distinct objects, caller names) of a run of the suites
    ``names`` from cold caches, recording every object built through the
    ``_trusted`` constructor of one of ``classes``."""
    clear_package_caches()
    built, callers = set(), set()

    def recording(real):
        def build(cls, *args):
            callers.add(sys._getframe(1).f_code.co_name)
            obj = real(cls, *args)
            built.add(obj)
            return obj

        return classmethod(build)

    with pytest.MonkeyPatch.context() as mp:
        for cls in classes:
            mp.setattr(cls, "_trusted", recording(cls._trusted.__func__))
        report = run_suite(SuiteConfig(**config), names=names)
    return report, built, callers


def unshared_run_axioms(config: SuiteConfig) -> SuiteResult:
    """The axioms suite as a loop over the moduli, each check evaluated
    over every modulus apart: the oracle for ``run_axioms``, which
    evaluates each invariant-factor input once."""
    res = SuiteResult("axioms")
    for n in config.moduli:
        mid_cap = min(config.max_module_order, AXIOM_MIDDLE_CAP)
        part_cap = min(config.max_module_order, AXIOM_PARTNER_CAP)
        for m in enumerate_modules(n, config.max_module_order):
            res.check("identity-inflation-deflation", n, m)
        for y in enumerate_modules(n, mid_cap):
            for e in subgroup_catalog(y):
                f, g = e.inclusion, e.projection
                for e2 in subgroup_catalog(e.quotient):
                    res.check("deflation-composition", n, g, e2.projection)
                for e2 in subgroup_catalog(e.sub):
                    res.check("inflation-composition", n, e2.inclusion, f)
                for w in enumerate_modules(n, part_cap):
                    salt = f"{n}:{y.invariant_factors}:{e.key}:{w.invariant_factors}"
                    for h in _select(enumerate_morphisms(w, e.quotient), config, f"ax-pb:{salt}"):
                        res.check("pullback-stability", n, g, h)
                    for h in _select(enumerate_morphisms(e.sub, w), config, f"ax-po:{salt}"):
                        res.check("pushout-stability", n, f, h)
    return res


def unshared_run_prop1(config: SuiteConfig) -> SuiteResult:
    """The prop1 suite as a loop over the moduli, each conflation checked
    over every modulus apart: the oracle for ``run_prop1``, which decides
    dual-splits purity once per invariant-factor input."""
    res = SuiteResult("prop1")
    for n in config.moduli:
        for y in enumerate_modules(n, config.max_module_order):
            entries = _select(
                (e for e in subgroup_catalog(y) if e.sub_order <= config.max_kernel_order),
                config,
                f"prop1:{n}:{y.invariant_factors}",
            )
            for e in entries:
                res.check("purity-agreement", n, e.conflation())
    return res
