"""Constructions that only the tests use: morphism samples, mono slices,
the direct-sum embedding of a pullback and projection onto a pushout,
their mediating morphisms, the direct-sum route to pullbacks and pushouts
as an oracle for the concatenated-coordinate one, identity chain maps,
multiplication maps, element orders, the per-term tensor of two
morphisms as an oracle for the one product, the lattice route to subgroups
and kernels, an oracle independent of the package's cokernel-and-dual-kernel
route, and the hom-module coordinate maps h |-> g . h and h |-> h . f with
the walk over their solution cosets that completes middle differentials,
and package functions recompiled with one source change, as mutants.

The package never calls these, so they live next to the tests.
"""

import inspect
import random
from math import gcd

from modcat.complexes import ChainMap, Complex
from modcat.enumeration import enumerate_morphisms
from modcat.exact import Pullback, Pushout
from modcat.modules import (
    FiniteModule,
    Morphism,
    Presentation,
    _augmented,
    canonicalize,
    cokernel,
    direct_sum,
    factor_through_epi,
    factor_through_mono,
    kernel,
    solution_set,
)
from modcat.monoidal import _canonical_generators, hom_module, tensor
from modcat.snf import smith_normal_form


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


def identity_chain_map(x: Complex) -> ChainMap:
    return ChainMap(x, x, tuple(Morphism.identity(m) for m in x.components))


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
    adds c * f(x_i) (x) g(y_j) in the target.  The oracle for the one
    product of ``monoidal.tensor_mor``."""
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
    for z in _canonical_generators(src.module):
        acc = dst.module.zero_element()
        for c, i, j in src.expand(z):
            acc = dst.module.add(acc, dst.module.scale(c, dst.pure(fcols[i], gcols[j])))
        columns.append(acc)
    return Morphism.from_columns(src.module, dst.module, columns)


def postcompose_map(g: Morphism, source: FiniteModule) -> Morphism:
    """Hom(source, dom g) -> Hom(source, cod g) by h |-> g . h."""
    h_in = hom_module(source, g.domain)
    h_out = hom_module(source, g.codomain)
    columns = [
        h_out.of_morphism(g @ h_in.to_morphism(z))
        for z in _canonical_generators(h_in.module)
    ]
    return Morphism.from_columns(h_in.module, h_out.module, columns)


def precompose_map(f: Morphism, target: FiniteModule) -> Morphism:
    """Hom(cod f, target) -> Hom(dom f, target) by h |-> h . f."""
    h_in = hom_module(f.codomain, target)
    h_out = hom_module(f.domain, target)
    columns = [
        h_out.of_morphism(h_in.to_morphism(z) @ f)
        for z in _canonical_generators(h_in.module)
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


def source_mutant(fn, old, new):
    """fn recompiled from its source with the one ``old`` replaced by ``new``."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1, old
    namespace = dict(fn.__globals__)
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"), namespace)
    return namespace[fn.__name__]
