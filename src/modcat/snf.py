"""Exact integer matrix normal forms.

Everything in this package reduces to integer linear algebra on small dense
matrices, so the routines here work on lists of rows of Python ints and stay
exact.  Two normal forms are provided:

* Smith normal form D = L @ A @ R, with or without R; one pivot loop
  serves both.  The full version returns ``right`` (R).  L is not kept:
  L @ c for columns c that the caller passes is carried through the row
  operations instead.
* Hermite normal form (row-style, upper echelon) for canonical subgroup
  bases and membership tests.

Conventions: matrices are rectangular lists of lists, rows first.  A lattice
is given by a generating list of row vectors; it need not be a basis.
"""

from __future__ import annotations

from dataclasses import dataclass


def identity_matrix(m: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (m - 1 - i) for i in range(m)]


@dataclass
class SmithForm:
    """D = L @ A @ R with L, R unimodular.

    ``diagonal`` lists D[i][i] for i < min(rows, cols), nonnegative, each
    dividing the next among the nonzero entries (zeros, if any, come last).
    ``right`` is R.  L itself is not kept: ``carried`` holds L @ c for each
    column c the caller passed as ``carry``.
    """

    rows: int
    cols: int
    diagonal: list[int]
    carried: list[list[int]]
    right: list[list[int]]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _pivot_position(m: list[list[int]], t: int, rows: int, cols: int):
    """Smallest |entry| > 0 in the trailing submatrix, ties broken by index."""
    best = None
    best_val = None
    for i in range(t, rows):
        mi = m[i]
        for j in range(t, cols):
            v = mi[j]
            if v:
                a = v if v > 0 else -v
                if best_val is None or a < best_val:
                    best_val = a
                    best = (i, j)
                    if a == 1:
                        return best
    return best


def _smith(matrix: list[list[int]], track: bool, carry=()):
    """The one Smith pivot loop; returns (diagonal, augmented matrix).

    A's rows carry their entries of the ``carry`` columns, which the row
    operations turn into L @ carry.  With ``track``, an identity below A
    ends as ``right``: column operations run down whole columns.  Pivots
    are searched in A only, so the diagonal depends on neither.

    Deterministic: the pivot is the smallest nonzero absolute value (first
    occurrence wins), so identical inputs give identical transforms.  A
    unit pivot leaves no remainder and divides every entry, so the loop
    moves on without scanning the trailing block for an offender.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    width = cols + len(carry)
    m = [list(r) for r in matrix]
    for v in carry:
        for r, x in zip(m, v):
            r.append(x)
    if track:
        m += identity_matrix(cols)  # ends as right
    for t in range(min(rows, cols)):
        while True:
            pos = _pivot_position(m, t, rows, cols)
            if pos is None:
                break
            i, j = pos
            if i != t:
                m[i], m[t] = m[t], m[i]
            if j != t:
                for r in m:
                    r[j], r[t] = r[t], r[j]
            if m[t][t] < 0:
                m[t] = [-v for v in m[t]]
            # Clear column t, then row t; restart if a remainder survived.
            # Entries left of column t and above row t are already zero.
            dirty = False
            mt = m[t]
            p = mt[t]
            for r in range(t + 1, rows):
                mr = m[r]
                if mr[t]:
                    q = mr[t] // p
                    for c in range(t, width):
                        mr[c] -= q * mt[c]
                    if mr[t]:
                        dirty = True
            for c in range(t + 1, cols):
                if mt[c]:
                    q = mt[c] // p
                    for r in m[t:]:
                        r[c] -= q * r[t]
                    if mt[c]:
                        dirty = True
            if dirty:
                continue
            if p == 1:
                break
            # Pivot must divide every remaining entry for the divisor chain.
            offender = None
            for r in range(t + 1, rows):
                mr = m[r]
                for c in range(t + 1, cols):
                    if mr[c] % p:
                        offender = r
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            m[t] = [a + b for a, b in zip(mt, m[offender])]
    return [m[i][i] for i in range(min(rows, cols))], m


def smith_normal_form(matrix: list[list[int]], carry=()) -> SmithForm:
    """Smith normal form with ``right``, and L @ c in ``carried`` for each
    column c of ``carry`` (one entry per row of ``matrix``)."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    diagonal, m = _smith(matrix, True, carry)
    carried = [[m[i][c] for i in range(rows)] for c in range(cols, cols + len(carry))]
    return SmithForm(rows, cols, diagonal, carried, m[rows:])


def snf_diagonal(matrix: list[list[int]]) -> list[int]:
    """Smith diagonal only, no transform bookkeeping (hot path)."""
    return _smith(matrix, False)[0]


def hermite_normal_form(rows_in: list[list[int]], cols: int) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by ``rows_in``.

    Returns the echelon basis: pivots positive and strictly right-moving,
    entries above each pivot reduced to [0, pivot).  Zero rows are dropped,
    so the result is a canonical key for the lattice itself.
    """
    work = [list(r) for r in rows_in if any(r)]
    result: list[list[int]] = []
    for col in range(cols):
        nonzero = [r for r in work if r[col]]
        work = [r for r in work if not r[col]]
        if not nonzero:
            continue
        pivot = nonzero[0]
        for other in nonzero[1:]:
            while other[col]:
                q = pivot[col] // other[col]
                if q:
                    for c in range(cols):
                        pivot[c] -= q * other[c]
                pivot, other = other, pivot
            if any(other):
                work.append(other)
        if pivot[col] < 0:
            pivot = [-v for v in pivot]
        result.append(pivot)
    # reduce entries above each pivot, left to right: a pass at pivot column p
    # only disturbs columns > p of the rows above, so already-finished pivot
    # columns stay reduced and the output is the unique reduced basis
    for i in range(1, len(result)):
        p = next(c for c, x in enumerate(result[i]) if x)
        pv = result[i][p]
        for j in range(i):
            q = result[j][p] // pv
            if q:
                for c in range(cols):
                    result[j][c] -= q * result[i][c]
    return result


def lattice_member(hnf_basis: list[list[int]], vec: list[int]) -> bool:
    """Membership of ``vec`` in the lattice with echelon basis ``hnf_basis``."""
    v = list(vec)
    for b in hnf_basis:
        p = next(i for i, x in enumerate(b) if x)
        if v[p] % b[p]:
            return False
        q = v[p] // b[p]
        if q:
            for c in range(len(v)):
                v[c] -= q * b[c]
    return not any(v)
