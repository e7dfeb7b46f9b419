"""Exact integer matrix normal forms.

Everything in this package reduces to integer linear algebra on small dense
matrices, so the routines here work on lists of rows of Python ints and stay
exact.  Two normal forms are provided:

* Smith normal form, with or without the unimodular transforms; one pivot
  loop serves both.  The full version returns ``D = left @ A @ right``
  together with ``right_inv`` so callers can change coordinates in both
  directions.  ``left`` is as tall as the input and only a solver reads
  it, so a caller that needs only ``right`` / ``right_inv`` asks for the
  form without it (``left=False``); the pivots, the diagonal and the
  right transforms are the same either way.
* Hermite normal form (row-style, upper echelon) for canonical subgroup
  bases and membership tests.

Conventions: matrices are rectangular lists of lists, rows first.  A lattice
is given by a generating list of row vectors; it need not be a basis.
"""

from __future__ import annotations

from dataclasses import dataclass


def identity_matrix(m: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(m)] for i in range(m)]


def mat_vec(a: list[list[int]], x: list[int]) -> list[int]:
    return [sum(row[i] * x[i] for i in range(len(x))) for row in a]


@dataclass
class SmithForm:
    """D = left @ A @ right with left, right unimodular.

    ``diagonal`` lists D[i][i] for i < min(rows, cols), nonnegative, each
    dividing the next among the nonzero entries (zeros, if any, come last).
    ``right_inv`` is the exact integer inverse of ``right``.  ``left`` is
    None when the form was computed with ``left=False``.
    """

    rows: int
    cols: int
    diagonal: list[int]
    left: list[list[int]] | None
    right: list[list[int]]
    right_inv: list[list[int]]

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


def _smith(matrix: list[list[int]], track: bool, track_left: bool):
    """The one Smith pivot loop; returns (diagonal, left, right, right_inv).

    Deterministic: the pivot choice scans for the smallest nonzero absolute
    value (first occurrence wins), so identical inputs give identical
    transforms.  Without ``track`` ``right`` and ``right_inv`` are None,
    without ``track_left`` ``left`` is None; the transforms only follow the
    working copy, so the pivots and the diagonal never depend on either.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    m = [list(r) for r in matrix]
    left = identity_matrix(rows) if track_left else None
    right = identity_matrix(cols) if track else None
    right_inv = identity_matrix(cols) if track else None
    for t in range(min(rows, cols)):
        while True:
            pos = _pivot_position(m, t, rows, cols)
            if pos is None:
                break
            i, j = pos
            if i != t:
                m[i], m[t] = m[t], m[i]
                if track_left:
                    left[i], left[t] = left[t], left[i]
            if j != t:
                for r in m:
                    r[j], r[t] = r[t], r[j]
                if track:
                    for r in right:
                        r[j], r[t] = r[t], r[j]
                    right_inv[j], right_inv[t] = right_inv[t], right_inv[j]
            if m[t][t] < 0:
                m[t] = [-v for v in m[t]]
                if track_left:
                    left[t] = [-v for v in left[t]]
            # Clear column t, then row t; restart if a remainder survived.
            # Entries left of column t and above row t are already zero.
            dirty = False
            mt = m[t]
            p = mt[t]
            for r in range(t + 1, rows):
                mr = m[r]
                if mr[t]:
                    q = mr[t] // p
                    for c in range(t, cols):
                        mr[c] -= q * mt[c]
                    if track_left:
                        lt, lr = left[t], left[r]
                        for c in range(rows):
                            lr[c] -= q * lt[c]
                    if mr[t]:
                        dirty = True
            for c in range(t + 1, cols):
                if mt[c]:
                    q = mt[c] // p
                    for r in range(t, rows):
                        m[r][c] -= q * m[r][t]
                    if track:
                        # column c -= q * column t; inverse: row t += q * row c
                        for r in right:
                            r[c] -= q * r[t]
                        vt, vc = right_inv[t], right_inv[c]
                        for s in range(cols):
                            vt[s] += q * vc[s]
                    if mt[c]:
                        dirty = True
            if dirty:
                continue
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
            if track_left:
                left[t] = [a + b for a, b in zip(left[t], left[offender])]
        if m[t][t] < 0:
            m[t] = [-v for v in m[t]]
            if track_left:
                left[t] = [-v for v in left[t]]
    return [m[i][i] for i in range(min(rows, cols))], left, right, right_inv


def smith_normal_form(matrix: list[list[int]], left: bool = True) -> SmithForm:
    """Smith normal form with ``right`` and ``right_inv``, and ``left``
    unless ``left=False``."""
    rows = len(matrix)
    return SmithForm(rows, len(matrix[0]) if rows else 0, *_smith(matrix, True, left))


def snf_diagonal(matrix: list[list[int]]) -> list[int]:
    """Smith diagonal only, no transform bookkeeping (hot path)."""
    return _smith(matrix, False, False)[0]


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
