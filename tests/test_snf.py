"""Integer normal forms: Smith, Hermite, lattice membership.

The independent oracle here is the determinantal-divisor characterization:
the product d_1 * ... * d_i equals the gcd of all i x i minors, which never
touches the row/column elimination code under test.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcat.snf import (
    hermite_normal_form,
    identity_matrix,
    lattice_member,
    smith_normal_form,
    snf_diagonal,
)

from helpers import mat_vec, source_mutant


def mat_mul(a, b):
    """Product of two integer matrices (rows x cols must be compatible)."""
    return [[sum(arow[t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))] for arow in a]


def det(m):
    """Exact integer determinant by permutation expansion (small sizes only)."""
    n = len(m)
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        # count transpositions via cycle structure
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def determinantal_divisor(matrix, k):
    """gcd of all k x k minors; 0 if every minor vanishes."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    g = 0
    for ri in itertools.combinations(range(rows), k):
        for ci in itertools.combinations(range(cols), k):
            sub = [[matrix[i][j] for j in ci] for i in ri]
            g = math.gcd(g, det(sub))
    return g


def diagonal_from_minors(matrix):
    """Independent Smith diagonal: d_i = D_i / D_{i-1}."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        dk = determinantal_divisor(matrix, k)
        if dk == 0:
            out.extend([0] * (min(rows, cols) - len(out)))
            break
        out.append(dk // prev)
        prev = dk
    return out


def test_frozen_diagonal_matches_minor_oracle():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert diagonal_from_minors(a) == [2, 2, 156]
    assert snf_diagonal(a) == [2, 2, 156]


def test_zero_and_identity():
    assert snf_diagonal([[0, 0], [0, 0]]) == [0, 0]
    assert snf_diagonal(identity_matrix(3)) == [1, 1, 1]
    form = smith_normal_form([])
    assert form.diagonal == []


small_entries = st.integers(min_value=-30, max_value=30)


@st.composite
def small_matrix(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    return [[draw(small_entries) for _ in range(cols)] for _ in range(rows)]


@given(small_matrix())
@settings(max_examples=150, deadline=None)
def test_smith_transform_identity(a):
    # L is what the row operations make of the identity: carry its columns
    rows, cols = len(a), len(a[0])
    form = smith_normal_form(a, carry=identity_matrix(rows))
    left = [list(r) for r in zip(*form.carried)]
    d = mat_mul(mat_mul(left, a), form.right)
    for i in range(rows):
        for j in range(cols):
            expect = form.diagonal[i] if i == j and i < len(form.diagonal) else 0
            assert d[i][j] == expect
    assert abs(det(left)) == 1
    assert abs(det(form.right)) == 1


@st.composite
def matrix_and_carry(draw):
    a = draw(small_matrix())
    column = st.lists(small_entries, min_size=len(a), max_size=len(a))
    return a, draw(st.lists(column, max_size=3))


@given(matrix_and_carry())
@settings(max_examples=150, deadline=None)
def test_carried_columns_change_no_diagonal_or_right_transform(case):
    a, carry = case
    bare = smith_normal_form(a)
    form = smith_normal_form(a, carry=carry)
    assert bare.carried == []
    assert (form.rows, form.cols) == (bare.rows, bare.cols)
    assert form.diagonal == bare.diagonal
    assert form.right == bare.right
    left = [list(r) for r in zip(*smith_normal_form(a, carry=identity_matrix(len(a))).carried)]
    assert form.carried == [mat_vec(left, c) for c in carry]


@given(small_matrix())
@settings(max_examples=150, deadline=None)
def test_smith_diagonal_chain_and_oracle(a):
    diag = snf_diagonal(a)
    assert diag == smith_normal_form(a).diagonal
    assert diag == diagonal_from_minors(a)
    for x, y in zip(diag, diag[1:]):
        assert x >= 0 and y >= 0
        if y != 0:
            assert x != 0 and y % x == 0


def test_a_unit_pivot_exit_widened_to_two_fails_the_chain_test(monkeypatch):
    """The Smith loop stops scanning for a remainder only after a unit
    pivot, which divides everything.  Stopping after a pivot 2 as well
    leaves diag(2, 3) unchained, and the chain-and-oracle test fails."""
    import modcat.snf as snf

    monkeypatch.setattr(snf, "_smith", source_mutant(snf._smith, "if p == 1:", "if p <= 2:"))
    a = [[2, 0], [0, 3]]
    assert snf_diagonal(a) == [2, 3]
    with pytest.raises(AssertionError):
        test_smith_diagonal_chain_and_oracle.hypothesis.inner_test(a)
    monkeypatch.undo()
    test_smith_diagonal_chain_and_oracle.hypothesis.inner_test(a)


@given(small_matrix())
@settings(max_examples=100, deadline=None)
def test_hnf_is_invariant_of_the_lattice(a):
    cols = len(a[0])
    basis = hermite_normal_form(a, cols)
    # every input row is a member, every basis row is in the integer row span
    for r in a:
        assert lattice_member(basis, r)
    rng = random.Random(7)
    for _ in range(5):
        coeffs = [rng.randint(-3, 3) for _ in a]
        combo = [sum(c * r[j] for c, r in zip(coeffs, a)) for j in range(cols)]
        assert lattice_member(basis, combo)
    # shuffling and row-mixing the generators leaves the canonical basis fixed
    mixed = [list(r) for r in a]
    rng.shuffle(mixed)
    if len(mixed) >= 2:
        mixed[0] = [x + 2 * y for x, y in zip(mixed[0], mixed[1])]
    mixed.append([0] * cols)
    assert hermite_normal_form(mixed + a, cols) == hermite_normal_form(a, cols)


def test_hnf_shape():
    basis = hermite_normal_form([[4, 1, 0], [0, 2, 0], [0, 0, 8], [4, 3, 8]], 3)
    pivots = []
    for row in basis:
        p = next(i for i, x in enumerate(row) if x)
        assert row[p] > 0
        pivots.append(p)
        # entries above a pivot sit in [0, pivot)
        for prev in basis[: basis.index(row)]:
            assert 0 <= prev[p] < row[p]
    assert pivots == sorted(pivots)


def test_lattice_member_brute():
    basis = hermite_normal_form([[2, 1], [0, 3]], 2)
    members = set()
    for s in range(-6, 7):
        for t in range(-6, 7):
            members.add((2 * s, s + 3 * t))
    for x in range(-6, 7):
        for y in range(-6, 7):
            inside = lattice_member(basis, [x, y])
            if (x, y) in members:
                assert inside
            elif abs(x) <= 4 and abs(y) <= 4:
                # small window: membership must match the brute set exactly
                assert not inside


def test_vector_helpers():
    a = [[1, 2], [3, 4]]
    assert mat_vec(a, [5, 6]) == [17, 39]
