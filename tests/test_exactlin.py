from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from berger_lab.exactlin import (RealMatrix, Subspace, nullspace, rank,
                                 rat_from_str, rat_to_str, rref, span_of,
                                 symmetric_signature)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def small_matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(rationals, min_size=r * c, max_size=r * c).map(
                lambda ent: RealMatrix(r, c, ent))))


def M(rows):
    return RealMatrix.from_rows([[Fraction(x) for x in row] for row in rows])


def textbook_rref(rows):
    """Dense Fraction Gauss-Jordan: leftmost pivot, first nonzero row."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(a[0]) if a else 0):
        i = next((i for i in range(len(pivots), len(a)) if a[i][col]), None)
        if i is None:
            continue
        p = len(pivots)
        a[p], a[i] = a[i], a[p]
        a[p] = [x / a[p][col] for x in a[p]]
        for k in range(len(a)):
            if k != p and a[k][col]:
                f = a[k][col]
                a[k] = [x - f * y for x, y in zip(a[k], a[p])]
        pivots.append(col)
    return a, pivots


# ---------------------------------------------------------------------------
# rref
# ---------------------------------------------------------------------------

def test_rref_zero_matrix():
    red, piv = rref(M([[0, 0], [0, 0]]))
    assert red == M([[0, 0], [0, 0]])
    assert piv == []


def test_rref_rank_one():
    red, piv = rref(M([[2, 4], [1, 2]]))
    assert red == M([[1, 2], [0, 0]])
    assert piv == [0]


def test_rref_diagonal_full_rank():
    red, piv = rref(M([[1, 0], [0, 3]]))
    assert red == RealMatrix.identity(2)
    assert piv == [0, 1]


@given(small_matrices(max_dim=5))
@settings(max_examples=100, deadline=None)
def test_rref_matches_textbook_gauss_jordan(m):
    red, piv = rref(m)
    expected, expected_piv = textbook_rref(m.to_lists())
    assert red == RealMatrix.from_rows(expected)
    assert piv == expected_piv
    assert rank(m) == len(expected_piv)


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(rationals, min_size=n * n, max_size=n * n).map(
        lambda ent: RealMatrix(n, n, ent))))
@settings(max_examples=100, deadline=None)
def test_inverse_matches_textbook_gauss_jordan(m):
    n = m.rows
    aug = [list(m.row(i)) + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    red, piv = textbook_rref(aug)
    if piv[:n] != list(range(n)):
        with pytest.raises(ValueError, match="singular"):
            m.inverse()
        return
    assert m.inverse() == RealMatrix.from_rows([row[n:] for row in red])


def test_rref_keeps_the_shape_of_wide_and_empty_matrices():
    red, piv = rref(M([[0, 2, 4], [0, 1, 2], [0, 0, 0]]))
    assert red == M([[0, 1, 2], [0, 0, 0], [0, 0, 0]])
    assert piv == [1]
    red, piv = rref(RealMatrix.zeros(0, 3))
    assert (red.rows, red.cols, piv) == (0, 3, [])


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    red, piv = rref(m)
    red2, piv2 = rref(red)
    assert red2 == red
    assert piv2 == piv


# ---------------------------------------------------------------------------
# nullspace
# ---------------------------------------------------------------------------

def test_nullspace_identity_is_zero():
    assert nullspace(RealMatrix.identity(3)).dim == 0


def test_nullspace_zero_matrix_is_full():
    ker = nullspace(RealMatrix.zeros(2, 5))
    assert ker.dim == 5
    assert ker.basis == tuple(tuple(Fraction(int(i == j)) for j in range(5))
                              for i in range(5))


def test_nullspace_one_equation_canonical():
    ker = nullspace(M([[1, 1]]))
    assert ker.dim == 1
    assert ker.basis == ((Fraction(1), Fraction(-1)),)


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity_and_kernel_vectors(m):
    ker = nullspace(m)
    assert rank(m) + ker.dim == m.cols
    for v in ker.basis:
        assert all(x == 0 for x in m.apply(v))


# ---------------------------------------------------------------------------
# spans and subspaces
# ---------------------------------------------------------------------------

def test_span_empty_is_zero():
    sub = span_of([], 4)
    assert sub.dim == 0 and sub.is_zero()


def test_span_collinear_vectors():
    sub = span_of([(1, 0), (2, 0)], 2)
    assert sub.dim == 1


def test_span_full_plane():
    assert span_of([(1, 0), (0, 1)], 2).dim == 2


def test_subspace_equal_scaling():
    assert span_of([(1, 0)], 2) == span_of([(2, 0)], 2)


def test_subspace_strict_containment():
    line = span_of([(1, 0)], 2)
    plane = span_of([(1, 0), (0, 1)], 2)
    assert plane.contains(line)
    assert plane != line


def test_zero_subspaces_equal():
    assert span_of([], 3) == Subspace.zero(3)


def test_ambient_mismatch_raises():
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        span_of([(1,)], 1) == span_of([(1, 0)], 2)
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        span_of([(1,)], 1).contains(span_of([(1, 0)], 2))


vec3 = st.lists(rationals, min_size=3, max_size=3).map(tuple)


@given(st.lists(vec3, min_size=1, max_size=4), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_span_invariant_under_shuffle_and_rescale(vecs, rng):
    sub = span_of(vecs, 3)
    shuffled = list(vecs)
    rng.shuffle(shuffled)
    scaled = [tuple(Fraction(3, 2) * x for x in v) for v in shuffled]
    assert sub == span_of(scaled + shuffled, 3)


@given(st.lists(vec3, min_size=1, max_size=3), st.lists(vec3, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_subspace_equality_is_equivalence(a_vecs, b_vecs):
    a = span_of(a_vecs, 3)
    b = span_of(b_vecs, 3)
    assert a == a
    if a == b:
        assert b == a
        assert a.contains(b) and b.contains(a)


def test_subspace_json_round_trip():
    sub = span_of([(1, 2, Fraction(1, 3)), (0, 1, 5)], 3)
    again = Subspace.from_json(sub.to_json())
    assert sub == again


# ---------------------------------------------------------------------------
# serialization and scalar format
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value,expected", [
    (Fraction(3, 4), "3/4"),
    (Fraction(5), "5"),
    (Fraction(-7, 2), "-7/2"),
    (Fraction(0), "0"),
])
def test_rational_string_format(value, expected):
    assert rat_to_str(value) == expected
    assert rat_from_str(expected) == value


def test_matrix_json_round_trip():
    m = M([[Fraction(1, 2), 3], [-4, Fraction(0)]])
    assert RealMatrix.from_json(m.to_json()) == m
    assert m.to_json() == [["1/2", "3"], ["-4", "0"]]


# ---------------------------------------------------------------------------
# matrix utilities
# ---------------------------------------------------------------------------

def test_matrix_arithmetic():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert a * b == M([[2, 1], [4, 3]])
    assert a + b - b == a
    assert (-a).scaled(-1) == a
    assert a.transpose().transpose() == a
    assert a.trace() == 5
    assert a.commutator(b) == a * b - b * a


def test_matrix_inverse():
    a = M([[2, 1], [1, 1]])
    assert a * a.inverse() == RealMatrix.identity(2)
    with pytest.raises(ValueError, match="singular"):
        M([[1, 2], [2, 4]]).inverse()


def test_symmetric_signature():
    assert symmetric_signature(M([[-1, 0], [0, 1]])) == (1, 1)
    assert symmetric_signature(RealMatrix.identity(3)) == (0, 3)
    # hyperbolic plane: congruent to diag(1, -1)
    assert symmetric_signature(M([[0, 1], [1, 0]])) == (1, 1)
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_signature(M([[0, 1], [0, 0]]))
