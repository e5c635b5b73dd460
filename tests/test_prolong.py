from fractions import Fraction

import pytest

from berger_lab import prolong
from berger_lab.exactlin import RealMatrix, integer_row, sparse_nullspace
from berger_lab.liealg import (ALGEBRA_NAMES, algebra_by_name, build_glq, build_h0,
                             build_sp)
from berger_lab.prolong import (first_prolongation, restrict_action,
                                second_prolongation)
from berger_lab.quatspace import build_space
from conftest import (SPARSE_CASES, dense, dense_scan_prolongation,
                      dense_scan_prolongation_rows, is_normal,
                      reference_restrict_action, second_prolongation_of,
                      subspace_W, tier2)


def full_gl(n):
    """Matrix units spanning gl(n, R)."""
    out = []
    for i in range(n):
        for j in range(n):
            ent = [Fraction(0)] * (n * n)
            ent[i * n + j] = Fraction(1)
            out.append(dense(n, n, ent))
    return out


# ---------------------------------------------------------------------------
# brute-force anchors: for the full gl(V) the prolongations are the
# symmetric tensor spaces S^2 V* (x) V and S^3 V* (x) V
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_full_gl_first_prolongation_dim(n):
    expected = n * n * (n + 1) // 2  # dim S^2 V* (x) V
    assert first_prolongation(full_gl(n)).dim == expected


@pytest.mark.parametrize("n", [2, 3])
def test_full_gl_second_prolongation_dim(n):
    expected = n * n * (n + 1) * (n + 2) // 6  # dim S^3 V* (x) V
    assert second_prolongation(first_prolongation(full_gl(n))).dim == expected


def test_first_prolongation_elements_are_symmetric():
    result = first_prolongation(full_gl(2))
    dg = 4
    for vec in result.basis:
        mats = []
        for x in range(2):
            m = [[Fraction(0)] * 2 for _ in range(2)]
            for k in range(dg):
                c = vec.get(x * dg + k, Fraction(0))
                if c:
                    i, j = divmod(k, 2)
                    m[i][j] += c
            mats.append(m)
        # S(e_0) e_1 == S(e_1) e_0
        assert [mats[0][d][1] for d in range(2)] == [mats[1][d][0] for d in range(2)]


# ---------------------------------------------------------------------------
# the algebras from the decision procedure, restricted to W
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [1, 2])
def test_glq_restricted_to_w_has_no_first_prolongation(r):
    space = build_space(r, r, r)
    glq = build_glq(space)
    result = first_prolongation(
        restrict_action(glq, space.w_indices()))
    assert result.dim == 0


def test_h0_restriction_dims():
    space = build_space(1, 1, 1)
    h0 = build_h0(space)
    action = restrict_action(h0, space.w_indices())
    assert len(action) == 7  # sp(1) + gl(1,H) acting on R^4


def test_h0_on_w_first_prolongation_nonzero():
    space = build_space(1, 1, 1)
    h0 = build_h0(space)
    result = first_prolongation(
        restrict_action(h0, space.w_indices()))
    assert result.dim >= 1
    assert result.dim == 4  # computed value


def test_h0_on_w_second_prolongation_vanishes():
    space = build_space(1, 1, 1)
    h0 = build_h0(space)
    assert second_prolongation_of(h0, space.w_indices()).dim == 0


def test_zero_first_prolongation_forces_zero_second():
    space = build_space(1, 1, 1)
    glq = build_glq(space)
    w = space.w_indices()
    assert first_prolongation(restrict_action(glq, w)).dim == 0
    assert second_prolongation_of(glq, w).dim == 0


def test_prolongation_monotone_in_the_algebra():
    space = build_space(1, 1, 1)
    w = space.w_indices()
    small = first_prolongation(restrict_action(build_glq(space), w))
    large = first_prolongation(restrict_action(build_h0(space), w))
    assert small.dim <= large.dim
    small2 = second_prolongation_of(build_glq(space), w)
    large2 = second_prolongation_of(build_h0(space), w)
    assert small2.dim <= large2.dim


def test_restrict_action_rejects_non_invariant_subspace():
    space = build_space(1, 1, 1)
    sp = build_sp(space)
    with pytest.raises(ValueError, match="does not preserve the subspace"):
        restrict_action(sp, space.w_indices())
    with pytest.raises(ValueError, match="does not preserve the subspace"):
        reference_restrict_action(sp, subspace_W(space))


# every registry algebra that preserves W, at each configuration it exists on
W_PRESERVING = [(name, r, s, t) for r, s, t in [(1, 1, 1), (1, 2, 1), (2, 2, 2)]
                for name in ALGEBRA_NAMES
                if name not in ("sp", "sp1+sp")
                and (r == s or name not in ("glq", "h0"))]


@pytest.mark.parametrize("name,r,s,t", W_PRESERVING)
def test_restrict_action_is_the_reference_restriction(name, r, s, t):
    # W's canonical basis is its unit vectors, so the reference reads the
    # same W x W blocks through a reduction against W
    space = build_space(r, s, t)
    algebra = algebra_by_name(name, space)
    assert (restrict_action(algebra, space.w_indices())
            == reference_restrict_action(algebra, subspace_W(space)))


def test_empty_action():
    assert first_prolongation([]).dim == 0
    assert second_prolongation(first_prolongation([])).dim == 0


def test_second_prolongation_takes_a_first_prolongation():
    first = first_prolongation(full_gl(2))
    second = second_prolongation(first)
    assert second.order == 2
    assert (second.acting_dim, second.action_dim) == (2, first.dim)
    with pytest.raises(ValueError, match="expected a first prolongation"):
        second_prolongation(second)


def test_prolongation_json():
    # a prolongation has no JSON form; its shape is these fields
    result = first_prolongation(full_gl(2))
    assert result.dim == 6 and result.order == 1
    assert (result.acting_dim, result.action_dim) == (2, 4)
    assert len(result.basis) == 6
    assert all(is_normal(v) for vec in result.basis for v in vec.values())


# ---------------------------------------------------------------------------
# the rows built from each map's nonzeros against the dense-scan reference
# ---------------------------------------------------------------------------

def assert_matches_the_dense_scan(action):
    """`first_prolongation` hands the elimination the reference's rows, in
    the reference's order, and returns the reference's kernel."""
    seen = []

    def capture(rows, ncols):
        seen.append(list(rows))
        return sparse_nullspace(seen[-1], ncols)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prolong, "sparse_nullspace", capture)
        result = first_prolongation(action)
    reference = filter(None, map(integer_row, dense_scan_prolongation_rows(action)))
    assert [sorted(row.items()) for row in seen[0]] == [
        sorted(row.items()) for row in reference]
    assert list(result.basis) == dense_scan_prolongation(action)
    return result


def first_prolongation_maps(first):
    """Each basis vector p_j of g^(1) as the dim g x dim V map
    P_j[k, y] = p_j[y * dim g + k], the action whose first prolongation is
    the second prolongation."""
    dg, dv = first.action_dim, first.acting_dim
    return [RealMatrix(dg, dv, {
        (key % dg) * dv + key // dg: c for key, c in p.items()}) for p in first.basis]


def check_prolongation_rows(name, r, s, t):
    space = build_space(r, s, t)
    algebra = algebra_by_name(name, space)
    # g acting on V, for every algebra
    assert_matches_the_dense_scan(list(algebra.basis))
    if name in ("sp", "sp1+sp"):
        return  # these move W
    first = assert_matches_the_dense_scan(
        restrict_action(algebra, space.w_indices()))
    maps = first_prolongation_maps(first)
    if maps:
        second = assert_matches_the_dense_scan(maps)
        assert second.basis == second_prolongation(first).basis


@pytest.mark.parametrize("name,r,s,t", SPARSE_CASES)
def test_prolongation_rows_match_the_dense_scan(name, r, s, t):
    check_prolongation_rows(name, r, s, t)


@tier2
@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_prolongation_rows_match_the_dense_scan_tier2(name):
    check_prolongation_rows(name, 2, 2, 2)
