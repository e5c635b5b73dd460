from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from berger_lab.exactlin import RealMatrix, span_of, symmetric_signature
from berger_lab.quatspace import (Quaternion, build_space, left_mult_matrix,
                                  realify, right_mult_matrix)
from conftest import dual_W1

coeffs = st.integers(-5, 5)
quaternions = st.builds(Quaternion, coeffs, coeffs, coeffs, coeffs)
ZERO = Quaternion()


# The package only negates, conjugates and scales quaternions; the Hamilton
# product and the sum are references for the tests below.

def qmul(a, b):
    """The Hamilton product a * b."""
    return Quaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


def qadd(a, b):
    return Quaternion(a.w + b.w, a.x + b.x, a.y + b.y, a.z + b.z)


# Quaternionic matrices are sparse {(i, j): Quaternion} dicts of their
# nonzero entries, the form `realify` reads.

def quat_matrices(n):
    return st.lists(quaternions, min_size=n * n, max_size=n * n).map(
        lambda ent: {divmod(k, n): q for k, q in enumerate(ent) if q != ZERO})


def quat_matmul(a, b, n):
    """The product of two n x n sparse quaternionic matrices."""
    out = {}
    for i in range(n):
        for j in range(n):
            acc = ZERO
            for t in range(n):
                if (i, t) in a and (t, j) in b:
                    acc = qadd(acc, qmul(a[i, t], b[t, j]))
            if acc != ZERO:
                out[i, j] = acc
    return out


def conjugate_transpose(m):
    return {(j, i): q.conjugate() for (i, j), q in m.items()}


def eta_pairing(space, u, v):
    """eta(u, v) for sparse coordinate vectors."""
    return sum((ui * space.eta[i, j] * vj
                for i, ui in u.items() for j, vj in v.items()), Fraction(0))


def complement_E(space):
    """The coordinate span of the non-degenerate complement E of W + W1."""
    return span_of([{i: Fraction(1)} for i in space.e_indices()], space.real_dim)


# ---------------------------------------------------------------------------
# quaternion algebra
# ---------------------------------------------------------------------------

def test_multiplication_table():
    one, i, j, k = (Quaternion.one(), Quaternion.i(), Quaternion.j(),
                    Quaternion.k())
    minus_one = -one
    assert qmul(i, i) == qmul(j, j) == qmul(k, k) == minus_one
    assert qmul(i, j) == k and qmul(j, k) == i and qmul(k, i) == j
    assert qmul(j, i) == -k and qmul(k, j) == -i and qmul(i, k) == -j


@given(quaternions, quaternions)
@settings(max_examples=50, deadline=None)
def test_conjugation_reverses_products(a, b):
    assert qmul(a, b).conjugate() == qmul(b.conjugate(), a.conjugate())


@given(quaternions)
@settings(max_examples=50, deadline=None)
def test_norm_is_real(q):
    n = qmul(q, q.conjugate())
    assert n.x == 0 and n.y == 0 and n.z == 0
    assert n.w == q.w**2 + q.x**2 + q.y**2 + q.z**2


@given(quat_matrices(2), quat_matrices(2))
@settings(max_examples=25, deadline=None)
def test_conjugate_transpose_antihomomorphism(a, b):
    assert conjugate_transpose(quat_matmul(a, b, 2)) == \
        quat_matmul(conjugate_transpose(b), conjugate_transpose(a), 2)


# ---------------------------------------------------------------------------
# realification
# ---------------------------------------------------------------------------

def test_realify_one_is_identity():
    assert realify(1, {(0, 0): Quaternion.one()}) == RealMatrix.identity(4)


def test_realify_i_squares_to_minus_identity():
    m = realify(1, {(0, 0): Quaternion.i()})
    assert m * m == RealMatrix.identity(4).scaled(-1)


@given(quat_matrices(2), quat_matrices(2))
@settings(max_examples=25, deadline=None)
def test_realify_is_an_algebra_homomorphism(a, b):
    # oracle: the quaternionic product computed directly
    assert realify(2, quat_matmul(a, b, 2)) == realify(2, a) * realify(2, b)


@given(quaternions, quaternions)
@settings(max_examples=50, deadline=None)
def test_realify_on_scalars_is_injective_ring_hom(p, q):
    lp, lq = left_mult_matrix(p), left_mult_matrix(q)
    assert left_mult_matrix(qmul(p, q)) == lp * lq
    assert left_mult_matrix(qadd(p, q)) == lp + lq
    if p != ZERO:
        assert not lp.is_zero()


@given(quaternions, quaternions)
@settings(max_examples=50, deadline=None)
def test_left_and_right_multiplications_commute(p, q):
    assert left_mult_matrix(p) * right_mult_matrix(q) == \
        right_mult_matrix(q) * left_mult_matrix(p)


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r,s,t", [(1, 1, 1), (1, 2, 1), (2, 2, 2), (1, 1, 0),
                                   (0, 2, 0)])
def test_structure_triple_relations(r, s, t):
    space = build_space(r, s, t)
    n = space.real_dim
    assert n == 4 * (r + s)
    i1, i2, i3 = space.I
    minus_id = RealMatrix.identity(n).scaled(-1)
    for ia in space.I:
        assert ia * ia == minus_id
    assert i1 * i2 == i3
    assert (i2 * i1).scaled(-1) == i3


@pytest.mark.parametrize("r,s,t", [(1, 1, 1), (1, 2, 1), (2, 2, 2)])
def test_eta_symmetric_invertible_signature(r, s, t):
    space = build_space(r, s, t)
    eta = space.eta
    assert eta.is_symmetric()
    assert symmetric_signature(eta) == (4 * r, 4 * s)


@pytest.mark.parametrize("r,s,t", [(r, s, t) for r in range(4) for s in range(4)
                                   for t in range(min(r, s) + 1) if r + s])
def test_eta_is_an_involution(r, s, t):
    # `scalar` raises the Ricci index with eta itself
    space = build_space(r, s, t)
    assert space.eta * space.eta == RealMatrix.identity(4 * space.m)


@pytest.mark.parametrize("r,s,t", [(1, 1, 1), (1, 2, 1), (2, 2, 2)])
def test_structure_is_eta_skew(r, s, t):
    space = build_space(r, s, t)
    eta = space.eta
    for ia in space.I:
        assert (eta * ia + ia.transpose() * eta).is_zero()
        # eta(Ia X, Ia Y) = eta(X, Y)
        assert ia.transpose() * eta * ia == eta


def eta_block(space, i, j):
    """The 4x4 block of eta pairing quaternionic basis vectors i and j."""
    return RealMatrix.from_rows([[space.eta[4 * i + a, 4 * j + b]
                                  for b in range(4)] for a in range(4)])


def test_hermitian_pairing_pattern():
    space = build_space(1, 2, 1)
    one = RealMatrix.identity(4)
    # only nonzero pairings: <p_i, q_i> = <q_i, p_i> = 1 and <e_i, e_i> = +-1,
    # each a real scalar times the 4x4 identity
    assert eta_block(space, 0, 2) == one and eta_block(space, 2, 0) == one
    assert eta_block(space, 1, 1) == one  # r0 = 0, s0 = 1: e_1 has +1
    for i in range(3):
        for j in range(3):
            if (i, j) not in ((0, 2), (2, 0), (1, 1)):
                assert eta_block(space, i, j).is_zero()
    assert eta_block(build_space(2, 1, 1), 1, 1) == one.scaled(-1)  # r0 = 1 side


def test_invalid_parameters_raise():
    with pytest.raises(ValueError):
        build_space(1, 1, 2)
    with pytest.raises(ValueError):
        build_space(0, 0, 0)
    with pytest.raises(ValueError):
        build_space(-1, 2, 0)


# ---------------------------------------------------------------------------
# W, E, W1
# ---------------------------------------------------------------------------

def test_witt_blocks_111():
    space = build_space(1, 1, 1)
    w = space.isotropic_subspace_W()
    assert w.dim == 4
    # eta vanishes identically on W
    for u in w.sparse_rows():
        for v in w.sparse_rows():
            assert eta_pairing(space, u, v) == 0


def test_witt_blocks_121():
    space = build_space(1, 2, 1)
    w, e, w1 = (space.isotropic_subspace_W(), complement_E(space),
                dual_W1(space))
    assert (w.dim, e.dim, w1.dim) == (4, 4, 4)
    for u in w1.sparse_rows():
        for v in w1.sparse_rows():
            assert eta_pairing(space, u, v) == 0
    # E is orthogonal to both W and W1, and eta|_E has signature (0, 4)
    for u in e.sparse_rows():
        for v in w.sparse_rows() + w1.sparse_rows():
            assert eta_pairing(space, u, v) == 0
    e_gram = RealMatrix.from_rows(
        [[eta_pairing(space, u, v) for v in e.sparse_rows()]
         for u in e.sparse_rows()])
    assert symmetric_signature(e_gram) == (0, 4)


def test_witt_blocks_222_total_and_empty_complement():
    space = build_space(2, 2, 2)
    w, e, w1 = (space.isotropic_subspace_W(), complement_E(space),
                dual_W1(space))
    assert e.dim == 0
    combined = span_of(w.sparse_rows() + w1.sparse_rows(), space.real_dim)
    assert combined.dim == space.real_dim


def test_w_requires_witt_part():
    space = build_space(1, 1, 0)
    with pytest.raises(ValueError):
        space.isotropic_subspace_W()
    with pytest.raises(ValueError):
        dual_W1(space)
    assert complement_E(space).dim == 8


@pytest.mark.parametrize("r,s,t", [(1, 1, 1), (1, 2, 1), (2, 2, 2)])
def test_structure_preserves_witt_blocks(r, s, t):
    space = build_space(r, s, t)
    blocks = [space.isotropic_subspace_W(), complement_E(space),
              dual_W1(space)]
    for ia in space.I:
        for block in blocks:
            for v in block.sparse_rows():
                assert block.contains_vector(ia.apply(v))


def test_space_json_shape():
    # a space has no JSON form; its shape is these fields
    space = build_space(1, 1, 1)
    assert (space.r, space.s, space.t) == (1, 1, 1)
    assert space.eta.is_symmetric() and (space.eta.rows, space.eta.cols) == (8, 8)
    assert len(space.I) == 3
    assert all((ia.rows, ia.cols) == (8, 8) for ia in space.I)
