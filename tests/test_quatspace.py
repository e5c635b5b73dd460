import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from berger_lab.exactlin import RealMatrix, span_of, symmetric_signature
from berger_lab.quatspace import _HAMILTON, build_space, conjugate, realify
from conftest import (apply, dual_W1, entry, from_rows, identity, plus, product, scaled,
                      subspace_W, transpose)

# The package multiplies signed units (u, sign), sign * e_u for the units
# e_0 = 1, e_1 = i, e_2 = j, e_3 = k, through one table.  The references
# below compute with general quaternions, 4-tuples (w, x, y, z).

SIGNED_UNITS = [(u, sign) for u in range(4) for sign in (1, -1)]
ZERO = (0, 0, 0, 0)


def qmul(a, b):
    """The Hamilton product a * b."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def qadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def qconj(a):
    w, x, y, z = a
    return (w, -x, -y, -z)


def as_quaternion(unit):
    """The signed unit (u, sign) as a 4-tuple."""
    u, sign = unit
    return tuple(sign if c == u else 0 for c in range(4))


def reference_realify(m, entries):
    """Realification of the m x m matrix of general quaternions `entries`
    ({(i, j): 4-tuple}): column b of block (i, j) is entry * e_b."""
    n = 4 * m
    out = {}
    for (i, j), q in entries.items():
        for b in range(4):
            column = qmul(q, as_quaternion((b, 1)))
            for a in range(4):
                out[(4 * i + a) * n + 4 * j + b] = column[a]
    return RealMatrix(n, n, out)


# Quaternionic matrices are sparse {(i, j): signed unit} dicts of their
# nonzero entries, the form `realify` reads.

def unit_matrices(n):
    entries = st.one_of(st.none(), st.sampled_from(SIGNED_UNITS))
    return st.lists(entries, min_size=n * n, max_size=n * n).map(
        lambda ent: {divmod(k, n): u for k, u in enumerate(ent) if u})


def quat_matmul(a, b, n):
    """The product of two n x n sparse matrices of 4-tuples."""
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


def eta_pairing(space, u, v):
    """eta(u, v) for sparse coordinate vectors."""
    return sum((ui * entry(space.eta, i, j) * vj
                for i, ui in u.items() for j, vj in v.items()), Fraction(0))


def complement_E(space):
    """The coordinate span of the non-degenerate complement E of W + W1."""
    return span_of([{i: Fraction(1)} for i in space.e_indices()], space.real_dim)


# ---------------------------------------------------------------------------
# quaternion algebra
# ---------------------------------------------------------------------------

def test_multiplication_table():
    one, i, j, k = (as_quaternion((u, 1)) for u in range(4))
    minus_one = as_quaternion((0, -1))
    assert qmul(i, i) == qmul(j, j) == qmul(k, k) == minus_one
    assert qmul(i, j) == k and qmul(j, k) == i and qmul(k, i) == j
    assert qmul(j, i) == qconj(k) and qmul(k, j) == qconj(i)
    assert qmul(i, k) == qconj(j) and qmul(one, i) == i
    # the package's table against the reference, over every signed unit
    for (u, s), (v, t) in itertools.product(SIGNED_UNITS, repeat=2):
        w, sign = _HAMILTON[u][v]
        assert as_quaternion((w, s * t * sign)) == \
            qmul(as_quaternion((u, s)), as_quaternion((v, t)))


def test_conjugate_matches_the_reference():
    for unit in SIGNED_UNITS:
        assert as_quaternion(conjugate(unit)) == qconj(as_quaternion(unit))


# ---------------------------------------------------------------------------
# realification
# ---------------------------------------------------------------------------

def test_realify_one_is_identity():
    assert realify(1, {(0, 0): (0, 1)}) == identity(4)


def test_realify_i_squares_to_minus_identity():
    m = realify(1, {(0, 0): (1, 1)})
    assert product(m, m) == scaled(identity(4), -1)


@given(unit_matrices(2), unit_matrices(2))
@settings(max_examples=25, deadline=None)
def test_realify_is_an_algebra_homomorphism(a, b):
    # oracle: the quaternionic product computed directly, then realified
    # entry by entry from the reference product
    qa = {ij: as_quaternion(u) for ij, u in a.items()}
    qb = {ij: as_quaternion(u) for ij, u in b.items()}
    assert realify(2, a) == reference_realify(2, qa)
    assert product(realify(2, a), realify(2, b)) == \
        reference_realify(2, quat_matmul(qa, qb, 2))


def test_realify_on_scalars_is_injective_ring_hom():
    scalars = {unit: realify(1, {(0, 0): unit}) for unit in SIGNED_UNITS}
    assert len(set(scalars.values())) == len(SIGNED_UNITS)
    for p, q in itertools.product(SIGNED_UNITS, repeat=2):
        pq = qmul(as_quaternion(p), as_quaternion(q))
        assert product(scalars[p], scalars[q]) == reference_realify(1, {(0, 0): pq})


def test_left_and_right_multiplications_commute():
    # every I_alpha commutes with the realification of every signed unit at
    # every position
    for space in (build_space(1, 1, 1), build_space(1, 1, 0)):
        m = space.m
        for ij in itertools.product(range(m), repeat=2):
            for unit in SIGNED_UNITS:
                left = realify(m, {ij: unit})
                for ia in space.I:
                    assert product(left, ia) == product(ia, left)


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
    minus_id = scaled(identity(n), -1)
    for ia in space.I:
        assert product(ia, ia) == minus_id
    assert product(i1, i2) == i3
    assert scaled(product(i2, i1), -1) == i3


@pytest.mark.parametrize("r,s,t", [(1, 1, 1), (1, 2, 1), (2, 2, 2)])
def test_eta_symmetric_invertible_signature(r, s, t):
    space = build_space(r, s, t)
    eta = space.eta
    assert eta == transpose(eta)
    assert symmetric_signature(eta) == (4 * r, 4 * s)


@pytest.mark.parametrize("r,s,t", [(r, s, t) for r in range(4) for s in range(4)
                                   for t in range(min(r, s) + 1) if r + s])
def test_eta_is_an_involution(r, s, t):
    # `scalar` raises the Ricci index with eta itself
    space = build_space(r, s, t)
    assert product(space.eta, space.eta) == identity(4 * space.m)


@pytest.mark.parametrize("r,s,t", [(1, 1, 1), (1, 2, 1), (2, 2, 2)])
def test_structure_is_eta_skew(r, s, t):
    space = build_space(r, s, t)
    eta = space.eta
    for ia in space.I:
        assert not plus(product(eta, ia), product(transpose(ia), eta)).nz
        # eta(Ia X, Ia Y) = eta(X, Y)
        assert product(transpose(ia), eta, ia) == eta


def eta_block(space, i, j):
    """The 4x4 block of eta pairing quaternionic basis vectors i and j."""
    return from_rows([[entry(space.eta, 4 * i + a, 4 * j + b)
                       for b in range(4)] for a in range(4)])


def test_hermitian_pairing_pattern():
    space = build_space(1, 2, 1)
    one = identity(4)
    # only nonzero pairings: <p_i, q_i> = <q_i, p_i> = 1 and <e_i, e_i> = +-1,
    # each a real scalar times the 4x4 identity
    assert eta_block(space, 0, 2) == one and eta_block(space, 2, 0) == one
    assert eta_block(space, 1, 1) == one  # r0 = 0, s0 = 1: e_1 has +1
    for i in range(3):
        for j in range(3):
            if (i, j) not in ((0, 2), (2, 0), (1, 1)):
                assert not eta_block(space, i, j).nz
    assert eta_block(build_space(2, 1, 1), 1, 1) == scaled(one, -1)  # r0 = 1 side


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
    w = subspace_W(space)
    assert w.dim == 4
    # eta vanishes identically on W
    for u in w.sparse_rows():
        for v in w.sparse_rows():
            assert eta_pairing(space, u, v) == 0


def test_witt_blocks_121():
    space = build_space(1, 2, 1)
    w, e, w1 = (subspace_W(space), complement_E(space),
                dual_W1(space))
    assert (w.dim, e.dim, w1.dim) == (4, 4, 4)
    for u in w1.sparse_rows():
        for v in w1.sparse_rows():
            assert eta_pairing(space, u, v) == 0
    # E is orthogonal to both W and W1, and eta|_E has signature (0, 4)
    for u in e.sparse_rows():
        for v in w.sparse_rows() + w1.sparse_rows():
            assert eta_pairing(space, u, v) == 0
    e_gram = from_rows(
        [[eta_pairing(space, u, v) for v in e.sparse_rows()]
         for u in e.sparse_rows()])
    assert symmetric_signature(e_gram) == (0, 4)


def test_witt_blocks_222_total_and_empty_complement():
    space = build_space(2, 2, 2)
    w, e, w1 = (subspace_W(space), complement_E(space),
                dual_W1(space))
    assert e.dim == 0
    combined = span_of(w.sparse_rows() + w1.sparse_rows(), space.real_dim)
    assert combined.dim == space.real_dim


def test_w_requires_witt_part():
    space = build_space(1, 1, 0)
    with pytest.raises(ValueError):
        subspace_W(space)
    with pytest.raises(ValueError):
        dual_W1(space)
    assert complement_E(space).dim == 8


@pytest.mark.parametrize("r,s,t", [(1, 1, 1), (1, 2, 1), (2, 2, 2)])
def test_structure_preserves_witt_blocks(r, s, t):
    space = build_space(r, s, t)
    blocks = [subspace_W(space), complement_E(space),
              dual_W1(space)]
    for ia in space.I:
        for block in blocks:
            for v in block.sparse_rows():
                assert block.contains_vector(apply(ia, v))


# sha256 of repr([sorted(m.nz.items()) for m in (eta, I1, I2, I3)]) for each
# space with 1 <= r + s <= 4: R0 and the scalar do not see the sign of I3,
# so these pin the structure data itself.
PINNED_STRUCTURE = {
    (0, 1, 0): "0b633c21d9e967459bb383bcf112d92bf437336525a2fa204df2f6e5cd1a0034",
    (1, 0, 0): "f1a39502521406b38b3da8f3eedc49f1a6eef00bb81c93d5f18dac8d874760ea",
    (0, 2, 0): "02a9042c3e3e35727da8bc77703abc447176b8a2efc635ceaea48300f4c733df",
    (1, 1, 0): "8a075402b0a8e517ef286f6487ce825d38e8499b98a1618f85b7c0134a9d870a",
    (1, 1, 1): "c9ad1fc682d34c1b41e37e72fb792b4116e78f209206f3dccfcab2dfa8176e8b",
    (2, 0, 0): "b387dfee69c95092cd4566a94154ac529da6db3dea655b4bbc5f98790f5a58fa",
    (0, 3, 0): "4e63f207c2184850631278f36c34212f4e1b9ba5dc165716586df0014644841a",
    (1, 2, 0): "688e7a5b68a27f6ed492ca97f5b90cb7302b0bbfe0c6ace3749995df0a84b6f1",
    (1, 2, 1): "f75e77723e0d4fb802c656bc42608663970497a9948f9c27854713d521b1733f",
    (2, 1, 0): "814e58f717743b105f29ae8222c2bfe4c9f13b10025eda511147e265f3c77111",
    (2, 1, 1): "a1f8cfd4ab6fe65feb209938a9f51a04c40dae1fa93b6b197e78b5db00b447a3",
    (3, 0, 0): "14cb7b3bffc5b9540dc256d81bf2f84e71b5bdef3c26f2f17b002b863cbe8ef0",
    (0, 4, 0): "f219176dd0477bab7fcbf15aa9699da32a81d796e930e44911b45a48e6943cea",
    (1, 3, 0): "92df8184949e9e72f5c0da271ca8769f69152ad5a349cd025711ea4ee47da119",
    (1, 3, 1): "d53a2afc8cfa58fb3e5487389173df94fef79da8adc30e239f17a33e3cfbc282",
    (2, 2, 0): "bb6481ae362d873074e94708ab2ab4d7bf55e91f958c5337a02b02ee551c7ef9",
    (2, 2, 1): "25ce9c085310e016b5b0c76b97702c86b1e571762290263183bb73acf42a0010",
    (2, 2, 2): "0bbe28d3ccb782dd28e494d8d7682f36cd091c3ca9ff0b4ee37d816b0c41410b",
    (3, 1, 0): "6c207288bf155144430e99accc845ee823daad6f3cba9e4c46303c1d83955f23",
    (3, 1, 1): "1bcd79b92f07b9a825cdf63ddb6ae73e0f6e1286cd5f5645e7d151a9a131435a",
    (4, 0, 0): "234a3bad922a7fbf75c52f0eed58177c7553507b0dea5c2298122b2c584fa9e5",
}


def test_pinned_structure_covers_every_small_space():
    assert set(PINNED_STRUCTURE) == {
        (r, m - r, t) for m in range(1, 5) for r in range(m + 1)
        for t in range(min(r, m - r) + 1)}


@pytest.mark.parametrize("config,expected", PINNED_STRUCTURE.items(),
                         ids=["-".join(map(str, c)) for c in PINNED_STRUCTURE])
def test_structure_data_is_pinned(config, expected):
    space = build_space(*config)
    text = repr([sorted(m.nz.items()) for m in (space.eta, *space.I)])
    assert hashlib.sha256(text.encode()).hexdigest() == expected


def test_space_json_shape():
    # a space has no JSON form; its shape is these fields
    space = build_space(1, 1, 1)
    assert (space.r, space.s, space.t) == (1, 1, 1)
    assert space.eta == transpose(space.eta) and (space.eta.rows, space.eta.cols) == (8, 8)
    assert len(space.I) == 3
    assert all((ia.rows, ia.cols) == (8, 8) for ia in space.I)
