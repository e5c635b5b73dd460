import json
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from berger_lab import curvature as curv
from berger_lab import exactlin
from berger_lab.curvature import (CurvatureElement, CurvatureSpace, act,
                                  bianchi_residual_is_zero, bivector_pairs,
                                  build_r0, build_r1, coefficients_over,
                                  derivative_space,
                                  element_over, pair_symmetry_all,
                                  pair_symmetry_holds, restrict_check_degenerate,
                                  ricci, scalar)
from berger_lab.exactlin import RealMatrix, canonical_rows, check_canonical, span_of
from berger_lab.berger import holonomy_case_split
from berger_lab.harness import (ALL_CHECKS, TIER1_CONFIGS, Session, cache_get,
                                cache_put, run_verification)
from berger_lab.liealg import ALGEBRA_NAMES, LieAlgebra, algebra_by_name
from conftest import (SPARSE_CASES, first_rows, flat_subspace,
                      reference_bianchi_kernel, reference_coefficients_over,
                      reference_derivative_space, synthetic_element,
                      tensors_built, tier2, value, value_column)


def kernel(session, name, r, s, t):
    return session.curvature(name, r, s, t)


def over(curvature, target):
    """The space over `target` of `curvature`'s relabelled rows."""
    return CurvatureSpace(target, coefficients_over(curvature, target).sparse_rows())


# ---------------------------------------------------------------------------
# kernel dimensions (values computed by this tool; the h0 / glq / split
# facts are the externally claimed ones)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,r,s,t,expected", [
    ("glq", 1, 1, 1, 0),      # curvature space of the block algebra vanishes
    ("h0", 1, 1, 1, 1),       # one-dimensional: the line through R1
    ("sp", 1, 1, 1, 35),
    ("sp1+sp", 1, 1, 1, 36),
    ("sp_w", 1, 1, 1, 13),
    ("sp1+sp_w", 1, 1, 1, 14),
    ("sp_w", 1, 2, 1, 43),
    ("sp1+sp_w", 1, 2, 1, 43),
])
def test_curvature_space_dimensions(session, name, r, s, t, expected):
    assert kernel(session, name, r, s, t).dim == expected


@pytest.mark.parametrize("r,s,t", [
    (1, 1, 1), (1, 1, 0), (1, 2, 1),
    pytest.param(2, 2, 1, marks=tier2),
    pytest.param(2, 2, 2, marks=tier2),
    pytest.param(1, 3, 1, marks=tier2),
])
def test_curvature_dimensions_match_the_closed_form(session, r, s, t):
    # an independent certificate: the curvature space of sp(r,s) is S^4 of
    # C^2m, m = r+s, and sp(1) adds exactly the line through R0
    m = r + s
    assert kernel(session, "sp", r, s, t).dim == comb(2 * m + 3, 4)
    assert kernel(session, "sp1+sp", r, s, t).dim == comb(2 * m + 3, 4) + 1


def satisfies_first_bianchi(el):
    """R(a,b)e_c + R(b,c)e_a + R(c,a)e_b = 0 on every basis triple, read
    from the value matrices."""
    n = el.space.real_dim
    return not any(value(el, a, b)[d, c] + value(el, b, c)[d, a]
                   + value(el, c, a)[d, b]
                   for a, b, c in combinations(range(n), 3) for d in range(n))


def test_kernel_elements_satisfy_first_bianchi(session):
    space = kernel(session, "sp1+sp_w", 1, 1, 1)
    for el in space.basis[:3]:
        assert satisfies_first_bianchi(el)
    # every basis tensor of every space the tier-1 checks compute
    tier1 = Session()
    for _, check in ALL_CHECKS:
        check(tier1, 1)
    spaces = tier1.computed_curvatures()
    assert len(spaces) > 1
    for curvature in spaces.values():
        assert all(bianchi_residual_is_zero(el) for el in curvature.basis)


# every registry algebra defined at each configuration
REFERENCE_CASES = SPARSE_CASES + [
    pytest.param(name, 2, 2, 2, marks=tier2) for name in ALGEBRA_NAMES] + [
    pytest.param(name, 1, 3, 1, marks=tier2)
    for name in ("sp", "sp_w", "sp1", "sp1+sp", "sp1+sp_w")]


@pytest.mark.parametrize("name,r,s,t", REFERENCE_CASES)
def test_bianchi_kernel_matches_the_flat_reference(session, name, r, s, t):
    # Sym^2(g) -> Lambda^4 against the first-Bianchi map on Hom(Lambda^2, g)
    # compared through the space's flat view, re-canonicalised
    curvature = kernel(session, name, r, s, t)
    expected = reference_bianchi_kernel(curvature.algebra)
    assert curvature.dim == len(expected)
    assert canonical_rows(curvature.flat_vectors()) == expected
    assert canonical_rows(el.sparse_vector() for el in curvature.basis) == expected


def not_eta_skew(space, base):
    """`base` with one basis matrix appended that is not eta-skew: the
    identity, whose eta I = eta is symmetric, or E_{0, c}, where eta moves
    row 0 to row c, so that eta E_{0, c} has a diagonal entry at (c, c)."""
    n = space.real_dim
    c = curv._signed_permutation(space.eta)[0][0]
    return [
        LieAlgebra("with-identity", space, [*base.basis, RealMatrix.identity(n)]),
        LieAlgebra("with-diagonal", space, [
            *base.basis, RealMatrix.from_sparse(n, n, {c: Fraction(1)})]),
    ]


def test_an_algebra_outside_so_eta_is_refused(session, space111):
    for algebra in not_eta_skew(space111, session.algebra("h0", 1, 1, 1)):
        with pytest.raises(ValueError, match="eta-skew"):
            curv.bianchi_kernel(algebra)
        el = synthetic_element(algebra)
        with pytest.raises(ValueError, match="eta-skew"):
            pair_symmetry_holds(el)
        with pytest.raises(ValueError, match="eta-skew"):
            pair_symmetry_all(CurvatureSpace(algebra, [{0: 1}]))


def test_bianchi_kernel_follows_a_scaled_basis(session, space111):
    # basis matrices with non-integer entries: one common denominator clears
    # the system, and a tensor's coefficients scale inversely to its basis
    h0 = session.algebra("h0", 1, 1, 1)
    scales = {0: Fraction(1, 2), 4: Fraction(1, 3)}
    scaled = LieAlgebra("h0-scaled", space111, [
        b.scaled(scales.get(k, 1)) for k, b in enumerate(h0.basis)])
    curvature = curv.bianchi_kernel(scaled)
    assert curvature.dim == 1
    el = curvature.basis[0]
    assert satisfies_first_bianchi(el)
    assert bianchi_residual_is_zero(el)
    r1 = kernel(session, "h0", 1, 1, 1).basis[0]
    expected = {key: c / scales.get(key % h0.dim, 1)
                for key, c in r1.sparse_vector().items()}
    got = el.sparse_vector()
    ratio = got[min(got)] / expected[min(expected)]
    assert got == {key: ratio * c for key, c in expected.items()}


def test_antisymmetry_is_structural(session):
    el = kernel(session, "sp", 1, 1, 1).basis[0]
    assert value(el, 3, 1) == value(el, 1, 3).scaled(-1)
    assert value(el, 2, 2).is_zero()


def test_monotone_in_the_algebra(session):
    sub = kernel(session, "sp", 1, 1, 1)
    full = kernel(session, "sp1+sp", 1, 1, 1)
    target = full.algebra
    embedded = coefficients_over(sub, target)
    assert full.coefficient_subspace().contains(embedded)


# ---------------------------------------------------------------------------
# R0
# ---------------------------------------------------------------------------

def test_r0_lies_in_the_kernel_exactly(session):
    full = kernel(session, "sp1+sp", 1, 1, 1)
    r0 = build_r0(full.algebra)
    assert flat_subspace(full).contains_vector(r0.sparse_vector())


def test_r0_not_in_the_sp_part(session):
    full = kernel(session, "sp1+sp", 1, 1, 1)
    sub = kernel(session, "sp", 1, 1, 1)
    r0 = build_r0(full.algebra)
    assert not flat_subspace(over(sub, full.algebra)).contains_vector(r0.sparse_vector())


def test_eq5_split_dimensions(session):
    full = kernel(session, "sp1+sp", 1, 1, 1)
    sub = kernel(session, "sp", 1, 1, 1)
    assert full.dim == 1 + sub.dim


@pytest.mark.parametrize("r,s,t,expected_scalar", [
    (1, 1, 1, 32),   # 4m(m+2) with quaternionic dimension m = r+s
    (1, 2, 1, 60),
    (1, 1, 0, 32),   # independent of the Witt decomposition
])
def test_r0_scalar_value(session, r, s, t, expected_scalar):
    r0 = build_r0(session.algebra("sp1+sp", r, s, t))
    assert scalar(r0) == expected_scalar


def test_r0_pair_symmetry(session):
    r0 = build_r0(kernel(session, "sp1+sp", 1, 1, 1).algebra)
    assert pair_symmetry_holds(r0)


def test_r0_ricci_proportional_to_eta(session, space111):
    r0 = build_r0(session.algebra("sp1+sp", 1, 1, 1))
    ric = ricci(r0)
    eta = space111.eta
    n = space111.real_dim
    ratio = next(ric[i, j] / eta[i, j]
                 for i in range(n) for j in range(n) if eta[i, j])
    assert ratio != 0
    assert ric == eta.scaled(ratio)


def test_flipped_wedge_convention_violates_bianchi(session, space111):
    # conformance pin: with (X ^ Y)Z = eta(X,Z)Y - eta(Y,Z)X the model
    # tensor stops satisfying the first Bianchi identity
    n = space111.real_dim
    eta = curv._signed_permutation(space111.eta)
    r0 = build_r0(session.algebra("sp1+sp", 1, 1, 1))

    def flipped_value(a, b):
        base = value(r0, a, b)
        ea, eb = {a: Fraction(1)}, {b: Fraction(1)}
        wedges = RealMatrix.from_sparse(n, n, curv._wedge_matrix(n, eta, ea, eb))
        for ialpha in space111.I:
            wedges = wedges + RealMatrix.from_sparse(n, n, curv._wedge_matrix(
                n, eta, ialpha.apply(ea), ialpha.apply(eb)))
        # base - 2 * (1/4 wedges) flips the sign of the wedge part
        return base - wedges.scaled(Fraction(1, 2))

    violated = False
    for (a, b, c) in ((0, 1, 2), (0, 4, 5), (1, 3, 6)):
        cols = (flipped_value(a, b).apply({c: 1}),
                flipped_value(b, c).apply({a: 1}),
                flipped_value(c, a).apply({b: 1}))
        if any(sum(col.get(d, 0) for col in cols) for d in range(n)):
            violated = True
            break
    assert violated


def test_ricci_of_zero_element_is_zero(session):
    alg = kernel(session, "sp1+sp", 1, 1, 1).algebra
    zero = CurvatureElement(alg, {})
    assert ricci(zero).is_zero()
    assert scalar(zero) == 0


def test_sp_part_is_ricci_flat(session):
    # the trace-free summand of the split: every tensor over sp(1,1) alone
    sub = kernel(session, "sp", 1, 1, 1)
    for el in sub.basis:
        assert ricci(el).is_zero()


# ---------------------------------------------------------------------------
# R1
# ---------------------------------------------------------------------------

def test_r1_is_normalized_generator(session):
    h0_curv = kernel(session, "h0", 1, 1, 1)
    r1 = build_r1(h0_curv)
    vec = r1.sparse_vector()
    assert vec[min(vec)] == 1  # first nonzero coefficient in canonical order


def test_r1_rejects_wrong_dimension(session):
    with pytest.raises(ValueError, match="unexpected curvature space dimension"):
        build_r1(kernel(session, "sp", 1, 1, 1))


def test_r1_image_spans_h0(session):
    h0_curv = kernel(session, "h0", 1, 1, 1)
    r1 = build_r1(h0_curv)
    vectors = [row for row in r1.rows if row]
    assert span_of(vectors, h0_curv.algebra.dim).dim == 7


def test_h0_annihilates_r1(session):
    h0_curv = kernel(session, "h0", 1, 1, 1)
    r1 = build_r1(h0_curv)
    for a in h0_curv.algebra.basis:
        assert act(a, r1).is_zero()


def test_r1_vanishes_on_w_pairs(session, space111):
    r1 = build_r1(kernel(session, "h0", 1, 1, 1))
    w = list(space111.w_indices())
    for i, a in enumerate(w):
        for b in w[i + 1:]:
            assert value(r1, a, b).is_zero()


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------

def test_r0_is_invariant_under_the_full_algebra(session):
    alg = kernel(session, "sp1+sp", 1, 1, 1).algebra
    r0 = build_r0(alg)
    for a in alg.basis:
        assert act(a, r0).is_zero()


def test_act_of_zero_is_zero(session):
    alg = kernel(session, "sp1+sp", 1, 1, 1).algebra
    el = kernel(session, "sp1+sp", 1, 1, 1).basis[5]
    zero = RealMatrix.from_sparse(8, 8, {})
    assert act(zero, el).is_zero()


def test_act_is_a_lie_algebra_action(session):
    def difference(x, y):
        vx, vy = x.sparse_vector(), y.sparse_vector()
        return CurvatureElement(x.algebra,
                                {k: vx.get(k, 0) - vy.get(k, 0)
                                 for k in vx.keys() | vy.keys()})

    space = kernel(session, "sp1+sp_w", 1, 1, 1)
    alg = space.algebra
    el = space.basis[2]
    picks = [(0, 4), (1, 7), (3, 9), (2, 5)]
    for i, j in picks:
        a, b = alg.basis[i], alg.basis[j]
        lhs = act(a.commutator(b), el)
        rhs = difference(act(a, act(b, el)), act(b, act(a, el)))
        assert lhs == rhs


def test_act_values_stay_in_the_kernel(session):
    space = kernel(session, "sp1+sp_w", 1, 1, 1)
    sub = flat_subspace(space)
    for i in (0, 3):
        for el in space.basis[:2]:
            moved = act(space.algebra.basis[i], el)
            assert sub.contains_vector(moved.sparse_vector())


# ---------------------------------------------------------------------------
# degenerate pairs
# ---------------------------------------------------------------------------

def test_degenerate_vanishing_121(session):
    report = restrict_check_degenerate(kernel(session, "sp1+sp_w", 1, 2, 1))
    assert report.status == "pass"
    assert report.checked_elements == 43
    assert report.status in ("pass", "vacuous")


def test_degenerate_vanishing_vacuous_when_no_complement(session):
    report = restrict_check_degenerate(kernel(session, "sp1+sp_w", 1, 1, 1))
    assert report.status == "vacuous"
    assert report.status in ("pass", "vacuous")


def reference_degenerate_witnesses(curvature):
    """The witnesses of `restrict_check_degenerate`, in its order, read from
    the value matrices."""
    space = curvature.space
    w, e = list(space.w_indices()), list(space.e_indices())
    found = []
    for i, el in enumerate(curvature.basis):
        found += [(i, "R(p,X) != 0", (p, x)) for p in w for x in e
                  if not value(el, p, x).is_zero()]
        found += [(i, "R(X,Y)p != 0", (x, y, p)) for x in e for y in e if x < y
                  for p in w if value_column(el, x, y, p)]
    return found


def planted(curvature, wanted):
    """The first space over `curvature.algebra` of one unit Sym^2(g) row, a
    tensor that breaks the Bianchi identity, whose set of degenerate-pair
    witness kinds is `wanted`, and its witnesses."""
    for j in range(curvature.coefficient_subspace().ambient_dim):
        unit = CurvatureSpace(curvature.algebra, [{j: 1}])
        witnesses = reference_degenerate_witnesses(unit)
        if witnesses and wanted({kind for _, kind, _ in witnesses}):
            return unit, witnesses
    raise AssertionError("no unit row plants the wanted witnesses")


def test_degenerate_vanishing_flags_corrupted_element(session):
    # a unit row with a nonzero value on a (W, E) bivector: over an algebra
    # that preserves W, omega_l(p, X) = eta(B_l e_p, e_X) = 0 makes every
    # Sym^2 row vanish there, so the row is planted over sp(1)+sp(1,2)
    unit, expected = planted(kernel(session, "sp1+sp", 1, 2, 1),
                             lambda kinds: "R(p,X) != 0" in kinds)
    report = restrict_check_degenerate(unit)
    assert report.status == "fail"
    assert report.witnesses == tuple(expected)
    element, kind, indices = report.witnesses[0]
    assert (element, kind) == (0, "R(p,X) != 0")


def test_degenerate_vanishing_flags_a_value_that_moves_w(session):
    # a unit row that is zero on every (W, E) bivector but whose value on
    # an (E, E) bivector moves W
    unit, expected = planted(kernel(session, "sp1+sp_w", 1, 2, 1),
                             lambda kinds: kinds == {"R(X,Y)p != 0"})
    report = restrict_check_degenerate(unit)
    assert report.status == "fail"
    assert report.witnesses == tuple(expected)
    assert reference_degenerate_witnesses(kernel(session, "sp1+sp_w", 1, 2, 1)) == []


def test_degenerate_vanishing_requires_witt_part(session):
    space = session.space(1, 1, 0)
    alg = algebra_by_name("sp", space)
    empty = CurvatureSpace(alg, [])
    with pytest.raises(ValueError):
        restrict_check_degenerate(empty)


# ---------------------------------------------------------------------------
# second Bianchi / derivative space
# ---------------------------------------------------------------------------

def test_derivative_space_of_h0_vanishes(session):
    assert derivative_space(kernel(session, "h0", 1, 1, 1)).dim == 0


def test_derivative_space_trivial_for_empty_curvature(session):
    d = derivative_space(kernel(session, "glq", 1, 1, 1))
    assert (d.dim, d.ambient_dim) == (0, 0)


def test_derivative_space_of_full_algebra_is_nonzero(session):
    d = derivative_space(kernel(session, "sp1+sp", 1, 1, 1))
    assert d.dim == 112  # computed value; the claim is only d != 0


@pytest.mark.parametrize("name,r,s,t", SPARSE_CASES)
def test_derivative_space_matches_the_tensor_reference(session, name, r, s, t):
    curvature = kernel(session, name, r, s, t)
    assert (derivative_space(curvature).sparse_rows()
            == reference_derivative_space(curvature).sparse_rows())


def test_derivative_space_of_rows_with_fractions(session):
    # a space that is no curvature space, whose canonical rows hold
    # non-integral Fractions, so each row is cleared before it is mapped
    curvature = kernel(session, "sp1+sp_w", 1, 1, 1)
    algebra = curvature.algebra
    ncols = curvature.coefficient_subspace().ambient_dim
    stray = {j: Fraction(j % 5 - 2, 1 + j % 3) for j in range(0, ncols, 7)}
    sample = CurvatureSpace(algebra, canonical_rows(
        [*curvature.coefficient_subspace().sparse_rows(), stray]))
    rows = sample.coefficient_subspace().sparse_rows()
    assert any(type(c) is Fraction for row in rows for c in row.values())
    computed = derivative_space(sample)
    assert 0 < computed.dim < computed.ambient_dim
    assert computed.sparse_rows() == reference_derivative_space(sample).sparse_rows()


# ---------------------------------------------------------------------------
# pair symmetry and the collapse
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,r,s,t", [
    ("sp", 1, 1, 1), ("sp1+sp", 1, 1, 1), ("sp_w", 1, 1, 1),
    ("sp1+sp_w", 1, 1, 1), ("h0", 1, 1, 1), ("sp1+sp_w", 1, 2, 1),
])
def test_pair_symmetry_everywhere(session, name, r, s, t):
    assert pair_symmetry_all(kernel(session, name, r, s, t))


def test_mixed_signature_collapse(session):
    full = kernel(session, "sp1+sp_w", 1, 2, 1)
    sub = kernel(session, "sp_w", 1, 2, 1)
    embedded = coefficients_over(sub, full.algebra)
    full_sub = full.coefficient_subspace()
    assert embedded.dim == full_sub.dim
    assert full_sub.contains(embedded)


def test_eq7_split(session):
    full = kernel(session, "sp1+sp_w", 1, 1, 1)
    sub = kernel(session, "sp_w", 1, 1, 1)
    assert full.dim == 1 + sub.dim
    r1 = build_r1(kernel(session, "h0", 1, 1, 1))
    r1_vec = element_over(r1, full.algebra)
    assert flat_subspace(full).contains_vector(r1_vec)
    assert not flat_subspace(over(sub, full.algebra)).contains_vector(r1_vec)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_curvature_space_json_round_trip(session):
    original = kernel(session, "sp1+sp_w", 1, 1, 1)
    data = original.rows_json()
    assert data["dim"] == 14 and data["algebra"] == "sp(1)+sp(1,1)_W"
    rebuilt = CurvatureSpace.from_json(original.algebra, data)
    assert rebuilt.dim == original.dim
    assert rebuilt.basis == original.basis
    assert rebuilt.rows_json() == data
    assert rebuilt.to_json() == original.to_json()


# ---------------------------------------------------------------------------
# the sparse layer against a dense reference
# ---------------------------------------------------------------------------
#
# The reference below works on dense coefficient tables (read from the dense
# JSON form) and full value matrices, the way the tensors are defined.

def dense_coeffs(el):
    return [[row.get(k, 0) for k in range(el.algebra.dim)] for row in el.rows]


def ref_values(el):
    """{(a, b): R(e_a, e_b)} over all basis pairs, from dense coefficients."""
    n = el.space.real_dim
    values = {}
    for (a, b), row in zip(bivector_pairs(n), dense_coeffs(el)):
        out = [Fraction(0)] * (n * n)
        for c, bmat in zip(row, el.algebra.basis):
            if c:
                for i, v in bmat.nz.items():
                    out[i] += c * v
        values[a, b] = RealMatrix(n, n, out)
        values[b, a] = values[a, b].scaled(-1)
    for a in range(n):
        values[a, a] = RealMatrix.from_sparse(n, n, {})
    return values


def ref_act(a_mat, el, values):
    """Dense coefficient rows of [A, R(X,Y)] - R(AX, Y) - R(X, AY)."""
    n = el.space.real_dim
    rows = []
    for a, b in bivector_pairs(n):
        comm = a_mat.commutator(values[a, b])
        m = [comm[i, j] for i in range(n) for j in range(n)]
        for d in range(n):
            for f, v in ((a_mat[d, a], values[d, b]), (a_mat[d, b], values[a, d])):
                if f:
                    for i, x in v.nz.items():
                        m[i] -= f * x
        coords = el.algebra.coordinates_of(RealMatrix(n, n, m))
        rows.append([coords.get(k, 0) for k in range(el.algebra.dim)])
    return rows


def ref_pair_symmetric(el, values):
    n = el.space.real_dim
    eta_r = {pair: el.space.eta * m for pair, m in values.items()}
    # eta(R(X,Y)Z, U) = eta(R(Z,U)X, Y) on every basis quadruple
    return all(eta_r[x, y][u, z] == eta_r[z, u][y, x]
               for x in range(n) for y in range(n)
               for z in range(n) for u in range(n))


def ref_over(el, values, target):
    """Sparse coefficient vector of `el` over `target`, bivector-major, from
    the coordinates of its values."""
    return {ib * target.dim + k: c
            for ib, pair in enumerate(bivector_pairs(el.space.real_dim))
            for k, c in target.coordinates_of(values[pair]).items()}


@pytest.mark.parametrize("name,r,s,t", SPARSE_CASES)
def test_sparse_layer_matches_dense_reference(session, name, r, s, t):
    curvature = kernel(session, name, r, s, t)
    space, algebra = curvature.space, curvature.algebra
    n = space.real_dim
    elements = list(curvature.basis[:1]) + [synthetic_element(algebra)]
    target = session.algebra("sp1+sp", r, s, t)
    vectors = []
    # one acting matrix per element keeps the dense reference affordable
    for el, a_mat in zip(elements, (algebra.basis[0], algebra.basis[-1])):
        values = ref_values(el)
        dense = dense_coeffs(el)
        assert el.sparse_vector() == {
            ib * algebra.dim + k: c
            for ib, row in enumerate(dense) for k, c in enumerate(row) if c}
        for (a, b), expected in values.items():
            assert value(el, a, b) == expected
            for col in range(n):
                assert value_column(el, a, b, col) == {
                    d: expected[d, col] for d in range(n) if expected[d, col]}
        assert dense_coeffs(act(a_mat, el)) == ref_act(a_mat, el, values)
        assert pair_symmetry_holds(el) == ref_pair_symmetric(el, values)
        vectors.append(ref_over(el, values, target))
        assert element_over(el, target) == vectors[-1]
    # the first row relabelled over the target, against its tensor's values
    first = first_rows(curvature, 1)
    assert flat_subspace(over(first, target)) == span_of(
        vectors[:first.dim], len(bivector_pairs(n)) * target.dim)


@pytest.mark.parametrize("name", ["sp", "sp_w", "sp1", "glq", "h0", "sp1+sp",
                                  "sp1+sp_w"])
def test_value_column_is_a_column_of_value(session, space111, name):
    # the columns that `_add_column` reads through `_columns` (the degenerate
    # check and the Bianchi residual) are den times the reference columns
    curvature = kernel(session, name, 1, 1, 1)
    n = space111.real_dim
    den, cols = curv._columns(curvature.algebra)
    elements = list(curvature.basis) + [synthetic_element(curvature.algebra)]
    for el in elements:
        for a in range(n):
            for b in range(n):
                row, sign = el.row_of(a, b)
                reference = value(el, a, b)
                for c in range(n):
                    column = {}
                    curv._add_column(column, sign, row, cols[c])
                    assert {d: v for d, v in column.items() if v} == {
                        d: den * v for d, v in value_column(el, a, b, c).items()}
                    assert value_column(el, a, b, c) == {
                        d: reference[d, c] for d in range(n) if reference[d, c]}


# every registry algebra sits in each target below as a block of its basis,
# sp(r,s)_W in sp(1)+sp(r,s) too: its basis is the leading part of sp(r,s)'s
BLOCK_PAIRS = [("sp_w", "sp1+sp_w"), ("sp", "sp1+sp"), ("sp1", "sp1+sp"),
               ("sp_w", "sp1+sp"), ("glq", "h0")]
R_EQUALS_T = {"glq", "h0"}  # defined only for r = s = t


def over_cases(configs, pairs):
    return [(source, target, *config) for config in configs
            for source, target in pairs
            if config[0] == config[1] == config[2]
            or not {source, target} & R_EQUALS_T]


@pytest.mark.parametrize("source,target,r,s,t", over_cases(
    [(1, 1, 1), (1, 2, 1)],
    BLOCK_PAIRS + [(name, name) for name in ALGEBRA_NAMES]))
def test_coefficients_over_matches_the_reference(session, source, target, r, s, t):
    # the relabelled rows, canonical as they are, mapped to the flat layout
    curvature = kernel(session, source, r, s, t)
    algebra = session.algebra(target, r, s, t)
    check_canonical(coefficients_over(curvature, algebra).sparse_rows())
    assert flat_subspace(over(curvature, algebra)) == reference_coefficients_over(
        curvature, algebra)


@tier2
@pytest.mark.parametrize("source,target,r,s,t",
                         over_cases([(2, 2, 2), (1, 3, 1)], BLOCK_PAIRS))
def test_coefficients_over_matches_the_reference_tier2(session, source, target,
                                                       r, s, t):
    test_coefficients_over_matches_the_reference(session, source, target, r, s, t)


def test_coefficients_over_refuses_a_target_that_is_no_block(session):
    sub = kernel(session, "sp_w", 1, 1, 1)
    full = session.algebra("sp1+sp_w", 1, 1, 1)
    # the same span as sp(1)+sp(1,1)_W, but sp(1,1)_W's basis sits in it out
    # of order, or scaled: relabelling the rows would not give canonical rows
    for basis in (full.basis[::-1], [b.scaled(2) for b in full.basis]):
        target = LieAlgebra("sp1+sp_w", full.space, basis)
        with pytest.raises(ValueError, match="not a block"):
            coefficients_over(sub, target)
        assert reference_coefficients_over(sub, target).dim == sub.dim
    with pytest.raises(ValueError, match="does not embed"):
        coefficients_over(kernel(session, "sp", 1, 1, 1), full)


def test_mixed_case_split_builds_no_tensor(monkeypatch):
    # the collapse compares canonical rows, so no kernel's basis is read
    built = tensors_built(monkeypatch)
    report = holonomy_case_split(1, 3, 1)
    assert report.case == "mixed-signature" and report.passed()
    assert built == []


@pytest.mark.parametrize("name", ["sp_w", "h0", "sp1+sp"])
def test_pair_symmetry_and_derivative_space_build_no_tensor(session, monkeypatch,
                                                            name):
    # both read the canonical rows, so a fresh kernel's basis stays unbuilt
    computed = curv.bianchi_kernel(session.algebra(name, 1, 1, 1))
    built = tensors_built(monkeypatch)
    assert pair_symmetry_all(computed)
    derivative_space(computed)
    assert built == [] and computed._basis is None


def test_tier1_run_builds_tensors_only_where_it_reads_them(monkeypatch):
    # h0 (R1 and its action), sp(1)+sp(r,s)_W (its Berger closure and
    # parabolic split) and one R0 per configuration over sp(1)+sp(r,s)
    names = Session()
    read = {names.algebra("h0", 1, 1, 1).name} | {
        names.algebra("sp1+sp_w", *config).name for config in TIER1_CONFIGS}
    built = tensors_built(monkeypatch)
    assert all(check.status == "pass" for check in run_verification(1).checks)
    r0 = [name for name in built if name not in read]
    assert sorted(r0) == sorted(names.algebra("sp1+sp", *config).name
                                for config in TIER1_CONFIGS)


@pytest.mark.parametrize("name", ["sp_w", "h0", "sp1+sp_w"])
def test_kernel_builds_its_basis_on_first_read(session, name):
    algebra = session.algebra(name, 1, 1, 1)
    expected = reference_bianchi_kernel(algebra)
    computed = curv.bianchi_kernel(algebra)
    assert computed.dim == len(expected)
    assert computed._basis is None  # reading dim built no tensor
    basis = computed.basis
    assert canonical_rows(el.sparse_vector() for el in basis) == expected
    assert computed.basis is basis
    # each basis tensor is its row's flat vector, scaled to lead with 1
    for el, vec in zip(basis, computed.flat_vectors()):
        got = el.sparse_vector()
        assert got[min(got)] == 1
        assert got == {key: Fraction(v, vec[min(vec)]) for key, v in vec.items()}


def test_synthetic_element_breaks_pair_symmetry(session):
    # the dense reference is not vacuous: it rejects an element as well
    algebra = session.algebra("sp1+sp", 1, 1, 1)
    el = synthetic_element(algebra)
    assert not ref_pair_symmetric(el, ref_values(el))
    assert not pair_symmetry_holds(el)


def test_rows_drop_zeros_and_are_read_only(session, space111):
    algebra = session.algebra("h0", 1, 1, 1)
    nb = len(bivector_pairs(space111.real_dim))
    dimg = algebra.dim
    # given out of order, with an explicit zero at (bivector 1, k = 0)
    given = {dimg + 4: Fraction(2, 3), dimg: Fraction(0), dimg + 2: Fraction(-1)}
    with_zero = CurvatureElement(algebra, given)
    given = {dimg + 2: Fraction(-1), dimg + 4: Fraction(2, 3)}
    without = CurvatureElement(algebra, given)
    assert with_zero == without
    assert hash(with_zero) == hash(without)
    assert list(with_zero.rows[1].items()) == [(2, Fraction(-1)), (4, Fraction(2, 3))]
    given[dimg] = Fraction(5)  # the element keeps its own copy
    assert without.rows[1] == {2: Fraction(-1), 4: Fraction(2, 3)}
    assert without.sparse_vector() == {dimg + 2: Fraction(-1), dimg + 4: Fraction(2, 3)}
    zero = CurvatureElement(algebra, {k * dimg: Fraction(0) for k in range(nb)})
    assert zero.is_zero()
    assert zero == CurvatureElement(algebra, {})
    with pytest.raises(TypeError):
        without.rows[1][2] = Fraction(7)
    row, sign = without.row_of(2, 0)
    with pytest.raises(TypeError):
        row[0] = Fraction(1)


def test_constructor_rejects_keys_outside_the_coefficient_space(session, space111):
    algebra = session.algebra("h0", 1, 1, 1)
    size = len(bivector_pairs(space111.real_dim)) * algebra.dim
    CurvatureElement(algebra, {0: Fraction(1), size - 1: Fraction(1)})
    for key in (size, -1):
        with pytest.raises(ValueError, match="coefficient keys"):
            CurvatureElement(algebra, {key: Fraction(1)})


def test_empty_rows_share_one_read_only_mapping(session):
    algebra = session.algebra("h0", 1, 1, 1)
    el = CurvatureElement(algebra, {algebra.dim + 2: Fraction(1)})
    empty = [row for row in el.rows if not row]
    assert len(empty) == len(el.rows) - 1
    assert all(row is empty[0] for row in empty)
    assert el.row_of(3, 3) == (empty[0], 0)
    for row in empty:
        with pytest.raises(TypeError):
            row[0] = Fraction(1)
    assert CurvatureElement(algebra, {}).rows[0] is empty[0]


def test_kernel_keeps_its_canonical_subspace(session, monkeypatch):
    # the kernel's rows are the space: neither solving nor reading it
    # re-canonicalises anything
    algebra = session.algebra("sp1+sp_w", 1, 2, 1)
    calls = []

    def counting(vectors):
        calls.append(1)
        return canonical_rows(vectors)

    monkeypatch.setattr(exactlin, "canonical_rows", counting)
    monkeypatch.setattr(curv, "canonical_rows", counting)
    curvature = curv.bianchi_kernel(algebra)
    sub = curvature.coefficient_subspace()
    assert calls == []
    monkeypatch.undo()
    check_canonical(sub.sparse_rows())
    assert sub.ambient_dim == algebra.dim * (algebra.dim + 1) // 2
    assert sub == span_of(sub.sparse_rows(), sub.ambient_dim)


@pytest.mark.parametrize("name,r,s,t", SPARSE_CASES)
def test_from_json_round_trip_elements_are_equal(session, monkeypatch, name, r, s, t):
    original = kernel(session, name, r, s, t)
    built = tensors_built(monkeypatch)
    data = json.loads(json.dumps(original.rows_json()))
    rebuilt = CurvatureSpace.from_json(original.algebra, data)
    assert rebuilt.rows_json() == data
    assert (rebuilt.coefficient_subspace().sparse_rows()
            == original.coefficient_subspace().sparse_rows())
    assert rebuilt.to_json() == original.to_json()
    assert built == []  # both directions read and write the rows alone
    assert rebuilt.basis == original.basis
    assert [hash(el) for el in rebuilt.basis] == [hash(el) for el in original.basis]


def test_from_json_reads_only_nonzero_entries(session):
    algebra = session.algebra("h0", 1, 1, 1)
    label = {"algebra": algebra.name, "dim": 1}
    data = {**label, "rows": [[[3, "1"], [5, "-3/4"]]]}
    space = CurvatureSpace.from_json(algebra, data)
    assert space.coefficient_subspace().sparse_rows() == ({3: 1, 5: Fraction(-3, 4)},)
    # a zero, in any spelling, is refused rather than stored
    with pytest.raises(ValueError, match="^row 0"):
        CurvatureSpace.from_json(algebra, {**label, "rows": [[[3, "1"], [5, "0/7"]]]})


def test_from_json_rejects_a_wrong_row_length(session):
    # a column outside Sym^2(g), out of order or repeated, or a pair that
    # is not [column, value]
    algebra = session.algebra("h0", 1, 1, 1)
    ncols = algebra.dim * (algebra.dim + 1) // 2
    label = {"algebra": algebra.name, "dim": 1}
    for row in ([[0, "1"], [ncols, "1"]], [[-1, "1"]], [[4, "1"], [2, "1"]],
                [[2, "1"], [2, "1"]], [["2", "1"]]):
        with pytest.raises(ValueError, match="columns must increase"):
            CurvatureSpace.from_json(algebra, {**label, "rows": [row]})
    for row in ([[2]], [[2, "1", "1"]]):
        with pytest.raises(ValueError):
            CurvatureSpace.from_json(algebra, {**label, "rows": [row]})


@pytest.mark.parametrize("key,wrong", [("dim", 14), ("algebra", "sp(1,1)")])
def test_from_json_checks_the_dim_and_the_algebra(session, key, wrong):
    value = kernel(session, "sp_w", 1, 1, 1)
    assert value.rows_json()[key] != wrong
    with pytest.raises(ValueError, match="labelled"):
        CurvatureSpace.from_json(value.algebra, {**value.rows_json(), key: wrong})


def double_the_lead(rows):
    rows[0][0][1] = "2"


def swap_two_rows(rows):
    rows[0], rows[1] = rows[1], rows[0]


def duplicate_a_row(rows):
    rows[1] = [list(pair) for pair in rows[0]]


def fill_another_lead(rows):
    rows[0] = sorted([*rows[0], [rows[1][0][0], "1"]])


def zero_a_row(rows):
    rows[0] = []


@pytest.mark.parametrize("tamper", [double_the_lead, swap_two_rows, duplicate_a_row,
                                    fill_another_lead, zero_a_row])
def test_rows_that_are_not_canonical_are_refused(session, space111, tmp_path,
                                                 capsys, tamper):
    value = kernel(session, "sp_w", 1, 1, 1)
    data = json.loads(json.dumps(value.rows_json()))
    tamper(data["rows"])
    with pytest.raises(ValueError, match=r"^row \d"):
        CurvatureSpace.from_json(value.algebra, data)
    cache_put(tmp_path, space111, "sp_w", value)
    (entry,) = tmp_path.iterdir()
    stored = json.loads(entry.read_text())
    tamper(stored["curvature_space"]["rows"])
    entry.write_text(json.dumps(stored))
    assert cache_get(tmp_path, space111, "sp_w", value.algebra) is None
    assert "warning: ignoring corrupt cache entry" in capsys.readouterr().err
