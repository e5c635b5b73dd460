"""The integer inner loops of R0, Ricci, the scalar, the Bianchi residual
and pair symmetry against Fraction references (`ref_ricci` is in conftest).

The references below are the Fraction-valued computations the integer
loops replaced, kept verbatim in method: every product builds a Fraction,
and value matrices come from the reference `value` and `value_column` of
conftest.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from berger_lab import curvature as curv
from berger_lab.curvature import (CurvatureElement, CurvatureSpace,
                                  bianchi_residual_is_zero,
                                  bivector_pairs, build_r0, pair_symmetry_all,
                                  pair_symmetry_holds, scalar)
from berger_lab.exactlin import RealMatrix, signed_permutation, sparse_nullspace
from berger_lab.liealg import LieAlgebra
from conftest import (SPARSE_CASES, apply, basis_tensors, coefficients, element_of, entry,
                      column_scan_residual_is_zero, is_normal, product, ref_ricci,
                      reference_coordinates, scaled,
                      same_tensor, synthetic_element, tier2, value,
                      value_column)

# ---------------------------------------------------------------------------
# Fraction references
# ---------------------------------------------------------------------------


def ref_wedge(space, u, v):
    """(u ^ v) Z = eta(v, Z) u - eta(u, Z) v, as {row * n + col: value}."""
    n = space.real_dim
    out = {}
    for x, y, sign in ((u, apply(space.eta, v), 1), (v, apply(space.eta, u), -1)):
        for d, xd in x.items():
            for z, yz in y.items():
                out[d * n + z] = out.get(d * n + z, 0) + sign * xd * yz
    return out


def ref_r0_value(space, a, b):
    """R0(e_a, e_b) = 1/2 sum eta(e_a, I e_b) I + 1/4 (e_a ^ e_b + sum
    I e_a ^ I e_b), over Fractions."""
    n = space.real_dim
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    ea, eb = {a: 1}, {b: 1}
    out = {}
    for ialpha in space.I:
        coef = sum((entry(space.eta, a, d) * v for d, v in apply(ialpha, eb).items()), 0)
        if coef:
            for pos, v in ialpha.nz.items():
                out[pos] = out.get(pos, 0) + half * coef * v
    for w in (ref_wedge(space, ea, eb),
              *(ref_wedge(space, apply(ialpha, ea), apply(ialpha, eb))
                for ialpha in space.I)):
        for pos, v in w.items():
            out[pos] = out.get(pos, 0) + quarter * v
    return RealMatrix(n, n, out)


def ref_build_r0(algebra):
    space = algebra.space
    rows = {}
    for ib, (a, b) in enumerate(bivector_pairs(space.real_dim)):
        rows[ib] = reference_coordinates(algebra, ref_r0_value(space, a, b))
    return element_of(algebra, rows)


def ref_scalar(element):
    ric = ref_ricci(element)
    n = element.space.real_dim
    total = Fraction(0)
    for pos, v in element.space.eta.nz.items():
        b, c = divmod(pos, n)
        total += v * entry(ric, c, b)
    return total


def ref_residual_is_zero(element):
    n = element.space.real_dim
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                cols = (value_column(element, a, b, c),
                        value_column(element, b, c, a),
                        value_column(element, c, a, b))
                if any(sum(col.get(d, 0) for col in cols)
                       for d in set().union(*cols)):
                    return False
    return True


def ref_pair_symmetric(element):
    """P[i][j] = eta(R(pair_i) e_c, e_d), pair_j = (c, d), is symmetric."""
    space = element.space
    n = space.real_dim
    table = []
    for bmat in element.algebra.basis:
        row = {}
        for pos, v in product(space.eta, bmat).nz.items():
            d, c = divmod(pos, n)
            if c < d:
                row[curv._biv_index(n, c, d)] = v
        table.append(row)
    p = {}
    for ib, row in coefficients(element).items():
        acc = p[ib] = {}
        for k, c in row.items():
            for jb, v in table[k].items():
                acc[jb] = acc.get(jb, 0) + c * v
    return all(p.get(j, {}).get(i, 0) == v for i, pi in p.items() for j, v in pi.items())


# ---------------------------------------------------------------------------
# the integer loops against the references
# ---------------------------------------------------------------------------

SMALL_CONFIGS = [(r, s, t) for r in range(3) for s in range(3) if r + s
                 for t in range(min(r, s) + 1)]


@pytest.mark.parametrize("r,s,t", SMALL_CONFIGS)
def test_build_r0_matches_the_fraction_reference(session, r, s, t):
    space = session.space(r, s, t)
    algebra = session.algebra("sp1+sp", r, s, t)
    r0 = build_r0(algebra)
    assert same_tensor(r0, ref_build_r0(algebra))
    assert all(type(c) is int and c for row in r0.rows.values() for c in row.values())
    assert r0.den % 4 == 0
    a, b = 0, space.real_dim - 1
    assert value(r0, a, b) == ref_r0_value(space, a, b)


def integer_ricci(element):
    """The Ricci tensor `scalar` contracts, from `_integer_ricci`."""
    n = element.space.real_dim
    ric = curv._integer_ricci(element)
    return RealMatrix(n, n, {pos: Fraction(v, element.den) for pos, v in ric.items()})


def assert_matches_references(element):
    assert integer_ricci(element) == ref_ricci(element)
    scal = scalar(element)
    assert is_normal(scal) and scal == ref_scalar(element)
    assert bianchi_residual_is_zero(element) == ref_residual_is_zero(element)
    assert pair_symmetry_holds(element) == ref_pair_symmetric(element)


@pytest.mark.parametrize("name,r,s,t", SPARSE_CASES)
def test_contractions_residual_and_symmetry_match_the_references(
        session, monkeypatch, name, r, s, t):
    curvature = session.curvature(name, r, s, t)
    for el in basis_tensors(curvature):
        assert_matches_references(el)
        assert bianchi_residual_is_zero(el) and pair_symmetry_holds(el)
    assert pair_symmetry_all(curvature)
    synthetic = synthetic_element(curvature.algebra)
    assert_matches_references(synthetic)
    assert not ref_pair_symmetric(synthetic)
    if curvature.dim:
        # every tensor `values` yields is checked: an asymmetric one after
        # the kernel's first fails the space, where a check of the first
        # alone would pass
        first = next(curvature.values())
        monkeypatch.setattr(CurvatureSpace, "values", lambda self: iter(
            [first, synthetic.rows]))
        assert not pair_symmetry_all(curvature)


# ---------------------------------------------------------------------------
# the row-driven residual and Ricci against the column-scan references
# ---------------------------------------------------------------------------


def check_residual_and_ricci(session, name, r, s, t):
    algebra = session.algebra(name, r, s, t)
    elements = [*basis_tensors(session.curvature(name, r, s, t)),
                synthetic_element(algebra)]
    if name == "sp1+sp":
        elements.append(session.r0(r, s, t))
    for el in elements:
        assert bianchi_residual_is_zero(el) == column_scan_residual_is_zero(el)
        assert integer_ricci(el) == ref_ricci(el)
        assert scalar(el) == ref_scalar(el)


@pytest.mark.parametrize("name,r,s,t", SPARSE_CASES)
def test_residual_and_ricci_match_the_column_scan(session, name, r, s, t):
    check_residual_and_ricci(session, name, r, s, t)


@tier2
@pytest.mark.parametrize("name", ["sp", "sp_w", "sp1", "glq", "h0", "sp1+sp",
                                  "sp1+sp_w"])
def test_residual_and_ricci_match_the_column_scan_tier2(session, name):
    check_residual_and_ricci(session, name, 2, 2, 2)


def test_the_residual_sees_one_changed_coefficient_of_r0(session):
    # changing one coefficient of R0 breaks the identity, and the
    # row-driven residual and the column scan both see it
    r0 = session.r0(1, 2, 1)
    assert bianchi_residual_is_zero(r0)
    for ib, row in list(r0.rows.items())[::7]:
        for k in row:
            rows = {jb: dict(other) for jb, other in r0.rows.items()}
            rows[ib][k] += 1
            changed = CurvatureElement(r0.algebra, rows, r0.den)
            assert not bianchi_residual_is_zero(changed)
            assert not column_scan_residual_is_zero(changed)


@pytest.mark.parametrize("r,s,t", [(1, 1, 1), (1, 2, 1), (2, 1, 0)])
def test_scalar_matches_ref_ricci_on_r0_and_a_synthetic_element(session, r, s, t):
    r0 = session.r0(r, s, t)
    synthetic = synthetic_element(r0.algebra)
    for el in (r0, synthetic):
        assert integer_ricci(el) == ref_ricci(el)
        assert scalar(el) == ref_scalar(el)
    m = r + s
    assert scalar(r0) == 4 * m * (m + 2)


def test_bianchi_equation_rows_hold_ints_only(session, space111, monkeypatch):
    # the rows bianchi_kernel hands to the elimination, for registry bases
    # and for one with entries other than +-1
    h0 = session.algebra("h0", 1, 1, 1)
    rescaled = LieAlgebra("h0-scaled", space111, [
        scaled(b, 2 + k % 3) for k, b in enumerate(h0.basis)])
    seen = []

    def capture(rows, ncols):
        rows = list(rows)
        seen.append(rows)
        return sparse_nullspace(rows, ncols)

    monkeypatch.setattr(curv, "sparse_nullspace", capture)
    for algebra in (session.algebra("sp1+sp_w", 1, 2, 1), h0, rescaled):
        curv.bianchi_kernel(algebra)
    assert len(seen) == 3
    for rows in seen:
        assert rows
        assert all(type(v) is int and v for row in rows for v in row.values())


# ---------------------------------------------------------------------------
# a basis with entries other than +-1
# ---------------------------------------------------------------------------


def test_r0_over_a_non_integral_basis(session, space111):
    # a basis with non-integer entries is refused; scaling its elements by
    # positive integers gives an integral basis of the same algebra, over
    # which R0 is the same tensor, each coefficient scaled inversely to its
    # basis element
    full = session.algebra("sp1+sp", 1, 1, 1)
    with pytest.raises(ValueError, match="sp1\\+sp-halved has a non-integral entry"):
        LieAlgebra("sp1+sp-halved", space111, [
            scaled(b, Fraction(1, 2)) if k == 0 else b for k, b in enumerate(full.basis)])
    scales = {0: 2, 5: 3}
    rescaled = LieAlgebra("sp1+sp-scaled", space111, [
        scaled(b, scales.get(k, 1)) for k, b in enumerate(full.basis)])
    r0 = build_r0(rescaled)
    assert same_tensor(r0, ref_build_r0(rescaled))
    assert scales.keys() <= {k for row in r0.rows.values() for k in row}
    assert coefficients(r0) == {
        ib: {k: Fraction(c, scales.get(k, 1)) for k, c in row.items()}
        for ib, row in coefficients(build_r0(full)).items()}
    assert bianchi_residual_is_zero(r0)
    assert pair_symmetry_holds(r0)
    assert scalar(r0) == 32
    assert integer_ricci(r0) == ref_ricci(build_r0(full))
    synthetic = synthetic_element(rescaled)
    assert not pair_symmetry_holds(synthetic)
    assert_matches_references(synthetic)


# ---------------------------------------------------------------------------
# the signed-permutation guard
# ---------------------------------------------------------------------------


def test_signed_permutation_rejects_a_column_with_two_entries(space111):
    n = space111.real_dim
    assert signed_permutation(space111.eta)[0] == (n - 4, 1)
    two = RealMatrix(n, n, {0: Fraction(1), n: Fraction(-1)})
    with pytest.raises(ValueError, match="signed permutation"):
        signed_permutation(two)
    for v in (Fraction(1, 2), Fraction(2)):
        with pytest.raises(ValueError, match="signed permutation"):
            signed_permutation(RealMatrix(n, n, {0: v}))
    # [[1, 1], [0, 0]]: two columns share a row
    with pytest.raises(ValueError, match="signed permutation"):
        signed_permutation(RealMatrix(2, 2, {0: 1, 1: 1}))
    # a zero column is a degenerate direction, not a refusal
    assert signed_permutation(RealMatrix(2, 2, {0: -1})) == {0: (0, -1)}
    # no fallback path: R0 refuses a metric that is not a signed permutation
    bad = SimpleNamespace(real_dim=n, eta=two, I=space111.I)
    with pytest.raises(ValueError, match="signed permutation"):
        build_r0(SimpleNamespace(space=bad, dim=1))
