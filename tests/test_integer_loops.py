"""The integer inner loops of R0, Ricci, the scalar, the Bianchi residual
and pair symmetry against Fraction references.

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
                                  pair_symmetry_holds, ricci, scalar)
from berger_lab.exactlin import RealMatrix, sparse_nullspace
from berger_lab.liealg import LieAlgebra
from conftest import SPARSE_CASES, is_normal, synthetic_element, value, value_column

# ---------------------------------------------------------------------------
# Fraction references
# ---------------------------------------------------------------------------


def ref_wedge(space, u, v):
    """(u ^ v) Z = eta(v, Z) u - eta(u, Z) v, as {row * n + col: value}."""
    n = space.real_dim
    out = {}
    for x, y, sign in ((u, space.eta.apply(v), 1), (v, space.eta.apply(u), -1)):
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
        coef = sum((space.eta[a, d] * v for d, v in ialpha.apply(eb).items()), 0)
        if coef:
            for pos, v in ialpha.nz.items():
                out[pos] = out.get(pos, 0) + half * coef * v
    for w in (ref_wedge(space, ea, eb),
              *(ref_wedge(space, ialpha.apply(ea), ialpha.apply(eb))
                for ialpha in space.I)):
        for pos, v in w.items():
            out[pos] = out.get(pos, 0) + quarter * v
    return RealMatrix.from_sparse(n, n, out)


def ref_build_r0(algebra):
    space = algebra.space
    vec = {}
    for ib, (a, b) in enumerate(bivector_pairs(space.real_dim)):
        coords = algebra.coordinates_of(ref_r0_value(space, a, b))
        vec.update((ib * algebra.dim + k, c) for k, c in coords.items())
    return CurvatureElement(algebra, vec)


def ref_ricci(element):
    """Ric(Y, Z) = trace(X -> R(X, Y) Z), from the value matrices."""
    n = element.space.real_dim
    ric = {}
    for a, b in bivector_pairs(n):
        for pos, v in value(element, a, b).nz.items():
            d, z = divmod(pos, n)
            if d == a:
                ric[b * n + z] = ric.get(b * n + z, 0) + v
            elif d == b:
                ric[a * n + z] = ric.get(a * n + z, 0) - v
    return RealMatrix.from_sparse(n, n, ric)


def ref_scalar(element):
    ric = ref_ricci(element)
    n = element.space.real_dim
    total = Fraction(0)
    for pos, v in element.space.eta.nz.items():
        b, c = divmod(pos, n)
        total += v * ric[c, b]
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
        for pos, v in (space.eta * bmat).nz.items():
            d, c = divmod(pos, n)
            if c < d:
                row[curv._biv_index(n, c, d)] = v
        table.append(row)
    p = []
    for row in element.rows:
        acc = {}
        for k, c in row.items():
            for jb, v in table[k].items():
                acc[jb] = acc.get(jb, 0) + c * v
        p.append(acc)
    return all(p[j].get(i, 0) == v for i, pi in enumerate(p) for j, v in pi.items())


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
    assert r0 == ref_build_r0(algebra)
    assert all(is_normal(c) for row in r0.rows for c in row.values())
    a, b = 0, space.real_dim - 1
    assert value(r0, a, b) == ref_r0_value(space, a, b)


def assert_matches_references(element):
    ric = ricci(element)
    assert ric == ref_ricci(element)
    assert all(is_normal(v) for v in ric.nz.values())
    scal = scalar(element)
    assert is_normal(scal) and scal == ref_scalar(element)
    assert bianchi_residual_is_zero(element) == ref_residual_is_zero(element)
    assert pair_symmetry_holds(element) == ref_pair_symmetric(element)


@pytest.mark.parametrize("name,r,s,t", SPARSE_CASES)
def test_contractions_residual_and_symmetry_match_the_references(
        session, monkeypatch, name, r, s, t):
    curvature = session.curvature(name, r, s, t)
    for el in curvature.basis:
        assert_matches_references(el)
        assert bianchi_residual_is_zero(el) and pair_symmetry_holds(el)
    assert pair_symmetry_all(curvature)
    synthetic = synthetic_element(curvature.algebra)
    assert_matches_references(synthetic)
    assert not ref_pair_symmetric(synthetic)
    if curvature.dim:
        # every tensor the flat view yields is checked: an asymmetric one
        # after the kernel's first fails the space, where a check of the
        # first alone would pass
        first = next(curvature.flat_vectors())
        monkeypatch.setattr(CurvatureSpace, "flat_vectors", lambda self: iter(
            [first, synthetic.sparse_vector()]))
        assert not pair_symmetry_all(curvature)


def test_bianchi_equation_rows_hold_ints_only(session, space111, monkeypatch):
    # the rows bianchi_kernel hands to the elimination, for an integral
    # basis and for one with non-integer entries
    h0 = session.algebra("h0", 1, 1, 1)
    scaled = LieAlgebra("h0-scaled", space111, [
        b.scaled(Fraction(1, 2 + k % 3)) for k, b in enumerate(h0.basis)])
    seen = []

    def capture(rows, ncols):
        rows = list(rows)
        seen.append(rows)
        return sparse_nullspace(rows, ncols)

    monkeypatch.setattr(curv, "sparse_nullspace", capture)
    for algebra in (session.algebra("sp1+sp_w", 1, 2, 1), h0, scaled):
        curv.bianchi_kernel(algebra)
    assert len(seen) == 3
    for rows in seen:
        assert rows
        assert all(type(v) is int and v for row in rows for v in row.values())


# ---------------------------------------------------------------------------
# a basis with non-integer entries
# ---------------------------------------------------------------------------


def test_r0_over_a_non_integral_basis(session, space111):
    # one common denominator clears the basis; a factor per basis element
    # would weigh the coefficients of those elements differently
    full = session.algebra("sp1+sp", 1, 1, 1)
    scales = {0: Fraction(1, 2), 5: Fraction(1, 3)}
    scaled = LieAlgebra("sp1+sp-scaled", space111, [
        b.scaled(scales.get(k, 1)) for k, b in enumerate(full.basis)])
    r0 = build_r0(scaled)
    assert r0 == ref_build_r0(scaled)
    assert scales.keys() <= {k for row in r0.rows for k in row}
    assert bianchi_residual_is_zero(r0)
    assert pair_symmetry_holds(r0)
    assert scalar(r0) == 32
    assert ricci(r0) == ricci(build_r0(full))
    synthetic = synthetic_element(scaled)
    assert not pair_symmetry_holds(synthetic)
    assert_matches_references(synthetic)


# ---------------------------------------------------------------------------
# the signed-permutation guard
# ---------------------------------------------------------------------------


def test_signed_permutation_rejects_a_column_with_two_entries(space111):
    n = space111.real_dim
    assert curv._signed_permutation(space111.eta)[0] == (n - 4, 1)
    two = RealMatrix.from_sparse(n, n, {0: Fraction(1), n: Fraction(-1)})
    with pytest.raises(ValueError, match="signed permutation"):
        curv._signed_permutation(two)
    for v in (Fraction(1, 2), Fraction(2)):
        with pytest.raises(ValueError, match="signed permutation"):
            curv._signed_permutation(RealMatrix.from_sparse(n, n, {0: v}))
    # no fallback path: R0 refuses a metric that is not a signed permutation
    bad = SimpleNamespace(real_dim=n, eta=two, I=space111.I)
    with pytest.raises(ValueError, match="signed permutation"):
        build_r0(SimpleNamespace(space=bad, dim=1))
