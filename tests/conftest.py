import os
from fractions import Fraction

import pytest

from berger_lab.curvature import (CurvatureElement, CurvatureSpace, bivector_pairs,
                                  element_over)
from berger_lab.exactlin import (RealMatrix, Subspace, integer_row, span_of,
                                 sparse_nullspace)
from berger_lab.harness import Session
from berger_lab.prolong import first_prolongation_of, second_prolongation

TIER2 = os.environ.get("BERGER_LAB_TIER2") == "1"

tier2 = pytest.mark.skipif(
    not TIER2, reason="tier-2 configurations, (2,2,2) and larger; set BERGER_LAB_TIER2=1")


def is_normal(v):
    """`v` is an exact scalar in normal form: an int, or a Fraction that is
    not integral.  Rejects floats and integral Fractions alike."""
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def row_dicts(m):
    """The rows of `m` as {column: value} dicts of its nonzeros."""
    rows = [{} for _ in range(m.rows)]
    for k, v in m.nz.items():
        i, j = divmod(k, m.cols)
        rows[i][j] = v
    return rows


def nullspace(m):
    """ker(m) as a canonical subspace, through `sparse_nullspace`."""
    return Subspace(m.cols,
                    sparse_nullspace(map(integer_row, row_dicts(m)), m.cols))


def is_closed(alg):
    """[B_i, B_j] lies in the span of `alg` for all basis pairs."""
    return all(alg.coordinates_of(a.commutator(b)) is not None
               for i, a in enumerate(alg.basis) for b in alg.basis[i + 1:])


def is_metric_skew(alg):
    """eta*B + B^t*eta = 0 for every basis element B of `alg`."""
    eta = alg.space.eta
    return all((eta * b + b.transpose() * eta).is_zero() for b in alg.basis)


def second_prolongation_of(g, v):
    """The second prolongation of `g` restricted to the invariant `v`."""
    return second_prolongation(first_prolongation_of(g, v), label=g.name)


def dual_W1(space):
    """The coordinate span of W1, the dual Witt block of W."""
    if space.t == 0:
        raise ValueError("W1 requires t >= 1")
    return span_of([{i: Fraction(1)} for i in space.w1_indices()], space.real_dim)


def value(el, a, b):
    """Reference R(e_a, e_b) as a matrix (antisymmetric in a, b), summed
    from the stored row over the algebra basis."""
    n = el.space.real_dim
    out = {}
    row, sign = el.row_of(a, b)
    basis = el.algebra.basis
    for k, c in row.items():
        c = sign * c
        for pos, v in basis[k].nz.items():
            out[pos] = out.get(pos, 0) + c * v
    return RealMatrix.from_sparse(n, n, out)


def value_column(el, a, b, col):
    """Reference column `col` of R(e_a, e_b) as {row: value}, nonzeros
    only."""
    n = el.space.real_dim
    out = {}
    row, sign = el.row_of(a, b)
    basis = el.algebra.basis
    for k, c in row.items():
        c = sign * c
        for pos, v in basis[k].nz.items():
            d, j = divmod(pos, n)
            if j == col:
                out[d] = out.get(d, 0) + c * v
    return {d: v for d, v in out.items() if v}


def reference_bianchi_rows(algebra):
    """Integer equation rows of the first-Bianchi map on Hom(Lambda^2 V, g),
    unknowns bivector-major: R(a,b)e_c + R(b,c)e_a - R(a,c)e_b = 0 on every
    basis triple a < b < c, one row per coordinate.  Read from the basis
    matrices alone, without the metric, and cleared row by row."""
    n = algebra.space.real_dim
    dimg = algebra.dim
    biv = {pair: ib for ib, pair in enumerate(bivector_pairs(n))}
    cols = [[] for _ in range(n)]  # cols[c]: (k, row d, B_k[d, c])
    for k, bmat in enumerate(algebra.basis):
        for pos, v in bmat.nz.items():
            d, c = divmod(pos, n)
            cols[c].append((k, d, v))
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                by_coord = {}
                for pair, col, sign in (((a, b), c, 1), ((b, c), a, 1),
                                        ((a, c), b, -1)):
                    base = biv[pair] * dimg
                    for k, d, v in cols[col]:
                        row = by_coord.setdefault(d, {})
                        row[base + k] = row.get(base + k, 0) + sign * v
                for d in sorted(by_coord):
                    row = integer_row(by_coord[d])
                    if row:
                        yield row


def reference_bianchi_kernel(algebra):
    """Canonical RREF rows of the first-Bianchi kernel on Hom(Lambda^2 V, g),
    solved on the flat system; the second computation `bianchi_kernel`
    is checked against."""
    ncols = len(bivector_pairs(algebra.space.real_dim)) * algebra.dim
    return sparse_nullspace(reference_bianchi_rows(algebra), ncols)


def reference_coefficients_over(curvature, target):
    """The curvature space over `target` as the span of each basis tensor's
    image under the embedding, from one elimination: valid for any
    embedding, and the second computation `coefficients_over`'s relabelled
    rows are checked against."""
    vectors = [element_over(el, target) for el in curvature.basis]
    return span_of(vectors, len(bivector_pairs(curvature.space.real_dim)) * target.dim)


def reference_derivative_space(curvature):
    """The second-Bianchi derivative space read tensor by tensor, each
    tensor's three bivector rows per triple: the second computation
    `derivative_space`'s bivector index is checked against.  The tensors
    are those of `flat_vectors`, the ones `derivative_space` reads."""
    n = curvature.space.real_dim
    kdim = curvature.dim
    biv = {pair: ib for ib, pair in enumerate(bivector_pairs(n))}
    tensors = [CurvatureElement(curvature.algebra, vec)
               for vec in curvature.flat_vectors()]

    def rows():
        for x in range(n):
            for y in range(x + 1, n):
                for z in range(y + 1, n):
                    # T(x)(y,z) + T(y)(z,x) + T(z)(x,y), R(z,x) = -R(x,z)
                    terms = ((x, biv[y, z], 1), (y, biv[x, z], -1), (z, biv[x, y], 1))
                    by_k = {}
                    for i, el in enumerate(tensors):
                        for slot, ib, sign in terms:
                            for k, c in el.rows[ib].items():
                                by_k.setdefault(k, {})[slot * kdim + i] = sign * c
                    for k in sorted(by_k):
                        yield integer_row(by_k[k])

    return Subspace(n * kdim, sparse_nullspace(rows(), n * kdim))


def flat_subspace(curvature):
    """The span of a curvature space's tensors in the flat coefficient
    layout, as a canonical subspace: its flat view, re-canonicalised."""
    ncols = len(bivector_pairs(curvature.space.real_dim)) * curvature.algebra.dim
    return span_of(curvature.flat_vectors(), ncols)


def first_rows(curvature, count):
    """The space over `curvature.algebra` of the first `count` canonical
    Sym^2(g) rows of `curvature`, which stay canonical."""
    rows = curvature.coefficient_subspace().sparse_rows()
    return CurvatureSpace(curvature.algebra, rows[:count])


def tensors_built(monkeypatch):
    """A list to which every `CurvatureElement` built from now on, until
    `monkeypatch` is undone, appends its algebra's name."""
    built = []
    real = CurvatureElement.__init__

    def counting(self, algebra, vec):
        built.append(algebra.name)
        real(self, algebra, vec)

    monkeypatch.setattr(CurvatureElement, "__init__", counting)
    return built


def synthetic_element(algebra):
    """A fixed element with scattered coefficients, in general not a
    curvature tensor (see the pair-symmetry tests)."""
    return CurvatureElement(algebra, {
        ib * algebra.dim + k: Fraction((5 * ib + 3 * k) % 7 - 3, 1 + (ib + k) % 2)
        for ib in range(len(bivector_pairs(algebra.space.real_dim)))
        for k in range(algebra.dim)
        if (ib + 2 * k) % 9 == 0 and (5 * ib + 3 * k) % 7 != 3})


# every named algebra at (1,1,1), and those defined at (1,2,1)
SPARSE_CASES = [(name, 1, 1, 1) for name in
                ("sp", "sp_w", "sp1", "glq", "h0", "sp1+sp", "sp1+sp_w")] + [
                (name, 1, 2, 1) for name in
                ("sp", "sp_w", "sp1", "sp1+sp", "sp1+sp_w")]


@pytest.fixture(scope="session")
def session():
    """Shared memoizing session so expensive kernels are computed once."""
    return Session()


@pytest.fixture(scope="session")
def space111(session):
    return session.space(1, 1, 1)


@pytest.fixture(scope="session")
def space121(session):
    return session.space(1, 2, 1)


@pytest.fixture(scope="session")
def space222(session):
    return session.space(2, 2, 2)
