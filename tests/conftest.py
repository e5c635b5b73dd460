import functools
import os
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from types import MappingProxyType

import pytest

from berger_lab import curvature as curv
from berger_lab.curvature import CurvatureElement, CurvatureSpace, bivector_pairs
from berger_lab.exactlin import (RealMatrix, Subspace, check_canonical, integer_row,
                                 ratio, span_of, sparse_nullspace)
from berger_lab.harness import Session
from berger_lab.prolong import (first_prolongation, restrict_action,
                                second_prolongation)

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


def entry(m, i, j):
    """The entry of the matrix `m` at row i, column j."""
    return m.nz.get(i * m.cols + j, 0)


def apply(m, vec):
    """The matrix-vector product of `m` and a sparse vector {j: value}: the
    nonzero entries {i: value} of the image."""
    if vec and max(vec) >= m.cols:
        raise ValueError("vector exceeds the column count")
    out = {}
    for k, e in m.nz.items():
        i, j = divmod(k, m.cols)
        v = vec.get(j)
        if v:
            out[i] = out.get(i, 0) + e * v
    return {i: v for i, v in out.items() if v}


def dense(rows, cols, entries):
    """The rows x cols matrix of the row-major `entries`, zeros included."""
    entries = list(entries)
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
    return RealMatrix(rows, cols, dict(enumerate(entries)))


def from_rows(rows):
    """The matrix of the dense `rows`, each a sequence of one length."""
    cols = len(rows[0]) if rows else 0
    if any(len(row) != cols for row in rows):
        raise ValueError("ragged rows")
    return dense(len(rows), cols, [x for row in rows for x in row])


def identity(n):
    return RealMatrix(n, n, {i * n + i: 1 for i in range(n)})


def plus(first, *rest):
    """The sum of matrices of one shape."""
    out = dict(first.nz)
    for m in rest:
        if (m.rows, m.cols) != (first.rows, first.cols):
            raise ValueError("shape mismatch")
        for k, v in m.nz.items():
            out[k] = out.get(k, 0) + v
    return RealMatrix(first.rows, first.cols, out)


def scaled(m, c):
    """The matrix c m."""
    return RealMatrix(m.rows, m.cols, {k: c * v for k, v in m.nz.items()})


def minus(a, b):
    """The difference a - b of two matrices."""
    return plus(a, scaled(b, -1))


def product(first, *rest):
    """The matrix product of the factors, left to right: each nonzero
    a[i, t] joins the nonzeros of row t of the next factor."""
    out = first
    for b in rest:
        if out.cols != b.rows:
            raise ValueError("shape mismatch for matrix product")
        b_rows = {}
        for pos, w in b.nz.items():
            t, j = divmod(pos, b.cols)
            b_rows.setdefault(t, []).append((j, w))
        nz = {}
        for pos, v in out.nz.items():
            i, t = divmod(pos, out.cols)
            for j, w in b_rows.get(t, ()):
                nz[i * b.cols + j] = nz.get(i * b.cols + j, 0) + v * w
        out = RealMatrix(out.rows, b.cols, nz)
    return out


def transpose(m):
    return RealMatrix(m.cols, m.rows, {
        (k % m.cols) * m.rows + k // m.cols: v for k, v in m.nz.items()})


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


def leading_one(rows):
    """Each sparse row divided by its lead, keys ascending: the leading-1
    RREF rows of canonical rows, the form the cache writes."""
    return [{k: ratio(v, row[min(row)]) for k, v in sorted(row.items())}
            for row in rows]


def assert_canonical(rows):
    """`rows` are canonical rows: ints, keys ascending, gcd 1 and positive
    at their lead, and divided by their leads they are the canonical RREF
    rows `check_canonical` accepts."""
    for row in rows:
        assert all(type(v) is int for v in row.values()) and list(row) == sorted(row)
        assert gcd(*row.values()) == 1 and row[min(row)] > 0
    check_canonical(leading_one(rows))


def textbook_kernel(rows, ncols):
    """The canonical RREF basis of the kernel of the sparse rows over
    [0, ncols), by Fraction Gauss-Jordan alone: the free-column basis read
    off `textbook_rref`, brought to its own RREF by `textbook_rref`."""
    red, piv = textbook_rref([[row.get(j, 0) for j in range(ncols)] for row in rows])
    basis = []
    for f in range(ncols):
        if f not in piv:
            vec = [0] * ncols
            vec[f] = 1
            for i, c in enumerate(piv):
                vec[c] = -red[i][f]
            basis.append(vec)
    red, piv = textbook_rref(basis)
    return [{j: x for j, x in enumerate(r) if x} for r in red[:len(piv)]]


def nullspace(m):
    """ker(m) as a canonical subspace, through `sparse_nullspace`."""
    return Subspace(m.cols,
                    sparse_nullspace(map(integer_row, row_dicts(m)), m.cols))


def commutator(a, b):
    """[a, b] = a b - b a, from two matrix products."""
    return minus(product(a, b), product(b, a))


@functools.cache
def augmented_span(alg):
    """Canonical span of the rows flatten(B_k) + e_{n^2+k}, kept per algebra.
    Reducing a flattened matrix against it leaves minus its coordinates in
    the e-part.  Raises "linearly dependent" if a row leads in the e-part."""
    n2 = alg.space.real_dim ** 2
    aug = span_of(({**b.nz, n2 + k: 1} for k, b in enumerate(alg.basis)),
                  n2 + alg.dim)
    rows = aug.sparse_rows()
    if rows and min(rows[-1]) >= n2:
        raise ValueError(f"basis of {alg.name} is linearly dependent")
    return aug


def coordinates_of(algebra, m):
    """The nonzero coefficients {k: c} of `m` over `algebra`'s basis, keys
    ascending, in normal form, or None if `m` is outside the span:
    `LieAlgebra.integer_coordinates` of m's entries over one common
    denominator, divided once."""
    den_m = lcm(*(v.denominator for v in m.nz.values()))
    hit = algebra.integer_coordinates({pos: v.numerator * (den_m // v.denominator)
                                       for pos, v in m.nz.items()})
    if hit is None:
        return None
    den, coords = hit
    return {k: ratio(c, den * den_m) for k, c in coords.items()}


def reference_coordinates(alg, m):
    """The nonzero coordinates {k: c} of `m` over `alg`'s basis, keys
    ascending, or None if `m` is outside the span: one elimination over
    the n^2 + dim columns of the augmented span, independent of the Gram
    table behind `LieAlgebra.integer_coordinates`."""
    n2 = alg.space.real_dim ** 2
    rest = augmented_span(alg).reduce_vector(m.nz)
    if rest and min(rest) < n2:
        return None
    return {k - n2: -c for k, c in sorted(rest.items())}


def is_closed(alg):
    """[B_i, B_j] lies in the span of `alg` for all basis pairs, read by
    `reference_coordinates`."""
    return all(reference_coordinates(alg, commutator(a, b)) is not None
               for i, a in enumerate(alg.basis) for b in alg.basis[i + 1:])


def is_metric_skew(alg):
    """eta*B + B^t*eta = 0 for every basis element B of `alg`."""
    eta = alg.space.eta
    return all(not plus(product(eta, b), product(transpose(b), eta)).nz
               for b in alg.basis)


def second_prolongation_of(g, w):
    """The second prolongation of `g` restricted to the coordinates `w`."""
    return second_prolongation(first_prolongation(restrict_action(g, w)))


def subspace_W(space):
    """The coordinate span of W, the isotropic Witt block."""
    if space.t == 0:
        raise ValueError("W requires t >= 1")
    return span_of([{i: Fraction(1)} for i in space.w_indices()], space.real_dim)


def dual_W1(space):
    """The coordinate span of W1, the dual Witt block of W."""
    if space.t == 0:
        raise ValueError("W1 requires t >= 1")
    return span_of([{i: Fraction(1)} for i in space.w1_indices()], space.real_dim)


def maps_into(matrix, sub):
    """True iff `matrix` maps the span of the real basis vectors in `sub`
    into itself: every entry in a `sub` column sits in a `sub` row.  The
    preservation rule that sp(r,s)_W (sub = W) and gl(r,H) (W and W1) are
    checked against."""
    n = matrix.cols
    return all(pos // n in sub for pos in matrix.nz if pos % n in sub)


def flat_span(matrices, n):
    """The span of n x n matrices as a canonical subspace of Q^(n^2)."""
    return span_of([m.nz for m in matrices], n * n)


def reference_restrict_action(g, v):
    """Basis of `g` restricted to the invariant subspace `v`, in v's
    canonical basis coordinates: each image is reduced against v, and its
    coordinates are read off at v's pivot columns.  Raises if some element
    does not preserve v; drops dependent restrictions."""
    rows = v.sparse_rows()
    index = {min(row): i for i, row in enumerate(rows)}
    dv = v.dim
    restricted = []
    span = []
    for b in g.basis:
        nz = {}
        for j, vec in enumerate(rows):
            image = apply(b, vec)
            if not v.contains_vector(image):
                raise ValueError(f"{g.name} does not preserve the subspace")
            for p, x in image.items():
                if p in index:
                    nz[index[p] * dv + j] = x
        if span_of(span + [nz], dv * dv).dim > len(span):
            span.append(nz)
            restricted.append(RealMatrix(dv, dv, nz))
    return restricted


EMPTY_ROW = MappingProxyType({})


def element_of(algebra, coefficients):
    """The element over `algebra` of the rational rows {ib: {k:
    coefficient}}: each coefficient times the lcm of their denominators,
    over that lcm, zeros and empty rows dropped, bivectors and keys
    ascending."""
    den = lcm(*(c.denominator for row in coefficients.values() for c in row.values()))
    rows = {}
    for ib in sorted(coefficients):
        row = {k: int(c * den) for k, c in sorted(coefficients[ib].items()) if c}
        if row:
            rows[ib] = row
    return CurvatureElement(algebra, rows, den)


def coefficients(el):
    """The element's rational rows {ib: {k: coefficient of B_k}}, each
    integer entry over the element's denominator, in normal form."""
    return {ib: {k: ratio(c, el.den) for k, c in row.items()}
            for ib, row in el.rows.items()}


def row_of(el, a, b):
    """The coefficients of the bivector {a, b} of `el` and the sign that
    turns them into R(e_a, e_b): 1 if a < b, -1 if a > b, 0 (empty row) if
    a == b.  A bivector with no stored row reads as the one read-only
    `EMPTY_ROW`."""
    if a == b:
        return EMPTY_ROW, 0
    ib = curv._biv_index(el.space.real_dim, min(a, b), max(a, b))
    sign = 1 if a < b else -1
    if ib not in el.rows:
        return EMPTY_ROW, sign
    return {k: ratio(c, el.den) for k, c in el.rows[ib].items()}, sign


def value(el, a, b):
    """Reference R(e_a, e_b) as a matrix (antisymmetric in a, b), summed
    from the stored row over the algebra basis."""
    n = el.space.real_dim
    out = {}
    row, sign = row_of(el, a, b)
    basis = el.algebra.basis
    for k, c in row.items():
        c = sign * c
        for pos, v in basis[k].nz.items():
            out[pos] = out.get(pos, 0) + c * v
    return RealMatrix(n, n, out)


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
    return RealMatrix(n, n, ric)


def column_scan_residual_is_zero(element):
    """Reference first-Bianchi residual, column by column: for every basis
    triple, column c of R(e_a, e_b) (and likewise for the other two terms)
    is summed over every basis element holding an entry in that column,
    whether or not the row names it, over rationals."""
    n = element.space.real_dim
    cols = [[] for _ in range(n)]  # cols[c]: (k, [(row d, B_k[d, c])])
    for k, bmat in enumerate(element.algebra.basis):
        by_col = {}
        for pos, v in bmat.nz.items():
            d, c = divmod(pos, n)
            by_col.setdefault(c, []).append((d, v))
        for c, entries in by_col.items():
            cols[c].append((k, entries))
    biv = {pair: ib for ib, pair in enumerate(bivector_pairs(n))}
    rows = coefficients(element)
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                out = {}
                # R(c,a) = -R(a,c)
                for pair, col, sign in (((a, b), c, 1), ((b, c), a, 1),
                                        ((a, c), b, -1)):
                    row = rows.get(biv[pair], {})
                    for k, entries in cols[col]:
                        coef = row.get(k)
                        if coef:
                            for d, v in entries:
                                out[d] = out.get(d, 0) + sign * coef * v
                if any(out.values()):
                    return False
    return True


def dense_scan_prolongation_rows(action):
    """Reference rows of the first-prolongation system S(x) e_y = S(y) e_x,
    read entry by entry: mat[d, y] and mat[d, x] of every map for every
    x < y and every coordinate d, nonempty rows only, unknown x * dim + k."""
    du, dv, dg = action[0].rows, action[0].cols, len(action)
    for x in range(dv):
        for y in range(x + 1, dv):
            for d in range(du):
                row = {}
                for k, mat in enumerate(action):
                    cy = entry(mat, d, y)
                    if cy:
                        row[x * dg + k] = row.get(x * dg + k, 0) + cy
                    cx = entry(mat, d, x)
                    if cx:
                        row[y * dg + k] = row.get(y * dg + k, 0) - cx
                if row:
                    yield row


def dense_scan_prolongation(action):
    """The canonical kernel rows of the dense-scan reference system."""
    rows = map(integer_row, dense_scan_prolongation_rows(action))
    return sparse_nullspace(filter(None, rows), action[0].cols * len(action))


def value_column(el, a, b, col):
    """Reference column `col` of R(e_a, e_b) as {row: value}, nonzeros
    only."""
    n = el.space.real_dim
    out = {}
    row, sign = row_of(el, a, b)
    basis = el.algebra.basis
    for k, c in row.items():
        c = sign * c
        for pos, v in basis[k].nz.items():
            d, j = divmod(pos, n)
            if j == col:
                out[d] = out.get(d, 0) + c * v
    return {d: v for d, v in out.items() if v}


def same_tensor(x, y):
    """Two curvature tensors agree: the same algebra name and coefficients,
    whatever their denominators."""
    return x.algebra.name == y.algebra.name and coefficients(x) == coefficients(y)


def flat_vector(el):
    """The element's flat coefficient vector {ib * dim g + k: coefficient},
    the reference layout of `from_flat`."""
    dimg = el.algebra.dim
    return {ib * dimg + k: c for ib, row in coefficients(el).items()
            for k, c in row.items()}


def from_flat(algebra, vec):
    """The element over `algebra` of the flat coefficient vector
    {ib * dim g + k: coefficient}, bivector-major: the reference layout,
    split into rows by bivector (`element_of`)."""
    rows = {}
    for key, c in vec.items():
        ib, k = divmod(key, algebra.dim)
        rows.setdefault(ib, {})[k] = c
    return element_of(algebra, rows)


def flat_vectors(curvature):
    """Each canonical row's tensor from `values` in the flat layout, in
    turn, with the factor `values` gives it."""
    dimg = curvature.algebra.dim
    for tensor in curvature.values():
        yield {ib * dimg + k: c for ib, row in tensor.items() for k, c in row.items()}


def basis_tensors(curvature):
    """The reference tensors of a space, one per canonical row: the row's
    flat vector scaled so that its first nonzero coefficient is 1."""
    tensors = []
    for vec in flat_vectors(curvature):
        lead = vec[min(vec)]
        tensors.append(from_flat(
            curvature.algebra, {key: ratio(v, lead) for key, v in vec.items()}))
    return tuple(tensors)


def reference_values(algebra, x):
    """The tensor of the Sym^2(g) row `x` as {ib: {k: coefficient}},
    nonzero rows and entries only: R(e_a, e_b) = sum_kl S_kl omega_l(a, b)
    B_k with S_kl = S_lk the entry of `x` at column l (l + 1) / 2 + k,
    k <= l, and omega_l(a, b) = eta(B_l e_a, e_b) = (eta B_l)[b, a] read
    from the matrix product, over rationals."""
    n = algebra.space.real_dim
    biv = {pair: ib for ib, pair in enumerate(bivector_pairs(n))}
    omega = []
    for bmat in algebra.basis:
        form = product(algebra.space.eta, bmat)
        omega.append({biv[a, b]: w for a, b in biv if (w := entry(form, b, a))})
    unknowns = [(k, l) for l in range(algebra.dim) for k in range(l + 1)]
    out = {}
    for j, c in x.items():
        k, l = unknowns[j]
        for m, form in ((k, omega[l]), (l, omega[k]))[:1 + (k != l)]:
            for ib, w in form.items():
                row = out.setdefault(ib, {})
                row[m] = row.get(m, 0) + c * w
    rows = {ib: {k: c for k, c in row.items() if c} for ib, row in out.items()}
    return {ib: row for ib, row in rows.items() if row}


def tensor_of(algebra, x):
    """The element over `algebra` of the Sym^2(g) row `x`, exact: its
    `reference_values` over the lcm of their denominators."""
    return element_of(algebra, reference_values(algebra, x))


def element_over(el, target):
    """The element's flat coefficient vector re-expressed over `target`'s
    basis, for any algebra that embeds in `target` as a subspace, from the
    coordinates of its basis matrices."""
    mapped = [reference_coordinates(target, bmat) for bmat in el.algebra.basis]
    if any(coords is None for coords in mapped):
        raise ValueError(f"{el.algebra.name} does not embed in {target.name}")
    out = {}
    for ib, row in coefficients(el).items():
        for k, c in row.items():
            for k2, v in mapped[k].items():
                key = ib * target.dim + k2
                out[key] = out.get(key, 0) + c * v
    return {key: c for key, c in out.items() if c}


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


def reference_wedge_rows(algebra):
    """The first-Bianchi rows on Sym^2(g), 4-set by 4-set, 4-sets ascending,
    zero rows included, as ((a, b, c, d), row): each 4-set sums its three
    splittings ab|cd, ac|bd and ad|bc with signs +, -, +, and a splitting
    p|q adds omega_k(p) omega_l(q) to the column of x_kl for every k, l,
    read straight from `_pairing_table`, indexed by bivector so that each
    splitting visits only the forms nonzero at p and at q: the second
    computation the streamed rows of `_bianchi_rows` are checked against."""
    n = algebra.space.real_dim
    biv = {pair: ib for ib, pair in enumerate(bivector_pairs(n))}
    at = {}  # bivector -> [(k, omega_k there)] over the forms nonzero there
    for k, form in enumerate(curv._pairing_table(algebra)):
        for ib, v in form.items():
            at.setdefault(ib, []).append((k, v))
    for quad in combinations(range(n), 4):
        a, b, c, d = quad
        row = {}
        for p, q, sign in (((a, b), (c, d), 1), ((a, c), (b, d), -1),
                           ((a, d), (b, c), 1)):
            for k, u in at.get(biv[p], ()):
                for l, v in at.get(biv[q], ()):
                    j = curv._sym2_col(k, l)
                    row[j] = row.get(j, 0) + sign * u * v
        yield quad, {j: v for j, v in row.items() if v}


def witt_weight(space, vectors):
    """The weight in Z^t of the real basis vectors `vectors` together, read
    from each one's quaternionic index: +e_i for p_i, -e_i for q_i and 0
    for the middle block."""
    t, m = space.t, space.m
    weight = [0] * t
    for x in vectors:
        a = x // 4
        if a < t:
            weight[a] += 1
        elif a >= m - t:
            weight[a - m + t] -= 1
    return weight


def is_orbit_least(quad):
    """The ascending 4-set `quad` is the lexicographically least member of
    its orbit under the structure triple, read from all four images: I_g
    maps the real index x to x XOR g, g < 4."""
    return all(sorted(x ^ g for x in quad) >= list(quad) for g in range(4))


def is_orbit_representative(weight):
    """A weight is its S_t-orbit's representative iff it is sorted
    descending."""
    return weight == sorted(weight, reverse=True)


def structure_characters(algebra):
    """The character of each basis matrix B under conjugation by I1 and I2,
    read from matrix products: bit alpha is set iff I_{alpha+1} B
    I_{alpha+1}^T = -B (each I_alpha is a signed permutation, so its
    transpose is its inverse).  None if some conjugate is neither B nor
    -B."""
    bits = []
    for b in algebra.basis:
        bit = 0
        for alpha, ialpha in enumerate(algebra.space.I[:2]):
            conjugate = product(ialpha, b, transpose(ialpha))
            if conjugate == scaled(b, -1):
                bit |= 1 << alpha
            elif conjugate != b:
                return None
        bits.append(bit)
    return bits


def ungraded_bianchi_kernel(algebra):
    """The first-Bianchi kernel from one elimination of the nonzero rows of
    every 4-set (`reference_wedge_rows`), with no weight blocks, no
    relabelling and no reduction by the structure triple, over all of
    Sym^2(g), and without `_bianchi_rows`."""
    dimg = algebra.dim
    rows = (row for _, row in reference_wedge_rows(algebra) if row)
    return sparse_nullspace(rows, dimg * (dimg + 1) // 2)


def reference_bianchi_kernel(algebra):
    """Canonical rows of the first-Bianchi kernel on Hom(Lambda^2 V, g),
    solved on the flat system; the second computation `bianchi_kernel`
    is checked against."""
    ncols = len(bivector_pairs(algebra.space.real_dim)) * algebra.dim
    return sparse_nullspace(reference_bianchi_rows(algebra), ncols)


def reference_coefficients_over(curvature, target):
    """The curvature space over `target` as the span of each basis tensor's
    image under the embedding, from one elimination: valid for any
    embedding, and the second computation `coefficients_over`'s relabelled
    rows are checked against."""
    vectors = [element_over(el, target) for el in basis_tensors(curvature)]
    return span_of(vectors, len(bivector_pairs(curvature.space.real_dim)) * target.dim)


def reference_derivative_space(curvature):
    """The second-Bianchi derivative space read tensor by tensor, each
    tensor's three bivector rows per triple: the second computation
    `derivative_space`'s bivector index is checked against.  The tensors
    are those of `values`, the ones `derivative_space` reads."""
    n = curvature.space.real_dim
    kdim = curvature.dim
    biv = {pair: ib for ib, pair in enumerate(bivector_pairs(n))}
    tensors = [coefficients(from_flat(curvature.algebra, vec))
               for vec in flat_vectors(curvature)]

    def rows():
        for x in range(n):
            for y in range(x + 1, n):
                for z in range(y + 1, n):
                    # T(x)(y,z) + T(y)(z,x) + T(z)(x,y), R(z,x) = -R(x,z)
                    terms = ((x, biv[y, z], 1), (y, biv[x, z], -1), (z, biv[x, y], 1))
                    by_k = {}
                    for i, tensor in enumerate(tensors):
                        for slot, ib, sign in terms:
                            for k, c in tensor.get(ib, {}).items():
                                by_k.setdefault(k, {})[slot * kdim + i] = sign * c
                    for k in sorted(by_k):
                        yield integer_row(by_k[k])

    return Subspace(n * kdim, sparse_nullspace(rows(), n * kdim))


def flat_subspace(curvature):
    """The span of a curvature space's tensors in the flat coefficient
    layout, as a canonical subspace: its flat view, re-canonicalised."""
    ncols = len(bivector_pairs(curvature.space.real_dim)) * curvature.algebra.dim
    return span_of(flat_vectors(curvature), ncols)


def first_rows(curvature, count):
    """The space over `curvature.algebra` of the first `count` canonical
    Sym^2(g) rows of `curvature`, which stay canonical."""
    rows = curvature.coefficient_subspace().sparse_rows()
    return CurvatureSpace(curvature.algebra, rows[:count])


def tensors_built(monkeypatch):
    """A list to which every `CurvatureElement` built from now on, until
    `monkeypatch` is undone, appends its algebra's name."""
    built = []
    real = CurvatureElement.__new__

    def counting(cls, algebra, rows, den=1):
        built.append(algebra.name)
        return real(cls, algebra, rows, den)

    monkeypatch.setattr(CurvatureElement, "__new__", counting)
    return built


def synthetic_element(algebra):
    """A fixed element with scattered coefficients, in general not a
    curvature tensor (see the pair-symmetry tests)."""
    return from_flat(algebra, {
        ib * algebra.dim + k: Fraction((5 * ib + 3 * k) % 7 - 3, 1 + (ib + k) % 2)
        for ib in range(len(bivector_pairs(algebra.space.real_dim)))
        for k in range(algebra.dim)
        if (ib + 2 * k) % 9 == 0 and (5 * ib + 3 * k) % 7 != 3})


def synthetic_row(algebra):
    """A fixed Sym^2(g) row with scattered rational entries, columns
    ascending; for every registry algebra it lies outside the Bianchi
    kernel (see the action tests)."""
    ncols = algebra.dim * (algebra.dim + 1) // 2
    return {j: ratio((5 * j) % 7 - 3, 1 + j % 3) for j in range(ncols)
            if j % 2 == 0 and (5 * j) % 7 != 3}


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
