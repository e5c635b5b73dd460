"""Algebraic curvature tensors of type g.

A curvature tensor is a linear map from bivectors to a Lie algebra g
satisfying the cyclic first Bianchi identity; the space of all of them is
computed exactly as a kernel.  Also here: the distinguished tensors R0
(the quaternionic projective model, nonzero scalar) and R1 (the generator
for the h0 block algebra), Ricci and scalar contractions, the natural
g-action on tensors, vanishing checks on degenerate pairs, and the space
of curvature derivatives allowed by the second Bianchi identity.

The algebras of the paper lie in so(V, eta), and `bianchi_kernel` and the
pair symmetry checks refuse, with ValueError, an algebra whose basis holds
a matrix that is not eta-skew.  For g in so(V, eta) every curvature tensor
is pair symmetric, so R(g) is the kernel of Sym^2(g) -> Lambda^4 V*,
S -> sum_kl S_kl omega_k ^ omega_l, omega_k(a, b) = eta(B_k e_a, e_b)
(Berger 1955): dim g (dim g + 1) / 2 unknowns and one equation per 4-set
of basis vectors, in place of C(n, 2) dim g unknowns and n C(n, 3)
equations on Hom(Lambda^2 V, g).  `bianchi_residual_is_zero` still checks
the cyclic identity itself.

Coefficient layout: bivectors (a, b) with a < b are ordered
lexicographically over the realified basis.  A tensor is built from its
flat coefficient vector, bivector-major with key ib * dim g + k for the
coefficient of B_k in R(e_a, e_b), and stored as one row per bivector:
`rows[ib]` maps k to its coefficient, nonzeros only, keys ascending, and
all empty rows share one read-only mapping.  A space of tensors is the
canonical RREF rows of its span in Sym^2(g), the unknown x_kl = S_kl,
k <= l, at column l (l + 1) / 2 + k, and is built from them alone: every
verdict reads those rows.  `CurvatureSpace.flat_vectors` is the one map to
the flat layout, run lazily for what needs tensors: the basis (each
tensor scaled to lead with 1, built when `basis` is first read), pair
symmetry, the derivative space and the dense JSON form, which
re-canonicalises the flat vectors so that it lists the canonical flat
rows.  The cache form is the sparse Sym^2(g) rows; `from_json` checks them
before it keeps them.

Comparisons across algebras read a space over a larger algebra whose basis
holds its algebra's basis in order, as `direct_sum` builds sp(1)+g from g:
`coefficients_over` relabels the columns (k, l) -> (m_k, m_l), which keeps
the rows canonical, so two spaces over one algebra are compared by their
rows, with no elimination.

Every tensor and every space of tensors reads its quaternionic space from
its algebra (`algebra.space`), so no tensor can live on a space other than
its algebra's, and no call takes a space that its algebra already fixes.
A value R(X, Y) is never formed as a matrix: `restrict_check_degenerate`
reads R(p, X) = 0 as an empty stored row, exact because the algebra basis
is independent, and R(X, Y)p as one column through `_columns`.

Integer inner loops: R0, Ricci, the scalar, pair symmetry, the
first-Bianchi equations, the Bianchi residual and `flat_vectors` multiply
and add Python ints only.  eta and the I_alpha are read as signed
permutations (`_signed_permutation`, which raises on anything else; there
is no fallback), the basis columns come from `_columns` times one lcm per
algebra, the 2-forms omega_k from `_pairing_table` on those columns, and a
tensor's rows from `_integer_rows` times one lcm per element; each
canonical row is cleared by `integer_row` before `flat_vectors` maps it,
so pair symmetry and the derivative space read integer vectors and build
no tensor.  A value is divided only where it leaves a function, by
`exactlin.ratio`, so it stays an int when the division is exact: R0's
coordinates are those of the integral 4 R0, divided by 4, a basis tensor
is its integer vector divided by its lead, `ricci` and `scalar` divide by
the product of the two factors, and the residual and symmetry checks,
which are homogeneous, need no division.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from types import MappingProxyType

from .exactlin import (RealMatrix, Subspace, canonical_rows, check_canonical,
                       integer_row, rat_from_str, rat_to_str, ratio,
                       sparse_nullspace)
from .liealg import LieAlgebra
from .quatspace import QuaternionicSpace

__all__ = [
    "CurvatureElement",
    "CurvatureSpace",
    "DegenerateReport",
    "bianchi_kernel",
    "bianchi_residual_is_zero",
    "build_r0",
    "build_r1",
    "ricci",
    "scalar",
    "act",
    "restrict_check_degenerate",
    "derivative_space",
    "pair_symmetry_holds",
    "pair_symmetry_all",
    "coefficients_over",
    "element_over",
    "bivector_pairs",
]


def bivector_pairs(n: int) -> list[tuple[int, int]]:
    """Lexicographic (a, b), a < b, over n basis vectors."""
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


_EMPTY_ROW = MappingProxyType({})


class CurvatureElement:
    """A curvature tensor with values in `algebra`, on `algebra.space`,
    built from its flat coefficient vector {ib * dim g + k: coefficient}; a
    key outside [0, nbiv * dim g) raises ValueError.  `space` is kept as
    a slot, set from the algebra, for the hot `row_of` reads.

    `rows[ib]` is {k: coefficient of algebra basis element k in R(e_a, e_b)}
    for the ib-th bivector (a, b), nonzero coefficients only, keys
    ascending; R(e_b, e_a) = -R(e_a, e_b) by construction.  Each non-empty
    row is built once into a read-only mapping the element owns; all empty
    rows share one."""

    __slots__ = ("space", "algebra", "rows")

    def __init__(self, algebra: LieAlgebra, vec: Mapping):
        space = algebra.space
        dimg = algebra.dim
        nbiv = _bivector_count(space.real_dim)
        keys = sorted(vec)
        if keys and (keys[0] < 0 or keys[-1] >= nbiv * dimg):
            raise ValueError(f"coefficient keys must lie in [0, {nbiv * dimg})")
        by_biv: dict[int, dict] = {}
        for key in keys:
            c = vec[key]
            if c:
                ib, k = divmod(key, dimg)
                by_biv.setdefault(ib, {})[k] = c
        rows = [_EMPTY_ROW] * nbiv
        for ib, row in by_biv.items():
            rows[ib] = MappingProxyType(row)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "rows", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("CurvatureElement is immutable")

    def sparse_vector(self) -> dict:
        dimg = self.algebra.dim
        return {ib * dimg + k: c
                for ib, row in enumerate(self.rows) for k, c in row.items()}

    def row_of(self, a: int, b: int) -> tuple[Mapping, int]:
        """The stored row of the bivector {a, b} and the sign that turns it
        into R(e_a, e_b): 1 if a < b, -1 if a > b, 0 (empty row) if a == b."""
        if a == b:
            return _EMPTY_ROW, 0
        if a < b:
            return self.rows[_biv_index(self.space.real_dim, a, b)], 1
        return self.rows[_biv_index(self.space.real_dim, b, a)], -1

    def is_zero(self) -> bool:
        return not any(self.rows)

    def __eq__(self, other):
        return (isinstance(other, CurvatureElement)
                and self.algebra.name == other.algebra.name
                and self.rows == other.rows)

    def __hash__(self):
        return hash(tuple(tuple(row.items()) for row in self.rows))

    def __repr__(self):
        return f"CurvatureElement(algebra={self.algebra.name!r})"


def _bivector_count(n: int) -> int:
    return n * (n - 1) // 2


def _biv_index(n: int, a: int, b: int) -> int:
    # position of (a, b), a < b, in lexicographic order
    return a * n - a * (a + 1) // 2 + (b - a - 1)


class CurvatureSpace:
    """A space of curvature tensors with values in `algebra`, on
    `algebra.space`, given by the canonical RREF rows of its span in
    Sym^2(g), which it keeps as its coefficient subspace: the unknown
    x_kl = S_kl, k <= l, is column l (l + 1) / 2 + k (`_sym2_unknowns`).
    `dim` is their number.  `flat_vectors` maps the rows to the flat
    layout, and the basis tensors, one per row, are built from it when
    `basis` is first read.  The rows are taken as they are:
    `bianchi_kernel` computes them, and `from_json` checks them first."""

    __slots__ = ("space", "algebra", "dim", "_subspace", "_basis")

    def __init__(self, algebra: LieAlgebra, rows):
        sub = Subspace(_sym2_dim(algebra.dim), rows)
        object.__setattr__(self, "space", algebra.space)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "dim", sub.dim)
        object.__setattr__(self, "_subspace", sub)
        object.__setattr__(self, "_basis", None)

    @property
    def basis(self) -> tuple:
        """The basis tensors, one per canonical row, each its row's flat
        vector scaled so that its first nonzero coefficient is 1, built on
        first read."""
        basis = self._basis
        if basis is None:
            tensors = []
            for vec in self.flat_vectors():
                lead = vec[min(vec)]
                tensors.append(CurvatureElement(
                    self.algebra, {key: ratio(v, lead) for key, v in vec.items()}))
            basis = tuple(tensors)
            object.__setattr__(self, "_basis", basis)
        return basis

    def __setattr__(self, name, value):
        raise AttributeError("CurvatureSpace is immutable")

    def __repr__(self):
        return f"CurvatureSpace(algebra={self.algebra.name!r}, dim={self.dim})"

    def coefficient_subspace(self) -> Subspace:
        """The span of the space in Sym^2(g), by its canonical rows."""
        return self._subspace

    def flat_vectors(self, bivectors=None):
        """Each canonical row's tensor in turn as its flat coefficient vector
        {ib * dim g + k: int}, nonzeros only, times a positive factor of its
        own; only its entries at the bivector indices `bivectors` when they
        are given.  This is the one map from Sym^2(g) to the flat layout:
        R(e_a, e_b) = sum_kl S_kl omega_l(a, b) B_k, so x_kl adds omega_l to
        B_k's coefficient and, for k != l, omega_k to B_l's.  It builds no
        tensor."""
        dimg = self.algebra.dim
        forms = _pairing_table(self.algebra)
        if bivectors is not None:
            forms = [{ib: w for ib, w in form.items() if ib in bivectors}
                     for form in forms]
        unknowns = _sym2_unknowns(dimg)
        for x in self._subspace.sparse_rows():
            vec: dict = {}
            for j, s in integer_row(x).items():
                k, l = unknowns[j]
                for ib, w in forms[l].items():
                    key = ib * dimg + k
                    vec[key] = vec.get(key, 0) + s * w
                if k != l:
                    for ib, w in forms[k].items():
                        key = ib * dimg + l
                        vec[key] = vec.get(key, 0) + s * w
            yield {key: v for key, v in vec.items() if v}

    def to_json(self) -> dict:
        """The dense form `curvature-space --format json` prints: the
        canonical RREF rows of the space's flat vectors, one string per
        (bivector, basis element)."""
        dimg = self.algebra.dim
        basis = []
        for row in canonical_rows(self.flat_vectors()):
            dense = [["0"] * dimg for _ in range(_bivector_count(self.space.real_dim))]
            for key, c in row.items():
                dense[key // dimg][key % dimg] = rat_to_str(c)
            basis.append(dense)
        return {
            "algebra": self.algebra.name,
            "r": self.space.r,
            "s": self.space.s,
            "t": self.space.t,
            "dim": self.dim,
            "basis": basis,
        }

    def rows_json(self) -> dict:
        """The form `from_json` reads: the canonical Sym^2(g) rows, each a
        list of [column, value] pairs, columns ascending."""
        return {"algebra": self.algebra.name, "dim": self.dim,
                "rows": [[[j, rat_to_str(c)] for j, c in row.items()]
                         for row in self._subspace.sparse_rows()]}

    @classmethod
    def from_json(cls, algebra: LieAlgebra, data: dict) -> "CurvatureSpace":
        """The space over `algebra` of the form `rows_json` writes.  Raises
        ValueError unless `data` names `algebra` and as many rows as it
        holds, the columns of each row are ints that increase within
        [0, dim g (dim g + 1) / 2), and the rows are canonical
        (`check_canonical`)."""
        given = data["rows"]
        if (data["algebra"], data["dim"]) != (algebra.name, len(given)):
            raise ValueError(f"{algebra.name} with {len(given)} rows is "
                             f"labelled {data['algebra']!r} of dim {data['dim']!r}")
        ncols = _sym2_dim(algebra.dim)
        rows = []
        for i, pairs in enumerate(given):
            cols = [j for j, _ in pairs]
            if not (all(type(j) is int for j in cols) and cols == sorted(set(cols))
                    and all(0 <= j < ncols for j in cols)):
                raise ValueError(f"row {i}: columns must increase within [0, {ncols})")
            rows.append({j: rat_from_str(v) for j, v in pairs})
        check_canonical(rows)
        return cls(algebra, rows)


def _sym2_dim(dimg: int) -> int:
    return dimg * (dimg + 1) // 2


def _sym2_unknowns(dimg: int) -> list[tuple[int, int]]:
    """(k, l), k <= l, of the unknown x_kl = S_kl = S_lk at each column of
    Sym^2(g): column l (l + 1) / 2 + k."""
    return [(k, l) for l in range(dimg) for k in range(l + 1)]


def _columns(algebra: LieAlgebra) -> tuple[int, list[list]]:
    """(den, cols): cols[c] = [(k, [(row d, value), ...]), ...] holds the
    nonzero entries of column c of each basis element k that has any, k
    ascending, all times den, the lcm of every entry's denominator.  One
    common factor scales the whole Bianchi system, which keeps its kernel;
    a factor per basis element would rescale that element's coefficients
    in every tensor."""
    n = algebra.space.real_dim
    den = lcm(*(v.denominator for bmat in algebra.basis for v in bmat.nz.values()))
    cols = [[] for _ in range(n)]
    for k, bmat in enumerate(algebra.basis):
        by_col: dict[int, list] = {}
        for pos, v in bmat.nz.items():
            d, c = divmod(pos, n)
            by_col.setdefault(c, []).append((d, v.numerator * (den // v.denominator)))
        for c, entries in by_col.items():
            cols[c].append((k, entries))
    return den, cols


def _integer_rows(element: CurvatureElement) -> tuple[int, list[dict]]:
    """(scale, rows): rows[ib] = {k: int} is the element's row ib times
    scale, the lcm of every coefficient's denominator."""
    scale = lcm(*(c.denominator for row in element.rows for c in row.values()))
    return scale, [{k: c.numerator * (scale // c.denominator) for k, c in row.items()}
                   for row in element.rows]


def _signed_permutation(m: RealMatrix) -> dict[int, tuple[int, int]]:
    """{col: (row, +-1)} for a signed permutation matrix such as eta and
    the I_alpha; raises ValueError for a column with more than one entry
    or an entry other than +-1."""
    perm = {}
    for pos, v in m.nz.items():
        row, col = divmod(pos, m.cols)
        if col in perm or v not in (1, -1):
            raise ValueError("expected a signed permutation matrix")
        perm[col] = (row, int(v))
    return perm


def _add_column(out: dict, f: int, row: Mapping, col: list) -> None:
    """out[d] += f * (sum_k row[k] B_k)[d, c] for col = cols[c] of
    `_columns`, over ints when the row is integral."""
    for k, entries in col:
        c = row.get(k)
        if c:
            c *= f
            for d, v in entries:
                out[d] = out.get(d, 0) + c * v


def _wedge_rows(forms: list[dict], n: int, sym_col: list[list[int]]):
    """Integer rows of S -> sum_kl S_kl omega_k ^ omega_l, one per 4-set
    a < b < c < d on which some product is nonzero, 4-sets ascending.  The
    rows are built in one dict and each is handed out and dropped in turn.

    Each 4-set splits into two bivectors in three ways, ab|cd, ac|bd and
    ad|bc, with signs +, -, +.  Every unordered pair {p, q} of disjoint
    bivectors, p before q, is met once, and adds omega_k(p) omega_l(q) for
    every k, l to the column of x_kl, which is S_kl = S_lk: so x_kl, k < l,
    gets omega_k(p) omega_l(q) + omega_l(p) omega_k(q), and x_kk gets
    omega_k(p) omega_k(q), half the wedge's coefficients throughout."""
    by_biv: dict[int, list] = {}
    for k, form in enumerate(forms):
        for ib, v in form.items():
            by_biv.setdefault(ib, []).append((k, v))
    pairs = bivector_pairs(n)
    support = sorted(by_biv)
    rows: dict[int, dict] = {}  # the 4-set a < b < c < d at key abcd in base n
    for i, ip in enumerate(support):
        a, b = pairs[ip]
        terms_p = [(sym_col[k], u) for k, u in by_biv[ip]]
        for iq in support[i + 1:]:
            c, d = pairs[iq]  # a <= c, as p precedes q
            if c == a or c == b or d == b:
                continue
            if b < c:
                key, sign = ((a * n + b) * n + c) * n + d, 1
            elif b < d:
                key, sign = ((a * n + c) * n + b) * n + d, -1
            else:
                key, sign = ((a * n + c) * n + d) * n + b, 1
            row = rows.setdefault(key, {})
            terms_q = by_biv[iq]
            for col_k, u in terms_p:
                su = sign * u
                for l, v in terms_q:
                    j = col_k[l]
                    row[j] = row.get(j, 0) + su * v
    for key in sorted(rows):
        row = {j: v for j, v in rows.pop(key).items() if v}
        if row:
            yield row


def bianchi_kernel(algebra: LieAlgebra) -> CurvatureSpace:
    """The space of algebraic curvature tensors with values in `algebra`,
    which must lie in so(V, eta); raises ValueError otherwise.

    Such a tensor is pair symmetric, so it is R(e_a, e_b) = sum_kl S_kl
    omega_l(a, b) B_k for a symmetric S, omega_l(a, b) = eta(B_l e_a, e_b),
    and the first Bianchi identity is sum_kl S_kl omega_k ^ omega_l = 0:
    R(g) is the kernel of Sym^2(g) -> Lambda^4 V*, solved on the unknowns
    x_kl = S_kl, k <= l, with one row per 4-set.  `sparse_nullspace`
    returns its canonical RREF rows, which are the space."""
    dimg = algebra.dim
    # x_kl = x_lk is column l (l + 1) / 2 + k for k <= l
    sym_col = [[l * (l + 1) // 2 + k if k <= l else k * (k + 1) // 2 + l
                for l in range(dimg)] for k in range(dimg)]
    rows = _wedge_rows(_pairing_table(algebra), algebra.space.real_dim, sym_col)
    return CurvatureSpace(algebra, sparse_nullspace(rows, _sym2_dim(dimg)))


def bianchi_residual_is_zero(element) -> bool:
    """R(a,b)e_c + R(b,c)e_a + R(c,a)e_b = 0 on every basis triple, summed
    over ints from the integer basis columns and the element's integer
    rows (each scaled by one common factor)."""
    n = element.space.real_dim
    _, cols = _columns(element.algebra)
    _, rows = _integer_rows(element)
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                out: dict = {}
                # R(c,a) = -R(a,c)
                for pair, col, sign in (((a, b), c, 1), ((b, c), a, 1),
                                        ((a, c), b, -1)):
                    _add_column(out, sign, rows[_biv_index(n, *pair)],
                                cols[col])
                if any(out.values()):
                    return False
    return True


# ---------------------------------------------------------------------------
# the model tensor R0 and the h0 generator R1
# ---------------------------------------------------------------------------

def _wedge_matrix(n: int, eta: dict, u: dict, v: dict) -> dict:
    """(u ^ v) Z = eta(v, Z) u - eta(u, Z) v, as {row * n + col: value},
    for sparse vectors u and v and eta given by `_signed_permutation` (ints
    give ints).

    This orientation of the wedge is the unique one under which the model
    tensor below satisfies the first Bianchi identity (the opposite sign
    fails; see the conformance tests).
    """
    out = {}
    # u (eta v)^t - v (eta u)^t, over the nonzeros of both factors
    for x, y, sign in ((u, v, 1), (v, u, -1)):
        for j, yj in y.items():
            z, e = eta[j]
            f = sign * e * yj
            for d, xd in x.items():
                out[d * n + z] = out.get(d * n + z, 0) + f * xd
    return out


def _r0_values(space: QuaternionicSpace, pairs):
    """R0(e_a, e_b) for each (a, b) in `pairs`, the value on (e_a, e_b) of
    the curvature tensor of the quaternionic projective model:

        R0(X, Y) = 1/2 sum_a eta(X, I_a Y) I_a
                   + 1/4 (X ^ Y + sum_a I_a X ^ I_a Y)

    yielded as the integral matrix 4 R0(e_a, e_b), built over ints from the
    signed permutations eta and I_alpha, read once."""
    n = space.real_dim
    eta = _signed_permutation(space.eta)
    structure = [_signed_permutation(ialpha) for ialpha in space.I]
    for a, b in pairs:
        out = _wedge_matrix(n, eta, {a: 1}, {b: 1})
        for perm in structure:
            (da, va), (db, vb) = perm[a], perm[b]
            # 4 * 1/2 eta(e_a, I_alpha e_b) = 2 vb eta[a, db]
            row, e = eta[db]
            if row == a:
                coef = 2 * vb * e
                for col, (d, v) in perm.items():
                    out[d * n + col] = out.get(d * n + col, 0) + coef * v
            for pos, v in _wedge_matrix(n, eta, {da: va}, {db: vb}).items():
                out[pos] = out.get(pos, 0) + v
        yield RealMatrix.from_sparse(n, n, out)


def build_r0(algebra: LieAlgebra) -> CurvatureElement:
    """R0 on `algebra.space`, expressed over the basis of `algebra`, which
    must contain its values (sp(1) + sp(r, s) does); `coordinates_of` is
    linear, so it reads 4 R0 over ints and each coordinate is divided by 4."""
    space = algebra.space
    dimg = algebra.dim
    vec = {}
    for ib, value in enumerate(_r0_values(space, bivector_pairs(space.real_dim))):
        coords = algebra.coordinates_of(value)
        if coords is None:
            raise ValueError("R0 value escapes the algebra span")
        vec.update((ib * dimg + k, ratio(c.numerator, 4 * c.denominator))
                   for k, c in coords.items())
    return CurvatureElement(algebra, vec)


def build_r1(curvature: CurvatureSpace) -> CurvatureElement:
    """The generator of `curvature`, the 1-dimensional curvature space of
    h0, normalized so its first nonzero coefficient (canonical ordering)
    equals 1."""
    if curvature.dim != 1:
        raise ValueError(
            f"unexpected curvature space dimension {curvature.dim} for h0")
    return curvature.basis[0]  # each basis tensor leads with 1


# ---------------------------------------------------------------------------
# contractions
# ---------------------------------------------------------------------------

def _integer_ricci(element: CurvatureElement) -> tuple[int, dict]:
    """(den, ric): Ric(Y, Z) = ric[Y * n + Z] / den, ric over ints."""
    n = element.space.real_dim
    den, cols = _columns(element.algebra)
    scale, rows = _integer_rows(element)
    ric = {}
    for (a, b), row in zip(bivector_pairs(n), rows):
        if not row:
            continue
        # R(e_a, e_b) adds its row a to Ric row b and -(row b) to Ric row a
        for z, col in enumerate(cols):
            value = {}
            _add_column(value, 1, row, col)
            if a in value:
                ric[b * n + z] = ric.get(b * n + z, 0) + value[a]
            if b in value:
                ric[a * n + z] = ric.get(a * n + z, 0) - value[b]
    return den * scale, ric


def ricci(element: CurvatureElement) -> RealMatrix:
    """Ric(Y, Z) = trace(X -> R(X, Y) Z)."""
    n = element.space.real_dim
    den, ric = _integer_ricci(element)
    return RealMatrix.from_sparse(n, n, {pos: ratio(v, den)
                                         for pos, v in ric.items() if v})


def scalar(element: CurvatureElement) -> int | Fraction:
    """Trace of the Ricci tensor raised by the inverse metric.

    In the Witt basis eta is a signed permutation matrix with eta*eta = 1,
    so eta is its own inverse and raises the index directly."""
    n = element.space.real_dim
    den, ric = _integer_ricci(element)
    # eta[b, c] = e for each column c
    total = sum(e * ric.get(c * n + b, 0)
                for c, (b, e) in _signed_permutation(element.space.eta).items())
    return ratio(total, den)


# ---------------------------------------------------------------------------
# the algebra action on curvature tensors
# ---------------------------------------------------------------------------

def act(a_mat: RealMatrix, element: CurvatureElement) -> CurvatureElement:
    """(A . R)(X, Y) = [A, R(X, Y)] - R(AX, Y) - R(X, AY) on basis bivectors.

    Requires [A, B_k] to stay in the element's algebra (true whenever A
    belongs to it, or more generally normalizes it).
    """
    algebra = element.algebra
    n = element.space.real_dim
    ad_a = []
    for bmat in algebra.basis:
        coords = algebra.coordinates_of(a_mat.commutator(bmat))
        if coords is None:
            raise ValueError("bracket with A leaves the algebra span")
        ad_a.append(coords)
    a_cols = [{} for _ in range(n)]
    for pos, v in a_mat.nz.items():
        d, col = divmod(pos, n)
        a_cols[col][d] = v

    def subtract(acc, f, row):
        for k, c in row.items():
            acc[k] = acc.get(k, 0) - f * c

    dimg = algebra.dim
    vec = {}
    for ib, (a, b) in enumerate(bivector_pairs(n)):
        acc: dict = {}
        for k, c in element.rows[ib].items():
            for k2, v in ad_a[k].items():
                acc[k2] = acc.get(k2, 0) + c * v
        for d, coef in a_cols[a].items():  # R(A e_a, e_b)
            row, sign = element.row_of(d, b)
            subtract(acc, coef * sign, row)
        for d, coef in a_cols[b].items():  # R(e_a, A e_b)
            row, sign = element.row_of(a, d)
            subtract(acc, coef * sign, row)
        vec.update((ib * dimg + k, c) for k, c in acc.items())
    return CurvatureElement(algebra, vec)


# ---------------------------------------------------------------------------
# degenerate-pair vanishing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegenerateReport:
    """Outcome of the vanishing checks R(p, X) = 0 and R(X, Y)|_W = 0 for
    p in W and X, Y in the non-degenerate complement E."""

    status: str  # "pass" | "fail" | "vacuous"
    checked_elements: int = 0
    witnesses: tuple = ()


def restrict_check_degenerate(curvature: CurvatureSpace) -> DegenerateReport:
    """R(p, X) = 0 holds iff the stored row of (p, X) is empty, because the
    algebra basis is independent; R(X, Y)p is one column of the value, read
    through `_columns`."""
    space = curvature.space
    if space.t < 1:
        raise ValueError("degenerate-pair check requires t >= 1")
    w_idx = list(space.w_indices())
    e_idx = list(space.e_indices())
    if not e_idx:
        return DegenerateReport(status="vacuous", checked_elements=curvature.dim)
    n = space.real_dim
    _, cols = _columns(curvature.algebra)
    witnesses = []
    for i, el in enumerate(curvature.basis):
        for p in w_idx:
            for x in e_idx:
                if el.row_of(p, x)[0]:
                    witnesses.append((i, "R(p,X) != 0", (p, x)))
        for x in e_idx:
            for y in e_idx:
                if x >= y:
                    continue
                row = el.rows[_biv_index(n, x, y)]
                for p in w_idx:
                    column: dict = {}
                    _add_column(column, 1, row, cols[p])
                    if any(column.values()):
                        witnesses.append((i, "R(X,Y)p != 0", (x, y, p)))
    status = "pass" if not witnesses else "fail"
    return DegenerateReport(status=status, checked_elements=curvature.dim,
                            witnesses=tuple(witnesses))


# ---------------------------------------------------------------------------
# second Bianchi: the space of candidate curvature derivatives
# ---------------------------------------------------------------------------

def derivative_space(curvature: CurvatureSpace) -> Subspace:
    """Maps T: R^n -> R(g) with cyclic sum T(X)(Y,Z) + T(Y)(Z,X) + T(Z)(X,Y)
    zero on all basis triples, as a subspace of R^{n * dim R(g)}, over the
    tensors of `flat_vectors`: its dimension does not depend on their
    scale.  They are read once into by_biv[ib] = [(k, row i, coefficient of
    B_k)], so each triple visits only its three bivectors' nonzeros."""
    n = curvature.space.real_dim
    kdim = curvature.dim
    dimg = curvature.algebra.dim
    by_biv: dict[int, list] = {}
    for i, vec in enumerate(curvature.flat_vectors()):
        for key, c in vec.items():
            ib, k = divmod(key, dimg)
            by_biv.setdefault(ib, []).append((k, i, c))

    def rows():
        for x in range(n):
            for y in range(x + 1, n):
                for z in range(y + 1, n):
                    # T(x)(y,z) + T(y)(z,x) + T(z)(x,y), R(z,x) = -R(x,z)
                    by_k: dict[int, dict] = {}
                    for slot, ib, sign in ((x, _biv_index(n, y, z), 1),
                                           (y, _biv_index(n, x, z), -1),
                                           (z, _biv_index(n, x, y), 1)):
                        for k, i, c in by_biv.get(ib, ()):
                            by_k.setdefault(k, {})[slot * kdim + i] = sign * c
                    for k in sorted(by_k):
                        yield integer_row(by_k[k])

    return Subspace(n * kdim, sparse_nullspace(rows(), n * kdim))


# ---------------------------------------------------------------------------
# pair symmetry eta(R(X,Y)Z, U) = eta(R(Z,U)X, Y)
# ---------------------------------------------------------------------------

def _pairing_table(algebra: LieAlgebra) -> list[dict]:
    """table[k] = {biv: eta(B_k e_c, e_d)} over the bivectors (c, d), c < d:
    the 2-form omega_k of B_k, all times the common factor of `_columns`,
    over ints.  A common factor keeps the symmetry of every pairing matrix.
    Raises ValueError unless every B_k is eta-skew, that is, unless
    eta(B_k e_d, e_c) = -eta(B_k e_c, e_d) for all c, d."""
    n = algebra.space.real_dim
    eta = _signed_permutation(algebra.space.eta)
    _, cols = _columns(algebra)
    table = [{} for _ in algebra.basis]
    mirror = [{} for _ in algebra.basis]  # -eta(B_k e_d, e_c), c < d
    diagonal = False
    for c, col in enumerate(cols):
        for k, entries in col:
            for e, v in entries:
                # (eta B_k)[d, c] = eta[d, e] B_k[e, c]; eta permutes the rows,
                # so each (d, c) is met once
                d, s = eta[e]
                if c < d:
                    table[k][_biv_index(n, c, d)] = s * v
                elif d < c:
                    mirror[k][_biv_index(n, d, c)] = -s * v
                else:
                    diagonal = True
    if diagonal or table != mirror:
        raise ValueError(f"{algebra.name} is not in so(V, eta): "
                         "a basis element is not eta-skew")
    return table


def _pair_symmetric(vec: Mapping, dimg: int, table) -> bool:
    # P[ib, jb] = eta(R(pair_ib) e_c, e_d) for pair_jb = (c, d), summed over
    # the nonzeros ib * dim g + k of the cleared flat vector; values in the
    # metric algebra make the full quadruple check equivalent to P symmetric,
    # and clearing scales P by one factor, which keeps its symmetry.
    p: dict[int, dict] = {}
    for key, c in integer_row(vec).items():
        ib, k = divmod(key, dimg)
        acc = p.setdefault(ib, {})
        for jb, v in table[k].items():
            acc[jb] = acc.get(jb, 0) + c * v
    return all(p.get(jb, _EMPTY_ROW).get(ib, 0) == v
               for ib, acc in p.items() for jb, v in acc.items())


def pair_symmetry_holds(element: CurvatureElement) -> bool:
    """Check eta(R(X,Y)Z, U) = eta(R(Z,U)X, Y) on all basis quadruples."""
    return _pair_symmetric(element.sparse_vector(), element.algebra.dim,
                           _pairing_table(element.algebra))


def pair_symmetry_all(curvature: CurvatureSpace) -> bool:
    """Pair symmetry for the tensor of every canonical row, sharing the
    pairing table; reads `flat_vectors` and builds no basis tensor."""
    if curvature.dim == 0:
        return True
    table = _pairing_table(curvature.algebra)
    return all(_pair_symmetric(vec, curvature.algebra.dim, table)
               for vec in curvature.flat_vectors())


# ---------------------------------------------------------------------------
# comparisons across algebras
# ---------------------------------------------------------------------------

def _embedding(algebra: LieAlgebra, target: LieAlgebra) -> list[dict]:
    """Sparse coordinates over `target` of each basis matrix of `algebra`."""
    mapped = []
    for bmat in algebra.basis:
        coords = target.coordinates_of(bmat)
        if coords is None:
            raise ValueError(f"{algebra.name} does not embed in {target.name}")
        mapped.append(coords)
    return mapped


def _over(element: CurvatureElement, mapped: list[dict], dim_t: int) -> dict:
    out: dict = {}
    for ib, row in enumerate(element.rows):
        base = ib * dim_t
        for k, c in row.items():
            for k2, v in mapped[k].items():
                key = base + k2
                nv = out.get(key, 0) + c * v
                if nv:
                    out[key] = nv
                else:
                    del out[key]
    return out


def element_over(element: CurvatureElement, target: LieAlgebra) -> dict:
    """The element's coefficient vector re-expressed over `target`'s basis
    (sparse, bivector-major).  Requires the element's algebra to sit inside
    `target` as a subspace."""
    return _over(element, _embedding(element.algebra, target), target.dim)


def _block_slots(algebra: LieAlgebra, target: LieAlgebra) -> list[int]:
    """m with B_k = target.basis[m[k]] for every basis element B_k of
    `algebra`, m strictly increasing; raises ValueError unless `target`'s
    basis holds `algebra`'s that way."""
    slots = []
    for coords in _embedding(algebra, target):
        m = next(iter(coords), -1)
        if coords != {m: 1} or (slots and m <= slots[-1]):
            raise ValueError(f"the basis of {algebra.name} is not a block of "
                             f"the basis of {target.name}")
        slots.append(m)
    return slots


def coefficients_over(curvature: CurvatureSpace, target: LieAlgebra) -> Subspace:
    """The curvature space as a canonical subspace of Sym^2 of a larger
    algebra `target` (for containment and equality comparisons), with no
    elimination.

    `target`'s basis must hold the curvature algebra's basis, in order, as
    basis elements: a direct-sum summand in its sum (sp(r,s)_W in
    sp(1)+sp(r,s)_W; `direct_sum` concatenates bases), or the algebra
    itself.  Basis element k is then target element m_k, m strictly
    increasing, so the column map (k, l) -> (m_k, m_l) is strictly
    increasing and takes the canonical RREF rows of
    `curvature.coefficient_subspace()` to canonical RREF rows over
    `target`; RREF is unique, so relabelling them is the whole computation.
    Any other target raises ValueError, as does an algebra that does not
    embed (`element_over` re-expresses a single tensor over any embedding)."""
    slots = _block_slots(curvature.algebra, target)
    column = [slots[l] * (slots[l] + 1) // 2 + slots[k]
              for k, l in _sym2_unknowns(curvature.algebra.dim)]
    rows = [{column[j]: c for j, c in row.items()}
            for row in curvature.coefficient_subspace().sparse_rows()]
    return Subspace(_sym2_dim(target.dim), rows)
