"""Algebraic curvature tensors of type g.

A curvature tensor is a linear map from bivectors to a Lie algebra g
satisfying the cyclic first Bianchi identity; the space of all of them is
computed exactly as a kernel.  Also here: the distinguished tensors R0
(the quaternionic projective model, nonzero scalar) and R1 (the generator
for the h0 block algebra), the scalar curvature, the g-action on
Sym^2(g), A . S = ad_A S + S ad_A^T, which is the natural action on the
tensors (`act`), vanishing checks on degenerate pairs, and the space of
curvature derivatives allowed by the second Bianchi identity.

The algebras of the paper lie in so(V, eta), and `bianchi_kernel` and the
pair symmetry checks refuse, with ValueError, an algebra whose basis holds
a matrix that is not eta-skew.  `bianchi_kernel` also refuses, with
ValueError, a basis without the two symmetries it solves by (below), which
the basis of every registry algebra has: at t >= 2 every basis element
must be a weight vector and every Witt transposition must map the basis to
+- itself, and at any t conjugation by I1 and by I2 must map every basis
element to +- itself.  There is no fallback.  For g in so(V, eta) every
curvature tensor is pair symmetric, so R(g) is the kernel of
Sym^2(g) -> Lambda^4 V*, S -> sum_kl S_kl omega_k ^ omega_l,
omega_k(a, b) = eta(B_k e_a, e_b)
(Berger 1955): dim g (dim g + 1) / 2 unknowns and one equation per 4-set
of basis vectors, in place of C(n, 2) dim g unknowns and n C(n, 3)
equations on Hom(Lambda^2 V, g).  `bianchi_residual_is_zero` still checks
the cyclic identity itself.

The system is solved by weight (Kostant 1961).  A real basis vector in
W_i has the weight +e_i in Z^t, one in W1_i the weight -e_i, and one in E
the weight 0.  Every basis element of every registry algebra is then a
weight vector, and the Bianchi map preserves weight, so the system is
block diagonal, one block per weight of a 4-set.  Permuting the Witt pairs
is an isometry that commutes with the I_alpha and maps each basis element
to +- a basis element, B_k -> eps_k B_pi(k), so R(g) is S_t-invariant:
S'_{pi(k) pi(l)} = eps_k eps_l S_kl.  `bianchi_kernel` generates and
eliminates only the blocks whose weight is sorted descending, its orbit's
representative, and relabels their kernel onto the other blocks of each
orbit.  The blocks have disjoint columns, so the union of their RREF rows
is the RREF of the whole kernel.  At t <= 1 S_t is trivial, and the
whole system is one block.

Within a block the system is also reduced by the structure triple
(Salamon 1982).  I_alpha maps the real index x to x XOR alpha, with signs:
it permutes the four components of each quaternionic coordinate, so it
keeps every weight, and it preserves eta.  Conjugation by I_alpha maps
each basis element to chi_k(alpha) B_k, chi_k(alpha) = +-1, which gives
x_kl the character chi_k chi_l of the Klein group {1, I1, I2, I3}.
The algebra keeps chi_k (`LieAlgebra.characters`), read by one conjugation
pass in `liealg` that compares each conjugated entry with B_k's own entry
at its image, or, for a sum sp(1) + g, laid out by `direct_sum` from the
summands' tables, which its commute check reads; `_weight_blocks` reads
that table and conjugates nothing.  So the
row of the 4-set I_alpha F is +- the row of F with each column scaled by
its character at alpha, and, the four characters being independent, the
rows of the orbit of F span exactly the character components of the row
of F.  So the least member of each orbit, whose smallest index is 0 mod 4,
is read once, its row split by character, and these rows span every row:
the kernel, and so its RREF, is the same.

Coefficient layout: bivectors (a, b) with a < b are ordered
lexicographically over the realified basis, and a tensor is its integer
rows by bivector, {ib: {k: int}} for the ib-th bivector (a, b), nonzero
rows and entries only, over one positive denominator: the coefficient of
B_k in R(e_a, e_b) is rows[ib][k] / den (`CurvatureElement`).  A space
of tensors is the canonical rows of its span in Sym^2(g), the unknown
x_kl = S_kl, k <= l, at column l (l + 1) / 2 + k: integer rows, each the
primitive multiple of an RREF row, positive at its lead (`exactlin`).  It
is built from them alone: every verdict reads those rows, and no space
builds a tensor object.  `CurvatureSpace.values` is the one map out of
Sym^2(g): it yields each row's tensor in that form, for the Berger
closure, the degenerate-pair and restriction checks, R1, pair symmetry and
the derivative space; `act` maps rows to rows and reads no tensor.  The
cache form is the sparse Sym^2(g) rows, each divided by its lead where it
is written, the leading-1 RREF rows; `from_json` checks them and clears
each back to its integer row before it keeps them.

Comparisons across algebras read a space over a larger algebra whose basis
holds its algebra's basis in order, as `direct_sum` builds sp(1)+g from g:
`coefficients_over` relabels the columns (k, l) -> (m_k, m_l), which keeps
the rows canonical, so two spaces over one algebra are compared by their
rows, with no elimination.

Every tensor and every space of tensors reads its quaternionic space from
its algebra (`algebra.space`), so no tensor can live on a space other than
its algebra's, and no call takes a space that its algebra already fixes.
A value R(X, Y) is never formed as a `RealMatrix`: `restrict_check_degenerate`
reads R(p, X) = 0 as an empty row of `values`, exact because the algebra
basis is independent, and R(X, Y)p as column p of the integer value
`_value` evaluates from the row's nonzeros.

Integer inner loops: R0, Ricci, the scalar, pair symmetry, the
first-Bianchi equations, the Bianchi residual, `values` and `act` multiply
and add Python ints only.  eta and the I_alpha are read as signed
permutations by `invertible_permutation`, which raises ValueError on
anything else, a zero column included; there is no fallback.  A basis has
integer entries (`LieAlgebra` refuses any other), so the basis columns of
`_columns` and the 2-forms omega_k of `_pairing_table` are integral as
read, and a tensor is its integer rows over one denominator; the canonical
rows of a space are integer rows, which `values` and `_relabelled_blocks`
map as they are, so every reader of a space takes integer rows and none
clears one.  The algebra keeps its column
and 2-form tables once they are built (`LieAlgebra.kept`), so each is
built once per algebra, however many checks read it; a refusal (a basis
matrix that is not eta-skew) is not kept.  The residual, Ricci and the
degenerate check share `_value`, which evaluates R(e_a, e_b) by column
from the nonzeros of the bivector's row, so a basis element that the row
does not name is never visited.  A value is divided only where it leaves
a function, by `exactlin.ratio`, so it stays an int when the division is
exact, and a tensor is never divided: R0's rows are the integer
coordinates (`LieAlgebra.integer_coordinates`) of the integral 4 R0, over
4 times their denominator, R1 is the tensor of `values` over its lead,
`scalar` divides Ricci's trace by the element's denominator, `act` reads
ad_A as the integer coordinates of the brackets of A times its lcm,
applies it to S times its lcm and divides each entry of the row it
returns by the product of the three denominators, and the residual,
symmetry, closure and vanishing checks, which are homogeneous, need no
division.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from fractions import Fraction
from math import lcm
from operator import add
from types import MappingProxyType
from typing import NamedTuple

from .exactlin import (RealMatrix, Subspace, canonical_rows, check_canonical,
                       integer_row, invertible_permutation, rat_from_str,
                       rat_to_str, ratio, sparse_nullspace)
from .liealg import LieAlgebra, brackets
from .quatspace import QuaternionicSpace

__all__ = [
    "CurvatureElement",
    "CurvatureSpace",
    "DegenerateReport",
    "bianchi_kernel",
    "bianchi_residual_is_zero",
    "build_r0",
    "build_r1",
    "scalar",
    "act",
    "restrict_check_degenerate",
    "derivative_space",
    "pair_symmetry_holds",
    "pair_symmetry_all",
    "coefficients_over",
    "block_slots",
    "bivector_pairs",
]


def bivector_pairs(n: int) -> list[tuple[int, int]]:
    """Lexicographic (a, b), a < b, over n basis vectors."""
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


_EMPTY_ROW = MappingProxyType({})


class CurvatureElement(NamedTuple):
    """A curvature tensor with values in `algebra`, on `algebra.space`:
    R(e_a, e_b) = sum_k (rows[ib][k] / den) B_k for the ib-th bivector
    (a, b).  `rows` are integer rows by bivector, {ib: {k: int}}, nonzero
    rows and entries only, the form `CurvatureSpace.values` yields, over
    one positive denominator `den`.  Every producer builds fresh rows,
    and no reader changes them.  R(e_b, e_a) = -R(e_a, e_b) by
    construction."""

    algebra: LieAlgebra
    rows: dict
    den: int = 1

    @property
    def space(self) -> QuaternionicSpace:
        return self.algebra.space


def _bivector_count(n: int) -> int:
    return n * (n - 1) // 2


def _biv_index(n: int, a: int, b: int) -> int:
    # position of (a, b), a < b, in lexicographic order
    return a * n - a * (a + 1) // 2 + (b - a - 1)


class CurvatureSpace:
    """A space of curvature tensors with values in `algebra`, on
    `algebra.space`, given by the canonical integer rows of its span in
    Sym^2(g) (`exactlin`), which it keeps as its coefficient subspace: the
    unknown x_kl = S_kl, k <= l, is column l (l + 1) / 2 + k (`_sym2_col`).
    `dim` is their number, and `values` reads each row's tensor by
    bivector; no tensor object is built.  The rows are taken as they are:
    `bianchi_kernel` computes them, and `from_json` checks them first."""

    __slots__ = ("space", "algebra", "dim", "_subspace")

    def __init__(self, algebra: LieAlgebra, rows):
        sub = Subspace(_sym2_dim(algebra.dim), rows)
        object.__setattr__(self, "space", algebra.space)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "dim", sub.dim)
        object.__setattr__(self, "_subspace", sub)

    def __setattr__(self, name, value):
        raise AttributeError("CurvatureSpace is immutable")

    def __repr__(self):
        return f"CurvatureSpace(algebra={self.algebra.name!r}, dim={self.dim})"

    def coefficient_subspace(self) -> Subspace:
        """The span of the space in Sym^2(g), by its canonical rows."""
        return self._subspace

    def values(self, bivectors=None):
        """Each canonical row's tensor in turn as {ib: {k: int}}, the
        coefficient of B_k in R(e_a, e_b) for the ib-th bivector (a, b),
        times a positive factor of its own, read from the integer row as it
        is: nonzero rows and entries only,
        bivectors ascending, and only the bivector indices `bivectors` when
        they are given.  This is the one map out of Sym^2(g):
        R(e_a, e_b) = sum_kl S_kl omega_l(a, b) B_k, so x_kl adds omega_l to
        B_k's coefficient and, for k != l, omega_k to B_l's."""
        forms = _pairing_table(self.algebra)
        if bivectors is not None:
            forms = [{ib: w for ib, w in form.items() if ib in bivectors}
                     for form in forms]
        unknowns = _sym2_unknowns(self.algebra.dim)
        for x in self._subspace.sparse_rows():
            tensor: dict[int, dict] = {}
            for j, s in x.items():
                k, l = unknowns[j]
                for ib, w in forms[l].items():
                    row = tensor.setdefault(ib, {})
                    row[k] = row.get(k, 0) + s * w
                if k != l:
                    for ib, w in forms[k].items():
                        row = tensor.setdefault(ib, {})
                        row[l] = row.get(l, 0) + s * w
            rows = ((ib, {k: v for k, v in tensor[ib].items() if v})
                    for ib in sorted(tensor))
            yield {ib: row for ib, row in rows if row}

    def to_json(self) -> dict:
        """The dense form `curvature-space --format json` prints: the
        leading-1 RREF rows of the space's tensors in the flat layout, key
        ib * dim g + k, one string per (bivector, basis element), each
        canonical row divided by its lead where it is written."""
        dimg = self.algebra.dim
        flat = ({ib * dimg + k: v for ib, row in tensor.items() for k, v in row.items()}
                for tensor in self.values())
        basis = []
        for row in canonical_rows(flat):
            dense = [["0"] * dimg for _ in range(_bivector_count(self.space.real_dim))]
            for key, c in _leading_one(row).items():
                dense[key // dimg][key % dimg] = c
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
        """The form `from_json` reads: the canonical Sym^2(g) rows, each
        divided by its lead where it is written, so the leading-1 RREF
        rows, each a list of [column, value] pairs, columns ascending."""
        return {"algebra": self.algebra.name, "dim": self.dim,
                "rows": [[[j, c] for j, c in _leading_one(row).items()]
                         for row in self._subspace.sparse_rows()]}

    @classmethod
    def from_json(cls, algebra: LieAlgebra, data: dict) -> "CurvatureSpace":
        """The space over `algebra` of the form `rows_json` writes.  Raises
        ValueError unless `data` names `algebra` and as many rows as it
        holds, the columns of each row are ints that increase within
        [0, dim g (dim g + 1) / 2), and the rows are leading-1 RREF rows
        (`check_canonical`).  Each checked row is then cleared by
        `integer_row` to the canonical integer row the space keeps."""
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
        return cls(algebra, [integer_row(row) for row in rows])


def _leading_one(row: dict) -> dict:
    """The canonical row `row`, keys ascending, divided by its lead where it
    is written: the leading-1 RREF row, {column: "p/q"}."""
    lead = next(iter(row.values()))
    return {k: rat_to_str(ratio(c, lead)) for k, c in row.items()}


def _sym2_dim(dimg: int) -> int:
    return dimg * (dimg + 1) // 2


def _sym2_col(k: int, l: int) -> int:
    """The column of the unknown x_kl = S_kl = S_lk of Sym^2(g):
    l (l + 1) / 2 + k for k <= l."""
    return l * (l + 1) // 2 + k if k <= l else k * (k + 1) // 2 + l


def _sym2_unknowns(dimg: int) -> list[tuple[int, int]]:
    """(k, l), k <= l, of the unknown at each column of Sym^2(g): column
    l (l + 1) / 2 + k runs over k <= l within each l, l ascending."""
    return [(k, l) for l in range(dimg) for k in range(l + 1)]


def _columns(algebra: LieAlgebra) -> tuple:
    """cols[k] = ((c, ((row d, value), ...)), ...), built once and kept on
    the algebra: the nonzero columns c of basis element k, c ascending,
    with their integer entries."""
    return algebra.kept("_columns", _build_columns)


def _build_columns(algebra: LieAlgebra) -> tuple:
    n = algebra.space.real_dim
    cols = []
    for bmat in algebra.basis:
        by_col: dict[int, list] = {}
        for pos, v in bmat.nz.items():
            d, c = divmod(pos, n)
            by_col.setdefault(c, []).append((d, v))
        cols.append(tuple((c, tuple(by_col[c])) for c in sorted(by_col)))
    return tuple(cols)


def _value(row: Mapping, cols: tuple) -> dict[int, dict]:
    """sum_k row[k] B_k by column, {c: {d: value}}, for cols of `_columns`,
    over ints.  Only the basis elements in the row are visited; an entry
    may cancel to 0."""
    value: dict[int, dict] = {}
    for k, x in row.items():
        for c, entries in cols[k]:
            col = value.setdefault(c, {})
            for d, v in entries:
                col[d] = col.get(d, 0) + x * v
    return value


def _add(u: tuple, v: tuple) -> tuple:
    """The sum of two weights."""
    return tuple(map(add, u, v))


def _is_representative(weight: tuple) -> bool:
    """True iff `weight` is the representative of its S_t-orbit: its
    coordinates sorted descending."""
    return all(x >= y for x, y in zip(weight, weight[1:]))


def _vector_weights(space: QuaternionicSpace) -> list[tuple]:
    """The weight in Z^t of each real basis vector: +e_i in W_i, -e_i in
    W1_i and 0 in E."""
    t, m = space.t, space.m
    weights = []
    for a in range(m):
        w = [0] * t
        if a < t:
            w[a] = 1
        elif a >= m - t:
            w[a - m + t] = -1
        weights += [tuple(w)] * 4
    return weights


def _witt_transpositions(algebra: LieAlgebra) -> list[list]:
    """The signed action on the basis of conjugation by each adjacent
    transposition P of the Witt pairs, (W_i, W1_i) <-> (W_{i+1}, W1_{i+1})
    for i + 1 < t: action[k] = (k', sign) with P B_k P^-1 = sign B_k',
    read by matching basis matrices.  P permutes basis vectors, preserves
    eta and commutes with the I_alpha.  Raises ValueError if some image is
    not +- a basis matrix."""
    space = algebra.space
    n, t, m = space.real_dim, space.t, space.m
    index = {}
    for k, bmat in enumerate(algebra.basis):
        index[frozenset(bmat.nz.items())] = (k, 1)
        index[frozenset((pos, -v) for pos, v in bmat.nz.items())] = (k, -1)
    actions = []
    for i in range(t - 1):
        swap = {i: i + 1, i + 1: i, m - t + i: m - t + i + 1, m - t + i + 1: m - t + i}
        perm = [4 * swap.get(x // 4, x // 4) + x % 4 for x in range(n)]
        action = []
        for k, bmat in enumerate(algebra.basis):
            hit = index.get(frozenset((perm[pos // n] * n + perm[pos % n], v)
                                      for pos, v in bmat.nz.items()))
            if hit is None:
                raise ValueError(f"{algebra.name}: Witt transposition {i} does not "
                                 f"map basis element {k} to +- a basis element")
            action.append(hit)
        actions.append(action)
    return actions


class _Blocks(NamedTuple):
    """The weight blocks of the first-Bianchi system of one algebra."""

    actions: list  # `_witt_transpositions`, [] at t <= 1
    basis_weight: list  # the weight of omega_k, for each basis element k
    column: list  # column[k][l]: the compact column of x_kl, or -1
    kept: list  # the Sym^2(g) column of each compact column, ascending
    character: list  # the character of each compact column


def _weight_blocks(algebra: LieAlgebra) -> _Blocks:
    """The weights of the basis elements, the compact numbering of the
    representative columns and their characters.  Basis element k has the
    weight w_a + w_b shared by every bivector (a, b) of omega_k, and x_kl
    the weight of omega_k ^ omega_l, w_k + w_l.  x_kl has the character
    chi_k chi_l, the bits of chi_k XOR those of chi_l, with chi_k read
    from the algebra's kept table (`LieAlgebra.characters`).

    The grading is used when t >= 2; it raises ValueError unless every
    omega_k has one weight, and `_witt_transpositions` unless every
    transposition maps the basis to +- itself.  At t <= 1 no two weights
    share an orbit, so every basis element gets the empty weight (), every
    column is kept and nothing is relabelled."""
    space = algebra.space
    dimg = algebra.dim
    basis_weight, actions = [()] * dimg, []
    if space.t >= 2:
        weights = _vector_weights(space)
        pairs = bivector_pairs(space.real_dim)
        basis_weight = []
        for k, form in enumerate(_pairing_table(algebra)):
            graded = {_add(weights[a], weights[b]) for a, b in map(pairs.__getitem__, form)}
            if len(graded) != 1:
                raise ValueError(f"{algebra.name}: basis element {k} is not "
                                 "a weight vector of the Witt pairs")
            basis_weight.append(graded.pop())
        actions = _witt_transpositions(algebra)
    distinct = sorted(set(basis_weight))
    cls = [distinct.index(w) for w in basis_weight]
    pair_is_rep = [[_is_representative(_add(u, v)) for v in distinct] for u in distinct]
    column = [[-1] * dimg for _ in range(dimg)]
    kept = []
    for l in range(dimg):
        is_rep = pair_is_rep[cls[l]]
        for k in range(l + 1):  # Sym^2(g) column order
            if is_rep[cls[k]]:
                column[k][l] = column[l][k] = len(kept)
                kept.append(_sym2_col(k, l))
    bits = algebra.characters()
    unknowns = _sym2_unknowns(dimg)
    character = [bits[k] ^ bits[l] for k, l in map(unknowns.__getitem__, kept)]
    return _Blocks(actions, basis_weight, column, kept, character)


def _bianchi_rows(forms: list[dict], n: int, basis_weight: list[tuple],
                  column: list[list[int]], character: list):
    """Integer rows of S -> sum_kl S_kl omega_k ^ omega_l over the columns
    column[k][l] of x_kl, one per 4-set a < b < c < d whose weight is a
    representative and on which some product is nonzero, 4-sets
    ascending.  Only the least member of each orbit of the structure triple
    is read (`_is_orbit_least`, decided once, when the 4-set's row is
    created; a dropped 4-set keeps the read-only empty row), and each row
    is handed out as its components by the `character` of each column, the
    entries of each character in turn, characters ascending.

    The bivectors p of the 2-forms' support fall into classes by weight,
    that of each 2-form omega_k they are in, `basis_weight[k]`, and q is
    looked for only in the classes whose weight adds to p's into a
    representative: a product omega_k(p) omega_l(q) lands in the 4-set of
    weight w(p) + w(q).  Bivectors are met in lexicographic order, and
    a pair p before q adds only to a 4-set whose smallest index is p's
    first one.  So the rows that lead with a are complete once p's first
    index passes a: they are handed out then, sorted, and dropped, and only
    one leading index's rows are alive at a time.  A p whose first index
    is not 0 mod 4 is skipped: the least member of an orbit has its
    smallest index 0 mod 4.

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
    support = []
    classes: dict[tuple, tuple[list, list]] = {}  # weight -> (positions, bivectors)
    for i, ib in enumerate(sorted(by_biv)):
        a, b = pairs[ib]
        weight = basis_weight[by_biv[ib][0][0]]
        support.append((a, b, by_biv[ib], weight))
        positions, members = classes.setdefault(weight, ([], []))
        positions.append(i)
        members.append((a, b, by_biv[ib]))
    partners = {alpha: [classes[beta] for beta in classes
                        if _is_representative(_add(alpha, beta))]
                for alpha in classes}
    rows: dict[int, dict] = {}  # the 4-set lead < x < y < z at key xyz in base n
    lead = None
    for i, (a, b, terms, weight) in enumerate(support):
        if a != lead:
            yield from _complete_rows(rows, character)
            lead = a
        if a % 4:
            continue
        terms_p = [(column[k], u) for k, u in terms]
        for positions, members in partners[weight]:
            for c, d, terms_q in members[bisect_right(positions, i):]:  # q after p
                if c == a or c == b or d == b:
                    continue
                if b < c:
                    x, y, z, sign = b, c, d, 1
                elif b < d:
                    x, y, z, sign = c, b, d, -1
                else:
                    x, y, z, sign = c, d, b, 1
                key = (x * n + y) * n + z
                row = rows.get(key)
                if row is None:
                    row = rows[key] = {} if _is_orbit_least(a, x, y, z) else _EMPTY_ROW
                if row is _EMPTY_ROW:
                    continue
                for col_k, u in terms_p:
                    su = sign * u
                    for l, v in terms_q:
                        j = col_k[l]
                        row[j] = row.get(j, 0) + su * v
    yield from _complete_rows(rows, character)


def _is_orbit_least(a: int, x: int, y: int, z: int) -> bool:
    """True iff the 4-set F = (a, x, y, z), a < x < y < z and a = 0 mod 4,
    is the lexicographically least member of its orbit {F XOR g : g < 4}
    under the structure triple.  An image has smallest index at least a,
    and a only when g = a XOR e for a member e of F in a's quaternionic
    coordinate, so F is least when x is outside it.  Otherwise g = a XOR x
    swaps a and x, and F is least iff sorted(y XOR g, z XOR g) is not
    below (y, z): the image by a XOR y or a XOR z is below F only when
    this one is."""
    if x >> 2 != a >> 2:
        return True
    g = a ^ x
    u, v = y ^ g, z ^ g
    return (u, v) >= (y, z) if u < v else (v, u) >= (y, z)


def _complete_rows(rows: dict[int, dict], character: list):
    """Hand out the nonzero entries of `rows` by ascending key, emptying
    it: each row's nonzero components by ascending `character` of their
    columns.  A dropped 4-set's row is empty and hands out nothing."""
    for key in sorted(rows):
        parts = [{}, {}, {}, {}]
        for j, v in rows.pop(key).items():
            if v:
                parts[character[j]][j] = v
        yield from filter(None, parts)


def _orbit_maps(weight: tuple, actions: list[list], basis: list[int]):
    """For every other weight w' in the S_t-orbit of `weight`, the signed
    action of a permutation taking `weight` to w' on the basis elements
    `basis`: [(k', sign) for each k], composed from the adjacent
    transpositions `actions` along a breadth-first walk of the orbit."""
    reached = {weight: [(k, 1) for k in basis]}
    queue = [weight]
    for nu in queue:
        maps = reached[nu]
        for i, action in enumerate(actions):
            swapped = (*nu[:i], nu[i + 1], nu[i], *nu[i + 2:])
            if swapped not in reached:
                step = []
                for k, sign in maps:
                    k2, sign2 = action[k]
                    step.append((k2, sign * sign2))
                reached[swapped] = step
                queue.append(swapped)
                yield step


def _relabelled_blocks(kernel: list[dict], basis_weight: list[tuple],
                       actions: list[list]) -> list[dict]:
    """The canonical rows of every weight block outside the representative
    ones, from the representative blocks' rows `kernel`: a permutation of
    the Witt pairs that takes basis element k to sign_k B_k' takes a
    kernel row S to S'_{k'l'} = sign_k sign_l S_kl, and `canonical_rows`
    re-canonicalises each block.  The kernel rows are integer rows, so the
    relabelled rows are too, and each walk composes the actions on the
    basis elements the block meets only."""
    unknowns = _sym2_unknowns(len(basis_weight))
    blocks: dict[tuple, list] = {}
    for row in kernel:
        k, l = unknowns[next(iter(row))]
        blocks.setdefault(_add(basis_weight[k], basis_weight[l]), []).append(row)
    out = []
    for weight, rows in blocks.items():
        cols = sorted({j for row in rows for j in row})
        basis = sorted({k for j in cols for k in unknowns[j]})
        at = {k: i for i, k in enumerate(basis)}
        slots = [(j, at[k], at[l]) for j in cols for k, l in [unknowns[j]]]
        for maps in _orbit_maps(weight, actions, basis):
            image = {}
            for j, ik, il in slots:
                (k, sk), (l, sl) = maps[ik], maps[il]
                image[j] = _sym2_col(k, l), sk * sl
            relabelled = []
            for row in rows:
                new = {}
                for j, v in row.items():
                    j2, sign = image[j]
                    new[j2] = sign * v
                relabelled.append(new)
            out += canonical_rows(relabelled)
    return out


def bianchi_kernel(algebra: LieAlgebra) -> CurvatureSpace:
    """The space of algebraic curvature tensors with values in `algebra`,
    which must lie in so(V, eta) and have the weight and structure-triple
    symmetries of the module docstring; raises ValueError otherwise.

    Such a tensor is pair symmetric, so it is R(e_a, e_b) = sum_kl S_kl
    omega_l(a, b) B_k for a symmetric S, omega_l(a, b) = eta(B_l e_a, e_b),
    and the first Bianchi identity is sum_kl S_kl omega_k ^ omega_l = 0:
    R(g) is the kernel of Sym^2(g) -> Lambda^4 V*, solved on the unknowns
    x_kl = S_kl, k <= l, with one row per 4-set.

    The system is solved one weight block per S_t-orbit (`_weight_blocks`).
    Basis element k has the weight w_k of the bivectors of omega_k, x_kl
    the weight w_k + w_l, and a 4-set the sum of its vectors' weights; a
    row meets only columns of its own weight.  `_bianchi_rows` streams
    the rows of the representative weights, from the least member of each
    orbit of the structure triple, each row split into its character
    components.  The rows of an orbit span exactly those components, so
    the span of the rows, the kernel and its RREF are those of every
    4-set.  One `sparse_nullspace` solves them over an order-preserving
    compact numbering of the representative columns, which keeps its rows
    canonical; the rows are mapped to Sym^2(g) columns only when some
    column is left out, since otherwise the numbering is the identity.  A
    permutation of the Witt pairs maps each basis element to +- a basis
    element and permutes the weights, so it maps a block's kernel onto the
    kernel of the permuted block: `_relabelled_blocks` gives every other
    block.  The blocks have disjoint columns, so each block's RREF rows
    are zero at every other block's columns, and their union, sorted by
    leading column, is the RREF of the whole kernel, the rows one
    elimination of every 4-set gives."""
    forms = _pairing_table(algebra)
    blocks = _weight_blocks(algebra)
    kept = blocks.kept
    rows = _bianchi_rows(forms, algebra.space.real_dim, blocks.basis_weight,
                         blocks.column, blocks.character)
    kernel = sparse_nullspace(rows, len(kept))
    if len(kept) < _sym2_dim(algebra.dim):
        kernel = [{kept[j]: v for j, v in row.items()} for row in kernel]
    if blocks.actions:
        kernel += _relabelled_blocks(kernel, blocks.basis_weight, blocks.actions)
        kernel.sort(key=lambda row: next(iter(row)))
    return CurvatureSpace(algebra, kernel)


def bianchi_residual_is_zero(element) -> bool:
    """R(a,b)e_c + R(b,c)e_a + R(c,a)e_b = 0 on every basis triple, summed
    over ints from the integer basis columns and the element's integer
    rows, whose common denominator cannot make a zero sum nonzero.  Each
    bivector's value is evaluated once, from its row's nonzeros
    (`_value`)."""
    n = element.space.real_dim
    cols = _columns(element.algebra)
    values = {ib: _value(row, cols) for ib, row in element.rows.items()}
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                out: dict = {}
                # R(c,a) = -R(a,c)
                for ib, col, sign in ((_biv_index(n, a, b), c, 1),
                                      (_biv_index(n, b, c), a, 1),
                                      (_biv_index(n, a, c), b, -1)):
                    for d, v in values.get(ib, _EMPTY_ROW).get(col, _EMPTY_ROW).items():
                        out[d] = out.get(d, 0) + sign * v
                if any(out.values()):
                    return False
    return True


# ---------------------------------------------------------------------------
# the model tensor R0 and the h0 generator R1
# ---------------------------------------------------------------------------

def _wedge_matrix(n: int, eta: dict, u: dict, v: dict) -> dict:
    """(u ^ v) Z = eta(v, Z) u - eta(u, Z) v, as {row * n + col: value},
    for sparse vectors u and v and eta given by `signed_permutation` (ints
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

    yielded as the entries {pos: int} of the integral matrix 4 R0(e_a, e_b),
    some of them 0, built over ints from the signed permutations eta and
    I_alpha, read once."""
    n = space.real_dim
    eta = invertible_permutation(space.eta)
    structure = [invertible_permutation(ialpha) for ialpha in space.I]
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
        yield out


def build_r0(algebra: LieAlgebra) -> CurvatureElement:
    """R0 on `algebra.space`, expressed over the basis of `algebra`, which
    must contain its values (sp(1) + sp(r, s) does); coordinates are
    linear, so `integer_coordinates` reads 4 R0 over ints, and the rows
    are those coordinates over 4 times their denominator."""
    space = algebra.space
    rows = {}
    for ib, value in enumerate(_r0_values(space, bivector_pairs(space.real_dim))):
        hit = algebra.integer_coordinates(value)
        if hit is None:
            raise ValueError("R0 value escapes the algebra span")
        den, coords = hit
        if coords:
            rows[ib] = coords
    return CurvatureElement(algebra, rows, 4 * den)


def build_r1(curvature: CurvatureSpace) -> CurvatureElement:
    """The generator of `curvature`, the 1-dimensional curvature space of
    h0, normalized so its first nonzero coefficient (canonical ordering:
    bivector, then basis element) equals 1: the tensor of `values`, its
    sign that of its lead, over the lead's absolute value."""
    if curvature.dim != 1:
        raise ValueError(
            f"unexpected curvature space dimension {curvature.dim} for h0")
    (tensor,) = curvature.values()
    first = next(iter(tensor.values()))  # bivectors ascend
    lead = first[min(first)]
    if lead < 0:
        tensor = {ib: {k: -v for k, v in row.items()} for ib, row in tensor.items()}
    return CurvatureElement(curvature.algebra, tensor, abs(lead))


# ---------------------------------------------------------------------------
# contractions
# ---------------------------------------------------------------------------

def _integer_ricci(element: CurvatureElement) -> dict:
    """ric over ints: Ric(Y, Z) = ric[Y * n + Z] / element.den."""
    n = element.space.real_dim
    cols = _columns(element.algebra)
    pairs = bivector_pairs(n)
    ric = {}
    for ib, row in element.rows.items():
        a, b = pairs[ib]
        # R(e_a, e_b) adds its row a to Ric row b and -(row b) to Ric row a
        for z, col in _value(row, cols).items():
            if a in col:
                ric[b * n + z] = ric.get(b * n + z, 0) + col[a]
            if b in col:
                ric[a * n + z] = ric.get(a * n + z, 0) - col[b]
    return ric


def scalar(element: CurvatureElement) -> int | Fraction:
    """Trace of the Ricci tensor raised by the inverse metric.

    In the Witt basis eta is a signed permutation matrix with eta*eta = 1,
    so eta is its own inverse and raises the index directly."""
    n = element.space.real_dim
    ric = _integer_ricci(element)
    # eta[b, c] = e for each column c
    total = sum(e * ric.get(c * n + b, 0)
                for c, (b, e) in invertible_permutation(element.space.eta).items())
    return ratio(total, element.den)


# ---------------------------------------------------------------------------
# the algebra action on curvature tensors
# ---------------------------------------------------------------------------

def act(a_mat: RealMatrix, algebra: LieAlgebra, row: Mapping) -> dict:
    """The Sym^2(g) row of A . S = ad_A S + S ad_A^T, for A in g = `algebra`
    and S the Sym^2(g) row `row` (x_kl = S_kl at column `_sym2_col(k, l)`):
    exact, nonzero entries only, columns ascending.  For the tensor R of S
    it is the tensor (A . R)(X, Y) = [A, R(X, Y)] - R(AX, Y) - R(X, AY),
    because omega_l(AX, Y) + omega_l(X, AY) = -omega_[A, B_l](X, Y) for
    eta-skew A.  Raises ValueError unless g lies in so(V, eta) and A in g:
    the identity normalizes every g but is not eta-skew, and the formula
    would give 0 for its action -2 R.

    Over ints: A and S times the lcm of their denominators, and ad_A read
    as the `integer_coordinates` of the brackets [A, B_k] of one `brackets`
    pass.  With P = ad_A S, x_kl of A . S is P_kl + P_lk, and x_kk is
    2 P_kk; each entry is divided by the product of the three denominators
    where it leaves."""
    _pairing_table(algebra)  # refuses a g outside so(V, eta)
    n, dimg = algebra.space.real_dim, algebra.dim
    den_a = lcm(*(v.denominator for v in a_mat.nz.values()))
    a_int = {pos: v.numerator * (den_a // v.denominator) for pos, v in a_mat.nz.items()}
    hit = algebra.integer_coordinates(a_int)
    if hit is None:
        raise ValueError(f"A is not in {algebra.name}")
    den_g = hit[0]
    stacked = brackets(n, a_int, (bmat.nz for bmat in algebra.basis))
    by_k = [{} for _ in range(dimg)]
    for key, v in stacked.items():
        k, pos = divmod(key, n * n)
        by_k[k][pos] = v
    ad = []  # ad[k]: the coordinates of den_g [den_a A, B_k], {m: int}
    for bracket in by_k:
        hit = algebra.integer_coordinates(bracket)
        if hit is None:
            raise ValueError("bracket with A leaves the algebra span")
        ad.append(hit[1])
    unknowns = _sym2_unknowns(dimg)
    den_s = lcm(*(v.denominator for v in row.values()))
    out: dict = {}
    for j, v in row.items():
        s = v.numerator * (den_s // v.denominator)
        k, l = unknowns[j]
        for k, l in ((k, l), (l, k))[:1 + (k != l)]:  # S_kl and S_lk
            for m, c in ad[k].items():  # P_ml += ad_A[m, k] S_kl
                col = _sym2_col(m, l)
                out[col] = out.get(col, 0) + (2 * c * s if m == l else c * s)
    den = den_s * den_a * den_g
    return {col: ratio(out[col], den) for col in sorted(out) if out[col]}


# ---------------------------------------------------------------------------
# degenerate-pair vanishing
# ---------------------------------------------------------------------------

class DegenerateReport(NamedTuple):
    """Outcome of the vanishing checks R(p, X) = 0 and R(X, Y)|_W = 0 for
    p in W and X, Y in the non-degenerate complement E."""

    status: str  # "pass" | "fail" | "vacuous"
    witnesses: tuple = ()


def restrict_check_degenerate(curvature: CurvatureSpace) -> DegenerateReport:
    """R(p, X) = 0 holds iff the row of (p, X) in `values` is empty,
    because the algebra basis is independent; R(X, Y)p is column p of the
    value `_value` evaluates.  Each canonical row's tensor is read at
    the bivectors of W x E and E x E only, and its positive factor keeps its
    zeros."""
    space = curvature.space
    if space.t < 1:
        raise ValueError("degenerate-pair check requires t >= 1")
    w_idx = list(space.w_indices())
    e_idx = list(space.e_indices())
    if not e_idx:
        return DegenerateReport(status="vacuous")
    n = space.real_dim
    cols = _columns(curvature.algebra)
    w_e = [((p, x), _biv_index(n, min(p, x), max(p, x))) for p in w_idx for x in e_idx]
    e_e = [((x, y), _biv_index(n, x, y)) for x in e_idx for y in e_idx if x < y]
    witnesses = []
    for i, tensor in enumerate(curvature.values({ib for _, ib in w_e + e_e})):
        witnesses += [(i, "R(p,X) != 0", pair) for pair, ib in w_e if ib in tensor]
        for (x, y), ib in e_e:
            row = tensor.get(ib)
            if row:
                value = _value(row, cols)
                witnesses += [(i, "R(X,Y)p != 0", (x, y, p)) for p in w_idx
                              if any(value.get(p, _EMPTY_ROW).values())]
    status = "pass" if not witnesses else "fail"
    return DegenerateReport(status=status, witnesses=tuple(witnesses))


# ---------------------------------------------------------------------------
# second Bianchi: the space of candidate curvature derivatives
# ---------------------------------------------------------------------------

def derivative_space(curvature: CurvatureSpace) -> Subspace:
    """Maps T: R^n -> R(g) with cyclic sum T(X)(Y,Z) + T(Y)(Z,X) + T(Z)(X,Y)
    zero on all basis triples, as a subspace of R^{n * dim R(g)}, over the
    tensors of `values`, whose integer entries make each row an integer
    equation: its dimension does not depend on their scale.  They are read
    once into by_biv[ib] = [(k, row i, coefficient of B_k)],
    so each triple visits only its three bivectors' nonzeros."""
    n = curvature.space.real_dim
    kdim = curvature.dim
    by_biv: dict[int, list] = {}
    for i, tensor in enumerate(curvature.values()):
        for ib, row in tensor.items():
            by_biv.setdefault(ib, []).extend((k, i, c) for k, c in row.items())

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
                        yield by_k[k]

    return Subspace(n * kdim, sparse_nullspace(rows(), n * kdim))


# ---------------------------------------------------------------------------
# pair symmetry eta(R(X,Y)Z, U) = eta(R(Z,U)X, Y)
# ---------------------------------------------------------------------------

def _pairing_table(algebra: LieAlgebra) -> tuple[dict, ...]:
    """table[k] = {biv: eta(B_k e_c, e_d)} over the bivectors (c, d), c < d:
    the 2-form omega_k of B_k, over ints, built once and kept on the
    algebra.  eta is read by `invertible_permutation`, a bijection of the
    basis vectors, so each entry of eta B_k is met once.  Raises ValueError
    unless every B_k is eta-skew, that is, unless eta(B_k e_d, e_c) =
    -eta(B_k e_c, e_d) for all c, d; the refusal is not kept, so every
    call raises."""
    return algebra.kept("_forms", _build_pairing_table)


def _build_pairing_table(algebra: LieAlgebra) -> tuple[dict, ...]:
    n = algebra.space.real_dim
    eta = invertible_permutation(algebra.space.eta)
    cols = _columns(algebra)
    table = []
    for columns in cols:
        form, mirror = {}, {}  # mirror: -eta(B_k e_d, e_c), c < d
        diagonal = False
        for c, entries in columns:
            for e, v in entries:
                # (eta B_k)[d, c] = eta[d, e] B_k[e, c]; eta permutes the rows,
                # so each (d, c) is met once
                d, s = eta[e]
                if c < d:
                    form[_biv_index(n, c, d)] = s * v
                elif d < c:
                    mirror[_biv_index(n, d, c)] = -s * v
                else:
                    diagonal = True
        if diagonal or form != mirror:
            raise ValueError(f"{algebra.name} is not in so(V, eta): "
                             "a basis element is not eta-skew")
        table.append(form)
    return tuple(table)


def _pair_symmetric(rows, table) -> bool:
    # P[ib, jb] = eta(R(pair_ib) e_c, e_d) for pair_jb = (c, d), summed over
    # the integer rows (ib, {k: c}) of a tensor; values in the metric algebra
    # make the full quadruple check equivalent to P symmetric, and a common
    # factor on the rows scales P by it, which keeps its symmetry.
    p: dict[int, dict] = {}
    for ib, row in rows:
        acc = p.setdefault(ib, {})
        for k, c in row.items():
            for jb, v in table[k].items():
                acc[jb] = acc.get(jb, 0) + c * v
    return all(p.get(jb, _EMPTY_ROW).get(ib, 0) == v
               for ib, acc in p.items() for jb, v in acc.items())


def pair_symmetry_holds(element: CurvatureElement) -> bool:
    """Check eta(R(X,Y)Z, U) = eta(R(Z,U)X, Y) on all basis quadruples."""
    return _pair_symmetric(element.rows.items(), _pairing_table(element.algebra))


def pair_symmetry_all(curvature: CurvatureSpace) -> bool:
    """Pair symmetry for the tensor of every canonical row, sharing the
    pairing table; reads `values` and builds no tensor."""
    if curvature.dim == 0:
        return True
    table = _pairing_table(curvature.algebra)
    return all(_pair_symmetric(tensor.items(), table) for tensor in curvature.values())


# ---------------------------------------------------------------------------
# comparisons across algebras
# ---------------------------------------------------------------------------

def block_slots(algebra: LieAlgebra, target: LieAlgebra) -> list[int]:
    """m with B_k = target.basis[m[k]] for every basis element B_k of
    `algebra`, m strictly increasing; raises ValueError unless `target`'s
    basis holds `algebra`'s that way.  The slots are read by matrix
    equality, as `direct_sum` lays the summands' bases out, with no
    elimination."""
    index = {bmat: m for m, bmat in enumerate(target.basis)}
    slots = [index.get(bmat, -1) for bmat in algebra.basis]
    if -1 in slots or any(a >= b for a, b in zip(slots, slots[1:])):
        raise ValueError(f"the basis of {algebra.name} is not a block of "
                         f"the basis of {target.name}")
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
    increasing and takes the canonical rows of
    `curvature.coefficient_subspace()` to canonical rows over `target`;
    the canonical form is unique, so relabelling them is the whole
    computation.
    Any other target raises ValueError."""
    slots = block_slots(curvature.algebra, target)
    column = [_sym2_col(slots[k], slots[l])
              for k, l in _sym2_unknowns(curvature.algebra.dim)]
    rows = [{column[j]: c for j, c in row.items()}
            for row in curvature.coefficient_subspace().sparse_rows()]
    return Subspace(_sym2_dim(target.dim), rows)
