"""Matrix Lie algebras on a realified quaternionic space.

Every algebra is stored as an explicit basis of real 4m x 4m matrices in
the Witt basis of its space.  Construction follows the block
parametrization

    [ C   -(E0 conj(X))^t   B  ]      C in Mat(t,H), B,D anti-Hermitian,
    [ Y          A          X  ]      A in sp(r0,s0),
    [ D   -(E0 conj(Y))^t  -conj(C)^t ]   X,Y in Mat(r0+s0, t, H)

with E0 = diag(-1 x r0, +1 x s0).  One rule builds every block: the
quaternionic Gram matrix pairs each basis vector a with one vector
sigma(a), with sign g_a, so an entry c at (a, b) forces the entry
-g_a g_b conj(c) at (sigma(b), sigma(a)).  `_sp_entries` walks the blocks
C, B, A, X, Y, D in that order and yields each entry with its partner;
that fixed order is the basis order, so reports are reproducible.  The
W-preserving algebras are walks of a prefix of those blocks: sp(r,s)_W
walks C, B, A, X, the blocks whose elements map W into W, and gl(r,H)
walks C alone, whose elements also map W1 into W1; each basis is the
filtered basis of sp, in order: an element of Y or D moves W, one of B
moves W1, and A and X are empty when r = s = t.

W is the coordinate block `space.w_indices()` of the Witt basis, so
whether an element maps W into W is read off its entries: an entry in a W
column must sit in a W row.  The stabilizer of W is solved over g's
coordinates from those entries, and no algebra is compared with another
by the span of its matrices.

Every sum of the registry is sp(1) + g with g made of H-linear maps
(`direct_sum`), so g commutes with sp(1) iff conjugation by I1 and I2
fixes every element of its basis.  Each algebra keeps those characters,
read by one conjugation pass over its basis (`LieAlgebra.characters`),
which `curvature` reads too; `direct_sum` decides commuting from them and
gives the sum sp(1)'s table followed by g's, with no pass of its own.

A basis matrix has integer entries, and `LieAlgebra` refuses any other
with ValueError: a positive integer multiple of a rational basis element
spans the same line, and every registry basis has entries +-1.  So every
table below is read over ints.

Coordinates are read off one table per algebra, the Gram table: an index
of the basis entries by position and the inverse of the Frobenius Gram
matrix G_kl = sum_pos B_k[pos] B_l[pos].  A real basis is independent iff
G is positive definite, so one `span_of` over the rows [G | I] decides
independence (its RREF is [I | G^-1] exactly then) and gives G^-1: its
canonical rows are the integer rows [d_k e_k | d_k G^-1_k], so with
den = lcm(d_k) den G^-1 is read over ints, and it is kept by column.  The
coordinates of den M are then den G^-1 (<M, B_l>)_l, the sum of column l
times <M, B_l> over the l whose inner product is not zero, so a matrix
that meets few basis elements reads few columns; M is in the span iff
sum_k c_k B_k == den M, and `integer_coordinates` reads the coordinates
of den M over ints.  Every registry basis is pairwise orthogonal, with
entries +-1, so G is diagonal, each column holds one entry, and a
coordinate costs one pass over M's entries; the general path only needs G
invertible.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import lcm

from .exactlin import (Subspace, compose, invertible_permutation, span_of,
                       sparse_nullspace)
from .quatspace import QuaternionicSpace, conjugate, realify

__all__ = [
    "LieAlgebra",
    "build_sp",
    "build_sp1",
    "build_sp_parabolic",
    "build_glq",
    "build_h0",
    "brackets",
    "direct_sum",
    "algebra_by_name",
    "ALGEBRA_NAMES",
    "sp_dimension",
    "sp_parabolic_dimension",
]

# the units 1, i, j, k as signed units (u, sign)
_COMPONENTS = tuple((u, 1) for u in range(4))
_IMAGINARY = _COMPONENTS[1:]
# each unit c beside -g conj(c), the partner of c when g_a g_b = g
_PAIRS = {g: [(c, (c[0], -g * conjugate(c)[1])) for c in _COMPONENTS]
          for g in (1, -1)}


def sp_dimension(r: int, s: int) -> int:
    m = r + s
    return m * (2 * m + 1)


def sp_parabolic_dimension(r: int, s: int, t: int) -> int:
    n0 = r + s - 2 * t
    return 4 * t * t + (2 * t * t + t) + n0 * (2 * n0 + 1) + 4 * n0 * t


class LieAlgebra:
    """A linearly independent list of integral matrices spanning a
    subalgebra of gl(4m, R), with provenance metadata; a basis entry that
    is not an int raises ValueError naming the algebra.

    The algebra keeps the tables read from its basis, each built on first
    use (`kept`): `_gram`, the Gram table from which `integer_coordinates`
    reads coordinates, `_characters`, the structure characters that
    `characters` returns, and the tables that `curvature` reads,
    `_columns`, the integer columns of each basis matrix, and `_forms`,
    their 2-forms omega_k."""

    __slots__ = ("name", "space", "basis", "dim", "_gram", "_characters",
                 "_columns", "_forms")

    def __init__(self, name: str, space: QuaternionicSpace, basis):
        basis = tuple(basis)
        if any(type(v) is not int for b in basis for v in b.nz.values()):
            raise ValueError(f"basis of {name} has a non-integral entry")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "dim", len(self.basis))
        for slot in ("_gram", "_characters", "_columns", "_forms"):
            object.__setattr__(self, slot, None)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    def __repr__(self):
        return f"LieAlgebra({self.name!r}, dim={self.dim})"

    def kept(self, slot: str, build):
        """The table in `slot`, `build(self)` on the first call; a build
        that raises keeps nothing, so the next call raises again."""
        table = getattr(self, slot)
        if table is None:
            table = build(self)
            object.__setattr__(self, slot, table)
        return table

    def characters(self) -> tuple[int, ...]:
        """The character of each basis element under conjugation by I1 and
        I2, two bits: bit alpha is set iff I_{alpha+1} B_k I_{alpha+1}^-1 =
        -B_k.  Built by one conjugation pass (`_build_characters`) and kept;
        raises ValueError if some conjugate is not +- its basis element."""
        return self.kept("_characters", _build_characters)

    def integer_coordinates(self, entries: Mapping):
        """(den, {k: c_k}) with sum_k (c_k / den) B_k the matrix whose
        entries are the ints `entries` ({pos: int}, a 0 read as absent),
        the c_k nonzero ints, keys ascending, and den the same for every
        matrix; None if that matrix is outside the span.  Raises ValueError
        if the basis is linearly dependent."""
        index, den, columns = self.kept("_gram", _build_gram)
        inner: dict = {}  # <M, B_l> for each B_l whose support M meets
        for pos, v in entries.items():
            if v:
                hits = index.get(pos)
                if hits is None:
                    return None
                for l, w in hits:
                    inner[l] = inner.get(l, 0) + v * w
        acc: dict = {}  # den G^-1 (<M, B_l>)_l, one column per nonzero
        for l, x in inner.items():
            if x:
                for k, y in columns[l].items():
                    acc[k] = acc.get(k, 0) + y * x
        coords = {k: acc[k] for k in sorted(acc) if acc[k]}
        # M is in the span iff sum_k c_k B_k == den M
        image: dict = {}
        for k, c in coords.items():
            for pos, w in self.basis[k].nz.items():
                image[pos] = image.get(pos, 0) + c * w
        if ({pos: x for pos, x in image.items() if x}
                != {pos: den * v for pos, v in entries.items() if v}):
            return None
        return den, coords


def _build_gram(alg: LieAlgebra) -> tuple[dict, int, tuple]:
    """The Gram table of `alg`'s integral basis B_k: (index, den, columns).

    - index: pos -> [(k, B_k[pos]), ...] over the nonzero entries;
    - den: the lcm of the denominators of the entries of G^-1, which is
      the lcm of the leads d_k of the canonical rows below;
    - columns: column l of den G^-1, {k: int} over its nonzeros, keys
      ascending; a coordinate reads only the columns of its nonzero inner
      products.

    G is read off the index, and one `span_of` over the rows [G | I]
    gives the canonical rows [d_k e_k | d_k G^-1_k] when the basis is
    independent, row k of [I | G^-1] times the lead d_k, so
    den = lcm(d_k) and column l of den G^-1 holds den / d_k times entry
    dim g + l of row k, all over ints; a row leading in the right half
    means G is singular, and raises "linearly dependent"."""
    dim = alg.dim
    index: dict = {}
    for k, b in enumerate(alg.basis):
        for pos, v in b.nz.items():
            index.setdefault(pos, []).append((k, v))
    gram = [{} for _ in range(dim)]
    for hits in index.values():
        for k, v in hits:
            row = gram[k]
            for l, w in hits:
                row[l] = row.get(l, 0) + v * w
    rows = span_of(({**row, dim + k: 1} for k, row in enumerate(gram)),
                   2 * dim).sparse_rows()
    if rows and min(rows[-1]) >= dim:
        raise ValueError(f"basis of {alg.name} is linearly dependent")
    den = lcm(*(row[k] for k, row in enumerate(rows)))
    columns = tuple({} for _ in range(dim))
    for k, row in enumerate(rows):  # row k of [d_k I | d_k G^-1]
        scale = den // row[k]
        for l, v in row.items():
            if l >= dim:
                columns[l - dim][k] = v * scale
    return index, den, columns


def _build_characters(alg: LieAlgebra) -> tuple[int, ...]:
    """The structure characters of `alg`'s basis, from one conjugation
    pass.  I3 = I1 I2, so the two fix its sign too.  Each conjugated entry
    is compared with B_k's own entry at its image position, the first one
    fixing the sign; raises ValueError at the first entry where the
    conjugate is not +- the basis element itself."""
    n = alg.space.real_dim
    perms = [invertible_permutation(ialpha) for ialpha in alg.space.I[:2]]
    bits = []
    for k, bmat in enumerate(alg.basis):
        nz = bmat.nz
        bit = 0
        for alpha, perm in enumerate(perms):
            sign = 0
            for pos, v in nz.items():
                (d, sd), (c, sc) = perm[pos // n], perm[pos % n]
                image = sd * sc * v
                w = nz.get(d * n + c)
                if not sign:
                    sign = 1 if w == image else -1
                if w != sign * image:
                    raise ValueError(f"{alg.name}: conjugation by I{alpha + 1} "
                                     f"does not map basis element {k} to +- itself")
            if sign < 0:
                bit |= 1 << alpha
        bits.append(bit)
    return tuple(bits)


def _sp_entries(space: QuaternionicSpace, blocks: str = "CBAXYD"):
    """Each basis element of sp(r, s) in `blocks` as its signed-unit
    entries {(a, b): c}, in basis order: the blocks named, in the order C,
    B, A, X, Y, D, each read row-major, c running over 1, i, j, k, each
    entry with its partner.
    conj(M)^t G + G M = 0 is that partner rule, G pairing a with sigma(a)
    alone, with sign g_a.  An entry that is its own partner is imaginary,
    and a block that is its own partner (B, A, D) is read on and above its
    diagonal."""
    sigma = {a: (b, g) for (a, b), g in space.gram.items()}
    t, m = space.t, space.m
    p, e, q = range(t), range(t, m - t), range(m - t, m)
    walk = {"C": (p, p), "B": (p, q), "A": (e, e),
            "X": (e, q), "Y": (e, p), "D": (q, p)}
    for rows, cols in map(walk.__getitem__, blocks):
        for a in rows:
            for b in cols:
                (sa, ga), (sb, gb) = sigma[a], sigma[b]
                if (sb, sa) == (a, b):
                    for c in _IMAGINARY:
                        yield {(a, b): c}
                elif not (sb in rows and sa in cols and (sb, sa) < (a, b)):
                    for c, partner in _PAIRS[ga * gb]:
                        yield {(a, b): c, (sb, sa): partner}


def build_sp(space: QuaternionicSpace) -> LieAlgebra:
    """Realification of sp(r, s): all H-linear maps skew-Hermitian for the
    quaternionic form; dim = (r+s)(2(r+s)+1)."""
    alg = LieAlgebra(f"sp({space.r},{space.s})", space,
                     [realify(space.m, f) for f in _sp_entries(space)])
    assert alg.dim == sp_dimension(space.r, space.s)
    return alg


def build_sp_parabolic(space: QuaternionicSpace) -> LieAlgebra:
    """The maximal subalgebra of sp(r, s) preserving the isotropic part W:
    the walk of the blocks C, B, A, X, whose elements are those of sp that
    map W into W."""
    if space.t < 1:
        raise ValueError("parabolic subalgebra requires t >= 1")
    alg = LieAlgebra(f"sp({space.r},{space.s})_W", space,
                     [realify(space.m, f) for f in _sp_entries(space, "CBAX")])
    assert alg.dim == sp_parabolic_dimension(space.r, space.s, space.t)
    return alg


def build_sp1(space: QuaternionicSpace) -> LieAlgebra:
    """The 3-dimensional algebra spanned by the structure triple; commutes
    elementwise with every realified left-matrix action."""
    return LieAlgebra("sp(1)", space, space.I)


def build_glq(space: QuaternionicSpace) -> LieAlgebra:
    """gl(r, H) embedded as diag(C, -conj(C)^t): the walk of the block C,
    whose elements are those of sp that preserve both W and W1; requires
    r = s = t."""
    if not (space.r == space.s == space.t >= 1):
        raise ValueError("gl(r,H) block algebra requires r = s = t >= 1")
    alg = LieAlgebra(f"gl({space.r},H)", space,
                     [realify(space.m, f) for f in _sp_entries(space, "C")])
    assert alg.dim == 4 * space.r * space.r
    return alg


def brackets(n: int, x, ys) -> dict:
    """The brackets x y_l - y_l x of the n x n matrix x with every y_l of
    `ys`, in one dict at key l n^2 + position, some values 0; all are given
    by their int entries {pos: int}.  The entries of every y_l are stacked
    once, by row and by column, under keys that name l and the position,
    so one pass over the entries of x gives every bracket, and no matrix
    is built."""
    n2 = n * n
    # y_l[i, j] at key l n^2 + j under row i, and at key l n^2 + i n under column j
    by_row: dict = {}
    by_col: dict = {}
    for l, y in enumerate(ys):
        for pos, w in y.items():
            i, j = divmod(pos, n)
            by_row.setdefault(i, []).append((l * n2 + j, w))
            by_col.setdefault(j, []).append((l * n2 + i * n, w))
    diff: dict = {}
    for pos, v in x.items():
        i, t = divmod(pos, n)
        base = i * n
        for key, w in by_row.get(t, ()):  # x[i, t] y_l[t, j]
            diff[key + base] = diff.get(key + base, 0) + v * w
        for key, w in by_col.get(i, ()):  # y_l[d, i] x[i, t]
            diff[key + t] = diff.get(key + t, 0) - w * v
    return diff


def direct_sum(a: LieAlgebra, b: LieAlgebra, name: str | None = None) -> LieAlgebra:
    """sp(1) + g: the basis of `a`, which must be sp(1), the structure
    triple of the space, followed by that of `b`, a g that commutes with
    sp(1) and meets it trivially; raises ValueError for any other `a`,
    "not a direct sum" if g does not commute with sp(1), and "linearly
    dependent" if the spans overlap.

    g commutes with sp(1) iff conjugation by I1 and I2 fixes every basis
    element of g, that is every character of g is trivial, and I3 = I1 I2
    on the space, checked once by composing the signed permutations.  So
    the commute check reads g's kept character table, which `curvature`
    reads too, and computes no bracket; a g element whose conjugate is not
    +- itself does not commute either.  The sum keeps sp(1)'s table
    followed by g's.  The overlap check builds the sum's Gram table, which
    `integer_coordinates` then reuses."""
    space = a.space
    if b.space is not space:
        raise ValueError("summands live on different spaces")
    if a.basis != space.I:
        raise ValueError(f"first summand {a.name} is not sp(1), the structure "
                         "triple of the space")
    i1, i2, i3 = map(invertible_permutation, space.I)
    if compose(i1, i2) != i3:
        raise ValueError("I3 is not I1 I2, so commuting with I1 and I2 does not "
                         "give commuting with I3")
    try:
        chars = b.characters()
    except ValueError as err:
        raise ValueError("not a direct sum: summands do not commute") from err
    if any(chars):
        raise ValueError("not a direct sum: summands do not commute")
    total = LieAlgebra(name or f"{a.name}+{b.name}", space, a.basis + b.basis)
    total.kept("_characters", lambda _: a.characters() + chars)
    total.kept("_gram", _build_gram)
    return total


def build_h0(space: QuaternionicSpace) -> LieAlgebra:
    """sp(1) + gl(r,H) block algebra; dim 3 + 4r^2.  Requires r = s = t."""
    return algebra_by_name("h0", space)


def stabilizer_of_subspace(g: LieAlgebra, w: range) -> Subspace:
    """{x : sum x_k B_k maps the span of the basis vectors in `w` into
    itself}, as the canonical subspace of coefficient vectors over
    g.basis: one equation per entry (d, c) with c in `w` and d outside
    it, whose kernel `sparse_nullspace` returns in canonical form."""
    n = g.space.real_dim
    equations: dict = {}
    for k, b in enumerate(g.basis):
        for pos, x in b.nz.items():
            d, c = divmod(pos, n)
            if c in w and d not in w:
                equations.setdefault(pos, {})[k] = x
    return Subspace(g.dim, sparse_nullspace(equations.values(), g.dim))


# a builder, or a sum (first summand, second summand, name of the sum)
_REGISTRY = {
    "sp": build_sp,
    "sp_w": build_sp_parabolic,
    "sp1": build_sp1,
    "glq": build_glq,
    "h0": ("sp1", "glq", "h0"),
    "sp1+sp": ("sp1", "sp", None),
    "sp1+sp_w": ("sp1", "sp_w", None),
}

ALGEBRA_NAMES = tuple(_REGISTRY)


def algebra_by_name(name: str, space: QuaternionicSpace,
                    summand=None) -> LieAlgebra:
    """Construct a registry algebra on `space`; KeyError for unknown names.
    A sum is the `direct_sum` of its two registry summands, each
    `summand(summand_name)` when that is given (a caller that keeps its
    algebras passes them in, so no basis is built twice), else built here."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown algebra {name!r}; known: {', '.join(ALGEBRA_NAMES)}")
    entry = _REGISTRY[name]
    if callable(entry):
        return entry(space)
    first, second, sum_name = entry
    part = summand or (lambda part_name: algebra_by_name(part_name, space))
    return direct_sum(part(first), part(second), name=sum_name)
