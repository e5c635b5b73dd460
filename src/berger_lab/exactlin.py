"""Exact rational linear algebra.

Every scalar is exact and has one normal form: a Python `int` when it is
integral, a `fractions.Fraction` (denominator > 1) otherwise.  `exact` and
`ratio` are the only normalisers.  Values are normalised where they are
created or stored: every `RealMatrix` entry, every remainder
`Subspace.reduce_vector` returns and every value `rat_from_str` parses.
Canonical rows and kernel rows hold ints only (below).  A loop keeps the
values it accumulates as computed, so int * int stays int.  Python gives
`Fraction(2) == 2`, `hash(Fraction(2)) == hash(2)` and
`str(Fraction(2)) == "2"`, so no equality, hash or serialized form depends
on the type.  Nothing here uses true division, which turns two ints into a
float.

Everything is sparse: a matrix (`RealMatrix`) stores its nonzero entries
only, and a vector is a {index: value} mapping of its nonzeros.  A matrix
is read only by its entries (`nz`): it has no arithmetic, and eta and the
I_alpha are composed (`compose`) as the signed permutations
`signed_permutation` reads off them.  The canonical row of a span is the
primitive integer multiple of its RREF row, positive at its lead: ints
with gcd 1.  That form is unique, so subspace bases are canonical and two
subspaces are equal iff their stored rows are equal, whatever
denominators their RREF rows would have.

Every elimination runs on one engine, `Echelon`, with no exception, over
sparse rows of primitive integers (fraction-free, per-row gcd
normalization).  After `full_reduce` its pivot rows are the canonical rows
themselves, and they are handed out as they are, with no division: each
is the textbook Fraction Gauss-Jordan row times the lcm of that row's
denominators.  Rational rows enter it through `integer_row` at the input
of `canonical_rows`; the only other clearings are at the edges, the cache
rows `curvature` reads and the public input of
`prolong.first_prolongation`.  Spans and membership are answered by
`Echelon`, `span_of` and `Subspace.reduce_vector`.  Independence and
coordinates over an algebra's basis come from its Gram table (`liealg`):
one `span_of` over the rows [G | I] of its Gram matrix G, 2 dim g
columns, decides independence and gives G^-1, and no elimination runs per
coordinate.  The one symmetric form whose signature is asked for, eta, is
a signed permutation, so `symmetric_signature` counts it from
`signed_permutation`, the one reader of such a matrix, and eliminates
nothing.

`Echelon` pivots each row at its largest column.  Kernels come out
canonical from one elimination: in `sparse_nullspace` every reduced pivot
row holds, besides its pivot, only free columns to its left, which makes
the free-column basis of the kernel its RREF basis, read off as integer
rows, so no caller re-canonicalises a kernel.  `canonical_rows` wants the
leftmost-pivot RREF of a span, so it negates the columns on the way in and
back on the way out.  `check_canonical` decides whether rows read from
outside are in the leading-1 form the cache writes.

`Echelon` keeps its pivot rows short.  A working row shorter than the
pivot row at its largest column takes that pivot's place (Markowitz's
rule), and the displaced row is reduced against it and inserted in turn.
A row that reduces to one entry is stored as the unit pivot {c: 1}, and
column c is deleted at once from every stored pivot row and from the
working row; a row left with one entry becomes a unit pivot in turn.  This
is the first step of structured Gaussian elimination (LaMacchia and
Odlyzko, CRYPTO '90).  In the first-Bianchi system of
`curvature.bianchi_kernel`, units are 43% to 87% of the pivots for sp_w,
sp1+sp_w and h0 at (1,1,1), (1,3,1) and (3,3,3), though none for sp, and
the rows that reduce to zero no longer meet their columns.  Many rows are
dead when they arrive, every column of theirs a unit column: 512 of the
907 at h0 (3,3,3), and 81 of 311 at sp_w (1,3,1).
`sparse_nullspace` skips such a row before it copies it.  Every step
adds to a row a multiple of a row already in the span, so the span never
changes.  Each reduction strictly lowers the largest column of the row
being worked on, so insertion ends.  Since the reduced echelon form of a
span is unique for a given column order, which rows became pivots does
not show in any result: every kernel, span and canonical row is the
primitive integer multiple of the one the textbook elimination gives.

All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Sequence

__all__ = [
    "RealMatrix",
    "Subspace",
    "exact",
    "ratio",
    "rat_from_str",
    "rat_to_str",
    "span_of",
    "signed_permutation",
    "invertible_permutation",
    "compose",
    "symmetric_signature",
    "sparse_nullspace",
    "canonical_rows",
    "check_canonical",
    "integer_row",
]


def exact(x) -> int | Fraction:
    """The rational `x` in normal form: an int when it is integral, else a
    Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def ratio(a: int, b: int) -> int | Fraction:
    """The exact quotient a/b of two ints, in normal form."""
    q, rem = divmod(a, b)
    return Fraction(a, b) if rem else q


def rat_to_str(x: int | Fraction) -> str:
    """Serialize as "p/q", or "p" when the value is integral."""
    return str(x)


def rat_from_str(s: str) -> int | Fraction:
    """Parse exactly the spellings `rat_to_str` writes, in normal form: an
    ASCII digit string p with an optional leading "-", or p/q with q an
    ASCII digit string.  Any other string raises ValueError, and q = 0
    raises ZeroDivisionError."""
    num, slash, den = s.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if not (digits.isascii() and digits.isdigit()
            and (not slash or den.isascii() and den.isdigit())):
        raise ValueError(f"not a rational in p or p/q form: {s!r}")
    return ratio(int(num), int(den)) if slash else int(num)


# ---------------------------------------------------------------------------
# sparse matrices
# ---------------------------------------------------------------------------

class RealMatrix:
    """Immutable sparse matrix of exact rationals, read by its entries.

    `nz` is a read-only mapping {row * cols + col: value} of the nonzero
    entries, each in normal form: the constructor copies the given `nz`
    through `exact` and drops its zero values.
    """

    __slots__ = ("rows", "cols", "nz")

    def __init__(self, rows: int, cols: int, nz: Mapping):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nz", MappingProxyType(
            {k: exact(v) for k, v in nz.items() if v}))

    def __setattr__(self, name, value):
        raise AttributeError("RealMatrix is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, RealMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.nz == other.nz)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, frozenset(self.nz.items())))

    def __repr__(self) -> str:
        return f"RealMatrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# sparse integer elimination engine
# ---------------------------------------------------------------------------
#
# Rows are dicts {column: int}, kept primitive (gcd 1).  Pivot rows carry a
# positive entry at their pivot, their largest column.  `Echelon` builds an
# echelon basis incrementally; `full_reduce` turns it into the reduced form
# (zeros at every other pivot column), whose rows are the canonical rows:
# each RREF row's primitive integer multiple.

def integer_row(row: Mapping) -> dict:
    """The nonzero entries of a rational row times the lcm of their
    denominators: a row of ints spanning the same line."""
    den = lcm(*(v.denominator for v in row.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in row.items() if v}


def _normalize_row(row: dict) -> dict:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        for k in row:
            row[k] //= g
    return row


def _combine(row: dict, a: int, b: int, pivot_row: dict) -> None:
    """row := (b/g)*row - (a/g)*pivot_row, g = gcd(a, b).  Drops zeros."""
    g = gcd(a, b)
    mb = b // g
    ma = a // g
    if mb != 1:
        for k in row:
            row[k] *= mb
    for k, v in pivot_row.items():
        nv = row.get(k, 0) - ma * v
        if nv:
            row[k] = nv
        else:
            row.pop(k, None)


class Echelon:
    """Incremental sparse echelon form over the integers.

    A row's pivot is its largest column.  `pivots` maps each pivot column c
    to its primitive row, positive at c.  `units` is the set of columns
    whose pivot row is {c: 1}: such a column is dead, so it is deleted from
    every stored pivot row as soon as its unit pivot appears, and from the
    working row of `insert`.  Pivot rows other than unit ones therefore
    never hold a unit column.  A private index lists, for each column, the
    pivot columns whose rows held it when they were stored.
    """

    __slots__ = ("pivots", "units", "_holders")

    def __init__(self):
        self.pivots: dict[int, dict] = {}  # pivot column -> primitive row
        self.units: set[int] = set()
        self._holders: defaultdict[int, list] = defaultdict(list)

    def insert(self, row: dict) -> int | None:
        """Reduce `row` against the current basis; adopt it if independent.

        A working row shorter than the pivot row at its largest column takes
        that pivot's place, and the displaced row is reduced and inserted in
        its stead.  A row that reduces to one entry becomes the unit pivot
        {c: 1}, which deletes column c from every stored pivot row; a pivot
        row left with one entry becomes a unit pivot in turn.  Returns the
        column that gained a pivot, or None if the working row reduced to
        zero, so `is not None` means the rank grew.  The input dict is
        consumed.

        Unit columns are stripped from the working row only on entry and
        when a displaced row becomes the working row (it may hold a unit
        column that its own displacement created).  That is enough: the
        row is combined only with non-unit pivot rows, which never hold a
        unit column, so a combine cannot add one.
        """
        piv, units, holders = self.pivots, self.units, self._holders
        if units:
            for k in row.keys() & units:
                del row[k]
        while row:
            c = max(row)
            p = piv.get(c)
            if p is None or len(row) < len(p):
                if len(row) == 1:
                    self._add_unit(c)
                else:
                    if row[c] < 0:
                        for k in row:
                            row[k] = -row[k]
                    _normalize_row(row)
                    piv[c] = row
                    for k in row:
                        if k != c:
                            holders[k].append(c)
                if p is None:
                    return c
                row = p
                for k in row.keys() & units:
                    del row[k]
            else:
                _combine(row, row[c], p[c], p)
        return None

    def _add_unit(self, c: int) -> None:
        """Store the unit pivot {c: 1} and delete column c from every pivot
        row that holds it, cascading through rows left with one entry."""
        piv, units, holders = self.pivots, self.units, self._holders
        todo = [c]
        while todo:
            u = todo.pop()
            piv[u] = {u: 1}
            units.add(u)
            for h in holders.pop(u, ()):
                r = piv[h]
                if u in r:
                    del r[u]
                    if len(r) == 1:
                        todo.append(h)
                    else:
                        _normalize_row(r)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def full_reduce(self) -> None:
        """Zero out entries beside every pivot (ascending pivot sweep).

        Call it after the last `insert`: the column index does not follow
        the entries this adds.
        """
        piv = self.pivots
        for c in sorted(piv):
            r = piv[c]
            if len(r) == 1:
                continue
            for k in [k for k in r if k != c and k in piv]:
                if k in r:
                    _combine(r, r[k], piv[k][k], piv[k])
            _normalize_row(r)
            if len(r) == 1:
                self.units.add(c)

    def canonical_rows(self) -> list[dict]:
        """The pivot rows as they are, keys ascending, sorted by pivot
        column: after `full_reduce` each is the primitive integer multiple
        of its RREF row, positive at its pivot, its largest column.  Call
        only after `full_reduce`.
        """
        piv = self.pivots
        return [dict(sorted(piv[c].items())) for c in sorted(piv)]


def sparse_nullspace(rows: Iterable[dict], ncols: int) -> list[dict]:
    """Canonical basis of the kernel of a sparse integer system: the
    primitive integer multiples of its RREF rows, positive at their lead.

    `rows` is an iterable of {col: int} equations over the columns
    [0, ncols); it is consumed lazily so the equation set never has to be
    materialized.  A row whose columns are all unit columns of the
    `Echelon` (`units`) is a combination of unit pivots {c: 1}, so it is in
    the span already: it is skipped, neither copied nor inserted.  Every
    other row is copied before it is inserted, so the caller's rows are
    left unchanged.  Since `Echelon` pivots at a row's largest column,
    every reduced pivot row holds, besides its pivot, only free columns to
    the pivot's left.  The free-column basis vector of free column f then
    has its leading 1 at f and is zero at every other free column: it is
    already the RREF row, and no second elimination is needed.  Its
    canonical row leads with L_f, the lcm over the pivot rows r that meet f
    of r_c / gcd(r_f, r_c), r_c the pivot entry at c, and holds
    -r_f L_f / r_c at c, an int; a pass over the pivot rows whose pivot
    entry is not 1 gives each L_f that is not 1.  The rows are read off in
    one pass over the pivots, ascending, each pivot row's entry appended to
    its free column's row, so every row's keys ascend with no sort.
    Returns the rows sorted by leading column, keys ascending.

    Raises ValueError, naming the column, if a row holds a column outside
    [0, ncols).  The pivot rows span every row, so each column of a row is
    in one of them, and they are checked once, after the elimination.
    """
    ech = Echelon()
    units = ech.units
    for row in rows:
        if not units.issuperset(row):
            ech.insert(dict(row))
    ech.full_reduce()
    piv = ech.pivots
    for c, r in piv.items():  # c is the largest column of r
        k = c if c >= ncols else min(r)
        if not 0 <= k < ncols:
            raise ValueError(f"column {k} is outside [0, {ncols})")
    lead: dict[int, int] = {}  # free column f -> L_f, where it is not 1
    for c, r in piv.items():
        pv = r[c]
        if pv != 1:
            for k, v in r.items():
                if k != c:
                    lead[k] = lcm(lead.get(k, 1), pv // gcd(v, pv))
    basis = {j: {j: lead.get(j, 1)} for j in range(ncols) if j not in piv}
    for c in sorted(piv):
        r = piv[c]
        pv = r[c]
        for k, v in r.items():
            if k != c:
                row = basis[k]
                row[c] = -v * row[k] // pv
    return list(basis.values())


def canonical_rows(vectors: Iterable[dict]) -> list[dict]:
    """Canonical basis of the span of the rational sparse `vectors`: the
    primitive integer multiples of its RREF rows, positive at their lead.

    The rows are cleared by `integer_row` and enter `Echelon` with their
    columns negated, so its largest column is the smallest original one:
    the pivots are the leftmost-pivot RREF's, and the keys are mapped back
    on output.
    """
    ech = Echelon()
    for v in vectors:
        ech.insert({-k: x for k, x in integer_row(v).items()})
    ech.full_reduce()
    return [{-k: x for k, x in reversed(r.items())}
            for r in reversed(ech.canonical_rows())]


def check_canonical(rows: Sequence[Mapping]) -> None:
    """Raise ValueError, naming the row, unless the sparse `rows` are
    leading-1 RREF rows, the form the cache writes (each canonical row
    divided by its lead): each row is nonzero, stores no zero and leads
    with 1, the leads strictly increase, and no row is nonzero at another
    row's lead."""
    leads = [min(row, default=None) for row in rows]
    lead_set = set(leads)
    for i, (row, lead) in enumerate(zip(rows, leads)):
        if lead is None or not all(row.values()) or row[lead] != 1:
            raise ValueError(f"row {i} is not a nonzero row leading with 1")
        if i and lead <= leads[i - 1]:
            raise ValueError(f"row {i} does not lead after row {i - 1}")
        if len(lead_set.intersection(row)) != 1:
            raise ValueError(f"row {i} is nonzero at another row's lead")


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A linear subspace of Q^n with a canonical basis.

    Canonical form makes equality syntactic: two subspaces coincide iff
    their stored rows are equal.  The rows are sparse integer rows, each
    the primitive multiple of an RREF row, positive at its lead, kept in
    order and indexed by their pivot (leading) column.
    """

    __slots__ = ("ambient_dim", "_rows", "_pivots")

    def __init__(self, ambient_dim: int, canonical_sparse_rows: Sequence[dict]):
        rows = tuple(canonical_sparse_rows)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_pivots", {min(r): r for r in rows})

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return len(self._rows)

    def sparse_rows(self) -> tuple:
        return self._rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return self._rows == other._rows

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    def reduce_vector(self, vec: Mapping) -> dict:
        """Remainder of the sparse vector `vec` after reduction against the
        basis: nonzero entries only, none at a pivot column, each in normal
        form.  Each pivot is cleared by its basis row over the row's lead."""
        v = {k: x for k, x in vec.items() if x}
        piv = self._pivots
        # each basis row is zero at every other pivot, so clearing one pivot
        # leaves the others alone and the order does not matter
        for c in [c for c in v if c in piv]:
            row = piv[c]
            coef = v[c] if row[c] == 1 else Fraction(v[c], row[c])
            for k, x in row.items():
                nv = v.get(k, 0) - coef * x
                if nv:
                    v[k] = nv
                else:
                    del v[k]
        return {k: exact(x) for k, x in v.items()}

    def contains_vector(self, vec: Mapping) -> bool:
        return not self.reduce_vector(vec)

    def contains(self, other: "Subspace") -> bool:
        """True iff every row of `other` lies in this span.  A row is first
        looked up by its lead: one equal to this basis's row at that lead
        is in the span, and only the other rows are reduced."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if other.dim > self.dim:
            return False
        piv = self._pivots
        return all(piv.get(lead) == row or self.contains_vector(row)
                   for lead, row in other._pivots.items())


def span_of(vectors: Iterable[Mapping], ambient_dim: int) -> Subspace:
    """Canonical subspace equal to the linear span of the sparse
    {index: value} `vectors`; raises ValueError if an index is outside
    [0, ambient_dim)."""
    sparse = list(vectors)
    if any(v and (min(v) < 0 or max(v) >= ambient_dim) for v in sparse):
        raise ValueError("vector exceeds ambient dimension")
    return Subspace(ambient_dim, canonical_rows(sparse))


def signed_permutation(m: RealMatrix) -> dict[int, tuple[int, int]]:
    """{col: (row, +-1)} for a signed permutation matrix such as eta and
    the I_alpha; a zero column is allowed and has no key.  Raises
    ValueError for a column or a row with more than one entry, or an entry
    other than +-1."""
    perm = {}
    for pos, v in m.nz.items():
        row, col = divmod(pos, m.cols)
        if col in perm or v not in (1, -1):
            raise ValueError("expected a signed permutation matrix")
        perm[col] = (row, v)
    if len({row for row, _ in perm.values()}) < len(perm):
        raise ValueError("expected a signed permutation matrix")
    return perm


def invertible_permutation(m: RealMatrix) -> dict[int, tuple[int, int]]:
    """eta or an I_alpha as `signed_permutation` reads it, {col: (row,
    +-1)}; both are invertible, so a zero column, which
    `signed_permutation` allows, raises ValueError here too."""
    perm = signed_permutation(m)
    if len(perm) != m.cols:
        raise ValueError("expected an invertible signed permutation matrix")
    return perm


def compose(a: dict, b: dict) -> dict:
    """The product a b of two signed permutations read by
    `signed_permutation`, in the same form: b maps column c to its row r,
    then a maps column r to its row.  A zero column of either factor is a
    zero column of the product."""
    return {c: (a[r][0], a[r][1] * sign) for c, (r, sign) in b.items() if r in a}


def symmetric_signature(m: RealMatrix) -> tuple[int, int]:
    """Sign count (negatives, positives) of a symmetric signed permutation
    matrix, such as eta.  A fixed point adds its sign, and each 2-cycle is
    a hyperbolic plane, which adds one of each sign; a zero column is a
    degenerate direction, counted in neither slot.  Raises ValueError if
    the matrix is not symmetric or not a signed permutation."""
    perm = signed_permutation(m)
    if m.rows != m.cols or any(perm.get(row) != (col, sign)
                               for col, (row, sign) in perm.items()):
        raise ValueError("matrix is not symmetric")
    fixed = [sign for col, (row, sign) in perm.items() if row == col]
    planes = (len(perm) - len(fixed)) // 2
    return fixed.count(-1) + planes, fixed.count(1) + planes
