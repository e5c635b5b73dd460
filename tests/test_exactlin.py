import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from berger_lab.exactlin import (Echelon, RealMatrix, Subspace,
                                 canonical_rows, exact, rat_from_str,
                                 rat_to_str, ratio, span_of,
                                 sparse_nullspace, symmetric_signature)
from conftest import (apply, commutator, dense, entry, from_rows, identity, is_normal,
                      minus, nullspace, plus, product, row_dicts, scaled,
                      textbook_kernel, textbook_rref, transpose)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def small_matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(rationals, min_size=r * c, max_size=r * c).map(
                lambda ent: dense(r, c, ent))))


def M(rows):
    return from_rows([[Fraction(x) for x in row] for row in rows])


def dense_rows(m):
    """The entries of `m` as lists of rows, read through `entry`."""
    return [[entry(m, i, j) for j in range(m.cols)] for i in range(m.rows)]


def vec(*xs):
    """A sparse vector from its dense entries."""
    return {i: Fraction(x) for i, x in enumerate(xs) if x}


# ---------------------------------------------------------------------------
# rref
# ---------------------------------------------------------------------------

def test_rref_zero_matrix():
    assert canonical_rows(row_dicts(M([[0, 0], [0, 0]]))) == []


def test_rref_rank_one():
    assert canonical_rows(row_dicts(M([[2, 4], [1, 2]]))) == [vec(1, 2)]


def test_rref_diagonal_full_rank():
    assert canonical_rows(row_dicts(M([[1, 0], [0, 3]]))) == [vec(1), vec(0, 1)]


@given(small_matrices(max_dim=5))
@settings(max_examples=100, deadline=None)
def test_rref_matches_textbook_gauss_jordan(m):
    expected, piv = textbook_rref(dense_rows(m))
    rows = canonical_rows(row_dicts(m))
    assert rows == [{j: x for j, x in enumerate(r) if x}
                    for r in expected[:len(piv)]]
    assert [min(r) for r in rows] == piv


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    rows = canonical_rows(row_dicts(m))
    assert canonical_rows(rows) == rows


# ---------------------------------------------------------------------------
# nullspace
# ---------------------------------------------------------------------------

def test_nullspace_identity_is_zero():
    assert nullspace(identity(3)).dim == 0


def test_nullspace_zero_matrix_is_full():
    ker = nullspace(RealMatrix(2, 5, {}))
    assert ker.dim == 5
    assert ker.sparse_rows() == tuple({i: Fraction(1)} for i in range(5))


def test_nullspace_one_equation_canonical():
    ker = nullspace(M([[1, 1]]))
    assert ker.dim == 1
    assert ker.sparse_rows() == (vec(1, -1),)


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity_and_kernel_vectors(m):
    ker = nullspace(m)
    assert len(canonical_rows(row_dicts(m))) + ker.dim == m.cols
    for v in ker.sparse_rows():
        assert apply(m, v) == {}


@st.composite
def sparse_systems(draw):
    """Sparse integer equations {col: nonzero int} over 0..8 columns, with
    zero rows, repeated rows and columns that no row touches."""
    ncols = draw(st.integers(0, 8))
    touched = draw(st.lists(st.integers(0, ncols - 1), unique=True)) if ncols else []
    row = (st.dictionaries(st.sampled_from(touched), st.integers(-4, 4).filter(bool))
           if touched else st.just({}))
    rows = draw(st.lists(row, max_size=10))
    rows += [{}] * draw(st.integers(0, 2))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return draw(st.permutations(rows)), ncols


@given(sparse_systems())
@settings(max_examples=300, deadline=None)
def test_sparse_nullspace_is_the_canonical_kernel(system):
    rows, ncols = system
    before = [dict(row) for row in rows]
    kernel = sparse_nullspace(iter(rows), ncols)
    assert rows == before
    assert kernel == textbook_kernel(rows, ncols)
    for vec in kernel:
        assert list(vec) == sorted(vec)
        assert all(is_normal(v) for v in vec.values())
        for row in rows:
            assert sum(x * vec.get(k, 0) for k, x in row.items()) == 0


def test_sparse_nullspace_never_inserts_a_dead_row(monkeypatch):
    # {0: 2, 1: -5} lies on the unit columns 0 and 1 when it arrives, so it
    # is skipped; the last row meets column 2 and is inserted
    rows = [{0: 1}, {1: 3}, {0: 2, 1: -5}, {1: 1, 2: 1}]
    before = [dict(row) for row in rows]
    inserted = []
    insert = Echelon.insert

    def counting(self, row):
        inserted.append(dict(row))
        return insert(self, row)

    monkeypatch.setattr(Echelon, "insert", counting)
    kernel = sparse_nullspace(iter(rows), 4)
    assert inserted == [{0: 1}, {1: 3}, {1: 1, 2: 1}]
    assert rows == before
    assert kernel == textbook_kernel(rows, 4) == [{3: 1}]


def test_sparse_nullspace_reads_off_pivots_other_than_1():
    # reduced pivot rows {0: 1, 1: 4, 4: 2}, {0: 1, 2: 2}, {1: 1, 3: 1}
    # and {5: 1}: pivots 2 give a Fraction and an int, the pivot 1 an int,
    # and the free column 6 meets no pivot row; the pivot at 4 is stored
    # before the one at 2, so free column 0 is met at 4 first
    rows = [{0: 1, 1: 4, 4: 2}, {0: 1, 2: 2}, {1: 1, 3: 1}, {5: 3}]
    ech = Echelon()
    for row in rows:
        ech.insert(dict(row))
    ech.full_reduce()
    assert sorted(r[c] for c, r in ech.pivots.items()) == [1, 1, 2, 2]
    kernel = sparse_nullspace(iter(rows), 7)
    assert kernel == textbook_kernel(rows, 7) == [
        {0: 1, 2: Fraction(-1, 2), 4: Fraction(-1, 2)}, {1: 1, 3: -1, 4: -2}, {6: 1}]
    for vec in kernel:
        assert list(vec) == sorted(vec)
        assert all(is_normal(v) for v in vec.values())


@pytest.mark.parametrize("rows,column", [([{5: 1, 0: 1}], 5), ([{-1: 1, 2: 1}], -1)])
def test_sparse_nullspace_refuses_a_column_outside_ncols(rows, column):
    with pytest.raises(ValueError, match=rf"column {column} is outside \[0, 3\)"):
        sparse_nullspace(rows, 3)


@given(sparse_systems())
@settings(max_examples=300, deadline=None)
def test_canonical_rows_is_the_textbook_rref(system):
    rows, ncols = system
    red, piv = textbook_rref([[row.get(j, 0) for j in range(ncols)]
                              for row in rows])
    assert canonical_rows(rows) == [{j: x for j, x in enumerate(r) if x}
                                    for r in red[:len(piv)]]


@given(sparse_systems())
@settings(max_examples=300, deadline=None)
def test_echelon_insert_contract(system):
    rows, ncols = system
    ech = Echelon()
    for row in rows:
        rank = ech.rank
        gained = ech.insert(dict(row))
        assert ech.rank == rank + (gained is not None)
        for c, p in ech.pivots.items():
            assert max(p) == c and p[c] > 0 and gcd(*p.values()) == 1
            assert (len(p) == 1) == (c in ech.units)
            assert len(p) == 1 or not p.keys() & ech.units
    ech.full_reduce()
    for c, p in ech.pivots.items():
        assert (len(p) == 1) == (c in ech.units)
    # pivots sit at the largest column: the textbook RREF of the
    # column-reversed rows, mapped back
    last = ncols - 1
    red, piv = textbook_rref([[row.get(last - j, 0) for j in range(ncols)]
                              for row in rows])
    assert ech.canonical_rows() == [{last - j: x for j, x in enumerate(r) if x}
                                    for r in reversed(red[:len(piv)])]


def test_shorter_row_takes_over_the_pivot():
    ech = Echelon()
    assert ech.insert({0: 1, 1: 1, 3: 1}) == 3
    assert ech.insert({0: 1, 1: 1, 2: -1}) == 2
    # {2: 1, 3: 1} displaces {0: 1, 1: 1, 3: 1}, which then reduces to zero
    assert ech.insert({2: 1, 3: 1}) is None
    assert ech.rank == 2
    assert ech.pivots == {3: {2: 1, 3: 1}, 2: {0: -1, 1: -1, 2: 1}}
    assert not ech.units


def test_unit_pivot_deletes_its_column_in_cascade():
    ech = Echelon()
    assert ech.insert({0: 1, 1: 1}) == 1
    assert ech.insert({0: 1, 2: 1}) == 2
    assert ech.insert({0: 1, 3: 2, 4: 2}) == 4
    # {0: 1} deletes column 0 from every row: two become unit pivots too,
    # and the third is made primitive again
    assert ech.insert({0: 1}) == 0
    assert ech.pivots == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}, 4: {3: 1, 4: 1}}
    assert ech.units == {0, 1, 2}


# ---------------------------------------------------------------------------
# spans and subspaces
# ---------------------------------------------------------------------------

def test_span_empty_is_zero():
    sub = span_of([], 4)
    assert sub.dim == 0 and sub.sparse_rows() == ()


def test_span_collinear_vectors():
    sub = span_of([vec(1, 0), vec(2, 0)], 2)
    assert sub.dim == 1


def test_span_full_plane():
    assert span_of([vec(1, 0), vec(0, 1)], 2).dim == 2


def test_subspace_equal_scaling():
    assert span_of([vec(1, 0)], 2) == span_of([vec(2, 0)], 2)


def test_subspace_strict_containment():
    line = span_of([vec(1, 0)], 2)
    plane = span_of([vec(1, 0), vec(0, 1)], 2)
    assert plane.contains(line)
    assert plane != line


def test_zero_subspaces_equal():
    assert span_of([], 3) == Subspace(3, ())


def test_ambient_mismatch_raises():
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        span_of([vec(1)], 1) == span_of([vec(1, 0)], 2)
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        span_of([vec(1)], 1).contains(span_of([vec(1, 0)], 2))
    with pytest.raises(ValueError, match="exceeds ambient dimension"):
        span_of([vec(0, 0, 1)], 2)


vec3 = st.lists(rationals, min_size=3, max_size=3).map(lambda xs: vec(*xs))


@given(st.lists(vec3, min_size=1, max_size=4), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_span_invariant_under_shuffle_and_rescale(vecs, rng):
    sub = span_of(vecs, 3)
    shuffled = list(vecs)
    rng.shuffle(shuffled)
    scaled = [{k: Fraction(3, 2) * x for k, x in v.items()} for v in shuffled]
    assert sub == span_of(scaled + shuffled, 3)


@given(st.lists(vec3, min_size=1, max_size=3), st.lists(vec3, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_subspace_equality_is_equivalence(a_vecs, b_vecs):
    a = span_of(a_vecs, 3)
    b = span_of(b_vecs, 3)
    assert a == a
    if a == b:
        assert b == a
        assert a.contains(b) and b.contains(a)


@given(sparse_systems(), st.data())
@settings(max_examples=300, deadline=None)
def test_reduce_vector_contract(system, data):
    rows, ncols = system
    sub = span_of(rows, ncols)
    v = data.draw(st.dictionaries(st.integers(0, ncols - 1), rationals)
                  if ncols else st.just({}))
    rest = sub.reduce_vector(v)
    assert not rest.keys() & {min(row) for row in sub.sparse_rows()}
    assert all(is_normal(x) and x for x in rest.values())
    # v - rest lies in the span: adding it to the rows keeps the rank
    diff = {k: v.get(k, 0) - rest.get(k, 0) for k in v.keys() | rest.keys()}
    assert len(canonical_rows(rows + [diff])) == sub.dim
    in_span = len(canonical_rows(rows + [v])) == sub.dim
    assert sub.contains_vector(v) == (not rest) == in_span


# ---------------------------------------------------------------------------
# serialization and scalar format
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value,expected", [
    (Fraction(3, 4), "3/4"),
    (Fraction(5), "5"),
    (Fraction(-7, 2), "-7/2"),
    (Fraction(0), "0"),
])
def test_rational_string_format(value, expected):
    assert rat_to_str(value) == expected
    assert rat_from_str(expected) == value


def test_matrix_json_round_trip():
    # the dense string form of a matrix round-trips through rat_from_str
    m = M([[Fraction(1, 2), 3], [-4, Fraction(0)]])
    strings = [[rat_to_str(x) for x in row] for row in dense_rows(m)]
    assert strings == [["1/2", "3"], ["-4", "0"]]
    assert from_rows([[rat_from_str(x) for x in row] for row in strings]) == m


@pytest.mark.parametrize("text,value", [
    ("2/2", 1), ("0/7", 0), ("-3/4", Fraction(-3, 4)), ("-12", -12),
    ("007", 7), ("-0", 0),
])
def test_rat_from_str_returns_the_normal_form(text, value):
    x = rat_from_str(text)
    assert x == value and is_normal(x)


def test_rat_from_str_rejects_a_superscript_digit():
    # "²".isdigit() holds, but it is no spelling of a rational
    with pytest.raises(ValueError):
        rat_from_str("²")


@given(st.text(alphabet="0123456789-+/._e ²١", max_size=6))
@settings(max_examples=300, deadline=None)
def test_rat_from_str_accepts_exactly_what_rat_to_str_writes(text):
    # rat_to_str writes "p" or "p/q": ASCII digits, p with an optional "-"
    _, slash, den = text.partition("/")
    if re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text) is None:
        with pytest.raises(ValueError):
            rat_from_str(text)
    elif slash and int(den) == 0:
        with pytest.raises(ZeroDivisionError):
            rat_from_str(text)
    else:
        x = rat_from_str(text)
        assert x == Fraction(text) and is_normal(x)
        assert rat_from_str(rat_to_str(x)) == x


@pytest.mark.parametrize("a,b,value", [
    (6, 3, 2), (-6, 3, -2), (0, 5, 0), (3, 4, Fraction(3, 4)),
    (3, -4, Fraction(-3, 4)), (-8, -4, 2),
])
def test_ratio_is_the_exact_quotient_in_normal_form(a, b, value):
    x = ratio(a, b)
    assert x == value and is_normal(x)


def test_ratio_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ratio(1, 0)


@pytest.mark.parametrize("x,value", [
    (3, 3), (Fraction(4, 2), 2), (Fraction(-1, 2), Fraction(-1, 2)),
    (True, 1), (0.5, Fraction(1, 2)), ("6/4", Fraction(3, 2)),
])
def test_exact_gives_the_normal_form(x, value):
    y = exact(x)
    assert y == value and is_normal(y)


# ---------------------------------------------------------------------------
# matrix utilities
# ---------------------------------------------------------------------------

def test_matrix_arithmetic():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert product(a, b) == M([[2, 1], [4, 3]])
    assert minus(plus(a, b), b) == a
    assert scaled(scaled(a, -1), -1) == a
    assert transpose(transpose(a)) == a
    assert entry(a, 0, 0) + entry(a, 1, 1) == 5


def test_a_matrix_is_read_only_by_its_entries():
    # the package composes no matrices: eta and the I_alpha are read as
    # signed permutations, and the tests' arithmetic lives in conftest
    methods = {name for name, v in vars(RealMatrix).items() if callable(v)}
    assert methods == {"__init__", "__setattr__", "__eq__", "__hash__", "__repr__"}
    # `Subspace` defines `__eq__` and no `__hash__`, so it is unhashable
    assert Subspace.__hash__ is None


def test_symmetric_signature():
    assert symmetric_signature(M([[-1, 0], [0, 1]])) == (1, 1)
    assert symmetric_signature(identity(3)) == (0, 3)
    # hyperbolic plane: congruent to diag(1, -1)
    assert symmetric_signature(M([[0, 1], [1, 0]])) == (1, 1)
    assert symmetric_signature(M([[0, -1, 0], [-1, 0, 0], [0, 0, -1]])) == (2, 1)
    # a zero column is a degenerate direction, counted in neither slot
    assert symmetric_signature(M([[1, 0], [0, 0]])) == (0, 1)
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_signature(M([[0, 1], [0, 0]]))
    # symmetric, but not a signed permutation: the signature is not counted
    with pytest.raises(ValueError, match="signed permutation"):
        symmetric_signature(M([[2, 0], [0, 1]]))


# ---------------------------------------------------------------------------
# the sparse matrix against a dense reference
# ---------------------------------------------------------------------------
#
# The reference works on lists of Fraction rows.  Entries are drawn mostly
# zero, and as ints as well as Fractions, so that sparsity and coercion are
# both exercised.

sparse_entries = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), rationals)


def dense_matrices(rows, cols):
    return st.lists(st.lists(sparse_entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda rs: [[Fraction(x) for x in r] for r in rs])


def ref_sparse(ref):
    return {i * len(row) + j: v
            for i, row in enumerate(ref) for j, v in enumerate(row) if v}


def ref_matmul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def ref_combine(a, b, f):
    return [[f(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_transpose(a):
    return [list(col) for col in zip(*a)]


def matches(m, ref):
    """`m` has the shape and the nonzero entries of `ref`, and stores
    nothing but nonzero Fractions."""
    assert all(is_normal(v) and v != 0 for v in m.nz.values())
    return (m.rows, m.cols) == (len(ref), len(ref[0])) and \
        dict(m.nz) == ref_sparse(ref)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_sparse_matrix_matches_dense_reference(data):
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    ra, rc = data.draw(dense_matrices(n, k)), data.draw(dense_matrices(n, k))
    rb = data.draw(dense_matrices(k, m))
    v = data.draw(st.lists(sparse_entries, min_size=k, max_size=k))
    c = data.draw(rationals)
    a, b = from_rows(ra), from_rows(rb)
    cm = dense(n, k, [x for row in rc for x in row])
    assert matches(a, ra) and matches(cm, rc)
    assert matches(product(a, b), ref_matmul(ra, rb))
    assert matches(plus(a, cm), ref_combine(ra, rc, lambda x, y: x + y))
    assert matches(minus(a, cm), ref_combine(ra, rc, lambda x, y: x - y))
    assert matches(scaled(a, c), [[c * x for x in row] for row in ra])
    assert matches(transpose(a), ref_transpose(ra))
    image = {i: y for i, row in enumerate(ra)
             if (y := sum((x * Fraction(w) for x, w in zip(row, v)), Fraction(0)))}
    assert apply(a, {j: w for j, w in enumerate(v) if w}) == image
    with pytest.raises(ValueError, match="column count"):
        apply(a, {k: Fraction(1)})
    assert all(entry(a, i, j) == ra[i][j] for i in range(n) for j in range(k))
    assert (a == cm) == (ra == rc)
    if ra == rc:
        assert hash(a) == hash(cm)
    reordered = RealMatrix(n, k, dict(reversed(ref_sparse(ra).items())))
    assert reordered == a and hash(reordered) == hash(a)


@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(dense_matrices(n, n), dense_matrices(n, n))))
@settings(max_examples=60, deadline=None)
def test_sparse_commutator_matches_dense_reference(pair):
    ra, rb = pair
    a, b = from_rows(ra), from_rows(rb)
    expected = ref_combine(ref_matmul(ra, rb), ref_matmul(rb, ra),
                           lambda x, y: x - y)
    assert matches(commutator(a, b), expected)


@pytest.mark.parametrize("n", [0, 1, 3, 4])
def test_dense_zeros_equal_the_empty_sparse_matrix(n):
    dense_zero = dense(n, n, [0] * (n * n))
    empty = RealMatrix(n, n, {})
    assert dense_zero == empty
    assert hash(dense_zero) == hash(empty)
    assert not dense_zero.nz
    assert identity(n) == dense(
        n, n, [int(i == j) for i in range(n) for j in range(n)])


def test_the_constructor_copies_and_drops_zeros():
    given = {0: Fraction(2), 3: Fraction(0)}
    m = RealMatrix(2, 2, given)
    given[1] = Fraction(5)  # the matrix keeps its own copy
    assert dict(m.nz) == {0: Fraction(2)}
    with pytest.raises(TypeError):
        m.nz[1] = Fraction(1)
