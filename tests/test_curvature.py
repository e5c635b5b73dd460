import json
import re
import tracemalloc
from collections import deque
from fractions import Fraction
from itertools import combinations
from math import comb
from types import SimpleNamespace

import pytest

from berger_lab import curvature as curv
from berger_lab import exactlin
from berger_lab.curvature import (CurvatureElement, CurvatureSpace, act,
                                  bianchi_residual_is_zero, bivector_pairs,
                                  build_r0, build_r1, coefficients_over,
                                  derivative_space, pair_symmetry_all,
                                  pair_symmetry_holds, restrict_check_degenerate,
                                  scalar)
from berger_lab.exactlin import RealMatrix, canonical_rows, check_canonical, span_of
from berger_lab.berger import berger_report, holonomy_case_split
from berger_lab.harness import (ALL_CHECKS, TIER1_CONFIGS, Session, cache_get,
                                cache_put, run_verification)
from berger_lab.liealg import ALGEBRA_NAMES, LieAlgebra, algebra_by_name
from berger_lab.quatspace import QuaternionicSpace
from conftest import (SPARSE_CASES, apply, basis_tensors, coefficients, commutator,
                      element_over, entry,
                      first_rows, flat_subspace, flat_vector, flat_vectors,
                      from_flat, ref_ricci, is_orbit_least, is_orbit_representative,
                      reference_bianchi_kernel, reference_coefficients_over, reference_coordinates,
                      reference_derivative_space,
                      reference_values, reference_wedge_rows, row_of,
                      is_normal, minus, same_tensor, structure_characters,
                      dense, identity, plus, product, scaled, transpose,
                      synthetic_element, tensors_built, tier2,
                      ungraded_bianchi_kernel, value, value_column, witt_weight)


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
    return not any(entry(value(el, a, b), d, c) + entry(value(el, b, c), d, a)
                   + entry(value(el, c, a), d, b)
                   for a, b, c in combinations(range(n), 3) for d in range(n))


def test_kernel_elements_satisfy_first_bianchi(session):
    space = kernel(session, "sp1+sp_w", 1, 1, 1)
    for el in basis_tensors(space)[:3]:
        assert satisfies_first_bianchi(el)
    # every basis tensor of every space the tier-1 checks compute
    tier1 = Session()
    for _, check in ALL_CHECKS:
        check(tier1, 1)
    spaces = tier1.computed_curvatures()
    assert len(spaces) > 1
    for curvature in spaces.values():
        assert all(bianchi_residual_is_zero(el) for el in basis_tensors(curvature))


# every registry algebra defined at each configuration; sp_w at (2,2,2),
# where weight blocks are relabelled, in tier 1
REFERENCE_CASES = SPARSE_CASES + [
    pytest.param(name, 2, 2, 2, marks=() if name == "sp_w" else tier2)
    for name in ALGEBRA_NAMES] + [
    pytest.param(name, 1, 3, 1, marks=tier2)
    for name in ("sp", "sp_w", "sp1", "sp1+sp", "sp1+sp_w")]


@pytest.mark.parametrize("name,r,s,t", REFERENCE_CASES)
def test_bianchi_kernel_matches_the_flat_reference(session, name, r, s, t):
    # Sym^2(g) -> Lambda^4 against the first-Bianchi map on Hom(Lambda^2, g)
    # compared through the space's flat view, re-canonicalised
    curvature = kernel(session, name, r, s, t)
    expected = reference_bianchi_kernel(curvature.algebra)
    assert curvature.dim == len(expected)
    assert canonical_rows(flat_vectors(curvature)) == expected


def bianchi_rows(algebra, blocks=None):
    """The rows `_bianchi_rows` streams for `algebra` over the compact
    columns of `blocks`, by default as `bianchi_kernel` calls it, and the
    Sym^2(g) column of each."""
    forms = curv._pairing_table(algebra)
    blocks = blocks or curv._weight_blocks(algebra)
    rows = curv._bianchi_rows(forms, algebra.space.real_dim, blocks.basis_weight,
                              blocks.column, blocks.character)
    return rows, blocks.kept


def character_components(row, bits):
    """The nonzero parts of a Sym^2(g) row, one per character of its
    columns, characters ascending: x_kl has the character bits[k] XOR
    bits[l]."""
    unknowns = curv._sym2_unknowns(len(bits))
    parts = [{}, {}, {}, {}]
    for j, v in row.items():
        k, l = unknowns[j]
        parts[bits[k] ^ bits[l]][j] = v
    return [part for part in parts if part]


@pytest.mark.parametrize("name,r,s,t", [("sp1+sp", 1, 1, 1), ("sp_w", 1, 3, 1),
                                        ("sp1+sp_w", 1, 2, 1), ("h0", 2, 2, 2),
                                        ("sp_w", 2, 2, 2)])
def test_streamed_rows_are_the_bianchi_rows(session, name, r, s, t):
    # the rows handed out one leading index at a time are the per-4-set
    # sums of the three splittings, 4-sets ascending, of the 4-sets whose
    # weight is its S_t-orbit's representative and which are the least
    # member of their orbit under the structure triple, each split into its
    # nonzero character components
    algebra = session.algebra(name, r, s, t)
    bits = structure_characters(algebra)
    assert bits is not None
    wedge = [(quad, row) for quad, row in reference_wedge_rows(algebra)
             if row and is_orbit_representative(witt_weight(algebra.space, quad))]
    expected = [part for quad, row in wedge if is_orbit_least(quad)
                for part in character_components(row, bits)]
    assert expected
    rows, kept = bianchi_rows(algebra)
    assert [{kept[j]: v for j, v in row.items()} for row in rows] == expected


def test_orbit_least_rule_matches_the_four_images():
    # the one-image rule of `_is_orbit_least` against all four images, on
    # every 4-set of 16 indices whose smallest index is 0 mod 4
    quads = [quad for quad in combinations(range(16), 4) if quad[0] % 4 == 0]
    assert [curv._is_orbit_least(*quad) for quad in quads] == [
        is_orbit_least(quad) for quad in quads]
    assert not all(map(is_orbit_least, quads))


def traced_peak(fn):
    """The tracemalloc peak, in bytes, of the call fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_only_one_leading_index_of_rows_is_alive(session):
    # the generator's peak while its rows are consumed one at a time,
    # against holding every row it hands out at once: the rows of one
    # smallest index are alive at a time, and each is dropped once it is
    # handed out
    algebra = session.algebra("sp_w", 3, 5, 1)
    blocks = curv._weight_blocks(algebra)  # built and kept before either measurement
    all_rows = traced_peak(lambda: list(bianchi_rows(algebra, blocks)[0]))
    streamed = traced_peak(lambda: deque(bianchi_rows(algebra, blocks)[0], maxlen=0))
    assert streamed < 0.75 * all_rows


@pytest.mark.parametrize("name,r,s,t,rows,nonzeros", [
    ("sp_w", 1, 3, 1, 311, 649),
    ("sp1+sp_w", 1, 3, 1, 701, 1096),
    ("h0", 3, 3, 3, 907, 1424),
])
def test_rows_handed_to_the_elimination_are_pinned(monkeypatch, name, r, s, t,
                                                   rows, nonzeros):
    # the reduction by the structure triple is part of the kernel's cost:
    # its one elimination takes exactly these rows and nonzeros, one 4-set
    # per orbit
    calls = []

    def counting(given, ncols):
        given = list(given)
        calls.append((len(given), sum(map(len, given))))
        return exactlin.sparse_nullspace(given, ncols)

    algebra = Session().algebra(name, r, s, t)
    monkeypatch.setattr(curv, "sparse_nullspace", counting)
    curv.bianchi_kernel(algebra)
    assert calls == [(rows, nonzeros)]


@pytest.mark.parametrize("name,r,s,t,zero", [
    ("sp_w", 1, 3, 1, 39),
    ("sp1+sp_w", 1, 3, 1, 38),
    ("h0", 3, 3, 3, 110),
])
def test_rows_reduced_to_zero_are_pinned(monkeypatch, name, r, s, t, zero):
    # the rows `Echelon.insert` reduces to zero are work that changes
    # nothing; a row set that read an orbit twice would add to them
    reduced = []
    insert = exactlin.Echelon.insert

    def counting(self, row):
        pivot = insert(self, row)
        reduced.append(pivot is None)
        return pivot

    algebra = Session().algebra(name, r, s, t)
    monkeypatch.setattr(exactlin.Echelon, "insert", counting)
    curv.bianchi_kernel(algebra)
    assert sum(reduced) == zero


# configurations with t >= 2, where the Witt pairs can be permuted
WITT_CONFIGS = [(2, 2, 2), (3, 3, 3), (3, 3, 2), (2, 4, 2), (3, 5, 2)]


def registry_algebras(session, r, s, t):
    """Every registry algebra defined at (r, s, t)."""
    for name in ALGEBRA_NAMES:
        try:
            yield session.algebra(name, r, s, t)
        except ValueError:
            pass  # glq and h0 need r = s = t


def witt_swap(space, i):
    """The permutation matrix that swaps the Witt pairs (p_i, q_i) and
    (p_{i+1}, q_{i+1}), built from the quaternionic indices."""
    n, m, t = space.real_dim, space.m, space.t
    swap = {i: i + 1, i + 1: i, m - t + i: m - t + i + 1, m - t + i + 1: m - t + i}
    return RealMatrix(n, n, {
        (4 * swap.get(x // 4, x // 4) + x % 4) * n + x: 1 for x in range(n)})


@pytest.mark.parametrize("r,s,t", WITT_CONFIGS)
def test_witt_transpositions_map_the_basis_to_signed_basis_matrices(session, r, s, t):
    # P B P^-1 = +- a basis matrix for each adjacent transposition P of the
    # Witt pairs, an isometry that commutes with the I_alpha, and every
    # basis matrix is a weight vector: w_d - w_c is the same at each of its
    # nonzero entries (d, c)
    algebras = list(registry_algebras(session, r, s, t))
    assert len(algebras) == (7 if r == s == t else 5)
    space = algebras[0].space
    n = space.real_dim
    for algebra in algebras:
        signed = {b: (k, 1) for k, b in enumerate(algebra.basis)}
        signed.update({scaled(b, -1): (k, -1) for k, b in enumerate(algebra.basis)})
        actions = curv._witt_transpositions(algebra)
        assert actions is not None and len(actions) == t - 1
        for i, action in enumerate(actions):
            p = witt_swap(space, i)
            assert product(p, space.eta, transpose(p)) == space.eta
            assert all(product(p, ialpha) == product(ialpha, p) for ialpha in space.I)
            assert [signed.get(product(p, b, transpose(p)))
                    for b in algebra.basis] == action
        for b in algebra.basis:
            assert len({tuple(x - y for x, y in zip(witt_weight(space, [pos // n]),
                                                  witt_weight(space, [pos % n])))
                        for pos in b.nz}) == 1
        assert curv._weight_blocks(algebra).actions == actions


@pytest.mark.parametrize("r,s,t", [(2, 2, 2), (3, 3, 2), (2, 4, 2),
                                   pytest.param(3, 3, 3, marks=tier2),
                                   pytest.param(3, 5, 2, marks=tier2)])
def test_relabelled_kernel_is_the_kernel_of_every_4_set(session, r, s, t):
    # one elimination of every 4-set's row, with no weight blocks, gives
    # the rows the relabelled blocks give
    for algebra in registry_algebras(session, r, s, t):
        expected = ungraded_bianchi_kernel(algebra)
        assert curv.bianchi_kernel(algebra).coefficient_subspace().sparse_rows() == tuple(
            expected)


def assert_refused(algebra, symmetry):
    """`bianchi_kernel` raises ValueError naming `algebra` and the
    `symmetry` its basis lacks, on every call: nothing is kept."""
    for _ in range(2):
        with pytest.raises(ValueError, match=rf"^{re.escape(algebra.name)}: {symmetry}"):
            curv.bianchi_kernel(algebra)


def test_a_basis_that_is_not_signed_permuted_is_refused(session, space222):
    # scaling one gl(r,H) basis matrix by 2 breaks the signed
    # permutation of the basis by the Witt transpositions
    h0 = session.algebra("h0", 2, 2, 2)
    rescaled = LieAlgebra("h0-scaled", space222, [
        scaled(b, 2) if k == 3 else b for k, b in enumerate(h0.basis)])
    assert_refused(rescaled, "Witt transposition 0 does not map basis element")


def test_a_basis_element_that_is_not_a_weight_vector_is_refused(session, space222):
    # the sum of two h0 basis matrices of weights (0, 0) and (-1, 1) has
    # bivectors of both weights in its 2-form
    h0 = session.algebra("h0", 2, 2, 2)
    weights = curv._weight_blocks(h0).basis_weight
    assert (weights[3], weights[7]) == ((0, 0), (-1, 1))
    basis = list(h0.basis)
    basis[3] = plus(basis[3], basis[7])
    mixed = LieAlgebra("h0-mixed-weight", space222, basis)
    assert_refused(mixed, "basis element 3 is not a weight vector")


@pytest.mark.parametrize("r,s,t", [(1, 1, 0), (1, 2, 1), (2, 2, 2), (3, 5, 1)])
def test_the_structure_triple_acts_on_components_by_xor(session, r, s, t):
    # I_alpha maps the real index x = 4a + c to x XOR alpha, with a sign:
    # it permutes the four components of each quaternionic coordinate, so
    # it keeps every Witt weight, and it preserves eta
    space = session.space(r, s, t)
    for alpha, ialpha in enumerate(space.I, start=1):
        perm = exactlin.signed_permutation(ialpha)
        assert sorted(perm) == list(range(space.real_dim))
        assert all(y == x ^ alpha for x, (y, _) in perm.items())
        assert product(ialpha, space.eta, transpose(ialpha)) == space.eta


@pytest.mark.parametrize("r,s,t", [(1, 1, 0), (1, 2, 0), (2, 1, 0), (1, 1, 1),
                                   (1, 2, 1), (2, 2, 1), (2, 2, 2), (2, 3, 2)])
def test_every_basis_conjugates_to_plus_minus_itself(session, r, s, t):
    # I_alpha B I_alpha^-1 = +-B for every basis matrix of every registry
    # algebra: +1 on sp(r,s), which commutes with the structure triple,
    # and on sp(1) -1 for the two I_beta that anticommute with I_alpha
    for algebra in registry_algebras(session, r, s, t):
        bits = structure_characters(algebra)
        assert bits is not None
        assert curv._structure_characters(algebra) == bits
        head = [2, 1, 3] if algebra.name.startswith("sp(1)") or algebra.name == "h0" else []
        assert bits == head + [0] * (algebra.dim - len(head))


def test_a_basis_whose_conjugate_is_another_basis_element_is_refused(session):
    # conjugation by I1 fixes I1 and negates I2, so it swaps I1 + I2 and
    # I1 - I2: each conjugate is a basis element, but not +- itself
    space = session.space(1, 1, 1)
    i1, i2, i3 = space.I
    swapped = LieAlgebra("sp1-swapped", space, [plus(i1, i2), minus(i1, i2), i3])
    assert structure_characters(swapped) is None
    assert_refused(swapped, "conjugation by I1 does not map basis element 0")
    sp1 = LieAlgebra("sp1", space, [i1, i2, i3])
    assert curv._structure_characters(sp1) == [2, 1, 3]


def test_a_basis_not_fixed_by_the_structure_triple_is_refused(session):
    # replacing I2 by I2 + I3 in sp1+sp_w keeps the algebra but not the
    # characters: conjugation by I1 negates I2 + I3, but conjugation by I2
    # takes it to I2 - I3
    algebra = session.algebra("sp1+sp_w", 1, 2, 1)
    basis = list(algebra.basis)
    assert basis[1:3] == list(algebra.space.I[1:])
    basis[1] = plus(basis[1], basis[2])
    mixed = LieAlgebra("sp1+sp_w-mixed", algebra.space, basis)
    assert structure_characters(mixed) is None
    assert_refused(mixed, "conjugation by I2 does not map basis element 1")


# every (r, s, t) with 1 <= r + s <= 6 and t <= min(r, s)
SWEEP_CONFIGS = [(r, s, t) for r in range(7) for s in range(7 - r) if r + s
                 for t in range(min(r, s) + 1)]


def sweep_algebras():
    """Every registry algebra at every configuration of `SWEEP_CONFIGS`."""
    session = Session()
    return [algebra for config in SWEEP_CONFIGS
            for algebra in registry_algebras(session, *config)]


def test_every_registry_algebra_has_the_symmetries_bianchi_kernel_needs():
    # the fact the refusals rest on: every registry algebra at every
    # (r, s, t) with 1 <= r + s <= 6 and t <= min(r, s) has a basis of
    # weight vectors that each Witt transposition maps to +- itself, and
    # that the structure triple maps to +- itself element by element
    algebras = sweep_algebras()
    assert len(algebras) == 197
    for algebra in algebras:
        blocks = curv._weight_blocks(algebra)
        assert len(blocks.actions) == max(algebra.space.t - 1, 0)
        assert len(blocks.character) == len(blocks.kept)


def test_every_registry_algebra_has_an_integral_basis():
    # the refusal of a non-integral basis entry costs no registry algebra:
    # all 197 at the configurations above are built, with entries +-1
    algebras = sweep_algebras()
    assert len(algebras) == 197
    assert all(v in (1, -1) for algebra in algebras for bmat in algebra.basis
               for v in bmat.nz.values())


def planted_space(space, **planted):
    """A copy of `space` with the planted `eta` or `I`."""
    return SimpleNamespace(**{**{name: getattr(space, name)
                                 for name in QuaternionicSpace.__slots__}, **planted})


def without_column(m, c):
    """`m` with its column c removed."""
    return RealMatrix(m.rows, m.cols, {pos: v for pos, v in m.nz.items()
                                       if pos % m.cols != c})


def test_a_zero_column_of_eta_or_the_structure_triple_is_refused(session, space111):
    # eta and the I_alpha are invertible signed permutations: each reader
    # refuses one with a zero column with ValueError, not KeyError
    i1, i2, i3 = space111.I
    no_i1 = planted_space(space111, I=(without_column(i1, 0), i2, i3))
    sp1 = LieAlgebra("sp(1)", no_i1, space111.I)
    for read in (curv._structure_characters, curv.bianchi_kernel):
        with pytest.raises(ValueError, match="invertible signed permutation"):
            read(sp1)
    no_eta = planted_space(space111, eta=without_column(space111.eta, 0))
    for read, name in ((curv.bianchi_kernel, "h0"), (build_r0, "sp1+sp"),
                       (lambda g: scalar(CurvatureElement(g, {})), "sp1+sp")):
        algebra = session.algebra(name, 1, 1, 1)
        with pytest.raises(ValueError, match="invertible signed permutation"):
            read(LieAlgebra(algebra.name, no_eta, algebra.basis))


@pytest.mark.parametrize("r,s,t", [(1, 1, 0), (1, 2, 1), (1, 3, 1), (2, 3, 1)])
def test_reduced_kernel_is_the_kernel_of_every_4_set(session, r, s, t):
    # one elimination of every 4-set's whole row gives the rows that the
    # 4-sets with a smallest index 0 mod 4, split by character, give
    for algebra in registry_algebras(session, r, s, t):
        assert curv._weight_blocks(algebra).character is not None
        expected = ungraded_bianchi_kernel(algebra)
        assert curv.bianchi_kernel(algebra).coefficient_subspace().sparse_rows() == tuple(
            expected)


@pytest.mark.parametrize("r", [1, 2, 3, pytest.param(4, marks=tier2),
                               pytest.param(5, marks=tier2)])
def test_sp_w_curvature_dimension_is_the_closed_form(r):
    # dim R(sp(r,r)_W) = r (r + 1) (2r + 1) (10r + 3) / 6 at (r, r, r),
    # read on the kernel itself, in a session of its own
    algebra = Session().algebra("sp_w", r, r, r)
    assert curv.bianchi_kernel(algebra).dim == (
        r * (r + 1) * (2 * r + 1) * (10 * r + 3) // 6)


@pytest.mark.parametrize("name,r,s,t", SPARSE_CASES)
def test_values_are_positive_multiples_of_the_reference_tensors(session, name, r, s, t):
    # each tensor `values` yields against the one its Sym^2 row defines,
    # read from eta and the basis matrices; at a subset of the bivectors,
    # it is the same tensor restricted there
    curvature = kernel(session, name, r, s, t)
    rows = curvature.coefficient_subspace().sparse_rows()
    tensors = list(curvature.values())
    assert len(tensors) == len(rows) == curvature.dim
    for tensor, x in zip(tensors, rows):
        expected = reference_values(curvature.algebra, x)
        assert list(tensor) == sorted(tensor) == sorted(expected)
        (ib, row), *_ = tensor.items()
        k = next(iter(row))
        factor = row[k] / expected[ib][k]
        assert factor > 0
        assert tensor == {ib: {k: factor * c for k, c in row.items()}
                          for ib, row in expected.items()}
        assert all(type(c) is int for row in tensor.values() for c in row.values())
    some = set(range(0, len(bivector_pairs(curvature.space.real_dim)), 3))
    assert list(curvature.values(some)) == [
        {ib: row for ib, row in tensor.items() if ib in some} for tensor in tensors]


def not_eta_skew(space, base):
    """`base` with one basis matrix appended that is not eta-skew: the
    identity, whose eta I = eta is symmetric, or E_{0, c}, where eta moves
    row 0 to row c, so that eta E_{0, c} has a diagonal entry at (c, c)."""
    n = space.real_dim
    c = exactlin.signed_permutation(space.eta)[0][0]
    return [
        LieAlgebra("with-identity", space, [*base.basis, identity(n)]),
        LieAlgebra("with-diagonal", space, [
            *base.basis, RealMatrix(n, n, {c: Fraction(1)})]),
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


def test_a_refusal_is_not_kept_on_the_algebra(session, space111):
    # the 2-form table is kept only once it is built: an algebra outside
    # so(V, eta) is refused on every call, and keeps no table
    for algebra in not_eta_skew(space111, session.algebra("h0", 1, 1, 1)):
        for _ in range(2):
            with pytest.raises(ValueError, match="eta-skew"):
                curv.bianchi_kernel(algebra)
        assert algebra._forms is None
        with pytest.raises(ValueError, match="eta-skew"):
            pair_symmetry_holds(synthetic_element(algebra))


def test_bianchi_kernel_follows_a_scaled_basis(session, space111):
    # basis matrices with entries other than +-1: a tensor's coefficients
    # scale inversely to its basis
    h0 = session.algebra("h0", 1, 1, 1)
    scales = {0: 2, 4: 3}
    rescaled = LieAlgebra("h0-scaled", space111, [
        scaled(b, scales.get(k, 1)) for k, b in enumerate(h0.basis)])
    curvature = curv.bianchi_kernel(rescaled)
    assert curvature.dim == 1
    el = build_r1(curvature)
    assert satisfies_first_bianchi(el)
    assert bianchi_residual_is_zero(el)
    r1 = build_r1(kernel(session, "h0", 1, 1, 1))
    expected = {key: Fraction(c, scales.get(key % h0.dim, 1))
                for key, c in flat_vector(r1).items()}
    got = flat_vector(el)
    ratio = got[min(got)] / expected[min(expected)]
    assert got == {key: ratio * c for key, c in expected.items()}


def test_antisymmetry_is_structural(session):
    el = basis_tensors(kernel(session, "sp", 1, 1, 1))[0]
    assert value(el, 3, 1) == scaled(value(el, 1, 3), -1)
    assert not value(el, 2, 2).nz


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
    assert flat_subspace(full).contains_vector(flat_vector(r0))


def test_r0_not_in_the_sp_part(session):
    full = kernel(session, "sp1+sp", 1, 1, 1)
    sub = kernel(session, "sp", 1, 1, 1)
    r0 = build_r0(full.algebra)
    assert not flat_subspace(over(sub, full.algebra)).contains_vector(flat_vector(r0))


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
    ric = ref_ricci(r0)
    eta = space111.eta
    n = space111.real_dim
    ratio = next(entry(ric, i, j) / entry(eta, i, j)
                 for i in range(n) for j in range(n) if entry(eta, i, j))
    assert ratio != 0
    assert ric == scaled(eta, ratio)


def test_flipped_wedge_convention_violates_bianchi(session, space111):
    # conformance pin: with (X ^ Y)Z = eta(X,Z)Y - eta(Y,Z)X the model
    # tensor stops satisfying the first Bianchi identity
    n = space111.real_dim
    eta = exactlin.signed_permutation(space111.eta)
    r0 = build_r0(session.algebra("sp1+sp", 1, 1, 1))

    def flipped_value(a, b):
        base = value(r0, a, b)
        ea, eb = {a: Fraction(1)}, {b: Fraction(1)}
        wedges = RealMatrix(n, n, curv._wedge_matrix(n, eta, ea, eb))
        for ialpha in space111.I:
            wedges = plus(wedges, RealMatrix(n, n, curv._wedge_matrix(
                n, eta, apply(ialpha, ea), apply(ialpha, eb))))
        # base - 2 * (1/4 wedges) flips the sign of the wedge part
        return minus(base, scaled(wedges, Fraction(1, 2)))

    violated = False
    for (a, b, c) in ((0, 1, 2), (0, 4, 5), (1, 3, 6)):
        cols = (apply(flipped_value(a, b), {c: 1}),
                apply(flipped_value(b, c), {a: 1}),
                apply(flipped_value(c, a), {b: 1}))
        if any(sum(col.get(d, 0) for col in cols) for d in range(n)):
            violated = True
            break
    assert violated


def test_ricci_of_zero_element_is_zero(session):
    alg = kernel(session, "sp1+sp", 1, 1, 1).algebra
    zero = CurvatureElement(alg, {})
    assert not ref_ricci(zero).nz
    assert scalar(zero) == 0


def test_sp_part_is_ricci_flat(session):
    # the trace-free summand of the split: every tensor over sp(1,1) alone
    sub = kernel(session, "sp", 1, 1, 1)
    for el in basis_tensors(sub):
        assert not ref_ricci(el).nz


# ---------------------------------------------------------------------------
# R1
# ---------------------------------------------------------------------------

def test_r1_is_normalized_generator(session):
    h0_curv = kernel(session, "h0", 1, 1, 1)
    r1 = build_r1(h0_curv)
    vec = flat_vector(r1)
    assert vec[min(vec)] == 1  # first nonzero coefficient in canonical order


@pytest.mark.parametrize("name,r,s,t", [
    ("h0", 1, 1, 1),
    pytest.param("h0", 2, 2, 2, marks=tier2)])
def test_r1_is_the_values_tensor_over_its_lead(session, name, r, s, t):
    curvature = kernel(session, name, r, s, t)
    (tensor,) = curvature.values()
    first = tensor[min(tensor)]
    lead = first[min(first)]
    r1 = build_r1(curvature)
    expected = CurvatureElement(curvature.algebra, {
        ib: {k: Fraction(c, lead) for k, c in row.items()} for ib, row in tensor.items()})
    assert same_tensor(r1, expected)
    assert all(is_normal(c) for row in r1.rows.values() for c in row.values())


def test_r1_rejects_wrong_dimension(session):
    with pytest.raises(ValueError, match="unexpected curvature space dimension"):
        build_r1(kernel(session, "sp", 1, 1, 1))


def test_r1_image_spans_h0(session):
    h0_curv = kernel(session, "h0", 1, 1, 1)
    r1 = build_r1(h0_curv)
    vectors = list(r1.rows.values())
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
            assert not value(r1, a, b).nz


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
    el = basis_tensors(kernel(session, "sp1+sp", 1, 1, 1))[5]
    zero = RealMatrix(8, 8, {})
    assert act(zero, el).is_zero()


def test_act_is_a_lie_algebra_action(session):
    def difference(x, y):
        vx, vy = flat_vector(x), flat_vector(y)
        return from_flat(x.algebra, {k: vx.get(k, 0) - vy.get(k, 0)
                                     for k in vx.keys() | vy.keys()})

    space = kernel(session, "sp1+sp_w", 1, 1, 1)
    alg = space.algebra
    el = basis_tensors(space)[2]
    picks = [(0, 4), (1, 7), (3, 9), (2, 5)]
    for i, j in picks:
        a, b = alg.basis[i], alg.basis[j]
        lhs = act(commutator(a, b), el)
        rhs = difference(act(a, act(b, el)), act(b, act(a, el)))
        assert same_tensor(lhs, rhs)


def test_act_values_stay_in_the_kernel(session):
    space = kernel(session, "sp1+sp_w", 1, 1, 1)
    sub = flat_subspace(space)
    for i in (0, 3):
        for el in basis_tensors(space)[:2]:
            moved = act(space.algebra.basis[i], el)
            assert sub.contains_vector(flat_vector(moved))


# ---------------------------------------------------------------------------
# degenerate pairs
# ---------------------------------------------------------------------------

def test_degenerate_vanishing_121(session):
    report = restrict_check_degenerate(kernel(session, "sp1+sp_w", 1, 2, 1))
    assert report.status == "pass"
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
    for i, el in enumerate(basis_tensors(curvature)):
        found += [(i, "R(p,X) != 0", (p, x)) for p in w for x in e
                  if value(el, p, x).nz]
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
    assert list(rebuilt.values()) == list(original.values())
    assert rebuilt.rows_json() == data
    assert rebuilt.to_json() == original.to_json()


# ---------------------------------------------------------------------------
# the sparse layer against a dense reference
# ---------------------------------------------------------------------------
#
# The reference below works on dense coefficient tables (read from the dense
# JSON form) and full value matrices, the way the tensors are defined.

def dense_coeffs(el):
    rows = coefficients(el)
    return [[rows.get(ib, {}).get(k, 0) for k in range(el.algebra.dim)]
            for ib in range(len(bivector_pairs(el.space.real_dim)))]


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
        values[a, b] = dense(n, n, out)
        values[b, a] = scaled(values[a, b], -1)
    for a in range(n):
        values[a, a] = RealMatrix(n, n, {})
    return values


def ref_act(a_mat, el, values):
    """Dense coefficient rows of [A, R(X,Y)] - R(AX, Y) - R(X, AY)."""
    n = el.space.real_dim
    rows = []
    for a, b in bivector_pairs(n):
        comm = commutator(a_mat, values[a, b])
        m = [entry(comm, i, j) for i in range(n) for j in range(n)]
        for d in range(n):
            for f, v in ((entry(a_mat, d, a), values[d, b]),
                         (entry(a_mat, d, b), values[a, d])):
                if f:
                    for i, x in v.nz.items():
                        m[i] -= f * x
        coords = reference_coordinates(el.algebra, dense(n, n, m))
        rows.append([coords.get(k, 0) for k in range(el.algebra.dim)])
    return rows


def ref_pair_symmetric(el, values):
    n = el.space.real_dim
    eta_r = {pair: product(el.space.eta, m) for pair, m in values.items()}
    # eta(R(X,Y)Z, U) = eta(R(Z,U)X, Y) on every basis quadruple
    return all(entry(eta_r[x, y], u, z) == entry(eta_r[z, u], y, x)
               for x in range(n) for y in range(n)
               for z in range(n) for u in range(n))


def ref_over(el, values, target):
    """Sparse coefficient vector of `el` over `target`, bivector-major, from
    the coordinates of its values."""
    return {ib * target.dim + k: c
            for ib, pair in enumerate(bivector_pairs(el.space.real_dim))
            for k, c in reference_coordinates(target, values[pair]).items()}


@pytest.mark.parametrize("name,r,s,t", SPARSE_CASES)
def test_sparse_layer_matches_dense_reference(session, name, r, s, t):
    curvature = kernel(session, name, r, s, t)
    space, algebra = curvature.space, curvature.algebra
    n = space.real_dim
    elements = list(basis_tensors(curvature)[:1]) + [synthetic_element(algebra)]
    target = session.algebra("sp1+sp", r, s, t)
    vectors = []
    # one acting matrix per element keeps the dense reference affordable
    for el, a_mat in zip(elements, (algebra.basis[0], algebra.basis[-1])):
        values = ref_values(el)
        dense = dense_coeffs(el)
        assert flat_vector(el) == {
            ib * algebra.dim + k: c
            for ib, row in enumerate(dense) for k, c in enumerate(row) if c}
        for (a, b), expected in values.items():
            assert value(el, a, b) == expected
            for col in range(n):
                assert value_column(el, a, b, col) == {
                    d: x for d in range(n) if (x := entry(expected, d, col))}
        assert dense_coeffs(act(a_mat, el)) == ref_act(a_mat, el, values)
        assert pair_symmetry_holds(el) == ref_pair_symmetric(el, values)
        vectors.append(ref_over(el, values, target))
        assert element_over(el, target) == vectors[-1]
    # the first row relabelled over the target, against its tensor's values
    first = first_rows(curvature, 1)
    assert flat_subspace(over(first, target)) == span_of(
        vectors[:first.dim], len(bivector_pairs(n)) * target.dim)


def scaled_sum(session):
    """sp(1)+sp(1,1) with two basis matrices scaled by 2 and 3: a basis
    with entries other than +-1."""
    full = session.algebra("sp1+sp", 1, 1, 1)
    scales = {0: 2, 5: 3}
    return LieAlgebra("sp1+sp-scaled", full.space, [
        scaled(b, scales.get(k, 1)) for k, b in enumerate(full.basis)])


@pytest.mark.parametrize("name", ["sp", "sp_w", "glq", "h0", "sp1+sp", "sp1+sp_w",
                                  "scaled"])
def test_act_by_a_rational_combination_matches_the_reference(session, name):
    # A = B_0 / 2 - 2 B_3 is no basis matrix and has a denominator, and the
    # element's coefficients have denominators too
    algebra = (scaled_sum(session) if name == "scaled"
               else session.algebra(name, 1, 1, 1))
    a_mat = plus(scaled(algebra.basis[0], Fraction(1, 2)), scaled(algebra.basis[3], -2))
    el = synthetic_element(algebra)
    assert el.den > 1
    moved = act(a_mat, el)
    assert dense_coeffs(moved) == ref_act(a_mat, el, ref_values(el))
    assert not moved.is_zero()
    assert all(type(c) is int and c for row in moved.rows.values() for c in row.values())


@pytest.mark.parametrize("name", ["sp", "sp_w", "sp1", "glq", "h0", "sp1+sp",
                                  "sp1+sp_w"])
def test_value_column_is_a_column_of_value(session, space111, name):
    # the columns of the value `_value` evaluates from `_columns` (the
    # degenerate check, the Bianchi residual and Ricci) are the reference
    # columns
    curvature = kernel(session, name, 1, 1, 1)
    n = space111.real_dim
    cols = curv._columns(curvature.algebra)
    elements = list(basis_tensors(curvature)) + [synthetic_element(curvature.algebra)]
    for el in elements:
        for a in range(n):
            for b in range(n):
                row, sign = row_of(el, a, b)
                reference = value(el, a, b)
                evaluated = curv._value(row, cols)
                for c in range(n):
                    column = evaluated.get(c, {})
                    assert {d: sign * v for d, v in column.items() if v} == (
                        value_column(el, a, b, c))
                    assert value_column(el, a, b, c) == {
                        d: x for d in range(n) if (x := entry(reference, d, c))}


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
    for basis in (full.basis[::-1], [scaled(b, 2) for b in full.basis]):
        target = LieAlgebra("sp1+sp_w", full.space, basis)
        with pytest.raises(ValueError, match="not a block"):
            coefficients_over(sub, target)
        assert reference_coefficients_over(sub, target).dim == sub.dim
    with pytest.raises(ValueError, match="not a block"):
        coefficients_over(kernel(session, "sp", 1, 1, 1), full)


@pytest.mark.parametrize("source,target", BLOCK_PAIRS)
def test_block_slots_read_the_basis_by_equality(session, source, target):
    # a summand's basis is one run of equal matrices in its sum's, found with
    # no elimination: a copy of the target keeps its Gram table unbuilt
    algebra = session.algebra(source, 1, 1, 1)
    full = session.algebra(target, 1, 1, 1)
    copy = LieAlgebra(full.name, full.space, full.basis)
    start = 0 if source == "sp1" else 3
    assert curv.block_slots(algebra, copy) == list(range(start, start + algebra.dim))
    assert copy._gram is None


def test_mixed_case_split_builds_no_tensor(monkeypatch):
    # the collapse compares canonical rows, so no kernel's basis is read
    built = tensors_built(monkeypatch)
    report = holonomy_case_split(1, 3, 1)
    assert report.case == "mixed-signature" and report.passed()
    assert built == []


@pytest.mark.parametrize("name", ["sp_w", "h0", "sp1+sp"])
def test_pair_symmetry_and_derivative_space_build_no_tensor(session, monkeypatch,
                                                            name):
    # both read the canonical rows through `values`, so a fresh kernel
    # builds no tensor
    computed = curv.bianchi_kernel(session.algebra(name, 1, 1, 1))
    built = tensors_built(monkeypatch)
    assert pair_symmetry_all(computed)
    derivative_space(computed)
    assert built == []


@pytest.mark.parametrize("name,r,s,t", [("h0", 1, 1, 1), ("sp1+sp_w", 1, 1, 1),
                                        ("sp1+sp_w", 1, 2, 1), ("glq", 1, 1, 1)])
def test_berger_report_and_degenerate_check_build_no_tensor(session, monkeypatch,
                                                            name, r, s, t):
    # both read a fresh kernel's values by bivector
    computed = curv.bianchi_kernel(session.algebra(name, r, s, t))
    built = tensors_built(monkeypatch)
    berger_report(computed)
    restrict_check_degenerate(computed)
    assert built == []


def test_tier1_run_builds_tensors_only_where_it_reads_them(monkeypatch):
    # R1 and its action over h0, and one R0 per configuration over
    # sp(1)+sp(r,s); none over sp(1)+sp(r,s)_W, whose Berger closure and
    # parabolic split read its rows and R1 over h0
    names = Session()
    h0 = names.algebra("h0", 1, 1, 1).name
    built = tensors_built(monkeypatch)
    assert all(check.status == "pass" for check in run_verification(1).checks)
    assert h0 in built
    assert sorted(name for name in built if name != h0) == sorted(
        names.algebra("sp1+sp", *config).name for config in TIER1_CONFIGS)


@pytest.mark.parametrize("name", ["sp_w", "h0", "sp1+sp_w"])
def test_kernel_values_build_no_tensor(session, monkeypatch, name):
    algebra = session.algebra(name, 1, 1, 1)
    expected = reference_bianchi_kernel(algebra)
    computed = curv.bianchi_kernel(algebra)
    built = tensors_built(monkeypatch)
    assert computed.dim == len(expected)
    assert canonical_rows(flat_vectors(computed)) == expected
    assert built == []


def test_synthetic_element_breaks_pair_symmetry(session):
    # the dense reference is not vacuous: it rejects an element as well
    algebra = session.algebra("sp1+sp", 1, 1, 1)
    el = synthetic_element(algebra)
    assert not ref_pair_symmetric(el, ref_values(el))
    assert not pair_symmetry_holds(el)


def test_a_missing_row_reads_as_one_read_only_empty_row(session):
    algebra = session.algebra("h0", 1, 1, 1)
    el = CurvatureElement(algebra, {1: {2: 1}})
    assert list(el.rows) == [1]
    empty, sign = row_of(el, 3, 3)
    assert (empty, sign) == ({}, 0)
    assert row_of(el, 2, 0) == ({2: 1}, -1)  # bivector 1 is (0, 2)
    for a, b, sign in ((0, 1, 1), (5, 1, -1)):
        assert row_of(el, a, b) == (empty, sign)
        assert row_of(el, a, b)[0] is empty
    with pytest.raises(TypeError):
        empty[0] = Fraction(1)
    assert row_of(CurvatureElement(algebra, {}), 0, 1)[0] is empty


@pytest.mark.parametrize("name,r,s,t", SPARSE_CASES)
def test_an_element_keeps_the_rows_values_yields(session, name, r, s, t):
    # the one tensor form: each tensor of `values` is an element's rows as
    # given, and the element reads back the same coefficients
    curvature = kernel(session, name, r, s, t)
    for tensor in curvature.values():
        el = CurvatureElement(curvature.algebra, tensor)
        assert el.rows == tensor
        assert all(list(row) == sorted(row) for row in el.rows.values())
        assert list(el.rows) == sorted(tensor)


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
    assert list(rebuilt.values()) == list(original.values())
    assert built == []  # both directions read and write the rows alone


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
