import hashlib
from fractions import Fraction
from types import SimpleNamespace

import pytest

from berger_lab import liealg
from berger_lab.curvature import block_slots
from berger_lab.exactlin import RealMatrix, Subspace, span_of
from berger_lab.liealg import (LieAlgebra, algebra_by_name, build_glq, build_h0,
                               build_sp, build_sp1, build_sp_parabolic,
                               direct_sum, sp_dimension,
                               sp_parabolic_dimension, stabilizer_of_subspace)
from berger_lab.quatspace import build_space
from conftest import (apply, commutator, coordinates_of, dual_W1, entry, flat_span,
                      from_rows, identity, is_closed, is_metric_skew, is_normal,
                      nullspace, plus, reference_coordinates, scaled, subspace_W)


def preserves_subspace(g, v):
    """True iff B*x lies in V for every basis element B and x in V."""
    return all(v.contains_vector(apply(b, vec))
               for b in g.basis for vec in v.sparse_rows())


def eta_skew_commutant_oracle(space):
    """Independent characterization of the realified sp(r, s): all real
    matrices that are eta-skew and commute with I1 and I2, computed as one
    big nullspace over the n^2 matrix entries."""
    n = space.real_dim
    eta, (i1, i2, _) = space.eta, space.I
    rows = []
    # eta*M + M^t*eta = 0
    for a in range(n):
        for b in range(n):
            row = [Fraction(0)] * (n * n)
            for i in range(n):
                row[i * n + b] += entry(eta, a, i)
                row[i * n + a] += entry(eta, b, i)  # (M^t eta)_{ab} = sum_i M_{ia} eta_{ib}
            rows.append(row)
    # M*I - I*M = 0 for I in (I1, I2)
    for imat in (i1, i2):
        for a in range(n):
            for b in range(n):
                row = [Fraction(0)] * (n * n)
                for i in range(n):
                    row[a * n + i] += entry(imat, i, b)
                    row[i * n + b] -= entry(imat, a, i)
                rows.append(row)
    return nullspace(from_rows(rows))


@pytest.mark.parametrize("r,s,t,expected_dim", [(1, 1, 1, 10), (1, 2, 1, 21)])
def test_sp_matches_skew_commutant_oracle(r, s, t, expected_dim):
    space = build_space(r, s, t)
    sp = build_sp(space)
    assert sp.dim == expected_dim == sp_dimension(r, s)
    oracle = eta_skew_commutant_oracle(space)
    assert oracle.dim == expected_dim
    assert oracle == flat_span(sp.basis, space.real_dim)


def test_sp_basis_is_eta_skew():
    space = build_space(1, 1, 1)
    assert is_metric_skew(build_sp(space))


def test_sp1_dimension_and_brackets():
    space = build_space(1, 1, 1)
    sp1 = build_sp1(space)
    assert sp1.dim == 3
    i1, i2, i3 = sp1.basis
    assert commutator(i1, i2) == scaled(i3, 2)
    assert commutator(i2, i3) == scaled(i1, 2)
    assert commutator(i3, i1) == scaled(i2, 2)


@pytest.mark.parametrize("r,s,t", [(1, 1, 1), (1, 2, 1)])
def test_sp1_centralizes_sp(r, s, t):
    space = build_space(r, s, t)
    sp1 = build_sp1(space)
    sp = build_sp(space)
    for a in sp1.basis:
        for b in sp.basis:
            assert not commutator(a, b).nz


@pytest.mark.parametrize("r,s,t,expected", [(1, 1, 1, 7), (1, 2, 1, 14),
                                            (2, 2, 2, 26)])
def test_parabolic_dimension(r, s, t, expected):
    space = build_space(r, s, t)
    spw = build_sp_parabolic(space)
    assert spw.dim == expected == sp_parabolic_dimension(r, s, t)
    assert preserves_subspace(spw, subspace_W(space))


# every space with 1 <= r + s <= 4 that has a Witt part
WITT_CONFIGS = [(r, m - r, t) for m in range(2, 5) for r in range(1, m)
                for t in range(1, min(r, m - r) + 1)]


@pytest.mark.parametrize("r,s,t", WITT_CONFIGS,
                         ids=["-".join(map(str, c)) for c in WITT_CONFIGS])
def test_parabolic_is_exact_stabilizer(r, s, t):
    space = build_space(r, s, t)
    sp = build_sp(space)
    spw = build_sp_parabolic(space)
    stab = stabilizer_of_subspace(sp, space.w_indices())
    assert stab == Subspace(sp.dim, [{m: 1} for m in block_slots(spw, sp)])
    # the stabilizer's elements as matrices span sp_w's over n^2 columns
    n = space.real_dim
    mats = [plus(RealMatrix(n, n, {}),
                 *(scaled(sp.basis[k], c) for k, c in row.items()))
            for row in stab.sparse_rows()]
    assert flat_span(mats, n) == flat_span(spw.basis, n)


def test_stabilizer_of_a_block_the_algebra_preserves_is_everything():
    space = build_space(1, 1, 1)
    h0 = build_h0(space)
    stab = stabilizer_of_subspace(h0, space.w_indices())
    assert stab == Subspace(h0.dim, [{k: 1} for k in range(h0.dim)])


def test_full_sp_does_not_preserve_w():
    space = build_space(1, 1, 1)
    assert not preserves_subspace(build_sp(space), subspace_W(space))


def test_parabolic_requires_witt_part():
    with pytest.raises(ValueError):
        build_sp_parabolic(build_space(1, 1, 0))


@pytest.mark.parametrize("r,expected", [(1, 4), (2, 16)])
def test_glq_dimension(r, expected):
    space = build_space(r, r, r)
    glq = build_glq(space)
    assert glq.dim == expected
    spw = build_sp_parabolic(space)
    n = space.real_dim
    assert flat_span(spw.basis, n).contains(flat_span(glq.basis, n))
    assert preserves_subspace(glq, subspace_W(space))
    assert preserves_subspace(glq, dual_W1(space))


def test_glq_requires_split_signature():
    with pytest.raises(ValueError):
        build_glq(build_space(1, 2, 1))


@pytest.mark.parametrize("r,expected", [(1, 7), (2, 19)])
def test_h0_dimension_and_closure(r, expected):
    h0 = build_h0(build_space(r, r, r))
    assert h0.dim == expected
    assert is_closed(h0)


def test_h0_preserves_both_isotropic_blocks():
    space = build_space(1, 1, 1)
    h0 = build_h0(space)
    assert preserves_subspace(h0, subspace_W(space))
    assert preserves_subspace(h0, dual_W1(space))


@pytest.mark.parametrize("name,r,s,t,expected", [
    ("sp1+sp", 1, 1, 1, 13),
    ("sp1+sp_w", 1, 1, 1, 10),
    ("sp1+sp_w", 1, 2, 1, 17),
])
def test_direct_sum_dimensions(name, r, s, t, expected):
    assert algebra_by_name(name, build_space(r, s, t)).dim == expected


def test_direct_sum_rejects_overlap():
    # the first summand must be sp(1), the structure triple itself, in
    # order; g must commute with it, and its basis must be independent
    space = build_space(1, 1, 1)
    sp1, glq = build_sp1(space), build_glq(space)
    i1, i2, i3 = space.I
    for first in (glq, LieAlgebra("sp(1)", space, [i2, i1, i3])):
        with pytest.raises(ValueError, match="is not sp\\(1\\)"):
            direct_sum(first, sp1)
    with pytest.raises(ValueError, match="not a direct sum"):
        direct_sum(sp1, build_sp1(space))
    # the real scalars of gl(1,H) commute with sp(1), so only the spans clash
    repeated = LieAlgebra("c", space, [glq.basis[0], glq.basis[0]])
    assert repeated.characters() == (0, 0)
    with pytest.raises(ValueError, match="linearly dependent"):
        direct_sum(sp1, repeated)


def test_direct_sum_eliminates_the_sum_once(monkeypatch):
    # the overlap check builds the Gram table that integer_coordinates
    # reuses: one span_of over the rows [G | I], 2 dim columns (a matrix
    # has no product to call; see test_a_matrix_is_read_only_by_its_entries);
    # the commute check reads the character tables and brackets nothing
    calls = []

    def counted(vectors, ambient_dim):
        calls.append(ambient_dim)
        return span_of(vectors, ambient_dim)

    def no_brackets(*args):
        raise AssertionError("direct_sum computed a bracket")

    space = build_space(1, 1, 1)
    sp1, glq = build_sp1(space), build_glq(space)
    monkeypatch.setattr(liealg, "span_of", counted)
    monkeypatch.setattr(liealg, "brackets", no_brackets)
    h0 = direct_sum(sp1, glq)
    assert coordinates_of(h0, plus(space.I[0], glq.basis[1])) == {0: 1, 4: 1}
    assert calls == [2 * h0.dim]
    assert h0.characters() == (2, 1, 3, 0, 0, 0, 0)


def test_direct_sum_finds_the_one_pair_that_does_not_commute():
    # g = span{I1} commutes with I1 but not with I2, so its one character
    # is not trivial; placed last in a g whose other elements commute with
    # sp(1), it is still found
    space = build_space(1, 1, 1)
    sp1, sp = build_sp1(space), build_sp(space)
    i1 = space.I[0]
    for basis in ([i1], [*sp.basis[:2], i1]):
        g = LieAlgebra("g", space, basis)
        assert [(a, b) for a in range(3) for b in range(len(basis))
                if commutator(space.I[a], basis[b]).nz] == [(1, len(basis) - 1),
                                                            (2, len(basis) - 1)]
        assert g.characters()[-1] == 2
        with pytest.raises(ValueError, match="not a direct sum"):
            direct_sum(sp1, g)


def test_direct_sum_rejects_non_commuting():
    # I1 plus an element of sp(1,1) is fixed by conjugation by I1, but I2
    # takes it to the sp element minus I1, not +- itself: the kernel's
    # refusal, reported by direct_sum as not commuting
    space = build_space(1, 1, 1)
    mixed = LieAlgebra("mixed", space, [plus(space.I[0], build_sp(space).basis[0])])
    with pytest.raises(ValueError, match="conjugation by I2 does not map basis element 0"):
        mixed.characters()
    with pytest.raises(ValueError, match="^not a direct sum: summands do not commute$"):
        direct_sum(build_sp1(space), mixed)


def test_direct_sum_needs_i3_to_be_i1_i2():
    # commuting with I1 and I2 gives commuting with I3 only when I3 = I1 I2
    space = build_space(1, 1, 1)
    i1, i2, i3 = space.I
    planted = SimpleNamespace(I=(i1, i2, scaled(i3, -1)))
    sp1 = LieAlgebra("sp(1)", planted, planted.I)
    glq = LieAlgebra("gl(1,H)", planted, build_glq(space).basis)
    with pytest.raises(ValueError, match="I3 is not I1 I2"):
        direct_sum(sp1, glq)


@pytest.mark.parametrize("name", ["sp", "sp_w", "sp1", "glq", "h0",
                                  "sp1+sp", "sp1+sp_w"])
def test_registry_algebras_close_and_respect_metric(name):
    space = build_space(1, 1, 1)
    alg = algebra_by_name(name, space)
    assert is_closed(alg)
    assert is_metric_skew(alg)


def test_registry_unknown_name():
    with pytest.raises(KeyError, match="unknown algebra"):
        algebra_by_name("nosuch", build_space(1, 1, 1))


def _check_coordinates_round_trip(name):
    alg = algebra_by_name(name, build_space(1, 1, 1))
    combo = plus(scaled(alg.basis[0], Fraction(1, 2)), scaled(alg.basis[3], -2),
                 scaled(alg.basis[-1], Fraction(3, 7)))
    coords = coordinates_of(alg, combo)
    assert coords == {0: Fraction(1, 2), 3: Fraction(-2),
                      alg.dim - 1: Fraction(3, 7)}
    assert list(coords) == sorted(coords)
    assert plus(RealMatrix(8, 8, {}),
                *(scaled(alg.basis[k], c) for k, c in coords.items())) == combo
    assert coordinates_of(alg, identity(8)) is None


def test_coordinates_round_trip():
    _check_coordinates_round_trip("sp")


def test_coordinates_round_trip_over_a_sum():
    _check_coordinates_round_trip("sp1+sp")


def test_a_basis_with_a_non_integral_entry_is_refused():
    # an integral multiple of the element spans the same line, and is kept
    space = build_space(1, 1, 1)
    i1, i2, i3 = space.I
    with pytest.raises(ValueError, match="^basis of halved has a non-integral entry"):
        LieAlgebra("halved", space, [scaled(i1, Fraction(1, 2)), i2, i3])
    assert LieAlgebra("doubled", space, [scaled(i1, 2), i2, i3]).dim == 3


def test_dependent_basis_is_rejected():
    space = build_space(1, 1, 1)
    i1, i2, _ = space.I
    for basis in ([i1, i1], [i1, i2, plus(scaled(i1, 2), i2)]):
        dup = LieAlgebra("dup", space, basis)
        with pytest.raises(ValueError, match="linearly dependent"):
            coordinates_of(dup, i1)


def test_coordinates_over_a_basis_that_is_not_orthogonal():
    # <I1, I1 + I2> != 0, so the Gram matrix is not diagonal; the second
    # basis also has entries other than +-1, so G^-1 has other denominators
    space = build_space(1, 1, 1)
    i1, i2, i3 = space.I
    half = Fraction(1, 2)
    for basis in ([i1, plus(i1, i2), i3],
                  [scaled(i1, 2), plus(scaled(i1, 3), i2), i3]):
        skew = LieAlgebra("skew", space, basis)
        for k, b in enumerate(skew.basis):
            assert coordinates_of(skew, b) == {k: 1}
        combo = plus(scaled(skew.basis[0], Fraction(2, 3)), scaled(skew.basis[1], -5),
                     scaled(skew.basis[2], Fraction(1, 4)))
        coords = coordinates_of(skew, combo)
        assert coords == {0: Fraction(2, 3), 1: -5, 2: Fraction(1, 4)}
        assert all(is_normal(c) for c in coords.values())
        for m in (combo, i2, plus(i1, scaled(i3, half)), commutator(i1, i2),
                  sp_off(space)):
            assert coordinates_of(skew, m) == reference_coordinates(skew, m)
        assert coordinates_of(skew, identity(8)) is None
        assert coordinates_of(skew, sp_off(space)) is None


def test_integer_coordinates_read_the_columns_of_the_nonzero_inner_products():
    # I2 meets only I1 + I2 in [I1, I1 + I2, I3]: one nonzero inner product,
    # whose column of den G'^-1 holds two coordinates
    space = build_space(1, 1, 1)
    i1, i2, i3 = space.I
    skew = LieAlgebra("skew", space, [i1, plus(i1, i2), i3])
    den, coords = skew.integer_coordinates(dict(i2.nz))
    assert coords == {0: -den, 1: den} and list(coords) == [0, 1]
    index, gram_den, columns = skew._gram
    assert gram_den == den
    assert [list(column) for column in columns] == [[0, 1], [0, 1], [2]]
    # over an orthogonal basis each basis matrix meets itself alone
    sp = build_sp(space)
    for k, b in enumerate(sp.basis):
        den, coords = sp.integer_coordinates(dict(b.nz))
        assert coords == {k: den}


def test_integer_coordinates_of_a_position_outside_the_index_are_none():
    # (0, 0) is on the diagonal, where no I_alpha has an entry: no basis
    # element meets it, so the matrix is outside the span
    space = build_space(1, 1, 1)
    sp1 = build_sp1(space)
    assert 0 not in sp1.kept("_gram", liealg._build_gram)[0]
    assert sp1.integer_coordinates({0: 1}) is None
    assert sp1.integer_coordinates({**space.I[0].nz, 0: 3}) is None
    assert sp1.integer_coordinates({0: 0, **space.I[0].nz}) is not None


def sp_off(space):
    """An element of sp(1,1) outside sp(1): it commutes with I1, I2, I3."""
    return build_sp(space).basis[-1]


# every registry algebra wherever it is defined, against the augmented span
COORDINATE_CASES = [(name, r, s, t) for r, s, t in
                    ((1, 1, 1), (1, 2, 1), (1, 3, 1), (2, 2, 2), (3, 3, 3))
                    for name in liealg.ALGEBRA_NAMES
                    if name not in ("glq", "h0") or r == s == t]


@pytest.mark.parametrize("name,r,s,t", COORDINATE_CASES, ids=[
    f"{name}-{r}-{s}-{t}" for name, r, s, t in COORDINATE_CASES])
def test_coordinates_match_the_reference(session, name, r, s, t):
    alg = session.algebra(name, r, s, t)
    basis, dim = alg.basis, alg.dim
    n = alg.space.real_dim
    for k, b in enumerate(basis):
        assert coordinates_of(alg, b) == {k: 1} == reference_coordinates(alg, b)
    combo = plus(scaled(basis[0], Fraction(1, 2)), scaled(basis[dim // 2], -2),
                 scaled(basis[-1], Fraction(3, 7)))
    flipped = dict(basis[-1].nz)
    pos = min(flipped)
    flipped[pos] = -flipped[pos]
    probes = [combo, commutator(basis[0], basis[-1]),
              commutator(basis[1], basis[dim // 2]),
              RealMatrix(n, n, flipped), identity(n)]
    for m in probes:
        coords = coordinates_of(alg, m)
        assert coords == reference_coordinates(alg, m)
        if coords is not None:
            assert list(coords) == sorted(coords)
            assert all(is_normal(c) for c in coords.values())
    assert coordinates_of(alg, combo) == {0: Fraction(1, 2), dim // 2: -2,
                                         dim - 1: Fraction(3, 7)}
    assert coordinates_of(alg, identity(n)) is None


def test_algebra_json_shape():
    # an algebra has no JSON form; its shape is these fields
    space = build_space(1, 1, 1)
    alg = build_sp1(space)
    assert alg.name == "sp(1)" and alg.dim == 3
    assert alg.basis[0] == space.I[0]


# sha256 of repr([sorted(b.nz.items()) for b in alg.basis]): every basis
# matrix of sp, sp_w (t >= 1) and glq (r = s = t), in basis order, for each
# space with 1 <= r + s <= 4.  Reports and cache entries depend on this order.
PINNED_BASES = {
    ("sp", 0, 1, 0):
        "a225614b95252d560ddfd676ededf36d4e344facefaf1c657e44a5d38610ebc0",
    ("sp", 1, 0, 0):
        "a225614b95252d560ddfd676ededf36d4e344facefaf1c657e44a5d38610ebc0",
    ("sp", 0, 2, 0):
        "17c12ce8cf0b2e6cc1aa79c70b4f036967da5af86e39a8545800b5a69d30bc1d",
    ("sp", 1, 1, 0):
        "442ba4f74e7ea5792121c943028f641725b1184be6eb0043d28c944bb4ca970c",
    ("sp", 1, 1, 1):
        "5ab62849caf073fafb2c23cec0c92a8b53b335407e041e976f9568d40a194986",
    ("sp_w", 1, 1, 1):
        "6a3bb41b7491cb4570da1768ab8375dc56a095ef5452d4cb2146f2c95c06354e",
    ("glq", 1, 1, 1):
        "554f0fb4b9bbcdc7e690b04c0fbc7890e109a202164eb82c4ad9f2124198b6a8",
    ("sp", 2, 0, 0):
        "17c12ce8cf0b2e6cc1aa79c70b4f036967da5af86e39a8545800b5a69d30bc1d",
    ("sp", 0, 3, 0):
        "b792c8dc1ee8e15bdecfb908675af421bbc46ff343aceb1b7416bb341f58079b",
    ("sp", 1, 2, 0):
        "dae6f55aab1a42f36a8dc096dd674e812d607214a5eb265c33d0f6f6c960186a",
    ("sp", 1, 2, 1):
        "c3b29b2460ab6a0eafff646d54a53804b717656af14b6c558ff52a435a7bf4de",
    ("sp_w", 1, 2, 1):
        "48de1c7ce797ba1ba37964161302945a881f6fb2fc587a2d2a7b424a3f92b2a1",
    ("sp", 2, 1, 0):
        "c04436949cc05e6c2b74e251b15db6b4ce09147bf2a37ca083dc70468be40d05",
    ("sp", 2, 1, 1):
        "34266f98527197df8ce825660370e335fc12098095e9b0e7c182ce1d00eba13c",
    ("sp_w", 2, 1, 1):
        "8d342dab450e91bc8507e03abb83544e4abe0805ed6ab230431874c5500a457c",
    ("sp", 3, 0, 0):
        "b792c8dc1ee8e15bdecfb908675af421bbc46ff343aceb1b7416bb341f58079b",
    ("sp", 0, 4, 0):
        "ebcc2fb359fbf2d12349ebbe08f7066e25f9e554a951a302da84d7ea438ac9c5",
    ("sp", 1, 3, 0):
        "2cc62a75f66762dbe5e56dc0a5a7528c543f3a7fd7f865674996ae6f2c4d03c4",
    ("sp", 1, 3, 1):
        "d4251192b4424ebc43eddfed8f57b265256290e33bfc1d5a110f679c1170b000",
    ("sp_w", 1, 3, 1):
        "b8021bfbebaa09bd81173b645f4954aaa6103947948bfb3cae978e9668b64bfe",
    ("sp", 2, 2, 0):
        "d61b897b93543a382a5f17cd33e14775b7d281bf852e22fcdacdca4bcc72e2ea",
    ("sp", 2, 2, 1):
        "9e73061c8ef9bd13023eeda2a640729fd00f50eda7a9e7d283449ee7df4b52d6",
    ("sp_w", 2, 2, 1):
        "433814dbf039e7f9cb668293d8a7204c722c03b71e8aa375d18eaaace718e07b",
    ("sp", 2, 2, 2):
        "c280f5295263cc60d83d4d9b92a684d2dd64d676a2c91cbf273247f72dd3cf67",
    ("sp_w", 2, 2, 2):
        "d8e15e8082d99d0625d9d49a34244672e478fa7f5f34da01377c7d5311b277d2",
    ("glq", 2, 2, 2):
        "1e7c2b08ea129f7b81e770ee03bbab6c934d24b02d7b3c02d2115315e37dfabe",
    ("sp", 3, 1, 0):
        "c7fe62d5048f7b2669d74f839367fd6322d5da9d1387ae3c8b664c918d5d4911",
    ("sp", 3, 1, 1):
        "d500d8d3fd6e02e5ea1538c013181db561770f2378ae85b5dc1957e3a49321e7",
    ("sp_w", 3, 1, 1):
        "041cc471b26a128cca4f998cafdd312c0bb7c256b6af6b1ef35ca11db31ab2fd",
    ("sp", 4, 0, 0):
        "ebcc2fb359fbf2d12349ebbe08f7066e25f9e554a951a302da84d7ea438ac9c5",
}


def test_pinned_bases_cover_every_small_space():
    assert {(r, s, t) for _, r, s, t in PINNED_BASES} == {
        (r, m - r, t) for m in range(1, 5) for r in range(m + 1)
        for t in range(min(r, m - r) + 1)}


@pytest.mark.parametrize("key,expected", PINNED_BASES.items(),
                         ids=["-".join(map(str, key)) for key in PINNED_BASES])
def test_basis_order_is_pinned(key, expected):
    name, r, s, t = key
    alg = algebra_by_name(name, build_space(r, s, t))
    text = repr([sorted(b.nz.items()) for b in alg.basis])
    assert hashlib.sha256(text.encode()).hexdigest() == expected
