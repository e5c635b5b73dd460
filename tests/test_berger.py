import pytest

from berger_lab.berger import (SCOPE_NOTE, _restriction_witness, berger_report,
                               holonomy_case_split, split_failures)
from berger_lab.curvature import (CurvatureElement, CurvatureSpace, build_r1,
                                  coefficients_over)
from berger_lab.exactlin import span_of
from berger_lab.harness import (Session, check_full_split,
                                check_mixed_signature_collapse,
                                check_parabolic_split)
from berger_lab.liealg import LieAlgebra
from conftest import (basis_tensors, element_over, entry, first_rows, flat_vector,
                      from_flat, tier2, value)


def berger_closure(g, curvature):
    """Reference Berger closure: the span of all values R(e_a, e_b) as a
    subspace of g-coordinates, by `span_of` over every value at once."""
    vectors = [row for el in basis_tensors(curvature) for row in el.rows.values()]
    return span_of(vectors, g.dim)


def test_h0_is_berger(session):
    report = berger_report(session.curvature("h0", 1, 1, 1))
    assert report.is_berger
    assert report.closure_dim == 7 == report.algebra_dim
    assert report.curvature_dim == 1


def test_parabolic_with_sp1_is_berger(session):
    report = berger_report(session.curvature("sp1+sp_w", 1, 1, 1))
    assert report.is_berger
    assert report.closure_dim == 10 == report.algebra_dim


def test_glq_is_not_berger(session):
    report = berger_report(session.curvature("glq", 1, 1, 1))
    assert not report.is_berger
    assert report.curvature_dim == 0
    assert report.closure_dim == 0


def test_closure_contained_in_algebra_coordinates(session):
    alg = session.algebra("sp1+sp_w", 1, 2, 1)
    closure = berger_closure(alg, session.curvature("sp1+sp_w", 1, 2, 1))
    assert closure.ambient_dim == alg.dim
    assert closure.dim <= alg.dim


@pytest.mark.parametrize("name,r,s,t", [
    ("h0", 1, 1, 1), ("glq", 1, 1, 1), ("sp_w", 1, 1, 1), ("sp1+sp_w", 1, 1, 1),
    ("sp1+sp", 1, 1, 1), ("sp_w", 1, 2, 1), ("sp1+sp_w", 1, 2, 1)])
def test_report_closure_is_the_reference_span(session, name, r, s, t):
    alg = session.algebra(name, r, s, t)
    curvature = session.curvature(name, r, s, t)
    report = berger_report(curvature)
    closure = berger_closure(alg, curvature)
    assert report.closure_dim == closure.dim == len(report.witnesses)
    assert report.is_berger == (closure.dim == alg.dim)


def test_closure_monotone_in_curvature_input(session):
    alg = session.algebra("sp1+sp_w", 1, 1, 1)
    full = session.curvature("sp1+sp_w", 1, 1, 1)
    partial = first_rows(full, 4)
    dim_partial = berger_closure(alg, partial).dim
    dim_full = berger_closure(alg, full).dim
    assert dim_partial <= dim_full
    assert berger_report(partial).closure_dim == dim_partial


def test_witnesses_span_the_closure(session):
    alg = session.algebra("h0", 1, 1, 1)
    report = berger_report(session.curvature("h0", 1, 1, 1))
    curvature = session.curvature("h0", 1, 1, 1)
    from berger_lab.curvature import bivector_pairs
    pairs = bivector_pairs(alg.space.real_dim)
    tensors = basis_tensors(curvature)
    span = span_of([tensors[idx].rows[pairs.index((a, b))]
                    for (a, b), idx in report.witnesses], alg.dim)
    assert span.dim == report.closure_dim == len(report.witnesses)


def test_report_json_carries_scope_note(session):
    data = berger_report(session.curvature("glq", 1, 1, 1)).to_json()
    assert data["note"] == SCOPE_NOTE
    assert data["is_berger"] is False


# ---------------------------------------------------------------------------
# the decision procedure
# ---------------------------------------------------------------------------

def test_decision_split_signature_case(session):
    report = holonomy_case_split(1, 1, 1, session=session)
    assert report.case == "split-signature"
    assert report.passed()
    assert report.verdict == "confirmed"
    ids = [c.check_id for c in report.checks]
    assert ids == ["h0-curvature-line", "parabolic-split", "h0-berger",
                   "parabolic-berger", "restriction-multiple"]


def test_decision_mixed_signature_case(session):
    report = holonomy_case_split(1, 2, 1, session=session)
    assert report.case == "mixed-signature"
    assert report.passed()
    assert [c.check_id for c in report.checks] == ["collapse-equality"]


@tier2
@pytest.mark.parametrize("r,s,t,dim_sp_w", [(3, 3, 3, 462), (3, 4, 3, 666),
                                            (4, 4, 4, 1290)])
def test_decision_confirms_at_scale(r, s, t, dim_sp_w):
    # the largest configurations the suite runs, each in a session of its
    # own so that its kernels are freed afterwards
    session = Session()
    report = holonomy_case_split(r, s, t, session=session)
    assert report.verdict == "confirmed"
    assert session.curvature("sp_w", r, s, t).dim == dim_sp_w
    full = session.curvature("sp1+sp_w", r, s, t).dim
    if r + s == 2 * t:
        assert report.case == "split-signature"
        # the closed form fitted to r = 1..5; sp(1) adds the line through R1
        assert dim_sp_w == r * (r + 1) * (2 * r + 1) * (10 * r + 3) // 6
        assert full == dim_sp_w + 1
    else:
        assert report.case == "mixed-signature"
        assert full == dim_sp_w


def test_decision_rejects_bad_witt_rank():
    with pytest.raises(ValueError):
        holonomy_case_split(1, 1, 0)
    with pytest.raises(ValueError):
        holonomy_case_split(1, 1, 2)


class DropsOneSpWTensor(Session):
    """Drops the last canonical row of every sp(r,s)_W and sp(r,s)
    curvature space."""

    def curvature(self, name, r, s, t):
        real = super().curvature(name, r, s, t)
        if name in ("sp_w", "sp"):
            return first_rows(real, real.dim - 1)
        return real


@pytest.fixture(scope="module")
def tampered():
    return DropsOneSpWTensor()


def test_decision_reports_falsification_loudly(tampered):
    report = holonomy_case_split(1, 1, 1, session=tampered)
    assert not report.passed()
    assert report.verdict.startswith("CLAIM FALSIFIED AT (1,1,1)")
    failing = {c.check_id for c in report.checks if c.status == "fail"}
    assert "parabolic-split" in failing


def test_split_checks_fail_on_a_dropped_tensor(tampered):
    # R(full) still holds R(sub), but is two larger: each failing check
    # names that condition, and the generator's conditions still hold
    parabolic = check_parabolic_split(tampered, 1)
    assert parabolic.status == "fail"
    assert parabolic.computed["r=1"]["failed"] == ["dims_add_up"]
    assert parabolic.computed["r=1"]["r1_spans_complement"]
    full = check_full_split(tampered, 1)
    assert full.status == "fail"
    assert full.computed["failed"] == ["dims_add_up"]
    assert full.computed["r0_in_full"] and not full.computed["r0_in_sub"]
    split = holonomy_case_split(1, 1, 1, session=tampered).checks[1]
    assert (split.check_id, split.status) == ("parabolic-split", "fail")
    assert split.details["failed"] == ["dims_add_up"]
    mixed = check_mixed_signature_collapse(tampered, 1)
    assert mixed.status == "fail" and mixed.computed["failed"] == ["dims_add_up"]
    collapse = holonomy_case_split(1, 2, 1, session=tampered).checks[0]
    assert (collapse.check_id, collapse.status) == ("collapse-equality", "fail")
    assert collapse.details["failed"] == ["dims_add_up"]


def r1_over_full(session, r, s, t):
    """R1 as a tensor over sp(1)+sp(r,s)_W."""
    r1 = build_r1(session.curvature("h0", r, s, t))
    full = session.algebra("sp1+sp_w", r, s, t)
    return from_flat(full, element_over(r1, full))


def reference_w_blocks(curvature):
    """(basis index, (p, q)) for every basis tensor and pair (p, q) in
    W x W1 at which R(e_p, e_q) has a nonzero W x W block, read from the
    value matrices."""
    space = curvature.space
    w = list(space.w_indices())
    return [(i, (p, q)) for i, el in enumerate(basis_tensors(curvature))
            for p in w for q in space.w1_indices()
            if any(entry(value(el, p, q), a, b) for a in w for b in w)]


@pytest.mark.parametrize("name,r,expected", [
    ("sp_w", 1, 0), ("sp1+sp_w", 1, 16), ("h0", 1, 16),
    pytest.param("sp_w", 2, 0, marks=tier2),
    pytest.param("sp1+sp_w", 2, 64, marks=tier2),
    pytest.param("h0", 2, 64, marks=tier2)])
def test_restriction_identity_holds_on_sp_w_rows_only(session, name, r, expected):
    # handed R(sp(1)+sp(r,r)_W)'s or R(h0)'s rows in place of
    # R(sp(r,r)_W)'s, the identity must fail: both hold R1
    curvature = session.curvature(name, r, r, r)
    blocks = reference_w_blocks(curvature)
    assert len(blocks) == expected
    witness = _restriction_witness(curvature)
    if expected:
        assert (witness["element"], witness["pair"]) == blocks[0]
    else:
        assert witness is None


def test_restriction_multiple_fails_on_a_wrong_r1_component(session):
    # another complement of line(R1) in R(sp(1)+sp(1,1)_W): R(sp(1,1)_W)
    # over the full algebra with the one row of R(full) outside it added to
    # its first row, so one tensor has an R1-component the identity does
    # not account for
    full = session.curvature("sp1+sp_w", 1, 1, 1)
    embedded = coefficients_over(session.curvature("sp_w", 1, 1, 1), full.algebra)
    assert _restriction_witness(CurvatureSpace(full.algebra, embedded.sparse_rows())) is None
    (outside,) = [row for row in full.coefficient_subspace().sparse_rows()
                  if not embedded.contains_vector(row)]
    rows = list(embedded.sparse_rows())
    rows[0] = {k: rows[0].get(k, 0) + outside.get(k, 0)
               for k in rows[0].keys() | outside.keys()}
    other = span_of(rows, embedded.ambient_dim)
    assert other.dim == embedded.dim and other != embedded
    witness = _restriction_witness(CurvatureSpace(full.algebra, other.sparse_rows()))
    assert set(witness) == {"element", "pair"}


def test_restriction_multiple_reads_r1_over_its_own_algebra(session):
    # R1 enters the split over h0, whose basis is the head of
    # sp(1)+sp(r,r)_W's, and is read there through `block_slots`: over the
    # full algebra it gives the same verdict, and over a reordered h0 basis,
    # with the coefficients permuted to match, it is refused as no block,
    # as `coefficients_over` refuses such a target
    space = session.space(1, 1, 1)
    full = session.curvature("sp1+sp_w", 1, 1, 1)
    sp_w = session.curvature("sp_w", 1, 1, 1)
    r1 = build_r1(session.curvature("h0", 1, 1, 1))
    assert split_failures(full, sp_w, r1) == []
    assert split_failures(full, sp_w, r1_over_full(session, 1, 1, 1)) == []
    dimg = r1.algebra.dim
    flipped = {ib: {dimg - 1 - k: c for k, c in row.items()}
               for ib, row in r1.rows.items()}
    reordered = CurvatureElement(
        LieAlgebra("h0", space, r1.algebra.basis[::-1]), flipped, r1.den)
    assert reordered.algebra.basis != r1.algebra.basis
    assert element_over(reordered, full.algebra) == element_over(r1, full.algebra)
    with pytest.raises(ValueError, match="not a block"):
        split_failures(full, sp_w, reordered)


def test_a_generator_over_sp_w_has_no_sp1_part(session):
    # an R(sp(1,1)_W) tensor over its own algebra, with coefficients at
    # indices below 3 of sp(1,1)_W's basis: those are full.algebra's
    # elements m_k >= 3, never sp(1)'s
    full = session.curvature("sp1+sp_w", 1, 1, 1)
    sp_w = session.curvature("sp_w", 1, 1, 1)
    (inside,) = [el for el in basis_tensors(sp_w)
                 if any(k < 3 for row in el.rows.values() for k in row)][:1]
    assert split_failures(full, sp_w, inside) == ["generator_has_sp1_part"]


def test_restriction_multiple_names_a_failed_decomposition(session, tampered):
    # one sp(r,r)_W tensor short, line(R1) + R(sub) misses a basis tensor
    (*_, restriction) = holonomy_case_split(1, 1, 1, session=tampered).checks
    assert restriction.check_id == "restriction-multiple"
    assert restriction.status == "fail"
    assert restriction.details == {"reason": "split decomposition failed"}
    # a generator inside R(sp(r,r)_W) has no sp(1) part
    full = session.curvature("sp1+sp_w", 1, 1, 1)
    sp_w = session.curvature("sp_w", 1, 1, 1)
    inside = from_flat(full.algebra, element_over(basis_tensors(sp_w)[0], full.algebra))
    assert split_failures(full, sp_w, inside) == ["generator_has_sp1_part"]


def test_split_predicates_name_the_failed_condition(session, tampered):
    full = session.curvature("sp1+sp_w", 1, 1, 1)
    sp_w = session.curvature("sp_w", 1, 1, 1)
    r1_vec = r1_over_full(session, 1, 1, 1)
    assert split_failures(full, sp_w, r1_vec) == []
    assert split_failures(full, tampered.curvature("sp_w", 1, 1, 1),
                          r1_vec) == ["dims_add_up"]
    zero = CurvatureElement(full.algebra, {})
    assert split_failures(full, sp_w, zero) == ["generator_has_sp1_part"]
    # R1 with one sp(1) coefficient moved is no curvature tensor
    bent = flat_vector(r1_vec)
    key = next(key for key in bent if key % full.algebra.dim < 3)
    bent[key] += 1
    assert split_failures(full, sp_w, from_flat(full.algebra, bent)) == [
        "generator_is_curvature"]
    # a row that is no curvature tensor of sp(1,1)_W is not in R(full)
    stray = CurvatureSpace(sp_w.algebra, [{0: 1}])
    assert split_failures(full, stray, r1_vec) == ["dims_add_up", "sub_in_full"]
    assert split_failures(session.curvature("sp1+sp_w", 1, 2, 1),
                          session.curvature("sp_w", 1, 2, 1)) == []
    assert split_failures(full, sp_w) == ["dims_add_up"]


def contains_and_same_dim(full, sub):
    """The collapse predicate as it stood before equality of canonical rows:
    equal dimensions and R(full) containing R(sub)."""
    embedded = coefficients_over(sub, full.algebra)
    full_sub = full.coefficient_subspace()
    return embedded.dim == full_sub.dim and full_sub.contains(embedded)


@pytest.mark.parametrize("r,s,t", [(r, s, t) for r in (1, 2, 3) for s in (1, 2, 3)
                                   for t in range(1, min(r, s) + 1)])
def test_collapses_is_the_dimension_and_containment_test(session, r, s, t):
    full = session.curvature("sp1+sp_w", r, s, t)
    sub = session.curvature("sp_w", r, s, t)
    collapses = split_failures(full, sub) == []
    assert collapses == contains_and_same_dim(full, sub)
    assert collapses == (r + s != 2 * t)


def test_collapses_fails_on_a_dropped_tensor(tampered):
    full = tampered.curvature("sp1+sp_w", 1, 2, 1)
    sub = tampered.curvature("sp_w", 1, 2, 1)
    assert split_failures(full, sub) == ["dims_add_up"]
    assert not contains_and_same_dim(full, sub)


def test_report_json_shape(session):
    data = holonomy_case_split(1, 2, 1, session=session).to_json()
    assert data["case"] == "mixed-signature"
    assert data["verdict"] == "confirmed"
    assert data["note"] == SCOPE_NOTE
    assert all({"id", "description", "status", "details"} <= set(c)
               for c in data["checks"])
