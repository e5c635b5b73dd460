from dataclasses import replace

import pytest

from berger_lab.berger import (SCOPE_NOTE, _remainder_at,
                               _restriction_multiple_check, berger_report,
                               collapses, holonomy_case_split, split_of)
from berger_lab.curvature import (CurvatureElement, build_r1, coefficients_over,
                                  element_over)
from berger_lab.exactlin import span_of
from berger_lab.harness import (Session, check_mixed_signature_collapse,
                                check_parabolic_split)
from berger_lab.liealg import LieAlgebra
from conftest import spanned, tier2


def berger_closure(g, curvature):
    """Reference Berger closure: the span of all values R(e_a, e_b) as a
    subspace of g-coordinates, by `span_of` over every value at once."""
    vectors = [row for el in curvature.basis for row in el.rows if row]
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
    partial = spanned(full.algebra, full.basis[:4])
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
    span = span_of([curvature.basis[idx].rows[pairs.index((a, b))]
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
def test_decision_split_signature_case_333():
    # the largest split-signature configuration the suite runs, in a session
    # of its own so that its kernels are freed afterwards
    report = holonomy_case_split(3, 3, 3)
    assert report.case == "split-signature"
    assert report.verdict == "confirmed"


def test_decision_rejects_bad_witt_rank():
    with pytest.raises(ValueError):
        holonomy_case_split(1, 1, 0)
    with pytest.raises(ValueError):
        holonomy_case_split(1, 1, 2)


class DropsOneSpWTensor(Session):
    """Drops the last basis tensor of every sp(r,r)_W curvature space."""

    def curvature(self, name, r, s, t):
        real = super().curvature(name, r, s, t)
        if name == "sp_w":
            return spanned(real.algebra, real.basis[:-1])
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
    assert check_parabolic_split(tampered, 1).status == "fail"
    split = holonomy_case_split(1, 1, 1, session=tampered).checks[1]
    assert (split.check_id, split.status) == ("parabolic-split", "fail")
    assert check_mixed_signature_collapse(tampered, 1).status == "fail"
    collapse = holonomy_case_split(1, 2, 1, session=tampered).checks[0]
    assert (collapse.check_id, collapse.status) == ("collapse-equality", "fail")


def r1_over_full(session, r, s, t):
    """R1's coefficient vector over sp(1)+sp(r,s)_W."""
    r1 = build_r1(session.curvature("h0", r, s, t))
    return element_over(r1, session.algebra("sp1+sp_w", r, s, t))


def test_restriction_multiple_fails_on_a_wrong_r1_component(session):
    full = session.curvature("sp1+sp_w", 1, 1, 1)
    r1_vec = r1_over_full(session, 1, 1, 1)
    sp_w = session.curvature("sp_w", 1, 1, 1)
    split = split_of(full, sp_w, r1_vec)
    ok, details = _restriction_multiple_check(full, split, r1_vec)
    assert ok and details == {"elements_checked": full.dim}
    # another complement of line(R1): R(sp(r,r)_W) with one basis tensor t
    # replaced by t + R1.  Every tensor still decomposes, but a tensor with
    # a t-component a gets R1-component c - a, so its W-block no longer
    # matches that multiple of R1's
    sub = split.sub_over_full
    tensors = [element_over(el, full.algebra) for el in sp_w.basis]
    t = tensors[0]
    tensors[0] = {k: t.get(k, 0) + r1_vec.get(k, 0) for k in t.keys() | r1_vec.keys()}
    other = span_of(tensors, sub.ambient_dim)
    assert other.dim == sub.dim and other != sub
    ok, details = _restriction_multiple_check(
        full, replace(split, sub_over_full=other), r1_vec)
    assert not ok and set(details) == {"element", "pair"}


def test_remainder_at_reads_one_entry_of_the_remainder(session):
    # against R(sp(1,1)_W) over sp(1)+sp(1,1)_W, and against another
    # complement of line(R1), whose rows are nonzero at R1's leading key
    full = session.curvature("sp1+sp_w", 1, 1, 1)
    r1_vec = r1_over_full(session, 1, 1, 1)
    sub = split_of(full, session.curvature("sp_w", 1, 1, 1), r1_vec).sub_over_full
    rows = list(sub.sparse_rows())
    rows[0] = {k: rows[0].get(k, 0) + r1_vec.get(k, 0)
               for k in rows[0].keys() | r1_vec.keys()}
    other = span_of(rows, sub.ambient_dim)
    dimg = full.algebra.dim
    tensors = list(full.basis) + [CurvatureElement(full.algebra, r1_vec)]
    for space in (sub, other):
        pivots = set(space.pivot_columns())
        keys = sorted({k for row in space.sparse_rows() for k in row} - pivots)
        assert any(len([row for row in space.sparse_rows() if k in row]) > 1
                   for k in keys)
        for key in keys:
            at = _remainder_at(space, key, dimg)
            for el in tensors:
                assert at(el) == space.reduce_vector(el.sparse_vector()).get(key, 0)


def test_restriction_multiple_reads_r1_over_its_own_algebra(session):
    # R1 enters the check as its vector over sp(1)+sp(r,r)_W, which
    # `element_over` reads over R1's own algebra: a reordered h0 basis, with
    # the coefficients permuted to match, gives the same vector
    space = session.space(1, 1, 1)
    full = session.curvature("sp1+sp_w", 1, 1, 1)
    r1 = build_r1(session.curvature("h0", 1, 1, 1))
    dimg = r1.algebra.dim
    flipped = {}
    for key, c in r1.sparse_vector().items():
        ib, k = divmod(key, dimg)
        flipped[ib * dimg + dimg - 1 - k] = c
    reordered = CurvatureElement(
        LieAlgebra("h0", space, r1.algebra.basis[::-1]), flipped)
    assert reordered.algebra.basis != r1.algebra.basis
    assert element_over(reordered, full.algebra) == element_over(r1, full.algebra)


def test_restriction_multiple_names_a_failed_decomposition(session, tampered):
    full = session.curvature("sp1+sp_w", 1, 1, 1)
    r1_vec = r1_over_full(session, 1, 1, 1)
    # one sp(r,r)_W tensor short, line(R1) + sub misses a basis tensor
    short = split_of(full, tampered.curvature("sp_w", 1, 1, 1), r1_vec)
    assert not short.holds and not short.generator_in_sub
    ok, details = _restriction_multiple_check(full, short, r1_vec)
    assert not ok and details == {"reason": "split decomposition failed"}
    sp_w = session.curvature("sp_w", 1, 1, 1)
    sub = split_of(full, sp_w, r1_vec).sub_over_full
    inside = dict(sub.sparse_rows()[0])
    ok, details = _restriction_multiple_check(
        full, split_of(full, sp_w, inside), inside)
    assert not ok
    assert details == {"reason": "R1 lies in the curvature space of sp(r,r)_W"}


def test_split_predicates_name_the_failed_condition(session, tampered):
    full = session.curvature("sp1+sp_w", 1, 1, 1)
    r1_vec = r1_over_full(session, 1, 1, 1)
    good = split_of(full, session.curvature("sp_w", 1, 1, 1), r1_vec)
    assert good.holds
    bad = split_of(full, tampered.curvature("sp_w", 1, 1, 1), r1_vec)
    assert not bad.holds
    assert not bad.dims_add_up
    assert bad.generator_in_full and not bad.generator_in_sub and bad.sub_in_full
    assert not split_of(full, session.curvature("sp_w", 1, 1, 1), {}).holds
    assert collapses(session.curvature("sp1+sp_w", 1, 2, 1),
                     session.curvature("sp_w", 1, 2, 1))
    assert not collapses(full, session.curvature("sp_w", 1, 1, 1))


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
    assert collapses(full, sub) == contains_and_same_dim(full, sub)
    assert collapses(full, sub) == (r + s != 2 * t)


def test_collapses_fails_on_a_dropped_tensor(tampered):
    full = tampered.curvature("sp1+sp_w", 1, 2, 1)
    sub = tampered.curvature("sp_w", 1, 2, 1)
    assert not collapses(full, sub)
    assert not contains_and_same_dim(full, sub)


def test_report_json_shape(session):
    data = holonomy_case_split(1, 2, 1, session=session).to_json()
    assert data["case"] == "mixed-signature"
    assert data["verdict"] == "confirmed"
    assert data["note"] == SCOPE_NOTE
    assert all({"id", "description", "status", "details"} <= set(c)
               for c in data["checks"])
