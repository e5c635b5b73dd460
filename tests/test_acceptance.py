"""Acceptance suite: one test per verified claim, at zero tolerance.

Every check runs over exact rational arithmetic, so "pass" means the
identity holds on the nose.  Tier-1 configurations are (1,1,1) and
(1,2,1); the (2,2,2) checks are opt-in via BERGER_LAB_TIER2=1 (they add
about two seconds on a 2-core host).  Each test prints one PASS line when it succeeds; run
with `pytest -s tests/test_acceptance.py` to see them.
"""

import pytest

from berger_lab import harness
from conftest import tier2


@pytest.fixture(scope="module")
def accept(session):
    return session


def _run(check_id, session, tier=1):
    fn = dict(harness.ALL_CHECKS)[check_id]
    result = fn(session, tier)
    assert result.status == "pass", (check_id, result.computed)
    print(f"PASS {check_id} {result.computed}")
    return result


def test_structure_axioms(accept):
    # I_a^2 = -id, I3 = I1 I2 = -I2 I1, metric-skew structure, signature
    # (4r, 4s), at (1,1,1), (1,2,1), and (2,2,2)
    _run("structure-axioms", accept)


def test_algebra_dimensions(accept):
    # dim sp(r,s) = (r+s)(2(r+s)+1); the W-preserving block algebra has the
    # block-count dimension and is the exact stabilizer of W inside sp(r,s)
    _run("algebra-dimensions", accept)


def test_h0_curvature_line(accept):
    # the curvature space of h0 is exactly one-dimensional at r = 1
    _run("h0-curvature-line", accept)


def test_r0_membership_and_scalar(accept):
    # R0 has zero first-Bianchi residual, satisfies pair symmetry, and has
    # scalar curvature 4m(m+2) with m = r+s (32 at (1,1), 60 at (1,2))
    _run("r0-membership-and-scalar", accept)


def test_full_algebra_split(accept):
    # dim R(sp(1)+sp(1,1)) = 1 + dim R(sp(1,1)) and R0 is not in R(sp(1,1))
    _run("full-algebra-split", accept)


def test_parabolic_split(accept):
    # dim R(sp(1)+sp(1,1)_W) = 1 + dim R(sp(1,1)_W), complement spanned by R1
    _run("parabolic-split", accept)


def test_mixed_signature_collapse(accept):
    # R(sp(1)+sp(1,2)_W) = R(sp(1,2)_W) as an exact subspace equality
    _run("mixed-signature-collapse", accept)


def test_degenerate_pair_vanishing(accept):
    # every basis tensor over sp(1)+sp(1,2)_W kills W x E pairs and maps
    # E x E pairs to annihilators of W
    _run("degenerate-pair-vanishing", accept)


def test_prolongation_vanishing(accept):
    # gl(r,H) has zero first prolongation for r = 1, 2;
    # sp(1)+gl(1,H) has zero second prolongation
    _run("prolongation-vanishing", accept)


def test_berger_verdicts(accept):
    # h0 is Berger with closure h0; sp(1)+sp(1,1)_W is Berger; the gl block
    # algebra (empty curvature space) is not; h0 annihilates R1
    _run("berger-verdicts", accept)


def test_parallel_curvature(accept):
    # the second-Bianchi derivative space of h0 vanishes (curvature forced
    # parallel) while the full algebra sp(1)+sp(1,1) has a nonzero one
    _run("parallel-curvature", accept)


def test_holonomy_case_split(accept):
    # the full decision procedure confirms both tier-1 cases
    _run("holonomy-case-split", accept)


def test_pair_symmetry_universal(accept):
    # eta(R(X,Y)Z,U) = eta(R(Z,U)X,Y) for every basis element of every
    # curvature space computed in this suite, on all basis quadruples
    _run("pair-symmetry", accept)


# ---------------------------------------------------------------------------
# tier 2: the (2,2,2) configuration
# ---------------------------------------------------------------------------

@tier2
def test_structure_and_dimensions_tier2(accept):
    _run("algebra-dimensions", accept, tier=2)


@tier2
def test_h0_curvature_line_tier2(accept):
    # one-dimensional also at r = 2
    _run("h0-curvature-line", accept, tier=2)


@tier2
def test_r0_tier2(accept):
    # scalar 4m(m+2) = 96 at (2,2)
    _run("r0-membership-and-scalar", accept, tier=2)


@tier2
def test_parabolic_split_tier2(accept):
    _run("parabolic-split", accept, tier=2)


@tier2
def test_berger_verdicts_tier2(accept):
    _run("berger-verdicts", accept, tier=2)


@tier2
def test_holonomy_case_split_tier2(accept):
    _run("holonomy-case-split", accept, tier=2)


@tier2
def test_pair_symmetry_tier2(accept):
    _run("pair-symmetry", accept, tier=2)
