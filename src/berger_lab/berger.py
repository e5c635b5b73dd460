"""Berger criterion and the two-case holonomy decision procedure.

An algebra is a Berger algebra iff it is spanned by the images of its
algebraic curvature tensors; that is a necessary condition for being a
holonomy algebra.  `holonomy_case_split` runs, mechanically and over exact
arithmetic, the case split that classifies which subalgebras of
sp(1)+sp(r,s) preserving an isotropic quaternionic subspace survive the
criterion.  Every verdict reads the canonical Sym^2(g) rows of the
curvature spaces: the splits and the collapse through one predicate,
`split_failures`, and the Berger closure and the restriction identity on
W x W1 (a vanishing W-block of every row of R(sp(r,r)_W)) through
`CurvatureSpace.values`, each row's tensor by bivector: no tensor is built
from a space.  The only tensors read are the split generators R0 and R1,
each over its own algebra.  All verdicts are algebra-level: whether a
candidate is realized by an actual manifold is outside the reach of this
computation, and the reports say so.
"""

from __future__ import annotations

from typing import NamedTuple

from .curvature import (CurvatureElement, CurvatureSpace,
                        bianchi_residual_is_zero, bivector_pairs, block_slots,
                        build_r1, coefficients_over)
from .exactlin import Echelon

__all__ = [
    "BergerReport",
    "CaseSplitCheck",
    "CaseSplitReport",
    "berger_report",
    "holonomy_case_split",
    "split_failures",
    "with_failures",
    "SCOPE_NOTE",
]

SCOPE_NOTE = ("verdicts concern algebra-level facts (curvature spaces and "
              "the Berger span criterion); manifold-level holonomy existence "
              "is not decidable by this computation")


class BergerReport(NamedTuple):
    algebra_name: str
    algebra_dim: int
    curvature_dim: int
    closure_dim: int
    is_berger: bool
    witnesses: tuple = ()

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra_name,
            "dim_algebra": self.algebra_dim,
            "dim_curvature_space": self.curvature_dim,
            "dim_berger_closure": self.closure_dim,
            "is_berger": self.is_berger,
            "witnesses": [
                {"bivector": list(biv), "basis_index": idx}
                for biv, idx in self.witnesses
            ],
            "note": SCOPE_NOTE,
        }


def berger_report(curvature: CurvatureSpace) -> BergerReport:
    """The Berger closure of g = curvature.algebra, the span of all values
    R(e_a, e_b) in g-coordinates, from one elimination over the values in
    canonical order (canonical rows outer, bivectors inner), each read from
    `values` as an integer row.  The witnesses are the values that raised
    the rank: the first spanning subset in that order; a positive factor
    per tensor changes no rank."""
    g = curvature.algebra
    pairs = bivector_pairs(g.space.real_dim)
    span = Echelon()
    witnesses = []
    values = ((idx, ib, row) for idx, tensor in enumerate(curvature.values())
              for ib, row in tensor.items())
    for idx, ib, row in values:
        if span.insert(row) is not None:
            witnesses.append((pairs[ib], idx))
            if span.rank == g.dim:
                break
    return BergerReport(
        algebra_name=g.name,
        algebra_dim=g.dim,
        curvature_dim=curvature.dim,
        closure_dim=span.rank,
        is_berger=span.rank == g.dim,
        witnesses=tuple(witnesses),
    )


# ---------------------------------------------------------------------------
# decision procedure
# ---------------------------------------------------------------------------

class CaseSplitCheck(NamedTuple):
    check_id: str
    description: str
    status: str  # "pass" | "fail"
    details: dict


class CaseSplitReport(NamedTuple):
    r: int
    s: int
    t: int
    case: str  # "mixed-signature" | "split-signature"
    checks: tuple
    verdict: str
    scope_note: str = SCOPE_NOTE

    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "s": self.s,
            "t": self.t,
            "case": self.case,
            "checks": [
                {"id": c.check_id, "description": c.description,
                 "status": c.status, "details": c.details}
                for c in self.checks
            ],
            "verdict": self.verdict,
            "note": self.scope_note,
        }


def split_failures(full: CurvatureSpace, sub: CurvatureSpace,
                   generator: CurvatureElement | None = None) -> list[str]:
    """The conditions of R(full) = R(sub) + line(generator) that fail, by
    name and in order: [] iff it holds.  The one split and collapse
    predicate of the harness and `holonomy_case_split`.

    `sub`'s algebra must be a block of full.algebra's basis (see
    `coefficients_over`), full.algebra its sum with sp(1), whose three
    basis elements `direct_sum` puts first, and `generator` a tensor over
    an algebra whose basis is a block of full.algebra's too, such as R0
    over full.algebra itself or R1 over h0; any other raises ValueError.
    The generator's coefficient of its basis element k is that of
    full.algebra's element m_k (`block_slots`), so its sp(1) part is its
    coefficients at m_k < 3.  The split holds iff R(full) is one larger
    than R(sub) ("dims_add_up") and holds it ("sub_in_full"), and the
    generator has a nonzero sp(1) part ("generator_has_sp1_part") and is a
    curvature tensor ("generator_is_curvature"): every curvature tensor
    over full.algebra lies in R(full), and in R(sub) iff its sp(1) part is
    zero.  With no generator, R(full) = R(sub) iff their canonical Sym^2
    rows are equal, and on a failure the first two conditions name what
    broke."""
    embedded = coefficients_over(sub, full.algebra)
    full_rows = full.coefficient_subspace()
    if generator is None and embedded == full_rows:
        return []
    conditions = [("dims_add_up", full.dim == sub.dim + (generator is not None)),
                  ("sub_in_full", full_rows.contains(embedded))]
    if generator is not None:
        slots = block_slots(generator.algebra, full.algebra)
        conditions += [
            ("generator_has_sp1_part",
             any(slots[k] < 3 for row in generator.rows.values() for k in row)),
            ("generator_is_curvature", bianchi_residual_is_zero(generator))]
    return [name for name, holds in conditions if not holds]


def with_failures(details: dict, failed: list[str]) -> dict:
    """`details`, with the names of the failed conditions when there are
    any, so that a passing report keeps its form."""
    return {**details, "failed": failed} if failed else details


def holonomy_case_split(r: int, s: int, t: int, session=None) -> CaseSplitReport:
    """Mechanical two-case decision on which candidates preserving the
    isotropic part W survive the Berger criterion.

    Case r0+s0 != 0: the curvature space over sp(1)+sp(r,s)_W must collapse
    onto the one over sp(r,s)_W, so no Berger subalgebra containing sp(1)
    preserves W.  Case r0+s0 = 0: the split of the curvature space by the
    line through R1, the one-dimensional curvature space of h0, both Berger
    properties, and the restriction identity on W x W1 are verified.

    Spaces, algebras and curvature spaces come from `session` (a
    `harness.Session`); without one, a fresh uncached session is used.
    """
    if not 1 <= t <= min(r, s):
        raise ValueError("need 1 <= t <= min(r, s)")
    if session is None:
        from .harness import Session  # harness imports this module
        session = Session()
    checks = []
    n0 = r + s - 2 * t

    parabolic_full = session.curvature("sp1+sp_w", r, s, t)
    parabolic = session.curvature("sp_w", r, s, t)
    dims = {"dim_with_sp1": parabolic_full.dim, "dim_without_sp1": parabolic.dim}

    if n0 != 0:
        case = "mixed-signature"
        broken = split_failures(parabolic_full, parabolic)
        checks.append(CaseSplitCheck(
            "collapse-equality",
            "curvature space over sp(1)+sp(r,s)_W equals the one over sp(r,s)_W",
            "fail" if broken else "pass", with_failures(dims, broken),
        ))
    else:
        case = "split-signature"
        h0_curv = session.curvature("h0", r, s, t)
        checks.append(CaseSplitCheck(
            "h0-curvature-line",
            "the curvature space of h0 is one-dimensional",
            "pass" if h0_curv.dim == 1 else "fail",
            {"dim": h0_curv.dim},
        ))
        if h0_curv.dim == 1:
            broken = split_failures(parabolic_full, parabolic, build_r1(h0_curv))
            checks.append(CaseSplitCheck(
                "parabolic-split",
                "curvature space over sp(1)+sp(r,r)_W = line(R1) + curvature "
                "space over sp(r,r)_W",
                "fail" if broken else "pass", with_failures(dims, broken),
            ))
            rep_h0 = berger_report(h0_curv)
            checks.append(CaseSplitCheck(
                "h0-berger",
                "h0 is spanned by the images of its curvature tensors",
                "pass" if rep_h0.is_berger else "fail",
                {"closure_dim": rep_h0.closure_dim, "algebra_dim": rep_h0.algebra_dim},
            ))
            rep_full = berger_report(parabolic_full)
            checks.append(CaseSplitCheck(
                "parabolic-berger",
                "sp(1)+sp(r,r)_W is spanned by the images of its curvature tensors",
                "pass" if rep_full.is_berger else "fail",
                {"closure_dim": rep_full.closure_dim,
                 "algebra_dim": rep_full.algebra_dim},
            ))
            if broken:
                witness = {"reason": "split decomposition failed"}
            else:
                witness = _restriction_witness(parabolic)
            checks.append(CaseSplitCheck(
                "restriction-multiple",
                "on W x W1 every tensor restricts, on the W-block, to its "
                "R1-component times the R1 restriction",
                "fail" if witness else "pass",
                witness or {"elements_checked": parabolic_full.dim},
            ))

    failed = [c for c in checks if c.status != "pass"]
    if failed:
        verdict = (f"CLAIM FALSIFIED AT ({r},{s},{t}): "
                   + "; ".join(c.check_id for c in failed))
    else:
        verdict = "confirmed"
    return CaseSplitReport(r=r, s=s, t=t, case=case, checks=tuple(checks),
                          verdict=verdict)


def _restriction_witness(sub: CurvatureSpace) -> dict | None:
    """The first canonical row of `sub` and pair (p, q) in W x W1 at which
    its tensor has a nonzero W-block, R(e_p, e_q) restricted to W x W, or
    None if there is none.

    Once R(sp(1)+sp(r,r)_W) = line(R1) + R(sp(r,r)_W) holds, the
    restriction identity is equivalent to None for sub = R(sp(r,r)_W): a
    tensor's R1-component is the multiple of R1 the identity names, and
    its R(sub) part must then restrict to zero.  On a row S the W-block at
    (p, q) is sum_k (sum_l S_kl omega_l(p, q)) W-block(B_k), read from
    `values` at the bivectors of W x W1 only, in ascending order, through
    one table of W-blocks; each value is a positive multiple of the
    tensor's, which keeps its zeros."""
    space = sub.space
    n = space.real_dim
    w, w1 = set(space.w_indices()), set(space.w1_indices())
    pairs = {ib: (a, b) if a in w else (b, a)
             for ib, (a, b) in enumerate(bivector_pairs(n))
             if (a in w and b in w1) or (a in w1 and b in w)}
    # the W x W block {row * n + col: value} of each basis matrix
    blocks = [{pos: v for pos, v in bmat.nz.items() if pos // n in w and pos % n in w}
              for bmat in sub.algebra.basis]
    for index, tensor in enumerate(sub.values(pairs.keys())):
        for ib, row in tensor.items():
            block: dict = {}
            for k, c in row.items():
                for pos, v in blocks[k].items():
                    block[pos] = block.get(pos, 0) + c * v
            if any(block.values()):
                return {"element": index, "pair": pairs[ib]}
    return None
