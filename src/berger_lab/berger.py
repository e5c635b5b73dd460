"""Berger criterion and the two-case holonomy decision procedure.

An algebra is a Berger algebra iff it is spanned by the images of its
algebraic curvature tensors; that is a necessary condition for being a
holonomy algebra.  `holonomy_case_split` runs, mechanically and over exact
arithmetic, the case split that classifies which subalgebras of
sp(1)+sp(r,s) preserving an isotropic quaternionic subspace survive the
criterion.  All verdicts are algebra-level: whether a candidate is
realized by an actual manifold is outside the reach of this computation,
and the reports say so.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .curvature import (CurvatureElement, CurvatureSpace, bivector_pairs,
                        build_r1, coefficients_over, element_over)
from .exactlin import Echelon, Subspace
from .liealg import LieAlgebra

__all__ = [
    "BergerReport",
    "CaseSplitCheck",
    "CaseSplitReport",
    "Split",
    "berger_report",
    "collapses",
    "holonomy_case_split",
    "split_of",
    "SCOPE_NOTE",
]

SCOPE_NOTE = ("verdicts concern algebra-level facts (curvature spaces and "
              "the Berger span criterion); manifold-level holonomy existence "
              "is not decidable by this computation")


@dataclass(frozen=True)
class BergerReport:
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
    canonical order (basis elements outer, bivectors inner).  The witnesses
    are the values that raised the rank: the first spanning subset in that
    order."""
    g = curvature.algebra
    pairs = bivector_pairs(g.space.real_dim)
    span = Echelon()
    witnesses = []
    values = ((idx, ib, row) for idx, el in enumerate(curvature.basis)
              for ib, row in enumerate(el.rows) if row)
    for idx, ib, row in values:
        if span.insert_fraction_row(row) is not None:
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

@dataclass(frozen=True)
class CaseSplitCheck:
    check_id: str
    description: str
    status: str  # "pass" | "fail"
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CaseSplitReport:
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


@dataclass(frozen=True)
class Split:
    """The four conditions of R(full) = line(generator) + R(sub), each kept
    so that callers can report them; `sub_over_full` is R(sub) as a
    subspace of the coefficient space over full.algebra."""

    dims_add_up: bool
    generator_in_full: bool
    generator_in_sub: bool
    sub_in_full: bool
    sub_over_full: Subspace

    @property
    def holds(self) -> bool:
        return (self.dims_add_up and self.generator_in_full
                and not self.generator_in_sub and self.sub_in_full)


def split_of(full: CurvatureSpace, sub: CurvatureSpace,
             generator: dict) -> Split:
    """Test R(full) = line(generator) + R(sub), over full.algebra.

    `generator` is a sparse coefficient vector over full.algebra; `sub`'s
    algebra must be a block of full.algebra's basis (see
    `coefficients_over`), so R(sub) over full.algebra is its own canonical
    rows relabelled.
    """
    embedded = coefficients_over(sub, full.algebra)
    full_sub = full.coefficient_subspace()
    return Split(
        dims_add_up=full.dim == 1 + sub.dim,
        generator_in_full=full_sub.contains_vector(generator),
        generator_in_sub=embedded.contains_vector(generator),
        sub_in_full=full_sub.contains(embedded),
        sub_over_full=embedded,
    )


def collapses(full: CurvatureSpace, sub: CurvatureSpace) -> bool:
    """True iff R(full) = R(sub), comparing both over full.algebra.  Both
    subspaces are canonical, so they are equal iff their rows are."""
    return coefficients_over(sub, full.algebra) == full.coefficient_subspace()


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
    target = parabolic_full.algebra

    if n0 != 0:
        case = "mixed-signature"
        checks.append(CaseSplitCheck(
            "collapse-equality",
            "curvature space over sp(1)+sp(r,s)_W equals the one over sp(r,s)_W",
            "pass" if collapses(parabolic_full, parabolic) else "fail",
            {"dim_with_sp1": parabolic_full.dim, "dim_without_sp1": parabolic.dim},
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
            r1 = build_r1(h0_curv)
            r1_vec = element_over(r1, target)
            split = split_of(parabolic_full, parabolic, r1_vec)
            checks.append(CaseSplitCheck(
                "parabolic-split",
                "curvature space over sp(1)+sp(r,r)_W = line(R1) + curvature "
                "space over sp(r,r)_W",
                "pass" if split.holds else "fail",
                {"dim_with_sp1": parabolic_full.dim,
                 "dim_without_sp1": parabolic.dim},
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
            restr_ok, restr_details = _restriction_multiple_check(
                parabolic_full, split, r1_vec)
            checks.append(CaseSplitCheck(
                "restriction-multiple",
                "on W x W1 every tensor restricts, on the W-block, to its "
                "R1-component times the R1 restriction",
                "pass" if restr_ok else "fail",
                restr_details,
            ))

    failed = [c for c in checks if c.status != "pass"]
    if failed:
        verdict = (f"CLAIM FALSIFIED AT ({r},{s},{t}): "
                   + "; ".join(c.check_id for c in failed))
    else:
        verdict = "confirmed"
    return CaseSplitReport(r=r, s=s, t=t, case=case, checks=tuple(checks),
                          verdict=verdict)


def _restriction_multiple_check(parabolic_full: CurvatureSpace, split: Split,
                                r1_vec: dict):
    """Compare W-blocks of each basis tensor's values on W x W1 pairs
    against its R1-component c times R1's.

    `split` is `split_of(parabolic_full, R(sp(r,r)_W), r1_vec)`, and
    `r1_vec` is R1's coefficient vector over parabolic_full.algebra, so R1
    and every basis tensor are read over that one algebra, through one
    table of W-blocks.  When the split holds, R(full) = line(R1) + R(sub)
    and reducing against the canonical `split.sub_over_full` kills the
    sp(r,r)_W part, so every tensor's remainder is c times R1's remainder
    and c = b/a, with a and b the two remainders at R1's leading key, b
    read by `_remainder_at` with no remainder formed.  Each comparison is
    made by cross-multiplication, so no quotient is formed."""
    if split.generator_in_sub:
        return False, {"reason": "R1 lies in the curvature space of sp(r,r)_W"}
    if not split.holds:
        return False, {"reason": "split decomposition failed"}
    sub = split.sub_over_full
    r1_rest = sub.reduce_vector(r1_vec)
    lead = min(r1_rest)
    a = r1_rest[lead]
    algebra = parabolic_full.algebra
    space = algebra.space
    w_idx = list(space.w_indices())
    pairs = [(p, q) for p in w_idx for q in space.w1_indices()]
    blocks = _w_blocks(algebra, w_idx)
    r1 = CurvatureElement(algebra, r1_vec)
    r1_values = [_w_block_value(r1, blocks, p, q) for p, q in pairs]
    component = _remainder_at(sub, lead, algebra.dim)

    for index, el in enumerate(parabolic_full.basis):
        b = component(el)
        for (p, q), expected in zip(pairs, r1_values):
            # expected holds nonzeros only, so c * expected has its keys
            # when c != 0 and is empty when c == 0
            got = _w_block_value(el, blocks, p, q)
            if (got.keys() != (expected.keys() if b else set())
                    or any(a * v != b * expected[pos] for pos, v in got.items())):
                return False, {"element": index, "pair": (p, q)}
    return True, {"elements_checked": parabolic_full.dim}


def _remainder_at(sub: Subspace, key: int, dimg: int):
    """el -> the entry at `key`, a column that is no pivot of `sub`, of the
    remainder of el's coefficient vector (over an algebra of dimension
    `dimg`) after reduction against `sub`.  Each canonical row is zero at
    every other row's pivot, so that entry is v[key] - sum v[pivot] row[key]
    over the rows: one dot product with the rows' column `key`."""
    # (bivector, basis index) of each pivot whose row is nonzero at key
    column = [(*divmod(min(row), dimg), row[key])
              for row in sub.sparse_rows() if key in row]
    ib, k = divmod(key, dimg)

    def at(el: CurvatureElement):
        rows = el.rows
        return rows[ib].get(k, 0) - sum(rows[pb].get(pk, 0) * x
                                        for pb, pk, x in column)

    return at


def _w_blocks(algebra: LieAlgebra, w_idx) -> list[dict]:
    """The W x W block {row * n + col: value} of each basis matrix."""
    n = algebra.space.real_dim
    w = set(w_idx)
    return [{pos: v for pos, v in bmat.nz.items()
             if pos // n in w and pos % n in w} for bmat in algebra.basis]


def _w_block_value(el, blocks: list[dict], p: int, q: int) -> dict:
    """The nonzero entries of the W x W block of R(e_p, e_q), as
    sign * sum_k c_k * block_k over the stored row."""
    row, sign = el.row_of(p, q)
    out = {}
    for k, c in row.items():
        c = sign * c
        for pos, v in blocks[k].items():
            out[pos] = out.get(pos, 0) + c * v
    return {pos: v for pos, v in out.items() if v}
