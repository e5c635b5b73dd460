"""Verification harness: the named checks behind `berger-lab verify-paper`,
plus the on-disk cache for computed curvature spaces, one JSON file per
space named `v{CACHE_FORMAT_VERSION}-{algebra}-{r}-{s}-{t}.json`.

Each check has a stable id, a one-line statement of the claim it verifies,
and runs at zero tolerance over exact arithmetic.  Tier 1 covers the
configurations (1,1,1) and (1,2,1); tier 2 adds (2,2,2).  Reports are
deterministic: repeated runs with the same configuration produce
byte-identical JSON (wall-clock timings are opt-in, since they would break
that guarantee).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

from . import __version__, prolong
from . import curvature as curv
from .berger import (berger_report, holonomy_case_split, split_failures,
                     with_failures)
from .curvature import CurvatureElement, CurvatureSpace
from .exactlin import (Subspace, rat_to_str, signed_permutation,
                       symmetric_signature)
from .liealg import (ALGEBRA_NAMES, LieAlgebra, algebra_by_name, sp_dimension,
                     sp_parabolic_dimension, stabilizer_of_subspace)
from .quatspace import QuaternionicSpace, build_space

_PACKAGE_PARENT = Path(__file__).resolve().parent.parent

TOOL_NAME = "berger-lab"
TOOL_VERSION = __version__
CACHE_FORMAT_VERSION = 2

TIER1_CONFIGS = ((1, 1, 1), (1, 2, 1))
TIER2_CONFIGS = ((1, 1, 1), (1, 2, 1), (2, 2, 2))


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def cache_key(r: int, s: int, t: int, algebra: str) -> str:
    """The file name, without `.json`, of the entry for `algebra` at
    (r, s, t): `v{CACHE_FORMAT_VERSION}-{algebra}-{r}-{s}-{t}`.  Only a
    registry algebra and non-negative ints are accepted, so no key names a
    path outside the cache directory."""
    if algebra not in ALGEBRA_NAMES:
        raise ValueError(f"unknown algebra {algebra!r}")
    if any(type(n) is not int or n < 0 for n in (r, s, t)):
        raise ValueError(f"need non-negative ints, got {(r, s, t)!r}")
    return f"v{CACHE_FORMAT_VERSION}-{algebra}-{r}-{s}-{t}"


def _entry_path(cache_dir, space: QuaternionicSpace, algebra_name: str) -> Path:
    return Path(cache_dir) / f"{cache_key(space.r, space.s, space.t, algebra_name)}.json"


def cache_get(cache_dir, space: QuaternionicSpace, algebra_name: str,
              algebra: LieAlgebra):
    """Cached curvature space, or None on miss/corruption (corruption warns).

    `algebra` is the `algebra_name` algebra on `space` that the loaded space
    is expressed over.  An entry holds the space's canonical Sym^2(g) rows
    (`CurvatureSpace.rows_json`), which `CurvatureSpace.from_json` checks
    before the space is kept; a zero denominator ("1/0"), or JSON nested
    too deeply to parse, is corruption like any other malformed value."""
    path = _entry_path(cache_dir, space, algebra_name)
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
        if data.get("version") != CACHE_FORMAT_VERSION:
            return None
        key = data["key"]
        if (key["r"], key["s"], key["t"], key["algebra"]) != (
                space.r, space.s, space.t, algebra_name):
            return None
        return CurvatureSpace.from_json(algebra, data["curvature_space"])
    except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError,
            RecursionError, OSError) as exc:
        print(f"warning: ignoring corrupt cache entry {path}: {exc}",
              file=sys.stderr)
        return None


def cache_put(cache_dir, space: QuaternionicSpace, algebra_name: str,
              value: CurvatureSpace) -> None:
    path = _entry_path(cache_dir, space, algebra_name)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "key": {"r": space.r, "s": space.s, "t": space.t,
                    "algebra": algebra_name},
            "curvature_space": value.rows_json(),
        }
        # a whole file or none: write a temp file, then rename it over the entry
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        print(f"warning: cache directory not writable ({exc}); proceeding uncached",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# shared computation session
# ---------------------------------------------------------------------------

class Session:
    """Memoizes spaces, algebras, curvature spaces and R0 across checks and
    the decision procedure; curvature spaces go through the disk cache only
    when `cache_dir` is set.

    Each registry algebra is built once per configuration, and a sum (h0,
    sp1+sp, sp1+sp_w) is the `direct_sum` of this session's own summands,
    so it holds their basis matrices, and no matrix is realified twice.
    An algebra keeps the integer tables `curvature` reads from its basis,
    so within a session those are built once per algebra too; a fresh
    session builds everything anew."""

    def __init__(self, cache_dir=None):
        self.cache_dir = cache_dir
        self._spaces: dict = {}
        self._algebras: dict = {}
        self._curvatures: dict = {}
        self._r0: dict = {}

    def space(self, r, s, t) -> QuaternionicSpace:
        key = (r, s, t)
        if key not in self._spaces:
            self._spaces[key] = build_space(r, s, t)
        return self._spaces[key]

    def algebra(self, name, r, s, t):
        key = (name, r, s, t)
        if key not in self._algebras:
            self._algebras[key] = algebra_by_name(
                name, self.space(r, s, t),
                lambda summand: self.algebra(summand, r, s, t))
        return self._algebras[key]

    def curvature(self, name, r, s, t) -> CurvatureSpace:
        key = (name, r, s, t)
        if key not in self._curvatures:
            space = self.space(r, s, t)
            algebra = self.algebra(name, r, s, t)
            cached = None
            if self.cache_dir is not None:
                cached = cache_get(self.cache_dir, space, name, algebra)
            if cached is None:
                cached = curv.bianchi_kernel(algebra)
                if self.cache_dir is not None:
                    cache_put(self.cache_dir, space, name, cached)
            self._curvatures[key] = cached
        return self._curvatures[key]

    def r0(self, r, s, t) -> CurvatureElement:
        """The model tensor R0 over this session's sp(1)+sp(r,s)."""
        key = (r, s, t)
        if key not in self._r0:
            self._r0[key] = curv.build_r0(self.algebra("sp1+sp", r, s, t))
        return self._r0[key]

    def computed_curvatures(self):
        return dict(self._curvatures)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

class CheckResult(NamedTuple):
    check_id: str
    claim: str
    status: str  # "pass" | "fail" | "vacuous" | "skipped"
    computed: dict
    wall_time_ms: int | None = None

    def to_json(self, with_timing=False) -> dict:
        out = {
            "id": self.check_id,
            "claim": self.claim,
            "status": self.status,
            "computed": self.computed,
        }
        if with_timing and self.wall_time_ms is not None:
            out["wall_time_ms"] = self.wall_time_ms
        return out


# the claim each check verifies, by id; a crashed check reports it too
CLAIMS = {
    "structure-axioms":
        "I_a^2 = -id, I3 = I1*I2 = -I2*I1, each I_a is metric-skew, and the "
        "metric has signature (4r negative, 4s positive)",
    "algebra-dimensions":
        "dim sp(r,s) = (r+s)(2(r+s)+1); the block algebra preserving W has "
        "the predicted dimension and equals the exact stabilizer of W",
    "h0-curvature-line":
        "the space of curvature tensors of the h0 block algebra is exactly "
        "one-dimensional",
    "r0-membership-and-scalar":
        "the model tensor R0 has zero first-Bianchi residual, satisfies pair "
        "symmetry, and has scalar curvature 4m(m+2) for quaternionic "
        "dimension m = r+s",
    "full-algebra-split":
        "curvature space of sp(1)+sp(1,1) = line(R0) + curvature space of "
        "sp(1,1), with R0 outside the second summand",
    "parabolic-split":
        "curvature space of sp(1)+sp(r,r)_W = line(R1) + curvature space of "
        "sp(r,r)_W, with the complement spanned by R1",
    "mixed-signature-collapse":
        "with a nonzero non-degenerate complement, adjoining sp(1) to the "
        "W-preserving algebra adds no curvature tensors",
    "degenerate-pair-vanishing":
        "every curvature tensor over sp(1)+sp(1,2)_W kills pairs from W x E "
        "and maps E-pairs to annihilators of W; the check is vacuous when "
        "E = 0",
    "prolongation-vanishing":
        "gl(r,H) has zero first prolongation (r = 1, 2); sp(1)+gl(1,H) has "
        "nonzero first but zero second prolongation",
    "berger-verdicts":
        "h0 and sp(1)+sp(r,r)_W are Berger algebras; the gl(r,H) block "
        "algebra has no curvature tensors and is not; h0 annihilates R1",
    "parallel-curvature":
        "the second-Bianchi derivative space vanishes for h0 (curvature is "
        "forced parallel) but not for the full algebra sp(1)+sp(1,1)",
    "holonomy-case-split":
        "the two-case decision procedure on W-preserving candidates confirms "
        "every sub-check",
    "pair-symmetry":
        "every basis element of every computed curvature space satisfies "
        "eta(R(X,Y)Z,U) = eta(R(Z,U)X,Y) on all basis quadruples",
}


def _result(check_id: str, ok: bool, computed: dict) -> CheckResult:
    return CheckResult(check_id, CLAIMS[check_id], "pass" if ok else "fail", computed)


def _configs(tier: int):
    return TIER2_CONFIGS if tier >= 2 else TIER1_CONFIGS


def _ranks(tier: int):
    """Ranks r of the split-signature configurations (r, r, r)."""
    return (1, 2) if tier >= 2 else (1,)


def _compose(a: dict, b: dict) -> dict:
    """The product a b of two signed permutations read by
    `signed_permutation`, in the same form: b maps column c to its row r,
    then a maps column r to its row.  A zero column of either factor is a
    zero column of the product."""
    return {c: (a[r][0], a[r][1] * sign) for c, (r, sign) in b.items() if r in a}


def _negated(a: dict) -> dict:
    return {c: (r, -sign) for c, (r, sign) in a.items()}


def _transposed(a: dict) -> dict:
    return {r: (c, sign) for c, (r, sign) in a.items()}


def check_structure_axioms(session: Session, tier: int) -> CheckResult:
    """Structure triple relations, metric skewness, and signature, from
    eta and the I_alpha composed as signed permutations."""
    details = {}
    ok = True
    for (r, s, t) in TIER2_CONFIGS:  # cheap at every tier
        space = session.space(r, s, t)
        eta = signed_permutation(space.eta)
        triple = [signed_permutation(ia) for ia in space.I]
        i1, i2, i3 = triple
        neg_id = {c: (c, -1) for c in range(space.real_dim)}
        relations = (
            all(_compose(ia, ia) == neg_id for ia in triple)
            and _compose(i1, i2) == i3 and _negated(_compose(i2, i1)) == i3
        )
        skew = all(_compose(eta, ia) == _negated(_compose(_transposed(ia), eta))
                   for ia in triple)
        sig = symmetric_signature(space.eta)
        sig_ok = sig == (4 * r, 4 * s)
        details[f"({r},{s},{t})"] = {
            "triple_relations": relations,
            "eta_skew": skew,
            "signature": list(sig),
        }
        ok = ok and relations and skew and sig_ok
    return _result("structure-axioms", ok, details)


def check_algebra_dimensions(session: Session, tier: int) -> CheckResult:
    """Dimension formulas and the stabilizer characterization of the
    parabolic subalgebra."""
    details = {}
    ok = True
    for (r, s, t) in _configs(tier):
        sp = session.algebra("sp", r, s, t)
        spw = session.algebra("sp_w", r, s, t)
        dims_ok = (sp.dim == sp_dimension(r, s)
                   and spw.dim == sp_parabolic_dimension(r, s, t))
        # sp_w is the filter of sp's basis that maps W into W, so the
        # stabilizer is the span of the unit vectors at sp_w's slots in sp
        stab = stabilizer_of_subspace(sp, session.space(r, s, t).w_indices())
        stab_ok = stab == Subspace(sp.dim, [
            {m: 1} for m in curv.block_slots(spw, sp)])
        details[f"({r},{s},{t})"] = {
            "dim_sp": sp.dim, "dim_sp_w": spw.dim,
            "stabilizer_equals_parabolic": stab_ok,
        }
        ok = ok and dims_ok and stab_ok
    return _result("algebra-dimensions", ok, details)


def check_h0_curvature_line(session: Session, tier: int) -> CheckResult:
    details = {}
    ok = True
    for r in _ranks(tier):
        dim = session.curvature("h0", r, r, r).dim
        details[f"r={r}"] = {"dim": dim}
        ok = ok and dim == 1
    return _result("h0-curvature-line", ok, details)


def check_r0(session: Session, tier: int) -> CheckResult:
    details = {}
    ok = True
    for (r, s, t) in _configs(tier):
        r0 = session.r0(r, s, t)
        residual_zero = curv.bianchi_residual_is_zero(r0)
        symmetric = curv.pair_symmetry_holds(r0)
        scal = curv.scalar(r0)
        m = r + s
        expected = 4 * m * (m + 2)
        details[f"({r},{s},{t})"] = {
            "bianchi_residual_zero": residual_zero,
            "pair_symmetric": symmetric,
            "scalar": rat_to_str(scal),
            "expected_scalar": rat_to_str(expected),
        }
        ok = ok and residual_zero and symmetric and scal == expected
    return _result("r0-membership-and-scalar", ok, details)


def check_full_split(session: Session, tier: int) -> CheckResult:
    r, s, t = 1, 1, 1
    full = session.curvature("sp1+sp", r, s, t)
    sub = session.curvature("sp", r, s, t)
    broken = split_failures(full, sub, session.r0(r, s, t))
    # R0 is a curvature tensor over sp(1)+sp(1,1), and it lies in R(sp(1,1))
    # iff its sp(1) part is zero
    r0_in_full = "generator_is_curvature" not in broken
    return _result("full-algebra-split", not broken, with_failures(
        {"dim_with_sp1": full.dim, "dim_without_sp1": sub.dim,
         "r0_in_full": r0_in_full,
         "r0_in_sub": r0_in_full and "generator_has_sp1_part" in broken}, broken))


def check_parabolic_split(session: Session, tier: int) -> CheckResult:
    details = {}
    ok = True
    for r in _ranks(tier):
        full = session.curvature("sp1+sp_w", r, r, r)
        sub = session.curvature("sp_w", r, r, r)
        broken = split_failures(full, sub, curv.build_r1(session.curvature("h0", r, r, r)))
        details[f"r={r}"] = with_failures({
            "dim_with_sp1": full.dim, "dim_without_sp1": sub.dim,
            "r1_spans_complement": not {"generator_is_curvature",
                                        "generator_has_sp1_part"} & set(broken)},
            broken)
        ok = ok and not broken
    return _result("parabolic-split", ok, details)


def check_mixed_signature_collapse(session: Session, tier: int) -> CheckResult:
    r, s, t = 1, 2, 1
    full = session.curvature("sp1+sp_w", r, s, t)
    sub = session.curvature("sp_w", r, s, t)
    broken = split_failures(full, sub)
    return _result("mixed-signature-collapse", not broken, with_failures(
        {"dim_with_sp1": full.dim, "dim_without_sp1": sub.dim}, broken))


def check_degenerate_pair_vanishing(session: Session, tier: int) -> CheckResult:
    full = session.curvature("sp1+sp_w", 1, 2, 1)
    report = curv.restrict_check_degenerate(full)
    vacuous = curv.restrict_check_degenerate(session.curvature("sp1+sp_w", 1, 1, 1))
    ok = report.status == "pass" and vacuous.status == "vacuous"
    return _result("degenerate-pair-vanishing", ok,
                   {"(1,2,1)": report.status, "(1,1,1)": vacuous.status,
                    "witnesses": [list(w[2]) for w in report.witnesses[:3]]})


def check_prolongations(session: Session, tier: int) -> CheckResult:
    results = {}
    ok = True
    for r in (1, 2):
        glq = session.algebra("glq", r, r, r)
        first = prolong.first_prolongation(prolong.restrict_action(
            glq, session.space(r, r, r).w_indices()))
        results[f"first_gl({r},H)"] = first.dim
        ok = ok and first.dim == 0
    h0 = session.algebra("h0", 1, 1, 1)
    action = prolong.restrict_action(h0, session.space(1, 1, 1).w_indices())
    first_h0 = prolong.first_prolongation(action)
    second_h0 = prolong.second_prolongation(first_h0)
    results["first_sp1+gl(1,H)"] = first_h0.dim
    results["second_sp1+gl(1,H)"] = second_h0.dim
    ok = ok and first_h0.dim >= 1 and second_h0.dim == 0
    return _result("prolongation-vanishing", ok, results)


def check_berger_verdicts(session: Session, tier: int) -> CheckResult:
    details = {}
    ok = True
    for r in _ranks(tier):
        h0_curv = session.curvature("h0", r, r, r)
        rep_h0 = berger_report(h0_curv)
        rep_full = berger_report(session.curvature("sp1+sp_w", r, r, r))
        rep_glq = berger_report(session.curvature("glq", r, r, r))
        r1 = curv.build_r1(h0_curv)
        annihilated = all(curv.act(a, r1).is_zero() for a in h0_curv.algebra.basis)
        details[f"r={r}"] = {
            "h0": {"closure": rep_h0.closure_dim, "is_berger": rep_h0.is_berger},
            "sp1+sp_w": {"closure": rep_full.closure_dim,
                         "is_berger": rep_full.is_berger},
            "glq": {"curvature_dim": rep_glq.curvature_dim,
                    "is_berger": rep_glq.is_berger},
            "h0_annihilates_r1": annihilated,
        }
        ok = (ok and rep_h0.is_berger and rep_full.is_berger
              and not rep_glq.is_berger and rep_glq.curvature_dim == 0
              and annihilated)
    return _result("berger-verdicts", ok, details)


def check_parallel_curvature(session: Session, tier: int) -> CheckResult:
    h0_curv = session.curvature("h0", 1, 1, 1)
    d_h0 = curv.derivative_space(h0_curv)
    full_curv = session.curvature("sp1+sp", 1, 1, 1)
    d_full = curv.derivative_space(full_curv)
    ok = d_h0.dim == 0 and d_full.dim > 0
    return _result("parallel-curvature", ok,
                   {"dim_h0": d_h0.dim, "dim_sp1+sp": d_full.dim})


def check_pair_symmetry(session: Session, tier: int) -> CheckResult:
    details = {}
    ok = True
    for (name, r, s, t), space in sorted(session.computed_curvatures().items()):
        good = curv.pair_symmetry_all(space)
        details[f"{name}@({r},{s},{t})"] = {"dim": space.dim, "symmetric": good}
        ok = ok and good
    return _result("pair-symmetry", ok, details)


def check_case_split(session: Session, tier: int) -> CheckResult:
    details = {}
    ok = True
    for (r, s, t) in _configs(tier):
        report = holonomy_case_split(r, s, t, session=session)
        details[f"({r},{s},{t})"] = {"case": report.case, "verdict": report.verdict}
        ok = ok and report.passed()
    return _result("holonomy-case-split", ok, details)


# fixed order; ids are stable across releases
ALL_CHECKS = (
    ("structure-axioms", check_structure_axioms),
    ("algebra-dimensions", check_algebra_dimensions),
    ("h0-curvature-line", check_h0_curvature_line),
    ("r0-membership-and-scalar", check_r0),
    ("full-algebra-split", check_full_split),
    ("parabolic-split", check_parabolic_split),
    ("mixed-signature-collapse", check_mixed_signature_collapse),
    ("degenerate-pair-vanishing", check_degenerate_pair_vanishing),
    ("prolongation-vanishing", check_prolongations),
    ("berger-verdicts", check_berger_verdicts),
    ("parallel-curvature", check_parallel_curvature),
    ("holonomy-case-split", check_case_split),
    ("pair-symmetry", check_pair_symmetry),  # last: covers all computed spaces
)


class VerificationReport(NamedTuple):
    tier: int
    checks: list
    with_timings: bool = False

    def all_passed(self) -> bool:
        return all(c.status in ("pass", "vacuous") for c in self.checks)

    def to_json(self) -> dict:
        statuses = [c.status for c in self.checks]
        return {
            "tool": TOOL_NAME,
            "version": TOOL_VERSION,
            "config": {"tier": self.tier},
            "checks": [c.to_json(self.with_timings) for c in self.checks],
            "summary": {
                "passed": statuses.count("pass") + statuses.count("vacuous"),
                "failed": statuses.count("fail"),
                "skipped": statuses.count("skipped"),
            },
        }

    def to_text(self) -> str:
        lines = [f"{TOOL_NAME} {TOOL_VERSION} verification (tier {self.tier})"]
        for c in self.checks:
            mark = {"pass": "PASS", "fail": "FAIL",
                    "vacuous": "VACUOUS", "skipped": "SKIP"}[c.status]
            lines.append(f"  {mark:7s} {c.check_id}")
        ok = self.all_passed()
        lines.append("all checks passed" if ok else "SOME CHECKS FAILED")
        return "\n".join(lines)


def _crash_details(exc: Exception) -> dict:
    """The message, the exception type and the innermost frame of a crash.

    The frame reads `file:line in function`, with the file relative to the
    directory holding the package (or its bare name outside it), so the
    report does not depend on where the package is installed."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    code = tb.tb_frame.f_code
    path = Path(code.co_filename).resolve()
    if _PACKAGE_PARENT in path.parents:
        where = path.relative_to(_PACKAGE_PARENT).as_posix()
    else:
        where = path.name
    return {"error": str(exc), "type": type(exc).__name__,
            "where": f"{where}:{tb.tb_lineno} in {code.co_name}"}


def run_verification(tier: int = 1, cache_dir=None,
                     with_timings: bool = False) -> VerificationReport:
    session = Session(cache_dir=cache_dir)
    results = []
    for check_id, fn in ALL_CHECKS:
        start = time.monotonic()
        try:
            result = fn(session, tier)
        except Exception as exc:  # a crash is a failed check, not a crashed run
            result = CheckResult(check_id, CLAIMS.get(check_id, ""), "fail",
                                 _crash_details(exc))
        results.append(result._replace(
            wall_time_ms=int((time.monotonic() - start) * 1000)))
    return VerificationReport(tier=tier, checks=results, with_timings=with_timings)
