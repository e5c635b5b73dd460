"""Command-line front end.

    berger-lab <command> [--r N --s N --t N --algebra NAME
                          --format json|csv|text --out PATH
                          --cache-dir PATH --tier 1|2]

Commands: dim, curvature-space, prolongation, berger, verify-paper.
Exit codes: 0 success / all checks passed, 1 a check failed or a
computation was impossible, 2 usage error (including unknown algebra
names and an --out path that cannot be written).  Output is
deterministic for a fixed configuration and tool version; timing data is
opt-in via --timings.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness, prolong
from .berger import berger_report
from .harness import ConfigError, RunConfig, Session
from .liealg import ALGEBRA_NAMES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berger-lab",
        description=("Exact-arithmetic verification of curvature spaces, "
                     "Berger closures, and prolongations for holonomy "
                     "candidates on pseudo-quaternionic-Hermitian spaces."))
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--r", type=int, default=1)
        p.add_argument("--s", type=int, default=1)
        p.add_argument("--t", type=int, default=1)
        p.add_argument("--format", dest="fmt",
                       choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", help="write the output here instead of stdout")
        p.add_argument("--cache-dir",
                       help="directory for cached curvature-space bases")

    def add_algebra(p):
        p.add_argument("--algebra", required=True,
                       help=f"one of: {', '.join(ALGEBRA_NAMES)}")

    p_dim = sub.add_parser("dim", help="dimension of a registry algebra")
    add_common(p_dim)
    add_algebra(p_dim)
    p_dim.add_argument("--curvature", action="store_true",
                       help="also compute the curvature-space dimension")

    p_curv = sub.add_parser("curvature-space",
                            help="basis of the first-Bianchi kernel")
    add_common(p_curv)
    add_algebra(p_curv)

    p_prol = sub.add_parser("prolongation",
                            help="prolongation of an algebra restricted to W")
    add_common(p_prol)
    add_algebra(p_prol)
    p_prol.add_argument("--order", type=int, choices=(1, 2), default=1)

    p_berger = sub.add_parser("berger", help="Berger-criterion report")
    add_common(p_berger)
    add_algebra(p_berger)

    p_verify = sub.add_parser("verify-paper",
                              help="run the full verification suite")
    add_common(p_verify)
    p_verify.set_defaults(fmt="json")  # the report is JSON unless asked otherwise
    p_verify.add_argument("--tier", type=int, choices=(1, 2), default=1)
    p_verify.add_argument("--timings", action="store_true",
                          help="include wall times (breaks byte-for-byte "
                               "report determinism)")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        r=getattr(args, "r", 1),
        s=getattr(args, "s", 1),
        t=getattr(args, "t", 1),
        algebra=getattr(args, "algebra", None),
        fmt=args.fmt,
        out=args.out,
        cache_dir=args.cache_dir,
        max_rank_tier=getattr(args, "tier", 1),
        timings=getattr(args, "timings", False),
        curvature=getattr(args, "curvature", False),
        order=getattr(args, "order", 1),
    )


def _emit(text: str, out_path) -> None:
    """Print `text`, or write it to `out_path`; a path that cannot be
    written is a usage error (exit 2), not a failed check (exit 1)."""
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write --out: {exc}") from exc
    else:
        print(text)


def _emit_row(row: dict, config: RunConfig) -> None:
    if config.fmt == "json":
        _emit(json.dumps(row, sort_keys=True, indent=2), config.out)
    elif config.fmt == "csv":
        keys = sorted(row)
        _emit(",".join(keys) + "\n" + ",".join(str(row[k]) for k in keys),
              config.out)


def cmd_dim(config: RunConfig) -> int:
    session = Session(cache_dir=config.cache_dir)
    alg = session.algebra(config.algebra, config.r, config.s, config.t)
    row = {"algebra": config.algebra, "r": config.r, "s": config.s,
           "t": config.t, "dim": alg.dim}
    if config.curvature:
        row["dim_curvature_space"] = session.curvature(
            config.algebra, config.r, config.s, config.t).dim
    if config.fmt == "text":
        text = (f"dim {config.algebra} at (r,s,t)="
                f"({config.r},{config.s},{config.t}) = {alg.dim}")
        if config.curvature:
            text += f"\ndim curvature space = {row['dim_curvature_space']}"
        _emit(text, config.out)
    else:
        _emit_row(row, config)
    return 0


def cmd_curvature_space(config: RunConfig) -> int:
    session = Session(cache_dir=config.cache_dir)
    space = session.curvature(config.algebra, config.r, config.s, config.t)
    if config.fmt == "json":
        _emit(json.dumps(space.to_json(), sort_keys=True), config.out)
    elif config.fmt == "csv":
        _emit("algebra,r,s,t,dim\n"
              f"{config.algebra},{config.r},{config.s},{config.t},{space.dim}",
              config.out)
    else:
        _emit(f"dim curvature space of {config.algebra} at "
              f"({config.r},{config.s},{config.t}) = {space.dim}", config.out)
    return 0


def cmd_prolongation(config: RunConfig) -> int:
    session = Session(cache_dir=config.cache_dir)
    alg = session.algebra(config.algebra, config.r, config.s, config.t)
    w = session.space(config.r, config.s, config.t).isotropic_subspace_W()
    action = prolong.restrict_action(alg, w)
    result = prolong.first_prolongation(action, label=alg.name)
    if config.order == 2:
        result = prolong.second_prolongation(result, label=alg.name)
    row = {"algebra": config.algebra, "r": config.r, "s": config.s,
           "t": config.t, "order": config.order, "dim": result.dim}
    if config.fmt == "text":
        _emit(f"prolongation order {config.order} of {config.algebra}|_W at "
              f"({config.r},{config.s},{config.t}): dim = {result.dim}",
              config.out)
    else:
        _emit_row(row, config)
    return 0


def cmd_berger(config: RunConfig) -> int:
    session = Session(cache_dir=config.cache_dir)
    report = berger_report(
        session.curvature(config.algebra, config.r, config.s, config.t))
    if config.fmt == "json":
        _emit(json.dumps(report.to_json(), sort_keys=True, indent=2),
              config.out)
    elif config.fmt == "csv":
        _emit("algebra,dim_algebra,dim_curvature_space,dim_berger_closure,is_berger\n"
              f"{report.algebra_name},{report.algebra_dim},{report.curvature_dim},"
              f"{report.closure_dim},{report.is_berger}", config.out)
    else:
        verdict = "a Berger algebra" if report.is_berger else "NOT a Berger algebra"
        _emit(f"{report.algebra_name}: dim {report.algebra_dim}, curvature "
              f"space dim {report.curvature_dim}, closure dim "
              f"{report.closure_dim} -> {verdict}\n"
              f"({report.to_json()['note']})", config.out)
    return 0


def cmd_verify(config: RunConfig) -> int:
    report = harness.run_verification(tier=config.max_rank_tier,
                                      cache_dir=config.cache_dir,
                                      with_timings=config.timings)
    if config.fmt == "csv":
        lines = ["id,status"]
        lines += [f"{c.check_id},{c.status}" for c in report.checks]
        _emit("\n".join(lines), config.out)
    elif config.fmt == "text":
        _emit(report.to_text(), config.out)
    else:
        _emit(json.dumps(report.to_json(), sort_keys=True, indent=2),
              config.out)
    return 0 if report.all_passed() else 1


HANDLERS = {
    "dim": cmd_dim,
    "curvature-space": cmd_curvature_space,
    "prolongation": cmd_prolongation,
    "berger": cmd_berger,
    "verify-paper": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        return HANDLERS[config.command](config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
