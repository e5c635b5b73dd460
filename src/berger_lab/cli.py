"""Command-line front end.

    berger-lab dim|curvature-space|prolongation|berger --algebra NAME
        [--r N --s N --t N --format json|csv|text --out PATH]
        [--curvature]         (dim)
        [--order 1|2]         (prolongation)
    berger-lab verify-paper [--tier 1|2 --format json|csv|text --out PATH
        --cache-dir PATH --timings]

Each command takes only the options it reads: verify-paper runs its own
configurations, and it alone reads a cache (--cache-dir).  An option is
taken only when spelled in full: a prefix such as --curv is an
unrecognised option, so a new option cannot change what an existing
command line means.  `main` builds the options of the command it runs
only; every command keeps its name and help in the parser, so the
top-level help and usage errors read the same.

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
from .harness import Session
from .liealg import ALGEBRA_NAMES

__all__ = ["main", "build_parser"]


def _add_common(p, rst=True):
    if rst:
        p.add_argument("--r", type=int, default=1)
        p.add_argument("--s", type=int, default=1)
        p.add_argument("--t", type=int, default=1)
    p.add_argument("--format", dest="fmt",
                   choices=("json", "csv", "text"), default="text")
    p.add_argument("--out", help="write the output here instead of stdout")


def _add_algebra(p):
    p.add_argument("--algebra", required=True,
                   help=f"one of: {', '.join(ALGEBRA_NAMES)}")


def _algebra_options(p):
    _add_common(p)
    _add_algebra(p)


def _dim_options(p):
    _algebra_options(p)
    p.add_argument("--curvature", action="store_true",
                   help="also compute the curvature-space dimension")


def _prolongation_options(p):
    _algebra_options(p)
    p.add_argument("--order", type=int, choices=(1, 2), default=1)


def _verify_options(p):
    _add_common(p, rst=False)
    p.add_argument("--cache-dir",
                   help="directory for cached curvature-space bases")
    p.set_defaults(fmt="json")  # the report is JSON unless asked otherwise
    p.add_argument("--tier", type=int, choices=(1, 2), default=1)
    p.add_argument("--timings", action="store_true",
                   help="include wall times (breaks byte-for-byte "
                        "report determinism)")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command.  Each command is registered with its
    name and help; given `command`, only that one gets its options, which
    is all that parsing a command line beginning with it reads."""
    parser = argparse.ArgumentParser(
        prog="berger-lab", allow_abbrev=False,
        description=("Exact-arithmetic verification of curvature spaces, "
                     "Berger closures, and prolongations for holonomy "
                     "candidates on pseudo-quaternionic-Hermitian spaces."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_options, _) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False, help=help_text)
        if command is None or command == name:
            add_options(p)
    return parser


class ConfigError(ValueError):
    """A run configuration that violates the usage contract (exit code 2)."""


def check_usage(args: argparse.Namespace) -> None:
    """Raise ConfigError for what argparse lets through: an (r, s, t) that
    names no space, or an algebra outside the registry."""
    if args.r < 0 or args.s < 0 or args.r + args.s < 1:
        raise ConfigError("need r, s >= 0 with r + s >= 1")
    if not 0 <= args.t <= min(args.r, args.s):
        raise ConfigError("need 0 <= t <= min(r, s)")
    if args.algebra not in ALGEBRA_NAMES:
        raise ConfigError(f"unknown algebra {args.algebra!r}; known: "
                          + ", ".join(ALGEBRA_NAMES))


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


def _emit_row(row: dict, args: argparse.Namespace) -> None:
    if args.fmt == "json":
        _emit(json.dumps(row, sort_keys=True, indent=2), args.out)
    elif args.fmt == "csv":
        keys = sorted(row)
        _emit(",".join(keys) + "\n" + ",".join(str(row[k]) for k in keys),
              args.out)


def cmd_dim(args: argparse.Namespace) -> int:
    session = Session()
    alg = session.algebra(args.algebra, args.r, args.s, args.t)
    row = {"algebra": args.algebra, "r": args.r, "s": args.s,
           "t": args.t, "dim": alg.dim}
    if args.curvature:
        row["dim_curvature_space"] = session.curvature(
            args.algebra, args.r, args.s, args.t).dim
    if args.fmt == "text":
        text = (f"dim {args.algebra} at (r,s,t)="
                f"({args.r},{args.s},{args.t}) = {alg.dim}")
        if args.curvature:
            text += f"\ndim curvature space = {row['dim_curvature_space']}"
        _emit(text, args.out)
    else:
        _emit_row(row, args)
    return 0


def cmd_curvature_space(args: argparse.Namespace) -> int:
    session = Session()
    space = session.curvature(args.algebra, args.r, args.s, args.t)
    if args.fmt == "json":
        _emit(json.dumps(space.to_json(), sort_keys=True), args.out)
    elif args.fmt == "csv":
        _emit("algebra,r,s,t,dim\n"
              f"{args.algebra},{args.r},{args.s},{args.t},{space.dim}",
              args.out)
    else:
        _emit(f"dim curvature space of {args.algebra} at "
              f"({args.r},{args.s},{args.t}) = {space.dim}", args.out)
    return 0


def cmd_prolongation(args: argparse.Namespace) -> int:
    session = Session()
    alg = session.algebra(args.algebra, args.r, args.s, args.t)
    if args.t < 1:
        raise ValueError("W requires t >= 1")
    action = prolong.restrict_action(
        alg, session.space(args.r, args.s, args.t).w_indices())
    result = prolong.first_prolongation(action)
    if args.order == 2:
        result = prolong.second_prolongation(result)
    row = {"algebra": args.algebra, "r": args.r, "s": args.s,
           "t": args.t, "order": args.order, "dim": result.dim}
    if args.fmt == "text":
        _emit(f"prolongation order {args.order} of {args.algebra}|_W at "
              f"({args.r},{args.s},{args.t}): dim = {result.dim}",
              args.out)
    else:
        _emit_row(row, args)
    return 0


def cmd_berger(args: argparse.Namespace) -> int:
    session = Session()
    report = berger_report(
        session.curvature(args.algebra, args.r, args.s, args.t))
    if args.fmt == "json":
        _emit(json.dumps(report.to_json(), sort_keys=True, indent=2),
              args.out)
    elif args.fmt == "csv":
        _emit("algebra,dim_algebra,dim_curvature_space,dim_berger_closure,is_berger\n"
              f"{report.algebra_name},{report.algebra_dim},{report.curvature_dim},"
              f"{report.closure_dim},{report.is_berger}", args.out)
    else:
        verdict = "a Berger algebra" if report.is_berger else "NOT a Berger algebra"
        _emit(f"{report.algebra_name}: dim {report.algebra_dim}, curvature "
              f"space dim {report.curvature_dim}, closure dim "
              f"{report.closure_dim} -> {verdict}\n"
              f"({report.to_json()['note']})", args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = harness.run_verification(tier=args.tier,
                                      cache_dir=args.cache_dir,
                                      with_timings=args.timings)
    if args.fmt == "csv":
        lines = ["id,status"]
        lines += [f"{c.check_id},{c.status}" for c in report.checks]
        _emit("\n".join(lines), args.out)
    elif args.fmt == "text":
        _emit(report.to_text(), args.out)
    else:
        _emit(json.dumps(report.to_json(), sort_keys=True, indent=2),
              args.out)
    return 0 if report.all_passed() else 1


# each command, in help order: its help line, what adds its options and
# what runs it
_COMMANDS = {
    "dim": ("dimension of a registry algebra", _dim_options, cmd_dim),
    "curvature-space": ("basis of the first-Bianchi kernel", _algebra_options,
                        cmd_curvature_space),
    "prolongation": ("prolongation of an algebra restricted to W",
                     _prolongation_options, cmd_prolongation),
    "berger": ("Berger-criterion report", _algebra_options, cmd_berger),
    "verify-paper": ("run the full verification suite", _verify_options,
                     cmd_verify),
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        if "algebra" in args:  # every command but verify-paper
            check_usage(args)
        return _COMMANDS[args.command][2](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
