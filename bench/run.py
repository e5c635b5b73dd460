"""Benchmark driver for berger-lab (standard library only).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workers (bench/worker.py) run with
PYTHONHASHSEED=0, one at a time, and every repetition's output is checked.
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.

--trace 0 repeats the workload in one served worker interpreter until S
seconds have passed and reports the end-to-end metrics: wall_s (the median
repetition), setup_s (the median set-up sample), peak_rss_mb and
success_rate.  Both times are probed wall times put on the reference
host's scale by bench/probe.py, since the host's own speed varies by more
than the bounds.  --trace 1 alternates untraced repetitions
with ones traced by the per-layer spans of bench/layers.py, reports every
per-layer metric named in BENCHMARK.json, and fails if the traced
repetitions disagree on a call count or counter, or if a layer the
workload must reach recorded no calls.

The workloads are fixed configurations of the paper, so the seed changes
nothing the program sees; it is accepted so that runs can be told apart.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_EVERY_S = 0.5  # seconds between set-up samples
TRACE_PAIRS = 3  # untraced and traced repetitions of a --trace 1 run
RUN_LIMIT_S = 170  # a run must end within 180 s

VERIFY_T1 = ["verify-paper", "--tier", "1", "--format", "json"]

CHECK_IDS = (
    "structure-axioms", "algebra-dimensions", "h0-curvature-line",
    "r0-membership-and-scalar", "full-algebra-split", "parabolic-split",
    "mixed-signature-collapse", "degenerate-pair-vanishing",
    "prolongation-vanishing", "berger-verdicts", "parallel-curvature",
    "holonomy-case-split", "pair-symmetry",
)

# spans that must record calls on each workload (see bench/README.md)
_VERIFY_SPANS = [
    "quatspace.build_space", "liealg.construct",
    "liealg.stabilizer_of_subspace", "exactlin.canonical_rows",
    "exactlin.span_of", "curvature.coefficient_subspace",
    "curvature.coefficients_over", "curvature.pair_symmetry_all",
    "curvature.act", "curvature.build_r0", "curvature.derivative_space",
    "prolong.first_prolongation", "prolong.second_prolongation",
    "berger.berger_report", "berger.holonomy_case_split",
    "harness.cache_get", "cli.main",
] + [f"harness.check.{c}" for c in CHECK_IDS]

EXPECT_CALLS = {
    "verify-t1-cold": _VERIFY_SPANS + [
        "exactlin.sparse_nullspace", "curvature.bianchi_kernel",
        "harness.cache_put"],
    "verify-t1-warm": _VERIFY_SPANS + ["curvature.CurvatureSpace.from_json"],
    "h0-line-333": [
        "quatspace.build_space", "liealg.construct",
        "exactlin.sparse_nullspace", "exactlin.canonical_rows",
        "curvature.bianchi_kernel", "cli.main"],
    "case-split-131": [
        "quatspace.build_space", "liealg.construct",
        "exactlin.sparse_nullspace", "exactlin.canonical_rows",
        "curvature.bianchi_kernel", "curvature.coefficients_over",
        "curvature.coefficient_subspace", "berger.holonomy_case_split"],
}
EXPECT_COUNTERS = {
    "verify-t1-cold": ["harness.cache_get.misses", "harness.cache_put.bytes"],
    "verify-t1-warm": ["harness.cache_get.hits", "harness.cache_get.bytes"],
}
# the calls a warm run must not make: it reads every space from the cache
EXPECT_NO_CALLS = {
    "verify-t1-warm": ["curvature.bianchi_kernel", "harness.cache_put"],
    "case-split-131": ["berger.berger_report", "curvature.pair_symmetry_all",
                       "harness.cache_get", "cli.main"],
}


@dataclass
class Rep:
    """One repetition: its wall time (normalised, when probed) and
    operations."""

    wall_s: float
    attempted: int
    failed: int
    raw_s: float = 0.0  # the wall time before normalisation, when probed


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(1)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, stderr, deadline: float, **kwargs):
    """Start bench/worker.py; it is killed if it outlives `deadline`."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, env=worker_env(), stderr=stderr, **kwargs)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    return proc, timer


def reap(proc, timer, stderr_path: Path):
    """Wait for the worker to end; (exit code, peak RSS MB)."""
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = stderr_path.read_text()[-2000:]
        print(f"bench: worker exited {proc.returncode}:\n{tail}", file=sys.stderr)
    return proc.returncode, usage.ru_maxrss / 1024


def run_worker(args, rep_dir: Path, deadline: float, stdout=None):
    """Run bench/worker.py to completion; (exit code, wall s, peak RSS MB).
    Its standard output goes to `stdout` if given, else to its stderr file."""
    path = rep_dir / "stderr.txt"
    with path.open("w") as stderr:
        t0 = time.perf_counter()
        proc, timer = start_worker(args, stderr, deadline,
                                   stdin=subprocess.DEVNULL,
                                   stdout=stdout or stderr)
        code, rss = reap(proc, timer, path)
        wall = time.perf_counter() - t0
    return code, wall, rss


class Server:
    """A `worker.py --serve` interpreter that runs repetitions one after
    another and reports each one's wall time.  A worker that dies is
    replaced; its repetition counts as failed."""

    def __init__(self, work: Path, deadline: float):
        self.path = work / "server-stderr.txt"
        self.stderr = self.path.open("w")
        self.deadline = deadline
        self.rss_mb = 0.0
        self.proc = None

    def call(self, spec) -> tuple[int, float, float]:
        """(exit code, normalised wall s, raw wall s) of one call; code -1
        if the worker died."""
        if self.proc is None:
            self.proc, self.timer = start_worker(
                ["--serve"], self.stderr, self.deadline, text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            self.proc.stdin.write(json.dumps(spec) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except OSError:
            line = ""
        if not line:
            self.close()
            return -1, 0.0, 0.0
        reply = json.loads(line)
        return (reply["code"], probe.normalised(reply["wall_s"], reply),
                reply["wall_s"])

    def close(self) -> None:
        if self.proc is not None:
            try:
                self.proc.stdin.close()
            except OSError:  # the worker died with input unread
                pass
            _, rss = reap(self.proc, self.timer, self.path)
            self.proc.stdout.close()
            self.rss_mb = max(self.rss_mb, rss)
            self.proc = None


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_verify(code: int, out: Path, reference: bytes | None = None) -> int:
    """Operations = the 13 checks; each must pass (or be vacuous).  With a
    reference report, every check counts as failed unless the report is
    byte-identical to it."""
    try:
        report = out.read_bytes()
        checks = {c["id"]: c for c in json.loads(report)["checks"]}
    except (OSError, ValueError, KeyError, TypeError):
        return len(CHECK_IDS)
    if reference is not None and report != reference:
        return len(CHECK_IDS)
    failed = sum(checks.get(c, {}).get("status") not in ("pass", "vacuous")
                 for c in CHECK_IDS)
    return len(CHECK_IDS) if code != 0 and failed == 0 else failed


def check_case_split(code: int, out: Path) -> tuple[int, int]:
    """Operations = the report's sub-checks; each must pass, and the
    report must take the mixed-signature branch and confirm the claim."""
    try:
        report = json.loads(out.read_text())
        checks = report["checks"]
        ok = report["case"] == "mixed-signature" and report["verdict"] == "confirmed"
    except (OSError, ValueError, KeyError, TypeError):
        return 1, 1
    attempted = max(1, len(checks))
    if code != 0 or not ok:
        return attempted, attempted
    return attempted, sum(c.get("status") != "pass" for c in checks)


def check_dim(code: int, out: Path) -> int:
    """One operation: the curvature dimension must be exactly 1."""
    try:
        m = re.search(r"^dim curvature space = (\d+)$", out.read_text(), re.M)
    except OSError:
        m = None
    return int(code != 0 or m is None or m.group(1) != "1")


class Runner:
    """Prepares and checks one workload's repetitions, each in a fresh
    directory under `work`.  The warm workload first runs the cold command
    once, untimed, to write the cache and the reference report its
    repetitions must match byte for byte."""

    def __init__(self, workload: str, work: Path):
        self.workload = workload
        self.work = work
        self.count = 0
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.cache = self.reference = None
        if workload == "verify-t1-warm":
            self.cache = work / "prepared-cache"
            self.cache.mkdir()
            out = work / "prepared.json"
            code, _, _ = run_worker(
                [json.dumps(VERIFY_T1 + ["--cache-dir", str(self.cache),
                                         "--out", str(out)])],
                work, self.deadline)
            if check_verify(code, out):
                fail("the cold run that prepares the warm cache failed")
            self.reference = out.read_bytes()

    def fresh_dir(self) -> Path:
        self.count += 1
        d = self.work / f"rep{self.count}"
        d.mkdir()
        return d

    def setup_once(self) -> float:
        """Interpreter start plus import of the package; for the warm
        workload also the copy of the prepared cache into a fresh dir.
        Normalised by the probe the worker runs while it does both."""
        d = self.fresh_dir()
        args = ["--import-only"]
        if self.cache is not None:
            args += [str(self.cache), str(d / "cache")]
        with (d / "probe.json").open("w") as out:
            code, wall, _ = run_worker(args, d, self.deadline, stdout=out)
        if code != 0:
            fail("the package does not import")
        probed = json.loads((d / "probe.json").read_text())
        shutil.rmtree(d)
        return probe.normalised(wall, probed)

    def prepare(self, d: Path):
        """The worker call of one repetition, with its inputs put in `d`."""
        out = d / "out.json"
        if self.workload == "h0-line-333":
            return ["dim", "--algebra", "h0", "--r", "3", "--s", "3", "--t", "3",
                    "--curvature", "--out", str(out)]
        if self.workload == "case-split-131":
            return {"case_split": [1, 3, 1], "out": str(out)}
        cache = d / "cache"
        if self.cache is not None:
            shutil.copytree(self.cache, cache)
        else:
            cache.mkdir()
        return VERIFY_T1 + ["--cache-dir", str(cache), "--out", str(out)]

    def check(self, code: int, d: Path) -> tuple[int, int]:
        """(operations attempted, operations failed) of one repetition."""
        out = d / "out.json"
        if self.workload == "h0-line-333":
            return 1, check_dim(code, out)
        if self.workload == "case-split-131":
            return check_case_split(code, out)
        return len(CHECK_IDS), check_verify(code, out, self.reference)

    def served_rep(self, server: Server) -> Rep:
        d = self.fresh_dir()
        code, wall, raw = server.call(self.prepare(d))
        rep = Rep(wall, *self.check(code, d), raw_s=raw)
        shutil.rmtree(d)
        return rep

    def process_rep(self, trace: bool) -> tuple[Rep, dict | None]:
        """One repetition in its own interpreter, timed from its start to
        its exit; with `trace`, also its per-layer trace."""
        d = self.fresh_dir()
        args = [json.dumps(self.prepare(d))]
        if trace:
            args.append(str(d / "trace.json"))
        code, wall, _ = run_worker(args, d, self.deadline)
        data = None
        if trace:
            try:
                data = json.loads((d / "trace.json").read_text())
            except (OSError, ValueError):
                fail("the traced worker wrote no trace")
        rep = Rep(wall, *self.check(code, d))
        shutil.rmtree(d)
        return rep, data


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(runner: Runner, seconds: int):
    """Repetitions in one served interpreter until `seconds` have passed.
    A set-up sample is taken before the first repetition and then between
    repetitions every SETUP_EVERY_S."""
    setups = []
    reps = []
    server = Server(runner.work, runner.deadline)
    try:
        stop = time.monotonic() + seconds
        last = -SETUP_EVERY_S
        while not reps or time.monotonic() < stop:
            if time.monotonic() - last >= SETUP_EVERY_S:
                setups.append(runner.setup_once())
                last = time.monotonic()
            reps.append(runner.served_rep(server))
    finally:
        server.close()
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    timed = [r for r in reps if not r.failed] or reps
    for what, values in (("normalised", [r.wall_s for r in timed]),
                         ("raw", [r.raw_s for r in timed]),
                         ("normalised set-up", setups)):
        print(f"bench: {what} s over {len(values)}: min {min(values):.4f} "
              f"median {statistics.median(values):.4f} max {max(values):.4f}",
              file=sys.stderr)
    metrics = {
        "wall_s": (statistics.median(r.wall_s for r in timed), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (server.rss_mb, "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }
    return reps, metrics


def layer_value(name: str, trace: dict, overhead: float):
    if name == "trace.overhead_s":
        return overhead
    if name == "exactlin.sparse_nullspace.rows_s":
        return trace["self_s"].get(layers.ROWS_SPAN, 0.0)
    for suffix, table, zero in ((".self_s", "self_s", 0.0), (".s", "total_s", 0.0),
                                (".calls", "calls", 0)):
        if name.endswith(suffix):
            return trace[table].get(name[:-len(suffix)], zero)
    if name not in layers.COUNTERS:
        fail(f"unknown per-layer metric {name!r}")
    return trace["counters"].get(name, 0)


def exact(trace: dict) -> dict:
    return {"calls": trace["calls"], "counters": trace["counters"]}


def per_layer(runner: Runner, spec: list):
    """TRACE_PAIRS alternating untraced and traced repetitions.  The layer
    metrics come from the fastest traced one; the overhead is the fastest
    traced minus the fastest untraced wall time."""
    plain, traced = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(runner.process_rep(trace=False)[0])
        traced.append(runner.process_rep(trace=True))
    trace = min(traced, key=lambda rt: rt[0].wall_s)[1]
    if any(exact(t) != exact(trace) for _, t in traced):
        fail(f"calls or counters differ between traced runs of {runner.workload}")
    missing = [s for s in EXPECT_CALLS[runner.workload]
               if not trace["calls"].get(s)]
    missing += [c for c in EXPECT_COUNTERS.get(runner.workload, [])
                if not trace["counters"].get(c)]
    if missing:
        fail(f"layers with no recorded work on {runner.workload}: {missing}")
    unexpected = [s for s in EXPECT_NO_CALLS.get(runner.workload, [])
                  if trace["calls"].get(s)]
    if unexpected:
        fail(f"layers that should do nothing on {runner.workload}: {unexpected}")
    overhead = (min(r.wall_s for r, _ in traced)
                - min(r.wall_s for r in plain))
    metrics = {m["name"]: (layer_value(m["name"], trace, overhead), m["unit"])
               for m in spec}
    return plain + [r for r, _ in traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(EXPECT_CALLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "berger_lab" / "__init__.py").is_file():
        fail(f"no berger_lab source under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    built = subprocess.run([sys.executable, "-m", "compileall", "-q",
                            str(ROOT / "src")], stdout=subprocess.DEVNULL)
    if built.returncode != 0:
        fail("the package does not compile")

    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        runner = Runner(args.workload, work)
        if args.trace:
            reps, metrics = per_layer(runner, spec["per_layer"])
        else:
            reps, metrics = end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
