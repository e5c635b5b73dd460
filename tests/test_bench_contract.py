"""The benchmark wraps package functions by name (bench/layers.py).  A
rename of a wrapped function, or a caller moved off one, would break it, so
these run small traced calls the way the bench does and check that the
layers it reads still record calls, and that those a workload must not
reach record none."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import layers, worker

tracer = layers.Tracer()
layers.install(tracer)
code = worker.call({spec!r})
print(json.dumps({{"code": code, "calls": dict(tracer.calls),
                  "counters": dict(tracer.counters)}}))
"""


def traced(spec):
    """Run one bench call (`worker.call`: a `berger-lab` argument list, or a
    library case split) under the bench's tracer; its exit code, call counts,
    counters and stderr."""
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"),
                           spec=spec)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return {**json.loads(proc.stdout.splitlines()[-1]), "stderr": proc.stderr}


def bench_run():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import run
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return run


def off_contract(run, workload, result):
    """The spans and counters `workload` must record but did not, and the
    spans it must not reach but did."""
    silent = [s for s in run.EXPECT_CALLS[workload] if not result["calls"].get(s)]
    silent += [c for c in run.EXPECT_COUNTERS.get(workload, ())
               if not result["counters"].get(c)]
    reached = [s for s in run.EXPECT_NO_CALLS.get(workload, ())
               if result["calls"].get(s)]
    return silent, reached


def verify_t1(run, tmp_path, cache):
    return traced(run.VERIFY_T1 + ["--cache-dir", str(cache),
                                   "--out", str(tmp_path / "report.json")])


def test_bench_layers_wrap_the_kernel_path():
    result = traced(["dim", "--algebra", "h0", "--r", "1", "--s", "1",
                     "--t", "1", "--curvature"])
    assert result["code"] == 0
    for span in ("exactlin.sparse_nullspace", "exactlin.canonical_rows",
                 "curvature.bianchi_kernel"):
        assert result["calls"].get(span, 0) > 0, span


def test_bench_layers_record_a_cold_tier1_run(tmp_path):
    run = bench_run()
    result = verify_t1(run, tmp_path, tmp_path / "cache")
    assert result["code"] == 0
    assert off_contract(run, "verify-t1-cold", result) == ([], [])


def test_bench_layers_record_a_warm_tier1_run(tmp_path):
    run = bench_run()
    assert verify_t1(run, tmp_path, tmp_path / "cache")["code"] == 0
    result = verify_t1(run, tmp_path, tmp_path / "cache")
    assert result["code"] == 0
    assert off_contract(run, "verify-t1-warm", result) == ([], [])
    # every entry a cold run wrote passes the load check: none is recomputed
    assert "warning:" not in result["stderr"]


def test_bench_layers_record_the_case_split_call(tmp_path):
    run = bench_run()
    result = traced({"case_split": [1, 3, 1], "out": str(tmp_path / "report.json")})
    assert result["code"] == 0
    assert off_contract(run, "case-split-131", result) == ([], [])


def test_bench_layers_record_the_h0_line_call(tmp_path):
    run = bench_run()
    result = traced(["dim", "--algebra", "h0", "--r", "3", "--s", "3", "--t", "3",
                     "--curvature", "--out", str(tmp_path / "out.json")])
    assert result["code"] == 0
    assert off_contract(run, "h0-line-333", result) == ([], [])
