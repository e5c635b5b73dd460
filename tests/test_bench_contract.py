"""The benchmark wraps package functions by name (bench/layers.py).  A
rename of a wrapped function, or a caller moved off one, would break it, so
these run small traced commands the way the bench does and check that the
layers it reads still record calls."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import layers
from berger_lab import cli

tracer = layers.Tracer()
layers.install(tracer)
code = cli.main({argv!r})
print(json.dumps({{"code": code, "calls": dict(tracer.calls),
                  "counters": dict(tracer.counters)}}))
"""


def traced(argv):
    """Run `berger-lab argv` under the bench's tracer; its exit code, call
    counts and counters."""
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"),
                           argv=list(argv))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_bench_layers_wrap_the_kernel_path():
    result = traced(["dim", "--algebra", "h0", "--r", "1", "--s", "1",
                     "--t", "1", "--curvature"])
    assert result["code"] == 0
    for span in ("exactlin.sparse_nullspace", "exactlin.canonical_rows",
                 "curvature.bianchi_kernel"):
        assert result["calls"].get(span, 0) > 0, span


def test_bench_layers_record_a_cold_tier1_run(tmp_path):
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import run
    finally:
        sys.path.remove(str(ROOT / "bench"))
    result = traced(run.VERIFY_T1 + ["--cache-dir", str(tmp_path / "cache"),
                                     "--out", str(tmp_path / "report.json")])
    assert result["code"] == 0
    silent = [s for s in run.EXPECT_CALLS["verify-t1-cold"]
              if not result["calls"].get(s)]
    silent += [c for c in run.EXPECT_COUNTERS["verify-t1-cold"]
               if not result["counters"].get(c)]
    assert not silent
