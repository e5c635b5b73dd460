"""The benchmark wraps package functions by name (bench/layers.py).  A
rename of a wrapped function would break it, so this runs one small traced
command the way the bench does and checks that the layers it reads still
record calls."""

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
code = cli.main(["dim", "--algebra", "h0", "--r", "1", "--s", "1", "--t", "1",
                 "--curvature"])
print(json.dumps({{"code": code, "calls": dict(tracer.calls)}}))
"""


def test_bench_layers_wrap_the_kernel_path():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    for span in ("exactlin.sparse_nullspace", "exactlin.canonical_rows",
                 "curvature.bianchi_kernel"):
        assert result["calls"].get(span, 0) > 0, span
