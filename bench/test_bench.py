"""Checks of the benchmark's own tracing, on configurations small enough to
finish in seconds, and of its host probe.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def traced(tmp_path: Path, cli_argv: list, name: str, trace=True):
    """Run the worker on `cli_argv`; return (exit code, trace or None)."""
    args = [sys.executable, str(BENCH / "worker.py"), json.dumps(cli_argv)]
    if trace:
        args.append(str(tmp_path / f"{name}.trace.json"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    code = subprocess.run(args, cwd=ROOT, env=env, timeout=300).returncode
    if not trace:
        return code, None
    return code, json.loads((tmp_path / f"{name}.trace.json").read_text())


def verify_tier1(tmp_path: Path, name: str, cache: Path, trace=True):
    out = tmp_path / f"{name}.report.json"
    cli_argv = ["verify-paper", "--tier", "1", "--cache-dir", str(cache),
                "--out", str(out)]
    code, data = traced(tmp_path, cli_argv, name, trace)
    return code, data, out.read_bytes()


def exact(data: dict) -> dict:
    return {"calls": data["calls"], "counters": data["counters"]}


def test_counters_repeat_exactly_cold_and_warm(tmp_path):
    runs = []
    for i in (1, 2):
        cache = tmp_path / f"cache{i}"
        cold = verify_tier1(tmp_path, f"cold{i}", cache)
        warm = verify_tier1(tmp_path, f"warm{i}", cache)
        runs.append((cold, warm))
    (cold1, warm1), (cold2, warm2) = runs
    for code, _, _ in (cold1, warm1, cold2, warm2):
        assert code == 0
    assert exact(cold1[1]) == exact(cold2[1])
    assert exact(warm1[1]) == exact(warm2[1])
    assert cold1[1]["counters"]["harness.cache_get.misses"] > 0
    assert cold1[1]["counters"]["harness.cache_put.bytes"] > 0
    assert "harness.cache_get.hits" not in cold1[1]["counters"]
    assert warm1[1]["counters"]["harness.cache_get.hits"] > 0
    assert "harness.cache_get.misses" not in warm1[1]["counters"]
    assert "curvature.bianchi_kernel" not in warm1[1]["calls"]
    # every check ran inside its own span
    assert sum(k.startswith("harness.check.") for k in cold1[1]["calls"]) == 13


def test_tracing_leaves_the_report_unchanged(tmp_path):
    code, _, plain = verify_tier1(tmp_path, "plain", tmp_path / "c1", trace=False)
    assert code == 0
    code, _, with_trace = verify_tier1(tmp_path, "traced", tmp_path / "c2")
    assert code == 0
    assert plain == with_trace



def test_probe_samples_during_a_call_and_normalises():
    sys.path.insert(0, str(BENCH))
    import probe

    host = probe.Probe(0.005)
    host.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.2:
        sum(range(1000))
    wall = time.perf_counter() - t0
    probed = host.stop()
    assert 0 < probed["probe_s"] < wall
    assert 0 < probe.normalised(wall, probed)
    # the timer is off and the signal back to its default afterwards
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
