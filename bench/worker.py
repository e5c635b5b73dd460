"""Run one workload in this fresh interpreter, optionally traced.

    python3 bench/worker.py CALL_JSON [TRACE_PATH]
    python3 bench/worker.py --serve
    python3 bench/worker.py --import-only [CACHE_SRC CACHE_DST]

CALL_JSON is the JSON list of arguments of one `berger-lab` command, run
through `berger_lab.cli.main`, whose `--out` names where the output goes;
or {"case_split": [r, s, t], "out": PATH} (see `call`).
The exit status is the command's own; an exception exits non-zero with
its traceback on stderr.  With
TRACE_PATH the per-layer spans and counters of `layers.py` are recorded
and written there as JSON.

With --serve the worker reads one CALL_JSON per line of standard input and
runs each in this interpreter, after a garbage collection, under the host
probe of `probe.py`; for each it writes one line {"code", "wall_s",
"probe_s", "speed"} to standard output, wall_s being the time of the call
alone.  Anything the program prints goes to stderr.

--import-only imports the package (after copying CACHE_SRC to CACHE_DST,
if given) under the host probe and prints its {"probe_s", "speed"}.

The caller puts the checkout's `src` first on PYTHONPATH; the worker
refuses to run against a berger_lab imported from anywhere else.
"""

from __future__ import annotations

import gc
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

import probe

SRC = Path(__file__).resolve().parent.parent / "src"
CALL_PERIOD_S = 0.025  # probe period during a repetition
IMPORT_PERIOD_S = 0.005  # and during set-up, which takes about 0.1 s


def call(spec) -> int:
    """One call: a list is the argument list of a `berger-lab` command;
    {"case_split": [r, s, t], "out": PATH} is the library call
    holonomy_case_split(r, s, t), its report written to PATH as JSON."""
    if isinstance(spec, dict):
        from berger_lab import berger
        report = berger.holonomy_case_split(*spec["case_split"])
        Path(spec["out"]).write_text(json.dumps(report.to_json()))
        return 0
    import berger_lab.cli
    return berger_lab.cli.main(spec)


def serve() -> int:
    reply, sys.stdout = sys.stdout, sys.stderr
    host = probe.Probe(CALL_PERIOD_S)
    for line in sys.stdin:
        spec = json.loads(line)
        gc.collect()
        host.start()
        t0 = time.perf_counter()
        try:
            code = call(spec)
        except (Exception, SystemExit):  # a failed call, not a failed worker
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - t0
        reply.write(json.dumps({"code": code, "wall_s": wall, **host.stop()})
                    + "\n")
        reply.flush()
    return 0


def import_package() -> None:
    import berger_lab.cli
    where = Path(berger_lab.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"berger_lab imported from {where}, not from {SRC}")


def main(argv) -> int:
    if argv[:1] == ["--import-only"]:
        host = probe.Probe(IMPORT_PERIOD_S)
        host.start()
        if argv[1:]:
            shutil.copytree(*argv[1:3])
        import_package()
        print(json.dumps(host.stop()))
        return 0
    import_package()
    if argv == ["--serve"]:
        return serve()
    spec = json.loads(argv[0])
    if len(argv) == 1:
        return call(spec)

    import layers
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        code = call(spec)
    finally:
        data = {
            "self_s": dict(tracer.self_s),
            "total_s": dict(tracer.total_s),
            "calls": dict(tracer.calls),
            "counters": dict(tracer.counters),
        }
        Path(argv[1]).write_text(json.dumps(data, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
