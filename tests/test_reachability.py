"""Which package functions the command line never enters.

A fresh interpreter sets a profile hook before it imports `berger_lab.cli`,
so import-time calls count too, and then runs what the CLI can run: tier-1
`verify-paper` in each format, cold and warm with a cache directory and with
`--timings`, and every other command on every registry algebra at (1,1,1)
and (1,2,1) in each format (with `--curvature` and `--order 2`), and once at
(2,2,2), the first configuration with more than one Witt pair, whose
weight blocks are relabelled.  Every function, method and nested function
defined in the package's source that was never entered must be named in
`NEVER_ENTERED`, with its reason, and every name there must be one.  A
function that drops out of every run, or one that the runs begin to reach,
fails the test: the first is a candidate for deletion, and the second
leaves the list.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

NEVER_ENTERED = {
    # library API that no command reaches
    "liealg.build_h0": "a named builder, wrapped by bench/layers.py SPANS",
    "berger.CaseSplitReport.to_json": "the case-split report as JSON, which the "
                                      "bench's case-split workload writes",
    # reached only when something goes wrong, or when a value is inspected
    "harness._crash_details": "reached only when a check crashes",
    "exactlin.Subspace.contains_vector": "reached by `contains` only for a row "
                                         "that is not verbatim a basis row, which "
                                         "no split the commands run has",
    "exactlin.Subspace.reduce_vector": "reached through `contains_vector` only",
    "exactlin.RealMatrix.__repr__": "a repr",
    "exactlin.Subspace.__repr__": "a repr",
    "quatspace.QuaternionicSpace.__repr__": "a repr",
    "liealg.LieAlgebra.__repr__": "a repr",
    "curvature.CurvatureSpace.__repr__": "a repr",
    "exactlin.RealMatrix.__setattr__": "an immutability guard",
    "exactlin.Subspace.__setattr__": "an immutability guard",
    "quatspace.QuaternionicSpace.__setattr__": "an immutability guard",
    "liealg.LieAlgebra.__setattr__": "an immutability guard",
    "curvature.CurvatureSpace.__setattr__": "an immutability guard",
}

SCRIPT = r"""
import contextlib, io, json, pkgutil, sys, tempfile, types
sys.path.insert(0, {src!r})

entered = set()


def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_qualname))


sys.setprofile(hook)
import berger_lab.cli as cli


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass


with tempfile.TemporaryDirectory() as cache:
    for fmt in ("json", "csv", "text"):
        run(["verify-paper", "--format", fmt])
    run(["verify-paper", "--cache-dir", cache])
    run(["verify-paper", "--cache-dir", cache])
    run(["verify-paper", "--timings"])
for command, extra in (("dim", ["--curvature"]), ("curvature-space", []),
                       ("prolongation", ["--order", "2"]), ("berger", [])):
    for name in cli.ALGEBRA_NAMES:
        for r, s, t in ((1, 1, 1), (1, 2, 1)):
            for fmt in ("json", "csv", "text"):
                run([command, "--algebra", name, "--r", str(r), "--s", str(s),
                     "--t", str(t), "--format", fmt, *extra])
run(["dim", "--algebra", "h0", "--r", "2", "--s", "2", "--t", "2", "--curvature"])
sys.setprofile(None)

import berger_lab


def defined(code):
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if not const.co_name.startswith("<"):  # no lambda or comprehension
                yield const
            yield from defined(const)


never = []
for info in pkgutil.iter_modules(berger_lab.__path__):
    path = f"{{berger_lab.__path__[0]}}/{{info.name}}.py"
    with open(path) as fh:
        module_code = compile(fh.read(), path, "exec")
    for code in defined(module_code):
        if (code.co_filename, code.co_firstlineno, code.co_qualname) not in entered:
            never.append(f"{{info.name}}.{{code.co_qualname}}")
print(json.dumps(sorted(never)))
"""


@pytest.mark.skipif(sys.version_info < (3, 11), reason="names functions by co_qualname")
def test_every_function_the_cli_never_enters_is_listed_with_its_reason():
    script = SCRIPT.format(src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    never = json.loads(proc.stdout.splitlines()[-1])
    assert never == sorted(NEVER_ENTERED)
