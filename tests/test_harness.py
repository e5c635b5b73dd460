import ast
import importlib
import inspect
import json
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import berger_lab
from berger_lab import harness
from berger_lab import cli
from berger_lab.cli import main
from berger_lab.exactlin import RealMatrix, rat_from_str, rat_to_str
from berger_lab.liealg import ALGEBRA_NAMES
from berger_lab.harness import (ALL_CHECKS, Session, VerificationReport,
                                cache_get, cache_key, cache_put, run_verification)
from conftest import identity, scaled, tensors_built


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def test_cache_round_trip(tmp_path, session, space111):
    value = session.curvature("sp_w", 1, 1, 1)
    cache_put(tmp_path, space111, "sp_w", value)
    algebra = session.algebra("sp_w", 1, 1, 1)
    loaded = cache_get(tmp_path, space111, "sp_w", algebra)
    assert loaded is not None
    assert loaded.algebra is algebra
    assert loaded.dim == value.dim
    assert list(loaded.values()) == list(value.values())


def test_cache_hit_is_over_the_session_algebra(tmp_path, monkeypatch):
    first = Session(cache_dir=tmp_path)
    first.curvature("sp_w", 1, 1, 1)  # writes the entry

    def no_recompute(algebra):
        raise AssertionError("a cache hit must not recompute the kernel")

    monkeypatch.setattr(harness.curv, "bianchi_kernel", no_recompute)
    second = Session(cache_dir=tmp_path)
    loaded = second.curvature("sp_w", 1, 1, 1)
    assert loaded.algebra is second.algebra("sp_w", 1, 1, 1)
    assert list(loaded.values()) == list(first.curvature("sp_w", 1, 1, 1).values())


def test_cache_miss_on_empty_dir(tmp_path, session, space111):
    algebra = session.algebra("sp_w", 1, 1, 1)
    assert cache_get(tmp_path, space111, "sp_w", algebra) is None


def test_cache_miss_on_version_bump(tmp_path, session, space111, monkeypatch):
    value = session.curvature("sp_w", 1, 1, 1)
    cache_put(tmp_path, space111, "sp_w", value)
    monkeypatch.setattr(harness, "CACHE_FORMAT_VERSION",
                        harness.CACHE_FORMAT_VERSION + 1)
    algebra = session.algebra("sp_w", 1, 1, 1)
    assert cache_get(tmp_path, space111, "sp_w", algebra) is None


def test_cache_corruption_warns_and_misses(tmp_path, session, space111, capsys):
    value = session.curvature("sp_w", 1, 1, 1)
    cache_put(tmp_path, space111, "sp_w", value)
    entry = next(tmp_path.iterdir())
    entry.write_text("{ this is not json")
    algebra = session.algebra("sp_w", 1, 1, 1)
    assert cache_get(tmp_path, space111, "sp_w", algebra) is None
    assert "corrupt cache" in capsys.readouterr().err


def test_session_recomputes_after_corruption(tmp_path, space111):
    first = Session(cache_dir=tmp_path)
    value = first.curvature("glq", 1, 1, 1)
    entry = next(tmp_path.iterdir())
    entry.write_text("[]")
    second = Session(cache_dir=tmp_path)
    again = second.curvature("glq", 1, 1, 1)
    assert again.dim == value.dim


def tamper_h0_entry(cache_dir, tamper):
    """Compute and cache h0 at (1,1,1), apply `tamper` to the sole row of
    its entry, then read h0 through a new session: the cold space, the
    warm one and stderr."""
    cold = Session(cache_dir=cache_dir).curvature("h0", 1, 1, 1)
    entry = cache_dir / f"{cache_key(1, 1, 1, 'h0')}.json"
    data = json.loads(entry.read_text())
    (row,) = data["curvature_space"]["rows"]
    tamper(row)
    entry.write_text(json.dumps(data))
    return cold, Session(cache_dir=cache_dir).curvature("h0", 1, 1, 1)


def test_zero_denominator_in_cache_warns_and_recomputes(tmp_path, capsys):
    def divide_by_zero(row):
        row[-1][1] = "1/0"

    cold, again = tamper_h0_entry(tmp_path, divide_by_zero)
    assert "corrupt cache" in capsys.readouterr().err
    assert list(again.values()) == list(cold.values())
    assert again.coefficient_subspace() == cold.coefficient_subspace()


@pytest.mark.parametrize("text", ["1e9999999", " 3 ", "3.5", "1_000", "+3",
                                  "\u0661\u0662", "3/-4"])
def test_a_value_rat_to_str_never_writes_warns_and_recomputes(tmp_path, capsys,
                                                              text):
    def respell(row):
        row[-1][1] = text

    cold, again = tamper_h0_entry(tmp_path, respell)
    assert "not a rational in p or p/q form" in capsys.readouterr().err
    assert again.coefficient_subspace() == cold.coefficient_subspace()


def test_a_column_outside_sym2_warns_and_recomputes(tmp_path, capsys):
    dimg = Session().algebra("h0", 1, 1, 1).dim

    def push_out(row):
        row[-1][0] = dimg * (dimg + 1) // 2

    cold, again = tamper_h0_entry(tmp_path, push_out)
    assert "columns must increase" in capsys.readouterr().err
    assert again.coefficient_subspace() == cold.coefficient_subspace()


def test_a_version_1_entry_is_a_miss(tmp_path, session, space111, monkeypatch,
                                     capsys):
    # the dense flat form of version 1, at its own key and at the current one
    value = session.curvature("sp_w", 1, 1, 1)
    old = {"version": 1, "key": {"r": 1, "s": 1, "t": 1, "algebra": "sp_w"},
           "curvature_space": value.to_json()}
    keys = [cache_key(1, 1, 1, "sp_w")]
    monkeypatch.setattr(harness, "CACHE_FORMAT_VERSION", 1)
    keys.append(cache_key(1, 1, 1, "sp_w"))
    monkeypatch.undo()
    assert harness.CACHE_FORMAT_VERSION == 2 and keys[0] != keys[1]
    for key in keys:
        (tmp_path / f"{key}.json").write_text(json.dumps(old))
    assert cache_get(tmp_path, space111, "sp_w", value.algebra) is None
    assert capsys.readouterr().err == ""


def test_each_configuration_has_its_own_entry(tmp_path, session):
    configs = [(name, 1, 1, 1) for name in ALGEBRA_NAMES] + [("sp_w", 1, 2, 1)]
    assert len({cache_key(r, s, t, name) for name, r, s, t in configs}) == len(configs)
    for name, r, s, t in configs:
        cache_put(tmp_path, session.space(r, s, t), name,
                  session.curvature(name, r, s, t))
    assert len(list(tmp_path.iterdir())) == len(configs)
    for name, r, s, t in configs:
        loaded = cache_get(tmp_path, session.space(r, s, t), name,
                           session.algebra(name, r, s, t))
        assert loaded.coefficient_subspace() == \
            session.curvature(name, r, s, t).coefficient_subspace()


@pytest.mark.parametrize("r,s,t,algebra", [
    (1, 1, 1, "../h0"), (1, 1, 1, "h0/../sp"), (1, 1, 1, ""), (1, 1, 1, "H0"),
    (-1, 1, 1, "h0"), (1, 1.0, 1, "h0"), (1, 1, "1", "h0"), (True, 1, 1, "h0")])
def test_cache_key_refuses_what_names_no_configuration(r, s, t, algebra):
    with pytest.raises(ValueError):
        cache_key(r, s, t, algebra)


def test_cache_put_refuses_a_name_outside_the_registry(tmp_path, session, space111):
    value = session.curvature("h0", 1, 1, 1)
    with pytest.raises(ValueError):
        cache_put(tmp_path / "cache", space111, "../h0", value)
    assert list(tmp_path.iterdir()) == []


def test_interrupted_cache_write_keeps_the_old_entry(tmp_path, session, space111,
                                                    monkeypatch, capsys):
    value = session.curvature("sp_w", 1, 1, 1)
    cache_put(tmp_path, space111, "sp_w", value)
    (entry,) = tmp_path.iterdir()
    before = entry.read_bytes()
    real_write = Path.write_text

    def write_half(path, text, *args, **kwargs):
        real_write(path, text[:len(text) // 2], *args, **kwargs)
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_text", write_half)
    cache_put(tmp_path, space111, "sp_w", value)
    monkeypatch.undo()
    assert "proceeding uncached" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [entry]  # no temp file is left
    assert entry.read_bytes() == before
    algebra = session.algebra("sp_w", 1, 1, 1)
    loaded = cache_get(tmp_path, space111, "sp_w", algebra)
    assert list(loaded.values()) == list(value.values())


def test_unwritable_cache_dir_proceeds(space111, session, capsys):
    value = session.curvature("glq", 1, 1, 1)
    cache_put("/proc/definitely-not-writable", space111, "glq", value)
    assert "proceeding uncached" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# package surface
# ---------------------------------------------------------------------------

def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(berger_lab.__path__):
        module = importlib.import_module(f"berger_lab.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"berger_lab.{info.name}: {name}"
    # every name the package re-exports is the submodule's own object
    tree = ast.parse(Path(berger_lab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"berger_lab.{node.module}")
        for alias in node.names:
            assert getattr(berger_lab, alias.name) is getattr(module, alias.name)


@pytest.mark.parametrize("module", ["berger_lab", "berger_lab.cli"])
def test_the_import_loads_no_module_the_package_does_not_need(module):
    # compared with the modules loaded before the import, since `site` may
    # load some of these itself
    code = ("import sys; before = set(sys.modules); import " + module
            + "; print(' '.join(sorted(set(sys.modules) - before)))")
    src = str(Path(berger_lab.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={"PYTHONPATH": src, "PATH": ""}).stdout.split()
    assert module in out
    assert not {"dataclasses", "inspect", "hashlib", "_hashlib",
                "traceback"} & set(out)


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------

def test_check_ids_are_unique_and_ordered():
    ids = [check_id for check_id, _ in ALL_CHECKS]
    assert len(ids) == len(set(ids))
    assert ids[0] == "structure-axioms"
    assert ids[-1] == "pair-symmetry"


@pytest.fixture(scope="module")
def tier1_report():
    return run_verification(tier=1)


def test_tier1_all_pass(tier1_report):
    assert tier1_report.all_passed()
    for check in tier1_report.checks:
        assert check.status == "pass", check.check_id


def test_report_is_deterministic(tier1_report, tmp_path):
    second = run_verification(tier=1, cache_dir=tmp_path)  # cold cache
    third = run_verification(tier=1, cache_dir=tmp_path)   # warm cache
    blob1 = json.dumps(tier1_report.to_json(), sort_keys=True)
    assert blob1 == json.dumps(second.to_json(), sort_keys=True)
    assert blob1 == json.dumps(third.to_json(), sort_keys=True)


def test_report_version_is_the_package_version(tier1_report):
    assert tier1_report.to_json()["version"] == berger_lab.__version__


def test_timings_are_opt_in(tier1_report, monkeypatch):
    plain = tier1_report.to_json()
    assert all("wall_time_ms" not in c for c in plain["checks"])
    timed = VerificationReport(tier=1, checks=tier1_report.checks,
                               with_timings=True).to_json()
    assert all("wall_time_ms" in c for c in timed["checks"])
    monkeypatch.setattr(harness, "ALL_CHECKS", harness.ALL_CHECKS[:2])
    timed = run_verification(tier=1, with_timings=True).to_json()
    assert [c["id"] for c in timed["checks"]] == [cid for cid, _ in ALL_CHECKS[:2]]
    assert all("wall_time_ms" in c for c in timed["checks"])


def test_crash_keeps_type_and_innermost_frame(monkeypatch):
    def broken(session, tier):
        raise RuntimeError("deliberately broken for the crash-record test")

    line = inspect.getsourcelines(broken)[1] + 1
    monkeypatch.setattr(harness, "ALL_CHECKS",
                        (harness.ALL_CHECKS[0], ("pair-symmetry", broken)))
    first, crashed = run_verification(tier=1).checks
    assert first.status == "pass"
    assert crashed.status == "fail"
    assert crashed.claim == harness.CLAIMS["pair-symmetry"] != ""
    assert crashed.computed == {
        "error": "deliberately broken for the crash-record test",
        "type": "RuntimeError",
        "where": f"test_harness.py:{line} in broken",
    }


def test_crash_inside_the_package_names_a_package_relative_frame(monkeypatch):
    def bad_space(session, tier):
        return session.space(1, 1, 5)  # t > min(r, s)

    monkeypatch.setattr(harness, "ALL_CHECKS", (("structure-axioms", bad_space),))
    (crashed,) = run_verification(tier=1).checks
    assert crashed.computed["type"] == "ValueError"
    where = crashed.computed["where"]
    assert where.startswith("berger_lab/quatspace.py:") and where.endswith(" in __init__")


def structure_axioms_on(monkeypatch, **planted):
    """The structure-axioms result of `run_verification`, crash handling
    included, when the (1,1,1) space has the planted `eta` or `I`."""
    class Planted(Session):
        def space(self, r, s, t):
            real = super().space(r, s, t)
            if (r, s, t) != (1, 1, 1):
                return real
            return SimpleNamespace(**{"real_dim": real.real_dim, "eta": real.eta,
                                      "I": real.I, **planted})

    monkeypatch.setattr(harness, "Session", Planted)
    monkeypatch.setattr(harness, "ALL_CHECKS", harness.ALL_CHECKS[:1])
    (result,) = run_verification(tier=1).checks
    assert result.check_id == "structure-axioms"
    return result


def test_structure_axioms_fail_on_a_negated_i3(monkeypatch, space111):
    i1, i2, i3 = space111.I
    result = structure_axioms_on(monkeypatch, I=(i1, i2, scaled(i3, -1)))
    assert result.status == "fail"
    assert result.computed["(1,1,1)"] == {
        "triple_relations": False, "eta_skew": True, "signature": [4, 4]}
    assert result.computed["(1,2,1)"]["triple_relations"] is True


def test_structure_axioms_fail_on_an_i1_that_is_not_eta_skew(monkeypatch, space111):
    # the identity is a signed permutation, and eta I + I^T eta = 2 eta
    result = structure_axioms_on(monkeypatch, I=(identity(8), *space111.I[1:]))
    assert result.status == "fail"
    assert result.computed["(1,1,1)"]["eta_skew"] is False
    assert result.computed["(1,2,1)"]["eta_skew"] is True


def test_structure_axioms_fail_on_an_eta_of_the_wrong_signature(monkeypatch):
    # each I_alpha is skew-symmetric, so it is skew for the identity metric
    result = structure_axioms_on(monkeypatch, eta=identity(8))
    assert result.status == "fail"
    assert result.computed["(1,1,1)"] == {
        "triple_relations": True, "eta_skew": True, "signature": [0, 8]}


def test_structure_axioms_fail_on_an_i1_with_a_zero_column(monkeypatch, space111):
    i1 = space111.I[0]
    zeroed = RealMatrix(8, 8, {pos: v for pos, v in i1.nz.items() if pos % 8})
    result = structure_axioms_on(monkeypatch, I=(zeroed, *space111.I[1:]))
    assert result.status == "fail"
    assert result.computed["(1,1,1)"]["triple_relations"] is False


def test_structure_axioms_fail_on_an_i1_that_is_not_a_signed_permutation(
        monkeypatch, space111):
    i1 = space111.I[0]
    result = structure_axioms_on(monkeypatch, I=(scaled(i1, 2), *space111.I[1:]))
    assert result.status == "fail"


def test_every_check_reports_its_claim(tier1_report):
    assert [c.check_id for c in tier1_report.checks] == list(harness.CLAIMS)
    assert all(c.claim == harness.CLAIMS[c.check_id] for c in tier1_report.checks)


def test_r0_is_built_once_per_session(monkeypatch):
    r0_calls = Counter()
    real_r0 = harness.curv.build_r0

    def build_r0(algebra):
        space = algebra.space
        r0_calls[space.r, space.s, space.t] += 1
        return real_r0(algebra)

    monkeypatch.setattr(harness.curv, "build_r0", build_r0)
    assert run_verification(tier=1).all_passed()
    assert r0_calls == {(1, 1, 1): 1, (1, 2, 1): 1}


def test_each_algebra_builds_its_tables_once_per_run(monkeypatch):
    # the column and 2-form tables are kept on the algebra, and a session
    # builds each algebra once, so a run builds each table once per algebra
    built = {"_columns": Counter(), "_forms": Counter()}
    for slot, builder in (("_columns", "_build_columns"),
                          ("_forms", "_build_pairing_table")):
        real = getattr(harness.curv, builder)

        def counting(algebra, real=real, seen=built[slot]):
            seen[id(algebra), algebra.name] += 1
            return real(algebra)

        monkeypatch.setattr(harness.curv, builder, counting)
    assert run_verification(tier=1).all_passed()
    for seen in built.values():
        assert set(seen.values()) == {1}
        assert sorted(name for _, name in seen) == sorted([
            "gl(1,H)", "h0", "sp(1,1)", "sp(1,1)_W", "sp(1,2)_W",
            "sp(1)+sp(1,1)", "sp(1)+sp(1,2)", "sp(1)+sp(1,1)_W",
            "sp(1)+sp(1,2)_W"])


@pytest.mark.parametrize("name,first,second,r,s,t", [
    ("h0", "sp1", "glq", 1, 1, 1), ("sp1+sp", "sp1", "sp", 1, 2, 1),
    ("sp1+sp_w", "sp1", "sp_w", 1, 2, 1)])
def test_a_session_sum_holds_its_summands_matrices(name, first, second, r, s, t):
    # a sum is built from the session's own summands, so no matrix of it
    # is realified a second time
    session = Session()
    total = session.algebra(name, r, s, t)
    parts = session.algebra(first, r, s, t).basis + session.algebra(
        second, r, s, t).basis
    assert len(total.basis) == len(parts)
    assert all(a is b for a, b in zip(total.basis, parts))


def test_a_tampered_h0_entry_is_recomputed(tmp_path, capsys):
    cold = json.dumps(run_verification(tier=1, cache_dir=tmp_path).to_json(),
                      sort_keys=True)
    capsys.readouterr()
    entry = tmp_path / f"{cache_key(1, 1, 1, 'h0')}.json"
    data = json.loads(entry.read_text())
    (row,) = data["curvature_space"]["rows"]
    row[0][1] = rat_to_str(2 * rat_from_str(row[0][1]))  # the lead
    entry.write_text(json.dumps(data))
    warm = run_verification(tier=1, cache_dir=tmp_path)
    assert capsys.readouterr().err.count("warning: ignoring corrupt cache entry") == 1
    assert warm.all_passed()
    assert json.dumps(warm.to_json(), sort_keys=True) == cold


def test_curvature_space_json_and_cache_put_build_no_tensor(tmp_path, capsys,
                                                            monkeypatch, space111):
    built = tensors_built(monkeypatch)
    assert main(["curvature-space", "--algebra", "sp1+sp_w", "--r", "1", "--s", "1",
                 "--t", "1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 14
    cache_put(tmp_path, space111, "sp_w", Session().curvature("sp_w", 1, 1, 1))
    assert len(list(tmp_path.iterdir())) == 1
    assert built == []


def test_report_text_lists_every_check(tier1_report):
    text = tier1_report.to_text()
    for check_id, _ in ALL_CHECKS:
        assert check_id in text
    assert "all checks passed" in text


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_dim_text(capsys):
    assert main(["dim", "--algebra", "h0", "--r", "1", "--s", "1", "--t", "1"]) == 0
    assert "= 7" in capsys.readouterr().out


def test_cli_dim_json_with_curvature(capsys):
    rc = main(["dim", "--algebra", "sp1+sp_w", "--r", "1", "--s", "2",
               "--t", "1", "--format", "json", "--curvature"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dim"] == 17
    assert data["dim_curvature_space"] == 43


def test_cli_dim_unknown_algebra_exits_2(capsys):
    assert main(["dim", "--algebra", "nosuch"]) == 2
    assert "unknown algebra" in capsys.readouterr().err


def test_cli_bad_config_exits_2(capsys):
    assert main(["dim", "--algebra", "sp", "--r", "1", "--s", "1", "--t", "2"]) == 2
    assert "min(r, s)" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify-paper", "--r", "0", "--s", "0", "--t", "5"],
    ["verify-paper", "--r", "0"], ["verify-paper", "--s", "0"],
    ["verify-paper", "--t", "5"],  # no prefix match of --tier or --timings
    ["prolongation", "--algebra", "glq", "--cache-dir", "cache"],
    ["dim", "--algebra", "h0", "--curvature", "--cache-dir", "cache"],
    ["curvature-space", "--algebra", "h0", "--cache-dir", "cache"],
    ["berger", "--algebra", "h0", "--cache-dir", "cache"]])
def test_cli_refuses_an_option_the_command_does_not_read(capsys, argv):
    # verify-paper runs its own configurations, and only verify-paper
    # reads a cache
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: " in err and argv[-2] in err


def test_cli_takes_no_option_by_a_prefix(capsys):
    # --curv is not read as --curvature: only a full option name is taken
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--algebra", "h0", "--curv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --curv" in capsys.readouterr().err


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# a valid argument list after each command's name, and one option it does
# not read
COMMAND_ARGS = {
    "dim": (["--algebra", "h0", "--r", "2", "--curvature"], "--cache-dir"),
    "curvature-space": (["--algebra", "sp", "--format", "json"], "--cache-dir"),
    "prolongation": (["--algebra", "sp_w", "--order", "2", "--out", "p"], "--tier"),
    "berger": (["--algebra", "sp1+sp", "--s", "2", "--format", "csv"], "--order"),
    "verify-paper": (["--tier", "2", "--timings", "--cache-dir", "c"], "--algebra"),
}


def parse_outcome(parser, argv, capsys):
    """What `parser` makes of `argv`: the parsed options, or the exit code,
    with what it printed."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    printed = capsys.readouterr()
    return result, printed.out, printed.err


@pytest.mark.parametrize("command", list(COMMAND_ARGS))
def test_a_parser_built_for_one_command_parses_it_as_the_full_parser(capsys, command):
    # only the named command gets its options, and a command line that
    # begins with it reads nothing else
    valid, foreign = COMMAND_ARGS[command]
    argvs = [[command, *valid], [command], [command, "--help"],
             [command, *valid, foreign, "x"], [command, "--curv"],
             [command, "--r", "1"], [command, "--algebra"], [command, "--tier", "3"]]
    for argv in argvs:
        full = parse_outcome(cli.build_parser(), argv, capsys)
        assert parse_outcome(cli.build_parser(command), argv, capsys) == full
    assert parse_outcome(cli.build_parser(), [command, *valid], capsys)[0] != 2


def test_a_parser_built_for_one_command_has_the_full_top_level_help(capsys):
    argvs = (["--help"], [], ["no-such-command"], ["--curvature"])
    full = [parse_outcome(cli.build_parser(), argv, capsys) for argv in argvs]
    for command in COMMAND_ARGS:
        parser = cli.build_parser(command)
        assert [parse_outcome(parser, argv, capsys) for argv in argvs] == full
    assert full[0][0] == 0 and all(outcome[0] == 2 for outcome in full[1:])


def test_main_builds_the_options_of_the_named_command_only(monkeypatch, capsys):
    built = []
    build_parser = cli.build_parser

    def recording(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli, "build_parser", recording)
    assert main(["dim", "--algebra", "sp1", "--t", "0"]) == 0
    for argv in (["--help"], ["no-such-command"], ["--r", "1", "dim"]):
        with pytest.raises(SystemExit):
            main(argv)
    assert built == ["dim", None, None, None]
    capsys.readouterr()


def test_cli_curvature_space_json(capsys):
    rc = main(["curvature-space", "--algebra", "glq", "--r", "1", "--s", "1",
               "--t", "1", "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dim"] == 0
    assert data["basis"] == []


def test_cli_prolongation(capsys):
    rc = main(["prolongation", "--algebra", "glq", "--r", "1", "--s", "1",
               "--t", "1", "--order", "1", "--format", "json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 0


def test_cli_prolongation_non_invariant_exits_1(capsys):
    rc = main(["prolongation", "--algebra", "sp", "--r", "1", "--s", "1",
               "--t", "1"])
    assert rc == 1
    assert "does not preserve" in capsys.readouterr().err


@pytest.mark.parametrize("algebra", ["sp", "sp1", "sp1+sp"])
def test_cli_prolongation_without_a_witt_part_exits_1(capsys, algebra):
    rc = main(["prolongation", "--algebra", algebra, "--r", "1", "--s", "1",
               "--t", "0"])
    assert rc == 1
    assert capsys.readouterr() == ("", "error: W requires t >= 1\n")


def test_cli_berger_csv(capsys):
    rc = main(["berger", "--algebra", "h0", "--r", "1", "--s", "1", "--t", "1",
               "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "algebra,dim_algebra,dim_curvature_space,dim_berger_closure,is_berger"
    assert out[1] == "h0,7,1,7,True"


@pytest.fixture
def verification_calls(monkeypatch, tier1_report):
    """Serve `verify-paper` the module's tier-1 report; record the arguments."""
    calls = []

    def reuse(tier=1, cache_dir=None, with_timings=False):
        calls.append({"tier": tier, "cache_dir": cache_dir,
                      "with_timings": with_timings})
        return VerificationReport(tier=tier, checks=tier1_report.checks,
                                  with_timings=with_timings)

    monkeypatch.setattr(harness, "run_verification", reuse)
    return calls


def test_cli_verify_writes_report_and_exits_0(tmp_path, capsys, tier1_report,
                                              verification_calls):
    out_file = tmp_path / "report.json"
    rc = main(["verify-paper", "--tier", "1", "--format", "json",
               "--out", str(out_file), "--cache-dir", str(tmp_path / "cache")])
    assert rc == 0
    assert verification_calls == [{"tier": 1, "cache_dir": str(tmp_path / "cache"),
                                   "with_timings": False}]
    data = json.loads(out_file.read_text())
    assert data == tier1_report.to_json()
    assert data["summary"]["failed"] == 0
    assert [c["id"] for c in data["checks"]] == [cid for cid, _ in ALL_CHECKS]


def test_cli_verify_csv(capsys, verification_calls):
    rc = main(["verify-paper", "--tier", "1", "--format", "csv"])
    assert rc == 0
    assert verification_calls == [{"tier": 1, "cache_dir": None,
                                   "with_timings": False}]
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "id,status"
    assert "structure-axioms,pass" in lines[1]
    assert lines[1:] == [f"{cid},pass" for cid, _ in ALL_CHECKS]


def test_cli_dim_unwritable_out_exits_2(tmp_path, capsys):
    out_file = tmp_path / "missing" / "out.json"
    assert main(["dim", "--algebra", "h0", "--out", str(out_file)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write --out")
    assert not out_file.parent.exists()


def test_cli_verify_unwritable_out_exits_2(tmp_path, capsys, verification_calls):
    # exit 1 would say a check failed; every check passed, the write did not
    out_file = tmp_path / "missing" / "out.json"
    assert main(["verify-paper", "--out", str(out_file)]) == 2
    assert len(verification_calls) == 1
    assert capsys.readouterr().err.startswith("error: cannot write --out")
    assert not out_file.parent.exists()


def test_cli_verify_exits_1_when_a_check_fails(monkeypatch, capsys):
    def broken(session, tier):
        raise RuntimeError("deliberately broken for the exit-code test")

    # the cheapest real check, then the broken one
    monkeypatch.setattr(harness, "ALL_CHECKS",
                        (harness.ALL_CHECKS[0], ("pair-symmetry", broken)))
    rc = main(["verify-paper", "--tier", "1", "--format", "csv"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "structure-axioms,pass" in out
    assert "pair-symmetry,fail" in out


def test_a_deeply_nested_h0_entry_is_recomputed(tmp_path, capsys):
    # json raises RecursionError on nesting this deep; that is corruption
    cold = json.dumps(run_verification(tier=1, cache_dir=tmp_path).to_json(),
                      sort_keys=True)
    capsys.readouterr()
    entry = tmp_path / f"{cache_key(1, 1, 1, 'h0')}.json"
    entry.write_text("[" * 100000 + "]" * 100000)
    warm = run_verification(tier=1, cache_dir=tmp_path)
    assert capsys.readouterr().err.count("warning: ignoring corrupt cache entry") == 1
    assert warm.all_passed()
    assert json.dumps(warm.to_json(), sort_keys=True) == cold
