"""Outputs pinned by their sha256 digests.

The verification report, the case-split reports and the dense curvature
space JSON hold only dimensions, booleans and canonical rows, so a change
of internal representation must leave them byte-identical.  The digests
were taken from the tree before curvature spaces became their canonical
Sym^2(g) rows.  A change that alters one of these outputs on purpose
(a new check, a new tool version) updates its digest and says why.
"""

import hashlib
import json

import pytest

from berger_lab.berger import holonomy_case_split
from berger_lab.cli import main


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def curvature_space(algebra, r, s, t):
    return ("curvature-space", "--algebra", algebra, "--r", str(r), "--s", str(s),
            "--t", str(t), "--format", "json")


PINNED_CLI = {
    ("verify-paper", "--tier", "1", "--format", "json"):
        "88764f103ccd2d718fde429060d8f2b7b52fd535c405b365f56e34e43f64801e",
    curvature_space("h0", 1, 1, 1):
        "eb78ec8bc92912292a05f2a83e84a147af80a7dcb9ea20806f2fc6f569ff5915",
    curvature_space("sp_w", 1, 1, 1):
        "ad5a10074503a97dda9b205e4219659416b47261ae380c8a5d43151fcbbdfccd",
    curvature_space("sp1+sp", 1, 1, 1):
        "7406391654da8041b0034bb8b6ede8ab541d3e2e3729779d22210b0cdb4a1000",
    curvature_space("sp1+sp_w", 1, 2, 1):
        "c4c6ff1a923c0e514275374b38d5c6457017f7ac1502624c661be7bad625e684",
}

# json.dumps(holonomy_case_split(r, s, t).to_json(), sort_keys=True)
PINNED_CASE_SPLITS = {
    (1, 1, 1): "7ec7b81aa8c6e212d1e473c432ab97c9bf97ed3d13c088a02c1bb61ee9b3316a",
    (1, 2, 1): "d90b44b7d3ad8a33fe74951f01ae115299b6e5b9f007e5e8ca29fdfaae440b62",
    (1, 3, 1): "f2d975b53d86e430117fb18b77b2aa623098ab1131b76c41180d4cd7e150b6a9",
    (2, 2, 2): "aecdbb22c04f516dfdd9e323ec7445a46953fdf029856d341f15a0dce280cf88",
    (2, 3, 1): "a493e15e1370d6070b0523602093fa1940eb043d63ad4fcc1b9278ca114e5c3a",
}


@pytest.mark.parametrize("argv,expected", PINNED_CLI.items())
def test_cli_output_is_pinned(capsys, argv, expected):
    assert main(list(argv)) == 0
    assert digest(capsys.readouterr().out) == expected


@pytest.mark.parametrize("config,expected", PINNED_CASE_SPLITS.items())
def test_case_split_report_is_pinned(config, expected):
    report = holonomy_case_split(*config)
    assert digest(json.dumps(report.to_json(), sort_keys=True)) == expected
