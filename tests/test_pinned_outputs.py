"""Outputs pinned by their sha256 digests.

The verification report, the case-split reports and the dense curvature
space JSON hold only dimensions, booleans and canonical rows, and the
`berger` reports the witnesses of the Berger closure, so a change of
internal representation must leave them byte-identical.  The digests were
taken from the tree before curvature spaces became their canonical
Sym^2(g) rows, and those of `berger` from the tree before a curvature
space stopped building its basis tensors; that of the tier-2 report, whose
(2,2,2) R0 reads every I_alpha, from the tree before matrix entries became
signed units; those of `berger` for sp1+sp_w and of `curvature-space`
for h0 at (2,2,2) from the tree before algebra bases were required to be
integral.  A change that alters one of these outputs on purpose (a new
check, a new tool version) updates its digest and says why.
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


def berger(algebra, r, s, t):
    return ("berger", "--algebra", algebra, "--r", str(r), "--s", str(s),
            "--t", str(t), "--format", "json")


PINNED_CLI = {
    ("verify-paper", "--tier", "1", "--format", "json"):
        "88764f103ccd2d718fde429060d8f2b7b52fd535c405b365f56e34e43f64801e",
    ("verify-paper", "--tier", "2", "--format", "json"):
        "230a7770a69c3acbcd92e5cfcd2de6f29b4f9c1b32d9fd72a683a6073697d108",
    curvature_space("h0", 1, 1, 1):
        "eb78ec8bc92912292a05f2a83e84a147af80a7dcb9ea20806f2fc6f569ff5915",
    curvature_space("sp_w", 1, 1, 1):
        "ad5a10074503a97dda9b205e4219659416b47261ae380c8a5d43151fcbbdfccd",
    curvature_space("sp1+sp", 1, 1, 1):
        "7406391654da8041b0034bb8b6ede8ab541d3e2e3729779d22210b0cdb4a1000",
    curvature_space("sp1+sp_w", 1, 2, 1):
        "c4c6ff1a923c0e514275374b38d5c6457017f7ac1502624c661be7bad625e684",
    berger("h0", 1, 1, 1):
        "3a43ceb95b120efa7d0704d01f06fcfe6aac69c0c735c2debecaec3eb0cbf648",
    berger("glq", 1, 1, 1):
        "a2a9f536ff94780a5ea1607449fe6e76d85fd8b3a2230218c0e18c29a3538b97",
    berger("sp1+sp", 1, 1, 1):
        "05cd5501e478bd372d7e6df72e171e2cce0982d9ff40aae1454c77515e79a7f0",
    berger("sp1+sp_w", 1, 1, 1):
        "4e2ebb71f4456b081987cedd66a4b0684964b3bcbb844cf9511a0f3749522dce",
    berger("sp1+sp_w", 1, 2, 1):
        "e2034daa7e0e55af7371cf20842b4ee98032e7a63906112a927d04d65d942d6c",
    # t = 2: the blocks outside the representative weights are relabelled
    berger("sp1+sp_w", 2, 2, 2):
        "d24a14c3035b6a237d4de3601d4d363a703811168102a5cb22e62c5313e6509f",
    curvature_space("h0", 2, 2, 2):
        "ac6fae6eae010c3b7212ffa0da0203981d0ab140e84c737398157eed0bd834d2",
}

# json.dumps(holonomy_case_split(r, s, t).to_json(), sort_keys=True)
PINNED_CASE_SPLITS = {
    (1, 1, 1): "7ec7b81aa8c6e212d1e473c432ab97c9bf97ed3d13c088a02c1bb61ee9b3316a",
    (1, 2, 1): "d90b44b7d3ad8a33fe74951f01ae115299b6e5b9f007e5e8ca29fdfaae440b62",
    (1, 3, 1): "f2d975b53d86e430117fb18b77b2aa623098ab1131b76c41180d4cd7e150b6a9",
    (2, 2, 2): "aecdbb22c04f516dfdd9e323ec7445a46953fdf029856d341f15a0dce280cf88",
    (2, 3, 1): "a493e15e1370d6070b0523602093fa1940eb043d63ad4fcc1b9278ca114e5c3a",
    # r = s, t < r, where sp_w has both A and X blocks
    (2, 2, 1): "858707ca0486bc28c3c36f088b71ddb0214f7baf3cd45708611edb3ee5aa6b27",
    (3, 3, 2): "0b40b4d23ff3aec73c97f4921b4ffda4ae07dc77a04ab6513fd66a0db58dfd13",
}


# each test id is built from its argv (option values only) or its
# configuration alone, so adding a pin or changing a digest renames no
# other test
@pytest.mark.parametrize("argv,expected", PINNED_CLI.items(),
                         ids=["-".join(a for a in argv if not a.startswith("--"))
                              for argv in PINNED_CLI])
def test_cli_output_is_pinned(capsys, argv, expected):
    assert main(list(argv)) == 0
    assert digest(capsys.readouterr().out) == expected


@pytest.mark.parametrize("config,expected", PINNED_CASE_SPLITS.items(),
                         ids=["-".join(map(str, c)) for c in PINNED_CASE_SPLITS])
def test_case_split_report_is_pinned(config, expected):
    report = holonomy_case_split(*config)
    assert digest(json.dumps(report.to_json(), sort_keys=True)) == expected
