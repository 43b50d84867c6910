"""Golden CLI transcript: exact stdout, stderr and exit code of every command.

The recorded transcript (`golden/cli.json`) pins the report bytes of the six
one-payoff commands, all five `check` properties and the three `repro` trees,
and the messages of the error cases, so that a refactor of the command table
or of the distortions shows any change in what a user sees.

Regenerate it (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py --write

Cases whose output is argparse's own text (usage lines, help) are compared
only under the Python minor version that recorded them, since argparse's
wording changes between versions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from distrisk.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli.json"

MU = "0.25,0.5;1,0.5"
# the three repro trees, written by these commands under their default names
REPROS = [
    ["repro", "nonmiddle"],
    ["repro", "weakacc-pprime", "--a", "2"],
    ["repro", "weakacc-continuous", "--mu", MU, "--n", "1000"],
]
TREES = ["nonmiddle.json", "weakacc_pprime_a2.json", "weakacc_continuous_n1000.json"]
DISTORTIONS = [
    "identity", "prop_hazard:0.5", "minvar:2", "maxvar:0.5", "maxminvar:1",
    "minmaxvar:3", "pprime:2", "avar:0.25", "measure:" + MU,
]
FAMILIES = ["family:minvar", "maxvar", "family:maxminvar", "family:minmaxvar"]


def _tree_cases(tree: str) -> list[list[str]]:
    base = [tree, "--payoff", "X"]
    cases = []
    for t in ("0", "1"):
        cases += [["evaluate", *base, "--t", t, "--distortion", d] for d in DISTORTIONS]
        cases += [["dcai", *base, "--t", t, "--family", f] for f in FAMILIES]
        cases += [
            ["quantile", *base, "--t", t, "--alpha", "0.3"],
            ["quantile", *base, "--t", t, "--alpha", "0.5", "--side", "lower"],
            ["var", *base, "--t", t, "--alpha", "0.1"],
            ["avar", *base, "--t", t, "--alpha", "0.25"],
            ["dwvar", *base, "--t", t, "--measure", MU],
        ]
    check = ["check", *base]
    cases += [
        [*check, "--property", "submartingale", "--distortion", "minvar:1", "--t", "0", "--s", "1"],
        [*check, "--property", "submartingale", "--t", "1"],
        [*check, "--property", "super-strict", "--distortion", "prop_hazard:0.5", "--t", "1"],
        [*check, "--property", "weak-acceptance", "--distortion", "pprime:2", "--t", "0", "--s", "1"],
        [*check, "--property", "weak-acceptance", "--distortion", "measure:" + MU,
         "--t", "0", "--s", "1", "--expect", "holds"],
        [*check, "--property", "middle-rejection", "--distortion", "prop_hazard:0.5",
         "--t", "0", "--s", "1"],
        [*check, "--property", "dcai-weak-rejection", "--t", "0", "--s", "1"],
        [*check, "--property", "dcai-weak-rejection", "--family", "maxvar", "--t", "0"],
    ]
    return cases


ERRORS = [
    ["evaluate", "missing.json", "--payoff", "X", "--t", "0", "--distortion", "identity"],
    ["evaluate", "nonmiddle.json", "--payoff", "Y", "--t", "0", "--distortion", "identity"],
    ["evaluate", "nonmiddle.json", "--payoff", "X", "--t", "5", "--distortion", "identity"],
    ["evaluate", "nonmiddle.json", "--payoff", "X", "--t", "0", "--distortion", "nope"],
    ["evaluate", "nonmiddle.json", "--payoff", "X", "--t", "0", "--distortion", "minvar"],
    ["evaluate", "nonmiddle.json", "--payoff", "X", "--t", "0", "--distortion", "minvar:-1"],
    ["evaluate", "nonmiddle.json", "--payoff", "X", "--t", "0", "--distortion", "prop_hazard:2"],
    # the distortion is parsed before the payoff is looked up
    ["evaluate", "nonmiddle.json", "--payoff", "Y", "--t", "0", "--distortion", "nope"],
    ["evaluate", "missing.json", "--payoff", "Y", "--t", "0", "--distortion", "nope"],
    ["quantile", "nonmiddle.json", "--payoff", "X", "--t", "0", "--alpha", "1.5"],
    ["var", "nonmiddle.json", "--payoff", "Y", "--t", "0", "--alpha", "0.5"],
    ["avar", "nonmiddle.json", "--payoff", "X", "--t", "0", "--alpha", "0"],
    ["avar", "nonmiddle.json", "--payoff", "Y", "--t", "0", "--alpha", "0.5"],
    ["dwvar", "nonmiddle.json", "--payoff", "X", "--t", "0", "--measure", "1"],
    ["dwvar", "nonmiddle.json", "--payoff", "Y", "--t", "0", "--measure", "0.5,2"],
    ["dcai", "nonmiddle.json", "--payoff", "X", "--t", "0", "--family", "family:nope"],
    ["dcai", "nonmiddle.json", "--payoff", "Y", "--t", "0", "--family", "nope"],
    ["check", "nonmiddle.json", "--payoff", "X", "--property", "submartingale",
     "--distortion", "nope", "--t", "0"],
    ["check", "nonmiddle.json", "--payoff", "Y", "--property", "super-strict", "--t", "0"],
    ["check", "nonmiddle.json", "--payoff", "X", "--property", "dcai-weak-rejection",
     "--family", "nope", "--t", "0"],
    ["check", "nonmiddle.json", "--payoff", "X", "--property", "weak-acceptance",
     "--t", "2", "--s", "1"],
    ["repro", "weakacc-pprime"],
    ["repro", "weakacc-pprime", "--a", "1"],
    ["repro", "weakacc-pprime", "--a", "-inf"],
    ["repro", "weakacc-continuous"],
    ["repro", "weakacc-continuous", "--mu", "0.5,0.5;1,0.5"],
    ["repro", "weakacc-continuous", "--mu", MU, "--n", "3"],
    ["repro", "weakacc-continuous", "--mu", "1"],
    ["repro", "nonmiddle", "--out", "no_such_dir/tree.json"],
    # argparse's own errors and help
    ["evaluate", "nonmiddle.json", "--t", "0", "--distortion", "identity"],
    ["evaluate", "nonmiddle.json", "--payoff", "X", "--t", "zero", "--distortion", "identity"],
    ["check", "nonmiddle.json", "--payoff", "X", "--property", "nope", "--t", "0"],
    ["quantile", "nonmiddle.json", "--payoff", "X", "--t", "0", "--alpha", "0.5", "--side", "mid"],
    ["repro", "nope"],
    ["nope"],
    [],
    ["--help"],
    *[[cmd, "--help"] for cmd in (
        "evaluate", "quantile", "var", "avar", "dwvar", "dcai", "check", "repro",
    )],
]

CASES = [
    *REPROS,
    ["repro", "weakacc-pprime", "--a", "3.7", "--out", "p37.json"],
    ["repro", "weakacc-continuous", "--mu", "0.1,0.3;0.6,0.3;1,0.4", "--n", "777"],
    *[case for tree in TREES for case in _tree_cases(tree)],
    *ERRORS,
]


def run(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one command, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _record(workdir: Path) -> list[dict]:
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in REPROS:
            run(argv)
        return [run(argv) for argv in CASES]
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    cwd = os.getcwd()
    os.chdir(path)
    try:
        for argv in REPROS:
            assert run(argv)["code"] == 0
    finally:
        os.chdir(cwd)
    return path


def test_transcript_covers_every_case(golden):
    assert [rec["argv"] for rec in golden["cases"]] == CASES


def test_reports_are_strict_json(golden):
    """Every report parses without Python's bare NaN and Infinity."""
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")
    reports = [rec["stdout"] for rec in golden["cases"]
               if rec["stdout"] and not rec["stdout"].startswith("usage:")]
    assert len(reports) == 138
    for text in reports:
        json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("i", range(len(CASES)), ids=[" ".join(c) or "(none)" for c in CASES])
def test_matches_golden(golden, workdir, monkeypatch, i):
    rec = golden["cases"][i]
    if "usage:" in rec["stdout"] + rec["stderr"] and golden["python"] != "%d.%d" % sys.version_info[:2]:
        pytest.skip("argparse text recorded under Python " + golden["python"])
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("COLUMNS", "80")
    assert run(CASES[i]) == rec


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import tempfile

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        cases = _record(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {"python": "%d.%d" % sys.version_info[:2], "cases": cases}, indent=1,
    ) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
