"""End-to-end CLI tests: parsing, reports, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

from distrisk import build_nonmiddle_example, build_weakacc_pprime
from distrisk.cli import main, parse_distortion, parse_family, parse_measure, SpecError
from distrisk.treedoc import (
    ParseError,
    TreeDocument,
    document_from_text,
    document_to_text,
)

SQRT2 = math.sqrt(2.0)
HUGE = "1" + "0" * 400  # an integer literal beyond double range


@pytest.fixture()
def nonmiddle_path(tmp_path):
    ce = build_nonmiddle_example()
    doc = TreeDocument(ce.space, ce.filtration, {"X2": ce.X}, {"name": ce.name})
    path = tmp_path / "nonmiddle.json"
    path.write_text(document_to_text(doc))
    return str(path)


@pytest.fixture()
def fouratom_path(tmp_path):
    ce = build_weakacc_pprime(2.0)
    doc = TreeDocument(ce.space, ce.filtration, {"X": ce.X}, {"name": ce.name})
    path = tmp_path / "weakacc_a2.json"
    path.write_text(document_to_text(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def run_failing(capsys, *argv):
    """Exit code and stderr of a command that must print no report."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


class TestSpecParsing:
    def test_distortion_grammar(self):
        assert parse_distortion("identity").is_identity()
        assert parse_distortion("minvar:2")(0.5) == 0.875
        assert parse_distortion("avar:0.5")(0.25) == 0.5
        assert abs(parse_distortion("pprime:2")(1 / 3) - 2 / 3) <= 1e-15
        psi = parse_distortion("measure:0.5,0.5;1,0.5")
        assert abs(psi(0.5) - 0.75) <= 1e-15

    def test_bad_specs_rejected(self):
        for spec in ("nope", "minvar", "minvar:-1", "prop_hazard:2", "measure:1"):
            with pytest.raises(SpecError):
                parse_distortion(spec)

    @pytest.mark.parametrize("spec, kind", [
        ("minvar:nan", "distortion"), ("maxvar:inf", "distortion"),
        ("maxminvar:nan", "distortion"), ("minmaxvar:inf", "distortion"),
        ("pprime:nan", "distortion"), ("pprime:inf", "distortion"),
        ("avar:nan", "distortion"), ("measure:nan,1", "measure"),
    ])
    def test_non_finite_distortion_exits_2(self, capsys, nonmiddle_path, spec, kind):
        code, err = run_failing(
            capsys, "evaluate", nonmiddle_path, "--payoff", "X2",
            "--t", "0", "--distortion", spec,
        )
        assert code == 2
        assert err.startswith(f"error: bad {kind} spec {spec!r}")

    @pytest.mark.parametrize("spec", ["nan,1", "0.5,inf"])
    def test_non_finite_measure_exits_2(self, capsys, nonmiddle_path, spec):
        code, err = run_failing(
            capsys, "dwvar", nonmiddle_path, "--payoff", "X2",
            "--t", "0", "--measure", spec,
        )
        assert code == 2
        assert err.startswith(f"error: bad measure spec {spec!r}")

    def test_measure_grammar(self):
        mu = parse_measure("0.25,0.5;1,0.5")
        assert list(mu.support) == [0.25, 1.0]
        with pytest.raises(SpecError):
            parse_measure("0.25;1")

    def test_family_grammar(self):
        assert parse_family("family:minvar").name == "minvar"
        assert parse_family("maxvar").name == "maxvar"
        with pytest.raises(SpecError):
            parse_family("family:unknown")


class TestEvaluate:
    def test_nonmiddle_values(self, capsys, nonmiddle_path):
        code, rep = run(
            capsys, "evaluate", nonmiddle_path, "--payoff", "X2",
            "--t", "1", "--distortion", "prop_hazard:0.5",
        )
        assert code == 0
        got = rep["results"]["risk"]
        assert abs(got[0] - (SQRT2 - 2.0)) <= 1e-12
        assert abs(got[1] - SQRT2) <= 1e-12

    def test_identity_negated_means(self, capsys, nonmiddle_path):
        code, rep = run(
            capsys, "evaluate", nonmiddle_path, "--payoff", "X2",
            "--t", "1", "--distortion", "identity",
        )
        assert code == 0
        assert rep["results"]["risk"] == [-1.0, 1.0]

    def test_fouratom_fixture_root_value(self, capsys, fouratom_path):
        code, rep = run(
            capsys, "evaluate", fouratom_path, "--payoff", "X",
            "--t", "0", "--distortion", "pprime:2",
        )
        assert code == 0
        assert abs(rep["results"]["risk"][0] - 0.125) <= 1e-12

    def test_unknown_payoff(self, capsys, nonmiddle_path):
        code, _ = run(
            capsys, "evaluate", nonmiddle_path, "--payoff", "missing",
            "--t", "0", "--distortion", "identity",
        )
        assert code == 2

    def test_determinism(self, capsys, nonmiddle_path):
        argv = [
            "evaluate", nonmiddle_path, "--payoff", "X2",
            "--t", "0", "--distortion", "minvar:2",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestOtherCommands:
    def test_quantile_and_var(self, capsys, nonmiddle_path):
        code, rep = run(
            capsys, "quantile", nonmiddle_path, "--payoff", "X2",
            "--t", "0", "--alpha", "0.25", "--side", "upper",
        )
        assert code == 0
        code2, rep2 = run(
            capsys, "var", nonmiddle_path, "--payoff", "X2",
            "--t", "0", "--alpha", "0.25",
        )
        assert code2 == 0
        assert rep2["results"]["var"][0] == -rep["results"]["quantile"][0]

    def test_avar_reports_both_forms(self, capsys, nonmiddle_path):
        code, rep = run(
            capsys, "avar", nonmiddle_path, "--payoff", "X2",
            "--t", "0", "--alpha", "0.5",
        )
        assert code == 0
        assert rep["results"]["avar"] == rep["results"]["avar_dual"]

    def test_dwvar_matches_avar_sugar(self, capsys, nonmiddle_path):
        _, rep1 = run(
            capsys, "dwvar", nonmiddle_path, "--payoff", "X2",
            "--t", "0", "--measure", "0.5,1",
        )
        _, rep2 = run(
            capsys, "avar", nonmiddle_path, "--payoff", "X2",
            "--t", "0", "--alpha", "0.5",
        )
        assert rep1["results"]["dwvar"] == rep2["results"]["avar"]

    def test_dcai_constant_payoffs(self, capsys, tmp_path):
        doc = document_from_text(
            '{"schema_version": 1, "atoms": ['
            '{"probability": 0.5, "payoffs": {"up": 2.0, "down": -2.0}},'
            '{"probability": 0.5, "payoffs": {"up": 2.0, "down": -2.0}}],'
            '"filtration": [[[0, 1]], [[0], [1]]], "metadata": {}}'
        )
        path = tmp_path / "const.json"
        path.write_text(document_to_text(doc))
        _, rep = run(
            capsys, "dcai", str(path), "--payoff", "up",
            "--t", "0", "--family", "family:minvar",
        )
        assert rep["results"]["index"] == ["inf"]
        _, rep = run(
            capsys, "dcai", str(path), "--payoff", "down",
            "--t", "0", "--family", "family:minvar",
        )
        assert rep["results"]["index"] == [0.0]


class TestCheck:
    def test_middle_rejection_violated(self, capsys, nonmiddle_path):
        code, rep = run(
            capsys, "check", nonmiddle_path, "--payoff", "X2",
            "--property", "middle-rejection",
            "--distortion", "prop_hazard:0.5", "--t", "0", "--s", "1",
        )
        assert code == 0
        assert rep["results"]["verdict"] == "violated"

    def test_submartingale_holds(self, capsys, nonmiddle_path):
        code, rep = run(
            capsys, "check", nonmiddle_path, "--payoff", "X2",
            "--property", "submartingale",
            "--distortion", "prop_hazard:0.5", "--t", "0", "--s", "1",
        )
        assert code == 0
        assert rep["results"]["verdict"] == "holds"

    def test_weak_acceptance_violated(self, capsys, fouratom_path):
        code, rep = run(
            capsys, "check", fouratom_path, "--payoff", "X",
            "--property", "weak-acceptance",
            "--distortion", "pprime:2", "--t", "0", "--s", "1",
        )
        assert code == 0
        assert rep["results"]["verdict"] == "violated"

    def test_expectation_mismatch_fails(self, capsys, nonmiddle_path):
        code, _ = run(
            capsys, "check", nonmiddle_path, "--payoff", "X2",
            "--property", "middle-rejection",
            "--distortion", "prop_hazard:0.5", "--t", "0", "--s", "1",
            "--expect", "holds",
        )
        assert code == 1


class TestRepro:
    def test_nonmiddle_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "tree.json"
        code, rep = run(capsys, "repro", "nonmiddle", "--out", str(out))
        assert code == 0
        assert rep["results"]["match"] is True
        assert rep["results"]["max_error"] <= 1e-12
        # emitted tree re-parses and re-evaluates identically
        code2, rep2 = run(
            capsys, "evaluate", str(out), "--payoff", "X",
            "--t", "0", "--distortion", "prop_hazard:0.5",
        )
        assert code2 == 0
        assert rep2["results"]["risk"] == rep["results"]["computed"]["rho_0"]

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        out = tmp_path / "missing" / "tree.json"
        code, err = run_failing(capsys, "repro", "nonmiddle", "--out", str(out))
        assert code == 2
        assert err == f"error: {out}: No such file or directory\n"

    @pytest.mark.parametrize("a", ["nan", "inf"])
    def test_non_finite_a_exits_2(self, capsys, tmp_path, a):
        out = tmp_path / "tree.json"
        code, err = run_failing(capsys, "repro", "weakacc-pprime", "--a", a, "--out", str(out))
        assert code == 2
        assert err == f"error: parameter a must be finite, got {a}\n"
        assert not out.exists()

    def test_atom_count_beyond_int32_exits_2(self, capsys, tmp_path):
        # rejected before anything is allocated
        out = tmp_path / "tree.json"
        code, err = run_failing(
            capsys, "repro", "weakacc-continuous", "--mu", "0.5,1",
            "--n", "100000000000000000000", "--out", str(out),
        )
        assert code == 2
        assert err == "error: need at most 2147483647 atoms\n"
        assert not out.exists()

    def test_pprime_a3(self, capsys, tmp_path):
        out = tmp_path / "tree.json"
        code, rep = run(capsys, "repro", "weakacc-pprime", "--a", "3", "--out", str(out))
        assert code == 0
        assert abs(rep["results"]["computed"]["rho_0"][0] - 1.0 / 6.0) <= 1e-12
        assert rep["results"]["match"] is True

    def test_continuous(self, capsys, tmp_path):
        out = tmp_path / "tree.json"
        code, rep = run(
            capsys, "repro", "weakacc-continuous", "--mu", "0.5,1",
            "--n", "2000", "--out", str(out),
        )
        assert code == 0
        assert rep["results"]["match"] is True
        entry = {e["label"]: e for e in rep["results"]["expected"]}
        assert abs(entry["rho_0"]["values"][0] - 1.0 / 12.0) <= 1e-9
        assert entry["rho_0"]["source"] == "continuum_limit"


class TestTreeDocument:
    def test_parse_error_position(self):
        with pytest.raises(ParseError, match="line"):
            document_from_text("{not json")

    def test_structural_error_path(self):
        with pytest.raises(ParseError, match="atoms\\[1\\]"):
            document_from_text(
                '{"schema_version": 1, "atoms": ['
                '{"probability": 0.5, "payoffs": {"X": 1.0}},'
                '{"probability": "x", "payoffs": {"X": 2.0}}],'
                '"filtration": [[[0, 1]], [[0], [1]]]}'
            )

    def test_defective_filtration_reported(self):
        with pytest.raises(ParseError, match="straddles"):
            document_from_text(
                '{"schema_version": 1, "atoms": ['
                '{"probability": 0.25, "payoffs": {}},'
                '{"probability": 0.25, "payoffs": {}},'
                '{"probability": 0.25, "payoffs": {}},'
                '{"probability": 0.25, "payoffs": {}}],'
                '"filtration": [[[0, 1, 2, 3]], [[0, 1], [2, 3]],'
                ' [[0, 2], [1], [3]]]}'
            )

    @pytest.mark.parametrize("probability, payoff, index, message", [
        (HUGE, "2.0", "1", "atoms[1].probability: number out of range"),
        ("0.5", "-" + HUGE, "1", "atoms[1].payoffs['X']: number out of range"),
        ("0.5", "2.0", str(2 ** 64), "partition t=1: not a partition of the atom set"),
    ], ids=["probability", "payoff", "cell-index"])
    def test_out_of_range_literal_exits_2(
        self, capsys, tmp_path, probability, payoff, index, message
    ):
        path = tmp_path / "huge.json"
        path.write_text(
            '{"schema_version": 1, "atoms": ['
            '{"probability": 0.5, "payoffs": {"X": 1.0}},'
            f'{{"probability": {probability}, "payoffs": {{"X": {payoff}}}}}],'
            f'"filtration": [[[0, 1]], [[0], [{index}]]]}}'
        )
        code, err = run_failing(
            capsys, "evaluate", str(path), "--payoff", "X",
            "--t", "0", "--distortion", "identity",
        )
        assert code == 2
        assert err == f"error: {path}: {message}\n"

    def test_seventeen_digit_roundtrip(self):
        ce = build_nonmiddle_example()
        doc = TreeDocument(ce.space, ce.filtration, {"X": ce.X}, {})
        text = document_to_text(doc)
        again = document_from_text(text)
        assert np.all(again.space.probabilities == doc.space.probabilities)
        assert np.all(again.payoffs["X"].values == doc.payoffs["X"].values)
        assert document_to_text(again) == text
