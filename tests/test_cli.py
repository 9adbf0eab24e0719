"""End-to-end CLI behaviour: subcommands, exit codes, output determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from nmacompare.cli import main

from conftest import CORPUS_DIR, ESCAPING_INPUTS, OVERFLOW_FE, OVERFLOW_REML_BOUND

NSAID_CSV = str(CORPUS_DIR / "nsaid_pain_relief.csv")
NSAID_JSON = str(CORPUS_DIR / "nsaid_pain_relief.json")
SMOKE_JSON = str(CORPUS_DIR / "smoke_alarm_interventions.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_needs_no_scipy():
    """numpy and the standard library are the only runtime dependencies."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys, nmacompare.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"


def test_non_finite_results_are_not_written_as_json(tmp_path):
    """Effects of +-1e200 overflow Q; the commands fail instead of printing NaN or Infinity.

    Each command runs in a fresh interpreter, where numpy's overflow warnings
    stay warnings, as they are for a user of the CLI.
    """
    rows = [("s1", "A", "B", 1e200), ("s2", "A", "B", -1e200),
            ("s3", "B", "C", 0.5), ("s4", "B", "C", 0.7)]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"measure": "MD", "studies": [
        {"study_id": s, "treat_a": a, "treat_b": b, "effect": y, "se": 1} for s, a, b, y in rows
    ]}))
    src = Path(__file__).resolve().parent.parent / "src"
    for argv in (["qdecomp"], ["fit", "--model", "me"]):
        result = subprocess.run(
            [sys.executable, "-m", "nmacompare.cli", *argv, str(path)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1, argv
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["compare"], ["compare", "--tau-method", "reml"], ["fit", "--model", "re"],
    ["fit", "--model", "me"], ["fit", "--model", "fe"], ["qdecomp"], ["loo"],
])
def test_fe_overflow_exits_1_naming_it(capsys, tmp_path, argv):
    """Runs in-process, where the RuntimeWarning filter turns any numpy warning into a failure."""
    path = tmp_path / "huge.json"
    path.write_text(OVERFLOW_FE)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: log-likelihood overflows") and err.count("\n") == 1


def test_reml_bound_overflow_exits_1_naming_it(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(OVERFLOW_REML_BOUND)
    assert run(capsys, "compare", str(path))[0] == 0
    code, out, err = run(capsys, "compare", "--tau-method", "reml", str(path))
    assert (code, out) == (1, "")
    assert err == "error: REML search bound 10 var(y) + 10 max(s_i^2) overflows the float range\n"


@pytest.mark.parametrize("case", ["validate-dir", "out-in-file", "out-dir-is-file", "csv-is-dir"])
def test_unusable_path_exits_1_with_one_line(capsys, tmp_path, case):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    argv = {
        "validate-dir": ["validate", str(tmp_path)],
        "out-in-file": ["compare", NSAID_JSON, "--out", str(a_file / "x.json")],
        "out-dir-is-file": ["batch", str(CORPUS_DIR), "--out-dir", str(a_file)],
        "csv-is-dir": ["qdecomp", NSAID_JSON, "--csv", str(tmp_path)],
    }[case]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path) in err


class TestValidate:
    def test_json_summary(self, capsys):
        code, out, _ = run(capsys, "validate", NSAID_JSON)
        assert code == 0
        doc = json.loads(out)
        assert doc["m"] == 29 and doc["n"] == 7 and doc["C"] == 6
        assert doc["connected"] is True

    def test_pretty_summary(self, capsys):
        code, out, _ = run(capsys, "validate", NSAID_JSON, "--pretty")
        assert code == 0
        assert "studies:    29" in out

    def test_disconnected_exits_1_naming_components(self, capsys, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text(
            "study_id,treat_a,treat_b,effect,se\ns1,A,B,0.1,1\ns2,C,D,0.2,1\n"
        )
        code, _, err = run(capsys, "validate", str(path), "--measure", "MD")
        assert code == 1
        assert "disconnected network: {A,B} | {C,D}" in err

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, "validate", "no_such_file.csv", "--measure", "MD")
        assert code == 1
        assert "error" in err

    def test_csv_without_measure_exits_1(self, capsys):
        code, _, err = run(capsys, "validate", NSAID_CSV)
        assert code == 1
        assert "measure required" in err

    @pytest.mark.parametrize("case", sorted(ESCAPING_INPUTS))
    def test_parser_escape_exits_1_with_one_line(self, capsys, tmp_path, case):
        suffix, text, message = ESCAPING_INPUTS[case]
        path = tmp_path / f"bad{suffix}"
        path.write_text(text)
        measure = ["--measure", "logOR"] if suffix == ".csv" else []
        code, out, err = run(capsys, "validate", str(path), *measure)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run(capsys, "validate", NSAID_JSON, "--frobnicate")
        assert code == 2

    def test_missing_subcommand_exits_2(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2


class TestCompare:
    def test_csv_with_measure_flag(self, capsys):
        code, out, _ = run(capsys, "compare", NSAID_CSV, "--measure", "logRR")
        assert code == 0
        doc = json.loads(out)
        assert doc["delta_aic"] == pytest.approx(-11.84, abs=0.5)
        assert doc["classification"] == "me_strong"
        assert doc["tau_method"] == "DL"

    def test_exclusion(self, capsys):
        code, out, _ = run(
            capsys, "compare", NSAID_CSV, "--measure", "logRR", "--exclude", "row23"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["delta_aic"] == pytest.approx(-6.53, abs=0.5)
        assert doc["excluded"] == ["row23"]
        assert doc["q"]["het"] == pytest.approx(58.53, abs=1.0)
        assert doc["change"]["q_het"] == pytest.approx(-23.8, abs=1.0)

    def test_reml_direction_matches(self, capsys):
        code, out, _ = run(capsys, "compare", SMOKE_JSON, "--tau-method", "reml")
        assert code == 0
        doc = json.loads(out)
        assert doc["tau_method"] == "REML"
        assert doc["delta_aic"] < -3

    def test_tau_method_changes_only_re_numbers(self, capsys):
        _, out_dl, _ = run(capsys, "compare", SMOKE_JSON, "--tau-method", "dl")
        _, out_reml, _ = run(capsys, "compare", SMOKE_JSON, "--tau-method", "reml")
        dl, reml = json.loads(out_dl), json.loads(out_reml)
        me_dl = next(m for m in dl["models"] if m["kind"] == "ME")
        me_reml = next(m for m in reml["models"] if m["kind"] == "ME")
        assert me_dl == me_reml
        re_dl = next(m for m in dl["models"] if m["kind"].startswith("RE"))
        re_reml = next(m for m in reml["models"] if m["kind"].startswith("RE"))
        assert re_dl != re_reml

    def test_ci_level_flag(self, capsys):
        _, out95, _ = run(capsys, "compare", SMOKE_JSON)
        _, out80, _ = run(capsys, "compare", SMOKE_JSON, "--ci-level", "0.8")
        doc95, doc80 = json.loads(out95), json.loads(out80)
        assert doc95["delta_aic"] == doc80["delta_aic"]
        entry95 = doc95["models"][0]["d_hat"]["Education"]
        entry80 = doc80["models"][0]["d_hat"]["Education"]
        assert entry95["ci_hi"] - entry95["ci_lo"] > entry80["ci_hi"] - entry80["ci_lo"]

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "compare", NSAID_JSON, "--out", str(out_path))
        assert code == 0
        assert out == ""
        doc = json.loads(out_path.read_text())
        assert doc["dataset"] == "nsaid-pain-relief"


class TestFit:
    def test_me_report(self, capsys):
        code, out, _ = run(capsys, "fit", NSAID_JSON, "--model", "me")
        assert code == 0
        doc = json.loads(out)
        assert [entry["kind"] for entry in doc["models"]] == ["ME"]
        assert doc["models"][0]["hetero"]["phi"] == pytest.approx(82.25 / 23, abs=0.05)
        assert doc["delta_aic"] is None

    def test_me_bytes_identical_across_tau_methods(self, capsys):
        _, out_dl, _ = run(capsys, "fit", NSAID_JSON, "--model", "me", "--tau-method", "dl")
        _, out_reml, _ = run(capsys, "fit", NSAID_JSON, "--model", "me", "--tau-method", "reml")
        assert out_dl == out_reml

    def test_re_changes_with_tau_method(self, capsys):
        _, out_dl, _ = run(capsys, "fit", NSAID_JSON, "--model", "re", "--tau-method", "dl")
        _, out_reml, _ = run(capsys, "fit", NSAID_JSON, "--model", "re", "--tau-method", "reml")
        assert out_dl != out_reml
        assert json.loads(out_dl)["models"][0]["kind"] == "RE-DL"
        assert json.loads(out_reml)["models"][0]["kind"] == "RE-REML"

    def test_fe_report(self, capsys):
        code, out, _ = run(capsys, "fit", NSAID_JSON, "--model", "fe", "--pretty")
        assert code == 0
        doc = json.loads(out)
        assert doc["models"][0]["hetero"] == {}


    def test_fe_without_residual_df(self, capsys, tmp_path):
        path = tmp_path / "tree.csv"
        path.write_text("study_id,treat_a,treat_b,effect,se\ns1,P,A,0.5,0.2\ns2,P,B,0.1,0.3\n")
        code, out, _ = run(capsys, "fit", str(path), "--measure", "MD", "--model", "fe")
        assert code == 0
        assert json.loads(out)["models"][0]["kind"] == "FE"
        code, _, err = run(capsys, "fit", str(path), "--measure", "MD", "--model", "me")
        assert code == 1
        assert "no residual degrees of freedom" in err


class TestQdecomp:
    def test_json_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "per_study.csv"
        code, out, _ = run(capsys, "qdecomp", NSAID_JSON, "--csv", str(csv_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["q"]["het"] == pytest.approx(82.25, abs=1.0)
        assert doc["q"]["inc"] == 0.0
        assert "models" not in doc
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "study_id,treat_a,treat_b,effect,se,q_het_i"
        assert len(lines) == 30


class TestLoo:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "loo", SMOKE_JSON)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("study_id,skipped,reason,")
        assert len(lines) == 21
        assert all(",no," in line for line in lines[1:])

    def test_skipped_rows(self, capsys, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({
            "name": "tiny", "measure": "MD",
            "studies": [
                {"study_id": "a", "treat_a": "P", "treat_b": "A", "effect": 0.0, "se": 1.0},
                {"study_id": "b", "treat_a": "P", "treat_b": "A", "effect": 2.0, "se": 1.0},
            ],
        }))
        code, out, _ = run(capsys, "loo", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all(",yes," in line for line in lines[1:])


class TestPlot:
    def test_forest_svg(self, capsys, tmp_path):
        out_path = tmp_path / "forest.svg"
        code, _, _ = run(
            capsys, "plot", NSAID_JSON, "--kind", "forest",
            "--target", "Placebo", "--out", str(out_path),
        )
        assert code == 0
        root = ET.fromstring(out_path.read_text())
        assert root.tag.endswith("svg")

    def test_network_svg_stdout(self, capsys):
        code, out, _ = run(capsys, "plot", NSAID_JSON, "--kind", "network")
        assert code == 0
        assert out.startswith("<?xml")
        ET.fromstring(out)

    def test_forest_without_target_fails(self, capsys):
        code, _, err = run(capsys, "plot", NSAID_JSON, "--kind", "forest")
        assert code == 1
        assert "--target" in err

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "plot", NSAID_JSON, "--kind", "forest", "--target", "Placebo")
        _, second, _ = run(capsys, "plot", NSAID_JSON, "--kind", "forest", "--target", "Placebo")
        assert first == second


class TestBatch:
    def test_stdout_summary(self, capsys):
        code, out, _ = run(capsys, "batch", str(CORPUS_DIR))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + three datasets
        assert lines[0].startswith("name,measure,m,n,C,")

    def test_out_dir_files_and_jobs_determinism(self, capsys, tmp_path):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert run(capsys, "batch", str(CORPUS_DIR), "--out-dir", str(serial), "--jobs", "1")[0] == 0
        assert run(capsys, "batch", str(CORPUS_DIR), "--out-dir", str(parallel), "--jobs", "8")[0] == 0
        assert (serial / "summary.csv").read_bytes() == (parallel / "summary.csv").read_bytes()
        assert (serial / "histogram.json").read_bytes() == (parallel / "histogram.json").read_bytes()
        histogram = json.loads((serial / "histogram.json").read_text())
        assert set(histogram) == {"logOR", "logRR"}

    def test_unreadable_entry_is_an_error_row(self, capsys, tmp_path):
        for path in CORPUS_DIR.glob("*.json"):
            (tmp_path / path.name).write_bytes(path.read_bytes())
        (tmp_path / "sub.json").mkdir()
        code, out, _ = run(capsys, "batch", str(tmp_path))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert lines[-1].startswith("sub,,") and "cannot read" in lines[-1]

    def test_not_a_directory(self, capsys):
        code, _, err = run(capsys, "batch", NSAID_JSON)
        assert code == 1
        assert "not a directory" in err
