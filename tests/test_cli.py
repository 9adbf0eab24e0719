"""End-to-end CLI behaviour: subcommands, exit codes, output determinism."""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import time
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from nmacompare import NetworkDataset, analysis
from nmacompare.cli import build_parser, main

from conftest import (
    CORPUS_DIR,
    ESCAPING_INPUTS,
    LOO_CUTS,
    LOO_NO_DF,
    OVERFLOW_DL_TRACE,
    OVERFLOW_FE,
    OVERFLOW_GRAM,
    OVERFLOW_REML_BOUND,
    REML_TOP_EDGE,
    REML_TOP_EDGE_LOO,
    SWAMPED_GRAM,
    SWAMPED_GRAM_LOO,
    blas_threads,
    needs_openblas_threads,
)

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


def test_parser_is_built_once_and_reused(capsys):
    """``main`` parses with one parser per process. A usage error and ``--help`` leave it as
    it was, so a ``loo`` after them writes the bytes that a fresh process writes."""
    assert build_parser() is build_parser()
    assert run(capsys, "loo", SMOKE_JSON, "--frobnicate")[0] == 2
    assert run(capsys, "--help")[0] == 0
    argv = ["loo", SMOKE_JSON, "--tau-method", "reml"]
    src = Path(__file__).resolve().parent.parent / "src"
    fresh = subprocess.run(
        [sys.executable, "-m", "nmacompare.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert fresh.returncode == 0 and fresh.stdout


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


def test_reml_beyond_bound_exits_1_naming_it(capsys, tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(REML_TOP_EDGE)
    assert run(capsys, "compare", str(path))[0] == 0
    code, out, err = run(capsys, "compare", "--tau-method", "reml", str(path))
    assert (code, out) == (1, "")
    assert err == (
        "error: REML maximizer lies beyond the search bound 10 var(y) + 10 max(s_i^2) = 0.001\n"
    )


@pytest.mark.parametrize("argv", [["compare"], ["compare", "--tau-method", "reml"], ["qdecomp"]])
def test_gram_overflow_exits_1_naming_it(capsys, tmp_path, argv):
    """se = 1e-154 twice: X'WX overflows; once reported as a rank-deficient design."""
    path = tmp_path / "tiny_se.json"
    path.write_text(OVERFLOW_GRAM)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: X'WX overflows") and err.count("\n") == 1


def test_dl_trace_overflow_exits_1_naming_it(capsys, tmp_path):
    """se = 1e-150: w^2 overflows in the DL trace term; once a degenerate weight structure."""
    path = tmp_path / "tiny_se.json"
    path.write_text(OVERFLOW_DL_TRACE)
    code, out, err = run(capsys, "compare", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: moment estimator trace term") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["compare"], ["compare", "--tau-method", "reml"], ["qdecomp"]])
def test_swamped_gram_exits_1_naming_the_study(capsys, tmp_path, argv):
    """A connected network whose X'WX is singular only in floating point; once "rank-deficient"."""
    path = tmp_path / "swamped.json"
    path.write_text(SWAMPED_GRAM)
    assert run(capsys, "validate", str(path))[0] == 0
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err == (
        "error: X'WX is not positive definite in floating point: study 's4' has weight "
        "1/(s_i^2 + tau^2) = 1e+300, 1e+300 times the smallest, and the other weights are "
        "lost in rounding against it\n"
    )


@needs_openblas_threads
@pytest.mark.usefixtures("two_blas_threads")
def test_commands_factor_on_one_blas_thread(capsys, monkeypatch):
    """Every Cholesky factorization of a command runs on one BLAS thread; the count is restored."""
    seen = []
    cholesky = np.linalg.cholesky

    def probe(a):
        seen.append(blas_threads())
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", probe)
    code, _, _ = run(capsys, "compare", NSAID_JSON, "--tau-method", "reml")
    assert code == 0
    assert len(seen) > 3 and set(seen) == {1}
    assert blas_threads() == 2


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


@pytest.mark.parametrize("argv,message", [
    (["batch", str(CORPUS_DIR), "--alpha", "0"], "--alpha: must be in (0, 1), got 0.0"),
    (["batch", str(CORPUS_DIR), "--alpha", "1"], "--alpha: must be in (0, 1), got 1.0"),
    (["compare", NSAID_JSON, "--ci-level", "1.5"], "--ci-level: must be in (0, 1), got 1.5"),
    (["fit", "--model", "re", NSAID_JSON, "--ci-level", "nan"],
     "--ci-level: must be in (0, 1), got nan"),
    (["plot", "--kind", "network", NSAID_JSON, "--ci-level", "-0.5"],
     "--ci-level: must be in (0, 1), got -0.5"),
], ids=["alpha-0", "alpha-1", "compare-ci", "fit-ci-nan", "plot-ci"])
def test_level_outside_the_unit_interval_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: nma {argv[0]}")
    assert err.endswith(f"error: argument {message}\n")


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

    @pytest.mark.parametrize("flag", ["--reference", "--name"])
    def test_blank_label_argument_counts_as_empty(self, capsys, flag):
        assert run(capsys, "validate", NSAID_JSON, flag, " ") == run(
            capsys, "validate", NSAID_JSON, flag, ""
        )

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

    def test_exclusion_drops_the_studies_once(self, capsys, monkeypatch):
        calls = []
        drop_studies = NetworkDataset.drop_studies

        def counted(self, study_ids):
            calls.append(study_ids)
            return drop_studies(self, study_ids)

        monkeypatch.setattr(NetworkDataset, "drop_studies", counted)
        code, _, _ = run(capsys, "compare", NSAID_CSV, "--measure", "logRR", "--exclude", "row23")
        assert code == 0
        assert calls == [("row23",)]

    def test_blank_exclusion_names_no_study(self, capsys):
        assert run(capsys, "compare", NSAID_JSON, "--exclude", " ") == (
            1, "", "error: no studies named for exclusion\n"
        )

    def test_blank_exclusion_is_dropped_beside_a_study(self, capsys):
        plain = run(capsys, "compare", NSAID_JSON, "--exclude", "row23")
        assert plain[0] == 0
        assert run(capsys, "compare", NSAID_JSON, "--exclude", "", "--exclude", "row23") == plain

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
        assert lines[1:] == [
            "a,yes,no residual degrees of freedom,,,,,",
            "b,yes,no residual degrees of freedom,,,,,",
        ]

    @pytest.mark.parametrize("method", ["dl", "reml"])
    def test_skip_reasons_are_pinned(self, capsys, tmp_path, method):
        cuts = tmp_path / "cuts.json"
        cuts.write_text(LOO_CUTS)
        code, out, _ = run(capsys, "loo", "--tau-method", method, str(cuts))
        assert code == 0
        lines = out.splitlines()
        assert lines[5:7] == [
            "s5,yes,exclusion removes the last study of treatment(s): D,,,,,",
            "s6,yes,\"disconnected network: {A,B,C,D} | {E,F}\",,,,,",
        ]
        assert all(",no,," in line for line in lines[1:5] + lines[7:])
        tiny = tmp_path / "tiny.json"
        tiny.write_text(LOO_NO_DF)
        code, out, _ = run(capsys, "loo", "--tau-method", method, str(tiny))
        assert code == 0
        assert out.splitlines()[1:] == [
            "s1,yes,no residual degrees of freedom,,,,,",
            "s2,yes,no residual degrees of freedom,,,,,",
        ]

    def test_reml_refit_beyond_bound_is_skipped(self, capsys, tmp_path):
        path = tmp_path / "triangle.json"
        path.write_text(REML_TOP_EDGE_LOO)
        code, out, _ = run(capsys, "loo", "--tau-method", "reml", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert [line.split(",")[1] for line in lines[1:]] == ["no", "no", "no", "yes"]
        assert lines[4] == (
            "s4,yes,REML maximizer lies beyond the search bound "
            "10 var(y) + 10 max(s_i^2) = 0.001,,,,,"
        )

    @pytest.mark.parametrize("method", ["dl", "reml"])
    def test_refit_with_swamped_gram_is_skipped(self, capsys, tmp_path, method):
        path = tmp_path / "swamped.json"
        path.write_text(SWAMPED_GRAM_LOO)
        code, out, _ = run(capsys, "loo", "--tau-method", method, str(path))
        assert code == 0
        assert out.splitlines()[2] == (
            "s2,yes,\"X'WX is not positive definite in floating point: study 's4' has weight "
            "1/(s_i^2 + tau^2) = 1.21e+24, 1.21e+24 times the smallest, and the other weights "
            "are lost in rounding against it\",,,,,"
        )
        if method == "dl":
            # the denominator sum w_i (1 - h_i) is exactly 2, but rounds to 0
            assert out.splitlines()[4] == (
                "s4,yes,\"moment estimator denominator sum w_i - sum w_i^2 x_i' C x_i comes out 0 "
                "in floating point: study 's2' has weight 1/s_i^2 = 1.21e+24, 1.21e+24 times the "
                "smallest, and the other weights are lost in rounding against it\",,,,,"
            )


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

    def test_padded_target_is_the_bare_label(self, capsys):
        plot = ("plot", NSAID_JSON, "--kind", "forest", "--target")
        assert run(capsys, *plot, " Placebo ") == run(capsys, *plot, "Placebo")

    def test_blank_target_fails_as_a_missing_one(self, capsys):
        code, _, err = run(capsys, "plot", NSAID_JSON, "--kind", "forest", "--target", " ")
        assert (code, err) == (1, "error: forest plots need --target <treatment>\n")

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

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_a_usage_error(self, capsys, jobs):
        code, out, err = run(capsys, "batch", str(CORPUS_DIR), "--jobs", jobs)
        assert (code, out) == (2, "")
        assert err.startswith("usage: nma batch")
        assert err.endswith(f"error: argument --jobs: must be at least 1, got {jobs}\n")

    def test_jobs_is_capped_at_the_cpus_and_the_files(self, capsys, monkeypatch):
        """A million jobs asks the pool for no more workers than CPUs or files; none is started."""
        import concurrent.futures

        asked = []

        class Recorder:
            def __init__(self, max_workers, mp_context):
                asked.append((max_workers, mp_context.get_start_method()))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, *iterables, chunksize):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        serial = run(capsys, "batch", str(CORPUS_DIR))
        for cpus in (2, 64):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                                raising=False)
            assert run(capsys, "batch", str(CORPUS_DIR), "--jobs", str(10**6)) == serial
        assert asked == [(2, "fork"), (3, "fork")]

    def test_no_fork_while_other_threads_run(self, capsys, monkeypatch):
        import concurrent.futures
        import threading

        forked = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda *args, **kwargs: forked.append(args))
        release = threading.Event()
        waiting = threading.Thread(target=release.wait, args=(60,))
        waiting.start()
        try:
            result = run(capsys, "batch", str(CORPUS_DIR), "--jobs", "2")
        finally:
            release.set()
            waiting.join(60)
        assert not waiting.is_alive()
        assert result == run(capsys, "batch", str(CORPUS_DIR)) and forked == []

    @staticmethod
    def _corpus_copy(directory: Path) -> Path:
        for path in CORPUS_DIR.glob("*.json"):
            (directory / path.name).write_bytes(path.read_bytes())
        return directory

    def test_worker_error_ends_the_command_as_in_one_process(self, capsys, monkeypatch, tmp_path):
        """Patched before the fork, the failure happens in a worker and reaches ``main``."""
        directory = str(self._corpus_copy(tmp_path))
        load = analysis.load_dataset

        def failing(path):
            if Path(path).stem == "nsaid_pain_relief":
                raise ValueError("planted failure")
            return load(path)

        monkeypatch.setattr(analysis, "load_dataset", failing)
        for jobs in ("1", "2"):
            assert run(capsys, "batch", directory, "--jobs", jobs) == (
                1, "", "error: planted failure\n"
            )
            assert multiprocessing.active_children() == []

    def test_unexpected_worker_exception_reaches_the_caller(self, monkeypatch, tmp_path):
        directory = str(self._corpus_copy(tmp_path))

        def failing(path):
            raise RuntimeError(f"planted in {Path(path).stem}")

        monkeypatch.setattr(analysis, "load_dataset", failing)
        for jobs in ("1", "2"):
            with pytest.raises(RuntimeError, match="^planted in biologics_acr70$"):
                main(["batch", directory, "--jobs", jobs])
            assert multiprocessing.active_children() == []

        def raise_it():
            raise RuntimeError("planted in f00")

        serial, pool = self._loaded_before_failing(monkeypatch, tmp_path / "many", raise_it)
        assert serial == 1 and pool < 64

    def test_worker_warning_made_an_error_stops_the_batch(self, monkeypatch, tmp_path):
        """A worker records the warning; this process raises it when it issues it again."""
        def warn():
            warnings.warn("planted in f00", UserWarning)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            serial, pool = self._loaded_before_failing(monkeypatch, tmp_path / "many", warn)
        assert serial == 1 and pool < 64

    @staticmethod
    def _loaded_before_failing(monkeypatch, directory: Path, fail) -> list[int]:
        """How many of 64 files ``batch`` loads at ``--jobs`` 1 and 2 when the first one fails.

        ``fail()`` runs as the first file loads and must raise "planted in
        f00" out of ``main``. Two workers take the files in chunks of eight.
        The first chunk loads at once and each later file takes 20 ms, so
        the failure reaches this process while the workers are still on
        their first chunks; cancelling the chunks no worker has taken leaves
        the last two unloaded (48 files).
        """
        directory.mkdir()
        smoke = Path(SMOKE_JSON).read_bytes()
        for i in range(64):
            (directory / f"f{i:02d}.json").write_bytes(smoke)
        log = directory / "loaded.txt"
        load = analysis.load_dataset

        def logged(path):
            with open(log, "a") as fh:
                fh.write(f"{Path(path).stem}\n")
            if Path(path).stem == "f00":
                fail()
            time.sleep(0.02 * (Path(path).stem >= "f08"))
            return load(path)

        monkeypatch.setattr(analysis, "load_dataset", logged)
        loaded = []
        for jobs in ("1", "2"):
            log.write_text("")
            with pytest.raises(Exception, match="^planted in f00$"):
                main(["batch", str(directory), "--jobs", jobs])
            assert multiprocessing.active_children() == []
            loaded.append(len(log.read_text().split()))
        return loaded

    def test_no_worker_outlives_the_command(self, capsys):
        assert run(capsys, "batch", str(CORPUS_DIR), "--jobs", "2")[0] == 0
        assert multiprocessing.active_children() == []

    def test_worker_warnings_are_issued_once_in_source_order(self, capsys, monkeypatch, tmp_path):
        """A worker's warnings come out of ``main`` as with one job: in order and deduplicated.

        Under the "default" filter a warning shows once per module and line,
        so "every file" shows once although each worker raises it.
        """
        directory = str(self._corpus_copy(tmp_path))
        load = analysis.load_dataset

        def warning(path):
            warnings.warn("every file", UserWarning)
            warnings.warn(f"file {Path(path).stem}", RuntimeWarning)
            return load(path)

        monkeypatch.setattr(analysis, "load_dataset", warning)
        seen = []
        for jobs in ("1", "2"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")
                result = run(capsys, "batch", directory, "--jobs", jobs)
            seen.append((result, [(w.category, str(w.message), w.filename, w.lineno)
                                  for w in caught]))
        assert seen[0] == seen[1]
        assert seen[0][0][0] == 0
        assert [message for _, message, _, _ in seen[0][1]] == [
            "every file", "file biologics_acr70", "file nsaid_pain_relief",
            "file smoke_alarm_interventions",
        ]
