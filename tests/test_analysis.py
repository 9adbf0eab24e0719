"""Model comparison, classification boundaries, sensitivity refits, batch runs."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from nmacompare import (
    BatchResult,
    BatchRow,
    Classification,
    ContrastObservation,
    DatasetError,
    DesignContribution,
    EstimationError,
    NetworkDataset,
    NumericError,
    ScreenResult,
    StudyContribution,
    TauMethod,
    batch_run,
    batch_to_csv,
    batch_to_json,
    classify,
    compare_models,
    exclude_and_refit,
    leave_one_out,
    load_dataset,
    parse_dataset,
)

from nmacompare import heterogeneity, models

from conftest import (
    ESCAPING_INPUTS, LOO_CUTS, OVERFLOW_FE, make_dataset, random_network, single_pair,
)


class TestClassify:
    @pytest.mark.parametrize(
        "delta,expected",
        [
            (0.0, Classification.SIMILAR_SUPPORT),
            (3.0, Classification.SIMILAR_SUPPORT),
            (-3.0, Classification.SIMILAR_SUPPORT),
            (-3.0001, Classification.ME_PREFERRED),
            (-9.0, Classification.ME_PREFERRED),
            (-9.0001, Classification.ME_STRONG),
            (3.0001, Classification.RE_PREFERRED),
            (9.0, Classification.RE_PREFERRED),
            (9.0001, Classification.RE_STRONG),
        ],
    )
    def test_boundaries(self, delta, expected):
        assert classify(delta) is expected


class TestCompareModels:
    def test_nsaid_dl(self, nsaid):
        report = compare_models(nsaid, TauMethod.DL)
        assert report.delta_aic == pytest.approx(-11.84, abs=0.5)
        assert report.classification is Classification.ME_STRONG
        assert report.m == 29 and report.n == 7 and report.n_designs == 6

    def test_biologics_dl(self, biologics):
        report = compare_models(biologics, TauMethod.DL)
        assert report.delta_aic == pytest.approx(11.47, abs=0.5)
        assert report.classification is Classification.RE_STRONG

    def test_duplicates_similar_support(self):
        ds = single_pair([1.0, 1.0], [1.0, 1.0])
        report = compare_models(ds)
        assert report.delta_aic == 0.0
        assert report.classification is Classification.SIMILAR_SUPPORT

    def test_untestable_flagged(self):
        ds = make_dataset(
            [("P", "A", 0.5, 0.2), ("P", "B", 0.1, 0.2), ("A", "B", 0.4, 0.3)]
        )
        report = compare_models(ds)
        assert report.untestable
        assert report.classification is None
        assert report.q.screen() is ScreenResult.UNTESTABLE

    @pytest.mark.parametrize("method", [TauMethod.DL, TauMethod.REML])
    def test_fits_fe_once(self, smoke, monkeypatch, method):
        """RE and ME are derived from one FE GLS fit, and Q_total is formed once, in the core."""
        calls = []
        gls_rows = models._gls_rows

        def counting(x, y, sigma2):
            calls.append(sigma2)
            return gls_rows(x, y, sigma2)

        def no_q_total(*args):
            raise AssertionError("compare_models forms Q_total in its core, not by q_total")

        monkeypatch.setattr(models, "_gls_rows", counting)
        monkeypatch.setattr(heterogeneity, "q_total", no_q_total)
        compare_models(smoke, method)
        assert [np.array_equal(s, smoke.variances()) for s in calls].count(True) == 1
        assert np.array_equal(calls[0], smoke.variances())
        if method is TauMethod.DL:
            assert len(calls) == 2  # the FE fit and the RE fit

    def test_aic_me_independent_of_tau_method(self, smoke):
        dl = compare_models(smoke, TauMethod.DL)
        reml = compare_models(smoke, TauMethod.REML)
        assert dl.aic_me == reml.aic_me
        assert dl.phi == reml.phi
        assert dl.aic_re != reml.aic_re

    def test_order_and_reference_independence(self, smoke):
        base = compare_models(smoke)
        rng = np.random.default_rng(37)
        order = rng.permutation(smoke.n_studies)
        permuted = NetworkDataset(
            smoke.name, smoke.measure,
            tuple(smoke.studies[i] for i in order), "Education",
        )
        other = compare_models(permuted)
        assert other.delta_aic == pytest.approx(base.delta_aic, abs=1e-8)
        assert other.q.q_het == pytest.approx(base.q.q_het, rel=1e-10)
        assert other.tau2 == pytest.approx(base.tau2, rel=1e-8)
        assert other.phi == pytest.approx(base.phi, rel=1e-10)
        assert other.classification is base.classification

    def test_insufficient_df_raises(self):
        ds = make_dataset([("P", "A", 0.5, 0.2)])
        with pytest.raises(EstimationError, match="no residual degrees of freedom"):
            compare_models(ds)

    @pytest.mark.parametrize("method", ["dl", "REML", None])
    def test_tau_method_must_be_a_member(self, smoke, method):
        """A string once ran REML silently; any non-member is now named in an error."""
        with pytest.raises(EstimationError, match=f"unknown tau method {method!r}"):
            compare_models(smoke, method)


class TestExcludeAndRefit:
    def test_nsaid_outlier(self, nsaid):
        record = exclude_and_refit(nsaid, ["row23"], TauMethod.DL)
        assert record.report is not None
        assert record.report.q.q_het == pytest.approx(58.53, abs=1.0)
        assert record.report.delta_aic == pytest.approx(-6.53, abs=0.5)
        assert record.q_het_delta == pytest.approx(-23.8, abs=1.0)

    def test_biologics_two_outliers(self, biologics):
        # the two precise studies favouring the comparator
        ids = [
            obs.study_id
            for obs in biologics.studies
            if (obs.treat_b, obs.effect) in (("Abatacept", -1.22), ("Etanercept", -0.504))
        ]
        assert len(ids) == 2
        record = exclude_and_refit(biologics, ids, TauMethod.DL)
        assert record.report is not None
        assert record.report.q.q_total == pytest.approx(78.37, abs=1.0)
        assert record.report.delta_aic == pytest.approx(5.88, abs=0.5)

    def test_cut_edge_exclusion_disconnects(self):
        ds = make_dataset(
            [("P", "A", 0.5, 0.2), ("P", "A", 0.7, 0.3), ("A", "B", 0.1, 0.2),
             ("B", "C", 0.2, 0.25), ("B", "C", 0.4, 0.25)]
        )
        with pytest.raises(DatasetError, match=r"disconnected network: \{A,P\} \| \{B,C\}"):
            exclude_and_refit(ds, ["s3"])

    def test_unknown_id(self, nsaid):
        with pytest.raises(DatasetError, match="unknown study id"):
            exclude_and_refit(nsaid, ["rowX"])

    def test_empty_exclusion(self, nsaid):
        with pytest.raises(DatasetError, match="no studies named"):
            exclude_and_refit(nsaid, [])
        with pytest.raises(DatasetError, match="exclusion removes every study"):
            exclude_and_refit(nsaid, [obs.study_id for obs in nsaid.studies])

    def test_removing_treatments_last_study_fails(self):
        ds = make_dataset(
            [("P", "A", 0.5, 0.2), ("P", "A", 0.3, 0.2),
             ("A", "B", 0.1, 0.2), ("A", "B", 0.2, 0.2), ("P", "C", 0.6, 0.3)],
            reference="P",
        )
        with pytest.raises(DatasetError, match="last study of treatment.*C"):
            exclude_and_refit(ds, ["s5"])

    @pytest.mark.parametrize("text, excluded, message", [
        (OVERFLOW_FE, [], "no studies named for exclusion"),
        (OVERFLOW_FE, ["nope"], "log-likelihood overflows"),
        (LOO_CUTS, ["s5", "nope"], "unknown study id(s): nope"),
        (LOO_CUTS, ["s5"], "exclusion removes the last study of treatment(s): D"),
    ])
    def test_exclusion_errors_come_in_order(self, text, excluded, message):
        """Empty exclusion, then the baseline fit, then an unknown id, then a lost treatment."""
        with pytest.raises((DatasetError, EstimationError, NumericError)) as caught:
            exclude_and_refit(parse_dataset(text, "json"), excluded)
        assert str(caught.value).startswith(message)


class TestLeaveOneOut:
    def test_nsaid_outlier_dominates(self, nsaid):
        records = leave_one_out(nsaid, TauMethod.DL)
        assert len(records) == 29
        assert all(not r.skipped for r in records)
        drops = {r.excluded[0]: r.q_het_delta for r in records}
        biggest = min(drops, key=lambda k: drops[k])
        assert biggest == "row23"
        assert drops["row23"] == pytest.approx(-23.8, abs=1.0)

    def test_two_study_pair_all_skipped(self):
        ds = single_pair([0.0, 2.0], [1.0, 1.0])
        records = leave_one_out(ds)
        assert len(records) == 2
        assert all(r.skipped for r in records)
        assert all("degrees of freedom" in (r.reason or "") for r in records)

    def test_smoke_designs_recomputed(self, smoke):
        records = leave_one_out(smoke, TauMethod.DL)
        assert len(records) == 20
        assert all(not r.skipped for r in records)
        single_design_ids = {"row14", "row15", "row16", "row20"}
        for record in records:
            assert record.report is not None
            expected_designs = 9 if record.excluded[0] in single_design_ids else 10
            assert record.report.n_designs == expected_designs


class TestBatch:
    def test_corpus_summary(self, corpus_dir):
        sources = sorted(corpus_dir.glob("*.json"))
        result = batch_run(sources)
        assert len(result.rows) == 3
        assert [row.screen for row in result.rows] == ["heterogeneous"] * 3
        by_name = {row.name: row for row in result.rows}
        assert by_name["nsaid-pain-relief"].delta_aic < -3
        assert by_name["smoke-alarm-interventions"].delta_aic < -3
        assert by_name["biologics-acr70"].delta_aic > 3

    def test_serial_batch_builds_no_study_records(self, corpus_dir, monkeypatch):
        """A batch row reads columns and Q arrays only: no ``ContrastObservation``,
        ``StudyContribution`` or ``DesignContribution`` is built. The same spy counts
        them once a comparison's records are read."""
        built = Counter()
        for cls in (ContrastObservation, StudyContribution, DesignContribution):
            monkeypatch.setattr(cls, "__new__", lambda cls, *a, new=cls.__new__: (
                built.update([cls.__name__]) or new(cls, *a)))
        sources = sorted(corpus_dir.glob("*.json"))
        rows = batch_run(sources, jobs=1).rows
        assert [row.error for row in rows] == [""] * 3 and not built
        report = compare_models(load_dataset(sources[0]))
        report.q.per_design, report.q.per_study
        assert built == {"DesignContribution": report.n_designs, "StudyContribution": report.m}
        load_dataset(sources[0]).studies
        assert built["ContrastObservation"] == report.m

    def test_empty_input(self):
        result = batch_run([])
        assert result.rows == ()
        assert result.histogram == {}
        csv_text = batch_to_csv(result)
        assert csv_text.splitlines()[0].startswith("name,measure,m,n,C,")
        assert len(csv_text.splitlines()) == 1

    def test_homogeneous_listed_but_not_classified(self, tmp_path):
        doc = {
            "name": "calm",
            "measure": "MD",
            "studies": [
                {"study_id": f"s{i}", "treat_a": "P", "treat_b": "A",
                 "effect": 0.5, "se": 0.5}
                for i in range(1, 5)
            ],
        }
        path = tmp_path / "calm.json"
        path.write_text(json.dumps(doc))
        result = batch_run([path])
        row = result.rows[0]
        assert row.screen == "homogeneous"
        assert row.classification == ""
        assert row.delta_aic is not None
        assert result.histogram == {}

    def test_error_row_keeps_going(self, tmp_path, corpus_dir):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        result = batch_run([bad, corpus_dir / "nsaid_pain_relief.json"])
        errors = [row for row in result.rows if row.error]
        assert len(errors) == 1
        assert errors[0].name == "broken"
        good = [row for row in result.rows if not row.error]
        assert len(good) == 1

    def test_file_that_escaped_the_parser_is_an_error_row(self, tmp_path, corpus_dir):
        bad = tmp_path / "huge_se.json"
        bad.write_text(ESCAPING_INPUTS["huge-se"][1])
        corpus = sorted(corpus_dir.glob("*.json"))
        result = batch_run(corpus + [bad])
        errors = [row for row in result.rows if row.error]
        assert [(row.name, row.error) for row in errors] == [
            ("huge_se", "study 1: effect or se is too large for a floating-point number")
        ]
        assert [row for row in result.rows if not row.error] == list(batch_run(corpus).rows)

    def test_unreadable_entry_is_an_error_row(self, tmp_path, corpus_dir):
        sub = tmp_path / "sub.json"
        sub.mkdir()
        corpus = sorted(corpus_dir.glob("*.json"))
        result = batch_run(corpus + [sub])
        errors = [row for row in result.rows if row.error]
        assert [row.name for row in errors] == ["sub"]
        assert errors[0].error.startswith(f"cannot read {str(sub)!r}: ")
        assert [row for row in result.rows if not row.error] == list(batch_run(corpus).rows)

    def test_worker_processes_give_the_result_of_one(self, tmp_path, corpus_dir):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        sources = sorted(corpus_dir.glob("*.json")) + [bad]
        assert batch_run(sources, jobs=2) == batch_run(sources)
        with pytest.raises(ValueError, match="^jobs must be at least 1, got 0$"):
            batch_run(sources, jobs=0)

    def test_serializers_write_every_field_but_source(self):
        rows = (
            BatchRow("a.json", "a", "MD", 3, 2, 1, 0.0, 0, None, "untestable",
                     0.0, 1.0, 5.5, 4.5, -1.0, "", ""),
            BatchRow("b.json", "b", error="bad file"),
        )
        result = BatchResult(rows, {}, 0.05, TauMethod.DL)
        assert batch_to_csv(result).splitlines() == [
            "name,measure,m,n,C,q_het,df_het,p_het,screen,tau2,phi,aic_me,aic_re,"
            "delta_aic,classification,error",
            "a,MD,3,2,1,0,0,,untestable,0,1,5.5,4.5,-1,,",
            "b,,,,,,,,,,,,,,,bad file",
        ]
        doc = batch_to_json(result)
        assert doc["rows"][0] == {
            "name": "a", "measure": "MD", "m": 3, "n": 2, "C": 1, "q_het": 0.0,
            "df_het": 0, "p_het": None, "screen": "untestable", "tau2": 0.0, "phi": 1.0,
            "aic_me": 5.5, "aic_re": 4.5, "delta_aic": -1.0, "classification": None,
            "error": None,
        }
        assert doc["rows"][1] == dict.fromkeys(doc["rows"][0], None) | {
            "name": "b", "error": "bad file",
        }

    def test_histogram_edges_aligned_to_three(self, corpus_dir):
        result = batch_run(sorted(corpus_dir.glob("*.json")))
        assert set(result.histogram) == {"logOR", "logRR"}
        for bins in result.histogram.values():
            for b in bins:
                assert b["lo"] % 3 == 0 and b["hi"] % 3 == 0
                assert b["hi"] - b["lo"] == 3
            assert sum(b["count"] for b in bins) >= 1
        log_or_edges = {b["lo"] for b in result.histogram["logOR"]}
        assert -3.0 in log_or_edges or 3.0 in {b["hi"] for b in result.histogram["logOR"]}

    def test_json_document_shape(self, corpus_dir):
        result = batch_run(sorted(corpus_dir.glob("*.json")))
        doc = batch_to_json(result)
        assert {"alpha", "tau_method", "rows", "histogram"} <= set(doc)
        assert len(doc["rows"]) == 3
        assert doc["rows"][0]["classification"] in {
            "me_strong", "me_preferred", "re_strong", "re_preferred", "similar_support"
        }
        json.dumps(doc)  # must be serializable as-is


class TestRandomizedComparisons:
    def test_classification_matches_delta(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            ds = random_network(rng, max_treatments=5, max_studies=20)
            report = compare_models(ds)
            if report.untestable:
                assert report.classification is None
                continue
            assert report.classification is classify(report.delta_aic)
            assert report.delta_aic == pytest.approx(
                report.aic_me - report.aic_re, abs=1e-12
            )
