"""Forest/network figure data, SVG rendering, fit reports and CSV mirrors."""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET

import pytest

from nmacompare import (
    DatasetError,
    MarkerKind,
    TauMethod,
    compare_models,
    fit_report,
    forest_data,
    network_data,
    per_study_csv,
    render_svg,
)

from conftest import decompose, make_dataset, single_pair


@pytest.fixture(scope="module")
def nsaid_report(nsaid):
    return compare_models(nsaid, TauMethod.DL)


@pytest.fixture(scope="module")
def nsaid_forest(nsaid, nsaid_report):
    return forest_data(nsaid, nsaid_report.re, nsaid_report.me, nsaid_report.q, "Placebo")


class TestForestData:
    def test_row_counts(self, nsaid_forest):
        studies = [r for r in nsaid_forest if r.marker is MarkerKind.STUDY_CIRCLE]
        re_rows = [r for r in nsaid_forest if r.marker is MarkerKind.RE_SQUARE]
        me_rows = [r for r in nsaid_forest if r.marker is MarkerKind.ME_TRIANGLE]
        assert len(studies) == 29
        assert len(re_rows) == 6
        assert len(me_rows) == 6

    def test_q_labels_match_threshold_rule(self, nsaid, nsaid_report, nsaid_forest):
        threshold = nsaid_report.q.q_het / nsaid.n_studies
        labelled = {
            r.label for r in nsaid_forest
            if r.marker is MarkerKind.STUDY_CIRCLE and r.q_label is not None
        }
        expected = {
            nsaid.studies[c.index].study_id
            for c in nsaid_report.q.per_study
            if c.q_het > threshold
        }
        assert labelled == expected
        assert len(labelled) == 9  # exactly the nine high-contribution studies

    def test_study_row_geometry(self, nsaid, nsaid_forest):
        by_label = {r.label: r for r in nsaid_forest if r.marker is MarkerKind.STUDY_CIRCLE}
        for obs in nsaid.studies:
            row = by_label[obs.study_id]
            assert row.estimate == obs.effect  # treat_a is the target here
            assert row.ci_hi - row.ci_lo == pytest.approx(2 * 1.959964 * obs.se, abs=1e-5)
            assert row.area_weight == pytest.approx(1.0 / obs.se**2, rel=1e-12)
            assert row.ci_lo <= row.estimate <= row.ci_hi

    def test_single_study_ci(self):
        ds = single_pair([0.5, 0.7, 0.2], [0.2, 0.3, 0.4])
        report = compare_models(ds)
        rows = forest_data(ds, report.re, report.me, report.q, "P")
        first = next(r for r in rows if r.label == "s1")
        assert first.ci_lo == pytest.approx(0.5 - 1.959964 * 0.2, abs=1e-5)
        assert first.ci_hi == pytest.approx(0.5 + 1.959964 * 0.2, abs=1e-5)

    def test_smoke_rows_restricted_to_target_designs(self, smoke):
        report = compare_models(smoke)
        rows = forest_data(smoke, report.re, report.me, report.q, "Usual Care")
        studies = [r for r in rows if r.marker is MarkerKind.STUDY_CIRCLE]
        # only the 13 studies in designs that include usual care appear
        assert len(studies) == 13
        # pooled rows cover every other treatment, direct or not
        model_rows = [r for r in rows if r.marker is MarkerKind.RE_SQUARE]
        assert len(model_rows) == 6

    def test_orientation_flips_toward_target(self, smoke):
        report = compare_models(smoke)
        rows = forest_data(smoke, report.re, report.me, report.q, "Education")
        # row1 is Usual Care vs Education, so vs-Education orientation negates it
        row1 = next(r for r in rows if r.label == "row1")
        assert row1.estimate == pytest.approx(0.0506, abs=1e-12)

    def test_padded_target_is_the_bare_label(self, nsaid, nsaid_report, nsaid_forest):
        rows = forest_data(nsaid, nsaid_report.re, nsaid_report.me, nsaid_report.q, " Placebo ")
        assert rows == nsaid_forest

    def test_unknown_target(self, nsaid, nsaid_report):
        with pytest.raises(DatasetError, match="target treatment"):
            forest_data(nsaid, nsaid_report.re, nsaid_report.me, nsaid_report.q, "Aspirin")


class TestNetworkData:
    def test_nsaid_star_counts(self, nsaid):
        graph = network_data(nsaid)
        assert len(graph.edges) == 6
        counts = {e.pair[1]: e.study_count for e in graph.edges}
        assert counts == {
            "felbinac": 3, "ibuprofen": 5, "indomethacin": 3,
            "ketoprofen": 6, "other NSAID": 9, "piroxicam": 3,
        }
        for edge in graph.edges:
            assert edge.pair[0] == "Placebo"
            assert edge.width_weight == float(edge.study_count)

    def test_single_study(self):
        ds = make_dataset([("P", "A", 0.5, 0.2)])
        graph = network_data(ds)
        assert len(graph.edges) == 1
        assert graph.edges[0].study_count == 1

    def test_smoke_edges(self, smoke):
        graph = network_data(smoke)
        assert len(graph.edges) == 10
        counts = {e.pair: e.study_count for e in graph.edges}
        assert counts[("Education+HSI", "Education+LCFE+HSI")] == 3


class TestRenderSvg:
    def test_deterministic(self, nsaid_forest):
        assert render_svg(nsaid_forest) == render_svg(nsaid_forest)

    def test_valid_xml(self, nsaid, nsaid_forest):
        for svg in (render_svg(nsaid_forest), render_svg(network_data(nsaid))):
            root = ET.fromstring(svg)
            assert root.tag.endswith("svg")

    def test_single_row_forest(self):
        ds = single_pair([0.5, 0.7], [0.2, 0.3])
        report = compare_models(ds)
        rows = [
            r for r in forest_data(ds, report.re, report.me, report.q, "P")
            if r.label == "s1"
        ]
        svg = render_svg(rows)
        assert svg.count("<circle") == 1
        assert "<line" in svg

    def test_largest_circle_is_most_precise_study(self, nsaid, nsaid_forest):
        svg = render_svg(nsaid_forest)
        radii = [float(r) for r in re.findall(r'<circle[^>]*r="([0-9.]+)"', svg)]
        study_rows = [r for r in nsaid_forest if r.marker is MarkerKind.STUDY_CIRCLE]
        assert len(radii) == len(study_rows)
        biggest = study_rows[radii.index(max(radii))]
        min_se = min(obs.se for obs in nsaid.studies)
        assert [obs.se for obs in nsaid.studies if obs.study_id == biggest.label] == [min_se]

    def test_radius_proportional_to_inverse_se(self, nsaid, nsaid_forest):
        svg = render_svg(nsaid_forest)
        radii = [float(r) for r in re.findall(r'<circle[^>]*r="([0-9.]+)"', svg)]
        study_rows = [r for r in nsaid_forest if r.marker is MarkerKind.STUDY_CIRCLE]
        k = 9.0 / math.sqrt(max(r.area_weight for r in study_rows))
        for radius, row in zip(radii, study_rows):
            # radius = k * sqrt(area_weight), up to the 2-decimal output rounding
            assert radius == pytest.approx(k * math.sqrt(row.area_weight), abs=0.006)

    def test_q_labels_render_three_significant_figures(self, nsaid_forest):
        svg = render_svg(nsaid_forest)
        labelled = [r for r in nsaid_forest if r.q_label is not None]
        for row in labelled:
            assert f">{format(row.q_label, '.3g')}</text>" in svg
        # the dominant contribution renders as 23.3, not 23.2961...
        assert ">23.3</text>" in svg

    def test_network_determinism_and_widths(self, smoke):
        graph = network_data(smoke)
        svg = render_svg(graph)
        assert svg == render_svg(graph)
        widths = [float(w) for w in re.findall(r'stroke-width="([0-9.]+)"', svg)]
        assert max(widths) == 10.0  # the busiest design gets the full width

    def test_empty_forest_rejected(self):
        with pytest.raises(DatasetError):
            render_svg([])


class TestFitReport:
    def test_duplicates(self):
        ds = single_pair([1.0, 1.0], [1.0, 1.0])
        report = compare_models(ds)
        doc = fit_report(ds, [report.fe, report.re, report.me], report.q, report)
        assert doc["delta_aic"] == 0.0
        assert doc["q"]["total"] == pytest.approx(0.0, abs=1e-14)
        assert doc["classification"] == "similar_support"

    def test_biologics_document(self, biologics):
        report = compare_models(biologics)
        doc = fit_report(biologics, [report.fe, report.re, report.me], report.q, report)
        assert doc["q"]["het"] == pytest.approx(190.15, abs=2.0)
        assert doc["classification"] == "re_strong"
        assert doc["m"] == 32 and doc["n"] == 9 and doc["C"] == 8
        kinds = [entry["kind"] for entry in doc["models"]]
        assert kinds == ["FE", "RE-DL", "ME"]
        re_entry = doc["models"][1]
        assert re_entry["hetero"]["tau"] == pytest.approx(
            math.sqrt(re_entry["hetero"]["tau2"]), rel=1e-12
        )

    def test_round_trip_stability(self, smoke):
        report = compare_models(smoke)
        doc = fit_report(smoke, [report.fe, report.re, report.me], report.q, report)
        parsed = json.loads(json.dumps(doc))
        assert parsed["classification"] == doc["classification"]
        assert parsed["delta_aic"] == doc["delta_aic"]
        assert parsed == doc

    def test_untestable_omits_p_value(self):
        ds = make_dataset(
            [("P", "A", 0.5, 0.2), ("P", "B", 0.1, 0.2), ("A", "B", 0.4, 0.3)]
        )
        report = compare_models(ds)
        doc = fit_report(ds, [report.fe], report.q, report)
        assert "p_het" not in doc["q"]
        assert doc["q"]["df_het"] == 0
        assert doc["classification"] is None
        assert doc["untestable"] is True

    def test_ci_width_rule(self, smoke):
        report = compare_models(smoke)
        doc = fit_report(smoke, [report.re], report.q, report)
        z = 1.9599639845400545
        for entry in doc["models"][0]["d_hat"].values():
            width = entry["ci_hi"] - entry["ci_lo"]
            assert width == pytest.approx(2 * z * entry["se"], abs=1e-10)


class TestPerStudyCsv:
    def test_columns_and_values(self, nsaid):
        _, _, q = decompose(nsaid)
        text = per_study_csv(nsaid, q)
        lines = text.strip().splitlines()
        assert lines[0] == "study_id,treat_a,treat_b,effect,se,q_het_i"
        assert len(lines) == 30
        first = lines[1].split(",")
        assert first[0] == "row1"
        assert float(first[3]) == pytest.approx(0.468)
        # labels with spaces stay intact (no stray separators)
        row18 = lines[18].split(",")
        assert row18[2] == "other NSAID"
