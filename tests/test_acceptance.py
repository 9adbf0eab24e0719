"""Acceptance suite: every release criterion with its stated tolerance.

Each test prints one `acceptance criterion NN: PASS/FAIL` line (bypassing
pytest's capture) so the full checklist is visible in a plain ``pytest -v``
run.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np
import pytest

from nmacompare import (
    Classification,
    TauMethod,
    chi_square_sf,
    compare_models,
    derive_contrast_continuous,
    estimate_tau2_dl,
    estimate_tau2_reml,
    exclude_and_refit,
    fit_fe,
    fit_me,
    fit_re,
    q_decompose,
    reml_objective,
)
from nmacompare.cli import main as cli_main
from nmacompare.dataset import ContrastObservation, NetworkDataset

from conftest import (
    CORPUS_DIR,
    NSAID_PER_STUDY,
    classical_cochran_q,
    decompose,
    enumerate_small_connected_networks,
    flipped,
    random_network,
    reml_grid_argmax,
)


@pytest.fixture()
def criterion(capsys):
    @contextmanager
    def check(number: int, label: str):
        try:
            yield
        except Exception:
            with capsys.disabled():
                print(f"acceptance criterion {number:>2}: FAIL - {label}")
            raise
        with capsys.disabled():
            print(f"acceptance criterion {number:>2}: PASS - {label}")

    return check


@pytest.fixture(scope="module")
def random_corpus():
    """1000 randomized connected two-arm networks (n <= 8, m <= 40) with fits."""
    rng = np.random.default_rng(20260808)
    corpus = []
    for _ in range(1000):
        ds = random_network(rng)
        x = ds.design
        fe = fit_fe(ds)
        me = fit_me(ds, fe)
        q = q_decompose(ds, fe)
        corpus.append((ds, x, fe, me, q))
    return corpus


def test_c01_nsaid_q_decomposition(criterion, nsaid):
    with criterion(1, "NSAID network: Q_het 82.25, df 23, star inconsistency zero"):
        _, _, q = decompose(nsaid)
        assert q.q_het == pytest.approx(82.25, abs=1.0)
        assert q.df_het == 23
        assert 5e-9 <= q.p_het <= 4e-8
        assert q.q_inc == 0.0


def test_c02_nsaid_per_study_contributions(criterion, nsaid):
    with criterion(2, "NSAID per-study contributions match the reference values"):
        _, _, q = decompose(nsaid)
        for contribution, expected in zip(q.per_study, NSAID_PER_STUDY):
            assert abs(contribution.q_het - expected) <= max(0.05, 0.02 * expected)
        totals = {c.design.pair[1]: c.q_het for c in q.per_design}
        assert totals["ketoprofen"] == pytest.approx(16.6, abs=0.2)
        assert totals["other NSAID"] == pytest.approx(34.62, abs=0.5)
        assert totals["ibuprofen"] == pytest.approx(19.22, abs=0.4)


def test_c03_nsaid_comparison_and_outlier(criterion, nsaid):
    with criterion(3, "NSAID delta AIC -11.84 (ME strong); outlier refit -6.53"):
        report = compare_models(nsaid, TauMethod.DL)
        assert report.delta_aic == pytest.approx(-11.84, abs=0.5)
        assert report.classification is Classification.ME_STRONG
        record = exclude_and_refit(nsaid, ["row23"], TauMethod.DL)
        assert record.report is not None
        assert record.report.q.q_het == pytest.approx(58.53, abs=1.0)
        assert record.report.delta_aic == pytest.approx(-6.53, abs=0.5)


def test_c04_smoke_alarm_network(criterion, smoke):
    with criterion(4, "smoke-alarm network: Q_het 23.51, p 0.009, delta AIC -9.02"):
        _, _, q = decompose(smoke)
        assert q.q_het == pytest.approx(23.51, abs=0.5)
        assert q.df_het == 10
        assert q.p_het == pytest.approx(0.009, abs=0.002)
        largest = max(q.per_design, key=lambda c: c.q_het)
        assert largest.q_het == pytest.approx(10.7, abs=0.3)
        outlier = next(
            c for c in q.per_study if smoke.studies[c.index].effect == -3.15
        )
        assert outlier.q_het == pytest.approx(4.53, abs=0.1)
        report = compare_models(smoke, TauMethod.DL)
        assert report.delta_aic == pytest.approx(-9.02, abs=0.5)


def test_c05_biologics_network(criterion, biologics):
    with criterion(5, "biologics network: Q_het 190.15, delta AIC +11.47 (RE strong)"):
        _, _, q = decompose(biologics)
        assert q.q_het == pytest.approx(190.15, abs=2.0)
        flagged = {
            biologics.studies[c.index].effect: c.q_het
            for c in q.per_study
            if biologics.studies[c.index].effect in (-1.22, -0.504)
        }
        assert flagged[-1.22] == pytest.approx(42.7, abs=0.9)
        assert flagged[-0.504] == pytest.approx(36.4, abs=0.8)
        report = compare_models(biologics, TauMethod.DL)
        assert report.delta_aic == pytest.approx(11.47, abs=0.5)
        assert report.classification is Classification.RE_STRONG
        ids = [
            obs.study_id for obs in biologics.studies if obs.effect in (-1.22, -0.504)
        ]
        record = exclude_and_refit(biologics, ids, TauMethod.DL)
        assert record.report is not None
        assert record.report.q.q_total == pytest.approx(78.37, abs=1.0)
        assert record.report.delta_aic == pytest.approx(5.88, abs=0.5)


def test_c06_contrast_standard_error_rule(criterion):
    with criterion(6, "arm-level SE combines in quadrature (3.88, never 0.37)"):
        effect, se = derive_contrast_continuous(-11.00, 2.55, -27.60, 2.93)
        assert effect == pytest.approx(-16.60, abs=1e-12)
        assert se == pytest.approx(3.88, abs=0.005)
        assert abs(se - 0.37) > 1.0


def test_c07_chi_square_tails(criterion):
    with criterion(7, "chi-square tails: sf(82.25,23) and sf(23.51,10)"):
        assert chi_square_sf(82.25, 23) == pytest.approx(1.37e-8, rel=0.02)
        assert chi_square_sf(23.51, 10) == pytest.approx(0.009, rel=0.05)


def test_c08_me_fe_identity(criterion, random_corpus):
    with criterion(8, "ME equals FE point estimates on 1000 random networks"):
        for _, _, fe, me, _ in random_corpus:
            assert float(np.max(np.abs(me.d_hat - fe.d_hat))) == 0.0
            scale = np.maximum(np.abs(me.phi * fe.cov), 1e-300)
            assert float(np.max(np.abs(me.cov - me.phi * fe.cov) / scale)) <= 1e-12


def test_c09_q_additivity(criterion, random_corpus):
    with criterion(9, "Q_total = Q_het + Q_inc and contributions aggregate"):
        for _, _, _, _, q in random_corpus:
            assert q.q_total == pytest.approx(q.q_het + q.q_inc, rel=1e-8, abs=1e-10)
            per_study = sum(c.q_het for c in q.per_study)
            per_design = sum(c.q_het for c in q.per_design)
            assert abs(per_study - q.q_het) <= 1e-10 * (1.0 + q.q_het)
            assert abs(per_design - q.q_het) <= 1e-10 * (1.0 + q.q_het)


def _invariant_stats(report):
    return (
        report.q.q_total,
        report.q.q_het,
        report.q.q_inc,
        report.phi,
        report.delta_aic,
        report.classification,
    )


def _assert_stats_match(got, expected):
    for g, e in zip(got[:-1], expected[:-1]):
        assert g == pytest.approx(e, rel=1e-8, abs=1e-8)
    assert got[-1] is expected[-1]


def test_c10_invariance_suite(criterion):
    with criterion(10, "reference/order/orientation/scale invariances"):
        rng = np.random.default_rng(77)
        for i in range(60):
            ds = random_network(rng, max_treatments=6, max_studies=24)
            base = compare_models(ds, TauMethod.DL)
            expected = _invariant_stats(base)

            order = rng.permutation(ds.n_studies)
            permuted = NetworkDataset(
                ds.name, ds.measure, tuple(ds.studies[j] for j in order), ds.reference
            )
            _assert_stats_match(_invariant_stats(compare_models(permuted)), expected)

            turned = NetworkDataset(
                ds.name,
                ds.measure,
                tuple(flipped(o) if rng.random() < 0.5 else o for o in ds.studies),
                ds.reference,
            )
            _assert_stats_match(_invariant_stats(compare_models(turned)), expected)

            other_ref = NetworkDataset(ds.name, ds.measure, ds.studies, ds.treatments[-1])
            _assert_stats_match(_invariant_stats(compare_models(other_ref)), expected)

            c = float(rng.uniform(0.2, 5.0))
            scaled = NetworkDataset(
                ds.name,
                ds.measure,
                tuple(
                    ContrastObservation(o.study_id, o.treat_a, o.treat_b,
                                        c * o.effect, c * o.se)
                    for o in ds.studies
                ),
                ds.reference,
            )
            scaled_report = compare_models(scaled)
            _assert_stats_match(_invariant_stats(scaled_report), expected)
            assert scaled_report.tau2 == pytest.approx(c**2 * base.tau2, rel=1e-8, abs=1e-10)
            if i < 15:
                assert estimate_tau2_reml(scaled) == pytest.approx(
                    c**2 * estimate_tau2_reml(ds), rel=1e-4, abs=1e-8
                )


def test_c11_degenerate_equivalence(criterion):
    with criterion(11, "Q_total <= df forces phi = 1, tau2 = 0, equal AIC"):
        rng = np.random.default_rng(202)
        qualifying = 0
        for _ in range(100):
            ds = random_network(rng, max_treatments=5, max_studies=16)
            fe = fit_fe(ds)
            shrunk = NetworkDataset(
                ds.name,
                ds.measure,
                tuple(
                    ContrastObservation(
                        o.study_id, o.treat_a, o.treat_b,
                        float(f + 0.05 * r), o.se,
                    )
                    for o, f, r in zip(ds.studies, fe.fitted, fe.residuals)
                ),
                ds.reference,
            )
            x2 = shrunk.design
            fe2 = fit_fe(shrunk)
            q_total = float(np.sum(fe2.residuals**2 * shrunk.weights()))
            if q_total > shrunk.n_studies - x2.cols:
                continue
            qualifying += 1
            assert fit_me(shrunk, fe2).phi == 1.0
            assert estimate_tau2_dl(shrunk, fe2) == 0.0
            me = fit_me(shrunk, fe2)
            re = fit_re(shrunk, 0.0)
            assert me.aic == re.aic
        assert qualifying >= 50


def test_c12_reml_grid_oracle(criterion):
    with criterion(12, "REML search matches a 1e5-point grid oracle within 1e-4"):
        rng = np.random.default_rng(555)
        for _ in range(50):
            ds = random_network(
                rng, max_treatments=3, max_studies=10, se_range=(0.5, 1.5)
            )
            estimate = estimate_tau2_reml(ds)
            hi = 10.0 * float(np.var(ds.effects(), ddof=1)) + 10.0 * float(
                np.max(ds.variances())
            )
            oracle = reml_grid_argmax(ds, hi)
            assert estimate == pytest.approx(oracle, abs=1e-4)
            h = 1e-5 * (1.0 + estimate)
            if estimate > h:
                gradient = (
                    reml_objective(estimate + h, ds)
                    - reml_objective(estimate - h, ds)
                ) / (2.0 * h)
                assert abs(gradient) <= 1e-4


def test_c13_brute_force_q_oracle(criterion):
    with criterion(13, "enumerated small networks match the Cochran Q oracle"):
        checked = 0
        for rows, ds in enumerate_small_connected_networks(max_m=6):
            _, _, q = decompose(ds)
            expected = classical_cochran_q(rows)
            assert abs(q.q_het - expected) <= 1e-10 * (1.0 + abs(expected))
            checked += 1
        assert checked > 400


def test_c14_batch_determinism(criterion, tmp_path, capsys):
    with criterion(14, "batch output is byte-identical for --jobs 1 and --jobs 8"):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert cli_main(
            ["batch", str(CORPUS_DIR), "--out-dir", str(serial), "--jobs", "1"]
        ) == 0
        assert cli_main(
            ["batch", str(CORPUS_DIR), "--out-dir", str(parallel), "--jobs", "8"]
        ) == 0
        for filename in ("summary.csv", "histogram.json"):
            assert (serial / filename).read_bytes() == (parallel / filename).read_bytes()
        rows = (serial / "summary.csv").read_text().strip().splitlines()
        assert len(rows) == 4
        histogram = json.loads((serial / "histogram.json").read_text())
        assert set(histogram) == {"logOR", "logRR"}
