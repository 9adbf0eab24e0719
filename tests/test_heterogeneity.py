"""Q decomposition: totals, per-design/per-study contributions, screening."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from nmacompare import (
    NetworkDataset,
    NumericError,
    ScreenResult,
    fit_fe,
    q_decompose,
    q_total,
)

from conftest import (
    NSAID_PER_STUDY,
    classical_cochran_q,
    decompose,
    enumerate_small_connected_networks,
    make_dataset,
    random_network,
    single_pair,
)


class TestQTotal:
    def test_zero_for_duplicates(self):
        ds = single_pair([1.0, 1.0], [1.0, 1.0])
        assert q_total(ds, fit_fe(ds)) == pytest.approx(0.0, abs=1e-14)

    def test_two_study_hand_value(self):
        ds = single_pair([0.0, 2.0], [1.0, 1.0])
        assert q_total(ds, fit_fe(ds)) == pytest.approx(2.0, abs=1e-12)

    def test_nsaid_star(self, nsaid):
        _, _, q = decompose(nsaid)
        assert q.q_total == pytest.approx(82.25, abs=1.0)
        assert q.q_total == pytest.approx(q.q_het, rel=1e-12)

    def test_overflow_named(self):
        ds = single_pair([0.0, 2.0], [1.0, 1.0])
        fe = dataclasses.replace(fit_fe(ds), residuals=np.array([1e200, -1e200]))
        with pytest.raises(NumericError, match="Q_total overflows"):
            q_total(ds, fe)


class TestNsaidDecomposition:
    def test_shape(self, nsaid):
        _, _, q = decompose(nsaid)
        assert q.df_het == 23
        assert q.df_inc == 0
        assert q.q_inc == 0.0
        assert q.p_inc is None
        assert 5e-9 <= q.p_het <= 4e-8

    def test_per_study_against_reference_values(self, nsaid):
        _, _, q = decompose(nsaid)
        assert len(q.per_study) == 29
        for contrib, expected in zip(q.per_study, NSAID_PER_STUDY):
            assert abs(contrib.q_het - expected) <= max(0.05, 0.02 * expected)

    def test_per_design_totals(self, nsaid):
        _, _, q = decompose(nsaid)
        totals = {c.design.pair[1]: c.q_het for c in q.per_design}
        assert totals["ketoprofen"] == pytest.approx(16.6, abs=0.2)
        assert totals["other NSAID"] == pytest.approx(34.62, abs=0.5)
        assert totals["ibuprofen"] == pytest.approx(19.22, abs=0.4)

    def test_weights_recorded(self, nsaid):
        _, _, q = decompose(nsaid)
        for contrib in q.per_study:
            assert contrib.weight == pytest.approx(
                1.0 / nsaid.studies[contrib.index].se ** 2, rel=1e-12
            )


class TestSmokeDecomposition:
    def test_headline_numbers(self, smoke):
        _, _, q = decompose(smoke)
        assert q.q_het == pytest.approx(23.51, abs=0.5)
        assert q.df_het == 10
        assert q.p_het == pytest.approx(0.009, abs=0.002)

    def test_largest_design_contribution(self, smoke):
        _, _, q = decompose(smoke)
        largest = max(q.per_design, key=lambda c: c.q_het)
        assert largest.design.pair == ("Education+LCFE+HSI", "Usual Care")
        assert largest.q_het == pytest.approx(10.7, abs=0.3)

    def test_inconsistency_is_testable(self, smoke):
        _, _, q = decompose(smoke)
        assert q.df_inc == 4
        assert q.p_inc is not None
        assert q.q_inc > 0


class TestAdditivity:
    def test_q_total_splits(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            ds = random_network(rng)
            _, _, q = decompose(ds)
            assert q.q_total == pytest.approx(q.q_het + q.q_inc, rel=1e-8, abs=1e-10)
            per_study_sum = sum(c.q_het for c in q.per_study)
            per_design_sum = sum(c.q_het for c in q.per_design)
            assert abs(per_study_sum - q.q_het) <= 1e-10 * (1.0 + q.q_het)
            assert abs(per_design_sum - q.q_het) <= 1e-10 * (1.0 + q.q_het)
            assert q.q_het >= 0.0 and q.q_inc >= 0.0
            assert q.df_het + q.df_inc == ds.n_studies - (ds.n_treatments - 1)

    def test_star_network_has_zero_inconsistency(self):
        rng = np.random.default_rng(19)
        rows = [("P", f"T{j}", float(rng.normal()), float(rng.uniform(0.2, 1.0)))
                for j in range(1, 4) for _ in range(3)]
        ds = make_dataset(rows, reference="P")
        _, _, q = decompose(ds)
        assert q.q_inc == 0.0
        assert q.df_inc == 0
        assert q.p_inc is None


class TestInvariances:
    def test_study_order_permutation(self, smoke):
        rng = np.random.default_rng(23)
        order = rng.permutation(smoke.n_studies)
        permuted = NetworkDataset(
            smoke.name, smoke.measure,
            tuple(smoke.studies[i] for i in order), smoke.reference,
        )
        _, _, q0 = decompose(smoke)
        _, _, q1 = decompose(permuted)
        assert q1.q_het == pytest.approx(q0.q_het, rel=1e-12)
        assert q1.q_inc == pytest.approx(q0.q_inc, rel=1e-10)
        by_id0 = {smoke.studies[c.index].study_id: c.q_het for c in q0.per_study}
        by_id1 = {permuted.studies[c.index].study_id: c.q_het for c in q1.per_study}
        for sid, value in by_id0.items():
            assert by_id1[sid] == pytest.approx(value, rel=1e-12, abs=1e-14)

    def test_orientation_flips(self, smoke):
        rng = np.random.default_rng(29)
        flipped = NetworkDataset(
            smoke.name, smoke.measure,
            tuple(o.flipped() if rng.random() < 0.5 else o for o in smoke.studies),
            smoke.reference,
        )
        _, _, q0 = decompose(smoke)
        _, _, q1 = decompose(flipped)
        assert q1.q_het == pytest.approx(q0.q_het, rel=1e-10)
        assert q1.q_inc == pytest.approx(q0.q_inc, rel=1e-8, abs=1e-10)
        for c0, c1 in zip(q0.per_study, q1.per_study):
            assert c1.q_het == pytest.approx(c0.q_het, rel=1e-10, abs=1e-14)

    def test_reference_and_scale_invariance(self, smoke):
        _, _, q0 = decompose(smoke)
        reref = NetworkDataset(smoke.name, smoke.measure, smoke.studies, "Education+HSI")
        _, _, q1 = decompose(reref)
        assert q1.q_het == pytest.approx(q0.q_het, rel=1e-10)
        assert q1.q_inc == pytest.approx(q0.q_inc, rel=1e-8, abs=1e-10)
        c = 0.25
        scaled = NetworkDataset(
            smoke.name, smoke.measure,
            tuple(
                o.__class__(o.study_id, o.treat_a, o.treat_b, c * o.effect, c * o.se)
                for o in smoke.studies
            ),
            smoke.reference,
        )
        _, _, q2 = decompose(scaled)
        assert q2.q_het == pytest.approx(q0.q_het, rel=1e-10)
        assert q2.q_total == pytest.approx(q0.q_total, rel=1e-10)


class TestBruteForceOracle:
    def test_enumerated_small_networks(self):
        """q_het equals per-design Cochran Q computed by the textbook identity."""
        checked = 0
        for rows, ds in enumerate_small_connected_networks(max_m=6):
            _, _, q = decompose(ds)
            expected = classical_cochran_q(rows)
            assert abs(q.q_het - expected) <= 1e-10 * (1.0 + abs(expected))
            checked += 1
        assert checked > 400


class TestScreen:
    def test_nsaid_is_heterogeneous(self, nsaid):
        assert q_decompose(nsaid, fit_fe(nsaid)).screen(0.05) is ScreenResult.HETEROGENEOUS

    def test_one_study_per_design_untestable(self):
        ds = make_dataset([("P", "A", 0.5, 0.2), ("P", "B", 0.1, 0.2), ("A", "B", 0.0, 0.3)])
        assert q_decompose(ds, fit_fe(ds)).screen(0.05) is ScreenResult.UNTESTABLE

    def test_duplicates_homogeneous(self):
        ds = single_pair([1.0, 1.0], [1.0, 1.0])
        assert q_decompose(ds, fit_fe(ds)).screen(0.05) is ScreenResult.HOMOGENEOUS

    def test_bad_alpha(self, nsaid):
        with pytest.raises(ValueError):
            q_decompose(nsaid, fit_fe(nsaid)).screen(1.5)
