"""FE/RE/ME fits, variance-component estimators, likelihoods and AIC."""

from __future__ import annotations

import math

import numpy as np
import pytest

from nmacompare import (
    EstimationError,
    ModelKind,
    NetworkDataset,
    build_design_matrix,
    estimate_tau2_dl,
    estimate_tau2_reml,
    fit_fe,
    fit_me,
    fit_re,
    log_likelihood,
    q_total,
    reml_objective,
)

from conftest import (
    make_dataset,
    random_network,
    reml_grid_argmax,
    reml_restricted_loglik_grid,
    single_pair,
)


@pytest.fixture()
def two_study():
    """Single pair, y = (0, 2), s = (1, 1): Q = 2, tau2_DL = 1, phi = 2."""
    return single_pair([0.0, 2.0], [1.0, 1.0])


@pytest.fixture()
def duplicates():
    """Zero-dispersion data: every heterogeneity estimate collapses."""
    return single_pair([1.0, 1.0], [1.0, 1.0])


class TestFitFe:
    def test_single_study(self):
        ds = make_dataset([("P", "A", 0.5, 0.2)], reference="P")
        fe = fit_fe(ds, build_design_matrix(ds))
        assert fe.d_hat[0] == pytest.approx(0.5, abs=1e-14)
        assert fe.cov[0, 0] == pytest.approx(0.04, abs=1e-14)

    def test_equal_weight_mean(self, two_study):
        fe = fit_fe(two_study, build_design_matrix(two_study))
        assert fe.d_hat[0] == pytest.approx(1.0, abs=1e-14)
        assert fe.cov[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_star_network_decouples_by_design(self, nsaid):
        """On a star, each FE coordinate is that design's inverse-variance mean."""
        x = build_design_matrix(nsaid)
        fe = fit_fe(nsaid, x)
        for j, treat in enumerate(x.column_treatments):
            num = den = 0.0
            for obs in nsaid.studies:
                if obs.treat_b == treat:
                    num += obs.effect / obs.se**2
                    den += 1.0 / obs.se**2
            assert fe.d_hat[j] == pytest.approx(num / den, rel=1e-12)

    def test_fitted_and_residuals(self, two_study):
        fe = fit_fe(two_study, build_design_matrix(two_study))
        assert np.allclose(fe.fitted, [1.0, 1.0])
        assert np.allclose(fe.residuals, [-1.0, 1.0])

    def test_aic_uses_k_equal_effect_count(self, two_study):
        fe = fit_fe(two_study, build_design_matrix(two_study))
        assert fe.aic == pytest.approx(2 * 1 - 2 * fe.log_lik, abs=1e-12)
        assert fe.n_params == 1


class TestLogLikelihood:
    def test_standard_normal_at_mode(self):
        assert log_likelihood([0.0], [0.0], [1.0]) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12
        )

    def test_unit_residual(self):
        assert log_likelihood([1.0], [0.0], [1.0]) == pytest.approx(
            -0.5 * (math.log(2 * math.pi) + 1.0), abs=1e-12
        )

    def test_non_positive_variance(self):
        with pytest.raises(EstimationError):
            log_likelihood([0.0], [0.0], [0.0])

    def test_delta_aic_matches_direct_expression(self):
        """AIC_ME - AIC_RE from likelihoods equals the explicit log-det form."""
        rng = np.random.default_rng(21)
        for _ in range(10):
            ds = random_network(rng, max_treatments=5, max_studies=20)
            x = build_design_matrix(ds)
            fe = fit_fe(ds, x)
            tau2 = estimate_tau2_dl(ds, x, fe)
            re = fit_re(ds, x, tau2)
            me = fit_me(ds, fe)
            v = ds.variances()
            sig = v + tau2
            phi = me.phi
            direct = (
                float(np.sum(np.log(phi * v)))
                + float(np.sum(me.residuals**2 / (phi * v)))
                - float(np.sum(np.log(sig)))
                - float(np.sum(re.residuals**2 / sig))
            )
            assert me.aic - re.aic == pytest.approx(direct, abs=1e-8)


class TestTau2Dl:
    def test_clamped_at_zero(self, duplicates):
        x = build_design_matrix(duplicates)
        assert estimate_tau2_dl(duplicates, x, fit_fe(duplicates, x)) == 0.0

    def test_two_study_hand_value(self, two_study):
        # Q = 2, df = 1, denominator = tr(W) - tr(hat) = 2 - 1 = 1
        x = build_design_matrix(two_study)
        assert estimate_tau2_dl(two_study, x, fit_fe(two_study, x)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_biologics_positive(self, biologics):
        x = build_design_matrix(biologics)
        fe = fit_fe(biologics, x)
        assert q_total(biologics, fe) == pytest.approx(190.15, abs=2.0)
        assert estimate_tau2_dl(biologics, x, fe) > 0.0

    def test_requires_residual_df(self):
        ds = make_dataset([("P", "A", 0.5, 0.2)])
        x = build_design_matrix(ds)
        with pytest.raises(EstimationError, match="no residual degrees of freedom"):
            estimate_tau2_dl(ds, x, fit_fe(ds, x))

    def test_reduces_to_classical_dl_single_pair(self):
        """For one pairwise comparison the denominator is the classical C."""
        rng = np.random.default_rng(8)
        for _ in range(10):
            k = int(rng.integers(3, 9))
            ys = rng.normal(0.0, 1.5, size=k)
            ses = rng.uniform(0.3, 1.2, size=k)
            ds = single_pair(ys.tolist(), ses.tolist())
            x = build_design_matrix(ds)
            w = 1.0 / ses**2
            pooled = float(np.sum(w * ys) / np.sum(w))
            q = float(np.sum(w * (ys - pooled) ** 2))
            c = float(np.sum(w) - np.sum(w**2) / np.sum(w))
            expected = max(0.0, (q - (k - 1)) / c)
            assert estimate_tau2_dl(ds, x, fit_fe(ds, x)) == pytest.approx(expected, rel=1e-10)

    def test_matches_explicit_trace_formula(self):
        """Oracle: evaluate the moment formula with explicit matrix products."""
        rng = np.random.default_rng(9)
        for _ in range(10):
            ds = random_network(rng, max_treatments=6, max_studies=25)
            x = build_design_matrix(ds)
            mat = x.matrix
            w = np.diag(ds.weights())
            y = ds.effects()
            gram_inv = np.linalg.inv(mat.T @ w @ mat)
            hat = mat @ gram_inv @ mat.T @ w
            resid = y - hat @ y
            q = float(resid @ w @ resid)
            denom = float(np.trace(w) - np.trace(w @ mat @ gram_inv @ mat.T @ w))
            expected = max(0.0, (q - (ds.n_studies - x.cols)) / denom)
            assert estimate_tau2_dl(ds, x, fit_fe(ds, x)) == pytest.approx(
                expected, rel=1e-9, abs=1e-12
            )


class TestRemlObjective:
    def test_at_zero_quadratic_equals_q_total(self, two_study):
        x = build_design_matrix(two_study)
        fe = fit_fe(two_study, x)
        q = q_total(two_study, fe)
        v = two_study.variances()
        # remove the two log-det terms to isolate the quadratic form
        gram = x.matrix.T @ (x.matrix / v[:, None])
        base = reml_objective(0.0, two_study, x)
        quad = -2.0 * base - float(np.sum(np.log(v))) - math.log(float(gram[0, 0]))
        assert quad == pytest.approx(q, abs=1e-12)

    def test_two_study_grid_argmax(self, two_study):
        x = build_design_matrix(two_study)
        best = reml_grid_argmax(two_study, x, hi=100.0)
        assert best == pytest.approx(1.0, abs=1e-4)

    def test_duplicates_maximized_at_zero(self, duplicates):
        x = build_design_matrix(duplicates)
        grid = np.linspace(0.0, 5.0, 2001)
        values = reml_restricted_loglik_grid(duplicates, x, grid)
        assert int(np.argmax(values)) == 0

    def test_matches_oracle_pointwise(self, smoke):
        x = build_design_matrix(smoke)
        grid = np.array([0.0, 0.05, 0.2, 0.7, 2.0])
        oracle = reml_restricted_loglik_grid(smoke, x, grid)
        for t, expected in zip(grid, oracle):
            assert reml_objective(float(t), smoke, x) == pytest.approx(expected, abs=1e-9)

    def test_negative_tau2_rejected(self, two_study):
        with pytest.raises(EstimationError):
            reml_objective(-0.1, two_study, build_design_matrix(two_study))


class TestTau2Reml:
    def test_duplicates_zero(self, duplicates):
        assert estimate_tau2_reml(duplicates, build_design_matrix(duplicates)) <= 1e-6

    def test_two_study_matches_grid(self, two_study):
        x = build_design_matrix(two_study)
        est = estimate_tau2_reml(two_study, x)
        assert est == pytest.approx(reml_grid_argmax(two_study, x, hi=100.0), abs=1e-4)

    def test_smoke_matches_grid(self, smoke):
        x = build_design_matrix(smoke)
        hi = 10.0 * float(np.var(smoke.effects(), ddof=1)) + 10.0 * float(
            np.max(smoke.variances())
        )
        est = estimate_tau2_reml(smoke, x)
        assert est == pytest.approx(reml_grid_argmax(smoke, x, hi=hi), abs=1e-4)

    def test_stationarity(self, smoke):
        x = build_design_matrix(smoke)
        est = estimate_tau2_reml(smoke, x)
        h = 1e-5 * (1.0 + est)
        assert est > h  # interior optimum for this dataset
        grad = (reml_objective(est + h, smoke, x) - reml_objective(est - h, smoke, x)) / (2 * h)
        assert abs(grad) <= 1e-4


class TestPhiAndMe:
    def test_phi_clamped(self, duplicates):
        x = build_design_matrix(duplicates)
        assert fit_me(duplicates, fit_fe(duplicates, x)).phi == 1.0

    def test_phi_nsaid(self, nsaid):
        x = build_design_matrix(nsaid)
        fe = fit_fe(nsaid, x)
        q = q_total(nsaid, fe)
        phi = fit_me(nsaid, fe).phi
        assert phi == pytest.approx(q / 23.0, rel=1e-12)
        assert phi == pytest.approx(82.25 / 23.0, abs=0.05)

    def test_phi_biologics(self, biologics):
        x = build_design_matrix(biologics)
        assert fit_me(biologics, fit_fe(biologics, x)).phi == pytest.approx(
            190.15 / 24.0, abs=0.1
        )

    def test_needs_fe_fit(self, two_study):
        x = build_design_matrix(two_study)
        re = fit_re(two_study, x, 0.5)
        with pytest.raises(EstimationError, match="expected a fixed-effect fit"):
            fit_me(two_study, re)
        with pytest.raises(EstimationError, match="expected a fixed-effect fit"):
            estimate_tau2_dl(two_study, x, re)

    def test_me_hand_example(self, two_study):
        me = fit_me(two_study, fit_fe(two_study, build_design_matrix(two_study)))
        assert me.d_hat[0] == pytest.approx(1.0, abs=1e-14)
        assert me.phi == pytest.approx(2.0, abs=1e-12)
        assert me.cov[0, 0] == pytest.approx(1.0, abs=1e-12)
        lo, hi = me.ci("A")
        assert lo == pytest.approx(1.0 - 1.959964, abs=1e-5)
        assert hi == pytest.approx(1.0 + 1.959964, abs=1e-5)

    def test_me_point_estimates_bitwise_fe(self, nsaid):
        x = build_design_matrix(nsaid)
        fe = fit_fe(nsaid, x)
        me = fit_me(nsaid, fe)
        assert np.all(me.d_hat == fe.d_hat)
        assert np.all(me.fitted == fe.fitted)

    def test_me_cov_scaling_exact(self, smoke):
        x = build_design_matrix(smoke)
        fe = fit_fe(smoke, x)
        me = fit_me(smoke, fe)
        assert np.array_equal(me.cov, me.phi * fe.cov)

    def test_ci_halfwidth_ratio_sqrt_phi(self, nsaid):
        x = build_design_matrix(nsaid)
        fe = fit_fe(nsaid, x)
        me = fit_me(nsaid, fe)
        for treat in x.column_treatments:
            lo_f, hi_f = fe.ci(treat)
            lo_m, hi_m = me.ci(treat)
            assert (hi_m - lo_m) / (hi_f - lo_f) == pytest.approx(
                math.sqrt(me.phi), rel=1e-10
            )


class TestFitRe:
    def test_tau2_zero_equals_fe_except_aic_offset(self, nsaid):
        x = build_design_matrix(nsaid)
        fe = fit_fe(nsaid, x)
        re = fit_re(nsaid, x, 0.0)
        assert np.array_equal(re.d_hat, fe.d_hat)
        assert re.log_lik == fe.log_lik
        assert re.aic == fe.aic + 2.0

    def test_two_study_tau2_one(self, two_study):
        re = fit_re(two_study, build_design_matrix(two_study), 1.0)
        assert re.d_hat[0] == pytest.approx(1.0, abs=1e-14)
        assert re.cov[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_large_tau2_approaches_unweighted_means(self, nsaid):
        x = build_design_matrix(nsaid)
        re = fit_re(nsaid, x, 1e6)
        for j, treat in enumerate(x.column_treatments):
            values = [obs.effect for obs in nsaid.studies if obs.treat_b == treat]
            assert re.d_hat[j] == pytest.approx(float(np.mean(values)), abs=1e-4)

    def test_rejects_wrong_kind(self, two_study):
        with pytest.raises(EstimationError):
            fit_re(two_study, build_design_matrix(two_study), 0.5, kind=ModelKind.ME)

    def test_rejects_negative_tau2(self, two_study):
        with pytest.raises(EstimationError):
            fit_re(two_study, build_design_matrix(two_study), -0.5)

    def test_rejects_bad_ci_level(self, two_study):
        x = build_design_matrix(two_study)
        with pytest.raises(EstimationError, match="ci_level"):
            fit_fe(two_study, x, ci_level=1.5)
        with pytest.raises(EstimationError, match="ci_level"):
            fit_re(two_study, x, 0.5, ci_level=0.0)


class TestDegenerateEquivalence:
    def test_low_dispersion_collapses(self):
        """Q_total <= residual df forces phi = 1, tau2 = 0 and equal AIC."""
        rng = np.random.default_rng(13)
        seen = 0
        for _ in range(40):
            ds = random_network(rng, max_treatments=5, max_studies=15)
            x = build_design_matrix(ds)
            # shrink residual dispersion so lack of fit is tiny
            fe = fit_fe(ds, x)
            shrunk = tuple(
                obs.__class__(obs.study_id, obs.treat_a, obs.treat_b,
                              float(f + 0.01 * r), obs.se)
                for obs, f, r in zip(ds.studies, fe.fitted, fe.residuals)
            )
            ds2 = NetworkDataset(ds.name, ds.measure, shrunk, ds.reference)
            x2 = build_design_matrix(ds2)
            fe2 = fit_fe(ds2, x2)
            if q_total(ds2, fe2) > ds2.n_studies - x2.cols:
                continue
            seen += 1
            assert fit_me(ds2, fe2).phi == 1.0
            assert estimate_tau2_dl(ds2, x2, fe2) == 0.0
            me = fit_me(ds2, fe2)
            re = fit_re(ds2, x2, 0.0)
            assert me.aic == re.aic
        assert seen >= 20

    def test_equal_variance_pair_re_equals_me(self, two_study):
        x = build_design_matrix(two_study)
        fe = fit_fe(two_study, x)
        tau2 = estimate_tau2_dl(two_study, x, fe)
        re = fit_re(two_study, x, tau2)
        me = fit_me(two_study, fe)
        assert re.d_hat[0] == pytest.approx(me.d_hat[0], abs=1e-14)
        assert re.cov[0, 0] == pytest.approx(me.cov[0, 0], abs=1e-14)
        assert re.aic == pytest.approx(me.aic, abs=1e-12)


class TestScaleAndReferenceInvariance:
    def test_joint_rescale(self, smoke):
        c = 3.7
        scaled = NetworkDataset(
            smoke.name,
            smoke.measure,
            tuple(
                obs.__class__(obs.study_id, obs.treat_a, obs.treat_b, c * obs.effect, c * obs.se)
                for obs in smoke.studies
            ),
            smoke.reference,
        )
        x = build_design_matrix(smoke)
        xs = build_design_matrix(scaled)
        fe, fes = fit_fe(smoke, x), fit_fe(scaled, xs)
        assert np.allclose(fes.d_hat, c * fe.d_hat, rtol=1e-10)
        assert fit_me(scaled, fes).phi == pytest.approx(fit_me(smoke, fe).phi, rel=1e-10)
        assert estimate_tau2_dl(scaled, xs, fes) == pytest.approx(
            c**2 * estimate_tau2_dl(smoke, x, fe), rel=1e-8
        )
        assert estimate_tau2_reml(scaled, xs) == pytest.approx(
            c**2 * estimate_tau2_reml(smoke, x), rel=1e-4
        )

    def test_orientation_flip_preserves_fit(self, smoke):
        """Swapping arms and negating effects is a pure relabeling."""
        flipped = NetworkDataset(
            smoke.name, smoke.measure,
            tuple(obs.flipped() for obs in smoke.studies), smoke.reference,
        )
        x = build_design_matrix(smoke)
        xf = build_design_matrix(flipped)
        assert xf.column_treatments == x.column_treatments
        fe, fef = fit_fe(smoke, x), fit_fe(flipped, xf)
        assert np.allclose(fef.d_hat, fe.d_hat, atol=1e-12)
        assert fef.aic == pytest.approx(fe.aic, abs=1e-10)
        assert q_total(flipped, fef) == pytest.approx(q_total(smoke, fe), rel=1e-12)

    def test_reference_change_preserves_contrasts(self, smoke):
        """Pairwise contrasts and fitted values do not depend on the reference."""
        base_x = build_design_matrix(smoke)
        base = fit_fe(smoke, base_x)
        other = NetworkDataset(smoke.name, smoke.measure, smoke.studies, "Education")
        other_fit = fit_fe(other, build_design_matrix(other))
        for tb in smoke.treatments:
            for ta in smoke.treatments:
                if ta == tb:
                    continue
                eb, sb = base.contrast(tb, ta)
                eo, so = other_fit.contrast(tb, ta)
                assert eo == pytest.approx(eb, abs=1e-10 * max(1.0, abs(eb)))
                assert so == pytest.approx(sb, rel=1e-10)
        assert np.allclose(other_fit.fitted, base.fitted, atol=1e-10)
        assert other_fit.aic == pytest.approx(base.aic, rel=1e-10)
        me_base = fit_me(smoke, base)
        me_other = fit_me(other, other_fit)
        assert me_other.aic == pytest.approx(me_base.aic, rel=1e-10)
        assert me_other.phi == pytest.approx(me_base.phi, rel=1e-10)
