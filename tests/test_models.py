"""FE/RE/ME fits, variance-component estimators, likelihoods and AIC."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from nmacompare import (
    EstimationError,
    ModelKind,
    NetworkDataset,
    NumericError,
    estimate_tau2_dl,
    estimate_tau2_reml,
    fit_fe,
    fit_me,
    fit_re,
    parse_dataset,
    q_total,
    reml_objective,
)
from nmacompare import models

from conftest import (
    OVERFLOW_FE,
    OVERFLOW_REML_BOUND,
    REML_TOP_EDGE,
    dense_design,
    flipped,
    gaussian_log_lik,
    large_random_network,
    make_dataset,
    newton_terms,
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
        fe = fit_fe(ds)
        assert fe.d_hat[0] == pytest.approx(0.5, abs=1e-14)
        assert fe.cov[0, 0] == pytest.approx(0.04, abs=1e-14)

    def test_equal_weight_mean(self, two_study):
        fe = fit_fe(two_study)
        assert fe.d_hat[0] == pytest.approx(1.0, abs=1e-14)
        assert fe.cov[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_star_network_decouples_by_design(self, nsaid):
        """On a star, each FE coordinate is that design's inverse-variance mean."""
        x = nsaid.design
        fe = fit_fe(nsaid)
        for j, treat in enumerate(x.column_treatments):
            num = den = 0.0
            for obs in nsaid.studies:
                if obs.treat_b == treat:
                    num += obs.effect / obs.se**2
                    den += 1.0 / obs.se**2
            assert fe.d_hat[j] == pytest.approx(num / den, rel=1e-12)

    def test_fitted_and_residuals(self, two_study):
        fe = fit_fe(two_study)
        assert np.allclose(fe.fitted, [1.0, 1.0])
        assert np.allclose(fe.residuals, [-1.0, 1.0])

    def test_aic_uses_k_equal_effect_count(self, two_study):
        fe = fit_fe(two_study)
        assert fe.aic == pytest.approx(2 * 1 - 2 * fe.log_lik, abs=1e-12)
        assert fe.n_params == 1


class TestLogLikelihood:
    def test_standard_normal_at_mode(self):
        """One study with se 1: the FE fit sits on it, at the mode of its density."""
        fe = fit_fe(single_pair([0.3], [1.0]))
        assert fe.log_lik == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_unit_residual(self, two_study):
        """Two studies with se 1, one on each side of the FE mean at distance 1."""
        fe = fit_fe(two_study)
        assert fe.log_lik == pytest.approx(-(math.log(2 * math.pi) + 1.0), abs=1e-12)

    @pytest.mark.parametrize("network", ["nsaid", "smoke", "biologics", "random"])
    def test_fits_match_the_oracle(self, network, request):
        """FE, RE and ME log L are Gaussian densities at the fitted means, with variances
        s_i^2, s_i^2 + tau^2 and phi s_i^2."""
        if network == "random":
            ds = random_network(np.random.default_rng(5), max_treatments=6, max_studies=30)
        else:
            ds = request.getfixturevalue(network)
        y, v = ds.effects(), ds.variances()
        fe = fit_fe(ds)
        tau2 = estimate_tau2_reml(ds)
        re, me = fit_re(ds, tau2), fit_me(ds, fe)
        for fit, variances in ((fe, v), (re, v + tau2), (me, me.phi * v)):
            assert fit.log_lik == pytest.approx(
                gaussian_log_lik(y, fit.fitted, variances), rel=1e-12, abs=1e-12
            )

    def test_fe_fit_overflow_named(self):
        with pytest.raises(NumericError, match="log-likelihood overflows"):
            fit_fe(parse_dataset(OVERFLOW_FE, "json"))

    def test_delta_aic_matches_direct_expression(self):
        """AIC_ME - AIC_RE from likelihoods equals the explicit log-det form."""
        rng = np.random.default_rng(21)
        for _ in range(10):
            ds = random_network(rng, max_treatments=5, max_studies=20)
            fe = fit_fe(ds)
            tau2 = estimate_tau2_dl(ds, fe)
            re = fit_re(ds, tau2)
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
        assert estimate_tau2_dl(duplicates, fit_fe(duplicates)) == 0.0

    def test_two_study_hand_value(self, two_study):
        # Q = 2, df = 1, denominator = tr(W) - tr(hat) = 2 - 1 = 1
        assert estimate_tau2_dl(two_study, fit_fe(two_study)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_biologics_positive(self, biologics):
        fe = fit_fe(biologics)
        assert q_total(biologics, fe) == pytest.approx(190.15, abs=2.0)
        assert estimate_tau2_dl(biologics, fe) > 0.0

    def test_requires_residual_df(self):
        ds = make_dataset([("P", "A", 0.5, 0.2)])
        with pytest.raises(EstimationError, match="no residual degrees of freedom"):
            estimate_tau2_dl(ds, fit_fe(ds))

    def test_reduces_to_classical_dl_single_pair(self):
        """For one pairwise comparison the denominator is the classical C."""
        rng = np.random.default_rng(8)
        for _ in range(10):
            k = int(rng.integers(3, 9))
            ys = rng.normal(0.0, 1.5, size=k)
            ses = rng.uniform(0.3, 1.2, size=k)
            ds = single_pair(ys.tolist(), ses.tolist())
            w = 1.0 / ses**2
            pooled = float(np.sum(w * ys) / np.sum(w))
            q = float(np.sum(w * (ys - pooled) ** 2))
            c = float(np.sum(w) - np.sum(w**2) / np.sum(w))
            expected = max(0.0, (q - (k - 1)) / c)
            assert estimate_tau2_dl(ds, fit_fe(ds)) == pytest.approx(expected, rel=1e-10)

    def test_matches_explicit_trace_formula(self):
        """Oracle: evaluate the moment formula with explicit matrix products."""
        rng = np.random.default_rng(9)
        for _ in range(10):
            ds = random_network(rng, max_treatments=6, max_studies=25)
            x = ds.design
            mat = dense_design(x)
            w = np.diag(ds.weights())
            y = ds.effects()
            gram_inv = np.linalg.inv(mat.T @ w @ mat)
            hat = mat @ gram_inv @ mat.T @ w
            resid = y - hat @ y
            q = float(resid @ w @ resid)
            denom = float(np.trace(w) - np.trace(w @ mat @ gram_inv @ mat.T @ w))
            expected = max(0.0, (q - (ds.n_studies - x.cols)) / denom)
            assert estimate_tau2_dl(ds, fit_fe(ds)) == pytest.approx(
                expected, rel=1e-9, abs=1e-12
            )


class TestRemlObjective:
    def test_at_zero_quadratic_equals_q_total(self, two_study):
        x = two_study.design
        fe = fit_fe(two_study)
        q = q_total(two_study, fe)
        v = two_study.variances()
        # remove the two log-det terms to isolate the quadratic form
        gram = dense_design(x).T @ (dense_design(x) / v[:, None])
        base = reml_objective(0.0, two_study)
        quad = -2.0 * base - float(np.sum(np.log(v))) - math.log(float(gram[0, 0]))
        assert quad == pytest.approx(q, abs=1e-12)

    def test_two_study_grid_argmax(self, two_study):
        best = reml_grid_argmax(two_study, hi=100.0)
        assert best == pytest.approx(1.0, abs=1e-4)

    def test_duplicates_maximized_at_zero(self, duplicates):
        grid = np.linspace(0.0, 5.0, 2001)
        values = reml_restricted_loglik_grid(duplicates, grid)
        assert int(np.argmax(values)) == 0

    def test_matches_oracle_pointwise(self, smoke):
        grid = np.array([0.0, 0.05, 0.2, 0.7, 2.0])
        oracle = reml_restricted_loglik_grid(smoke, grid)
        for t, expected in zip(grid, oracle):
            assert reml_objective(float(t), smoke) == pytest.approx(expected, abs=1e-9)

    def test_negative_tau2_rejected(self, two_study):
        with pytest.raises(EstimationError):
            reml_objective(-0.1, two_study)


class TestRemlNewtonTerms:
    def test_score_and_information_match_finite_differences(self, smoke):
        rng = np.random.default_rng(17)
        cases = [smoke] + [random_network(rng, max_treatments=6, max_studies=25) for _ in range(5)]
        cases.append(large_random_network())
        for ds in cases:
            for tau2 in (0.01, 0.1, 0.5):
                value, score, info = newton_terms(ds, tau2)
                h = 1e-4 * tau2
                lo, mid, hi = (reml_objective(t, ds) for t in (tau2 - h, tau2, tau2 + h))
                assert value == pytest.approx(mid, abs=1e-9)
                assert score == pytest.approx((hi - lo) / (2 * h), rel=1e-5, abs=1e-6)
                assert -info == pytest.approx((hi - 2 * mid + lo) / h**2, rel=1e-3, abs=1e-2)


class TestTau2Reml:
    def test_duplicates_zero(self, duplicates):
        assert estimate_tau2_reml(duplicates) == 0.0

    def test_solves_at_most_p_plus_one_columns(self, smoke, monkeypatch):
        """The Newton terms come from C = (X'WX)^-1, not from a solve against X'. Counts the
        right-hand-side columns of every ``np.linalg.solve`` and ``np.linalg.inv`` call."""
        widths = []
        solve, inv = np.linalg.solve, np.linalg.inv

        def solve_spy(a, b):
            widths.append(1 if np.ndim(b) == 1 else np.shape(b)[-1])
            return solve(a, b)

        def inv_spy(a):
            widths.append(np.shape(a)[-1])
            return inv(a)

        monkeypatch.setattr(np.linalg, "solve", solve_spy)
        monkeypatch.setattr(np.linalg, "inv", inv_spy)
        for ds in (smoke, large_random_network()):
            widths.clear()
            estimate_tau2_reml(ds)
            assert widths and max(widths) <= ds.design.cols + 1

    def test_search_bound_overflow_named(self):
        ds = parse_dataset(OVERFLOW_REML_BOUND, "json")
        with pytest.raises(NumericError, match="REML search bound .* overflows"):
            estimate_tau2_reml(ds)

    def test_maximizer_beyond_search_bound_named(self):
        ds = parse_dataset(REML_TOP_EDGE, "json")
        assert estimate_tau2_dl(ds, fit_fe(ds)) == pytest.approx(33.3332, abs=1e-4)
        with pytest.raises(EstimationError) as info:
            estimate_tau2_reml(ds)
        assert str(info.value) == (
            "REML maximizer lies beyond the search bound 10 var(y) + 10 max(s_i^2) = 0.001"
        )

    def test_boundary_maximum_beats_interior_local_maximum(self):
        """l_R has a local maximum near 1.107 that is lower than l_R(0)."""
        pairs = [
            (-5.032654102021164, 2.3948129723580247),
            (-7.427502619065785, 2.9464769684776857),
            (0.3295808500055253, 1.1011931906757797),
            (-1.9863998410790096, 0.17041179850240423),
            (-3.6019269281430457, 2.4010343887683026),
            (-2.3850601573748067, 0.6877900818214421),
        ]
        ds = make_dataset([("T0", "T1", y, s) for y, s in pairs])
        hi = 10.0 * float(np.var(ds.effects(), ddof=1)) + 10.0 * float(np.max(ds.variances()))
        oracle = reml_grid_argmax(ds, hi)
        assert oracle == 0.0
        assert estimate_tau2_reml(ds) == oracle

    @pytest.mark.parametrize("se", [1e-150, 1e-100, 1e-20, 1e-8])
    def test_extreme_standard_error(self, se):
        def tau2(study_se):
            ds = make_dataset([
                ("A", "B", 0.1, 0.2), ("A", "B", 0.5, study_se), ("B", "C", 0.3, 0.3),
                ("A", "C", 0.9, 0.4), ("A", "C", 0.2, 0.25), ("A", "B", -0.4, 0.3),
            ])
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                return estimate_tau2_reml(ds)

        assert tau2(se) == pytest.approx(tau2(1e-20), rel=1e-6)

    def test_two_study_matches_grid(self, two_study):
        est = estimate_tau2_reml(two_study)
        assert est == pytest.approx(reml_grid_argmax(two_study, hi=100.0), abs=1e-4)

    def test_smoke_matches_grid(self, smoke):
        hi = 10.0 * float(np.var(smoke.effects(), ddof=1)) + 10.0 * float(
            np.max(smoke.variances())
        )
        est = estimate_tau2_reml(smoke)
        assert est == pytest.approx(reml_grid_argmax(smoke, hi=hi), abs=1e-4)

    def test_stationarity(self, smoke):
        est = estimate_tau2_reml(smoke)
        h = 1e-5 * (1.0 + est)
        assert est > h  # interior optimum for this dataset
        grad = (reml_objective(est + h, smoke) - reml_objective(est - h, smoke)) / (2 * h)
        assert abs(grad) <= 1e-4


class TestPhiAndMe:
    def test_phi_clamped(self, duplicates):
        assert fit_me(duplicates, fit_fe(duplicates)).phi == 1.0

    def test_phi_nsaid(self, nsaid):
        fe = fit_fe(nsaid)
        q = q_total(nsaid, fe)
        phi = fit_me(nsaid, fe).phi
        assert phi == pytest.approx(q / 23.0, rel=1e-12)
        assert phi == pytest.approx(82.25 / 23.0, abs=0.05)

    def test_phi_biologics(self, biologics):
        assert fit_me(biologics, fit_fe(biologics)).phi == pytest.approx(
            190.15 / 24.0, abs=0.1
        )

    def test_needs_fe_fit(self, two_study):
        re = fit_re(two_study, 0.5)
        with pytest.raises(EstimationError, match="expected a fixed-effect fit"):
            fit_me(two_study, re)
        with pytest.raises(EstimationError, match="expected a fixed-effect fit"):
            estimate_tau2_dl(two_study, re)

    def test_me_hand_example(self, two_study):
        me = fit_me(two_study, fit_fe(two_study))
        assert me.d_hat[0] == pytest.approx(1.0, abs=1e-14)
        assert me.phi == pytest.approx(2.0, abs=1e-12)
        assert me.cov[0, 0] == pytest.approx(1.0, abs=1e-12)
        lo, hi = me.ci("A")
        assert lo == pytest.approx(1.0 - 1.959964, abs=1e-5)
        assert hi == pytest.approx(1.0 + 1.959964, abs=1e-5)

    def test_me_point_estimates_bitwise_fe(self, nsaid):
        fe = fit_fe(nsaid)
        me = fit_me(nsaid, fe)
        assert np.all(me.d_hat == fe.d_hat)
        assert np.all(me.fitted == fe.fitted)

    def test_me_cov_scaling_exact(self, smoke):
        fe = fit_fe(smoke)
        me = fit_me(smoke, fe)
        assert np.array_equal(me.cov, me.phi * fe.cov)

    def test_ci_halfwidth_ratio_sqrt_phi(self, nsaid):
        x = nsaid.design
        fe = fit_fe(nsaid)
        me = fit_me(nsaid, fe)
        for treat in x.column_treatments:
            lo_f, hi_f = fe.ci(treat)
            lo_m, hi_m = me.ci(treat)
            assert (hi_m - lo_m) / (hi_f - lo_f) == pytest.approx(
                math.sqrt(me.phi), rel=1e-10
            )


class TestFitRe:
    def test_tau2_zero_equals_fe_except_aic_offset(self, nsaid):
        fe = fit_fe(nsaid)
        re = fit_re(nsaid, 0.0)
        assert np.array_equal(re.d_hat, fe.d_hat)
        assert re.log_lik == fe.log_lik
        assert re.aic == fe.aic + 2.0

    def test_two_study_tau2_one(self, two_study):
        re = fit_re(two_study, 1.0)
        assert re.d_hat[0] == pytest.approx(1.0, abs=1e-14)
        assert re.cov[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_large_tau2_approaches_unweighted_means(self, nsaid):
        x = nsaid.design
        re = fit_re(nsaid, 1e6)
        for j, treat in enumerate(x.column_treatments):
            values = [obs.effect for obs in nsaid.studies if obs.treat_b == treat]
            assert re.d_hat[j] == pytest.approx(float(np.mean(values)), abs=1e-4)

    def test_rejects_wrong_kind(self, two_study):
        with pytest.raises(EstimationError):
            fit_re(two_study, 0.5, kind=ModelKind.ME)

    def test_rejects_negative_tau2(self, two_study):
        with pytest.raises(EstimationError):
            fit_re(two_study, -0.5)

    @pytest.mark.parametrize("tau2,message", [
        (math.nan, "between-study variance must be a finite number, got nan"),
        (math.inf, "between-study variance must be a finite number, got inf"),
        (-math.inf, "negative between-study variance"),
    ], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_tau2_before_any_solve(self, nsaid, monkeypatch, tau2, message):
        """nan once overflowed X'WX; inf once gave every weight 0, after two RuntimeWarnings."""

        def no_solve(*args):
            raise AssertionError("solved at a non-finite tau^2")

        monkeypatch.setattr(models, "_gls_rows", no_solve)
        for call in (lambda: fit_re(nsaid, tau2), lambda: reml_objective(tau2, nsaid)):
            with pytest.raises(EstimationError) as info:
                call()
            assert str(info.value) == message

    def test_rejects_bad_ci_level(self, two_study):
        with pytest.raises(EstimationError, match="ci_level"):
            fit_fe(two_study, ci_level=1.5)
        with pytest.raises(EstimationError, match="ci_level"):
            fit_re(two_study, 0.5, ci_level=0.0)


class TestDegenerateEquivalence:
    def test_low_dispersion_collapses(self):
        """Q_total <= residual df forces phi = 1, tau2 = 0 and equal AIC."""
        rng = np.random.default_rng(13)
        seen = 0
        for _ in range(40):
            ds = random_network(rng, max_treatments=5, max_studies=15)
            # shrink residual dispersion so lack of fit is tiny
            fe = fit_fe(ds)
            shrunk = tuple(
                obs.__class__(obs.study_id, obs.treat_a, obs.treat_b,
                              float(f + 0.01 * r), obs.se)
                for obs, f, r in zip(ds.studies, fe.fitted, fe.residuals)
            )
            ds2 = NetworkDataset(ds.name, ds.measure, shrunk, ds.reference)
            x2 = ds2.design
            fe2 = fit_fe(ds2)
            if q_total(ds2, fe2) > ds2.n_studies - x2.cols:
                continue
            seen += 1
            assert fit_me(ds2, fe2).phi == 1.0
            assert estimate_tau2_dl(ds2, fe2) == 0.0
            me = fit_me(ds2, fe2)
            re = fit_re(ds2, 0.0)
            assert me.aic == re.aic
        assert seen >= 20

    def test_equal_variance_pair_re_equals_me(self, two_study):
        fe = fit_fe(two_study)
        tau2 = estimate_tau2_dl(two_study, fe)
        re = fit_re(two_study, tau2)
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
        fe, fes = fit_fe(smoke), fit_fe(scaled)
        assert np.allclose(fes.d_hat, c * fe.d_hat, rtol=1e-10)
        assert fit_me(scaled, fes).phi == pytest.approx(fit_me(smoke, fe).phi, rel=1e-10)
        assert estimate_tau2_dl(scaled, fes) == pytest.approx(
            c**2 * estimate_tau2_dl(smoke, fe), rel=1e-8
        )
        assert estimate_tau2_reml(scaled) == pytest.approx(
            c**2 * estimate_tau2_reml(smoke), rel=1e-4
        )

    def test_orientation_flip_preserves_fit(self, smoke):
        """Swapping arms and negating effects is a pure relabeling."""
        turned = NetworkDataset(
            smoke.name, smoke.measure,
            tuple(flipped(obs) for obs in smoke.studies), smoke.reference,
        )
        x = smoke.design
        xf = turned.design
        assert xf.column_treatments == x.column_treatments
        fe, fef = fit_fe(smoke), fit_fe(turned)
        assert np.allclose(fef.d_hat, fe.d_hat, atol=1e-12)
        assert fef.aic == pytest.approx(fe.aic, abs=1e-10)
        assert q_total(turned, fef) == pytest.approx(q_total(smoke, fe), rel=1e-12)

    def test_reference_change_preserves_contrasts(self, smoke):
        """Pairwise contrasts and fitted values do not depend on the reference."""
        base = fit_fe(smoke)
        other = NetworkDataset(smoke.name, smoke.measure, smoke.studies, "Education")
        other_fit = fit_fe(other)
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
