"""Endpoint-index kernels and the GLS routine against dense formulas and exact identities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmacompare import (
    ContrastObservation,
    EffectMeasure,
    NetworkDataset,
    estimate_tau2_dl,
    estimate_tau2_reml,
    fit_fe,
    fit_re,
    reml_objective,
)
from nmacompare import models

from conftest import dense_design, random_network

RTOL = 1e-12


def _close(got, want, scale, rtol=RTOL):
    """|got - want| <= rtol * scale entrywise, with ``scale`` the size of the summed terms."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rtol * np.asarray(scale)), np.max(np.abs(got - want))


@st.composite
def networks(draw):
    """A ``random_network`` draw, sometimes with a wide se range and another reference."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    se_range = draw(st.sampled_from([(0.3, 1.5), (0.01, 10.0)]))
    ds = random_network(rng, max_treatments=draw(st.integers(2, 12)), max_studies=60,
                        se_range=se_range)
    reference = ds.treatments[draw(st.integers(0, ds.n_treatments - 1))]
    return NetworkDataset(ds.name, ds.measure, ds.studies, reference)


@settings(derandomize=True, max_examples=60, database=None, deadline=None)
@given(networks(), st.floats(0.0, 2.0))
def test_index_kernels_match_dense_formulas(ds, tau2):
    x = ds.design
    mat = dense_design(x)
    y = ds.effects()
    w = 1.0 / (ds.variances() + tau2)
    rng = np.random.default_rng(ds.n_studies)

    absx = np.abs(mat)
    _close(models._gram(x, w), mat.T @ (mat * w[:, None]), absx.T @ (absx * w[:, None]))
    _close(models._xt(x, w * y), mat.T @ (w * y), absx.T @ np.abs(w * y))
    d = rng.normal(size=x.cols)
    _close(models._x_times(x, d), mat @ d, absx @ np.abs(d))

    _, lower, _, _ = models._gls(ds, 1.0 / w)
    c = models._cov(lower)
    lev = models._leverages(x, c)
    _close(lev, np.sum((mat @ c) * mat, axis=1), np.sum(absx @ np.abs(c) * absx, axis=1))

    # DL trace term tr(W X C X' W) at the FE weights
    w_fe = ds.weights()
    fe = fit_fe(ds)
    dense_trace = np.trace((mat * w_fe[:, None]) @ fe.cov @ (mat * w_fe[:, None]).T)
    _close(np.sum(w_fe**2 * models._leverages(x, fe.cov)), dense_trace, dense_trace)

    # tr P^2 = sum w^2 - 2 sum w^3 lev + tr((C L2)^2), with L2 the Laplacian at weights w^2
    p_mat = np.diag(w) - (mat * w[:, None]) @ c @ (mat * w[:, None]).T
    k = c @ models._gram(x, w * w)
    terms = (np.sum(w * w), 2.0 * np.sum(w**3 * lev), np.sum(k * k.T))
    _close(terms[0] - terms[1] + terms[2], np.sum(p_mat * p_mat), sum(terms))

    # Score and information of the Newton step against the dense projection P.
    # y'P^3y multiplies by P three times, and each product carries P's own
    # rounding, W minus a nearly equal W X C X'W, so this oracle is looser.
    py = p_mat @ y
    pppy = p_mat @ (p_mat @ py)
    value, score, info = models._reml_newton_terms(tau2, ds)
    tr_p, tr_p2 = np.trace(p_mat), np.sum(p_mat * p_mat)
    _close(score, 0.5 * (py @ py - tr_p), py @ py + tr_p, rtol=1e-9)
    _close(info, y @ pppy - 0.5 * tr_p2, abs(y @ pppy) + tr_p2, rtol=1e-9)
    _close(value, reml_objective(tau2, ds), abs(value) + np.sum(np.abs(np.log(w))))


@settings(derandomize=True, max_examples=30, database=None, deadline=None)
@given(networks())
def test_stacked_scan_equals_pointwise_objective(ds):
    grid = np.concatenate(([0.0], np.geomspace(1e-3, 50.0, 15)))
    values = models._reml_values(grid, ds)
    pointwise = [reml_objective(float(t), ds) for t in grid]
    np.testing.assert_allclose(values, pointwise, rtol=RTOL, atol=0.0)


def test_gram_is_exactly_symmetric():
    ds = random_network(np.random.default_rng(5), max_treatments=12, max_studies=80)
    gram = models._gram(ds.design, ds.weights())
    np.testing.assert_array_equal(gram, gram.T)


@pytest.mark.parametrize("k", [1, 3])
def test_stacked_kernels_equal_row_by_row(k):
    ds = random_network(np.random.default_rng(6), max_treatments=10, max_studies=50)
    w = 1.0 / (ds.variances() + np.linspace(0.0, 1.0, k)[:, None])
    gram, xty = models._gram(ds.design, w), models._xt(ds.design, w * ds.effects())
    for j in range(k):
        np.testing.assert_array_equal(gram[j], models._gram(ds.design, w[j]))
        np.testing.assert_array_equal(xty[j], models._xt(ds.design, w[j] * ds.effects()))


@settings(derandomize=True, max_examples=40, database=None, deadline=None)
@given(networks(), st.floats(0.0, 2.0))
def test_newton_value_is_the_objective(ds, tau2):
    """The scan and the Newton step share one l_R: equal to the last bit."""
    assert models._reml_newton_terms(tau2, ds)[0] == reml_objective(tau2, ds)


@pytest.mark.parametrize("name", ["smoke", "nsaid", "biologics"])
def test_newton_value_is_the_objective_on_the_corpus(request, name):
    ds = request.getfixturevalue(name)
    for tau2 in (0.0, 1e-3, 0.1, 1.0, estimate_tau2_reml(ds)):
        assert models._reml_newton_terms(tau2, ds)[0] == reml_objective(tau2, ds)


def wide_network(n: int = 300, m: int = 5000) -> NetworkDataset:
    """A connected MD network of n treatments and m studies: a random tree plus random pairs."""
    rng = np.random.default_rng([n, m])
    a = np.concatenate((rng.integers(0, np.arange(1, n)), rng.integers(0, n, m - n + 1)))
    b = np.concatenate((np.arange(1, n), (a[n - 1:] + rng.integers(1, n, m - n + 1)) % n))
    effects = rng.normal(0.0, 1.0, n)[b] - rng.normal(0.0, 1.0, n)[a] + rng.normal(0.0, 0.5, m)
    ses = rng.uniform(0.2, 1.0, m)
    return NetworkDataset("wide", EffectMeasure.MD, tuple(
        ContrastObservation(f"s{i}", f"T{a[i]}", f"T{b[i]}", float(effects[i]), float(ses[i]))
        for i in range(m)
    ))


def _check_cov(ds, fit):
    """fit.cov is C = L^-T L^-1 of X'WX's Cholesky factor: exactly symmetric, and C X'WX = I."""
    sigma2 = ds.variances() + (fit.tau2 or 0.0)
    c = models._cov(models._gls(ds, sigma2)[1])
    np.testing.assert_array_equal(fit.cov, c)
    np.testing.assert_array_equal(fit.cov, fit.cov.T)
    gram = models._gram(ds.design, 1.0 / sigma2)
    p = len(gram)
    kappa = np.linalg.norm(c, np.inf) * np.linalg.norm(gram, np.inf)
    assert np.abs(c @ gram - np.eye(p)).max() <= 4 * p * np.finfo(float).eps * kappa


@settings(derandomize=True, max_examples=40, database=None, deadline=None)
@given(networks(), st.floats(0.0, 2.0))
def test_fit_cov_from_the_factor(ds, tau2):
    _check_cov(ds, fit_fe(ds))
    _check_cov(ds, fit_re(ds, tau2))


def test_fit_cov_from_the_factor_at_300_treatments():
    ds = wide_network()
    assert (ds.n_treatments, ds.n_studies) == (300, 5000)
    fe = fit_fe(ds)
    for fit in (fe, fit_re(ds, estimate_tau2_dl(ds, fe))):
        _check_cov(ds, fit)
