"""Fixed-, random-, and multiplicative-effect NMA model fits with AIC.

All three models share the mean structure E(y) = X d over the study-level
contrasts y with within-study variances V = diag(s_i^2):

* fixed effect (FE):        y ~ MVN(X d, V)
* additive random effects:  y ~ MVN(X d, V + tau^2 I)
* multiplicative effects:   y ~ MVN(X d, phi V), phi >= 1

The FE and ME point estimates coincide (the weights are proportional); the
ME model only scales the covariance of the estimates by phi. AIC is
2 k - 2 log L with k = (n - 1) relative effects plus one heterogeneity
parameter for RE and ME.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import DesignMatrix, NetworkDataset
from .heterogeneity import q_total
from .numerics import NumericError, normal_quantile, solve_spd

__all__ = [
    "EstimationError",
    "ModelKind",
    "ModelFit",
    "log_likelihood",
    "fit_fe",
    "fit_re",
    "fit_me",
    "estimate_tau2_dl",
    "estimate_tau2_reml",
    "reml_objective",
]

DEFAULT_CI_LEVEL = 0.95


class EstimationError(RuntimeError):
    """Model fitting is impossible for this dataset (rank, degrees of freedom)."""


class ModelKind(Enum):
    FE = "FE"
    RE_DL = "RE-DL"
    RE_REML = "RE-REML"
    ME = "ME"


@dataclass(frozen=True)
class ModelFit:
    """Fitted model: point estimates versus the reference, covariance, fit metrics.

    ``d_hat[j]`` is the estimated effect of ``column_treatments[j]`` relative
    to the dataset reference. ``tau2`` is set for RE fits, ``phi`` for ME fits.
    ``n_params`` and ``aic`` are derived from the kind, ``d_hat`` and ``log_lik``.
    """

    kind: ModelKind
    d_hat: np.ndarray
    cov: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    log_lik: float
    ci_level: float
    column_treatments: tuple[str, ...]
    reference: str
    tau2: float | None = None
    phi: float | None = None

    def __post_init__(self) -> None:
        for name in ("d_hat", "cov", "fitted", "residuals"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_params(self) -> int:
        """Estimated parameters: n-1 effects, plus one variance parameter unless FE."""
        return len(self.d_hat) + (0 if self.kind is ModelKind.FE else 1)

    @property
    def aic(self) -> float:
        """Akaike information criterion 2 k - 2 log L with k = ``n_params``."""
        return 2.0 * self.n_params - 2.0 * self.log_lik

    def contrast(self, treat_b: str, treat_a: str | None = None) -> tuple[float, float]:
        """Estimate and standard error of ``treat_b`` relative to ``treat_a``.

        ``treat_a=None`` means the dataset reference. Uses
        var(d_b - d_a) = cov_bb + cov_aa - 2 cov_ab with the reference
        contributing zero.
        """

        def locate(treat: str) -> int | None:
            if treat == self.reference:
                return None
            if treat in self.column_treatments:
                return self.column_treatments.index(treat)
            raise EstimationError(f"unknown treatment {treat!r}")

        jb = locate(treat_b)
        ja = locate(treat_a) if treat_a is not None else None
        est = 0.0
        var = 0.0
        if jb is not None:
            est += float(self.d_hat[jb])
            var += float(self.cov[jb, jb])
        if ja is not None:
            est -= float(self.d_hat[ja])
            var += float(self.cov[ja, ja])
        if jb is not None and ja is not None:
            var -= 2.0 * float(self.cov[jb, ja])
        return est, math.sqrt(max(var, 0.0))

    def ci(self, treat_b: str, treat_a: str | None = None) -> tuple[float, float]:
        est, se = self.contrast(treat_b, treat_a)
        z = normal_quantile(0.5 + self.ci_level / 2.0)
        return est - z * se, est + z * se


def log_likelihood(y: np.ndarray, mean: np.ndarray, cov_diag: np.ndarray) -> float:
    """Gaussian log-likelihood with a diagonal covariance matrix.

    Raises NumericError when a term leaves the float range, as the squared
    residual does for any residual above about 1.3e154.
    """
    y = np.asarray(y, dtype=float)
    mean = np.asarray(mean, dtype=float)
    cov_diag = np.asarray(cov_diag, dtype=float)
    if np.any(cov_diag <= 0):
        raise EstimationError("non-positive variance in likelihood")
    m = y.size
    with np.errstate(over="ignore", invalid="ignore"):
        quad = float(np.sum((y - mean) ** 2 / cov_diag))
        log_det = float(np.sum(np.log(cov_diag)))
    if not (math.isfinite(quad) and math.isfinite(log_det)):
        raise NumericError(
            "log-likelihood overflows: the weighted squared residuals or the variances "
            "exceed the float range"
        )
    return -0.5 * (m * math.log(2.0 * math.pi) + log_det + quad)


def _check_ci_level(ci_level: float) -> None:
    if not (0.0 < ci_level < 1.0):
        raise EstimationError(f"ci_level must be in (0, 1), got {ci_level!r}")


def _bincount(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Sums of ``weights`` into ``size`` bins by ``index``, per row of a 2-D ``weights``."""
    if weights.ndim == 1:
        return np.bincount(index, weights, minlength=size)
    k = weights.shape[0]
    index = (index + size * np.arange(k)[:, None]).ravel()
    return np.bincount(index, weights.ravel(), minlength=k * size).reshape(k, size)


def _gram(x: DesignMatrix, w: np.ndarray) -> np.ndarray:
    """X' diag(w) X, the weighted Laplacian of the network without the reference.

    ``w`` holds one weight per study, or a (k, m) stack of weight vectors for
    a (k, p, p) stack of matrices. Entries may come back non-finite when the
    weights are extreme; ``_gls`` checks them.
    """
    size = x.cols + 1
    flat = _bincount(x.gram_index, np.concatenate((w, w, -w, -w), axis=-1), size * size)
    return flat.reshape(*w.shape[:-1], size, size)[..., :-1, :-1]


def _xt(x: DesignMatrix, v: np.ndarray) -> np.ndarray:
    """X'v, per row of a 2-D ``v``."""
    return _bincount(x.xt_index, np.concatenate((v, -v), axis=-1), x.cols + 1)[..., :-1]


def _x_times(x: DesignMatrix, d: np.ndarray) -> np.ndarray:
    """X d, per row of a 2-D ``d``: d_b - d_a for each study, the reference at 0."""
    pad = np.zeros(d.shape[:-1] + (x.cols + 1,))
    pad[..., :-1] = d
    return pad[..., x.b_idx] - pad[..., x.a_idx]


def _leverages(x: DesignMatrix, c: np.ndarray) -> np.ndarray:
    """x_i' C x_i = (C_bb - C_ab) + (C_aa - C_ab) for each study, for symmetric C."""
    pad = np.zeros((x.cols + 1, x.cols + 1))
    pad[:-1, :-1] = c
    a, b = x.a_idx, x.b_idx
    c_ab = pad[a, b]
    return (pad[b, b] - c_ab) + (pad[a, a] - c_ab)


def _gls(ds: NetworkDataset, sigma2: np.ndarray):
    """Generalized least squares for E(y) = X d with diagonal covariance ``sigma2``.

    Returns (d_hat, L, log det X'WX, fitted) with W = diag(1 / sigma2), X'WX built
    by ``np.bincount`` in O(m) and L its Cholesky factor; ``_cov(L)`` is the
    covariance of d_hat. A (k, m) ``sigma2`` gives a stack of each result.
    """
    x = ds.design
    w = 1.0 / sigma2
    with np.errstate(over="ignore", invalid="ignore"):
        gram = _gram(x, w)
        xty = _xt(x, w * ds.effects())
    if not np.isfinite(gram).all():
        raise NumericError(
            "X'WX overflows: an extreme weight 1/(s_i^2 + tau^2) makes the Gram matrix "
            "exceed the float range"
        )
    try:
        fit = solve_spd(gram, xty[..., None])
    except NumericError:
        # a connected network's X'WX is positive definite: rounding lost the small weights
        w = np.atleast_2d(w)[np.argmax(np.max(w, -1) / np.min(w, -1))]
        i = int(np.argmax(w))
        raise EstimationError(
            f"X'WX is not positive definite in floating point: study {ds.studies[i].study_id!r} "
            f"has weight 1/(s_i^2 + tau^2) = {w[i]:.3g}, {w[i] / w.min():.3g} times the "
            "smallest, and the other weights are lost in rounding against it"
        ) from None
    d_hat = fit.solution[..., 0]
    return d_hat, fit.lower, fit.log_det, _x_times(x, d_hat)


def _cov(lower: np.ndarray) -> np.ndarray:
    """C = (L L')^-1 = L^-T L^-1; numpy forms A.T @ A by a symmetric update, so C = C'."""
    inv = np.linalg.inv(lower)
    return inv.T @ inv


def _restricted_loglik(sigma2: np.ndarray, log_det, resid: np.ndarray):
    """l_R = -1/2 [log det Sigma + log det X'Sigma^-1 X + r'Sigma^-1 r], per row of a stack."""
    return -0.5 * (np.sum(np.log(sigma2), axis=-1) + log_det + np.sum(resid**2 / sigma2, axis=-1))


def _fit(ds: NetworkDataset, kind: ModelKind, tau2: float, ci_level: float) -> ModelFit:
    """GLS fit with covariance V + tau2 I; FE is tau2 = 0 and stores no tau2."""
    _check_ci_level(ci_level)
    y = ds.effects()
    sigma2 = ds.variances() + tau2
    d_hat, lower, _, fitted = _gls(ds, sigma2)
    return ModelFit(
        kind, d_hat, _cov(lower), fitted, y - fitted, log_likelihood(y, fitted, sigma2),
        ci_level, ds.design.column_treatments, ds.reference,
        tau2=None if kind is ModelKind.FE else float(tau2),
    )


def fit_fe(ds: NetworkDataset, ci_level: float = DEFAULT_CI_LEVEL) -> ModelFit:
    """Fixed-effect fit: weighted least squares with inverse-variance weights."""
    return _fit(ds, ModelKind.FE, 0.0, ci_level)


def fit_re(
    ds: NetworkDataset,
    tau2: float,
    kind: ModelKind = ModelKind.RE_DL,
    ci_level: float = DEFAULT_CI_LEVEL,
) -> ModelFit:
    """Random-effects fit at a given between-study variance tau^2 >= 0."""
    if kind not in (ModelKind.RE_DL, ModelKind.RE_REML):
        raise EstimationError(f"fit_re expects a random-effects kind, got {kind}")
    if tau2 < 0:
        raise EstimationError("negative between-study variance")
    return _fit(ds, kind, tau2, ci_level)


def _require_residual_df(ds: NetworkDataset, n_effects: int) -> int:
    df = ds.n_studies - n_effects
    if df <= 0:
        raise EstimationError("no residual degrees of freedom")
    return df


def _require_fe(fe: ModelFit) -> None:
    if fe.kind is not ModelKind.FE:
        raise EstimationError(f"expected a fixed-effect fit, got {fe.kind}")


def fit_me(ds: NetworkDataset, fe: ModelFit) -> ModelFit:
    """Multiplicative-effect fit derived from the FE fit of the same dataset.

    The point estimates are the FE ones and the covariance is phi_hat times
    the FE covariance, with phi_hat = max(1, Q_total / (m - (n - 1))); the
    clamp keeps the ME model from deflating within-study variances. The CI
    level and labels come from ``fe``.
    """
    _require_fe(fe)
    df = _require_residual_df(ds, len(fe.d_hat))
    phi = max(1.0, q_total(ds, fe) / df)
    ll = log_likelihood(ds.effects(), fe.fitted, phi * ds.variances())
    return ModelFit(
        ModelKind.ME, fe.d_hat, phi * fe.cov, fe.fitted, fe.residuals,
        ll, fe.ci_level, fe.column_treatments, fe.reference, phi=phi,
    )


def estimate_tau2_dl(ds: NetworkDataset, fe: ModelFit) -> float:
    """Method-of-moments (DerSimonian-Laird type) between-study variance.

    tau2_hat = max(0, (Q_total - (m - (n-1))) / (tr W - tr(W X (X'WX)^-1 X'W)))
    with W = V^-1. The denominator is E[Q_total] sensitivity to tau2, so the
    estimator is unbiased before truncation and reduces to the classical
    DerSimonian-Laird estimator for a single pairwise comparison. The trace
    term is sum_i w_i^2 x_i' Cov_FE x_i, with Cov_FE = (X'WX)^-1 taken from
    ``fe``, the FE fit of the same dataset. It overflows when a weight
    exceeds about 1e154; that raises NumericError.
    """
    _require_fe(fe)
    x = ds.design
    df = _require_residual_df(ds, x.cols)
    w = ds.weights()
    with np.errstate(over="ignore", invalid="ignore"):
        trace = float(np.sum(w * w * _leverages(x, fe.cov)))
    if not math.isfinite(trace):
        raise NumericError(
            "moment estimator trace term sum w_i^2 x_i' C x_i overflows: "
            "an extreme weight 1/s_i^2 exceeds the float range when squared"
        )
    denom = float(np.sum(w)) - trace
    if denom <= 0:
        raise EstimationError("degenerate weight structure in moment estimator")
    return max(0.0, (q_total(ds, fe) - df) / denom)


def _reml_values(grid: np.ndarray, ds: NetworkDataset) -> np.ndarray:
    """l_R at every tau^2 of ``grid``: one stacked Gram, Cholesky and solve."""
    sigma2 = ds.variances() + grid[:, None]
    _, _, log_det, fitted = _gls(ds, sigma2)
    return _restricted_loglik(sigma2, log_det, ds.effects() - fitted)


def reml_objective(tau2: float, ds: NetworkDataset) -> float:
    """Restricted log-likelihood of tau^2 (up to an additive constant).

    l_R(tau2) = -1/2 [ log det(Sigma) + log det(X' Sigma^-1 X) + r' Sigma^-1 r ]
    with Sigma = V + tau2 I and r the GLS residuals at Sigma; the quadratic
    form equals y' P y of the standard REML projection. One Cholesky
    factorization of X' Sigma^-1 X gives both the log-det and the GLS fit.
    """
    if tau2 < 0:
        raise EstimationError("negative between-study variance")
    return float(_reml_values(np.array([float(tau2)]), ds)[0])


def _reml_newton_terms(tau2: float, ds: NetworkDataset):
    """l_R(tau2), its score and the observed information -d^2 l_R / d tau2^2.

    With W = (V + tau2 I)^-1, C = (X'WX)^-1 from ``_gls`` and ``_cov``,
    P = W - W X C X' W and r the GLS residuals (so P y = W r):

    * score       = 1/2 [ (Wr)'(Wr) - tr P ]
    * information = y' P^3 y - 1/2 tr P^2

    tr P and tr P^2 come from the leverages x_i' C x_i and from
    tr((C L2)^2), where L2 = X'W^2X is the Laplacian at weights w^2;
    y' P^3 y is the weighted residual sum of squares of a GLS fit of P y.
    Extreme weights can overflow w^2 and w^3, so the score or information
    may come back non-finite, without a warning; the caller then bisects.
    """
    x = ds.design
    sigma2 = ds.variances() + tau2
    w = 1.0 / sigma2
    _, lower, log_det, fitted = _gls(ds, sigma2)
    c = _cov(lower)
    resid = ds.effects() - fitted
    py = w * resid
    value = float(_restricted_loglik(sigma2, log_det, resid))
    with np.errstate(over="ignore", invalid="ignore"):
        w2 = w * w
        lev = _leverages(x, c)
        tr_p = float(np.sum(w - w2 * lev))
        score = 0.5 * (float(np.sum(py * py)) - tr_p)
        ppy = py - _x_times(x, c @ _xt(x, w * py))
        k = c @ _gram(x, w2)
        tr_p2 = float(np.sum(w2) - 2.0 * np.sum(w2 * w * lev) + np.sum(k * k.T))
        info = float(np.sum(w * ppy * ppy)) - 0.5 * tr_p2
    return value, score, info


def estimate_tau2_reml(ds: NetworkDataset) -> float:
    """REML between-study variance: maximizes the restricted likelihood.

    The search bracket [0, 10 var(y) + 10 max(s_i^2)] contains the maximizer
    for any data on these scales; any larger tau2 would imply between-study
    spread exceeding the total observed spread by an order of magnitude.

    l_R is scanned at 0 and at 15 geometrically spaced points from
    1e-2 median(s_i^2) to the upper bound, all 16 at once: one stacked
    (16, p, p) Gram assembly, Cholesky factorization and solve, with the
    values of ``reml_objective``. The scan starts from the median,
    not the smallest variance: below 1e-2 of most variances l_R is flat, and
    where one s_i^2 is tiny (say 1e-300) the rounding of that study's
    residual, about 1e-17, weighted by 1/(s_i^2 + tau2), swamps l_R at such
    tau2, so scan points there would pick a wrong cell.

    Newton's method on the score, with the observed information as
    curvature, then refines inside the scan cells next to the best point. As
    in Numerical Recipes' rtsafe, a bisection step replaces any Newton step
    that would leave the bracket or fail to halve the previous step, or whose
    curvature is not finite and positive. The refinement stops once a step
    is at most 1e-10 (1 + tau2), and the refined root is returned if its l_R
    is at least that of the best scan point. When the best scan point is 0
    and the score there is not positive, the estimate is exactly 0. When the
    best scan point is the upper bound and l_R still rises there, the
    maximizer lies beyond the bracket and ``EstimationError`` is raised.
    """
    _require_residual_df(ds, ds.design.cols)
    y = ds.effects()
    v = ds.variances()
    with np.errstate(over="ignore", invalid="ignore"):
        upper = 10.0 * float(np.var(y, ddof=1)) + 10.0 * float(np.max(v))
    if not math.isfinite(upper):
        raise NumericError("REML search bound 10 var(y) + 10 max(s_i^2) overflows the float range")
    grid = np.concatenate(([0.0], np.geomspace(1e-2 * float(np.median(v)), upper, 15)))
    values = _reml_values(grid, ds)
    if not np.isfinite(values).all():
        raise NumericError("restricted likelihood is not finite on the tau^2 scan")
    best = int(np.argmax(values))
    t = float(grid[best])
    _, score, info = _reml_newton_terms(t, ds)
    if score > 0:
        if best == len(grid) - 1:
            raise EstimationError(
                f"REML maximizer lies beyond the search bound 10 var(y) + 10 max(s_i^2) = {upper!r}"
            )
        lo, hi = t, float(grid[best + 1])
    elif best == 0:
        return 0.0
    else:
        lo, hi = float(grid[best - 1]), t
    step = hi - lo
    for _ in range(100):
        newton = t + score / info if info > 0 and math.isfinite(info) else math.nan
        if lo < newton < hi and abs(newton - t) <= 0.5 * abs(step):
            step = newton - t
        else:
            step = 0.5 * (lo + hi) - t
        t += step
        value, score, info = _reml_newton_terms(t, ds)
        if score > 0:
            lo = t
        else:
            hi = t
        if abs(step) <= 1e-10 * (1.0 + t) or score == 0:
            break
    return t if value >= values[best] else float(grid[best])
