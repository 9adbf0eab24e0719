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
from typing import NamedTuple

import numpy as np

from .dataset import DesignMatrix, NetworkDataset
from .numerics import NumericError, normal_quantile

__all__ = [
    "EstimationError",
    "ModelKind",
    "ModelFit",
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
            arr = getattr(self, name)
            if type(arr) is not np.ndarray or arr.dtype != float or arr.flags.writeable:
                arr = np.asarray(arr, dtype=float)
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


def _log_lik_rows(y: np.ndarray, mean: np.ndarray, cov_diag: np.ndarray):
    """Gaussian log-likelihood with a diagonal covariance, per row of a stack: (log L,
    whether its quadratic form and log det are finite)."""
    quad = ((y - mean) ** 2 / cov_diag).sum(-1)
    log_det = np.log(cov_diag).sum(-1)
    log_lik = -0.5 * (y.shape[-1] * math.log(2.0 * math.pi) + log_det + quad)
    return log_lik, np.isfinite(quad) & np.isfinite(log_det)


class _Fault:
    """Codes for why the fits of a dataset, or of a row of a stack, fail. The row
    functions never raise, and run under ``np.errstate(all="ignore")`` since a
    faulty row may overflow: each row keeps the first fault it meets, in the
    order of the single-dataset functions, and ``_raise_fault`` raises its
    error. A code times a mask flags the rows where the mask holds. Plain ints,
    not an enum: these run on every fit, where an enum lookup costs a microsecond."""

    NONE = 0
    OVERFLOW = 1  # X'WX overflows
    NOT_PD = 2  # X'WX at variances V + tau2 I does not factor
    LOG_LIK = 3
    Q_TOTAL = 4
    NO_DF = 5
    DL_TRACE = 6
    DL_DENOM = 7
    REML_BOUND = 8
    SCAN_NOT_PD = 9  # X'WX does not factor at some point of the REML scan
    SCAN_VALUE = 10
    REML_BEYOND = 11


def _first(*faults):
    """Per row, the first of ``faults`` that is not NONE (0)."""
    first = faults[-1]
    for fault in faults[-2::-1]:
        first = fault + (fault == 0) * first
    return first


# The errors of the faults whose message names no study and no value
_ERRORS = {
    _Fault.OVERFLOW: (NumericError, "X'WX overflows: an extreme weight 1/(s_i^2 + tau^2) "
                      "makes the Gram matrix exceed the float range"),
    _Fault.LOG_LIK: (NumericError, "log-likelihood overflows: the weighted squared residuals "
                     "or the variances exceed the float range"),
    _Fault.Q_TOTAL: (NumericError, "Q_total overflows: the weighted squared FE residuals exceed "
                     "the float range"),
    _Fault.NO_DF: (EstimationError, "no residual degrees of freedom"),
    _Fault.DL_TRACE: (NumericError, "moment estimator trace term sum w_i^2 x_i' C x_i overflows: "
                      "an extreme weight 1/s_i^2 exceeds the float range when squared"),
    _Fault.REML_BOUND: (NumericError, "REML search bound 10 var(y) + 10 max(s_i^2) overflows "
                        "the float range"),
    _Fault.SCAN_VALUE: (NumericError, "restricted likelihood is not finite on the tau^2 scan"),
}


def _raise_fault(fault, ds: NetworkDataset | None = None, tau2=0.0, denom=0.0) -> None:
    """Raise the error that ``fault`` stands for in the fits of ``ds``; return on NONE.

    ``tau2`` is the between-study variance of the fit whose X'WX does not
    factor, and ``denom`` the moment estimator's denominator.
    """
    fault = int(fault)
    if fault in _ERRORS:
        error, message = _ERRORS[fault]
        raise error(message)
    if fault == _Fault.DL_DENOM:
        w, weight = ds.weights(), "1/s_i^2"
        what = (
            "moment estimator denominator sum w_i - sum w_i^2 x_i' C x_i comes out "
            f"{float(denom):.3g} in floating point"
        )
    elif fault in (_Fault.NOT_PD, _Fault.SCAN_NOT_PD):
        # a connected network's X'WX is positive definite: rounding lost the small weights
        v = ds.variances()
        shift = _reml_grid(ds.effects(), v)[1][:, None] if fault == _Fault.SCAN_NOT_PD else tau2
        w = 1.0 / np.atleast_2d(v + shift)
        w, weight = w[np.argmax(np.max(w, -1) / np.min(w, -1))], "1/(s_i^2 + tau^2)"
        what = "X'WX is not positive definite in floating point"
    elif fault == _Fault.REML_BEYOND:
        upper = _reml_grid(ds.effects(), ds.variances())[0]
        raise EstimationError(
            "REML maximizer lies beyond the search bound 10 var(y) + 10 max(s_i^2) = "
            f"{float(upper)!r}"
        )
    else:
        return
    i = int(np.argmax(w))
    raise EstimationError(
        f"{what}: study {ds.study_ids[i]!r} has weight {weight} = {w[i]:.3g}, "
        f"{w[i] / w.min():.3g} times the smallest, and the other weights are lost in "
        "rounding against it"
    )


def _check_ci_level(ci_level: float) -> None:
    if not (0.0 < ci_level < 1.0):
        raise EstimationError(f"ci_level must be in (0, 1), got {ci_level!r}")


def _check_tau2(tau2: float) -> None:
    if tau2 < 0:
        raise EstimationError("negative between-study variance")
    if not math.isfinite(tau2):
        raise EstimationError(f"between-study variance must be a finite number, got {tau2!r}")


def _offsets(index: np.ndarray, size: int, shape: tuple[int, ...]) -> np.ndarray:
    """``index``, flat and offset so that each row of weights of ``shape`` has ``size`` bins."""
    rows = np.arange(math.prod(shape[:-1])).reshape(*shape[:-1], 1)
    return (index + size * rows).ravel()


def _bincount(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Sums of ``weights`` into ``size`` bins per row, by an ``index`` from ``_offsets``."""
    rows = weights.shape[:-1]
    return np.bincount(index, weights.ravel(), minlength=math.prod(rows) * size).reshape(*rows, size)


def _rows(x: DesignMatrix):
    """Index that pairs row r of a stack with row r of a stacked design; ``...`` for one design."""
    return np.arange(len(x.a_idx))[:, None] if x.a_idx.ndim == 2 else ...


def _gram_index(x: DesignMatrix, shape: tuple[int, ...]) -> np.ndarray:
    """The bincount index of X'WX for weights of ``shape``."""
    size, a, b = x.cols + 1, x.a_idx, x.b_idx
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # flat entries (a, a), (b, b), (lo, hi), (hi, lo) of each row: X'WX is exactly symmetric
    index = np.concatenate((a * size + a, b * size + b, lo * size + hi, hi * size + lo), axis=-1)
    return _offsets(index, size * size, shape)


def _xt_index(x: DesignMatrix, shape: tuple[int, ...]) -> np.ndarray:
    """The bincount index of X'v for ``v`` of ``shape``."""
    return _offsets(np.concatenate((x.b_idx, x.a_idx), axis=-1), x.cols + 1, shape)


def _gram(x: DesignMatrix, w: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
    """X' diag(w) X, the weighted Laplacian of the network without the reference.

    ``w`` holds one weight per study, or a (..., m) stack of weights for a (..., p, p)
    stack of matrices; ``index``, if given, is ``_gram_index(x, w.shape)``. Entries may
    come back non-finite when the weights are extreme; ``_gls_solve`` checks them.
    """
    size = x.cols + 1
    index = _gram_index(x, w.shape) if index is None else index
    flat = _bincount(index, np.concatenate((w, w, -w, -w), axis=-1), size * size)
    return flat.reshape(*w.shape[:-1], size, size)[..., :-1, :-1]


def _xt(x: DesignMatrix, v: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
    """X'v, per row of a stacked ``v``; ``index``, if given, is ``_xt_index(x, v.shape)``."""
    index = _xt_index(x, v.shape) if index is None else index
    return _bincount(index, np.concatenate((v, -v), axis=-1), x.cols + 1)[..., :-1]


def _x_times(x: DesignMatrix, d: np.ndarray) -> np.ndarray:
    """X d, per row of a 2-D ``d``: d_b - d_a for each study, the reference at 0."""
    pad = np.zeros(d.shape[:-1] + (x.cols + 1,))
    pad[..., :-1] = d
    rows = _rows(x)
    return pad[rows, x.b_idx] - pad[rows, x.a_idx]


def _leverages(x: DesignMatrix, c: np.ndarray) -> np.ndarray:
    """x_i' C x_i = (C_bb - C_ab) + (C_aa - C_ab) for each study, per matrix of a stack ``c``."""
    pad = np.zeros(c.shape[:-2] + (x.cols + 1, x.cols + 1))
    pad[..., :-1, :-1] = c
    rows, a, b = _rows(x), x.a_idx, x.b_idx
    c_ab = pad[rows, a, b]
    return (pad[rows, b, b] - c_ab) + (pad[rows, a, a] - c_ab)


class _GlsFit(NamedTuple):
    """``_gls_rows``'s result; ``fault`` is per row of a stack."""

    d_hat: np.ndarray
    lower: np.ndarray
    log_det: float | np.ndarray
    fitted: np.ndarray
    fault: np.ndarray


def _factors(a: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _gls_rows(x: DesignMatrix, y: np.ndarray, sigma2: np.ndarray) -> _GlsFit:
    """Generalized least squares for E(y) = X d with diagonal covariance ``sigma2``.

    Gives d_hat, the Cholesky factor L of X'WX with W = diag(1 / sigma2),
    log det X'WX and the fitted values; X'WX is built by ``np.bincount`` in
    O(m) and ``_cov(L)`` is the covariance of d_hat. A (k, m) ``sigma2`` gives
    a stack of each result, and a stacked design ``x`` and ``y`` give each row
    its own studies. Never raises: ``fault`` is OVERFLOW where X'WX overflows
    and NOT_PD where it does not factor; such a row is solved against the
    identity instead, and its results mean nothing.

    It factors and solves as ``solve_spd`` does, but not through it: X'WX is
    exactly symmetric by construction and its finiteness is checked here, so
    that function's conversions and checks would only add per-call overhead.
    """
    w = 1.0 / sigma2
    return _gls_solve(x, _gram(x, w), _xt(x, w * y))


def _gls_solve(x: DesignMatrix, gram: np.ndarray, xty: np.ndarray) -> _GlsFit:
    """``_gls_rows`` from X'WX and X'Wy; it writes the identity over each X'WX that fails."""
    finite = ok = np.isfinite(gram).all(axis=(-2, -1))
    if not finite.all():
        gram[~finite] = np.eye(x.cols)
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        factors = [_factors(g) for g in gram.reshape(-1, x.cols, x.cols)]
        ok = finite & np.reshape(factors, finite.shape)
        gram[~ok] = np.eye(x.cols)
        lower = np.linalg.cholesky(gram)
    log_det = 2.0 * np.log(np.diagonal(lower, axis1=-2, axis2=-1)).sum(axis=-1)
    d_hat = np.linalg.solve(np.swapaxes(lower, -2, -1), np.linalg.solve(lower, xty[..., None]))[..., 0]
    fault = _first(_Fault.OVERFLOW * ~finite, _Fault.NOT_PD * ~ok)
    return _GlsFit(d_hat, lower, log_det, _x_times(x, d_hat), fault)


def _cov(lower: np.ndarray) -> np.ndarray:
    """C = (L L')^-1 = L^-T L^-1, per matrix of a stack; numpy forms A'A by a symmetric
    update, so C = C'."""
    inv = np.linalg.inv(lower)
    return np.swapaxes(inv, -2, -1) @ inv


def _restricted_loglik(sigma2: np.ndarray, log_det, resid: np.ndarray):
    """l_R = -1/2 [log det Sigma + log det X'Sigma^-1 X + r'Sigma^-1 r], per row of a stack."""
    return -0.5 * (np.log(sigma2).sum(-1) + log_det + (resid**2 / sigma2).sum(-1))


class _Fit(NamedTuple):
    """A GLS fit per row of a stack, with C = (X'WX)^-1, the residuals and log L."""

    d_hat: np.ndarray
    cov: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    log_lik: np.ndarray
    fault: np.ndarray


def _fit_rows(x: DesignMatrix, y: np.ndarray, sigma2: np.ndarray) -> _Fit:
    """``_gls_rows`` with C, the residuals and log L; LOG_LIK marks a log L that overflows.
    The stacks are read-only, so a ``ModelFit`` takes its rows as they are."""
    fit = _gls_rows(x, y, sigma2)
    log_lik, finite = _log_lik_rows(y, fit.fitted, sigma2)
    fault = _first(fit.fault, _Fault.LOG_LIK * ~finite)
    arrays = (fit.d_hat, _cov(fit.lower), fit.fitted, y - fit.fitted)
    for arr in arrays:
        arr.setflags(write=False)
    return _Fit(*arrays, log_lik, fault)


def _model_fit(kind: ModelKind, fit: _Fit, row, ci_level: float, ds: NetworkDataset, **het):
    """The ``ModelFit`` of row ``row`` of ``fit``, a fit of (some studies of) ``ds``;
    ``row`` is ``...`` for one dataset."""
    return ModelFit(
        kind, fit.d_hat[row], fit.cov[row], fit.fitted[row], fit.residuals[row],
        float(fit.log_lik[row]), ci_level, ds.design.column_treatments, ds.reference, **het,
    )


def _me_fit(fe: ModelFit, phi: float, log_lik: float) -> ModelFit:
    """The ME fit: the estimates of ``fe`` with their covariance scaled by phi."""
    return ModelFit(
        ModelKind.ME, fe.d_hat, phi * fe.cov, fe.fitted, fe.residuals,
        log_lik, fe.ci_level, fe.column_treatments, fe.reference, phi=phi,
    )


def _fit(ds: NetworkDataset, kind: ModelKind, tau2: float, ci_level: float) -> ModelFit:
    """GLS fit with covariance V + tau2 I; FE is tau2 = 0 and stores no tau2."""
    _check_ci_level(ci_level)
    with np.errstate(all="ignore"):
        fit = _fit_rows(ds.design, ds.effects(), ds.variances() + tau2)
    _raise_fault(fit.fault, ds, tau2)
    return _model_fit(
        kind, fit, ..., ci_level, ds, tau2=None if kind is ModelKind.FE else float(tau2)
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
    _check_tau2(tau2)
    return _fit(ds, kind, tau2, ci_level)


def _require_fe(fe: ModelFit) -> None:
    if fe.kind is not ModelKind.FE:
        raise EstimationError(f"expected a fixed-effect fit, got {fe.kind}")


def _q_total_rows(resid: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Q_total = r' V^-1 r of FE residuals ``resid`` per row; it may overflow."""
    return (resid * resid * w).sum(-1)


def _me_rows(y: np.ndarray, fitted: np.ndarray, v: np.ndarray, q_tot: np.ndarray, df: int):
    """phi = max(1, Q_total / df), the ME log L and the fault, per row."""
    ratio = q_tot / df
    phi = np.where(ratio > 1.0, ratio, 1.0)
    log_lik, finite = _log_lik_rows(y, fitted, phi[..., None] * v)
    fault = _first(
        _Fault.NO_DF * (df <= 0), _Fault.Q_TOTAL * ~np.isfinite(q_tot),
        _Fault.LOG_LIK * ~finite,
    )
    return phi, log_lik, fault


def fit_me(ds: NetworkDataset, fe: ModelFit) -> ModelFit:
    """Multiplicative-effect fit derived from the FE fit of the same dataset.

    The point estimates are the FE ones and the covariance is phi_hat times
    the FE covariance, with phi_hat = max(1, Q_total / (m - (n - 1))); the
    clamp keeps the ME model from deflating within-study variances. The CI
    level and labels come from ``fe``.
    """
    _require_fe(fe)
    with np.errstate(all="ignore"):
        phi, log_lik, fault = _me_rows(
            ds.effects(), fe.fitted, ds.variances(), _q_total_rows(fe.residuals, ds.weights()),
            ds.n_studies - len(fe.d_hat),
        )
    _raise_fault(fault)
    return _me_fit(fe, float(phi), float(log_lik))


def _dl_rows(x: DesignMatrix, w: np.ndarray, cov: np.ndarray, q_tot: np.ndarray, df: int):
    """The moment estimator per row of a stack: (tau2, its denominator, fault)."""
    trace = (w * w * _leverages(x, cov)).sum(-1)
    denom = w.sum(-1) - trace
    ratio = (q_tot - df) / denom
    fault = _first(
        _Fault.NO_DF * (df <= 0), _Fault.DL_TRACE * ~np.isfinite(trace),
        _Fault.DL_DENOM * (denom <= 0), _Fault.Q_TOTAL * ~np.isfinite(q_tot),
    )
    return np.where(ratio > 0.0, ratio, 0.0), denom, fault


def estimate_tau2_dl(ds: NetworkDataset, fe: ModelFit) -> float:
    """Method-of-moments (DerSimonian-Laird type) between-study variance.

    tau2_hat = max(0, (Q_total - (m - (n-1))) / (tr W - tr(W X (X'WX)^-1 X'W)))
    with W = V^-1. The denominator is E[Q_total] sensitivity to tau2, so the
    estimator is unbiased before truncation and reduces to the classical
    DerSimonian-Laird estimator for a single pairwise comparison. The trace
    term is sum_i w_i^2 x_i' Cov_FE x_i, with Cov_FE = (X'WX)^-1 taken from
    ``fe``, the FE fit of the same dataset. It overflows when a weight
    exceeds about 1e154; that raises NumericError.

    The denominator is sum_i w_i (1 - h_i) with leverages h_i = w_i x_i' C x_i,
    positive in exact arithmetic whenever m > n - 1. Where one weight dwarfs
    the others, sum w_i and the trace agree to rounding and the difference
    comes out 0 or below; the EstimationError then names that study.
    """
    _require_fe(fe)
    w = ds.weights()
    with np.errstate(all="ignore"):
        tau2, denom, fault = _dl_rows(
            ds.design, w, fe.cov, _q_total_rows(fe.residuals, w), ds.n_studies - ds.design.cols
        )
    _raise_fault(fault, ds, denom=denom)
    return float(tau2)


_SCAN_POINTS = 16

# No array of a stacked solve holds much more than this many elements.
_STACK_ELEMENTS = 1 << 15


def _stack_rows(m: int, p: int) -> int:
    """How many rows of m studies and p columns one stacked solve takes. The budget counts,
    per row, the 4 m Gram terms and the (p + 1)^2 Gram matrix, not the 2 m design integers."""
    return max(1, _STACK_ELEMENTS // (4 * m + (p + 1) ** 2))


def _reml_grid(y: np.ndarray, v: np.ndarray):
    """The search bound 10 var(y) + 10 max(s_i^2) and the 16 scan points of
    ``estimate_tau2_reml``, per row of a stack; a bound may come back non-finite."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        upper = 10.0 * np.var(y, axis=-1, ddof=1) + 10.0 * np.max(v, axis=-1)
        geometric = np.geomspace(1e-2 * np.median(v, axis=-1), upper, _SCAN_POINTS - 1, axis=-1)
    return upper, np.concatenate((np.zeros(geometric.shape[:-1] + (1,)), geometric), axis=-1)


def reml_objective(tau2: float, ds: NetworkDataset) -> float:
    """Restricted log-likelihood of tau^2 (up to an additive constant).

    l_R(tau2) = -1/2 [ log det(Sigma) + log det(X' Sigma^-1 X) + r' Sigma^-1 r ]
    with Sigma = V + tau2 I and r the GLS residuals at Sigma; the quadratic
    form equals y' P y of the standard REML projection. One Cholesky
    factorization of X' Sigma^-1 X gives both the log-det and the GLS fit,
    computed as one point of the stacked REML scan.
    """
    _check_tau2(tau2)
    with np.errstate(all="ignore"):
        value, fault = _reml_scan(ds.design, ds.effects(), ds.variances()[None] + float(tau2))
    _raise_fault(fault[0], ds, tau2)
    return float(value[0])


def _reml_scan(x: DesignMatrix, y: np.ndarray, sigma2: np.ndarray):
    """l_R and the GLS fault at each row of a (k, m) stack of variances ``sigma2``, by one
    stacked solve; ``y`` and ``x`` are shared, or a row per row."""
    fit = _gls_rows(x, y, sigma2)
    return _restricted_loglik(sigma2, fit.log_det, y - fit.fitted), fit.fault


def _newton_step(x: DesignMatrix, y: np.ndarray, sigma2: np.ndarray, index):
    """l_R, its score, the observed information -d^2 l_R / d tau2^2 and whether X'WX
    factors at ``sigma2`` = V + tau2 I, per row of a stack: one REML Newton step.

    ``index`` is ``(_gram_index(x, (2, *sigma2.shape)), _xt_index(x, sigma2.shape))``: X'WX
    and X'W^2X are summed by one bincount. With W = (V + tau2 I)^-1,
    C = (X'WX)^-1 from ``_cov``, P = W - W X C X' W and r the GLS residuals
    (so P y = W r):

    * score       = 1/2 [ (Wr)'(Wr) - tr P ]
    * information = y' P^3 y - 1/2 tr P^2

    tr P and tr P^2 come from the leverages x_i' C x_i and from
    tr((C L2)^2), where L2 = X'W^2X is the Laplacian at weights w^2; y' P^3 y
    is the weighted residual sum of squares of a GLS fit of P y. Extreme
    weights can overflow w^2 and w^3, so the score or information may come
    back non-finite; the caller then bisects.
    """
    w = 1.0 / sigma2
    w2 = w * w
    gram, gram2 = _gram(x, np.stack((w, w2)), index[0])
    fit = _gls_solve(x, gram, _xt(x, w * y, index[1]))
    c = _cov(fit.lower)
    resid = y - fit.fitted
    py = w * resid
    lev = _leverages(x, c)
    score = 0.5 * ((py * py).sum(-1) - (w - w2 * lev).sum(-1))
    ppy = py - _x_times(x, (c @ _xt(x, w * py, index[1])[..., None])[..., 0])
    k = c @ gram2
    tr_p2 = w2.sum(-1) - 2.0 * (w2 * w * lev).sum(-1) + (k * np.swapaxes(k, -2, -1)).sum((-2, -1))
    info = (w * ppy * ppy).sum(-1) - 0.5 * tr_p2
    return _restricted_loglik(sigma2, fit.log_det, resid), score, info, fit.fault == _Fault.NONE


def _reml_refine(grid: np.ndarray, values: np.ndarray, terms):
    """The Newton refinement of ``estimate_tau2_reml``, run in lockstep over rows.

    ``grid`` and ``values`` are (k, 16) scan points and their l_R; ``terms(t,
    rows)`` gives l_R, score, information and an ok mask at tau^2 ``t`` for the
    rows ``rows``. Each row keeps its own bracket and stops on its own rule.
    Returns (tau2, beyond, ok) per row: ``beyond`` marks a maximizer past the
    last scan point, where tau2 means nothing, and ``ok`` is False where
    ``terms`` failed, with tau2 the point where it did. Rows only drop out.

    The point of a row's last step is evaluated though the step is within
    the tolerance: its l_R decides between it and the best scan point. Left
    unevaluated, the refit without s1 of the swamped-Gram LOO network
    (``SWAMPED_GRAM_LOO`` in the tests) moves from delta AIC -44.2933 to -42.93.
    """
    rows = np.arange(len(grid))
    best = np.argmax(values, axis=-1)
    best_t, best_value = grid[rows, best], values[rows, best]
    t = best_t.copy()
    _, score, info, ok = (np.resize(term, len(grid)) for term in terms(t, rows))
    last = grid.shape[-1] - 1
    rising = score > 0
    beyond = ok & rising & (best == last)
    zero = ~rising & (best == 0)
    lo = np.where(rising, t, grid[rows, np.maximum(best - 1, 0)])
    hi = np.where(rising, grid[rows, np.minimum(best + 1, last)], t)
    step = hi - lo
    value = np.full(len(grid), np.nan)
    live = ok & ~beyond & ~zero
    for _ in range(100):
        r = np.flatnonzero(live)
        if not len(r):
            break
        newton = np.where((info[r] > 0) & np.isfinite(info[r]), t[r] + score[r] / info[r], np.nan)
        inside = (lo[r] < newton) & (newton < hi[r])
        inside &= np.abs(newton - t[r]) <= 0.5 * np.abs(step[r])
        step[r] = np.where(inside, newton - t[r], 0.5 * (lo[r] + hi[r]) - t[r])
        t[r] += step[r]
        value[r], score[r], info[r], ok_r = terms(t[r], r)
        rising = score[r] > 0
        lo[r] = np.where(rising, t[r], lo[r])
        hi[r] = np.where(rising, hi[r], t[r])
        ok[r] &= ok_r
        live[r] = ok_r & ~((np.abs(step[r]) <= 1e-10 * (1.0 + t[r])) | (score[r] == 0))
    tau2 = np.where((value >= best_value) | ~ok, t, best_t)
    tau2[zero] = 0.0
    return tau2, beyond, ok


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
    with np.errstate(all="ignore"):
        tau2, fault = _reml_rows(ds.design, ds.effects(), ds.variances())
    _raise_fault(fault, ds, tau2)
    return float(tau2)


def _reml_rows(x: DesignMatrix, y: np.ndarray, v: np.ndarray):
    """``estimate_tau2_reml`` for one dataset (1-D ``y`` and ``v``), or for each row of
    (k, m) stacks with a stacked design ``x``: (tau2, fault) per row.

    The scan of all rows is one stacked solve of k x 16 systems, or a few of
    at most ``_stack_rows`` systems each, and the Newton refinement runs in
    lockstep over the rows. Where a Newton step's X'WX does not factor, tau2
    is the point of that step.
    """
    if v.shape[-1] <= x.cols:  # NO_DF, and var(y) in the search bound needs two studies
        return np.zeros(y.shape[:-1]), np.full(y.shape[:-1], _Fault.NO_DF)
    upper, grid = _reml_grid(y, v)
    if y.ndim == 2:  # row 16 r + j of the scan is row r at scan point j
        r, points = np.repeat(np.arange(len(y)), _SCAN_POINTS), grid.reshape(-1)
        step, parts = _stack_rows(y.shape[1], x.cols), []
        for i in range(0, len(r), step):
            c = r[i:i + step]
            sub = DesignMatrix(x.a_idx[c], x.b_idx[c], x.column_treatments)
            parts.append(_reml_scan(sub, y[c], v[c] + points[i:i + step, None]))
        values, scan = (np.concatenate(a) for a in zip(*parts))
    else:
        values, scan = _reml_scan(x, y, v + grid[:, None])
    values, scan = values.reshape(grid.shape), scan.reshape(grid.shape)
    fault = _first(
        _Fault.REML_BOUND * ~np.isfinite(upper),
        _Fault.OVERFLOW * (scan == _Fault.OVERFLOW).any(-1),
        _Fault.SCAN_NOT_PD * (scan != _Fault.NONE).any(-1),
        _Fault.SCAN_VALUE * ~np.isfinite(values).all(-1),
    ).reshape(-1)
    live = np.flatnonzero(fault == _Fault.NONE)
    held = {}  # by its count, the last set of rows: its design, data and bincount indices

    def terms(t, rows):
        # X'WX at tau2 >= 0 is bounded by X'WX at tau2 = 0, which the scan
        # checked, so a Newton point can fail to factor but not overflow.
        # Rows only drop out, so a new count is a new set of rows.
        if len(rows) not in held:
            held.clear()
            r = live[rows]
            x_r, y_r, v_r = (x, y, v) if y.ndim == 1 or len(r) == len(y) else (
                DesignMatrix(x.a_idx[r], x.b_idx[r], x.column_treatments), y[r], v[r])
            index = _gram_index(x_r, (2, *v_r.shape)), _xt_index(x_r, v_r.shape)
            held[len(rows)] = x_r, y_r, v_r, index
        x_r, y_r, v_r, index = held[len(rows)]
        return _newton_step(x_r, y_r, v_r + (t[0] if y.ndim == 1 else t[:, None]), index)

    tau2 = np.zeros(len(fault))
    if len(live):
        grid, values = grid.reshape(-1, _SCAN_POINTS)[live], values.reshape(-1, _SCAN_POINTS)[live]
        tau2[live], beyond, ok = _reml_refine(grid, values, terms)
        fault[live] = _first(_Fault.NOT_PD * ~ok, _Fault.REML_BEYOND * beyond)
    return tau2.reshape(np.shape(upper)), fault.reshape(np.shape(upper))


class _Comparison(NamedTuple):
    """``_compare_rows``'s result, with a leading axis per row of a stack."""

    fe: _Fit
    q_total: np.ndarray
    tau2: np.ndarray
    denom: np.ndarray | None
    re: _Fit
    phi: np.ndarray
    me_log_lik: np.ndarray
    fe_fault: np.ndarray
    fault: np.ndarray


def _compare_rows(x: DesignMatrix, y: np.ndarray, v: np.ndarray, reml: bool) -> _Comparison:
    """The FE, RE and ME fits of one dataset (1-D effects ``y`` and variances ``v``), or
    of each row of (k, m) stacks of them with a stacked design ``x``, from one FE fit.

    Q_total is formed once and gives phi and, with the FE covariance, the DL
    tau2; ``reml`` asks for the REML tau2 instead. ``fault`` is each row's
    first fault, and ``fe_fault`` that of the FE fit and Q_total alone, which
    ``compare_models`` raises before it splits Q.
    """
    w, df = 1.0 / v, v.shape[-1] - x.cols
    with np.errstate(all="ignore"):
        fe = _fit_rows(x, y, v)
        q_tot = _q_total_rows(fe.residuals, w)
        if reml:
            (tau2, tau2_fault), denom = _reml_rows(x, y, v), None
        else:
            tau2, denom, tau2_fault = _dl_rows(x, w, fe.cov, q_tot, df)
        re = _fit_rows(x, y, v + tau2[..., None])
        phi, me_log_lik, me_fault = _me_rows(y, fe.fitted, v, q_tot, df)
    fe_fault = _first(fe.fault, _Fault.Q_TOTAL * ~np.isfinite(q_tot))
    fault = _first(fe_fault, tau2_fault, re.fault, me_fault)
    return _Comparison(fe, q_tot, tau2, denom, re, phi, me_log_lik, fe_fault, fault)


def _model_fits(rows: _Comparison, row, kind: ModelKind, ci_level: float, ds: NetworkDataset):
    """The FE, RE and ME ``ModelFit``s of row ``row`` of ``rows``, as ``_model_fit``."""
    fe = _model_fit(ModelKind.FE, rows.fe, row, ci_level, ds)
    re = _model_fit(kind, rows.re, row, ci_level, ds, tau2=float(rows.tau2[row]))
    return fe, re, _me_fit(fe, float(rows.phi[row]), float(rows.me_log_lik[row]))
