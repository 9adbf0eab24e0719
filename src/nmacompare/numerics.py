"""Small numerical kernels: SPD solves, chi-square tails, quantiles, 1-D search,
and the one-thread BLAS limit the command line runs under.

A Cholesky solve, the exact chi-square tail for integer df and the inverse
normal CDF, built on numpy and the standard library behind the narrow surface
the fitting and testing code needs, so every numerical contract is checked in
one place.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

import numpy as np

__all__ = [
    "NumericError",
    "SpdSolveResult",
    "solve_spd",
    "chi_square_sf",
    "normal_quantile",
    "minimize_scalar",
]


class NumericError(ArithmeticError):
    """A numerical precondition failed (non-SPD matrix, bad domain, bad bracket)."""


@functools.cache
def _openblas_thread_setter() -> Callable[[int], int] | None:
    """OpenBLAS's ``openblas_set_num_threads_local``, or None where numpy has no such BLAS.

    It is looked up, on first use, through numpy's linear-algebra extension,
    whose dependencies include the BLAS library numpy loaded. It sets the
    number of BLAS threads for calls from the calling thread only and
    returns the previous number (OpenBLAS 0.3.27 and later).
    """
    try:
        from numpy.linalg import _umath_linalg

        setter = ctypes.CDLL(_umath_linalg.__file__).openblas_set_num_threads_local
    except (ImportError, OSError, AttributeError):
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = ctypes.c_int
    return setter


def single_blas_thread(func):
    """Run ``func`` with the BLAS and LAPACK calls of the calling thread on one thread.

    A network's Gram matrix is rarely more than a few hundred wide. At that
    size OpenBLAS splits a factorization over its worker threads, and a worker
    keeps spinning for about 0.1 s after the call returns. Where it spins on
    the caller's CPU, or another process needs the other CPU, the Python
    code that follows slows down, so a command's time swings with the
    scheduling and the load on the machine. One thread takes that swing
    out, and the results no longer depend on the thread count. The ``nma``
    command runs under it; a no-op when numpy's BLAS is not OpenBLAS.
    """

    @functools.wraps(func)
    def limited(*args, **kwargs):
        set_threads = _openblas_thread_setter()
        if set_threads is None:
            return func(*args, **kwargs)
        previous = set_threads(1)
        try:
            return func(*args, **kwargs)
        finally:
            set_threads(previous)

    return limited


@dataclass(frozen=True)
class SpdSolveResult:
    """Solution of A x = b for symmetric positive definite A, plus log det(A).

    ``lower`` is the Cholesky factor L of A = L L', so A^-1 = L^-T L^-1. For a
    stack of k systems every field has a leading axis of length k.
    """

    solution: np.ndarray
    log_det: float | np.ndarray
    lower: np.ndarray


def solve_spd(a: np.ndarray, b: np.ndarray) -> SpdSolveResult:
    """Solve a symmetric positive definite system via Cholesky factorization.

    ``b`` may be a single right-hand side (1-D) or several stacked as columns.
    ``a`` may also be a (k, p, p) stack of systems, each solved against its
    own slice of a (k, p) or (k, p, r) ``b`` by one stacked factorization.
    log det(A) comes from the factor diagonal; the inverse is never formed.

    Raises NumericError if A is not square, has a NaN or infinite entry, is
    not symmetric within 1e-12 relative, or is not positive definite (the
    latter signals a rank-deficient network or degenerate variances upstream).
    In a stack every slice is checked on its own, against its own scale.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise NumericError(f"matrix is not square: shape {a.shape}")
    stacked = a.ndim == 3
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)
    # NaN or inf in any entry makes the scale non-finite; numpy's Cholesky
    # would factor such a matrix without complaint
    if not np.isfinite(scale).all():
        raise NumericError("invalid matrix entries: NaN or infinite")
    asymmetry = np.abs(a - np.swapaxes(a, -2, -1)).max(axis=(-2, -1), initial=0.0)
    if np.any(asymmetry > 1e-12 * np.maximum(scale, 1e-300)):
        raise NumericError("matrix not symmetric")
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NumericError("matrix not positive definite") from None
    log_det = 2.0 * np.log(np.diagonal(lower, axis1=-2, axis2=-1)).sum(axis=-1)
    vector = b.ndim == a.ndim - 1
    if vector:
        b = b[..., None]
    solution = np.linalg.solve(np.swapaxes(lower, -2, -1), np.linalg.solve(lower, b))
    if vector:
        solution = solution[..., 0]
    return SpdSolveResult(solution, log_det if stacked else float(log_det), lower)


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail probability P(X > x) for X ~ chi-square with ``df`` degrees.

    The exact finite sum for integer df (Abramowitz & Stegun 26.4.4-5), with
    h = x/2: e^-h sum_{k<df/2} h^k / k! for even df, and for odd df
    erfc(sqrt(h)) + e^-h sum_{k=1}^{(df-1)/2} h^(k-1/2) / Gamma(k+1/2).
    Every term is positive, so nothing cancels; each is formed in log space.
    """
    if df == 0:
        raise NumericError("zero degrees of freedom")
    if df < 0 or df != int(df):
        raise NumericError(f"degrees of freedom must be a positive integer, got {df!r}")
    if not (x >= 0):
        raise NumericError(f"chi-square statistic must be non-negative, got {x!r}")
    half = x / 2.0
    if half == 0.0:
        return 1.0
    if half == math.inf:
        return 0.0
    head = math.erfc(math.sqrt(half)) if df % 2 else 0.0
    log_half = math.log(half)
    exponents = (k + df % 2 / 2.0 for k in range(int(df) // 2))
    return head + math.fsum(math.exp(a * log_half - math.lgamma(a + 1.0) - half) for a in exponents)


_STANDARD_NORMAL = NormalDist()


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF."""
    if not (0.0 < p < 1.0):
        raise NumericError(f"quantile requires 0 < p < 1, got {p!r}")
    return _STANDARD_NORMAL.inv_cdf(p)


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _checked(f: Callable[[float], float], x: float) -> float:
    value = float(f(x))
    if not math.isfinite(value):
        raise NumericError(f"objective returned a non-finite value at x={x!r}")
    return value


def minimize_scalar(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-8,
    grid_points: int = 129,
) -> float:
    """Scalar minimizer: coarse grid scan, then golden-section refinement.

    The grid (at least 64 points) localizes the global minimum of possibly
    multimodal objectives; golden-section search on the bracketing cell then
    refines to within ``tol``. For unimodal f the result is within ``tol`` of
    the true argmin.
    """
    if not (lo < hi):
        raise NumericError(f"empty bracket [{lo!r}, {hi!r}]")
    if not (tol > 0):
        raise NumericError("tolerance must be positive")
    xs = np.linspace(lo, hi, max(64, int(grid_points)))
    values = [_checked(f, float(x)) for x in xs]
    best = int(np.argmin(values))
    a = float(xs[max(best - 1, 0)])
    b = float(xs[min(best + 1, len(xs) - 1)])
    if b - a <= tol:
        return float(xs[best])

    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc = _checked(f, c)
    fd = _checked(f, d)
    for _ in range(512):
        if b - a <= tol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = _checked(f, c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = _checked(f, d)
    return 0.5 * (a + b)
