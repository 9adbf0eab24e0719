"""Lack-of-fit decomposition: total Q, within-design heterogeneity, inconsistency.

Q_total measures how badly the fixed-effect model fits the observed
contrasts. It splits additively into Q_het (disagreement between studies
making the same comparison) and Q_inc (disagreement between direct and
indirect evidence across designs). Under the null of no heterogeneity and
no inconsistency, Q_het ~ chi2(m - C) and Q_inc ~ chi2(C - (n - 1)) where C
is the number of designs.

All pooling inside a design uses fixed-effect weights w_i = 1/s_i^2 and the
canonical orientation of the design pair, so the decomposition does not
depend on how individual studies orient their contrast.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .dataset import Design, NetworkDataset, _designs
from .models import ModelFit, _bincount, _Fault, _offsets, _q_total_rows, _raise_fault
from .numerics import NumericError, chi_square_sf

__all__ = [
    "DesignContribution",
    "StudyContribution",
    "QDecomposition",
    "ScreenResult",
    "q_total",
    "q_decompose",
]


class DesignContribution(NamedTuple):
    """Heterogeneity contributed by one design, plus its pooled direct estimate.

    ``pooled_mean`` is oriented as pair[1] relative to pair[0].
    """

    design: Design
    q_het: float
    pooled_mean: float


class StudyContribution(NamedTuple):
    """Heterogeneity contributed by one study: w_i (y_i - ybar_design)^2."""

    index: int
    q_het: float
    weight: float


@dataclass(frozen=True, eq=False, repr=False)
class QDecomposition:
    """Q_total = Q_het + Q_inc with degrees of freedom and tail probabilities.

    ``p_het``/``p_inc`` are None when the corresponding degrees of freedom are
    zero: the component is untestable, which callers must distinguish from
    "tested and homogeneous". ``per_design`` and ``per_study`` are the
    contribution records, built when first read from the arrays that
    ``_split`` keeps in ``_parts``; ``==``, ``hash`` and ``repr`` treat them
    as fields.
    """

    q_total: float
    q_het: float
    q_inc: float
    df_het: int
    df_inc: int
    p_het: float | None
    p_inc: float | None
    # (dataset, per-study design index, designs present, per-design Q_het,
    # pooled design means, per-study Q_het, weights)
    _parts: tuple

    _FIELDS = ("q_total", "q_het", "q_inc", "df_het", "df_inc", "p_het", "p_inc",
               "per_design", "per_study")

    @functools.cached_property
    def per_design(self) -> tuple[DesignContribution, ...]:
        ds, ids, here, design_q, pooled, _, _ = self._parts
        designs = _designs(ds.treatments, ds.design_pairs, ids)
        q, means = design_q[here].tolist(), pooled[here].tolist()
        return tuple(map(DesignContribution, designs, q, means))

    @functools.cached_property
    def per_study(self) -> tuple[StudyContribution, ...]:
        *_, study_q, w = self._parts
        return tuple(map(StudyContribution, range(len(w)), study_q.tolist(), w.tolist()))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__qualname__}({fields})"

    def screen(self, alpha: float = 0.05) -> ScreenResult:
        """Test within-design heterogeneity at level alpha.

        Returns UNTESTABLE when every design has a single study (df_het = 0);
        such networks cannot distinguish additive from multiplicative
        heterogeneity and should not enter model-comparison summaries.
        """
        if not (0.0 < alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
        if self.p_het is None:
            return ScreenResult.UNTESTABLE
        return ScreenResult.HETEROGENEOUS if self.p_het < alpha else ScreenResult.HOMOGENEOUS


class ScreenResult(Enum):
    HETEROGENEOUS = "heterogeneous"
    HOMOGENEOUS = "homogeneous"
    UNTESTABLE = "untestable"


def q_total(ds: NetworkDataset, fe: ModelFit) -> float:
    """Lack-of-fit statistic of the fixed-effect model: r' V^-1 r."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = float(_q_total_rows(fe.residuals, ds.weights()))
    if not math.isfinite(q):
        _raise_fault(_Fault.Q_TOTAL)
    return q


def q_decompose(ds: NetworkDataset, fe: ModelFit) -> QDecomposition:
    """Decompose Q_total into per-design and per-study heterogeneity plus inconsistency.

    The one-dataset case of ``_split``, which also splits the Q of every
    refit of ``leave_one_out``.
    """
    return _split(ds, fe.fitted, q_total(ds, fe))[0]


def _split(
    ds: NetworkDataset, fitted: np.ndarray, q_tot: float | np.ndarray, keep=...
) -> list[QDecomposition | None]:
    """The Q split of ``ds`` from its FE fitted values and Q_total, or of each refit of a stack.

    ``keep`` is ``...`` for the dataset itself, or a (k, m') stack whose row
    r holds the indices of the studies refit r keeps, in dataset order, with
    (k, m') ``fitted`` and k ``q_tot``. Every study carries the index of its
    design in ``group_designs`` order (``ds.design_ids``); ``_bincount`` over
    all C designs of the dataset gives every row's pooled design means, Q_het
    per design and, with the FE fitted values, Q_inc, in one pass over the
    studies. A row's record leaves out the designs it has no study in. A NaN
    Q_het or Q_inc has no chi-square tail: it raises NumericError for the
    dataset itself and gives None for a refit.
    """
    a, b = ds.codes
    signs = np.where(a < b, 1.0, -1.0)[keep]  # +1 where treat_a is the lower label
    ids = np.atleast_2d(ds.design_ids[keep])
    w = np.atleast_2d(ds.weights()[keep])
    y_c, fitted_c = ds.effects()[keep] * signs, np.atleast_2d(fitted * signs)
    size = len(ds.design_pairs)
    index = _offsets(ids, size, ids.shape)
    sum_w = _bincount(index, w, size)
    present = sum_w > 0  # every weight is positive
    pooled = np.divide(_bincount(index, w * y_c, size), sum_w, np.zeros_like(sum_w), where=present)
    pooled_c = np.take_along_axis(pooled, ids, -1)
    per_study_q = w * (y_c - pooled_c) ** 2
    per_design_q = _bincount(index, per_study_q, size)

    m, n_designs = ids.shape[-1], present.sum(-1)
    df_het, df_inc = m - n_designs, n_designs - (ds.n_treatments - 1)
    # A connected network with C = n-1 designs is a tree: the FE fit
    # reproduces every design mean exactly, so inconsistency is identically
    # zero and the computed value is rounding noise.
    inc = df_inc > 0
    q_inc = np.zeros(len(ids))
    q_inc[inc] = np.sum(w[inc] * (pooled_c[inc] - fitted_c[inc]) ** 2, -1)
    rows = zip(np.atleast_1d(q_tot).tolist(), np.sum(per_study_q, -1).tolist(), q_inc.tolist(),
               df_het.tolist(), df_inc.tolist())
    splits = []
    for r, (q_t, q_h, q_i, df_h, df_i) in enumerate(rows):
        try:
            p_het = chi_square_sf(q_h, df_h) if df_h >= 1 else None
            p_inc = chi_square_sf(q_i, df_i) if df_i >= 1 else None
        except NumericError:
            if keep is ...:
                raise
            splits.append(None)
            continue
        splits.append(QDecomposition(
            q_t, q_h, q_i, df_h, df_i, p_het, p_inc,
            (ds, ids[r], present[r], per_design_q[r], pooled[r], per_study_q[r], w[r]),
        ))
    return splits
