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

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .dataset import Design, NetworkDataset, group_designs
from .numerics import NumericError, chi_square_sf

if TYPE_CHECKING:
    from .models import ModelFit

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


@dataclass(frozen=True)
class QDecomposition:
    """Q_total = Q_het + Q_inc with degrees of freedom and tail probabilities.

    ``p_het``/``p_inc`` are None when the corresponding degrees of freedom are
    zero: the component is untestable, which callers must distinguish from
    "tested and homogeneous".
    """

    q_total: float
    q_het: float
    q_inc: float
    df_het: int
    df_inc: int
    p_het: float | None
    p_inc: float | None
    per_design: tuple[DesignContribution, ...]
    per_study: tuple[StudyContribution, ...]

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
    r = fe.residuals
    with np.errstate(over="ignore", invalid="ignore"):
        q = float(np.sum(r * r * ds.weights()))
    if not math.isfinite(q):
        raise NumericError(
            "Q_total overflows: the weighted squared FE residuals exceed the float range"
        )
    return q


def q_decompose(ds: NetworkDataset, fe: ModelFit) -> QDecomposition:
    """Decompose Q_total into per-design and per-study heterogeneity plus inconsistency.

    Every study carries the index of its design in ``group_designs`` order
    (``ds.design_ids``); ``np.bincount`` over that index gives the pooled
    design means, Q_het per design and, with the FE fitted values, Q_inc, in
    one pass over the studies.
    """
    a, b = ds.codes
    signs = np.where(a < b, 1.0, -1.0)  # +1 where treat_a is the lower label
    return _decomposition(
        group_designs(ds), ds.design_ids, ds.weights(), ds.effects() * signs,
        fe.fitted * signs, ds.design.cols, q_total(ds, fe),
    )


def _decomposition(
    designs: list[Design],
    design_id: np.ndarray,
    w: np.ndarray,
    y_c: np.ndarray,
    fitted_c: np.ndarray,
    n_effects: int,
    q_tot: float,
) -> QDecomposition:
    """``q_decompose`` from the designs, each study's design index, weight, and
    effect and FE fitted value in the canonical orientation of its design."""
    m = len(w)
    pooled = np.bincount(design_id, w * y_c) / np.bincount(design_id, w)
    pooled_c = pooled[design_id]
    per_study_q = w * (y_c - pooled_c) ** 2
    per_design_q = np.bincount(design_id, per_study_q)

    q_het = float(np.sum(per_study_q))
    df_het = m - len(designs)
    df_inc = len(designs) - n_effects
    # A connected network with C = n-1 designs is a tree: the FE fit
    # reproduces every design mean exactly, so inconsistency is identically
    # zero and the computed value is rounding noise.
    q_inc = float(np.sum(w * (pooled_c - fitted_c) ** 2)) if df_inc > 0 else 0.0

    return QDecomposition(
        q_total=q_tot,
        q_het=q_het,
        q_inc=q_inc,
        df_het=df_het,
        df_inc=df_inc,
        p_het=chi_square_sf(q_het, df_het) if df_het >= 1 else None,
        p_inc=chi_square_sf(q_inc, df_inc) if df_inc >= 1 else None,
        per_design=tuple(map(DesignContribution, designs, per_design_q.tolist(), pooled.tolist())),
        per_study=tuple(map(StudyContribution, range(m), per_study_q.tolist(), w.tolist())),
    )
