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

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .dataset import Design, NetworkDataset, group_designs
from .numerics import chi_square_sf

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


@dataclass(frozen=True)
class DesignContribution:
    """Heterogeneity contributed by one design, plus its pooled direct estimate.

    ``pooled_mean`` is oriented as pair[1] relative to pair[0].
    """

    design: Design
    q_het: float
    pooled_mean: float


@dataclass(frozen=True)
class StudyContribution:
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
    return float(np.sum(r * r * ds.weights()))


def q_decompose(ds: NetworkDataset, fe: ModelFit) -> QDecomposition:
    """Decompose Q_total into per-design and per-study heterogeneity plus inconsistency."""
    designs = group_designs(ds)
    w = ds.weights()
    m = ds.n_studies
    n_effects = ds.design.cols

    per_design = []
    per_study_q = np.zeros(m)
    q_inc_acc = 0.0
    for design in designs:
        idx = np.asarray(design.members)
        signs = np.array([ds.studies[i].canonical_sign for i in idx])
        y_c = np.array([ds.studies[i].effect for i in idx]) * signs
        w_c = w[idx]
        pooled = float(np.sum(w_c * y_c) / np.sum(w_c))
        contrib = w_c * (y_c - pooled) ** 2
        per_study_q[idx] = contrib
        per_design.append(DesignContribution(design, float(np.sum(contrib)), pooled))
        fitted_c = fe.fitted[idx] * signs
        q_inc_acc += float(np.sum(w_c * (pooled - fitted_c) ** 2))

    q_het = float(np.sum(per_study_q))
    df_het = m - len(designs)
    df_inc = len(designs) - n_effects
    # A connected network with C = n-1 designs is a tree: the FE fit
    # reproduces every design mean exactly, so inconsistency is identically
    # zero and the accumulated value is rounding noise.
    q_inc = q_inc_acc if df_inc > 0 else 0.0

    return QDecomposition(
        q_total=q_total(ds, fe),
        q_het=q_het,
        q_inc=q_inc,
        df_het=df_het,
        df_inc=df_inc,
        p_het=chi_square_sf(q_het, df_het) if df_het >= 1 else None,
        p_inc=chi_square_sf(q_inc, df_inc) if df_inc >= 1 else None,
        per_design=tuple(per_design),
        per_study=tuple(
            StudyContribution(i, float(per_study_q[i]), float(w[i])) for i in range(m)
        ),
    )
