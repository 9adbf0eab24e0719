"""Model comparison by AIC, exclusion sensitivity, and batch summaries.

The headline quantity is delta AIC = AIC_ME - AIC_RE: negative values favour
the multiplicative-effect model, positive values the additive random-effects
model. |delta| <= 3 reads as similar support; |delta| > 9 as a strong
preference.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .dataset import DatasetError, EffectMeasure, NetworkDataset, load_dataset
from .heterogeneity import QDecomposition, ScreenResult, q_decompose
from .models import (
    DEFAULT_CI_LEVEL,
    EstimationError,
    ModelFit,
    ModelKind,
    estimate_tau2_dl,
    estimate_tau2_reml,
    fit_fe,
    fit_me,
    fit_re,
)
from .numerics import NumericError

__all__ = [
    "TauMethod",
    "Classification",
    "classify",
    "ComparisonReport",
    "SensitivityRecord",
    "fit_random_effects",
    "compare_models",
    "exclude_and_refit",
    "leave_one_out",
    "BatchRow",
    "BatchResult",
    "batch_run",
    "batch_to_csv",
    "batch_to_json",
    "format_csv",
]

ANALYSIS_ERRORS = (DatasetError, EstimationError, NumericError)


class TauMethod(Enum):
    DL = "DL"
    REML = "REML"

    @classmethod
    def parse(cls, text: str) -> "TauMethod":
        key = text.strip().upper()
        for member in cls:
            if member.value == key:
                return member
        raise ValueError(f"unknown tau method {text!r} (expected dl or reml)")


class Classification(Enum):
    SIMILAR_SUPPORT = "similar_support"
    ME_PREFERRED = "me_preferred"
    RE_PREFERRED = "re_preferred"
    ME_STRONG = "me_strong"
    RE_STRONG = "re_strong"


def classify(delta_aic: float) -> Classification:
    """Support classification from delta AIC; the +/-3 boundary counts as similar."""
    if abs(delta_aic) <= 3.0:
        return Classification.SIMILAR_SUPPORT
    if delta_aic < 0:
        return Classification.ME_STRONG if delta_aic < -9.0 else Classification.ME_PREFERRED
    return Classification.RE_STRONG if delta_aic > 9.0 else Classification.RE_PREFERRED


@dataclass(frozen=True)
class ComparisonReport:
    """Fitted FE/RE/ME models for one dataset with the AIC verdict.

    ``classification`` is None when the dataset is untestable (one study per
    design), in which case both heterogeneity models collapse to the same fit
    and the comparison is vacuous.
    """

    dataset: str
    measure: EffectMeasure
    tau_method: TauMethod
    m: int
    n: int
    n_designs: int
    fe: ModelFit
    re: ModelFit
    me: ModelFit
    q: QDecomposition
    tau2: float
    phi: float
    aic_me: float
    aic_re: float
    delta_aic: float
    classification: Classification | None
    untestable: bool


def fit_random_effects(
    ds: NetworkDataset, fe: ModelFit, tau_method: TauMethod, ci_level: float
) -> ModelFit:
    """Random-effects fit at the tau^2 that ``tau_method`` estimates.

    ``fe`` is the FE fit of ``ds``; DL takes its covariance and residuals.
    """
    if tau_method is TauMethod.DL:
        tau2, kind = estimate_tau2_dl(ds, fe), ModelKind.RE_DL
    else:
        tau2, kind = estimate_tau2_reml(ds), ModelKind.RE_REML
    return fit_re(ds, tau2, kind=kind, ci_level=ci_level)


def compare_models(
    ds: NetworkDataset,
    tau_method: TauMethod = TauMethod.DL,
    ci_level: float = DEFAULT_CI_LEVEL,
) -> ComparisonReport:
    """Fit FE once, derive RE and ME from it, and compare RE vs ME by AIC."""
    fe = fit_fe(ds, ci_level)
    q = q_decompose(ds, fe)
    re = fit_random_effects(ds, fe, tau_method, ci_level)
    me = fit_me(ds, fe)
    delta = me.aic - re.aic
    untestable = q.df_het == 0
    return ComparisonReport(
        dataset=ds.name,
        measure=ds.measure,
        tau_method=tau_method,
        m=ds.n_studies,
        n=ds.n_treatments,
        n_designs=len(q.per_design),
        fe=fe,
        re=re,
        me=me,
        q=q,
        tau2=float(re.tau2),
        phi=float(me.phi),
        aic_me=me.aic,
        aic_re=re.aic,
        delta_aic=delta,
        classification=None if untestable else classify(delta),
        untestable=untestable,
    )


@dataclass(frozen=True)
class SensitivityRecord:
    """Refit after excluding studies, with changes relative to the baseline fit."""

    excluded: tuple[str, ...]
    report: ComparisonReport | None
    q_het_delta: float | None
    delta_aic_delta: float | None
    skipped: bool = False
    reason: str | None = None


def _refit(
    ds: NetworkDataset,
    baseline: ComparisonReport,
    excluded: tuple[str, ...],
    tau_method: TauMethod,
    ci_level: float,
) -> SensitivityRecord:
    sub = ds.drop_studies(excluded)
    lost = sorted(set(ds.treatments) - set(sub.treatments))
    if lost:
        raise DatasetError(
            "exclusion removes the last study of treatment(s): " + ", ".join(lost)
        )
    refit = compare_models(sub, tau_method, ci_level)
    return SensitivityRecord(
        excluded=excluded,
        report=refit,
        q_het_delta=refit.q.q_het - baseline.q.q_het,
        delta_aic_delta=refit.delta_aic - baseline.delta_aic,
    )


def exclude_and_refit(
    ds: NetworkDataset,
    exclude: Iterable[str],
    tau_method: TauMethod = TauMethod.DL,
    ci_level: float = DEFAULT_CI_LEVEL,
) -> SensitivityRecord:
    """Drop the named studies, re-derive the network, and refit both models.

    Raises if the exclusion leaves a disconnected network, drops a treatment
    entirely, or leaves no residual degrees of freedom; the error names the
    broken part.
    """
    excluded = tuple(sorted({str(s).strip() for s in exclude}))
    if not excluded:
        raise DatasetError("no studies named for exclusion")
    baseline = compare_models(ds, tau_method, ci_level)
    return _refit(ds, baseline, excluded, tau_method, ci_level)


def leave_one_out(
    ds: NetworkDataset,
    tau_method: TauMethod = TauMethod.DL,
    ci_level: float = DEFAULT_CI_LEVEL,
) -> list[SensitivityRecord]:
    """Refit with each study excluded in turn; infeasible removals are marked skipped."""
    baseline = compare_models(ds, tau_method, ci_level)
    records = []
    for obs in ds.studies:
        try:
            records.append(_refit(ds, baseline, (obs.study_id,), tau_method, ci_level))
        except ANALYSIS_ERRORS as exc:
            records.append(
                SensitivityRecord((obs.study_id,), None, None, None, skipped=True, reason=str(exc))
            )
    return records


# ---------------------------------------------------------------------------
# Batch processing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchRow:
    """One dataset's line in the batch summary; ``error`` is set on failure."""

    source: str
    name: str
    measure: str = ""
    m: int | None = None
    n: int | None = None
    n_designs: int | None = None
    q_het: float | None = None
    df_het: int | None = None
    p_het: float | None = None
    screen: str = ""
    tau2: float | None = None
    phi: float | None = None
    aic_me: float | None = None
    aic_re: float | None = None
    delta_aic: float | None = None
    classification: str = ""
    error: str = ""


@dataclass(frozen=True)
class BatchResult:
    rows: tuple[BatchRow, ...]
    histogram: dict[str, list[dict[str, float]]]
    alpha: float
    tau_method: TauMethod


def _batch_one(source: str | Path, alpha: float, tau_method: TauMethod) -> BatchRow:
    path = Path(source)
    try:
        ds = load_dataset(path)
        report = compare_models(ds, tau_method)
    except ANALYSIS_ERRORS as exc:
        return BatchRow(source=str(path), name=path.stem, error=str(exc))
    screen = report.q.screen(alpha)
    classified = screen is ScreenResult.HETEROGENEOUS and report.classification is not None
    return BatchRow(
        source=str(path),
        name=report.dataset,
        measure=report.measure.value,
        m=report.m,
        n=report.n,
        n_designs=report.n_designs,
        q_het=report.q.q_het,
        df_het=report.q.df_het,
        p_het=report.q.p_het,
        screen=screen.value,
        tau2=report.tau2,
        phi=report.phi,
        aic_me=report.aic_me,
        aic_re=report.aic_re,
        delta_aic=report.delta_aic,
        classification=report.classification.value if classified else "",
    )


def _histogram(rows: Sequence[BatchRow]) -> dict[str, list[dict[str, float]]]:
    """Delta-AIC bin counts per measure over classified rows.

    Bins are width 3 and aligned to multiples of 3, so -3 and +3 are always
    bin edges.
    """
    by_measure: dict[str, list[float]] = {}
    for row in rows:
        if row.classification and row.delta_aic is not None:
            by_measure.setdefault(row.measure, []).append(row.delta_aic)
    hist: dict[str, list[dict[str, float]]] = {}
    for measure in sorted(by_measure):
        values = by_measure[measure]
        lo = 3 * math.floor(min(values) / 3)
        hi = 3 * math.ceil(max(values) / 3)
        if hi == lo:
            hi = lo + 3
        bins = []
        for left in range(lo, hi, 3):
            right = left + 3
            # half-open bins [left, right), except the last which is closed
            count = sum(
                1
                for v in values
                if (left <= v < right) or (right == hi and v == hi)
            )
            bins.append({"lo": float(left), "hi": float(right), "count": count})
        hist[measure] = bins
    return hist


def batch_run(
    sources: Sequence[str | Path],
    alpha: float = 0.05,
    tau_method: TauMethod = TauMethod.DL,
) -> BatchResult:
    """Compare models for every dataset file; failures become error rows.

    Datasets are evaluated one after another and rows are sorted by (dataset
    name, source path).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    rows = [_batch_one(s, alpha, tau_method) for s in sources]
    rows.sort(key=lambda r: (r.name, r.source))
    return BatchResult(tuple(rows), _histogram(rows), alpha, tau_method)


# Every BatchRow field but ``source`` is a summary column; ``n_designs`` is headed "C".
_BATCH_FIELDS = tuple(f.name for f in fields(BatchRow) if f.name != "source")
_BATCH_COLUMNS = tuple("C" if f == "n_designs" else f for f in _BATCH_FIELDS)


def format_csv(rows: Iterable[Sequence[object]]) -> str:
    """CSV text with "\n" line ends; None is an empty cell and floats print as ``.6g``."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        ["" if v is None else format(v, ".6g") if isinstance(v, float) else v for v in row]
        for row in rows
    )
    return out.getvalue()


def batch_to_csv(result: BatchResult) -> str:
    """Render the summary table as CSV (deterministic formatting)."""
    return format_csv(
        [_BATCH_COLUMNS] + [[getattr(row, f) for f in _BATCH_FIELDS] for row in result.rows]
    )


def batch_to_json(result: BatchResult) -> dict:
    """Summary rows and histogram as one JSON-serializable document; empty text is null."""
    rows = []
    for row in result.rows:
        values = (getattr(row, f) for f in _BATCH_FIELDS)
        rows.append({c: None if v == "" else v for c, v in zip(_BATCH_COLUMNS, values)})
    return {
        "alpha": result.alpha,
        "tau_method": result.tau_method.value,
        "rows": rows,
        "histogram": result.histogram,
    }
