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

import numpy as np

from .dataset import (
    DatasetError, DesignMatrix, EffectMeasure, NetworkDataset, _designs, load_dataset,
)
from .heterogeneity import QDecomposition, ScreenResult, _decomposition, _split
from .models import (
    DEFAULT_CI_LEVEL,
    EstimationError,
    ModelFit,
    ModelKind,
    _check_ci_level,
    _compare_rows,
    _model_fits,
    _raise_fault,
    _stack_rows,
    estimate_tau2_dl,
    estimate_tau2_reml,
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


def _re_kind(tau_method: TauMethod) -> ModelKind:
    if tau_method is TauMethod.DL:
        return ModelKind.RE_DL
    if tau_method is TauMethod.REML:
        return ModelKind.RE_REML
    raise EstimationError(
        f"unknown tau method {tau_method!r} (expected TauMethod.DL or TauMethod.REML)"
    )


def fit_random_effects(
    ds: NetworkDataset, fe: ModelFit, tau_method: TauMethod, ci_level: float
) -> ModelFit:
    """Random-effects fit at the tau^2 that ``tau_method`` estimates.

    ``fe`` is the FE fit of ``ds``; DL takes its covariance and residuals.
    Any ``tau_method`` other than a ``TauMethod`` member raises EstimationError.
    """
    kind = _re_kind(tau_method)
    tau2 = estimate_tau2_dl(ds, fe) if kind is ModelKind.RE_DL else estimate_tau2_reml(ds)
    return fit_re(ds, tau2, kind=kind, ci_level=ci_level)


def compare_models(
    ds: NetworkDataset,
    tau_method: TauMethod = TauMethod.DL,
    ci_level: float = DEFAULT_CI_LEVEL,
) -> ComparisonReport:
    """Fit FE once, derive RE and ME from it, and compare RE vs ME by AIC.

    The fits are the one-dataset case of the row-wise core that also solves
    ``leave_one_out``'s stacked refits (``models._compare_rows``): one FE GLS
    fit, Q_total formed once, tau^2 by DL or REML, the RE fit at tau^2, and
    phi. Errors come in the order of the stages: the FE fit and Q_total, the
    split of Q, an unknown ``tau_method``, then tau^2, the RE fit and the ME
    likelihood.
    """
    _check_ci_level(ci_level)
    rows = _compare_rows(ds.design, ds.effects(), ds.variances(), tau_method is TauMethod.REML)
    _raise_fault(rows.fe_fault, ds)
    q = _split(ds, rows.fe.fitted, float(rows.q_total))
    kind = _re_kind(tau_method)
    _raise_fault(rows.fault, ds, rows.tau2, rows.denom)
    return _report(ds, ds.n_studies, tau_method, q, *_model_fits(rows, ..., kind, ci_level, ds))


def _report(
    ds: NetworkDataset,
    m: int,
    tau_method: TauMethod,
    q: QDecomposition,
    fe: ModelFit,
    re: ModelFit,
    me: ModelFit,
) -> ComparisonReport:
    """The comparison of ``m`` studies of ``ds`` (all, or all but the excluded) from its fits."""
    delta = me.aic - re.aic
    untestable = q.df_het == 0
    return ComparisonReport(
        dataset=ds.name,
        measure=ds.measure,
        tau_method=tau_method,
        m=m,
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


def _record(
    excluded: tuple[str, ...], refit: ComparisonReport, baseline: ComparisonReport
) -> SensitivityRecord:
    return SensitivityRecord(
        excluded=excluded,
        report=refit,
        q_het_delta=refit.q.q_het - baseline.q.q_het,
        delta_aic_delta=refit.delta_aic - baseline.delta_aic,
    )


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
    return _record(excluded, compare_models(sub, tau_method, ci_level), baseline)


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
    """Refit with each study excluded in turn; infeasible removals are marked skipped.

    Record i equals ``exclude_and_refit(ds, [study i])``, or is skipped with
    that call's error message. The refits are solved together rather than one
    by one: row r of a stack holds the studies that refit r keeps, and a block
    of refits runs through ``compare_models``' own row-wise core
    (``models._compare_rows``), which solves their FE fits as one stack, their
    16-point REML scans as another and their RE fits as a third, and runs the
    REML Newton steps in lockstep. No array of a stacked solve holds much more
    than ``models._STACK_ELEMENTS`` elements, so memory grows as
    block x (m + p^2), not m^2. A refit that would lose a treatment,
    disconnect the network or leave no residual degrees of freedom, or whose
    stacked fit fails or comes out non-finite, runs on its own as in
    ``exclude_and_refit``, which gives its exact record or error message.
    """
    baseline = compare_models(ds, tau_method, ci_level)
    m, p = ds.n_studies, ds.design.cols
    stacked = np.flatnonzero(_keeps_network(ds) & (m - 1 > p))
    size = _stack_rows(m, p)
    records: dict[int, SensitivityRecord] = {}
    for start in range(0, len(stacked), size):
        block = stacked[start:start + size]
        records.update(_refit_block(ds, baseline, block, tau_method, ci_level))
    return [
        records.get(i) or _refit_or_skip(ds, baseline, obs.study_id, tau_method, ci_level)
        for i, obs in enumerate(ds.studies)
    ]


def _refit_or_skip(
    ds: NetworkDataset,
    baseline: ComparisonReport,
    study_id: str,
    tau_method: TauMethod,
    ci_level: float,
) -> SensitivityRecord:
    try:
        return _refit(ds, baseline, (study_id,), tau_method, ci_level)
    except ANALYSIS_ERRORS as exc:
        return SensitivityRecord((study_id,), None, None, None, skipped=True, reason=str(exc))


def _bridges(n: int, edges: list[tuple[int, int]]) -> set[int]:
    """Indices of the edges whose removal disconnects a connected simple graph on 0..n-1.

    Iterative depth-first search (Tarjan 1974): the edge into a node is a
    bridge when no edge from the node's subtree reaches above it.
    """
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (a, b) in enumerate(edges):
        adjacent[a].append((b, e))
        adjacent[b].append((a, e))
    order, low = [-1] * n, [0] * n
    order[0] = seen = 0
    stack = [(0, -1, iter(adjacent[0]))]
    bridges = set()
    while stack:
        node, via, rest = stack[-1]
        for nxt, e in rest:
            if order[nxt] < 0:
                seen += 1
                order[nxt] = low[nxt] = seen
                stack.append((nxt, e, iter(adjacent[nxt])))
                break
            if e != via:
                low[node] = min(low[node], order[nxt])
        else:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[node])
                if low[node] > order[parent]:
                    bridges.add(via)
    return bridges


def _keeps_network(ds: NetworkDataset) -> np.ndarray:
    """Per study: removing it keeps every treatment and a connected network."""
    n = ds.n_treatments
    a, b = ds.codes
    per_treatment = np.bincount(ds.codes.ravel(), minlength=n)
    sole = np.bincount(ds.design_ids)[ds.design_ids] == 1
    bridge = np.zeros(len(ds.design_pairs), dtype=bool)
    bridge[list(_bridges(n, [divmod(c, n) for c in ds.design_pairs.tolist()]))] = True
    return (per_treatment[a] > 1) & (per_treatment[b] > 1) & ~(sole & bridge[ds.design_ids])


def _refit_block(
    ds: NetworkDataset,
    baseline: ComparisonReport,
    drop: np.ndarray,
    tau_method: TauMethod,
    ci_level: float,
) -> dict[int, SensitivityRecord]:
    """Records of the refits without each study in ``drop``, all solved together.

    Row r of every stack holds the m - 1 studies the refit without study
    ``drop[r]`` keeps, in dataset order, so each row's sums run over the same
    terms in the same order as that refit's own. A refit with a fault, or
    whose Q split fails, is left out, for the caller's per-refit path.
    """
    m, x = ds.n_studies, ds.design
    base = np.arange(m - 1)
    keep = base + (base >= drop[:, None])
    xs = DesignMatrix(x.a_idx[keep], x.b_idx[keep], x.column_treatments)
    y, w = ds.effects()[keep], ds.weights()[keep]
    rows = _compare_rows(xs, y, ds.variances()[keep], tau_method is TauMethod.REML)
    kind = _re_kind(tau_method)

    a, b = ds.codes
    signs = np.where(a < b, 1.0, -1.0)[keep]
    gone = (np.bincount(ds.design_ids) == 1)[ds.design_ids[drop]]
    design_ids = ds.design_ids[keep]
    design_ids -= gone[:, None] & (design_ids > ds.design_ids[drop][:, None])
    records = {}
    for r in np.flatnonzero(rows.fault == 0).tolist():
        i = int(drop[r])
        pairs = np.delete(ds.design_pairs, ds.design_ids[i]) if gone[r] else ds.design_pairs
        try:
            q = _decomposition(
                _designs(ds.treatments, pairs, design_ids[r]), design_ids[r], w[r],
                y[r] * signs[r], rows.fe.fitted[r] * signs[r], x.cols, float(rows.q_total[r]),
            )
        except NumericError:  # a NaN Q_het or Q_inc has no chi-square tail
            continue
        report = _report(ds, m - 1, tau_method, q, *_model_fits(rows, r, kind, ci_level, ds))
        records[i] = _record((ds.studies[i].study_id,), report, baseline)
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
