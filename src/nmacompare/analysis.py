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
import os
import sys
import warnings
from dataclasses import dataclass, fields
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dataset import (
    DatasetError,
    DesignMatrix,
    EffectMeasure,
    NetworkDataset,
    _spanning_forest,
    connected_components,
    load_dataset,
)
from .heterogeneity import QDecomposition, ScreenResult, _split
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
    q = _split(ds, rows.fe.fitted, rows.q_total)[0]
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
        n_designs=m - q.df_het,  # df_het = m - C, read without building q.per_design
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
) -> tuple[NetworkDataset, SensitivityRecord]:
    """The dataset without the ``excluded`` studies, and the record of its refit."""
    sub = ds.drop_studies(excluded)
    lost = sorted(set(ds.treatments) - set(sub.treatments))
    if lost:
        raise DatasetError(
            "exclusion removes the last study of treatment(s): " + ", ".join(lost)
        )
    return sub, _record(excluded, compare_models(sub, tau_method, ci_level), baseline)


def _exclude(
    ds: NetworkDataset, exclude: Iterable[str], tau_method: TauMethod, ci_level: float
) -> tuple[NetworkDataset, SensitivityRecord]:
    """``exclude_and_refit``'s record, with the reduced dataset it refits."""
    excluded = tuple(sorted({str(s).strip() for s in exclude} - {""}))
    if not excluded:
        raise DatasetError("no studies named for exclusion")
    baseline = compare_models(ds, tau_method, ci_level)
    return _refit(ds, baseline, excluded, tau_method, ci_level)


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
    return _exclude(ds, exclude, tau_method, ci_level)[1]


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
    REML Newton steps in lockstep; ``compare_models``' own Q split
    (``heterogeneity._split``) then splits the Q of the whole block. No array
    of a stacked solve holds much more than ``models._STACK_ELEMENTS``
    elements, so memory grows as block x (m + p^2), not m^2. A refit that
    would lose a treatment, disconnect the network (``_keeps_network``) or
    leave no residual degrees of freedom, or whose stacked fit fails or comes
    out non-finite, runs on its own as in ``exclude_and_refit``, which gives
    its exact record or error message.
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
        records.get(i) or _refit_or_skip(ds, baseline, study_id, tau_method, ci_level)
        for i, study_id in enumerate(ds.study_ids)
    ]


def _refit_or_skip(
    ds: NetworkDataset,
    baseline: ComparisonReport,
    study_id: str,
    tau_method: TauMethod,
    ci_level: float,
) -> SensitivityRecord:
    try:
        return _refit(ds, baseline, (study_id,), tau_method, ci_level)[1]
    except ANALYSIS_ERRORS as exc:
        return SensitivityRecord((study_id,), None, None, None, skipped=True, reason=str(exc))


def _keeps_network(ds: NetworkDataset) -> np.ndarray:
    """Per study: removing it keeps every treatment and a connected network.

    Only the sole study of a design takes an edge of the network with it, and
    only an edge of a spanning tree can be the one that holds the network
    together. So ``connected_components`` runs once per sole-study design on
    one spanning tree that keeps every treatment, on the edges of the other
    designs: at most n - 1 times, O(n (n + C)) in all.
    """
    n = ds.n_treatments
    a, b = ds.codes
    per_treatment = np.bincount(ds.codes.ravel(), minlength=n)
    keeps = (per_treatment[a] > 1) & (per_treatment[b] > 1)
    check = keeps & (np.bincount(ds.design_ids)[ds.design_ids] == 1)
    if not check.any():
        return keeps
    edges = [divmod(c, n) for c in ds.design_pairs.tolist()]
    on_tree = np.zeros(len(edges), dtype=bool)
    on_tree[_spanning_forest(range(n), edges)[1]] = True
    for i in np.flatnonzero(check & on_tree[ds.design_ids]).tolist():
        c = ds.design_ids[i]
        keeps[i] = len(connected_components(range(n), edges[:c] + edges[c + 1:])) == 1
    return keeps


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
    rows = _compare_rows(
        xs, ds.effects()[keep], ds.variances()[keep], tau_method is TauMethod.REML
    )
    kind = _re_kind(tau_method)
    ok = np.flatnonzero(rows.fault == 0)
    splits = _split(ds, rows.fe.fitted[ok], rows.q_total[ok], keep[ok])
    records = {}
    for r, q in zip(ok.tolist(), splits):
        if q is not None:
            i = int(drop[r])
            report = _report(ds, m - 1, tau_method, q, *_model_fits(rows, r, kind, ci_level, ds))
            records[i] = _record((ds.study_ids[i],), report, baseline)
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
        edges = range(lo, max(hi, lo + 3) + 1, 3)
        # half-open bins [left, left + 3), except the last which is closed
        counts = np.histogram(values, edges)[0].tolist()
        hist[measure] = [
            {"lo": float(left), "hi": float(left + 3), "count": count}
            for left, count in zip(edges, counts)
        ]
    return hist


def batch_run(
    sources: Sequence[str | Path],
    alpha: float = 0.05,
    tau_method: TauMethod = TauMethod.DL,
    jobs: int = 1,
) -> BatchResult:
    """Compare models for every dataset file; failures become error rows.

    With ``jobs`` above 1 the datasets run on up to ``jobs`` worker processes,
    but on no more than the CPUs this process may use or the files. Each
    worker is forked from this process, so it starts with every module
    imported; a spawned one would import numpy again, which takes longer than
    a whole batch of small files. Where the fork start method is missing,
    where this process runs other threads (a forked child would inherit
    their locks but not the threads), or where one worker would do, the
    datasets run one after another in this process. Both ways give the same
    rows, warnings and errors: a worker records its warnings, and they are
    issued again here in source order, and an exception that ``_batch_one``
    does not turn into an error row reaches the caller. No worker outlives
    the call. Rows are sorted by (dataset name, source path).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs!r}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    rows = _batch_rows(sources, alpha, tau_method, min(jobs, cpus or 1, len(sources)))
    rows.sort(key=lambda r: (r.name, r.source))
    return BatchResult(tuple(rows), _histogram(rows), alpha, tau_method)


def _batch_rows(
    sources: Sequence[str | Path], alpha: float, tau_method: TauMethod, workers: int
) -> list[BatchRow]:
    """``_batch_one``'s rows in source order, on ``workers`` forked processes or in this one.

    The pool modules are imported here only, as they would add to every
    command's cold start. If the loop raises, the chunks that no worker has
    taken yet are cancelled instead of run.
    """
    import threading

    if workers > 1 and threading.active_count() == 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            fork = multiprocessing.get_context("fork")
            chunk = max(1, len(sources) // (4 * workers))
            rows = []
            with ProcessPoolExecutor(workers, mp_context=fork) as pool:
                try:
                    for row, caught in pool.map(
                        _batch_recorded, sources, repeat(alpha), repeat(tau_method),
                        chunksize=chunk,
                    ):
                        _warn_again(caught)
                        rows.append(row)
                except BaseException:
                    pool.shutdown(cancel_futures=True)
                    raise
            return rows
    return [_batch_one(s, alpha, tau_method) for s in sources]


def _batch_recorded(
    source: str | Path, alpha: float, tau_method: TauMethod
) -> tuple[BatchRow, list[tuple]]:
    """``_batch_one`` in a pool worker, with the warnings it raised for the parent to issue."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        row = _batch_one(source, alpha, tau_method)
    return row, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _warn_again(caught: list[tuple]) -> None:
    """Issue a worker's recorded warnings in this process, each as from the module that raised it.

    The warning goes through this process's filters and that module's
    warning registry, so it shows, repeats or raises as it does with one job.
    """
    if not caught:
        return
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, category, filename, lineno in caught:
        if filename not in modules:
            warnings.warn_explicit(message, category, filename, lineno)
            continue
        home = vars(modules[filename])
        registry = home.setdefault("__warningregistry__", {})
        warnings.warn_explicit(message, category, filename, lineno, home["__name__"], registry, home)


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
