"""Leave-one-out as one stacked computation: each record equals its own refit.

``leave_one_out`` solves the refits of a block together and sends the ones it
cannot stack through ``exclude_and_refit``'s path. These tests hold every
record to that path, check that the corpus never takes it, and bound the
memory a block holds while it is solved.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmacompare import (
    ContrastObservation,
    NetworkDataset,
    SensitivityRecord,
    TauMethod,
    connected_components,
    exclude_and_refit,
    leave_one_out,
)
from nmacompare import analysis

from test_kernels import networks, wide_network


@st.composite
def networks_with_cuts(draw):
    """``networks()``, sometimes with a leaf treatment and a bridge study added.

    The leaf study is its treatment's only one. The bridge study is the one
    link to two new treatments that two studies compare with each other.
    """
    ds = draw(networks())
    studies = list(ds.studies)
    anchor = ds.treatments[draw(st.integers(0, ds.n_treatments - 1))]
    effect, se = st.floats(-2.0, 2.0), st.floats(0.05, 3.0)
    if draw(st.booleans()):
        studies.append(ContrastObservation("leaf", anchor, "Z0", draw(effect), draw(se)))
    if draw(st.booleans()):
        studies += [
            ContrastObservation("bridge", anchor, "Z1", draw(effect), draw(se)),
            ContrastObservation("far1", "Z1", "Z2", draw(effect), draw(se)),
            ContrastObservation("far2", "Z2", "Z1", draw(effect), draw(se)),
        ]
    return NetworkDataset(ds.name, ds.measure, tuple(studies), ds.reference)


def _refit(ds: NetworkDataset, study_id: str, method: TauMethod) -> SensitivityRecord:
    try:
        return exclude_and_refit(ds, [study_id], method)
    except analysis.ANALYSIS_ERRORS as exc:
        return SensitivityRecord((study_id,), None, None, None, skipped=True, reason=str(exc))


def _exact(rec: SensitivityRecord):
    report = rec.report
    if report is None:
        return rec.excluded, rec.skipped, rec.reason
    q = report.q
    return (
        rec.excluded, rec.skipped, rec.reason, report.m, report.n, report.n_designs,
        q.df_het, q.df_inc, report.classification, report.untestable,
        [d.design for d in q.per_design], [s.index for s in q.per_study],
        report.fe.kind, report.re.kind, report.me.kind,
    )


def _floats(rec: SensitivityRecord, prefix: str):
    """Every float of a record whose name starts with ``prefix`` ("fe" or "re")."""
    report = rec.report
    q = report.q
    fits = {"fe": (report.fe, report.me), "re": (report.re,)}[prefix]
    values = [np.concatenate([
        np.ravel(a) for fit in fits
        for a in (fit.d_hat, fit.cov, fit.fitted, fit.residuals, [fit.log_lik])
    ])]
    if prefix == "fe":
        values += [
            [q.q_total, q.q_het, q.q_inc, q.p_het or 0.0, q.p_inc or 0.0, report.phi,
             report.aic_me, rec.q_het_delta],
            [d.q_het for d in q.per_design], [d.pooled_mean for d in q.per_design],
            [s.q_het for s in q.per_study], [s.weight for s in q.per_study],
        ]
    else:
        values.append([report.tau2, report.aic_re, report.delta_aic, rec.delta_aic_delta])
    return np.concatenate([np.ravel(v) for v in values])


def _assert_close(got, want, rtol):
    np.testing.assert_array_less(np.abs(got - want), rtol * (1.0 + np.abs(want)) + 1e-300)


@settings(derandomize=True, max_examples=25, database=None, deadline=None)
@given(networks_with_cuts())
def test_records_equal_exclude_and_refit(ds):
    for method in TauMethod:
        records = leave_one_out(ds, method)
        assert [r.excluded for r in records] == [(obs.study_id,) for obs in ds.studies]
        for rec in records:
            ref = _refit(ds, rec.excluded[0], method)
            assert _exact(rec) == _exact(ref)
            if rec.report is not None:
                _assert_close(_floats(rec, "fe"), _floats(ref, "fe"), 1e-12)
                rtol = 1e-12 if method is TauMethod.DL else 1e-9
                _assert_close(_floats(rec, "re"), _floats(ref, "re"), rtol)


@pytest.mark.parametrize("method", list(TauMethod))
@pytest.mark.parametrize("name", ["smoke", "nsaid", "biologics"])
def test_corpus_refits_are_all_stacked(request, monkeypatch, name, method):
    """compare_models runs once, for the baseline: no refit falls back to its own path."""
    ds = request.getfixturevalue(name)
    calls = []
    compare_models = analysis.compare_models

    def counted(*args, **kwargs):
        calls.append(args)
        return compare_models(*args, **kwargs)

    monkeypatch.setattr(analysis, "compare_models", counted)
    records = leave_one_out(ds, method)
    assert len(calls) == 1
    assert len(records) == ds.n_studies and not any(r.skipped for r in records)


@pytest.mark.parametrize("method", list(TauMethod))
def test_blocks_keep_memory_below_an_m_by_m_stack(method):
    """The peak traced allocation above what the records hold stays under one m x m stack.

    Solved as one block, the 600 refits of this network peak 44 MB above
    their records with DL; in blocks, 1.8 MB. A REML block also holds the
    scan of each refit at 16 points, so it holds 16 times fewer refits.
    """
    ds = wide_network(8, 600)
    tracemalloc.start()
    try:
        records = leave_one_out(ds, method)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 600 and not any(r.skipped for r in records)
    assert peak - held < 8 * 600**2  # bytes of one 600 x 600 float stack


@settings(derandomize=True, max_examples=60, database=None, deadline=None)
@given(networks_with_cuts())
def test_bridges_are_the_edges_that_disconnect(ds):
    n = ds.n_treatments
    edges = [divmod(c, n) for c in ds.design_pairs.tolist()]
    cut = {
        e for e in range(len(edges))
        if len(connected_components(range(n), edges[:e] + edges[e + 1:])) > 1
    }
    assert analysis._bridges(n, edges) == cut
