"""Properties of the Q decomposition and the model comparison on generated networks.

Hypothesis draws the networks with ``networks()`` from ``test_kernels.py``,
derandomized, so every run checks the same examples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmacompare import NetworkDataset, compare_models, fit_fe, q_decompose

from conftest import flipped
from test_kernels import networks


@settings(derandomize=True, max_examples=60, database=None, deadline=None)
@given(networks())
def test_q_total_is_q_het_plus_q_inc(ds):
    q = q_decompose(ds, fit_fe(ds))
    assert q.q_total == pytest.approx(q.q_het + q.q_inc, rel=1e-8, abs=1e-10)


def _invariant_stats(report):
    return (report.q.q_total, report.q.q_het, report.q.q_inc, report.phi, report.delta_aic)


@settings(derandomize=True, max_examples=40, database=None, deadline=None)
@given(networks(), st.integers(0, 2**32 - 1), st.floats(0.2, 5.0))
def test_comparison_invariances(ds, seed, c):
    """Reference change, study order, orientation flips and a joint rescale (criterion 10)."""
    rng = np.random.default_rng(seed)
    base = compare_models(ds)
    shift = 1 + int(rng.integers(ds.n_treatments - 1))
    other_reference = ds.treatments[(ds.treatments.index(ds.reference) + shift) % ds.n_treatments]
    flips = rng.random(ds.n_studies) < 0.5
    variants = {
        "reference": ds.studies,
        "order": tuple(ds.studies[j] for j in rng.permutation(ds.n_studies)),
        "orientation": tuple(flipped(o) if f else o for o, f in zip(ds.studies, flips)),
        "scale": tuple(o._replace(effect=c * o.effect, se=c * o.se) for o in ds.studies),
    }
    reports = {
        name: compare_models(NetworkDataset(
            ds.name, ds.measure, studies, other_reference if name == "reference" else ds.reference
        ))
        for name, studies in variants.items()
    }
    for report in reports.values():
        assert _invariant_stats(report) == pytest.approx(_invariant_stats(base), rel=1e-8, abs=1e-8)
        assert report.classification is base.classification
    assert reports["scale"].tau2 == pytest.approx(c**2 * base.tau2, rel=1e-8, abs=1e-10)
