"""Shared fixtures: corpus datasets and randomized connected networks."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from nmacompare import (
    ContrastObservation,
    DesignMatrix,
    EffectMeasure,
    NetworkDataset,
    fit_fe,
    load_dataset,
    models,
    numerics,
    q_decompose,
)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

NSAID_PATH = CORPUS_DIR / "nsaid_pain_relief.json"
SMOKE_PATH = CORPUS_DIR / "smoke_alarm_interventions.json"
BIOLOGICS_PATH = CORPUS_DIR / "biologics_acr70.json"

# Reference per-study heterogeneity contributions for the NSAID network, in
# file order (3-significant-figure inputs, so recomputed values are checked
# to max(0.05, 2%) each).
NSAID_PER_STUDY = [
    0.908, 0.0528, 2.76,
    6.00, 2.03, 1.52, 5.12, 4.55,
    0.0225, 0.512, 3.06,
    0.321, 2.58, 0.0999, 4.33, 9.25, 0.0218,
    1.48, 1.24, 0.103, 3.36, 1.57, 23.3, 2.79, 0.00983, 0.815,
    0.0690, 3.50, 0.922,
]

_STUDY_JSON = '{{"study_id": "s1", "treat_a": "P", "treat_b": "A", "effect": {}, "se": {}}}'

# Inputs whose parsing once escaped as RecursionError, OverflowError, a plain
# ValueError or csv.Error: id -> (file suffix, content, part of the message).
ESCAPING_INPUTS = {
    "deep-json": (".json", "[" * 200_000 + "]" * 200_000, "invalid JSON: maximum recursion depth"),
    "huge-se": (
        ".json",
        '{"measure": "MD", "studies": [' + _STUDY_JSON.format("0.5", "9" * 400) + "]}",
        "study 1: effect or se is too large for a floating-point number",
    ),
    "huge-effect": (
        ".json",
        '{"measure": "MD", "studies": [' + _STUDY_JSON.format("9" * 400, "0.2") + "]}",
        "study 1: effect or se is too large for a floating-point number",
    ),
    "long-int-literal": (
        ".json",
        '{"measure": "MD", "studies": [' + _STUDY_JSON.format("1" * 5000, "0.2") + "]}",
        "invalid JSON: Exceeds the limit",
    ),
    "huge-total": (
        ".csv",
        "study_id,treatment,events,total\ns1,P,1," + "9" * 400 + "\ns1,A,2,10\n",
        "study 's1': counts too large for floating-point arithmetic",
    ),
    "long-field": (
        ".csv",
        "study_id,treat_a,treat_b,effect,se\n" + "x" * 140_000 + ",P,A,0.5,0.2\n",
        "CSV line 2: field larger than field limit",
    ),
}


def _md_network(rows) -> str:
    """JSON text of an MD network from (treat_a, treat_b, effect, se) rows, ids s1, s2, ..."""
    return json.dumps({"measure": "MD", "studies": [
        {"study_id": f"s{i}", "treat_a": a, "treat_b": b, "effect": y, "se": se}
        for i, (a, b, y, se) in enumerate(rows, start=1)
    ]})


def _four_study_md(effects, ses=(1, 1, 1, 1)) -> str:
    """JSON text of an MD network: two A-B then two B-C studies, every se 1 by default."""
    pairs = (("A", "B"), ("A", "B"), ("B", "C"), ("B", "C"))
    return _md_network([(a, b, y, se) for (a, b), y, se in zip(pairs, effects, ses)])


# The FE residuals are +-1e200, so Q_total and the FE log-likelihood overflow.
OVERFLOW_FE = _four_study_md([1e200, -1e200, 0.5, 0.7])
# Consistent, so FE, DL and ME fit; var(y) in the REML search bound overflows.
OVERFLOW_REML_BOUND = _four_study_md([1e160, 1e160, 2e160, 2e160])
# Two A-B weights of 1e308 sum past the float maximum in X'WX.
OVERFLOW_GRAM = _four_study_md([0.1, 0.2, 0.5, 0.7], ses=(1e-154, 1e-154, 1, 1))
# One A-B weight of 1e300: X'WX is finite, w^2 in the DL trace term is not.
OVERFLOW_DL_TRACE = _four_study_md([0.1, 0.2, 0.5, 0.7], ses=(1e-150, 1, 1, 1))
# Connected, but the B-C weight of 1e300 absorbs every other entry of X'WX,
# which is then singular in floating point.
SWAMPED_GRAM = _md_network(
    [("A", "B", 0.1, 1), ("A", "B", 0.2, 1), ("A", "C", 0.5, 1), ("B", "C", 0.7, 1e-150)]
)
# Weights 1 and 2^80: the full network fits; without s2, X'WX = 2^80 [[1, -1], [-1, 1]].
SWAMPED_GRAM_LOO = _md_network(
    [("A", "B", 0.1, 1), ("A", "B", 0.2, 2.0**-40), ("A", "C", 0.5, 1), ("B", "C", 0.7, 2.0**-40)]
)

# Leaving s5 out loses treatment D; leaving s6 out cuts {E,F} off; the rest refit.
LOO_CUTS = _md_network([
    ("A", "B", 0.1, 1), ("A", "B", 0.3, 0.5), ("A", "C", 0.5, 1), ("B", "C", 0.7, 0.8),
    ("C", "D", 0.2, 1), ("C", "E", 0.4, 1), ("E", "F", 0.3, 1), ("E", "F", 0.6, 1),
])
# Two P-A studies: either one left alone has no residual degrees of freedom.
LOO_NO_DF = _md_network([("P", "A", 0.0, 1), ("P", "A", 2.0, 1)])


# An inconsistent triangle with var(y) = 0: the REML search bound is 0.001,
# l_R still rises there (the DL tau^2 is 33.3).
_TRIANGLE = [("A", "B", 10, 0.01), ("B", "C", 10, 0.01), ("A", "C", 10, 0.01)]
REML_TOP_EDGE = _md_network(_TRIANGLE)
# The triangle plus one A-B study: REML fits, and leaving s4 out hits the edge.
REML_TOP_EDGE_LOO = _md_network(_TRIANGLE + [("A", "B", 30, 1)])


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS_DIR


@pytest.fixture(scope="session")
def nsaid() -> NetworkDataset:
    return load_dataset(NSAID_PATH)


@pytest.fixture(scope="session")
def smoke() -> NetworkDataset:
    return load_dataset(SMOKE_PATH)


@pytest.fixture(scope="session")
def biologics() -> NetworkDataset:
    return load_dataset(BIOLOGICS_PATH)


def make_dataset(rows, measure=EffectMeasure.MD, name="test", reference=""):
    """Dataset from (treat_a, treat_b, effect, se) tuples with row ids s1, s2, ..."""
    studies = tuple(
        ContrastObservation(f"s{i + 1}", a, b, y, s) for i, (a, b, y, s) in enumerate(rows)
    )
    return NetworkDataset(name, measure, studies, reference)


def flipped(obs: ContrastObservation) -> ContrastObservation:
    """Same study with arms swapped and the effect negated."""
    return ContrastObservation(obs.study_id, obs.treat_b, obs.treat_a, -obs.effect, obs.se)


def single_pair(effects, ses, measure=EffectMeasure.MD):
    """All studies compare the same two treatments P (baseline) and A."""
    return make_dataset(
        [("P", "A", y, s) for y, s in zip(effects, ses)], measure, reference="P"
    )


def random_network(
    rng: np.random.Generator,
    max_treatments: int = 8,
    max_studies: int = 40,
    se_range: tuple[float, float] = (0.3, 1.5),
    random_orientation: bool = True,
) -> NetworkDataset:
    """Random connected two-arm network with at least one residual degree of freedom.

    A spanning tree guarantees connectivity; extra studies over random pairs
    add repeated designs and loops.
    """
    n = int(rng.integers(2, max_treatments + 1))
    treatments = [f"T{j}" for j in range(n)]
    edges = []
    for j in range(1, n):
        k = int(rng.integers(0, j))
        edges.append((treatments[k], treatments[j]))
    m = int(rng.integers(n, max_studies + 1))
    while len(edges) < m:
        a, b = rng.choice(n, size=2, replace=False)
        edges.append((treatments[int(a)], treatments[int(b)]))

    d_true = rng.normal(0.0, 1.0, size=n)
    d_true[0] = 0.0
    index = {t: j for j, t in enumerate(treatments)}
    tau = float(rng.uniform(0.0, 0.8))
    studies = []
    for i, (a, b) in enumerate(edges):
        se = float(rng.uniform(*se_range))
        mean = d_true[index[b]] - d_true[index[a]]
        y = float(rng.normal(mean, math.hypot(se, tau)))
        if random_orientation and rng.random() < 0.5:
            a, b, y = b, a, -y
        studies.append(ContrastObservation(f"s{i + 1}", a, b, y, se))
    measure = (EffectMeasure.MD, EffectMeasure.LOG_OR, EffectMeasure.LOG_RR)[
        int(rng.integers(0, 3))
    ]
    return NetworkDataset("sim", measure, tuple(studies))


def large_random_network() -> NetworkDataset:
    """A fixed ``random_network`` draw with 29 treatments and 198 studies."""
    return random_network(np.random.default_rng(29), max_treatments=30, max_studies=200)


def dense_design(x: DesignMatrix) -> np.ndarray:
    """Test oracle: the dense m x cols design matrix X of ``x``, read-only.

    Row i has +1 in column ``b_idx[i]`` and -1 in column ``a_idx[i]``; the
    reference's dummy column ``cols`` is dropped.
    """
    rows = np.arange(len(x.a_idx))
    mat = np.zeros((len(rows), x.cols + 1))
    mat[rows, x.b_idx] = 1.0
    mat[rows, x.a_idx] = -1.0
    mat = mat[:, :-1].copy()
    mat.setflags(write=False)
    return mat


def newton_terms(ds: NetworkDataset, tau2: float):
    """Test oracle: l_R, its score and the observed information at ``tau2``, the terms of a
    REML Newton step, from the GLS fit of ``models._gls_rows`` and the projection formulas.

    With W = (V + tau2 I)^-1, C = (X'WX)^-1, P = W - W X C X' W and r the GLS
    residuals (so P y = W r): score = 1/2 [(Wr)'(Wr) - tr P] and information
    = y' P^3 y - 1/2 tr P^2. tr P and tr P^2 = sum w^2 - 2 sum w^3 lev +
    tr((C L2)^2) come from the leverages lev_i = x_i' C x_i and L2 = X'W^2X;
    y' P^3 y is the weighted residual sum of squares of a GLS fit of P y.
    """
    x, y = ds.design, ds.effects()
    sigma2 = ds.variances() + tau2
    fit = models._gls_rows(x, y, sigma2)
    w = 1.0 / sigma2
    c = models._cov(fit.lower)
    resid = y - fit.fitted
    py = w * resid
    value = models._restricted_loglik(sigma2, fit.log_det, resid)
    w2 = w * w
    lev = models._leverages(x, c)
    tr_p = np.sum(w - w2 * lev, axis=-1)
    score = 0.5 * (np.sum(py * py, axis=-1) - tr_p)
    ppy = py - models._x_times(x, (c @ models._xt(x, w * py)[..., None])[..., 0])
    k = c @ models._gram(x, w2)
    tr_p2 = (
        np.sum(w2, axis=-1) - 2.0 * np.sum(w2 * w * lev, axis=-1)
        + np.sum(k * np.swapaxes(k, -2, -1), axis=(-2, -1))
    )
    info = np.sum(w * ppy * ppy, axis=-1) - 0.5 * tr_p2
    return value, score, info


def gaussian_log_lik(y, mean, variances) -> float:
    """Test oracle: the log-likelihood of ``y`` under independent normals with means ``mean``
    and ``variances``, summed term by term: -1/2 [log(2 pi v_i) + (y_i - mu_i)^2 / v_i]."""
    return math.fsum(
        -0.5 * (math.log(2.0 * math.pi * v) + (yi - mu) ** 2 / v)
        for yi, mu, v in zip(y, mean, variances)
    )


def decompose(ds: NetworkDataset):
    """Convenience: (design matrix, FE fit, Q decomposition) for a dataset."""
    fe = fit_fe(ds)
    return ds.design, fe, q_decompose(ds, fe)


def reml_restricted_loglik_grid(ds, grid):
    """Independent batched restricted log-likelihood over tau^2 values.

    Test oracle: recomputes -1/2 [log det(Sigma) + log det(X' Sigma^-1 X)
    + r' Sigma^-1 r] from scratch with stacked linear algebra, without
    touching the production objective code.
    """
    y = ds.effects()
    v = ds.variances()
    mat = dense_design(ds.design)
    grid = np.asarray(grid, dtype=float)
    out = np.empty(grid.size)
    for start in range(0, grid.size, 2048):
        chunk = grid[start : start + 2048]
        sig = v[None, :] + chunk[:, None]
        xs = mat[None, :, :] / sig[:, :, None]
        gram = np.einsum("mp,gmq->gpq", mat, xs)
        rhs = np.einsum("gmp,m->gp", xs, y)
        # numpy >= 2 treats 2-D b as a matrix, so solve one explicit column
        d = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
        resid = y[None, :] - np.einsum("mp,gp->gm", mat, d)
        quad = np.sum(resid * resid / sig, axis=1)
        _, logdet = np.linalg.slogdet(gram)
        out[start : start + chunk.size] = -0.5 * (
            np.sum(np.log(sig), axis=1) + logdet + quad
        )
    return out


def reml_grid_argmax(ds, hi, points=100_001, refinements=2):
    """Grid-search oracle for the REML maximizer: dense scan plus refinement."""
    grid = np.linspace(0.0, hi, points)
    values = reml_restricted_loglik_grid(ds, grid)
    best = float(grid[int(np.argmax(values))])
    spacing = float(grid[1] - grid[0])
    for _ in range(refinements):
        grid = np.linspace(max(0.0, best - spacing), best + spacing, 10_001)
        values = reml_restricted_loglik_grid(ds, grid)
        best = float(grid[int(np.argmax(values))])
        spacing = float(grid[1] - grid[0])
    return best


def enumerate_small_connected_networks(max_m: int = 6, seed: int = 31):
    """Every connected multigraph on up to four treatments with m <= max_m studies.

    Yields (rows, dataset) pairs; effects and standard errors come from a
    fixed-seed stream so the enumeration is reproducible. Rows are generated
    in canonical orientation.
    """
    from itertools import combinations, combinations_with_replacement

    from nmacompare import connected_components

    labels = ("A", "B", "C", "D")
    pairs = [(labels[i], labels[j]) for i, j in combinations(range(4), 2)]
    rng = np.random.default_rng(seed)
    for m in range(1, max_m + 1):
        for combo in combinations_with_replacement(pairs, m):
            nodes = sorted({t for pair in combo for t in pair})
            if len(connected_components(nodes, combo)) > 1:
                continue
            rows = [
                (a, b, float(rng.normal()), float(rng.uniform(0.3, 1.5)))
                for a, b in combo
            ]
            yield rows, make_dataset(rows, measure=EffectMeasure.MD)


def classical_cochran_q(rows) -> float:
    """Textbook per-design Cochran Q, summed over designs.

    Uses the uncentered identity Q = sum(w y^2) - (sum(w y))^2 / sum(w), a
    different algebraic route than the centered implementation formula, so it
    serves as an independent oracle.
    """
    groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for a, b, y, s in rows:
        groups.setdefault((a, b), []).append((y, s))
    total = 0.0
    for members in groups.values():
        w = np.array([1.0 / s**2 for _, s in members])
        y = np.array([y for y, _ in members])
        total += float(np.sum(w * y**2) - np.sum(w * y) ** 2 / np.sum(w))
    return total


def blas_threads() -> int:
    """The BLAS thread count of the calling thread, read by setting it and back."""
    set_threads = numerics._openblas_thread_setter()
    current = set_threads(1)
    set_threads(current)
    return current


needs_openblas_threads = pytest.mark.skipif(
    numerics._openblas_thread_setter() is None, reason="numpy's BLAS is not OpenBLAS 0.3.27+"
)


@pytest.fixture
def two_blas_threads():
    """Two BLAS threads for the calling thread during the test, then the previous count."""
    set_threads = numerics._openblas_thread_setter()
    previous = set_threads(2)
    yield
    set_threads(previous)
