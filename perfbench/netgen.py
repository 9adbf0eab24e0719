"""Fixed-seed synthetic two-arm treatment networks for the benchmark.

Every network is a random spanning tree over the treatments plus studies
drawn from a pool of about 2n treatment pairs that contains the tree. Each
pool pair gets at least one study, so the network has more designs than
spanning-tree edges (inconsistency is testable, df_inc > 0), and the rest of
the studies repeat pool pairs (heterogeneity is testable, df_het > 0).

Effects follow the additive random-effects model with tau = 0.3 and standard
errors drawn from U(0.2, 1.0); each study's arms are put in random order and
the effect measure rotates over MD, logOR and logRR.

Only numpy and the standard library are used, so the generator never depends
on the package under test.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

TAU = 0.3
SE_RANGE = (0.2, 1.0)
MEASURES = ("MD", "logOR", "logRR")

# (treatments, studies) of the two large size classes.
SIZE_100x2000 = (100, 2000)
SIZE_300x5000 = (300, 5000)


def _labels(n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"T{j:0{width}d}" for j in range(n)]


def _pair_pool(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Spanning-tree edges first, then random extra pairs up to about 2n in all."""
    order = rng.permutation(n)
    tree = [(int(order[int(rng.integers(0, j))]), int(order[j])) for j in range(1, n)]
    seen = {tuple(sorted(e)) for e in tree}
    target = min(2 * n, n * (n - 1) // 2)
    extra = []
    while len(seen) < target:
        a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
        key = (min(a, b), max(a, b))
        if key not in seen:
            seen.add(key)
            extra.append((a, b))
    return tree + extra


def network(
    rng: np.random.Generator, n: int, m: int, name: str, measure: str
) -> dict:
    """One connected network as a JSON-ready document with n treatments, m studies.

    ``m`` must exceed the pool size so that some design repeats.
    """
    if n < 3:
        raise ValueError("need at least three treatments for a loop")
    pool = _pair_pool(rng, n)
    if m <= len(pool):
        raise ValueError(f"m={m} must exceed the {len(pool)} pool pairs")
    picks = list(range(len(pool))) + [int(k) for k in rng.integers(0, len(pool), m - len(pool))]
    labels = _labels(n)
    d_true = rng.normal(0.0, 1.0, size=n)
    d_true[0] = 0.0
    se = rng.uniform(*SE_RANGE, size=m)
    noise = rng.normal(0.0, 1.0, size=m) * np.hypot(se, TAU)
    flip = rng.random(m) < 0.5
    studies = []
    for i, k in enumerate(picks):
        a, b = pool[k]
        y = float(d_true[b] - d_true[a] + noise[i])
        if flip[i]:
            a, b, y = b, a, -y
        studies.append(
            {
                "study_id": f"s{i + 1}",
                "treat_a": labels[a],
                "treat_b": labels[b],
                "effect": round(y, 6),
                "se": round(float(se[i]), 6),
            }
        )
    return {"name": name, "measure": measure, "reference": labels[0], "studies": studies}


def small_network(rng: np.random.Generator, index: int) -> dict:
    """Small class: n in [3, 25], m between pool size + 2 and 12 n."""
    n = int(rng.integers(3, 26))
    pool = min(2 * n, n * (n - 1) // 2)
    m = int(rng.integers(pool + 2, 12 * n + 1))
    return network(rng, n, m, f"syn{index:03d}", MEASURES[index % len(MEASURES)])


def large_network(seed: int, size: tuple[int, int], index: int = 0) -> dict:
    n, m = size
    rng = np.random.default_rng([seed, n, m, index])
    return network(rng, n, m, f"syn{n}x{m}-{index}", MEASURES[index % len(MEASURES)])


def small_networks(seed: int, count: int) -> list[dict]:
    rng = np.random.default_rng([seed, 0])
    return [small_network(rng, i) for i in range(count)]


def planted_files(seed: int) -> dict[str, str]:
    """Inputs that batch must turn into error rows or an untestable row.

    Returns file name -> file text: a disconnected network, malformed JSON, a
    study with a non-positive standard error, and a star whose every design
    has one study, plus one chord so the models still fit (untestable).
    """
    rng = np.random.default_rng([seed, 1])
    base = network(rng, 6, 20, "planted", "MD")

    disconnected = dict(base, name="planted-disconnected")
    disconnected["studies"] = base["studies"] + [
        {"study_id": "island", "treat_a": "X1", "treat_b": "X2", "effect": 0.1, "se": 0.5}
    ]
    bad_se = dict(base, name="planted-bad-se")
    bad_se["studies"] = [dict(s) for s in base["studies"]]
    bad_se["studies"][3]["se"] = 0.0

    spokes = [("T0", f"T{j}") for j in range(1, 6)] + [("T1", "T2")]
    untestable = {
        "name": "planted-untestable",
        "measure": "logOR",
        "reference": "T0",
        "studies": [
            {
                "study_id": f"s{i + 1}",
                "treat_a": a,
                "treat_b": b,
                "effect": round(float(rng.normal(0.0, 0.5)), 6),
                "se": round(float(rng.uniform(*SE_RANGE)), 6),
            }
            for i, (a, b) in enumerate(spokes)
        ],
    }
    return {
        "planted_disconnected.json": json.dumps(disconnected),
        "planted_malformed.json": json.dumps(base)[:-40],
        "planted_bad_se.json": json.dumps(bad_se),
        "planted_untestable.json": json.dumps(untestable),
    }


def write(doc: dict, path: Path) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path
