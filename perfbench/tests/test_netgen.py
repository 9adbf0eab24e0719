"""Tests for the benchmark's network generator and output checks.

Run from the root of a checkout: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import netgen  # noqa: E402


def components(studies: list[dict]) -> int:
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    for s in studies:
        parent[find(s["treat_a"])] = find(s["treat_b"])
    return len({find(x) for x in list(parent)})


def shape(doc: dict) -> tuple[int, int, int]:
    """(treatments, studies, designs) of a network document."""
    studies = doc["studies"]
    treatments = {t for s in studies for t in (s["treat_a"], s["treat_b"])}
    designs = {frozenset((s["treat_a"], s["treat_b"])) for s in studies}
    return len(treatments), len(studies), len(designs)


def test_same_seed_same_networks():
    assert netgen.small_networks(5, 30) == netgen.small_networks(5, 30)
    assert netgen.large_network(5, netgen.SIZE_100x2000) == netgen.large_network(5, netgen.SIZE_100x2000)
    assert netgen.planted_files(5) == netgen.planted_files(5)


def test_other_seed_other_networks():
    assert netgen.small_networks(5, 10) != netgen.small_networks(6, 10)
    assert netgen.large_network(5, netgen.SIZE_100x2000) != netgen.large_network(6, netgen.SIZE_100x2000)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_small_networks_connected_and_testable(seed):
    docs = netgen.small_networks(seed, 180)
    assert [d["measure"] for d in docs[:3]] == list(netgen.MEASURES)
    for doc in docs:
        n, m, c = shape(doc)
        assert components(doc["studies"]) == 1
        assert 3 <= n <= 25 and m <= 12 * n
        assert c > n - 1, "df_inc > 0 needs more designs than tree edges"
        assert m > c, "df_het > 0 needs a repeated design"
        assert all(0.2 <= s["se"] <= 1.0 for s in doc["studies"])


@pytest.mark.parametrize("size", [netgen.SIZE_100x2000, netgen.SIZE_300x5000])
def test_large_networks_have_their_size(size):
    doc = netgen.large_network(1, size)
    n, m, c = shape(doc)
    assert (n, m) == size
    assert components(doc["studies"]) == 1
    assert n - 1 < c < m
    assert doc["reference"] == min(t for s in doc["studies"] for t in (s["treat_a"], s["treat_b"]))


def test_planted_files():
    files = netgen.planted_files(1)
    with pytest.raises(json.JSONDecodeError):
        json.loads(files["planted_malformed.json"])
    assert components(json.loads(files["planted_disconnected.json"])["studies"]) == 2
    assert min(s["se"] for s in json.loads(files["planted_bad_se.json"])["studies"]) == 0.0
    n, m, c = shape(json.loads(files["planted_untestable.json"]))
    assert m == c and c > n - 1, "one study per design, with a loop"


@pytest.fixture(scope="module")
def nsaid_reml(tmp_path_factory):
    from nmacompare.cli import main

    out = tmp_path_factory.mktemp("out") / "reml.json"
    corpus = BENCH.parent / "corpus" / "nsaid_pain_relief.json"
    assert main(["compare", str(corpus), "--tau-method", "reml", "--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


def test_checks_accept_the_recorded_reference(nsaid_reml):
    assert checks.corpus_compare(nsaid_reml, "nsaid_pain_relief", "reml", checks.load_reference()) is None


@pytest.mark.parametrize(
    "key, value", [("tau2", 0.19), ("classification", "me_preferred"), ("delta_aic", -13.2)]
)
def test_checks_reject_a_planted_wrong_reference(nsaid_reml, key, value):
    ref = copy.deepcopy(checks.load_reference())
    ref["corpus"]["nsaid_pain_relief"]["reml"][key] = value
    assert checks.corpus_compare(nsaid_reml, "nsaid_pain_relief", "reml", ref) is not None


def test_checks_reject_broken_invariants(nsaid_reml):
    doc = copy.deepcopy(nsaid_reml)
    doc["q"]["inc"] += 1e-3
    assert checks.report_invariants(doc) is not None
    doc = copy.deepcopy(nsaid_reml)
    first = next(iter(doc["models"][2]["d_hat"]))
    doc["models"][2]["d_hat"][first]["est"] += 1e-12
    assert "ME and FE" in checks.report_invariants(doc)
