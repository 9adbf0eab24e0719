"""Output checks behind ``failed``: every operation's output is verified here.

Each check returns None when the output is right and a one-line reason when
it is not. The corpus networks are held to the acceptance-suite values at the
suite's tolerances; synthetic networks from the reference seed are held to
values recorded in ``reference.json``; every seed gets invariant checks.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from xml.etree import ElementTree

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Corpus stem -> acceptance values as (value, absolute tolerance), from
# tests/test_acceptance.py. Q_het does not depend on the tau method.
ACCEPTANCE = {
    "nsaid_pain_relief": {
        "m": 29, "n": 7, "q_het": (82.25, 1.0), "df_het": 23,
        "delta_aic_dl": (-11.84, 0.5), "classification_dl": "me_strong",
    },
    "smoke_alarm_interventions": {
        "m": 20, "n": 7, "q_het": (23.51, 0.5), "df_het": 10,
        "p_het": (0.009, 0.002), "delta_aic_dl": (-9.02, 0.5),
    },
    "biologics_acr70": {
        "m": 32, "n": 9, "q_het": (190.15, 2.0),
        "delta_aic_dl": (11.47, 0.5), "classification_dl": "re_strong",
    },
}
NSAID_WITHOUT_ROW23 = {"q_het": (58.53, 1.0), "delta_aic": (-6.53, 0.5)}

TAU2_TOL = 1e-4
RECORDED_REL_TOL = 1e-6


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _off(got, target: tuple[float, float]) -> bool:
    value, tol = target
    return got is None or not abs(got - value) <= tol


def _close(got, want, rel: float = RECORDED_REL_TOL, abs_tol: float = 1e-9) -> bool:
    return got is not None and want is not None and math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol)


def report_invariants(doc: dict) -> str | None:
    """Invariants every compare report satisfies, whatever the data."""
    q = doc["q"]
    if not _close(q["total"], q["het"] + q["inc"], rel=1e-8, abs_tol=1e-10):
        return f"Q_total {q['total']!r} != Q_het + Q_inc {q['het'] + q['inc']!r}"
    kinds = [fit["kind"] for fit in doc["models"]]
    if len(kinds) != 3 or kinds[0] != "FE" or kinds[2] != "ME":
        return f"unexpected model list {kinds}"
    fe, me = doc["models"][0]["d_hat"], doc["models"][2]["d_hat"]
    if fe.keys() != me.keys() or any(fe[t]["est"] != me[t]["est"] for t in fe):
        return "ME and FE point estimates differ"
    return None


def corpus_q(doc: dict, stem: str) -> str | None:
    acc = ACCEPTANCE[stem]
    q = doc["q"]
    if doc["m"] != acc["m"] or doc["n"] != acc["n"]:
        return f"{stem}: shape m={doc['m']} n={doc['n']}"
    if _off(q["het"], acc["q_het"]):
        return f"{stem}: Q_het {q['het']!r} outside {acc['q_het']}"
    if "df_het" in acc and q["df_het"] != acc["df_het"]:
        return f"{stem}: df_het {q['df_het']}"
    if "p_het" in acc and _off(q.get("p_het"), acc["p_het"]):
        return f"{stem}: p_het {q.get('p_het')!r} outside {acc['p_het']}"
    return None


def corpus_compare(doc: dict, stem: str, method: str, ref: dict) -> str | None:
    """A corpus compare report (``method`` 'dl' or 'reml') against acceptance and reference."""
    problem = report_invariants(doc) or corpus_q(doc, stem)
    if problem:
        return problem
    acc, rec = ACCEPTANCE[stem], ref["corpus"][stem][method]
    if method == "dl" and _off(doc["delta_aic"], acc["delta_aic_dl"]):
        return f"{stem}: DL delta AIC {doc['delta_aic']!r} outside {acc['delta_aic_dl']}"
    if method == "dl" and "classification_dl" in acc and doc["classification"] != acc["classification_dl"]:
        return f"{stem}: DL classification {doc['classification']!r}"
    if doc["classification"] != rec["classification"]:
        return f"{stem}: {method} classification {doc['classification']!r} != {rec['classification']!r}"
    tau2 = doc["models"][1]["hetero"]["tau2"]
    if not abs(tau2 - rec["tau2"]) <= TAU2_TOL:
        return f"{stem}: {method} tau2 {tau2!r} != {rec['tau2']!r}"
    if not abs(doc["delta_aic"] - rec["delta_aic"]) <= TAU2_TOL:
        return f"{stem}: {method} delta AIC {doc['delta_aic']!r} != {rec['delta_aic']!r}"
    return None


def corpus_exclude_row23(doc: dict) -> str | None:
    problem = report_invariants(doc)
    if problem:
        return problem
    if doc.get("excluded") != ["row23"]:
        return f"excluded {doc.get('excluded')!r}"
    if _off(doc["q"]["het"], NSAID_WITHOUT_ROW23["q_het"]):
        return f"NSAID without row23: Q_het {doc['q']['het']!r}"
    if _off(doc["delta_aic"], NSAID_WITHOUT_ROW23["delta_aic"]):
        return f"NSAID without row23: delta AIC {doc['delta_aic']!r}"
    return None


def corpus_fit_reml(doc: dict, stem: str, ref: dict) -> str | None:
    problem = corpus_q(doc, stem)
    if problem:
        return problem
    models = doc["models"]
    if len(models) != 1 or models[0]["kind"] != "RE-REML":
        return f"{stem}: fit models {[f['kind'] for f in models]}"
    want = ref["corpus"][stem]["reml"]["tau2"]
    if not abs(models[0]["hetero"]["tau2"] - want) <= TAU2_TOL:
        return f"{stem}: fit tau2 {models[0]['hetero']['tau2']!r} != {want!r}"
    return None


def corpus_validate(doc: dict, stem: str) -> str | None:
    acc = ACCEPTANCE[stem]
    if (doc.get("m"), doc.get("n"), doc.get("connected")) != (acc["m"], acc["n"], True):
        return f"{stem}: validate gave {doc!r}"
    return None


def corpus_qdecomp(doc: dict, per_study_csv: str, stem: str) -> str | None:
    problem = corpus_q(doc, stem)
    if problem:
        return problem
    rows = list(csv.reader(io.StringIO(per_study_csv)))
    if len(rows) != ACCEPTANCE[stem]["m"] + 1 or rows[0][-1] != "q_het_i":
        return f"{stem}: per-study CSV has {len(rows)} rows"
    total = sum(float(r[-1]) for r in rows[1:])
    if not _close(total, doc["q"]["het"], rel=1e-4):
        return f"{stem}: per-study CSV sums to {total!r}"
    return None


def svg(text: str) -> str | None:
    try:
        root = ElementTree.fromstring(text.encode("utf-8"))
    except ElementTree.ParseError as exc:
        return f"SVG output is not well-formed XML: {exc}"
    if root.tag != "{http://www.w3.org/2000/svg}svg" or len(root) == 0:
        return f"output is not an SVG drawing (root {root.tag!r})"
    return None


def corpus_loo(table: str, stem: str, ref: dict) -> str | None:
    """Leave-one-out CSV (REML): shape, skipped rows and classifications exactly."""
    rec = ref["corpus"][stem]["loo_reml"]
    acc = ACCEPTANCE[stem]
    rows = list(csv.DictReader(io.StringIO(table)))
    if [r["study_id"] for r in rows] != [f"row{i + 1}" for i in range(acc["m"])]:
        return f"{stem}: LOO rows {len(rows)}"
    skipped = [r["study_id"] for r in rows if r["skipped"] == "yes"]
    if skipped != rec["skipped"]:
        return f"{stem}: LOO skipped {skipped} != {rec['skipped']}"
    classes = [r["classification"] for r in rows]
    if classes != rec["classification"]:
        return f"{stem}: LOO classifications differ from the reference"
    baseline_delta = ref["corpus"][stem]["reml"]["delta_aic"]
    for r in rows:
        if r["skipped"] == "yes":
            continue
        base_q = float(r["q_het"]) - float(r["q_het_delta"])
        base_d = float(r["delta_aic"]) - float(r["delta_aic_delta"])
        if _off(base_q, acc["q_het"]) or not abs(base_d - baseline_delta) <= 1e-3:
            return f"{stem}: LOO baseline differs in {r['study_id']}"
        if stem == "nsaid_pain_relief" and r["study_id"] == "row23":
            if _off(float(r["q_het"]), NSAID_WITHOUT_ROW23["q_het"]):
                return f"NSAID LOO row23: Q_het {r['q_het']}"
    return None


def synthetic_compare(doc: dict, name: str, method: str, n: int, m: int, ref: dict | None) -> str | None:
    """A large synthetic compare report; ``ref`` is the recorded entry or None."""
    problem = report_invariants(doc)
    if problem:
        return f"{name}: {problem}"
    q = doc["q"]
    if (doc["n"], doc["m"]) != (n, m) or q["df_het"] <= 0 or q["df_inc"] <= 0:
        return f"{name}: n={doc['n']} m={doc['m']} df_het={q['df_het']} df_inc={q['df_inc']}"
    if doc.get("tau_method") != method.upper():
        return f"{name}: tau method {doc.get('tau_method')!r}"
    if ref is None:
        return None
    if doc["classification"] != ref["classification"]:
        return f"{name}: classification {doc['classification']!r} != {ref['classification']!r}"
    for key, got in (("q_het", q["het"]), ("q_total", q["total"]), ("delta_aic", doc["delta_aic"])):
        if not _close(got, ref[key]):
            return f"{name}: {key} {got!r} != {ref[key]!r}"
    tau2 = doc["models"][1]["hetero"]["tau2"]
    if not abs(tau2 - ref["tau2"]) <= TAU2_TOL:
        return f"{name}: tau2 {tau2!r} != {ref['tau2']!r}"
    return None


PLANTED_ERRORS = {
    "planted_disconnected": "disconnected network",
    "planted_malformed": "invalid JSON",
    "planted_bad_se": "non-positive standard error",
}
CORPUS_NAMES = {
    "nsaid-pain-relief": "nsaid_pain_relief",
    "smoke-alarm-interventions": "smoke_alarm_interventions",
    "biologics-acr70": "biologics_acr70",
}


def batch_summary(summary: str, expected_rows: int, ref_rows: list | None) -> str | None:
    """summary.csv of a batch pass: planted rows, corpus rows, recorded rows."""
    rows = list(csv.DictReader(io.StringIO(summary)))
    if len(rows) != expected_rows:
        return f"batch: {len(rows)} rows, expected {expected_rows}"
    errors = {r["name"]: r["error"] for r in rows if r["error"]}
    if errors.keys() != PLANTED_ERRORS.keys():
        return f"batch: error rows {sorted(errors)}"
    for name, text in PLANTED_ERRORS.items():
        if text not in errors[name]:
            return f"batch: {name} error {errors[name]!r}"
    by_name = {r["name"]: r for r in rows}
    untestable = by_name.get("planted-untestable")
    if untestable is None or untestable["screen"] != "untestable" or untestable["classification"]:
        return "batch: planted untestable network not reported as untestable"
    for name, stem in CORPUS_NAMES.items():
        row, acc = by_name.get(name), ACCEPTANCE[stem]
        if row is None or _off(float(row["q_het"]), acc["q_het"]) or _off(float(row["delta_aic"]), acc["delta_aic_dl"]):
            return f"batch: corpus row {name} wrong"
    if ref_rows is not None:
        got = [[r["name"], r["screen"], r["classification"], r["error"]] for r in rows]
        if got != ref_rows:
            return "batch: rows differ from the recorded reference"
    return None
