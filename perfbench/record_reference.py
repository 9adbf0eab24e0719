"""Record the reference values the output checks compare against.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/record_reference.py

It writes ``perfbench/reference.json``: for each corpus network the DL and
REML comparison (tau^2, delta AIC, classification) and the REML
leave-one-out table's skipped rows and classifications; for the reference
seed the two large synthetic comparisons and every batch summary row.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import sys
from pathlib import Path

import netgen
import workloads
from checks import REFERENCE_PATH

sys.path.insert(0, str(workloads.SRC))
from nmacompare.cli import main  # noqa: E402


def cli(argv: list[str]) -> None:
    if main(argv) != 0:
        raise SystemExit(f"nma {' '.join(argv)} failed")


def _compare(path: Path, method: str, out: Path) -> dict:
    cli(["compare", str(path), "--tau-method", method, "--out", str(out)])
    doc = json.loads(out.read_text(encoding="utf-8"))
    return {
        "tau2": doc["models"][1]["hetero"]["tau2"],
        "delta_aic": doc["delta_aic"],
        "classification": doc["classification"],
        "q_het": doc["q"]["het"],
        "q_total": doc["q"]["total"],
    }


def record(work: Path, seed: int = workloads.REFERENCE_SEED) -> dict:
    ref: dict = {"seed": seed, "corpus": {}, "synthetic": {}}
    for stem in workloads.STEMS:
        path = workloads.CORPUS / f"{stem}.json"
        entry = {method: _compare(path, method, work / "c.json") for method in ("dl", "reml")}
        cli(["loo", str(path), "--tau-method", "reml", "--out", str(work / "loo.csv")])
        rows = list(csv.DictReader(io.StringIO((work / "loo.csv").read_text(encoding="utf-8"))))
        entry["loo_reml"] = {
            "skipped": [r["study_id"] for r in rows if r["skipped"] == "yes"],
            "classification": [r["classification"] for r in rows],
        }
        ref["corpus"][stem] = entry
    for method, size in (("dl", netgen.SIZE_300x5000), ("reml", netgen.SIZE_100x2000)):
        path = netgen.write(netgen.large_network(seed, size), work / "large.json")
        ref["synthetic"][f"{method}_{size[0]}x{size[1]}"] = _compare(path, method, work / "c.json")
    batch = workloads.BatchDir(work / "batch", seed, ref)
    batch.setup()
    cli(["batch", str(batch.inputs), "--jobs", "1", "--out-dir", str(work / "b")])
    rows = csv.DictReader(io.StringIO((work / "b" / "summary.csv").read_text(encoding="utf-8")))
    ref["batch_rows"] = [[r["name"], r["screen"], r["classification"], r["error"]] for r in rows]
    return ref


if __name__ == "__main__":
    scratch = workloads.ROOT / ".perfbench_work" / "record"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        REFERENCE_PATH.write_text(json.dumps(record(scratch), indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(scratch)
    print(f"wrote {REFERENCE_PATH}")
