"""The four benchmark workloads: their inputs, operations and output checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. An operation is one or more ``nma``
commands (steps); each step names the files it writes and a check that
verifies them. Inputs are written into a work directory before timing starts.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import netgen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
STEMS = ("nsaid_pain_relief", "smoke_alarm_interventions", "biologics_acr70")
MEASURES = {"nsaid_pain_relief": "logRR", "smoke_alarm_interventions": "logOR", "biologics_acr70": "logOR"}
REFERENCE_SEED = 1
BATCH_SMALL_NETWORKS = 180
STEP_TIMEOUT_S = 120


def child_env(**extra: str) -> dict[str, str]:
    """The caller's environment with the checkout's sources first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(extra)
    return env


@dataclass
class Step:
    label: str
    argv: list[str]
    check: Callable[[int | None, str], str | None]
    outputs: tuple[Path, ...] = ()


@dataclass
class Op:
    kind: str
    steps: list[Step]
    items: int = 1


@dataclass
class Sample:
    op: Op
    seconds: float
    step_seconds: list[float] = field(default_factory=list)
    failure: str | None = None


def run_step(step: Step, cold: bool) -> tuple[int | None, str, float]:
    """Run one command; returns (exit code, stderr text, wall seconds).

    The exit code is None when the command raised instead of returning; the
    traceback is then the stderr text, and the step's check fails it.
    """
    if cold:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "nmacompare.cli", *step.argv],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=STEP_TIMEOUT_S,
        )
        return proc.returncode, proc.stderr, time.perf_counter() - start
    import nmacompare.cli

    err = io.StringIO()
    code = None
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = nmacompare.cli.main(step.argv)
        except Exception:  # an unexpected exception is a failed operation, not a crash
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return code, err.getvalue(), elapsed


def run_op(op: Op, cold: bool) -> Sample:
    sample = Sample(op, 0.0)
    for step in op.steps:
        for path in step.outputs:  # a step that writes nothing must not pass on old output
            path.unlink(missing_ok=True)
        code, err, elapsed = run_step(step, cold)
        sample.seconds += elapsed
        sample.step_seconds.append(elapsed)
        try:
            problem = step.check(code, err)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problem = f"{step.label}: unreadable output ({type(exc).__name__}: {exc})"
        if problem and sample.failure is None:
            sample.failure = problem
    return sample


# ---------------------------------------------------------------------------
# Step builders
# ---------------------------------------------------------------------------

def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1][-200:] if lines else ""


def _exit_ok(label: str, code: int | None, err: str) -> str | None:
    return None if code == 0 else f"{label}: exit {code}: {_last_line(err)}"


def json_step(label: str, argv: list, out: Path, check: Callable[[dict], str | None]) -> Step:
    def verify(code: int | None, err: str) -> str | None:
        return _exit_ok(label, code, err) or check(json.loads(out.read_text(encoding="utf-8")))

    return Step(label, [str(a) for a in argv] + ["--out", str(out)], verify, (out,))


def text_step(label: str, argv: list, out: Path, check: Callable[[str], str | None]) -> Step:
    def verify(code: int | None, err: str) -> str | None:
        return _exit_ok(label, code, err) or check(out.read_text(encoding="utf-8"))

    return Step(label, [str(a) for a in argv] + ["--out", str(out)], verify, (out,))


def corpus_mix(work: Path, ref: dict) -> list[Op]:
    """The analyst's command mix over the three corpus networks, plus one bad file."""
    out = work / "out"
    ops = []
    for stem in STEMS:
        js, cs = work / f"{stem}.json", work / f"{stem}.csv"
        treatments = json.loads(js.read_text(encoding="utf-8"))["studies"]
        target = sorted({t for s in treatments for t in (s["treat_a"], s["treat_b"])})[1]
        steps = [
            json_step("validate", ["validate", js], out / f"{stem}-validate.json",
                      lambda d, s=stem: checks.corpus_validate(d, s)),
            json_step("compare", ["compare", js], out / f"{stem}-dl.json",
                      lambda d, s=stem: checks.corpus_compare(d, s, "dl", ref)),
            json_step("compare-csv", ["compare", cs, "--measure", MEASURES[stem]], out / f"{stem}-csv.json",
                      lambda d, s=stem: checks.corpus_compare(d, s, "dl", ref)),
            json_step("compare-reml", ["compare", js, "--tau-method", "reml"], out / f"{stem}-reml.json",
                      lambda d, s=stem: checks.corpus_compare(d, s, "reml", ref)),
            json_step("fit-reml", ["fit", js, "--model", "re", "--tau-method", "reml"],
                      out / f"{stem}-fit.json", lambda d, s=stem: checks.corpus_fit_reml(d, s, ref)),
            text_step("plot-forest", ["plot", js, "--kind", "forest", "--target", target],
                      out / f"{stem}-forest.svg", checks.svg),
            text_step("plot-network", ["plot", js, "--kind", "network"], out / f"{stem}-network.svg", checks.svg),
        ]
        per_study = out / f"{stem}-per-study.csv"
        qdecomp = json_step(
            "qdecomp", ["qdecomp", js, "--csv", per_study], out / f"{stem}-qdecomp.json",
            lambda d, s=stem, p=per_study: checks.corpus_qdecomp(d, p.read_text(encoding="utf-8"), s),
        )
        qdecomp.outputs += (per_study,)
        steps.append(qdecomp)
        ops.extend(Op(step.label, [step]) for step in steps)
    ops.append(Op("compare-exclude", [json_step(
        "compare-exclude", ["compare", work / "nsaid_pain_relief.json", "--exclude", "row23"],
        out / "nsaid-exclude.json", checks.corpus_exclude_row23,
    )]))

    def malformed(code: int | None, err: str) -> str | None:
        if code != 1 or not err.startswith("error:") or "invalid JSON" not in err:
            return f"malformed input: exit {code}: {_last_line(err)}"
        return None

    ops.append(Op("malformed", [Step("malformed", ["validate", str(work / "malformed.json")], malformed)]))
    return ops


def copy_corpus(work: Path) -> None:
    """The corpus files the command mix reads, plus a truncated (malformed) copy."""
    for stem in STEMS:
        for suffix in (".json", ".csv"):
            shutil.copyfile(CORPUS / f"{stem}{suffix}", work / f"{stem}{suffix}")
    text = (CORPUS / "nsaid_pain_relief.json").read_text(encoding="utf-8")
    (work / "malformed.json").write_text(text[: len(text) // 2], encoding="utf-8")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Inputs in ``work``, built from ``seed`` by ``setup()``; ``ops()`` is the measured cycle."""

    name = ""
    cold = False  # operations run as fresh interpreter processes

    def __init__(self, work: Path, seed: int, ref: dict) -> None:
        self.work, self.seed, self.ref = work, seed, ref
        self.rng = np.random.default_rng([seed, 7])
        self._ops: list[Op] = []
        (work / "out").mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        return self._ops

    def warm_up(self) -> Sample:
        return run_op(self.ops()[0], self.cold)


class CliCorpus(Workload):
    """Cold ``python -m nmacompare.cli`` processes over the corpus command mix."""

    name = "cli-corpus"
    cold = True

    def setup(self) -> None:
        copy_corpus(self.work)
        self._ops = corpus_mix(self.work, self.ref)
        order = self.rng.permutation(len(self._ops))
        self._ops = [self._ops[i] for i in order]


class LooCorpus(Workload):
    """Warm ``loo --tau-method reml``, rotating over the three corpus networks."""

    name = "loo-corpus"

    def setup(self) -> None:
        copy_corpus(self.work)
        start = int(self.rng.integers(0, len(STEMS)))
        stems = STEMS[start:] + STEMS[:start]
        self._ops = [
            Op(f"loo-{stem}", [text_step(
                "loo", ["loo", self.work / f"{stem}.json", "--tau-method", "reml"],
                self.work / "out" / f"{stem}-loo.csv",
                lambda t, s=stem: checks.corpus_loo(t, s, self.ref),
            )])
            for stem in stems
        ]


class LargeNetwork(Workload):
    """Warm ``compare``: DL at 300 x 5000, then REML at 100 x 2000, as one operation."""

    name = "large-network"

    def setup(self) -> None:
        recorded = self.ref.get("synthetic") if self.seed == REFERENCE_SEED else None
        steps = []
        for method, size in (("dl", netgen.SIZE_300x5000), ("reml", netgen.SIZE_100x2000)):
            doc = netgen.large_network(self.seed, size)
            path = netgen.write(doc, self.work / f"{doc['name']}.json")
            want = recorded[f"{method}_{size[0]}x{size[1]}"] if recorded else None
            steps.append(json_step(
                f"compare-{method}", ["compare", path, "--tau-method", method],
                self.work / "out" / f"{doc['name']}-{method}.json",
                lambda d, name=doc["name"], m=method, s=size, w=want:
                    checks.synthetic_compare(d, name, m, s[0], s[1], w),
            ))
        self._ops = [Op("compare-pair", steps)]

    def warm_up(self) -> Sample:
        # the DL step alone: warms BLAS and the allocator without a REML search
        return run_op(Op("warm-up", self._ops[0].steps[:1]), cold=False)


class BatchDir(Workload):
    """Warm ``batch --jobs 2`` over small synthetic networks, the corpus and planted files."""

    name = "batch-dir"

    def setup(self) -> None:
        self.inputs = self.work / "networks"
        self.inputs.mkdir()
        for doc in netgen.small_networks(self.seed, BATCH_SMALL_NETWORKS):
            netgen.write(doc, self.inputs / f"{doc['name']}.json")
        for stem in STEMS:
            shutil.copyfile(CORPUS / f"{stem}.json", self.inputs / f"{stem}.json")
        for file_name, text in netgen.planted_files(self.seed).items():
            (self.inputs / file_name).write_text(text, encoding="utf-8")
        self.count = sum(1 for _ in self.inputs.glob("*.json"))
        self.serial = self.work / "serial"
        self._ops = [Op("batch", [self.batch_step(2, self.work / "out")], items=self.count)]

    def batch_step(self, jobs: int, out_dir: Path) -> Step:
        recorded = self.ref.get("batch_rows") if self.seed == REFERENCE_SEED else None

        def verify(code: int | None, err: str) -> str | None:
            problem = _exit_ok("batch", code, err)
            if problem:
                return problem
            summary = (out_dir / "summary.csv").read_bytes()
            problem = checks.batch_summary(summary.decode("utf-8"), self.count, recorded)
            if problem or jobs == 1:
                return problem
            for name in ("summary.csv", "histogram.json"):
                if (out_dir / name).read_bytes() != (self.serial / name).read_bytes():
                    return f"batch: {name} differs between --jobs 1 and --jobs {jobs}"
            return None

        argv = ["batch", str(self.inputs), "--jobs", str(jobs), "--out-dir", str(out_dir)]
        return Step("batch", argv, verify, (out_dir / "summary.csv", out_dir / "histogram.json"))

    def warm_up(self) -> Sample:
        # the --jobs 1 output every --jobs 2 pass must match byte for byte
        return run_op(Op("batch-serial", [self.batch_step(1, self.serial)]), cold=False)


WORKLOADS = {w.name: w for w in (CliCorpus, LooCorpus, LargeNetwork, BatchDir)}
