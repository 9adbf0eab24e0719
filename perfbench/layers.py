"""The traced run: per-layer metrics, probes and the tracing overhead.

A traced run first takes the probes that need fresh processes or several
repeats: the cold-start parts of the CLI, the BLAS thread effect and the
batch pool speedup. Then, in the first pass, each of the workload's
operations runs untraced, traced, traced and untraced again (the difference
is the tracing overhead), and the corpus command mix runs traced once, so
every layer has a reading on every workload. A second pass repeats the traced
runs with a fresh tracer; the exact counts of the two passes must agree.
Layer metrics are totals over the first pass's recorded spans.
"""

from __future__ import annotations

import csv
import io
import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import ROOT, BatchDir, Op, child_env, copy_corpus, corpus_mix, run_op

PROBE_REPEATS = 3
POOL_REPEATS = 2


def _python(argv: list[str], **env: str) -> subprocess.CompletedProcess:
    """Run the interpreter on ``argv`` with the checkout's sources on the path."""
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(**env),
        capture_output=True, text=True, timeout=120, check=True,
    )


def _timed(argv: list[str]) -> float:
    start = time.perf_counter()
    _python(argv)
    return (time.perf_counter() - start) * 1000.0


def _import_self_us(stderr: str, package: str) -> int:
    """Sum of self times that ``-X importtime`` reports for a package's modules."""
    total = 0
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
        if match and (match.group(2) == package or match.group(2).startswith(package + ".")):
            total += int(match.group(1))
    return total


def cli_probes() -> dict[str, float]:
    """Cold-start parts of a CLI command, each the median of a few fresh interpreters."""
    interpreter = statistics.median(_timed(["-c", "pass"]) for _ in range(PROBE_REPEATS))
    imported = statistics.median(_timed(["-c", "import nmacompare.cli"]) for _ in range(PROBE_REPEATS))
    logs = [_python(["-X", "importtime", "-c", "import nmacompare.cli"]).stderr for _ in range(PROBE_REPEATS)]
    return {
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": imported - interpreter,
        "cli.import_scipy_ms": statistics.median(_import_self_us(t, "scipy") for t in logs) / 1000.0,
        "cli.import_numpy_ms": statistics.median(_import_self_us(t, "numpy") for t in logs) / 1000.0,
    }


def blas_child(seed: int, work: Path) -> dict:
    """One REML compare at 100 x 2000 in this process, timed after a DL warm-up."""
    import checks
    from workloads import LargeNetwork

    work.mkdir(parents=True)
    try:
        workload = LargeNetwork(work, seed, checks.load_reference())
        workload.setup()
        dl, reml = workload.ops()[0].steps
        warm = run_op(Op("warm-up", [dl]), cold=False)
        sample = run_op(Op("compare-reml", [reml]), cold=False)
        return {"seconds": sample.seconds, "failure": warm.failure or sample.failure}
    finally:
        shutil.rmtree(work)


def blas_probe(seed: int) -> tuple[float, list[str]]:
    """Default-threads REML time over single-thread time, each in a fresh child."""
    times, failures = {}, []
    for label, env in (("default", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        proc = _python([str(Path(__file__).with_name("run.py")), "--workload", "large-network",
                      "--seed", str(seed), "--phase", "blas"], **env)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        times[label] = result["seconds"]
        if result["failure"]:
            failures.append(result["failure"])
    return times["default"] / times["one"], failures


def pool_probe(work: Path, seed: int, ref: dict) -> tuple[float, list]:
    """Wall time of a batch pass at --jobs 1 over the same pass at --jobs 2."""
    batch = BatchDir(work, seed, ref)
    batch.setup()
    samples = [batch.warm_up()]
    serial = Op("batch-jobs1", [batch.batch_step(1, work / "jobs1")], items=batch.count)
    pooled = batch.ops()[0]
    one, two = [], []
    for _ in range(POOL_REPEATS):
        samples.append(run_op(serial, cold=False))
        one.append(samples[-1].seconds)
        samples.append(run_op(pooled, cold=False))
        two.append(samples[-1].seconds)
    return statistics.median(one) / statistics.median(two), samples


def _loo_rows(op: Op) -> tuple[int, int]:
    """(skipped, total) rows of the leave-one-out tables an operation wrote."""
    skipped = total = 0
    for step in op.steps:
        if step.argv[0] == "loo":
            rows = list(csv.DictReader(io.StringIO(step.outputs[0].read_text(encoding="utf-8"))))
            total += len(rows)
            skipped += sum(r["skipped"] == "yes" for r in rows)
    return skipped, total


def run_into(samples: list, op: Op, tracer: tracing.Tracer | None = None) -> float:
    """Run an operation, traced into ``tracer`` if given; keep the sample, return seconds."""
    if tracer is None:
        samples.append(run_op(op, cold=False))
    else:
        with tracer.installed():
            samples.append(run_op(op, cold=False))
    return samples[-1].seconds


def traced_run(workload, warm, span_dir: Path) -> dict:
    samples = [warm]
    metrics = dict(cli_probes())
    speedup, failures = blas_probe(workload.seed)
    metrics["numerics.blas_1thread_speedup"] = speedup
    pool_speedup, pool_samples = pool_probe(workload.work / "pool", workload.seed, workload.ref)
    metrics["analysis.batch_pool_speedup"] = pool_speedup
    samples += pool_samples

    ops = workload.ops()
    sweep = []
    if not workload.cold:
        copy_corpus(workload.work)
        sweep = corpus_mix(workload.work, workload.ref)

    first, second = tracing.Tracer(), tracing.Tracer()
    plain = traced = 0.0
    skipped = loo_total = output_bytes = 0
    for number, op in enumerate(ops + sweep):
        first.op = number
        if number < len(ops):
            # untraced, traced, traced, untraced: a steady drift in machine
            # speed cancels out of the overhead
            plain += run_into(samples, op)
            traced += run_into(samples, op, first)
            traced += run_into(samples, op, tracing.Tracer())
            plain += run_into(samples, op)
        else:
            run_into(samples, op, first)
        output_bytes += sum(p.stat().st_size for step in op.steps for p in step.outputs)
        s, t = _loo_rows(op)
        skipped, loo_total = skipped + s, loo_total + t
    for number, op in enumerate(ops + sweep):
        second.op = number
        run_into(samples, op, second)

    counts = tracing.count_metrics(first.spans)
    counts_repeat = counts == tracing.count_metrics(second.spans)
    if not counts_repeat:
        failures.append("exact counts differ between the two traced passes")
    metrics.update(counts)
    metrics.update(tracing.time_metrics(first.spans))
    metrics["analysis.loo_skipped_ratio"] = skipped / loo_total if loo_total else 0.0
    metrics["report.output_bytes"] = output_bytes
    metrics["trace.overhead_ms"] = (traced - plain) * 1000.0 / (2 * len(ops))

    span_dir.mkdir(exist_ok=True)
    first.dump(span_dir / f"spans-{workload.name}.jsonl")

    failures += [s.failure for s in samples if s.failure]
    return {
        "attempted": len(samples) + 2,  # the two REML runs of the BLAS probe
        "failed": len(failures),
        "failures": failures[:5],
        "metrics": metrics,
        "trace": {
            "operations": len(ops), "sweep_operations": len(sweep), "spans": len(first.spans),
            "loo_rows": loo_total, "counts_repeat": counts_repeat,
        },
    }
