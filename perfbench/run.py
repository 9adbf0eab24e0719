"""nmacompare benchmark: end-to-end and per-layer metrics over four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload large-network --seed 3 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of one workload; ``--trace 1``
prints the per-layer metrics from a separate traced run. ``--workload all``
runs every workload and also prints the metrics under the workload-specific
names (``cli_p50_ms``, ``compare_reml_p50_ms``, ...). The last line of
standard output is always one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Each workload runs in its own child process, so ``peak_rss_mb`` belongs to
it. ``setup_s`` is the median wall time of three set-up-only children, each
of which starts the interpreter, imports, writes the inputs and warms up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from importlib import metadata
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
SPAN_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("cli-corpus", "loo-corpus", "large-network", "batch-dir")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "OMP_DYNAMIC",
    "OMP_PROC_BIND", "OMP_WAIT_POLICY", "OPENBLAS_CORETYPE",
)

# Names the workloads' figures go by in ``--workload all``.
NAMED = {
    "cli-corpus": {"p50_ms": "cli_p50_ms", "ptail_ms": "cli_ptail_ms"},
    "loo-corpus": {"p50_ms": "loo_reml_p50_ms", "ptail_ms": "loo_reml_ptail_ms"},
    "batch-dir": {"items_per_s": "batch_datasets_per_s"},
}
NAMED_STEPS = {"compare-dl": "compare_dl", "compare-reml": "compare_reml"}


def layout_problem() -> str | None:
    for need in (
        ROOT / "BENCHMARK.json", ROOT / "src" / "nmacompare" / "cli.py", ROOT / "corpus" / "nsaid_pain_relief.json",
    ):
        if not need.is_file():
            return f"{need.relative_to(ROOT)} not found: run from the root of an nmacompare checkout"
    return None


def metric_spec(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def ptail(values: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it.

    Below 21 samples no percentile above the median has ten samples beyond
    it; the value then stays at the upper median rank, and ``beyond`` says
    how many samples lie past it. The rank moves smoothly with the sample
    count, so one more completed operation never swaps the statistic.
    """
    xs = sorted(values)
    n = len(xs)
    k = n - min(10, (n - 1) // 2)
    return {"value": xs[k - 1], "percentile": round(100.0 * k / n, 1), "samples": n, "beyond": n - k}


# ---------------------------------------------------------------------------
# Run metadata
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def machine_meta() -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = _read(f"{index}/size")
    return {"nproc": os.cpu_count(), "cpu": model, "caches": caches}


def software_meta() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def source_meta() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------
# Child processes (set-up, measurement, traced run)
# ---------------------------------------------------------------------------

@contextmanager
def prepared(workload_name: str, seed: int):
    """Import the package from this checkout, build the workload's inputs and warm up.

    Yields (workload, warm-up sample); the work directory is removed on exit.
    """
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import workloads

    work = WORK_ROOT / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[workload_name](work, seed, checks.load_reference())
        if not workload.cold:
            import nmacompare.cli

            if not Path(nmacompare.cli.__file__).resolve().is_relative_to(ROOT / "src"):
                raise SystemExit(f"imported nmacompare from {nmacompare.cli.__file__}, not this checkout")
        workload.setup()
        yield workload, workload.warm_up()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def child_setup(args) -> dict:
    with prepared(args.workload, args.seed):
        return {}


def child_measure(args) -> dict:
    from workloads import run_op

    with prepared(args.workload, args.seed) as (workload, warm):
        ops = workload.ops()
        samples = []
        deadline = time.perf_counter() + args.seconds
        while not samples or time.perf_counter() < deadline:
            samples.append(run_op(ops[len(samples) % len(ops)], workload.cold))

    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.cold:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    times = [s.seconds * 1000.0 for s in samples]
    steps: dict[str, list[float]] = {}
    for s in samples:
        for step, seconds in zip(s.op.steps, s.step_seconds):
            steps.setdefault(step.label, []).append(seconds * 1000.0)
    failures = [s.failure for s in [warm] + samples if s.failure]
    return {
        "attempted": len(samples) + 1,
        "failed": len(failures),
        "failures": failures[:5],
        "metrics": {
            "p50_ms": median(times),
            "ptail_ms": ptail(times)["value"],
            "items_per_s": median(s.op.items / s.seconds for s in samples),
            "peak_rss_mb": kb / 1024.0,
        },
        "ptail": ptail(times),
        "steps": {
            label: {"p50_ms": median(v), "ptail_ms": ptail(v)["value"], "ptail": ptail(v)}
            for label, v in steps.items()
        },
        "meta": {"machine": machine_meta(), "software": software_meta()},
    }


def child_trace(args) -> dict:
    import layers

    with prepared(args.workload, args.seed) as (workload, warm):
        result = layers.traced_run(workload, warm, SPAN_DIR)
    result["meta"] = {"machine": machine_meta(), "software": software_meta()}
    return result


def child_blas(args) -> dict:
    import layers

    return layers.blas_child(args.seed, WORK_ROOT / f"blas-{os.getpid()}")


def spawn(args, phase: str) -> tuple[dict, float]:
    """Run one phase in a child process; returns its JSON result and wall time."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--phase", phase,
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------

def run_workload(args, units: dict[str, str]) -> dict:
    if args.trace:
        result, _ = spawn(args, "trace")
    else:
        # a failed warm-up check is counted by the measuring child, which repeats it
        setups = [spawn(args, "setup")[1] for _ in range(SETUP_REPEATS)]
        result, _ = spawn(args, "measure")
        result["metrics"]["setup_s"] = median(setups)
        result["setup_runs_s"] = setups
    missing = units.keys() - result["metrics"].keys()
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    result["metrics"] = {name: result["metrics"][name] for name in units}
    result["meta"]["source"] = source_meta()
    result["meta"]["run"] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "ptail": result.get("ptail"), "setup_runs_s": result.get("setup_runs_s"),
    }
    return result


def print_result(workload: str, seed: int, result: dict, units: dict[str, str]) -> None:
    print(f"workload {workload}  seed {seed}")
    for name, value in result["metrics"].items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    base = result["attempted"]
    print(f"  {'failed_ratio':<36} {result['failed'] / base:>14.6g} ({result['failed']}/{base})")
    if "ptail" in result:
        tail = result["ptail"]
        print(f"  ptail is p{tail['percentile']:g} of {tail['samples']} samples, {tail['beyond']} beyond it")
    for label, stats in result.get("steps", {}).items():
        tail = stats["ptail"]
        print(f"  step {label:<20} p50 {stats['p50_ms']:.6g} ms  ptail {stats['ptail_ms']:.6g} ms"
              f" (p{tail['percentile']:g} of {tail['samples']})")
    for failure in result.get("failures", []):
        print(f"  FAILED: {failure}")
    print("meta " + json.dumps(result["meta"], sort_keys=True))


def named_metrics(results: dict[str, dict], units: dict[str, str]) -> dict:
    """The per-workload figures under their workload-specific names."""
    out = {}
    for workload, result in results.items():
        metrics = result["metrics"]
        for generic, name in NAMED.get(workload, {}).items():
            out[name] = {"value": metrics[generic], "unit": units[generic]}
        for label, prefix in NAMED_STEPS.items():
            if label in result.get("steps", {}):
                for stat in ("p50_ms", "ptail_ms"):
                    out[f"{prefix}_{stat}"] = {"value": result["steps"][label][stat], "unit": "ms"}
        for generic in ("setup_s", "peak_rss_mb"):
            out[f"{generic}.{workload}"] = {"value": metrics[generic], "unit": units[generic]}
        out[f"failed_ratio.{workload}"] = {
            "value": result["failed"] / result["attempted"], "unit": "ratio",
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "measure", "trace", "blas"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    problem = layout_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.phase:
        phases = {"setup": child_setup, "measure": child_measure, "trace": child_trace, "blas": child_blas}
        print(json.dumps(phases[args.phase](args)))
        return 0

    units = metric_spec(bool(args.trace))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}), units)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        print_result(name, args.seed, results[name], units)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all" and not args.trace:
        metrics = named_metrics(results, units)
        print("end-to-end metrics by name")
        for name, m in metrics.items():
            print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    else:
        metrics = {
            name if len(results) == 1 else f"{name}.{workload}": {"value": value, "unit": units[name]}
            for workload, result in results.items() for name, value in result["metrics"].items()
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
