"""Command-line interface: validate, fit, qdecomp, compare, loo, batch, plot.

Output is machine-readable (JSON/CSV) by default; ``--pretty`` switches to
indented JSON or a human summary where one exists. Exit codes: 0 success,
1 validation/data error or an unreadable or unwritable path, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .analysis import (
    ANALYSIS_ERRORS,
    TauMethod,
    _exclude,
    batch_run,
    batch_to_csv,
    compare_models,
    fit_random_effects,
    format_csv,
    leave_one_out,
)
from .dataset import DatasetError, NetworkDataset, load_dataset
from .heterogeneity import q_decompose
from .models import fit_fe, fit_me
from .numerics import single_blas_thread
from .report import fit_report, forest_data, network_data, per_study_csv, render_svg

_EXIT_OK = 0
_EXIT_DATA_ERROR = 1
_EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nma",
        description="Network meta-analysis heterogeneity models and AIC comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", type=Path, help="dataset file (.csv or .json)")
        p.add_argument("--measure", help="effect measure for CSV input: MD, logOR or logRR")
        p.add_argument("--reference", help="reference treatment (default: smallest label)")
        p.add_argument("--name", help="dataset name override")

    def add_out_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", type=Path, help="write output to this file instead of stdout")
        p.add_argument("--pretty", action="store_true", help="human-friendly output")

    p = sub.add_parser("validate", help="parse a dataset and report its shape")
    add_data_args(p)
    add_out_arg(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("fit", help="fit one model and print a fit report")
    add_data_args(p)
    p.add_argument("--model", choices=("fe", "re", "me"), required=True)
    p.add_argument("--tau-method", choices=("dl", "reml"), default="dl")
    p.add_argument("--ci-level", type=float, default=0.95)
    add_out_arg(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("qdecomp", help="heterogeneity/inconsistency decomposition")
    add_data_args(p)
    p.add_argument("--csv", type=Path, help="also write the per-study table to this CSV file")
    add_out_arg(p)
    p.set_defaults(func=_cmd_qdecomp)

    p = sub.add_parser("compare", help="compare RE and ME models by AIC")
    add_data_args(p)
    p.add_argument("--tau-method", choices=("dl", "reml"), default="dl")
    p.add_argument("--ci-level", type=float, default=0.95)
    p.add_argument(
        "--exclude", action="append", default=[], metavar="STUDY_ID",
        help="exclude a study before fitting (repeatable)",
    )
    add_out_arg(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("loo", help="leave-one-out sensitivity table")
    add_data_args(p)
    p.add_argument("--tau-method", choices=("dl", "reml"), default="dl")
    add_out_arg(p)
    p.set_defaults(func=_cmd_loo)

    p = sub.add_parser("batch", help="summarize every dataset in a directory")
    p.add_argument("directory", type=Path)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--tau-method", choices=("dl", "reml"), default="dl")
    p.add_argument(
        "--jobs", type=_jobs, default=1, metavar="N",
        help="run the datasets on up to N forked worker processes, no more than the CPUs"
        " and the files (default 1); the output is the same for every N",
    )
    p.add_argument(
        "--out-dir", type=Path,
        help="write summary.csv and histogram.json here instead of stdout",
    )
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("plot", help="render a forest plot or network graph as SVG")
    add_data_args(p)
    p.add_argument("--kind", choices=("forest", "network"), required=True)
    p.add_argument("--target", help="comparator treatment (forest plots)")
    p.add_argument("--tau-method", choices=("dl", "reml"), default="dl")
    p.add_argument("--ci-level", type=float, default=0.95)
    p.add_argument("--out", type=Path, help="output SVG path (default: stdout)")
    p.set_defaults(func=_cmd_plot)

    return parser


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _load(args: argparse.Namespace) -> NetworkDataset:
    return load_dataset(
        args.file, measure=args.measure, reference=args.reference, name=args.name
    )


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")


def _emit_json(args: argparse.Namespace, doc: dict) -> None:
    if args.pretty:
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    else:
        text = json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n"
    _emit(args, text)


def _cmd_validate(args: argparse.Namespace) -> int:
    ds = _load(args)
    if args.pretty:
        lines = [
            f"dataset:    {ds.name}",
            f"measure:    {ds.measure.value}",
            f"studies:    {ds.n_studies}",
            f"treatments: {ds.n_treatments} ({', '.join(ds.treatments)})",
            f"designs:    {len(ds.design_pairs)}",
            f"reference:  {ds.reference}",
            "connected:  yes",
        ]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit_json(
            args,
            {
                "dataset": ds.name,
                "measure": ds.measure.value,
                "m": ds.n_studies,
                "n": ds.n_treatments,
                "C": len(ds.design_pairs),
                "reference": ds.reference,
                "treatments": list(ds.treatments),
                "connected": True,
            },
        )
    return _EXIT_OK


def _cmd_fit(args: argparse.Namespace) -> int:
    ds = _load(args)
    fe = fit_fe(ds, args.ci_level)
    q = q_decompose(ds, fe)
    if args.model == "fe":
        fit = fe
    elif args.model == "me":
        fit = fit_me(ds, fe)
    else:
        fit = fit_random_effects(ds, fe, TauMethod.parse(args.tau_method), args.ci_level)
    _emit_json(args, fit_report(ds, [fit], q))
    return _EXIT_OK


def _cmd_qdecomp(args: argparse.Namespace) -> int:
    ds = _load(args)
    q = q_decompose(ds, fit_fe(ds))
    doc = fit_report(ds, [], q)
    doc.pop("models")
    doc.pop("delta_aic")
    doc.pop("classification")
    if args.csv is not None:
        args.csv.write_text(per_study_csv(ds, q), encoding="utf-8")
    _emit_json(args, doc)
    return _EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    ds = _load(args)
    tau_method = TauMethod.parse(args.tau_method)
    if args.exclude:
        sub, record = _exclude(ds, args.exclude, tau_method, args.ci_level)
        assert record.report is not None
        doc = fit_report(sub, [record.report.fe, record.report.re, record.report.me],
                         record.report.q, record.report)
        doc["excluded"] = list(record.excluded)
        doc["change"] = {
            "q_het": record.q_het_delta,
            "delta_aic": record.delta_aic_delta,
        }
    else:
        report = compare_models(ds, tau_method, ci_level=args.ci_level)
        doc = fit_report(ds, [report.fe, report.re, report.me], report.q, report)
    _emit_json(args, doc)
    return _EXIT_OK


def _cmd_loo(args: argparse.Namespace) -> int:
    ds = _load(args)
    records = leave_one_out(ds, TauMethod.parse(args.tau_method))
    rows: list[Sequence] = [
        "study_id,skipped,reason,q_het,delta_aic,q_het_delta,delta_aic_delta,classification".split(",")
    ]
    for rec in records:
        if rec.report is None:
            rows.append((rec.excluded[0], "yes", rec.reason, None, None, None, None, ""))
        else:
            cls = rec.report.classification.value if rec.report.classification else ""
            rows.append((
                rec.excluded[0], "no", "", rec.report.q.q_het,
                rec.report.delta_aic, rec.q_het_delta, rec.delta_aic_delta, cls,
            ))
    _emit(args, format_csv(rows))
    return _EXIT_OK


def _cmd_batch(args: argparse.Namespace) -> int:
    directory = args.directory
    if not directory.is_dir():
        raise DatasetError(f"not a directory: {directory}")
    sources = sorted(p for p in directory.iterdir() if p.suffix.lower() == ".json")
    result = batch_run(
        sources, alpha=args.alpha, tau_method=TauMethod.parse(args.tau_method), jobs=args.jobs
    )
    summary = batch_to_csv(result)
    histogram = json.dumps(result.histogram, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        (args.out_dir / "summary.csv").write_text(summary, encoding="utf-8")
        (args.out_dir / "histogram.json").write_text(histogram, encoding="utf-8")
    else:
        sys.stdout.write(summary)
    return _EXIT_OK


def _cmd_plot(args: argparse.Namespace) -> int:
    ds = _load(args)
    if args.kind == "network":
        svg = render_svg(network_data(ds), title=ds.name)
    else:
        if not args.target:
            raise DatasetError("forest plots need --target <treatment>")
        report = compare_models(ds, TauMethod.parse(args.tau_method), ci_level=args.ci_level)
        rows = forest_data(ds, report.re, report.me, report.q, args.target)
        svg = render_svg(rows, title=f"{ds.name}: treatments vs {args.target}")
    _emit(args, svg)
    return _EXIT_OK


@single_blas_thread
def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; surface the code
        return exc.code if isinstance(exc.code, int) else _EXIT_USAGE
    try:
        return args.func(args)
    except (*ANALYSIS_ERRORS, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DATA_ERROR


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
