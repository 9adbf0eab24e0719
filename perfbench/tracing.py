"""Spans around the calls into each layer of ``nmacompare``, from outside it.

``Tracer.installed()`` replaces each traced public function at every place
the package binds it (``fit_fe`` lives in ``models`` and is imported into
``analysis``, ``heterogeneity`` and ``cli``), plus the ``NetworkDataset``
constructor and methods, and restores the originals on exit. Spans are kept
in memory with name, start, end, parent, operation id and thread; each thread
has its own stack, because ``batch`` evaluates datasets in pool threads.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# module -> public functions whose calls become spans named "<module>.<name>"
TRACED_FUNCTIONS = {
    "cli": ("main",),
    "dataset": ("load_dataset", "build_design_matrix", "group_designs"),
    "models": (
        "fit_fe", "fit_re", "fit_me", "estimate_tau2_dl", "estimate_tau2_reml", "reml_objective",
    ),
    "heterogeneity": ("q_decompose",),
    "numerics": ("solve_spd", "minimize_scalar", "chi_square_sf"),
    "analysis": (
        "compare_models", "leave_one_out", "exclude_and_refit", "batch_run", "batch_to_csv",
    ),
    "report": ("fit_report", "render_svg", "per_study_csv"),
}
ARRAY_METHODS = ("effects", "std_errors", "variances", "weights")
TRACED_METHODS = ("__init__", "drop_studies") + ARRAY_METHODS


def _rhs_cols(args, kwargs) -> int:
    b = kwargs.get("b", args[1] if len(args) > 1 else None)
    shape = getattr(b, "shape", ())
    return int(shape[1]) if len(shape) == 2 else 1


def _tau_method(args, kwargs) -> str:
    method = kwargs.get("tau_method", args[1] if len(args) > 1 else None)
    return "DL" if method is None else str(getattr(method, "value", method)).upper()


# span name -> what its ``note`` field records about the call
ANNOTATE = {"numerics.solve_spd": _rhs_cols, "analysis.compare_models": _tau_method}


class Tracer:
    """In-memory span recorder. A span is (name, start_ns, end_ns, parent, op, thread, note)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def _wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)
        spans, lock, local = self.spans, self._lock, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                index = len(spans)
                spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                note = annotate(args, kwargs) if annotate else None
                spans[index] = (name, start, end, parent, self.op, threading.get_ident(), note)

        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of the traced functions; restore them on exit."""
        import nmacompare.cli  # noqa: F401  (loads every layer)
        from nmacompare.dataset import NetworkDataset

        modules = [m for k, m in sys.modules.items() if k == "nmacompare" or k.startswith("nmacompare.")]
        patches = []
        for layer, names in TRACED_FUNCTIONS.items():
            home = sys.modules[f"nmacompare.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        patches.append((module, name, original))
                        setattr(module, name, wrapper)
        for name in TRACED_METHODS:
            original = NetworkDataset.__dict__[name]
            label = "dataset.NetworkDataset" + ("" if name == "__init__" else f".{name}")
            patches.append((NetworkDataset, name, original))
            setattr(NetworkDataset, name, self._wrap(label, original))
        try:
            yield self
        finally:
            for owner, name, original in reversed(patches):
                setattr(owner, name, original)

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines, each with its self time."""
        own = self_times(self.spans)
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, thread, note) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, op, thread, note, own[i]]) + "\n")


def self_times(spans: list) -> list[int]:
    """Duration of each span minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0, start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def _in_dl_compare(spans: list, index: int) -> bool:
    """Whether the innermost comparison enclosing a span uses the DL estimator."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == "analysis.compare_models":
            return spans[parent][6] == "DL"
        parent = spans[parent][3]
    return False


def count_metrics(spans: list) -> dict[str, float]:
    """The exact counts; two traced passes over the same inputs must agree on these."""
    calls = Counter(span[0] for span in spans)
    arrays = [i for i, s in enumerate(spans) if s[0].rsplit(".", 1)[-1] in ARRAY_METHODS]
    # FE fits inside DL comparisons (REML ones skip the DL estimator's fit)
    fe_in_dl_compare = sum(
        1 for i, s in enumerate(spans) if s[0] == "models.fit_fe" and _in_dl_compare(spans, i)
    )
    dl_compares = sum(1 for s in spans if s[0] == "analysis.compare_models" and s[6] == "DL")
    compares = calls["analysis.compare_models"]
    reml_fits = calls["models.estimate_tau2_reml"]
    return {
        "dataset.load_calls": calls["dataset.load_dataset"],
        "dataset.drop_studies_calls": calls["dataset.NetworkDataset.drop_studies"],
        "dataset.array_calls": len(arrays),
        "dataset.group_designs_calls": calls["dataset.group_designs"],
        "models.fit_fe_calls": calls["models.fit_fe"],
        "models.reml_objective_calls": calls["models.reml_objective"],
        "models.reml_evals_per_fit": calls["models.reml_objective"] / reml_fits if reml_fits else 0.0,
        "models.fe_fits_per_compare": fe_in_dl_compare / dl_compares if dl_compares else 0.0,
        "heterogeneity.q_decompose_calls": calls["heterogeneity.q_decompose"],
        "numerics.solve_spd_calls": calls["numerics.solve_spd"],
        "numerics.solve_spd_rhs_cols": sum(s[6] for s in spans if s[0] == "numerics.solve_spd"),
        "numerics.chi_square_sf_calls": calls["numerics.chi_square_sf"],
        "analysis.compare_models_calls": compares,
    }


def time_metrics(spans: list) -> dict[str, float]:
    """Busy time per layer in ms: total span time, or self time where named so."""
    own = self_times(spans)
    total = Counter()
    self_total = Counter()
    for i, (name, start, end, parent, *_rest) in enumerate(spans):
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ARRAY_METHODS:
            # variances() calls std_errors(): count only the outermost accessor
            if parent >= 0 and spans[parent][0].rsplit(".", 1)[-1] in ARRAY_METHODS:
                continue
            name = "dataset.arrays"
        total[name] += end - start
        self_total[name] += own[i]
    ms = 1e-6
    return {
        "cli.main_self_ms": self_total["cli.main"] * ms,
        "dataset.load_ms": total["dataset.load_dataset"] * ms,
        "dataset.validate_ms": total["dataset.NetworkDataset"] * ms,
        "dataset.design_matrix_ms": total["dataset.build_design_matrix"] * ms,
        "dataset.array_ms": total["dataset.arrays"] * ms,
        "models.fit_fe_ms": total["models.fit_fe"] * ms,
        "models.fit_re_ms": total["models.fit_re"] * ms,
        "models.fit_me_ms": total["models.fit_me"] * ms,
        "models.tau2_dl_ms": total["models.estimate_tau2_dl"] * ms,
        "models.tau2_reml_ms": total["models.estimate_tau2_reml"] * ms,
        "heterogeneity.q_decompose_ms": total["heterogeneity.q_decompose"] * ms,
        "numerics.solve_spd_ms": total["numerics.solve_spd"] * ms,
        "numerics.minimize_scalar_self_ms": self_total["numerics.minimize_scalar"] * ms,
        "analysis.compare_models_self_ms": self_total["analysis.compare_models"] * ms,
        "report.fit_report_ms": total["report.fit_report"] * ms,
        "report.render_svg_ms": total["report.render_svg"] * ms,
        "report.csv_ms": (total["report.per_study_csv"] + total["analysis.batch_to_csv"]) * ms,
    }
