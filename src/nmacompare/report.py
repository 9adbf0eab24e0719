"""Report outputs: forest/network figure data, SVG rendering, JSON fit reports.

Rendering is a pure function of its inputs: no timestamps, no randomness,
fixed viewport, so identical inputs produce byte-identical SVG documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from html import escape
from typing import Sequence

from .analysis import ComparisonReport, format_csv
from .dataset import DatasetError, NetworkDataset, group_designs
from .heterogeneity import QDecomposition
from .models import ModelFit
from .numerics import normal_quantile

__all__ = [
    "MarkerKind",
    "ForestRow",
    "NetworkEdge",
    "NetworkGraph",
    "forest_data",
    "network_data",
    "render_svg",
    "fit_report",
    "per_study_csv",
]


class MarkerKind(Enum):
    STUDY_CIRCLE = "study_circle"
    RE_SQUARE = "re_square"
    ME_TRIANGLE = "me_triangle"


@dataclass(frozen=True)
class ForestRow:
    """One line of a forest plot.

    Study rows carry ``area_weight`` = 1/se^2 (circle area is drawn
    proportional to it) and a ``q_label`` when the study's heterogeneity
    contribution exceeds the average Q_het/m.
    """

    label: str
    group: str
    estimate: float
    ci_lo: float
    ci_hi: float
    marker: MarkerKind
    area_weight: float | None = None
    q_label: float | None = None


@dataclass(frozen=True)
class NetworkEdge:
    pair: tuple[str, str]
    study_count: int
    width_weight: float


@dataclass(frozen=True)
class NetworkGraph:
    nodes: tuple[str, ...]
    edges: tuple[NetworkEdge, ...]


def forest_data(
    ds: NetworkDataset,
    re_fit: ModelFit,
    me_fit: ModelFit,
    q: QDecomposition,
    target: str,
) -> list[ForestRow]:
    """Forest rows versus a common comparator, grouped by design.

    Study rows cover the designs that include ``target``; pooled RE and ME
    rows cover every other treatment versus ``target`` (indirect evidence
    included). Effects are oriented so positive means "treatment minus
    target". ``target`` is stripped, as labels are.
    """
    target = target.strip()
    if target not in ds.treatments:
        raise DatasetError(f"target treatment {target!r} not in dataset")
    z = normal_quantile(0.5 + re_fit.ci_level / 2.0)
    threshold = q.q_het / ds.n_studies
    per_study = {c.index: c.q_het for c in q.per_study}

    rows: list[ForestRow] = []
    designs_by_other = {
        d.pair[0] if d.pair[1] == target else d.pair[1]: d
        for d in group_designs(ds)
        if target in d.pair
    }
    for other in (t for t in ds.treatments if t != target):
        group = f"{other} vs {target}"
        design = designs_by_other.get(other)
        if design is not None:
            for i in design.members:
                obs = ds.studies[i]
                est = obs.effect if obs.treat_a == target else -obs.effect
                q_i = per_study[i]
                rows.append(
                    ForestRow(
                        label=obs.study_id,
                        group=group,
                        estimate=est,
                        ci_lo=est - z * obs.se,
                        ci_hi=est + z * obs.se,
                        marker=MarkerKind.STUDY_CIRCLE,
                        area_weight=1.0 / obs.se**2,
                        q_label=q_i if q_i > threshold else None,
                    )
                )
        for fit, marker, tag in (
            (re_fit, MarkerKind.RE_SQUARE, "RE"),
            (me_fit, MarkerKind.ME_TRIANGLE, "ME"),
        ):
            est, se = fit.contrast(other, target)
            rows.append(
                ForestRow(
                    label=f"{other} ({tag})",
                    group=group,
                    estimate=est,
                    ci_lo=est - z * se,
                    ci_hi=est + z * se,
                    marker=marker,
                )
            )
    return rows


def network_data(ds: NetworkDataset) -> NetworkGraph:
    """Treatment network with per-design study counts; edge width follows count."""
    edges = tuple(
        NetworkEdge(d.pair, d.size, float(d.size)) for d in group_designs(ds)
    )
    return NetworkGraph(ds.treatments, edges)


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_PALETTE = (
    "#4878a8", "#ee854a", "#6acc64", "#d65f5f",
    "#956cb4", "#8c613c", "#dc7ec0", "#797979",
)


def _fmt(value: float) -> str:
    return format(value, ".2f")


def _el(tag: str, body: object = None, **attrs: object) -> str:
    """One SVG element and its newline. ``_`` in an attribute name becomes ``-``; a float
    value is written by ``_fmt``, any other by ``str``. The body, if any, is escaped."""
    text = " ".join(
        f'{name.replace("_", "-")}="{_fmt(v) if isinstance(v, float) else v}"'
        for name, v in attrs.items()
    )
    if body is None:
        return f"<{tag} {text}/>\n"
    return f"<{tag} {text}>{escape(str(body), quote=False)}</{tag}>\n"


def render_svg(data: Sequence[ForestRow] | NetworkGraph, title: str = "") -> str:
    """SVG 1.1 of forest rows (860 px wide) or a network graph (600 px square),
    with a non-empty ``title`` centred above the plot."""
    if isinstance(data, NetworkGraph):
        return _render_network(data, title)
    rows = list(data)
    if not rows:
        raise DatasetError("nothing to render")
    return _render_forest(rows, title)


def _svg_start(width: int, height: int, title: str) -> list[str]:
    """XML declaration, svg element, white background and, if not empty, the centred title."""
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n',
        _el("rect", x=0, y=0, width=width, height=height, fill="#ffffff"),
    ]
    if title:
        parts.append(_el("text", title, x=width / 2, y=24, text_anchor="middle",
                         font_family="sans-serif", font_size=15))
    return parts


def _render_forest(rows: list[ForestRow], title: str) -> str:
    width = 860
    row_h = 24
    left, right, top, bottom = 250, 100, 50, 50
    height = top + bottom + row_h * len(rows)
    plot_w = width - left - right

    lo = min(r.ci_lo for r in rows)
    hi = max(r.ci_hi for r in rows)
    pad = 0.05 * ((hi - lo) or 1.0)
    lo -= pad
    hi += pad

    def sx(v: float) -> float:
        return left + (v - lo) / (hi - lo) * plot_w

    max_area = max((r.area_weight for r in rows if r.area_weight), default=1.0)
    radius_k = 9.0 / math.sqrt(max_area)

    groups: list[str] = []
    for r in rows:
        if r.group not in groups:
            groups.append(r.group)
    color = {g: _PALETTE[i % len(_PALETTE)] for i, g in enumerate(groups)}

    parts = _svg_start(width, height, title)
    if lo < 0.0 < hi:
        x0 = sx(0.0)
        parts.append(_el("line", x1=x0, y1=top - 8, x2=x0, y2=height - bottom + 8,
                         stroke="#999999", stroke_dasharray="4,3"))
    axis_y = height - bottom + 8
    parts.append(_el("line", x1=left, y1=axis_y, x2=width - right, y2=axis_y, stroke="#333333"))
    for tick in _ticks(lo, hi):
        tx = sx(tick)
        parts.append(_el("line", x1=tx, y1=axis_y, x2=tx, y2=axis_y + 5, stroke="#333333"))
        parts.append(_el("text", format(tick, "g"), x=tx, y=axis_y + 18, text_anchor="middle",
                         font_family="sans-serif", font_size=11))

    last_group = None
    for i, row in enumerate(rows):
        cy = top + row_h * (i + 0.5)
        if row.group != last_group:
            last_group = row.group
            parts.append(_el("text", row.group, x=8, y=cy + 4, text_anchor="start",
                             font_family="sans-serif", font_size=11, font_weight="bold"))
        parts.append(_el("text", row.label, x=left - 10, y=cy + 4, text_anchor="end",
                         font_family="sans-serif", font_size=11))
        parts.append(_el("line", x1=sx(row.ci_lo), y1=cy, x2=sx(row.ci_hi), y2=cy,
                         stroke="#888888"))
        cx = sx(row.estimate)
        if row.marker is MarkerKind.STUDY_CIRCLE:
            r = radius_k * math.sqrt(row.area_weight or 1.0)
            parts.append(_el("circle", cx=cx, cy=cy, r=r, fill=color[row.group],
                             fill_opacity="0.85"))
        elif row.marker is MarkerKind.RE_SQUARE:
            parts.append(_el("rect", x=cx - 5.0, y=cy - 5.0, width=10.0, height=10.0,
                             fill="#000000"))
        else:
            s = 6.0
            points = (
                f"{_fmt(cx)},{_fmt(cy - s)} {_fmt(cx - s)},{_fmt(cy + s)} "
                f"{_fmt(cx + s)},{_fmt(cy + s)}"
            )
            parts.append(_el("polygon", points=points, fill="#000000"))
        if row.q_label is not None:
            parts.append(_el("text", format(row.q_label, ".3g"), x=sx(row.ci_hi) + 8, y=cy + 4,
                             text_anchor="start", font_family="sans-serif", font_size=11,
                             fill="#b03030"))
    parts.append("</svg>\n")
    return "".join(parts)


def _ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions inside [lo, hi]; the span holds at most six tick steps."""
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / 6))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 12) + 0.0)  # normalize -0.0
        t += step
    return ticks


def _render_network(graph: NetworkGraph, title: str) -> str:
    size = 600
    cx = cy = size / 2.0
    radius = size / 2.0 - 80.0
    n = len(graph.nodes)
    pos = {}
    for i, node in enumerate(graph.nodes):
        angle = 2.0 * math.pi * i / n - math.pi / 2.0
        pos[node] = (cx + radius * math.cos(angle), cy + radius * math.sin(angle))
    max_count = max((e.study_count for e in graph.edges), default=1)

    parts = _svg_start(size, size, title)
    for edge in graph.edges:
        (x1, y1), (x2, y2) = pos[edge.pair[0]], pos[edge.pair[1]]
        width = 10.0 * edge.study_count / max_count
        parts.append(_el("line", x1=x1, y1=y1, x2=x2, y2=y2, stroke="#9db4cc",
                         stroke_width=width))
        parts.append(_el("text", edge.study_count, x=(x1 + x2) / 2.0, y=(y1 + y2) / 2.0 - 4,
                         text_anchor="middle", font_family="sans-serif", font_size=10,
                         fill="#55616e"))
    for node in graph.nodes:
        x, y = pos[node]
        parts.append(_el("circle", cx=x, cy=y, r=24, fill="#e8eef7", stroke="#3d5a80"))
        parts.append(_el("text", node, x=x, y=y + 4, text_anchor="middle",
                         font_family="sans-serif", font_size=10))
    parts.append("</svg>\n")
    return "".join(parts)


# ---------------------------------------------------------------------------
# JSON fit report and CSV mirror
# ---------------------------------------------------------------------------

def _model_entry(fit: ModelFit) -> dict:
    z = normal_quantile(0.5 + fit.ci_level / 2.0)
    # each column against the reference as fit.contrast gives it; + 0.0 turns -0.0 into 0.0
    ests = (fit.d_hat + 0.0).tolist()
    ses = [math.sqrt(max(v + 0.0, 0.0)) for v in fit.cov.diagonal().tolist()]
    d_hat = {
        treat: {"est": est, "se": se, "ci_lo": est - z * se, "ci_hi": est + z * se}
        for treat, est, se in zip(fit.column_treatments, ests, ses)
    }
    hetero: dict[str, float] = {}
    if fit.tau2 is not None:
        hetero = {"tau2": fit.tau2, "tau": math.sqrt(fit.tau2)}
    elif fit.phi is not None:
        hetero = {"phi": fit.phi}
    return {
        "kind": fit.kind.value,
        "d_hat": d_hat,
        "hetero": hetero,
        "log_lik": fit.log_lik,
        "aic": fit.aic,
    }


def _q_entry(ds: NetworkDataset, q: QDecomposition) -> dict:
    entry: dict = {
        "total": q.q_total,
        "het": q.q_het,
        "inc": q.q_inc,
        "df_het": q.df_het,
        "df_inc": q.df_inc,
    }
    if q.p_het is not None:
        entry["p_het"] = q.p_het
    if q.p_inc is not None:
        entry["p_inc"] = q.p_inc
    entry["per_design"] = [
        {
            "treat_a": c.design.pair[0],
            "treat_b": c.design.pair[1],
            "studies": c.design.size,
            "q_het": c.q_het,
            "pooled_mean": c.pooled_mean,
        }
        for c in q.per_design
    ]
    entry["per_study"] = [
        {
            "index": c.index,
            "study_id": ds.study_ids[c.index],
            "q_het": c.q_het,
            "weight": c.weight,
        }
        for c in q.per_study
    ]
    return entry


def fit_report(
    ds: NetworkDataset,
    fits: Sequence[ModelFit],
    q: QDecomposition,
    comparison: ComparisonReport | None = None,
) -> dict:
    """JSON-serializable fit report for one dataset."""
    doc: dict = {
        "dataset": ds.name,
        "measure": ds.measure.value,
        "n": ds.n_treatments,
        "m": ds.n_studies,
        "C": len(q.per_design),
        "reference": ds.reference,
        "models": [_model_entry(fit) for fit in fits],
        "q": _q_entry(ds, q),
        "delta_aic": comparison.delta_aic if comparison else None,
        "classification": (
            comparison.classification.value
            if comparison and comparison.classification
            else None
        ),
    }
    if comparison is not None:
        doc["tau_method"] = comparison.tau_method.value
        doc["untestable"] = comparison.untestable
    return doc


def per_study_csv(ds: NetworkDataset, q: QDecomposition) -> str:
    """Per-study heterogeneity contributions as CSV."""
    rows: list[Sequence] = ["study_id,treat_a,treat_b,effect,se,q_het_i".split(",")]
    for c in q.per_study:
        obs = ds.studies[c.index]
        rows.append((obs.study_id, obs.treat_a, obs.treat_b, obs.effect, obs.se, c.q_het))
    return format_csv(rows)
