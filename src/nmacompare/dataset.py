"""Two-arm network meta-analysis data: ingestion, validation and contrast coding.

A dataset is an ordered collection of study-level contrasts: each study
compares two treatments and reports an effect estimate (mean difference,
log odds ratio or log risk ratio) together with its standard error. The
treatments form the nodes of a network whose edges are the observed
comparisons; every dataset must be connected so that all relative effects
are estimable against a common reference treatment.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "DatasetError",
    "EffectMeasure",
    "ContrastObservation",
    "NetworkDataset",
    "Design",
    "DesignMatrix",
    "connected_components",
    "parse_dataset",
    "load_dataset",
    "derive_contrast_binary",
    "derive_contrast_continuous",
    "group_designs",
    "build_design_matrix",
]


class DatasetError(ValueError):
    """Input data violates the dataset contract (bad row, bad value, bad graph)."""


class EffectMeasure(Enum):
    """Scale of the study-level effect column."""

    MD = "MD"
    LOG_OR = "logOR"
    LOG_RR = "logRR"

    @classmethod
    def parse(cls, text: str) -> "EffectMeasure":
        key = text.strip().lower().replace("_", "").replace("-", "")
        for member in cls:
            if key in (member.value.lower(), member.name.lower().replace("_", "")):
                return member
        raise DatasetError(f"unknown effect measure {text!r} (expected MD, logOR or logRR)")


class ContrastObservation(namedtuple("ContrastObservation", "study_id treat_a treat_b effect se")):
    """One two-arm study; ``effect`` estimates ``treat_b`` relative to ``treat_a``.

    The one place where ingestion coerces: labels to stripped strings,
    ``effect`` and ``se`` to floats. A validated tuple: ``_make`` and
    ``_replace`` construct through the same checks.
    """

    __slots__ = ()

    def __new__(cls, study_id, treat_a, treat_b, effect, se) -> "ContrastObservation":
        study_id = str(study_id).strip()
        treat_a, treat_b = str(treat_a).strip(), str(treat_b).strip()
        try:
            effect, se = _number(effect, "effect", float), _number(se, "se", float)
        except OverflowError:
            # an integer beyond the float range
            raise DatasetError("effect or se is too large for a floating-point number") from None
        if not treat_a or not treat_b:
            fault = "empty treatment label"
        elif treat_a == treat_b:
            fault = f"treatments are identical ({treat_a!r})"
        elif not math.isfinite(effect):
            fault = "non-finite effect"
        elif not math.isfinite(se) or se <= 0:
            fault = "non-positive standard error"
        elif not (0.0 < se * se < math.inf and 1.0 / (se * se) < math.inf):
            # The fits use se^2 and 1/se^2; both must be positive finite numbers.
            fault = (
                f"standard error {se!r} gives a variance se^2 "
                "or a weight 1/se^2 that is not a positive finite number"
            )
        else:
            return super().__new__(cls, study_id, treat_a, treat_b, effect, se)
        raise _located(f"study {study_id!r}", fault)

    @classmethod
    def _make(cls, iterable) -> "ContrastObservation":
        return cls(*iterable)


class _Columns(NamedTuple):
    """The studies of a dataset as columns: ids and stripped labels, effects and ses as floats."""

    study_ids: Sequence[str]
    treat_a: Sequence[str]
    treat_b: Sequence[str]
    effects: np.ndarray
    std_errors: np.ndarray

    @classmethod
    def of(cls, studies: Sequence[ContrastObservation]) -> "_Columns":
        ids, treat_a, treat_b, effects, ses = [*zip(*studies)] or [()] * 5
        effects, ses = np.array(effects, dtype=float), np.array(ses, dtype=float)
        return cls(ids, treat_a, treat_b, effects, ses)


def connected_components(nodes: Iterable, edges: Iterable[tuple]) -> list[list]:
    """Connected components of an undirected graph, as sorted node lists.

    Nodes are labels or integer codes. Components are ordered by their
    smallest member so the output is deterministic regardless of input order.
    """
    groups = {}
    for node, root in _spanning_forest(nodes, edges)[0].items():
        groups.setdefault(root, []).append(node)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def _spanning_forest(nodes: Iterable, edges: Iterable[tuple]) -> tuple[dict, list[int]]:
    """Union-find over ``edges``: each node's component root, and the indices of the edges
    that joined two components, which form a spanning forest of the graph."""
    parent = {node: node for node in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    forest = []
    for i, (a, b) in enumerate(edges):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            forest.append(i)
    return {node: find(node) for node in parent}, forest


class NetworkDataset:
    """Validated two-arm contrasts over a connected treatment network, held as columns.

    ``studies`` is a sequence of ``ContrastObservation`` records, or the
    parsers' checked ``_Columns``. ``study_ids`` holds the ids in study order,
    ``treatments`` the sorted labels; ``reference`` defaults to the
    lexicographically smallest treatment when not supplied. The numeric
    columns are built once, at construction: ``effects()``, ``std_errors()``,
    ``variances()`` and ``weights()`` return the same read-only arrays, as are
    the integer codes: ``codes`` holds each study's (treat_a, treat_b) indices
    into ``treatments``, ``design_pairs`` the sorted codes lo * n + hi of the
    designs and ``design_ids`` each study's index into them. ``studies``, the
    same data as ``ContrastObservation`` records, and ``design``, the contrast
    coding (``DesignMatrix``), are built when first read.
    """

    def __init__(
        self,
        name: str,
        measure: EffectMeasure,
        studies: Iterable[ContrastObservation] | _Columns,
        reference: str = "",
    ) -> None:
        if type(studies) is not _Columns:
            records = tuple(studies)
            if records and set(map(type, records)) != {ContrastObservation}:
                # a plain tuple unpacks like a study but has not been through its checks
                raise TypeError("studies must be ContrastObservation records")
            self.studies = records  # the value of the cached property
            studies = _Columns.of(records)
        ids, treat_a, treat_b, effects, std_errors = studies
        if not ids:
            raise DatasetError("dataset contains no studies")
        if len(set(ids)) < len(ids):
            seen: set[str] = set()
            for study_id in ids:
                if study_id in seen:
                    raise DatasetError(f"duplicate study id {study_id!r}")
                seen.add(study_id)
        labels = sorted({*treat_a, *treat_b})
        ref = reference.strip() if reference else labels[0]
        if ref not in labels:
            raise DatasetError(f"reference treatment {ref!r} not in dataset")
        # code order is label order, so pair codes sort as the label pairs do
        code, n, m = {t: j for j, t in enumerate(labels)}, len(labels), len(ids)
        a = np.fromiter(map(code.__getitem__, treat_a), np.intp, m)
        b = np.fromiter(map(code.__getitem__, treat_b), np.intp, m)
        pairs, design_ids = _pair_index(np.minimum(a, b) * n + np.maximum(a, b), n)
        components = connected_components(range(n), (divmod(c, n) for c in pairs.tolist()))
        if len(components) > 1:
            parts = " | ".join("{" + ",".join(labels[j] for j in c) + "}" for c in components)
            raise DatasetError(f"disconnected network: {parts}")
        self.name, self.measure, self.reference = name, measure, ref
        self.study_ids, self.treatments = tuple(ids), tuple(labels)
        std_errors = np.asarray(std_errors, dtype=float)
        variances = std_errors**2
        for attr, column in (
            ("codes", np.array((a, b))),
            ("design_pairs", pairs),
            ("design_ids", design_ids),
            ("_effects", np.asarray(effects, dtype=float)),
            ("_std_errors", std_errors),
            ("_variances", variances),
            ("_weights", 1.0 / variances),
        ):
            column.setflags(write=False)
            setattr(self, attr, column)

    @functools.cached_property
    def studies(self) -> tuple[ContrastObservation, ...]:
        """The studies as records, in study order."""
        labels, (a, b) = self.treatments, self.codes.tolist()
        return tuple(map(
            ContrastObservation, self.study_ids, [labels[j] for j in a], [labels[j] for j in b],
            self._effects.tolist(), self._std_errors.tolist(),
        ))

    @property
    def n_studies(self) -> int:
        return len(self.study_ids)

    @property
    def n_treatments(self) -> int:
        return len(self.treatments)

    def effects(self) -> np.ndarray:
        return self._effects

    def std_errors(self) -> np.ndarray:
        return self._std_errors

    def variances(self) -> np.ndarray:
        return self._variances

    def weights(self) -> np.ndarray:
        """Inverse-variance weights 1/se^2."""
        return self._weights

    @functools.cached_property
    def design(self) -> DesignMatrix:
        """Design matrix of E(y) = X d, shared by every model fit of this dataset."""
        return build_design_matrix(self)

    def drop_studies(self, study_ids: Iterable[str]) -> "NetworkDataset":
        """New dataset without the named studies; revalidates connectivity.

        The reference is kept if its treatment survives, otherwise it falls
        back to the default rule.
        """
        drop = {str(s).strip() for s in study_ids}
        if "" in drop:
            raise DatasetError("blank study id: every study has a non-empty id")
        unknown = sorted(drop.difference(self.study_ids))
        if unknown:
            raise DatasetError(f"unknown study id(s): {', '.join(unknown)}")
        keep = np.array([s not in drop for s in self.study_ids], dtype=bool)
        if not keep.any():
            raise DatasetError("exclusion removes every study")
        labels, codes = self.treatments, self.codes[:, keep]
        ref = self.reference if (codes == labels.index(self.reference)).any() else ""
        a, b = codes.tolist()
        return NetworkDataset(self.name, self.measure, _Columns(
            [s for s in self.study_ids if s not in drop], [labels[j] for j in a],
            [labels[j] for j in b], self._effects[keep], self._std_errors[keep],
        ), ref)


def _pair_index(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct pair codes (each below n^2), and each study's index into them.

    ``np.unique(codes, return_inverse=True)`` without its sort: a table of the
    n^2 codes marks the ones present, unless it would be much larger than the
    studies.
    """
    if n * n > 64 * len(codes) + 4096:
        return np.unique(codes, return_inverse=True)
    present = np.zeros(n * n, dtype=bool)
    present[codes] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[codes]


class Design(NamedTuple):
    """All studies comparing the same unordered treatment pair."""

    pair: tuple[str, str]
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def group_designs(ds: NetworkDataset) -> list[Design]:
    """Partition the studies into designs, sorted by canonical pair."""
    return _designs(ds.treatments, ds.design_pairs, ds.design_ids)


def _designs(treatments: tuple[str, ...], pairs: np.ndarray, design_ids: np.ndarray) -> list[Design]:
    """Designs from the pair codes lo * n + hi and each study's index into them; a pair
    that no study has is left out."""
    n = len(treatments)
    order = np.argsort(design_ids, kind="stable").tolist()
    ends = np.cumsum(np.bincount(design_ids, minlength=len(pairs))).tolist()
    return [
        Design((treatments[code // n], treatments[code % n]), tuple(order[start:end]))
        for code, start, end in zip(pairs.tolist(), [0] + ends, ends) if end > start
    ]


@dataclass(frozen=True)
class DesignMatrix:
    """Contrast coding of the studies, held as the two endpoint columns of each row.

    Row i of X carries +1 in the column of ``treat_b`` and -1 in the column
    of ``treat_a``; the reference treatment has no column, so E(y) = X d with
    d the relative effects of the non-reference treatments versus the
    reference. ``b_idx[i]`` and ``a_idx[i]`` are those columns, with the
    reference mapped to the dummy column ``cols``, so the kernels work on
    arrays padded by one entry and drop it. ``gram_index`` holds, for the
    four entries (a, a), (b, b), (lo, hi), (hi, lo) of every row with
    lo/hi = min/max(a, b), their flat positions in a (cols + 1)^2 matrix:
    one ``np.bincount`` with weights (w, w, -w, -w) gives X'WX as the
    weighted Laplacian of the network, exactly symmetric. ``xt_index`` is
    (b_idx, a_idx) for X'v as one bincount of (v, -v). (k, m) ``a_idx`` and
    ``b_idx`` hold a stack of k designs over the same columns, one per row, and
    the indices are then built per row.
    """

    a_idx: np.ndarray
    b_idx: np.ndarray
    column_treatments: tuple[str, ...]
    gram_index: np.ndarray = field(init=False, repr=False)
    xt_index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.a_idx, dtype=np.intp)
        b = np.asarray(self.b_idx, dtype=np.intp)
        size = self.cols + 1
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        gram_index = np.concatenate(
            (a * size + a, b * size + b, lo * size + hi, hi * size + lo), axis=-1
        )
        for name, arr in (
            ("a_idx", a),
            ("b_idx", b),
            ("gram_index", gram_index),
            ("xt_index", np.concatenate((b, a), axis=-1)),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def cols(self) -> int:
        return len(self.column_treatments)


def build_design_matrix(ds: NetworkDataset) -> DesignMatrix:
    """Design for the dataset; columns are the sorted non-reference treatments."""
    columns = tuple(t for t in ds.treatments if t != ds.reference)
    ref, codes = ds.treatments.index(ds.reference), ds.codes
    # codes past the reference shift down one column; the reference takes the dummy
    a, b = np.where(codes == ref, len(columns), codes - (codes > ref))
    return DesignMatrix(a, b, columns)


# ---------------------------------------------------------------------------
# Contrast derivation from arm-level summaries
# ---------------------------------------------------------------------------

def derive_contrast_binary(
    events_a: int, total_a: int, events_b: int, total_b: int, measure: EffectMeasure
) -> tuple[float, float]:
    """Effect and standard error of arm b versus arm a from a 2x2 table.

    0.5 is added to all four cells of the study's table if and only if any
    cell is zero, so every cell is positive. Returns (log odds ratio, se) or
    (log risk ratio, se).
    """
    for label, events, total in (("a", events_a, total_a), ("b", events_b, total_b)):
        if total < 1:
            raise DatasetError(f"arm {label}: total must be at least 1")
        if events < 0 or events > total:
            raise DatasetError(f"arm {label}: events outside [0, total]")

    try:
        cells = [float(n) for n in (events_a, total_a - events_a, events_b, total_b - events_b)]
    except OverflowError:
        raise DatasetError("counts too large for floating-point arithmetic") from None
    if 0.0 in cells:
        cells = [c + 0.5 for c in cells]
    a_e, a_n, b_e, b_n = cells

    if measure is EffectMeasure.LOG_OR:
        odds_ratio = b_e * a_n / (a_e * b_n)
        if not 0.0 < odds_ratio < math.inf:
            raise DatasetError("counts too large for floating-point arithmetic")
        effect = math.log(odds_ratio)
        se = math.sqrt(1 / a_e + 1 / a_n + 1 / b_e + 1 / b_n)
    elif measure is EffectMeasure.LOG_RR:
        na, nb = a_e + a_n, b_e + b_n
        effect = math.log((b_e / nb) / (a_e / na))
        se = math.sqrt(1 / b_e - 1 / nb + 1 / a_e - 1 / na)
    else:
        raise DatasetError("binary arm data requires measure logOR or logRR")
    return effect, se


def derive_contrast_continuous(
    mean_a: float, se_a: float, mean_b: float, se_b: float
) -> tuple[float, float]:
    """Mean difference of arm b versus arm a with se = sqrt(se_a^2 + se_b^2).

    The arm standard errors enter as-is; they must not be divided by sample
    size again (a common ingestion mistake for contrast-level databases).
    """
    if not (se_a > 0 and math.isfinite(se_a)) or not (se_b > 0 and math.isfinite(se_b)):
        raise DatasetError("arm standard errors must be positive")
    return float(mean_b) - float(mean_a), math.hypot(se_a, se_b)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_CONTRAST_HEADER = ("study_id", "treat_a", "treat_b", "effect", "se")
_ARM_BINARY_HEADER = ("study_id", "treatment", "events", "total")
_ARM_CONTINUOUS_HEADER = ("study_id", "treatment", "mean", "se")


def parse_dataset(
    source: bytes | bytearray | str | io.IOBase,
    fmt: str,
    *,
    measure: EffectMeasure | str | None = None,
    reference: str | None = None,
    name: str | None = None,
) -> NetworkDataset:
    """Parse a dataset from CSV or JSON content.

    CSV variants are recognized by their header: contrast-level rows
    (study_id,treat_a,treat_b,effect,se), binary arm-level rows
    (study_id,treatment,events,total; exactly two rows per study, 0.5 added
    to every cell of a table with a zero cell) or continuous arm-level rows
    (study_id,treatment,mean,se). CSV input needs the effect measure
    supplied by the caller; JSON carries it in the file. Explicit
    ``measure``/``reference``/``name`` arguments override file values; the
    name is the ``name`` argument, then the JSON ``name``, then "dataset".
    The ``reference`` and ``name`` arguments are stripped, as labels are.
    """
    return _build(source, fmt, measure, reference, name, "dataset")


def load_dataset(
    path: str | Path,
    *,
    measure: EffectMeasure | str | None = None,
    reference: str | None = None,
    name: str | None = None,
) -> NetworkDataset:
    """Load a dataset file; the format is inferred from the extension.

    Naming precedence: explicit ``name`` argument, then the name embedded in
    a JSON file, then the file stem.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read {str(path)!r}: {exc.strerror or exc}") from None
    fmt = "json" if path.suffix.lower() == ".json" else "csv"
    # an empty or blank name argument falls back to "dataset", as in parse_dataset
    return _build(data, fmt, measure, reference, name, path.stem if name is None else "dataset")


def _build(source, fmt, measure, reference, name, default_name) -> NetworkDataset:
    """Decode, parse and validate ``source``: the one ``NetworkDataset`` construction."""
    if not isinstance(source, (bytes, bytearray, str)):
        source = source.read()
    if isinstance(source, str):
        text = source
    else:
        try:
            text = bytes(source).decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise DatasetError(f"input is not valid UTF-8: {exc}") from None

    if isinstance(measure, str):
        measure = EffectMeasure.parse(measure)

    fmt_key = fmt.strip().lower()
    if fmt_key not in ("csv", "json"):
        raise DatasetError(f"unknown dataset format {fmt!r} (expected csv or json)")
    parse = _parse_json if fmt_key == "json" else _parse_csv
    measure, columns, file_name, file_reference = parse(text, measure)
    # a blank argument counts as an empty one, as a blank JSON label does
    return NetworkDataset(
        (name or "").strip() or file_name or default_name,
        measure,
        columns,
        file_reference if reference is None else reference.strip(),
    )


def _located(where: str, fault: object) -> DatasetError:
    """The error ``fault`` (a message or an exception) prefixed by ``where``."""
    return DatasetError(f"{where}: {fault}")


def _number(raw, column: str, kind: type) -> float | int:
    """``kind(raw)`` for float or int; the error quotes at most 40 characters."""
    try:
        if isinstance(raw, str) and "_" in raw:  # float() would read "1_00" as 100
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        text = str(raw).strip()
        shown = repr(text) if len(text) <= 40 else repr(text[:40]) + "..."
        if (text[1:] if text.startswith(("+", "-")) else text).isdecimal():
            raise DatasetError(
                f"{column} {shown} has {len(text)} characters, "
                "more digits than Python converts to an integer"
            ) from None
        raise DatasetError(f"non-numeric {column} {shown}") from None


def _checked(ids, treat_a, treat_b, effects, ses) -> _Columns | None:
    """The columns of the studies' fields (CSV cells or JSON values), or None where a
    study fails ``ContrastObservation``'s coercion or checks.

    Labels are ``str(v).strip()``, an empty id is "row<i>" and a number is
    ``float(v)``, as for one study; the checks run over whole columns. On None
    the parser builds the studies one by one, so the first faulty one raises
    its own error.
    """
    try:
        effects, ses = (np.fromiter(map(float, c), float, len(c)) for c in (effects, ses))
    except (ValueError, OverflowError):
        return None
    ids, treat_a, treat_b = ([*map(str.strip, map(str, c))] for c in (ids, treat_a, treat_b))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        var = ses * ses
        ok = np.isfinite(effects) & np.isfinite(ses) & (ses > 0) & (0.0 < var) & (var < math.inf)
        ok &= 1.0 / var < math.inf
    if ok.all() and all(treat_a) and all(treat_b) and not any(map(operator.eq, treat_a, treat_b)):
        ids = [study_id or f"row{i}" for i, study_id in enumerate(ids, start=1)]
        return _Columns(ids, treat_a, treat_b, effects, ses)
    return None


def _parse_csv(
    text: str, measure: EffectMeasure | None
) -> tuple[EffectMeasure, _Columns, str, str]:
    """Measure and studies of a CSV dataset; CSV has no name or reference ("")."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [row for row in reader if any(cell.strip() for cell in row)]
    except csv.Error as exc:
        raise DatasetError(f"CSV line {reader.line_num}: {exc}") from None
    if not rows:
        raise DatasetError("empty CSV input")
    header = tuple(cell.strip().lower() for cell in rows[0])
    body = rows[1:]

    if header == _CONTRAST_HEADER:
        if measure is None:
            raise DatasetError("effect measure required for contrast CSV input")
        return measure, _contrast_columns(body) or _Columns.of(_contrast_rows(body)), "", ""
    # arm-level rows, two per study: the header picks how the two value
    # columns parse and how (a1, a2, b1, b2) become an effect and its se
    if header == _ARM_BINARY_HEADER:
        if measure is None:
            raise DatasetError("effect measure required for arm-level CSV input")
        kind, derive = int, functools.partial(derive_contrast_binary, measure=measure)
    elif header == _ARM_CONTINUOUS_HEADER:
        if measure is not None and measure is not EffectMeasure.MD:
            raise DatasetError("continuous arm data implies measure MD")
        measure, kind, derive = EffectMeasure.MD, float, derive_contrast_continuous
    else:
        raise DatasetError(
            "unrecognized CSV header: expected "
            + ", ".join(
                "/".join(h) for h in (_CONTRAST_HEADER, _ARM_BINARY_HEADER, _ARM_CONTINUOUS_HEADER)
            )
        )
    arms: dict[str, list[tuple[str, float | int, float | int]]] = {}
    for i, row in enumerate(body, start=1):
        try:
            if len(row) != 4:
                raise DatasetError(f"expected 4 fields, got {len(row)}")
            study_id = row[0].strip()
            if not study_id:
                raise DatasetError("arm-level rows need an explicit study_id")
            values = (_number(row[2], header[2], kind), _number(row[3], header[3], kind))
        except DatasetError as exc:
            raise _located(f"row {i}", exc) from None
        arms.setdefault(study_id, []).append((row[1], *values))
    for study_id, rows in arms.items():
        if len(rows) != 2:
            raise _located(f"study {study_id!r}", f"expected exactly 2 arms, got {len(rows)}")
    studies = []
    for study_id, ((treat_a, a1, a2), (treat_b, b1, b2)) in arms.items():
        try:
            effect, se = derive(a1, a2, b1, b2)
        except DatasetError as exc:
            raise _located(f"study {study_id!r}", exc) from None
        studies.append(ContrastObservation(study_id, treat_a, treat_b, effect, se))
    return measure, _Columns.of(studies), "", ""


def _contrast_columns(body: list[list[str]]) -> _Columns | None:
    """The checked columns of contrast rows, or None if a row is faulty."""
    if not body or set(map(len, body)) != {5}:
        return None
    ids, treat_a, treat_b, effects, ses = zip(*body)
    if "_" in "".join(effects) or "_" in "".join(ses):  # float() would read "1_00" as 100
        return None
    return _checked(ids, treat_a, treat_b, effects, ses)


def _contrast_rows(body: list[list[str]]) -> list[ContrastObservation]:
    """The studies of contrast rows, one by one: the first faulty row raises its error."""
    studies = []
    for i, row in enumerate(body, start=1):
        try:
            if len(row) != 5:
                raise DatasetError(f"expected 5 fields, got {len(row)}")
            studies.append(ContrastObservation(row[0].strip() or f"row{i}", *row[1:]))
        except DatasetError as exc:
            raise _located(f"row {i}", exc) from None
    return studies


def _parse_json(
    text: str, measure: EffectMeasure | None
) -> tuple[EffectMeasure, _Columns, str, str]:
    """Measure, studies, name and reference of a JSON dataset ("" for a missing field).

    A label is ``str(v).strip()``; a study id that comes out empty is "row<i>".
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # besides syntax errors: integer literals past the int-string digit
        # limit (ValueError) and nesting deeper than the recursion limit
        raise DatasetError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DatasetError("JSON dataset must be an object")
    for key in ("name", "reference"):
        if type(doc.get(key, "")) not in (str, int, float):
            raise DatasetError(f"field {key!r} must be a string or a number")
    if type(doc.get("measure", "")) is not str:
        raise DatasetError("field 'measure' must be a string")
    raw_studies = doc.get("studies")
    if not isinstance(raw_studies, list) or not raw_studies:
        raise DatasetError("JSON dataset needs a non-empty 'studies' array")
    if measure is None:
        if "measure" not in doc:
            raise DatasetError("JSON dataset missing 'measure'")
        measure = EffectMeasure.parse(doc["measure"])
    columns = _json_columns(raw_studies) or _Columns.of(_json_rows(raw_studies))
    name, reference = (str(doc.get(key, "")).strip() for key in ("name", "reference"))
    return measure, columns, name, reference


def _json_columns(entries: list) -> _Columns | None:
    """The checked columns of JSON studies, or None if a study is faulty."""
    try:
        treat_a, treat_b = [e["treat_a"] for e in entries], [e["treat_b"] for e in entries]
        effects, ses = [e["effect"] for e in entries], [e["se"] for e in entries]
        ids = [e.get("study_id", "") for e in entries]
    except (KeyError, TypeError):  # a missing field, or an entry that is not an object
        return None
    # json.loads yields exact types, so these checks also reject bools
    if not {*map(type, effects), *map(type, ses)} <= {int, float}:
        return None
    if not {*map(type, ids), *map(type, treat_a), *map(type, treat_b)} <= {str, int, float}:
        return None
    return _checked(ids, treat_a, treat_b, effects, ses)


def _json_rows(entries: list) -> list[ContrastObservation]:
    """The studies of JSON entries, one by one: the first faulty entry raises its error."""
    studies = []
    for i, entry in enumerate(entries, start=1):
        try:
            if not isinstance(entry, dict):
                raise DatasetError("expected an object")
            missing = [k for k in ("treat_a", "treat_b", "effect", "se") if k not in entry]
            if missing:
                raise DatasetError(f"missing field(s) {', '.join(missing)}")
            for key in ("effect", "se"):
                if type(entry[key]) not in (int, float):
                    raise DatasetError(f"field {key!r} must be a number")
            for key in ("study_id", "treat_a", "treat_b"):
                if type(entry.get(key, "")) not in (str, int, float):
                    raise DatasetError(f"field {key!r} must be a string or a number")
            studies.append(ContrastObservation(
                str(entry.get("study_id", "")).strip() or f"row{i}",
                entry["treat_a"], entry["treat_b"], entry["effect"], entry["se"],
            ))
        except DatasetError as exc:
            raise _located(f"study {i}", exc) from None
    return studies
