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
import dataclasses
import functools
import io
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable

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


@dataclass(frozen=True)
class ContrastObservation:
    """One two-arm study; ``effect`` estimates ``treat_b`` relative to ``treat_a``."""

    study_id: str
    treat_a: str
    treat_b: str
    effect: float
    se: float

    def __post_init__(self) -> None:
        for attr in ("study_id", "treat_a", "treat_b"):
            object.__setattr__(self, attr, str(getattr(self, attr)).strip())
        object.__setattr__(self, "effect", float(self.effect))
        object.__setattr__(self, "se", float(self.se))
        if not self.treat_a or not self.treat_b:
            raise DatasetError(f"study {self.study_id!r}: empty treatment label")
        if self.treat_a == self.treat_b:
            raise DatasetError(
                f"study {self.study_id!r}: treatments are identical ({self.treat_a!r})"
            )
        if not math.isfinite(self.effect):
            raise DatasetError(f"study {self.study_id!r}: non-finite effect")
        if not math.isfinite(self.se) or self.se <= 0:
            raise DatasetError(f"study {self.study_id!r}: non-positive standard error")
        # The fits use se^2 and 1/se^2; both must be positive finite numbers.
        variance = self.se * self.se
        if not (0.0 < variance < math.inf and 1.0 / variance < math.inf):
            raise DatasetError(
                f"study {self.study_id!r}: standard error {self.se!r} gives a variance se^2 "
                "or a weight 1/se^2 that is not a positive finite number"
            )

    @property
    def pair(self) -> tuple[str, str]:
        """Canonical unordered pair: lexicographically smaller label first."""
        if self.treat_a < self.treat_b:
            return (self.treat_a, self.treat_b)
        return (self.treat_b, self.treat_a)

    @property
    def canonical_sign(self) -> float:
        """+1 if ``effect`` is already oriented as pair[1] minus pair[0], else -1."""
        return 1.0 if self.treat_a < self.treat_b else -1.0

    def flipped(self) -> "ContrastObservation":
        """Same study with arms swapped and the effect negated."""
        return ContrastObservation(self.study_id, self.treat_b, self.treat_a, -self.effect, self.se)


def connected_components(nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> list[list[str]]:
    """Connected components of an undirected graph, as sorted node lists.

    Components are ordered by their smallest member so the output is
    deterministic regardless of input order.
    """
    parent: dict[str, str] = {node: node for node in nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[str, list[str]] = {}
    for node in parent:
        groups.setdefault(find(node), []).append(node)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


@dataclass(frozen=True)
class NetworkDataset:
    """Validated collection of two-arm contrasts over a connected treatment network.

    ``treatments`` is derived (sorted labels); ``reference`` defaults to the
    lexicographically smallest treatment when not supplied. The numeric
    columns are built once, at construction: ``effects()``, ``std_errors()``,
    ``variances()`` and ``weights()`` return the same read-only arrays.
    ``design`` is the contrast-coding matrix, built on first use.
    """

    name: str
    measure: EffectMeasure
    studies: tuple[ContrastObservation, ...]
    reference: str = ""
    treatments: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        studies = tuple(self.studies)
        object.__setattr__(self, "studies", studies)
        if not studies:
            raise DatasetError("dataset contains no studies")
        seen: set[str] = set()
        for obs in studies:
            if obs.study_id in seen:
                raise DatasetError(f"duplicate study id {obs.study_id!r}")
            seen.add(obs.study_id)
        labels = sorted({t for obs in studies for t in (obs.treat_a, obs.treat_b)})
        object.__setattr__(self, "treatments", tuple(labels))
        ref = self.reference.strip() if self.reference else labels[0]
        if ref not in labels:
            raise DatasetError(f"reference treatment {ref!r} not in dataset")
        object.__setattr__(self, "reference", ref)
        components = connected_components(labels, [(o.treat_a, o.treat_b) for o in studies])
        if len(components) > 1:
            parts = " | ".join("{" + ",".join(c) + "}" for c in components)
            raise DatasetError(f"disconnected network: {parts}")
        std_errors = np.array([obs.se for obs in studies], dtype=float)
        variances = std_errors**2
        for name, column in (
            ("_effects", np.array([obs.effect for obs in studies], dtype=float)),
            ("_std_errors", std_errors),
            ("_variances", variances),
            ("_weights", 1.0 / variances),
        ):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    @property
    def n_studies(self) -> int:
        return len(self.studies)

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

    def study_index(self, study_id: str) -> int:
        for i, obs in enumerate(self.studies):
            if obs.study_id == study_id:
                return i
        raise DatasetError(f"unknown study id {study_id!r}")

    def drop_studies(self, study_ids: Iterable[str]) -> "NetworkDataset":
        """New dataset without the named studies; revalidates connectivity.

        The reference is kept if its treatment survives, otherwise it falls
        back to the default rule.
        """
        drop = {str(s).strip() for s in study_ids}
        known = {obs.study_id for obs in self.studies}
        unknown = sorted(drop - known)
        if unknown:
            raise DatasetError(f"unknown study id(s): {', '.join(unknown)}")
        remaining = tuple(obs for obs in self.studies if obs.study_id not in drop)
        if not remaining:
            raise DatasetError("exclusion removes every study")
        labels = {t for obs in remaining for t in (obs.treat_a, obs.treat_b)}
        ref = self.reference if self.reference in labels else ""
        return NetworkDataset(self.name, self.measure, remaining, ref)


@dataclass(frozen=True)
class Design:
    """All studies comparing the same unordered treatment pair."""

    pair: tuple[str, str]
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def group_designs(ds: NetworkDataset) -> list[Design]:
    """Partition the studies into designs, sorted by canonical pair."""
    groups: dict[tuple[str, str], list[int]] = {}
    for i, obs in enumerate(ds.studies):
        groups.setdefault(obs.pair, []).append(i)
    return [Design(pair, tuple(members)) for pair, members in sorted(groups.items())]


@dataclass(frozen=True)
class DesignMatrix:
    """Contrast-coding matrix with one row per study.

    Row i carries +1 in the column of ``treat_b`` and -1 in the column of
    ``treat_a``; the reference treatment has no column, so E(y) = X d with d
    the relative effects of the non-reference treatments versus the reference.
    """

    matrix: np.ndarray
    column_treatments: tuple[str, ...]

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=float)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]


def build_design_matrix(ds: NetworkDataset) -> DesignMatrix:
    """Design matrix for the dataset; columns are the sorted non-reference treatments."""
    columns = tuple(t for t in ds.treatments if t != ds.reference)
    index = {t: j for j, t in enumerate(columns)}
    mat = np.zeros((ds.n_studies, len(columns)), dtype=float)
    for i, obs in enumerate(ds.studies):
        if obs.treat_b != ds.reference:
            mat[i, index[obs.treat_b]] = 1.0
        if obs.treat_a != ds.reference:
            mat[i, index[obs.treat_a]] = -1.0
    return DesignMatrix(mat, columns)


# ---------------------------------------------------------------------------
# Contrast derivation from arm-level summaries
# ---------------------------------------------------------------------------

def derive_contrast_binary(
    events_a: int,
    total_a: int,
    events_b: int,
    total_b: int,
    measure: EffectMeasure,
    correction: float = 0.5,
) -> tuple[float, float]:
    """Effect and standard error of arm b versus arm a from a 2x2 table.

    ``correction`` is added to all four cells of the study's table if and only
    if any cell is zero. Returns (log odds ratio, se) or (log risk ratio, se).
    """
    for label, events, total in (("a", events_a, total_a), ("b", events_b, total_b)):
        if total < 1:
            raise DatasetError(f"arm {label}: total must be at least 1")
        if events < 0 or events > total:
            raise DatasetError(f"arm {label}: events outside [0, total]")
    if correction < 0:
        raise DatasetError("negative zero-cell correction")

    try:
        a_e, a_n = float(events_a), float(total_a - events_a)
        b_e, b_n = float(events_b), float(total_b - events_b)
    except OverflowError:
        raise DatasetError("counts too large for floating-point arithmetic") from None
    if 0.0 in (a_e, a_n, b_e, b_n):
        a_e += correction
        a_n += correction
        b_e += correction
        b_n += correction

    if measure is EffectMeasure.LOG_OR:
        if min(a_e, a_n, b_e, b_n) <= 0:
            raise DatasetError("degenerate 2x2 table")
        odds_ratio = b_e * a_n / (a_e * b_n)
        if not 0.0 < odds_ratio < math.inf:
            raise DatasetError("counts too large for floating-point arithmetic")
        effect = math.log(odds_ratio)
        se = math.sqrt(1 / a_e + 1 / a_n + 1 / b_e + 1 / b_n)
    elif measure is EffectMeasure.LOG_RR:
        na, nb = a_e + a_n, b_e + b_n
        if min(a_e, b_e) <= 0:
            raise DatasetError("degenerate 2x2 table")
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
    correction: float = 0.5,
) -> NetworkDataset:
    """Parse a dataset from CSV or JSON content.

    CSV variants are recognized by their header: contrast-level rows
    (study_id,treat_a,treat_b,effect,se), binary arm-level rows
    (study_id,treatment,events,total; exactly two rows per study) or
    continuous arm-level rows (study_id,treatment,mean,se). CSV input needs
    the effect measure supplied by the caller; JSON carries it in the file.
    Explicit ``measure``/``reference``/``name`` arguments override file values.
    """
    if isinstance(source, (bytes, bytearray)):
        try:
            text = bytes(source).decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise DatasetError(f"input is not valid UTF-8: {exc}") from None
    elif isinstance(source, str):
        text = source
    else:
        raw = source.read()
        text = raw.decode("utf-8-sig") if isinstance(raw, (bytes, bytearray)) else str(raw)

    if isinstance(measure, str):
        measure = EffectMeasure.parse(measure)

    fmt_key = fmt.strip().lower()
    if fmt_key == "json":
        return _parse_json(text, measure=measure, reference=reference, name=name)
    if fmt_key == "csv":
        return _parse_csv(
            text, measure=measure, reference=reference, name=name, correction=correction
        )
    raise DatasetError(f"unknown dataset format {fmt!r} (expected csv or json)")


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
    fmt = "json" if path.suffix.lower() == ".json" else "csv"
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read {str(path)!r}: {exc.strerror or exc}") from None
    ds = parse_dataset(data, fmt, measure=measure, reference=reference, name=name)
    if name is None and ds.name == "dataset":
        ds = dataclasses.replace(ds, name=path.stem)
    return ds


def _number_field(raw: str, row: int, column: str, kind: type) -> float | int:
    """Parse a CSV cell with ``kind`` (float or int); the error quotes at most 40 characters."""
    try:
        return kind(raw)
    except ValueError:
        text = raw.strip()
        shown = repr(text) if len(text) <= 40 else repr(text[:40]) + "..."
        if (text[1:] if text.startswith(("+", "-")) else text).isdecimal():
            raise DatasetError(
                f"row {row}: {column} {shown} has {len(text)} characters, "
                "more digits than Python converts to an integer"
            ) from None
        raise DatasetError(f"row {row}: non-numeric {column} {shown}") from None


def _parse_csv(
    text: str,
    *,
    measure: EffectMeasure | None,
    reference: str | None,
    name: str | None,
    correction: float,
) -> NetworkDataset:
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
        studies = []
        for i, row in enumerate(body, start=1):
            if len(row) != 5:
                raise DatasetError(f"row {i}: expected 5 fields, got {len(row)}")
            study_id = row[0].strip() or f"row{i}"
            effect = _number_field(row[3], i, "effect", float)
            se = _number_field(row[4], i, "se", float)
            try:
                studies.append(ContrastObservation(study_id, row[1], row[2], effect, se))
            except DatasetError as exc:
                raise DatasetError(f"row {i}: {exc}") from None
        return NetworkDataset(name or "dataset", measure, tuple(studies), reference or "")

    if header == _ARM_BINARY_HEADER:
        if measure is None:
            raise DatasetError("effect measure required for arm-level CSV input")
        arms = _collect_arms(body, kind=int, columns=("events", "total"))
        studies = []
        for study_id, ((treat_a, ea, na), (treat_b, eb, nb)) in arms.items():
            try:
                effect, se = derive_contrast_binary(ea, na, eb, nb, measure, correction)
                studies.append(ContrastObservation(study_id, treat_a, treat_b, effect, se))
            except DatasetError as exc:
                raise DatasetError(f"study {study_id!r}: {exc}") from None
        return NetworkDataset(name or "dataset", measure, tuple(studies), reference or "")

    if header == _ARM_CONTINUOUS_HEADER:
        if measure is not None and measure is not EffectMeasure.MD:
            raise DatasetError("continuous arm data implies measure MD")
        arms = _collect_arms(body, kind=float, columns=("mean", "se"))
        studies = []
        for study_id, ((treat_a, ma, sa), (treat_b, mb, sb)) in arms.items():
            try:
                effect, se = derive_contrast_continuous(ma, sa, mb, sb)
                studies.append(ContrastObservation(study_id, treat_a, treat_b, effect, se))
            except DatasetError as exc:
                raise DatasetError(f"study {study_id!r}: {exc}") from None
        return NetworkDataset(name or "dataset", EffectMeasure.MD, tuple(studies), reference or "")

    raise DatasetError(
        "unrecognized CSV header: expected "
        + ", ".join(
            "/".join(h) for h in (_CONTRAST_HEADER, _ARM_BINARY_HEADER, _ARM_CONTINUOUS_HEADER)
        )
    )


def _collect_arms(body, kind, columns):
    """Group arm-level rows by study id, preserving file order; two rows per study."""
    arms: dict[str, list[tuple[str, float, float]]] = {}
    for i, row in enumerate(body, start=1):
        if len(row) != 4:
            raise DatasetError(f"row {i}: expected 4 fields, got {len(row)}")
        study_id = row[0].strip()
        if not study_id:
            raise DatasetError(f"row {i}: arm-level rows need an explicit study_id")
        v1 = _number_field(row[2], i, columns[0], kind)
        v2 = _number_field(row[3], i, columns[1], kind)
        arms.setdefault(study_id, []).append((row[1].strip(), v1, v2))
    for study_id, rows in arms.items():
        if len(rows) != 2:
            raise DatasetError(f"study {study_id!r}: expected exactly 2 arms, got {len(rows)}")
    return arms


def _parse_json(
    text: str,
    *,
    measure: EffectMeasure | None,
    reference: str | None,
    name: str | None,
) -> NetworkDataset:
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
    studies = []
    for i, entry in enumerate(raw_studies, start=1):
        if not isinstance(entry, dict):
            raise DatasetError(f"study {i}: expected an object")
        missing = [k for k in ("treat_a", "treat_b", "effect", "se") if k not in entry]
        if missing:
            raise DatasetError(f"study {i}: missing field(s) {', '.join(missing)}")
        # json.loads yields exact types, so these checks also reject bools
        for key in ("effect", "se"):
            if type(entry[key]) not in (int, float):
                raise DatasetError(f"study {i}: field {key!r} must be a number")
        for key in ("study_id", "treat_a", "treat_b"):
            if type(entry.get(key, "")) not in (str, int, float):
                raise DatasetError(f"study {i}: field {key!r} must be a string or a number")
        study_id = str(entry.get("study_id") or f"row{i}")
        try:
            studies.append(
                ContrastObservation(
                    study_id,
                    str(entry["treat_a"]),
                    str(entry["treat_b"]),
                    float(entry["effect"]),
                    float(entry["se"]),
                )
            )
        except DatasetError as exc:
            raise DatasetError(f"study {i}: {exc}") from None
        except OverflowError:
            # an integer literal beyond the float range
            raise DatasetError(
                f"study {i}: effect or se is too large for a floating-point number"
            ) from None
    return NetworkDataset(
        name or str(doc.get("name") or "dataset"),
        measure,
        tuple(studies),
        reference if reference is not None else str(doc.get("reference") or ""),
    )
