"""Byte-identity gate: every ``nma`` command below gives the outputs in ``golden/record.json``.

Each case runs ``cli.main`` in-process and is held to its record: the exit
code, stdout, stderr, every file it writes and the numpy warnings it raises.
A case is an argument list in which ``{corpus}``, ``{in}`` and ``{out}``
stand for the corpus directory, the directory of the generated inputs and
the case's own output directory. Outputs longer than ``MAX_STORED`` are held
by their SHA-256 hash. A JSON number that moves by at most
1e-12 (1 + |v|) is reported cell by cell in a warning but does not fail the
case; any other difference does.

``python tests/record_golden.py`` (with ``src`` on the path) rewrites the
record, for a change whose outputs are meant to move.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from nmacompare.cli import main

from conftest import (
    CORPUS_DIR,
    ESCAPING_INPUTS,
    LOO_CUTS,
    LOO_NO_DF,
    OVERFLOW_DL_TRACE,
    OVERFLOW_FE,
    OVERFLOW_GRAM,
    OVERFLOW_REML_BOUND,
    REML_TOP_EDGE,
    REML_TOP_EDGE_LOO,
    SWAMPED_GRAM,
    SWAMPED_GRAM_LOO,
    random_network,
)

RECORD = Path(__file__).resolve().parent / "golden" / "record.json"
NETGEN = Path(__file__).resolve().parent.parent / "perfbench" / "netgen.py"

# Outputs longer than this are recorded as their SHA-256 hash.
MAX_STORED = 2048

ERROR_INPUTS = {
    "overflow_fe": OVERFLOW_FE,
    "overflow_reml_bound": OVERFLOW_REML_BOUND,
    "overflow_gram": OVERFLOW_GRAM,
    "overflow_dl_trace": OVERFLOW_DL_TRACE,
    "swamped_gram": SWAMPED_GRAM,
    "swamped_gram_loo": SWAMPED_GRAM_LOO,
    "loo_cuts": LOO_CUTS,
    "loo_no_df": LOO_NO_DF,
    "reml_top_edge": REML_TOP_EDGE,
    "reml_top_edge_loo": REML_TOP_EDGE_LOO,
}
RANDOM_SEEDS = range(12)

_C = "study_id,treat_a,treat_b,effect,se\n"


def _studies(*studies: str) -> str:
    return '{"measure": "MD", "studies": [' + ", ".join(studies) + "]}"


_S = '{{"study_id": {}, "treat_a": {}, "treat_b": {}, "effect": 0.5, "se": {}}}'
# Ingestion faults, as files of the directory ``{in}/faults``: name -> (content, the
# --measure its ``validate`` case passes). Each fault sits past the first study or row.
FAULT_INPUTS = {
    **{stem + suffix: (text, "logOR" if stem == "huge-total" else "MD")
       for stem, (suffix, text, _) in ESCAPING_INPUTS.items()},
    "disconnected.json": (_studies(_S.format('"s1"', '"A"', '"B"', 1),
                                   _S.format('"s2"', '"C"', '"D"', 1)), None),
    "disconnected.csv": (_C + "s1,A,B,0.1,1\ns2,C,D,0.2,1\n", "MD"),
    "duplicate-id.json": (_studies(_S.format('"s1"', '"P"', '"A"', 1),
                                   _S.format('"s1"', '"P"', '"A"', 2)), None),
    "duplicate-id.csv": (_C + "s1,P,A,0.5,0.2\ns2,P,A,0.4,0.3\ns1,P,A,0.7,0.2\n", "MD"),
    "zero-se.json": (_studies(_S.format('"s1"', '"P"', '"A"', 1),
                              _S.format('"s2"', '"P"', '"A"', 0)), None),
    "zero-se.csv": (_C + "s1,P,A,0.5,0.2\n,P,A,0.4,0\n", "MD"),
    "bool-label.json": (_studies(_S.format('"s1"', '"P"', '"A"', 1),
                                 _S.format('"s2"', '"P"', "true", 1)), None),
    "list-label.json": (_studies(_S.format('"s1"', '"P"', '"A"', 1),
                                 _S.format('["s2"]', '"P"', '"A"', 1)), None),
    "missing-field.json": (_studies(_S.format('"s1"', '"P"', '"A"', 1),
                                    '{"study_id": "s2", "treat_a": "P", "treat_b": "A", '
                                    '"effect": 0.5}'), None),
    "missing-field.csv": (_C + "s1,P,A,0.5,0.2\ns2,P,A,0.4\n", "MD"),
    "three-arms.csv": ("study_id,treatment,mean,se\ns1,P,1,1\ns1,A,2,1\n"
                       "s2,P,1,1\ns2,A,2,1\ns2,B,3,1\n", None),
    # labels: a blank id takes the row default, a numeric 0 is the label "0"
    "blank-ids.json": (_studies(_S.format('" "', '"P"', '"A"', 1),
                                _S.format('"  "', '"P"', '"A"', 2)), None),
    "zero-id.json": (_studies(_S.format('"s1"', '"P"', '"A"', 1),
                              _S.format("0", '"P"', '"A"', 0)), None),
}

_CORPUS = {
    "nsaid_pain_relief": ("logRR", "Placebo"),
    "smoke_alarm_interventions": ("logOR", "Usual Care"),
    "biologics_acr70": ("logOR", "Placebo/Standard Care"),
}
_FITS = {
    "fit-fe": ["fit", "--model", "fe"],
    "fit-me": ["fit", "--model", "me"],
    "fit-re-dl": ["fit", "--model", "re"],
    "fit-re-reml": ["fit", "--model", "re", "--tau-method", "reml"],
    "compare-dl": ["compare"],
    "compare-reml": ["compare", "--tau-method", "reml"],
    "loo-dl": ["loo"],
    "loo-reml": ["loo", "--tau-method", "reml"],
    "qdecomp": ["qdecomp", "--csv", "{out}/studies.csv"],
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for stem, (measure, target) in _CORPUS.items():
        for suffix, extra in ((".csv", ["--measure", measure]), (".json", [])):
            path = ["{corpus}/" + stem + suffix, *extra]
            key = stem + suffix
            cases[f"{key}:validate"] = ["validate", *path]
            cases[f"{key}:validate-pretty"] = ["validate", "--pretty", *path]
            for name, argv in _FITS.items():
                cases[f"{key}:{name}"] = [*argv, *path]
            cases[f"{key}:plot-network"] = ["plot", "--kind", "network", *path]
            cases[f"{key}:plot-forest"] = ["plot", "--kind", "forest", "--target", target, *path]
        ci90 = ["--ci-level", "0.9", "{corpus}/" + stem + ".json"]
        cases[f"{stem}.json:fit-re-ci90"] = ["fit", "--model", "re", *ci90]
        cases[f"{stem}.json:fit-me-ci90"] = ["fit", "--model", "me", *ci90]
        cases[f"{stem}.json:compare-ci90"] = ["compare", *ci90]
    nsaid = ["{corpus}/nsaid_pain_relief.csv", "--measure", "logRR"]
    cases["nsaid_pain_relief.csv:compare-exclude-row23"] = ["compare", "--exclude", "row23", *nsaid]
    cases["nsaid_pain_relief.csv:compare-exclude-unknown"] = ["compare", "--exclude", "nope", *nsaid]
    # label arguments: blank ones count as empty ones, padded ones as the bare label
    nsaid = "{corpus}/nsaid_pain_relief.json"
    for flag in ("reference", "name"):
        for label, text in (("empty", ""), ("blank", " ")):
            cases[f"nsaid_pain_relief.json:validate-{flag}-{label}"] = [
                "validate", nsaid, f"--{flag}", text,
            ]
    for label, text in (("padded", " Placebo "), ("blank", " ")):
        cases[f"nsaid_pain_relief.json:plot-forest-target-{label}"] = [
            "plot", "--kind", "forest", "--target", text, nsaid,
        ]
    # a title with characters that SVG text escapes
    cases["nsaid_pain_relief.json:plot-forest-title-escaped"] = [
        "plot", "--kind", "forest", "--target", "Placebo", "--name", "A & <B>", nsaid,
    ]
    cases["nsaid_pain_relief.json:plot-network-title-escaped"] = [
        "plot", "--kind", "network", "--name", "A & <B>", nsaid,
    ]
    # numeric flags out of their range, or not numbers, are usage errors
    for flag, text in (("alpha", "0"), ("alpha", "x"), ("jobs", "0"), ("jobs", "x")):
        cases[f"corpus:batch-{flag}-{text}"] = ["batch", "{corpus}", f"--{flag}", text]
    for command in (["fit", "--model", "re"], ["compare"], ["plot", "--kind", "forest",
                                                             "--target", "Placebo"]):
        for text in ("0", "1.5"):
            cases[f"nsaid_pain_relief.json:{command[0]}-ci-level-{text}"] = [
                *command, "--ci-level", text, nsaid,
            ]
    cases["corpus:batch"] = ["batch", "{corpus}"]
    cases["corpus:batch-jobs2"] = ["batch", "{corpus}", "--jobs", "2"]
    cases["corpus:batch-reml-out-dir"] = ["batch", "{corpus}", "--tau-method", "reml",
                                          "--out-dir", "{out}"]
    for jobs in ("1", "2"):
        cases[f"inputs:batch-jobs{jobs}"] = ["batch", "{in}", "--jobs", jobs]
    # histogram.json over many networks; the REML one has a row in the closed last bin
    cases["inputs:batch-out-dir"] = ["batch", "{in}", "--out-dir", "{out}"]
    cases["inputs:batch-reml-out-dir"] = ["batch", "{in}", "--tau-method", "reml",
                                          "--out-dir", "{out}"]
    # the benchmark's seed-1 batch directory: small networks, the corpus and planted files
    cases["batch-dir:batch-out-dir"] = ["batch", "{in}/batch-dir", "--out-dir", "{out}"]
    cases["batch-dir:batch-reml-out-dir"] = ["batch", "{in}/batch-dir", "--tau-method", "reml",
                                             "--out-dir", "{out}"]
    for file, (_, measure) in FAULT_INPUTS.items():
        measure_args = [] if measure is None else ["--measure", measure]
        cases[f"faults/{file}:validate"] = ["validate", f"{{in}}/faults/{file}", *measure_args]
    for jobs in ("1", "2"):
        cases[f"faults:batch-jobs{jobs}"] = ["batch", "{in}/faults", "--jobs", jobs]
    for seed in RANDOM_SEEDS:
        for name in ("compare-dl", "compare-reml", "loo-dl", "loo-reml", "qdecomp"):
            cases[f"random{seed}:{name}"] = [*_FITS[name], f"{{in}}/random{seed}.json"]
    for stem in ERROR_INPUTS:
        for name, argv in _FITS.items():
            cases[f"{stem}:{name}"] = [*argv, f"{{in}}/{stem}.json"]
    for study in ("s5", "s6"):
        cases[f"loo_cuts:compare-exclude-{study}"] = ["compare", "--exclude", study,
                                                      "{in}/loo_cuts.json"]
    return cases


CASES = _cases()


def _netgen() -> dict:
    """The namespace of the benchmark's network generator ``perfbench/netgen.py``, made by
    executing its source, which neither imports it as a module nor writes bytecode next to it."""
    namespace: dict = {"__name__": "netgen"}
    exec(compile(NETGEN.read_text(encoding="utf-8"), str(NETGEN), "exec"), namespace)
    return namespace


def write_batch_dir(directory: Path) -> None:
    """The benchmark's seed-1 batch directory: 180 small networks, the corpus JSON files and
    the planted bad and untestable files."""
    netgen = _netgen()
    directory.mkdir()
    for doc in netgen["small_networks"](1, 180):
        netgen["write"](doc, directory / f"{doc['name']}.json")
    for stem in _CORPUS:
        (directory / f"{stem}.json").write_bytes((CORPUS_DIR / f"{stem}.json").read_bytes())
    for file, text in netgen["planted_files"](1).items():
        (directory / file).write_text(text, encoding="utf-8")


def write_inputs(directory: Path) -> None:
    """The conftest error inputs and the random networks, as JSON files in ``directory``, the
    ingestion faults in its ``faults`` subdirectory and the benchmark's batch directory in
    ``batch-dir``."""
    (directory / "faults").mkdir()
    write_batch_dir(directory / "batch-dir")
    for file, (text, _) in FAULT_INPUTS.items():
        (directory / "faults" / file).write_text(text, encoding="utf-8")
    for stem, text in ERROR_INPUTS.items():
        (directory / f"{stem}.json").write_text(text, encoding="utf-8")
    for seed in RANDOM_SEEDS:
        ds = random_network(np.random.default_rng(seed))
        doc = {"name": f"random{seed}", "measure": ds.measure.value, "studies": [
            obs._asdict() for obs in ds.studies
        ]}
        (directory / f"random{seed}.json").write_text(json.dumps(doc), encoding="utf-8")


def _stored(text: str) -> str | dict:
    if len(text) <= MAX_STORED:
        return text
    return {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def run_case(argv: list[str], inputs: Path, out: Path) -> dict:
    """Exit code, stdout, stderr, written files and numpy warnings of one ``nma`` command.

    Outputs longer than ``MAX_STORED`` come back as their hash; the input
    directories are named by their placeholders, so the record does not
    depend on where it was made.
    """
    out.mkdir(parents=True, exist_ok=True)
    places = {"{corpus}": str(CORPUS_DIR), "{in}": str(inputs), "{out}": str(out)}
    for key, value in places.items():
        argv = [arg.replace(key, value) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)

    def named(text: str) -> str:
        for key, value in places.items():
            text = text.replace(value, key)
        return text

    return {
        "exit": code,
        "stdout": _stored(named(stdout.getvalue())),
        "stderr": _stored(named(stderr.getvalue())),
        "files": {
            path.name: _stored(path.read_text(encoding="utf-8"))
            for path in sorted(out.iterdir())
        },
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
    }


def _moved(got, want, where: str) -> list[str]:
    """The cells of two JSON documents whose numbers moved within the tolerance.

    Fails on any other difference: structure, keys, text or a number that
    moved further.
    """
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (got, want)):
        if type(got) is type(want) and got == want:
            return []
        assert isinstance(want, float) and abs(got - want) <= 1e-12 * (1.0 + abs(want)), (
            f"{where}: {want!r} -> {got!r}"
        )
        return [f"{where}: {want!r} -> {got!r}"]
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys differ"
        return [cell for key in want for cell in _moved(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        return [
            cell for i, (g, w) in enumerate(zip(got, want)) for cell in _moved(g, w, f"{where}[{i}]")
        ]
    assert type(got) is type(want) and got == want, f"{where}: {want!r} -> {got!r}"
    return []


def _moved_cells(got: str | dict, want: str | dict, where: str) -> list[str]:
    """[] when an output matches its record, else the JSON cells that moved within the tolerance."""
    if got == want:
        return []
    assert isinstance(got, str) and isinstance(want, str), f"{where}: hash differs"
    try:
        got_doc, want_doc = json.loads(got), json.loads(want)
    except ValueError:
        raise AssertionError(f"{where}: text differs") from None
    moved = _moved(got_doc, want_doc, where)
    assert moved, f"{where}: bytes differ outside the numbers"
    return moved


@pytest.fixture(scope="module")
def record() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("golden-inputs")
    write_inputs(directory)
    return directory


def test_record_holds_every_case(record):
    assert sorted(record) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_record(case, record, inputs, tmp_path):
    got, want = run_case(CASES[case], inputs, tmp_path), record[case]
    assert (got["exit"], got["warnings"]) == (want["exit"], want["warnings"])
    assert sorted(got["files"]) == sorted(want["files"])
    moved = _moved_cells(got["stdout"], want["stdout"], "stdout")
    moved += _moved_cells(got["stderr"], want["stderr"], "stderr")
    for name in want["files"]:
        moved += _moved_cells(got["files"][name], want["files"][name], name)
    if moved:
        warnings.warn(f"{case}: {len(moved)} JSON cells moved: " + "; ".join(moved))
