"""Parsing, validation, designs, contrast derivation and the design matrix."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmacompare import (
    ContrastObservation,
    DatasetError,
    EffectMeasure,
    NetworkDataset,
    build_design_matrix,
    connected_components,
    dataset,
    derive_contrast_binary,
    derive_contrast_continuous,
    group_designs,
    load_dataset,
    parse_dataset,
)

from conftest import (
    ESCAPING_INPUTS, decompose, dense_design, flipped, make_dataset, random_network,
)
from test_kernels import networks


class TestParseContrastCsv:
    def test_single_row(self):
        ds = parse_dataset(b"study_id,treat_a,treat_b,effect,se\ns1,P,A,0.5,0.2\n", "csv",
                           measure="MD")
        assert ds.n_studies == 1
        assert ds.treatments == ("A", "P")
        assert ds.studies[0].effect == 0.5
        assert ds.studies[0].se == 0.2

    def test_corpus_shape(self, corpus_dir):
        raw = (corpus_dir / "nsaid_pain_relief.csv").read_bytes()
        ds = parse_dataset(raw, "csv", measure="logRR")
        assert ds.n_studies == 29
        assert ds.n_treatments == 7

    def test_synthetic_row_ids(self):
        text = "study_id,treat_a,treat_b,effect,se\n,P,A,0.5,0.2\n,P,B,0.1,0.3\n"
        ds = parse_dataset(text, "csv", measure="MD")
        assert [o.study_id for o in ds.studies] == ["row1", "row2"]

    def test_zero_se_rejected(self):
        with pytest.raises(DatasetError, match="non-positive standard error"):
            parse_dataset("study_id,treat_a,treat_b,effect,se\ns1,P,A,0.5,0\n", "csv",
                          measure="MD")

    @pytest.mark.parametrize("se", ["1e-200", "1e-160", "1e200"])
    def test_se_outside_float_range_rejected(self, se):
        """se^2 underflows to 0, 1/se^2 overflows, or se^2 overflows."""
        text = f"study_id,treat_a,treat_b,effect,se\ns1,P,A,0.5,0.2\ns2,P,A,0.4,{se}\n"
        with pytest.raises(DatasetError, match="study 's2': .* not a positive finite number"):
            parse_dataset(text, "csv", measure="MD")

    def test_same_treatment_rejected(self):
        with pytest.raises(DatasetError, match="identical"):
            parse_dataset("study_id,treat_a,treat_b,effect,se\ns1,P,P,0.5,0.2\n", "csv",
                          measure="MD")

    def test_non_numeric_effect_rejected(self):
        with pytest.raises(DatasetError, match="row 1: non-numeric effect"):
            parse_dataset("study_id,treat_a,treat_b,effect,se\ns1,P,A,oops,0.2\n", "csv",
                          measure="MD")

    def test_missing_field_rejected(self):
        with pytest.raises(DatasetError, match="expected 5 fields"):
            parse_dataset("study_id,treat_a,treat_b,effect,se\ns1,P,A,0.5\n", "csv",
                          measure="MD")

    def test_duplicate_id_rejected(self):
        text = "study_id,treat_a,treat_b,effect,se\ns1,P,A,0.5,0.2\ns1,P,A,0.7,0.2\n"
        with pytest.raises(DatasetError, match="duplicate study id"):
            parse_dataset(text, "csv", measure="MD")

    def test_measure_required(self):
        with pytest.raises(DatasetError, match="measure required"):
            parse_dataset("study_id,treat_a,treat_b,effect,se\ns1,P,A,0.5,0.2\n", "csv")

    def test_unknown_header(self):
        with pytest.raises(DatasetError, match="unrecognized CSV header"):
            parse_dataset("a,b,c\n1,2,3\n", "csv", measure="MD")

    def test_binary_stream_source(self, corpus_dir):
        with open(corpus_dir / "nsaid_pain_relief.csv", "rb") as handle:
            ds = parse_dataset(handle, "csv", measure="logRR")
        assert ds.n_studies == 29

    @pytest.mark.parametrize("wrap", [bytes, io.BytesIO])
    def test_utf8_bom_accepted(self, wrap):
        raw = "\ufeffstudy_id,treat_a,treat_b,effect,se\ns1,P,A,0.5,0.2\n".encode("utf-8")
        ds = parse_dataset(wrap(raw), "csv", measure="MD")
        assert [o.study_id for o in ds.studies] == ["s1"]

    def test_invalid_utf8(self):
        with pytest.raises(DatasetError, match="not valid UTF-8"):
            parse_dataset(b"\xff\xfe\x00bad", "csv", measure="MD")

    def test_invalid_utf8_stream(self):
        with pytest.raises(DatasetError, match="not valid UTF-8"):
            parse_dataset(io.BytesIO(b"\xff\xfe\x00bad"), "csv", measure="MD")

    def test_unknown_format(self):
        with pytest.raises(DatasetError, match="unknown dataset format"):
            parse_dataset("{}", "yaml")


class TestEffectMeasureParse:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("MD", EffectMeasure.MD),
            ("md", EffectMeasure.MD),
            ("logOR", EffectMeasure.LOG_OR),
            ("LOGOR", EffectMeasure.LOG_OR),
            ("log_or", EffectMeasure.LOG_OR),
            ("logRR", EffectMeasure.LOG_RR),
            ("log-rr", EffectMeasure.LOG_RR),
        ],
    )
    def test_accepted_spellings(self, text, expected):
        assert EffectMeasure.parse(text) is expected

    def test_rejects_unknown(self):
        with pytest.raises(DatasetError, match="unknown effect measure"):
            EffectMeasure.parse("hazard ratio")


class TestParseJson:
    def test_round_trip(self, corpus_dir):
        ds = parse_dataset((corpus_dir / "smoke_alarm_interventions.json").read_bytes(), "json")
        assert ds.name == "smoke-alarm-interventions"
        assert ds.measure is EffectMeasure.LOG_OR
        assert ds.reference == "Usual Care"
        assert ds.n_studies == 20

    def test_measure_override_wins(self):
        doc = {"name": "x", "measure": "MD",
               "studies": [{"study_id": "s1", "treat_a": "P", "treat_b": "A",
                            "effect": 0.5, "se": 0.2}]}
        ds = parse_dataset(json.dumps(doc), "json", measure="logOR")
        assert ds.measure is EffectMeasure.LOG_OR

    def test_missing_measure_rejected(self):
        doc = {"studies": [{"treat_a": "P", "treat_b": "A", "effect": 0.5, "se": 0.2}]}
        with pytest.raises(DatasetError, match="missing 'measure'"):
            parse_dataset(json.dumps(doc), "json")

    def test_non_numeric_field_rejected(self):
        doc = {"measure": "MD",
               "studies": [{"treat_a": "P", "treat_b": "A", "effect": "high", "se": 0.2}]}
        with pytest.raises(DatasetError, match="must be a number"):
            parse_dataset(json.dumps(doc), "json")


    @pytest.mark.parametrize("key", ["study_id", "treat_a", "treat_b"])
    @pytest.mark.parametrize("value", [[], {}, None, True])
    def test_non_scalar_label_rejected(self, key, value):
        study = {"study_id": "s1", "treat_a": "P", "treat_b": "A", "effect": 0.5, "se": 0.2}
        study[key] = value
        with pytest.raises(DatasetError, match=f"field '{key}' must be a string or a number"):
            parse_dataset(json.dumps({"measure": "MD", "studies": [study]}), "json")

    def test_number_labels_accepted(self):
        study = {"study_id": 7, "treat_a": 1, "treat_b": 2.5, "effect": 0.5, "se": 0.2}
        ds = parse_dataset(json.dumps({"measure": "MD", "studies": [study]}), "json")
        assert (ds.studies[0].study_id, ds.treatments) == ("7", ("1", "2.5"))

    @pytest.mark.parametrize("key", ["name", "reference", "measure"])
    @pytest.mark.parametrize("value", [[], {"a": 1}, None, True])
    def test_non_scalar_dataset_field_rejected(self, key, value):
        study = {"study_id": "s1", "treat_a": "P", "treat_b": "A", "effect": 0.5, "se": 0.2}
        doc = {"name": "x", "measure": "MD", "reference": "P", "studies": [study], key: value}
        with pytest.raises(DatasetError, match=f"field '{key}' must be a string"):
            parse_dataset(json.dumps(doc), "json")

    def test_number_dataset_fields(self):
        study = {"study_id": "s1", "treat_a": 1, "treat_b": 2, "effect": 0.5, "se": 0.2}
        ds = parse_dataset(json.dumps({"name": 3, "reference": 2, "measure": "MD",
                                       "studies": [study]}), "json")
        assert (ds.name, ds.reference) == ("3", "2")
        with pytest.raises(DatasetError, match="field 'measure' must be a string$"):
            parse_dataset(json.dumps({"measure": 1, "studies": [study]}), "json")

    def test_labels_take_their_default_only_when_blank(self):
        """A label is str(v).strip(); only a blank one takes its default, as in CSV."""
        studies = [
            {"study_id": " ", "treat_a": "P", "treat_b": "A", "effect": 0.5, "se": 0.2},
            {"study_id": "\t", "treat_a": "P", "treat_b": 0, "effect": 0.4, "se": 0.3},
            {"study_id": 0, "treat_a": "P", "treat_b": "A", "effect": 0.3, "se": 0.2},
            {"treat_a": "A", "treat_b": 0, "effect": 0.1, "se": 0.4},
        ]
        ds = parse_dataset(json.dumps({"name": 0, "reference": 0, "measure": "MD",
                                       "studies": studies}), "json")
        assert ds.study_ids == ("row1", "row2", "0", "row4")
        assert (ds.name, ds.reference) == ("0", "0")
        blank = parse_dataset(json.dumps({"name": " ", "reference": " ", "measure": "MD",
                                          "studies": studies}), "json")
        assert (blank.name, blank.reference) == ("dataset", "0")
        text = "study_id,treat_a,treat_b,effect,se\n ,P,A,0.5,0.2\n\t,P,0,0.4,0.3\n0,P,A,0.3,0.2\n"
        assert parse_dataset(text, "csv", measure="MD").study_ids == ("row1", "row2", "0")


def test_unreadable_path_is_a_dataset_error(tmp_path):
    """A directory, even one named like a dataset, is a DatasetError naming the path."""
    path = tmp_path / "sub.json"
    path.mkdir()
    with pytest.raises(DatasetError, match=r"^cannot read '.*sub\.json': "):
        load_dataset(path)
    with pytest.raises(DatasetError, match=r"^cannot read '.*missing\.csv': "):
        load_dataset(tmp_path / "missing.csv")


@pytest.mark.parametrize("case", sorted(ESCAPING_INPUTS))
def test_parser_escapes_become_dataset_errors(case):
    suffix, text, message = ESCAPING_INPUTS[case]
    with pytest.raises(DatasetError) as info:
        parse_dataset(text, suffix[1:], measure="logOR" if suffix == ".csv" else None)
    assert message in str(info.value)


_C = "study_id,treat_a,treat_b,effect,se\n"
_B = "study_id,treatment,events,total\n"
_M = "study_id,treatment,mean,se\n"
_S1 = {"study_id": "s1", "treat_a": "P", "treat_b": "A", "effect": 0.5, "se": 0.2}
_SE_MSG = "gives a variance se^2 or a weight 1/se^2 that is not a positive finite number"


def _json(*studies, **fields):
    return json.dumps({"measure": "MD", **fields, "studies": list(studies)})


def _s1(**fields):
    return {**_S1, **fields}


# (format, measure, input, the full DatasetError message)
INGESTION_MESSAGES = [
    ("csv", "MD", b"\xff\xfe",
     "input is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte"),
    ("yaml", None, "{}", "unknown dataset format 'yaml' (expected csv or json)"),
    ("csv", "hazard", _C + "s1,P,A,0.5,0.2\n",
     "unknown effect measure 'hazard' (expected MD, logOR or logRR)"),
    ("csv", "MD", "\n \n", "empty CSV input"),
    ("csv", "MD", "a,b,c\n1,2,3\n",
     "unrecognized CSV header: expected study_id/treat_a/treat_b/effect/se, "
     "study_id/treatment/events/total, study_id/treatment/mean/se"),
    ("csv", "MD", _C + "x" * 140_000 + ",P,A,0.5,0.2\n",
     "CSV line 2: field larger than field limit (131072)"),
    # contrast rows
    ("csv", "MD", _C, "dataset contains no studies"),
    ("csv", None, _C + "s1,P,A,0.5,0.2\n", "effect measure required for contrast CSV input"),
    ("csv", "MD", _C + "s1,P,A,0.5\n", "row 1: expected 5 fields, got 4"),
    ("csv", "MD", _C + "s1,P,A,0.5,0.2,9\n", "row 1: expected 5 fields, got 6"),
    ("csv", "MD", _C + "s1,P,A,oops,0.2\n", "row 1: non-numeric effect 'oops'"),
    ("csv", "MD", _C + "s1,P,P,oops,0.2\n", "row 1: non-numeric effect 'oops'"),
    ("csv", "MD", _C + "s1,P,A,0.5,\n", "row 1: non-numeric se ''"),
    ("csv", "MD", _C + "s1,P,A," + "y" * 60 + ",0.2\n",
     "row 1: non-numeric effect '" + "y" * 40 + "'..."),
    ("csv", "MD", _C + "s1,P,A,0.5,0.2\ns2,P,A,0.4,0.3\n,P,A,nan,0.2\n",
     "row 3: study 'row3': non-finite effect"),
    ("csv", "MD", _C + "s1,P,A,inf,0.2\n", "row 1: study 's1': non-finite effect"),
    ("csv", "MD", _C + "s1,P,A,0.5,-1\n", "row 1: study 's1': non-positive standard error"),
    ("csv", "MD", _C + "s1,P,A,0.5,nan\n", "row 1: study 's1': non-positive standard error"),
    ("csv", "MD", _C + "s1,P,A,0.5,0.2\ns2,P,A,0.4,1e-200\n",
     f"row 2: study 's2': standard error 1e-200 {_SE_MSG}"),
    ("csv", "MD", _C + "s1,P,A,0.5,1e200\n", f"row 1: study 's1': standard error 1e+200 {_SE_MSG}"),
    ("csv", "MD", _C + "s1, ,A,0.5,0.2\n", "row 1: study 's1': empty treatment label"),
    ("csv", "MD", _C + "s1,P, P ,0.5,0.2\n", "row 1: study 's1': treatments are identical ('P')"),
    ("csv", "MD", _C + "s1,P,A,0.5,0.2\ns1,P,A,0.7,0.2\n", "duplicate study id 's1'"),
    ("csv", "MD", _C + "s1,A,B,0.1,1\ns2,C,D,0.2,1\n", "disconnected network: {A,B} | {C,D}"),
    # binary arm rows
    ("csv", None, _B + "s1,P,1,10\ns1,A,2,10\n", "effect measure required for arm-level CSV input"),
    ("csv", "logOR", _B, "dataset contains no studies"),
    ("csv", "logOR", _B + "s1,P,1\n", "row 1: expected 4 fields, got 3"),
    ("csv", "logOR", _B + " ,P,1,10\n", "row 1: arm-level rows need an explicit study_id"),
    ("csv", "logOR", _B + "s1,P,x,10\n", "row 1: non-numeric events 'x'"),
    ("csv", "logOR", _B + "s1,P,1.5,10\n", "row 1: non-numeric events '1.5'"),
    ("csv", "logOR", _B + "s1,P,1," + "9" * 5000 + "\ns1,A,2,10\n",
     "row 1: total '" + "9" * 40 + "'... has 5000 characters, "
     "more digits than Python converts to an integer"),
    ("csv", "logOR", _B + "s1,P,1,10\ns2,P,x,10\n", "row 2: non-numeric events 'x'"),
    ("csv", "logOR", _B + "s1,P,1,10\n", "study 's1': expected exactly 2 arms, got 1"),
    ("csv", "logOR", _B + "s1,P,1,10\ns1,A,2,10\ns1,B,2,10\n",
     "study 's1': expected exactly 2 arms, got 3"),
    ("csv", "logOR", _B + "s1,P,1,0\ns1,A,2,10\ns2,P,1,10\n",
     "study 's2': expected exactly 2 arms, got 1"),
    ("csv", "logOR", _B + "s1,P,1,0\ns1,A,2,10\n", "study 's1': arm a: total must be at least 1"),
    ("csv", "logOR", _B + "s1,P,1,10\ns1,A,12,10\n", "study 's1': arm b: events outside [0, total]"),
    ("csv", "logOR", _B + "s1,P,1,10\ns1,A,-1,10\n", "study 's1': arm b: events outside [0, total]"),
    ("csv", "logOR", _B + "s1,P,1," + "9" * 400 + "\ns1,A,2,10\n",
     "study 's1': counts too large for floating-point arithmetic"),
    ("csv", "logOR", _B + f"s1,P,{10**200},{2 * 10**200}\ns1,A,1,{10**200 + 1}\n",
     "study 's1': counts too large for floating-point arithmetic"),
    ("csv", "MD", _B + "s1,P,1,10\ns1,A,2,10\n",
     "study 's1': binary arm data requires measure logOR or logRR"),
    ("csv", "logRR", _B + "s1,P,1,10\ns1,P,2,10\n",
     "study 's1': treatments are identical ('P')"),
    ("csv", "logRR", _B + "s1,P,1,10\ns1, ,2,10\n", "study 's1': empty treatment label"),
    ("csv", "logOR", _B + "s1,P,1,10\ns1,A,2,10\ns2,X,1,10\ns2,Y,1,10\n",
     "disconnected network: {A,P} | {X,Y}"),
    # continuous arm rows
    ("csv", "logOR", _M + "s1,P,1,1\ns1,A,2,1\n", "continuous arm data implies measure MD"),
    ("csv", None, _M, "dataset contains no studies"),
    ("csv", None, _M + "s1,P,x,1\ns1,A,2,1\n", "row 1: non-numeric mean 'x'"),
    ("csv", None, _M + "s1,P,1,1\n", "study 's1': expected exactly 2 arms, got 1"),
    ("csv", None, _M + "s1,P,1,1\ns1,A,2,1,3\n", "row 2: expected 4 fields, got 5"),
    ("csv", None, _M + "s1,P,1,0\ns1,A,2,1\n", "study 's1': arm standard errors must be positive"),
    ("csv", None, _M + "s1,P,1,1\ns1,A,2,nan\n", "study 's1': arm standard errors must be positive"),
    ("csv", None, _M + "s1,P,inf,1\ns1,A,2,1\n", "study 's1': non-finite effect"),
    ("csv", None, _M + "s1,P,-1e308,1\ns1,A,1e308,1\n", "study 's1': non-finite effect"),
    ("csv", None, _M + "s1,P,1,1e200\ns1,A,2,1e200\n",
     f"study 's1': standard error 1.414213562373095e+200 {_SE_MSG}"),
    ("csv", None, _M + "s1,P,1,1\ns1,P,2,1\n", "study 's1': treatments are identical ('P')"),
    # JSON
    ("json", None, "{",
     "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("json", None, "[1]", "JSON dataset must be an object"),
    ("json", None, _json(_S1, name=[]), "field 'name' must be a string or a number"),
    ("json", None, _json(_S1, reference={}), "field 'reference' must be a string or a number"),
    ("json", None, _json(_S1, measure=True), "field 'measure' must be a string"),
    ("json", "MD", _json(_S1, measure=1), "field 'measure' must be a string"),
    ("json", None, json.dumps({"measure": "MD"}), "JSON dataset needs a non-empty 'studies' array"),
    ("json", None, _json(), "JSON dataset needs a non-empty 'studies' array"),
    ("json", None, json.dumps({"measure": "MD", "studies": {}}),
     "JSON dataset needs a non-empty 'studies' array"),
    ("json", None, json.dumps({"studies": [_S1]}), "JSON dataset missing 'measure'"),
    ("json", None, _json(_S1, measure="hr"), "unknown effect measure 'hr' (expected MD, logOR or logRR)"),
    ("json", None, _json(_S1, 3), "study 2: expected an object"),
    ("json", None, _json(_S1, {"study_id": "s2", "treat_a": "P"}),
     "study 2: missing field(s) treat_b, effect, se"),
    ("json", None, _json(_S1, _s1(study_id="s2", se="0.2")), "study 2: field 'se' must be a number"),
    ("json", None, _json(_s1(effect=True)), "study 1: field 'effect' must be a number"),
    ("json", None, _json(_s1(effect="x", se=None)), "study 1: field 'effect' must be a number"),
    ("json", None, _json(_s1(treat_a=None)), "study 1: field 'treat_a' must be a string or a number"),
    ("json", None, _json(_s1(study_id=[1])), "study 1: field 'study_id' must be a string or a number"),
    ("json", None, '{"measure": "MD", "studies": [' + ", ".join([json.dumps(_S1)] * 3)
     + ', {"treat_a": "P", "treat_b": "A", "effect": 0.5, "se": ' + "9" * 400 + "}]}",
     "study 4: effect or se is too large for a floating-point number"),
    ("json", None, _json(_s1(effect=float("nan"))), "study 1: study 's1': non-finite effect"),
    ("json", None, _json(_s1(study_id=0, se=0)), "study 1: study '0': non-positive standard error"),
    ("json", None, _json(_s1(se=-0.2)), "study 1: study 's1': non-positive standard error"),
    ("json", None, _json(_s1(effect=1e308, se=1e-200)),
     f"study 1: study 's1': standard error 1e-200 {_SE_MSG}"),
    ("json", None, _json(_s1(treat_b="")), "study 1: study 's1': empty treatment label"),
    ("json", None, _json(_s1(treat_b=" P")), "study 1: study 's1': treatments are identical ('P')"),
    ("json", None, _json(_S1, _s1(effect=1)), "duplicate study id 's1'"),
    ("json", None, _json(_S1, _s1(study_id="s2", treat_a="X", treat_b="Y")),
     "disconnected network: {A,P} | {X,Y}"),
    ("json", None, _json(_S1, reference="Z"), "reference treatment 'Z' not in dataset"),
    # Python's digit-group underscores are not read as numbers (new rows go last, so
    # the ids of the rows above stay put)
    ("csv", "MD", _C + "s1,P,A,0_5,0.2\n", "row 1: non-numeric effect '0_5'"),
    ("csv", "MD", _C + "s1,P,A,0.5,0.2\ns2,P,A,0.5,0_3\n", "row 2: non-numeric se '0_3'"),
    ("csv", "logOR", _B + "s1,P,1_0,100\ns1,A,2,10\n", "row 1: non-numeric events '1_0'"),
    ("csv", "logOR", _B + "s1,P,1,10\ns1,A,2,1_00\n", "row 2: non-numeric total '1_00'"),
    ("csv", None, _M + "s1,P,1_5,1\ns1,A,2,1\n", "row 1: non-numeric mean '1_5'"),
    # components found on integer codes are reported in label order
    ("csv", "MD", _C + "s1,F,D,0.1,1\ns2,C,A,0.2,1\ns3,E,B,0.3,1\n",
     "disconnected network: {A,C} | {B,E} | {D,F}"),
]


@pytest.mark.parametrize(
    "fmt,measure,source,message",
    INGESTION_MESSAGES,
    ids=[f"{case[0]}-{i}" for i, case in enumerate(INGESTION_MESSAGES)],
)
def test_ingestion_error_messages(fmt, measure, source, message):
    """The full text of every ingestion error, for each CSV shape and for JSON."""
    with pytest.raises(DatasetError) as info:
        parse_dataset(source, fmt, measure=measure)
    assert str(info.value) == message


@pytest.mark.parametrize("build,pinned", [
    pytest.param(lambda: ContrastObservation("s1", " ", "A", 0.5, 0.2),
                 "row 1: study 's1': empty treatment label", id="empty-label"),
    pytest.param(lambda: ContrastObservation("s1", "P", " P ", 0.5, 0.2),
                 "row 1: study 's1': treatments are identical ('P')", id="identical-arms"),
    pytest.param(lambda: ContrastObservation("s1", "P", "A", "inf", 0.2),
                 "row 1: study 's1': non-finite effect", id="non-finite-effect"),
    pytest.param(lambda: ContrastObservation("s1", "P", "A", 0.5, -1),
                 "row 1: study 's1': non-positive standard error", id="negative-se"),
    pytest.param(lambda: ContrastObservation("s2", "P", "A", 0.4, 1e-200),
                 f"row 2: study 's2': standard error 1e-200 {_SE_MSG}", id="weight-overflows"),
    pytest.param(lambda: ContrastObservation("s1", "P", "A", 0.5, 1e200),
                 f"row 1: study 's1': standard error 1e+200 {_SE_MSG}", id="variance-overflows"),
    pytest.param(lambda: ContrastObservation("row4", "P", "A", 0.5, int("9" * 400)),
                 "study 4: effect or se is too large for a floating-point number",
                 id="int-beyond-float"),
    pytest.param(lambda: ContrastObservation("s1", "P", "A", 0.5, 0.2)._replace(se=0.0),
                 "row 1: study 's1': non-positive standard error", id="replace"),
    pytest.param(lambda: ContrastObservation._make(("s1", "P", " P ", 0.5, 0.2)),
                 "row 1: study 's1': treatments are identical ('P')", id="make"),
])
def test_direct_construction_messages(build, pinned):
    """Built directly, a study raises the pinned text without the parser's location."""
    assert pinned in [case[3] for case in INGESTION_MESSAGES]
    with pytest.raises(DatasetError) as info:
        build()
    assert str(info.value) == pinned.partition(": ")[2]


@settings(derandomize=True, max_examples=40, database=None, deadline=None)
@given(networks(), st.data())
def test_columns_are_the_study_fields(ds, data):
    """The dataset's columns read the per-study fields; a repeated id is named."""
    studies = ds.studies
    assert ds.effects().tolist() == [obs.effect for obs in studies]
    assert ds.std_errors().tolist() == [obs.se for obs in studies]
    code = {t: j for j, t in enumerate(ds.treatments)}
    assert ds.codes.tolist() == [
        [code[obs.treat_a] for obs in studies], [code[obs.treat_b] for obs in studies]
    ]

    # study j takes the id of an earlier study i, and the last study, when it
    # comes after j, that of the first: the message names the repeat at j
    m = ds.n_studies
    j = data.draw(st.integers(1, m - 1))
    i = data.draw(st.integers(0, j - 1))
    repeated = list(studies)
    repeated[j] = studies[j]._replace(study_id=studies[i].study_id)
    if j < m - 1:
        repeated[-1] = studies[-1]._replace(study_id=studies[0].study_id)
    with pytest.raises(DatasetError) as info:
        NetworkDataset(ds.name, ds.measure, repeated, ds.reference)
    assert str(info.value) == f"duplicate study id {studies[i].study_id!r}"


def _column_bits(ds: NetworkDataset) -> tuple:
    """Everything a dataset holds, with its float columns as bytes."""
    floats = (getattr(ds, name)() for name in ("effects", "std_errors", "variances", "weights"))
    return (
        ds.name, ds.measure, ds.reference, ds.study_ids, ds.treatments, ds.codes.tolist(),
        ds.design_pairs.tolist(), ds.design_ids.tolist(), *((c.dtype, c.tobytes()) for c in floats),
    )


def _outcome(build) -> tuple:
    """The columns ``build()`` gives, or the text of the DatasetError it raises."""
    try:
        return _column_bits(build())
    except DatasetError as exc:
        return ("error", str(exc))


def _parsed(*args, **kwargs) -> tuple:
    """``_outcome`` of ``parse_dataset``; a dataset it returns was built with no
    ``ContrastObservation``, so from the columns alone."""
    built = []
    new = ContrastObservation.__new__
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ContrastObservation, "__new__", lambda *a: built.append(a) or new(*a))
        outcome = _outcome(lambda: parse_dataset(*args, **kwargs))
    assert outcome[0] == "error" or built == []
    return outcome


_LABEL_POOL = ("A", "B", " C ", "D2", "10", "é", "0.5")


@st.composite
def _network_rows(draw, numeric_labels: bool):
    """(study_id, treat_a, treat_b, effect, se) rows of a connected network; with
    ``numeric_labels``, JSON may give ids and labels as numbers."""
    labels = draw(st.lists(st.sampled_from(_LABEL_POOL), min_size=2, max_size=5, unique=True))
    if numeric_labels:
        labels = [draw(st.sampled_from([t, 7, 2.5])) if t.strip() == "10" else t for t in labels]
    n, m = len(labels), draw(st.integers(len(labels) - 1, 12))
    pairs = [(draw(st.integers(0, j - 1)), j) for j in range(1, n)]
    while len(pairs) < m:
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        pairs.append((a, b))
    ids = draw(st.sampled_from(["s", "", " ", "id "]))
    rows = []
    for i, (a, b) in enumerate(pairs):
        if draw(st.booleans()):
            a, b = b, a
        study_id = f"{ids}{i}" if ids.strip() else ids
        if numeric_labels and draw(st.integers(0, 5)) == 0:
            study_id = 1000 + i
        effect = draw(st.floats(-1e6, 1e6, allow_nan=False) | st.integers(-10**20, 10**20))
        se = draw(st.floats(1e-6, 1e6) | st.integers(1, 10**6))
        rows.append([study_id, labels[a], labels[b], effect, se])
    return rows


# faults planted into one JSON study: (field, value); "DROP" removes the field, "SAME"
# repeats the study's treat_a or the id of the study before it
_JSON_FAULTS = [
    None, ("effect", math.nan), ("effect", -math.inf), ("effect", "0.5"), ("effect", True),
    ("effect", 10**400), ("se", 0), ("se", -0.3), ("se", 1e-160), ("se", 1e-200),
    ("se", 1e200), ("se", None), ("se", False), ("treat_a", " "), ("treat_b", ""),
    ("treat_a", None),
    ("treat_b", [1]), ("study_id", {"a": 1}), ("study_id", "SAME"), ("treat_b", "SAME"),
    ("effect", "DROP"), ("treat_a", "DROP"), ("entry", 3), ("entry", "x"), ("entry", []),
]
# faults planted into one CSV row: (column, cell); None cuts the row short, column 5 adds
# a sixth field
_CSV_FAULTS = [
    None, (3, "nan"), (3, "-inf"), (3, "x"), (3, ""), (3, "1_0"), (3, "0x1"), (4, "0"),
    (4, "-1"), (4, "1e-160"), (4, "1e-200"), (4, "1e200"), (4, " "), (4, "2_5"), (1, " "),
    (2, ""), (2, "SAME"), (0, "SAME"), (4, None), (5, "9"),
]


@pytest.mark.parametrize("fault", _JSON_FAULTS, ids=repr)
@settings(derandomize=True, max_examples=12, database=None, deadline=None)
@given(rows=_network_rows(numeric_labels=True), data=st.data())
def test_json_columns_match_the_per_study_loop(fault, rows, data):
    """Parsed as columns, a JSON dataset is the one built from ``ContrastObservation``
    records bit for bit, or raises the loop's error for a fault planted at a random study."""
    entries = [dict(zip(("study_id", "treat_a", "treat_b", "effect", "se"), r)) for r in rows]
    for entry in entries:
        if entry["study_id"] == "":
            del entry["study_id"]
    if fault is not None:
        i = data.draw(st.integers(0, len(entries) - 1))
        field, value = fault
        if field == "entry":
            entries[i] = value
        elif value == "DROP":
            del entries[i][field]
        elif value == "SAME":
            entries[i][field] = entries[i]["treat_a"] if field == "treat_b" else \
                entries[i - 1].get("study_id", "")
        else:
            entries[i][field] = value
    text = json.dumps({"name": "net", "measure": "MD", "studies": entries})
    expected = _outcome(lambda: NetworkDataset(
        "net", EffectMeasure.MD, dataset._json_rows(json.loads(text)["studies"]), ""
    ))
    assert _parsed(text, "json") == expected
    # every planted fault is one, but a repeated default id is a fresh "row<i>"
    assert (expected[0] == "error") == (fault is not None) or fault == ("study_id", "SAME")


def _csv_number(draw, value) -> str:
    """A CSV cell that float() reads as ``value``: repr, short, padded, signed or in
    another script's digits."""
    if isinstance(value, int) and draw(st.booleans()):
        return str(value).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    return draw(st.sampled_from([repr(float(value)), f"{value:.6g}", f" {value!r} ",
                                 f"{float(value):+E}"]))


@pytest.mark.parametrize("fault", _CSV_FAULTS, ids=repr)
@settings(derandomize=True, max_examples=12, database=None, deadline=None)
@given(rows=_network_rows(numeric_labels=False), data=st.data())
def test_csv_columns_match_the_per_row_loop(fault, rows, data):
    """As the JSON case, for contrast CSV rows. Every number cell goes through float(),
    as ``_number`` reads it: a cell that numpy would read otherwise, or not at all,
    still parses as columns, and one that float() rejects is the loop's fault."""
    cells = [[str(r[0]), r[1], r[2], _csv_number(data.draw, r[3]), _csv_number(data.draw, r[4])]
             for r in rows]
    if fault is not None:
        i = data.draw(st.integers(0, len(cells) - 1))
        column, cell = fault
        if cell is None:
            del cells[i][column]
        elif column == 5:
            cells[i].append(cell)
        elif cell == "SAME":
            cells[i][column] = cells[i][1] if column == 2 else cells[i - 1][0]
        else:
            cells[i][column] = cell
    out = io.StringIO()
    csv.writer(out).writerows([["study_id", "treat_a", "treat_b", "effect", "se"], *cells])
    body = [row for row in csv.reader(io.StringIO(out.getvalue())) if any(c.strip() for c in row)]
    expected = _outcome(lambda: NetworkDataset(
        "dataset", EffectMeasure.MD, dataset._contrast_rows(body[1:]), ""
    ))
    assert _parsed(out.getvalue(), "csv", measure="MD") == expected


class TestLoadDataset:
    @pytest.mark.parametrize("file_name,text", [
        ("net.csv", _C + "s1,P,A,0.5,0.2\n"),
        ("net.json", _json(_S1, name="named")),
        ("net.json", _json(_S1)),
    ], ids=["csv", "named-json", "unnamed-json"])
    def test_constructs_the_dataset_once(self, tmp_path, monkeypatch, file_name, text):
        calls = []
        init = NetworkDataset.__init__

        def counting(ds, *args):
            calls.append(ds)
            init(ds, *args)

        monkeypatch.setattr(NetworkDataset, "__init__", counting)
        path = tmp_path / file_name
        path.write_text(text, encoding="utf-8")
        load_dataset(path, measure="MD")
        assert len(calls) == 1

    @pytest.mark.parametrize("file_name,text,name,expected", [
        ("net.csv", _C + "s1,P,A,0.5,0.2\n", "given", "given"),
        ("net.csv", _C + "s1,P,A,0.5,0.2\n", None, "net"),
        ("net.json", _json(_S1, name="inner"), "given", "given"),
        ("net.json", _json(_S1, name="inner"), None, "inner"),
        ("net.json", _json(_S1), None, "net"),
        ("net.json", _json(_S1, name=""), None, "net"),
        ("net.json", _json(_S1, name="dataset"), None, "dataset"),
        ("net.csv", _C + "s1,P,A,0.5,0.2\n", " ", "dataset"),
        ("net.json", _json(_S1, name="inner"), " ", "inner"),
        ("net.json", _json(_S1, name="inner"), " given ", "given"),
    ], ids=["csv-argument", "csv-stem", "json-argument", "json-name", "json-stem",
            "json-empty-name", "json-named-dataset", "csv-blank-argument",
            "json-blank-argument", "json-padded-argument"])
    def test_name_precedence(self, tmp_path, file_name, text, name, expected):
        """The name argument, then the JSON name, then the file stem."""
        path = tmp_path / file_name
        path.write_text(text, encoding="utf-8")
        assert load_dataset(path, measure="MD", name=name).name == expected

    def test_parse_dataset_default_name(self):
        assert parse_dataset(_json(_S1), "json").name == "dataset"
        assert parse_dataset(_json(_S1, name="inner"), "json").name == "inner"
        assert parse_dataset(_json(_S1, name="inner"), "json", name="given").name == "given"
        assert parse_dataset(_json(_S1, name="inner"), "json", name=" ").name == "inner"

    @pytest.mark.parametrize("reference,expected", [
        (None, "P"), ("", "A"), (" ", "A"), (" P ", "P"), ("A", "A"),
    ])
    def test_reference_argument_is_stripped(self, tmp_path, reference, expected):
        """A blank argument is an empty one: the smallest label, not the file's reference."""
        text = _json(_S1, reference="P")
        assert parse_dataset(text, "json", reference=reference).reference == expected
        path = tmp_path / "net.json"
        path.write_text(text, encoding="utf-8")
        assert load_dataset(path, reference=reference).reference == expected


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_STUDY_ENTRIES = st.dictionaries(
    st.sampled_from(["study_id", "treat_a", "treat_b", "effect", "se"]),
    _SCALARS | st.sampled_from(["P", "A", "B"]) | st.floats(0.01, 3.0),
)
_JSON_DATASETS = st.fixed_dictionaries(
    {},
    optional={
        "name": _JSON_VALUES,
        "measure": st.sampled_from(["MD", "logOR"]) | _JSON_VALUES,
        "reference": st.sampled_from(["P", "A"]) | _JSON_VALUES,
        "studies": st.lists(_STUDY_ENTRIES, max_size=5) | _JSON_VALUES,
    },
)
_CSV_CELLS = st.text(max_size=5) | st.sampled_from(
    ["P", "A", "s1", "0", "2", "0.5", "1e400", "nan"]
)
_CSV_TEXTS = st.builds(
    lambda header, rows: "\n".join([header] + [",".join(row) for row in rows]),
    st.sampled_from([
        "study_id,treat_a,treat_b,effect,se",
        "study_id,treatment,events,total",
        "study_id,treatment,mean,se",
    ]),
    st.lists(st.lists(_CSV_CELLS, max_size=6), max_size=5),
)


@settings(derandomize=True, max_examples=400, database=None, deadline=None)
@given(
    st.tuples(st.binary(max_size=200), st.sampled_from(["csv", "json"]))
    | st.tuples((_JSON_VALUES | _JSON_DATASETS).map(json.dumps), st.just("json"))
    | st.tuples(_CSV_TEXTS, st.just("csv"))
)
def test_parse_raises_only_dataset_error(case):
    """Arbitrary bytes, JSON documents and CSV rows either parse or raise DatasetError."""
    source, fmt = case
    try:
        parse_dataset(source, fmt, measure="logOR" if fmt == "csv" else None)
    except DatasetError:
        pass


class TestArmLevelCsv:
    def test_binary(self):
        text = (
            "study_id,treatment,events,total\n"
            "s1,P,10,100\n"
            "s1,A,20,100\n"
        )
        ds = parse_dataset(text, "csv", measure="logOR")
        obs = ds.studies[0]
        assert obs.treat_a == "P" and obs.treat_b == "A"
        assert obs.effect == pytest.approx(math.log(2.25), abs=1e-12)

    def test_count_past_digit_limit_gives_short_error(self):
        text = "study_id,treatment,events,total\ns1,P,1," + "9" * 5000 + "\ns1,A,2,10\n"
        with pytest.raises(DatasetError) as info:
            parse_dataset(text, "csv", measure="logOR")
        message = str(info.value)
        assert message.startswith("row 1: total '9999")
        assert "5000 characters, more digits than Python converts to an integer" in message
        assert len(message) < 150

    def test_long_non_numeric_value_is_truncated(self):
        text = "study_id,treatment,mean,se\ns1,P," + "x" * 5000 + ",1\ns1,A,2,1\n"
        with pytest.raises(DatasetError, match=r"^row 1: non-numeric mean 'x{40}'\.\.\.$"):
            parse_dataset(text, "csv")

    def test_binary_needs_two_arms(self):
        text = "study_id,treatment,events,total\ns1,P,10,100\n"
        with pytest.raises(DatasetError, match="exactly 2 arms"):
            parse_dataset(text, "csv", measure="logOR")

    def test_continuous(self):
        text = (
            "study_id,treatment,mean,se\n"
            "s1,P,-11.00,2.55\n"
            "s1,A,-27.60,2.93\n"
        )
        ds = parse_dataset(text, "csv")
        assert ds.measure is EffectMeasure.MD
        assert ds.studies[0].effect == pytest.approx(-16.60)
        assert ds.studies[0].se == pytest.approx(3.88, abs=0.005)


class TestDeriveBinary:
    def test_log_or_hand_computed(self):
        effect, se = derive_contrast_binary(10, 100, 20, 100, EffectMeasure.LOG_OR)
        assert effect == pytest.approx(math.log(2.25), abs=1e-12)
        assert se == pytest.approx(5.0 / 12.0, abs=1e-12)

    def test_symmetric_table_zero_effect(self):
        effect, _ = derive_contrast_binary(10, 100, 10, 100, EffectMeasure.LOG_OR)
        assert effect == 0.0

    def test_zero_cell_correction(self):
        effect, se = derive_contrast_binary(0, 50, 5, 50, EffectMeasure.LOG_OR)
        assert math.isfinite(effect) and math.isfinite(se)
        # correction applies to every cell: odds ratio from (0.5, 50.5, 5.5, 45.5)
        expected = math.log((5.5 * 50.5) / (0.5 * 45.5))
        assert effect == pytest.approx(expected, abs=1e-12)

    def test_log_rr_formula(self):
        effect, se = derive_contrast_binary(10, 100, 20, 100, EffectMeasure.LOG_RR)
        assert effect == pytest.approx(math.log(2.0), abs=1e-12)
        assert se == pytest.approx(math.sqrt(1 / 20 - 1 / 100 + 1 / 10 - 1 / 100), abs=1e-12)

    def test_md_rejected(self):
        with pytest.raises(DatasetError, match="logOR or logRR"):
            derive_contrast_binary(1, 10, 2, 10, EffectMeasure.MD)

    def test_odds_ratio_outside_float_range(self):
        # 1e200 * 1e200 overflows to inf, so the odds ratio is 0 and has no log
        with pytest.raises(DatasetError, match="counts too large"):
            derive_contrast_binary(10**200, 2 * 10**200, 1, 10**200 + 1, EffectMeasure.LOG_OR)

    def test_bad_counts(self):
        with pytest.raises(DatasetError):
            derive_contrast_binary(11, 10, 2, 10, EffectMeasure.LOG_OR)


class TestDeriveContinuous:
    def test_paired_arm_example(self):
        effect, se = derive_contrast_continuous(-11.00, 2.55, -27.60, 2.93)
        assert effect == pytest.approx(-16.60)
        assert se == pytest.approx(3.88, abs=0.005)
        # the value produced by wrongly dividing by sqrt(n) must not appear
        assert abs(se - 0.37) > 1.0

    def test_identical_arms(self):
        effect, se = derive_contrast_continuous(0.0, 1.0, 0.0, 1.0)
        assert effect == 0.0
        assert se == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_bad_se(self):
        with pytest.raises(DatasetError):
            derive_contrast_continuous(0.0, 0.0, 1.0, 1.0)


class TestDesigns:
    def test_nsaid_design_count(self, nsaid):
        assert len(group_designs(nsaid)) == 6

    def test_smoke_design_count_brute_force(self, smoke):
        expected = len({frozenset((obs.treat_a, obs.treat_b)) for obs in smoke.studies})
        designs = group_designs(smoke)
        assert len(designs) == expected == 10

    def test_single_study(self):
        ds = make_dataset([("P", "A", 0.5, 0.2)])
        designs = group_designs(ds)
        assert len(designs) == 1
        assert designs[0].members == (0,)

    def test_partition_property(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            ds = random_network(rng)
            designs = group_designs(ds)
            members = sorted(i for d in designs for i in d.members)
            assert members == list(range(ds.n_studies))

    def test_orientation_does_not_split_designs(self):
        ds = make_dataset([("P", "A", 0.5, 0.2), ("A", "P", -0.3, 0.4)])
        assert len(group_designs(ds)) == 1

    def test_integer_coding_matches_string_keyed_grouping(self):
        """Designs, design means and design columns agree with grouping by label pairs.

        Labels B5..B17 sort as B10 < ... < B17 < B5 < ... < B9, not in the
        order the generator creates them.
        """
        rng = np.random.default_rng(17)
        for _ in range(20):
            drawn = random_network(rng, max_treatments=13)
            relabel = {t: f"B{int(t[1:]) + 5}" for t in drawn.treatments}
            ds = make_dataset([
                (relabel[o.treat_a], relabel[o.treat_b], o.effect, o.se) for o in drawn.studies
            ], drawn.measure)
            groups: dict[tuple[str, str], list[int]] = {}
            for i, obs in enumerate(ds.studies):
                groups.setdefault(tuple(sorted((obs.treat_a, obs.treat_b))), []).append(i)
            expected = sorted(groups.items())
            designs = group_designs(ds)
            assert [(d.pair, list(d.members)) for d in designs] == expected

            _, _, q = decompose(ds)
            for (pair, members), contribution in zip(expected, q.per_design):
                w = [1.0 / ds.studies[i].se ** 2 for i in members]
                y = [ds.studies[i].effect * (1 if ds.studies[i].treat_a == pair[0] else -1)
                     for i in members]
                mean = sum(wi * yi for wi, yi in zip(w, y)) / sum(w)
                assert contribution.pooled_mean == pytest.approx(mean, rel=1e-12, abs=1e-14)

            columns = tuple(t for t in sorted(relabel.values()) if t != ds.reference)
            index = {t: j for j, t in enumerate(columns)} | {ds.reference: len(columns)}
            assert ds.design.column_treatments == columns
            assert ds.design.a_idx.tolist() == [index[obs.treat_a] for obs in ds.studies]
            assert ds.design.b_idx.tolist() == [index[obs.treat_b] for obs in ds.studies]


class TestDesignMatrix:
    def test_two_study_chain(self):
        ds = make_dataset([("P", "A", 0.1, 1.0), ("A", "B", 0.2, 1.0)], reference="P")
        x = build_design_matrix(ds)
        assert x.column_treatments == ("A", "B")
        assert dense_design(x).tolist() == [[1.0, 0.0], [-1.0, 1.0]]

    def test_disconnected_message(self):
        with pytest.raises(DatasetError, match=r"disconnected network: \{A,B\} \| \{C,D\}"):
            make_dataset([("A", "B", 0.1, 1.0), ("C", "D", 0.2, 1.0)])

    def test_nsaid_star_rows(self, nsaid):
        x = build_design_matrix(nsaid)
        assert dense_design(x).shape == (29, 6)
        for i, obs in enumerate(nsaid.studies):
            row = dense_design(x)[i]
            assert np.sum(row == 1.0) == 1
            assert np.sum(row != 0.0) == 1
            assert x.column_treatments[int(np.argmax(row))] == obs.treat_b

    def test_full_rank_on_random_networks(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ds = random_network(rng)
            x = build_design_matrix(ds)
            assert np.linalg.matrix_rank(dense_design(x)) == ds.n_treatments - 1

    def test_matrix_is_read_only(self, nsaid):
        x = build_design_matrix(nsaid)
        assert [f.name for f in dataclasses.fields(x)] == ["a_idx", "b_idx", "column_treatments"]
        for name in ("a_idx", "b_idx"):
            with pytest.raises(ValueError):
                getattr(x, name)[0] = 5

    def test_dataset_design_built_once(self, nsaid):
        assert nsaid.design is nsaid.design
        np.testing.assert_array_equal(
            dense_design(nsaid.design), dense_design(build_design_matrix(nsaid))
        )
        dropped = nsaid.drop_studies([nsaid.studies[0].study_id])
        assert dropped.design is not nsaid.design
        assert dense_design(dropped.design).shape == (28, 6)
        np.testing.assert_array_equal(dense_design(dropped.design), dense_design(nsaid.design)[1:])


class TestConnectivityOracle:
    @staticmethod
    def _bfs_components(nodes, edges):
        adjacency = {n: set() for n in nodes}
        for a, b in edges:
            adjacency[a].add(b)
            adjacency[b].add(a)
        remaining = set(nodes)
        components = []
        while remaining:
            start = min(remaining)
            seen = {start}
            queue = [start]
            while queue:
                current = queue.pop()
                for other in adjacency[current]:
                    if other not in seen:
                        seen.add(other)
                        queue.append(other)
            components.append(sorted(seen))
            remaining -= seen
        return sorted(components)

    def test_exhaustive_small_graphs(self):
        """Union-find in the library vs a BFS oracle on every edge subset of K5."""
        labels = ["A", "B", "C", "D", "E"]
        all_pairs = list(combinations(labels, 2))
        checked = 0
        for size in range(1, 9):
            for subset in combinations(all_pairs, size):
                nodes = sorted({t for pair in subset for t in pair})
                expected = self._bfs_components(nodes, subset)
                got = connected_components(nodes, subset)
                assert got == expected
                rows = [(a, b, 0.1, 1.0) for a, b in subset]
                if len(expected) == 1:
                    ds = make_dataset(rows)
                    assert ds.n_treatments == len(nodes)
                else:
                    with pytest.raises(DatasetError, match="disconnected network"):
                        make_dataset(rows)
                checked += 1
        assert checked == sum(math.comb(10, k) for k in range(1, 9))


class TestDatasetInvariants:
    def test_reference_default_is_smallest(self):
        ds = make_dataset([("P", "A", 0.5, 0.2)])
        assert ds.reference == "A"

    def test_explicit_reference(self):
        ds = make_dataset([("P", "A", 0.5, 0.2)], reference="P")
        assert ds.reference == "P"

    def test_unknown_reference_rejected(self):
        with pytest.raises(DatasetError, match="reference treatment"):
            make_dataset([("P", "A", 0.5, 0.2)], reference="Z")

    def test_drop_studies_reconnects(self):
        ds = make_dataset(
            [("P", "A", 0.5, 0.2), ("A", "B", 0.1, 0.2), ("P", "B", 0.2, 0.3)]
        )
        sub = ds.drop_studies(["s2"])
        assert sub.n_studies == 2
        assert sub.n_treatments == 3

    def test_drop_studies_names_broken_component(self):
        ds = make_dataset(
            [("P", "A", 0.5, 0.2), ("A", "B", 0.1, 0.2), ("B", "C", 0.3, 0.2)]
        )
        with pytest.raises(DatasetError, match=r"disconnected network: \{A,P\} \| \{B,C\}"):
            ds.drop_studies(["s2"])

    def test_drop_unknown_id(self, nsaid):
        with pytest.raises(DatasetError, match="^unknown study id\\(s\\): nope, zz$"):
            nsaid.drop_studies(["zz", " nope "])

    @pytest.mark.parametrize("ids", [[" "], [""], ["nope", "\t"]])
    def test_drop_blank_id(self, nsaid, ids):
        with pytest.raises(DatasetError) as info:
            nsaid.drop_studies(ids)
        assert str(info.value) == "blank study id: every study has a non-empty id"

    def test_drop_studies_keeps_the_columns(self, nsaid):
        dropped = nsaid.drop_studies([nsaid.study_ids[3], nsaid.study_ids[7]])
        keep = [i for i in range(nsaid.n_studies) if i not in (3, 7)]
        assert dropped.studies == tuple(nsaid.studies[i] for i in keep)
        assert dropped.reference == nsaid.reference
        for name in ("effects", "std_errors", "variances", "weights"):
            assert getattr(dropped, name)().tobytes() == getattr(nsaid, name)()[keep].tobytes()

    def test_columns_built_once_and_read_only(self):
        ds = make_dataset([("P", "A", 0.5, 0.2), ("A", "B", -0.1, 0.4)])
        expected = {
            "effects": [0.5, -0.1],
            "std_errors": [0.2, 0.4],
            "variances": [0.2**2, 0.4**2],
            "weights": [1.0 / 0.2**2, 1.0 / 0.4**2],
        }
        for name, values in expected.items():
            column = getattr(ds, name)()
            assert column is getattr(ds, name)()
            assert not column.flags.writeable
            np.testing.assert_array_equal(column, values)
        with pytest.raises(ValueError):
            ds.effects()[0] = 1.0

    def test_studies_must_be_validated_records(self):
        # a plain tuple unpacks like a study, but a NaN effect and a negative se must not pass
        studies = (("s1", "P", "A", math.nan, -0.2), ContrastObservation("s2", "A", "B", 0.1, 0.2))
        with pytest.raises(TypeError, match="studies must be ContrastObservation records"):
            NetworkDataset("x", EffectMeasure.MD, studies)

    def test_name_and_reference_are_stripped(self, nsaid):
        # a blank one takes its default, as a blank argument of parse_dataset does
        blank = NetworkDataset(" ", nsaid.measure, nsaid.studies, " ")
        assert (blank.name, blank.reference) == ("dataset", nsaid.treatments[0])
        padded = NetworkDataset(" x ", nsaid.measure, nsaid.studies, " Placebo ")
        assert (padded.name, padded.reference) == ("x", "Placebo")

    def test_labels_trimmed(self):
        obs = ContrastObservation("s1", " P ", " A ", 0.5, 0.2)
        assert (obs.treat_a, obs.treat_b) == ("P", "A")

    def test_flipped(self):
        obs = ContrastObservation("s1", "P", "A", 0.5, 0.2)
        back = flipped(obs)
        assert (back.treat_a, back.treat_b, back.effect) == ("A", "P", -0.5)
