"""Parsing, validation, designs, contrast derivation and the design matrix."""

from __future__ import annotations

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
    build_design_matrix,
    connected_components,
    derive_contrast_binary,
    derive_contrast_continuous,
    group_designs,
    load_dataset,
    parse_dataset,
)

from conftest import ESCAPING_INPUTS, make_dataset, random_network


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

    def test_degenerate_without_correction(self):
        with pytest.raises(DatasetError, match="degenerate 2x2 table"):
            derive_contrast_binary(0, 50, 5, 50, EffectMeasure.LOG_OR, correction=0.0)

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
        expected = len({obs.pair for obs in smoke.studies})
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


class TestDesignMatrix:
    def test_two_study_chain(self):
        ds = make_dataset([("P", "A", 0.1, 1.0), ("A", "B", 0.2, 1.0)], reference="P")
        x = build_design_matrix(ds)
        assert x.column_treatments == ("A", "B")
        assert x.matrix.tolist() == [[1.0, 0.0], [-1.0, 1.0]]

    def test_disconnected_message(self):
        with pytest.raises(DatasetError, match=r"disconnected network: \{A,B\} \| \{C,D\}"):
            make_dataset([("A", "B", 0.1, 1.0), ("C", "D", 0.2, 1.0)])

    def test_nsaid_star_rows(self, nsaid):
        x = build_design_matrix(nsaid)
        assert x.matrix.shape == (29, 6)
        for i, obs in enumerate(nsaid.studies):
            row = x.matrix[i]
            assert np.sum(row == 1.0) == 1
            assert np.sum(row != 0.0) == 1
            assert x.column_treatments[int(np.argmax(row))] == obs.treat_b

    def test_full_rank_on_random_networks(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ds = random_network(rng)
            x = build_design_matrix(ds)
            assert np.linalg.matrix_rank(x.matrix) == ds.n_treatments - 1

    def test_matrix_is_read_only(self, nsaid):
        x = build_design_matrix(nsaid)
        with pytest.raises(ValueError):
            x.matrix[0, 0] = 5.0

    def test_dataset_design_built_once(self, nsaid):
        assert nsaid.design is nsaid.design
        np.testing.assert_array_equal(nsaid.design.matrix, build_design_matrix(nsaid).matrix)
        dropped = nsaid.drop_studies([nsaid.studies[0].study_id])
        assert dropped.design is not nsaid.design
        assert dropped.design.matrix.shape == (28, 6)
        np.testing.assert_array_equal(dropped.design.matrix, nsaid.design.matrix[1:])


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
        with pytest.raises(DatasetError, match="unknown study id"):
            nsaid.drop_studies(["nope"])

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

    def test_labels_trimmed(self):
        obs = ContrastObservation("s1", " P ", " A ", 0.5, 0.2)
        assert (obs.treat_a, obs.treat_b) == ("P", "A")

    def test_flipped(self):
        obs = ContrastObservation("s1", "P", "A", 0.5, 0.2)
        back = obs.flipped()
        assert (back.treat_a, back.treat_b, back.effect) == ("A", "P", -0.5)
        assert back.pair == obs.pair
        assert back.canonical_sign == -obs.canonical_sign
