"""Exact round-trips of the JSON file formats; floats never sneak in."""

import json
from fractions import Fraction

import pytest
from hypothesis import given

from cakecut import (Instance, ValidationError, allocation_from_obj,
                     allocation_to_obj, format_fraction, instance_from_obj,
                     instance_to_obj, interval, parse_fraction)
from cakecut.serialize import dumps_canonical, read_json, report_to_obj, write_json
from cakecut.audit import build_report
from cakecut.cake import Valuation
from strategies import instances

UNIFORM = Valuation([Fraction(0), Fraction(1)], [Fraction(1)])


class TestFractionStrings:
    def test_accepts_plain_and_signed_forms(self):
        assert parse_fraction("2/5") == Fraction(2, 5)
        assert parse_fraction("0") == 0
        assert parse_fraction("-3/7") == Fraction(-3, 7)
        assert parse_fraction("+4") == 4

    @pytest.mark.parametrize("bad", [
        "0.4", "1e-3", ".5", "1/2/3", "1 / 2", " 1/2", "", "nan",
        0.4, 1, None, ["1/2"], "\u0663/\u0664", "\uff13",
    ])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(ValidationError):
            parse_fraction(bad)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValidationError):
            parse_fraction("1/0")

    @given(instances(max_n=3))
    def test_format_parse_round_trip(self, inst):
        for v in inst.valuations.values():
            for x in list(v.breakpoints) + list(v.densities):
                assert parse_fraction(format_fraction(x)) == x


class TestInstanceFiles:
    @given(instances())
    def test_round_trip_is_exact(self, inst):
        again = instance_from_obj(instance_to_obj(inst))
        assert again.agent_ids == inst.agent_ids
        assert again.valuations == inst.valuations

    @given(instances(max_n=3))
    def test_file_round_trip_through_json_text(self, inst):
        text = dumps_canonical(instance_to_obj(inst))
        again = instance_from_obj(json.loads(text))
        assert again.valuations == inst.valuations

    def test_rejects_float_breakpoints(self):
        obj = instance_to_obj(Instance({"u": UNIFORM}, ["u"]))
        obj["valuations"]["u"]["breakpoints"] = ["0", 0.5, "1"]
        with pytest.raises(ValidationError):
            instance_from_obj(obj)

    @pytest.mark.parametrize("mutate", [
        lambda o: o.pop("agents"),
        lambda o: o.pop("valuations"),
        lambda o: o.update(agents=[]),
        lambda o: o.update(agents=[{"val": "u"}]),
        lambda o: o.update(agents=[{"valuation": "missing"}]),
        lambda o: o["valuations"]["u"].pop("densities"),
    ])
    def test_rejects_structural_damage(self, mutate):
        obj = instance_to_obj(Instance({"u": UNIFORM}, ["u"]))
        mutate(obj)
        with pytest.raises(ValidationError):
            instance_from_obj(obj)

    def test_rejects_semantic_damage(self):
        obj = instance_to_obj(Instance({"u": UNIFORM}, ["u"]))
        obj["valuations"]["u"]["densities"] = ["2"]  # mass 2
        with pytest.raises(ValidationError, match="^valuation 'u': total mass is 2, expected 1$"):
            instance_from_obj(obj)


class TestAllocationFiles:
    def test_round_trip_with_empty_piece(self):
        pieces = [interval(0, "2/5"), None, interval("2/5", 1)]
        params = {"delta": Fraction(1, 10)}
        obj = allocation_to_obj(pieces, params)
        assert obj["pieces"][1] == {"agent": 2, "lo": None, "hi": None}
        back, back_params = allocation_from_obj(obj)
        assert back == pieces and back_params == params

    def test_agents_are_one_indexed_in_files(self):
        obj = allocation_to_obj([interval(0, 1)], {"delta": Fraction(1, 2)})
        assert obj["pieces"][0]["agent"] == 1

    def test_param_keys_follow_the_mode(self):
        c = Fraction(1, 10)
        obj = allocation_to_obj([interval(0, 1)], {"c": c, "delta": c / 8})
        assert obj["c"] == "1/10" and obj["delta"] == "1/80"
        _, params = allocation_from_obj(obj)
        assert params == {"c": c, "delta": c / 8}

    @pytest.mark.parametrize("rows", [
        [{"agent": 1, "lo": "0", "hi": "1"}, {"agent": 1, "lo": None, "hi": None}],
        [{"agent": 0, "lo": "0", "hi": "1"}],
        [{"agent": 2, "lo": "0", "hi": "1"}],
        [{"agent": 1, "lo": "3/4", "hi": "1/4"}],
        [{"agent": 1, "lo": "0", "hi": "9/8"}],
        [{"lo": "0", "hi": "1"}],
        [{"agent": True, "lo": "0", "hi": "1"}],
    ])
    def test_rejects_bad_piece_rows(self, rows):
        with pytest.raises(ValidationError):
            allocation_from_obj({"pieces": rows, "delta": "1/10"})

    def test_embedded_audit_is_optional_and_ignored_on_read(self):
        report = build_report([interval(0, 1)], [UNIFORM])
        obj = allocation_to_obj([interval(0, 1)], {"delta": Fraction(1, 10)}, report)
        assert obj["audit"]["passed"] is True
        pieces, params = allocation_from_obj(obj)
        assert pieces == [interval(0, 1)]


def test_report_rendering_separates_exact_and_float():
    report = build_report([interval(0, "1/3"), interval("1/3", 1)], [UNIFORM, UNIFORM])
    obj = report_to_obj(report)
    assert obj["max_envy"] == "1/3"
    assert obj["max_envy_float"] == pytest.approx(1 / 3)
    assert obj["min_mult_ratio"] == "1/2"
    assert obj["values"] == [["1/3", "2/3"], ["1/3", "2/3"]]


def test_report_rendering_handles_unbounded_ratio():
    report = build_report([interval(0, 1)], [UNIFORM])
    obj = report_to_obj(report)
    assert obj["min_mult_ratio"] is None and obj["min_mult_ratio_float"] is None


def test_dumps_canonical_is_stable():
    a = dumps_canonical({"b": 1, "a": [2, 3]})
    b = dumps_canonical({"a": [2, 3], "b": 1})
    assert a == b and a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')


def test_read_json_wraps_errors(tmp_path):
    with pytest.raises(ValidationError):
        read_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ValidationError):
        read_json(bad)
    good = tmp_path / "good.json"
    write_json(good, {"x": "1/2"})
    assert read_json(good) == {"x": "1/2"}
