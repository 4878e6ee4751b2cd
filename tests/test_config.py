import json

import pytest

from roadsearch.config import (
    ConfigError,
    parse_config_dict,
    read_config,
    serialize_config,
)


class TestDefaults:
    def test_empty_dict_gives_documented_defaults(self):
        search, vehicle, sut = parse_config_dict({})
        assert search.variant == "A"
        assert search.population_size == 25
        assert search.max_evaluations == 300
        assert vehicle.speed == 12.0
        assert sut.command is None

    def test_empty_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("")
        search, vehicle, sut = parse_config_dict(read_config(path))
        assert search.variant == "A" and search.population_size == 25

    def test_variant_c_population_default(self):
        search, *_ = parse_config_dict({"search": {"variant": "C"}})
        assert search.population_size == 15

    def test_explicit_population_kept(self):
        search, *_ = parse_config_dict(
            {"search": {"variant": "C", "population_size": 40}})
        assert search.population_size == 40


class TestValidation:
    def test_out_of_range_names_key(self):
        with pytest.raises(ConfigError, match="population_size"):
            parse_config_dict({"search": {"population_size": 1}})

    def test_unknown_key_names_path(self):
        with pytest.raises(ConfigError, match=r"search\.mutation_probz"):
            parse_config_dict({"search": {"mutation_probz": 0.5}})

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="wheels"):
            parse_config_dict({"wheels": {}})

    def test_search_map_size_not_a_file_key(self):
        with pytest.raises(ConfigError, match=r"search\.map_size"):
            parse_config_dict({"search": {"map_size": 100.0}})

    def test_road_geometry_is_not_a_setting(self):
        # the road geometry, the map and the control-point count are module
        # constants; a file that sets one, even to its value, is refused
        with pytest.raises(ConfigError, match="unknown section.*road"):
            parse_config_dict({"road": {"lane_width": 4.0}})
        with pytest.raises(ConfigError, match="unknown section.*road"):
            parse_config_dict({"road": {}})
        with pytest.raises(ConfigError, match=r"^search\.num_control_points: unknown key$"):
            parse_config_dict({"search": {"num_control_points": 7}})

    def test_external_sut_needs_command(self):
        # a SUT is external exactly when it has a command; "kind" is no key
        with pytest.raises(ConfigError, match=r"sut\.kind"):
            parse_config_dict({"sut": {"kind": "external"}})
        with pytest.raises(ConfigError, match=r"sut\.kind"):
            parse_config_dict({"sut": {"kind": "builtin", "command": "cat"}})

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config_dict(read_config(path))

    def test_deeply_nested_json_file(self, tmp_path):
        # the JSON parser's RecursionError used to escape as a traceback
        path = tmp_path / "cfg.json"
        path.write_text("[" * 100000 + "]" * 100000)
        with pytest.raises(ConfigError, match="invalid JSON: maximum recursion depth"):
            read_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config_dict(read_config(tmp_path / "nope.json"))

    def test_nan_in_file_rejected(self, tmp_path):
        # json reads NaN and Infinity as floats, and true as a bool that
        # passes for 1; the dataclasses refuse them, a switch that is not a
        # bool ("false" is truthy), and a null budget (it once read as 300)
        path = tmp_path / "cfg.json"
        for text, key in (('{"vehicle": {"speed": NaN}}', "speed"),
                          ('{"search": {"max_evaluations": Infinity}}', "max_evaluations"),
                          ('{"sut": {"timeout": NaN}}', "timeout"),
                          ('{"sut": {"timeout": Infinity}}', "timeout"),
                          ('{"sut": {"timeout": 1e300}}', "timeout"),
                          ('{"vehicle": {"speed": true}}', "speed"),
                          ('{"sut": {"timeout": true}}', "timeout"),
                          ('{"search": {"max_evaluations": true}}', "max_evaluations"),
                          ('{"search": {"max_evaluations": null}}', "max_evaluations"),
                          ('{"search": {"novelty_filter": "false"}}', "novelty_filter"),
                          ('{"search": {"novelty_filter": 0}}', "novelty_filter")):
            path.write_text(text)
            with pytest.raises(ConfigError, match=key):
                parse_config_dict(read_config(path))

    def test_search_settings_that_would_crash_the_run(self, tmp_path):
        # a float seed used to die in numpy, a float count in range() or numpy
        path = tmp_path / "cfg.json"
        for text, key in (('{"search": {"seed": 1.5}}', "seed"),
                          ('{"search": {"seed": -1}}', "seed"),
                          ('{"search": {"seed": true}}', "seed"),
                          ('{"search": {"population_size": 2.5}}', "population_size"),
                          ('{"search": {"max_evaluations": 60.5}}', "max_evaluations"),
                          ('{"search": {"population_size": true}}', "population_size")):
            path.write_text(text)
            with pytest.raises(ConfigError, match=key):
                parse_config_dict(read_config(path))

    @pytest.mark.parametrize("section, key", [
        ("search", "mutation_prob"), ("search", "mutation_range"),
        ("search", "tournament_size"), ("search", "elitism"), ("search", "crossover_prob"),
        ("search", "wall_time"),
        ("vehicle", "wheelbase"), ("vehicle", "width"), ("vehicle", "length"),
        ("vehicle", "max_steer"), ("vehicle", "lookahead"), ("vehicle", "steer_rate"),
    ])
    def test_fixed_operator_and_vehicle_keys_are_unknown(self, section, key):
        # the GA's rates and the vehicle's geometry are module constants, and
        # the budget is a count alone; a file that sets one is refused
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: unknown key$"):
            parse_config_dict({section: {key: 1}})

    def test_settable_keys(self):
        data = serialize_config(*parse_config_dict({}))
        assert {s: sorted(v) for s, v in data.items()} == {
            "search": ["max_evaluations", "novelty_filter", "population_size", "seed",
                       "variant"],
            "vehicle": ["speed"],
            "sut": ["command", "timeout"],
        }

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="vehicle"):
            parse_config_dict({"vehicle": [1, 2, 3]})


class TestRoundTrip:
    def test_parse_serialize_identity(self):
        data = {
            "search": {"variant": "B", "seed": 99, "novelty_filter": True,
                       "max_evaluations": 500},
            "vehicle": {"speed": 25.0},
            "sut": {"command": "cat", "timeout": 5.0},
        }
        parsed = parse_config_dict(data)
        again = parse_config_dict(serialize_config(*parsed))
        assert again == parsed

    def test_round_trip_through_file(self, tmp_path):
        parsed = parse_config_dict({"search": {"variant": "C"}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(serialize_config(*parsed)))
        assert parse_config_dict(read_config(path)) == parsed
