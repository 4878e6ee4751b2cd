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
        search, road, vehicle, sut = parse_config_dict({})
        assert search.variant == "A"
        assert search.population_size == 25
        assert search.num_control_points == 7
        assert search.max_evaluations == 300
        assert search.wall_time is None
        assert road.lane_width == 4.0
        assert road.map_size == 200.0
        assert road.overlap_buffer == 8.0
        assert vehicle.speed == 12.0
        assert sut.command is None

    def test_empty_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("")
        search, road, vehicle, sut = parse_config_dict(read_config(path))
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
        with pytest.raises(ConfigError, match="mutation_prob"):
            parse_config_dict({"search": {"mutation_prob": 1.5}})

    def test_unknown_key_names_path(self):
        with pytest.raises(ConfigError, match=r"search\.mutation_probz"):
            parse_config_dict({"search": {"mutation_probz": 0.5}})

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="wheels"):
            parse_config_dict({"wheels": {}})

    def test_search_map_size_not_a_file_key(self):
        with pytest.raises(ConfigError, match=r"search\.map_size"):
            parse_config_dict({"search": {"map_size": 100.0}})

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

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config_dict(read_config(tmp_path / "nope.json"))

    def test_nan_in_file_rejected(self, tmp_path):
        # json reads NaN and Infinity as floats; the dataclasses refuse them
        path = tmp_path / "cfg.json"
        for text, key in (('{"vehicle": {"speed": NaN}}', "speed"),
                          ('{"road": {"min_radius": NaN}}', "min_radius"),
                          ('{"search": {"wall_time": Infinity}}', "wall_time"),
                          ('{"sut": {"timeout": NaN}}', "timeout"),
                          ('{"sut": {"timeout": Infinity}}', "timeout")):
            path.write_text(text)
            with pytest.raises(ConfigError, match=key):
                parse_config_dict(read_config(path))

    def test_search_settings_that_would_crash_the_run(self, tmp_path):
        # a float seed used to die in numpy, too many elites in run_search,
        # a float count in range() or numpy
        path = tmp_path / "cfg.json"
        for text, key in (('{"search": {"seed": 1.5}}', "seed"),
                          ('{"search": {"seed": -1}}', "seed"),
                          ('{"search": {"seed": true}}', "seed"),
                          ('{"search": {"population_size": 2, "elitism": 5}}', "elitism"),
                          ('{"search": {"population_size": 2.5}}', "population_size"),
                          ('{"search": {"tournament_size": 2.5}}', "tournament_size"),
                          ('{"search": {"num_control_points": 4.5}}', "num_control_points"),
                          ('{"search": {"elitism": 1.5}}', "elitism"),
                          ('{"search": {"max_evaluations": 60.5}}', "max_evaluations"),
                          ('{"search": {"population_size": true}}', "population_size"),
                          ('{"road": {"num_samples": 50.5}}', "num_samples"),
                          ('{"road": {"num_samples": true}}', "num_samples")):
            path.write_text(text)
            with pytest.raises(ConfigError, match=key):
                parse_config_dict(read_config(path))

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="road"):
            parse_config_dict({"road": [1, 2, 3]})


class TestRoundTrip:
    def test_parse_serialize_identity(self):
        data = {
            "search": {"variant": "B", "seed": 99, "mutation_prob": 0.3,
                       "max_evaluations": 500},
            "road": {"lane_width": 3.5, "map_size": 300.0},
            "vehicle": {"speed": 25.0, "lookahead": 10.0},
            "sut": {"command": "cat", "timeout": 5.0},
        }
        parsed = parse_config_dict(data)
        again = parse_config_dict(serialize_config(*parsed))
        assert again == parsed

    def test_map_size_shared_with_search(self):
        search, road, *_ = parse_config_dict({"road": {"map_size": 300.0}})
        assert search.map_size == 300.0 == road.map_size

    def test_round_trip_through_file(self, tmp_path):
        parsed = parse_config_dict({"search": {"variant": "C"}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(serialize_config(*parsed)))
        assert parse_config_dict(read_config(path)) == parsed
