"""Golden-verdict corpus: 200 seeded genotypes, valid and invalid, at 12
and 25 m/s, with the verdict, violation kinds and max_oob frozen by
``tests/make_golden_roads.py``. Every change must reproduce them:
same verdict, same kinds, |delta max_oob| <= 1e-9.

The metamorphic relations below need no oracle: a road moved or turned
as a whole must be judged as before, so they also catch a term that
depends on absolute coordinates."""
import json
from pathlib import Path

import numpy as np

from make_golden_roads import judge_entry
from roadsearch.geometry import MAP_SIZE, ControlPointSet, frechet_pairs
from roadsearch.road import RoadSpec, build_road, validate
from roadsearch.simulator import INVALID, VehicleParams, run_test

CORPUS = json.loads((Path(__file__).parent / "data" / "golden_roads.json").read_text())


def test_corpus_covers_every_verdict_and_kind():
    entries = CORPUS["entries"]
    assert len(entries) == 200
    assert {e["speed"] for e in entries} == {12.0, 25.0}
    assert {e["verdict"] for e in entries} == {"PASS", "FAIL", "INVALID"}
    assert {k for e in entries for k in e["kinds"]} == \
           {"OVERLAP", "TOO_SHARP", "OUT_OF_MAP", "TOO_SHORT"}


def test_verdicts_match_golden_corpus():
    mismatches = []
    for entry in CORPUS["entries"]:
        got = judge_entry(entry["points"], entry["speed"])
        if (got["verdict"], got["kinds"]) != (entry["verdict"], entry["kinds"]) \
                or abs(got["max_oob"] - entry["max_oob"]) > 1e-9:
            mismatches.append((entry["id"], entry["verdict"], entry["kinds"],
                               entry["max_oob"], got))
    assert mismatches == []


# the replay bound
TOLERANCE = 1e-9
CENTRE = np.array([MAP_SIZE / 2, MAP_SIZE / 2])


def translate(points):
    return points + np.array([3.25, -1.5])


def rotate(points):
    # 90 degrees counter-clockwise about the map centre, which maps the map
    # onto itself; left stays left, as the turn keeps orientation
    d = points - CENTRE
    return CENTRE + np.column_stack([-d[:, 1], d[:, 0]])


def moved(road, transform):
    return RoadSpec(transform(road.centerline), transform(road.left_boundary),
                    transform(road.right_boundary))


def golden_road(entry):
    return build_road(ControlPointSet(np.asarray(entry["points"])))


def test_moved_road_drives_the_same():
    valid = [e for e in CORPUS["entries"] if e["verdict"] != INVALID]
    assert len(valid) == 84
    changed = []
    for entry in valid:
        road, vparams = golden_road(entry), VehicleParams(speed=entry["speed"])
        before = run_test(road, vparams)
        for transform in (translate, rotate):
            after = run_test(moved(road, transform), vparams)
            if after.verdict != before.verdict or \
                    abs(after.max_oob - before.max_oob) > TOLERANCE:
                changed.append((entry["id"], transform.__name__, before.verdict,
                                before.max_oob, after.verdict, after.max_oob))
    assert changed == []


def test_rotated_road_has_the_same_violation_kinds():
    changed = []
    for entry in CORPUS["entries"]:
        road = golden_road(entry)
        before, after = validate(road).kinds(), validate(moved(road, rotate)).kinds()
        if after != before:
            changed.append((entry["id"], before, after))
    assert changed == []


def test_rotating_both_curves_keeps_their_frechet_distance():
    curves = [golden_road(e).centerline for e in CORPUS["entries"]]
    ps, qs = curves[0::2], curves[1::2]
    assert len(ps) == len(qs) == 100
    before = frechet_pairs(ps, qs)
    after = frechet_pairs([rotate(p) for p in ps], [rotate(q) for q in qs])
    assert np.max(np.abs(after - before)) <= TOLERANCE
