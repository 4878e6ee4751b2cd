"""Freeze the golden-verdict corpus: seeded genotypes and the verdict,
violation kinds and max_oob the roadsearch under PYTHONPATH gives them.

    PYTHONPATH=src python tests/make_golden_roads.py [--out PATH]

Run it only to re-freeze the corpus on purpose: ``tests/test_golden.py``
holds every later change to the same verdicts, kinds and max_oob
(|delta| <= 1e-9), so an optimisation that alters any of them shows up as
a behaviour change.
"""
import argparse
import json
from pathlib import Path

import numpy as np

from roadsearch.geometry import MAP_SIZE, ControlPointSet
from roadsearch.road import build_road, validate
from roadsearch.search import NUM_CONTROL_POINTS, builtin_driver, judge
from roadsearch.simulator import VehicleParams

from test_simulator import FAILING_POINTS, WIGGLY_POINTS

SEED = 2026
# genotypes per speed and shape: x-sorted like the search's seeds (about
# half valid), unsorted (folds and sharp turns), crammed into a small box
# (too short), and jittered copies of two hard roads (verdicts near the
# 95 % FAIL threshold at 25 m/s). Valid roads at 12 m/s drive twice as
# long, so that speed gets fewer of them.
PLAN = ((12.0, (("sorted", 50), ("unsorted", 30), ("compact", 10), ("jitter", 10))),
        (25.0, (("sorted", 50), ("unsorted", 25), ("compact", 5), ("jitter", 20))))
HARD_ROADS = (WIGGLY_POINTS, FAILING_POINTS)
JITTER = 3.0
OUT = Path(__file__).parent / "data" / "golden_roads.json"


def draw(rng, shape: str, index: int) -> np.ndarray:
    if shape == "compact":
        corner = rng.uniform(0.0, MAP_SIZE - 10.0, size=2)
        return corner + rng.uniform(0.0, 10.0, size=(NUM_CONTROL_POINTS, 2))
    if shape == "jitter":
        base = np.array(HARD_ROADS[index % len(HARD_ROADS)])
        return np.clip(base + rng.uniform(-JITTER, JITTER, base.shape), 0.0, MAP_SIZE)
    pts = rng.uniform(0.0, MAP_SIZE, size=(NUM_CONTROL_POINTS, 2))
    if shape == "sorted":
        pts = pts[np.argsort(pts[:, 0], kind="stable")]
    return pts


def judge_entry(points, speed: float) -> dict:
    """The verdict, violation kinds and max_oob of one genotype."""
    road = build_road(ControlPointSet(np.asarray(points)))
    validity = validate(road)
    result = judge(road, validity, builtin_driver(VehicleParams(speed=speed)))
    return {"verdict": result.verdict, "kinds": validity.kinds(),
            "max_oob": result.max_oob}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(SEED)
    entries = []
    for speed, shapes in PLAN:
        for shape, count in shapes:
            for i in range(count):
                points = draw(rng, shape, i).tolist()
                entries.append({"id": len(entries), "speed": speed, "shape": shape,
                                "points": points, **judge_entry(points, speed)})
    lines = ",\n".join(json.dumps(e) for e in entries)
    args.out.write_text(f'{{"seed": {SEED}, "entries": [\n{lines}\n]}}\n')
    verdicts = [e["verdict"] for e in entries]
    print(f"{len(entries)} roads to {args.out}: " + ", ".join(
        f"{v} {verdicts.count(v)}" for v in ("PASS", "FAIL", "INVALID")))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
