"""Drive the built-in lane keeper and watch it struggle.

The vehicle is a kinematic bicycle with a pure-pursuit controller and a
steering actuator that cannot slew infinitely fast. At 12 m/s it holds
the lane on almost anything; at 25 m/s, roads with tight curvature
transitions outrun the steering and the box drifts out of the lane. A
test fails when more than 95 percent of the bounding box is outside the
right lane at any instant.
"""
from pathlib import Path

import numpy as np

from roadsearch import ControlPointSet, VehicleParams, build_road, run_test, validate
from roadsearch.report import render_test_svg

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

# a valid but nasty road found by random sampling
nasty = ControlPointSet(np.array(
    [[24.168, 122.524], [76.111, 6.78], [111.928, 167.398],
     [116.366, 129.561], [130.004, 78.709], [132.545, 115.23],
     [149.369, 192.498]]))
road = build_road(nasty)
assert validate(road).valid

for speed in (12.0, 18.0, 25.0):
    vp = VehicleParams(speed=speed)
    result = run_test(road, vp)
    print(f"speed {speed:4.1f} m/s: verdict {result.verdict:7s} "
          f"max_oob {result.max_oob:6.2f}%  "
          f"steps {len(result.trajectory):4d}")

result = run_test(road, VehicleParams(speed=25.0))
render_test_svg(road, result, OUT / "02_failure.svg",
                title=f"25 m/s, max oob {result.max_oob:.0f}%")
print(f"wrote {OUT / '02_failure.svg'} (trajectory colored green->red by oob)")

# determinism: the simulator is a pure function of its inputs
again = run_test(road, VehicleParams(speed=25.0))
identical = all(np.array_equal(a.position, b.position)
                for a, b in zip(result.trajectory, again.trajectory))
print(f"re-run bit-identical: {identical}")
