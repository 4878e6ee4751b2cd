"""A road is a Bezier curve over a handful of control points.

Seven points define a degree-six curve; the curve is sampled, resampled
to uniform arc-length spacing, and offset sideways into lane boundaries.
Moving a single control point reshapes the whole road, which is exactly
what makes the representation pleasant to search over.
"""
from pathlib import Path

import numpy as np

from roadsearch import ControlPointSet, build_road, validate
from roadsearch.report import render_test_svg

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

# every road has 4 m lanes on a 200 m map and must turn no tighter than a
# 7 m radius: see road.LANE_WIDTH, geometry.MAP_SIZE and road.MIN_RADIUS

# a gentle S across the map
points = np.array([[10.0, 100.0], [45.0, 155.0], [80.0, 100.0],
                   [115.0, 45.0], [150.0, 100.0], [170.0, 130.0],
                   [190.0, 110.0]])
cps = ControlPointSet(points)
road = build_road(cps)

print(f"centerline: {len(road.centerline)} points, {road.length():.1f} m long")
print(f"first point {road.centerline[0].round(2)}, last {road.centerline[-1].round(2)}")

report = validate(road)
print(f"valid: {report.valid}")

# now yank one control point: the whole road bends
moved = points.copy()
moved[3] = [115.0, 180.0]
bent = build_road(ControlPointSet(moved))
shift = np.linalg.norm(bent.centerline - road.centerline, axis=1)
print(f"moving one control point shifted the centerline by up to {shift.max():.1f} m")

# roads can also be born broken: a hairpin tighter than the car can turn
arc = np.radians(np.linspace(180, 0, 7))
tight = np.column_stack([100 + 3.0 * np.cos(arc), 100 + 3.0 * np.sin(arc)])
sharp_road = build_road(ControlPointSet(tight))
sharp_report = validate(sharp_road)
print(f"3 m hairpin verdict: valid={sharp_report.valid}, "
      f"violations={[v['kind'] for v in sharp_report.violations]}")

render_test_svg(road, None, OUT / "01_s_curve.svg", title="gentle S")
render_test_svg(bent, None, OUT / "01_s_curve_bent.svg", title="one point moved")
print(f"wrote {OUT / '01_s_curve.svg'} and {OUT / '01_s_curve_bent.svg'}")
