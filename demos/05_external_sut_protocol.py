"""Plugging in your own system under test.

The harness talks to an external SUT over a one-line-JSON-per-test
protocol on stdin/stdout: it sends the serialized road, the SUT answers
with a verdict and the peak out-of-bounds percentage. Anything that
answers each road line with one line, without waiting for EOF, can be a
SUT. A session keeps one SUT process for many roads; here the built-in
simulator itself is wrapped behind the protocol, drives all five roads
in one process, and is checked against direct in-process execution.
Broken SUTs (garbage output, hangs, missing binaries) are absorbed as
INVALID results with an error tag.
"""
import sys

import numpy as np

from roadsearch import ControlPointSet, VehicleParams, build_road, run_test, validate
from roadsearch.protocol import SutDescriptor, SutSession, external_evaluate

rng = np.random.default_rng(12)

# a few random valid roads
roads = []
while len(roads) < 5:
    pts = np.sort(rng.uniform(0, 200, (7, 2)), axis=0)
    road = build_road(ControlPointSet(pts))
    if validate(road).valid:
        roads.append(road)

sut = SutDescriptor(
    command=f"{sys.executable} -m roadsearch.protocol --speed 25",
    timeout=120.0)

print("road  in-process            behind the protocol")
with SutSession(sut) as session:  # one SUT process, ended when the block ends
    for i, road in enumerate(roads):
        ref = run_test(road, VehicleParams(speed=25.0))
        ext = external_evaluate(road, sut, session)
        print(f"{i:4d}  {ref.verdict:7s} {ref.max_oob:7.3f}%   "
              f"{ext.verdict:7s} {ext.max_oob:7.3f}%   "
              f"identical={ext.max_oob == ref.max_oob}")

# a misbehaving SUT does not kill the run; without a session a road gets
# a process of its own
broken = SutDescriptor(command=f"{sys.executable} -c 'print(\"gibberish\")'",
                       timeout=30.0)
result = external_evaluate(roads[0], broken)
print(f"\ngibberish SUT -> verdict {result.verdict}, error tag {result.error!r}")
