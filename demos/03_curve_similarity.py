"""How different are two roads? Discrete Frechet distance.

The discrete Frechet distance is the shortest leash that lets a walker
and a dog traverse their respective point sequences without backing up.
We use it to quantify how diverse a set of failing roads is: a cluster
of near-identical failures scores low, genuinely distinct geometries
score high.
"""
import numpy as np

from roadsearch import ControlPointSet, build_road
from roadsearch.geometry import frechet_pairs

# tiny sanity examples
print("identical lines:", frechet_pairs([[0, 0], [1, 0]], [[0, 0], [1, 0]])[0])
print("parallel lines 1 m apart:",
      frechet_pairs([[0, 0], [1, 0], [2, 0]], [[0, 1], [1, 1], [2, 1]])[0])

# a case small enough to check by hand: the walker steps (0,0) (1,0) (2,0),
# the dog (0,1) (2,1). Both start together (1 m apart) and end together
# (1 m apart); the walker's middle point has to wait with the dog at one
# end or the other, sqrt(1 + 1) m away either way. So the leash is sqrt(2).
walker, dog = [[0, 0], [1, 0], [2, 0]], [[0, 1], [2, 1]]
print(f"walker vs dog: {frechet_pairs(walker, dog)[0]:.6f} m "
      f"(by hand: sqrt(2) = {np.sqrt(2):.6f} m)")
assert frechet_pairs(walker, dog)[0] == np.sqrt(2)


def centerline(points):
    return build_road(ControlPointSet(np.asarray(points, float))).centerline


# distances between whole roads
base = [[10, 100], [40, 120], [70, 90], [100, 110], [130, 90], [160, 120], [190, 100]]
nudged = [[10, 100], [40, 122], [70, 88], [100, 112], [130, 88], [160, 122], [190, 100]]
different = [[10, 30], [40, 170], [70, 30], [100, 170], [130, 30], [160, 170], [190, 30]]

a, b, c = centerline(base), centerline(nudged), centerline(different)
print(f"nudged copy:    frechet = {frechet_pairs(a, b)[0]:7.2f} m")
print(f"different road: frechet = {frechet_pairs(a, c)[0]:7.2f} m")

# many pairs at once: one batched sweep, here the base road against both
print("base vs [nudged, different]:", np.round(frechet_pairs(a, [b, c]), 2), "m")

# the three pairs of the population in one sweep, and their mean
pairs = frechet_pairs([a, a, b], [b, c, c])
print(f"population average over all three: {pairs.mean():.2f} m")
