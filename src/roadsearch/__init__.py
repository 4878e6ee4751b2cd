"""Search-based generation of challenging roads for lane-keeping systems.

A road is a Bezier curve over a handful of control points; a genetic
algorithm evolves those control points toward roads that make a
lane-keeping vehicle leave its lane, with a discrete-Frechet-distance
report of how diverse the discovered failures are.
"""

__version__ = "0.1.0"

from .geometry import (
    ControlPointSet,
    frechet_pairs,
    min_curvature_radius,
    sample_bezier,
)
from .road import RoadSpec, ValidityReport, build_road, validate
from .simulator import (
    FAIL,
    INVALID,
    PASS,
    TestResult,
    VehicleParams,
    VehicleState,
    run_test,
)
from .search import (
    FailureArchive,
    Individual,
    RunReport,
    SearchConfig,
    builtin_driver,
    crossover,
    evaluate,
    mutate,
    novelty_accept,
    random_individual,
    run_search,
    select,
)
