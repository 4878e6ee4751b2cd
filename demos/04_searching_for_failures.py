"""Let the genetic search hunt for lane-departure failures.

Three restart policies are compared at a small budget:

* A keeps one population evolving for the whole budget -- it piles up
  many similar failures once it finds a weak spot;
* B throws the population away after every failure -- fewer, but more
  diverse failures;
* C reseeds like B but prefers (without strictly requiring) candidates
  that pass the validity check, cutting the invalid-test waste.

Reports count T test cases (P passed / I invalid / F failing) and score
failure diversity by average and maximum pairwise Frechet distance,
printed here in the same layout as the summary CSV.
"""
import time

from roadsearch import SearchConfig, VehicleParams
from roadsearch.search import builtin_driver, evaluate, run_search
from roadsearch.report import summary_row

vehicle = VehicleParams(speed=25.0)  # high speed makes tight roads dangerous
# a driver takes a road to a verdict; evaluate() drives a candidate's road
# only if it is valid. Each candidate builds and validates its road once,
# and variant C's reseeding reads the same validity report.
drive = builtin_driver(vehicle)
evaluator = lambda ind: evaluate(ind, drive)

print(f"{'variant':8s} {'T':>4s} {'P':>4s} {'I':>4s} {'F':>4s} "
      f"{'AvgFrechet':>11s} {'MaxFrechet':>11s} {'time':>6s}")
for variant in "ABC":
    cfg = SearchConfig(variant=variant, max_evaluations=150, seed=2)
    t0 = time.perf_counter()
    report = run_search(cfg, evaluator)
    elapsed = time.perf_counter() - t0
    row = summary_row(report)
    print(f"{variant:8s} {row['T']:4d} {row['P']:4d} {row['I']:4d} "
          f"{row['F']:4d} {row['AvgFrechet']:>11s} {row['MaxFrechet']:>11s} "
          f"{elapsed:5.1f}s")

print()
print("reading: A's failures are many but similar (low avg frechet);")
print("B restarts after each failure, so its failures are fewer but farther")
print("apart; C additionally wastes fewer tests on invalid roads.")
