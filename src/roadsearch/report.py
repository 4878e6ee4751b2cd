"""Run persistence and reporting.

Each run turns into three artifacts: a replayable JSON archive holding
every evaluated genotype with its verdict, a summary row with the
T/P/I/F counts and the Frechet-distance aggregates over the failing
tests (the CLI writes every run's row to one CSV), and one SVG per
failing test showing the road and the driven trajectory colored by
out-of-bounds percentage.

``replay`` rebuilds a road from an archived genotype and judges it
again with the archive's SUT, raising :class:`ReplayDivergence` if the
stored verdict no longer reproduces (nondeterminism or version skew).
"""
from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

from . import __version__
from .geometry import MAP_SIZE, ControlPointSet
from .road import RoadSpec, build_road, validate
from .search import RunReport, builtin_driver, judge
from .simulator import FAIL, TestResult, VehicleParams, run_test
from .protocol import SutDescriptor, external_evaluate
from .config import ConfigError, parse_config_dict, serialize_config

__all__ = [
    "ReplayDivergence",
    "archive_to_dict",
    "write_report",
    "write_summary_csv",
    "summary_row",
    "load_archive",
    "replay",
    "render_failures",
    "render_test_svg",
]

SUMMARY_COLUMNS = ["Run", "T", "P", "I", "F", "AvgFrechet", "MaxFrechet"]

class ReplayDivergence(RuntimeError):
    """Stored and freshly computed results disagree."""

    def __init__(self, test_id, stored, fresh):
        super().__init__(
            f"replay divergence on test {test_id}: "
            f"stored verdict={stored[0]} max_oob={stored[1]:.6f}, "
            f"fresh verdict={fresh[0]} max_oob={fresh[1]:.6f}"
        )
        self.test_id = test_id
        self.stored = stored
        self.fresh = fresh


def archive_to_dict(report: RunReport, vparams: VehicleParams, sut: SutDescriptor) -> dict:
    cfg = serialize_config(report.config, vparams, sut)
    return {
        "version": __version__,
        "config": cfg,
        "records": [
            {
                "id": i,
                "genotype": ind.genotype.points.tolist(),
                "verdict": ind.verdict,
                "fitness": ind.fitness,
                "eval_time": ind.eval_time,
                "error": ind.error,
            }
            for i, ind in enumerate(report.records)
        ],
        "events": report.events,
        "aggregates": report.aggregates,
    }


def _fmt_frechet(value) -> str:
    return "n/a" if value is None else f"{value:.3f}"


def summary_row(report: RunReport, run_id=1) -> dict:
    agg = report.aggregates
    return {
        "Run": run_id,
        "T": agg["T"],
        "P": agg["P"],
        "I": agg["I"],
        "F": agg["F"],
        "AvgFrechet": _fmt_frechet(agg["avg_frechet_failures"]),
        "MaxFrechet": _fmt_frechet(agg["max_frechet_failures"]),
    }


def write_summary_csv(rows, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def write_report(report: RunReport, out_dir, *, vparams: VehicleParams,
                 sut: SutDescriptor, run_id=1) -> dict:
    """Emit the archive and the failure SVGs for one run; its summary row
    is :func:`summary_row`'s.

    Returns a dict of the written paths; the SVGs are those of
    :func:`render_failures`.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    archive = archive_to_dict(report, vparams, sut)
    archive_path = out / f"run{run_id:02d}.json"
    with open(archive_path, "w", encoding="utf-8") as fh:
        json.dump(archive, fh)
    paths["archive"] = archive_path

    paths["svgs"] = render_failures(archive, out, prefix=f"run{run_id:02d}_")
    return paths


def load_archive(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError as exc:  # nested deeper than the parser goes
            raise ValueError(f"archive: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("archive: expected an object")
    for key in ("config", "records", "events", "aggregates"):
        if key not in data:
            raise ValueError(f"archive missing {key!r}")
    if not isinstance(data["records"], list):
        raise ValueError("archive records: expected a list")
    for i, rec in enumerate(data["records"]):
        if not isinstance(rec, dict):
            raise ValueError(f"archive record {i}: expected an object")
        for key, kind in (("id", int), ("genotype", list), ("verdict", str),
                          ("fitness", (int, float))):
            if key not in rec:
                raise ValueError(f"archive record {i} missing {key!r}")
            if isinstance(rec[key], bool) or not isinstance(rec[key], kind):
                raise ValueError(f"archive record {i}: {key!r} has the wrong type")
        # false for NaN, inf and ints too large for a float (a NaN replays as a match)
        if not abs(rec["fitness"]) <= sys.float_info.max:
            raise ValueError(f"archive record {i}: 'fitness' is not finite")
        try:
            ControlPointSet(rec["genotype"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"archive record {i}: bad genotype ({exc})") from None
    return data


def _archive_params(archive: dict):
    # (vparams, sut) read as a config file is: a retired key or section is unknown
    if not isinstance(archive["config"], dict):
        raise ConfigError("archive config: expected an object")
    return parse_config_dict(archive["config"])[1:]


def _record_road(record: dict) -> RoadSpec:
    return build_road(ControlPointSet(record["genotype"]))


def replay(archive: dict, test_id: int, sut_command: str | None = None) -> TestResult:
    """Re-run one test of a loaded archive and check its verdict still holds.

    ``sut_command`` must be the archive's own SUT command, or None for an
    archive of the built-in simulator; replay refuses any other rather
    than judge with a SUT the archive was not recorded against.
    """
    vparams, sut = _archive_params(archive)
    record = next((r for r in archive["records"] if r["id"] == test_id), None)
    if record is None:
        raise ValueError(f"archive has no test {test_id}")

    if sut_command != sut.command:
        recorded = ("the built-in SUT" if sut.command is None
                    else f"the external SUT {sut.command!r}")
        raise ValueError(f"SUT command mismatch: the archive was recorded against "
                         f"{recorded}, not {sut_command!r}")
    if sut.command is None:
        drive = builtin_driver(vparams)
    else:
        drive = lambda road: external_evaluate(road, sut)
    road = _record_road(record)
    result = judge(road, validate(road), drive)

    stored = (record["verdict"], float(record["fitness"]))
    fresh = (result.verdict, result.max_oob)
    if stored[0] != fresh[0] or not abs(stored[1] - fresh[1]) <= 1e-9:
        raise ReplayDivergence(test_id, stored, fresh)
    return result


def render_failures(archive: dict, out_dir, prefix: str = "") -> list:
    """Draw one SVG per FAIL record of an archive dict, named
    ``<prefix>fail_<id>.svg``, and return their paths.

    Trajectories are re-simulated with the built-in SUT; for
    external-SUT archives only the road geometry is drawn.
    """
    vparams, sut = _archive_params(archive)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for rec in archive["records"]:
        if rec["verdict"] != FAIL:
            continue
        road = _record_road(rec)
        result = run_test(road, vparams) if sut.command is None else None
        path = out / f"{prefix}fail_{rec['id']:04d}.svg"
        render_test_svg(road, result, path,
                        title=f"test {rec['id']}: fitness {rec['fitness']:.1f}")
        paths.append(path)
    return paths


def _oob_color(oob: float) -> str:
    # green -> red as the vehicle leaves its lane
    f = min(max(oob / 100.0, 0.0), 1.0)
    r = int(40 + 215 * f)
    g = int(170 * (1.0 - f) + 30)
    return f"#{r:02x}{g:02x}28"


def render_test_svg(road: RoadSpec, result: TestResult | None, path,
                    title: str = "") -> None:
    """Draw road boundaries, centerline and (if given) the trajectory,
    1 px per meter, colored by instantaneous out-of-bounds percentage."""
    size = MAP_SIZE

    def pts(poly):
        return " ".join(f"{x:.2f},{size - y:.2f}" for x, y in poly)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="#f8f8f4"/>',
        f'<polyline points="{pts(road.left_boundary)}" fill="none" '
        'stroke="#444444" stroke-width="0.8"/>',
        f'<polyline points="{pts(road.right_boundary)}" fill="none" '
        'stroke="#444444" stroke-width="0.8"/>',
        f'<polyline points="{pts(road.centerline)}" fill="none" '
        'stroke="#999999" stroke-width="0.5" stroke-dasharray="3,3"/>',
    ]
    if result is not None:
        states = result.trajectory
        for i in range(1, len(states)):
            x0, y0 = states[i - 1].position
            x1, y1 = states[i].position
            color = _oob_color(result.oob_trace[i])
            lines.append(
                f'<line x1="{x0:.2f}" y1="{size - y0:.2f}" x2="{x1:.2f}" '
                f'y2="{size - y1:.2f}" stroke="{color}" stroke-width="1.4"/>'
            )
    if title:
        lines.append(f'<text x="4" y="12" font-size="8" fill="#222222">{title}</text>')
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines), encoding="utf-8")
