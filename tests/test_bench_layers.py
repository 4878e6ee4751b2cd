"""The layer benchmark script runs against the tree under test."""
import json
import subprocess
import sys
from pathlib import Path

import roadsearch

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_layers.py"


def test_one_pass_records_every_layer(tmp_path):
    # PYTHONPATH points at the package this process imported, as in
    # test_module_invocation, so the protocol child drives the same tree.
    # Only counts are checked: timings, the clip count and the fold
    # check's narrow share move with any legitimate optimisation.
    src_root = Path(roadsearch.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--passes", "1", "--label", "smoke"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(src_root)},
    )
    assert proc.returncode == 0, proc.stderr
    rows = {layer: json.loads((tmp_path / f"BENCH_{layer}.json").read_text())["runs"]["smoke"]
            for layer in ("validate", "simulator", "frechet", "protocol")}
    assert (rows["validate"]["roads"], rows["validate"]["overlap_roads"]) == (500, 41)
    assert (rows["simulator"]["roads"], rows["simulator"]["steps"],
            rows["simulator"]["oob_evaluations"]) == (84, 20758, 20842)
    assert rows["frechet"]["accepted"] == 9
    assert (rows["protocol"]["roads"], rows["protocol"]["mismatches"]) == (50, 0)
