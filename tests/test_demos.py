"""Every demo script runs to completion against the tree under test."""
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import roadsearch

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a copy in tmp_path writes its out/ there; PYTHONPATH points at the
    # package this process imported, as in test_module_invocation
    script = shutil.copy(demo, tmp_path)
    src_root = Path(roadsearch.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        timeout=300, cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(src_root)},
    )
    assert proc.returncode == 0, proc.stderr
