"""Smoke test of the demos: each script runs to completion on its own."""

import os
from pathlib import Path
import re
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def run_demo(path, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, tmp_path):
    proc = run_demo(path, tmp_path)
    assert proc.returncode == 0, proc.stderr
    if path.name == "05_full_pipeline.py":
        # The only caller that shares a PredictionCache across calls: the
        # sweep and the ablation must reuse every prediction of the first
        # run, 10 cases x 5 members x 5 views.
        counts = re.search(r"cache: (\d+) hits, (\d+) predictions computed",
                           proc.stdout)
        assert counts is not None, proc.stdout
        assert counts.groups() == ("500", "250")
