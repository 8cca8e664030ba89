"""Every demo script runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_cleanly(demo, tmp_path):
    # TMPDIR keeps scratch directories a demo creates (mkdtemp) inside
    # the test's own temporary directory.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    # The suite's own warning rules (pyproject.toml): a runtime or
    # deprecation warning fails the demo, and a clean run writes nothing to
    # stderr.
    rules = ["error::RuntimeWarning", "error::DeprecationWarning",
             "error::PendingDeprecationWarning", "error::FutureWarning"]
    proc = subprocess.run([sys.executable, *(f"-W{rule}" for rule in rules), str(demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
