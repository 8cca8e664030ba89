"""The benchmark session runs end to end on every workload, shrunk.

``perfbench/session.py`` drives the library through its public names; a
rename, or a library call that fails on an edge the full-size run rarely
meets (such as no certified sample to check), would break the benchmark
without failing any other test. Each workload runs here with two steps
per task, a two-radius grid and tiny attack and oracle sizes.
"""

import dataclasses
import importlib.util
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # session.py imports its sibling as the top-level module ``workloads``.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


class NullTracer:
    def span(self, _name):
        return nullcontext()

    def paused(self):
        return nullcontext()


@pytest.mark.parametrize("name", ["blobs_mlp", "digits_mlp", "digits_conv"])
def test_shrunk_session_passes_its_checks(name, tmp_path, monkeypatch):
    workloads = load("workloads", monkeypatch)
    session = load("session", monkeypatch)
    workload = dataclasses.replace(
        workloads.WORKLOADS[name], steps=2, grid=(0.0, 1.0),
        attacked_per_task=5, oracle_boxes_per_task=1, oracle_samples=20)
    checks = session.Checks()
    result = session.run_session(workload, 1, tmp_path, NullTracer(), checks,
                                 verify=True)
    assert result is not None
    assert checks.failed == 0, checks.notes
    assert checks.attempted > 0
