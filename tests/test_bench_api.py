"""The benchmark's calls into tokenweave, run once per workload.

perfbench/workloads.py drives the program only through its public API, so an
API change that breaks the benchmark shows up here: each workload sets up at
seed 0, runs operation 0, and its own output checks must pass.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_checks(name):
    w = workloads.WORKLOADS[name](seed=0)
    out = w.op(0)
    assert w.check(0, out) == []
    assert isinstance(w.fingerprint(out), bytes)
    if name == "train":
        # the final check needs a falling loss over many steps; the traced
        # run's model.grad.rows reads len(ex.tokens), one row per pattern step
        assert [len(ex.tokens) for ex in w.batch] == [w.pattern.S] * w.B
    else:
        assert w.final_check(out, out) == []
