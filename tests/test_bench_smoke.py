"""Every benchmark workload runs one operation with the gates that
perfbench/run.py applies: no operation failed and `finish` reports no
failure. A change that would end a benchmark run as failed or incorrect
fails here first."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    # the workloads import their sibling `synth` by name, as run.py does
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads").WORKLOADS
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", ["train-published", "train-toy", "infer-cli", "eval-cli"])
def test_one_operation_passes_the_gates(workloads, name, tmp_path):
    workload = workloads[name]
    state = workload.setup(5, str(tmp_path))
    workload.warm_up(state)
    phase = workload.run(state, 0, None)
    _, failures = workload.finish(state)
    assert phase.attempted >= 1 and phase.failed == 0, phase.errors
    assert failures == []


def test_every_workload_is_covered(workloads):
    assert sorted(workloads) == ["eval-cli", "infer-cli", "train-published", "train-toy"]
