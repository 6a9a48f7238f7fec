"""The benchmark's workloads run and pass their own output checks, so a
change that breaks a workload or its check fails here, before a benchmark
run reports the workload's outputs as incorrect."""

import importlib.util
import warnings
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads():
    """bench/workloads.py, imported from its path as the benchmark worker
    imports it."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ("mc_curve", "analytic_sweep", "market_sessions", "market_replay"))
def test_benchmark_workload_passes_its_checks(name, tmp_path):
    workload = load_workloads().WORKLOADS[name](seed=5, workdir=str(tmp_path))
    with warnings.catch_warnings():
        # market simulate reports its sessions' clipped beliefs in a warning.
        warnings.filterwarnings("ignore", "belief density clipped", RuntimeWarning)
        for i in range(3):
            args = workload.prepare(i)
            ok, _ = workload.check(args, workload.run(args))
            assert ok, f"{name} op {i} failed its output check"
        controls = workload.controls()
    assert all(ok for _, ok in controls), controls
