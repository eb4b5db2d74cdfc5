"""The benchmark harness's traced mode still runs against the library.

``perfbench/tracer.py`` wraps library functions and the sceptic classes
(``Level3Sceptic``, ``AggregatingSceptic`` among them) by name, and the
workloads read trace columns and report fields, so a change to those names,
to the methods it wraps or to the record's types shows up here, in the
suite, and not first in a benchmark run.  Each case plays one traced cycle
of a workload in a fresh process, as ``perfbench/run.py --trace 1`` does.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


@pytest.mark.parametrize("workload", ["level2_sweep", "pool_aggregation", "numeric_oracle",
                                      "scenario_runs"])
def test_traced_benchmark_cycle_runs(workload):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"), workload, "0", "traced",
         "1"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["unexpected"]
    if workload in ("pool_aggregation", "scenario_runs"):  # the two that play level 3
        # its lifts play columns even with the tracer's wrappers set on the
        # class: no per-step lift method runs
        assert result["layers"]["sceptics.level3.predict.us_per_call"] == 0.0
    if workload == "pool_aggregation":
        # its aggregating pools play columns even with the tracer's wrappers
        # set on their classes: no per-step pool method or aa_observe runs
        assert result["layers"]["aggregating.aa_observe.calls"] == 0
        assert result["layers"]["sceptics.aggregating.predict.us_per_call"] == 0.0
