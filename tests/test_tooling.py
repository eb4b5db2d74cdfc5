"""The benchmark harness's traced mode still runs against the library.

``perfbench/tracer.py`` wraps library functions and the sceptic classes
(``Level3Sceptic``, ``AggregatingSceptic`` among them) by name, and the
workloads read trace columns and report fields, so a change to those names,
to the methods it wraps or to the record's types shows up here, in the
suite, and not first in a benchmark run.  Each case plays one traced cycle
of a workload in a fresh process, as ``perfbench/run.py --trace 1`` does.
The tracer skips a name it does not find, so its lists are also checked
against the library: a renamed function would otherwise read 0 unnoticed.
The package's numpy floor is checked against what the library calls.
"""

import importlib
import importlib.util
import json
import os
import re
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
    if workload == "numeric_oracle":
        # its numeric level-2 runs take one gap search a step, and its
        # divergence queries reach the gap search through the traced entries
        assert result["layers"]["sceptics.level2_numeric.gap_searches_per_step"] == 1.0
        assert result["layers"]["divergence.numeric.calls"] > 0
    if workload == "pool_aggregation":
        # its aggregating pools play columns even with the tracer's wrappers
        # set on their classes: no per-step pool method runs (the library has
        # no aa_observe, so its count reads 0 too)
        assert result["layers"]["aggregating.aa_observe.calls"] == 0
        assert result["layers"]["sceptics.aggregating.predict.us_per_call"] == 0.0


# names the tracer lists that the library no longer has: the flip search of
# the numeric divergences, gone with bisection, and the pool's anchored decay
GONE = {("jeffreys.divergence", "_bisect_flip"), ("jeffreys.aggregating", "aa_observe")}


def _tracer_lists():
    # perfbench/tracer.py's lists of what it wraps, read without installing it
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FUNCTIONS, module.METHODS, module.PLAYER_METHODS


def test_every_name_the_tracer_wraps_resolves_in_the_library():
    functions, methods, player_methods = _tracer_lists()
    missing = {(module, name) for module, name, _ in functions
               if not callable(getattr(importlib.import_module(module), name, None))}
    assert missing <= GONE
    for module, cls, _, names in methods:
        owner = getattr(importlib.import_module(module), cls)
        assert [name for name in names if not callable(getattr(owner, name, None))] == [], cls
    players = importlib.import_module("jeffreys.players")
    assert [name for name in player_methods
            if not any(callable(getattr(base, name, None))
                       for base in (players.PredictorStrategy, players.NatureStrategy))] == []


def test_the_numpy_floor_has_generator_spawn():
    # AggregatingSceptic.reset draws one stream per expert with
    # Generator.spawn, which numpy added in 1.25
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        floor = re.search(r'"numpy>=([0-9.]+)"', fh.read())
    assert floor is not None
    assert tuple(int(part) for part in floor.group(1).split(".")) >= (1, 25)
