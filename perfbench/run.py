"""Benchmark harness for jeffreys.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root (or any checkout of it).  Each workload runs
in fresh single-threaded worker processes (``worker.py``); the metric
names, units and workloads come from ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median,
over several fresh processes, of the time from starting the process to the
workload being ready; the other metrics come from one process that runs
the workload's ops for ``--seconds``.  Every time is scaled to the
reference speed of ``speed.py``, so that other guests slowing the host
for a whole run do not show as a slower program.

``--trace 1`` reports the per-layer metrics from a traced run of one fixed
cycle of ops, made twice to check that every exact count repeats, plus
``trace.overhead_ratio``: traced time over the untraced time of the same
cycle in another process.

Every op's answer is checked; the last line printed is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed``
counts the ops that fail for any reason other than a documented defect of
the library; those make ``correct`` false, as does an exact count that
differs between the two traced runs.  Ops that reproduce a documented
defect are listed by defect on the lines above.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(*args) -> tuple:
    """Run one worker; return (seconds from start to READY, its JSON line)."""
    cmd = [sys.executable, WORKER, *map(str, args)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                            text=True)
    killer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    killer.start()
    ready = None
    last = None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise WorkerFailed(f"{' '.join(cmd[1:])}: exit code {code}")
    return ready, (json.loads(last) if last else None)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def setup_time(workload: str, seed: int) -> tuple:
    """(setup_s, the set-up samples as measured).

    ``setup_s`` is the median sample, scaled to the reference speed by the
    mean reference time of the set-up workers.  Each worker times the
    reference right after READY: the host switches between speeds within
    milliseconds, so one sample is not scaled by the reference next to it,
    but the mean over all of them tracks the host's speed over the run.
    """
    samples, refs = [], []
    for _ in range(SETUP_SAMPLES):
        ready, out = spawn(workload, seed, "setup")
        samples.append(ready)
        refs.extend(out["ref_s"])
    scale = speed.REF_NOMINAL_S / statistics.fmean(refs)
    return statistics.median(samples) * scale, samples


def end_to_end(workload: str, seed: int, seconds: float, spec: dict) -> dict:
    setup_s, samples = setup_time(workload, seed)
    out = spawn(workload, seed, "measure", seconds)[1]
    out["setup_s"] = setup_s
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    out["metrics"] = {name: _metric(out[name], unit) for name, unit in units.items()}
    known = sum(out["known_defect_failures"].values())
    failed_ratio = (out["failed"] + known) / out["attempted"]
    print(f"[{workload}] seed {seed}: {out['attempted']} ops attempted, {out['failed']} failed, "
          f"{known} reproduce known defects (ops_failed_ratio {failed_ratio:.4g} counts both); "
          f"op_ms_tail is p{out['tail_percentile']:.1f} "
          f"of {out['samples']} samples; {out['cycles']} cycles in {out['window_s']:.2f} s")
    print(f"  machine slowdown {out['machine_slowdown']:.3f}x (median reference time over "
          f"its nominal); ops_per_s as measured {out['raw_ops_per_s']:.4g}")
    print(f"  set-up samples as measured {', '.join(f'{raw:.3f}' for raw in samples)} s")
    for kind, entry in sorted(out["by_kind"].items()):
        print(f"  {kind}: {entry['ops']} ops, {entry['failed']} failed, "
              f"{1e3 * entry['s'] / entry['ops']:.2f} ms mean as measured")
    for probe in out["probes"]:
        status = f"FAILED ({probe['error']})" if probe["error"] else "passed"
        defect = f" of known defect '{probe['defect']}'" if probe["defect"] else ""
        print(f"  probe {probe['kind']}{defect}: {status}")
    for defect, count in out["known_defect_failures"].items():
        print(f"  KNOWN DEFECT reproduced by {count} ops (not counted in failed): {defect}")
    return out


def per_layer(workload: str, seed: int, spec: dict) -> dict:
    # alternate untraced and traced processes, so that a slow stretch of the
    # machine weighs on both sides of the overhead ratio
    plain, traced = [], []
    for tag in (1, 2):
        plain.append(spawn(workload, seed, "fixed", tag)[1])
        traced.append(spawn(workload, seed, "traced", tag)[1])
    first = traced[0]
    differing = sorted(k for k, v in first["counts"].items() if traced[1]["counts"][k] != v)
    values = dict(first["layers"])
    values["trace.overhead_ratio"] = (sum(t["work_s"] for t in traced)
                                      / sum(p["work_s"] for p in plain))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    missing = sorted(set(units) - set(values))
    if missing:
        raise WorkerFailed(f"per-layer metrics not computed: {missing}")
    out = {"metrics": {name: _metric(values[name], unit) for name, unit in units.items()}}
    runs = plain + traced
    out["attempted"] = sum(r["attempted"] for r in runs)
    out["failed"] = sum(r["failed"] for r in runs)
    out["unexpected"] = [u for r in runs for u in r["unexpected"]]
    if differing:
        out["unexpected"].append(f"exact counts differ between same-seed runs: {differing}")
    def times(runs):
        return ", ".join(f"{r['work_s']:.2f}" for r in runs)
    print(f"[{workload}] seed {seed}: traced runs {times(traced)} s, untraced {times(plain)} s; "
          f"exact counts {json.dumps(first['counts'])}")
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "jeffreys")):
        print("no jeffreys sources under src/ in this checkout", file=sys.stderr)
        return 2

    import numpy
    print(f"environment: nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {numpy.__version__}")
    selected = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for workload in selected:
            results[workload] = (per_layer(workload, args.seed, spec) if args.trace
                                 else end_to_end(workload, args.seed, args.seconds, spec))
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    unexpected = [f"{w}: {u}" for w, r in results.items() for u in r["unexpected"]]
    for line in unexpected:
        print(f"UNEXPECTED FAILURE {line}")
    if len(selected) == 1:
        metrics = results[selected[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": not unexpected,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
