"""One benchmark process: set up one workload, run its ops, print one JSON line.

``run.py`` starts a fresh process of this script for every sample, with
BLAS/OpenMP pinned to one thread, so module-level caches never carry over
between samples and set-up costs what a CLI user pays::

    python3 perfbench/worker.py WORKLOAD SEED MODE [SECONDS]

Modes:

* ``setup``: set up, print ``READY``, time the reference task a few times
  and report those times.  One set-up time sample.
* ``measure``: set up, print ``READY``, run the probes and one warm-up
  cycle, then run whole cycles of ops, each op after one call of
  ``speed.reference``, until ``SECONDS`` have passed; report the
  end-to-end figures.
* ``fixed``: set up and run cycle 0 once, untraced: the reference time for
  the tracing overhead.
* ``traced``: install the tracer, set up and run cycle 0 once; report the
  per-layer figures and write the spans to ``.perfbench/``.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import speed  # noqa: E402
import workloads as W  # noqa: E402  (imports jeffreys)
from tracer import Tracer  # noqa: E402

SCEPTIC_LEVELS = ("level1", "level2", "level3", "aggregating")
SETUP_REF_CALLS = 30  # reference calls that gauge the speed of a set-up
TAIL_BEYOND = 10     # the tail percentile keeps at least this many samples above it


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def run_op(op) -> dict:
    error = None
    known_defect = op.known_defect
    steps = 0
    signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
    start = time.perf_counter()
    try:
        steps = op.run()
    except DeadlineExceeded:
        error = f"deadline of {op.deadline_s:g} s exceeded"
    except W.WrongAnswer as exc:
        error = f"wrong answer: {exc}"
        known_defect = known_defect or exc.known_defect
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"kind": op.kind, "s": time.perf_counter() - start, "steps": steps,
            "error": error, "known_defect": known_defect}


def _tally(ctx, results) -> dict:
    """attempted/failed over the set-up checks and ops.  A wrong answer
    that reproduces a documented defect is counted per defect, apart from
    ``failed``; any other failure is unexpected and counts as failed."""
    unexpected = [f"set-up check failed: {label}" for label, ok in ctx.setup_checks if not ok]
    known: dict = {}
    for r in results:
        if r["error"] and r["known_defect"]:
            known[r["known_defect"]] = known.get(r["known_defect"], 0) + 1
        elif r["error"]:
            unexpected.append(f"{r['kind']}: {r['error']}")
    return {"attempted": len(ctx.setup_checks) + len(results), "failed": len(unexpected),
            "unexpected": unexpected, "known_defect_failures": known}


def _tail(durations_ms: list) -> dict:
    d = sorted(durations_ms)
    n = len(d)
    if n > TAIL_BEYOND:
        return {"op_ms_tail": d[n - TAIL_BEYOND - 1], "tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
                "samples": n}
    # too few samples for a tail: report the maximum
    return {"op_ms_tail": d[-1], "tail_percentile": 100.0, "samples": n}


def measure(workload, ctx, seconds: float) -> dict:
    probes = [run_op(op) for op in workload.probes(ctx)]
    # one untimed cycle warms lazy caches; its answers are still checked
    warmup = [run_op(op) for op in workload.cycle(ctx, 0)]
    # whole cycles only, so every run sees the same mix of op kinds and the
    # latency percentiles fall on the same kinds from run to run
    window = []
    ref_s = []
    cycles = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for op in workload.cycle(ctx, cycles + 1):
            ref_s.append(speed.reference(workload.grid_reference))
            window.append(run_op(op))
        cycles += 1
    elapsed = time.perf_counter() - start
    # each op's time at the reference speed (see speed.py)
    scale = [speed.REF_NOMINAL_S / r for r in speed.smoothed(ref_s)]
    scaled = [r["s"] * f for r, f in zip(window, scale)]
    # Every cycle runs the same op slots with fresh inputs; a slot's time
    # is its median over the window's cycles.
    slots = len(window) // cycles

    def slot_medians(times):
        return [statistics.median(times[i * slots + j] for i in range(cycles))
                for j in range(slots)]
    typical = slot_medians(scaled)
    steps_per_cycle = sum(r["steps"] for r in window) / cycles
    out = {"ops_per_s": slots / sum(typical), "seed_steps_per_s": steps_per_cycle / sum(typical),
           "op_ms_p50": 1e3 * statistics.median(typical),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "raw_ops_per_s": slots / sum(slot_medians([r["s"] for r in window])),
           "machine_slowdown": statistics.median(ref_s) / speed.REF_NOMINAL_S,
           "window_s": elapsed, "cycles": cycles}
    out.update(_tail([1e3 * t for t in scaled]))
    by_kind: dict = {}
    for r in window:
        entry = by_kind.setdefault(r["kind"], {"ops": 0, "failed": 0, "s": 0.0})
        entry["ops"] += 1
        entry["failed"] += bool(r["error"])
        entry["s"] += r["s"]
    out["by_kind"] = by_kind
    out.update(_tally(ctx, probes + warmup + window))
    out["probes"] = [{"kind": r["kind"], "defect": r["known_defect"], "error": r["error"]}
                     for r in probes]
    return out


def layer_metrics(tracer: Tracer) -> tuple:
    """(per-layer metrics, exact counts) from the recorded spans."""
    summary = tracer.summary()
    spans = summary["spans"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def per_call(name, scale):
        return ratio(total(name), calls(name), scale)

    steps = tracer.steps
    validate = calls("games.validate.validate_prediction") + calls("games.validate.validate_outcome")
    counts = {
        "protocol.steps": steps,
        "aggregating.aa_observe.calls": calls("aggregating.aa_observe"),
        "divergence.numeric.calls": calls("divergence.numeric"),
        "divergence.oracle_calls_per_query": ratio(summary["membership_in_divergence"],
                                                   calls("divergence.numeric")),
        "divergence.bisection_iterations": summary["membership_in_bisection"],
        "sceptics.level2_numeric.gap_searches_per_step": ratio(
            summary["gap_search_in_level2_numeric"], calls("sceptics.level2_numeric")),
        "games.membership.calls": calls("games.membership"),
        "games.validate.calls_per_step": ratio(validate, steps),
        "games.mixability.calls": calls("games.mixability"),
        "serialize.rows": tracer.csv_rows,
        "serialize.bytes_written": tracer.csv_bytes,
    }
    metrics = dict(counts)
    del metrics["protocol.steps"]
    metrics.update({
        "protocol.self_us_per_step": ratio(spans.get("protocol.run", {}).get("self_s", 0.0),
                                           steps, 1e6),
        "protocol.verify_run.ms": per_call("protocol.verify_run", 1e3),
        "protocol.classify_disjuncts.ms": per_call("protocol.classify_disjuncts", 1e3),
        "players.predict.us_per_call": per_call("players.predict", 1e6),
        "players.outcome.us_per_call": per_call("players.outcome", 1e6),
        "sceptics.level2_inequality_slack.ms": per_call("sceptics.level2_inequality_slack", 1e3),
        "aggregating.aa_observe.us_per_call": per_call("aggregating.aa_observe", 1e6),
        "divergence.numeric.ms_per_call": per_call("divergence.numeric", 1e3),
        "games.membership.us_per_call": per_call("games.membership", 1e6),
        "games.mixability.s": total("games.mixability"),
        "serialize.write_trace_csv.s": total("serialize.write_trace_csv"),
        "serialize.us_per_row": ratio(total("serialize.write_trace_csv"), tracer.csv_rows, 1e6),
        "cli.main.self_s": ratio(spans.get("cli.main", {}).get("self_s", 0.0), calls("cli.main")),
    })
    for level in SCEPTIC_LEVELS:
        for method in ("predict", "observe"):
            metrics[f"sceptics.{level}.{method}.us_per_call"] = per_call(
                f"sceptics.{level}.{method}", 1e6)
    return metrics, counts


def main(argv) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    workload = W.WORKLOADS[name]
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install(extra_namespaces=[W])
    ctx = workload.setup(seed)
    print("READY", flush=True)
    try:
        if mode == "setup":
            # after READY, so it adds nothing to the set-up time
            out = {"ref_s": [speed.reference(workload.grid_reference)
                             for _ in range(SETUP_REF_CALLS)]}
        elif mode == "measure":
            out = measure(workload, ctx, float(argv[3]))
        else:
            results = []
            for op_id, op in enumerate(workload.cycle(ctx, 0)):
                if tracer is not None:
                    tracer.op_id = op_id
                results.append(run_op(op))
            out = {"work_s": time.perf_counter() - T0}
            out.update(_tally(ctx, results))
            if tracer is not None:
                out["layers"], out["counts"] = layer_metrics(tracer)
                os.makedirs(W.SCRATCH, exist_ok=True)
                tracer.save(os.path.join(W.SCRATCH, f"spans-{name}-{argv[3]}.npz"))
    finally:
        workload.cleanup(ctx)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
