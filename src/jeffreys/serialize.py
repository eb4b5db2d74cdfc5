"""Round-trip-safe trace and report serialization.

Numbers are written with 17 significant digits so a parsed trace is
bit-identical to the values that produced it; re-running a scenario with
the same seed therefore yields a byte-identical CSV.
"""

from __future__ import annotations

import json
from typing import IO

import numpy as np

from .protocol import RunReport, Trace

CSV_HEADER = ("n,gamma1,gamma2,gamma_sceptic,omega,"
              "loss1,loss2,loss_sceptic,cum1,cum2,cum_sceptic,gap,divergence_term")


def format_number(x) -> str:
    return "%.17g" % float(x)


def _format_move(value) -> str:
    # log-loss predictions are probability vectors: semicolon-joined
    if isinstance(value, np.ndarray):
        return ";".join(format_number(v) for v in value)
    return format_number(value)


# a row's eight loss, sum, gap and divergence columns, in format_number's format
_NUMBERS = ",".join(["%.17g"] * 8)


def trace_to_csv(trace: Trace, stream: IO[str]) -> None:
    stream.write(CSV_HEADER + "\n")
    moves = zip(trace.gamma1, trace.gamma2, trace.gamma_sceptic, trace.omega)
    numbers = zip(trace.loss1, trace.loss2, trace.loss_sceptic, trace.cum1, trace.cum2,
                  trace.cum_sceptic, trace.gap, trace.divergence_term)
    for n, (move, values) in enumerate(zip(moves, numbers), 1):
        stream.write(f"{n},{','.join(map(_format_move, move))},{_NUMBERS % values}\n")


def trace_to_csv_string(trace: Trace) -> str:
    import io
    buf = io.StringIO()
    trace_to_csv(trace, buf)
    return buf.getvalue()


def write_trace_csv(trace: Trace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        trace_to_csv(trace, fh)


def write_report_json(report: RunReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
