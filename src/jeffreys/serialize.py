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

# the trace's columns in CSV order, after the step number; the first three
# are the moves
CSV_COLUMNS = ("gamma1", "gamma2", "gamma_sceptic", "omega", "loss1", "loss2", "loss_sceptic",
               "cum1", "cum2", "cum_sceptic", "gap", "divergence_term")
CSV_HEADER = ",".join(("n",) + CSV_COLUMNS)


# rows formatted by one % over a block's template, and written at once; the
# block's columns are the only copy of the trace the writer makes
_BLOCK_ROWS = 1000


def trace_to_csv(trace: Trace, stream: IO[str]) -> None:
    """Write the trace as CSV: each number in ``%.17g``, the moves of a
    log-loss game as their probabilities joined by ``;``."""
    stream.write(CSV_HEADER + "\n")
    move = ";".join(["%.17g"] * int(np.prod(trace.game.prediction_shape)))
    row = ",".join(["%d"] + [move] * 3 + ["%.17g"] * (len(CSV_COLUMNS) - 3)) + "\n"
    columns = [getattr(trace, name) for name in CSV_COLUMNS]
    for start in range(0, len(trace), _BLOCK_ROWS):
        end = min(start + _BLOCK_ROWS, len(trace))
        block = np.column_stack([np.arange(start + 1, end + 1)]
                                + [col[start:end] for col in columns])
        stream.write((row * (end - start)) % tuple(block.ravel().tolist()))


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
