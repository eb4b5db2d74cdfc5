"""Round-trip-safe trace and report serialization.

Numbers are written with 17 significant digits so a parsed trace is
bit-identical to the values that produced it; re-running a scenario with
the same seed therefore yields a byte-identical CSV.

The trace CSV is written in blocks of rows, each formatted by one ``%``
over the block's row template.  Most columns of a trace repeat a few
values (the moves, outcomes and losses of constant players), so within a
block a column spells each of its distinct values once and fills them into
``%s`` slots; a column whose values are mostly distinct (the cumulative
losses, say) keeps its ``%.17g`` slot.  Either way each number reads as
``%.17g`` spells it: the bytes are the same as formatting value by value.
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


# a block's rows are formatted by one % and written at once; the block's
# columns are the only copy of the trace the writer makes
_BLOCK_ROWS = 1000


def _columns(block: np.ndarray):
    """Each row of ``block`` as a column of the CSV: its ``%`` slot and its
    cells.  A column with at most half its values distinct spells each
    distinct value once, in ``%.17g``, for a ``%s`` slot; the others keep a
    ``%.17g`` slot.  Values are told apart by their bits, not by ``==``,
    which merges ``0.0`` and ``-0.0``: they print differently."""
    bits = block.view(np.uint64)
    ordered = np.sort(bits, axis=1)
    first = np.ones(bits.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=first[:, 1:])
    for values, keys, ordered_keys, new in zip(block, bits, ordered, first):
        distinct = ordered_keys[new]
        if 2 * len(distinct) > len(keys):
            yield "%.17g", values.tolist()
        else:
            spelled = np.array(["%.17g" % v for v in distinct.view(np.float64).tolist()],
                               dtype=object)
            yield "%s", spelled[np.searchsorted(distinct, keys)].tolist()


def trace_to_csv(trace: Trace, stream: IO[str]) -> None:
    """Write the trace as CSV: the header, then a row per step, its number
    and each value in ``%.17g``, the moves of a log-loss game as their
    probabilities joined by ``;``.  Each block of rows is one ``%`` over a
    row template whose slots ``_columns`` chooses column by column."""
    stream.write(CSV_HEADER + "\n")
    width = int(np.prod(trace.game.prediction_shape))
    columns = [getattr(trace, name) for name in CSV_COLUMNS]
    for start in range(0, len(trace), _BLOCK_ROWS):
        end = min(start + _BLOCK_ROWS, len(trace))
        # one row per number column: a log-loss move is ``width`` of them
        block = np.column_stack([col[start:end] for col in columns]).T
        slots = ["%d"]
        cells = [None] * ((len(block) + 1) * (end - start))
        cells[::len(block) + 1] = range(start + 1, end + 1)
        for j, (slot, column) in enumerate(_columns(block), 1):
            slots.append(slot)
            cells[j::len(block) + 1] = column
        moves = [";".join(slots[1 + i * width:1 + (i + 1) * width]) for i in range(3)]
        row = ",".join(slots[:1] + moves + slots[1 + 3 * width:]) + "\n"
        stream.write((row * (end - start)) % tuple(cells))


def trace_to_csv_string(trace: Trace) -> str:
    import io
    buf = io.StringIO()
    trace_to_csv(trace, buf)
    return buf.getvalue()


def write_trace_csv(trace: Trace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        trace_to_csv(trace, fh)


def write_report_json(report: RunReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
