"""Behaviour lock: the bundled run scenarios' outputs, pinned byte for byte.

Each run scenario is played at its full horizon through the CLI, and the
SHA-256 of its trace CSV and of its report JSON must match the hashes
recorded here.  A change that alters any of them changes what the library
computes; such a change must say why, and re-record the hashes on purpose.
"""

import contextlib
import hashlib
import io
import os

import pytest

from jeffreys.cli import main

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

# scenario -> (trace CSV SHA-256, report JSON SHA-256)
LOCKED = {
    "prop6_square": ("d4b1475b57cd5855e4ea866764b2f6b9f79513832d6ae8edea42255f99d1a298",
                     "30263b6092aa3ebcd872a2c4f4d26c0a43c5831e290b3dd43d1ad4db119bdb5d"),
    "prop6_logloss": ("6075198b02541875c215ac6abe55a957bcce3ea45cffa0928080af5d688afd18",
                      "aed35b84162fb854cb640878000a9ad06806cc559b7bc17703361e367096e0ad"),
    "prop5_lift": ("b1d29545531882e536ce4d055bc32f15f49b38e49f88695b85f209559ffbaec1",
                   "bb253a4e07af7446ff718c49f4a38125fcdfa49e78f966ffa000eb1a4ada943f"),
    "prop1_absolute": ("3c074bdcbe3fa8d05a014a3661618c8b1ab2b1e38bdfa2926200523eded0d168",
                       "f85eadc2e9f17900be944e30f2b31efddd3d13121c22cafef929e68739fdbd42"),
    "prop4_counterexample": ("99be0972d28a413044a38bf8d7a597afb2b4819c84b1878660da6dd49d26edaf",
                             "bb52eb994a38a6aa467bf8a757c207e2930ccff53e7adf94cf3c1899aa78ebdf"),
}


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(LOCKED))
def test_scenario_outputs_are_locked(name, tmp_path):
    trace_path, report_path = tmp_path / "trace.csv", tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", os.path.join(SCENARIO_DIR, name + ".json"),
                     "--trace-out", str(trace_path), "--report-out", str(report_path)])
    assert code == 0
    assert (_sha256(trace_path), _sha256(report_path)) == LOCKED[name]
