"""The CLI contract, fuzzed with documents drawn from the config schema itself.

Valid ``run``, ``sweep`` and divergence documents are drawn key by key from
the schema's tables in :mod:`jeffreys.cli`, so a new section, key or
strategy kind is fuzzed with no edit here.  A mutated document changes one
thing in a valid one: a value becomes a wrong type, a bool, NaN, +-inf, a
size of 0 or 1, or out of range; a key is dropped or an unknown key added;
a kind, a check or the seed list is replaced by one that cannot be.  A
pushed-apart document sets a pair of numeric keys, of one strategy or both
predictors' ``gamma``, to two different ends of the float range.
Whatever the document, ``cli.main`` returns 0, 1 or 2 within a time bound,
raises nothing, and prints ``config error:`` when it returns 2.

Drawn sizes stay small (horizons at most 20, grid sizes at most 33, or the
default 257 when absent), so no document allocates a large grid or plays a
long run.
"""

import contextlib
import copy
import io
import json
import math
import os
import signal
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jeffreys import GameKind
from jeffreys.cli import DIVERGENCE, REQUIRED, RUN, SWEEP, main
from jeffreys.errors import ConfigError
from jeffreys.protocol import CHECKS

FUZZ = settings(max_examples=200, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])
TIME_BOUND_S = 10

# values a scalar key is drawn from, by key name: each draw keeps the ones
# the key's own check accepts, so these only steer toward runs that play
PALETTE = [0.0, 0.1, 0.3, 0.5, 0.9, 1.0, -0.5, -1.0, 2.0, 0, 1, 2, 3, "x",
           [0.5, 0.5], [0.8, 0.2], [0.2, 0.3, 0.5]]
HINTS = {
    "spec_version": [1],
    "kind": [kind.value for kind in GameKind],
    "horizon": [1, 2, 5, 20],
    "seed": [0, 1, 7],
    "seeds": [0, 1, 7],
    "grid_size": [2, 3, 9, 33],
    "m": [2, 3],
    "k_max": [1, 3, 20],
    "checks": list(CHECKS),
    "g1": [-1.0, 0.0, 0.5, 1.0, "0.5,0.5", "0.2,0.8", "0.2,0.3,0.5"],
    "g2": [-1.0, 0.0, 0.5, 1.0, "0.5,0.5", "0.2,0.8", "0.2,0.3,0.5"],
    "tol": [1e-3, 1e-2, 0.1],
    "trace_csv": ["out.csv"],
    "report_json": ["out.json"],
    "file": ["outcomes.txt"],
    "alpha": [-0.8, 0.0, 0.5],
    "epsilon": [1e-3, 0.1],
    "c": [0.1, 0.4],
    "priors": [0.5, 0.25],
}
OUTCOMES_FILE = "0\n1\n0.5\n1\n"

# what a mutation puts in place of a value; sizes take only small ones
MUTANTS = ["x", "", True, False, None, math.nan, math.inf, -math.inf, [], {}, [True],
           ["x"], 0, 1, -1, 2.5, -2.0, 1e300, 10 ** 400]
SIZE_KEYS = ("horizon", "grid_size", "m", "k_max")
SIZE_MUTANTS = ["x", True, None, math.nan, math.inf, -math.inf, [], 0, 1, -1, 2.5]
# (role, kind, key, key): two numeric keys pushed apart at once; the role
# "predictors" gives the first key to predictor1 and the second to predictor2
JOINT = [("nature", "iid_uniform", "lo", "hi"), ("predictors", "constant", "gamma", "gamma"),
         ("predictor1", "drift", "gamma0", "delta"),
         ("predictor2", "noisy_target", "target", "sigma")]
EXTREMES = [1e308, -1e308, 5e-324, -5e-324]


def _accepts(check, value, key) -> bool:
    try:
        check(value, key)
    except ConfigError:
        return False
    return True


def _draw_value(data, check, key):
    if hasattr(check, "table"):
        return _draw_section(data, check.table)
    if hasattr(check, "kinds"):
        kind = data.draw(st.sampled_from(sorted(check.kinds)))
        params = _draw_section(data, check.kinds[kind].table)
        return {"kind": kind, "params": params} if params else {"kind": kind}
    if hasattr(check, "item"):
        size = data.draw(st.integers(0 if check.empty else 1, 3))
        return [_draw_value(data, check.item, key) for _ in range(size)]
    return data.draw(st.sampled_from([v for v in HINTS.get(key, PALETTE)
                                      if _accepts(check, v, key)]))


def _draw_section(data, table) -> dict:
    return {key: _draw_value(data, check, key) for key, (check, default) in table.items()
            if default is REQUIRED or data.draw(st.booleans())}


def _places(doc) -> list:
    # every (container, key) in the document, nested ones too
    found = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in list(items):
        found.append((doc, key))
        if isinstance(value, (dict, list)):
            found.extend(_places(value))
    return found


def _push_apart(data, doc, pair) -> None:
    # the keys of a JOINT pair at two different EXTREMES
    role, kind, a, b = pair
    x = data.draw(st.sampled_from(EXTREMES))
    y = data.draw(st.sampled_from([e for e in EXTREMES if e != x]))
    if role == "predictors":
        doc["predictor1"] = {"kind": kind, "params": {a: x}}
        doc["predictor2"] = {"kind": kind, "params": {b: y}}
    else:
        doc[role] = {"kind": kind, "params": {a: x, b: y}}


def _mutate(data, doc) -> None:
    how = data.draw(st.sampled_from(["replace", "drop", "unknown_key", "unknown_kind",
                                     "unknown_check", "empty_seeds"]))
    places = _places(doc)
    if how == "replace":
        node, key = data.draw(st.sampled_from(places))
        node[key] = data.draw(st.sampled_from(SIZE_MUTANTS if key in SIZE_KEYS else MUTANTS))
    elif how == "drop":
        node, key = data.draw(st.sampled_from(places))
        del node[key]
    elif how == "unknown_key":
        sections = [doc] + [node[key] for node, key in places if isinstance(node[key], dict)]
        data.draw(st.sampled_from(sections))["bogus"] = 1
    elif how == "unknown_kind":
        described = [node[key] for node, key in places
                     if isinstance(node[key], dict) and "kind" in node[key]]
        data.draw(st.sampled_from(described))["kind"] = "bogus"
    elif how == "unknown_check":
        doc["checks"] = doc.get("checks", []) + ["bogus"]
    else:
        doc["seeds"] = []


class _Hang(Exception):
    pass


def _alarm(signum, frame):
    raise _Hang(f"cli.main ran past {TIME_BOUND_S} s")


def _run_cli(command: str, doc: dict, flags: bool) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # relative output paths in the document land here
        try:
            with open("outcomes.txt", "w", encoding="utf-8") as fh:
                fh.write(OUTCOMES_FILE)
            with open("cfg.json", "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            argv = [command, "cfg.json"]
            if flags:  # else the document's outputs, or their defaults, in this directory
                argv += ["--report-out", "report.json"]
                argv += ["--trace-out", "trace.csv"] if command == "run" else []
            out, err = io.StringIO(), io.StringIO()
            previous = signal.signal(signal.SIGALRM, _alarm)
            signal.setitimer(signal.ITIMER_REAL, TIME_BOUND_S)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), (code, doc)
    if code == 2:
        assert "config error:" in err.getvalue(), (err.getvalue(), doc)


def _fuzz(data, command: str, document: dict) -> None:
    doc = copy.deepcopy(_draw_section(data, document.table))  # drawn lists are the palette's
    if data.draw(st.booleans()):
        _mutate(data, doc)
    _run_cli(command, doc, data.draw(st.booleans()))


@pytest.mark.filterwarnings("ignore:run truncated")
@FUZZ
@given(data=st.data())
def test_run_documents_keep_the_cli_contract(data):
    _fuzz(data, "run", RUN)


@pytest.mark.filterwarnings("ignore:run truncated")
@FUZZ
@given(data=st.data())
def test_sweep_documents_keep_the_cli_contract(data):
    _fuzz(data, "sweep", SWEEP)


@pytest.mark.filterwarnings("ignore:run truncated")
@FUZZ
@given(data=st.data())
def test_divergence_documents_keep_the_cli_contract(data):
    _fuzz(data, "run", DIVERGENCE)


@pytest.mark.filterwarnings("ignore:run truncated")
@pytest.mark.parametrize("pair", JOINT, ids=[f"{kind}-{a}-{b}" for _, kind, a, b in JOINT])
@pytest.mark.parametrize("command,document", [("run", RUN), ("sweep", SWEEP)],
                         ids=["run", "sweep"])
@settings(FUZZ, max_examples=50)
@given(data=st.data())
def test_joint_extremes_keep_the_cli_contract(command, document, pair, data):
    doc = copy.deepcopy(_draw_section(data, document.table))
    _push_apart(data, doc, pair)
    _run_cli(command, doc, data.draw(st.booleans()))
