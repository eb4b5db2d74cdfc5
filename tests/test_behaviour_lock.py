"""Behaviour lock: the bundled run scenarios' outputs, pinned byte for byte.

Each run scenario is played at its full horizon through the CLI, and the
SHA-256 of its trace CSV and of its report JSON must match the hashes
recorded here.  The numeric path is pinned the same way: seeded gap
searches on every kind, two numeric level-2 traces, and the printed
output of the quartic divergence scenario, and so are the pool sceptics:
aggregating pools on log loss, bounded square and quartic loss, one with
an expert that is eliminated, and the level-3 lift on log loss.  A change
that alters any of them changes what the library computes; such a change
must say why, and re-record the hashes on purpose.
"""

import contextlib
import hashlib
import io
import os
import warnings

import numpy as np
import pytest

from jeffreys import (GAME_SPECS, AggregatingSceptic, ConstantPredictor,
                      DriftPredictor, IidBernoulliNature, IidUniformNature,
                      Level2Sceptic, Level3Sceptic, NoisyTargetPredictor,
                      RunningMeanPredictor, bounded_absolute_loss_game,
                      bounded_square_loss_game, game_from_descriptor,
                      log_loss_game, quartic_loss_game, run_protocol,
                      trace_to_csv_string)
from jeffreys.cli import main
from jeffreys.games import subprediction_gap, superprediction_gap

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


# ---------------------------------------------------------------------------
# the numeric path: gap searches, numeric level-2 runs and the quartic remark

def _gap_search_results() -> str:
    # seeded superprediction/subprediction gaps on every kind, around the
    # weighted mean of two canonical points shifted by a random amount
    rng = np.random.default_rng(20090714)
    rows = []
    for kind in GAME_SPECS:
        game = game_from_descriptor({"kind": kind.value, "grid_size": 65})
        lo, hi = game.prediction_grid[0], game.prediction_grid[-1]
        for _ in range(40):
            u1, u2 = rng.uniform(lo, hi, 2)
            w = rng.uniform()
            lam = game.losses_for_params(np.array([u1, u2]))
            point = w * lam[0] + (1.0 - w) * lam[1] + rng.uniform(-0.2, 0.2)
            tol = 10.0 ** -rng.integers(3, 10)
            for search in (superprediction_gap, subprediction_gap):
                u, gap = search(game, point, tol)
                rows.append(f"{kind.value} {float(u).hex()} {float(gap).hex()}")
    return "\n".join(rows)


def _numeric_level2_trace(game, gamma1, gamma2, nature, horizon) -> str:
    trace = run_protocol(nature, ConstantPredictor(gamma1), ConstantPredictor(gamma2),
                         Level2Sceptic(alpha=0.3), game, horizon, seed=7)
    return trace_to_csv_string(trace)


def _remark1_quartic_stdout() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["run", os.path.join(SCENARIO_DIR, "remark1_quartic.json")])
    assert code == 0
    return out.getvalue()


NUMERIC_CASES = {
    "gap_searches": _gap_search_results,
    "level2_bounded_absolute": lambda: _numeric_level2_trace(
        bounded_absolute_loss_game(), 0.2, 0.8, IidBernoulliNature(0.5), 200),
    "level2_quartic": lambda: _numeric_level2_trace(
        quartic_loss_game(outcome_grid_size=65), -0.5, 0.5,
        IidUniformNature(-1.0, 1.0), 100),
    "remark1_quartic": _remark1_quartic_stdout,
}

# case -> SHA-256 of its text
NUMERIC_LOCKED = {
    "gap_searches": "e60c901ae081ad9efd0ebdc51c43275c4ad70f8600fd455ea0d01ddd829ae996",
    "level2_bounded_absolute": "155f1cab597c5a18b764a525a824fbd18cd9b1214728b0bec3ea1eb78483d1f6",
    "level2_quartic": "2b7f29791e6b5d43fa4d90af4110eeb1c1e0465407af436be80eaa1e64edccf9",
    "remark1_quartic": "394056c8d0c20c75ee1297353978c2fe0e83883be2521aadb1e4a10f8e77cc27",
}


@pytest.mark.parametrize("name", sorted(NUMERIC_CASES))
def test_numeric_outputs_are_locked(name):
    text = NUMERIC_CASES[name]()
    assert hashlib.sha256(text.encode()).hexdigest() == NUMERIC_LOCKED[name]


# ---------------------------------------------------------------------------
# the pool sceptics: each case's trace CSV and the hex of its worst eq8 slack

def _pool_run(game, sceptic, p1, p2, nature, horizon, seed) -> str:
    # any floating-point warning on the pool path is an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_protocol(nature, ConstantPredictor(p1), ConstantPredictor(p2),
                             sceptic, game, horizon, seed=seed)
    return trace_to_csv_string(trace) + float(sceptic.worst_eq8_slack).hex() + "\n"


_SPREAD = (np.arange(7) + 1.0) / 8.0
_COIN = np.array([0.5, 0.5])


def _log_constants(probs):
    return [ConstantPredictor(np.array([1.0 - p, p])) for p in probs]


POOL_CASES = {
    "log_loss_k7": lambda: _pool_run(
        log_loss_game(m=2), AggregatingSceptic(_log_constants(_SPREAD)),
        _COIN, _COIN, IidBernoulliNature(0.3), 2000, 11),
    "bounded_square_k7": lambda: _pool_run(
        bounded_square_loss_game(), AggregatingSceptic([ConstantPredictor(p) for p in _SPREAD]),
        0.5, 0.5, IidUniformNature(0.0, 1.0), 2000, 12),
    "bounded_square_learners": lambda: _pool_run(
        bounded_square_loss_game(),
        AggregatingSceptic([RunningMeanPredictor(0.5), DriftPredictor(0.1, 0.001),
                            NoisyTargetPredictor(0.6, 0.15), ConstantPredictor(0.3)]),
        0.5, 0.5, IidUniformNature(0.2, 0.9), 1000, 13),
    "log_loss_eliminated": lambda: _pool_run(
        log_loss_game(m=2), AggregatingSceptic(_log_constants((0.0, 0.3, 0.5, 0.8))),
        _COIN, _COIN, IidBernoulliNature(0.6), 1000, 14),
    "level3_log_loss": lambda: _pool_run(
        log_loss_game(m=2), Level3Sceptic(Level2Sceptic(alpha=0.0), k_max=12),
        np.array([0.2, 0.8]), np.array([0.7, 0.3]), IidBernoulliNature(0.75), 1000, 15),
    "quartic_generic": lambda: _pool_run(
        quartic_loss_game(outcome_grid_size=65),
        AggregatingSceptic([ConstantPredictor(g) for g in (-0.6, 0.0, 0.4)]),
        0.0, 0.0, IidUniformNature(-1.0, 1.0), 60, 16),
}

# case -> SHA-256 of its text
POOL_LOCKED = {
    "log_loss_k7": "c4bbf4a01852c1cf3b8efdc2f4d9e48b9e6a69d75a0023be8bf65750d067096f",
    "bounded_square_k7": "4a13a8b76964e2bbfafd7523355b373fa5c8162f5bc50a8166f543d903117b7f",
    "bounded_square_learners": "9f1212d60eb58aa56c35dd6da00fb01c7b42e451b5a26f5670ce487772f14501",
    "log_loss_eliminated": "52b810a31c130bf19605972bd5053d1fb70d464f708dc6e9fe3f1dc6fe9293af",
    "level3_log_loss": "eb47a62c202ba45a061b3601ec7713831bef45758945111fdc3ef5f7c0d41c54",
    "quartic_generic": "a5eed28b20c5943f7ad944cd478e1b12c4a542f995fa6f2e1238d7d7c6b05e48",
}


@pytest.mark.parametrize("name", sorted(POOL_CASES))
def test_pool_outputs_are_locked(name):
    text = POOL_CASES[name]()
    assert hashlib.sha256(text.encode()).hexdigest() == POOL_LOCKED[name]
