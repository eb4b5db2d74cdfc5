"""Behaviour lock: the bundled run scenarios' outputs, pinned byte for byte.

Each run scenario is played at its full horizon through the CLI, and the
SHA-256 of its trace CSV and of its report JSON must match the hashes
recorded here.  The numeric path is pinned the same way: seeded gap
searches on every kind, two numeric level-2 traces, and the printed
output of the quartic divergence scenario, and so are the pool sceptics:
aggregating pools on log loss, bounded square and quartic loss, one with
an expert that is eliminated, and the level-3 lift on log loss.  The
closed-form level-2 runs of the benchmark's level-2 sweep are pinned too:
an adversarial Nature on binary log loss and on square loss, at alpha
-0.8 and 0.8, against a constant and a running-mean second predictor.  A change
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

from jeffreys import (GAME_SPECS, AdversarialGreedyNature, AggregatingSceptic,
                      ConstantPredictor, DriftPredictor, IidBernoulliNature, IidUniformNature,
                      Level2Sceptic, Level3Sceptic, NoisyTargetPredictor,
                      RunningMeanPredictor, bounded_absolute_loss_game,
                      bounded_square_loss_game, game_from_descriptor,
                      log_loss_game, quartic_loss_game, run_protocol,
                      square_loss_game, trace_to_csv_string, verify_run)
from jeffreys.cli import main
from jeffreys.games import subprediction_gap, superprediction_gap

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

# scenario -> (trace CSV SHA-256, report JSON SHA-256)
LOCKED = {
    "prop6_square": ("d4b1475b57cd5855e4ea866764b2f6b9f79513832d6ae8edea42255f99d1a298",
                     "30263b6092aa3ebcd872a2c4f4d26c0a43c5831e290b3dd43d1ad4db119bdb5d"),
    "prop6_logloss": ("b630d14906b066a84ae2f5a493acb2f4503bc27846e46e78451eba55476e3145",
                      "c0c9e468cafd12c9c02f6a1cb40a47306439bf960370212ef499d6c3704ef65a"),
    "prop5_lift": ("75a29cda30b933d633c437e5211639bbdb66778b5fe63d5dac0c4031063209db",
                   "bb253a4e07af7446ff718c49f4a38125fcdfa49e78f966ffa000eb1a4ada943f"),
    "prop1_absolute": ("3c074bdcbe3fa8d05a014a3661618c8b1ab2b1e38bdfa2926200523eded0d168",
                       "a36fe363c1df5e2c778a1699b8900e783a5994862a6f6c0810f33e79d1dfd5d9"),
    "prop4_counterexample": ("99be0972d28a413044a38bf8d7a597afb2b4819c84b1878660da6dd49d26edaf",
                             "6519e88322254c00f6f94f402e5e4a09a5872493d8d2bc76b994610b66251e32"),
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
    "level2_quartic": "6565a0279bdf0a1214cb8c9b1995996230595d364964843b654f1a692f691a8f",
    "remark1_quartic": "888c3128b262c0f9cdf0094970e11e1994145d5d29792b6c8b7900e2c72ea5a4",
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
    "log_loss_k7": "b6a8f687e692d566adffceed77dd4099ea095cb77981b230639f57032b0385f4",
    "bounded_square_k7": "6481af04239589416f04450a30e754dd856c3cab25c7205625fb8956a22dda44",
    "bounded_square_learners": "0cdec7e71959d53eefda7fa8b8e1f160756db8161d58fa11c5a6d55d29851afe",
    "log_loss_eliminated": "95eb858373769f41afbeb57e0108af6224a8a20a6b6802f39cf8921e30c1aa52",
    "level3_log_loss": "db53d0ec6821ce795b1b472f85df919b075410fd07de15ae3eeaa28f0c4f6366",
    "quartic_generic": "8452397a0617b4978437cb52ddcce1bbe1fa7b30347fb4891302e8e947f103c4",
}


@pytest.mark.parametrize("name", sorted(POOL_CASES))
def test_pool_outputs_are_locked(name):
    text = POOL_CASES[name]()
    assert hashlib.sha256(text.encode()).hexdigest() == POOL_LOCKED[name]


# ---------------------------------------------------------------------------
# closed-form level-2 runs against the adversarial Nature: each case's trace
# CSV and the hex of its worst eq9 slack

def _level2_adversarial_run(game, alpha, p1, p2) -> str:
    sceptic = Level2Sceptic(alpha=alpha)
    trace = run_protocol(AdversarialGreedyNature(), p1, p2, sceptic, game, 2000, seed=17)
    slack = verify_run(trace, ["eq9"], sceptic=sceptic).check_slacks["eq9"]
    return trace_to_csv_string(trace) + float(slack).hex() + "\n"


def _level2_predictors(game_name, second):
    if game_name == "log_loss":
        p1, p2 = ConstantPredictor(np.array([0.8, 0.2])), ConstantPredictor(np.array([0.3, 0.7]))
    else:
        p1, p2 = ConstantPredictor(0.25), ConstantPredictor(0.75)
    return p1, p2 if second == "constant" else RunningMeanPredictor()


LEVEL2_GAMES = {"log_loss": lambda: log_loss_game(m=2), "square": square_loss_game}
LEVEL2_CASES = {
    f"{game_name}_alpha{alpha:+.1f}_{second}": (game_name, alpha, second)
    for game_name in LEVEL2_GAMES for alpha in (-0.8, 0.8)
    for second in ("constant", "running_mean")
}

# case -> SHA-256 of its text
LEVEL2_LOCKED = {
    "log_loss_alpha+0.8_constant": "46978d9d19d09740bb66ef105871ce9d0b893b7ba875f1f93474d6a1818ee3bd",
    "log_loss_alpha+0.8_running_mean": "9227071c24207761df7a316df08c89ff0a12426f850dcb38a61c459c2a88cf6b",
    "log_loss_alpha-0.8_constant": "8f42e37e2b7e70148a0224a74a772569e60e7161192632edcf2770a76eb90a0d",
    "log_loss_alpha-0.8_running_mean": "134016b1f3e52eaa69834a546c9f626012887187dc39f77d22f08f9cce38f1dc",
    "square_alpha+0.8_constant": "1a521cc4449d1a335719002df69260128e1826237c712ad865549888dd0dfe99",
    "square_alpha+0.8_running_mean": "c11d1a205bed0e234d1a22836621ff2996818146a442e66eaa192905ea5639cb",
    "square_alpha-0.8_constant": "ebf45cedaa37a28033d6d4b4d4aa36a606575cb8c0ae92aa72519a313effe6ab",
    "square_alpha-0.8_running_mean": "f92acb959f63306c1ddc30ff168983a3117f4407a16b8e7d5dc1f3cd247c17c1",
}


@pytest.mark.parametrize("name", sorted(LEVEL2_CASES))
def test_level2_adversarial_outputs_are_locked(name):
    game_name, alpha, second = LEVEL2_CASES[name]
    text = _level2_adversarial_run(LEVEL2_GAMES[game_name](), alpha,
                                   *_level2_predictors(game_name, second))
    assert hashlib.sha256(text.encode()).hexdigest() == LEVEL2_LOCKED[name]
