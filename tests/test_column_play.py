"""Column play against the per-step loop, bit for bit.

Where every strategy has a column form, the engine plays a run as columns:
against an oblivious Nature the outcome column first, against one that
replies to the current moves (the adversarial greedy Nature) the move
columns first and the outcomes last.  Each case here plays it both ways:
as columns, with every per-step method that column play stands in for
replaced by one that fails (so the case cannot pass by falling back to the
loop), and as the loop, through a wrapper that delegates to each strategy
but offers no column form.  The two must agree on every trace column's
bytes, the report's bytes, the check slacks in hex and, for both pool
sceptics, the final per-member compensated sums, offsets and floors; for a
pool its worst eq8 step and audit sums, for the threshold lift its switch
times, worst eq8 step and running sums.  A run that fails must fail with
the same error, message and step, or truncate with the same warning.
"""

import contextlib
import io
import json
import math
import os
import warnings

import numpy as np
import pytest

import jeffreys as j
from jeffreys.cli import RUN, main
from jeffreys.sceptics import EQ8_BLOCK
from pool_reference import pool_weights

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
TRACE_COLUMNS = ("gamma1", "gamma2", "gamma_sceptic", "omega", "loss1", "loss2",
                 "loss_sceptic", "gap", "divergence_term", "cum1", "cum2", "cum_sceptic")


class LoopOnly:
    """Delegates to a strategy, but offers no column form: the loop plays."""

    def __init__(self, strategy):
        self._strategy = strategy

    def __getattr__(self, name):
        return getattr(self._strategy, name)

    def predict_column(self, *columns):
        return None

    def outcome_column(self, horizon):
        return None

    def reply_column(self):
        return None


# the per-step methods column play stands in for, on the classes that
# define a column form: a run that reaches any of them has played the loop
PER_STEP = {
    j.ConstantNature: ("outcome",), j.IidBernoulliNature: ("outcome",),
    j.IidUniformNature: ("outcome",), j.ReplayNature: ("outcome",),
    j.AdversarialGreedyNature: ("outcome",),
    j.ConstantPredictor: ("observe",), j.RunningMeanPredictor: ("predict", "observe"),
    j.NoisyTargetPredictor: ("predict", "observe"), j.DriftPredictor: ("predict", "observe"),
    j.Level1Sceptic: ("predict", "observe"), j.Level2Sceptic: ("predict", "observe"),
    j.AggregatingSceptic: ("predict", "observe"), j.Level3Sceptic: ("predict", "observe"),
}


@contextlib.contextmanager
def columns_only():
    """Replace each per-step method column play stands in for with one that fails."""
    def refuse(*args, **kwargs):
        raise AssertionError("a per-step method was called: the run played the loop")
    with pytest.MonkeyPatch.context() as patch:
        for cls, methods in PER_STEP.items():
            for name in methods:
                patch.setattr(cls, name, refuse)
        yield


def _play(case, loop: bool):
    """(outcome, sceptic): the trace and report, or the error or warning, of one way of play."""
    make, game, horizon, seed = case
    nature, p1, p2, sceptic = make()
    wrap = LoopOnly if loop else (lambda strategy: strategy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            trace = j.run_protocol(wrap(nature), wrap(p1), wrap(p2), wrap(sceptic), game,
                                   horizon, seed=seed)
        except j.JeffreysError as exc:
            return (type(exc), str(exc), getattr(exc, "step", None)), sceptic
    return (trace, [str(w.message) for w in caught]), sceptic


def _report(trace, sceptic) -> str:
    checks = [sceptic.check] if sceptic.check else []
    if trace.game.kind in j.protocol.MARTINGALE_NULL_KINDS:
        checks.append("martingale_null")
    report = j.verify_run(trace, checks, sceptic=sceptic, report=j.classify_disjuncts(trace))
    return json.dumps(report.to_dict(), sort_keys=True)


def _pool_state(pool):
    # the state both pool sceptics share, as bytes: per member its
    # compensated sums, log-weight offset and eq8 floor
    sums, comps = pool._sums
    return {"sums": sums.tobytes(), "comps": comps.tobytes(),
            "offsets": pool._offsets.tobytes(), "floors": pool._floors.tobytes()}


def assert_same_run(case):
    with columns_only():
        ours, sceptic = _play(case, loop=False)
    ref, ref_sceptic = _play(case, loop=True)
    if not isinstance(ours[0], j.Trace):
        raise AssertionError(f"column play failed: {ours}")
    (trace, warned), (ref_trace, ref_warned) = ours, ref
    assert warned == ref_warned == []
    for name in TRACE_COLUMNS:
        assert getattr(trace, name).tobytes() == getattr(ref_trace, name).tobytes(), name
    assert (trace.seed, trace.truncated) == (ref_trace.seed, ref_trace.truncated)
    assert _report(trace, sceptic) == _report(ref_trace, ref_sceptic)
    if sceptic.check:
        assert (float(sceptic.worst_slack(trace)).hex()
                == float(ref_sceptic.worst_slack(ref_trace)).hex())
    if isinstance(sceptic, (j.AggregatingSceptic, j.Level3Sceptic)):
        assert _pool_state(sceptic) == _pool_state(ref_sceptic)
    if isinstance(sceptic, j.AggregatingSceptic):
        assert sceptic.worst_eq8_step == ref_sceptic.worst_eq8_step
        assert sceptic.expert_cums.tobytes() == ref_sceptic.expert_cums.tobytes()
        assert sceptic.cum_self.hex() == ref_sceptic.cum_self.hex()
    if isinstance(sceptic, j.Level1Sceptic):
        assert sceptic.D.hex() == ref_sceptic.D.hex()
    if isinstance(sceptic, j.Level3Sceptic):
        assert sceptic.switch_times == ref_sceptic.switch_times
        assert float(sceptic.worst_eq8_slack).hex() == float(ref_sceptic.worst_eq8_slack).hex()
        assert sceptic.worst_eq8_step == ref_sceptic.worst_eq8_step
        for name in ("cum_self", "cum1", "cum2", "cum_base"):
            assert getattr(sceptic, name).hex() == getattr(ref_sceptic, name).hex(), name
    return sceptic


# ---------------------------------------------------------------------------
# the acceptance criteria's runs, as tests/test_acceptance.py plays them

SQUARE, LOG2, LOG3 = j.square_loss_game(), j.log_loss_game(m=2), j.log_loss_game(m=3)
BOUNDED_SQUARE, BOUNDED_ABSOLUTE = j.bounded_square_loss_game(), j.bounded_absolute_loss_game()
ABSOLUTE = j.absolute_loss_game()
ALPHAS = (-0.8, 0.0, 0.8)
COIN = np.array([0.5, 0.5])


def _criterion3(seed, alpha, game_name, horizon, nature_kind="iid"):
    adversarial = nature_kind == "adversarial"
    if game_name == "square":
        pair = (0.0, 1.0) if seed % 2 == 0 else (0.25, 0.75)
        nature = j.AdversarialGreedyNature if adversarial else lambda: j.IidBernoulliNature(0.5)
        return (lambda: (nature(), j.ConstantPredictor(pair[0]),
                         j.ConstantPredictor(pair[1]), j.Level2Sceptic(alpha, 1e-3)),
                SQUARE, horizon, seed)
    if adversarial:
        return (lambda: (j.AdversarialGreedyNature(), j.ConstantPredictor(np.array([0.8, 0.2])),
                         j.ConstantPredictor(np.array([0.3, 0.7])), j.Level2Sceptic(alpha, 1e-3)),
                LOG2, horizon, seed)
    return (lambda: (j.IidBernoulliNature(0.2 + 0.6 * seed / 99.0),
                     j.ConstantPredictor(np.array([0.8, 0.2])), j.RunningMeanPredictor(),
                     j.Level2Sceptic(alpha, 1e-3)),
            LOG2, horizon, seed)


def _criterion4(seed, game_name, horizon):
    k = 2 + seed % 39
    spread = (np.arange(k) + 1.0) / (k + 1.0)
    if game_name == "log_loss":
        return (lambda: (j.IidBernoulliNature(0.1 + 0.8 * seed / 99.0), j.ConstantPredictor(COIN),
                         j.ConstantPredictor(COIN),
                         j.AggregatingSceptic([j.ConstantPredictor(np.array([1.0 - p, p]))
                                               for p in spread])),
                LOG2, horizon, seed)
    return (lambda: (j.IidUniformNature(0.0, 1.0), j.ConstantPredictor(0.5),
                     j.ConstantPredictor(0.5),
                     j.AggregatingSceptic([j.ConstantPredictor(p) for p in spread])),
            BOUNDED_SQUARE, horizon, seed)


def _criterion7(seed, horizon):
    return (lambda: (j.IidBernoulliNature(0.5), j.ConstantPredictor(0.0),
                     j.ConstantPredictor(1.0), j.Level1Sceptic(c=0.4)),
            BOUNDED_ABSOLUTE, horizon, seed)


SHORT = 200


@pytest.mark.parametrize("game_name", ["square", "log_loss"])
def test_criterion3_iid_runs_match_the_loop(game_name):
    for seed in range(100):
        for alpha in ALPHAS:
            assert_same_run(_criterion3(seed, alpha, game_name, SHORT))
    for seed, alpha in ((0, -0.8), (57, 0.0), (99, 0.8)):
        assert_same_run(_criterion3(seed, alpha, game_name, 10_000))


@pytest.mark.parametrize("game_name", ["square", "log_loss"])
def test_criterion3_adversarial_runs_match_the_loop(game_name):
    for seed in range(100):
        for alpha in ALPHAS:
            assert_same_run(_criterion3(seed, alpha, game_name, SHORT, "adversarial"))
    for seed, alpha in ((1, -0.8), (42, 0.0), (98, 0.8)):
        assert_same_run(_criterion3(seed, alpha, game_name, 10_000, "adversarial"))


@pytest.mark.parametrize("game_name", ["log_loss", "bounded_square"])
def test_criterion4_pools_match_the_loop(game_name):
    for seed in range(100):
        assert_same_run(_criterion4(seed, game_name, SHORT))
    for seed in (0, 38, 57):
        assert_same_run(_criterion4(seed, game_name, 10_000))


def test_criterion7_runs_match_the_loop():
    for seed in range(100):
        assert_same_run(_criterion7(seed, SHORT))
    for seed in (0, 63):
        assert_same_run(_criterion7(seed, 100_000))


CRITERION5 = {
    "edge-outcomes": lambda: (j.IidBernoulliNature(0.5), j.ConstantPredictor(0.0),
                              j.ConstantPredictor(1.0), j.Level1Sceptic(c=0.4)),
    "interior-outcomes": lambda: (j.IidUniformNature(0.25, 0.75), j.ConstantPredictor(0.0),
                                  j.ConstantPredictor(1.0), j.Level1Sceptic(c=0.4)),
    "wide-outcomes": lambda: (j.IidUniformNature(-0.5, 1.5), j.RunningMeanPredictor(0.5),
                              j.ConstantPredictor(0.6), j.Level1Sceptic(c=0.4)),
}


@pytest.mark.parametrize("name", sorted(CRITERION5))
def test_criterion5_oblivious_runs_match_the_loop(name):
    assert_same_run((CRITERION5[name], ABSOLUTE, 100_000, 31))


# ---------------------------------------------------------------------------
# the bundled scenarios that play columns, at their full horizons

COLUMN_SCENARIOS = ("prop1_absolute", "prop4_counterexample", "prop5_lift", "prop6_logloss",
                    "prop6_square")


def _scenario_case(name):
    with open(os.path.join(SCENARIO_DIR, name + ".json"), encoding="utf-8") as fh:
        cfg = json.load(fh)

    def make():
        run = RUN(cfg)
        return run["nature"], run["predictor1"], run["predictor2"], run["sceptic"]
    return make, RUN(cfg)["game"], cfg["horizon"], cfg["seed"]


@pytest.mark.parametrize("name", COLUMN_SCENARIOS)
def test_bundled_scenarios_match_the_loop(name):
    assert_same_run(_scenario_case(name))


# ---------------------------------------------------------------------------
# pools: weights far below zero, elimination, block edges, more than two outcomes

def _log_pool(probs, p, horizon, seed, priors=None):
    return (lambda: (j.IidBernoulliNature(p), j.ConstantPredictor(COIN), j.ConstantPredictor(COIN),
                     j.AggregatingSceptic([j.ConstantPredictor(np.array([1.0 - q, q]))
                                           for q in probs], priors=priors)),
            LOG2, horizon, seed)


def test_a_log_loss_pool_far_behind_matches_the_loop():
    sceptic = assert_same_run(_log_pool((0.1, 0.3, 0.5, 0.7, 0.9), 0.5, 5000, 21))
    # the best expert has lost more than 1024: every weight ln p - eta (s + c)
    # lies below -1024, and nothing shifts them back
    assert sceptic.eta * sceptic.expert_cums.min() > 2 * 512.0
    assert pool_weights(sceptic).max() < -2 * 512.0


def test_the_eliminated_expert_pool_matches_the_loop():
    # the behaviour lock's pool whose first expert never predicts outcome 1
    assert_same_run(_log_pool((0.0, 0.3, 0.5, 0.8), 0.6, 1000, 14))


def test_a_long_column_played_pool_keeps_its_eq8_precision():
    # two close experts over 10^5 steps: the weights and the audit read one
    # set of compensated sums, and the regret slack stays at rounding's size
    sceptic = j.AggregatingSceptic([j.ConstantPredictor(np.array([0.7, 0.3])),
                                    j.ConstantPredictor(np.array([0.69, 0.31]))])
    with columns_only():
        j.run_protocol(j.IidBernoulliNature(0.3), j.ConstantPredictor(COIN),
                       j.ConstantPredictor(COIN), sceptic, LOG2, 10 ** 5, seed=12)
    assert sceptic.worst_eq8_slack >= -1e-10


@pytest.mark.parametrize("horizon", [EQ8_BLOCK - 1, EQ8_BLOCK, EQ8_BLOCK + 1,
                                     2 * EQ8_BLOCK + 3])
def test_pools_across_column_blocks_match_the_loop(horizon):
    assert_same_run(_criterion4(7, "bounded_square", horizon))
    assert_same_run(_log_pool(np.arange(1, 8) / 8.0, 0.05, horizon, 18, np.full(7, 0.1)))


def test_quartic_pools_match_the_loop():
    # the endpoint root over columns: the behaviour lock's pool, one of four
    # constants across column blocks, and two constants against the adversary
    quartic = j.quartic_loss_game(outcome_grid_size=65)
    for experts, horizon, seed in (((-0.6, 0.0, 0.4), 60, 16),
                                   ((-0.9, -0.2, 0.35, 0.8), 3000, 17)):
        assert_same_run((lambda: (j.IidUniformNature(-1.0, 1.0), j.ConstantPredictor(0.0),
                                  j.ConstantPredictor(0.5),
                                  j.AggregatingSceptic([j.ConstantPredictor(g) for g in experts])),
                         quartic, horizon, seed))
    assert_same_run(_adversarial(
        quartic, lambda: j.ConstantPredictor(0.0), lambda: j.ConstantPredictor(0.5),
        lambda: j.AggregatingSceptic([j.ConstantPredictor(g) for g in (-0.5, 0.5)]),
        horizon=300))


def test_three_outcome_runs_match_the_loop():
    experts = [np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.3, 0.1]), np.array([1 / 3] * 3)]
    assert_same_run((lambda: (j.ReplayNature(np.random.default_rng(5).integers(0, 3, 500)),
                              j.ConstantPredictor(experts[0]), j.RunningMeanPredictor(),
                              j.AggregatingSceptic([j.ConstantPredictor(e) for e in experts])),
                     LOG3, 500, 5))
    for alpha in ALPHAS:
        assert_same_run((lambda: (j.ReplayNature(np.random.default_rng(6).integers(0, 3, 500)),
                                  j.ConstantPredictor(experts[1]), j.RunningMeanPredictor(),
                                  j.Level2Sceptic(alpha)),
                         LOG3, 500, 6))


@pytest.mark.parametrize("game", [SQUARE, BOUNDED_SQUARE, BOUNDED_ABSOLUTE, LOG2],
                         ids=lambda game: game.kind.value)
def test_learning_predictors_match_the_loop(game):
    # outcomes inside a bounded game's interval, and beyond [0, 1] elsewhere
    lo, hi = game.bounds()[0] or (-0.2, 1.3)
    nature = ((lambda: j.IidBernoulliNature(0.4)) if game.prediction_shape
              else (lambda: j.IidUniformNature(lo, hi)))
    sceptic = (j.Level1Sceptic if game.spec.level2_column is None
               else (lambda: j.Level2Sceptic(0.3)))
    pairs = [(lambda: j.NoisyTargetPredictor(0.6, 0.15), lambda: j.DriftPredictor(0.1, 1e-3)),
             (lambda: j.RunningMeanPredictor(-0.0), lambda: j.DriftPredictor(1.2, -2e-3))]
    for first, second in pairs:
        assert_same_run((lambda: (nature(), first(), second(), sceptic()), game, 1000, 8))


# ---------------------------------------------------------------------------
# each check where its sums drift: 10^5 steps played as columns, under a
# far-from-fair coin and a coin that always shows 1, and 10^6 steps under
# the coin that always shows 1, with a predictor that drifts from 0.9 to 0.5
# (on log loss, the probability of outcome 1, kept interior so that no
# loss is infinite)

DRIFT_N = 10 ** 5


def _constants(*moves):
    return [j.ConstantPredictor(m) for m in moves]


CHECK_MATRIX = {
    **{f"eq9-{game.kind.value}-alpha{alpha}": (game, 0.3, lambda a=alpha: j.Level2Sceptic(a))
       for game in (SQUARE, BOUNDED_SQUARE, LOG2) for alpha in (-0.6, 0.6)},
    **{f"ledger-{game.kind.value}": (game, 0.2, j.Level1Sceptic)
       for game in (ABSOLUTE, BOUNDED_ABSOLUTE)},
    "eq8-pool-bounded_square": (BOUNDED_SQUARE, 0.3,
                                lambda: j.AggregatingSceptic(_constants(0.2, 0.9))),
    "eq8-pool-log_loss": (LOG2, 0.3,
                          lambda: j.AggregatingSceptic(_constants([0.8, 0.2], [0.1, 0.9]))),
    "eq8-lift-bounded_square": (BOUNDED_SQUARE, 0.3,
                                lambda: j.Level3Sceptic(j.Level2Sceptic(0.0))),
}


def _assert_drifting_run_passes(shape, p, horizon):
    game, constant, make_sceptic = CHECK_MATRIX[shape]
    sceptic = make_sceptic()
    with columns_only():
        trace = j.run_protocol(j.IidBernoulliNature(p), j.DriftPredictor(0.9, -0.4 / horizon),
                               j.ConstantPredictor(constant), sceptic, game, horizon, seed=3)
    report = j.verify_run(trace, [sceptic.check], sceptic)
    assert report.checks_passed, report.check_slacks


@pytest.mark.parametrize("p", [0.9, 1.0])
@pytest.mark.parametrize("shape", sorted(CHECK_MATRIX))
def test_each_check_holds_over_a_long_drifting_column_run(shape, p):
    _assert_drifting_run_passes(shape, p, DRIFT_N)


@pytest.mark.parametrize("shape", sorted(CHECK_MATRIX))
def test_each_check_holds_over_a_million_step_drifting_column_run(shape):
    _assert_drifting_run_passes(shape, 1.0, 10 ** 6)


# ---------------------------------------------------------------------------
# the threshold lift: its switches as first passages over its base's column

def _lift(game, first, second, nature, horizon, seed, k_max=20, base=None):
    base = base or (lambda: j.Level2Sceptic(0.0, 1e-3))
    return (lambda: (nature(), first(), second(), j.Level3Sceptic(base(), k_max=k_max)),
            game, horizon, seed)


def _diverging_lift(horizon, seed, k_max=20, first=0.1):
    return _lift(BOUNDED_SQUARE, lambda: j.ConstantPredictor(first),
                 lambda: j.ConstantPredictor(0.9), lambda: j.ConstantNature(0.9), horizon, seed,
                 k_max)


def _converging_lift(horizon, seed, k_max=20):
    return _lift(BOUNDED_SQUARE, lambda: j.NoisyTargetPredictor(0.6, 0.15),
                 lambda: j.NoisyTargetPredictor(0.6, 0.15), lambda: j.IidBernoulliNature(0.6),
                 horizon, seed, k_max)


def _log_lift(p, q, nature, game, horizon, seed, k_max=20):
    return _lift(game, lambda: j.ConstantPredictor(np.array(p)),
                 lambda: j.ConstantPredictor(np.array(q)), nature, horizon, seed, k_max)


def test_log_loss_lifts_match_the_loop():
    # the behaviour lock's level-3 run, three outcomes, and a base whose
    # move changes every step
    sceptic = assert_same_run(_log_lift([0.2, 0.8], [0.7, 0.3], lambda: j.IidBernoulliNature(0.75),
                                        LOG2, 1000, 15, k_max=12))
    assert sceptic.switch_times
    replay = [0, 1, 2, 2, 1, 0, 2] * 300
    sceptic = assert_same_run(_log_lift([0.6, 0.3, 0.1], [0.1, 0.2, 0.7],
                                        lambda: j.ReplayNature(replay), LOG3, 2000, 17))
    assert sceptic.switch_times
    assert_same_run(_lift(LOG2, lambda: j.ConstantPredictor(np.array([0.9, 0.1])),
                          j.RunningMeanPredictor, lambda: j.IidBernoulliNature(0.7), 1000, 18))


@pytest.mark.parametrize("k_max", [1, 20])
def test_lifts_of_either_pool_size_match_the_loop(k_max):
    for seed in range(5):
        assert_same_run(_diverging_lift(500, seed, k_max))
        assert_same_run(_converging_lift(500, seed, k_max))
        assert_same_run(_lift(BOUNDED_SQUARE, lambda: j.ConstantPredictor(0.3),
                              lambda: j.ConstantPredictor(0.7), lambda: j.IidBernoulliNature(0.5),
                              500, 8 + seed, k_max))


def test_quartic_lifts_match_the_loop():
    # over level 2's numeric columns, against an iid and a constant Nature
    quartic = j.quartic_loss_game(outcome_grid_size=65)
    for nature, seed in ((lambda: j.IidUniformNature(-1.0, 1.0), 16),
                         (lambda: j.ConstantNature(0.8), 3)):
        sceptic = assert_same_run(_lift(quartic, lambda: j.ConstantPredictor(-0.5),
                                        lambda: j.ConstantPredictor(0.5), nature, 600, seed,
                                        k_max=5))
        assert sceptic.switch_times


@pytest.mark.parametrize("horizon", [EQ8_BLOCK - 1, EQ8_BLOCK, EQ8_BLOCK + 1,
                                     2 * EQ8_BLOCK + 3])
def test_lift_switches_across_column_blocks_match_the_loop(horizon):
    # predictor 1 falls behind the base by about 1/2 a step, so the level
    # 2^k passes at step 2^(k + 1) + 1: from k = 7 on, a block's first step
    sceptic = assert_same_run(_diverging_lift(horizon, 1, first=0.083625))
    assert {EQ8_BLOCK + 1, 2 * EQ8_BLOCK + 1} & set(range(horizon + 1)) \
        <= set(sceptic.switch_times.values())


def test_pool_sceptics_read_their_audit_from_construction():
    # fresh, both pool sceptics read an empty audit; a lift played in columns
    # and by the loop reads the same bits (assert_same_run compares them)
    case = _diverging_lift(2 * EQ8_BLOCK + 3, 1, first=0.083625)
    for sceptic in (case[0]()[3], j.AggregatingSceptic([j.ConstantPredictor(0.5)])):
        assert (sceptic.worst_eq8_slack, sceptic.worst_eq8_step, sceptic.cum_self) \
            == (math.inf, None, 0.0)
    sceptic = assert_same_run(case)
    assert sceptic.worst_eq8_step is not None and sceptic.cum_self > 0.0


def _spy_rounds(monkeypatch):
    """(rounds, looped): lists that gain an entry for each outcome column
    the engine guesses against a replying Nature (each such round starts
    from a fresh reset inside column play), and for each run the loop plays."""
    rounds, looped, playing = [], [], []
    reset, columns, loop = j.protocol._reset, j.protocol._play_columns, j.protocol._play_loop

    def counted_reset(*args):
        rounds.extend(playing)
        return reset(*args)

    def counted_columns(*args):
        playing.append(1)
        try:
            return columns(*args)
        finally:
            playing.clear()

    monkeypatch.setattr(j.protocol, "_reset", counted_reset)
    monkeypatch.setattr(j.protocol, "_play_columns", counted_columns)
    monkeypatch.setattr(j.protocol, "_play_loop", lambda *args: looped.append(1) or loop(*args))
    return rounds, looped


def _spy_columns(monkeypatch, cls):
    """The columns ``cls.predict_column`` gives, None included, as a list."""
    given = []
    column = cls.predict_column
    monkeypatch.setattr(cls, "predict_column",
                        lambda self, *columns: given.append(column(self, *columns)) or given[-1])
    return given


class HalvingLevel2(j.Level2Sceptic):
    # a base whose move is not its class's column form's: half level 2's move
    def predict(self, n, gamma1, gamma2):
        return 0.5 * super().predict(n, gamma1, gamma2)


def test_a_lift_the_loop_must_play_builds_no_base_column(monkeypatch):
    # an overridden base move cannot stand in; against the adversary the
    # lift plays columns, one base column for each guessed outcome column
    base_columns = _spy_columns(monkeypatch, j.Level2Sceptic)
    trace, _ = _same_failure(_lift(BOUNDED_SQUARE, lambda: j.ConstantPredictor(0.1),
                                   lambda: j.ConstantPredictor(0.9),
                                   lambda: j.ConstantNature(0.9), 300, 3,
                                   base=lambda: HalvingLevel2(0.0)))
    assert trace.gamma_sceptic[0] < 0.4  # the halved base, not level 2's 0.5, made the moves
    assert base_columns == []
    rounds, looped = _spy_rounds(monkeypatch)
    assert_same_run(_lift(BOUNDED_SQUARE, lambda: j.ConstantPredictor(0.1),
                          lambda: j.ConstantPredictor(0.9), j.AdversarialGreedyNature, 300, 3))
    assert looped == [1]  # the loop's reference run, which builds no base column
    assert len(base_columns) == len(rounds) >= 1 and all(c is not None for c in base_columns)


def test_a_lift_refused_after_its_base_column_plays_as_the_loop(monkeypatch):
    # a predictor's infinite loss eliminates its group: the lift refuses the
    # column after its base's pool has played, and resets that base so the
    # loop plays from step 1
    base_columns = _spy_columns(monkeypatch, j.AggregatingSceptic)
    pool = (lambda: j.AggregatingSceptic([j.ConstantPredictor(COIN),
                                          j.ConstantPredictor(np.array([0.8, 0.2]))]))
    trace, _ = _same_failure(_lift(LOG2, lambda: j.ConstantPredictor(np.array([1.0, 0.0])),
                                   lambda: j.ConstantPredictor(COIN),
                                   lambda: j.IidBernoulliNature(0.3), 300, 5, base=pool))
    assert len(trace) == 300
    assert len(base_columns) == 1 and base_columns[0] is not None
    # the same elimination in the base's group collapses the pool at step 2
    base_columns = _spy_columns(monkeypatch, j.Level2Sceptic)
    failure = _same_failure(_log_lift([1.0, 0.0], [0.5, 0.5], lambda: j.IidBernoulliNature(0.5),
                                      LOG2, 100, 3))
    assert failure[:2] == (j.PoolCollapseError, "step 2: every expert has suffered infinite loss")
    assert len(base_columns) == 1 and base_columns[0] is not None


# ---------------------------------------------------------------------------
# the adversarial Nature's reply column: candidates, ties, NaN and -inf
# scores, predictors that read no outcomes

def _adversarial(game, first, second, sceptic=lambda: j.Level2Sceptic(0.3), candidates=None,
                 horizon=500, seed=12):
    return (lambda: (j.AdversarialGreedyNature(candidates), first(), second(), sceptic()),
            game, horizon, seed)


def test_custom_candidates_match_the_loop():
    # ints on a square game, scored as the floats they equal
    assert_same_run(_adversarial(SQUARE, lambda: j.DriftPredictor(-0.5, 3e-3),
                                 lambda: j.ConstantPredictor(0.4), candidates=[0, 1, -2, 3]))
    # three outcomes, given out of order
    for alpha in ALPHAS:
        assert_same_run(_adversarial(
            LOG3, lambda: j.ConstantPredictor(np.array([0.2, 0.3, 0.5])),
            lambda: j.ConstantPredictor(np.array([0.5, 0.4, 0.1])),
            lambda: j.Level2Sceptic(alpha), candidates=[2, 0, 1]))
    # numpy's float64, a subclass of float, scored as the floats it holds
    assert_same_run(_adversarial(BOUNDED_SQUARE, lambda: j.DriftPredictor(0.1, 1e-3),
                                 lambda: j.ConstantPredictor(0.6), candidates=np.linspace(0, 1, 5)))
    assert_same_run(_adversarial(
        LOG3, lambda: j.ConstantPredictor(np.array([0.2, 0.3, 0.5])),
        lambda: j.ConstantPredictor(np.array([0.5, 0.4, 0.1])), candidates=np.array([1.0, 2.0, 0.0])))


@pytest.mark.parametrize("candidates", [np.array([0, 1]), np.array([0.0, 1.0], dtype=np.float32)],
                         ids=["int64", "float32"])
def test_candidates_scored_in_their_own_type_play_the_loop_before_any_column(
        monkeypatch, candidates):
    # the loop scores a numpy int or float32 in its own type, so the engine
    # learns that the loop plays before it builds any move column
    asked = []
    for cls in (j.ConstantPredictor, j.Level2Sceptic):
        column = cls.predict_column
        monkeypatch.setattr(cls, "predict_column", lambda self, *columns, column=column:
                            asked.append(1) or column(self, *columns))
    case = _adversarial(BOUNDED_SQUARE, lambda: j.ConstantPredictor(0.3),
                        lambda: j.ConstantPredictor(0.6), candidates=candidates, horizon=50)
    (trace, _), _ = _play(case, loop=False)
    (ref_trace, _), _ = _play(case, loop=True)
    for name in TRACE_COLUMNS:
        assert getattr(trace, name).tobytes() == getattr(ref_trace, name).tobytes(), name
    assert asked == []


def test_tied_candidates_play_the_first():
    # the predictors' moves mirror each other about 1/2, and level 2 at
    # alpha 0 plays 1/2: outcomes 0 and 1 score the same at every step
    for candidates in ([0.0, 1.0], [1.0, 0.0]):
        case = _adversarial(BOUNDED_SQUARE, lambda: j.ConstantPredictor(0.25),
                            lambda: j.ConstantPredictor(0.75), lambda: j.Level2Sceptic(0.0),
                            candidates=candidates, horizon=50)
        assert_same_run(case)
        (trace, _), _ = _play(case, loop=False)
        assert trace.omega.tolist() == [candidates[0]] * 50


@pytest.mark.parametrize("first, second, candidates, outcome", [
    ((1.0, 0.0), (1.0, 0.0), None, 0), ((1.0, 0.0), (1.0, 0.0), [1], 1),
    ((1.0, 0.0), (0.5, 0.5), None, 1)], ids=["nan-beside-zero", "nan-only", "inf"])
def test_zero_probabilities_score_as_the_loop_scores_them(first, second, candidates, outcome):
    # a zero probability loses +inf.  Where both predictors and so the
    # sceptic give an outcome none, it scores inf - inf = NaN, which never
    # wins, and where no score beats -inf the first candidate plays; where
    # only the sceptic and one predictor do, it scores +inf
    for alpha in ALPHAS:
        case = _adversarial(LOG2, lambda: j.ConstantPredictor(np.array(first)),
                            lambda: j.ConstantPredictor(np.array(second)),
                            lambda: j.Level2Sceptic(alpha), candidates=candidates, horizon=100)
        assert_same_run(case)
        (trace, _), _ = _play(case, loop=False)
        assert set(trace.omega.tolist()) == {outcome}


@pytest.mark.parametrize("game", [SQUARE, BOUNDED_SQUARE], ids=lambda game: game.kind.value)
def test_noisy_and_drift_predictors_against_the_adversary_match_the_loop(game):
    for alpha in ALPHAS:
        assert_same_run(_adversarial(game, lambda: j.NoisyTargetPredictor(0.6, 0.15),
                                     lambda: j.DriftPredictor(0.1, 1e-3),
                                     lambda: j.Level2Sceptic(alpha), horizon=1000))
        assert_same_run(_adversarial(game, lambda: j.DriftPredictor(1.2, -2e-3),
                                     lambda: j.NoisyTargetPredictor(0.3, 0.5),
                                     lambda: j.Level2Sceptic(alpha), horizon=1000))


def test_a_running_mean_against_the_adversary_plays_one_sceptic_column_per_round(monkeypatch):
    # the running mean gives no column before the outcomes are known, so
    # the sceptic's column is first built against the first guessed outcomes
    asked = []
    column = j.Level2Sceptic.predict_column
    monkeypatch.setattr(j.Level2Sceptic, "predict_column",
                        lambda self, *columns: asked.append(1) or column(self, *columns))
    rounds, looped = _spy_rounds(monkeypatch)
    for game, first in ((SQUARE, 0.0), (LOG2, np.array([0.8, 0.2]))):
        assert_same_run(_adversarial(game, lambda: j.ConstantPredictor(first),
                                     j.RunningMeanPredictor, lambda: j.Level2Sceptic(0.0)))
    assert looped == [1, 1]  # the loop's reference runs
    assert len(asked) == len(rounds) >= 2


# ---------------------------------------------------------------------------
# forms that read past outcomes against the adversary: rounds of guessed
# outcome columns, until Nature's reply to one is that guess bit for bit

@pytest.mark.parametrize("alpha", ALPHAS)
def test_running_means_on_square_loss_against_the_adversary_match_the_loop(alpha):
    pairs = ((lambda: j.ConstantPredictor(0.0), j.RunningMeanPredictor),
             (j.RunningMeanPredictor, lambda: j.ConstantPredictor(0.0)),
             (lambda: j.RunningMeanPredictor(0.2), lambda: j.RunningMeanPredictor(0.7)))
    for candidates in (None, np.linspace(-1.0, 2.0, 13).tolist()):
        for first, second in pairs:
            assert_same_run(_adversarial(SQUARE, first, second, lambda: j.Level2Sceptic(alpha),
                                         candidates))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_running_means_on_log_loss_against_the_adversary_match_the_loop(alpha):
    for candidates in (None, [1, 0]):
        assert_same_run(_adversarial(LOG2, lambda: j.ConstantPredictor(np.array([0.8, 0.2])),
                                     j.RunningMeanPredictor, lambda: j.Level2Sceptic(alpha),
                                     candidates))
    # three outcomes: each run here settles within the rounds
    runs = (((0.2, 0.3, 0.5), None), ((0.6, 0.3, 0.1), [2, 0, 1])) if alpha < 0 else (
        ((1 / 3, 1 / 3, 1 / 3), None),)
    for first, candidates in runs:
        assert_same_run(_adversarial(LOG3, lambda: j.ConstantPredictor(np.array(first)),
                                     j.RunningMeanPredictor, lambda: j.Level2Sceptic(alpha),
                                     candidates))


@pytest.mark.parametrize("game", [ABSOLUTE, BOUNDED_ABSOLUTE], ids=lambda game: game.kind.value)
def test_level1_against_the_adversary_matches_the_loop(game):
    assert_same_run(_adversarial(game, lambda: j.DriftPredictor(0.2, 1e-3),
                                 lambda: j.ConstantPredictor(0.8), j.Level1Sceptic, horizon=2000))


def test_pools_and_lifts_against_the_adversary_match_the_loop():
    assert_same_run(_adversarial(
        BOUNDED_SQUARE, lambda: j.ConstantPredictor(0.5), lambda: j.ConstantPredictor(0.5),
        lambda: j.AggregatingSceptic([j.ConstantPredictor(1 / 3), j.ConstantPredictor(2 / 3)]),
        horizon=2000))
    assert_same_run(_adversarial(
        LOG2, lambda: j.ConstantPredictor(COIN), lambda: j.ConstantPredictor(COIN),
        lambda: j.AggregatingSceptic([j.ConstantPredictor(np.array([2 / 3, 1 / 3])),
                                      j.ConstantPredictor(np.array([1 / 3, 2 / 3]))]),
        horizon=300))
    # the lift on bounded square at N = 300 is in the test of its base columns
    assert_same_run(_lift(BOUNDED_SQUARE, lambda: j.ConstantPredictor(0.1),
                          lambda: j.ConstantPredictor(0.9), j.AdversarialGreedyNature, 2000, 3))
    assert_same_run(_log_lift([0.8, 0.2], [0.3, 0.7], j.AdversarialGreedyNature, LOG2, 300, 3))


def test_a_run_that_does_not_settle_within_the_rounds_plays_the_loop(monkeypatch):
    rounds, looped = _spy_rounds(monkeypatch)
    spread = (np.arange(10) + 1.0) / 11.0
    trace, warned = _same_failure(_adversarial(
        BOUNDED_SQUARE, lambda: j.ConstantPredictor(0.5), lambda: j.ConstantPredictor(0.5),
        lambda: j.AggregatingSceptic([j.ConstantPredictor(p) for p in spread]), horizon=2000))
    assert len(trace) == 2000 and warned == []
    assert len(rounds) == j.protocol.SPECULATION_ROUNDS
    assert looped == [1, 1]  # after the rounds, and the loop's reference run


def test_a_guessed_column_the_pool_refuses_fails_at_the_loops_step(monkeypatch):
    # the pool's one expert gives outcome 1 probability zero: against the
    # first guess, all zeros, it plays, but the adversary replies 1, and
    # against that the pool collapses at step 2
    rounds, looped = _spy_rounds(monkeypatch)
    only_zero = [j.ConstantPredictor(np.array([1.0, 0.0]))]
    failure = _same_failure(_adversarial(LOG2, lambda: j.ConstantPredictor(COIN),
                                         lambda: j.ConstantPredictor(COIN),
                                         lambda: j.AggregatingSceptic(only_zero), horizon=50))
    assert failure == (j.PoolCollapseError, "step 2: every expert has suffered infinite loss",
                       None)
    assert len(rounds) == 2 and looped == [1, 1]


# ---------------------------------------------------------------------------
# the column-form contract that makes a settled guess the run: row n of a
# form's column reads only outcomes before n

def _reading_forms():
    # (name, draw of an outcome column, the form's column of it), per form that reads outcomes
    drift, steady = 0.2 + 1e-3 * np.arange(400), np.full(400, 0.8)
    coins = np.tile(COIN, (400, 1))

    def uniform(rng, size):
        return rng.uniform(0.0, 1.0, size)

    def reset(strategy, game):
        strategy.reset(game, np.random.default_rng(1), 400)
        return strategy

    for name, game in (("scalar", SQUARE), ("m2", LOG2), ("m3", LOG3)):
        draw = ((lambda rng, size, m=game.m: rng.integers(m, size=size).astype(float))
                if game.prediction_shape else uniform)
        yield (f"running_mean_{name}", draw,
               lambda omegas, game=game: reset(j.RunningMeanPredictor(0.3), game)
               .predict_column(omegas))
    yield ("level1", uniform, lambda omegas: reset(j.Level1Sceptic(0.4), ABSOLUTE)
           .predict_column(drift, steady, omegas))
    yield ("aggregating", uniform, lambda omegas: reset(j.AggregatingSceptic(
        [j.ConstantPredictor(p) for p in (0.2, 0.5, 0.7)]), BOUNDED_SQUARE)
        .predict_column(drift, steady, omegas))
    yield ("aggregating_m2", lambda rng, size: rng.integers(2, size=size).astype(float),
           lambda omegas: reset(j.AggregatingSceptic(
               [j.ConstantPredictor(np.array([1.0 - p, p])) for p in (0.2, 0.5, 0.7)]), LOG2)
           .predict_column(coins, coins, omegas))
    # outcomes near 1 put predictor 1, at 0.1, behind the base: the lift switches
    yield ("lift", lambda rng, size: 1.0 - 0.3 * rng.uniform(0.0, 1.0, size),
           lambda omegas: reset(j.Level3Sceptic(j.Level2Sceptic(0.0), k_max=6), BOUNDED_SQUARE)
           .predict_column(np.full(400, 0.1), np.full(400, 0.9), omegas))


@pytest.mark.parametrize("form", list(_reading_forms()), ids=lambda form: form[0])
def test_a_column_form_reads_only_past_outcomes(form):
    # changing the outcomes from row k on leaves rows 0..k of the column as they were
    name, draw, play = form
    rng = np.random.default_rng(11)
    later_rows_moved = False
    for _ in range(20):
        omegas = draw(rng, 400)
        k = int(rng.integers(400))
        changed = omegas.copy()
        changed[k:] = draw(rng, 400 - k)
        column, other = play(omegas), play(changed)
        assert column is not None and other is not None
        assert column[:k + 1].tobytes() == other[:k + 1].tobytes(), k
        later_rows_moved |= column[k + 1:].tobytes() != other[k + 1:].tobytes()
    assert later_rows_moved


# ---------------------------------------------------------------------------
# numeric level 2: one gap search per distinct pair of moves

QUARTIC, WIDE_ABSOLUTE = j.quartic_loss_game(), j.absolute_loss_game(
    outcome_grid=np.linspace(-5.0, 5.0, 41))


@pytest.mark.parametrize("game", [BOUNDED_ABSOLUTE, QUARTIC], ids=lambda game: game.kind.value)
def test_numeric_level2_matches_the_loop(game):
    lo, hi = game.bounds()[1]
    for alpha in ALPHAS:
        sceptic = (lambda: j.Level2Sceptic(alpha))
        assert_same_run((lambda: (j.IidBernoulliNature(0.3), j.ConstantPredictor(lo + 0.2),
                                  j.ConstantPredictor(hi - 0.1), sceptic()), game, 40, 4))
        assert_same_run(_adversarial(game, lambda: j.DriftPredictor(lo, 0.05),
                                     lambda: j.ConstantPredictor(hi - 0.3), sceptic, horizon=40))
    assert_same_run(_adversarial(game, lambda: j.NoisyTargetPredictor(0.1, 0.5),
                                 lambda: j.ConstantPredictor(0.5), horizon=30))


def test_numeric_level2_searches_once_per_distinct_pair(monkeypatch):
    searched = []
    search = j.sceptics._level2_numeric
    monkeypatch.setattr(j.sceptics, "_level2_numeric",
                        lambda *args: searched.append(args[1:3]) or search(*args))
    sceptic = assert_same_run((lambda: (j.IidBernoulliNature(0.5), j.DriftPredictor(0.2, 0.1),
                                        j.ConstantPredictor(0.7), j.Level2Sceptic(0.0)),
                               BOUNDED_ABSOLUTE, 30, 2))
    column_searches = searched[:len(searched) - 30]  # the loop's reference run searched 30 times
    assert sorted(column_searches) == sorted({(min(1.0, 0.2 + 0.1 * n), 0.7) for n in range(30)})
    assert len(sceptic._achieved) == 30


def test_an_overestimated_divergence_fails_at_the_loops_step():
    # outcomes on [-5, 5], predictions searched on [0, 1]: once predictor 1
    # drifts below the grid, no canonical point lies below the weighted mean
    for nature in (j.AdversarialGreedyNature, lambda: j.IidBernoulliNature(0.5)):
        failure = _same_failure((lambda: (nature(), j.DriftPredictor(0.5, -1.0),
                                          j.ConstantPredictor(0.5), j.Level2Sceptic(0.0)),
                                 WIDE_ABSOLUTE, 10, 0))
        assert failure[0] is j.DivergenceOverestimate
        assert failure[1].startswith("step 3: no canonical point below the weighted mean")


# ---------------------------------------------------------------------------
# a run that fails fails as the loop fails it

def _same_failure(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ours, _ = _play(case, loop=False)
        ref, _ = _play(case, loop=True)
    if isinstance(ours[0], j.Trace):
        (trace, warned), (ref_trace, ref_warned) = ours, ref
        assert warned == ref_warned
        for name in TRACE_COLUMNS:
            assert getattr(trace, name).tobytes() == getattr(ref_trace, name).tobytes(), name
        assert trace.truncated == ref_trace.truncated
    else:
        assert ours == ref
    return ours


def test_drift_past_the_float_range_fails_at_step_2():
    failure = _same_failure((lambda: (j.ConstantNature(0.5), j.DriftPredictor(1e308, 1e308),
                                      j.ConstantPredictor(0.0), j.Level2Sceptic(0.0)),
                             SQUARE, 10, 0))
    assert failure == (j.ProtocolViolationError,
                       "step 2: predictor 1: prediction inf is not finite", 2)


def test_a_collapsing_pool_fails_at_step_2():
    only_zero = [j.ConstantPredictor(np.array([1.0, 0.0]))]
    failure = _same_failure((lambda: (j.ConstantNature(1), j.ConstantPredictor(COIN),
                                      j.ConstantPredictor(COIN), j.AggregatingSceptic(only_zero)),
                             LOG2, 5, 0))
    assert failure[:2] == (j.PoolCollapseError, "step 2: every expert has suffered infinite loss")


def test_disjoint_supports_fail_at_step_1():
    failure = _same_failure((lambda: (j.IidBernoulliNature(0.5),
                                      j.ConstantPredictor(np.array([1.0, 0.0])),
                                      j.ConstantPredictor(np.array([0.0, 1.0])),
                                      j.Level2Sceptic(0.0)),
                             LOG2, 5, 0))
    assert failure[:2] == (j.DivergenceOverestimate,
                           "step 1: predictions have disjoint support; divergence is infinite")


def test_a_short_replay_truncates_with_the_loops_warning():
    trace, warned = _same_failure((lambda: (j.ReplayNature([0.0, 1.0, 0.5]),
                                            j.RunningMeanPredictor(), j.ConstantPredictor(1.0),
                                            j.Level2Sceptic(0.0)),
                                   SQUARE, 10, 0))
    assert len(trace) == 3 and trace.truncated
    assert warned == ["run truncated at step 4: replay provides only 3 outcomes"]


@pytest.mark.parametrize("game", [SQUARE, BOUNDED_SQUARE], ids=lambda game: game.kind.value)
@pytest.mark.parametrize("seed", range(3))
def test_noise_past_the_float_range_plays_as_the_loop(game, seed):
    _same_failure((lambda: (j.IidBernoulliNature(0.5), j.NoisyTargetPredictor(0.5, 1e308),
                            j.NoisyTargetPredictor(0.5, 1e308), j.Level2Sceptic(0.3)),
                   game, 50, seed))


def test_a_refused_sceptic_column_replays_from_a_fresh_reset():
    # level 1's column commits D, then a move of NaN (D = inf - inf) is
    # refused: the loop plays from a fresh reset and names the step
    failure = _same_failure((lambda: (j.IidUniformNature(-8e307, 8e307),
                                      j.ConstantPredictor(1.7e308), j.ConstantPredictor(-1.7e308),
                                      j.Level1Sceptic(0.4)),
                             ABSOLUTE, 50, 0))
    assert failure[0] is j.ProtocolViolationError
    assert "sceptic: prediction nan is not finite" in failure[1]


# ---------------------------------------------------------------------------
# the benchmark's run shapes play columns: a change that sends them back to
# the loop fails here, not first as a slower benchmark

def _benchmark_shapes():
    # pool_aggregation's lift ops, and criterion 6's runs
    for horizon, seed in ((300, 5), (10_000, 41)):
        yield _diverging_lift(horizon, seed)
        yield _converging_lift(horizon, seed + 1)
    for alpha in ALPHAS:
        for second in (lambda: j.ConstantPredictor(1.0), j.RunningMeanPredictor):
            yield (lambda: (j.IidBernoulliNature(0.4), j.ConstantPredictor(0.0), second(),
                            j.Level2Sceptic(alpha, 1e-3)), SQUARE, 2000, 1)
        for second in (lambda: j.ConstantPredictor(np.array([0.3, 0.7])), j.RunningMeanPredictor):
            yield (lambda: (j.IidBernoulliNature(0.4), j.ConstantPredictor(np.array([0.8, 0.2])),
                            second(), j.Level2Sceptic(alpha, 1e-3)), LOG2, 2000, 2)
        # level2_sweep's adversarial runs of two constant predictors
        for pair in ((0.0, 1.0), (0.25, 0.75)):
            yield (lambda: (j.AdversarialGreedyNature(), j.ConstantPredictor(pair[0]),
                            j.ConstantPredictor(pair[1]), j.Level2Sceptic(alpha, 1e-3)),
                   SQUARE, 2000, 5)
        yield (lambda: (j.AdversarialGreedyNature(), j.ConstantPredictor(np.array([0.8, 0.2])),
                        j.ConstantPredictor(np.array([0.3, 0.7])), j.Level2Sceptic(alpha, 1e-3)),
               LOG2, 2000, 6)
        # and against a running mean, which settle within the guessed rounds
        for first in (0.0, 0.25):
            yield (lambda: (j.AdversarialGreedyNature(), j.ConstantPredictor(first),
                            j.RunningMeanPredictor(), j.Level2Sceptic(alpha, 1e-3)),
                   SQUARE, 2000, 5)
        yield (lambda: (j.AdversarialGreedyNature(), j.ConstantPredictor(np.array([0.8, 0.2])),
                        j.RunningMeanPredictor(), j.Level2Sceptic(alpha, 1e-3)), LOG2, 2000, 6)
        # numeric_oracle's numeric level-2 runs
        yield (lambda: (j.IidBernoulliNature(0.6), j.ConstantPredictor(0.35),
                        j.ConstantPredictor(0.8), j.Level2Sceptic(alpha, 1e-3)),
               BOUNDED_ABSOLUTE, 5, 7)
    for k in (2, 5, 10, 20, 30, 40):
        spread = (np.arange(k) + 1.0) / (k + 1.0)
        yield (lambda: (j.IidBernoulliNature(0.3), j.ConstantPredictor(COIN),
                        j.ConstantPredictor(COIN),
                        j.AggregatingSceptic([j.ConstantPredictor(np.array([1.0 - p, p]))
                                              for p in spread])), LOG2, 500, 3)
        yield (lambda: (j.IidUniformNature(0.0, 1.0), j.ConstantPredictor(0.5),
                        j.ConstantPredictor(0.5),
                        j.AggregatingSceptic([j.ConstantPredictor(p) for p in spread])),
               BOUNDED_SQUARE, 500, 4)


def test_the_benchmarks_runs_never_call_a_per_step_method(monkeypatch):
    _, looped = _spy_rounds(monkeypatch)
    with columns_only():
        for make, game, horizon, seed in _benchmark_shapes():
            nature, p1, p2, sceptic = make()
            trace = j.run_protocol(nature, p1, p2, sceptic, game, horizon, seed=seed)
            assert len(trace) == horizon
            assert j.verify_run(trace, [sceptic.check], sceptic=sceptic).checks_passed
            assert looped == []


@pytest.mark.parametrize("name", COLUMN_SCENARIOS)
def test_the_column_scenarios_never_call_a_per_step_method(name, tmp_path):
    with columns_only(), contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", os.path.join(SCENARIO_DIR, name + ".json"),
                     "--trace-out", str(tmp_path / "trace.csv"),
                     "--report-out", str(tmp_path / "report.json")]) == 0


# ---------------------------------------------------------------------------
# the engine's stand-in rule: a column form stands in only for the per-step
# methods of the class that defines it, neither overridden in a subclass nor
# set on the instance

class EveryOtherOutcome(j.ConstantNature):
    def outcome(self, n, gamma1, gamma2, gamma_sceptic):
        return n % 2


def _quarter_mean():
    predictor = j.RunningMeanPredictor(0.5)
    predictor.predict = lambda n: 0.25
    return predictor


class FrozenLevel1(j.Level1Sceptic):
    def observe(self, n, omega):  # D stays 0: every move is the predictors' midpoint
        pass


STAND_IN_OVERRIDES = {
    "nature_subclass": (
        lambda: (EveryOtherOutcome(1), j.ConstantPredictor(0.0), j.ConstantPredictor(1.0),
                 j.Level1Sceptic(0.4)),
        lambda trace: trace.omega, lambda n: n % 2),
    "predictor_instance": (
        lambda: (j.IidBernoulliNature(0.5), _quarter_mean(), j.ConstantPredictor(1.0),
                 j.Level1Sceptic(0.4)),
        lambda trace: trace.gamma1, lambda n: 0.25),
    "sceptic_subclass": (
        lambda: (j.IidBernoulliNature(0.5), j.ConstantPredictor(0.0), j.ConstantPredictor(1.0),
                 FrozenLevel1(0.4)),
        lambda trace: trace.gamma_sceptic, lambda n: 0.5),
}


@pytest.mark.parametrize("name", sorted(STAND_IN_OVERRIDES))
def test_an_overridden_per_step_method_plays_the_loop(name):
    make, column, override = STAND_IN_OVERRIDES[name]
    case = (make, BOUNDED_ABSOLUTE, 300, 9)
    (trace, warned), _ = _play(case, loop=False)
    (ref_trace, ref_warned), _ = _play(case, loop=True)
    assert warned == ref_warned == []
    # the override, not the column form of the class it overrides, made the moves
    assert column(trace).tolist() == [override(n) for n in range(1, 301)]
    for col in TRACE_COLUMNS:
        assert getattr(trace, col).tobytes() == getattr(ref_trace, col).tobytes(), col


class Ramp(j.ConstantPredictor):
    # a constant predictor's subclass whose move varies with the step
    def predict(self, n):
        return min(1.0, 0.1 + 0.01 * n)


class PlainRamp(j.PredictorStrategy):
    def predict(self, n):
        return min(1.0, 0.1 + 0.01 * n)


@pytest.mark.parametrize("nature", [lambda: j.IidUniformNature(0.0, 1.0),
                                    j.AdversarialGreedyNature],
                         ids=["iid_uniform", "adversarial_greedy"])
def test_a_pool_plays_a_subclassed_constant_experts_own_moves(nature):
    runs = []
    for first in (Ramp(0.1), PlainRamp()):
        sceptic = j.AggregatingSceptic([first, j.ConstantPredictor(0.9)])
        trace = j.run_protocol(nature(), j.ConstantPredictor(0.5), j.ConstantPredictor(0.5),
                               sceptic, BOUNDED_SQUARE, 50, seed=1)
        runs.append((trace.gamma_sceptic.tobytes(), sceptic.expert_cums.tobytes(),
                     float(sceptic.worst_eq8_slack).hex()))
    assert runs[0] == runs[1]
