"""The single validator: the engine checks every announced move exactly once.

Covers the validators' acceptance set (a seeded property test), the
engine's rejection of each player's out-of-domain moves, the adversarial
Nature's candidate check at reset, and a count showing that nothing else
in a run re-checks a move.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jeffreys import (AdversarialGreedyNature, AggregatingSceptic, ConfigError,
                      ConstantNature, ConstantPredictor, Game,
                      IidBernoulliNature, IidUniformNature, Level1Sceptic, Level2Sceptic,
                      Level3Sceptic, NatureStrategy, PredictorStrategy,
                      ProtocolViolationError,
                      RunningMeanPredictor, ScepticStrategy, absolute_loss_game,
                      bounded_absolute_loss_game, bounded_square_loss_game,
                      log_loss_game, quartic_loss_game, run_protocol,
                      square_loss_game)
from jeffreys import protocol
from jeffreys.errors import DomainError

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)

SCALAR_GAMES = {
    "absolute": absolute_loss_game(grid_size=9),
    "square": square_loss_game(grid_size=9),
    "bounded_square": bounded_square_loss_game(grid_size=9),
    "bounded_absolute": bounded_absolute_loss_game(grid_size=9),
    "quartic": quartic_loss_game(outcome_grid_size=9, prediction_grid_size=9),
}
LOG_GAMES = {m: log_loss_game(m=m, grid_size=9) for m in (2, 3, 4)}

any_float = st.floats(allow_nan=True, allow_infinity=True)
scalar_moves = st.one_of(any_float, st.floats(-2.0, 2.0), any_float.map(np.float64),
                         st.integers(-3, 3))


def _accepts(validate, value) -> bool:
    try:
        validate(value)
    except DomainError:
        return False
    return True


@PROPERTY
@given(kind=st.sampled_from(sorted(SCALAR_GAMES)), value=scalar_moves)
def test_scalar_validators_accept_exactly_finite_in_bounds_values(kind, value):
    game = SCALAR_GAMES[kind]
    outcome_bounds, prediction_bounds = game.bounds()
    for validate, bounds in ((game.validate_outcome, outcome_bounds),
                             (game.validate_prediction, prediction_bounds)):
        lo, hi = bounds if bounds is not None else (-math.inf, math.inf)
        assert _accepts(validate, value) == (math.isfinite(value) and lo <= value <= hi)


@PROPERTY
@given(m=st.sampled_from(sorted(LOG_GAMES)),
       value=st.one_of(st.integers(-2, 6), any_float, st.floats(-1.0, 5.0),
                       st.integers(-2, 6).map(float)))
def test_log_loss_outcome_validator_accepts_exactly_0_to_m_minus_1(m, value):
    expected = math.isfinite(value) and value == int(value) and 0 <= value <= m - 1
    assert _accepts(LOG_GAMES[m].validate_outcome, value) == expected


def _simplex_vectors(m):
    # near-simplex vectors: normalized weights, then one entry nudged by up
    # to 1e-11, so both sides of the 1e-12 sum tolerance are drawn
    weights = st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m).filter(
        lambda w: sum(w) > 0.0)
    nudge = st.sampled_from([0.0, 0.0, 5e-13, -5e-13, 1e-11, -1e-11, 1e-300])
    return st.tuples(weights, nudge).map(
        lambda t: [x / sum(t[0]) for x in t[0][:-1]] + [t[0][-1] / sum(t[0]) + t[1]])


def _probability_vectors(m):
    return st.one_of(st.lists(any_float, min_size=m, max_size=m),
                     st.lists(st.floats(-0.5, 1.5), min_size=m, max_size=m),
                     _simplex_vectors(m))


@PROPERTY
@given(data=st.data(), m=st.sampled_from(sorted(LOG_GAMES)))
def test_log_loss_prediction_validator_accepts_exactly_the_simplex(data, m):
    vector = np.array(data.draw(_probability_vectors(m)))
    expected = (bool(np.all(np.isfinite(vector))) and bool(np.all(vector >= 0.0))
                and abs(float(vector.sum()) - 1.0) <= 1e-12)
    assert _accepts(LOG_GAMES[m].validate_prediction, vector) == expected


def test_nan_probability_vectors_are_rejected():
    for game, vector in ((LOG_GAMES[2], [math.nan, 0.5]), (LOG_GAMES[2], [math.nan, math.nan]),
                         (LOG_GAMES[3], [math.nan, 0.5, 0.5])):
        with pytest.raises(DomainError, match="prediction must be a probability vector"):
            game.validate_prediction(np.array(vector))


# ---------------------------------------------------------------------------
# the engine rejects each player's out-of-domain move, naming player and step

BAD_STEP = 3


NO_BAD = object()  # a player that only makes good moves; None is a bad move


class _Predictor(PredictorStrategy):
    def __init__(self, good, bad=NO_BAD):
        self.good, self.bad = good, bad

    def predict(self, n):
        return self.bad if n == BAD_STEP and self.bad is not NO_BAD else self.good


class _Sceptic(ScepticStrategy):
    def __init__(self, good, bad=NO_BAD):
        self.good, self.bad = good, bad

    def predict(self, n, gamma1, gamma2):
        return self.bad if n == BAD_STEP and self.bad is not NO_BAD else self.good


class _Nature(NatureStrategy):
    def __init__(self, good, bad=NO_BAD):
        self.good, self.bad = good, bad

    def outcome(self, n, gamma1, gamma2, gamma_sceptic):
        return self.bad if n == BAD_STEP and self.bad is not NO_BAD else self.good


_GOOD = {
    "square": (square_loss_game, 0.5, 0.5),
    "bounded_square": (bounded_square_loss_game, 0.5, 0.5),
    "bounded_absolute": (bounded_absolute_loss_game, 0.5, 0.5),
    "quartic": (lambda: quartic_loss_game(65, 65), 0.5, 0.5),
    "log2": (lambda: log_loss_game(m=2), np.array([0.5, 0.5]), 1),
    "log3": (lambda: log_loss_game(m=3), np.array([0.2, 0.3, 0.5]), 2),
}

# (game, mover, bad move, message after "step 3: <mover>: ")
VIOLATIONS = [
    ("square", "predictor 1", math.nan, "prediction nan is not finite"),
    ("square", "predictor 2", math.inf, "prediction inf is not finite"),
    ("square", "sceptic", -math.inf, "prediction -inf is not finite"),
    ("square", "nature", math.inf, "outcome inf is not finite"),
    ("bounded_square", "predictor 1", 1.5, "prediction 1.5 outside (0.0, 1.0)"),
    ("bounded_square", "predictor 2", -1, "prediction -1 outside (0.0, 1.0)"),
    ("bounded_square", "sceptic", math.nan, "prediction nan is not finite"),
    ("bounded_square", "nature", -math.inf, "outcome -inf is not finite"),
    ("bounded_absolute", "sceptic", 2, "prediction 2 outside (0.0, 1.0)"),
    ("bounded_absolute", "nature", math.nan, "outcome nan is not finite"),
    ("quartic", "predictor 1", -math.inf, "prediction -inf is not finite"),
    ("quartic", "sceptic", 1.5, "prediction 1.5 outside (-1.0, 1.0)"),
    ("quartic", "nature", 1.5, "outcome 1.5 outside (-1.0, 1.0)"),
    ("log2", "predictor 1", np.array([0.7, 0.7]), "prediction must be a probability vector"),
    ("log2", "predictor 2", np.array([-0.1, 1.1]), "prediction must be a probability vector"),
    ("log2", "sceptic", np.array([math.nan, 0.5]), "prediction must be a probability vector"),
    ("log2", "predictor 2", 0.5, "prediction must be a length-2 vector"),
    ("log2", "nature", 2, "outcome 2 not in 0..1"),
    ("log2", "nature", -1, "outcome -1 not in 0..1"),
    ("log2", "nature", 0.5, "outcome 0.5 not in 0..1"),
    ("log3", "sceptic", np.array([0.7, 0.7]), "prediction must be a length-3 vector"),
    ("log3", "predictor 1", np.array([0.5, 0.5, 0.5]), "prediction must be a probability vector"),
    ("log3", "nature", math.nan, "outcome nan not in 0..2"),
    ("log3", "nature", 3, "outcome 3 not in 0..2"),
    # moves that are not one number
    ("square", "predictor 1", np.array([0.5]), "prediction array([0.5]) is not a number"),
    ("square", "predictor 2", [0.5], "prediction [0.5] is not a number"),
    ("square", "sceptic", "x", "prediction 'x' is not a number"),
    ("bounded_absolute", "predictor 1", None, "prediction None is not a number"),
    ("square", "nature", np.array([0.5]), "outcome array([0.5]) is not a number"),
    ("bounded_square", "nature", [0.5], "outcome [0.5] is not a number"),
    ("quartic", "nature", "x", "outcome 'x' is not a number"),
    ("quartic", "nature", None, "outcome None is not a number"),
    ("log2", "nature", "x", "outcome 'x' is not a number"),
    ("log2", "predictor 1", "x", "prediction must be a length-2 vector"),
    ("log3", "predictor 2", "x", "prediction must be a length-3 vector"),
    ("log3", "nature", None, "outcome None is not a number"),
    # a vector of the wrong length is refused for its length, as for m > 2
    ("log2", "predictor 1", np.array([0.5, 0.3, 0.2]), "prediction must be a length-2 vector"),
    # a vector of strings, which float() would read as numbers, as a string move is
    ("log2", "predictor 1", ["0.5", "0.5"], "prediction '0.5' is not a number"),
    ("log2", "sceptic", np.array(["0.5", "0.5"]), "prediction '0.5' is not a number"),
    ("log3", "predictor 2", ["0.5", "0.25", "0.25"], "prediction '0.5' is not a number"),
    ("log3", "sceptic", [0.5, 0.25, "0.25"], "prediction '0.25' is not a number"),
]


@pytest.mark.parametrize("game_name, mover, bad, message", VIOLATIONS)
def test_out_of_domain_move_names_player_and_step(game_name, mover, bad, message):
    factory, gamma, omega = _GOOD[game_name]
    players = dict(
        nature=_Nature(omega, bad if mover == "nature" else NO_BAD),
        predictor1=_Predictor(gamma, bad if mover == "predictor 1" else NO_BAD),
        predictor2=_Predictor(gamma, bad if mover == "predictor 2" else NO_BAD),
        sceptic=_Sceptic(gamma, bad if mover == "sceptic" else NO_BAD),
    )
    with pytest.raises(ProtocolViolationError) as err:
        run_protocol(game=factory(), horizon=6, seed=0, **players)
    assert err.value.step == BAD_STEP
    assert str(err.value) == f"step {BAD_STEP}: {mover}: {message}"
    assert isinstance(err.value.__cause__, DomainError)


def test_adversarial_candidate_out_of_domain_is_a_config_error_at_reset():
    nature = AdversarialGreedyNature(candidates=[0.0, 2.0])
    with pytest.raises(ConfigError, match=r"adversarial_greedy candidate: outcome 2.0 "
                                          r"outside \(0.0, 1.0\)"):
        nature.reset(bounded_square_loss_game(), np.random.default_rng(0), 10)
    with pytest.raises(ConfigError, match="outcome 5 not in 0..1"):
        AdversarialGreedyNature(candidates=[5]).reset(log_loss_game(m=2),
                                                       np.random.default_rng(0), 10)


def test_a_wrong_length_column_is_refused_and_the_loop_names_the_move(monkeypatch):
    # column play offers predictor 1's (6, 3) column first; the column test
    # refuses its shape, and the loop names the move
    verdicts, accepts = [], Game.accepts_predictions

    def spy(self, gammas):
        verdicts.append((gammas.shape, accepts(self, gammas)))
        return verdicts[-1][1]

    monkeypatch.setattr(Game, "accepts_predictions", spy)
    with pytest.raises(ProtocolViolationError) as err:
        run_protocol(ConstantNature(1), ConstantPredictor(np.array([0.5, 0.3, 0.2])),
                     ConstantPredictor(np.array([0.5, 0.5])), Level2Sceptic(0.0),
                     log_loss_game(m=2), 6, seed=0)
    assert verdicts == [((6, 3), False)]
    assert str(err.value) == "step 1: predictor 1: prediction must be a length-2 vector"


# ---------------------------------------------------------------------------
# a pool's inner moves are refused as a player's are

def _pool(gamma, bad):
    return AggregatingSceptic([ConstantPredictor(gamma), _Predictor(gamma, bad)])


def _lift(gamma, bad):
    return Level3Sceptic(_Sceptic(gamma, bad), k_max=4)


@pytest.mark.parametrize("game_name, sceptic, who, bad, message", [
    ("bounded_square", _pool, "aggregating expert 2", 5.0, "prediction 5.0 outside (0.0, 1.0)"),
    ("bounded_square", _pool, "aggregating expert 2", math.inf, "prediction inf is not finite"),
    ("log2", _pool, "aggregating expert 2", np.array([0.7, 0.7]),
     "prediction must be a probability vector"),
    # NaN throughout only eliminates the expert; NaN in part is refused
    ("log2", _pool, "aggregating expert 2", np.array([math.nan, 0.5]),
     "prediction must be a probability vector"),
    ("log2", _pool, "aggregating expert 2", np.array([0.5, 0.3, 0.2]),
     "prediction must be a length-2 vector"),
    ("bounded_square", _lift, "level-3 base", 5.0, "prediction 5.0 outside (0.0, 1.0)"),
    ("log2", _lift, "level-3 base", math.nan, "prediction must be a length-2 vector"),
    # a number's string after the number itself: the same value once read as a float
    ("bounded_square", _pool, "aggregating expert 2", "0.5", "prediction '0.5' is not a number"),
    ("bounded_square", _lift, "level-3 base", "0.5", "prediction '0.5' is not a number"),
], ids=["pool-outside", "pool-inf", "pool-off-simplex", "pool-part-nan", "pool-wrong-length",
        "lift-outside", "lift-not-a-vector", "pool-string", "lift-string"])
def test_a_pools_inner_bad_move_ends_the_run_at_its_step(game_name, sceptic, who, bad,
                                                        message):
    factory, gamma, omega = _GOOD[game_name]
    with pytest.raises(ProtocolViolationError) as err:
        run_protocol(_Nature(omega), ConstantPredictor(gamma), ConstantPredictor(gamma),
                     sceptic(gamma, bad), factory(), 20, seed=1)
    assert str(err.value) == f"step {BAD_STEP}: {who}: {message}"
    assert isinstance(err.value.__cause__, DomainError)


class _StringHalf(PredictorStrategy):
    def predict(self, n):
        return "0.5"


def test_a_pool_refuses_an_expert_that_plays_a_string_as_the_engine_does():
    sceptic = AggregatingSceptic([ConstantPredictor(0.2), _StringHalf()])
    with pytest.raises(ProtocolViolationError) as err:
        run_protocol(IidUniformNature(), ConstantPredictor(0.5), ConstantPredictor(0.5),
                     sceptic, bounded_square_loss_game(), 20, seed=1)
    assert str(err.value) == "step 1: aggregating expert 2: prediction '0.5' is not a number"
    assert isinstance(err.value.__cause__, DomainError)


class _StringCoin(PredictorStrategy):
    def predict(self, n):
        return ["0.5", "0.5"]


def test_a_vector_of_strings_against_the_adversary_is_refused_at_its_step():
    # the adversary scores the moves it is shown: the engine refuses the
    # strings before any loss is taken of them
    with pytest.raises(ProtocolViolationError) as err:
        run_protocol(AdversarialGreedyNature(), _StringCoin(),
                     ConstantPredictor(np.array([0.8, 0.2])), Level2Sceptic(0.0),
                     log_loss_game(m=2), 20, seed=1)
    assert str(err.value) == "step 1: predictor 1: prediction '0.5' is not a number"


# ---------------------------------------------------------------------------
# nothing but the engine re-checks a move


def _aggregating():
    return AggregatingSceptic([ConstantPredictor(0.2), ConstantPredictor(0.7),
                               RunningMeanPredictor()])


# the aggregating pool checks each of its two constant experts once at each
# reset (its column of moves passes the column test): a run is reset before
# the column attempt, before each outcome column guessed against a replying
# Nature, and before the loop; the lift, which plays columns, checks its
# base's column once, beside the three the engine checks
INNER_CHECKS = {"aggregating": 2}
INNER_COLUMN_CHECKS = {"level3": 1}


RUNS = {
    "level2 closed form, adversarial nature": (
        square_loss_game, lambda: Level2Sceptic(alpha=0.4), AdversarialGreedyNature, 0.0, 1.0),
    "level2 numeric": (
        lambda: bounded_absolute_loss_game(grid_size=33), lambda: Level2Sceptic(alpha=0.0),
        lambda: IidBernoulliNature(0.5), 0.2, 0.8),
    "level1, adversarial nature": (
        absolute_loss_game, Level1Sceptic, AdversarialGreedyNature, 0.0, 1.0),
    "level3": (
        bounded_square_loss_game, lambda: Level3Sceptic(Level2Sceptic(0.0), k_max=4),
        lambda: ConstantNature(0.9), 0.1, 0.9),
    "aggregating": (
        bounded_square_loss_game, _aggregating, AdversarialGreedyNature, 0.1, 0.9),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_each_move_is_validated_exactly_once(name, monkeypatch):
    # per move where the loop plays the run, the aggregating run with its
    # learning expert among these; per column, once in each round, where
    # columns play it: the column checks then see each round's columns once,
    # the moves' validators only the sceptics' own checks
    game_factory, sceptic_factory, nature_factory, g1, g2 = RUNS[name]
    game = game_factory()
    calls = {"prediction": 0, "outcome": 0, "prediction column": 0, "outcome column": 0}

    def count(key, method):
        def counted(self, move):
            calls[key] += 1
            return method(self, move)
        monkeypatch.setattr(Game, method.__name__, counted)

    count("prediction", Game.validate_prediction)
    count("outcome", Game.validate_outcome)
    count("prediction column", Game.accepts_predictions)
    count("outcome column", Game.accepts_outcomes)
    loop, reset = protocol._play_loop, protocol._reset
    looped, resets = [], []
    monkeypatch.setattr(protocol, "_play_loop", lambda *args: looped.append(1) or loop(*args))
    monkeypatch.setattr(protocol, "_reset", lambda *args: resets.append(1) or reset(*args))
    horizon = 40
    trace = run_protocol(nature_factory(), ConstantPredictor(g1), ConstantPredictor(g2),
                         sceptic_factory(), game, horizon, seed=3)
    assert len(trace) == horizon
    assert bool(looped) == (name == "aggregating")
    # the run's first reset, one per guessed outcome column, and the loop's
    rounds = len(resets) - 1 - len(looped)
    steps = horizon if looped else 0
    moves = {"prediction": 3 * steps + INNER_CHECKS.get(name, 0) * len(resets),
             "outcome": steps}
    if looped:
        assert {key: calls[key] for key in moves} == moves
    elif rounds:
        # level 1 reads the outcomes: the first attempt checks the predictors'
        # two columns, and each guessed round its guess, the three move
        # columns and the reply
        assert calls == {**moves, "prediction column": 2 + 3 * rounds,
                         "outcome column": 2 * rounds}
    else:
        assert calls == {**moves, "prediction column": 3 + INNER_COLUMN_CHECKS.get(name, 0),
                         "outcome column": 1}
