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
                      IidBernoulliNature, Level1Sceptic, Level2Sceptic,
                      Level3Sceptic, NatureStrategy, PredictorStrategy,
                      ProtocolViolationError,
                      RunningMeanPredictor, ScepticStrategy, absolute_loss_game,
                      bounded_absolute_loss_game, bounded_square_loss_game,
                      log_loss_game, quartic_loss_game, run_protocol,
                      square_loss_game)
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


# ---------------------------------------------------------------------------
# nothing but the engine re-checks a move


def _aggregating():
    return AggregatingSceptic([ConstantPredictor(0.2), ConstantPredictor(0.7),
                               RunningMeanPredictor()])


# the aggregating pool checks each of its two constant experts once, at reset
RESET_CHECKS = {"aggregating": 2}


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
    game_factory, sceptic_factory, nature_factory, g1, g2 = RUNS[name]
    game = game_factory()
    calls = {"prediction": 0, "outcome": 0}
    validate_prediction, validate_outcome = Game.validate_prediction, Game.validate_outcome

    def count_prediction(self, gamma):
        calls["prediction"] += 1
        return validate_prediction(self, gamma)

    def count_outcome(self, omega):
        calls["outcome"] += 1
        return validate_outcome(self, omega)

    monkeypatch.setattr(Game, "validate_prediction", count_prediction)
    monkeypatch.setattr(Game, "validate_outcome", count_outcome)
    horizon = 40
    trace = run_protocol(nature_factory(), ConstantPredictor(g1), ConstantPredictor(g2),
                         sceptic_factory(), game, horizon, seed=3)
    assert len(trace) == horizon
    assert calls == {"prediction": 3 * horizon + RESET_CHECKS.get(name, 0), "outcome": horizon}
