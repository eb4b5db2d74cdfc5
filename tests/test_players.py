"""Nature and predictor strategy behavior."""

import numpy as np
import pytest

from jeffreys import (AdversarialGreedyNature, ConstantNature,
                      ConstantPredictor, DriftPredictor, IidBernoulliNature,
                      IidUniformNature, NoisyTargetPredictor, ReplayNature,
                      RunningMeanPredictor, bounded_square_loss_game,
                      log_loss_game, nature_strategy, predictor_strategy)
from jeffreys.errors import ConfigError


def rng(seed=0):
    return np.random.default_rng(seed)


def test_constant_nature():
    n = ConstantNature(1.0)
    n.reset(bounded_square_loss_game(), rng(), 10)
    assert all(n.outcome(i, 0.1, 0.2, 0.3) == 1.0 for i in range(1, 11))


def test_bernoulli_nature_reproducible():
    game = bounded_square_loss_game()
    draws = []
    for _ in range(2):
        n = IidBernoulliNature(0.5)
        n.reset(game, rng(42), 50)
        draws.append([n.outcome(i, 0, 0, 0) for i in range(1, 51)])
    assert draws[0] == draws[1]
    assert set(draws[0]) == {0.0, 1.0}


def test_bernoulli_nature_emits_ints_for_log_loss():
    n = IidBernoulliNature(0.5)
    n.reset(log_loss_game(m=2), rng(1), 10)
    assert all(isinstance(n.outcome(i, 0, 0, 0), int) for i in range(1, 11))


def test_uniform_nature_range():
    n = IidUniformNature(0.25, 0.75)
    n.reset(bounded_square_loss_game(), rng(3), 100)
    vals = [n.outcome(i, 0, 0, 0) for i in range(1, 101)]
    assert all(0.25 <= v <= 0.75 for v in vals)
    with pytest.raises(ConfigError):
        IidUniformNature(1.0, 0.0)


def test_adversarial_greedy_prefers_far_outcome_and_breaks_ties_low():
    game = bounded_square_loss_game()
    n = AdversarialGreedyNature()
    n.reset(game, rng(), 10)
    # sceptic at 0.9: outcome 0 hurts it most
    assert n.outcome(1, 0.9, 0.9, 0.9) == 0.0
    # sceptic at the midpoint of {0, 1}: tie, resolved toward 0
    assert n.outcome(2, 0.0, 1.0, 0.5) == 0.0


def test_adversarial_greedy_with_given_candidates():
    game = bounded_square_loss_game()
    n = AdversarialGreedyNature(candidates=[0.0, 0.5, 1.0])
    n.reset(game, rng(), 10)
    # sceptic at 0.25 against predictors at 0.5: outcome 1 hurts it most
    assert n.outcome(1, 0.5, 0.5, 0.25) == 1.0
    with pytest.raises(ConfigError):
        AdversarialGreedyNature(candidates=[0.0, 1.5]).reset(game, rng(), 10)


def test_replay_nature_exhaustion_truncates_run():
    from jeffreys import ConstantPredictor, Level1Sceptic, run_protocol
    from jeffreys import absolute_loss_game
    nature = ReplayNature([0.0, 1.0, 1.0])
    with pytest.warns(UserWarning):
        trace = run_protocol(nature, ConstantPredictor(0.0), ConstantPredictor(1.0),
                             Level1Sceptic(), absolute_loss_game(), 10, seed=0)
    assert len(trace) == 3
    assert trace.truncated


def test_constant_predictor_scalar_and_vector():
    p = ConstantPredictor(0.3)
    p.reset(bounded_square_loss_game(), rng(), 5)
    assert p.predict(1) == 0.3
    p = ConstantPredictor(0.2)
    p.reset(log_loss_game(m=2), rng(), 5)
    assert np.allclose(p.predict(1), [0.8, 0.2])


def test_running_mean_predictor():
    p = RunningMeanPredictor(initial=0.4)
    p.reset(bounded_square_loss_game(), rng(), 5)
    assert p.predict(1) == 0.4
    p.observe(1, 0.0)
    p.observe(2, 1.0)
    assert p.predict(3) == 0.5


def test_running_mean_log_loss_stays_interior():
    p = RunningMeanPredictor()
    p.reset(log_loss_game(m=2), rng(), 5)
    for i in range(1, 5):
        p.observe(i, 1)
    probs = p.predict(5)
    assert probs[1] > probs[0] > 0.0


def test_noisy_target_converging_pair():
    game = bounded_square_loss_game()
    sums = []
    for seed in range(30):
        ss = np.random.SeedSequence(seed).spawn(2)
        p1 = NoisyTargetPredictor(0.6, sigma=0.15)
        p2 = NoisyTargetPredictor(0.6, sigma=0.15)
        p1.reset(game, np.random.default_rng(ss[0]), 5000)
        p2.reset(game, np.random.default_rng(ss[1]), 5000)
        gaps = np.array([p1.predict(n) - p2.predict(n) for n in range(1, 5001)])
        sums.append(float(np.sum(gaps ** 2)))
    assert max(sums) <= 1.0


def test_drift_predictor_clamps():
    p = DriftPredictor(0.9, 0.05)
    p.reset(bounded_square_loss_game(), rng(), 10)
    assert p.predict(1) == 0.9
    assert p.predict(10) == 1.0


def test_strategy_factories():
    assert isinstance(nature_strategy("constant", {"omega": 0.5}), ConstantNature)
    assert isinstance(predictor_strategy("running_mean"), RunningMeanPredictor)
    with pytest.raises(ConfigError):
        nature_strategy("weather")
    with pytest.raises(ConfigError):
        predictor_strategy("oracle")
