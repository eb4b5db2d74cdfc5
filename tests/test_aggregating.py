"""Exponential-weights mixing, substitution, and the regret guarantee."""

import math

import numpy as np
import pytest

from jeffreys import (AggregatingSceptic, ConstantPredictor, ExpertPool,
                      MixabilityParams, MixabilityViolation, PoolCollapseError,
                      ReplayNature, aa_observe, bounded_absolute_loss_game,
                      bounded_square_loss_game, generalized_prediction,
                      log_loss_game, params_for, pool_mixer, quartic_loss_game,
                      run_protocol, square_loss_game, substitute, uniform_pool)
from jeffreys.aggregating import _substitute_numeric, log_sum_exp
from jeffreys.games import _lse1, _lse_rows


def test_pool_validation():
    with pytest.raises(ValueError):
        ExpertPool(np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        ExpertPool(np.array([0.9, 0.9]))
    with pytest.raises(ValueError):
        ExpertPool(np.array([0.5, math.nan]))
    pool = ExpertPool(np.array([0.25, 0.25]))  # deficient priors are fine
    assert len(pool) == 2


def test_log_sum_exp_handles_all_neginf():
    assert log_sum_exp(np.array([-math.inf, -math.inf])) == -math.inf


def test_params_are_eta_star_on_the_outcome_bounds():
    assert params_for(bounded_square_loss_game()) == MixabilityParams(2.0, 0.5)
    assert params_for(log_loss_game(m=2)) == MixabilityParams(1.0, 1.0)
    assert params_for(log_loss_game(m=3)) == MixabilityParams(1.0, 1.0)
    assert params_for(quartic_loss_game()) == MixabilityParams(0.5625, 16.0 / 9.0)


@pytest.mark.parametrize("make_game", [square_loss_game, bounded_absolute_loss_game],
                         ids=["unbounded", "not-mixable"])
def test_params_refused_without_a_positive_eta_star(make_game):
    with pytest.raises(MixabilityViolation):
        params_for(make_game())


# ---------------------------------------------------------------------------
# generalized prediction


def test_identical_experts_leave_point_unchanged():
    game = log_loss_game(m=2)
    lam = game.canonical_point(np.array([0.3, 0.7]))
    g = generalized_prediction(uniform_pool(4), np.tile(lam, (4, 1)), eta=1.0)
    assert np.allclose(g, lam, atol=1e-12)


def test_degenerate_weights_pick_single_expert():
    game = log_loss_game(m=2)
    lam1 = game.canonical_point(np.array([0.3, 0.7]))
    lam2 = game.canonical_point(np.array([0.9, 0.1]))
    pool = uniform_pool(2)
    pool.log_weights = np.array([0.0, -math.inf])
    g = generalized_prediction(pool, np.stack([lam1, lam2]), eta=1.0)
    assert np.allclose(g, lam1, atol=1e-12)


def test_bayes_mixture_value():
    game = log_loss_game(m=2)
    pts = np.stack([game.canonical_point(np.array([0.2, 0.8])),
                    game.canonical_point(np.array([0.8, 0.2]))])
    g = generalized_prediction(uniform_pool(2), pts, eta=1.0)
    assert np.allclose(g, [-math.log(0.5), -math.log(0.5)], atol=1e-12)


def test_collapsed_pool_raises():
    pool = uniform_pool(2)
    pool.log_weights = np.array([-math.inf, -math.inf])
    with pytest.raises(PoolCollapseError):
        generalized_prediction(pool, np.zeros((2, 2)), eta=1.0)


# ---------------------------------------------------------------------------
# substitution


def test_substitute_recovers_canonical_point():
    game = bounded_square_loss_game()
    g = game.canonical_point(0.37)
    gamma = substitute(game, g)
    assert gamma == pytest.approx(0.37, abs=1e-9)


def test_substitute_bayes_rule():
    game = log_loss_game(m=2)
    pts = np.stack([game.canonical_point(np.array([0.2, 0.8])),
                    game.canonical_point(np.array([0.8, 0.2]))])
    g = generalized_prediction(uniform_pool(2), pts, eta=1.0)
    gamma = substitute(game, g)
    assert np.allclose(gamma, [0.5, 0.5], atol=1e-12)


def test_substitute_domination_bounded_square():
    game = bounded_square_loss_game()
    pts = np.stack([game.canonical_point(0.3), game.canonical_point(0.7)])
    g = generalized_prediction(uniform_pool(2), pts, eta=2.0)
    gamma = substitute(game, g)
    for idx, omega in ((0, 0.0), (-1, 1.0)):
        assert (omega - gamma) ** 2 <= g[idx] + 1e-9


def test_substitute_domination_on_continuum():
    # the endpoint formula must dominate at every outcome, not just 0 and 1
    game = bounded_square_loss_game()
    rng = np.random.default_rng(5)
    omegas = np.linspace(0.0, 1.0, 501)
    for _ in range(25):
        k = rng.integers(2, 30)
        pool = ExpertPool(rng.dirichlet(np.ones(k)))
        gammas = rng.random(k)
        pts = np.stack([game.canonical_point(x) for x in gammas])
        g_ends = generalized_prediction(pool, pts, eta=2.0)
        gamma = substitute(game, g_ends)
        mix = np.log(np.dot(np.exp(pool.normalized_log_weights()),
                            np.exp(-2.0 * (omegas[None, :] - gammas[:, None]) ** 2)))
        g_all = -mix / 2.0
        assert np.max((omegas - gamma) ** 2 - g_all) <= 1e-9


def test_generic_search_agrees_with_closed_form():
    game = bounded_square_loss_game()
    pts = np.stack([game.canonical_point(0.2), game.canonical_point(0.9)])
    g_full = generalized_prediction(uniform_pool(2), pts, eta=2.0)
    assert _substitute_numeric(game, g_full, 1e-9) == pytest.approx(
        substitute(game, g_full), abs=1e-6)


def test_substitute_flags_excessive_eta():
    game = log_loss_game(m=2)
    pts = np.stack([game.canonical_point(np.array([0.05, 0.95])),
                    game.canonical_point(np.array([0.95, 0.05]))])
    g = generalized_prediction(uniform_pool(2), pts, eta=4.0)
    with pytest.raises(MixabilityViolation):
        substitute(game, g)


# ---------------------------------------------------------------------------
# the step/observe cycle


def _aa_step(pool, experts, game, eta):
    # one aggregated move; the pool's weights are not touched
    return pool_mixer(game, eta)(pool.normalized_log_weights(),
                                 np.asarray(experts, dtype=float))


def test_aa_step_single_expert():
    game = log_loss_game(m=2)
    gamma = _aa_step(uniform_pool(1), [np.array([0.3, 0.7])], game, eta=1.0)
    assert np.allclose(gamma, [0.3, 0.7], atol=1e-12)


def test_aa_step_identical_experts():
    game = bounded_square_loss_game()
    gamma = _aa_step(uniform_pool(3), [0.42, 0.42, 0.42], game, eta=2.0)
    assert gamma == pytest.approx(0.42, abs=1e-12)


def test_aa_observe_updates():
    pool = uniform_pool(2)
    before = pool.log_weights.copy()
    aa_observe(pool, np.zeros(2), eta=1.0)
    assert np.array_equal(pool.log_weights, before)

    aa_observe(pool, np.array([0.0, math.inf]), eta=1.0)
    assert pool.log_weights[1] == -math.inf

    pool = uniform_pool(2)
    aa_observe(pool, np.array([0.0, math.log(2.0)]), eta=1.0)
    w = np.exp(pool.normalized_log_weights())
    assert w[0] / w[1] == pytest.approx(2.0, abs=1e-12)


def test_aa_observe_eliminates_an_expert_with_a_nan_loss():
    pool = uniform_pool(3)
    aa_observe(pool, np.array([0.5, math.nan, math.inf]), eta=2.0)
    assert pool.log_weights[1] == pool.log_weights[2] == -math.inf
    assert math.isfinite(pool.log_weights[0])


def test_fused_row_reduction_matches_lse1_bit_for_bit():
    # the bounded-square mix reduces its two endpoint rows at once; each row
    # must be _lse1's answer to the last bit, at every pool size
    rng = np.random.default_rng(9)
    for k in range(1, 65):
        x = rng.normal(scale=rng.uniform(0.1, 50.0), size=(2, k))
        x[rng.random((2, k)) < 0.2] = -math.inf
        x[:, 0] = rng.normal(size=2)
        assert [v.hex() for v in _lse_rows(x)] == [_lse1(row).hex() for row in x]
    x[1] = -math.inf
    assert _lse_rows(x) == [_lse1(x[0]), -math.inf]


def _aggregate(experts, priors, outcomes):
    # the aggregating sceptic over constant experts, replaying the outcomes
    game = log_loss_game(m=2)
    sceptic = AggregatingSceptic([ConstantPredictor(e) for e in experts], priors=priors)
    trace = run_protocol(ReplayNature(outcomes), ConstantPredictor(experts[0]),
                         ConstantPredictor(experts[0]), sceptic, game, len(outcomes), seed=0)
    return sceptic, trace


def test_regret_slack_single_expert_is_zero():
    game = log_loss_game(m=2)
    rng = np.random.default_rng(2)
    expert = np.array([0.3, 0.7])
    outcomes = [int(rng.random() < 0.7) for _ in range(200)]
    sceptic, trace = _aggregate([expert], [1.0], outcomes)
    # with one expert at prior 1 the slack is L_expert(n) - L_sceptic(n)
    expert_cum = np.cumsum([game.loss(omega, expert) for omega in outcomes])
    assert np.max(np.abs(expert_cum - np.asarray(trace.cum_sceptic))) < 1e-9
    assert abs(sceptic.worst_eq8_slack) < 1e-9


def test_regret_slack_property_simulated():
    experts = [np.array([0.8, 0.2]), np.array([0.5, 0.5]), np.array([0.1, 0.9])]
    for seed in range(5):
        rng = np.random.default_rng(seed)
        outcomes = [int(rng.random() < 0.4) for _ in range(300)]
        sceptic, _ = _aggregate(experts, None, outcomes)
        assert sceptic.worst_eq8_slack >= -1e-9


def test_exhaustive_bayes_tree_oracle():
    """Stepwise aggregation must reproduce the marginal likelihood exactly.

    The oracle computes, for every outcome sequence, the mixture probability
    by direct products and sums; the aggregated log-loss must match its
    negative log to 1e-9.
    """
    game = log_loss_game(m=2)
    experts = [np.array([0.3, 0.7]), np.array([0.6, 0.4]), np.array([0.9, 0.1])]
    priors = np.array([0.5, 0.25, 0.25])
    n_steps = 8
    for code in range(2 ** n_steps):
        seq = [(code >> i) & 1 for i in range(n_steps)]
        pool = ExpertPool(priors)
        cum = 0.0
        for omega in seq:
            gamma = _aa_step(pool, experts, game, eta=1.0)
            cum += game.loss(omega, gamma)
            aa_observe(pool, np.array([game.loss(omega, e) for e in experts]),
                       eta=1.0)
        likelihood = sum(p * np.prod([e[w] for w in seq])
                         for p, e in zip(priors, experts))
        assert abs(cum - (-math.log(likelihood))) < 1e-9
