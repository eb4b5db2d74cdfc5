"""Exponential-weights mixing, substitution, and the regret guarantee."""

import math
import tracemalloc

import numpy as np
import pytest

from jeffreys import (AggregatingSceptic, ConstantNature, ConstantPredictor, DriftPredictor,
                      ExpertPool, IidBernoulliNature, IidUniformNature, JeffreysError,
                      MixabilityParams, MixabilityViolation, NatureStrategy,
                      NoisyTargetPredictor, PoolCollapseError, PredictorStrategy, ReplayNature,
                      RunningMeanPredictor,
                      aa_observe, bounded_absolute_loss_game, bounded_square_loss_game,
                      fixed_pool_mixer, log_loss_game, params_for, quartic_loss_game,
                      run_protocol, square_loss_game, substitute, verify_run)
from jeffreys.aggregating import DOMINATION_TOL, _generalized, _substitute_numeric
from jeffreys.games import _lse1, _lse_rows
from jeffreys.sceptics import EQ8_BLOCK
from pool_reference import PerStepAggregating


def _uniform(k):
    return ExpertPool(np.full(k, 1.0 / k))


def _mixed(pool, points, eta):
    # the pool's generalized prediction over the experts' loss profiles
    return _generalized(pool.normalized_log_weights(), np.asarray(points, dtype=float), eta)


def test_pool_validation():
    with pytest.raises(ValueError):
        ExpertPool(np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        ExpertPool(np.array([0.9, 0.9]))
    with pytest.raises(ValueError):
        ExpertPool(np.array([0.5, math.nan]))
    pool = ExpertPool(np.array([0.25, 0.25]))  # deficient priors are fine
    assert len(pool) == 2


def test_lse1_handles_all_neginf():
    assert _lse1(np.array([-math.inf, -math.inf])) == -math.inf


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
    g = _mixed(_uniform(4), np.tile(lam, (4, 1)), eta=1.0)
    assert np.allclose(g, lam, atol=1e-12)


def test_degenerate_weights_pick_single_expert():
    game = log_loss_game(m=2)
    lam1 = game.canonical_point(np.array([0.3, 0.7]))
    lam2 = game.canonical_point(np.array([0.9, 0.1]))
    pool = _uniform(2)
    pool.log_weights = np.array([0.0, -math.inf])
    g = _mixed(pool, np.stack([lam1, lam2]), eta=1.0)
    assert np.allclose(g, lam1, atol=1e-12)


def test_bayes_mixture_value():
    game = log_loss_game(m=2)
    pts = np.stack([game.canonical_point(np.array([0.2, 0.8])),
                    game.canonical_point(np.array([0.8, 0.2]))])
    g = _mixed(_uniform(2), pts, eta=1.0)
    assert np.allclose(g, [-math.log(0.5), -math.log(0.5)], atol=1e-12)


def test_collapsed_pool_raises():
    pool = _uniform(2)
    pool.log_weights = np.array([-math.inf, -math.inf])
    with pytest.raises(PoolCollapseError):
        pool.normalized_log_weights()


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
    g = _mixed(_uniform(2), pts, eta=1.0)
    gamma = substitute(game, g)
    assert np.allclose(gamma, [0.5, 0.5], atol=1e-12)


def test_substitute_domination_bounded_square():
    game = bounded_square_loss_game()
    pts = np.stack([game.canonical_point(0.3), game.canonical_point(0.7)])
    g = _mixed(_uniform(2), pts, eta=2.0)
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
        g_ends = _mixed(pool, pts, eta=2.0)
        gamma = substitute(game, g_ends)
        mix = np.log(np.dot(np.exp(pool.normalized_log_weights()),
                            np.exp(-2.0 * (omegas[None, :] - gammas[:, None]) ** 2)))
        g_all = -mix / 2.0
        assert np.max((omegas - gamma) ** 2 - g_all) <= 1e-9


def test_generic_search_agrees_with_closed_form():
    game = bounded_square_loss_game()
    pts = np.stack([game.canonical_point(0.2), game.canonical_point(0.9)])
    g_full = _mixed(_uniform(2), pts, eta=2.0)
    assert _substitute_numeric(game, g_full, 1e-9) == pytest.approx(
        substitute(game, g_full), abs=1e-6)


def test_substitute_flags_excessive_eta():
    game = log_loss_game(m=2)
    pts = np.stack([game.canonical_point(np.array([0.05, 0.95])),
                    game.canonical_point(np.array([0.95, 0.05]))])
    g = _mixed(_uniform(2), pts, eta=4.0)
    with pytest.raises(MixabilityViolation):
        substitute(game, g)


# ---------------------------------------------------------------------------
# the step/observe cycle


def _aa_step(pool, experts, game, eta):
    # one aggregated move; the pool's weights are not touched
    preds = np.asarray(experts, dtype=float)
    return fixed_pool_mixer(game, eta, preds, DOMINATION_TOL)(pool.normalized_log_weights())


def test_aa_step_single_expert():
    game = log_loss_game(m=2)
    gamma = _aa_step(_uniform(1), [np.array([0.3, 0.7])], game, eta=1.0)
    assert np.allclose(gamma, [0.3, 0.7], atol=1e-12)


def test_aa_step_identical_experts():
    game = bounded_square_loss_game()
    gamma = _aa_step(_uniform(3), [0.42, 0.42, 0.42], game, eta=2.0)
    assert gamma == pytest.approx(0.42, abs=1e-12)


def test_aa_observe_updates():
    pool = _uniform(2)
    before = pool.log_weights.copy()
    aa_observe(pool, np.zeros(2), eta=1.0)
    assert np.array_equal(pool.log_weights, before)

    aa_observe(pool, np.array([0.0, math.inf]), eta=1.0)
    assert pool.log_weights[1] == -math.inf

    pool = _uniform(2)
    aa_observe(pool, np.array([0.0, math.log(2.0)]), eta=1.0)
    w = np.exp(pool.normalized_log_weights())
    assert w[0] / w[1] == pytest.approx(2.0, abs=1e-12)


def test_aa_observe_eliminates_an_expert_with_a_nan_loss():
    pool = _uniform(3)
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


def test_expert_with_a_probability_below_1e_300_is_charged_its_loss():
    game = log_loss_game(m=2)
    expert = np.array([1.0, 1e-310])
    sceptic, _ = _aggregate([expert], [1.0], [1, 1, 1])
    assert sceptic.expert_cums[0] == pytest.approx(3 * game.loss(1, expert), rel=1e-12)
    assert sceptic.expert_cums[0] == pytest.approx(2141.40, abs=0.01)


def test_subnormal_prior_has_a_finite_regret_penalty():
    # 1 / 5e-324 overflows; the penalty is C (-ln p) = 0.5 * 1074 ln 2, and
    # with one expert the mixture plays its move, so that is the slack
    sceptic = AggregatingSceptic([ConstantPredictor(0.4)], priors=[5e-324])
    run_protocol(ConstantNature(0.3), ConstantPredictor(0.0), ConstantPredictor(1.0), sceptic,
                 bounded_square_loss_game(), 5, seed=0)
    assert sceptic.worst_eq8_slack == pytest.approx(0.5 * 1074 * math.log(2.0), rel=1e-12)
    assert sceptic.worst_eq8_slack == pytest.approx(372.2, abs=0.05)


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


# ---------------------------------------------------------------------------
# the block-folded eq8 audit against the per-step reference, bit for bit

_SPREAD7 = (np.arange(7) + 1.0) / 8.0
_COIN = np.array([0.5, 0.5])


def _log_experts(probs):
    return [ConstantPredictor(np.array([1.0 - p, p])) for p in probs]


def _pool_case(game, experts, fixed, nature, horizon, seed, priors=None):
    return game, experts, fixed, nature, horizon, seed, priors


def _criterion4_case(game_name, seed):
    # acceptance criterion 4's pool and Nature for this seed, N = 10^4
    k = 2 + seed % 39
    spread = (np.arange(k) + 1.0) / (k + 1.0)
    if game_name == "log_loss":
        return _pool_case(log_loss_game(m=2), lambda: _log_experts(spread), _COIN,
                          IidBernoulliNature(0.1 + 0.8 * seed / 99.0), 10_000, seed)
    return _pool_case(bounded_square_loss_game(),
                      lambda: [ConstantPredictor(p) for p in spread], 0.5,
                      IidUniformNature(0.0, 1.0), 10_000, seed)


def _horizon_case(game_name, horizon):
    if game_name == "log_loss":
        return _pool_case(log_loss_game(m=2), lambda: _log_experts(_SPREAD7), _COIN,
                          IidBernoulliNature(0.3), horizon, 11)
    return _pool_case(bounded_square_loss_game(),
                      lambda: [ConstantPredictor(p) for p in _SPREAD7], 0.5,
                      IidUniformNature(0.0, 1.0), horizon, 12)


class _NanFrom(PredictorStrategy):
    # an expert whose prediction turns NaN at step ``start``: its loss is NaN,
    # its weight is eliminated, and the eq8 min skips its NaN cumulative loss
    def __init__(self, start):
        self.start = start

    def predict(self, n):
        return math.nan if n >= self.start else 0.4


EQUIVALENCE_CASES = {
    # the aggregating pool locks
    "log_loss_k7": lambda: _horizon_case("log_loss", 2000),
    "bounded_square_k7": lambda: _horizon_case("bounded_square", 2000),
    "learners": lambda: _pool_case(
        bounded_square_loss_game(),
        lambda: [RunningMeanPredictor(0.5), DriftPredictor(0.1, 0.001),
                 NoisyTargetPredictor(0.6, 0.15), ConstantPredictor(0.3)],
        0.5, IidUniformNature(0.2, 0.9), 1000, 13),
    "eliminated": lambda: _pool_case(log_loss_game(m=2),
                                     lambda: _log_experts((0.0, 0.3, 0.5, 0.8)), _COIN,
                                     IidBernoulliNature(0.6), 1000, 14),
    "quartic": lambda: _pool_case(quartic_loss_game(outcome_grid_size=65),
                                  lambda: [ConstantPredictor(g) for g in (-0.6, 0.0, 0.4)],
                                  0.0, IidUniformNature(-1.0, 1.0), 60, 16),
    "nan_expert": lambda: _pool_case(
        bounded_square_loss_game(), lambda: [_NanFrom(EQ8_BLOCK + 5), ConstantPredictor(0.3),
                                             ConstantPredictor(0.8)],
        0.5, IidUniformNature(0.0, 1.0), 2 * EQ8_BLOCK, 19),
    # deficient priors on a log-loss pool whose weights are anchored many times
    "deficient_priors": lambda: _pool_case(log_loss_game(m=2),
                                           lambda: _log_experts(_SPREAD7), _COIN,
                                           IidBernoulliNature(0.05), 3000, 18,
                                           priors=np.full(7, 0.1)),
    # every expert eliminated by step 3: the pool collapses at step 4
    "collapse": lambda: _pool_case(log_loss_game(m=2), lambda: _log_experts((0.0, 1.0)),
                                   _COIN, ReplayNature([0, 0, 1, 0, 1]), 5, 3),
    **{f"criterion4_{game_name}_seed{seed}": (lambda g=game_name, s=seed: _criterion4_case(g, s))
       for game_name in ("log_loss", "bounded_square") for seed in (0, 38, 57)},
    **{f"horizon_{game_name}_{horizon}": (lambda g=game_name, h=horizon: _horizon_case(g, h))
       for game_name in ("log_loss", "bounded_square")
       for horizon in (EQ8_BLOCK - 1, EQ8_BLOCK, EQ8_BLOCK + 1, 3 * EQ8_BLOCK + 7)},
}


def _play_pool(cls, case, record=False):
    # (trace or None, the failure's (class, step) or None, the sceptic, and
    # with ``record`` the sceptic's worst eq8 slack after each step it observed)
    game, experts, fixed, nature, horizon, seed, priors = case
    sceptic = cls(experts(), priors=priors)
    running, steps = [], []
    predict, observe = sceptic.predict, sceptic.observe

    def counted(n, gamma1, gamma2):
        steps.append(n)
        return predict(n, gamma1, gamma2)

    def recorded(n, omega):
        observe(n, omega)
        running.append(sceptic.worst_eq8_slack)
    sceptic.predict = counted
    if record:
        sceptic.observe = recorded
    try:
        trace = run_protocol(nature, ConstantPredictor(fixed), ConstantPredictor(fixed),
                             sceptic, game, horizon, seed=seed)
    except JeffreysError as exc:
        return None, (type(exc), steps[-1]), sceptic, running
    return trace, None, sceptic, running


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_CASES))
def test_folded_audit_matches_the_per_step_reference(name):
    # the same moves, the same failure at the same step, the same worst eq8
    # slack and cumulative sums to the last bit, and the step of the worst slack
    trace, failure, ours, _ = _play_pool(AggregatingSceptic, EQUIVALENCE_CASES[name]())
    ref_trace, ref_failure, ref, running = _play_pool(PerStepAggregating,
                                                      EQUIVALENCE_CASES[name](), record=True)
    assert failure == ref_failure
    if name == "collapse":
        assert failure == (PoolCollapseError, 4)
    if trace is not None:
        ours_gammas = np.asarray(trace.gamma_sceptic, dtype=float)
        assert ours_gammas.tobytes() == np.asarray(ref_trace.gamma_sceptic,
                                                   dtype=float).tobytes()
    assert ours.worst_eq8_slack.hex() == float(ref.worst_eq8_slack).hex()
    assert ours.expert_cums.tobytes() == ref.expert_cums.tobytes()
    assert ours.cum_self.hex() == float(ref.cum_self).hex()
    worst = ref.worst_eq8_slack
    expected_step = running.index(worst) + 1 if worst < math.inf else None
    assert ours.worst_eq8_step == expected_step


def test_eq8_audit_sees_past_an_expert_gone_nan():
    # expert 1 turns NaN at step 10; the other experts' bounds still hold
    # and the audit keeps reading them, in the library and the reference alike
    case = lambda: _pool_case(bounded_square_loss_game(),
                              lambda: [_NanFrom(10), ConstantPredictor(0.3),
                                       ConstantPredictor(0.8)],
                              0.5, ConstantNature(0.3), 2 * EQ8_BLOCK, 1)
    _, _, ours, _ = _play_pool(AggregatingSceptic, case())
    _, _, ref, _ = _play_pool(PerStepAggregating, case())
    assert ours.worst_eq8_step == 38
    assert ours.worst_eq8_slack.hex() == float(ref.worst_eq8_slack).hex()
    assert ours.worst_eq8_slack >= -1e-9


def test_folded_audit_at_any_partition_matches_the_reference():
    # reading the worst slack after every step folds blocks of one step
    horizon = 2 * EQ8_BLOCK + 3
    _, _, ours, ours_running = _play_pool(
        AggregatingSceptic, _horizon_case("bounded_square", horizon), record=True)
    _, _, ref, ref_running = _play_pool(
        PerStepAggregating, _horizon_case("bounded_square", horizon), record=True)
    assert [x.hex() for x in ours_running] == [float(x).hex() for x in ref_running]
    assert ours.expert_cums.tobytes() == ref.expert_cums.tobytes()


@pytest.fixture
def bad_mix_from_step_40(monkeypatch):
    # a mixer whose moves stop being dominated at step 40, in the library
    # and in the reference alike
    import pool_reference
    import jeffreys.sceptics

    def mixer(game, eta, preds, tol):
        mix = fixed_pool_mixer(game, eta, preds, tol)
        calls = []

        def bad(log_w):
            calls.append(None)
            gamma = mix(log_w)
            return gamma if len(calls) < 40 else min(1.0, gamma + 0.3)
        return bad
    monkeypatch.setattr(jeffreys.sceptics, "fixed_pool_mixer", mixer)
    monkeypatch.setattr(pool_reference, "fixed_pool_mixer", mixer)


def test_mixability_violation_at_the_reference_step(bad_mix_from_step_40):
    case = _horizon_case("bounded_square", 500)
    _, failure, _, _ = _play_pool(AggregatingSceptic, case)
    _, ref_failure, _, _ = _play_pool(PerStepAggregating, _horizon_case("bounded_square", 500))
    assert ref_failure is not None and ref_failure[0] is MixabilityViolation
    assert ref_failure[1] >= 40
    assert failure == ref_failure


def test_audit_memory_is_independent_of_the_horizon():
    # the held audit rows are folded every EQ8_BLOCK steps: a run 4x longer
    # peaks within 20 % of the shorter one
    def peak(horizon):
        game = bounded_square_loss_game()
        sceptic = AggregatingSceptic([ConstantPredictor(p)
                                      for p in (np.arange(40) + 1.0) / 41.0])
        outcomes = np.random.default_rng(3).uniform(size=horizon).tolist()
        sceptic.reset(game, np.random.default_rng(4), horizon)
        tracemalloc.start()
        try:
            for n, omega in enumerate(outcomes, 1):
                sceptic.predict(n, 0.5, 0.5)
                sceptic.observe(n, omega)
            assert sceptic.worst_eq8_slack >= -1e-9
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    short, long = peak(4 * EQ8_BLOCK), peak(16 * EQ8_BLOCK)
    assert max(short, long) <= 1.2 * min(short, long)


class _DenseAdversary(NatureStrategy):
    """Plays the dense outcome where the pool sceptic's own loss most exceeds
    its mixture bound, the mixed expert losses under the weights of its move."""

    def __init__(self, sceptic, omegas):
        self.sceptic, self.omegas = sceptic, omegas

    def reset(self, game, rng, horizon):
        self._loss = game.loss_fn()

    def outcome(self, n, gamma1, gamma2, gamma_sceptic):
        pool = self.sceptic
        preds = np.array([e.predict(n) for e in pool.experts])
        bound = _generalized(pool.pool.normalized_log_weights(),
                             self._loss(self.omegas[None, :], preds[:, None]), pool.eta)
        return float(self.omegas[np.argmax(self._loss(self.omegas, gamma_sceptic) - bound)])


# the symmetric pool's adversary plays only -1, 0 and 1, on both grids; the
# asymmetric pool's plays off them at nearly every step
@pytest.mark.parametrize("outcomes", [65, 1025])
@pytest.mark.parametrize("experts,off_grid", [((-0.9, -0.3, 0.3, 0.9), False),
                                              ((-0.9, -0.2, 0.35, 0.8), True)],
                         ids=["symmetric", "asymmetric"])
def test_quartic_pool_holds_against_a_dense_adversary(outcomes, experts, off_grid):
    # the substitution is a statement about the outcome grid; off it, the
    # sceptic re-checks domination at each realized outcome, and eq8 holds
    game = quartic_loss_game(outcome_grid_size=outcomes)
    sceptic = AggregatingSceptic([ConstantPredictor(g) for g in experts])
    nature = _DenseAdversary(sceptic, np.linspace(-1.0, 1.0, 20001))
    trace = run_protocol(nature, ConstantPredictor(0.0), ConstantPredictor(0.5), sceptic,
                         game, 200, seed=1)
    assert len(trace.omega) == 200
    if off_grid:
        assert np.mean(np.isin(trace.omega, game.outcome_grid)) < 0.1
    assert verify_run(trace, ["eq8"], sceptic=sceptic).checks_passed
