"""Exponential-weights mixing, substitution, and the regret guarantee.

The substitution is the game's closed-form mix; the dense brute-force
minimax search that checks it lives here, not in the library."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from jeffreys import (AggregatingSceptic, ConstantNature, ConstantPredictor, DriftPredictor,
                      Game, GameKind, IidBernoulliNature, IidUniformNature, JeffreysError, Level2Sceptic,
                      Level3Sceptic, MixabilityParams, MixabilityViolation, NatureStrategy,
                      NoisyTargetPredictor, PoolCollapseError, PredictorStrategy, ReplayNature,
                      RunningMeanPredictor,
                      bounded_absolute_loss_game, bounded_square_loss_game,
                      fixed_pool_mixer, log_loss_game, params_for, quartic_loss_game,
                      run_protocol, square_loss_game, verify_run)
from jeffreys.aggregating import DOMINATION_TOL
from jeffreys.games import _lse1, _lse_rows
from jeffreys.sceptics import EQ8_BLOCK, _compensated_add, _compensated_cumsum
from pool_reference import PerExpertLevel3, PerStepAggregating, pool_weights


def _uniform(k):
    # the log-weights of a uniform prior
    return np.log(np.full(k, 1.0 / k))


def _normalized(log_w):
    return log_w - _lse1(log_w)


def _mixture_loss(log_w, points, eta):
    # g(omega) = -ln(sum_k w_k e^(-eta loss_k(omega))) / eta of normalized
    # log-weights over (K, O) expert loss profiles; a NaN loss drops its expert
    with np.errstate(invalid="ignore"):
        exponents = np.fmax(log_w[:, None] - eta * points, -math.inf)
    return -np.logaddexp.reduce(exponents, axis=0) / eta


def _mixed(log_w, points, eta):
    # the generalized prediction of log-weights over the experts' loss profiles
    return _mixture_loss(_normalized(log_w), np.asarray(points, dtype=float), eta)


def _dense_minimax(losses, g):
    # the brute-force substitution: of the (P, O) losses of P candidate moves
    # at O outcomes, the index of the move whose largest excess over the
    # mixture loss g is least, and that excess
    worst = (losses - g).max(axis=1)
    best = int(worst.argmin())
    return best, float(worst[best])


def test_pool_validation():
    experts = [ConstantPredictor(0.3), ConstantPredictor(0.7)]
    with pytest.raises(ValueError):
        AggregatingSceptic(experts, priors=np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        AggregatingSceptic(experts, priors=np.array([0.9, 0.9]))
    with pytest.raises(ValueError):
        AggregatingSceptic(experts, priors=np.array([0.5, math.nan]))
    # priors that are not one flat vector: a column, and a 0-d array
    with pytest.raises(ValueError, match="one flat vector"):
        AggregatingSceptic(experts, priors=[[0.5], [0.5]])
    with pytest.raises(ValueError, match="one flat vector"):
        AggregatingSceptic(experts, priors=0.5)
    sceptic = AggregatingSceptic(experts, priors=np.array([0.25, 0.25]))  # deficient is fine
    assert len(sceptic.priors) == 2
    with pytest.raises(ValueError, match="expert pool must not be empty"):
        AggregatingSceptic([])


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


def test_a_pool_plays_on_an_outcome_grid_that_overhangs_the_bounds_within_the_slack():
    # Game accepts an outcome grid up to 1e-12 past its bounds; the pool's
    # eta is eta* on the bounds, which its mix reads, so the grid's width
    # (1 + 1e-12, whose eta* is below 2) does not refuse it
    game = Game(GameKind.BOUNDED_SQUARE, np.linspace(-5e-13, 1.0 + 5e-13, 257),
                np.linspace(0.0, 1.0, 257))
    assert params_for(game) == MixabilityParams(2.0, 0.5)
    sceptic = AggregatingSceptic([ConstantPredictor(0.2), ConstantPredictor(0.9)])
    trace = run_protocol(IidBernoulliNature(0.7), ConstantPredictor(0.2),
                         ConstantPredictor(0.9), sceptic, game, 2000, seed=3)
    assert verify_run(trace, ["eq8"], sceptic).checks_passed


def _shifting_mix(mix_column, shift):
    # the game's mix, each move shifted by ``shift`` after its own end check
    def shifted(preds, eta):
        column = mix_column(preds, eta)

        def moves(log_w):
            gammas = column(log_w)
            return None if gammas is None else gammas + shift
        return moves
    return shifted


@pytest.mark.parametrize("make_sceptic", [
    lambda: AggregatingSceptic([ConstantPredictor(0.2), ConstantPredictor(0.9)]),
    lambda: Level3Sceptic(Level2Sceptic(alpha=0.0)),
], ids=["aggregating", "level3"])
def test_a_move_that_fails_the_domination_recheck_is_refused_at_its_step(monkeypatch,
                                                                         make_sceptic):
    # the column block re-checks each move against the mixture loss and gives
    # the run back to the loop, whose settle names the step that fails
    from jeffreys.sceptics import _Pool
    blocks = []
    column_block = _Pool._column_block
    monkeypatch.setattr(_Pool, "_column_block",
                        lambda self, *args: blocks.append(column_block(self, *args)) or blocks[-1])
    game = bounded_square_loss_game()
    game.spec = dataclasses.replace(game.spec,
                                    mix_column=_shifting_mix(game.spec.mix_column, 0.05))
    with pytest.raises(MixabilityViolation, match=r"^step 1: loss .* exceeds mixture bound"):
        run_protocol(ConstantNature(0.0), ConstantPredictor(0.2), ConstantPredictor(0.9),
                     make_sceptic(), game, 50, seed=3)
    assert blocks == [None]


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
    g = _mixed(np.array([0.0, -math.inf]), np.stack([lam1, lam2]), eta=1.0)
    assert np.allclose(g, lam1, atol=1e-12)


def test_bayes_mixture_value():
    game = log_loss_game(m=2)
    pts = np.stack([game.canonical_point(np.array([0.2, 0.8])),
                    game.canonical_point(np.array([0.8, 0.2]))])
    g = _mixed(_uniform(2), pts, eta=1.0)
    assert np.allclose(g, [-math.log(0.5), -math.log(0.5)], atol=1e-12)


def test_collapsed_pool_raises():
    # each expert rules out the outcome the other does: both are out after
    # two steps, and the pool's third move raises
    with pytest.raises(PoolCollapseError):
        _aggregate([np.array([1.0, 0.0]), np.array([0.0, 1.0])], None, [0, 1, 0])


class _SureOfZero(PredictorStrategy):
    """Gives outcome 1 probability 0, then from step 2 on a move of another
    form: a number where the game takes probability vectors."""

    def predict(self, n):
        return np.array([1.0, 0.0]) if n < 2 else 0.5


class _BaseOfAnotherForm(Level2Sceptic):
    def predict(self, n, gamma1, gamma2):
        return 0.5 if n >= 2 else super().predict(n, gamma1, gamma2)


@pytest.mark.parametrize("who", ["aggregating", "level3"])
def test_a_collapsed_pool_is_refused_before_its_inner_moves_are_read(who):
    # outcome 1 at step 1 costs every member +inf; at step 2 an inner move
    # (an expert's, the lift's base's) is of another form than the others,
    # which numpy cannot read as one array: both pool sceptics refuse the
    # collapsed pool first, at the step
    sure = ConstantPredictor(np.array([1.0, 0.0]))
    if who == "aggregating":
        sceptic = AggregatingSceptic([_SureOfZero(), sure])
    else:
        sceptic = Level3Sceptic(_BaseOfAnotherForm(0.0), k_max=2)
    with pytest.raises(PoolCollapseError, match="step 2: every expert"):
        run_protocol(ConstantNature(1), sure, sure, sceptic, log_loss_game(m=2), 5, seed=1)


# ---------------------------------------------------------------------------
# substitution


def test_substitute_recovers_canonical_point():
    # one expert's mixture loss is its own loss profile
    for game in (bounded_square_loss_game(), quartic_loss_game()):
        gamma = _aa_step(_uniform(1), [0.37], game, params_for(game).eta)
        assert gamma == pytest.approx(0.37, abs=1e-9)


def test_substitute_bayes_rule():
    game = log_loss_game(m=2)
    gamma = _aa_step(_uniform(2), [[0.2, 0.8], [0.8, 0.2]], game, 1.0)
    assert np.allclose(gamma, [0.5, 0.5], atol=1e-12)


def test_substitute_domination_bounded_square():
    game = bounded_square_loss_game()
    pts = np.stack([game.canonical_point(0.3), game.canonical_point(0.7)])
    g = _mixed(_uniform(2), pts, eta=2.0)
    gamma = _aa_step(_uniform(2), [0.3, 0.7], game, 2.0)
    for idx, omega in ((0, 0.0), (-1, 1.0)):
        assert (omega - gamma) ** 2 <= g[idx] + 1e-9


def test_substitute_domination_on_continuum():
    # the endpoint formula must dominate at every outcome, not just 0 and 1
    game = bounded_square_loss_game()
    rng = np.random.default_rng(5)
    omegas = np.linspace(0.0, 1.0, 501)
    for _ in range(25):
        k = rng.integers(2, 30)
        log_w = np.log(rng.dirichlet(np.ones(k)))
        gammas = rng.random(k)
        gamma = _aa_step(log_w, gammas, game, 2.0)
        mix = np.log(np.dot(np.exp(_normalized(log_w)),
                            np.exp(-2.0 * (omegas[None, :] - gammas[:, None]) ** 2)))
        g_all = -mix / 2.0
        assert np.max((omegas - gamma) ** 2 - g_all) <= 1e-9


def test_generic_search_agrees_with_closed_form():
    # the brute-force minimax move over a dense prediction grid is the
    # closed form's, to the grid's spacing
    for game in (bounded_square_loss_game(), quartic_loss_game()):
        lo, hi = game.bounds()[0]
        omegas, candidates = np.linspace(lo, hi, 401), np.linspace(lo, hi, 20001)
        experts = lo + (hi - lo) * np.array([0.2, 0.9])
        eta = params_for(game).eta
        g = _mixed(_uniform(2), game.spec.losses(omegas[None, :], experts[:, None]), eta)
        best, _ = _dense_minimax(game.spec.losses(omegas[None, :], candidates[:, None]), g)
        assert candidates[best] == pytest.approx(_aa_step(_uniform(2), experts, game, eta),
                                                 abs=2 * (hi - lo) / 20000)


def test_substitute_flags_excessive_eta():
    # twice bounded square's eta* leaves the move's end excesses above the
    # tolerance; log loss has a closed-form mix at eta = 1 only
    with pytest.raises(MixabilityViolation, match="mixture loss by more than"):
        _aa_step(_uniform(2), [0.05, 0.95], bounded_square_loss_game(), 4.0)
    with pytest.raises(MixabilityViolation, match="no closed-form mix"):
        _aa_step(_uniform(2), [[0.05, 0.95], [0.95, 0.05]], log_loss_game(m=2), 4.0)
    # weights that sum to two give log loss's mixture a mass of two: the
    # closed form has no move, and the mixer names it
    game, preds, log_w = log_loss_game(m=2), np.array([[0.3, 0.7], [0.8, 0.2]]), np.zeros(2)
    assert game.spec.mix_column(preds, 1.0)(log_w[None]) is None
    with pytest.raises(MixabilityViolation, match="mixture loss by more than"):
        fixed_pool_mixer(game, 1.0, preds)(log_w)


def _random_pool(rng, draw, ends):
    # K = 2 to 7 expert moves from ``draw``, a third of the pools with one
    # expert within 1e-8 to 1e-1 of its way to one of the ``ends``, and
    # normalized log-weights, Dirichlet of concentration 0.05 to 5
    k = int(rng.integers(2, 8))
    preds = draw(rng, k)
    if rng.random() < 1.0 / 3.0:
        end = ends[int(rng.integers(len(ends)))]
        preds[0] = end + 10.0 ** rng.uniform(-8.0, -1.0) * (preds[0] - end)
    concentration = 10.0 ** rng.uniform(math.log10(0.05), math.log10(5.0))
    with np.errstate(divide="ignore"):
        return preds, _normalized(np.log(rng.dirichlet(np.full(k, concentration))))


@pytest.mark.parametrize("make_game, minimax", [(bounded_square_loss_game, True),
                                                (quartic_loss_game, False)],
                         ids=["bounded_square", "quartic"])
def test_endpoint_moves_dominate_a_dense_minimax_search(make_game, minimax):
    # seeded random mixtures: the closed-form move dominates the mixture loss
    # at 4,001 outcomes within DOMINATION_TOL, and its column form gives the
    # same bits.  On bounded square it is the minimax move: its largest
    # excess is no larger than the best of 2,001 brute-force candidates on
    # 401 of the outcomes.  On quartic an interior outcome may bind below
    # the ends' equal excess, and a candidate may do better there
    game = make_game()
    eta = params_for(game).eta
    lo, hi = game.bounds()[0]
    omegas, candidates = np.linspace(lo, hi, 4001), np.linspace(lo, hi, 2001)
    candidate_losses = game.spec.losses(omegas[None, ::10], candidates[:, None])
    rng = np.random.default_rng(20091209)
    for _ in range(500):
        preds, log_w = _random_pool(rng, lambda rng, k: rng.uniform(lo, hi, k), (lo, hi))
        gamma = fixed_pool_mixer(game, eta, preds)(log_w)
        g = _mixture_loss(log_w, game.spec.losses(omegas[None, :], preds[:, None]), eta)
        worst = float((game.spec.losses(omegas, gamma) - g).max())
        _, searched = _dense_minimax(candidate_losses, g[::10])
        assert worst <= DOMINATION_TOL
        assert worst <= searched + 1e-12 or not minimax
        column = game.spec.mix_column(preds, eta)(log_w[None, :])
        assert column.tobytes() == np.array([gamma]).tobytes()


@pytest.mark.parametrize("m", [2, 3])
def test_the_probability_mixture_dominates_a_dense_minimax_search(m):
    # log loss: the Bayes mixture's excess is the same at every outcome, and
    # no probability vector on a dense simplex grid does better
    game = log_loss_game(m=m)
    steps = 2000 if m == 2 else 60
    heads = np.array(list(itertools.product(range(steps + 1), repeat=m - 1)))
    heads = heads[heads.sum(axis=1) <= steps]
    grid = np.column_stack((heads, steps - heads.sum(axis=1))) / steps
    outcomes = np.arange(m)
    with np.errstate(divide="ignore"):
        candidate_losses = -np.log(grid)
    rng = np.random.default_rng(20091210)
    for _ in range(500):
        preds, log_w = _random_pool(rng, lambda rng, k: rng.dirichlet(np.ones(m), k), np.eye(m))
        gamma = fixed_pool_mixer(game, 1.0, preds)(log_w)
        with np.errstate(divide="ignore"):
            g = _mixture_loss(log_w, -np.log(preds[:, outcomes]), 1.0)
            worst = float((-np.log(gamma) - g).max())
        _, searched = _dense_minimax(candidate_losses, g)
        assert worst <= DOMINATION_TOL
        assert worst <= searched + 1e-12


# ---------------------------------------------------------------------------
# the step/observe cycle


def _aa_step(log_w, experts, game, eta):
    # one aggregated move under the log-weights
    preds = np.asarray(experts, dtype=float)
    return fixed_pool_mixer(game, eta, preds)(_normalized(log_w))


def test_aa_step_single_expert():
    game = log_loss_game(m=2)
    gamma = _aa_step(_uniform(1), [np.array([0.3, 0.7])], game, eta=1.0)
    assert np.allclose(gamma, [0.3, 0.7], atol=1e-12)


def test_aa_step_identical_experts():
    game = bounded_square_loss_game()
    gamma = _aa_step(_uniform(3), [0.42, 0.42, 0.42], game, eta=2.0)
    assert gamma == pytest.approx(0.42, abs=1e-12)


def _loss_block(rng, n, k, kind):
    # start sums and compensations, and (n, k) losses: "plain" small ones,
    # "large" ones whose sums round at every row, "infinite" with +inf losses
    sums, comps = 1e3 * rng.random(k), 1e-14 * rng.standard_normal(k)
    if kind == "plain":
        return sums, comps, rng.random((n, k))
    if kind == "large":
        return sums, comps, 1e12 * (1.0 + rng.random((n, k)))
    losses = 60.0 * rng.random((n, k))
    losses[rng.random((n, k)) < 0.05] = math.inf
    return sums, comps, losses


@pytest.mark.parametrize("kind", ["plain", "large", "infinite"])
@pytest.mark.parametrize("n", [1, 255, 256, "random"])
def test_block_sums_are_the_step_sums_row_by_row(n, kind):
    # the column form's one compensated cumsum per block, which the weights
    # and the eq8 audit read, is the per-step TwoSum of the K-vector, bit for bit
    rng = np.random.default_rng(17)
    shapes = ([(int(rng.integers(1, 257)), int(rng.integers(1, 41))) for _ in range(20)]
              if n == "random" else [(n, k) for k in (1, 2, 10, 40)])
    for rows, k in shapes:
        sums, comps, losses = _loss_block(rng, rows, k, kind)
        with np.errstate(invalid="ignore"):
            block_sums, block_comps = _compensated_cumsum(sums, comps, losses)
            for i, row in enumerate(losses):
                sums, comps = _compensated_add(sums, comps, row)
                assert sums.tobytes() == block_sums[i].tobytes()
                assert comps.tobytes() == block_comps[i].tobytes()
        if kind == "large":
            assert (block_comps != 0.0).any()


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
    assert _lse_rows(x).tolist() == [_lse1(x[0]), -math.inf]


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
        _, trace = _aggregate(experts, priors, seq)
        cum = float(trace.cum_sceptic[-1])
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
    # an expert whose prediction turns NaN, in the shape of its ``move``, at
    # step ``start``: its loss is NaN, its weight is eliminated, and the eq8
    # min skips its NaN cumulative loss
    def __init__(self, start, move=0.4):
        self.start, self.move = start, move

    def predict(self, n):
        return self.move * math.nan if n >= self.start else self.move


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
    "log_loss_nan_expert": lambda: _pool_case(
        log_loss_game(m=2), lambda: [_NanFrom(10, np.array([0.4, 0.6])),
                                     ConstantPredictor(np.array([0.3, 0.7])),
                                     ConstantPredictor(np.array([0.8, 0.2]))],
        _COIN, IidBernoulliNature(0.6), 50, 1),
    # every expert turns NaN at step 10: the mixture loss is +inf at both
    # ends, the move is the clamp's lo, and the pool collapses at step 11
    **{f"{name}_every_expert_nan": (lambda g=game, lo=lo: _pool_case(
        g, lambda: [_NanFrom(10, 0.3), _NanFrom(10, 0.7)], 0.5, IidUniformNature(lo, 1.0),
        50, 4))
       for name, game, lo in (("bounded_square", bounded_square_loss_game(), 0.0),
                              ("quartic", quartic_loss_game(outcome_grid_size=65), -1.0))},
    # deficient priors on a log-loss pool whose weights fall far below zero
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
    if name.endswith("every_expert_nan"):
        assert failure == (PoolCollapseError, 11)
    if name.endswith("nan_expert"):  # the NaN move drops its expert; the run goes on
        assert failure is None and ours.worst_eq8_slack >= -1e-9
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

    # a lift whose two groups both switch, on both sides of a block boundary,
    # read after every step and once at the end, both by the loop
    def lift(cls, record):
        sceptic, running = cls(Level2Sceptic(0.0)), []
        observe = sceptic.observe

        def recorded(n, omega):
            observe(n, omega)
            running.append(sceptic.worst_eq8_slack)
        sceptic.observe = recorded if record else observe
        run_protocol(IidUniformNature(0.0, 1.0), ConstantPredictor(0.1), ConstantPredictor(0.9),
                     sceptic, bounded_square_loss_game(), horizon, seed=7)
        return sceptic, running
    (read, running), (once, _) = lift(Level3Sceptic, True), lift(Level3Sceptic, False)
    ref, ref_running = lift(PerExpertLevel3, True)
    switched = read.switch_times
    assert switched == once.switch_times == ref.switch_times
    assert min(switched) < read.k_max <= max(switched)
    assert min(switched.values()) < EQ8_BLOCK < max(switched.values())
    assert running[-1].hex() == once.worst_eq8_slack.hex()
    assert (read.worst_eq8_step, read.cum_self.hex()) == (once.worst_eq8_step,
                                                         once.cum_self.hex())
    assert np.max(np.abs(np.array(running) - ref_running)) <= 1e-9
    assert once.worst_eq8_slack >= -1e-9


@pytest.fixture
def bad_mix_from_step_40(monkeypatch):
    # a mixer whose moves stop being dominated at step 40, in the library
    # and in the reference alike
    import pool_reference
    import jeffreys.sceptics

    def mixer(game, eta, preds):
        mix = fixed_pool_mixer(game, eta, preds)
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


def _none_from_step_40(game):
    # the game, with a column form that gives None for every row from the
    # 40th move it makes after it is prepared, and the rows of each call
    spec, columns = game.spec, []

    def mix_column(preds, eta):
        closed, made = spec.mix_column(preds, eta), []

        def moves(log_w):
            columns.append(len(log_w))
            made.extend([None] * len(log_w))
            return closed(log_w) if len(made) < 40 else None
        return moves
    game.spec = dataclasses.replace(spec, mix_column=mix_column)
    return game, columns


@pytest.mark.parametrize("loop", [True, False], ids=["loop", "columns"])
def test_a_mix_without_a_dominating_move_fails_naming_its_step(loop):
    # a pool of constants plays columns; its column without a move sends the
    # run to the loop, which names the step, as a loop-played run does
    game, columns = _none_from_step_40(bounded_square_loss_game())
    sceptic = AggregatingSceptic([ConstantPredictor(p) for p in _SPREAD7])
    if loop:  # a predict set on the instance: the engine plays the loop
        sceptic.predict = sceptic.predict
    with pytest.raises(MixabilityViolation, match=r"^step 40: the mixed move exceeds"):
        run_protocol(IidUniformNature(0.0, 1.0), ConstantPredictor(0.5),
                     ConstantPredictor(0.5), sceptic, game, 500, seed=12)
    # the loop's steps are one-row calls, the 40th without a move
    assert columns == ([] if loop else [EQ8_BLOCK]) + [1] * 40


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
    its mixture bound, the mixed expert losses under the weights of its move,
    and keeps that largest excess of each step."""

    def __init__(self, sceptic, omegas):
        self.sceptic, self.omegas = sceptic, omegas
        self.excesses = []

    def reset(self, game, rng, horizon):
        self._loss = game.loss_fn()
        self.excesses = []

    def outcome(self, n, gamma1, gamma2, gamma_sceptic):
        pool = self.sceptic
        preds = np.array([e.predict(n) for e in pool.experts])
        bound = _mixture_loss(_normalized(pool_weights(pool)),
                              self._loss(self.omegas[None, :], preds[:, None]), pool.eta)
        excess = self._loss(self.omegas, gamma_sceptic) - bound
        self.excesses.append(float(excess.max()))
        return float(self.omegas[np.argmax(excess)])


# the symmetric pool's adversary plays only -1, 0 and 1, on both grids; the
# asymmetric pool's plays off them at nearly every step
@pytest.mark.parametrize("outcomes", [65, 1025])
@pytest.mark.parametrize("experts,off_grid", [((-0.9, -0.3, 0.3, 0.9), False),
                                              ((-0.9, -0.2, 0.35, 0.8), True)],
                         ids=["symmetric", "asymmetric"])
def test_quartic_pool_holds_against_a_dense_adversary(outcomes, experts, off_grid):
    # the endpoint move dominates the mixture loss on the whole outcome
    # interval, off the outcome grid too: at each step the adversary's best
    # of 20,001 outcomes finds no excess above DOMINATION_TOL, and eq8 holds
    game = quartic_loss_game(outcome_grid_size=outcomes)
    sceptic = AggregatingSceptic([ConstantPredictor(g) for g in experts])
    nature = _DenseAdversary(sceptic, np.linspace(-1.0, 1.0, 20001))
    trace = run_protocol(nature, ConstantPredictor(0.0), ConstantPredictor(0.5), sceptic,
                         game, 200, seed=1)
    assert len(trace.omega) == 200
    assert len(nature.excesses) == 200 and max(nature.excesses) <= DOMINATION_TOL
    if off_grid:
        assert np.mean(np.isin(trace.omega, game.outcome_grid)) < 0.1
    assert verify_run(trace, ["eq8"], sceptic=sceptic).checks_passed
