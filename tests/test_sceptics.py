"""The three sceptic constructions and their per-step guarantees."""

import math
import signal
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jeffreys import (GAME_SPECS, AdversarialGreedyNature, AggregatingSceptic,
                      ConfigError, IidBernoulliNature, IidUniformNature,
                      ConstantNature, ConstantPredictor, DriftPredictor, Level1Sceptic,
                      Level2Sceptic, Level3Sceptic, JeffreysError, MixabilityViolation,
                      NoisyTargetPredictor, PoolCollapseError, ReplayNature,
                      RunningMeanPredictor, Trace, classify_disjuncts, absolute_loss_game,
                      bounded_absolute_loss_game, bounded_square_loss_game,
                      f_mix, f_mix_integral, game_from_descriptor, level1_ledger,
                      level2_inequality_slack, log_loss_game,
                      lower_alpha_divergence_numeric, quartic_loss_game,
                      run_protocol, square_loss_game, verify_run)
from jeffreys.aggregating import DOMINATION_TOL
from jeffreys.games import alpha_weights
from jeffreys.players import NatureStrategy
from jeffreys.protocol import CHECK_TOL
from jeffreys.sceptics import K_MAX_LIMIT, _triangle_areas
from ledger_reference import PerStepLevel1, triangle_area
from pool_reference import PerExpertLevel3


# ---------------------------------------------------------------------------
# level 2


def _level2(game, alpha, epsilon=1e-3):
    # a divergence-strategy sceptic ready for its first move
    sceptic = Level2Sceptic(alpha, epsilon)
    sceptic.reset(game, None, 1)
    return sceptic


def test_level2_config_validation():
    with pytest.raises(ValueError, match="alpha must lie strictly inside"):
        Level2Sceptic(alpha=1.0)
    for epsilon in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            Level2Sceptic(alpha=0.0, epsilon=epsilon)


def test_level2_square_weighted_mean():
    game = square_loss_game()
    assert _level2(game, 0.0).predict(1, 0.0, 1.0) == 0.5
    assert _level2(game, 0.8).predict(1, 0.0, 1.0) == pytest.approx(0.9)


def test_level2_log_loss_identical_inputs():
    game = log_loss_game(m=2)
    g = np.array([0.5, 0.5])
    assert np.allclose(_level2(game, 0.3).predict(1, g, g), g)


def test_level2_log_loss_geometric_mean():
    game = log_loss_game(m=2)
    got = _level2(game, 0.0).predict(1, np.array([0.8, 0.2]), np.array([0.2, 0.8]))
    assert np.allclose(got, [0.5, 0.5], atol=1e-12)
    # the move's loss profile must sit below the divergence target
    lam = game.canonical_point(got)
    mean = 0.5 * game.canonical_point(np.array([0.8, 0.2])) \
        + 0.5 * game.canonical_point(np.array([0.2, 0.8]))
    from jeffreys import alpha_divergence_log_loss
    shift = 0.25 * alpha_divergence_log_loss([0.8, 0.2], [0.2, 0.8], 0.0)
    assert np.all(lam <= mean - shift + 1e-12)


def _closed_form_level2_games():
    # every table entry with a closed-form level-2 move, plus log loss at m = 3
    games = [game_from_descriptor({"kind": kind.value})
             for kind, spec in GAME_SPECS.items() if spec.level2_column]
    return games + [log_loss_game(m=3)]


@pytest.mark.parametrize("game", _closed_form_level2_games(),
                         ids=lambda game: f"{game.kind.value}-m{game.m}")
def test_closed_form_level2_profile_is_mean_minus_shift(game):
    rng = np.random.default_rng(7)
    for _ in range(20):
        if game.prediction_grid is None:
            g1, g2 = rng.dirichlet(np.ones(game.m), 2)
        else:
            g1, g2 = (game.prediction_from_param(u) for u in rng.uniform(0.05, 0.95, 2))
        alpha = rng.uniform(-0.9, 0.9)
        w1, w2 = (1.0 - alpha) / 2.0, (1.0 + alpha) / 2.0
        move = game.spec.level2_column(game, w1, w2)(np.array([g1]), np.array([g2]))[0]
        shift = game.spec.divergence(game, alpha)([g1], [g2])[0] * (1.0 - alpha * alpha) / 4.0
        mean = w1 * game.canonical_point(g1) + w2 * game.canonical_point(g2)
        assert np.max(np.abs(game.canonical_point(move) - (mean - shift))) <= 1e-9


def test_level2_numeric_path_bounded_absolute():
    # zero-divergence game: the search must still find a dominated point
    game = bounded_absolute_loss_game()
    sceptic = _level2(game, 0.0, epsilon=1e-3)
    gamma = sceptic.predict(1, 0.2, 0.8)
    lam = game.canonical_point(gamma)
    mean = 0.5 * game.canonical_point(0.2) + 0.5 * game.canonical_point(0.8)
    assert np.all(lam <= mean + sceptic.epsilon)


def test_level2_numeric_path_full_run_quartic():
    # a whole numeric-path run: the move achieves the lower divergence, so
    # eq9 holds even with every divergence term at its lower bound 0
    game = quartic_loss_game(outcome_grid_size=65, prediction_grid_size=65)

    def overrun(signum, frame):
        raise TimeoutError("numeric level-2 run exceeded its 30 s bound")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.alarm(30)
    try:
        trace = run_protocol(IidBernoulliNature(0.5), ConstantPredictor(-0.5),
                             ConstantPredictor(0.5), Level2Sceptic(alpha=0.0, epsilon=1e-3),
                             game, 1000, seed=5)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(trace) == 1000
    zero_terms = SimpleNamespace(loss1=trace.loss1, loss2=trace.loss2,
                                 loss_sceptic=trace.loss_sceptic,
                                 divergence_term=np.zeros(len(trace)))
    assert float(np.min(level2_inequality_slack(zero_terms, 0.0, 1e-3))) >= -1e-9


def test_numeric_divergence_column_has_the_truncated_trace_length():
    # the sceptic moves at the step where the replay runs out, but the trace
    # records only the steps played: the achieved terms are cut to match
    game = bounded_absolute_loss_game(grid_size=33)
    sceptic = Level2Sceptic(alpha=0.4)
    with pytest.warns(UserWarning, match="run truncated at step 6"):
        trace = run_protocol(ReplayNature([0.0, 1.0, 1.0, 0.0, 1.0]), ConstantPredictor(0.2),
                             ConstantPredictor(0.8), sceptic, game, 10, seed=2)
    assert trace.truncated and len(trace) == 5
    assert len(trace.divergence_term) == 5
    assert all(math.isfinite(term) for term in trace.divergence_term)
    assert verify_run(trace, ["eq9"], sceptic=sceptic).checks_passed


@pytest.mark.parametrize("game_factory, g1, g2", [
    (bounded_absolute_loss_game, 0.2, 0.8),
    (lambda: quartic_loss_game(outcome_grid_size=65, prediction_grid_size=65), -0.5, 0.5),
])
def test_eq9_checked_on_numeric_path(game_factory, g1, g2):
    # the trace carries the divergence each numeric move achieves, so eq9
    # is verified with the real terms, not only with zeros
    game = game_factory()
    alpha = 0.4
    sceptic = Level2Sceptic(alpha=alpha, epsilon=1e-3)
    trace = run_protocol(IidBernoulliNature(0.5), ConstantPredictor(g1),
                         ConstantPredictor(g2), sceptic, game, 1000, seed=11)
    assert len(trace) == 1000
    assert not np.any(np.isnan(trace.divergence_term))
    # the move and the numeric divergence run one gap search from one weighted
    # mean, so each term is the divergence of the step's moves bit for bit
    lower = lower_alpha_divergence_numeric(game, g1, g2, alpha, tol=DOMINATION_TOL).value
    assert trace.divergence_term.tobytes() == np.full(1000, lower).tobytes()
    report = verify_run(trace, ["eq9"], sceptic=sceptic)
    assert report.checks_passed
    assert report.check_slacks["eq9"] >= -1e-9


class DenseEq9Adversary(NatureStrategy):
    """Plays, of 4,001 evenly spaced outcomes over the game's outcome
    interval, the one with the smallest eq9 increment ``w1 l1 + w2 l2 -
    l_sceptic``; the step's divergence term does not depend on the outcome.
    Its column form replies once per distinct row of moves."""

    def __init__(self, alpha):
        self._weights = alpha_weights(alpha)

    def reset(self, game, rng, horizon):
        self._loss = game.loss_fn()
        self._omegas = np.linspace(*game.bounds()[0], 4001)

    def outcome(self, n, gamma1, gamma2, gamma_sceptic):
        (w1, w2), loss, omegas = self._weights, self._loss, self._omegas
        increments = (w1 * loss(omegas, gamma1) + w2 * loss(omegas, gamma2)
                       - loss(omegas, gamma_sceptic))
        return float(omegas[np.argmin(increments)])

    def reply_column(self):
        return self._reply

    def _reply(self, gammas1, gammas2, gammas_sceptic):
        moves = np.stack((gammas1, gammas2, gammas_sceptic), axis=1)
        distinct, rows = np.unique(moves, axis=0, return_inverse=True)
        replies = np.array([self.outcome(0, *row) for row in distinct.tolist()])
        return replies[rows.reshape(-1)]


@pytest.mark.parametrize("game_factory, p1, p2, horizon", [
    (lambda: quartic_loss_game(outcome_grid_size=65), -0.5, 0.5, 300),
    (quartic_loss_game, -0.5, 0.5, 10_000),
    (lambda: quartic_loss_game(outcome_grid_size=65), DriftPredictor(-0.9, 0.006), 0.5, 300),
    (bounded_absolute_loss_game, 0.2, 0.7, 300),
    (bounded_absolute_loss_game, DriftPredictor(0.1, 0.003), 0.7, 300),
], ids=["quartic_65", "quartic_default", "quartic_65_drift", "bounded_absolute",
        "bounded_absolute_drift"])
def test_eq9_holds_against_a_dense_adversary(game_factory, p1, p2, horizon):
    # the numeric move dominates the weighted mean less its shift on the
    # whole outcome interval, not only on the outcome grid, so no outcome
    # between grid points makes a step's eq9 increment negative
    alpha = 0.8
    players = [p if isinstance(p, DriftPredictor) else ConstantPredictor(p) for p in (p1, p2)]
    sceptic = Level2Sceptic(alpha=alpha)
    trace = run_protocol(DenseEq9Adversary(alpha), *players, sceptic, game_factory(),
                         horizon, seed=3)
    assert len(trace) == horizon
    w1, w2 = alpha_weights(alpha)
    increments = (w1 * trace.loss1 + w2 * trace.loss2 - trace.loss_sceptic
                  - (1.0 - alpha * alpha) / 4.0 * trace.divergence_term)
    assert float(np.min(increments)) >= -1e-12
    assert verify_run(trace, ["eq9"], sceptic=sceptic).checks_passed


def test_level2_square_slack_equals_epsilon():
    game = square_loss_game()
    sceptic = Level2Sceptic(alpha=0.8, epsilon=1e-3)
    trace = run_protocol(IidBernoulliNature(0.5), ConstantPredictor(0.0),
                         ConstantPredictor(1.0), sceptic, game, 2000, seed=9)
    slack = level2_inequality_slack(trace, 0.8, 1e-3)
    assert float(np.max(np.abs(slack - 1e-3))) < 1e-12


def test_level2_empty_trace_slack_is_epsilon():
    game = square_loss_game()
    sceptic = Level2Sceptic(alpha=0.0, epsilon=0.5)
    trace = run_protocol(ConstantNature(1.0), ConstantPredictor(0.3),
                         ConstantPredictor(0.3), sceptic, game, 1, seed=0)
    slack = level2_inequality_slack(trace, 0.0, 0.5)
    assert slack[0] == pytest.approx(0.5, abs=1e-12)


def test_level2_log_loss_slack_nonnegative_over_seeds():
    game = log_loss_game(m=2)
    for seed in range(10):
        sceptic = Level2Sceptic(alpha=-0.8, epsilon=1e-3)
        trace = run_protocol(IidBernoulliNature(0.4),
                             ConstantPredictor(np.array([0.7, 0.3])),
                             RunningMeanPredictor(), sceptic, game, 500, seed=seed)
        slack = level2_inequality_slack(trace, -0.8, 1e-3)
        assert float(np.min(slack)) >= -1e-9


# ---------------------------------------------------------------------------
# level 1


def test_f_mix_shape():
    assert f_mix(0.0, 0.4) == 0.0
    assert f_mix(1e6, 0.4) == pytest.approx(0.4, abs=1e-6)
    assert f_mix(-3.0, 0.4) == -f_mix(3.0, 0.4)
    xs = np.linspace(-5, 5, 41)
    vals = [f_mix(x, 0.4) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_f_mix_takes_its_limits_at_infinity():
    assert f_mix(math.inf, 0.4) == 0.4
    assert f_mix(-math.inf, 0.4) == -0.4


def test_f_mix_integral_is_even_and_exact():
    # independent quadrature oracle
    xs = np.linspace(0.0, 2.5, 20001)
    quad = np.trapezoid([f_mix(x, 0.4) for x in xs], xs)
    assert f_mix_integral(2.5, 0.4) == pytest.approx(quad, abs=1e-8)
    assert f_mix_integral(-2.5, 0.4) == f_mix_integral(2.5, 0.4)


def _level1(D=0.0):
    # a mixture sceptic whose ledger starts at the loss difference D
    sceptic = Level1Sceptic(c=0.4)
    sceptic.reset(absolute_loss_game(), None, 1)
    sceptic.D = D
    return sceptic


def _play_level1(steps, c=0.4, game=None):
    # play (gamma1, gamma2, omega) steps through a mixture sceptic in the
    # engine's order, and return it with the trace of the run
    game = game or absolute_loss_game()
    sceptic = Level1Sceptic(c=c)
    sceptic.reset(game, None, len(steps))
    rows = []
    for n, (g1, g2, omega) in enumerate(steps, 1):
        rows.extend((g1, g2, sceptic.predict(n, g1, g2), omega))
        sceptic.observe(n, omega)
    return sceptic, Trace(game, *(rows[i::4] for i in range(4)))


def test_level1_state_validation():
    with pytest.raises(ValueError, match=r"c must lie in \(0, 1/2\)"):
        Level1Sceptic(c=0.5)


def test_level1_step_midpoint_at_zero():
    assert _level1().predict(1, 0.2, 0.8) == pytest.approx(0.5)


def test_level1_step_saturates():
    got = _level1(D=1e6).predict(1, 1.0, 0.0)
    assert got == pytest.approx(0.9, abs=1e-5)


@pytest.mark.parametrize("nature", [IidUniformNature(0.0, 1.0), IidBernoulliNature(0.5)],
                         ids=["uniform", "bernoulli"])
def test_level1_swap_symmetry_over_whole_runs(nature):
    # swapping the predictors negates D at every step, and by oddness of f
    # the moves and the ledger are bitwise unchanged
    game = bounded_absolute_loss_game()
    for seed in range(10):
        runs = []
        for first, second in ((RunningMeanPredictor(0.3), ConstantPredictor(0.8)),
                              (ConstantPredictor(0.8), RunningMeanPredictor(0.3))):
            sceptic = Level1Sceptic(c=0.4)
            trace = run_protocol(nature, first, second, sceptic, game, 500, seed=seed)
            runs.append((sceptic, trace))
        (a, trace_a), (b, trace_b) = runs
        assert trace_a.gamma_sceptic.tobytes() == trace_b.gamma_sceptic.tobytes()
        for col_a, col_b in zip(level1_ledger(trace_a, 0.4), level1_ledger(trace_b, 0.4)):
            assert col_a.tobytes() == col_b.tobytes()
        assert a.D == -b.D


def test_ledger_noop_when_predictions_agree():
    # a leading step moves D to 0.3
    sceptic, trace = _play_level1([(0.3, 0.0, 0.0), (0.5, 0.5, 0.7)])
    assert sceptic.D == 0.3
    assert level1_ledger(trace, 0.4)[0][-1] == 0.0


def test_ledger_area_closed_form():
    # D moves 0 -> 1; the triangle area is the full integral of f over [0, 1]
    sceptic, trace = _play_level1([(0.0, 1.0, 1.0)])
    assert trace.gamma_sceptic == [0.5]
    assert sceptic.D == 1.0
    areas, excess, bounds = level1_ledger(trace, 0.4)
    assert areas[-1] == pytest.approx(0.4 * (1.0 - math.log(2.0)), abs=1e-12)
    # outcome at the interval edge: the audit identity holds with equality
    assert excess[-1] == pytest.approx(bounds[-1], abs=1e-12)


def test_ledger_strict_inequality_inside_gap():
    # two leading steps at an edge outcome move D to 2.0
    sceptic, trace = _play_level1([(1.0, 0.0, 0.0)] * 2 + [(0.0, 1.0, 0.5)])
    assert sceptic.D == 2.0
    areas, excess, bounds = level1_ledger(trace, 0.4)
    assert areas[-1] >= 0.0
    assert excess[-1] < bounds[-1] - 1e-6


unit = st.floats(0.0, 1.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(c=st.floats(0.01, 0.49),
       steps=st.lists(st.tuples(unit, unit, st.booleans(), unit), min_size=1, max_size=40))
def test_ledger_identity_on_outcomes_outside_the_gap(c, steps):
    # an outcome outside the predictors' gap, its edges included, makes the
    # absolute loss affine along the segment the move lies on, so the
    # excess equals the ledger bound at every step
    moves = []
    for g1, g2, above, t in steps:
        lo, hi = min(g1, g2), max(g1, g2)
        moves.append((g1, g2, hi + t * (1.0 - hi) if above else t * lo))
    _, trace = _play_level1(moves, c=c, game=bounded_absolute_loss_game())
    _, excess, bounds = level1_ledger(trace, c)
    assert np.all(np.abs(excess - bounds) <= 1e-9)


def test_level1_full_run_equality_scenario():
    game = absolute_loss_game()
    trace = run_protocol(IidBernoulliNature(0.5), ConstantPredictor(0.0),
                         ConstantPredictor(1.0), Level1Sceptic(c=0.4), game, 5000, seed=21)
    areas, excess, bounds = level1_ledger(trace, 0.4)
    assert float(np.min(areas)) >= 0.0
    assert float(np.max(np.abs(excess - bounds))) < 1e-9


def test_level1_ledger_does_not_drift_at_a_million_steps():
    # prop1_absolute's run: plain running sums of the excess and the areas
    # drift to about -3e-10 here, compensated ones stay at float resolution
    game = absolute_loss_game()
    sceptic = Level1Sceptic(c=0.4)
    trace = run_protocol(IidBernoulliNature(0.5), ConstantPredictor(0.0),
                         ConstantPredictor(1.0), sceptic, game, 10**6, seed=0)
    assert sceptic.worst_slack(trace) >= -1e-12


@pytest.mark.parametrize("horizon", [10**4, 10**5, 3 * 10**5])
@pytest.mark.parametrize("p", [0.7, 0.9, 1.0])
@pytest.mark.parametrize("game", [absolute_loss_game, bounded_absolute_loss_game],
                         ids=["absolute", "bounded_absolute"])
def test_level1_ledger_holds_while_d_grows(game, p, horizon):
    # constants 0.2 and 0.9 under a biased coin: D grows about linearly, so
    # its additions round at every step, and the ledger bound must carry the
    # integral that rounding drops (without it the slack falls to -1.5e-7)
    sceptic = Level1Sceptic(c=0.4)
    trace = run_protocol(IidBernoulliNature(p), ConstantPredictor(0.2), ConstantPredictor(0.9),
                         sceptic, game(), horizon, seed=3)
    assert sceptic.worst_slack(trace) >= -CHECK_TOL


def test_level1_inequality_general_scenario():
    game = absolute_loss_game()
    trace = run_protocol(IidBernoulliNature(0.5), RunningMeanPredictor(0.3),
                         ConstantPredictor(0.9), Level1Sceptic(c=0.4), game, 5000, seed=22)
    areas, excess, bounds = level1_ledger(trace, 0.4)
    assert float(np.min(areas)) >= 0.0
    assert float(np.min(bounds - excess)) >= -1e-9


def test_ledger_row_with_infinite_predictor_loss_holds_and_nan_fails():
    # predictor 1 gives outcome 1 probability zero: from its first 1 the
    # excess is -inf and the bound NaN, and such a row holds
    sceptic = Level1Sceptic(c=0.4)
    trace = run_protocol(IidBernoulliNature(0.3), ConstantPredictor(np.array([1.0, 0.0])),
                         ConstantPredictor(np.array([0.5, 0.5])), sceptic,
                         log_loss_game(m=2), 50, seed=5)
    _, excess, bounds = level1_ledger(trace, 0.4)
    assert np.array_equal(np.isnan(bounds), excess == -math.inf)
    assert int(np.isnan(bounds).sum()) == 40
    report = verify_run(trace, ["ledger"], sceptic=sceptic)
    assert report.checks_passed and report.check_slacks["ledger"] == 0.0
    # a NaN loss anywhere else fails the check
    report = verify_run(Trace(absolute_loss_game(), [0.0] * 3, [1.0] * 3, [0.5] * 3,
                              [1.0, math.nan, 0.0]), ["ledger"],
                        sceptic=Level1Sceptic(c=0.4))
    assert not report.checks_passed
    assert math.isnan(report.check_slacks["ledger"])


def test_ledger_check_refuses_an_empty_trace():
    game = absolute_loss_game()
    with pytest.raises(ConfigError, match="ledger check"):
        Level1Sceptic(c=0.4).worst_slack(Trace(game, [], [], [], []))


def test_eq9_check_refuses_a_trace_without_divergence_terms():
    # a level-1 run records no divergence terms for eq9 to sum
    trace = run_protocol(ConstantNature(1.0), ConstantPredictor(0.2), ConstantPredictor(0.8),
                         Level1Sceptic(c=0.4), absolute_loss_game(), 5)
    with pytest.raises(ConfigError, match="eq9 check needs per-step divergence terms"):
        verify_run(trace, ["eq9"], sceptic=Level2Sceptic(0.0))


def _ledger_case(game, nature, p1, p2, horizon, seed, c=0.4):
    return game, nature, p1, p2, horizon, seed, c


LEDGER_CASES = {
    # acceptance criterion 5's scenarios, and criterion 7's, at N = 20,000
    "edge_outcomes": lambda: _ledger_case(
        absolute_loss_game(), IidBernoulliNature(0.5), ConstantPredictor(0.0),
        ConstantPredictor(1.0), 20_000, 31),
    "interior_outcomes": lambda: _ledger_case(
        absolute_loss_game(), IidUniformNature(0.25, 0.75), ConstantPredictor(0.0),
        ConstantPredictor(1.0), 20_000, 31),
    "adversarial_drift": lambda: _ledger_case(
        absolute_loss_game(), AdversarialGreedyNature(), DriftPredictor(0.2, 1e-5),
        ConstantPredictor(0.8), 20_000, 31),
    "wide_outcomes": lambda: _ledger_case(
        absolute_loss_game(), IidUniformNature(-0.5, 1.5), RunningMeanPredictor(0.5),
        ConstantPredictor(0.6), 20_000, 31),
    "fair_coin": lambda: _ledger_case(
        bounded_absolute_loss_game(), IidBernoulliNature(0.5), ConstantPredictor(0.0),
        ConstantPredictor(1.0), 20_000, 0),
    "adversarial_bounded": lambda: _ledger_case(
        bounded_absolute_loss_game(), AdversarialGreedyNature([0.0, 0.25, 0.5, 0.75, 1.0]),
        RunningMeanPredictor(0.3), ConstantPredictor(0.6), 5_000, 7),
    "replay_truncates": lambda: _ledger_case(
        bounded_absolute_loss_game(),
        ReplayNature(np.random.default_rng(8).uniform(size=300).tolist()),
        RunningMeanPredictor(0.5), ConstantPredictor(0.2), 500, 8),
    **{f"bounded_c{c}": (lambda c=c: _ledger_case(
        bounded_absolute_loss_game(), IidUniformNature(0.0, 1.0), RunningMeanPredictor(0.5),
        NoisyTargetPredictor(0.4, 0.2), 20_000, 9, c))
       for c in (0.1, 0.49)},
    "binary_log_loss": lambda: _ledger_case(
        log_loss_game(m=2), IidBernoulliNature(0.3), ConstantPredictor(np.array([0.7, 0.3])),
        RunningMeanPredictor(), 5_000, 3),
}


def _play_ledger(cls, case):
    game, nature, p1, p2, horizon, seed, c = case
    sceptic = cls(c=c)
    return sceptic, run_protocol(nature, p1, p2, sceptic, game, horizon, seed=seed)


@pytest.mark.filterwarnings("ignore:run truncated")
@pytest.mark.parametrize("name", sorted(LEDGER_CASES))
def test_column_ledger_matches_the_per_step_reference(name):
    # the same moves, the same areas, excess and bounds, and the same worst
    # slack, to the last bit
    ours, trace = _play_ledger(Level1Sceptic, LEDGER_CASES[name]())
    ref, ref_trace = _play_ledger(PerStepLevel1, LEDGER_CASES[name]())
    assert trace.truncated == (name == "replay_truncates")
    assert (np.asarray(trace.gamma_sceptic, dtype=float).tobytes()
            == np.asarray(ref_trace.gamma_sceptic, dtype=float).tobytes())
    columns = level1_ledger(trace, ours.c)
    for got, want in zip(columns, (ref.audit_areas, ref.audit_excess, ref.audit_bounds)):
        assert got.tobytes() == np.asarray(want, dtype=float).tobytes()
    assert ours.D.hex() == ref.D.hex()
    assert ours.worst_slack(trace).hex() == ref.worst_slack(ref_trace).hex()


def test_column_areas_match_the_scalar_triangle_area():
    # random moves of D, with exact zeros, moves to exactly zero and sign
    # crossings between integers
    rng = np.random.default_rng(12)
    d_old = rng.normal(0.0, 3.0, 100_000)
    delta = rng.normal(0.0, 3.0, 100_000)
    d_old[:5_000] = 0.0
    delta[5_000:10_000] = 0.0
    delta[10_000:15_000] = -d_old[10_000:15_000]
    d_old[15_000:25_000] = np.round(d_old[15_000:25_000])
    delta[15_000:25_000] = np.round(delta[15_000:25_000])
    d_old[25_000:30_000] = -0.0
    for c in (0.1, 0.4, 0.49):
        with np.errstate(divide="ignore"):
            got = _triangle_areas(d_old, delta, c)
        want = [triangle_area(a, b, c) for a, b in zip(d_old.tolist(), delta.tolist())]
        assert got.tobytes() == np.asarray(want).tobytes()


def test_level1_play_memory_is_independent_of_the_horizon():
    # a step only moves D: a run 4x longer peaks within 20 % of the shorter one
    def peak(horizon):
        game = bounded_absolute_loss_game()
        sceptic = Level1Sceptic(c=0.4)
        outcomes = np.random.default_rng(3).uniform(size=horizon).tolist()
        sceptic.reset(game, None, horizon)
        tracemalloc.start()
        try:
            for n, omega in enumerate(outcomes, 1):
                sceptic.predict(n, 0.2, 0.7)
                sceptic.observe(n, omega)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    short, long = peak(2_000), peak(8_000)
    assert max(short, long) <= 1.2 * min(short, long)


# ---------------------------------------------------------------------------
# level 3


def test_level3_config():
    with pytest.raises(ValueError):
        Level3Sceptic(Level2Sceptic(alpha=0.0), k_max=0)
    sceptic = Level3Sceptic(Level2Sceptic(alpha=0.0), k_max=20)
    assert float(sceptic.priors.sum()) <= 1.0
    assert sceptic.thresholds[0] == 2.0


def test_level3_refuses_non_mixable_game():
    game = bounded_absolute_loss_game()
    sceptic = Level3Sceptic(Level2Sceptic(alpha=0.0))
    with pytest.raises(MixabilityViolation):
        run_protocol(ConstantNature(0.5), ConstantPredictor(0.0),
                     ConstantPredictor(1.0), sceptic, game, 10, seed=0)


def test_level3_without_switches_tracks_base():
    # identical predictors: no expert ever defects, the pool is all base
    # copies, and the lift coincides with aggregation over those copies,
    # so its regret to the base stays under C ln(1/min prior)
    game = bounded_square_loss_game()
    sceptic = Level3Sceptic(Level2Sceptic(alpha=0.0), k_max=5)
    trace = run_protocol(IidBernoulliNature(0.5), ConstantPredictor(0.5),
                         ConstantPredictor(0.5), sceptic, game, 2000, seed=4)
    assert not sceptic.switch_times
    assert np.allclose(trace.gamma_sceptic, 0.5, atol=1e-12)
    bound = sceptic.C * math.log(1.0 / float(np.min(sceptic.priors)))
    assert sceptic.cum_self - sceptic.cum_base <= bound + 1e-9


def test_level3_degenerate_pool_is_plain_aggregation():
    game = bounded_square_loss_game()
    sceptic = Level3Sceptic(Level2Sceptic(alpha=0.0), k_max=1)
    run_protocol(IidBernoulliNature(0.5), ConstantPredictor(0.3),
                 ConstantPredictor(0.7), sceptic, game, 500, seed=8)
    assert len(sceptic.priors) == 2
    assert sceptic.worst_eq8_slack >= -1e-9


def test_level3_outruns_the_bad_predictor():
    game = bounded_square_loss_game()
    sceptic = Level3Sceptic(Level2Sceptic(alpha=0.0))
    trace = run_protocol(ConstantNature(0.9), ConstantPredictor(0.1),
                         ConstantPredictor(0.9), sceptic, game, 4000, seed=13)
    assert sceptic.switch_times  # the watchers of predictor 1 defected
    assert trace.cum1[-1] - trace.cum_sceptic[-1] > 100.0
    assert sceptic.worst_eq8_slack >= -1e-9


def test_level3_disjunction_at_long_horizon():
    # every scenario must land in a disjunct: either the squared prediction
    # gaps stay summable or the lift pulls unboundedly ahead of a predictor
    from jeffreys import IidUniformNature, NoisyTargetPredictor, classify_disjuncts
    game = bounded_square_loss_game()
    horizon = 100_000

    sceptic = Level3Sceptic(Level2Sceptic(alpha=0.0))
    trace = run_protocol(IidUniformNature(0.6, 0.8), ConstantPredictor(0.2),
                         ConstantPredictor(0.7), sceptic, game, horizon, seed=51)
    report = classify_disjuncts(trace, gap_sum_max=1.0, loss_gap_min=100.0)
    assert "beats-P1" in report.verdicts

    sceptic = Level3Sceptic(Level2Sceptic(alpha=0.0))
    trace = run_protocol(IidBernoulliNature(0.4),
                         NoisyTargetPredictor(0.4, sigma=0.15),
                         NoisyTargetPredictor(0.4, sigma=0.15),
                         sceptic, game, horizon, seed=52)
    report = classify_disjuncts(trace, gap_sum_max=1.0, loss_gap_min=100.0)
    assert "gap-vanishes" in report.verdicts


# ---------------------------------------------------------------------------
# level 3's three group weights against the per-expert reference engine

def _lift_case(game, p1, p2, nature, horizon, seed, k_max=20, base=None):
    return (game, p1, p2, nature, horizon, seed, k_max,
            base or (lambda: Level2Sceptic(alpha=0.0, epsilon=1e-3)))


def _noisy(target):
    return NoisyTargetPredictor(target, sigma=0.15)


def _log_pair(p, q):
    return ConstantPredictor(np.array(p)), ConstantPredictor(np.array(q))


LIFT_CASES = {
    # the locked runs: the prop5_lift scenario and the level-3 pool lock
    "prop5_lift": lambda: _lift_case(bounded_square_loss_game(), ConstantPredictor(0.1),
                                     ConstantPredictor(0.9), ConstantNature(0.9),
                                     10_000, 20090713),
    "level3_log_loss": lambda: _lift_case(log_loss_game(m=2), *_log_pair([0.2, 0.8], [0.7, 0.3]),
                                          IidBernoulliNature(0.75), 1000, 15, k_max=12),
    # acceptance criterion 6, and the long-horizon disjunction test
    "criterion6_diverging": lambda: _lift_case(
        bounded_square_loss_game(), ConstantPredictor(0.1), ConstantPredictor(0.9),
        ConstantNature(0.9), 10_000, 41),
    "criterion6_converging": lambda: _lift_case(
        bounded_square_loss_game(), _noisy(0.6), _noisy(0.6), IidBernoulliNature(0.6),
        10_000, 42),
    "long_diverging": lambda: _lift_case(
        bounded_square_loss_game(), ConstantPredictor(0.2), ConstantPredictor(0.7),
        IidUniformNature(0.6, 0.8), 100_000, 51),
    "long_converging": lambda: _lift_case(
        bounded_square_loss_game(), _noisy(0.4), _noisy(0.4), IidBernoulliNature(0.4),
        100_000, 52),
    # the quartic endpoint root, three outcomes, and the pool's size
    "quartic": lambda: _lift_case(quartic_loss_game(outcome_grid_size=65),
                                  ConstantPredictor(-0.5), ConstantPredictor(0.5),
                                  IidUniformNature(-1.0, 1.0), 100, 16, k_max=5),
    "log_loss_m3": lambda: _lift_case(log_loss_game(m=3),
                                      *_log_pair([0.6, 0.3, 0.1], [0.1, 0.2, 0.7]),
                                      ReplayNature([0, 1, 2, 2, 1, 0, 2] * 300), 2000, 17),
    "k_max_1": lambda: _lift_case(bounded_square_loss_game(), ConstantPredictor(0.3),
                                  ConstantPredictor(0.7), IidBernoulliNature(0.5), 500, 8,
                                  k_max=1),
    "k_max_5": lambda: _lift_case(bounded_square_loss_game(), ConstantPredictor(0.1),
                                  ConstantPredictor(0.9), ConstantNature(0.9), 3000, 13,
                                  k_max=5),
    "k_max_limit": lambda: _lift_case(bounded_square_loss_game(), ConstantPredictor(0.1),
                                      ConstantPredictor(0.9), ConstantNature(0.9), 3000, 13,
                                      k_max=K_MAX_LIMIT),
    "k_max_limit_log_loss": lambda: _lift_case(
        log_loss_game(m=2), *_log_pair([0.2, 0.8], [0.7, 0.3]), IidBernoulliNature(0.75),
        1000, 15, k_max=K_MAX_LIMIT),
    # every expert suffers an infinite loss at step 1: the pool collapses at step 2
    "collapse": lambda: _lift_case(log_loss_game(m=2), *_log_pair([1.0, 0.0], [0.5, 0.5]),
                                   IidBernoulliNature(0.5), 100, 3),
    # predictor 1's infinite losses against a base that never suffers one:
    # its group is eliminated, and every watcher of it switches at once
    "infinite_predictor_loss": lambda: _lift_case(
        log_loss_game(m=2), *_log_pair([1.0, 0.0], [0.5, 0.5]), IidBernoulliNature(0.3),
        300, 5, k_max=K_MAX_LIMIT,
        base=lambda: AggregatingSceptic([ConstantPredictor(np.array([0.5, 0.5])),
                                         ConstantPredictor(np.array([0.8, 0.2]))])),
}


def _play_lift(make, case):
    game, p1, p2, nature, horizon, seed, k_max, base = case
    sceptic = make(base(), k_max=k_max)
    steps = []
    predict = sceptic.predict

    def counted(n, gamma1, gamma2):
        steps.append(n)
        return predict(n, gamma1, gamma2)
    sceptic.predict = counted
    try:
        trace = run_protocol(nature, p1, p2, sceptic, game, horizon, seed=seed)
    except JeffreysError as exc:
        return sceptic, None, (type(exc), steps[-1])
    report = verify_run(trace, ["eq8"], sceptic=sceptic,
                        report=classify_disjuncts(trace, gap_sum_max=1.0, loss_gap_min=100.0))
    return sceptic, trace, report


@pytest.mark.parametrize("name", sorted(LIFT_CASES))
def test_level3_groups_match_the_per_expert_engine(name):
    # the three group weights play the 2 * k_max experts one by one would,
    # to rounding: the same switches, verdicts and failures, the same moves
    # and the same eq8 slack
    ours, trace, report = _play_lift(Level3Sceptic, LIFT_CASES[name]())
    ref, ref_trace, ref_report = _play_lift(PerExpertLevel3, LIFT_CASES[name]())
    if name == "collapse":
        assert ref_report == (PoolCollapseError, 2)
    if ref_trace is None or trace is None:
        assert report == ref_report  # (exception class, step)
        return
    assert ours.switch_times == ref.switch_times
    assert report.verdicts == ref_report.verdicts
    assert report.checks_passed and ref_report.checks_passed
    gammas = np.asarray(trace.gamma_sceptic, dtype=float)
    assert np.max(np.abs(gammas - np.asarray(ref_trace.gamma_sceptic, dtype=float))) <= 1e-12
    assert abs(ours.worst_eq8_slack - ref.worst_eq8_slack) <= 1e-9
    assert ours.worst_eq8_slack >= -1e-9


@pytest.mark.parametrize("name", ["criterion6_diverging", "infinite_predictor_loss", "k_max_1",
                                  "k_max_5", "level3_log_loss", "log_loss_m3", "quartic"])
def test_level3_worst_eq8_step_against_the_per_expert_series(name):
    # the step the group audit names attains the per-expert audit's worst
    # slack, to rounding, and is that audit's step where its worst is unique
    ours, _, _ = _play_lift(Level3Sceptic, LIFT_CASES[name]())
    game, p1, p2, nature, horizon, seed, k_max, base = LIFT_CASES[name]()
    ref = PerExpertLevel3(base(), k_max=k_max)
    series = []
    observe = ref.observe

    def recorded(n, omega):
        observe(n, omega)
        series.append(float((ref.expert_cums + ref._comp_experts + ref._penalty).min())
                      - (ref.cum_self + ref._comp_self))
    ref.observe = recorded
    run_protocol(nature, p1, p2, ref, game, horizon, seed=seed)
    series = np.array(series)
    worst, second = np.partition(series, 1)[:2]
    assert abs(series[ours.worst_eq8_step - 1] - worst) <= 1e-9
    if second - worst > 1e-9:
        assert ours.worst_eq8_step == int(series.argmin()) + 1
