"""Divergence closed forms, the numeric max-min path, and their agreement."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jeffreys import (GAME_SPECS, ConstantNature, ConstantPredictor, DriftPredictor, Game,
                      GameKind, IidUniformNature, Level2Sceptic, alpha_divergence_log_loss,
                      alpha_divergence_square_loss, bounded_absolute_loss_game,
                      bounded_square_loss_game, game_from_descriptor,
                      kl_divergence_log_loss, log_loss_game,
                      lower_alpha_divergence_numeric, quartic_loss_game, run_protocol,
                      standard_alpha_divergence_log_loss, upper_alpha_divergence_numeric)
from jeffreys.cli import main
from test_games import spy_on_profiles

# frozen from direct evaluation of the log-affinity formula
LOG_DIV_HALF_VS_09 = -4.0 * math.log(math.sqrt(0.45) + math.sqrt(0.05))
# frozen from direct evaluation of the KL sum
KL_HALF_VS_QUARTER = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)


# ---------------------------------------------------------------------------
# closed forms


def test_square_loss_closed_form():
    assert alpha_divergence_square_loss(3.0, 5.0, 0.7) == 4.0
    assert alpha_divergence_square_loss(0.3, 0.3, 0.0) == 0.0
    assert alpha_divergence_square_loss(0.0, 1.0, -1.0) == 1.0


def test_square_loss_alpha_range():
    with pytest.raises(ValueError):
        alpha_divergence_square_loss(0.0, 1.0, 1.5)


def test_log_loss_closed_form():
    assert alpha_divergence_log_loss([0.5, 0.5], [0.5, 0.5], 0.3) == pytest.approx(0.0)
    assert alpha_divergence_log_loss([1.0, 0.0], [0.0, 1.0], 0.0) == math.inf
    got = alpha_divergence_log_loss([0.5, 0.5], [0.9, 0.1], 0.0)
    assert got == pytest.approx(LOG_DIV_HALF_VS_09, abs=1e-12)


@pytest.mark.parametrize("m", [2, 3])
def test_log_loss_closed_form_is_the_trace_term(m):
    # the public function and the level-2 sceptic's recorded term share one
    # arithmetic, so a trace's divergence column is reproducible bit for bit
    rng = np.random.default_rng(m)
    game = log_loss_game(m=m)
    for _ in range(200):
        g1, g2 = rng.dirichlet(np.ones(m), size=2)
        alpha = rng.uniform(-0.95, 0.95)
        trace = run_protocol(ConstantNature(0), ConstantPredictor(g1), ConstantPredictor(g2),
                             Level2Sceptic(alpha=alpha), game, 1)
        assert alpha_divergence_log_loss(g1, g2, alpha) == trace.divergence_term[0]


def test_standard_alpha_divergence():
    assert standard_alpha_divergence_log_loss([0.4, 0.6], [0.4, 0.6], 0.0) == pytest.approx(0.0)
    assert standard_alpha_divergence_log_loss([1.0, 0.0], [0.0, 1.0], 0.0) == pytest.approx(4.0)


def test_standard_below_game_divergence():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = rng.uniform(0.02, 0.98)
        q = rng.uniform(0.02, 0.98)
        alpha = rng.uniform(-0.9, 0.9)
        g1, g2 = [1 - p, p], [1 - q, q]
        assert (standard_alpha_divergence_log_loss(g1, g2, alpha)
                <= alpha_divergence_log_loss(g1, g2, alpha) + 1e-12)


def test_kl_divergence():
    assert kl_divergence_log_loss([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert kl_divergence_log_loss([0.5, 0.5], [0.25, 0.75]) == pytest.approx(
        KL_HALF_VS_QUARTER, abs=1e-12)
    assert kl_divergence_log_loss([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0))
    assert kl_divergence_log_loss([0.5, 0.5], [1.0, 0.0]) == math.inf


def test_kl_divergence_is_the_sum_over_outcomes():
    # the per-outcome sum in play order, on 2 to 12 outcomes with zero
    # probabilities on either side; numpy sums in another order
    rng = np.random.default_rng(5)
    for m in range(2, 13):
        p, q = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m))
        p[rng.random(m) < 0.3] = 0.0
        q[(p == 0.0) & (rng.random(m) < 0.5)] = 0.0
        terms = [a * math.log(a / b) for a, b in zip(p.tolist(), q.tolist()) if a != 0.0]
        assert kl_divergence_log_loss(p, q) == pytest.approx(math.fsum(terms), rel=1e-13,
                                                             abs=1e-15)
        if p.any():
            q[np.flatnonzero(p)[0]] = 0.0
            assert kl_divergence_log_loss(p, q) == math.inf


def test_kl_is_the_alpha_limit():
    g1, g2 = [0.5, 0.5], [0.25, 0.75]
    near = alpha_divergence_log_loss(g1, g2, -1.0 + 1e-4)
    assert abs(near - kl_divergence_log_loss(g1, g2)) < 1e-3


# ---------------------------------------------------------------------------
# numeric max-min


def test_numeric_alpha_domain():
    g = bounded_square_loss_game()
    with pytest.raises(ValueError):
        lower_alpha_divergence_numeric(g, 0.0, 1.0, 1.0)


def test_bounded_square_lower_matches_closed_form():
    g = bounded_square_loss_game()
    r = lower_alpha_divergence_numeric(g, 0.0, 1.0, 0.0, tol=1e-7)
    assert r.value == pytest.approx(1.0, abs=1e-6)
    assert r.shift == pytest.approx(0.25, abs=3e-7)
    assert r.bracketed


def test_bounded_square_upper_equals_lower():
    g = bounded_square_loss_game()
    r = upper_alpha_divergence_numeric(g, 0.0, 1.0, 0.0, tol=1e-7)
    assert r.value == pytest.approx(1.0, abs=1e-6)


def test_same_prediction_gives_zero():
    g = bounded_square_loss_game()
    assert lower_alpha_divergence_numeric(g, 0.4, 0.4, 0.3, tol=1e-7).value == pytest.approx(
        0.0, abs=1e-5)
    assert upper_alpha_divergence_numeric(g, 0.4, 0.4, 0.3, tol=1e-7).value == pytest.approx(
        0.0, abs=1e-5)


def test_quartic_lower_and_upper_shifts_differ():
    g = quartic_loss_game()
    lo = lower_alpha_divergence_numeric(g, -1.0, 1.0, 0.0, tol=1e-4)
    up = upper_alpha_divergence_numeric(g, -1.0, 1.0, 0.0, tol=1e-4)
    assert lo.shift == pytest.approx(1.0, abs=1e-6)
    assert up.shift == pytest.approx(7.0, abs=1e-6)
    assert lo.value == pytest.approx(4.0, abs=4e-6)
    assert up.value == pytest.approx(28.0, abs=4e-6)


# every table entry with a closed-form divergence, at the tolerance each
# family had before the table: 1e-5 for square losses, 1e-4 for log loss
CLOSED_FORM_KINDS = [kind for kind, spec in GAME_SPECS.items() if spec.divergence]
AGREEMENT_TOL = {GameKind.LOG_LOSS: 1e-4}


@pytest.mark.parametrize("kind", CLOSED_FORM_KINDS,
                         ids=lambda kind: kind.value.removesuffix("_loss") + "_loss_game")
def test_numeric_agreement_with_closed_form(kind):
    game = game_from_descriptor({"kind": kind.value})
    closed_form = game.spec.divergence
    tol = AGREEMENT_TOL.get(kind, 1e-5)
    # the union of the square-loss and log-loss cases the test had per family
    for u1 in (0.0, 0.2, 0.3, 0.5, 0.7, 0.8):
        for u2 in (0.1, 0.6, 0.9, 1.0):
            g1, g2 = game.prediction_from_param(u1), game.prediction_from_param(u2)
            for alpha in (-0.8, -0.4, 0.0, 0.4, 0.8):
                closed = closed_form(game, alpha)([g1], [g2])[0]
                for numeric in (lower_alpha_divergence_numeric,
                                upper_alpha_divergence_numeric):
                    got = numeric(game, g1, g2, alpha, tol=1e-7).value
                    assert got == closed or abs(got - closed) <= tol, (
                        numeric.__name__, u1, u2, alpha, got, closed)


def test_hellinger_symmetry():
    g = bounded_square_loss_game()
    a = lower_alpha_divergence_numeric(g, 0.2, 0.9, 0.0, tol=1e-7).value
    b = lower_alpha_divergence_numeric(g, 0.9, 0.2, 0.0, tol=1e-7).value
    assert a == pytest.approx(b, abs=1e-6)


def test_upper_at_least_lower():
    # 0 <= lower <= upper: the lower shift is a max-min, the upper a min-max
    tol = 1e-6
    rng = np.random.default_rng(3)
    cases = [(bounded_square_loss_game(), lambda: tuple(rng.uniform(0, 1, 2))),
             (bounded_absolute_loss_game(), lambda: tuple(rng.uniform(0, 1, 2))),
             (quartic_loss_game(outcome_grid_size=257),
              lambda: tuple(rng.uniform(-1, 1, 2))),
             (log_loss_game(m=2),
              lambda: tuple(np.array([1 - p, p]) for p in rng.uniform(0.02, 0.98, 2)))]
    for game, draw in cases:
        for _ in range(20):
            g1, g2 = draw()
            alpha = rng.uniform(-0.9, 0.9)
            lo = lower_alpha_divergence_numeric(game, g1, g2, alpha, tol=tol)
            up = upper_alpha_divergence_numeric(game, g1, g2, alpha, tol=tol)
            assert -tol <= lo.shift <= up.shift + tol, (game.kind, g1, g2, alpha)


# every table entry with a prediction grid (log loss with m = 2)
GRID_GAMES = [g for g in (spec.make(65, 2) for spec in GAME_SPECS.values())
              if g.prediction_grid is not None]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(game=st.sampled_from(GRID_GAMES), u1=st.floats(0.02, 0.98), u2=st.floats(0.02, 0.98),
       alpha=st.floats(-0.9, 0.9))
def test_lower_between_zero_and_upper_on_every_grid_game(game, u1, u2, alpha):
    # the draws are fractions of the prediction grid's span, kept off its
    # ends so that log-loss divergences stay finite
    tol = 1e-6
    grid = game.prediction_grid
    g1, g2 = (game.prediction_from_param(grid[0] + u * (grid[-1] - grid[0])) for u in (u1, u2))
    lo = lower_alpha_divergence_numeric(game, g1, g2, alpha, tol=tol)
    up = upper_alpha_divergence_numeric(game, g1, g2, alpha, tol=tol)
    assert -tol <= lo.shift <= up.shift + tol


def test_bounded_absolute_upper_within_lipschitz_cap():
    # absolute loss is 1-Lipschitz and both predictions are candidates, so
    # the upper shift is at most min(w1, w2) |gamma1 - gamma2|
    game = bounded_absolute_loss_game()
    tol = 1e-7
    rng = np.random.default_rng(11)
    for i in range(510):
        alpha = (-0.8, 0.0, 0.8)[i % 3]
        g1, g2 = rng.uniform(0, 1, 2)
        cap = min(1 - alpha, 1 + alpha) / 2 * abs(g1 - g2)
        up = upper_alpha_divergence_numeric(game, g1, g2, alpha, tol=tol)
        assert up.shift <= cap + tol, (g1, g2, alpha)


def test_unbracketable_reported_as_infinite():
    game = log_loss_game(m=2)
    r = lower_alpha_divergence_numeric(game, np.array([1.0, 0.0]),
                                       np.array([0.0, 1.0]), 0.0)
    assert r.value == math.inf
    assert not r.bracketed


@pytest.mark.parametrize("game_factory, g1, g2", [
    (quartic_loss_game, -0.5, 0.5),
    (bounded_absolute_loss_game, 0.2, 0.7),
])
def test_a_numeric_level2_run_never_builds_the_canonical_point_matrix(game_factory, g1, g2):
    # the mean path takes its gaps at candidate outcomes, so a run never
    # evaluates the loss profiles over the outcome grid, of which the
    # prediction grid's P x O canonical points are made
    game = game_factory()
    built = spy_on_profiles(game)
    lo, hi = game.bounds()[0]
    trace = run_protocol(IidUniformNature(lo, hi), ConstantPredictor(g1),
                         DriftPredictor(g2, -0.001), Level2Sceptic(alpha=0.3), game, 50, seed=1)
    assert len(trace) == 50
    assert built == []


def test_the_divergence_command_never_builds_the_canonical_point_matrix(monkeypatch, capsys):
    # nor, on a kind with candidate outcomes, any loss profile over the
    # outcome grid; log loss's mean gap is its grid gap, its outcome grid
    # being its whole outcome space
    built = []
    original = Game.grid_canonical_points
    monkeypatch.setattr(Game, "grid_canonical_points",
                        lambda self: built.append(self.kind) or original(self))
    for kind, spec in GAME_SPECS.items():
        if spec.candidates is not None:
            monkeypatch.setitem(GAME_SPECS, kind, dataclasses.replace(
                spec, param_losses=lambda game, params: built.append(game.kind)))
    vectors = ("0.3,0.7", "0.6,0.4")
    moves = {"quartic": ("-0.5", "0.5"), "log": vectors, "log_loss": vectors}
    for game in ["log"] + [kind.value for kind in GameKind]:
        g1, g2 = moves.get(game, ("0.2", "0.7"))
        for side in ("lower", "upper"):
            assert main(["divergence", "--game", game, "--g1", g1, "--g2", g2,
                         "--side", side, "--method", "numeric"]) == 0
    capsys.readouterr()
    assert built == []
