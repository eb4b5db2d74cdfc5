"""Exponential-weights aggregation over an expert pool for mixable games.

The mixing step turns the weighted pool of expert loss profiles into a
generalized prediction ``g``; the substitution step finds an actual
prediction whose loss is dominated by ``g`` everywhere, which exists
whenever the game is perfectly mixable at the pool's learning rate.  The
resulting cumulative loss trails every expert by at most
``C * ln(1 / p_k)`` with ``C = 1 / eta``.

:func:`fixed_pool_mixer` is the one mix-and-substitute routine, for the
pool sceptics, prepared once for the experts' predictions: the closed form
in the game's table entry (the bounded square-loss endpoint formula, the
log-loss probability mixture), or else the mixed loss profiles
(:func:`_generalized`) and a numeric minimax search over the prediction
grid, which the closed forms are tested against.  Moves dominate within
``DOMINATION_TOL``, the constant of :mod:`.games`, re-exported here.

The weights the mix takes are the pool sceptics' own: both keep them as
``ln p_k - eta * L_k``, the prior less eta times the TwoSum-compensated
cumulative loss their eq8 audit reads, and normalize at each move.
"""

from __future__ import annotations

import numpy as np

from .errors import MixabilityViolation
from .games import (DOMINATION_TOL, Game, MixabilityParams, Prediction,
                    check_perfectly_mixable, superprediction_gap)


def params_for(game: Game) -> MixabilityParams:
    """The game's (eta, C) = (eta*, 1 / eta*), eta* its kind's mixability
    constant on the outcome bounds; refuses an unbounded or non-mixable kind,
    and a game that fails the perfect-mixability test at eta*."""
    ob = game.bounds()[0]
    eta = game.spec.eta_star(ob[1] - ob[0]) if ob is not None else 0.0
    if eta <= 0.0:
        raise MixabilityViolation(
            f"no mixability parameters for the {game.kind.value} game")
    if not check_perfectly_mixable(game, eta):
        raise MixabilityViolation(
            f"{game.kind.value} game fails the mixability test at eta={eta}")
    return MixabilityParams(eta, 1.0 / eta)


def _generalized(log_w: np.ndarray, points: np.ndarray, eta: float) -> np.ndarray:
    """Per-outcome mixture loss ``g(omega) = -ln(sum_k w_k e^(-eta loss_k)) / eta``
    of normalized log-weights over (K, O) expert loss profiles."""
    # -inf - (+inf) is -inf; only a NaN loss makes a NaN, and drops out
    exponents = log_w[:, None] - eta * points
    exponents = np.where(np.isnan(exponents), -np.inf, exponents)
    # a log-sum-exp down each outcome's column, in one pass over all the outcomes
    top = exponents.max(axis=0)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return -(top + np.log(np.exp(exponents - top).sum(axis=0))) / eta


def substitute(game: Game, g: np.ndarray) -> Prediction:
    """A prediction whose loss is dominated by ``g`` on the outcome grid.

    The game's closed form, if it has one, and otherwise a minimax search
    over the prediction grid.  Raises MixabilityViolation when the best
    achievable excess exceeds ``DOMINATION_TOL`` (learning rate too large,
    or the game is not mixable).
    """
    g = np.asarray(g, dtype=float)
    closed = game.spec.substitute
    gamma = closed(game, g) if closed is not None else None
    return gamma if gamma is not None else _substitute_numeric(game, g)


def _substitute_numeric(game: Game, g: np.ndarray) -> Prediction:
    """A prediction whose loss exceeds ``g`` by at most ``DOMINATION_TOL`` at
    each outcome of the grid: a statement about the grid, not the interval."""
    u, worst = superprediction_gap(game, g, DOMINATION_TOL)
    if worst > DOMINATION_TOL:
        raise MixabilityViolation(
            f"substitution excess {worst:.3g} exceeds {DOMINATION_TOL:.3g}")
    return game.prediction_from_param(u)


def fixed_pool_mixer(game: Game, eta: float, preds):
    """The aggregating move for fixed expert predictions, ``log_w -> prediction``.

    The game's closed form, prepared here once for ``preds``, is tried
    first; where it has none, or it does not dominate, the experts' loss
    profiles are mixed and substituted by :func:`substitute`.
    """
    closed = game.spec.mix(preds, eta) if game.spec.mix is not None else None

    def mix(log_w):
        gamma = closed(log_w) if closed is not None else None
        if gamma is None:
            gamma = substitute(game, _generalized(log_w, game.profiles(preds), eta))
        return gamma
    return mix
