"""Exponential-weights aggregation over an expert pool for mixable games.

The mixing step turns the weighted pool of expert loss profiles into the
mixture loss ``g``; the move is a prediction whose loss is dominated by
``g`` everywhere, which exists whenever the game is perfectly mixable at
the pool's learning rate (Vovk, Competitive on-line statistics, 2001).  The
resulting cumulative loss trails every expert by at most
``C * ln(1 / p_k)`` with ``C = 1 / eta``.

:func:`fixed_pool_mixer` is the pool sceptics' per-step mixing routine,
prepared once for the experts' predictions.  It is the one-row case of the
closed form in the game's table entry, ``mix_column``, which the pools'
column blocks call on a block of rows: one form serves both paths.  The
bounded scalar kinds (bounded square, quartic) take the move from ``g`` at
the two ends of the outcome interval, where their binding constraint sits,
and log loss takes the probability mixture.  Moves dominate within
``DOMINATION_TOL``, the constant of :mod:`.games`, re-exported here.

The weights the mix takes are the pool sceptics' own: their one pool keeps
them per member as an offset (``ln p_k`` for a fixed pool) less eta times
the TwoSum-compensated cumulative loss its eq8 audit reads, and normalizes
them at each move.
"""

from __future__ import annotations

from .errors import MixabilityViolation
from .games import (DOMINATION_TOL, Game, MixabilityParams, _first_row,
                    check_perfectly_mixable)


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


def fixed_pool_mixer(game: Game, eta: float, preds):
    """The aggregating move for fixed expert predictions, ``log_w -> prediction``:
    the one-row case of the game's ``mix_column``, prepared here once for
    ``preds``, so a step plays the arithmetic of the column forms.  Raises
    MixabilityViolation where the kind has none at ``eta``, or where a move
    does not dominate the mixture loss within ``DOMINATION_TOL``."""
    mix_column = game.spec.mix_column
    column = mix_column(preds, eta) if mix_column is not None else None
    if column is None:
        raise MixabilityViolation(
            f"no closed-form mix for the {game.kind.value} game at eta={eta}")

    def mix(log_w):
        gammas = column(log_w[None])
        if gammas is None:
            raise MixabilityViolation(
                f"the mixed move exceeds the mixture loss by more than {DOMINATION_TOL:.3g}")
        return _first_row(gammas)
    return mix
