"""Sceptic strategies that certify agreement between two forecasters.

Three constructions, ordered by the strength of what they certify:

* the divergence strategy (``Level2Sceptic``): picks a canonical point
  sitting below the alpha-weighted mean of the predictors' loss profiles
  by the per-step lower divergence, giving a cumulative inequality that
  forces the divergence sum to be dominated by the loss advantage;
* the mixture-weighting strategy (``Level1Sceptic``): for convex games
  with zero divergence (absolute loss), weights the two predictors by an
  odd saturating function of their loss difference; its exact
  integral/triangle ledger of its excess over their average loss,
  ``level1_ledger``, is read off the finished trace's loss columns, and
  counts the rounding of the loss difference's own running sum;
* the threshold lift (``Level3Sceptic``): aggregates a doubly-indexed
  pool of experts that mimic a base sceptic until a predictor falls a
  power-of-two behind it, then permanently defect to that predictor;
  requires a perfectly mixable game.

Each strategy has one implementation, its ``ScepticStrategy`` class, which
certifies its own guarantee: ``eq9`` (level 2), ``ledger`` (level 1) or
``eq8`` (the threshold lift, and ``AggregatingSceptic``, the aggregating
mixture of a fixed pool of expert strategies).  Those two step through one
pool (``_Pool``): one move and one settle per step, one eq8 audit and one
column block, over the game's mix (``fixed_pool_mixer``).  Per member it
keeps the TwoSum-compensated cumulative loss L, a log-weight offset and an
eq8 floor: a weight is the offset less ``eta * L``, an eq8 bound is ``L``
plus the floor, and domination is re-checked by the mixture loss's own
log-sum-exp.  The aggregating sceptic's members are its experts, their
offsets ``ln p`` and floors ``C ln 1/p`` fixed; the lift's are its three
groups of experts that predict alike, their offsets and floors fixed at
switches.

Column forms (``predict_column``) play a whole run from the validated
columns of both predictors' moves and of the outcomes.  Against a Nature
that replies to the current moves the outcomes come last, so the column
form is first told ``omegas=None``: level 2, whose moves read no outcome,
plays (its one move routine, which a step plays on one row); level 1, the aggregating pool and the threshold lift,
which read past outcomes, give None, and the engine plays them against
guessed outcome columns until Nature's reply to one is the guess.  The
lift plays its base's column form where the engine's rule lets it stand in
(``_column``), and finds its switches as first passages of running loss
differences over its thresholds.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .aggregating import DOMINATION_TOL, fixed_pool_mixer, params_for
from .errors import ConfigError, DivergenceOverestimate, MixabilityViolation, PoolCollapseError
from .games import (Game, Prediction, _checked, _first_row, _lse1, _lse_rows, _scale,
                    alpha_weights, mean_gap)
from .players import ConstantPredictor, _column, plays_own


class ScepticStrategy:
    """Base interface: predict after the predictors move, observe after Nature.

    Validate-once contract: the protocol engine validates both predictors'
    moves before ``predict`` sees them, the sceptic's own move as it is
    announced, and the outcome before ``observe`` sees it; in column play
    it validates both predictors' columns, and an oblivious Nature's
    outcome column, before ``predict_column`` sees them, and the sceptic's
    column after.
    Strategies score those moves with the game's unvalidated ``loss_fn``
    kernel rather than re-checking them through ``Game.loss``.

    ``predict_column(gammas1, gammas2, omegas)`` plays a whole run at once
    from its validated move and outcome columns: it gives the sceptic's move
    column, bit for bit the per-step moves of the class that defines it, and
    leaves the state the per-step loop would leave.  Row n reads only the
    moves through n and the outcomes before n, so that changing
    ``omegas[k:]`` leaves rows 0..k as they were: against a Nature that
    replies to the moves the engine plays the form against guessed outcome
    columns, and keeps a guess that Nature's reply repeats.  ``omegas`` is
    None where the outcomes are not known yet; only a strategy whose moves
    read no outcomes (level 2) then plays.  The
    engine decides once per run whether the form may stand in for the
    per-step methods: only where the strategy plays that class's own
    ``predict`` and ``observe``.  Where any of its own steps
    would raise, warn or leave the closed forms, it gives None, whatever
    state it has changed on the way: the engine resets every player and
    plays the loop, which tells what went wrong and at which step, as it
    does after a move column it refuses (a NaN move, say).

    ``check`` names the guarantee the strategy certifies, ``worst_slack``
    its worst slack over a finished run; the trace records as its per-step
    divergence terms the ``divergence_column`` of the run's move columns
    (NaN for a strategy that has none).
    """

    check: Optional[str] = None

    def divergence_column(self, gammas1, gammas2) -> np.ndarray:
        return np.full(len(gammas1), math.nan)

    def worst_slack(self, trace) -> float:
        raise NotImplementedError

    def reset(self, game: Game, rng: np.random.Generator, horizon: int) -> None:
        pass

    def predict(self, n: int, gamma1: Prediction, gamma2: Prediction) -> Prediction:
        raise NotImplementedError

    def observe(self, n: int, omega) -> None:
        pass

    def predict_column(self, gammas1: np.ndarray, gammas2: np.ndarray,
                       omegas: Optional[np.ndarray]) -> Optional[np.ndarray]:
        return None


# ---------------------------------------------------------------------------
# level 2: the divergence strategy


def _level2_numeric(game: Game, gamma1, gamma2, alpha: float):
    """(move, divergence term it achieves) for a scalar game without a closed form."""
    # the engine validated the moves; the argmin's canonical point lies below the
    # mean by the lower divergence's shift = -gap, so the move achieves it exactly
    u, gap = mean_gap(game, gamma1, gamma2, alpha, DOMINATION_TOL, False)
    if gap > DOMINATION_TOL:
        raise DivergenceOverestimate(
            f"no canonical point below the weighted mean (gap {gap:.3g})")
    return game.prediction_from_param(u), _scale(alpha) * -gap


class Level2Sceptic(ScepticStrategy):
    """The divergence strategy.

    Games with a closed form in their table entry play it: the exact
    weighted mean of the predictions for the square-loss family, the
    normalized geometric mixture for log-loss; neither consumes any slack.
    The form is the entry's ``level2_column``, prepared once at reset.
    Other games play the prediction whose canonical point attains the
    numeric lower divergence: one gap search over the prediction grid for
    the point furthest below the weighted mean of the predictors' canonical
    points, run once per distinct pair of moves.  That search is exact on
    the whole outcome interval, not only at grid outcomes (the outcome grid
    decides only the vector membership predicates), so the move lies below
    the mean less its shift at every outcome Nature may play.  Its shift is
    the divergence by definition, so no slack is spent either.  One routine
    plays both (``_moves``): ``predict_column`` calls it on the run's
    columns, ``predict`` on one row.  Neither reads an outcome, so the
    column form plays whether or not the outcomes are known; it gives None
    where a move would raise, so that the loop raises at its step.

    ``divergence_column(gammas1, gammas2)`` is the run's column of per-step
    divergence terms the trace records: the game's closed form over the move
    columns, or on games without one the divergence term each numeric move
    achieved (its shift scaled by ``4 / (1 - alpha^2)``), as many as the
    trace has steps.
    """

    check = "eq9"

    def __init__(self, alpha: float, epsilon: float = 1e-3):
        self._weights = alpha_weights(alpha)
        if not 0.0 < epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        self.alpha = alpha
        self.epsilon = epsilon
        self._game: Optional[Game] = None

    def reset(self, game, rng, horizon):
        self._game = game
        self._achieved = []
        level2_column = game.spec.level2_column
        self._column = None if level2_column is None else level2_column(game, *self._weights)

    def predict(self, n, gamma1, gamma2):
        return _first_row(self._moves(np.asarray(gamma1, dtype=float)[None],
                                      np.asarray(gamma2, dtype=float)[None]))

    def predict_column(self, gammas1, gammas2, omegas):
        try:
            return self._moves(gammas1, gammas2)
        except DivergenceOverestimate:
            return None

    def _moves(self, gammas1, gammas2):
        # the moves on the rows of the two move columns: the closed form, or
        # one search per distinct pair of moves (told apart by their bits),
        # called through the module's name, its achieved terms appended
        if self._column is not None:
            moves = self._column(gammas1, gammas2)
            if moves is None:
                raise DivergenceOverestimate(
                    "predictions have disjoint support; divergence is infinite")
            return moves
        pairs = np.stack((gammas1, gammas2), axis=1)
        keys = pairs.view(np.dtype((np.void, 16))).ravel()  # a step's one row needs no sort
        first, rows = (np.unique(keys, return_index=True, return_inverse=True)[1:]
                       if len(keys) > 1 else ([0], [0]))
        found = [_level2_numeric(self._game, *pairs[i].tolist(), self.alpha) for i in first]
        moves, terms = (np.array(column, dtype=float)[rows] for column in zip(*found))
        self._achieved.extend(terms.tolist())
        return moves

    def divergence_column(self, gammas1, gammas2):
        # a truncated run made one move more than it recorded
        if self._column is None:
            return np.array(self._achieved[:len(gammas1)], dtype=float)
        return self._game.spec.divergence(self._game, self.alpha)(gammas1, gammas2)

    def worst_slack(self, trace) -> float:
        if np.any(np.isnan(trace.divergence_term)):
            raise ConfigError("eq9 check needs per-step divergence terms in the trace")
        return float(np.min(level2_inequality_slack(trace, self.alpha, self.epsilon)))


def level2_inequality_slack(trace, alpha: float, epsilon: float) -> np.ndarray:
    """Slack series of the cumulative divergence inequality, one value per step.

    ``slack(N) = w1 L1(N) + w2 L2(N) - Lsceptic(N) + epsilon - sum of
    divergence terms``; nonnegative for a faithful strategy, and exactly
    ``epsilon`` for the square-loss closed form.  Accumulated in extended
    precision so the equality case can be checked to 1e-12: in float64, even
    TwoSum-compensated, it strays by up to 1.4e-12 on square-loss runs at
    N = 10^4 (8.7e-13 in x87 extended); where ``np.longdouble`` is float64
    (MSVC, Apple silicon) that check is expected to fail.
    """
    w1 = np.longdouble(1.0 - alpha) / 2.0
    w2 = np.longdouble(1.0 + alpha) / 2.0
    coeff = (np.longdouble(1.0) - np.longdouble(alpha) ** 2) / 4.0
    l1, l2, ls, d = (col.astype(np.longdouble)
                     for col in (trace.loss1, trace.loss2, trace.loss_sceptic,
                                 trace.divergence_term))
    # infinite losses on both sides leave the step's slack NaN: the check fails
    with np.errstate(invalid="ignore"):
        increments = w1 * l1 + w2 * l2 - ls - coeff * d
        return np.cumsum(increments) + np.longdouble(epsilon)


# ---------------------------------------------------------------------------
# level 1: the loss-difference mixture strategy


def f_mix(x: float, c: float) -> float:
    """Odd, increasing ``c x / (1 + |x|)``, concave right of 0; ``+-c`` at ``+-inf``."""
    return math.copysign(c, x) if math.isinf(x) else c * x / (1.0 + abs(x))


def _f_mix_column(x: np.ndarray, c: float) -> np.ndarray:
    # f_mix elementwise of an array
    return np.where(np.isinf(x), np.copysign(c, x), c * x / (1.0 + np.abs(x)))


def f_mix_integral(x, c: float):
    """Integral of :func:`f_mix` from 0 to x; even, with closed form, of a
    float or elementwise of an array; NaN at +-inf."""
    ax = np.abs(x)
    with np.errstate(invalid="ignore"):
        return c * (ax - np.log1p(ax))


def _area_pieces(a: np.ndarray, delta: np.ndarray, c: float) -> np.ndarray:
    # per row, the area between f and the level f(a) over the sign-constant
    # interval [a, a + delta]: c (u - log1p(u)) >= 0, stable where the naive
    # integral difference cancels; log1p sees only each row's own branch (the
    # other gives u <= -1), and a row with delta = 0 has area 0
    areas = np.zeros(len(a))
    moving = delta != 0.0
    a, delta = a[moving], delta[moving]
    u = np.where((a > 0.0) | ((a == 0.0) & (delta > 0.0)), delta / (1.0 + a), -delta / (1.0 - a))
    piece = c * (u - np.log1p(u))
    areas[moving] = np.where(piece > 0.0, piece, 0.0)
    return areas


def _triangle_areas(d_old: np.ndarray, delta: np.ndarray, c: float) -> np.ndarray:
    # per row, integral(f, d_old..d_old+delta) - f(d_old) delta >= 0, the
    # curvilinear triangle swept while D moves by delta; a move across zero is
    # split there, so that every term is nonnegative in floating point
    d_new = d_old + delta
    cross = ((d_old >= 0.0) != (d_new >= 0.0)) & (d_new != 0.0)
    beyond = np.where(cross, d_new, 0.0)
    across = -_f_mix_column(d_old, c) * beyond
    return (_area_pieces(d_old, np.where(cross, -d_old, delta), c)
            + _area_pieces(np.zeros(len(d_old)), beyond, c) + np.where(across > 0.0, across, 0.0))


def level1_ledger(trace, c: float) -> tuple:
    """The mixture strategy's ledger, per step, from the trace's loss columns.

    ``areas``: the triangle swept by the running loss difference ``D = L1 -
    L2``; ``excess``: the sceptic's running loss over the predictors' mean;
    ``bounds``: ``integral(f, 0..D) - (running sum of areas) + (rounding
    term)``, at least the excess, and equal while every outcome falls
    outside the predictors' gap.  Running sums add in play order from 0.0,
    as the strategy's ``D`` does.  A step's triangle ends at ``D + delta``,
    but the next starts at the rounded sum, short by its TwoSum residual r:
    the rounding term, the running sum of ``f(D) r`` at the rounded D, puts
    back the integral so dropped.  All three running sums are
    TwoSum-compensated, as eq8's sums are, so that their rounding does not
    drift into the slack over long runs.
    """
    l1, l2, ls = trace.loss1, trace.loss2, trace.loss_sceptic
    # halving is exact: the mean of two losses near the float range stays finite
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        delta = l1 - l2
        d = np.cumsum(np.concatenate(([0.0], delta)))
        areas = _triangle_areas(d[:-1], delta, c)
        rounding = _f_mix_column(d[1:], c) * _residuals(d[:-1], d[1:], delta)
        excess, swept, dropped = (np.add(*_compensated_cumsum(0.0, 0.0, rows))
                                  for rows in (ls - (0.5 * l1 + 0.5 * l2), areas, rounding))
        bounds = f_mix_integral(d[1:], c) - swept + dropped
    return areas, excess, bounds


class Level1Sceptic(ScepticStrategy):
    """The mixture strategy: a step only plays, and keeps only ``D``.

    Each move weights the predictors by their cumulative loss difference
    ``D``: ``(1/2 + f(D)) gamma1 + (1/2 - f(D)) gamma2``.  The further
    predictor 1 is behind (large D), the more weight it gets, capped at
    ``1/2 + c``.  Swapping the predictors and negating D gives the same
    move, by oddness of f.  The ledger that certifies the strategy is
    :func:`level1_ledger` of the finished trace.
    """

    check = "ledger"

    def __init__(self, c: float = 0.4):
        if not 0.0 < c < 0.5:
            raise ValueError("c must lie in (0, 1/2)")
        self.c = c

    def reset(self, game, rng, horizon):
        self._loss = game.loss_fn()
        self._loss_column = game.spec.loss_column
        self.D = 0.0

    def predict(self, n, gamma1, gamma2):
        w = f_mix(self.D, self.c)
        self._pending = (gamma1, gamma2)
        return (0.5 + w) * gamma1 + (0.5 - w) * gamma2

    def observe(self, n, omega):
        gamma1, gamma2 = self._pending
        self.D += self._loss(omega, gamma1) - self._loss(omega, gamma2)

    def predict_column(self, gammas1, gammas2, omegas):
        if omegas is None:
            return None
        # D before each step: the running sum of the loss differences from 0.0
        d = np.cumsum(np.concatenate(([0.0], self._loss_column(omegas, gammas1)
                                      - self._loss_column(omegas, gammas2))))
        w = _f_mix_column(d[:-1], self.c).reshape((-1,) + (1,) * (gammas1.ndim - 1))
        self.D = float(d[-1])
        return (0.5 + w) * gammas1 + (0.5 - w) * gammas2

    def worst_slack(self, trace) -> float:
        if not len(trace):
            raise ConfigError("ledger check needs a run of at least one step")
        areas, excess, bounds = level1_ledger(trace, self.c)
        # a row whose excess is -inf holds whatever its bound; any other NaN
        # makes the slack NaN, which fails the check
        with np.errstate(invalid="ignore"):
            held = np.where(excess == -math.inf, math.inf, bounds - excess)
        return float(np.min(np.concatenate((areas, held))))


# ---------------------------------------------------------------------------
# the aggregating sceptic: aggregation over a fixed pool of experts


def _residuals(before: np.ndarray, after: np.ndarray, x: np.ndarray) -> np.ndarray:
    # TwoSum elementwise: the exact rounding error of each after = before + x,
    # 0 where the sum is not finite (the residuals of finite sums are finite)
    finite = np.isfinite(after)
    if not finite.all():
        before, after, x = (np.where(finite, v, 0.0) for v in (before, after, x))
    back = after - before
    return (before - (after - back)) + (x - back)


def _compensated_add(total: np.ndarray, comp: np.ndarray, x: np.ndarray) -> tuple:
    # one TwoSum-compensated addition of (K,) arrays: comp gathers the rounding
    t = total + x
    return t, comp + _residuals(total, t, x)


def _compensated_cumsum(total, comp, rows) -> tuple:
    # _compensated_add over rows (floats, or (K,) arrays, as a list or one
    # array) from (total, comp), as running columns: the running sums and
    # compensations after each row, bit for bit those of adding the rows one
    # by one (np.cumsum adds in order); callers ignore invalid-value warnings
    x = np.concatenate((np.asarray(total, dtype=float)[None], np.asarray(rows, dtype=float)))
    sums = np.cumsum(x, axis=0)
    x[0], x[1:] = comp, _residuals(sums[:-1], sums[1:], x[1:])
    return sums[1:], np.cumsum(x, axis=0)[1:]


# steps whose eq8 audit rows a pool sceptic holds before folding them, and
# the steps its column form takes at a time: the memory of either is
# O(EQ8_BLOCK * K) beyond the run's move columns, whatever the horizon
EQ8_BLOCK = 256


class _Pool(ScepticStrategy):
    """The one aggregating pool both pool sceptics step through, its eq8
    audit and its column block.

    The members are the aggregating sceptic's experts, or the threshold
    lift's three groups of experts that predict alike.  Per member the pool
    keeps its TwoSum-compensated cumulative loss ``(s, c)`` (``_sums``, two
    arrays), its log-weight offset (``_offsets``) and its eq8 floor
    (``_floors``); its weight is ``offset - eta (s + c)``, and a NaN sum (a
    NaN loss) leaves it -inf, as an infinite one does.  A step plays
    ``_move``: the weights normalized by their log-sum-exp, refused where
    every one is -inf (the pool has collapsed), and mixed by the game's mix,
    prepared again where the members' moves or their type change.  There
    each sceptic refuses what it must: its ``_accept(n, moves, raw)`` gives
    the moves as floats (raw is None where numpy cannot read them as one
    array, and then it only refuses), and refuses an inner move through
    ``jeffreys.games._checked``, the engine's own refusal of a player's.
    ``_settle`` takes the own loss and the members' losses at the outcome,
    re-checks domination by the mixture loss's own log-sum-exp under the
    normalized weights that made the move (the difference of the
    normalizers before and after would carry the rounding of weights that
    fall far below zero, about 1e-9, the domination tolerance, by 10^7
    steps of log loss), and adds the losses into the sums.  A collapsed
    pool is refused before the members' moves are read as one array.

    eq8 is Vovk's regret bound ``L_self <= min_k (L_k + C ln 1/p_k)``, a
    statement about cumulative sums.  Each step hands the audit its bound
    row, the compensated cumulative losses after it plus their floors, and
    its own loss (``_hold``).  The audit holds them, and folds them every
    ``EQ8_BLOCK`` steps and on each read into the own compensated
    cumulative loss ``cum_self`` (the plain running sum's rounding would
    drown the regret slack at the magnitudes cumulative losses reach), the
    tightest slack seen, ``worst_eq8_slack``, and the first step that
    attains it, ``worst_eq8_step``.  Folding in any partition gives the same
    bits.  ``_column_block`` plays ``EQ8_BLOCK`` steps of a column form.
    """

    check = "eq8"

    def _restart(self, game, k: int) -> None:
        # a run's pool of k members at zero loss; the sceptic sets their
        # offsets and floors
        params = params_for(game)
        self.eta, self.C = params.eta, params.C
        self._game, self._loss, self._losses = game, game.loss_fn(), game.spec.losses
        self._sums = (np.zeros(k), np.zeros(k))
        self._pending = self._mix_key = None
        self._restart_audit()

    def _move(self, n, moves):
        w = np.fmax(self._offsets - self.eta * (self._sums[0] + self._sums[1]), -math.inf)
        total = _lse1(w)
        if total == -math.inf:
            raise PoolCollapseError("every expert has suffered infinite loss")
        log_w = w - total
        try:
            raw = np.asarray(moves)
        except (TypeError, ValueError):  # moves of different forms: name the refused one
            self._accept(n, moves, None)
            raise
        key = _mix_key(raw)
        if key is None or key != self._mix_key:
            self._mix_key, self._preds = key, self._accept(n, moves, raw)
            self._mix = fixed_pool_mixer(self._game, self.eta, self._preds)
        gamma = self._mix(log_w)
        self._pending = (log_w, gamma)
        return gamma

    def _settle(self, n, omega):
        # (own loss, member losses) of the step; a member whose loss is NaN
        # drops out of the mixture loss, as it drops out of the weights
        log_w, gamma = self._pending
        own_loss = self._loss(omega, gamma)
        losses = self._losses(omega, self._preds)
        g_played = -_lse1(np.fmax(log_w - self.eta * losses, -math.inf)) / self.eta
        if own_loss > g_played + DOMINATION_TOL:
            raise MixabilityViolation(
                f"step {n}: loss {own_loss:.6g} exceeds mixture bound {g_played:.6g}")
        self._sums = _compensated_add(*self._sums, losses)
        return own_loss, losses

    def _restart_audit(self) -> None:
        self._cum_self = self._comp_self = 0.0
        self._worst, self._worst_step, self._folded = math.inf, None, 0
        self._bounds, self._own = [], []

    def _hold(self, bounds, own_loss) -> None:
        self._bounds.append(bounds)
        self._own.append(own_loss)
        if len(self._own) == EQ8_BLOCK:
            self._flush()

    def _flush(self) -> None:
        if self._own:
            self._fold(self._bounds, self._own)
            self._bounds, self._own = [], []

    def _fold(self, bounds, own) -> None:
        # each step's slack: the least of its bounds less the own compensated
        # cumulative loss; the min skips a NaN bound (an expert whose sum is
        # NaN, its bound vacuous), and a slack with every bound NaN is skipped
        with np.errstate(invalid="ignore"):
            cum_self, comp_self = _compensated_cumsum(self._cum_self, self._comp_self, own)
            slacks = np.fmin.reduce(np.asarray(bounds), axis=1) - (cum_self + comp_self)
        slacks[np.isnan(slacks)] = math.inf
        i = int(slacks.argmin())
        if slacks[i] < self._worst:
            self._worst, self._worst_step = float(slacks[i]), self._folded + i + 1
        self._cum_self, self._comp_self = float(cum_self[-1]), float(comp_self[-1])
        self._folded += len(own)

    def _column_block(self, mix, omegas, losses, held, offsets, floors):
        # B steps in columns from their (B, K) losses: held, (B + 1, K), the
        # compensated cumulative losses before the block and after each step;
        # offsets and floors, (K,) for every step or (B, K) one row per step.
        # The weights before each step, the moves mix makes of them, the
        # domination re-check and the fold, each bit for bit the steps';
        # (moves, the last step's log-weights), or None where the pool
        # collapses, the mix gives None or a move would not dominate
        eta = self.eta
        w = np.fmax(offsets - eta * held[:-1], -math.inf)
        totals = _lse_rows(w)
        if (totals == -math.inf).any():
            return None
        log_w = w - totals[:, None]
        gammas = mix(log_w)
        if gammas is None:
            return None
        own = self._game.spec.loss_column(omegas, gammas)
        if (own > -_lse_rows(log_w - eta * losses) / eta + DOMINATION_TOL).any():
            return None
        self._fold(held[1:] + floors, own)
        return gammas, log_w[-1]

    @property
    def worst_eq8_slack(self) -> float:
        self._flush()
        return self._worst

    @property
    def worst_eq8_step(self) -> Optional[int]:
        self._flush()
        return self._worst_step

    @property
    def cum_self(self) -> float:
        self._flush()
        return self._cum_self

    def worst_slack(self, trace) -> float:
        return float(self.worst_eq8_slack)


# numpy's type codes of booleans, integers and real floats: moves held as
# one of these are their bytes
_NUMBER_CODES = "?" + np.typecodes["AllInteger"] + np.typecodes["Float"]


def _mix_key(raw: np.ndarray):
    # the key a pool keeps its prepared mix under, so that it prepares and
    # checks again where the moves or their type change; None, which matches
    # no key, where numpy holds them as anything else (strings, or objects,
    # whose bytes are their addresses), so those are checked every step
    return (raw.dtype, raw.tobytes()) if raw.dtype.char in _NUMBER_CODES else None


def _is_constant(expert) -> bool:
    # an expert that plays ConstantPredictor's own per-step methods makes the
    # same move every step; a subclass that overrides them may not
    return plays_own(expert, ConstantPredictor, "predict", "observe")


class AggregatingSceptic(_Pool):
    """Plays the aggregating mixture of a fixed pool of expert strategies.

    The protocol's two predictors are ignored; the experts are the
    sceptic's own, one member of the shared pool each.  ``priors`` default
    to uniform; they need to be one flat vector of one entry per expert,
    each strictly positive, summing to at most 1 (a deficient sum loosens
    the per-expert bound).  Their logs are the fixed offsets of the weights
    ``ln p_k - eta (s_k + c_k)``, and the eq8 floors are the fixed
    penalties ``C ln 1/p_k``; ``expert_cums`` are the sums ``s``.  A step
    only collects the experts' moves, plays the pool's move, and hands the
    pool's settled sums plus the floors to the audit.  A constant expert's
    move is checked once, at reset; where the moves change, a refused one
    ends the run as a player's does, but a NaN move only eliminates its
    expert, by its NaN loss.

    A pool of constant experts (each plays ``ConstantPredictor``'s own
    per-step methods) plays a run in columns (``predict_column``): it
    prepares the mix and the losses per outcome once, and plays the shared
    column block ``EQ8_BLOCK`` steps at a time over one compensated
    cumulative sum of the block's losses.
    """

    def __init__(self, experts, priors=None):
        if not experts:
            raise ValueError("expert pool must not be empty")
        self.experts = list(experts)
        k = len(self.experts)
        self.priors = np.full(k, 1.0 / k) if priors is None else np.asarray(priors, dtype=float)
        if self.priors.shape != (k,):
            raise ValueError(f"priors must be one flat vector of {k} entries, one per expert, "
                             f"got shape {self.priors.shape}")
        if not np.all(self.priors > 0.0):
            raise ValueError("priors must be strictly positive")
        if float(self.priors.sum()) > 1.0 + 1e-12:
            raise ValueError("priors must sum to at most 1")
        self._offsets = np.log(self.priors)
        self._sums = (np.zeros(k), np.zeros(k))
        self._restart_audit()

    def reset(self, game, rng, horizon):
        k = len(self.experts)
        self._restart(game, k)
        # the eq8 floors C ln(1/p), or C (-ln p) where 1/p overflows (a
        # subnormal prior): the two differ in the last bit for some uniform priors
        with np.errstate(over="ignore"):
            inverse = 1.0 / self.priors
        self._floors = self.C * np.where(np.isfinite(inverse), np.log(inverse), -self._offsets)
        streams = rng.spawn(k)
        for expert, stream in zip(self.experts, streams):
            expert.reset(game, stream, horizon)
        # a constant expert is checked once, here
        for i, expert in enumerate(self.experts, 1):
            if _is_constant(expert):
                _checked(game.validate_prediction, expert.predict(1), f"aggregating expert {i}")

    def _accept(self, n, moves, raw):
        # a refused expert move ends the run; a NaN one only eliminates its expert
        if raw is None or _mix_key(raw) is None:  # a string, say: the engine's check names it
            for i, move in enumerate(moves, 1):
                _checked(self._game.validate_prediction, move, f"aggregating expert {i}", n)
            if raw is None:
                return None
        preds = raw.astype(float)
        if not self._game.accepts_predictions(preds):  # the column test, then the culprit
            for i, move in enumerate(preds, 1):
                if not np.isnan(move).all():  # a NaN move's NaN loss eliminates its expert
                    _checked(self._game.validate_prediction, move.tolist(),
                             f"aggregating expert {i}", n)
        return preds

    def predict(self, n, gamma1, gamma2):
        return self._move(n, [e.predict(n) for e in self.experts])

    def observe(self, n, omega):
        own_loss, _ = self._settle(n, omega)
        self._hold(np.add(*self._sums) + self._floors, own_loss)
        for e in self.experts:
            e.observe(n, omega)

    def predict_column(self, gammas1, gammas2, omegas):
        game = self._game
        if omegas is None or not all(map(_is_constant, self.experts)):
            return None
        # a pool of constants emits the same predictions every step: its mix
        # and (on a finite outcome space) losses per outcome are prepared once
        preds = np.asarray([e.predict(1) for e in self.experts], dtype=float)
        column_mix = game.spec.mix_column(preds, self.eta)
        table = (np.array([self._losses(w, preds) for w in range(game.m)])
                 if game.spec.outcome_type is int else None)
        sums, comps = self._sums
        moves = []
        for start in range(0, len(omegas), EQ8_BLOCK):
            block = omegas[start:start + EQ8_BLOCK]
            losses = (self._losses(block[:, None], preds) if table is None
                      else table[block.astype(np.intp)])
            if np.isnan(losses).any():
                return None
            with np.errstate(invalid="ignore"):
                after = _compensated_cumsum(sums, comps, losses)
            played = self._column_block(column_mix, block, losses,
                                        np.vstack((sums + comps, np.add(*after))),
                                        self._offsets, self._floors)
            if played is None:
                return None
            moves.append(played[0])
            sums, comps = after[0][-1], after[1][-1]
        self._sums = (sums.copy(), comps.copy())
        self._preds, self._pending = preds, (played[1], moves[-1][-1])
        return np.concatenate(moves)

    @property
    def expert_cums(self) -> np.ndarray:
        return self._sums[0]


# ---------------------------------------------------------------------------
# level 3: the threshold-expert lift


# the largest k for which the threshold 2^k and the reciprocal 2^(k+1) of
# the smallest prior, which the regret penalty takes, are finite floats
K_MAX_LIMIT = 1022


class Level3Sceptic(_Pool):
    """Aggregates threshold experts over a base sceptic strategy.

    The truncated pool holds two experts per threshold ``2^k``, k = 1 ..
    ``k_max``.  Expert ``(k, j)``, of prior ``p_k = 2^-(k+1)`` (the pool sums
    to ``1 - 2^-k_max``), mimics the base sceptic until predictor j trails
    the base sceptic's cumulative loss by more than ``2^k``, then switches
    to predictor j for good.  The shared pool plays it as three members,
    groups of experts that predict alike, at a step cost flat in ``k_max``:
    the unswitched experts, of weight ``U e^(-eta L_base)`` (U their priors'
    sum), and per predictor j those switched to it, of weight ``e^(S_j -
    eta L_j)``, where each switch at step t log-adds ``ln p_k - eta
    (L_base(t) - L_j(t))`` into ``S_j``: ``ln U`` and ``S_j`` are the
    groups' offsets.  Each step's eq8 bounds, for the shared audit, are per
    group its loss plus a floor fixed at switches, those after the step's
    eliminations and before its switches.  An infinite loss of predictor j
    eliminates group j; its sums restart at zero for the experts that
    switch then.  Where the moves change, a refused base move ends the run
    as a player's does.  ``cum1``, ``cum2`` and ``cum_base`` are the plain
    running sums the switches compare.

    Once the outcomes are known, a lift over a base whose column form may
    stand in for it (the engine's rule) plays a run in columns
    (``predict_column``): the base's column, the loss columns and their
    compensated running sums, and the switches as first passages of
    ``cum_j - cum_base`` over the thresholds.  Between switches the offsets
    and floors are fixed, so it plays the shared column block ``EQ8_BLOCK``
    steps at a time with one row of them per step.  Where a loss is infinite
    or NaN (it would eliminate a group or collapse the pool), or the block
    gives None, it gives None, and the engine resets every player, the base
    with them, before the loop plays.
    """

    def __init__(self, base: ScepticStrategy, k_max: int = 20):
        if isinstance(k_max, bool) or not isinstance(k_max, int) \
                or not 1 <= k_max <= K_MAX_LIMIT:
            raise ValueError(f"k_max must be an integer in [1, {K_MAX_LIMIT}], got {k_max!r}")
        self.base = base
        self.k_max = k_max
        thresholds = 2.0 ** np.arange(1, k_max + 1)
        self.thresholds = np.concatenate([thresholds, thresholds])
        self._levels = thresholds.tolist()
        p = 2.0 ** -(np.arange(1, k_max + 1) + 1)
        self.priors = np.concatenate([p, p])
        self._log_p, self._log_inv_p = np.log(p).tolist(), np.log(1.0 / p).tolist()
        self._restart_audit()

    def reset(self, game, rng, horizon):
        self._restart(game, 3)
        self.base.reset(game, rng, horizon)
        self.cum1 = self.cum2 = self.cum_base = 0.0
        # the groups: unswitched, switched to predictor 1, to predictor 2
        self._offsets = np.array([0.0, -math.inf, -math.inf])
        self._floors = np.array([0.0, math.inf, math.inf])
        self.switch_times: dict = {}
        # thresholds increase with k: each predictor's switched experts are a prefix
        self._n_switched = [0, 0]
        self._update_unswitched()

    def _accept(self, n, moves, raw):
        # a refused base move ends the run, a NaN one too; the engine checked
        # the predictors' moves
        _checked(self._game.validate_prediction, moves[0], "level-3 base", n)
        return None if raw is None else raw.astype(float)

    def predict(self, n, gamma1, gamma2):
        return self._move(n, [self.base.predict(n, gamma1, gamma2), gamma1, gamma2])

    def observe(self, n, omega):
        own_loss, losses = self._settle(n, omega)
        self.base.observe(n, omega)
        sums, comps = self._sums
        for j in (1, 2):
            if sums[j] == math.inf:
                sums[j] = comps[j] = 0.0
                self._offsets[j], self._floors[j] = -math.inf, math.inf
        self._hold(sums + comps + self._floors, own_loss)
        self.cum_base = float(sums[0])
        self.cum1, self.cum2 = self.cum1 + float(losses[1]), self.cum2 + float(losses[2])
        self._switch(n)

    def predict_column(self, gammas1, gammas2, omegas):
        if omegas is None:
            return None
        bases = _column(self.base, "predict_column", gammas1, gammas2, omegas)
        if bases is None or len(bases) != len(omegas) or not self._game.accepts_predictions(bases):
            return None
        return self._lift_columns(np.stack((bases, gammas1, gammas2), axis=1), omegas)

    def _lift_columns(self, preds, omegas):
        # the run from the (N, 3) moves of the base and both predictors,
        # EQ8_BLOCK steps at a time; None where a loss is infinite or NaN (it
        # would eliminate a group), or a step would leave the closed forms
        game, eta = self._game, self.eta
        mix_column, loss_column = game.spec.mix_column, game.spec.loss_column
        (totals, comps), levels = self._sums, np.array(self._levels)
        moves = []
        for start in range(0, len(omegas), EQ8_BLOCK):
            block, rows = omegas[start:start + EQ8_BLOCK], preds[start:start + EQ8_BLOCK]
            losses = np.stack([loss_column(block, rows[:, i]) for i in range(3)], axis=1)
            if not np.isfinite(losses).all():
                return None
            # each group's loss after each step, and cum_j - cum_base as the
            # switches compare them: the plain running sums, TwoSum's totals
            sums, sum_comps = _compensated_cumsum(totals, comps, losses)
            # the first passages: the steps at which a predictor has fallen
            # behind more levels than ever before, the switched ones included
            passed = np.vstack(([self._n_switched],
                                np.searchsorted(levels, sums[:, 1:] - sums[:, :1])))
            steps = np.flatnonzero((np.diff(np.maximum.accumulate(passed), axis=0) > 0).any(axis=1))
            # offsets and floors per segment between switches: a step's
            # weights and slack take those before its own switches
            offsets, floors = [self._offsets.copy()], [self._floors.copy()]
            for i in steps.tolist():
                self._sums = (sums[i], sum_comps[i])
                self.cum_base, self.cum1, self.cum2 = sums[i].tolist()
                self._switch(start + i + 1)
                offsets.append(self._offsets.copy())
                floors.append(self._floors.copy())
            widths = np.diff(np.concatenate(([0], steps + 1, [len(block)])))
            offsets, floors = (np.repeat(np.array(table), widths, axis=0)
                               for table in (offsets, floors))
            played = self._column_block(mix_column(rows, eta), block, losses,
                                        np.vstack((totals + comps, sums + sum_comps)),
                                        offsets, floors)
            if played is None:
                return None
            moves.append(played[0])
            totals, comps = sums[-1], sum_comps[-1]
        self._sums = (totals.copy(), comps.copy())
        self.cum_base, self.cum1, self.cum2 = totals.tolist()
        self._preds, self._pending = preds[-1], (played[1], moves[-1][-1])
        return np.concatenate(moves)

    def _switch(self, n):
        k = self.k_max
        for j, behind in ((1, self.cum1 - self.cum_base), (2, self.cum2 - self.cum_base)):
            i = self._n_switched[j - 1]
            while i < k and behind > self._levels[i]:
                self.switch_times[(j - 1) * k + i] = n
                held = self._sums[0] + self._sums[1]
                c = float(held[0] - held[j])
                self._offsets[j] = np.logaddexp(self._offsets[j], self._log_p[i] - self.eta * c)
                self._floors[j] = min(self._floors[j], c + self.C * self._log_inv_p[i])
                i = self._n_switched[j - 1] = i + 1
                self._update_unswitched()

    def _update_unswitched(self):
        # ln U, and the penalty of the largest unswitched prior
        k = self.k_max
        u = sum(2.0 ** -(s + 1) - 2.0 ** -(k + 1) for s in self._n_switched)
        self._offsets[0] = math.log(u) if u > 0.0 else -math.inf
        s = min(self._n_switched)
        self._floors[0] = self.C * self._log_inv_p[s] if s < k else math.inf
