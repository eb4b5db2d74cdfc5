"""Sceptic strategies that certify agreement between two forecasters.

Three constructions, ordered by the strength of what they certify:

* the divergence strategy (``Level2Sceptic``): picks a canonical point
  sitting below the alpha-weighted mean of the predictors' loss profiles
  by the per-step lower divergence, giving a cumulative inequality that
  forces the divergence sum to be dominated by the loss advantage;
* the mixture-weighting strategy (``Level1Sceptic``): for convex games
  with zero divergence (absolute loss), weights the two predictors by an
  odd saturating function of their loss difference and keeps an exact
  integral/triangle ledger of its excess over their average loss;
* the threshold lift (``Level3Sceptic``): aggregates a doubly-indexed
  pool of experts that mimic a base sceptic until a predictor falls a
  power-of-two behind it, then permanently defect to that predictor;
  requires a perfectly mixable game.

Each strategy has one implementation, its ``ScepticStrategy`` class, which
certifies its own guarantee: ``eq9`` (level 2), ``ledger`` (level 1) or
``eq8`` (the threshold lift, and ``AggregatingSceptic``, the aggregating
mixture of a fixed pool of expert strategies).  Those two share one pool
engine: they differ only in their experts' predictions and in what the
experts observe.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .aggregating import (DOMINATION_TOL, ExpertPool, _lse1, aa_observe,
                          fixed_pool_mixer, params_for)
from .errors import ConfigError, DivergenceOverestimate, DomainError, MixabilityViolation
from .games import Game, Prediction, _scale, superprediction_gap


class ScepticStrategy:
    """Base interface: predict after the predictors move, observe after Nature.

    Validate-once contract: the protocol engine validates both predictors'
    moves before ``predict`` sees them, the sceptic's own move as it is
    announced, and the outcome before ``observe`` sees it.  Strategies
    score those moves with the game's unvalidated ``loss_fn`` kernel rather
    than re-checking them through ``Game.loss``.

    ``check`` names the guarantee the strategy certifies, ``worst_slack``
    its worst slack over a finished run; the trace records as its per-step
    divergence terms the ``divergence_column`` of the run's move columns
    (NaN for a strategy that has none).
    """

    check: Optional[str] = None

    def divergence_column(self, gammas1, gammas2) -> list:
        return [math.nan] * len(gammas1)

    def worst_slack(self, trace) -> float:
        raise NotImplementedError

    def reset(self, game: Game, rng: np.random.Generator, horizon: int) -> None:
        pass

    def predict(self, n: int, gamma1: Prediction, gamma2: Prediction) -> Prediction:
        raise NotImplementedError

    def observe(self, n: int, omega) -> None:
        pass


# ---------------------------------------------------------------------------
# level 2: the divergence strategy


def _level2_numeric(game: Game, gamma1, gamma2, alpha: float):
    """(move, divergence term it achieves) for a scalar game without a closed form."""
    w1, w2 = (1.0 - alpha) / 2.0, (1.0 + alpha) / 2.0
    # the rows are the two canonical points, computed without re-validating
    lam = game.losses_for_params((gamma1, gamma2))
    mean = w1 * lam[0] + w2 * lam[1]
    # the argmin's canonical point lies below mean - shift for the lower
    # divergence's shift = -gap, so the move achieves the shift exactly
    u, gap = superprediction_gap(game, mean, DOMINATION_TOL)
    if gap > DOMINATION_TOL:
        raise DivergenceOverestimate(
            f"no canonical point below the weighted mean (gap {gap:.3g})")
    return game.prediction_from_param(u), _scale(alpha) * -gap


class Level2Sceptic(ScepticStrategy):
    """The divergence strategy.

    Games with a closed form in their table entry play it: the exact
    weighted mean of the predictions for the square-loss family, the
    normalized geometric mixture for log-loss; neither consumes any slack.
    Other games play the prediction whose canonical point attains the
    numeric lower divergence: one gap search over the prediction grid for
    the point furthest below the weighted mean of the predictors' canonical
    points.  Its shift is the divergence by definition, so no slack is
    spent either.  ``reset`` picks one of the two for the run.

    ``divergence_column(gammas1, gammas2)`` is the run's column of per-step
    divergence terms the trace records: the game's closed form over the move
    columns, or on games without one the divergence term each numeric move
    achieved (its shift scaled by ``4 / (1 - alpha^2)``), as many as the
    trace has steps.
    """

    check = "eq9"

    def __init__(self, alpha: float, epsilon: float = 1e-3):
        if not -1.0 < alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (-1, 1)")
        if not epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        self.alpha = alpha
        self.epsilon = epsilon
        self._game: Optional[Game] = None

    def reset(self, game, rng, horizon):
        self._game = game
        self._achieved = []
        if game.spec.level2 is None:
            self._move = self._numeric_move
        else:
            w1, w2 = (1.0 - self.alpha) / 2.0, (1.0 + self.alpha) / 2.0
            self._move = game.spec.level2(game, w1, w2)

    def predict(self, n, gamma1, gamma2):
        return self._move(gamma1, gamma2)

    def _numeric_move(self, gamma1, gamma2):
        gamma, term = _level2_numeric(self._game, gamma1, gamma2, self.alpha)
        self._achieved.append(term)
        return gamma

    def divergence_column(self, gammas1, gammas2):
        # a truncated run made one move more than it recorded
        if self._game.spec.level2 is None:
            return self._achieved[:len(gammas1)]
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
    precision so the equality case can be checked to 1e-12.
    """
    w1 = np.longdouble(1.0 - alpha) / 2.0
    w2 = np.longdouble(1.0 + alpha) / 2.0
    coeff = (np.longdouble(1.0) - np.longdouble(alpha) ** 2) / 4.0
    # through float64, exact for these float columns and far quicker than
    # converting each list element to longdouble
    l1, l2, ls, d = (np.asarray(col, dtype=float).astype(np.longdouble)
                     for col in (trace.loss1, trace.loss2, trace.loss_sceptic,
                                 trace.divergence_term))
    increments = w1 * l1 + w2 * l2 - ls - coeff * d
    return np.cumsum(increments) + np.longdouble(epsilon)


# ---------------------------------------------------------------------------
# level 1: the loss-difference mixture strategy


def f_mix(x: float, c: float) -> float:
    """Odd, strictly increasing, concave-on-the-right weighting function.

    ``c x / (1 + |x|)``: zero at zero, saturating at ``c < 1/2``.
    """
    return c * x / (1.0 + abs(x))


def f_mix_integral(x: float, c: float) -> float:
    """Integral of :func:`f_mix` from 0 to x; even, with closed form."""
    ax = abs(x)
    return c * (ax - math.log1p(ax))


def _area_piece(a: float, delta: float, c: float) -> float:
    # area between f and the level f(a) over a sign-constant interval
    # [a, a + delta]; reduces to u - log1p(u) >= 0, which is stable where
    # the naive integral difference cancels catastrophically
    if delta == 0.0:
        return 0.0
    if a > 0.0 or (a == 0.0 and delta > 0.0):
        u = delta / (1.0 + a)
    else:
        u = -delta / (1.0 - a)
    return max(0.0, c * (u - math.log1p(u)))


def triangle_area(d_old: float, delta: float, c: float) -> float:
    """Area of the curvilinear triangle swept while D moves by ``delta``.

    Equals ``integral(f, d_old..d_old+delta) - f(d_old) * delta``; always
    nonnegative since f is increasing.  Sign-crossing moves are split at
    zero so every term is individually nonnegative in floating point.
    """
    d_new = d_old + delta
    if (d_old >= 0.0) == (d_new >= 0.0) or d_new == 0.0:
        return _area_piece(d_old, delta, c)
    first = _area_piece(d_old, -d_old, c)
    second = _area_piece(0.0, d_new, c)
    across = -f_mix(d_old, c) * d_new
    return first + second + max(0.0, across)


class Level1Sceptic(ScepticStrategy):
    """The mixture strategy, keeping its ledger and the full audit trail.

    Each move weights the predictors by their cumulative loss difference
    ``D``: ``(1/2 + f(D)) gamma1 + (1/2 - f(D)) gamma2``.  The further
    predictor 1 is behind (large D), the more weight it gets, capped at
    ``1/2 + c``.  Swapping the predictors and negating D gives the same
    move, by oddness of f.

    ``triangle_sum`` accumulates the curvilinear-triangle areas and
    ``excess`` the sceptic's realized loss over the predictors' average.
    The ledger bound ``integral(f, 0..D) - triangle_sum`` dominates
    ``excess`` at all times, exactly so while every outcome falls outside
    the predictors' gap.  The triangle areas use the closed-form integral
    of f, so the ledger is exact up to float rounding: no quadrature is
    involved.  Every step appends its area and the cumulative excess and
    bound to ``audit_areas``, ``audit_excess`` and ``audit_bounds``.
    """

    check = "ledger"

    def __init__(self, c: float = 0.4):
        if not 0.0 < c < 0.5:
            raise ValueError("c must lie in (0, 1/2)")
        self.c = c
        self.audit_areas, self.audit_excess, self.audit_bounds = [], [], []

    def reset(self, game, rng, horizon):
        self._loss = game.loss_fn()
        self.D = 0.0
        self.triangle_sum = 0.0
        self.excess = 0.0
        self.audit_areas, self.audit_excess, self.audit_bounds = [], [], []
        self._pending = None

    @property
    def ledger_bound(self) -> float:
        return f_mix_integral(self.D, self.c) - self.triangle_sum

    def predict(self, n, gamma1, gamma2):
        w = f_mix(self.D, self.c)
        gamma = (0.5 + w) * gamma1 + (0.5 - w) * gamma2
        self._pending = (gamma1, gamma2, gamma)
        return gamma

    def observe(self, n, omega):
        gamma1, gamma2, gamma = self._pending
        loss = self._loss
        l1, l2 = loss(omega, gamma1), loss(omega, gamma2)
        delta = l1 - l2
        area = triangle_area(self.D, delta, self.c)
        self.D += delta
        self.triangle_sum += area
        self.excess += loss(omega, gamma) - 0.5 * (l1 + l2)
        self.audit_areas.append(area)
        self.audit_excess.append(self.excess)
        self.audit_bounds.append(self.ledger_bound)

    def worst_slack(self, trace) -> float:
        if not self.audit_bounds:
            raise ConfigError("ledger check needs a recorded audit trail")
        worst_bound = np.min(np.asarray(self.audit_bounds) - np.asarray(self.audit_excess))
        return min(float(np.min(self.audit_areas)), float(worst_bound))


# ---------------------------------------------------------------------------
# the pool sceptics: aggregation over a fixed pool of experts


class _PoolSceptic(ScepticStrategy):
    """Mix-and-substitute over one pool, with a running regret audit.

    Subclasses supply their experts' predictions (``_expert_predictions``)
    and what the experts learn from each outcome (``_observe_experts``),
    and may prepare once for predictions fixed for the run (``_fixed_mix``,
    ``_loss_table``).
    The pool is built, and its priors checked, at construction; reset
    refuses games without aggregation parameters (:func:`params_for`).
    Tracks the per-expert cumulative losses, the strategy's own cumulative
    loss ``cum_self``, and the tightest regret slack seen, ``worst_eq8_slack``.
    Every observation also re-checks domination at the realized outcome
    with the weights that produced the move.
    """

    check = "eq8"

    def __init__(self, priors):
        self.pool = ExpertPool(priors)
        self.worst_eq8_slack = math.inf

    def reset(self, game, rng, horizon):
        params = params_for(game)
        self.eta, self.C = params.eta, params.C
        self._game = game
        self.pool = ExpertPool(self.pool.priors)  # fresh weights for each run
        self._loss = game.loss_fn()
        self._losses = game.spec.losses
        self._fixed_mix = self._loss_table = None
        self.expert_cums = np.zeros(len(self.pool))
        self.cum_self = 0.0
        # compensation terms: cumulative losses reach magnitudes where the
        # plain running sums' rounding would drown the regret slack
        self._comp_experts = np.zeros(len(self.pool))
        self._comp_self = 0.0
        self._penalty = self.C * np.log(1.0 / self.pool.priors)
        self.worst_eq8_slack = math.inf
        self._pending = None

    def _expert_predictions(self, n, gamma1, gamma2) -> np.ndarray:
        """The experts' predictions, shape (K,) or (K, m)."""
        raise NotImplementedError

    def _observe_experts(self, n, omega) -> None:
        """Let the experts learn the outcome of step ``n``."""
        raise NotImplementedError

    def predict(self, n, gamma1, gamma2):
        preds = self._expert_predictions(n, gamma1, gamma2)
        log_w = self.pool.normalized_log_weights()
        mix = self._fixed_mix or fixed_pool_mixer(self._game, self.eta, preds, DOMINATION_TOL)
        gamma = mix(log_w)
        self._pending = (preds, log_w, gamma)
        return gamma

    def observe(self, n, omega):
        preds, log_w, gamma = self._pending
        own_loss = self._loss(omega, gamma)
        if self._loss_table is None:
            losses = self._losses(omega, preds)
            scaled = self.eta * losses
        else:
            losses, scaled = self._loss_table[int(omega)]
        # -inf - inf stays -inf, so eliminated experts drop out cleanly
        g_played = -_lse1(log_w - scaled) / self.eta
        if own_loss > g_played + DOMINATION_TOL:
            raise MixabilityViolation(
                f"step {n}: loss {own_loss:.6g} exceeds mixture bound {g_played:.6g}")
        aa_observe(self.pool, scaled, 1.0)  # the losses come scaled by eta
        # compensated accumulation on both sides of the slack: TwoSum's exact
        # rounding errors; an infinite cumulative loss carries no compensation
        total = self.expert_cums + losses
        live = ... if math.isfinite(total.max()) else np.isfinite(total)
        a, b, t = self.expert_cums[live], losses[live], total[live]
        back = t - a
        self._comp_experts[live] += (a - (t - back)) + (b - back)
        self.expert_cums = total
        t = self.cum_self + own_loss
        back = t - self.cum_self
        resid_s = (self.cum_self - (t - back)) + (own_loss - back)
        if math.isfinite(resid_s):
            self._comp_self += resid_s
        self.cum_self = t
        slack = (float((total + self._comp_experts + self._penalty).min())
                 - (self.cum_self + self._comp_self))
        if slack < self.worst_eq8_slack:
            self.worst_eq8_slack = slack
        self._observe_experts(n, omega)

    def worst_slack(self, trace) -> float:
        return float(self.worst_eq8_slack)


class AggregatingSceptic(_PoolSceptic):
    """Plays the aggregating mixture of a fixed pool of expert strategies.

    The protocol's two predictors are ignored; the experts are the
    sceptic's own.  ``priors`` default to uniform and need one entry per
    expert."""

    def __init__(self, experts, priors=None):
        if not experts:
            raise ValueError("expert pool must not be empty")
        self.experts = list(experts)
        if priors is None:
            priors = np.full(len(self.experts), 1.0 / len(self.experts))
        super().__init__(priors)
        if len(self.pool) != len(self.experts):
            raise ValueError(f"priors has {len(self.pool)} entries for "
                             f"{len(self.experts)} experts")

    def reset(self, game, rng, horizon):
        from .players import ConstantPredictor

        super().reset(game, rng, horizon)
        streams = rng.spawn(len(self.experts))
        for expert, stream in zip(self.experts, streams):
            expert.reset(game, stream, horizon)
        # a constant expert is checked once, here; a pool of constants emits the
        # same prediction matrix every step, so its mix and (on a finite
        # outcome space) losses are prepared once too
        for i, expert in enumerate(self.experts, 1):
            if isinstance(expert, ConstantPredictor):
                try:
                    game.validate_prediction(expert.predict(1))
                except DomainError as exc:
                    raise ConfigError(f"aggregating expert {i}: {exc}") from exc
        self._static_preds = None
        if all(isinstance(e, ConstantPredictor) for e in self.experts):
            self._static_preds = preds = self._collect(1)
            self._fixed_mix = fixed_pool_mixer(game, self.eta, preds, DOMINATION_TOL)
            if game.spec.outcome_type is int:  # per outcome: losses, eta-scaled losses
                rows = (self._losses(w, preds) for w in range(game.m))
                self._loss_table = [(row, self.eta * row) for row in rows]

    def _collect(self, n):
        return np.asarray([e.predict(n) for e in self.experts], dtype=float)

    def _expert_predictions(self, n, gamma1, gamma2):
        return self._static_preds if self._static_preds is not None else self._collect(n)

    def _observe_experts(self, n, omega):
        if self._static_preds is None:
            for e in self.experts:
                e.observe(n, omega)


# ---------------------------------------------------------------------------
# level 3: the threshold-expert lift

# the largest k for which the threshold 2^k and the reciprocal 2^(k+1) of
# the smallest prior, which the regret penalty takes, are finite floats
K_MAX_LIMIT = 1022


class Level3Sceptic(_PoolSceptic):
    """Aggregates threshold experts over a base sceptic strategy.

    The truncated pool holds two experts per threshold ``2^k``, k = 1 ..
    ``k_max``.  Expert ``(k, 1)`` mimics the base sceptic until predictor 1
    trails the base sceptic's cumulative loss by more than ``2^k``, then
    switches to predictor 1 for good; expert ``(k, 2)`` watches predictor
    2.  Expert ``(k, j)`` carries prior ``2^-(k+1)``, so the pool sums to
    ``1 - 2^-k_max``.  The pool is mixed with the game's aggregation
    parameters.
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
        super().__init__(np.concatenate([p, p]))

    def reset(self, game, rng, horizon):
        super().reset(game, rng, horizon)
        self.base.reset(game, rng, horizon)
        self.cum1 = 0.0
        self.cum2 = 0.0
        self.cum_base = 0.0
        self.switch_times: dict = {}
        # thresholds increase with k: each predictor's switched experts are a prefix
        self._n_switched = [0, 0]
        self._targets = np.empty((2 * self.k_max,) + game.prediction_shape)

    def _expert_predictions(self, n, gamma1, gamma2):
        gamma_base = self.base.predict(n, gamma1, gamma2)
        self._moves = (gamma1, gamma2, gamma_base)
        # the experts' predictions, in a buffer the pool is done with
        # before the next step
        k = self.k_max
        s1, s2 = self._n_switched
        preds = self._targets
        preds[:] = gamma_base
        preds[:s1] = gamma1
        preds[k:k + s2] = gamma2
        return preds

    def _observe_experts(self, n, omega):
        gamma1, gamma2, gamma_base = self._moves
        self.base.observe(n, omega)
        loss = self._loss
        self.cum1 += loss(omega, gamma1)
        self.cum2 += loss(omega, gamma2)
        self.cum_base += loss(omega, gamma_base)
        k = self.k_max
        for j, behind in enumerate((self.cum1 - self.cum_base, self.cum2 - self.cum_base)):
            i = self._n_switched[j]
            while i < k and behind > self._levels[i]:
                self.switch_times[j * k + i] = n
                i += 1
            self._n_switched[j] = i
