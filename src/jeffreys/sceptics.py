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
  ``level1_ledger``, is read off the finished trace's loss columns;
* the threshold lift (``Level3Sceptic``): aggregates a doubly-indexed
  pool of experts that mimic a base sceptic until a predictor falls a
  power-of-two behind it, then permanently defect to that predictor;
  requires a perfectly mixable game.

Each strategy has one implementation, its ``ScepticStrategy`` class, which
certifies its own guarantee: ``eq9`` (level 2), ``ledger`` (level 1) or
``eq8`` (the threshold lift, and ``AggregatingSceptic``, the aggregating
mixture of a fixed pool of expert strategies).  Those two share the game's
mix (``fixed_pool_mixer``), not an engine: the aggregating sceptic keeps
one weight per expert, the lift one weight per group of experts that
predict alike, three in all.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .aggregating import (DOMINATION_TOL, ExpertPool, _lse1, aa_observe,
                          fixed_pool_mixer, params_for)
from .errors import (ConfigError, DivergenceOverestimate, DomainError, MixabilityViolation,
                     PoolCollapseError)
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
        if not 0.0 < epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
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
    # infinite losses on both sides leave the step's slack NaN: the check fails
    with np.errstate(invalid="ignore"):
        increments = w1 * l1 + w2 * l2 - ls - coeff * d
        return np.cumsum(increments) + np.longdouble(epsilon)


# ---------------------------------------------------------------------------
# level 1: the loss-difference mixture strategy


def f_mix(x: float, c: float) -> float:
    """Odd, increasing ``c x / (1 + |x|)``, concave right of 0; ``+-c`` at ``+-inf``."""
    return math.copysign(c, x) if math.isinf(x) else c * x / (1.0 + abs(x))


def f_mix_integral(x: float, c: float) -> float:
    """Integral of :func:`f_mix` from 0 to x; even, with closed form."""
    ax = abs(x)
    return c * (ax - math.log1p(ax))


def _area_pieces(a: np.ndarray, delta: np.ndarray, c: float) -> np.ndarray:
    # per row, the area between f and the level f(a) over the sign-constant
    # interval [a, a + delta]: c (u - log1p(u)) >= 0, stable where the naive
    # integral difference cancels; log1p sees only each row's own branch (the
    # other gives u <= -1), and a row with delta = 0 has area 0
    areas = np.zeros(len(a))
    moving = delta != 0.0
    a, delta = a[moving], delta[moving]
    u = np.where((a > 0.0) | ((a == 0.0) & (delta > 0.0)), delta / (1.0 + a), -delta / (1.0 - a))
    # libm's log1p, as f_mix_integral takes it: numpy's differs in the last bit
    piece = c * (u - np.array([math.log1p(x) for x in u.tolist()]))
    areas[moving] = np.where(piece > 0.0, piece, 0.0)
    return areas


def _triangle_areas(d_old: np.ndarray, delta: np.ndarray, c: float) -> np.ndarray:
    # per row, integral(f, d_old..d_old+delta) - f(d_old) delta >= 0, the
    # curvilinear triangle swept while D moves by delta; a move across zero is
    # split there, so that every term is nonnegative in floating point
    d_new = d_old + delta
    cross = ((d_old >= 0.0) != (d_new >= 0.0)) & (d_new != 0.0)
    beyond = np.where(cross, d_new, 0.0)
    across = -(c * d_old / (1.0 + np.abs(d_old))) * beyond
    return (_area_pieces(d_old, np.where(cross, -d_old, delta), c)
            + _area_pieces(np.zeros(len(d_old)), beyond, c) + np.where(across > 0.0, across, 0.0))


def level1_ledger(trace, c: float) -> tuple:
    """The mixture strategy's ledger, per step, from the trace's loss columns.

    ``areas``: the triangle swept by the running loss difference ``D = L1 -
    L2``; ``excess``: the sceptic's running loss over the predictors' mean;
    ``bounds``: ``integral(f, 0..D) - (running sum of areas)``, at least the
    excess, and equal while every outcome falls outside the predictors' gap.
    Running sums add in play order from 0.0, as the strategy's ``D`` does.
    """
    l1, l2, ls = (np.asarray(col, dtype=float)
                  for col in (trace.loss1, trace.loss2, trace.loss_sceptic))
    with np.errstate(invalid="ignore", divide="ignore"):
        delta = l1 - l2
        d = np.cumsum(np.concatenate(([0.0], delta)))
        areas = _triangle_areas(d[:-1], delta, c)
        excess = np.cumsum(np.concatenate(([0.0], ls - 0.5 * (l1 + l2))))[1:]
        # no area is -0.0, so the plain running sum is the one from 0.0
        integral = np.array([f_mix_integral(x, c) for x in d[1:].tolist()])
        bounds = integral - np.cumsum(areas)
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
        self.D = 0.0

    def predict(self, n, gamma1, gamma2):
        w = f_mix(self.D, self.c)
        self._pending = (gamma1, gamma2)
        return (0.5 + w) * gamma1 + (0.5 - w) * gamma2

    def observe(self, n, omega):
        gamma1, gamma2 = self._pending
        self.D += self._loss(omega, gamma1) - self._loss(omega, gamma2)

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


def _compensated_add(total: float, comp: float, x: float) -> tuple:
    # TwoSum: comp gathers the exact rounding error of each addition; an
    # infinite sum carries no compensation
    t = total + x
    back = t - total
    resid = (total - (t - back)) + (x - back)
    return t, comp + resid if math.isfinite(resid) else comp


def _compensated_cumsum(total, comp, rows) -> tuple:
    # _compensated_add over rows (a list of floats or of (K,) arrays) from
    # (total, comp), as running columns: the running sums and compensations
    # after each row, bit for bit those of adding the rows one by one
    # (np.cumsum adds in order); callers ignore invalid-value warnings
    x = np.array([total, *rows])
    sums = np.cumsum(x, axis=0)
    a, t = sums[:-1], sums[1:]
    back = t - a
    resid = (a - (t - back)) + (x[1:] - back)
    resid[~np.isfinite(resid)] = 0.0
    x[0], x[1:] = comp, resid
    return t, np.cumsum(x, axis=0)[1:]


# steps whose eq8 audit rows the aggregating sceptic holds before folding
# them: the audit's memory is O(EQ8_BLOCK * K), whatever the horizon
EQ8_BLOCK = 256


class AggregatingSceptic(ScepticStrategy):
    """Plays the aggregating mixture of a fixed pool of expert strategies.

    The protocol's two predictors are ignored; the experts are the
    sceptic's own.  ``priors`` default to uniform and need one entry per
    expert.  A step only plays: ``observe`` decays the weights and keeps
    their log-normalizer for the next ``predict``, and re-checks
    domination at the realized outcome with the weights that produced the
    move, from the normalizers before and after the decay.  The eq8 audit
    (Vovk's regret bound, a statement about cumulative sums) holds each
    step's expert losses and own loss, and folds them every ``EQ8_BLOCK``
    steps and on each read, as TwoSum-compensated column sums, into the
    per-expert cumulative losses ``expert_cums``, the strategy's own
    ``cum_self``, the tightest regret slack seen, ``worst_eq8_slack``, and
    the first step that attains it, ``worst_eq8_step``.
    """

    check = "eq8"

    def __init__(self, experts, priors=None):
        if not experts:
            raise ValueError("expert pool must not be empty")
        self.experts = list(experts)
        if priors is None:
            priors = np.full(len(self.experts), 1.0 / len(self.experts))
        self.pool = ExpertPool(priors)
        if len(self.pool) != len(self.experts):
            raise ValueError(f"priors has {len(self.pool)} entries for "
                             f"{len(self.experts)} experts")
        self._rows, self._own = [], []
        self._worst, self._worst_step = math.inf, None

    def reset(self, game, rng, horizon):
        from .players import ConstantPredictor

        params = params_for(game)
        self.eta, self.C = params.eta, params.C
        self._game = game
        self.pool = ExpertPool(self.pool.priors)  # fresh weights for each run
        self._total = _lse1(self.pool.log_weights)
        self._loss = game.loss_fn()
        self._losses = game.spec.losses
        self._fixed_mix = self._loss_table = None
        # the audit's carried sums, with compensation terms: cumulative losses
        # reach magnitudes where the plain running sums' rounding would drown
        # the regret slack
        self._cums = np.zeros(len(self.pool))
        self._comps = np.zeros(len(self.pool))
        self._cum_self = self._comp_self = 0.0
        self._penalty = self.C * np.log(1.0 / self.pool.priors)
        self._rows, self._own = [], []
        self._folded = 0
        self._worst, self._worst_step = math.inf, None
        self._pending = None
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

    def predict(self, n, gamma1, gamma2):
        preds = self._static_preds if self._static_preds is not None else self._collect(n)
        if self._total == -math.inf:
            raise PoolCollapseError("every expert has suffered infinite loss")
        # the bits of ExpertPool.normalized_log_weights, its normalizer kept from observe
        log_w = self.pool.log_weights - self._total
        mix = self._fixed_mix or fixed_pool_mixer(self._game, self.eta, preds, DOMINATION_TOL)
        gamma = mix(log_w)
        self._pending = (preds, gamma)
        return gamma

    def observe(self, n, omega):
        preds, gamma = self._pending
        own_loss = self._loss(omega, gamma)
        if self._loss_table is None:
            losses = self._losses(omega, preds)
            scaled = self.eta * losses
        else:
            losses, scaled = self._loss_table[int(omega)]
        before = self._total
        shift = aa_observe(self.pool, scaled, 1.0)  # the losses come scaled by eta
        after = self._total = _lse1(self.pool.log_weights)
        # the mixture loss -ln(sum_k w_k e^(-eta loss_k)) / eta under the
        # normalized weights that made the move is the normalizers' difference;
        # an eliminated expert's -inf weight adds to neither normalizer
        g_played = -((after + shift) - before) / self.eta
        if own_loss > g_played + DOMINATION_TOL:
            raise MixabilityViolation(
                f"step {n}: loss {own_loss:.6g} exceeds mixture bound {g_played:.6g}")
        self._rows.append(losses)
        self._own.append(own_loss)
        if len(self._own) == EQ8_BLOCK:
            self._fold()
        if self._static_preds is None:
            for e in self.experts:
                e.observe(n, omega)

    def _fold(self):
        # the held steps' eq8 slacks, min over the experts of (cumulative
        # loss + penalty) less the own cumulative loss, each sum compensated;
        # the min skips an expert whose sum is NaN, its bound vacuous, a slack
        # with every expert NaN is skipped, and an infinite sum carries no
        # compensation
        if not self._own:
            return
        with np.errstate(invalid="ignore"):
            cums, comps = _compensated_cumsum(self._cums, self._comps, self._rows)
            own, own_comps = _compensated_cumsum(self._cum_self, self._comp_self, self._own)
            slacks = (np.fmin.reduce((cums + comps) + self._penalty, axis=1)
                      - (own + own_comps))
        slacks[np.isnan(slacks)] = math.inf
        i = int(slacks.argmin())
        if slacks[i] < self._worst:
            self._worst, self._worst_step = float(slacks[i]), self._folded + i + 1
        self._cums, self._comps = cums[-1].copy(), comps[-1].copy()
        self._cum_self, self._comp_self = float(own[-1]), float(own_comps[-1])
        self._folded += len(self._own)
        self._rows, self._own = [], []

    @property
    def worst_eq8_slack(self) -> float:
        self._fold()
        return self._worst

    @property
    def worst_eq8_step(self) -> Optional[int]:
        self._fold()
        return self._worst_step

    @property
    def expert_cums(self) -> np.ndarray:
        self._fold()
        return self._cums

    @property
    def cum_self(self) -> float:
        self._fold()
        return self._cum_self

    def worst_slack(self, trace) -> float:
        return float(self.worst_eq8_slack)


# ---------------------------------------------------------------------------
# level 3: the threshold-expert lift


def _lse_floats(xs) -> float:
    # _lse1 over a few Python floats, where numpy's per-call overhead would dominate
    top = max(xs)
    return top if top == -math.inf else top + math.log(sum([math.exp(x - top) for x in xs]))


# the largest k for which the threshold 2^k and the reciprocal 2^(k+1) of
# the smallest prior, which the regret penalty takes, are finite floats
K_MAX_LIMIT = 1022


class Level3Sceptic(ScepticStrategy):
    """Aggregates threshold experts over a base sceptic strategy.

    The truncated pool holds two experts per threshold ``2^k``, k = 1 ..
    ``k_max``.  Expert ``(k, j)``, of prior ``p_k = 2^-(k+1)`` (the pool sums
    to ``1 - 2^-k_max``), mimics the base sceptic until predictor j trails
    the base sceptic's cumulative loss by more than ``2^k``, then switches
    to predictor j for good.  The game's mix (:func:`fixed_pool_mixer`)
    plays the pool as three groups of experts that predict alike, at a step
    cost flat in ``k_max``: the unswitched experts, of weight ``U e^(-eta
    L_base)`` (U their priors' sum), and per predictor j those switched to
    it, of weight ``e^(S_j - eta L_j)``, where each switch at step t
    log-adds ``ln p_k - eta (L_base(t) - L_j(t))`` into ``S_j``.  The eq8
    audit is, per group, its loss plus a floor fixed at switches; it keeps
    the worst slack, ``worst_eq8_slack``, and the first step that attains
    it, ``worst_eq8_step``.  An infinite loss of predictor j eliminates
    group j; its ``L_j`` restarts at zero for the experts that switch then.
    """

    check = "eq8"

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
        self.worst_eq8_slack, self.worst_eq8_step = math.inf, None

    def reset(self, game, rng, horizon):
        params = params_for(game)
        self.eta, self.C = params.eta, params.C
        self._game = game
        self._loss = game.loss_fn()
        self.base.reset(game, rng, horizon)
        # cum1, cum2 and cum_base are the plain running sums the switches compare
        self.cum1 = self.cum2 = self.cum_base = self.cum_self = self._comp_self = 0.0
        # per group (unswitched, switched to predictor 1, to predictor 2): its
        # loss with its TwoSum compensation, its log-weight offset and eq8 floor
        self._sums = [(0.0, 0.0)] * 3
        self._offsets, self._floors = [0.0, -math.inf, -math.inf], [0.0, math.inf, math.inf]
        self.switch_times: dict = {}
        # thresholds increase with k: each predictor's switched experts are a prefix
        self._n_switched = [0, 0]
        self._update_unswitched()
        self.worst_eq8_slack, self.worst_eq8_step = math.inf, None
        self._pending = self._mix_key = None

    def predict(self, n, gamma1, gamma2):
        gamma_base = self.base.predict(n, gamma1, gamma2)
        eta = self.eta
        w = [o - eta * (s + c) for o, (s, c) in zip(self._offsets, self._sums)]
        total = _lse_floats(w)
        if total == -math.inf:
            raise PoolCollapseError("every expert has suffered infinite loss")
        log_w = [x - total for x in w]
        preds = np.array([gamma_base, gamma1, gamma2], dtype=float)
        if preds.tobytes() != self._mix_key:  # prepared anew when the predictions change
            self._mix_key = preds.tobytes()
            self._mix = fixed_pool_mixer(self._game, eta, preds, DOMINATION_TOL)
        gamma = self._mix(np.array(log_w))
        self._pending = (gamma_base, gamma1, gamma2, log_w, gamma)
        return gamma

    def observe(self, n, omega):
        gamma_base, gamma1, gamma2, log_w, gamma = self._pending
        loss, eta = self._loss, self.eta
        own_loss = loss(omega, gamma)
        losses = (loss(omega, gamma_base), loss(omega, gamma1), loss(omega, gamma2))
        # -inf - inf stays -inf, so eliminated groups drop out cleanly
        g_played = -_lse_floats([w - eta * x for w, x in zip(log_w, losses)]) / eta
        if own_loss > g_played + DOMINATION_TOL:
            raise MixabilityViolation(
                f"step {n}: loss {own_loss:.6g} exceeds mixture bound {g_played:.6g}")
        self.base.observe(n, omega)
        self.cum_self, self._comp_self = _compensated_add(self.cum_self, self._comp_self,
                                                          own_loss)
        sums = self._sums = [_compensated_add(s, c, x) for (s, c), x in zip(self._sums, losses)]
        for j in (1, 2):
            if sums[j][0] == math.inf:
                sums[j], self._offsets[j], self._floors[j] = (0.0, 0.0), -math.inf, math.inf
        slack = (min([s + c + f for (s, c), f in zip(sums, self._floors)])
                 - (self.cum_self + self._comp_self))
        if slack < self.worst_eq8_slack:
            self.worst_eq8_slack, self.worst_eq8_step = slack, n
        self.cum_base = sums[0][0]
        self.cum1, self.cum2 = self.cum1 + losses[1], self.cum2 + losses[2]
        self._switch(n)

    def _switch(self, n):
        k = self.k_max
        for j, behind in ((1, self.cum1 - self.cum_base), (2, self.cum2 - self.cum_base)):
            i = self._n_switched[j - 1]
            while i < k and behind > self._levels[i]:
                self.switch_times[(j - 1) * k + i] = n
                c = sum(self._sums[0]) - sum(self._sums[j])
                self._offsets[j] = float(np.logaddexp(self._offsets[j],
                                                      self._log_p[i] - self.eta * c))
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

    def worst_slack(self, trace) -> float:
        return float(self.worst_eq8_slack)
