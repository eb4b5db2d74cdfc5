"""Reference pool sceptics, one plain step at a time.

``PerExpertLevel3`` plays the threshold lift over its 2 * k_max experts one
by one: one log-weight and one compensated cumulative loss per threshold
expert, the (2 * k_max,) predictions mixed through ``fixed_pool_mixer`` and
eq8 audited over every expert.  It is the reference the library's
``Level3Sceptic``, which keeps three group weights, is tested against: the
same switches, the same moves to rounding, the same eq8 slack to rounding.

``PerStepAggregating`` is the aggregating sceptic that re-checks domination
with a second log-sum-exp and audits eq8 inside every step, kept as it was
before the library's ``AggregatingSceptic`` folded its audit in column
blocks and read the re-check off the next normalizer.  The two must play
the same moves and find the same worst eq8 slack, bit for bit.
"""

import math

import numpy as np

from jeffreys.aggregating import (DOMINATION_TOL, ExpertPool, _lse1, aa_observe,
                                  fixed_pool_mixer, params_for)
from jeffreys.errors import ConfigError, DomainError, MixabilityViolation
from jeffreys.sceptics import ScepticStrategy, _compensated_add


class PerExpertLevel3(ScepticStrategy):
    """Expert ``(k, j)``, k = 1 .. k_max, prior ``2^-(k+1)``, plays the base
    sceptic's move until predictor j trails the base by more than ``2^k``,
    then predictor j's for good."""

    check = "eq8"

    def __init__(self, base, k_max=20):
        self.base = base
        self.k_max = k_max
        self._levels = (2.0 ** np.arange(1, k_max + 1)).tolist()
        p = 2.0 ** -(np.arange(1, k_max + 1) + 1)
        self.priors = np.concatenate([p, p])
        self.worst_eq8_slack = math.inf

    def reset(self, game, rng, horizon):
        params = params_for(game)
        self.eta, self.C = params.eta, params.C
        self._game = game
        self.pool = ExpertPool(self.priors)
        self._loss = game.loss_fn()
        self._losses = game.spec.losses
        self.expert_cums = np.zeros(len(self.pool))
        self.cum_self = 0.0
        self._comp_experts = np.zeros(len(self.pool))
        self._comp_self = 0.0
        self._penalty = self.C * np.log(1.0 / self.pool.priors)
        self.worst_eq8_slack = math.inf
        self.base.reset(game, rng, horizon)
        self.cum1 = self.cum2 = self.cum_base = 0.0
        self.switch_times = {}
        self._n_switched = [0, 0]
        self._targets = np.empty((2 * self.k_max,) + game.prediction_shape)

    def predict(self, n, gamma1, gamma2):
        gamma_base = self.base.predict(n, gamma1, gamma2)
        self._moves = (gamma1, gamma2, gamma_base)
        k = self.k_max
        s1, s2 = self._n_switched
        preds = self._targets
        preds[:] = gamma_base
        preds[:s1] = gamma1
        preds[k:k + s2] = gamma2
        log_w = self.pool.normalized_log_weights()
        gamma = fixed_pool_mixer(self._game, self.eta, preds, DOMINATION_TOL)(log_w)
        self._pending = (preds, log_w, gamma)
        return gamma

    def observe(self, n, omega):
        preds, log_w, gamma = self._pending
        own_loss = self._loss(omega, gamma)
        losses = self._losses(omega, preds)
        scaled = self.eta * losses
        g_played = -_lse1(log_w - scaled) / self.eta
        if own_loss > g_played + DOMINATION_TOL:
            raise MixabilityViolation(
                f"step {n}: loss {own_loss:.6g} exceeds mixture bound {g_played:.6g}")
        aa_observe(self.pool, scaled, 1.0)
        # TwoSum-compensated running sums; an infinite sum carries no compensation
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
        self.worst_eq8_slack = min(self.worst_eq8_slack, slack)

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

    def worst_slack(self, trace):
        return float(self.worst_eq8_slack)


class PerStepAggregating(ScepticStrategy):
    """Plays the aggregating mixture of a fixed pool of expert strategies.

    The protocol's two predictors are ignored; the experts are the
    sceptic's own.  ``priors`` default to uniform and need one entry per
    expert.  Tracks the per-expert cumulative losses, the strategy's own
    ``cum_self``, and the tightest regret slack seen, ``worst_eq8_slack``;
    each observation re-checks domination at the realized outcome with the
    weights that produced the move.
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
        self.worst_eq8_slack = math.inf

    def reset(self, game, rng, horizon):
        from jeffreys.players import ConstantPredictor

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
        # compensated accumulation on both sides of the slack, as in
        # _compensated_add; an infinite cumulative loss carries no compensation
        total = self.expert_cums + losses
        live = ... if math.isfinite(total.max()) else np.isfinite(total)
        a, b, t = self.expert_cums[live], losses[live], total[live]
        back = t - a
        self._comp_experts[live] += (a - (t - back)) + (b - back)
        self.expert_cums = total
        self.cum_self, self._comp_self = _compensated_add(self.cum_self, self._comp_self,
                                                          own_loss)
        slack = (float(np.fmin.reduce(total + self._comp_experts + self._penalty))
                 - (self.cum_self + self._comp_self))
        if slack < self.worst_eq8_slack:
            self.worst_eq8_slack = slack
        if self._static_preds is None:
            for e in self.experts:
                e.observe(n, omega)

    def worst_slack(self, trace) -> float:
        return float(self.worst_eq8_slack)
