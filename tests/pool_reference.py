"""The threshold lift played over its 2 * k_max experts one by one.

``PerExpertLevel3`` keeps one log-weight and one compensated cumulative
loss per threshold expert, mixes the (2 * k_max,) predictions through
``fixed_pool_mixer`` and audits eq8 over every expert.  It is the reference
the library's ``Level3Sceptic``, which keeps three group weights, is
tested against: the same switches, the same moves to rounding, the same
eq8 slack to rounding.
"""

import math

import numpy as np

from jeffreys.aggregating import (DOMINATION_TOL, ExpertPool, _lse1, aa_observe,
                                  fixed_pool_mixer, params_for)
from jeffreys.errors import MixabilityViolation
from jeffreys.sceptics import ScepticStrategy


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
