"""The mixture strategy that keeps its ledger inside every step.

``PerStepLevel1`` is the level-1 sceptic as it was before the library's
``Level1Sceptic`` stopped auditing while it plays: each step computes its
curvilinear-triangle area with the scalar ``triangle_area`` and appends the
area, the running excess and the ledger bound to ``audit_areas``,
``audit_excess`` and ``audit_bounds``.  It is the reference the library's
column ledger, ``level1_ledger``, is tested against: the same moves, and
the same areas, excess and bounds, bit for bit.  Its running excess, area
sum and rounding term carry TwoSum compensation, added one step at a time
by its own scalar TwoSum.
"""

import math

import numpy as np

from jeffreys.errors import ConfigError
from jeffreys.sceptics import ScepticStrategy, f_mix, f_mix_integral


def two_sum(total: float, x: float) -> tuple:
    # (total + x, the exact rounding error of that addition), the error 0
    # where it is not finite (an infinite or NaN sum carries no compensation)
    t = total + x
    back = t - total
    resid = (total - (t - back)) + (x - back)
    return t, resid if math.isfinite(resid) else 0.0


def compensated_add(total: float, comp: float, x: float) -> tuple:
    # one TwoSum-compensated addition: comp gathers the rounding errors
    t, resid = two_sum(total, x)
    return t, comp + resid


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
    return max(0.0, c * (u - np.log1p(u)))


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


class PerStepLevel1(ScepticStrategy):
    """The mixture strategy, keeping its ledger and the full audit trail.

    Each move weights the predictors by their cumulative loss difference
    ``D``: ``(1/2 + f(D)) gamma1 + (1/2 - f(D)) gamma2``.  The further
    predictor 1 is behind (large D), the more weight it gets, capped at
    ``1/2 + c``.  Swapping the predictors and negating D gives the same
    move, by oddness of f.

    ``triangle_sum`` accumulates the curvilinear-triangle areas,
    ``excess`` the sceptic's realized loss over the predictors' average, and
    ``dropped`` the rounding term ``f(D) r`` of each step, where ``r`` is
    the rounding error of the step's ``D += delta``; each carries its TwoSum
    compensation.
    The ledger bound ``integral(f, 0..D) - triangle_sum + dropped`` dominates
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
        self.triangle_sum = self._triangle_comp = 0.0
        self.excess = self._excess_comp = 0.0
        self.dropped = self._dropped_comp = 0.0
        self.audit_areas, self.audit_excess, self.audit_bounds = [], [], []
        self._pending = None

    @property
    def ledger_bound(self) -> float:
        return (f_mix_integral(self.D, self.c) - (self.triangle_sum + self._triangle_comp)
                + (self.dropped + self._dropped_comp))

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
        self.D, r = two_sum(self.D, delta)
        self.dropped, self._dropped_comp = compensated_add(
            self.dropped, self._dropped_comp, f_mix(self.D, self.c) * r)
        self.triangle_sum, self._triangle_comp = compensated_add(
            self.triangle_sum, self._triangle_comp, area)
        self.excess, self._excess_comp = compensated_add(
            self.excess, self._excess_comp, loss(omega, gamma) - 0.5 * (l1 + l2))
        self.audit_areas.append(area)
        self.audit_excess.append(self.excess + self._excess_comp)
        self.audit_bounds.append(self.ledger_bound)

    def worst_slack(self, trace) -> float:
        if not self.audit_bounds:
            raise ConfigError("ledger check needs a recorded audit trail")
        worst_bound = np.min(np.asarray(self.audit_bounds) - np.asarray(self.audit_excess))
        return min(float(np.min(self.audit_areas)), float(worst_bound))
