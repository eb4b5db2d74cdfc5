"""The four-player competitive prediction protocol and its run-time checks.

Each step proceeds in the fixed order: both predictors announce, the
sceptic announces knowing their moves, Nature announces knowing all three.
The engine records every move and loss in a columnar trace, classifies
which branch of the agreement-or-outperformance disjunction a finished
run exhibits, and re-verifies the strategies' guarantees (regret bound,
divergence inequality, mixture ledger, martingale null) from the trace.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError, ProtocolViolationError
from .games import Game, GameKind
from .players import NatureStrategy, PredictorStrategy, ReplayExhausted
from .sceptics import Level1Sceptic, ScepticStrategy, level2_inequality_slack

VERDICT_GAP_VANISHES = "gap-vanishes"
VERDICT_BEATS_P1 = "beats-P1"
VERDICT_BEATS_P2 = "beats-P2"
VERDICT_BEATS_WORSE = "beats-worse"
VERDICT_INCONCLUSIVE = "inconclusive"

DEFAULT_GAP_SUM_MAX = 1.0
DEFAULT_LOSS_GAP_MIN = 10.0

# the fair-coin martingale identity is a property of absolute loss alone
MARTINGALE_NULL_KINDS = (GameKind.ABSOLUTE, GameKind.BOUNDED_ABSOLUTE)


@dataclass
class StepRecord:
    n: int
    gamma1: object
    gamma2: object
    gamma_sceptic: object
    omega: object
    loss1: float
    loss2: float
    loss_sceptic: float
    cum1: float
    cum2: float
    cum_sceptic: float
    gap: float
    divergence_term: float


class Trace:
    """Column-oriented record of one protocol run.

    Cumulative columns are running sums of the per-step losses in the
    exact order they were played; ``gap`` is the absolute prediction
    difference for scalar games and the square root of the step
    divergence for log-loss, so that ``gap**2`` sums to the disjunction's
    divergence series in both cases.
    """

    def __init__(self, game: Game, seed: Optional[int] = None):
        self.game = game
        self.seed = seed
        self.truncated = False
        self.gamma1: list = []
        self.gamma2: list = []
        self.gamma_sceptic: list = []
        self.omega: list = []
        self.loss1: list = []
        self.loss2: list = []
        self.loss_sceptic: list = []
        self.cum1: list = []
        self.cum2: list = []
        self.cum_sceptic: list = []
        self.gap: list = []
        self.divergence_term: list = []

    def __len__(self) -> int:
        return len(self.omega)

    def append(self, gamma1, gamma2, gamma_sceptic, omega, l1, l2, ls,
               c1, c2, cs, gap, dterm) -> None:
        self.gamma1.append(gamma1)
        self.gamma2.append(gamma2)
        self.gamma_sceptic.append(gamma_sceptic)
        self.omega.append(omega)
        self.loss1.append(l1)
        self.loss2.append(l2)
        self.loss_sceptic.append(ls)
        self.cum1.append(c1)
        self.cum2.append(c2)
        self.cum_sceptic.append(cs)
        self.gap.append(gap)
        self.divergence_term.append(dterm)

    def final(self) -> StepRecord:
        if not len(self):
            raise ValueError("empty trace")
        return StepRecord(len(self), self.gamma1[-1], self.gamma2[-1],
                          self.gamma_sceptic[-1], self.omega[-1],
                          self.loss1[-1], self.loss2[-1], self.loss_sceptic[-1],
                          self.cum1[-1], self.cum2[-1], self.cum_sceptic[-1],
                          self.gap[-1], self.divergence_term[-1])


@dataclass
class RunReport:
    """Verdicts and worst observed check slacks for one finished run."""

    horizon: int
    final_cum1: float
    final_cum2: float
    final_cum_sceptic: float
    gap_squared_sum: float
    verdicts: list
    thresholds: dict
    check_slacks: dict = field(default_factory=dict)
    checks_passed: bool = True
    seed: Optional[int] = None
    truncated: bool = False
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "final_cum_losses": {
                "predictor1": self.final_cum1,
                "predictor2": self.final_cum2,
                "sceptic": self.final_cum_sceptic,
            },
            "gap_squared_sum": self.gap_squared_sum,
            "verdicts": list(self.verdicts),
            "thresholds": dict(self.thresholds),
            "check_slacks": dict(self.check_slacks),
            "checks_passed": self.checks_passed,
            "seed": self.seed,
            "truncated": self.truncated,
            "config": self.config,
        }


def run_protocol(nature: NatureStrategy, predictor1: PredictorStrategy,
                 predictor2: PredictorStrategy, sceptic: ScepticStrategy,
                 game: Game, horizon: int, seed: int = 0) -> Trace:
    """Play ``horizon`` steps and return the trace.

    Deterministic given (configuration, seed): each player gets an
    independent generator spawned from the seed.  The engine is the only
    validator of moves in a run: it checks each move exactly once, as it
    is announced (predictor 1, predictor 2, the sceptic, then Nature), and
    the strategies rely on that.  An out-of-domain move aborts the run
    with the offending step index; a replay Nature running out of outcomes
    truncates the run with a warning.
    """
    if horizon < 1:
        raise ConfigError("horizon must be at least 1")
    streams = np.random.SeedSequence(seed).spawn(4)
    predictor1.reset(game, np.random.default_rng(streams[0]), horizon)
    predictor2.reset(game, np.random.default_rng(streams[1]), horizon)
    sceptic.reset(game, np.random.default_rng(streams[2]), horizon)
    nature.reset(game, np.random.default_rng(streams[3]), horizon)

    trace = Trace(game, seed=seed)
    append = trace.append
    validate_prediction = game.validate_prediction
    validate_outcome = game.validate_outcome
    loss = game.loss_fn()
    gap = game.spec.trace_gap(game)
    # a divergence strategy's per-step term, for the eq9 check
    divergence = getattr(sceptic, "divergence_term", None)
    c1 = c2 = cs = 0.0

    for n in range(1, horizon + 1):
        g1 = predictor1.predict(n)
        g2 = predictor2.predict(n)
        try:
            validate_prediction(g1)
        except DomainError as exc:
            raise ProtocolViolationError(f"predictor 1: {exc}", n) from exc
        try:
            validate_prediction(g2)
        except DomainError as exc:
            raise ProtocolViolationError(f"predictor 2: {exc}", n) from exc
        gs = sceptic.predict(n, g1, g2)
        try:
            validate_prediction(gs)
        except DomainError as exc:
            raise ProtocolViolationError(f"sceptic: {exc}", n) from exc
        try:
            omega = nature.outcome(n, g1, g2, gs)
        except ReplayExhausted as exc:
            warnings.warn(f"run truncated at step {n}: {exc}")
            trace.truncated = True
            break
        try:
            validate_outcome(omega)
        except DomainError as exc:
            raise ProtocolViolationError(f"nature: {exc}", n) from exc

        l1, l2, ls = loss(omega, g1), loss(omega, g2), loss(omega, gs)
        c1, c2, cs = c1 + l1, c2 + l2, cs + ls
        dterm = divergence(g1, g2) if divergence is not None else math.nan
        append(g1, g2, gs, omega, l1, l2, ls, c1, c2, cs, gap(g1, g2), dterm)

        predictor1.observe(n, omega)
        predictor2.observe(n, omega)
        sceptic.observe(n, omega)
    return trace


def classify_disjuncts(trace: Trace,
                       gap_sum_max: float = DEFAULT_GAP_SUM_MAX,
                       loss_gap_min: float = DEFAULT_LOSS_GAP_MIN,
                       seed: Optional[int] = None,
                       config: Optional[dict] = None) -> RunReport:
    """Threshold verdicts for the disjunctions at a finite horizon.

    These are evidence, never proofs: the underlying statements are about
    limits.  All verdicts that apply are listed; a run matching none is
    inconclusive.
    """
    if not len(trace):
        raise ValueError("cannot classify an empty trace")
    final = trace.final()
    gap_sq = float(np.sum(np.square(np.asarray(trace.gap, dtype=float))))
    lg1 = final.cum1 - final.cum_sceptic
    lg2 = final.cum2 - final.cum_sceptic
    verdicts = []
    if gap_sq <= gap_sum_max:
        verdicts.append(VERDICT_GAP_VANISHES)
    if lg1 >= loss_gap_min:
        verdicts.append(VERDICT_BEATS_P1)
    if lg2 >= loss_gap_min:
        verdicts.append(VERDICT_BEATS_P2)
    if max(lg1, lg2) >= loss_gap_min:
        verdicts.append(VERDICT_BEATS_WORSE)
    if not verdicts:
        verdicts.append(VERDICT_INCONCLUSIVE)
    return RunReport(
        horizon=len(trace),
        final_cum1=final.cum1,
        final_cum2=final.cum2,
        final_cum_sceptic=final.cum_sceptic,
        gap_squared_sum=gap_sq,
        verdicts=verdicts,
        thresholds={"gap_sum_max": gap_sum_max, "loss_gap_min": loss_gap_min},
        seed=seed if seed is not None else trace.seed,
        truncated=trace.truncated,
        config=config or {},
    )


# ---------------------------------------------------------------------------
# trace verification

CHECK_TOL = 1e-9


def _check_eq9(trace: Trace, sceptic) -> float:
    alpha = getattr(sceptic, "alpha", None)
    epsilon = getattr(sceptic, "epsilon", None)
    if alpha is None or epsilon is None:
        raise ConfigError("eq9 check needs a divergence-strategy sceptic "
                          "(alpha and epsilon attributes)")
    if np.any(np.isnan(trace.divergence_term)):
        raise ConfigError("eq9 check needs per-step divergence terms in the trace")
    slack = level2_inequality_slack(trace, alpha, epsilon)
    return float(np.min(slack))


def _check_eq8(trace: Trace, sceptic) -> float:
    worst = getattr(sceptic, "worst_eq8_slack", None)
    if worst is None:
        raise ConfigError("eq8 check needs an aggregating sceptic "
                          "(worst_eq8_slack attribute)")
    return float(worst)


def _check_ledger(trace: Trace, sceptic) -> float:
    if not isinstance(sceptic, Level1Sceptic) or not sceptic.audit_bounds:
        raise ConfigError("ledger check needs a mixture sceptic with a "
                          "recorded audit trail")
    areas = np.asarray(sceptic.audit_areas)
    excess = np.asarray(sceptic.audit_excess)
    bounds = np.asarray(sceptic.audit_bounds)
    worst_area = float(np.min(areas))
    worst_bound = float(np.min(bounds - excess))
    return min(worst_area, worst_bound)


def _check_martingale_null(trace: Trace, sceptic) -> float:
    """Worst absolute deviation of the fair-coin conditional expectation.

    Exactly zero for the two-constant-predictor scenario: the expected
    absolute loss of any prediction in [0, 1] under a fair coin on {0, 1}
    is 1/2, for the sceptic and both predictors alike.
    """
    game = trace.game
    if game.kind not in MARTINGALE_NULL_KINDS:
        raise ConfigError("martingale_null check is defined for absolute-loss games")

    def expected_loss(col):
        g = np.asarray(col, dtype=float)
        return (np.abs(g) + np.abs(1.0 - g)) / 2.0
    es = expected_loss(trace.gamma_sceptic)
    worst = 0.0
    for col in (trace.gamma1, trace.gamma2):
        worst = max(worst, float(np.max(np.abs(expected_loss(col) - es))))
    return worst


_CHECKS = {
    "eq8": _check_eq8,
    "eq9": _check_eq9,
    "ledger": _check_ledger,
    "martingale_null": _check_martingale_null,
}

# checks whose slack must be (near) zero rather than merely nonnegative
_EXACT_CHECKS = {"martingale_null"}


def verify_run(trace: Trace, checks: Sequence[str], sceptic=None,
               report: Optional[RunReport] = None,
               tol: float = CHECK_TOL) -> RunReport:
    """Evaluate the requested guarantee checks on a finished run.

    Inequality checks pass when their worst slack is at least ``-tol``;
    exact-identity checks when the worst deviation is within ``tol``.
    Requesting a check whose metadata the run lacks raises ConfigError
    naming the check.
    """
    if report is None:
        report = classify_disjuncts(trace)
    for name in checks:
        if name not in _CHECKS:
            raise ConfigError(f"unknown check {name!r}; options: {sorted(_CHECKS)}")
        try:
            slack = _CHECKS[name](trace, sceptic)
        except ConfigError as exc:
            raise ConfigError(f"check {name!r}: {exc}") from None
        report.check_slacks[name] = slack
        ok = abs(slack) <= tol if name in _EXACT_CHECKS else slack >= -tol
        report.checks_passed = report.checks_passed and bool(ok)
    return report
