"""The four-player competitive prediction protocol and its run-time checks.

Each step proceeds in the fixed order: both predictors announce, the
sceptic announces knowing their moves, Nature announces knowing all three.
The engine records each step's four moves, builds the columnar trace with
its loss, gap and divergence columns once the run ends, classifies which
branch of the agreement-or-outperformance disjunction a finished run
exhibits, and verifies the requested checks: martingale null itself, every
other guarantee through its sceptic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import accumulate, islice
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError, ProtocolViolationError
from .games import Game, GameKind
from .players import NatureStrategy, PredictorStrategy, ReplayExhausted
from .sceptics import ScepticStrategy

VERDICT_GAP_VANISHES = "gap-vanishes"
VERDICT_BEATS_P1 = "beats-P1"
VERDICT_BEATS_P2 = "beats-P2"
VERDICT_BEATS_WORSE = "beats-worse"
VERDICT_INCONCLUSIVE = "inconclusive"

DEFAULT_GAP_SUM_MAX = 1.0
DEFAULT_LOSS_GAP_MIN = 10.0

# the fair-coin martingale identity is a property of absolute loss alone
MARTINGALE_NULL_KINDS = (GameKind.ABSOLUTE, GameKind.BOUNDED_ABSOLUTE)


class Trace:
    """Column-oriented record of one protocol run, built from its moves.

    ``rows`` holds each step's ``(gamma1, gamma2, gamma_sceptic, omega)``
    back to back in play order: one flat list, as a tuple per step would
    load the garbage collector.  The derived columns are computed once,
    from the move columns, by the game's column forms, which match the
    per-move arithmetic bit for bit.  Cumulative columns are running sums
    of the per-step losses in play order from 0.0, so a first loss of -0.0
    sums to 0.0; ``gap`` is the absolute prediction difference for scalar
    games and the square root of the step divergence for log-loss, so that
    ``gap**2`` sums to the disjunction's divergence series in both cases.
    ``divergence(gamma1, gamma2)`` gives the sceptic's divergence column;
    without it the column is NaN.
    """

    def __init__(self, game: Game, rows: Sequence, seed: Optional[int] = None,
                 truncated: bool = False, divergence: Optional[Callable] = None):
        self.game = game
        self.seed = seed
        self.truncated = truncated
        self.gamma1, self.gamma2, self.gamma_sceptic, self.omega = (
            rows[i::4] for i in range(4))
        shape = (len(self.omega),) + game.prediction_shape
        g1, g2, gs = (np.asarray(col, dtype=float).reshape(shape)
                      for col in (self.gamma1, self.gamma2, self.gamma_sceptic))
        spec = game.spec
        # a loss or divergence of finite moves far apart may exceed the float
        # range: it is +inf
        with np.errstate(over="ignore"):
            self.loss1, self.loss2, self.loss_sceptic = (
                spec.loss_column(self.omega, g) for g in (g1, g2, gs))
            self.gap = spec.trace_gap(g1, g2)
            self.divergence_term = (divergence(g1, g2) if divergence is not None
                                    else [math.nan] * len(self.omega))
        self.cum1, self.cum2, self.cum_sceptic = (
            list(islice(accumulate(col, initial=0.0), 1, None))
            for col in (self.loss1, self.loss2, self.loss_sceptic))

    def __len__(self) -> int:
        return len(self.omega)


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

    rows: list = []
    record = rows.extend
    truncated = False
    validate_prediction = game.validate_prediction
    validate_outcome = game.validate_outcome

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
            truncated = True
            break
        try:
            validate_outcome(omega)
        except DomainError as exc:
            raise ProtocolViolationError(f"nature: {exc}", n) from exc

        record((g1, g2, gs, omega))

        predictor1.observe(n, omega)
        predictor2.observe(n, omega)
        sceptic.observe(n, omega)
    return Trace(game, rows, seed=seed, truncated=truncated,
                 divergence=sceptic.divergence_column)


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
    cum1, cum2, cum_sceptic = trace.cum1[-1], trace.cum2[-1], trace.cum_sceptic[-1]
    with np.errstate(over="ignore"):
        gap_sq = float(np.sum(np.square(np.asarray(trace.gap, dtype=float))))
    lg1 = cum1 - cum_sceptic
    lg2 = cum2 - cum_sceptic
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
        final_cum1=cum1,
        final_cum2=cum2,
        final_cum_sceptic=cum_sceptic,
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

# martingale_null is the game's; a sceptic certifies each of the others
CHECKS = ("eq8", "eq9", "ledger", "martingale_null")


def require_checks(checks, sceptic: Optional[ScepticStrategy], game: Game) -> None:
    """ConfigError unless ``checks`` is a list of checks that this sceptic
    certifies or, for martingale_null, that this game admits."""
    if not isinstance(checks, list):
        raise ConfigError(f"checks must be a list of check names, got {checks!r}")
    for name in checks:
        if name not in CHECKS:
            raise ConfigError(f"unknown check {name!r}; options: {list(CHECKS)}")
        if name == "martingale_null":
            if game.kind not in MARTINGALE_NULL_KINDS:
                raise ConfigError("check 'martingale_null' requires an absolute-loss game")
        elif sceptic is None or sceptic.check != name:
            raise ConfigError(f"check {name!r} is not certified by {type(sceptic).__name__}")


def _martingale_null_deviation(trace: Trace) -> float:
    """Worst absolute deviation of the fair-coin conditional expectation.

    Exactly zero for the two-constant-predictor scenario: the expected
    absolute loss of any prediction in [0, 1] under a fair coin on {0, 1}
    is 1/2, for the sceptic and both predictors alike.
    """
    g = np.asarray([trace.gamma1, trace.gamma2, trace.gamma_sceptic], dtype=float)
    expected_loss = (np.abs(g) + np.abs(1.0 - g)) / 2.0
    return float(np.max(np.abs(expected_loss[:2] - expected_loss[2])))


def verify_run(trace: Trace, checks: Sequence[str], sceptic=None,
               report: Optional[RunReport] = None,
               tol: float = CHECK_TOL) -> RunReport:
    """Evaluate the requested guarantee checks on a finished run.

    Inequality checks pass when their worst slack is at least ``-tol``;
    the exact martingale_null identity when its worst deviation is within
    ``tol``.  Checks :func:`require_checks` refuses, or whose record the run
    lacks, raise ConfigError naming the check.
    """
    require_checks(checks, sceptic, trace.game)
    if report is None:
        report = classify_disjuncts(trace)
    for name in checks:
        exact = name == "martingale_null"
        slack = _martingale_null_deviation(trace) if exact else sceptic.worst_slack(trace)
        ok = abs(slack) <= tol if exact else slack >= -tol
        report.check_slacks[name] = slack
        report.checks_passed = report.checks_passed and bool(ok)
    return report
