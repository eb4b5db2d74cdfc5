"""The four-player competitive prediction protocol and its run-time checks.

Each step proceeds in the fixed order: both predictors announce, the
sceptic announces knowing their moves, Nature announces knowing all three.
Where every strategy has a column form, the engine plays the run as
columns, in dependency order.  Against a Nature whose outcomes do not
depend on the moves: the outcome column, both predictors' move columns,
then the sceptic's.  Against one whose outcome is a fixed function of the
current step's moves (the adversarial greedy Nature): both predictors'
columns and the sceptic's first, each told ``omegas=None`` (the outcomes
are not known yet), then Nature's reply to them, from the reply form it
gave before any of them.  Where a form reads past outcomes, and so gives
None there, up to ``SPECULATION_ROUNDS`` rounds each play the move columns
against a guessed outcome column: a reply equal to its guess is the run,
since row n of every column form reads only outcomes before n.
The protocol fixes the order of information, not the order of
computation, so each player still sees only what it would see step by
step.
The engine alone decides whether a column form may stand in for a
strategy's per-step methods: only where the strategy plays the per-step
methods of the class that defines the form.  Otherwise, and wherever a
column attempt meets a move or a step the loop would refuse or warn about,
it resets every player and plays the per-step loop from step 1, which
records each step's four moves and names the step of any error.  Both
paths build the same columnar trace, with its loss, gap and divergence
columns, once the run ends.  The engine then classifies which branch of
the agreement-or-outperformance disjunction a finished run exhibits, and
verifies the requested checks: martingale null itself, every other
guarantee through its sceptic.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (ConfigError, DivergenceOverestimate, DomainError, MixabilityViolation,
                     PoolCollapseError, ProtocolViolationError)
from .games import Game, GameKind
from .players import NatureStrategy, PredictorStrategy, ReplayExhausted, _column
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
    """Column-oriented record of one protocol run, built from its four move
    columns, one row per step.

    The engine builds every trace from the move columns of column play or
    of its loop.  Every column is a float64 array built once: the moves, of
    shape ``(N,) + game.prediction_shape``, the outcomes, and the derived
    columns, computed from the moves by the game's column forms, which
    match the per-move arithmetic bit for bit.
    Cumulative columns are running sums of the per-step losses in play
    order from 0.0, so a first loss of -0.0 sums to 0.0; ``gap`` is the
    absolute prediction difference for scalar games and the square root of
    the step divergence for log-loss, so that ``gap**2`` sums to the
    disjunction's divergence series in both cases.  ``divergence(gamma1,
    gamma2)`` gives the sceptic's divergence column; without it the column
    is NaN.
    """

    def __init__(self, game: Game, gamma1, gamma2, gamma_sceptic, omega,
                 seed: Optional[int] = None, truncated: bool = False,
                 divergence: Optional[Callable] = None):
        self.game = game
        self.seed = seed
        self.truncated = truncated
        self.omega = np.asarray(omega, dtype=float)
        shape = self.omega.shape + game.prediction_shape
        self.gamma1, self.gamma2, self.gamma_sceptic = (
            np.asarray(g, dtype=float).reshape(shape) for g in (gamma1, gamma2, gamma_sceptic))
        spec = game.spec
        # a loss, divergence or running sum of finite moves far apart may
        # exceed the float range: it is +inf
        with np.errstate(over="ignore"):
            self.loss1, self.loss2, self.loss_sceptic = (
                spec.loss_column(self.omega, g)
                for g in (self.gamma1, self.gamma2, self.gamma_sceptic))
            self.gap = spec.trace_gap(self.gamma1, self.gamma2)
            self.divergence_term = (divergence(self.gamma1, self.gamma2)
                                    if divergence is not None
                                    else np.full(len(self.omega), np.nan))
            self.cum1, self.cum2, self.cum_sceptic = (
                np.cumsum(np.concatenate(([0.0], col)))[1:]
                for col in (self.loss1, self.loss2, self.loss_sceptic))

    def __len__(self) -> int:
        return len(self.omega)


@dataclass
class RunReport:
    """Verdicts and worst observed check slacks for one finished run; its
    fields are the report's JSON document."""

    horizon: int
    final_cum_losses: dict
    gap_squared_sum: float
    verdicts: list
    thresholds: dict
    check_slacks: dict = field(default_factory=dict)
    checks_passed: bool = True
    seed: Optional[int] = None
    truncated: bool = False
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def run_protocol(nature: NatureStrategy, predictor1: PredictorStrategy,
                 predictor2: PredictorStrategy, sceptic: ScepticStrategy,
                 game: Game, horizon: int, seed: int = 0) -> Trace:
    """Play ``horizon`` steps and return the trace.

    Deterministic given (configuration, seed): each player gets an
    independent generator spawned from the seed.  The run plays as columns
    where every strategy offers its column form, and as the per-step loop
    otherwise, from a fresh reset of every player from the same seed; both
    give the same trace, bit for bit.  The engine is the
    only validator of moves in a run: it checks each move exactly once, as
    it is announced (predictor 1, predictor 2, the sceptic, then Nature),
    or each column, and the strategies rely on that.  An out-of-domain move
    aborts the run with the offending step index, as does a pool that
    collapses or a level-2 move of infinite divergence; a replay Nature
    running out of outcomes truncates the run with a warning.
    """
    if horizon < 1:
        raise ConfigError("horizon must be at least 1")
    players = (predictor1, predictor2, sceptic, nature)
    _reset(players, game, horizon, seed)
    truncated = False
    # a failed column attempt leaves every error and warning to the loop,
    # which plays from a fresh reset whatever state the attempt changed
    with np.errstate(all="ignore"):
        columns = _play_columns(players, game, horizon, seed)
    if columns is None:
        _reset(players, game, horizon, seed)
        columns, truncated = _play_loop(players, game, horizon)
    return Trace(game, *columns, seed=seed, truncated=truncated,
                 divergence=sceptic.divergence_column)


def _reset(players, game: Game, horizon: int, seed: int) -> None:
    streams = np.random.SeedSequence(seed).spawn(4)
    for player, stream in zip(players, streams):
        player.reset(game, np.random.default_rng(stream), horizon)


# the rounds of guessing the outcome column against a Nature that replies
# to moves which read past outcomes, before the loop plays the run
SPECULATION_ROUNDS = 16


def _play_columns(players, game: Game, horizon: int, seed: int):
    """The run's four move columns, in dependency order, or None where the
    loop must play it: a strategy without a column form that may stand in
    for it, or a column of another length than the horizon or with a move
    the validators' fast path does not accept.  An oblivious Nature's
    outcome column comes first; otherwise Nature's reply form, then the
    predictors' and the sceptic's columns, from ``omegas=None``, and the
    reply to them last.  Where a move form reads past outcomes (it gives
    None for ``omegas=None``), up to ``SPECULATION_ROUNDS`` rounds each
    reset every player and play the moves against a guessed outcome column,
    all zeros first: a reply equal to its guess bit for bit is the run, since
    row n of every column form reads only outcomes before n.  Otherwise the
    reply's rows through its first mismatch are the run's, and the next
    guess extends them (:func:`_next_guess`).  Column forms may change state
    on the way to None: the caller resets every player before the loop
    plays."""
    predictor1, predictor2, sceptic, nature = players

    def accepted(column, accepts) -> bool:
        return column is not None and len(column) == horizon and accepts(column)

    def play(omegas):
        # the move columns against omegas, and the outcome column: omegas, or Nature's reply
        gammas = (_column(predictor1, "predict_column", omegas),
                  _column(predictor2, "predict_column", omegas))
        if not all(accepted(column, game.accepts_predictions) for column in gammas):
            return None
        column = _column(sceptic, "predict_column", *gammas, omegas)
        if not accepted(column, game.accepts_predictions):
            return None
        if reply is None:
            return (*gammas, column, omegas)
        omegas = reply(*gammas, column)
        return (*gammas, column, omegas) if accepted(omegas, game.accepts_outcomes) else None

    omegas, reply = _column(nature, "outcome_column", horizon), None
    if omegas is not None:
        return play(omegas) if accepted(omegas, game.accepts_outcomes) else None
    reply = _column(nature, "reply_column")
    if reply is None:
        return None
    run = play(None)
    if run is not None:
        return run
    guess = np.zeros(horizon)
    for _ in range(SPECULATION_ROUNDS):
        _reset(players, game, horizon, seed)
        run = play(guess) if accepted(guess, game.accepts_outcomes) else None
        if run is None:
            return None
        miss = np.flatnonzero(run[3].view(np.uint64) != guess.view(np.uint64))
        if not len(miss):
            return run
        guess = _next_guess(run[3], int(miss[0]) + 1)
    return None


def _next_guess(reply: np.ndarray, known: int) -> np.ndarray:
    """The next guess at the outcome column, from Nature's reply to the
    last guess, whose first ``known`` rows are the run's: those rows
    extended by their shortest period, of at most 64 rows, where it repeats
    three times at their end, and otherwise the reply itself."""
    rows = reply[:known]
    bits = rows.tobytes()
    for period in range(1, min(64, known // 3) + 1):
        width = period * rows.itemsize
        if bits[-3 * width:-width] == bits[-2 * width:]:
            return np.concatenate((rows, np.resize(rows[-period:], len(reply) - known)))
    return reply


def _play_loop(players, game: Game, horizon: int) -> tuple:
    """(the four move columns, truncated): the run played step by step."""
    predictor1, predictor2, sceptic, nature = players
    rows: list = []
    record = rows.extend
    truncated = False
    validate_prediction = game.validate_prediction
    validate_outcome = game.validate_outcome
    # each step's calls, looked up once
    predict1, predict2, predict, outcome = (
        predictor1.predict, predictor2.predict, sceptic.predict, nature.outcome)
    observe1, observe2, observe = predictor1.observe, predictor2.observe, sceptic.observe

    for n in range(1, horizon + 1):
        g1 = predict1(n)
        g2 = predict2(n)
        try:
            validate_prediction(g1)
        except DomainError as exc:
            raise ProtocolViolationError(f"predictor 1: {exc}", n) from exc
        try:
            validate_prediction(g2)
        except DomainError as exc:
            raise ProtocolViolationError(f"predictor 2: {exc}", n) from exc
        try:
            gs = predict(n, g1, g2)
        except (PoolCollapseError, DivergenceOverestimate, MixabilityViolation) as exc:
            raise type(exc)(f"step {n}: {exc}") from exc
        try:
            validate_prediction(gs)
        except DomainError as exc:
            raise ProtocolViolationError(f"sceptic: {exc}", n) from exc
        try:
            omega = outcome(n, g1, g2, gs)
        except ReplayExhausted as exc:
            warnings.warn(f"run truncated at step {n}: {exc}")
            truncated = True
            break
        try:
            validate_outcome(omega)
        except DomainError as exc:
            raise ProtocolViolationError(f"nature: {exc}", n) from exc

        record((g1, g2, gs, omega))

        observe1(n, omega)
        observe2(n, omega)
        observe(n, omega)
    return [rows[i::4] for i in range(4)], truncated


def classify_disjuncts(trace: Trace,
                       gap_sum_max: float = DEFAULT_GAP_SUM_MAX,
                       loss_gap_min: float = DEFAULT_LOSS_GAP_MIN,
                       config: Optional[dict] = None) -> RunReport:
    """Threshold verdicts for the disjunctions at a finite horizon.

    These are evidence, never proofs: the underlying statements are about
    limits.  All verdicts that apply are listed; a run matching none is
    inconclusive.
    """
    if not len(trace):
        raise ValueError("cannot classify an empty trace")
    cum1, cum2, cum_sceptic = (float(col[-1])
                               for col in (trace.cum1, trace.cum2, trace.cum_sceptic))
    with np.errstate(over="ignore"):
        gap_sq = float(np.sum(np.square(trace.gap)))
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
        final_cum_losses={"predictor1": cum1, "predictor2": cum2, "sceptic": cum_sceptic},
        gap_squared_sum=gap_sq,
        verdicts=verdicts,
        thresholds={"gap_sum_max": gap_sum_max, "loss_gap_min": loss_gap_min},
        seed=trace.seed,
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
    g = np.stack((trace.gamma1, trace.gamma2, trace.gamma_sceptic))
    expected_loss = (np.abs(g) + np.abs(1.0 - g)) / 2.0
    return float(np.max(np.abs(expected_loss[:2] - expected_loss[2])))


def verify_run(trace: Trace, checks: Sequence[str], sceptic=None,
               report: Optional[RunReport] = None) -> RunReport:
    """Evaluate the requested guarantee checks on a finished run.

    Inequality checks pass when their worst slack is at least
    ``-CHECK_TOL``; the exact martingale_null identity when its worst
    deviation is within ``CHECK_TOL``.  Checks :func:`require_checks`
    refuses, or whose record the run lacks, raise ConfigError naming the
    check.
    """
    require_checks(checks, sceptic, trace.game)
    if report is None:
        report = classify_disjuncts(trace)
    for name in checks:
        exact = name == "martingale_null"
        slack = _martingale_null_deviation(trace) if exact else sceptic.worst_slack(trace)
        ok = abs(slack) <= CHECK_TOL if exact else slack >= -CHECK_TOL
        report.check_slacks[name] = slack
        report.checks_passed = report.checks_passed and bool(ok)
    return report
