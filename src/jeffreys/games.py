"""Games of prediction in canonical representation.

A game couples an outcome space, a prediction space, and a loss function.
Everything geometric in this package is phrased in terms of the game's
canonical points: the loss profile ``omega -> loss(omega, gamma)`` of each
prediction, restricted to a finite outcome grid.  Continuous outcome and
prediction spaces are represented by grids.  The membership queries and the
numeric divergences are one gap search: the smallest uniform excess of a
canonical point over a target point, scanned on the prediction grid and
refined in lockstep until the local spacing is well below the requested
tolerance, so its error is quantifiable.  A target vector is compared on
the outcome grid; the weighted mean of two canonical points, the one target
of the numeric divergences and level-2 move, at the few outcomes where the
excess can attain its max (the kind's ``candidates``), so that search is
exact on the whole outcome interval.  Perfect mixability needs no
search: each kind's constant ``eta*`` is a closed form in the span ``W`` of
its outcomes, the infimum of the loss curve's curvature ratio (Haussler,
Kivinen & Warmuth, IEEE Trans. IT 1998; Vovk, Competitive on-line
statistics, 2001): ``2 / W^2`` for square loss, ``9 / W^4`` for quartic
loss, 0 for absolute loss and 1 for log loss.
Profiles are outcome-major, ``(O, ...)``, so maxima over outcomes run
over contiguous rows.

The bundled games:

============ ==================== ==================== =====================
name          outcomes             predictions          loss
============ ==================== ==================== =====================
absolute      all reals            all reals            ``|omega - gamma|``
square        all reals            all reals            ``(omega - gamma)^2``
bounded_*     ``[0, 1]``           ``[0, 1]``           as above
quartic       ``[-1, 1]``          ``[-1, 1]``          ``(omega - gamma)^4``
log_loss      ``{0, .., m-1}``     probability vectors  ``-ln gamma[omega]``
============ ==================== ==================== =====================

Log-loss is restricted to finite outcome spaces under counting measure.
Losses are extended reals: ``+inf`` participates naturally in comparisons
and poisons cumulative sums.

Everything that tells one kind from another is a property of its loss, and
it sits in one table, ``GAME_SPECS``: one :class:`GameSpec` per kind, with
the loss kernel, bounds and outcome type, the map from a prediction-grid
parameter to a prediction, and the closed forms the kind has (the
divergence and the trace's gap column, the level-2 move, the aggregating
pool's move, and the mixability constant).  Each is written once, as a
column form over a run's moves: one form serves both paths, as a step is
its one-row case.  Other modules read a game's entry, ``game.spec``, once,
when they build a game, reset a strategy or parse a command, and never per
step.  A kind without a closed form takes the numeric path (the gap search
below), so adding a kind is one entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError

Prediction = Union[float, np.ndarray]

DEFAULT_GRID_SIZE = 257
DEFAULT_MEMBERSHIP_TOL = 1e-9
_MAX_REFINE_ROUNDS = 16
_REFINE_POINTS = 21
_REFINE_STARTS = 3
_FLOAT_MAX = float(np.finfo(float).max)
# module names for the binary validator, which runs three times a step, and
# for the log-loss kernel
_ldexp, _NDARRAY, _log = math.ldexp, np.ndarray, np.log


def _refuse_text(vector) -> None:
    # a DomainError naming a vector's first string entry, which float()
    # would read as a number, as _finite names a string move
    entries = vector.tolist() if isinstance(vector, np.ndarray) else vector
    if isinstance(entries, (list, tuple)):
        for entry in entries:
            if isinstance(entry, (str, bytes)):
                raise DomainError(f"prediction {entry!r} is not a number")


def _finite(move, what: str) -> bool:
    """Whether a move off the validators' fast path is finite; a DomainError
    if it is not one real number (a vector, a string, None)."""
    if np.ndim(move) != 0:
        raise DomainError(f"{what} {move!r} is not a number")
    try:
        return math.isfinite(move)
    except OverflowError:  # an integer beyond the float range
        return False
    except TypeError:
        raise DomainError(f"{what} {move!r} is not a number") from None


class GameKind(str, Enum):
    ABSOLUTE = "absolute"
    SQUARE = "square"
    BOUNDED_SQUARE = "bounded_square"
    BOUNDED_ABSOLUTE = "bounded_absolute"
    QUARTIC = "quartic"
    LOG_LOSS = "log_loss"


@dataclass(frozen=True)
class MixabilityParams:
    """Learning rate and regret constant for one game."""

    eta: float
    C: float


@dataclass(frozen=True)
class GameSpec:
    """One game kind: its loss, and what is known about it in closed form.

    Closed forms are factories, called once where a run starts, that return
    the function a run calls.  Column forms (``loss_column``, ``trace_gap``,
    the function ``divergence`` returns, ``level2_column``, ``mix_column``)
    take a run's move columns, one row per step, and return float64 arrays,
    bit for bit the per-move arithmetic.  Each is written once: one form
    serves both paths, and the per-step level-2 move and pool move are the
    column form called on one row.  A kind with a ``level2_column`` has its
    ``divergence`` too: the move's profile is the weighted mean shifted down
    by exactly that.  Every kind the pool sceptics accept (a positive
    ``eta_star`` on bounded outcomes) has a ``mix_column``: the pool's move
    in closed form, prepared once for the experts' predictions, which gives
    None where it does not dominate the mixture loss within the constant
    ``DOMINATION_TOL``.  The bounded scalar kinds take it from the mixture
    loss at the ends of the outcome interval, log loss as the probability
    mixture.  ``level2_column`` and ``mix_column`` give None for the whole
    column where any row has no closed-form move, and the per-step loop
    plays the run, which raises at the step without one.  ``mix_column``
    takes the experts' predictions shared by every step, ``(K,)`` or
    ``(K, m)``, or one row of them per step, ``(B, K)`` or ``(B, K, m)``.
    ``candidates``, prepared once per search for a weighted mean
    ``w1 lambda(g1) + w2 lambda(g2)`` on the outcome interval ``[lo, hi]``,
    maps an array of predictions to at most 4 outcomes each,
    ``(C, *params.shape)`` or an array that broadcasts to it: those where a
    prediction's canonical point's excess over the mean, or the mean's over
    it, attains its max over the interval.  A kind without it (log loss)
    takes that max over its outcome grid, which is its whole outcome space.
    """

    kernel: Callable          # (omega, gamma) -> loss, unvalidated, one move
    losses: Callable          # the kernel broadcast over outcomes and predictions
    loss_column: Callable     # (omegas, gammas) -> the kernel's loss per row
    param_losses: Callable    # (game, params) -> (O, *params.shape) profiles over the outcome grid
    bounds: Callable          # m -> (outcome bounds, prediction bounds); None: the reals
    outcome_type: type        # int on a finite outcome space, float otherwise
    from_param: Callable      # clamped prediction-grid parameter -> prediction
    make: Callable            # (grid_size, m) -> Game with default grids
    trace_gap: Callable       # (gammas1, gammas2) -> the trace's gap column
    eta_star: Callable        # outcome span W -> the largest eta the game is mixable at
    divergence: Optional[Callable] = None   # (game, alpha) -> (gammas1, gammas2) -> column
    level2_column: Optional[Callable] = None  # (game, w1, w2) -> (gammas1, gammas2) -> moves
    mix_column: Optional[Callable] = None   # (preds, eta) -> (log_w rows -> pool moves)
    candidates: Optional[Callable] = None   # (lo, hi, g1, g2, w1, w2) -> (params -> outcomes)


# ---------------------------------------------------------------------------
# loss kernels, unvalidated.  A scalar game's kernel serves Game.loss,
# loss_fn, canonical_point and losses_for_params alike, so they agree bit
# for bit, and broadcasts over numpy arrays.

def _absolute_kernel(omega, gamma):
    return abs(omega - gamma)


def _square_kernel(omega, gamma):
    d = omega - gamma
    return d * d


def _quartic_kernel(omega, gamma):
    d = omega - gamma
    d2 = d * d
    return d2 * d2


def _log_kernel(omega, gamma):
    p = gamma[int(omega)]
    return -float(_log(p)) if p > 0.0 else math.inf


def _neg_log(p: np.ndarray) -> np.ndarray:
    # the kernel over an array of probabilities; a probability of 0 loses +inf
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0.0, -np.log(p), np.inf)


def _log_loss_column(omega, gamma):
    # the probability each row's prediction gave its outcome
    return _neg_log(gamma[np.arange(len(gamma)), np.asarray(omega, dtype=np.intp)])


def _log_losses(omega, gamma):
    # broadcasting log loss over the probabilities' last axis
    return _neg_log(np.asarray(gamma, dtype=float)[..., np.asarray(omega, dtype=np.intp)])


def _binary_log_param_losses(game, params):
    # the parameter is the probability of outcome 1
    with np.errstate(divide="ignore"):
        return np.stack([-np.log(1.0 - params), -np.log(params)])


def _lse1(x: np.ndarray) -> float:
    # lean 1-D log-sum-exp for hot loops; exp underflow to 0 is the intended
    # treatment of eliminated experts
    m = x.max()
    if m == -math.inf:
        return -math.inf
    return float(m + np.log(np.exp(x - m).sum()))


def _lse_rows(x: np.ndarray) -> np.ndarray:
    # _lse1 of each row, bit for bit, in one reduction per stage; a row that
    # is all -inf gives -inf
    m = x.max(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        sums = np.exp(x - m).sum(axis=1)
    m = m[:, 0]
    return np.where(m == -math.inf, m, m + np.log(sums))


@dataclass
class Game:
    """A game of prediction plus the grids its numeric predicates use.

    ``outcome_grid`` lists representative outcomes (all outcomes, for
    log-loss).  ``prediction_grid`` is a strictly increasing array of scalar
    parameters; for scalar games the parameter is the prediction itself,
    for binary log-loss it is the probability assigned to outcome 1.
    ``spec`` is the kind's :class:`GameSpec`; ``prediction_shape`` is ``()``
    for scalar predictions and ``(m,)`` for probability vectors.
    Instances are immutable by convention: no method changes what they
    describe.  The one exception is a cache, the prediction grid's
    canonical points, which ``grid_canonical_points`` fills on first use.
    """

    kind: GameKind
    outcome_grid: np.ndarray
    prediction_grid: Optional[np.ndarray]
    m: int = 0
    spec: GameSpec = field(default=None, init=False, repr=False, compare=False)
    prediction_shape: tuple = field(default=(), init=False, repr=False, compare=False)
    # fixed at construction: bounds, the fast-path ranges and the loss kernel;
    # ``_discrete`` spares the per-step validators a lookup (~0.1 us)
    _discrete: bool = field(default=False, init=False, repr=False, compare=False)
    _bounds: tuple = field(default=None, init=False, repr=False, compare=False)
    _outcome_range: tuple = field(default=None, init=False, repr=False, compare=False)
    _prediction_range: tuple = field(default=None, init=False, repr=False, compare=False)
    _kernel: object = field(default=None, init=False, repr=False, compare=False)
    # a cache, filled on first use: the prediction grid's canonical points
    _loss_matrix: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.spec = GAME_SPECS[self.kind]
        self.outcome_grid = np.asarray(self.outcome_grid, dtype=float)
        if self.prediction_grid is not None:
            self.prediction_grid = np.asarray(self.prediction_grid, dtype=float)
            if len(self.prediction_grid) < 2:
                raise ValueError("prediction_grid needs at least two points")
            if np.any(np.diff(self.prediction_grid) <= 0):
                raise ValueError("prediction_grid must be strictly increasing")
        if np.any(np.diff(self.outcome_grid) <= 0):
            raise ValueError("outcome_grid must be strictly increasing")
        # a finite outcome space takes probability-vector predictions
        self._discrete = self.spec.outcome_type is int
        self.prediction_shape = (self.m,) if self._discrete else ()
        self._bounds = self.spec.bounds(self.m)
        ob, pb = self._bounds
        if ob is not None:
            if self.outcome_grid[0] < ob[0] - 1e-12 or self.outcome_grid[-1] > ob[1] + 1e-12:
                raise ValueError("outcome_grid outside declared bounds")
        if pb is not None and self.prediction_grid is not None:
            if self.prediction_grid[0] < pb[0] - 1e-12 or self.prediction_grid[-1] > pb[1] + 1e-12:
                raise ValueError("prediction_grid outside declared bounds")
        # the largest finite float stands in for a missing bound, so the
        # fast paths' chained comparisons also reject +-inf and NaN
        whole_line = (-_FLOAT_MAX, _FLOAT_MAX)
        self._outcome_range = ob if ob is not None else whole_line
        self._prediction_range = pb if pb is not None else whole_line
        self._kernel = self.spec.kernel

    # -- domain ----------------------------------------------------------

    def bounds(self):
        """(outcome_bounds, prediction_bounds); None means unbounded."""
        return self._bounds

    def validate_outcome(self, omega) -> None:
        # fast path: an outcome of the type the bundled natures emit (int for
        # log-loss, float otherwise) inside the bounds; NaN fails the comparison
        lo, hi = self._outcome_range
        if self._discrete:
            if type(omega) is int and lo <= omega <= hi:
                return
            if not _finite(omega, "outcome") or omega != int(omega) \
                    or not 0 <= int(omega) < self.m:
                raise DomainError(f"outcome {omega!r} not in 0..{self.m - 1}")
            return
        if isinstance(omega, float) and lo <= omega <= hi:
            return
        if not _finite(omega, "outcome"):
            raise DomainError(f"outcome {omega!r} is not finite")
        ob, _ = self._bounds
        if ob is not None and not ob[0] <= omega <= ob[1]:
            raise DomainError(f"outcome {omega!r} outside {ob}")

    def validate_prediction(self, gamma) -> None:
        if self._discrete:
            if self.m == 2:
                try:
                    # the length first, as for m > 2; an array's entries as
                    # Python numbers in one call, where indexing makes numpy scalars
                    if gamma.__class__ is _NDARRAY:
                        g0, g1 = gamma.tolist()
                    elif len(gamma) == 2:
                        g0, g1 = gamma[0], gamma[1]
                    else:
                        raise IndexError
                    # ldexp(x, 0) is float(x) for a number, and refuses a
                    # string, which float() would read
                    p0, p1 = _ldexp(g0, 0), _ldexp(g1, 0)
                except (TypeError, IndexError, ValueError, OverflowError) as exc:
                    _refuse_text(gamma)
                    raise DomainError("prediction must be a length-2 vector") from exc
                # written so that NaN fails the comparisons
                if not (p0 >= 0.0 and p1 >= 0.0 and abs(p0 + p1 - 1.0) <= 1e-12):
                    raise DomainError("prediction must be a probability vector")
                return
            try:
                g = np.asarray(gamma, dtype=float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise DomainError(f"prediction must be a length-{self.m} vector") from exc
            if g.shape != (self.m,):
                raise DomainError(f"prediction must be a length-{self.m} vector")
            if g is not gamma:  # not already a float array: it may have read strings
                _refuse_text(gamma)
            if not (np.all(g >= 0) and abs(float(g.sum()) - 1.0) <= 1e-12):
                raise DomainError("prediction must be a probability vector")
            return
        lo, hi = self._prediction_range
        if isinstance(gamma, float) and lo <= gamma <= hi:
            return
        if not _finite(gamma, "prediction"):
            raise DomainError(f"prediction {gamma!r} is not finite")
        _, pb = self._bounds
        if pb is not None and not pb[0] <= gamma <= pb[1]:
            raise DomainError(f"prediction {gamma!r} outside {pb}")

    def accepts_outcomes(self, omegas: np.ndarray) -> bool:
        """Whether :meth:`validate_outcome` accepts every outcome of a float
        column: in the bounds, and integral on a finite outcome space (the
        natures hand such a value to the validator as an int)."""
        lo, hi = self._outcome_range
        ok = (omegas >= lo) & (omegas <= hi)
        if self._discrete:
            ok &= omegas == np.floor(omegas)
        return omegas.ndim == 1 and bool(ok.all())

    def accepts_predictions(self, gammas: np.ndarray) -> bool:
        """Whether every row of a float column of predictions passes
        :meth:`validate_prediction`'s fast path, the same comparisons in the
        same arithmetic; NaN fails them."""
        if gammas.shape[1:] != self.prediction_shape or gammas.ndim != 1 + self._discrete:
            return False
        if not self._discrete:
            lo, hi = self._prediction_range
            return bool(((gammas >= lo) & (gammas <= hi)).all())
        total = gammas[:, 0] + gammas[:, 1] if self.m == 2 else gammas.sum(axis=1)
        return bool(((gammas >= 0.0).all(axis=1) & (np.abs(total - 1.0) <= 1e-12)).all())

    # -- loss ------------------------------------------------------------

    def loss(self, omega, gamma: Prediction) -> float:
        """Loss of prediction ``gamma`` on outcome ``omega`` (may be +inf).

        Validates both moves first; see :meth:`loss_fn` for the unvalidated
        kernel.
        """
        self.validate_outcome(omega)
        self.validate_prediction(gamma)
        return self._kernel(omega, gamma)

    def canonical_point(self, gamma: Prediction) -> np.ndarray:
        """Loss profile of ``gamma`` over the outcome grid."""
        self.validate_prediction(gamma)
        return self.spec.losses(self.outcome_grid, gamma)

    def profiles(self, predictions) -> np.ndarray:
        """Unvalidated loss profiles of K predictions (one per row), shape (K, O)."""
        preds = np.asarray(predictions, dtype=float)
        return self.spec.losses(self.outcome_grid, preds.reshape(len(preds), -1))

    def prediction_from_param(self, u: float) -> Prediction:
        """Map a prediction-grid parameter, clamped to the bounds, to a
        prediction; NaN stays NaN, for the engine to refuse."""
        pb = self._bounds[1]
        if pb is not None and not math.isnan(u):
            u = min(pb[1], max(pb[0], u))
        return self.spec.from_param(u)

    def prediction_column(self, u: np.ndarray) -> np.ndarray:
        """:meth:`prediction_from_param` over a column of parameters, bit for
        bit: Python's ``max`` and ``min`` keep the bound on a tie (``0.0``
        over ``-0.0``), and NaN stays NaN."""
        pb = self._bounds[1]
        if pb is not None:
            lo, hi = pb
            clamped = np.where(u > lo, u, lo)
            u = np.where(np.isnan(u), u, np.where(clamped < hi, clamped, hi))
        return np.ascontiguousarray(self.spec.from_param(u).T) if self._discrete else u

    def losses_for_params(self, params: np.ndarray) -> np.ndarray:
        """Loss profiles (len(params), O): a view of the outcome-major ``param_losses``."""
        return self.spec.param_losses(self, np.asarray(params, dtype=float)).T

    def grid_canonical_points(self) -> np.ndarray:
        """(P, O) grid canonical points: a view of the cached outcome-major matrix."""
        if self.prediction_grid is None:
            raise ValueError(f"{self.kind.value} game has no prediction grid")
        if self._loss_matrix is None:
            self._loss_matrix = self.spec.param_losses(self, self.prediction_grid)
        return self._loss_matrix.T

    def loss_fn(self):
        """The unvalidated loss kernel ``(omega, gamma) -> loss``, for hot loops.

        Validate-once contract: inside a protocol run the engine validates
        every announced move exactly once, as it is announced, so strategies
        score those moves with this kernel rather than with :meth:`loss`.
        Anything else must be validated by the caller.  The kernel is the
        arithmetic :meth:`loss` uses, so the two agree bit for bit; for
        scalar games it also broadcasts over numpy arrays.
        """
        return self._kernel

    # -- serialization ---------------------------------------------------

    def descriptor(self) -> dict:
        ob, _ = self.bounds()
        return {
            "kind": self.kind.value,
            "bounds": list(ob) if ob is not None else None,
            "grid_size": len(self.prediction_grid) if self.prediction_grid is not None else None,
            "m": self.m,
        }


# ---------------------------------------------------------------------------
# constructors

def _grids(bounds, outcome_size, prediction_size, outcome_grid):
    lo, hi = bounds
    og = np.asarray(outcome_grid, float) if outcome_grid is not None \
        else np.linspace(lo, hi, outcome_size)
    pg = np.linspace(lo, hi, prediction_size)
    return og, pg


def absolute_loss_game(grid_size: int = DEFAULT_GRID_SIZE, outcome_grid=None) -> Game:
    """Absolute loss over the reals; grids default to [0, 1] for predicates."""
    og, pg = _grids((0.0, 1.0), grid_size, grid_size, outcome_grid)
    return Game(GameKind.ABSOLUTE, og, pg)


def square_loss_game(grid_size: int = DEFAULT_GRID_SIZE, outcome_grid=None) -> Game:
    """Square loss over the reals; grids default to [0, 1] for predicates."""
    og, pg = _grids((0.0, 1.0), grid_size, grid_size, outcome_grid)
    return Game(GameKind.SQUARE, og, pg)


def bounded_square_loss_game(grid_size: int = DEFAULT_GRID_SIZE, outcome_grid=None) -> Game:
    og, pg = _grids((0.0, 1.0), grid_size, grid_size, outcome_grid)
    return Game(GameKind.BOUNDED_SQUARE, og, pg)


def bounded_absolute_loss_game(grid_size: int = DEFAULT_GRID_SIZE, outcome_grid=None) -> Game:
    og, pg = _grids((0.0, 1.0), grid_size, grid_size, outcome_grid)
    return Game(GameKind.BOUNDED_ABSOLUTE, og, pg)


def quartic_loss_game(outcome_grid_size: int = 1025,
                      prediction_grid_size: int = DEFAULT_GRID_SIZE) -> Game:
    og = np.linspace(-1.0, 1.0, outcome_grid_size)
    pg = np.linspace(-1.0, 1.0, prediction_grid_size)
    return Game(GameKind.QUARTIC, og, pg)


def log_loss_game(m: int = 2, grid_size: int = DEFAULT_GRID_SIZE) -> Game:
    """Log-loss over a finite outcome space with counting measure.

    Geometric predicates require m == 2, where predictions are parametrized
    by the probability of outcome 1; loss and canonical points work for
    any m.
    """
    if m < 2:
        raise ValueError("log-loss game needs at least two outcomes")
    og = np.arange(m, dtype=float)
    pg = np.linspace(0.0, 1.0, grid_size) if m == 2 else None
    return Game(GameKind.LOG_LOSS, og, pg, m=m)


def _descriptor_int(desc: dict, key: str, default: int) -> int:
    # only a missing (or null) value takes the default; 2.7 or "3" is refused
    value = desc.get(key)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def game_from_descriptor(desc: dict) -> Game:
    """Rebuild a game from its JSON descriptor {kind, bounds, grid_size, m}."""
    kind = GameKind(desc["kind"])
    grid_size = _descriptor_int(desc, "grid_size", DEFAULT_GRID_SIZE)
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    return GAME_SPECS[kind].make(grid_size, _descriptor_int(desc, "m", 2))


# ---------------------------------------------------------------------------
# closed forms

def _scale(alpha: float) -> float:
    return 4.0 / (1.0 - alpha * alpha)


def alpha_weights(alpha: float) -> tuple:
    """(w1, w2) = ((1 - alpha) / 2, (1 + alpha) / 2), for alpha strictly inside (-1, 1)."""
    if not -1.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (-1, 1), got {alpha}")
    return (1.0 - alpha) / 2.0, (1.0 + alpha) / 2.0


def _log_affinity(gamma1, gamma2, alpha: float) -> float:
    w1, w2 = alpha_weights(alpha)
    return float(np.sum(np.asarray(gamma1, dtype=float) ** w1
                        * np.asarray(gamma2, dtype=float) ** w2))


def alpha_divergence_square_loss(gamma1: float, gamma2: float, alpha: float) -> float:
    """Square-loss divergence: ``(gamma1 - gamma2)^2``, independent of alpha."""
    return float(_square_divergence(None, alpha)([gamma1], [gamma2])[0])


def alpha_divergence_log_loss(gamma1, gamma2, alpha: float) -> float:
    """Log-loss divergence: scaled negative log-affinity of the two vectors.

    The arithmetic is the table's closed form, so the value equals a log-loss
    trace's divergence term bit for bit.
    """
    return float(_log_divergence(None, alpha)([gamma1], [gamma2])[0])


def _square_divergence(game, alpha):
    if not -1.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [-1, 1], got {alpha}")

    def div(g1, g2):
        # moves far apart have a divergence past the float range: +inf
        with np.errstate(over="ignore"):
            return np.square(np.asarray(g1, dtype=float) - np.asarray(g2, dtype=float))
    return div


def _every(flags: np.ndarray) -> bool:
    # flags.all(), several times quicker on the one row a per-step move passes
    return np.count_nonzero(flags) == flags.size


def _first_row(moves: np.ndarray):
    # a column form's one row as a per-step move: a Python float for a scalar
    # kind, as the bundled players move, and a vector otherwise
    return moves[0] if moves.ndim > 1 else float(moves[0])


def _square_level2(game, w1, w2):
    # the weighted mean prediction: its profile is the weighted mean of the
    # profiles shifted down by w1 w2 (g1 - g2)^2, the divergence's shift
    return lambda g1, g2: w1 * g1 + w2 * g2


def _log_gap(g1, g2):
    # sqrt of the zero-order divergence: squares sum to the series; each
    # row's affinity is summed over outcomes as np.sum sums one vector, and
    # a row of affinity 0 (disjoint supports) has an infinite gap
    affinity = np.sum(np.sqrt(g1 * g2), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        series = -4.0 * np.log(affinity)
    return np.where(affinity > 0.0, np.sqrt(np.where(series > 0.0, series, 0.0)), np.inf)


def _log_divergence(game, alpha: float):
    # scaled negative log-affinity over the outcomes; the powers take a
    # scalar exponent, as the level-2 move takes them
    w1, w2 = alpha_weights(alpha)
    scale = -4.0 / (1.0 - alpha * alpha)

    def div(g1, g2):
        affinity = np.sum(np.power(np.asarray(g1, dtype=float), w1)
                          * np.power(np.asarray(g2, dtype=float), w2), axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(affinity > 0.0, scale * np.log(affinity), np.inf)
    return div


def _log_level2_column(game, w1, w2):
    # the normalized geometric mixture: its profile is the weighted mean of
    # the profiles shifted down by minus the log-affinity.  The powers take
    # a scalar exponent, as the divergence's do (numpy takes a scalar
    # exponent of 0.5 as a square root); the total is a + b for two
    # outcomes, and None where a row's supports are disjoint
    def moves(g1, g2):
        raw = np.power(g1, w1) * np.power(g2, w2)
        total = raw[:, 0] + raw[:, 1] if game.m == 2 else raw.sum(axis=1)
        return raw / total[:, None] if _every(total > 0.0) else None
    return moves


# a pool move's largest excess over the mixture loss at any outcome
DOMINATION_TOL = 1e-9


def _square_move(g0, g1):
    # bounded square on [0, 1]: the move whose excesses over g at the two
    # ends are equal, (1 - gamma)^2 - gamma^2 = g1 - g0
    return 0.5 * (1.0 + g0 - g1)


def _quartic_move(g0, g1):
    # quartic on [-1, 1]: (1 + gamma)^4 - (1 - gamma)^4 = 8 gamma^3 + 8 gamma
    # = g0 - g1, whose one real root is (2 / sqrt 3) sinh(asinh((3 sqrt 3 / 16)
    # (g0 - g1)) / 3)
    return 1.1547005383792517 * np.sinh(np.arcsinh(0.3247595264191645 * (g0 - g1)) / 3.0)


def _endpoint_mix(kernel, bounds, move):
    """``mix_column`` of a bounded scalar kind, whose binding constraint
    sits at the ends of the outcome interval ``bounds`` (Haussler, Kivinen &
    Warmuth, IEEE Trans. IT 1998): ``move`` of the mixture loss g at the two
    ends, clamped to the interval, and None unless its excesses over g there
    are within ``DOMINATION_TOL``.  Checked at the ends, it dominates in
    between: on bounded square because ``(omega - gamma)^2 - g(omega)`` is
    convex for eta <= 2 mixtures; on quartic as an empirical claim, held by
    a seeded property test over random mixtures and a dense adversary.  One
    form serves both paths: the pool's per-step move is its one-row case.
    An expert whose move is NaN drops out of g."""
    lo, hi = bounds
    ends = np.array(bounds)[:, None]

    def mix_column(preds, eta):
        # over (B, K) rows of log-weights, for the same (K,) predictions
        # every step or (B, K) of their own per step: each step's two end
        # rows, the experts' eta-scaled losses at the ends, log-sum-exped as
        # _lse_rows takes them, give g at the ends, (B, 2); None unless every
        # row's excesses over g at both ends are within DOMINATION_TOL
        scaled = eta * kernel(ends, preds[..., None, :])

        def moves(log_w):
            exponents = np.fmax(log_w[:, None, :] - scaled, -math.inf)
            g = (-_lse_rows(exponents.reshape(-1, preds.shape[-1])) / eta).reshape(-1, 2)
            # g is +inf at both ends where every weighted expert's move is
            # NaN: the move is NaN, which the clamp takes to lo
            with np.errstate(invalid="ignore"):
                v = move(g[:, 0], g[:, 1])
            gamma = np.fmin(np.fmax(v, lo), hi)
            excess = kernel(ends.T, gamma[:, None]) - g  # (B, 2): at lo, at hi
            return gamma if _every(excess <= DOMINATION_TOL) else None
        return moves
    return mix_column


def _log_mix_column(preds, eta):
    # at eta = 1, exp(-g) of the mixture loss g is the weighted mean of the
    # probability vectors; an expert whose move is NaN drops out of it, as
    # out of the mixture loss.  Over (B, K) rows of log-weights, for the same
    # (K, m) predictions every step or (B, K, m) of their own per step: one
    # (1, K) @ (K, m) product per row, so a row's move does not depend on the
    # others (a single (B, K) @ (K, m) product differs in the last bit).
    # Normalized weights give the mixture a mass of at most one, so
    # renormalizing only raises it; None where a row's mass is not in
    # (0, 1 + DOMINATION_TOL]
    if eta != 1.0:
        return None
    preds = np.where(np.isnan(preds), 0.0, preds)

    def moves(log_w):
        raw = np.matmul(np.exp(log_w)[:, None, :], preds)[:, 0]
        total = raw.sum(axis=1)
        ok = (total > 0.0) & (total <= 1.0 + DOMINATION_TOL)
        return raw / total[:, None] if _every(ok) else None
    return moves


# the outcomes where lambda(gamma) - (w1 lambda(g1) + w2 lambda(g2)), a
# function of omega on [lo, hi], attains its max and its min

def _end_candidates(lo, hi, g1, g2, w1, w2):
    # square family: the omega^2 terms cancel, as w1 + w2 = 1, so the
    # difference is linear in omega
    ends = np.array([lo, hi])
    return lambda params: ends.reshape((2,) + (1,) * params.ndim)


def _kink_candidates(lo, hi, g1, g2, w1, w2):
    # absolute family: the mean is 1-Lipschitz, so lambda(gamma) - mean is
    # nonincreasing left of gamma's kink and nondecreasing right of it.  Its
    # max sits at an end, and the max of mean - lambda(gamma) at the kink
    def candidates(params):
        out = np.empty((3,) + params.shape)
        out[0], out[1], out[2] = lo, hi, params
        return np.fmin(hi, np.fmax(lo, out))
    return candidates


def _quartic_candidates(lo, hi, g1, g2, w1, w2):
    # quartic: the omega^4 terms cancel, so the difference is a cubic in
    # omega, stationary at the roots of a omega^2 + b omega + c with
    # a = -3 (gamma - m1), b = 3 (gamma^2 - m2), c = -(gamma^3 - m3), where
    # mk = w1 g1^k + w2 g2^k.  The roots are q / a and c / q with
    # q = -(b + sign(b) sqrt(b^2 - 4 a c)) / 2, free of cancellation.  Any
    # outcome of the interval may join the candidates, as the max over them
    # stays a max over outcomes: a negative discriminant is taken as 0, which
    # gives the vertex -b / 2a, an infinite root (a = 0) is clipped to an
    # end, and a NaN one (0 / 0) taken to lo
    m1 = w1 * g1 + w2 * g2
    m2 = w1 * g1 * g1 + w2 * g2 * g2
    m3 = w1 * g1 * g1 * g1 + w2 * g2 * g2 * g2

    def candidates(params):
        p2 = params * params
        a, b, c = -3.0 * (params - m1), 3.0 * (p2 - m2), m3 - p2 * params
        q = -0.5 * (b + np.copysign(np.sqrt(np.fmax(b * b - 4.0 * a * c, 0.0)), b))
        out = np.empty((4,) + params.shape)
        out[0], out[1] = lo, hi
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(q, a, out=out[2])
            np.divide(c, q, out=out[3])
        return np.fmin(hi, np.fmax(lo, out))
    return candidates


def _scalar_spec(kernel, bounds, make, eta_star, **closed_forms) -> GameSpec:
    # a scalar kind's prediction is its own grid parameter; make: grid_size -> Game
    return GameSpec(
        kernel=kernel, losses=kernel,
        loss_column=kernel,
        param_losses=lambda game, params: kernel(
            game.outcome_grid.reshape((-1,) + (1,) * params.ndim), params),
        bounds=lambda m: bounds, outcome_type=float, from_param=float,
        make=lambda grid_size, m: make(grid_size),
        trace_gap=lambda g1, g2: np.abs(g1 - g2), eta_star=eta_star,
        **closed_forms)


# eta* on an outcome interval of width w: the curvature ratio of the loss
# curve at the outcome endpoints, minimized over predictions
def _absolute_eta_star(w):
    return 0.0


def _square_eta_star(w):
    return 2.0 / (w * w)


def _quartic_eta_star(w):
    return 9.0 / (w * w * w * w)


_UNIT = (0.0, 1.0)

GAME_SPECS = {
    GameKind.ABSOLUTE: _scalar_spec(
        _absolute_kernel, (None, None), absolute_loss_game, _absolute_eta_star,
        candidates=_kink_candidates),
    GameKind.SQUARE: _scalar_spec(
        _square_kernel, (None, None), square_loss_game, _square_eta_star,
        divergence=_square_divergence, level2_column=_square_level2,
        candidates=_end_candidates),
    GameKind.BOUNDED_SQUARE: _scalar_spec(
        _square_kernel, (_UNIT, _UNIT), bounded_square_loss_game, _square_eta_star,
        divergence=_square_divergence, level2_column=_square_level2,
        candidates=_end_candidates, mix_column=_endpoint_mix(_square_kernel, _UNIT, _square_move)),
    GameKind.BOUNDED_ABSOLUTE: _scalar_spec(
        _absolute_kernel, (_UNIT, _UNIT), bounded_absolute_loss_game, _absolute_eta_star,
        candidates=_kink_candidates),
    GameKind.QUARTIC: _scalar_spec(
        _quartic_kernel, ((-1.0, 1.0), (-1.0, 1.0)),
        lambda grid_size: quartic_loss_game(prediction_grid_size=grid_size),
        _quartic_eta_star, candidates=_quartic_candidates,
        mix_column=_endpoint_mix(_quartic_kernel, (-1.0, 1.0), _quartic_move)),
    GameKind.LOG_LOSS: GameSpec(
        kernel=_log_kernel, losses=_log_losses, loss_column=_log_loss_column,
        param_losses=_binary_log_param_losses,
        bounds=lambda m: ((0.0, float(m - 1)), _UNIT), outcome_type=int,
        from_param=lambda u: np.array([1.0 - u, u]),
        make=lambda grid_size, m: log_loss_game(m=m, grid_size=grid_size),
        trace_gap=_log_gap, eta_star=lambda w: 1.0, level2_column=_log_level2_column,
        divergence=_log_divergence, mix_column=_log_mix_column),
}


# ---------------------------------------------------------------------------
# membership predicates

def _excess(profiles: np.ndarray, points, sub: bool) -> np.ndarray:
    """Uniform excess of ``profiles`` over ``points`` (of ``points`` over
    ``profiles`` when ``sub``): the max over the leading outcome axis.

    On extended reals a +inf on the dominating side satisfies the
    constraint whatever the other side is, so it contributes -inf.
    """
    a, b = (points, profiles) if sub else (profiles, points)
    with np.errstate(invalid="ignore"):
        diff = a - b
    binf = b == np.inf
    if binf.any():
        diff = np.where(binf, -np.inf, diff)
    return diff.max(axis=0)


def _profile_excess(game: Game, point: np.ndarray, sub: bool):
    """params -> the uniform excess of each parameter's canonical point over
    the target ``point`` (of ``point`` over it when ``sub``) on the outcome grid."""
    return lambda params: _excess(game.spec.param_losses(game, params),
                                  point.reshape(point.shape + (1,) * params.ndim), sub)


def _min_gap(game: Game, excess, u: np.ndarray, v: np.ndarray, tol: float):
    """Refine R gap minimizations in lockstep; returns the refined (u, v).

    Row r starts at parameter ``u[r]`` with gap ``v[r]``; ``excess`` maps
    the (R, ``_REFINE_POINTS``) parameters of a round to their gaps, row r
    against its own target.  Each round evaluates ``_REFINE_POINTS``
    parameters spanning one spacing either side of the row's best, in a
    window shrunk at the grid's ends, and keeps any improvement.  A row
    stops once its spacing drops below ``tol * 1e-3`` (floored at 1e-13).
    """
    grid = game.prediction_grid
    lo, hi = float(grid[0]), float(grid[-1])
    resolution = max(tol * 1e-3, 1e-13)
    h = np.full(len(u), (hi - lo) / (len(grid) - 1))
    steps = np.arange(_REFINE_POINTS, dtype=float)
    rows = np.arange(len(u))
    for _ in range(_MAX_REFINE_ROUNDS):
        # rows that have stopped are evaluated but never updated
        live = h > resolution
        if not live.any():
            break
        a = np.maximum(lo, u - h)
        b = np.minimum(hi, u + h)
        step = (b - a) / (_REFINE_POINTS - 1)
        h = np.where(live, step, h)
        # np.linspace(a, b, _REFINE_POINTS) per row, bit for bit
        local = steps * step[:, None] + a[:, None]
        local[:, -1] = b
        vals = excess(local)
        k = np.argmin(vals, axis=1)
        best = vals[rows, k]
        better = live & (best < v)
        u = np.where(better, local[rows, k], u)
        v = np.where(better, best, v)
    return u, v


def _gap_search(game: Game, excess, coarse: np.ndarray, tol: float):
    """(param, gap): the ``_REFINE_STARTS`` best of ``coarse``, the gaps
    ``excess`` gives on the prediction grid, refined by :func:`_min_gap` as
    rows of one target.  Several starts keep the minimum accurate where the
    gap has several local minima (piecewise-linear losses).
    """
    starts = np.argsort(coarse, kind="stable")[:_REFINE_STARTS]
    u, v = _min_gap(game, excess, game.prediction_grid[starts], coarse[starts], tol)
    best = int(np.argmin(v))
    return float(u[best]), float(v[best])


def _check_tol(tol: float) -> None:
    # the gap searches refine to tol * 1e-3: checked where each question
    # enters one, before any of its arrays is built
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def _grid_gap(game: Game, point, tol: float, sub: bool):
    # a target vector on the outcome grid; the coarse scan reads the cached
    # canonical points of the prediction grid
    _check_tol(tol)
    point = np.asarray(point, dtype=float)
    if point.shape != game.outcome_grid.shape:
        raise ValueError(f"point must have the outcome grid's shape {game.outcome_grid.shape}, "
                         f"got {point.shape}")
    coarse = _excess(game.grid_canonical_points().T, point[:, None], sub)
    return _gap_search(game, _profile_excess(game, point, sub), coarse, tol)


def superprediction_gap(game: Game, point, tol: float = DEFAULT_MEMBERSHIP_TOL):
    """(param, gap): smallest uniform excess of any canonical point over ``point``.

    ``gap <= 0`` means some canonical point is dominated by ``point``, i.e.
    ``point`` is a superprediction: on the outcome grid, not the interval.
    """
    return _grid_gap(game, point, tol, sub=False)


def subprediction_gap(game: Game, point, tol: float = DEFAULT_MEMBERSHIP_TOL):
    """(param, gap) with gap <= 0 iff ``point`` lies below some canonical point:
    on the outcome grid, not the interval."""
    return _grid_gap(game, point, tol, sub=True)


def is_superprediction(game: Game, point, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
    """True iff ``point`` dominates some canonical point within ``tol``: a
    statement about the outcome grid, not the outcome interval."""
    return _grid_gap(game, point, tol, sub=False)[1] <= tol


def is_subprediction(game: Game, point, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
    """True iff ``point`` is dominated by some canonical point within ``tol``:
    a statement about the outcome grid, not the outcome interval."""
    return _grid_gap(game, point, tol, sub=True)[1] <= tol


def points_non_redundant(points: np.ndarray, tol: float = 1e-9) -> bool:
    """No row of ``points`` componentwise dominates a distinct other row."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    for a in range(n):
        with np.errstate(invalid="ignore"):
            leq = np.all(pts[a][None, :] <= pts + tol, axis=1)
            diff = pts - pts[a][None, :]
        # identical +inf coordinates count as equal, not strictly larger
        diff = np.where(np.isnan(diff), 0.0, diff)
        strictly_below = leq & np.any(diff > tol, axis=1)
        if np.any(strictly_below):
            return False
    return True


def check_non_redundant(game: Game, tol: float = 1e-9) -> bool:
    """No canonical point on the prediction grid dominates another."""
    return points_non_redundant(game.grid_canonical_points(), tol)


def check_perfectly_mixable(game: Game, eta: float) -> bool:
    """True iff the game is perfectly mixable at learning rate ``eta``.

    That is ``eta <= eta*``, where ``eta*`` is the table entry's constant
    on the span ``W`` of the outcome grid: ``2 / W^2`` for square loss,
    ``9 / W^4`` for quartic loss (9/16 on [-1, 1]), 0 for absolute loss,
    which is mixable at no ``eta``, and 1 for log loss over any number of
    outcomes.  For a binary game ``eta*`` is the infimum over predictions
    of the curvature ratio ``(l0' l1'' - l0'' l1') / (l0' l1' (l1' - l0'))``
    of the loss curve (Haussler, Kivinen & Warmuth, IEEE Trans. IT 1998;
    Vovk, Competitive on-line statistics, 2001); the scalar games take it
    on their outcome interval's endpoints, which carry the binding
    constraint for these loss shapes.  Log loss is mixable at 1 on every
    finite outcome space: the Bayes mixture is a prediction.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    width = float(game.outcome_grid[-1] - game.outcome_grid[0])
    # a game with one outcome is mixable at every eta
    return width == 0.0 or eta <= game.spec.eta_star(width)
