"""Games of prediction in canonical representation.

A game couples an outcome space, a prediction space, and a loss function.
Everything geometric in this package is phrased in terms of the game's
canonical points: the loss profile ``omega -> loss(omega, gamma)`` of each
prediction, restricted to a finite outcome grid.  Continuous outcome and
prediction spaces are represented by grids.  The membership queries and the
numeric divergences are one gap search: the smallest uniform excess of a
canonical point over a target point, scanned on the prediction grid and
refined in lockstep until the local spacing is well below the requested
tolerance, so its error is quantifiable.  Perfect mixability needs no
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
pool's substitution, and the mixability constant).  Other modules read a
game's entry, ``game.spec``, once, when they build a game, reset a strategy
or parse a command, and never per step.  A kind without a closed form
takes the numeric path (the gap search below), so adding a kind is one
entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

from .errors import DivergenceOverestimate, DomainError, MixabilityViolation

Prediction = Union[float, np.ndarray]

DEFAULT_GRID_SIZE = 257
DEFAULT_MEMBERSHIP_TOL = 1e-9
_MAX_REFINE_ROUNDS = 16
_REFINE_POINTS = 21
_REFINE_STARTS = 3
_FLOAT_MAX = float(np.finfo(float).max)


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
    the per-step function.  Column forms (``loss_column``, ``trace_gap``,
    the function ``divergence`` returns) take a run's move columns, one row
    per step, and return float64 arrays, bit for bit the per-move
    arithmetic.  A kind with a ``level2`` move has its
    ``divergence`` too: the move's profile is the weighted mean shifted down
    by exactly that.  ``mix``, prepared once for the experts' predictions,
    and ``substitute`` give None where their closed form does not dominate
    within ``tol``; the gap search takes over.
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
    level2: Optional[Callable] = None       # (game, w1, w2) -> (g1, g2) -> level-2 move
    mix: Optional[Callable] = None          # (preds, eta, tol) -> (log_w -> pool move)
    substitute: Optional[Callable] = None   # (game, g, tol) -> move dominated by g


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
    return -math.log(p) if p > 0.0 else math.inf


def _log_loss_column(omega, gamma):
    # the probability each row's prediction gave its outcome, logged by libm as the kernel does
    p = gamma[np.arange(len(gamma)), np.asarray(omega, dtype=np.intp)]
    return np.array([-math.log(x) if x > 0.0 else math.inf for x in p.tolist()])


def _log_losses(omega, gamma):
    # broadcasting log loss over the probabilities' last axis; a probability of 0 loses +inf
    p = np.asarray(gamma, dtype=float)[..., np.asarray(omega, dtype=np.intp)]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0.0, -np.log(p), np.inf)


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
    return float(m) + math.log(float(np.exp(x - m).sum()))


def _lse_rows(x: np.ndarray) -> list:
    # _lse1 of each row, bit for bit, in one reduction per stage; where a
    # row is all -inf, every row takes _lse1's path
    m = x.max(axis=1, keepdims=True)
    tops = m[:, 0].tolist()
    if -math.inf in tops:
        return [_lse1(row) for row in x]
    return [a + math.log(b) for a, b in zip(tops, np.exp(x - m).sum(axis=1).tolist())]


@dataclass
class Game:
    """A game of prediction plus the grids its numeric predicates use.

    ``outcome_grid`` lists representative outcomes (all outcomes, for
    log-loss).  ``prediction_grid`` is a strictly increasing array of scalar
    parameters; for scalar games the parameter is the prediction itself,
    for binary log-loss it is the probability assigned to outcome 1.
    ``spec`` is the kind's :class:`GameSpec`; ``prediction_shape`` is ``()``
    for scalar predictions and ``(m,)`` for probability vectors.
    Instances are immutable by convention: no method mutates them, so they
    are safe to share across threads.
    """

    kind: GameKind
    outcome_grid: np.ndarray
    prediction_grid: Optional[np.ndarray]
    m: int = 0
    _loss_matrix: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    spec: GameSpec = field(default=None, init=False, repr=False, compare=False)
    prediction_shape: tuple = field(default=(), init=False, repr=False, compare=False)
    # fixed at construction: bounds, the fast-path ranges and the loss kernel;
    # ``_discrete`` spares the per-step validators a lookup (~0.1 us)
    _discrete: bool = field(default=False, init=False, repr=False, compare=False)
    _bounds: tuple = field(default=None, init=False, repr=False, compare=False)
    _outcome_range: tuple = field(default=None, init=False, repr=False, compare=False)
    _prediction_range: tuple = field(default=None, init=False, repr=False, compare=False)
    _kernel: object = field(default=None, init=False, repr=False, compare=False)

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
                    p0, p1 = float(gamma[0]), float(gamma[1])
                except (TypeError, IndexError, ValueError, OverflowError) as exc:
                    raise DomainError("prediction must be a length-2 vector") from exc
                # written so that NaN fails the comparisons
                if len(gamma) != 2 or not (p0 >= 0.0 and p1 >= 0.0
                                           and abs(p0 + p1 - 1.0) <= 1e-12):
                    raise DomainError("prediction must be a probability vector")
                return
            try:
                g = np.asarray(gamma, dtype=float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise DomainError(f"prediction must be a length-{self.m} vector") from exc
            if g.shape != (self.m,):
                raise DomainError(f"prediction must be a length-{self.m} vector")
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


def _square_level2(game, w1, w2):
    # the weighted mean prediction: its profile is the weighted mean of the
    # profiles shifted down by w1 w2 (g1 - g2)^2, the divergence's shift
    return lambda g1, g2: w1 * g1 + w2 * g2


def _log_gap(g1, g2):
    # sqrt of the zero-order divergence: squares sum to the series; each
    # row's affinity is summed over outcomes as np.sum sums one vector
    affinity = np.sum(np.sqrt(g1 * g2), axis=1)
    return np.array([math.sqrt(max(0.0, -4.0 * math.log(a))) if a > 0.0 else math.inf
                     for a in affinity.tolist()])


def _power(g, w: float) -> np.ndarray:
    # two outcomes take libm's pow over floats, as the level-2 move does; more take numpy's
    g = np.asarray(g, dtype=float)
    if g.shape[1] != 2:
        return g ** w
    return np.array([x ** w for x in g.ravel().tolist()]).reshape(g.shape)


def _log_divergence(game, alpha: float):
    # scaled negative log-affinity over the outcomes
    w1, w2 = alpha_weights(alpha)
    scale = -4.0 / (1.0 - alpha * alpha)

    def div(g1, g2):
        affinity = np.sum(_power(g1, w1) * _power(g2, w2), axis=1)
        return np.array([scale * math.log(a) if a > 0.0 else math.inf
                         for a in affinity.tolist()])
    return div


def _log_level2(game, w1, w2):
    # the normalized geometric mixture: its profile is the weighted mean of
    # the profiles shifted down by minus the log-affinity
    if game.m == 2:
        def move2(g1, g2):
            a = float(g1[0]) ** w1 * float(g2[0]) ** w2
            b = float(g1[1]) ** w1 * float(g2[1]) ** w2
            total = a + b
            if total <= 0.0:
                raise DivergenceOverestimate(
                    "predictions have disjoint support; divergence is infinite")
            return np.array((a / total, b / total))
        return move2

    def move(g1, g2):
        raw = np.asarray(g1, dtype=float) ** w1 * np.asarray(g2, dtype=float) ** w2
        total = float(raw.sum())
        if total <= 0.0:
            raise DivergenceOverestimate(
                "predictions have disjoint support; divergence is infinite")
        return raw / total
    return move


def _endpoint_move(g0: float, g1: float, tol: float, lo=0.0, hi=1.0):
    # bounded square: equalizes the excesses at outcomes 0 and 1; checked at
    # the ends lo, hi where g0, g1 were taken, it dominates in between
    # because (omega - gamma)^2 - g(omega) is convex for eta <= 2 mixtures
    gamma = min(1.0, max(0.0, 0.5 * (1.0 + g0 - g1)))
    return gamma if max((lo - gamma) ** 2 - g0, (hi - gamma) ** 2 - g1) <= tol else None


_UNIT_ENDS = np.array([[0.0], [1.0]])


def _bounded_square_mix(preds, eta, tol):
    # the generalized prediction at the outcome interval's endpoints, from
    # the experts' eta-scaled losses there, one row per endpoint
    scaled = eta * _square_kernel(_UNIT_ENDS, preds)
    return lambda log_w: _endpoint_move(*[-g / eta for g in _lse_rows(log_w - scaled)], tol)


def _normalized_mixture(raw: np.ndarray, tol: float) -> np.ndarray:
    # log loss: raw = exp(-g) is the mixture of probability vectors; for
    # eta <= 1 its mass is at most one, so renormalizing only raises it
    total = float(raw.sum())
    if total <= 0.0:
        raise MixabilityViolation("generalized prediction is infinite everywhere")
    if total > 1.0 + tol:
        raise MixabilityViolation(
            f"substitution excess {math.log(total):.3g} exceeds tolerance")
    return raw / total


def _log_mix(preds, eta, tol):
    # at eta = 1 the mixture is the weighted mean of the probability vectors
    return (lambda log_w: _normalized_mixture(np.exp(log_w) @ preds, tol)) if eta == 1.0 else None


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
        _absolute_kernel, (None, None), absolute_loss_game, _absolute_eta_star),
    GameKind.SQUARE: _scalar_spec(
        _square_kernel, (None, None), square_loss_game, _square_eta_star,
        divergence=_square_divergence, level2=_square_level2),
    GameKind.BOUNDED_SQUARE: _scalar_spec(
        _square_kernel, (_UNIT, _UNIT), bounded_square_loss_game, _square_eta_star,
        divergence=_square_divergence, level2=_square_level2, mix=_bounded_square_mix,
        substitute=lambda game, g, tol: _endpoint_move(
            float(g[0]), float(g[-1]), tol, *game.outcome_grid[[0, -1]])),
    GameKind.BOUNDED_ABSOLUTE: _scalar_spec(
        _absolute_kernel, (_UNIT, _UNIT), bounded_absolute_loss_game, _absolute_eta_star),
    GameKind.QUARTIC: _scalar_spec(
        _quartic_kernel, ((-1.0, 1.0), (-1.0, 1.0)),
        lambda grid_size: quartic_loss_game(prediction_grid_size=grid_size),
        _quartic_eta_star),
    GameKind.LOG_LOSS: GameSpec(
        kernel=_log_kernel, losses=_log_losses, loss_column=_log_loss_column,
        param_losses=_binary_log_param_losses,
        bounds=lambda m: ((0.0, float(m - 1)), _UNIT), outcome_type=int,
        from_param=lambda u: np.array([1.0 - u, u]),
        make=lambda grid_size, m: log_loss_game(m=m, grid_size=grid_size),
        trace_gap=_log_gap, eta_star=lambda w: 1.0, level2=_log_level2,
        divergence=_log_divergence,
        mix=_log_mix, substitute=lambda game, g, tol: _normalized_mixture(np.exp(-g), tol)),
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
    if np.any(binf):
        diff = np.where(binf, -np.inf, diff)
    return diff.max(axis=0)


def _min_gap(game: Game, points: np.ndarray, u: np.ndarray, v: np.ndarray,
             tol: float, sub: bool):
    """Refine R gap minimizations in lockstep; returns the refined (u, v).

    Row r starts at parameter ``u[r]`` with gap ``v[r]`` against the target
    ``points[:, r]``; ``points`` is (O, R), or (O, 1) for one target shared
    by all rows.  Each round evaluates ``_REFINE_POINTS`` parameters
    spanning one spacing either side of the row's best, in a window shrunk
    at the grid's ends, and keeps any improvement.  A row stops once its
    spacing drops below ``tol * 1e-3`` (floored at 1e-13).
    """
    grid = game.prediction_grid
    lo, hi = float(grid[0]), float(grid[-1])
    resolution = max(tol * 1e-3, 1e-13)
    h = np.full(len(u), (hi - lo) / (len(grid) - 1))
    steps = np.arange(_REFINE_POINTS, dtype=float)
    rows = np.arange(len(u))
    points = points[:, :, None]
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
        vals = _excess(game.spec.param_losses(game, local), points, sub)
        k = np.argmin(vals, axis=1)
        best = vals[rows, k]
        better = live & (best < v)
        u = np.where(better, local[rows, k], u)
        v = np.where(better, best, v)
    return u, v


def _gap_search(game: Game, point, tol: float, sub: bool):
    """(param, gap): the grid's ``_REFINE_STARTS`` best candidates, refined
    as rows of one target.  Several starts keep the minimum accurate where
    the gap has several local minima (piecewise-linear losses).
    """
    if game.prediction_grid is None:
        raise ValueError("game has no scalar prediction parametrization")
    point = np.asarray(point, dtype=float)[:, None]
    vals = _excess(game.grid_canonical_points().T, point, sub)
    starts = np.argsort(vals, kind="stable")[:_REFINE_STARTS]
    u, v = _min_gap(game, point, game.prediction_grid[starts], vals[starts], tol, sub)
    best = int(np.argmin(v))
    return float(u[best]), float(v[best])


def superprediction_gap(game: Game, point, tol: float = DEFAULT_MEMBERSHIP_TOL):
    """(param, gap): smallest uniform excess of any canonical point over ``point``.

    ``gap <= 0`` means some canonical point is dominated by ``point``, i.e.
    ``point`` is a superprediction: on the outcome grid, not the interval.
    """
    return _gap_search(game, point, tol, sub=False)


def subprediction_gap(game: Game, point, tol: float = DEFAULT_MEMBERSHIP_TOL):
    """(param, gap) with gap <= 0 iff ``point`` lies below some canonical point:
    on the outcome grid, not the interval."""
    return _gap_search(game, point, tol, sub=True)


def _is_member(game: Game, point, tol: float, sub: bool) -> bool:
    if len(np.asarray(point)) != len(game.outcome_grid):
        raise ValueError("point dimension must match the outcome grid")
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _gap_search(game, point, tol, sub)[1] <= tol


def is_superprediction(game: Game, point, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
    """True iff ``point`` dominates some canonical point within ``tol``: a
    statement about the outcome grid, not the outcome interval."""
    return _is_member(game, point, tol, sub=False)


def is_subprediction(game: Game, point, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
    """True iff ``point`` is dominated by some canonical point within ``tol``:
    a statement about the outcome grid, not the outcome interval."""
    return _is_member(game, point, tol, sub=True)


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
