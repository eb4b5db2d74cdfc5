"""Games of prediction in canonical representation.

A game couples an outcome space, a prediction space, and a loss function.
Everything geometric in this package is phrased in terms of the game's
canonical points: the loss profile ``omega -> loss(omega, gamma)`` of each
prediction, restricted to a finite outcome grid.  Continuous outcome and
prediction spaces are represented by grids; the membership predicates
refine locally around the best candidate until the grid resolution is
well below the requested tolerance, so their error is quantifiable.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

import numpy as np

from .errors import DomainError

Prediction = Union[float, np.ndarray]

DEFAULT_GRID_SIZE = 257
DEFAULT_MEMBERSHIP_TOL = 1e-9
_MAX_REFINE_ROUNDS = 16
_REFINE_POINTS = 21
_REFINE_STARTS = 3
_MIXABILITY_FIRST_REFINED = 32
_BLOCK = 256


class GameKind(str, Enum):
    ABSOLUTE = "absolute"
    SQUARE = "square"
    BOUNDED_SQUARE = "bounded_square"
    BOUNDED_ABSOLUTE = "bounded_absolute"
    QUARTIC = "quartic"
    LOG_LOSS = "log_loss"


# Declared (hard) bounds; None means the whole real line.
_BOUNDS = {
    GameKind.ABSOLUTE: (None, None),
    GameKind.SQUARE: (None, None),
    GameKind.BOUNDED_SQUARE: ((0.0, 1.0), (0.0, 1.0)),
    GameKind.BOUNDED_ABSOLUTE: ((0.0, 1.0), (0.0, 1.0)),
    GameKind.QUARTIC: ((-1.0, 1.0), (-1.0, 1.0)),
}
_FLOAT_MAX = float(np.finfo(float).max)


# Loss kernels, unvalidated.  A scalar game's kernel serves Game.loss,
# loss_fn, canonical_point and losses_for_params alike, so they agree bit
# for bit, and broadcasts over numpy arrays; the log-loss kernel serves
# Game.loss and loss_fn.

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


_KERNELS = {
    GameKind.ABSOLUTE: _absolute_kernel,
    GameKind.SQUARE: _square_kernel,
    GameKind.BOUNDED_SQUARE: _square_kernel,
    GameKind.BOUNDED_ABSOLUTE: _absolute_kernel,
    GameKind.QUARTIC: _quartic_kernel,
    GameKind.LOG_LOSS: _log_kernel,
}


@dataclass
class Game:
    """A game of prediction plus the grids its numeric predicates use.

    ``outcome_grid`` lists representative outcomes (all outcomes, for
    log-loss).  ``prediction_grid`` is a strictly increasing array of scalar
    parameters; for scalar games the parameter is the prediction itself,
    for binary log-loss it is the probability assigned to outcome 1.
    Instances are immutable by convention: no method mutates them, so they
    are safe to share across threads.
    """

    kind: GameKind
    outcome_grid: np.ndarray
    prediction_grid: Optional[np.ndarray]
    m: int = 0
    _loss_matrix: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    # fixed at construction: bounds, the fast-path ranges and the loss kernel;
    # ``_log`` spares the per-step validators an enum lookup (~0.1 us)
    _log: bool = field(default=False, init=False, repr=False, compare=False)
    _bounds: tuple = field(default=None, init=False, repr=False, compare=False)
    _outcome_range: tuple = field(default=None, init=False, repr=False, compare=False)
    _prediction_range: tuple = field(default=None, init=False, repr=False, compare=False)
    _kernel: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.outcome_grid = np.asarray(self.outcome_grid, dtype=float)
        if self.prediction_grid is not None:
            self.prediction_grid = np.asarray(self.prediction_grid, dtype=float)
            if np.any(np.diff(self.prediction_grid) <= 0):
                raise ValueError("prediction_grid must be strictly increasing")
        if self.kind is not GameKind.LOG_LOSS and np.any(np.diff(self.outcome_grid) <= 0):
            raise ValueError("outcome_grid must be strictly increasing")
        self._log = self.kind is GameKind.LOG_LOSS
        if self._log:
            self._bounds = ((0.0, float(self.m - 1)), (0.0, 1.0))
        else:
            self._bounds = _BOUNDS[self.kind]
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
        self._kernel = _KERNELS[self.kind]

    # -- domain ----------------------------------------------------------

    def bounds(self):
        """(outcome_bounds, prediction_bounds); None means unbounded."""
        return self._bounds

    def validate_outcome(self, omega) -> None:
        # fast path: an outcome of the type the bundled natures emit (int for
        # log-loss, float otherwise) inside the bounds; NaN fails the comparison
        lo, hi = self._outcome_range
        if self._log:
            if type(omega) is int and lo <= omega <= hi:
                return
            if not math.isfinite(omega) or omega != int(omega) or not 0 <= int(omega) < self.m:
                raise DomainError(f"outcome {omega!r} not in 0..{self.m - 1}")
            return
        if isinstance(omega, float) and lo <= omega <= hi:
            return
        if not math.isfinite(omega):
            raise DomainError(f"outcome {omega!r} is not finite")
        ob, _ = self._bounds
        if ob is not None and not ob[0] <= omega <= ob[1]:
            raise DomainError(f"outcome {omega!r} outside {ob}")

    def validate_prediction(self, gamma) -> None:
        if self._log:
            if self.m == 2:
                try:
                    p0, p1 = float(gamma[0]), float(gamma[1])
                except (TypeError, IndexError, ValueError) as exc:
                    raise DomainError("prediction must be a length-2 vector") from exc
                # written so that NaN fails the comparisons
                if len(gamma) != 2 or not (p0 >= 0.0 and p1 >= 0.0
                                           and abs(p0 + p1 - 1.0) <= 1e-12):
                    raise DomainError("prediction must be a probability vector")
                return
            g = np.asarray(gamma, dtype=float)
            if g.shape != (self.m,):
                raise DomainError(f"prediction must be a length-{self.m} vector")
            if not (np.all(g >= 0) and abs(float(g.sum()) - 1.0) <= 1e-12):
                raise DomainError("prediction must be a probability vector")
            return
        lo, hi = self._prediction_range
        if isinstance(gamma, float) and lo <= gamma <= hi:
            return
        if not math.isfinite(gamma):
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
        if self.kind is GameKind.LOG_LOSS:
            gamma = np.asarray(gamma, dtype=float)
        return self._kernel(omega, gamma)

    def canonical_point(self, gamma: Prediction) -> np.ndarray:
        """Loss profile of ``gamma`` over the outcome grid."""
        self.validate_prediction(gamma)
        if self.kind is GameKind.LOG_LOSS:
            g = np.asarray(gamma, dtype=float)
            with np.errstate(divide="ignore"):
                return np.where(g > 0.0, -np.log(np.maximum(g, 1e-300)), np.inf)
        return self._kernel(self.outcome_grid, gamma)

    def prediction_from_param(self, u: float) -> Prediction:
        """Map a prediction-grid parameter to an actual prediction."""
        if self.kind is GameKind.LOG_LOSS:
            return np.array([1.0 - u, u])
        return float(u)

    def losses_for_params(self, params: np.ndarray) -> np.ndarray:
        """Loss profiles for an array of parameters, shape (len(params), O)."""
        params = np.asarray(params, dtype=float)
        if self.kind is GameKind.LOG_LOSS:
            with np.errstate(divide="ignore"):
                l1 = -np.log(params[:, None])
                l0 = -np.log(1.0 - params[:, None])
            return np.concatenate([l0, l1], axis=1)
        return self._kernel(self.outcome_grid[None, :], params[:, None])

    def grid_canonical_points(self) -> np.ndarray:
        """Cached (P, O) matrix of canonical points over the prediction grid."""
        if self.prediction_grid is None:
            raise ValueError(f"{self.kind.value} game has no prediction grid")
        if self._loss_matrix is None:
            self._loss_matrix = self.losses_for_params(self.prediction_grid)
        return self._loss_matrix

    def is_binary(self) -> bool:
        return len(self.outcome_grid) == 2

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
            "grid_size": len(self.prediction_grid) if self.prediction_grid is not None else 0,
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


_CONSTRUCTORS = {
    GameKind.ABSOLUTE: absolute_loss_game,
    GameKind.SQUARE: square_loss_game,
    GameKind.BOUNDED_SQUARE: bounded_square_loss_game,
    GameKind.BOUNDED_ABSOLUTE: bounded_absolute_loss_game,
}


def game_from_descriptor(desc: dict) -> Game:
    """Rebuild a game from its JSON descriptor {kind, bounds, grid_size, m}."""
    kind = GameKind(desc["kind"])
    grid_size = int(desc.get("grid_size") or DEFAULT_GRID_SIZE)
    if kind is GameKind.LOG_LOSS:
        return log_loss_game(m=int(desc.get("m") or 2), grid_size=grid_size)
    if kind is GameKind.QUARTIC:
        return quartic_loss_game(prediction_grid_size=grid_size)
    return _CONSTRUCTORS[kind](grid_size=grid_size)


# ---------------------------------------------------------------------------
# membership predicates

def _ext_diff(a: np.ndarray, b) -> np.ndarray:
    """a - b on extended reals where b == +inf makes the result -inf.

    Used for per-outcome constraint gaps: a +inf on the dominating side
    satisfies the constraint no matter what the other side is.
    """
    with np.errstate(invalid="ignore"):
        out = np.asarray(a, dtype=float) - b
    binf = np.isposinf(b)
    if np.any(binf):
        out = np.where(binf, -np.inf, out)
    return out


def _min_gap(game: Game, gap_of_params, tol: float):
    """Minimize a per-parameter gap function by coarse grid plus refinement.

    ``gap_of_params`` maps an array of prediction parameters to gap values.
    Refines around each of the ``_REFINE_STARTS`` best coarse candidates
    until the local spacing drops below ``tol * 1e-3`` (floored at 1e-13)
    and keeps the best result, so the returned minimum is accurate well
    below the membership tolerance even where the gap has several local
    minima (piecewise-linear losses).
    """
    grid = game.prediction_grid
    if grid is None:
        raise ValueError("game has no scalar prediction parametrization")
    lo, hi = float(grid[0]), float(grid[-1])
    vals = gap_of_params(grid)
    resolution = max(tol * 1e-3, 1e-13)
    best = None
    for j in np.argsort(vals, kind="stable")[:_REFINE_STARTS]:
        u, v = float(grid[j]), float(vals[j])
        h = (hi - lo) / (len(grid) - 1)
        for _ in range(_MAX_REFINE_ROUNDS):
            if h <= resolution:
                break
            a, b = max(lo, u - h), min(hi, u + h)
            local = np.linspace(a, b, _REFINE_POINTS)
            local_vals = gap_of_params(local)
            k = int(np.argmin(local_vals))
            if local_vals[k] < v:
                u, v = float(local[k]), float(local_vals[k])
            h = (b - a) / (_REFINE_POINTS - 1)
        if best is None or v < best[1]:
            best = (u, v)
    return best


def superprediction_gap(game: Game, point, tol: float = DEFAULT_MEMBERSHIP_TOL):
    """(param, gap): smallest uniform excess of any canonical point over ``point``.

    ``gap <= 0`` means some canonical point is dominated by ``point``,
    i.e. ``point`` is a superprediction.
    """
    point = np.asarray(point, dtype=float)

    def gap(params):
        L = game.losses_for_params(np.atleast_1d(params))
        return np.max(_ext_diff(L, point[None, :]), axis=1)

    return _min_gap(game, gap, tol)


def subprediction_gap(game: Game, point, tol: float = DEFAULT_MEMBERSHIP_TOL):
    """(param, gap) with gap <= 0 iff ``point`` lies below some canonical point."""
    point = np.asarray(point, dtype=float)

    def gap(params):
        L = game.losses_for_params(np.atleast_1d(params))
        return np.max(_ext_diff(point[None, :], L), axis=1)

    return _min_gap(game, gap, tol)


def is_superprediction(game: Game, point, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
    """True iff ``point`` dominates some canonical point within ``tol``."""
    if len(np.asarray(point)) != len(game.outcome_grid):
        raise ValueError("point dimension must match the outcome grid")
    if tol <= 0:
        raise ValueError("tol must be positive")
    return superprediction_gap(game, point, tol)[1] <= tol


def is_subprediction(game: Game, point, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
    """True iff ``point`` is dominated by some canonical point within ``tol``."""
    if len(np.asarray(point)) != len(game.outcome_grid):
        raise ValueError("point dimension must match the outcome grid")
    if tol <= 0:
        raise ValueError("tol must be positive")
    return subprediction_gap(game, point, tol)[1] <= tol


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


def _binary_restriction(game: Game) -> Game:
    """The same game with the outcome grid cut down to its endpoints."""
    if game.is_binary():
        return game
    if game.kind is GameKind.LOG_LOSS:
        raise ValueError("perfect-mixability test requires a binary outcome grid")
    og = np.array([game.outcome_grid[0], game.outcome_grid[-1]])
    return Game(game.kind, og, game.prediction_grid, m=game.m)


def _coarse_domination_gaps(game: Game, points: np.ndarray):
    """(best_u, best_v): each point's smallest grid domination gap (binary games)."""
    grid = game.prediction_grid
    L = game.grid_canonical_points()
    best_u = np.empty(len(points))
    best_v = np.empty(len(points))
    for start in range(0, len(points), _BLOCK):
        blk = points[start:start + _BLOCK]
        gaps = np.maximum(_ext_diff(L[None, :, 0], blk[:, 0][:, None]),
                          _ext_diff(L[None, :, 1], blk[:, 1][:, None]))
        j = np.argmin(gaps, axis=1)
        best_u[start:start + _BLOCK] = grid[j]
        best_v[start:start + _BLOCK] = gaps[np.arange(len(blk)), j]
    return best_u, best_v


def _refined_domination_gaps(game: Game, points: np.ndarray, best_u: np.ndarray,
                             best_v: np.ndarray, tol: float) -> np.ndarray:
    """Refine coarse domination gaps, every point's window in lockstep.

    Same grid-plus-refinement scheme as :func:`superprediction_gap`, with
    the window clipped to the grid rather than shrunk at its ends.
    """
    grid = game.prediction_grid
    lo, hi = float(grid[0]), float(grid[-1])
    h = (hi - lo) / (len(grid) - 1)
    resolution = max(tol * 1e-3, 1e-13)
    offsets = np.linspace(-1.0, 1.0, _REFINE_POINTS)
    rows = np.arange(len(points))
    for _ in range(_MAX_REFINE_ROUNDS):
        if h <= resolution:
            break
        us = np.clip(best_u[:, None] + h * offsets[None, :], lo, hi)
        Lf = game.losses_for_params(us.ravel()).reshape(len(points), _REFINE_POINTS, -1)
        gaps = np.maximum(_ext_diff(Lf[:, :, 0], points[:, 0][:, None]),
                          _ext_diff(Lf[:, :, 1], points[:, 1][:, None]))
        j = np.argmin(gaps, axis=1)
        improved = gaps[rows, j] < best_v
        best_u = np.where(improved, us[rows, j], best_u)
        best_v = np.where(improved, gaps[rows, j], best_v)
        h /= (_REFINE_POINTS - 1) / 2.0
    return best_v


def check_perfectly_mixable(game: Game, eta: float, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
    """Midpoint test for convexity of the exponentiated superprediction set.

    Maps every prediction-grid canonical point (x, y) to
    (exp(-eta*x), exp(-eta*y)); for each pair of mapped points the midpoint
    is mapped back and must be a superprediction within ``tol``.  Scalar
    games with more than two grid outcomes are tested on their outcome
    interval's endpoints, which carry the binding constraints for the
    bundled loss shapes.  Answers are cached for the life of the process,
    keyed on everything the test reads: the kind, ``m``, the two tested
    outcomes and the prediction grid of the binary restriction, plus
    ``eta`` and ``tol``.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    binary = _binary_restriction(game)
    key = (binary.kind, binary.m, tuple(binary.outcome_grid.tolist()),
           binary.prediction_grid.tobytes(), float(eta), float(tol))
    cached = _MIXABILITY_CACHE.get(key)
    if cached is not None:
        return cached
    result = _mixability_midpoint_test(binary, eta, tol)
    _MIXABILITY_CACHE[key] = result
    return result


_MIXABILITY_CACHE: dict = {}


def _mixability_midpoint_test(game: Game, eta: float, tol: float) -> bool:
    pts = game.grid_canonical_points()
    mapped = np.exp(-eta * pts)
    P = len(mapped)
    ia, ib = np.triu_indices(P, k=1)
    mids = 0.5 * (mapped[ia] + mapped[ib])
    with np.errstate(divide="ignore"):
        back = -np.log(mids) / eta
    best_u, best_v = _coarse_domination_gaps(game, back)
    # refinement only lowers a gap, so only coarse gaps above tol can fail;
    # the worst few settle most non-mixable games before the bulk is refined
    open_ = np.nonzero(best_v > tol)[0]
    open_ = open_[np.argsort(-best_v[open_], kind="stable")]
    batches = [open_[:_MIXABILITY_FIRST_REFINED]]
    batches += [open_[s:s + _BLOCK] for s in range(_MIXABILITY_FIRST_REFINED, len(open_), _BLOCK)]
    for idx in batches:
        if len(idx) and np.max(_refined_domination_gaps(
                game, back[idx], best_u[idx], best_v[idx], tol)) > tol:
            return False
    return True
