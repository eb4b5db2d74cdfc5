"""Nature and Predictor strategies for protocol runs.

Strategies are stateful objects reset at the start of each run with the
game, a dedicated random generator, and the horizon, which makes every
run reproducible from its seed.  Predictions are clamped to the game's
bounds by :meth:`~jeffreys.games.Game.prediction_from_param`; outcomes take
the game's outcome type (int on a finite outcome space, where a configured
non-integral value is left as it is).  The engine validates every move once,
as it is announced; strategies that score moves use the game's unvalidated
:meth:`~jeffreys.games.Game.loss_fn` kernel and check anything of their
own, like the adversarial Nature's candidate outcomes, once in ``reset``.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .games import Game


class PredictorStrategy:
    """Announces a prediction each step, before the sceptic and Nature.

    Validate-once contract: the protocol engine validates each announced
    prediction, and each outcome passed to ``observe``, exactly once.
    Strategies need not re-check them, and score them with the game's
    unvalidated ``loss_fn`` kernel.
    """

    def reset(self, game: Game, rng: np.random.Generator, horizon: int) -> None:
        pass

    def predict(self, n: int):
        raise NotImplementedError

    def observe(self, n: int, omega) -> None:
        pass


class NatureStrategy:
    """Announces the outcome each step, after seeing all three predictions.

    The predictions it is shown are already validated by the engine, which
    also validates the outcome it returns (the validate-once contract of
    :class:`PredictorStrategy`).
    """

    def reset(self, game: Game, rng: np.random.Generator, horizon: int) -> None:
        pass

    def outcome(self, n: int, gamma1, gamma2, gamma_sceptic):
        raise NotImplementedError


class ReplayExhausted(Exception):
    """Raised by a replay Nature that has run out of recorded outcomes."""


def _real(value, name: str) -> float:
    """A configured number as a float: TypeError for a non-number, ValueError if not finite."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def _check_form(game: Game, vector: bool, who: str) -> None:
    # vectors on a finite outcome space; numbers where a prediction grid maps them
    if not (game.prediction_shape if vector else game.prediction_grid is not None):
        takes = "probability vectors" if game.prediction_shape else "numbers"
        raise ConfigError(f"{who} predicts a {'vector' if vector else 'number'}; "
                          f"this {game.kind.value} game takes {takes}")


def _predraw(draw, horizon: int, who: str) -> np.ndarray:
    """``draw(horizon)``, a run's draws taken at reset; a ConfigError naming
    the horizon where numpy refuses that many or cannot allocate them."""
    try:
        return draw(horizon)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"horizon {horizon} is too long for {who} to draw "
                          f"at reset: {exc}") from exc


def _as_outcome(game: Game, w):
    # a non-integral outcome on a finite space is left for the engine to refuse
    if game.spec.outcome_type is int and not float(w).is_integer():
        return w
    return game.spec.outcome_type(w)


# ---------------------------------------------------------------------------
# natures


class ConstantNature(NatureStrategy):
    def __init__(self, omega):
        self.omega0 = _real(omega, "omega")

    def reset(self, game, rng, horizon):
        self._value = _as_outcome(game, self.omega0)

    def outcome(self, n, gamma1, gamma2, gamma_sceptic):
        return self._value


class IidBernoulliNature(NatureStrategy):
    """Outcome 1 with probability p, else 0; for binary or log-loss games."""

    def __init__(self, p: float = 0.5):
        self.p = _real(p, "p")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"bernoulli p must lie in [0, 1], got {self.p}")

    def reset(self, game, rng, horizon):
        self._draws = _predraw(rng.random, horizon, "a bernoulli nature") < self.p
        self._miss, self._hit = (game.spec.outcome_type(w) for w in (0, 1))

    def outcome(self, n, gamma1, gamma2, gamma_sceptic):
        return self._hit if self._draws[n - 1] else self._miss


class IidUniformNature(NatureStrategy):
    def __init__(self, lo: float = 0.0, hi: float = 1.0):
        self.lo, self.hi = _real(lo, "lo"), _real(hi, "hi")
        # numpy draws lo + (hi - lo) u, and refuses a width past the float range
        if not 0.0 < self.hi - self.lo < math.inf:
            raise ConfigError(f"uniform nature needs lo < hi a finite width apart, got "
                              f"lo {self.lo!r}, hi {self.hi!r}")

    def reset(self, game, rng, horizon):
        if game.spec.outcome_type is int:
            raise ConfigError("uniform nature is undefined for log-loss outcomes")
        self._draws = _predraw(lambda size: rng.uniform(self.lo, self.hi, size), horizon,
                               "a uniform nature")

    def outcome(self, n, gamma1, gamma2, gamma_sceptic):
        return float(self._draws[n - 1])


class ReplayNature(NatureStrategy):
    """Replays a recorded outcome sequence; truncates the run when exhausted."""

    def __init__(self, values: Sequence[float]):
        self.values = [_real(v, "replay value") for v in values]
        if not self.values:
            raise ValueError("replay needs at least one outcome")

    @classmethod
    def from_file(cls, path) -> "ReplayNature":
        with open(path, "r", encoding="utf-8") as fh:
            return cls([float(line) for line in fh if line.strip()])

    def reset(self, game, rng, horizon):
        self._outcomes = [_as_outcome(game, w) for w in self.values]

    def outcome(self, n, gamma1, gamma2, gamma_sceptic):
        if n - 1 >= len(self._outcomes):
            raise ReplayExhausted(f"replay provides only {len(self._outcomes)} outcomes")
        return self._outcomes[n - 1]


class AdversarialGreedyNature(NatureStrategy):
    """Picks, from a candidate grid, the outcome maximizing the sceptic's
    loss over the better predictor's; ties break toward the smaller
    outcome.

    Given candidates are validated once, in ``reset``; one outside the
    game's outcome space is a :class:`ConfigError`.  The default
    candidates, ``{0, .., m-1}`` for log-loss and ``{0, 1}`` otherwise, lie
    in every bundled game's outcome space."""

    def __init__(self, candidates: Optional[Sequence[float]] = None):
        if candidates is not None and not len(candidates):
            raise ValueError("adversarial_greedy needs at least one candidate")
        self.candidates = candidates

    def reset(self, game, rng, horizon):
        self._loss = game.loss_fn()
        if self.candidates is not None:
            self._cands = list(self.candidates)
            for w in self._cands:
                try:
                    game.validate_outcome(w)
                except DomainError as exc:
                    raise ConfigError(f"adversarial_greedy candidate: {exc}") from exc
        else:
            self._cands = [game.spec.outcome_type(w) for w in range(max(game.m, 2))]

    def outcome(self, n, gamma1, gamma2, gamma_sceptic):
        loss = self._loss
        # when no score beats -inf (a NaN one never does), the first candidate plays
        best, best_score = self._cands[0], -math.inf
        for w in self._cands:
            score = loss(w, gamma_sceptic) - min(loss(w, gamma1), loss(w, gamma2))
            if score > best_score:
                best, best_score = w, score
        return best


# ---------------------------------------------------------------------------
# predictors


class ConstantPredictor(PredictorStrategy):
    def __init__(self, gamma):
        if not np.issubdtype(np.asarray(gamma).dtype, np.number):  # e.g. a string
            raise TypeError(f"gamma must be a number or a vector of numbers, got {gamma!r}")
        self.gamma0 = np.asarray(gamma, dtype=float)
        if not np.isfinite(self.gamma0).all():
            raise ValueError(f"gamma must be finite, got {gamma!r}")

    def reset(self, game, rng, horizon):
        g = self.gamma0
        _check_form(game, g.ndim > 0, "a constant predictor")
        self._value = game.prediction_from_param(float(g)) if g.ndim == 0 else g

    def predict(self, n):
        return self._value


class RunningMeanPredictor(PredictorStrategy):
    """Predicts the mean of past outcomes, starting from an initial value.

    For log-loss games this is the add-one-smoothed outcome frequency,
    which keeps every probability strictly positive.
    """

    def __init__(self, initial: float = 0.5):
        self.initial = _real(initial, "initial")

    def reset(self, game, rng, horizon):
        self._game = game
        if game.prediction_shape:
            self._counts = np.ones(game.m)
            self._total = float(game.m)  # the counts' exact sum: they are integers
            self._mean, self._add = self._frequencies, self._count
        else:
            self._sum = 0.0
            self._n = 0
            self._mean, self._add = self._running_mean, self._accumulate

    def predict(self, n):
        return self._mean()

    def observe(self, n, omega):
        self._add(omega)

    def _frequencies(self):
        return self._counts / self._total

    def _count(self, omega):
        self._counts[int(omega)] += 1.0
        self._total += 1.0

    def _running_mean(self):
        value = self.initial if self._n == 0 else self._sum / self._n
        return self._game.prediction_from_param(value)

    def _accumulate(self, omega):
        self._sum += omega
        self._n += 1


class NoisyTargetPredictor(PredictorStrategy):
    """Predicts a fixed target plus seeded noise with scale ``sigma/n``.

    Two independent copies converge toward each other fast enough that the
    sum of their squared gaps stays finite, exercising the agreeing-
    forecasters branch of the disjunctions.
    """

    def __init__(self, target: float, sigma: float = 0.15):
        self.target = _real(target, "target")
        self.sigma = _real(sigma, "sigma")

    def reset(self, game, rng, horizon):
        _check_form(game, False, "a noisy_target predictor")
        self._game = game
        self._noise = _predraw(rng.standard_normal, horizon, "a noisy_target predictor")

    def predict(self, n):
        # in Python floats: the same bits, and an overflow to inf without a warning
        return self._game.prediction_from_param(
            self.target + self.sigma * float(self._noise[n - 1]) / n)


class DriftPredictor(PredictorStrategy):
    """Starts at gamma0 and drifts by delta per step, clamped to bounds."""

    def __init__(self, gamma0: float, delta: float):
        self.gamma0 = _real(gamma0, "gamma0")
        self.delta = _real(delta, "delta")

    def reset(self, game, rng, horizon):
        _check_form(game, False, "a drift predictor")
        self._game = game

    def predict(self, n):
        return self._game.prediction_from_param(self.gamma0 + self.delta * (n - 1))
