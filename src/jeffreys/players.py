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
    """A configured number as a float; a string or other non-number is a TypeError."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


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
        self._draws = rng.random(horizon) < self.p
        self._miss, self._hit = (game.spec.outcome_type(w) for w in (0, 1))

    def outcome(self, n, gamma1, gamma2, gamma_sceptic):
        return self._hit if self._draws[n - 1] else self._miss


class IidUniformNature(NatureStrategy):
    def __init__(self, lo: float = 0.0, hi: float = 1.0):
        self.lo, self.hi = _real(lo, "lo"), _real(hi, "hi")
        if self.hi <= self.lo:
            raise ConfigError("uniform nature needs lo < hi")

    def reset(self, game, rng, horizon):
        if game.spec.outcome_type is int:
            raise ConfigError("uniform nature is undefined for log-loss outcomes")
        self._draws = rng.uniform(self.lo, self.hi, horizon)

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
        best, best_score = None, -math.inf
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

    def reset(self, game, rng, horizon):
        g = self.gamma0
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
        return self._counts / self._counts.sum()

    def _count(self, omega):
        self._counts[int(omega)] += 1.0

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
        self._game = game
        self._noise = rng.standard_normal(horizon)

    def predict(self, n):
        return self._game.prediction_from_param(
            self.target + self.sigma * self._noise[n - 1] / n)


class DriftPredictor(PredictorStrategy):
    """Starts at gamma0 and drifts by delta per step, clamped to bounds."""

    def __init__(self, gamma0: float, delta: float):
        self.gamma0 = _real(gamma0, "gamma0")
        self.delta = _real(delta, "delta")

    def reset(self, game, rng, horizon):
        self._game = game

    def predict(self, n):
        return self._game.prediction_from_param(self.gamma0 + self.delta * (n - 1))


# ---------------------------------------------------------------------------
# descriptor-based construction (the CLI speaks in these)

_NATURE_KINDS = {
    "constant": lambda params: ConstantNature(params["omega"]),
    "iid_bernoulli": lambda params: IidBernoulliNature(params.get("p", 0.5)),
    "iid_uniform": lambda params: IidUniformNature(params.get("lo", 0.0),
                                                   params.get("hi", 1.0)),
    "replay": lambda params: (ReplayNature.from_file(params["file"])
                              if "file" in params else ReplayNature(params["values"])),
    "adversarial_greedy": lambda params: AdversarialGreedyNature(params.get("candidates")),
}

_PREDICTOR_KINDS = {
    "constant": lambda params: ConstantPredictor(params["gamma"]),
    "running_mean": lambda params: RunningMeanPredictor(params.get("initial", 0.5)),
    "noisy_target": lambda params: NoisyTargetPredictor(params["target"],
                                                        params.get("sigma", 0.15)),
    "drift": lambda params: DriftPredictor(params["gamma0"], params["delta"]),
}


def _build(kinds: dict, role: str, kind: str, params: Optional[dict]):
    # a missing, mistyped or unreadable parameter is a configuration error naming the kind
    try:
        factory = kinds[kind]
    except (KeyError, TypeError):
        raise ConfigError(f"unknown {role} kind {kind!r}; options: {sorted(kinds)}") from None
    try:
        return factory(params or {})
    except KeyError as exc:
        raise ConfigError(f"{kind} {role} needs the parameter {exc}") from None
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {kind} {role} parameters: {exc}") from exc


def nature_strategy(kind: str, params: Optional[dict] = None) -> NatureStrategy:
    return _build(_NATURE_KINDS, "nature", kind, params)


def predictor_strategy(kind: str, params: Optional[dict] = None) -> PredictorStrategy:
    return _build(_PREDICTOR_KINDS, "predictor", kind, params)
