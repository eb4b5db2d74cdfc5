"""The benchmark's four workloads: seeded inputs, the ops they run, and the
check applied to every answer.

An *op* is one seeded protocol run, one divergence query or one mixability
test.  ``op.run()`` returns the number of protocol steps it played and
raises :class:`WrongAnswer` when the program's output fails its check, so
a wrong answer counts as a failed op exactly like an exception or a missed
deadline.

Each workload exposes ``setup(seed) -> ctx``, ``cycle(ctx, index) -> ops``
and ``probes(ctx) -> ops``.  A cycle has the same shape for every seed and
index (same games, sizes and op kinds); only the generated inputs differ,
so the cost of a run depends on the program, not on the seed.  Probes run
once per measured run, before the timed window: ops that reproduce known
defects (expected to fail until those defects are fixed), and ops too
slow to repeat in every cycle.

Library calls go through module attributes (``j.run_protocol``, ...) so
that the traced run can rebind them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

import jeffreys as j
import jeffreys.cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".perfbench")

EPSILON = 1e-3
ALPHAS = (-0.8, 0.0, 0.8)
SLACK_TOL = 1e-9          # eq8 / eq9 slack floor (criteria 3 and 4)
SQUARE_EQ_TOL = 1e-12     # square loss: eq9 slack equals epsilon (criterion 3)


class WrongAnswer(Exception):
    """The program returned an answer that fails the op's check.

    ``known_defect`` names the documented defect behind this kind of wrong
    answer, if there is one.
    """

    def __init__(self, message: str, known_defect: str = ""):
        super().__init__(message)
        self.known_defect = known_defect


@dataclass
class Op:
    kind: str
    run: Callable[[], int]
    deadline_s: float = 20.0
    # non-empty for a probe of a known defect: names the defect
    known_defect: str = ""


@dataclass
class Context:
    seed: int
    games: dict = field(default_factory=dict)
    # answers of the set-up mixability tests: (label, ok)
    setup_checks: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


SETUP_STREAM = 1_000_000   # rng index for inputs drawn once per run, not per cycle


def _rng(seed: int, workload_tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload_tag, index])


def _expect(cond: bool, message: str, known_defect: str = "") -> None:
    if not cond:
        raise WrongAnswer(message, known_defect)


def _warm(ctx: Context) -> None:
    for game in ctx.games.values():
        if game.prediction_grid is not None:
            game.grid_canonical_points()


def _setup_mixability(ctx: Context, name: str, eta: float, expected: bool) -> None:
    got = j.check_perfectly_mixable(ctx.games[name], eta)
    ctx.setup_checks.append((f"mixability {name} eta={eta}", got == expected))


def _zero_divergence_slack(trace, alpha: float, epsilon: float) -> float:
    """Worst eq9 slack with every divergence term at its lower bound 0.

    Valid for every game (lower divergences are nonnegative), so it checks
    the numeric level-2 path, whose trace carries no divergence terms.
    """
    shim = SimpleNamespace(loss1=trace.loss1, loss2=trace.loss2,
                           loss_sceptic=trace.loss_sceptic,
                           divergence_term=np.zeros(len(trace)))
    return float(np.min(j.level2_inequality_slack(shim, alpha, epsilon)))


# ---------------------------------------------------------------------------
# level2_sweep: closed-form level-2 runs shaped like acceptance criterion 3

L2_HORIZON = 2000


def level2_setup(seed: int) -> Context:
    ctx = Context(seed, games={"square": j.square_loss_game(),
                               "log_loss": j.log_loss_game(m=2)})
    _warm(ctx)
    return ctx


def _level2_op(game, game_name, alpha, nature, p1, p2, run_seed) -> Op:
    def run() -> int:
        sceptic = j.Level2Sceptic(alpha=alpha, epsilon=EPSILON)
        trace = j.run_protocol(nature, p1, p2, sceptic, game, L2_HORIZON, seed=run_seed)
        report = j.verify_run(trace, ["eq9"], sceptic=sceptic,
                              report=j.classify_disjuncts(trace))
        _expect(len(trace) == L2_HORIZON, f"trace has {len(trace)} steps")
        worst = report.check_slacks["eq9"]
        _expect(report.checks_passed and worst >= -SLACK_TOL,
                f"eq9 worst slack {worst:.3e}")
        if game_name == "square":
            series = j.level2_inequality_slack(trace, alpha, EPSILON)
            dev = float(np.max(np.abs(series - np.longdouble(EPSILON))))
            _expect(dev <= SQUARE_EQ_TOL, f"square |slack - epsilon| {dev:.3e}")
        return len(trace)
    return Op(f"level2/{game_name}", run)


def level2_cycle(ctx: Context, index: int) -> list:
    rng = _rng(ctx.seed, 1, index)
    ops = []
    for game_name, game in ctx.games.items():
        for alpha in ALPHAS:
            for nature_kind in ("iid", "adversarial"):
                for predictor_kind in ("constant", "running_mean"):
                    if game_name == "square":
                        pair = (0.0, 1.0) if rng.random() < 0.5 else (0.25, 0.75)
                        p1 = j.ConstantPredictor(pair[0])
                        second = j.ConstantPredictor(pair[1])
                    else:
                        p1 = j.ConstantPredictor(np.array([0.8, 0.2]))
                        second = j.ConstantPredictor(np.array([0.3, 0.7]))
                    p2 = second if predictor_kind == "constant" else j.RunningMeanPredictor()
                    nature = (j.IidBernoulliNature(float(rng.uniform(0.2, 0.8)))
                              if nature_kind == "iid" else j.AdversarialGreedyNature())
                    ops.append(_level2_op(game, game_name, alpha, nature, p1, p2,
                                          int(rng.integers(2 ** 31))))
    return ops


# ---------------------------------------------------------------------------
# pool_aggregation: aggregating pools (criterion 4) and the level-3 lift
# (criterion 6)

POOL_HORIZON = 500
LIFT_HORIZON = 300
POOL_SIZES = (2, 5, 10, 20, 30, 40)


def pool_setup(seed: int) -> Context:
    ctx = Context(seed, games={"log_loss": j.log_loss_game(m=2),
                               "bounded_square": j.bounded_square_loss_game()})
    _warm(ctx)
    for name, game in ctx.games.items():
        _setup_mixability(ctx, name, j.params_for(game).eta, True)
    return ctx


def _eq8_ok(trace, sceptic) -> None:
    report = j.verify_run(trace, ["eq8"], sceptic=sceptic)
    worst = report.check_slacks["eq8"]
    _expect(report.checks_passed and worst >= -SLACK_TOL, f"eq8 worst slack {worst:.3e}")


def _pool_op(game, game_name, k, nature_p, run_seed) -> Op:
    spread = (np.arange(k) + 1.0) / (k + 1.0)

    def run() -> int:
        if game_name == "log_loss":
            experts = [j.ConstantPredictor(np.array([1.0 - p, p])) for p in spread]
            nature = j.IidBernoulliNature(nature_p)
            fixed = np.array([0.5, 0.5])
        else:
            experts = [j.ConstantPredictor(p) for p in spread]
            nature = j.IidUniformNature(0.0, 1.0)
            fixed = 0.5
        sceptic = j.AggregatingSceptic(experts)
        trace = j.run_protocol(nature, j.ConstantPredictor(fixed), j.ConstantPredictor(fixed),
                               sceptic, game, POOL_HORIZON, seed=run_seed)
        _eq8_ok(trace, sceptic)
        return len(trace)
    return Op(f"aggregating/{game_name}", run)


def _lift_op(game, diverging: bool, run_seed) -> Op:
    def run() -> int:
        sceptic = j.Level3Sceptic(j.Level2Sceptic(alpha=0.0, epsilon=EPSILON))
        if diverging:
            trace = j.run_protocol(j.ConstantNature(0.9), j.ConstantPredictor(0.1),
                                   j.ConstantPredictor(0.9), sceptic, game,
                                   LIFT_HORIZON, seed=run_seed)
            lead = trace.cum1[-1] - trace.cum_sceptic[-1]
            report = j.classify_disjuncts(trace, loss_gap_min=100.0)
            _expect(lead >= 100.0 and "beats-P1" in report.verdicts,
                    f"lift lead {lead:.1f}, verdicts {report.verdicts}")
        else:
            trace = j.run_protocol(j.IidBernoulliNature(0.6),
                                   j.NoisyTargetPredictor(0.6, sigma=0.15),
                                   j.NoisyTargetPredictor(0.6, sigma=0.15),
                                   sceptic, game, LIFT_HORIZON, seed=run_seed)
            report = j.classify_disjuncts(trace)
            _expect("gap-vanishes" in report.verdicts and report.gap_squared_sum <= 1.0,
                    f"converging gap sum {report.gap_squared_sum:.3f}")
        _eq8_ok(trace, sceptic)
        return len(trace)
    return Op("level3/bounded_square", run)


def pool_cycle(ctx: Context, index: int) -> list:
    rng = _rng(ctx.seed, 2, index)
    ops = []
    for game_name, game in ctx.games.items():
        for k in POOL_SIZES:
            ops.append(_pool_op(game, game_name, k, float(rng.uniform(0.1, 0.9)),
                                int(rng.integers(2 ** 31))))
    bsq = ctx.games["bounded_square"]
    ops.append(_lift_op(bsq, True, int(rng.integers(2 ** 31))))
    ops.append(_lift_op(bsq, False, int(rng.integers(2 ** 31))))
    return ops


# ---------------------------------------------------------------------------
# numeric_oracle: numeric divergences, mixability tests, numeric level-2 runs

DIV_TOL = 1e-7                 # criterion 2
QUARTIC_TOL = 1e-4             # criterion 1
NUMERIC_L2_HORIZON = 5
QUARTIC_REPRO_HORIZON = 50
QUARTIC_REPRO_DEADLINE_S = 5.0

# (game, eta range, answer known from the math): bounded square loss on
# [0, 1] is mixable iff eta <= 2, binary log loss iff eta <= 1, and
# absolute loss for no eta
MIXABILITY_CASES = (
    ("bounded_square", (0.5, 1.9), True),
    ("bounded_square", (2.2, 4.0), False),
    ("log_loss", (0.3, 0.95), True),
    ("log_loss", (1.1, 2.0), False),
    ("bounded_absolute", (0.2, 2.0), False),
)
_FRESH_GAMES = {
    "bounded_square": lambda: j.bounded_square_loss_game(),
    "log_loss": lambda: j.log_loss_game(m=2),
    "bounded_absolute": lambda: j.bounded_absolute_loss_game(),
}


def numeric_setup(seed: int) -> Context:
    ctx = Context(seed, games={
        "bounded_square": j.bounded_square_loss_game(),
        "log_loss": j.log_loss_game(m=2),
        "bounded_absolute": j.bounded_absolute_loss_game(),
        "quartic": j.quartic_loss_game(outcome_grid_size=257),
        "quartic_repro": j.quartic_loss_game(outcome_grid_size=65, prediction_grid_size=65),
        "square": j.square_loss_game(),
    })
    _warm(ctx)
    # the default square game is tested first, as any earlier caller would
    _setup_mixability(ctx, "square", 2.0, True)
    return ctx


def _scale(alpha: float) -> float:
    return 4.0 / (1.0 - alpha * alpha)


def _divergence_op(game, game_name, side, g1, g2, alpha, check, known_defect="") -> Op:
    fn = "lower_alpha_divergence_numeric" if side == "lower" else "upper_alpha_divergence_numeric"
    tol = QUARTIC_TOL if game_name == "quartic" else DIV_TOL

    def run() -> int:
        result = getattr(j, fn)(game, g1, g2, alpha, tol=tol)
        check(result)
        return 0
    return Op(f"divergence/{game_name}", run, known_defect=known_defect)


def _closed_form_check(closed: float, max_dev: float):
    def check(result):
        dev = abs(result.value - closed)
        _expect(dev <= max_dev, f"{result.side} value {result.value!r} vs closed form "
                                f"{closed!r} (dev {dev:.2e} > {max_dev:g})")
    return check


ABSOLUTE_UPPER_DEFECT = ("numeric upper divergence overshoots on bounded absolute loss: "
                         "the gap search refines around one coarse grid point only")


def _absolute_lower_check(result):
    _expect(abs(result.shift) <= DIV_TOL, f"absolute lower shift {result.shift!r} != 0")


def _absolute_upper_check(a1: float, a2: float, alpha: float):
    # absolute loss is 1-Lipschitz and either prediction's canonical point is
    # a candidate, so the upper shift is at most min(w1, w2) |a1 - a2|
    cap = min(1.0 - alpha, 1.0 + alpha) / 2.0 * abs(a1 - a2) + DIV_TOL

    def check(result):
        _expect(result.shift >= -DIV_TOL, f"absolute upper shift {result.shift!r} < 0")
        _expect(result.shift <= cap, f"absolute upper shift {result.shift!r} > {cap!r}",
                ABSOLUTE_UPPER_DEFECT)
    return check


def _divergence_ops(ctx: Context, rng) -> list:
    ops = []
    bsq, log, babs = (ctx.games[k] for k in ("bounded_square", "log_loss", "bounded_absolute"))
    for alpha in ALPHAS:
        g1, g2 = (float(v) for v in rng.uniform(0.0, 1.0, 2))
        check = _closed_form_check(j.alpha_divergence_square_loss(g1, g2, alpha), 1e-5)
        for side in ("lower", "upper"):
            ops.append(_divergence_op(bsq, "bounded_square", side, g1, g2, alpha, check))

        p, q = (float(v) for v in rng.uniform(0.1, 0.9, 2))
        v1, v2 = np.array([1.0 - p, p]), np.array([1.0 - q, q])
        check = _closed_form_check(j.alpha_divergence_log_loss(v1, v2, alpha), 1e-4)
        for side in ("lower", "upper"):
            ops.append(_divergence_op(log, "log_loss", side, v1, v2, alpha, check))

        a1, a2 = (float(v) for v in rng.uniform(0.0, 1.0, 2))
        ops.append(_divergence_op(babs, "bounded_absolute", "lower", a1, a2, alpha,
                                  _absolute_lower_check))
        ops.append(_divergence_op(babs, "bounded_absolute", "upper", a1, a2, alpha,
                                  _absolute_upper_check(a1, a2, alpha)))

    def quartic_check(expected):
        def check(result):
            _expect(abs(result.shift - expected) <= 1e-3
                    and abs(result.value - 4.0 * expected) <= 4e-3,
                    f"quartic {result.side} shift {result.shift!r}, expected {expected}")
        return check
    quartic = ctx.games["quartic"]
    ops.append(_divergence_op(quartic, "quartic", "lower", -1.0, 1.0, 0.0, quartic_check(1.0)))
    ops.append(_divergence_op(quartic, "quartic", "upper", -1.0, 1.0, 0.0, quartic_check(7.0)))
    return ops


def _mixability_op(game_name: str, eta: float, expected: bool, game_factory=None,
                   known_defect: str = "") -> Op:
    def run() -> int:
        game = (game_factory or _FRESH_GAMES[game_name])()
        got = j.check_perfectly_mixable(game, eta)
        _expect(got == expected, f"mixability of {game_name} at eta={eta!r}: "
                                 f"got {got}, expected {expected}")
        return 0
    return Op(f"mixability/{game_name}", run, known_defect=known_defect)


def _numeric_level2_op(game, game_name, alpha, g1, g2, p, horizon, run_seed,
                       deadline_s=20.0, known_defect="") -> Op:
    def run() -> int:
        sceptic = j.Level2Sceptic(alpha=alpha, epsilon=EPSILON)
        trace = j.run_protocol(j.IidBernoulliNature(p), j.ConstantPredictor(g1),
                               j.ConstantPredictor(g2), sceptic, game, horizon, seed=run_seed)
        _expect(len(trace) == horizon, f"trace has {len(trace)} steps")
        worst = _zero_divergence_slack(trace, alpha, EPSILON)
        _expect(worst >= -SLACK_TOL, f"eq9 slack (zero divergence terms) {worst:.3e}")
        return len(trace)
    return Op(f"level2_numeric/{game_name}", run, deadline_s, known_defect)


def numeric_cycle(ctx: Context, index: int) -> list:
    rng = _rng(ctx.seed, 3, index)
    ops = _divergence_ops(ctx, rng)
    for game_name, (lo, hi), expected in MIXABILITY_CASES:
        ops.append(_mixability_op(game_name, float(rng.uniform(lo, hi)), expected))
    babs = ctx.games["bounded_absolute"]
    for alpha in (ALPHAS[index % 3], ALPHAS[(index + 1) % 3]):
        g1, g2 = (float(v) for v in rng.uniform(0.0, 1.0, 2))
        ops.append(_numeric_level2_op(babs, "bounded_absolute", alpha, g1, g2,
                                      float(rng.uniform(0.2, 0.8)), NUMERIC_L2_HORIZON,
                                      int(rng.integers(2 ** 31))))
    return ops


def numeric_probes(ctx: Context) -> list:
    rng = _rng(ctx.seed, 3, SETUP_STREAM)
    wide_grid = np.linspace(-3.0, 3.0, 257)
    return [
        # square loss on outcomes [-3, 3] is not mixable at eta=2; the
        # mixability cache is keyed without the outcome grid, so the
        # earlier answer for the default square game comes back
        _mixability_op("square", 2.0, False,
                       game_factory=lambda: j.square_loss_game(outcome_grid=wide_grid),
                       known_defect="stale mixability cache (ROADMAP item 3)"),
        # the epsilon * 2^-n slack schedule asks the bisection for a bracket
        # below float resolution at step 45, which never closes
        _numeric_level2_op(ctx.games["quartic_repro"], "quartic", 0.0, -0.5, 0.5, 0.5,
                           QUARTIC_REPRO_HORIZON, int(rng.integers(2 ** 31)),
                           deadline_s=QUARTIC_REPRO_DEADLINE_S,
                           known_defect="numeric level-2 stall on the quartic game "
                                        "(ROADMAP item 3)"),
        # about 2 % of random inputs overshoot; this one by 7.9e-5
        _divergence_op(ctx.games["bounded_absolute"], "bounded_absolute", "upper",
                       0.7505867920575799, 0.6686844206366261, -0.8,
                       _absolute_upper_check(0.7505867920575799, 0.6686844206366261, -0.8),
                       known_defect=ABSOLUTE_UPPER_DEFECT),
    ]


# ---------------------------------------------------------------------------
# scenario_runs: the bundled scenarios through the CLI, trace and report
# written to disk

RUN_SCENARIOS = ("prop6_square", "prop6_logloss", "prop5_lift", "prop1_absolute",
                 "prop4_counterexample")
DIVERGENCE_SCENARIO = "remark1_quartic"
SCENARIO_HORIZON_DIVISOR = 20


def scenario_setup(seed: int) -> Context:
    rng = _rng(seed, 4, SETUP_STREAM)
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="scenarios-", dir=SCRATCH)
    ctx = Context(seed, extra={"workdir": workdir, "configs": {}, "hashes": {}})
    for name in RUN_SCENARIOS + (DIVERGENCE_SCENARIO,):
        with open(os.path.join(ROOT, "scenarios", name + ".json"), encoding="utf-8") as fh:
            cfg = json.load(fh)
        if "horizon" in cfg:
            cfg["horizon"] = cfg["horizon"] // SCENARIO_HORIZON_DIVISOR
            cfg["seed"] = int(rng.integers(2 ** 31))
        path = os.path.join(workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        ctx.extra["configs"][name] = (path, cfg.get("horizon", 0))
    # the level-3 scenario's compatibility check tests this game
    ctx.games["bounded_square"] = j.bounded_square_loss_game()
    _setup_mixability(ctx, "bounded_square", 2.0, True)
    return ctx


def scenario_cleanup(ctx: Context) -> None:
    shutil.rmtree(ctx.extra["workdir"], ignore_errors=True)


def _scenario_op(ctx: Context, name: str) -> Op:
    path, horizon = ctx.extra["configs"][name]
    workdir = ctx.extra["workdir"]

    def run() -> int:
        trace_path = os.path.join(workdir, name + "_trace.csv")
        report_path = os.path.join(workdir, name + "_report.json")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = jeffreys.cli.main(["run", path, "--trace-out", trace_path,
                                      "--report-out", report_path])
        _expect(code == 0, f"scenario {name} exited {code}")
        if horizon:
            with open(trace_path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
            _expect(report["checks_passed"] and report["horizon"] == horizon,
                    f"scenario {name} report: {report['check_slacks']}")
        else:
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        first = ctx.extra["hashes"].setdefault(name, digest)
        _expect(digest == first, f"scenario {name} output differs between repeats")
        return horizon
    return Op(f"scenario/{name}", run)


def scenario_cycle(ctx: Context, index: int) -> list:
    # each run scenario twice, back to back: the second trace is hashed
    # against the first
    return [_scenario_op(ctx, name) for name in RUN_SCENARIOS for _ in range(2)]


def scenario_probes(ctx: Context) -> list:
    # one divergence-scenario op costs as much as a whole cycle of the run
    # scenarios, so it runs twice per run instead of once per cycle; the
    # same divergence code is timed in numeric_oracle
    return [_scenario_op(ctx, DIVERGENCE_SCENARIO) for _ in range(2)]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    setup: Callable
    cycle: Callable
    probes: Callable = lambda ctx: []
    cleanup: Callable = lambda ctx: None
    # time spent mostly in whole-grid numpy work: see speed.py
    grid_reference: bool = False


WORKLOADS = {
    "level2_sweep": Workload(level2_setup, level2_cycle),
    "pool_aggregation": Workload(pool_setup, pool_cycle),
    "numeric_oracle": Workload(numeric_setup, numeric_cycle, probes=numeric_probes,
                               grid_reference=True),
    "scenario_runs": Workload(scenario_setup, scenario_cycle, probes=scenario_probes,
                              cleanup=scenario_cleanup),
}
