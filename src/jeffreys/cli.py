"""Command-line front end: seeded runs, sweeps, and divergence queries.

Configuration is a single JSON document (no environment variables), so
every result is reproducible from the config file and seed alone.  Exit
codes are a stable contract: 0 all requested checks passed, 1 a check
failed, 2 the configuration or invocation was invalid.  The config
format is the schema below, which reads a whole document before anything
runs, and never writes to it, as the report embeds it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional

import numpy as np

from .divergence import (closed_form_divergence, lower_alpha_divergence_numeric,
                         upper_alpha_divergence_numeric)
from .aggregating import params_for
from .errors import ConfigError, DomainError, JeffreysError, MixabilityViolation
from .games import Game, GameKind, game_from_descriptor
from .players import (AdversarialGreedyNature, ConstantNature, ConstantPredictor,
                      DriftPredictor, IidBernoulliNature, IidUniformNature,
                      NoisyTargetPredictor, ReplayNature, RunningMeanPredictor)
from .protocol import (DEFAULT_GAP_SUM_MAX, DEFAULT_LOSS_GAP_MIN,
                       classify_disjuncts, require_checks, run_protocol,
                       verify_run)
from .sceptics import (AggregatingSceptic, Level1Sceptic, Level2Sceptic,
                       Level3Sceptic)
from .serialize import write_report_json, write_trace_csv

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2

SPEC_VERSION = 1


# ---------------------------------------------------------------------------
# the schema reads a document in one walk: a table per section and strategy kind
# maps each key to (check, default); a check takes (value, path), raises a
# ConfigError naming the path, and returns what the value reads as

REQUIRED = object()  # the default of a key that must be given
OMITTED = object()  # the default of a key not passed when not given


def _join(path: str, key) -> str:
    return f"{path} {key}" if path else str(key)


def _finite(value) -> bool:
    # a finite JSON number: not a bool, nor an integer beyond the float range
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def _value(test, what: str):
    def check(value, path: str):
        if not test(value):
            raise ConfigError(f"{path} must be {what}, got {value!r}")
        return value
    return check


def _integer(low: int):
    return _value(lambda v: type(v) is int and v >= low, f"an integer >= {low}")


def _choice(*options):
    return _value(lambda v: any(type(v) is type(o) and v == o for o in options),
                  f"one of {sorted(options)}")


_number = _value(_finite, "a finite number")
_positive = _value(lambda v: _finite(v) and v > 0, "a positive finite number")
_text = _value(lambda v: type(v) is str and v != "", "a non-empty string")
_number_or_text = _value(lambda v: _finite(v) or type(v) is str and v != "",
                         "a number or a comma-separated string")
_ANY = _value(lambda v: True, "anything")


class _List:
    """A list whose items ``item`` reads; empty only where ``empty``."""

    def __init__(self, item, empty: bool = False):
        self.item, self.empty = item, empty

    def __call__(self, value, path: str) -> list:
        if type(value) is not list or not (value or self.empty):
            raise ConfigError(f"{path} must be a {'' if self.empty else 'non-empty '}list, "
                              f"got {value!r}")
        return [self.item(item, _join(path, i)) for i, item in enumerate(value, 1)]


_NUMBERS = _List(_number)


def _number_or_vector(value, path: str):
    return (_NUMBERS if type(value) is list else _number)(value, path)


class _Section:
    """An object with the keys ``table`` lists.  Reading it refuses an
    unknown key, a missing required one and a value its check refuses, and
    passes ``make`` each key's read value or default, if not OMITTED; the
    ValueError or TypeError of a range ``make`` guards is a ConfigError."""

    def __init__(self, table: dict, make=dict):
        self.table, self.make = table, make

    def __call__(self, value, path: str = ""):
        if type(value) is not dict:
            raise ConfigError(f"{path or 'config'} must be an object, got {value!r}")
        for key in value:
            if key not in self.table:
                raise ConfigError(f"unknown key {_join(path, key)}; "
                                  f"options: {sorted(self.table)}")
        settings = {}
        for key, (check, default) in self.table.items():
            if key in value:
                settings[key] = check(value[key], _join(path, key))
            elif default is REQUIRED:
                raise ConfigError(f"{_join(path, key)} is required")
            elif default is not OMITTED:
                settings[key] = check(default, _join(path, key))
        try:
            return self.make(**settings)
        except (OSError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc


class _Strategy:
    """A descriptor ``{"kind": ..., "params": {...}}``, its params the
    section ``kinds`` gives for its kind."""

    def __init__(self, kinds: dict):
        self.kinds = kinds

    def __call__(self, value, path: str):
        descriptor = _Section({"kind": (_choice(*self.kinds), REQUIRED), "params": (_ANY, {})})
        desc = descriptor(value, path)
        return self.kinds[desc["kind"]](desc["params"], _join(path, "params"))


def _replay(values=None, file=None):
    if (values is None) == (file is None):
        raise ConfigError("a replay nature needs exactly one of 'values' and 'file'")
    return ReplayNature(values) if file is None else ReplayNature.from_file(file)


NATURES = {
    "constant": _Section({"omega": (_number, REQUIRED)}, ConstantNature),
    "iid_bernoulli": _Section({"p": (_number, OMITTED)}, IidBernoulliNature),
    "iid_uniform": _Section({"lo": (_number, OMITTED), "hi": (_number, OMITTED)},
                            IidUniformNature),
    "replay": _Section({"values": (_NUMBERS, OMITTED), "file": (_text, OMITTED)}, _replay),
    "adversarial_greedy": _Section({"candidates": (_NUMBERS, OMITTED)},
                                   AdversarialGreedyNature),
}
PREDICTORS = {
    "constant": _Section({"gamma": (_number_or_vector, REQUIRED)}, ConstantPredictor),
    "running_mean": _Section({"initial": (_number, OMITTED)}, RunningMeanPredictor),
    "noisy_target": _Section({"target": (_number, REQUIRED), "sigma": (_number, OMITTED)},
                             NoisyTargetPredictor),
    "drift": _Section({"gamma0": (_number, REQUIRED), "delta": (_number, REQUIRED)},
                      DriftPredictor),
}
SCEPTICS: dict = {}  # a level-3 base is a sceptic itself
SCEPTICS.update({
    "level1": _Section({"c": (_number, OMITTED)}, Level1Sceptic),
    "level2": _Section({"alpha": (_number, REQUIRED), "epsilon": (_number, OMITTED)},
                       Level2Sceptic),
    "level3": _Section({"base": (_Strategy(SCEPTICS),
                                 {"kind": "level2", "params": {"alpha": 0.0}}),
                        "k_max": (_integer(1), OMITTED)}, Level3Sceptic),
    "aggregating": _Section({"experts": (_List(_Strategy(PREDICTORS)), REQUIRED),
                             "priors": (_NUMBERS, OMITTED)}, AggregatingSceptic),
})
GAME = _Section({"kind": (_choice(*(kind.value for kind in GameKind)), REQUIRED),
                 "grid_size": (_integer(2), OMITTED), "m": (_integer(2), OMITTED)},
                lambda **desc: game_from_descriptor(desc))

_VERSION = (_choice(SPEC_VERSION), SPEC_VERSION)
_OUTPUTS = {"trace_csv": (_text, "trace.csv"), "report_json": (_text, "report.json")}
RUN = _Section({
    "spec_version": _VERSION,
    "game": (GAME, REQUIRED),
    "horizon": (_integer(1), REQUIRED),
    "seed": (_integer(0), 0),
    "seeds": (_List(_integer(0)), OMITTED),
    "predictor1": (_Strategy(PREDICTORS), REQUIRED),
    "predictor2": (_Strategy(PREDICTORS), REQUIRED),
    "nature": (_Strategy(NATURES), REQUIRED),
    "sceptic": (_Strategy(SCEPTICS), REQUIRED),
    "checks": (_List(_text, empty=True), []),
    "thresholds": (_Section({"gap_sum_max": (_number, DEFAULT_GAP_SUM_MAX),
                             "loss_gap_min": (_number, DEFAULT_LOSS_GAP_MIN)}), {}),
    "outputs": (_Section(_OUTPUTS), {}),
})
SWEEP = _Section({**RUN.table, "seeds": (_List(_integer(0)), REQUIRED),
                  "outputs": (_Section({**_OUTPUTS, "report_json": (_text, "sweep.json")}), {})})
QUERY = _Section({"game": (GAME, REQUIRED), "g1": (_number_or_text, REQUIRED),
                  "g2": (_number_or_text, REQUIRED), "alpha": (_number, 0.0),
                  "tol": (_positive, 1e-4)})
DIVERGENCE = _Section({
    "spec_version": _VERSION,
    "divergence": (QUERY, REQUIRED),
    "expects": (_Section({"lower_shift": (_number, OMITTED), "upper_shift": (_number, OMITTED),
                          "lower_value": (_number, OMITTED), "upper_value": (_number, OMITTED),
                          "tol": (_positive, 1e-3)}), {}),
})


# ---------------------------------------------------------------------------
# config -> objects


def _validate_compatibility(game: Game, sceptic) -> None:
    """Refuse, before any run starts, an aggregating sceptic on a non-mixable game."""
    if isinstance(sceptic, (Level3Sceptic, AggregatingSceptic)):
        try:
            params_for(game)
        except MixabilityViolation as exc:
            raise ConfigError(f"MixabilityViolation: {exc}") from exc


def _load_config(path: str, document: _Section) -> tuple:
    """The config at ``path`` and what it reads as under ``document``, or
    under DIVERGENCE for a ``run`` config with a ``divergence`` section."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8 JSON, or nested past the limit
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if document is RUN and isinstance(cfg, dict) and "divergence" in cfg:
        document = DIVERGENCE
    return cfg, document(cfg)


def _execute_run(cfg: dict, run: dict, seed: int):
    """Play one seeded run of the settings ``run`` read from ``cfg``."""
    game, sceptic = run["game"], run["sceptic"]
    _validate_compatibility(game, sceptic)
    require_checks(run["checks"], sceptic, game)
    trace = run_protocol(run["nature"], run["predictor1"], run["predictor2"], sceptic, game,
                         run["horizon"], seed=seed)
    thresholds = run["thresholds"]
    report = classify_disjuncts(trace, gap_sum_max=thresholds["gap_sum_max"],
                                loss_gap_min=thresholds["loss_gap_min"], config=cfg)
    report = verify_run(trace, run["checks"], sceptic=sceptic, report=report)
    return trace, report


def _parse_prediction(game: Game, text: str):
    """A validated prediction: comma-separated for probability vectors."""
    try:
        gamma = np.array([float(v) for v in text.split(",")]) if game.prediction_shape \
            else float(text)
        game.validate_prediction(gamma)
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"bad prediction {text!r}: {exc}") from exc
    return gamma


def _divergence(query: dict, side: str, method: str = "numeric"):
    """The ``side`` divergence of a read QUERY section by ``method``:
    ``closed``, ``numeric``, or ``auto`` (closed where the game has a form)."""
    game = query["game"]
    if side in ("standard", "kl") and not game.prediction_shape:
        raise ConfigError(f"side {side!r} is a log-loss quantity; the "
                          f"{game.kind.value} game has scalar predictions")
    g1 = _parse_prediction(game, str(query["g1"]))
    g2 = _parse_prediction(game, str(query["g2"]))
    alpha, tol = float(query["alpha"]), float(query["tol"])
    closed = method == "closed" or method == "auto" and (
        side in ("standard", "kl") or game.spec.divergence is not None)
    try:
        if closed:
            return closed_form_divergence(game, g1, g2, alpha, side)
        if side == "lower":
            return lower_alpha_divergence_numeric(game, g1, g2, alpha, tol=tol)
        if side == "upper":
            return upper_alpha_divergence_numeric(game, g1, g2, alpha, tol=tol)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"side {side!r} has no numeric method")


# ---------------------------------------------------------------------------
# subcommands


def _divergence_expectation_check(doc: dict) -> int:
    """Scenario mode asserting expected divergence values instead of a run."""
    query, expects = doc["divergence"], doc["expects"]
    lower, upper = _divergence(query, "lower"), _divergence(query, "upper")
    check_tol = expects["tol"]
    ok = True
    for key, got in (("lower_shift", lower.shift), ("upper_shift", upper.shift),
                     ("lower_value", lower.value), ("upper_value", upper.value)):
        if key in expects:
            good = abs(got - expects[key]) <= check_tol
            ok = ok and good
            print(f"{key}: got {got:.6g}, expected {expects[key]} "
                  f"+- {check_tol:g} -> {'pass' if good else 'FAIL'}")
    print(json.dumps({"lower": lower.to_dict(), "upper": upper.to_dict()}))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_run(args) -> int:
    cfg, run = _load_config(args.config, RUN)
    if "divergence" in run:
        return _divergence_expectation_check(run)
    trace, report = _execute_run(cfg, run, run["seed"])
    trace_path = args.trace_out or run["outputs"]["trace_csv"]
    report_path = args.report_out or run["outputs"]["report_json"]
    write_trace_csv(trace, trace_path)
    write_report_json(report, report_path)
    for name, slack in report.check_slacks.items():
        print(f"check {name}: worst slack {slack:.6g}")
    print(f"verdicts: {', '.join(report.verdicts)}")
    print(f"trace -> {trace_path}; report -> {report_path}")
    return EXIT_OK if report.checks_passed else EXIT_CHECK_FAILED


def cmd_sweep(args) -> int:
    cfg, run = _load_config(args.config, SWEEP)  # checks the whole document first
    worst_slacks: dict = {}
    verdict_histogram: dict = {}
    failures = []
    all_passed = True
    for i, seed in enumerate(run["seeds"]):
        run = SWEEP(cfg) if i else run  # a fresh game and strategies for each later seed
        try:
            _, report = _execute_run(cfg, run, seed)
        except ConfigError:
            raise
        except JeffreysError as exc:
            failures.append({"seed": seed, "error": str(exc)})
            all_passed = False
            continue
        all_passed = all_passed and report.checks_passed
        for name, slack in report.check_slacks.items():
            # np.minimum keeps a NaN slack, which Python's min may drop
            worst_slacks[name] = float(np.minimum(worst_slacks.get(name, math.inf), slack))
        for verdict in report.verdicts:
            verdict_histogram[verdict] = verdict_histogram.get(verdict, 0) + 1
    aggregate = {
        "runs": len(run["seeds"]),
        "failures": failures,
        "worst_slacks": worst_slacks,
        "verdict_histogram": verdict_histogram,
        "all_passed": all_passed,
    }
    out = args.report_out or run["outputs"]["report_json"]
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(aggregate, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(aggregate, sort_keys=True))
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def cmd_divergence(args) -> int:
    game = {"kind": "log_loss" if args.game == "log" else args.game,
            "grid_size": args.grid_size, "m": args.m}
    query = QUERY({"game": {k: v for k, v in game.items() if v is not None}, "g1": args.g1,
                   "g2": args.g2, "alpha": args.alpha, "tol": args.tol})
    print(json.dumps(_divergence(query, args.side, args.method).to_dict()))
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing keeps no
    state in it, and ``main`` looks each command's function up per call."""
    parser = argparse.ArgumentParser(
        prog="jeffreys",
        description="Competitive prediction runs, sweeps, and divergence queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="play one scenario and verify its checks")
    p_run.add_argument("config", help="path to a JSON scenario config")
    p_run.add_argument("--trace-out", default=None, help="trace CSV path")
    p_run.add_argument("--report-out", default=None, help="report JSON path")

    p_sweep = sub.add_parser("sweep", help="run a scenario over a list of seeds")
    p_sweep.add_argument("config", help="path to a JSON scenario config with 'seeds'")
    p_sweep.add_argument("--report-out", default=None, help="aggregate JSON path")

    p_div = sub.add_parser("divergence", help="print one divergence result as JSON")
    p_div.add_argument("--game", required=True,
                       choices=sorted(["log"] + [kind.value for kind in GameKind]))
    p_div.add_argument("--g1", required=True,
                       help="first prediction (comma-separated for log-loss)")
    p_div.add_argument("--g2", required=True)
    p_div.add_argument("--alpha", type=float, default=0.0)
    p_div.add_argument("--side", choices=["lower", "upper", "standard", "kl"],
                       default="lower")
    p_div.add_argument("--method", choices=["auto", "numeric", "closed"],
                       default="auto")
    p_div.add_argument("--tol", type=float, default=1e-6,
                       help="gap-search resolution: the prediction parameter is refined "
                            "to tol * 1e-3")
    p_div.add_argument("--grid-size", type=int)
    p_div.add_argument("--m", type=int)
    return parser


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        command = {"run": cmd_run, "sweep": cmd_sweep, "divergence": cmd_divergence}
        return command[args.command](args)
    # OSError: an output path that cannot be written; MemoryError: a size
    # (a horizon, a grid) too large to allocate
    except (ConfigError, OSError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except JeffreysError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
