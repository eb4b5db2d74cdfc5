"""Command-line front end: seeded runs, sweeps, and divergence queries.

Configuration is a single JSON document (no environment variables), so
every result is reproducible from the config file and seed alone.  Exit
codes are a stable contract: 0 all requested checks passed, 1 a check
failed, 2 the configuration or invocation was invalid.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from .divergence import (DivergenceResult, kl_divergence_log_loss,
                         lower_alpha_divergence_numeric,
                         standard_alpha_divergence_log_loss,
                         upper_alpha_divergence_numeric)
from .aggregating import params_for
from .errors import ConfigError, DomainError, JeffreysError, MixabilityViolation
from .games import Game, GameKind, game_from_descriptor
from .players import nature_strategy, predictor_strategy
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
CONFIG_KEYS = ("checks", "divergence", "expects", "game", "horizon", "nature", "outputs", "seed",
               "predictor1", "predictor2", "sceptic", "seeds", "spec_version", "thresholds")


# ---------------------------------------------------------------------------
# config -> objects


def _build_game(cfg: dict) -> Game:
    desc = cfg.get("game")
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError("config needs a game object with a 'kind'")
    try:
        return game_from_descriptor(desc)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad game descriptor: {exc}") from exc


def _strategy_desc(cfg: dict, key: str) -> tuple:
    desc = cfg.get(key)
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError(f"config needs a {key} object with a 'kind'")
    return desc["kind"], desc.get("params", {})


def _build_sceptic(kind: str, params: dict):
    # the strategies' own range checks raise ValueError on a bad parameter
    try:
        if kind == "level1":
            return Level1Sceptic(c=params.get("c", 0.4))
        if kind == "level2":
            if "alpha" not in params:
                raise ConfigError("level2 sceptic needs an 'alpha' parameter")
            return Level2Sceptic(alpha=params["alpha"],
                                 epsilon=params.get("epsilon", 1e-3))
        if kind == "level3":
            base_desc = params.get("base", {"kind": "level2",
                                            "params": {"alpha": 0.0}})
            base = _build_sceptic(base_desc["kind"], base_desc.get("params", {}))
            return Level3Sceptic(base, k_max=params.get("k_max", 20))
        if kind == "aggregating":
            experts_desc = params.get("experts")
            if not experts_desc:
                raise ConfigError("aggregating sceptic needs a non-empty 'experts' list")
            experts = [predictor_strategy(d["kind"], d.get("params", {}))
                       for d in experts_desc]
            return AggregatingSceptic(experts, priors=params.get("priors"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {kind} sceptic parameters: {exc}") from exc
    raise ConfigError(f"unknown sceptic kind {kind!r}; "
                      "options: ['aggregating', 'level1', 'level2', 'level3']")


def _validate_compatibility(game: Game, sceptic) -> None:
    """Refuse, before any run starts, an aggregating sceptic on a non-mixable game."""
    if isinstance(sceptic, (Level3Sceptic, AggregatingSceptic)):
        try:
            params_for(game)
        except MixabilityViolation as exc:
            raise ConfigError(f"MixabilityViolation: {exc}") from exc


def _check_keys(section: dict, allowed: tuple, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} keys {unknown}; options: {list(allowed)}")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, CONFIG_KEYS, "config")
    version = cfg.get("spec_version", SPEC_VERSION)
    if version != SPEC_VERSION:
        raise ConfigError(f"unsupported spec_version {version}")
    return cfg


def _execute_run(cfg: dict, game: Game, seed: int):
    """Build fresh strategies and play one seeded run."""
    p1 = predictor_strategy(*_strategy_desc(cfg, "predictor1"))
    p2 = predictor_strategy(*_strategy_desc(cfg, "predictor2"))
    nature = nature_strategy(*_strategy_desc(cfg, "nature"))
    sceptic = _build_sceptic(*_strategy_desc(cfg, "sceptic"))
    checks = cfg.get("checks", [])
    _validate_compatibility(game, sceptic)
    require_checks(checks, sceptic, game)
    horizon = cfg.get("horizon")
    if not isinstance(horizon, int) or horizon < 1:
        raise ConfigError("config needs a positive integer 'horizon'")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    thresholds = cfg.get("thresholds", {})
    if not isinstance(thresholds, dict):
        raise ConfigError("'thresholds' must be an object")
    _check_keys(thresholds, ("gap_sum_max", "loss_gap_min"), "thresholds")
    gap_sum_max = thresholds.get("gap_sum_max", DEFAULT_GAP_SUM_MAX)
    loss_gap_min = thresholds.get("loss_gap_min", DEFAULT_LOSS_GAP_MIN)
    for value in (gap_sum_max, loss_gap_min):
        if type(value) not in (int, float) or not math.isfinite(value):
            raise ConfigError(f"thresholds must be finite numbers, got {value!r}")
    trace = run_protocol(nature, p1, p2, sceptic, game, horizon, seed=seed)
    report = classify_disjuncts(trace, gap_sum_max=gap_sum_max,
                                loss_gap_min=loss_gap_min, seed=seed, config=cfg)
    report = verify_run(trace, checks, sceptic=sceptic, report=report)
    return trace, report


# ---------------------------------------------------------------------------
# subcommands


def _divergence_expectation_check(cfg: dict) -> int:
    """Scenario mode asserting expected divergence values instead of a run."""
    section = cfg["divergence"]
    desc = section["game"] if isinstance(section.get("game"), dict) else {"kind": section["game"]}
    game = _build_game({"game": desc})
    g1 = _parse_prediction(game, str(section["g1"]))
    g2 = _parse_prediction(game, str(section["g2"]))
    alpha = float(section.get("alpha", 0.0))
    tol = _check_tol(float(section.get("tol", 1e-4)))
    try:
        lower = lower_alpha_divergence_numeric(game, g1, g2, alpha, tol=tol)
        upper = upper_alpha_divergence_numeric(game, g1, g2, alpha, tol=tol)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    expects = cfg.get("expects", {})
    check_tol = float(expects.get("tol", 1e-3))
    ok = True
    for key, got in (("lower_shift", lower.shift), ("upper_shift", upper.shift),
                     ("lower_value", lower.value), ("upper_value", upper.value)):
        if key in expects:
            good = abs(got - float(expects[key])) <= check_tol
            ok = ok and good
            print(f"{key}: got {got:.6g}, expected {expects[key]} "
                  f"+- {check_tol:g} -> {'pass' if good else 'FAIL'}")
    print(json.dumps({"lower": lower.to_dict(), "upper": upper.to_dict()}))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    if "divergence" in cfg:
        return _divergence_expectation_check(cfg)
    game = _build_game(cfg)
    seed = cfg.get("seed", 0)
    trace, report = _execute_run(cfg, game, seed)
    outputs = cfg.get("outputs", {})
    trace_path = args.trace_out or outputs.get("trace_csv", "trace.csv")
    report_path = args.report_out or outputs.get("report_json", "report.json")
    write_trace_csv(trace, trace_path)
    write_report_json(report, report_path)
    for name, slack in report.check_slacks.items():
        print(f"check {name}: worst slack {slack:.6g}")
    print(f"verdicts: {', '.join(report.verdicts)}")
    print(f"trace -> {trace_path}; report -> {report_path}")
    return EXIT_OK if report.checks_passed else EXIT_CHECK_FAILED


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    seeds = cfg.get("seeds")
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("sweep config needs a non-empty 'seeds' list")
    game = _build_game(cfg)
    worst_slacks: dict = {}
    verdict_histogram: dict = {}
    failures = []
    all_passed = True
    for seed in seeds:
        try:
            _, report = _execute_run(cfg, game, seed)
        except ConfigError:
            raise
        except JeffreysError as exc:
            failures.append({"seed": seed, "error": str(exc)})
            all_passed = False
            continue
        all_passed = all_passed and report.checks_passed
        for name, slack in report.check_slacks.items():
            worst_slacks[name] = min(worst_slacks.get(name, math.inf), slack)
        for verdict in report.verdicts:
            verdict_histogram[verdict] = verdict_histogram.get(verdict, 0) + 1
    aggregate = {
        "runs": len(seeds),
        "failures": failures,
        "worst_slacks": worst_slacks,
        "verdict_histogram": verdict_histogram,
        "all_passed": all_passed,
    }
    out = args.report_out or cfg.get("outputs", {}).get("report_json", "sweep.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(aggregate, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(aggregate, sort_keys=True))
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _parse_prediction(game: Game, text: str):
    """A validated prediction: comma-separated for probability vectors."""
    try:
        gamma = np.array([float(v) for v in text.split(",")]) if game.prediction_shape \
            else float(text)
        game.validate_prediction(gamma)
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"bad prediction {text!r}: {exc}") from exc
    return gamma


def _check_tol(tol: float) -> float:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"tol must be positive and finite, got {tol}")
    return tol


def cmd_divergence(args) -> int:
    if math.isnan(args.alpha):
        raise ConfigError("--alpha must be a number")
    _check_tol(args.tol)
    kind = "log_loss" if args.game == "log" else args.game
    game = _build_game({"game": {"kind": kind, "grid_size": args.grid_size, "m": args.m}})
    if args.side in ("standard", "kl") and not game.prediction_shape:
        raise ConfigError(f"side {args.side!r} is a log-loss quantity; the "
                          f"{game.kind.value} game has scalar predictions")
    g1 = _parse_prediction(game, args.g1)
    g2 = _parse_prediction(game, args.g2)
    alpha = args.alpha
    method = args.method
    closed_form = game.spec.divergence
    if method == "auto":
        method = "closed" if args.side in ("standard", "kl") or closed_form else "numeric"

    try:
        if method == "closed":
            # the raw shift is only meaningful for the geometric (lower/upper)
            # definition; the standard form and the KL limit report it as null
            if args.side == "kl":
                value = kl_divergence_log_loss(g1, g2)
                result = DivergenceResult(-1.0, "kl", value, None, "closed_form", 0.0)
            elif args.side == "standard":
                value = standard_alpha_divergence_log_loss(g1, g2, alpha)
                result = DivergenceResult(alpha, "standard", value, None, "closed_form", 0.0)
            else:
                if closed_form is None:
                    raise ConfigError(f"no closed form for the {game.kind.value} game")
                value = closed_form(game, alpha)(g1, g2)
                shift = value * (1.0 - alpha * alpha) / 4.0 if math.isfinite(value) else value
                result = DivergenceResult(alpha, args.side, value, shift, "closed_form", 0.0)
        elif args.side == "lower":
            result = lower_alpha_divergence_numeric(game, g1, g2, alpha, tol=args.tol)
        elif args.side == "upper":
            result = upper_alpha_divergence_numeric(game, g1, g2, alpha, tol=args.tol)
        else:
            raise ConfigError(f"side {args.side!r} has no numeric method")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(json.dumps(result.to_dict()))
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jeffreys",
        description="Competitive prediction runs, sweeps, and divergence queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="play one scenario and verify its checks")
    p_run.add_argument("config", help="path to a JSON scenario config")
    p_run.add_argument("--trace-out", default=None, help="trace CSV path")
    p_run.add_argument("--report-out", default=None, help="report JSON path")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario over a list of seeds")
    p_sweep.add_argument("config", help="path to a JSON scenario config with 'seeds'")
    p_sweep.add_argument("--report-out", default=None, help="aggregate JSON path")
    p_sweep.set_defaults(func=cmd_sweep)

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
    p_div.add_argument("--grid-size", type=int, default=257)
    p_div.add_argument("--m", type=int, default=2)
    p_div.set_defaults(func=cmd_divergence)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except JeffreysError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
