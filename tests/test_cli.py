"""CLI exit codes, file outputs, and the JSON config surface."""

import argparse
import inspect
import json
import math
import os

import pytest

from jeffreys import cli, serialize
from jeffreys.cli import (DIVERGENCE, GAME, NATURES, OMITTED, PREDICTORS, REQUIRED, RUN,
                          SCEPTICS, _load_config, main)

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "spec_version": 1,
        "game": {"kind": "square"},
        "horizon": 50,
        "seed": 3,
        "predictor1": {"kind": "constant", "params": {"gamma": 0.0}},
        "predictor2": {"kind": "constant", "params": {"gamma": 1.0}},
        "nature": {"kind": "iid_bernoulli", "params": {"p": 0.5}},
        "sceptic": {"kind": "level2", "params": {"alpha": 0.0, "epsilon": 0.001}},
        "checks": ["eq9"],
        "outputs": {"trace_csv": str(tmp_path / "trace.csv"),
                    "report_json": str(tmp_path / "report.json")},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_run_writes_outputs_and_passes(tmp_path):
    path, cfg = write_config(tmp_path)
    assert main(["run", str(path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["checks_passed"] is True
    assert report["check_slacks"]["eq9"] == pytest.approx(1e-3, abs=1e-11)
    trace = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert len(trace) == 51


def test_missing_config_is_usage_error():
    assert main(["run", "/nonexistent/config.json"]) == 2


def test_malformed_config_is_usage_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2


@pytest.mark.parametrize("content", [b'{"horizon": "\xff"}', b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf-8", "nested-past-the-limit"])
def test_config_that_json_cannot_read_is_config_error(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["run", str(path)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err


def test_level3_on_non_mixable_game_is_config_error(tmp_path, capsys):
    path, _ = write_config(
        tmp_path,
        game={"kind": "bounded_absolute"},
        sceptic={"kind": "level3", "params": {"k_max": 4}},
        checks=[],
    )
    assert main(["run", str(path)]) == 2
    assert "MixabilityViolation" in capsys.readouterr().err


@pytest.mark.parametrize("sceptic", [
    {"kind": "aggregating", "params": {"experts": [
        {"kind": "constant", "params": {"gamma": [0.2, 0.3, 0.5]}},
        {"kind": "constant", "params": {"gamma": [0.6, 0.2, 0.2]}}]}},
    {"kind": "level3", "params": {"k_max": 4}},
], ids=["aggregating", "level3"])
def test_log_loss_with_three_outcomes_runs_aggregating_sceptics(tmp_path, sceptic):
    # log loss is mixable at eta = 1 over any finite outcome space
    path, _ = write_config(
        tmp_path,
        game={"kind": "log_loss", "m": 3},
        horizon=20,
        predictor1={"kind": "constant", "params": {"gamma": [0.2, 0.3, 0.5]}},
        predictor2={"kind": "constant", "params": {"gamma": [0.5, 0.25, 0.25]}},
        nature={"kind": "constant", "params": {"omega": 2}},
        sceptic=sceptic,
        checks=["eq8"],
    )
    assert main(["run", str(path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["checks_passed"] is True


def test_quartic_runs_the_aggregating_sceptic_from_its_table_entry(tmp_path):
    # (eta, C) = (9/16, 16/9) on the default grids; the uniform Nature plays
    # outcomes off the outcome grid
    experts = [{"kind": "constant", "params": {"gamma": g}}
               for g in (-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9)]
    path, _ = write_config(
        tmp_path,
        game={"kind": "quartic"},
        horizon=300,
        nature={"kind": "iid_uniform", "params": {"lo": -1.0, "hi": 1.0}},
        sceptic={"kind": "aggregating", "params": {"experts": experts}},
        checks=["eq8"],
    )
    assert main(["run", str(path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["checks_passed"] is True
    assert report["check_slacks"]["eq8"] >= 0.0


TWO_EXPERTS = [{"kind": "constant", "params": {"gamma": 0.2}},
               {"kind": "constant", "params": {"gamma": 0.7}}]


@pytest.mark.parametrize("sceptic", [
    {"kind": "level2", "params": {"alpha": 1.5}},
    {"kind": "level2", "params": {"alpha": -1.0}},
    {"kind": "level2", "params": {"alpha": float("nan")}},
    {"kind": "level2", "params": {"alpha": 0.0, "epsilon": 0.0}},
    {"kind": "level2", "params": {"alpha": 0.0, "epsilon": -1.0}},
    {"kind": "level2", "params": {"alpha": 0.0, "epsilon": float("nan")}},
    {"kind": "level3", "params": {"base": {"kind": "level2", "params": {"alpha": 1.5}}}},
    {"kind": "level3", "params": {"k_max": 2.5}},
    {"kind": "level3", "params": {"k_max": True}},
    {"kind": "level3", "params": {"k_max": 0}},
    {"kind": "level3", "params": {"k_max": 1100}},
    {"kind": "aggregating", "params": {"experts": TWO_EXPERTS, "priors": [0.6, 0.6]}},
    {"kind": "aggregating", "params": {"experts": TWO_EXPERTS, "priors": [0.5, 0.0]}},
    {"kind": "aggregating", "params": {"experts": TWO_EXPERTS, "priors": [0.5]}},
], ids=["alpha-1.5", "alpha-minus-1", "alpha-nan", "epsilon-0", "epsilon-minus-1",
        "epsilon-nan", "level3-base-alpha-1.5", "k-max-2.5", "k-max-true", "k-max-0",
        "k-max-1100", "priors-sum-above-1", "priors-zero", "priors-too-few"])
def test_bad_sceptic_parameter_is_config_error(tmp_path, capsys, sceptic):
    path, _ = write_config(tmp_path, game={"kind": "bounded_square"}, sceptic=sceptic,
                           checks=[])
    assert main(["run", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("game", [
    {"kind": "square", "grid_size": 0},
    {"kind": "square", "grid_size": 1},
    {"kind": "square", "grid_size": 2.7},
    {"kind": "square", "grid_size": "65"},
    {"kind": "log_loss", "m": 0},
    {"kind": "log_loss", "m": 2.7},
], ids=["grid-size-0", "grid-size-1", "grid-size-2.7", "grid-size-string", "m-0", "m-2.7"])
def test_bad_game_size_is_config_error(tmp_path, capsys, game):
    path, _ = write_config(tmp_path, game=game)
    assert main(["run", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.fixture
def no_run(monkeypatch):
    # a config refused before the run never starts the engine
    def refuse(*args, **kwargs):
        raise AssertionError("run_protocol called for a config that must be refused")
    monkeypatch.setattr("jeffreys.cli.run_protocol", refuse)


@pytest.mark.parametrize("overrides", [
    {"sceptic": {"kind": "level1", "params": {}}, "checks": ["eq9"]},
    {"checks": ["eq8"]},
    {"game": {"kind": "bounded_square"},
     "sceptic": {"kind": "aggregating", "params": {"experts": TWO_EXPERTS}},
     "checks": ["ledger"]},
    {"checks": ["martingale_null"]},
    {"checks": "eq9"},
    {"checks": ["nonsense"]},
], ids=["eq9-level1", "eq8-level2", "ledger-aggregating", "martingale-null-square",
        "checks-not-a-list", "unknown-check"])
def test_check_not_certified_is_config_error(tmp_path, capsys, no_run, overrides):
    path, _ = write_config(tmp_path, **overrides)
    assert main(["run", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"nature": {"kind": "iid_bernoulli", "params": {"p": "0.5"}}},
    {"nature": {"kind": "iid_uniform", "params": {"hi": "1"}}},
    {"nature": {"kind": "constant", "params": {}}},
    {"predictor1": {"kind": "drift", "params": {"gamma0": 0.0}}},
    {"predictor1": {"kind": "constant", "params": {"gamma": "abc"}}},
    {"nature": {"kind": "replay", "params": {"values": []}}},
    {"nature": {"kind": "replay", "params": {"values": "abc"}}},
    {"nature": {"kind": "replay", "params": {"file": "/nonexistent/outcomes.txt"}}},
    {"seed": -1},
    {"seed": "x"},
    {"seed": True},
    {"thresholds": {"gap_sum_max": "1"}},
    {"thresholds": {"loss_gap_min": float("inf")}},
    {"predictor1": {"kind": "constant", "params": {"gamma": "0.5"}}},
    {"predictor1": {"kind": "constant", "params": {"gamma": [0.5, "0.5"]}}},
    {"thresholds": {"gap_sum": 0.0}},
    {"chekcs": ["eq9"]},
    {"game": {"kind": "bounded_square"},
     "predictor1": {"kind": "constant", "params": {"gamma": float("nan")}}},
    {"predictor1": {"kind": "constant", "params": {"gamma": [0.5, float("inf")]}}},
    {"predictor2": {"kind": "drift", "params": {"gamma0": 0.0, "delta": float("inf")}}},
    {"nature": {"kind": "constant", "params": {"omega": float("nan")}}},
    {"outputs": 3},
    {"nature": {"kind": "iid_bernoulli", "params": 3}},
], ids=["bernoulli-p-string", "uniform-hi-string", "constant-nature-no-omega",
        "drift-no-delta", "constant-gamma-abc", "replay-empty", "replay-string",
        "replay-no-file", "seed-negative", "seed-string", "seed-bool", "threshold-string",
        "threshold-inf", "constant-gamma-numeric-string", "constant-gamma-vector-string",
        "threshold-unknown-key", "unknown-top-level-key", "constant-gamma-nan",
        "constant-gamma-vector-inf", "drift-delta-inf", "constant-omega-nan",
        "outputs-not-an-object", "nature-params-not-an-object"])
def test_bad_player_or_run_parameter_is_config_error(tmp_path, capsys, no_run, overrides):
    path, _ = write_config(tmp_path, **overrides)
    assert main(["run", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("nature,outcome", [
    ({"kind": "replay", "params": {"values": [0.5, 1.9, 1]}}, "outcome 0.5"),
    ({"kind": "constant", "params": {"omega": 0.7}}, "outcome 0.7"),
], ids=["replay", "constant"])
def test_non_integral_log_loss_outcome_is_refused_not_truncated(tmp_path, capsys, nature,
                                                                 outcome):
    path, _ = write_config(
        tmp_path,
        game={"kind": "log_loss", "m": 2},
        predictor1={"kind": "constant", "params": {"gamma": [0.8, 0.2]}},
        predictor2={"kind": "constant", "params": {"gamma": [0.3, 0.7]}},
        nature=nature,
    )
    assert main(["run", str(path)]) == 1
    assert f"step 1: nature: {outcome} not in 0..1" in capsys.readouterr().err


@pytest.mark.parametrize("overrides,message", [
    # the only expert loses +inf at step 1: no weight is left for step 2
    ({"predictor1": {"kind": "constant", "params": {"gamma": [0.5, 0.5]}},
      "predictor2": {"kind": "constant", "params": {"gamma": [0.5, 0.5]}},
      "nature": {"kind": "constant", "params": {"omega": 1}},
      "sceptic": {"kind": "aggregating",
                  "params": {"experts": [{"kind": "constant", "params": {"gamma": [1, 0]}}]}},
      "checks": ["eq8"]},
     "error: step 2: every expert has suffered infinite loss"),
    ({"predictor1": {"kind": "constant", "params": {"gamma": [1, 0]}},
      "predictor2": {"kind": "constant", "params": {"gamma": [0, 1]}}},
     "error: step 1: predictions have disjoint support; divergence is infinite"),
    ({"game": {"kind": "log_loss", "m": 3},
      "predictor1": {"kind": "constant", "params": {"gamma": [1, 0, 0]}},
      "predictor2": {"kind": "constant", "params": {"gamma": [0, 1, 0]}}},
     "error: step 1: predictions have disjoint support; divergence is infinite"),
], ids=["pool_collapse", "disjoint_support", "disjoint_support_m3"])
def test_an_error_that_ends_a_run_names_its_step(tmp_path, capsys, overrides, message):
    path, _ = write_config(tmp_path, **{"game": {"kind": "log_loss", "m": 2}, **overrides})
    assert main(["run", str(path)]) == 1
    assert message in capsys.readouterr().err


def test_a_replay_of_an_empty_file_is_config_error(tmp_path, capsys):
    (tmp_path / "outcomes.txt").write_text("")
    path, _ = write_config(tmp_path, nature={"kind": "replay",
                                             "params": {"file": str(tmp_path / "outcomes.txt")}})
    assert main(["run", str(path)]) == 2
    assert ("config error: nature params: replay needs at least one outcome"
            in capsys.readouterr().err)


def test_eq9_runs_on_numeric_path_games(tmp_path):
    path, _ = write_config(
        tmp_path,
        game={"kind": "bounded_absolute"},
        predictor1={"kind": "constant", "params": {"gamma": 0.2}},
        predictor2={"kind": "constant", "params": {"gamma": 0.8}},
    )
    assert main(["run", str(path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["checks_passed"] is True
    assert report["check_slacks"]["eq9"] >= -1e-9


def test_out_of_domain_adversarial_candidate_is_config_error(tmp_path, capsys):
    path, _ = write_config(
        tmp_path,
        game={"kind": "bounded_square"},
        nature={"kind": "adversarial_greedy", "params": {"candidates": [0.0, 2.0]}},
    )
    assert main(["run", str(path)]) == 2
    assert "adversarial_greedy candidate: outcome 2.0 outside" in capsys.readouterr().err


def test_unknown_strategy_kind_is_config_error(tmp_path):
    path, _ = write_config(tmp_path, sceptic={"kind": "psychic", "params": {}})
    assert main(["run", str(path)]) == 2


@pytest.mark.parametrize("role,kind", [("nature", "weather"), ("predictor1", "oracle")])
def test_unknown_player_kind_is_config_error(tmp_path, capsys, no_run, role, kind):
    path, _ = write_config(tmp_path, **{role: {"kind": kind, "params": {}}})
    assert main(["run", str(path)]) == 2
    assert f"config error: {role} kind must be one of" in capsys.readouterr().err


def test_constant_nature_and_running_mean_predictor_build_from_descriptors(tmp_path):
    path, _ = write_config(tmp_path, game={"kind": "bounded_square"},
                           nature={"kind": "constant", "params": {"omega": 0.5}},
                           predictor2={"kind": "running_mean"})
    assert main(["run", str(path)]) == 0


def test_divergence_subcommand_quartic(capsys):
    assert main(["divergence", "--game", "quartic", "--g1", "-1", "--g2", "1",
                 "--alpha", "0", "--side", "lower", "--tol", "1e-4"]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert abs(out["shift"] - 1.0) <= 1e-3
    assert abs(out["value"] - 4.0) <= 4e-3
    assert main(["divergence", "--game", "quartic", "--g1", "-1", "--g2", "1",
                 "--alpha", "0", "--side", "upper", "--tol", "1e-4"]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert abs(out["shift"] - 7.0) <= 1e-3


def test_divergence_subcommand_square_closed_form(capsys):
    assert main(["divergence", "--game", "square", "--g1", "3", "--g2", "5"]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["value"] == 4.0
    assert out["method"] == "closed_form"


def test_divergence_subcommand_square_beyond_the_float_range_is_inf(capsys):
    # without an overflow warning, which the suite's filter makes an error
    assert main(["divergence", "--game", "square", "--g1", "1e300", "--g2=-1e300"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == float("inf")


# 10^15 float64s, 7.1 PiB: past any address space, so numpy refuses the
# allocation before it maps anything
@pytest.mark.parametrize("command", ["run", "divergence"])
def test_a_size_too_large_to_allocate_is_config_error(tmp_path, capsys, command):
    if command == "run":
        path, _ = write_config(tmp_path, horizon=10 ** 15,
                               nature={"kind": "constant", "params": {"omega": 0.5}})
        argv = ["run", str(path)]
    else:
        argv = ["divergence", "--game", "quartic", "--g1", "-1", "--g2", "1",
                "--grid-size", str(10 ** 15)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: Unable to allocate") and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["--game", "log", "--g1", "0.5,0.7", "--g2", "0.3,0.7"],
    ["--game", "log", "--m", "3", "--g1", "0.5,0.5", "--g2", "0.3,0.7"],
    ["--game", "bounded_square", "--g1", "1.5", "--g2", "0.2", "--method", "closed"],
    ["--game", "bounded_square", "--g1", "1.5", "--g2", "0.2", "--method", "numeric"],
    ["--game", "square", "--g1", "0.2,0.3", "--g2", "0.2"],
], ids=["off-simplex", "wrong-length", "out-of-bounds-closed", "out-of-bounds-numeric",
        "vector-on-scalar-game"])
def test_divergence_rejects_bad_predictions(args, capsys):
    assert main(["divergence"] + args) == 2
    assert "config error: bad prediction" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--game", "log", "--g1", "0.5,0.5", "--g2", "0.9,0.1", "--alpha", "1.5"],
    ["--game", "bounded_absolute", "--g1", "0.2", "--g2", "0.8", "--alpha", "1.5"],
    ["--game", "log", "--g1", "0.5,0.5", "--g2", "0.9,0.1", "--alpha", "1", "--side",
     "standard"],
    ["--game", "square", "--g1", "0.2", "--g2", "0.8", "--alpha", "nan"],
    ["--game", "log", "--g1", "0.5,0.5", "--g2", "0.9,0.1", "--alpha", "nan", "--side", "kl"],
    ["--game", "quartic", "--g1", "-1", "--g2", "1", "--alpha", "nan"],
    ["--game", "log", "--m", "1", "--g1", "1", "--g2", "1"],
    ["--game", "log", "--m", "3", "--g1", "0.2,0.3,0.5", "--g2", "0.5,0.3,0.2",
     "--method", "numeric"],
    ["--game", "quartic", "--g1", "-1", "--g2", "1", "--tol", "0"],
    ["--game", "quartic", "--g1", "-1", "--g2", "1", "--tol=-1e-4"],
    ["--game", "quartic", "--g1", "-1", "--g2", "1", "--tol", "nan"],
    ["--game", "quartic", "--g1", "-1", "--g2", "1", "--tol", "inf"],
    ["--game", "bounded_absolute", "--g1", "0.2", "--g2", "0.8", "--grid-size", "1"],
    ["--game", "quartic", "--g1", "-1", "--g2", "1", "--grid-size", "0"],
], ids=["alpha-closed", "alpha-numeric", "alpha-1-standard", "alpha-nan-closed",
        "alpha-nan-kl", "alpha-nan-numeric", "m-1", "m-3-numeric", "tol-zero", "tol-negative",
        "tol-nan", "tol-inf", "grid-size-1", "grid-size-0"])
def test_divergence_rejects_bad_parameters(args, capsys):
    assert main(["divergence"] + args) == 2
    assert "config error: " in capsys.readouterr().err


@pytest.mark.parametrize("args,message", [
    (["--game", "log", "--g1", "0.5,0.5", "--g2", "0.3,0.7", "--side", "kl", "--method",
      "numeric"], "side 'kl' has no numeric method"),
    (["--game", "quartic", "--g1", "0", "--g2", "0.5", "--method", "closed"],
     "no closed form for the quartic game"),
], ids=["kl-numeric", "quartic-closed"])
def test_divergence_refuses_a_method_the_question_has_not(args, message, capsys):
    assert main(["divergence"] + args) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("side", ["standard", "kl"])
def test_divergence_log_loss_sides_need_probability_vectors(side, capsys):
    assert main(["divergence", "--game", "square", "--g1", "0.2", "--g2", "0.8",
                 "--side", side]) == 2
    assert "is a log-loss quantity" in capsys.readouterr().err
    assert main(["divergence", "--game", "log", "--g1", "0.5,0.5", "--g2", "0.25,0.75",
                 "--side", side]) == 0


def test_divergence_auto_takes_the_closed_form_from_the_table(capsys):
    assert main(["divergence", "--game", "bounded_square", "--g1", "0.2", "--g2", "0.8"]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["method"] == "closed_form"
    assert out["value"] == (0.2 - 0.8) * (0.2 - 0.8)


def test_divergence_unbracketable_still_exits_zero(capsys):
    assert main(["divergence", "--game", "log", "--g1", "1,0", "--g2", "0,1",
                 "--side", "lower", "--method", "numeric"]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["value"] == float("inf")
    assert out["bracketed"] is False


def test_sweep_empty_seeds_is_usage_error(tmp_path):
    path, _ = write_config(tmp_path, seeds=[])
    assert main(["sweep", str(path)]) == 2


@pytest.mark.parametrize("overrides", [
    {"sceptic": {"kind": "level2", "params": {"alpha": 1.5}}},
    {"game": {"kind": "bounded_absolute"},
     "sceptic": {"kind": "level3", "params": {"k_max": 4}}, "checks": []},
    {"seeds": [1, "x"]},
    {"chekcs": ["eq9"]},
    {"thresholds": {"gap_sum": 0.0}},
], ids=["level2-alpha-1.5", "level3-on-bounded-absolute", "seed-string",
        "unknown-top-level-key", "threshold-unknown-key"])
def test_sweep_config_error_exits_two(tmp_path, capsys, overrides):
    # a config error is the same on every seed: the sweep stops with it
    path, _ = write_config(tmp_path, **{"seeds": [1, 2], **overrides},
                           outputs={"report_json": str(tmp_path / "sweep.json")})
    assert main(["sweep", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "sweep.json").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("outputs", [
    {"trace_csv": 1},
    {"trace_csv": ""},
    {"report_json": None},
    {"report_json": ["report.json"]},
], ids=["trace-csv-fd", "trace-csv-empty", "report-json-null", "report-json-list"])
def test_output_path_not_a_string_is_config_error(tmp_path, capsys, no_run, command,
                                                  outputs):
    # refused before the run: an integer path would open a file descriptor
    path, _ = write_config(tmp_path, seeds=[1, 2], outputs=outputs)
    assert main([command, str(path)]) == 2
    assert "config error: outputs" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_output_path_that_cannot_be_written_is_config_error(tmp_path, capsys, command):
    missing = str(tmp_path / "missing" / "out")
    path, _ = write_config(tmp_path, seeds=[1], outputs={"trace_csv": missing,
                                                         "report_json": missing})
    assert main([command, str(path)]) == 2
    assert "config error: [Errno 2] No such file or directory" in capsys.readouterr().err


def test_sweep_single_seed_matches_run(tmp_path):
    path, cfg = write_config(
        tmp_path, seeds=[3],
        outputs={"report_json": str(tmp_path / "sweep.json")})
    assert main(["sweep", str(path)]) == 0
    agg = json.loads((tmp_path / "sweep.json").read_text())
    assert agg["runs"] == 1
    assert agg["all_passed"] is True
    assert agg["worst_slacks"]["eq9"] == pytest.approx(1e-3, abs=1e-11)


def test_sweep_aggregates_verdicts(tmp_path):
    path, _ = write_config(
        tmp_path, seeds=[1, 2, 3, 4],
        thresholds={"gap_sum_max": 1.0, "loss_gap_min": 5.0},
        outputs={"report_json": str(tmp_path / "sweep.json")})
    assert main(["sweep", str(path)]) == 0
    agg = json.loads((tmp_path / "sweep.json").read_text())
    assert sum(agg["verdict_histogram"].values()) >= 4


def test_missing_arguments_exit_code():
    assert main(["run"]) == 2
    assert main([]) == 2


def test_bundled_divergence_scenario_passes(capsys):
    assert main(["run", os.path.join(SCENARIOS, "remark1_quartic.json")]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


@pytest.mark.parametrize("section", [{"tol": 0.0}, {"alpha": 1.5},
                                     {"game": {"kind": "quartic", "grid_size": 1}}],
                         ids=["tol-zero", "alpha-outside", "grid-size-1"])
def test_divergence_scenario_rejects_bad_parameters(tmp_path, section):
    cfg = {"spec_version": 1,
           "divergence": {"game": {"kind": "quartic"}, "g1": -1.0, "g2": 1.0, **section},
           "expects": {"lower_shift": 1.0}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 2


@pytest.mark.parametrize("cfg", [
    {"divergence": {"game": {"kind": "quartic"}, "g2": 1.0}},
    {"divergence": {"game": {"kind": "quartic"}, "g1": -1.0, "g2": 1.0, "alpha": "abc"}},
    {"divergence": {"game": {"kind": "quartic"}, "g1": -1.0, "g2": 1.0},
     "expects": {"tol": "x"}},
    {"divergence": 3},
    {"divergence": {"game": {"kind": "quartic"}, "g1": -1.0, "g2": 1.0},
     "expects": {"lower_shift": "x"}},
], ids=["no-g1", "alpha-string", "expects-tol-string", "not-an-object",
        "expected-value-string"])
def test_divergence_section_of_the_wrong_shape_is_config_error(tmp_path, capsys, cfg):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"spec_version": 1, **cfg}))
    assert main(["run", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("sceptic", [
    {"kind": "aggregating", "params": {"experts": [{"params": {"gamma": 0.2}}]}},
    {"kind": "level3", "params": {"base": {"params": {}}}},
    {"kind": "level3", "params": {"base": {"kind": "level2", "params": [0.0]}}},
], ids=["aggregating-expert-without-kind", "level3-base-without-kind",
        "level3-base-params-not-an-object"])
def test_nested_sceptic_section_of_the_wrong_shape_is_config_error(tmp_path, capsys, no_run,
                                                                   sceptic):
    path, _ = write_config(tmp_path, game={"kind": "bounded_square"}, sceptic=sceptic,
                           checks=["eq8"])
    assert main(["run", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_failed_expectation_exits_one(tmp_path):
    cfg = {
        "spec_version": 1,
        "divergence": {"game": {"kind": "quartic"}, "g1": -1.0, "g2": 1.0,
                       "alpha": 0.0, "tol": 1e-3},
        "expects": {"lower_shift": 2.0, "tol": 1e-3},
    }
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 1


@pytest.mark.parametrize("experts", [
    [[0.2, 0.2], [0.1, 0.3]],
    [[0.5, 0.5], [0.7, 0.7]],
    [[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]],
    [[0.7, 0.7], None],
], ids=["mass-below-one", "mass-above-one", "length-3-on-binary", "beside-a-learner"])
def test_invalid_constant_expert_is_config_error(tmp_path, capsys, experts):
    # each constant expert is validated once, at reset, before the first
    # step, also beside a learning (running-mean, None here) expert
    path, _ = write_config(
        tmp_path, game={"kind": "log_loss", "m": 2},
        predictor1={"kind": "constant", "params": {"gamma": [0.5, 0.5]}},
        predictor2={"kind": "constant", "params": {"gamma": [0.4, 0.6]}},
        sceptic={"kind": "aggregating", "params": {"experts": [
            {"kind": "constant", "params": {"gamma": g}} if g is not None
            else {"kind": "running_mean"} for g in experts]}},
        checks=["eq8"])
    assert main(["run", str(path)]) == 2
    assert "config error: aggregating expert" in capsys.readouterr().err


def test_level1_plays_on_after_an_infinite_loss_difference(tmp_path):
    # predictor 1 gives the outcome 1 probability zero: its first 1 makes D
    # infinite, and the mixture weights take their limits 1/2 +- c
    path, _ = write_config(
        tmp_path,
        game={"kind": "log_loss", "m": 2},
        horizon=50,
        seed=5,
        predictor1={"kind": "constant", "params": {"gamma": [1.0, 0.0]}},
        predictor2={"kind": "constant", "params": {"gamma": [0.5, 0.5]}},
        nature={"kind": "iid_bernoulli", "params": {"p": 0.3}},
        sceptic={"kind": "level1", "params": {}},
        checks=[],
    )
    assert main(["run", str(path)]) == 0
    trace = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert len(trace) == 51


@pytest.mark.parametrize("overrides", [
    {"horizon": True},
    {"nature": {"kind": "adversarial_greedy", "params": {"candidates": "ab"}}},
    {"nature": {"kind": "adversarial_greedy", "params": {"candidates": []}}},
    {"predictor1": {"kind": "constant", "params": {"gamma": [0.5]}}},
    {"sceptic": {"kind": "level2", "params": {"alpha": 0.0, "epsilon": float("inf")}}},
    {"sceptic": {"kind": "level2", "params": {"alpha": 0.0, "epsillon": 0.001}}},
    {"predictor2": {"kind": "constant", "params": {"gamma": 1.0, "gama": 1.0}}},
    {"game": {"kind": "square", "grid_sise": 65}},
    {"nature": {"kind": "iid_bernoulli", "params": {"p": 0.5}, "parms": {"p": 0.5}}},
    {"nature": {"kind": "iid_bernoulli", "params": {"p": True}}},
    {"game": {"kind": "bounded_square"},
     "sceptic": {"kind": "aggregating",
                 "params": {"experts": TWO_EXPERTS[:1], "priors": [True]}},
     "checks": ["eq8"]},
    {"nature": {"kind": "adversarial_greedy", "params": {"candidates": [0.5, True]}}},
    {"game": {"kind": "log_loss", "m": 3},
     "predictor1": {"kind": "constant", "params": {"gamma": [0.2, 0.3, 0.5]}},
     "predictor2": {"kind": "running_mean"}, "nature": {"kind": "constant", "params": {"omega": 2}},
     "sceptic": {"kind": "aggregating", "params": {"experts": [
         {"kind": "running_mean"}, {"kind": "noisy_target", "params": {"target": 0.3}}]}},
     "checks": ["eq8"]},
], ids=["horizon-true", "candidates-string", "candidates-empty", "vector-gamma-on-scalar-game",
        "epsilon-inf", "sceptic-param-misspelt", "predictor-param-misspelt",
        "game-key-misspelt", "params-misspelt-beside-params", "bernoulli-p-true",
        "priors-true", "candidate-true", "number-expert-on-three-outcomes"])
def test_config_hole_is_config_error(tmp_path, capsys, overrides):
    path, _ = write_config(tmp_path, **{"horizon": 20, **overrides})
    assert main(["run", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [
    {"expects": {"tol": float("inf"), "lower_shift": 99}},
    {"expects": {"tol": -1e-3, "lower_shift": 1.0}},
    {"expects": {"tol": float("nan"), "lower_shift": 1.0}},
    {"expects": {"lowr_shift": 1.0}},
    {"expects": {"lower_shift": float("inf")}},
    {"divergence": {"game": {"kind": "quartic"}, "g1": -1.0, "g2": 1.0, "alpah": 0.0}},
], ids=["expects-tol-inf", "expects-tol-negative", "expects-tol-nan", "expects-key-misspelt",
        "expected-value-inf", "divergence-key-misspelt"])
def test_divergence_document_hole_is_config_error(tmp_path, capsys, cfg):
    doc = {"spec_version": 1,
           "divergence": {"game": {"kind": "quartic"}, "g1": -1.0, "g2": 1.0}, **cfg}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(os.listdir(SCENARIOS)))
def test_reading_a_bundled_scenario_leaves_its_document_as_written(name):
    # the report embeds the document: the schema's defaults go to fresh settings
    path = os.path.join(SCENARIOS, name)
    cfg, read = _load_config(path, RUN)
    assert ("divergence" in read) == name.startswith("remark1")
    with open(path, encoding="utf-8") as fh:
        assert cfg == json.load(fh)


def test_the_constructors_own_the_strategy_and_game_defaults():
    # an optional key not given is not passed, so the constructor's default
    # applies; a literal in the table is allowed only where there is none
    literals = []
    for kinds in (NATURES, PREDICTORS, SCEPTICS):
        for kind, section in kinds.items():
            parameters = inspect.signature(section.make).parameters
            for key, (_, default) in section.table.items():
                if parameters[key].default is not inspect.Parameter.empty:
                    assert default is OMITTED, (kind, key)
                elif default is not REQUIRED:
                    literals.append((kind, key))
    assert literals == [("level3", "base")]
    assert all(default is REQUIRED or default is OMITTED for _, default in GAME.table.values())


@pytest.mark.parametrize("game,g1,g2", [("quartic", -1.0, 1.0), ("bounded_absolute", 0.2, 0.7)])
def test_a_divergence_document_and_its_flags_answer_alike(tmp_path, capsys, game, g1, g2):
    # the flags are read as the document's divergence section
    path = tmp_path / "div.json"
    path.write_text(json.dumps({"spec_version": 1, "divergence": {
        "game": {"kind": game}, "g1": g1, "g2": g2, "alpha": 0.3, "tol": 1e-4}}))
    assert main(["run", str(path)]) == 0
    answers = json.loads(capsys.readouterr().out)
    for side in ("lower", "upper"):
        assert main(["divergence", "--game", game, "--g1", str(g1), "--g2", str(g2),
                     "--alpha", "0.3", "--tol", "1e-4", "--method", "numeric",
                     "--side", side]) == 0
        assert json.loads(capsys.readouterr().out) == answers[side]


def test_readme_tables_name_every_key_of_the_schema():
    with open(os.path.join(SCENARIOS, "..", "README.md"), encoding="utf-8") as fh:
        rows = [line for line in fh.read().splitlines() if line.startswith("| ")]
    for role, kinds in (("nature", NATURES), ("predictor", PREDICTORS),
                        ("sceptic", SCEPTICS)):
        for kind, section in kinds.items():
            described = " ".join(r for r in rows if r.startswith(f"| {role} `{kind}` |"))
            assert all(f"`{key}`" in described for key in section.table), (role, kind)

    def keys(section):
        for key, (check, _) in section.table.items():
            yield key
            if hasattr(check, "table"):
                yield from keys(check)

    text = " ".join(rows)
    for document in (RUN, DIVERGENCE):
        assert all(f"`{key}`" in text for key in keys(document))


# only horizons numpy refuses before it allocates anything
@pytest.mark.parametrize("horizon", [10 ** 400, 2 ** 62], ids=["10**400", "2**62"])
@pytest.mark.parametrize("overrides", [
    {"nature": {"kind": "iid_bernoulli", "params": {"p": 0.5}}},
    {"nature": {"kind": "iid_uniform", "params": {"lo": 0.0, "hi": 1.0}}},
    {"predictor1": {"kind": "noisy_target", "params": {"target": 0.5}}},
], ids=["bernoulli", "uniform", "noisy-target"])
def test_horizon_too_long_to_draw_is_config_error(tmp_path, capsys, horizon, overrides):
    path, _ = write_config(tmp_path, horizon=horizon, **overrides)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and f"horizon {horizon} " in err


@pytest.mark.parametrize("command,cfg,code", [
    ("run", {"predictor1": {"kind": "constant", "params": {"gamma": 1e300}}}, 1),
    ("run", {"nature": {"kind": "adversarial_greedy",
                        "params": {"candidates": [1e300, -1e300]}}}, 1),
    ("run", {"seed": 1, "predictor1": {"kind": "noisy_target",
                                       "params": {"target": 0.5, "sigma": 1e308}}}, 1),
    ("divergence", {"divergence": {"game": {"kind": "square"}, "g1": 1e300, "g2": -1e300}}, 0),
], ids=["constant-1e300", "candidates-1e300", "noisy-target-sigma-1e308", "divergence-1e300"])
def test_losses_beyond_the_float_range_keep_the_exit_contract(tmp_path, capsys, command, cfg,
                                                             code):
    # the losses are +inf, without an escaping RuntimeWarning; eq9 fails on
    # inf - inf, and the divergences are inf
    if command == "divergence":
        path = tmp_path / "div.json"
        path.write_text(json.dumps({"spec_version": 1, **cfg}))
    else:
        path, _ = write_config(tmp_path, horizon=20, **cfg)
    assert main(["run", str(path)]) == code
    if command == "divergence":
        assert '"value": Infinity' in capsys.readouterr().out


def test_uniform_nature_width_beyond_the_float_range_is_config_error(tmp_path, capsys):
    # lo and hi are finite, but numpy cannot draw over a width of +inf
    path, _ = write_config(tmp_path, horizon=5, nature={
        "kind": "iid_uniform", "params": {"lo": -1e308, "hi": 1e308}})
    assert main(["run", str(path)]) == 2
    assert "config error: uniform nature needs lo < hi a finite width apart" \
        in capsys.readouterr().err


def test_level1_ledger_of_losses_near_the_float_range(tmp_path):
    # both losses are 1e308 at every step: their mean is finite, and the
    # running excess reaches -inf without an overflow warning, which the
    # suite's filter makes an error
    path, _ = write_config(
        tmp_path, horizon=5, game={"kind": "absolute"},
        predictor1={"kind": "constant", "params": {"gamma": 1e308}},
        predictor2={"kind": "constant", "params": {"gamma": -1e308}},
        nature={"kind": "constant", "params": {"omega": 0.0}},
        sceptic={"kind": "level1", "params": {}}, checks=["ledger"])
    assert main(["run", str(path)]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["check_slacks"] == {"ledger": 0.0}


def test_level1_ledger_holds_at_a_million_steps(tmp_path):
    # D grows by about 0.5 a step: each of its additions rounds, and the
    # ledger must count that rounding for the faithful run to pass
    path, _ = write_config(
        tmp_path, horizon=10**6, game={"kind": "absolute"},
        predictor1={"kind": "constant", "params": {"gamma": 0.2}},
        predictor2={"kind": "constant", "params": {"gamma": 0.9}},
        nature={"kind": "iid_bernoulli", "params": {"p": 0.9}},
        sceptic={"kind": "level1", "params": {"c": 0.4}}, checks=["ledger"])
    assert main(["run", str(path)]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["checks_passed"] is True


def test_sweep_keeps_a_nan_slack(tmp_path):
    # every seed's eq9 slack is NaN (inf - inf losses): the aggregate says so
    path, _ = write_config(
        tmp_path, seeds=[1, 2, 3],
        predictor1={"kind": "constant", "params": {"gamma": 1e308}},
        predictor2={"kind": "constant", "params": {"gamma": -1e308}},
        outputs={"report_json": str(tmp_path / "sweep.json")})
    assert main(["sweep", str(path)]) == 1
    agg = json.loads((tmp_path / "sweep.json").read_text())
    assert math.isnan(agg["worst_slacks"]["eq9"])
    assert agg["all_passed"] is False


def test_one_parser_serves_every_call_as_a_fresh_one_would(tmp_path, capsys, monkeypatch):
    path, _ = write_config(tmp_path)
    calls = [["run", str(path), "--trace-out", str(tmp_path / "flags.csv"),
              "--report-out", str(tmp_path / "flags.json")],
             ["run", str(path)],  # to the document's outputs
             ["divergence", "--game", "square", "--g1", "0.2", "--g2", "0.8"],
             ["run", str(path), "--no-such-flag"]]

    def outcomes(fresh_parser: bool) -> list:
        seen = []
        for argv in calls:
            if fresh_parser:
                cli.build_parser.cache_clear()
            code = main(argv)
            out = capsys.readouterr()
            written = {}
            for name in ("flags.csv", "flags.json", "trace.csv", "report.json"):
                if (tmp_path / name).exists():
                    written[name] = (tmp_path / name).read_bytes()
                    (tmp_path / name).unlink()
            seen.append((code, out.out, out.err, written))
        return seen

    alone = outcomes(fresh_parser=True)
    assert [code for code, *_ in alone] == [0, 0, 0, 2]
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: (built.append(self),
                                                       init(self, *args, **kwargs))[1])
    cli.build_parser.cache_clear()
    assert outcomes(fresh_parser=False) == alone
    assert [parser.prog for parser in built].count("jeffreys") == 1


def test_main_calls_the_command_function_bound_at_call_time(tmp_path, monkeypatch):
    path, _ = write_config(tmp_path)
    assert main(["run", str(path)]) == 0
    monkeypatch.setattr(cli, "cmd_run", lambda args: 7)
    assert main(["run", str(path)]) == 7


def test_every_writer_opens_its_file_with_lf_line_ends(tmp_path, monkeypatch):
    # the bytes written, and the report digests, are the same on every platform
    opened = []

    def spy(file, mode="r", *args, **kwargs):
        if "w" in mode:
            opened.append((os.path.basename(file), kwargs.get("newline")))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(serialize, "open", spy, raising=False)
    monkeypatch.setattr(cli, "open", spy, raising=False)
    path, _ = write_config(tmp_path, seeds=[1])
    assert main(["run", str(path)]) == 0
    assert main(["sweep", str(path), "--report-out", str(tmp_path / "sweep.json")]) == 0
    assert sorted(opened) == [("report.json", "\n"), ("sweep.json", "\n"), ("trace.csv", "\n")]
