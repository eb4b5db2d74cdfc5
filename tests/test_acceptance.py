"""Acceptance suite: one test per headline criterion, stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion as it completes.  These tests are deliberately heavier than
the unit suite: they sweep seeds at the full horizons.
"""

import json
import math
import os
import time

import numpy as np
import pytest

import jeffreys as j
from jeffreys.cli import main as cli_main

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
RUN_SCENARIOS = ["prop6_square", "prop6_logloss", "prop5_lift",
                 "prop1_absolute", "prop4_counterexample"]


def _announce(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {number}] {name}: {status} ({detail})", flush=True)
    assert ok, f"criterion {number} failed: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_quartic_divergence_asymmetry():
    """Quartic game: lower and upper Hellinger shifts 1 and 7 at 1e-3."""
    start = time.monotonic()
    game = j.quartic_loss_game()
    lower = j.lower_alpha_divergence_numeric(game, -1.0, 1.0, 0.0, tol=1e-4)
    upper = j.upper_alpha_divergence_numeric(game, -1.0, 1.0, 0.0, tol=1e-4)
    elapsed = time.monotonic() - start
    ok = (abs(lower.shift - 1.0) <= 1e-3 and abs(upper.shift - 7.0) <= 1e-3
          and abs(lower.value - 4.0) <= 4e-3 and abs(upper.value - 28.0) <= 4e-3
          and elapsed < 5.0)
    _announce(1, "quartic lower/upper Hellinger",
              ok, f"shifts {lower.shift:.6f}/{upper.shift:.6f}, "
                  f"values {lower.value:.6f}/{upper.value:.6f}, {elapsed:.2f}s")


def test_criterion_2_closed_form_numeric_agreement():
    """Numeric max-min divergences match both closed forms on dense grids, < 30 s."""
    start = time.monotonic()
    alphas = (-0.8, -0.4, 0.0, 0.4, 0.8)

    game = j.bounded_square_loss_game()
    worst_sq = 0.0
    grid = np.round(np.linspace(0.0, 1.0, 11), 10)
    for g1 in grid:
        for g2 in grid:
            for alpha in alphas:
                closed = j.alpha_divergence_square_loss(g1, g2, alpha)
                got = j.lower_alpha_divergence_numeric(game, g1, g2, alpha,
                                                       tol=1e-7).value
                worst_sq = max(worst_sq, abs(got - closed))

    log_game = j.log_loss_game(m=2)
    worst_log = 0.0
    probs = np.round(np.linspace(0.1, 0.9, 9), 10)
    for p in probs:
        for q in probs:
            g1 = np.array([1.0 - p, p])
            g2 = np.array([1.0 - q, q])
            for alpha in alphas:
                closed = j.alpha_divergence_log_loss(g1, g2, alpha)
                got = j.lower_alpha_divergence_numeric(log_game, g1, g2, alpha,
                                                       tol=1e-7).value
                worst_log = max(worst_log, abs(got - closed))
    elapsed = time.monotonic() - start
    ok = worst_sq <= 1e-5 and worst_log <= 1e-4 and elapsed < 30.0
    _announce(2, "closed-form vs numeric divergences",
              ok, f"square dev {worst_sq:.2e} (<=1e-5), "
                  f"log dev {worst_log:.2e} (<=1e-4), {elapsed:.1f}s")


def test_criterion_3_divergence_inequality_guarantee():
    """Cumulative inequality slack over 1200 seeded runs at N=10^4."""
    start = time.monotonic()
    horizon = 10_000
    worst_slack = math.inf
    worst_sq_dev = 0.0
    square = j.square_loss_game()
    log_game = j.log_loss_game(m=2)
    for seed in range(100):
        for alpha in (-0.8, 0.0, 0.8):
            for nature_kind in ("iid", "adversarial"):
                # square-loss runs
                sceptic = j.Level2Sceptic(alpha=alpha, epsilon=1e-3)
                pair = (0.0, 1.0) if seed % 2 == 0 else (0.25, 0.75)
                nature = (j.IidBernoulliNature(0.5) if nature_kind == "iid"
                          else j.AdversarialGreedyNature())
                trace = j.run_protocol(nature, j.ConstantPredictor(pair[0]),
                                       j.ConstantPredictor(pair[1]), sceptic,
                                       square, horizon, seed=seed)
                slack = j.level2_inequality_slack(trace, alpha, 1e-3)
                worst_slack = min(worst_slack, float(np.min(slack)))
                worst_sq_dev = max(worst_sq_dev,
                                   float(np.max(np.abs(slack - np.longdouble(1e-3)))))

                # log-loss runs
                sceptic = j.Level2Sceptic(alpha=alpha, epsilon=1e-3)
                if nature_kind == "iid":
                    p2 = j.RunningMeanPredictor()
                    nature = j.IidBernoulliNature(0.2 + 0.6 * seed / 99.0)
                else:
                    p2 = j.ConstantPredictor(np.array([0.3, 0.7]))
                    nature = j.AdversarialGreedyNature()
                trace = j.run_protocol(nature,
                                       j.ConstantPredictor(np.array([0.8, 0.2])),
                                       p2, sceptic, log_game, horizon, seed=seed)
                slack = j.level2_inequality_slack(trace, alpha, 1e-3)
                worst_slack = min(worst_slack, float(np.min(slack)))
    elapsed = time.monotonic() - start
    ok = worst_slack >= -1e-9 and worst_sq_dev <= 1e-12
    _announce(3, "divergence inequality guarantee",
              ok, f"worst slack {worst_slack:.3e} (>=-1e-9), square |slack-eps| "
                  f"{worst_sq_dev:.3e} (<=1e-12), {elapsed:.0f}s")


def test_criterion_4_regret_bound():
    """Aggregation regret slack over 100 seeds per game, N=10^4, pools 2-40."""
    start = time.monotonic()
    horizon = 10_000
    worst = math.inf
    log_game = j.log_loss_game(m=2)
    square = j.bounded_square_loss_game()
    for seed in range(100):
        k = 2 + seed % 39
        spread = (np.arange(k) + 1.0) / (k + 1.0)

        experts = [j.ConstantPredictor(np.array([1.0 - p, p])) for p in spread]
        sceptic = j.AggregatingSceptic(experts)
        j.run_protocol(j.IidBernoulliNature(0.1 + 0.8 * seed / 99.0),
                       j.ConstantPredictor(np.array([0.5, 0.5])),
                       j.ConstantPredictor(np.array([0.5, 0.5])),
                       sceptic, log_game, horizon, seed=seed)
        worst = min(worst, sceptic.worst_eq8_slack)

        experts = [j.ConstantPredictor(p) for p in spread]
        sceptic = j.AggregatingSceptic(experts)
        j.run_protocol(j.IidUniformNature(0.0, 1.0), j.ConstantPredictor(0.5),
                       j.ConstantPredictor(0.5), sceptic, square, horizon,
                       seed=seed)
        worst = min(worst, sceptic.worst_eq8_slack)
    elapsed = time.monotonic() - start
    ok = worst >= -1e-9
    _announce(4, "aggregation regret bound",
              ok, f"worst per-expert slack {worst:.3e} (>=-1e-9), {elapsed:.0f}s")


def test_criterion_4b_bayes_tree_oracle():
    """Aggregated log-loss equals the exhaustive mixture oracle for N<=12."""
    start = time.monotonic()
    game = j.log_loss_game(m=2)
    experts = [np.array([0.3, 0.7]), np.array([0.6, 0.4]), np.array([0.85, 0.15])]
    priors = np.array([0.5, 0.25, 0.25])
    preds = np.asarray(experts, dtype=float)
    mix = j.fixed_pool_mixer(game, 1.0, preds, j.aggregating.DOMINATION_TOL)
    n_steps = 12
    worst = 0.0
    for code in range(2 ** n_steps):
        pool = j.ExpertPool(priors)
        cum = 0.0
        likelihoods = priors.copy()
        for i in range(n_steps):
            omega = (code >> i) & 1
            gamma = mix(pool.normalized_log_weights())
            cum += game.loss(omega, gamma)
            losses = np.array([game.loss(omega, e) for e in experts])
            j.aa_observe(pool, losses, eta=1.0)
            likelihoods = likelihoods * np.array([e[omega] for e in experts])
            worst = max(worst, abs(cum - (-math.log(float(likelihoods.sum())))))
        if worst > 1e-9:
            break
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9
    _announce(4, "exhaustive mixture oracle (N<=12)",
              ok, f"worst |aggregated - oracle| {worst:.2e} (<=1e-9), {elapsed:.0f}s")


def _ledger_scenarios():
    return [
        ("edge-outcomes", j.IidBernoulliNature(0.5),
         j.ConstantPredictor(0.0), j.ConstantPredictor(1.0), True),
        ("interior-outcomes", j.IidUniformNature(0.25, 0.75),
         j.ConstantPredictor(0.0), j.ConstantPredictor(1.0), False),
        ("adversarial", j.AdversarialGreedyNature(),
         j.DriftPredictor(0.2, 1e-5), j.ConstantPredictor(0.8), False),
        ("wide-outcomes", j.IidUniformNature(-0.5, 1.5),
         j.RunningMeanPredictor(0.5), j.ConstantPredictor(0.6), False),
    ]


def test_criterion_5_mixture_ledger():
    """Ledger identity for the loss-difference strategy at N=10^5."""
    start = time.monotonic()
    horizon = 100_000
    game = j.absolute_loss_game()
    worst_area = math.inf
    worst_ineq = math.inf
    worst_eq = 0.0
    for name, nature, p1, p2, exact in _ledger_scenarios():
        trace = j.run_protocol(nature, p1, p2, j.Level1Sceptic(c=0.4), game, horizon, seed=31)
        areas, excess, bounds = j.level1_ledger(trace, 0.4)
        worst_area = min(worst_area, float(np.min(areas)))
        worst_ineq = min(worst_ineq, float(np.min(bounds - excess)))
        if exact:
            worst_eq = max(worst_eq, float(np.max(np.abs(excess - bounds))))
    elapsed = time.monotonic() - start
    ok = worst_area >= 0.0 and worst_ineq >= -1e-9 and worst_eq <= 1e-9
    _announce(5, "loss-difference ledger",
              ok, f"min area {worst_area:.2e} (>=0), min bound-excess "
                  f"{worst_ineq:.2e} (>=-1e-9), edge-case equality dev "
                  f"{worst_eq:.2e} (<=1e-9), {elapsed:.0f}s")


def test_criterion_6_threshold_lift_behavior():
    """The lift banks an unbounded lead over a bad predictor and stays
    quiet when the predictors converge."""
    start = time.monotonic()
    game = j.bounded_square_loss_game()

    sceptic = j.Level3Sceptic(j.Level2Sceptic(alpha=0.0, epsilon=1e-3))
    trace = j.run_protocol(j.ConstantNature(0.9), j.ConstantPredictor(0.1),
                           j.ConstantPredictor(0.9), sceptic, game, 10_000,
                           seed=41)
    lead = trace.cum1[-1] - trace.cum_sceptic[-1]
    report = j.classify_disjuncts(trace, loss_gap_min=100.0)
    beats = "beats-P1" in report.verdicts

    sceptic = j.Level3Sceptic(j.Level2Sceptic(alpha=0.0, epsilon=1e-3))
    trace = j.run_protocol(j.IidBernoulliNature(0.6),
                           j.NoisyTargetPredictor(0.6, sigma=0.15),
                           j.NoisyTargetPredictor(0.6, sigma=0.15),
                           sceptic, game, 10_000, seed=42)
    report2 = j.classify_disjuncts(trace)
    vanishes = "gap-vanishes" in report2.verdicts
    elapsed = time.monotonic() - start
    ok = lead >= 100.0 and beats and vanishes and report2.gap_squared_sum <= 1.0
    _announce(6, "threshold-expert lift",
              ok, f"lead over bad predictor {lead:.1f} (>=100), converging "
                  f"gap sum {report2.gap_squared_sum:.3f} (<=1.0), {elapsed:.0f}s")


def test_criterion_7_fair_coin_martingale_scenario():
    """Exact conditional-expectation identity plus gap recrossings."""
    start = time.monotonic()
    horizon = 100_000
    game = j.bounded_absolute_loss_game()
    recross_both = 0
    worst_null = 0.0
    for seed in range(100):
        sceptic = j.Level1Sceptic(c=0.4)
        trace = j.run_protocol(j.IidBernoulliNature(0.5), j.ConstantPredictor(0.0),
                               j.ConstantPredictor(1.0), sceptic, game, horizon,
                               seed=seed)
        report = j.verify_run(trace, ["martingale_null"], sceptic=sceptic)
        worst_null = max(worst_null, abs(report.check_slacks["martingale_null"]))
        crossed = []
        cums = np.asarray(trace.cum_sceptic)
        for cum_k in (np.asarray(trace.cum1), np.asarray(trace.cum2)):
            gap = cum_k - cums
            prev = gap[:-1]
            cur = gap[1:]
            crossings = np.sum(((prev > 0) & (cur <= 0)) | ((prev < 0) & (cur >= 0)))
            crossed.append(int(crossings) >= 1)
        if all(crossed):
            recross_both += 1
    elapsed = time.monotonic() - start
    ok = worst_null == 0.0 and recross_both >= 90
    _announce(7, "fair-coin martingale scenario",
              ok, f"conditional-expectation slack {worst_null} (exactly 0), "
                  f"both gaps recrossed in {recross_both}/100 seeds (>=90), "
                  f"{elapsed:.0f}s")


def test_criterion_8_byte_identical_reruns(tmp_path):
    """Every bundled scenario reproduces its trace byte for byte."""
    start = time.monotonic()
    all_same = True
    details = []
    for name in RUN_SCENARIOS:
        config = os.path.join(SCENARIO_DIR, name + ".json")
        contents = []
        for attempt in range(2):
            trace_path = tmp_path / f"{name}_{attempt}.csv"
            report_path = tmp_path / f"{name}_{attempt}.json"
            code = cli_main(["run", config, "--trace-out", str(trace_path),
                             "--report-out", str(report_path)])
            assert code == 0, f"scenario {name} exited {code}"
            contents.append(trace_path.read_bytes())
        same = contents[0] == contents[1]
        all_same = all_same and same
        details.append(f"{name}:{'ok' if same else 'DIFFERS'}")
    elapsed = time.monotonic() - start
    _announce(8, "byte-identical scenario reruns",
              all_same, f"{', '.join(details)}, {elapsed:.0f}s")
