"""Protocol engine: move order, trace integrity, verdicts, verification."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jeffreys import (GAME_SPECS, AdversarialGreedyNature, ConfigError, ConstantNature,
                      ConstantPredictor, IidBernoulliNature, Level1Sceptic,
                      Level2Sceptic, ProtocolViolationError,
                      RunningMeanPredictor, ScepticStrategy, Trace,
                      absolute_loss_game, bounded_absolute_loss_game, classify_disjuncts,
                      game_from_descriptor, log_loss_game, require_checks, run_protocol,
                      square_loss_game,
                      trace_to_csv_string, verify_run)
from jeffreys.serialize import CSV_COLUMNS, CSV_HEADER
from jeffreys.protocol import (VERDICT_BEATS_P1, VERDICT_BEATS_P2,
                               VERDICT_BEATS_WORSE, VERDICT_GAP_VANISHES,
                               VERDICT_INCONCLUSIVE, _next_guess)


def test_single_step_constant_players():
    game = square_loss_game()
    trace = run_protocol(ConstantNature(1.0), ConstantPredictor(0.0),
                         ConstantPredictor(1.0), Level2Sceptic(alpha=0.0),
                         game, 1, seed=0)
    assert len(trace) == 1
    assert (trace.loss1[-1], trace.loss2[-1], trace.loss_sceptic[-1]) == (1.0, 0.0, 0.25)
    assert trace.gap[-1] == 1.0


def test_three_step_cumulative_losses():
    game = square_loss_game()
    trace = run_protocol(ConstantNature(1.0), ConstantPredictor(0.0),
                         ConstantPredictor(1.0), Level2Sceptic(alpha=0.0),
                         game, 3, seed=0)
    assert (trace.cum1[-1], trace.cum2[-1], trace.cum_sceptic[-1]) == (3.0, 0.0, 0.75)


def test_running_sums_start_from_zero():
    # a log-loss hit at probability 1 costs -0.0; the running sums start
    # from 0.0, so the first cumulative loss is 0.0 and the CSV writes 0
    game = log_loss_game(m=2)
    trace = run_protocol(ConstantNature(1), ConstantPredictor(np.array([0.0, 1.0])),
                         ConstantPredictor(np.array([0.5, 0.5])), Level2Sceptic(alpha=0.0),
                         game, 2, seed=0)
    assert math.copysign(1.0, trace.loss1[0]) == -1.0
    header, row = (line.split(",") for line in trace_to_csv_string(trace).split("\n")[:2])
    assert row[header.index("cum1")] == row[header.index("cum_sceptic")] == "0"


def test_identical_seeds_identical_traces():
    game = square_loss_game()

    def play():
        return run_protocol(IidBernoulliNature(0.5), RunningMeanPredictor(),
                            ConstantPredictor(0.7), Level2Sceptic(alpha=0.4),
                            game, 200, seed=123)
    assert trace_to_csv_string(play()) == trace_to_csv_string(play())


def test_different_seeds_differ():
    game = square_loss_game()

    def play(seed):
        return run_protocol(IidBernoulliNature(0.5), ConstantPredictor(0.0),
                            ConstantPredictor(1.0), Level2Sceptic(alpha=0.0),
                            game, 50, seed=seed)
    assert trace_to_csv_string(play(1)) != trace_to_csv_string(play(2))


class _SpySceptic(ScepticStrategy):
    """Records what it is shown; the interface never exposes the current outcome."""

    def __init__(self):
        self.seen_args = []
        self.observed = []

    def predict(self, n, gamma1, gamma2):
        self.seen_args.append((n, gamma1, gamma2))
        return 0.5 * (gamma1 + gamma2)

    def observe(self, n, omega):
        self.observed.append((n, omega))


def test_move_order_isolation():
    game = square_loss_game()
    spy = _SpySceptic()
    run_protocol(ConstantNature(1.0), ConstantPredictor(0.2),
                 ConstantPredictor(0.8), spy, game, 5, seed=0)
    # the sceptic saw exactly the predictors' current moves, and each
    # outcome arrived only through observe, after its own move
    assert spy.seen_args == [(n, 0.2, 0.8) for n in range(1, 6)]
    assert spy.observed == [(n, 1.0) for n in range(1, 6)]


def test_prefix_sum_consistency():
    game = square_loss_game()
    trace = run_protocol(IidBernoulliNature(0.3), RunningMeanPredictor(),
                         ConstantPredictor(0.4), Level2Sceptic(alpha=0.0),
                         game, 300, seed=5)
    c1 = c2 = cs = 0.0
    for i in range(len(trace)):
        c1 += trace.loss1[i]
        c2 += trace.loss2[i]
        cs += trace.loss_sceptic[i]
        assert trace.cum1[i] == c1
        assert trace.cum2[i] == c2
        assert trace.cum_sceptic[i] == cs


def test_out_of_domain_move_aborts_with_step():
    game = bounded_absolute_loss_game()

    class BadPredictor(ConstantPredictor):
        def predict(self, n):
            return 2.0 if n == 4 else 0.5

    with pytest.raises(ProtocolViolationError) as err:
        run_protocol(ConstantNature(0.5), BadPredictor(0.5), ConstantPredictor(0.5),
                     Level1Sceptic(), game, 10, seed=0)
    assert err.value.step == 4


def test_log_loss_gap_squares_to_divergence():
    game = log_loss_game(m=2)
    trace = run_protocol(IidBernoulliNature(0.5),
                         ConstantPredictor(np.array([0.8, 0.2])),
                         ConstantPredictor(np.array([0.3, 0.7])),
                         Level2Sceptic(alpha=0.0), game, 3, seed=0)
    from jeffreys import alpha_divergence_log_loss
    want = alpha_divergence_log_loss([0.8, 0.2], [0.3, 0.7], 0.0)
    assert trace.gap[0] ** 2 == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("game, g1, g2", [
    (square_loss_game(), 0.2, 0.7),
    (log_loss_game(m=2), np.array([0.8, 0.2]), np.array([0.3, 0.7])),
], ids=["square", "log_loss"])
def test_closed_form_step_loop_makes_no_loss_calls(monkeypatch, game, g1, g2):
    # a step only plays: the losses, gaps and divergence terms are columns
    # computed once the run ends, so no per-move loss is evaluated in the loop
    spec = GAME_SPECS[game.kind]
    per_move = []

    def counting(omega, gamma):
        if np.ndim(omega) == 0:
            per_move.append(omega)
        return spec.kernel(omega, gamma)

    monkeypatch.setitem(GAME_SPECS, game.kind, dataclasses.replace(spec, kernel=counting))
    game = game_from_descriptor(game.descriptor())
    trace = run_protocol(IidBernoulliNature(0.4), ConstantPredictor(g1), ConstantPredictor(g2),
                         Level2Sceptic(alpha=0.5), game, 200, seed=9)
    assert len(trace) == 200 and min(trace.loss1) > 0.0
    assert per_move == []


# ---------------------------------------------------------------------------
# verdicts


def _flat_trace(gamma1, gamma2, gamma_sceptic, n=100):
    # absolute loss at outcome 0: each step's losses are the moves' sizes,
    # its gap their distance
    return Trace(absolute_loss_game(), [gamma1] * n, [gamma2] * n, [gamma_sceptic] * n,
                 [0.0] * n)


def test_verdict_gap_vanishes_for_identical_predictors():
    trace = _flat_trace(0.3, 0.3, 0.3)
    report = classify_disjuncts(trace)
    assert VERDICT_GAP_VANISHES in report.verdicts


def test_verdict_beats_p1():
    trace = _flat_trace(1.0, 0.0, 0.1)
    report = classify_disjuncts(trace, loss_gap_min=10.0)
    assert VERDICT_BEATS_P1 in report.verdicts
    assert VERDICT_BEATS_P2 not in report.verdicts
    assert VERDICT_BEATS_WORSE in report.verdicts


def test_verdict_inconclusive():
    trace = _flat_trace(0.3, -0.3, 0.3, n=10)
    report = classify_disjuncts(trace, gap_sum_max=1.0, loss_gap_min=10.0)
    assert report.verdicts == [VERDICT_INCONCLUSIVE]


def test_infinite_loss_gap_counts_as_beating():
    trace = _flat_trace(math.inf, 0.0, 0.1, n=5)
    report = classify_disjuncts(trace, gap_sum_max=1.0)
    assert VERDICT_BEATS_P1 in report.verdicts


# ---------------------------------------------------------------------------
# verification


def test_verify_eq9_square_equality():
    game = square_loss_game()
    sceptic = Level2Sceptic(alpha=0.0, epsilon=1e-3)
    trace = run_protocol(IidBernoulliNature(0.5), ConstantPredictor(0.0),
                         ConstantPredictor(1.0), sceptic, game, 500, seed=3)
    report = verify_run(trace, ["eq9"], sceptic=sceptic)
    assert report.checks_passed
    assert report.check_slacks["eq9"] == pytest.approx(1e-3, abs=1e-12)


def test_verify_martingale_null_exact_zero():
    game = bounded_absolute_loss_game()
    sceptic = Level1Sceptic()
    trace = run_protocol(IidBernoulliNature(0.5), ConstantPredictor(0.0),
                         ConstantPredictor(1.0), sceptic, game, 1000, seed=7)
    report = verify_run(trace, ["martingale_null", "ledger"], sceptic=sceptic)
    assert report.checks_passed
    assert report.check_slacks["martingale_null"] == 0.0


def test_verify_adversarial_nature_cannot_break_eq9():
    # the guarantee is worst-case: fuzz a thousand adversarial runs
    games = [square_loss_game(), log_loss_game(m=2)]
    predictors = [(ConstantPredictor(0.0), ConstantPredictor(1.0)),
                  (ConstantPredictor(0.3), RunningMeanPredictor(0.6))]
    worst = math.inf
    runs = 0
    for seed in range(250):
        for game in games:
            for alpha in (-0.8, 0.8):
                sceptic = Level2Sceptic(alpha=alpha, epsilon=1e-3)
                if game.kind.value == "log_loss":
                    p1 = ConstantPredictor(np.array([0.7, 0.3]))
                    p2 = RunningMeanPredictor()
                else:
                    p1, p2 = predictors[seed % 2]
                trace = run_protocol(AdversarialGreedyNature(), p1, p2, sceptic,
                                     game, 100, seed=seed)
                report = verify_run(trace, ["eq9"], sceptic=sceptic)
                worst = min(worst, report.check_slacks["eq9"])
                runs += 1
                assert report.checks_passed
    assert runs == 1000
    assert worst >= -1e-9


def test_verify_eq8_on_aggregating_run():
    from jeffreys import AggregatingSceptic, IidBernoulliNature, log_loss_game
    game = log_loss_game(m=2)
    experts = [ConstantPredictor(np.array([0.3, 0.7])),
               ConstantPredictor(np.array([0.8, 0.2]))]
    sceptic = AggregatingSceptic(experts)
    trace = run_protocol(IidBernoulliNature(0.6),
                         ConstantPredictor(np.array([0.5, 0.5])),
                         ConstantPredictor(np.array([0.5, 0.5])),
                         sceptic, game, 800, seed=17)
    report = verify_run(trace, ["eq8"], sceptic=sceptic)
    assert report.checks_passed
    assert report.check_slacks["eq8"] >= -1e-9


def test_verify_unknown_check_and_missing_metadata():
    game = square_loss_game()
    sceptic = Level2Sceptic(alpha=0.0)
    trace = run_protocol(ConstantNature(1.0), ConstantPredictor(0.0),
                         ConstantPredictor(1.0), sceptic, game, 5, seed=0)
    with pytest.raises(ConfigError):
        verify_run(trace, ["nonsense"], sceptic=sceptic)
    with pytest.raises(ConfigError, match="eq8"):
        verify_run(trace, ["eq8"], sceptic=sceptic)
    with pytest.raises(ConfigError, match="ledger"):
        verify_run(trace, ["ledger"], sceptic=sceptic)


def test_csv_format_round_trips():
    game = square_loss_game()
    trace = run_protocol(IidBernoulliNature(0.5), ConstantPredictor(0.0),
                         ConstantPredictor(1.0), Level2Sceptic(alpha=0.3),
                         game, 20, seed=1)
    text = trace_to_csv_string(trace)
    lines = text.strip().split("\n")
    assert lines[0].startswith("n,gamma1,gamma2,gamma_sceptic,omega,")
    assert len(lines) == 21
    row = lines[3].split(",")
    assert float(row[8]) == trace.cum1[2]  # 17 digits round-trip exactly


def _spelled_rows(trace):
    # each trace row spelled value by value, as the CSV format defines it
    def spell(value):
        if isinstance(value, np.ndarray):
            return ";".join("%.17g" % v for v in value)
        return "%.17g" % float(value)
    columns = (trace.gamma1, trace.gamma2, trace.gamma_sceptic, trace.omega, trace.loss1,
               trace.loss2, trace.loss_sceptic, trace.cum1, trace.cum2, trace.cum_sceptic,
               trace.gap, trace.divergence_term)
    return [f"{n},{','.join(map(spell, values))}"
            for n, values in enumerate(zip(*columns), 1)]


@pytest.mark.parametrize("m,horizon", [(2, 1), (3, 1001), (2, 2500)])
def test_trace_csv_spells_every_value_in_17_digits(m, horizon):
    # across the write blocks, with log-loss moves joined by ';', and the
    # special values a trace can hold
    game = log_loss_game(m=m)
    first = np.full(m, 1.0 / m)
    trace = run_protocol(IidBernoulliNature(0.5) if m == 2 else ConstantNature(2),
                         ConstantPredictor(first), RunningMeanPredictor(),
                         Level2Sceptic(alpha=0.3), game, horizon, seed=4)
    trace.loss1 = list(trace.loss1)
    trace.loss1[-1] = math.inf
    trace.cum1 = list(trace.cum1)
    trace.cum1[0] = math.nan
    trace.gap = [-0.0] + list(trace.gap[1:])
    lines = trace_to_csv_string(trace).splitlines()
    assert lines[1:] == _spelled_rows(trace)


# values the writer must tell apart by their bits: the two zeros, NaNs of
# either sign and another payload, the infinities, the least subnormal, a
# large number, and two neighbours one bit apart
_NAN_PAYLOAD = float(np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0])
SPECIALS = (0.0, -0.0, math.nan, -math.nan, _NAN_PAYLOAD, math.inf, -math.inf, 5e-324,
            -5e-324, 1e300, 0.1, float(np.nextafter(0.1, 1.0)))


def _trace_with(columns: dict, m: int = 0):
    """A trace of constant moves, of an m-outcome log-loss game for m > 0
    and else scalar, whose columns named in ``columns`` are replaced."""
    n = len(next(iter(columns.values())))
    game = log_loss_game(m=m) if m else square_loss_game()
    moves = np.full((n, m), 1.0 / m) if m else np.zeros(n)
    trace = Trace(game, moves, moves, moves, np.zeros(n))
    for name, values in columns.items():
        setattr(trace, name, values)
    return trace


def _assert_spelled(trace):
    lines = trace_to_csv_string(trace).split("\n")
    assert lines[0] == CSV_HEADER and lines[-1] == ""
    assert lines[1:-1] == _spelled_rows(trace)


def test_trace_csv_columns_distinct_equal_and_changing_between_blocks():
    # 2,500 rows: blocks of 1,000, 1,000 and 500; one column repeats in
    # its first and last block and is all distinct in the middle one
    rng = np.random.default_rng(7)
    changing = rng.choice([0.25, 0.1, -3.5], 2500)
    changing[1000:2000] = rng.standard_normal(1000)
    _assert_spelled(_trace_with({"cum1": rng.standard_normal(2500),
                                 "loss1": np.full(2500, 0.1),
                                 "gap": changing}))


def test_trace_csv_keeps_zeros_of_either_sign_apart():
    zeros = np.array([0.0, -0.0, -0.0, 0.0, 0.5] * 200)
    trace = _trace_with({"gap": zeros, "omega": -zeros})
    _assert_spelled(trace)
    row = trace_to_csv_string(trace).splitlines()[2].split(",")
    assert (row[4], row[11]) == ("0", "-0")


def test_trace_csv_spells_special_values():
    # each special repeated (a spelled column) and among distinct values
    rng = np.random.default_rng(3)
    repeated = rng.choice(SPECIALS, 1500)
    dense = rng.standard_normal(1500)
    dense[::97] = rng.choice(SPECIALS, len(dense[::97]))
    _assert_spelled(_trace_with({"loss2": repeated, "cum2": dense, "omega": repeated[::-1]}))


@pytest.mark.parametrize("m", [2, 3])
def test_trace_csv_vector_moves_one_bit_apart(m):
    # moves that differ in one bit of one probability, or in a zero's sign,
    # repeated, over a block and a partial block
    base = np.full(m, 1.0 / m)
    bit = base.copy()
    bit[-1] = np.nextafter(bit[-1], 1.0)
    zero, negative_zero = np.eye(m)[0], np.eye(m)[0]
    negative_zero[1] = -0.0
    rng = np.random.default_rng(m)
    moves = np.stack([base, bit, zero, negative_zero])[rng.integers(0, 4, 1300)]
    _assert_spelled(_trace_with({"gamma1": moves, "gamma2": moves[::-1],
                                 "gamma_sceptic": rng.dirichlet(np.ones(m), 1300)}, m=m))


def test_trace_csv_columns_given_as_lists():
    # three full blocks and a partial one, every column a Python list
    rng = np.random.default_rng(11)
    n = 3217
    columns = {name: rng.choice([0.5, 1.0, -2.0], n).tolist()
               for name in ("gamma1", "gamma2", "omega", "loss1", "gap")}
    columns.update({name: rng.standard_normal(n).tolist()
                    for name in ("gamma_sceptic", "loss2", "cum1", "divergence_term")})
    _assert_spelled(_trace_with(columns))


@st.composite
def _drawn_columns(draw):
    # a move width, a length up to three blocks, and for each of the twelve
    # columns a pool of distinct values, specials among them, to draw from
    m = draw(st.sampled_from([0, 2, 3]))
    n = draw(st.integers(1, 2300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = {}
    for name in CSV_COLUMNS:
        specials = draw(st.lists(st.sampled_from(SPECIALS), max_size=4))
        pool = np.concatenate([specials, rng.standard_normal(draw(st.integers(0, n)))
                               * 10.0 ** rng.integers(-300, 300)])
        if not len(pool):
            pool = np.array([0.0])
        shape = (n, m) if m and name in CSV_COLUMNS[:3] else (n,)
        columns[name] = rng.choice(pool, shape)
    return columns, m


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_drawn_columns())
def test_trace_csv_matches_the_spelled_rows_on_drawn_columns(drawn):
    columns, m = drawn
    _assert_spelled(_trace_with(columns, m=m))


# ---------------------------------------------------------------------------
# the next guess at an adversarial Nature's outcome column

def _guess(known_rows, rest=5):
    # Nature's reply: the run's known rows, then rows the guess replaces
    reply = np.array(known_rows + [-1.0] * rest)
    return reply, _next_guess(reply, len(known_rows))


@pytest.mark.parametrize("tail,extension", [
    ([4.0] * 3, [4.0] * 5),
    ([1.0, 2.0] * 3, [1.0, 2.0, 1.0, 2.0, 1.0]),
    ([1.0, 2.0, 3.0] * 3 + [1.0], [2.0, 3.0, 1.0, 2.0, 3.0]),  # ends mid-period
])
def test_a_tail_repeated_three_times_is_extended_in_phase(tail, extension):
    reply, guess = _guess([9.0, 8.0] + tail)
    assert len(guess) == len(reply)
    assert guess[:-5].tobytes() == reply[:-5].tobytes()
    assert guess[-5:].tolist() == extension


def test_the_shortest_repeated_period_extends_the_tail():
    # periods 1 and 4 both repeat three times at the end, and extend it
    # differently; 1 is taken
    _, guess = _guess([1.0, 2.0, 2.0, 2.0] * 3)
    assert guess[-5:].tolist() == [2.0] * 5
    # only period 4 repeats
    _, guess = _guess([1.0, 2.0, 3.0, 4.0] * 3)
    assert guess[-5:].tolist() == [1.0, 2.0, 3.0, 4.0, 1.0]


@pytest.mark.parametrize("rows", [
    [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
    [7.0, 7.0, 7.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0],  # repeated twice only
    [1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0],       # a period of 3 > known // 3
    [0.0, -0.0, 0.0],                                # told apart by their bits
])
def test_without_a_repeated_period_the_guess_is_the_reply(rows):
    reply, guess = _guess(rows)
    assert guess is reply


@pytest.mark.parametrize("period,extended", [(64, True), (65, False)])
def test_a_period_longer_than_64_rows_is_not_used(period, extended):
    cycle = np.arange(period, dtype=float).tolist()
    reply, guess = _guess(cycle * 3)
    assert (guess is not reply) == extended
    if extended:
        assert guess[-5:].tolist() == cycle[:5]


@pytest.mark.parametrize("known", [0, 1, 2])
def test_fewer_than_three_known_rows_guess_the_reply(known):
    reply = np.full(6, 3.0)
    assert _next_guess(reply, known) is reply


def test_a_run_needs_a_step_and_a_verdict_needs_a_row():
    game = square_loss_game()
    with pytest.raises(ConfigError, match="horizon must be at least 1"):
        run_protocol(ConstantNature(1.0), ConstantPredictor(0.0), ConstantPredictor(1.0),
                     Level2Sceptic(alpha=0.0), game, 0, seed=0)
    with pytest.raises(ValueError, match="cannot classify an empty trace"):
        classify_disjuncts(Trace(game, [], [], [], []))


def test_require_checks_refuses_a_string():
    # a string is a sequence of one-letter names: it is refused as a whole
    with pytest.raises(ConfigError, match="checks must be a list of check names"):
        require_checks("eq9", Level2Sceptic(alpha=0.0), square_loss_game())
