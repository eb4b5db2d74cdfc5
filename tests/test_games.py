"""Game definitions, canonical points, and geometric predicates."""

import ast
import dataclasses
import inspect
import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jeffreys import (GAME_SPECS, AggregatingSceptic, ConstantPredictor, DomainError, Game,
                      GameKind, IidBernoulliNature, IidUniformNature, Level2Sceptic,
                      MixabilityViolation, RunningMeanPredictor,
                      absolute_loss_game, bounded_absolute_loss_game, bounded_square_loss_game,
                      check_non_redundant, check_perfectly_mixable,
                      game_from_descriptor, is_subprediction,
                      is_superprediction, log_loss_game, points_non_redundant,
                      params_for, quartic_loss_game, run_protocol, square_loss_game)
from jeffreys.divergence import lower_alpha_divergence_numeric, upper_alpha_divergence_numeric
from jeffreys.games import (DEFAULT_MEMBERSHIP_TOL, GameSpec, _excess, _min_gap,
                            subprediction_gap, superprediction_gap)


def binary_bsq():
    return bounded_square_loss_game(outcome_grid=[0.0, 1.0])


# ---------------------------------------------------------------------------
# losses


def test_square_loss_value():
    assert square_loss_game().loss(0.0, 1.0) == 1.0


def test_absolute_loss_value():
    assert absolute_loss_game().loss(0.3, 0.8) == pytest.approx(0.5)


def test_log_loss_value():
    g = log_loss_game(m=2)
    assert g.loss(1, np.array([0.75, 0.25])) == pytest.approx(-math.log(0.25))


def test_log_loss_zero_probability_is_infinite():
    g = log_loss_game(m=2)
    assert g.loss(1, np.array([1.0, 0.0])) == math.inf


def test_infinite_loss_poisons_cumulative_sums():
    g = log_loss_game(m=2)
    total = g.loss(1, np.array([1.0, 0.0])) + g.loss(0, np.array([0.5, 0.5]))
    assert total == math.inf


def constructor_name(kind):
    return kind.value.removesuffix("_loss") + "_loss_game"


@pytest.mark.parametrize("kind", list(GAME_SPECS), ids=constructor_name)
def test_loss_paths_agree_bitwise(kind):
    # Game.loss, loss_fn, canonical_point and losses_for_params agree
    # exactly: a scalar kind shares one kernel, and log loss's per-move
    # kernel and its array paths take numpy's one log
    game = game_from_descriptor({"kind": kind.value, "grid_size": 65})
    kernel = game.loss_fn()
    params = game.prediction_grid[::5]
    matrix = game.losses_for_params(params)
    for row, u in zip(matrix, params):
        gamma = game.prediction_from_param(float(u))
        point = game.canonical_point(gamma)
        assert np.array_equal(point, row)
        for omega, value in zip(game.outcome_grid[::3], point[::3]):
            omega = game.spec.outcome_type(omega)
            assert game.loss(omega, gamma) == kernel(omega, gamma) == value


# ---------------------------------------------------------------------------
# column forms: a run's loss, gap and divergence columns, computed once,
# equal the per-move scalar arithmetic bit for bit

COLUMNS = settings(max_examples=300, deadline=None, derandomize=True)
SCALAR_KINDS = [kind for kind in GAME_SPECS if GAME_SPECS[kind].outcome_type is float]
# zeros of both signs and repeats, so differences of -0.0 and ties are drawn
scalar_values = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0]),
                          st.floats(-2.0, 2.0, allow_subnormal=True))
# weights with exact and signed zeros: zero probabilities, disjoint supports
weight_values = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))


def _bits(column) -> list:
    return [float(x).hex() for x in column]


def _probability_rows(m):
    vector = st.lists(weight_values, min_size=m, max_size=m).filter(
        lambda w: sum(w) > 0.0).map(lambda w: [x / sum(w) for x in w])
    return st.lists(st.tuples(vector, vector, st.integers(0, m - 1)), min_size=1, max_size=6)


# rows of (gamma1, gamma2, omega) over two or three outcomes
log_rows = st.sampled_from([2, 3]).flatmap(_probability_rows)


def _scalar_log_gap(g1, g2):
    # the scalar arithmetic a log-loss trace's gap had, one step at a time
    if len(g1) == 2:
        affinity = math.sqrt(float(g1[0]) * float(g2[0])) + math.sqrt(float(g1[1]) * float(g2[1]))
    else:
        affinity = float(np.sum(np.sqrt(np.asarray(g1) * np.asarray(g2))))
    return math.inf if affinity <= 0.0 else math.sqrt(max(0.0, -4.0 * float(np.log(affinity))))


def _scalar_log_divergence(g1, g2, alpha):
    w1, w2 = (1.0 - alpha) / 2.0, (1.0 + alpha) / 2.0
    if len(g1) == 2:
        affinity = (np.power(float(g1[0]), w1) * np.power(float(g2[0]), w2)
                    + np.power(float(g1[1]), w1) * np.power(float(g2[1]), w2))
    else:
        affinity = float(np.sum(np.power(np.asarray(g1, dtype=float), w1)
                                * np.power(np.asarray(g2, dtype=float), w2)))
    return math.inf if affinity <= 0.0 else -4.0 / (1.0 - alpha * alpha) * float(np.log(affinity))


@COLUMNS
@example(kind=GameKind.ABSOLUTE, rows=[(0.0, -0.0, -0.0), (-0.0, 0.0, 0.0)], alpha=0.0)
@given(kind=st.sampled_from(SCALAR_KINDS),
       rows=st.lists(st.tuples(scalar_values, scalar_values, scalar_values), min_size=1,
                     max_size=6),
       alpha=st.floats(-1.0, 1.0))
def test_scalar_column_forms_match_the_per_move_arithmetic(kind, rows, alpha):
    spec = GAME_SPECS[kind]
    g1, g2, omega = (np.array(col) for col in zip(*rows))
    assert _bits(spec.loss_column(omega, g1)) == _bits(
        [spec.kernel(w, g) for w, g in zip(omega.tolist(), g1.tolist())])
    assert _bits(spec.trace_gap(g1, g2)) == _bits(
        [abs(a - b) for a, b in zip(g1.tolist(), g2.tolist())])
    if spec.divergence is not None:
        assert _bits(spec.divergence(None, alpha)(g1, g2)) == _bits(
            [(a - b) * (a - b) for a, b in zip(g1.tolist(), g2.tolist())])


@COLUMNS
# disjoint supports: an infinite loss, gap and divergence; a -0.0 probability
@example(rows=[([1.0, 0.0], [0.0, 1.0], 1), ([-0.0, 1.0], [0.5, 0.5], 0)], alpha=0.3)
@given(rows=log_rows, alpha=st.one_of(st.just(0.0), st.floats(-0.99, 0.99)))
def test_log_loss_column_forms_match_the_per_move_arithmetic(rows, alpha):
    m = len(rows[0][0])
    spec = GAME_SPECS[GameKind.LOG_LOSS]
    g1, g2 = (np.array([row[i] for row in rows]) for i in (0, 1))
    omega = [row[2] for row in rows]
    assert _bits(spec.loss_column(omega, g1)) == _bits(
        [spec.kernel(w, g) for w, g in zip(omega, g1)])
    assert _bits(spec.trace_gap(g1, g2)) == _bits([_scalar_log_gap(a, b) for a, b in zip(g1, g2)])
    assert _bits(spec.divergence(log_loss_game(m=m), alpha)(g1, g2)) == _bits(
        [_scalar_log_divergence(a, b, alpha) for a, b in zip(g1, g2)])


def test_quartic_loss_squares_the_square():
    game = quartic_loss_game(outcome_grid_size=65, prediction_grid_size=65)
    for omega, gamma in ((0.3, -0.7), (1.0, -1.0), (-0.1, 0.9), (0.123456789, 0.5)):
        d = omega - gamma
        d2 = d * d
        assert game.loss(omega, gamma) == d2 * d2
        assert game.loss(omega, gamma) == pytest.approx(d ** 4, rel=1e-15)


def test_domain_violations_rejected():
    with pytest.raises(DomainError):
        bounded_square_loss_game().loss(1.5, 0.5)
    with pytest.raises(DomainError):
        bounded_square_loss_game().loss(0.5, -0.1)
    with pytest.raises(DomainError):
        log_loss_game(m=2).loss(2, np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        log_loss_game(m=2).loss(0, np.array([0.7, 0.7]))


# ---------------------------------------------------------------------------
# canonical points


def test_canonical_point_bounded_square_symmetry():
    g = binary_bsq()
    assert np.allclose(g.canonical_point(0.5), [0.25, 0.25])
    assert np.allclose(g.canonical_point(0.0), [0.0, 1.0])


def test_canonical_point_quartic():
    g = quartic_loss_game()
    g = type(g)(g.kind, np.array([-1.0, 0.0, 1.0]), g.prediction_grid)
    assert np.allclose(g.canonical_point(1.0), [16.0, 1.0, 0.0])


def test_log_loss_canonical_points_recover_probabilities():
    g = log_loss_game(m=2)
    for p in np.linspace(0.05, 0.95, 7):
        lam = g.canonical_point(np.array([1 - p, p]))
        assert abs(float(np.sum(np.exp(-lam))) - 1.0) < 1e-9


def test_log_loss_profile_of_a_probability_below_1e_300_is_its_loss():
    # -ln(1e-310) is 713.80, not the 690.78 of a probability clamped at 1e-300
    g = log_loss_game(m=2)
    gamma = [1.0, 1e-310]
    point = g.canonical_point(gamma)
    assert point[1] == pytest.approx(g.loss(1, gamma), rel=1e-15)
    assert point[1] == pytest.approx(713.80, abs=0.01)
    assert g.canonical_point([1.0, 0.0])[1] == math.inf


# ---------------------------------------------------------------------------
# membership predicates


def test_superprediction_examples():
    g = binary_bsq()
    assert is_superprediction(g, [1.0, 1.0])
    assert not is_superprediction(g, [0.0, 0.0])
    assert is_superprediction(g, [0.25, 0.25])


def test_subprediction_examples():
    g = binary_bsq()
    assert is_subprediction(g, [0.0, 0.0])
    assert is_subprediction(g, [0.25, 0.25])
    # brute-force oracle: (1,1) would need some gamma with gamma^2 >= 1 and
    # (1-gamma)^2 >= 1 simultaneously; the sweep shows the max-min is negative
    sweep = np.linspace(0.0, 1.0, 10001)
    best = np.max(np.minimum(sweep ** 2 - 1.0, (1.0 - sweep) ** 2 - 1.0))
    assert best < 0
    assert not is_subprediction(g, [1.0, 1.0])


def test_canonical_points_lie_in_both_sets():
    for game in (binary_bsq(), log_loss_game(m=2), bounded_absolute_loss_game()):
        params = game.prediction_grid[[3, 60, 128, 200, 253]]
        for u in params:
            point = game.canonical_point(game.prediction_from_param(u))
            assert is_superprediction(game, point)
            assert is_subprediction(game, point)


def test_superprediction_monotone_in_domination():
    g = binary_bsq()
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.random(2)
        if is_superprediction(g, p):
            q = p + rng.random(2) * 0.5
            assert is_superprediction(g, q)


def test_membership_rejects_bad_inputs():
    # a point not of the outcome grid's shape, and a tol that is not positive
    # and finite, are refused before the gap search builds any array: the
    # grid's canonical points stay unbuilt
    with pytest.raises(ValueError):
        is_superprediction(binary_bsq(), [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        is_superprediction(binary_bsq(), [1.0, 1.0], tol=0.0)
    g, bad_tols = bounded_square_loss_game(), (0.0, -1.0, math.nan, math.inf)
    questions = (is_superprediction, is_subprediction, superprediction_gap, subprediction_gap)
    for question in questions:
        for point in ([0.5], np.full((257, 1), 0.5), np.full(256, 0.5)):
            with pytest.raises(ValueError, match="outcome grid's shape"):
                question(g, point)
        for tol in bad_tols:
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                question(g, np.full(257, 0.5), tol=tol)
    q = quartic_loss_game()
    for divergence in (lower_alpha_divergence_numeric, upper_alpha_divergence_numeric):
        for tol in bad_tols:
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                divergence(q, -1.0, 1.0, 0.0, tol=tol)
    assert g._loss_matrix is None and q._loss_matrix is None


# ---------------------------------------------------------------------------
# non-redundancy


def test_bounded_square_non_redundant():
    assert check_non_redundant(bounded_square_loss_game(grid_size=101,
                                                        outcome_grid=[0.0, 1.0]))


def test_synthetic_ordered_pair_is_redundant():
    assert not points_non_redundant(np.array([[1.0, 1.0], [2.0, 2.0]]))


def test_log_loss_non_redundant():
    assert check_non_redundant(log_loss_game(m=2, grid_size=101))


# ---------------------------------------------------------------------------
# perfect mixability


def test_log_loss_mixable_at_eta_one():
    assert check_perfectly_mixable(log_loss_game(m=2), 1.0)


def test_log_loss_not_mixable_at_eta_three_halves():
    assert not check_perfectly_mixable(log_loss_game(m=2), 1.5)


def test_bounded_square_mixable_at_eta_two():
    assert check_perfectly_mixable(bounded_square_loss_game(), 2.0)


def test_bounded_absolute_not_mixable():
    assert not check_perfectly_mixable(bounded_absolute_loss_game(), 1.0)


@pytest.mark.parametrize("make_game, eta, expected", [
    (bounded_square_loss_game, 1.9, True),
    (bounded_square_loss_game, 2.0001, False),
    (bounded_square_loss_game, 2.0002, False),
    (bounded_square_loss_game, 2.05, False),
    (lambda: log_loss_game(m=2), 1.0, True),
    (lambda: log_loss_game(m=2), 1.00001, False),
    (lambda: log_loss_game(m=2), 1.02, False),
    (lambda: quartic_loss_game(outcome_grid_size=257), 0.5625, True),
    (lambda: quartic_loss_game(outcome_grid_size=257), 0.5626, False),
])
def test_mixability_near_threshold(make_game, eta, expected):
    # bounded square is mixable iff eta <= 2, binary log loss iff eta <= 1,
    # quartic on [-1, 1] iff eta <= 9/16, exactly
    assert check_perfectly_mixable(make_game(), eta) is expected


def quartic_on_unit_outcomes():
    return Game(GameKind.QUARTIC, np.linspace(0.0, 1.0, 257), np.linspace(-1.0, 1.0, 257))


EXACT_ETA_STAR = {
    "bounded_square": (bounded_square_loss_game, 2.0),
    "square": (square_loss_game, 2.0),
    "square_wide": (lambda: square_loss_game(outcome_grid=np.linspace(-3.0, 3.0, 257)),
                    2.0 / 36.0),
    "log_loss_m2": (lambda: log_loss_game(m=2), 1.0),
    "log_loss_m3": (lambda: log_loss_game(m=3), 1.0),
    "quartic": (quartic_loss_game, 0.5625),
    "quartic_unit_outcomes": (quartic_on_unit_outcomes, 9.0),
}


@pytest.mark.parametrize("name", sorted(EXACT_ETA_STAR))
def test_mixability_boundary_is_exact(name):
    make_game, eta_star = EXACT_ETA_STAR[name]
    game = make_game()
    assert check_perfectly_mixable(game, eta_star)
    assert not check_perfectly_mixable(game, math.nextafter(eta_star, math.inf))


@pytest.mark.parametrize("eta", [1e-9, 0.1, 1.0])
def test_absolute_loss_is_mixable_at_no_eta(eta):
    assert not check_perfectly_mixable(bounded_absolute_loss_game(), eta)
    assert not check_perfectly_mixable(absolute_loss_game(), eta)


def test_one_outcome_is_mixable_at_every_eta():
    for make_game in (bounded_square_loss_game, bounded_absolute_loss_game):
        assert check_perfectly_mixable(make_game(outcome_grid=[0.5]), 100.0)


def test_mixability_sees_the_outcome_grid():
    assert check_perfectly_mixable(square_loss_game(), 2.0)
    wide = square_loss_game(outcome_grid=np.linspace(-3.0, 3.0, 257))
    assert not check_perfectly_mixable(wide, 2.0)


# the grid midpoint test, kept as an independent reference for eta*: every
# prediction-grid canonical point on the outcome endpoints is mapped to
# (exp(-eta x), exp(-eta y)), and each midpoint of two mapped points, mapped
# back, must be a superprediction within tol

_BLOCK = 256


def _binary_restriction(game: Game) -> Game:
    og = np.array([game.outcome_grid[0], game.outcome_grid[-1]])
    return Game(game.kind, og, game.prediction_grid, m=game.m)


def _mixability_midpoint_test(game: Game, eta: float, tol: float) -> bool:
    grid = game.prediction_grid
    pts = game.grid_canonical_points().T
    mapped = np.exp(-eta * pts)
    ia, ib = np.triu_indices(len(grid), k=1)
    mids = 0.5 * (mapped[:, ia] + mapped[:, ib])
    with np.errstate(divide="ignore"):
        back = -np.log(mids) / eta
    # refinement only lowers a gap, so only midpoints whose coarse gap is
    # above tol can fail; they are refined once _BLOCK of them have piled up
    pending = []
    for start in range(0, back.shape[1], _BLOCK):
        blk = back[:, start:start + _BLOCK]
        gaps = _excess(pts[:, None, :], blk[:, :, None], sub=False)
        j = np.argmin(gaps, axis=1)
        v = gaps[np.arange(len(j)), j]
        keep = v > tol
        pending.append((blk[:, keep], grid[j[keep]], v[keep]))
        if sum(len(p[2]) for p in pending) >= _BLOCK or start + _BLOCK >= back.shape[1]:
            points, u, v = (np.concatenate(x, axis=-1) for x in zip(*pending))
            pending = []
            excess = lambda local: _excess(game.spec.param_losses(game, local),  # noqa: E731
                                           points[:, :, None], sub=False)
            if len(v) and np.max(_min_gap(game, excess, u, v, tol)[1]) > tol:
                return False
    return True


@pytest.mark.parametrize("name", ["bounded_square", "log_loss_m2", "quartic", "square_wide"])
@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_eta_star_agrees_with_the_midpoint_test(name, factor):
    make_game, eta_star = EXACT_ETA_STAR[name]
    game = make_game()
    eta = eta_star * factor
    reference = _mixability_midpoint_test(_binary_restriction(game), eta,
                                          DEFAULT_MEMBERSHIP_TOL)
    assert check_perfectly_mixable(game, eta) is reference is (factor < 1.0)


def test_mixability_rejects_bad_eta():
    with pytest.raises(ValueError):
        check_perfectly_mixable(log_loss_game(m=2), 0.0)


# ---------------------------------------------------------------------------
# descriptors


def test_descriptor_round_trip():
    for game in (square_loss_game(), bounded_square_loss_game(),
                 quartic_loss_game(), log_loss_game(m=3)):
        desc = game.descriptor()
        rebuilt = game_from_descriptor(desc)
        assert rebuilt.kind == game.kind
        assert rebuilt.m == game.m


def test_descriptor_defaults_only_missing_sizes():
    assert log_loss_game(m=3).descriptor()["grid_size"] is None
    for desc in ({"kind": "square"}, {"kind": "square", "grid_size": None}):
        assert len(game_from_descriptor(desc).prediction_grid) == 257
    for bad in ({"grid_size": 0}, {"grid_size": 2.7}, {"grid_size": True}, {"m": 0},
                {"m": 2.7}):
        with pytest.raises(ValueError):
            game_from_descriptor({"kind": "log_loss", **bad})


def test_grids_must_increase():
    with pytest.raises(ValueError):
        bounded_square_loss_game(outcome_grid=[1.0, 0.0])


def test_prediction_grid_needs_two_points():
    # the gap search's spacing is the grid's span over its intervals
    with pytest.raises(ValueError, match="at least two points"):
        bounded_absolute_loss_game(grid_size=1)


# ---------------------------------------------------------------------------
# one table per game kind

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "jeffreys")
KIND_TEST = re.compile(r"GameKind\.[A-Z]|\.kind (is|in|not in|==|!=)")

# every kind comparison outside games.py, and why it stays
ALLOWED_KIND_TESTS = {
    ("protocol.py", "MARTINGALE_NULL_KINDS = (GameKind.ABSOLUTE, GameKind.BOUNDED_ABSOLUTE)"):
        "the fair-coin martingale identity is a property of absolute loss; this names its kinds",
    ("protocol.py", "if game.kind not in MARTINGALE_NULL_KINDS:"):
        "the martingale_null check refuses other games, before any run starts",
}


def _src_lines_matching(pattern, skip=()) -> set:
    # (module, stripped line) for every src/ line the pattern matches
    hits = set()
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name in skip:
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            hits |= {(name, line.strip()) for line in fh if pattern.search(line)}
    return hits


def test_kind_knowledge_lives_in_the_table():
    assert _src_lines_matching(KIND_TEST, skip=("games.py",)) == set(ALLOWED_KIND_TESTS)


# (1 -+ alpha) / 2 formed anywhere in src/, and why it stays
ALPHA_WEIGHT = re.compile(r"1\.0\s*[-+]\s*(self\.)?alpha\)?\s*/\s*2")
ALLOWED_ALPHA_WEIGHTS = {
    ("games.py", "return (1.0 - alpha) / 2.0, (1.0 + alpha) / 2.0"):
        "alpha_weights, the one owner of the weights and of alpha's open range",
    ("sceptics.py", "w1 = np.longdouble(1.0 - alpha) / 2.0"):
        "level2_inequality_slack audits eq9 in extended precision",
    ("sceptics.py", "w2 = np.longdouble(1.0 + alpha) / 2.0"):
        "level2_inequality_slack audits eq9 in extended precision",
}


def test_alpha_weights_have_one_owner():
    assert _src_lines_matching(ALPHA_WEIGHT) == set(ALLOWED_ALPHA_WEIGHTS)


# the stand-in rule, whether a column form may stand in for a strategy's
# per-step methods, applied anywhere in src/, and why it is applied there
PLAYS_OWN = re.compile(r"\bplays_own\(")
ALLOWED_PLAYS_OWN = {
    ("players.py", "def plays_own(strategy, owner: type, *methods: str) -> bool:"):
        "the rule's definition",
    ("players.py", "if owner is None or not plays_own(strategy, owner, *_STANDS_IN_FOR[form]):"):
        "the engine decides stand-in once per run, for every role, and the lift for its base",
    ("sceptics.py", 'return plays_own(expert, ConstantPredictor, "predict", "observe")'):
        "the aggregating pool's test of a constant expert",
}


def test_the_stand_in_rule_has_one_owner():
    assert _src_lines_matching(PLAYS_OWN) == set(ALLOWED_PLAYS_OWN)


# the modules whose per-step kernels and column forms agree bit for bit by
# taking numpy's ufuncs on both paths: a transcendental taken by libm there,
# or a power over a list of Python floats, and why it stays
LIBM_CALL = re.compile(r"\bmath\.(exp|expm1|exp2|log|log1p|log2|log10|pow|sqrt|cbrt)\(")
ELEMENT_LOOP = re.compile(r"\*\*.*(\.tolist\(\)|\bmap\()|\bmap\(\s*math\.")
ONE_ARITHMETIC = ("games.py", "sceptics.py", "aggregating.py")
ALLOWED_LIBM = {
    ("sceptics.py", "self._offsets[0] = math.log(u) if u > 0.0 else -math.inf"):
        "the lift's ln U, which its switches take on the loop and in columns alike",
}


def test_the_kernels_and_column_forms_share_one_arithmetic():
    hits = _src_lines_matching(LIBM_CALL) | _src_lines_matching(ELEMENT_LOOP)
    assert {hit for hit in hits if hit[0] in ONE_ARITHMETIC} == set(ALLOWED_LIBM)


def test_the_eq8_slack_reduction_has_one_owner():
    # both pool sceptics fold their eq8 bound rows through the one audit
    assert _src_lines_matching(re.compile(r"\bnp\.fmin\.reduce\(")) == {
        ("sceptics.py",
         "slacks = np.fmin.reduce(np.asarray(bounds), axis=1) - (cum_self + comp_self)")}


def test_the_pool_step_has_one_owner():
    # both pool sceptics step through the shared pool's _move and _settle,
    # the only per-step log-sum-exps in sceptics.py; no float twin remains
    hits = _src_lines_matching(re.compile(r"\b_lse1\("))
    assert {hit for hit in hits if hit[0] == "sceptics.py"} == {
        ("sceptics.py", "total = _lse1(w)"),
        ("sceptics.py",
         "g_played = -_lse1(np.fmax(log_w - self.eta * losses, -math.inf)) / self.eta")}
    assert _src_lines_matching(re.compile(r"\bdef _lse_floats\b")) == set()


def test_each_closed_form_is_written_once():
    # the per-step level-2 move and pool move are their column forms' one-row
    # case: no per-step twin is defined, and the table has no field for one
    assert _src_lines_matching(re.compile(r"\bdef _log_(level2|mix)\b")) == set()
    assert not {f.name for f in dataclasses.fields(GameSpec)} & {"level2", "mix"}


# TwoSum's residual, the exact rounding error of one addition
TWO_SUM_RESIDUAL = re.compile(r"\(\s*\w+\s*-\s*\(\s*\w+\s*-\s*back\s*\)\s*\)\s*\+\s*"
                              r"\(\s*\w+\s*-\s*back\s*\)")


def test_two_sum_has_one_owner():
    # the pool's per-step add, every compensated cumsum and the level-1
    # ledger's rounding term take their residuals from _residuals
    assert _src_lines_matching(TWO_SUM_RESIDUAL) == {
        ("sceptics.py", "return (before - (after - back)) + (x - back)")}
    from jeffreys import sceptics
    assert "_compensated_cumsum" not in inspect.getsource(sceptics._compensated_add)


def test_the_level2_move_has_one_owner():
    # predict and predict_column both play Level2Sceptic._moves
    assert _src_lines_matching(
        re.compile(r"\bdef _(closed_move|numeric_move|numeric_column)\b")) == set()


def _spy_on(game: Game, form: str):
    # the game, with its table entry's column form ``form`` wrapped to record
    # the rows of each call of the prepared function
    prepare, rows = getattr(game.spec, form), []

    def spied_prepare(*args):
        column = prepare(*args)
        if column is None:
            return None

        def spied(first, *rest):
            rows.append(len(first))
            return column(first, *rest)
        return spied
    game.spec = dataclasses.replace(game.spec, **{form: spied_prepare})
    return game, rows


@pytest.mark.parametrize("form", ["level2_column", "mix_column"])
def test_the_loop_plays_the_column_form_one_row_per_step(form):
    # a loop-played level-2 run on binary log loss and a loop-played pool of
    # constants each call their column form once a step, on one row
    if form == "level2_column":
        game, rows = _spy_on(log_loss_game(m=2), form)
        nature = IidBernoulliNature(0.6)
        predictors = ConstantPredictor([0.7, 0.3]), RunningMeanPredictor()
        sceptic = Level2Sceptic(0.3)
    else:
        game, rows = _spy_on(bounded_square_loss_game(), form)
        nature = IidUniformNature(0.0, 1.0)
        predictors = ConstantPredictor(0.3), ConstantPredictor(0.7)
        sceptic = AggregatingSceptic([ConstantPredictor(p) for p in (0.2, 0.5, 0.8)])
    sceptic.predict = sceptic.predict  # a predict set on the instance: the engine plays the loop
    run_protocol(nature, *predictors, sceptic, game, 30, seed=5)
    assert rows == [1] * 30


def test_the_aggregation_constants_have_one_owner():
    # the domination tolerance beside the closed forms that read it
    assert _src_lines_matching(re.compile(r"\bDOMINATION_TOL =")) == {
        ("games.py", "DOMINATION_TOL = 1e-9")}


@pytest.mark.parametrize("kind", list(GAME_SPECS), ids=constructor_name)
def test_every_closed_form_has_its_column_form(kind):
    # the level-2 sceptic plays a kind's level2_column, per step and in
    # columns, wherever it has one, and reads its divergence
    spec = GAME_SPECS[kind]
    if spec.level2_column is not None:
        assert spec.divergence is not None


@pytest.mark.parametrize("kind", list(GAME_SPECS), ids=constructor_name)
def test_every_kind_the_pools_accept_has_its_mix(kind):
    # the pool sceptics play the mix and its column form, with no fallback,
    # on every kind params_for accepts, at the eta it gives
    game = GAME_SPECS[kind].make(33, 3)
    try:
        eta = params_for(game).eta
    except MixabilityViolation:
        assert GAME_SPECS[kind].mix_column is None
        return
    preds = np.array([game.prediction_from_param(u) for u in (0.2, 0.5, 0.9)]) \
        if game.prediction_shape == () else np.full((2, 3), 1.0 / 3.0)
    assert GAME_SPECS[kind].mix_column(preds, eta) is not None


@pytest.mark.parametrize("form", ["mix_column"])
def test_no_closed_form_of_the_pool_takes_a_tolerance(form):
    closed = [f for f in (getattr(spec, form) for spec in GAME_SPECS.values()) if f is not None]
    assert closed and all("tol" not in inspect.signature(f).parameters for f in closed)


def test_the_canonical_point_cache_is_not_a_constructor_parameter():
    assert "_loss_matrix" not in inspect.signature(Game).parameters


# ---------------------------------------------------------------------------
# one arithmetic: the per-step kernels call numpy's ufuncs on Python floats
# and the column forms call them on arrays, so the two paths agree bit for
# bit only where numpy's scalar and array calls do.  On a platform where
# they do not, these fail by name.

_TINY = float(np.finfo(float).smallest_subnormal)
_SPECIAL = [0.0, -0.0, _TINY, 3 * _TINY, 2.0 ** -1030, float(np.finfo(float).tiny), 1.0,
            math.inf, 0.5, 2.0, 1e-300, 1e300]


def _ufunc_inputs(name, rng, n=20_000):
    # each ufunc over the domain the library feeds it, specials first
    if name == "exp":  # differences from a row's maximum, and overflow
        random = rng.uniform(-750.0, 710.0, n)
        return np.array([*_SPECIAL, *(-x for x in _SPECIAL), 709.8, -745.2, *random])
    if name == "power":  # probabilities
        return np.array([*_SPECIAL, *rng.uniform(0.0, 1.0, n)])
    if name in ("sinh", "arcsinh"):  # the quartic move's cubic root, of either sign
        return np.array([*_SPECIAL, *(-x for x in _SPECIAL), *rng.uniform(-6.0, 6.0, n)])
    random = np.concatenate((rng.uniform(0.0, 1.0, n // 2),
                             10.0 ** rng.uniform(-310, 308, n // 2)))
    if name == "log1p":  # the ledger's u, which may lie in (-1, 0)
        random = np.concatenate((random, rng.uniform(-1.0, 0.0, n // 4)))
    return np.array([*_SPECIAL, *random])


def _call(name, x, w=None):
    with np.errstate(all="ignore"):
        return getattr(np, name)(x) if w is None else np.power(x, w)


def _numpy_cases():
    # (ufunc, exponent or None): power takes the level-2 weights, among them
    # 0.5, which numpy takes as a square root when it is a scalar exponent
    for name in ("log", "exp", "log1p", "sqrt", "sinh", "arcsinh"):
        yield name, None
    for w in (0.5, 0.1, 0.9, 0.05, 0.95, 0.25, 0.75, 0.3):
        yield "power", w


@pytest.mark.parametrize("name, w", list(_numpy_cases()))
def test_numpy_scalar_and_array_calls_agree_bit_for_bit(name, w):
    rng = np.random.default_rng(20091207)
    x = _ufunc_inputs(name, rng)
    contiguous = _call(name, x, w)
    # Python floats, and the numpy scalars that indexing an array gives
    scalars = np.array([_call(name, v, w) for v in x.tolist()])
    numpy_scalars = np.array([_call(name, v, w) for v in x])
    spaced = np.zeros(3 * len(x))
    spaced[1::3] = x
    strided = _call(name, spaced[1::3], w)
    rows = _call(name, x[:len(x) // 2 * 2].reshape(-1, 2), w)
    singles = np.concatenate([_call(name, x[i:i + 1], w) for i in range(len(x))])
    expected = _bits(contiguous)
    assert _bits(scalars) == expected
    assert _bits(numpy_scalars) == expected
    assert _bits(strided) == expected
    assert _bits(rows.ravel()) == expected[:rows.size]
    assert _bits(singles) == expected


def test_numpy_sums_a_short_row_left_to_right():
    # the lift's per-step log-sum-exp (_lse1) sums its three exps as one
    # row, and its column form (_lse_rows) sums each row of three along an
    # axis: both left to right
    rng = np.random.default_rng(20091208)
    x = rng.uniform(0.0, 1.0, (20_000, 3)) * 10.0 ** rng.integers(-3, 4, (20_000, 3))
    assert _bits(x.sum(axis=1)) == _bits((x[:, 0] + x[:, 1]) + x[:, 2])
    assert _bits([row.sum() for row in x[:2000]]) == _bits(x[:2000].sum(axis=1))


# ---------------------------------------------------------------------------
# one gap search


def test_each_check_has_one_owner():
    # protocol.py knows the protocol, not the strategies: it imports only
    # the sceptic interface; each sceptic names its own check, and cli.py
    # names none
    from jeffreys.protocol import CHECKS
    with open(os.path.join(SRC, "protocol.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    from_sceptics = [alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module == "sceptics"
                     for alias in node.names]
    assert from_sceptics == ["ScepticStrategy"]
    with open(os.path.join(SRC, "cli.py"), encoding="utf-8") as fh:
        cli = fh.read()
    assert [name for name in CHECKS if re.search(rf"\b{name}\b", cli)] == []


def test_one_refinement_loop():
    # the membership queries and the numeric divergences share _min_gap,
    # the only loop bounded by _MAX_REFINE_ROUNDS
    with open(os.path.join(SRC, "games.py"), encoding="utf-8") as fh:
        uses = [line for line in fh
                if "_MAX_REFINE_ROUNDS" in line and not line.startswith("_MAX_REFINE_ROUNDS =")]
    assert len(uses) == 1


# every kind with candidate outcomes, and the span its predictions are drawn
# from: wider than the outcome interval [0, 1] on the unbounded kinds, so
# that their kinks are clipped to it
CANDIDATE_KINDS = {GameKind.ABSOLUTE: (-2.0, 3.0), GameKind.BOUNDED_ABSOLUTE: (0.0, 1.0),
                   GameKind.SQUARE: (-2.0, 3.0), GameKind.BOUNDED_SQUARE: (0.0, 1.0),
                   GameKind.QUARTIC: (-1.0, 1.0)}


def test_every_scalar_kind_has_candidate_outcomes():
    assert {kind for kind, spec in GAME_SPECS.items() if spec.candidates} == set(CANDIDATE_KINDS)


@pytest.mark.parametrize("sub", [False, True], ids=["super", "sub"])
@pytest.mark.parametrize("kind", list(CANDIDATE_KINDS), ids=lambda kind: kind.value)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_candidates_attain_the_max_over_the_outcome_interval(kind, sub, data):
    # the excess of lambda(gamma) over the weighted mean w1 lambda(g1) +
    # w2 lambda(g2), or of the mean over it: its max over the candidates
    # equals its max over them and 4,001 evenly spaced outcomes within 1e-12,
    # and every candidate lies in the interval, so it is the max over the
    # interval.  Drawing gamma at m1 = w1 g1 + w2 g2 leaves quartic's
    # quadratic without its omega^2 term; equal predictions leave it 0 = 0
    game = GAME_SPECS[kind].make(65, 2)
    lo, hi = float(game.outcome_grid[0]), float(game.outcome_grid[-1])
    span = st.floats(*CANDIDATE_KINDS[kind])
    g1, g2, gamma = data.draw(span), data.draw(span), data.draw(span)
    alpha = data.draw(st.floats(-0.99, 0.99))
    w1, w2 = (1.0 - alpha) / 2.0, (1.0 + alpha) / 2.0
    gamma = data.draw(st.sampled_from([gamma, w1 * g1 + w2 * g2, g1]))
    if data.draw(st.booleans()):
        g2 = g1
    kernel = game.spec.kernel

    def excess(omegas):
        diff = kernel(omegas, gamma) - (w1 * kernel(omegas, g1) + w2 * kernel(omegas, g2))
        return -diff if sub else diff

    # one prediction: (C, 1) outcomes
    candidates = game.spec.candidates(lo, hi, g1, g2, w1, w2)(np.array([gamma]))[:, 0]
    assert np.all((candidates >= lo) & (candidates <= hi))
    at_candidates = float(np.max(excess(candidates)))
    dense = float(np.max(excess(np.linspace(lo, hi, 4001))))
    assert max(at_candidates, dense) - at_candidates <= 1e-12
