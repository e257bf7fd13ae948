"""Welfare thresholds and bisection optimization."""

import random
from fractions import Fraction

import pytest

from conftest import g2, g2_arena, random_mp_game
from eqcheck.engine import TAUTOLOGY, e_nash_mp
from eqcheck.model import Arena, Game, Lasso, Weights, mp_payoff
from eqcheck.welfare import (
    NoEquilibriumError, WelfareBounds, WelfareQuery, approx_opt_welfare,
    approx_opt_welfare_trace, esw, usw, welfare_bounds,
    welfare_threshold,
)


def _query(measure, direction, threshold):
    return WelfareQuery(measure=measure, direction=direction,
                        threshold=Fraction(threshold), spec=TAUTOLOGY)


def test_usw_esw_examples():
    game = g2()
    lasso = Lasso((("s0", ("a", "a")),), (("s1", ("a", "a")),))
    assert usw(lasso, game.weights) == 2
    assert esw(lasso, game.weights) == 0

    same = Weights({"p1": {"x": 3}, "p2": {"x": 3}})
    flat = Lasso((), (("x", ("a", "a")),))
    assert usw(flat, same) == 2 * esw(flat, same)


def test_welfare_dimension_equals_sum_of_player_averages(rng):
    from eqcheck.welfare import _sum_weights
    for _ in range(30):
        game = random_mp_game(rng)
        arena = game.arena
        states = [rng.choice(arena.states) for _ in range(rng.randint(1, 4))]
        prof = next(iter(arena.profiles()))
        lasso = Lasso((), tuple((s, prof) for s in states))
        sums = _sum_weights(game)
        welfare_avg = Fraction(sum(sums[s] for s, _ in lasso.cycle),
                               len(lasso.cycle))
        assert welfare_avg == usw(lasso, game.weights)


def test_threshold_fixture_cases():
    game = g2()
    assert welfare_threshold(game, _query("usw", "ge", 2)).answer
    assert not welfare_threshold(game, _query("usw", "ge", 3)).answer
    assert welfare_threshold(game, _query("esw", "ge", 0)).answer
    assert not welfare_threshold(game, _query("esw", "ge", 1)).answer
    assert welfare_threshold(game, _query("esw", "le", 0)).answer
    # below the floor of achievable payoffs: yes whenever equilibria exist
    floor = min(game.weights.of(i, s)
                for i in game.arena.players for s in game.arena.states)
    assert welfare_threshold(game, _query("esw", "ge", floor)).answer


def test_threshold_monotone(rng):
    for _ in range(15):
        game = random_mp_game(rng)
        bounds = welfare_bounds(game, "usw")
        thresholds = sorted({bounds.lo, (bounds.lo + bounds.hi) / 2, bounds.hi})
        answers = [welfare_threshold(game, _query("usw", "ge", t)).answer
                   for t in thresholds]
        # once no, always no for larger thresholds
        for earlier, later in zip(answers, answers[1:]):
            assert earlier or not later


def _rounds(lo, hi, eps):
    """ceil(log2((hi - lo) / eps)), exactly: the least k with
    (hi - lo) / 2^k <= eps."""
    k = 0
    while Fraction(hi - lo, 2 ** k) > eps:
        k += 1
    return k


def _flat_game(lo, hi):
    """One player, two states worth `lo` and `hi`, either reachable from
    the other: the utilitarian range is exactly [lo, hi]."""
    arena = Arena(players=("p1",), actions={"p1": ("a", "b")},
                  states=("s0", "s1"), initial="s0",
                  transition={(s, (x,)): {"a": "s0", "b": "s1"}[x]
                              for s in ("s0", "s1") for x in "ab"},
                  labels={}, atoms=frozenset())
    return Game(arena=arena, weights=Weights({"p1": {"s0": lo, "s1": hi}}))


def test_iteration_count_formula():
    """The bisection runs ceil(log2(range / eps)) rounds, none on an empty
    range."""
    for lo, hi, eps, rounds in ((0, 8, Fraction(1), 3),
                                (0, 2, Fraction(1, 4), 3),
                                (0, 2, Fraction(1, 16), 5),
                                (3, 3, Fraction(1), 0)):
        game = _flat_game(lo, hi)
        assert welfare_bounds(game, "usw") == WelfareBounds(Fraction(lo), Fraction(hi))
        assert _rounds(lo, hi, eps) == rounds
        for mode in ("max", "min"):
            trace = approx_opt_welfare_trace(game, TAUTOLOGY, "usw", mode, eps)
            assert trace.iterations == rounds
            lo_end, hi_end = trace.bracket
            assert hi_end - lo_end == Fraction(hi - lo, 2 ** rounds)


def test_bisection_on_fixture_hits_exact_optimum():
    game = g2()
    for eps in (Fraction(1), Fraction(1, 4), Fraction(1, 16)):
        trace = approx_opt_welfare_trace(game, TAUTOLOGY, "usw", "max", eps)
        assert abs(trace.value - 2) <= eps
        bounds = welfare_bounds(game, "usw")
        assert trace.iterations == _rounds(bounds.lo, bounds.hi, eps)
    trace = approx_opt_welfare_trace(game, TAUTOLOGY, "usw", "min", Fraction(1, 4))
    assert abs(trace.value - 2) <= Fraction(1, 4)


def test_bisection_bracket_invariant():
    game = g2()
    bounds = welfare_bounds(game, "usw")
    trace = approx_opt_welfare_trace(game, TAUTOLOGY, "usw", "max", Fraction(1, 4))
    lo, hi = trace.bracket
    assert bounds.lo <= lo <= hi <= bounds.hi
    assert hi - lo == (bounds.hi - bounds.lo) / 2 ** trace.iterations
    assert welfare_threshold(game, _query("usw", "ge", lo)).answer
    if hi != bounds.hi:
        assert not welfare_threshold(game, _query("usw", "ge", hi)).answer


def test_constant_weights_force_value():
    arena = g2_arena()
    const = Game(arena=arena, weights=Weights(
        {"p1": {"s0": 3, "s1": 3}, "p2": {"s0": 3, "s1": 3}}))
    for mode in ("max", "min"):
        value = approx_opt_welfare(const, TAUTOLOGY, "usw", mode, Fraction(1, 2))
        assert value == 6  # bounds collapse; zero iterations


def test_no_equilibrium_raises():
    from eqcheck.formula import parse_gr1
    from eqcheck.engine import Specification
    arena = g2_arena()
    labelled = Arena(players=arena.players, actions=arena.actions,
                     states=arena.states, initial=arena.initial,
                     transition=arena.transition,
                     labels={"s0": frozenset({"r"}), "s1": frozenset()},
                     atoms=frozenset({"r"}))
    game = Game(arena=labelled, weights=g2().weights)
    unreachable = Specification.of_gr1(parse_gr1("GF r", {"r"}))
    with pytest.raises(NoEquilibriumError):
        approx_opt_welfare(game, unreachable, "usw", "max", Fraction(1, 2))


def test_bisection_result_near_oracle_optimum(rng):
    # exact optimum by enumerating equilibrium candidates through the engine
    for _ in range(8):
        game = random_mp_game(rng, max_states=2)
        if not e_nash_mp(game, TAUTOLOGY).answer:
            continue
        eps = Fraction(1, 8)
        value = approx_opt_welfare(game, TAUTOLOGY, "usw", "max", eps)
        exact = _exact_max_usw(game)
        assert abs(value - exact) <= eps


def _exact_max_usw(game):
    """Binary search on achievable thresholds over the finite candidate set
    of cycle-average sums with denominators up to the state count."""
    from fractions import Fraction
    bounds = welfare_bounds(game, "usw")
    candidates = sorted({
        Fraction(num, den)
        for den in range(1, len(game.arena.states) + 1)
        for num in range(int(bounds.lo * den), int(bounds.hi * den) + 1)})
    best = None
    for t in candidates:
        if welfare_threshold(game, _query("usw", "ge", t)).answer:
            best = t
    return best
