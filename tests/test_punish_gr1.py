"""Punishment regions: counter product, parity solving, security checks."""

import itertools
import random

import pytest

from conftest import g1, g1_arena, random_gr1_game
from eqcheck.formula import parse_gr1
from eqcheck.model import Arena, Game
from eqcheck.oracle import brute_pun_gr1
from eqcheck.punish_gr1 import (
    EVEN, ODD, TurnBasedGame, build_counter_arena, build_turn_based,
    punish_region, punishing_secure, solve_parity,
)


def test_counter_arena_degenerate_goal():
    arena = g1_arena()
    ca = build_counter_arena(arena, parse_gr1("true"))
    assert len(ca.configs) == len(arena.states)
    for cfg in ca.configs:
        assert cfg[1] == 0 and cfg[2] == 0
        for prof in arena.profiles():
            assert ca.transition[(cfg, prof)][1:] == (0, 0)


def _two_state_cycle():
    """s0 (labelled p) and s1 (labelled q); action a swaps, b stays."""
    return Arena(players=("p1",), actions={"p1": ("a", "b")},
                 states=("s0", "s1"), initial="s0",
                 transition={("s0", ("a",)): "s1", ("s0", ("b",)): "s0",
                             ("s1", ("a",)): "s0", ("s1", ("b",)): "s1"},
                 labels={"s0": frozenset({"p"}), "s1": frozenset({"q"})},
                 atoms=frozenset({"p", "q"}))


def test_counter_arena_resets_track_consequent_visits():
    arena = _two_state_cycle()
    ca = build_counter_arena(arena, parse_gr1("GF p & GF q", {"p", "q"}))
    # the consequent counter waits for p, then for q, then wraps to 0
    cfg = ("s0", 0, 0)
    nxt = ca.transition[(cfg, ("a",))]
    assert nxt == ("s1", 0, 1)
    # waiting for q, it wraps to 0 from the q-state and waits elsewhere
    assert ca.transition[(nxt, ("b",))] == ("s1", 0, 0)
    assert ca.transition[(("s0", 0, 1), ("b",))] == ("s0", 0, 1)
    # stepping from a state without p leaves it waiting for p
    assert ca.transition[(("s1", 0, 0), ("a",))] == ("s0", 0, 0)
    # the reset is the wrap: q seen while the counter waits for it
    assert ca.reset2 == frozenset({("s1", 0, 1)})
    assert len(ca.configs) == 2 * len(arena.states)

    # a one-term side has no counter; its resets are the states of its term
    one = build_counter_arena(arena, parse_gr1("GF p", {"p"}))
    assert len(one.configs) == len(arena.states)
    assert one.reset2 == frozenset({("s0", 0, 0)})


def test_counter_arena_antecedent_reset_with_unsatisfiable_consequent():
    arena = Arena(players=("p1",), actions={"p1": ("a",)}, states=("s",),
                  initial="s", transition={("s", ("a",)): "s"},
                  labels={"s": frozenset({"p"})}, atoms=frozenset({"p", "q"}))
    ca = build_counter_arena(
        arena, parse_gr1("GF p & GF !q -> GF p & GF q", {"p", "q"}))
    cfg = ("s", 0, 0)
    seen = []
    for _ in range(6):
        seen.append(cfg)
        cfg = ca.transition[(cfg, ("a",))]
    # antecedent counter keeps wrapping; consequent counter sticks at 1,
    # waiting for q, so its reset never comes
    assert seen == [("s", 0, 0)] + [("s", 1, 1), ("s", 0, 1)] * 2 + [("s", 1, 1)]
    assert ca.reset1 & set(seen) == {("s", 1, 1)}
    assert not ca.reset2

    one = build_counter_arena(arena, parse_gr1("GF p -> GF q", {"p", "q"}))
    assert len(one.configs) == len(arena.states)
    assert one.reset1 == frozenset(one.configs) and not one.reset2


def _forced_game(priorities):
    """Single chain of forced moves cycling through the given priorities."""
    n = len(priorities)
    nodes = tuple(("c", k) for k in range(n))
    owner = {u: ODD for u in nodes}
    prio = {("c", k): priorities[k] for k in range(n)}
    succ = {("c", k): (("c", (k + 1) % n),) for k in range(n)}
    pred = {("c", k): (("c", (k - 1) % n),) for k in range(n)}
    return TurnBasedGame(nodes=nodes, owner=owner, priority=prio,
                         succ=succ, pred=pred)


def test_parity_forced_cycles():
    win_even, win_odd, _, _ = solve_parity(_forced_game([0, 0, 0]))
    assert not win_odd and len(win_even) == 3

    win_even, win_odd, _, _ = solve_parity(_forced_game([1, 1]))
    assert not win_even and len(win_odd) == 2

    win_even, win_odd, _, _ = solve_parity(_forced_game([1, 2]))
    assert not win_odd and len(win_even) == 2


def test_parity_determinacy_on_random_products(rng):
    for _ in range(40):
        game = random_gr1_game(rng)
        j = rng.choice(game.arena.players)
        tb = build_turn_based(
            build_counter_arena(game.arena, game.gr1_goals[j]), j)
        win_even, win_odd, strat_even, strat_odd = solve_parity(tb)
        assert win_even | win_odd == set(tb.nodes)
        assert not (win_even & win_odd)
        for u, v in list(strat_even.items()) + list(strat_odd.items()):
            assert v in tb.succ[u]


def test_punish_region_fixture_and_degenerate_goals():
    game = g1()
    assert punish_region(game, "p1").region == frozenset({"sL"})
    assert punish_region(game, "p2").region == frozenset({"sL"})

    arena = g1_arena()
    trivial = Game(arena=arena, gr1_goals={"p1": parse_gr1("true"),
                                           "p2": parse_gr1("true")})
    assert punish_region(trivial, "p1").region == frozenset()

    widened = Arena(players=arena.players, actions=arena.actions,
                    states=arena.states, initial=arena.initial,
                    transition=arena.transition, labels=arena.labels,
                    atoms=frozenset({"p", "q"}))
    unsat = Game(arena=widened,
                 gr1_goals={"p1": parse_gr1("GF q", {"p", "q"}),
                            "p2": parse_gr1("true")})
    assert punish_region(unsat, "p1").region == frozenset(widened.states)


def test_punishing_secure_fixture_cases():
    game = g1()
    region = punish_region(game, "p1").region
    arena = game.arena
    assert not punishing_secure(arena, "s0", ("a", "b"), "p1", region)
    assert punishing_secure(arena, "sL", ("a", "a"), "p1", region)
    assert punishing_secure(arena, "s0", ("a", "b"), "p1", set(arena.states))


def test_counter_invariance_of_winning(rng):
    for _ in range(25):
        game = random_gr1_game(rng)
        j = rng.choice(game.arena.players)
        ca = build_counter_arena(game.arena, game.gr1_goals[j])
        tb = build_turn_based(ca, j)
        _, win_odd, _, _ = solve_parity(tb)
        for cfg in ca.configs:
            assert (("c", cfg) in win_odd) == (
                ("c", (cfg[0], 0, 0)) in win_odd), (cfg, game.gr1_goals[j])


def test_punish_region_matches_oracle(rng):
    for _ in range(60):
        game = random_gr1_game(rng)
        for j in game.arena.players:
            assert punish_region(game, j).region == brute_pun_gr1(game, j), (
                game.gr1_goals[j], game.arena.transition)


def test_coalition_strategy_defeats_every_response(rng):
    from eqcheck.punish_gr1 import advance_counters
    from eqcheck.model import gr1_payoff, Lasso

    checked = 0
    for _ in range(40):
        game = random_gr1_game(rng)
        arena = game.arena
        j = rng.choice(arena.players)
        result = punish_region(game, j)
        goal = game.gr1_goals[j]
        if not result.region:
            continue
        for start in sorted(result.region):
            for response in _memoryless_responses(arena, j, result, start):
                lasso = _forced_lasso(arena, goal, j, result, start, response)
                assert gr1_payoff(arena, lasso, goal) == 0, (goal, start)
                checked += 1
    assert checked > 0


def test_counter_invariance_of_winning_on_two_term_goals(rng):
    for _ in range(25):
        game = random_gr1_game(rng, max_side=2)
        j = rng.choice(game.arena.players)
        ca = build_counter_arena(game.arena, game.gr1_goals[j])
        tb = build_turn_based(ca, j)
        _, win_odd, _, _ = solve_parity(tb)
        for cfg in ca.configs:
            assert (("c", cfg) in win_odd) == (
                ("c", (cfg[0], 0, 0)) in win_odd), (cfg, game.gr1_goals[j])


def test_coalition_strategy_defeats_every_response_on_two_term_goals(rng):
    from eqcheck.model import gr1_payoff

    checked = 0
    counting = 0  # starts from which some counter moves off zero
    for _ in range(200):
        game = random_gr1_game(rng, max_side=2)
        arena = game.arena
        j = rng.choice(arena.players)
        result = punish_region(game, j)
        goal = game.gr1_goals[j]
        for start in sorted(result.region):
            reachable = _reachable_configs(arena, j, result, start)
            # keep the enumeration of memoryless responses small
            if len(reachable) > 8:
                continue
            counting += any(c[1] or c[2] for c in reachable)
            for response in _memoryless_responses(arena, j, result, start):
                lasso = _forced_lasso(arena, goal, j, result, start, response)
                assert gr1_payoff(arena, lasso, goal) == 0, (goal, start)
                checked += 1
    assert checked > 0 and counting > 20


def _reachable_configs(arena, j, result, start):
    """The configurations reachable from `start` under the coalition
    strategy, whatever j answers."""
    from eqcheck.punish_gr1 import advance_counters
    goal = result.goal
    reachable = set()
    frontier = [(start, 0, 0)]
    while frontier:
        cfg = frontier.pop()
        if cfg in reachable:
            continue
        reachable.add(cfg)
        partial = result.coalition_strategy[cfg]
        stepped = advance_counters(goal, arena.label(cfg[0]), cfg[1], cfg[2])
        for a in arena.actions[j]:
            target = arena.transition[(cfg[0], arena.combine(partial, j, a))]
            frontier.append((target,) + stepped)
    return sorted(reachable)


def _memoryless_responses(arena, j, result, start):
    """All response maps over the configurations reachable under the
    coalition strategy."""
    reachable = _reachable_configs(arena, j, result, start)
    for combo in itertools.product(arena.actions[j], repeat=len(reachable)):
        yield dict(zip(reachable, combo))


def _forced_lasso(arena, goal, j, result, start, response):
    from eqcheck.punish_gr1 import advance_counters
    cfg = (start, 0, 0)
    seen = {}
    entries = []
    while cfg not in seen:
        seen[cfg] = len(entries)
        partial = result.coalition_strategy[cfg]
        profile = arena.combine(partial, j, response[cfg])
        entries.append((cfg[0], profile))
        stepped = advance_counters(goal, arena.label(cfg[0]), cfg[1], cfg[2])
        cfg = (arena.transition[(cfg[0], profile)],) + stepped
    from eqcheck.model import Lasso
    split = seen[cfg]
    return Lasso(tuple(entries[:split]), tuple(entries[split:]))
