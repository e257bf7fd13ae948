"""Mean-payoff punishment: turn-based expansion, exact values, strategies."""

from fractions import Fraction

import pytest

from conftest import random_mp_game
from eqcheck.fixtures import g2, g2_arena
from eqcheck.model import Arena, Game, Weights
from eqcheck.oracle import brute_pun_mp
from eqcheck.punish_mp import (
    MAX, MIN, MpZeroSumGame, _energy, build_mp_punish_game, punish_values,
    solve_mp_values, z_secure,
)


def _single_state_game(weight):
    arena = Arena(players=("p1",), actions={"p1": ("a",)}, states=("s",),
                  initial="s", transition={("s", ("a",)): "s"},
                  labels={"s": frozenset()}, atoms=frozenset())
    return Game(arena=arena, weights=Weights({"p1": {"s": weight}}))


def test_build_punish_game_shapes():
    game = g2()
    tb = build_mp_punish_game(game, "p1")
    coalition_nodes = [u for u in tb.nodes if u[0] == "c"]
    response_nodes = [u for u in tb.nodes if u[0] == "r"]
    assert {u[1] for u in coalition_nodes} == {"s0", "s1"}
    assert len(response_nodes) == 4  # two states x two coalition choices
    # alternation and weight duplication
    for u in coalition_nodes:
        assert all(v[0] == "r" for _, v in tb.succ[u])
        assert tb.weight[u] == game.weights.of("p1", u[1])
    for u in response_nodes:
        assert all(v[0] == "c" for _, v in tb.succ[u])
        assert tb.weight[u] == game.weights.of("p1", u[1])


def test_single_forced_loop_value():
    values = punish_values(_single_state_game(5), "p1")
    assert values.values["s"] == 5


def test_one_player_game_has_single_coalition_choice():
    game = _single_state_game(3)
    tb = build_mp_punish_game(game, "p1")
    for u in tb.nodes:
        if u[0] == "c":
            assert len(tb.succ[u]) == 1  # empty coalition commits nothing


def test_two_node_forced_cycle_averages_to_zero():
    arena = Arena(players=("p1",), actions={"p1": ("a",)}, states=("u", "v"),
                  initial="u",
                  transition={("u", ("a",)): "v", ("v", ("a",)): "u"},
                  labels={"u": frozenset(), "v": frozenset()}, atoms=frozenset())
    game = Game(arena=arena, weights=Weights({"p1": {"u": 1, "v": -1}}))
    values = punish_values(game, "p1")
    assert values.values == {"u": 0, "v": 0}


def test_forced_five_cycle_with_large_weights():
    states = tuple(f"s{k}" for k in range(5))
    actions = {"p1": ("a", "b"), "p2": ("a", "b")}
    transition = {(s, (a, b)): states[(k + 1) % 5]
                  for k, s in enumerate(states) for a in "ab" for b in "ab"}
    arena = Arena(players=("p1", "p2"), actions=actions, states=states,
                  initial="s0", transition=transition,
                  labels={s: frozenset() for s in states}, atoms=frozenset())
    weights = dict(zip(states, (50, -50, 41, -34, 0)))  # sum 7
    game = Game(arena=arena, weights=Weights({"p1": weights, "p2": weights}))
    for i in arena.players:
        values = punish_values(game, i)
        assert values.values == {s: Fraction(7, 5) for s in states}


def test_energy_marks_inescapable_negative_cycle_losing():
    # Eve owns x, y, d, e, w; Adam owns z, m.  z <-> w is a negative cycle
    # Eve cannot leave; Adam at m steers into it.
    owner = {"x": MAX, "y": MAX, "d": MAX, "e": MAX, "w": MAX, "z": MIN, "m": MIN}
    weight = {"x": 1, "y": 0, "d": -2, "e": 3, "w": -1, "z": -1, "m": 0}
    succ = {
        "x": (("stay", "x"),),
        "y": (("to_z", "z"), ("to_d", "d"), ("to_x", "x")),
        "d": (("to_x", "x"),),
        "e": (("to_z", "z"), ("to_m", "m")),
        "w": (("to_z", "z"),),
        "z": (("to_w", "w"),),
        "m": (("to_x", "x"), ("to_z", "z")),
    }
    g = MpZeroSumGame(player="p1", nodes=tuple(sorted(owner)), owner=owner,
                      weight=weight, succ=succ)
    credit, choice = _energy(g, g.nodes, g.weight, MAX)
    assert credit == {"x": 0, "y": 0, "d": 2, "e": None, "w": None, "z": None,
                      "m": None}
    winning = {u for u in g.nodes if credit[u] is not None}
    assert set(choice) == {u for u in winning if g.owner[u] == MAX}
    for u, (lbl, v) in choice.items():
        assert v in winning and (lbl, v) in g.succ[u]
    assert choice["y"] == ("to_x", "x")


def test_fixture_values_and_security():
    game = g2()
    values = punish_values(game, "p1")
    assert values.values == {"s0": 2, "s1": 2}
    arena = g2_arena()
    assert z_secure(arena, "s0", ("a", "b"), "p1", Fraction(2), values)
    assert not z_secure(arena, "s0", ("a", "b"), "p1", Fraction(1), values)
    top = max(game.weights.of("p1", s) for s in arena.states)
    for prof in arena.profiles():
        assert z_secure(arena, "s0", prof, "p1", Fraction(top), values)


def test_values_within_weight_bounds(rng):
    for _ in range(30):
        game = random_mp_game(rng)
        for i in game.arena.players:
            values = punish_values(game, i)
            lo = min(game.weights.of(i, s) for s in game.arena.states)
            hi = max(game.weights.of(i, s) for s in game.arena.states)
            for s in game.arena.states:
                assert lo <= values.values[s] <= hi
                assert values.values[s].denominator <= len(game.arena.states)


def test_strategy_consistency(rng):
    for _ in range(30):
        game = random_mp_game(rng)
        arena = game.arena
        for i in arena.players:
            values = punish_values(game, i)
            for start in arena.states:
                assert _forced_average(game, i, values, start) == values.values[start]


def _forced_average(game, i, values, start):
    arena = game.arena
    s = start
    order = {}
    seq = []
    while s not in order:
        order[s] = len(seq)
        partial = values.coalition_strategy[s]
        action = values.maximizer_strategy[(s, partial)]
        seq.append(s)
        s = arena.transition[(s, arena.combine(partial, i, action))]
    cycle = seq[order[s]:]
    return Fraction(sum(game.weights.of(i, t) for t in cycle), len(cycle))


def test_values_match_oracle_exactly(rng):
    games = [random_mp_game(rng) for _ in range(50)]
    games += [random_mp_game(rng, weight_range=(-6, 6), min_states=4, max_states=4)
              for _ in range(30)]
    for game in games:
        for i in game.arena.players:
            engine_vals = punish_values(game, i).values
            oracle_vals = brute_pun_mp(game, i)
            assert {s: engine_vals[s] for s in game.arena.states} == oracle_vals


def test_uniform_weight_shift_moves_values_by_constant(rng):
    for _ in range(15):
        game = random_mp_game(rng)
        shift = rng.randint(1, 3)
        shifted = Game(
            arena=game.arena,
            weights=Weights({
                p: {s: game.weights.of(p, s) + shift for s in game.arena.states}
                for p in game.arena.players}))
        for i in game.arena.players:
            base = punish_values(game, i).values
            moved = punish_values(shifted, i).values
            for s in game.arena.states:
                assert moved[s] == base[s] + shift
