"""Core model: play, payoffs, winner partition, lasso handling."""

import json
import random
from fractions import Fraction

import pytest

from conftest import g1, g1_arena, g2, random_gr1_game, random_mp_game
from eqcheck.formula import parse_gr1
from eqcheck.model import (
    Arena, Game, Lasso, ModelError, StrategyProfile, Weights, canonical,
    constant_strategy, gr1_payoff, mp_payoff, play, validate_lasso,
    winners_losers,
)


def profile_of(game, actions_by_player):
    return StrategyProfile({
        p: constant_strategy(game.arena, actions_by_player[p])
        for p in game.arena.players})


def test_play_matching_constants_reach_winning_state():
    game = g1()
    lasso = play(game, profile_of(game, {"p1": "a", "p2": "a"}))
    assert lasso.prefix == (("s0", ("a", "a")),)
    assert lasso.cycle == (("sW", ("a", "a")),)


def test_play_single_state_arena_has_empty_prefix():
    arena = Arena(players=("p1",), actions={"p1": ("a",)}, states=("s",),
                  initial="s", transition={("s", ("a",)): "s"},
                  labels={"s": frozenset()}, atoms=frozenset())
    game = Game(arena=arena, gr1_goals={"p1": parse_gr1("true")})
    lasso = play(game, profile_of(game, {"p1": "a"}))
    assert lasso.prefix == ()
    assert lasso.cycle == (("s", ("a",)),)


def test_play_mismatching_constants_reach_losing_state():
    game = g1()
    lasso = play(game, profile_of(game, {"p1": "a", "p2": "b"}))
    assert lasso.cycle == (("sL", ("a", "b")),)


def test_play_is_deterministic_bit_for_bit():
    game = g1()
    runs = [play(game, profile_of(game, {"p1": "b", "p2": "b"})) for _ in range(2)]
    dumps = [json.dumps({"p": r.prefix, "c": r.cycle}, default=list) for r in runs]
    assert dumps[0] == dumps[1]


def test_play_length_bounded_by_configuration_count(rng):
    for _ in range(30):
        game = random_gr1_game(rng)
        choice = {p: rng.choice(game.arena.actions[p]) for p in game.arena.players}
        lasso = play(game, profile_of(game, choice))
        bound = len(game.arena.states)  # constant machines have one state
        assert len(lasso.prefix) + len(lasso.cycle) <= bound


def test_mp_payoff_examples():
    w = Weights({"p1": {"s": 3}})
    lasso = Lasso((), (("s", ("a",)),))
    assert mp_payoff(lasso, w, "p1") == 3

    w2 = Weights({"p1": {"u": 2, "v": -2}})
    lasso2 = Lasso((), (("u", ("a",)), ("v", ("a",))))
    assert mp_payoff(lasso2, w2, "p1") == 0

    w3 = Weights({"p1": {"x": 100, "u": 1, "v": 2}})
    lasso3 = Lasso((("x", ("a",)),), (("u", ("a",)), ("v", ("a",))))
    assert mp_payoff(lasso3, w3, "p1") == Fraction(3, 2)


def test_mp_payoff_rotation_and_prefix_invariance(rng):
    for _ in range(40):
        game = random_mp_game(rng)
        arena = game.arena
        states = [rng.choice(arena.states) for _ in range(rng.randint(1, 4))]
        cycle = tuple((s, ("a", "a")) for s in states)
        base = Lasso((), cycle)
        k = rng.randrange(len(cycle))
        rotated = Lasso((), cycle[k:] + cycle[:k])
        prefixed = Lasso((("s0", ("a", "a")),), cycle)
        for p in arena.players:
            assert mp_payoff(base, game.weights, p) == mp_payoff(rotated, game.weights, p)
            assert mp_payoff(base, game.weights, p) == mp_payoff(prefixed, game.weights, p)


def test_gr1_payoff_examples():
    arena = g1_arena()
    win = Lasso((), (("sW", ("a", "a")),))
    lose = Lasso((), (("sL", ("a", "a")),))
    goal = parse_gr1("GF p", {"p"})
    assert gr1_payoff(arena, win, goal) == 1
    assert gr1_payoff(arena, lose, goal) == 0
    conditional = parse_gr1("GF p -> GF q", {"p", "q"})
    assert gr1_payoff(arena, lose, conditional) == 1  # antecedent falsified


def test_gr1_payoff_rotation_prefix_and_unrolling_invariance(rng):
    from conftest import random_gr1
    for _ in range(40):
        game = random_gr1_game(rng)
        arena = game.arena
        goal = random_gr1(rng)
        states = [rng.choice(arena.states) for _ in range(rng.randint(1, 4))]
        cycle = tuple((s, ("a", "a")) for s in states)
        base = Lasso((), cycle)
        k = rng.randrange(len(cycle))
        rotated = Lasso((), cycle[k:] + cycle[:k])
        prefixed = Lasso((("s0", ("a", "a")),), cycle)
        doubled = Lasso((), cycle + cycle)
        results = {gr1_payoff(arena, l, goal)
                   for l in (base, rotated, prefixed, doubled)}
        assert len(results) == 1


def test_winners_losers_fixture_and_trivial():
    game = g1()
    win = Lasso((), (("sW", ("a", "a")),))
    lose = Lasso((), (("sL", ("a", "a")),))
    assert winners_losers(game, win) == (frozenset({"p1", "p2"}), frozenset())
    assert winners_losers(game, lose) == (frozenset(), frozenset({"p1", "p2"}))

    trivial = Game(arena=g1_arena(),
                   gr1_goals={"p1": parse_gr1("true"), "p2": parse_gr1("true")})
    assert winners_losers(trivial, lose) == (frozenset({"p1", "p2"}), frozenset())


def test_winners_losers_rejects_mp_games():
    with pytest.raises(ModelError):
        winners_losers(g2(), Lasso((), (("s0", ("a", "a")),)))


def test_canonical_rotates_to_minimal_rotation():
    cycle = (("v", ("b",)), ("a", ("a",)), ("m", ("a",)))
    lasso = Lasso((), cycle)
    canon = canonical(lasso)
    assert canon.cycle[0] == ("a", ("a",))
    # the induced infinite word is unchanged: prefix absorbed the rotation
    assert canon.prefix == (("v", ("b",)),)
    assert canon.cycle == (("a", ("a",)), ("m", ("a",)), ("v", ("b",)))


def test_validate_lasso_rejects_inconsistent_steps():
    arena = g1_arena()
    bad = Lasso((), (("s0", ("a", "a")), ("sL", ("a", "a"))))
    with pytest.raises(ModelError):
        validate_lasso(arena, bad)
    good = Lasso((("s0", ("a", "b")),), (("sL", ("a", "a")),))
    validate_lasso(arena, good, "s0")


def test_arena_validation_errors():
    with pytest.raises(ModelError):
        Arena(players=("p1",), actions={"p1": ("a",)}, states=("s",),
              initial="t", transition={("s", ("a",)): "s"},
              labels={"s": frozenset()}, atoms=frozenset())
    with pytest.raises(ModelError):
        Arena(players=("p1",), actions={"p1": ()}, states=("s",),
              initial="s", transition={("s", ("a",)): "s"},
              labels={"s": frozenset()}, atoms=frozenset())
    with pytest.raises(ModelError):  # missing transition row
        Arena(players=("p1",), actions={"p1": ("a", "b")}, states=("s",),
              initial="s", transition={("s", ("a",)): "s"},
              labels={"s": frozenset()}, atoms=frozenset())
