"""Shared example games and random-instance generators for the test suite.

`g1` and `g2` are the repository's example games, parsed from
`games/g1.game` (coordinate to reach the winning state; both players want
`GF p`) and `games/g2.game` (its mean-payoff sibling).

Every generator takes an explicit `random.Random` so each test pins its own
seed; sizes default to the scales the acceptance suite prescribes (two
players, up to three states, up to two actions, weights in [-2, 2], goals
with at most one term per side).
"""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import settings

from eqcheck.cli import parse_game_file
from eqcheck.formula import Atom, Gr1Formula, Not
from eqcheck.model import Arena, Game, Weights

GAMES = Path(__file__).resolve().parent.parent / "games"

ATOMS = ("p", "q")

# property tests draw the same examples on every run, with no per-example
# deadline, so they neither vary nor time out on a slow or shared host
settings.register_profile("eqcheck", derandomize=True, deadline=None,
                          max_examples=200)
settings.load_profile("eqcheck")


def g1() -> Game:
    return parse_game_file(GAMES / "g1.game")


def g2() -> Game:
    return parse_game_file(GAMES / "g2.game")


def g1_arena() -> Arena:
    return g1().arena


def g2_arena() -> Arena:
    return g2().arena


def random_arena(rng, max_states=3, n_players=2, max_actions=2, atoms=ATOMS,
                 min_states=1, min_actions=1):
    states = tuple(f"s{k}" for k in range(rng.randint(min_states, max_states)))
    players = tuple(f"p{k + 1}" for k in range(n_players))
    actions = {p: tuple("abcd"[:rng.randint(min_actions, max_actions)])
               for p in players}
    labels = {s: frozenset(a for a in atoms if rng.random() < 0.4) for s in states}
    transition = {}
    for s in states:
        for prof in itertools.product(*(actions[p] for p in players)):
            transition[(s, prof)] = rng.choice(states)
    return Arena(players=players, actions=actions, states=states,
                 initial=states[0], transition=transition, labels=labels,
                 atoms=frozenset(atoms))


def random_bool_term(rng, atoms=ATOMS):
    atom = Atom(rng.choice(atoms))
    return atom if rng.random() < 0.7 else Not(atom)


def random_gr1(rng, atoms=ATOMS, max_side=1):
    antecedents = tuple(random_bool_term(rng, atoms)
                        for _ in range(rng.randint(0, max_side)))
    consequents = tuple(random_bool_term(rng, atoms)
                        for _ in range(rng.randint(0, max_side)))
    return Gr1Formula(antecedents, consequents)


def random_gr1_game(rng, max_side=1, **kwargs):
    arena = random_arena(rng, **kwargs)
    goals = {p: random_gr1(rng, max_side=max_side) for p in arena.players}
    return Game(arena=arena, gr1_goals=goals)


def random_mp_game(rng, weight_range=(-2, 2), **kwargs):
    arena = random_arena(rng, **kwargs)
    lo, hi = weight_range
    table = {p: {s: rng.randint(lo, hi) for s in arena.states}
             for p in arena.players}
    return Game(arena=arena, weights=Weights(table))


@pytest.fixture
def rng():
    return random.Random(20240817)
