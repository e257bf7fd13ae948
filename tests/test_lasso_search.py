"""Restrictions and multi-pair emptiness with witness extraction."""

import itertools
import random

from conftest import g1, g1_arena, g2, random_gr1_game, random_mp_game
from eqcheck.formula import GR1_TRUE, parse_gr1
from eqcheck.lasso_search import (
    StreettProduct, build_streett_product, project_lasso, restrict_gr1,
    restrict_mp, streett_nonempty,
)
from eqcheck.model import validate_lasso
from eqcheck.punish_gr1 import punish_region
from eqcheck.punish_mp import punish_values


def _gr1_pun(game):
    return {j: punish_region(game, j) for j in game.arena.players}


def _mp_pun(game):
    return {i: punish_values(game, i) for i in game.arena.players}


def _exposed(ea, s):
    """Each step from `s` with the players it exposes, by name."""
    players = ea.arena.players
    return {prof: {p for k, p in enumerate(players) if bits >> k & 1}
            for prof, _, bits in ea.successors(s)}


def test_restrict_gr1_no_losers_keeps_everything():
    from eqcheck.punish_gr1 import punishing_secure
    game = g1()
    pun = _gr1_pun(game)
    ea = restrict_gr1(game, pun)
    assert len(ea.transitions) == 0
    for s in game.arena.states:
        for prof, exposed in _exposed(ea, s).items():
            assert exposed == {j for j in game.arena.players
                               if not punishing_secure(game.arena, s, prof, j,
                                                       pun[j].region)}
    assert ea.transitions == dict(game.arena.transition)


def test_restrict_gr1_fixture_losers_isolate_start():
    game = g1()
    ea = restrict_gr1(game, _gr1_pun(game))
    # every step out of the start exposes both players, so a loser cannot
    # leave it; the losing sink exposes nobody
    assert all(e == {"p1", "p2"} for e in _exposed(ea, "s0").values())
    assert all(e == set() for e in _exposed(ea, "sL").values())
    assert len(_exposed(ea, "sL")) == 4


def test_restrict_gr1_full_region_keeps_everything():
    from eqcheck.model import Arena, Game
    arena = g1_arena()
    widened = Arena(players=arena.players, actions=arena.actions,
                    states=arena.states, initial=arena.initial,
                    transition=arena.transition, labels=arena.labels,
                    atoms=frozenset({"p", "q"}))
    game = Game(arena=widened,
                gr1_goals={"p1": parse_gr1("GF q", {"q"}),
                           "p2": parse_gr1("true")})
    pun = _gr1_pun(game)
    assert pun["p1"].region == frozenset(widened.states)
    ea = restrict_gr1(game, pun)
    # p2's goal has no consequents, so p2 is never exposed
    assert [pun.player for _, pun in ea.exposable] == ["p1"]
    for s in widened.states:
        assert all(e == set() for e in _exposed(ea, s).values())
    assert len(ea.transitions) == 12


def test_restrict_mp_fixture_cases():
    from fractions import Fraction
    game = g2()
    pun = _mp_pun(game)
    top = {i: max(pun[i].values.values()) for i in game.arena.players}
    ra = restrict_mp(game, top, pun)
    assert ra.states == frozenset(game.arena.states)

    ra2 = restrict_mp(game, {"p1": Fraction(2), "p2": Fraction(0)}, pun)
    assert ra2.states == frozenset({"s0", "s1"})
    assert len(ra2.successors("s0")) == 4

    ra3 = restrict_mp(game, {"p1": Fraction(0), "p2": Fraction(0)}, pun)
    assert ra3.states == frozenset()
    assert ra3.successors("s0") == []


def test_restriction_monotone_in_region_and_threshold(rng):
    from fractions import Fraction
    for _ in range(20):
        game = random_mp_game(rng)
        pun = _mp_pun(game)
        players = game.arena.players
        values = sorted({v for i in players for v in pun[i].values.values()})
        if len(values) < 2:
            continue
        low = {i: values[0] for i in players}
        high = {i: values[-1] for i in players}
        ra_low = restrict_mp(game, low, pun)
        ra_high = restrict_mp(game, high, pun)
        assert ra_low.states <= ra_high.states
        assert set(ra_low.transitions) <= set(ra_high.transitions)


def test_build_streett_product_trivial_objective():
    from eqcheck.model import Game
    game = Game(arena=g1_arena(),
                gr1_goals={"p1": GR1_TRUE, "p2": GR1_TRUE})
    ea = restrict_gr1(game, _gr1_pun(game))
    product = build_streett_product(ea, [GR1_TRUE], None)
    assert product.pairs == ()
    assert streett_nonempty(product) is not None

    bare = build_streett_product(ea, [], None)
    assert bare.pairs == ()
    assert streett_nonempty(bare) is not None


def test_fixture_product_witness_satisfies_all_pairs():
    game = g1()
    ea = restrict_gr1(game, _gr1_pun(game))
    spec = parse_gr1("GF p", {"p"})
    product = build_streett_product(
        ea, [spec, game.gr1_goals["p1"], game.gr1_goals["p2"]], None)
    found = streett_nonempty(product)
    assert found is not None
    prefix, cycle = found
    cycle_nodes = {n for n, _ in cycle}
    for fin, inf in product.pairs:
        assert not (cycle_nodes & fin) or (cycle_nodes & inf)
    lasso = project_lasso(prefix, cycle)
    validate_lasso(game.arena, lasso, "s0")
    assert {s for s, _ in lasso.cycle} == {"sW"}


def _tiny_product(nodes, edges, pairs, start):
    succ = {n: tuple((None, t) for s, t in edges if s == n) for n in nodes}
    return StreettProduct(start=start, nodes=tuple(nodes), succ=succ,
                          pairs=tuple(pairs))


def test_streett_pair_examples():
    n = "n"
    loop = _tiny_product([n], [(n, n)], [(frozenset(), frozenset({n}))], n)
    assert streett_nonempty(loop) is not None

    reject = _tiny_product([n], [(n, n)], [(frozenset({n}), frozenset())], n)
    assert streett_nonempty(reject) is None

    u, v = "u", "v"
    contradictory = _tiny_product(
        [u, v], [(u, v), (v, u)],
        [(frozenset({u}), frozenset()), (frozenset(), frozenset({v}))], u)
    assert streett_nonempty(contradictory) is None


def _brute_streett_nonempty(product):
    """A closed walk visiting exactly a node set exists iff that set's
    induced subgraph is strongly connected, so enumerate reachable node
    subsets and check the pairs on each."""
    reach = set()
    frontier = [product.start]
    while frontier:
        n = frontier.pop()
        if n in reach:
            continue
        reach.add(n)
        frontier.extend(t for _, t in product.succ[n])

    members = sorted(reach, key=str)

    def induced_strongly_connected(subset):
        subset = set(subset)
        adj = {n: [t for _, t in product.succ[n] if t in subset] for n in subset}
        if any(not adj[n] for n in subset):
            return False
        root = next(iter(subset))
        for direction in (adj, _reversed(adj)):
            seen = {root}
            stack = [root]
            while stack:
                v = stack.pop()
                for w in direction[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if seen != subset:
                return False
        return True

    def _reversed(adj):
        rev = {n: [] for n in adj}
        for n, targets in adj.items():
            for t in targets:
                rev[t].append(n)
        return rev

    for mask in range(1, 1 << len(members)):
        subset = frozenset(members[k] for k in range(len(members))
                           if mask >> k & 1)
        if not induced_strongly_connected(subset):
            continue
        if all(not (subset & fin) or (subset & inf)
               for fin, inf in product.pairs):
            return True
    return False


def test_streett_against_cycle_enumeration(rng):
    for _ in range(120):
        count = rng.randint(1, 8)
        nodes = [f"n{k}" for k in range(count)]
        edges = []
        for n in nodes:
            for _ in range(rng.randint(1, 2)):
                edges.append((n, rng.choice(nodes)))
        edges = sorted(set(edges))
        pairs = []
        for _ in range(rng.randint(0, 2)):
            fin = frozenset(n for n in nodes if rng.random() < 0.3)
            inf = frozenset(n for n in nodes if rng.random() < 0.3)
            pairs.append((fin, inf))
        product = _tiny_product(nodes, edges, pairs, nodes[0])
        got = streett_nonempty(product)
        expected = _brute_streett_nonempty(product)
        assert (got is not None) == expected, (edges, pairs)
        if got is not None:
            prefix, cycle = got
            cycle_nodes = {n for n, _ in cycle}
            for fin, inf in pairs:
                assert not (cycle_nodes & fin) or (cycle_nodes & inf)


def test_witness_cycle_stays_in_graph(rng):
    for _ in range(30):
        game = random_gr1_game(rng)
        ea = restrict_gr1(game, _gr1_pun(game))
        product = build_streett_product(
            ea, [game.gr1_goals[p] for p in game.arena.players], None)
        found = streett_nonempty(product)
        if found is None:
            continue
        lasso = project_lasso(*found)
        validate_lasso(game.arena, lasso, game.arena.initial)
