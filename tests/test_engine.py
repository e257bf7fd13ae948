"""Drivers: existential/universal queries, synthesis, witness validation."""

import random
from fractions import Fraction

import pytest

from conftest import (
    g1, g1_arena, g2, random_arena, random_gr1, random_gr1_game, random_mp_game,
)
from eqcheck.engine import (
    Specification, TAUTOLOGY, a_nash, e_nash, e_nash_gr1, e_nash_mp,
    non_emptiness, synthesize_profile, validate_witness,
)
from eqcheck.formula import GR1_TRUE, parse_gr1, parse_ltl
from eqcheck.lp import WitnessGapError
from eqcheck.model import Game, canonical, play
from eqcheck.oracle import eval_ltl_on_lasso


SPEC_GFP = Specification.of_gr1(parse_gr1("GF p", {"p"}))


def test_e_nash_gr1_fixture_yes_with_winning_cycle():
    verdict = e_nash_gr1(g1(), SPEC_GFP)
    assert verdict.answer
    witness = verdict.witness
    assert set(witness.candidate_winners) == {"p1", "p2"}
    assert {s for s, _ in witness.lasso.cycle} == {"sW"}
    validate_witness(g1(), SPEC_GFP, verdict)


def test_e_nash_gr1_fixture_no_for_avoidance_spec():
    spec = Specification.of_ltl(parse_ltl("G !p", {"p"}))
    assert not e_nash_gr1(g1(), spec).answer


def test_e_nash_trivial_goals_and_spec():
    trivial = Game(arena=g1_arena(),
                   gr1_goals={"p1": parse_gr1("true"), "p2": parse_gr1("true")})
    assert e_nash_gr1(trivial, TAUTOLOGY).answer


def test_e_nash_mp_fixture_examples():
    verdict = e_nash_mp(g2(), TAUTOLOGY)
    assert verdict.answer
    assert verdict.witness.candidate_z == {"p1": Fraction(2), "p2": Fraction(0)}
    assert {s for s, _ in verdict.witness.lasso.cycle} == {"s1"}
    validate_witness(g2(), TAUTOLOGY, verdict)


def test_e_nash_mp_rejects_low_payoff_specs():
    from eqcheck.model import Arena, Weights
    arena = g2().arena
    labelled = Arena(players=arena.players, actions=arena.actions,
                     states=arena.states, initial=arena.initial,
                     transition=arena.transition,
                     labels={"s0": frozenset({"at_s0"}), "s1": frozenset()},
                     atoms=frozenset({"at_s0"}))
    game = Game(arena=labelled, weights=g2().weights)
    spec = Specification.of_gr1(parse_gr1("GF at_s0", {"at_s0"}))
    assert not e_nash_mp(game, spec).answer


def test_single_state_game_always_has_equilibrium():
    from eqcheck.model import Arena, Weights
    arena = Arena(players=("p1",), actions={"p1": ("a",)}, states=("s",),
                  initial="s", transition={("s", ("a",)): "s"},
                  labels={"s": frozenset()}, atoms=frozenset())
    game = Game(arena=arena, weights=Weights({"p1": {"s": -1}}))
    assert non_emptiness(game).answer


def test_a_nash_duality_on_fixtures():
    assert a_nash(g1(), SPEC_GFP).answer
    neg = Specification.of_ltl(parse_ltl("F G !p", {"p"}))
    assert not e_nash(g1(), neg).answer
    assert a_nash(g1(), TAUTOLOGY).answer
    assert a_nash(g2(), TAUTOLOGY).answer


def test_duality_on_random_games(rng):
    from eqcheck.formula import gr1_to_ltl, negate_to_ltl
    for _ in range(40):
        if rng.random() < 0.5:
            game = random_gr1_game(rng)
        else:
            game = random_mp_game(rng)
        spec = Specification.of_gr1(parse_gr1("GF p", {"p", "q"}))
        dual = a_nash(game, spec)
        negated = Specification.of_ltl(negate_to_ltl(gr1_to_ltl(spec.gr1)))
        assert dual.answer == (not e_nash(game, negated).answer)
        assert non_emptiness(game).answer == e_nash(game, TAUTOLOGY).answer


def test_candidate_order_is_deterministic():
    first = e_nash_gr1(g1(), SPEC_GFP)
    second = e_nash_gr1(g1(), SPEC_GFP)
    assert first.witness.lasso == second.witness.lasso
    assert first.diagnostics == second.diagnostics


def test_synthesis_replays_gr1_witness():
    verdict = e_nash_gr1(g1(), SPEC_GFP)
    profile = synthesize_profile(g1(), verdict.witness)
    replay = play(g1(), profile)
    assert canonical(replay) == canonical(verdict.witness.lasso)


def test_synthesis_flags_unilateral_deviation():
    verdict = e_nash_gr1(g1(), Specification.of_ltl(parse_ltl("F G !p", {"p"})))
    assert not verdict.answer
    # use the GF p witness instead, then feed a deviation by p2
    verdict = e_nash_gr1(g1(), SPEC_GFP)
    profile = synthesize_profile(g1(), verdict.witness)
    machine = profile.strategies["p1"]
    q0 = machine.initial
    expected = verdict.witness.lasso.steps()[0][1]
    deviation = ("a", "b") if expected == ("a", "a") else ("a", "a")
    if set(verdict.witness.losers) >= {"p2"}:
        q1 = machine.step[(q0, deviation)]
        assert q1[2] == "p2"
    # simultaneous deviations keep the conforming flag
    both = tuple("b" if a == "a" else "a" for a in expected)
    q2 = machine.step[(q0, both)]
    assert q2[2] == "*"


def test_synthesis_replays_mp_witness_and_punishes():
    verdict = e_nash_mp(g2(), TAUTOLOGY)
    profile = synthesize_profile(g2(), verdict.witness)
    replay = play(g2(), profile)
    assert canonical(replay) == canonical(verdict.witness.lasso)
    machine = profile.strategies["p1"]
    q0 = machine.initial
    expected = verdict.witness.lasso.steps()[0][1]
    deviation = tuple(
        a if p == "p1" else ("b" if a == "a" else "a")
        for p, a in zip(("p1", "p2"), expected))
    q1 = machine.step[(q0, deviation)]
    assert q1[2] == "p2"


def test_synthesis_single_state_game():
    from eqcheck.model import Arena, Weights
    arena = Arena(players=("p1",), actions={"p1": ("a",)}, states=("s",),
                  initial="s", transition={("s", ("a",)): "s"},
                  labels={"s": frozenset()}, atoms=frozenset())
    game = Game(arena=arena, weights=Weights({"p1": {"s": 5}}))
    verdict = non_emptiness(game)
    profile = synthesize_profile(game, verdict.witness)
    assert canonical(play(game, profile)) == canonical(verdict.witness.lasso)


def test_witness_self_validation_gr1(rng):
    from eqcheck.formula import gr1_to_ltl
    from eqcheck.model import validate_lasso
    from eqcheck.punish_gr1 import punishing_secure
    yes = 0
    for _ in range(60):
        game = random_gr1_game(rng)
        spec = Specification.of_gr1(parse_gr1("GF p", {"p", "q"})) \
            if rng.random() < 0.5 else TAUTOLOGY
        verdict = e_nash_gr1(game, spec)
        if not verdict.answer:
            continue
        yes += 1
        validate_witness(game, spec, verdict)
        witness = verdict.witness
        labels = {s: game.arena.label(s) for s in game.arena.states}
        assert eval_ltl_on_lasso(spec.as_ltl(), witness.lasso, labels)
        for j in witness.losers:
            region = witness.punish_regions[j].region
            for s, prof in witness.lasso.steps():
                assert punishing_secure(game.arena, s, prof, j, region)
        replay = play(game, synthesize_profile(game, witness))
        assert canonical(replay) == canonical(witness.lasso)
    assert yes > 5


def test_witness_self_validation_mp(rng):
    from eqcheck.model import mp_payoff
    from eqcheck.punish_mp import z_secure
    yes = 0
    gaps = 0
    for _ in range(60):
        game = random_mp_game(rng)
        verdict = e_nash_mp(game, TAUTOLOGY)
        if not verdict.answer:
            continue
        yes += 1
        if verdict.witness.lasso is None:
            gaps += 1
            assert verdict.witness.witness_gap
            continue
        validate_witness(game, TAUTOLOGY, verdict)
        witness = verdict.witness
        for i in game.arena.players:
            for s, prof in witness.lasso.steps():
                assert z_secure(game.arena, s, prof, i,
                                witness.candidate_z[i], witness.punish_values[i])
            assert mp_payoff(witness.lasso, game.weights, i) >= witness.candidate_z[i]
        replay = play(game, synthesize_profile(game, witness))
        assert canonical(replay) == canonical(witness.lasso)
    assert yes > 10


def test_synthesize_rejects_witness_gap():
    from eqcheck.engine import Witness
    gap = Witness(lasso=None, kind="mp", witness_gap=True)
    with pytest.raises(WitnessGapError):
        synthesize_profile(g2(), gap)


# ---------------------------------------------------------------------------
# Synthesized profiles against every unilateral deviation
# ---------------------------------------------------------------------------

def _deviation_graph(game, profile, j):
    """Reachable graph of (arena state, internal states of the machines other
    than `j`'s), with one edge per action of `j`: every play in which only
    `j` may leave the profile."""
    arena = game.arena
    others = [p for p in arena.players if p != j]
    machines = [profile.strategies[p] for p in others]
    start = (arena.initial, tuple(m.initial for m in machines))
    succ = {}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        if node in succ:
            continue
        s, qs = node
        fixed = dict(zip(others, (m.output[q] for m, q in zip(machines, qs))))
        succ[node] = []
        for a in arena.actions[j]:
            prof = tuple(a if p == j else fixed[p] for p in arena.players)
            nxt = (arena.transition[(s, prof)],
                   tuple(m.step[(q, prof)] for m, q in zip(machines, qs)))
            succ[node].append(nxt)
            frontier.append(nxt)
    return succ


def _cyclic_sccs(succ, keep=lambda node: True):
    """SCCs of the subgraph on the nodes `keep` admits that carry a cycle."""
    from eqcheck.graphs import tarjan_sccs
    nodes = [n for n in succ if keep(n)]
    comps = tarjan_sccs(nodes, lambda n: [m for m in succ[n] if keep(m)])
    return [c for c in comps
            if len(c) > 1 or next(iter(c)) in succ[next(iter(c))]]


def _some_cycle_satisfies(arena, succ, goal):
    """Does some reachable cycle satisfy the GF-implication `goal`?  Either it
    avoids the states of one assumption, or it is a whole SCC that meets
    every guarantee."""
    from eqcheck.formula import eval_bool

    def holds(term, node):
        return eval_bool(term, arena.label(node[0]))

    for term in goal.antecedents:
        if _cyclic_sccs(succ, lambda n, a=term: not holds(a, n)):
            return True
    return any(all(any(holds(g, n) for n in comp) for g in goal.consequents)
               for comp in _cyclic_sccs(succ))


def _max_cycle_mean(succ, weight):
    """Largest mean of `weight` over reachable cycles: Karp's algorithm on
    every cyclic SCC, exact over `Fraction`s."""
    best = None
    for comp in _cyclic_sccs(succ):
        n = len(comp)
        walks = [{next(iter(comp)): 0}]   # heaviest walk of k edges
        for _ in range(n):
            nxt = {}
            for u, d in walks[-1].items():
                for v in succ[u]:
                    if v in comp and (v not in nxt or d + weight(u) > nxt[v]):
                        nxt[v] = d + weight(u)
            walks.append(nxt)
        for v, dn in walks[n].items():
            mean = min(Fraction(dn - walks[k][v], n - k)
                       for k in range(n) if v in walks[k])
            best = mean if best is None else max(best, mean)
    return best


def test_synthesized_gr1_profiles_deter_unilateral_deviations(rng):
    from eqcheck.formula import gr1_to_ltl
    checked = 0
    for _ in range(200):
        # two terms a side, so that a punishment may need its counters
        arena = random_arena(rng, max_states=5, n_players=rng.choice((2, 3)),
                             max_actions=3)
        game = Game(arena=arena, gr1_goals={
            p: random_gr1(rng, max_side=2) for p in arena.players})
        spec = Specification.of_gr1(parse_gr1("GF p", {"p", "q"})) \
            if rng.random() < 0.5 else TAUTOLOGY
        verdict = e_nash_gr1(game, spec)
        if not verdict.answer:
            continue
        profile = synthesize_profile(game, verdict.witness)
        for j in verdict.witness.losers:
            succ = _deviation_graph(game, profile, j)
            assert not _some_cycle_satisfies(game.arena, succ, game.gr1_goals[j])
            checked += 1
    assert checked > 50


def test_synthesized_mp_profiles_deter_unilateral_deviations(rng):
    from eqcheck.model import mp_payoff
    checked = 0
    for _ in range(60):
        game = random_mp_game(rng, max_states=4, n_players=rng.choice((2, 3)))
        verdict = e_nash_mp(game, TAUTOLOGY)
        if not verdict.answer or verdict.witness.lasso is None:
            continue
        profile = synthesize_profile(game, verdict.witness)
        for j in game.arena.players:
            succ = _deviation_graph(game, profile, j)
            best = _max_cycle_mean(succ, lambda n, p=j: game.weights.of(p, n[0]))
            assert best <= mp_payoff(verdict.witness.lasso, game.weights, j)
            checked += 1
    assert checked > 20


def test_synthesized_transducer_size_bound(rng):
    no_losers = punishing = 0
    for _ in range(60):
        if rng.random() < 0.5:
            game = random_gr1_game(rng, max_states=4)
        else:
            game = random_mp_game(rng, max_states=4)
        verdict = e_nash(game, TAUTOLOGY)
        if not verdict.answer or verdict.witness.lasso is None:
            continue
        witness = verdict.witness
        profile = synthesize_profile(game, witness)
        for machine in profile.strategies.values():
            flagged = [q for q in machine.internal_states if q[2] != "*"]
            assert all(q[0] < 0 for q in flagged)
            punishing += bool(flagged)
            if witness.kind == "gr1" and not witness.losers:
                assert len(machine.internal_states) <= len(witness.lasso.steps())
                no_losers += 1
    assert no_losers > 5 and punishing > 5


def test_many_player_queries_validate_and_replay():
    """Six to eight players with two actions each: every yes validates,
    every exposed player wins on the lasso and the synthesized profile
    replays the lasso."""
    rng = random.Random(20261020)
    specs = [Specification.of_ltl(parse_ltl("G F p & F G q", {"p", "q"})),
             Specification.of_ltl(parse_ltl("F G !p", {"p"}))]
    yes = no = 0
    for n_players in (6, 7, 8):
        for _ in range(2):
            arena = random_arena(rng, min_states=4, max_states=6,
                                 n_players=n_players, min_actions=2)
            game = Game(arena=arena, gr1_goals={
                p: random_gr1(rng, max_side=2) for p in arena.players})
            for spec in specs + [Specification.of_gr1(random_gr1(rng))]:
                verdict = e_nash_gr1(game, spec)
                if not verdict.answer:
                    no += 1
                    continue
                yes += 1
                validate_witness(game, spec, verdict)
                witness = verdict.witness
                assert set(witness.candidate_winners) <= set(witness.winners)
                replay = play(game, synthesize_profile(game, witness))
                assert canonical(replay) == canonical(witness.lasso)
    assert yes > 3 and no > 0
