"""Linear programs: constraint families, exact simplex, cycle search."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import g2, random_mp_game
from eqcheck.cli import parse_game_text
from eqcheck.formula import GR1_TRUE, parse_gr1
from eqcheck.lasso_search import restrict_mp
from eqcheck.lp import (
    LinearProgram, WeightedEdgeGraph, build_lp_theta, feasible, mp_lasso_search,
)
from eqcheck.model import mp_payoff, validate_lasso
from eqcheck.oracle import fm_feasible
from eqcheck.punish_mp import punish_values


def _two_cycle(w_u, w_v, theta=()):
    return WeightedEdgeGraph(
        vertices=("u", "v"),
        edges=(("u", None, "v"), ("v", None, "u")),
        weights=({"u": Fraction(w_u), "v": Fraction(w_v)},),
        theta_sets=tuple(frozenset(t) for t in theta),
    )


def test_simplex_infeasible_box():
    lp = LinearProgram(num_vars=1)
    lp.add({0: 1}, ">=", 1)
    lp.add({0: 1}, "<=", 0)
    assert feasible(lp) is None


def test_simplex_simple_solution():
    lp = LinearProgram(num_vars=2)
    lp.add({0: 1}, ">=", 0)
    lp.add({1: 1}, ">=", 0)
    lp.add({0: 1, 1: 1}, "==", 1)
    solution = feasible(lp)
    assert solution is not None
    assert solution[0] >= 0 and solution[1] >= 0
    assert solution[0] + solution[1] == 1


def test_simplex_handles_free_variables():
    lp = LinearProgram(num_vars=1)
    lp.add({0: 1}, "<=", -3)
    solution = feasible(lp)
    assert solution is not None and solution[0] <= -3


def test_theta_program_balanced_two_cycle():
    solution = feasible(build_lp_theta(_two_cycle(1, -1, theta=[{"v"}])))
    assert solution is not None
    assert solution[0] == solution[1] > 0

    assert feasible(build_lp_theta(_two_cycle(1, -3, theta=[{"v"}]))) is None

    nonneg = _two_cycle(1, 1)
    assert feasible(build_lp_theta(nonneg)) is not None


# one player; `a` holds at s0, which pays 1, and `b` nowhere
AVOID_GAME = """\
players: p1;
states: s0 s1;
initial: s0;
atoms: a b;
actions p1: x y;
label s0: a;
tr s0 (x) -> s0;
tr s0 (y) -> s1;
tr s1 (x) -> s1;
tr s1 (y) -> s0;
weight p1 s0 = 1;
weight p1 s1 = 0;
"""


def test_psi_program_examples():
    """`GF a -> GF b` with `b` unreachable holds only on cycles that avoid
    `a`: the s1 loop, whose average 0 clears threshold 0 but not 1/2."""
    game = parse_game_text(AVOID_GAME)
    pun = {"p1": punish_values(game, "p1")}
    ra = restrict_mp(game, {"p1": Fraction(1)}, pun)
    spec = parse_gr1("GF a -> GF b", {"a", "b"})

    result = mp_lasso_search(ra, game.weights, {"p1": Fraction(0)}, spec)
    assert result.feasible and not result.witness_gap
    validate_lasso(game.arena, result.lasso, "s0")
    assert {s for s, _ in result.lasso.cycle} == {"s1"}

    # the s0 loop clears 1/2, but it visits `a` and never `b`
    half = {"p1": Fraction(1, 2)}
    assert mp_lasso_search(ra, game.weights, half, GR1_TRUE).feasible
    blocked = mp_lasso_search(ra, game.weights, half, spec)
    assert not blocked.feasible and blocked.lasso is None


def _assert_solves(lp, solution):
    """Every constraint, and nonnegativity when declared, holds exactly."""
    for coeffs, relation, rhs, tag in lp.constraints:
        total = sum(c * solution[v] for v, c in coeffs.items())
        if relation == ">=":
            assert total >= rhs, tag
        elif relation == "<=":
            assert total <= rhs, tag
        else:
            assert total == rhs, tag
    if lp.nonnegative:
        assert all(solution[v] >= 0 for v in range(lp.num_vars))


_numbers = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _programs(draw):
    n = draw(st.integers(1, 5))
    lp = LinearProgram(num_vars=n, nonnegative=draw(st.booleans()))
    for _ in range(draw(st.integers(0, 6))):
        coeffs = draw(st.dictionaries(st.integers(0, n - 1), _numbers, max_size=n))
        lp.add(coeffs, draw(st.sampled_from(("<=", ">=", "=="))), draw(_numbers))
    return lp


@given(_programs())
def test_simplex_agrees_with_fourier_motzkin(lp):
    rows = [({v: -c for v, c in coeffs.items()}, ">=", -rhs) if relation == "<="
            else (coeffs, relation, rhs)
            for coeffs, relation, rhs, _ in lp.constraints]
    if lp.nonnegative:
        rows += [({v: 1}, ">=", 0) for v in range(lp.num_vars)]
    solution = feasible(lp)
    assert (solution is None) == (not fm_feasible(lp.num_vars, rows))
    if solution is not None:
        _assert_solves(lp, solution)


def test_solutions_resubstitute_exactly(rng):
    for _ in range(60):
        count = rng.randint(2, 5)
        vertices = tuple(f"v{k}" for k in range(count))
        edges = []
        for v in vertices:
            for _ in range(rng.randint(1, 2)):
                edges.append((v, None, rng.choice(vertices)))
        g = WeightedEdgeGraph(
            vertices=vertices,
            edges=tuple(edges),
            weights=tuple({v: Fraction(rng.randint(-2, 2)) for v in vertices}
                          for _ in range(rng.randint(1, 2))),
            theta_sets=(),
        )
        lp = build_lp_theta(g)
        solution = feasible(lp)
        if solution is None:
            continue
        _assert_solves(lp, solution)
        # flow conservation from the balance family holds per vertex
        for v in vertices:
            outflow = sum(solution[e] for e, (src, _, _) in enumerate(edges) if src == v)
            inflow = sum(solution[e] for e, (_, _, trg) in enumerate(edges) if trg == v)
            assert outflow == inflow


def test_mp_lasso_search_fixture():
    game = g2()
    pun = {i: punish_values(game, i) for i in game.arena.players}
    z = {"p1": Fraction(2), "p2": Fraction(0)}
    ra = restrict_mp(game, z, pun)
    result = mp_lasso_search(ra, game.weights, z, GR1_TRUE)
    assert result.feasible and not result.witness_gap
    validate_lasso(game.arena, result.lasso, "s0")
    assert {s for s, _ in result.lasso.cycle} == {"s1"}


def test_mp_lasso_search_no_reachable_cycle():
    from eqcheck.model import Arena, Game, Weights
    # all transitions leave the start isolated once thresholds exceed values
    game = g2()
    pun = {i: punish_values(game, i) for i in game.arena.players}
    z = {"p1": Fraction(0), "p2": Fraction(0)}
    ra = restrict_mp(game, z, pun)
    result = mp_lasso_search(ra, game.weights, z, GR1_TRUE)
    assert not result.feasible and result.lasso is None


def test_mp_lasso_search_returned_averages_clear_thresholds(rng):
    """Every returned lasso clears the thresholds and satisfies the spec;
    under `GF p -> GF q` some lassos satisfy it only by avoiding `p`."""
    from eqcheck.formula import eval_bool

    def check(game, z, spec, result):
        validate_lasso(game.arena, result.lasso, game.arena.initial)
        for i in game.arena.players:
            assert mp_payoff(result.lasso, game.weights, i) >= z[i]
        cycle_states = {s for s, _ in result.lasso.cycle}
        antecedent = all(
            any(eval_bool(t, game.arena.label(s)) for s in cycle_states)
            for t in spec.antecedents)
        consequent = all(
            any(eval_bool(t, game.arena.label(s)) for s in cycle_states)
            for t in spec.consequents)
        assert (not antecedent) or consequent
        return not antecedent and not consequent

    implication = parse_gr1("GF p -> GF q", {"p", "q"})
    avoiding = 0
    for _ in range(40):
        game = random_mp_game(rng)
        pun = {i: punish_values(game, i) for i in game.arena.players}
        z = {i: min(pun[i].values.values()) for i in game.arena.players}
        ra = restrict_mp(game, z, pun)
        spec = parse_gr1("GF p", {"p", "q"}) if rng.random() < 0.5 else GR1_TRUE
        result = mp_lasso_search(ra, game.weights, z, spec)
        if result.lasso is not None:
            check(game, z, spec, result)
        result = mp_lasso_search(ra, game.weights, z, implication)
        if result.lasso is not None:
            avoiding += check(game, z, implication, result)
    assert avoiding > 0


def _brute_scc_combination_feasible(g: WeightedEdgeGraph, max_total=12):
    """Simple-cycle multisets with bounded total length, combined convexly."""
    index = {v: k for k, v in enumerate(g.vertices)}
    simple_cycles = []

    def extend(path, seen):
        last = path[-1]
        for e, (src, _, trg) in enumerate(g.edges):
            if src != last:
                continue
            if trg == path[0]:
                simple_cycles.append(tuple(path))
            elif trg not in seen and len(path) < len(g.vertices):
                extend(path + [trg], seen | {trg})

    for v in g.vertices:
        extend([v], {v})
    # deduplicate rotations
    canon = set()
    cycles = []
    for cyc in simple_cycles:
        k = min(range(len(cyc)), key=lambda i: tuple(cyc[i:] + cyc[:i]))
        key = tuple(cyc[k:] + cyc[:k])
        if key not in canon:
            canon.add(key)
            cycles.append(key)

    def totals(cyc):
        return [sum(w[v] for v in cyc) for w in g.weights]

    data = [(len(c), totals(c), frozenset(c)) for c in cycles]

    def search(k, remaining, acc, visited, used):
        if used and all(a >= 0 for a in acc):
            if all(visited & t for t in g.theta_sets):
                return True
        if k == len(data):
            return False
        length, tot, nodes = data[k]
        copies = 0
        acc_k = list(acc)
        visited_k = visited
        while copies * length <= remaining:
            if search(k + 1, remaining - copies * length, tuple(acc_k),
                      visited_k, used or copies > 0):
                return True
            copies += 1
            if copies * length > remaining:
                break
            acc_k = [a + t for a, t in zip(acc_k, tot)]
            visited_k = visited_k | nodes
        return False

    zero = tuple(Fraction(0) for _ in g.weights)
    return search(0, max_total, zero, frozenset(), False)


def test_scc_lp_matches_cycle_combination_enumeration(rng):
    agree = 0
    for _ in range(120):
        count = rng.randint(2, 6)
        vertices = tuple(f"v{k}" for k in range(count))
        edges = []
        for v in vertices:
            for _ in range(rng.randint(1, 2)):
                edges.append((v, None, rng.choice(vertices)))
        edges = sorted(set(edges), key=str)
        dims = rng.randint(1, 2)
        g = WeightedEdgeGraph(
            vertices=vertices,
            edges=tuple(edges),
            weights=tuple({v: Fraction(rng.randint(-2, 2)) for v in vertices}
                          for _ in range(dims)),
            theta_sets=tuple(
                frozenset(v for v in vertices if rng.random() < 0.4)
                for _ in range(rng.randint(0, 1))),
        )
        # compare per strongly connected component, mirroring the search
        from eqcheck.graphs import tarjan_sccs
        succ = {v: [t for s, _, t in edges if s == v] for v in vertices}
        verdict_lp = False
        verdict_enum = False
        for scc in tarjan_sccs(vertices, lambda v: succ[v]):
            internal = tuple(e for e in edges if e[0] in scc and e[2] in scc)
            if not internal:
                continue
            sub = WeightedEdgeGraph(
                vertices=tuple(sorted(scc)), edges=internal,
                weights=tuple({v: w[v] for v in scc} for w in g.weights),
                theta_sets=g.theta_sets)
            if all(t & scc for t in g.theta_sets):
                if feasible(build_lp_theta(sub)) is not None:
                    verdict_lp = True
            if _brute_scc_combination_feasible(sub):
                verdict_enum = True
        assert verdict_lp == verdict_enum
        agree += 1
    assert agree == 120
