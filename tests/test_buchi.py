"""Automaton translation: language spot checks and three-way agreement."""

import random

from conftest import g1_arena
from eqcheck.buchi import is_empty_product, translate
from eqcheck.formula import lasso_satisfies, negate_to_ltl, parse_ltl, to_str
from eqcheck.model import Lasso
from eqcheck.oracle import eval_ltl_on_lasso
from test_formula import _random_formula, _random_lasso


def _accepts(aut, lasso, labels):
    steps = lasso.steps()
    total = len(steps)
    wrap = len(lasso.prefix)

    def successors(i):
        return ((None, i + 1 if i + 1 < total else wrap),)

    return is_empty_product(0, successors, lambda i: labels[steps[i][0]], aut) is not None


def test_translate_true_accepts_everything():
    aut = translate(parse_ltl("true"))
    for labels in ({"s": frozenset()}, {"s": frozenset({"p"})}):
        assert _accepts(aut, Lasso((), (("s", ("a",)),)), labels)


def test_translate_always_p():
    aut = translate(parse_ltl("G p"))
    labels = {"y": frozenset({"p"}), "n": frozenset()}
    assert _accepts(aut, Lasso((), (("y", ("a",)),)), labels)
    assert not _accepts(aut, Lasso((("n", ("a",)),), (("y", ("a",)),)), labels)
    assert not _accepts(aut, Lasso((), (("n", ("a",)),)), labels)


def test_translate_eventually_q():
    aut = translate(parse_ltl("F q"))
    labels = {"e": frozenset(), "q": frozenset({"q"})}
    assert not _accepts(aut, Lasso((), (("e", ("a",)),)), labels)
    assert _accepts(aut, Lasso((("e", ("a",)), ("q", ("a",))), (("e", ("a",)),)), labels)


def test_product_emptiness_examples():
    labels = {"u": frozenset(), "v": frozenset()}

    def two_cycle(i):
        return ((None, 1 - i),)

    aut_true = translate(parse_ltl("true"))
    assert is_empty_product(0, two_cycle, lambda i: frozenset(), aut_true) is not None

    aut_gp = translate(parse_ltl("G p"))
    assert is_empty_product(0, two_cycle, lambda i: frozenset(), aut_gp) is None

    # winning-state fixture restricted to the losing sink: GF p never holds
    arena = g1_arena()
    aut_gfp = translate(parse_ltl("G F p"))

    def restricted(s):
        if s == "s0":
            return ((("a", "b"), "sL"),)
        return ((("a", "a"), "sL"),)

    assert is_empty_product("s0", restricted, arena.label, aut_gfp) is None


def test_product_lasso_projects_to_valid_graph_lasso():
    labels = {"a": frozenset({"p"}), "b": frozenset()}
    graph = {"a": (("to-b", "b"),), "b": (("to-a", "a"),)}

    aut = translate(parse_ltl("G F p"))
    found = is_empty_product("a", lambda s: graph[s], lambda s: labels[s], aut)
    assert found is not None
    prefix, cycle = found
    walk = list(prefix) + list(cycle)
    # projection steps follow the graph edges and close the cycle
    closed = walk + [cycle[0]]
    for ((node, _), edata), ((nxt, _), _) in zip(closed, closed[1:]):
        assert (edata, nxt) in graph[node]
    # the cycle visits an accepting automaton state
    assert any(pq[1] in aut.accepting for pq, _ in cycle)


def test_three_way_membership_agreement(rng):
    for _ in range(150):
        f = _random_formula(rng, depth=3)
        lasso, labels = _random_lasso(rng)
        via_product = lasso_satisfies(f, lasso, labels)
        via_eval = eval_ltl_on_lasso(f, lasso, labels)
        assert via_product == via_eval, to_str(f)


def test_formula_and_negation_never_both_reject(rng):
    for _ in range(80):
        f = _random_formula(rng, depth=2)
        lasso, labels = _random_lasso(rng)
        accepted = lasso_satisfies(f, lasso, labels)
        negated = lasso_satisfies(negate_to_ltl(f), lasso, labels)
        assert accepted or negated
