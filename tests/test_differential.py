"""The engine against the brute-force oracle on GR(1) games whose goals and
specifications have up to two terms per side, so every counter shape of the
punishment game and the Streett product is reached, and on LTL
specifications in the oracle's fragment."""

import random

from conftest import random_bool_term, random_gr1, random_gr1_game
from eqcheck.engine import (
    Specification, Verdict, a_nash, e_nash_gr1, validate_witness,
)
from eqcheck.formula import Always, And, Eventually, Not, Or
from eqcheck.oracle import brute_e_nash, brute_pun_gr1
from eqcheck.punish_gr1 import punish_region

GAMES = 150


def _two_term_instances():
    """Random games on at most 12 arena edges with two-term goals, each
    with a two-term GR(1) specification."""
    rng = random.Random(20261018)
    for _ in range(GAMES):
        game = random_gr1_game(rng, max_side=2)
        assert len(game.arena.transition) <= 12
        yield game, random_gr1(rng, max_side=2)


def _shape(goal):
    return len(goal.antecedents), len(goal.consequents)


def test_punish_region_matches_oracle_on_two_term_goals():
    shapes = set()
    checked = 0
    for game, spec in _two_term_instances():
        shapes.add(_shape(spec))
        for j in game.arena.players:
            shapes.add(_shape(game.gr1_goals[j]))
            assert punish_region(game, j).region == brute_pun_gr1(game, j), (
                game.gr1_goals[j], game.arena.transition)
            checked += 1
    assert shapes == {(m, n) for m in range(3) for n in range(3)}
    assert checked == 2 * GAMES


def test_e_nash_matches_oracle_on_two_term_goals():
    yes = 0
    for game, spec in _two_term_instances():
        query = Specification.of_gr1(spec)
        verdict = e_nash_gr1(game, query)
        assert verdict.answer == brute_e_nash(game, spec), (
            spec, game.gr1_goals, game.arena.transition)
        if verdict.answer:
            validate_witness(game, query, verdict)
            yes += 1
    assert yes > GAMES // 4


def _gf(term):
    return Always(Eventually(term))


def _fg(term):
    return Eventually(Always(term))


def test_ltl_queries_match_oracle():
    """e-nash on `GF a & FG b` and a-nash on `FG a | GF b`, decided through
    its negation `GF !a & FG !b`; every yes of the existential query (for
    a-nash, the counterexample) is validated."""
    rng = random.Random(20261019)
    witnessed = {"e-nash": 0, "a-nash": 0}
    for game, _ in _two_term_instances():
        a, b = random_bool_term(rng), random_bool_term(rng)
        query = Specification.of_ltl(And(_gf(a), _fg(b)))
        verdict = e_nash_gr1(game, query)
        assert verdict.answer == brute_e_nash(game, query.ltl), (
            query.text(), game.gr1_goals, game.arena.transition)
        if verdict.answer:
            validate_witness(game, query, verdict)
            witnessed["e-nash"] += 1

        universal = Specification.of_ltl(Or(_fg(a), _gf(b)))
        negated = Specification.of_ltl(And(_gf(Not(a)), _fg(Not(b))))
        verdict = a_nash(game, universal)
        assert verdict.answer == (not brute_e_nash(game, negated.ltl)), (
            universal.text(), game.gr1_goals, game.arena.transition)
        if not verdict.answer:
            validate_witness(game, negated, Verdict(True, verdict.witness, {}))
            witnessed["a-nash"] += 1
    assert min(witnessed.values()) > GAMES // 10, witnessed
