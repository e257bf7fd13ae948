"""The engine against the brute-force oracle on GR(1) games whose goals and
specifications have up to two terms per side, so every counter shape of the
punishment game and the Streett product is reached, on LTL specifications in
the oracle's fragment, and on mean-payoff games."""

import random

from conftest import random_bool_term, random_gr1, random_gr1_game, random_mp_game
from eqcheck.engine import (
    TAUTOLOGY, Specification, Verdict, a_nash, e_nash_gr1, e_nash_mp,
    validate_witness,
)
from eqcheck.formula import GR1_TRUE, Always, And, Eventually, Not, Or
from eqcheck.oracle import brute_e_nash, brute_pun_gr1, mp_lasso_exists
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


MP_GAMES = 60


def _mp_instances(seed, games, **sizes):
    """Random mean-payoff games on at most 16 arena edges."""
    rng = random.Random(seed)
    for _ in range(games):
        game = random_mp_game(rng, **sizes)
        assert len(game.arena.transition) <= 16
        yield rng, game


def _gap_counter():
    """Counts of witness gaps by whether the oracle finds a single cycle
    (a connected support) realizing the verdict, and a recorder for them."""
    gaps = {"lasso exists": 0, "no lasso": 0}

    def record(game, payload, verdict):
        if verdict.answer and verdict.witness.witness_gap:
            if mp_lasso_exists(game, payload):
                gaps["lasso exists"] += 1
            else:
                assert brute_e_nash(game, payload)
                gaps["no lasso"] += 1

    return gaps, record


def test_mp_queries_match_oracle():
    """e-nash under the tautology and under a random GR(1) spec, and a-nash
    on `FG a | GF b` against its negation `GF !a & FG !b`.  Every yes of
    the existential query (for a-nash, the counterexample) is validated.
    Games this small leave no witness gap: supports of at most 14 edges
    are searched exhaustively."""
    witnessed = {"tautology": 0, "gr1": 0, "a-nash": 0}
    gaps, record = _gap_counter()

    def check(game, query, payload, verdict, kind):
        if verdict.answer:
            validate_witness(game, query, verdict)
            witnessed[kind] += 1
            record(game, payload, verdict)

    for rng, game in _mp_instances(20261021, MP_GAMES):
        verdict = e_nash_mp(game, TAUTOLOGY)
        assert verdict.answer == brute_e_nash(game, GR1_TRUE), game.arena.transition
        check(game, TAUTOLOGY, GR1_TRUE, verdict, "tautology")

        spec = random_gr1(rng)
        query = Specification.of_gr1(spec)
        verdict = e_nash_mp(game, query)
        assert verdict.answer == brute_e_nash(game, spec), (
            query.text(), game.arena.transition)
        check(game, query, spec, verdict, "gr1")

        a, b = random_bool_term(rng), random_bool_term(rng)
        universal = Specification.of_ltl(Or(_fg(a), _gf(b)))
        negated = Specification.of_ltl(And(_gf(Not(a)), _fg(Not(b))))
        verdict = a_nash(game, universal)
        assert verdict.answer == (not brute_e_nash(game, negated.ltl)), (
            universal.text(), game.arena.transition)
        check(game, negated, negated.ltl,
              Verdict(not verdict.answer, verdict.witness, {}), "a-nash")
    assert min(witnessed.values()) > MP_GAMES // 10, witnessed
    assert gaps == {"lasso exists": 0, "no lasso": 0}, gaps


def test_mp_witness_gaps_against_oracle():
    """Four states and 16 edges, where supports past 14 edges are not
    searched: every yes without a lasso is a yes of the oracle.  The count
    records that each such gap has a single cycle the search missed."""
    gaps, record = _gap_counter()
    for rng, game in _mp_instances(20261022, 20, min_states=4, max_states=4,
                                   min_actions=2, weight_range=(-1, 1)):
        spec = random_gr1(rng)
        for query, payload in ((TAUTOLOGY, GR1_TRUE),
                               (Specification.of_gr1(spec), spec)):
            verdict = e_nash_mp(game, query)
            validate_witness(game, query, verdict)
            record(game, payload, verdict)
    assert gaps == {"lasso exists": 5, "no lasso": 0}, gaps
