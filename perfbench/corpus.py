"""Seeded query corpora for the eqcheck benchmark.

Every workload is a list of game-file texts plus a fixed-order list of
queries over them.  The generator only emits text: the program under test
sees nothing but what `eqcheck` would read from a game file and a
`--spec` argument.  The random shapes follow the test suite's generators
(random arena, 0.4 label density, uniform transition targets, GF terms of a
possibly negated atom) at the sizes each workload names, and the two
example games of the repository are fixed entries.

Sizes that drive cost are drawn from fixed cycles rather than from the
seed (state counts, action counts, the largest weight), so two seeds differ
in structure but not in the mix of sizes; that keeps the medians of a run
comparable across seeds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FIXED_GAMES = {"g1": REPO / "games" / "g1.game", "g2": REPO / "games" / "g2.game"}


@dataclass(frozen=True)
class Query:
    game: int                 # index into Corpus.games
    kind: str                 # e-nash | a-nash | non-emptiness | welfare | welfare-opt
    spec: str = "true"        # formula text, as given to --spec
    spec_lang: str = "gr1"    # gr1 | ltl, as given to --spec-lang
    measure: str = ""         # welfare: usw | esw
    direction: str = ""       # welfare: ge | le
    threshold: str = ""       # welfare: INT or INT/INT
    mode: str = ""            # welfare-opt: max | min
    eps: str = ""             # welfare-opt: INT/INT


@dataclass
class Corpus:
    workload: str
    seed: int
    games: list = field(default_factory=list)     # game-file texts
    queries: list = field(default_factory=list)   # Query, in run order


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict
    build: object
    tail_pct: int   # the tail percentile reported; 10+ samples lie beyond it
    oracle_build: object = None  # gate-only corpus checked against the oracle


# ---------------------------------------------------------------------------
# Game text
# ---------------------------------------------------------------------------

def _arena_parts(rng, n_states, n_players, action_counts, atoms):
    states = [f"s{k}" for k in range(n_states)]
    players = [f"p{k + 1}" for k in range(n_players)]
    actions = {p: "abcd"[:action_counts[k]] for k, p in enumerate(players)}
    lines = [f"players: {' '.join(players)};",
             f"states: {' '.join(states)};",
             "initial: s0;",
             f"atoms: {' '.join(atoms)};"]
    lines += [f"actions {p}: {' '.join(actions[p])};" for p in players]
    for s in states:
        label = [a for a in atoms if rng.random() < 0.4]
        if label:
            lines.append(f"label {s}: {' '.join(label)};")
    for s in states:
        for prof in itertools.product(*(actions[p] for p in players)):
            lines.append(f"tr {s} ({', '.join(prof)}) -> {rng.choice(states)};")
    return lines, players, states


def _bool_term(rng, atoms):
    atom = rng.choice(atoms)
    return atom if rng.random() < 0.7 else f"!{atom}"


def _gf_side(terms):
    return " & ".join(f"GF {t}" for t in terms) if terms else "true"


def _gr1_text(rng, atoms, max_side):
    ante = [_bool_term(rng, atoms) for _ in range(rng.randint(0, max_side))]
    cons = [_bool_term(rng, atoms) for _ in range(rng.randint(0, max_side))]
    return f"{_gf_side(ante)} -> {_gf_side(cons)}"


def gr1_game_text(rng, n_states, n_players, action_counts, atoms, max_side):
    lines, players, _ = _arena_parts(rng, n_states, n_players, action_counts, atoms)
    lines += [f"goal {p}: {_gr1_text(rng, atoms, max_side)};" for p in players]
    return "\n".join(lines) + "\n"


def mp_game_text(rng, n_states, n_players, action_counts, atoms, max_weight):
    """Game text and its weight table {player: {state: weight}}.  Weights
    are uniform in [-max_weight, max_weight], except that every player has
    one state at +max_weight and another at -max_weight: value iteration
    runs a number of rounds proportional to a player's largest weight, and
    bisection a number proportional to the log of the weight range, so
    fixing both keeps those costs the same for every game of a size."""
    lines, players, states = _arena_parts(
        rng, n_states, n_players, action_counts, atoms)
    table = {p: {s: rng.randint(-max_weight, max_weight) for s in states}
             for p in players}
    for p in players:
        high, low = rng.sample(states, 2)
        table[p][high], table[p][low] = max_weight, -max_weight
    lines += [f"weight {p} {s} = {table[p][s]};" for p in players for s in states]
    return "\n".join(lines) + "\n", table


def _ltl_text(rng, atoms, shape):
    """Shape 0 or 1 of the `G (p -> F q)` / `GF p & FG !q` family."""
    a, b = rng.sample(atoms, 2)
    if shape % 2 == 0:
        return f"G ({_bool_term(rng, [a])} -> F {_bool_term(rng, [b])})"
    return f"GF {_bool_term(rng, [a])} & FG {_bool_term(rng, [b])}"


def _fixed(name):
    return FIXED_GAMES[name].read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

GR1_ATOMS = ("p", "q", "r")
MP_ATOMS = ("p", "q")


def _gr1_ltl(rng, sizes):
    corpus_games = [_fixed("g1")]
    for g in range(1, sizes["games"] + 1):
        # kinds change every game and action patterns every four, so each
        # kind meets every pattern
        n_states = sizes["states"][g % len(sizes["states"])]
        actions = sizes["actions"][g // 4 % len(sizes["actions"])]
        corpus_games.append(gr1_game_text(
            rng, n_states, len(actions), actions, GR1_ATOMS, sizes["max_side"]))
    queries = [Query(0, "e-nash", "GF p", "gr1")]
    kinds = ("e-nash-gr1", "e-nash-ltl", "a-nash", "non-emptiness")
    for g in range(1, len(corpus_games)):
        kind = kinds[g % len(kinds)]
        if kind == "e-nash-gr1":
            queries.append(Query(g, "e-nash", _gr1_text(rng, GR1_ATOMS, 2), "gr1"))
        elif kind == "e-nash-ltl":
            queries.append(Query(g, "e-nash", _ltl_text(rng, GR1_ATOMS, g // 4), "ltl"))
        elif kind == "a-nash":
            queries.append(Query(g, "a-nash", _ltl_text(rng, GR1_ATOMS, g // 4), "ltl"))
        else:
            queries.append(Query(g, "non-emptiness"))
    return corpus_games, queries


def _gr1_oracle(rng, sizes):
    """Gate-only GR(1) games small enough for the oracle (at most 16 arena
    edges), with every query kind of `gr1-ltl`.  LTL specs stay inside the
    oracle's fragment: `GF a & FG b` for e-nash, and for a-nash
    `FG a | GF b`, whose negation `GF !a & FG !b` the oracle decides."""
    corpus_games, queries = [], []
    for g in range(sizes["oracle_games"]):
        n_states, actions = sizes["oracle_shapes"][g % len(sizes["oracle_shapes"])]
        corpus_games.append(gr1_game_text(
            rng, n_states, len(actions), actions, GR1_ATOMS, sizes["max_side"]))
        a, b = rng.sample(GR1_ATOMS, 2)
        either = f"FG {_bool_term(rng, [a])} | GF {_bool_term(rng, [b])}"
        queries += [
            Query(g, "e-nash", _gr1_text(rng, GR1_ATOMS, 2), "gr1"),
            Query(g, "e-nash", _ltl_text(rng, GR1_ATOMS, 1), "ltl"),
            Query(g, "a-nash", _gr1_text(rng, GR1_ATOMS, 2), "gr1"),
            Query(g, "a-nash", either, "ltl"),
            Query(g, "non-emptiness"),
        ]
    return corpus_games, queries


def _mp_punish(rng, sizes):
    corpus_games = [_fixed("g2")]
    for k in range(sizes["games"]):
        corpus_games.append(mp_game_text(
            rng, sizes["states"], 2, [2, 2], MP_ATOMS, sizes["max_weight"])[0])
    queries = [Query(0, "e-nash")]
    for g in range(1, len(corpus_games)):
        shape = g % 3
        if shape == 0:
            queries.append(Query(g, "e-nash"))
        elif shape == 1:
            queries.append(Query(g, "e-nash", _gr1_text(rng, MP_ATOMS, 1), "gr1"))
        else:
            queries.append(Query(g, "non-emptiness"))
    return corpus_games, queries


def _inside(rng, lo, hi):
    """A half-integer threshold strictly between the achievable extremes,
    so the query never short-cuts on the bounds; lo when there is none."""
    steps = int(2 * (hi - lo))
    return str(Fraction(2 * lo + rng.randint(1, steps - 1), 2) if steps > 1 else lo)


def _welfare(rng, sizes):
    tables = [{"p1": {"s0": 0, "s1": 2}, "p2": {"s0": 0, "s1": 0}}]  # g2
    corpus_games = [_fixed("g2")]
    for g in range(1, sizes["games"] + 1):
        text, table = mp_game_text(
            rng, sizes["states"], 2, sizes["actions"][g % len(sizes["actions"])],
            MP_ATOMS, sizes["max_weight"])
        corpus_games.append(text)
        tables.append(table)
    queries = []
    for g, table in enumerate(tables):
        lows = [min(row.values()) for row in table.values()]
        highs = [max(row.values()) for row in table.values()]
        queries.append(Query(g, "welfare", measure="usw", direction="ge",
                             threshold=_inside(rng, sum(lows), sum(highs))))
        queries.append(Query(g, "welfare", measure="esw", direction="ge",
                             threshold=_inside(rng, min(lows), min(highs))))
        measure, mode = (("usw", "max"), ("esw", "min"))[g // 2 % 2]
        queries.append(Query(g, "welfare-opt", measure=measure, mode=mode,
                             eps=sizes["eps"]))
    return corpus_games, queries


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "gr1-ltl",
            "GR(1) goal games: Zielonka punishment, Streett products, LTL "
            "automata, synthesis and witness documents; never reaches punish_mp or lp",
            {"games": 400, "states": (20, 25, 30),
             "actions": ((1, 2, 2), (1, 1, 3), (2, 1, 1, 2), (1, 3, 1, 1)),
             "atoms": len(GR1_ATOMS), "max_side": 2, "oracle_games": 8,
             "oracle_shapes": ((4, (1, 2)), (4, (2, 1)), (4, (1, 1, 2)), (3, (2, 2)))},
            _gr1_ltl, 90, _gr1_oracle),
        Workload(
            "mp-punish",
            "mean-payoff games where value iteration in punish_mp is over 80% "
            "of the query time; one query per game, so nothing is reused",
            {"games": 200, "states": 4, "players": 2, "actions": 2,
             "max_weight": 1},
            _mp_punish, 85),
        Workload(
            "welfare",
            "welfare thresholds and bisection optima: the same game goes "
            "through e_nash_mp many times, so per-game reuse shows here",
            {"games": 100, "states": 3, "players": 2,
             "actions": ((1, 2), (2, 1)), "max_weight": 3, "eps": "1/2"},
            _welfare, 80),
    )
}


def build(workload: str, seed, games=None) -> Corpus:
    """The corpus of `workload` for `seed`; `games` overrides the number of
    generated games (the warm-up uses a short corpus of its own)."""
    spec = WORKLOADS[workload]
    sizes = dict(spec.sizes, games=spec.sizes["games"] if games is None else games)
    rng = random.Random(f"{workload}/{seed}")
    texts, queries = spec.build(rng, sizes)
    return Corpus(workload=workload, seed=seed, games=texts, queries=queries)


def build_oracle_set(workload: str, seed):
    """The workload's gate-only oracle corpus for `seed`, or None."""
    spec = WORKLOADS[workload]
    if spec.oracle_build is None:
        return None
    rng = random.Random(f"{workload}/oracle/{seed}")
    texts, queries = spec.oracle_build(rng, spec.sizes)
    return Corpus(workload=workload, seed=seed, games=texts, queries=queries)
