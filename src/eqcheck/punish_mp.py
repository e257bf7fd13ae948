"""Punishment values for mean-payoff goals.

Each player's worst-case guarantee is the value of a turn-based zero-sum
mean-payoff game: at every state the coalition commits its joint action,
then the player answers -- the same quantifier order as the security check.
Response nodes repeat their source state's weight, so each original step
contributes its weight twice and cycle averages are preserved exactly.

Values are found by threshold search over energy games (Brim, Chaloupka,
Doyen, Gentilini and Raskin, "Faster algorithms for mean-payoff games",
FMSD 2011).  Under optimal memoryless play every value is the average of a
simple cycle.  Such a cycle passes each coalition node at most once and
counts each state's weight twice, so every value is `p/q` with
`1 <= q <= |states|`, between the least and the greatest weight.  A node
has value at least `p/q` exactly when the player wins the energy game on
weights `q * w - p` from it.  Splitting the nodes at the median candidate
and recursing on each side with the matching half of the candidates
pins every value exactly: the nodes whose values lie in a range form a
subgame with the same values, since the coalition cannot leave the winners
and the player cannot leave the losers.  Optimal memoryless strategies are
then extracted per value class from the energy games at the class value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .model import Arena, Game

MAX, MIN = "max", "min"


@dataclass(frozen=True)
class MpZeroSumGame:
    player: str
    nodes: tuple
    owner: Mapping[object, str]
    weight: Mapping[object, int]
    # edge label: the partial profile chosen (coalition) or the action (player)
    succ: Mapping[object, tuple]


@dataclass(frozen=True)
class PunishValues:
    player: str
    values: Mapping[str, Fraction]               # per original state
    coalition_strategy: Mapping[str, tuple]      # state -> joint action of the others
    maximizer_strategy: Mapping[tuple, str]      # (state, partial) -> own action
    node_values: Mapping[object, Fraction]       # full turn-based solution


def build_mp_punish_game(game: Game, i: str) -> MpZeroSumGame:
    if not game.is_mp:
        raise ValueError("punishment values need a mean-payoff game")
    arena = game.arena
    weights = game.weights
    partials = sorted(arena.partial_profiles(i))
    owner = {}
    weight = {}
    succ = {}
    for s in arena.states:
        cnode = ("c", s)
        owner[cnode] = MIN
        weight[cnode] = weights.of(i, s)
        succ[cnode] = tuple((pa, ("r", s, pa)) for pa in partials)
        for pa in partials:
            rnode = ("r", s, pa)
            owner[rnode] = MAX
            weight[rnode] = weights.of(i, s)
            succ[rnode] = tuple(
                (a, ("c", arena.transition[(s, arena.combine(pa, i, a))]))
                for a in arena.actions[i])
    nodes = tuple(sorted(succ))
    return MpZeroSumGame(
        player=i, nodes=nodes, owner=owner, weight=weight, succ=succ)


def _energy(g: MpZeroSumGame, members, weight, eve: str):
    """Least progress measure of the energy game on `members` of `g`.

    Only edges between members count.  Returns `(credit, choice)`:
    `credit[u]` is the least initial credit with which Eve, the owner `eve`
    (MAX or MIN), keeps every partial sum of `weight` along the play
    non-negative, or None when no credit suffices; `choice[u]` is, at
    each of Eve's winning nodes, an edge `(label, successor)` attaining it.

    Lifting works through a worklist over predecessor lists.  A winning
    credit never exceeds `cap`, the sum of the negative weights, because
    every prefix of a winning play is non-negative cycles plus a simple
    path; a node lifted past `cap` is losing.
    """
    inside = set(members)
    inner = {u: [(lbl, v) for lbl, v in g.succ[u] if v in inside] for u in members}
    pred = {u: [] for u in members}
    for u in members:
        for _, v in inner[u]:
            pred[v].append(u)
    cap = sum(max(0, -weight[u]) for u in members)
    top = cap + 1
    f = dict.fromkeys(members, 0)

    def need(u, v):
        return top if f[v] == top else max(0, f[v] - weight[u])

    work = list(reversed(members))
    queued = set(members)
    while work:
        u = work.pop()
        queued.discard(u)
        needs = [need(u, v) for _, v in inner[u]]
        new = min(needs, default=top) if g.owner[u] == eve else max(needs, default=0)
        if new > f[u]:
            f[u] = min(new, top)
            for p in pred[u]:
                if p not in queued and f[p] != top:
                    queued.add(p)
                    work.append(p)
    credit = {u: None if f[u] == top else f[u] for u in members}
    choice = {u: min((need(u, v), lbl, v) for lbl, v in inner[u])[1:]
              for u in members if g.owner[u] == eve and f[u] != top}
    return credit, choice


def _shifted(g: MpZeroSumGame, members, c: Fraction) -> dict:
    """Weights `q * w - p` for the threshold `c = p/q`: a cycle averages at
    least `c` exactly when its shifted sum is non-negative."""
    return {u: c.denominator * g.weight[u] - c.numerator for u in members}


def _value_classes(g: MpZeroSumGame) -> list:
    """`(value, nodes)` for every value of `g`, by threshold search over the
    candidate values."""
    states = sum(1 for u in g.nodes if u[0] == "c")
    lo = min(g.weight[u] for u in g.nodes)
    hi = max(g.weight[u] for u in g.nodes)
    candidates = sorted({Fraction(p, q) for q in range(1, states + 1)
                         for p in range(lo * q, hi * q + 1)})
    classes = []

    def split(members, first, last):
        # the values of `members` lie in candidates[first:last]
        if last - first == 1:
            classes.append((candidates[first], members))
            return
        mid = (first + last) // 2
        credit, _ = _energy(g, members, _shifted(g, members, candidates[mid]), MAX)
        above = [u for u in members if credit[u] is not None]
        below = [u for u in members if credit[u] is None]
        if above:
            split(above, mid, last)
        if below:
            split(below, first, mid)

    split(list(g.nodes), 0, len(candidates))
    return sorted(classes)


def _optimal_choices(g: MpZeroSumGame, members, weight, eve: str) -> dict:
    """Eve's edges in the energy game on one value class, where she wins
    from every node."""
    credit, choice = _energy(g, members, weight, eve)
    if None in credit.values():
        raise ArithmeticError("value class is not won by its optimal player")
    return choice


def solve_mp_values(g: MpZeroSumGame) -> PunishValues:
    """Exact optimal values plus optimal memoryless strategies for both sides."""
    values = {}
    max_choice = {}
    min_choice = {}
    # optimal play never leaves a value class: solve one energy game per
    # class and side, on weights shifted by the class value and scaled to
    # integers
    for value, members in _value_classes(g):
        values.update(dict.fromkeys(members, value))
        shifted = _shifted(g, members, value)
        max_choice.update(_optimal_choices(g, members, shifted, MAX))
        negated = {u: -w for u, w in shifted.items()}
        min_choice.update(_optimal_choices(g, members, negated, MIN))

    coalition = {}
    maximizer = {}
    for u, (lbl, v) in min_choice.items():
        if u[0] == "c":
            coalition[u[1]] = lbl
    for u, (lbl, v) in max_choice.items():
        if u[0] == "r":
            maximizer[(u[1], u[2])] = lbl
    return PunishValues(
        player=g.player,
        values={s: values[("c", s)] for _, s in (u for u in g.nodes if u[0] == "c")},
        coalition_strategy=coalition,
        maximizer_strategy=maximizer,
        node_values=values,
    )


def punish_values(game: Game, i: str) -> PunishValues:
    return solve_mp_values(build_mp_punish_game(game, i))


def z_secure(arena: Arena, s: str, profile, i: str, z: Fraction,
             values: PunishValues) -> bool:
    """True when every unilateral deviation of i from (s, profile) lands in
    states where i is held to at most z."""
    partial = arena.drop_player(profile, i)
    return all(
        values.values[arena.transition[(s, arena.combine(partial, i, a))]] <= z
        for a in arena.actions[i])
