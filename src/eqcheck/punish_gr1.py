"""Punishment regions for GR(1) goals.

To decide from which states the coalition of all-but-one players can force
player j's goal `GF a_1 & ... & GF a_m -> GF b_1 & ... & GF b_n` to fail,
each side of the goal gets a reset set of counter configurations that a
play visits infinitely often exactly when all of the side's terms hold
infinitely often:

- a side with two or more terms gets a round-robin counter: counter i
  waits for term i + 1 and moves on once it holds, wrapping to 0 after the
  last term.  The reset set is the wrap, the last term holding while the
  counter waits for it.  The counter wraps infinitely often exactly when
  every term recurs; if some term stops, the counter sticks at it;
- a side with one term needs no counter (it stays 0): the reset set is the
  states where the term holds, which recur exactly when the term does;
- a side with no terms stands for `true`: the reset set is everything.

The goal then becomes a single finite/infinite pair over the two reset
sets, solved as a three-priority parity game on a turn-based expansion
where the coalition commits its joint action first and player j answers --
the same quantifier order as the security check on transitions.  Since the
pair is prefix-independent, whether the coalition wins does not depend on
the counters a play starts with.  A goal with no consequents is `... ->
true` and is never lost, so its punishment region is empty without any
game.

Note on the pair orientation: satisfaction of the goal is "antecedent resets
occur finitely often, or consequent resets occur infinitely often"; the
priorities below encode exactly that (consequent-reset 2, antecedent-reset
1, else 0) with player j as the even player.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .formula import Gr1Formula, eval_bool
from .model import Arena, Game

Config = tuple[str, int, int]  # (state, antecedent counter, consequent counter)


def side_step(terms, label_set, i: int) -> int:
    """One step of a side's round-robin counter driven by the current
    state's labels: counter i waits for term i + 1 and moves on, wrapping
    to 0, once that term holds.  A side with at most one term never moves
    off 0, so it has no counter."""
    if len(terms) >= 2 and eval_bool(terms[i], label_set):
        return (i + 1) % len(terms)
    return i


def side_reset(terms, label_set, i: int) -> bool:
    """Is the side at a reset: its last term holding while its counter
    waits for it?  With one term, its states; with none, everywhere."""
    return not terms or (i == len(terms) - 1 and eval_bool(terms[-1], label_set))


def _counter_values(terms) -> range:
    return range(max(len(terms), 1))


def advance_counters(goal: Gr1Formula, label_set, i1: int, i2: int) -> tuple[int, int]:
    """One step of both counters driven by the current state's labels."""
    return (side_step(goal.antecedents, label_set, i1),
            side_step(goal.consequents, label_set, i2))


@dataclass(frozen=True)
class CounterArena:
    arena: Arena
    goal: Gr1Formula
    configs: tuple[Config, ...]
    transition: Mapping[tuple[Config, tuple], Config]
    reset1: frozenset[Config]  # antecedent side at a reset
    reset2: frozenset[Config]  # consequent side at a reset


def build_counter_arena(arena: Arena, goal: Gr1Formula) -> CounterArena:
    ante, cons = goal.antecedents, goal.consequents
    configs = tuple(
        (s, i1, i2) for s in arena.states
        for i1 in _counter_values(ante) for i2 in _counter_values(cons))
    profiles = tuple(arena.profiles())
    transition = {}
    for cfg in configs:
        s, i1, i2 = cfg
        stepped = advance_counters(goal, arena.label(s), i1, i2)
        for prof in profiles:
            transition[(cfg, prof)] = (arena.transition[(s, prof)],) + stepped
    return CounterArena(
        arena=arena,
        goal=goal,
        configs=configs,
        transition=transition,
        reset1=frozenset(c for c in configs
                         if side_reset(ante, arena.label(c[0]), c[1])),
        reset2=frozenset(c for c in configs
                         if side_reset(cons, arena.label(c[0]), c[2])),
    )


# ---------------------------------------------------------------------------
# Turn-based parity game
# ---------------------------------------------------------------------------

EVEN, ODD = 0, 1  # even: the punished player j; odd: the coalition


@dataclass
class TurnBasedGame:
    nodes: tuple
    owner: Mapping[object, int]
    priority: Mapping[object, int]
    succ: Mapping[object, tuple]
    pred: Mapping[object, tuple]


def build_turn_based(ca: CounterArena, j: str) -> TurnBasedGame:
    """Coalition nodes commit a joint action of everyone but j; response
    nodes let j pick, landing on the counter-product successor."""
    arena = ca.arena
    partials = sorted(arena.partial_profiles(j))
    owner = {}
    priority = {}
    succ = {}
    for cfg in ca.configs:
        cnode = ("c", cfg)
        owner[cnode] = ODD
        priority[cnode] = 2 if cfg in ca.reset2 else (1 if cfg in ca.reset1 else 0)
        succ[cnode] = tuple(("r", cfg, pa) for pa in partials)
        for pa in partials:
            rnode = ("r", cfg, pa)
            owner[rnode] = EVEN
            priority[rnode] = 0
            targets = []
            for a in arena.actions[j]:
                nxt = ca.transition[(cfg, arena.combine(pa, j, a))]
                targets.append(("c", nxt))
            succ[rnode] = tuple(dict.fromkeys(targets))
    nodes = tuple(sorted(succ))
    pred: dict = {u: [] for u in nodes}
    for u in nodes:
        for v in succ[u]:
            pred[v].append(u)
    return TurnBasedGame(
        nodes=nodes,
        owner=owner,
        priority=priority,
        succ=succ,
        pred={u: tuple(sorted(pred[u])) for u in nodes},
    )


def _attractor(game: TurnBasedGame, active, target, player):
    """Player-`player` attractor of `target` within `active`, with the
    attracting one-step strategy for that player's nodes."""
    attr = set(target)
    strat = {}
    escapes = {}
    queue = deque(sorted(target))
    while queue:
        v = queue.popleft()
        for u in game.pred[v]:
            if u not in active or u in attr:
                continue
            if game.owner[u] == player:
                attr.add(u)
                strat[u] = v
                queue.append(u)
            else:
                if u not in escapes:
                    escapes[u] = sum(1 for w in game.succ[u] if w in active)
                escapes[u] -= 1
                if escapes[u] == 0:
                    attr.add(u)
                    queue.append(u)
    return attr, strat


def solve_parity(game: TurnBasedGame):
    """Zielonka's recursion: winning regions and memoryless strategies.

    Returns (win_even, win_odd, strategy_even, strategy_odd); each strategy
    maps the winner's nodes inside its region to the chosen successor.
    """
    win = {EVEN: set(), ODD: set()}
    strat = {EVEN: {}, ODD: {}}
    _zielonka(game, frozenset(game.nodes), win, strat)
    return win[EVEN], win[ODD], strat[EVEN], strat[ODD]


def _zielonka(game, active, win, strat):
    if not active:
        return
    top = max(game.priority[u] for u in active)
    player = top % 2
    opponent = 1 - player
    bait = sorted(u for u in active if game.priority[u] == top)
    attr, attr_strat = _attractor(game, active, bait, player)

    sub_win = {EVEN: set(), ODD: set()}
    sub_strat = {EVEN: {}, ODD: {}}
    _zielonka(game, active - frozenset(attr), sub_win, sub_strat)

    if not sub_win[opponent]:
        win[player] |= active
        strat[player].update(sub_strat[player])
        strat[player].update(attr_strat)
        for u in bait:
            if game.owner[u] == player and u not in strat[player]:
                choice = next(v for v in game.succ[u] if v in active)
                strat[player][u] = choice
        return

    counter, counter_strat = _attractor(game, active, sorted(sub_win[opponent]), opponent)
    rest_win = {EVEN: set(), ODD: set()}
    rest_strat = {EVEN: {}, ODD: {}}
    _zielonka(game, active - frozenset(counter), rest_win, rest_strat)

    win[player] |= rest_win[player]
    strat[player].update(rest_strat[player])
    win[opponent] |= rest_win[opponent] | counter
    strat[opponent].update(sub_strat[opponent])
    strat[opponent].update(counter_strat)
    strat[opponent].update(rest_strat[opponent])


# ---------------------------------------------------------------------------
# Punishment regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PunishResult:
    player: str
    goal: Gr1Formula
    region: frozenset[str]
    # memoryless on counter configurations: config -> coalition joint action
    coalition_strategy: Mapping[Config, tuple]


def punish_region(game: Game, j: str) -> PunishResult:
    """States from which the coalition can force j's goal to fail,
    with the coalition's memoryless strategy on the counter product."""
    if not game.is_gr1:
        raise ValueError("punishment regions need a GR(1) game")
    goal = game.gr1_goals[j]
    if not goal.consequents:
        return PunishResult(player=j, goal=goal, region=frozenset(),
                            coalition_strategy={})
    ca = build_counter_arena(game.arena, goal)
    tb = build_turn_based(ca, j)
    _, win_odd, _, strat_odd = solve_parity(tb)
    region = frozenset(
        s for s in game.arena.states if ("c", (s, 0, 0)) in win_odd)
    coalition = {}
    for node, choice in strat_odd.items():
        if node[0] == "c":
            coalition[node[1]] = choice[2]  # the response node's partial profile
    return PunishResult(
        player=j, goal=goal, region=region, coalition_strategy=coalition)


def punishing_secure(arena: Arena, s: str, profile, j: str, region) -> bool:
    """True when every unilateral deviation of j from (s, profile) lands in
    the punishment region."""
    partial = arena.drop_player(profile, j)
    return all(
        arena.transition[(s, arena.combine(partial, j, a))] in region
        for a in arena.actions[j])
