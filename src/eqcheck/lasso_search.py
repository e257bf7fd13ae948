"""Exposure arenas, restricted arenas and multi-pair Streett emptiness with
witness lassos.

For goal games, a run is an equilibrium outcome iff every player either
wins on it or takes only punishing-secure steps.  `restrict_gr1` annotates
each step with the players it exposes, those for whom it is not
punishing-secure, and the Streett product (see `build_streett_product`)
carries the set of players exposed so far and requires each of them to
win.  That set only grows along a run, so it is constant on every strongly
connected component.

For weight games, restriction keeps the start state unconditionally: the
equilibrium characterization constrains the transitions taken along a path
(every deviation must land in low-value territory) but never the start
itself; any later state is forced into the surviving set by the security of
the step that reaches it.  A start with no surviving outgoing transition
simply yields an empty search.

Emptiness uses the standard refinement: inside a strongly connected
component, a pair whose infinitely-often set is missing forces deletion of
its finitely-often set, and the search recurses; a surviving component
yields a witness cycle threaded through one infinitely-often state per
remaining pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from . import punish_gr1 as pg
from . import punish_mp as pm
from .buchi import BuchiAutomaton
from .formula import eval_bool
from .graphs import bfs_cycle, bfs_path, tarjan_sccs
from .model import Arena, Game, Lasso


@dataclass(frozen=True)
class ExposureArena:
    """The arena's steps, each with the players it exposes: those whose goal
    has consequents and for whom the step is not punishing-secure.  A player
    set is a bit mask over the declared player order.  A state's steps are
    computed the first time `successors` asks for them."""
    arena: Arena
    start: str
    exposable: tuple[tuple[int, pg.PunishResult], ...]   # (bit, punishment)
    out: dict = field(default_factory=dict)  # state -> (profile, target, exposed) steps

    @property
    def transitions(self) -> Mapping[tuple[str, tuple], str]:
        """The steps computed so far."""
        return {(s, prof): target
                for s, steps in self.out.items() for prof, target, _ in steps}

    def successors(self, s) -> tuple:
        steps = self.out.get(s)
        if steps is None:
            arena = self.arena
            steps = self.out[s] = tuple(
                (prof, arena.transition[(s, prof)], sum(
                    bit for bit, pun in self.exposable
                    if not pg.punishing_secure(arena, s, prof, pun.player,
                                               pun.region)))
                for prof in arena.profiles())
        return steps


def restrict_gr1(game: Game, punish: Mapping[str, pg.PunishResult]) -> ExposureArena:
    """The exposure pass of one query.  A player whose goal has no
    consequents never loses, so it is never exposed."""
    arena = game.arena
    return ExposureArena(arena=arena, start=arena.initial, exposable=tuple(
        (1 << k, punish[j]) for k, j in enumerate(arena.players)
        if game.gr1_goals[j].consequents))


@dataclass(frozen=True)
class RestrictedArena:
    arena: Arena
    start: str
    states: frozenset[str]       # surviving states; the start may sit outside
    transitions: Mapping[tuple[str, tuple], str]
    out: Mapping[str, list]      # state -> kept (profile, target) steps

    def successors(self, s) -> list:
        return self.out.get(s, [])


def restrict_mp(game: Game, z: Mapping[str, object],
                punish: Mapping[str, pm.PunishValues]) -> RestrictedArena:
    """Keep states where every player's punishment value is at most its
    threshold and transitions from them and the start that are secure for
    every player at its threshold."""
    arena = game.arena
    surviving = frozenset(
        s for s in arena.states
        if all(punish[i].values[s] <= z[i] for i in arena.players))
    kept = {}
    out = {}
    profiles = tuple(arena.profiles())
    for s in sorted(surviving | {arena.initial}):
        steps = []
        for prof in profiles:
            if all(pm.z_secure(arena, s, prof, i, z[i], punish[i])
                   for i in arena.players):
                target = arena.transition[(s, prof)]
                kept[(s, prof)] = target
                steps.append((prof, target))
        if steps:
            out[s] = steps
    return RestrictedArena(
        arena=arena, start=arena.initial,
        states=surviving, transitions=kept, out=out)


# ---------------------------------------------------------------------------
# Streett products
# ---------------------------------------------------------------------------

# product node: (state, antecedent counter per objective, automaton state or
# -1, exposed players as a bit mask)
ProductNode = tuple[str, tuple, int, int]


@dataclass(frozen=True)
class StreettProduct:
    start: ProductNode
    nodes: tuple[ProductNode, ...]
    succ: Mapping[ProductNode, tuple]
    pairs: tuple[tuple[frozenset, frozenset], ...]  # (finitely-often, infinitely-often)


def build_streett_product(ra: ExposureArena, objectives,
                          aut: Optional[BuchiAutomaton]) -> StreettProduct:
    """Product of the exposure arena with the exposed set D, antecedent
    counters and, optionally, a Buechi automaton.

    Each step adds the players it exposes to D.  The objectives (the
    specification's) must hold on every run, and a player's goal once the
    player is in D.

    A goal `GF a_1 & ... & GF a_m -> GF b_1 & ... & GF b_n` is the
    conjunction over its consequents of `GF A -> GF b_k`, where `GF A` says
    that every antecedent recurs.  Each conjunct is one Streett pair
    (F, nodes whose state satisfies b_k), where F is the antecedent side's
    reset set from `punish_gr1`: every node when m = 0, the nodes whose
    state satisfies a_1 when m = 1, and the wraps of the round-robin
    counter when m >= 2.  A run visits F infinitely often exactly when
    every antecedent recurs, so the pairs hold together exactly when the
    goal does.  For a player's goal F also requires the player in D, and
    the player's counter stays 0 until then, so a player never exposed
    adds no product states.  A goal with no consequents adds no pair, and
    only an antecedent side with two or more terms needs a counter.  The
    automaton adds the pair (every node, accepting set): the accepting set
    must recur.
    """
    arena = ra.arena
    # (bit, goal): the goal's counter runs, and its pairs apply, while the
    # exposed set holds the bit; bit 0 always holds
    tracked = tuple((0, goal) for goal in objectives) + tuple(
        (bit, pun.goal) for bit, pun in ra.exposable)
    zeros = tuple(0 for _ in tracked)
    start = (ra.start, zeros, aut.initial[0] if aut is not None else -1, 0)

    seen = {start}
    queue = [start]
    succ: dict[ProductNode, list] = {}
    i = 0
    while i < len(queue):
        node = queue[i]
        i += 1
        s, counters, q, exposed = node
        label = arena.label(s)
        stepped = tuple(
            pg.side_step(goal.antecedents, label, c) if (exposed & bit) == bit
            else 0 for (bit, goal), c in zip(tracked, counters))
        arena_steps = ra.successors(s)
        if aut is None:
            out = [(prof, (s2, stepped, -1, exposed | exposes))
                   for prof, s2, exposes in arena_steps]
        else:
            out = [(prof, (s2, stepped, q2, exposed | exposes))
                   for guard, q2 in aut.edges[q] if eval_bool(guard, label)
                   for prof, s2, exposes in arena_steps]
        succ[node] = tuple(out)
        for _, nxt in out:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)

    nodes = tuple(queue)
    labels = {s: arena.label(s) for s in {n[0] for n in nodes}}
    pairs = []
    for k, (bit, goal) in enumerate(tracked):
        if not goal.consequents:
            continue
        fin = frozenset(n for n in nodes if (n[3] & bit) == bit and pg.side_reset(
            goal.antecedents, labels[n[0]], n[1][k]))
        for term in goal.consequents:
            pairs.append((fin, frozenset(
                n for n in nodes if eval_bool(term, labels[n[0]]))))
    if aut is not None:
        pairs.append((frozenset(nodes),
                      frozenset(n for n in nodes if n[2] in aut.accepting)))
    return StreettProduct(start=start, nodes=nodes, succ=succ, pairs=tuple(pairs))


def _accepting_component(product: StreettProduct):
    """Recursive refinement; returns a reachable sub-SCC satisfying every
    pair, or None."""
    reachable = set()
    frontier = [product.start]
    while frontier:
        node = frontier.pop()
        if node in reachable:
            continue
        reachable.add(node)
        frontier.extend(t for _, t in product.succ[node])

    def refine(node_set):
        members = sorted(node_set)
        sccs = tarjan_sccs(
            members,
            lambda n: (s for _, s in product.succ[n] if s in node_set))
        for scc in sorted(sccs, key=min):
            internal_edge = any(
                t in scc for n in scc for _, t in product.succ[n])
            if not internal_edge:
                continue
            doomed = set()
            for fin, inf in product.pairs:
                if scc & fin and not (scc & inf):
                    doomed |= scc & fin
            if not doomed:
                return scc
            remainder = scc - doomed
            if remainder:
                found = refine(remainder)
                if found is not None:
                    return found
        return None

    return refine(reachable)


def streett_nonempty(product: StreettProduct):
    """Witness lasso through the product, or None when the language is empty.

    The cycle is threaded through one infinitely-often state for every pair
    whose finitely-often set meets the component, via shortest paths inside
    the component.
    """
    scc = _accepting_component(product)
    if scc is None:
        return None

    def inside(n):
        return ((e, t) for e, t in product.succ[n] if t in scc)

    found = bfs_path([product.start],
                     lambda n: product.succ[n], lambda n: n in scc)
    assert found is not None, "accepting component must be reachable"
    prefix, entry = found

    targets = []
    for fin, inf in product.pairs:
        if scc & fin:
            targets.append(inf & scc)
    cycle_steps = []
    cur = entry
    visited_targets = set()
    for k, tset in enumerate(targets):
        if cur in tset or tset & visited_targets:
            continue
        leg = bfs_path([cur], inside, lambda n: n in tset)
        assert leg is not None, "pair witness must exist inside the component"
        steps, cur = leg
        cycle_steps.extend(steps)
        visited_targets.update(n for n, _ in steps)
        visited_targets.add(cur)
    if cur == entry and not cycle_steps:
        loop = bfs_cycle(entry, inside)
        assert loop is not None
        cycle_steps = loop
    else:
        back = bfs_path([cur], inside, lambda n: n == entry)
        assert back is not None
        cycle_steps.extend(back[0])
    return prefix, cycle_steps


def project_lasso(prefix, cycle) -> Lasso:
    """Drop counters, automaton state and exposed set, keeping (state,
    decision) steps."""
    return Lasso(
        tuple((n[0], prof) for n, prof in prefix),
        tuple((n[0], prof) for n, prof in cycle),
    )
