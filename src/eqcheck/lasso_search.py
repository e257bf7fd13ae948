"""Restricted arenas and multi-pair Streett emptiness with witness lassos.

Restriction keeps the start state unconditionally: the equilibrium
characterizations constrain the transitions taken along a path (every
deviation must land in punishing / low-value territory) but never the start
itself; any later state is forced into the surviving set by the security of
the step that reaches it.  A start with no surviving outgoing transition
simply yields an empty search, which the drivers treat as "no path for this
candidate".

The Streett product tracks only what the pairs need: a round-robin
counter for each objective whose antecedent side has two or more terms,
and the automaton state (see `build_streett_product`).

Emptiness uses the standard refinement: inside a strongly connected
component, a pair whose infinitely-often set is missing forces deletion of
its finitely-often set, and the search recurses; a surviving component
yields a witness cycle threaded through one infinitely-often state per
remaining pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from . import punish_gr1 as pg
from . import punish_mp as pm
from .buchi import BuchiAutomaton
from .formula import Gr1Formula, eval_bool
from .graphs import bfs_cycle, bfs_path, tarjan_sccs
from .model import Arena, Game, Lasso


@dataclass(frozen=True)
class RestrictedArena:
    arena: Arena
    start: str
    states: frozenset[str]       # surviving states; the start may sit outside
    transitions: Mapping[tuple[str, tuple], str]
    out: Mapping[str, list]      # state -> kept (profile, target) steps

    def successors(self, s) -> list:
        return self.out.get(s, [])

    def graph_states(self) -> frozenset[str]:
        return self.states | {self.start}


def _restriction(arena: Arena, surviving, secure) -> RestrictedArena:
    """Keep the transitions from surviving states and the start for which
    `secure(s, profile)` holds, with per-state successor lists."""
    kept = {}
    out = {}
    profiles = tuple(arena.profiles())
    for s in sorted(surviving | {arena.initial}):
        steps = []
        for prof in profiles:
            if secure(s, prof):
                target = arena.transition[(s, prof)]
                kept[(s, prof)] = target
                steps.append((prof, target))
        if steps:
            out[s] = steps
    return RestrictedArena(
        arena=arena, start=arena.initial,
        states=frozenset(surviving), transitions=kept, out=out)


def restrict_gr1(game: Game, losers, punish: Mapping[str, pg.PunishResult]) -> RestrictedArena:
    """Keep states punishing for every loser and transitions secure for every
    loser; the start state is kept unconditionally."""
    arena = game.arena
    losers = sorted(losers)
    surviving = set(arena.states)
    for j in losers:
        surviving &= punish[j].region
    return _restriction(arena, surviving, lambda s, prof: all(
        pg.punishing_secure(arena, s, prof, j, punish[j].region)
        for j in losers))


def restrict_mp(game: Game, z: Mapping[str, object],
                punish: Mapping[str, pm.PunishValues]) -> RestrictedArena:
    """Keep states where every player's punishment value is at most its
    threshold and transitions secure for every player at its threshold."""
    arena = game.arena
    surviving = {
        s for s in arena.states
        if all(punish[i].values[s] <= z[i] for i in arena.players)
    }
    return _restriction(arena, surviving, lambda s, prof: all(
        pm.z_secure(arena, s, prof, i, z[i], punish[i])
        for i in arena.players))


# ---------------------------------------------------------------------------
# Streett products
# ---------------------------------------------------------------------------

# product node: (state, antecedent counter per objective, automaton state or -1)
ProductNode = tuple[str, tuple, int]


@dataclass(frozen=True)
class StreettProduct:
    ra: RestrictedArena
    objectives: tuple[Gr1Formula, ...]
    start: ProductNode
    nodes: tuple[ProductNode, ...]
    succ: Mapping[ProductNode, tuple]
    pairs: tuple[tuple[frozenset, frozenset], ...]  # (finitely-often, infinitely-often)


def build_streett_product(ra: RestrictedArena, objectives,
                          aut: Optional[BuchiAutomaton]) -> StreettProduct:
    """Product of the restricted arena with the objectives' antecedent
    counters and, optionally, a Buechi automaton.

    An objective `GF a_1 & ... & GF a_m -> GF b_1 & ... & GF b_n` is the
    conjunction over its consequents of `GF A -> GF b_k`, where `GF A` says
    that every antecedent recurs.  Each conjunct is one Streett pair
    (F, nodes whose state satisfies b_k), where F is the antecedent side's
    reset set from `punish_gr1`: every node when m = 0, the nodes whose
    state satisfies a_1 when m = 1, and the wraps of the round-robin
    counter when m >= 2.  A run visits F infinitely often exactly when
    every antecedent recurs, so the pairs hold together exactly when the
    objective does.  An objective with no consequents adds no pair, and
    only an antecedent side with two or more terms needs a counter.  The
    automaton adds the pair (every node, accepting set): the accepting set
    must recur.
    """
    objectives = tuple(objectives)
    arena = ra.arena
    antes = tuple(goal.antecedents for goal in objectives)
    zeros = tuple(0 for _ in objectives)
    start = (ra.start, zeros, aut.initial[0] if aut is not None else -1)

    order: dict[ProductNode, int] = {start: 0}
    queue = [start]
    succ: dict[ProductNode, list] = {}
    i = 0
    while i < len(queue):
        node = queue[i]
        i += 1
        s, counters, q = node
        label = arena.label(s)
        stepped = tuple(
            pg.side_step(terms, label, c) for terms, c in zip(antes, counters))
        arena_steps = ra.successors(s)
        if aut is None:
            out = [(prof, (s2, stepped, -1)) for prof, s2 in arena_steps]
        else:
            out = [(prof, (s2, stepped, q2))
                   for guard, q2 in aut.edges[q] if eval_bool(guard, label)
                   for prof, s2 in arena_steps]
        succ[node] = tuple(out)
        for _, nxt in out:
            if nxt not in order:
                order[nxt] = len(order)
                queue.append(nxt)

    nodes = tuple(queue)
    labels = {s: arena.label(s) for s in {n[0] for n in nodes}}
    pairs = []
    for k, goal in enumerate(objectives):
        if not goal.consequents:
            continue
        fin = frozenset(n for n in nodes
                        if pg.side_reset(antes[k], labels[n[0]], n[1][k]))
        for term in goal.consequents:
            pairs.append((fin, frozenset(
                n for n in nodes if eval_bool(term, labels[n[0]]))))
    if aut is not None:
        pairs.append((frozenset(nodes),
                      frozenset(n for n in nodes if n[2] in aut.accepting)))
    return StreettProduct(
        ra=ra, objectives=objectives, start=start,
        nodes=nodes, succ=succ, pairs=tuple(pairs))


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
    """Drop counters and automaton state, keeping (state, decision) steps."""
    return Lasso(
        tuple((n[0], prof) for n, prof in prefix),
        tuple((n[0], prof) for n, prof in cycle),
    )
