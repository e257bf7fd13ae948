"""Exact-rational linear programs over edge-usage variables.

The cycle-feasibility encoding introduces one nonnegative variable per edge
of a weighted graph (a simplex column, not a constraint row) and the rows:
at least one edge used, nonnegative total shifted weight per dimension,
per-vertex flow conservation, and a lower bound of one on edges leaving
each required vertex set.  A vertex set the cycle must avoid is removed
from the graph before the program is built.

Feasibility is decided by a phase-one simplex with Bland's rule on an
integer tableau over one common denominator, so it terminates, never
rounds, and every reported solution re-substitutes exactly.  Only rows
whose slack cannot start in the basis get an artificial variable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional

from .buchi import BuchiAutomaton
from .formula import Gr1Formula, eval_bool
from .graphs import bfs_path, edge_sccs, reachable_graph, weakly_connected
from .model import Lasso


class WitnessGapError(Exception):
    """A feasible program whose every available support is disconnected: the
    verdict stands, but no single cycle realizes it exactly."""


@dataclass(frozen=True)
class WeightedEdgeGraph:
    vertices: tuple
    edges: tuple            # (src, edge_data, trg) triples; index = LP variable
    weights: tuple          # per dimension: mapping vertex -> Fraction (already shifted)
    theta_sets: tuple       # vertex sets that a cycle must keep visiting


@dataclass
class LinearProgram:
    num_vars: int
    constraints: list = field(default_factory=list)  # (coeffs, relation, rhs, tag)
    nonnegative: bool = False  # all variables known >= 0: skip sign splitting

    def add(self, coeffs: Mapping[int, Fraction], relation: str, rhs, tag=""):
        assert relation in ("<=", ">=", "==")
        for var in coeffs:
            assert 0 <= var < self.num_vars
        self.constraints.append(
            ({v: Fraction(c) for v, c in coeffs.items() if c}, relation,
             Fraction(rhs), tag))


def build_lp_theta(g: WeightedEdgeGraph) -> LinearProgram:
    """Feasible iff some nonnegative circulation uses an edge, has
    nonnegative total weight in every dimension, and keeps one edge leaving
    each required vertex set."""
    lp = _base_lp(g)
    for r, required in enumerate(g.theta_sets):
        rows = {e: Fraction(1) for e, (src, _, _) in enumerate(g.edges)
                if src in required}
        lp.add(rows, ">=", 1, tag=f"visit-set-{r}")
    return lp


def _base_lp(g: WeightedEdgeGraph) -> LinearProgram:
    lp = LinearProgram(num_vars=len(g.edges), nonnegative=True)
    lp.add({e: Fraction(1) for e in range(len(g.edges))}, ">=", 1, tag="some-edge")
    for d, wmap in enumerate(g.weights):
        rows = {}
        for e, (src, _, _) in enumerate(g.edges):
            coeff = Fraction(wmap[src])
            if coeff:
                rows[e] = coeff
        lp.add(rows, ">=", 0, tag=f"dimension-{d}")
    for v in g.vertices:
        rows: dict[int, Fraction] = {}
        for e, (src, _, trg) in enumerate(g.edges):
            if src == v:
                rows[e] = rows.get(e, Fraction(0)) + 1
            if trg == v:
                rows[e] = rows.get(e, Fraction(0)) - 1
        rows = {e: c for e, c in rows.items() if c}
        lp.add(rows, "==", 0, tag=f"balance-{v}")
    return lp


# ---------------------------------------------------------------------------
# Phase-one simplex
# ---------------------------------------------------------------------------

def feasible(lp: LinearProgram) -> Optional[dict[int, Fraction]]:
    """A rational assignment satisfying every constraint, or None.

    Every simplex column is nonnegative.  With `lp.nonnegative` each
    variable is one column; otherwise variable v is the difference of
    columns 2v and 2v + 1.  The whole program is multiplied by one common
    denominator of its coefficients and right-hand sides, so the phase-one
    objective, and with it Bland's path, is that of the rational program.

    Each inequality gains a slack column and is written as `<=`; a row with
    a negative right-hand side is negated.  A `<=` row whose right-hand
    side is then nonnegative starts with its slack in the basis; every
    other row (`==`, and a `<=` turned into `>=` by the negation) gets an
    artificial, whose sum is minimized with Bland's rule until it is zero.
    An artificial that leaves the basis is dropped, so artificials need no
    columns.

    The tableau holds integers: the rational tableau times a common
    denominator, the last pivot element.  The fraction-free update
    (Bareiss) keeps every entry a minor of the integer program, so each
    division is exact; ratios are compared by cross-multiplication, and
    fractions are built only for the solution.
    """
    split = 1 if lp.nonnegative else 2
    scale = lcm(*(c.denominator for coeffs, _, rhs, _ in lp.constraints
                  for c in (rhs, *coeffs.values())))
    num_slack = sum(relation != "==" for _, relation, _, _ in lp.constraints)
    width = split * lp.num_vars + num_slack  # columns; the row's last entry is its rhs

    tableau, basis, objective = [], [], [0] * (width + 1)
    slack = split * lp.num_vars
    for coeffs, relation, rhs, _ in lp.constraints:
        row = [0] * (width + 1)
        sign = -1 if relation == ">=" else 1
        for v, c in coeffs.items():
            c = sign * c.numerator * (scale // c.denominator)
            row[split * v] += c
            if split == 2:
                row[2 * v + 1] -= c
        row[width] = sign * rhs.numerator * (scale // rhs.denominator)
        if relation != "==":
            row[slack] = 1
            basic = slack
            slack += 1
        if row[width] < 0:
            row = [-x for x in row]
        if relation == "==" or row[basic] < 0:
            basic = width + len(tableau)  # an artificial, after every column
            objective = [z - x for z, x in zip(objective, row)]
        tableau.append(row)
        basis.append(basic)

    denominator = 1
    while objective[width]:
        enter = next((c for c in range(width) if objective[c] < 0), None)
        if enter is None:
            return None
        leave = None
        for r, row in enumerate(tableau):
            a = row[enter]
            if a <= 0:
                continue
            if leave is not None:
                # Bland: the least ratio rhs / a, then the least basic column
                best = tableau[leave]
                here, there = row[width] * best[enter], best[width] * a
                if here > there or here == there and basis[r] > basis[leave]:
                    continue
            leave = r
        if leave is None:
            raise ArithmeticError("phase-one objective unbounded")
        pivot_row = tableau[leave]
        pivot = pivot_row[enter]
        for r, row in enumerate(tableau):
            if r != leave:
                tableau[r] = _eliminate(row, pivot_row, pivot, row[enter], denominator)
        objective = _eliminate(objective, pivot_row, pivot, objective[enter],
                               denominator)
        basis[leave] = enter
        denominator = pivot

    values = [Fraction(0)] * (split * lp.num_vars)
    for r, column in enumerate(basis):
        if column < len(values):
            values[column] = Fraction(tableau[r][width], denominator)
    if split == 1:
        return dict(enumerate(values))
    return {v: values[2 * v] - values[2 * v + 1] for v in range(lp.num_vars)}


def _eliminate(row, pivot_row, pivot, factor, denominator):
    """One fraction-free row update; every division is exact."""
    if factor:
        return [(pivot * x - factor * y) // denominator
                for x, y in zip(row, pivot_row)]
    if pivot == denominator:
        return row
    return [pivot * x // denominator for x in row]


# ---------------------------------------------------------------------------
# Cycle search over restricted arenas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MpSearchResult:
    feasible: bool
    lasso: Optional[Lasso]
    witness_gap: bool


_FALLBACK_EDGE_LIMIT = 14
_FALLBACK_LP_BUDGET = 512
_CIRCUIT_STEP_LIMIT = 20000


def mp_lasso_search(ra, weights, shifts, spec, extra_dims=()) -> MpSearchResult:
    """Search the restricted arena for a cycle achieving every dimension.

    `shifts` maps players to thresholds (cycle average of the player's
    weights must reach its shift); `extra_dims` appends (state weight map,
    threshold) dimensions.  `spec` is a GF-implication formula or a Buechi
    automaton.  An automaton is producted in, and the cycle must visit an
    accepting vertex.  A formula holds on a cycle that visits every
    consequent or avoids some antecedent: one pass requires the
    consequents' vertex sets, then one pass per antecedent searches the
    graph without that antecedent's vertices.

    Each pass runs one feasibility program per strongly connected
    component.  A feasible program whose support cannot be connected yields
    a yes verdict without a lasso (`witness_gap`).
    """
    arena = ra.arena
    if isinstance(spec, Gr1Formula):
        base_of = lambda v: v
        vertices, edges = reachable_graph(ra.start, ra.successors)
        theta_sets = tuple(
            frozenset(v for v in vertices if eval_bool(t, arena.label(v)))
            for t in spec.consequents)
        avoid_sets = tuple(
            frozenset(v for v in vertices if eval_bool(t, arena.label(v)))
            for t in spec.antecedents)
    elif isinstance(spec, BuchiAutomaton):
        base_of = lambda v: v[0]

        def product_succ(v):
            s, q = v
            label = arena.label(s)
            out = []
            for guard, q2 in spec.edges[q]:
                if eval_bool(guard, label):
                    for prof, s2 in ra.successors(s):
                        out.append((prof, (s2, q2)))
            return out

        start = (ra.start, spec.initial[0])
        vertices, edges = reachable_graph(start, product_succ)
        theta_sets = (frozenset(v for v in vertices if v[1] in spec.accepting),)
        avoid_sets = ()
    else:
        raise TypeError(f"unsupported specification payload: {spec!r}")

    dims = []
    for player in sorted(shifts):
        dims.append({
            v: Fraction(weights.of(player, base_of(v))) - shifts[player]
            for v in vertices})
    for wmap, threshold in extra_dims:
        dims.append({v: Fraction(wmap[base_of(v)]) - threshold for v in vertices})
    dims = tuple(dims)

    start_vertex = vertices[0]
    feasible_somewhere = False
    passes = [(frozenset(), theta_sets)] + [(avoid, ()) for avoid in avoid_sets]
    for avoid, required in passes:
        graph_edges = [e for e in edges if e[0] not in avoid and e[2] not in avoid]
        for scc in edge_sccs(graph_edges):
            internal = [e for e in graph_edges if e[0] in scc and e[2] in scc]
            if not internal:
                continue
            if any(not (t & scc) for t in required):
                continue
            sub = WeightedEdgeGraph(
                vertices=tuple(sorted(scc)),
                edges=tuple(internal),
                weights=tuple({v: d[v] for v in scc} for d in dims),
                theta_sets=required,
            )
            solution = feasible(build_lp_theta(sub))
            if solution is None:
                continue
            feasible_somewhere = True
            lasso = _extract_lasso(sub, solution, start_vertex, edges, base_of)
            if lasso is not None:
                return MpSearchResult(True, lasso, False)
    if feasible_somewhere:
        return MpSearchResult(True, None, True)
    return MpSearchResult(False, None, False)


def _extract_lasso(sub: WeightedEdgeGraph, solution, start_vertex, all_edges, base_of):
    """Scale the circulation to integers and walk it as one cycle; try small
    connected supports when the returned basic solution is disconnected."""
    support = [e for e in range(len(sub.edges)) if solution[e] > 0]
    if weakly_connected([sub.edges[e] for e in support]):
        counts = _integer_counts(solution, support)
        circuit = _euler_circuit(sub, support, counts)
        if circuit is not None:
            return _attach_prefix(circuit, start_vertex, all_edges, base_of)
    # fall back to exact search over small connected supports
    if len(sub.edges) <= _FALLBACK_EDGE_LIMIT:
        found = _connected_support(sub)
        if found is not None:
            support, counts = found
            circuit = _euler_circuit(sub, support, counts)
            if circuit is not None:
                return _attach_prefix(circuit, start_vertex, all_edges, base_of)
    return None


def _integer_counts(solution, support):
    scale = lcm(*(solution[e].denominator for e in support))
    return {e: int(solution[e] * scale) for e in support}


def _euler_circuit(sub, support, counts):
    """Directed Eulerian circuit over the support multigraph (balanced by
    flow conservation, strongly connected once weakly connected)."""
    total = sum(counts.values())
    if total > _CIRCUIT_STEP_LIMIT:
        return None
    remaining = dict(counts)
    adjacency: dict = {}
    for e in support:
        src, edata, trg = sub.edges[e]
        adjacency.setdefault(src, []).append(e)
    for v in adjacency:
        adjacency[v].sort()
    start = min(adjacency)
    stack = [start]
    stack_edges = []
    circuit = []
    while stack:
        v = stack[-1]
        edge = None
        for e in adjacency.get(v, ()):
            if remaining[e] > 0:
                edge = e
                break
        if edge is None:
            stack.pop()
            if stack_edges:
                circuit.append(stack_edges.pop())
        else:
            remaining[edge] -= 1
            stack_edges.append(edge)
            stack.append(sub.edges[edge][2])
    circuit.reverse()
    if len(circuit) != total:
        return None  # support not connected after all
    return [(sub.edges[e][0], sub.edges[e][1]) for e in circuit]


def _connected_support(sub):
    """Smallest connected edge subset carrying a feasible circulation with
    every support edge used at least once; None when the budget runs out."""
    edge_count = len(sub.edges)
    budget = _FALLBACK_LP_BUDGET
    for size in range(1, edge_count + 1):
        for combo in itertools.combinations(range(edge_count), size):
            if budget <= 0:
                return None
            if not weakly_connected([sub.edges[e] for e in combo]):
                continue
            sources = {sub.edges[e][0] for e in combo}
            if any(not (t & sources) for t in sub.theta_sets):
                continue
            if not _balanced_possible(sub, combo):
                continue
            lp = _restricted_lp(sub, combo)
            budget -= 1
            solution = feasible(lp)
            if solution is not None:
                counts = _integer_counts(solution, list(combo))
                return list(combo), counts
    return None


def _restricted_lp(sub, combo):
    lp = build_lp_theta(sub)
    chosen = set(combo)
    for e in range(len(sub.edges)):
        if e in chosen:
            lp.add({e: Fraction(1)}, ">=", 1, tag="support-lower")
        else:
            lp.add({e: Fraction(1)}, "==", 0, tag="support-zero")
    return lp


def _balanced_possible(sub, combo):
    # a circulation with every chosen edge used needs in and out flow at
    # every touched vertex
    outs = {sub.edges[e][0] for e in combo}
    ins = {sub.edges[e][2] for e in combo}
    return outs == ins


def _attach_prefix(circuit, start_vertex, all_edges, base_of):
    succ: dict = {}
    for src, edata, trg in all_edges:
        succ.setdefault(src, []).append((edata, trg))
    cycle_entry = circuit[0][0]
    found = bfs_path([start_vertex], lambda v: succ.get(v, ()),
                     lambda v: v == cycle_entry)
    if found is None:
        return None
    prefix_steps, _ = found
    return Lasso(
        tuple((base_of(v), prof) for v, prof in prefix_steps),
        tuple((base_of(v), prof) for v, prof in circuit),
    )
