"""Small graph helpers shared by the product and search modules."""

from __future__ import annotations

from collections import deque


def tarjan_sccs(nodes, successors):
    """Strongly connected components, iteratively, in deterministic order.

    `nodes` fixes the iteration order; `successors(n)` yields neighbour
    nodes.  Components come back in reverse topological order of discovery.
    """
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(successors(root)))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(frozenset(component))
    return sccs


def edge_sccs(edges):
    """`tarjan_sccs` over the vertices that (src, edge_data, trg) triples
    touch, in sorted vertex order."""
    vertices = sorted({e[0] for e in edges} | {e[2] for e in edges})
    succ: dict = {v: [] for v in vertices}
    for src, _, trg in edges:
        succ[src].append(trg)
    return tarjan_sccs(vertices, lambda v: succ[v])


def weakly_connected(edges) -> bool:
    """Do the (src, edge_data, trg) triples form one nonempty component
    when directions are ignored?  Union-find over the touched vertices."""
    parent = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for src, _, trg in edges:
        a, b = find(src), find(trg)
        if a != b:
            parent[a] = b
    return len({find(v) for v in parent}) == 1


def reachable_graph(start, successors):
    """Breadth-first exploration from `start`: the reached vertices in
    discovery order, and every (vertex, edge_data, successor) edge among
    them.  `successors(v)` yields (edge_data, next_vertex) pairs."""
    seen = {start}
    queue = [start]
    edges = []
    i = 0
    while i < len(queue):
        v = queue[i]
        i += 1
        for edata, w in successors(v):
            edges.append((v, edata, w))
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return tuple(queue), edges


def bfs_path(start_set, successors, goal):
    """Shortest edge path from any node of `start_set` to a goal node.

    `successors(n)` yields (edge_data, next_node) pairs; `goal(n)` tests
    arrival.  Returns (steps, end_node) where steps are (node, edge_data)
    pairs, or None when unreachable.  Starting nodes already satisfying the
    goal yield an empty path.
    """
    parent = {}
    queue = deque()
    for s in start_set:
        if s in parent:
            continue
        parent[s] = None
        if goal(s):
            return [], s
        queue.append(s)
    while queue:
        node = queue.popleft()
        for edata, succ in successors(node):
            if succ in parent:
                continue
            parent[succ] = (node, edata)
            if goal(succ):
                steps = []
                cur = succ
                while parent[cur] is not None:
                    prev, via = parent[cur]
                    steps.append((prev, via))
                    cur = prev
                steps.reverse()
                return steps, succ
            queue.append(succ)
    return None


def bfs_cycle(node, successors):
    """Shortest nonempty cycle from `node` back to itself, or None."""
    first_steps = []
    for edata, succ in successors(node):
        if succ == node:
            return [(node, edata)]
        first_steps.append((edata, succ))
    for edata, succ in first_steps:
        found = bfs_path([succ], successors, lambda n: n == node)
        if found is not None:
            return [(node, edata)] + found[0]
    return None
