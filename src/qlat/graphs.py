"""Oriented multigraphs with a chosen spanning tree.

Vertices are numbered 1..n and edges 1..m; loops and parallel edges are
allowed.  An edge (eid, tail, head) is oriented tail -> head.  Fundamental
cycles and cuts are returned as dense signed integer vectors indexed by
edge id, and exhaustive spanning-tree enumeration doubles as the
brute-force oracle for everything determinant-shaped.
"""

from __future__ import annotations

from dataclasses import dataclass


class OrientedMultigraph:
    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count, edges):
        edges = tuple((int(e), int(a), int(b)) for e, a, b in edges)
        if vertex_count < 1:
            raise ValueError("vertex_count must be positive")
        ids = sorted(e for e, _, _ in edges)
        if ids != list(range(1, len(edges) + 1)):
            raise ValueError("edge ids must be 1..m without gaps or repeats")
        for eid, a, b in edges:
            if not (1 <= a <= vertex_count and 1 <= b <= vertex_count):
                raise ValueError(f"edge {eid} endpoint out of range")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(sorted(edges)))

    def __setattr__(self, name, value):
        raise AttributeError("OrientedMultigraph is immutable")

    @property
    def edge_count(self):
        return len(self.edges)

    def edge(self, eid):
        return self.edges[eid - 1]

    def is_loop(self, eid):
        _, a, b = self.edge(eid)
        return a == b

    def non_loop_edges(self):
        return [e for e, a, b in self.edges if a != b]

    def adjacency(self, edge_ids=None):
        """vertex -> list of (edge_id, other_endpoint), loops excluded."""
        adj = {v: [] for v in range(1, self.vertex_count + 1)}
        use = set(edge_ids) if edge_ids is not None else None
        for eid, a, b in self.edges:
            if a == b:
                continue
            if use is not None and eid not in use:
                continue
            adj[a].append((eid, b))
            adj[b].append((eid, a))
        return adj

    def __eq__(self, other):
        if not isinstance(other, OrientedMultigraph):
            return NotImplemented
        return (self.vertex_count, self.edges) == (other.vertex_count, other.edges)

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return f"OrientedMultigraph({self.vertex_count}, {list(self.edges)})"


class SpanningTree:
    __slots__ = ("tree_edges",)

    def __init__(self, tree_edges):
        object.__setattr__(self, "tree_edges", frozenset(int(e) for e in tree_edges))

    def __setattr__(self, name, value):
        raise AttributeError("SpanningTree is immutable")

    def __contains__(self, eid):
        return eid in self.tree_edges

    def __eq__(self, other):
        if not isinstance(other, SpanningTree):
            return NotImplemented
        return self.tree_edges == other.tree_edges

    def __hash__(self):
        return hash(self.tree_edges)

    def __repr__(self):
        return f"SpanningTree({sorted(self.tree_edges)})"


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self):
        return not self.violations

    def codes(self):
        return {v.code for v in self.violations}

    def bridge_only(self):
        """True when every violation is a bridge finding.

        The cut/flow constructions stay well defined on bridged graphs, so
        callers may force past these with a warning.
        """
        return bool(self.violations) and self.codes() <= {"bridge"}


def _reach(adj, start):
    """Vertices reachable from start in adj, each mapped to the (vertex, edge id)
    it was first reached through; start maps to None."""
    prev = {start: None}
    stack = [start]
    while stack:
        v = stack.pop()
        for eid, w in adj[v]:
            if w not in prev:
                prev[w] = (v, eid)
                stack.append(w)
    return prev


def _root(parent, x):
    """Union-find root of x, leaving the links as they are."""
    while parent[x] != x:
        x = parent[x]
    return x


def _union(parent, size, a, b):
    """Link the smaller of a's and b's components under the larger root.

    Returns the (child, root) pair linked, or None if already joined.
    """
    ra, rb = _root(parent, a), _root(parent, b)
    if ra == rb:
        return None
    if size[ra] > size[rb]:
        ra, rb = rb, ra
    parent[ra] = rb
    size[rb] += size[ra]
    return ra, rb


def _forest_edges(g, edge_ids):
    """The edges of edge_ids, in the given order, that join two components."""
    parent = list(range(g.vertex_count + 1))
    size = [1] * (g.vertex_count + 1)
    return [eid for eid in edge_ids if _union(parent, size, *g.edge(eid)[1:])]


def is_connected(g):
    # Exact shortcut: a connected graph has n - 1 edges or more, and a huge
    # vertex count with few edges then allocates nothing per vertex.
    if g.edge_count < g.vertex_count - 1:
        return False
    return len(_reach(g.adjacency(), 1)) == g.vertex_count


def bridges(g):
    """Edge ids whose removal disconnects the graph, in increasing order.

    Loops never qualify.  On a disconnected graph every non-loop edge
    qualifies, since the graph stays disconnected without it.  One
    iterative low-link pass (Tarjan, IPL 2 (1974) 160-161): a tree edge
    u-v of the depth-first search is a bridge when no edge other than it
    leads from v's subtree back to u or above.
    """
    if g.edge_count < g.vertex_count - 1:  # disconnected, as in is_connected
        return g.non_loop_edges()
    adj = g.adjacency()
    disc = {1: 0}
    low = {1: 0}
    out = []
    stack = [(1, None, iter(adj[1]))]
    while stack:
        v, via, it = stack[-1]
        for eid, w in it:
            if eid == via:
                continue
            if w in disc:
                low[v] = min(low[v], disc[w])
            else:
                disc[w] = low[w] = len(disc)
                stack.append((w, eid, iter(adj[w])))
                break
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] > disc[u]:
                    out.append(via)
    if len(disc) < g.vertex_count:
        return g.non_loop_edges()
    return sorted(out)


def validate(g, t):
    """Check connectivity, bridgelessness and spanning-tree validity.

    Collects every violation instead of stopping at the first.
    """
    out = []
    if not is_connected(g):
        out.append(Violation("disconnected", "graph is not connected"))
    for eid in bridges(g):
        out.append(Violation("bridge", f"edge {eid} is a bridge"))
    bad_ids = [e for e in t.tree_edges if not (1 <= e <= g.edge_count)]
    if bad_ids:
        out.append(Violation("tree_edge_range",
                             f"tree edges {sorted(bad_ids)} are not edge ids"))
    else:
        loops = [e for e in t.tree_edges if g.is_loop(e)]
        if loops:
            out.append(Violation("tree_loop",
                                 f"tree contains loop edges {sorted(loops)}"))
        if len(t.tree_edges) != g.vertex_count - 1:
            out.append(Violation(
                "tree_size",
                f"tree has {len(t.tree_edges)} edges, expected {g.vertex_count - 1}"))
        elif not loops and len(_forest_edges(g, t.tree_edges)) < len(t.tree_edges):
            out.append(Violation("tree_not_spanning",
                                 "tree edges do not form a spanning tree"))
    return ValidationReport(tuple(out))


def require_valid(g, t, force=False):
    """Raise unless (g, t) validates; force tolerates bridge findings only."""
    report = validate(g, t)
    if report.ok:
        return report
    if force and report.bridge_only():
        return report
    msgs = "; ".join(f"{v.code}: {v.detail}" for v in report.violations)
    raise ValueError(f"invalid graph/tree pair: {msgs}")


def _tree_path(g, t, start, goal):
    """Edges of the unique tree path start -> goal as (edge_id, forward)."""
    prev = _reach(g.adjacency(t.tree_edges), start)
    if goal not in prev:
        raise ValueError("tree does not connect the requested vertices")
    path = []
    v = goal
    while prev[v] is not None:
        u, eid = prev[v]
        _, tail, head = g.edge(eid)
        path.append((eid, tail == u))
        v = u
    path.reverse()
    return path


def fundamental_cycle(g, t, f):
    """Signed vector of the cycle closed by the non-tree edge f.

    The cycle is oriented by f; tree edges enter with +1 when their own
    orientation agrees with that traversal and -1 otherwise.
    """
    if f in t.tree_edges:
        raise ValueError(f"edge {f} is a tree edge")
    vec = [0] * g.edge_count
    vec[f - 1] = 1
    _, tail, head = g.edge(f)
    if tail == head:
        return tuple(vec)
    # close up: walk back from head to tail through the tree
    for eid, forward in _tree_path(g, t, head, tail):
        vec[eid - 1] = 1 if forward else -1
    return tuple(vec)


def cut_side(g, t, e):
    """Vertices the tree minus the tree edge e still joins to e's tail."""
    return _reach(g.adjacency(t.tree_edges - {e}), g.edge(e)[1]).keys()


def fundamental_cut(g, t, e):
    """Signed vector of the cut determined by removing the tree edge e.

    Edges crossing in the direction of e get +1, the others -1; the entry
    at e itself is always +1.
    """
    if e not in t.tree_edges:
        raise ValueError(f"edge {e} is not a tree edge")
    side = cut_side(g, t, e)
    vec = [0] * g.edge_count
    for eid, a, b in g.edges:
        a_in, b_in = a in side, b in side
        if a_in and not b_in:
            vec[eid - 1] = 1
        elif b_in and not a_in:
            vec[eid - 1] = -1
    return tuple(vec)


def enumerate_spanning_trees(g):
    """All spanning trees, by depth-first include/exclude over the edge list.

    Including an edge joins its endpoints' components; excluding it
    deletes it.  Partial selections are pruned as soon as the remaining
    edges cannot connect the remaining components.  The search keeps its
    own stack, so its depth is not bounded by the recursion limit, and
    explores the include branch first.  The union-find runs without path
    compression (union by size instead), so leaving a branch undoes its
    union in O(1).
    """
    if not is_connected(g):
        raise ValueError("graph is not connected")
    n = g.vertex_count
    cand = g.non_loop_edges()
    parent = list(range(n + 1))
    size = [1] * (n + 1)
    chosen, joins, trees = [], [], []
    stack = [0]  # i: choose among cand[i:]; None: undo the latest union
    while stack:
        idx = stack.pop()
        if idx is None:
            chosen.pop()
            ra, rb = joins.pop()
            parent[ra] = ra
            size[rb] -= size[ra]
            continue
        need = n - 1 - len(chosen)
        if need == 0:
            trees.append(SpanningTree(chosen))
            continue
        if len(cand) - idx < need:
            continue
        _, a, b = g.edge(cand[idx])
        stack.append(idx + 1)  # exclude cand[idx], once the include branch is done
        joined = _union(parent, size, a, b)
        if joined:
            chosen.append(cand[idx])
            joins.append(joined)
            stack += (None, idx + 1)
    return trees


def tree_overlap_counts(g, t):
    """c[i] = number of spanning trees sharing all but i edges with t."""
    require_valid(g, t, force=True)
    r = len(t.tree_edges)
    counts = [0] * (r + 1)
    for tree in enumerate_spanning_trees(g):
        counts[r - len(tree.tree_edges & t.tree_edges)] += 1
    return tuple(counts)


def cycle_space_gf2(g):
    """A GF(2) basis of the binary cycle space, as edge-id bitmasks.

    Uses fundamental cycles of an internal spanning tree; dimension is
    |E| - |V| + 1 for connected input.
    """
    if not is_connected(g):
        raise ValueError("graph is not connected")
    tree = SpanningTree(_forest_edges(g, range(1, g.edge_count + 1)))
    basis = []
    for eid in range(1, g.edge_count + 1):
        if eid in tree.tree_edges:
            continue
        vec = fundamental_cycle(g, tree, eid)
        mask = 0
        for i, c in enumerate(vec):
            if c:
                mask |= 1 << i
        basis.append(mask)
    return basis


def gf2_reduce(basis):
    """Row-reduce a list of bitmasks; returns rows sorted by pivot bit, high first."""
    pivots = {}
    for vec in basis:
        v = vec
        while v:
            top = v.bit_length() - 1
            if top in pivots:
                v ^= pivots[top]
            else:
                pivots[top] = v
                break
    return [pivots[k] for k in sorted(pivots, reverse=True)]


def gf2_in_span(vec, reduced):
    v = vec
    for row in reduced:
        top = row.bit_length() - 1
        if (v >> top) & 1:
            v ^= row
    return v == 0
