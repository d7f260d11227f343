"""Generation of small test families.

connected_bridgeless_multigraphs enumerates, up to isomorphism, every
connected bridgeless multigraph with at most a given number of edges
(loops and parallel edges included); graph_tree_instances pairs each with
all of its spanning trees.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations

from .graphs import OrientedMultigraph, bridges, enumerate_spanning_trees, is_connected


def _canonical_form(n, pairs):
    """Lexicographically least relabeling of an unordered pair multiset."""
    best = None
    for perm in permutations(range(1, n + 1)):
        relabeled = sorted(tuple(sorted((perm[a - 1], perm[b - 1]))) for a, b in pairs)
        key = tuple(relabeled)
        if best is None or key < best:
            best = key
    return best


def connected_bridgeless_multigraphs(max_edges, loopless=False):
    """All connected bridgeless multigraphs with <= max_edges edges, up to iso.

    Edges are oriented low vertex -> high vertex and numbered in sorted
    order, which is harmless: none of the lattice isomorphism classes in
    play depend on the orientation.
    """
    out = []
    seen = set()
    for m in range(1, max_edges + 1):
        for n in range(1, m + 1):
            pool = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)
                    if not (loopless and a == b)]
            for pairs in combinations_with_replacement(pool, m):
                used = {v for p in pairs for v in p}
                if len(used) != n:
                    continue
                g = OrientedMultigraph(
                    n, [(i + 1, a, b) for i, (a, b) in enumerate(sorted(pairs))])
                if not is_connected(g) or bridges(g):
                    continue
                key = (n, _canonical_form(n, pairs))
                if key in seen:
                    continue
                seen.add(key)
                out.append(g)
    return out


def graph_tree_instances(max_edges, loopless=False):
    """(graph, spanning tree) pairs over the bridgeless family."""
    out = []
    for g in connected_bridgeless_multigraphs(max_edges, loopless=loopless):
        for t in enumerate_spanning_trees(g):
            out.append((g, t))
    return out
