"""Generation of small test families.

connected_bridgeless_multigraphs enumerates, up to isomorphism, every
connected bridgeless multigraph with at most a given number of edges
(loops and parallel edges included); graph_tree_instances pairs each with
all of its spanning trees.

The classes come from canonical augmentation (B. D. McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26 (1998) 306-324).  Level 1 is the
edge on two vertices, plus the one-vertex loop unless loopless.  Level m
adds one edge to each connected class of level m - 1 in every way: a
loop, an edge between two existing vertices, or a pendant edge to a new
vertex.  It keeps one graph per isomorphism key (_iso_key).  Every
connected graph with m >= 2 edges is reached.  If it has a non-bridge,
deleting it leaves a connected graph with m - 1 edges.  Otherwise it is a
tree, and deleting a leaf edge with its leaf leaves a smaller tree.

Output contract: the bridgeless classes, each as its lexicographically
least labelling (_canonical_form), sorted by (edge count, vertex count,
labelling).  Edges are numbered in that order.
"""

from __future__ import annotations

from itertools import chain, groupby, permutations, product

from .graphs import OrientedMultigraph, bridges, enumerate_spanning_trees


def _canonical_form(n, pairs):
    """Lexicographically least relabeling of an unordered pair multiset."""
    best = None
    for perm in permutations(range(1, n + 1)):
        relabeled = sorted(tuple(sorted((perm[a - 1], perm[b - 1]))) for a, b in pairs)
        key = tuple(relabeled)
        if best is None or key < best:
            best = key
    return best


def _iso_key(n, pairs):
    """A complete isomorphism key of a multigraph on vertices 0..n-1.

    The least relabelling of pairs among the vertex orders that sort a
    colour invariant (degree, loop count, sorted neighbour degrees).  An
    isomorphism carries colours to colours, so isomorphic graphs admit
    the same relabelled pair lists and share the least one; the key is
    itself a labelling of the graph, so equal keys mean isomorphic graphs.
    """
    deg = [0] * n
    loops = [0] * n
    nbrs = [[] for _ in range(n)]
    for a, b in pairs:
        deg[a] += 1
        deg[b] += 1
        if a == b:
            loops[a] += 1
        else:
            nbrs[a].append(b)
            nbrs[b].append(a)
    colour = [(deg[v], loops[v], sorted(deg[w] for w in nbrs[v])) for v in range(n)]
    order = sorted(range(n), key=colour.__getitem__)
    classes = [tuple(cls) for _, cls in groupby(order, key=colour.__getitem__)]
    label = [0] * n
    best = None
    for choice in product(*map(permutations, classes)):
        for pos, v in enumerate(chain.from_iterable(choice)):
            label[v] = pos
        form = sorted((label[a], label[b]) if label[a] <= label[b] else (label[b], label[a])
                      for a, b in pairs)
        if best is None or form < best:
            best = form
    return n, tuple(best)


def _augmentations(n, pairs, loopless):
    """Every graph with one more edge: a loop, a link or a pendant edge."""
    for a in range(n):
        for b in range(a + 1 if loopless else a, n):
            yield n, pairs + ((a, b),)
        yield n + 1, pairs + ((a, n),)


def _graph(n, pairs):
    return OrientedMultigraph(n, [(i + 1, a, b) for i, (a, b) in enumerate(pairs)])


def connected_bridgeless_multigraphs(max_edges, loopless=False):
    """All connected bridgeless multigraphs with <= max_edges edges, up to iso.

    Edges are oriented low vertex -> high vertex and numbered in sorted
    order, which is harmless: none of the lattice isomorphism classes in
    play depend on the orientation.
    """
    level = [(2, ((0, 1),))] + ([] if loopless else [(1, ((0, 0),))])
    found = []
    for m in range(1, max_edges + 1):
        if m > 1:
            level = list(dict.fromkeys(_iso_key(*child) for n, pairs in level
                                       for child in _augmentations(n, pairs, loopless)))
        for n, pairs in level:
            one_based = [(a + 1, b + 1) for a, b in pairs]
            if not bridges(_graph(n, one_based)):
                found.append((m, n, _canonical_form(n, one_based)))
    return [_graph(n, form) for _, n, form in sorted(found)]


def graph_tree_instances(max_edges, loopless=False):
    """(graph, spanning tree) pairs over the bridgeless family."""
    out = []
    for g in connected_bridgeless_multigraphs(max_edges, loopless=loopless):
        for t in enumerate_spanning_trees(g):
            out.append((g, t))
    return out
