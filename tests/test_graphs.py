import random

import pytest

from qlat.families import connected_bridgeless_multigraphs, graph_tree_instances
from qlat.graphs import (OrientedMultigraph, SpanningTree, Violation, bridges,
                         cycle_space_gf2, enumerate_spanning_trees,
                         fundamental_cut, fundamental_cycle, is_connected,
                         tree_overlap_counts, validate)


def triangle():
    return OrientedMultigraph(3, [(1, 1, 2), (2, 2, 3), (3, 1, 3)])


def theta():
    return OrientedMultigraph(2, [(1, 1, 2), (2, 1, 2), (3, 1, 2)])


def k4_star():
    g = OrientedMultigraph(4, [(1, 1, 2), (2, 1, 3), (3, 1, 4),
                               (4, 2, 3), (5, 2, 4), (6, 3, 4)])
    return g, SpanningTree({1, 2, 3})


def test_validate_examples():
    assert validate(triangle(), SpanningTree({1, 2})).ok
    rep = validate(OrientedMultigraph(2, [(1, 1, 2)]), SpanningTree({1}))
    assert not rep.ok and rep.codes() == {"bridge"}
    rep = validate(triangle(), SpanningTree({1}))
    assert "tree_size" in rep.codes()
    rep = validate(triangle(), SpanningTree({1, 9}))
    assert "tree_edge_range" in rep.codes()
    loopy = OrientedMultigraph(2, [(1, 1, 2), (2, 1, 2), (3, 1, 1)])
    rep = validate(loopy, SpanningTree({3}))
    assert "tree_loop" in rep.codes()


def test_validate_reports_all_violations():
    g = OrientedMultigraph(4, [(1, 1, 2), (2, 3, 4)])
    rep = validate(g, SpanningTree({1}))
    assert {"disconnected", "bridge", "tree_size"} <= rep.codes()


def test_fundamental_cycle_examples():
    g, t = triangle(), SpanningTree({1, 2})
    assert fundamental_cycle(g, t, 3) == (-1, -1, 1)
    loopy = OrientedMultigraph(2, [(1, 1, 2), (2, 1, 2), (3, 1, 1)])
    assert fundamental_cycle(loopy, SpanningTree({1}), 3) == (0, 0, 1)
    assert fundamental_cycle(theta(), SpanningTree({1}), 2) == (-1, 1, 0)
    with pytest.raises(ValueError):
        fundamental_cycle(g, t, 1)


def test_fundamental_cut_examples():
    g, t = triangle(), SpanningTree({1, 2})
    assert fundamental_cut(g, t, 1) == (1, 0, 1)
    two = OrientedMultigraph(2, [(1, 1, 2)])
    assert fundamental_cut(two, SpanningTree({1}), 1) == (1,)
    # sign duality spot check: edge 1 in C3 vs edge 3 in K1
    assert fundamental_cycle(g, t, 3)[0] == -fundamental_cut(g, t, 1)[2]
    with pytest.raises(ValueError):
        fundamental_cut(g, t, 3)


def test_cut_entry_at_own_edge_is_positive():
    for g, t in graph_tree_instances(4):
        for e in t.tree_edges:
            assert fundamental_cut(g, t, e)[e - 1] == 1
        for f in range(1, g.edge_count + 1):
            if f not in t.tree_edges:
                assert fundamental_cycle(g, t, f)[f - 1] == 1


def test_enumerate_spanning_trees_counts():
    assert len(enumerate_spanning_trees(triangle())) == 3
    g, _ = k4_star()
    trees = enumerate_spanning_trees(g)
    assert len(trees) == 16
    assert len(set(trees)) == 16
    path = OrientedMultigraph(3, [(1, 1, 2), (2, 2, 3)])
    assert enumerate_spanning_trees(path) == [SpanningTree({1, 2})]
    with pytest.raises(ValueError):
        enumerate_spanning_trees(OrientedMultigraph(2, []))


def recursive_spanning_trees(g):
    """The recursive include/exclude search: the order oracle."""
    from qlat.graphs import _root

    cand = g.non_loop_edges()
    trees = []

    def rec(idx, parent, chosen):
        need = g.vertex_count - 1 - len(chosen)
        if need == 0:
            trees.append(SpanningTree(chosen))
            return
        if len(cand) - idx < need:
            return
        _, a, b = g.edge(cand[idx])
        ra, rb = _root(parent, a), _root(parent, b)
        if ra != rb:
            child = list(parent)
            child[ra] = rb
            rec(idx + 1, child, chosen + [cand[idx]])
        rec(idx + 1, parent, chosen)

    rec(0, list(range(g.vertex_count + 1)), [])
    return trees


def test_enumerate_spanning_trees_order_matches_recursion():
    graphs = connected_bridgeless_multigraphs(5) + [triangle(), theta(), k4_star()[0]]
    for g in graphs:
        assert enumerate_spanning_trees(g) == recursive_spanning_trees(g)


def test_tree_overlap_counts_examples():
    assert tree_overlap_counts(triangle(), SpanningTree({1, 2})) == (1, 2, 0)
    g, t = k4_star()
    counts = tree_overlap_counts(g, t)
    assert counts == (1, 6, 9, 0)
    assert sum(counts) == 16
    single = OrientedMultigraph(1, [])
    assert tree_overlap_counts(single, SpanningTree(set())) == (1,)


def test_tree_overlap_totals_on_family():
    for g, t in graph_tree_instances(5):
        counts = tree_overlap_counts(g, t)
        assert counts[0] == 1
        assert sum(counts) == len(enumerate_spanning_trees(g))
        assert len(counts) == len(t.tree_edges) + 1


def test_cycle_space_dimensions():
    assert len(cycle_space_gf2(triangle())) == 1
    assert cycle_space_gf2(triangle())[0] == 0b111
    assert len(cycle_space_gf2(theta())) == 2
    path = OrientedMultigraph(3, [(1, 1, 2), (2, 2, 3)])
    assert cycle_space_gf2(path) == []
    for g, _ in graph_tree_instances(5):
        assert len(cycle_space_gf2(g)) == g.edge_count - g.vertex_count + 1


def test_sign_duality_and_orthogonality_exhaustive():
    # every graph with <= 5 edges, every tree: C/K sign opposition and
    # cut-cycle orthogonality
    for g, t in graph_tree_instances(5):
        cotree = [e for e in range(1, g.edge_count + 1) if e not in t.tree_edges]
        for i in t.tree_edges:
            cut = fundamental_cut(g, t, i)
            for j in cotree:
                cyc = fundamental_cycle(g, t, j)
                assert cyc[i - 1] == -cut[j - 1]
                assert sum(a * b for a, b in zip(cut, cyc)) == 0


def test_cycle_supported_on_tree_plus_f():
    for g, t in graph_tree_instances(5):
        for f in range(1, g.edge_count + 1):
            if f in t.tree_edges:
                continue
            cyc = fundamental_cycle(g, t, f)
            for eid in range(1, g.edge_count + 1):
                if cyc[eid - 1] and eid != f:
                    assert eid in t.tree_edges
        for e in t.tree_edges:
            cut = fundamental_cut(g, t, e)
            inside = [i for i in t.tree_edges if cut[i - 1]]
            assert inside == [e]


def test_family_is_bridgeless_connected_and_deduplicated():
    fam = connected_bridgeless_multigraphs(4)
    for g in fam:
        assert is_connected(g) and not bridges(g)
    # digon, triangle, theta present
    shapes = {(g.vertex_count, g.edge_count) for g in fam}
    assert (2, 2) in shapes and (3, 3) in shapes and (2, 3) in shapes


def test_graph_constructor_rejects_bad_ids():
    with pytest.raises(ValueError):
        OrientedMultigraph(2, [(1, 1, 2), (3, 2, 1)])
    with pytest.raises(ValueError):
        OrientedMultigraph(2, [(1, 1, 5)])


# -- brute-force oracle for bridges and validate ------------------------------


def _connected_oracle(n, pairs):
    """Grow vertex 1's component edge by edge until nothing changes."""
    comp = {1}
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            if (a in comp) != (b in comp):
                comp |= {a, b}
                changed = True
    return len(comp) == n


def _bridges_oracle(g):
    """Delete each non-loop edge in turn and test connectivity."""
    pairs = [(a, b) for _, a, b in g.edges]
    return [e for e, a, b in g.edges
            if a != b and not _connected_oracle(g.vertex_count, pairs[:e - 1] + pairs[e:])]


def _validate_oracle(g, t):
    n, m = g.vertex_count, g.edge_count
    out = []
    if not _connected_oracle(n, [(a, b) for _, a, b in g.edges]):
        out.append(Violation("disconnected", "graph is not connected"))
    out += [Violation("bridge", f"edge {e} is a bridge") for e in _bridges_oracle(g)]
    ids = sorted(t.tree_edges)
    if any(not 1 <= e <= m for e in ids):
        bad = [e for e in ids if not 1 <= e <= m]
        out.append(Violation("tree_edge_range", f"tree edges {bad} are not edge ids"))
        return tuple(out)
    loops = [e for e in ids if g.edge(e)[1] == g.edge(e)[2]]
    if loops:
        out.append(Violation("tree_loop", f"tree contains loop edges {loops}"))
    if len(ids) != n - 1:
        out.append(Violation("tree_size", f"tree has {len(ids)} edges, expected {n - 1}"))
    elif not loops and not _connected_oracle(n, [g.edge(e)[1:] for e in ids]):
        # n - 1 edges that connect all n vertices form a spanning tree
        out.append(Violation("tree_not_spanning", "tree edges do not form a spanning tree"))
    return tuple(out)


def _random_multigraph_and_tree(rng):
    n = rng.randint(1, 6)
    m = rng.randint(0, 9)
    g = OrientedMultigraph(n, [(e, rng.randint(1, n), rng.randint(1, n))
                               for e in range(1, m + 1)])
    size = n - 1 if rng.random() < 0.7 else rng.randint(0, n)
    tree = rng.sample(range(1, m + 2), min(size, m + 1))
    return g, SpanningTree(tree)


def test_bridges_and_validate_match_brute_force_on_random_multigraphs():
    rng = random.Random(2026)
    seen = set()
    for _ in range(3000):
        g, t = _random_multigraph_and_tree(rng)
        assert bridges(g) == _bridges_oracle(g), g
        report = validate(g, t)
        assert report.violations == _validate_oracle(g, t), (g, t)
        seen |= report.codes()
        pairs = [tuple(sorted((a, b))) for _, a, b in g.edges]
        if any(a == b for a, b in pairs):
            seen.add("has_loop")
        if len(set(pairs)) < len(pairs):
            seen.add("has_parallel")
        if is_connected(g) and not bridges(g) and g.edge_count:
            seen.add("bridgeless")
    # the sample exercises every branch of both routines
    assert seen == {"disconnected", "bridge", "tree_edge_range", "tree_loop",
                    "tree_size", "tree_not_spanning", "has_loop", "has_parallel",
                    "bridgeless"}


def test_bridges_on_disconnected_graph_is_every_non_loop_edge():
    g = OrientedMultigraph(4, [(1, 1, 2), (2, 1, 2), (3, 3, 3), (4, 3, 4), (5, 4, 3)])
    assert not is_connected(g)
    assert bridges(g) == [1, 2, 4, 5]
