import random

import pytest

from qlat.bipartite import (SignedBipartiteGraph, b_cut, b_cycle, build_bipartite,
                            classical_gram, dual, vec_dot)
from qlat.families import graph_tree_instances
from qlat.graphs import OrientedMultigraph, SpanningTree
from support import random_signed_bipartite, switch_vertex


def triangle_pair():
    g = OrientedMultigraph(3, [(1, 1, 2), (2, 2, 3), (3, 1, 3)])
    return g, SpanningTree({1, 2})


def test_build_bipartite_triangle():
    b = build_bipartite(*triangle_pair())
    assert b.part0 == (1, 2) and b.part1 == (3,)
    assert b.sign(1, 3) == -1 and b.sign(2, 3) == -1


def test_build_bipartite_reversed_edge():
    g = OrientedMultigraph(3, [(1, 1, 2), (2, 2, 3), (3, 3, 1)])
    b = build_bipartite(g, SpanningTree({1, 2}))
    assert b.sign(1, 3) == 1 and b.sign(2, 3) == 1


def test_loop_gives_isolated_vertex():
    g = OrientedMultigraph(2, [(1, 1, 2), (2, 1, 2), (3, 1, 1)])
    b = build_bipartite(g, SpanningTree({1}))
    assert b.neighbors(3) == ()


def test_build_rejects_invalid_tree():
    g, _ = triangle_pair()
    with pytest.raises(ValueError):
        build_bipartite(g, SpanningTree({1}))


def test_build_force_tolerates_bridges_only():
    bridge = OrientedMultigraph(2, [(1, 1, 2)])
    with pytest.raises(ValueError):
        build_bipartite(bridge, SpanningTree({1}))
    b = build_bipartite(bridge, SpanningTree({1}), force=True)
    assert b.part0 == (1,) and b.part1 == ()


def test_dual_involution_and_signs():
    b = build_bipartite(*triangle_pair())
    d = dual(b)
    assert d.part0 == (3,) and d.part1 == (1, 2)
    assert d.sign(3, 1) == 1 and d.sign(3, 2) == 1
    assert dual(d) == b
    empty = SignedBipartiteGraph([1], [2], {})
    assert dual(empty).part0 == (2,)


def test_b_cycle_and_b_cut_examples():
    b = build_bipartite(*triangle_pair())
    assert b_cycle(b, 3) == {3: 1, 1: -1, 2: -1}
    assert b_cut(b, 1) == {1: 1, 3: 1}
    iso = SignedBipartiteGraph([1], [2, 3], {(1, 2): 1})
    assert b_cycle(iso, 3) == {3: 1}
    with pytest.raises(ValueError):
        b_cycle(b, 1)
    with pytest.raises(ValueError):
        b_cut(b, 3)


def test_classical_gram_examples():
    b = build_bipartite(*triangle_pair())
    assert classical_gram(b, "flow").entries == ((3,),)
    assert classical_gram(b, "cut").entries == ((2, 1), (1, 2))
    empty_e1 = SignedBipartiteGraph([1, 2], [], {})
    assert classical_gram(empty_e1, "flow").rows == 0


def test_gram_duality_and_orthogonality_random():
    rng = random.Random(17)
    for _ in range(100):
        b = random_signed_bipartite(rng, rng.randint(0, 4), rng.randint(0, 4))
        d = dual(b)
        assert classical_gram(b, "flow").entries == classical_gram(d, "cut").entries
        assert classical_gram(b, "cut").entries == classical_gram(d, "flow").entries
        for i in b.part0:
            for j in b.part1:
                assert vec_dot(b_cycle(b, j), b_cut(b, i)) == 0


def test_switch_vertex():
    b = build_bipartite(*triangle_pair())
    sw = switch_vertex(b, 3)
    assert sw.sign(1, 3) == 1 and sw.sign(2, 3) == 1
    assert switch_vertex(sw, 3) == b
    iso = SignedBipartiteGraph([1], [2, 3], {(1, 2): 1})
    assert switch_vertex(iso, 3) == iso
    with pytest.raises(ValueError):
        switch_vertex(b, 99)


def test_switch_vertex_preserves_gram_determinants():
    rng = random.Random(18)
    for _ in range(50):
        b = random_signed_bipartite(rng, rng.randint(1, 3), rng.randint(1, 3))
        v = rng.choice(b.part0 + b.part1)
        sw = switch_vertex(b, v)
        for side in ("flow", "cut"):
            g1, g2 = classical_gram(b, side), classical_gram(sw, side)
            if g1.rows:
                assert g1.det() == g2.det()


def test_switch_vertex_conjugates_grams_by_sign_diagonal():
    from qlat.matrices import QMatrix
    rng = random.Random(19)
    for _ in range(40):
        b = random_signed_bipartite(rng, rng.randint(1, 3), rng.randint(1, 3))
        v = rng.choice(b.part0 + b.part1)
        sw = switch_vertex(b, v)
        for side, labels in (("flow", b.part1), ("cut", b.part0)):
            g1, g2 = classical_gram(b, side), classical_gram(sw, side)
            diag = QMatrix([[(-1 if labels[i] == v else 1) if i == j else 0
                             for j in range(len(labels))]
                            for i in range(len(labels))])
            assert (diag * g1 * diag).entries == g2.entries


def test_bipartite_vectors_match_graph_vectors():
    from qlat.graphs import fundamental_cut, fundamental_cycle
    for g, t in graph_tree_instances(5):
        b = build_bipartite(g, t, force=True)
        for j in b.part1:
            cyc = fundamental_cycle(g, t, j)
            vec = b_cycle(b, j)
            for eid in range(1, g.edge_count + 1):
                expected = cyc[eid - 1] if (eid in t.tree_edges or eid == j) else 0
                assert vec.get(eid, 0) == expected
        for i in b.part0:
            cut = fundamental_cut(g, t, i)
            vec = b_cut(b, i)
            for eid in range(1, g.edge_count + 1):
                expected = cut[eid - 1] if (eid not in t.tree_edges or eid == i) else 0
                assert vec.get(eid, 0) == expected


def test_planar_dual_pair_matches_bipartite_dual():
    # the theta graph and the triangle are planar duals with complementary
    # trees; under compatible orientations the bipartite graph of the dual
    # pair is exactly the flipped-sign dual
    theta = OrientedMultigraph(2, [(1, 1, 2), (2, 1, 2), (3, 1, 2)])
    b_theta = build_bipartite(theta, SpanningTree({1}))
    triangle = OrientedMultigraph(3, [(1, 1, 2), (2, 2, 3), (3, 3, 1)])
    b_tri = build_bipartite(triangle, SpanningTree({2, 3}))
    assert dual(b_theta) == b_tri
    # and fundamental cuts of one side are fundamental cycles of the other
    from qlat.graphs import fundamental_cut, fundamental_cycle
    assert fundamental_cut(theta, SpanningTree({1}), 1) == (1, 1, 1)
    assert fundamental_cycle(triangle, SpanningTree({2, 3}), 1) == (1, 1, 1)
    assert b_cut(b_theta, 1) == {1: 1, 2: 1, 3: 1}
    assert b_cycle(b_tri, 1) == {1: 1, 2: 1, 3: 1}


def test_constructor_validation():
    with pytest.raises(ValueError):
        SignedBipartiteGraph([1], [1], {})
    with pytest.raises(ValueError):
        SignedBipartiteGraph([1], [2], {(1, 2): 2})
    with pytest.raises(ValueError):
        SignedBipartiteGraph([1], [2], {(2, 1): 1})
    # zero entries are dropped, not stored
    b = SignedBipartiteGraph([1], [2], {(1, 2): 0})
    assert b.sign(1, 2) == 0 and not b.signs


def test_signs_are_read_only():
    b = SignedBipartiteGraph([1, 2], [3], {(1, 3): 1, (2, 3): -1})
    h = hash(b)
    with pytest.raises(TypeError):
        b.signs[(1, 3)] = -1
    with pytest.raises(AttributeError):
        b.signs = {}
    assert b.sign(1, 3) == 1 and hash(b) == h
    assert b == SignedBipartiteGraph([1, 2], [3], {(2, 3): -1, (1, 3): 1})
