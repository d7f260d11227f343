import hashlib
import random
from itertools import combinations_with_replacement, permutations

import pytest

from qlat.families import (_canonical_form, _iso_key, connected_bridgeless_multigraphs,
                           graph_tree_instances)
from qlat.graphs import OrientedMultigraph, is_connected

import support


def _listed(graphs):
    return [(g.vertex_count, g.edges) for g in graphs]


@pytest.mark.parametrize("loopless", [False, True])
def test_augmentation_matches_generate_then_dedup(loopless):
    """The canonical-augmentation list equals the old generator's, in order."""
    oracle = _listed(support.connected_bridgeless_multigraphs(6, loopless=loopless))
    for n in range(1, 7):
        assert _listed(connected_bridgeless_multigraphs(n, loopless=loopless)) == [
            (v, edges) for v, edges in oracle if len(edges) <= n]


def _relabel(pairs, perm):
    return tuple(sorted(tuple(sorted((perm[a - 1], perm[b - 1]))) for a, b in pairs))


def _zero_based(pairs):
    return tuple((a - 1, b - 1) for a, b in pairs)


def test_iso_key_is_complete_on_every_connected_multigraph_up_to_5_edges():
    """Equal keys exactly when _canonical_form agrees, bridged graphs included."""
    labelled = []
    for m in range(1, 6):
        for n in range(1, m + 2):
            pool = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
            for pairs in combinations_with_replacement(pool, m):
                if (len({v for p in pairs for v in p}) == n and is_connected(
                        OrientedMultigraph(n, [(i, a, b) for i, (a, b) in enumerate(pairs, 1)]))):
                    labelled.append((n, pairs))
    # every relabelling of a graph is in the list and shares its canonical
    # form, so each form is taken once per class
    canon = {}
    for n, pairs in labelled:
        if pairs not in canon:
            form = _canonical_form(n, pairs)
            for perm in permutations(range(1, n + 1)):
                canon[_relabel(pairs, perm)] = form
    assert len(canon) == len(labelled) == 3721
    keys = {pairs: _iso_key(n, _zero_based(pairs)) for n, pairs in labelled}
    assert len(set(canon.values())) == len(set(keys.values())) == 142
    assert len({(canon[p], keys[p]) for p in canon}) == 142


def test_iso_key_ignores_vertex_labels_and_edge_order():
    rng = random.Random(19)
    for g in connected_bridgeless_multigraphs(7):
        n = g.vertex_count
        pairs = [(a, b) for _, a, b in g.edges]
        key = _iso_key(n, _zero_based(pairs))
        for _ in range(20):
            perm = rng.sample(range(1, n + 1), n)
            moved = [(perm[a - 1], perm[b - 1]) for a, b in pairs]
            rng.shuffle(moved)
            assert _iso_key(n, _zero_based(moved)) == key


def test_family7_is_pinned():
    """Counts cross-checked against the generate-then-dedup generator."""
    instances = graph_tree_instances(7)
    listed = [(g.vertex_count, g.edges, sorted(t.tree_edges)) for g, t in instances]
    graphs = list(dict.fromkeys((v, edges) for v, edges, _ in listed))
    assert (len(graphs), len(instances)) == (274, 2296)
    assert hashlib.sha256(repr(listed).encode()).hexdigest()[:16] == "47db2063b1d1fbd4"
    loopless = _listed(connected_bridgeless_multigraphs(7, loopless=True))
    assert loopless == [(v, edges) for v, edges in graphs if all(a != b for _, a, b in edges)]
    assert len(loopless) == 94
