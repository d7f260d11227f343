"""Acceptance suite.

Each test covers one acceptance criterion, checks it at its stated
tolerance (everything here is exact), and prints a single pass/fail line;
run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Stated runtime budgets are asserted where given.
"""

import random
import time

from qlat.algebra import (apply_d, distinguished_classes, euler_form,
                          gram_in_basis, k0_gram, k0_gram_inverse,
                          koszul_substitute, simple_in_projectives,
                          vertex_order)
from qlat.bipartite import SignedBipartiteGraph, build_bipartite, dual
from qlat.families import graph_tree_instances
from qlat.graphs import OrientedMultigraph, SpanningTree, validate
from qlat.invariants import (matrix_tree_enum_oracle, q2iso_instance, q_matrix_tree,
                             verify_q2iso_pair)
from qlat.lattices import (SignedPermutation, change_basis, cut_qlattice,
                           decide_iso, flow_qlattice, normalized_det)
from qlat.laurent import LaurentPoly, QTElement
from qlat.matrices import QMatrix
from support import bipartite_split_instances, random_signed_bipartites


def L(*terms):
    return LaurentPoly.from_terms(terms)


def report(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def family_bipartites(max_edges=5):
    out = []
    for g, t in graph_tree_instances(max_edges):
        out.append(build_bipartite(g, t, force=True))
    return out


def test_criterion_1_worked_example():
    start = time.monotonic()
    b = SignedBipartiteGraph([1, 2], [3], {(1, 3): 1, (2, 3): 1})
    one, q = LaurentPoly.one(), LaurentPoly.q_power(1)
    ok = True

    gram = k0_gram(b)
    expected = QMatrix(
        [[QTElement(one), QTElement.zero(), QTElement(q)],
         [QTElement.zero(), QTElement(one), QTElement(q)],
         [QTElement(q), QTElement(q), QTElement(L((0, 1), (2, 2)))]],
        (1, 2, 3), (1, 2, 3))
    ok &= gram == expected

    l1 = simple_in_projectives(b, 1).coords
    l2 = simple_in_projectives(b, 2).coords
    l3 = simple_in_projectives(b, 3).coords
    ok &= l1 == (QTElement(L((0, 1), (2, 1))), QTElement(L((2, 1))),
                 QTElement(L((1, -1))))
    ok &= l2 == (QTElement(L((2, 1))), QTElement(L((0, 1), (2, 1))),
                 QTElement(L((1, -1))))
    ok &= l3 == (QTElement(L((1, -1))), QTElement(L((1, -1))), QTElement(one))

    fams = distinguished_classes(b)
    ok &= euler_form(b, fams["simple"][0], fams["projective"][0]) == \
        QTElement(LaurentPoly.q_power(-2))
    ok &= euler_form(b, fams["simple"][2], fams["projective"][0]) == \
        QTElement(L((-1, -1), (1, 1)))

    qm = QTElement(L((-1, -1), (1, 1)))
    standard = gram_in_basis(b, "standard")
    ok &= standard.entries == (
        (QTElement.one(), QTElement.zero(), QTElement.zero()),
        (QTElement.zero(), QTElement.one(), QTElement.zero()),
        (qm, qm, QTElement.one()))

    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    report(1, "worked-example reproduction", ok)


def test_criterion_2_q_matrix_tree_family():
    start = time.monotonic()
    instances = graph_tree_instances(5)
    ok = len(instances) > 100
    for g, t in instances:
        _, det_q0 = q_matrix_tree(g, t)
        _, det_norm = det_q0.normalize_unit()
        cut_det = normalized_det(cut_qlattice(build_bipartite(g, t, force=True)))
        ok &= det_norm == matrix_tree_enum_oracle(g, t) == cut_det

    k4 = OrientedMultigraph(4, [(1, 1, 2), (2, 1, 3), (3, 1, 4),
                                (4, 2, 3), (5, 2, 4), (6, 3, 4)])
    ok &= q_matrix_tree(k4, SpanningTree({1, 2, 3}))[1] == \
        L((0, 1), (2, 6), (4, 9))
    tri = OrientedMultigraph(3, [(1, 1, 2), (2, 2, 3), (3, 1, 3)])
    ok &= q_matrix_tree(tri, SpanningTree({1, 2}))[1] == L((0, 1), (2, 2))

    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    report(2, "q-matrix-tree three-way agreement", ok)


def _test_bipartites_with_randoms():
    graphs = family_bipartites(5)
    graphs += random_signed_bipartites(seed=777, count=200, max_part0=4, max_part1=4)
    return graphs


def test_criterion_3_glue_determinants():
    ok = True
    count = 0
    for b in _test_bipartites_with_randoms():
        ok &= normalized_det(flow_qlattice(b)) == normalized_det(cut_qlattice(b))
        count += 1
    ok &= count >= 336  # 136 family instances + 200 random sign matrices
    report(3, "flow and cut determinants equal up to units", ok)


def test_criterion_4_classical_specialization():
    from qlat.bipartite import classical_gram

    ok = True
    for b in family_bipartites(5):
        g = k0_gram(b)
        n0 = len(b.part0)
        n = n0 + len(b.part1)
        flow = classical_gram(b, "flow")
        for i in range(n0, n):
            for j in range(n0, n):
                ok &= g[i, j].specialize(q_val=1, t_val=-1) == flow[i - n0, j - n0]
        simple_gram = gram_in_basis(b, "simple")
        cut = classical_gram(b, "cut")
        for i in range(n0):
            for j in range(n0):
                ok &= simple_gram[i, j].specialize(q_val=1, t_val=-1) == cut[i, j]
    report(4, "q=1, t=-1 recovers the integer flow and cut Grams", ok)


def test_criterion_5_unimodularity_and_duality():
    ok = True
    graphs = family_bipartites(4)
    graphs += random_signed_bipartites(seed=555, count=40, max_part0=3, max_part1=3)
    for b in graphs:
        ok &= k0_gram(b).det() == QTElement.one()
        # the resolution classes against the cofactor adjugate of G
        ok &= k0_gram_inverse(b) == k0_gram(b).inverse("unit")

    rng = random.Random(2024)
    pair_target = 1000
    pairs_done = 0
    pool = [b for b in graphs if vertex_order(b)]
    while pairs_done < pair_target:
        b = pool[pairs_done % len(pool)]
        n = len(vertex_order(b))

        def rand_qt():
            return QTElement(
                LaurentPoly.from_terms((k, rng.randint(-2, 2)) for k in range(-1, 2)),
                LaurentPoly.from_terms((k, rng.randint(-2, 2)) for k in range(-1, 2)))

        x = tuple(rand_qt() for _ in range(n))
        y = tuple(rand_qt() for _ in range(n))
        dx, dy = apply_d(b, x), apply_d(b, y)
        ok &= apply_d(b, dx) == x
        ok &= euler_form(b, x, y) == euler_form(b, dy, dx)
        pairs_done += 1
    report(5, "unimodularity, inverse-Gram simples, duality involution", ok)


def test_criterion_6_koszul_transport():
    instances = bipartite_split_instances(seed=99, per_split=19, max_vertices=6)
    ok = len(instances) >= 500
    for b in instances:
        db = dual(b)
        simple_gram = gram_in_basis(b, "simple")
        dual_gram = k0_gram(db)
        order_b, order_d = vertex_order(b), vertex_order(db)
        pos = {v: i for i, v in enumerate(order_d)}
        for ui, u in enumerate(order_b):
            for vi, v in enumerate(order_b):
                ok &= simple_gram[ui, vi] == \
                    koszul_substitute(dual_gram[pos[u], pos[v]])
    report(6, "Koszul pairing transport, entrywise on full Grams", ok)


def test_criterion_7_rigidity_and_q2iso():
    start = time.monotonic()
    rng = random.Random(4321)
    ok = True

    # 100 random signed-permutation scrambles per test lattice
    lattice_pool = []
    for g, t in graph_tree_instances(4, loopless=True):
        b = build_bipartite(g, t)
        lattice_pool.append(flow_qlattice(b))
        lattice_pool.append(cut_qlattice(b))
    one = LaurentPoly.one()
    for lat in lattice_pool:
        n = lat.rank
        for _ in range(100):
            perm = list(range(n))
            rng.shuffle(perm)
            sp = SignedPermutation(tuple(perm),
                                   tuple(rng.choice((1, -1)) for _ in range(n)))
            scrambled = change_basis(lat, sp)
            w = decide_iso(lat, scrambled)
            if w is None:
                ok = False
                continue
            pm = w.matrix(one)
            ok &= (pm.star() * lat.gram * pm).entries == scrambled.gram.entries

    # three-way agreement over the full loopless 2-edge-connected family
    instances = [(g, t) for g, t in graph_tree_instances(5, loopless=True)
                 if validate(g, t).ok]
    records = [q2iso_instance(g, t) for g, t in instances]
    all_false_seen = False
    for a in range(len(instances)):
        for bdx in range(a, len(instances)):
            g1, t1 = instances[a]
            g2, t2 = instances[bdx]
            rep = verify_q2iso_pair(records[a], records[bdx])
            ok &= rep.agree
            if (g1 is g2 and t1 != t2 and not rep.flow_iso
                    and not rep.two_iso and not rep.cut_iso):
                all_false_seen = True
    ok &= all_false_seen

    elapsed = time.monotonic() - start
    ok &= elapsed < 300.0
    report(7, "rigidity witnesses and q-2-isomorphism cross-validation", ok)


def test_criterion_8_duality_of_constructions():
    ok = True
    for b in _test_bipartites_with_randoms():
        d = dual(b)
        ok &= flow_qlattice(b).gram.entries == cut_qlattice(d).gram.entries
        ok &= cut_qlattice(b).gram.entries == flow_qlattice(d).gram.entries
    report(8, "flow of b equals cut of dual(b) entrywise", ok)
