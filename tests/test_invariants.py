import random

import pytest

from qlat import algebra
from qlat.bipartite import build_bipartite
from qlat.families import graph_tree_instances
from qlat.graphs import OrientedMultigraph, SpanningTree, enumerate_spanning_trees
from qlat.invariants import (bipartite_checks, cut_basis_change, flow_cut_duality_ok,
                             instance_checks, koszul_identity_ok,
                             matrix_tree_enum_oracle, q2iso_instance, q_incidence,
                             q_matrix_tree, two_iso_search, verify_q2iso_pair)
from qlat.lattices import cut_qlattice, decide_iso, flow_qlattice, normalized_det
from qlat.laurent import LaurentPoly
from qlat.matrices import QMatrix
from support import (find_flow_cut_split_pair, hom_rule, random_signed_bipartite,
                     switch_vertex)


def L(*terms):
    return LaurentPoly.from_terms(terms)


def triangle():
    return OrientedMultigraph(3, [(1, 1, 2), (2, 2, 3), (3, 1, 3)]), SpanningTree({1, 2})


def theta():
    return OrientedMultigraph(2, [(1, 1, 2), (2, 1, 2), (3, 1, 2)]), SpanningTree({1})


def k4_star():
    return (OrientedMultigraph(4, [(1, 1, 2), (2, 1, 3), (3, 1, 4),
                                   (4, 2, 3), (5, 2, 4), (6, 3, 4)]),
            SpanningTree({1, 2, 3}))


def matrix_tree_agrees(g, t):
    """det Q0, normalized, equals the enumeration and cut-lattice oracles."""
    _, det_q0 = q_matrix_tree(g, t)
    _, det_norm = det_q0.normalize_unit()
    cut_det = normalized_det(cut_qlattice(build_bipartite(g, t, force=True)))
    return det_norm == matrix_tree_enum_oracle(g, t) == cut_det


def q2iso_pair(g1, t1, g2, t2):
    return verify_q2iso_pair(q2iso_instance(g1, t1), q2iso_instance(g2, t2))


def test_q_incidence_triangle():
    g, t = triangle()
    d = q_incidence(g, t)
    one, q, z = LaurentPoly.one(), LaurentPoly.q_power(1), LaurentPoly.zero()
    assert d.entries == ((-one, z, -q), (one, -one, z), (z, one, q))
    assert d.col_labels == (1, 2, 3)


def test_q_incidence_loop_column_is_zero():
    g = OrientedMultigraph(2, [(1, 1, 2), (2, 1, 2), (3, 1, 1)])
    d = q_incidence(g, SpanningTree({1}))
    assert all(x.is_zero() for x in d.column(2))


def test_q_incidence_rows_sum_to_zero():
    # rank is the tree size: rows sum to zero while tree minors are units
    for g, t in graph_tree_instances(4):
        d = q_incidence(g, t)
        for j in range(g.edge_count):
            total = LaurentPoly.zero()
            for x in d.column(j):
                total = total + x
            assert total.is_zero()


def test_matrix_tree_triangle():
    g, t = triangle()
    q0, det_q0 = q_matrix_tree(g, t)
    assert q0.entries == ((L((0, 1), (2, 1)), -LaurentPoly.one()),
                          (-LaurentPoly.one(), LaurentPoly.from_int(2)))
    assert det_q0 == L((0, 1), (2, 2))
    assert matrix_tree_enum_oracle(g, t) == L((0, 1), (2, 2))
    assert normalized_det(cut_qlattice(build_bipartite(g, t))) == L((0, 1), (2, 2))
    assert matrix_tree_agrees(g, t)


def test_matrix_tree_k4_star():
    g, t = k4_star()
    _, det_q0 = q_matrix_tree(g, t)
    assert det_q0 == L((0, 1), (2, 6), (4, 9))
    assert matrix_tree_agrees(g, t)


def test_matrix_tree_k5_star():
    # star tree at vertex 1 of the complete graph on five vertices; the
    # overlap counts come from inclusion-exclusion over generalized Cayley
    # counts (trees of K5 containing k fixed star edges and no others):
    # c = (1, 12, 48, 64, 0), summing to Cayley's 5^3 = 125
    edges = []
    eid = 0
    for a in range(1, 6):
        for bb in range(a + 1, 6):
            eid += 1
            edges.append((eid, a, bb))
    k5 = OrientedMultigraph(5, edges)
    star = SpanningTree({e for e, a, bb in edges if a == 1})
    _, det_q0 = q_matrix_tree(k5, star)
    expected = L((0, 1), (2, 12), (4, 48), (6, 64))
    assert det_q0 == expected
    assert matrix_tree_enum_oracle(k5, star) == expected
    assert matrix_tree_agrees(k5, star)
    assert sum(c for _, c in expected.terms()) == 125


def test_matrix_tree_tree_graph():
    single = OrientedMultigraph(1, [])
    _, det_q0 = q_matrix_tree(single, SpanningTree(set()))
    assert det_q0 == LaurentPoly.one() and matrix_tree_agrees(single, SpanningTree(set()))


def test_enum_oracle_examples():
    g, t = triangle()
    assert matrix_tree_enum_oracle(g, t) == L((0, 1), (2, 2))
    g, t = theta()
    assert matrix_tree_enum_oracle(g, t) == L((0, 1), (2, 2))


def test_matrix_tree_family_three_way_agreement():
    for g, t in graph_tree_instances(5):
        assert matrix_tree_agrees(g, t), (g, t)


def test_q_incidence_rank_and_minor_facts():
    # det D_J = 0 iff J is dependent, else +-q^(non-tree count), over <= 5 edges
    from itertools import combinations
    for g, t in graph_tree_instances(5):
        if g.vertex_count == 1:
            continue
        d = q_incidence(g, t)
        d0 = d.submatrix(range(g.vertex_count - 1), range(g.edge_count))
        r = g.vertex_count - 1
        trees = set(tr.tree_edges for tr in enumerate_spanning_trees(g))
        col_of = {eid: idx for idx, eid in enumerate(d.col_labels)}
        for subset in combinations(range(1, g.edge_count + 1), r):
            sub = d0.submatrix(range(r), [col_of[e] for e in subset])
            det = sub.det()
            if frozenset(subset) in trees:
                u = det.unit_value()
                assert u is not None
                assert u[1] == len([e for e in subset if e not in t.tree_edges])
            else:
                assert det.is_zero()


def test_all_cofactors_of_q_equal():
    for g, t in graph_tree_instances(4):
        if g.vertex_count < 2:
            continue
        d = q_incidence(g, t)
        full_q = d * d.transpose()
        dets = []
        for drop in range(g.vertex_count):
            rows = [i for i in range(g.vertex_count) if i != drop]
            dets.append(full_q.submatrix(rows, rows).det())
        assert len(set(dets)) == 1


def test_cut_basis_change_examples():
    g, t = triangle()
    tm = cut_basis_change(g, t)
    assert tm.entries == ((1, 1), (0, 1))
    q0, _ = q_matrix_tree(g, t)
    assert (tm.transpose() * q0 * tm).entries == \
        cut_qlattice(build_bipartite(g, t)).gram.entries
    # a tree graph: T^t Q0 T is the identity cut Gram
    path = OrientedMultigraph(3, [(1, 1, 2), (2, 2, 3)])
    pt = SpanningTree({1, 2})
    tm = cut_basis_change(path, pt)
    q0, _ = q_matrix_tree(path, pt)
    prod = tm.transpose() * q0 * tm
    assert prod.entries == cut_qlattice(build_bipartite(path, pt, force=True)).gram.entries


def test_cut_basis_change_one_by_one():
    # single tree edge plus a parallel non-tree edge
    g = OrientedMultigraph(2, [(1, 1, 2), (2, 1, 2)])
    t = SpanningTree({1})
    tm = cut_basis_change(g, t)
    assert tm.entries == ((1,),)
    q0, _ = q_matrix_tree(g, t)
    assert (tm.transpose() * q0 * tm).entries == \
        cut_qlattice(build_bipartite(g, t)).gram.entries


def test_cut_basis_change_family():
    for g, t in graph_tree_instances(5):
        if g.vertex_count < 2:
            continue
        tm = cut_basis_change(g, t)
        q0, _ = q_matrix_tree(g, t)
        b = build_bipartite(g, t, force=True)
        assert (tm.transpose() * q0 * tm).entries == cut_qlattice(b).gram.entries


GLUE_CHECKS = ("glue_orthogonal", "glue_dets_equal", "glue_k0_unimodular")


def glue_ok(b):
    checks = bipartite_checks(b)
    return all(checks[name] for name in GLUE_CHECKS)


def test_verify_glue_examples():
    g, t = triangle()
    assert glue_ok(build_bipartite(g, t))
    g, t = theta()
    assert glue_ok(build_bipartite(g, t))


def test_verify_glue_random_signed():
    rng = random.Random(83)
    for _ in range(60):
        b = random_signed_bipartite(rng, rng.randint(0, 3), rng.randint(0, 3))
        assert glue_ok(b), b.signs


def test_two_iso_examples():
    g, t = triangle()
    other = SpanningTree({2, 3})
    assert two_iso_search(g, t, g, t) == (1, 2, 3)
    assert two_iso_search(g, t, g, other) is not None
    gt, tt = theta()
    assert two_iso_search(g, t, gt, tt) is None


def test_two_iso_lexicographically_least():
    g, t = theta()
    w = two_iso_search(g, t, g, t)
    assert w == (1, 2, 3)


def test_two_iso_witness_preserves_cycle_space():
    from qlat.graphs import cycle_space_gf2, gf2_in_span, gf2_reduce
    g, t = triangle()
    w = two_iso_search(g, t, g, SpanningTree({2, 3}))
    basis1 = cycle_space_gf2(g)
    basis2 = gf2_reduce(cycle_space_gf2(g))
    for vec in basis1:
        moved = 0
        for i in range(g.edge_count):
            if (vec >> i) & 1:
                moved |= 1 << (w[i] - 1)
        assert gf2_in_span(moved, basis2)


def test_q2iso_pair_examples():
    g, t = triangle()
    rep = q2iso_pair(g, t, g, SpanningTree({2, 3}))
    assert rep.agree and rep.flow_iso and rep.two_iso and rep.cut_iso
    sq = OrientedMultigraph(4, [(1, 1, 2), (2, 2, 3), (3, 3, 4), (4, 1, 4)])
    rep = q2iso_pair(g, t, sq, SpanningTree({1, 2, 3}))
    assert rep.agree and not rep.flow_iso


def test_q2iso_same_graph_inequivalent_trees_all_false():
    tp = OrientedMultigraph(3, [(1, 1, 2), (2, 2, 3), (3, 1, 3), (4, 1, 3)])
    rep = q2iso_pair(tp, SpanningTree({1, 2}), tp, SpanningTree({1, 3}))
    assert rep.agree
    assert not rep.flow_iso and not rep.two_iso and not rep.cut_iso


def test_q2iso_rejects_loops_and_bridges():
    loopg = OrientedMultigraph(2, [(1, 1, 2), (2, 1, 2), (3, 1, 1)])
    with pytest.raises(ValueError, match="loop"):
        q2iso_instance(loopg, SpanningTree({1}))
    bridge = OrientedMultigraph(2, [(1, 1, 2)])
    with pytest.raises(ValueError, match="bridge"):
        q2iso_instance(bridge, SpanningTree({1}))


def test_instance_checks_bundle():
    g, t = triangle()
    checks = instance_checks(g, t)
    assert all(checks.values()), checks


def test_koszul_identity_on_reoriented_graphs():
    # reorientations flip bipartite signs; identity must hold for them all
    g, t = triangle()
    b = build_bipartite(g, t)
    for v in (1, 2, 3):
        bv = switch_vertex(b, v)
        assert koszul_identity_ok(bv, algebra.k0_gram_inverse(bv).star())
    assert flow_cut_duality_ok(switch_vertex(b, 1))


def test_q2iso_agreement_across_reorientations():
    # all predicates are orientation-blind: flipping edge directions gives
    # graphs whose lattices are switching-equivalent, so every pair of
    # reorientations of the same (graph, tree) must report all-true
    rng = random.Random(97)
    insts = [(g, t) for g, t in graph_tree_instances(4, loopless=True)]
    for g, t in insts:
        flipped_edges = [(eid, (head, tail) if rng.random() < 0.5 else (tail, head))
                         for eid, tail, head in g.edges]
        g2 = OrientedMultigraph(
            g.vertex_count, [(e, a, b) for e, (a, b) in flipped_edges])
        from qlat.graphs import validate
        if not validate(g, t).ok:
            continue
        rep = q2iso_pair(g, t, g2, t)
        assert rep.agree and rep.flow_iso and rep.cut_iso and rep.two_iso


def test_decide_iso_scales_to_rank_eight():
    # 4+4 complete signed bipartite graph: flow and cut ranks are 4; a
    # doubled band graph pushes the flow rank to 8
    band = OrientedMultigraph(2, [(i, 1, 2) for i in range(1, 10)])
    t = SpanningTree({1})
    b = build_bipartite(band, t)
    lat = flow_qlattice(b)
    assert lat.rank == 8
    rng = random.Random(101)
    perm = list(range(8))
    rng.shuffle(perm)
    from qlat.lattices import SignedPermutation, change_basis
    sp = SignedPermutation(tuple(perm), tuple(rng.choice((1, -1)) for _ in range(8)))
    scrambled = change_basis(lat, sp)
    w = decide_iso(lat, scrambled)
    assert w is not None
    pm = w.matrix(LaurentPoly.one())
    assert (pm.star() * lat.gram * pm).entries == scrambled.gram.entries


def test_flow_cut_split_pair_search():
    # exhaustive at 2+2: no split pair exists among tiny sign matrices
    assert find_flow_cut_split_pair(2, 2, guided=False) == []
    # the guided sweep over root columns finds a genuine 4+4 pair
    pairs = find_flow_cut_split_pair()
    assert pairs
    b1, b2 = pairs[0]
    assert decide_iso(flow_qlattice(b1), flow_qlattice(b2)) is not None
    assert decide_iso(cut_qlattice(b1), cut_qlattice(b2)) is None
    for v in b1.part0 + b1.part1:
        assert b1.neighbors(v)


def clear_algebra_caches():
    for fn in (algebra.k0_gram, algebra.k0_gram_inverse, algebra.d_matrix):
        fn.cache_clear()


def test_planted_resolution_mutant_fails_the_checks(monkeypatch):
    """Flip the t-parity of the first degree-1 summand of every resolution.
    G G^-1 = I must then fail wherever a vertex has an arrow, and on the
    triangle the gluing orthogonality must fail too."""
    real = algebra.resolve_simple

    def mutant(b, i):
        res = real(b, i)
        if len(res.steps) < 2:
            return res
        (v, qs, ts), *rest = res.steps[1]
        flipped = ((v, qs, 1 - ts), *rest)
        return algebra.Resolution(res.vertex, (res.steps[0], flipped, *res.steps[2:]))

    tri = build_bipartite(*triangle())
    family = [build_bipartite(g, t, force=True) for g, t in graph_tree_instances(4)]
    monkeypatch.setattr(algebra, "resolve_simple", mutant)
    try:
        clear_algebra_caches()
        checks = bipartite_checks(tri)
        assert not checks["simples_match_inverse"] and not checks["glue_orthogonal"]
        for b in family:
            has_arrow = any(b.neighbors(v) for v in b.vertices())
            assert bipartite_checks(b)["simples_match_inverse"] is not has_arrow, b.signs
    finally:
        monkeypatch.undo()
        clear_algebra_caches()
    checks = bipartite_checks(tri)
    assert checks["simples_match_inverse"] and checks["glue_orthogonal"]


def test_planted_path_parity_mutant_fails_simples_match_inverse(monkeypatch):
    """Flip the t-parity of every length-2 path in the path basis.  G then
    disagrees with the resolutions wherever there is an edge: the path
    a -> k -> a puts t q^2 on G's diagonal."""
    real = algebra.path_basis

    def mutant(b):
        return [algebra.PathBasisElement(p.source, p.target, p.mid, p.q_degree,
                                         1 - p.t_degree if p.q_degree == 2 else p.t_degree)
                for p in real(b)]

    family = [build_bipartite(g, t, force=True) for g, t in graph_tree_instances(4)]
    with_edge = [b for b in family if b.signs]
    assert with_edge
    monkeypatch.setattr(algebra, "path_basis", mutant)
    try:
        clear_algebra_caches()
        for b in with_edge:
            assert not bipartite_checks(b)["simples_match_inverse"], b.signs
    finally:
        monkeypatch.undo()
        clear_algebra_caches()
    assert all(bipartite_checks(b)["simples_match_inverse"] for b in with_edge)


def test_battery_runs_no_general_route(monkeypatch):
    """bipartite_checks reads G, G^-1 and the integer lattice data only: the
    basis Grams, the Euler form, the class families and D are never built."""
    import sys

    def fail(*args, **kwargs):
        raise AssertionError("the battery reached a general route")

    clear_algebra_caches()
    for name in ("gram_in_basis", "euler_form", "distinguished_classes", "d_matrix"):
        real = getattr(algebra, name)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "qlat" and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, fail)
    for g, t in graph_tree_instances(4):
        checks = bipartite_checks(build_bipartite(g, t, force=True))
        assert all(checks.values()), (g, t, checks)


def test_closed_forms_match_general_routes():
    """On family 5 and 200 sign matrices up to 4+4 (parts may be empty):
    the simple Gram C* G C equals star(G^-1); the Euler pairings of the
    part1 projectives with the part0 simples are the (part1, part0) block
    of G G^-1; and G equals the per-entry path rule."""
    rng = random.Random(30)
    inputs = [build_bipartite(g, t, force=True) for g, t in graph_tree_instances(5)]
    inputs += [random_signed_bipartite(rng, rng.randint(0, 4), rng.randint(0, 4))
               for _ in range(200)]
    assert any(not b.part0 for b in inputs) and any(not b.part1 for b in inputs)
    for b in inputs:
        g, ginv = algebra.k0_gram(b), algebra.k0_gram_inverse(b)
        order = algebra.vertex_order(b)
        n0 = len(b.part0)
        assert ginv.star() == algebra.gram_in_basis(b, "simple"), b.signs
        fams = algebra.distinguished_classes(b)
        product = g * ginv
        for jj in range(n0, len(order)):
            for ii in range(n0):
                pairing = algebra.euler_form(b, fams["projective"][jj], fams["simple"][ii])
                assert product[jj, ii] == pairing, b.signs
        assert g == QMatrix([[hom_rule(b, u, v) for v in order] for u in order]), b.signs


def test_q2iso_witnesses_are_pinned():
    """The flow witness, two-iso mapping and cut witness of every family-5
    pair, in sweep order, hash to a pinned sha256 prefix; the family hashes
    pin only the pair count and the verdict."""
    import hashlib
    from qlat.graphs import validate
    eligible = [q2iso_instance(g, t) for g, t in graph_tree_instances(5, loopless=True)
                if validate(g, t).ok]

    def show(w):
        return "none" if w is None else f"{list(w.perm)}{list(w.signs)}"

    digest = hashlib.sha256()
    for a in range(len(eligible)):
        for bdx in range(a, len(eligible)):
            rep = verify_q2iso_pair(eligible[a], eligible[bdx])
            mapping = "none" if rep.two_iso_witness is None else list(rep.two_iso_witness)
            digest.update(f"{show(rep.flow_witness)}|{mapping}|{show(rep.cut_witness)}\n".encode())
    assert digest.hexdigest().startswith("c74256f9241b5051"), digest.hexdigest()


def test_q2iso_pair_reads_only_its_records(monkeypatch):
    """Comparing two records validates and builds nothing; the records are
    built once per instance, and only the constructor validates."""
    from qlat import graphs, invariants
    g, t = triangle()
    x, y = q2iso_instance(g, t), q2iso_instance(g, SpanningTree({2, 3}))

    def fail(*args, **kwargs):
        raise AssertionError("verify_q2iso_pair rebuilt an instance")

    for mod, name in ((graphs, "validate"), (invariants, "build_bipartite"),
                      (invariants, "flow_qlattice"), (invariants, "cut_qlattice"),
                      (invariants, "fundamental_cycle")):
        monkeypatch.setattr(mod, name, fail)
    rep = verify_q2iso_pair(x, y)
    assert rep.agree and rep.flow_iso and rep.two_iso and rep.cut_iso
    monkeypatch.undo()
    assert rep.two_iso_witness == two_iso_search(g, t, g, SpanningTree({2, 3})) == (2, 3, 1)
