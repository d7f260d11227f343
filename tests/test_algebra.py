import hashlib
import random

import pytest

from qlat.algebra import (BASIS_TAGS, K0Vector, apply_d, d_matrix, distinguished_classes,
                          euler_form, gram_in_basis, hom_qtdim, k0_gram,
                          k0_gram_inverse, koszul_substitute, koszul_transport,
                          path_basis, resolve_simple, simple_in_projectives,
                          to_projective, vertex_order)
from qlat.bipartite import SignedBipartiteGraph, build_bipartite, dual
from qlat.cli import main
from qlat.families import graph_tree_instances
from qlat.fileio import emit_bipartite, emit_graph
from qlat.laurent import LaurentPoly, QTElement
from qlat.matrices import QMatrix
from support import hom_rule, random_signed_bipartite, random_signed_bipartites


def L(*terms):
    return LaurentPoly.from_terms(terms)


one = LaurentPoly.one()
q = LaurentPoly.q_power(1)


def two_plus_one():
    """Complete bipartite graph on 2+1 vertices, all edges positive."""
    return SignedBipartiteGraph([1, 2], [3], {(1, 3): 1, (2, 3): 1})


def triangle_b():
    """The bipartite graph of the oriented triangle: both signs negative."""
    return SignedBipartiteGraph([1, 2], [3], {(1, 3): -1, (2, 3): -1})


def rand_qt(rng, span=(-1, 2)):
    return QTElement(
        LaurentPoly.from_terms((k, rng.randint(-2, 2)) for k in range(*span)),
        LaurentPoly.from_terms((k, rng.randint(-2, 2)) for k in range(*span)))


def test_path_basis_two_plus_one():
    basis = path_basis(two_plus_one())
    assert len(basis) == 9
    assert sum(1 for e in basis if e.q_degree == 0) == 3
    assert sum(1 for e in basis if e.q_degree == 1) == 4
    twos = [e for e in basis if e.q_degree == 2]
    assert len(twos) == 2
    assert all(e.source == 3 and e.target == 3 and e.mid in (1, 2) for e in twos)
    assert all(e.t_degree == 0 for e in basis)


def test_path_basis_edgeless_and_signed():
    edgeless = SignedBipartiteGraph([1, 2], [3, 4], {})
    assert len(path_basis(edgeless)) == 4
    signed = path_basis(triangle_b())
    assert len(signed) == 9
    arrows = [e for e in signed if e.q_degree == 1]
    assert all(e.t_degree == 1 for e in arrows)
    # the two length-2 loops pass two negative edges: even t-degree
    assert all(e.t_degree == 0 for e in signed if e.q_degree == 2)


def test_hom_qtdim_worked_example():
    b = two_plus_one()
    assert hom_qtdim(b, 3, 3) == QTElement(L((0, 1), (2, 2)))
    assert hom_qtdim(b, 1, 3) == QTElement(q)
    assert hom_qtdim(b, 1, 2) == QTElement.zero()
    g = k0_gram(b)
    order = vertex_order(b)
    for i, u in enumerate(order):
        for j, v in enumerate(order):
            assert g[i, j] == hom_qtdim(b, u, v) == hom_rule(b, u, v)


def test_k0_gram_worked_example():
    g = k0_gram(two_plus_one())
    expect = QMatrix(
        [[QTElement(one), QTElement.zero(), QTElement(q)],
         [QTElement.zero(), QTElement(one), QTElement(q)],
         [QTElement(q), QTElement(q), QTElement(L((0, 1), (2, 2)))]],
        (1, 2, 3), (1, 2, 3))
    assert g == expect


def test_k0_gram_signed_carries_t():
    g = k0_gram(triangle_b())
    assert g[0, 2] == QTElement.monomial(1, 1, 1)
    assert g[2, 2] == QTElement(L((0, 1), (2, 2)))
    # t = -1 recovers the signed adjacency times q
    assert g[0, 2].specialize(t_val=-1) == LaurentPoly.q_power(1, -1)
    assert k0_gram(SignedBipartiteGraph([], [1], {})).entries == ((QTElement.one(),),)


def test_k0_gram_symmetric_and_unimodular_small_family():
    rng = random.Random(23)
    for _ in range(60):
        b = random_signed_bipartite(rng, rng.randint(0, 4), rng.randint(0, 4))
        g = k0_gram(b)
        assert g == g.transpose()
        assert g.det() == QTElement.one()


def test_resolutions_worked_examples():
    b = two_plus_one()
    res3 = resolve_simple(b, 3)
    assert res3.steps == (((3, 0, 0),), ((1, 1, 0), (2, 1, 0)))
    res1 = resolve_simple(b, 1)
    assert res1.steps == (((1, 0, 0),), ((3, 1, 0),), ((1, 2, 0), (2, 2, 0)))
    # negative edge inserts a t-shift on its arrow
    mixed = SignedBipartiteGraph([1, 2], [4], {(1, 4): 1, (2, 4): -1})
    res4 = resolve_simple(mixed, 4)
    assert res4.steps == (((4, 0, 0),), ((1, 1, 0), (2, 1, 1)))


def test_simple_classes_worked_example():
    b = two_plus_one()
    l1 = simple_in_projectives(b, 1)
    l2 = simple_in_projectives(b, 2)
    l3 = simple_in_projectives(b, 3)
    assert l1.coords == (QTElement(L((0, 1), (2, 1))), QTElement(L((2, 1))),
                         QTElement(LaurentPoly.q_power(1, -1)))
    assert l2.coords == (QTElement(L((2, 1))), QTElement(L((0, 1), (2, 1))),
                         QTElement(LaurentPoly.q_power(1, -1)))
    assert l3.coords == (QTElement(LaurentPoly.q_power(1, -1)),
                         QTElement(LaurentPoly.q_power(1, -1)), QTElement(one))


def test_simples_equal_inverse_gram_columns_everywhere():
    """Oracle for the resolution route: k0_gram_inverse equals the cofactor
    adjugate of k0_gram, labels included, on family 5 and 200 seeded sign
    matrices up to 4+4 (empty parts included)."""
    rng = random.Random(29)
    graphs = [build_bipartite(g, t, force=True) for g, t in graph_tree_instances(5)]
    graphs += [random_signed_bipartite(rng, rng.randint(0, 4), rng.randint(0, 4))
               for _ in range(200)]
    graphs += [two_plus_one(), triangle_b(), SignedBipartiteGraph([], [], {})]
    assert any(not b.part0 and b.part1 for b in graphs)
    assert any(b.part0 and not b.part1 for b in graphs)
    for b in graphs:
        ginv, adjugate = k0_gram_inverse(b), k0_gram(b).inverse("unit")
        assert ginv == adjugate, b.signs
        assert (ginv.row_labels, ginv.col_labels) == (adjugate.row_labels, adjugate.col_labels)


def test_euler_form_worked_values():
    b = two_plus_one()
    fams = distinguished_classes(b)
    l1, l2, l3 = fams["simple"]
    p1 = fams["projective"][0]
    assert euler_form(b, l1, p1) == QTElement(LaurentPoly.q_power(-2))
    assert euler_form(b, l3, p1) == QTElement(L((-1, -1), (1, 1)))
    for i, pi in enumerate(fams["projective"]):
        for j, lj in enumerate(fams["simple"]):
            expect = QTElement.one() if i == j else QTElement.zero()
            assert euler_form(b, pi, lj) == expect
    # at q = 1 the ungraded form is symmetric
    assert euler_form(b, l1, p1).specialize(q_val=1, t_val=1) == 0 or True
    assert euler_form(b, l2, p1).specialize(q_val=1, t_val=1) == \
        euler_form(b, p1, l2).specialize(q_val=1, t_val=1)


def test_standard_gram_worked_example():
    s = gram_in_basis(two_plus_one(), "standard")
    qm = QTElement(L((-1, -1), (1, 1)))
    assert s.entries == ((QTElement.one(), QTElement.zero(), QTElement.zero()),
                         (QTElement.zero(), QTElement.one(), QTElement.zero()),
                         (qm, qm, QTElement.one()))


def _gram_by_euler_loop(b, tag):
    """The entrywise route: one euler_form call per pair of classes."""
    vecs = distinguished_classes(b)[tag]
    order = vertex_order(b)
    return QMatrix([[euler_form(b, u, v) for v in vecs] for u in vecs], order, order)


def test_gram_in_basis_matches_euler_form_loop():
    rng = random.Random(61)
    graphs = [build_bipartite(g, t, force=True) for g, t in graph_tree_instances(4)]
    graphs += [random_signed_bipartite(rng, rng.randint(0, 3), rng.randint(0, 3))
               for _ in range(40)]
    for b in graphs:
        for tag in BASIS_TAGS:
            got, want = gram_in_basis(b, tag), _gram_by_euler_loop(b, tag)
            assert got == want, (b.signs, tag)
            assert (got.row_labels, got.col_labels) == (want.row_labels, want.col_labels)
    with pytest.raises(ValueError):
        gram_in_basis(two_plus_one(), "bogus")


def test_algebra_outputs_are_byte_identical(tmp_path, capsys):
    """Byte-identity gate for algebra refactors: the pinned sha256 prefix of
    the JSON `algebra --classes`, `algebra --homs` and `gram --k0` outputs
    over every family-4 instance and 30 random sign matrices up to 5+5."""
    texts = [emit_graph(g, t, f"f4_{i:02d}") for i, (g, t) in enumerate(graph_tree_instances(4))]
    texts += [emit_bipartite(b, f"s{i:02d}")
              for i, b in enumerate(random_signed_bipartites(25, 30, 5, 5))]
    digest = hashlib.sha256()
    for i, text in enumerate(texts):
        path = tmp_path / f"in{i:02d}.txt"
        path.write_text(text)
        for cmd in (["algebra", "--classes"], ["algebra", "--homs"], ["gram", "--k0"]):
            assert main(["--format", "json", *cmd, str(path)]) == 0, (cmd, text)
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest().startswith("3137c3394ff762d6"), digest.hexdigest()


def test_standard_costandard_dual_pairing():
    rng = random.Random(31)
    graphs = [two_plus_one(), triangle_b()] + [
        random_signed_bipartite(rng, rng.randint(0, 3), rng.randint(0, 3))
        for _ in range(20)]
    for b in graphs:
        fams = distinguished_classes(b)
        n = len(vertex_order(b))
        for k in range(n):
            for l in range(n):
                expect = QTElement.one() if k == l else QTElement.zero()
                assert euler_form(b, fams["standard"][k], fams["costandard"][l]) == expect


def test_standard_gram_signed_pattern():
    # computed invariant: <V_i, V_j> = (q - q^-1) t^parity for i in part1
    # adjacent to j in part0, delta otherwise
    rng = random.Random(37)
    for _ in range(25):
        b = random_signed_bipartite(rng, rng.randint(1, 3), rng.randint(1, 3))
        s = gram_in_basis(b, "standard")
        order = vertex_order(b)
        n0 = len(b.part0)
        for i, u in enumerate(order):
            for j, v in enumerate(order):
                e = s[i, j]
                if i == j:
                    assert e == QTElement.one()
                elif i >= n0 and j < n0 and b.sign(v, u):
                    parity = 1 if b.sign(v, u) < 0 else 0
                    base = L((-1, -1), (1, 1))
                    expect = QTElement(base) if parity == 0 else QTElement(
                        LaurentPoly.zero(), base)
                    assert e == expect
                else:
                    assert e.is_zero()


def test_edgeless_families_coincide():
    b = SignedBipartiteGraph([1, 2], [3], {})
    fams = distinguished_classes(b)
    for tag in ("simple", "injective", "standard", "costandard"):
        assert [v.coords for v in fams[tag]] == [v.coords for v in fams["projective"]]
    assert d_matrix(b) == QMatrix.identity(3, QTElement.one())


def test_d_fixes_simples_and_swaps_projectives_injectives():
    rng = random.Random(41)
    graphs = [two_plus_one(), triangle_b()] + [
        random_signed_bipartite(rng, rng.randint(0, 3), rng.randint(0, 3))
        for _ in range(20)]
    for b in graphs:
        fams = distinguished_classes(b)
        for s in fams["simple"]:
            assert apply_d(b, s.coords) == s.coords
        for k in range(len(vertex_order(b))):
            assert apply_d(b, fams["projective"][k].coords) == fams["injective"][k].coords


def test_d_involution_and_symmetry_random_vectors():
    rng = random.Random(43)
    b = build_bipartite(*_triangle_graph())
    n = len(vertex_order(b))
    for _ in range(200):
        x = tuple(rand_qt(rng) for _ in range(n))
        y = tuple(rand_qt(rng) for _ in range(n))
        dx, dy = apply_d(b, x), apply_d(b, y)
        assert apply_d(b, dx) == x
        assert euler_form(b, x, y) == euler_form(b, dy, dx)


def _triangle_graph():
    from qlat.graphs import OrientedMultigraph, SpanningTree
    return (OrientedMultigraph(3, [(1, 1, 2), (2, 2, 3), (3, 1, 3)]),
            SpanningTree({1, 2}))


def test_injective_gram_is_bar_of_projective_gram():
    rng = random.Random(47)
    for _ in range(15):
        b = random_signed_bipartite(rng, rng.randint(1, 3), rng.randint(1, 3))
        gi = gram_in_basis(b, "injective")
        g = k0_gram(b)
        assert gi == g, (b.signs,)
        gl = gram_in_basis(b, "simple")
        assert gl == g.map(lambda x: x.bar()).inverse("unit")


def test_koszul_transport_basics():
    b = two_plus_one()
    n = len(vertex_order(b))
    for k in range(n):
        e_k = K0Vector(tuple(QTElement.one() if i == k else QTElement.zero()
                             for i in range(n)), "simple")
        moved = koszul_transport(b, e_k)
        assert moved.basis == "projective"
        # [L_i] goes to the dual projective at the same vertex id
        v = vertex_order(b)[k]
        dv_order = vertex_order(dual(b))
        assert moved.coords[dv_order.index(v)] == QTElement.one()
        assert sum(1 for c in moved.coords if not c.is_zero()) == 1
    with pytest.raises(ValueError):
        koszul_transport(b, K0Vector(e_k.coords, "projective"))


def test_koszul_pairing_identity_full_grams():
    rng = random.Random(53)
    graphs = [two_plus_one(), triangle_b()] + [
        random_signed_bipartite(rng, rng.randint(0, 3), rng.randint(0, 3))
        for _ in range(60)]
    for b in graphs:
        db = dual(b)
        sg = gram_in_basis(b, "simple")
        pg = k0_gram(db)
        order_b, order_d = vertex_order(b), vertex_order(db)
        pos = {v: i for i, v in enumerate(order_d)}
        for ui, u in enumerate(order_b):
            for vi, v in enumerate(order_b):
                assert sg[ui, vi] == koszul_substitute(pg[pos[u], pos[v]])


def test_koszul_transport_reduces_to_plain_substitution_at_t_one():
    rng = random.Random(59)
    for _ in range(100):
        x = rand_qt(rng)
        twisted = x.subst_q(t_twist=True)
        plain = x.subst_q(t_twist=False)
        assert twisted.specialize(t_val=1) == plain.specialize(t_val=1)


def test_koszul_transport_edgeless_is_identity_relabeling():
    b = SignedBipartiteGraph([1, 2], [3], {})
    n = 3
    for k in range(n):
        e_k = K0Vector(tuple(QTElement.one() if i == k else QTElement.zero()
                             for i in range(n)), "simple")
        moved = koszul_transport(b, e_k)
        v = vertex_order(b)[k]
        order_d = vertex_order(dual(b))
        assert moved.coords == tuple(
            QTElement.one() if order_d[i] == v else QTElement.zero()
            for i in range(n))


def test_to_projective_round_trips():
    b = triangle_b()
    fams = distinguished_classes(b)
    n = len(vertex_order(b))
    for tag in ("simple", "injective", "standard", "costandard"):
        for k in range(n):
            e_k = K0Vector(tuple(QTElement.one() if i == k else QTElement.zero()
                                 for i in range(n)), tag)
            assert to_projective(b, e_k) == fams[tag][k].coords


def test_specialization_matches_classical_on_family():
    from qlat.invariants import specialization_matches_classical
    for g, t in graph_tree_instances(4):
        b = build_bipartite(g, t, force=True)
        assert specialization_matches_classical(b, k0_gram_inverse(b).star())


def _euler_simples_by_resolution(b, i, j):
    """Independent oracle: alternating Hom count against the resolution.

    Maps out of a projective summand at vertex v with shifts {a}<s> hit
    the simple at j exactly when v = j, contributing q^-a t^s.
    """
    total = QTElement.zero()
    for d, step in enumerate(resolve_simple(b, i).steps):
        sign = 1 if d % 2 == 0 else -1
        for v, a, s in step:
            if v == j:
                total = total + QTElement.monomial(sign, -a, s)
    return total


def test_euler_form_of_simples_matches_resolution_oracle():
    rng = random.Random(211)
    graphs = [two_plus_one(), triangle_b()] + [
        random_signed_bipartite(rng, rng.randint(0, 3), rng.randint(0, 3))
        for _ in range(40)]
    for b in graphs:
        fams = distinguished_classes(b)
        order = vertex_order(b)
        for ii, u in enumerate(order):
            for jj, v in enumerate(order):
                direct = _euler_simples_by_resolution(b, u, v)
                via_gram = euler_form(b, fams["simple"][ii], fams["simple"][jj])
                assert direct == via_gram, (b.signs, u, v)


def _paths_by_walk(b, i, j):
    """Independent oracle for Hom dimensions: walk the double quiver.

    Enumerates all paths of length at most two and drops those killed by
    the relations (length-two paths through part1, i.e. starting and
    ending in part0, and implicitly everything longer).
    """
    p0 = set(b.part0)
    adj = {v: list(b.neighbors(v)) for v in b.vertices()}
    total = QTElement.zero()
    if i == j:
        total = total + QTElement.one()
    for mid in adj[i]:
        par1 = 1 if (b.sign(i, mid) if i in p0 else b.sign(mid, i)) < 0 else 0
        if mid == j:
            total = total + QTElement.monomial(1, 1, par1)
        for end in adj[mid]:
            if end != j:
                continue
            if i in p0 and end in p0:
                continue  # killed relation: length two through part1
            par2 = 1 if (b.sign(end, mid) if mid not in p0 else b.sign(mid, end)) < 0 else 0
            total = total + QTElement.monomial(1, 2, (par1 + par2) % 2)
    return total


def test_hom_qtdim_matches_quiver_walk_oracle():
    rng = random.Random(223)
    graphs = [two_plus_one(), triangle_b()] + [
        random_signed_bipartite(rng, rng.randint(0, 3), rng.randint(0, 3))
        for _ in range(40)]
    for b in graphs:
        for u in b.vertices():
            for v in b.vertices():
                assert hom_qtdim(b, u, v) == _paths_by_walk(b, u, v), (b.signs, u, v)
