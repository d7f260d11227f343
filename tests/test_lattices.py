import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from qlat.bipartite import build_bipartite, classical_gram, dual
from qlat.cli import main
from qlat.families import graph_tree_instances
from qlat.fileio import emit_bipartite, emit_graph
from qlat.graphs import OrientedMultigraph, SpanningTree
from qlat.lattices import (QLattice, SignedPermutation, change_basis,
                           cut_gram_from_algebra, cut_qlattice, decide_iso,
                           flow_gram_from_algebra, flow_qlattice, norm_shape,
                           normalized_det)
from qlat.laurent import LaurentPoly
from qlat.matrices import QMatrix
from support import lattice_canonical_form, random_signed_bipartite, random_signed_bipartites


def L(*terms):
    return LaurentPoly.from_terms(terms)


one = LaurentPoly.one()
q2 = LaurentPoly.q_power(2)
one_q2 = L((0, 1), (2, 1))
one_2q2 = L((0, 1), (2, 2))


def triangle_b():
    g = OrientedMultigraph(3, [(1, 1, 2), (2, 2, 3), (3, 1, 3)])
    return build_bipartite(g, SpanningTree({1, 2}))


def theta_b():
    g = OrientedMultigraph(2, [(1, 1, 2), (2, 1, 2), (3, 1, 2)])
    return build_bipartite(g, SpanningTree({1}))


def random_signed_perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return SignedPermutation(tuple(perm), tuple(rng.choice((1, -1)) for _ in range(n)))


def test_flow_cut_gram_examples():
    fl = flow_qlattice(triangle_b())
    cu = cut_qlattice(triangle_b())
    assert fl.gram.entries == ((one_2q2,),)
    assert cu.gram.entries == ((one_q2, q2), (q2, one_q2))
    ft = flow_qlattice(theta_b())
    assert ft.gram.entries == ((one_q2, q2), (q2, one_q2))


def test_lattice_routes_cross_check():
    for g, t in graph_tree_instances(5):
        b = build_bipartite(g, t, force=True)
        assert flow_qlattice(b).gram.entries == flow_gram_from_algebra(b).entries
        assert cut_qlattice(b).gram.entries == cut_gram_from_algebra(b).entries


def test_flow_equals_cut_of_dual():
    rng = random.Random(61)
    graphs = [triangle_b(), theta_b()] + [
        random_signed_bipartite(rng, rng.randint(0, 4), rng.randint(0, 4))
        for _ in range(80)]
    for b in graphs:
        assert flow_qlattice(b).gram.entries == cut_qlattice(dual(b)).gram.entries
        assert cut_qlattice(b).gram.entries == flow_qlattice(dual(b)).gram.entries


def test_normalized_det_examples():
    assert normalized_det(flow_qlattice(triangle_b())) == one_2q2
    assert normalized_det(cut_qlattice(triangle_b())) == one_2q2
    ident = QLattice(2, [[0] * 3] * 3, (1, 2, 3))
    assert ident.gram == QMatrix.identity(3, one) and ident.k is None
    assert normalized_det(ident) == one
    empty = QLattice(2, [], ())
    assert normalized_det(empty) == one and empty.gram.entries == ()


def test_normalized_det_matches_laurent_bareiss_on_family():
    """The integer kernel against the Laurent Gram's Bareiss determinant on
    every family-5 flow and cut lattice."""
    lattices = [make(build_bipartite(g, t, force=True))
                for g, t in graph_tree_instances(5) for make in (flow_qlattice, cut_qlattice)]
    assert len(lattices) == 272
    for lat in lattices:
        want = lat.gram.det().normalize_unit()[1] if lat.rank else one
        assert normalized_det(lat) == want


def test_change_basis_examples():
    ft = flow_qlattice(theta_b())
    assert change_basis(ft, SignedPermutation((0, 1), (1, 1))) == ft
    with pytest.raises(ValueError):
        change_basis(ft, SignedPermutation((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        change_basis(ft, SignedPermutation((0,), (1,)))
    with pytest.raises(ValueError):
        change_basis(ft, SignedPermutation((1, 0), (1, 2)))
    # the integer route agrees with the general P* A P over Z[q,q^-1]
    rng = random.Random(83)
    for b in [triangle_b(), theta_b()] + random_signed_bipartites(83, 40, 4, 4):
        for lat in (flow_qlattice(b), cut_qlattice(b)):
            sp = random_signed_perm(rng, lat.rank)
            moved = change_basis(lat, sp)
            pm = sp.matrix(one)
            assert moved.gram == pm.star() * lat.gram * pm
            assert moved.k == lat.k and moved.basis_labels == lat.basis_labels


def test_change_basis_preserves_normalized_det_randomized():
    # at the matrix level: det(T* G T) = det(G) up to units for any T
    # that is invertible over Z[q,q^-1] (signed permutation times unitriangular)
    rng = random.Random(67)
    grams = [flow_qlattice(theta_b()).gram, cut_qlattice(triangle_b()).gram]
    for g in grams:
        n = g.rows
        _, base = g.det().normalize_unit()
        for _ in range(500):
            sp = random_signed_perm(rng, n).matrix(one)
            upper = QMatrix([[one if i == j else
                              (LaurentPoly.from_terms(
                                  (k, rng.randint(-1, 1)) for k in range(0, 2))
                               if i < j else LaurentPoly.zero())
                              for j in range(n)] for i in range(n)])
            t = sp * upper
            assert (t.star() * g * t).det().normalize_unit()[1] == base


def test_norm_shape_examples():
    fl = flow_qlattice(triangle_b())
    assert norm_shape(fl, (one,)) == 2
    ft = flow_qlattice(theta_b())
    assert norm_shape(ft, (one, one)) is None
    assert norm_shape(ft, (LaurentPoly.zero(), LaurentPoly.zero())) is None
    assert norm_shape(ft, (LaurentPoly.zero(), -one)) == 1
    # unit multiples of basis vectors share the norm shape
    assert norm_shape(fl, (LaurentPoly.q_power(3),)) == 2


def rigidity_data(gram, k=None):
    """Test-side oracle: parse (k, S) out of a Laurent Gram I + q^k S.

    Raises when any entry falls outside the rigid shape, naming it.
    """
    n = gram.rows
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            base = gram[i, j] - one if i == j else gram[i, j]
            if base.is_zero():
                continue
            terms = list(base.terms())
            if len(terms) != 1:
                raise ValueError(f"Gram entry ({i}, {j}) violates the rigid shape")
            deg, coeff = terms[0]
            if k is None:
                k = deg
            elif deg != k:
                raise ValueError(
                    f"Gram entry ({i}, {j}) has exponent {deg}, expected {k}")
            c[i][j] = coeff
    for i in range(n):
        for j in range(n):
            if c[i][j] != c[j][i]:
                raise ValueError(f"Gram entry ({i}, {j}) breaks symmetry")
    return k, c


def test_rigidity_data_checks_shape():
    lat = QLattice(2, [[0, 1], [1, 1]], (1, 2))
    assert lat.gram.entries == ((one, q2), (q2, one_q2))
    k, c = rigidity_data(lat.gram)
    assert k == 2 and c == [[0, 1], [1, 1]]
    bad = QMatrix([[one, LaurentPoly.q_power(1)], [LaurentPoly.q_power(1), one_q2]])
    with pytest.raises(ValueError):
        rigidity_data(bad, k=2)
    mixed = QMatrix([[one_q2, L((1, 1), (2, 1))], [L((1, 1), (2, 1)), one_q2]])
    with pytest.raises(ValueError):
        rigidity_data(mixed)


def test_decide_iso_self_and_rank_mismatch():
    fl = flow_qlattice(triangle_b())
    ft = flow_qlattice(theta_b())
    w = decide_iso(ft, ft)
    assert w.perm == (0, 1) and w.signs == (1, 1)
    assert decide_iso(fl, ft) is None


def test_decide_iso_triangle_vs_square():
    sq = OrientedMultigraph(4, [(1, 1, 2), (2, 2, 3), (3, 3, 4), (4, 1, 4)])
    fsq = flow_qlattice(build_bipartite(sq, SpanningTree({1, 2, 3})))
    assert normalized_det(fsq) == L((0, 1), (2, 3))
    assert decide_iso(flow_qlattice(triangle_b()), fsq) is None


def test_decide_iso_scramble_round_trip_100():
    rng = random.Random(71)
    for lat in (flow_qlattice(theta_b()), cut_qlattice(triangle_b())):
        for _ in range(100):
            sp = random_signed_perm(rng, lat.rank)
            scrambled = change_basis(lat, sp)
            w = decide_iso(lat, scrambled)
            assert w is not None
            pm = w.matrix(one)
            assert (pm.star() * lat.gram * pm).entries == scrambled.gram.entries


def test_decide_iso_finds_lexicographically_least():
    # theta flow lattice has an automorphism swapping the two generators;
    # the reported witness must be the identity, the least one
    ft = flow_qlattice(theta_b())
    w = decide_iso(ft, ft)
    assert w.perm == (0, 1) and w.signs == (1, 1)


def decide_iso_recursive(lat1, lat2):
    """decide_iso as it was before it kept its own stack, one Python frame per
    basis vector: the order oracle for the witness it returns."""
    if lat1.rank != lat2.rank:
        return None
    k1, c1 = lat1.k, lat1.s
    k2, c2 = lat2.k, lat2.s
    if k1 is not None and k2 is not None and k1 != k2:
        return None
    n = lat1.rank
    if n == 0:
        return SignedPermutation((), ())
    if sorted(c1[i][i] for i in range(n)) != sorted(c2[i][i] for i in range(n)):
        return None
    if normalized_det(lat1) != normalized_det(lat2):
        return None
    perm, signs, used = [None] * n, [0] * n, [False] * n

    def ok(i, cand, sign):
        return c2[i][i] == c1[cand][cand] and all(
            c1[cand][perm[j]] * sign * signs[j] == c2[i][j] for j in range(i))

    def rec(i):
        if i == n:
            return True
        for cand in range(n):
            if used[cand]:
                continue
            for sign in (1, -1):
                if ok(i, cand, sign):
                    perm[i], signs[i], used[cand] = cand, sign, True
                    if rec(i + 1):
                        return True
                    used[cand] = False
        return False

    if not rec(0):
        return None
    return SignedPermutation(tuple(perm), tuple(signs))


def test_decide_iso_matches_recursive_order_oracle_on_family_5():
    rng = random.Random(79)
    bs = [build_bipartite(g, t, force=True) for g, t in graph_tree_instances(5)]
    lats = [flow_qlattice(b) for b in bs] + [cut_qlattice(b) for b in bs]
    lats += [change_basis(lat, random_signed_perm(rng, lat.rank)) for lat in lats]
    found = 0
    for x in lats:
        for y in lats:
            w = decide_iso(x, y)
            assert w == decide_iso_recursive(x, y)
            found += w is not None
    assert found > len(lats)


DEEP_ISO = """
import sys
from qlat.lattices import QLattice, SignedPermutation, change_basis, decide_iso
r = 60
s = [[i + 1 if i == j else int(abs(i - j) == 1) for j in range(r)] for i in range(r)]
lat = QLattice(2, s, range(r))
sp = SignedPermutation(tuple(reversed(range(r))), tuple(-1 if i % 3 else 1 for i in range(r)))
scrambled = change_basis(lat, sp)
sys.setrecursionlimit(r // 2)
w = decide_iso(lat, scrambled)
print(w == sp)
"""


def test_decide_iso_keeps_its_own_stack():
    # a rank-60 path lattice against a scramble of itself, with the recursion
    # limit at 30: one frame per basis vector would raise RecursionError
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", DEEP_ISO], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (out.returncode, out.stdout) == (0, "True\n"), out.stderr


def test_lattice_canonical_form_separates_and_identifies():
    rng = random.Random(73)
    ft = flow_qlattice(theta_b())
    for _ in range(50):
        scrambled = change_basis(ft, random_signed_perm(rng, ft.rank))
        assert lattice_canonical_form(scrambled) == lattice_canonical_form(ft)
    cu = cut_qlattice(triangle_b())
    assert lattice_canonical_form(cu) == lattice_canonical_form(ft)
    fl = flow_qlattice(triangle_b())
    assert lattice_canonical_form(fl) != lattice_canonical_form(ft)


def test_rank_zero_lattices():
    tree = OrientedMultigraph(2, [(1, 1, 2)])
    b = build_bipartite(tree, SpanningTree({1}), force=True)
    fl = flow_qlattice(b)
    assert fl.rank == 0
    assert normalized_det(fl) == one
    w = decide_iso(fl, fl)
    assert w is not None and len(w) == 0


def test_qlattice_rejects_degenerate():
    # k = 0 turns I + q^k S into the integer matrix I + S, here singular
    with pytest.raises(ValueError):
        QLattice(0, [[0, 1], [1, 0]], (1, 2))
    with pytest.raises(ValueError):
        QLattice(2, [[0, 1], [2, 0]], (1, 2))
    with pytest.raises(ValueError):
        QLattice(2, [[0, 1]], (1, 2))
    with pytest.raises(ValueError):
        QLattice(2, [[q2]], (1,))
    with pytest.raises(ValueError):
        QLattice(2, [[1]], (1, 2))
    with pytest.raises(ValueError):
        QLattice(2, [[1, 0], [0, 1]], (5, 5))
    with pytest.raises(AttributeError):
        QLattice(2, [[1]], (1,)).s = ((2,),)


def test_q1_specialization_is_classical_gram():
    for g, t in graph_tree_instances(4):
        b = build_bipartite(g, t, force=True)
        assert flow_qlattice(b).gram.eval_q(1).entries == \
            classical_gram(b, "flow").entries
        assert cut_qlattice(b).gram.eval_q(1).entries == \
            classical_gram(b, "cut").entries


def test_cut_det_constant_coefficient_is_one():
    for g, t in graph_tree_instances(5):
        b = build_bipartite(g, t, force=True)
        det = normalized_det(cut_qlattice(b))
        assert det.coefficient(0) == 1


def test_rigidity_sampling_flow_lattices():
    # random vectors with a rigid norm shape are unit multiples of basis vectors
    rng = random.Random(79)
    for b in (triangle_b(), theta_b()):
        lat = flow_qlattice(b)
        n = lat.rank
        hits = 0
        for _ in range(1000):
            vec = tuple(LaurentPoly.from_terms(
                (k, rng.randint(-3, 3)) for k in range(-2, 3)) for _ in range(n))
            c = norm_shape(lat, vec)
            if c is None:
                continue
            hits += 1
            nonzero = [x for x in vec if not x.is_zero()]
            assert len(nonzero) == 1 and nonzero[0].unit_value() is not None
        assert hits >= 0


# -- the integer data (k, S) against the Laurent Gram ---------------------------


def test_gram_is_derived_from_integer_data_oracle():
    """I + q^2 (C - I), built entrywise over Z[q,q^-1] from the classical
    Gram, is the derived Gram, and parsing it back gives (lat.k, lat.s)."""
    qq = LaurentPoly.q_power(2)
    bs = [build_bipartite(g, t, force=True) for g, t in graph_tree_instances(5)]
    bs += random_signed_bipartites(2025, 200, 5, 5)
    for b in bs:
        for side, make in (("flow", flow_qlattice), ("cut", cut_qlattice)):
            c = classical_gram(b, side)
            lat = make(b)
            expect = [[one + qq * (x - 1) if i == j else qq * x for j, x in enumerate(row)]
                      for i, row in enumerate(c.entries)]
            assert lat.gram.entries == tuple(map(tuple, expect))
            assert lat.gram.row_labels == lat.gram.col_labels == c.row_labels
            k, s = rigidity_data(lat.gram)
            assert (k, tuple(map(tuple, s))) == (lat.k, lat.s)


def test_lattice_outputs_are_byte_identical(tmp_path, capsys):
    """Byte-identity gate for lattice refactors: the pinned sha256 prefix of
    the JSON gram, det and iso outputs over every family-4 instance and 30
    random sign matrices up to 5+5."""
    texts = [emit_graph(g, t, f"f4_{i:02d}") for i, (g, t) in enumerate(graph_tree_instances(4))]
    texts += [emit_bipartite(b, f"s{i:02d}")
              for i, b in enumerate(random_signed_bipartites(25, 30, 5, 5))]
    paths = []
    for i, text in enumerate(texts):
        path = tmp_path / f"in{i:02d}.txt"
        path.write_text(text)
        paths.append(str(path))
    runs = [[*cmd, p] for p in paths for cmd in (
        ["gram", "--flow"], ["gram", "--cut"], ["det", "--flow"], ["det", "--cut", "--normalize"])]
    runs += [["iso", side, a, b] for a, b in zip(paths, paths[1:]) for side in ("--flow", "--cut")]
    digest = hashlib.sha256()
    for run in runs:
        assert main(["--format", "json", *run]) == 0, run
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest().startswith("7bd00c212cd32857"), digest.hexdigest()
