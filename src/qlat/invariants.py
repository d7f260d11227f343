"""Theorem-level pipelines with independent oracles.

The matrix-tree pipeline builds the signed q-incidence matrix D (entries
+-1 on tree columns, +-q on the rest) and forms Q0 = D0 D0^t with the
last vertex row deleted.  Its determinant is the tree-counting
polynomial; instance_checks compares it with two independent routes: the
spanning-tree enumeration polynomial sum_i c_i q^(2i), where c_i counts
trees differing from the chosen one in exactly i edges, and the
normalized cut-lattice determinant.  The two-isomorphism search decides
whether a tree-preserving, cycle-preserving edge bijection exists.  For
the paired cross-validation each (graph, tree) instance is turned once
into a record (its q-flow and q-cut lattices and its fundamental
incidence), and each pair of records is then compared three ways:
two-isomorphism and signed-permutation isomorphism of both lattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .bipartite import b_cut, b_cycle, build_bipartite, classical_gram, dual
from .graphs import (cut_side, cycle_space_gf2, fundamental_cut, fundamental_cycle,
                     gf2_in_span, gf2_reduce, require_valid, tree_overlap_counts)
from .lattices import (QLattice, cut_gram_from_algebra, cut_qlattice, decide_iso,
                       flow_gram_from_algebra, flow_qlattice, normalized_det)
from .laurent import LaurentPoly, QTElement
from .matrices import QMatrix
from .algebra import k0_gram, k0_gram_inverse, koszul_substitute, vertex_order


def q_incidence(g, t):
    """Vertex-by-edge matrix: +-1 on tree columns, +-q elsewhere.

    Rows are vertices 1..n; tree columns come first, each block ordered
    by edge id.  A loop contributes nothing (it both begins and ends at
    its vertex).
    """
    one, q = LaurentPoly.one(), LaurentPoly.q_power(1)
    tree_cols = sorted(t.tree_edges)
    other_cols = [e for e in range(1, g.edge_count + 1) if e not in t.tree_edges]
    cols = tree_cols + other_cols
    ent = []
    for v in range(1, g.vertex_count + 1):
        row = []
        for eid in cols:
            _, tail, head = g.edge(eid)
            unit = one if eid in t.tree_edges else q
            if tail == head:
                row.append(LaurentPoly.zero())
            elif head == v:
                row.append(unit)
            elif tail == v:
                row.append(-unit)
            else:
                row.append(LaurentPoly.zero())
        ent.append(row)
    return QMatrix(ent, tuple(range(1, g.vertex_count + 1)), tuple(cols))


def matrix_tree_enum_oracle(g, t):
    """sum_i c_i q^(2i) straight from spanning-tree enumeration."""
    counts = tree_overlap_counts(g, t)
    return LaurentPoly.from_terms((2 * i, c) for i, c in enumerate(counts))


def q_matrix_tree(g, t):
    """(Q0, det Q0) for Q0 = D0 D0^t, D0 being q_incidence less its last row.

    det Q0 is the tree-counting polynomial sum_i c_i q^(2i) up to a unit
    +-q^k.  No oracle runs here: instance_checks compares det Q0 with
    matrix_tree_enum_oracle and with the normalized cut-lattice det.
    """
    require_valid(g, t, force=True)
    d = q_incidence(g, t)
    d0 = d.submatrix(range(g.vertex_count - 1), range(g.edge_count))
    q0 = d0 * d0.transpose()
    det_q0 = q0.det()
    if isinstance(det_q0, int):
        det_q0 = LaurentPoly.from_int(det_q0)
    return q0, det_q0


def cut_basis_change(g, t):
    """Change of basis from the vertex presentation to fundamental cuts.

    Column j describes the cut of the j-th tree edge: row i holds +1 when
    vertex v_i sits on the tail side and the omitted last vertex on the
    head side, -1 in the mirrored case, 0 otherwise.  Satisfies
    T^t Q0 T = cut Gram.
    """
    require_valid(g, t, force=True)
    tree_cols = sorted(t.tree_edges)
    r = len(tree_cols)
    last = g.vertex_count
    ent = [[0] * r for _ in range(r)]
    for jc, eid in enumerate(tree_cols):
        side0 = cut_side(g, t, eid)
        last_in_0 = last in side0
        for iv in range(1, g.vertex_count):
            in0 = iv in side0
            if in0 and not last_in_0:
                ent[iv - 1][jc] = 1
            elif (not in0) and last_in_0:
                ent[iv - 1][jc] = -1
    return QMatrix(ent, tuple(range(1, g.vertex_count)), tuple(tree_cols))


class _Incidence(NamedTuple):
    """A (graph, tree) with its fundamental incidence and pruning signature."""
    g: object
    t: object
    inc: dict          # (tree edge, non-tree edge) -> 1 if the edge is on the cycle
    sig: dict          # edge -> bijection-invariant refinement key
    sig_sorted: tuple  # the multiset of keys, compared before any search


def _incidence(g, t):
    tree = sorted(t.tree_edges)
    cotree = [e for e in range(1, g.edge_count + 1) if e not in t.tree_edges]
    inc = {}
    for f in cotree:
        cyc = fundamental_cycle(g, t, f)
        for i in tree:
            inc[(i, f)] = 1 if cyc[i - 1] != 0 else 0
    sig = _edge_signature(tree, cotree, inc)
    return _Incidence(g, t, inc, sig, tuple(sorted(sig.values())))


def _edge_signature(tree, cotree, inc):
    """Bijection-invariant refinement keys for pruning the search."""
    cyc_sizes = {f: 1 + sum(inc[(i, f)] for i in tree) for f in cotree}
    tree_deg = {i: sum(inc[(i, f)] for f in cotree) for i in tree}
    sig = {}
    for i in tree:
        sig[i] = ("t", tree_deg[i],
                  tuple(sorted(cyc_sizes[f] for f in cotree if inc[(i, f)])))
    for f in cotree:
        sig[f] = ("c", cyc_sizes[f],
                  tuple(sorted(tree_deg[i] for i in tree if inc[(i, f)])))
    return sig


def two_iso_search(g1, t1, g2, t2):
    """Least tree-preserving cycle-preserving edge bijection, or None.

    Qualification is checked on the binary cycle spaces: the bijection
    must carry the GF(2) cycle space of the first graph onto that of the
    second.  For tree-preserving bijections this is equivalent to
    matching up the fundamental incidence structures, which is what the
    backtracking enforces pair by pair.
    """
    require_valid(g1, t1)
    require_valid(g2, t2)
    return _least_two_iso(_incidence(g1, t1), _incidence(g2, t2))


def _least_two_iso(x, y):
    g1, g2 = x.g, y.g
    if g1.edge_count != g2.edge_count or g1.vertex_count != g2.vertex_count:
        return None
    if x.sig_sorted != y.sig_sorted:
        return None
    sig1, sig2, inc1, inc2 = x.sig, y.sig, x.inc, y.inc

    m = g1.edge_count
    image = [None] * (m + 1)
    used = [False] * (m + 1)
    in_t1 = x.t.tree_edges
    in_t2 = y.t.tree_edges

    def consistent(e, cand):
        if sig1[e] != sig2[cand]:
            return False
        for prev in range(1, e):
            pi = image[prev]
            if prev in in_t1:
                if e not in in_t1 and inc1[(prev, e)] != inc2[(pi, cand)]:
                    return False
            else:
                if e in in_t1 and inc1[(e, prev)] != inc2[(cand, pi)]:
                    return False
        return True

    # Iterative depth-first search over e = 1..m; a dead end at e resumes
    # e - 1 at the candidate after its current image.
    e, start = 1, 1
    while 0 < e <= m:
        source_tree = e in in_t1
        for cand in range(start, m + 1):
            if not used[cand] and (cand in in_t2) == source_tree and consistent(e, cand):
                image[e] = cand
                used[cand] = True
                e, start = e + 1, 1
                break
        else:
            e -= 1
            if e:
                used[image[e]] = False
                start = image[e] + 1
    if e == 0:
        return None
    mapping = tuple(image[1:])
    if not _maps_cycle_space(g1, g2, mapping):
        return None
    return mapping


def _maps_cycle_space(g1, g2, mapping):
    basis1 = cycle_space_gf2(g1)
    basis2 = gf2_reduce(cycle_space_gf2(g2))
    if len(gf2_reduce(basis1)) != len(basis2):
        return False
    for vec in basis1:
        moved = 0
        for i in range(g1.edge_count):
            if (vec >> i) & 1:
                moved |= 1 << (mapping[i] - 1)
        if not gf2_in_span(moved, basis2):
            return False
    return True


# -- reusable boolean checks -------------------------------------------------


def koszul_identity_ok(b, simple):
    """Pairing transport check, entrywise on full Gram matrices.

    Compares the simple-basis Gram of b with the projective-basis Gram of
    the flipped dual under the substitution q -> -q^-1 t.  The simple
    classes are the columns C of G^-1, so their Gram C* G C is
    simple = star(G^-1) once G G^-1 = I, which the simples_match_inverse
    check of bipartite_checks tests on the same input.
    """
    db = dual(b)
    pos_d = {v: i for i, v in enumerate(vertex_order(db))}
    idx = [pos_d[v] for v in vertex_order(b)]
    return simple == k0_gram(db).submatrix(idx, idx).map(koszul_substitute)


def specialization_matches_classical(b, simple):
    """Euler pairings at q = 1, t = -1 equal the integer flow/cut Grams.

    The flow pairings are the part1 block of G and the cut pairings the
    part0 block of the simple Gram, simple = star(G^-1).
    """
    n0 = len(b.part0)
    p0, p1 = range(n0), range(n0, n0 + len(b.part1))
    flow = k0_gram(b).submatrix(p1, p1).specialize_t(-1).eval_q(1)
    cut = simple.submatrix(p0, p0).specialize_t(-1).eval_q(1)
    return flow == classical_gram(b, "flow") and cut == classical_gram(b, "cut")


def lattice_routes_agree(b):
    """Closed-form cut/flow Grams equal the graded-algebra restrictions."""
    return (flow_qlattice(b).gram.entries == flow_gram_from_algebra(b).entries
            and cut_qlattice(b).gram.entries == cut_gram_from_algebra(b).entries)


def flow_cut_duality_ok(b):
    """Flow lattice of b equals cut lattice of the flipped dual, and back.

    QLattice equality compares the integer data (k, S).
    """
    db = dual(b)
    return flow_qlattice(b) == cut_qlattice(db) and cut_qlattice(b) == flow_qlattice(db)


def sign_duality_ok(g, t):
    """Tree edge i sits in cycle C_j exactly opposite to j's sign in cut K_i."""
    cotree = [e for e in range(1, g.edge_count + 1) if e not in t.tree_edges]
    cuts = {i: fundamental_cut(g, t, i) for i in sorted(t.tree_edges)}
    for j in cotree:
        cyc = fundamental_cycle(g, t, j)
        for i in t.tree_edges:
            if cyc[i - 1] != -cuts[i][j - 1]:
                return False
        for i in sorted(t.tree_edges):
            if sum(a * bb for a, bb in zip(cyc, cuts[i])) != 0:
                return False
    return True


def bipartite_matches_graph(g, t, b):
    """b_cycle/b_cut agree with the graph-level fundamental vectors."""
    for j in b.part1:
        cyc = fundamental_cycle(g, t, j)
        vec = b_cycle(b, j)
        for eid in range(1, g.edge_count + 1):
            want = cyc[eid - 1] if (eid in t.tree_edges or eid == j) else 0
            if vec.get(eid, 0) != want:
                return False
    for i in b.part0:
        cut = fundamental_cut(g, t, i)
        vec = b_cut(b, i)
        for eid in range(1, g.edge_count + 1):
            want = cut[eid - 1] if (eid not in t.tree_edges or eid == i) else 0
            if vec.get(eid, 0) != want:
                return False
    return True


def bipartite_checks(b):
    """The checks that need only the signed bipartite graph.

    G G^-1 and the simple Gram star(G^-1) are formed once.  G comes from
    the path count (algebra.path_basis) and G^-1 from the linear
    resolutions (algebra.k0_gram_inverse), so simples_match_inverse, the
    whole product against I, compares two independent routes.  The
    product's (part1, part0) block holds the Euler pairings of the part1
    projectives (flow generators) with the part0 simples (cut
    generators), which glue_orthogonal requires to vanish.
    glue_dets_equal compares the flow and cut determinants after unit
    normalization, and glue_k0_unimodular requires det G = 1.
    """
    g, ginv = k0_gram(b), k0_gram_inverse(b)
    product = g * ginv
    simple = ginv.star()
    n0 = len(b.part0)
    return {
        "glue_orthogonal": all(not x for row in product.entries[n0:] for x in row[:n0]),
        "glue_dets_equal": normalized_det(flow_qlattice(b)) == normalized_det(cut_qlattice(b)),
        "glue_k0_unimodular": g.det() == QTElement.one(),
        "classical_specialization": specialization_matches_classical(b, simple),
        "lattice_routes_agree": lattice_routes_agree(b),
        "flow_cut_duality": flow_cut_duality_ok(b),
        "koszul_identity": koszul_identity_ok(b, simple),
        "simples_match_inverse": product == QMatrix.identity(product.rows, QTElement.one()),
    }


def instance_checks(g, t):
    """The standard per-instance check battery for one (graph, tree) pair:
    the bipartite checks plus the graph-only ones."""
    b = build_bipartite(g, t, force=True)
    cut = cut_qlattice(b)
    q0, det_q0 = q_matrix_tree(g, t)
    _, det_norm = det_q0.normalize_unit()
    tm = cut_basis_change(g, t)
    return {
        "matrix_tree_det_vs_enum": det_norm == matrix_tree_enum_oracle(g, t),
        "matrix_tree_det_vs_cut": det_norm == normalized_det(cut),
        **bipartite_checks(b),
        "sign_duality": sign_duality_ok(g, t),
        "bipartite_matches_graph": bipartite_matches_graph(g, t, b),
        "cut_basis_change": (tm.transpose() * q0 * tm).entries == cut.gram.entries,
    }


@dataclass(frozen=True)
class Q2IsoReport:
    flow_iso: bool
    two_iso: bool
    cut_iso: bool
    flow_witness: object
    two_iso_witness: object
    cut_witness: object

    @property
    def agree(self):
        return self.flow_iso == self.two_iso == self.cut_iso


@dataclass(frozen=True)
class Q2IsoInstance:
    """What verify_q2iso_pair compares of one (graph, tree) instance."""
    flow: QLattice
    cut: QLattice
    incidence: _Incidence


def q2iso_instance(g, t):
    """The q-flow and q-cut lattices of (g, t) and its fundamental incidence.

    The theorem is only stated for loopless 2-edge-connected graphs;
    anything else is rejected rather than tested outside its hypotheses.
    The incidence is walked from fundamental_cycle on g, not read off the
    bipartite graph, so the two-isomorphism predicate stays independent
    of build_bipartite.
    """
    b = build_bipartite(g, t)
    if any(g.is_loop(e) for e in range(1, g.edge_count + 1)):
        raise ValueError("hypotheses violated: graph has a loop")
    return Q2IsoInstance(flow_qlattice(b), cut_qlattice(b), _incidence(g, t))


def verify_q2iso_pair(x, y):
    """All three equivalent predicates on two q2iso_instance records."""
    fw = decide_iso(x.flow, y.flow)
    cw = decide_iso(x.cut, y.cut)
    tw = _least_two_iso(x.incidence, y.incidence)
    return Q2IsoReport(fw is not None, tw is not None, cw is not None, fw, tw, cw)
