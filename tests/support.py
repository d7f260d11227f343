"""Test-only helpers: random sign matrices, vertex switching, the
per-entry path rule for the graded Gram, and the brute-force canonical
form behind the flow/cut split-pair search.

No qlat command reaches these; the tests import them from here.
"""

import random
from itertools import combinations_with_replacement, permutations, product

from qlat.bipartite import SignedBipartiteGraph
from qlat.lattices import cut_qlattice, flow_qlattice
from qlat.laurent import QTElement


# -- random sign matrices -------------------------------------------------------


def random_signed_bipartite(rng, n0, n1, edge_prob=0.6):
    """A random sign matrix on parts of sizes n0 and n1."""
    part0 = range(1, n0 + 1)
    part1 = range(n0 + 1, n0 + n1 + 1)
    signs = {}
    for i in part0:
        for j in part1:
            if rng.random() < edge_prob:
                signs[(i, j)] = rng.choice((-1, 1))
    return SignedBipartiteGraph(part0, part1, signs)


def random_signed_bipartites(seed, count, max_part0, max_part1):
    """A reproducible stream of random signed bipartite graphs."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n0 = rng.randint(0, max_part0)
        n1 = rng.randint(0, max_part1)
        out.append(random_signed_bipartite(rng, n0, n1))
    return out


def bipartite_split_instances(seed, per_split, max_vertices):
    """Random-sign instances covering every part-size split up to max_vertices."""
    rng = random.Random(seed)
    out = []
    for total in range(1, max_vertices + 1):
        for n0 in range(0, total + 1):
            n1 = total - n0
            for _ in range(per_split):
                out.append(random_signed_bipartite(rng, n0, n1))
    return out


# -- the per-entry path rule ---------------------------------------------------


def hom_rule(b, i, j):
    """Hom(P_i, P_j) by the per-entry path rule: idempotent, arrow, then
    the length-2 paths i -> k -> j through part0 vertices k, between part1
    vertices.  algebra.k0_gram sums path_basis instead."""
    p0 = set(b.part0)
    parity = {key: 0 if s > 0 else 1 for key, s in b.signs.items()}
    total = QTElement.one() if i == j else QTElement.zero()
    if (i in p0) != (j in p0):
        key = (i, j) if i in p0 else (j, i)
        if key in parity:
            total = total + QTElement.monomial(1, 1, parity[key])
    elif i not in p0:
        for k in b.part0:
            if (k, i) in parity and (k, j) in parity:
                total = total + QTElement.monomial(
                    1, 2, (parity[(k, i)] + parity[(k, j)]) % 2)
    return total


def switch_vertex(b, v):
    """Negate all signs incident to v (reorienting one underlying edge)."""
    if v not in set(b.part0) and v not in set(b.part1):
        raise ValueError(f"unknown vertex {v}")
    flipped = {
        (i, j): (-s if v in (i, j) else s) for (i, j), s in b.signs.items()}
    return SignedBipartiteGraph(b.part0, b.part1, flipped)


# -- the flow/cut split-pair search ------------------------------------------


def lattice_canonical_form(lat):
    """Canonical representative of the rigid coefficient matrix.

    Minimizes the integer matrix S (Gram = I + q^k S) over simultaneous
    signed permutations; two rigid-shape lattices are isomorphic exactly
    when their canonical forms (and exponents) agree.  Exponential in the
    rank, fine at desk scale.
    """
    k, c = lat.k, lat.s
    n = lat.rank
    best = None
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            cand = tuple(tuple(signs[i] * signs[j] * c[perm[i]][perm[j]]
                               for j in range(n)) for i in range(n))
            if best is None or cand < best:
                best = cand
    return k, best


def find_flow_cut_split_pair(max_part0=2, max_part1=2, limit=1, guided=True):
    """Search for signed bipartite graphs with the same q-flow lattice but
    different q-cut lattices.

    No such pair exists among graphical inputs (there the two lattices
    determine each other), so any hit is necessarily non-graphical.  The
    exhaustive sweep compares canonical lattice forms over all sign
    matrices within the given part sizes; it comes up empty through 3+3.
    The guided phase then sweeps 4+4 sign matrices whose columns are
    roots e_i +- e_j, pairing each with its image under the orthogonal
    transform H/2 (H the 4x4 sign Hadamard matrix): that transform
    permutes such columns, so it preserves the column Gram (the q-flow
    data) while it may change the row Gram (the q-cut data).
    """
    found = []
    for n0 in range(1, max_part0 + 1):
        for n1 in range(1, max_part1 + 1):
            cells = [(i, n0 + j) for i in range(1, n0 + 1)
                     for j in range(1, n1 + 1)]
            by_flow = {}
            for signs in product((0, 1, -1), repeat=len(cells)):
                sm = {c: s for c, s in zip(cells, signs) if s}
                b = SignedBipartiteGraph(range(1, n0 + 1),
                                         range(n0 + 1, n0 + n1 + 1), sm)
                fkey = lattice_canonical_form(flow_qlattice(b))
                ckey = lattice_canonical_form(cut_qlattice(b))
                bucket = by_flow.setdefault(fkey, {})
                if any(other_ckey != ckey for other_ckey in bucket):
                    other = next(bb for other_ckey, bb in bucket.items()
                                 if other_ckey != ckey)
                    found.append((other, b))
                    if len(found) >= limit:
                        return found
                bucket.setdefault(ckey, b)
    if not guided or len(found) >= limit:
        return found

    hadamard = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))

    def half_image(col):
        out = []
        for row in hadamard:
            s = sum(r * c for r, c in zip(row, col))
            if s % 2 or abs(s) > 2:
                return None
            out.append(s // 2)
        return tuple(out)

    def as_bipartite(cols):
        signs = {}
        for j, col in enumerate(cols):
            for i, s in enumerate(col):
                if s:
                    signs[(i + 1, 5 + j)] = s
        return SignedBipartiteGraph((1, 2, 3, 4), (5, 6, 7, 8), signs)

    roots = []
    for i in range(4):
        for j in range(i + 1, 4):
            for s in (1, -1):
                vec = [0, 0, 0, 0]
                vec[i], vec[j] = 1, s
                roots.append(tuple(vec))
    for cols in combinations_with_replacement(roots, 4):
        images = [half_image(c) for c in cols]
        if any(im is None for im in images):
            continue
        b1 = as_bipartite(cols)
        b2 = as_bipartite(images)
        if any(not b1.neighbors(v) or not b2.neighbors(v)
               for v in (1, 2, 3, 4)):
            continue
        if (lattice_canonical_form(cut_qlattice(b1))
                != lattice_canonical_form(cut_qlattice(b2))):
            # columns were carried by an orthogonal map, so the flow
            # lattices agree; assert rather than assume
            if (lattice_canonical_form(flow_qlattice(b1))
                    == lattice_canonical_form(flow_qlattice(b2))):
                found.append((b1, b2))
                if len(found) >= limit:
                    return found
    return found
