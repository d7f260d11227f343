"""q-lattices: Gram matrices over Z[q,q^-1] and their invariants.

A q-lattice is presented by a nondegenerate Gram matrix with labeled
basis.  The cut and flow lattices of a signed bipartite graph are both
I + q^2 (C - I), with C the classical integer Gram of the fundamental
cycles (flow) or cuts (cut) v_i:

    diag 1 + (|v_i|^2 - 1) q^2,   off-diag <v_i, v_j> q^2

and are cross-checked against the graded-algebra route (the part1 block
of the Gram matrix, resp. the part0 block of its inverse, at t = -1).
Bases of this shape are rigid: any vector of norm 1 + c q^k is a unit
multiple of a basis vector, so lattice isomorphism reduces to a
signed-permutation search over the integer coefficient matrices (unit
factors cancel within each connected block of the coefficient matrix).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import k0_gram, k0_gram_inverse
from .bipartite import classical_gram
from .laurent import LaurentPoly
from .matrices import QMatrix, ring_bar


class QLattice:
    __slots__ = ("gram", "basis_labels")

    def __init__(self, gram, basis_labels=None):
        if not gram.is_square():
            raise ValueError("Gram matrix must be square")
        if basis_labels is None:
            basis_labels = gram.row_labels
        basis_labels = tuple(basis_labels)
        if len(basis_labels) != gram.rows:
            raise ValueError("label count mismatch")
        if gram.rows and gram.det().is_zero():
            raise ValueError("degenerate Gram matrix")
        if gram.rows and gram.eval_q(1).entries != gram.eval_q(1).transpose().entries:
            raise ValueError("Gram matrix is not symmetric at q = 1")
        object.__setattr__(self, "gram", gram.with_labels(basis_labels, basis_labels))
        object.__setattr__(self, "basis_labels", basis_labels)

    def __setattr__(self, name, value):
        raise AttributeError("QLattice is immutable")

    @property
    def rank(self):
        return self.gram.rows

    def pairing(self, x, y):
        """<x, y> for coordinate vectors over Z[q,q^-1] (left anti-linear)."""
        mid = self.gram.mul_vector(tuple(y))
        total = LaurentPoly.zero()
        for a, m in zip(x, mid):
            total = total + ring_bar(a) * m
        return total

    def __eq__(self, other):
        if not isinstance(other, QLattice):
            return NotImplemented
        return self.gram == other.gram

    def __repr__(self):
        return f"QLattice(rank={self.rank}, labels={list(self.basis_labels)})"


def _fundamental_qlattice(b, side):
    """I + q^2 (C - I), with C the classical integer Gram of the side."""
    c = classical_gram(b, side)
    one, qq = LaurentPoly.one(), LaurentPoly.q_power(2)
    ent = [[one + qq * (x - 1) if i == j else qq * x for j, x in enumerate(row)]
           for i, row in enumerate(c.entries)]
    return QLattice(QMatrix(ent, c.row_labels, c.col_labels))


def flow_qlattice(b):
    """q-flow lattice in the fundamental (projective-class) basis."""
    return _fundamental_qlattice(b, "flow")


def cut_qlattice(b):
    """q-cut lattice in the fundamental (simple-class) basis."""
    return _fundamental_qlattice(b, "cut")


def flow_gram_from_algebra(b):
    """Independent route: part1 block of the graded Gram matrix at t = -1."""
    g = k0_gram(b).specialize_t(-1)
    n0 = len(b.part0)
    idx = list(range(n0, n0 + len(b.part1)))
    return g.submatrix(idx, idx)


def cut_gram_from_algebra(b):
    """Independent route: part0 block of the inverse Gram matrix at t = -1.

    The inverse columns are the simple classes; this block carries the
    cut pairings written with positive q-powers.
    """
    ginv = k0_gram_inverse(b).specialize_t(-1)
    idx = list(range(len(b.part0)))
    return ginv.submatrix(idx, idx)


def change_basis(lat, t_mat):
    """Re-present the lattice by an invertible matrix: Gram becomes T* A T."""
    if not t_mat.is_square() or t_mat.rows != lat.rank:
        raise ValueError("change of basis must be square of matching rank")
    d = t_mat.det()
    if _laurent_unit(d) is None:
        raise ValueError("change of basis is not invertible over Z[q,q^-1]")
    new = t_mat.star() * lat.gram * t_mat
    return QLattice(new.with_labels(lat.basis_labels, lat.basis_labels))


def _laurent_unit(d):
    if isinstance(d, int):
        return (d, 0) if d in (1, -1) else None
    return d.unit_value()


def normalized_det(lat):
    """Canonical representative of det(Gram) modulo the units +-q^k."""
    if lat.rank == 0:
        return LaurentPoly.one()
    _, n = lat.gram.det().normalize_unit()
    return n


def is_unimodular(lat):
    if lat.rank == 0:
        return True
    return lat.gram.det().unit_value() is not None


def dual_basis(lat, side):
    """Columns are the dual basis vectors in original coordinates.

    right: <b_i, b_j^dual> = delta; these are the columns of gram^-1.
    left:  <b_i^dual, b_j> = delta; the columns of (gram*)^-1, which for
    the symmetric Gram matrices in play equals bar(gram)^-1.
    """
    if side == "right":
        return lat.gram.inverse("fraction")
    if side == "left":
        return lat.gram.star().inverse("fraction")
    raise ValueError("side must be 'left' or 'right'")


def norm_shape(lat, coords, k=2):
    """Return c when <x, x> = 1 + c q^k exactly, else None."""
    n = lat.pairing(coords, coords)
    diff = n - LaurentPoly.one()
    if diff.is_zero():
        return 0
    terms = list(diff.terms())
    if len(terms) == 1 and terms[0][0] == k:
        return terms[0][1]
    return None


@dataclass(frozen=True)
class SignedPermutation:
    """sigma maps source index -> target index; signs follow the source."""

    perm: tuple
    signs: tuple

    def matrix(self, sample=1):
        n = len(self.perm)
        from .matrices import ring_one, ring_zero
        one, zero = ring_one(sample), ring_zero(sample)
        ent = [[zero] * n for _ in range(n)]
        for i, (p, s) in enumerate(zip(self.perm, self.signs)):
            ent[p][i] = one if s > 0 else -one
        return QMatrix(ent)

    def __len__(self):
        return len(self.perm)


def rigidity_data(lat, k=None):
    """Extract (k, C) with Gram = I + q^k C for an integer symmetric C.

    Raises when any entry falls outside the rigid shape, naming it.
    """
    n = lat.rank
    c = [[0] * n for _ in range(n)]
    one = LaurentPoly.one()
    for i in range(n):
        for j in range(n):
            e = lat.gram[i, j]
            base = e - one if i == j else e
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


def lattice_canonical_form(lat):
    """Canonical representative of the rigid coefficient matrix.

    Minimizes the integer matrix C (Gram = I + q^k C) over simultaneous
    signed permutations; two rigid-shape lattices are isomorphic exactly
    when their canonical forms (and exponents) agree.  Exponential in the
    rank, fine at desk scale.
    """
    from itertools import permutations, product

    k, c = rigidity_data(lat)
    n = lat.rank
    best = None
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            cand = tuple(tuple(signs[i] * signs[j] * c[perm[i]][perm[j]]
                               for j in range(n)) for i in range(n))
            if best is None or cand < best:
                best = cand
    return k, best


def decide_iso(lat1, lat2):
    """Signed permutation P with gram2 = P* gram1 P, or None.

    Both lattices must be presented in rigid-shape bases; completeness
    then follows because any isomorphism takes basis vectors to signed
    basis vectors.  The witness returned is the lexicographically least
    one under (target index, sign with + before -) per source index.
    """
    if lat1.rank != lat2.rank:
        return None
    k1, c1 = rigidity_data(lat1)
    k2, c2 = rigidity_data(lat2)
    if k1 is not None and k2 is not None and k1 != k2:
        return None
    n = lat1.rank
    if n == 0:
        return SignedPermutation((), ())
    if sorted(c1[i][i] for i in range(n)) != sorted(c2[i][i] for i in range(n)):
        return None
    if normalized_det(lat1) != normalized_det(lat2):
        return None

    # lat2 index i is matched to lat1 index perm[i] with sign signs[i]
    perm = [None] * n
    signs = [0] * n
    used = [False] * n

    def ok(i, cand, sign):
        if c2[i][i] != c1[cand][cand]:
            return False
        for j in range(i):
            expect = c2[i][j]
            have = c1[cand][perm[j]] * sign * signs[j]
            if have != expect:
                return False
        return True

    def rec(i):
        if i == n:
            return True
        for cand in range(n):
            if used[cand]:
                continue
            for sign in (1, -1):
                if ok(i, cand, sign):
                    perm[i] = cand
                    signs[i] = sign
                    used[cand] = True
                    if rec(i + 1):
                        return True
                    used[cand] = False
        perm[i] = None
        signs[i] = 0
        return False

    if not rec(0):
        return None
    return SignedPermutation(tuple(perm), tuple(signs))
