"""q-lattices: Gram matrices I + q^k S over Z[q,q^-1] and their invariants.

A q-lattice is stored as its integer data: an exponent k != 0 and an
integer symmetric S, with labeled basis; the Laurent Gram is derived.
Such a Gram is never degenerate, because det(I + y S) is a polynomial in
y with constant term 1; normalized_det reads its coefficients off S with
the integer kernel matrices.det_one_plus_xs and never forms the Laurent
Gram.  The cut and flow lattices of a signed bipartite graph have k = 2
and S = C - I, with C the classical integer Gram of the fundamental
cycles (flow) or cuts (cut) v_i:

    diag 1 + (|v_i|^2 - 1) q^2,   off-diag <v_i, v_j> q^2

and are cross-checked against the graded-algebra route (the part1 block
of the Gram matrix, resp. the part0 block of its inverse, at t = -1).
Bases of this shape are rigid: any vector of norm 1 + c q^k is a unit
multiple of a basis vector.  Proof: <x, x> = A + q^k P with
A = sum bar(x_i) x_i and P = sum S_ij bar(x_i) x_j, both bar-invariant as
S is symmetric; 1 + c q^k = A + q^k P and its bar give
(q^2k - 1)(c - P) = 0, so A = 1; the constant term of A is the sum of the
squares of all coefficients of x, so x = +-q^j e_i.  Lattice isomorphism
thus reduces to a signed-permutation search over the integer matrices S
(unit factors cancel within each connected block of S).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import k0_gram, k0_gram_inverse
from .bipartite import classical_gram
from .laurent import LaurentPoly, dot
from .matrices import QMatrix, det_one_plus_xs, ring_bar, ring_one, ring_zero


class QLattice:
    """The lattice with Gram I + q^k S on the labeled basis.

    S is a square symmetric integer matrix (a tuple of int tuples); k is
    None when S = 0 and nonzero otherwise, so det(I + q^k S) = 1 + O(q^k)
    (in q^-1 when k < 0) is never zero.
    """

    __slots__ = ("k", "s", "basis_labels", "_gram", "_det")

    def __init__(self, k, s, basis_labels):
        s = tuple(tuple(row) for row in s)
        n = len(s)
        if any(len(row) != n or not all(isinstance(x, int) for x in row) for row in s):
            raise ValueError("S must be a square integer matrix")
        if any(s[i][j] != s[j][i] for i in range(n) for j in range(i)):
            raise ValueError("S is not symmetric")
        if not any(any(row) for row in s):
            k = None
        elif not k:
            raise ValueError("exponent k must be nonzero when S != 0")
        basis_labels = tuple(basis_labels)
        if len(basis_labels) != n or len(set(basis_labels)) != n:
            raise ValueError("need one distinct label per basis vector")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "basis_labels", basis_labels)

    def __setattr__(self, name, value):
        raise AttributeError("QLattice is immutable")

    @property
    def rank(self):
        return len(self.s)

    @property
    def gram(self):
        """I + q^k S over Z[q,q^-1], built on first use."""
        if not hasattr(self, "_gram"):
            k = self.k or 0  # k is None only when S = 0
            ent = [[LaurentPoly.q_power(k, x) + 1 if i == j else LaurentPoly.q_power(k, x)
                    for j, x in enumerate(row)] for i, row in enumerate(self.s)]
            object.__setattr__(self, "_gram", QMatrix(ent, self.basis_labels, self.basis_labels))
        return self._gram

    def pairing(self, x, y):
        """<x, y> for coordinate vectors over Z[q,q^-1] (left anti-linear)."""
        return dot([ring_bar(a) for a in x], self.gram.mul_vector(tuple(y)),
                   LaurentPoly.zero())

    def __eq__(self, other):
        if not isinstance(other, QLattice):
            return NotImplemented
        return (self.k, self.s) == (other.k, other.s)

    def __repr__(self):
        return f"QLattice(rank={self.rank}, labels={list(self.basis_labels)})"


def _fundamental_qlattice(b, side):
    """I + q^2 (C - I), with C the classical integer Gram of the side."""
    c = classical_gram(b, side)
    s = [[x - 1 if i == j else x for j, x in enumerate(row)]
         for i, row in enumerate(c.entries)]
    return QLattice(2, s, c.row_labels)


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


def normalized_det(lat):
    """Canonical representative of det(Gram) modulo the units +-q^k.

    det(I + q^k S) = sum_i e_i q^(k i) with e_i = det_one_plus_xs(S)[i];
    it is computed on first use and held on the lattice, which is
    immutable, like the Gram.
    """
    if not hasattr(lat, "_det"):
        if lat.k is None:  # S = 0, rank 0 included
            det = LaurentPoly.one()
        else:
            e = det_one_plus_xs(lat.s)
            full = LaurentPoly.from_terms((lat.k * i, c) for i, c in enumerate(e))
            _, det = full.normalize_unit()
        object.__setattr__(lat, "_det", det)
    return lat._det


@dataclass(frozen=True)
class SignedPermutation:
    """sigma maps source index -> target index; signs follow the source."""

    perm: tuple
    signs: tuple

    def matrix(self, sample=1):
        n = len(self.perm)
        one, zero = ring_one(sample), ring_zero(sample)
        ent = [[zero] * n for _ in range(n)]
        for i, (p, s) in enumerate(zip(self.perm, self.signs)):
            ent[p][i] = one if s > 0 else -one
        return QMatrix(ent)

    def __len__(self):
        return len(self.perm)


def change_basis(lat, sp):
    """Re-present the lattice in the basis moved by the signed permutation.

    The Gram becomes P* A P for P = sp.matrix(), that is
    S'_ij = s_i s_j S_{perm i, perm j}, with the same exponent and labels.
    """
    n = lat.rank
    if sorted(sp.perm) != list(range(n)) or [abs(x) for x in sp.signs] != [1] * n:
        raise ValueError("change of basis must be a signed permutation of matching rank")
    p, sg, s = sp.perm, sp.signs, lat.s
    return QLattice(lat.k, [[sg[i] * sg[j] * s[p[i]][p[j]] for j in range(n)]
                            for i in range(n)], lat.basis_labels)


def decide_iso(lat1, lat2):
    """Signed permutation P with gram2 = P* gram1 P, or None.

    Both lattices must be presented in rigid-shape bases; completeness
    then follows because any isomorphism takes basis vectors to signed
    basis vectors.  The witness returned is the lexicographically least
    one under (target index, sign with + before -) per source index.
    """
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

    # Iterative depth-first search over i = 0..n-1; choice 2 * cand + (sign < 0)
    # orders the candidates.  A dead end at i resumes i - 1 at the choice after
    # its current one.
    i, start = 0, 0
    while 0 <= i < n:
        for choice in range(start, 2 * n):
            cand, sign = choice >> 1, -1 if choice & 1 else 1
            if not used[cand] and ok(i, cand, sign):
                perm[i], signs[i] = cand, sign
                used[cand] = True
                i, start = i + 1, 0
                break
        else:
            i -= 1
            if i >= 0:
                used[perm[i]] = False
                start = 2 * perm[i] + (signs[i] < 0) + 1
    if i < 0:
        return None
    return SignedPermutation(tuple(perm), tuple(signs))
