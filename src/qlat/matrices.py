"""Labeled matrices over the exact coefficient rings, and the integer
kernel behind every lattice determinant.

Entries are homogeneous per matrix: Python ints, LaurentPoly, QTElement or
QFraction.  Each entry of a product is one laurent.dot.  Determinants use
Bareiss fraction-free elimination after clearing q-denominators row by
row (tracking the extracted unit), with a cofactor fallback for very
small matrices; matrices over the t-ring are split at t = 1 and t = -1
and recombined, since that ring has zero divisors and admits no
fraction-free pivoting.

det_one_plus_xs(S) gives the coefficients of det(I + x S) for a symmetric
integer S, by Hessenberg reduction modulo primes and the Chinese
remainder theorem; a q-lattice's determinant is that polynomial at
x = q^k, so no Laurent arithmetic is involved.
"""

from __future__ import annotations

from math import prod
from operator import mul

from .laurent import LaurentPoly, QTElement, QFraction, dot


def ring_zero(sample):
    if isinstance(sample, int):
        return 0
    return type(sample).zero()


def ring_one(sample):
    if isinstance(sample, int):
        return 1
    return type(sample).one()


def ring_bar(x):
    if isinstance(x, int):
        return x
    return x.bar()


def ring_is_zero(x):
    if isinstance(x, int):
        return x == 0
    return x.is_zero()


class QMatrix:
    """A rectangular matrix with unique row and column labels."""

    __slots__ = ("entries", "row_labels", "col_labels")

    def __init__(self, entries, row_labels=None, col_labels=None):
        entries = tuple(tuple(row) for row in entries)
        rows = len(entries)
        width = len(entries[0]) if entries else None
        if any(len(row) != width for row in entries):
            raise ValueError("ragged matrix")
        if row_labels is None:
            row_labels = tuple(range(1, rows + 1))
        if col_labels is None:
            col_labels = tuple(range(1, (width or 0) + 1))
        row_labels, col_labels = tuple(row_labels), tuple(col_labels)
        # a matrix with no rows still knows its column count from the labels
        cols = width if width is not None else len(col_labels)
        if len(row_labels) != rows or len(col_labels) != cols:
            raise ValueError("label count does not match dimensions")
        if len(set(row_labels)) != rows or len(set(col_labels)) != cols:
            raise ValueError("duplicate labels")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "row_labels", row_labels)
        object.__setattr__(self, "col_labels", col_labels)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @classmethod
    def identity(cls, n, sample=1, labels=None):
        one, zero = ring_one(sample), ring_zero(sample)
        ent = [[one if i == j else zero for j in range(n)] for i in range(n)]
        return cls(ent, labels, labels)

    @property
    def rows(self):
        return len(self.row_labels)

    @property
    def cols(self):
        return len(self.col_labels)

    def is_square(self):
        return self.rows == self.cols

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def sample(self):
        """Any entry, used for ring dispatch; identity int for empty matrices."""
        return self.entries[0][0] if self.entries else 1

    def map(self, fn):
        return QMatrix([[fn(x) for x in row] for row in self.entries],
                       self.row_labels, self.col_labels)

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch")
        return QMatrix([[a + b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.entries, other.entries)],
                       self.row_labels, self.col_labels)

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch")
        return QMatrix([[a - b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.entries, other.entries)],
                       self.row_labels, self.col_labels)

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            if self.cols != other.rows:
                raise ValueError("dimension mismatch")
            cols = list(zip(*other.entries)) if other.entries else [()] * other.cols
            return QMatrix([[dot(row, col) for col in cols] for row in self.entries],
                           self.row_labels, other.col_labels)
        return self.map(lambda x: x * other)

    def mul_vector(self, vec):
        """Matrix times a column vector (a sequence of ring elements)."""
        if self.cols != len(vec):
            raise ValueError("dimension mismatch")
        return tuple(dot(row, vec) for row in self.entries)

    def transpose(self):
        if not self.entries:
            return QMatrix([() for _ in self.col_labels],
                           self.col_labels, self.row_labels)
        return QMatrix(list(zip(*self.entries)), self.col_labels, self.row_labels)

    def star(self):
        """Transpose composed with the entrywise involution q -> q^-1."""
        return self.transpose().map(ring_bar)

    def minor(self, drop_row, drop_col):
        ent = [[x for j, x in enumerate(row) if j != drop_col]
               for i, row in enumerate(self.entries) if i != drop_row]
        rl = tuple(l for i, l in enumerate(self.row_labels) if i != drop_row)
        cl = tuple(l for j, l in enumerate(self.col_labels) if j != drop_col)
        return QMatrix(ent, rl, cl)

    def submatrix(self, row_idx, col_idx):
        ent = [[self.entries[i][j] for j in col_idx] for i in row_idx]
        return QMatrix(ent, tuple(self.row_labels[i] for i in row_idx),
                       tuple(self.col_labels[j] for j in col_idx))

    # -- determinant ------------------------------------------------------

    def det(self):
        """Exact determinant; raises on non-square input."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return ring_one(self.sample())
        sample = self.sample()
        if isinstance(sample, QTElement):
            return _det_qt(self.entries)
        if n <= 4:
            return _det_cofactor(self.entries, ring_zero(sample))
        if isinstance(sample, LaurentPoly):
            return _det_bareiss_laurent(self.entries)
        if isinstance(sample, int):
            return _det_bareiss(self.entries, 0, lambda a, b: a // b)
        if isinstance(sample, QFraction):
            return _det_bareiss(self.entries, QFraction.zero(), lambda a, b: a / b)
        raise TypeError(f"no determinant for entries of type {type(sample)}")

    # -- inverse ----------------------------------------------------------

    def inverse(self, mode="unit"):
        """Exact inverse.

        "unit" mode requires the determinant to be a unit and stays in the
        entry ring via the adjugate; "fraction" mode returns QFraction
        entries for any nonsingular matrix over Z[q,q^-1].
        """
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        if mode == "unit":
            return self._inverse_unit()
        if mode == "fraction":
            return self._inverse_fraction()
        raise ValueError(f"unknown inverse mode {mode!r}")

    def _inverse_unit(self):
        n = self.rows
        d = self.det()
        if ring_is_zero(d):
            raise ValueError("singular matrix")
        inv_unit = _unit_inverse(d)
        if inv_unit is None:
            raise ValueError(
                "determinant is not a unit; use fraction mode for this matrix")
        if n == 0:
            return self
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                cof = self.minor(j, i).det()
                if (i + j) % 2:
                    cof = -cof
                out[i][j] = cof * inv_unit
        return QMatrix(out, self.col_labels, self.row_labels)

    def _inverse_fraction(self):
        n = self.rows
        sample = self.sample()
        if isinstance(sample, QTElement):
            raise TypeError("the t-ring has no fraction field")
        if n == 0:
            return QMatrix([], self.col_labels, self.row_labels)
        to_frac = (lambda x: x) if isinstance(sample, QFraction) else QFraction
        a = [[to_frac(x) for x in row] for row in self.entries]
        inv = [[QFraction.one() if i == j else QFraction.zero() for j in range(n)]
               for i in range(n)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
            if pivot is None:
                raise ValueError("singular matrix")
            a[col], a[pivot] = a[pivot], a[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
            p = a[col][col]
            a[col] = [x / p for x in a[col]]
            inv[col] = [x / p for x in inv[col]]
            for r in range(n):
                if r != col and not a[r][col].is_zero():
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                    inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
        return QMatrix(inv, self.col_labels, self.row_labels)

    # -- conversions --------------------------------------------------------

    def specialize_t(self, t_val):
        """Entrywise t specialization of a QTElement matrix."""
        return self.map(lambda x: x.specialize(t_val=t_val))

    def eval_q(self, q_val):
        """Entrywise integer evaluation of a LaurentPoly matrix at q = +-1."""
        return self.map(lambda x: x.eval_at(q_val))

    def to_json(self):
        def enc(x):
            return x if isinstance(x, int) else x.to_json()
        return {
            "rows": self.rows,
            "cols": self.cols,
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "entries": [[enc(x) for x in row] for row in self.entries],
        }

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols})"


def _unit_inverse(d):
    """Inverse of +-q^k (or +-q^k t); None when d is not such a unit."""
    if isinstance(d, int):
        return d if d in (1, -1) else None
    if isinstance(d, LaurentPoly):
        u = d.unit_value()
        if u is None:
            return None
        s, k = u
        return LaurentPoly.q_power(-k, s)
    if isinstance(d, QTElement):
        u = d.unit_value()
        if u is None:
            return None
        s, k, e = u
        return QTElement.monomial(s, -k, e)
    if isinstance(d, QFraction):
        return d.inverse() if not d.is_zero() else None
    return None


def _det_cofactor(entries, zero):
    n = len(entries)
    if n == 1:
        return entries[0][0]
    if n == 2:
        return entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
    total = None
    for j in range(n):
        a = entries[0][j]
        if ring_is_zero(a):
            continue
        sub = [[row[k] for k in range(n) if k != j] for row in entries[1:]]
        term = a * _det_cofactor(sub, zero)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return zero if total is None else total


def _det_bareiss(entries, zero, divide):
    """Fraction-free elimination; divide must be exact in the entry ring."""
    a = [list(row) for row in entries]
    n = len(a)
    sign = 1
    prev = None
    for k in range(n - 1):
        if ring_is_zero(a[k][k]):
            pivot = next((r for r in range(k + 1, n) if not ring_is_zero(a[r][k])), None)
            if pivot is None:
                return zero
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num if prev is None else divide(num, prev)
            a[i][k] = zero
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return d if sign == 1 else -d


def _det_bareiss_laurent(entries):
    """Bareiss over Z[q,q^-1]: clear each row to plain polynomials first."""
    shift_total = 0
    cleared = []
    for row in entries:
        degs = [x.min_deg for x in row if not x.is_zero()]
        if not degs:
            return LaurentPoly.zero()
        s = min(degs)
        shift_total += s
        cleared.append([x.shift(-s) for x in row])
    d = _det_bareiss(cleared, LaurentPoly.zero(), lambda a, b: a.divexact(b))
    return d.shift(shift_total)


def _det_qt(entries):
    """Determinant over Z[q,q^-1,t]/(t^2-1) via the t = +-1 specializations.

    The specialization images determine the element: even and odd parts are
    recovered by exact halving.
    """
    plus = [[x.specialize(t_val=1) for x in row] for row in entries]
    minus = [[x.specialize(t_val=-1) for x in row] for row in entries]
    n = len(entries)
    if n <= 4:
        dp = _det_cofactor(plus, LaurentPoly.zero())
        dm = _det_cofactor(minus, LaurentPoly.zero())
    else:
        dp = _det_bareiss_laurent(plus)
        dm = _det_bareiss_laurent(minus)
    even = _half(dp + dm)
    odd = _half(dp - dm)
    return QTElement(even, odd)


def _half(p):
    if any(c % 2 for c in p.coeffs):
        raise ArithmeticError("t-ring determinant recombination is not integral")
    return LaurentPoly(p.min_deg, tuple(c // 2 for c in p.coeffs))


# -- det(I + x S) over the integers --------------------------------------

# The 48 largest primes below 2^81.  Below 3.3e24 > 2^81, Miller-Rabin with
# the 13 prime bases 2..41 proves primality (J. Sorenson and J. Webster,
# Math. Comp. 86 (2017) 985-1003); tests/test_matrices.py runs it on each.
# Python ints of this size cost little more per operation than 62-bit ones,
# so fewer, larger primes are faster.
_PRIMES = tuple((1 << 81) - d for d in (
    51, 63, 163, 205, 333, 349, 429, 433, 481, 553, 625, 661, 685, 795, 885, 909,
    933, 1033, 1053, 1083, 1155, 1221, 1255, 1269, 1341, 1371, 1389, 1449, 1501,
    1533, 1593, 1621, 1749, 1761, 1783, 1789, 1803, 1815, 1875, 1941, 1959, 1969,
    1995, 2043, 2061, 2065, 2071, 2173))


class CRTBoundError(ValueError):
    """det_one_plus_xs refuses S: its coefficient bound is past the CRT primes."""


def det_one_plus_xs(s):
    """Coefficients [e_0, ..., e_r] of det(I + x S) for a symmetric integer S.

    e_i is the sum of the principal i x i minors of S, so the list is the
    characteristic polynomial det(t I + S) read from its top coefficient.
    Each prime costs one Hessenberg reduction and recurrence, O(r^3)
    (H. Cohen, A Course in Computational Algebraic Number Theory, GTM 138,
    Alg. 2.2.9); the residues are combined by CRT.  The eigenvalues l of S
    are real, so sum |e_i| <= prod (1 + |l|) <= sqrt(2^r det(I + S^2)), and
    Hadamard's inequality bounds det(I + S^2) by prod_rows (1 + |row|^2);
    primes are taken until the modulus exceeds twice that bound.
    """
    r = len(s)
    if any(len(row) != r for row in s) or any(
            s[i][j] != s[j][i] for i in range(r) for j in range(i)):
        raise ValueError("det(I + xS) needs a square symmetric S")
    bound = 4 << r  # the square of twice the coefficient bound
    for row in s:
        bound *= 1 + sum(x * x for x in row)
    if prod(_PRIMES) ** 2 <= bound:
        raise CRTBoundError(f"det(I + xS) of rank {r}: coefficient bound too large "
                            f"for {len(_PRIMES)} CRT primes")
    primes = iter(_PRIMES)
    res, mod = [0] * (r + 1), 1
    while mod * mod <= bound:
        p = next(primes)
        inv = pow(mod, -1, p)
        res = [a + mod * ((e - a) * inv % p)
               for a, e in zip(res, reversed(_charpoly_mod(s, p)))]
        mod *= p
    return [a - mod if 2 * a > mod else a for a in res]


def _charpoly_mod(s, p):
    """det(t I + S) mod p, coefficients from t^0 up.

    -S is brought to upper Hessenberg form H by similarity, then
    p_0 = 1, p_m = (t - h_mm) p_(m-1) - sum_(i<m) h_im h_(i+1,i)..h_(m,m-1) p_(i-1).
    """
    n = len(s)
    h = [[-x % p for x in row] for row in s]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        # rows i > m lose u_i times row m, then column m gains sum_i u_i column i
        # (the inverse column operations, which commute with each other)
        tail = h[m][m - 1:]
        inv = pow(tail[0], -1, p)
        cols, us = [], []
        for i in range(m + 1, n):
            ri = h[i]
            if ri[m - 1]:
                u = ri[m - 1] * inv % p
                ri[m - 1:] = [(a - u * b) % p for a, b in zip(ri[m - 1:], tail)]
                cols.append(i)
                us.append(u)
        if cols:
            for row in h:
                row[m] = (row[m] + sum(map(mul, us, map(row.__getitem__, cols)))) % p
    polys = [[1]]
    for m in range(n):
        new = [0] + polys[m]
        new[:m + 1] = [a - h[m][m] * c for a, c in zip(new, polys[m])]
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            f = h[i][m] * t % p
            if f:
                new[:i + 1] = [a - f * c for a, c in zip(new, polys[i])]
        polys.append([c % p for c in new])
    return polys[n]
