"""Labeled matrices over the exact coefficient rings.

Entries are homogeneous per matrix: Python ints, LaurentPoly, QTElement or
QFraction.  Determinants use Bareiss fraction-free elimination after
clearing q-denominators row by row (tracking the extracted unit), with a
cofactor fallback for very small matrices; matrices over the t-ring are
split at t = 1 and t = -1 and recombined, since that ring has zero
divisors and admits no fraction-free pivoting.
"""

from __future__ import annotations

from .laurent import LaurentPoly, QTElement, QFraction


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
            cols = list(zip(*other.entries)) if other.entries else []
            out = []
            for row in self.entries:
                out_row = []
                for col in cols:
                    acc = None
                    for a, b in zip(row, col):
                        term = a * b
                        acc = term if acc is None else acc + term
                    out_row.append(acc)
                out.append(out_row)
            return QMatrix(out, self.row_labels, other.col_labels)
        return self.map(lambda x: x * other)

    def mul_vector(self, vec):
        """Matrix times a column vector (a sequence of ring elements)."""
        if self.cols != len(vec):
            raise ValueError("dimension mismatch")
        out = []
        for row in self.entries:
            acc = None
            for a, b in zip(row, vec):
                term = a * b
                acc = term if acc is None else acc + term
            out.append(acc)
        return tuple(out)

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
