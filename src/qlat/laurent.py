"""Exact arithmetic in Z[q,q^-1], in Z[q,q^-1,t]/(t^2-1), and in the
fraction field Q(q).

Laurent polynomials are stored as a minimal degree together with a dense
coefficient run; the zero polynomial is the empty run with min_deg 0, and
for nonzero values the first and last stored coefficients are nonzero.
All coefficients are Python ints, so nothing ever overflows.  The
zero and one of each ring are shared constants.

dot(xs, ys) is the one kernel behind every matrix product, Euler form
and lattice pairing: it sums x_i y_i into one degree -> coefficient
table per t-parity and builds a single canonical element at the end.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from math import gcd as _int_gcd
from operator import mul


def _strip(min_deg, coeffs):
    """Drop leading/trailing zeros, returning the canonical (min_deg, run)."""
    lo = 0
    hi = len(coeffs)
    while hi > lo and coeffs[hi - 1] == 0:
        hi -= 1
    while lo < hi and coeffs[lo] == 0:
        lo += 1
    if lo == hi:
        return 0, ()
    return min_deg + lo, tuple(coeffs[lo:hi])


class LaurentPoly:
    """An element of Z[q,q^-1]."""

    __slots__ = ("min_deg", "coeffs")

    def __init__(self, min_deg=0, coeffs=()):
        md, run = _strip(min_deg, list(coeffs))
        object.__setattr__(self, "min_deg", md)
        object.__setattr__(self, "coeffs", run)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def one(cls):
        return _ONE

    @classmethod
    def from_int(cls, n):
        return cls(0, (n,))

    @classmethod
    def q_power(cls, k, coeff=1):
        """The monomial coeff * q^k."""
        return cls(k, (coeff,))

    @classmethod
    def from_terms(cls, terms):
        """Build from an iterable of (exponent, coefficient) pairs."""
        acc = {}
        for k, c in terms:
            acc[k] = acc.get(k, 0) + c
        acc = {k: c for k, c in acc.items() if c != 0}
        if not acc:
            return cls.zero()
        lo = min(acc)
        hi = max(acc)
        return cls(lo, [acc.get(k, 0) for k in range(lo, hi + 1)])

    # -- basic queries --------------------------------------------------

    @property
    def max_deg(self):
        return self.min_deg + len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, k):
        i = k - self.min_deg
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def terms(self):
        """Yield (exponent, coefficient) for nonzero coefficients, low first."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.min_deg + i, c

    def unit_value(self):
        """Return (sign, k) when self = sign * q^k, else None."""
        if len(self.coeffs) == 1 and self.coeffs[0] in (1, -1):
            return self.coeffs[0], self.min_deg
        return None

    def content(self):
        """The (non-negative) gcd of all coefficients."""
        g = 0
        for c in self.coeffs:
            g = _int_gcd(g, abs(c))
        return g

    # -- ring operations ------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, int):
            return LaurentPoly(0, (x,))
        return NotImplemented

    def __add__(self, other):
        if type(other) is not LaurentPoly:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        lo = min(self.min_deg, other.min_deg)
        hi = max(self.max_deg, other.max_deg)
        out = [0] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            out[self.min_deg - lo + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.min_deg - lo + i] += c
        return LaurentPoly(lo, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.min_deg, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not LaurentPoly:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        # the end coefficients of both runs are nonzero, so are their
        # products: the result is canonical without stripping
        md = self.min_deg + other.min_deg
        if len(a) == 1:
            ca = a[0]
            return _poly(md, tuple([ca * cb for cb in b]))
        if len(b) == 1:
            cb = b[0]
            return _poly(md, tuple([ca * cb for ca in a]))
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        return _poly(md, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            u = self.unit_value()
            if u is None:
                raise ValueError("negative power of a non-unit")
            s, k = u
            return LaurentPoly.q_power(k * n, s if n % 2 else 1)
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.min_deg == other.min_deg and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.min_deg, self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    # -- structural maps -------------------------------------------------

    def bar(self):
        """The involution q -> q^-1."""
        return LaurentPoly(-self.max_deg, tuple(reversed(self.coeffs))) if self.coeffs else self

    def shift(self, k):
        """Multiply by q^k."""
        if self.is_zero():
            return self
        return LaurentPoly(self.min_deg + k, self.coeffs)

    def normalize_unit(self):
        """Split self as unit * normalized.

        The unit is +-q^k; the normalized part has min_deg 0 and a positive
        lowest coefficient.  Zero splits as (1, 0).
        """
        if self.is_zero():
            return LaurentPoly.one(), self
        sign = 1 if self.coeffs[0] > 0 else -1
        unit = LaurentPoly.q_power(self.min_deg, sign)
        return unit, LaurentPoly(0, tuple(sign * c for c in self.coeffs))

    def eval_at(self, q_val):
        """Exact integer evaluation at q = +-1."""
        if q_val == 1:
            return sum(self.coeffs)
        if q_val == -1:
            return sum(c if (self.min_deg + i) % 2 == 0 else -c
                       for i, c in enumerate(self.coeffs))
        raise ValueError("only q = 1 and q = -1 are exact integer points")

    def subst_neg_inv(self):
        """The ring map q -> -q^-1."""
        return LaurentPoly.from_terms(
            (-k, c if k % 2 == 0 else -c) for k, c in self.terms())

    def even_odd_split(self):
        """Split into parts of even and odd q-degree."""
        ev = LaurentPoly.from_terms((k, c) for k, c in self.terms() if k % 2 == 0)
        od = LaurentPoly.from_terms((k, c) for k, c in self.terms() if k % 2 != 0)
        return ev, od

    def divexact(self, other):
        """Exact division; raises ValueError when other does not divide self."""
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        qpoly, rem = _divmod_poly(list(self.coeffs), list(other.coeffs))
        if rem is None or any(rem):
            raise ValueError("inexact polynomial division")
        return LaurentPoly(self.min_deg - other.min_deg, qpoly)

    # -- presentation ----------------------------------------------------

    def to_json(self):
        return {"min_deg": self.min_deg, "coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["min_deg"], obj["coeffs"])

    def __repr__(self):
        if self.is_zero():
            return "LaurentPoly(0)"
        body = " + ".join(f"{c}*q^{k}" for k, c in self.terms())
        return f"LaurentPoly({body})"


_new = object.__new__
_set_min_deg = LaurentPoly.min_deg.__set__
_set_coeffs = LaurentPoly.coeffs.__set__


def _poly(min_deg, run):
    """The LaurentPoly of an already canonical (min_deg, run)."""
    p = _new(LaurentPoly)
    _set_min_deg(p, min_deg)
    _set_coeffs(p, run)
    return p


_ZERO = _poly(0, ())
_ONE = _poly(0, (1,))


def _divmod_poly(a, b):
    """Long division of coefficient runs (low degree first) over Z.

    Returns (quotient, remainder); quotient entries are ints when every
    leading-coefficient division is exact, otherwise (None, None).
    """
    if len(a) < len(b):
        return [], a
    a = list(a)
    lead = b[-1]
    out = [0] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        c = a[shift + len(b) - 1]
        if c % lead != 0:
            return None, None
        f = c // lead
        out[shift] = f
        if f:
            for i, bc in enumerate(b):
                a[shift + i] -= f * bc
    return out, a


def _prem(u, v):
    """Pseudo-remainder of coefficient runs (low first): lc(v)^(du-dv+1) u mod v."""
    du, dv = len(u) - 1, len(v) - 1
    if du < dv:
        return list(u)
    lead = v[-1]
    r = list(u)
    for shift in range(du - dv, -1, -1):
        top = r[shift + dv]
        r = [c * lead for c in r]
        if top:
            for i, vc in enumerate(v):
                r[shift + i] -= top * vc
        # degree drops by at least one each pass
        r[shift + dv] = 0
    while r and r[-1] == 0:
        r.pop()
    return r


def _run_content(run):
    g = 0
    for c in run:
        g = _int_gcd(g, abs(c))
    return g


def poly_gcd(a, b):
    """Gcd in Z[q] of two Laurent polynomials, up to the q-power units.

    Uses content extraction plus the subresultant pseudo-remainder sequence
    on primitive parts.  The result is a polynomial with min_deg 0 and a
    positive leading coefficient.
    """
    if a.is_zero() and b.is_zero():
        return LaurentPoly.zero()
    if a.is_zero():
        _, n = b.normalize_unit()
        return n if n.coeffs[-1] > 0 else -n
    if b.is_zero():
        _, n = a.normalize_unit()
        return n if n.coeffs[-1] > 0 else -n
    ca, cb = a.content(), b.content()
    cd = _int_gcd(ca, cb)
    u = [c // ca for c in a.coeffs]
    v = [c // cb for c in b.coeffs]
    if len(u) < len(v):
        u, v = v, u
    g = h = 1
    while True:
        delta = len(u) - len(v)
        r = _prem(u, v)
        if not r:
            break
        denom = g * h ** delta
        r = [c // denom for c in r]
        u, v = v, r
        g = u[-1]
        h = h ** (1 - delta) * g ** delta if delta <= 1 else g ** delta // h ** (delta - 1)
    rc = _run_content(v)
    v = [c // rc for c in v]
    if v[-1] < 0:
        v = [-c for c in v]
    return LaurentPoly(0, [cd * c for c in v])


class QTElement:
    """An element of Z[q,q^-1,t]/(t^2-1), stored as even + odd*t."""

    __slots__ = ("even", "odd")

    def __init__(self, even=_ZERO, odd=_ZERO):
        if isinstance(even, int):
            even = LaurentPoly.from_int(even)
        if isinstance(odd, int):
            odd = LaurentPoly.from_int(odd)
        object.__setattr__(self, "even", even)
        object.__setattr__(self, "odd", odd)

    def __setattr__(self, name, value):
        raise AttributeError("QTElement is immutable")

    @classmethod
    def zero(cls):
        return _QT_ZERO

    @classmethod
    def one(cls):
        return _QT_ONE

    @classmethod
    def t(cls):
        return cls(_ZERO, _ONE)

    @classmethod
    def monomial(cls, coeff, q_deg, t_deg):
        """coeff * q^q_deg * t^t_deg with t_deg taken mod 2."""
        p = LaurentPoly.q_power(q_deg, coeff)
        if t_deg % 2:
            return cls(_ZERO, p)
        return cls(p, _ZERO)

    @staticmethod
    def _coerce(x):
        if isinstance(x, QTElement):
            return x
        if isinstance(x, LaurentPoly):
            return QTElement(x, _ZERO)
        if isinstance(x, int):
            return QTElement(LaurentPoly.from_int(x), _ZERO)
        return NotImplemented

    def is_zero(self):
        return self.even.is_zero() and self.odd.is_zero()

    def __add__(self, other):
        if type(other) is not QTElement:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return QTElement(self.even + other.even, self.odd + other.odd)

    __radd__ = __add__

    def __neg__(self):
        return QTElement(-self.even, -self.odd)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not QTElement:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # (a + bt)(c + dt) = (ac + bd) + (ad + bc) t
        a, b, c, d = self.even, self.odd, other.even, other.odd
        if not b.coeffs:
            return QTElement(a * c, a * d)
        if not d.coeffs:
            return QTElement(a * c, b * c)
        return QTElement(a * c + b * d, a * d + b * c)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.even == other.even and self.odd == other.odd

    def __hash__(self):
        return hash((self.even, self.odd))

    def __bool__(self):
        return not self.is_zero()

    def bar(self):
        """q -> q^-1; t is fixed."""
        return QTElement(self.even.bar(), self.odd.bar())

    def unit_value(self):
        """Return (sign, q_exp, t_exp) when self = sign * q^k * t^e, else None."""
        if self.odd.is_zero():
            u = self.even.unit_value()
            if u:
                return u[0], u[1], 0
            return None
        if self.even.is_zero():
            u = self.odd.unit_value()
            if u:
                return u[0], u[1], 1
        return None

    def specialize(self, q_val="keep", t_val="keep"):
        """Exact specialization; q_val and t_val are 1, -1 or "keep".

        Returns a QTElement, a LaurentPoly (t specialized) or an int
        (both specialized).
        """
        if t_val == "keep":
            if q_val == "keep":
                return self
            return QTElement(
                LaurentPoly.from_int(self.even.eval_at(q_val)),
                LaurentPoly.from_int(self.odd.eval_at(q_val)))
        poly = self.even + self.odd if t_val == 1 else self.even - self.odd
        if q_val == "keep":
            return poly
        return poly.eval_at(q_val)

    def subst_q(self, neg_inv=True, t_twist=False):
        """Apply a ring substitution on q.

        neg_inv sends q -> -q^-1; with t_twist it sends q -> -q^-1 * t
        (the extra t keeps track of parity, using t^2 = 1).
        """
        if not neg_inv:
            raise ValueError("only the q -> -q^-1 family is supported")
        if not t_twist:
            return QTElement(self.even.subst_neg_inv(), self.odd.subst_neg_inv())
        # q^k -> (-1)^k q^-k t^(k mod 2): even q-degrees stay in place,
        # odd q-degrees move across the t-split.
        ee, eo = self.even.even_odd_split()
        oe, oo = self.odd.even_odd_split()
        new_even = ee.subst_neg_inv() + oo.subst_neg_inv()
        new_odd = oe.subst_neg_inv() + eo.subst_neg_inv()
        return QTElement(new_even, new_odd)

    def to_json(self):
        return {"even": self.even.to_json(), "odd": self.odd.to_json()}

    @classmethod
    def from_json(cls, obj):
        return cls(LaurentPoly.from_json(obj["even"]), LaurentPoly.from_json(obj["odd"]))

    def __repr__(self):
        return f"QTElement({self.even!r}, {self.odd!r})"


_QT_ZERO = QTElement(_ZERO, _ZERO)
_QT_ONE = QTElement(_ONE, _ZERO)


def _parts(x):
    """(ring level, ((t-parity, min_deg, run), ...)) of the nonzero parts of x.

    The levels order the rings int < LaurentPoly < QTElement; None for any
    other type.
    """
    cls = type(x)
    if cls is QTElement:
        e, o = x.even, x.odd
        parts = ((0, e.min_deg, e.coeffs),) if e.coeffs else ()
        return 2, parts + ((1, o.min_deg, o.coeffs),) if o.coeffs else parts
    if cls is LaurentPoly:
        return 1, ((0, x.min_deg, x.coeffs),) if x.coeffs else ()
    if cls is int:
        return 0, ((0, 0, (x,)),) if x else ()
    return None


def _from_table(acc):
    """The LaurentPoly whose degree -> coefficient table is acc."""
    degs = [k for k, c in acc.items() if c]
    if not degs:
        return _ZERO
    lo, hi = min(degs), max(degs)
    return _poly(lo, tuple([acc.get(k, 0) for k in range(lo, hi + 1)]))


def dot(xs, ys, start=0):
    """start + sum of x_i * y_i over two sequences, summed once.

    Serves ints, LaurentPoly and QTElement entries: every product of two
    nonzero parts is added into one degree -> coefficient table per
    t-parity, and one canonical element is built at the end.  The result
    has the ring type of the term-by-term sum: the widest type among
    start and the operands (int < LaurentPoly < QTElement).  Any other
    entry type (QFraction) is summed term by term.
    """
    level = 0
    tables = (defaultdict(int), defaultdict(int))
    for x, y in zip(chain((start,), xs), chain((1,), ys)):
        px, py = _parts(x), _parts(y)
        if px is None or py is None:
            return sum(map(mul, xs, ys), start)
        if px[0] > level or py[0] > level:
            level = max(px[0], py[0])
        for p, mx, rx in px[1]:
            for r, my, ry in py[1]:
                acc = tables[p ^ r]
                for i, a in enumerate(rx, mx + my):
                    if a:
                        for k, b in enumerate(ry, i):
                            acc[k] += a * b
    if level == 0:
        return tables[0].get(0, 0)
    if level == 1:
        return _from_table(tables[0])
    return QTElement(_from_table(tables[0]), _from_table(tables[1]))


class QFraction:
    """An element of Q(q), kept in lowest terms.

    The denominator is a genuine polynomial in q (min_deg 0) with positive
    leading coefficient; the numerator absorbs all q-power units.  Lowest
    terms means both gcd(content(num), content(den)) = 1 and that the
    primitive parts share no polynomial factor.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=LaurentPoly.one()):
        if isinstance(num, int):
            num = LaurentPoly.from_int(num)
        if isinstance(den, int):
            den = LaurentPoly.from_int(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num, den = _frac_normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("QFraction is immutable")

    @classmethod
    def zero(cls):
        return cls(LaurentPoly.zero())

    @classmethod
    def one(cls):
        return cls(LaurentPoly.one())

    @staticmethod
    def _coerce(x):
        if isinstance(x, QFraction):
            return x
        if isinstance(x, (LaurentPoly, int)):
            return QFraction(x)
        return NotImplemented

    def is_zero(self):
        return self.num.is_zero()

    def is_laurent(self):
        return self.den == LaurentPoly.one()

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QFraction(self.num * other.den + other.num * self.den,
                         self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return QFraction(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QFraction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero fraction")
        return QFraction(self.num * other.den, self.den * other.num)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return QFraction(self.den, self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def bar(self):
        return QFraction(self.num.bar(), self.den.bar())

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    def __repr__(self):
        return f"QFraction({self.num!r}, {self.den!r})"


def _frac_normalize(num, den):
    """Lowest-terms representative of num/den per the QFraction conventions."""
    if num.is_zero():
        return LaurentPoly.zero(), LaurentPoly.one()
    # pull the q-power out of the denominator into the numerator
    num = num.shift(-den.min_deg)
    den = den.shift(-den.min_deg)
    g = poly_gcd(num, den)
    if g != LaurentPoly.one():
        num = num.divexact(g)
        den = den.divexact(g)
    cn, cdn = num.content(), den.content()
    c = _int_gcd(cn, cdn)
    if c > 1:
        num = LaurentPoly(num.min_deg, tuple(x // c for x in num.coeffs))
        den = LaurentPoly(den.min_deg, tuple(x // c for x in den.coeffs))
    if den.coeffs[-1] < 0:
        num, den = -num, -den
    return num, den
