"""Text, JSON and LaTeX renderers for polynomials and matrices.

The text syntax for Laurent polynomials is a sum of c*q^k terms in
increasing degree (negative exponents as q^-k, unit coefficients
compressed), e.g. "1 + 2*q^2" or "-q^-1 + q".  Terms carrying t append
a *t factor.  These strings are pinned by the golden tests.
"""

from __future__ import annotations

from .laurent import LaurentPoly, QFraction, QTElement
from .matrices import QMatrix


def _term_text(coeff, q_exp, t_exp=0):
    parts = []
    mag = abs(coeff)
    if q_exp == 0 and t_exp == 0:
        parts.append(str(mag))
    else:
        if mag != 1:
            parts.append(str(mag))
        if q_exp != 0:
            parts.append("q" if q_exp == 1 else f"q^{q_exp}")
        if t_exp:
            parts.append("t")
    return "*".join(parts)


def _terms(x):
    """(q exponent, coefficient, t exponent) triples of a Laurent polynomial
    or t-ring element, sorted by q then t."""
    if isinstance(x, QTElement):
        return sorted([(k, c, 0) for k, c in x.even.terms()]
                      + [(k, c, 1) for k, c in x.odd.terms()],
                      key=lambda kct: (kct[0], kct[2]))
    return [(k, c, 0) for k, c in x.terms()]


def _join_terms(terms, term_body):
    """Signed sum of (q exponent, coefficient, t exponent) terms; "0" if none."""
    out = []
    for k, c, te in terms:
        body = term_body(c, k, te)
        if not out:
            out.append(body if c > 0 else "-" + body)
        else:
            out.append(("+ " if c > 0 else "- ") + body)
    return " ".join(out) or "0"


def poly_text(p):
    if isinstance(p, int):
        p = LaurentPoly.from_int(p)
    if isinstance(p, QFraction):
        return frac_text(p)
    return _join_terms(_terms(p), _term_text)


def qt_text(x):
    return _join_terms(_terms(x), _term_text)


def frac_text(f):
    if f.is_laurent():
        return poly_text(f.num)
    num = poly_text(f.num)
    den = poly_text(f.den)
    return f"({num}) / ({den})"


def entry_text(x):
    if isinstance(x, int):
        return str(x)
    if isinstance(x, LaurentPoly):
        return poly_text(x)
    if isinstance(x, QTElement):
        return qt_text(x)
    if isinstance(x, QFraction):
        return frac_text(x)
    return str(x)


def matrix_text(m):
    lines = ["# rows: " + " ".join(str(l) for l in m.row_labels),
             "# cols: " + " ".join(str(l) for l in m.col_labels)]
    for row in m.entries:
        lines.append("\t".join(entry_text(x) for x in row))
    return "\n".join(lines) + "\n"


# -- LaTeX -----------------------------------------------------------------


def _latex_term(coeff, q_exp, t_exp=0):
    mag = abs(coeff)
    parts = []
    if q_exp == 0 and t_exp == 0:
        parts.append(str(mag))
    else:
        if mag != 1:
            parts.append(str(mag))
        if q_exp == 1:
            parts.append("q")
        elif q_exp != 0:
            parts.append(f"q^{{{q_exp}}}")
        if t_exp:
            parts.append("t")
    return " ".join(parts)


def poly_latex(p):
    if isinstance(p, int):
        p = LaurentPoly.from_int(p)
    if isinstance(p, QFraction):
        if p.is_laurent():
            return poly_latex(p.num)
        return r"\frac{%s}{%s}" % (poly_latex(p.num), poly_latex(p.den))
    return _join_terms(_terms(p), _latex_term)


def matrix_latex(m):
    rows = [" & ".join(poly_latex(x) if not isinstance(x, int) else str(x)
                       for x in row)
            for row in m.entries]
    body = " \\\\\n".join(rows)
    return "\\begin{bmatrix}\n" + body + "\n\\end{bmatrix}\n"


# -- JSON ------------------------------------------------------------------


def to_jsonable(x):
    if isinstance(x, (int, str, bool)) or x is None:
        return x
    if isinstance(x, (LaurentPoly, QTElement, QFraction, QMatrix)):
        return x.to_json()
    if isinstance(x, dict):
        return {str(k): to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_jsonable(v) for v in x]
    raise TypeError(f"cannot encode {type(x)}")
