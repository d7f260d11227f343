"""The accumulate-once dot kernel against the term-by-term loop it replaced.

QMatrix products, mul_vector, the Euler form and the lattice pairing all
sum through laurent.dot; the oracles below are the loops they ran before,
which build one ring element per term and add it into a running sum.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import qlat.algebra as algebra
from qlat.algebra import apply_d, euler_form, k0_gram, k0_gram_inverse
from qlat.bipartite import build_bipartite
from qlat.graphs import OrientedMultigraph, SpanningTree
from qlat.lattices import QLattice, flow_qlattice
from qlat.laurent import LaurentPoly, QTElement, dot
from qlat.matrices import QMatrix, ring_bar
from support import random_signed_bipartites

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150, database=None)


# -- the term-by-term oracles -----------------------------------------------------


def term_by_term(xs, ys):
    """The old accumulate loop; it gave None for an empty sum, the kernel 0."""
    acc = None
    for a, b in zip(xs, ys):
        term = a * b
        acc = term if acc is None else acc + term
    return 0 if acc is None else acc


def oracle_matmul(a, b):
    cols = [b.column(j) for j in range(b.cols)]
    return [[term_by_term(row, col) for col in cols] for row in a.entries]


def oracle_mul_vector(a, vec):
    return [term_by_term(row, vec) for row in a.entries]


def oracle_euler_form(b, xs, ys):
    total = QTElement.zero()
    for a, m in zip(xs, oracle_mul_vector(k0_gram(b), ys)):
        total = total + a.bar() * m
    return total


def oracle_pairing(lat, x, y):
    total = LaurentPoly.zero()
    for a, m in zip(x, oracle_mul_vector(lat.gram, y)):
        total = total + ring_bar(a) * m
    return total


def typed(x):
    """Value and ring type: an int 0 and a Laurent zero compare equal."""
    return type(x), x


# -- strategies -------------------------------------------------------------------


ints = st.integers(-2, 2)
laurents = st.builds(LaurentPoly, st.integers(-2, 2), st.lists(ints, max_size=4))
# even and odd parts are each zero about a third of the time
qts = st.builds(QTElement, st.one_of(st.just(LaurentPoly.zero()), laurents),
                st.one_of(st.just(LaurentPoly.zero()), laurents))
ZERO = {"int": 0, "laurent": LaurentPoly.zero(), "qt": QTElement.zero()}
ELEMENTS = {"int": ints, "laurent": laurents, "qt": qts}


def entries(kind):
    """Elements of one ring, half of them zero."""
    return st.one_of(st.just(ZERO[kind]), ELEMENTS[kind])


@st.composite
def matrices(draw, rows, cols, kind):
    ent = [[draw(entries(kind)) for _ in range(cols)] for _ in range(rows)]
    return QMatrix(ent, range(1, rows + 1), range(1, cols + 1))


@st.composite
def products(draw):
    """(A, B, v) with A r x m, B m x c and v of length m; 0 dimensions included."""
    r, m, c = (draw(st.integers(0, 3)) for _ in range(3))
    ka, kb = (draw(st.sampled_from(sorted(ELEMENTS))) for _ in range(2))
    vec = tuple(draw(entries(kb)) for _ in range(m))
    return draw(matrices(r, m, ka)), draw(matrices(m, c, kb)), vec


@SETTINGS
@given(products())
def test_matrix_products_match_term_by_term(case):
    a, b, vec = case
    prod = a * b
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    assert [[typed(x) for x in row] for row in prod.entries] == \
        [[typed(x) for x in row] for row in oracle_matmul(a, b)]
    assert [typed(x) for x in a.mul_vector(vec)] == \
        [typed(x) for x in oracle_mul_vector(a, vec)]


BIPARTITES = random_signed_bipartites(29, 12, 3, 3)


@st.composite
def euler_cases(draw):
    b = draw(st.sampled_from(BIPARTITES))
    n = len(b.part0) + len(b.part1)
    return b, [draw(entries("qt")) for _ in range(n)], [draw(entries("qt")) for _ in range(n)]


@SETTINGS
@given(euler_cases())
def test_euler_form_matches_term_by_term(case):
    b, xs, ys = case
    assert typed(euler_form(b, xs, ys)) == typed(oracle_euler_form(b, xs, ys))


@st.composite
def pairing_cases(draw):
    """A lattice I + q^k S and two vectors mixing int and Laurent entries."""
    n = draw(st.integers(0, 4))
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s[i][j] = s[j][i] = draw(ints)
    lat = QLattice(draw(st.sampled_from((-2, -1, 1, 2))), s, range(n))
    kind = st.sampled_from(("int", "laurent"))
    x = [draw(entries(draw(kind))) for _ in range(n)]
    y = [draw(entries(draw(kind))) for _ in range(n)]
    return lat, x, y


@SETTINGS
@given(pairing_cases())
def test_pairing_matches_term_by_term(case):
    lat, x, y = case
    assert typed(lat.pairing(x, y)) == typed(oracle_pairing(lat, x, y))


def test_dot_ring_types_and_empty_sums():
    q = LaurentPoly.q_power(1)
    t = QTElement.t()
    assert typed(dot((), ())) == (int, 0)
    assert typed(dot((), (), QTElement.zero())) == (QTElement, QTElement.zero())
    assert typed(dot((2, 3), (4, -1))) == (int, 5)
    # an all-zero int x Laurent sum is still a Laurent zero
    assert typed(dot((0, 5), (q, LaurentPoly.zero()))) == (LaurentPoly, LaurentPoly.zero())
    assert typed(dot((q, t), (q, t))) == (QTElement, QTElement(q * q + 1))
    assert dot((q,), (q.bar(),), 7) == LaurentPoly.from_int(8)


# -- ring fast paths against the definition of the product ---------------------------


def convolve(x, y):
    return LaurentPoly.from_terms((i + j, a * b) for i, a in x.terms() for j, b in y.terms())


@SETTINGS
@given(laurents, laurents, qts, qts)
def test_ring_products_match_their_definition(x, y, u, v):
    assert x * y == convolve(x, y) and type(x * y) is LaurentPoly
    assert x * 3 == convolve(x, LaurentPoly.from_int(3))
    even = convolve(u.even, v.even) + convolve(u.odd, v.odd)
    odd = convolve(u.even, v.odd) + convolve(u.odd, v.even)
    assert u * v == QTElement(even, odd)
    assert u * x == QTElement(convolve(u.even, x), convolve(u.odd, x))


def test_zero_and_one_are_shared_immutable_constants():
    assert LaurentPoly.zero() is LaurentPoly.zero() and LaurentPoly.one() is LaurentPoly.one()
    assert QTElement.zero() is QTElement.zero() and QTElement.one() is QTElement.one()
    assert LaurentPoly.zero() == LaurentPoly(0, ()) and LaurentPoly.one() == LaurentPoly(0, (1,))
    with pytest.raises(AttributeError):
        LaurentPoly.zero().coeffs = (1,)
    with pytest.raises(AttributeError):
        QTElement.one().odd = LaurentPoly.one()


# -- the route ------------------------------------------------------------------------


def seeded_k6():
    """K6 with seeded edge orientations and a seeded random recursive tree."""
    rng = random.Random(6)
    pairs = [(a, b) for a in range(1, 7) for b in range(a + 1, 7)]
    edges = [(i, *(p if rng.random() < 0.5 else p[::-1])) for i, p in enumerate(pairs, 1)]
    order = rng.sample(range(1, 7), 6)
    joins = {tuple(sorted((v, order[rng.randrange(i)]))) for i, v in enumerate(order) if i}
    tree = SpanningTree(i for i, p in enumerate(pairs, 1) if p in joins)
    return build_bipartite(OrientedMultigraph(6, edges), tree)


def test_k6_products_add_no_ring_elements(monkeypatch):
    """apply_d, euler_form and pairing sum each row once, inside the kernel:
    no LaurentPoly or QTElement is added along the way."""
    b = seeded_k6()
    lat = flow_qlattice(b)
    # G, G^-1 and the lattice Gram are built with additions; the products are not
    k0_gram(b), k0_gram_inverse(b), lat.gram
    algebra.d_matrix.cache_clear()
    rng = random.Random(7)

    def rand_poly():
        return LaurentPoly.from_terms((k, rng.randint(-2, 2)) for k in range(-1, 2))

    n = len(b.part0) + len(b.part1)
    xs = [QTElement(rand_poly(), rand_poly()) for _ in range(n)]
    ys = [QTElement(rand_poly(), rand_poly()) for _ in range(n)]
    u = [rand_poly() for _ in range(lat.rank)]
    v = [rand_poly() for _ in range(lat.rank)]
    expect = (oracle_euler_form(b, xs, ys), oracle_pairing(lat, u, v))

    def fail(self, other):
        raise AssertionError("a product added ring elements term by term")

    for cls in (LaurentPoly, QTElement):
        monkeypatch.setattr(cls, "__add__", fail)
        monkeypatch.setattr(cls, "__radd__", fail)
    assert apply_d(b, apply_d(b, xs)) == tuple(xs)
    assert euler_form(b, xs, ys) == expect[0]
    assert lat.pairing(u, v) == expect[1]
