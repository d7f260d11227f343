"""Grothendieck-group data of the path algebra of a signed bipartite graph.

The algebra is the double quiver of the bipartite graph modulo all length
two paths that start and end in part0 (which also kills every path of
length three or more).  Nothing here materializes modules: the surviving
path basis determines all graded Hom spaces, each simple has an explicit
linear projective resolution of length at most two, and every class we
need lives in the free module over Z[q,q^-1,t]/(t^2-1) spanned by the
indecomposable projectives.  The q-grading is path length; the t-grading
is the parity of negative edges along a path.

Basis order everywhere: part0 vertices first, then part1, each sorted
by id.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bipartite import dual
from .laurent import QTElement, dot
from .matrices import QMatrix

BASIS_TAGS = ("projective", "simple", "injective", "standard", "costandard")

# Entries kept by each per-graph cache below.  The checks on one input use
# the graph and its dual, so a handful suffices, and a long run over many
# inputs holds no more than this many per cache.
CACHE_SIZE = 16


@dataclass(frozen=True)
class PathBasisElement:
    source: int
    target: int
    mid: int | None
    q_degree: int
    t_degree: int


@dataclass(frozen=True)
class K0Vector:
    """Coordinates of a Grothendieck-group class in one of the five bases."""

    coords: tuple
    basis: str

    def __post_init__(self):
        if self.basis not in BASIS_TAGS:
            raise ValueError(f"unknown basis tag {self.basis!r}")


def vertex_order(b):
    return b.part0 + b.part1


def _edge_parity(b, i, j):
    """t-degree of the arrow between i in part0 and j in part1."""
    return 1 if b.sign(i, j) < 0 else 0


def path_basis(b):
    """The full graded basis: idempotents, arrows, surviving length-2 paths."""
    out = [PathBasisElement(v, v, None, 0, 0) for v in vertex_order(b)]
    for (i, j), _ in sorted(b.signs.items()):
        par = _edge_parity(b, i, j)
        out.append(PathBasisElement(i, j, None, 1, par))
        out.append(PathBasisElement(j, i, None, 1, par))
    for a in b.part1:
        for k in b.part0:
            if not b.sign(k, a):
                continue
            for c in b.part1:
                if not b.sign(k, c):
                    continue
                par = (_edge_parity(b, k, a) + _edge_parity(b, k, c)) % 2
                out.append(PathBasisElement(a, c, k, 2, par))
    return out


@lru_cache(maxsize=CACHE_SIZE)
def k0_gram(b):
    """Gram matrix of the graded Euler form in the projective basis.

    Entry (i, j) is the graded dimension of the maps between the
    projectives at i and j: the sum of q^len t^parity over the path_basis
    elements from i to j.
    """
    order = vertex_order(b)
    pos = {v: n for n, v in enumerate(order)}
    ent = [[QTElement.zero()] * len(order) for _ in order]
    for p in path_basis(b):
        i, j = pos[p.source], pos[p.target]
        ent[i][j] = ent[i][j] + QTElement.monomial(1, p.q_degree, p.t_degree)
    return QMatrix(ent, order, order)


def k0_frame(b):
    """The frame U = [[I, N], [0, I]] in vertex_order(b), N_ij = q t^parity
    of the edge of part0 i and part1 j, or 0: k0_gram = U^t U, so det G = 1,
    and G^-1 = [[I + N N^t, -N], [-N^t, I]]."""
    order = vertex_order(b)
    pos = {v: n for n, v in enumerate(order)}
    ent = [[QTElement.one() if r == c else QTElement.zero() for c in order] for r in order]
    for i, j in b.signs:
        ent[pos[i]][pos[j]] = QTElement.monomial(1, 1, _edge_parity(b, i, j))
    return QMatrix(ent, order, order)


def hom_qtdim(b, i, j):
    """Graded dimension of the maps between the projectives at i and j:
    the (i, j) entry of k0_gram."""
    order = vertex_order(b)
    if i not in order or j not in order:
        raise ValueError("unknown vertex")
    return k0_gram(b)[order.index(i), order.index(j)]


@dataclass(frozen=True)
class Resolution:
    """A linear projective resolution, highest homological degree last.

    steps[d] lists (vertex, q_shift, t_shift) summands in homological
    degree d, with multiplicity.
    """

    vertex: int
    steps: tuple


def resolve_simple(b, i):
    """The at-most-two-step linear projective resolution of the simple at i."""
    p0 = set(b.part0)
    if i not in p0 and i not in set(b.part1):
        raise ValueError(f"unknown vertex {i}")
    step0 = ((i, 0, 0),)
    nbrs = b.neighbors(i)
    if not nbrs:
        # isolated vertex: the simple is projective
        return Resolution(i, (step0,))
    if i not in p0:
        step1 = tuple((j, 1, _edge_parity(b, j, i)) for j in nbrs)
        return Resolution(i, (step0, step1))
    step1 = tuple((j, 1, _edge_parity(b, i, j)) for j in nbrs)
    step2 = []
    for j in nbrs:
        pj = _edge_parity(b, i, j)
        for k in b.neighbors(j):
            step2.append((k, 2, (pj + _edge_parity(b, k, j)) % 2))
    return Resolution(i, (step0, step1, tuple(step2)))


def simple_in_projectives(b, i):
    """Class of the simple at i as an alternating sum over its resolution.

    A q-shift of k contributes q^k and a t-shift contributes t.  This is
    the production route to the simple classes and to G^-1 (see
    k0_gram_inverse); tests/test_algebra.py keeps the cofactor adjugate
    of G as its oracle.
    """
    order = vertex_order(b)
    pos = {v: n for n, v in enumerate(order)}
    coords = [QTElement.zero()] * len(order)
    res = resolve_simple(b, i)
    for d, step in enumerate(res.steps):
        for v, qs, ts in step:
            term = QTElement.monomial(1 if d % 2 == 0 else -1, qs, ts)
            coords[pos[v]] = coords[pos[v]] + term
    return K0Vector(tuple(coords), "projective")


def _from_columns(cols, order):
    return QMatrix(list(zip(*cols)), order, order)


@lru_cache(maxsize=CACHE_SIZE)
def k0_gram_inverse(b):
    """G^-1, whose column i is the class of the simple at vertex i.

    Read off the linear resolutions (simple_in_projectives), so no
    determinant is taken.  tests/test_algebra.py compares it with the
    cofactor adjugate of k0_gram, and the simples_match_inverse check of
    invariants.bipartite_checks tests G G^-1 = I against the path-counting G.
    """
    order = vertex_order(b)
    return _from_columns([simple_in_projectives(b, v).coords for v in order], order)


@lru_cache(maxsize=CACHE_SIZE)
def d_matrix(b):
    """Matrix D = G^-1 bar(G) of the duality involution, projective basis.

    The involution is q-anti-linear, fixes every simple class, carries
    projectives to injectives, and acts on coordinates as v -> D bar(v).
    verify's d_involution asserts D bar(D) = I and D^t G^t bar(D) = G.
    """
    g = k0_gram(b)
    return k0_gram_inverse(b) * g.map(lambda x: x.bar())


def apply_d(b, coords):
    """D bar(v) on projective coordinates: d_matrix's vector-form test oracle."""
    return d_matrix(b).mul_vector(tuple(c.bar() for c in coords))


def _class_matrix(b, tag):
    """Columns are the classes of one of the five bases, in projective
    coordinates.  Standard classes are the projectives on part0 and the
    simples on part1; costandard classes swap in the injectives on part0.
    """
    order = vertex_order(b)
    if tag == "projective":
        return QMatrix.identity(len(order), QTElement.one(), order)
    if tag == "simple":
        return k0_gram_inverse(b)
    if tag == "injective":
        return d_matrix(b)
    if tag not in BASIS_TAGS:
        raise ValueError(f"unknown basis tag {tag!r}")
    on_part0 = _class_matrix(b, "projective" if tag == "standard" else "injective")
    ginv = k0_gram_inverse(b)
    n0 = len(b.part0)
    return _from_columns([on_part0.column(k) if k < n0 else ginv.column(k)
                          for k in range(len(order))], order)


def to_projective(b, vec):
    """Convert a K0Vector in any of the five bases to projective coordinates."""
    if vec.basis == "projective":
        return vec.coords
    return _class_matrix(b, vec.basis).mul_vector(vec.coords)


def euler_form(b, x, y):
    """The graded Euler form: x* G y on projective coordinates.

    q-sesquilinear (anti-linear on the left) and t-bilinear.
    """
    xs = to_projective(b, x) if isinstance(x, K0Vector) else tuple(x)
    ys = to_projective(b, y) if isinstance(y, K0Vector) else tuple(y)
    return dot([a.bar() for a in xs], k0_gram(b).mul_vector(ys), QTElement.zero())


def gram_in_basis(b, tag):
    """Gram matrix of the Euler form in one of the five distinguished bases.

    C* G C for the class matrix C of the basis.  No check runs it (the
    battery reads the simple Gram as star(G^-1)); it is the tests' oracle
    for that closed form, and the entrywise euler_form loop is its own.
    """
    c = _class_matrix(b, tag)
    return c.star() * k0_gram(b) * c


def distinguished_classes(b):
    """Projective, simple, injective, standard and costandard classes.

    All are returned in projective-basis coordinates, indexed by vertex
    order: the columns of each basis's class matrix.
    """
    out = {}
    for tag in BASIS_TAGS:
        c = _class_matrix(b, tag)
        out[tag] = [K0Vector(c.column(k), "projective") for k in range(c.cols)]
    return out


def koszul_transport(b, x):
    """Transport a simple-basis class to the projective basis of the dual.

    The simple at i maps to the projective at i over the flipped-signs
    dual, and coefficients transform by the ring involution q -> -q^-1 t
    (t fixed).  At t = 1 this is the plain substitution q -> -q^-1; the
    extra t is what makes the pairing identity

        <x, y> = sigma(<Kx, Ky>),   sigma(q) = -q^-1 t,

    hold entrywise for arbitrary edge signs, because the dual flips every
    sign and therefore every arrow's t-parity.
    """
    if x.basis != "simple":
        raise ValueError("transport expects simple-basis coordinates")
    here = vertex_order(b)
    there = vertex_order(dual(b))
    by_vertex = dict(zip(here, x.coords))
    coords = tuple(by_vertex[v].subst_q(t_twist=True) for v in there)
    return K0Vector(coords, "projective")


def koszul_substitute(val):
    """Apply the transport substitution q -> -q^-1 t to a pairing value."""
    return val.subst_q(t_twist=True)
