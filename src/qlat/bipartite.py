"""Signed bipartite graphs and their cut/flow combinatorics.

A signed bipartite graph keeps only its sign matrix: vertices split into
part0 and part1, and sign(i, j) in {-1, +1} for the edges present.  The
graphical case arises from a graph with a spanning tree: part0 holds the
tree edges, part1 the rest, and sign(i, j) is the coefficient of tree
edge i in the fundamental cycle of j.  Arbitrary sign matrices are
first-class inputs everywhere downstream.
"""

from __future__ import annotations

from types import MappingProxyType

from .graphs import fundamental_cycle, require_valid
from .matrices import QMatrix


class SignedBipartiteGraph:
    """Immutable: signs is a read-only view and the hash is computed once."""

    __slots__ = ("part0", "part1", "signs", "_hash")

    def __init__(self, part0, part1, signs):
        part0 = tuple(sorted(int(v) for v in part0))
        part1 = tuple(sorted(int(v) for v in part1))
        if set(part0) & set(part1):
            raise ValueError("parts are not disjoint")
        if len(set(part0)) != len(part0) or len(set(part1)) != len(part1):
            raise ValueError("duplicate vertex ids")
        p0, p1 = set(part0), set(part1)
        clean = {}
        for (i, j), s in dict(signs).items():
            if s == 0:
                continue
            if s not in (-1, 1):
                raise ValueError(f"sign of ({i}, {j}) must be -1 or +1")
            if i not in p0 or j not in p1:
                raise ValueError(f"edge ({i}, {j}) does not join part0 to part1")
            clean[(i, j)] = s
        object.__setattr__(self, "part0", part0)
        object.__setattr__(self, "part1", part1)
        object.__setattr__(self, "signs", MappingProxyType(clean))
        object.__setattr__(self, "_hash", hash((part0, part1, frozenset(clean.items()))))

    def __setattr__(self, name, value):
        raise AttributeError("SignedBipartiteGraph is immutable")

    def vertices(self):
        return self.part0 + self.part1

    def sign(self, i, j):
        """Sign of the edge between i in part0 and j in part1; 0 if absent."""
        return self.signs.get((i, j), 0)

    def neighbors(self, v):
        if v in set(self.part0):
            return tuple(j for j in self.part1 if (v, j) in self.signs)
        if v in set(self.part1):
            return tuple(i for i in self.part0 if (i, v) in self.signs)
        raise ValueError(f"unknown vertex {v}")

    def __eq__(self, other):
        if not isinstance(other, SignedBipartiteGraph):
            return NotImplemented
        return (self.part0, self.part1, self.signs) == (
            other.part0, other.part1, other.signs)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"SignedBipartiteGraph(part0={list(self.part0)}, "
                f"part1={list(self.part1)}, edges={len(self.signs)})")


def build_bipartite(g, t, force=False):
    """The signed bipartite graph of (graph, spanning tree).

    Vertices are the edge ids of g; part0 is the tree.  force tolerates
    bridge findings (the construction stays well defined), every other
    validation failure raises.
    """
    require_valid(g, t, force=force)
    part0 = sorted(t.tree_edges)
    part1 = [e for e in range(1, g.edge_count + 1) if e not in t.tree_edges]
    signs = {}
    for j in part1:
        cyc = fundamental_cycle(g, t, j)
        for i in part0:
            if cyc[i - 1]:
                signs[(i, j)] = cyc[i - 1]
    return SignedBipartiteGraph(part0, part1, signs)


def dual(b):
    """Swap the bipartition and negate every edge sign."""
    return SignedBipartiteGraph(
        b.part1, b.part0, {(j, i): -s for (i, j), s in b.signs.items()})


def b_cycle(b, j):
    """Fundamental cycle of j in part1: j + sum of sign(i,j) * i."""
    if j not in set(b.part1):
        raise ValueError(f"{j} is not a part1 vertex")
    vec = {j: 1}
    for i in b.part0:
        s = b.sign(i, j)
        if s:
            vec[i] = s
    return vec


def b_cut(b, i):
    """Fundamental cut of i in part0: i - sum of sign(i,j) * j."""
    if i not in set(b.part0):
        raise ValueError(f"{i} is not a part0 vertex")
    vec = {i: 1}
    for j in b.part1:
        s = b.sign(i, j)
        if s:
            vec[j] = -s
    return vec


def vec_dot(u, v):
    return sum(c * v.get(k, 0) for k, c in u.items())


def classical_gram(b, side):
    """Integer Gram matrix of the fundamental cycles (flow) or cuts (cut)."""
    if side not in ("flow", "cut"):
        raise ValueError("side must be 'flow' or 'cut'")
    labels, vector = (b.part1, b_cycle) if side == "flow" else (b.part0, b_cut)
    vecs = [vector(b, v) for v in labels]
    ent = [[vec_dot(u, v) for v in vecs] for u in vecs]
    return QMatrix(ent, labels, labels)
