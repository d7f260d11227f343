"""Correctness oracles for the benchmark, independent of the qlat package.

Every check takes the CLI's stdout (JSON or text) and the generated input,
recomputes what it can with its own few lines of exact arithmetic, and
returns a list of error strings (empty when the output is right).  Nothing
here imports qlat, so a defect in the library cannot hide in its oracle.
"""

from __future__ import annotations

import hashlib
import json
import re

# sha256 of `qlat verify --family N` stdout (text format).  The outputs are
# byte-identical at every --jobs value; a change that adds or renames a check
# changes them and must say so.
FAMILY_SHA256 = {
    4: "20a976e1aa4b54657a398e03a607e93f570729404016c32e0cc65f29fdac3238",
    6: "92a42edaaa7acf121d4c2503bb2fac272400bd4520d8b384f356fe6312d6860b",
}


# -- Laurent polynomials and Z[q,q^-1,t]/(t^2-1), as {exponent: coeff} -------


def poly_from_json(obj):
    return {obj["min_deg"] + k: c for k, c in enumerate(obj["coeffs"]) if c}


def poly_add(a, b):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def poly_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: c for k, c in out.items() if c}


def qt_from_json(obj):
    return poly_from_json(obj["even"]), poly_from_json(obj["odd"])


def qt_mul(x, y):
    """(a + b t)(c + d t) = (ac + bd) + (ad + bc) t, since t^2 = 1."""
    (a, b), (c, d) = x, y
    return (poly_add(poly_mul(a, c), poly_mul(b, d)),
            poly_add(poly_mul(a, d), poly_mul(b, c)))


def qt_add(x, y):
    return poly_add(x[0], y[0]), poly_add(x[1], y[1])


QT_ZERO = ({}, {})
QT_ONE = ({0: 1}, {})


# -- integer determinant and spanning-tree counts -------------------------------


def int_det(rows):
    """Exact determinant of a square integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def kirchhoff_count(n, edges):
    """Spanning trees of a multigraph: a reduced Laplacian determinant."""
    lap = [[0] * n for _ in range(n)]
    for _, a, b in edges:
        if a == b:
            continue
        a, b = a - 1, b - 1
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    return int_det([row[:-1] for row in lap[:-1]])


def one_swap_count(n, edges, tree):
    """Trees differing from the chosen one in exactly one edge.

    Each non-tree edge f may replace any tree edge on its fundamental
    cycle, so the count is the sum of the tree-path lengths between the
    endpoints of the non-tree edges.
    """
    adj = {v: [] for v in range(1, n + 1)}
    for eid, a, b in edges:
        if eid in tree:
            adj[a].append(b)
            adj[b].append(a)
    total = 0
    for eid, a, b in edges:
        if eid in tree or a == b:
            continue
        dist = {a: 0}
        frontier = [a]
        while b not in dist:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        total += dist[b]
    return total


# -- checks on CLI outputs -------------------------------------------------------


def _parse_json(text, what):
    try:
        return json.loads(text), None
    except ValueError as exc:
        return None, f"{what}: output is not JSON ({exc})"


def check_dets_agree(flow, cut):
    """Gluing theorem: flow and cut determinants agree modulo units."""
    return [] if flow == cut else ["det --flow and det --cut differ"]


def check_tree_polynomial(p, n, edges, tree):
    """A normalized lattice determinant is the tree-counting polynomial."""
    errors = []
    if p.get(0) != 1:
        errors.append(f"constant term is {p.get(0, 0)}, not 1")
    if any(k % 2 or c < 0 for k, c in p.items()):
        errors.append("not a polynomial in q^2 with nonnegative coefficients")
    want = kirchhoff_count(n, edges)
    if sum(p.values()) != want:
        errors.append(f"coefficient sum {sum(p.values())} != {want} spanning trees")
    want1 = one_swap_count(n, edges, tree)
    if p.get(2, 0) != want1:
        errors.append(f"q^2 coefficient {p.get(2, 0)} != {want1} one-swap trees")
    return errors


def check_lattice_group(outputs, n, edges, tree):
    """det --flow, det --cut and (when run) matrix-tree on one graph."""
    polys = {}
    for cmd, text in outputs.items():
        obj, err = _parse_json(text, cmd)
        if err:
            return [err]
        polys[cmd] = poly_from_json(obj)
    errors = check_dets_agree(polys["det_flow"], polys["det_cut"])
    errors += check_tree_polynomial(polys["det_cut"], n, edges, tree)
    if "matrix_tree" in polys and polys["matrix_tree"] != polys["det_cut"]:
        errors.append("matrix-tree differs from det --cut")
    return errors


def check_simples_invert_gram(gram, classes, rank):
    """The simple classes are the columns of the inverse graded Gram matrix."""
    g = [[qt_from_json(x) for x in row] for row in gram["entries"]]
    if len(g) != rank or any(len(row) != rank for row in g):
        return [f"gram --k0 is not {rank}x{rank}"]
    simples = [[qt_from_json(x) for x in vec] for vec in classes["simple"]]
    projectives = [[qt_from_json(x) for x in vec] for vec in classes["projective"]]
    if len(simples) != rank or any(len(v) != rank for v in simples):
        return [f"expected {rank} simple classes of length {rank}"]
    errors = []
    for k, vec in enumerate(projectives):
        if vec != [QT_ONE if i == k else QT_ZERO for i in range(rank)]:
            errors.append(f"projective {k} is not a unit vector")
            break
    for i in range(rank):
        for k in range(rank):
            acc = QT_ZERO
            for j in range(rank):
                acc = qt_add(acc, qt_mul(g[i][j], simples[k][j]))
            if acc != (QT_ONE if i == k else QT_ZERO):
                errors.append(f"(G * simples)[{i}][{k}] is not the identity")
                return errors
    return errors


_VERIFY_OK = re.compile(r"OK: (\d+)/(\d+) checks passed")


def check_verify_text(text):
    lines = text.strip().splitlines()
    m = _VERIFY_OK.fullmatch(lines[-1]) if lines else None
    if not m or m.group(1) != m.group(2) or any(not x.startswith("PASS ") for x in lines[:-1]):
        return ["verify did not report every check passed"]
    return []


def check_k0_group(outputs, rank):
    """gram --k0, algebra --classes and (when run) verify FILE on one input."""
    gram, err = _parse_json(outputs["gram_k0"], "gram --k0")
    if err:
        return [err]
    classes, err = _parse_json(outputs["algebra_classes"], "algebra --classes")
    if err:
        return [err]
    errors = check_simples_invert_gram(gram, classes, rank)
    if "verify_file" in outputs:
        errors += check_verify_text(outputs["verify_file"])
    return errors


def check_family(outputs, n):
    digest = hashlib.sha256(outputs["verify_family"].encode()).hexdigest()
    if digest != FAMILY_SHA256[n]:
        return [f"verify --family {n} stdout sha256 {digest[:16]} != pinned "
                f"{FAMILY_SHA256[n][:16]}"]
    return []


def check_pool_ran(cpu_s, wall_s):
    """A --jobs 2 family run whose CPU time does not exceed its wall time ran serially.

    `_family_checks` silently reruns the sweep serially when its process
    pool fails, with byte-identical output; only the pool's second worker
    can push CPU time past wall time.
    """
    if cpu_s <= wall_s:
        return [f"--jobs pool did not run: cpu {cpu_s:.2f} s <= wall {wall_s:.2f} s"]
    return []
