"""Command-line frontend.

Commands operate on graph files (with a marked spanning tree) or signed
bipartite files; graph inputs are converted through their bipartite graph
where needed.  Global --format selects text, json or latex emission;
--jobs parallelizes the family-level verify driver with output identical
to the serial run.  Exit status: 0 on success, 1 when verify finds a
failing property, 2 for usage or parse errors, 3 for an internal failure
such as running out of memory.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from operator import mul

from . import algebra, render
from .bipartite import build_bipartite, dual
from .fileio import ParseError, emit_bipartite, parse_bipartite, parse_graph, sniff_kind
from .graphs import OrientedMultigraph, SpanningTree, validate
from .invariants import (bipartite_checks, instance_checks, matrix_tree_enum_oracle,
                         q2iso_classes, q2iso_instance, q_matrix_tree, two_iso_search)
from .families import graph_tree_instances
from .lattices import (SignedPermutation, change_basis, cut_qlattice, decide_iso,
                       flow_gram_from_algebra, flow_qlattice, normalized_det)
from .matrices import CRTBoundError, QMatrix, ring_bar


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(0, f"cannot read {path}: {exc.strerror}") from None


def _load_any(path):
    """Returns (bipartite, graph_or_None, tree_or_None, name)."""
    text = _read(path)
    kind = sniff_kind(text)
    if kind == "graph":
        g, t, name = parse_graph(text)
        report = validate(g, t)
        if not report.ok and report.bridge_only():
            sys.stderr.write(
                "warning: input has bridges; constructions proceed but "
                "theorem guarantees do not apply\n")
        return build_bipartite(g, t, force=True), g, t, name
    b, name = parse_bipartite(text)
    return b, None, None, name


def _load_graph(path):
    text = _read(path)
    if sniff_kind(text) != "graph":
        raise ParseError(1, f"{path}: expected a graph file")
    return parse_graph(text)


def _emit_poly(p, fmt):
    if fmt == "json":
        return json.dumps(render.to_jsonable(p), sort_keys=True)
    if fmt == "latex":
        return render.poly_latex(p)
    return render.poly_text(p)


def _emit_matrix(m, fmt):
    if fmt == "json":
        return json.dumps(render.to_jsonable(m), sort_keys=True)
    if fmt == "latex":
        return render.matrix_latex(m).rstrip("\n")
    return render.matrix_text(m).rstrip("\n")


def _print(s):
    sys.stdout.write(s + "\n")


# -- subcommand handlers -----------------------------------------------------


def _print_bipartite(b, name, fmt):
    if fmt == "json":
        _print(json.dumps({
            "name": name,
            "part0": list(b.part0),
            "part1": list(b.part1),
            "sedges": [[i, j, s] for (i, j), s in sorted(b.signs.items())],
        }, sort_keys=True))
    else:
        sys.stdout.write(emit_bipartite(b, name))


def cmd_build_bipartite(args):
    g, t, name = _load_graph(args.file)
    _print_bipartite(build_bipartite(g, t, force=True), name, args.format)
    return 0


def cmd_dual(args):
    b, _, _, name = _load_any(args.file)
    _print_bipartite(dual(b), name + "-dual", args.format)
    return 0


def cmd_gram(args):
    b, _, _, _ = _load_any(args.file)
    if args.k0:
        m = algebra.k0_gram(b)
    elif args.flow:
        m = flow_qlattice(b).gram
    else:
        m = cut_qlattice(b).gram
    _print(_emit_matrix(m, args.format))
    return 0


def cmd_det(args):
    b, _, _, _ = _load_any(args.file)
    side, other = (flow_qlattice, cut_qlattice) if args.flow else (cut_qlattice, flow_qlattice)
    # det(I + q^k S) with k > 0 has constant term 1, so it is already the
    # normalized representative and --normalize changes nothing.
    try:
        det = normalized_det(side(b))
    except CRTBoundError:
        # S is M^T M on one side and M M^T on the other, and by Sylvester's
        # identity det(I + x M^T M) = det(I + x M M^T): the other side,
        # possibly of far smaller rank, has the same determinant
        det = normalized_det(other(b))
    _print(_emit_poly(det, args.format))
    return 0


def cmd_matrix_tree(args):
    g, t, _ = _load_graph(args.file)
    if args.oracle:
        p = matrix_tree_enum_oracle(g, t)
    else:
        _, p = q_matrix_tree(g, t)
    _print(_emit_poly(p, args.format))
    return 0


def _witness_lines(witness, from_labels, to_labels):
    out = []
    for i, (p, s) in enumerate(zip(witness.perm, witness.signs)):
        sign = "+" if s > 0 else "-"
        out.append(f"{to_labels[i]} -> {sign}{from_labels[p]}")
    return out


def cmd_iso(args):
    b1, _, _, _ = _load_any(args.file_a)
    b2, _, _, _ = _load_any(args.file_b)
    make = flow_qlattice if args.flow else cut_qlattice
    l1, l2 = make(b1), make(b2)
    w = decide_iso(l1, l2)
    if args.format == "json":
        obj = {"isomorphic": w is not None}
        if w is not None:
            obj["perm"] = list(w.perm)
            obj["signs"] = list(w.signs)
            obj["labels_a"] = list(l1.basis_labels)
            obj["labels_b"] = list(l2.basis_labels)
        _print(json.dumps(obj, sort_keys=True))
    elif w is None:
        _print("none")
    else:
        for line in _witness_lines(w, l1.basis_labels, l2.basis_labels):
            _print(line)
    return 0


def cmd_two_iso(args):
    g1, t1, _ = _load_graph(args.file_a)
    g2, t2, _ = _load_graph(args.file_b)
    w = two_iso_search(g1, t1, g2, t2)
    if args.format == "json":
        obj = {"two_isomorphic": w is not None}
        if w is not None:
            obj["mapping"] = list(w)
        _print(json.dumps(obj, sort_keys=True))
    elif w is None:
        _print("none")
    else:
        for e, img in enumerate(w, start=1):
            _print(f"{e} -> {img}")
    return 0


def _resolution_text(b, v):
    res = algebra.resolve_simple(b, v)
    steps = []
    for step in res.steps:
        if not step:
            steps.append("0")
            continue
        parts = []
        for vert, qs, ts in step:
            s = f"P{vert}"
            if qs:
                s += "{%d}" % qs
            if ts:
                s += "<t>"
            parts.append(s)
        steps.append(" + ".join(parts))
    return f"simple {v}: " + " <- ".join(steps)


def cmd_algebra(args):
    b, _, _, _ = _load_any(args.file)
    order = algebra.vertex_order(b)
    if args.homs:
        _print(_emit_matrix(algebra.k0_gram(b), args.format))
        return 0
    if args.resolutions:
        if args.format == "json":
            obj = {}
            for v in order:
                res = algebra.resolve_simple(b, v)
                obj[str(v)] = [[[vert, qs, ts] for vert, qs, ts in step]
                               for step in res.steps]
            _print(json.dumps(obj, sort_keys=True))
        else:
            for v in order:
                _print(_resolution_text(b, v))
        return 0
    fams = algebra.distinguished_classes(b)
    if args.format == "json":
        obj = {tag: [[render.to_jsonable(c) for c in vec.coords] for vec in vecs]
               for tag, vecs in fams.items()}
        _print(json.dumps(obj, sort_keys=True))
    else:
        for tag in ("projective", "simple", "injective", "standard", "costandard"):
            for v, vec in zip(order, fams[tag]):
                coords = ", ".join(render.qt_text(c) for c in vec.coords)
                _print(f"{tag} {v}: ({coords})")
    return 0


# -- verify -------------------------------------------------------------------


def _per_input_checks(b, g, t, seed=20250801):
    """The battery of verify FILE; the seed feeds only _iso_round_trip."""
    if g is not None:
        checks = {"validation": validate(g, t).ok, **instance_checks(g, t)}
    else:
        checks = bipartite_checks(b)
    checks["d_involution"] = _d_checks(b)
    checks["rigidity_sampling"] = _rigidity_sampling(b)
    checks["iso_round_trip"] = _iso_round_trip(b, seed, rounds=25)
    return checks


def _d_checks(b):
    """D bar(D) = I and D^t G^t bar(D) = G for the cached D = G^-1 bar(G):
    v -> D bar(v) is an involution and <x, y> = <Dy, Dx> for all x, y."""
    d, g = algebra.d_matrix(b), algebra.k0_gram(b)
    bar_d = d.map(ring_bar)
    return (d * bar_d == QMatrix.identity(d.rows, g.sample())
            and d.transpose() * g.transpose() * bar_d == g)


def _rigidity_sampling(b):
    """Every flow vector of norm 1 + c q^2 is +-q^j times a basis vector.

    Exact, by the lemma in the lattices module docstring: it holds for any
    Gram I + q^2 S with S an integer symmetric matrix, so this checks that
    the algebra-route flow Gram has that shape, entry by entry.
    """
    gram = flow_gram_from_algebra(b)
    for i, row in enumerate(gram.entries):
        for j, x in enumerate(row):
            terms = list((x - 1 if i == j else x).terms())
            if len(terms) > 1 or (terms and terms[0][0] != 2) or x != gram[j, i]:
                return False
    return True


def _iso_round_trip(b, seed, rounds=25):
    """decide_iso finds a witness for seeded scrambles of both lattices.

    For a real signed permutation P, P*(I + q^k S)P = I + q^k P^t S P, so
    the witness is checked on the integer data (k, S).
    """
    rng = random.Random(seed + 2)
    for lat in (flow_qlattice(b), cut_qlattice(b)):
        n = lat.rank
        for _ in range(rounds):
            perm = list(range(n))
            rng.shuffle(perm)
            signs = [rng.choice((1, -1)) for _ in range(n)]
            scrambled = change_basis(lat, SignedPermutation(tuple(perm), tuple(signs)))
            w = decide_iso(lat, scrambled)
            if w is None:
                return False
            p = w.matrix(1).entries
            if (lat.k != scrambled.k
                    or _int_product(_int_product(tuple(zip(*p)), lat.s), p) != scrambled.s):
                return False
    return True


def _int_product(a, b):
    """The product of two integer matrices held as tuples of rows."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _family_instance_worker(packed):
    idx, vertex_count, edges, tree = packed
    g = OrientedMultigraph(vertex_count, edges)
    t = SpanningTree(tree)
    return idx, instance_checks(g, t)


def _family_checks(max_edges, jobs):
    instances = graph_tree_instances(max_edges)
    packed = [(i, g.vertex_count, g.edges, tuple(sorted(t.tree_edges)))
              for i, (g, t) in enumerate(instances)]
    results = {}
    if jobs > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs) as pool:
                for idx, checks in pool.map(_family_instance_worker, packed,
                                            chunksize=8):
                    results[idx] = checks
        except Exception as exc:
            sys.stderr.write(f"warning: --jobs {jobs} pool failed ({exc!r}); "
                             "running the family serially\n")
            results = {}
    if not results:
        for item in packed:
            idx, checks = _family_instance_worker(item)
            results[idx] = checks
    lines = []
    all_ok = True
    for i, (g, t) in enumerate(instances):
        checks = results[i]
        bad = sorted(name for name, ok in checks.items() if not ok)
        key = f"graph{i:03d}(n={g.vertex_count},m={g.edge_count},T={sorted(t.tree_edges)})"
        if bad:
            all_ok = False
            lines.append((key, False, "failed: " + ", ".join(bad)))
        else:
            lines.append((key, True, f"{len(checks)} checks"))
    return lines, all_ok, instances


def _family_pair_checks(instances):
    """(pairs, disagreements) of the q2iso theorem on the loopless valid
    sub-family of e instances, each instance's record built once.

    The three predicates are equivalence relations, so agreeing on all
    e(e + 1)/2 pairs is the same as having equal partitions:
    disagreements counts the failures q2iso_classes reports (a diagonal
    pair not related three ways, a record related to two class
    representatives) plus the records whose three class labels differ.
    """
    eligible = [q2iso_instance(g, t) for g, t in instances
                if not any(g.is_loop(e) for e in range(1, g.edge_count + 1))
                and validate(g, t).ok]
    flow, cut, two_iso, failures = q2iso_classes(eligible)
    mismatched = sum(not f == c == t for f, c, t in zip(flow, cut, two_iso))
    e = len(eligible)
    return e * (e + 1) // 2, failures + mismatched


def cmd_verify(args):
    lines = []
    ok = True
    if args.file:
        text = _read(args.file)
        if sniff_kind(text) == "graph":
            g, t, name = parse_graph(text)
            report = validate(g, t)
            if report.ok or report.bridge_only():
                checks = _per_input_checks(build_bipartite(g, t, force=True), g, t)
            else:
                checks = {"validation": False}
        else:
            b, name = parse_bipartite(text)
            checks = _per_input_checks(b, None, None)
        for cname in sorted(checks):
            lines.append((f"{name}.{cname}", checks[cname], ""))
            ok = ok and checks[cname]
    if args.family:
        fam_lines, fam_ok, instances = _family_checks(args.family, args.jobs)
        lines.extend(fam_lines)
        ok = ok and fam_ok
        pairs, disagreements = _family_pair_checks(instances)
        lines.append((f"q2iso_pairs(<= {args.family} edges)",
                      disagreements == 0, f"{pairs} pairs"))
        ok = ok and disagreements == 0
    if not args.file and not args.family:
        raise ParseError(0, "verify needs a file, --family N, or both")
    if args.format == "json":
        _print(json.dumps({
            "ok": ok,
            "checks": [{"name": n, "ok": o, "detail": d} for n, o, d in lines],
        }, sort_keys=True))
    elif args.format == "latex":
        _print(r"\begin{tabular}{ll}")
        for n, o, _ in lines:
            _print(f"{n} & {'PASS' if o else 'FAIL'} \\\\")
        _print(r"\end{tabular}")
    else:
        for n, o, d in lines:
            status = "PASS" if o else "FAIL"
            suffix = f"  ({d})" if d else ""
            _print(f"{status} {n}{suffix}")
        _print(f"{'OK' if ok else 'FAILED'}: {sum(1 for _, o, _ in lines if o)}"
               f"/{len(lines)} checks passed")
    return 0 if ok else 1


# -- entry point ---------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qlat",
        description="Exact q-cut/q-flow lattice computations for graphs "
                    "with a chosen spanning tree.")
    parser.add_argument("--format", choices=("text", "json", "latex"),
                        default="text", help="output format")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallel workers for family verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-bipartite", help="signed bipartite graph of (graph, tree)")
    p.add_argument("file")
    p.set_defaults(func=cmd_build_bipartite)

    p = sub.add_parser("dual", help="flip bipartition and all edge signs")
    p.add_argument("file")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("gram", help="Gram matrix of a lattice or of the full module")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--flow", action="store_true")
    grp.add_argument("--cut", action="store_true")
    grp.add_argument("--k0", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("det", help="lattice determinant")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--flow", action="store_true")
    grp.add_argument("--cut", action="store_true")
    p.add_argument("--normalize", action="store_true",
                   help="canonical representative modulo units; the lattice "
                        "determinant already is one, so both forms agree")
    p.add_argument("file")
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("matrix-tree", help="tree-counting polynomial")
    p.add_argument("--oracle", action="store_true",
                   help="use spanning-tree enumeration instead of the determinant")
    p.add_argument("file")
    p.set_defaults(func=cmd_matrix_tree)

    p = sub.add_parser("iso", help="decide lattice isomorphism of two inputs")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--flow", action="store_true")
    grp.add_argument("--cut", action="store_true")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("two-iso", help="tree-preserving cycle-preserving edge bijection")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_two_iso)

    p = sub.add_parser("algebra", help="graded algebra data")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--resolutions", action="store_true")
    grp.add_argument("--classes", action="store_true")
    grp.add_argument("--homs", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--family", type=int, metavar="N",
                   help="also check every bridgeless multigraph with <= N edges")
    p.add_argument("file", nargs="?")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for option in ("jobs", "family"):
            value = getattr(args, option, None)
            if value is not None and value < 1:
                raise ValueError(f"--{option} must be at least 1, got {value}")
        return args.func(args)
    except ValueError as exc:  # ParseError included
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # MemoryError included: one line, never a traceback
        sys.stderr.write(f"error: internal failure ({type(exc).__name__}): {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
