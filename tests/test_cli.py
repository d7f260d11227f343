import json
import random

import pytest

from qlat.cli import main
from qlat.laurent import LaurentPoly
from qlat.render import matrix_text, poly_latex, poly_text, qt_text
from qlat.laurent import QTElement
from qlat.matrices import QMatrix

TRIANGLE = """\
graph triangle
vertices 3
edge 1 1 2 tree
edge 2 2 3 tree
edge 3 1 3
"""

TRIANGLE_OTHER_TREE = """\
graph other
vertices 3
edge 1 1 2
edge 2 2 3 tree
edge 3 1 3 tree
"""

THETA = """\
graph theta
vertices 2
edge 1 1 2 tree
edge 2 1 2
edge 3 1 2
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("triangle", TRIANGLE), ("other", TRIANGLE_OTHER_TREE),
                       ("theta", THETA)):
        p = tmp_path / f"{name}.graph"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def test_poly_text_pinned():
    assert poly_text(LaurentPoly.from_terms([(0, 1), (2, 2)])) == "1 + 2*q^2"
    assert poly_text(LaurentPoly.from_terms([(-1, -1), (1, 1)])) == "-q^-1 + q"
    assert poly_text(LaurentPoly.zero()) == "0"
    assert poly_text(LaurentPoly.q_power(1, -1)) == "-q"
    assert poly_text(LaurentPoly.from_int(-7)) == "-7"
    assert qt_text(QTElement.monomial(1, 1, 1)) == "q*t"
    assert qt_text(QTElement(LaurentPoly.one(), LaurentPoly.q_power(1, -2))) == "1 - 2*q*t"


def test_poly_latex_pinned():
    assert poly_latex(LaurentPoly.from_terms([(0, 1), (2, 2)])) == "1 + 2 q^{2}"
    assert poly_latex(LaurentPoly.from_terms([(-1, 1)])) == "q^{-1}"


def test_det_command(files, capsys):
    assert main(["det", "--cut", "--normalize", files["triangle"]]) == 0
    assert capsys.readouterr().out == "1 + 2*q^2\n"
    assert main(["det", "--flow", files["triangle"]]) == 0
    assert capsys.readouterr().out == "1 + 2*q^2\n"
    # the determinant is already normalized, so --normalize prints the same
    for side in ("--flow", "--cut"):
        assert main(["det", side, files["theta"]]) == 0
        plain = capsys.readouterr().out
        assert main(["det", side, "--normalize", files["theta"]]) == 0
        assert capsys.readouterr().out == plain


def test_det_json(files, capsys):
    assert main(["--format", "json", "det", "--cut", files["triangle"]]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"min_deg": 0, "coeffs": [1, 0, 2]}


def test_gram_commands(files, capsys):
    assert main(["gram", "--flow", files["triangle"]]) == 0
    out = capsys.readouterr().out
    assert out == "# rows: 3\n# cols: 3\n1 + 2*q^2\n"
    assert main(["gram", "--cut", files["triangle"]]) == 0
    out = capsys.readouterr().out
    assert "1 + q^2\tq^2" in out
    assert main(["gram", "--k0", files["triangle"]]) == 0
    out = capsys.readouterr().out
    assert "q*t" in out


def test_gram_latex(files, capsys):
    assert main(["--format", "latex", "gram", "--flow", files["triangle"]]) == 0
    out = capsys.readouterr().out
    assert out.startswith("\\begin{bmatrix}")
    assert "1 + 2 q^{2}" in out


def test_matrix_tree_command(files, capsys):
    assert main(["matrix-tree", files["triangle"]]) == 0
    det_out = capsys.readouterr().out
    assert main(["matrix-tree", "--oracle", files["triangle"]]) == 0
    oracle_out = capsys.readouterr().out
    assert det_out == oracle_out == "1 + 2*q^2\n"


def test_iso_command(files, capsys):
    assert main(["iso", "--flow", files["triangle"], files["other"]]) == 0
    out = capsys.readouterr().out
    assert "->" in out
    assert main(["iso", "--flow", files["triangle"], files["theta"]]) == 0
    assert capsys.readouterr().out == "none\n"
    assert main(["--format", "json", "iso", "--cut", files["triangle"],
                 files["other"]]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["isomorphic"] is True


def test_two_iso_command(files, capsys):
    assert main(["two-iso", files["triangle"], files["other"]]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3 and all("->" in line for line in out)
    assert main(["two-iso", files["triangle"], files["theta"]]) == 0
    assert capsys.readouterr().out == "none\n"


def _cycle_file(tmp_path, m):
    """The m-cycle, its tree all edges but the last."""
    lines = ["graph cycle", f"vertices {m}"]
    lines += [f"edge {e} {e} {e + 1} tree" for e in range(1, m)]
    lines.append(f"edge {m} 1 {m}")
    path = tmp_path / "cycle.graph"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_two_iso_long_cycle_does_not_recurse(capsys, tmp_path):
    # one search step per edge: 1,100 edges is past the default recursion limit
    m = 1100
    path = _cycle_file(tmp_path, m)
    assert main(["two-iso", path, path]) == 0
    out = capsys.readouterr().out
    assert out == "".join(f"{e} -> {e}\n" for e in range(1, m + 1))


def test_build_bipartite_and_dual_round_trip(files, capsys, tmp_path):
    assert main(["build-bipartite", files["triangle"]]) == 0
    out = capsys.readouterr().out
    assert out == ("bipartite triangle\npart0 1 2\npart1 3\n"
                   "sedge 1 3 -1\nsedge 2 3 -1\n")
    bp = tmp_path / "t.bipartite"
    bp.write_text(out)
    assert main(["dual", str(bp)]) == 0
    dual_out = capsys.readouterr().out
    assert "part0 3" in dual_out and "sedge 3 1 +1" in dual_out
    # dual twice returns the original sign matrix
    bp2 = tmp_path / "d.bipartite"
    bp2.write_text(dual_out)
    assert main(["dual", str(bp2)]) == 0
    again = capsys.readouterr().out
    assert "sedge 1 3 -1" in again and "part0 1 2" in again


def test_gram_accepts_bipartite_files(files, capsys, tmp_path):
    assert main(["build-bipartite", files["triangle"]]) == 0
    bp = tmp_path / "t.bipartite"
    bp.write_text(capsys.readouterr().out)
    assert main(["det", "--flow", str(bp)]) == 0
    assert capsys.readouterr().out == "1 + 2*q^2\n"


def test_algebra_commands(files, capsys):
    assert main(["algebra", "--resolutions", files["triangle"]]) == 0
    out = capsys.readouterr().out
    assert "simple 3: P3 <- P1{1}<t> + P2{1}<t>" in out
    assert main(["algebra", "--classes", files["triangle"]]) == 0
    out = capsys.readouterr().out
    assert "simple 1: (1 + q^2, q^2, -q*t)" in out
    assert main(["algebra", "--homs", files["triangle"]]) == 0
    assert "1 + 2*q^2" in capsys.readouterr().out


def test_verify_pass_and_fail_exit_codes(files, capsys, tmp_path):
    assert main(["verify", files["triangle"]]) == 0
    out = capsys.readouterr().out
    assert "OK:" in out and "FAIL" not in out
    # a bridged graph fails validation
    bad = tmp_path / "bridge.graph"
    bad.write_text("graph bridge\nvertices 2\nedge 1 1 2 tree\n")
    assert main(["verify", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL bridge.validation" in out


def test_verify_family_matches_jobs(files, capsys):
    assert main(["verify", "--family", "3"]) == 0
    serial = capsys.readouterr().out
    assert main(["--jobs", "2", "verify", "--family", "3"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel
    assert "q2iso_pairs" in serial


def test_verify_json(files, capsys):
    assert main(["--format", "json", "verify", files["triangle"]]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ok"] is True
    assert all(c["ok"] for c in obj["checks"])


def test_verify_bipartite_file(files, capsys, tmp_path):
    """The triangle's bipartite graph and the degenerate ones with an empty
    part (or both parts empty) pass all 11 checks."""
    assert main(["build-bipartite", files["triangle"]]) == 0
    texts = [capsys.readouterr().out,
             "bipartite none\npart0\npart1\n",
             "bipartite right\npart0\npart1 1 2\n",
             "bipartite left\npart0 1 2 3\npart1\n"]
    for k, text in enumerate(texts):
        bp = tmp_path / f"t{k}.bipartite"
        bp.write_text(text)
        assert main(["verify", str(bp)]) == 0
        out = capsys.readouterr().out
        assert "koszul_identity" in out and "FAIL" not in out
        assert sum(line.startswith("PASS ") for line in out.splitlines()) == 11


def test_bridged_input_warns_on_stderr(tmp_path, capsys):
    bridged = tmp_path / "b.graph"
    bridged.write_text("graph b\nvertices 2\nedge 1 1 2 tree\n")
    assert main(["det", "--flow", str(bridged)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "1\n"
    assert "warning" in captured.err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("graph g\nvertices 2\nedge 1 1 9\n")
    assert main(["det", "--flow", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err
    missing = tmp_path / "missing.graph"
    assert main(["det", "--flow", str(missing)]) == 2


def test_usage_error_exit_code(files):
    with pytest.raises(SystemExit) as exc:
        main(["det", files["triangle"]])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--bogus-flag"])
    assert exc.value.code == 2


def test_two_iso_requires_graph_files(files, capsys, tmp_path):
    assert main(["build-bipartite", files["triangle"]]) == 0
    bp = tmp_path / "t.bipartite"
    bp.write_text(capsys.readouterr().out)
    assert main(["two-iso", str(bp), files["triangle"]]) == 2


def test_matrix_text_tab_separated():
    from qlat.matrices import QMatrix
    m = QMatrix([[LaurentPoly.one(), LaurentPoly.q_power(2)]],
                row_labels=("a",), col_labels=("x", "y"))
    assert matrix_text(m) == "# rows: a\n# cols: x y\n1\tq^2\n"


def test_single_vertex_graph_through_cli(tmp_path, capsys):
    f = tmp_path / "point.graph"
    f.write_text("graph point\nvertices 1\n")
    assert main(["det", "--flow", str(f)]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["matrix-tree", str(f)]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["verify", str(f)]) == 0
    capsys.readouterr()


def test_iso_mixing_graph_and_bipartite_files(files, capsys, tmp_path):
    assert main(["build-bipartite", files["triangle"]]) == 0
    bp = tmp_path / "t.bipartite"
    bp.write_text(capsys.readouterr().out)
    assert main(["iso", "--flow", str(bp), files["triangle"]]) == 0
    out = capsys.readouterr().out
    assert out != "none\n" and "->" in out


def test_two_iso_json_and_matrix_tree_latex(files, capsys):
    assert main(["--format", "json", "two-iso", files["triangle"],
                 files["theta"]]) == 0
    assert json.loads(capsys.readouterr().out) == {"two_isomorphic": False}
    assert main(["--format", "json", "two-iso", files["triangle"],
                 files["other"]]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["two_isomorphic"] is True and len(obj["mapping"]) == 3
    assert main(["--format", "latex", "matrix-tree", files["triangle"]]) == 0
    assert capsys.readouterr().out == "1 + 2 q^{2}\n"


def test_json_structured_commands(files, capsys):
    assert main(["--format", "json", "build-bipartite", files["triangle"]]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["part0"] == [1, 2] and obj["sedges"] == [[1, 3, -1], [2, 3, -1]]
    assert main(["--format", "json", "dual", files["triangle"]]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["part0"] == [3] and obj["sedges"] == [[3, 1, 1], [3, 2, 1]]
    assert obj["name"] == "triangle-dual"
    assert main(["--format", "json", "algebra", "--resolutions",
                 files["triangle"]]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["3"] == [[[3, 0, 0]], [[1, 1, 1], [2, 1, 1]]]
    assert main(["--format", "json", "gram", "--k0", files["triangle"]]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["rows"] == 3 and obj["entries"][0][2] == {
        "even": {"min_deg": 0, "coeffs": []},
        "odd": {"min_deg": 1, "coeffs": [1]}}


def test_verify_latex_table(files, capsys):
    assert main(["--format", "latex", "verify", files["triangle"]]) == 0
    out = capsys.readouterr().out
    assert out.startswith("\\begin{tabular}") and "PASS" in out


# -- check registry, pool fallback and the byte-identity gate -----------------

BIPARTITE_CHECKS = {"glue_orthogonal", "glue_dets_equal", "glue_k0_unimodular",
                    "classical_specialization", "lattice_routes_agree",
                    "flow_cut_duality", "koszul_identity", "simples_match_inverse"}
FAMILY_CHECKS = BIPARTITE_CHECKS | {"matrix_tree_det_vs_enum", "matrix_tree_det_vs_cut",
                                    "sign_duality", "bipartite_matches_graph",
                                    "cut_basis_change"}
SAMPLED_CHECKS = {"d_involution", "rigidity_sampling", "iso_round_trip"}


def _verify_check_names(path, capsys):
    assert main(["--format", "json", "verify", path]) == 0
    names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert len(names) == len(set(names))
    return {n.split(".", 1)[1] for n in names}


def test_verify_check_names_are_pinned(files, capsys, tmp_path):
    from qlat.bipartite import build_bipartite
    from qlat.graphs import OrientedMultigraph, SpanningTree
    from qlat.invariants import bipartite_checks, instance_checks

    graph_names = _verify_check_names(files["triangle"], capsys)
    assert graph_names == FAMILY_CHECKS | SAMPLED_CHECKS | {"validation"}
    assert len(graph_names) == 17
    assert main(["build-bipartite", files["triangle"]]) == 0
    bp = tmp_path / "t.bipartite"
    bp.write_text(capsys.readouterr().out)
    bip_names = _verify_check_names(str(bp), capsys)
    assert bip_names == BIPARTITE_CHECKS | SAMPLED_CHECKS and len(bip_names) == 11
    g = OrientedMultigraph(2, [(1, 1, 2), (2, 1, 2)])
    t = SpanningTree({1})
    assert set(instance_checks(g, t)) == FAMILY_CHECKS and len(FAMILY_CHECKS) == 13
    assert set(bipartite_checks(build_bipartite(g, t))) == BIPARTITE_CHECKS


def test_family_pool_failure_warns_and_runs_serially(monkeypatch, capsys):
    import concurrent.futures

    assert main(["verify", "--family", "3"]) == 0
    serial = capsys.readouterr()

    class BrokenPool:
        def __init__(self, *args, **kwargs):
            raise RuntimeError("no worker processes")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BrokenPool)
    assert main(["--jobs", "2", "verify", "--family", "3"]) == 0
    fallback = capsys.readouterr()
    assert fallback.out == serial.out
    lines = fallback.err.splitlines()
    assert len(lines) == 1
    assert "RuntimeError" in lines[0] and "no worker processes" in lines[0]


def test_verify_family_5_stdout_is_byte_identical(capsys):
    """The byte-identity gate for refactors: the pinned sha256 prefix of the
    family-5 report changes only when a check is added or renamed."""
    import hashlib

    assert main(["verify", "--family", "5"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest.startswith("ec86ca17ab399de7")


def test_verify_family_6_stdout_is_byte_identical(capsys):
    """The family-6 report, 47,278 q2iso pairs, hashes to its pinned sha256
    prefix, as the family-5 report does."""
    import hashlib

    assert main(["verify", "--family", "6"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest.startswith("92a42edaaa7acf12")


def test_algebra_caches_stay_bounded_over_a_family(files, capsys):
    """From empty caches, a family run, one verify FILE (whose d_involution
    reads d_matrix) and algebra --classes on the same file (whose injective
    and costandard classes read it again) hit every cache and stay within
    its bound."""
    import qlat.algebra

    caches = [fn for fn in vars(qlat.algebra).values() if hasattr(fn, "cache_info")]
    assert len(caches) == 3
    for fn in caches:
        fn.cache_clear()
    assert main(["verify", "--family", "5"]) == 0
    assert main(["verify", files["theta"]]) == 0
    assert main(["algebra", "--classes", files["theta"]]) == 0
    capsys.readouterr()
    for fn in caches:
        info = fn.cache_info()
        assert info.maxsize == qlat.algebra.CACHE_SIZE and info.currsize <= info.maxsize
        assert info.hits > 0, fn.__name__


@pytest.mark.parametrize("exc", [MemoryError(), RuntimeError("boom")])
def test_unexpected_failure_exits_3_without_traceback(files, capsys, monkeypatch, exc):
    import qlat.cli

    def fail(*args):
        raise exc

    monkeypatch.setattr(qlat.cli, "q_matrix_tree", fail)
    assert main(["matrix-tree", files["triangle"]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: internal failure ({type(exc).__name__}): {exc}\n"


@pytest.mark.parametrize("argv, message", [
    (["verify", "--family", "-1"], "--family must be at least 1, got -1"),
    (["verify", "--family", "0"], "--family must be at least 1, got 0"),
    (["--jobs", "-3", "verify", "--family", "2"], "--jobs must be at least 1, got -3"),
    (["--jobs", "0", "verify", "--family", "2"], "--jobs must be at least 1, got 0"),
])
def test_counts_below_one_are_usage_errors(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _complete_graph_file(tmp_path, n):
    """K_n with the star at vertex 1 as its tree."""
    from qlat.fileio import emit_graph
    from qlat.graphs import OrientedMultigraph, SpanningTree

    edges = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    g = OrientedMultigraph(n, [(i, a, b) for i, (a, b) in enumerate(edges, start=1)])
    t = SpanningTree(i for i, (a, _) in enumerate(edges, start=1) if a == 1)
    path = tmp_path / f"k{n}.graph"
    path.write_text(emit_graph(g, t, f"k{n}"))
    return str(path)


def test_verify_takes_no_qt_determinant(capsys, monkeypatch, tmp_path):
    """verify on K5, on K5's bipartite file and on family 4 prints the same
    report, and exits 0, with the QT determinant kernel patched to raise."""
    import qlat.matrices
    from qlat import algebra
    from qlat.bipartite import SignedBipartiteGraph

    k5 = _complete_graph_file(tmp_path, 5)
    assert main(["build-bipartite", k5]) == 0
    bp = tmp_path / "k5.bipartite"
    bp.write_text(capsys.readouterr().out)
    runs = [["verify", k5], ["verify", str(bp)], ["verify", "--family", "4"]]
    expected = []
    for argv in runs:
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)

    def fail(entries):
        raise AssertionError("verify took a QT determinant")

    monkeypatch.setattr(qlat.matrices, "_det_qt", fail)
    with pytest.raises(AssertionError):
        algebra.k0_gram(SignedBipartiteGraph([1], [2], {(1, 2): -1})).det()
    for fn in (algebra.k0_gram, algebra.k0_gram_inverse, algebra.d_matrix):
        fn.cache_clear()
    for argv, out in zip(runs, expected):
        assert main(argv) == 0
        assert capsys.readouterr().out == out


def test_planted_d_matrix_mutant_fails_d_involution(files, capsys, monkeypatch):
    """One wrong entry of D, at each position in turn, fails the exact
    d_involution identities; verify then reports that check alone."""
    from qlat import algebra
    from qlat.bipartite import SignedBipartiteGraph
    from qlat.cli import _d_checks

    def with_wrong_entry(d, r, c):
        ent = [list(row) for row in d.entries]
        ent[r][c] = ent[r][c] + QTElement.monomial(1, 1, 1)
        return QMatrix(ent, d.row_labels, d.col_labels)

    real = algebra.d_matrix
    inputs = [SignedBipartiteGraph([1, 2], [3], {(1, 3): -1, (2, 3): -1}),
              SignedBipartiteGraph([1, 2], [3, 4], {(1, 3): 1, (1, 4): -1, (2, 3): 1})]
    for b in inputs:
        assert _d_checks(b)
        d = real(b)
        for r in range(d.rows):
            for c in range(d.cols):
                mutant = with_wrong_entry(d, r, c)
                monkeypatch.setattr(algebra, "d_matrix", lambda _b, m=mutant: m)
                assert not _d_checks(b), (b.signs, r, c)
        monkeypatch.undo()
    monkeypatch.setattr(algebra, "d_matrix", lambda b: with_wrong_entry(real(b), 0, 1))
    assert main(["verify", files["theta"]]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")]
    assert fails == ["FAIL theta.d_involution"]


def _theta_bipartite():
    from qlat.bipartite import build_bipartite
    from qlat.fileio import parse_graph

    g, t, _ = parse_graph(THETA)
    return build_bipartite(g, t)


def _flow_gram_mutants(gram):
    """Three wrong flow Grams: a q^1 off-diagonal pair, an asymmetric pair of
    q^2 coefficients, and a diagonal entry 1 + q^2 + q^4."""
    q = LaurentPoly.q_power
    one = LaurentPoly.one()

    def replaced(*changes):
        ent = [list(row) for row in gram.entries]
        for (i, j), x in changes:
            ent[i][j] = x
        return QMatrix(ent, gram.row_labels, gram.col_labels)

    c = gram[0, 1].coefficient(2)
    return {"q1_off_diagonal": replaced(((0, 1), q(1)), ((1, 0), q(1))),
            "asymmetric_pair": replaced(((1, 0), q(2, c + 1))),
            "diagonal_q4": replaced(((0, 0), one + q(2) + q(4)))}


def test_planted_flow_gram_mutants_fail_rigidity(files, capsys, monkeypatch):
    """The exact rigidity check fails on each wrong algebra-route flow Gram;
    verify then reports that check alone."""
    import qlat.cli
    from qlat.cli import _rigidity_sampling
    from qlat.lattices import flow_gram_from_algebra

    b = _theta_bipartite()
    assert _rigidity_sampling(b)
    for name, mutant in _flow_gram_mutants(flow_gram_from_algebra(b)).items():
        monkeypatch.setattr(qlat.cli, "flow_gram_from_algebra", lambda _b, m=mutant: m)
        assert not _rigidity_sampling(b), name
        assert main(["verify", files["theta"]]) == 1
        fails = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("FAIL ")]
        assert fails == ["FAIL theta.rigidity_sampling"], name


def test_planted_witness_sign_flip_fails_iso_round_trip(files, capsys, monkeypatch):
    """A decide_iso witness with one sign flipped, at an index where S has a
    nonzero off-diagonal entry, fails the integer check (k, P^t S P) and the
    Laurent oracle P* G P alike."""
    import qlat.cli
    from qlat.cli import _iso_round_trip
    from qlat.lattices import SignedPermutation, decide_iso

    flipped = []

    def flip_one_sign(lat1, lat2):
        w = decide_iso(lat1, lat2)
        s = lat2.s
        i = next((i for i, row in enumerate(s)
                  if any(x for j, x in enumerate(row) if j != i)), None)
        if i is None:
            return w
        signs = list(w.signs)
        signs[i] = -signs[i]
        bad = SignedPermutation(w.perm, tuple(signs))
        pm = bad.matrix(LaurentPoly.one())
        assert (pm.star() * lat1.gram * pm).entries != lat2.gram.entries
        flipped.append(bad)
        return bad

    b = _theta_bipartite()
    assert _iso_round_trip(b, 20250801)
    monkeypatch.setattr(qlat.cli, "decide_iso", flip_one_sign)
    assert not _iso_round_trip(b, 20250801)
    assert flipped
    assert main(["verify", files["theta"]]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")]
    assert fails == ["FAIL theta.iso_round_trip"]


def test_verify_evaluates_no_q_norm(capsys, monkeypatch, tmp_path):
    """verify on K5 and on K5's bipartite file prints the same report, and
    exits 0, with the lattice pairing patched to raise: rigidity is read off
    the Gram, not sampled through norms."""
    import qlat.lattices

    k5 = _complete_graph_file(tmp_path, 5)
    assert main(["build-bipartite", k5]) == 0
    bp = tmp_path / "k5.bipartite"
    bp.write_text(capsys.readouterr().out)
    runs = [["verify", k5], ["verify", str(bp)]]
    expected = []
    for argv in runs:
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)

    def fail(*args):
        raise AssertionError("verify evaluated a q-norm")

    assert not hasattr(qlat.lattices, "norm_shape")
    monkeypatch.setattr(qlat.lattices.QLattice, "pairing", fail)
    for argv, out in zip(runs, expected):
        assert main(argv) == 0
        assert capsys.readouterr().out == out


def test_matrix_tree_runs_no_oracle(files, capsys, monkeypatch, tmp_path):
    """matrix-tree prints det Q0 without enumerating a tree or taking the
    cut-lattice determinant; the coefficients of K_n sum to Cayley's n^(n-2)."""
    import qlat.invariants

    def fail(*args):
        raise AssertionError("matrix-tree ran an oracle")

    monkeypatch.setattr(qlat.invariants, "tree_overlap_counts", fail)
    monkeypatch.setattr(qlat.invariants, "normalized_det", fail)
    assert main(["matrix-tree", files["triangle"]]) == 0
    assert capsys.readouterr().out == "1 + 2*q^2\n"
    for n in (10, 20):
        assert main(["--format", "json", "matrix-tree", _complete_graph_file(tmp_path, n)]) == 0
        poly = json.loads(capsys.readouterr().out)
        assert sum(poly["coeffs"]) == n ** (n - 2), n


def _qlat_in_one_gib(*args):
    """Run `python -m qlat ARGS` in a fresh process under a 1 GiB address-space cap."""
    import os
    import resource
    import subprocess
    import sys

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, "-m", "qlat", *args],
                          capture_output=True, text=True, env=env, preexec_fn=cap,
                          timeout=120)


def test_matrix_tree_k10_fits_in_one_gib(tmp_path):
    done = _qlat_in_one_gib("matrix-tree", _complete_graph_file(tmp_path, 10))
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("1 + ")


def test_huge_vertex_header_allocates_nothing_per_vertex(tmp_path):
    """Two edges cannot connect 10^9 vertices: every command says so from the
    header counts, instead of building per-vertex tables."""
    path = tmp_path / "big.graph"
    path.write_text("graph big\nvertices 1000000000\nedge 1 1 2 tree\nedge 2 2 1\n")
    done = _qlat_in_one_gib("verify", str(path))
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "FAIL big.validation\nFAILED: 0/1 checks passed\n", "")
    for args in (["det", "--cut"], ["det", "--flow"], ["matrix-tree", "--oracle"]):
        done = _qlat_in_one_gib(*args, str(path))
        assert done.returncode == 2 and done.stdout == "", (args, done.stderr)
        assert done.stderr.startswith("error: invalid graph/tree pair: disconnected"), args


def test_family_pair_sweep_builds_each_record_once(monkeypatch):
    """One q-flow lattice per eligible instance, and the report still
    counts every pair."""
    import qlat.cli
    import qlat.invariants
    from qlat.families import graph_tree_instances

    built = []
    real = qlat.invariants.flow_qlattice
    monkeypatch.setattr(qlat.invariants, "flow_qlattice", lambda b: built.append(b) or real(b))
    instances = graph_tree_instances(4)
    pairs, disagreements = qlat.cli._family_pair_checks(instances)
    e = len(built)
    assert 0 < e < len(instances)
    assert pairs == e * (e + 1) // 2 and disagreements == 0


def _seeded_complete_graph_file(tmp_path, n, seed):
    """K_n with seeded edge orientations and a seeded random recursive tree."""
    from qlat.fileio import emit_graph
    from qlat.graphs import OrientedMultigraph, SpanningTree

    rng = random.Random(seed)
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    edges = [(i, *(p if rng.random() < 0.5 else p[::-1])) for i, p in enumerate(pairs, 1)]
    order = rng.sample(range(1, n + 1), n)
    joins = {tuple(sorted((v, order[rng.randrange(i)]))) for i, v in enumerate(order) if i}
    tree = SpanningTree(i for i, p in enumerate(pairs, 1) if p in joins)
    path = tmp_path / f"k{n}-seed{seed}.graph"
    path.write_text(emit_graph(OrientedMultigraph(n, edges), tree, f"k{n}"))
    return str(path)


# det(I + q^2 S) of the q-flow lattice of _seeded_complete_graph_file(_, 12, 5),
# taken by Laurent Bareiss before the integer kernel existed
K12_SEED5_FLOW_DET = (
    "1 + 184*q^2 + 12745*q^4 + 448530*q^6 + 9021858*q^8 + 109802472*q^10 + "
    "830450298*q^12 + 3929600460*q^14 + 11492450301*q^16 + "
    "19937268944*q^18 + 18566952989*q^20 + 7041355442*q^22")


def test_det_flow_runs_no_laurent_bareiss(tmp_path, capsys, monkeypatch):
    import qlat.matrices

    def fail(*args):
        raise AssertionError("a lattice determinant went through Laurent Bareiss")

    monkeypatch.setattr(qlat.matrices, "_det_bareiss_laurent", fail)
    path = _seeded_complete_graph_file(tmp_path, 12, 5)
    assert main(["det", "--flow", path]) == 0
    assert capsys.readouterr().out == K12_SEED5_FLOW_DET + "\n"
    assert main(["--format", "json", "det", "--cut", path]) == 0
    assert sum(json.loads(capsys.readouterr().out)["coeffs"]) == 12 ** 10


def test_det_cut_past_the_crt_primes_takes_the_flow_side(capsys, tmp_path):
    # the cut lattice has rank 1,099, past the CRT table's bound; the flow
    # side has rank 1 and, by Sylvester's identity, the same determinant
    m = 1100
    assert main(["det", "--cut", _cycle_file(tmp_path, m)]) == 0
    assert capsys.readouterr().out == f"1 + {m - 1}*q^2\n"


def test_matrix_tree_oracle_on_long_cycle(capsys, tmp_path):
    # the tree enumeration keeps its own stack: 1,100 edges is past the
    # default recursion limit
    m = 1100
    assert main(["matrix-tree", "--oracle", _cycle_file(tmp_path, m)]) == 0
    assert capsys.readouterr().out == f"1 + {m - 1}*q^2\n"


def test_family_pair_sweep_takes_each_det_once(monkeypatch):
    """decide_iso reads each lattice's determinant from the lattice: at most
    one kernel call per lattice, two per eligible instance."""
    import qlat.cli
    import qlat.invariants
    import qlat.lattices
    from qlat.families import graph_tree_instances

    built, calls = [], []
    real_flow, real_kernel = qlat.invariants.flow_qlattice, qlat.lattices.det_one_plus_xs
    monkeypatch.setattr(qlat.invariants, "flow_qlattice",
                        lambda b: built.append(b) or real_flow(b))
    monkeypatch.setattr(qlat.lattices, "det_one_plus_xs",
                        lambda s: calls.append(s) or real_kernel(s))
    pairs, disagreements = qlat.cli._family_pair_checks(graph_tree_instances(5))
    e = len(built)
    assert pairs == e * (e + 1) // 2 and disagreements == 0
    assert 0 < len(calls) <= 2 * e


def test_family_pair_sweep_matches_the_all_pairs_oracle():
    """The class sweep returns what verify_q2iso_pair on every pair a <= b
    returned, on families 1..5."""
    import qlat.cli
    from qlat.families import graph_tree_instances
    from support import all_pairs_sweep

    for n in range(1, 6):
        instances = graph_tree_instances(n)
        assert qlat.cli._family_pair_checks(instances) == all_pairs_sweep(instances), n


def _family5():
    """Family 5, and the flow and cut partitions of its q2iso records."""
    from qlat.families import graph_tree_instances
    from qlat.invariants import q2iso_classes
    from support import q2iso_records

    instances = graph_tree_instances(5)
    return instances, q2iso_classes(q2iso_records(instances))[:2]


def _sweeps(instances):
    """Disagreements of the class sweep and of the all-pairs oracle."""
    import qlat.cli
    from support import all_pairs_sweep

    return [sweep(instances)[1] for sweep in (qlat.cli._family_pair_checks, all_pairs_sweep)]


def _refuse(monkeypatch, side, refused, e):
    """Makes decide_iso refuse the (i, j) pairs in refused of the side
    ("flow" or "cut") lattices, i and j indexing the e records that each
    sweep builds, in order."""
    import qlat.invariants

    pos, built = {}, [0]
    build, real = getattr(qlat.invariants, f"{side}_qlattice"), qlat.invariants.decide_iso

    def tracked(b):
        lat = build(b)
        pos[id(lat)] = built[0] % e
        built[0] += 1
        return lat

    monkeypatch.setattr(qlat.invariants, f"{side}_qlattice", tracked)
    monkeypatch.setattr(qlat.invariants, "decide_iso", lambda x, y: None if (
        pos.get(id(x)), pos.get(id(y))) in refused else real(x, y))


def test_family_pair_sweep_catches_a_refused_cut_pair(monkeypatch):
    """decide_iso refusing one cut record its class representative splits
    the cut partition from the flow partition."""
    instances, (_, cut) = _family5()
    member = next(i for i, r in enumerate(cut) if r != i)
    _refuse(monkeypatch, "cut", {(cut[member], member)}, len(cut))
    assert _sweeps(instances) == [1, 1]


def test_family_pair_sweep_catches_an_irreflexive_predicate(monkeypatch):
    """A two-isomorphism search that answers None on (x, x) fails every
    diagonal pair."""
    import qlat.invariants

    instances, (flow, _) = _family5()
    real = qlat.invariants._least_two_iso
    monkeypatch.setattr(qlat.invariants, "_least_two_iso",
                        lambda x, y: None if x is y else real(x, y))
    assert _sweeps(instances) == [len(flow), len(flow)]


def test_family_pair_sweep_catches_a_non_transitive_flow_predicate(monkeypatch):
    """A flow predicate refusing (a, b) for the first three members
    a < b < c of a flow class makes b a representative and puts c, and
    each later member, in two flow classes."""
    instances, (flow, _) = _family5()
    members = next(m for m in ([i for i, r in enumerate(flow) if r == rep]
                               for rep in sorted(set(flow))) if len(m) >= 3)
    _refuse(monkeypatch, "flow", {tuple(members[:2])}, len(flow))
    assert _sweeps(instances) == [len(members) - 1, 1]
