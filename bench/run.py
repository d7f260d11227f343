"""Benchmark of the qlat CLI: three workloads, one fresh process per operation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
src/ of the checkout, so nothing needs installing.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; per-operation lines go to stderr.

Each operation is a `qlat` command run the way a user runs it: its own
interpreter, so no operation reuses another's lru_cache entries.  The loop
is closed with one client: the next operation starts when the previous
one has ended.  Every operation runs under a wall-time cap and an
address-space cap (RLIMIT_AS, inherited by --jobs pool children), so a
runaway operation counts as failed instead of exhausting a shared machine.

Workloads (inputs come from --seed; the program only sees generated files):

  family6      `qlat --jobs 2 verify --family 6`: thousands of tiny exact
               computations.  Exhaustive, so the seed changes nothing.
  lattice_det  `det --flow/--cut --normalize` on seeded random spanning
               trees and edge orientations of K14, K12 and the 7x7 and 6x6
               grids, plus `matrix-tree` on K8 and the 4x4 grid: a few
               huge Bareiss determinants over Z[q,q^-1].
  k0_algebra   `gram --k0` and `algebra --classes` on K5-K7, the 3x4 grid
               and seeded sign matrices 6+8 and 8+10 (module ranks 10-21),
               plus `verify FILE` on the smaller ones.

--trace 0 repeats the workload's operation list while --seconds allows
(at least once) and reports medians over those passes, together with the
median of repeated fresh-interpreter set-up times.  --trace 1 makes one
serial pass with bench/trace_op.py wrapped around every operation, then
one untraced serial pass of the same list, in which only the functions
of the ROADMAP Baseline rows carry a timer, and reports per-layer numbers
beside both wall times; details go to .bench_out/trace-WORKLOAD-SEED.json.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import oracles
from trace_op import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

RUN_BUDGET_S = 170.0   # every operation of a run must end by then
OP_CAP_S = 150.0       # wall-time cap of one operation
AS_CAP_BYTES = 1 << 30  # address-space cap of each operation process
SETUP_SAMPLES = 20  # before the passes, and as many again after them
SETUP_CODE = ("from time import perf_counter; t0 = perf_counter(); import qlat.cli; "
              "qlat.cli.build_parser(); print(perf_counter() - t0)")


# -- operations and their inputs ---------------------------------------------------


@dataclass
class Op:
    cmd: str            # command kind, e.g. det_flow; names the per-command time
    args: list          # qlat arguments
    label: str          # input name
    rank: int           # lattice, Laplacian or module rank of the input
    family: bool = False  # takes --jobs


@dataclass
class Group:
    """Operations on one input, checked together once all have run."""
    ops: list
    check: object       # outputs {cmd: stdout} -> list of error strings


def complete_graph(n):
    return n, [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]


def grid_graph(rows, cols):
    def v(i, j):
        return i * cols + j + 1
    pairs = [(v(i, j), v(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    pairs += [(v(i, j), v(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    return rows * cols, pairs


def random_spanning_tree(n, pairs, rng):
    """Indices into pairs of a minimum spanning tree under random edge weights.

    Kruskal over a shuffled edge list.  Its trees vary less in determinant
    cost than uniform spanning trees do (about 6 % against 13 % on the 7x7
    grid cut lattice), which keeps a pass's time steady across seeds.
    """
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    order = list(range(len(pairs)))
    rng.shuffle(order)
    tree = set()
    for k in order:
        a, b = find(pairs[k][0]), find(pairs[k][1])
        if a != b:
            parent[a] = b
            tree.add(k)
    return tree


def seeded_graph(rng, n, pairs):
    """Random vertex labels, edge numbering, orientations and spanning tree."""
    tree_idx = random_spanning_tree(n, pairs, rng)
    relabel = list(range(1, n + 1))
    rng.shuffle(relabel)
    order = list(range(len(pairs)))
    rng.shuffle(order)
    edges, tree = [], set()
    for eid, k in enumerate(order, start=1):
        a, b = relabel[pairs[k][0] - 1], relabel[pairs[k][1] - 1]
        if rng.random() < 0.5:
            a, b = b, a
        edges.append((eid, a, b))
        if k in tree_idx:
            tree.add(eid)
    return edges, tree


def graph_text(name, n, edges, tree):
    lines = [f"graph {name}", f"vertices {n}"]
    lines += [f"edge {e} {a} {b}" + (" tree" if e in tree else "") for e, a, b in edges]
    return "\n".join(lines) + "\n"


def sign_matrix_text(rng, name, n0, n1, density=0.6):
    """A random sign matrix with exactly round(density * n0 * n1) nonzero entries.

    A fixed entry count keeps the cost of one input steady across seeds.
    """
    cells = [(i, j) for i in range(1, n0 + 1) for j in range(n0 + 1, n0 + n1 + 1)]
    lines = [f"bipartite {name}",
             "part0" + "".join(f" {i}" for i in range(1, n0 + 1)),
             "part1" + "".join(f" {j}" for j in range(n0 + 1, n0 + n1 + 1))]
    for i, j in sorted(rng.sample(cells, round(density * len(cells)))):
        lines.append(f"sedge {i} {j} {rng.choice(('+1', '-1'))}")
    return "\n".join(lines) + "\n"


def _shape(spec):
    return complete_graph(spec[1]) if spec[0] == "K" else grid_graph(*spec[1:])


# (label, shape, also run matrix-tree).  matrix-tree enumerates every
# spanning tree (see bench/README.md), so it runs only where the tree count
# stays near 10^5.  The 8x8 grid (15 s per cut determinant) does not fit a
# pass beside the rest.
LATTICE_INPUTS = (
    ("K14", ("K", 14), False),
    ("K12", ("K", 12), False),
    ("grid7x7", ("grid", 7, 7), False),
    ("grid6x6", ("grid", 6, 6), False),
    ("K8", ("K", 8), True),
    ("grid4x4", ("grid", 4, 4), True),
)

# (label, shape, also run verify FILE); "signs" shapes are random sign matrices.
K0_INPUTS = (
    ("K5", ("K", 5), True),
    ("K6", ("K", 6), True),
    ("K7", ("K", 7), False),
    ("grid3x4", ("grid", 3, 4), True),
    ("signs6+8", ("signs", 6, 8), True),
    ("signs8+10", ("signs", 8, 10), False),
)


def lattice_groups(rng, workdir, inputs):
    groups = []
    for label, spec, with_tree_count in inputs:
        n, pairs = _shape(spec)
        edges, tree = seeded_graph(rng, n, pairs)
        path = workdir / f"{label}.graph"
        path.write_text(graph_text(label, n, edges, tree))
        ops = [Op("det_flow", ["--format", "json", "det", "--flow", "--normalize", str(path)],
                  label, len(edges) - n + 1),
               Op("det_cut", ["--format", "json", "det", "--cut", "--normalize", str(path)],
                  label, n - 1)]
        if with_tree_count:
            ops.append(Op("matrix_tree", ["--format", "json", "matrix-tree", str(path)],
                          label, n - 1))
        check = functools.partial(oracles.check_lattice_group, n=n, edges=edges, tree=tree)
        groups.append(Group(ops, check))
    return groups


def k0_groups(rng, workdir, inputs):
    groups = []
    for label, spec, with_verify in inputs:
        if spec[0] == "signs":
            path = workdir / f"{label}.bip"
            path.write_text(sign_matrix_text(rng, label.replace("+", "_"), *spec[1:]))
            rank = spec[1] + spec[2]
        else:
            n, pairs = _shape(spec)
            edges, tree = seeded_graph(rng, n, pairs)
            path = workdir / f"{label}.graph"
            path.write_text(graph_text(label, n, edges, tree))
            rank = len(edges)
        ops = [Op("gram_k0", ["--format", "json", "gram", "--k0", str(path)], label, rank),
               Op("algebra_classes", ["--format", "json", "algebra", "--classes", str(path)],
                  label, rank)]
        if with_verify:
            ops.append(Op("verify_file", ["verify", str(path)], label, rank))
        groups.append(Group(ops, functools.partial(oracles.check_k0_group, rank=rank)))
    return groups


def family_groups(n):
    op = Op("verify_family", ["verify", "--family", str(n)], f"family{n}", n, family=True)
    return [Group([op], functools.partial(oracles.check_family, n=n))]


WORKLOADS = {
    "family6": lambda rng, workdir: family_groups(6),
    "lattice_det": lambda rng, workdir: lattice_groups(rng, workdir, LATTICE_INPUTS),
    "k0_algebra": lambda rng, workdir: k0_groups(rng, workdir, K0_INPUTS),
}


# -- running one operation ------------------------------------------------------------


@dataclass
class OpResult:
    exit: int
    timed_out: bool
    wall_s: float
    cpu_s: float
    rss_mib: float
    stdout: str
    stderr: str


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _reap_orphans():
    """Wait for pool children re-parented to this process (it is a subreaper)."""
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def become_subreaper():
    """Orphaned grandchildren come back to this process, so it can wait for them."""
    try:
        import ctypes
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


class Runner:
    """Runs commands one at a time under the caps, inside one run's time budget."""

    def __init__(self, workdir, env, deadline):
        self.workdir, self.env, self.deadline = workdir, env, deadline

    @staticmethod
    def _limit():
        resource.setrlimit(resource.RLIMIT_AS, (AS_CAP_BYTES, AS_CAP_BYTES))

    def run(self, argv, cap_s=OP_CAP_S, pass_fds=()):
        cap_s = min(cap_s, self.deadline - perf_counter())
        if cap_s < 0.5:
            return OpResult(-1, True, 0.0, 0.0, 0.0, "", "run time budget exhausted")
        out_path, err_path = self.workdir / "op.out", self.workdir / "op.err"
        timed_out = False
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, pass_fds=pass_fds,
                                    start_new_session=True, preexec_fn=self._limit)

            def on_alarm(signum, frame):
                nonlocal timed_out
                timed_out = True
                _kill_group(proc.pid)

            old = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, cap_s)
            try:
                # WNOWAIT leaves the child unreaped, so its pid cannot be reused
                # before the timer is off.
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = perf_counter() - t0
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
            _kill_group(proc.pid)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            _reap_orphans()
        return OpResult(proc.returncode, timed_out, wall, usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
                        out_path.read_text(errors="replace"),
                        err_path.read_text(errors="replace"))


def op_env():
    """The caller's environment with src/ on the path and bytecode caching on,
    so that operations import qlat the way an installed copy is imported."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def measure_setup(runner, samples=SETUP_SAMPLES):
    """Seconds a fresh interpreter takes to import qlat.cli and build its parser.

    Timed inside the interpreter, so its own start-up, which qlat cannot
    change, is left out.
    """
    argv = [sys.executable, "-c", SETUP_CODE]
    times = []
    for _ in range(samples + 1):  # the first also writes the bytecode caches
        res = runner.run(argv, cap_s=30.0)
        if res.exit != 0:
            raise RuntimeError(f"cannot import qlat.cli: {res.stderr.strip()[-300:]}")
        times.append(float(res.stdout))
    return times[1:]


# -- one pass over a workload's operation list ---------------------------------------------


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mib: float = 0.0
    attempted: int = 0
    failed: int = 0
    records: list = field(default_factory=list)
    stats: list = field(default_factory=list)  # (op, trace stats) when traced


def run_pass(runner, groups, jobs, trace=None):
    """One pass; trace is None, "all" (every layer) or "baseline" (BASELINE_FNS only)."""
    p = Pass()
    t0 = perf_counter()
    for group in groups:
        outputs, errors = {}, []
        for op in group.ops:
            # Spans come back through an inherited descriptor: creating a file
            # in the operation's process would add its cost to the operation.
            stats_path = runner.workdir / "stats.json"
            with open(stats_path, "wb") as stats:
                if trace is None:
                    argv = [sys.executable, "-m", "qlat"]
                else:
                    argv = [sys.executable, str(BENCH / "trace_op.py"),
                            *(["--baseline"] if trace == "baseline" else []), str(stats.fileno())]
                argv += (["--jobs", str(jobs)] if op.family else []) + op.args
                res = runner.run(argv, pass_fds=(stats.fileno(),))
            p.attempted += 1
            p.cpu_s += res.cpu_s
            p.peak_rss_mib = max(p.peak_rss_mib, res.rss_mib)
            if res.timed_out or res.exit != 0:
                why = "time cap" if res.timed_out else f"exit {res.exit}"
                errors.append(f"{op.cmd} {op.label}: {why}: {res.stderr.strip()[-300:]}")
            elif op.family and jobs > 1:
                errors += [f"{op.cmd} {op.label}: {e}"
                           for e in oracles.check_pool_ran(res.cpu_s, res.wall_s)]
            outputs[op.cmd] = res.stdout
            p.records.append({"cmd": op.cmd, "label": op.label, "rank": op.rank,
                              "wall_s": res.wall_s, "cpu_s": res.cpu_s,
                              "rss_mib": res.rss_mib, "exit": res.exit})
            if trace and stats_path.stat().st_size:
                p.stats.append((op, json.loads(stats_path.read_text())))
        if not errors:
            errors = [f"{group.ops[0].label}: {e}" for e in group.check(outputs)]
        if errors:
            p.failed += len(group.ops)
            for e in errors:
                sys.stderr.write(f"FAIL {e}\n")
    p.wall_s = perf_counter() - t0
    return p


def log_pass(title, p):
    sys.stderr.write(f"-- {title}: {p.wall_s:.3f} s, {p.attempted - p.failed}/{p.attempted} ok\n")
    for r in p.records:
        sys.stderr.write(f"   {r['cmd']:16} {r['label']:10} rank {r['rank']:3} "
                         f"{r['wall_s']:9.3f} s {r['rss_mib']:8.1f} MiB exit {r['exit']}\n")


# -- metrics ------------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_s, passes):
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": metric(statistics.median(p.cpu_s for p in passes), "s"),
        "peak_rss_mib": metric(max(p.peak_rss_mib for p in passes), "MiB"),
    }


COMMANDS = ("det_flow", "det_cut", "matrix_tree", "gram_k0", "algebra_classes",
            "verify_file", "verify_family")


def merge_stats(stats):
    fns, edges, layers, counters = {}, {}, {}, {}
    for _, s in stats:
        for name, (calls, total, self_s) in s["fns"].items():
            acc = fns.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for a, b, calls, secs in s["edges"]:
            acc = edges.setdefault((a, b), [0, 0.0])
            acc[0] += calls
            acc[1] += secs
        for layer, v in s["layers"].items():
            acc = layers.setdefault(layer, {"busy_s": 0.0, "self_s": 0.0})
            acc["busy_s"] += v["busy_s"]
            acc["self_s"] += v["self_s"]
        for k, v in s["counters"].items():
            counters[k] = max(counters.get(k, 0), v) if k.endswith("max_n") else counters.get(k, 0) + v
    return fns, edges, layers, counters


def per_layer(traced, plain):
    fns, edges, layers, counters = merge_stats(traced.stats)

    def calls(name):
        return fns.get(name, [0, 0.0, 0.0])[0]

    def secs(*names):
        return sum(fns.get(n, [0, 0.0, 0.0])[1] for n in names)

    def under(parent, child, i):
        return edges.get((parent, child), [0, 0.0])[i]

    def baseline_secs(cmd, *names, label=None):
        """Time in the named functions during the untraced pass's cmd (on label) operations."""
        return sum(s["fns"].get(n, [0, 0.0, 0.0])[1] for op, s in plain.stats
                   if op.cmd == cmd and label in (None, op.label) for n in names)

    det = "matrices.QMatrix.det"
    m = {
        "wall_traced_s": metric(traced.wall_s, "s"),
        "wall_untraced_serial_s": metric(plain.wall_s, "s"),
        "ops.fail_ratio": metric((traced.failed + plain.failed)
                                 / max(1, traced.attempted + plain.attempted), "ratio"),
        "graphs.validate_calls": metric(calls("graphs.validate"), "count"),
        "bipartite.build_calls": metric(calls("bipartite.build_bipartite"), "count"),
        "lattices.qlattice_init_calls": metric(calls("lattices.QLattice.__init__"), "count"),
        "invariants.q2iso_pair_s": metric(secs("invariants.verify_q2iso_pair"), "s"),
        "families.graph_tree_instances_s": metric(secs("families.graph_tree_instances"), "s"),
        "invariants.instance_checks_s": metric(secs("invariants.instance_checks"), "s"),
        "algebra.k0_gram_inverse_s": metric(secs("algebra.k0_gram_inverse"), "s"),
        "algebra.d_matrix_s": metric(secs("algebra.d_matrix"), "s"),
        "algebra.gram_in_basis_s": metric(secs("algebra.gram_in_basis"), "s"),
        "algebra.cache_hits": metric(counters.get("algebra.cache_hits", 0), "count"),
        "algebra.cache_misses": metric(counters.get("algebra.cache_misses", 0), "count"),
        "algebra.cache_entries_end": metric(counters.get("algebra.cache_entries_end", 0), "count"),
        "matrices.inverse_unit_calls": metric(calls("matrices.QMatrix._inverse_unit"), "count"),
        "matrices.det_calls.qt": metric(under(det, "matrices._det_qt", 0), "count"),
        "matrices.det_calls.cofactor": metric(under(det, "matrices._det_cofactor", 0), "count"),
        "matrices.det_calls.bareiss": metric(under(det, "matrices._det_bareiss_laurent", 0)
                                             + under(det, "matrices._det_bareiss", 0), "count"),
        "matrices.det_max_n": metric(counters.get("matrices.det_max_n", 0), "count"),
        "matrices.det_s": metric(secs(det), "s"),
        "lattices.det_check_s": metric(under("lattices.QLattice.__init__", det, 1), "s"),
        "lattices.normalized_det_s": metric(secs("lattices.normalized_det"), "s"),
        "laurent.mul_calls": metric(calls("laurent.LaurentPoly.__mul__"), "count"),
        "laurent.divexact_calls": metric(calls("laurent.LaurentPoly.divexact"), "count"),
        "qt.mul_calls": metric(calls("laurent.QTElement.__mul__"), "count"),
        "graphs.spanning_trees_enumerated": metric(
            counters.get("graphs.spanning_trees_enumerated", 0), "count"),
        "invariants.enum_oracle_s": metric(secs("invariants.matrix_tree_enum_oracle"), "s"),
        "lattices.decide_iso_s": metric(secs("lattices.decide_iso"), "s"),
        "invariants.two_iso_search_s": metric(secs("invariants.two_iso_search"), "s"),
        "fileio.parse_s": metric(secs("fileio.parse_graph", "fileio.parse_bipartite",
                                      "fileio.sniff_kind"), "s"),
        "render.emit_s": metric(layers.get("render", {}).get("busy_s", 0.0)
                                + secs("fileio.emit_graph", "fileio.emit_bipartite"), "s"),
        "cli.self_s": metric(layers.get("cli", {}).get("self_s", 0.0), "s"),
        # The ROADMAP Baseline rows this run covers, timed in the untraced pass.
        "baseline.family_battery_s": metric(
            baseline_secs("verify_family", "cli._family_checks"), "s"),
        "baseline.family_pairs_s": metric(
            baseline_secs("verify_family", "cli._family_pair_checks"), "s"),
        "baseline.k0_gram_inverse_K7_s": metric(
            baseline_secs("algebra_classes", "algebra.k0_gram_inverse", label="K7"), "s"),
        "baseline.flow_qlattice_K14_s": metric(
            baseline_secs("det_flow", "lattices.flow_qlattice", label="K14"), "s"),
        "baseline.cut_lattice_det_grid7x7_s": metric(
            baseline_secs("det_cut", "lattices.cut_qlattice", "lattices.normalized_det",
                          label="grid7x7"), "s"),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = metric(layers.get(layer, {}).get("self_s", 0.0), "s")
    for cmd in COMMANDS:
        m[f"cmd.{cmd}_s"] = metric(sum(r["wall_s"] for r in plain.records if r["cmd"] == cmd), "s")
    return m


# -- entry point ------------------------------------------------------------------------


def measure(groups, runner, seconds, trace):
    """Returns (passes, metrics) for one run over the given operation groups."""
    if trace:
        traced = run_pass(runner, groups, jobs=1, trace="all")
        log_pass("traced serial pass", traced)
        plain = run_pass(runner, groups, jobs=1, trace="baseline")
        log_pass("untraced serial pass", plain)
        return [traced, plain], per_layer(traced, plain)
    t0 = perf_counter()
    setup = measure_setup(runner)
    closing = perf_counter() - t0  # what the closing set-up samples will take
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(runner, groups, jobs=2))
        log_pass(f"pass {len(passes)}", passes[-1])
        now, next_pass = perf_counter(), statistics.median(p.wall_s for p in passes)
        if now - start + next_pass > seconds or now + next_pass + 2 * closing > runner.deadline:
            break
    setup += measure_setup(runner)
    return passes, end_to_end(statistics.median(setup), passes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = perf_counter()
    if not (SRC / "qlat" / "cli.py").is_file():
        sys.stderr.write(f"error: no qlat sources under {SRC}; run inside a qlat checkout\n")
        return 2
    become_subreaper()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        groups = WORKLOADS[args.workload](random.Random(args.seed), workdir)
        runner = Runner(workdir, op_env(), start + RUN_BUDGET_S)
        passes, metrics = measure(groups, runner, args.seconds, args.trace)
        if args.trace:
            detail = {"workload": args.workload, "seed": args.seed, "metrics": metrics,
                      "passes": [p.records for p in passes],
                      "traced_ops": [{"cmd": op.cmd, "label": op.label, "rank": op.rank, **s}
                                     for op, s in passes[0].stats]}
            (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(detail))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
