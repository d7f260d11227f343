"""Fast self-test of the benchmark on tiny inputs.

    python3 bench/selftest.py

Runs every operation path of the three workloads, untraced and traced, on
family 4, K5, the 3x3 grid and a 3+4 sign matrix; checks that every
metric named in BENCHMARK.json is reported; feeds each oracle a corrupted
output and requires a rejection, so no check is vacuous; and exercises the
time cap, the address-space cap, the clean-up of orphaned processes, and
the refusal to run outside a checkout.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import run

TINY = {
    "family6": lambda rng, d: run.family_groups(4),
    "lattice_det": lambda rng, d: run.lattice_groups(
        rng, d, (("K5", ("K", 5), True), ("grid3x3", ("grid", 3, 3), True))),
    "k0_algebra": lambda rng, d: run.k0_groups(
        rng, d, (("K5", ("K", 5), True), ("grid3x3", ("grid", 3, 3), True),
                 ("signs3+4", ("signs", 3, 4), True))),
}

failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def outputs_of(runner, group):
    outs = {}
    for op in group.ops:
        res = runner.run([sys.executable, "-m", "qlat"] + op.args)
        expect(res.exit == 0, f"{op.cmd} {op.label} exits 0")
        outs[op.cmd] = res.stdout
    return outs


def rejects(check, outputs, needle, what):
    errors = check(outputs)
    expect(any(needle in e for e in errors), f"oracle rejects {what}: {errors[:1]}")


def poly_json(text, edit):
    obj = json.loads(text)
    edit(obj["coeffs"])
    return json.dumps(obj)


def bump(k, by=1):
    def edit(coeffs):
        coeffs[k] += by
    return edit


def check_metrics(bench):
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    found, edges = {}, {}
    for name, make in TINY.items():
        for trace in (0, 1):
            workdir = Path(tempfile.mkdtemp(dir=run.OUT))
            try:
                groups = make(random.Random(7), workdir)
                runner = run.Runner(workdir, run.op_env(), perf_counter() + run.RUN_BUDGET_S)
                passes, metrics = run.measure(groups, runner, 0, trace)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            expect(all(p.failed == 0 and p.attempted > 0 for p in passes),
                   f"{name} trace={trace}: every operation passes its oracle")
            expect(list(metrics) == (layer if trace else e2e),
                   f"{name} trace={trace}: reports exactly the BENCHMARK.json metrics")
            expect(all(v["unit"] == units[k] for k, v in metrics.items()),
                   f"{name} trace={trace}: units match BENCHMARK.json")
            if not trace:
                expect(all(v["value"] > 0 for v in metrics.values()),
                       f"{name}: every end-to-end metric is positive")
            found[name, trace] = {k: v["value"] for k, v in metrics.items()}
            if trace:
                edges[name] = {(a, b) for _, st in passes[0].stats for a, b, _, _ in st["edges"]}
    # The traced run sees work in the layers each workload is meant to load.
    for name, keys in {
        "family6": ("graphs.validate_calls", "invariants.instance_checks_s",
                    "invariants.q2iso_pair_s", "lattices.decide_iso_s",
                    "baseline.family_battery_s", "baseline.family_pairs_s",
                    "algebra.cache_hits", "matrices.det_calls.cofactor", "cli.self_s"),
        "lattice_det": ("matrices.det_calls.bareiss", "lattices.det_check_s",
                        "laurent.divexact_calls", "graphs.spanning_trees_enumerated",
                        "invariants.enum_oracle_s", "fileio.parse_s", "render.emit_s"),
        "k0_algebra": ("algebra.k0_gram_inverse_s", "matrices.det_calls.qt",
                       "matrices.inverse_unit_calls", "qt.mul_calls", "algebra.d_matrix_s"),
    }.items():
        zero = [k for k in keys if not found[name, 1][k] > 0]
        expect(not zero, f"{name} traced: nonzero {', '.join(keys)} {zero or ''}")
    # decide_iso is reached through its bindings in qlat.invariants and qlat.cli.
    for name, caller in (("family6", "invariants.verify_q2iso_pair"),
                         ("k0_algebra", "cli._iso_round_trip")):
        expect((caller, "lattices.decide_iso") in edges[name],
               f"{name} traced: spans decide_iso called from {caller}")


def check_oracles():
    workdir = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        runner = run.Runner(workdir, run.op_env(), perf_counter() + run.RUN_BUDGET_S)
        rng = random.Random(11)
        (workdir / "lat").mkdir()
        (workdir / "k0").mkdir()
        lat = TINY["lattice_det"](rng, workdir / "lat")[0]
        k0 = TINY["k0_algebra"](rng, workdir / "k0")[0]
        fam = TINY["family6"](rng, workdir)[0]
        lat_out, k0_out = outputs_of(runner, lat), outputs_of(runner, k0)
        fam_out = outputs_of(runner, fam)
        serial = runner.run([sys.executable, "-m", "qlat", "--jobs", "1"] + fam.ops[0].args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    expect(lat.check(lat_out) == [], "lattice oracles accept the real K5 outputs")
    top = len(json.loads(lat_out["det_cut"])["coeffs"]) - 1
    both = ("det_flow", "det_cut", "matrix_tree")

    def corrupt(keys, edit):
        return dict(lat_out, **{k: poly_json(lat_out[k], edit) for k in keys})

    rejects(lat.check, corrupt(["det_flow"], bump(top)), "differ", "flow != cut")
    rejects(lat.check, corrupt(both, bump(0)), "constant term", "constant term 2")
    rejects(lat.check, corrupt(both, bump(1)), "q^2 with nonnegative", "an odd power")
    rejects(lat.check, corrupt(both, bump(top)), "spanning trees", "a wrong tree count")
    rejects(lat.check, corrupt(both, lambda c: (bump(2)(c), bump(4, -1)(c))), "one-swap",
            "a wrong q^2 coefficient with the right tree count")
    rejects(lat.check, corrupt(["matrix_tree"], bump(top)), "matrix-tree", "matrix-tree != cut")
    rejects(lat.check, dict(lat_out, det_cut="1 + q^2"), "not JSON", "text output")

    expect(k0.check(k0_out) == [], "K0 oracles accept the real K5 outputs")
    classes = json.loads(k0_out["algebra_classes"])
    classes["simple"][1][0]["odd"]["coeffs"] = [7]
    rejects(k0.check, dict(k0_out, algebra_classes=json.dumps(classes)),
            "identity", "a wrong simple class")
    classes = json.loads(k0_out["algebra_classes"])
    classes["projective"][0], classes["projective"][1] = (classes["projective"][1],
                                                          classes["projective"][0])
    rejects(k0.check, dict(k0_out, algebra_classes=json.dumps(classes)),
            "unit vector", "swapped projectives")
    gram = json.loads(k0_out["gram_k0"])
    gram["entries"] = gram["entries"][:-1]
    rejects(k0.check, dict(k0_out, gram_k0=json.dumps(gram)), "is not", "a truncated Gram")
    failing = k0_out["verify_file"].replace("PASS", "FAIL", 1)
    rejects(k0.check, dict(k0_out, verify_file=failing), "every check", "a failing verify")

    expect(fam.check(fam_out) == [], "family oracle accepts the real family-4 output")
    rejects(fam.check, {"verify_family": fam_out["verify_family"] + "\n"}, "sha256",
            "an altered family output")
    rejects(lambda _: run.oracles.check_pool_ran(serial.cpu_s, serial.wall_s), None,
            "pool did not run", "a family run without its --jobs pool")


def check_caps():
    workdir = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        runner = run.Runner(workdir, run.op_env(), perf_counter() + 60)
        t0 = perf_counter()
        res = runner.run([sys.executable, "-c", "import time; time.sleep(60)"], cap_s=1.0)
        expect(res.timed_out and res.exit != 0 and perf_counter() - t0 < 10,
               "time cap kills a runaway operation")
        res = runner.run([sys.executable, "-c", "b = bytearray(1 << 31)"])
        expect(res.exit != 0 and "MemoryError" in res.stderr,
               "address-space cap turns a huge allocation into a failure")
        t0 = perf_counter()
        res = runner.run([sys.executable, "-c",
                          "import subprocess, sys; subprocess.Popen("
                          "[sys.executable, '-c', 'import time; time.sleep(60)'])"])
        expect(res.exit == 0 and perf_counter() - t0 < 10,
               "an orphaned grandchild is killed and waited for")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_refuses_without_sources():
    bare = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "family6",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        expect(proc.returncode != 0 and proc.stdout.strip() == "",
               "exits nonzero without a result when the sources are missing")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    run.OUT.mkdir(exist_ok=True)
    run.become_subreaper()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_caps()
    check_refuses_without_sources()
    check_oracles()
    check_metrics(bench)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
