"""Run one qlat CLI command with spans around the library's layers.

    python3 bench/trace_op.py [--baseline] FD [qlat arguments...] FD>STATS.json

Before the command runs, every public function of each qlat module, and
the few methods and private kernels listed in EXTRA, is replaced by a
wrapper at every binding it is reachable through (a name imported into
other modules, or a class attribute alias such as __rmul__).  Spans are
kept in memory, aggregated by function and by caller/callee pair, and
written to the open file descriptor FD when the command ends.  The
library is not changed.

With --baseline only the functions in BASELINE_FNS are wrapped.  They are
the ones the ROADMAP Baseline rows time and are called a handful of times
per command, so the command runs at its untraced speed.

A span's self time is its duration minus the time its child spans cover;
a layer's busy time counts only its outermost spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
from time import perf_counter

LAYERS = ("laurent", "matrices", "graphs", "families", "bipartite", "algebra",
          "lattices", "invariants", "fileio", "render", "cli")

# Traced besides the public module-level functions: ring multiplication,
# the determinant entry point and its kernels, the lattice constructor, and
# the CLI's own verify loops.
EXTRA = {
    "laurent": ("LaurentPoly.__mul__", "LaurentPoly.divexact", "QTElement.__mul__"),
    "matrices": ("QMatrix.det", "QMatrix._inverse_unit", "QMatrix._inverse_fraction",
                 "_det_cofactor", "_det_bareiss", "_det_bareiss_laurent", "_det_qt"),
    "lattices": ("QLattice.__init__",),
    "cli": ("_family_checks", "_family_pair_checks", "_per_input_checks",
            "_d_checks", "_rigidity_sampling", "_iso_round_trip"),
}


# The functions whose times are ROADMAP Baseline rows.
BASELINE_FNS = ("cli._family_checks", "cli._family_pair_checks", "algebra.k0_gram_inverse",
                "lattices.flow_qlattice", "lattices.cut_qlattice", "lattices.normalized_det")


class Tracer:
    def __init__(self):
        self.stack = []        # one [child_seconds, name] frame per open span
        self.fns = {}          # name -> [calls, outermost seconds, self seconds]
        self.layers = {layer: [0, 0.0, 0.0] for layer in LAYERS}  # [open, busy, self]
        self.edges = {}        # (caller, callee) -> [calls, seconds]
        self.counters = {"matrices.det_max_n": 0, "graphs.spanning_trees_enumerated": 0}
        self.caches = []

    def wrap(self, name, layer, fn, hook=None):
        stack, edges = self.stack, self.edges
        rec = self.fns.setdefault(name, [0, 0.0, 0.0])
        lay = self.layers[layer]
        open_ = [0]

        def wrapper(*args, **kwargs):
            outer, louter = not open_[0], not lay[0]
            open_[0] += 1
            lay[0] += 1
            frame = [0.0, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                open_[0] -= 1
                lay[0] -= 1
                rec[0] += 1
                if outer:
                    rec[1] += dt
                self_dt = dt - frame[0]
                rec[2] += self_dt
                lay[2] += self_dt
                if louter:
                    lay[1] += dt
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    edge = edges.get((parent[1], name))
                    if edge is None:
                        edges[(parent[1], name)] = [1, dt]
                    else:
                        edge[0] += 1
                        edge[1] += dt
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook_det(self, args, result):
        c = self.counters
        c["matrices.det_max_n"] = max(c["matrices.det_max_n"], args[0].rows)

    def _hook_trees(self, args, result):
        self.counters["graphs.spanning_trees_enumerated"] += len(result)

    def install(self, only=None):
        """Wraps every traced callable, or only those whose names are in only."""
        mods = {layer: importlib.import_module(f"qlat.{layer}") for layer in LAYERS}
        targets = []  # (name, layer, original)
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    targets.append((f"{layer}.{attr}", layer, obj))
                    if hasattr(obj, "cache_info"):
                        self.caches.append(obj)
            for path in EXTRA.get(layer, ()):
                owner, _, attr = path.rpartition(".")
                holder = getattr(mod, owner) if owner else mod
                targets.append((f"{layer}.{path}", layer, vars(holder)[attr]))
        if only is not None:
            targets = [t for t in targets if t[0] in only]
        hooks = {"matrices.QMatrix.det": self._hook_det,
                 "graphs.enumerate_spanning_trees": self._hook_trees}
        wrappers = {id(orig): self.wrap(name, layer, orig, hooks.get(name))
                    for name, layer, orig in targets}
        # Rebind at every place a traced callable is reachable from: module
        # globals (imports included) and class attributes (aliases included).
        namespaces = [m for n, m in sys.modules.items() if n == "qlat" or n.startswith("qlat.")]
        for ns in list(namespaces):
            for obj in list(vars(ns).values()):
                if inspect.isclass(obj) and obj.__module__.startswith("qlat"):
                    namespaces.append(obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    setattr(ns, attr, w)

    def report(self, exit_code):
        hits = sum(c.cache_info().hits for c in self.caches)
        misses = sum(c.cache_info().misses for c in self.caches)
        entries = sum(c.cache_info().currsize for c in self.caches)
        return {
            "exit": exit_code,
            "fns": self.fns,
            "layers": {k: {"busy_s": v[1], "self_s": v[2]} for k, v in self.layers.items()},
            "edges": [[a, b, c, s] for (a, b), (c, s) in self.edges.items()],
            "counters": dict(self.counters, **{
                "algebra.cache_hits": hits, "algebra.cache_misses": misses,
                "algebra.cache_entries_end": entries}),
        }


def main():
    args, only = sys.argv[1:], None
    if args[0] == "--baseline":
        args, only = args[1:], BASELINE_FNS
    stats_fd, argv = int(args[0]), args[1:]
    import qlat.cli  # noqa: F401  (imports every layer before wrapping)

    tracer = Tracer()
    tracer.install(only)
    code = 1
    try:
        code = sys.modules["qlat.cli"].main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with os.fdopen(stats_fd, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(code), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
