"""Spans around gcnet's public functions, set from outside the package.

:class:`Tracer` replaces every public function of the layer modules,
in every gcnet module namespace that holds it, by a wrapper that records
a span: name, duration, and the time its child spans cover.  Spans are
folded into per-name and per-(parent, name) totals as they close, so a
long run keeps a bounded amount of state.  Nothing under ``src/`` is
changed; :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from math import comb

LAYERS = ("ffield", "linalg", "grasscode", "combnet", "rankmetric", "bounds", "fileio", "cli")

#: Kernel entry points, looked up on the backend module at call time.
KERNELS = ("rank_destructive", "rref_destructive")


def _items(name, args, result):
    """Work units a call did, for the per-unit rates."""
    if name == "grasscode.max_covering_code":
        return result.nodes
    if name == "grasscode.is_covering_code":
        return comb(args[0].size, args[0].alpha)
    if name == "combnet.simulate":
        return len(result)
    return 0


def _shape(name, args):
    if name == "linalg.rank_of_array":
        return (args[1].q,) + tuple(args[0].shape)
    if name == "backend.rank_destructive":
        return (args[1].shape[0],) + tuple(args[0].shape)
    return None


class Tracer:
    """Span totals over every traced round."""

    def __init__(self):
        self.label = None  # text of the operation under way
        self._stack: list[list] = []
        # name -> [calls, total_s, self_s, items]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        # (parent, name) -> [calls, total_s]
        self.edges = defaultdict(lambda: [0, 0.0])
        # (name, q, rows, cols) -> [calls, total_s]
        self.shapes = defaultdict(lambda: [0, 0.0])
        # (op text, duration_s, self_s) per traced operation
        self.ops: list[tuple] = []
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def leave(self, frame, items=0, shape=None):
        end = time.perf_counter()
        self._stack.pop()
        name, start, child = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        s = self.stats[name]
        s[0] += 1
        s[1] += dur
        s[2] += dur - child
        s[3] += items
        e = self.edges[(parent[0] if parent else None, name)]
        e[0] += 1
        e[1] += dur
        if shape is not None:
            sh = self.shapes[(name,) + shape]
            sh[0] += 1
            sh[1] += dur
        if parent is None and name == "cli.main":
            self.ops.append((self.label, dur, dur - child))

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                items = _items(name, args, result) if result is not None else 0
                tracer.leave(frame, items, _shape(name, args))

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap each layer's public functions wherever gcnet binds them."""
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gcnet.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    targets[id(obj)] = (obj, f"{layer}.{attr}")
        wrappers = {key: self._wrap(name, obj) for key, (obj, name) in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "gcnet" and not modname.startswith("gcnet."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    self._patch(mod, attr, wrappers[id(obj)])
        backend = importlib.import_module("gcnet.backend")
        for attr in KERNELS:
            self._patch(backend, attr, self._wrap(f"backend.{attr}", getattr(backend, attr)))

    def _patch(self, mod, attr, new) -> None:
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, old in reversed(self._patched):
            setattr(mod, attr, old)
        self._patched.clear()

    # -- per-layer figures ---------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-layer figures keyed by metric name.  Counts and totals are
        per pass (one traced round and its table build), so they do not
        depend on how many passes fit in the run."""
        # copies, so that names looked up here leave the record unchanged
        st = defaultdict(lambda: [0, 0.0, 0.0, 0], self.stats)
        ed = defaultdict(lambda: [0, 0.0], self.edges)

        def per_call(name, scale):
            calls, total = st[name][0], st[name][1]
            return total / calls * scale if calls else 0.0

        def entry(prefix, names=None):
            # calls into a layer from outside it
            calls, total = 0, 0.0
            for (parent, name), (c, t) in ed.items():
                if not name.startswith(prefix) or (parent or "").startswith(prefix):
                    continue
                if names is None or name.split(".", 1)[1].startswith(names):
                    calls += c
                    total += t
            return calls, total

        def rate(count, seconds):
            return count / seconds if seconds else 0.0

        search = "grasscode.max_covering_code"
        nodes = st[search][3]
        trials = ed[("combnet.random_solution_search", "combnet.verify_solution")][0]
        receivers = ed[("combnet.verify_solution", "linalg.rank_of_array")][0]
        parse_calls, parse_total = entry("fileio.", "parse_")
        render_calls, render_total = entry("fileio.", "render_")
        bound_calls, bound_total = entry("bounds.")
        return {
            "ffield.tables_ms": st["setup"][1] * 1e3 / passes,
            "linalg.rank_calls": st["linalg.rank_of_array"][0] / passes,
            "linalg.rank_us": per_call("linalg.rank_of_array", 1e6),
            "linalg.kernel_us": per_call("backend.rank_destructive", 1e6),
            "linalg.rref_calls": st["linalg.rref_of_array"][0] / passes,
            "linalg.rref_us": per_call("linalg.rref_of_array", 1e6),
            "linalg.solve_us": per_call("linalg.solve_exact", 1e6),
            "linalg.matmul_us": per_call("linalg.matmul", 1e6),
            "grasscode.enumerate_ms": per_call("grasscode.enumerate_grassmannian", 1e3),
            "grasscode.search_nodes": nodes / passes,
            "grasscode.nodes_per_s": rate(nodes, st[search][1]),
            "grasscode.rank_calls_per_node":
                ed[(search, "linalg.rank_of_array")][0] / nodes if nodes else 0.0,
            "grasscode.search_glue_s": st[search][2] / passes,
            "grasscode.subsets_per_s": rate(st["grasscode.is_covering_code"][3],
                                            st["grasscode.is_covering_code"][1]),
            "combnet.receivers_per_s": rate(receivers, st["combnet.verify_solution"][1]),
            "combnet.trials": trials / passes,
            "combnet.trials_per_s": rate(trials, st["combnet.random_solution_search"][1]),
            "combnet.decisions": (ed[("combnet.compute_qs", search)][0]
                                  + ed[("combnet.compute_qv", search)][0]) / passes,
            "combnet.direct_links_ms": per_call("combnet.derive_direct_link_matrices", 1e3),
            "combnet.decode_us": st["combnet.simulate"][1] / st["combnet.simulate"][3] * 1e6
                                 if st["combnet.simulate"][3] else 0.0,
            "rankmetric.construct_ms": per_call("rankmetric.covering_code_from_mrd", 1e3),
            "fileio.parse_ms": parse_total / parse_calls * 1e3 if parse_calls else 0.0,
            "fileio.render_ms": render_total / render_calls * 1e3 if render_calls else 0.0,
            "bounds.eval_us": bound_total / bound_calls * 1e6 if bound_calls else 0.0,
            "cli.self_ms": sum(s for _, _, s in self.ops) / len(self.ops) * 1e3
                           if self.ops else 0.0,
        }

    def shares(self) -> dict:
        """Where the search and the decoder spend their time, as shares;
        None where the traced workload runs no search or no decoding."""
        st = defaultdict(lambda: [0, 0.0, 0.0, 0], self.stats)
        search = st["grasscode.max_covering_code"][1]
        simulate = st["combnet.simulate"][1]
        return {
            "search": {
                "kernel": st["backend.rank_destructive"][1] / search if search else None,
                "rank_glue": st["linalg.rank_of_array"][2] / search if search else None,
                "search_glue": st["grasscode.max_covering_code"][2] / search if search else None,
                "enumerate": st["grasscode.enumerate_grassmannian"][1] / search
                if search else None,
            },
            "decode_direct_links": st["combnet.derive_direct_link_matrices"][1] / simulate
            if simulate else None,
        }

    def report(self) -> dict:
        """Everything recorded, for the trace file."""
        stats = {name: {"calls": v[0], "total_s": v[1], "self_s": v[2], "items": v[3]}
                 for name, v in sorted(self.stats.items())}
        edges = [{"parent": p, "name": n, "calls": v[0], "total_s": v[1]}
                 for (p, n), v in sorted(self.edges.items(), key=lambda kv: str(kv[0]))]
        shapes = [{"name": k[0], "q": k[1], "shape": f"{k[2]}x{k[3]}", "calls": v[0],
                   "us_per_call": v[1] / v[0] * 1e6}
                  for k, v in sorted(self.shapes.items())]
        ops = [{"op": label, "total_s": d, "self_s": s} for label, d, s in self.ops]
        return {"spans": stats, "edges": edges, "rank_by_shape": shapes, "ops": ops}
