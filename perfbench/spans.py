"""Span tracing of flipcells layers, installed from outside the library.

`Tracer.install()` replaces each callable in `TARGETS` with a wrapper that
records a span `<module>.<function>`: start, end, the enclosing span and the
operation (one certificate) it belongs to.  Functions imported by name into
another module (`tcd` binds `plabic.available_moves`) are replaced in every
flipcells namespace that binds them; methods are replaced on their class.
Spans stay in memory until `aggregate()` or `write()` at the end of a run.
A target that no longer exists is listed in `absent` instead of failing.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict

# (span name, module, attribute path) of every wrapped callable.  Span names
# are `<module>.<function>`; `_kernels` loses its underscore because metric
# names start with a letter.
TARGETS = [
    ("cli.main", "cli", "main"),
    ("combinat.extend_to_maximal_ws", "combinat", "extend_to_maximal_ws"),
    ("zonotope.enumerate_tilings", "zonotope", "enumerate_tilings"),
    ("zonotope.available_flips", "zonotope", "available_flips"),
    ("zonotope.apply_flip", "zonotope", "apply_flip"),
    ("zonotope.build_z_complex", "zonotope", "build_z_complex"),
    ("kernels.scan_available", "_kernels", "scan_available"),
    ("plabic.seed_triangulation", "plabic", "seed_triangulation"),
    ("plabic.enumerate_plabic", "plabic", "enumerate_plabic"),
    ("plabic.available_moves", "plabic", "available_moves"),
    ("plabic.apply_move", "plabic", "apply_move"),
    ("plabic.build_plabic_complex", "plabic", "build_plabic_complex"),
    ("tcd.enumerate_tcd", "tcd", "enumerate_tcd"),
    ("tcd.tcd_neighbors", "tcd", "tcd_neighbors"),
    ("tcd.build_t_complex", "tcd", "build_t_complex"),
    ("topology.TwoComplex.from_graph", "topology", "TwoComplex.from_graph"),
    ("topology.canonical_hash", "topology", "TwoComplex.canonical_hash"),
    ("topology.h1", "topology", "h1"),
    ("topology.pi1_presentation", "topology", "pi1_presentation"),
    ("topology.certify_trivial", "topology", "certify_trivial"),
    ("topology.certificate", "topology", "certificate"),
]


def _counts(name: str, args, result, dur: float) -> dict[str, float]:
    """Work counts read at a span boundary from its arguments and result."""
    if name in ("zonotope.enumerate_tilings", "plabic.enumerate_plabic", "tcd.enumerate_tcd"):
        return {name.split(".")[0] + ".vertices": result.n_vertices}
    if name == "kernels.scan_available":
        return {"kernels.scan_available.rows": args[0].shape[0]}
    if name == "topology.h1":
        k = args[0]
        # h1 rejects disconnected complexes, so rank d1 = V - 1.
        return {"topology.d2_rank": len(k.edges) - (k.nv - 1) - result[0]}
    if name == "topology.pi1_presentation":
        return {
            "topology.pi1.generators": result.n_generators,
            "topology.pi1.relator_letters": sum(len(r) for r in result.relators),
        }
    if name == "topology.certify_trivial" and result == "inconclusive":
        return {"topology.certify_trivial.inconclusive": 1, "topology.certify_trivial.inconclusive_s": dur}
    return {}


# Every sum `Tracer.aggregate()` can report: per span, and from `_counts`.
MEASURED = {name + key for name, _, _ in TARGETS for key in (".s", ".self_s", ".calls")} | {
    "zonotope.vertices",
    "plabic.vertices",
    "tcd.vertices",
    "kernels.scan_available.rows",
    "topology.d2_rank",
    "topology.pi1.generators",
    "topology.pi1.relator_letters",
    "topology.certify_trivial.inconclusive",
    "topology.certify_trivial.inconclusive_s",
}


class Tracer:
    """Create after flipcells is imported; `install()`/`uninstall()` swap
    the wrappers in and out."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches = self._plan()

    def _wrap(self, name: str, fn):
        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.starts)
            self.name_ids.append(nid)
            self.parents.append(stack[-1] if stack else -1)
            self.ops.append(self.op)
            self.ends.append(0.0)
            stack.append(idx)
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.ends[idx] = end
                stack.pop()
            for key, val in _counts(name, args, result, end - self.starts[idx]).items():
                self.counts[key] += val
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, wrapper, original) for every place a
        target is bound: each flipcells module namespace, or its class."""
        modules = [m for n, m in list(sys.modules.items()) if n == "flipcells" or n.startswith("flipcells.")]
        plan = []
        for name, mod_name, path in TARGETS:
            mod = sys.modules.get("flipcells." + mod_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(name)
            elif owner_name:  # a method or staticmethod on a class
                static = isinstance(raw, staticmethod)
                wrapped = self._wrap(name, raw.__func__ if static else raw)
                plan.append((owner, attr, staticmethod(wrapped) if static else wrapped, raw))
            else:
                wrapped = self._wrap(name, raw)
                plan += [(ns, attr, wrapped, raw) for ns in modules if ns.__dict__.get(attr) is raw]
        return plan

    def install(self) -> None:
        for ns, attr, new, _ in self._patches:
            setattr(ns, attr, new)

    def uninstall(self) -> None:
        for ns, attr, _, old in self._patches:
            setattr(ns, attr, old)

    def aggregate(self) -> dict[str, float]:
        """Per span name: inclusive time `.s`, self time `.self_s`, `.calls`;
        plus the counts taken at span boundaries."""
        out: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.starts)
        for i in range(len(self.starts)):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        for i in range(len(self.starts)):
            name = self.names[self.name_ids[i]]
            dur = self.ends[i] - self.starts[i]
            out[name + ".s"] += dur
            out[name + ".self_s"] += dur - child[i]
            out[name + ".calls"] += 1
        for key, val in self.counts.items():
            out[key] += val
        return out

    def write(self, path: str) -> None:
        """All spans as gzipped TSV: id, name, parent id, op, start, end."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tname\tparent\top\tstart\tend\n")
            for i in range(len(self.starts)):
                fh.write(
                    "%d\t%s\t%d\t%d\t%.9f\t%.9f\n"
                    % (i, self.names[self.name_ids[i]], self.parents[i], self.ops[i], self.starts[i], self.ends[i])
                )
