"""Span tracer that wraps cprank's functions from the outside.

Nothing under ``src/`` changes.  ``Tracer.install`` wraps the public
functions and methods of every ``cprank`` module.  A function is re-bound
wherever the same object appears: ``cover_strict_order`` is imported into
``approx`` and ``cli`` as well as defined in ``covers``, and patching only
the defining module would miss those calls.  Each call records a span
(name, start, end, parent span, task id) in flat arrays that stay in memory
until the run ends.

Self time of a span is its duration minus the durations of its child spans
(calls are nested on one thread, so children never overlap).  A layer is a
module; its self time is the summed self time of its spans.  Sizes are read
after a span closes, inside a span of their own (``trace.sizes``) that is a
child of the caller's span, so their cost counts toward no layer.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from time import perf_counter
from typing import Any, Callable

import numpy as np

LAYERS = ("algebra", "projections", "cpmaps", "orderzero", "covers", "cliques", "approx", "jsonio", "cli")
# Per-matrix JSON converters run about 450k times per pass on the roundtrip
# workload, where a span each added a third to the run time.  They stay
# unwrapped; their time counts toward the jsonio function that calls them.
UNWRAPPED = {"jsonio.matrix_to_json", "jsonio.matrix_from_json"}

# Sizes recorded per call, read from arguments and return values outside the
# library: span name -> [(metric name, "sum" or "max", function, unit)].
Sizer = Callable[[tuple, dict, Any], float]


def _adj_edges(args, kwargs, result) -> float:
    adj = np.asarray(args[0], dtype=bool)
    return (np.count_nonzero(adj) - np.count_nonzero(np.diagonal(adj))) / 2


def _cli_bytes(flag: str) -> Sizer:
    def size(args, kwargs, result) -> float:
        argv = list(args[0]) if args else []
        if flag in argv[:-1]:
            path = argv[argv.index(flag) + 1]
            if os.path.exists(path):
                return os.path.getsize(path)
        return 0

    return size


SIZES: dict[str, list[tuple[str, str, Sizer, str]]] = {
    "cliques.max_clique": [
        ("cliques.max_clique.vertices", "sum", lambda a, k, r: len(a[0]), "count"),
        ("cliques.max_clique.edges", "sum", _adj_edges, "count"),
        ("cliques.max_clique.clique_size", "max", lambda a, k, r: len(r), "count"),
    ],
    "covers.cover_strict_order": [
        ("covers.cover_strict_order.members", "sum", lambda a, k, r: len(a[0].members), "count")
    ],
    "covers.strict_refinement": [
        ("covers.strict_refinement.members_out", "sum", lambda a, k, r: len(r.members), "count")
    ],
    "approx.build_cp_approx": [
        ("approx.build_cp_approx.functions_x_points2", "sum",
         lambda a, k, r: len(a[1]) * a[0].npts ** 2, "count")
    ],
    "algebra.AlgebraElement.norm": [
        ("algebra.AlgebraElement.norm.blocks", "sum", lambda a, k, r: len(a[0].blocks), "count")
    ],
    "cpmaps.CPMap.apply": [
        ("cpmaps.CPMap.apply.blocks_out", "sum", lambda a, k, r: len(r.blocks), "count")
    ],
    "cpmaps.witness_elementary_set": [
        ("cpmaps.witness_elementary_set.samples", "sum", lambda a, k, r: r.samples_used, "count")
    ],
    "cli.main": [
        ("cli.bytes_in", "sum", _cli_bytes("--in"), "B"),
        ("cli.bytes_out", "sum", _cli_bytes("--out"), "B"),
    ],
}

#: spans reported as per-layer metrics, with the fields reported for each
_ALL = ("calls", "total_s", "self_s")
METRIC_SPANS: dict[str, tuple[str, ...]] = {
    "cliques.max_clique": _ALL,
    "covers.cover_strict_order": _ALL,
    "covers.strict_refinement": _ALL,
    "covers.partition_of_unity": _ALL,
    "covers.refines": _ALL,
    "covers.cover_order": _ALL,
    "covers.net_ball_cover": _ALL,
    "approx.build_cp_approx": _ALL,
    "approx.verify_cp_approx": _ALL,
    "approx.extraction_targets": _ALL,
    "approx.extract_cover": _ALL,
    "jsonio.approximation_to_json": _ALL,
    "jsonio.approximation_from_json": _ALL,
    "jsonio.cpmap_from_json": _ALL,
    "jsonio.cpmap_to_json": _ALL,
    "jsonio.space_from_json": _ALL,
    "cli.main": _ALL,
    "algebra.AlgebraElement.norm": _ALL,
    "algebra.eigh_canonical": _ALL,
    "algebra.apply_function": _ALL,
    "algebra.support_projection": _ALL,
    "cpmaps.CPMap.apply": _ALL,
    "cpmaps.CPMap.unit_image": ("calls",),
    "cpmaps.certify_order_zero": _ALL,
    "cpmaps.strict_order_abelian": _ALL,
    "cpmaps.stinespring": _ALL,
    "cpmaps.CPMap.min_choi_eigenvalue": _ALL,
    "cpmaps.witness_elementary_set": _ALL,
    "orderzero.decompose_order_zero": _ALL,
    "orderzero.perturb_to_hom": _ALL,
    "projections.orthogonalize_family": _ALL,
    "projections.repair_almost_projection": _ALL,
}
#: size metrics and their units
METRIC_SIZES: dict[str, str] = {key: unit for rows in SIZES.values() for key, _, _, unit in rows}


class Tracer:
    """Collects spans of wrapped cprank calls and of benchmark tasks."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.sizes: dict[str, float] = {}
        self.task_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._sizes_id = self._id("trace.sizes")

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.task_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def _record_sizes(self, name: str, args: tuple, kwargs: dict, result: Any) -> None:
        for key, how, fn, _ in SIZES[name]:
            value = float(fn(args, kwargs, result))
            old = self.sizes.get(key, 0.0)
            self.sizes[key] = old + value if how == "sum" else max(old, value)

    def run_task(self, task_id: int, fn: Callable[[], Any]) -> Any:
        """Run one benchmark task inside a root span named ``task``."""
        self.task_id = task_id
        idx = self._open(self._id("task"))
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self._close(idx, t0, perf_counter())

    def _wrap(self, fn: Callable, name: str) -> Callable:
        nid = self._id(name)
        sized = name in SIZES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, perf_counter())
            if sized:
                sidx = self._open(self._sizes_id)
                s0 = perf_counter()
                try:
                    self._record_sizes(name, args, kwargs, result)
                finally:
                    self._close(sidx, s0, perf_counter())
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public cprank function and method, at every binding."""
        modules = {n: m for n, m in sys.modules.items() if n == "cprank" or n.startswith("cprank.")}
        wrapped: dict[int, Callable] = {}
        for modname, mod in modules.items():
            layer = modname.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, value in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (inspect.isfunction(value) and value.__module__ == modname
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrapped[id(value)] = self._wrap(value, name)
                elif inspect.isclass(value) and value.__module__ == modname and not issubclass(value, BaseException):
                    self._wrap_class(value, layer)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._set(mod, attr, wrapped[id(value)])

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            # constructors and operators are left unwrapped: they run hundreds of
            # thousands of times per pass on the maps workload, where a span each
            # doubled the run time; their time counts toward the calling layer
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(value.__func__, name)))
            elif isinstance(value, classmethod):
                self._set(cls, attr, classmethod(self._wrap(value.__func__, name)))
            elif inspect.isfunction(value):
                self._set(cls, attr, self._wrap(value, name))

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- summaries -----------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Calls, inclusive and self seconds per span name, self seconds per
        layer, and the part of task time no cprank span covers (benchmark
        glue, time between spans and size reading)."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=self_time, minlength=k)
        spans = {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }
        layers = {layer: 0.0 for layer in LAYERS}
        for name, s in spans.items():
            layer = name.partition(".")[0]
            if layer in layers:
                layers[layer] += s["self_s"]
        task = spans.get("task", {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        sizing = spans.get("trace.sizes", {"self_s": 0.0})
        return {
            "spans": spans,
            "layers": layers,
            "task_wall_s": task["total_s"],
            "untraced_s": task["self_s"] + sizing["self_s"],
            "span_count": int(len(dur)),
            "sizes": dict(self.sizes),
        }

    def write(self, path) -> None:
        """Write every span once, at the end of the run."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            task=np.frombuffer(self.task, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
