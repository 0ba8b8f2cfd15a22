"""Driver-side span tracer for the traced benchmark run.

The tracer wraps the engine's layer entry points and the Ray Data calls that
start an execution, from outside the engine: it replaces the module attribute
each caller resolves (many entry points are imported lazily inside the
pipeline, so the attribute is looked up at call time) and restores it
afterwards. Spans (name, start, end, parent) are kept in memory; the run
writes them out at the end.

A span's self time is its duration minus the time its child spans cover; a
Ray call nested in another Ray call counts toward the outer call site.
Calls on the driver are strictly nested, so the self times of all spans of
one op sum to the op's wall time; ``pipeline.self_s`` is the root span's
self time, the part of ``run_rollup_pipeline`` no wrapped layer accounts for.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

PKG = "contest_parsing_ray"

# (module, attribute, span name). One entry per attribute a caller resolves:
# a function imported by name into another module at import time is patched
# in that module too.
ENTRY_POINTS = [
    ("pipelines.rollup_pipeline", "run_rollup_pipeline", "pipeline"),
    ("stages.deletion_vector", "build_deduped_dv", "dv.build"),
    ("stages.deletion_vector", "append_deduped_dv", "dv.append"),
    ("stages.deletion_vector", "duplicated_key_probe_files", "dedup.probe"),
    ("stages.dedup", "duplicated_key_probe_files", "dedup.probe"),
    ("stages._shuffle", "raw_hash_exchange", "shuffle.raw_exchange"),
    ("pipelines.rollup_pipeline", "_merge_partition", "rollup.merge"),
    ("stages.rollup", "_merge_partition", "rollup.merge"),
    ("stages.gapfill", "fill_group_pandas", "gapfill.fill"),
    ("stages.retention", "write_tiers_local", "retention.write"),
    ("stages.retention", "write_tier_state_local", "retention.write"),
    ("stages.compress", "encode_chunk", "compress.encode"),
]

# Ray Data calls that run (or may run) an execution, by call site;
# read_parquet resolves file metadata when the read is planned.
RAY_SITES = ["materialize", "write_parquet", "to_pandas", "count", "read_parquet"]

# span name -> per-layer metric holding its self time
SELF_METRIC = {
    "pipeline": "pipeline.self_s",
    "dv.build": "dv.build_s",
    "dv.append": "dv.append_s",
    "dedup.probe": "dedup.probe_s",
    "shuffle.raw_exchange": "shuffle.raw_exchange_s",
    "rollup.merge": "rollup.merge_s",
    "gapfill.fill": "gapfill.fill_s",
    "retention.write": "retention.write_s",
    "compress.encode": "compress.encode_s",
    **{f"ray.{s}": f"ray.exec_s.{s}" for s in RAY_SITES},
}
TIME_METRICS = set(SELF_METRIC.values()) | {"ray.exec_s"}
CALL_METRIC = {
    "dedup.probe": "dedup.probe_calls",
    "shuffle.raw_exchange": "shuffle.raw_exchange_calls",
    **{f"ray.{s}": f"ray.exec_count.{s}" for s in RAY_SITES},
}


def _rows_of_first_arg(args, kwargs):
    return len(args[0]) if args else None


class Tracer:
    """Records spans of calls made on the thread that installed it."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._thread = None
        self.op = -1

    def _wrap(self, name, fn, size_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            span = {
                "name": name,
                "op": tracer.op,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "start": time.perf_counter(),
            }
            if size_of is not None:
                span["rows"] = size_of(args, kwargs)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()

        return traced

    def _patch(self, owner, attr, name, size_of=None):
        orig = getattr(owner, attr)
        setattr(owner, attr, self._wrap(name, orig, size_of))
        self._undo.append((owner, attr, orig))

    def install(self) -> None:
        import ray.data

        self._thread = threading.get_ident()
        for mod, attr, name in ENTRY_POINTS:
            module = importlib.import_module(f"{PKG}.{mod}")
            size_of = _rows_of_first_arg if name == "rollup.merge" else None
            self._patch(module, attr, name, size_of)
        for site in RAY_SITES:
            owner = ray.data if site == "read_parquet" else ray.data.Dataset
            self._patch(owner, site, f"ray.{site}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
        self._thread = None


def op_layers(spans: list[dict], op: int) -> tuple[dict, float]:
    """Per-layer self times and call counts of one op, and the residual
    op wall minus the sum of all self times (0 up to rounding)."""
    mine = [i for i, s in enumerate(spans) if s["op"] == op]
    child_time: dict[int, float] = defaultdict(float)
    for i in mine:
        p = spans[i]["parent"]
        if p is not None:
            child_time[p] += spans[i]["end"] - spans[i]["start"]
    out: dict[str, float] = {m: 0.0 for m in SELF_METRIC.values()}
    out.update({m: 0 for m in CALL_METRIC.values()})
    total_self = 0.0
    root_wall = 0.0
    for i in mine:
        s = spans[i]
        dur = s["end"] - s["start"]
        self_t = dur - child_time[i]
        total_self += self_t
        if s["parent"] is None:
            root_wall += dur
        # a Ray call made inside another (write_parquet -> materialize) is
        # part of the outer call site's execution
        outer = _outer_ray(spans, s)
        name = outer if outer is not None else s["name"]
        out[SELF_METRIC[name]] += self_t
        if outer is None and name in CALL_METRIC:
            out[CALL_METRIC[name]] += 1
    merges = [spans[i] for i in mine if spans[i]["name"] == "rollup.merge"]
    out["count.partial_rows"] = merges[0]["rows"] if merges else 0
    out["ray.exec_s"] = sum(out[f"ray.exec_s.{s}"] for s in RAY_SITES)
    out["ray.exec_count"] = sum(out[f"ray.exec_count.{s}"] for s in RAY_SITES)
    return out, root_wall - total_self


def _outer_ray(spans: list[dict], s: dict) -> str | None:
    """Name of the outermost Ray call enclosing ``s``, if any."""
    outer = None
    p = s["parent"]
    while p is not None:
        if spans[p]["name"].startswith("ray."):
            outer = spans[p]["name"]
        p = spans[p]["parent"]
    return outer
