"""Jaeger trace-export parser (conformance with the reference).

Reference: ``TracesParser.py`` — two passes per file: a raw ``json.load``
builds ``processID → {servicename, podname}`` (podname from the process tag
``key=="hostname"``; ``:34-52`` ST2/M9), then the fixed nested schema read
(``:55-99``) + the explode chain spans→tags→references (``:111-139`` M7),
the tag predicate projection ``http.status_code | otel.status_code``
(``:118-129`` M8), and timestamp normalization + bucketing (``:146-156``
M10).

Engine shape: one export per task; the span×tag fan-out never materializes
— status code is extracted per span inside the parse (SURVEY M8 note:
pre-aggregate tags per span avoids the row blow-up that the reference
later undoes with ``unique("spanID")``, ``Joiner.py:104``). References:
first CHILD_OF parent becomes ``parent_span_id`` (the tree pointer,
``TreeBuilder.py:29-47``).
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import ray.data

from ..functions.bucketing import bucket_us

STATUS_KEYS = ("http.status_code", "otel.status_code")

import pyarrow as pa

# Explicit span schema: a file whose spans all lack a tag (status, parent,
# pod) must NOT emit an Arrow null-typed column — downstream joins reject
# null-typed fields and unify schemas per block otherwise.
SPAN_SCHEMA = pa.schema(
    [
        ("trace_id", pa.string()),
        ("span_id", pa.string()),
        ("parent_span_id", pa.string()),
        ("operation", pa.string()),
        ("process_id", pa.string()),
        ("servicename", pa.string()),
        ("podname", pa.string()),
        ("http_status_code", pa.string()),
        ("start_time_us", pa.int64()),
        ("duration_us", pa.int64()),
        ("starttime_us", pa.int64()),
    ]
)


def _parse_trace_file(raw: bytes, rounding_us: int) -> pd.DataFrame:
    doc = json.loads(raw)
    data = doc.get("data", [])
    cols: dict[str, list] = {
        k: []
        for k in (
            "trace_id", "span_id", "parent_span_id", "operation", "process_id",
            "servicename", "podname", "http_status_code", "start_time_us",
            "duration_us",
        )
    }
    for trace in data:
        tid = trace.get("traceID")
        # ST2: per-file process lookup (TracesParser.py:34-52)
        lookup = {}
        for pid, proc in (trace.get("processes") or {}).items():
            pod = None
            for tag in proc.get("tags", []) or []:
                if tag.get("key") == "hostname":
                    pod = tag.get("value")
            lookup[pid] = (proc.get("serviceName"), pod)
        for span in trace.get("spans", []) or []:
            status = None
            for tag in span.get("tags", []) or []:
                if tag.get("key") in STATUS_KEYS and status is None:
                    status = str(tag.get("value"))
            parent = None
            for ref in span.get("references", []) or []:
                parent = ref.get("spanID")
                break
            svc, pod = lookup.get(span.get("processID"), (None, None))
            cols["trace_id"].append(tid)
            cols["span_id"].append(span.get("spanID"))
            cols["parent_span_id"].append(parent)
            cols["operation"].append(span.get("operationName"))
            cols["process_id"].append(span.get("processID"))
            cols["servicename"].append(svc)
            cols["podname"].append(pod)
            cols["http_status_code"].append(status)
            cols["start_time_us"].append(int(span.get("startTime", 0)))
            cols["duration_us"].append(int(span.get("duration", 0)))
    df = pd.DataFrame(cols)
    ts = df["start_time_us"].to_numpy(dtype=np.int64)
    # M10: original timestamp preserved; starttime bucketed to the grid
    df["starttime_us"] = bucket_us(ts, rounding_us)
    return df


class JaegerParser:
    def __init__(self, rounding_us: int = 30_000_000):
        self.rounding_us = rounding_us

    def __call__(self, batch: pd.DataFrame) -> pa.Table:
        df = pd.concat(
            [_parse_trace_file(b, self.rounding_us) for b in batch["bytes"]],
            ignore_index=True,
        )
        return pa.Table.from_pandas(df, schema=SPAN_SCHEMA, preserve_index=False)


def read_jaeger_json(
    paths: str | list[str], rounding_us: int = 30_000_000
) -> ray.data.Dataset:
    files = ray.data.read_binary_files(paths)
    return files.map_batches(
        JaegerParser(rounding_us=rounding_us),  # instance -> task pool
        batch_format="pandas",
        batch_size=1,
    )
