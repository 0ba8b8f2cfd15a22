"""Prometheus metrics-export parser (conformance with the reference).

Reference: ``MetricsParser.py`` — reads a Prometheus HTTP-API JSON export
with a fixed nested schema (``:36-79``), explodes
``data.result[].values`` to one row per sample (``:87-93`` M1), normalizes
missing label columns (``:94-109`` M2), pivots the metric name into a value
column (``:111-124`` M3), repairs pause-container rows (``:134-137`` M4),
drops null/zero samples (``:126-129`` M5) and rows without join keys
(``:131-132`` M6), and buckets ``measure_time`` onto the rounding grid
(``dt.round``, ``:118``).

Engine shape: ``read_binary_files`` (one file per row) → ``flat_map``-style
``map_batches`` that parses and explodes each export into a LONG table
``(metric, pod, container, device, instance, job, node, original_date_us,
measure_time_us, value)`` — the long layout replaces the reference's
one-column-per-metric dynamic schema; ``pivot_metrics_wide`` recovers the
wide form per bucket when needed (SURVEY J1 note: union-long + single pivot
beats N sequential joins).
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..functions.bucketing import bucket_us
from ..functions.scalars import pod_to_container

# the label columns the reference declares + defends as necessary
# (MetricsParser.py:36-79, :94-109)
LABEL_COLS = ("container", "pod", "device", "instance", "job", "node", "namespace")


def _parse_export(raw: bytes, rounding_us: int, drop_null: bool) -> pd.DataFrame:
    doc = json.loads(raw)
    rows_metric, rows_labels, rows_ts, rows_val = [], {c: [] for c in LABEL_COLS}, [], []
    for result in doc.get("data", {}).get("result", []):
        labels = result.get("metric", {})
        name = labels.get("__name__", "unknown")
        values = result.get("values", [])
        for ts, val in values:
            rows_metric.append(name)
            for c in LABEL_COLS:
                rows_labels[c].append(labels.get(c))
            rows_ts.append(float(ts))
            rows_val.append(float(val))
    df = pd.DataFrame(
        {
            "metric": rows_metric,
            **rows_labels,
            "original_date_us": (np.asarray(rows_ts, dtype=np.float64) * 1e6).astype(
                np.int64
            )
            if rows_ts
            else np.array([], dtype=np.int64),
            "value": np.asarray(rows_val, dtype=np.float64),
        }
    )
    if len(df) == 0:
        df["measure_time_us"] = np.array([], dtype=np.int64)
        return df

    # M4 pause-container repair: container=="POD" -> pod minus last 2 dash
    # segments (MetricsParser.py:134-137)
    is_pod = df["container"] == "POD"
    if is_pod.any():
        pods = pa.array(df.loc[is_pod, "pod"].fillna(""), type=pa.string())
        df.loc[is_pod, "container"] = pod_to_container(pods).to_pylist()

    if drop_null:
        # M5: drop zero samples (pause-container rationale,
        # insights-experience.md:28-30); the container=="POD" marker is gone
        # after repair, so the zero-value rule carries the filter
        df = df[df["value"] != 0.0]
    # M6: keep rows having at least one join key
    has_pod = df["pod"].notna() & (df["pod"] != "")
    has_dev = df["device"].notna() & (df["device"] != "")
    df = df[has_pod | has_dev]

    df = df.copy()
    df["measure_time_us"] = bucket_us(df["original_date_us"].to_numpy(), rounding_us)
    return df


class PrometheusParser:
    """Export parser: one export file per input row, run as a plain task."""

    def __init__(self, rounding_us: int = 30_000_000, drop_null: bool = True):
        self.rounding_us = rounding_us
        self.drop_null = drop_null

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        outs = [
            _parse_export(b, self.rounding_us, self.drop_null)
            for b in batch["bytes"]
        ]
        out = pd.concat(outs, ignore_index=True)
        return out


def read_prometheus_json(
    paths: str | list[str],
    rounding_us: int = 30_000_000,
    drop_null: bool = True,
) -> ray.data.Dataset:
    files = ray.data.read_binary_files(paths)
    return files.map_batches(
        PrometheusParser(rounding_us=rounding_us, drop_null=drop_null),
        batch_format="pandas",
        batch_size=1,  # one (potentially GB-scale) export per task
    )


def pivot_metrics_wide(
    metrics: ray.data.Dataset,
    index_cols: tuple[str, ...] = ("pod", "measure_time_us"),
    metric_names: list[str] | None = None,
) -> ray.data.Dataset:
    """Long → wide: one row per (pod, bucket) with one column per metric
    (mean of multi-sample cells). The single-pivot replacement for the
    reference's N sequential metric joins (Joiner.py:78-120).
    ``metric_names`` may be precomputed by the caller to avoid a second
    pass over the long table."""
    from ..stages._shuffle import hash_partitioned_map

    if metric_names is None:
        metric_names = sorted(metrics.unique("metric"))
    # explicit output schema: partitions with zero surviving rows (e.g. only
    # null-pod system-wide samples) must still emit THIS schema — schema-less
    # empty pandas frames become Arrow null-typed columns, which downstream
    # joins reject
    key_fields = [
        (c, pa.int64() if c.endswith("_us") else pa.string()) for c in index_cols
    ]
    out_schema = pa.schema(key_fields + [(m, pa.float64()) for m in metric_names])

    def pivot(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df.dropna(subset=list(index_cols))
        if len(df) == 0:
            return out_schema.empty_table()
        p = df.pivot_table(
            index=list(index_cols), columns="metric", values="value", aggfunc="mean"
        )
        p = p.reindex(columns=metric_names).astype(np.float64).reset_index()
        return pa.Table.from_pandas(p, schema=out_schema, preserve_index=False)

    return hash_partitioned_map(
        metrics, list(index_cols), pivot, batch_format="pyarrow"
    )
