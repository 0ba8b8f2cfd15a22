"""Telemetry alignment pipeline — the reference's flagship Joiner re-hosted.

Reference: ``Joiner.start`` (``Joiner.py:18-46``): per service,
(1) fold of LEFT joins traces x each metric table on
``(podname, starttime) = (pod, measure_time)`` with per-join dedup
(``:78-120`` J1 + D2), (2) cumulative-until-t log-count join on
``(starttime, servicename)`` (``:221-267`` J2/A4), (3) system-wide
per-bucket means of ``node_network_*`` metrics appended diagonally
(``:313-364`` A1/J8).

Ray-Data re-expression (SURVEY J1/J2/A1 rows):
- The N sequential metric joins collapse into ONE pivot of the long
  metrics table + ONE hash join (largest-first ordering heuristic,
  ``Joiner.py:74``, becomes irrelevant).
- The O(T x S) nested filter loop for cumulative counts becomes a
  per-bucket groupby + per-service cumsum (``stages.cumulative``), joined
  back by key.
- The reference's effectively-inner ``drop_nulls(subset="container")``
  (``Joiner.py:117-118``) is the ``drop_unmatched`` flag.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from ..stages._shuffle import hash_partitioned_map
from ..stages.join import broadcast_join, hash_join


def join_traces_metrics(
    spans: ray.data.Dataset,
    metrics_long: ray.data.Dataset,
    drop_unmatched: bool = True,
    metric_names: list[str] | None = None,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """J1: spans x pivoted metrics on (podname, starttime)=(pod, bucket).

    One hash join against the single wide metrics table instead of the
    reference's per-metric join fold; dedup after fan-out is unnecessary
    because the right side is unique per (pod, bucket) by construction
    (mean-aggregated pivot).
    """
    from ..sources.prometheus import pivot_metrics_wide

    wide = pivot_metrics_wide(
        metrics_long, index_cols=("pod", "measure_time_us"),
        metric_names=metric_names,
    )
    joined = hash_join(
        spans,
        wide,
        on=["podname", "starttime_us"],
        right_on=["pod", "measure_time_us"],
        how="inner" if drop_unmatched else "left_outer",
        num_partitions=num_partitions,
    )
    return joined


def cumulative_log_features(
    logs: ray.data.Dataset, width_us: int, num_partitions: int | None = None
) -> ray.data.Dataset:
    """J2/A4: per (service, bucket): cumulative log counts until t split by
    level + running distinct event_id count. Output one row per
    (service, bucket_us) with running_all/running_warn/running_error/
    running_info/running_distinct_events."""

    import pyarrow as pa

    out_schema = pa.schema(
        [
            ("service", pa.string()),
            ("bucket_us", pa.int64()),
            ("running_all", pa.int64()),
            ("running_warn", pa.int64()),
            ("running_error", pa.int64()),
            ("running_info", pa.int64()),
            ("running_distinct_events", pa.int64()),
        ]
    )

    def per_partition_pa(t: pa.Table) -> pa.Table:
        df = per_partition(t.to_pandas())
        if len(df) == 0:
            # explicit schema: schema-less empty frames become Arrow
            # null-typed columns and the downstream join can't find keys
            return out_schema.empty_table()
        return pa.Table.from_pandas(df[[f.name for f in out_schema]], schema=out_schema, preserve_index=False)

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        # ONE grouped pass for every service in the partition — no
        # per-service Python loop (round-2 verdict). Semantics preserved
        # exactly: per-level counts are of NON-NULL event_ids (the old
        # pivot_table aggfunc="count"), "all" counts every row, services
        # emit in first-appearance order with buckets ascending inside.
        if len(df) == 0:
            return pd.DataFrame(
                columns=[
                    "service", "bucket_us", "running_all", "running_warn",
                    "running_error", "running_info", "running_distinct_events",
                ]
            )
        df = df.assign(bucket_us=df["timestamp_us"])
        # factorize = first-appearance rank, so sorted group order == the
        # old loop's emit order (use_na_sentinel=False: codes index uniques)
        codes, uniques = pd.factorize(df["service"], use_na_sentinel=False)
        df["_svc"] = codes
        counts = (
            df.groupby(["_svc", "bucket_us"], sort=True).size().rename("all").to_frame()
        )
        lv = (
            df.groupby(["_svc", "bucket_us", "level"], sort=True)["event_id"]
            .count()
            .unstack("level")
            .reindex(columns=["WARN", "ERROR", "INFO"])
        )
        counts = counts.join(lv).fillna(0)
        first_seen = df.groupby(["_svc", "event_id"], sort=False)["bucket_us"].min()
        nd = (
            first_seen.reset_index()
            .groupby(["_svc", "bucket_us"], sort=True)
            .size()
        )
        counts["nd"] = nd.reindex(counts.index).fillna(0)
        cum = counts.groupby(level=0, sort=True).cumsum()
        idx = counts.index
        return pd.DataFrame(
            {
                "service": uniques[idx.get_level_values(0)],
                "bucket_us": idx.get_level_values(1).to_numpy(dtype=np.int64),
                "running_all": cum["all"].to_numpy(dtype=np.int64),
                "running_warn": cum["WARN"].to_numpy(dtype=np.int64),
                "running_error": cum["ERROR"].to_numpy(dtype=np.int64),
                "running_info": cum["INFO"].to_numpy(dtype=np.int64),
                "running_distinct_events": cum["nd"].to_numpy(dtype=np.int64),
            }
        )

    # all rows of one service must co-locate (running sums are per service)
    return hash_partitioned_map(
        logs, ["service"], per_partition_pa,
        num_partitions=num_partitions, batch_format="pyarrow"
    )


def join_spans_logs(
    joined: ray.data.Dataset, log_features: ray.data.Dataset,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Attach the cumulative log features to spans on (service, bucket)."""
    schema = log_features.schema(fetch_if_missing=True)
    if schema is None or "service" not in schema.names:
        # no parsed logs at all -> left join would be a no-op; keep spans
        return joined
    return hash_join(
        joined,
        log_features,
        on=["servicename", "starttime_us"],
        right_on=["service", "bucket_us"],
        how="left_outer",
        num_partitions=num_partitions,
    )


def systemwide_means(
    metrics_long: ray.data.Dataset,
    metric_prefix: str = "node_network",
    device: str = "eth0",
    job: str = "kubernetes-service-endpoints",
) -> pd.DataFrame:
    """A1: per-bucket means of the system-wide network metrics (filter
    ``device=='eth0' & job=='kubernetes-service-endpoints'``,
    ``Joiner.py:318,345-354``). Small result → pandas (broadcast side)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def filt(b: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(
                pc.match_substring(b["metric"], metric_prefix),
                pc.equal(b["device"], device),
            ),
            pc.equal(b["job"], job),
        )
        return b.filter(pc.fill_null(m, False))

    small = metrics_long.map_batches(filt, batch_format="pyarrow").to_pandas()
    if len(small) == 0:
        return pd.DataFrame(columns=["measure_time_us"])
    out = (
        small.pivot_table(
            index="measure_time_us", columns="metric", values="value", aggfunc="mean"
        )
        .add_prefix("systemWide-")
        .reset_index()
    )
    return out


def telemetry_join(
    spans: ray.data.Dataset,
    metrics_long: ray.data.Dataset,
    logs: ray.data.Dataset | None,
    width_us: int = 30_000_000,
    drop_unmatched: bool = True,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """The full Joiner.start analog: traces x metrics x cumulative logs +
    system-wide means broadcast onto each bucket. ``logs=None`` (a service
    with no log stream — legal per FilepathFinder) skips the log join.

    The output schema is PINNED: spans schema + one float64 column per
    metric + the log-feature columns + the systemWide-* columns — computed
    up front, so every block (including empty join partitions) is
    type-stable for downstream joins/unions."""
    import pyarrow as pa

    from ..sources.jaeger import SPAN_SCHEMA
    from ..stages.join import pin_schema

    metric_names = sorted(metrics_long.unique("metric"))
    joined = join_traces_metrics(
        spans, metrics_long, drop_unmatched, metric_names=metric_names,
        num_partitions=num_partitions,
    )
    log_fields = []
    if logs is not None:
        feats = cumulative_log_features(logs, width_us, num_partitions)
        joined = join_spans_logs(joined, feats, num_partitions)
        log_fields = [
            (c, pa.int64())
            for c in ("running_all", "running_warn", "running_error",
                      "running_info", "running_distinct_events")
        ]
    sysw = systemwide_means(metrics_long)
    sysw_fields = []
    if len(sysw) > 1 or len(sysw.columns) > 1:
        joined = broadcast_join(
            joined,
            sysw.rename(columns={"measure_time_us": "starttime_us"}),
            on=["starttime_us"],
            how="left",
        )
        sysw_fields = [
            (c, pa.float64()) for c in sysw.columns if c != "measure_time_us"
        ]
    out_schema = pa.schema(
        list(SPAN_SCHEMA)
        + [pa.field(m, pa.float64()) for m in metric_names]
        + [pa.field(n, t) for n, t in log_fields + sysw_fields]
    )
    return pin_schema(joined, out_schema)


def process_corpus(
    source_dir: str,
    out_dir: str,
    width_us: int = 30_000_000,
    test_mode: bool = False,
    clear_output: bool = True,
    drop_unmatched: bool = True,
    explode: bool = True,
    num_partitions: int | None = None,
) -> dict:
    """The ``JoinManager.process()`` analog — the end-to-end entry a user of
    the reference hits first (``JoinManager.py:32-57``):

    discover (S1) → per service: parse traces/metrics/logs → telemetry join
    (J1/J2/A1) → tree depth stats (G1/G2) → trace-in-one-row explode (A3)
    → partitioned Parquet per service (resumable layout: one directory per
    service per artifact).

    Returns {service: {"joined_rows", "exploded_rows", "stats", paths...}}.
    """
    import os

    from ..sources.discovery import corpus_stats, find_files
    from ..sources.jaeger import read_jaeger_json
    from ..sources.logs import read_structured_logs
    from ..sources.prometheus import read_prometheus_json
    from ..stages.exploder import trace_one_row
    from ..stages.join import hash_join
    from ..stages.tree import tree_depth_stats
    from ..state.manifest import clear_dir

    path_list = find_files(source_dir, test_mode=test_mode)
    stats = corpus_stats(path_list)
    if clear_output:
        clear_dir(out_dir)

    manifest: dict = {}
    for service, streams in path_list.items():
        spans = read_jaeger_json(streams.traces, width_us)
        metrics = read_prometheus_json(streams.monitoring, width_us)
        logs = (
            read_structured_logs(streams.logs, width_us) if streams.logs else None
        )
        joined = telemetry_join(
            spans, metrics, logs, width_us, drop_unmatched=drop_unmatched,
            num_partitions=num_partitions,
        )

        # G1/G2: depth stats per span, joined back on (trace, span) — J6
        depths = tree_depth_stats(
            spans.select_columns(["trace_id", "span_id", "parent_span_id"]),
            trace_col="trace_id", span_col="span_id",
            parent_col="parent_span_id",
        )
        joined = hash_join(
            joined, depths, on=["trace_id", "span_id"], how="left_outer",
            num_partitions=num_partitions,
        )

        joined_path = os.path.join(out_dir, service, "joined")
        joined.write_parquet(joined_path)

        entry = {"stats": stats[service], "joined_path": joined_path}
        import pyarrow.dataset as pads

        entry["joined_rows"] = pads.dataset(joined_path).count_rows()

        if explode:
            import ray.data

            back = ray.data.read_parquet(joined_path)
            metric_cols = [
                c for c in back.schema().names
                if c not in {
                    "trace_id", "span_id", "parent_span_id", "operation",
                    "process_id", "servicename", "podname", "http_status_code",
                    "start_time_us", "duration_us", "starttime_us",
                    "self_depth", "max_depth", "min_depth", "mean_depth",
                }
            ]
            wide = trace_one_row(
                back,
                trace_col="trace_id",
                service_col="servicename",
                mean_cols=tuple(
                    c for c in ("self_depth", "max_depth", "min_depth", "mean_depth")
                    if c in back.schema().names
                ),
                minmax_cols=tuple(metric_cols),
                join_cols=("span_id", "operation"),
                mode_cols=("http_status_code",),
                duration_col="duration_us",
                sort_cols=("starttime_us", "span_id"),
                num_partitions=num_partitions,
            )
            exploded_path = os.path.join(out_dir, service, "exploded")
            wide.write_parquet(exploded_path)
            entry["exploded_path"] = exploded_path
            entry["exploded_rows"] = pads.dataset(exploded_path).count_rows()
        manifest[service] = entry
    return manifest
