"""Local mirror of the driver's correctness gate.

For every `queries()` entry: run the Ray pipeline AND the `oracle_sql()`
string (DuckDB, tables pre-registered as views over the sf dir) at sf0.01,
normalize both (columns sorted by name, rows sorted by all columns), and
compare rows / schema / values — the same contract CORRECTNESS_r{N}.json
records. Run with the driver's parallelism (num_cpus=32) to catch
partition-count-dependent failures (round-1 telemetry_join_fixture crashed
at 32 while passing at 4).

    PYTHONPATH=. python tools/mirror_gate.py [sf_dir] [query ...]   # from the repo root
"""

from __future__ import annotations

import json
import os
import sys
import time

import duckdb
import pyarrow as pa
import pyarrow.compute as pc

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def normalize(t: pa.Table) -> pa.Table:
    t = t.select(sorted(t.column_names))
    # driver-style value compare: cast to a stable logical form first
    cols = {}
    for name in t.column_names:
        c = t[name]
        if pa.types.is_large_string(c.type):
            c = c.cast(pa.string())
        if pa.types.is_integer(c.type) and not pa.types.is_int64(c.type):
            c = c.cast(pa.int64())
        if pa.types.is_floating(c.type) and not pa.types.is_float64(c.type):
            c = c.cast(pa.float64())
        cols[name] = c
    t = pa.table(cols)
    if t.num_rows:
        t = t.take(
            pc.sort_indices(t, sort_keys=[(c, "ascending") for c in t.column_names])
        )
    return t.combine_chunks()


# Queries whose oracles must hold on data that actually contains nulls
# (null values AND null user keys). value_drift_psi et al. are excluded by
# design: they REFUSE null keys loudly (their contract).
NULL_GATE_QUERIES = [
    "counter_increase_1h",
    "ohlc_rate_1h",
    "value_percent_rank",
    "winsorize_values_p05_p95",
    "minmax_normalize_values",
    "robust_zscore_values",
    "exact_quantiles_value",
    "quantiles_by_type",
    "rollup_1h",
    "rollup_1m",
    "rollup_5m",
    "rollup_floor_1h",
    "tree_chain_depths",
    "record_high_1h",
    "melt_rollup_1h",
    "value_histogram_20",
    # every oracle that re-derives the 1h rollup carries the same
    # null-sample WHERE as the engine's PartialRollup null drop
    "ewma_1h",
    "zscore_anomaly_1h",
    "rolling_median_24h",
    "series_corr_pairs",
    "cusum_changepoints_1h",
    "trend_slope_1h",
    "seasonal_decompose_1h",
    "holt_smooth_1h",
    "autocorr_lag1_1h",
    "gapfill_locf_1h",
    "gapfill_linear_1h",
    "widen_1h",
    "topk_buckets",
    "compress_roundtrip_1h",
    "range_read_1h",
    "asof_join_rollup",
    "asof_join_forward",
    "sliding_window_3h",
    "m4_downsample_1h",
    "time_weighted_avg_1h",
    "sessionize_30m",
    "sliding_distinct_users_24h",
    "user_type_entropy",
    "activity_gini_1d",
    "heavy_hitter_users",
    # user-keyed exchanges: nulls in the int64 key column must not split
    # a user across partitions (the hash64_column float-coercion trap)
    "latest_event_per_user_asof",
    "growth_accounting_1d",
    "funnel_signup_click_purchase",
    "interarrival_stats_by_type",
    "merged_intervals_5m",
    "conversion_lag_stats",
    "type_transition_matrix",
    "top3_events_per_type",
    "cumulative_distinct_users_1m",
    "cumulative_counts_1m",
    "hot_user_events",
    "events_in_sessions",
    "dedup_keep_first_events",
    "dedup_keep_none_events",
    "profile_events",
    # documents-table dirt (round-5 extension): null text, empty text,
    # null lang, null source — the realistic corpus dirt for the
    # text/sampling/mixing families. Tokens-axis queries are golden-pinned
    # at sf0.01 so they cannot ride this variant; their dirt coverage
    # (empty token arrays, null keys, null doc_id refusal) lives in the
    # DuckDB-oracle pytests instead (test_tokens.py).
    "doc_repetition",
    "word_topk_docs",
    "curate_docs",
    "doc_token_counts",
    "doc_quality",
    "exact_dedup_docs",
    "ngram_jaccard_pairs",
    "sample_docs_rate_25",
    "sample_docs_per_source_10",
    "sample_docs_weighted_30",
    "train_val_test_split",
    "redact_docs",
    "shuffled_export_docs",
    "mixture_sample_docs",
    "source_word_entropy",
    "pack_offsets_4096",
]


def make_null_variant(sf_dir: str) -> str:
    """Copy the sf tables into /tmp with deterministic dirt injected:
    events — ~3% of `value` and ~2% of `user_id` (by splitmix64 of
    event_id) set to NULL; documents — ~2% null text, ~2% empty text,
    ~1.5% null lang, ~1.5% null source (by splitmix64 of doc_id), with
    n_chars kept consistent (NULL for null text, 0 for empty). Other
    tables are copied untouched."""
    import numpy as np
    import pyarrow.parquet as pq

    def _mix(ids):
        # one local copy of the library's splitmix64 (_shuffle._splitmix64)
        # so the deterministic dirt needs no engine import in the gate
        with np.errstate(over="ignore"):
            z = ids.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            return z ^ (z >> np.uint64(31))

    out = f"/tmp/mirror_nulls_{os.path.basename(sf_dir.rstrip('/'))}"
    marker = os.path.join(out, ".done2")
    if os.path.exists(marker):
        return out
    os.makedirs(out, exist_ok=True)
    for tbl in TABLES:
        src = os.path.join(sf_dir, f"{tbl}.parquet")
        if not os.path.exists(src):
            continue
        t = pq.read_table(src)
        if tbl == "documents":
            z = _mix(t["doc_id"].to_numpy(zero_copy_only=False))
            null_t = (z % np.uint64(101)) < 2
            empty_t = ((z % np.uint64(103)) < 2) & ~null_t
            null_l = (z % np.uint64(107)) < 2
            null_s = (z % np.uint64(109)) < 2
            cols = {}
            for name in t.column_names:
                c = t[name]
                if name == "text":
                    arr = c.to_numpy(zero_copy_only=False).astype(object)
                    arr[null_t] = None
                    arr[empty_t] = ""
                    c = pa.array(arr, type=pa.string(), from_pandas=True)
                elif name == "n_chars":
                    arr = c.to_numpy(zero_copy_only=False).astype(object)
                    arr[null_t] = None
                    arr[empty_t] = 0
                    c = pa.array(arr, type=t.schema.field(name).type,
                                 from_pandas=True)
                elif name == "lang":
                    arr = c.to_numpy(zero_copy_only=False).astype(object)
                    arr[null_l] = None
                    c = pa.array(arr, type=pa.string(), from_pandas=True)
                elif name == "source":
                    arr = c.to_numpy(zero_copy_only=False).astype(object)
                    arr[null_s] = None
                    c = pa.array(arr, type=pa.string(), from_pandas=True)
                cols[name] = c
            t = pa.table(cols)
        if tbl == "events":
            z = _mix(t["event_id"].to_numpy(zero_copy_only=False))
            null_v = (z % np.uint64(100)) < 3
            null_u = (z % np.uint64(97)) < 2
            cols = {}
            for name in t.column_names:
                c = t[name]
                if name == "value":
                    c = pa.array(
                        np.where(null_v, np.nan,
                                 c.to_numpy(zero_copy_only=False)),
                        from_pandas=True,
                    )
                elif name == "user_id":
                    arr = c.to_numpy(zero_copy_only=False).astype(object)
                    arr[null_u] = None
                    c = pa.array(arr, type=t.schema.field(name).type,
                                 from_pandas=True)
                cols[name] = c
            t = pa.table(cols)
        pq.write_table(t, os.path.join(out, f"{tbl}.parquet"))
    with open(marker, "w") as f:
        f.write("ok")
    return out


def main() -> None:
    args = [a for a in sys.argv[1:] if not a.startswith("-")]
    sf_dir = args[0] if args and os.path.isdir(args[0]) else "/root/testdata/sf0.01"
    only = set(args[1:]) if args and os.path.isdir(args[0]) else set(args)
    if "--nulls" in sys.argv:
        # null-bearing variant corpus: the null-semantics contracts
        # (counter_rate skip-null samples, OHLC null groups, percent_rank /
        # winsorize null passthrough, GROUP BY keeps all-null groups) are
        # only honest if the gate data actually CONTAINS nulls — the stock
        # sf events table has none.
        sf_dir = make_null_variant(sf_dir)
        if not only:
            only = set(NULL_GATE_QUERIES)

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
            log_to_driver=False,
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entry
    from tools.make_goldens import to_table

    con = duckdb.connect()
    for tbl in TABLES:
        p = os.path.join(sf_dir, f"{tbl}.parquet")
        if os.path.exists(p):
            con.execute(
                f"CREATE VIEW {tbl} AS SELECT * FROM read_parquet('{p}')"
            )

    qs = entry.queries()
    oracles = entry.oracle_sql()
    results: dict[str, dict] = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        rec: dict = {}
        t0 = time.perf_counter()
        try:
            got = normalize(to_table(fn(sf_dir)))
            rec["rows"] = got.num_rows
        except Exception as e:  # noqa: BLE001
            results[name] = {"err": f"{type(e).__name__}: {e}"[:300]}
            print(f"{name:32s} ERR {results[name]['err'][:80]}")
            continue
        rec["sec"] = round(time.perf_counter() - t0, 2)
        sql = oracles.get(name)
        if sql is None:
            rec["oracle"] = "none"
            print(f"{name:32s} rows={rec['rows']:>7} {rec['sec']:>6}s  NO-ORACLE")
        else:
            want = normalize(con.execute(sql).arrow())
            rec["rows_match"] = got.num_rows == want.num_rows
            rec["schema_match"] = got.schema.names == want.schema.names and all(
                got.schema.field(i).type == want.schema.field(i).type
                for i in range(len(got.schema))
            )
            rec["hash_match"] = bool(got.equals(want))
            ok = rec["rows_match"] and rec["schema_match"] and rec["hash_match"]
            print(
                f"{name:32s} rows={rec['rows']:>7} {rec['sec']:>6}s  "
                f"{'OK' if ok else 'MISMATCH ' + json.dumps(rec)}"
            )
            if not rec["hash_match"] and rec["rows_match"] and rec["schema_match"]:
                # first differing column for quick diagnosis
                for c in got.column_names:
                    if not got[c].equals(want[c]):
                        rec["first_diff_col"] = c
                        break
        results[name] = rec
    bad = {k: v for k, v in results.items() if v.get("err") or v.get("hash_match") is False}
    print(f"\n{len(results) - len(bad)}/{len(results)} green")
    if bad:
        print("FAILING:", json.dumps(bad, indent=2)[:2000])
        sys.exit(1)


if __name__ == "__main__":
    main()
