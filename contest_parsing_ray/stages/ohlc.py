"""OHLC / counter-rate rollup: per (key, floor bucket) the first (open),
highest, lowest, and last (close) value plus the in-bucket rate of change.

The reference rolls buckets up with order-free aggregates only
(count/mean/min/max — ``Joiner.py:345-354``, ``TraceInOneRowExploder.py:
83-123``); open/close add the *order-dependent* pair every monitoring
engine needs (Prometheus ``rate()``, OHLC candlesticks). "First"/"last"
are made deterministic by ordering on ``(ts, order_col)`` — the same
tie-break discipline the engine applies to the reference's unordered
``unique("spanID")`` dedup (SURVEY §2.7 D2 note).

Scale design: open/high/low/close are MERGEABLE — a partial per batch
carries ``(open_ts, open_ord, open_v, close_ts, close_ord, close_v,
high, low, cnt)`` per (key, bucket), so only ~#groups rows per batch
enter the engine's keyed exchange (the same partial-before-shuffle story
as ``stages/rollup.py``); the final merge re-runs the identical combiner
once per hash partition.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ._shuffle import hash_partitioned_map, source_bytes

_PARTIAL_COLS = [
    "open_us", "open_ord", "open_v",
    "close_us", "close_ord", "close_v",
    "high_v", "low_v", "cnt",
]


def _combine(df: pd.DataFrame, key_col: str) -> pd.DataFrame:
    """Merge partial OHLC rows by (key, bucket_us) — fully vectorized
    (two lexsorts + reduceat), handles every group in the frame at once."""
    if len(df) == 0:
        return df
    # use_na_sentinel=False: a null key is a REAL group (SQL GROUP BY NULL
    # semantics); the default -1 sentinel would wrap key_uniques[-1] onto
    # the last real key and silently mislabel the null group's row
    k, key_uniques = pd.factorize(df[key_col], sort=False, use_na_sentinel=False)
    b = df["bucket_us"].to_numpy()
    open_us = df["open_us"].to_numpy()
    open_ord = df["open_ord"].to_numpy()
    close_us = df["close_us"].to_numpy()
    close_ord = df["close_ord"].to_numpy()

    # group layout: sort by (key, bucket); opens tie-broken by (us, ord)
    o_open = np.lexsort((open_ord, open_us, b, k))
    ks, bs = k[o_open], b[o_open]
    new = np.empty(len(ks), dtype=bool)
    new[0] = True
    new[1:] = (ks[1:] != ks[:-1]) | (bs[1:] != bs[:-1])
    starts = np.flatnonzero(new)
    ends = np.concatenate([starts[1:], [len(ks)]]) - 1
    # the close sort shares the same (key, bucket) primary keys, so the
    # group layout (starts/ends) is identical
    o_close = np.lexsort((close_ord, close_us, b, k))

    open_rows = o_open[starts]
    close_rows = o_close[ends]
    out = pd.DataFrame(
        {
            key_col: key_uniques[ks[starts]],
            "bucket_us": bs[starts],
            "open_us": open_us[open_rows],
            "open_ord": open_ord[open_rows],
            "open_v": df["open_v"].to_numpy()[open_rows],
            "close_us": close_us[close_rows],
            "close_ord": close_ord[close_rows],
            "close_v": df["close_v"].to_numpy()[close_rows],
            "high_v": np.maximum.reduceat(df["high_v"].to_numpy()[o_open], starts),
            "low_v": np.minimum.reduceat(df["low_v"].to_numpy()[o_open], starts),
            "cnt": np.add.reduceat(df["cnt"].to_numpy()[o_open], starts),
        }
    )
    return out


def counter_rate(
    events: ray.data.Dataset,
    key_col: str,
    ts_col: str,
    value_col: str,
    order_col: str,
    width_us: int,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Reset-aware per-bucket counter increase (PromQL ``increase``-style):
    per (key, floor bucket), the sum of POSITIVE deltas between
    consecutive samples ordered by ``(ts, order_col)`` — a counter reset
    (value drop) contributes 0 instead of a negative delta. Output:
    ``(key, bucket_us, n_samples, increase)``.

    Unlike :func:`ohlc_rollup`, positive-delta sums need sample
    contiguity, so there is no per-batch partial: all rows of a key
    co-locate via ONE hash exchange and the scan is a single vectorized
    diff per partition (same co-location contract as the sessionizer).
    """

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        if len(df):
            v_all = df[value_col].to_numpy(dtype=np.float64, na_value=np.nan)
            if np.isnan(v_all).any():
                # null samples dropped (no delta is defined against them)
                df = df[~np.isnan(v_all)].reset_index(drop=True)
        if len(df) == 0:
            return pd.DataFrame(
                {
                    key_col: pd.Series([], dtype=df[key_col].dtype),
                    "bucket_us": pd.Series([], dtype=np.int64),
                    "n_samples": pd.Series([], dtype=np.int64),
                    "increase": pd.Series([], dtype=np.float64),
                }
            )
        codes, uniques = pd.factorize(
            df[key_col], sort=False, use_na_sentinel=False
        )
        us = df[ts_col].to_numpy().astype(np.int64)
        v = df[value_col].to_numpy().astype(np.float64)
        ordv = df[order_col].to_numpy()
        bucket = (us // width_us) * width_us
        order = np.lexsort((ordv, us, bucket, codes))
        cs, bs, vs = codes[order], bucket[order], v[order]
        new = np.empty(len(cs), dtype=bool)
        new[0] = True
        new[1:] = (cs[1:] != cs[:-1]) | (bs[1:] != bs[:-1])
        delta = np.empty(len(vs), dtype=np.float64)
        delta[0] = 0.0
        delta[1:] = vs[1:] - vs[:-1]
        delta[new] = 0.0  # first sample of a (key, bucket) has no prior
        np.maximum(delta, 0.0, out=delta)
        starts = np.flatnonzero(new)
        return pd.DataFrame(
            {
                key_col: uniques[cs[starts]],
                "bucket_us": bs[starts],
                "n_samples": np.diff(np.append(starts, len(cs))).astype(
                    np.int64
                ),
                "increase": np.add.reduceat(delta, starts),
            }
        )

    cols = [key_col, ts_col, value_col, order_col]
    return hash_partitioned_map(
        events.select_columns(cols), [key_col], scan,
        num_partitions=num_partitions, batch_format="pandas",
    )


def ohlc_rollup(
    events: ray.data.Dataset,
    key_col: str,
    ts_col: str,
    value_col: str,
    order_col: str,
    width_us: int,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """events → one row per (key, floor-``width_us`` bucket) with
    ``open_v/high_v/low_v/close_v/cnt/rate_per_s``.

    ``rate_per_s`` = (close - open) * 1e6 / (close_ts - open_ts); null for
    single-timestamp buckets (no elapsed time to divide by).
    """

    def partial(batch: pa.Table) -> pa.Table:
        key_type = batch.schema.field(key_col).type
        v_raw = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = ~np.isnan(v_raw)
        if not ok.all():
            # null values are dropped (SQL MAX/MIN/first_value NULL
            # handling is inconsistent; the operator defines them away)
            batch = batch.filter(pa.array(ok))
            v_raw = v_raw[ok]
        us = batch[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = v_raw
        ordv = batch[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame(
            {
                key_col: batch[key_col].to_pandas(),
                "bucket_us": (us // width_us) * width_us,
                "open_us": us, "open_ord": ordv, "open_v": v,
                "close_us": us, "close_ord": ordv, "close_v": v,
                "high_v": v, "low_v": v,
                "cnt": np.ones(len(us), dtype=np.int64),
            }
        )
        out = _combine(df, key_col)
        # explicit types: an empty batch must not degrade the key column
        # to Arrow null (it would poison the exchange's schema)
        cols = {key_col: pa.Array.from_pandas(out[key_col], type=key_type)}
        for c in ["bucket_us", "open_us", "open_ord", "close_us",
                  "close_ord", "cnt"]:
            cols[c] = pa.array(out[c].to_numpy(dtype=np.int64, copy=False),
                               type=pa.int64())
        for c in ["open_v", "close_v", "high_v", "low_v"]:
            cols[c] = pa.array(out[c].to_numpy(dtype=np.float64, copy=False),
                               type=pa.float64())
        return pa.table(cols)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        out = _combine(df, key_col)
        span_us = out["close_us"].to_numpy() - out["open_us"].to_numpy()
        delta = out["close_v"].to_numpy() - out["open_v"].to_numpy()
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = delta * 1e6 / span_us
        out["rate_per_s"] = np.where(span_us > 0, rate, np.nan)
        out["cnt"] = out["cnt"].astype(np.int64)
        return out[
            [key_col, "bucket_us", "open_v", "high_v", "low_v", "close_v",
             "cnt", "rate_per_s"]
        ]

    partials = events.map_batches(partial, batch_format="pyarrow")
    return hash_partitioned_map(
        partials, [key_col], merge,
        num_partitions=num_partitions, batch_format="pandas",
    )


def _select_m4(df: pd.DataFrame, key_col: str) -> pd.DataFrame:
    """Per (key, bucket_us): the rows at the four lexicographic extremes —
    first = min (ts, value), last = max (ts, value), bottom = min
    (value, ts), top = max (value, ts) — deduplicated. Value ties on a
    shared timestamp resolve by value (not an arbitrary row), so the
    selected POINTS are deterministic under any partitioning. Idempotent:
    re-applying to its own output selects the same rows, which is what
    makes the per-batch partial and the per-partition merge the same
    function."""
    if len(df) == 0:
        return df
    k, _ = pd.factorize(df[key_col], sort=False, use_na_sentinel=False)
    b = df["bucket_us"].to_numpy()
    ts = df["ts_us"].to_numpy()
    v = df["value"].to_numpy()
    o1 = np.lexsort((v, ts, b, k))  # (ts, value) order → first/last
    ks, bs = k[o1], b[o1]
    new = np.empty(len(ks), dtype=bool)
    new[0] = True
    new[1:] = (ks[1:] != ks[:-1]) | (bs[1:] != bs[:-1])
    starts = np.flatnonzero(new)
    ends = np.concatenate([starts[1:], [len(ks)]]) - 1
    # same primary (key, bucket) keys → identical group layout
    o2 = np.lexsort((ts, v, b, k))  # (value, ts) order → bottom/top
    rows = np.concatenate([o1[starts], o1[ends], o2[starts], o2[ends]])
    out = pd.DataFrame(
        {
            key_col: df[key_col].to_numpy()[rows],
            "bucket_us": b[rows],
            "ts_us": ts[rows],
            "value": v[rows],
        }
    )
    return out.drop_duplicates()


def m4_downsample(
    events: ray.data.Dataset,
    key_col: str,
    ts_col: str,
    value_col: str,
    width_us: int,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """M4 visualization downsample (Jugel et al., VLDB 2014): per
    (key, floor-``width_us`` bucket) keep the ACTUAL input points that
    achieve first/last/min-value/max-value — ≤ 4 rows per bucket
    reproduce a line chart pixel-exactly at bucket resolution. Unlike
    :func:`ohlc_rollup` (which aggregates VALUES into one row), the
    output rows are real points ``(key, bucket_us, ts_us, value)``,
    deduplicated when roles coincide.

    Scale shape: the selection is mergeable AND idempotent — each batch
    emits its ≤ 4 candidate points per group, so only ~4 x groups rows
    per batch enter the hash exchange, and the per-partition merge is the
    SAME :func:`_select_m4`. Null values/timestamps are dropped (no point
    to plot)."""

    def partial(batch: pa.Table) -> pa.Table:
        key_type = batch.schema.field(key_col).type
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        us_f = batch[ts_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        ok = ~(np.isnan(v) | np.isnan(us_f))
        if not ok.all():
            batch = batch.filter(pa.array(ok))
            v = v[ok]
        us = batch[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame(
            {
                key_col: batch[key_col].to_pandas(),
                "bucket_us": (us // width_us) * width_us,
                "ts_us": us,
                "value": v,
            }
        )
        out = _select_m4(df, key_col)
        return pa.table(
            {
                key_col: pa.Array.from_pandas(out[key_col], type=key_type),
                "bucket_us": pa.array(
                    out["bucket_us"].to_numpy(dtype=np.int64, copy=False)
                ),
                "ts_us": pa.array(out["ts_us"].to_numpy(dtype=np.int64, copy=False)),
                "value": pa.array(out["value"].to_numpy(dtype=np.float64, copy=False)),
            }
        )

    partials = events.map_batches(partial, batch_format="pyarrow")
    return hash_partitioned_map(
        partials,
        [key_col, "bucket_us"],
        lambda df: _select_m4(df, key_col),
        num_partitions=num_partitions,
        batch_format="pandas",
    )


def _lttb_one(ts: np.ndarray, v: np.ndarray, n_out: int) -> np.ndarray:
    """Scalar-reference LTTB (Steinarsson 2013) over ONE series sorted by
    ts: always keeps the first and last point; splits the interior into
    ``n_out - 2`` equal-count buckets; from each bucket keeps the point
    forming the largest triangle with the PREVIOUSLY selected point and
    the NEXT bucket's centroid. Ties: first (lowest-index) max — the
    deterministic-survivor rule used across the engine. Returns selected
    row indices (ascending)."""
    n = len(ts)
    if n_out >= n or n <= 2:
        return np.arange(n)
    if n_out < 3:
        raise ValueError(f"n_out must be >= 3, got {n_out}")
    # equal-count interior bucket edges (first/last point excluded)
    edges = np.linspace(1, n - 1, n_out - 1).round().astype(np.int64)
    sel = [0]
    a = 0
    for i in range(n_out - 2):
        lo, hi = edges[i], edges[i + 1]
        nlo, nhi = (hi, n - 1) if i == n_out - 3 else (hi, edges[i + 2])
        cx = ts[nlo:nhi].mean() if nhi > nlo else float(ts[n - 1])
        cy = v[nlo:nhi].mean() if nhi > nlo else float(v[n - 1])
        # |(xa - cx)(yb - ya) - (xa - xb)(cy - ya)| / 2 for each candidate b
        xa, ya = float(ts[a]), float(v[a])
        xb, yb = ts[lo:hi].astype(np.float64), v[lo:hi]
        area = np.abs((xa - cx) * (yb - ya) - (xa - xb) * (cy - ya))
        a = lo + int(np.argmax(area))
        sel.append(a)
    sel.append(n - 1)
    return np.asarray(sel, dtype=np.int64)


def lttb_downsample(
    events: ray.data.Dataset,
    key_col: str,
    ts_col: str,
    value_col: str,
    n_out: int,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Largest-Triangle-Three-Buckets downsample to ``n_out`` points per
    key (Steinarsson 2013, the standard line-chart decimation). Output:
    ``(key, ts_us, value)`` — real input points, ordered per key.

    Unlike :func:`m4_downsample`, LTTB is SEQUENTIAL within a key (each
    bucket's pick depends on the previous pick), so there is no per-batch
    partial: all rows of a key co-locate via ONE hash exchange (same
    contract as ``counter_rate``/``sessionize``) and the scan runs per
    key. Keys parallelize across partitions; the per-key loop is over the
    ``n_out`` OUTPUT buckets (vectorized area kernel inside), not input
    rows. Null values/timestamps are dropped. The partitioning assumption
    is per-key series fit in a worker — the operator's point is n_out ≪
    series length, so select per tier/chunk first if a single key's raw
    series exceeds worker memory. The exchange moves UNREDUCED rows, so
    the partition count is floored by the input's byte size
    (``_shuffle.exchange_partitions``) when its plan names it
    (``_shuffle.source_bytes``, which runs nothing)."""
    input_bytes = source_bytes(events)

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        df = df.dropna(subset=[ts_col, value_col])
        if len(df) == 0:
            return pd.DataFrame(
                {
                    key_col: pd.Series([], dtype=df[key_col].dtype if len(df.columns) else object),
                    "ts_us": pd.Series([], dtype=np.int64),
                    "value": pd.Series([], dtype=np.float64),
                }
            )
        codes, uniques = pd.factorize(df[key_col], sort=True, use_na_sentinel=False)
        ts = df[ts_col].to_numpy().astype(np.int64)
        v = df[value_col].to_numpy(dtype=np.float64)
        order = np.lexsort((v, ts, codes))
        codes, ts, v = codes[order], ts[order], v[order]
        bounds = np.flatnonzero(
            np.concatenate(([True], codes[1:] != codes[:-1], [True]))
        )
        keys_out, ts_out, v_out = [], [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            idx = s + _lttb_one(ts[s:e], v[s:e], n_out)
            keys_out.append(np.full(len(idx), codes[s]))
            ts_out.append(ts[idx])
            v_out.append(v[idx])
        return pd.DataFrame(
            {
                key_col: uniques[np.concatenate(keys_out)],
                "ts_us": np.concatenate(ts_out),
                "value": np.concatenate(v_out),
            }
        )

    return hash_partitioned_map(
        events, [key_col], scan,
        num_partitions=num_partitions, batch_format="pandas",
        input_bytes=input_bytes,
    )
