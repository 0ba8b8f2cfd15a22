"""Distributed fixed-bin value histogram per key.

The scale shape every monitoring/training-data pipeline needs for value
distributions (latency buckets, token-length spreads): per-batch
``bincount`` partials collapse each batch to at most ``n_keys × n_bins``
tiny rows BEFORE the exchange, so the keyed exchange moves O(bins), never
O(rows) — the same partial-before-shuffle rule as ``stages/rollup.py``.
Reference analog: the per-bucket aggregates of ``Joiner.py:345-354``,
generalized from point stats to a distribution.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ._shuffle import hash_partitioned_map


def value_histogram(
    events: ray.data.Dataset,
    key_col: str,
    value_col: str,
    lo: float,
    hi: float,
    n_bins: int,
) -> ray.data.Dataset:
    """events → ``(key, bin, cnt)`` with ``bin = clip(floor((v - lo) *
    n_bins / (hi - lo)), 0, n_bins - 1)`` (out-of-range values land in the
    edge bins; empty bins are omitted). Nulls are dropped."""
    if not (hi > lo and n_bins > 0):
        raise ValueError(f"need hi > lo and n_bins > 0, got [{lo}, {hi}) x {n_bins}")

    def partial(batch: pa.Table) -> pa.Table:
        key_type = batch.schema.field(key_col).type
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        keys = batch[key_col].to_pandas()
        ok = ~np.isnan(v)
        if not ok.all():
            v, keys = v[ok], keys[ok].reset_index(drop=True)
        # op order matches SQL `FLOOR((v - lo) * n_bins / (hi - lo))` so
        # boundary values bin identically under an exact-compare oracle;
        # clip BEFORE the int cast — a float large enough to overflow
        # int64 would otherwise wrap to INT64_MIN and land in bin 0
        b = np.clip(
            np.floor((v - lo) * float(n_bins) / (hi - lo)), 0, n_bins - 1
        ).astype(np.int64)
        # null keys form their own group (SQL GROUP BY NULL), never the
        # -1 sentinel (negative codes would crash bincount)
        codes, uniques = pd.factorize(keys, sort=False, use_na_sentinel=False)
        flat = codes * n_bins + b
        cnt = np.bincount(flat, minlength=len(uniques) * n_bins)
        nz = np.flatnonzero(cnt)
        # explicit key type: empty batches must not emit a null-typed key
        return pa.table(
            {
                key_col: pa.Array.from_pandas(
                    pd.Series(uniques[nz // n_bins]), type=key_type
                ),
                "bin": pa.array((nz % n_bins).astype(np.int64), type=pa.int64()),
                "cnt": pa.array(cnt[nz].astype(np.int64), type=pa.int64()),
            }
        )

    partials = events.select_columns([key_col, value_col]).map_batches(
        partial, batch_format="pyarrow"
    )

    def merge(t: pa.Table) -> pa.Table:
        out = t.group_by([key_col, "bin"], use_threads=False).aggregate(
            [("cnt", "sum")]
        )
        return out.select([key_col, "bin", "cnt_sum"]).rename_columns(
            [key_col, "bin", "cnt"]
        )

    return hash_partitioned_map(partials, [key_col, "bin"], merge)


def value_drift_psi(
    events: ray.data.Dataset,
    key_col: str,
    ts_col: str,
    value_col: str,
    lo: float,
    hi: float,
    split_us: int,
    n_bins: int = 20,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Population Stability Index per key between two time periods →
    ``(key, n_a, n_b, psi)`` — the distribution-drift alarm a training-data
    pipeline runs per source/metric (PSI > 0.2 is the conventional
    "shifted" threshold). Period a = rows with ``ts < split_us``, period
    b = the rest; bins are the same fixed grid as :func:`value_histogram`
    (``clip(floor((v - lo) * n_bins / (hi - lo)), 0, n_bins - 1)``).

    PSI = Σ_bins (p - q) · ln(p / q) with add-half (Jeffreys) smoothing —
    ``p = (cnt + 0.5) / (n + n_bins/2)`` — over bins occupied in at least
    one period. Smoothing keeps the statistic finite when supports are
    DISJOINT (a truncated both-occupied convention reads a total
    distribution move as PSI 0 — the one drift it must not miss) and the
    expression stays exactly SQL-computable (no hidden epsilon constant
    mismatch). Keys with either period empty report 0 (nothing to
    compare).

    Scale shape: per-batch composite-code bincount partials — at most
    ``keys x 2 x n_bins`` rows leave a batch — then ONE key exchange; the
    driver passes ``lo/hi/split_us`` in (compute them with one
    ``Dataset.aggregate`` pass), so the operator itself is one pass +
    one tiny exchange. Nulls are dropped."""
    if not (hi > lo and n_bins > 0):
        raise ValueError(f"need hi > lo and n_bins > 0, got [{lo}, {hi}) x {n_bins}")

    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        key_type = batch.schema.field(key_col).type
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ts = batch[ts_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        ok = ~(np.isnan(v) | np.isnan(ts))
        if not ok.all():
            batch = batch.filter(pa.array(ok))
            v, ts = v[ok], ts[ok]
        empty = pa.table(
            {
                key_col: batch[key_col].combine_chunks().slice(0, 0),
                "period": pa.array([], pa.int64()),
                "bin": pa.array([], pa.int64()),
                "cnt": pa.array([], pa.int64()),
            }
        )
        if len(v) == 0:
            return empty
        # EXACT fp-expression parity with the SQL oracle (and with
        # value_histogram): (v - lo) * n THEN / (hi - lo) — a re-associated
        # form could bin boundary values differently; clip BEFORE the int
        # cast (as value_histogram does) — a float large enough to overflow
        # int64 (incl. +inf) would otherwise wrap and land in bin 0
        bins = np.clip(
            np.floor((v - lo) * n_bins / (hi - lo)), 0, n_bins - 1
        ).astype(np.int64)
        period = (ts >= split_us).astype(np.int64)
        kcol = batch[key_col].combine_chunks()
        if kcol.null_count:
            # null dictionary indices round-trip through numpy as NaN and
            # would silently corrupt the composite group codes
            raise ValueError(
                f"null values in key column {key_col!r}; fill or drop them first"
            )
        enc = pc.dictionary_encode(kcol)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        kc = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        comp = (kc * 2 + period) * n_bins + bins
        uniq, cnts = np.unique(comp, return_counts=True)
        return pa.table(
            {
                key_col: enc.dictionary.take(
                    pa.array(uniq // (2 * n_bins))
                ).cast(key_type),
                "period": pa.array((uniq // n_bins) % 2),
                "bin": pa.array(uniq % n_bins),
                "cnt": pa.array(cnts.astype(np.int64)),
            }
        )

    partials = events.select_columns([key_col, ts_col, value_col]).map_batches(
        partial, batch_format="pyarrow"
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    key_col: pd.Series(dtype=object),
                    "n_a": pd.Series(dtype=np.int64),
                    "n_b": pd.Series(dtype=np.int64),
                    "psi": pd.Series(dtype=np.float64),
                }
            )
        m = (
            df.groupby([key_col, "period", "bin"], sort=True, dropna=False)["cnt"]
            .sum()
            .unstack("period")
            .reindex(columns=[0, 1])
            .fillna(0)
        )
        rows = []
        for k, g in m.groupby(level=0, sort=True):
            ca = g[0].to_numpy(dtype=np.float64)
            cb = g[1].to_numpy(dtype=np.float64)
            na, nb = ca.sum(), cb.sum()
            if na > 0 and nb > 0:
                # grouped rows only exist for occupied bins, so the
                # "occupied in at least one period" mask is implicit
                p = (ca + 0.5) / (na + n_bins * 0.5)
                q = (cb + 0.5) / (nb + n_bins * 0.5)
                psi = float(((p - q) * np.log(p / q)).sum())
            else:
                psi = 0.0
            rows.append((k, int(na), int(nb), psi))
        return pd.DataFrame(rows, columns=[key_col, "n_a", "n_b", "psi"])

    return hash_partitioned_map(
        partials, [key_col], finish,
        num_partitions=num_partitions, batch_format="pandas",
    )


def key_mix_entropy(
    ds: "ray.data.Dataset",
    entity_col: str,
    cat_col: str,
    num_partitions: int | None = None,
):
    """Per-entity Shannon entropy (natural log) of its category mix —
    e.g. how diverse each user's event types are (an engagement-diversity
    feature). → ``(entity, n_events, n_cats, entropy)``; single-category
    entities get exactly 0.0; null entities/categories are dropped.

    Scale shape: each batch collapses to (entity, cat, cnt) partials via
    one composite-code bincount (rows out ∝ distinct pairs in the batch,
    never events); ONE entity-hash exchange; the per-entity reduction is
    H = ln(N) - Σ c·ln(c) / N over grouped sums — all C-level. The
    unbounded entity dimension stays inside its partition.
    """
    import numpy as np
    import pandas as pd
    import pyarrow as pa


    def partial(t: pa.Table) -> pa.Table:
        e = t[entity_col].combine_chunks().dictionary_encode()
        c = t[cat_col].combine_chunks().dictionary_encode()
        ei = e.indices.fill_null(-1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        ci = c.indices.fill_null(-1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        keep = (ei >= 0) & (ci >= 0)
        ei, ci = ei[keep], ci[keep]
        k = len(c.dictionary)
        if not len(ei) or k == 0:
            return pa.table({
                entity_col: pa.array([], e.dictionary.type),
                cat_col: pa.array([], c.dictionary.type),
                "cnt": pa.array([], pa.int64()),
            })
        comp = ei * k + ci
        cnt = np.bincount(comp)
        nz = np.flatnonzero(cnt)
        return pa.table({
            entity_col: e.dictionary.take(pa.array(nz // k, pa.int64())),
            cat_col: c.dictionary.take(pa.array(nz % k, pa.int64())),
            "cnt": pa.array(cnt[nz].astype(np.int64)),
        })

    pairs = ds.select_columns([entity_col, cat_col]).map_batches(
        partial, batch_format="pyarrow"
    )

    def reduce(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({
                entity_col: pd.Series([], dtype=object),
                "n_events": pd.Series([], dtype=np.int64),
                "n_cats": pd.Series([], dtype=np.int64),
                "entropy": pd.Series([], dtype=np.float64),
            })
        g = (df.groupby([entity_col, cat_col], sort=False)["cnt"].sum()
             .reset_index())
        c = g["cnt"].to_numpy(np.float64)
        g["clnc"] = c * np.log(c)
        agg = g.groupby(entity_col, sort=False).agg(
            n_events=("cnt", "sum"), n_cats=("cnt", "size"),
            clnc=("clnc", "sum"),
        ).reset_index()
        n = agg["n_events"].to_numpy(np.float64)
        h = np.log(n) - agg["clnc"].to_numpy(np.float64) / n
        # single-category entities: exactly 0, not ln-rounding dust
        h[agg["n_cats"].to_numpy() == 1] = 0.0
        agg["entropy"] = np.maximum(h, 0.0)
        agg["n_events"] = agg["n_events"].astype(np.int64)
        agg["n_cats"] = agg["n_cats"].astype(np.int64)
        return agg[[entity_col, "n_events", "n_cats", "entropy"]]

    return hash_partitioned_map(
        pairs, [entity_col], reduce,
        num_partitions=num_partitions, batch_format="pandas",
    )


def profile_columns(
    ds: "ray.data.Dataset",
    columns: list[str] | None = None,
    batch_size: int = 262_144,
):
    """Data-quality profile: one row per column — ``(column, n, n_null,
    min_v, max_v)``, min/max as float64 for numeric/temporal columns and
    NULL for strings/binary/lists (counts still reported). The audit that
    gates an ingest: mergeable per-batch partials (a handful of scalars
    per column per batch), driver fold, ONE streaming pass over only the
    requested columns.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        cols, ns, nulls, mns, mxs = [], [], [], [], []
        for name in t.column_names:
            c = t[name]
            cols.append(name)
            ns.append(len(c))
            nulls.append(c.null_count)
            ty = c.type
            numeric = (pa.types.is_integer(ty) or pa.types.is_floating(ty)
                       or pa.types.is_timestamp(ty))
            if numeric and len(c) > c.null_count:
                cc = c.cast(pa.int64()) if pa.types.is_timestamp(ty) else c
                mm = pc.min_max(cc)
                mns.append(float(mm["min"].cast(pa.float64()).as_py()))
                mxs.append(float(mm["max"].cast(pa.float64()).as_py()))
            else:
                mns.append(None)
                mxs.append(None)
        return pa.table({
            "column": pa.array(cols, pa.string()),
            "n": pa.array(ns, pa.int64()),
            "n_null": pa.array(nulls, pa.int64()),
            "min_v": pa.array(mns, pa.float64()),
            "max_v": pa.array(mxs, pa.float64()),
        })

    if columns:
        ds = ds.select_columns(columns)
    acc: dict[str, list] = {}
    for rb in ds.map_batches(
        partial, batch_format="pyarrow", batch_size=batch_size
    ).iter_batches(batch_format="pyarrow"):
        t = pa.Table.from_batches([rb]) if isinstance(rb, pa.RecordBatch) else rb
        for name, n, nn, mn, mx in zip(
            t["column"].to_pylist(), t["n"].to_pylist(),
            t["n_null"].to_pylist(), t["min_v"].to_pylist(),
            t["max_v"].to_pylist(),
        ):
            row = acc.setdefault(name, [0, 0, None, None])
            row[0] += n
            row[1] += nn
            if mn is not None:
                row[2] = mn if row[2] is None else min(row[2], mn)
            if mx is not None:
                row[3] = mx if row[3] is None else max(row[3], mx)
    ks = sorted(acc)
    return pa.table({
        "column": pa.array(ks, pa.string()),
        "n": pa.array([acc[k][0] for k in ks], pa.int64()),
        "n_null": pa.array([acc[k][1] for k in ks], pa.int64()),
        "min_v": pa.array([acc[k][2] for k in ks], pa.float64()),
        "max_v": pa.array([acc[k][3] for k in ks], pa.float64()),
    })


def activity_gini(
    ds: "ray.data.Dataset",
    bucket_col_src: str,
    entity_col: str,
    width_us: int,
    num_partitions: int | None = None,
):
    """Traffic-concentration Gini coefficient per period: how unequally a
    bucket's events are spread across entities (0 = uniform, →1 = one
    entity dominates) → ``(bucket_us, n_entities, gini)`` via the sorted
    closed form ``G = 2·Σ(i·x_i)/(n·Σx) − (n+1)/n`` (rank-tie invariant:
    equal counts contribute the same Σi·x under any tie order). Null
    entities dropped.

    Per-batch (bucket, entity, cnt) composite-code bincount partials, ONE
    exchange on the BUCKET (all of a bucket's entity counts meet in one
    partition, where same-pair partials merge by sum), vectorized
    per-bucket sort + dot product.
    """
    import numpy as np
    import pandas as pd
    import pyarrow as pa


    def partial(t: pa.Table) -> pa.Table:
        e = t[entity_col].combine_chunks().dictionary_encode()
        ei = e.indices.fill_null(-1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        b = (t[bucket_col_src].to_numpy(zero_copy_only=False)
             .astype(np.int64) // width_us) * width_us
        keep = ei >= 0
        ei, b = ei[keep], b[keep]
        if not len(ei):
            return pa.table({"bucket_us": pa.array([], pa.int64()),
                             entity_col: pa.array([], e.dictionary.type),
                             "cnt": pa.array([], pa.int64())})
        bcodes, buniq = pd.factorize(b, sort=False)
        k = len(e.dictionary)
        comp = bcodes * k + ei
        cnt = np.bincount(comp)
        nz = np.flatnonzero(cnt)
        return pa.table({
            "bucket_us": pa.array(buniq[nz // k].astype(np.int64)),
            entity_col: e.dictionary.take(pa.array(nz % k, pa.int64())),
            "cnt": pa.array(cnt[nz].astype(np.int64)),
        })

    pairs = ds.select_columns([bucket_col_src, entity_col]).map_batches(
        partial, batch_format="pyarrow"
    )

    def gini(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({
                "bucket_us": pd.Series([], dtype=np.int64),
                "n_entities": pd.Series([], dtype=np.int64),
                "gini": pd.Series([], dtype=np.float64),
            })
        g = (df.groupby(["bucket_us", entity_col], sort=False)["cnt"].sum()
             .reset_index())
        rows = []
        for bk, sub in g.groupby("bucket_us", sort=False):
            x = np.sort(sub["cnt"].to_numpy(np.float64))
            n = len(x)
            i = np.arange(1, n + 1, dtype=np.float64)
            gval = 2.0 * float(i @ x) / (n * float(x.sum())) - (n + 1.0) / n
            rows.append((int(bk), n, gval))
        return pd.DataFrame(rows,
                            columns=["bucket_us", "n_entities", "gini"])

    return hash_partitioned_map(
        pairs, ["bucket_us"], gini,
        num_partitions=num_partitions, batch_format="pandas",
    )
