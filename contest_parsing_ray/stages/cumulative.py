"""Cumulative (running) aggregates per key across time buckets.

Reference analog: the cumulative-log join — for every ``(starttime,
servicename)`` the count of logs with ``original_timestamp <= starttime``,
split by level, plus a running DISTINCT EventId count (reference
``Joiner.py:221-267``; the reference computes it with an O(T x S) nested
loop of whole-frame filters, ``Joiner.py:238-252``).

Scale design: per-batch partial counts per (key, bucket) — the same
partial aggregation pattern as rollup — then ONE keyed exchange on the key
(never raw rows), whose partitions sum the partials and take a vectorized
per-key cumsum over the bucket axis with a pandas ``groupby``. Running
distinct counts avoid state entirely: the first-occurrence bucket of each
(key, value) pair is an aggregate (min bucket, one exchange on the pair),
and the running distinct count is the cumsum of first-occurrence counts
per bucket (a second exchange on the key).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..functions.bucketing import bucket_us
from ._shuffle import hash_partitioned_map


class _PartialBucketCount:
    def __init__(self, width_us: int, key_col: str, ts_col: str):
        self.width_us = width_us
        self.key_col = key_col
        self.ts_col = ts_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        key_type = batch.schema.field(self.key_col).type
        ts = batch[self.ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame(
            {
                "key": batch[self.key_col].to_numpy(zero_copy_only=False),
                "bucket_us": bucket_us(ts, self.width_us),
            }
        )
        # dropna=False: a null key is a real group (SQL GROUP BY keeps
        # it); emit with the EXACT input key type — the old astype(str)
        # silently stringified non-string keys
        agg = (df.groupby(["key", "bucket_us"], sort=False, dropna=False)
               .size().reset_index(name="cnt"))
        return pa.table(
            {
                self.key_col: pa.array(
                    agg["key"], type=key_type, from_pandas=True
                ),
                "bucket_us": pa.array(agg["bucket_us"].to_numpy(), type=pa.int64()),
                "cnt": pa.array(agg["cnt"].to_numpy(), type=pa.int64()),
            }
        )


def cumulative_counts(
    ds: ray.data.Dataset,
    width_us: int,
    key_col: str = "source",
    ts_col: str = "event_time_us",
) -> ray.data.Dataset:
    """Per (key, bucket): bucket count + running count of all rows with
    bucket' <= bucket. Output: (key, bucket_us, cnt, running_cnt)."""
    partials = ds.map_batches(
        _PartialBucketCount(width_us, key_col, ts_col), batch_format="pyarrow"
    )

    def running(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby([key_col, "bucket_us"], sort=True, dropna=False)
             ["cnt"].sum().reset_index())
        g["running_cnt"] = (g.groupby(key_col, sort=False, dropna=False)
                            ["cnt"].cumsum().astype(np.int64))
        return g

    return hash_partitioned_map(partials, [key_col], running, batch_format="pandas")


def cumulative_distinct(
    ds: ray.data.Dataset,
    width_us: int,
    key_col: str,
    value_col: str,
    ts_col: str = "event_time_us",
) -> ray.data.Dataset:
    """Running DISTINCT count of ``value_col`` per key across buckets
    (reference: running distinct EventId count, ``Joiner.py:246-252``).

    No per-row state: distinct-until-t == number of (key, value) pairs whose
    FIRST occurrence bucket <= t. first-occurrence is Min(bucket) per
    (key, value) — a standard aggregate — then a tiny per-key cumsum.
    Output: (key, bucket_us, new_distinct, running_distinct).
    """

    class _PartialFirstSeen:
        def __call__(self, batch: pa.Table) -> pa.Table:
            # COUNT(DISTINCT) semantics: null values are not distinct
            # values — filtered at the ARROW level so an int64 value
            # column never float-coerces in null-holding batches (float
            # bits hash differently from int bits, which would split one
            # (key, value) pair across partitions and double-count it)
            vcol = batch[value_col]
            if vcol.null_count:
                batch = batch.filter(vcol.is_valid())
            vtype = batch.schema.field(value_col).type
            ts = batch[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
            df = pd.DataFrame(
                {
                    "key": batch[key_col].to_numpy(zero_copy_only=False),
                    "val": batch[value_col].to_numpy(zero_copy_only=False),
                    "bucket_us": bucket_us(ts, width_us),
                }
            )
            ktype = batch.schema.field(key_col).type
            # dropna=False + exact key type: null keys are a real group,
            # non-string keys keep their type (cf. _PartialBucketCount)
            agg = (df.groupby(["key", "val"], sort=False, dropna=False)
                   ["bucket_us"].min().reset_index())
            return pa.table(
                {
                    key_col: pa.array(agg["key"], type=ktype,
                                      from_pandas=True),
                    value_col: pa.array(agg["val"], type=vtype,
                                        from_pandas=True),
                    "first_bucket": pa.array(agg["bucket_us"].to_numpy(), type=pa.int64()),
                }
            )

    partials = ds.map_batches(_PartialFirstSeen(), batch_format="pyarrow")

    def new_per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # a pair's first bucket is final here: all its partials co-locate
        first = (df.groupby([key_col, value_col], sort=False, dropna=False)
                 ["first_bucket"].min().reset_index())
        return (first.groupby([key_col, "first_bucket"], sort=False,
                              dropna=False)
                .size().reset_index(name="new_distinct"))

    new_counts = hash_partitioned_map(
        partials, [key_col, value_col], new_per_bucket, batch_format="pandas"
    )

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby([key_col, "first_bucket"], sort=True, dropna=False)
             ["new_distinct"].sum().reset_index())
        g["running_distinct"] = (g.groupby(key_col, sort=False, dropna=False)
                                 ["new_distinct"].cumsum().astype(np.int64))
        return g.rename(columns={"first_bucket": "bucket_us"})

    return hash_partitioned_map(new_counts, [key_col], per_key, batch_format="pandas")


def approx_distinct(
    ds: ray.data.Dataset,
    key_col: str,
    value_col: str,
    precision: int = 12,
) -> ray.data.Dataset:
    """Approximate COUNT(DISTINCT value) per key via mergeable HyperLogLog
    partials — the 100 TB path for what :func:`cumulative_distinct`
    computes exactly (its first-occurrence plan shuffles one row per
    (key, value) PAIR; this shuffles one 2^p-byte register blob per
    (key, batch), so the exchange is O(keys), independent of cardinality).
    Output: (key, approx_distinct: int64). Standard error ~1.04/sqrt(2^p).
    """
    from ..state.sketches import HyperLogLog
    from ._shuffle import hash64_column, hash_partitioned_map

    m = 1 << precision

    def partial(batch: pa.Table) -> pa.Table:
        key_type = batch.schema.field(key_col).type
        vals = batch[value_col].combine_chunks()
        if vals.null_count:
            # COUNT(DISTINCT) semantics: null values don't count (and must
            # not alias the empty string through the buffer hash)
            batch = batch.filter(vals.is_valid())
            vals = batch[value_col].combine_chunks()
        keys = batch[key_col].to_pandas()
        h = hash64_column(vals)
        codes, uniques = pd.factorize(keys, sort=False, use_na_sentinel=False)
        regs = np.zeros((len(uniques), m), dtype=np.uint8)
        if len(h):
            idx, rank = HyperLogLog.index_rank(h, precision)
            np.maximum.at(regs, (codes, idx), rank)  # one pass, all keys
        return pa.table(
            {
                key_col: pa.Array.from_pandas(pd.Series(uniques), type=key_type),
                "hll": pa.array([r.tobytes() for r in regs], type=pa.binary()),
            }
        )

    partials = ds.select_columns([key_col, value_col]).map_batches(
        partial, batch_format="pyarrow"
    )

    def merge(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_pandas()
        codes, uniques = pd.factorize(keys, sort=False, use_na_sentinel=False)
        mat = np.stack(
            [np.frombuffer(b, dtype=np.uint8) for b in t["hll"].to_pylist()]
        )
        order = np.argsort(codes, kind="stable")
        starts = np.flatnonzero(
            np.r_[True, codes[order][1:] != codes[order][:-1]]
        )
        # group-wise register max in one reduceat over the sorted matrix
        regs = np.maximum.reduceat(mat[order], starts, axis=0)
        ests = np.array(
            [
                int(round(HyperLogLog(precision, reg=regs[g]).estimate()))
                for g in range(len(starts))
            ],
            dtype=np.int64,
        )
        return pa.table(
            {
                key_col: pa.Array.from_pandas(
                    pd.Series(uniques[codes[order][starts]]),
                    type=t.schema.field(key_col).type,
                ),
                "approx_distinct": pa.array(ests, type=pa.int64()),
            }
        )

    return hash_partitioned_map(partials, [key_col], merge)


def _distinct_user_buckets(
    events: "ray.data.Dataset", user_col: str, ts_col: str, width_us: int
) -> "ray.data.Dataset":
    """Per-batch DISTINCT (user, floor-bucket) pairs, null users dropped
    (COUNT DISTINCT semantics): dictionary-encode + composite
    lexsort-unique — the shared front stage of cohort_retention,
    sliding_distinct and growth_accounting."""

    def distinct_pairs(t: pa.Table) -> pa.Table:
        u = t[user_col].combine_chunks()
        b = (t[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
             // width_us) * width_us
        enc = u.dictionary_encode()
        uid = enc.indices.fill_null(-1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        keep = uid >= 0
        uid, b = uid[keep], b[keep]
        order = np.lexsort((b, uid))
        us, bs = uid[order], b[order]
        new = np.ones(len(us), dtype=bool)
        new[1:] = (us[1:] != us[:-1]) | (bs[1:] != bs[:-1])
        return pa.table({
            user_col: enc.dictionary.take(pa.array(us[new], pa.int64())),
            "bucket_us": pa.array(bs[new], pa.int64()),
        })

    return events.select_columns([user_col, ts_col]).map_batches(
        distinct_pairs, batch_format="pyarrow"
    )


def _present_bucket_grid(
    events: "ray.data.Dataset", ts_col: str, width_us: int
) -> "set[int]":
    """Distinct present floor-buckets of the event stream (tiny driver
    set) — the output grid shared by sliding_distinct and
    growth_accounting."""

    def grid_partial(t: pa.Table) -> pa.Table:
        b = (t[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
             // width_us) * width_us
        return pa.table({"bucket_us": pa.array(np.unique(b))})

    grid: set[int] = set()
    for rb in events.select_columns([ts_col]).map_batches(
        grid_partial, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        t = pa.Table.from_batches([rb]) if isinstance(rb, pa.RecordBatch) else rb
        grid.update(t["bucket_us"].to_pylist())
    return grid


def cohort_retention(
    events: "ray.data.Dataset",
    user_col: str,
    ts_col: str,
    width_us: int,
    num_partitions: int | None = None,
):
    """Cohort retention matrix: users grouped by their FIRST-seen period
    (floor bucket of ``width_us``), counted distinct in every period
    they're active → ``(cohort_us, bucket_us, n_users)``.

    Scale shape: each batch first collapses to its DISTINCT (user, bucket)
    pairs (dictionary-encode + composite-code unique — rows out ∝ distinct
    pairs, not events); ONE user-hash exchange then co-locates each user,
    whose cohort (min bucket) and active set are computed locally; the
    partials leaving that stage are (cohort, bucket, count) rows bounded
    by periods² per partition, folded by a tiny driver sum. The user
    dimension — the unbounded one — never appears in any global structure.
    Null users are dropped (they are not a trackable cohort member).
    """
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ._shuffle import hash_partitioned_map

    pairs = _distinct_user_buckets(events, user_col, ts_col, width_us)

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({
                "cohort_us": pd.Series([], dtype=np.int64),
                "bucket_us": pd.Series([], dtype=np.int64),
                "n_users": pd.Series([], dtype=np.int64),
            })
        # batches from different blocks may repeat a (user, bucket) pair —
        # dedup again now that the user is fully co-located
        df = df.drop_duplicates([user_col, "bucket_us"])
        cohort = df.groupby(user_col, sort=False)["bucket_us"].transform(
            "min")
        out = (
            pd.DataFrame({"cohort_us": cohort, "bucket_us": df["bucket_us"]})
            .groupby(["cohort_us", "bucket_us"], sort=False)
            .size()
            .rename("n_users")
            .reset_index()
        )
        out["n_users"] = out["n_users"].astype(np.int64)
        return out

    parts = hash_partitioned_map(
        pairs, [user_col], per_user,
        num_partitions=num_partitions, batch_format="pandas",
    )

    acc: dict[tuple[int, int], int] = {}
    for rb in parts.iter_batches(batch_format="pandas"):
        for c, bkt, n in zip(rb["cohort_us"], rb["bucket_us"], rb["n_users"]):
            acc[(int(c), int(bkt))] = acc.get((int(c), int(bkt)), 0) + int(n)
    ks = sorted(acc)
    return pa.table({
        "cohort_us": pa.array([k[0] for k in ks], pa.int64()),
        "bucket_us": pa.array([k[1] for k in ks], pa.int64()),
        "n_users": pa.array([acc[k] for k in ks], pa.int64()),
    })


def sliding_distinct(
    events: "ray.data.Dataset",
    user_col: str,
    ts_col: str,
    width_us: int,
    window_buckets: int,
    num_partitions: int | None = None,
):
    """EXACT distinct entities active in the trailing ``window_buckets``
    periods of each present bucket → ``(bucket_us, n_active)`` — the
    sliding-window COUNT(DISTINCT) SQL has no window form of.

    No per-window distinct is ever computed: a user active in bucket b
    covers windows [b, b + (window-1)·W]; merging each user's coverage
    intervals (the gaps-and-islands sweep, vectorized across users) turns
    the whole problem into ±1 boundary deltas — at most 2 rows per island
    leave a partition. The driver prefix-sums the deltas and reads the
    count off at every present bucket. User dimension stays co-located;
    driver state is O(distinct buckets). Null users dropped.
    """
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ._shuffle import hash_partitioned_map

    span = window_buckets * width_us

    pairs = _distinct_user_buckets(events, user_col, ts_col, width_us)

    def deltas(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({
                "pos_us": pd.Series([], dtype=np.int64),
                "delta": pd.Series([], dtype=np.int64),
            })
        df = df.drop_duplicates([user_col, "bucket_us"])
        codes, _ = pd.factorize(df[user_col], sort=False,
                                use_na_sentinel=False)
        s = df["bucket_us"].to_numpy(np.int64)
        e = s + span  # exclusive end of the covered window range
        order = np.lexsort((s, codes))
        cs, ss, es = codes[order], s[order], e[order]
        cummax = pd.Series(es).groupby(cs).cummax().to_numpy()
        prev = pd.Series(cummax).groupby(cs).shift(1).to_numpy()
        brk = np.isnan(prev) | (ss > prev)
        starts_idx = np.flatnonzero(brk)
        end_idx = np.append(starts_idx[1:], len(cs)) - 1
        pos = np.concatenate([ss[starts_idx], cummax[end_idx]])
        dlt = np.concatenate([
            np.ones(len(starts_idx), dtype=np.int64),
            -np.ones(len(starts_idx), dtype=np.int64),
        ])
        out = (pd.DataFrame({"pos_us": pos.astype(np.int64), "delta": dlt})
               .groupby("pos_us", sort=False)["delta"].sum().reset_index())
        return out

    parts = hash_partitioned_map(
        pairs, [user_col], deltas,
        num_partitions=num_partitions, batch_format="pandas",
    )

    # grid of present buckets: tiny per-batch unique partials
    grid = _present_bucket_grid(events, ts_col, width_us)

    acc: dict[int, int] = {}
    for rb in parts.iter_batches(batch_format="pandas"):
        for p, d in zip(rb["pos_us"], rb["delta"]):
            acc[int(p)] = acc.get(int(p), 0) + int(d)
    pos = np.array(sorted(acc), dtype=np.int64)
    run = np.cumsum([acc[int(p)] for p in pos]) if len(pos) else np.array([])
    gb = np.array(sorted(grid), dtype=np.int64)
    # count at bucket b = running sum after all deltas with pos <= b
    idx = np.searchsorted(pos, gb, side="right") - 1
    counts = np.where(idx >= 0, run[np.maximum(idx, 0)], 0) if len(pos) else (
        np.zeros(len(gb)))
    return pa.table({
        "bucket_us": pa.array(gb, pa.int64()),
        "n_active": pa.array(counts.astype(np.int64), pa.int64()),
    })


def growth_accounting(
    events: "ray.data.Dataset",
    user_col: str,
    ts_col: str,
    width_us: int,
    num_partitions: int | None = None,
):
    """Growth accounting per period: every present bucket decomposed into
    ``n_new`` (first-ever activity), ``n_retained`` (also active in the
    immediately previous bucket), ``n_resurrected`` (active before, but
    not in the previous bucket) and ``n_churned`` (active in the previous
    bucket, absent now) → ``(bucket_us, n_new, n_retained, n_resurrected,
    n_churned)``. n_active = new + retained + resurrected. Churn is
    attributed to the bucket where the user is MISSING; buckets where
    nobody at all is active don't exist in the output (present-bucket
    grid, same convention as sliding_distinct). Null users dropped.

    Per-batch DISTINCT (user, bucket) collapse, ONE user exchange, then a
    vectorized per-user transition classification (diff of the sorted
    bucket list) emitting 4 counters per (bucket, partition) — the user
    dimension never leaves its partition.
    """
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ._shuffle import hash_partitioned_map

    pairs = _distinct_user_buckets(events, user_col, ts_col, width_us)

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["bucket_us", "n_new", "n_retained", "n_resurrected",
                "n_churned"]
        if len(df) == 0:
            return pd.DataFrame({c: pd.Series([], dtype=np.int64)
                                 for c in cols})
        df = df.drop_duplicates([user_col, "bucket_us"])
        codes, _ = pd.factorize(df[user_col], sort=False,
                                use_na_sentinel=False)
        b = df["bucket_us"].to_numpy(np.int64)
        order = np.lexsort((b, codes))
        cs, bs = codes[order], b[order]
        first = np.ones(len(cs), dtype=bool)
        first[1:] = cs[1:] != cs[:-1]
        prev_b = np.empty(len(bs), dtype=np.int64)
        prev_b[1:] = bs[:-1]
        is_new = first
        is_retained = ~first & (bs - prev_b == width_us)
        is_resur = ~first & (bs - prev_b > width_us)
        acc: dict[int, np.ndarray] = {}

        def bump(buckets, col):
            for bk, n in zip(*np.unique(buckets, return_counts=True)):
                row = acc.setdefault(int(bk), np.zeros(4, dtype=np.int64))
                row[col] += int(n)

        bump(bs[is_new], 0)
        bump(bs[is_retained], 1)
        bump(bs[is_resur], 2)
        # churn: for every activity bucket, the user is absent at b+W
        # unless their NEXT activity bucket is exactly b+W
        nxt = np.empty(len(bs), dtype=np.int64)
        nxt[:-1] = bs[1:]
        last = np.zeros(len(cs), dtype=bool)
        last[:-1] = cs[1:] != cs[:-1]
        last[-1] = True
        churn_here = last | (nxt - bs > width_us)
        bump(bs[churn_here] + width_us, 3)
        ks = sorted(acc)
        return pd.DataFrame({
            "bucket_us": np.array(ks, dtype=np.int64),
            "n_new": [acc[k][0] for k in ks],
            "n_retained": [acc[k][1] for k in ks],
            "n_resurrected": [acc[k][2] for k in ks],
            "n_churned": [acc[k][3] for k in ks],
        }).astype({c: np.int64 for c in cols[1:]})

    parts = hash_partitioned_map(
        pairs, [user_col], classify,
        num_partitions=num_partitions, batch_format="pandas",
    )

    # present-bucket grid (same streaming partial as sliding_distinct)
    grid = _present_bucket_grid(events, ts_col, width_us)

    acc: dict[int, np.ndarray] = {}
    for rb in parts.iter_batches(batch_format="pandas"):
        for r in rb.itertuples(index=False):
            row = acc.setdefault(int(r.bucket_us), np.zeros(4, np.int64))
            row += np.array([r.n_new, r.n_retained, r.n_resurrected,
                             r.n_churned], dtype=np.int64)
    gb = sorted(grid)
    cols = np.array([acc.get(k, np.zeros(4, np.int64)) for k in gb],
                    dtype=np.int64).reshape(len(gb), 4)
    return pa.table({
        "bucket_us": pa.array(np.array(gb, np.int64)),
        "n_new": pa.array(cols[:, 0]),
        "n_retained": pa.array(cols[:, 1]),
        "n_resurrected": pa.array(cols[:, 2]),
        "n_churned": pa.array(cols[:, 3]),
    })


def funnel(
    events: "ray.data.Dataset",
    user_col: str,
    ts_col: str,
    type_col: str,
    steps: list[str],
    num_partitions: int | None = None,
):
    """Ordered funnel conversion: for each prefix of ``steps``, how many
    users performed them IN ORDER (step k strictly after their earliest
    completion of step k-1; first occurrence greedily chosen, the standard
    funnel semantics) → ``(step, event_type, n_users)``.

    One user exchange; inside a partition each step is a filtered grouped
    min joined against the previous step's per-user threshold — vectorized
    across users, loop only over the (few) steps. Each partition emits one
    count per step; the driver sums. Null users dropped.
    """
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ._shuffle import hash_partitioned_map

    if not steps:
        raise ValueError("steps must be non-empty")

    def count_steps(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df[user_col].notna()]
        counts = []
        thresh = None  # pd.Series: user -> completion time of prev step
        for k, s in enumerate(steps):
            sub = df[df[type_col] == s]
            if thresh is not None:
                t = sub[user_col].map(thresh)
                sub = sub[t.notna() & (sub[ts_col] > t)]
            if len(sub) == 0:
                counts.extend([0] * (len(steps) - k))
                break
            thresh = sub.groupby(user_col, sort=False)[ts_col].min()
            counts.append(len(thresh))
        return pd.DataFrame({
            "step": np.arange(1, len(steps) + 1, dtype=np.int64),
            "n_users": np.array(counts, dtype=np.int64),
        })

    cols = [user_col, ts_col, type_col]
    parts = hash_partitioned_map(
        events.select_columns(cols), [user_col], count_steps,
        num_partitions=num_partitions, batch_format="pandas",
    )
    totals = np.zeros(len(steps), dtype=np.int64)
    for rb in parts.iter_batches(batch_format="pandas"):
        for st, n in zip(rb["step"], rb["n_users"]):
            totals[int(st) - 1] += int(n)
    return pa.table({
        "step": pa.array(np.arange(1, len(steps) + 1, dtype=np.int64)),
        "event_type": pa.array(list(steps), pa.string()),
        "n_users": pa.array(totals),
    })


def transition_matrix(
    events: "ray.data.Dataset",
    user_col: str,
    ts_col: str,
    type_col: str,
    order_col: str,
    num_partitions: int | None = None,
):
    """First-order Markov transition counts between consecutive events of
    the same user (ordered by ``(ts, order_col)``) → ``(from_type,
    to_type, cnt, p)`` with ``p`` the row-normalized probability (SQL:
    LAG + group count / window sum). Null users dropped; a null type is
    its own state only if present (matches SQL grouping on the LAG pair
    where both grouping keys may be NULL — events data has none).

    One user exchange of 4 projected columns; the pair extraction is a
    lexsort + shift inside each partition, and only (from, to, cnt)
    partials — bounded by types² — leave it.
    """
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ._shuffle import hash_partitioned_map

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df[user_col].notna()]
        if len(df) < 2:
            return pd.DataFrame({
                "from_type": pd.Series([], dtype=object),
                "to_type": pd.Series([], dtype=object),
                "cnt": pd.Series([], dtype=np.int64),
            })
        codes, _ = pd.factorize(df[user_col], sort=False)
        ts = df[ts_col].to_numpy(np.int64)
        ordv = df[order_col].to_numpy()
        order = np.lexsort((ordv, ts, codes))
        cs = codes[order]
        tp = df[type_col].to_numpy()[order]
        same = cs[1:] == cs[:-1]
        out = (pd.DataFrame({"from_type": tp[:-1][same],
                             "to_type": tp[1:][same]})
               .groupby(["from_type", "to_type"], sort=False, dropna=False)
               .size().rename("cnt").reset_index())
        out["cnt"] = out["cnt"].astype(np.int64)
        return out

    cols = [user_col, ts_col, type_col, order_col]
    parts = hash_partitioned_map(
        events.select_columns(cols), [user_col], pairs,
        num_partitions=num_partitions, batch_format="pandas",
    )
    def _norm(x):
        # pandas emits NaN for a null state in an object column; a null
        # type is its own state (docstring contract) — normalize to None
        # so the fold keys stay hashable/equal and Arrow-convertible
        return None if x is None or (isinstance(x, float) and x != x) else x

    acc: dict[tuple, int] = {}
    for rb in parts.iter_batches(batch_format="pandas"):
        for f, t_, c in zip(rb["from_type"], rb["to_type"], rb["cnt"]):
            acc[(_norm(f), _norm(t_))] = acc.get((_norm(f), _norm(t_)), 0) + int(c)
    row_tot: dict[object, int] = {}
    for (f, _), c in acc.items():
        row_tot[f] = row_tot.get(f, 0) + c
    ks = sorted(acc, key=lambda k: ((k[0] is None, k[0] or ""),
                                    (k[1] is None, k[1] or "")))
    return pa.table({
        "from_type": pa.array([k[0] for k in ks], pa.string()),
        "to_type": pa.array([k[1] for k in ks], pa.string()),
        "cnt": pa.array([acc[k] for k in ks], pa.int64()),
        "p": pa.array([acc[k] / row_tot[k[0]] for k in ks], pa.float64()),
    })


def conversion_lag_stats(
    events: "ray.data.Dataset",
    user_col: str,
    ts_col: str,
    type_col: str,
    from_type: str,
    to_type: str,
    qs: tuple = (0.5, 0.95),
    num_partitions: int | None = None,
):
    """Time-to-convert distribution: per user, the lag from the FIRST
    ``from_type`` event to the first ``to_type`` event strictly after it
    (funnel step semantics); lags reduced to ``(n_converted, mean_lag_us,
    q<q>_lag_us ...)`` — one summary row. quantile_disc semantics; mean is
    ONE double division of the exact int64 lag sum.

    One user exchange; thresholds and lags are grouped mins in-partition;
    each partition ships its raw lags (<= its user count, already a
    reduction of events) and the driver selects the exact quantiles —
    users converge to one scalar each, so the collect is entity-bounded.
    For unbounded entity counts switch the final selection to
    ``stages.quantiles.exact_quantiles`` over the lag Dataset.
    """
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ._shuffle import hash_partitioned_map

    def lags(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df[user_col].notna()]
        a = df[df[type_col] == from_type]
        if len(a) == 0:
            return pd.DataFrame({"lag": pd.Series([], dtype=np.int64)})
        t1 = a.groupby(user_col, sort=False)[ts_col].min()
        b = df[df[type_col] == to_type]
        tb = b[user_col].map(t1)
        b = b[tb.notna() & (b[ts_col] > tb)]
        if len(b) == 0:
            return pd.DataFrame({"lag": pd.Series([], dtype=np.int64)})
        t2 = b.groupby(user_col, sort=False)[ts_col].min()
        lag = (t2 - t1.reindex(t2.index)).astype(np.int64)
        return pd.DataFrame({"lag": lag.to_numpy()})

    cols = [user_col, ts_col, type_col]
    parts = hash_partitioned_map(
        events.select_columns(cols), [user_col], lags,
        num_partitions=num_partitions, batch_format="pandas",
    )
    all_lags = []
    for rb in parts.iter_batches(batch_format="pandas"):
        if len(rb):
            all_lags.append(rb["lag"].to_numpy(np.int64))
    lag = (np.concatenate(all_lags) if all_lags
           else np.array([], dtype=np.int64))
    n = len(lag)
    cols_out = {"n_converted": pa.array([n], pa.int64()),
                "mean_lag_us": pa.array(
                    [int(lag.sum()) / n if n else None], pa.float64())}
    for q in qs:
        name = f"q{int(round(q * 100))}_lag_us"
        if n:
            # ceil(q*n)-1 with the 1e-9 float-product guard (see
            # window.rolling_quantile)
            j = max(0, int(np.ceil(q * n - 1e-9)) - 1)
            cols_out[name] = pa.array(
                [float(np.partition(lag, j)[j])], pa.float64())
        else:
            cols_out[name] = pa.array([None], pa.float64())
    return pa.table(cols_out)
