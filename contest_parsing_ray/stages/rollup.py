"""Two-phase (partial + final) rollup into retention tiers.

Reference analog: the per-``(pod, measure_time)`` / per-bucket aggregates —
system-wide per-bucket means (``Joiner.py:313-357``), per-(trace, service)
rollups (``TraceInOneRowExploder.py:83-123``) — generalized to the north
rule's continuous aggregates: count/sum/min/max/p95 of a value column per
``(source, bucket)`` at 1m/5m/1h tiers.

Scale design (the part the reference lacks — it is single-process,
``JoinManager.py:60-121``):

- **One pass over raw data for ALL tiers.** :class:`PartialRollup`
  computes, per input batch, one partial row per ``(source, bucket_t1,
  bucket_t2, ...)`` composite key: count/sum/min/max plus a mergeable
  quantile summary blob. A 100 TB input collapses to ~(#sources x
  #minutes) partial rows per batch BEFORE any shuffle — this per-batch
  combining is also the skew story: the hot source (~80% of rows,
  FIXTURES.md F1; reference analog the 1733 MB service,
  ``insights-experience.md:78``) is reduced batch-locally, so the final
  merge sees at most one row per key per batch, never the raw skew. The
  merge then exchanges on ``(source, bucket)``, so the hot source's
  partial rows spread over every partition instead of landing in one (the
  bound is pinned by ``tests/test_rollup.py::test_hot_source_spreads_over_exchange``).
- **The tiers derive from one factor grid, not from each other.**
  Round-to-nearest buckets (Polars ``dt.round`` semantics, reference
  ``TracesParser.py:155``) do NOT compose hierarchically (e.g. 07:28:00 ->
  1m 07:28 -> ... -> 1h rounds down, but via a 5m bucket of 07:30 it would
  round up), hence the composite partial key rather than re-aggregating 1m
  outputs. But every tier's bucket is constant on each slice of the factor
  grid g = gcd over the tiers of w and w//2 (30 s for 1m/5m/1h; Factor
  Windows shares one factor window among correlated windows the same
  way). So the partial groups rows with ONE integer sort on (source
  dictionary code, slice), computes each tier's bucket once per slice
  from the raw grid, and joins adjacent slices whose buckets all agree.
  With ``bucket_mode='floor'`` (tumbling windows, g = gcd of the widths)
  tiers DO compose and :func:`reaggregate` implements the cheap
  hierarchical 1m->5m->1h path.
- **Final merge over partials only, on integer codes.**
  :func:`_merge_partition` reduces every group of a partition's partial
  rows with segmented numpy kernels. Each row's quantile state is sorted
  (value, count) pairs (``state/sketches.py``): all rows' pairs are
  decoded at once, unioned per group by one value sort and one stable
  sort on the group id, and equal values add their counts; p95 is read
  for every group from the cumulative counts, bit-equal to
  ``np.quantile`` on the expanded values; the merged blobs are one
  buffer. The merged state is a function of the group's multiset, so its
  bytes do not depend on the arrival order, the partition count, or on
  whether the group was built at once or appended to.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.bucketing import bucket_us
from ..state import sketches
from ._shuffle import hash_partitioned_map


def _bucket(ts: np.ndarray, width: int, mode: str) -> np.ndarray:
    if mode == "nearest":
        return bucket_us(ts, width)
    if mode != "floor":
        # a typo ('Nearest', 'round') would silently shift every bucket by
        # up to width/2 — validate like gapfill does
        raise ValueError(f"bucket_mode must be 'nearest' or 'floor', got {mode!r}")
    w = np.int64(width)
    return np.asarray(ts, dtype=np.int64) // w * w


def _factor_width(widths, mode: str) -> int:
    """Width g of the factor grid: the gcd of every tier width and, for
    nearest rounding, of every half width (30 s for 1m/5m/1h).

    ``(ts + w//2) // w`` steps only where ``ts + w//2`` reaches a multiple
    of w. g divides both w and w//2, so no step falls strictly inside a
    slice ``[k*g, (k+1)*g)``: every tier's bucket is constant on each
    slice and is the bucket of the slice's first instant."""
    ws = [int(w) for w in widths]
    if mode == "nearest":
        ws += [w // 2 for w in ws]
    return math.gcd(*ws) or 1


def _key_codes(col: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray, pa.Array]:
    """Dictionary codes (int64, first-appearance order) of a null-free key
    column, and the distinct keys they index."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_dictionary(arr.type):
        arr = arr.dictionary_decode()
    enc = arr.dictionary_encode()
    return enc.indices.to_numpy(zero_copy_only=False).astype(np.int64), enc.dictionary


def _pair_order(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Stable row order by (hi, lo) for non-negative ``hi``: one integer
    argsort of the packed key, or a lexsort when packing could overflow
    int64 (a small slice width over a long time span)."""
    if not len(hi):
        return np.empty(0, dtype=np.int64)
    lo0 = int(lo.min())
    span = int(lo.max()) - lo0 + 1
    if (int(hi.max()) + 1) * span < 1 << 62:
        return np.argsort(hi * span + (lo - lo0), kind="stable")
    return np.lexsort((lo, hi))


def _run_heads(*cols: np.ndarray) -> np.ndarray:
    """Positions where any of the (sorted) columns changes value, 0 first."""
    n = len(cols[0])
    new = np.zeros(n, dtype=bool)
    if n:
        new[0] = True
        for c in cols:
            new[1:] |= c[1:] != c[:-1]
    return np.flatnonzero(new)


class PartialRollup:
    """Per-batch combiner (stateless; plain function semantics, class only to
    hold config). Emits one row per (key, composite-bucket) per batch."""

    def __init__(
        self,
        tiers: dict[str, int],
        value_col: str,
        key_col: str = "source",
        ts_col: str = "event_time_us",
        quantile_cap: int = 4096,
        bucket_mode: str = "nearest",
        salt: int = 1,
        checksum_col: str | None = None,
    ):
        # ``salt`` is a retired positional slot, kept so positional callers
        # that pass 1 keep working: partials are never salted, because the
        # (key, bucket) exchange key already spreads a hot key
        if salt != 1:
            raise ValueError("PartialRollup does not salt partials; salt must be 1")
        self.tiers = tiers
        self.value_col = value_col
        self.key_col = key_col
        self.ts_col = ts_col
        self.cap = quantile_cap
        self.mode = bucket_mode
        self.factor = _factor_width(tiers.values(), bucket_mode)
        # optional integrity column: per-group wrapping-uint64 sum emitted as
        # ck_v so lineage checksums ride the partials instead of needing an
        # extra pass over the input
        self.checksum_col = checksum_col

    def _samples(self, batch: pa.Table) -> pa.Table:
        # null-sample contract: a row with a null value or null timestamp
        # is not a sample — dropped before grouping, so cnt = SQL
        # COUNT(value), sum/min/max/p95 aggregate only real samples, and a
        # bucket with zero real samples does not exist (oracle: WHERE
        # value IS NOT NULL). Without this, NaNs would poison the quantile
        # blobs and cnt would read COUNT(*). A row with a null key belongs
        # to no group and is dropped too.
        cols = [batch[self.value_col], batch[self.ts_col], batch[self.key_col]]
        if any(c.null_count for c in cols):
            valid = pc.and_(pc.and_(cols[0].is_valid(), cols[1].is_valid()),
                            cols[2].is_valid())
            batch = batch.filter(valid)
        # a float NaN passes is_valid() but would poison the quantile blob
        # AND desync it from cnt — treat NaN as null: not a sample
        vcol = batch[self.value_col]
        if len(batch) and pa.types.is_floating(vcol.type):
            nan = pc.is_nan(vcol)
            if pc.any(nan).as_py():
                batch = batch.filter(pc.invert(nan))
        return batch

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = self._samples(batch)
        ts = batch[self.ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch[self.value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        codes, keys = _key_codes(batch[self.key_col])
        # one integer sort on (key code, factor slice); the tier buckets are
        # computed once per run of equal (key, slice), not once per row
        g = self.factor
        slices = ts // g  # numpy floors, so negative instants slice right
        order = _pair_order(codes, slices)
        runs = _run_heads(codes[order], slices[order])
        run_key = codes[order][runs]
        run_start = slices[order][runs] * g
        buckets = [_bucket(run_start, w, self.mode) for w in self.tiers.values()]
        # adjacent slices of one key whose buckets all agree are one group
        # (a 1m bucket spans two 30 s slices)
        heads = _run_heads(run_key, *buckets)
        n_groups = len(heads)
        is_head = np.zeros(len(runs), dtype=np.int64)
        is_head[heads] = 1
        gid = np.repeat(np.cumsum(is_head) - 1, np.diff(np.append(runs, len(ts))))
        if n_groups < len(runs):
            # a merged group's rows arrive slice by slice: order them by
            # group id, stably, so the sums keep the input-row order
            in_row = np.empty(len(ts), dtype=np.int64)
            in_row[order] = gid
            order = np.argsort(in_row, kind="stable")
        counts = np.bincount(gid, minlength=n_groups).astype(np.int64)
        first = np.zeros(n_groups, dtype=np.int64)
        np.cumsum(counts[:-1], out=first[1:])
        v_sorted = np.ascontiguousarray(v[order])
        blobs = sketches.to_blobs(
            *sketches.merge_pairs(
                np.repeat(np.arange(n_groups), counts), v_sorted,
                np.ones(len(v_sorted), dtype=np.int64),
                np.zeros(n_groups, dtype=bool), self.cap,
            )
        )
        out = {
            # explicit string type: an all-filtered batch would otherwise
            # emit a null-typed key column and break block-schema unification
            self.key_col: _key_strings(keys).take(pa.array(run_key[heads])),
            **{
                f"bucket_{name}": pa.array(b[heads], type=pa.int64())
                for name, b in zip(self.tiers, buckets)
            },
            "cnt": pa.array(counts, type=pa.int64()),
            "sum_v": pa.array(_reduce(np.add, v_sorted, first), type=pa.float64()),
            "min_v": pa.array(_reduce(np.fmin, v_sorted, first), type=pa.float64()),
            "max_v": pa.array(_reduce(np.fmax, v_sorted, first), type=pa.float64()),
            "qsum": blobs,
        }
        if self.checksum_col is not None:
            ck = batch[self.checksum_col].to_numpy(zero_copy_only=False)
            cks = _reduce(np.add, ck.view(np.uint64)[order], first)
            out["ck_v"] = pa.array(cks.view(np.int64), type=pa.int64())
        return pa.table(out)


def _key_strings(keys: pa.Array) -> pa.Array:
    """Distinct keys as strings (non-string keys as pandas ``astype(str)``
    writes them)."""
    if pa.types.is_string(keys.type) or pa.types.is_large_string(keys.type):
        return keys.cast(pa.string())
    return pa.array(
        pd.Series(keys.to_numpy(zero_copy_only=False)).astype(str), type=pa.string()
    )


def _reduce(ufunc: np.ufunc, x: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """``ufunc.reduceat`` over the runs starting at ``heads`` (none: empty;
    integer sums wrap)."""
    if not len(heads):
        return np.empty(0, dtype=x.dtype)
    return ufunc.reduceat(x, heads)


_MERGE_COLS = ["cnt", "sum_v", "min_v", "max_v", "qsum"]


def _merge_partition(
    df: pd.DataFrame | pa.Table,
    key_col: str,
    bucket_col: str,
    cap: int,
    p: float,
    keep_summary: bool = False,
) -> pd.DataFrame:
    """Merge ALL (key, bucket) groups co-located in one partition of partial
    rows (a pandas frame or an Arrow table) into final points, without
    per-group Python.

    cnt/sum/min/max are segmented reductions over the rows sorted on (key,
    bucket, sum_v): sum_v is the one sort key that is not a group key,
    because a float sum depends on the order of its terms, and rows tied
    on it add the same terms in any order, so the sums depend only on
    which rows a group holds, not on the order they arrived in (Ray Data
    does not keep block order) or on the partition count. The quantile
    states merge without any row order: every row's (value, count) pairs
    are decoded at once and unioned per group
    (:func:`sketches.merge_pairs`), p95 is numpy's linear quantile read
    from the cumulative counts, and the merged blobs are one buffer.
    """
    if isinstance(df, pd.DataFrame):
        df = pa.Table.from_pandas(
            df[[key_col, bucket_col, *_MERGE_COLS]], preserve_index=False
        )
    t = df
    if t[key_col].null_count or t[bucket_col].null_count:
        t = t.filter(pc.and_(t[key_col].is_valid(), t[bucket_col].is_valid()))
    if len(t) == 0:
        # typed empty output so an empty exchange partition cannot poison
        # a downstream union's schema (key assumed string — every engine
        # key column is; non-string keys never see empty partitions in
        # practice because P << #groups)
        out = pd.DataFrame(
            {
                key_col: pd.Series([], dtype="string"),
                "bucket_us": pd.Series([], dtype=np.int64),
                "cnt": pd.Series([], dtype=np.int64),
                "sum_v": pd.Series([], dtype=np.float64),
                "min_v": pd.Series([], dtype=np.float64),
                "max_v": pd.Series([], dtype=np.float64),
                "p95_v": pd.Series([], dtype=np.float64),
            }
        )
        if keep_summary:
            out["qsum"] = pd.Series([], dtype=object)
        return out

    def col(name: str, dtype) -> np.ndarray:
        return t[name].to_numpy().astype(dtype, copy=False)

    kc, keys = _key_codes(t[key_col])
    bk, sv = col(bucket_col, np.int64), col("sum_v", np.float64)
    by_key = _pair_order(kc, bk)
    is_head = np.zeros(len(kc), dtype=np.int64)
    is_head[_run_heads(kc[by_key], bk[by_key])] = 1
    group = np.empty(len(kc), dtype=np.int64)  # group id of each row
    group[by_key] = np.cumsum(is_head) - 1
    n_groups = int(is_head.sum())
    order = sketches.order_in_groups(group, n_groups, sv)
    heads = np.zeros(n_groups, dtype=np.int64)
    np.cumsum(np.bincount(group, minlength=n_groups)[:-1], out=heads[1:])

    n, gridded, values, counts = sketches.from_blobs(t["qsum"])
    any_gridded = np.zeros(n_groups, dtype=bool)
    any_gridded[group[gridded]] = True
    state = sketches.merge_pairs(
        np.repeat(group, n), values, counts, any_gridded, cap
    )
    first = order[heads]
    out = pd.DataFrame(
        {
            key_col: keys.take(pa.array(kc[first])).to_numpy(zero_copy_only=False),
            "bucket_us": bk[first],
            "cnt": _reduce(np.add, col("cnt", np.int64)[order], heads),
            "sum_v": _reduce(np.add, sv[order], heads),
            "min_v": _reduce(np.fmin, col("min_v", np.float64)[order], heads),
            "max_v": _reduce(np.fmax, col("max_v", np.float64)[order], heads),
            "p95_v": sketches.linear_quantiles(state[0], state[2], state[3], p),
        }
    )
    if keep_summary:
        out["qsum"] = sketches.to_blobs(*state).to_numpy(zero_copy_only=False)
    return out


def rollup_tiers(
    events: ray.data.Dataset,
    tiers: dict[str, int],
    value_col: str = "n_tok",
    key_col: str = "source",
    ts_col: str = "event_time_us",
    quantile_cap: int = 4096,
    bucket_mode: str = "nearest",
    p: float = 0.95,
    keep_summary: bool = False,
    num_merge_partitions: int | None = None,
) -> dict[str, ray.data.Dataset]:
    """events → {tier_name: rollup Dataset(source, bucket_us, cnt, sum_v,
    min_v, max_v, p95_v)}. One pass over events, one small shuffle per tier.
    """
    partials = events.map_batches(
        PartialRollup(tiers, value_col, key_col, ts_col, quantile_cap, bucket_mode),
        batch_format="pyarrow",
        batch_size=32768,
    )
    if len(tiers) > 1 or keep_summary:
        # partials feed several tier merges -> pin them once in the object
        # store instead of recomputing the full scan per tier
        partials = partials.materialize()

    out: dict[str, ray.data.Dataset] = {}
    for name in tiers:
        bcol = f"bucket_{name}"
        merged = hash_partitioned_map(
            partials,
            [key_col, bcol],
            lambda t, _b=bcol: _merge_partition(
                t, key_col, _b, quantile_cap, p, keep_summary
            ),
            num_partitions=num_merge_partitions,
        )
        out[name] = merged
    return out


def reaggregate(
    rollup_fine: ray.data.Dataset,
    coarse_width_us: int,
    key_col: str = "source",
    quantile_cap: int = 4096,
    p: float = 0.95,
    keep_summary: bool = False,
) -> ray.data.Dataset:
    """Hierarchical re-rollup for FLOOR-aligned tiers (1m -> 5m -> 1h).

    Valid only for tumbling (floor) windows where the coarse width is a
    multiple of the fine width: count/sum/min/max compose; p95 requires
    the fine tier to have kept its quantile summary column ('qsum') —
    without it p95_v is NaN (documented). Pass ``keep_summary=True`` to
    carry the merged qsum INTO the output so further hops of the chain
    (1m -> 5m -> 1h) stay exact; it requires the input to have qsum.
    With qsum the merge IS :func:`_merge_partition` — the same vectorized
    blob decode as rollup_tiers, not a per-blob Python loop.
    """
    has_qsum = "qsum" in rollup_fine.schema().names
    if keep_summary and not has_qsum:
        raise ValueError(
            "keep_summary=True requires the fine rollup to carry 'qsum' "
            "(run rollup_tiers(..., keep_summary=True))"
        )

    def to_coarse(batch: pa.Table) -> pa.Table:
        b = batch["bucket_us"].to_numpy(zero_copy_only=False).astype(np.int64)
        coarse = b // np.int64(coarse_width_us) * np.int64(coarse_width_us)
        return batch.set_column(
            batch.schema.get_field_index("bucket_us"),
            "bucket_us",
            pa.array(coarse, type=pa.int64()),
        )

    if has_qsum:
        def merge_partition(t: pa.Table) -> pd.DataFrame:
            return _merge_partition(
                t, key_col, "bucket_us", quantile_cap, p, keep_summary
            )
    else:
        def merge_partition(t: pa.Table) -> pd.DataFrame:
            df = t.to_pandas()
            agg = (df.groupby([key_col, "bucket_us"], sort=False)
                   .agg(cnt=("cnt", "sum"), sum_v=("sum_v", "sum"),
                        min_v=("min_v", "min"), max_v=("max_v", "max"))
                   .reset_index())
            return pd.DataFrame(
                {
                    key_col: agg[key_col],
                    "bucket_us": agg["bucket_us"].astype(np.int64),
                    "cnt": agg["cnt"].astype(np.int64),
                    "sum_v": agg["sum_v"].astype(np.float64),
                    "min_v": agg["min_v"].astype(np.float64),
                    "max_v": agg["max_v"].astype(np.float64),
                    "p95_v": np.full(len(agg), np.nan),
                }
            )

    coarse = rollup_fine.map_batches(to_coarse, batch_format="pyarrow")
    return hash_partitioned_map(coarse, [key_col, "bucket_us"], merge_partition)
