"""Two-phase (partial + final) rollup into retention tiers.

Reference analog: the per-``(pod, measure_time)`` / per-bucket aggregates —
system-wide per-bucket means (``Joiner.py:313-357``), per-(trace, service)
rollups (``TraceInOneRowExploder.py:83-123``) — generalized to the north
rule's continuous aggregates: count/sum/min/max/p95 of a value column per
``(source, bucket)`` at 1m/5m/1h tiers.

Scale design (the part the reference lacks — it is single-process,
``JoinManager.py:60-121``):

- **One pass over raw data for ALL tiers.** ``partial_rollup`` computes, per
  input batch, one partial row per ``(source, bucket_t1, bucket_t2, ...)``
  composite key: count/sum/min/max plus a mergeable quantile summary blob.
  A 100 TB input collapses to ~(#sources x #minutes) partial rows per batch
  BEFORE any shuffle — this per-batch combining is also the skew story: the
  hot source (~80% of rows, FIXTURES.md F1; reference analog the 1733 MB
  service, ``insights-experience.md:78``) is reduced batch-locally, so the
  final groupby sees at most one row per key per batch, never the raw skew.
  The merge then exchanges on ``(source, bucket)``, so the hot source's
  partial rows spread over every partition instead of landing in one (the
  bound is pinned by ``tests/test_rollup.py::test_hot_source_spreads_over_exchange``).
- **Per-tier final merge over partials only.** Each tier's
  ``groupby(source, bucket_tier)`` shuffles partial rows (KBs), not events.
- **Round-to-nearest buckets are computed per tier from the raw
  event_time** (Polars ``dt.round`` semantics, reference
  ``TracesParser.py:155``): nearest-rounding does NOT compose hierarchically
  (e.g. 07:28:00 -> 1m 07:28 -> ... -> 1h rounds down, but via a 5m bucket
  of 07:30 it would round up), hence the composite partial key rather than
  re-aggregating 1m outputs. With ``bucket_mode='floor'`` (tumbling
  windows), tiers DO compose and :func:`reaggregate` implements the cheap
  hierarchical 1m->5m->1h path.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..functions.bucketing import bucket_us
from ..state.sketches import QuantileSummary
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


def _exact_blob_array(
    v_sorted: np.ndarray,
    counts: np.ndarray,
    starts: np.ndarray,
    cap: int,
) -> pa.Array:
    """Build the per-group QuantileSummary blob column as ONE contiguous
    buffer + Arrow offsets (zero per-group Python on the exact path).

    Blob layout (``QuantileSummary.to_bytes`` exact mode): int64 n, int64
    flag=1, then n float64 values — every field is 8 bytes, so the whole
    column is a single int64 scatter. Groups larger than ``cap`` (rare:
    a batch-local group bigger than the sketch cap) fall back to the
    compacting constructor individually.
    """
    n_groups = len(counts)
    if n_groups == 0:
        return pa.array([], type=pa.binary())
    out = np.empty(2 * n_groups + len(v_sorted), dtype=np.int64)
    # group g's blob starts at word offset 2*g + starts[g]
    word_start = 2 * np.arange(n_groups, dtype=np.int64) + starts[:-1]
    out[word_start] = counts
    out[word_start + 1] = 1  # exact flag
    gix = np.repeat(np.arange(n_groups, dtype=np.int64), counts)
    out[2 * gix + 2 + np.arange(len(v_sorted), dtype=np.int64)] = v_sorted.view(
        np.int64
    )
    byte_offsets = np.empty(n_groups + 1, dtype=np.int32)
    byte_offsets[:-1] = 8 * word_start
    byte_offsets[-1] = 8 * len(out)
    arr = pa.Array.from_buffers(
        pa.binary(),
        n_groups,
        [None, pa.py_buffer(byte_offsets.tobytes()), pa.py_buffer(out.tobytes())],
    )
    big = np.flatnonzero(counts > cap)
    if big.size:
        blobs = arr.to_pylist()
        for g in big:
            seg = v_sorted[starts[g] : starts[g + 1]]
            blobs[g] = QuantileSummary.of(seg, cap=cap).to_bytes()
        arr = pa.array(blobs, type=pa.binary())
    return arr


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
        # optional integrity column: per-group wrapping-uint64 sum emitted as
        # ck_v so lineage checksums ride the partials instead of needing an
        # extra pass over the input
        self.checksum_col = checksum_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        # null-sample contract: a row with a null value or null timestamp
        # is not a sample — dropped before grouping, so cnt = SQL
        # COUNT(value), sum/min/max/p95 aggregate only real samples, and a
        # bucket with zero real samples does not exist (oracle: WHERE
        # value IS NOT NULL). Without this, NaNs would poison the quantile
        # blobs and cnt would read COUNT(*).
        vcol = batch[self.value_col]
        tcol = batch[self.ts_col]
        if vcol.null_count or tcol.null_count:
            import pyarrow.compute as pc

            batch = batch.filter(
                pc.and_(vcol.is_valid(), tcol.is_valid())
            )
        # a float NaN passes is_valid() but would poison the quantile blob
        # AND desync it from cnt (pandas count/sum skip NaN, bincount group
        # sizes don't) — treat NaN as null: not a sample
        vcol = batch[self.value_col]
        if len(batch) and pa.types.is_floating(vcol.type):
            import pyarrow.compute as pc

            nan = pc.is_nan(vcol)
            if pc.any(nan).as_py():
                batch = batch.filter(pc.invert(nan))
        ts = batch[self.ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame(
            {
                "key": batch[self.key_col].to_numpy(zero_copy_only=False),
                "v": batch[self.value_col].to_numpy(zero_copy_only=False).astype(np.float64),
            }
        )
        bucket_cols = []
        for name, width in self.tiers.items():
            col = f"bucket_{name}"
            df[col] = _bucket(ts, width, self.mode)
            bucket_cols.append(col)

        if self.checksum_col is not None:
            df["ck"] = (
                batch[self.checksum_col]
                .to_numpy(zero_copy_only=False)
                .view(np.uint64)
            )
        gb = df.groupby(["key", *bucket_cols], sort=False)
        agg = gb["v"].agg(["count", "sum", "min", "max"]).reset_index()
        # Vectorized per-group summary blobs + checksums: one stable sort by
        # group id, then segmented kernels — no per-group Python objects
        # (the round-1 rollup_1m hotspot: thousands of QuantileSummary
        # instances per 32k-row batch).
        gids = gb.ngroup().to_numpy()  # first-appearance order == agg order
        if len(gids) and gids.min() < 0:  # null group keys (dropped by agg)
            keep = gids >= 0
            df = df[keep]
            gids = gids[keep]
        order = np.argsort(gids, kind="stable")
        n_groups = len(agg)
        counts = np.bincount(gids, minlength=n_groups).astype(np.int64)
        starts = np.zeros(n_groups + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        v_sorted = np.ascontiguousarray(
            df["v"].to_numpy()[order], dtype=np.float64
        )
        blobs = _exact_blob_array(v_sorted, counts, starts, self.cap)
        if self.checksum_col is not None:
            with np.errstate(over="ignore"):
                ck_sorted = df["ck"].to_numpy()[order]
                cks = (
                    np.add.reduceat(ck_sorted, starts[:-1])
                    if n_groups
                    else np.empty(0, dtype=np.uint64)
                )
        out = {
            # explicit string type: an all-filtered batch would otherwise
            # emit a null-typed key column and break block-schema unification
            self.key_col: pa.array(agg["key"].astype(str), type=pa.string()),
            **{c: pa.array(agg[c].to_numpy(), type=pa.int64()) for c in bucket_cols},
            "cnt": pa.array(agg["count"].to_numpy(), type=pa.int64()),
            "sum_v": pa.array(agg["sum"].to_numpy(), type=pa.float64()),
            "min_v": pa.array(agg["min"].to_numpy(), type=pa.float64()),
            "max_v": pa.array(agg["max"].to_numpy(), type=pa.float64()),
            "qsum": blobs,
        }
        if self.checksum_col is not None:
            out["ck_v"] = pa.array(cks.view(np.int64), type=pa.int64())
        return pa.table(out)


def _gather_exact_values(
    blob_series, gcodes: np.ndarray, n_groups: int
) -> "tuple[np.ndarray, np.ndarray] | None":
    """Vectorized decode of an all-exact qsum blob column.

    Returns ``(flat_values, group_starts)`` where ``flat_values`` holds
    every blob's float64 payload ordered by group (blob order preserved
    within a group — the same concatenation order the per-group loop
    produced), or None when any blob is non-exact / unaligned (caller
    falls back to the per-blob loop).

    Rationale: the merge's cost at scale is ~#partials blob decodes; a
    Python ``int.from_bytes`` + ``np.frombuffer`` pair per blob measured
    ~25 s driver-side at 580k partials x 3 tiers (10M-row flagship). Here
    the whole column decodes as ONE int64 view + fancy-gather.
    """
    if len(blob_series) == 0:
        return np.empty(0, dtype=np.float64), np.zeros(
            n_groups + 1, dtype=np.int64
        )
    binarr = pa.array(blob_series, type=pa.binary())
    offs = np.frombuffer(binarr.buffers()[1], dtype=np.int32)
    offs = offs[binarr.offset : binarr.offset + len(binarr) + 1]
    if len(offs) == 0 or (offs % 8).any():
        return None
    data = binarr.buffers()[2]
    words = np.frombuffer(data, dtype=np.int64, count=int(offs[-1]) // 8)
    start = offs[:-1].astype(np.int64) // 8
    n = words[start]
    flags = words[start + 1]
    lengths = (offs[1:] - offs[:-1]).astype(np.int64)
    # exact blob layout: 16-byte header + n float64 values
    if not ((flags == 1).all() and (lengths == 16 + 8 * n).all()):
        return None
    order = np.argsort(gcodes, kind="stable")  # group-major, blob order kept
    start, n = start[order], n[order]
    total = int(n.sum())
    counts = np.bincount(gcodes[order], weights=n, minlength=n_groups).astype(
        np.int64
    )
    gstarts = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(counts, out=gstarts[1:])
    fwords = words.view(np.float64)
    flat = np.empty(total, dtype=np.float64)
    if len(n) * 24 < total:
        # few-blobs/long-runs shape (exchange partitions: ~100+ values per
        # blob): copy each blob's contiguous run directly. The vectorized
        # gather below builds THREE total-sized int64 index temporaries —
        # ~4x this path's allocation — and fresh-page first-touch on this
        # host is the merge's real cost (~40 MB/s cold vs GB/s warm), so
        # fewer/smaller allocations beat "no Python loop" here (measured:
        # 3.8 s -> 0.9 s cold for a 30 MB partition).
        pos = 0
        for s, c in zip(start.tolist(), n.tolist()):
            flat[pos : pos + c] = fwords[s + 2 : s + 2 + c]
            pos += c
    else:
        # many tiny blobs (driver-local merge of raw partials): per-blob
        # Python looping would dominate; one fancy-gather wins.
        cum0 = np.zeros(len(n), dtype=np.int64)
        np.cumsum(n[:-1], out=cum0[1:])
        base = np.repeat(start + 2, n)
        within = np.arange(total, dtype=np.int64) - np.repeat(cum0, n)
        np.take(words, base + within, out=flat.view(np.int64))
    return flat, gstarts


def _merge_partition(
    df: pd.DataFrame,
    key_col: str,
    bucket_col: str,
    cap: int,
    p: float,
    keep_summary: bool = False,
) -> pd.DataFrame:
    """Merge ALL (key, bucket) groups co-located in one hash partition —
    vectorized pandas for cnt/sum/min/max, one vectorized decode of the
    quantile blobs, and per-OUTPUT-POINT finalization (a few thousand
    groups, never per input partial)."""
    if len(df) == 0:
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
    gb = df.groupby([key_col, bucket_col], sort=False)
    agg = gb.agg(
        cnt=("cnt", "sum"),
        sum_v=("sum_v", "sum"),
        min_v=("min_v", "min"),
        max_v=("max_v", "max"),
    ).reset_index()
    n_groups = len(agg)
    p95s: list[float] = []
    blobs: list[bytes] = []
    gcodes = gb.ngroup().to_numpy()  # first-appearance order == agg order
    qsum_arr = df["qsum"].to_numpy()
    if len(gcodes) and gcodes.min() < 0:  # null group keys (dropped by agg)
        keep = gcodes >= 0
        qsum_arr, gcodes = qsum_arr[keep], gcodes[keep]
    fast = _gather_exact_values(qsum_arr, gcodes, n_groups)
    if fast is not None:
        flat, gstarts = fast
        for g in range(n_groups):
            vals = flat[gstarts[g] : gstarts[g + 1]]
            if len(vals) > cap:
                merged = QuantileSummary.compact_exact(vals, cap)
                p95s.append(merged.quantile(p))
                if keep_summary:
                    blobs.append(merged.to_bytes())
            else:
                p95s.append(
                    float(np.quantile(vals, p)) if len(vals) else float("nan")
                )
                if keep_summary:
                    # exact blob built directly (same bytes as
                    # QuantileSummary(vals).to_bytes()) — the constructor's
                    # ones-weights array would total another flat-sized
                    # allocation across the loop
                    blobs.append(
                        np.array([len(vals), 1], dtype=np.int64).tobytes()
                        + vals.tobytes()
                    )
    else:
        all_blobs = df["qsum"].to_numpy()
        indices = gb.indices  # group key tuple -> row positions
        for gkey in zip(agg[key_col], agg[bucket_col]):
            # iterate in agg's row order explicitly so p95s aligns with agg
            group_blobs = all_blobs[indices[gkey]]
            merged = QuantileSummary.merge_all(
                [QuantileSummary.from_bytes(b) for b in group_blobs], cap=cap
            )
            p95s.append(merged.quantile(p))
            if keep_summary:
                blobs.append(merged.to_bytes())
    out = pd.DataFrame(
        {
            key_col: agg[key_col],
            "bucket_us": agg[bucket_col].astype(np.int64),
            "cnt": agg["cnt"].astype(np.int64),
            "sum_v": agg["sum_v"].astype(np.float64),
            "min_v": agg["min_v"].astype(np.float64),
            "max_v": agg["max_v"].astype(np.float64),
            "p95_v": np.asarray(p95s, dtype=np.float64),
        }
    )
    if keep_summary:
        out["qsum"] = blobs
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
            lambda df, _b=bcol: _merge_partition(
                df, key_col, _b, quantile_cap, p, keep_summary
            ),
            num_partitions=num_merge_partitions,
            batch_format="pandas",
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
        def merge_partition(df: pd.DataFrame) -> pd.DataFrame:
            return _merge_partition(
                df, key_col, "bucket_us", quantile_cap, p, keep_summary
            )
    else:
        def merge_partition(df: pd.DataFrame) -> pd.DataFrame:
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
    return hash_partitioned_map(
        coarse, [key_col, "bucket_us"], merge_partition, batch_format="pandas"
    )
