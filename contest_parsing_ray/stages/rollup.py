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
  :func:`_merge_partition` sorts a partition's partial rows once (numpy
  lexsort on key code, bucket and stats) and reduces every group with
  segmented numpy kernels: the exact blobs' values are gathered by one
  mask, p95 is numpy's linear quantile per group, and the merged blobs are
  one scatter; only compacted groups take :class:`QuantileSummary`.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
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


def _exact_blob_array(
    v_sorted: np.ndarray,
    counts: np.ndarray,
    starts: np.ndarray,
    patch: dict[int, bytes] | None = None,
) -> pa.Array:
    """Build the per-group QuantileSummary blob column as ONE contiguous
    buffer + Arrow offsets (zero per-group Python on the exact path).

    Blob layout (``QuantileSummary.to_bytes`` exact mode): int64 n, int64
    flag=1, then n float64 values — every field is 8 bytes, so the whole
    column is a single int64 scatter. ``patch`` replaces the blobs of the
    few groups that are not exact (above the cap, or merged from a
    compacted blob).
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
    if patch:
        blobs = arr.to_pylist()
        for g, blob in patch.items():
            blobs[g] = blob
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
            # group id, stably, so each blob keeps the input-row order
            in_row = np.empty(len(ts), dtype=np.int64)
            in_row[order] = gid
            order = np.argsort(in_row, kind="stable")
        counts = np.bincount(gid, minlength=n_groups).astype(np.int64)
        starts = np.zeros(n_groups + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        v_sorted = np.ascontiguousarray(v[order])
        first = starts[:-1]
        big = np.flatnonzero(counts > self.cap)
        blobs = _exact_blob_array(
            v_sorted, counts, starts,
            {
                int(i): QuantileSummary.of(
                    v_sorted[starts[i] : starts[i + 1]], cap=self.cap
                ).to_bytes()
                for i in big
            },
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


def _same(x: np.ndarray) -> np.ndarray:
    """x[i] equals x[i - 1], for i >= 1 (NaN equals NaN, as in a sort)."""
    eq = x[1:] == x[:-1]
    if x.dtype.kind == "f":
        eq |= np.isnan(x[1:]) & np.isnan(x[:-1])
    return eq


def _linear_quantiles(
    flat: np.ndarray, starts: np.ndarray, n: np.ndarray, q: float
) -> np.ndarray:
    """``np.quantile(seg, q)`` (method 'linear') of every segment
    ``flat[starts[g]:starts[g] + n[g]]`` with ``n[g] >= 1``, bit-equal:
    numpy's own virtual index, gamma and lerp arithmetic, vectorized. Only
    the two order statistics around the index are selected per segment
    (``np.partition``), not the segment sorted."""
    vi = (n - 1).astype(np.float64) * q
    prev = np.floor(vi)
    above = vi >= n - 1
    prev[above] = -1  # numpy takes the last element there, gamma = vi + 1
    lo = np.where(above, n - 1, prev).astype(np.int64)
    hi = np.where(above, n - 1, lo + 1)
    a = np.empty(len(n))
    b = np.empty(len(n))
    top = np.empty(len(n))
    for i, (s, m, k, j) in enumerate(
        zip(starts.tolist(), n.tolist(), lo.tolist(), hi.tolist())
    ):
        part = np.partition(flat[s : s + m], sorted({k, j, m - 1}))
        a[i], b[i], top[i] = part[k], part[j], part[m - 1]
    gamma = vi - prev
    diff = b - a
    out = a + diff * gamma
    ge = gamma >= 0.5
    out[ge] = (b - diff * (1 - gamma))[ge]
    nan = np.isnan(top)  # numpy returns NaN for a segment holding one
    out[nan] = top[nan]
    return out


def _offsets(blobs: pa.BinaryArray) -> np.ndarray:
    return np.frombuffer(blobs.buffers()[1], dtype=np.int32)[
        blobs.offset : blobs.offset + len(blobs) + 1
    ].astype(np.int64)


def _tie_order(blobs: pa.Array, tie: np.ndarray) -> np.ndarray | None:
    """Permutation that orders each run of rows tied on (group, stats) by
    blob bytes, stably, as a sort on the blob column would; None when every
    tied run holds equal blobs (the common case: one-value partials)."""
    offs = _offsets(blobs)
    lens = np.diff(offs)
    i = np.flatnonzero(tie)  # row i is tied with row i - 1
    differ = lens[i] != lens[i - 1]
    same_len = np.flatnonzero(~differ)
    n_bytes = lens[i[same_len]]
    if n_bytes.sum():
        # compare each equal-length pair byte by byte, all pairs at once
        data = np.frombuffer(blobs.buffers()[2], dtype=np.uint8)
        pair = np.repeat(np.arange(len(same_len)), n_bytes)
        at = np.arange(n_bytes.sum()) - np.repeat(np.cumsum(n_bytes) - n_bytes, n_bytes)
        cur = offs[i[same_len]][pair] + at
        prev = offs[i[same_len] - 1][pair] + at
        ne = data[cur] != data[prev]
        differ[same_len] = np.bincount(pair, weights=ne, minlength=len(same_len)) > 0
    if not differ.any():
        return None
    edges = np.diff(tie.astype(np.int8), prepend=0, append=0)
    lo = np.flatnonzero(edges == 1) - 1
    hi = np.flatnonzero(edges == -1)
    perm = np.arange(len(blobs))
    for r in np.unique(np.searchsorted(hi, i[differ], side="right")).tolist():
        a, b = int(lo[r]), int(hi[r])
        run = blobs[a:b].to_pylist()
        perm[a:b] = a + np.array(sorted(range(b - a), key=run.__getitem__))
    return perm


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
    per-group Python on the exact path.

    The rows are sorted once, on (key, bucket, cnt, sum_v, min_v, max_v);
    rows tied on all of those are ordered by their blob bytes. Each group
    therefore merges its rows in one canonical order, so the float sums
    and the blob bytes depend only on which rows the group holds, not on
    the order they arrived in (Ray Data does not keep block order) or on
    the partition count. cnt/sum/min/max are segmented reductions; the
    exact blobs' values are gathered by one mask over the sorted blob
    buffer that drops the 16-byte headers; p95 is numpy's linear quantile
    per group; the merged blobs are one scatter. Only a group above
    ``cap`` values (compacted) or holding a compacted blob goes through
    :class:`QuantileSummary`.
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
    stats = [col(bucket_col, np.int64), col("cnt", np.int64)] + [
        col(c, np.float64) for c in ("sum_v", "min_v", "max_v")
    ]
    order = np.lexsort((*stats[::-1], kc))
    kc = kc[order]
    stats = [x[order] for x in stats]
    bk, cnt, sv, mn, mx = stats
    heads = _run_heads(kc, bk)
    tie = np.zeros(len(kc), dtype=bool)
    tie[1:] = np.logical_and.reduce([_same(x) for x in (kc, *stats)])
    blobs = t["qsum"].combine_chunks().take(pa.array(order))
    perm = _tie_order(blobs, tie) if tie.any() else None
    if perm is not None:
        order = order[perm]
        blobs = blobs.take(pa.array(perm))

    # the sorted blob buffer as int64 words (every blob is whole words):
    # an exact blob is [n, 1, n values], a compacted one [n, 0, values,
    # weights]; one mask keeps the exact blobs' values, in group order
    offs = _offsets(blobs)
    words = np.frombuffer(blobs.buffers()[2], dtype=np.int64, count=offs[-1] // 8)
    ws = offs[:-1] // 8
    nv = words[ws]
    exact = words[ws + 1] == 1
    keep = np.ones(len(words), dtype=bool)
    keep[ws] = False
    keep[ws + 1] = False
    for lo, hi in zip(ws[~exact].tolist(), (offs[1:][~exact] // 8).tolist()):
        keep[lo:hi] = False
    flat = words.view(np.float64)[keep]
    nv[~exact] = 0
    n_groups = len(heads)
    vcount = _reduce(np.add, nv, heads)
    vstart = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(vcount, out=vstart[1:])
    compacted = _reduce(np.add, (~exact).astype(np.int64), heads) > 0

    p95 = np.full(n_groups, np.nan)
    simple = np.flatnonzero(~compacted & (vcount <= cap) & (vcount > 0))
    p95[simple] = _linear_quantiles(flat, vstart[simple], vcount[simple], p)
    patch: dict[int, bytes] = {}
    ends = np.append(heads[1:], len(blobs))
    for g in np.flatnonzero(compacted | (vcount > cap)).tolist():
        if compacted[g]:
            merged = QuantileSummary.merge_all(
                [
                    QuantileSummary.from_bytes(b)
                    for b in blobs[heads[g] : ends[g]].to_pylist()
                ],
                cap=cap,
            )
        else:
            merged = QuantileSummary.compact_exact(
                flat[vstart[g] : vstart[g + 1]], cap
            )
        p95[g] = merged.quantile(p)
        patch[g] = merged.to_bytes()

    out = pd.DataFrame(
        {
            key_col: keys.take(pa.array(kc[heads])).to_numpy(zero_copy_only=False),
            "bucket_us": bk[heads],
            "cnt": _reduce(np.add, cnt, heads),
            "sum_v": _reduce(np.add, sv, heads),
            "min_v": _reduce(np.fmin, mn, heads),
            "max_v": _reduce(np.fmax, mx, heads),
            "p95_v": p95,
        }
    )
    if keep_summary:
        out["qsum"] = _exact_blob_array(flat, vcount, vstart, patch).to_numpy(
            zero_copy_only=False
        )
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
