"""Gap-fill: materialize empty buckets on the retention grid.

The reference DROPS rows whose bucket has no join partner
(``Joiner.py:117-118`` ``drop_nulls(subset="container")``; README_old.md:8-10
discusses the inner-vs-left tradeoff). The north rule's engine instead
FILLS the grid: every (source, bucket) between a source's first and last
observed bucket exists in the output, with ``filled=True`` marking
synthesized points.

Modes:
- ``locf``   — last observation carried forward for the value columns.
- ``linear`` — linear interpolation between the neighboring observed
  buckets, on grid positions (count stays 0 for filled rows in both modes).

Execution: :func:`fill_group_pandas` fills every key of a table sorted by
(key, bucket) in one vectorized numpy pass: the key runs are segments (as
are the groups of ``rollup._merge_partition``'s segmented reductions),
each segment's grid is laid out by one
cumulative sum, LOCF gathers from a ``np.maximum.accumulate`` index of
the last valid row, and linear calls ``np.interp`` once per value column
over the whole table (a segment's interior gaps lie between two of its own
valid rows, so the global positions give the same line as the segment's).
The flagship tail calls it once per tier, and the :func:`gapfill` query
stage once per partition of one keyed exchange on the key. Rollup rows
are tiny (one per bucket), so even years of 1m buckets per source is
~O(10^5-10^6) rows per key: safely in memory. For sources whose full
bucket range exceeds memory, partition the bucket range and carry the
last observed row per boundary (the per-series encoder in ``compress.py``
carries its previous point the same way, inside one group).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ._shuffle import hash_partitioned_map
from .rollup import _key_codes, _run_heads

VALUE_COLS = ("sum_v", "min_v", "max_v", "p95_v")


def gapfill(
    rollup: ray.data.Dataset,
    width_us: int,
    mode: str = "locf",
    key_col: str = "source",
    value_cols: tuple[str, ...] = VALUE_COLS,
) -> ray.data.Dataset:
    """rollup(source, bucket_us, cnt, <value_cols>) → same schema + filled:bool,
    with every grid bucket present per source."""
    if mode not in ("locf", "linear"):
        raise ValueError("mode must be 'locf' or 'linear'")

    def fill(t: pa.Table) -> pa.Table:
        t = t.sort_by([(key_col, "ascending"), ("bucket_us", "ascending")])
        return fill_group_pandas(t, width_us, mode, key_col, value_cols)

    return hash_partitioned_map(rollup, [key_col], fill)


def fill_group_pandas(
    t: pa.Table,
    width_us: int,
    mode: str,
    key_col: str = "source",
    value_cols: tuple[str, ...] = VALUE_COLS,
) -> pa.Table:
    """Gap-fill every key of ``t`` (shared by the :func:`gapfill` stage and
    the flagship tail, which calls it once per tier).

    ``t`` holds at most one row per (key, bucket), sorted by (``key_col``,
    ``bucket_us``), with a null-free key and every bucket on its key's
    ``width_us`` grid. Returns ``bucket_us``, then the other columns in
    their order, then ``filled``: each key's rows from its first to its
    last observed bucket, ``cnt`` 0 on filled rows, the value columns filled
    per ``mode`` as float64 (observed NaNs too, as pandas ``ffill`` /
    ``interpolate`` do), every other column null on filled rows.
    """
    if mode not in ("locf", "linear"):
        raise ValueError("mode must be 'locf' or 'linear'")
    names = ["bucket_us", *(c for c in t.column_names if c != "bucket_us")]
    n = len(t)
    if n == 0:
        return t.select(names).append_column("filled", pa.array([], pa.bool_()))
    codes, keys = _key_codes(t[key_col])
    heads = _run_heads(codes)
    if len(keys) != len(heads):
        raise ValueError(f"rows must be sorted by ({key_col}, bucket_us)")
    seg = np.repeat(np.arange(len(heads)), np.diff(heads, append=n))
    b = t["bucket_us"].to_numpy().astype(np.int64, copy=False)
    first = b[heads]
    off = b - first[seg]
    pos = off // width_us
    step = np.diff(pos)
    if (off % width_us).any() or (step[seg[1:] == seg[:-1]] <= 0).any():
        raise ValueError(
            "buckets must be unique, sorted and on the width grid per key"
        )
    # each segment's grid: its observed rows land at start + grid position
    last = np.append(heads[1:], n) - 1
    size = pos[last] + 1
    start = np.zeros(len(heads), dtype=np.int64)
    np.cumsum(size[:-1], out=start[1:])
    m = int(start[-1] + size[-1])
    dest = start[seg] + pos
    seg_out = np.repeat(np.arange(len(heads)), size)
    observed = np.zeros(m, dtype=bool)
    observed[dest] = True
    src = np.zeros(m, dtype=np.int64)
    src[dest] = np.arange(n)
    take = pa.array(src, mask=~observed)
    lo = start[seg_out]
    cols = {
        "bucket_us": first[seg_out] + (np.arange(m) - lo) * np.int64(width_us),
        key_col: t[key_col].take(pa.array(heads[seg_out])),
    }
    for c in names[1:]:
        if c == "cnt":
            cnt = np.zeros(m, dtype=np.int64)
            cnt[dest] = t[c].to_numpy()
            cols[c] = cnt
        elif c in value_cols:
            v = np.full(m, np.nan)
            v[dest] = t[c].to_numpy(zero_copy_only=False).astype(np.float64)
            cols[c] = _fill_values(v, lo, lo + size[seg_out], mode)
        elif c != key_col:
            cols[c] = t[c].take(take)
    cols["filled"] = ~observed
    return pa.table({c: cols[c] for c in (*names, "filled")})


def _fill_values(v: np.ndarray, lo: np.ndarray, hi: np.ndarray, mode: str) -> np.ndarray:
    """Fill the NaNs of ``v`` within each row's segment ``[lo, hi)``: LOCF
    from the segment's last valid row before it; linear between its valid
    neighbours, or the last valid value after the segment's last one. A NaN
    before a segment's first valid row stays NaN in both modes."""
    valid = ~np.isnan(v)
    if valid.all():
        return v
    idx = np.arange(len(v))
    prev = np.maximum.accumulate(np.where(valid, idx, -1))
    has_prev = prev >= lo
    out = np.where(has_prev, v[prev], np.nan)
    if mode == "linear":
        nxt = np.minimum.accumulate(np.where(valid, idx, len(v))[::-1])[::-1]
        inner = has_prev & (nxt < hi) & ~valid
        if inner.any():
            out[inner] = np.interp(idx[inner], idx[valid], v[valid])
    return out
