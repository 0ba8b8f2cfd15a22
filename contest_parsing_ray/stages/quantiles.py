"""Exact distributed order statistics (quantile_disc) by histogram refinement.

The scale problem: an exact p99 over 10^12 values cannot sort — a global
``Dataset.sort`` is an all-to-all exchange of every byte just to read off
three ranks. This stage finds the exact k-th smallest with a few *streaming
counting passes* instead:

  1. Map each float64 to its order-preserving uint64 key (IEEE-754 total
     order: flip the sign bit for positives, all bits for negatives).
  2. Histogram pass: one ``map_batches`` over the value column counts keys
     into 2^16 equal-width sub-ranges of the current candidate interval.
     Each batch emits only its NON-ZERO buckets — tiny long-form partials
     ``(range_idx, bucket, cnt)`` that the driver folds into a dense
     65536-wide array as they stream (``iter_batches``; nothing
     materializes).
  3. The cumulative histogram locates the bucket holding each pending rank;
     that bucket becomes the next candidate interval. Each pass narrows the
     interval by 2^16, so even the full uint64 space resolves in <=4 passes;
     once an interval's population fits ``max_candidates`` (or the interval
     is a single key), a final filtered collect selects the exact element
     with ``np.partition``.

All pending quantiles refine in the SAME pass (the partial kernel histograms
every unresolved interval at once), so total cost is a handful of scans of
one column — each scan column-pruned at the parquet read by the caller.

There is one engine (``_refine``): every candidate interval is tagged with
a group id, and a function maps each batch's rows to group ids. A global
quantile (``exact_quantiles``) is the engine with one group, every row in
group 0; ``exact_quantiles_by_key`` makes each key a group, the null key
its own. Only the pass-0 count and the output shape differ.

Reference analog: the reference sorts whole frames to read off extremes
(``Joiner.py`` sort-based stats); this is the from-scratch distributed
replacement the north rule's 10^12-row tier stats need.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

_BITS = 16
_NBUCKET = 1 << _BITS


def _order_key(v: np.ndarray) -> np.ndarray:
    """float64 -> uint64 preserving total order (NaNs must be pre-dropped).

    -0.0 and +0.0 map to distinct adjacent keys — harmless for rank
    selection since equal-comparing values stay contiguous.
    """
    u = v.astype(np.float64).view(np.uint64)
    neg = (u >> np.uint64(63)).astype(bool)
    out = np.where(neg, ~u, u | np.uint64(1 << 63))
    return out.astype(np.uint64)


def _key_to_float(u: int) -> float:
    u = int(u)
    if u & (1 << 63):
        b = u & ~(1 << 63)
    else:
        b = (~u) & ((1 << 64) - 1)
    return float(np.uint64(b).view(np.float64))


def exact_quantiles(
    ds: ray.data.Dataset,
    value_col: str,
    qs: list[float],
    max_candidates: int = 4_000_000,
    batch_size: int = 262_144,
) -> pa.Table:
    """Exact ``quantile_disc`` (sorted[ceil(q*n)-1], SQL semantics) of
    ``value_col`` over the whole Dataset, nulls/NaNs excluded.

    Returns a small ``pa.Table (q: float64, value: float64)`` on the driver
    — quantiles are a scalar summary, not a dataset — with one row per
    distinct q, ascending; every value is null when the column has no
    non-null value. Driver memory is O(2^16 * len(qs)) per pass plus one
    <=``max_candidates`` float array in the final collect; every Ray pass
    streams with backpressure.

    Deterministic-rescan contract: the refinement loop re-executes ``ds``
    once per pass (count, histogram passes, final collect) and requires
    every scan to yield the SAME multiset of values. Reads of immutable
    files satisfy this; a nondeterministic upstream (unstable ``sample``/
    ``limit``, wall-clock-dependent transforms) does not — the mismatch
    surfaces as the _collect_exact candidate-count RuntimeError at best.
    ``materialize()`` such an input first (its blocks then pin; fine for
    the small inputs where nondeterminism is typical, and the multi-pass
    design exists precisely so LARGE deterministic inputs never have to).
    """
    qs = _distinct_qs(qs)
    if not qs:
        return pa.table({"q": pa.array([], pa.float64()),
                         "value": pa.array([], pa.float64())})

    # ---- pass 0: global non-null count (column-pruned, streaming) ----
    def cnt_batch(t: pa.Table) -> pa.Table:
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"c": pa.array([int((~np.isnan(v)).sum())], pa.int64())})

    n = sum(int(t["c"].to_numpy().sum()) for t in ds.map_batches(
        cnt_batch, batch_format="pyarrow", batch_size=batch_size
    ).iter_batches(batch_format="pyarrow"))

    got = _refine(ds, value_col, _one_group, [n], qs, max_candidates,
                  batch_size)
    return pa.table({
        "q": pa.array(qs, pa.float64()),
        "value": pa.array([got[(0, q)] for q in qs], pa.float64(),
                          from_pandas=True),
    })


def exact_quantiles_by_key(
    ds: ray.data.Dataset,
    key_col: str,
    value_col: str,
    qs: list[float],
    max_candidates: int = 4_000_000,
    batch_size: int = 262_144,
) -> pa.Table:
    """Exact per-key ``quantile_disc`` — ``GROUP BY key_col`` semantics with
    a null key as its own group (module-wide null-key-as-group policy),
    null/NaN values excluded per group.

    Every pending (key, quantile) interval refines in the SAME streaming
    pass, so the scan count stays a small constant regardless of how many
    keys there are. CONTRACT: driver memory is O(keys * len(qs) * 2^16 * 8B)
    per pass — sized for tier-stats key cardinalities (sources, event
    types, <= a few thousand keys). For high-cardinality keys use the
    rollups' mergeable quantile state instead (``stages/rollup.py``: sorted
    (value, count) pairs per group, ``state/sketches.py``; exact up to
    its distinct-value cap, within a fixed relative error past it). The
    deterministic-rescan contract of ``exact_quantiles`` applies here too
    (``ds`` is re-executed once per refinement pass).

    Returns ``pa.Table (key_col, q, value)`` sorted by (key, q), one row
    per key and distinct q, key column in the input's type; a key whose
    values are all null gets null values, and an input with no rows gives
    an empty table.
    """
    qs = _distinct_qs(qs)
    if not qs:
        return pa.table({key_col: pa.array([], pa.string()),
                         "q": pa.array([], pa.float64()),
                         "value": pa.array([], pa.float64())})

    # ---- pass 0: non-null-value count per key (streaming fold) ----------
    def cnt_batch(t: pa.Table) -> pa.Table:
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        nn = ~np.isnan(v)
        col = t[key_col].combine_chunks()
        enc = col.dictionary_encode()
        idx = enc.indices.fill_null(-1).to_numpy(zero_copy_only=False)
        idx = idx.astype(np.int64)
        kdict = enc.dictionary
        cnt = np.bincount(idx[nn & (idx >= 0)], minlength=len(kdict))
        keys_out = kdict
        cnts_out = cnt.astype(np.int64)
        # zero-count keys stay: a group whose values are all null still
        # exists in SQL GROUP BY (its quantile is NULL); same for null keys
        if (idx < 0).any():
            keys_out = pa.concat_arrays(
                [kdict, pa.array([None], kdict.type)])
            cnts_out = np.append(cnts_out, int((nn & (idx < 0)).sum()))
        return pa.table({"k": keys_out,
                         "c": pa.array(cnts_out, pa.int64())})

    counts: dict[object, int] = {}
    key_type = None
    for t in ds.map_batches(
        cnt_batch, batch_format="pyarrow", batch_size=batch_size
    ).iter_batches(batch_format="pyarrow"):
        key_type = t.schema.field("k").type
        for k, c in zip(t["k"].to_pylist(), t["c"].to_pylist()):
            counts[k] = counts.get(k, 0) + int(c)

    if not counts:
        return pa.table({key_col: pa.array([], key_type or pa.string()),
                         "q": pa.array([], pa.float64()),
                         "value": pa.array([], pa.float64())})

    # group id = the key's position in `keys`; the null key, when present,
    # is group len(keys), the id _key_ids gives it
    keys = sorted(k for k in counts if k is not None)
    all_keys = keys + ([None] if None in counts else [])
    vset = pa.array(keys, key_type) if keys else None

    got = _refine(ds, value_col, lambda t: _key_ids(t[key_col], vset),
                  [counts[k] for k in all_keys], qs, max_candidates,
                  batch_size)
    return pa.table({
        key_col: pa.array([k for k in all_keys for _ in qs], key_type),
        "q": pa.array(qs * len(all_keys), pa.float64()),
        "value": pa.array([got[(g, q)] for g in range(len(all_keys))
                           for q in qs], pa.float64(), from_pandas=True),
    })


def _distinct_qs(qs: list[float]) -> list[float]:
    if any(not (0.0 < q <= 1.0) for q in qs):
        raise ValueError(f"quantiles must be in (0, 1], got {qs}")
    return sorted({float(q) for q in qs})


def _one_group(t: pa.Table) -> np.ndarray:
    """Group ids of the global quantile: every row is group 0."""
    return np.zeros(t.num_rows, dtype=np.int64)


def _key_ids(col: pa.ChunkedArray, value_set: pa.Array | None) -> np.ndarray:
    """Each row's position in ``value_set``; a null key, or one not in the
    set, maps to ``len(value_set)`` (0 when there is no set)."""
    if value_set is None:
        return np.zeros(len(col), dtype=np.int64)
    kid = pc.index_in(col.combine_chunks().cast(value_set.type),
                      value_set=value_set)
    return kid.fill_null(len(value_set)).to_numpy(
        zero_copy_only=False).astype(np.int64)


def _refine(ds, value_col, group_ids, counts, qs, max_candidates,
            batch_size) -> dict[tuple[int, float], float]:
    """Exact ``quantile_disc`` of every (group, q) by histogram refinement.

    ``group_ids(t)`` maps a batch's rows to group ids, positions in
    ``counts`` (each group's non-NaN value count from pass 0); a row whose
    id names no group is skipped. Returns ``{(group, q): value}``, NaN for
    a group with no values.
    """
    resolved: dict[tuple[int, float], float] = {}
    # pending: one candidate uint64 interval [lo, hi) per group and
    # destination bucket; quantiles share an interval whenever their
    # 1-based ranks land in the same bucket. `below` counts the group's
    # values under lo.
    pending = []
    for g, n in enumerate(counts):
        if n == 0:
            resolved.update({(g, q): np.nan for q in qs})
            continue
        ranks = {q: int(-(-q * n // 1)) for q in qs}  # ceil(q*n)
        pending.append({"g": g, "lo": 0, "hi": 1 << 64, "below": 0,
                        "ranks": ranks, "count": n})

    while pending:
        collect_now, refine = [], []
        for iv in pending:
            if iv["hi"] - iv["lo"] == 1:  # a single key: it is the value
                val = _key_to_float(iv["lo"])
                resolved.update({(iv["g"], q): val for q in iv["ranks"]})
            elif iv["count"] <= max_candidates:
                collect_now.append(iv)
            else:
                refine.append(iv)

        if collect_now:
            _collect_exact(ds, value_col, group_ids, collect_now, resolved,
                           batch_size)
        if not refine:
            break

        # bucket geometry per interval: bw >= 1, last bucket absorbs the
        # remainder so every key in [lo, hi) lands in [0, _NBUCKET)
        for iv in refine:
            width = iv["hi"] - iv["lo"]
            iv["bw"] = max(width // _NBUCKET, 1)
            iv["nb"] = min(_NBUCKET, -(-width // iv["bw"]))

        hists = _histogram_pass(ds, value_col, group_ids, refine, batch_size)

        pending = []
        for iv, hist in zip(refine, hists):
            csum = np.cumsum(hist)
            by_bucket: dict[int, dict[float, int]] = {}
            for q, k in iv["ranks"].items():
                rel = k - iv["below"]  # 1-based rank within interval
                b_idx = int(np.searchsorted(csum, rel, side="left"))
                by_bucket.setdefault(b_idx, {})[q] = k
            for b_idx, ranks in by_bucket.items():
                lo = iv["lo"] + b_idx * iv["bw"]
                hi = (iv["hi"] if b_idx == iv["nb"] - 1
                      else min(iv["hi"], lo + iv["bw"]))
                below = iv["below"] + (int(csum[b_idx - 1]) if b_idx else 0)
                pending.append({"g": iv["g"], "lo": lo, "hi": hi,
                                "below": below, "ranks": ranks,
                                "count": int(hist[b_idx])})
    return resolved


def _interval_rows(t, value_col, group_ids, bounds):
    """Yield ``(i, keys, values)`` for each interval ``i`` of ``bounds``
    (group, lo, hi inclusive) that holds rows of batch ``t``: the order
    keys and values of those rows, NaNs dropped."""
    v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
    nn = ~np.isnan(v)
    g, v = group_ids(t)[nn], v[nn]
    u = _order_key(v)
    for i, (gi, lo, hi) in enumerate(bounds):
        m = (g == gi) & (u >= lo) & (u <= hi)
        if m.any():
            yield i, u[m], v[m]


def _bounds(ivs):
    return [(iv["g"], np.uint64(iv["lo"]), np.uint64(iv["hi"] - 1))
            for iv in ivs]


def _histogram_pass(ds, value_col, group_ids, ivs, batch_size):
    """One streaming pass: per-batch non-zero bucket counts for every
    candidate interval, folded into dense arrays on the driver."""
    bounds = _bounds(ivs)
    geos = [(np.uint64(iv["lo"]), np.uint64(iv["bw"]), iv["nb"])
            for iv in ivs]

    def partial(t: pa.Table) -> pa.Table:
        r = [np.empty(0, np.int32)]
        b = [np.empty(0, np.int32)]
        c = [np.empty(0, np.int64)]
        for i, u, _ in _interval_rows(t, value_col, group_ids, bounds):
            lo, bw, nb = geos[i]
            bucket = ((u - lo) // bw).astype(np.int64)
            np.minimum(bucket, nb - 1, out=bucket)
            cnt = np.bincount(bucket, minlength=nb)
            nz = np.flatnonzero(cnt)
            r.append(np.full(len(nz), i, dtype=np.int32))
            b.append(nz.astype(np.int32))
            c.append(cnt[nz].astype(np.int64))
        return pa.table({"r": np.concatenate(r), "b": np.concatenate(b),
                         "c": np.concatenate(c)})

    hists = [np.zeros(iv["nb"], dtype=np.int64) for iv in ivs]
    for t in ds.map_batches(
        partial, batch_format="pyarrow", batch_size=batch_size
    ).iter_batches(batch_format="pyarrow"):
        r = t["r"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        c = t["c"].to_numpy(zero_copy_only=False)
        for i in np.unique(r):
            m = r == i
            np.add.at(hists[i], b[m], c[m])
    return hists


def _collect_exact(ds, value_col, group_ids, ivs, resolved, batch_size):
    """Final pass: pull only the values inside the (small) candidate
    intervals and select each rank exactly with np.partition."""
    bounds = _bounds(ivs)

    def keep(t: pa.Table) -> pa.Table:
        r, vals = [np.empty(0, np.int32)], [np.empty(0, np.float64)]
        for i, _, v in _interval_rows(t, value_col, group_ids, bounds):
            r.append(np.full(len(v), i, dtype=np.int32))
            vals.append(v)
        return pa.table({"r": np.concatenate(r), "v": np.concatenate(vals)})

    bufs: list[list[np.ndarray]] = [[] for _ in ivs]
    for t in ds.map_batches(
        keep, batch_format="pyarrow", batch_size=batch_size
    ).iter_batches(batch_format="pyarrow"):
        r = t["r"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        for i in np.unique(r):
            bufs[i].append(v[r == i])

    for iv, parts in zip(ivs, bufs):
        arr = np.concatenate(parts) if parts else np.array([], dtype=np.float64)
        for q, k in iv["ranks"].items():
            j = k - iv["below"] - 1  # 0-based within interval
            if not (0 <= j < len(arr)):
                raise RuntimeError(
                    f"rank {k} of group {iv['g']} fell outside its candidate "
                    f"interval (got {len(arr)} values, below={iv['below']}) — "
                    f"histogram/filter disagree"
                )
            resolved[(iv["g"], q)] = float(np.partition(arr, j)[j])


def winsorize_by_key(
    ds: ray.data.Dataset,
    key_col: str,
    value_col: str,
    q_lo: float,
    q_hi: float,
    out_col: str | None = None,
    max_candidates: int = 4_000_000,
    batch_size: int = 262_144,
) -> ray.data.Dataset:
    """Outlier-robust clipping: every value clamped to its OWN key's exact
    [q_lo, q_hi] quantile_disc bounds (null values stay null; keys whose
    bounds are undefined — all-null groups — pass values through).

    Composition showcase: the per-key bounds come from
    :func:`exact_quantiles_by_key` (a few counting passes, no sort), are
    broadcast once via ``ray.put``, and the clip itself is a stateless
    zero-copy ``pyarrow.compute`` map — the large side never shuffles.
    """
    if not (0.0 < q_lo <= q_hi <= 1.0):
        raise ValueError(f"need 0 < q_lo <= q_hi <= 1, got {q_lo}, {q_hi}")
    out_c = out_col or f"{value_col}_wins"

    qt = exact_quantiles_by_key(
        ds, key_col, value_col, sorted({q_lo, q_hi}),
        max_candidates=max_candidates, batch_size=batch_size,
    )
    lo_of: dict[object, float] = {}
    hi_of: dict[object, float] = {}
    for k, q, v in zip(qt[key_col].to_pylist(), qt["q"].to_pylist(),
                       qt["value"].to_pylist()):
        if v is None:
            continue
        if q == q_lo:
            lo_of[k] = v
        if q == q_hi:
            hi_of[k] = v

    # dense bound arrays indexed by key position; unseen/null-bounded keys
    # fall through to the +-inf pass-through slot at the end
    bkeys = sorted(set(lo_of) | set(hi_of), key=repr)
    lo_arr = np.array([lo_of.get(k, -np.inf) for k in bkeys] + [-np.inf])
    hi_arr = np.array([hi_of.get(k, np.inf) for k in bkeys] + [np.inf])
    vset = pa.array(bkeys) if bkeys else None
    bounds_ref = ray.put((vset, lo_arr, hi_arr))

    def clip(t: pa.Table) -> pa.Table:
        vs, lo_a, hi_a = ray.get(bounds_ref)
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        kid = _key_ids(t[key_col], vs)
        out = np.minimum(np.maximum(v, lo_a[kid]), hi_a[kid])
        out[np.isnan(v)] = np.nan
        return t.append_column(out_c, pa.array(out, from_pandas=True))

    return ds.map_batches(clip, batch_format="pyarrow",
                          batch_size=batch_size)


def minmax_normalize_by_key(
    ds: ray.data.Dataset,
    key_col: str,
    value_col: str,
    out_col: str | None = None,
    batch_size: int = 262_144,
) -> ray.data.Dataset:
    """Scale each value into [0, 1] by its OWN key's min/max (SQL
    ``(v - MIN(v) OVER (PARTITION BY key)) / (MAX..-MIN..)``); null when
    the value is null or the key's range is zero/undefined.

    Two-pass broadcast shape like winsorize, but the bounds pass is a
    single streaming fold of per-batch (key, min, max) partials — exact
    elements, so the normalized output is bit-identical to the SQL window
    expression (same two double ops). The large side never shuffles.
    """
    out_c = out_col or f"{value_col}_norm"

    def partial(t: pa.Table) -> pa.Table:
        col = t[key_col].combine_chunks()
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        nn = ~np.isnan(v)
        enc = col.dictionary_encode()
        # null keys form their OWN group (SQL PARTITION BY groups NULLs
        # together) — the -1 sentinel sorts first and round-trips to a
        # null "k" entry below, like winsorize_by_key's null-key slot
        idx = enc.indices.fill_null(-1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        ks, vs_ = idx[nn], v[nn]
        if not len(ks):
            return pa.table({"k": pa.array([], enc.dictionary.type),
                             "mn": pa.array([], pa.float64()),
                             "mx": pa.array([], pa.float64())})
        order = np.argsort(ks, kind="stable")
        ks_s, vs_s = ks[order], vs_[order]
        first = np.ones(len(ks_s), dtype=bool)
        first[1:] = ks_s[1:] != ks_s[:-1]
        starts = np.flatnonzero(first)
        mn = np.minimum.reduceat(vs_s, starts)
        mx = np.maximum.reduceat(vs_s, starts)
        gk = ks_s[starts]
        k_out = enc.dictionary.take(
            pa.array([None if i < 0 else int(i) for i in gk], pa.int64())
        )
        return pa.table({
            "k": k_out,
            "mn": pa.array(mn),
            "mx": pa.array(mx),
        })

    lo_of: dict[object, float] = {}
    hi_of: dict[object, float] = {}
    ktype: pa.DataType | None = None
    for t in ds.map_batches(
        partial, batch_format="pyarrow", batch_size=batch_size
    ).iter_batches(batch_format="pyarrow"):
        ktype = t["k"].type
        for k, mn, mx in zip(t["k"].to_pylist(), t["mn"].to_pylist(),
                             t["mx"].to_pylist()):
            lo_of[k] = min(lo_of.get(k, np.inf), mn)
            hi_of[k] = max(hi_of.get(k, -np.inf), mx)

    bkeys = sorted(lo_of, key=repr)
    lo_arr = np.array([lo_of[k] for k in bkeys] + [np.nan])
    hi_arr = np.array([hi_of[k] for k in bkeys] + [np.nan])
    # typed explicitly: an all-null key set would otherwise infer a
    # null-typed value_set the key column cannot cast to
    vset = pa.array(bkeys, type=ktype) if bkeys else None
    bounds_ref = ray.put((vset, lo_arr, hi_arr))

    def norm(t: pa.Table) -> pa.Table:
        vs, lo_a, hi_a = ray.get(bounds_ref)
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        kid = _key_ids(t[key_col], vs)
        lo, hi = lo_a[kid], hi_a[kid]
        with np.errstate(invalid="ignore", divide="ignore"):
            out = (v - lo) / (hi - lo)
        out[~np.isfinite(out)] = np.nan  # zero range / missing bounds
        return t.append_column(out_c, pa.array(out, from_pandas=True))

    return ds.map_batches(norm, batch_format="pyarrow",
                          batch_size=batch_size)


def robust_zscore_by_key(
    ds: ray.data.Dataset,
    key_col: str,
    value_col: str,
    out_col: str | None = None,
    max_candidates: int = 4_000_000,
    batch_size: int = 262_144,
) -> ray.data.Dataset:
    """Median/MAD robust z-score per key: ``(x - median_k) / (1.4826 *
    MAD_k)`` with median = quantile_disc(0.5) and MAD =
    quantile_disc(|x - median_k|, 0.5) — the outlier score a plain
    mean/std z-score can't give on heavy-tailed data (the anomaly-family
    companion of rolling_zscore; 1.4826 makes MAD consistent with sigma
    under normality). Null values stay null; zero-MAD or undefined keys
    yield null scores.

    Fully streaming composition of the shared-pass quantile engine: pass
    group 1 resolves every key's median; a derived ``|x - med|`` column
    (computed on the fly per batch, never materialized) feeds pass group
    2 for the MADs; both broadcast once and the final score is a
    stateless vectorized map. The large side never shuffles.
    """
    out_c = out_col or f"{value_col}_rz"

    med_t = exact_quantiles_by_key(
        ds, key_col, value_col, [0.5],
        max_candidates=max_candidates, batch_size=batch_size,
    )
    med_of = {k: v for k, v in zip(med_t[key_col].to_pylist(),
                                   med_t["value"].to_pylist())
              if v is not None}

    mkeys = sorted(med_of, key=repr)
    med_arr = np.array([med_of[k] for k in mkeys] + [np.nan])
    mvset = pa.array(mkeys) if mkeys else None
    med_ref = ray.put((mvset, med_arr))

    def absdev(t: pa.Table) -> pa.Table:
        vs, med = ray.get(med_ref)
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        d = np.abs(v - med[_key_ids(t[key_col], vs)])
        return pa.table({
            key_col: t[key_col],
            "__absdev": pa.array(d, from_pandas=True),
        })

    dev_ds = ds.map_batches(absdev, batch_format="pyarrow",
                            batch_size=batch_size)
    mad_t = exact_quantiles_by_key(
        dev_ds, key_col, "__absdev", [0.5],
        max_candidates=max_candidates, batch_size=batch_size,
    )
    mad_of = {k: v for k, v in zip(mad_t[key_col].to_pylist(),
                                   mad_t["value"].to_pylist())
              if v is not None}
    mad_arr = np.array([mad_of.get(k, np.nan) for k in mkeys] + [np.nan])
    both_ref = ray.put((mvset, med_arr, mad_arr))

    def score(t: pa.Table) -> pa.Table:
        vs, med, mad = ray.get(both_ref)
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        kid = _key_ids(t[key_col], vs)
        denom = 1.4826 * mad[kid]
        with np.errstate(invalid="ignore", divide="ignore"):
            rz = (v - med[kid]) / denom
        rz[~np.isfinite(rz)] = np.nan
        return t.append_column(out_c, pa.array(rz, from_pandas=True))

    return ds.map_batches(score, batch_format="pyarrow",
                          batch_size=batch_size)
