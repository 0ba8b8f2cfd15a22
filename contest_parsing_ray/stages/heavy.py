"""Exact heavy hitters: keys with count * k > n, found in two streaming
passes — no key-cardinality-sized shuffle ever happens.

At 10^12 rows a plain ``GROUP BY key HAVING count > n/k`` moves one row per
DISTINCT key through an all-to-all exchange just to throw almost all of
them away. This stage instead:

  1. **Candidates pass** — per-batch Misra-Gries summaries of size
     ``2k`` (a batch's exact value_counts compressed by subtracting its
     (2k+1)-th largest count), folded on the driver with the mergeable-MG
     rule (sum weights, re-compress). The fold undercounts any key by at
     most n/(2k+1) < n/k (Agarwal et al., "Mergeable Summaries", PODS'12),
     so every true heavy hitter survives; the survivor set is <= 2k keys.
     Each batch also reports its row count, giving exact n in the same
     pass.
  2. **Verify pass** — the <=2k candidates broadcast to a second scan
     (``pc.index_in`` + bincount per batch, long-form partials), producing
     EXACT counts; the final filter ``cnt * k > n`` is integer-exact.

Per-batch output is <= 2k tiny (key, weight) rows; driver state is O(k).
The reference has no sketch analog — its Polars value_counts is the
single-process shortcut this replaces (SURVEY A-family).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def _batch_counts(t: pa.Table, key_col: str):
    """(keys_array, counts) of non-null keys in the batch, vectorized."""
    col = t[key_col].combine_chunks()
    enc = col.dictionary_encode()
    idx = enc.indices.fill_null(-1).to_numpy(zero_copy_only=False)
    idx = idx.astype(np.int64)
    cnt = np.bincount(idx[idx >= 0], minlength=len(enc.dictionary))
    return enc.dictionary, cnt.astype(np.int64)


def _compress(weights: np.ndarray, m: int) -> np.ndarray:
    """Misra-Gries compress: decrement all by the (m+1)-th largest weight
    so at most m stay positive. Returns the adjusted weights (>=0)."""
    if (weights > 0).sum() <= m:
        return weights
    kth = np.partition(weights, len(weights) - (m + 1))[len(weights) - (m + 1)]
    return np.maximum(weights - kth, 0)


def heavy_hitters(
    ds: ray.data.Dataset,
    key_col: str,
    k: int,
    batch_size: int = 262_144,
) -> pa.Table:
    """All keys whose exact count satisfies ``cnt * k > n`` (i.e.
    cnt > n/k), with their exact counts. Null keys are ignored (SQL
    COUNT(*) GROUP BY would keep them; heavy-hitter semantics are about
    identifiable keys — callers wanting the null group should fill first).

    Returns ``pa.Table (key_col, cnt: int64)`` sorted by (-cnt, key).
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    m = 2 * k

    # ---- pass 1: mergeable MG partials + exact n ------------------------
    def mg_partial(t: pa.Table) -> pa.Table:
        keys, cnt = _batch_counts(t, key_col)
        n_batch = int(cnt.sum())  # non-null keys only, matching the filter
        w = _compress(cnt, m)
        nz = np.flatnonzero(w)
        if len(nz) == 0:
            return pa.table({
                "k": pa.array([None], keys.type),
                "w": pa.array([0], pa.int64()),
                "n": pa.array([n_batch], pa.int64()),
                "first": pa.array([True]),
            })
        return pa.table({
            "k": keys.take(pa.array(nz, pa.int64())),
            "w": pa.array(w[nz], pa.int64()),
            "n": pa.array(np.full(len(nz), n_batch, dtype=np.int64)),
            "first": pa.array(
                np.concatenate([[True], np.zeros(len(nz) - 1, bool)])),
        })

    summary: dict[object, int] = {}
    n_total = 0
    key_type = None
    for t in ds.map_batches(
        mg_partial, batch_format="pyarrow", batch_size=batch_size
    ).iter_batches(batch_format="pyarrow"):
        key_type = t.schema.field("k").type
        firsts = t["first"].to_numpy(zero_copy_only=False)
        ns = t["n"].to_numpy(zero_copy_only=False)
        n_total += int(ns[firsts].sum())
        for kk, w in zip(t["k"].to_pylist(), t["w"].to_pylist()):
            if kk is not None and w:
                summary[kk] = summary.get(kk, 0) + int(w)
        if len(summary) > 8 * m:  # bound driver state between folds
            kv = list(summary.items())
            w = _compress(np.array([v for _, v in kv], dtype=np.int64), m)
            summary = {kk: int(ww) for (kk, _), ww in zip(kv, w) if ww}

    if summary:
        kv = list(summary.items())
        w = _compress(np.array([v for _, v in kv], dtype=np.int64), m)
        summary = {kk: int(ww) for (kk, _), ww in zip(kv, w) if ww}

    if not summary or n_total == 0:
        return pa.table({key_col: pa.array([], key_type or pa.string()),
                         "cnt": pa.array([], pa.int64())})

    # ---- pass 2: exact counts of the <=2k candidates --------------------
    cand = sorted(summary)
    vset = pa.array(cand, key_type)

    def exact_partial(t: pa.Table) -> pa.Table:
        col = t[key_col].combine_chunks()
        idx = pc.index_in(col.cast(vset.type), value_set=vset)
        idx = idx.fill_null(-1).to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = np.bincount(idx[idx >= 0], minlength=len(cand))
        nz = np.flatnonzero(cnt)
        return pa.table({"i": pa.array(nz.astype(np.int64)),
                         "c": pa.array(cnt[nz].astype(np.int64))})

    exact = np.zeros(len(cand), dtype=np.int64)
    for t in ds.map_batches(
        exact_partial, batch_format="pyarrow", batch_size=batch_size
    ).iter_batches(batch_format="pyarrow"):
        np.add.at(exact, t["i"].to_numpy(zero_copy_only=False),
                  t["c"].to_numpy(zero_copy_only=False))

    keep = np.flatnonzero(exact * k > n_total)
    order = sorted(keep, key=lambda i: (-int(exact[i]), cand[i]))
    return pa.table({
        key_col: pa.array([cand[i] for i in order], key_type),
        "cnt": pa.array([int(exact[i]) for i in order], pa.int64()),
    })
