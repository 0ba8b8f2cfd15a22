"""Deterministic hash-priority sampling — the data-mixing primitives a
training-data pipeline needs (sample source A at 25%, keep 100 docs per
source for eval, ...), built so the sample is a pure FUNCTION of the row
id: no RNG state, no partitioning dependence, reproducible across engines
(the same rows fall out of the DuckDB oracle, which is how the driver
verifies these value-exactly).

Priority = the first 8 bytes of ``md5(str(id))`` as uint64 (DuckDB:
``CAST(concat('0x', substr(md5(CAST(id AS VARCHAR)), 1, 16)) AS
UBIGINT)``). md5 here is a portable uniform hash, not crypto — and it is
computed VECTORIZED: ids (plus the optional seed prefix) that fit one
64-byte MD5 block (<= 55 bytes, i.e. every realistic doc id) are padded
into an (n, 64) byte matrix straight from the Arrow string buffers and
pushed through the 64 MD5 rounds as numpy uint32 array ops — no per-row
hashlib call, no Python loop, and the cross-engine SQL oracle contract
is untouched. Longer ids take a per-row hashlib fallback (same digest).

- Bernoulli rate sampling is shuffle-FREE: one stateless map over the
  stream, keep iff priority < rate * 2^64. Per-key rates ride the same
  map via a broadcast dict (data mixing across sources).
- Per-key top-k ("k docs per source") is a mergeable partial top-k: each
  batch keeps its k smallest (priority, id) per key, ONE hash exchange
  moves <= k rows per (key, batch), the partition merge re-applies the
  same selection — the same idempotent-combiner shape as m4_downsample.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ._shuffle import hash_partitioned_map

_SCALE = 2**64

# MD5 round constants/shifts (RFC 1321) for the vectorized kernel
_MD5_K = np.floor(np.abs(np.sin(np.arange(1, 65, dtype=np.float64)))
                  * 2**32).astype(np.uint64).astype(np.uint32)
_MD5_S = np.array([7, 12, 17, 22] * 4 + [5, 9, 14, 20] * 4
                  + [4, 11, 16, 23] * 4 + [6, 10, 15, 21] * 4, np.uint32)
_NULL_PRI = np.uint64(0xFFFFFFFFFFFFFFFF)  # nulls never sampled


def _md5_rounds(M: np.ndarray) -> np.ndarray:
    """(16, n) little-endian uint32 message blocks (TRANSPOSED so each
    word ``M[g]`` is a contiguous column) → uint64 priority (the
    big-endian read of digest bytes 0..7, i.e.
    ``bswap32(a) << 32 | bswap32(b)``). One single-block MD5 per row; all
    64 rounds as in-place whole-column uint32 ops (two scratch buffers,
    zero per-round allocations)."""
    n = M.shape[1]
    A = np.full(n, 0x67452301, np.uint32)
    B = np.full(n, 0xEFCDAB89, np.uint32)
    C = np.full(n, 0x98BADCFE, np.uint32)
    D = np.full(n, 0x10325476, np.uint32)
    F = np.empty(n, np.uint32)
    t = np.empty(n, np.uint32)
    with np.errstate(over="ignore"):
        for i in range(64):
            if i < 16:  # F = D ^ (B & (C ^ D))
                np.bitwise_xor(C, D, out=F)
                np.bitwise_and(F, B, out=F)
                np.bitwise_xor(F, D, out=F)
                g = i
            elif i < 32:  # F = C ^ (D & (B ^ C))
                np.bitwise_xor(B, C, out=F)
                np.bitwise_and(F, D, out=F)
                np.bitwise_xor(F, C, out=F)
                g = (5 * i + 1) % 16
            elif i < 48:  # F = B ^ C ^ D
                np.bitwise_xor(B, C, out=F)
                np.bitwise_xor(F, D, out=F)
                g = (3 * i + 5) % 16
            else:  # F = C ^ (B | ~D)
                np.bitwise_not(D, out=F)
                np.bitwise_or(F, B, out=F)
                np.bitwise_xor(F, C, out=F)
                g = (7 * i) % 16
            F += A
            F += _MD5_K[i]
            F += M[g]
            s = int(_MD5_S[i])
            np.left_shift(F, s, out=t)
            np.right_shift(F, 32 - s, out=F)
            np.bitwise_or(t, F, out=t)
            t += B
            A, D, C, B, t = D, C, B, t, A  # rotate; old A becomes scratch
        a = np.uint32(0x67452301) + A
        b = np.uint32(0xEFCDAB89) + B
    return ((a.byteswap().astype(np.uint64) << np.uint64(32))
            | b.byteswap().astype(np.uint64))


def _as_string_array(ids) -> pa.Array:
    """Normalize any id container to a large_string Arrow array with the
    ``str(x)`` semantics of the original per-row implementation (ints and
    strings — the id contract — cast identically)."""
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    elif isinstance(ids, pa.Array):
        pass
    elif isinstance(ids, pd.Series):
        ids = pa.Array.from_pandas(ids)
    else:
        ids = pa.array(list(ids))
    if not pa.types.is_large_string(ids.type):
        ids = ids.cast(pa.large_string())
    return ids


def md5_priority(ids, prefix: bytes = b"") -> np.ndarray:
    """uint64 sampling priority per id: int(md5(prefix + str(id))[:16], 16).

    Vectorized: Arrow string buffers → padded (n, 64) single-block MD5
    matrix → numpy round kernel. Ids longer than one block (55 bytes
    incl. prefix — not a realistic doc id) fall back to hashlib per row;
    null ids get the max priority (never sampled, sort last)."""
    col = _as_string_array(ids)
    n = len(col)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    P = len(prefix)
    raw = np.frombuffer(col.buffers()[1], dtype=np.int64)[
        col.offset : col.offset + n + 1
    ]
    data_buf = col.buffers()[2]
    data = (np.frombuffer(data_buf, dtype=np.uint8)[raw[0] : raw[-1]]
            if data_buf is not None else np.zeros(0, np.uint8))
    offs = (raw - raw[0]).astype(np.int64)
    lengths = np.diff(offs)
    valid = np.ones(n, dtype=bool)
    if col.null_count:
        valid = ~col.is_null().to_numpy(zero_copy_only=False)
    total = lengths + P
    short = valid & (total <= 55)
    # scatter the utf-8 bytes of the short rows into the block matrix
    # (flat 1D scatter — ~2x faster than 2D fancy indexing)
    mat = np.zeros((n, 64), dtype=np.uint8)
    if P:
        mat[:, :P] = np.frombuffer(prefix, dtype=np.uint8)
    flat = mat.reshape(-1)
    if short.all() and n and lengths.min() == lengths.max():
        # fixed-width ids (doc-%06d corpora): a reshape beats the scatter
        L = int(lengths[0])
        if L:
            mat[:, P : P + L] = data.reshape(n, L)
    elif short.all():
        # common case: every byte of `data` lands in the matrix — the
        # source index is just arange, no gather needed
        row_of = np.repeat(np.arange(n), lengths)
        dst = (row_of << 6) + P + (np.arange(len(data))
                                   - np.repeat(offs[:-1], lengths))
        flat[dst] = data
    else:
        use_len = np.where(short, lengths, 0)
        row_of = np.repeat(np.arange(n), use_len)
        if len(row_of):
            col_in_row = (np.arange(len(row_of))
                          - np.repeat(np.cumsum(use_len) - use_len, use_len))
            flat[(row_of << 6) + P + col_in_row] = data[
                np.repeat(offs[:-1], use_len) + col_in_row
            ]
    flat[(np.flatnonzero(short) << 6) + (P + lengths)[short]] = 0x80
    mat.view("<u8")[short, 7] = (total[short] * 8).astype(np.uint64)
    out = _md5_rounds(np.ascontiguousarray(mat.view("<u4").T))
    out[~valid] = _NULL_PRI
    long_rows = np.flatnonzero(valid & ~short)
    for i in long_rows:  # >55-byte ids: rare, same digest via hashlib
        s = col[int(i)].as_py()
        out[i] = np.uint64(int.from_bytes(
            hashlib.md5(prefix + s.encode()).digest()[:8], "big"))
    return out


def rate_threshold(rate: float) -> int:
    if not (0.0 <= rate <= 1.0):
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    return min(int(rate * _SCALE), _SCALE - 1) if rate < 1.0 else _SCALE


def hash_sample_rate(
    ds: ray.data.Dataset,
    id_col: str,
    rate: float | None = None,
    key_col: str | None = None,
    rate_by_key: dict | None = None,
) -> ray.data.Dataset:
    """Deterministic Bernoulli sample: keep a row iff
    ``md5_priority(id) < rate * 2^64``. With ``rate_by_key`` the rate is
    looked up per ``key_col`` value (missing keys -> rate 0), which is the
    source-mixing form; the dict rides to every task as a closure constant
    (broadcast once by Ray). Shuffle-free and restart-stable: the same
    rows survive on any cluster shape or retry."""
    if (rate is None) == (rate_by_key is None):
        raise ValueError("pass exactly one of rate / rate_by_key")
    if rate_by_key is not None and key_col is None:
        raise ValueError("rate_by_key requires key_col")
    thr = rate_threshold(rate) if rate is not None else None
    thr_by_key = (
        {k: rate_threshold(r) for k, r in rate_by_key.items()}
        if rate_by_key is not None
        else None
    )

    def keep(batch: pa.Table) -> pa.Table:
        pri = md5_priority(batch[id_col])
        if thr is not None:
            mask = pri < np.uint64(thr) if thr < _SCALE else np.ones(len(pri), bool)
        else:
            # dictionary-encode the key column once, build per-distinct-key
            # threshold arrays; thr == 2^64 (rate 1.0) can't live in uint64,
            # so it rides a separate keep-all flag instead of a clamp
            enc = batch[key_col].combine_chunks().dictionary_encode()
            kvals = enc.dictionary.to_pylist()
            t_of = [thr_by_key.get(k, 0) for k in kvals]
            thr_u = np.array([min(t, _SCALE - 1) for t in t_of], np.uint64)
            full = np.array([t >= _SCALE for t in t_of], bool)
            code = enc.indices.fill_null(-1).to_numpy(zero_copy_only=False)
            mask = np.zeros(len(pri), dtype=bool)
            ok = code >= 0  # null keys -> rate 0
            mask[ok] = (pri[ok] < thr_u[code[ok]]) | full[code[ok]]
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def hash_sample_topk(
    ds: ray.data.Dataset,
    key_col: str,
    id_col: str,
    k: int,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Deterministic stratified sample: the ``k`` rows with the smallest
    ``(md5_priority(id), id)`` per ``key_col`` value — a uniform random
    (but reproducible) k-subset per stratum. Mergeable + idempotent
    selection: per-batch partial top-k, one hash exchange of <= k rows
    per (key, batch), same selector per partition."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def select(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return df
        if "__pri" not in df.columns:
            df = df.assign(__pri=md5_priority(df[id_col]))
        df = df.sort_values(["__pri", id_col], kind="stable")
        return df.groupby(key_col, sort=False, dropna=False).head(k)

    partials = ds.map_batches(select, batch_format="pandas")
    out = hash_partitioned_map(
        partials, [key_col], select,
        num_partitions=num_partitions, batch_format="pandas",
    )
    return out.map_batches(
        lambda df: df.drop(columns="__pri"), batch_format="pandas"
    )


def hash_sample_weighted(
    ds: ray.data.Dataset,
    id_col: str,
    weight_col: str,
    k: int,
) -> ray.data.Dataset:
    """Deterministic weighted sample WITHOUT replacement (Efraimidis &
    Spirakis 2006, A-ES): the k rows with the largest ``u^(1/w)`` where
    ``u = (md5_priority(id) + 0.5) / 2^64`` and ``w = weight_col`` —
    inclusion probability proportional to weight, reproducible because u
    is a pure function of the id.

    Weights are cast to float64. A row whose weight is null, NaN,
    infinite or ``<= 0`` is dropped; a weight that does not parse as a
    number (a string column holding ``"abc"``) raises instead of being
    dropped, so a dirty weight column fails the job.

    Mergeable: each batch pre-prunes to its own top-k, the global sort
    sees <= k x batches rows, ties break on id. The float key is NOT
    emitted: libm ``pow`` differs across engines by ~1 ulp, which is
    harmless for SELECTION (key gaps are orders of magnitude wider at any
    realistic k/n) but would fail a bit-exact value compare."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def partial(t: pa.Table) -> pa.Table:
        # arrow-native: no pandas roundtrip (it upcasts nullable int
        # columns to float64, corrupting the output schema)
        w = pc.cast(t[weight_col], pa.float64(), safe=False).to_numpy(
            zero_copy_only=False
        )
        ok = np.isfinite(w) & (w > 0)
        t = t.filter(pa.array(ok))
        key = np.zeros(t.num_rows, dtype=np.float64)
        if t.num_rows:
            u = (md5_priority(t[id_col]).astype(np.float64) + 0.5) / float(
                2**64
            )
            key = np.power(u, 1.0 / w[ok])
        t = t.append_column("__key", pa.array(key))
        idx = pc.sort_indices(
            t, sort_keys=[("__key", "descending"), (id_col, "ascending")]
        )
        return t.take(idx.slice(0, k))

    pruned = ds.map_batches(partial, batch_format="pyarrow")
    top = pruned.sort(["__key", id_col], descending=[True, False]).limit(k)
    return top.map_batches(
        lambda t: t.drop_columns(["__key"]), batch_format="pyarrow"
    )


def hash_split(
    ds: ray.data.Dataset,
    id_col: str,
    fractions: dict[str, float],
    out_col: str = "split",
) -> ray.data.Dataset:
    """Deterministic train/val/test assignment: the md5 priority of the id
    partitions [0, 2^64) into contiguous bands sized by ``fractions``
    (insertion order; they must sum to 1). A row's split is a pure
    function of its id — identical on any cluster shape, across restarts,
    and across engines (the SQL oracle recomputes the same bands from the
    same md5) — the property that keeps eval sets stable as the corpus
    is re-sharded or appended to. Shuffle-free single map.
    """
    total = sum(fractions.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {total}")
    names = list(fractions)
    # cumulative upper bounds in uint64 space; last band pinned to 2^64
    bounds = []
    acc = 0.0
    for i, n in enumerate(names):
        acc += fractions[n]
        bounds.append((1 << 64) if i == len(names) - 1
                      else min(int(acc * (1 << 64)), (1 << 64)))
    i_bounds = [int(b) for b in bounds]

    def assign(batch: pa.Table) -> pa.Table:
        pri = md5_priority(batch[id_col])
        idx = np.zeros(len(pri), dtype=np.int64)
        for i, ub in enumerate(i_bounds[:-1]):
            idx += (pri >= np.uint64(ub)).astype(np.int64)
        lab = pa.array(np.array(names, dtype=object)[idx], pa.string())
        return batch.append_column(out_col, lab)

    return ds.map_batches(assign, batch_format="pyarrow")


def seeded_md5_priority(ids, seed: int) -> np.ndarray:
    """uint64 shuffle key per id: int(md5(f"{seed}:{id}")[:16], 16).

    Same portable-hash contract as :func:`md5_priority` (DuckDB:
    ``md5(concat('<seed>:', id))``), with the seed prefixed so every seed
    is an independent permutation of the corpus. Rides the same
    vectorized single-block kernel (the prefix occupies the first bytes
    of every row's MD5 block)."""
    return md5_priority(ids, prefix=f"{int(seed)}:".encode())


def _with_shuffle_cols(
    ds: ray.data.Dataset, id_col: str, seed: int, num_shards: int
) -> ray.data.Dataset:
    def add(batch: pa.Table) -> pa.Table:
        pri = seeded_md5_priority(batch[id_col], seed)
        shard = (pri % np.uint64(num_shards)).astype(np.int64)
        return batch.append_column(
            "__prio", pa.array(pri)
        ).append_column("shard", pa.array(shard))

    return ds.map_batches(add, batch_format="pyarrow")


def shuffled_rows(
    ds: ray.data.Dataset,
    id_col: str,
    seed: int,
    num_shards: int = 64,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Seeded whole-corpus shuffle: assigns every row a ``shard`` (int64,
    ``key % num_shards``) and a ``pos`` (int64, rank within the shard by
    ``(key, id)``) where key = :func:`seeded_md5_priority` — a
    deterministic global permutation that is a pure function of
    ``(seed, id)``: identical on any cluster shape, across restarts, and
    across engines (the SQL oracle recomputes it with ``md5`` +
    ``ROW_NUMBER``). The standard last step of a training-data pipeline:
    mixing without an RNG-state shuffle whose output changes per run.

    Scale shape: ONE hash exchange keyed by ``shard`` co-locates each
    output shard, then an in-partition lexsort ranks it — no global sort.
    Size ``num_shards`` >= cluster cores so the exchange fans out (a shard
    must fit one task's memory, the same contract as every keyed stage).
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")

    def rank(t: pa.Table) -> pa.Table:
        pri = t["__prio"].to_numpy(zero_copy_only=False)
        shard = t["shard"].to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, pri, shard))
        t = t.take(pa.array(order)).drop_columns(["__prio"])
        ss = shard[order]
        first = np.ones(len(ss), dtype=bool)
        first[1:] = ss[1:] != ss[:-1]
        run0 = np.flatnonzero(first)
        pos = np.arange(len(ss), dtype=np.int64) - np.repeat(
            run0, np.diff(np.append(run0, len(ss)))
        )
        return t.append_column("pos", pa.array(pos))

    return hash_partitioned_map(
        _with_shuffle_cols(ds, id_col, seed, num_shards), ["shard"], rank,
        num_partitions=num_partitions, batch_format="pyarrow",
    )


def shuffled_export(
    ds: ray.data.Dataset,
    out_dir: str,
    id_col: str,
    seed: int,
    num_shards: int = 64,
    num_partitions: int | None = None,
    compression: str = "zstd",
) -> ray.data.Dataset:
    """Write the seeded global shuffle as training-ready parquet shards:
    ``{out_dir}/shard-{i:05d}.parquet`` each internally ordered by the
    shuffle key, plus a returned manifest Dataset ``(shard, n_rows,
    path)``. Deterministic: a re-run rewrites byte-stable shard contents,
    so restarts are idempotent and a partial run can be resumed by
    re-running (finished shards are simply rewritten identically; at real
    scale gate on the manifest to skip them).
    """
    from ..fsutil import join_path, resolve_fs

    fs, root = resolve_fs(out_dir)
    fs.create_dir(root, recursive=True)

    def write_shards(t: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        pri = t["__prio"].to_numpy(zero_copy_only=False)
        shard = t["shard"].to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, pri, shard))
        t = t.take(pa.array(order)).drop_columns(["__prio"])
        ss = shard[order]
        bounds = np.flatnonzero(
            np.concatenate([[True], ss[1:] != ss[:-1], [True]])
        )
        out_shard, out_rows, out_path = [], [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            s = int(ss[lo])
            sub = t.slice(lo, hi - lo).drop_columns(["shard"])
            path = join_path(root, f"shard-{s:05d}.parquet")
            with fs.open_output_stream(path) as f:
                pq.write_table(sub, f, compression=compression)
            out_shard.append(s)
            out_rows.append(int(hi - lo))
            out_path.append(path)
        return pa.table(
            {
                "shard": pa.array(out_shard, pa.int64()),
                "n_rows": pa.array(out_rows, pa.int64()),
                "path": pa.array(out_path, pa.string()),
            }
        )

    return hash_partitioned_map(
        _with_shuffle_cols(ds, id_col, seed, num_shards), ["shard"],
        write_shards, num_partitions=num_partitions, batch_format="pyarrow",
    )


def mixture_sample(
    ds: ray.data.Dataset,
    id_col: str,
    key_col: str,
    weight_col: str,
    target_fractions: dict[str, float],
    total_budget: float | None = None,
    budget_fraction: float | None = None,
) -> ray.data.Dataset:
    """Deterministic data-MIXING sample: per-key Bernoulli rates derived
    so the EXPECTED kept weight (tokens/chars) per key is
    ``target_fractions[k] * budget`` — the "50% en / 20% de / ..."
    composition step of a training-data pipeline, expressed as a pure
    function of the row id (restart/reshard-stable, SQL-oracle-exact).

    ``budget`` is ``total_budget`` (absolute weight units) or
    ``budget_fraction`` of the grand total across ALL rows (scale-free).
    Keys absent from ``target_fractions`` are dropped (rate 0). A key
    with less weight than its target keeps everything (rate capped at 1)
    — under-budget is visible to the caller by summing the output, never
    silently rebalanced.

    Two steps: one tiny per-key weight aggregate (per-batch partial
    sums, driver fold — key cardinality is bounded by the mixture spec),
    then the shuffle-free :func:`hash_sample_rate` band filter. Weight
    totals are folded as EXACT ints and the rate arithmetic is ordered
    ``f * (bf * G) / T_k`` to match the SQL oracle's double ops
    bit-for-bit.
    """
    if (total_budget is None) == (budget_fraction is None):
        raise ValueError("pass exactly one of total_budget / budget_fraction")

    def part(t: pa.Table) -> pa.Table:
        g = t.select([key_col, weight_col]).group_by(key_col).aggregate(
            [(weight_col, "sum")]
        )
        return pa.table({
            "k": g[key_col].cast(pa.string()),
            "w": g[f"{weight_col}_sum"].fill_null(0).cast(pa.int64()),
        })

    totals: dict[str, int] = {}
    grand = 0
    for t in (
        ds.select_columns([key_col, weight_col])
        .map_batches(part, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    ):
        for k, w in zip(t["k"].to_pylist(), t["w"].to_pylist()):
            grand += int(w)
            if k is not None:
                totals[k] = totals.get(k, 0) + int(w)

    budget = (
        float(total_budget)
        if total_budget is not None
        else budget_fraction * grand
    )
    # a PRESENT key with zero total weight keeps everything (rate 1),
    # matching the SQL oracle where f*budget/0 = inf -> LEAST(1, inf);
    # keys with no rows at all simply have no rate (no rows to keep)
    rates = {
        k: (1.0 if totals[k] == 0 else min(1.0, f * budget / totals[k]))
        for k, f in target_fractions.items()
        if k in totals
    }
    return hash_sample_rate(ds, id_col, key_col=key_col, rate_by_key=rates)
