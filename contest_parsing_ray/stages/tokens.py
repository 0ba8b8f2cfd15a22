"""Token-payload operators over the input_hint-shaped sequences table
(``doc_id:string, tokens:list<int32>, n_tok:int32, source:string``) — the
ops that read the ACTUAL token arrays, not just their counts.

Scale shape: a vocabulary histogram over 10^12 sequences is a classic
partial-before-shuffle aggregate — each batch collapses its ~10^5 token
occurrences into <= vocab_size (token_id, cnt) rows via one ``bincount``
over the zero-copy flattened list buffer, so the exchange moves
O(vocab x batches) tiny rows, never tokens. The merge is an int sum —
associative, skew-free (token_id is the key; the exchange input is
already <= vocab rows per batch, so even a 90%-stop-token corpus cannot
produce a hot partition bigger than vocab_size)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ._shuffle import hash_partitioned_map


def _flat_tokens(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Zero-copy flatten of a list<int32> column (offset/null-safe)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.flatten().to_numpy(zero_copy_only=False)


def _flat_with_offsets(
    col: pa.ChunkedArray | pa.Array,
) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """``(combined col, flat values, per-row offsets)`` for a list column.

    The offset-window kernels below index the flattened value buffer with
    windows derived from the raw offsets buffer. ``flatten()`` DROPS the
    values under null list entries, while a null entry may legally span a
    non-empty offset extent — the two views would silently misalign,
    attributing tokens to the wrong rows. Tokenized corpora have no null
    token arrays, so refuse them loudly instead of guessing."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        raise ValueError(
            "null entries in the tokens list column; filter or fill them "
            "before the token-payload operators (offset-window kernels "
            "cannot represent null rows)"
        )
    flat = col.flatten().to_numpy(zero_copy_only=False)
    off_dt = np.int64 if pa.types.is_large_list(col.type) else np.int32
    offs = np.frombuffer(col.buffers()[1], dtype=off_dt)[
        col.offset : col.offset + len(col) + 1
    ].astype(np.int64)
    # A sliced list Array keeps its parent's offsets buffer while
    # flatten() rebases the values — rebase the offsets to match so every
    # downstream kernel can index ``flat`` with them directly.
    if len(offs) and offs[0]:
        offs = offs - offs[0]
    return col, flat, offs


_GRAM_PRIME = np.uint64(1099511628211)


def _window_hashes(
    flat: np.ndarray, offs: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rolling-polynomial 64-bit hash of every IN-DOC n-token window.

    Returns ``(hashes, n_win_per_doc, flat_start_idx, rel_start)`` — one
    entry per window in doc order; ``rel_start`` is the window's start
    position WITHIN its doc. Cross-boundary windows are excluded. Shared
    by token_ngram_topk and cross_doc_span_stats."""
    from ._shuffle import _splitmix64

    fu = flat.astype(np.uint64)
    lengths = np.diff(offs)
    n_win = np.maximum(lengths - (n - 1), 0)
    total = int(n_win.sum())
    if total == 0:
        z = np.zeros(0, dtype=np.int64)
        return np.zeros(0, dtype=np.uint64), n_win, z, z
    n_all = len(fu) - (n - 1)
    with np.errstate(over="ignore"):
        h = np.zeros(n_all, dtype=np.uint64)
        for i in range(n):
            h = h * _GRAM_PRIME + fu[i : n_all + i]
        h = _splitmix64(h)
    base = np.repeat(offs[:-1][n_win > 0], n_win[n_win > 0])
    run0 = np.repeat(np.cumsum(n_win) - n_win, n_win)
    rel = np.arange(total, dtype=np.int64) - run0
    ok = base + rel
    return h[ok], n_win, ok, rel


def _hot_mask(hs: np.ndarray, hot_l: np.ndarray) -> np.ndarray:
    """Membership of uint64 window hashes in a SORTED int64 hot set
    (int64 bit-view compare on both sides) — shared by the span-coverage
    and span-strip passes."""
    if not len(hs) or not len(hot_l):
        return np.zeros(len(hs), dtype=bool)
    q = hs.view(np.int64)
    pos = np.searchsorted(hot_l, q)
    return (pos < len(hot_l)) & (hot_l[np.minimum(pos, len(hot_l) - 1)] == q)


def _distinct_hash_doc(
    hs: np.ndarray, didx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct (hash, doc-index) pairs via lexsort + keep-first —
    the dedup applied both per batch and per exchange partition so the
    two levels are guaranteed to agree."""
    order = np.lexsort((didx, hs))
    hs_s, d_s = hs[order], didx[order]
    keep = np.ones(len(hs_s), dtype=bool)
    keep[1:] = (hs_s[1:] != hs_s[:-1]) | (d_s[1:] != d_s[:-1])
    return hs_s[keep], d_s[keep]


def _check_raw_shard_paths(seqs: ray.data.Dataset, paths) -> None:
    """Best-effort guard for the per-shard combiner fast paths: the paths
    must be the shard files of ``seqs`` ITSELF, and ``seqs`` must be an
    untransformed parquet read — the fast path re-reads the shards, so a
    driver-side transform on ``seqs`` would be silently ignored. This
    catches passing another dataset's files / a stale list, AND (on Ray
    versions where lineage stops at a transform, so input_files() of a
    mapped dataset is empty) passing a transformed dataset — hence also
    the ``raw_shard_paths`` parameter name signalling the
    untransformed-read contract at call sites."""
    try:
        actual = set(seqs.input_files())
    except Exception:
        actual = set()
    if not actual:
        raise ValueError(
            "seqs has no input_files lineage — the raw_shard_paths fast "
            "path requires an UNTRANSFORMED ray.data.read_parquet dataset "
            "(the per-shard combiner re-reads the shards, so transforms "
            "on seqs would be silently ignored)"
        )
    paths = list(map(str, paths))
    if len(paths) != len(set(paths)):
        raise ValueError(
            "raw_shard_paths contains duplicate paths; the per-shard fast "
            "path would read those shards twice and double their counts"
        )
    if set(paths) != actual:
        raise ValueError(
            "raw_shard_paths do not match seqs.input_files(); the per-shard "
            "fast path re-reads the shards directly and would silently "
            "compute over different data"
        )


def _iter_shard_batches(paths, columns, batch_size: int = 65536):
    """Stream row-group-sized pyarrow Tables from parquet shard paths via
    the resolved filesystem — the shared inner loop of the per-file
    combiner fast paths (read+combine fused in one task, so no
    intermediate full-payload blocks ever enter the object store)."""
    import pyarrow.parquet as pq

    from ..fsutil import resolve_fs

    for path in paths:
        fsys, p = resolve_fs(path)
        with fsys.open_input_file(p) as f:
            pf = pq.ParquetFile(f)
            for rb in pf.iter_batches(batch_size=batch_size, columns=columns):
                yield pa.Table.from_batches([rb])


def vocab_histogram(
    seqs: ray.data.Dataset,
    tokens_col: str = "tokens",
    num_partitions: int | None = None,
    raw_shard_paths: list[str] | None = None,
) -> ray.data.Dataset:
    """→ ``(token_id, cnt)`` for every token id that occurs, ascending.

    Per-batch ``bincount`` partial (dense int domain beats value_counts),
    nonzero rows only; one small hash exchange sums partials per id.

    ``raw_shard_paths``: parquet shard paths of ``seqs`` ITSELF, which
    must be an UNTRANSFORMED read (``seqs.input_files()``; driver-side
    transforms are NOT replayed — the fast path re-reads the shards) —
    each task then streams its shard's row groups through one vocab-sized
    bincount and emits ONE partial per file: exchange volume
    n_files x vocab independent of row count, and no intermediate
    full-payload blocks (see source_token_richness for the 100M-row spill
    race this removes). Guarded best-effort by _check_raw_shard_paths."""

    def partial(b: pa.Table) -> pa.Table:
        flat = _flat_tokens(b[tokens_col])
        if len(flat) and flat.min() < 0:
            raise ValueError("negative token id — not a token-id column")
        cnt = np.bincount(flat) if len(flat) else np.zeros(0, dtype=np.int64)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {
                "token_id": pa.array(nz.astype(np.int64)),
                "cnt": pa.array(cnt[nz].astype(np.int64)),
            }
        )

    def file_partial(b: pa.Table) -> pa.Table:
        acc = np.zeros(0, dtype=np.int64)
        for chunk in _iter_shard_batches(b["item"].to_pylist(), [tokens_col]):
            flat = _flat_tokens(chunk[tokens_col])
            if not len(flat):
                continue
            if flat.min() < 0:
                raise ValueError("negative token id — not a token-id column")
            cnt = np.bincount(flat)
            if len(cnt) > len(acc):
                grown = np.zeros(len(cnt), dtype=np.int64)
                grown[: len(acc)] = acc
                acc = grown
            acc[: len(cnt)] += cnt
        nz = np.flatnonzero(acc)
        return pa.table(
            {
                "token_id": pa.array(nz.astype(np.int64)),
                "cnt": pa.array(acc[nz]),
            }
        )

    if raw_shard_paths is not None:
        _check_raw_shard_paths(seqs, raw_shard_paths)
        partials = ray.data.from_items(
            list(raw_shard_paths), override_num_blocks=len(raw_shard_paths)
        ).map_batches(file_partial, batch_format="pyarrow")
    else:
        partials = seqs.select_columns([tokens_col]).map_batches(
            partial, batch_format="pyarrow"
        )

    def merge(t: pa.Table) -> pa.Table:
        ids = t["token_id"].to_numpy(zero_copy_only=False)
        cnts = t["cnt"].to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        ids, cnts = ids[order], cnts[order]
        new = np.ones(len(ids), dtype=bool)
        new[1:] = ids[1:] != ids[:-1]
        starts = np.flatnonzero(new)
        return pa.table(
            {
                "token_id": pa.array(ids[starts]),
                "cnt": pa.array(np.add.reduceat(cnts, starts)),
            }
        )

    return hash_partitioned_map(
        partials, ["token_id"], merge,
        num_partitions=num_partitions, batch_format="pyarrow",
    )


def token_ngram_topk(
    seqs: ray.data.Dataset,
    n: int = 2,
    k: int = 100,
    tokens_col: str = "tokens",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Top-k token n-grams by count → ``(ngram: list<int64>, cnt)``,
    count desc then ngram asc (deterministic ties).

    n-grams are hashed per batch with the same rolling-polynomial +
    boundary-mask kernel as the text shinglers, counted locally, and only
    ``(hash, first_seen_ngram, cnt)`` partials enter the exchange — at
    most distinct-ngrams-per-batch rows. Each hash partition prunes to
    its own top-k BEFORE the global sort (any global top-k member is a
    per-partition top-k member of its partition), so the final sort sees
    <= k x partitions rows, never the gram vocabulary. Remaining scale
    contract: the exchange itself moves per-batch DISTINCT grams, which
    for large n approaches the window count — for corpus-scale heavy
    hitters over a huge gram domain prefer the Misra-Gries operator
    (``stages/heavy.py``), which bounds state at O(k) per partition."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def partial(b: pa.Table) -> pa.Table:
        col, flat, offs = _flat_with_offsets(b[tokens_col])
        empty = pa.table(
            {
                "h": pa.array([], pa.int64()),
                "ngram": pa.array([], pa.large_list(pa.int64())),
                "cnt": pa.array([], pa.int64()),
            }
        )
        hs, n_win, ok, _rel = _window_hashes(flat, offs, n)
        if not len(hs):
            return empty
        order = np.argsort(hs, kind="stable")
        hs_s = hs[order]
        new = np.ones(len(hs_s), dtype=bool)
        new[1:] = hs_s[1:] != hs_s[:-1]
        starts = np.flatnonzero(new)
        cnts = np.diff(np.append(starts, len(hs_s)))
        rep = ok[order[starts]]  # first window index per distinct hash
        grams = flat[rep[:, None] + np.arange(n)].astype(np.int64)
        loff = np.arange(0, (len(rep) + 1) * n, n, dtype=np.int64)
        return pa.table(
            {
                "h": pa.array(hs_s[starts].view(np.int64)),
                "ngram": pa.LargeListArray.from_arrays(
                    pa.array(loff), pa.array(grams.reshape(-1))
                ),
                "cnt": pa.array(cnts.astype(np.int64)),
            }
        )

    partials = seqs.select_columns([tokens_col]).map_batches(
        partial, batch_format="pyarrow"
    )

    def merge(t: pa.Table) -> pa.Table:
        hs = t["h"].to_numpy(zero_copy_only=False)
        cnts = t["cnt"].to_numpy(zero_copy_only=False)
        order = np.argsort(hs, kind="stable")
        hs_s, cnt_s = hs[order], cnts[order]
        new = np.ones(len(hs_s), dtype=bool)
        new[1:] = hs_s[1:] != hs_s[:-1]
        starts = np.flatnonzero(new)
        summed = np.add.reduceat(cnt_s, starts)
        # per-partition top-k prune BEFORE the global sort: each hash
        # partition holds every occurrence of its ngrams, so any global
        # top-k member is in its partition's top-k — the global sort then
        # sees <= k x partitions rows instead of the whole vocabulary
        top = np.lexsort((hs_s[starts], -summed))[:k]
        keep = t.take(pa.array(order[starts][top]))
        return pa.table(
            {
                "h": keep["h"],
                "ngram": keep["ngram"],
                "cnt": pa.array(summed[top].astype(np.int64)),
            }
        )

    merged = hash_partitioned_map(
        partials, ["h"], merge,
        num_partitions=num_partitions, batch_format="pyarrow",
    )
    top = merged.sort(["cnt", "h"], descending=[True, False]).limit(k)
    return top.drop_columns(["h"])


def dup_ngram_stats(
    seqs: ray.data.Dataset,
    n: int = 8,
    tokens_col: str = "tokens",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Per-document duplicate n-gram fraction (Gopher-style repetition
    signal over the RAW token ids): ``(doc_id, n_grams, n_distinct,
    dup_frac = 1 - distinct/total)``, dup_frac null when the doc is
    shorter than ``n`` tokens.

    EXACT distinct — no hashing: the batch's grams are materialized as
    ``n`` strided views of the flat zero-copy token buffer and lexsorted
    per doc on their actual contents, so two distinct grams can never
    collide. Embarrassingly parallel: one row per doc leaves each batch,
    NO exchange at any point (contrast token_ngram_topk, whose corpus-wide
    counts need one hash exchange).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def stats(b: pa.Table) -> pa.Table:
        col, flat, offs = _flat_with_offsets(b[tokens_col])
        lengths = np.diff(offs)
        n_win = np.maximum(lengths - (n - 1), 0)
        total = int(n_win.sum())
        n_distinct = np.zeros(len(col), dtype=np.int64)
        if total:
            # start index of every in-doc window (cross-boundary excluded)
            base = np.repeat(offs[:-1][n_win > 0], n_win[n_win > 0])
            run0 = np.repeat(np.cumsum(n_win) - n_win, n_win)
            starts = base + (np.arange(total, dtype=np.int64) - run0)
            docs = np.repeat(
                np.arange(len(col), dtype=np.int64), n_win
            )
            cols = [flat[starts + i] for i in range(n)]
            # lexsort: primary key = doc, then gram columns left-to-right
            order = np.lexsort(tuple(reversed(cols)) + (docs,))
            docs_s = docs[order]
            new = np.ones(total, dtype=bool)
            new[1:] = docs_s[1:] != docs_s[:-1]
            for c in cols:
                cs = c[order]
                new[1:] |= cs[1:] != cs[:-1]
            n_distinct = np.bincount(
                docs_s[new], minlength=len(col)
            ).astype(np.int64)
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = 1.0 - n_distinct / n_win
        return pa.table({
            id_col: b[id_col],
            "n_grams": pa.array(n_win.astype(np.int64)),
            "n_distinct": pa.array(n_distinct),
            "dup_frac": pa.array(
                np.where(n_win > 0, frac, np.nan), from_pandas=True
            ),
        })

    return seqs.select_columns([id_col, tokens_col]).map_batches(
        stats, batch_format="pyarrow"
    )


def source_vocab_jaccard(
    seqs: ray.data.Dataset,
    key_col: str = "source",
    tokens_col: str = "tokens",
    containment: bool = False,
) -> pa.Table:
    """Pairwise Jaccard similarity between the DISTINCT-token vocabularies
    of each key (which sources share a vocabulary — a domain-mixing
    diagnostic over the raw token ids). → small ``(s1, s2, n_inter,
    n_union, jaccard)`` table, every unordered pair with s1 < s2, exact.

    Scale shape: each batch collapses its tokens into per-key presence
    BITSETS (``np.packbits``; vocab/8 bytes per key) — the exchange moves
    O(keys x vocab/8) bytes per batch, never token occurrences; the
    driver ORs bitsets and popcounts pairs. Contract: bounded key
    cardinality and a dense token-id domain (vocab-sized), the same as
    vocab_histogram. Null keys are dropped (SQL self-join semantics).

    ``containment=True`` appends the asymmetric containments ``c_s1_in_s2
    = |A∩B| / |B|`` and ``c_s2_in_s1 = |A∩B| / |A|`` — which smaller
    vocabulary lives inside which larger one, the signal Jaccard's
    symmetric union denominator hides for very different-sized sources.
    """

    def partial(b: pa.Table) -> pa.Table:
        col, flat, offs = _flat_with_offsets(b[tokens_col])
        lengths = np.diff(offs)
        kcol = b[key_col].combine_chunks()
        enc = kcol.dictionary_encode()
        kidx = enc.indices.fill_null(-1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        per_tok_key = np.repeat(kidx, lengths)
        keys_out, bits_out, width_out = [], [], []
        if len(flat):
            max_id = int(flat.max())
            for ki in range(len(enc.dictionary)):
                ids = flat[per_tok_key == ki]
                if len(ids) == 0:
                    continue
                pres = np.zeros(max_id + 1, dtype=bool)
                pres[ids] = True
                keys_out.append(enc.dictionary[ki].as_py())
                bits_out.append(np.packbits(pres).tobytes())
                width_out.append(max_id + 1)
        return pa.table({
            "k": pa.array(keys_out, pa.string()),
            "bits": pa.array(bits_out, pa.binary()),
            "width": pa.array(width_out, pa.int64()),
        })

    sets: dict[str, np.ndarray] = {}
    for t in seqs.select_columns([key_col, tokens_col]).map_batches(
        partial, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        for k, bits in zip(t["k"].to_pylist(), t["bits"].to_pylist()):
            arr = np.frombuffer(bits, dtype=np.uint8)
            cur = sets.get(k)
            if cur is None:
                sets[k] = arr.copy()
            else:
                if len(arr) > len(cur):
                    cur = np.concatenate(
                        [cur, np.zeros(len(arr) - len(cur), np.uint8)])
                a = arr if len(arr) == len(cur) else np.concatenate(
                    [arr, np.zeros(len(cur) - len(arr), np.uint8)])
                sets[k] = cur | a

    popcnt = np.unpackbits  # popcount via unpack+sum (vocab-sized, tiny)
    keys = sorted(sets)
    sizes = {k: int(popcnt(sets[k]).sum()) for k in keys}
    s1o, s2o, ni, nu, jc = [], [], [], [], []
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            a, bv = sets[keys[i]], sets[keys[j]]
            if len(a) != len(bv):
                m = max(len(a), len(bv))
                a = np.concatenate([a, np.zeros(m - len(a), np.uint8)])
                bv = np.concatenate([bv, np.zeros(m - len(bv), np.uint8)])
            inter = int(popcnt(a & bv).sum())
            union = sizes[keys[i]] + sizes[keys[j]] - inter
            s1o.append(keys[i])
            s2o.append(keys[j])
            ni.append(inter)
            nu.append(union)
            jc.append(inter / union if union else None)
    cols = {
        "s1": pa.array(s1o, pa.string()),
        "s2": pa.array(s2o, pa.string()),
        "n_inter": pa.array(ni, pa.int64()),
        "n_union": pa.array(nu, pa.int64()),
        "jaccard": pa.array(jc, pa.float64()),
    }
    if containment:
        cols["c_s1_in_s2"] = pa.array(
            [i_ / sizes[s2] if sizes[s2] else None
             for i_, s2 in zip(ni, s2o)], pa.float64())
        cols["c_s2_in_s1"] = pa.array(
            [i_ / sizes[s1] if sizes[s1] else None
             for i_, s1 in zip(ni, s1o)], pa.float64())
    return pa.table(cols)


def source_token_richness(
    seqs: ray.data.Dataset,
    key_col: str = "source",
    tokens_col: str = "tokens",
    num_partitions: int | None = None,
    partial_batch_size: int | None = None,
    raw_shard_paths: list[str] | None = None,
) -> ray.data.Dataset:
    """Vocabulary-richness diagnostics per key over the raw token ids:
    ``(key, n_tokens, vocab_size, n_hapax, type_token_ratio)`` — hapax =
    ids occurring exactly once in the key's whole corpus (needs GLOBAL
    counts, so unlike the presence-bitset Jaccard this is a counting
    exchange), TTR = vocab/tokens. Null keys dropped.

    Per-batch (key, token, cnt) bincount partials (<= keys x vocab rows
    per batch, never occurrences), ONE hash exchange on the token id
    domain, per-partition merge + per-key scalar reduction.

    ``partial_batch_size`` is SCALE-CRITICAL: once a batch's token count
    passes the vocab size, the partial is saturated at ~keys x vocab rows
    no matter how many input rows it covers — so total exchange volume is
    ~(n_rows / batch_size) x keys x vocab, i.e. linear in batch COUNT.
    The 30M-row headroom run with the old fixed 4096 emitted ~1B exchange
    rows and died OutOfDiskError once spill crossed Ray's 95% disk cap;
    the same run at 65536 ships ~16x less.  Default: derived from the
    input row count (metadata-only for parquet reads) — n_rows/512
    clamped to [4096, 65536] keeps small-SF task parallelism (4096 at
    <=2M rows) while capping exchange volume at corpus scale.

    ``raw_shard_paths`` (the corpus-scale path): parquet shard paths of
    ``seqs`` ITSELF, which must be an UNTRANSFORMED read
    (``seqs.input_files()``; transforms on ``seqs`` are NOT replayed —
    guarded best-effort by _check_raw_shard_paths). The partial stage
    then maps over FILE PATHS — each task
    streams its shard's row groups through a fixed keys x vocab bincount
    accumulator (~3 MB) and emits ONE partial per file, so (a) exchange
    volume is n_files x keys x vocab, independent of row count, and (b)
    there are no intermediate full-payload blocks at all: the 100M-row
    headroom run showed the decompressed token stream (75 GB) racing
    ~40 GB ahead of the compute-bound partials into spill and tripping
    Ray's 95%-disk floor even with an executor object-store budget —
    fusing read and combine into one task removes the race structurally,
    the same way a real 100-TB run would read-and-combine per shard.
    """

    # Global key index: one column-pruned distinct pass over the key
    # column (tiny next to the token payload). Exchange rows then carry
    # ONE fixed-width int64 — kt = key_idx * 2^31 + token_id (ids are
    # int32 >= 0) — instead of a repeated key string: 16 B/row, a single
    # int64 hash column, and a pure-numpy reduceat reduce. At 100M rows
    # the string-keyed exchange spilled ~30 GB and tripped Ray's 95%-disk
    # monitor; this layout ships ~4x less for the same information.
    # select_columns FIRST so the distinct pass's parquet read is pruned
    # to the key column — unique() is a global aggregate whose input is
    # materialized at the all-to-all boundary; feeding it the full table
    # would stage the whole token payload (75 GB at 100M rows) to disk.
    keys_sorted = sorted(
        k for k in seqs.select_columns([key_col]).unique(key_col)
        if k is not None
    )
    if len(keys_sorted) >= (1 << 31):
        raise ValueError("key cardinality exceeds composite int64 range")
    key_arr = pa.array(keys_sorted, pa.string())

    def _batch_counts(b: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        """One batch → composite ``(kt, cnt)`` arrays (may be empty)."""
        col, flat, offs = _flat_with_offsets(b[tokens_col])
        lengths = np.diff(offs)
        kcol = b[key_col].combine_chunks()
        enc = kcol.dictionary_encode()
        kidx = enc.indices.fill_null(-1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        per_tok = np.repeat(kidx, lengths)
        keep = per_tok >= 0  # null keys dropped
        flat, per_tok = flat[keep], per_tok[keep]
        if len(flat) and flat.min() < 0:
            raise ValueError("negative token id — not a token-id column")
        if len(flat) and int(flat.max()) >= 1 << 31:
            # the composite exchange key packs token_id into the low 31
            # bits — an out-of-contract vocab (module contract: list<int32>
            # ids) must fail loudly, not merge counts across (key, token)
            raise ValueError("token id >= 2^31 — exceeds the composite-key "
                             "exchange contract (list<int32> token ids)")
        if not len(flat):
            z = np.zeros(0, dtype=np.int64)
            return z, z
        # bincount over the LOCAL dictionary (dense), then translate the
        # local key index to the global one at emit — allocating over the
        # global key universe would blow up on high-cardinality keys.
        vmax = int(flat.max()) + 1
        comp = per_tok * vmax + flat
        cnt = np.bincount(comp)
        nz = np.flatnonzero(cnt)
        local_to_global = pc.index_in(
            enc.dictionary.cast(pa.string()), value_set=key_arr
        ).fill_null(-1).to_numpy(zero_copy_only=False).astype(np.int64)
        if (local_to_global < 0).any():
            # deterministic-rescan contract: the key-universe pass and the
            # partial pass must see the same input (cf. exact_quantiles)
            raise ValueError("key absent from the distinct-key pass")
        kt = (local_to_global[nz // vmax] << np.int64(31)) | (nz % vmax)
        return kt, cnt[nz].astype(np.int64)

    def partial(b: pa.Table) -> pa.Table:
        kt, cnt = _batch_counts(b)
        return pa.table({"kt": pa.array(kt), "cnt": pa.array(cnt)})

    def file_partial(b: pa.Table) -> pa.Table:
        """ONE partial per parquet shard: stream row groups through a
        per-key bincount accumulator; never hold more than one row-group
        chunk of payload. The read+combine fusion the generic map_batches
        path cannot get from the planner (read and map stay separate
        operators, letting the faster read spill-race the compute)."""
        acc: dict[int, np.ndarray] = {}
        for chunk in _iter_shard_batches(
            b["item"].to_pylist(), [key_col, tokens_col]
        ):
            kt, cnt = _batch_counts(chunk)
            if not len(kt):
                continue
            g = kt >> np.int64(31)
            tok = kt & np.int64((1 << 31) - 1)
            for gk in np.unique(g):
                m = g == gk
                t_, c_ = tok[m], cnt[m]
                need = int(t_.max()) + 1
                prev = acc.get(int(gk))
                if prev is None or len(prev) < need:
                    grown = np.zeros(need, dtype=np.int64)
                    if prev is not None:
                        grown[: len(prev)] = prev
                    acc[int(gk)] = prev = grown
                np.add.at(prev, t_, c_)
        kts, cnts = [], []
        for gk in sorted(acc):
            nz = np.flatnonzero(acc[gk])
            kts.append((np.int64(gk) << np.int64(31)) | nz.astype(np.int64))
            cnts.append(acc[gk][nz])
        if kts:
            kt_all, cnt_all = np.concatenate(kts), np.concatenate(cnts)
        else:
            kt_all = cnt_all = np.zeros(0, dtype=np.int64)
        return pa.table({"kt": pa.array(kt_all), "cnt": pa.array(cnt_all)})

    if raw_shard_paths is not None:
        _check_raw_shard_paths(seqs, raw_shard_paths)
        parts = ray.data.from_items(
            list(raw_shard_paths), override_num_blocks=len(raw_shard_paths)
        ).map_batches(file_partial, batch_format="pyarrow")
    else:
        # Scale-aware partial size (see docstring): floor 4096 keeps
        # sf0.1's measured task-parallelism optimum; cap 65536 bounds the
        # per-task flat-token working set (~190 MB at mean n_tok 180)
        # while cutting exchange volume 16x at 30M+ rows.
        if partial_batch_size is None:
            try:
                n_rows = seqs.count()  # metadata-only on a plain read
            except Exception:
                n_rows = 0
            partial_batch_size = int(
                min(65536, max(4096, (n_rows or 0) // 512))
            )
        parts = seqs.select_columns([key_col, tokens_col]).map_batches(
            partial, batch_format="pyarrow", batch_size=partial_batch_size
        )

    def reduce(t: pa.Table) -> pa.Table:
        kt = t["kt"].to_numpy(zero_copy_only=False)
        empty = pa.table({
            "k_idx": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "vocab_size": pa.array([], pa.int64()),
            "n_hapax": pa.array([], pa.int64()),
        })
        if not len(kt):
            return empty
        cnt = t["cnt"].to_numpy(zero_copy_only=False)
        order = np.argsort(kt, kind="stable")
        kt_s, cnt_s = kt[order], cnt[order]
        new = np.ones(len(kt_s), dtype=bool)
        new[1:] = kt_s[1:] != kt_s[:-1]
        starts = np.flatnonzero(new)
        tot = np.add.reduceat(cnt_s, starts)  # global count per (k, token)
        kidx = kt_s[starts] >> np.int64(31)   # sorted because kt is sorted
        newk = np.ones(len(kidx), dtype=bool)
        newk[1:] = kidx[1:] != kidx[:-1]
        kstarts = np.flatnonzero(newk)
        return pa.table({
            "k_idx": pa.array(kidx[kstarts]),
            "n_tokens": pa.array(np.add.reduceat(tot, kstarts)),
            "vocab_size": pa.array(
                np.diff(np.append(kstarts, len(kidx))).astype(np.int64)),
            "n_hapax": pa.array(
                np.add.reduceat((tot == 1).astype(np.int64), kstarts)),
        })

    from ._shuffle import hash_partitioned_map

    # exchange keyed on kt: each (key, token) pair's partials meet in
    # exactly one partition, so cnt==1 is a global statement
    red = hash_partitioned_map(
        parts, ["kt"], reduce,
        num_partitions=num_partitions, batch_format="pyarrow",
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({
                "k": pa.array([], pa.string()),
                "n_tokens": pa.array([], pa.int64()),
                "vocab_size": pa.array([], pa.int64()),
                "n_hapax": pa.array([], pa.int64()),
                "type_token_ratio": pa.array([], pa.float64()),
            })
        kidx = t["k_idx"].to_numpy(zero_copy_only=False)
        order = np.argsort(kidx, kind="stable")
        kidx_s = kidx[order]
        new = np.ones(len(kidx_s), dtype=bool)
        new[1:] = kidx_s[1:] != kidx_s[:-1]
        starts = np.flatnonzero(new)
        sums = {
            c: np.add.reduceat(
                t[c].to_numpy(zero_copy_only=False)[order], starts)
            for c in ("n_tokens", "vocab_size", "n_hapax")
        }
        return pa.table({
            "k": pc.take(key_arr, pa.array(kidx_s[starts])),
            "n_tokens": pa.array(sums["n_tokens"]),
            "vocab_size": pa.array(sums["vocab_size"]),
            "n_hapax": pa.array(sums["n_hapax"]),
            "type_token_ratio": pa.array(
                sums["vocab_size"] / sums["n_tokens"], pa.float64()),
        })

    # second tiny fold: partitions each hold partial per-key sums
    return hash_partitioned_map(
        red, ["k_idx"], finish, num_partitions=num_partitions,
        batch_format="pyarrow",
    )


def cross_doc_span_stats(
    seqs: ray.data.Dataset,
    n: int = 8,
    min_docs: int = 2,
    tokens_col: str = "tokens",
    id_col: str = "doc_id",
    num_partitions: int | None = None,
    max_hot_spans: int | None = None,
    num_slices: int | None = None,
    slice_bytes: int = 24 << 30,
    raw_shard_paths: list[str] | None = None,
) -> ray.data.Dataset:
    """Cross-document duplicated-SPAN statistics per row — the span-level
    granularity between ``dup_ngram_stats`` (within-doc repetition) and
    the doc-level near-dup family: how much of each document is covered
    by n-gram spans that also appear in at least ``min_docs`` DISTINCT
    documents (boilerplate / shared-template signal, the per-span variant
    of Lee et al. 2021's cross-doc substring dedup).

    → ``(doc_id, n_tok, n_windows, n_hot_windows, n_covered,
    dup_span_frac)`` per input ROW; ``n_covered`` is the exact union
    length of all hot ``[i, i+n)`` windows, ``dup_span_frac`` =
    n_covered / n_tok, NULL for docs shorter than ``n`` tokens.

    Two passes over the payload. Pass 1: per-batch DISTINCT (window-hash,
    doc_id) pairs → ONE hash exchange on the 64-bit gram hash → exact
    per-hash distinct-doc count (duplicate doc_ids collapse, matching
    COUNT(DISTINCT doc_id)) → the ``>= min_docs`` survivors collect to
    the driver as the hot set. ``max_hot_spans`` bounds that driver set
    for boilerplate-heavy corpora where min_docs=2 makes it unbounded:
    the ``max_hot_spans`` MOST-duplicated spans (by exact distinct-doc
    count, ties by hash) survive and weaker ones are dropped — see
    _hot_span_hashes for why exact-count truncation beats a CMS/MinHash
    sketch here; None (default) keeps the exact unbounded collect.
    Pass 2: hot hashes broadcast once via ``ray.put``; each batch marks
    its windows by searchsorted membership and computes the per-doc
    interval-union length vectorized (equal-length sorted intervals:
    sum of min(n, gap to next start) + n). Exactness caveat: spans are
    compared by 64-bit splitmix hash, so two DIFFERENT n-grams collide
    with probability ~ (distinct grams)^2 / 2^64 — negligible and
    deterministic, same contract as doc_fingerprints.

    ``id_col`` must be non-null (raises) — null doc identity has no
    COUNT(DISTINCT) meaning.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if min_docs < 1:
        raise ValueError(f"min_docs must be >= 1, got {min_docs}")

    hot = _hot_span_hashes(
        seqs, n=n, min_docs=min_docs, tokens_col=tokens_col,
        id_col=id_col, num_partitions=num_partitions,
        max_hot_spans=max_hot_spans, num_slices=num_slices,
        slice_bytes=slice_bytes, raw_shard_paths=raw_shard_paths,
    )
    hot_ref = ray.put(hot)

    def cover(b: pa.Table) -> pa.Table:
        idc = b[id_col].combine_chunks()
        if idc.null_count:
            raise ValueError(f"null {id_col} — cross-doc counts undefined")
        return _span_coverage_table(
            b, tokens_col, id_col, n, ray.get(hot_ref), "dup_span_frac"
        )

    return seqs.select_columns([id_col, tokens_col]).map_batches(
        cover, batch_format="pyarrow"
    )


def _span_coverage_table(
    b: pa.Table,
    tokens_col: str,
    id_col: str,
    n: int,
    hot_l: np.ndarray,
    frac_name: str,
) -> pa.Table:
    """Per-row coverage of a batch's docs by windows whose hash is in the
    sorted int64 set ``hot_l`` — shared by cross_doc_span_stats (hot set
    from the corpus itself) and reference_contamination_stats (hot set
    from an external reference)."""
    col, flat, offs = _flat_with_offsets(b[tokens_col])
    hs, n_win, _ok, rel = _window_hashes(flat, offs, n)
    n_rows = len(col)
    n_hot = np.zeros(n_rows, dtype=np.int64)
    covered = np.zeros(n_rows, dtype=np.int64)
    if len(hs) and len(hot_l):
        is_hot = _hot_mask(hs, hot_l)
        docs = np.repeat(np.arange(n_rows, dtype=np.int64), n_win)
        hd, hr = docs[is_hot], rel[is_hot]
        # hr ascending within each doc (window emission order); union
        # of equal-length intervals = sum(min(n, next_start - start))
        # with the doc's last interval contributing n
        if len(hd):
            gap = np.empty(len(hr), dtype=np.int64)
            gap[:-1] = hr[1:] - hr[:-1]
            gap[-1] = n
            last_of_doc = np.empty(len(hd), dtype=bool)
            last_of_doc[:-1] = hd[1:] != hd[:-1]
            last_of_doc[-1] = True
            gap[last_of_doc] = n
            contrib = np.minimum(gap, n)
            np.add.at(covered, hd, contrib)
            np.add.at(n_hot, hd, 1)
    n_tok = np.diff(offs)
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = covered / n_tok
    return pa.table({
        id_col: b[id_col],
        "n_tok": pa.array(n_tok.astype(np.int64)),
        "n_windows": pa.array(n_win.astype(np.int64)),
        "n_hot_windows": pa.array(n_hot),
        "n_covered": pa.array(covered),
        frac_name: pa.array(
            np.where(n_win > 0, frac, np.nan), from_pandas=True
        ),
    })


def reference_contamination_stats(
    seqs: ray.data.Dataset,
    reference: "ray.data.Dataset | pa.Table",
    n: int = 8,
    tokens_col: str = "tokens",
    id_col: str = "doc_id",
    max_ref_hashes: int = 32_000_000,
) -> ray.data.Dataset:
    """Benchmark DECONTAMINATION signal: per corpus row, how much of the
    document is covered by n-gram spans that appear ANYWHERE in the
    ``reference`` set (eval benchmarks, held-out test sets) — the
    standard pre-training hygiene check before an eval suite is trusted.

    → ``(doc_id, n_tok, n_windows, n_hot_windows, n_covered,
    contamination_frac)``; NULL frac for docs shorter than ``n``.
    Asymmetric by design (reference grams flag corpus docs, never the
    reverse) and exact up to the 64-bit span-hash contract shared with
    cross_doc_span_stats.

    The reference's distinct window hashes are built DRIVER-SIDE and
    broadcast once via ``ray.put`` — the documented contract is a
    reference that is small relative to the corpus (an eval suite is
    MBs against a 100-TB corpus); the corpus side is one streamed
    batch pass, no exchange at all. The reference is STREAMED batch by
    batch (per-batch distinct hash arrays only, never the token tables),
    and an oversized reference fails loudly at ``max_ref_hashes``
    (default 32M distinct grams ~ 256 MB driver-side) instead of as a
    far-away driver OOM. A corpus-scale reference would use
    cross_doc_span_stats' pair-exchange path instead."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    if isinstance(reference, pa.Table):
        ref_iter = iter([reference])
    else:
        ref_iter = reference.select_columns([tokens_col]).iter_batches(
            batch_format="pyarrow"
        )
    hashes = []
    n_pending = 0
    for t in ref_iter:
        _col, flat, offs = _flat_with_offsets(t[tokens_col])
        hs, _nw, _ok, _rel = _window_hashes(flat, offs, n)
        if len(hs):
            arr = np.unique(hs.view(np.int64))
            hashes.append(arr)
            n_pending += len(arr)
            if n_pending > max_ref_hashes:
                # compress to the GLOBAL distinct set before judging the
                # cap — per-batch distinct sums over-count shared grams
                # (a boilerplate-heavy eval suite repeats templates
                # across batches), so only a still-oversized global set
                # is a contract violation. Memory stays <= ~2x cap.
                merged = np.unique(np.concatenate(hashes))
                hashes, n_pending = [merged], len(merged)
                if n_pending > max_ref_hashes:
                    raise ValueError(
                        f"reference exceeds max_ref_hashes="
                        f"{max_ref_hashes} distinct n-gram hashes — too "
                        "large for the driver-broadcast decontamination "
                        "path; use cross_doc_span_stats' pair-exchange "
                        "path for a corpus-scale reference"
                    )
    hot = (
        np.unique(np.concatenate(hashes))
        if hashes
        else np.zeros(0, dtype=np.int64)
    )
    hot_ref = ray.put(hot)

    def cover(b: pa.Table) -> pa.Table:
        return _span_coverage_table(
            b, tokens_col, id_col, n, ray.get(hot_ref), "contamination_frac"
        )

    return seqs.select_columns([id_col, tokens_col]).map_batches(
        cover, batch_format="pyarrow"
    )


def strip_cross_doc_spans(
    seqs: ray.data.Dataset,
    n: int = 8,
    min_docs: int = 2,
    tokens_col: str = "tokens",
    id_col: str = "doc_id",
    num_partitions: int | None = None,
    max_hot_spans: int | None = None,
    num_slices: int | None = None,
    slice_bytes: int = 24 << 30,
    raw_shard_paths: list[str] | None = None,
) -> ray.data.Dataset:
    """The ACTUATOR for :func:`cross_doc_span_stats`: remove every token
    position covered by a hot cross-document n-gram span (>= ``min_docs``
    distinct docs) from each document — cross-doc substring dedup in the
    Lee et al. 2021 sense, producing training-ready cleaned sequences.

    Output: the input rows with ``tokens`` replaced by the cleaned array
    (original inner type preserved) and ``n_tok`` (when present) updated
    to the cleaned length; all other columns pass through untouched.
    Documents shorter than ``n`` tokens are unchanged. Same hot-set
    machinery, determinism and 64-bit-hash contract as the detector;
    ``id_col`` must be non-null.

    The strip pass is pure per-batch compute over the broadcast hot set:
    covered positions come from a +-1 delta array over the flat token
    buffer (interval union via cumsum — O(tokens), not O(windows x n)),
    then one boolean take rebuilds the list column zero-copy-adjacent.

    ``max_hot_spans`` (the 100-TB path for boilerplate-heavy corpora
    where the min_docs=2 hot set is unbounded): strip only the
    ``max_hot_spans`` MOST-duplicated spans — exact distinct-doc-count
    top-K truncation, see _hot_span_hashes. Recall degrades from the
    weakest (least-shared) spans first; the detector reports what the
    same cap would leave behind.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if min_docs < 1:
        raise ValueError(f"min_docs must be >= 1, got {min_docs}")

    # Pass 1 is shared with the detector: build the hot set once.
    hot = _hot_span_hashes(
        seqs, n=n, min_docs=min_docs, tokens_col=tokens_col,
        id_col=id_col, num_partitions=num_partitions,
        max_hot_spans=max_hot_spans, num_slices=num_slices,
        slice_bytes=slice_bytes, raw_shard_paths=raw_shard_paths,
    )
    hot_ref = ray.put(hot)

    def strip(b: pa.Table) -> pa.Table:
        col, flat, offs = _flat_with_offsets(b[tokens_col])
        idc = b[id_col].combine_chunks()
        if idc.null_count:
            raise ValueError(f"null {id_col} — cross-doc counts undefined")
        hs, n_win, ok, _rel = _window_hashes(flat, offs, n)
        hot_l = ray.get(hot_ref)
        mask = np.zeros(len(flat), dtype=bool)
        if len(hs) and len(hot_l):
            ok_hot = ok[_hot_mask(hs, hot_l)]
            if len(ok_hot):
                delta = np.zeros(len(flat) + 1, dtype=np.int64)
                np.add.at(delta, ok_hot, 1)
                np.add.at(delta, ok_hot + n, -1)
                mask = np.cumsum(delta[:-1]) > 0
        kept = flat[~mask]
        cs = np.concatenate(([0], np.cumsum(mask)))
        covered_per_doc = cs[offs[1:]] - cs[offs[:-1]]
        new_len = np.diff(offs) - covered_per_doc
        new_offs = np.concatenate(([0], np.cumsum(new_len)))
        inner = col.type.value_type
        cleaned = (
            pa.LargeListArray.from_arrays(
                pa.array(new_offs, pa.int64()),
                pa.array(kept, inner),
            )
            if pa.types.is_large_list(col.type)
            else pa.ListArray.from_arrays(
                pa.array(new_offs.astype(np.int32), pa.int32()),
                pa.array(kept, inner),
            )
        )
        cols = {}
        for name in b.column_names:
            if name == tokens_col:
                cols[name] = cleaned
            elif name == "n_tok":
                # preserve the input column's integer type
                cols[name] = pa.array(new_len).cast(b.schema.field(name).type)
            else:
                cols[name] = b[name]
        return pa.table(cols)

    return seqs.map_batches(strip, batch_format="pyarrow")


def _hot_span_hashes(
    seqs: ray.data.Dataset,
    n: int,
    min_docs: int,
    tokens_col: str,
    id_col: str,
    num_partitions: int | None,
    max_hot_spans: int | None = None,
    num_slices: int | None = None,
    slice_bytes: int = 24 << 30,
    raw_shard_paths: list[str] | None = None,
) -> np.ndarray:
    """Sorted int64 hashes of n-gram spans in >= min_docs distinct docs —
    pass 1 of cross_doc_span_stats/strip_cross_doc_spans (see the
    detector's docstring for the exchange design and scale contract).

    ``max_hot_spans`` is the 100-TB driver-memory bound: when set, each
    hash partition emits only its ``max_hot_spans`` strongest survivors
    and the driver keeps the global strongest ``max_hot_spans``, ordered
    by ``(-distinct_docs, hash)`` (deterministic cut, ties included by
    hash order). Every hash lives in exactly ONE partition of the
    exchange, so per-partition counts are EXACT and per-partition top-K →
    global top-K is the true global top-K — no sketch needed. A CMS
    heavy-hitter pass (state/sketches.py) was considered and rejected:
    the pair exchange must run anyway to get COUNT(DISTINCT doc) right
    (a CMS over raw windows would count OCCURRENCES, inflating within-doc
    repeats), and once the exchange has exact counts, truncating them
    dominates any sketch on both error (zero false positives, exact
    counts) and cost (no second pass). What the cap changes is RECALL
    only: with H true hot spans and cap K < H, the K most-duplicated
    spans are kept and the H - K weakest (lowest distinct-doc counts,
    i.e. closest to min_docs) are dropped — the right degradation for
    boilerplate stripping, where strength = how many docs share the
    span. Unset (None) keeps the exact unbounded collect."""

    def make_pair_partial(slice_idx: int, n_slices: int):
        def pair_partial(b: pa.Table) -> pa.Table:
            # doc identity travels as a 64-bit hash of the id string, not
            # the string itself: the exchange is the cost of this operator
            # (one row per batch-distinct (span, doc) pair), and two
            # fixed-width int64 columns ship ~2x less than (int64, string)
            # at corpus scale. Distinctness survives the encoding (same id
            # -> same hash, so duplicate doc_id rows still collapse); two
            # DIFFERENT ids colliding at 64 bits merges their counts with
            # probability ~ n_docs^2 / 2^64 — the same negligible-and-
            # deterministic contract as the span hash itself.
            col, flat, offs = _flat_with_offsets(b[tokens_col])
            idc = b[id_col].combine_chunks()
            if idc.null_count:
                raise ValueError(f"null {id_col} — cross-doc counts undefined")
            hs, n_win, _ok, _rel = _window_hashes(flat, offs, n)
            if len(hs):
                enc = idc.dictionary_encode()
                didx = np.repeat(
                    enc.indices.to_numpy(zero_copy_only=False).astype(
                        np.int64),
                    n_win,
                )
                if n_slices > 1:
                    # hash-domain slice: this pass keeps only h % S == s.
                    # h is splitmix output, so slices are unbiased; each
                    # hash lives in exactly one slice — exactness holds.
                    sl = hs % np.uint64(n_slices) == np.uint64(slice_idx)
                    hs, didx = hs[sl], didx[sl]
            if not len(hs):
                return pa.table({"h": pa.array([], pa.int64()),
                                 "doc_h": pa.array([], pa.int64())})
            from ._shuffle import hash64_column

            dict_h = hash64_column(enc.dictionary).view(np.int64)
            hs_d, d_d = _distinct_hash_doc(hs, didx)
            return pa.table({
                "h": pa.array(hs_d.view(np.int64)),
                "doc_h": pa.array(dict_h[d_d]),
            })

        return pair_partial

    def make_file_pair_partial(slice_idx: int, n_slices: int):
        """ONE pair table per parquet shard: stream row groups through
        pair_partial and dedup (h, doc_h) across the file. The read+
        combine fusion that beats the generic path at corpus scale: the
        operator feeding an all-to-all is exempt from streaming
        backpressure on this Ray, so a separate read op races its
        decompressed token payload (~20 GB at 30M rows) into spill ahead
        of the compute — the same failure mode the richness per-file
        combiner closed in round 4. Fused, only the pair output itself
        ever materializes."""
        pp = make_pair_partial(slice_idx, n_slices)

        def file_pair_partial(b: pa.Table) -> pa.Table:
            outs = []
            for chunk in _iter_shard_batches(
                b["item"].to_pylist(), [id_col, tokens_col]
            ):
                t = pp(chunk)
                if t.num_rows:
                    outs.append(t)
            if not outs:
                return pa.table({"h": pa.array([], pa.int64()),
                                 "doc_h": pa.array([], pa.int64())})
            allt = pa.concat_tables(outs)
            hs = allt["h"].to_numpy(zero_copy_only=False)
            dh = allt["doc_h"].to_numpy(zero_copy_only=False)
            hs_d, d_d = _distinct_hash_doc(hs, dh)
            return pa.table({"h": pa.array(hs_d), "doc_h": pa.array(d_d)})

        return file_pair_partial

    def hot_per_partition(t: pa.Table) -> pa.Table:
        empty = pa.table({"h": pa.array([], pa.int64()),
                          "ndocs": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        hs = t["h"].to_numpy(zero_copy_only=False)
        doc_h = t["doc_h"].to_numpy(zero_copy_only=False)
        hs_d, _d_d = _distinct_hash_doc(hs, doc_h)
        newh = np.ones(len(hs_d), dtype=bool)
        newh[1:] = hs_d[1:] != hs_d[:-1]
        starts = np.flatnonzero(newh)
        ndocs = np.diff(np.append(starts, len(hs_d)))
        keep = ndocs >= min_docs
        h_k, nd_k = hs_d[starts][keep], ndocs[keep].astype(np.int64)
        if max_hot_spans is not None and len(h_k) > max_hot_spans:
            # this partition's strongest K by (-ndocs, h) — since each
            # hash is wholly in one partition, the union of per-partition
            # top-Ks contains the exact global top-K
            order = np.lexsort((h_k, -nd_k))[:max_hot_spans]
            h_k, nd_k = h_k[order], nd_k[order]
        return pa.table({"h": pa.array(h_k), "ndocs": pa.array(nd_k)})

    from ._shuffle import hash_partitioned_map

    pair_bytes = None
    if num_slices is None or num_partitions is None:
        # the exchange is window-count-sized (NOT pre-aggregated), so both
        # the partition count and the slice count must scale with volume:
        # one partition's lexsort would blow a worker heap at 30M+ rows,
        # and the WHOLE exchange materializes at the all-to-all boundary —
        # the 30M headroom run (67 GB of pairs) ran this single node out
        # of disk. ONE column-pruned pass over n_tok when present (the
        # per-doc max(L-n+1, 0) clamp matters: a corpus of many sub-n
        # docs would otherwise drive the estimate to 0 and silently
        # disable the disk-safety slicing); skipped entirely when the
        # caller fixed both knobs — on a transformed seqs this pass
        # replays the upstream pipeline.
        try:
            if "n_tok" in seqs.schema().names:
                def _win_partial(b: pa.Table) -> pa.Table:
                    nt = b["n_tok"].to_numpy(zero_copy_only=False)
                    w = int(np.maximum(
                        nt.astype(np.int64) - (n - 1), 0).sum())
                    return pa.table({"w": pa.array([w], pa.int64())})

                windows = int(
                    seqs.select_columns(["n_tok"])
                    .map_batches(_win_partial, batch_format="pyarrow")
                    .sum("w")
                )
                pair_bytes = windows * 16  # two int64 columns
        except Exception:
            pair_bytes = None

    # Hash-domain slicing: run the exchange as S sequential passes over
    # h % S == s, bounding the materialized exchange to pair_bytes / S —
    # the external-memory answer to an exchange bigger than the cluster's
    # spill capacity. Costs S re-reads + re-hashes of the corpus (cheap,
    # pruned columns) in exchange for bounded peak storage; S == 1
    # whenever the exchange fits the budget, so small corpora are
    # untouched. On a real N-node cluster per-node disk scales with N and
    # the budget below (per-run override via slice_bytes) rises with it.
    if num_slices is None:
        if pair_bytes and slice_bytes:
            num_slices = max(1, -(-pair_bytes // int(slice_bytes)))
        else:
            num_slices = 1
    num_slices = max(1, int(num_slices))

    if raw_shard_paths is not None:
        _check_raw_shard_paths(seqs, raw_shard_paths)
    hs_parts, nd_parts = [], []
    for s in range(num_slices):
        if raw_shard_paths is not None:
            pairs = ray.data.from_items(
                list(raw_shard_paths),
                override_num_blocks=len(raw_shard_paths),
            ).map_batches(
                make_file_pair_partial(s, num_slices),
                batch_format="pyarrow",
            )
        else:
            pairs = seqs.select_columns([id_col, tokens_col]).map_batches(
                make_pair_partial(s, num_slices), batch_format="pyarrow"
            )
        hot_ds = hash_partitioned_map(
            pairs, ["h"], hot_per_partition,
            num_partitions=num_partitions, batch_format="pyarrow",
            input_bytes=(pair_bytes // num_slices) if pair_bytes else None,
        )
        for t in hot_ds.iter_batches(batch_format="pyarrow"):
            hs_parts.append(t["h"].to_numpy(zero_copy_only=False))
            nd_parts.append(t["ndocs"].to_numpy(zero_copy_only=False))
    if not hs_parts:
        return np.zeros(0, dtype=np.int64)
    h_all = np.concatenate(hs_parts)
    if max_hot_spans is not None and len(h_all) > max_hot_spans:
        nd_all = np.concatenate(nd_parts)
        order = np.lexsort((h_all, -nd_all))[:max_hot_spans]
        h_all = h_all[order]
    return np.sort(h_all)


def span_corrupt(
    seqs: ray.data.Dataset,
    mask_rate: float = 0.15,
    mean_span: int = 3,
    seed: int = 0,
    sentinel_base: int = 50_257,
    tokens_col: str = "tokens",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Deterministic T5-style span corruption over the token payload —
    the masked-denoising prep stage of an encoder-decoder training
    pipeline: spans covering ~``mask_rate`` of each doc are replaced in
    the INPUT by one sentinel each, and the TARGET is the concatenation
    of (sentinel_i, span_i tokens) in order.

    Grid-based sampling (exactly T5's expected statistics, but with NO
    sequential dependence so it vectorizes and is a pure function of
    ``(seed, doc_id-row-hash, position)`` — restart/reshard-stable like
    hash_split/shuffled_rows): positions are tiled into blocks of
    ``L = round(mean_span / mask_rate)`` (``mask_rate`` <= 0.5 — one
    span per block cannot realize more); within each FULL block one
    span starts at ``h1 % (L - span_len + 1)`` with
    ``span_len = 1 + h2 % (2*mean_span - 1)`` (mean = ``mean_span``),
    where h1/h2 are splitmix64 of (seed, row-id-hash, block). Spans
    never cross blocks, so they never overlap or touch doc boundaries;
    docs shorter than one block are left unmasked (input = tokens,
    empty target).

    → ``(doc_id, input_tokens: large_list<int64>, target_tokens:
    large_list<int64>, n_tok, n_masked, n_spans)``. Sentinel for span
    ``s`` (0-based, per doc) is ``sentinel_base + s``. Pure map — no
    exchange, no state.
    """
    from ._shuffle import _splitmix64

    if mean_span < 1:
        raise ValueError(f"mean_span must be >= 1, got {mean_span}")
    # one mean-length span per L-token block caps the achievable rate at
    # mean_span / L, and L must fit the longest span (2*mean_span - 1):
    # rates above 0.5 cannot be realized by this grid — refuse loudly
    # instead of silently under-masking.
    if not 0 < mask_rate <= 0.5:
        raise ValueError(
            f"mask_rate must be in (0, 0.5] for grid span corruption "
            f"(one span per block), got {mask_rate}"
        )
    L = max(int(round(mean_span / mask_rate)), 2 * mean_span)
    max_len = 2 * mean_span - 1

    def corrupt(b: pa.Table) -> pa.Table:
        col, flat, offs = _flat_with_offsets(b[tokens_col])
        idc = b[id_col].combine_chunks()
        if idc.null_count:
            raise ValueError(f"null {id_col} — corruption keys undefined")
        from ._shuffle import hash64_column

        rid = _splitmix64(
            hash64_column(idc) ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        )
        n_rows = len(col)
        lengths = np.diff(offs)
        n_blocks = lengths // L  # FULL blocks only
        total_blocks = int(n_blocks.sum())
        # per-block span decisions (vectorized over all blocks in batch)
        in_mask = np.zeros(len(flat), dtype=bool)
        span_start = np.zeros(len(flat), dtype=bool)
        if total_blocks:
            blk_doc = np.repeat(np.arange(n_rows, dtype=np.int64), n_blocks)
            blk_idx = (
                np.arange(total_blocks, dtype=np.int64)
                - np.repeat(np.cumsum(n_blocks) - n_blocks, n_blocks)
            )
            key = rid[blk_doc] ^ (blk_idx.astype(np.uint64)
                                  * np.uint64(0x9E3779B97F4A7C15))
            h1 = _splitmix64(key)
            h2 = _splitmix64(h1)
            span_len = 1 + (h2 % np.uint64(max_len)).astype(np.int64)
            start_off = (h1 % (np.uint64(L) - span_len.astype(np.uint64)
                               + np.uint64(1))).astype(np.int64)
            blk_base = offs[:-1][blk_doc] + blk_idx * L
            s0 = blk_base + start_off
            delta = np.zeros(len(flat) + 1, dtype=np.int64)
            np.add.at(delta, s0, 1)
            np.add.at(delta, s0 + span_len, -1)
            in_mask = np.cumsum(delta[:-1]) > 0
            span_start[s0] = True
        # ---- input: kept tokens + one sentinel per span start
        span_rank = np.cumsum(span_start) - 1  # global span counter
        doc_first_span = np.zeros(n_rows, dtype=np.int64)
        spans_per_doc = np.zeros(n_rows, dtype=np.int64)
        if total_blocks:
            cs = np.concatenate(([0], np.cumsum(span_start)))
            doc_first_span = cs[offs[:-1]]
            spans_per_doc = cs[offs[1:]] - cs[offs[:-1]]
        sent_of_span_global = np.zeros(max(int(span_start.sum()), 1),
                                       dtype=np.int64)
        if span_start.any():
            g = span_rank[span_start]
            d = np.repeat(np.arange(n_rows), np.diff(offs))[span_start]
            sent_of_span_global[g] = (
                sentinel_base + (g - doc_first_span[d])
            )
        emit = ~in_mask | span_start
        vals = np.where(
            span_start, sent_of_span_global[span_rank], flat.astype(np.int64)
        )[emit]
        cs_e = np.concatenate(([0], np.cumsum(emit)))
        in_offs = cs_e[offs].astype(np.int64)
        input_arr = pa.LargeListArray.from_arrays(
            pa.array(in_offs), pa.array(vals, pa.int64())
        )
        # ---- target: per doc, concat of (sentinel_s, span_s tokens)
        masked = in_mask
        n_masked_doc = np.zeros(n_rows, dtype=np.int64)
        if masked.any():
            cm = np.concatenate(([0], np.cumsum(masked)))
            n_masked_doc = (cm[offs[1:]] - cm[offs[:-1]]).astype(np.int64)
        tgt_len = n_masked_doc + spans_per_doc
        tgt_offs = np.concatenate(([0], np.cumsum(tgt_len))).astype(np.int64)
        tgt_vals = np.zeros(int(tgt_len.sum()), dtype=np.int64)
        if masked.any():
            pos_doc = np.repeat(np.arange(n_rows), np.diff(offs))
            # rank of each masked token among its doc's masked tokens
            # (padded cumsum: safe for trailing empty docs whose offset
            # equals len(flat))
            cm = np.concatenate(([0], np.cumsum(masked)))
            rank_in_doc = (
                cm[1:][masked] - cm[offs[:-1]][pos_doc[masked]] - 1
            )
            # span id (within doc) of each masked token: cumsum of starts
            sid_global = span_rank  # start-counter at each position
            sid_in_doc = (sid_global - doc_first_span[pos_doc])[masked]
            md = pos_doc[masked]
            base_t = tgt_offs[md]
            tok_idx = base_t + rank_in_doc + sid_in_doc + 1
            tgt_vals[tok_idx] = flat.astype(np.int64)[masked]
            # sentinel slots: first masked token of each span
            first_of_span = np.ones(int(masked.sum()), dtype=bool)
            first_of_span[1:] = (sid_in_doc[1:] != sid_in_doc[:-1]) | (
                md[1:] != md[:-1]
            )
            tgt_vals[(base_t + rank_in_doc + sid_in_doc)[first_of_span]] = (
                sentinel_base + sid_in_doc[first_of_span]
            )
        target_arr = pa.LargeListArray.from_arrays(
            pa.array(tgt_offs), pa.array(tgt_vals, pa.int64())
        )
        return pa.table({
            id_col: b[id_col],
            "input_tokens": input_arr,
            "target_tokens": target_arr,
            "n_tok": pa.array(lengths.astype(np.int64)),
            "n_masked": pa.array(n_masked_doc),
            "n_spans": pa.array(spans_per_doc),
        })

    return seqs.select_columns([id_col, tokens_col]).map_batches(
        corrupt, batch_format="pyarrow"
    )
