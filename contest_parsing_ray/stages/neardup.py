"""Near-duplicate detection: MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine — the training-data dedup family (build-brief operators;
the reference only has exact dedup, ``FileConcat.py:22``).

Pipeline shapes (all deterministic, no RNG at query time — hash seeds are
fixed constants):

- MinHash+LSH: shingle (char n-grams, vectorized over the batch's raw
  Arrow buffers) → K minhashes per doc → B bands of R rows → explode to
  ``(band_id, band_hash, doc_id)`` — 24 bytes/row, the ONLY thing the band
  shuffle moves (never the text) → candidate pairs within buckets (capped)
  → join the text back for surviving candidates only → exact n-gram
  Jaccard verify per pair.
- SimHash: 64-bit weighted-feature hash; near-dups share all but a few
  bits; ``simhash_neardup_pairs`` buckets on byte-masked rotations for
  hamming-neighbor candidate pairs.
- Embedding cosine: exact all-pairs via a block-pair cartesian of Ray
  tasks (no driver materialization) — the LSH-bucketed scale variant lives
  in ``ann.py``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ._shuffle import _splitmix64, hash64_strings

_SEEDS = np.arange(1, 129, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
_SHINGLE_PRIME = np.uint64(1099511628211)
_BAND_PRIME = np.uint64(0x100000001B3)
_SIG_OFFSET = np.uint64(0xDEADBEEFCAFE)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized SWAR popcount of a uint64 array → int64 counts."""
    with np.errstate(over="ignore"):
        x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
        x = (x & np.uint64(0x3333333333333333)) + (
            (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
        )
        x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def _char_shingles(text: str, n: int = 5) -> np.ndarray:
    """Hashed char n-gram shingle set of one document (uint64, unique).

    Scalar reference path — the batch path (:func:`_batch_shingles`) computes
    the SAME hashes over the whole batch's buffers at once."""
    b = np.frombuffer(text.encode("utf-8", "ignore"), dtype=np.uint8)
    if len(b) == 0:
        return np.array([np.uint64(0)], dtype=np.uint64)
    if len(b) < n:
        return np.unique(_splitmix64(b.astype(np.uint64)))
    win = np.lib.stride_tricks.sliding_window_view(b.astype(np.uint64), n)
    with np.errstate(over="ignore"):
        h = np.zeros(len(win), dtype=np.uint64)
        for i in range(n):
            h = h * _SHINGLE_PRIME + win[:, i]
        h = _splitmix64(h)
    return np.unique(h)


def _batch_shingles(
    texts: pa.ChunkedArray | pa.Array, n: int = 5
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized shingle hashes for a whole string column.

    Returns ``(flat, offsets)``: ``flat`` is every doc's shingle hashes
    back-to-back (NOT uniqued — min-hash is duplicate-insensitive),
    ``offsets[i]:offsets[i+1]`` is doc i's slice. Every doc contributes at
    least one element (short/empty docs use the scalar fallback hashes).
    One rolling-polynomial pass over the concatenated byte buffer; windows
    crossing doc boundaries are masked out."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    texts = texts.cast(pa.large_binary())
    buf = np.frombuffer(texts.buffers()[2] or b"", dtype=np.uint8)
    doc_off = np.frombuffer(texts.buffers()[1], dtype=np.int64)[
        texts.offset : texts.offset + len(texts) + 1
    ]
    lengths = np.diff(doc_off)
    n_docs = len(lengths)
    n_windows = np.maximum(lengths - (n - 1), 0)
    # docs shorter than n (incl. empty/null) get their per-byte fallback
    short = n_windows == 0
    counts = np.where(short, np.maximum(lengths, 1), n_windows)
    offsets = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    flat = np.zeros(int(offsets[-1]), dtype=np.uint64)

    if len(buf) >= n and (~short).any():
        b64 = buf.astype(np.uint64)
        win = np.lib.stride_tricks.sliding_window_view(b64, n)
        with np.errstate(over="ignore"):
            h = np.zeros(len(win), dtype=np.uint64)
            for i in range(n):
                h = h * _SHINGLE_PRIME + win[:, i]
            h = _splitmix64(h)
        # scatter each doc's window hashes into its slice
        starts = doc_off[:-1][~short]
        wcounts = n_windows[~short]
        dst0 = offsets[:-1][~short]
        src_idx = np.repeat(starts, wcounts) + (
            np.arange(int(wcounts.sum())) - np.repeat(np.cumsum(wcounts) - wcounts, wcounts)
        )
        dst_idx = np.repeat(dst0, wcounts) + (
            np.arange(int(wcounts.sum())) - np.repeat(np.cumsum(wcounts) - wcounts, wcounts)
        )
        flat[dst_idx] = h[src_idx]

    if short.any():
        for i in np.nonzero(short)[0]:
            seg = buf[doc_off[i] : doc_off[i + 1]]
            if len(seg) == 0:
                flat[offsets[i]] = np.uint64(0)
            else:
                flat[offsets[i] : offsets[i + 1]] = _splitmix64(
                    seg.astype(np.uint64)
                )
    return flat, offsets


def batch_minhash_signatures(
    texts: pa.ChunkedArray | pa.Array,
    num_hashes: int = 128,
    shingle_n: int = 5,
    seed_chunk: int = 16,
) -> np.ndarray:
    """(n_docs, num_hashes) uint64 signatures, fully vectorized.

    Seeds are processed in chunks so peak memory is
    ``seed_chunk x total_shingles x 8B`` regardless of num_hashes."""
    flat, offsets = _batch_shingles(texts, shingle_n)
    n_docs = len(offsets) - 1
    sig = np.empty((n_docs, num_hashes), dtype=np.uint64)
    if n_docs == 0:
        return sig
    # every doc contributes >= 1 shingle, so segments are never empty and
    # all reduceat start indices are < len(flat)
    starts = offsets[:-1]
    with np.errstate(over="ignore"):
        for s0 in range(0, num_hashes, seed_chunk):
            seeds = _SEEDS[s0 : min(s0 + seed_chunk, num_hashes)]
            m = flat[None, :] * seeds[:, None] + _SIG_OFFSET
            m ^= m >> np.uint64(31)
            sig[:, s0 : s0 + len(seeds)] = np.minimum.reduceat(m, starts, axis=1).T
    return sig


def minhash_signature(text: str, num_hashes: int = 128, shingle_n: int = 5) -> np.ndarray:
    sh = _char_shingles(text, shingle_n)
    with np.errstate(over="ignore"):
        # affine rehash per seed; min over shingles
        m = sh[None, :] * _SEEDS[:num_hashes, None] + _SIG_OFFSET
        m ^= m >> np.uint64(31)
    return m.min(axis=1)


def jaccard_ngrams(a: str, b: str, n: int = 5) -> float:
    sa, sb = _char_shingles(a, n), _char_shingles(b, n)
    inter = len(np.intersect1d(sa, sb))
    union = len(sa) + len(sb) - inter
    return inter / union if union else 1.0


def band_hashes(sig: np.ndarray, bands: int) -> np.ndarray:
    """(n_docs, bands) int64 band hashes from (n_docs, K) signatures."""
    n_docs, k = sig.shape
    rows = k // bands
    bh = sig.reshape(n_docs, bands, rows)
    with np.errstate(over="ignore"):
        h = np.zeros((n_docs, bands), dtype=np.uint64)
        for r in range(rows):
            h = h * _BAND_PRIME + bh[:, :, r]
    return h.view(np.int64)


class MinHashBands:
    """Per-batch: vectorized signatures + band hashes, exploded to one
    ``(doc_id, band_id, band_hash)`` row per band — the text NEVER enters
    the band shuffle (24 B/row vs the corpus bytes x bands)."""

    def __init__(self, text_col="text", id_col="doc_id", num_hashes=128, bands=32,
                 shingle_n=5):
        assert num_hashes % bands == 0
        self.text_col, self.id_col = text_col, id_col
        self.num_hashes, self.bands, self.shingle_n = num_hashes, bands, shingle_n

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_docs = len(batch)
        sig = batch_minhash_signatures(
            batch[self.text_col], self.num_hashes, self.shingle_n
        )
        bh = band_hashes(sig, self.bands)
        ids = batch[self.id_col].combine_chunks()
        return pa.table(
            {
                self.id_col: ids.take(
                    pa.array(np.repeat(np.arange(n_docs), self.bands))
                ),
                "band_id": pa.array(
                    np.tile(np.arange(self.bands, dtype=np.int64), n_docs)
                ),
                "band_hash": pa.array(bh.reshape(-1)),
            }
        )


def _attach_pair_texts(
    candidates: ray.data.Dataset,
    docs: ray.data.Dataset,
    id_col: str,
    text_col: str,
) -> ray.data.Dataset:
    """Attach ``text_a``/``text_b`` to ``(id_a, id_b)`` candidate pairs
    WITHOUT a join shuffle: one streaming ``broadcast_semi_join`` pass
    filters the corpus down to candidate docs (no exchange of the large
    side), their texts ship once via ``ray.put``, and a task-pool map
    stamps both sides. Candidate pairs and their texts are output-size-
    class small BY CONSTRUCTION (banded-LSH / prefix-filtered candidates,
    orders of magnitude below the corpus) — the same driver-size
    assumption as ``broadcast_join``; if candidates ever rival the corpus
    the exchange-based ``stages/join.py::hash_join`` is the fallback. A
    replicated-dict join-back beats two join operators here: it moves
    neither side through an exchange."""
    from .join import broadcast_semi_join

    cand = candidates.materialize()

    def both_ids(b: pa.Table) -> pa.Table:
        both = pa.concat_arrays(
            [b["id_a"].combine_chunks(), b["id_b"].combine_chunks()]
        )
        return pa.table({id_col: both.unique()})

    ids = cand.map_batches(both_ids, batch_format="pyarrow")
    texts_small = broadcast_semi_join(
        docs.select_columns([id_col, text_col]), ids, on=id_col
    ).to_pandas()
    text_ref = ray.put(
        dict(zip(texts_small[id_col], texts_small[text_col]))
    )

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        tm = ray.get(text_ref)
        return df.assign(
            text_a=df["id_a"].map(tm), text_b=df["id_b"].map(tm)
        )

    return cand.map_batches(attach, batch_format="pandas")


def minhash_lsh_pairs(
    docs: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_hashes: int = 128,
    bands: int = 32,
    shingle_n: int = 5,
    jaccard_threshold: float = 0.8,
    max_bucket: int = 256,
) -> ray.data.Dataset:
    """→ (id_a, id_b, jaccard) pairs with verified n-gram Jaccard >= τ.
    id_a < id_b; deduplicated across bands.

    Scale shape: the band shuffle moves only (doc_id, band_id, band_hash);
    candidate pairs are generated per bucket with a vectorized self-merge
    (buckets over ``max_bucket`` docs are truncated — an over-full bucket
    means those docs are near-identical and will pair through other bands);
    the doc text is joined back ONLY for surviving candidate pairs."""
    banded = docs.map_batches(
        MinHashBands(
            text_col=text_col, id_col=id_col, num_hashes=num_hashes,
            bands=bands, shingle_n=shingle_n,
        ),
        batch_format="pyarrow",
    )

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"id_a": pd.Series(dtype=object),
                                 "id_b": pd.Series(dtype=object)})
        df = df.drop_duplicates(subset=["band_id", "band_hash", id_col])
        # cap pathological buckets (all-identical docs): keep the N lowest
        # ids per bucket (deterministic regardless of shuffle arrival order)
        # — members still pair via the survivors
        df = df.sort_values(["band_id", "band_hash", id_col], kind="stable")
        df = df.groupby(["band_id", "band_hash"], sort=False).head(max_bucket)
        m = df.merge(df, on=["band_id", "band_hash"], suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        out = m.rename(columns={f"{id_col}_a": "id_a", f"{id_col}_b": "id_b"})
        return out[["id_a", "id_b"]].drop_duplicates()

    from ._shuffle import hash_partitioned_map

    candidates = hash_partitioned_map(
        banded, ["band_id", "band_hash"], bucket_pairs, batch_format="pandas"
    )

    def dedup_pairs(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(subset=["id_a", "id_b"])

    candidates = hash_partitioned_map(
        candidates, ["id_a", "id_b"], dedup_pairs, batch_format="pandas"
    )

    withs = _attach_pair_texts(candidates, docs, id_col, text_col)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        jac = [
            jaccard_ngrams(a, b, shingle_n)
            for a, b in zip(df["text_a"], df["text_b"])
        ]
        df = df.assign(jaccard=np.asarray(jac, dtype=np.float64))
        df = df[df["jaccard"] >= jaccard_threshold]
        return df[["id_a", "id_b", "jaccard"]]

    return withs.map_batches(verify, batch_format="pandas")


class SimHash:
    """64-bit SimHash over hashed word features (Charikar 2002).

    Vectorized per batch: ONE Arrow regex split (RE2, no per-row Python),
    ONE buffer-level hash over all words of all docs, then segmented bit
    votes with reduceat — no per-document Python loop and no
    interpreter-level word list (the round-2 `.str.findall` + flatten)."""

    def __init__(self, text_col="text"):
        self.text_col = text_col
        # complement of the word class [A-Za-z0-9_]: splitting lowered text
        # on runs of non-word chars yields exactly findall's token stream,
        # plus empty strings at the doc edges which we mask out below
        self.sep = "[^a-z0-9_]+"

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.compute as pc

        col = pc.utf8_lower(
            pc.fill_null(pa.array(batch[self.text_col], from_pandas=True), "")
        )
        words = pc.split_pattern_regex(col, pattern=self.sep)
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        flat = words.flatten()
        off_dtype = np.int64 if pa.types.is_large_list(words.type) else np.int32
        raw_off = np.frombuffer(words.buffers()[1], dtype=off_dtype)[
            words.offset : words.offset + len(words) + 1
        ].astype(np.int64)
        n_docs = len(words)
        keep = pc.utf8_length(flat).to_numpy(zero_copy_only=False) > 0
        parent = np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(raw_off))
        lengths = np.bincount(parent[keep], minlength=n_docs).astype(np.int64)
        if not keep.any():
            batch["simhash"] = np.zeros(n_docs, dtype=np.int64)
            return batch
        hs = hash64_strings(flat.filter(pa.array(keep)))
        offsets = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(
            np.int64
        )
        # sentinel row so trailing empty docs keep reduceat in range
        bits = np.vstack([bits, np.zeros((1, 64), dtype=np.int64)])
        votes = np.add.reduceat(bits, offsets[:-1], axis=0)
        votes = np.where(lengths[:, None] == 0, 0, votes)
        majority = (votes * 2 - lengths[:, None]) > 0
        weights = (np.uint64(1) << np.arange(64, dtype=np.uint64))
        with np.errstate(over="ignore"):
            sim = (majority.astype(np.uint64) * weights[None, :]).sum(
                axis=1, dtype=np.uint64
            )
        batch["simhash"] = sim.view(np.int64)
        return batch


def simhash_docs(docs: ray.data.Dataset, text_col: str = "text") -> ray.data.Dataset:
    return docs.map_batches(SimHash(text_col=text_col), batch_format="pandas")


def simhash_neardup_pairs(
    docs: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
    max_bucket: int = 256,
) -> ray.data.Dataset:
    """SimHash hamming-neighbor pairs (id_a < id_b, hamming <= max_hamming).

    Pigeonhole bucketing: split the 64-bit simhash into ``max_hamming + 1``
    segments — two hashes within hamming distance d agree on at least one
    segment — bucket on ``(segment_id, segment_value)``, pair within
    buckets (capped), then verify exact hamming distance via popcount.
    Shuffle payload per doc: (max_hamming+1) x 24 B."""
    n_seg = max_hamming + 1
    seg_bits = 64 // n_seg
    with_hash = simhash_docs(docs, text_col=text_col)

    def explode(b: pa.Table) -> pa.Table:
        h = b["simhash"].combine_chunks().to_numpy(zero_copy_only=False).view(np.uint64)
        n = len(h)
        segs = np.empty((n, n_seg), dtype=np.int64)
        for s in range(n_seg):
            lo = s * seg_bits
            width = seg_bits if s < n_seg - 1 else 64 - lo
            mask = (np.uint64(1) << np.uint64(width)) - np.uint64(1) if width < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
            segs[:, s] = ((h >> np.uint64(lo)) & mask).view(np.int64)
        ids = b[id_col].combine_chunks()
        return pa.table(
            {
                id_col: ids.take(pa.array(np.repeat(np.arange(n), n_seg))),
                "simhash": pa.array(np.repeat(h.view(np.int64), n_seg)),
                "seg_id": pa.array(np.tile(np.arange(n_seg, dtype=np.int64), n)),
                "seg_val": pa.array(segs.reshape(-1)),
            }
        )

    exploded = with_hash.map_batches(explode, batch_format="pyarrow")

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["id_a", "id_b", "hamming"]
        if len(df) == 0:
            return pd.DataFrame(
                {"id_a": pd.Series(dtype=object), "id_b": pd.Series(dtype=object),
                 "hamming": pd.Series(dtype=np.int64)}
            )
        df = df.drop_duplicates(subset=["seg_id", "seg_val", id_col])
        # deterministic cap: survivors = lowest ids, not shuffle arrival order
        df = df.sort_values(["seg_id", "seg_val", id_col], kind="stable")
        df = df.groupby(["seg_id", "seg_val"], sort=False).head(max_bucket)
        m = df.merge(df, on=["seg_id", "seg_val"], suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        if len(m) == 0:
            return pd.DataFrame(
                {"id_a": pd.Series(dtype=object), "id_b": pd.Series(dtype=object),
                 "hamming": pd.Series(dtype=np.int64)}
            )
        xor = (
            m["simhash_a"].to_numpy().astype(np.int64).view(np.uint64)
            ^ m["simhash_b"].to_numpy().astype(np.int64).view(np.uint64)
        )
        m = m.assign(hamming=_popcount64(xor))
        m = m[m["hamming"] <= max_hamming]
        out = m.rename(columns={f"{id_col}_a": "id_a", f"{id_col}_b": "id_b"})
        return out[cols].drop_duplicates(subset=["id_a", "id_b"])

    from ._shuffle import hash_partitioned_map

    pairs = hash_partitioned_map(
        exploded, ["seg_id", "seg_val"], bucket_pairs, batch_format="pandas"
    )

    def dedup_pairs(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(subset=["id_a", "id_b"])

    return hash_partitioned_map(
        pairs, ["id_a", "id_b"], dedup_pairs, batch_format="pandas"
    )


def embedding_neardup_pairs(
    embeddings: ray.data.Dataset,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    threshold: float = 0.95,
    target_block_rows: int = 65536,
) -> ray.data.Dataset:
    """Exact all-pairs cosine >= τ — block-pair cartesian of Ray tasks.

    Each task compares one (block_i, block_j) pair with one matmul; the
    driver only holds block refs, never the vectors. O(B^2) tasks over B
    blocks: the exact baseline (O(n^2) inherently) — use
    ``ann.lsh_bucket_neardup`` as the sub-quadratic scale path.
    Output (id_a, id_b, cosine) with id_a < id_b."""

    def pack(b: pa.Table) -> pa.Table:
        ids = b[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        mat = np.stack(
            b[vec_col].combine_chunks().to_numpy(zero_copy_only=False)
        ).astype(np.float64)
        mat /= np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        vec = pa.FixedSizeListArray.from_arrays(
            pa.array(mat.reshape(-1)), mat.shape[1]
        )
        return pa.table({id_col: pa.array(ids), "__vec": vec})

    packed = (
        embeddings.select_columns([id_col, vec_col])
        .map_batches(pack, batch_format="pyarrow", batch_size=target_block_rows)
        .materialize()
    )
    refs = list(packed.get_internal_block_refs())

    def _unpack(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        col = t["__vec"].combine_chunks()
        dim = col.type.list_size
        return (
            t[id_col].to_numpy(zero_copy_only=False),
            col.flatten().to_numpy(zero_copy_only=False).reshape(-1, dim),
        )

    @ray.remote
    def block_pair(ta: pa.Table, tb: pa.Table) -> pa.Table:
        ia, ma = _unpack(ta)
        ib, mb = _unpack(tb)
        sims = ma @ mb.T
        qa, qb = np.nonzero(sims >= threshold)
        a_ids, b_ids = ia[qa], ib[qb]
        lo = np.minimum(a_ids, b_ids)
        hi = np.maximum(a_ids, b_ids)
        valid = lo < hi  # drops self-pairs; mirrored dups removed downstream
        return pa.table(
            {
                "id_a": pa.array(lo[valid]),
                "id_b": pa.array(hi[valid]),
                "cosine": pa.array(sims[qa, qb][valid].astype(np.float64)),
            }
        )

    outs = []
    for i in range(len(refs)):
        for j in range(i, len(refs)):
            outs.append(block_pair.remote(refs[i], refs[j]))
    if not outs:
        return ray.data.from_arrow(
            pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64()),
                      "cosine": pa.array([], pa.float64())})
        )
    pairs = ray.data.from_arrow_refs(outs)

    # cross-block comparisons see each unordered pair twice — dedup
    def dedup_pairs(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(subset=["id_a", "id_b"])

    from ._shuffle import hash_partitioned_map

    return hash_partitioned_map(
        pairs, ["id_a", "id_b"], dedup_pairs, batch_format="pandas"
    )


def _empty_clusters() -> ray.data.Dataset:
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([], pa.string()),
                "cluster_rep": pa.array([], pa.string()),
                "cluster_size": pa.array([], pa.int64()),
            }
        )
    )


def cluster_pairs(
    pairs: ray.data.Dataset,
    id_a: str = "id_a",
    id_b: str = "id_b",
    mode: str = "auto",
    driver_max_pairs: int = 2_000_000,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Connected components over a near-duplicate pair list →
    ``(doc_id, cluster_rep, cluster_size)`` for every doc that appears in
    a pair. The representative is the smallest member id — the same
    deterministic survivor rule the LSH buckets and exact dedup use, so
    "keep cluster_rep, drop the rest" is a stable dedup decision.

    Two engines behind one result contract:

    - ``driver``: union-find over the collected pair list. The verified
      neardup pair output is orders of magnitude smaller than the corpus
      by construction (banded LSH + capped buckets + exact verify), so
      this is the fast path at normal duplication rates.
    - ``distributed``: iterative min-label propagation over a hash
      exchange (:func:`_propagate_min_labels`) — no driver
      materialization, for duplicate-heavy corpora where the pair list
      itself is at data scale.

    ``mode="auto"`` (default) picks by pair count: ≤ ``driver_max_pairs``
    → driver, else distributed. Both are deterministic and agree exactly
    (property-tested on cliques/chains/random graphs).
    """
    if mode not in ("auto", "driver", "distributed"):
        raise ValueError(f"unknown mode {mode!r}")
    refs = pairs.select_columns([id_a, id_b]).to_arrow_refs()
    if not refs:
        return _empty_clusters()
    if mode != "driver":
        nrow = ray.remote(lambda t: t.num_rows).options(num_cpus=0)
        total = sum(ray.get([nrow.remote(r) for r in refs]))
        if total == 0:
            return _empty_clusters()
        if mode == "distributed" or total > driver_max_pairs:
            return _propagate_min_labels(
                refs, id_a, id_b, num_partitions=num_partitions
            )
    blocks = [t for t in ray.get(refs) if t.num_rows]
    if not blocks:
        return _empty_clusters()
    tbl = pa.concat_tables(blocks, promote_options="default")
    a = tbl[id_a].to_pylist()
    b = tbl[id_b].to_pylist()

    parent: dict = {}

    def find(x):
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for x, y in zip(a, b):
        rx, ry = find(x), find(y)
        if rx != ry:
            # union by id order keeps the eventual walk deterministic
            if str(ry) < str(rx):
                rx, ry = ry, rx
            parent[ry] = rx

    members: dict = {}
    for x in parent:
        members.setdefault(find(x), []).append(x)

    doc_ids, reps, sizes = [], [], []
    for root, ms in members.items():
        rep = min(ms)
        for m in ms:
            doc_ids.append(m)
            reps.append(rep)
            sizes.append(len(ms))
    out = pa.table(
        {
            "doc_id": pa.array(doc_ids),
            "cluster_rep": pa.array(reps),
            "cluster_size": pa.array(sizes, type=pa.int64()),
        }
    )
    return ray.data.from_arrow(out)


def _propagate_min_labels(
    edge_refs: list,
    id_a: str,
    id_b: str,
    num_partitions: int | None = None,
    max_rounds: int = 512,
) -> ray.data.Dataset:
    """Distributed connected components by iterative min-label propagation
    — the scale path of :func:`cluster_pairs` for pair graphs too large to
    union-find on the driver.

    Every node starts labeled with its own id; per round each node whose
    label changed pushes it along its edges (ONE hash exchange keyed by
    the destination node) and every node keeps the minimum of what it
    holds and what arrived, plus a local pointer-jump over labels owned by
    the same shard. Fixpoint (zero changes anywhere) = every node carries
    its component's minimum id — the same ``cluster_rep`` the union-find
    path produces. Rounds ≤ graph diameter (near-dup components are
    near-cliques, so typically 2-3); per round only the CHANGED frontier
    re-sends, so late rounds cost ~nothing. Nothing ever materializes on
    the driver except one int per shard per round.
    """
    import pandas as pd

    from ._shuffle import hash64_column

    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    P = num_partitions or max(4, min(64, cpus))

    @ray.remote(num_cpus=1)
    def split_edges(t: pa.Table):
        # both orientations so every endpoint owns an out-edge list; route
        # each directed edge to hash(src) % P
        a = t[id_a].combine_chunks()
        b = t[id_b].combine_chunks()
        src = pa.chunked_array([a, b]).combine_chunks()
        dst = pa.chunked_array([b, a]).combine_chunks()
        part = (hash64_column(src) % np.uint64(P)).astype(np.int64)
        order = np.argsort(part, kind="stable")
        tt = pa.table({"src": src, "dst": dst}).take(pa.array(order))
        bounds = np.searchsorted(part[order], np.arange(P + 1))
        out = [tt.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]
        return out if P > 1 else out[0]

    @ray.remote(num_cpus=1)
    def init_shard(*parts):
        ts = [p for p in parts if p is not None and len(p)]
        if not ts:
            return None
        adj = pa.concat_tables(ts).combine_chunks()
        src = adj["src"].to_numpy(zero_copy_only=False)
        dst = adj["dst"].to_numpy(zero_copy_only=False)
        nodes = np.sort(pd.unique(src))
        src_idx = pd.Index(nodes).get_indexer(src).astype(np.int64)
        # static routing: pre-partition edges by hash(dst) so gen() is a
        # mask + slice per round, no re-hashing
        dpart = (hash64_column(pa.array(dst)) % np.uint64(P)).astype(np.int64)
        order = np.argsort(dpart, kind="stable")
        bounds = np.searchsorted(dpart[order], np.arange(P + 1))
        labels = nodes.copy()
        changed = np.ones(len(nodes), dtype=bool)
        return {
            "src_idx": src_idx[order],
            "dst": dst[order],
            "bounds": bounds.astype(np.int64),
            "nodes": nodes,
            "labels": labels,
            "changed": changed,
        }

    @ray.remote(num_cpus=1)
    def gen(state):
        if state is None or not state["changed"].any():
            return [None] * P if P > 1 else None
        out = []
        si, dv, bounds = state["src_idx"], state["dst"], state["bounds"]
        labels, changed = state["labels"], state["changed"]
        for q in range(P):
            lo, hi = bounds[q], bounds[q + 1]
            m = changed[si[lo:hi]]
            if not m.any():
                out.append(None)
                continue
            out.append(
                pa.table(
                    {
                        "dst": pa.array(dv[lo:hi][m]),
                        "lab": pa.array(labels[si[lo:hi][m]]),
                    }
                )
            )
        return out if P > 1 else out[0]

    @ray.remote(num_cpus=1, num_returns=2)
    def apply(state, *msg_parts):
        if state is None:
            return None, 0
        nodes, labels = state["nodes"], state["labels"]
        msgs = [m for m in msg_parts if m is not None and len(m)]
        new = labels.copy()
        if msgs:
            mt = pa.concat_tables(msgs, promote_options="default")
            dst = mt["dst"].to_numpy(zero_copy_only=False)
            lab = mt["lab"].to_numpy(zero_copy_only=False)
            idx = pd.Index(nodes).get_indexer(dst)
            mins = pd.Series(lab).groupby(idx).min()
            ci = mins.index.to_numpy()
            cv = mins.to_numpy()
            better = cv < new[ci]
            new[ci[better]] = cv[better]
        # local pointer jump: labels naming nodes this shard owns can skip
        # straight to those nodes' (smaller-or-equal) labels — free rounds
        pidx = pd.Index(nodes)
        for _ in range(3):
            li = pidx.get_indexer(new)
            has = li >= 0
            if not has.any():
                break
            jumped = new.copy()
            jumped[has] = new[li[has]]
            smaller = jumped < new
            if not smaller.any():
                break
            new = np.where(smaller, jumped, new)
        chg = new != labels
        state = dict(state)
        state["labels"], state["changed"] = new, chg
        return state, int(chg.sum())

    @ray.remote(num_cpus=1)
    def size_split(state):
        if state is None:
            return [None] * P if P > 1 else None
        nodes, labels = state["nodes"], state["labels"]
        part = (hash64_column(pa.array(labels)) % np.uint64(P)).astype(np.int64)
        order = np.argsort(part, kind="stable")
        bounds = np.searchsorted(part[order], np.arange(P + 1))
        t = pa.table({"doc_id": pa.array(nodes[order]),
                      "cluster_rep": pa.array(labels[order])})
        out = [t.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]
        return out if P > 1 else out[0]

    @ray.remote(num_cpus=1)
    def size_reduce(*parts):
        ts = [p for p in parts if p is not None and len(p)]
        if not ts:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.string()),
                    "cluster_rep": pa.array([], pa.string()),
                    "cluster_size": pa.array([], pa.int64()),
                }
            )
        t = pa.concat_tables(ts, promote_options="default").combine_chunks()
        reps = t["cluster_rep"].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(reps, sort=False)
        sizes = np.bincount(codes).astype(np.int64)
        return t.append_column("cluster_size", pa.array(sizes[codes]))

    def fan(refs_2d: list, q: int) -> list:
        return [refs_2d[p][q] for p in range(len(refs_2d))]

    split = split_edges.options(num_returns=P) if P > 1 else split_edges
    shard_refs: list[list] = [[] for _ in range(P)]
    for r in edge_refs:
        outs = split.remote(r)
        if P == 1:
            outs = [outs]
        for q, o in enumerate(outs):
            shard_refs[q].append(o)
    states = [init_shard.remote(*shard_refs[q]) for q in range(P)]

    gen_t = gen.options(num_returns=P) if P > 1 else gen
    for _ in range(max_rounds):
        msgs = []
        for p in range(P):
            outs = gen_t.remote(states[p])
            msgs.append([outs] if P == 1 else list(outs))
        counts = []
        nxt = []
        for q in range(P):
            s, c = apply.remote(states[q], *fan(msgs, q))
            nxt.append(s)
            counts.append(c)
        states = nxt
        if sum(ray.get(counts)) == 0:
            break
    else:
        raise RuntimeError(
            f"min-label propagation did not converge in {max_rounds} rounds"
        )

    sized = []
    size_t = size_split.options(num_returns=P) if P > 1 else size_split
    for p in range(P):
        outs = size_t.remote(states[p])
        sized.append([outs] if P == 1 else list(outs))
    out_refs = [size_reduce.remote(*fan(sized, q)) for q in range(P)]
    return ray.data.from_arrow_refs(out_refs)


# ---------------------------------------------------------------------------
# Exact n-gram Jaccard all-pairs (prefix filtering / AllPairs family)
# ---------------------------------------------------------------------------

_WORD_RE = None  # compiled lazily; RE2 \S byte class, see _word_ngram_set


def _word_ngram_set(text: str, n: int = 3) -> set:
    """Distinct word n-gram shingles (space-joined strings) of one doc.

    Tokens are maximal runs of non-whitespace where whitespace is RE2's
    ``\\s`` = ``[\\t\\n\\f\\r ]`` — byte-identical to DuckDB/pyarrow
    ``regexp_extract_all(text, '\\S+')`` (Python's own ``\\s`` adds ``\\v``
    and Unicode spaces, so a literal ``\\S+`` here would diverge)."""
    global _WORD_RE
    if _WORD_RE is None:
        import re

        _WORD_RE = re.compile(r"[^\t\n\f\r ]+")
    toks = _WORD_RE.findall(text or "")
    return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}


def jaccard_word_ngrams(a: str, b: str, n: int = 3) -> float:
    sa, sb = _word_ngram_set(a, n), _word_ngram_set(b, n)
    inter = len(sa & sb)
    union = len(sa) + len(sb) - inter
    return inter / union if union else 1.0


class NgramShingles:
    """Per-batch distinct word n-gram shingle emitter: one row per
    ``(shingle_hash, doc_id)`` plus ``m`` = the doc's distinct-shingle
    count (every row of a doc carries it — the prefix selector downstream
    needs it next to each row). One vectorized pass: ONE RE2 split, ONE
    buffer-level word hash, rolling polynomial for the n-gram hash,
    lexsort for per-doc distinct."""

    def __init__(self, text_col="text", id_col="doc_id", n=3):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.text_col, self.id_col, self.n = text_col, id_col, n

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n = self.n
        col = pc.fill_null(batch[self.text_col].combine_chunks(), "")
        words = pc.split_pattern_regex(col, pattern=r"\s+")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        flat = words.flatten()
        off_dtype = np.int64 if pa.types.is_large_list(words.type) else np.int32
        raw_off = np.frombuffer(words.buffers()[1], dtype=off_dtype)[
            words.offset : words.offset + len(words) + 1
        ].astype(np.int64)
        n_docs = len(words)
        ids = batch[self.id_col].combine_chunks()
        empty = pa.table(
            {
                "shingle": pa.array([], pa.int64()),
                self.id_col: ids.slice(0, 0),
                "m": pa.array([], pa.int64()),
            }
        )
        # split leaves empty strings at doc edges — mask them out
        keep = pc.utf8_length(flat).to_numpy(zero_copy_only=False) > 0
        if not keep.any():
            return empty
        parent_w = np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(raw_off))
        lengths = np.bincount(parent_w[keep], minlength=n_docs).astype(np.int64)
        hs = hash64_strings(flat.filter(pa.array(keep)))

        # rolling polynomial n-gram hash over the doc-major word-hash array;
        # windows crossing doc boundaries masked via per-doc window counts
        n_sh = np.maximum(lengths - (n - 1), 0)
        total = int(n_sh.sum())
        if total == 0:
            return empty
        woff = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(lengths, out=woff[1:])
        n_win_all = len(hs) - (n - 1)
        with np.errstate(over="ignore"):
            h = np.zeros(n_win_all, dtype=np.uint64)
            for i in range(n):
                h = h * _SHINGLE_PRIME + hs[i : n_win_all + i]
            h = _splitmix64(h)
        doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), n_sh)
        base = np.repeat(woff[:-1][n_sh > 0], n_sh[n_sh > 0])
        run0 = np.repeat(np.cumsum(n_sh) - n_sh, n_sh)
        win_idx = base + (np.arange(total, dtype=np.int64) - run0)
        sh = h[win_idx]

        # per-doc distinct: lexsort, then first-occurrence mask
        order = np.lexsort((sh, doc_of))
        sh_s, doc_s = sh[order], doc_of[order]
        first = np.ones(total, dtype=bool)
        first[1:] = (doc_s[1:] != doc_s[:-1]) | (sh_s[1:] != sh_s[:-1])
        sh_u, doc_u = sh_s[first], doc_s[first]
        m = np.bincount(doc_u, minlength=n_docs).astype(np.int64)
        return pa.table(
            {
                "shingle": pa.array(sh_u.view(np.int64)),
                self.id_col: ids.take(pa.array(doc_u)),
                "m": pa.array(m[doc_u]),
            }
        )


def _prefix_len(m, tau: float):
    """Prefix-filter length: ``m - ceil(tau*m) + 1`` smallest shingles.
    The epsilon guards float error in the SAFE direction (smaller required
    overlap -> longer prefix -> extra candidates, never lost ones)."""
    o = np.ceil(tau * np.asarray(m, dtype=np.float64) - 1e-9).astype(np.int64)
    return np.maximum(np.asarray(m, dtype=np.int64) - o + 1, 0)


def ngram_jaccard_pairs(
    docs: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 3,
    threshold: float = 0.4,
    max_bucket: int | None = None,
) -> ray.data.Dataset:
    """EXACT word n-gram Jaccard all-pairs: every (id_a < id_b, jaccard)
    with jaccard >= ``threshold`` — no approximation, unlike MinHash/SimHash.

    Prefix filtering with RAREST-FIRST ordering (Bayardo et al., AllPairs /
    Chaudhuri et al.): J(A,B) >= tau implies |A&B| >= tau*max(|A|,|B|), so
    under ANY global total order on shingles the smallest common shingle
    sits inside both docs' first ``m - ceil(tau*m) + 1`` shingles — every
    qualifying pair shares a prefix shingle. Ordering shingles by
    (document frequency, hash) makes prefixes prefer the RAREST shingles,
    so candidate buckets stay tiny even on boilerplate-heavy corpora
    (hash-ordered prefixes measured 677k candidates -> df-ordered ~300 on
    the sf0.1 documents table, 256 true pairs).

    Scale shape: three hash exchanges over the 24 B/row distinct-shingle
    projection (df count, per-doc prefix select, candidate buckets) plus
    one over candidate pairs — the TEXT never shuffles; it is joined back
    only for surviving candidates and verified with exact string-shingle
    Jaccard (hashes only FIND candidates — a 64-bit collision can add a
    candidate that the string verify rejects, never lose a pair; df ties
    are broken by hash, keeping the order total). ``max_bucket=None``
    keeps the operator exact; setting it caps buckets (deterministic
    lowest-id survivors) trading exactness for a hard skew bound."""
    if not (0.0 < threshold <= 1.0):
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    from ._shuffle import hash_partitioned_map

    # the shingle-projection exchanges move UNREDUCED (shingle, id) rows,
    # roughly proportional to the corpus text bytes — floor the partition
    # count by that estimate so one partition stays worker-heap-sized at
    # 100x (the pre-aggregated exchanges elsewhere don't need this)
    proj_bytes = None
    try:
        proj_bytes = docs.size_bytes()
    except Exception:
        pass

    shingles = docs.map_batches(
        NgramShingles(text_col=text_col, id_col=id_col, n=n),
        batch_format="pyarrow",
    )

    def attach_df(df: pd.DataFrame) -> pd.DataFrame:
        # rows are globally unique (one per doc x distinct shingle), so the
        # partition-local group size IS the global document frequency
        if len(df) == 0:
            return df.assign(df=pd.Series(dtype="int64"))
        return df.assign(df=df.groupby("shingle")[id_col].transform("size"))

    with_df = hash_partitioned_map(
        shingles, ["shingle"], attach_df, batch_format="pandas",
        input_bytes=proj_bytes,
    )

    def select_prefix(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["shingle", id_col]
        if len(df) == 0:
            return df[cols]
        df = df.sort_values([id_col, "df", "shingle"], kind="stable")
        pos = df.groupby(id_col, sort=False).cumcount().to_numpy()
        keep = pos < _prefix_len(df["m"].to_numpy(), threshold)
        return df.loc[keep, cols]

    prefixes = hash_partitioned_map(
        with_df, [id_col], select_prefix, batch_format="pandas",
        input_bytes=proj_bytes,
    )

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        id_dt = df[id_col].dtype if len(df) else object
        if len(df) == 0:
            return pd.DataFrame(
                {"id_a": pd.Series(dtype=id_dt), "id_b": pd.Series(dtype=id_dt)}
            )
        df = df.sort_values(["shingle", id_col], kind="stable")
        if max_bucket is not None:
            df = df.groupby("shingle", sort=False).head(max_bucket)
        m = df.merge(df, on="shingle", suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        out = m.rename(columns={f"{id_col}_a": "id_a", f"{id_col}_b": "id_b"})
        return out[["id_a", "id_b"]].drop_duplicates()

    candidates = hash_partitioned_map(
        prefixes, ["shingle"], bucket_pairs, batch_format="pandas",
        input_bytes=proj_bytes,
    )
    candidates = hash_partitioned_map(
        candidates,
        ["id_a", "id_b"],
        lambda df: df.drop_duplicates(subset=["id_a", "id_b"]),
        batch_format="pandas",
    )

    withs = _attach_pair_texts(candidates, docs, id_col, text_col)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        jac = np.asarray(
            [
                jaccard_word_ngrams(a, b, n)
                for a, b in zip(df["text_a"], df["text_b"])
            ],
            dtype=np.float64,
        )
        df = df.assign(jaccard=jac)
        df = df[df["jaccard"] >= threshold]
        return df[["id_a", "id_b", "jaccard"]]

    return withs.map_batches(verify, batch_format="pandas")
