"""Exact deduplication on a key column — both reference policies.

Reference analogs:
- ``keep='none'``: ``pl.read_parquet(dir/*).unique(keep='none')`` — rows whose
  key appears more than once are dropped ENTIRELY (all copies); motivated by
  traces appearing in multiple services' exports (reference
  ``FileConcat.py:22-23``, ``meta/wiki/old/insights-experience.md:32-34``).
- ``keep='first'``: ``joined.unique("spanID")`` after each metric join
  (reference ``Joiner.py:104,160,209``). The reference's keep is UNORDERED
  (nondeterministic); here "first" is made deterministic: the kept row is
  the minimum under ``tiebreak_cols`` ordering (SURVEY §2.7 D2 note).

Scale design: a per-key call (``groupby(key)`` + one function per group)
would make one Python call per distinct key — millions of calls. Instead
the engine's keyed exchange (``_shuffle.raw_hash_exchange``) splits rows
on ``hash64(key) % num_partitions`` (vectorized) and runs ONE vectorized
pandas ``drop_duplicates`` / ``groupby`` per partition. Key-hash is
uniform, so the hot-source skew of the input does not skew partitions.
Heavy payload columns (tokens) ride the exchange untouched — the per-row token-array-equality invariant is
exactly that they come out byte-identical (checked in tests via the
checksum from ``sources.ingest.token_checksum``).

The flagship's payload dedup does not shuffle rows at all: it is the
merge-on-read build in ``stages/deletion_vector.py``, which starts from
:func:`duplicated_key_probe_files` — a doc_id-only pass that broadcasts the
duplicated key hashes (an exact sorted array, or a :class:`ShardedBloom`).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ._shuffle import file_groups, hash64_strings, hash_partitioned_map


class BloomFilter:
    """Deterministic double-hashing Bloom filter over uint64 key hashes.

    Used to broadcast the duplicated-key set when it is too large for an
    exact set (the 100 TB path): false positives only flag extra rows as
    suspects — never wrong results, because the winner decision over the
    suspects compares the actual keys. ~10 bits/key ≈ 1% FP."""

    def __init__(self, n_keys: int, bits_per_key: int = 10, num_hashes: int = 7):
        self.m = max(64, int(n_keys * bits_per_key))
        self.k = num_hashes
        self.bits = np.zeros((self.m + 63) // 64, dtype=np.uint64)

    def _positions(self, h: np.ndarray) -> np.ndarray:
        h1 = h
        h2 = (h >> np.uint64(17)) | np.uint64(1)
        with np.errstate(over="ignore"):
            return np.stack(
                [(h1 + np.uint64(i) * h2) % np.uint64(self.m) for i in range(self.k)]
            )

    def add_hashes(self, h: np.ndarray) -> None:
        pos = self._positions(h).ravel()
        np.bitwise_or.at(
            self.bits, (pos // 64).astype(np.int64), np.uint64(1) << (pos % 64)
        )

    def contains_hashes(self, h: np.ndarray) -> np.ndarray:
        pos = self._positions(h)
        hit = (self.bits[(pos // 64).astype(np.int64)] >> (pos % 64)) & np.uint64(1)
        return hit.all(axis=0).astype(bool)


def dedup(
    ds: ray.data.Dataset,
    key: str = "doc_id",
    keep: str = "first",
    tiebreak_cols: tuple[str, ...] = (),
    num_partitions: int | None = None,
    input_bytes: int | None = None,
) -> ray.data.Dataset:
    """Exact dedup on ``key``. keep='first' (deterministic min-tiebreak) or
    keep='none' (drop every copy of a duplicated key).

    This exchange moves UNREDUCED rows, so at scale pass ``input_bytes``
    (e.g. the on-disk parquet size) — the partition count then grows with
    volume so no partition exceeds a worker-heap-sized table
    (``_shuffle.exchange_partitions``)."""
    if keep not in ("first", "none"):
        raise ValueError("keep must be 'first' or 'none'")

    def dedup_partition(t: pa.Table) -> pa.Table:
        # compute kept-row indices on the scalar key/tiebreak columns only,
        # then pa.Table.take so payload columns (tokens) pass through
        # byte-identical (the token-array-equality invariant)
        kdf = t.select([key, *tiebreak_cols]).to_pandas()
        if keep == "none":
            sizes = kdf.groupby(key, sort=False)[key].transform("size").to_numpy()
            idx = np.flatnonzero(sizes == 1)
        else:
            ordered = kdf.sort_values([key, *tiebreak_cols], kind="stable")
            firsts = ordered.drop_duplicates(subset=key, keep="first").index.to_numpy()
            idx = np.sort(firsts)
        return t.take(idx)

    return hash_partitioned_map(
        ds, [key], dedup_partition, num_partitions=num_partitions,
        batch_format="pyarrow", input_bytes=input_bytes,
    )


class ShardedBloom:
    """Bloom filter sharded by ``hash % num_shards``, built DISTRIBUTIVELY.

    Each shard covers exactly the keys whose hash lands in it, so shards are
    built independently inside their reduce task and the driver only
    concatenates bitsets — it never materializes the duplicate-hash array
    (the round-1 scale caveat: at 100 TB that array is GBs; the bitsets are
    ~10 bits/dup total, and assembling them is O(num_shards) blob moves)."""

    def __init__(self, shards: list[BloomFilter]):
        self.shards = shards

    def contains_hashes(self, h: np.ndarray) -> np.ndarray:
        out = np.zeros(len(h), dtype=bool)
        sid = (h % np.uint64(len(self.shards))).astype(np.int64)
        for i, shard in enumerate(self.shards):
            mask = sid == i
            if mask.any():
                out[mask] = shard.contains_hashes(h[mask])
        return out


def duplicated_key_probe_files(
    input_path: str,
    key: str = "doc_id",
    exact_threshold: int = 50_000_000,
    bits_per_key: int = 10,
) -> "np.ndarray | ShardedBloom":
    """Duplicated-key probe over a parquet directory via raw Ray tasks.

    The probe is a small shared index, not a per-record transform — the one
    case where raw tasks beat a Dataset plan: a Dataset route shuffles ~24
    bytes/row of (hash, count) partials through a sort exchange (measured
    75 s at 10M rows / 16 CPUs), while this map/reduce moves the same
    information as plain numpy uint64 arrays (~8 bytes/row pre-uniqued per
    group) through the object store with no sort, no block accounting.

    The files are cut into G groups (:func:`_shuffle.file_groups`: G
    follows the cluster's cores and the corpus bytes, at most one group per
    file), and the hashes into G shards.
    map (1 task/group): read ONLY ``key`` of each file in the group,
    hash64, unique+counts over the whole group, split by ``hash %% G`` → G
    return objects, so each reduce task fetches exactly its shard from
    every group (a direct all-to-all, never via the driver).
    reduce (1 task/shard): merge counts, keep hashes with total > 1; emit
    the raw sorted array when small, else a Bloom bitset (the 100 TB path).
    Driver assembles either a sorted exact array or a :class:`ShardedBloom`.
    The exact array does not depend on G.
    """
    import pyarrow.dataset as pads

    dset = pads.dataset(input_path)
    # thread the dataset's filesystem into the read tasks so s3://-style
    # URIs work end-to-end (pyarrow filesystems are picklable); local
    # paths resolve to LocalFileSystem and behave as before
    fsys = dset.filesystem
    frag_paths = [f.path for f in dset.get_fragments()]
    if not frag_paths:
        return np.array([], dtype=np.uint64)
    groups = file_groups(frag_paths, fsys)
    num_shards = len(groups)

    @ray.remote(num_cpus=1, num_returns=num_shards)
    def map_group(paths: list[str]):
        import pyarrow.parquet as pq

        # each task reserves 1 CPU, but pyarrow's internal read pool spawns
        # a thread per HOST core — N concurrent reads × host threads thrash
        # (measured: the probe ran 7x SLOWER at 16 CPUs than at 4)
        h = np.concatenate(
            [
                hash64_strings(
                    pq.read_table(
                        p, columns=[key], use_threads=False, filesystem=fsys
                    )[key]
                )
                for p in paths
            ]
        )
        uniq, cnt = np.unique(h, return_counts=True)
        sid = (uniq % np.uint64(num_shards)).astype(np.int64)
        order = np.argsort(sid, kind="stable")
        uniq, cnt, sid = uniq[order], cnt[order], sid[order]
        bounds = np.searchsorted(sid, np.arange(num_shards + 1))
        out = [
            np.stack([uniq[lo:hi], cnt[lo:hi].astype(np.uint64)])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        return out if num_shards > 1 else out[0]

    per_shard_cap = max(1, exact_threshold // num_shards)

    @ray.remote(num_cpus=1)
    def reduce_shard(*parts):
        h = np.concatenate([p[0] for p in parts])
        c = np.concatenate([p[1] for p in parts])
        uniq, inv = np.unique(h, return_inverse=True)
        tot = np.bincount(inv, weights=c.astype(np.float64))
        dups = uniq[tot > 1.5]
        if len(dups) <= per_shard_cap:
            return ("exact", np.sort(dups).tobytes(), len(dups))
        bloom = BloomFilter(len(dups), bits_per_key)
        bloom.add_hashes(dups)
        return ("bloom", (bloom.m, bloom.bits.tobytes()), len(dups))

    shard_refs: list[list] = [[] for _ in range(num_shards)]
    for g in groups:
        refs = map_group.remote([frag_paths[i] for i in g])
        if num_shards == 1:
            refs = [refs]
        for s, r in enumerate(refs):
            shard_refs[s].append(r)
    results = ray.get([reduce_shard.remote(*shard_refs[s]) for s in range(num_shards)])

    total_dups = sum(n for _, _, n in results)
    if total_dups <= exact_threshold and all(kind == "exact" for kind, _, _ in results):
        return np.sort(
            np.concatenate(
                [np.frombuffer(b, dtype=np.uint64) for _, b, _ in results]
                or [np.array([], dtype=np.uint64)]
            )
        )
    shards: list[BloomFilter] = []
    for kind, payload, n in results:
        bloom = BloomFilter(max(1, n), bits_per_key)
        if kind == "bloom":
            bloom.m = int(payload[0])
            bloom.bits = np.frombuffer(payload[1], dtype=np.uint64).copy()
        else:
            bloom.add_hashes(np.frombuffer(payload, dtype=np.uint64))
        shards.append(bloom)
    return ShardedBloom(shards)
