"""Hash-partitioned shuffle helper — the engine's workhorse exchange.

Ray Data's ``groupby(cols).map_groups(fn)`` makes one Python call per
distinct group; for high-cardinality keys (doc_id dedup, (key, bucket)
rollup merges) that is millions of interpreter calls. The scalable idiom is
to shuffle on ``__part = hash64(cols) % P`` (one small int key, P ~ a few x
cluster cores) and run ONE vectorized function per partition, which handles
all of its groups with pandas/numpy in C.

Hashing is vectorized over the raw Arrow buffers (no Python per row) and is
uniform in the key hash, so input skew (the 80%-hot source, FIXTURES.md F1)
does not skew partitions unless all rows share ONE key value — for that
case callers add more columns (e.g. bucket) to the partition key, the
engine's skew story (SURVEY §4 skew row).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data


def _splitmix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = x.astype(np.uint64, copy=True)
        x += np.uint64(0x9E3779B97F4A7C15)
        z = x
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


def _hash_equal_len_block(mat: np.ndarray) -> np.ndarray:
    """Equal-length fast path: ``mat`` is the zero-copy (n, L) byte matrix
    of n strings of length L. Same math as :func:`_hash_strings_block`
    (bit-identical, property-tested): per-position mix then sum — but as L
    column passes over contiguous arrays instead of the per-byte
    expansion + gather + reduceat, which is ~2-4x less memory traffic.
    Fixed-length id columns (doc_id) are the dedup probe's hot path."""
    n, L = mat.shape
    with np.errstate(over="ignore"):
        PRIME = np.uint64(0x100000001B3)
        acc = np.zeros(n, dtype=np.uint64)
        # transpose once so each position pass reads contiguous bytes — the
        # row-major column slice costs a full cache line per byte (measured
        # ~L x the traffic for L-char ids)
        matT = np.ascontiguousarray(mat.T) if L > 1 else mat.T
        for j in range(L):
            w = (np.uint64(j) + np.uint64(0x9E3779B9)) * PRIME
            mixed = (matT[j].astype(np.uint64) + np.uint64(1)) * w
            mixed ^= mixed >> np.uint64(29)
            mixed *= np.uint64(0xBF58476D1CE4E5B9)
            acc += mixed
        if L == 0:
            acc[:] = np.uint64(0xCBF29CE484222325)
        acc ^= np.uint64(L) * np.uint64(0x9E3779B97F4A7C15)
        acc ^= acc >> np.uint64(32)
    return acc


def _hash_strings_block(
    buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """One block of the string hash (same math for any block split)."""
    total = int(lengths.sum())
    n = len(lengths)
    if n and lengths[0] > 0 and (lengths == lengths[0]).all():
        L = int(lengths[0])
        # contiguous equal-length strings (the usual case for a sliced
        # offsets buffer) reshape zero-copy into an (n, L) byte matrix
        if starts[-1] - starts[0] == (n - 1) * L:
            mat = buf[starts[0] : starts[0] + n * L].reshape(n, L)
            return _hash_equal_len_block(mat)
    seg_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=seg_off[1:])
    with np.errstate(over="ignore"):
        PRIME = np.uint64(0x100000001B3)
        if total:
            # int32 position temporaries when the block fits (always, for
            # the cache-sized blocks hash64_strings cuts) — the per-byte
            # expansion arrays dominate this function's memory traffic
            idt = np.int32 if total < 2**31 - 2 else np.int64
            pos = np.arange(total, dtype=idt) - np.repeat(
                seg_off[:-1].astype(idt), lengths
            )
            if int(starts[-1] + lengths[-1] - starts[0]) == total:
                # strings adjacent in the buffer (the normal case for a
                # combined/sliced values buffer): the byte gather is the
                # identity — read the span directly and take the position
                # weights from a tiny table (saves the index build + the
                # total-sized gather, ~2x on id-length strings)
                data = buf[starts[0] : starts[0] + total].astype(np.uint64)
                wtab = (
                    np.arange(int(lengths.max()), dtype=np.uint64)
                    + np.uint64(0x9E3779B9)
                ) * PRIME
                weights = wtab[pos]
            else:
                byte_idx = np.repeat(starts, lengths) + pos
                data = buf[byte_idx].astype(np.uint64)
                weights = (
                    pos.astype(np.uint64) + np.uint64(0x9E3779B9)
                ) * PRIME
            mixed = (data + np.uint64(1)) * weights
            mixed ^= mixed >> np.uint64(29)
            mixed *= np.uint64(0xBF58476D1CE4E5B9)
            # sentinel element so reduceat indices == total stay in range;
            # clipping indices instead CORRUPTS the last non-empty segment
            # when trailing null/empty strings exist
            mixed = np.append(mixed, np.uint64(0))
            sums = np.add.reduceat(mixed, seg_off[:-1])
            sums = np.where(lengths == 0, np.uint64(0xCBF29CE484222325), sums)
        else:
            sums = np.full(n, np.uint64(0xCBF29CE484222325))
        sums ^= lengths.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        sums ^= sums >> np.uint64(32)
    return sums


def hash64_strings(
    arr: pa.ChunkedArray | pa.Array, block_bytes: int = 1 << 18
) -> np.ndarray:
    """Vectorized 64-bit hash of a string/binary column over raw buffers.

    Computed in ~``block_bytes``-sized blocks of strings so the per-byte
    expansion temporaries stay cache-resident: the unblocked version's
    ~100x byte-to-temporary blow-up saturated this (memory-bandwidth-
    starved) host's DRAM under task concurrency — 16 concurrent hashes of
    312k ids measured 25 s unblocked vs 0.7 s blocked, bit-identical."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    arr = arr.cast(pa.large_binary())
    buf = np.frombuffer(arr.buffers()[2] or b"", dtype=np.uint8)
    offsets = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
        arr.offset : arr.offset + len(arr) + 1
    ]
    lengths = np.diff(offsets)
    starts = offsets[:-1]
    n = len(lengths)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    if int(lengths.sum()) <= block_bytes:
        return _hash_strings_block(buf, starts, lengths)
    # cut at string boundaries so each block spans <= block_bytes (a single
    # over-long string gets a block of its own)
    cuts = np.searchsorted(
        offsets,
        np.arange(offsets[0], offsets[-1] + block_bytes, block_bytes),
        side="left",
    )
    cuts = np.unique(np.clip(cuts, 0, n))
    if cuts[0] != 0:
        cuts = np.concatenate([[0], cuts])
    if cuts[-1] != n:
        cuts = np.concatenate([cuts, [n]])
    out = np.empty(n, dtype=np.uint64)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        out[lo:hi] = _hash_strings_block(buf, starts[lo:hi], lengths[lo:hi])
    return out


def hash64_column(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Hash any scalar column to uint64 (strings via buffer hash, numerics
    via splitmix64 of their int64 view).

    Null handling must keep VALUE→hash stable per column type across
    batches: an int64 column with nulls would round-trip through numpy as
    float64 (hashing value 103 by its float bits) while a null-free batch
    hashes it by its int bits — the same key would land in two partitions
    depending on its batch's null layout, silently splitting per-key
    groups (caught by the null-variant gate on sessionize). Nulls
    fill to 0 for routing: a hash COLLISION between null and 0 only
    co-locates the two groups, never merges them."""
    t = col.type
    if pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t):
        return hash64_strings(col)
    if pa.types.is_timestamp(t):
        col = col.cast(pa.int64())
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count and not pa.types.is_floating(col.type):
        col = col.fill_null(0)
    arr = col.to_numpy(zero_copy_only=False)
    if arr.dtype.kind == "f":
        # NaN (incl. null→NaN for float columns) has one canonical bit
        # pattern out of to_numpy, so float nulls already route stably
        arr = arr.astype(np.float64).view(np.uint64)
    return _splitmix64(np.asarray(arr, dtype=np.uint64))


def add_hash_partition(
    batch: pa.Table, cols: list[str], num_partitions: int, out_col: str = "__part"
) -> pa.Table:
    h = np.zeros(len(batch), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for c in cols:
            h = h * np.uint64(0x100000001B3) + hash64_column(batch[c])
        part = (_splitmix64(h) % np.uint64(num_partitions)).astype(np.int64)
    return batch.append_column(out_col, pa.array(part, type=pa.int64()))


# Upper bound on what one partition may hold: groupby("__part").map_groups
# materializes a whole partition as ONE in-memory table in a worker, so the
# partition count must grow with data volume, not just cluster width.
TARGET_PARTITION_BYTES = 256 << 20


def default_num_partitions(
    input_bytes: int | None = None,
    target_partition_bytes: int = TARGET_PARTITION_BYTES,
) -> int:
    """Partition count for hash-partitioned exchanges.

    Base: ~CPUs/2, clamped. Measured on this Ray version (sort-based
    shuffle): P=64 on a 32-CPU node took 50s for a 1M-row dedup, P=16 took
    7s — the per-partition task/block overhead of the sort shuffle
    dominates well before data volume does, so never default to more
    partitions than ~half the cluster's cores.

    When ``input_bytes`` is known, the count is additionally floored at
    ``ceil(input_bytes / target_partition_bytes)`` so one partition never
    exceeds a worker-heap-sized table at 100x the data — the CPU-derived
    cap is an overhead trade-off, not a memory-safety bound, so the bytes
    floor may exceed it (clamped at 4096 partitions as a runaway guard).
    """
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    p = max(4, min(64, cpus // 2))
    if input_bytes:
        p = max(p, min(4096, -(-int(input_bytes) // target_partition_bytes)))
    return p


def hash_partitioned_map(
    ds: ray.data.Dataset,
    cols: list[str],
    fn: Callable,
    num_partitions: int | None = None,
    batch_format: str = "pyarrow",
    input_bytes: int | None = None,
) -> ray.data.Dataset:
    """Shuffle by hash(cols) % P and apply ``fn`` once per partition.

    ``fn`` receives the whole partition (pa.Table or pd.DataFrame incl. the
    ``__part`` column — drop not needed, it is removed after) and must
    handle ALL groups inside vectorized. All rows with equal ``cols`` values
    are guaranteed co-located in one call. Callers that shuffle unreduced
    data (not pre-aggregated partials) should pass ``input_bytes`` so the
    partition count scales with volume (see :func:`default_num_partitions`).
    """
    if num_partitions is None:
        num_partitions = default_num_partitions(input_bytes)
    parted = ds.map_batches(
        lambda b: add_hash_partition(b, cols, num_partitions), batch_format="pyarrow"
    )

    if batch_format == "pyarrow":

        def run(t: pa.Table) -> pa.Table:
            out = fn(t.drop_columns(["__part"]))
            return out

    else:

        def run(df: pd.DataFrame) -> pd.DataFrame:
            return fn(df.drop(columns="__part"))

    return parted.groupby("__part").map_groups(run, batch_format=batch_format)


def partial_value_counts(ds: ray.data.Dataset, col: str) -> ray.data.Dataset:
    """Distributed exact value counts of one column → ``(col, cnt)``.

    Per-batch ``value_counts`` partials collapse the stream to ~cardinality
    rows before the groupby exchange (the partial-before-shuffle rule);
    the fragile positional rename of Ray's ``sum(cnt)`` output column is
    centralized here.
    """

    def counts(b: pa.Table) -> pa.Table:
        vc = b[col].combine_chunks().value_counts()
        return pa.table(
            {col: vc.field("values"), "cnt": vc.field("counts").cast(pa.int64())}
        )

    merged = (
        ds.select_columns([col])
        .map_batches(counts, batch_format="pyarrow")
        .groupby(col)
        .sum("cnt")
    )
    return merged.map_batches(
        lambda b: b.rename_columns([col, "cnt"]), batch_format="pyarrow"
    )


def raw_hash_exchange(
    ds: ray.data.Dataset,
    cols: list[str],
    fn: Callable[[pa.Table], pa.Table],
    num_partitions: int | None = None,
    input_bytes: int | None = None,
    pass_partition: bool = False,
) -> list["ray.ObjectRef"]:
    """Hash-partitioned map over a MATERIALIZED Dataset via raw Ray tasks.

    Same contract as :func:`hash_partitioned_map` (all rows with equal
    ``cols`` co-locate into one ``fn`` call) but built as a direct
    map/reduce: each block splits into P sub-tables (one vectorized
    argsort + zero-copy slices), each reduce task concatenates its shard
    from every block and applies ``fn``. No sort exchange, no block
    accounting — measured 50.9 s -> ~4 s for the 10M-row tier merge vs
    ``groupby("__part").map_groups`` (Ray's sort-based shuffle pays per-
    partition overhead far above the ~90 MB of actual partial-state
    movement). Use for SMALL aggregate states that are already
    materialized; the Dataset path remains right for streaming inputs.

    Returns one ObjectRef[pa.Table] per partition (wrap with
    ``ray.data.from_arrow_refs`` to continue as a Dataset).
    """
    if num_partitions is None:
        # default_num_partitions' cpus/2 cap guards the SORT shuffle's
        # per-partition overhead; raw tasks have none, so use ~1 reduce
        # task per core — the reduce wave fills the cluster and each
        # task's partition (hence its cold-page first-touch cost, the
        # dominant merge cost on this host) halves.
        try:
            cpus = int(ray.cluster_resources().get("CPU", 8))
        except Exception:
            cpus = 8
        num_partitions = max(4, min(128, cpus))
        if input_bytes:
            num_partitions = max(
                num_partitions,
                min(4096, -(-int(input_bytes) // TARGET_PARTITION_BYTES)),
            )
    P = num_partitions
    blocks = ds.to_arrow_refs()
    if not blocks:
        return []

    @ray.remote(num_cpus=1, num_returns=P)
    def split(*tables: pa.Table):
        t = pa.concat_tables(tables) if len(tables) > 1 else tables[0]
        t = add_hash_partition(t, cols, P)
        part = t["__part"].to_numpy(zero_copy_only=False)
        order = np.argsort(part, kind="stable")
        ts = t.take(pa.array(order))
        bounds = np.searchsorted(part[order], np.arange(P + 1))
        out = [ts.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]
        return out if P > 1 else out[0]

    @ray.remote(num_cpus=1)
    def reduce(part_idx, *parts):
        ts = [p for p in parts if p is not None and len(p)]
        if not ts:
            t = parts[0].schema.empty_table() if parts else None
        else:
            t = pa.concat_tables(ts).combine_chunks()
        if t is None:
            return None
        t = t.drop_columns(["__part"])
        out = fn(t, part_idx) if pass_partition else fn(t)
        if isinstance(out, pd.DataFrame):
            out = pa.Table.from_pandas(out, preserve_index=False)
        return out

    # group tiny blocks into ~2P split tasks: a materialized aggregate often
    # lands as hundreds of KB-sized blocks (one per upstream task), and one
    # split task per block costs more in dispatch + per-reduce object fan-in
    # than the split work itself (measured: 227 blocks -> 681 tasks/5.4k
    # return objects for a 3-tier merge; grouped: 48 tasks/1.2k objects)
    n_split = max(1, min(len(blocks), 2 * P))
    bounds = np.linspace(0, len(blocks), n_split + 1, dtype=np.int64)
    shard_refs: list[list] = [[] for _ in range(P)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi == lo:
            continue
        refs = split.remote(*blocks[lo:hi])
        if P == 1:
            refs = [refs]
        for s, r in enumerate(refs):
            shard_refs[s].append(r)
    return [reduce.remote(s, *shard_refs[s]) for s in range(P)]


def pool_size(concurrency):
    """Resolve an actor-pool concurrency spec for ``map_batches``.

    A tuple passes through verbatim. An int n becomes the autoscaling
    range ``(min(n, cpus // 4), n)``: a plain (1, n) pool ramps one actor
    at a time and the ramp dominates short runs (measured: the sf0.1
    video query 5.9 s with (1, 12) vs 4.2 s with 12 actors up front),
    while a FIXED pool reserves all n CPUs for the pipeline's lifetime
    and wedges multi-stage pipelines on small clusters (observed 4.0/4.0
    CPU with one task pending forever on the 4-CPU test session). The
    cpus//4 floor gives big hosts an instant fan-out and leaves small
    sessions at the always-safe minimum of 1."""
    if isinstance(concurrency, tuple):
        return concurrency
    n = max(1, int(concurrency))
    try:
        avail = int(ray.cluster_resources().get("CPU", 0))
    except Exception:
        avail = 0
    return (max(1, min(n, avail // 4)), n)
