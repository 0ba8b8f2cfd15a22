"""The engine's one keyed exchange, and its hashing.

Every keyed shuffle — group-bys, dedup, joins, the tier merge, the
deletion-vector decide — goes through :func:`raw_hash_exchange`: split
tasks cut each input block on ``hash64(cols) % P``, and one reduce task per
partition runs ONE vectorized function over all of its groups (pandas /
numpy / Arrow in C), instead of one Python call per distinct key. The
exchange is plain Ray tasks: no sort, no aggregator actors, no CPU held
while waiting, so it runs on a 1-CPU session. P is about one reduce task
per core, floored by input volume (:func:`exchange_partitions`).

Hashing is vectorized over the raw Arrow buffers (no Python per row) and is
uniform in the key hash, so input skew (the 80%-hot source, FIXTURES.md F1)
does not skew partitions unless all rows share ONE key value — for that
case callers add more columns (e.g. bucket) to the partition key, the
engine's skew story (SURVEY §4 skew row).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pyarrow as pa
import ray.data
from ray.data.block import BlockAccessor


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
    arr: pa.ChunkedArray | pa.Array, block_bytes: int = 1 << 16
) -> np.ndarray:
    """Vectorized 64-bit hash of a string/binary column over raw buffers.

    Computed in ~``block_bytes``-sized blocks of strings (bit-identical
    for any block size) so the per-byte expansion temporaries stay
    cache-resident. Variable-length strings expand to several 4-8 byte
    words per input byte (positions, gathered bytes, weights, mixed
    words), so a 64 KiB block keeps a few MB of temporaries, about one
    core's L2; a 256 KiB block did not. Sweep over the whole-file doc_id
    columns of a 32-file, 256k-row corpus (8k ids of 24-29 bytes, about
    257 KB per file; one 4-vCPU Xeon, min of 15 interleaved runs), ns per
    row: 256 KiB 707, 128 KiB 312, 64 KiB 326, 48 KiB 321, 32 KiB 327,
    16 KiB 339. A 2048-row scan batch is one block at any of these sizes.
    Not blocking at all is far worse under task concurrency: 16
    concurrent hashes of 312k ids measured 25 s unblocked vs 0.7 s
    blocked."""
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


# Upper bound on what one partition may hold: a reduce task holds its whole
# partition as ONE in-memory table, so the partition count must grow with
# data volume, not just cluster width.
TARGET_PARTITION_BYTES = 256 << 20

# Input bytes one split task takes on: blocks stream in and are grouped
# until a group reaches this size, so KB-sized partial blocks share a task
# (one task per block costs more in dispatch and per-reduce fan-in than the
# split itself) while unreduced rows still spread over many tasks.
SPLIT_TASK_BYTES = 32 << 20


def exchange_partitions(
    input_bytes: int | None = None,
    target_partition_bytes: int = TARGET_PARTITION_BYTES,
) -> int:
    """Partition count of a keyed exchange: about one reduce task per core
    (4 to 128), floored at ``ceil(input_bytes / target_partition_bytes)``
    when the input volume is known so one partition never exceeds a
    worker-heap-sized table (clamped at 4096 as a runaway guard)."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    p = max(4, min(128, cpus))
    if input_bytes:
        p = max(p, min(4096, -(-int(input_bytes) // target_partition_bytes)))
    return p


def file_groups(paths: list[str]) -> list[list[int]]:
    """Cut an ordered local file list into G <= ``len(paths)`` contiguous
    groups of near-equal file count (positions into ``paths``), with G =
    :func:`exchange_partitions` of the files' on-disk bytes: the
    file-granular passes (the doc_id probe, the payload scan) run one task
    per group, so task count follows the cluster, not the file count. One
    file per task only when there are at least as many groups as files;
    the bytes floor keeps a group near ``TARGET_PARTITION_BYTES``."""
    if not paths:
        return []
    g = min(len(paths), exchange_partitions(_disk_bytes(paths)))
    q, r = divmod(len(paths), g)
    bounds = [i * q + min(i, r) for i in range(g + 1)]
    return [list(range(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _disk_bytes(paths: list[str]) -> int:
    import pyarrow.fs as pafs

    infos = pafs.LocalFileSystem().get_file_info(paths)
    return sum(max(0, info.size or 0) for info in infos)


def source_bytes(ds: ray.data.Dataset) -> int | None:
    """Bytes of what ``ds`` reads, taken from its logical plan without
    running anything (``Dataset.size_bytes`` runs the whole upstream when
    a map stage hides the size): a file read counts its files' on-disk
    bytes, as :func:`file_groups` does, an in-memory source its known
    size. None when some source's size is unknown."""
    total, todo = 0, [ds._logical_plan.dag]
    while todo:
        op = todo.pop()
        if op.input_dependencies:
            todo.extend(op.input_dependencies)
            continue
        meta = op.infer_metadata()
        if meta.input_files:
            total += _disk_bytes(meta.input_files)
        elif meta.size_bytes is not None:
            total += meta.size_bytes
        else:
            return None
    return total


def _to_arrow(block) -> pa.Table:
    if isinstance(block, pa.Table):
        return block
    return BlockAccessor.for_block(block).to_arrow()


def _concat(tables: list[pa.Table]) -> pa.Table:
    # permissive: the same column can arrive int64 in one block and double
    # (or null-typed) in another
    if len(tables) == 1:
        return tables[0]
    return pa.concat_tables(tables, promote_options="permissive")


@ray.remote(num_cpus=1)
def _split(cols: list[str], P: int, *blocks):
    """Cut a group of blocks into P key-hash partitions (one stable argsort
    + zero-copy slices). Zero-column empty blocks carry no schema and are
    skipped; a group of only those yields no shards (None)."""
    ts = [t for t in map(_to_arrow, blocks) if t.num_columns]
    if not ts:
        return [None] * P if P > 1 else None
    t = _concat(ts)
    part = add_hash_partition(t, cols, P)["__part"].to_numpy()
    order = np.argsort(part, kind="stable")
    t = t.take(pa.array(order))
    bounds = np.searchsorted(part[order], np.arange(P + 1))
    out = [t.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return out if P > 1 else out[0]


@ray.remote(num_cpus=1, num_returns=2)
def _reduce(s: int, fn: Callable, n_shards: list[int], *shards):
    """Partition ``s``: concatenate each input's shards and call
    ``fn(s, *tables)`` unless every input is empty there. An empty input
    of a partition the others reach is passed as its schema's empty table
    (an outer join needs that side's columns), or as a zero-column table
    when no block of it carried a schema. Returns the block and its row
    count."""
    tables, i = [], 0
    for n in n_shards:
        mine = [t for t in shards[i : i + n] if t is not None]
        i += n
        rows = [t for t in mine if t.num_rows]
        if rows:
            tables.append(_concat(rows).combine_chunks())
        else:
            tables.append(mine[0].schema.empty_table() if mine else pa.table({}))
    if not any(t.num_rows for t in tables):
        return None, 0
    out = BlockAccessor.batch_to_block(fn(s, *tables))
    return out, len(out)


def raw_hash_exchange(
    inputs: list[tuple[ray.data.Dataset, list[str]]],
    fn: Callable,
    num_partitions: int | None = None,
    input_bytes: int | None = None,
) -> list["ray.ObjectRef"]:
    """The engine's keyed exchange, built from plain Ray tasks.

    Every ``(Dataset, key cols)`` input is split on the same
    :func:`add_hash_partition` scheme into P partitions, so rows with equal
    key values (across inputs too) land in the same partition. Reduce task
    ``s`` calls ``fn(s, table_0, ..., table_n)`` with partition ``s`` of
    every input, once, and only if some input has rows there.

    Map side: input blocks stream in as their Dataset executes and are cut
    by split tasks of about ``SPLIT_TASK_BYTES`` each. Nothing here holds a
    CPU while waiting on another task, so the exchange cannot wedge a small
    session. The exchange runs when called and returns one ``ObjectRef``
    per partition whose ``fn`` output has rows (a ``pa.Table``, or the
    pandas block ``fn`` returned). P defaults to
    :func:`exchange_partitions` of ``input_bytes``.
    """
    P = num_partitions or exchange_partitions(input_bytes)
    split = _split.options(num_returns=P)
    n_shards, flat = [], []
    for ds, cols in inputs:
        shards: list[list] = [[] for _ in range(P)]
        for group in _block_groups(ds):
            refs = split.remote(cols, P, *group)
            for s, r in enumerate(refs if P > 1 else [refs]):
                shards[s].append(r)
        n_shards.append(len(shards[0]))
        flat.append(shards)
    fn_ref = ray.put(fn)
    outs = [
        _reduce.remote(s, fn_ref, n_shards, *(r for sh in flat for r in sh[s]))
        for s in range(P)
    ]
    n_rows = ray.get([n for _, n in outs])
    return [block for (block, _), n in zip(outs, n_rows) if n]


def _block_groups(ds: ray.data.Dataset):
    """Block refs of ``ds`` as it executes, grouped up to
    ``SPLIT_TASK_BYTES``."""
    group, group_bytes = [], 0
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            group.append(ref)
            group_bytes += meta.size_bytes or 0
            if group_bytes >= SPLIT_TASK_BYTES:
                yield group
                group, group_bytes = [], 0
    if group:
        yield group


def hash_partitioned_map(
    ds: ray.data.Dataset,
    cols: list[str],
    fn: Callable,
    num_partitions: int | None = None,
    batch_format: str = "pyarrow",
    input_bytes: int | None = None,
) -> ray.data.Dataset:
    """Exchange on hash(cols) % P and apply ``fn`` once per non-empty
    partition (one :func:`raw_hash_exchange` input).

    ``fn`` receives the whole partition (pa.Table or pd.DataFrame per
    ``batch_format``) and must handle ALL groups inside vectorized. All rows
    with equal ``cols`` values are guaranteed co-located in one call.
    Callers that shuffle unreduced data (not pre-aggregated partials) should
    pass ``input_bytes`` so the partition count scales with volume (see
    :func:`exchange_partitions`).
    """
    if batch_format == "pandas":

        def run(s: int, t: pa.Table):
            return fn(BlockAccessor.for_block(t).to_pandas())

    else:

        def run(s: int, t: pa.Table):
            return fn(t)

    # through the module global, so a wrapper installed on
    # ``raw_hash_exchange`` sees every exchange
    return ray.data.from_arrow_refs(
        raw_hash_exchange([(ds, cols)], run, num_partitions, input_bytes)
    )


def partial_value_counts(ds: ray.data.Dataset, col: str) -> ray.data.Dataset:
    """Distributed exact value counts of one column → ``(col, cnt)``.

    Per-batch ``value_counts`` partials collapse the stream to ~cardinality
    rows before the exchange (the partial-before-shuffle rule); each
    partition then sums its partials per value.
    """

    def counts(b: pa.Table) -> pa.Table:
        vc = b[col].combine_chunks().value_counts()
        return pa.table(
            {col: vc.field("values"), "cnt": vc.field("counts").cast(pa.int64())}
        )

    def merge(t: pa.Table) -> pa.Table:
        out = t.group_by(col, use_threads=False).aggregate([("cnt", "sum")])
        return pa.table({col: out[col], "cnt": out["cnt_sum"]})

    return hash_partitioned_map(
        ds.select_columns([col]).map_batches(counts, batch_format="pyarrow"),
        [col],
        merge,
    )

