"""Deterministic synthetic `sequences` table (the engine's primary input).

Schema per BASELINE.json ``input_hint`` / FIXTURES.md §F1:

    doc_id: string   -- f"{source}/{epoch_minute:012d}/{seq:06d}"
    tokens: list<int32>
    n_tok:  int32
    source: string   -- ~8 distinct values, one hot source ~80% of rows

``doc_id`` encodes the event position; ingest derives ``event_time_us`` as a
pure function of ``doc_id`` (engine analog of the reference parsing
timestamps out of raw exports, ``TracesParser.py:146-156``). Everything is
seed-fixed: no wall-clock, no ambient RNG — bit-reproducible across runs and
cluster sizes.

Skew mirrors the reference corpus (one service with 1733 MB vs ~50 MB
others, ``meta/wiki/old/insights-experience.md:78``). ~1% of doc_ids are
exact duplicates (some 2x, some 3x) to exercise both dedup policies
(``FileConcat.py:22`` keep='none'; ``Joiner.py:104`` keep-first).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SOURCES = [
    "web-crawl",  # the hot source: ~80% of rows
    "books",
    "wiki",
    "code",
    "news",
    "forums",
    "papers",
    "social",
]
HOT_WEIGHT = 0.80
VOCAB = 50257
BASE_EPOCH_MINUTE = 27621120  # 2022-07-08 00:00 UTC in minutes
SPAN_MINUTES = 240  # 4h of event time -> multiple buckets at every tier

# Seq→within-minute offset: pure function of doc_id fields (see ingest).
SEQ_OFFSET_MULTIPLIER = 997_003


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain mixing constants)."""
    with np.errstate(over="ignore"):
        x = x.astype(np.uint64)
        x = (x + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        x ^= x >> np.uint64(30)
        x = (x * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        x ^= x >> np.uint64(27)
        x = (x * np.uint64(0x94D049BB133111EB)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        x ^= x >> np.uint64(31)
    return x


def _scalar_columns(
    n_rows: int,
    seed: int,
    dup_fraction: float,
    gap_minutes: tuple[int, ...],
):
    """The cheap per-row scalar columns (everything except tokens)."""
    rng = np.random.default_rng(seed)
    gaps = set(gap_minutes)

    # source assignment: hot source 80%, rest uniform
    probs = np.full(len(SOURCES), (1 - HOT_WEIGHT) / (len(SOURCES) - 1))
    probs[0] = HOT_WEIGHT
    src_idx = rng.choice(len(SOURCES), size=n_rows, p=probs)

    # event minute, avoiding gap minutes
    minutes = rng.integers(0, SPAN_MINUTES, size=n_rows)
    allowed = np.array([m for m in range(SPAN_MINUTES) if m not in gaps])
    bad = np.isin(minutes, list(gaps))
    minutes[bad] = allowed[rng.integers(0, len(allowed), size=int(bad.sum()))]
    epoch_minute = BASE_EPOCH_MINUTE + minutes

    seq = rng.integers(0, 1_000_000, size=n_rows)

    # Zipf-ish token lengths in [8, 2048]
    n_tok = np.clip((rng.pareto(1.3, size=n_rows) * 64 + 8).astype(np.int32), 8, 2048)

    # duplicates: pick ~dup_fraction of rows, duplicate row i over the
    # following 1-2 slots (overwriting those rows) so copies are EXACT.
    n_dup_seed = max(1, int(n_rows * dup_fraction)) if dup_fraction > 0 else 0
    if n_dup_seed:
        dup_rows = rng.choice(n_rows - 3, size=n_dup_seed, replace=False)
        for k, i in enumerate(dup_rows):
            reps = 2 if k % 2 == 0 else 3
            for j in range(1, reps):
                src_idx[i + j] = src_idx[i]
                epoch_minute[i + j] = epoch_minute[i]
                seq[i + j] = seq[i]
                n_tok[i + j] = n_tok[i]

    # NOTE: the per-row source STRING array is derived per slice from
    # src_idx (keeps the shareable column set numeric → zero-copy ray.put)
    return epoch_minute.astype(np.int64), seq.astype(np.int64), n_tok, src_idx


def _tokens_for_slice(
    epoch_minute: np.ndarray,
    seq: np.ndarray,
    src_idx: np.ndarray,
    n_tok: np.ndarray,
) -> pa.ListArray:
    """tokens for a row slice: counter-based hash (splitmix64) of
    (row_seed, position) — fully vectorized, and duplicate doc_ids carry
    byte-identical token arrays because the seed is a pure function of the
    doc_id fields."""
    n = len(n_tok)
    lengths = n_tok.astype(np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    row_seed = (
        epoch_minute.astype(np.uint64) * np.uint64(1_000_003)
        + seq.astype(np.uint64) * np.uint64(31)
        + src_idx.astype(np.uint64)
    )
    flat_seed = np.repeat(row_seed, lengths)
    pos = np.arange(offsets[-1], dtype=np.int64) - np.repeat(offsets[:-1], lengths)
    flat = (
        _splitmix64(flat_seed * np.uint64(0x9E3779B97F4A7C15) + pos.astype(np.uint64))
        % np.uint64(VOCAB)
    ).astype(np.int32)
    return pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), pa.array(flat))


def _slice_table(epoch_minute, seq, n_tok, src_idx, lo: int, hi: int) -> pa.Table:
    sl = slice(lo, hi)
    sources = np.array(SOURCES)[src_idx[sl]]
    doc_id = np.array(
        [
            f"{s}/{m:012d}/{q:06d}"
            for s, m, q in zip(sources, epoch_minute[sl], seq[sl])
        ]
    )
    tokens = _tokens_for_slice(epoch_minute[sl], seq[sl], src_idx[sl], n_tok[sl])
    return pa.table(
        {
            "doc_id": pa.array(doc_id, type=pa.string()),
            "tokens": tokens,
            "n_tok": pa.array(n_tok[sl], type=pa.int32()),
            "source": pa.array(sources, type=pa.string()),
        }
    )


def make_sequences_table(
    n_rows: int,
    seed: int = 42,
    dup_fraction: float = 0.01,
    gap_minutes: tuple[int, ...] = (37, 38, 39, 120, 121, 200),
) -> pa.Table:
    """Build the sequences table deterministically (whole-table variant).

    ``gap_minutes`` are minutes (relative to BASE_EPOCH_MINUTE) that receive
    no events — deliberate empty buckets for gap-fill tests (reference
    analog: unjoined buckets that ``Joiner.py:117-118`` drops; we fill).
    """
    cols = _scalar_columns(n_rows, seed, dup_fraction, gap_minutes)
    return _slice_table(*cols, 0, n_rows)


def write_sequences_parquet(
    out_dir: str,
    n_rows: int,
    seed: int = 42,
    num_files: int = 8,
    **kwargs,
) -> str:
    """Write the synthetic table as a directory of parquet shards.

    Multiple files so Ray Data gets natural read parallelism (the reference's
    sharding unit was one file per service, ``FilepathFinder.py:11-64``).
    Idempotent: skips if the directory already has the expected shard count.
    """
    os.makedirs(out_dir, exist_ok=True)
    expected = [os.path.join(out_dir, f"part-{i:04d}.parquet") for i in range(num_files)]
    done_marker = os.path.join(out_dir, "_DONE")
    if os.path.exists(done_marker) and all(os.path.exists(p) for p in expected):
        with open(done_marker) as f:
            marker = f.read().strip()
        if marker == str(n_rows):
            return out_dir
        # stale cache from a different row count: regenerate from scratch
        for p in expected:
            os.remove(p)
        os.remove(done_marker)
    dup_fraction = kwargs.get("dup_fraction", 0.01)
    gap_minutes = kwargs.get("gap_minutes", (37, 38, 39, 120, 121, 200))
    per = (n_rows + num_files - 1) // num_files

    # ~128k rows per row group bounds the token-build working set per task
    # to ~ chunk x mean_n_tok x ~24 B regardless of shard size (a 30M-row
    # table once OOM'd a 128 GB host when every shard task regenerated the
    # full scalar columns AND built its whole token array in one piece)
    chunk_rows = int(kwargs.get("chunk_rows", 131_072))

    def _write_shard(i: int, cols) -> None:
        if os.path.exists(expected[i]):
            return
        lo, hi = i * per, min((i + 1) * per, n_rows)
        tmp = expected[i] + ".tmp"
        writer = None
        try:
            for c0 in range(lo, hi, chunk_rows):
                t = _slice_table(*cols, c0, min(c0 + chunk_rows, hi))
                if writer is None:
                    writer = pq.ParquetWriter(tmp, t.schema)
                writer.write_table(t)
        finally:
            if writer is not None:
                writer.close()
        os.replace(tmp, expected[i])

    # token generation is memory-bandwidth heavy; fan shards out as Ray
    # tasks when a cluster is up (large tables only — task overhead is not
    # worth it for test-scale fixtures). The scalar columns are generated
    # ONCE and shared via the object store (zero-copy numeric arrays), not
    # regenerated per shard.
    use_ray = False
    if n_rows >= 1_000_000:
        try:
            import ray

            use_ray = ray.is_initialized()
        except Exception:
            use_ray = False
    if use_ray:
        import ray

        cols_ref = ray.put(_scalar_columns(n_rows, seed, dup_fraction, gap_minutes))
        # token generation is memory-bandwidth-bound, not compute-bound:
        # 32 concurrent generators starve each other to ~3 aggregate cores
        # on this class of host. num_cpus=4 caps concurrency at ~cpus/4 —
        # clamped to the cluster's actual CPU count, else a 2-CPU scaling
        # run can never schedule the task and ray.get deadlocks.
        try:
            avail = int(ray.cluster_resources().get("CPU", 4))
        except Exception:
            avail = 4
        shard_task = ray.remote(num_cpus=max(1, min(4, avail)))(_write_shard)
        ray.get([shard_task.remote(i, cols_ref) for i in range(num_files)])
    else:
        cols = _scalar_columns(n_rows, seed, dup_fraction, gap_minutes)
        for i in range(num_files):
            _write_shard(i, cols)
    with open(done_marker, "w") as f:
        f.write(str(n_rows))
    return out_dir
