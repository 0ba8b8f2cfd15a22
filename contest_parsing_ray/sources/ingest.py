"""Ingest: Parquet sequences table → canonical `events` Dataset.

Reference analog: the three parsers that turn raw exports into flat columnar
tables with normalized, bucketed timestamps (``TracesParser.py:146-156``
Int64-µs→Datetime + ``dt.round``; ``MetricsParser.py:111-124`` epoch→Datetime;
schema normalization ``MetricsParser.py:94-109`` and the typecast zoo
``TraceInOneRowExploder.py:321-381``). Here the input is already columnar, so
ingest is: read (column-pruned) → derive ``event_time_us`` as a pure function
of ``doc_id`` → enforce the canonical schema. All per-batch work is
vectorized Arrow; no Python row loops.

``doc_id`` format: ``"{source}/{epoch_minute:012d}/{seq:06d}"`` and

    event_time_us = epoch_minute * 60_000_000
                    + (seq * SEQ_OFFSET_MULTIPLIER) % 60_000_000

(the within-minute offset spreads events across the minute so the
round-to-nearest grid has interesting half-bucket cases).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.bucketing import add_bucket_columns
from .synthetic import SEQ_OFFSET_MULTIPLIER

EVENTS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("tokens", pa.list_(pa.int32())),
        ("n_tok", pa.int32()),
        ("source", pa.string()),
        ("event_time_us", pa.int64()),
    ]
)


def derive_event_time(batch: pa.Table) -> pa.Table:
    """Vectorized doc_id → event_time_us (pure function, no state).

    Splits on '/', parses the two numeric fields with Arrow casts, and does
    the offset arithmetic in numpy. Zero-copy in, one appended column out.
    """
    parts = pc.split_pattern(batch["doc_id"], pattern="/")
    minute = pc.list_element(parts, 1).cast(pa.int64())
    seq = pc.list_element(parts, 2).cast(pa.int64())
    m = minute.to_numpy(zero_copy_only=False)
    q = seq.to_numpy(zero_copy_only=False)
    ts = m * 60_000_000 + (q * SEQ_OFFSET_MULTIPLIER) % 60_000_000
    return batch.append_column("event_time_us", pa.array(ts, type=pa.int64()))


def read_sequences(
    path: str,
    columns: list[str] | None = None,
    with_tokens: bool = True,
) -> ray.data.Dataset:
    """Read the sequences Parquet table and derive event_time_us.

    ``with_tokens=False`` prunes the (heavy) tokens column at the read for
    pipelines that only need ``n_tok`` — at 100 TB the tokens column is
    ~99% of the bytes, so rollup-only runs must not load it
    (prune-at-the-read; reference had no such pruning, it read whole files,
    ``MetricsParser.py:81``).
    """
    if columns is None:
        columns = ["doc_id", "tokens", "n_tok", "source"]
        if not with_tokens:
            columns = ["doc_id", "n_tok", "source"]
    ds = ray.data.read_parquet(path, columns=columns)
    return ds.map_batches(derive_event_time, batch_format="pyarrow")


def bucketize(ds: ray.data.Dataset, widths_us: dict[str, int]) -> ray.data.Dataset:
    """Append round-to-nearest bucket columns for each tier (M10/F3)."""
    return ds.map_batches(
        lambda b: add_bucket_columns(b, "event_time_us", widths_us),
        batch_format="pyarrow",
    )


def token_checksum(batch: pa.Table) -> pa.Table:
    """Per-row order-sensitive token-array checksum (for the token-array
    equality invariant: tokens must survive ingest/dedup/shuffle
    byte-identical, per BASELINE.json input_hint).

    checksum = sum((i+1) * (token_i + 1)) mod 2^64 over a row's tokens
    t_0..t_{L-1}. With g = off + i a token's index in the flat values
    buffer (off = the row's first index), the row checksum is

        sum(g * t_g) - (off - 1) * sum(t_g) + L(L+1)/2      (mod 2^64)

    so two segment sums (``np.add.reduceat``) over the flat tokens give
    every row's checksum with no per-token position array. A null token
    list raises ValueError (its checksum is undefined).
    """
    tokens = batch["tokens"]
    chunks = tokens.chunks if isinstance(tokens, pa.ChunkedArray) else [tokens]
    sums = [_list_checksums(c) for c in chunks]
    out = np.concatenate(sums) if sums else np.zeros(0, dtype=np.uint64)
    return batch.append_column("token_ck", pa.array(out.view(np.int64), type=pa.int64()))


def _list_checksums(tokens: pa.Array) -> np.ndarray:
    """:func:`token_checksum` of one list array, as uint64."""
    if tokens.null_count:
        raise ValueError("token_checksum: null token list")
    offsets = tokens.offsets.to_numpy()  # slice-aware, len(tokens) + 1
    if len(offsets) < 2:
        return np.zeros(0, dtype=np.uint64)
    base, end = int(offsets[0]), int(offsets[-1])
    starts = offsets[:-1] - base
    # one buffer for both sums; the trailing 0 is a sentinel so a trailing
    # empty row's start index (== total) stays in range for reduceat
    buf = np.empty(end - base + 1, dtype=np.uint64)
    buf[-1] = 0
    buf[:-1] = tokens.values.slice(base, end - base).to_numpy(zero_copy_only=False)
    with np.errstate(over="ignore"):
        sum_t = np.add.reduceat(buf, starts)
        buf[:-1] *= np.arange(end - base, dtype=np.uint64)
        sum_gt = np.add.reduceat(buf, starts)
        lengths = np.diff(offsets).astype(np.uint64)
        ck = (
            sum_gt
            - (starts.astype(np.uint64) - np.uint64(1)) * sum_t
            + lengths * (lengths + np.uint64(1)) // np.uint64(2)
        )
    # reduceat returns buf[start] for an empty segment
    ck[lengths == 0] = 0
    return ck
