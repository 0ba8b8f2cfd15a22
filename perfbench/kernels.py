"""Kernel microbench for the traced run: each public kernel is called
in-process on a fixed batch cut from the seeded corpus and timed per unit
of work (token, row, partial or point). Median of repeated calls."""

from __future__ import annotations

import statistics
import time

import pyarrow as pa
import pyarrow.parquet as pq

BATCH_ROWS = 2048  # the deletion-vector scan's decode batch
MIN_REPS = 5
MIN_SECONDS = 0.4


def _per_call_s(fn) -> float:
    times = []
    t_end = time.perf_counter() + MIN_SECONDS
    while len(times) < MIN_REPS or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_kernels(files: list[str]) -> dict[str, float]:
    from contest_parsing_ray.sources.ingest import derive_event_time, token_checksum
    from contest_parsing_ray.stages._shuffle import hash64_strings
    from contest_parsing_ray.stages.compress import encode_chunk
    from contest_parsing_ray.stages.rollup import PartialRollup, _merge_partition

    tiers = {"1m": 60_000_000, "5m": 300_000_000, "1h": 3_600_000_000}
    cols = ["doc_id", "tokens", "n_tok", "source"]
    batch = pq.read_table(files[0], columns=cols).slice(0, BATCH_ROWS)
    n_tokens = len(batch["tokens"].combine_chunks().flatten())
    stats = token_checksum(derive_event_time(batch))
    partial = PartialRollup(tiers, "n_tok", "source", "event_time_us", 4096,
                            "nearest", 1, checksum_col="token_ck")
    # one partial set per corpus file, like the scan-fused partials
    per_file = []
    for path in files:
        t = token_checksum(derive_event_time(pq.read_table(path, columns=cols)))
        per_file.append(partial(t.select(["source", "n_tok", "event_time_us", "token_ck"])))
    partials = pa.concat_tables(per_file).to_pandas()
    merged = _merge_partition(partials, "source", "bucket_1m", 4096, 0.95, True)
    hot = merged[merged["source"] == merged["source"].mode()[0]].sort_values("bucket_us")
    ts = hot["bucket_us"].to_numpy()
    vals = hot["sum_v"].to_numpy()
    doc_ids = batch["doc_id"]
    sidecar = stats.select(["source", "n_tok", "event_time_us", "token_ck"])

    ns = 1e9
    return {
        "kernel.token_checksum.ns_per_token":
            _per_call_s(lambda: token_checksum(batch)) * ns / n_tokens,
        "kernel.derive_event_time.ns_per_row":
            _per_call_s(lambda: derive_event_time(batch)) * ns / len(batch),
        "kernel.hash64_strings.ns_per_row":
            _per_call_s(lambda: hash64_strings(doc_ids)) * ns / len(batch),
        "kernel.partial_rollup.ns_per_row":
            _per_call_s(lambda: partial(sidecar)) * ns / len(batch),
        "kernel.merge_partition.ns_per_partial":
            _per_call_s(lambda: _merge_partition(
                partials, "source", "bucket_1m", 4096, 0.95, True)) * ns / len(partials),
        "kernel.encode_chunk.ns_per_point":
            _per_call_s(lambda: encode_chunk(ts, vals)) * ns / len(ts),
    }
