"""Merge-on-read dedup: deletion vectors + scan-fused rollup partials, no
payload rewrite.

This is the flagship's one deduped-table materialization. Physically
rewriting the deduped table streams the WHOLE token payload through parquet
decode → checksum → re-encode → re-write to drop ~1% duplicate rows. At
100 TB that rewrites 99 TB of bytes nobody touched — and on any fixed box
the re-encode+write leg is memory-bandwidth bound, the one resource more
vCPUs cannot buy (BASELINE.md round-2 scaling analysis). The lakehouse
answer (Iceberg positional deletes / Delta deletion vectors) is
merge-on-read: leave the payload files in place and record which row
POSITIONS are deleted. :func:`read_deduped_dv` is the deduped table; a
consumer that needs a standalone copy writes it once:
``read_deduped_dv(<out>/deduped).write_parquet(dst)``.

Reference analog: the reference materializes every intermediate to disk
(``JoinManager.py:32-57`` stage-by-stage parquet); this module is the
opposite end of that trade, chosen deliberately for the 100 TB tier.

Artifacts (under ``out_dir``):

    deletion_vectors/*.parquet      (file_idx:int32, pos:int64) deleted
                                    row positions, sorted
    partials/*.parquet              rollup partials of the surviving rows,
                                    the only per-row output:
                                    clean-{file}.parquet from the scan of
                                    each input file (build and append),
                                    {prefix}winners-{part}.parquet from a
                                    decide (prefix: empty for the build,
                                    append{seq}- for an append)
    dv_manifest.json                ordered file list + policy + counts
                                    (top-level ``n_suspects`` is the
                                    build's; each ``appends[]`` entry has
                                    its own ``n_suspects_new``,
                                    ``n_prior_matches``, ``n_deleted_new``)
                                    + token mode (``tokens``; an append
                                    scans new files the same way)
                                    + partials_fingerprint (the input,
                                    keep policy and rollup config the
                                    partials cover: the one record of
                                    whether this deduped table is current;
                                    absent while an append runs)

The build and the append are one body, scan → decide → record
(:func:`_scan_decide_record`); they differ only in how they find the
duplicated keys. The caller lists the input once and passes file lists.

    build   doc_id-only probe → duplicated key hashes (broadcast; exact
            array or ShardedBloom — ``dedup.duplicated_key_probe_files``).
    append  (keep='first'; the new files take the next file_idx values)
            :func:`_prior_matches` matches the PRIOR files' doc_id strings
            against the new files' distinct keys, one task per file group,
            and returns their prior occurrences; the probe is the hashes
            of the new keys that occur in a prior file or twice among the
            new rows (:func:`_append_probe`).
    scan    one plain Ray task per file group (``_shuffle.file_groups``:
            about one per core, at most one per file) over the build's
            files or the append's new ones, in row-group batches:
            token_ck + event_time_us + probe flag (``tokens=False`` reads
            no ``tokens`` and leaves token_ck null). Each file's clean
            rows become its own partials, written by the task; each task
            returns its flagged rows (stats + key, file_idx, pos) and
            their count. No Ray Data execution: it would cost a session
            Ray Data's service actors and a fixed round trip per run.
    decide  the flagged new rows plus their prior occurrences (none for a
            build), by the ACTUAL key (hash collisions survive):
            keep='first' keeps the minimum (file_idx, pos) per key —
            deterministic because the file list is sorted and an append's
            files come last — keep='none' drops every copy. Only the new
            rows' winners (partials) and losers (deletion vectors) are
            written. Up to ``LOCAL_THRESHOLD`` rows in the driver, above
            it per partition of one two-input raw task exchange on the
            key. Shards are ``{prefix}winners-{part}`` and
            ``{prefix}dv-{part}``, the prefix ``append{seq}-`` or empty.
    record  the file list, the counts and the fingerprint, written to
            ``dv_manifest.json``.

Duplicate copies carry identical payloads for identical doc_ids by the
input contract (doc_id is the content identity), so rollups over the
survivors do not depend on which copy wins (tests/test_deletion_vector.py
checks the tiers against a DuckDB oracle over a pandas keep-first dedup).

Every partial and deletion-vector shard is written by
``fsutil.write_parquet`` (the scan's tasks and the decide alike): tmp-then-
move, the partials' ``qsum`` blobs zstd with no statistics, the other
columns snappy with statistics.
"""

from __future__ import annotations

import functools
import os
import shutil
import time
from typing import Iterator

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray
import ray.data

from ..fsutil import is_uri, write_parquet
from ..state.manifest import read_manifest, write_manifest
from . import _shuffle
from ._shuffle import file_groups, hash64_strings
from .dedup import BloomFilter, ShardedBloom, duplicated_key_probe_files

# the per-row columns the rollup partials need, and the flagged rows' extras
_STATS_COLS = ["source", "n_tok", "event_time_us", "token_ck"]
_DUP_COLS = ["key", "file_idx", "pos"]

# The dedup key; the scan's decode batch (see :func:`_scan_group`); the
# decide size (flagged rows plus prior occurrences) above which the decide
# runs through the exchange; and the duplicated-key count above which the
# build's probe is a Bloom filter. Read when a build or an append runs.
KEY = "doc_id"
DECODE_ROWS = 2048
LOCAL_THRESHOLD = 200_000
BLOOM_THRESHOLD = 50_000_000


def _occurrences(key_type: pa.DataType) -> pa.Schema:
    """Schema of key occurrences: the decide's (key, file_idx, pos)."""
    return pa.schema(
        [("key", key_type), ("file_idx", pa.int32()), ("pos", pa.int64())]
    )


def dv_manifest_file(out_dir: str) -> str:
    return os.path.join(out_dir, "dv_manifest.json")


def dv_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "deletion_vectors")


def fused_partials_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "partials")


def fused_partial_files(out_dir: str, expected_fp: str) -> list[str] | None:
    """The scan-fused rollup partial files, sorted (empty for a zero-row
    input), or None when absent or built for another ``expected_fp`` (the
    input, keep policy and rollup config); the caller then rebuilds the
    deduped table."""
    _require_local(out_dir)
    manifest = read_dv_manifest(out_dir)
    if not manifest or manifest.get("partials_fingerprint") != expected_fp:
        return None
    d = fused_partials_dir(out_dir)
    if not os.path.isdir(d):
        return None
    files = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
    return [os.path.join(d, f) for f in files]


def read_dv_manifest(out_dir: str) -> dict | None:
    """The build's ``dv_manifest.json``, or None when there is none."""
    return read_manifest(dv_manifest_file(out_dir))


def _built_dv_manifest(out_dir: str) -> dict:
    manifest = read_dv_manifest(out_dir)
    if manifest is None:
        raise FileNotFoundError(f"no deletion-vector build under {out_dir!r}")
    return manifest


def _require_local(out_dir: str) -> None:
    """The deletion vectors and fused partials are written and read with
    local-path calls; a URI ``out_dir`` would silently leave them empty
    next to a valid manifest, so it raises instead."""
    if is_uri(out_dir):
        raise ValueError(
            f"deletion-vector dedup needs a local out_dir, got URI {out_dir!r}"
        )


def _probe_mask(probe, keys: pa.ChunkedArray | pa.Array) -> np.ndarray:
    h = hash64_strings(keys)
    if isinstance(probe, (BloomFilter, ShardedBloom)):
        return probe.contains_hashes(h)
    if not len(probe):
        return np.zeros(len(h), dtype=bool)
    pos = np.clip(np.searchsorted(probe, h), 0, len(probe) - 1)
    return probe[pos] == h


@ray.remote(num_cpus=1, num_returns=2)
def _scan_group(paths: list[str], fidxs: list[int], probe, partial_fn,
                partials_dir: str, decode_rows: int, tokens: bool):
    """Scan one file group (:func:`_shuffle.file_groups`), file by file:
    decode row-group batches, flag duplicate suspects, write each file's
    own ``clean-{file_idx}`` partials from its unflagged rows (so neither
    the partials nor the tiers depend on how files are grouped), and
    return ``(number of flagged rows, flagged rows)``: their stats and
    (key, file_idx, pos) for the decide, or None when none was flagged.
    With ``tokens=False`` the ``tokens`` column is never read: no
    checksum, ``token_ck`` null.

    ``decode_rows`` is deliberately CACHE-sized, not throughput-sized: a
    batch's working set (decoded tokens plus the checksum buffers, ~20
    B/token) must stay in L2/L3 while every core runs a scanner. The
    older checksum kernel's ~8 temporaries per token made 65536-row
    batches 14x slower than 2048-row ones (32 files on 16 CPUs: 19 s vs
    1.4 s)."""
    from ..sources.ingest import derive_event_time, token_checksum

    columns = ["doc_id", "n_tok", "source"] + (["tokens"] if tokens else [])
    flagged: list[pa.Table] = []
    for path, fidx in zip(paths, fidxs):
        offset = 0
        clean: list[pa.Table] = []
        for rb in pq.ParquetFile(path).iter_batches(
            batch_size=decode_rows, columns=columns, use_threads=False
        ):
            t = derive_event_time(pa.Table.from_batches([rb]))
            t = (
                token_checksum(t)
                if tokens
                else t.append_column("token_ck", pa.nulls(len(t), pa.int64()))
            )
            mask = _probe_mask(probe, t["doc_id"])
            stats = t.select(_STATS_COLS)
            clean.append(stats.filter(pa.array(~mask)))
            if mask.any():
                idx = np.flatnonzero(mask)
                take = pa.array(idx)
                flagged.append(
                    stats.take(take)
                    .append_column("key", t["doc_id"].take(take))
                    .append_column(
                        "file_idx", pa.array(np.full(len(idx), fidx, np.int32))
                    )
                    .append_column("pos", pa.array(offset + idx))
                )
            offset += len(t)
        stats = pa.concat_tables(clean).combine_chunks() if clean else None
        if stats is not None and len(stats):
            rows = partial_fn(stats)
            if len(rows):
                write_parquet(
                    rows, os.path.join(partials_dir, f"clean-{fidx:04d}.parquet")
                )
    if not flagged:
        return 0, None
    flagged = pa.concat_tables(flagged).combine_chunks()
    return len(flagged), flagged


def _scan_flagged(files: list[str], first_idx: int, probe, partial_fn,
                  partials_dir: str, tokens: bool):
    """Scan ``files`` (``file_idx`` from ``first_idx``) with one plain Ray
    task per file group; the tasks write the clean partials. Returns the
    number of flagged rows and the refs of the groups' non-empty flagged
    tables; only the counts are fetched here."""
    probe_ref = ray.put(probe)
    counts, tables = [], []
    for g in file_groups(files):
        n, t = _scan_group.remote(
            [files[i] for i in g], [first_idx + i for i in g], probe_ref,
            partial_fn, partials_dir, DECODE_ROWS, tokens,
        )
        counts.append(n)
        tables.append(t)
    counts = ray.get(counts)
    return sum(counts), [t for n, t in zip(counts, tables) if n]


def _decide_losers(df: pd.DataFrame, keep: str) -> np.ndarray:
    """Mask of the DELETED occurrences within the flagged frame (key,
    file_idx, pos; a default index).

    Operates on the ACTUAL key strings, so probe false positives (hash
    collisions, Bloom hits) with a global count of 1 always survive."""
    counts = df.groupby("key", sort=False)["key"].transform("size").to_numpy()
    if keep == "none":
        return counts > 1
    ordered = df.sort_values(["key", "file_idx", "pos"], kind="stable")
    lose = np.ones(len(df), dtype=bool)
    lose[ordered.drop_duplicates(subset="key", keep="first").index.to_numpy()] = False
    lose[counts == 1] = False
    return lose


def _decide_write(part: int, flagged: pa.Table, prior: pa.Table, keep: str,
                  partial_fn, out_dir: str, prefix: str) -> pa.Table:
    """Decide the ``flagged`` new rows against their ``prior`` occurrences
    (key, file_idx, pos) and write shard ``part`` of the decision: the new
    winners' rollup partials and the new losers' (file_idx, pos), each
    only when non-empty. Rows go in (file_idx, pos) order, so the files do
    not depend on the order the rows arrived in. Returns the number of
    losers as a one-row table (the exchange's output)."""
    n_deleted = 0
    if len(flagged):
        df = flagged.select(_DUP_COLS).to_pandas()
        if len(prior):
            df = pd.concat([prior.to_pandas(), df], ignore_index=True)
        lose = _decide_losers(df, keep)[len(prior):]
        fidx = flagged["file_idx"].to_numpy()
        pos = flagged["pos"].to_numpy()
        order = np.lexsort((pos, fidx))
        win, dv = order[~lose[order]], order[lose[order]]
        if len(win):
            rows = partial_fn(flagged.select(_STATS_COLS).take(pa.array(win)))
            if len(rows):
                write_parquet(rows, os.path.join(
                    fused_partials_dir(out_dir), f"{prefix}winners-{part:04d}.parquet"
                ))
        if len(dv):
            write_parquet(
                pa.table({
                    "file_idx": pa.array(fidx[dv].astype(np.int32)),
                    "pos": pa.array(pos[dv].astype(np.int64)),
                }),
                os.path.join(dv_dir(out_dir), f"{prefix}dv-{part:04d}.parquet"),
            )
        n_deleted = len(dv)
    return pa.table({"n_deleted": pa.array([n_deleted], pa.int64())})


def _scan_decide_record(out_dir: str, manifest: dict, files: list[str],
                        probe, prior: pa.Table, partial_fn,
                        partials_fingerprint: str | None, seq: int | None,
                        stage_seconds: dict) -> list[str]:
    """The one body of the build (``seq`` None) and of append ``seq``:
    scan ``files`` with ``probe``; decide the flagged rows against their
    ``prior`` occurrences; record the run in ``manifest`` and write it
    (with ``partials_fingerprint`` unless None). Returns the partial files
    this run wrote: the files' clean shards, then the winners'.

    The decide runs in the driver as shard 0 up to ``LOCAL_THRESHOLD``
    rows. Above it the raw-task exchange hash-partitions both inputs on
    the key (all occurrences of a key co-locate) and each partition
    decides and writes its own shards — no driver gather, under the
    cluster's CPU budget (the 100 TB path). Shard sets differ with P, but
    their union (the deleted positions and the winner rows) does not."""
    pdir = fused_partials_dir(out_dir)
    first = len(manifest["files"])
    prefix = "" if seq is None else f"append{seq:04d}-"
    scan_s, decide_s = (
        ("dv_scan_write", "dv_decide_write") if seq is None
        else ("append_scan", "append_decide")
    )
    t0 = time.perf_counter()
    n_flagged, flagged = _scan_flagged(
        files, first, probe, partial_fn, pdir, manifest.get("tokens", True)
    )
    stage_seconds[scan_s] = time.perf_counter() - t0

    t0 = time.perf_counter()
    decide = functools.partial(
        _decide_write, keep=manifest["keep"], partial_fn=partial_fn,
        out_dir=out_dir, prefix=prefix,
    )
    if not n_flagged:
        decided = []
    elif n_flagged + len(prior) <= LOCAL_THRESHOLD:
        decided = [decide(0, pa.concat_tables(ray.get(flagged)), prior)]
    else:
        decided = ray.get(_shuffle.raw_hash_exchange(
            [(ray.data.from_arrow_refs(flagged), ["key"]),
             (ray.data.from_arrow_refs([ray.put(prior)]), ["key"])],
            decide,
        ))
    n_deleted = sum(t["n_deleted"][0].as_py() for t in decided)
    stage_seconds[decide_s] = time.perf_counter() - t0

    clean = (os.path.join(pdir, f"clean-{i:04d}.parquet")
             for i in range(first, first + len(files)))
    written = [p for p in clean if os.path.exists(p)] + sorted(
        os.path.join(pdir, f) for f in os.listdir(pdir)
        if f.startswith(f"{prefix}winners-")
    )
    manifest["files"] = manifest["files"] + files
    manifest["n_deleted"] = int(manifest.get("n_deleted", 0)) + n_deleted
    if seq is None:
        manifest["n_suspects"] = int(n_flagged)
    else:
        manifest.setdefault("appends", []).append({
            "new_files": files,
            "n_suspects_new": int(n_flagged),
            "n_prior_matches": len(prior),
            "n_deleted_new": n_deleted,
            "partial_files": [os.path.basename(p) for p in written],
        })
    if partials_fingerprint is not None:
        manifest["partials_fingerprint"] = partials_fingerprint
    write_manifest(dv_manifest_file(out_dir), manifest)
    return written


def build_deduped_dv(
    input_path: str,
    files: list[str],
    out_dir: str,
    partial_fn,
    partials_fingerprint: str,
    keep: str = "first",
    stage_seconds: dict | None = None,
    tokens: bool = True,
) -> dict:
    """Build the merge-on-read deduped view of the sorted parquet ``files``
    of ``input_path``: deletion vectors + the survivors' rollup partials +
    manifest. Returns the manifest.

    ``partial_fn`` (a picklable per-batch combiner, e.g.
    ``rollup.PartialRollup``) turns survivor rows into partial rows: the
    scan emits per-file shards of the clean rows, the decide stage the
    winners' shards, all under ``fused_partials_dir``;
    ``partials_fingerprint`` records the input and config they cover
    (checked by :func:`fused_partial_files`). ``tokens=False`` scans
    without the token payload (``token_ck`` null); the manifest records
    the mode for :func:`append_deduped_dv`.
    """
    _require_local(out_dir)
    if keep not in ("first", "none"):
        raise ValueError("keep must be 'first' or 'none'")
    stage_seconds = {} if stage_seconds is None else stage_seconds
    t0 = time.perf_counter()
    probe = duplicated_key_probe_files(files, KEY, exact_threshold=BLOOM_THRESHOLD)
    stage_seconds["dedup_probe"] = time.perf_counter() - t0

    for d in (fused_partials_dir(out_dir), dv_dir(out_dir)):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
    manifest = {
        "mode": "deletion_vector",
        "input": input_path,
        "files": [],
        "keep": keep,
        "tokens": tokens,
        "completed": True,
    }
    _scan_decide_record(
        out_dir, manifest, files, probe, _occurrences(pa.string()).empty_table(),
        partial_fn, partials_fingerprint, None, stage_seconds,
    )
    return manifest


def load_deletion_vectors(out_dir: str) -> dict[int, np.ndarray]:
    """DV dataset → {file_idx: sorted positions}. DVs are ~1% of row COUNT
    at 12 B each, so this is broadcastable at any scale where the flagged
    fraction is small; per-file readers only index their own entry."""
    d = dv_dir(out_dir)
    if not os.path.isdir(d) or not any(
        f.endswith(".parquet") for f in os.listdir(d)
    ):
        return {}
    t = pads.dataset(d).to_table()
    fi = t["file_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
    pos = t["pos"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((pos, fi))
    fi, pos = fi[order], pos[order]
    bounds = np.flatnonzero(np.diff(fi)) + 1
    out: dict[int, np.ndarray] = {}
    for lo, hi in zip(
        np.concatenate([[0], bounds]), np.concatenate([bounds, [len(fi)]])
    ):
        if lo < hi:
            out[int(fi[lo])] = pos[lo:hi]
    return out


class _ReadDeduped:
    """Merge-on-read payload reader: input file minus its deleted positions
    (full rows, tokens byte-identical to the input — the token-array
    equality invariant holds by construction)."""

    def __init__(self, dv_ref, batch_rows: int = 65536):
        self._dv_ref = dv_ref
        self._dv = None
        self.batch_rows = batch_rows

    def __call__(self, files: pa.Table) -> Iterator[pa.Table]:
        from ..sources.ingest import derive_event_time

        if self._dv is None:
            self._dv = ray.get(self._dv_ref)
        for path, fidx in zip(
            files["path"].to_pylist(), files["file_idx"].to_pylist()
        ):
            deleted = self._dv.get(int(fidx), np.array([], dtype=np.int64))
            pf = pq.ParquetFile(path)
            offset = 0
            for rb in pf.iter_batches(
                batch_size=self.batch_rows, use_threads=False
            ):
                t = pa.Table.from_batches([rb])
                n = len(t)
                lo = np.searchsorted(deleted, offset)
                hi = np.searchsorted(deleted, offset + n)
                if hi > lo:
                    m = np.ones(n, dtype=bool)
                    m[deleted[lo:hi] - offset] = False
                    t = t.filter(pa.array(m))
                offset += n
                if len(t):
                    yield derive_event_time(t)


def read_deduped_dv(out_dir: str, batch_rows: int = 65536) -> ray.data.Dataset:
    """Full-payload deduped Dataset from (input files, deletion vectors)."""
    manifest = _built_dv_manifest(out_dir)
    dv_ref = ray.put(load_deletion_vectors(out_dir))
    file_items = ray.data.from_items(
        [{"path": p, "file_idx": i} for i, p in enumerate(manifest["files"])],
        override_num_blocks=max(1, len(manifest["files"])),
    )
    return file_items.map_batches(
        _ReadDeduped(dv_ref, batch_rows), batch_size=1, batch_format="pyarrow"
    )


@ray.remote(num_cpus=1)
def _match_group(paths: list[str], fidxs: list[int], value_set: pa.Array,
                 key: str) -> pa.Table:
    """(key, file_idx, pos) of the rows of ``paths`` whose ``key`` is in
    ``value_set``, read ``key`` only. One ``is_in`` over the files' keys
    together builds the lookup set once; the positions are split back per
    file."""
    cols = [
        pq.read_table(path, columns=[key], use_threads=False)[key].cast(value_set.type)
        for path in paths
    ]
    col = pa.chunked_array([c for k in cols for c in k.chunks], type=value_set.type)
    pos = np.flatnonzero(
        pc.is_in(col, value_set=value_set).to_numpy(zero_copy_only=False)
    )
    starts = np.cumsum([0] + [len(k) for k in cols])
    file = np.searchsorted(starts, pos, side="right") - 1
    return pa.table(
        [col.take(pos), np.asarray(fidxs, dtype=np.int32)[file], pos - starts[file]],
        schema=_occurrences(value_set.type),
    )


def _prior_matches(files: list[str], new_keys: pa.Array) -> pa.Table:
    """(key, file_idx, pos) of every row of ``files`` whose key is one of
    ``new_keys``, file_idx = position in ``files``: one doc_id-only raw
    task per file group (:func:`_shuffle.file_groups`), matching the key
    STRINGS (``pc.is_in``) against the broadcast distinct new keys, so the
    output is the size of the prior copies of the delta's keys. Typed
    (``key`` of ``new_keys``' type) also when nothing matches."""
    value_set = pc.unique(new_keys)
    if not files or not len(value_set):
        return _occurrences(value_set.type).empty_table()
    value_ref = ray.put(value_set)
    return pa.concat_tables(ray.get(
        [_match_group.remote([files[i] for i in g], g, value_ref, KEY)
         for g in file_groups(files)]
    ))


def _append_probe(new_keys: pa.Array, prior_keys: pa.Array) -> np.ndarray:
    """The append scan's probe: sorted hashes of the new keys that are
    duplicates, i.e. occur in a prior file (``prior_keys``) or at least
    twice among the new rows. Exact; a hash collision can only flag more
    new rows, and the decide settles those by the key string."""
    vc = pc.value_counts(new_keys)
    values, counts = vc.field("values"), vc.field("counts")
    dup = pc.or_(pc.greater(counts, 1), pc.is_in(values, value_set=prior_keys))
    return np.unique(hash64_strings(values.filter(dup)))


def append_deduped_dv(
    new_files: list[str],
    out_dir: str,
    partial_fn,
    partials_fingerprint: str,
    stage_seconds: dict | None = None,
) -> dict:
    """Incremental merge-on-read dedup: extend the keep='first' DV build
    under ``out_dir`` with ``new_files``, which the caller found new
    against the files the build lists. Returns the manifest plus
    ``appended_partials``, the partial files of the new survivors (written
    by ``partial_fn`` under ``fused_partials_dir``, next to the build's).

    Contract (keep='first' only; the caller checks the policy and that no
    prior file changed or went): the prior file list keeps its order and
    its winners — the deterministic (file_idx, pos) minimum can only move
    EARLIER, and new files append at the end, so every prior survivor
    stays a survivor and all new deletions land in new files. keep='none'
    cannot append (a new copy invalidates an old survivor retroactively).

    Work ∝ delta + one doc_id-only pass over the prior files: the new
    files' keys are read in the driver, and :func:`_prior_matches` returns
    the prior occurrences of exactly those keys (by string). A new row
    loses exactly when its key occurs in a prior file or earlier among the
    new rows, so the scan's probe is the hashes of those duplicated new
    keys (:func:`_append_probe`), and the decide sees the flagged new rows
    plus their prior occurrences. Each ``appends[]`` entry records
    ``n_suspects_new`` (new rows the scan flagged) and ``n_prior_matches``;
    the top-level ``n_suspects`` stays the build's.

    The manifest's ``partials_fingerprint`` is dropped while the append
    runs; when it completes, ``partials_fingerprint`` (that of the new
    input) takes its place, so a later resume reuses the partials. A
    manifest that had none (an interrupted earlier try) keeps none.
    """
    _require_local(out_dir)
    stage_seconds = {} if stage_seconds is None else stage_seconds
    manifest = _built_dv_manifest(out_dir)
    if manifest.pop("partials_fingerprint", None) is None:
        partials_fingerprint = None
    if not new_files:  # only non-parquet files are new: nothing to scan
        if partials_fingerprint is not None:
            manifest["partials_fingerprint"] = partials_fingerprint
            write_manifest(dv_manifest_file(out_dir), manifest)
        return {**manifest, "appended_partials": []}

    t0 = time.perf_counter()
    new_keys = pads.dataset(new_files).to_table(columns=[KEY])[KEY].combine_chunks()
    prior = _prior_matches(manifest["files"], new_keys)
    probe = _append_probe(new_keys, prior["key"])
    stage_seconds["append_probe"] = time.perf_counter() - t0

    # partials/ covers the manifest's file list again only once this append
    # completes: unmark it meanwhile, so an interrupted append never lets a
    # build reuse partials of files the manifest does not list, and drop
    # what an interrupted try of this append left
    seq = len(manifest.get("appends", [])) + 1
    write_manifest(dv_manifest_file(out_dir), manifest)
    pdir, ddir = fused_partials_dir(out_dir), dv_dir(out_dir)
    first = len(manifest["files"])
    stale = [f"clean-{i:04d}.parquet" for i in range(first, first + len(new_files))]
    for d in (pdir, ddir):
        os.makedirs(d, exist_ok=True)
        for f in os.listdir(d):
            if f in stale or f.startswith(f"append{seq:04d}-"):
                os.remove(os.path.join(d, f))

    appended = _scan_decide_record(
        out_dir, manifest, new_files, probe, prior, partial_fn,
        partials_fingerprint, seq, stage_seconds,
    )
    return {**manifest, "appended_partials": appended}
