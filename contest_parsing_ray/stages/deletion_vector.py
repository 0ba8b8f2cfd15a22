"""Merge-on-read dedup: deletion vectors + stats sidecar, no payload rewrite.

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

    sidecar/data/*.parquet          (source, n_tok, event_time_us, token_ck)
                                    one row per SURVIVING input row — the
                                    pruned projection every rollup pass
                                    needs, ~30 B/row vs ~2 KB payload rows;
                                    token_ck is null when the build ran
                                    with ``tokens=False``
    deletion_vectors/*.parquet      (file_idx:int32, pos:int64) deleted
                                    row positions, sorted
    partials/*.parquet              (optional) scan-fused rollup partials:
                                    clean-{file}.parquet from the scan,
                                    winners-{part}.parquet from the decide
                                    stage — lets the rollup pipeline skip
                                    its own pass over the sidecar
    dv_manifest.json                ordered file list + policy + counts
                                    + token mode (``tokens``; an append
                                    scans new files the same way)
                                    (+ partials_fingerprint when fused)

Execution (two passes, ONE full decode, nothing heavy ever re-encoded):

    exec 1  doc_id-only probe → duplicated key hashes (broadcast; exact
            array or ShardedBloom — ``dedup.duplicated_key_probe_files``)
    exec 2  streaming scan, one task per file group (Ray Data over the
            groups of ``_shuffle.file_groups``: about one per core, at
            most one per file), each file in row-group batches:
            token_ck + event_time_us + probe flag (``tokens=False``
            reads no ``tokens`` column and leaves token_ck null);
            sink-fused hive write partitioned by flag. Flagged rows carry
            (key, file_idx, pos); clean rows land directly as final
            sidecar files (metadata rename, no bytes copied).
    driver  the flagged slice (~1-2%) decides winners by the ACTUAL key
            (hash collisions survive): keep='first' keeps the minimum
            (file_idx, pos) per key — deterministic because the file list
            is sorted — keep='none' drops every copy. Winner stats append
            to the sidecar; loser positions become the deletion vectors.
            Above ``local_threshold`` the decision runs distributed
            (hash-partitioned on key), same semantics.

Duplicate copies carry identical payloads for identical doc_ids by the
input contract (doc_id is the content identity), so rollups over the
sidecar do not depend on which copy wins (tests/test_deletion_vector.py
checks the tiers against a DuckDB oracle over a pandas keep-first dedup).
"""

from __future__ import annotations

import json
import os
import posixpath
import shutil
from typing import Iterator

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray
import ray.data

from ..fsutil import is_uri
from ._shuffle import file_groups, hash64_strings
from .dedup import BloomFilter, ShardedBloom, duplicated_key_probe_files

_FLAG = "__dup"
_SIDECAR_COLS = ["source", "n_tok", "event_time_us", "token_ck"]
_SIDECAR_SCHEMA = pa.schema(
    [("source", pa.string()), ("n_tok", pa.int32()),
     ("event_time_us", pa.int64()), ("token_ck", pa.int64())]
)
_DUP_COLS = ["key", "file_idx", "pos"]


def _list_files(input_path: str) -> list[str]:
    """Deterministic (sorted) parquet fragment list — the file order IS the
    keep='first' tie-break, so it must be stable across runs/clusters."""
    return sorted(f.path for f in pads.dataset(input_path).get_fragments())


def dv_manifest_file(out_dir: str) -> str:
    return os.path.join(out_dir, "dv_manifest.json")


def _create_dir(path: str) -> None:
    from ..fsutil import resolve_fs

    fsys, p = resolve_fs(path)
    fsys.create_dir(p, recursive=True)


def _read_dv_manifest(out_dir: str) -> dict:
    """URI-aware manifest read (file:// and s3:// out_dirs resolve like
    state/manifest.py; a raw open() on a URI would create a literal
    './file:/...' path relative to the cwd)."""
    from ..fsutil import resolve_fs

    fsys, d = resolve_fs(out_dir)
    with fsys.open_input_stream(posixpath.join(d, "dv_manifest.json")) as f:
        return json.loads(f.read().decode())


def _write_dv_manifest(out_dir: str, manifest: dict) -> None:
    """URI-aware atomic-ish manifest write (tmp + move, the
    state/manifest.py pattern)."""
    from ..fsutil import resolve_fs

    fsys, d = resolve_fs(out_dir)
    fsys.create_dir(d, recursive=True)
    tmp = posixpath.join(d, "dv_manifest.json.tmp")
    with fsys.open_output_stream(tmp) as f:
        f.write(json.dumps(manifest, indent=1).encode())
    fsys.move(tmp, posixpath.join(d, "dv_manifest.json"))


def sidecar_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "sidecar", "data")


def dv_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "deletion_vectors")


def fused_partials_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "partials")


def fused_partial_files(out_dir: str, expected_fp: str) -> list[str] | None:
    """The scan-fused rollup partial files, sorted, or None when absent /
    built under a different rollup config (the caller then recomputes
    partials from the sidecar — the two paths merge to identical tier
    points below the quantile cap)."""
    _require_local(out_dir)
    manifest = read_dv_manifest(out_dir)
    if not manifest or manifest.get("partials_fingerprint") != expected_fp:
        return None
    d = fused_partials_dir(out_dir)
    if not os.path.isdir(d):
        return None
    files = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
    return [os.path.join(d, f) for f in files] or None


def read_dv_manifest(out_dir: str) -> dict | None:
    """The build's ``dv_manifest.json``, or None when there is none."""
    try:
        return _read_dv_manifest(out_dir)
    except OSError:
        return None


def _require_local(out_dir: str) -> None:
    """The sidecar, deletion vectors and fused partials are written and
    read with local-path calls; a URI ``out_dir`` would silently leave
    them empty next to a valid manifest, so it raises instead."""
    if is_uri(out_dir):
        raise ValueError(
            f"deletion-vector dedup needs a local out_dir, got URI {out_dir!r}"
        )


def _scan_items(files: list[str], first_idx: int = 0) -> ray.data.Dataset:
    """One item per file group (:func:`_shuffle.file_groups`) listing its
    ``path``s and ``file_idx``s (``first_idx`` + position in ``files``),
    one block per item, so each scan task takes exactly one group."""
    groups = file_groups(files)
    return ray.data.from_items(
        [
            {"path": [files[i] for i in g], "file_idx": [first_idx + i for i in g]}
            for g in groups
        ],
        override_num_blocks=max(1, len(groups)),
    )


def _probe_mask(probe, keys: pa.ChunkedArray | pa.Array) -> np.ndarray:
    h = hash64_strings(keys)
    if isinstance(probe, (BloomFilter, ShardedBloom)):
        return probe.contains_hashes(h)
    if not len(probe):
        return np.zeros(len(h), dtype=bool)
    pos = np.clip(np.searchsorted(probe, h), 0, len(probe) - 1)
    return probe[pos] == h


class _ScanFile:
    """Streaming scan of one file group (an item of :func:`_scan_items`),
    file by file: decode row-group batches, emit the stats sidecar row for
    every input row, flag duplicate suspects, and write each file's own
    ``clean-{file_idx}`` partials, so neither the partials nor the tiers
    depend on how files are grouped. Stateless per call but holds the
    probe ref (fetched on first use in each task). With ``tokens=False``
    the ``tokens`` column is never read: no checksum, ``token_ck`` null.

    ``decode_rows`` is deliberately CACHE-sized, not throughput-sized: a
    batch's working set (decoded tokens plus the checksum buffers, ~20
    B/token) must stay in L2/L3 while every core runs a scanner. The
    older checksum kernel's ~8 temporaries per token made 65536-row
    batches 14x slower than 2048-row ones (32 files on 16 CPUs: 19 s vs
    1.4 s). Output tables are coalesced to ``yield_rows`` before leaving
    the task so the sidecar doesn't fragment into tiny blocks."""

    def __init__(self, probe_ref, decode_rows: int = 2048,
                 yield_rows: int = 65536, partial_fn=None,
                 partials_dir: str | None = None, tokens: bool = True):
        self._probe_ref = probe_ref
        self._probe = None
        self.decode_rows = decode_rows
        self.yield_rows = yield_rows
        # fused rollup partials: the scan already holds every stats column
        # in memory, so computing the per-file partial-rollup rows here
        # removes exec 3's full sidecar re-read from the pipeline (at 100 TB
        # that pass re-reads the ~1.5% stats projection of the corpus).
        # Clean rows only — suspects' survivors get their partials from the
        # decide stage, which holds exactly the winner rows.
        self.partial_fn = partial_fn
        self.partials_dir = partials_dir
        self.tokens = tokens

    def __call__(self, files: pa.Table) -> Iterator[pa.Table]:
        from ..sources.ingest import derive_event_time, token_checksum

        if self._probe is None:
            self._probe = ray.get(self._probe_ref)
        pending: list[pa.Table] = []
        pending_rows = 0
        columns = ["doc_id", "n_tok", "source"] + (["tokens"] if self.tokens else [])
        for path, fidx in zip(
            pa.compute.list_flatten(files["path"]).to_pylist(),
            pa.compute.list_flatten(files["file_idx"]).to_pylist(),
        ):
            pf = pq.ParquetFile(path)
            offset = 0
            clean_stats: list[pa.Table] = []
            for rb in pf.iter_batches(
                batch_size=self.decode_rows,
                columns=columns,
                use_threads=False,
            ):
                t = derive_event_time(pa.Table.from_batches([rb]))
                t = (
                    token_checksum(t)
                    if self.tokens
                    else t.append_column("token_ck", pa.nulls(len(t), pa.int64()))
                )
                mask = _probe_mask(self._probe, t["doc_id"])
                n = len(t)
                valid = pa.array(mask)
                if self.partial_fn is not None:
                    clean_stats.append(
                        pa.table(
                            {
                                "source": t["source"],
                                "n_tok": t["n_tok"],
                                "event_time_us": t["event_time_us"],
                                "token_ck": t["token_ck"],
                            }
                        ).filter(pa.compute.invert(valid))
                    )
                out = pa.table(
                    {
                        "source": t["source"],
                        "n_tok": t["n_tok"],
                        "event_time_us": t["event_time_us"],
                        "token_ck": t["token_ck"],
                        # suspect-only columns: null on clean rows so the
                        # sidecar stays ~30 B/row
                        "key": pa.compute.if_else(
                            valid, t["doc_id"], pa.scalar(None, pa.string())
                        ),
                        "file_idx": pa.array(
                            np.full(n, fidx, dtype=np.int32), mask=~mask
                        ),
                        "pos": pa.array(
                            offset + np.arange(n, dtype=np.int64), mask=~mask
                        ),
                        _FLAG: pa.compute.if_else(
                            valid, pa.scalar("dup"), pa.scalar("ok")
                        ),
                    }
                )
                offset += n
                pending.append(out)
                pending_rows += n
                if pending_rows >= self.yield_rows:
                    yield pa.concat_tables(pending).combine_chunks()
                    pending, pending_rows = [], 0
            if self.partial_fn is not None and clean_stats:
                stats = pa.concat_tables(clean_stats).combine_chunks()
                if len(stats):
                    rows = self.partial_fn(stats)
                    if len(rows):
                        pq.write_table(
                            rows,
                            os.path.join(
                                self.partials_dir, f"clean-{fidx:04d}.parquet"
                            ),
                        )
        if pending:
            yield pa.concat_tables(pending).combine_chunks()


def _decide_losers(df: pd.DataFrame, keep: str) -> np.ndarray:
    """Row indices of DELETED occurrences within the flagged frame.

    Operates on the ACTUAL key strings, so probe false positives (hash
    collisions, Bloom hits) with a global count of 1 always survive."""
    counts = df.groupby("key", sort=False)["key"].transform("size").to_numpy()
    if keep == "none":
        return np.flatnonzero(counts > 1)
    ordered = df.sort_values(["key", "file_idx", "pos"], kind="stable")
    winners = ordered.drop_duplicates(subset="key", keep="first").index.to_numpy()
    lose = np.ones(len(df), dtype=bool)
    lose[winners] = False
    lose[counts == 1] = False
    return np.flatnonzero(lose)


def build_deduped_dv(
    input_path: str,
    out_dir: str,
    key: str = "doc_id",
    keep: str = "first",
    local_threshold: int = 200_000,
    bloom_threshold: int = 50_000_000,
    decode_rows: int = 2048,
    stage_seconds: dict | None = None,
    partial_fn=None,
    partials_fingerprint: str | None = None,
    tokens: bool = True,
) -> dict:
    """Build the merge-on-read deduped view of a sequences parquet dir:
    stats sidecar + deletion vectors + manifest. Returns counts.

    ``tokens=False`` scans without the token payload (``token_ck`` null);
    the manifest records the mode for :func:`append_deduped_dv`.

    ``partial_fn`` (a picklable per-batch combiner, e.g.
    ``rollup.PartialRollup``) fuses rollup-partial computation into the
    scan and decide stages: clean rows emit per-file partial shards, the
    decide stage emits the survivors' shards, all under
    ``fused_partials_dir``; ``partials_fingerprint`` records the rollup
    config they were built under (checked by :func:`fused_partial_files`).
    """
    import time

    _require_local(out_dir)
    if keep not in ("first", "none"):
        raise ValueError("keep must be 'first' or 'none'")
    if partial_fn is not None and partials_fingerprint is None:
        raise ValueError("partial_fn requires partials_fingerprint")
    files = _list_files(input_path)

    t0 = time.perf_counter()
    probe = duplicated_key_probe_files(
        input_path, key, exact_threshold=bloom_threshold
    )
    probe_ref = ray.put(probe)
    if stage_seconds is not None:
        stage_seconds["dedup_probe"] = time.perf_counter() - t0

    # exec 2: one full streaming decode, sink-fused hive split on the flag
    t0 = time.perf_counter()
    raw_dir = os.path.join(out_dir, "_sidecar_raw")
    shutil.rmtree(raw_dir, ignore_errors=True)
    shutil.rmtree(sidecar_dir(out_dir), ignore_errors=True)
    shutil.rmtree(dv_dir(out_dir), ignore_errors=True)
    shutil.rmtree(fused_partials_dir(out_dir), ignore_errors=True)
    pdir = None
    if partial_fn is not None:
        pdir = fused_partials_dir(out_dir)
        _create_dir(pdir)
    _scan_items(files).map_batches(
        _ScanFile(probe_ref, decode_rows, partial_fn=partial_fn,
                  partials_dir=pdir, tokens=tokens),
        batch_size=1,
        batch_format="pyarrow",
    ).write_parquet(raw_dir, partition_cols=[_FLAG])
    if stage_seconds is not None:
        stage_seconds["dv_scan_write"] = time.perf_counter() - t0

    # promote clean sidecar files into the final layout (metadata renames)
    t0 = time.perf_counter()
    _create_dir(sidecar_dir(out_dir))
    ok_root = os.path.join(raw_dir, f"{_FLAG}=ok")
    if os.path.isdir(ok_root):
        for f in os.listdir(ok_root):
            os.rename(
                os.path.join(ok_root, f), os.path.join(sidecar_dir(out_dir), f)
            )

    # flagged slice → winners/losers by actual key
    n_deleted = 0
    n_suspects = 0
    _create_dir(dv_dir(out_dir))
    dup_root = os.path.join(raw_dir, f"{_FLAG}=dup")
    if os.path.isdir(dup_root):
        dup_ds = pads.dataset(dup_root)
        # cheap metadata row count decides the branch; the local branch
        # then reads the slice once
        n_suspects = dup_ds.count_rows()
        if n_suspects <= local_threshold:
            t = dup_ds.to_table(use_threads=True)
            df = t.select(_DUP_COLS).to_pandas()
            losers = _decide_losers(df, keep)
            lose_mask = np.zeros(len(df), dtype=bool)
            lose_mask[losers] = True
            winners_t = t.filter(pa.array(~lose_mask))
            if len(winners_t):
                pq.write_table(
                    winners_t,
                    os.path.join(sidecar_dir(out_dir), "winners-0000.parquet"),
                )
                if partial_fn is not None:
                    rows = partial_fn(winners_t.select(_SIDECAR_COLS))
                    if len(rows):
                        pq.write_table(
                            rows, os.path.join(pdir, "winners-0000.parquet")
                        )
            dv = df.iloc[losers].sort_values(["file_idx", "pos"], kind="stable")
            pq.write_table(
                pa.table(
                    {
                        "file_idx": pa.array(
                            dv["file_idx"].to_numpy(dtype=np.int32)
                        ),
                        "pos": pa.array(dv["pos"].to_numpy(dtype=np.int64)),
                    }
                ),
                os.path.join(dv_dir(out_dir), "dv-0000.parquet"),
            )
            n_deleted = len(dv)
        else:
            # distributed decision: hash-partition the flagged slice on the
            # key via the raw-task exchange (all occurrences of a key
            # co-locate); each partition decides vectorized and writes its
            # winners/dv shard DIRECTLY — no second Dataset execution, no
            # driver gather, and the work runs under the cluster's CPU
            # budget (the driver-local pandas path rides pyarrow's host
            # thread pool outside it). Shard sets differ with P but their
            # union — the deleted (file_idx, pos) set and the winner rows —
            # is P-invariant: the per-key decision needs only its own key's
            # occurrences. (100 TB path)
            from ._shuffle import raw_hash_exchange

            suspects = ray.data.read_parquet(dup_root)
            win_cols = _SIDECAR_COLS + _DUP_COLS
            sdir, ddir = sidecar_dir(out_dir), dv_dir(out_dir)

            def decide_shard(part: int, t: pa.Table) -> pa.Table:
                df = t.select(_DUP_COLS).to_pandas()
                losers = _decide_losers(df, keep)
                lose_mask = np.zeros(len(df), dtype=bool)
                lose_mask[losers] = True
                win = t.filter(pa.array(~lose_mask)).select(win_cols)
                if len(win):
                    pq.write_table(
                        win, os.path.join(sdir, f"winners-{part:04d}.parquet")
                    )
                    if partial_fn is not None:
                        rows = partial_fn(win.select(_SIDECAR_COLS))
                        if len(rows):
                            pq.write_table(
                                rows,
                                os.path.join(pdir, f"winners-{part:04d}.parquet"),
                            )
                dv = df.iloc[losers].sort_values(
                    ["file_idx", "pos"], kind="stable"
                )
                if len(dv):
                    pq.write_table(
                        pa.table(
                            {
                                "file_idx": pa.array(
                                    dv["file_idx"].to_numpy(dtype=np.int32)
                                ),
                                "pos": pa.array(
                                    dv["pos"].to_numpy(dtype=np.int64)
                                ),
                            }
                        ),
                        os.path.join(ddir, f"dv-{part:04d}.parquet"),
                    )
                return pa.table({"n_deleted": pa.array([len(dv)], pa.int64())})

            counts = ray.get(raw_hash_exchange([(suspects, ["key"])], decide_shard))
            n_deleted = int(sum(c["n_deleted"][0].as_py() for c in counts))
    shutil.rmtree(raw_dir, ignore_errors=True)
    if stage_seconds is not None:
        stage_seconds["dv_decide_write"] = time.perf_counter() - t0

    manifest = {
        "mode": "deletion_vector",
        "input": input_path,
        "files": files,
        "keep": keep,
        "tokens": tokens,
        "n_suspects": int(n_suspects),
        "n_deleted": int(n_deleted),
        "completed": True,
    }
    if partial_fn is not None:
        manifest["partials_fingerprint"] = partials_fingerprint
    _write_dv_manifest(out_dir, manifest)
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


def read_sidecar(out_dir: str, columns: list[str] | None = None) -> ray.data.Dataset:
    """The pruned survivor projection (what rollup passes read); empty
    when no row survived (a zero-row input writes no sidecar file)."""
    columns = columns or _SIDECAR_COLS
    d = sidecar_dir(out_dir)
    if not any(f.endswith(".parquet") for f in os.listdir(d)):
        return ray.data.from_arrow(_SIDECAR_SCHEMA.empty_table().select(columns))
    return ray.data.read_parquet(d, columns=columns)


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
    manifest = _read_dv_manifest(out_dir)
    dv_ref = ray.put(load_deletion_vectors(out_dir))
    file_items = ray.data.from_items(
        [{"path": p, "file_idx": i} for i, p in enumerate(manifest["files"])],
        override_num_blocks=max(1, len(manifest["files"])),
    )
    return file_items.map_batches(
        _ReadDeduped(dv_ref, batch_rows), batch_size=1, batch_format="pyarrow"
    )


def _flagged_occurrences(
    files: list[str], probe_ref, key: str = "doc_id"
) -> pd.DataFrame:
    """(file_idx, pos, key) of probe-flagged rows, file_idx = position in
    ``files`` — doc_id-only raw tasks (no payload decode), one per file
    group (:func:`_shuffle.file_groups`)."""

    @ray.remote(num_cpus=1)
    def scan(paths: list[str], fidxs: list[int]) -> pd.DataFrame:
        probe = ray.get(probe_ref)
        frames = []
        for path, fidx in zip(paths, fidxs):
            t = pq.read_table(path, columns=[key], use_threads=False)
            pos = np.flatnonzero(_probe_mask(probe, t[key]))
            frames.append(
                pd.DataFrame(
                    {"file_idx": np.full(len(pos), fidx, dtype=np.int32),
                     "pos": pos.astype(np.int64),
                     "key": t[key].take(pa.array(pos)).to_pylist()}
                )
            )
        return pd.concat(frames, ignore_index=True)

    frames = ray.get(
        [scan.remote([files[i] for i in g], g) for g in file_groups(files)]
    )
    return (
        pd.concat(frames, ignore_index=True)
        if frames
        else pd.DataFrame({"file_idx": [], "pos": [], "key": []})
    )


def append_deduped_dv(
    input_path: str,
    out_dir: str,
    key: str = "doc_id",
    keep: str = "first",
    decode_rows: int = 2048,
    bloom_threshold: int = 50_000_000,
    stage_seconds: dict | None = None,
) -> dict:
    """Incremental merge-on-read dedup: extend an existing DV build with
    the NEW parquet files under ``input_path``.

    Contract (keep='first' only): the prior file list keeps its order and
    its winners — the deterministic (file_idx, pos) minimum can only move
    EARLIER, and new files append at the end, so every prior survivor
    stays a survivor and all new deletions land in new files. keep='none'
    cannot append (a new copy invalidates an old survivor retroactively) —
    the pipeline falls back to a full rebuild for it.

    Work ∝ delta + one doc_id-only pass over the full corpus (the global
    duplicate probe — at 100 TB this column is ~0.1% of the bytes; a
    persistent key sketch would remove even that and slots in behind the
    same probe interface).
    """
    import time

    _require_local(out_dir)
    if keep != "first":
        raise ValueError("append supports keep='first' only")
    manifest = _read_dv_manifest(out_dir)
    if manifest.get("keep") != "first":
        raise ValueError("existing build used a different keep policy")
    prior_files = manifest["files"]
    current = _list_files(input_path)
    new_files = sorted(set(current) - set(prior_files))
    if set(prior_files) - set(current):
        raise ValueError("prior input files were removed; rebuild required")
    files = prior_files + new_files  # stable order: priors keep their idx
    if not new_files:
        return manifest

    t0 = time.perf_counter()
    probe = duplicated_key_probe_files(
        input_path, key, exact_threshold=bloom_threshold
    )
    probe_ref = ray.put(probe)
    if stage_seconds is not None:
        stage_seconds["append_probe"] = time.perf_counter() - t0

    # scan ONLY the new files (payload decode ∝ delta), in the build's
    # token mode (a manifest without the key predates the mode: tokens)
    t0 = time.perf_counter()
    raw_dir = os.path.join(out_dir, "_sidecar_raw")
    shutil.rmtree(raw_dir, ignore_errors=True)
    _scan_items(new_files, first_idx=len(prior_files)).map_batches(
        _ScanFile(probe_ref, decode_rows, tokens=manifest.get("tokens", True)),
        batch_size=1,
        batch_format="pyarrow",
    ).write_parquet(raw_dir, partition_cols=[_FLAG])
    if stage_seconds is not None:
        stage_seconds["append_scan"] = time.perf_counter() - t0

    # clean new rows -> sidecar (metadata renames, tagged to avoid clashes)
    t0 = time.perf_counter()
    seq = len(manifest.get("appends", [])) + 1
    ok_root = os.path.join(raw_dir, f"{_FLAG}=ok")
    appended_sidecar: list[str] = []
    if os.path.isdir(ok_root):
        # sorted: one write's file names differ only in the task index
        for f in sorted(os.listdir(ok_root)):
            dst = f"append{seq:04d}-{f}"
            os.rename(
                os.path.join(ok_root, f), os.path.join(sidecar_dir(out_dir), dst)
            )
            appended_sidecar.append(dst)

    # flagged NEW rows compete with OLD occurrences of the same keys
    n_deleted_new = 0
    dup_root = os.path.join(raw_dir, f"{_FLAG}=dup")
    if os.path.isdir(dup_root):
        new_flagged = pads.dataset(dup_root).to_table()
        old_occ = _flagged_occurrences(prior_files, probe_ref, key)
        nf = new_flagged.select(_DUP_COLS).to_pandas()
        allocc = pd.concat(
            [old_occ[["key", "file_idx", "pos"]], nf[["key", "file_idx", "pos"]]],
            ignore_index=True,
        )
        winners = (
            allocc.sort_values(["key", "file_idx", "pos"], kind="stable")
            .drop_duplicates(subset="key", keep="first")
        )
        win_set = set(zip(winners["file_idx"].astype(int), winners["pos"].astype(int)))
        lose_mask = np.array(
            [
                (int(fi), int(po)) not in win_set
                for fi, po in zip(nf["file_idx"], nf["pos"])
            ],
            dtype=bool,
        )
        new_winners = new_flagged.filter(pa.array(~lose_mask))
        if len(new_winners):
            name = f"append{seq:04d}-winners.parquet"
            pq.write_table(
                new_winners, os.path.join(sidecar_dir(out_dir), name)
            )
            appended_sidecar.append(name)
        losers = nf[lose_mask].sort_values(["file_idx", "pos"], kind="stable")
        if len(losers):
            pq.write_table(
                pa.table(
                    {
                        "file_idx": pa.array(
                            losers["file_idx"].to_numpy(dtype=np.int32)
                        ),
                        "pos": pa.array(losers["pos"].to_numpy(dtype=np.int64)),
                    }
                ),
                os.path.join(dv_dir(out_dir), f"append{seq:04d}-dv.parquet"),
            )
        n_deleted_new = int(lose_mask.sum())
    shutil.rmtree(raw_dir, ignore_errors=True)
    if stage_seconds is not None:
        stage_seconds["append_decide"] = time.perf_counter() - t0

    manifest["files"] = files
    manifest["n_deleted"] = int(manifest.get("n_deleted", 0)) + n_deleted_new
    # the fused rollup partials (if any) cover only the PRIOR file list —
    # invalidate so a later full-rollup pass recomputes from the sidecar
    manifest.pop("partials_fingerprint", None)
    manifest.setdefault("appends", []).append(
        {
            "new_files": new_files,
            "n_deleted_new": n_deleted_new,
            "sidecar_files": appended_sidecar,
        }
    )
    _write_dv_manifest(out_dir, manifest)
    manifest["appended_sidecar"] = appended_sidecar
    return manifest
