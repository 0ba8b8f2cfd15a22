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
                                    winners-{part}.parquet from the build's
                                    decide, append{seq}-winners.parquet
                                    from an append's decide
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

Build (two passes, ONE full decode, nothing heavy ever re-encoded):

    exec 1  doc_id-only probe → duplicated key hashes (broadcast; exact
            array or ShardedBloom — ``dedup.duplicated_key_probe_files``)
    exec 2  streaming scan, one task per file group (Ray Data over the
            groups of ``_shuffle.file_groups``: about one per core, at
            most one per file), each file in row-group batches:
            token_ck + event_time_us + probe flag (``tokens=False``
            reads no ``tokens`` column and leaves token_ck null). Each
            file's clean rows become its own partials, written by the
            task; the flagged rows (stats + key, file_idx, pos) are the
            scan's only output, written to a scratch dir.
    driver  the flagged slice (~1-2%) decides winners by the ACTUAL key
            (hash collisions survive): keep='first' keeps the minimum
            (file_idx, pos) per key — deterministic because the file list
            is sorted — keep='none' drops every copy. The winners become
            partials; loser positions become the deletion vectors.
            Above ``local_threshold`` the decision runs distributed
            (hash-partitioned on key), same semantics.

Append (keep='first'; new files sort after the prior ones):

    driver  read the new files' doc_id; :func:`_prior_matches` runs one
            doc_id-only task per group of PRIOR files, matching the key
            strings against the distinct new keys, and returns the prior
            occurrences of those keys. The probe is the hashes of the new
            keys that occur in a prior file or twice among the new rows.
    exec    the same scan over the new files only (payload decode ∝
            delta); its tasks write the new files' clean partials.
    driver  the build's decide over the flagged new rows plus their
            prior occurrences; only the new rows' winners and losers are
            written. The prior corpus is read once, doc_id only.

Duplicate copies carry identical payloads for identical doc_ids by the
input contract (doc_id is the content identity), so rollups over the
survivors do not depend on which copy wins (tests/test_deletion_vector.py
checks the tiers against a DuckDB oracle over a pandas keep-first dedup).
"""

from __future__ import annotations

import os
import shutil
from typing import Iterator

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray
import ray.data

from ..fsutil import is_uri
from ..state.manifest import read_manifest, write_manifest
from ._shuffle import file_groups, hash64_strings
from .dedup import BloomFilter, ShardedBloom, duplicated_key_probe_files

# the per-row columns the rollup partials need, and the flagged rows' extras
_STATS_COLS = ["source", "n_tok", "event_time_us", "token_ck"]
_DUP_COLS = ["key", "file_idx", "pos"]


def _list_files(input_path: str) -> list[str]:
    """Deterministic (sorted) parquet fragment list — the file order IS the
    keep='first' tie-break, so it must be stable across runs/clusters."""
    return sorted(f.path for f in pads.dataset(input_path).get_fragments())


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
    file by file: decode row-group batches, flag duplicate suspects, write
    each file's own ``clean-{file_idx}`` partials from its unflagged rows
    (so neither the partials nor the tiers depend on how files are
    grouped), and emit the flagged rows with their stats and (key,
    file_idx, pos) for the decide. Stateless per call but holds the probe
    ref (fetched on first use in each task). With ``tokens=False`` the
    ``tokens`` column is never read: no checksum, ``token_ck`` null.

    ``decode_rows`` is deliberately CACHE-sized, not throughput-sized: a
    batch's working set (decoded tokens plus the checksum buffers, ~20
    B/token) must stay in L2/L3 while every core runs a scanner. The
    older checksum kernel's ~8 temporaries per token made 65536-row
    batches 14x slower than 2048-row ones (32 files on 16 CPUs: 19 s vs
    1.4 s)."""

    def __init__(self, probe_ref, partial_fn, partials_dir: str,
                 decode_rows: int = 2048, tokens: bool = True):
        self._probe_ref = probe_ref
        self._probe = None
        # the scan holds every stats column in memory, so the per-file
        # partial rows cost no second pass over the corpus
        self.partial_fn = partial_fn
        self.partials_dir = partials_dir
        self.decode_rows = decode_rows
        self.tokens = tokens

    def __call__(self, files: pa.Table) -> Iterator[pa.Table]:
        from ..sources.ingest import derive_event_time, token_checksum

        if self._probe is None:
            self._probe = ray.get(self._probe_ref)
        columns = ["doc_id", "n_tok", "source"] + (["tokens"] if self.tokens else [])
        for path, fidx in zip(
            pa.compute.list_flatten(files["path"]).to_pylist(),
            pa.compute.list_flatten(files["file_idx"]).to_pylist(),
        ):
            offset = 0
            clean: list[pa.Table] = []
            flagged: list[pa.Table] = []
            for rb in pq.ParquetFile(path).iter_batches(
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
                rows = self.partial_fn(stats)
                if len(rows):
                    pq.write_table(
                        rows,
                        os.path.join(self.partials_dir, f"clean-{fidx:04d}.parquet"),
                    )
            if flagged:
                yield pa.concat_tables(flagged).combine_chunks()


def _scan_flagged(files: list[str], first_idx: int, probe_ref, partial_fn,
                  partials_dir: str, decode_rows: int, tokens: bool,
                  flagged_dir: str) -> pads.Dataset | None:
    """Run the scan over ``files`` (``file_idx`` from ``first_idx``): ONE
    Ray Data execution that writes the clean partials from the tasks and
    the flagged rows to ``flagged_dir``. Returns the flagged rows as a
    dataset, or None when no row was flagged."""
    shutil.rmtree(flagged_dir, ignore_errors=True)
    _scan_items(files, first_idx).map_batches(
        _ScanFile(probe_ref, partial_fn, partials_dir, decode_rows, tokens),
        batch_size=1,
        batch_format="pyarrow",
    ).write_parquet(flagged_dir)
    if not os.path.isdir(flagged_dir):
        return None
    flagged = pads.dataset(flagged_dir)
    return flagged if flagged.count_rows() else None


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


def _write_decision(flagged: pa.Table, lose: np.ndarray, partial_fn,
                    winners_path: str, dv_path: str) -> int:
    """Write one decision over flagged rows: the winners' rollup partials
    to ``winners_path`` and the losers' (file_idx, pos) to ``dv_path``,
    each only when non-empty. Rows go in (file_idx, pos) order, so the
    files do not depend on the order the rows arrived in. Returns the
    number of losers."""
    fidx = flagged["file_idx"].to_numpy()
    pos = flagged["pos"].to_numpy()
    order = np.lexsort((pos, fidx))
    win, dv = order[~lose[order]], order[lose[order]]
    if len(win):
        rows = partial_fn(flagged.select(_STATS_COLS).take(pa.array(win)))
        if len(rows):
            pq.write_table(rows, winners_path)
    if len(dv):
        pq.write_table(
            pa.table(
                {
                    "file_idx": pa.array(fidx[dv].astype(np.int32)),
                    "pos": pa.array(pos[dv].astype(np.int64)),
                }
            ),
            dv_path,
        )
    return len(dv)


def build_deduped_dv(
    input_path: str,
    out_dir: str,
    partial_fn,
    partials_fingerprint: str,
    key: str = "doc_id",
    keep: str = "first",
    local_threshold: int = 200_000,
    bloom_threshold: int = 50_000_000,
    decode_rows: int = 2048,
    stage_seconds: dict | None = None,
    tokens: bool = True,
) -> dict:
    """Build the merge-on-read deduped view of a sequences parquet dir:
    deletion vectors + the survivors' rollup partials + manifest. Returns
    the manifest.

    ``partial_fn`` (a picklable per-batch combiner, e.g.
    ``rollup.PartialRollup``) turns survivor rows into partial rows: the
    scan emits per-file shards of the clean rows, the decide stage the
    winners' shards, all under ``fused_partials_dir``;
    ``partials_fingerprint`` records the input and config they cover
    (checked by :func:`fused_partial_files`). ``tokens=False`` scans
    without the token payload (``token_ck`` null); the manifest records
    the mode for :func:`append_deduped_dv`.
    """
    import time

    _require_local(out_dir)
    if keep not in ("first", "none"):
        raise ValueError("keep must be 'first' or 'none'")
    files = _list_files(input_path)

    t0 = time.perf_counter()
    probe = duplicated_key_probe_files(
        input_path, key, exact_threshold=bloom_threshold
    )
    probe_ref = ray.put(probe)
    if stage_seconds is not None:
        stage_seconds["dedup_probe"] = time.perf_counter() - t0

    # exec 2: one full streaming decode; clean partials from the tasks
    t0 = time.perf_counter()
    pdir, ddir = fused_partials_dir(out_dir), dv_dir(out_dir)
    for d in (pdir, ddir):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
    flagged_dir = os.path.join(out_dir, "_flagged")
    flagged = _scan_flagged(
        files, 0, probe_ref, partial_fn, pdir, decode_rows, tokens, flagged_dir
    )
    if stage_seconds is not None:
        stage_seconds["dv_scan_write"] = time.perf_counter() - t0

    # flagged slice → winners/losers by actual key
    t0 = time.perf_counter()
    n_deleted = 0
    n_suspects = 0
    if flagged is not None:

        def decide(part: int, t: pa.Table) -> int:
            return _write_decision(
                t, _decide_losers(t.select(_DUP_COLS).to_pandas(), keep),
                partial_fn, os.path.join(pdir, f"winners-{part:04d}.parquet"),
                os.path.join(ddir, f"dv-{part:04d}.parquet"),
            )

        # cheap metadata row count decides the branch; the local branch
        # then reads the slice once
        n_suspects = flagged.count_rows()
        if n_suspects <= local_threshold:
            n_deleted = decide(0, flagged.to_table(use_threads=True))
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

            counts = ray.get(raw_hash_exchange(
                [(ray.data.read_parquet(flagged_dir), ["key"])],
                lambda part, t: pa.table(
                    {"n_deleted": pa.array([decide(part, t)], pa.int64())}
                ),
            ))
            n_deleted = int(sum(c["n_deleted"][0].as_py() for c in counts))
    shutil.rmtree(flagged_dir, ignore_errors=True)
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
        "partials_fingerprint": partials_fingerprint,
    }
    write_manifest(dv_manifest_file(out_dir), manifest)
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


def _prior_matches(
    files: list[str], new_keys: pa.Array, key: str = "doc_id"
) -> pa.Table:
    """(key, file_idx, pos) of every row of ``files`` whose key is one of
    ``new_keys``, file_idx = position in ``files``: one doc_id-only raw
    task per file group (:func:`_shuffle.file_groups`), matching the key
    STRINGS (``pc.is_in``) against the broadcast distinct new keys, so the
    output is the size of the prior copies of the delta's keys. Typed
    (``key`` of ``new_keys``' type) also when nothing matches."""
    value_set = pc.unique(new_keys)
    schema = pa.schema(
        [("key", value_set.type), ("file_idx", pa.int32()), ("pos", pa.int64())]
    )
    if not files or not len(value_set):
        return schema.empty_table()

    @ray.remote(num_cpus=1)
    def match(paths: list[str], fidxs: list[int], value_set: pa.Array) -> pa.Table:
        out = [schema.empty_table()]
        for path, fidx in zip(paths, fidxs):
            col = pq.read_table(path, columns=[key], use_threads=False)[key]
            pos = np.flatnonzero(
                pc.is_in(col, value_set=value_set).to_numpy(zero_copy_only=False)
            )
            out.append(pa.table(
                [col.take(pos).cast(value_set.type), np.full(len(pos), fidx), pos],
                schema=schema,
            ))
        return pa.concat_tables(out)

    value_ref = ray.put(value_set)
    return pa.concat_tables(ray.get(
        [match.remote([files[i] for i in g], g, value_ref)
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
    input_path: str,
    out_dir: str,
    partial_fn,
    partials_fingerprint: str,
    key: str = "doc_id",
    keep: str = "first",
    decode_rows: int = 2048,
    stage_seconds: dict | None = None,
) -> dict:
    """Incremental merge-on-read dedup: extend an existing DV build with
    the NEW parquet files under ``input_path``. Returns the manifest plus
    ``appended_partials``, the partial files of the new survivors (written
    by ``partial_fn`` under ``fused_partials_dir``, next to the build's).

    Contract (keep='first' only): the prior file list keeps its order and
    its winners — the deterministic (file_idx, pos) minimum can only move
    EARLIER, and new files append at the end, so every prior survivor
    stays a survivor and all new deletions land in new files. keep='none'
    cannot append (a new copy invalidates an old survivor retroactively) —
    the pipeline falls back to a full rebuild for it.

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
    import time

    _require_local(out_dir)
    if keep != "first":
        raise ValueError("append supports keep='first' only")
    manifest = _built_dv_manifest(out_dir)
    if manifest.get("keep") != "first":
        raise ValueError("existing build used a different keep policy")
    prior_files = manifest["files"]
    current = _list_files(input_path)
    new_files = sorted(set(current) - set(prior_files))
    if set(prior_files) - set(current):
        raise ValueError("prior input files were removed; rebuild required")
    files = prior_files + new_files  # stable order: priors keep their idx
    if not new_files:
        return {**manifest, "appended_partials": []}

    t0 = time.perf_counter()
    new_keys = pads.dataset(new_files).to_table(columns=[key])[key].combine_chunks()
    old_occ = _prior_matches(prior_files, new_keys, key)
    probe_ref = ray.put(_append_probe(new_keys, old_occ["key"]))
    if stage_seconds is not None:
        stage_seconds["append_probe"] = time.perf_counter() - t0

    pdir = fused_partials_dir(out_dir)
    seq = len(manifest.get("appends", [])) + 1
    winners = os.path.join(pdir, f"append{seq:04d}-winners.parquet")
    dv_path = os.path.join(dv_dir(out_dir), f"append{seq:04d}-dv.parquet")
    targets = [
        os.path.join(pdir, f"clean-{i:04d}.parquet")
        for i in range(len(prior_files), len(files))
    ] + [winners]
    # partials/ covers the manifest's file list again only once this append
    # completes: unmark it meanwhile, so an interrupted append never lets a
    # build reuse partials of files the manifest does not list, and drop
    # what an interrupted try of this append left
    current_fp = manifest.pop("partials_fingerprint", None)
    write_manifest(dv_manifest_file(out_dir), manifest)
    os.makedirs(pdir, exist_ok=True)
    for p in targets + [dv_path]:
        if os.path.exists(p):
            os.remove(p)

    # scan ONLY the new files (payload decode ∝ delta), in the build's
    # token mode (a manifest without the key predates the mode: tokens)
    t0 = time.perf_counter()
    flagged_dir = os.path.join(out_dir, "_flagged")
    flagged = _scan_flagged(
        new_files, len(prior_files), probe_ref, partial_fn, pdir, decode_rows,
        manifest.get("tokens", True), flagged_dir,
    )
    if stage_seconds is not None:
        stage_seconds["append_scan"] = time.perf_counter() - t0

    # flagged NEW rows compete with OLD occurrences of the same keys: one
    # keep='first' decision over both, of which only the new rows' part
    # is written (prior survivors stay survivors)
    t0 = time.perf_counter()
    n_deleted_new = n_suspects_new = 0
    if flagged is not None:
        new_flagged = flagged.to_table()
        n_suspects_new = len(new_flagged)
        lose = _decide_losers(
            pd.concat(
                [old_occ.to_pandas(), new_flagged.select(_DUP_COLS).to_pandas()],
                ignore_index=True,
            ),
            "first",
        )
        n_deleted_new = _write_decision(
            new_flagged, lose[len(old_occ):], partial_fn, winners, dv_path
        )
    shutil.rmtree(flagged_dir, ignore_errors=True)
    if stage_seconds is not None:
        stage_seconds["append_decide"] = time.perf_counter() - t0

    appended = [p for p in targets if os.path.exists(p)]
    manifest["files"] = files
    manifest["n_deleted"] = int(manifest.get("n_deleted", 0)) + n_deleted_new
    manifest.setdefault("appends", []).append(
        {
            "new_files": new_files,
            "n_suspects_new": n_suspects_new,
            "n_prior_matches": len(old_occ),
            "n_deleted_new": n_deleted_new,
            "partial_files": [os.path.basename(p) for p in appended],
        }
    )
    if current_fp is not None:
        manifest["partials_fingerprint"] = partials_fingerprint
    write_manifest(dv_manifest_file(out_dir), manifest)
    return {**manifest, "appended_partials": appended}
