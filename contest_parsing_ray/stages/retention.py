"""Tiered Parquet retention writer with lineage manifests.

Layout (resumable, partitioned — never one giant file):

    out/deduped/deletion_vectors/, partials/     the deduped table and its
    out/deduped/dv_manifest.json                 rollup partials, and the one
                                                 manifest that says whether
                                                 they are current
                                                 (stages/deletion_vector.py)
    out/rollup/data/tier=<t>/source=<s>/*.parquet  rollup points per tier
    out/rollup/state/tier=<t>/source=<s>/*.parquet mergeable tier state
    out/chunks/tier=<t>/*.parquet                compressed segments
    out/manifests/<t>.json                       per-tier lineage manifest

A build and an append run the same tail: write the tiers (all sources, or
the sources the append touched), expire them (:func:`apply_retention`, data
and state), then encode the chunks from what is left, so a chunk never
holds an expired point.

Reference analog: the per-stage Parquet sinks (``MetricsParser.py:139-143``
etc.) + output clearing (``JoinManager.py:189-195``), upgraded with the
atomicity/lineage design from SURVEY §4 (idempotent writes, per-partition
manifest, skip-completed-on-resume). Rollup tiers are compact by design
(one row per (source, bucket)), so the pipeline merges them into driver
memory and writes them from there: one parquet file per (tier, source),
each written tmp-then-move from a zero-copy slice of the tier's Arrow
table (sorted by source), with the per-partition stats
(:func:`partition_stats`: rows and an exact digest) computed from that
slice. The mergeable tier STATE (``rollup/state/``) is written the same
way. An incremental append rewrites only the sources it touched.
Retention expiry rewrites the partition stats of every data file it
keeps, so the manifest's partitions always describe the files on disk.

Every file op goes through ``pyarrow.fs`` (``..fsutil``), so ``out_dir``
may be a plain local path or an ``s3://``-style URI; resolved filesystems
are picklable and ride into the Ray tasks of the parallel retention pass.
"""

from __future__ import annotations

import hashlib
import posixpath

import numpy as np
import pyarrow as pa
import ray
from pyarrow import fs as pafs

from ..fsutil import join_path, resolve_fs
from ..state.manifest import clear_dir, read_manifest, write_manifest
from .rollup import _key_codes, _run_heads


def _is_dir(fsys: pafs.FileSystem, path: str) -> bool:
    return fsys.get_file_info(path).type == pafs.FileType.Directory


def _ls(fsys: pafs.FileSystem, path: str) -> list[pafs.FileInfo]:
    return sorted(
        fsys.get_file_info(pafs.FileSelector(path)), key=lambda i: i.path
    )


def _tier_manifest_file(out_dir: str, tier: str) -> str:
    return join_path(out_dir, "manifests", f"{tier}.json")


def write_tier_manifest(out_dir: str, tier: str, manifest: dict) -> None:
    write_manifest(_tier_manifest_file(out_dir, tier), manifest)


def read_tier_manifest(out_dir: str, tier: str) -> dict | None:
    return read_manifest(_tier_manifest_file(out_dir, tier))


def tier_needs_build(out_dir: str, tier: str, input_fp: str, config_fp: str) -> bool:
    m = read_tier_manifest(out_dir, tier)
    return not (
        m
        and m.get("completed")
        and m.get("input_fingerprint") == input_fp
        and m.get("config_fingerprint") == config_fp
    )


def tier_data_dir(out_dir: str, tier: str) -> str:
    return join_path(out_dir, "rollup", "data", f"tier={tier}")


def _write_atomic(fsys: pafs.FileSystem, table: pa.Table, path: str) -> None:
    """Write one parquet file as tmp-then-move, so a reader never sees a
    half-written file and a rewrite replaces the old file in one step."""
    import pyarrow.parquet as pq

    tmp = path + ".tmp"
    pq.write_table(table, tmp, filesystem=fsys)
    fsys.move(tmp, path)


def partition_stats(t: pa.Table) -> dict:
    """Lineage stats of one written partition: its rows and an exact digest
    of its columns (names, types and every value, in row order), so any
    changed value, swapped row or dropped row changes the checksum, and
    the same rows give the same checksum however they are chunked."""
    h = hashlib.sha256()
    for name, col in zip(t.column_names, t.columns):
        h.update(f"{name}:{col.type}:{col.null_count};".encode())
        if pa.types.is_primitive(col.type) and not col.null_count:
            h.update(np.ascontiguousarray(col.to_numpy()))
        else:
            for v in col.to_pylist():
                b = v if isinstance(v, bytes) else repr(v).encode()
                h.update(len(b).to_bytes(8, "little") + b)
    return {"rows": len(t), "checksum": int.from_bytes(h.digest()[:6], "big")}


def _write_per_key(
    t: pa.Table, root: str, key_col: str, fname: str, keys: list[str] | None
) -> list[tuple[str, pa.Table]]:
    """One ``fname`` per key under ``root/<key_col>=<k>/``, written from a
    zero-copy slice of ``t`` (whose rows of one key must be contiguous)
    without the key column; returns the written ``(key, rows)`` pairs.
    Without ``keys`` the whole ``root`` is cleared first; with it, only
    those keys' files are rewritten and every other key's files stay as
    they are."""
    if keys is None:
        clear_dir(root)
    if not len(t):
        return []
    codes, names = _key_codes(t[key_col])
    heads = _run_heads(codes)
    if len(names) != len(heads):
        raise ValueError(f"rows of one {key_col} must be contiguous")
    body = t.drop_columns([key_col])
    fsys, froot = resolve_fs(root)
    written = []
    for k, lo, hi in zip(names.to_pylist(), heads, np.append(heads[1:], len(t))):
        if keys is not None and k not in keys:
            continue
        part = body.slice(lo, hi - lo)
        pdir = join_path(froot, f"{key_col}={k}")
        fsys.create_dir(pdir, recursive=True)
        _write_atomic(fsys, part, join_path(pdir, fname))
        written.append((k, part))
    return written


def write_tiers_local(
    tier_frames: dict[str, pa.Table],
    out_dir: str,
    input_fp: str,
    config_fp: str,
    key_col: str = "source",
    extra_manifest: dict | None = None,
    sources: list[str] | None = None,
) -> dict[str, dict]:
    """Write tiers merged on the driver (Arrow tables whose rows of one key
    are contiguous) straight to the hive layout, plus one lineage manifest
    per tier.

    Without ``sources`` each tier is replaced whole. With ``sources`` (an
    incremental append) only those sources' files are rewritten, and the
    stored manifest is updated in place: those sources' partition stats
    are replaced and every other field is kept unless ``extra_manifest``
    sets it."""
    manifests: dict[str, dict] = {}
    for name, t in tier_frames.items():
        manifest = {}
        if sources is not None:
            manifest = read_tier_manifest(out_dir, name) or {}
        stats = dict(manifest.get("partitions", {}))
        for k, part in _write_per_key(
            t, tier_data_dir(out_dir, name), key_col, "part-0000.parquet",
            sources,
        ):
            stats[k] = partition_stats(part)
        manifest.update(
            {
                "tier": name,
                "input_fingerprint": input_fp,
                "config_fingerprint": config_fp,
                "partitions": stats,
                "total_rows": int(sum(p["rows"] for p in stats.values())),
                "completed": True,
            }
        )
        if extra_manifest:
            manifest.update(extra_manifest)
        write_tier_manifest(out_dir, name, manifest)
        manifests[name] = manifest
    return manifests


def apply_retention(
    out_dir: str,
    tier: str,
    keep_us: int,
    now_us: int,
    key_col: str = "source",
) -> dict:
    """Retention expiry for one tier: drop rollup points with
    ``bucket_us < now_us - keep_us`` and record the expiry in the manifest.

    ``now_us`` is an explicit argument (no wall clock — deterministic,
    reproducible runs). Rewrite is per source-partition file and atomic
    (tmp + move); untouched partitions are not rewritten.
    """
    import pyarrow.parquet as pq

    cutoff = now_us - keep_us
    tdir = tier_data_dir(out_dir, tier)
    dropped = 0
    kept = 0
    fsys, troot = resolve_fs(tdir)
    if not _is_dir(fsys, troot):
        return {"dropped": 0, "kept": 0}
    # expire the mergeable STATE alongside the data: the public tier is
    # regenerated from state on incremental append, so a state row that
    # outlives retention would resurrect its dropped bucket
    _, sroot = resolve_fs(tier_state_dir(out_dir, tier))
    roots = [troot] + ([sroot] if _is_dir(fsys, sroot) else [])
    jobs: list[tuple[str, bool]] = []  # (fs path, counts toward data?)
    for root in roots:
        for sub in _ls(fsys, root):
            if sub.type != pafs.FileType.Directory:
                continue
            for f in _ls(fsys, sub.path):
                if f.is_file and f.path.endswith(".parquet"):
                    jobs.append((f.path, root == troot))

    def expire_file(path: str, is_data: bool) -> tuple[int, int, dict | None]:
        """Atomic per-file expiry; returns (kept, dropped, and for a data
        file the partition stats of what is left)."""
        t = pq.read_table(path, filesystem=fsys)
        n = len(t)
        mask = pa.compute.greater_equal(t["bucket_us"], pa.scalar(cutoff))
        if (pa.compute.sum(mask.cast(pa.int8())).as_py() or 0) < n:
            t = t.filter(mask)
            _write_atomic(fsys, t, path)
        return len(t), n - len(t), partition_stats(t) if is_data else None

    if len(jobs) <= 16:
        results = [expire_file(*job) for job in jobs]
    else:
        # many-partition tier: expire files as parallel Ray tasks (each
        # rewrite is atomic per file, so partial failures only leave some
        # files un-expired — rerunning converges)
        expire_remote = ray.remote(num_cpus=1)(expire_file)
        results = ray.get([expire_remote.remote(*job) for job in jobs])
    m = read_tier_manifest(out_dir, tier) or {}
    # the per-partition lineage follows the files: the data file of
    # <key_col>=<k> is that partition's rows
    stats = m.setdefault("partitions", {})
    for (path, is_data), (n_kept, n_dropped, st) in zip(jobs, results):
        if is_data:
            kept += n_kept
            dropped += n_dropped
            part = posixpath.basename(posixpath.dirname(path))
            stats[part.removeprefix(f"{key_col}=")] = st
    m.setdefault("retention", []).append(
        {"cutoff_us": cutoff, "dropped": dropped, "kept": kept}
    )
    m["total_rows"] = kept
    write_tier_manifest(out_dir, tier, m)
    return {"dropped": dropped, "kept": kept}


STATE_FILE = "state-0000.parquet"  # one per (tier, source)


def tier_state_dir(out_dir: str, tier: str) -> str:
    """Mergeable rollup STATE for continuous aggregates: the real (un-gap-
    filled) points plus their quantile-summary blobs, per source. The
    public tier data is a pure function of this state (strip qsum +
    gap-fill), so an append only has to merge delta partials into state
    rows and regenerate the affected sources' data files."""
    return join_path(out_dir, "rollup", "state", f"tier={tier}")


def write_tier_state_local(
    out_dir: str,
    tier: str,
    merged: pa.Table,
    key_col: str = "source",
    sources: list[str] | None = None,
) -> None:
    """Write per-source state files (state is rollup-point sized, so it is
    written from the driver). ``merged`` must include the ``qsum`` column
    and hold each source's rows contiguously;
    ``sources`` works as in :func:`write_tiers_local`."""
    _write_per_key(merged, tier_state_dir(out_dir, tier), key_col, STATE_FILE, sources)


def tier_state_exists(out_dir: str, tier: str) -> bool:
    fsys, sroot = resolve_fs(tier_state_dir(out_dir, tier))
    return _is_dir(fsys, sroot)


def read_tier_state(out_dir: str, tier: str):
    """All sources' state rows of ``tier`` (pandas), or None."""
    import pyarrow.dataset as pads

    fsys, sroot = resolve_fs(tier_state_dir(out_dir, tier))
    if not _is_dir(fsys, sroot):
        return None
    d = pads.dataset(sroot, partitioning="hive", filesystem=fsys)
    return d.to_table().to_pandas()
