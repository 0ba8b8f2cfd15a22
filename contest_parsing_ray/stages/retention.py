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
each written tmp-then-move, with the per-partition stats computed from the
frame being written. The mergeable tier STATE (``rollup/state/``) is
written the same way. An incremental append rewrites only the sources it
touched.

Every file op goes through ``pyarrow.fs`` (``..fsutil``), so ``out_dir``
may be a plain local path or an ``s3://``-style URI; resolved filesystems
are picklable and ride into the Ray tasks of the parallel retention pass.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
from pyarrow import fs as pafs

from ..fsutil import join_path, resolve_fs
from ..state.manifest import clear_dir, read_manifest, write_manifest


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


def _write_per_key(
    df, root: str, key_col: str, fname: str, keys: list[str] | None
) -> list:
    """One ``fname`` per key under ``root/<key_col>=<k>/``; returns the
    written ``(key, group)`` pairs. Without ``keys`` the whole ``root`` is
    cleared first; with it, only those keys' files are rewritten and every
    other key's files stay as they are."""
    if keys is None:
        clear_dir(root)
    else:
        df = df[df[key_col].isin(keys)]
    fsys, froot = resolve_fs(root)
    groups = list(df.groupby(key_col, sort=False))
    for k, g in groups:
        pdir = join_path(froot, f"{key_col}={k}")
        fsys.create_dir(pdir, recursive=True)
        _write_atomic(
            fsys,
            pa.Table.from_pandas(g.drop(columns=[key_col]), preserve_index=False),
            join_path(pdir, fname),
        )
    return groups


def write_tiers_local(
    tier_frames: dict,
    out_dir: str,
    input_fp: str,
    config_fp: str,
    key_col: str = "source",
    extra_manifest: dict | None = None,
    sources: list[str] | None = None,
) -> dict[str, dict]:
    """Write tiers merged on the driver (pandas) straight to the hive
    layout with pyarrow, plus one lineage manifest per tier.

    Without ``sources`` each tier is replaced whole. With ``sources`` (an
    incremental append) only those sources' files are rewritten, and the
    stored manifest is updated in place: those sources' partition stats
    are replaced and every other field is kept unless ``extra_manifest``
    sets it."""
    manifests: dict[str, dict] = {}
    for name, df in tier_frames.items():
        manifest = {}
        if sources is not None:
            manifest = read_tier_manifest(out_dir, name) or {}
        stats = dict(manifest.get("partitions", {}))
        for k, g in _write_per_key(
            df, tier_data_dir(out_dir, name), key_col, "part-0000.parquet",
            sources,
        ):
            num = g.select_dtypes(include=[np.number]).to_numpy(dtype=np.float64)
            ck = int(np.abs(np.nan_to_num(num)).sum() * 1000) & 0xFFFFFFFFFFFF
            stats[str(k)] = {"rows": int(len(g)), "checksum": ck}
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

    def expire_file(path: str) -> tuple[int, int]:
        """Atomic per-file expiry; returns (kept, dropped)."""
        t = pq.read_table(path, filesystem=fsys)
        mask = pa.compute.greater_equal(t["bucket_us"], pa.scalar(cutoff))
        n_keep = pa.compute.sum(mask.cast(pa.int8())).as_py() or 0
        if n_keep == len(t):
            return len(t), 0
        filtered = t.filter(mask)
        _write_atomic(fsys, filtered, path)
        return len(filtered), len(t) - len(filtered)

    if len(jobs) <= 16:
        results = [expire_file(p) for p, _ in jobs]
    else:
        # many-partition tier: expire files as parallel Ray tasks (each
        # rewrite is atomic per file, so partial failures only leave some
        # files un-expired — rerunning converges)
        expire_remote = ray.remote(num_cpus=1)(expire_file)
        results = ray.get([expire_remote.remote(p) for p, _ in jobs])
    for (path, is_data), (n_kept, n_dropped) in zip(jobs, results):
        if is_data:
            kept += n_kept
            dropped += n_dropped
    m = read_tier_manifest(out_dir, tier) or {}
    m.setdefault("retention", []).append(
        {"cutoff_us": cutoff, "dropped": dropped, "kept": kept}
    )
    m["total_rows"] = kept
    write_tier_manifest(out_dir, tier, m)
    return {"dropped": dropped, "kept": kept}


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
    merged,
    key_col: str = "source",
    sources: list[str] | None = None,
) -> None:
    """Write per-source state files (state is rollup-point sized, so it is
    written from the driver). ``merged`` must include the ``qsum`` column;
    ``sources`` works as in :func:`write_tiers_local`."""
    _write_per_key(
        merged, tier_state_dir(out_dir, tier), key_col, "state-0000.parquet",
        sources,
    )


def tier_state_exists(out_dir: str, tier: str) -> bool:
    fsys, sroot = resolve_fs(tier_state_dir(out_dir, tier))
    return _is_dir(fsys, sroot)


def read_tier_state(out_dir: str, tier: str, sources: list[str] | None = None):
    """State rows (pandas) for the given sources (None = all)."""
    import pandas as pd
    import pyarrow.dataset as pads

    sdir = tier_state_dir(out_dir, tier)
    fsys, sroot = resolve_fs(sdir)
    if not _is_dir(fsys, sroot):
        return None
    if sources is None:
        d = pads.dataset(sroot, partitioning="hive", filesystem=fsys)
        return d.to_table().to_pandas()
    frames = []
    for s in sources:
        pdir = join_path(sroot, f"source={s}")
        if _is_dir(fsys, pdir):
            f = pads.dataset(pdir, filesystem=fsys).to_table().to_pandas()
            f["source"] = s
            frames.append(f)
    return pd.concat(frames, ignore_index=True) if frames else pd.DataFrame()
