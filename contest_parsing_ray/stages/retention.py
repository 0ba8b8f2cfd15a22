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
    out/manifests/retention.json                 {tier: cutoff_us}, the
                                                 retention watermarks

Retention is a stored watermark per tier (:func:`retention_watermarks`),
not a pass over written files: a build and an append run the same tail,
which drops the merged rows below the cutoff before it gap-fills and
writes the tiers (all sources, or the sources the append touched) and
encodes the chunks. An expired bucket never reaches a data, state or
chunk file, and each tier manifest records its ``retention_cutoff_us``.

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
way. An incremental append rewrites only the sources it touched; a
source left with no rows loses its files and its partition.

Every file op goes through ``pyarrow.fs`` (``..fsutil``), so ``out_dir``
may be a plain local path or an ``s3://``-style URI. Each file is written
by ``fsutil.write_parquet``, tmp-then-move, so a reader never sees a
half-written file; it keeps snappy and min/max statistics on the data
columns (range reads prune on ``bucket_us``) and writes the state's
``qsum`` blobs zstd-compressed with no statistics.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
from pyarrow import fs as pafs

from ..config import parse_duration_us
from ..fsutil import join_path, resolve_fs, write_parquet
from ..state.manifest import clear_dir, read_manifest, write_manifest
from .rollup import _key_codes, _run_heads


def _is_dir(fsys: pafs.FileSystem, path: str) -> bool:
    return fsys.get_file_info(path).type == pafs.FileType.Directory


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


def retention_watermarks(
    out_dir: str,
    tiers: tuple[str, ...],
    keep: tuple[str | None, ...] | None,
    now_us: int | None,
    resume: bool,
) -> dict[str, int]:
    """Each tier's retention cutoff: ``max(stored cutoff, now_us - keep)``.

    The stored cutoffs are ``manifests/retention.json`` (``{tier:
    cutoff_us}``), read and written only here; a changed set is written
    before the caller writes any tier file it governs. A cutoff never moves
    back while ``resume``; without a clock the stored one holds;
    ``resume=False`` starts with none stored."""
    path = join_path(out_dir, "manifests", "retention.json")
    on_disk = read_manifest(path) or {}
    marks = dict(on_disk) if resume else {}
    if now_us is not None:
        for name, spec in zip(tiers, keep or ()):
            if spec is not None:
                cut = now_us - parse_duration_us(spec)
                marks[name] = max(cut, marks.get(name, cut))
    if marks != on_disk:
        write_manifest(path, marks)
    return marks


def tier_data_dir(out_dir: str, tier: str) -> str:
    return join_path(out_dir, "rollup", "data", f"tier={tier}")


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
    those keys' files are rewritten (a key of ``keys`` with no rows in
    ``t`` loses its directory) and every other key's files stay as they
    are."""
    if keys is None:
        clear_dir(root)
    codes, names = _key_codes(t[key_col])
    heads = _run_heads(codes)
    if len(names) != len(heads):
        raise ValueError(f"rows of one {key_col} must be contiguous")
    body = t.drop_columns([key_col])
    written = []
    for k, lo, hi in zip(names.to_pylist(), heads, np.append(heads[1:], len(t))):
        if keys is not None and k not in keys:
            continue
        part = body.slice(lo, hi - lo)
        write_parquet(part, join_path(root, f"{key_col}={k}", fname))
        written.append((k, part))
    fsys, froot = resolve_fs(root)
    for k in set(keys or ()) - {k for k, _ in written}:
        pdir = join_path(froot, f"{key_col}={k}")
        if _is_dir(fsys, pdir):
            fsys.delete_dir(pdir)
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
    are replaced (a source left with no rows loses its partition) and
    every other field is kept unless ``extra_manifest`` sets it."""
    manifests: dict[str, dict] = {}
    for name, t in tier_frames.items():
        manifest = {}
        if sources is not None:
            manifest = read_tier_manifest(out_dir, name) or {}
        stats = {
            k: v
            for k, v in manifest.get("partitions", {}).items()
            if k not in (sources or ())
        }
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
