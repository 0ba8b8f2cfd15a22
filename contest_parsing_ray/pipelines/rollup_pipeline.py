"""Flagship pipeline: sequences → dedup (+payload) → deduped table +
tiered rollups → gap-fill → compressed chunks → Parquet with lineage.

The Ray-Data re-expression of the reference's ``JoinManager().process()``
lifecycle (``JoinManager.py:32-57``): discovery → parse/normalize → bucket →
join/aggregate per (entity, bucket) → feature tail → outputs, but lazy and
streaming end to end (SURVEY §3.4). Execution plan (Ray Data executions
are kept to the steps that stream work, because each one's fixed cost —
and, for the first in a session, Ray Data's service actors — is the
serial fraction that caps scaling efficiency):

  [step 1]  doc_id-only probe in plain Ray tasks → duplicated-key set
            (broadcast as an exact array, or a Bloom filter at 100 TB
            scale).
  [step 2]  merge-on-read dedup: ONE decode of the payload, one plain
            Ray task per file group, computes token checksums +
            duplicate flags; duplicate losers become per-file deletion
            vectors. The payload is never re-encoded or re-written — at
            100 TB this skips rewriting ~99 TB of untouched bytes (see
            stages/deletion_vector.py). The same scan, and the decide over
            the flagged rows its tasks return, emit the rollup partials
            for ALL tiers (+ per-group checksum sums): the only per-row
            output of the dedup. A standalone deduped copy, when a
            consumer needs one, is
            ``read_deduped_dv(<out>/deduped).write_parquet``.
            (--no-tokens: the same dedup and scan without the ``tokens``
            column — no checksum, a null ``token_ck``, no ``ck_v``.)
  [step 3]  the scan-fused partials, sized from their parquet footers. At
            or below DRIVER_MERGE_BYTES of partial state the files are
            read with pyarrow in the driver (no Ray Data execution), and
            the token-integrity totals come off that same table
            (driver-side wrap-sum, no extra pass).
  [step 4]  tier merge: the partials become tier-tagged rows (tier,
            source, bucket_us, stats, qsum) and merge on that one key, one
            _merge_partition call per tier (integer-keyed numpy:
            segmented reductions, one union of the groups' sorted
            (value, count) pairs, p95 off their cumulative counts, one
            blob buffer). At or below
            DRIVER_MERGE_BYTES this runs in the driver; above it, the
            partial files or blocks stream through ONE raw task exchange
            on (tier, source, bucket_us). Either way each group merges
            once, so the tiers do not depend on the partition count. The
            merged points (one per (source, bucket), orders of magnitude
            below the partials) are gathered as one Arrow table sorted by
            (tier, source, bucket). The tail is columnar and driver-side:
            per tier, the merged rows below its retention cutoff are
            dropped, then ONE vectorized gap-fill over all its sources
            (stages/gapfill.py), then the state and data files of each
            (tier, source), written tmp-then-move from zero-copy slices of
            that tier's rows, with the lineage stats computed from the
            same slices. An append reads the stored state of the sources
            it touches straight into the tier-tagged schema, one parquet
            file per (tier, source). A small default build therefore runs
            NO Ray Data execution: the probe and the scan are plain Ray
            tasks, the rest runs in the driver.
  [step 5]  compress: one driver-side delta-of-delta/Gorilla pass over
            the written tiers (each tier's ``bucket_us`` and ``sum_v``
            only, read once) → out/chunks/tier=<t>/.

One path for a build, a reuse and an append. The input is listed once
(per-file size:mtime; the input fingerprint and the sorted parquet file
list come from that listing), and the run decides once what to do with
the deduped table, in this order: reuse it on resume, when
``deduped/dv_manifest.json`` records the fingerprint of this input, keep
policy and rollup config (the only record of whether it is current — so
an append interrupted after its dedup finished resumes here, rebuilding
the tiers from all partials); else, when only new input files appeared
under a prior build of this config, append them (continuous aggregate,
in either token mode); else build it. The run record names the decision
(``deduped_table``: ``reused``, ``appended`` or ``built``). The append's
scan of the new files and its decide write the delta's partials as the
build's do (plain Ray tasks, no Ray Data execution) and record the new
input's fingerprint when done. Then one tail runs for all three: partials
→ token totals → tier merge (after the stored state of the sources an
append touches) → retention cut → tier write (of those sources only, for
an append) → compress. When new input is found but the append cannot be
taken, the run record says why (``append_fallback``).

Resume: tiers whose manifest matches the (input, config) fingerprints and
the tier's retention watermark (``stages/retention.py``) are skipped; the
others are rebuilt from the reused (or rebuilt) partials. A tier rebuilt
only because its watermark moved is listed in
``tiers_recut_by_retention``; an append whose watermark moved rewrites
every stored source of that tier.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from ..config import PipelineConfig
from ..fsutil import write_parquet
from ..stages import _shuffle, deletion_vector
from ..stages.retention import (
    read_tier_manifest,
    retention_watermarks,
    tier_needs_build,
)
from ..stages.rollup import PartialRollup, _key_codes, _merge_partition, _run_heads
from ..state import sketches
from ..state.manifest import (
    clear_dir,
    fingerprint_config,
    fingerprint_input,
    input_file_fingerprints,
    parquet_input_files,
)


def _fused_partials_fp(cfg: PipelineConfig, input_fp: str) -> str:
    """Fingerprint of what the deduped table and its scan-fused partials
    cover: the input, the keep policy and everything that changes
    PartialRollup's output. ``dv_manifest.json`` records it, and it alone
    decides whether the deduped table is current."""
    return fingerprint_config(
        {
            "in": input_fp,
            "keep": cfg.dedup_keep,
            "tiers": dict(zip(cfg.tiers, cfg.tier_widths_us)),
            "cap": cfg.quantile_cap,
            "mode": "nearest",
            "value": "n_tok",
            "ck": cfg.ingest_tokens,
            "qsum": sketches.PAIR_FORMAT,
        }
    )


def _fused_partial_fn(cfg: PipelineConfig) -> PartialRollup:
    """PartialRollup instance for the scan-fused partials."""
    return PartialRollup(
        dict(zip(cfg.tiers, cfg.tier_widths_us)),
        "n_tok",
        "source",
        "event_time_us",
        cfg.quantile_cap,
        "nearest",
        checksum_col="token_ck" if cfg.ingest_tokens else None,
    )


# The tier merge runs in the driver process at or below this many bytes of
# partial state, and per partition of one raw task exchange above it. The
# gate is on bytes, not rows: each partial row carries a quantile blob, and
# a 112k-row / 90 MB partial state measured 17-43 s in the single-threaded
# driver merge against ~3 s through the exchange.
DRIVER_MERGE_BYTES = 24 << 20

# Every tier merges on this one key, so one exchange serves all tiers and
# each (tier, source, bucket) group is merged exactly once.
TIER_KEY = ["tier", "source", "bucket_us"]
_TAGGED = pa.schema(
    [
        ("tier", pa.string()),
        ("source", pa.string()),
        ("bucket_us", pa.int64()),
        ("cnt", pa.int64()),
        ("sum_v", pa.float64()),
        ("min_v", pa.float64()),
        ("max_v", pa.float64()),
        ("qsum", pa.binary()),
    ]
)


def _tier_tagged(t: pa.Table, tiers: list[str]) -> pa.Table:
    """Partial rows (one ``bucket_<tier>`` column per tier) as tier-tagged
    rows in the ``_TAGGED`` schema: one row per partial and tier."""
    if not t.num_rows:  # an empty block may lack the partial columns
        return _TAGGED.empty_table()
    return pa.concat_tables(
        [
            pa.table(
                [
                    pa.repeat(name, len(t)),
                    t["source"],
                    t[f"bucket_{name}"],
                    *(t[c] for c in _TAGGED.names[3:]),
                ],
                schema=_TAGGED,
            )
            for name in tiers
        ]
    )


# the merged points with their mergeable state, tier-tagged
_MERGED = pa.schema([*list(_TAGGED)[:-1], ("p95_v", pa.float64()), _TAGGED.field("qsum")])


def _merge_tagged(t: pa.Table, cap: int) -> pa.Table:
    """Final points plus mergeable state (``qsum``) of tier-tagged rows, in
    the ``_MERGED`` schema: one ``_merge_partition`` call per tier, whose
    output depends only on which rows each group holds (see
    :func:`stages.rollup._merge_partition`)."""
    tier = t["tier"]
    outs = [_MERGED.empty_table()]
    for name in pc.unique(tier).to_pylist():
        df = _merge_partition(
            t.filter(pc.equal(tier, name)), "source", "bucket_us", cap, 0.95, True
        )
        pts = pa.Table.from_pandas(
            df, schema=_MERGED.remove(0), preserve_index=False
        )
        outs.append(pts.add_column(0, "tier", pa.repeat(name, len(pts))))
    return pa.concat_tables(outs)


class _Partials:
    """The partial files of a build or an append, sized from their
    footers. The rows are read into the driver, with no Ray Data
    execution, only when the tier merge runs there (at or below
    ``DRIVER_MERGE_BYTES``); above it the files stream into the
    exchange."""

    def __init__(self, parts: list, rows: int, nbytes: int):
        self.parts = parts
        self.rows = rows
        self.nbytes = nbytes
        self._table = None

    @classmethod
    def from_files(cls, files: list[str]) -> "_Partials":
        metas = [pq.read_metadata(f) for f in files]
        return cls(
            files,
            sum(m.num_rows for m in metas),
            sum(_arrow_bytes(m) for m in metas),
        )

    def read(self, columns: list[str] | None = None) -> pa.Table:
        """The rows (``columns`` of them) as one driver-side table; below
        the gate the whole table is read once and kept for the merge."""
        if self._table is None and self.nbytes <= DRIVER_MERGE_BYTES:
            self._table = self._read(None)
        if self._table is not None:
            return self._table.select(columns) if columns else self._table
        return self._read(columns)

    def _read(self, columns: list[str] | None) -> pa.Table:
        tables = [pq.read_table(p, columns=columns) for p in self.parts]
        return pa.concat_tables(tables) if tables else pa.table({})


def _arrow_bytes(meta: pq.FileMetaData) -> int:
    """In-memory size of a parquet file's rows, estimated from its footer:
    fixed-width columns as rows x width, the others as their uncompressed
    column-chunk bytes (a dictionary-encoded string column reads low)."""
    types = meta.schema.to_arrow_schema().types
    total = 0
    for r in range(meta.num_row_groups):
        rg = meta.row_group(r)
        for c, t in enumerate(types):
            total += (
                rg.num_rows * t.bit_width // 8
                if pa.types.is_primitive(t)
                else rg.column(c).total_uncompressed_size
            )
    return total


def _tag_part(path: str, tiers: list[str]) -> pa.Table:
    return _tier_tagged(pq.read_table(path), tiers)


def _merge_tiers(
    partials: _Partials,
    tiers: list[str],
    cap: int,
    metrics: dict,
    prior: pa.Table | None = None,
) -> pa.Table:
    """The one tier merge of the build and the append.

    Merges tier-tagged ``prior`` rows (an append's stored state) and the
    ``partials``, tier-tagged, on ``TIER_KEY``. At or below
    ``DRIVER_MERGE_BYTES`` this runs in the driver as one partition; above
    it the parts are tagged in tasks and merged per partition of one raw
    task exchange. Returns the merged points with their state, sorted by
    ``TIER_KEY``, and records the decision in ``metrics["tier_merge"]``.
    """
    prior = prior if prior is not None else _TAGGED.empty_table()
    n_rows = partials.rows + len(prior)
    n_bytes = partials.nbytes + prior.nbytes
    if n_bytes <= DRIVER_MERGE_BYTES:
        tagged = pa.concat_tables([prior, _tier_tagged(partials.read(), tiers)])
        merged = _merge_tagged(tagged, cap)
        n_parts = 1
    else:
        tag = ray.remote(num_cpus=1)(_tag_part)
        tagged = [ray.put(prior), *(tag.remote(p, tiers) for p in partials.parts)]
        refs = _shuffle.raw_hash_exchange(
            [(ray.data.from_arrow_refs(tagged), TIER_KEY)],
            lambda s, t: _merge_tagged(t, cap),
            input_bytes=n_bytes,
        )
        n_parts = len(refs)
        merged = pa.concat_tables([_MERGED.empty_table(), *ray.get(refs)])
    metrics["tier_merge"] = {
        "partitions": n_parts,
        "partial_rows": int(n_rows),
        "partial_bytes": int(n_bytes),
    }
    return merged.sort_by([(c, "ascending") for c in TIER_KEY])


def _write_merged(
    merged: pa.Table,
    tiers: dict,
    cfg: PipelineConfig,
    with_gapfill: bool,
    input_fp: str,
    config_fp: str,
    extras: dict[str, dict],
    sources: dict[str, list[str]] | None = None,
) -> dict[str, dict]:
    """Write each tier's state and its (gap-filled) public data from the
    merged table, sorted by ``TIER_KEY``: per tier one fill call over all
    its sources, then one file per (tier, source) each for the state and
    the data, sliced from that tier's rows. ``sources`` limits each tier's
    rewrite to its listed sources (the append). Returns the tier
    manifests."""
    from ..stages.gapfill import fill_group_pandas
    from ..stages.retention import write_tier_state_local, write_tiers_local

    manifests = {}
    for name, width in tiers.items():
        m = merged.filter(pc.equal(merged["tier"], name)).drop_columns(["tier"])
        keys = sources[name] if sources is not None else None
        write_tier_state_local(cfg.out_dir, name, m, sources=keys)
        data = m.drop_columns(["qsum"])
        if with_gapfill:
            data = fill_group_pandas(data, width, cfg.gapfill_mode)
        manifests.update(
            write_tiers_local(
                {name: data}, cfg.out_dir, input_fp, config_fp,
                extra_manifest=extras[name], sources=keys,
            )
        )
    return manifests


def _cut(merged: pa.Table, cutoffs: dict[str, int]) -> tuple[pa.Table, dict[str, int]]:
    """The merged rows without those below their tier's retention cutoff,
    and the number of rows dropped per tier with a cutoff."""
    expired = np.zeros(len(merged), dtype=bool)
    dropped = {}
    for name, cutoff in cutoffs.items():
        below = pc.and_(
            pc.equal(merged["tier"], name), pc.less(merged["bucket_us"], cutoff)
        ).to_numpy(zero_copy_only=False)
        dropped[name] = int(below.sum())
        expired |= below
    return (merged.filter(~expired) if expired.any() else merged), dropped


def _written_below(out_dir: str, tier: str, cutoff: int | None) -> bool:
    """Whether the stored files of ``tier`` were written below its
    retention cutoff (or without one)."""
    if cutoff is None:
        return False
    written = (read_tier_manifest(out_dir, tier) or {}).get("retention_cutoff_us")
    return written is None or written < cutoff


def _token_totals(partials: _Partials) -> dict[str, int]:
    """Per-source token checksum: the wrapping uint64 sum of the partials'
    ``ck_v`` column."""
    if not partials.rows:
        return {}
    df = partials.read(["source", "ck_v"]).to_pandas()
    with np.errstate(over="ignore"):
        return {
            str(src): int(np.sum(ck.to_numpy().view(np.uint64), dtype=np.uint64))
            for src, ck in df.groupby("source")["ck_v"]
        }


def _stored_state(out_dir: str, sources: dict[str, list[str]]) -> pa.Table | None:
    """The stored state of each tier's ``sources``, tier-tagged: the prior
    rows an append merges its partials into, one file read per (tier,
    source)."""
    from ..stages.retention import STATE_FILE, tier_state_dir

    state = []
    for name, keys in sources.items():
        for src in keys:
            path = os.path.join(tier_state_dir(out_dir, name), f"source={src}", STATE_FILE)
            if os.path.exists(path):
                t = pq.ParquetFile(path).read(columns=_TAGGED.names[2:])
                tag = [pa.repeat(name, len(t)), pa.repeat(src, len(t))]
                state.append(pa.table([*tag, *t.columns], schema=_TAGGED))
    return pa.concat_tables(state) if state else None


def _append_plan(
    cfg: PipelineConfig,
    tiers: dict,
    config_fp: str,
    current_files: dict[str, str],
    parquet_files: list[str],
    metrics: dict,
) -> dict | None:
    """Whether this run is a continuous-aggregate append: the prior build's
    input files are all unchanged and only NEW files appeared. Returns the
    prior tier manifests, the new files and the new parquet files among
    them, or None for a build of the deduped table. Asked only when
    ``dv_manifest.json`` does not already cover this input and config.

    Applicability, in either token mode: a prior build of the same config,
    keep='first' (stable winners — keep='none' is retroactive and
    rebuilds), all prior files byte-stable, tier state present for every
    tier whose manifest lists partitions, and a keep='first'
    deletion-vector build (``dv_manifest.json``) of the same token mode
    over exactly the prior parquet files.
    Runtime ∝ delta plus one doc_id-only read of the prior files, which
    matches them against the new keys by string (no full-corpus probe).
    Exactness: the tier data, state and chunks equal a from-scratch
    rebuild's byte for byte, at any quantile_cap: a group's quantile
    state is a function of its multiset of values, also when it is
    gridded above the cap (``state/sketches.py``).

    When the input changed under a prior build of the same config but the
    append is not taken, ``metrics`` records ``incremental_append: False``
    and the first failed condition as ``append_fallback``: ``keep_none``,
    ``prior_file_removed``, ``prior_file_changed``, ``no_state`` or
    ``dv_manifest`` (missing, built in the other token mode — an out_dir
    whose ``--no-tokens`` build predates deletion vectors has none — or
    over other files than the tier manifests record, as after an append
    whose dedup finished before more input arrived).
    """
    from ..stages.retention import tier_state_exists

    manifests = {name: read_tier_manifest(cfg.out_dir, name) for name in tiers}
    if not all(
        m and m.get("completed") and m.get("config_fingerprint") == config_fp
        for m in manifests.values()
    ):
        return None  # no prior build of this config: a plain build
    prior = manifests[next(iter(tiers))].get("input_files") or {}
    new_files = sorted(set(current_files) - set(prior))
    dv_manifest = deletion_vector.read_dv_manifest(
        os.path.join(cfg.out_dir, "deduped")
    )
    if cfg.dedup_keep != "first":
        fallback = "keep_none"
    elif not set(prior).issubset(current_files):
        fallback = "prior_file_removed"
    elif any(current_files[p] != fp for p, fp in prior.items()):
        fallback = "prior_file_changed"
    elif not new_files:
        return None  # nothing new; plain resume handles the no-op
    elif not prior or not all(
        tier_state_exists(cfg.out_dir, n)
        for n, m in manifests.items()
        if m.get("partitions")  # a tier retention emptied stores no state
    ):
        fallback = "no_state"
    elif (
        dv_manifest is None
        # a manifest without the key predates --no-tokens DV builds: tokens
        or dv_manifest.get("tokens", True) != cfg.ingest_tokens
        or dv_manifest.get("keep") != "first"
        or set(dv_manifest.get("files", ()))
        != {f for f in parquet_files if f in prior}
    ):
        fallback = "dv_manifest"
    else:
        fallback = None
    metrics["incremental_append"] = fallback is None
    if fallback is not None:
        metrics["append_fallback"] = fallback
        return None
    return {
        "manifests": manifests,
        "new_files": new_files,
        "new_parquet": [f for f in parquet_files if f not in prior],
    }


def run_rollup_pipeline(
    input_path: str,
    cfg: PipelineConfig | None = None,
    with_gapfill: bool = True,
    with_compression: bool = True,
    resume: bool = True,
    retention_now_us: int | None = None,
) -> dict:
    """Run the flagship pipeline; returns a metrics dict (rows ingested,
    points per tier, wall-clock per stage — the engine's analog of the
    reference's @timer prints, ``util/timedecorator.py:1-16``)."""
    cfg = cfg or PipelineConfig()
    t_start = time.perf_counter()
    metrics: dict = {"input": input_path, "tiers": {}, "stage_seconds": {}}

    # the one listing of the input: its fingerprint, the parquet files the
    # dedup reads, and the per-file fingerprints an append compares
    current_files = input_file_fingerprints(input_path)
    input_fp = fingerprint_input(input_path, current_files)
    config_fp = fingerprint_config(
        {
            "tiers": cfg.tiers,
            "dedup_keep": cfg.dedup_keep,
            "quantile_cap": cfg.quantile_cap,
            "ingest_tokens": cfg.ingest_tokens,
            "gapfill_mode": cfg.gapfill_mode if with_gapfill else None,
            "chunk_points": cfg.chunk_points if with_compression else None,
            "qsum": sketches.PAIR_FORMAT,
        }
    )

    tiers = dict(zip(cfg.tiers, cfg.tier_widths_us))
    # retention watermarks, stored before any tier file they govern; a tier
    # written below its watermark is rebuilt, also when it is current
    cutoffs = retention_watermarks(
        cfg.out_dir, cfg.tiers, cfg.retention_keep, retention_now_us, resume
    )
    moved = {n for n in tiers if _written_below(cfg.out_dir, n, cutoffs.get(n))}
    current = {
        n for n in tiers
        if resume and not tier_needs_build(cfg.out_dir, n, input_fp, config_fp)
    }
    todo = {n: w for n, w in tiers.items() if n not in current or n in moved}
    metrics["tiers_skipped_by_resume"] = sorted(set(tiers) - set(todo))
    metrics["tiers_recut_by_retention"] = sorted(current & moved)
    if not todo:
        metrics["total_seconds"] = time.perf_counter() - t_start
        return metrics

    # [step 1-2] merge-on-read deduped table: deletion vectors + scan-fused
    # partials, no payload rewrite (see stages/deletion_vector.py). Decided
    # once, in this order: reuse it when dv_manifest.json records this
    # input and config (also after an append interrupted past its dedup);
    # else append the new files when _append_plan finds only new input
    # under a prior build (the tail then merges its partials into the
    # stored tier STATE); else build it
    files = parquet_input_files(input_path, current_files)
    dedup_dir = os.path.join(cfg.out_dir, "deduped")
    partials_fp = _fused_partials_fp(cfg, input_fp)
    t0 = time.perf_counter()
    partial_files = (
        deletion_vector.fused_partial_files(dedup_dir, partials_fp)
        if resume
        else None
    )
    append = None
    if partial_files is not None:
        metrics["deduped_table"] = "reused"
    else:
        if resume and not metrics["tiers_skipped_by_resume"]:
            append = _append_plan(
                cfg, tiers, config_fp, current_files, files, metrics
            )
        if append is not None:
            metrics["deduped_table"] = "appended"
            metrics["appended_input_files"] = append["new_files"]
            partial_files = deletion_vector.append_deduped_dv(
                append["new_parquet"], dedup_dir, _fused_partial_fn(cfg),
                partials_fp, stage_seconds=metrics["stage_seconds"],
            )["appended_partials"]
        else:
            metrics["deduped_table"] = "built"
            clear_dir(dedup_dir)
            deletion_vector.build_deduped_dv(
                input_path, files, dedup_dir, _fused_partial_fn(cfg),
                partials_fp, keep=cfg.dedup_keep,
                stage_seconds=metrics["stage_seconds"], tokens=cfg.ingest_tokens,
            )
            partial_files = deletion_vector.fused_partial_files(
                dedup_dir, partials_fp
            )
    metrics["stage_seconds"]["dedup_ingest"] = time.perf_counter() - t0

    # [step 3] partials: the dedup scan computed the per-file partial-rollup
    # rows (clean rows) and the decide stage the winners' — step 3
    # collapses to sizing them from their footers (an append's: the new
    # survivors', none when no new row survived)
    t0 = time.perf_counter()
    partials = _Partials.from_files(partial_files)
    token_totals = _token_totals(partials) if cfg.ingest_tokens else {}
    metrics["stage_seconds"]["partials"] = time.perf_counter() - t0

    # [step 4] one merge for every tier (driver-side or one exchange, see
    # _merge_tiers), the retention cut, then state, gap-fill and the hive
    # write from the driver. An append merges the stored state of the
    # sources its partials touch and rewrites only those sources (every
    # stored source of a tier whose watermark moved)
    t0 = time.perf_counter()
    touched = sources = prior = None
    if append is not None:
        touched = sorted(
            pc.unique(partials.read(["source"])["source"]).to_pylist()
            if partials.rows
            else []
        )
        sources = {
            n: sorted(set(touched).union(
                append["manifests"][n]["partitions"] if n in moved else ()
            ))
            for n in todo
        }
        prior = _stored_state(cfg.out_dir, sources)
    merged = _merge_tiers(
        partials, list(todo), cfg.quantile_cap, metrics, prior=prior
    )
    merged, dropped = _cut(merged, {n: c for n, c in cutoffs.items() if n in todo})
    extras = {}
    for name in todo:
        stored = append["manifests"][name] if append is not None else {}
        # per-source token checksum totals: wrap-add onto the stored ones
        totals = dict(stored.get("token_checksums", {}))
        with np.errstate(over="ignore"):
            for src, d in token_totals.items():
                totals[src] = int(np.uint64(int(totals.get(src, 0))) + np.uint64(d))
        extras[name] = {"token_checksums": totals, "input_files": current_files}
        if name in cutoffs:
            extras[name]["retention_cutoff_us"] = cutoffs[name]
        if append is not None:
            extras[name]["appends"] = stored.get("appends", []) + [
                {"new_files": append["new_files"], "sources": touched}
            ]
    manifests = _write_merged(
        merged, todo, cfg, with_gapfill, input_fp, config_fp, extras,
        sources=sources,
    )
    for name, manifest in manifests.items():
        metrics["tiers"][name] = {
            "points": manifest["total_rows"],
            "partitions": len(manifest["partitions"]),
        }
        if touched is not None:
            metrics["tiers"][name]["appended_sources"] = touched
        if name in dropped:
            metrics["tiers"][name]["retention_cutoff_us"] = cutoffs[name]
            metrics["tiers"][name]["retention_dropped"] = dropped[name]
    metrics["stage_seconds"]["tiers_write"] = time.perf_counter() - t0

    # [step 5] chunks are a pure function of the (compact) tiers: encode
    # them driver-side
    if with_compression:
        t0 = time.perf_counter()
        _recompress_tiers(cfg, todo)
        metrics["stage_seconds"]["compress"] = time.perf_counter() - t0

    metrics["total_seconds"] = time.perf_counter() - t_start
    return metrics


def _recompress_tiers(cfg: PipelineConfig, tiers: dict) -> None:
    """Driver-side chunk rebuild over the (compact) tier data — the compress
    stage of the build and of the append. Each tier's ``bucket_us`` and
    ``sum_v`` are read once; every source's series is encoded in the order
    the sources first appear in that read, by bucket."""
    import pyarrow.dataset as pads

    from ..stages.compress import encode_chunk
    from ..stages.retention import tier_data_dir

    step = cfg.chunk_points
    for name in tiers:
        # per tier: a partial resume rebuilds only its own tiers' chunks
        tdir = os.path.join(cfg.out_dir, "chunks", f"tier={name}")
        clear_dir(tdir)
        data_dir = tier_data_dir(cfg.out_dir, name)
        if not os.path.isdir(data_dir) or not os.listdir(data_dir):
            continue  # a tier with no points
        t = pads.dataset(data_dir, partitioning="hive").to_table(
            columns=["source", "bucket_us", "sum_v"]
        )
        codes, keys = _key_codes(t["source"])
        ts = t["bucket_us"].to_numpy()
        order = np.lexsort((ts, codes))
        ts = ts[order].astype(np.int64, copy=False)
        vals = t["sum_v"].to_numpy()[order].astype(np.float64, copy=False)
        heads = _run_heads(codes[order])
        rows = []
        for src, lo, hi in zip(keys.to_pylist(), heads, np.append(heads[1:], len(ts))):
            for ci, c0 in enumerate(range(lo, hi, step)):
                c1 = min(c0 + step, hi)
                c = encode_chunk(ts[c0:c1], vals[c0:c1])
                c["source"] = src
                c["chunk_id"] = np.int64(ci)
                rows.append(c)
        write_parquet(
            pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False),
            os.path.join(tdir, "chunks-0000.parquet"),
        )
