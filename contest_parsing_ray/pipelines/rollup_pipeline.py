"""Flagship pipeline: sequences → dedup (+payload) → deduped table +
tiered rollups → gap-fill → compressed chunks → Parquet with lineage.

The Ray-Data re-expression of the reference's ``JoinManager().process()``
lifecycle (``JoinManager.py:32-57``): discovery → parse/normalize → bucket →
join/aggregate per (entity, bucket) → feature tail → outputs, but lazy and
streaming end to end (SURVEY §3.4). Execution plan (each [exec] is one
streaming Ray execution; the count is kept minimal because per-execution
fixed costs are the serial fraction that caps scaling efficiency):

  [exec 1]  pruned pass over doc_id → duplicated-key set (broadcast as an
            exact Arrow array, or a Bloom filter at 100 TB scale).
  [exec 2]  merge-on-read dedup: ONE streaming decode of the payload
            computes token checksums + duplicate flags and writes the
            ~30 B/row stats sidecar; duplicate losers become per-file
            deletion vectors. The payload is never re-encoded or
            re-written — at 100 TB this skips rewriting ~99 TB of
            untouched bytes (see stages/deletion_vector.py). The same
            scan emits the rollup partials for ALL tiers (+ per-group
            checksum sums). A standalone deduped copy, when a consumer
            needs one, is ``read_deduped_dv(<out>/deduped).write_parquet``.
            (--no-tokens: exact hash dedup of the pruned read →
            out/deduped/data/, hive by source.)
  [exec 3]  materialize the scan-fused partials — or, when they are
            absent or stale, recompute them from the pruned sidecar
            (source, n_tok, event_time_us, token_ck). Token-integrity
            totals come off the materialized partials (driver-side
            wrap-sum, no extra pass).
  [exec 4]  tier merge: the partials become tier-tagged rows (tier,
            source, bucket_us, stats, qsum) and merge on that one key, one
            _merge_partition call per tier. At or below DRIVER_MERGE_BYTES
            of partial state this runs in the driver; above it, through ONE
            raw task exchange on (tier, source, bucket_us). Either way each
            group merges once, so the tiers do not depend on the partition
            count. The merged points (one per (source, bucket), orders of
            magnitude below the partials) are gathered; the mergeable
            state, gap-fill and the hive write (tier, source) run
            driver-side.
  [exec 5]  compress: one driver-side delta-of-delta/Gorilla pass over the
            tiers → out/chunks/tier=<t>/.

Incremental append (continuous aggregate): when only new input files
appeared, the delta's partials go through the same tier merge after the
stored state of the sources they touch, and only those sources' state,
data and chunks are rewritten.

Resume: tiers whose manifest matches the (input, config) fingerprints are
skipped; the deduped table is reused when its own manifest matches.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..config import PipelineConfig
from ..fsutil import file_infos
from ..sources.ingest import EVENTS_SCHEMA, read_sequences
from ..stages import _shuffle
from ..stages.dedup import dedup
from ..stages.retention import (
    read_tier_manifest,
    tier_needs_build,
    write_tier_manifest,
)
from ..stages.rollup import PartialRollup, _merge_partition
from ..state.manifest import (
    clear_dir,
    fingerprint_config,
    fingerprint_input,
    input_file_fingerprints,
)


def _fused_partials_fp(cfg: PipelineConfig) -> str:
    """Fingerprint of the rollup config the scan-fused partials depend on —
    must cover everything that changes PartialRollup's output."""
    return fingerprint_config(
        {
            "tiers": dict(zip(cfg.tiers, cfg.tier_widths_us)),
            "cap": cfg.quantile_cap,
            "mode": "nearest",
            "value": "n_tok",
            "ck": cfg.ingest_tokens,
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


def _merge_tagged(t: pa.Table, cap: int) -> pd.DataFrame:
    """Final points plus mergeable state (``qsum``) of tier-tagged rows:
    one ``_merge_partition`` call per tier. The rows are first sorted on
    their stats and blob, so each group merges its rows in one canonical
    order: the float sums and the blob bytes depend only on which rows the
    group holds, not on the order the partials arrived in (Ray Data does
    not keep block order) or on the partition count."""
    df = t.sort_by([(c, "ascending") for c in _TAGGED.names[3:]]).to_pandas()
    outs = [
        _merge_partition(g, "source", "bucket_us", cap, 0.95, True).assign(
            tier=name
        )
        for name, g in df.groupby("tier", sort=False)
    ]
    if not outs:
        return _merge_partition(df, "source", "bucket_us", cap, 0.95, True).assign(
            tier=pd.Series([], dtype=object)
        )
    return pd.concat(outs, ignore_index=True)


def _merge_tiers(
    partials: ray.data.Dataset,
    tiers: list[str],
    cap: int,
    metrics: dict,
    prior: pa.Table | None = None,
) -> pd.DataFrame:
    """The one tier merge of the build and the append.

    Merges tier-tagged ``prior`` rows (an append's stored state) and the
    materialized ``partials``, tier-tagged, on ``TIER_KEY``. At or below
    ``DRIVER_MERGE_BYTES`` this runs in the driver as one partition; above
    it the partial blocks are tagged in tasks and merged per partition of
    one raw task exchange. Returns the merged points with their state,
    sorted by ``TIER_KEY``, and records the decision in
    ``metrics["tier_merge"]``.
    """
    prior = prior if prior is not None else _TAGGED.empty_table()
    blocks = partials.to_arrow_refs()
    n_rows = partials.count() + len(prior)
    n_bytes = (partials.size_bytes() or 0) + prior.nbytes
    if n_bytes <= DRIVER_MERGE_BYTES:
        tagged = pa.concat_tables(
            [prior, *(_tier_tagged(b, tiers) for b in ray.get(blocks))]
        )
        merged = _merge_tagged(tagged, cap)
        n_parts = 1
    else:
        tag = ray.remote(num_cpus=1)(_tier_tagged)
        refs = _shuffle.raw_hash_exchange(
            [
                (
                    ray.data.from_arrow_refs(
                        [ray.put(prior), *(tag.remote(b, tiers) for b in blocks)]
                    ),
                    TIER_KEY,
                )
            ],
            lambda s, t: _merge_tagged(t, cap),
            input_bytes=n_bytes,
        )
        n_parts = len(refs)
        merged = pd.concat(ray.get(refs), ignore_index=True)
    metrics["tier_merge"] = {
        "partitions": n_parts,
        "partial_rows": int(n_rows),
        "partial_bytes": int(n_bytes),
    }
    return merged.sort_values(TIER_KEY, kind="stable", ignore_index=True)


def _write_merged(
    merged: pd.DataFrame,
    tiers: dict,
    cfg: PipelineConfig,
    with_gapfill: bool,
    input_fp: str,
    config_fp: str,
    extras: dict[str, dict],
    sources: list[str] | None = None,
) -> dict[str, dict]:
    """Write each tier's state and its (gap-filled) public data from the
    merged frame; ``sources`` limits the rewrite to those sources (the
    append). Returns the tier manifests."""
    from ..stages.gapfill import fill_group_pandas
    from ..stages.retention import write_tier_state_local, write_tiers_local

    manifests = {}
    for name, width in tiers.items():
        m = merged[merged["tier"] == name].drop(columns=["tier"])
        write_tier_state_local(cfg.out_dir, name, m, sources=sources)
        data = m.drop(columns=["qsum"])
        if with_gapfill and len(data):
            data = pd.concat(
                [
                    fill_group_pandas(g, width, cfg.gapfill_mode)
                    for _, g in data.groupby("source", sort=False)
                ],
                ignore_index=True,
            )
        manifests.update(
            write_tiers_local(
                {name: data}, cfg.out_dir, input_fp, config_fp,
                extra_manifest=extras[name], sources=sources,
            )
        )
    return manifests


def _token_totals(partials: ray.data.Dataset) -> dict[str, int]:
    """Per-source token checksum: the wrapping uint64 sum of the partials'
    ``ck_v`` column."""
    schema = partials.schema()
    if schema is None or "ck_v" not in schema.names:  # no partial rows
        return {}
    df = partials.select_columns(["source", "ck_v"]).to_pandas()
    with np.errstate(over="ignore"):
        return {
            str(src): int(np.sum(ck.to_numpy().view(np.uint64), dtype=np.uint64))
            for src, ck in df.groupby("source")["ck_v"]
        }


def _build_deduped(
    input_path: str, cfg: PipelineConfig, dedup_dir: str,
    stage_seconds: dict | None = None,
) -> None:
    """[exec 1+2] deduped table: deletion vectors + stats sidecar (with
    scan-fused partials), or a pruned hash-deduped table under --no-tokens."""
    t0 = time.perf_counter()
    if cfg.ingest_tokens:
        # merge-on-read: deletion vectors + stats sidecar, no payload
        # rewrite (see stages/deletion_vector.py module docstring)
        from ..stages.deletion_vector import build_deduped_dv

        clear_dir(dedup_dir)
        build_deduped_dv(
            input_path,
            dedup_dir,
            key="doc_id",
            keep=cfg.dedup_keep,
            stage_seconds=stage_seconds,
            partial_fn=_fused_partial_fn(cfg),
            partials_fingerprint=_fused_partials_fp(cfg),
        )
        if stage_seconds is not None:
            stage_seconds["dedup_exec_write"] = time.perf_counter() - t0
        return
    events = read_sequences(input_path, with_tokens=False)
    events = dedup(events, key="doc_id", keep=cfg.dedup_keep)
    if stage_seconds is not None:
        stage_seconds["dedup_plan_probe"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    clear_dir(dedup_dir)
    events.write_parquet(
        os.path.join(dedup_dir, "data"), partition_cols=["source"]
    )
    if stage_seconds is not None:
        stage_seconds["dedup_exec_write"] = time.perf_counter() - t0


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

    input_fp = fingerprint_input(input_path)
    config_fp = fingerprint_config(
        {
            "tiers": cfg.tiers,
            "dedup_keep": cfg.dedup_keep,
            "quantile_cap": cfg.quantile_cap,
            "ingest_tokens": cfg.ingest_tokens,
            "gapfill_mode": cfg.gapfill_mode if with_gapfill else None,
            "chunk_points": cfg.chunk_points if with_compression else None,
        }
    )
    dedup_fp = fingerprint_config(
        {
            "in": input_fp,
            "keep": cfg.dedup_keep,
            "tokens": cfg.ingest_tokens,
        }
    )

    tiers = dict(zip(cfg.tiers, cfg.tier_widths_us))
    todo = {
        name: w
        for name, w in tiers.items()
        if not resume or tier_needs_build(cfg.out_dir, name, input_fp, config_fp)
    }
    metrics["tiers_skipped_by_resume"] = sorted(set(tiers) - set(todo))
    if not todo:
        metrics["total_seconds"] = time.perf_counter() - t_start
        return metrics

    # incremental append (continuous aggregate): when the prior build's
    # files are all unchanged and only NEW files appeared, merge delta
    # partials into the stored tier STATE instead of rebuilding
    if resume and not metrics["tiers_skipped_by_resume"]:
        appended = _try_incremental_append(
            input_path, cfg, tiers, with_gapfill, with_compression,
            input_fp, config_fp, metrics,
        )
        if appended is not None:
            return appended

    # [exec 1-2] deduped table (skipped when a matching one already exists)
    dedup_dir = os.path.join(cfg.out_dir, "deduped")
    t0 = time.perf_counter()
    prior = read_tier_manifest(cfg.out_dir, "deduped")
    if not resume or not (
        prior and prior.get("completed") and prior.get("input_fingerprint") == dedup_fp
    ):
        _build_deduped(input_path, cfg, dedup_dir, metrics["stage_seconds"])
        write_tier_manifest(
            cfg.out_dir,
            "deduped",
            {
                "tier": "deduped",
                "input_fingerprint": dedup_fp,
                "config_fingerprint": dedup_fp,
                "partitions": {},
                "completed": True,
            },
        )
    metrics["stage_seconds"]["dedup_ingest"] = time.perf_counter() - t0

    # [exec 3] partials over pruned columns of the deduped table. With
    # tokens the stats sidecar IS that pruned projection (~30 B/row — the
    # payload never re-enters the pipeline).
    t0 = time.perf_counter()
    pruned_cols = ["source", "n_tok", "event_time_us"] + (
        ["token_ck"] if cfg.ingest_tokens else []
    )
    fused = None
    if cfg.ingest_tokens:
        from ..stages.deletion_vector import read_fused_partials

        # scan-fused partials: the dedup scan already computed the
        # per-file partial-rollup rows (clean files) and the decide stage
        # the survivors' — exec 3 collapses to a small read, no second
        # pass over the stats projection
        fused = read_fused_partials(dedup_dir, _fused_partials_fp(cfg))
    if fused is not None:
        partials = fused.materialize()
    else:
        if cfg.ingest_tokens:
            from ..stages.deletion_vector import read_sidecar

            deduped = read_sidecar(dedup_dir, columns=pruned_cols)
        else:
            data_dir = os.path.join(dedup_dir, "data")
            if any(i.path.endswith(".parquet") for i in file_infos(data_dir)[1]):
                deduped = ray.data.read_parquet(data_dir, columns=pruned_cols)
            else:
                # a zero-row input writes no deduped file
                deduped = ray.data.from_arrow(
                    EVENTS_SCHEMA.empty_table().select(pruned_cols)
                )
        partials = deduped.map_batches(
            PartialRollup(
                todo,
                "n_tok",
                "source",
                "event_time_us",
                cfg.quantile_cap,
                "nearest",
                checksum_col="token_ck" if cfg.ingest_tokens else None,
            ),
            batch_format="pyarrow",
            batch_size=262144,  # big batches -> real per-batch combining
            # (the default 1024-row batches emit nearly one partial per
            # input row). The input here is the ~30 B/row pruned projection
            # (~8 MB/batch), so batches can be 8x the round-2 32k:
            # partial-row count out of this stage ~= batches x sources x
            # buckets-per-batch, and the tier exchange downstream moves
            # proportionally fewer rows (measured at 30M rows: ~9M -> ~1.2M
            # partials).
        ).materialize()
    token_totals = _token_totals(partials) if cfg.ingest_tokens else {}
    metrics["stage_seconds"]["partials"] = time.perf_counter() - t0

    # [exec 4] one merge for every tier (driver-side or one exchange, see
    # _merge_tiers), then state, gap-fill and the hive write from the driver
    t0 = time.perf_counter()
    merged = _merge_tiers(partials, list(todo), cfg.quantile_cap, metrics)
    extra = {
        "token_checksums": token_totals,
        "input_files": input_file_fingerprints(input_path),
    }
    manifests = _write_merged(
        merged, todo, cfg, with_gapfill, input_fp, config_fp,
        {name: extra for name in todo},
    )
    for name, manifest in manifests.items():
        metrics["tiers"][name] = {
            "points": manifest["total_rows"],
            "partitions": len(manifest["partitions"]),
        }
    metrics["stage_seconds"]["tiers_write"] = time.perf_counter() - t0

    # [exec 5] chunks are a pure function of the (compact) tiers: encode
    # them driver-side
    if with_compression and todo:
        t0 = time.perf_counter()
        _recompress_tiers(cfg, todo)
        metrics["stage_seconds"]["compress"] = time.perf_counter() - t0

    # retention expiry (only with an explicit clock — deterministic)
    if retention_now_us is not None and cfg.retention_keep:
        from ..config import parse_duration_us
        from ..stages.retention import apply_retention

        t0 = time.perf_counter()
        for name, keep_spec in zip(cfg.tiers, cfg.retention_keep):
            if keep_spec is None or name not in metrics["tiers"]:
                continue
            res = apply_retention(
                cfg.out_dir, name, parse_duration_us(keep_spec), retention_now_us
            )
            metrics["tiers"][name]["retention_dropped"] = res["dropped"]
        metrics["stage_seconds"]["retention"] = time.perf_counter() - t0

    metrics["total_seconds"] = time.perf_counter() - t_start
    return metrics


def _try_incremental_append(
    input_path: str,
    cfg: PipelineConfig,
    tiers: dict,
    with_gapfill: bool,
    with_compression: bool,
    input_fp: str,
    config_fp: str,
    metrics: dict,
) -> dict | None:
    """Continuous-aggregate append: when the prior build's input files are
    all unchanged and only NEW files appeared, process ONLY the delta —
    extend the DV/sidecar build, roll the new rows into partials, merge
    them into the stored per-tier STATE (the qsum blobs make every
    aggregate mergeable), and regenerate data files for the affected
    sources only. Returns metrics on success, None when not applicable
    (caller falls through to the full build).

    Applicability: token ingest (deletion vectors), keep='first' (stable winners —
    keep='none' is retroactive and rebuilds), unchanged config, all prior
    files byte-stable, tier state present. Runtime ∝ delta plus one
    doc_id-only probe pass over the corpus. Exactness: identical to a
    from-scratch rebuild while merged value counts stay under
    quantile_cap; beyond it both paths are deterministic compactions
    (documented divergence in the last ulp of p95).
    """
    from ..stages.deletion_vector import append_deduped_dv, sidecar_dir
    from ..stages.retention import read_tier_state, tier_state_exists

    if not (cfg.ingest_tokens and cfg.dedup_keep == "first"):
        return None
    current_files = input_file_fingerprints(input_path)
    manifests = {}
    for name in tiers:
        m = read_tier_manifest(cfg.out_dir, name)
        if not (
            m
            and m.get("completed")
            and m.get("config_fingerprint") == config_fp
            and m.get("input_files")
        ):
            return None
        if not tier_state_exists(cfg.out_dir, name):
            return None
        manifests[name] = m
    prior = manifests[next(iter(tiers))]["input_files"]
    if not set(prior).issubset(current_files):
        return None  # files removed/renamed -> rebuild
    if any(current_files[p] != fp for p, fp in prior.items()):
        return None  # a prior file changed in place -> rebuild
    new_files = sorted(set(current_files) - set(prior))
    if not new_files:
        return None  # nothing new; plain resume handles the no-op

    t_start = time.perf_counter()
    dedup_dir = os.path.join(cfg.out_dir, "deduped")
    t0 = time.perf_counter()
    app = append_deduped_dv(
        input_path, dedup_dir, keep="first",
        stage_seconds=metrics["stage_seconds"],
    )
    metrics["stage_seconds"]["append_dedup"] = time.perf_counter() - t0
    sidecar_files = [
        os.path.join(sidecar_dir(dedup_dir), f)
        for f in app.get("appended_sidecar", [])
    ]
    metrics["appended_input_files"] = new_files
    if not sidecar_files:
        metrics["total_seconds"] = time.perf_counter() - t_start
        return metrics

    # delta partials (the appended sidecar rows only)
    t0 = time.perf_counter()
    pruned_cols = ["source", "n_tok", "event_time_us", "token_ck"]
    partials = ray.data.read_parquet(sidecar_files, columns=pruned_cols).map_batches(
        _fused_partial_fn(cfg),
        batch_format="pyarrow",
        batch_size=262144,
    )
    # the blob bytes of the merged state follow the order of rows within
    # each partial, so the delta batches must not depend on which read task
    # finishes first
    partials.context.execution_options.preserve_order = True
    partials = partials.materialize()
    delta_ck = _token_totals(partials)
    metrics["stage_seconds"]["append_partials"] = time.perf_counter() - t0

    # the same merge as the build, over the stored state of the affected
    # sources followed by the delta partials; then rewrite those sources
    t0 = time.perf_counter()
    affected_sources = sorted(delta_ck)
    state = []
    for name in tiers:
        st = read_tier_state(cfg.out_dir, name, affected_sources)
        if len(st):
            state.append(
                pa.Table.from_pandas(
                    st.assign(tier=name)[_TAGGED.names],
                    schema=_TAGGED,
                    preserve_index=False,
                )
            )
    merged = _merge_tiers(
        partials, list(tiers), cfg.quantile_cap, metrics,
        prior=pa.concat_tables(state) if state else None,
    )
    extras = {}
    for name, man in manifests.items():
        # per-source token checksum totals: wrap-add the delta
        totals = dict(man.get("token_checksums", {}))
        with np.errstate(over="ignore"):
            for src, d in delta_ck.items():
                totals[src] = int(
                    np.uint64(int(totals.get(src, 0)))
                    + np.uint64(d & 0xFFFFFFFFFFFFFFFF)
                )
        extras[name] = {
            "token_checksums": totals,
            "input_files": current_files,
            "appends": man.get("appends", [])
            + [{"new_files": new_files, "sources": affected_sources}],
        }
    written = _write_merged(
        merged, tiers, cfg, with_gapfill, input_fp, config_fp, extras,
        sources=affected_sources,
    )
    for name, man in written.items():
        metrics["tiers"][name] = {
            "points": man["total_rows"],
            "partitions": len(man["partitions"]),
            "appended_sources": affected_sources,
        }
    metrics["stage_seconds"]["append_merge_write"] = time.perf_counter() - t0

    if with_compression:
        # chunks are a pure function of the (small) tiers; regenerate them
        t0 = time.perf_counter()
        _recompress_tiers(cfg, tiers)
        metrics["stage_seconds"]["append_compress"] = time.perf_counter() - t0
    metrics["incremental_append"] = True
    metrics["total_seconds"] = time.perf_counter() - t_start
    return metrics


def _recompress_tiers(cfg: PipelineConfig, tiers: dict) -> None:
    """Driver-side chunk rebuild over the (compact) tier data — the compress
    stage of the build and of the append."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from ..stages.compress import encode_chunk
    from ..stages.retention import tier_data_dir

    for name in tiers:
        # per tier: a partial resume rebuilds only its own tiers' chunks
        tdir = os.path.join(cfg.out_dir, "chunks", f"tier={name}")
        clear_dir(tdir)
        data_dir = tier_data_dir(cfg.out_dir, name)
        if not os.path.isdir(data_dir):  # a tier with no points
            continue
        df = pads.dataset(data_dir, partitioning="hive").to_table().to_pandas()
        rows = []
        for src, g in df.groupby("source", sort=False):
            g = g.sort_values("bucket_us", kind="stable")
            ts = g["bucket_us"].to_numpy(dtype=np.int64)
            vals = g["sum_v"].to_numpy(dtype=np.float64)
            for ci, lo in enumerate(range(0, len(ts), cfg.chunk_points)):
                c = encode_chunk(
                    ts[lo : lo + cfg.chunk_points],
                    vals[lo : lo + cfg.chunk_points],
                )
                c["source"] = src
                c["chunk_id"] = np.int64(ci)
                rows.append(c)
        os.makedirs(tdir, exist_ok=True)
        pq.write_table(
            pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False),
            os.path.join(tdir, "chunks-0000.parquet"),
        )
