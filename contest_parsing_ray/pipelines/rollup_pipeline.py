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
  [exec 4]  per-tier merge + gap-fill chains, UNIONed and written
            hive-partitioned (tier, source) in one execution.
  [exec 5]  compress: read tiers → one delta-of-delta/Gorilla pass →
            out/chunks/tier=<t>/.

Resume: tiers whose manifest matches the (input, config) fingerprints are
skipped; the deduped table is reused when its own manifest matches.
"""

from __future__ import annotations

import os
import time

import numpy as np
import ray.data

from ..config import PipelineConfig
from ..sources.ingest import read_sequences
from ..stages._shuffle import hash_partitioned_map
from ..stages.compress import compress_series
from ..stages.dedup import dedup
from ..stages.gapfill import gapfill
from ..stages.retention import (
    read_tier,
    read_tier_manifest,
    tier_needs_build,
    write_tier_manifest,
    write_tiers,
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
            local_threshold=cfg.local_merge_threshold,
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
            deduped = ray.data.read_parquet(
                os.path.join(dedup_dir, "data"), columns=pruned_cols
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
    token_totals: dict[str, int] = {}
    if cfg.ingest_tokens:
        pdf = partials.select_columns(["source", "ck_v"]).to_pandas()
        with np.errstate(over="ignore"):
            totals = pdf.groupby("source")["ck_v"].agg(
                lambda s: int(np.sum(s.to_numpy().view(np.uint64), dtype=np.uint64))
            )
        token_totals = {str(k): int(v) for k, v in totals.items()}
    metrics["stage_seconds"]["partials"] = time.perf_counter() - t0

    # [exec 4] merge + gapfill + write for every tier.
    # ADAPTIVE: the partial state after per-batch combining is usually tiny
    # (~#sources x #buckets x #blocks rows) — far below what justifies a
    # distributed shuffle whose fixed cost is seconds. Below the threshold
    # the merge/gap-fill/write run driver-side (the combiner-tree collapse
    # every real aggregation engine does on its coordinator); above it, the
    # distributed hash-partitioned path runs. Both produce identical
    # layouts and are equality-tested against each other.
    t0 = time.perf_counter()
    n_partials = partials.count()
    extra = {
        "token_checksums": token_totals,
        "input_files": input_file_fingerprints(input_path),
    }
    # the driver-local combiner collapse is gated on BYTES as well as rows:
    # partial ROWS stopped tracking driver work once the partials stage
    # moved to 256k batches — each partial row carries a ~8x bigger qsum
    # blob, and a 112k-row / 90 MB partial state measured 17-43 s in the
    # single-threaded driver merge vs ~3 s through the distributed exchange
    partials_bytes = partials.size_bytes() or 0
    if (
        n_partials <= cfg.local_merge_threshold
        and partials_bytes <= cfg.local_merge_bytes
    ):
        import pandas as pd

        from ..stages.retention import write_tier_state_local

        pdf_all = partials.to_pandas()
        frames = {}
        for name, width in todo.items():
            bcol = f"bucket_{name}"
            # keep_summary: the qsum blobs become the tier's mergeable
            # STATE (continuous aggregate) so later appends can combine
            # delta partials without a from-scratch rebuild
            merged = _merge_partition(
                pdf_all, "source", bcol, cfg.quantile_cap, 0.95, True
            )
            write_tier_state_local(cfg.out_dir, name, merged)
            merged = merged.drop(columns=["qsum"])
            if with_gapfill:
                from ..stages.gapfill import fill_group_pandas

                merged = pd.concat(
                    [
                        fill_group_pandas(g, width, cfg.gapfill_mode)
                        for _, g in merged.groupby("source", sort=False)
                    ],
                    ignore_index=True,
                )
            frames[name] = merged
        from ..stages.retention import write_tiers_local

        manifests = write_tiers_local(
            frames, cfg.out_dir, input_fp, config_fp, extra_manifest=extra
        )
    elif n_partials <= cfg.streaming_write_threshold:
        # raw-task exchange, not Ray's sort-based groupby shuffle: the
        # partial state is small (~#sources x #buckets x #blocks rows) but
        # the sort shuffle's per-partition overhead measured 50.9 s at 10M
        # rows where the same movement via split/reduce tasks takes ~4 s
        # (see _shuffle.raw_hash_exchange). All tiers' exchanges are
        # launched before any gather so the reduce waves overlap. The
        # MERGED points are bounded by #(source x bucket) — orders of
        # magnitude below the partials — so gap-fill + hive write run
        # driver-side (write_tiers_local), which saves two more
        # distributed executions of pure fixed cost per run.
        import pandas as pd

        from ..stages._shuffle import raw_hash_exchange
        from ..stages.gapfill import fill_group_pandas
        from ..stages.retention import write_tier_state_local, write_tiers_local

        # ONE fused exchange for ALL tiers, partitioned by the finest
        # tier's key: the finest tier's groups are complete per partition
        # (final points), while coarser tiers come out as CONSOLIDATED
        # mergeable slices (same schema: stats + qsum) that the driver
        # combines with one more vectorized _merge_partition over ~P x
        # #coarse_groups rows. Replaces one exchange per tier — exchange
        # fixed cost was the dominant flat term in tiers_write.
        tier_names = list(todo)
        finest = tier_names[
            int(np.argmin([todo[n] for n in tier_names]))
        ]

        def fused_merge(t: "pa.Table") -> pd.DataFrame:
            df = t.to_pandas()
            outs = []
            for name in tier_names:
                m = _merge_partition(
                    df, "source", f"bucket_{name}", cfg.quantile_cap, 0.95,
                    True,
                )
                m.insert(0, "tier", name)
                outs.append(m)
            return pd.concat(outs, ignore_index=True)

        refs = raw_hash_exchange(
            partials,
            ["source", f"bucket_{finest}"],
            fused_merge,
            input_bytes=partials_bytes,
        )
        parts = [t.to_pandas() for t in ray.get(refs) if t is not None]
        metrics["stage_seconds"]["tiers_exchange"] = time.perf_counter() - t0
        allm = (
            pd.concat([p for p in parts if len(p)], ignore_index=True)
            if parts
            else pd.DataFrame()
        )
        frames = {}
        for name, width in todo.items():
            sl = allm[allm["tier"] == name].drop(columns=["tier"]) if len(allm) else allm
            if name != finest and len(sl):
                # coarse tiers: combine the per-partition slices (same
                # mergeable schema) — final points above the slice cap are
                # compact-of-compacts: deterministic, exact below cap
                sl = _merge_partition(
                    sl, "source", "bucket_us", cfg.quantile_cap, 0.95, True
                )
            merged = sl
            if len(merged):
                write_tier_state_local(cfg.out_dir, name, merged)
                merged = merged.drop(columns=["qsum"])
            if with_gapfill and len(merged):
                merged = pd.concat(
                    [
                        fill_group_pandas(g, width, cfg.gapfill_mode)
                        for _, g in merged.groupby("source", sort=False)
                    ],
                    ignore_index=True,
                )
            frames[name] = merged
        manifests = write_tiers_local(
            frames, cfg.out_dir, input_fp, config_fp, extra_manifest=extra
        )
    else:
        # 100 TB path: rollup points themselves are too many to pass the
        # driver — fully streaming merge + gap-fill + ONE union hive write
        tier_dss = {}
        for name, width in todo.items():
            bcol = f"bucket_{name}"
            tier_ds = hash_partitioned_map(
                partials,
                ["source", bcol],
                lambda df, _b=bcol: _merge_partition(
                    df, "source", _b, cfg.quantile_cap, 0.95, False
                ),
                batch_format="pandas",
            )
            if with_gapfill:
                tier_ds = gapfill(tier_ds, width, mode=cfg.gapfill_mode)
            tier_dss[name] = tier_ds
        manifests = write_tiers(
            tier_dss, cfg.out_dir, input_fp, config_fp, extra_manifest=extra
        )
    for name, manifest in manifests.items():
        metrics["tiers"][name] = {
            "points": manifest["total_rows"],
            "partitions": len(manifest["partitions"]),
        }
    metrics["stage_seconds"]["tiers_write"] = time.perf_counter() - t0

    # [exec 5] one compression pass over all tiers (adaptive like the merge)
    if with_compression and todo:
        t0 = time.perf_counter()
        import pyarrow as pa

        total_points = sum(m["total_rows"] for m in manifests.values())
        if total_points <= cfg.local_merge_threshold:
            # driver-side encode: rollup points are tiny relative to events
            _recompress_tiers(cfg, todo)
        else:
            chunk_dir = os.path.join(cfg.out_dir, "chunks")
            clear_dir(chunk_dir)

            def tag(b: "pa.Table", _n: str) -> "pa.Table":
                # hive path discovery may already materialize the tier column
                if "tier" in b.column_names:
                    return b
                return b.append_column(
                    "tier", pa.array([_n] * len(b), type=pa.string())
                )

            tagged = None
            for name in todo:
                t = read_tier(cfg.out_dir, name).map_batches(
                    lambda b, _n=name: tag(b, _n), batch_format="pyarrow"
                )
                tagged = t if tagged is None else tagged.union(t)
            chunks = compress_series(
                tagged,
                value_col="sum_v",
                key_col="source",
                ts_col="bucket_us",
                chunk_points=cfg.chunk_points,
                extra_group_cols=("tier",),
            )
            chunks.write_parquet(chunk_dir, partition_cols=["tier"])
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
    import time

    import pandas as pd
    import pyarrow as pa

    from ..stages.deletion_vector import append_deduped_dv, sidecar_dir
    from ..stages.gapfill import fill_group_pandas
    from ..stages.retention import (
        read_tier_manifest,
        read_tier_state,
        tier_data_dir,
        tier_state_dir,
        write_tier_manifest,
    )

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
        if not os.path.isdir(tier_state_dir(cfg.out_dir, name)):
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
    delta = ray.data.read_parquet(sidecar_files, columns=pruned_cols)
    pdf = delta.map_batches(
        PartialRollup(
            dict(tiers), "n_tok", "source", "event_time_us",
            cfg.quantile_cap, "nearest", checksum_col="token_ck",
        ),
        batch_format="pyarrow",
        batch_size=262144,
    ).to_pandas()
    metrics["stage_seconds"]["append_partials"] = time.perf_counter() - t0

    # per-source token checksum totals: wrap-add the delta into manifests
    with np.errstate(over="ignore"):
        delta_ck = {
            str(k): int(v)
            for k, v in pdf.groupby("source")["ck_v"]
            .agg(lambda s: int(np.sum(s.to_numpy().view(np.uint64), dtype=np.uint64)))
            .items()
        }

    t0 = time.perf_counter()
    import pyarrow.parquet as pq

    for name, width in tiers.items():
        merged_delta = _merge_partition(
            pdf, "source", f"bucket_{name}", cfg.quantile_cap, 0.95, True
        )
        affected_sources = sorted(set(merged_delta["source"]))
        state = read_tier_state(cfg.out_dir, name, affected_sources)
        combined = _merge_partition(
            pd.concat([state, merged_delta], ignore_index=True),
            "source", "bucket_us", cfg.quantile_cap, 0.95, True,
        )
        # rewrite state + regenerate data for the affected sources only
        man = manifests[name]
        for src, g in combined.groupby("source", sort=False):
            sdir = os.path.join(tier_state_dir(cfg.out_dir, name), f"source={src}")
            os.makedirs(sdir, exist_ok=True)
            tmp = os.path.join(sdir, "state-0000.parquet.tmp")
            pq.write_table(
                pa.Table.from_pandas(
                    g.drop(columns=["source"]), preserve_index=False
                ),
                tmp,
            )
            os.replace(tmp, os.path.join(sdir, "state-0000.parquet"))
            data = g.drop(columns=["qsum"])
            if with_gapfill:
                data = fill_group_pandas(data, width, cfg.gapfill_mode)
            ddir = os.path.join(tier_data_dir(cfg.out_dir, name), f"source={src}")
            os.makedirs(ddir, exist_ok=True)
            out = data.drop(columns=["source"])
            tmp = os.path.join(ddir, "part-0000.parquet.tmp")
            pq.write_table(
                pa.Table.from_pandas(out, preserve_index=False), tmp
            )
            os.replace(tmp, os.path.join(ddir, "part-0000.parquet"))
            num = data.select_dtypes(include=[np.number]).to_numpy(
                dtype=np.float64
            )
            ck = int(np.abs(np.nan_to_num(num)).sum() * 1000) & 0xFFFFFFFFFFFF
            man["partitions"][str(src)] = {
                "rows": int(len(data)), "checksum": ck
            }
        with np.errstate(over="ignore"):
            for src, d in delta_ck.items():
                old = int(man.get("token_checksums", {}).get(src, 0))
                man.setdefault("token_checksums", {})[src] = int(
                    np.uint64(old) + np.uint64(d & 0xFFFFFFFFFFFFFFFF)
                )
        man["total_rows"] = int(
            sum(p["rows"] for p in man["partitions"].values())
        )
        man["input_fingerprint"] = input_fp
        man["input_files"] = current_files
        man.setdefault("appends", []).append(
            {"new_files": new_files, "sources": affected_sources}
        )
        write_tier_manifest(cfg.out_dir, name, man)
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
    """Driver-side chunk rebuild over the (compact) tier data — the full
    build's local compress branch and the append path."""
    import pandas as pd
    import pyarrow as pa_mod
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from ..stages.compress import encode_chunk
    from ..stages.retention import tier_data_dir

    chunk_dir = os.path.join(cfg.out_dir, "chunks")
    clear_dir(chunk_dir)
    for name in tiers:
        df = (
            pads.dataset(tier_data_dir(cfg.out_dir, name), partitioning="hive")
            .to_table()
            .to_pandas()
        )
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
        tdir = os.path.join(chunk_dir, f"tier={name}")
        os.makedirs(tdir, exist_ok=True)
        pq.write_table(
            pa_mod.Table.from_pandas(pd.DataFrame(rows), preserve_index=False),
            os.path.join(tdir, "chunks-0000.parquet"),
        )
