"""Job entrypoint for ``ray job submit`` (and plain ``python -m``).

The north-rule deployment shape: the rollup job runs on a fixed-size
multi-node Ray cluster via

    ray job submit --working-dir . -- \
        python -m contest_parsing_ray --input s3://bucket/sequences \
            --out /mnt/shared/rollups --tiers 1m,5m,1h

``--out`` must be a local path (on a cluster, a shared filesystem mounted
at the same path on every node): the deletion vectors and rollup partials
are written with local-path calls, and a URI ``--out`` raises.

Inside a submitted job ``RAY_ADDRESS`` points at the cluster, so the
plain ``ray.init()`` below attaches to it; run standalone the same call
starts a local session. This module is the ONLY library-side Ray-session
owner, and only when executed as a script (reference analog: the
``__main__``-guarded driver in ``main.py:12-31``).

The pipeline itself is resumable (``--resume``, default on): finished
(tier, partition) outputs recorded in the per-partition lineage manifests
are skipped, so re-submitting the same job after a node loss or
preemption completes only the missing partitions.
"""

from __future__ import annotations

import argparse
import json
import sys


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m contest_parsing_ray",
        description="Ray-Data-native time-series rollup/downsample/retention "
        "engine over pre-tokenized sequence tables",
    )
    p.add_argument("--input", required=True, help="Parquet dir of sequences "
                   "(doc_id, tokens, n_tok, source, ...)")
    p.add_argument("--out", required=True, help="output root (tiered Parquet); "
                   "a local or shared-filesystem path, not a URI")
    p.add_argument("--tiers", default="1m,5m,1h",
                   help="comma-separated rounding grids (e.g. 30s,5m,1h)")
    p.add_argument("--dedup-keep", choices=["first", "none"], default="first")
    p.add_argument("--gapfill", choices=["locf", "linear", "off"],
                   default="locf")
    p.add_argument("--no-compression", action="store_true",
                   help="skip Gorilla/delta-of-delta chunk encoding")
    p.add_argument("--no-resume", action="store_true",
                   help="recompute everything, ignoring lineage manifests")
    p.add_argument("--no-tokens", action="store_true",
                   help="rollup-only mode: the dedup scan does not read "
                   "or checksum the token payload")
    p.add_argument("--quantile-cap", type=int, default=4096)
    p.add_argument("--chunk-points", type=int, default=4096)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    import ray

    if not ray.is_initialized():
        # Under `ray job submit`, RAY_ADDRESS targets the cluster; standalone
        # this starts a local session.
        ray.init(include_dashboard=False)

    from .config import PipelineConfig
    from .pipelines.rollup_pipeline import run_rollup_pipeline

    cfg = PipelineConfig(
        tiers=tuple(t.strip() for t in args.tiers.split(",") if t.strip()),
        dedup_keep=args.dedup_keep,
        gapfill_mode=args.gapfill if args.gapfill != "off" else "locf",
        quantile_cap=args.quantile_cap,
        chunk_points=args.chunk_points,
        out_dir=args.out,
        ingest_tokens=not args.no_tokens,
    )
    metrics = run_rollup_pipeline(
        args.input,
        cfg,
        with_gapfill=args.gapfill != "off",
        with_compression=not args.no_compression,
        resume=not args.no_resume,
    )
    json.dump(metrics, sys.stdout, default=str)
    print()
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
