"""Benchmark harness.

Plain run: ONE JSON line with the headline metric (flagship rollup pipeline
wall-clock over a deterministic synthetic sequences table sized to the SF)
plus per-query seconds over $GRAFT_SF_DIR.

    GRAFT_SF_DIR   input dir (default /root/testdata/sf0.1)
    RAY_GRAFT_CPUS parallelism (default 32)

--scaling: run the headline pipeline in FRESH processes at two CPU levels
(default 4 vs 16 — see run_scaling's docstring for why not 8-vs-32 on this
host) on the same input, interleaved min-of-N per level, and report both
throughputs plus scaling efficiency = (t_lo / t_hi) / (hi / lo), a
machine-calibration-normalized variant, and a per-stage efficiency table.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# Bench sink: tmpfs when available. /tmp is ONE shared virtio disk that
# does not grow with num_cpus, while the real target (a 4N-node cluster)
# has 4N node disks — so the sink goes to /dev/shm as the per-node-disk
# stand-in unless BENCH_OUT_BASE overrides it. Measured effect (10M rows):
# the disk sink adds noise but is NOT the flag-write stage's bound — with
# a tmpfs sink the stage still runs ~63-92 s at BOTH 4 and 16 CPUs while
# host CPU sits ~70% busy: the 18 GB parquet decode/encode stream is
# DRAM-bandwidth-bound on this VM (per-node bandwidth is the resource a
# multi-node cluster multiplies; vCPUs on one box don't). See BASELINE.md
# round-2 scaling notes.
OUT_BASE = os.environ.get(
    "BENCH_OUT_BASE", "/dev/shm" if os.path.isdir("/dev/shm") else "/tmp"
)

# Queries benchmarked against the SF tables (a representative, non-Python-
# bound subset of __ray_entry__.queries()).
BENCH_QUERIES = [
    "rollup_1m",
    "rollup_5m",
    "rollup_1h",
    "cumulative_counts_1m",
    "cumulative_distinct_users_1m",
    "dedup_keep_first_events",
    "gapfill_locf_1h",
    "widen_1h",
    "topk_buckets",
    "tree_chain_depths",
    "order_priority_rollup",
    "q1_pricing_summary",
    "doc_token_counts",
    "doc_quality",
    "exact_dedup_docs",
    "ann_topk_cosine",
    "embedding_neardup_pairs",
    "ngram_jaccard_pairs",
    "pack_offsets_4096",
    "token_vocab_hist",
    "sample_docs_rate_25",
    "sample_docs_weighted_30",
    "source_word_entropy",
    "value_drift_psi",
    "pq_topk_cosine",
    "m4_downsample_1h",
    "lttb_events_200",
    "ohlc_rate_1h",
    "sessionize_30m",
    "value_histogram_20",
    "hot_user_events",
    # round-3 additions (this session)
    "exact_quantiles_value",
    "quantiles_by_type",
    "heavy_hitter_users",
    "merged_intervals_5m",
    "rolling_median_24h",
    "dup_ngram_frac",
    "cross_doc_dup_spans",
    "strip_hot_spans_docs",
    "benchmark_contamination",
    "span_corrupt_docs",
    "mixture_sample_docs",
    "series_corr_pairs",
    "cusum_changepoints_1h",
    "customers_no_urgent_orders",
    "trend_slope_1h",
    "seasonal_decompose_1h",
    "winsorize_values_p05_p95",
    "value_percent_rank",
    "record_high_1h",
    "source_vocab_jaccard",
    "holt_smooth_1h",
    "asof_join_forward",
    "minmax_normalize_values",
    "cohort_retention_weekly",
    "interarrival_stats_by_type",
    "latest_event_per_user_asof",
    "user_type_entropy",
    "sliding_distinct_users_24h",
    "growth_accounting_1d",
    "funnel_signup_click_purchase",
    "type_transition_matrix",
    "autocorr_lag1_1h",
    "train_val_test_split",
    "profile_events",
    "conversion_lag_stats",
    "robust_zscore_values",
    "source_vocab_containment",
    "source_token_richness",
    "activity_gini_1d",
    # round-4: full coverage — every queries() entry is benched so a perf
    # regression in ANY operator shows up round-over-round (VERDICT r3 #5).
    "doc_repetition",
    "word_topk_docs",
    "ewma_1h",
    "curate_docs",
    "top3_events_per_type",
    "counter_increase_1h",
    "melt_rollup_1h",
    "approx_distinct_users",
    "events_in_sessions",
    "zscore_anomaly_1h",
    "token_bigram_top100",
    "time_weighted_avg_1h",
    "rollup_floor_1h",
    "dedup_keep_none_events",
    "gapfill_linear_1h",
    "lang_id_docs",
    "doc_fingerprints",
    "minhash_lsh_pairs",
    "minhash_clusters",
    "sample_docs_per_source_10",
    "simhash_docs",
    "simhash_neardup_pairs",
    "lsh_neardup_pairs",
    "ivf_topk_cosine",
    "multimodal_decode_stub",
    "multimodal_decode_wav",
    "multimodal_decode_png",
    "multimodal_decode_jpeg",
    "multimodal_decode_video",
    "compress_roundtrip_1h",
    "range_read_1h",
    "telemetry_join_fixture",
    "corpus_end_to_end",
    "asof_join_rollup",
    "sliding_window_3h",
    "trace_one_row",
    "redact_docs",
    "shuffled_export_docs",
]


def _sf_of(path: str) -> float:
    import re

    m = re.search(r"sf([0-9.]+)", path)
    return float(m.group(1)) if m else 0.1


def _sequences_dir(sf: float) -> tuple[str, int]:
    """Synthesize (once, cached) the input_hint-shaped sequences table sized
    to the SF: 1M rows at sf0.1. BENCH_SEQ_ROWS overrides the row count —
    the scaling criterion is measured at 10M rows, where per-execution fixed
    costs stop dominating (BASELINE.md Amdahl analysis)."""
    n_rows = int(
        os.environ.get("BENCH_SEQ_ROWS", 0)
    ) or max(10_000, int(10_000_000 * sf))
    d = f"/tmp/cpr_bench_seq_{n_rows}"
    from contest_parsing_ray.sources.synthetic import write_sequences_parquet

    write_sequences_parquet(d, n_rows=n_rows, seed=42, num_files=32)
    return d, n_rows


def _consume(ds) -> int:
    """Stream-consume a Dataset (count rows without driver materialization)."""
    try:
        return ds.count()
    except AttributeError:
        return len(ds)


def run_bench() -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
            log_to_driver=False,  # keep stdout to the single JSON line
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    sf = _sf_of(SF_DIR)
    seq_dir, n_rows = _sequences_dir(sf)

    # warm the page cache so we measure compute + shuffle, not first-touch IO
    import pyarrow.dataset as pads

    pads.dataset(seq_dir).to_table(columns=["n_tok"])

    # headline: flagship pipeline (dedup + 3 tiers + gapfill + compression +
    # manifests), resume disabled via a fresh out_dir
    from contest_parsing_ray.config import PipelineConfig
    from contest_parsing_ray.pipelines.rollup_pipeline import run_rollup_pipeline

    # min-of-3: the host's CPU/memory throughput swings 2-6x across minutes
    # (BASELINE.md caveat) — repeats keep a random stall from reading as an
    # engine regression (observed spreads like 81.9/38.1 s for identical code)
    import shutil

    runs = []
    for rep in range(int(os.environ.get("BENCH_HEADLINE_REPEATS", "3"))):
        out_dir = f"{OUT_BASE}/cpr_bench_out_{NUM_CPUS}_{int(time.time())}_{rep}"
        cfg = PipelineConfig(out_dir=out_dir)
        t0 = time.perf_counter()
        metrics = run_rollup_pipeline(seq_dir, cfg, resume=False)
        runs.append(time.perf_counter() - t0)
        # outputs are ~GBs per rep (payload dedup re-writes the corpus);
        # repeated bench runs fill the disk if they accumulate
        shutil.rmtree(out_dir, ignore_errors=True)
    headline = min(runs)
    points = sum(t["points"] for t in metrics["tiers"].values())

    # per-query timings over the SF tables
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as entrymod

    # min-of-N per query, same estimator as the headline: single runs on this
    # host swing 2-6x (observed 6.7 vs 1.8 s for identical back-to-back runs),
    # so a single-run table reads as phantom regressions round-over-round.
    q_reps = int(os.environ.get("BENCH_QUERY_REPEATS", "2"))
    qtimes = {}
    qs = entrymod.queries()
    for name in BENCH_QUERIES:
        best = float("inf")
        for _ in range(q_reps):
            t0 = time.perf_counter()
            _consume(qs[name](SF_DIR))
            best = min(best, time.perf_counter() - t0)
        qtimes[name] = round(best, 3)

    return {
        "metric": "flagship rollup pipeline seconds (1m/5m/1h tiers + gapfill + "
        "compression over synthetic sequences table)",
        "value": round(headline, 3),
        "unit": "sec",
        "headline_runs": [round(r, 3) for r in runs],
        "queries": qtimes,
        "sf": sf,
        "num_cpus": NUM_CPUS,
        "seq_rows": n_rows,
        "rollup_points": points,
        "token_rows_per_sec": round(n_rows / headline, 1),
        "points_per_sec": round(points / headline, 1),
    }


def run_scaling() -> dict:
    """Same job, fresh ray.init processes at N and 4N CPUs.

    Levels default to 4 vs 16 (BENCH_SCALING_CPUS="lo,hi" overrides): a
    pure-compute calibration (64 embarrassingly-parallel in-cache numpy
    tasks) measured this host at 3.4x speedup for 4→16 CPUs (eff 0.85) but
    only 2.2x for 8→32 (eff 0.55) — the 32 advertised CPUs are ~16
    physical cores + SMT, so 8-vs-32 cannot show ≥0.8 for ANY workload
    here. 4-vs-16 is the honest N-vs-4N stand-in this box supports.

    The host's CPU performance is also erratic over time (identical numpy
    work measured at 0.07s-6s across minutes), so each level is run
    BENCH_SCALING_REPEATS times (default 3) interleaved, and the MINIMUM
    wall-clock per level is reported — the standard noisy-host benchmarking
    practice; the min approximates the uncontended machine."""
    spec = os.environ.get("BENCH_SCALING_CPUS", "4,16")
    lo, hi = (int(x) for x in spec.split(","))
    repeats = int(os.environ.get("BENCH_SCALING_REPEATS", "3"))
    # the scaling criterion is defined at 10M rows (BASELINE.md: at 1M the
    # per-execution fixed costs dominate and NO engine change can show ≥0.8);
    # default the scaling input to that size so a bare `--scaling` run
    # reproduces the recorded measurement. BENCH_SEQ_ROWS still overrides.
    os.environ.setdefault("BENCH_SEQ_ROWS", "10000000")
    times: dict[int, list] = {lo: [], hi: []}
    rows_per_sec: dict[int, list] = {lo: [], hi: []}
    calib: dict[int, list] = {lo: [], hi: []}
    reps: list[dict] = []
    for rep in range(repeats):
        for n in (lo, hi):
            env = dict(os.environ, RAY_GRAFT_CPUS=str(n))
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--headline-only"],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            ).stdout
            r = json.loads(out.strip().splitlines()[-1])
            times[n].append(r["value"])
            rows_per_sec[n].append(r["token_rows_per_sec"])
            calib[n].append(r.get("calib_sec"))
            reps.append({"rep": rep, "num_cpus": n, **r})
            sf = r["sf"]
    t_lo, t_hi = min(times[lo]), min(times[hi])
    eff = (t_lo / t_hi) / (hi / lo)
    # paired (same interleaved rep) efficiencies + calibration-normalized
    # efficiency: calib_sec measures the machine's ACTUAL parallel capacity
    # right before each run (64 identical in-cache numpy tasks), so
    # eff_norm = pipeline_speedup / calib_speedup factors out hypervisor
    # neighbor contention that taxes the wide level (BASELINE.md caveat)
    paired = [
        round((times[lo][i] / times[hi][i]) / (hi / lo), 3)
        for i in range(len(times[hi]))
    ]
    calib_speedup = (
        round(min(c for c in calib[lo] if c) / min(c for c in calib[hi] if c), 3)
        if all(calib[lo]) and all(calib[hi])
        else None
    )
    # per-stage efficiency table: min stage time per level across reps ->
    # per-stage speedup / efficiency, plus the hi-level time share so the
    # Amdahl decomposition is explicit in the recorded artifact
    stage_names = sorted(
        {k for r in reps for k in r.get("stage_seconds", {})}
        # the dedup_ingest envelope (probe+scan+decide) — keeping it would
        # double-count in hi_total/shares
        - {"dedup_ingest"}
    )
    stage_eff = {}
    hi_total = sum(
        min(r["stage_seconds"].get(s, 0.0) for r in reps if r["num_cpus"] == hi)
        for s in stage_names
    )
    for s in stage_names:
        t_l = min(r["stage_seconds"].get(s, 0.0) for r in reps if r["num_cpus"] == lo)
        t_h = min(r["stage_seconds"].get(s, 0.0) for r in reps if r["num_cpus"] == hi)
        if t_h <= 0:
            continue
        stage_eff[s] = {
            f"sec_{lo}": round(t_l, 2),
            f"sec_{hi}": round(t_h, 2),
            "speedup": round(t_l / t_h, 2),
            "efficiency": round((t_l / t_h) / (hi / lo), 3),
            "calib_normalized": (
                round((t_l / t_h) / calib_speedup, 3) if calib_speedup else None
            ),
            f"share_of_{hi}cpu_wall": round(t_h / hi_total, 3) if hi_total else None,
        }
    # compute-weighted efficiency: the mean per-stage efficiency weighted by
    # each stage's share of the hi-level wall — isolates how the engine's
    # own stages scale from cross-stage scheduling noise; paired with the
    # calibration-normalized variant it factors out hypervisor contention.
    wsum = sum(v[f"sec_{hi}"] for v in stage_eff.values())
    cweff = (
        round(
            sum(v[f"sec_{hi}"] * v["efficiency"] for v in stage_eff.values()) / wsum,
            3,
        )
        if wsum
        else None
    )
    cweff_norm = (
        round(
            sum(
                v[f"sec_{hi}"] * (v["calib_normalized"] or 0)
                for v in stage_eff.values()
            )
            / wsum,
            3,
        )
        if wsum and calib_speedup
        else None
    )
    return {
        "metric": "scaling efficiency (same pipeline, fresh processes, "
        f"num_cpus={lo} vs {hi}, min of {repeats} runs per level)",
        f"sec_{lo}": t_lo,
        f"sec_{hi}": t_hi,
        f"rows_per_sec_{lo}": max(rows_per_sec[lo]),
        f"rows_per_sec_{hi}": max(rows_per_sec[hi]),
        f"all_sec_{lo}": times[lo],
        f"all_sec_{hi}": times[hi],
        "scaling_efficiency": round(eff, 3),
        "paired_efficiencies": paired,
        f"calib_sec_{lo}": calib[lo],
        f"calib_sec_{hi}": calib[hi],
        "calib_speedup": calib_speedup,
        "calib_normalized_efficiency": (
            round((t_lo / t_hi) / calib_speedup, 3) if calib_speedup else None
        ),
        "stage_efficiency": stage_eff,
        "compute_weighted_efficiency": cweff,
        "compute_weighted_calib_normalized": cweff_norm,
        "sf": sf,
        "reps": reps,
    }


def _calibrate(n_tasks: int = 64) -> float:
    """Machine-state probe: wall-clock for 64 identical embarrassingly-
    parallel in-cache numpy tasks through Ray. On an uncontended box this
    scales ~linearly with num_cpus, so calib(lo)/calib(hi) measures the
    parallel capacity ACTUALLY granted by the hypervisor at run time —
    the denominator for calibration-normalized scaling efficiency."""
    import ray

    @ray.remote(num_cpus=1)
    def work(seed: int) -> float:
        import numpy as np

        x = np.random.default_rng(seed).random(200_000)
        s = 0.0
        for _ in range(600):
            s += float((x * x + x).sum())
        return s

    # warmup round first: worker-process startup must not tax the timing
    ray.get([work.remote(i) for i in range(n_tasks)])
    t0 = time.perf_counter()
    ray.get([work.remote(i) for i in range(n_tasks)])
    return time.perf_counter() - t0


def run_headline_only() -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        log_to_driver=False,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    sf = _sf_of(SF_DIR)
    seq_dir, n_rows = _sequences_dir(sf)
    import pyarrow.dataset as pads

    pads.dataset(seq_dir).to_table(columns=["n_tok"])
    from contest_parsing_ray.config import PipelineConfig
    from contest_parsing_ray.pipelines.rollup_pipeline import run_rollup_pipeline

    import shutil

    calib_sec = _calibrate()
    out_dir = f"{OUT_BASE}/cpr_bench_out_{NUM_CPUS}_{int(time.time())}"
    t0 = time.perf_counter()
    metrics = run_rollup_pipeline(seq_dir, PipelineConfig(out_dir=out_dir), resume=False)
    headline = time.perf_counter() - t0
    points = sum(t["points"] for t in metrics["tiers"].values())
    shutil.rmtree(out_dir, ignore_errors=True)
    return {
        "metric": "headline",
        "value": round(headline, 3),
        "unit": "sec",
        "sf": sf,
        "num_cpus": NUM_CPUS,
        "calib_sec": round(calib_sec, 3),
        "token_rows_per_sec": round(n_rows / headline, 1),
        "points_per_sec": round(points / headline, 1),
        "stage_seconds": {
            k: round(v, 2) for k, v in metrics["stage_seconds"].items()
        },
    }


if __name__ == "__main__":
    import ray

    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--headline-only" in sys.argv:
        print(json.dumps(run_headline_only()))
        ray.shutdown()
    else:
        print(json.dumps(run_bench()))
        ray.shutdown()
