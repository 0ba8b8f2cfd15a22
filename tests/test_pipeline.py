"""Flagship pipeline end-to-end + resume tests."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow.dataset as pads
import pytest

from contest_parsing_ray.config import PipelineConfig
from contest_parsing_ray.pipelines.rollup_pipeline import run_rollup_pipeline


@pytest.fixture()
def out_dir(tmp_path):
    return str(tmp_path / "out")


def test_pipeline_end_to_end_and_resume(sequences_dir, out_dir):
    cfg = PipelineConfig(tiers=("1m", "1h"), out_dir=out_dir)
    m1 = run_rollup_pipeline(sequences_dir, cfg)
    assert set(m1["tiers"]) == {"1m", "1h"}
    # deduped table kept merge-on-read: deletion vectors, stats sidecar,
    # scan-fused partials and a completed manifest, no payload copy
    import json

    dedup_dir = os.path.join(out_dir, "deduped")
    assert not os.path.exists(os.path.join(dedup_dir, "data"))
    for sub in ("deletion_vectors", os.path.join("sidecar", "data"), "partials"):
        assert any(
            f.endswith(".parquet") for f in os.listdir(os.path.join(dedup_dir, sub))
        ), sub
    dv_man = json.load(open(os.path.join(dedup_dir, "dv_manifest.json")))
    assert dv_man["completed"] and dv_man["n_deleted"] > 0
    # token checksums in tier manifests
    man = json.load(open(os.path.join(out_dir, "manifests", "1m.json")))
    assert len(man.get("token_checksums", {})) == 8
    assert m1["tiers"]["1m"]["points"] > m1["tiers"]["1h"]["points"] > 0
    # the tier-merge decision is in the run record
    tm = m1["tier_merge"]
    assert set(tm) == {"partitions", "partial_rows", "partial_bytes"}
    assert tm["partitions"] == 1 and tm["partial_rows"] > 0
    assert tm["partial_bytes"] > 0

    # outputs exist, partitioned by (tier, source), with manifests
    for tier in ("1m", "1h"):
        tdir = os.path.join(out_dir, "rollup", "data", f"tier={tier}")
        assert os.path.exists(os.path.join(out_dir, "manifests", f"{tier}.json"))
        subdirs = [d for d in os.listdir(tdir) if d.startswith("source=")]
        assert len(subdirs) == 8
        assert os.path.isdir(os.path.join(out_dir, "chunks", f"tier={tier}"))

    # gap-filled: the 1m tier carries the filled flag and a complete grid
    t = pads.dataset(os.path.join(out_dir, "rollup", "data", "tier=1m")).to_table().to_pandas()
    assert "filled" in t.columns and t["filled"].any()

    # resume: second run skips everything
    m2 = run_rollup_pipeline(sequences_dir, cfg)
    assert sorted(m2["tiers_skipped_by_resume"]) == ["1h", "1m"]
    assert m2["tiers"] == {}
    assert m2["total_seconds"] < m1["total_seconds"] / 5

    # changed config -> rebuild
    cfg2 = PipelineConfig(tiers=("1m", "1h"), out_dir=out_dir, gapfill_mode="linear")
    m3 = run_rollup_pipeline(sequences_dir, cfg2)
    assert m3["tiers"] != {}


def _tree_bytes(root: str) -> dict[str, bytes]:
    out = {}
    for d, _, files in os.walk(root):
        for f in files:
            path = os.path.join(d, f)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


def test_tier_merge_exchange_matches_driver(sequences_dir, tmp_path, monkeypatch):
    """The tier merge gives byte-identical tier data and state whether it
    runs on the driver (P = 1) or through the exchange (P = 2, 7), also
    when groups hold more values than quantile_cap and get compacted."""
    import functools

    from contest_parsing_ray.pipelines import rollup_pipeline
    from contest_parsing_ray.stages import _shuffle
    from contest_parsing_ray.stages.retention import read_tier_state

    ref = str(tmp_path / "p1")
    m = run_rollup_pipeline(
        sequences_dir, PipelineConfig(out_dir=ref, quantile_cap=64), resume=False
    )
    assert m["tier_merge"]["partitions"] == 1
    assert (read_tier_state(ref, "1h")["cnt"] > 64).any()
    expect = _tree_bytes(os.path.join(ref, "rollup"))
    assert any(k.startswith("state") for k in expect)

    exchange = _shuffle.raw_hash_exchange
    monkeypatch.setattr(rollup_pipeline, "DRIVER_MERGE_BYTES", -1)
    for n_parts in (2, 7):
        monkeypatch.setattr(
            _shuffle,
            "raw_hash_exchange",
            functools.partial(exchange, num_partitions=n_parts),
        )
        out = str(tmp_path / f"p{n_parts}")
        m = run_rollup_pipeline(
            sequences_dir, PipelineConfig(out_dir=out, quantile_cap=64),
            resume=False,
        )
        assert m["tier_merge"]["partitions"] == n_parts
        assert _tree_bytes(os.path.join(out, "rollup")) == expect


def test_pipeline_partial_resume(sequences_dir, out_dir):
    cfg = PipelineConfig(tiers=("5m",), out_dir=out_dir)
    run_rollup_pipeline(sequences_dir, cfg)
    # simulate a killed run: delete one tier's manifest, add another tier
    cfg2 = PipelineConfig(tiers=("5m", "1h"), out_dir=out_dir)
    m = run_rollup_pipeline(sequences_dir, cfg2)
    # 5m was built under a different config fingerprint -> rebuilt; the point
    # is that resume decisions are per tier
    assert "1h" in m["tiers"]


def test_partial_resume_keeps_other_tiers_chunks(sequences_dir, tmp_path):
    """Deleting one tier manifest and resuming rebuilds that tier only; the
    chunks of every tier (skipped ones included) equal a fresh build's."""
    fresh, out = str(tmp_path / "fresh"), str(tmp_path / "out")
    run_rollup_pipeline(sequences_dir, PipelineConfig(out_dir=fresh), resume=False)
    run_rollup_pipeline(sequences_dir, PipelineConfig(out_dir=out), resume=False)
    os.remove(os.path.join(out, "manifests", "1m.json"))
    m = run_rollup_pipeline(sequences_dir, PipelineConfig(out_dir=out))
    assert sorted(m["tiers_skipped_by_resume"]) == ["1h", "5m"]
    want = _tree_bytes(os.path.join(fresh, "chunks"))
    assert {k.split(os.sep)[0] for k in want} == {"tier=1m", "tier=5m", "tier=1h"}
    assert _tree_bytes(os.path.join(out, "chunks")) == want


def test_empty_input_file_builds_no_points(tmp_path):
    """A zero-row input file gives a build with 0 points, not a crash, with
    and without tokens."""
    import pyarrow.parquet as pq

    from contest_parsing_ray.sources.synthetic import write_sequences_parquet

    src = write_sequences_parquet(str(tmp_path / "src"), n_rows=10, seed=1, num_files=1)
    f = next(x for x in sorted(os.listdir(src)) if x.endswith(".parquet"))
    os.makedirs(tmp_path / "seq")
    pq.write_table(
        pq.read_table(os.path.join(src, f)).slice(0, 0),
        str(tmp_path / "seq" / "part-0.parquet"),
    )
    for tokens in (True, False):
        m = run_rollup_pipeline(
            str(tmp_path / "seq"),
            PipelineConfig(out_dir=str(tmp_path / f"out-{tokens}"),
                           ingest_tokens=tokens),
            resume=False,
        )
        assert {t: v["points"] for t, v in m["tiers"].items()} == {
            "1m": 0, "5m": 0, "1h": 0,
        }, tokens
        assert m["tier_merge"]["partial_rows"] == 0, tokens


def test_retention_expiry(sequences_dir, out_dir):
    """Retention policy: old buckets dropped per tier, manifest updated."""
    from contest_parsing_ray.stages.retention import (
        apply_retention,
        read_tier_manifest,
        tier_data_dir,
    )
    import pyarrow.dataset as pads

    cfg = PipelineConfig(tiers=("1m",), out_dir=out_dir)
    run_rollup_pipeline(sequences_dir, cfg, with_compression=False)
    tdir = tier_data_dir(out_dir, "1m")
    before = pads.dataset(tdir, partitioning="hive").to_table()
    buckets = sorted(set(before.column("bucket_us").to_pylist()))
    # keep only the last hour of buckets relative to the max bucket
    now = buckets[-1] + 60_000_000
    res = apply_retention(out_dir, "1m", keep_us=3_600_000_000, now_us=now)
    after = pads.dataset(tdir, partitioning="hive").to_table()
    assert res["dropped"] > 0
    assert res["kept"] == after.num_rows
    assert min(after.column("bucket_us").to_pylist()) >= now - 3_600_000_000
    man = read_tier_manifest(out_dir, "1m")
    assert man["retention"][0]["dropped"] == res["dropped"]
    assert man["total_rows"] == res["kept"]


def test_csv_sink_roundtrip(sequences_dir, tmp_path):
    """S6: rollup points exported via the native CSV sink read back
    row-identical (engine intermediates stay Parquet by design — CSV is an
    export-only surface; reference analog DataFrameHandler.py save_csv)."""
    import glob

    from contest_parsing_ray.sources.ingest import read_sequences
    from contest_parsing_ray.stages.rollup import rollup_tiers

    r = rollup_tiers(
        read_sequences(sequences_dir, with_tokens=False),
        {"1h": 3_600_000_000}, value_col="n_tok",
    )["1h"]
    expect = r.to_pandas().sort_values(["source", "bucket_us"]).reset_index(drop=True)
    out = str(tmp_path / "csv_out")
    r.write_csv(out)
    files = sorted(glob.glob(f"{out}/*.csv"))
    assert files, "no CSV files written"
    got = (
        pd.concat([pd.read_csv(f) for f in files], ignore_index=True)
        .sort_values(["source", "bucket_us"])
        .reset_index(drop=True)[expect.columns.tolist()]
    )
    assert got["cnt"].tolist() == expect["cnt"].tolist()
    np.testing.assert_allclose(got["sum_v"], expect["sum_v"])
    np.testing.assert_allclose(got["p95_v"], expect["p95_v"], rtol=1e-12)
