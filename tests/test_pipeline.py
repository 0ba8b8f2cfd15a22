"""Flagship pipeline end-to-end + resume tests."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow.compute as pc
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
    # deduped table kept merge-on-read: deletion vectors, scan-fused
    # partials and a completed manifest, no payload copy
    import json

    dedup_dir = os.path.join(out_dir, "deduped")
    assert sorted(os.listdir(dedup_dir)) == [
        "deletion_vectors", "dv_manifest.json", "partials"
    ]
    for sub in ("deletion_vectors", "partials"):
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


@pytest.mark.parametrize("keep", ["first", "none"])
def test_no_tokens_build_equals_default_build(sequences_dir, tmp_path, keep):
    """--no-tokens runs the same deletion-vector dedup without decoding the
    token payload: rollup/ and chunks/ are byte-identical to the default
    build's, the manifests carry no token checksums, no deduped/data table
    is written, and dv_manifest.json records the mode."""
    import json

    trees = {}
    for tokens in (True, False):
        out = str(tmp_path / f"out-{tokens}")
        run_rollup_pipeline(
            sequences_dir,
            PipelineConfig(out_dir=out, dedup_keep=keep, ingest_tokens=tokens),
            resume=False,
        )
        trees[tokens] = {
            sub: _tree_bytes(os.path.join(out, sub)) for sub in ("rollup", "chunks")
        }
        for tier in ("1m", "5m", "1h"):
            with open(os.path.join(out, "manifests", f"{tier}.json")) as f:
                assert bool(json.load(f)["token_checksums"]) is tokens
        assert not os.path.exists(os.path.join(out, "deduped", "data"))
        with open(os.path.join(out, "deduped", "dv_manifest.json")) as f:
            assert json.load(f)["tokens"] is tokens
    assert trees[True]["rollup"] and trees[True]["chunks"]
    assert trees[False] == trees[True]


@pytest.mark.parametrize("append", [False, True], ids=["build", "append"])
def test_small_build_runs_one_ray_data_execution(
    sequences_dir, tmp_path, monkeypatch, append
):
    """A default build whose partial state fits DRIVER_MERGE_BYTES runs
    exactly one Ray Data execution, the deletion-vector scan: the probe is
    plain tasks, and the fused partials, their token totals and the tier
    merge are read and run in the driver. A one-file append likewise runs
    one, the scan of the new file, whose tasks and decide write the delta's
    partials."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    cfg = PipelineConfig(out_dir=str(tmp_path / "out"))
    inp = sequences_dir
    if append:
        inp = str(tmp_path / "in")
        os.makedirs(inp)
        names = sorted(f for f in os.listdir(sequences_dir) if f.endswith(".parquet"))
        for f in names[:-1]:
            os.link(os.path.join(sequences_dir, f), os.path.join(inp, f))
        run_rollup_pipeline(inp, cfg, resume=False)
        os.link(os.path.join(sequences_dir, names[-1]), os.path.join(inp, names[-1]))

    runs = []
    execute = StreamingExecutor.execute

    def counted(self, dag, *args, **kwargs):
        runs.append(dag.name)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    m = run_rollup_pipeline(inp, cfg, resume=append)
    assert m.get("incremental_append", False) is append
    assert m["tier_merge"]["partitions"] == 1
    assert len(runs) == 1, runs
    assert "Write" in runs[0]


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
    """A clocked build cuts each tier at now - keep before the gap-fill and
    the write: no bucket below the cutoff is left in the tier data, state
    or chunks; every row at or after a source's first kept bucket equals
    the unclocked build's; and the run record and the tier manifest name
    the cutoff, the merged points dropped and the rows left."""
    from contest_parsing_ray.stages.retention import (
        read_tier_manifest,
        tier_data_dir,
        tier_state_dir,
    )

    full_dir = out_dir + "-full"
    run_rollup_pipeline(
        sequences_dir, PipelineConfig(tiers=("1m",), out_dir=full_dir),
        with_compression=False,
    )
    full = pads.dataset(tier_data_dir(full_dir, "1m"), partitioning="hive")
    full = full.to_table().to_pandas()
    # keep only the last hour of buckets relative to the max bucket
    now = int(full["bucket_us"].max()) + 60_000_000
    cutoff = now - 3_600_000_000

    cfg = PipelineConfig(tiers=("1m",), out_dir=out_dir, retention_keep=("1h",))
    m = run_rollup_pipeline(sequences_dir, cfg, retention_now_us=now)
    state = pads.dataset(tier_state_dir(full_dir, "1m"), partitioning="hive")
    below = pc.less(state.to_table()["bucket_us"], cutoff)
    assert m["tiers"]["1m"]["retention_cutoff_us"] == cutoff
    assert m["tiers"]["1m"]["retention_dropped"] == pc.sum(below).as_py() > 0
    assert "retention" not in m["stage_seconds"]

    after = pads.dataset(tier_data_dir(out_dir, "1m"), partitioning="hive")
    after = after.to_table().to_pandas()
    assert after["bucket_us"].min() >= cutoff
    first_kept = after[~after["filled"]].groupby("source")["bucket_us"].min()
    expect = full[full["bucket_us"] >= full["source"].map(first_kept)]
    key = ["source", "bucket_us"]
    pd.testing.assert_frame_equal(
        after.sort_values(key).reset_index(drop=True),
        expect[after.columns].sort_values(key).reset_index(drop=True),
    )
    man = read_tier_manifest(out_dir, "1m")
    assert man["retention_cutoff_us"] == cutoff and "retention" not in man
    assert man["total_rows"] == len(after) == m["tiers"]["1m"]["points"]

    # the chunks are encoded from what was written: no expired point
    chunks = pads.dataset(os.path.join(out_dir, "chunks", "tier=1m")).to_table()
    assert min(chunks.column("t0").to_pylist()) >= cutoff
    assert sum(chunks.column("n_points").to_pylist()) == len(after)


def _partition_file(out_dir: str, tier: str, source: str) -> str:
    from contest_parsing_ray.stages.retention import tier_data_dir

    return os.path.join(tier_data_dir(out_dir, tier), f"source={source}", "part-0000.parquet")


def test_partition_checksum_is_exact(sequences_dir, out_dir):
    """The per-partition lineage checksum is an exact digest of the written
    rows: the manifest's value is the digest of the file on disk, any one
    value edit or a swap of two rows changes it, and the same rows give the
    same digest however they are chunked or rewritten."""
    import json

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from contest_parsing_ray.stages.retention import partition_stats

    run_rollup_pipeline(sequences_dir, PipelineConfig(tiers=("1m",), out_dir=out_dir))
    man = json.load(open(os.path.join(out_dir, "manifests", "1m.json")))
    src = max(man["partitions"], key=lambda k: man["partitions"][k]["rows"])
    t = pq.read_table(_partition_file(out_dir, "1m", src))
    assert man["partitions"][src] == partition_stats(t)
    base = partition_stats(t)["checksum"]

    def with_col(name, values):
        return t.set_column(t.schema.get_field_index(name), name, values)

    sv = t["sum_v"].to_numpy().copy()
    swapped = sv.copy()
    i, j = 3, 4 + int(np.argmax(sv[4:] != sv[3]))
    swapped[[i, j]] = swapped[[j, i]]
    cnt = t["cnt"].to_numpy().copy()
    cnt[7] += 1
    edits = {
        "sum_v+1": with_col("sum_v", pc.add(t["sum_v"], pa.array(np.eye(1, len(t), 5)[0]))),
        "sum_v+31": with_col("sum_v", pc.add(t["sum_v"], pa.array(31 * np.eye(1, len(t), 9)[0]))),
        "cnt+1": with_col("cnt", pa.array(cnt)),
        "swap": with_col("sum_v", pa.array(swapped)),
        "filled": with_col("filled", pc.invert(t["filled"])),
    }
    for name, edited in edits.items():
        assert partition_stats(edited)["checksum"] != base, name
    rechunked = pa.concat_tables([t.slice(0, 10), t.slice(10)])
    assert partition_stats(rechunked)["checksum"] == base
    pq.write_table(rechunked, os.path.join(out_dir, "copy.parquet"), row_group_size=17)
    again = pq.read_table(os.path.join(out_dir, "copy.parquet"))
    assert partition_stats(again)["checksum"] == base


def test_retention_keeps_partition_lineage(sequences_dir, out_dir):
    """After expiry the per-partition lineage describes the files left: the
    partition rows sum to ``total_rows`` and each checksum is the digest
    of that partition's data file on disk."""
    import json

    import pyarrow.parquet as pq

    from contest_parsing_ray.stages.retention import partition_stats, tier_data_dir

    full = run_rollup_pipeline(
        sequences_dir, PipelineConfig(tiers=("1m",), out_dir=out_dir + "-full")
    )
    buckets = pads.dataset(tier_data_dir(out_dir + "-full", "1m")).to_table()["bucket_us"]
    now = max(buckets.to_pylist()) + 60_000_000
    cfg = PipelineConfig(tiers=("1m",), out_dir=out_dir, retention_keep=("1h",))
    m = run_rollup_pipeline(sequences_dir, cfg, retention_now_us=now)
    assert m["tiers"]["1m"]["retention_dropped"] > 0
    man = json.load(open(os.path.join(out_dir, "manifests", "1m.json")))
    assert man["total_rows"] < full["tiers"]["1m"]["points"]
    assert sum(p["rows"] for p in man["partitions"].values()) == man["total_rows"]
    for src, stats in man["partitions"].items():
        t = pq.read_table(_partition_file(out_dir, "1m", src))
        assert stats == partition_stats(t), src


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
