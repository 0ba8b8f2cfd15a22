"""Incremental rollup on append (continuous aggregates).

Appending new parquet shards must (a) process only the delta, (b) merge
into the stored tier state, (c) produce tier data, state and chunks
identical to a from-scratch rebuild, byte for byte at any quantile_cap (a
group's quantile state is a function of its multiset of values), and (d)
dedup new rows against OLD occurrences (keep='first': prior winners stay,
new copies lose).
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from contest_parsing_ray.config import PipelineConfig
from contest_parsing_ray.pipelines.rollup_pipeline import run_rollup_pipeline
from contest_parsing_ray.sources.synthetic import (
    make_sequences_table,
    write_sequences_parquet,
)


def _tier(out_dir: str, tier: str) -> pd.DataFrame:
    t = pads.dataset(
        os.path.join(out_dir, "rollup", "data", f"tier={tier}"),
        partitioning="hive",
    ).to_table().to_pandas()
    t = t[sorted(t.columns)]
    return t.sort_values(["source", "bucket_us"], kind="stable").reset_index(
        drop=True
    )


@pytest.fixture()
def corpus(tmp_path):
    d = str(tmp_path / "seq")
    write_sequences_parquet(d, n_rows=8_000, seed=42, num_files=4)
    return d


CAP = 65536  # no group is gridded: every p95 is exact


@pytest.mark.parametrize("tokens", [True, False], ids=["tokens", "no_tokens"])
def test_append_matches_from_scratch(corpus, tmp_path, tokens):
    out = str(tmp_path / "out")
    cfg = PipelineConfig(out_dir=out, quantile_cap=CAP, ingest_tokens=tokens)
    m1 = run_rollup_pipeline(corpus, cfg)
    assert m1["tiers"]

    # delta: fresh rows (seed 7) PLUS exact copies of existing rows — the
    # copies must lose to the prior occurrences (keep='first')
    extra = make_sequences_table(2_000, seed=7)
    base0 = pq.read_table(os.path.join(corpus, "part-0000.parquet"))
    dup_slice = base0.slice(0, 100)
    pq.write_table(extra, os.path.join(corpus, "part-9000.parquet"))
    pq.write_table(dup_slice, os.path.join(corpus, "part-9001.parquet"))

    m2 = run_rollup_pipeline(corpus, cfg)
    assert m2.get("incremental_append") is True
    assert m2["deduped_table"] == "appended"
    assert sorted(m2["appended_input_files"]) == [
        os.path.join(corpus, "part-9000.parquet"),
        os.path.join(corpus, "part-9001.parquet"),
    ]

    out2 = str(tmp_path / "scratch")
    run_rollup_pipeline(
        corpus,
        PipelineConfig(out_dir=out2, quantile_cap=CAP, ingest_tokens=tokens),
        resume=False,
    )
    for tier in ("1m", "5m", "1h"):
        pd.testing.assert_frame_equal(_tier(out, tier), _tier(out2, tier))

    # token checksums merged exactly (none without tokens)
    ma = json.load(open(os.path.join(out, "manifests", "1m.json")))
    mb = json.load(open(os.path.join(out2, "manifests", "1m.json")))
    assert ma["token_checksums"] == mb["token_checksums"]
    assert bool(ma["token_checksums"]) is tokens
    assert ma["appends"], "append recorded in lineage"

    # cross-file dedup: the 100 copied rows all lost; the deduped table
    # holds the from-scratch survivors
    from contest_parsing_ray.stages.deletion_vector import (
        dv_manifest_file,
        read_deduped_dv,
    )

    man = json.load(open(dv_manifest_file(os.path.join(out, "deduped"))))
    assert man["appends"][-1]["n_deleted_new"] >= 100
    ids = [
        sorted(read_deduped_dv(os.path.join(o, "deduped")).to_pandas()["doc_id"])
        for o in (out, out2)
    ]
    assert ids[0] == ids[1]

    # a third run with nothing new is a plain resume no-op
    m3 = run_rollup_pipeline(corpus, cfg)
    assert sorted(m3["tiers_skipped_by_resume"]) == ["1h", "1m", "5m"]

    # the append recorded the new input in dv_manifest.json: a partial
    # resume reuses the deduped table (no probe, no scan) and rebuilds the
    # missing tier from its partials, equal to the from-scratch build's
    os.remove(os.path.join(out, "manifests", "1h.json"))
    m4 = run_rollup_pipeline(corpus, cfg)
    assert list(m4["tiers"]) == ["1h"]
    assert not {"dedup_probe", "dv_scan_write"} & set(m4["stage_seconds"])
    assert m4["deduped_table"] == "reused"
    for tier in ("1m", "5m", "1h"):
        pd.testing.assert_frame_equal(_tier(out, tier), _tier(out2, tier))


def test_append_without_new_survivors_records_input(corpus, tmp_path):
    """An append whose new file holds only copies of prior rows (no new
    survivor), or whose only new file is not parquet (``_SUCCESS``), still
    records the new input in the tier manifests: the next run skips every
    tier by resume, and the tiers stay those of the prior build."""
    out = str(tmp_path / "out")
    cfg = PipelineConfig(out_dir=out, quantile_cap=CAP)
    run_rollup_pipeline(corpus, cfg)
    before = {tier: _tier(out, tier) for tier in ("1m", "5m", "1h")}
    base0 = pq.read_table(os.path.join(corpus, "part-0000.parquet"))
    pq.write_table(base0.slice(0, 50), os.path.join(corpus, "part-9000.parquet"))
    for new in ("part-9000.parquet", "_SUCCESS"):
        if new == "_SUCCESS":
            open(os.path.join(corpus, new), "w").close()
        m = run_rollup_pipeline(corpus, cfg)
        assert m.get("incremental_append") is True, new
        assert m["appended_input_files"] == [os.path.join(corpus, new)]
        m = run_rollup_pipeline(corpus, cfg)
        assert sorted(m["tiers_skipped_by_resume"]) == ["1h", "1m", "5m"], new
        assert "appended_input_files" not in m
        for tier, want in before.items():
            pd.testing.assert_frame_equal(_tier(out, tier), want)


def test_append_applies_retention(corpus, tmp_path):
    """An append runs the build's retention step: the run record has
    ``retention_dropped`` and no bucket below the cutoff is left in the
    tier data, the tier state or the chunks, although the new file holds
    rows from the whole corpus span."""
    from contest_parsing_ray.sources.synthetic import BASE_EPOCH_MINUTE

    out = str(tmp_path / "out")
    cfg = PipelineConfig(
        out_dir=out, quantile_cap=CAP, retention_keep=("1h", None, None)
    )
    # the corpus spans 4 hours from BASE_EPOCH_MINUTE; keep the last one
    now = (BASE_EPOCH_MINUTE + 240) * 60_000_000
    cutoff = now - 3_600_000_000
    m1 = run_rollup_pipeline(corpus, cfg, retention_now_us=now)
    assert m1["tiers"]["1m"]["retention_dropped"] > 0
    pq.write_table(
        make_sequences_table(2_000, seed=7),
        os.path.join(corpus, "part-9000.parquet"),
    )
    m2 = run_rollup_pipeline(corpus, cfg, retention_now_us=now)
    assert m2["incremental_append"] is True
    assert m2["tiers"]["1m"]["retention_dropped"] > 0
    assert "retention_dropped" not in m2["tiers"]["5m"]
    for sub in ("data", "state"):
        t = pads.dataset(
            os.path.join(out, "rollup", sub, "tier=1m"), partitioning="hive"
        ).to_table()
        assert pc.min(t["bucket_us"]).as_py() >= cutoff, sub
    chunks = pads.dataset(os.path.join(out, "chunks", "tier=1m")).to_table()
    assert pc.min(chunks["t0"]).as_py() >= cutoff
    n_rows = len(_tier(out, "1m"))
    assert sum(chunks["n_points"].to_pylist()) == n_rows
    with open(os.path.join(out, "manifests", "1m.json")) as f:
        assert json.load(f)["total_rows"] == n_rows


def test_interrupted_append_leaves_partials_unused(corpus, tmp_path, monkeypatch):
    """An append interrupted after its scan wrote the new file's partials
    leaves ``partials/`` unmarked: once that file is gone again, a run that
    rebuilds the tiers re-runs the scan instead of reading partials of a
    file the deletion vectors do not list, and matches a fresh build."""
    from contest_parsing_ray.stages import deletion_vector

    out = str(tmp_path / "out")
    run_rollup_pipeline(corpus, PipelineConfig(out_dir=out, quantile_cap=CAP))
    new = os.path.join(corpus, "part-9000.parquet")
    pq.write_table(make_sequences_table(1_000, seed=5), new)
    scan = deletion_vector._scan_flagged

    def interrupted(*args, **kwargs):
        scan(*args, **kwargs)
        raise RuntimeError("interrupted")

    monkeypatch.setattr(deletion_vector, "_scan_flagged", interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        run_rollup_pipeline(corpus, PipelineConfig(out_dir=out, quantile_cap=CAP))
    monkeypatch.undo()
    os.remove(new)

    cfg = PipelineConfig(out_dir=out, quantile_cap=CAP, gapfill_mode="linear")
    m = run_rollup_pipeline(corpus, cfg)
    assert "dv_scan_write" in m["stage_seconds"]
    assert m["deduped_table"] == "built"
    fresh = str(tmp_path / "fresh")
    run_rollup_pipeline(
        corpus,
        PipelineConfig(out_dir=fresh, quantile_cap=CAP, gapfill_mode="linear"),
        resume=False,
    )
    for tier in ("1m", "5m", "1h"):
        pd.testing.assert_frame_equal(_tier(out, tier), _tier(fresh, tier))


def test_append_interrupted_after_its_dedup_resumes_to_fresh_build(
    corpus, tmp_path, monkeypatch
):
    """An append interrupted after its deletion-vector append finished
    (here: the tier write raises) leaves ``dv_manifest.json`` covering the
    new input. The next run reuses the deduped table and rebuilds every
    tier from all partials, so the new file's rows are counted and the
    tiers equal a fresh build's; it neither appends nothing nor records
    the file as ingested without its rows."""
    from contest_parsing_ray.pipelines import rollup_pipeline

    out = str(tmp_path / "out")
    cfg = PipelineConfig(out_dir=out, quantile_cap=CAP)
    run_rollup_pipeline(corpus, cfg)
    pq.write_table(
        make_sequences_table(2_000, seed=7),
        os.path.join(corpus, "part-9000.parquet"),
    )

    def interrupted(*args, **kwargs):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(rollup_pipeline, "_write_merged", interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        run_rollup_pipeline(corpus, cfg)
    monkeypatch.undo()

    m = run_rollup_pipeline(corpus, cfg)
    fresh = str(tmp_path / "fresh")
    run_rollup_pipeline(
        corpus, PipelineConfig(out_dir=fresh, quantile_cap=CAP), resume=False
    )
    for tier in ("1m", "5m", "1h"):
        assert _tier(out, tier)["cnt"].sum() == _tier(fresh, tier)["cnt"].sum(), tier
    _assert_same_outputs(_outputs(out), _outputs(fresh))
    assert m["deduped_table"] == "reused"
    assert "incremental_append" not in m
    assert m["tier_merge"]["partial_rows"] > 0
    assert not {"dedup_probe", "dv_scan_write", "append_probe", "append_scan"} & set(
        m["stage_seconds"]
    )
    m = run_rollup_pipeline(corpus, cfg)
    assert sorted(m["tiers_skipped_by_resume"]) == ["1h", "1m", "5m"]


def test_append_after_dedup_finished_and_more_input_rebuilds(corpus, tmp_path, monkeypatch):
    """When more input arrives after an append whose dedup finished but
    whose tier write did not, the deletion vectors list a file the tier
    manifests do not: the append is not taken (``append_fallback`` is
    ``dv_manifest``), the deduped table is rebuilt, and the tiers equal a
    fresh build's."""
    from contest_parsing_ray.pipelines import rollup_pipeline

    out = str(tmp_path / "out")
    cfg = PipelineConfig(out_dir=out, quantile_cap=CAP)
    run_rollup_pipeline(corpus, cfg)
    pq.write_table(
        make_sequences_table(2_000, seed=7),
        os.path.join(corpus, "part-9000.parquet"),
    )

    def interrupted(*args, **kwargs):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(rollup_pipeline, "_write_merged", interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        run_rollup_pipeline(corpus, cfg)
    monkeypatch.undo()
    pq.write_table(
        make_sequences_table(1_000, seed=5),
        os.path.join(corpus, "part-9001.parquet"),
    )
    m = run_rollup_pipeline(corpus, cfg)
    assert m["incremental_append"] is False
    assert m["append_fallback"] == "dv_manifest"
    assert m["deduped_table"] == "built"
    fresh = str(tmp_path / "fresh")
    run_rollup_pipeline(
        corpus, PipelineConfig(out_dir=fresh, quantile_cap=CAP), resume=False
    )
    _assert_same_outputs(_outputs(out), _outputs(fresh))


def test_input_listing_follows_pyarrow_discovery(corpus, tmp_path):
    """The input is listed once, and its parquet files follow pyarrow's
    discovery rule: ``_SUCCESS``, ``_DONE``, a ``.crc`` sidecar and a
    ``_temporary/`` dir are skipped, a nested dir is read. A build and an
    append on such a dir equal fresh builds over the parquet files alone."""
    from contest_parsing_ray.state.manifest import (
        input_file_fingerprints,
        parquet_input_files,
    )

    for name in ("_SUCCESS", "_DONE"):
        open(os.path.join(corpus, name), "w").close()
    with open(os.path.join(corpus, ".part-0000.parquet.crc"), "wb") as f:
        f.write(b"not parquet")
    for sub, seed in (("_temporary", 3), ("nested", 4)):
        os.makedirs(os.path.join(corpus, sub, "0"))
        pq.write_table(
            make_sequences_table(1_000, seed=seed),
            os.path.join(corpus, sub, "0", "part-0500.parquet"),
        )

    def same_as_clean_copy(out: str, tag: str) -> None:
        files = parquet_input_files(corpus, input_file_fingerprints(corpus))
        assert files == sorted(pads.dataset(corpus).files)
        assert not any("/_" in f or "/." in f for f in files)
        clean = str(tmp_path / f"clean-{tag}")
        for f in files:
            dst = os.path.join(clean, os.path.relpath(f, corpus))
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            os.link(f, dst)
        fresh = str(tmp_path / f"fresh-{tag}")
        run_rollup_pipeline(
            clean, PipelineConfig(out_dir=fresh, quantile_cap=CAP), resume=False
        )
        for tier in ("1m", "5m", "1h"):
            pd.testing.assert_frame_equal(_tier(out, tier), _tier(fresh, tier))

    out = str(tmp_path / "out")
    cfg = PipelineConfig(out_dir=out, quantile_cap=CAP)
    assert run_rollup_pipeline(corpus, cfg)["deduped_table"] == "built"
    same_as_clean_copy(out, "build")
    pq.write_table(
        make_sequences_table(2_000, seed=7),
        os.path.join(corpus, "nested", "0", "part-0600.parquet"),
    )
    open(os.path.join(corpus, "nested", "_SUCCESS"), "w").close()
    m = run_rollup_pipeline(corpus, cfg)
    assert m["deduped_table"] == "appended"
    assert m["appended_input_files"] == [
        os.path.join(corpus, "nested", "0", "part-0600.parquet"),
        os.path.join(corpus, "nested", "_SUCCESS"),
    ]
    same_as_clean_copy(out, "append")


def _file_bytes(root: str, sub: str) -> dict[str, bytes]:
    d = os.path.join(root, sub)
    out = {}
    for dp, _, fs in os.walk(d):
        for f in fs:
            with open(os.path.join(dp, f), "rb") as fh:
                out[os.path.relpath(os.path.join(dp, f), d)] = fh.read()
    return out


def _last_append(out_dir: str) -> dict:
    from contest_parsing_ray.stages.deletion_vector import dv_manifest_file

    with open(dv_manifest_file(os.path.join(out_dir, "deduped"))) as f:
        return json.load(f)["appends"][-1]


def test_append_reads_prior_corpus_once_and_superset_probe_is_exact(
    corpus, tmp_path, monkeypatch
):
    """An append makes no full-corpus probe, and its outputs do not depend
    on how many new rows its probe flags: a probe flagging the hash of
    every new key (what hash collisions would do) writes the same deletion
    vectors, tiers and chunks as the exact probe, because the decide
    compares key strings. Both equal a from-scratch build. The new files
    hold fresh rows, copies of prior rows, and copies of the first new
    file's rows."""
    from contest_parsing_ray.stages import deletion_vector
    from contest_parsing_ray.stages._shuffle import hash64_strings

    outs = {name: str(tmp_path / name) for name in ("exact", "superset")}
    for out in outs.values():
        run_rollup_pipeline(corpus, PipelineConfig(out_dir=out, quantile_cap=CAP))
    fresh = make_sequences_table(1_500, seed=7)
    base0 = pq.read_table(os.path.join(corpus, "part-0000.parquet"))
    for name, t in (
        ("part-9000.parquet", fresh),
        ("part-9001.parquet", base0.slice(0, 100)),
        ("part-9002.parquet", fresh.slice(200, 50)),
    ):
        pq.write_table(t, os.path.join(corpus, name))

    def no_corpus_probe(*args, **kwargs):
        raise AssertionError("an append must not probe the whole corpus")

    monkeypatch.setattr(
        deletion_vector, "duplicated_key_probe_files", no_corpus_probe
    )
    for name, out in outs.items():
        if name == "superset":
            monkeypatch.setattr(
                deletion_vector, "_append_probe",
                lambda new_keys, prior_keys: np.unique(hash64_strings(new_keys)),
            )
        m = run_rollup_pipeline(corpus, PipelineConfig(out_dir=out, quantile_cap=CAP))
        assert m["incremental_append"] is True, name
    monkeypatch.undo()
    fresh_out = str(tmp_path / "fresh")
    run_rollup_pipeline(
        corpus, PipelineConfig(out_dir=fresh_out, quantile_cap=CAP), resume=False
    )

    exact, superset = (_last_append(out) for out in outs.values())
    assert superset["n_suspects_new"] == 1_650 > exact["n_suspects_new"]
    assert exact["n_prior_matches"] == superset["n_prior_matches"] == 100
    assert exact["n_deleted_new"] == superset["n_deleted_new"] >= 150
    for sub in ("deduped/deletion_vectors", "rollup/data", "chunks"):
        got = [_file_bytes(out, sub) for out in outs.values()]
        assert got[0] and got[0] == got[1], sub
    for out in outs.values():
        for sub in ("rollup/data", "rollup/state", "chunks"):
            assert _file_bytes(out, sub) == _file_bytes(fresh_out, sub), sub

    # the delta's partials split the same survivors differently (no new row
    # is clean under the superset probe): equal cnt and checksum totals
    def delta_totals(out: str) -> pd.DataFrame:
        pdir = os.path.join(out, "deduped", "partials")
        files = [os.path.join(pdir, f) for f in _last_append(out)["partial_files"]]
        t = pads.dataset(files).to_table().to_pandas()
        return t.groupby(["source", "bucket_1m"])[["cnt", "ck_v"]].sum()

    assert superset["partial_files"] == ["append0001-winners-0000.parquet"]
    pd.testing.assert_frame_equal(*(delta_totals(out) for out in outs.values()))


def test_prior_matches_against_pandas_oracle(tmp_path):
    """``_prior_matches`` returns (key, file_idx, pos) of every prior row
    whose key string is a new file's key, and a typed empty table when
    nothing matches, there is no prior file or no new row."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from contest_parsing_ray.stages.deletion_vector import (
        _append_probe,
        _prior_matches,
    )

    tables = [make_sequences_table(600, seed=s) for s in (1, 2, 3)]
    tables[2] = pa.concat_tables([tables[2], tables[0].slice(10, 40)])
    new = [
        pa.concat_tables(
            [make_sequences_table(300, seed=4), tables[1].slice(0, 30)]
        ),
        pa.concat_tables([tables[0].slice(0, 20), tables[2].slice(500, 60)]),
    ]
    prior = []
    for i, t in enumerate(tables):
        prior.append(str(tmp_path / f"prior-{i}.parquet"))
        pq.write_table(t, prior[-1])
    new_keys = pa.concat_arrays([t["doc_id"].combine_chunks() for t in new])

    got = _prior_matches(prior, new_keys).to_pandas()
    want = pd.concat(
        [
            pd.DataFrame({"key": t["doc_id"].to_pylist(), "file_idx": i,
                          "pos": np.arange(len(t))})
            for i, t in enumerate(tables)
        ],
        ignore_index=True,
    )
    want = want[want["key"].isin(set(new_keys.to_pylist()))]
    assert len(want) >= 120
    pd.testing.assert_frame_equal(
        got.sort_values(["file_idx", "pos"]).reset_index(drop=True),
        want.astype({"file_idx": np.int32}).reset_index(drop=True),
    )

    schema = pa.schema(
        [("key", pa.string()), ("file_idx", pa.int32()), ("pos", pa.int64())]
    )
    fresh_keys = make_sequences_table(50, seed=9)["doc_id"].combine_chunks()
    for files, keys in (
        (prior, fresh_keys), ([], new_keys), (prior, new_keys.slice(0, 0))
    ):
        empty = _prior_matches(files, keys)
        assert len(empty) == 0 and empty.schema == schema
        # distinct new keys with no prior match: nothing to flag
        assert len(_append_probe(pc.unique(keys), empty["key"])) == 0


def test_append_keep_none_falls_back_to_rebuild(corpus, tmp_path):
    out = str(tmp_path / "out")
    cfg = PipelineConfig(out_dir=out, dedup_keep="none", quantile_cap=CAP)
    run_rollup_pipeline(corpus, cfg)
    pq.write_table(
        make_sequences_table(1_000, seed=5),
        os.path.join(corpus, "part-9000.parquet"),
    )
    m = run_rollup_pipeline(corpus, cfg)
    # retroactive policy -> rebuild, and the run record says why
    assert m["incremental_append"] is False
    assert m["append_fallback"] == "keep_none"
    out2 = str(tmp_path / "scratch")
    run_rollup_pipeline(
        corpus,
        PipelineConfig(out_dir=out2, dedup_keep="none", quantile_cap=CAP),
        resume=False,
    )
    for tier in ("1m", "5m", "1h"):
        pd.testing.assert_frame_equal(_tier(out, tier), _tier(out2, tier))


def test_append_modified_prior_file_rebuilds(corpus, tmp_path):
    out = str(tmp_path / "out")
    cfg = PipelineConfig(out_dir=out, quantile_cap=CAP)
    run_rollup_pipeline(corpus, cfg)
    # rewrite a prior file in place (content change) -> full rebuild
    p = os.path.join(corpus, "part-0000.parquet")
    t = pq.read_table(p)
    shutil.copy(p, p + ".bak")
    pq.write_table(t.slice(0, len(t) - 10), p)
    m = run_rollup_pipeline(corpus, cfg)
    assert m["incremental_append"] is False
    assert m["append_fallback"] == "prior_file_changed"
    assert m["tiers"], "rebuilt"


HOUR = 3_600_000_000
KEEP_1M = ("1h", None, None)  # only the 1m tier has a retention duration


def _corpus_clock() -> int:
    """The corpus spans 4 hours from BASE_EPOCH_MINUTE: a clock at its end."""
    from contest_parsing_ray.sources.synthetic import BASE_EPOCH_MINUTE

    return (BASE_EPOCH_MINUTE + 240) * 60_000_000


def _outputs(out_dir: str, tiers=("1m", "5m", "1h")) -> dict:
    """Every tier data, state and chunk file under ``out_dir``, read."""
    files = {}
    for tier in tiers:
        for sub in ("rollup/data", "rollup/state", "chunks"):
            root = os.path.join(out_dir, sub, f"tier={tier}")
            for d, _, names in os.walk(root):
                for f in names:
                    path = os.path.join(d, f)
                    files[os.path.relpath(path, out_dir)] = pq.read_table(path)
    return files


def _assert_same_outputs(got: dict, want: dict) -> None:
    assert sorted(got) == sorted(want)
    for k in want:
        assert got[k].equals(want[k]), k


def test_partial_resume_keeps_retention_cutoff(corpus, tmp_path):
    """The cutoff is stored apart from the tier manifests: deleting
    ``manifests/1m.json`` after a clocked build and resuming without a
    clock rebuilds the 1m tier from the partials, which hold every
    bucket, and cuts it at the stored cutoff again."""
    out = str(tmp_path / "out")
    cfg = PipelineConfig(out_dir=out, quantile_cap=CAP, retention_keep=KEEP_1M)
    now = _corpus_clock()
    run_rollup_pipeline(corpus, cfg, retention_now_us=now)
    before = _outputs(out, ["1m"])
    os.remove(os.path.join(out, "manifests", "1m.json"))
    m = run_rollup_pipeline(corpus, cfg)
    assert list(m["tiers"]) == ["1m"]
    assert m["tiers"]["1m"]["retention_cutoff_us"] == now - HOUR
    assert not {"dedup_probe", "dv_scan_write"} & set(m["stage_seconds"])
    assert m["deduped_table"] == "reused"
    _assert_same_outputs(_outputs(out, ["1m"]), before)
    with open(os.path.join(out, "manifests", "1m.json")) as f:
        assert json.load(f)["retention_cutoff_us"] == now - HOUR


@pytest.mark.parametrize("later_min", [0, 60], ids=["same_clock", "later_clock"])
def test_append_with_clock_equals_fresh_build(corpus, tmp_path, later_min):
    """A clocked build plus a one-file append equals a fresh build with
    the append's clock (tier data, state and chunks): gap-fill never sees
    an expired bucket, so the LOCF row at the cutoff cannot depend on what
    was expired before. The appended file holds rows of two sources only,
    from the whole corpus span (late rows below the cutoff included); at a
    later clock the append also re-cuts the sources it did not touch."""
    out = str(tmp_path / "out")
    cfg = PipelineConfig(out_dir=out, quantile_cap=CAP, retention_keep=KEEP_1M)
    now = _corpus_clock()
    run_rollup_pipeline(corpus, cfg, retention_now_us=now)
    extra = make_sequences_table(2_000, seed=7)
    two = pc.unique(extra["source"]).to_pylist()[:2]
    extra = extra.filter(pc.is_in(extra["source"], pa.array(two)))
    pq.write_table(extra, os.path.join(corpus, "part-9000.parquet"))

    later = now + later_min * 60_000_000
    m = run_rollup_pipeline(corpus, cfg, retention_now_us=later)
    assert m["incremental_append"] is True
    assert m["tiers"]["1m"]["appended_sources"] == sorted(two)
    assert m["tiers"]["1m"]["retention_cutoff_us"] == later - HOUR
    assert m["tiers"]["1m"]["retention_dropped"] > 0
    fresh = str(tmp_path / "fresh")
    run_rollup_pipeline(
        corpus,
        PipelineConfig(out_dir=fresh, quantile_cap=CAP, retention_keep=KEEP_1M),
        retention_now_us=later,
        resume=False,
    )
    _assert_same_outputs(_outputs(out), _outputs(fresh))
    for tier in ("1m", "5m", "1h"):
        with open(os.path.join(out, "manifests", f"{tier}.json")) as f:
            got = json.load(f)
        with open(os.path.join(fresh, "manifests", f"{tier}.json")) as f:
            want = json.load(f)
        for key in ("partitions", "total_rows"):
            assert got[key] == want[key], (tier, key)
        assert got.get("retention_cutoff_us") == want.get("retention_cutoff_us")


def test_append_onto_tier_emptied_by_retention(corpus, tmp_path):
    """A clock past the whole corpus leaves the 1m tier with no points and
    so no stored state; the next one-file append still runs incrementally
    (the tier's manifest lists no partitions, so there is no state to
    merge) and equals a fresh build with the same clock."""
    out = str(tmp_path / "out")
    cfg = PipelineConfig(out_dir=out, quantile_cap=CAP, retention_keep=KEEP_1M)
    later = _corpus_clock() + 100 * HOUR
    m = run_rollup_pipeline(corpus, cfg, retention_now_us=later)
    assert m["tiers"]["1m"]["points"] == 0
    pq.write_table(
        make_sequences_table(2_000, seed=7),
        os.path.join(corpus, "part-9000.parquet"),
    )
    m = run_rollup_pipeline(corpus, cfg, retention_now_us=later)
    assert m["incremental_append"] is True
    assert "append_fallback" not in m
    assert m["tiers"]["1m"]["points"] == 0
    fresh = str(tmp_path / "fresh")
    run_rollup_pipeline(
        corpus,
        PipelineConfig(out_dir=fresh, quantile_cap=CAP, retention_keep=KEEP_1M),
        retention_now_us=later,
        resume=False,
    )
    _assert_same_outputs(_outputs(out), _outputs(fresh))
    for tier in ("1m", "5m", "1h"):
        with open(os.path.join(out, "manifests", f"{tier}.json")) as f:
            got = json.load(f)
        with open(os.path.join(fresh, "manifests", f"{tier}.json")) as f:
            want = json.load(f)
        for key in ("partitions", "total_rows", "retention_cutoff_us"):
            assert got.get(key) == want.get(key), (tier, key)


def test_later_clock_recuts_current_out_dir(corpus, tmp_path):
    """A later clock on an out_dir whose tiers are all current re-cuts the
    tiers whose watermark moved, from the reused partials (no probe, no
    scan), says so in the run record, and equals a fresh build with that
    clock; an earlier clock, or none, moves no watermark back."""
    out = str(tmp_path / "out")
    cfg = PipelineConfig(out_dir=out, quantile_cap=CAP, retention_keep=KEEP_1M)
    now = _corpus_clock()
    first = run_rollup_pipeline(corpus, cfg, retention_now_us=now)
    m = run_rollup_pipeline(corpus, cfg, retention_now_us=now + HOUR)
    assert m["tiers_recut_by_retention"] == ["1m"]
    assert m["tiers_skipped_by_resume"] == ["1h", "5m"]
    assert not {"dedup_probe", "dv_scan_write"} & set(m["stage_seconds"])
    assert m["deduped_table"] == "reused"
    assert m["tiers"]["1m"]["retention_dropped"] > 0
    assert m["tiers"]["1m"]["points"] < first["tiers"]["1m"]["points"]
    fresh = str(tmp_path / "fresh")
    run_rollup_pipeline(
        corpus,
        PipelineConfig(out_dir=fresh, quantile_cap=CAP, retention_keep=KEEP_1M),
        retention_now_us=now + HOUR,
        resume=False,
    )
    recut = _outputs(out)
    _assert_same_outputs(recut, _outputs(fresh))
    for clock in (now, None):
        m = run_rollup_pipeline(corpus, cfg, retention_now_us=clock)
        assert m["tiers"] == {} and m["tiers_recut_by_retention"] == []
    _assert_same_outputs(_outputs(out), recut)


def test_keyed_rewrite_drops_emptied_source(tmp_path):
    """A rewrite of listed sources (an append) deletes the file and the
    partition of a listed source left with no rows, e.g. all below a moved
    retention cutoff, as a fresh build would not write them; an unlisted
    source stays."""
    from contest_parsing_ray.stages.retention import tier_data_dir, write_tiers_local

    out = str(tmp_path)
    t = pa.table({"source": ["a", "b", "c"], "bucket_us": pa.array([1, 2, 3], pa.int64())})
    write_tiers_local({"1m": t}, out, "in", "cfg")
    m = write_tiers_local({"1m": t.slice(0, 1)}, out, "in", "cfg", sources=["a", "b"])
    assert sorted(m["1m"]["partitions"]) == ["a", "c"]
    assert m["1m"]["total_rows"] == 2
    assert sorted(os.listdir(tier_data_dir(out, "1m"))) == ["source=a", "source=c"]


def test_old_no_tokens_out_dir_rebuilds_once(corpus, tmp_path):
    """An out_dir whose --no-tokens build wrote the older layout (a
    deduped/data table and a deduped manifest under the older fingerprint,
    no deletion-vector files) neither crashes an append nor a resume under
    a changed config: each rebuilds the deduped table once, and the tiers
    equal a fresh build's."""
    from contest_parsing_ray.sources.ingest import derive_event_time
    from contest_parsing_ray.stages.deletion_vector import dv_manifest_file
    from contest_parsing_ray.stages.retention import write_tier_manifest
    from contest_parsing_ray.state.manifest import (
        fingerprint_config,
        fingerprint_input,
        input_file_fingerprints,
    )

    old = str(tmp_path / "old")
    run_rollup_pipeline(corpus, PipelineConfig(out_dir=old, ingest_tokens=False))
    dedup_dir = os.path.join(old, "deduped")
    shutil.rmtree(dedup_dir)
    pq.write_to_dataset(
        derive_event_time(
            pq.read_table(os.path.join(corpus, "part-0000.parquet"),
                          columns=["doc_id", "n_tok", "source"])
        ),
        os.path.join(dedup_dir, "data"),
        partition_cols=["source"],
    )
    old_fp = fingerprint_config(
        {"in": fingerprint_input(corpus, input_file_fingerprints(corpus)),
         "keep": "first", "tokens": False}
    )
    write_tier_manifest(old, "deduped", {
        "tier": "deduped", "input_fingerprint": old_fp,
        "config_fingerprint": old_fp, "partitions": {}, "completed": True,
    })
    resumed = str(tmp_path / "resumed")
    shutil.copytree(old, resumed)

    def check(out, cfg_kw, fresh):
        assert not os.path.exists(os.path.join(out, "deduped", "data"))
        with open(dv_manifest_file(os.path.join(out, "deduped"))) as f:
            assert json.load(f)["tokens"] is False
        run_rollup_pipeline(
            corpus, PipelineConfig(out_dir=fresh, ingest_tokens=False, **cfg_kw),
            resume=False,
        )
        for tier in ("1m", "5m", "1h"):
            pd.testing.assert_frame_equal(_tier(out, tier), _tier(fresh, tier))

    # a resume under a changed config reuses no deduped/data
    m = run_rollup_pipeline(
        corpus,
        PipelineConfig(out_dir=resumed, ingest_tokens=False, gapfill_mode="linear"),
    )
    assert sorted(m["tiers"]) == ["1h", "1m", "5m"]
    check(resumed, {"gapfill_mode": "linear"}, str(tmp_path / "fresh-linear"))

    # an append finds no deletion vectors: it rebuilds and says why
    pq.write_table(
        make_sequences_table(1_000, seed=5),
        os.path.join(corpus, "part-9000.parquet"),
    )
    m = run_rollup_pipeline(corpus, PipelineConfig(out_dir=old, ingest_tokens=False))
    assert m["incremental_append"] is False
    assert m["append_fallback"] == "dv_manifest"
    check(old, {}, str(tmp_path / "fresh-append"))


def test_append_onto_dv_manifest_without_token_mode(corpus, tmp_path):
    """A default build whose dv_manifest.json predates the recorded token
    mode (no ``tokens`` key: such builds always decoded tokens) still
    appends incrementally."""
    from contest_parsing_ray.stages.deletion_vector import dv_manifest_file

    out = str(tmp_path / "out")
    cfg = PipelineConfig(out_dir=out, quantile_cap=CAP)
    run_rollup_pipeline(corpus, cfg)
    path = dv_manifest_file(os.path.join(out, "deduped"))
    with open(path) as f:
        man = json.load(f)
    del man["tokens"]
    with open(path, "w") as f:
        json.dump(man, f)
    pq.write_table(
        make_sequences_table(1_000, seed=5),
        os.path.join(corpus, "part-9000.parquet"),
    )
    m = run_rollup_pipeline(corpus, cfg)
    assert m["incremental_append"] is True


def test_append_after_exchange_build_appends(corpus, tmp_path, monkeypatch):
    """A build whose tier merge ran through the exchange (P > 1) still
    writes the mergeable state, so the next run appends instead of
    rebuilding, and its tiers equal a from-scratch build."""
    from contest_parsing_ray.pipelines import rollup_pipeline

    monkeypatch.setattr(rollup_pipeline, "DRIVER_MERGE_BYTES", -1)
    out = str(tmp_path / "out")
    cfg = PipelineConfig(out_dir=out, quantile_cap=CAP)
    m1 = run_rollup_pipeline(corpus, cfg)
    assert m1["tier_merge"]["partitions"] > 1
    pq.write_table(
        make_sequences_table(2_000, seed=7),
        os.path.join(corpus, "part-9000.parquet"),
    )
    m2 = run_rollup_pipeline(corpus, cfg)
    assert m2.get("incremental_append") is True
    assert m2["tier_merge"]["partitions"] > 1
    monkeypatch.undo()

    out2 = str(tmp_path / "scratch")
    m3 = run_rollup_pipeline(
        corpus, PipelineConfig(out_dir=out2, quantile_cap=CAP), resume=False
    )
    assert m3["tier_merge"]["partitions"] == 1
    for tier in ("1m", "5m", "1h"):
        pd.testing.assert_frame_equal(_tier(out, tier), _tier(out2, tier))


def test_append_late_events_update_finalized_buckets_and_chunks(
    corpus, tmp_path
):
    """LATE-DATA CONTRACT (round-5 task #8): appending a shard whose
    events land in already-finalized buckets must (a) take the
    incremental path, (b) merge the deltas into those old buckets
    exactly (tiers == from-scratch rebuild), and (c) leave the
    compressed chunks (exec-5 output) consistent — chunks are a pure
    function of the tier data and are regenerated on append, so the
    incremental run's chunks must equal a from-scratch rebuild's
    byte-for-byte."""
    import pyarrow as pa

    out = str(tmp_path / "out")
    cfg = PipelineConfig(out_dir=out, quantile_cap=CAP)
    m1 = run_rollup_pipeline(corpus, cfg)
    assert m1["tiers"]
    before = _tier(out, "1h")

    # late shard: rows re-pinned to the corpus's EARLIEST minute (buckets
    # finalized long ago), with fresh seq/doc ids so dedup keeps them
    base0 = pq.read_table(os.path.join(corpus, "part-0000.parquet"))
    ids = base0["doc_id"].to_pylist()
    min_minute = min(int(i.split("/")[1]) for i in ids)
    late = base0.slice(0, 200)
    new_ids = [
        f"{i.split('/')[0]}/{min_minute:012d}/{900000 + k:06d}"
        for k, i in enumerate(late["doc_id"].to_pylist())
    ]
    late = late.set_column(
        late.schema.get_field_index("doc_id"), "doc_id",
        pa.array(new_ids, pa.string()),
    )
    pq.write_table(late, os.path.join(corpus, "part-9100.parquet"))

    m2 = run_rollup_pipeline(corpus, cfg)
    assert m2.get("incremental_append") is True

    # the earliest (long-finalized) 1h bucket gained the late counts
    after = _tier(out, "1h")
    b0 = before.groupby("bucket_us")["cnt"].sum()
    a0 = after.groupby("bucket_us")["cnt"].sum()
    first_bucket = a0.index.min()
    assert a0[first_bucket] == b0.get(first_bucket, 0) + 200

    # tiers: incremental == from-scratch
    out2 = str(tmp_path / "scratch")
    run_rollup_pipeline(
        corpus, PipelineConfig(out_dir=out2, quantile_cap=CAP), resume=False
    )
    for tier in ("1m", "5m", "1h"):
        pd.testing.assert_frame_equal(_tier(out, tier), _tier(out2, tier))

    # chunks: regenerated on append, equal to the rebuild's byte-for-byte
    for tier in ("1m", "5m", "1h"):
        ca = pads.dataset(
            os.path.join(out, "chunks", f"tier={tier}")
        ).to_table().to_pandas()
        cb = pads.dataset(
            os.path.join(out2, "chunks", f"tier={tier}")
        ).to_table().to_pandas()
        key = ["source", "chunk_id"]
        ca = ca.sort_values(key, kind="stable").reset_index(drop=True)
        cb = cb.sort_values(key, kind="stable").reset_index(drop=True)
        pd.testing.assert_frame_equal(ca[sorted(ca.columns)],
                                      cb[sorted(cb.columns)])


@pytest.mark.parametrize("cap", [4096, 64], ids=["default_cap", "gridded"])
def test_append_equals_fresh_build_bytes(tmp_path, cap):
    """A 28-file build plus a one-file append writes the same bytes as a
    fresh 29-file build in rollup/state, rollup/data and chunks/. At the
    default cap the largest 1h groups hold more values than the cap and
    every state stays exact; at cap 64 most groups are gridded, and the
    append still equals the build."""
    src = write_sequences_parquet(
        str(tmp_path / "seq"), n_rows=29_000, seed=7, num_files=29
    )
    files = sorted(f for f in os.listdir(src) if f.endswith(".parquet"))
    corpus = str(tmp_path / "in")
    os.makedirs(corpus)
    for f in files[:28]:
        os.link(os.path.join(src, f), os.path.join(corpus, f))
    out, fresh = str(tmp_path / "out"), str(tmp_path / "fresh")
    run_rollup_pipeline(corpus, PipelineConfig(out_dir=out, quantile_cap=cap))
    os.link(os.path.join(src, files[28]), os.path.join(corpus, files[28]))
    m = run_rollup_pipeline(corpus, PipelineConfig(out_dir=out, quantile_cap=cap))
    assert m["incremental_append"] is True
    run_rollup_pipeline(
        corpus, PipelineConfig(out_dir=fresh, quantile_cap=cap), resume=False
    )
    from contest_parsing_ray.stages.retention import read_tier_state

    state = read_tier_state(fresh, "1h")
    flags = [int(np.frombuffer(b[8:16], dtype=np.int64)[0]) for b in state["qsum"]]
    assert (state["cnt"] > 4096).any()
    assert (3 in flags) is (cap == 64)
    for sub in ("rollup/state", "rollup/data", "chunks"):
        got = _file_bytes(out, sub)
        assert got and got == _file_bytes(fresh, sub), sub


def _raw_value_blobs(blobs: pa.ChunkedArray) -> pa.Array:
    """The older quantile blob of each (value, count) pair blob: int64 n,
    int64 flag 1, then the n values one by one."""
    out = []
    for b in blobs.to_pylist():
        n = int(np.frombuffer(b[:8], dtype="<i8")[0])
        v = np.frombuffer(b[16 : 16 + 8 * n], dtype="<f8")
        c = np.frombuffer(b[16 + 8 * n :], dtype="<i4")
        vals = np.repeat(v, c)
        out.append(np.array([len(vals), 1], dtype="<i8").tobytes() + vals.tobytes())
    return pa.array(out, type=pa.binary())


def _to_raw_value_out_dir(out: str, corpus: str, cfg: PipelineConfig) -> None:
    """Rewrite an out_dir as the engine wrote it before the (value, count)
    pair state: raw-value blobs in the stored state and the partials, and
    the fingerprints without the blob format."""
    from contest_parsing_ray.stages.deletion_vector import (
        dv_manifest_file,
        fused_partials_dir,
    )
    from contest_parsing_ray.state.manifest import (
        fingerprint_config,
        fingerprint_input,
        input_file_fingerprints,
    )

    dedup = os.path.join(out, "deduped")
    paths = [
        os.path.join(d, f)
        for root in (os.path.join(out, "rollup", "state"), fused_partials_dir(dedup))
        for d, _, names in os.walk(root)
        for f in names
        if f.endswith(".parquet")
    ]
    for path in paths:
        t = pq.read_table(path)
        i = t.schema.get_field_index("qsum")
        pq.write_table(t.set_column(i, "qsum", _raw_value_blobs(t["qsum"])), path)
    input_fp = fingerprint_input(corpus, input_file_fingerprints(corpus))
    partials_fp = fingerprint_config({
        "in": input_fp, "keep": cfg.dedup_keep,
        "tiers": dict(zip(cfg.tiers, cfg.tier_widths_us)),
        "cap": cfg.quantile_cap, "mode": "nearest", "value": "n_tok",
        "ck": cfg.ingest_tokens,
    })
    config_fp = fingerprint_config({
        "tiers": cfg.tiers, "dedup_keep": cfg.dedup_keep,
        "quantile_cap": cfg.quantile_cap, "ingest_tokens": cfg.ingest_tokens,
        "gapfill_mode": cfg.gapfill_mode, "chunk_points": cfg.chunk_points,
    })
    with open(dv_manifest_file(dedup)) as f:
        man = json.load(f)
    man["partials_fingerprint"] = partials_fp
    with open(dv_manifest_file(dedup), "w") as f:
        json.dump(man, f)
    for tier in cfg.tiers:
        path = os.path.join(out, "manifests", f"{tier}.json")
        with open(path) as f:
            man = json.load(f)
        man["config_fingerprint"] = config_fp
        with open(path, "w") as f:
            json.dump(man, f)


@pytest.mark.parametrize("new_input", [False, True], ids=["resume", "append"])
def test_old_raw_value_out_dir_rebuilds_once(corpus, tmp_path, new_input):
    """An out_dir whose quantile state holds raw-value blobs (the format
    before (value, count) pairs, under fingerprints that do not record the
    blob format) rebuilds the deduped table and every tier once on
    ``resume=True``, also when a new input file makes it look like an
    append: no old blob reaches the merge (whose decoder raises on one),
    and the outputs equal a fresh build's. The next run appends."""
    out, fresh = str(tmp_path / "out"), str(tmp_path / "fresh")
    cfg = PipelineConfig(out_dir=out)
    run_rollup_pipeline(corpus, cfg)
    _to_raw_value_out_dir(out, corpus, cfg)
    if new_input:
        pq.write_table(
            make_sequences_table(1_000, seed=5),
            os.path.join(corpus, "part-9000.parquet"),
        )
    m = run_rollup_pipeline(corpus, cfg)
    assert m["deduped_table"] == "built"
    assert "incremental_append" not in m
    assert sorted(m["tiers"]) == ["1h", "1m", "5m"]
    run_rollup_pipeline(corpus, PipelineConfig(out_dir=fresh), resume=False)
    for sub in ("rollup/state", "rollup/data", "chunks"):
        assert _file_bytes(out, sub) == _file_bytes(fresh, sub), sub
    assert run_rollup_pipeline(corpus, cfg)["tiers"] == {}
    pq.write_table(
        make_sequences_table(1_000, seed=9),
        os.path.join(corpus, "part-9001.parquet"),
    )
    assert run_rollup_pipeline(corpus, cfg)["incremental_append"] is True


def _column_chunks(root: str):
    """(file, column name, column chunk metadata) of every parquet file
    under ``root``."""
    for d, _, names in os.walk(root):
        for f in names:
            meta = pq.read_metadata(os.path.join(d, f))
            for r in range(meta.num_row_groups):
                rg = meta.row_group(r)
                for c in range(rg.num_columns):
                    col = rg.column(c)
                    yield f, col.path_in_schema, col


def test_stored_files_follow_the_storage_rule(corpus, tmp_path):
    """Every stored file comes from one writer whose encoding follows the
    column type: the opaque blob columns (``qsum`` in the state and the
    partials, ``ts_dod`` / ``vals_xor`` in the chunks) are zstd with no
    statistics, and every other column keeps snappy and its statistics,
    so ``rollup/data`` can still be range-read on ``bucket_us``."""
    out = str(tmp_path / "out")
    run_rollup_pipeline(corpus, PipelineConfig(out_dir=out))
    blobs = {"qsum", "ts_dod", "vals_xor"}
    seen = set()
    for sub in ("rollup/state", "rollup/data", "deduped/partials",
                "deduped/deletion_vectors", "chunks"):
        for f, name, col in _column_chunks(os.path.join(out, sub)):
            seen.add((sub, name))
            if name in blobs:
                assert col.compression == "ZSTD", (sub, f, name)
                assert not col.is_stats_set, (sub, f, name)
            else:
                assert col.compression == "SNAPPY", (sub, f, name)
                assert col.is_stats_set, (sub, f, name)
    for sub, name in (("rollup/state", "qsum"), ("deduped/partials", "qsum"),
                      ("chunks", "ts_dod"), ("chunks", "vals_xor"),
                      ("rollup/data", "bucket_us")):
        assert (sub, name) in seen, (sub, name)
    for f, name, col in _column_chunks(os.path.join(out, "rollup/data")):
        if name == "bucket_us":
            assert col.statistics.has_min_max and col.statistics.min <= col.statistics.max
    # no tmp file of the tmp-then-move is left behind
    leftovers = [f for _, _, names in os.walk(out) for f in names if f.endswith(".tmp")]
    assert leftovers == []


def test_append_onto_snappy_state_equals_fresh_build(corpus, tmp_path):
    """An out_dir whose state and partials were written with pyarrow's
    defaults (snappy, statistics on every column), as the engine wrote them
    before its one writer, appends with no rebuild, and its tier data,
    state and chunks equal a fresh build's."""
    out, fresh = str(tmp_path / "out"), str(tmp_path / "fresh")
    run_rollup_pipeline(corpus, PipelineConfig(out_dir=out))
    for root in ("rollup/state", "deduped/partials"):
        for d, _, names in os.walk(os.path.join(out, root)):
            for f in names:
                path = os.path.join(d, f)
                pq.write_table(pq.ParquetFile(path).read(), path)
    qsum = [col for _, name, col in _column_chunks(os.path.join(out, "rollup/state"))
            if name == "qsum"]
    assert qsum and all(c.compression == "SNAPPY" and c.is_stats_set for c in qsum)
    pq.write_table(
        make_sequences_table(2_000, seed=7), os.path.join(corpus, "part-9000.parquet")
    )
    m = run_rollup_pipeline(corpus, PipelineConfig(out_dir=out))
    assert m["incremental_append"] is True
    run_rollup_pipeline(corpus, PipelineConfig(out_dir=fresh), resume=False)
    _assert_same_outputs(_outputs(out), _outputs(fresh))
