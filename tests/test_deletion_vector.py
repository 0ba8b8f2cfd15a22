"""Deletion-vector (merge-on-read) dedup: the flagship's deduped table.

References are built without engine code: a pandas keep-first dedup of the
raw files (event time recomputed from ``doc_id``) feeds the DuckDB tier
oracle of ``tests/test_rollup.py``, a plain per-row loop gives the token
checksums, and the merge-on-read view must equal the deduped rows
row-for-row (the token-array-equality invariant, BASELINE.json input_hint).
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray.data

from contest_parsing_ray.config import PipelineConfig
from contest_parsing_ray.pipelines.rollup_pipeline import (
    _fused_partial_fn,
    _fused_partials_fp,
    run_rollup_pipeline,
)
from contest_parsing_ray.stages import deletion_vector
from contest_parsing_ray.stages.deletion_vector import (
    dv_manifest_file,
    fused_partials_dir,
    load_deletion_vectors,
    read_deduped_dv,
    read_dv_manifest,
)
from contest_parsing_ray.state.manifest import (
    fingerprint_input,
    input_file_fingerprints,
    parquet_input_files,
)
from test_rollup import _norm, _oracle

TIERS = {"1m": 60_000_000, "5m": 300_000_000, "1h": 3_600_000_000}
MASK64 = (1 << 64) - 1


def _tier_frame(out_dir: str, tier: str) -> pd.DataFrame:
    t = pads.dataset(
        os.path.join(out_dir, "rollup", "data", f"tier={tier}"),
        partitioning="hive",
    ).to_table().to_pandas()
    t = t[sorted(t.columns)]
    return t.sort_values(["source", "bucket_us"], kind="stable").reset_index(
        drop=True
    )


def build_deduped_dv(input_path: str, out_dir: str, **kw) -> dict:
    """The deletion-vector build with the default config's partials."""
    cfg = PipelineConfig()
    listing = input_file_fingerprints(input_path)
    return deletion_vector.build_deduped_dv(
        input_path, parquet_input_files(input_path, listing), out_dir,
        _fused_partial_fn(cfg),
        _fused_partials_fp(cfg, fingerprint_input(input_path, listing)), **kw
    )


def _partials(out_dir: str) -> pd.DataFrame:
    """The build's partial rows summed per (source, 1m bucket): the
    survivors' rolled-up counts and sums, whatever shards hold them."""
    t = pads.dataset(fused_partials_dir(out_dir)).to_table().to_pandas()
    return (
        t.groupby(["source", "bucket_1m"])
        .agg(cnt=("cnt", "sum"), sum_v=("sum_v", "sum"),
             min_v=("min_v", "min"), max_v=("max_v", "max"))
        .reset_index()
    )


@pytest.fixture(scope="module")
def kept_rows(sequences_dir) -> pd.DataFrame:
    """Pandas keep-first dedup of the raw files in sorted file order, with
    event time recomputed from doc_id ('<source>/<minute>/<seq>'), the
    token bytes and a per-row loop checksum sum((i+1)*(t_i+1)) mod 2^64."""
    files = sorted(pads.dataset(sequences_dir).files)
    raw = pd.concat(
        [pq.read_table(f).to_pandas() for f in files], ignore_index=True
    )
    kept = raw.drop_duplicates(subset="doc_id", keep="first").reset_index(
        drop=True
    )
    fields = kept["doc_id"].str.split("/", expand=True)
    minute = fields[1].astype(np.int64)
    seq = fields[2].astype(np.int64)
    kept["event_time_us"] = minute * 60_000_000 + (seq * 997_003) % 60_000_000
    kept["tok_bytes"] = kept["tokens"].map(
        lambda a: np.asarray(a, dtype=np.int32).tobytes()
    )
    cks = []
    for toks in kept["tokens"]:
        ck = 0
        for i, t in enumerate(toks):
            ck += (i + 1) * (int(t) + 1)
        cks.append(ck & MASK64)
    kept["token_ck"] = cks
    return kept


@pytest.fixture(scope="module")
def default_build(sequences_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("dv_default"))
    run_rollup_pipeline(sequences_dir, PipelineConfig(out_dir=out), resume=False)
    return out


def test_tiers_match_oracle(default_build, kept_rows):
    """Non-filled tier rows == the DuckDB oracle over the pandas dedup."""
    for tier, width in TIERS.items():
        got = _tier_frame(default_build, tier)
        got = got[~got["filled"]].assign(source=lambda d: d["source"].astype(str))
        want = _oracle(kept_rows[["source", "n_tok", "event_time_us"]], width, "nearest")
        pd.testing.assert_frame_equal(_norm(got), _norm(want), check_dtype=False)


def test_token_checksums_match_row_loop(default_build, kept_rows):
    want = {
        str(src): sum(cks) & MASK64
        for src, cks in kept_rows.groupby("source")["token_ck"]
    }
    for tier in TIERS:
        with open(os.path.join(default_build, "manifests", f"{tier}.json")) as f:
            got = json.load(f)["token_checksums"]
        assert {k: int(v) & MASK64 for k, v in got.items()} == want
    assert len(want) == 8


def test_merge_on_read_payload_equals_pandas_dedup(default_build, kept_rows):
    """Token-array equality: the DV view yields exactly the deduped rows
    (same doc_ids, byte-identical token arrays)."""
    dv = read_deduped_dv(os.path.join(default_build, "deduped")).to_pandas()
    dv["tok_bytes"] = dv["tokens"].map(
        lambda a: np.asarray(a, dtype=np.int32).tobytes()
    )
    cols = ["doc_id", "n_tok", "tok_bytes"]
    a = dv[cols].sort_values("doc_id").reset_index(drop=True)
    b = kept_rows[cols].sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_dv_keep_none_drops_all_copies(sequences_dir, tmp_path):
    out = str(tmp_path / "dv_none")
    m = build_deduped_dv(sequences_dir, out, keep="none")
    # every flagged TRUE duplicate is deleted under keep='none'
    raw = ray.data.read_parquet(sequences_dir).to_pandas()
    dup_keys = raw["doc_id"].value_counts()
    n_dup_rows = int(dup_keys[dup_keys > 1].sum())
    assert m["n_deleted"] == n_dup_rows > 0
    survivors = read_deduped_dv(out).to_pandas()
    assert len(survivors) == len(raw) - n_dup_rows
    assert survivors["doc_id"].is_unique
    # the partials count exactly the survivors
    assert _partials(out)["cnt"].sum() == len(survivors)


def test_dv_keep_first_deterministic(sequences_dir, tmp_path):
    """keep='first' keeps exactly one copy per key — the minimum
    (file_idx, pos) — and two builds produce identical vectors."""
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    m1 = build_deduped_dv(sequences_dir, out1, keep="first")
    m2 = build_deduped_dv(sequences_dir, out2, keep="first")
    assert m1["n_deleted"] == m2["n_deleted"] > 0
    dv1, dv2 = load_deletion_vectors(out1), load_deletion_vectors(out2)
    assert dv1.keys() == dv2.keys()
    for k in dv1:
        np.testing.assert_array_equal(dv1[k], dv2[k])
    survivors = read_deduped_dv(out1).to_pandas()
    assert survivors["doc_id"].is_unique
    raw = ray.data.read_parquet(sequences_dir).to_pandas()
    assert len(survivors) == raw["doc_id"].nunique()


def test_dv_distributed_decision_matches_local(sequences_dir, tmp_path, monkeypatch):
    """LOCAL_THRESHOLD=0 forces the distributed winner decision — the
    deletion vectors must be identical to the driver-side decision. So for
    an append, whose exchange carries the prior occurrences of the new
    keys as its second input: the new file holds fresh rows, copies of
    prior rows and copies among its own rows, and the deletion vectors,
    the partials' survivors and the tiers equal the driver-side decide's."""
    from contest_parsing_ray.sources.synthetic import make_sequences_table

    out_l, out_d = str(tmp_path / "local"), str(tmp_path / "dist")
    build_deduped_dv(sequences_dir, out_l, keep="first")
    monkeypatch.setattr(deletion_vector, "LOCAL_THRESHOLD", 0)
    build_deduped_dv(sequences_dir, out_d, keep="first")
    dv_l, dv_d = load_deletion_vectors(out_l), load_deletion_vectors(out_d)
    assert dv_l.keys() == dv_d.keys()
    for k in dv_l:
        np.testing.assert_array_equal(dv_l[k], dv_d[k])
    # the partials roll up the same survivors
    pd.testing.assert_frame_equal(_partials(out_l), _partials(out_d))

    names = sorted(pads.dataset(sequences_dir).files)
    fresh = make_sequences_table(1_000, seed=5)
    new = pa.concat_tables(
        [fresh, pq.read_table(names[0]).slice(0, 100), fresh.slice(0, 40)]
    )
    outs = {}
    for name, threshold in (("local", 200_000), ("dist", 0)):
        monkeypatch.setattr(deletion_vector, "LOCAL_THRESHOLD", threshold)
        inp, out = str(tmp_path / f"in-{name}"), str(tmp_path / f"out-{name}")
        os.makedirs(inp)
        for f in names:
            os.link(f, os.path.join(inp, os.path.basename(f)))
        run_rollup_pipeline(inp, PipelineConfig(out_dir=out), resume=False)
        pq.write_table(new, os.path.join(inp, "part-9000.parquet"))
        m = run_rollup_pipeline(inp, PipelineConfig(out_dir=out))
        assert m["deduped_table"] == "appended", name
        outs[name] = os.path.join(out, "deduped")
        last = read_dv_manifest(outs[name])["appends"][-1]
        assert last["n_prior_matches"] >= 100 and last["n_deleted_new"] >= 140
    dv_l, dv_d = (load_deletion_vectors(d) for d in outs.values())
    assert dv_l.keys() == dv_d.keys() and len(names) in dv_l
    for k in dv_l:
        np.testing.assert_array_equal(dv_l[k], dv_d[k])
    pd.testing.assert_frame_equal(*(_partials(d) for d in outs.values()))
    for tier in TIERS:
        pd.testing.assert_frame_equal(
            *(_tier_frame(os.path.dirname(d), tier) for d in outs.values())
        )


def test_dv_bloom_probe_matches_exact(sequences_dir, tmp_path, monkeypatch):
    """BLOOM_THRESHOLD=1 broadcasts the duplicated keys as a Bloom filter
    (false positives become extra suspects): the deletion vectors must be
    identical to the exact-probe build under both keep policies."""
    for keep in ("first", "none"):
        out_e = str(tmp_path / f"exact_{keep}")
        out_b = str(tmp_path / f"bloom_{keep}")
        build_deduped_dv(sequences_dir, out_e, keep=keep)
        with monkeypatch.context() as mp:
            mp.setattr(deletion_vector, "BLOOM_THRESHOLD", 1)
            build_deduped_dv(sequences_dir, out_b, keep=keep)
        dv_e, dv_b = load_deletion_vectors(out_e), load_deletion_vectors(out_b)
        assert dv_e and dv_e.keys() == dv_b.keys(), keep
        for k in dv_e:
            np.testing.assert_array_equal(dv_e[k], dv_b[k])


def test_dv_no_duplicates_input(tmp_path):
    """An input with zero duplicate keys produces empty vectors and
    partials covering every row."""
    from contest_parsing_ray.sources.synthetic import write_sequences_parquet

    d = write_sequences_parquet(
        str(tmp_path / "seq"), n_rows=2_000, seed=7, num_files=2,
        dup_fraction=0.0,
    )
    out = str(tmp_path / "out")
    m = build_deduped_dv(d, out)
    assert m["n_deleted"] == 0
    assert load_deletion_vectors(out) == {}
    assert _partials(out)["cnt"].sum() == 2_000
    assert read_deduped_dv(out).count() == 2_000
    with open(dv_manifest_file(out)) as f:
        assert json.load(f)["completed"]


def test_dv_resume_skips_rebuild(sequences_dir, tmp_path):
    out = str(tmp_path / "out")
    cfg = PipelineConfig(out_dir=out)
    m1 = run_rollup_pipeline(sequences_dir, cfg)
    assert m1["tiers"]
    m2 = run_rollup_pipeline(sequences_dir, cfg)
    assert sorted(m2["tiers_skipped_by_resume"]) == ["1h", "1m", "5m"]
    assert m2["total_seconds"] < m1["total_seconds"] / 5


def test_deleted_partials_rebuild_deduped_table(sequences_dir, tmp_path):
    """The scan-fused partials (clean per-file shards + decide winners
    shards) are the only source of partial rows: a copy of the build with
    ``partials/`` and the tier manifests deleted re-runs the scan and
    merges to the same tier points."""
    out_f = str(tmp_path / "fused")
    run_rollup_pipeline(
        sequences_dir, PipelineConfig(out_dir=out_f), resume=False
    )
    # fused artifacts exist and the manifest records their fingerprint
    pdir = fused_partials_dir(os.path.join(out_f, "deduped"))
    assert any(f.startswith("clean-") for f in os.listdir(pdir))
    with open(dv_manifest_file(os.path.join(out_f, "deduped"))) as f:
        assert json.load(f)["partials_fingerprint"]

    out_s = str(tmp_path / "rebuilt")
    shutil.copytree(out_f, out_s)
    shutil.rmtree(fused_partials_dir(os.path.join(out_s, "deduped")))
    for tier in TIERS:
        os.remove(os.path.join(out_s, "manifests", f"{tier}.json"))
    m = run_rollup_pipeline(sequences_dir, PipelineConfig(out_dir=out_s))
    assert "dv_scan_write" in m["stage_seconds"]  # deduped table rebuilt
    assert m["deduped_table"] == "built"
    for tier in TIERS:
        pd.testing.assert_frame_equal(
            _tier_frame(out_f, tier), _tier_frame(out_s, tier)
        )


def test_fused_partials_stale_config_falls_back(sequences_dir, tmp_path):
    """Changing the tier spec invalidates the fused partials (fingerprint
    mismatch) — the pipeline re-runs the scan and matches a from-scratch
    build with the same spec."""
    out = str(tmp_path / "out")
    cfg1 = PipelineConfig(out_dir=out)
    run_rollup_pipeline(sequences_dir, cfg1, resume=False)
    # same out_dir, different tiers: the dedup manifest still matches but
    # the fused partials were built for the old tier set
    cfg2 = PipelineConfig(out_dir=out, tiers=("2m",))
    m = run_rollup_pipeline(sequences_dir, cfg2)
    assert "dv_scan_write" in m["stage_seconds"]  # deduped table rebuilt
    assert m["deduped_table"] == "built"
    assert m["tiers"].get("2m", {}).get("points", 0) > 0
    fresh = str(tmp_path / "fresh")
    run_rollup_pipeline(
        sequences_dir,
        PipelineConfig(out_dir=fresh, tiers=("2m",)),
        resume=False,
    )
    pd.testing.assert_frame_equal(_tier_frame(out, "2m"), _tier_frame(fresh, "2m"))


def test_dv_manifest_io_accepts_file_uri(tmp_path):
    """A file:// out_dir must write the manifest AT the resolved path —
    a raw open() would create a literal './file:/...' directory relative
    to the cwd (the round-3 stray artifact this guards against)."""
    import os

    from contest_parsing_ray.stages.deletion_vector import (
        dv_manifest_file,
        read_dv_manifest,
    )
    from contest_parsing_ray.state.manifest import write_manifest

    out = str(tmp_path / "dv_out")
    uri = "file://" + out
    write_manifest(dv_manifest_file(uri), {"files": [], "policy": "first"})
    # the manifest exists at the RESOLVED local path
    assert os.path.exists(dv_manifest_file(out))
    assert not os.path.exists("file:")  # no literal URI-named dir in cwd
    m = read_dv_manifest(uri)
    assert m["policy"] == "first"
    assert read_dv_manifest(out) == m  # plain-path read sees the same file


def test_dv_uri_out_dir_raises(tmp_path, sequences_dir):
    """The deletion-vector build, its append and the fused-partials read
    write and read local paths only: a URI out_dir raises instead of
    leaving empty partials next to a valid manifest."""
    from contest_parsing_ray.stages.deletion_vector import (
        append_deduped_dv,
        fused_partial_files,
    )

    out = str(tmp_path / "dv_out")
    uri = "file://" + out
    fn = _fused_partial_fn(PipelineConfig())
    for call in (
        lambda: build_deduped_dv(sequences_dir, uri),
        lambda: append_deduped_dv(
            sorted(pads.dataset(sequences_dir).files), uri, fn, "fp"
        ),
        lambda: fused_partial_files(uri, "fp"),
    ):
        with pytest.raises(ValueError, match="local out_dir"):
            call()
    assert not os.path.exists(out)


def _output_bytes(out_dir: str) -> dict[str, bytes]:
    """Deletion vectors, tier data/state and chunks, by relative path."""
    got = {}
    for sub in ("deduped/deletion_vectors", "rollup", "chunks"):
        for dp, _, fs in os.walk(os.path.join(out_dir, sub)):
            for f in fs:
                p = os.path.join(dp, f)
                with open(p, "rb") as fh:
                    got[os.path.relpath(p, out_dir)] = fh.read()
    return got


def test_file_grouping_does_not_change_outputs(tmp_path, monkeypatch):
    """The probe, the payload scan and the append's flagged-occurrence pass
    run one task per file group. Forcing one group (G = 1) and one file per
    group (G = len(files)) gives byte-identical deletion vectors, tier
    data/state and chunks, for a build and for a one-file append; the probe
    returns the same exact array at both G (the doc_ids pandas finds
    duplicated), and its Bloom path flags a superset."""
    from contest_parsing_ray.sources.synthetic import write_sequences_parquet
    from contest_parsing_ray.stages import _shuffle
    from contest_parsing_ray.stages._shuffle import hash64_strings
    from contest_parsing_ray.stages.dedup import duplicated_key_probe_files

    src = str(tmp_path / "src")
    write_sequences_parquet(src, n_rows=6_000, seed=5, num_files=7)
    names = sorted(f for f in os.listdir(src) if f.endswith(".parquet"))
    # the appended file also repeats rows of the first file, so the append
    # decides new copies against old occurrences
    last = os.path.join(src, names[-1])
    pq.write_table(
        pa.concat_tables([
            pq.read_table(last),
            pq.read_table(os.path.join(src, names[0])).slice(0, 50),
        ]),
        last,
    )
    doc_ids = pd.concat(
        [pq.read_table(os.path.join(src, f), columns=["doc_id"]).to_pandas()
         for f in names],
        ignore_index=True,
    )["doc_id"]
    want_probe = np.unique(hash64_strings(
        pa.array(doc_ids[doc_ids.duplicated(keep=False)].unique())
    ))
    assert len(want_probe) > 0
    base_files = len(names) - 1

    runs = {}
    for g in (1, base_files):
        monkeypatch.setattr(
            _shuffle, "exchange_partitions", lambda input_bytes=None, **kw: g
        )
        inp, out = str(tmp_path / f"in{g}"), str(tmp_path / f"out{g}")
        os.makedirs(inp)
        for f in names[:-1]:
            os.link(os.path.join(src, f), os.path.join(inp, f))
        assert len(_shuffle.file_groups(sorted(
            os.path.join(inp, f) for f in os.listdir(inp)))) == g
        run_rollup_pipeline(inp, PipelineConfig(out_dir=out), resume=False)
        build = _output_bytes(out)
        os.link(last, os.path.join(inp, names[-1]))
        m = run_rollup_pipeline(inp, PipelineConfig(out_dir=out), resume=True)
        assert m.get("incremental_append") is True
        src_files = sorted(pads.dataset(src).files)
        exact = duplicated_key_probe_files(src_files, "doc_id")
        np.testing.assert_array_equal(exact, want_probe)
        bloom = duplicated_key_probe_files(src_files, "doc_id", exact_threshold=1)
        assert bloom.contains_hashes(want_probe).all()
        runs[g] = (build, _output_bytes(out))

    (b1, a1), (bn, an) = runs[1], runs[base_files]
    assert any(k.startswith("deduped/deletion_vectors") for k in b1)
    assert any(k.startswith("rollup/state") for k in b1)
    assert any(k.startswith("chunks") for k in b1)
    assert b1 == bn
    assert a1 == an
    assert a1 != b1  # the append changed the outputs it is compared on
