"""S1 discovery (FilepathFinder semantics) + the JoinManager.process
analog end-to-end, plus the trace-one-row exploder."""

from __future__ import annotations

import os
import sys

import numpy as np
import pandas as pd
import pytest
import ray.data

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from contest_parsing_ray.sources.discovery import corpus_stats, find_files


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    import __ray_entry__ as entrymod

    root = str(tmp_path_factory.mktemp("corpus"))
    entrymod.write_f2_corpus(root)
    return root


def test_find_files_semantics(corpus):
    pl = find_files(corpus)
    # the decoy service (monitoring but no traces) must be dropped
    assert set(pl) == {"ts-order-service", "ts-pay-service"}
    s = pl["ts-order-service"]
    assert len(s.monitoring) == 1  # tiny.json (<100 B) skipped
    assert len(s.traces) == 1
    assert len(s.logs) == 1
    stats = corpus_stats(pl)
    assert stats["ts-order-service"]["monitoring_mb"] > 0


def test_find_files_test_mode(corpus):
    pl = find_files(corpus, test_mode=True, max_test_services=1)
    assert len(pl) == 1
    assert list(pl) == ["ts-order-service"]  # first in directory order


def test_process_corpus_end_to_end(corpus, tmp_path):
    from contest_parsing_ray.pipelines.telemetry_join import process_corpus

    out = str(tmp_path / "out")
    # 2 partitions: 3 chained joins' aggregator actors must fit the
    # 4-CPU test cluster alongside map tasks (4 parts x 3 joins deadlocks)
    manifest = process_corpus(corpus, out, 30_000_000, num_partitions=2)
    assert set(manifest) == {"ts-order-service", "ts-pay-service"}
    for svc, m in manifest.items():
        assert m["joined_rows"] == 2  # both spans land on the metric bucket
        assert m["exploded_rows"] == 1  # one trace -> one wide row
        assert os.path.isdir(m["joined_path"])
        joined = ray.data.read_parquet(m["joined_path"]).to_pandas()
        assert "container_cpu_usage_seconds_total" in joined.columns
        assert "running_all" in joined.columns  # log features joined
        assert "self_depth" in joined.columns  # tree stats joined back
        assert str(joined["container_cpu_usage_seconds_total"].dtype) == "float64"
        wide = ray.data.read_parquet(m["exploded_path"]).to_pandas()
        assert wide["trace_span_length"].iloc[0] == 2.0
        join_col = f"{svc}-join_span_id"
        assert wide[join_col].iloc[0] == "s1 - s2"


def test_trace_one_row_basic():
    from contest_parsing_ray.stages.exploder import trace_one_row

    df = pd.DataFrame(
        {
            "trace_id": ["t1"] * 3 + ["t2"] * 2,
            "servicename": ["a", "a", "b", "a", "a"],
            "v": [1.0, 3.0, 10.0, 5.0, 5.0],
            "span": ["s1", "s2", "s3", "s4", "s5"],
            "code": ["200", "200", "500", "200", "404"],
            "ord": [1, 2, 3, 1, 2],
        }
    )
    out = (
        trace_one_row(
            ray.data.from_pandas(df),
            trace_col="trace_id",
            service_col="servicename",
            minmax_cols=("v",),
            join_cols=("span",),
            mode_cols=("code",),
            duration_col="v",
            sort_cols=("ord",),
            num_partitions=2,
        )
        .to_pandas()
        .sort_values("trace_id")
        .reset_index(drop=True)
    )
    t1 = out[out["trace_id"] == "t1"].iloc[0]
    assert t1["a-mean_v"] == 2.0 and t1["a-min_v"] == 1.0 and t1["a-max_v"] == 3.0
    assert t1["a-spans_in_service"] == 2.0 and t1["b-spans_in_service"] == 1.0
    assert t1["a-join_span"] == "s1 - s2" and t1["b-join_span"] == "s3"
    assert t1["a-mode_code"] == "200" and t1["b-mode_code"] == "500"
    assert t1["trace_span_length"] == 3.0 and t1["trace_duration"] == 14.0
    t2 = out[out["trace_id"] == "t2"].iloc[0]
    # tied modes: sorted ascending, " - "-joined
    assert t2["a-mode_code"] == "200 - 404"
    assert np.isnan(t2["b-mean_v"])  # t2 has no service b


def test_find_files_uri_inputs(corpus):
    """pyarrow.fs end-to-end (round-2 verdict): a file:// URI root lists
    identically to the plain path and returns scheme-qualified paths that
    pyarrow/Ray readers resolve to the same bytes."""
    import pyarrow.parquet  # noqa: F401  (ensures pyarrow present)

    plain = find_files(corpus)
    uri = find_files("file://" + corpus)
    assert set(uri) == set(plain)
    for svc in plain:
        for stream in ("monitoring", "traces", "logs"):
            ps = getattr(plain[svc], stream)
            us = getattr(uri[svc], stream)
            assert us == ["file://" + p for p in ps]
    stats_uri = corpus_stats(uri)
    assert stats_uri == corpus_stats(plain)


def test_manifest_roundtrip_uri(tmp_path):
    from contest_parsing_ray.stages.retention import (
        read_tier_manifest,
        tier_needs_build,
        write_tier_manifest,
    )
    from contest_parsing_ray.state.manifest import (
        clear_dir,
        fingerprint_input,
        input_file_fingerprints,
        read_manifest,
        write_manifest,
    )

    d = tmp_path / "out"
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "a.parquet").write_bytes(b"x" * 10)
    uri = "file://" + str(d)
    write_manifest(uri + "/m.json", {"completed": True})
    assert read_manifest(str(d / "m.json")) == {"completed": True}  # plain path
    write_tier_manifest(uri, "1m", {"completed": True, "input_fingerprint": "f",
                                    "config_fingerprint": "c"})
    assert read_tier_manifest(str(d), "1m")["completed"] is True
    assert not tier_needs_build(uri, "1m", "f", "c")
    # fingerprints agree between plain and URI forms of the same input
    fin = str(tmp_path / "in")
    ff = input_file_fingerprints("file://" + fin)
    assert fingerprint_input(fin, input_file_fingerprints(fin)) == fingerprint_input(
        "file://" + fin, ff
    )
    assert len(ff) == 1 and list(ff.values())[0].startswith("10:")
    clear_dir(uri)
    assert read_tier_manifest(str(d), "1m") is None
    assert tier_needs_build(str(d), "1m", "f", "c")
