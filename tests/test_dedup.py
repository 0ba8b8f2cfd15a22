"""Dedup policies + token-array-equality invariant."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from contest_parsing_ray.sources.ingest import read_sequences, token_checksum
from contest_parsing_ray.stages.dedup import dedup


def _pdf(sequences_dir):
    ds = read_sequences(sequences_dir)
    return ds.to_pandas()


def test_keep_first_matches_oracle(sequences_dir):
    ds = read_sequences(sequences_dir)
    out = dedup(ds, key="doc_id", keep="first").to_pandas()
    pdf = _pdf(sequences_dir)
    want = pdf.drop_duplicates(subset="doc_id", keep="first")
    assert len(out) == len(want)
    assert set(out["doc_id"]) == set(want["doc_id"])
    assert out["doc_id"].is_unique


def test_keep_none_matches_oracle(sequences_dir):
    ds = read_sequences(sequences_dir)
    out = dedup(ds, key="doc_id", keep="none").to_pandas()
    pdf = _pdf(sequences_dir)
    counts = pdf["doc_id"].value_counts()
    want_ids = set(counts[counts == 1].index)
    assert set(out["doc_id"]) == want_ids
    assert len(out) == len(want_ids)


def test_duplicates_exist_in_fixture(sequences_dir):
    # the generator must actually exercise both policies
    pdf = _pdf(sequences_dir)
    counts = pdf["doc_id"].value_counts()
    assert (counts == 2).any() and (counts == 3).any()


def test_token_arrays_survive_dedup_byte_identical(sequences_dir):
    """The per-row token-array-equality invariant (BASELINE.json input_hint):
    tokens pass through ingest + hash shuffle + dedup byte-identical."""
    ds = read_sequences(sequences_dir)
    with_ck = ds.map_batches(token_checksum, batch_format="pyarrow")
    before = with_ck.to_pandas().drop_duplicates("doc_id")[["doc_id", "token_ck"]]

    out = dedup(ds, key="doc_id", keep="first")
    after_ck = out.map_batches(token_checksum, batch_format="pyarrow")
    after = after_ck.to_pandas()[["doc_id", "token_ck"]]

    m = before.merge(after, on="doc_id", suffixes=("_b", "_a"))
    assert len(m) == len(after)
    assert (m["token_ck_b"] == m["token_ck_a"]).all()

    # and the token dtype survived (list<int32>, not promoted)
    batch = next(iter(out.iter_batches(batch_size=8, batch_format="pyarrow")))
    assert batch.schema.field("tokens").type == pa.list_(pa.int32())


def test_bloom_filter_unit():
    from contest_parsing_ray.stages.dedup import BloomFilter
    from contest_parsing_ray.stages._shuffle import hash64_strings
    import pyarrow as pa

    keys = [f"k{i}" for i in range(5000)]
    others = [f"x{i}" for i in range(20000)]
    b = BloomFilter(len(keys))
    b.add_hashes(hash64_strings(pa.array(keys, type=pa.string())))
    assert b.contains_hashes(hash64_strings(pa.array(keys, type=pa.string()))).all()
    fp = b.contains_hashes(hash64_strings(pa.array(others, type=pa.string()))).mean()
    assert fp < 0.03


def test_probe_files_matches_dataset_probe(sequences_dir):
    """Raw-task file probe == the duplicated key hashes computed inline,
    both sides of the exact/Bloom contract."""
    import pyarrow.dataset as pads
    from contest_parsing_ray.stages._shuffle import hash64_strings
    from contest_parsing_ray.stages.dedup import (
        ShardedBloom, duplicated_key_probe_files,
    )

    h = hash64_strings(pads.dataset(sequences_dir).to_table(columns=["doc_id"])["doc_id"])
    uniq, cnt = np.unique(h, return_counts=True)
    exact = uniq[cnt > 1]
    assert len(exact) > 0
    got = duplicated_key_probe_files(sequences_dir, "doc_id")
    assert isinstance(got, np.ndarray)
    np.testing.assert_array_equal(got, exact)

    bloom = duplicated_key_probe_files(sequences_dir, "doc_id", exact_threshold=1)
    assert isinstance(bloom, ShardedBloom)
    assert bloom.contains_hashes(exact).all()  # no false negatives
    # non-member false-positive rate stays near the design point (~1%)
    others = (np.arange(20_000, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
              ^ np.uint64(0x1234ABCD))
    assert bloom.contains_hashes(others).mean() < 0.05
