"""HyperLogLog / CountMin sketch properties + the approx_distinct operator."""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from contest_parsing_ray.stages._shuffle import _splitmix64
from contest_parsing_ray.state.sketches import CountMinSketch, HyperLogLog


def _hashes(n: int, seed: int = 0) -> np.ndarray:
    return _splitmix64(np.arange(seed, seed + n, dtype=np.uint64))


def test_hll_accuracy_and_merge():
    n = 100_000
    h = _hashes(n)
    full = HyperLogLog(12).add_hashes(h)
    est = full.estimate()
    assert abs(est - n) / n < 0.03  # ~1.6% expected at p=12

    # merge of disjoint splits == single-pass add (registers identical)
    a = HyperLogLog(12).add_hashes(h[: n // 3])
    b = HyperLogLog(12).add_hashes(h[n // 3 :])
    merged = a.merge(b)
    assert np.array_equal(merged.reg, full.reg)

    # duplicates do not move the estimate
    dup = HyperLogLog(12).add_hashes(np.concatenate([h, h, h[:10]]))
    assert np.array_equal(dup.reg, full.reg)

    # serialization roundtrip
    rt = HyperLogLog.from_bytes(full.to_bytes())
    assert rt.p == 12 and np.array_equal(rt.reg, full.reg)


def test_hll_small_range_linear_counting():
    h = _hashes(50)
    est = HyperLogLog(12).add_hashes(h).estimate()
    assert abs(est - 50) <= 1  # linear-counting regime is near-exact


def test_cms_bounds_and_merge():
    rng_keys = _hashes(200, seed=7)
    counts = (np.arange(200) % 13 + 1).astype(np.int64)
    cms = CountMinSketch(width=2048, depth=4).add_hashes(rng_keys, counts)
    est = cms.estimate_hashes(rng_keys)
    n_total = int(counts.sum())
    assert (est >= counts).all()  # CMS never undercounts
    assert (est <= counts + int(0.01 * n_total) + 1).all()

    half = CountMinSketch(2048, 4).add_hashes(rng_keys[:100], counts[:100])
    other = CountMinSketch(2048, 4).add_hashes(rng_keys[100:], counts[100:])
    merged = half.merge(other)
    assert np.array_equal(merged.table, cms.table)

    rt = CountMinSketch.from_bytes(cms.to_bytes())
    assert np.array_equal(rt.table, cms.table)

    # non-default shapes roundtrip self-describingly (no silent reshape)
    odd = CountMinSketch(width=4096, depth=2).add_hashes(rng_keys, counts)
    rt2 = CountMinSketch.from_bytes(odd.to_bytes())
    assert rt2.width == 4096 and rt2.depth == 2
    assert np.array_equal(rt2.table, odd.table)


def test_approx_distinct_vs_exact():
    from contest_parsing_ray.stages.cumulative import approx_distinct

    rng = np.random.RandomState(3)
    df = pd.DataFrame(
        {
            "k": np.repeat(["a", "b"], 20_000),
            "v": np.concatenate(
                [rng.randint(0, 5_000, 20_000), rng.randint(0, 900, 20_000)]
            ),
        }
    )
    got = (
        approx_distinct(ray.data.from_pandas(df), key_col="k", value_col="v")
        .to_pandas().set_index("k")["approx_distinct"]
    )
    exact = df.groupby("k")["v"].nunique()
    for k in ("a", "b"):
        assert abs(got[k] - exact[k]) / exact[k] < 0.05


def test_approx_distinct_ignores_null_values():
    from contest_parsing_ray.stages.cumulative import approx_distinct

    df = pd.DataFrame(
        {"k": ["a", "a", "a", "a"], "v": ["x", None, "x", ""]}
    )
    got = (
        approx_distinct(ray.data.from_pandas(df), key_col="k", value_col="v")
        .to_pandas()
    )
    # COUNT(DISTINCT v) = 2 ("x" and ""); the null row contributes nothing
    # and must not alias the empty string
    assert got["approx_distinct"].tolist() == [2]


def test_hll_approx_distinct_within_error_vs_exact_sf0001():
    """Secondary invariant for the golden-pinned approx_distinct_users
    query: the HLL estimate at sf0.001 must sit within the sketch's
    theoretical error envelope of the EXACT distinct count computed
    independently (pandas nunique) — the golden pins determinism, this
    pins correctness."""
    import os

    import pyarrow.parquet as pq

    t = pq.read_table(
        os.path.join("/root/testdata/sf0.001", "events.parquet"),
        columns=["event_type", "user_id"],
    ).to_pandas()
    exact = t.groupby("event_type")["user_id"].nunique()

    import importlib.util

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", os.path.join(root, "__ray_entry__.py"))
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    got = m.queries()["approx_distinct_users"]("/root/testdata/sf0.001")
    df = got.to_pandas() if hasattr(got, "to_pandas") else got
    df = df.set_index(df.columns[0])
    est_col = [c for c in df.columns if "distinct" in c or "approx" in c]
    assert est_col, df.columns
    # HLL with p=14: relative error ~1.04/sqrt(2^14) = 0.8%; allow 5 sigma
    for et, exact_n in exact.items():
        est = float(df.loc[et, est_col[0]])
        assert abs(est - exact_n) <= max(5 * 0.0081 * exact_n, 3.0), (
            et, est, exact_n)
