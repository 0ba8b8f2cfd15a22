"""Deterministic hash-priority sampling (stages/sampling.py)."""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from contest_parsing_ray.stages.sampling import (
    hash_sample_rate,
    hash_sample_topk,
    md5_priority,
    rate_threshold,
)


def test_md5_priority_matches_reference_and_nulls_never_sample():
    want = int.from_bytes(hashlib.md5(b"42").digest()[:8], "big")
    got = md5_priority([42, None])
    assert int(got[0]) == want
    assert int(got[1]) == 2**64 - 1


def _docs(n=2000):
    return pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype="int64"),
            "source": [f"s{i % 4}" for i in range(n)],
        }
    )


def test_rate_sample_fraction_determinism_and_edges():
    df = _docs()
    ds = ray.data.from_pandas(df).repartition(6)
    got = hash_sample_rate(ds, "doc_id", rate=0.25).to_pandas()
    # md5 is uniform: 2000 draws at p=.25 stay within 5 sigma of 500
    assert abs(len(got) - 500) < 5 * (2000 * 0.25 * 0.75) ** 0.5
    # exact determinism under partitioning
    again = hash_sample_rate(
        ray.data.from_pandas(df.iloc[::-1]).repartition(2), "doc_id", rate=0.25
    ).to_pandas()
    assert set(got["doc_id"]) == set(again["doc_id"])
    assert len(hash_sample_rate(ds, "doc_id", rate=0.0).to_pandas()) == 0
    assert len(hash_sample_rate(ds, "doc_id", rate=1.0).to_pandas()) == 2000


def test_rate_by_key_mixing():
    df = _docs()
    ds = ray.data.from_pandas(df)
    got = hash_sample_rate(
        ds, "doc_id", key_col="source",
        rate_by_key={"s0": 1.0, "s1": 0.5},  # s2/s3 absent -> rate 0
    ).to_pandas()
    by = got.groupby("source").size()
    assert by.get("s0", 0) == 500
    assert 180 < by.get("s1", 0) < 320
    assert "s2" not in by.index and "s3" not in by.index
    # every kept s1 row individually satisfies the threshold
    thr = rate_threshold(0.5)
    s1 = got[got["source"] == "s1"]["doc_id"].tolist()
    assert all(int(p) < thr for p in md5_priority(s1))


def test_topk_sample_counts_and_invariance():
    df = _docs(401)  # s0:101, s1/s2/s3:100
    want_ids = {}
    for s, g in df.groupby("source"):
        pri = md5_priority(g["doc_id"].tolist())
        order = np.lexsort((g["doc_id"].to_numpy(), pri))
        want_ids[s] = set(g["doc_id"].to_numpy()[order[:7]])
    got = hash_sample_topk(
        ray.data.from_pandas(df).repartition(5), "source", "doc_id", k=7
    ).to_pandas()
    assert len(got) == 28
    for s, g in got.groupby("source"):
        assert set(g["doc_id"]) == want_ids[s]
    # k larger than the stratum passes the stratum through
    small = hash_sample_topk(
        ray.data.from_pandas(df), "source", "doc_id", k=500
    ).to_pandas()
    assert len(small) == 401


def test_sampling_bad_params():
    ds = ray.data.from_pandas(_docs(10))
    with pytest.raises(ValueError, match="exactly one"):
        hash_sample_rate(ds, "doc_id")
    with pytest.raises(ValueError, match="exactly one"):
        hash_sample_rate(ds, "doc_id", rate=0.5, rate_by_key={"a": 1.0})
    with pytest.raises(ValueError, match="key_col"):
        hash_sample_rate(ds, "doc_id", rate_by_key={"a": 1.0})
    with pytest.raises(ValueError, match="rate"):
        hash_sample_rate(ds, "doc_id", rate=1.5)
    with pytest.raises(ValueError, match="k must"):
        hash_sample_topk(ds, "source", "doc_id", k=0)


def test_weighted_sample_matches_reference_and_biases_heavy():
    from contest_parsing_ray.stages.sampling import hash_sample_weighted

    n = 1200
    df = pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype="int64"),
            "w": np.where(np.arange(n) % 10 == 0, 100.0, 1.0),
        }
    )
    df.loc[5, "w"] = 0.0   # excluded
    df.loc[6, "w"] = np.nan
    # scalar reference: top-k by u^(1/w) desc, id asc
    ok = df[(df["w"] > 0) & df["w"].notna()]
    from contest_parsing_ray.stages.sampling import md5_priority

    u = (md5_priority(ok["doc_id"].tolist()).astype(np.float64) + 0.5) / 2.0**64
    key = np.power(u, 1.0 / ok["w"].to_numpy())
    order = np.lexsort((ok["doc_id"].to_numpy(), -key))
    want = set(ok["doc_id"].to_numpy()[order[:40]])
    got = hash_sample_weighted(
        ray.data.from_pandas(df).repartition(7), "doc_id", "w", k=40
    ).to_pandas()
    assert set(got["doc_id"]) == want
    assert 5 not in set(got["doc_id"]) and 6 not in set(got["doc_id"])
    # weight bias: heavy rows are 10% of the corpus but ~95%+ of the sample
    heavy = (got["doc_id"] % 10 == 0).mean()
    assert heavy > 0.6
    with pytest.raises(ValueError, match="k must"):
        hash_sample_weighted(ray.data.from_pandas(df), "doc_id", "w", k=0)


def test_weighted_sample_dirty_weights():
    """Null, NaN, infinite and non-positive weights drop the row; a weight
    that does not parse as a number raises."""
    from contest_parsing_ray.stages.sampling import hash_sample_weighted

    df = pd.DataFrame(
        {
            "doc_id": np.arange(8, dtype="int64"),
            "w": ["1.5", None, "nan", "-1", "0", "2", "inf", "3"],
        }
    )
    got = hash_sample_weighted(ray.data.from_pandas(df), "doc_id", "w", k=8)
    assert sorted(got.to_pandas()["doc_id"]) == [0, 5, 7]
    bad = pd.DataFrame({"doc_id": np.arange(3, dtype="int64"), "w": ["1.5", "abc", "2"]})
    with pytest.raises(ray.exceptions.UserCodeException, match="Failed to parse string: 'abc'"):
        hash_sample_weighted(ray.data.from_pandas(bad), "doc_id", "w", k=2).to_pandas()


def test_hash_split_deterministic_and_proportional():
    import duckdb
    import pyarrow as pa

    from contest_parsing_ray.stages.sampling import hash_split, md5_priority

    ids = [f"doc{i}" for i in range(4000)]
    t = pa.table({"doc_id": pa.array(ids)})
    fr = {"train": 0.8, "val": 0.1, "test": 0.1}
    out = hash_split(
        ray.data.from_arrow(t).repartition(5), "doc_id", fr
    ).to_pandas().set_index("doc_id")["split"]
    # engine assignment == direct band lookup of the md5 priority
    pri = md5_priority(ids)
    b1, b2 = int(0.8 * 2**64), int(0.9 * 2**64)
    for i, d in enumerate(ids):
        want = "train" if pri[i] < b1 else ("val" if pri[i] < b2 else "test")
        assert out[d] == want
    # == the SQL recomputation (portability across engines)
    con = duckdb.connect()
    con.register("docs", t)
    sql = con.execute(f"""
SELECT doc_id,
  CASE WHEN CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))
            AS UBIGINT) < {b1} THEN 'train'
       WHEN CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))
            AS UBIGINT) < {b2} THEN 'val'
       ELSE 'test' END AS split
FROM docs""").df().set_index("doc_id")["split"]
    assert (out.sort_index() == sql.sort_index()).all()
    frac = out.value_counts(normalize=True)
    assert abs(frac["train"] - 0.8) < 0.03 and abs(frac["val"] - 0.1) < 0.02
    import pytest as _p

    with _p.raises(ValueError):
        hash_split(ray.data.from_arrow(t), "doc_id", {"a": 0.5, "b": 0.4})


def test_shuffled_rows_is_seeded_permutation():
    from contest_parsing_ray.stages.sampling import (
        seeded_md5_priority,
        shuffled_rows,
    )

    ids = [f"doc{i:04d}" for i in range(500)]
    df = pd.DataFrame({"doc_id": ids, "n": np.arange(500)})
    ds = ray.data.from_pandas(df).repartition(7)
    out = shuffled_rows(ds, id_col="doc_id", seed=7, num_shards=8).to_pandas()

    # exact row-set equality: a permutation, nothing added or dropped
    assert sorted(out["doc_id"]) == ids
    assert out.set_index("doc_id")["n"].sort_index().tolist() == list(range(500))

    # shard/pos match the pure-function definition
    pri = seeded_md5_priority(ids, 7)
    want = pd.DataFrame({"doc_id": ids, "prio": pri})
    want["shard"] = (want["prio"] % np.uint64(8)).astype(np.int64)
    want = want.sort_values(["shard", "prio", "doc_id"])
    want["pos"] = want.groupby("shard").cumcount()
    got = out.set_index("doc_id")[["shard", "pos"]].sort_index()
    exp = want.set_index("doc_id")[["shard", "pos"]].sort_index()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    # pos is dense 0..k-1 per shard and every shard is populated
    for s, g in out.groupby("shard"):
        assert sorted(g["pos"]) == list(range(len(g)))
    assert out["shard"].nunique() == 8

    # restart/reshard-stable: different partitioning, same assignment
    out2 = shuffled_rows(
        ray.data.from_pandas(df).repartition(3), id_col="doc_id",
        seed=7, num_shards=8,
    ).to_pandas()
    pd.testing.assert_frame_equal(
        out.sort_values("doc_id").reset_index(drop=True),
        out2.sort_values("doc_id").reset_index(drop=True),
    )

    # a different seed is a different permutation
    out3 = shuffled_rows(ds, id_col="doc_id", seed=8, num_shards=8).to_pandas()
    merged = out.merge(out3, on="doc_id", suffixes=("_a", "_b"))
    assert (
        (merged["shard_a"] != merged["shard_b"])
        | (merged["pos_a"] != merged["pos_b"])
    ).any()


def test_shuffled_export_writes_ordered_shards(tmp_path):
    import pyarrow.parquet as pq

    from contest_parsing_ray.stages.sampling import (
        shuffled_export,
        shuffled_rows,
    )

    ids = [f"d{i:03d}" for i in range(200)]
    df = pd.DataFrame({"doc_id": ids, "v": np.arange(200.0)})
    ds = ray.data.from_pandas(df).repartition(5)
    out_dir = str(tmp_path / "shards")
    man = shuffled_export(
        ds, out_dir, id_col="doc_id", seed=3, num_shards=4
    ).to_pandas().sort_values("shard").reset_index(drop=True)

    assert man["shard"].tolist() == [0, 1, 2, 3]
    assert man["n_rows"].sum() == 200

    ref = shuffled_rows(ds, id_col="doc_id", seed=3, num_shards=4).to_pandas()
    for _, row in man.iterrows():
        t = pq.read_table(row["path"]).to_pandas()
        assert len(t) == row["n_rows"]
        # file order == in-shard shuffle order
        want = (
            ref[ref["shard"] == row["shard"]]
            .sort_values("pos")["doc_id"].tolist()
        )
        assert t["doc_id"].tolist() == want


def test_mixture_sample_rates_and_determinism():
    """Per-key rates hit the target expected weights, unlisted keys drop,
    over-target keys cap at rate 1 (keep everything), and the sample is a
    pure function of the id (repartition-invariant)."""
    from contest_parsing_ray.stages.sampling import mixture_sample

    rng = np.random.default_rng(21)
    n = 4000
    langs = rng.choice(["en", "de", "zh", "rare"], size=n,
                       p=[0.7, 0.15, 0.13, 0.02])
    w = rng.integers(50, 150, size=n).astype(np.int64)
    t = pa.table({
        "doc_id": pa.array([f"x{i}" for i in range(n)]),
        "lang": pa.array(langs.tolist()),
        "w": pa.array(w),
    })
    fracs = {"en": 0.3, "de": 0.3, "rare": 0.4}
    out = mixture_sample(
        ray.data.from_arrow(t).repartition(6), id_col="doc_id",
        key_col="lang", weight_col="w", target_fractions=fracs,
        budget_fraction=0.5,
    ).to_pandas()
    # zh unlisted -> dropped entirely
    assert (out["lang"] != "zh").all()
    grand = int(w.sum())
    budget = 0.5 * grand
    tot = {k: int(w[langs == k].sum()) for k in ("en", "de", "zh", "rare")}
    # "rare" target (0.4 * budget ~ 0.2*grand) exceeds its ~2% share:
    # rate caps at 1 and every rare row survives
    assert fracs["rare"] * budget / tot["rare"] > 1
    assert (out["lang"] == "rare").sum() == (langs == "rare").sum()
    # en/de: kept weight within 15% of target expectation
    for k in ("en", "de"):
        kept = int(out.loc[out["lang"] == k, "w"].sum())
        target = fracs[k] * budget
        assert abs(kept - target) / target < 0.15, (k, kept, target)
    # pure function of id: same rows from a different partitioning
    out2 = mixture_sample(
        ray.data.from_arrow(t).repartition(2), id_col="doc_id",
        key_col="lang", weight_col="w", target_fractions=fracs,
        budget_fraction=0.5,
    ).to_pandas()
    assert sorted(out["doc_id"]) == sorted(out2["doc_id"])
    with pytest.raises(ValueError, match="exactly one of"):
        mixture_sample(ray.data.from_arrow(t), "doc_id", "lang", "w",
                       fracs, total_budget=10.0, budget_fraction=0.5)


def test_mixture_sample_zero_weight_key_keeps_all():
    """A present key whose total weight is 0 keeps every row (rate 1),
    matching the SQL oracle's f*budget/0 = inf -> LEAST(1, inf)."""
    from contest_parsing_ray.stages.sampling import mixture_sample

    t = pa.table({
        "doc_id": pa.array([f"z{i}" for i in range(40)]),
        "lang": pa.array(["zero"] * 10 + ["en"] * 30),
        "w": pa.array([0] * 10 + [100] * 30, pa.int64()),
    })
    out = mixture_sample(
        ray.data.from_arrow(t), id_col="doc_id", key_col="lang",
        weight_col="w", target_fractions={"zero": 0.5, "en": 0.5},
        budget_fraction=0.5,
    ).to_pandas()
    assert (out["lang"] == "zero").sum() == 10


def test_md5_priority_vectorized_kernel_matches_hashlib_exhaustively():
    """The numpy single-block MD5 kernel must agree bit-for-bit with
    hashlib across edge shapes: empty strings, the 55-byte single-block
    boundary, multi-block (>55B) fallback rows, multibyte UTF-8, sliced
    arrow arrays, fixed-width fast path, and seed prefixes."""
    import random
    import string

    from contest_parsing_ray.stages.sampling import seeded_md5_priority

    def ref(ids, pre=b""):
        return np.array(
            [0xFFFFFFFFFFFFFFFF if x is None else int.from_bytes(
                hashlib.md5(pre + str(x).encode()).digest()[:8], "big")
             for x in ids], dtype=np.uint64)

    rng = random.Random(5)
    mixed = ["", "a", "x" * 54, "y" * 55, "z" * 56, "w" * 200,
             "héllo-ünicode-日本語", None] + [
        "".join(rng.choices(string.printable, k=rng.randint(0, 80)))
        for _ in range(300)
    ]
    fixed = ["doc-%06d" % i for i in range(500)]
    for ids in (mixed, fixed, [1, 22, 333, None, 0]):
        np.testing.assert_array_equal(md5_priority(ids), ref(ids))
        np.testing.assert_array_equal(
            seeded_md5_priority(ids, 42), ref(ids, b"42:"))
    # sliced non-zero-offset arrow input
    arr = pa.array(["aa", "bb", "cc", "dd"], pa.large_string()).slice(1, 2)
    np.testing.assert_array_equal(md5_priority(arr), ref(["bb", "cc"]))
    # prefix pushing a 54-byte id past the single-block boundary
    np.testing.assert_array_equal(
        md5_priority(["x" * 54], prefix=b"42:"), ref(["x" * 54], b"42:"))
