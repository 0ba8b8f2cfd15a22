"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship rollup pipeline on sf0.001; ``queries()`` maps
every implemented operator family from SURVEY.md §2 (+ the training-data
operators) to a callable over the driver's testdata tables; ``oracle_sql()``
gives the DuckDB-equivalent SQL for every SQL-expressible query (same
column names, same types — the driver hash-compares values).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (nor in contest_parsing_ray) calls ``ray.init``/``ray.shutdown``.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

W1M = 60_000_000
W5M = 300_000_000
W1H = 3_600_000_000

EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


# --------------------------------------------------------------------------
# shared readers
# --------------------------------------------------------------------------

def _events(sf_dir: str, columns=None):
    """events.parquet → Dataset with event_time_us (int64 µs)."""
    import ray.data

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=columns)

    def add_us(b: pa.Table) -> pa.Table:
        return b.append_column("event_time_us", b["ts"].cast(pa.int64()))

    return ds.map_batches(add_us, batch_format="pyarrow")


def _docs(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))


def _seqs(sf_dir: str):
    """Deterministic input_hint-shaped sequences corpus sized to the SF.

    The sf tables carry no token arrays, so the tokens-axis queries run on
    the engine's own deterministic synthetic corpus (seed 42, the flagship
    bench generator — `sources/synthetic.py`); rows scale with the sf in
    the dir name (20k at sf0.01). Cached under /tmp, regenerated
    byte-identically on any host."""
    import re

    import ray.data

    from contest_parsing_ray.sources.synthetic import write_sequences_parquet

    m = re.search(r"sf([0-9.]+)", sf_dir)
    sf = float(m.group(1)) if m else 0.01
    rows = max(int(2_000_000 * sf), 2_000)
    d = write_sequences_parquet(f"/tmp/graft_seqs_{rows}", n_rows=rows, seed=42)
    return ray.data.read_parquet(d)


def _embeddings(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))


# --------------------------------------------------------------------------
# entry — flagship pipeline smoke (sf0.001)
# --------------------------------------------------------------------------

def entry() -> Any:
    """Rollup the sf0.001 events stream into the 1m tier (count/sum/min/
    max/p95 of value per event_type) — the flagship continuous aggregate."""
    from contest_parsing_ray.stages.rollup import rollup_tiers

    ev = _events("/root/testdata/sf0.001")
    out = rollup_tiers(
        ev, {"1m": W1M}, value_col="value", key_col="event_type",
        ts_col="event_time_us",
    )["1m"]
    return out


# --------------------------------------------------------------------------
# queries
# --------------------------------------------------------------------------

def _round_cols(ds, cols: list[str], digits: int = 6):
    """Round float columns on the Ray side; oracles ROUND(x, n) too —
    float sums/quantiles are addition-order sensitive in the last ulp, and
    the driver hash-compares values. Arrow-native (zero-copy untouched
    columns; numpy round matches the previous pandas semantics exactly)."""

    def f(t: pa.Table) -> pa.Table:
        for c in cols:
            idx = t.schema.get_field_index(c)
            vals = t[c].cast(pa.float64()).to_numpy(zero_copy_only=False)
            # from_pandas=True: NaN (incl. nulls the cast surfaced as NaN)
            # -> Arrow null, matching the oracle's SQL NULL
            t = t.set_column(
                idx, c, pa.array(np.round(vals, digits), from_pandas=True)
            )
        return t

    return ds.map_batches(f, batch_format="pyarrow")


def _rollup_query(tier_name: str, width: int, mode: str = "nearest"):
    def q(sf_dir: str):
        from contest_parsing_ray.stages.rollup import rollup_tiers

        ev = _events(sf_dir, columns=["ts", "event_type", "value"])
        out = rollup_tiers(
            ev, {tier_name: width}, value_col="value", key_col="event_type",
            ts_col="event_time_us", bucket_mode=mode,
        )[tier_name]
        return _round_cols(out, ["sum_v", "p95_v"])

    return q


def _q_cumulative(sf_dir: str):
    from contest_parsing_ray.stages.cumulative import cumulative_counts

    ev = _events(sf_dir, columns=["ts", "event_type"])
    return cumulative_counts(ev, W1M, key_col="event_type")


def _q_cumulative_distinct(sf_dir: str):
    from contest_parsing_ray.stages.cumulative import cumulative_distinct

    ev = _events(sf_dir, columns=["ts", "event_type", "user_id"])
    return cumulative_distinct(ev, W1M, key_col="event_type", value_col="user_id")


def _add_dkey(b: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    bucket = (b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) // W1H) * W1H
    dkey = pc.binary_join_element_wise(
        pc.cast(b["user_id"], pa.string()),
        b["event_type"],
        pa.array((bucket // W1H).astype("int64")).cast(pa.string()),
        "|",
    )
    return b.append_column("dkey", dkey)


def _q_dedup(keep: str):
    def q(sf_dir: str):
        from contest_parsing_ray.stages.dedup import dedup

        ev = _events(sf_dir).map_batches(_add_dkey, batch_format="pyarrow")
        out = dedup(ev, key="dkey", keep=keep, tiebreak_cols=("event_id",))
        return out.drop_columns(["event_time_us"])

    return q


def _q_gapfill_mode(mode: str):
    def q(sf_dir: str):
        from contest_parsing_ray.stages.gapfill import gapfill
        from contest_parsing_ray.stages.rollup import rollup_tiers

        ev = _events(sf_dir, columns=["ts", "event_type", "value"])
        r = rollup_tiers(
            ev, {"1h": W1H}, value_col="value", key_col="event_type",
            ts_col="event_time_us",
        )["1h"]
        filled = gapfill(r, W1H, mode=mode, key_col="event_type")
        out = filled.select_columns(
            ["event_type", "bucket_us", "cnt", "sum_v", "filled"]
        )
        return _round_cols(out, ["sum_v"])

    return q


_q_gapfill = _q_gapfill_mode("locf")


def _q_widen(sf_dir: str):
    from contest_parsing_ray.stages.rollup import rollup_tiers
    from contest_parsing_ray.stages.widen import widen

    ev = _events(sf_dir, columns=["ts", "event_type", "value"])
    r = rollup_tiers(
        ev, {"1h": W1H}, value_col="value", key_col="event_type",
        ts_col="event_time_us",
    )["1h"]
    wide = widen(r, key_col="event_type", value_cols=("cnt", "sum_v"))

    def fill0(df: pd.DataFrame) -> pd.DataFrame:
        df = df.fillna(0.0)
        for c in df.columns:
            if c.endswith("-sum_v"):
                df[c] = df[c].astype(np.float64).round(6)
        return df

    return wide.map_batches(fill0, batch_format="pandas")


def _q_topk(sf_dir: str):
    from contest_parsing_ray.stages.rollup import rollup_tiers

    ev = _events(sf_dir, columns=["ts", "event_type", "value"])
    r = rollup_tiers(
        ev, {"1h": W1H}, value_col="value", key_col="event_type",
        ts_col="event_time_us",
    )["1h"]
    top = r.select_columns(["event_type", "bucket_us", "cnt"]).sort(
        ["cnt", "bucket_us", "event_type"], descending=[True, False, False]
    ).limit(10)
    return top


def _q_tree(sf_dir: str):
    from contest_parsing_ray.stages._shuffle import hash_partitioned_map
    from contest_parsing_ray.stages.tree import tree_depth_stats

    ev = _events(sf_dir, columns=["ts", "event_id", "user_id"])
    # null user_id rows have no chain identity — drop them up front (the
    # oracle carries the same WHERE; no-op on the clean corpus)
    ev = ev.map_batches(
        lambda b: b.filter(pc.is_valid(b["user_id"])),
        batch_format="pyarrow",
    )

    def chain(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        df["parent_id"] = df.groupby("user_id", sort=False)["event_id"].shift(1)
        return df[["user_id", "event_id", "parent_id"]]

    spans = hash_partitioned_map(ev, ["user_id"], chain, batch_format="pandas")
    return tree_depth_stats(
        spans, trace_col="user_id", span_col="event_id", parent_col="parent_id"
    )


def _scaled_cents(b: pa.Table, col: str, scale: int = 100) -> "np.ndarray":
    """Exact int64 view of a fixed-decimal double column (2 decimals → cents).

    Float sums are addition-order sensitive in the last ulp, which breaks the
    driver's value-hash compare under distributed (nondeterministic-order)
    aggregation; scaled-int64 sums are exact and order-free, and the final
    int→double conversion + division is correctly rounded on both sides.
    """
    import pyarrow.compute as pc

    return pc.round(pc.multiply(b[col], pa.scalar(float(scale)))).cast(
        pa.int64()
    ).to_numpy(zero_copy_only=False)


_BROADCAST_ORDERS_MAX = 2_000_000


def _q_order_priority(sf_dir: str):
    """Small-side broadcast aggregate when orders fits in the object store
    (one lineitem pass, NO shuffle — partial per-priority sums inside
    map_batches, tiny final groupby); falls back to the hash-partitioned
    join above the row threshold (the 100 TB path when orders is huge)."""
    import pyarrow.parquet as pqm
    import ray
    import ray.data
    from ray.data.aggregate import Count, Sum

    orders_path = os.path.join(sf_dir, "orders.parquet")
    n_orders = pqm.ParquetFile(orders_path).metadata.num_rows

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def prep(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        qty_i = pc.round(b["l_quantity"]).cast(pa.int64())
        b = b.append_column("qty_i", qty_i)
        b = b.append_column("price_c", pa.array(_scaled_cents(b, "l_extendedprice")))
        b = b.append_column("disc_c", pa.array(_scaled_cents(b, "l_discount")))
        return b.select(["l_orderkey", "qty_i", "price_c", "disc_c"])

    if n_orders <= _BROADCAST_ORDERS_MAX:
        ot = pqm.read_table(orders_path, columns=["o_orderkey", "o_orderpriority"])
        keys = ot["o_orderkey"].to_numpy()
        prio = ot["o_orderpriority"].to_numpy(zero_copy_only=False)
        prio_names, prio_codes = np.unique(prio, return_inverse=True)
        order = np.argsort(keys, kind="stable")
        lookup_ref = ray.put(
            (keys[order], prio_codes[order].astype(np.int64), prio_names)
        )
        n_prio = len(prio_names)

        def partial(b: pa.Table) -> pa.Table:
            b = prep(b)
            skeys, scodes, names = ray.get(lookup_ref)
            lk = b["l_orderkey"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(skeys, lk)
            pos_c = np.minimum(pos, len(skeys) - 1)
            hit = skeys[pos_c] == lk  # inner-join semantics
            code = scodes[pos_c]
            out = {"o_orderpriority": names}
            w = np.where(hit, 1, 0)
            out["n_lines"] = np.bincount(code, weights=w, minlength=n_prio).astype(np.int64)
            for col, alias in (
                ("qty_i", "sum_qty_i"), ("price_c", "sum_price_c"),
                ("disc_c", "sum_disc_c"),
            ):
                v = b[col].to_numpy(zero_copy_only=False)
                out[alias] = np.bincount(
                    code, weights=np.where(hit, v, 0), minlength=n_prio
                ).astype(np.int64)
            return pa.table(out)

        agg = (
            li.map_batches(partial, batch_format="pyarrow")
            .groupby("o_orderpriority")
            .aggregate(
                Sum("n_lines", alias_name="n_lines"),
                Sum("sum_qty_i", alias_name="sum_qty_i"),
                Sum("sum_price_c", alias_name="sum_price_c"),
                Sum("sum_disc_c", alias_name="sum_disc_c"),
            )
        )
    else:
        from contest_parsing_ray.stages.join import hash_join

        orders = ray.data.read_parquet(
            orders_path, columns=["o_orderkey", "o_orderpriority"]
        )
        j = hash_join(
            li.map_batches(prep, batch_format="pyarrow"),
            orders, on=["l_orderkey"], right_on=["o_orderkey"], how="inner",
        )
        agg = j.groupby("o_orderpriority").aggregate(
            Count(alias_name="n_lines"),
            Sum("qty_i", alias_name="sum_qty_i"),
            Sum("price_c", alias_name="sum_price_c"),
            Sum("disc_c", alias_name="sum_disc_c"),
        )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["n_lines"] > 0]  # broadcast path emits all priorities
        return pd.DataFrame(
            {
                "o_orderpriority": df["o_orderpriority"],
                "n_lines": df["n_lines"].astype(np.int64),
                "sum_qty": df["sum_qty_i"].astype(np.float64),
                "sum_price": df["sum_price_c"].astype(np.float64) / 100.0,
                "avg_disc": df["sum_disc_c"].astype(np.float64)
                / (100.0 * df["n_lines"].astype(np.float64)),
            }
        )

    return agg.map_batches(finish, batch_format="pandas")


def _q_q1(sf_dir: str):
    import ray.data
    from ray.data.aggregate import Sum

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=[
            "l_quantity", "l_extendedprice", "l_discount", "l_tax",
            "l_returnflag", "l_linestatus", "l_shipdate",
        ],
    )

    def prep(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cutoff = pa.scalar(pd.Timestamp("1998-09-02"), type=pa.timestamp("us"))
        b = b.filter(pc.less_equal(b["l_shipdate"], cutoff))
        qty_i = pc.round(b["l_quantity"]).cast(pa.int64()).to_numpy(zero_copy_only=False)
        price_c = _scaled_cents(b, "l_extendedprice")
        disc_c = _scaled_cents(b, "l_discount")
        tax_c = _scaled_cents(b, "l_tax")
        # disc_price scaled 1e4, charge scaled 1e6 — exact int64 products
        disc_price_s = price_c * (100 - disc_c)
        charge_s = disc_price_s * (100 + tax_c)
        # partial (per-batch) aggregation: ≤ |flags|x|statuses| rows leave
        # each batch, so the groupby shuffles a handful of rows, not the
        # whole prepped table (the engine-wide combiner pattern)
        df = pd.DataFrame(
            {
                "l_returnflag": b["l_returnflag"].to_numpy(zero_copy_only=False),
                "l_linestatus": b["l_linestatus"].to_numpy(zero_copy_only=False),
                "qty_i": qty_i,
                "price_c": price_c,
                "disc_c": disc_c,
                "disc_price_s": disc_price_s,
                "charge_s": charge_s,
                "n": np.int64(1),
            }
        )
        part = (
            df.groupby(["l_returnflag", "l_linestatus"], sort=False)
            .sum()
            .reset_index()
        )
        return pa.Table.from_pandas(part, preserve_index=False)

    agg = (
        li.map_batches(prep, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty_i", alias_name="sum_qty_i"),
            Sum("price_c", alias_name="sum_price_c"),
            Sum("disc_c", alias_name="sum_disc_c"),
            Sum("disc_price_s", alias_name="sum_disc_price_s"),
            Sum("charge_s", alias_name="sum_charge_s"),
            Sum("n", alias_name="count_order"),
        )
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df["count_order"].astype(np.float64)
        return pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "sum_qty": df["sum_qty_i"].astype(np.float64),
                "sum_base_price": df["sum_price_c"].astype(np.float64) / 100.0,
                "sum_disc_price": df["sum_disc_price_s"].astype(np.float64) / 1e4,
                "sum_charge": df["sum_charge_s"].astype(np.float64) / 1e6,
                "avg_qty": df["sum_qty_i"].astype(np.float64) / n,
                "avg_price": df["sum_price_c"].astype(np.float64) / (100.0 * n),
                "avg_disc": df["sum_disc_c"].astype(np.float64) / (100.0 * n),
                "count_order": df["count_order"].astype(np.int64),
            }
        )

    return agg.map_batches(finish, batch_format="pandas")


def _q_token_counts(sf_dir: str):
    from contest_parsing_ray.stages.text import TokenCount

    docs = _docs(sf_dir)
    out = docs.map_batches(TokenCount(), batch_format="pandas")
    return out.select_columns(["doc_id", "n_words", "n_ws_tokens"])


PACK_CAP = 4096


def _q_pack_offsets(sf_dir: str):
    """GPT-style packing layout: global exclusive prefix-sum of whitespace
    token counts in doc_id order; pack id + cut-straddle flag per doc.

    The count stage is a stateless Arrow task (ONE RE2 count_substring_regex
    kernel)."""
    from contest_parsing_ray.stages.packing import pack_offsets

    def count_tokens(b):
        import pyarrow.compute as pc

        n = pc.count_substring_regex(
            pc.fill_null(b["text"].combine_chunks(), ""), pattern=r"\S+"
        )
        return pa.table(
            {"doc_id": b["doc_id"].combine_chunks(), "n_ws_tokens": n.cast(pa.int64())}
        )

    docs = _docs(sf_dir)
    return pack_offsets(
        docs.map_batches(count_tokens, batch_format="pyarrow"),
        id_col="doc_id", count_col="n_ws_tokens", cap=PACK_CAP,
    )


SAMPLE_RATE = 0.25
MIXTURE_FRACTIONS = {"en": 0.5, "de": 0.2, "zh": 0.2, "es": 0.1}
SAMPLE_K = 10


def _q_sample_rate(sf_dir: str):
    """Deterministic Bernoulli 25% sample: keep iff md5-priority of doc_id
    < 0.25 * 2^64 — shuffle-free, partitioning/restart-stable, and the
    exact same rows fall out of the SQL oracle (that's the contract)."""
    from contest_parsing_ray.stages.sampling import hash_sample_rate

    docs = _docs(sf_dir).select_columns(["doc_id", "lang", "source"])
    return hash_sample_rate(docs, id_col="doc_id", rate=SAMPLE_RATE)


def _q_sample_topk(sf_dir: str):
    """Deterministic stratified sample: the 10 smallest md5-priority docs
    per source (uniform reproducible k-subset per stratum; k=10 < the
    smallest per-source count at sf0.01 so the gate exercises selection)."""
    from contest_parsing_ray.stages.sampling import hash_sample_topk

    docs = _docs(sf_dir).select_columns(["doc_id", "source"])
    return hash_sample_topk(docs, key_col="source", id_col="doc_id", k=SAMPLE_K)


SHUFFLE_SEED = 42
SHUFFLE_SHARDS = 8


def _q_shuffled_export(sf_dir: str):
    """Seeded whole-corpus shuffle for training-batch mixing: every doc
    gets a (shard, pos) from the deterministic permutation key
    md5(f"{seed}:{doc_id}") — shard = key % S, pos = rank within shard by
    (key, id). Pure function of (seed, id): the SQL oracle recomputes the
    identical assignment with md5 + ROW_NUMBER, so the driver hash-checks
    BOTH row-set equality and the shard/pos assignment. One hash exchange
    keyed by shard, in-partition lexsort — no global sort."""
    from contest_parsing_ray.stages.sampling import shuffled_rows

    docs = _docs(sf_dir).select_columns(["doc_id", "source", "n_chars"])
    return shuffled_rows(
        docs, id_col="doc_id", seed=SHUFFLE_SEED, num_shards=SHUFFLE_SHARDS
    )


def _q_vocab_hist(sf_dir: str):
    """Vocabulary histogram over the ACTUAL token arrays: per-batch
    bincount partials (<= vocab rows leave each batch), one tiny
    exchange. Golden-pinned (tokens live in the deterministic sequences
    corpus, not the sf tables)."""
    from contest_parsing_ray.stages.tokens import vocab_histogram

    ds = _seqs(sf_dir)
    # per-file combiner: _seqs is an untransformed parquet read
    return vocab_histogram(ds, raw_shard_paths=ds.input_files())


def _q_bigram_topk(sf_dir: str):
    """Top-100 token bigrams by count over the sequences corpus; ngram
    rendered as a string column ("a b") so the driver compare can sort."""
    from contest_parsing_ray.stages.tokens import token_ngram_topk

    top = token_ngram_topk(_seqs(sf_dir), n=2, k=100)

    def render(b: pa.Table) -> pa.Table:
        grams = [" ".join(map(str, g)) for g in b["ngram"].to_pylist()]
        return pa.table(
            {"ngram": pa.array(grams, pa.string()), "cnt": b["cnt"].combine_chunks()}
        )

    return top.map_batches(render, batch_format="pyarrow")


def _q_word_entropy(sf_dir: str):
    """Per-source word-distribution diagnostics (domain-mixing signal):
    total/distinct words + Shannon entropy, ROUND 6 for the hash compare.
    Null-source rows are unattributable and dropped up front (the stage
    itself REFUSES null keys by contract); the oracle carries the same
    WHERE."""
    import pyarrow.compute as pc

    from contest_parsing_ray.stages.text import source_word_stats

    docs = _docs(sf_dir).map_batches(
        lambda b: b.filter(pc.is_valid(b["source"])),
        batch_format="pyarrow",
    )
    out = source_word_stats(docs)
    return _round_cols(out, ["entropy"])


def _q_sample_weighted(sf_dir: str):
    """Weighted sample without replacement (A-ES): 30 docs, inclusion
    probability ∝ n_chars; float key not emitted (pow differs by ~1 ulp
    across engines; selection is gap-robust)."""
    from contest_parsing_ray.stages.sampling import hash_sample_weighted

    docs = _docs(sf_dir).select_columns(["doc_id", "source", "n_chars"])
    return hash_sample_weighted(docs, id_col="doc_id", weight_col="n_chars", k=30)


def _q_quality(sf_dir: str):
    from contest_parsing_ray.stages.text import QualityScore

    docs = _docs(sf_dir)
    out = docs.map_batches(QualityScore(), batch_format="pandas")
    return out.select_columns(
        ["doc_id", "n_chars_text", "alpha_ratio", "digit_ratio", "punct_ratio", "mean_word_len"]
    )


def _add_md5(batch: pa.Table) -> pa.Table:
    """Arrow-native md5-of-text append (null text = empty string, the
    engine-wide contract) — pyarrow batch format so nullable int columns
    are not upcast to float through a pandas roundtrip."""
    txt = batch["text"].combine_chunks().fill_null("").to_pylist()
    md5s = [hashlib.md5(t.encode()).hexdigest() for t in txt]
    return batch.append_column("md5", pa.array(md5s, pa.string()))


def _q_dedup_docs(sf_dir: str):
    from contest_parsing_ray.stages.dedup import dedup

    docs = _docs(sf_dir).map_batches(_add_md5, batch_format="pyarrow")
    out = dedup(docs, key="md5", keep="first", tiebreak_cols=("doc_id",))
    return out.select_columns(["doc_id", "md5", "lang", "source", "n_chars"])


def _q_langid(sf_dir: str):
    from contest_parsing_ray.stages.text import LangId

    docs = _docs(sf_dir)
    out = docs.map_batches(LangId(), batch_format="pandas")
    return out.select_columns(["doc_id", "lang_pred", "lang_score"])


def _q_fingerprint(sf_dir: str):
    from contest_parsing_ray.stages.text import Fingerprint

    docs = _docs(sf_dir)
    out = docs.map_batches(Fingerprint(), batch_format="pyarrow")
    return out.select_columns(["doc_id", "fingerprint"])


def _q_minhash(sf_dir: str):
    from contest_parsing_ray.stages.neardup import minhash_lsh_pairs

    docs = _docs(sf_dir)
    return minhash_lsh_pairs(docs, id_col="doc_id", jaccard_threshold=0.5)


def _q_minhash_clusters(sf_dir: str):
    """Near-dup pairs folded to dedup DECISIONS: connected components over
    the verified MinHash pairs; min-id representative per cluster."""
    from contest_parsing_ray.stages.neardup import cluster_pairs, minhash_lsh_pairs

    docs = _docs(sf_dir)
    pairs = minhash_lsh_pairs(docs, id_col="doc_id", jaccard_threshold=0.5)
    return cluster_pairs(pairs)


def _q_ngram_jaccard(sf_dir: str):
    """EXACT word-3-gram Jaccard all-pairs via prefix filtering — the one
    dedup-family member with a fully SQL-expressible oracle (MinHash/SimHash
    are approximate and golden-pinned instead). tau=0.8 is the standard
    near-dup operating point AND where prefix filtering is selective
    (prefix = 20% of shingles; below tau~0.7 selectivity collapses — at
    tau=0.4 this corpus produced 522k candidates for 256 true pairs — and
    the scale answer for low thresholds is MinHash-LSH, not exact)."""
    from contest_parsing_ray.stages.neardup import ngram_jaccard_pairs

    docs = _docs(sf_dir)
    return ngram_jaccard_pairs(docs, id_col="doc_id", n=3, threshold=0.8)


def _q_simhash(sf_dir: str):
    from contest_parsing_ray.stages.neardup import simhash_docs

    docs = _docs(sf_dir)
    return simhash_docs(docs).select_columns(["doc_id", "simhash"])


def _q_simhash_pairs(sf_dir: str):
    from contest_parsing_ray.stages.neardup import simhash_neardup_pairs

    docs = _docs(sf_dir)
    return simhash_neardup_pairs(docs, max_hamming=6)


def _q_pq(sf_dir: str):
    """PQ-ADC approximate top-k (8 subspaces x 256 codes — vectors read as
    8-byte codes, the 100 TB memory-scale path). Deterministic seeded
    train; golden-pinned; recall vs exact asserted in test_ann_recall."""
    from contest_parsing_ray.stages.ann import pq_topk_cosine

    emb = _embeddings(sf_dir)
    qdf = (
        emb.filter(expr="vec_id < 5").select_columns(["vec_id", "embedding"]).to_pandas()
    )
    return pq_topk_cosine(
        emb,
        queries=np.stack(qdf["embedding"].to_numpy()),
        query_ids=qdf["vec_id"].to_numpy(),
        k=10, m_subspaces=8, n_codes=256,
    )


def _q_ann(sf_dir: str):
    from contest_parsing_ray.stages.ann import brute_force_topk

    emb = _embeddings(sf_dir)
    qdf = (
        emb.filter(expr="vec_id < 5").select_columns(["vec_id", "embedding"]).to_pandas()
    )
    out = brute_force_topk(
        emb,
        queries=np.stack(qdf["embedding"].to_numpy()),
        query_ids=qdf["vec_id"].to_numpy(),
        k=10,
    )
    return out


def _q_ivf(sf_dir: str):
    """IVF top-k over the embeddings table at a real partial probe
    (n_probe=8 of n_cells=32 — the approximate scale path, not the
    exact-equivalence config). Deterministic: seeded k-means over a
    block-order sample; oracle is a pinned golden (recall vs the exact
    path is asserted in tests/test_ann_recall.py)."""
    from contest_parsing_ray.stages.ann import ivf_topk_cosine

    emb = _embeddings(sf_dir)
    qdf = (
        emb.filter(expr="vec_id < 5").select_columns(["vec_id", "embedding"]).to_pandas()
    )
    return ivf_topk_cosine(
        emb,
        queries=np.stack(qdf["embedding"].to_numpy()),
        query_ids=qdf["vec_id"].to_numpy(),
        k=10,
        n_cells=32,
        n_probe=8,
    )


def _q_emb_neardup(sf_dir: str):
    from contest_parsing_ray.stages.neardup import embedding_neardup_pairs

    emb = _embeddings(sf_dir)
    out = embedding_neardup_pairs(emb, threshold=0.35)
    return out.select_columns(["id_a", "id_b"])


def _q_lsh_neardup(sf_dir: str):
    from contest_parsing_ray.stages.ann import lsh_bucket_neardup

    emb = _embeddings(sf_dir)
    out = lsh_bucket_neardup(emb, dim=64, threshold=0.35)
    return out.select_columns(["id_a", "id_b"])


def _q_multimodal(sf_dir: str):
    from contest_parsing_ray.stages.multimodal import decode_features

    docs = _docs(sf_dir)

    def to_media(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "payload": [t.encode() for t in df["text"].fillna("")],
                "media_type": "text/plain",
            }
        )

    media = docs.map_batches(to_media, batch_format="pandas")
    out = decode_features(media, batch_size=64)
    return out.select_columns(["doc_id", "n_bytes"])


def _q_multimodal_wav(sf_dir: str):
    """REAL media decode: deterministic per-doc WAV payloads (RIFF/PCM16,
    parameters a pure function of doc_id) decoded by the stdlib-struct +
    numpy WAV parser; features (rms/peak/zcr/duration) come from the actual
    decoded samples. Deterministic -> golden-pinned oracle."""
    import pyarrow as pa

    from contest_parsing_ray.stages.multimodal import (
        decode_wav_features,
        synth_wav_payloads,
    )

    docs = _docs(sf_dir)

    def to_media(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].cast(pa.string())  # buffer-hash needs strings
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "payload": pa.array(synth_wav_payloads(ids), type=pa.binary()),
                "media_type": pa.array(["audio/wav"] * len(t)),
            }
        )

    media = docs.map_batches(to_media, batch_format="pyarrow")
    out = decode_wav_features(media, batch_size=64)
    out = _round_cols(out, ["rms", "peak", "zcr", "dc_mean", "duration_s"])
    return out.select_columns(
        ["doc_id", "sample_rate", "n_samples", "duration_s", "rms", "peak",
         "zcr"]
    )


def _q_multimodal_png(sf_dir: str):
    """REAL image decode: deterministic per-doc PNG payloads (gradient +
    checker pattern, filter type cycling through all five scanline filters)
    decoded by the stdlib-zlib + numpy PNG parser; features (dimensions,
    pixel mean/std/min/max) come from the actual decoded pixels.
    Deterministic -> golden-pinned oracle."""
    import pyarrow as pa

    from contest_parsing_ray.stages.multimodal import (
        decode_png_features,
        synth_png_payloads,
    )

    docs = _docs(sf_dir)

    def to_media(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].cast(pa.string())
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "payload": pa.array(synth_png_payloads(ids), type=pa.binary()),
                "media_type": pa.array(["image/png"] * len(t)),
            }
        )

    media = docs.map_batches(to_media, batch_format="pyarrow")
    out = decode_png_features(media, batch_size=64)
    out = _round_cols(out, ["mean_px", "std_px"])
    return out.select_columns(
        ["doc_id", "width", "height", "n_channels", "mean_px", "std_px",
         "min_px", "max_px"]
    )



def _q_multimodal_jpeg(sf_dir: str):
    """REAL baseline-JPEG decode: deterministic per-doc JPEG payloads
    (smooth gradients; gray/RGB x 4:4:4/4:2:0 x four quality levels, all a
    pure function of doc_id) decoded by the pure-numpy T.81 decoder
    (Huffman LUT entropy decode + einsum IDCT + YCbCr->RGB); features come
    from the actual decoded pixels. Deterministic -> golden-pinned
    oracle."""
    import pyarrow as pa

    from contest_parsing_ray.stages.multimodal import (
        decode_jpeg_features,
        synth_jpeg_payloads,
    )

    docs = _docs(sf_dir)

    def to_media(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].cast(pa.string())
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "payload": pa.array(synth_jpeg_payloads(ids), type=pa.binary()),
                "media_type": pa.array(["image/jpeg"] * len(t)),
            }
        )

    media = docs.map_batches(to_media, batch_format="pyarrow")
    out = decode_jpeg_features(media, batch_size=64)
    out = _round_cols(out, ["mean_px", "std_px"])
    return out.select_columns(
        ["doc_id", "width", "height", "n_channels", "subsampled", "mean_px",
         "std_px", "min_px", "max_px"]
    )


def _q_multimodal_video(sf_dir: str):
    """REAL video decode: deterministic per-doc AVI/MJPEG payloads (2-6
    translating-gradient frames, gray/RGB, parameters a pure function of
    doc_id) demuxed by the pure-struct RIFF walker and frame-decoded by the
    numpy T.81 JPEG decoder at frame_stride=2; features (incl. the motion
    signal) come from the actual sampled pixels. Deterministic ->
    golden-pinned oracle."""
    import pyarrow as pa

    from contest_parsing_ray.stages.video import (
        decode_video_features,
        synth_avi_payloads,
    )

    docs = _docs(sf_dir)

    def to_media(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].cast(pa.string())
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "payload": pa.array(synth_avi_payloads(ids), type=pa.binary()),
                "media_type": pa.array(["video/x-msvideo"] * len(t)),
            }
        )

    media = docs.map_batches(to_media, batch_format="pyarrow")
    # the per-frame numpy JPEG decode is the bench's slowest single query
    # and is embarrassingly parallel across videos; batch 16 keeps the
    # payload bytes each task holds bounded while giving the task pool
    # enough batches to fan out (5000 docs at sf0.1)
    out = decode_video_features(media, frame_stride=2, batch_size=16)
    out = _round_cols(out, ["mean_px", "std_px", "motion"])
    return out.select_columns(
        ["doc_id", "width", "height", "n_frames", "n_sampled", "fps_x1000",
         "mean_px", "std_px", "min_px", "max_px", "motion"]
    )


def _q_compress_roundtrip(sf_dir: str):
    """Gorilla/delta-of-delta encode the 1h rollup series then decode —
    the decoded points must equal the rollup (SQL-checkable)."""
    from contest_parsing_ray.stages.compress import compress_series, decompress_chunks
    from contest_parsing_ray.stages.rollup import rollup_tiers

    ev = _events(sf_dir, columns=["ts", "event_type", "value"])
    r = rollup_tiers(
        ev, {"1h": W1H}, value_col="value", key_col="event_type",
        ts_col="event_time_us",
    )["1h"]
    r = _round_cols(r, ["sum_v"])
    chunks = compress_series(r, value_col="sum_v", key_col="event_type")
    back = decompress_chunks(chunks, key_col="event_type")
    return back.select_columns(["event_type", "bucket_us", "value"])


def _q_range_read(sf_dir: str):
    """Time-range query over the compressed 1h tier: encode the rollup to
    chunk parquet, then ``read_range`` the middle half of the bucket span —
    chunk [t0, t_last] bounds prune non-overlapping chunks at the Parquet
    read, edge chunks are trimmed. Window bounds are integer-derived from
    the store's own min/max so the SQL oracle reproduces them exactly."""
    import tempfile

    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from contest_parsing_ray.stages.compress import compress_series, read_range
    from contest_parsing_ray.stages.rollup import rollup_tiers

    ev = _events(sf_dir, columns=["ts", "event_type", "value"])
    r = rollup_tiers(
        ev, {"1h": W1H}, value_col="value", key_col="event_type",
        ts_col="event_time_us",
    )["1h"]
    r = _round_cols(r, ["sum_v"])
    # small chunks so the window genuinely prunes chunks, not just rows
    chunks = compress_series(
        r, value_col="sum_v", key_col="event_type", chunk_points=8
    )
    d = tempfile.mkdtemp(prefix="cpr_chunks_1h_")
    chunks.write_parquet(d)
    bounds = pads.dataset(d).to_table(columns=["t0", "t_last"])
    mn = pc.min(bounds["t0"]).as_py()
    mx = pc.max(bounds["t_last"]).as_py()
    span = mx - mn
    lo = mn + (span // (4 * W1H)) * W1H
    hi = mn + ((3 * span) // (4 * W1H)) * W1H
    out = read_range(d, lo, hi, key_col="event_type")
    return out.select_columns(["event_type", "bucket_us", "value"])


# Exchange partition count for the fixture-scale telemetry queries: the data
# is a handful of rows, so more partitions only add reduce tasks.
FIXTURE_PARTITIONS = 2


def _write_f2_service(d: str, svc: str, pod: str, t0: int) -> None:
    """One F2-shaped service fixture: metrics + 2-span trace + one log line."""
    import json

    prom = {"status": "success", "data": {"resultType": "matrix", "result": [
        {"metric": {"__name__": "container_cpu_usage_seconds_total",
                    "container": "c1", "pod": pod,
                    "instance": "i1", "job": "kubernetes-pods"},
         "values": [[str(t0), "1.5"], [str(t0 + 30), "2.0"]]},
        {"metric": {"__name__": "node_network_receive_bytes_total",
                    "device": "eth0", "instance": "i2",
                    "job": "kubernetes-service-endpoints"},
         "values": [[str(t0), "100.0"], [str(t0 + 30), "200.0"]]}]}}
    json.dump(prom, open(f"{d}/metrics.json", "w"))
    jaeger = {"data": [{"traceID": f"t-{svc}", "spans": [
        {"spanID": "s1", "operationName": "GET /x",
         "startTime": (t0 + 1) * 1_000_000, "duration": 9, "processID": "p1",
         "tags": [{"key": "http.status_code", "value": "200"}], "references": []},
        {"spanID": "s2", "operationName": "GET /y",
         "startTime": (t0 + 16) * 1_000_000, "duration": 1, "processID": "p1",
         "tags": [], "references": [{"traceID": f"t-{svc}", "spanID": "s1"}]}],
        "processes": {"p1": {"serviceName": svc,
                             "tags": [{"key": "hostname", "value": pod}]}}}]}
    json.dump(jaeger, open(f"{d}/traces.json", "w"))
    with open(f"{d}/{svc}.log", "w") as f:
        # 3 lines -> > 100 bytes, so S1 discovery keeps the stream
        f.write("2022-07-08 07:48:01.934 INFO 1---[nio-exec-1] "
                "c.t.OrderService: created order 42\n")
        f.write("2022-07-08 07:48:02.100 WARN 1---[nio-exec-1] "
                "c.t.OrderService: retrying payment 42\n")
        f.write("2022-07-08 07:48:16.500 ERROR 1---[nio-exec-2] "
                "c.t.OrderService: failed order 43\n")


def write_f2_corpus(root: str, services: tuple[str, ...] = ("ts-order-service",
                                                           "ts-pay-service")) -> str:
    """FilepathFinder-shaped corpus: per-service dirs with monitoring/ ts-*/
    logs/ streams, plus a decoy service missing traces (must be dropped) and
    an undersized (<100 B) export (must be skipped)."""
    import os

    T0 = 1_657_266_480
    for k, svc in enumerate(services):
        sdir = os.path.join(root, svc)
        for sub in ("monitoring", "ts-traces", "logs"):
            os.makedirs(os.path.join(sdir, sub), exist_ok=True)
        flat = os.path.join(sdir, "_flat")
        os.makedirs(flat, exist_ok=True)
        _write_f2_service(flat, svc, f"pod-{svc}-1", T0 + 60 * k)
        os.replace(f"{flat}/metrics.json", f"{sdir}/monitoring/metrics.json")
        os.replace(f"{flat}/traces.json", f"{sdir}/ts-traces/traces.json")
        os.replace(f"{flat}/{svc}.log", f"{sdir}/logs/{svc}.log")
        os.rmdir(flat)
        with open(f"{sdir}/monitoring/tiny.json", "w") as f:
            f.write("{}")  # < 100 bytes — discovery must skip it
    decoy = os.path.join(root, "no-traces-service", "monitoring")
    os.makedirs(decoy, exist_ok=True)
    with open(f"{decoy}/metrics.json", "w") as f:
        f.write('{"status": "success", "data": {"result": []}}' + " " * 100)
    return root


def _q_telemetry_fixture(sf_dir: str):
    """The reference Joiner analog over deterministic F2-shaped fixtures
    built on the fly (the driver testdata has no Jaeger/Prometheus streams;
    rows-only check — semantics are pinned by golden conformance tests)."""
    import tempfile

    from contest_parsing_ray.pipelines.telemetry_join import telemetry_join
    from contest_parsing_ray.sources.jaeger import read_jaeger_json
    from contest_parsing_ray.sources.logs import read_structured_logs
    from contest_parsing_ray.sources.prometheus import read_prometheus_json

    d = tempfile.mkdtemp(prefix="cpr_f2_")
    _write_f2_service(d, "ts-order-service", "pod-a-1", 1_657_266_480)
    spans = read_jaeger_json(f"{d}/traces.json", 30_000_000)
    metrics = read_prometheus_json(f"{d}/metrics.json", 30_000_000)
    logs = read_structured_logs(f"{d}/ts-order-service.log", 30_000_000)
    return telemetry_join(
        spans, metrics, logs, 30_000_000, num_partitions=FIXTURE_PARTITIONS
    )


def _q_corpus_end_to_end(sf_dir: str):
    """S1 + JoinManager.process() analog: discover a FilepathFinder-shaped
    corpus, run the per-service parse→join→tree→explode chain, write tiered
    Parquet, and return the per-service row manifest (rows-only check)."""
    import tempfile

    from contest_parsing_ray.pipelines.telemetry_join import process_corpus

    root = tempfile.mkdtemp(prefix="cpr_corpus_")
    out = tempfile.mkdtemp(prefix="cpr_corpus_out_")
    write_f2_corpus(root)
    manifest = process_corpus(
        root, out, 30_000_000, num_partitions=FIXTURE_PARTITIONS
    )
    rows = [
        {
            "service": svc,
            "joined_rows": int(m["joined_rows"]),
            "exploded_rows": int(m["exploded_rows"]),
        }
        for svc, m in sorted(manifest.items())
    ]
    return pd.DataFrame(rows)



def _q_asof(sf_dir: str):
    """Backward as-of join: each event picks the latest 1h rollup point at
    or before its timestamp for its event_type."""
    from contest_parsing_ray.stages.rollup import rollup_tiers
    from contest_parsing_ray.stages.window import asof_join

    ev = _events(sf_dir, columns=["ts", "event_id", "event_type"])
    r = rollup_tiers(
        ev, {"1h": W1H}, value_col="event_id", key_col="event_type",
        ts_col="event_time_us",
    )["1h"]
    joined = asof_join(
        ev.select_columns(["event_id", "event_type", "event_time_us"]),
        r.select_columns(["event_type", "bucket_us", "cnt"]),
        key_col="event_type",
        left_ts_col="event_time_us",
        right_ts_col="bucket_us",
        right_value_cols=["cnt"],
    )

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        df = df.rename(columns={"bucket_us": "asof_bucket_us", "cnt": "asof_cnt"})
        df["event_id"] = df["event_id"].astype(np.int64)
        df["asof_bucket_us"] = df["asof_bucket_us"].astype(np.float64)
        df["asof_cnt"] = df["asof_cnt"].astype(np.float64)
        return df[["event_id", "event_type", "asof_bucket_us", "asof_cnt"]]

    return joined.map_batches(rename, batch_format="pandas")


def _q_asof_forward(sf_dir: str):
    """Forward as-of join: each event picks the EARLIEST 1h rollup point at
    or after its timestamp (DuckDB ASOF ON l.ts <= r.ts) — the lookahead
    companion of asof_join_rollup."""
    from contest_parsing_ray.stages.rollup import rollup_tiers
    from contest_parsing_ray.stages.window import asof_join

    ev = _events(sf_dir, columns=["ts", "event_id", "event_type"])
    r = rollup_tiers(
        ev, {"1h": W1H}, value_col="event_id", key_col="event_type",
        ts_col="event_time_us",
    )["1h"]
    joined = asof_join(
        ev.select_columns(["event_id", "event_type", "event_time_us"]),
        r.select_columns(["event_type", "bucket_us", "cnt"]),
        key_col="event_type",
        left_ts_col="event_time_us",
        right_ts_col="bucket_us",
        right_value_cols=["cnt"],
        direction="forward",
    )

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        df = df.rename(columns={"bucket_us": "asof_bucket_us", "cnt": "asof_cnt"})
        df["event_id"] = df["event_id"].astype(np.int64)
        df["asof_bucket_us"] = df["asof_bucket_us"].astype(np.float64)
        df["asof_cnt"] = df["asof_cnt"].astype(np.float64)
        return df[["event_id", "event_type", "asof_bucket_us", "asof_cnt"]]

    return joined.map_batches(rename, batch_format="pandas")


def _q_customers_no_urgent(sf_dir: str):
    """Broadcast ANTI-join (SQL NOT EXISTS): customers with no URGENT
    order. The urgent-custkey set is deduped per batch, shipped once via
    ray.put, and the customer stream filters in place — zero large-side
    shuffle (the anti twin of hot_user_events)."""
    import ray.data

    from contest_parsing_ray.stages.join import broadcast_semi_join

    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name", "c_acctbal"],
    )
    urgent = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderpriority"],
    ).filter(
        expr="o_orderpriority == '1-URGENT'"
    ).select_columns(["o_custkey"]).rename_columns(["c_custkey"])
    return broadcast_semi_join(cust, urgent, on="c_custkey", anti=True)


def _q_trace_one_row(sf_dir: str):
    """A3 exploder tail: one wide row per user (trace analog) with per-
    event_type (service analog) aggregates — mean/min/max, span count,
    " - "-joined event ids, sorted tied modes — plus trace totals."""
    from contest_parsing_ray.stages.exploder import trace_one_row

    ev = _events(sf_dir, columns=["ts", "event_id", "user_id", "event_type", "value"])

    def add_vband(b: pa.Table) -> pa.Table:
        v = np.floor(b["value"].to_numpy(zero_copy_only=False)).astype(np.int64) % 5
        return b.append_column("vband", pa.array(v))

    wide = trace_one_row(
        ev.map_batches(add_vband, batch_format="pyarrow"),
        trace_col="user_id",
        service_col="event_type",
        minmax_cols=("value",),
        join_cols=("event_id",),
        mode_cols=("vband",),
        duration_col="value",
        sort_cols=("ts", "event_id"),
    )
    float_cols = [f"{t}-mean_value" for t in EVENT_TYPES] + ["trace_duration"]
    str_cols = [f"{t}-{a}" for t in EVENT_TYPES for a in ("join_event_id", "mode_vband")]

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        for c in float_cols:
            df[c] = df[c].astype(np.float64).round(6)
        for c in str_cols:
            # missing (trace, service) cells: None (SQL NULL), not float NaN
            df[c] = df[c].where(df[c].notna(), None)
        return df

    return wide.map_batches(finish, batch_format="pandas")


def _q_sliding(sf_dir: str):
    """3-bucket sliding sum of per-hour counts per event_type."""
    from contest_parsing_ray.stages.rollup import rollup_tiers
    from contest_parsing_ray.stages.window import sliding_window

    ev = _events(sf_dir, columns=["ts", "event_type", "value"])
    r = rollup_tiers(
        ev, {"1h": W1H}, value_col="value", key_col="event_type",
        ts_col="event_time_us",
    )["1h"]
    out = sliding_window(
        r.select_columns(["event_type", "bucket_us", "cnt"]),
        key_col="event_type", ts_col="bucket_us", value_cols=["cnt"], window=3,
    )
    return _round_cols(out, ["cnt_w3_sum"])


GAP_30M = 30 * 60 * 1_000_000
_REDACT_PAT = r"\b(customer|spark)\b"


def _q_ohlc(sf_dir: str):
    """OHLC + counter-rate per (event_type, 1h floor bucket): open/close
    deterministic on (ts, event_id); rate = delta/elapsed within bucket."""
    from contest_parsing_ray.stages.ohlc import ohlc_rollup

    ev = _events(sf_dir, columns=["ts", "event_id", "event_type", "value"])
    out = ohlc_rollup(
        ev, key_col="event_type", ts_col="event_time_us",
        value_col="value", order_col="event_id", width_us=W1H,
    )
    return _round_cols(out, ["open_v", "high_v", "low_v", "close_v", "rate_per_s"])


def _q_m4(sf_dir: str):
    """M4 visualization downsample: per (event_type, 1h bucket) the ≤4
    ACTUAL points achieving first/last/min/max — dedup'd; value ties on a
    timestamp resolve by value so the points are partitioning-invariant."""
    from contest_parsing_ray.stages.ohlc import m4_downsample

    ev = _events(sf_dir, columns=["ts", "event_type", "value"])
    return m4_downsample(
        ev, key_col="event_type", ts_col="event_time_us",
        value_col="value", width_us=W1H,
    )


def _q_lttb(sf_dir: str):
    """LTTB decimation to 200 points per event_type (Steinarsson 2013).
    Sequential across buckets within a key (no SQL form — golden-pinned);
    determinism pinned by the partitioning-invariance unit test."""
    from contest_parsing_ray.stages.ohlc import lttb_downsample

    ev = _events(sf_dir, columns=["ts", "event_type", "value"])
    return lttb_downsample(
        ev, key_col="event_type", ts_col="event_time_us",
        value_col="value", n_out=200,
    )


def _q_sessionize(sf_dir: str):
    """Per-user sessionization at 30-minute inactivity gaps."""
    from contest_parsing_ray.stages.window import sessionize

    ev = _events(sf_dir, columns=["ts", "event_id", "user_id"])
    return sessionize(
        ev, user_col="user_id", ts_col="event_time_us",
        gap_us=GAP_30M, order_col="event_id",
    )


def _q_redact(sf_dir: str):
    """Regex redaction (PII-scrub plumbing) over documents: replace entity
    words, count redactions. RE2 on both sides (pyarrow + DuckDB)."""
    from contest_parsing_ray.stages.text import RegexRedact

    docs = _docs(sf_dir)
    out = docs.map_batches(
        RegexRedact(pattern=_REDACT_PAT, replacement="<ENT>"),
        batch_format="pyarrow",
    )
    return out.select_columns(["doc_id", "text_redacted", "n_redacted"])


def _q_repetition(sf_dir: str):
    """Gopher-style within-doc repetition: duplicate-word fraction."""
    from contest_parsing_ray.stages.text import RepetitionScore

    docs = _docs(sf_dir)
    out = docs.map_batches(RepetitionScore(), batch_format="pyarrow")
    return _round_cols(
        out.select_columns(
            ["doc_id", "n_words_sep", "n_distinct_words", "dup_word_frac"]
        ),
        ["dup_word_frac"],
    )


HIST_LO, HIST_HI, HIST_BINS = 0.0, 500.0, 20
HOT_USER_MIN_EVENTS = 70
EWMA_ALPHA = 0.3
ZSCORE_WINDOW, ZSCORE_MIN_PERIODS, ZSCORE_THRESHOLD = 24, 3, 2.0


def _q_zscore(sf_dir: str):
    """Rolling z-score anomaly flags over the per-event_type 1h count
    series: each bucket judged against the previous 24 buckets' counts."""
    from contest_parsing_ray.stages.rollup import rollup_tiers
    from contest_parsing_ray.stages.window import rolling_zscore

    ev = _events(sf_dir, columns=["ts", "event_type", "value"])
    r = rollup_tiers(
        ev, {"1h": W1H}, value_col="value", key_col="event_type",
        ts_col="event_time_us",
    )["1h"]
    out = rolling_zscore(
        r.select_columns(["event_type", "bucket_us", "cnt"]),
        key_col="event_type", ts_col="bucket_us", value_col="cnt",
        window=ZSCORE_WINDOW, min_periods=ZSCORE_MIN_PERIODS,
        threshold=ZSCORE_THRESHOLD,
    )
    return _round_cols(out, ["cnt_mu", "cnt_sd", "cnt_z"])


def _q_dup_ngrams(sf_dir: str):
    """Per-doc duplicate 8-gram fraction over the RAW token arrays
    (Gopher-style repetition quality signal, tokens payload): exact
    distinct via in-batch lexsort of the actual gram columns — no hashing,
    no exchange, one row per doc leaves each batch."""
    from contest_parsing_ray.stages.tokens import dup_ngram_stats

    return _round_cols(dup_ngram_stats(_seqs(sf_dir), n=8), ["dup_frac"])


def _q_cross_doc_spans(sf_dir: str):
    """Cross-document duplicated-span coverage per doc (boilerplate /
    shared-template signal over the RAW token arrays — the span-level
    granularity between dup_ngram_frac and the doc-level near-dup
    family): fraction of each doc covered by 8-gram spans appearing in
    >= 2 DISTINCT docs. One gram-hash exchange for exact distinct-doc
    counts, hot set broadcast once, per-doc interval-union coverage."""
    from contest_parsing_ray.stages.tokens import cross_doc_span_stats

    return _round_cols(
        cross_doc_span_stats(_seqs(sf_dir), n=8, min_docs=2),
        ["dup_span_frac"],
    )


def _q_strip_hot_spans(sf_dir: str):
    """Cross-doc substring dedup ACTUATOR: token arrays with every
    >=2-distinct-doc 8-gram span removed, projected to a compact
    per-doc view (cleaned n_tok + the flagship's order-sensitive token
    checksum) so the golden pins the exact cleaned payload without
    committing the arrays; exactness vs content-exact SQL is pinned in
    test_strip_cross_doc_spans_matches_duckdb."""
    from contest_parsing_ray.sources.ingest import token_checksum
    from contest_parsing_ray.stages.tokens import strip_cross_doc_spans

    out = strip_cross_doc_spans(_seqs(sf_dir), n=8, min_docs=2)
    return out.map_batches(
        token_checksum, batch_format="pyarrow"
    ).select_columns(["doc_id", "n_tok", "token_ck"])


def _q_contamination(sf_dir: str):
    """Benchmark decontamination: contamination coverage of every corpus
    doc vs a deterministic pseudo-benchmark reference (the ~0.5%
    md5-band Bernoulli sample of the same corpus — exact duplicates and
    hash-coincident spans of reference docs flag as contaminated).
    Reference window hashes broadcast once; corpus side one streamed
    pass, no exchange."""
    from contest_parsing_ray.stages.sampling import hash_sample_rate
    from contest_parsing_ray.stages.tokens import (
        reference_contamination_stats,
    )

    ds = _seqs(sf_dir)
    ref = hash_sample_rate(ds, "doc_id", rate=0.005)
    return _round_cols(
        reference_contamination_stats(ds, ref, n=8),
        ["contamination_frac"],
    )


def _q_span_corrupt(sf_dir: str):
    """Deterministic T5-style span corruption (grid-based, pure function
    of (seed, doc_id, position) — restart/reshard-stable) projected to a
    compact per-doc view: mask stats + order-sensitive checksums of the
    corrupted input and the target, so the golden pins both payloads
    without committing token arrays. Losslessness (input+target →
    original) is pinned in test_span_corrupt_roundtrip_and_stats."""
    from contest_parsing_ray.sources.ingest import token_checksum
    from contest_parsing_ray.stages.tokens import span_corrupt

    out = span_corrupt(_seqs(sf_dir), mask_rate=0.15, mean_span=3, seed=7)

    def cks(t: pa.Table) -> pa.Table:
        a = token_checksum(
            t.select(["input_tokens"]).rename_columns(["tokens"])
        )["token_ck"]
        b = token_checksum(
            t.select(["target_tokens"]).rename_columns(["tokens"])
        )["token_ck"]
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tok": t["n_tok"],
            "n_masked": t["n_masked"],
            "n_spans": t["n_spans"],
            "input_ck": a,
            "target_ck": b,
        })

    return out.map_batches(cks, batch_format="pyarrow")


def _q_mixture_sample(sf_dir: str):
    """Deterministic data-mixing sample over documents: per-lang
    Bernoulli rates derived so the EXPECTED kept n_chars per lang hits
    en 50% / de 20% / zh 20% / es 10% of a budget = half the corpus's
    total chars (fr excluded -> dropped). Pure md5-band function of
    doc_id; the SQL oracle recomputes the same totals, rates, and
    threshold (matched double-op order), so the exact same rows fall
    out — a REAL SQL oracle, not a golden."""
    from contest_parsing_ray.stages.sampling import mixture_sample

    docs = _docs(sf_dir).select_columns(
        ["doc_id", "lang", "source", "n_chars"]
    )
    return mixture_sample(
        docs, id_col="doc_id", key_col="lang", weight_col="n_chars",
        target_fractions=MIXTURE_FRACTIONS, budget_fraction=0.5,
    )


def _q_corr_pairs(sf_dir: str):
    """Which event types co-move: pairwise Pearson r between the per-type
    1h count series. One bucket-hash exchange co-locates cross-sections;
    each partition emits <= pairs sufficient-stat rows regardless of
    bucket count; driver folds the closed form."""
    from contest_parsing_ray.stages.corr import pairwise_corr
    from contest_parsing_ray.stages.rollup import rollup_tiers

    ev = _events(sf_dir, columns=["ts", "event_type", "value"])
    r = rollup_tiers(
        ev, {"1h": W1H}, value_col="value", key_col="event_type",
        ts_col="event_time_us",
    )["1h"]
    out = pairwise_corr(
        r.select_columns(["event_type", "bucket_us", "cnt"]),
        key_col="event_type", ts_col="bucket_us", value_col="cnt",
    )
    import pyarrow.compute as pc

    return out.set_column(
        out.schema.get_field_index("r"), "r", pc.round(out["r"], 6)
    )


CUSUM_K_SD, CUSUM_H_SD = 0.5, 5.0


def _q_cusum(sf_dir: str):
    """Two-sided CUSUM changepoint statistic (Page 1954) over the per-type
    1h count series; the clamped recursion runs as grouped cumsum+cummin
    (reflection identity), no sequential loop."""
    from contest_parsing_ray.stages.rollup import rollup_tiers
    from contest_parsing_ray.stages.window import cusum

    ev = _events(sf_dir, columns=["ts", "event_type", "value"])
    r = rollup_tiers(
        ev, {"1h": W1H}, value_col="value", key_col="event_type",
        ts_col="event_time_us",
    )["1h"]
    out = cusum(
        r.select_columns(["event_type", "bucket_us", "cnt"]),
        key_col="event_type", ts_col="bucket_us", value_col="cnt",
        k_sd=CUSUM_K_SD, h_sd=CUSUM_H_SD,
    )
    return _round_cols(out, ["cnt_cusum_pos", "cnt_cusum_neg"])


def _q_trend_slope(sf_dir: str):
    """Per-type OLS trend (counts/hour drift) of the 1h count series;
    regr_slope semantics, x shifted to each key's first bucket and scaled
    us->hours so the moments stay in float range."""
    from contest_parsing_ray.stages.corr import trend_slope
    from contest_parsing_ray.stages.rollup import rollup_tiers

    ev = _events(sf_dir, columns=["ts", "event_type", "value"])
    r = rollup_tiers(
        ev, {"1h": W1H}, value_col="value", key_col="event_type",
        ts_col="event_time_us",
    )["1h"]
    out = trend_slope(
        r.select_columns(["event_type", "bucket_us", "cnt"]),
        key_col="event_type", ts_col="bucket_us", value_col="cnt",
    )
    import pyarrow.compute as pc

    for c in ("slope", "intercept"):
        out = out.set_column(
            out.schema.get_field_index(c), c, pc.round(out[c], 6)
        )
    return out


def _q_seasonal(sf_dir: str):
    """Classical additive seasonal decomposition of the per-type 1h count
    series: centered 24-row MA trend + hour-of-day seasonal index +
    remainder (value = trend + seasonal + remainder)."""
    from contest_parsing_ray.stages.rollup import rollup_tiers
    from contest_parsing_ray.stages.window import seasonal_decompose

    ev = _events(sf_dir, columns=["ts", "event_type", "value"])
    r = rollup_tiers(
        ev, {"1h": W1H}, value_col="value", key_col="event_type",
        ts_col="event_time_us",
    )["1h"]
    out = seasonal_decompose(
        r.select_columns(["event_type", "bucket_us", "cnt"]),
        key_col="event_type", ts_col="bucket_us", value_col="cnt",
        period=24, width_us=W1H,
    )
    return _round_cols(out, ["trend", "seasonal", "remainder"])


def _q_winsorize(sf_dir: str):
    """Outlier-robust clipping of events.value to each event_type's OWN
    exact [p05, p95] quantile_disc bounds: bounds from the shared-pass
    refinement engine, broadcast once, clip is a stateless vectorized map
    — the events stream never shuffles."""
    import ray.data

    from contest_parsing_ray.stages.quantiles import winsorize_by_key

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "event_type", "value"],
    )
    return winsorize_by_key(
        ev, "event_type", "value", 0.05, 0.95, max_candidates=2048
    )


def _q_percent_rank(sf_dir: str):
    """Distributed PERCENT_RANK within event_type — no global sort: one
    key exchange of the 3 projected columns, grouped C-level min-rank
    in-partition."""
    import ray.data

    from contest_parsing_ray.stages.window import percent_rank

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "event_type", "value"],
    )
    out = percent_rank(ev, "event_type", "value")
    return _round_cols(out, ["pct_rank"])


def _q_record_high(sf_dir: str):
    """New-high-watermark detection on the per-type 1h count series:
    which buckets set a new all-time count record for their type."""
    from contest_parsing_ray.stages.rollup import rollup_tiers
    from contest_parsing_ray.stages.window import running_record

    ev = _events(sf_dir, columns=["ts", "event_type", "value"])
    r = rollup_tiers(
        ev, {"1h": W1H}, value_col="value", key_col="event_type",
        ts_col="event_time_us",
    )["1h"]
    out = running_record(
        r.select_columns(["event_type", "bucket_us", "cnt"]),
        key_col="event_type", ts_col="bucket_us", value_col="cnt",
    )

    def cast_pm(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("prev_max")
        return t.set_column(i, "prev_max", t["prev_max"].cast(pa.float64()))

    return out.map_batches(cast_pm, batch_format="pyarrow")


def _q_vocab_jaccard(sf_dir: str):
    """Pairwise Jaccard between per-source token vocabularies over the
    sequences corpus (domain-mixing diagnostic): per-batch presence
    bitsets (vocab/8 bytes per key leave a batch), driver ORs + popcounts
    pairs; exact."""
    from contest_parsing_ray.stages.tokens import source_vocab_jaccard

    out = source_vocab_jaccard(_seqs(sf_dir))
    import pyarrow.compute as pc

    return out.set_column(
        out.schema.get_field_index("jaccard"), "jaccard",
        pc.round(out["jaccard"], 6),
    )


HOLT_A, HOLT_B = 0.3, 0.2


def _q_holt(sf_dir: str):
    """Holt linear smoothing of the per-type 1h count series: level +
    trend + one-step-ahead forecast (the forecasting companion of
    ewma_1h)."""
    from contest_parsing_ray.stages.rollup import rollup_tiers
    from contest_parsing_ray.stages.window import holt_smooth

    ev = _events(sf_dir, columns=["ts", "event_type", "value"])
    r = rollup_tiers(
        ev, {"1h": W1H}, value_col="value", key_col="event_type",
        ts_col="event_time_us",
    )["1h"]
    out = holt_smooth(
        r.select_columns(["event_type", "bucket_us", "cnt"]),
        key_col="event_type", ts_col="bucket_us", value_col="cnt",
        alpha=HOLT_A, beta=HOLT_B,
    )
    return _round_cols(out, ["level", "trend", "forecast_next"])


COHORT_W_US = 7 * 24 * W1H  # weekly cohorts


def _q_cohort(sf_dir: str):
    """Weekly cohort retention matrix: users bucketed by first-seen week,
    distinct-counted in every week they are active. The unbounded user
    dimension only ever lives inside per-user co-located partitions."""
    from contest_parsing_ray.stages.cumulative import cohort_retention

    ev = _events(sf_dir, columns=["ts", "user_id"])
    return cohort_retention(ev, "user_id", "event_time_us", COHORT_W_US)


def _q_interarrival(sf_dir: str):
    """Arrival-process profile per event_type: count/mean/median/p95 of
    consecutive-event gaps (quantile_disc semantics), deterministic tie
    order (ts, event_id)."""
    from contest_parsing_ray.stages.window import interarrival_stats

    ev = _events(sf_dir, columns=["ts", "event_id", "event_type"])
    # mean is ONE double division of an exact int sum — deterministic on
    # both sides, no rounding needed (ROUND at 1e9 scale only exposes
    # half-even vs half-away tie-breaking)
    return interarrival_stats(
        ev, "event_type", "event_time_us", "event_id", qs=(0.5, 0.95)
    )


def _q_minmax(sf_dir: str):
    """Min-max normalize events.value within each event_type (broadcast
    two-pass: streaming (key,min,max) partial fold, vectorized map; large
    side never shuffles; bit-identical to the SQL window expression)."""
    import ray.data

    from contest_parsing_ray.stages.quantiles import minmax_normalize_by_key

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "event_type", "value"],
    )
    return minmax_normalize_by_key(ev, "event_type", "value")


def _q_vocab_containment(sf_dir: str):
    """Asymmetric vocabulary containment between sources (|A∩B|/|A| and
    /|B|) — which smaller vocabulary lives inside which larger one, the
    signal Jaccard's symmetric union hides; same bitset machinery."""
    from contest_parsing_ray.stages.tokens import source_vocab_jaccard

    out = source_vocab_jaccard(_seqs(sf_dir), containment=True)
    import pyarrow.compute as pc

    for c in ("jaccard", "c_s1_in_s2", "c_s2_in_s1"):
        out = out.set_column(
            out.schema.get_field_index(c), c, pc.round(out[c], 6)
        )
    return out


def _q_token_richness(sf_dir: str):
    """Vocabulary-richness diagnostics per source over the raw token ids:
    total tokens, vocab size, hapax count (global cnt==1 — correct
    because each (key, token) pair meets in exactly one partition of the
    counting exchange), type-token ratio."""
    from contest_parsing_ray.stages.tokens import source_token_richness

    ds = _seqs(sf_dir)
    # per-file combiner path: _seqs is an untransformed parquet read, so
    # its input_files ARE the corpus (exchange = n_files x keys x vocab)
    out = source_token_richness(ds, raw_shard_paths=ds.input_files())
    return _round_cols(out, ["type_token_ratio"])


def _q_rolling_median(sf_dir: str):
    """Trailing 24h rolling MEDIAN (exact quantile_disc, partial head
    windows included) of the per-event_type hourly count series — the
    robust-baseline companion of zscore_anomaly_1h."""
    from contest_parsing_ray.stages.rollup import rollup_tiers
    from contest_parsing_ray.stages.window import rolling_quantile

    ev = _events(sf_dir, columns=["ts", "event_type", "value"])
    r = rollup_tiers(
        ev, {"1h": W1H}, value_col="value", key_col="event_type",
        ts_col="event_time_us",
    )["1h"]
    return rolling_quantile(
        r.select_columns(["event_type", "bucket_us", "cnt"]),
        key_col="event_type", ts_col="bucket_us", value_col="cnt",
        q=0.5, window=24, out_col="cnt_med",
    )


def _q_twa(sf_dir: str):
    """Time-weighted mean of value per (event_type, 1h floor bucket) —
    irregular sampling weighted by holding time, the timeseries-tier
    companion of the plain mean_value rollup."""
    from contest_parsing_ray.stages.window import time_weighted_avg

    ev = _events(sf_dir, columns=["ts", "event_id", "event_type", "value"])
    out = time_weighted_avg(
        ev, key_col="event_type", ts_col="event_time_us",
        value_col="value", width_us=W1H, order_col="event_id",
    )
    return _round_cols(out, ["twa"])


def _q_psi(sf_dir: str):
    """Distribution-drift PSI per event_type between the first and second
    half of the time range (split = (min_ts + max_ts) // 2, integer µs,
    identical on both sides); same fixed bin grid as value_histogram_20."""
    from ray.data.aggregate import Max, Min

    from contest_parsing_ray.stages.histogram import value_drift_psi

    ev = _events(sf_dir, columns=["ts", "event_type", "value"])
    stats = ev.aggregate(Min("event_time_us"), Max("event_time_us"))
    split = (int(stats["min(event_time_us)"]) + int(stats["max(event_time_us)"])) // 2
    out = value_drift_psi(
        ev, key_col="event_type", ts_col="event_time_us", value_col="value",
        lo=HIST_LO, hi=HIST_HI, split_us=split, n_bins=HIST_BINS,
    )
    return _round_cols(out, ["psi"])


QUANTILE_QS = [0.25, 0.5, 0.75, 0.9, 0.95, 0.99]


def _q_exact_quantiles(sf_dir: str):
    """EXACT global order statistics (quantile_disc semantics) of
    events.value by iterative histogram refinement — no global sort, a few
    streaming counting passes over one pruned column instead.
    max_candidates is set below the sf0.01 row count so the driver run
    exercises the multi-pass refinement (the 10^12-row code path), not the
    single-collect shortcut."""
    import ray.data

    from contest_parsing_ray.stages.quantiles import exact_quantiles

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["value"]
    )
    return exact_quantiles(ev, "value", QUANTILE_QS, max_candidates=4096)


def _q_quantiles_by_type(sf_dir: str):
    """Per-key exact quantile_disc (GROUP BY event_type): every pending
    (key, q) interval refines in the SAME shared streaming passes, so the
    scan count stays constant in the number of keys."""
    import ray.data

    from contest_parsing_ray.stages.quantiles import exact_quantiles_by_key

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "value"],
    )
    return exact_quantiles_by_key(
        ev, "event_type", "value", QUANTILE_QS, max_candidates=2048
    )


HEAVY_K = 130


def _q_heavy_users(sf_dir: str):
    """Exact heavy hitters (cnt * k > n) in two streaming passes: mergeable
    Misra-Gries candidates (<= 2k keys ever leave a batch), then an exact
    broadcast-verified count — no distinct-key-sized shuffle."""
    import ray.data

    from contest_parsing_ray.stages.heavy import heavy_hitters

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id"]
    )
    return heavy_hitters(ev, "user_id", HEAVY_K)


IV_WIDTH_US = 300_000_000  # each event covers [ts, ts + 5m)


def _q_merged_intervals(sf_dir: str):
    """Gaps-and-islands: merge each user's overlapping-or-touching
    [ts, ts+5m) activity intervals into maximal islands (coverage
    windows). Sequential state per key; keys co-located by ONE hash
    exchange and processed vectorized (grouped cummax, no Python loop)."""
    from contest_parsing_ray.stages.window import merge_intervals

    ev = _events(sf_dir, columns=["ts", "user_id"])

    def mk_iv(t: pa.Table) -> pa.Table:
        s = t["event_time_us"]
        import pyarrow.compute as pc

        return pa.table({
            "user_id": t["user_id"],
            "s": s,
            "e": pc.add(s, IV_WIDTH_US),
        })

    iv = ev.map_batches(mk_iv, batch_format="pyarrow")
    return merge_intervals(iv, "user_id", "s", "e")


def _q_histogram(sf_dir: str):
    """Fixed-bin value distribution per event_type (per-batch bincount
    partials → tiny groupby merge; the exchange moves O(bins))."""
    import ray.data

    from contest_parsing_ray.stages.histogram import value_histogram

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "value"]
    )
    return value_histogram(
        ev, key_col="event_type", value_col="value",
        lo=HIST_LO, hi=HIST_HI, n_bins=HIST_BINS,
    )


def _q_hot_users(sf_dir: str):
    """Broadcast semi-join: events of users with >= 70 events total.
    The key set (small by construction) ships once via ray.put; the
    events stream is filtered in place — zero large-side shuffle."""
    import ray.data

    from contest_parsing_ray.stages._shuffle import partial_value_counts
    from contest_parsing_ray.stages.join import broadcast_semi_join

    # pruned single-column read for the count branch — no reason to decode
    # the other columns twice
    users_only = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id"]
    )
    hot = partial_value_counts(users_only, "user_id").filter(
        expr=f"cnt >= {HOT_USER_MIN_EVENTS}"
    )
    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "event_type"],
    )
    out = broadcast_semi_join(ev, hot, on="user_id")
    return out.select_columns(["event_id", "user_id", "event_type"])


def _q_ewma(sf_dir: str):
    """EWMA smoothing (alpha=0.3) of the per-event_type 1h count series."""
    from contest_parsing_ray.stages.rollup import rollup_tiers
    from contest_parsing_ray.stages.window import ewma

    ev = _events(sf_dir, columns=["ts", "event_type", "value"])
    r = rollup_tiers(
        ev, {"1h": W1H}, value_col="value", key_col="event_type",
        ts_col="event_time_us",
    )["1h"]
    out = ewma(
        r.select_columns(["event_type", "bucket_us", "cnt"]),
        key_col="event_type", ts_col="bucket_us", value_col="cnt",
        alpha=EWMA_ALPHA,
    )
    return _round_cols(out, ["cnt_ewma"])


def _q_topn_per_key(sf_dir: str):
    """Top-3 highest-value events per event_type (per-batch pre-trim →
    one small exchange; the ROW_NUMBER window analog)."""
    import ray.data

    from contest_parsing_ray.stages.window import topn_per_key

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "event_type", "value"],
    )
    out = topn_per_key(
        ev, key_col="event_type", value_col="value", n=3,
        tiebreak_col="event_id",
    )
    return out.select_columns(["event_id", "event_type", "value"])


def _q_latest_asof(sf_dir: str):
    """Point-in-time snapshot (SCD-style): each user's LATEST event row as
    of the global midpoint cutoff — filter + mergeable per-key argmax
    (topn_per_key n=1 on ts, desc, event_id tiebreak): every batch
    pre-trims to 1 row per key before the exchange."""
    from ray.data.aggregate import Max, Min

    from contest_parsing_ray.stages.window import topn_per_key

    ev = _events(sf_dir, columns=["ts", "event_id", "user_id", "event_type",
                                  "value"])
    stats = ev.aggregate(Min("event_time_us"), Max("event_time_us"))
    cutoff = (int(stats["min(event_time_us)"])
              + int(stats["max(event_time_us)"])) // 2
    upto = ev.filter(expr=f"event_time_us <= {cutoff}")
    out = topn_per_key(
        upto, key_col="user_id", value_col="event_time_us", n=1,
        tiebreak_col="event_id",
    )
    return out.select_columns(
        ["user_id", "event_id", "event_type", "value", "event_time_us"]
    )


def _q_user_entropy(sf_dir: str):
    """Engagement diversity per user: Shannon entropy (nats) of each
    user's event-type mix — composite-code bincount partials, one
    user-hash exchange, per-user C-level reduction."""
    import ray.data

    from contest_parsing_ray.stages.histogram import key_mix_entropy

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "event_type"],
    )
    out = key_mix_entropy(ev, "user_id", "event_type")
    return _round_cols(out, ["entropy"])


SLIDING_WIN = 24  # trailing 24 x 1h buckets


def _q_sliding_distinct(sf_dir: str):
    """EXACT trailing-24h distinct active users per present 1h bucket —
    the sliding COUNT(DISTINCT) SQL has no window form of: per-user
    coverage intervals merged in-partition, +-1 boundary deltas out,
    driver prefix sum over the bucket grid."""
    from contest_parsing_ray.stages.cumulative import sliding_distinct

    ev = _events(sf_dir, columns=["ts", "user_id"])
    return sliding_distinct(ev, "user_id", "event_time_us", W1H, SLIDING_WIN)


W1D = 24 * W1H


def _q_growth(sf_dir: str):
    """Daily growth accounting: each present day decomposed into new /
    retained / resurrected / churned users (churn attributed to the day
    the user went missing)."""
    from contest_parsing_ray.stages.cumulative import growth_accounting

    ev = _events(sf_dir, columns=["ts", "user_id"])
    return growth_accounting(ev, "user_id", "event_time_us", W1D)


FUNNEL_STEPS = ["signup", "click", "purchase"]


def _q_funnel(sf_dir: str):
    """Ordered funnel: users performing signup -> click -> purchase IN
    ORDER (each step strictly after the earliest completion of the
    previous). Per-user co-located, vectorized per step."""
    from contest_parsing_ray.stages.cumulative import funnel

    ev = _events(sf_dir, columns=["ts", "user_id", "event_type"])
    return funnel(ev, "user_id", "event_time_us", "event_type",
                  FUNNEL_STEPS)


def _q_transitions(sf_dir: str):
    """First-order Markov transition matrix between consecutive event
    types per user (LAG semantics, deterministic (ts, event_id) order),
    with row-normalized probabilities."""
    from contest_parsing_ray.stages.cumulative import transition_matrix

    ev = _events(sf_dir, columns=["ts", "event_id", "user_id", "event_type"])
    out = transition_matrix(
        ev, "user_id", "event_time_us", "event_type", "event_id"
    )
    import pyarrow.compute as pc

    return out.set_column(
        out.schema.get_field_index("p"), "p", pc.round(out["p"], 6)
    )


def _q_autocorr(sf_dir: str):
    """Lag-1 autocorrelation of the per-type 1h count series (ROW-lag corr
    semantics) — how self-similar each type's traffic is hour-over-hour."""
    from contest_parsing_ray.stages.corr import autocorr
    from contest_parsing_ray.stages.rollup import rollup_tiers

    ev = _events(sf_dir, columns=["ts", "event_type", "value"])
    r = rollup_tiers(
        ev, {"1h": W1H}, value_col="value", key_col="event_type",
        ts_col="event_time_us",
    )["1h"]
    out = autocorr(
        r.select_columns(["event_type", "bucket_us", "cnt"]),
        key_col="event_type", ts_col="bucket_us", value_col="cnt", lag=1,
    )
    import pyarrow.compute as pc

    return out.set_column(
        out.schema.get_field_index("acf"), "acf", pc.round(out["acf"], 6)
    )


SPLIT_FR = {"train": 0.8, "val": 0.1, "test": 0.1}
_SPLIT_B1 = int(0.8 * 2**64)
_SPLIT_B2 = int(0.9 * 2**64)


def _q_split(sf_dir: str):
    """Deterministic train/val/test assignment: md5-priority bands —
    a pure function of doc_id, stable across cluster shapes, restarts
    and engines (the oracle recomputes the same bands); shuffle-free."""
    from contest_parsing_ray.stages.sampling import hash_split

    docs = _docs(sf_dir).select_columns(["doc_id", "source"])
    return hash_split(docs, "doc_id", SPLIT_FR)


PROFILE_COLS = ["event_id", "ts", "user_id", "event_type", "value"]


def _q_profile(sf_dir: str):
    """Ingest data-quality audit: per column n / n_null / numeric-or-
    temporal min/max (one streaming pass of mergeable scalar partials)."""
    import ray.data

    from contest_parsing_ray.stages.histogram import profile_columns

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=PROFILE_COLS
    )
    return profile_columns(ev)


def _q_conversion_lag(sf_dir: str):
    """Time-to-convert distribution: first signup -> first subsequent
    purchase per user; exact mean/median/p95 of the lags."""
    from contest_parsing_ray.stages.cumulative import conversion_lag_stats

    ev = _events(sf_dir, columns=["ts", "user_id", "event_type"])
    return conversion_lag_stats(
        ev, "user_id", "event_time_us", "event_type",
        "signup", "purchase", qs=(0.5, 0.95),
    )


def _q_robust_z(sf_dir: str):
    """Median/MAD robust z-score of events.value within each event_type
    (heavy-tail-safe outlier score): two shared-pass exact-quantile
    rounds (median, then MAD over the on-the-fly |x-med| column), bounds
    broadcast, stateless vectorized score — no large-side shuffle."""
    import ray.data

    from contest_parsing_ray.stages.quantiles import robust_zscore_by_key

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "event_type", "value"],
    )
    out = robust_zscore_by_key(ev, "event_type", "value",
                               max_candidates=2048)
    return _round_cols(out, ["value_rz"])


def _q_gini(sf_dir: str):
    """Daily traffic-concentration Gini over per-user event counts (0 =
    uniform load, ->1 = one user dominates) — a skew monitor that shows
    when keys go hot."""
    from contest_parsing_ray.stages.histogram import activity_gini

    ev = _events(sf_dir, columns=["ts", "user_id"])
    out = activity_gini(ev, "event_time_us", "user_id", W1D)
    return _round_cols(out, ["gini"])


def _q_events_in_sessions(sf_dir: str):
    """Range join (BETWEEN): assign every event to its session interval —
    sessions built by the sessionizer, events matched by ts ∈ [start, end]
    per user in one co-located exchange."""
    from contest_parsing_ray.stages.window import interval_join, sessionize

    ev = _events(sf_dir, columns=["ts", "event_id", "user_id"])
    sessions = sessionize(
        ev, user_col="user_id", ts_col="event_time_us",
        gap_us=GAP_30M, order_col="event_id",
    )
    out = interval_join(
        ev.select_columns(["event_id", "user_id", "event_time_us"]),
        sessions,
        key_col="user_id", ts_col="event_time_us",
        lo_col="session_start_us", hi_col="session_end_us",
        interval_cols=["session_id"],
    )

    # interval_join emits exact declared arrow types per partition, so a
    # plain column projection keeps the schema stable (a pandas hop here
    # would re-coerce int64 user_id to float64 in null-holding partitions)
    return out.select_columns(["event_id", "user_id", "session_id"])


def _q_approx_distinct(sf_dir: str):
    """HLL approximate distinct users per event_type — the sketch-based
    scale path for cumulative_distinct (O(keys) exchange, independent of
    cardinality). Self-checking: emits the approx AND the exact
    COUNT(DISTINCT) per key and RAISES if any key's relative error
    exceeds 5% (~3x the p=12 standard error of 1.6%), so the driver gate
    enforces the accuracy bound, not just determinism. Deterministic
    (hash-driven) → golden-pinned oracle."""
    from contest_parsing_ray.stages._shuffle import hash_partitioned_map
    from contest_parsing_ray.stages.cumulative import approx_distinct

    ev = _events(sf_dir, columns=["ts", "event_type", "user_id"])
    approx = approx_distinct(
        ev, key_col="event_type", value_col="user_id"
    ).to_pandas()

    def nuniq(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("event_type", dropna=False)["user_id"].nunique()
        return g.rename("exact_distinct").reset_index()

    exact = hash_partitioned_map(
        _events(sf_dir, columns=["ts", "event_type", "user_id"]).select_columns(
            ["event_type", "user_id"]
        ),
        ["event_type"], nuniq, batch_format="pandas",
    ).to_pandas()
    out = approx.merge(exact, on="event_type")
    assert len(out) == len(approx) == len(exact)
    rel = (
        (out["approx_distinct"] - out["exact_distinct"]).abs()
        / out["exact_distinct"]
    )
    bad = out[rel > 0.05]
    if len(bad):
        raise AssertionError(
            f"HLL estimate off by >5% for keys: {bad.to_dict('records')}"
        )
    out["rel_err_pct"] = (rel * 100).round(6)
    return out


def _q_counter_rate(sf_dir: str):
    """PromQL increase-style reset-aware counter rate per (event_type,
    1h floor bucket): sum of positive deltas between consecutive samples."""
    from contest_parsing_ray.stages.ohlc import counter_rate

    ev = _events(sf_dir, columns=["ts", "event_id", "event_type", "value"])
    out = counter_rate(
        ev, key_col="event_type", ts_col="event_time_us",
        value_col="value", order_col="event_id", width_us=W1H,
    )
    return _round_cols(out, ["increase"])


def _q_melt(sf_dir: str):
    """Wide → long unpivot of the 1h rollup's aggregate columns."""
    from contest_parsing_ray.stages.rollup import rollup_tiers
    from contest_parsing_ray.stages.widen import melt

    ev = _events(sf_dir, columns=["ts", "event_type", "value"])
    r = rollup_tiers(
        ev, {"1h": W1H}, value_col="value", key_col="event_type",
        ts_col="event_time_us",
    )["1h"]
    out = melt(
        r, id_cols=["event_type", "bucket_us"],
        value_cols=["cnt", "sum_v", "min_v", "max_v"],
    )
    return _round_cols(out, ["value"])


def _q_curate(sf_dir: str):
    """Composed curation chain: token-count + repetition scores → quality
    filter (n_words >= 20, dup_word_frac <= 0.7) → exact first-wins dedup
    on md5(text) with doc_id tie-break."""
    from contest_parsing_ray.pipelines.curation import curate_documents

    out = curate_documents(_docs(sf_dir), min_words=20, max_dup_frac=0.7)
    return _round_cols(
        out.select_columns(["doc_id", "source", "n_words", "dup_word_frac"]),
        ["dup_word_frac"],
    )


def _q_word_topk(sf_dir: str):
    """Corpus-wide top-k word frequencies (partial counts per batch →
    small groupby → deterministic sort)."""
    from contest_parsing_ray.stages.text import word_topk

    return word_topk(_docs(sf_dir), k=50)


def queries() -> dict[str, Callable[[str], Any]]:
    # NOTE on ordering: the driver's oracle harness checks the FIRST 50
    # entries in insertion order. Rotation history:
    #   round 3 — original first-50 (rollups .. redact_docs, "block B")
    #             all green in CORRECTNESS_r03.json;
    #   round 4 — the 50 previously-unchecked ops ("block A") moved into
    #             the window, all green in CORRECTNESS_r04.json;
    #   round 5 — the 8 round-4 additions ("block C": cross-doc span
    #             family, JPEG/video codecs, shuffled export, mixture
    #             sampling) rotate into positions 1-8, backfilled with the
    #             42 block-B entries whose last hard driver check is the
    #             oldest (r03), per VERDICT.md round-4 task #1. Blocks
    #             keep their pytest + mirror-gate pins while out of the
    #             window.
    # _WINDOW_R5 below defines the first-50 order; the registry dict keeps
    # its thematic grouping and inline docs.
    all_q = {
        # ---- block A: driver window (unchecked before round 4) ----------
        # training-data text ops: repetition, corpus vocab
        "doc_repetition": _q_repetition,
        "word_topk_docs": _q_word_topk,
        # distribution / filter / smoothing family
        "value_histogram_20": _q_histogram,
        "hot_user_events": _q_hot_users,
        "ewma_1h": _q_ewma,
        # composed curation pipeline (score -> filter -> dedup)
        "curate_docs": _q_curate,
        # grouped top-n (ROW_NUMBER window analog)
        "top3_events_per_type": _q_topn_per_key,
        # reset-aware counter increase + wide->long unpivot
        "counter_increase_1h": _q_counter_rate,
        "melt_rollup_1h": _q_melt,
        # mergeable-sketch distinct (HLL; golden-pinned, deterministic)
        "approx_distinct_users": _q_approx_distinct,
        # range join: events BETWEEN session intervals
        "events_in_sessions": _q_events_in_sessions,
        # monitoring family: trailing-window anomaly flags on a tier series
        "zscore_anomaly_1h": _q_zscore,
        "value_drift_psi": _q_psi,
        # tokens axis: distributed ordered prefix-sum packing layout,
        # vocab/bigram stats over the actual token arrays
        "pack_offsets_4096": _q_pack_offsets,
        "token_vocab_hist": _q_vocab_hist,
        "token_bigram_top100": _q_bigram_topk,
        "source_word_entropy": _q_word_entropy,
        # irregular-sampling mean: holding-time-weighted per (key, bucket)
        "time_weighted_avg_1h": _q_twa,
        # exact distributed order statistics (no global sort)
        "exact_quantiles_value": _q_exact_quantiles,
        "quantiles_by_type": _q_quantiles_by_type,
        # exact heavy hitters: MG candidates + exact verify, O(k) exchange
        "heavy_hitter_users": _q_heavy_users,
        # gaps-and-islands interval merge (coverage windows per user)
        "merged_intervals_5m": _q_merged_intervals,
        # robust rolling baseline: exact windowed median of the 1h series
        "rolling_median_24h": _q_rolling_median,
        # tokens payload: per-doc duplicate 8-gram fraction (exact distinct)
        "dup_ngram_frac": _q_dup_ngrams,
        # cross-series co-movement: pairwise Pearson r of the 1h series
        "series_corr_pairs": _q_corr_pairs,
        # changepoint detection: two-sided CUSUM on the 1h series
        "cusum_changepoints_1h": _q_cusum,
        # per-key OLS trend of the 1h series (regr_slope semantics)
        "trend_slope_1h": _q_trend_slope,
        # classical additive seasonal decomposition (24h cycle)
        "seasonal_decompose_1h": _q_seasonal,
        # outlier-robust clip at per-key exact quantile bounds
        "winsorize_values_p05_p95": _q_winsorize,
        # distributed window rank (PERCENT_RANK per key, no global sort)
        "value_percent_rank": _q_percent_rank,
        # new-high-watermark flags on the 1h series
        "record_high_1h": _q_record_high,
        # tokens payload: pairwise source-vocabulary Jaccard (exact bitsets)
        "source_vocab_jaccard": _q_vocab_jaccard,
        # forecasting baseline: Holt linear level+trend smoothing
        "holt_smooth_1h": _q_holt,
        # weekly cohort retention matrix (first-seen x active period)
        "cohort_retention_weekly": _q_cohort,
        # arrival-process profile: inter-event gap stats per type
        "interarrival_stats_by_type": _q_interarrival,
        # feature scaling: per-key min-max normalization
        "minmax_normalize_values": _q_minmax,
        # point-in-time snapshot: latest row per user as of a cutoff
        "latest_event_per_user_asof": _q_latest_asof,
        # engagement diversity: per-user event-type mix entropy
        "user_type_entropy": _q_user_entropy,
        # exact sliding-window COUNT(DISTINCT): trailing 24h active users
        "sliding_distinct_users_24h": _q_sliding_distinct,
        # daily growth accounting: new/retained/resurrected/churned
        "growth_accounting_1d": _q_growth,
        # ordered funnel conversion (signup -> click -> purchase)
        "funnel_signup_click_purchase": _q_funnel,
        # sequence modeling: per-user event-type transition matrix
        "type_transition_matrix": _q_transitions,
        # lag-1 autocorrelation of the 1h series
        "autocorr_lag1_1h": _q_autocorr,
        # data mixing: deterministic train/val/test split bands
        "train_val_test_split": _q_split,
        # ingest audit: per-column null/min/max profile
        "profile_events": _q_profile,
        # time-to-convert distribution (signup -> purchase lags)
        "conversion_lag_stats": _q_conversion_lag,
        # heavy-tail-safe outlier score: median/MAD robust z per key
        "robust_zscore_values": _q_robust_z,
        # tokens payload: asymmetric source-vocabulary containment
        "source_vocab_containment": _q_vocab_containment,
        # tokens payload: per-source hapax / type-token-ratio richness
        "source_token_richness": _q_token_richness,
        # load-skew monitor: daily Gini of per-user activity
        "activity_gini_1d": _q_gini,
        # ---- block B: driver-green in round 3 (CORRECTNESS_r03.json) ----
        # continuous aggregates / rollup tiers (SURVEY A1/A3/A8, M10/F3)
        "rollup_1m": _rollup_query("1m", W1M),
        "rollup_5m": _rollup_query("5m", W5M),
        "rollup_1h": _rollup_query("1h", W1H),
        "rollup_floor_1h": _rollup_query("1h", W1H, mode="floor"),
        # cumulative aggregates (SURVEY J2/A4)
        "cumulative_counts_1m": _q_cumulative,
        "cumulative_distinct_users_1m": _q_cumulative_distinct,
        # dedup (SURVEY D1/D2)
        "dedup_keep_first_events": _q_dedup("first"),
        "dedup_keep_none_events": _q_dedup("none"),
        # gap-fill + widen + top-k (SURVEY ST4 / A3+M13+J8 / O-ops)
        "gapfill_locf_1h": _q_gapfill,
        "gapfill_linear_1h": _q_gapfill_mode("linear"),
        "widen_1h": _q_widen,
        "topk_buckets": _q_topk,
        # tree stats (SURVEY G1/G2)
        "tree_chain_depths": _q_tree,
        # joins + classic aggregates (SURVEY J1/J5-shape)
        "order_priority_rollup": _q_order_priority,
        "q1_pricing_summary": _q_q1,
        # text analysis (training-data ops)
        "doc_token_counts": _q_token_counts,
        "doc_quality": _q_quality,
        "exact_dedup_docs": _q_dedup_docs,
        "lang_id_docs": _q_langid,
        "doc_fingerprints": _q_fingerprint,
        # near-dup family
        "minhash_lsh_pairs": _q_minhash,
        "minhash_clusters": _q_minhash_clusters,
        "ngram_jaccard_pairs": _q_ngram_jaccard,
        # data-mixing family: deterministic hash-priority sampling
        "sample_docs_rate_25": _q_sample_rate,
        "sample_docs_per_source_10": _q_sample_topk,
        "sample_docs_weighted_30": _q_sample_weighted,
        "simhash_docs": _q_simhash,
        "simhash_neardup_pairs": _q_simhash_pairs,
        "embedding_neardup_pairs": _q_emb_neardup,
        "lsh_neardup_pairs": _q_lsh_neardup,
        # similarity search
        "ann_topk_cosine": _q_ann,
        "ivf_topk_cosine": _q_ivf,
        "pq_topk_cosine": _q_pq,
        # multimodal plumbing (stubbed decode)
        "multimodal_decode_stub": _q_multimodal,
        # REAL WAV codec: RIFF/PCM parse + sample features (golden oracle)
        "multimodal_decode_wav": _q_multimodal_wav,
        # REAL PNG codec: zlib + numpy unfilter + pixel features (golden oracle)
        "multimodal_decode_png": _q_multimodal_png,
        # Gorilla compression roundtrip (SQL-checkable: decode == rollup)
        "compress_roundtrip_1h": _q_compress_roundtrip,
        "range_read_1h": _q_range_read,
        # reference Joiner analog on F2 fixtures (rows-only; goldens in tests)
        "telemetry_join_fixture": _q_telemetry_fixture,
        # S1 discovery + end-to-end JoinManager.process analog (rows-only)
        "corpus_end_to_end": _q_corpus_end_to_end,
        # time-series operators Ray Data lacks natively
        "asof_join_rollup": _q_asof,
        "asof_join_forward": _q_asof_forward,
        # broadcast anti-join (NOT EXISTS) on a second table
        "customers_no_urgent_orders": _q_customers_no_urgent,
        "sliding_window_3h": _q_sliding,
        # A3 exploder tail: mode + list-join + per-service prefix pivot
        "trace_one_row": _q_trace_one_row,
        # order-dependent rollup: open/high/low/close + counter rate
        "ohlc_rate_1h": _q_ohlc,
        "m4_downsample_1h": _q_m4,
        "lttb_events_200": _q_lttb,
        # gap-split sessionization (web-log analog of trace grouping)
        "sessionize_30m": _q_sessionize,
        # training-data text op: PII-pattern redaction
        "redact_docs": _q_redact,
        # ---- block C: round-4 additions (rotate into the window next
        # round) -------------------------------------------------------
        # seeded global shuffle for training-batch mixing
        "shuffled_export_docs": _q_shuffled_export,
        # REAL baseline JPEG codec (pure numpy T.81) — golden oracle
        "multimodal_decode_jpeg": _q_multimodal_jpeg,
        # REAL AVI/MJPEG video demux + sampled-frame decode — golden oracle
        "multimodal_decode_video": _q_multimodal_video,
        # tokens payload: cross-doc duplicated-span coverage (boilerplate;
        # registered at the tail so it does not displace any of the 50
        # previously-driver-unchecked queries from the CORRECTNESS window)
        "cross_doc_dup_spans": _q_cross_doc_spans,
        # tokens payload: the cross-doc span dedup ACTUATOR (cleaned arrays)
        "strip_hot_spans_docs": _q_strip_hot_spans,
        # tokens payload: eval-benchmark decontamination coverage
        "benchmark_contamination": _q_contamination,
        # tokens payload: deterministic T5 span corruption (mask stats + cks)
        "span_corrupt_docs": _q_span_corrupt,
        # data mixing: per-lang rates to hit target char fractions (REAL SQL)
        "mixture_sample_docs": _q_mixture_sample,
    }
    window = list(_WINDOW_R5)
    if len(window) != 50 or not set(window) <= set(all_q):
        # not an assert: python -O would strip it and silently backfill
        # the driver's 50-query window from registry insertion order
        raise RuntimeError("_WINDOW_R5 must name exactly 50 registered queries")
    ordered = {k: all_q[k] for k in window}
    ordered.update((k, v) for k, v in all_q.items() if k not in ordered)
    return ordered


# Round-5 driver window: block C (never driver-checked) + the first 42
# block-B entries (last checked in CORRECTNESS_r03.json, the oldest hard
# signal in the repo).
_WINDOW_R5 = (
    # ---- block C: round-4 additions, never in a driver window ----------
    "shuffled_export_docs",
    "multimodal_decode_jpeg",
    "multimodal_decode_video",
    "cross_doc_dup_spans",
    "strip_hot_spans_docs",
    "benchmark_contamination",
    "span_corrupt_docs",
    "mixture_sample_docs",
    # ---- block B backfill: 42 oldest-verified (r03) ---------------------
    "rollup_1m",
    "rollup_5m",
    "rollup_1h",
    "rollup_floor_1h",
    "cumulative_counts_1m",
    "cumulative_distinct_users_1m",
    "dedup_keep_first_events",
    "dedup_keep_none_events",
    "gapfill_locf_1h",
    "gapfill_linear_1h",
    "widen_1h",
    "topk_buckets",
    "tree_chain_depths",
    "order_priority_rollup",
    "q1_pricing_summary",
    "doc_token_counts",
    "doc_quality",
    "exact_dedup_docs",
    "lang_id_docs",
    "doc_fingerprints",
    "minhash_lsh_pairs",
    "minhash_clusters",
    "ngram_jaccard_pairs",
    "sample_docs_rate_25",
    "sample_docs_per_source_10",
    "sample_docs_weighted_30",
    "simhash_docs",
    "simhash_neardup_pairs",
    "embedding_neardup_pairs",
    "lsh_neardup_pairs",
    "ann_topk_cosine",
    "ivf_topk_cosine",
    "pq_topk_cosine",
    "multimodal_decode_stub",
    "multimodal_decode_wav",
    "multimodal_decode_png",
    "compress_roundtrip_1h",
    "range_read_1h",
    "telemetry_join_fixture",
    "corpus_end_to_end",
    "asof_join_rollup",
    "asof_join_forward",
)


# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------

def _rollup_sql(width: int, mode: str = "nearest") -> str:
    # null-sample contract (matches PartialRollup): a null value or null ts
    # is not a sample — cnt counts real samples and all-null buckets don't
    # exist, hence the WHERE instead of COUNT(*)
    if mode == "nearest":
        bucket = f"(((epoch_us(ts) + {width // 2}) // {width}) * {width})"
    else:
        bucket = f"((epoch_us(ts) // {width}) * {width})"
    return f"""
SELECT event_type,
       {bucket} AS bucket_us,
       CAST(COUNT(*) AS BIGINT) AS cnt,
       ROUND(CAST(SUM(value) AS DOUBLE), 6) AS sum_v,
       CAST(MIN(value) AS DOUBLE) AS min_v,
       CAST(MAX(value) AS DOUBLE) AS max_v,
       ROUND(quantile_cont(CAST(value AS DOUBLE), 0.95), 6) AS p95_v
FROM events WHERE value IS NOT NULL AND ts IS NOT NULL
GROUP BY 1, 2
"""


_BUCKET_1M = f"(((epoch_us(ts) + {W1M // 2}) // {W1M}) * {W1M})"
_BUCKET_1H_NEAREST = f"(((epoch_us(ts) + {W1H // 2}) // {W1H}) * {W1H})"


def _trace_one_row_sql() -> str:
    """Oracle for the A3 exploder: per-(user, event_type) aggregates pivoted
    to one wide row per user (CASE-pivot over the fixed event_type set)."""
    per_type = []
    for t in EVENT_TYPES:
        per_type += [
            f"ROUND(MAX(CASE WHEN event_type = '{t}' THEN mean_value END), 6)"
            f' AS "{t}-mean_value"',
            f"MAX(CASE WHEN event_type = '{t}' THEN min_value END)"
            f' AS "{t}-min_value"',
            f"MAX(CASE WHEN event_type = '{t}' THEN max_value END)"
            f' AS "{t}-max_value"',
            f"MAX(CASE WHEN event_type = '{t}' THEN spans END)"
            f' AS "{t}-spans_in_service"',
            f"MAX(CASE WHEN event_type = '{t}' THEN join_ids END)"
            f' AS "{t}-join_event_id"',
            f"MAX(CASE WHEN event_type = '{t}' THEN mode_vband END)"
            f' AS "{t}-mode_vband"',
        ]
    cols = ",\n       ".join(per_type)
    return f"""
WITH e AS (
  SELECT user_id, event_type, event_id, ts, value,
         CAST(FLOOR(value) AS BIGINT) % 5 AS vband
  FROM events
), agg AS (
  SELECT user_id, event_type,
         AVG(value) AS mean_value, MIN(value) AS min_value,
         MAX(value) AS max_value,
         CAST(COUNT(*) AS DOUBLE) AS spans,
         STRING_AGG(CAST(event_id AS VARCHAR), ' - ' ORDER BY ts, event_id)
           AS join_ids
  FROM e GROUP BY 1, 2
), vc AS (
  SELECT user_id, event_type, vband, COUNT(*) AS n FROM e GROUP BY 1, 2, 3
), vmax AS (
  SELECT *, MAX(n) OVER (PARTITION BY user_id, event_type) AS mx FROM vc
), md AS (
  SELECT user_id, event_type,
         STRING_AGG(CAST(vband AS VARCHAR), ' - ' ORDER BY vband) AS mode_vband
  FROM vmax WHERE n = mx GROUP BY 1, 2
), j AS (
  SELECT a.*, m.mode_vband FROM agg a JOIN md m
    ON a.user_id = m.user_id AND a.event_type = m.event_type
), tot AS (
  SELECT user_id, CAST(COUNT(*) AS DOUBLE) AS trace_span_length,
         ROUND(SUM(value), 6) AS trace_duration
  FROM e GROUP BY 1
)
SELECT j.user_id,
       MAX(tot.trace_span_length) AS trace_span_length,
       MAX(tot.trace_duration) AS trace_duration,
       {cols}
FROM j JOIN tot ON j.user_id = tot.user_id
GROUP BY j.user_id
"""


def oracle_sql() -> dict[str, str]:
    widen_cols = ",\n       ".join(
        f'ROUND(CAST(COALESCE(SUM(CASE WHEN event_type = \'{t}\' THEN {v} END), 0)'
        f' AS DOUBLE), 6) AS "{t}-{v}"'
        for t in EVENT_TYPES
        for v in ("cnt", "sum_v")
    )
    return {
        "rollup_1m": _rollup_sql(W1M),
        "rollup_5m": _rollup_sql(W5M),
        "rollup_1h": _rollup_sql(W1H),
        "rollup_floor_1h": _rollup_sql(W1H, mode="floor"),
        "cumulative_counts_1m": f"""
WITH b AS (
  SELECT event_type, {_BUCKET_1M} AS bucket_us, CAST(COUNT(*) AS BIGINT) AS cnt
  FROM events GROUP BY 1, 2
)
SELECT event_type, bucket_us, cnt,
       CAST(SUM(cnt) OVER (PARTITION BY event_type ORDER BY bucket_us) AS BIGINT)
         AS running_cnt
FROM b
""",
        "cumulative_distinct_users_1m": f"""
WITH fs AS (
  -- COUNT(DISTINCT) semantics: null users are not a distinct value
  -- (matches the engine's first-seen partial, which drops null values)
  SELECT event_type, user_id, MIN({_BUCKET_1M}) AS bucket_us
  FROM events WHERE user_id IS NOT NULL GROUP BY 1, 2
), c AS (
  SELECT event_type, bucket_us, CAST(COUNT(*) AS BIGINT) AS new_distinct
  FROM fs GROUP BY 1, 2
)
SELECT event_type, bucket_us, new_distinct,
       CAST(SUM(new_distinct) OVER (PARTITION BY event_type ORDER BY bucket_us)
            AS BIGINT) AS running_distinct
FROM c
""",
        "dedup_keep_first_events": f"""
SELECT event_id, ts, user_id, event_type, value, props,
       CAST(user_id AS VARCHAR) || '|' || event_type || '|'
         || CAST(epoch_us(ts) // {W1H} AS VARCHAR) AS dkey
FROM events
QUALIFY ROW_NUMBER() OVER (PARTITION BY dkey ORDER BY event_id) = 1
""",
        "dedup_keep_none_events": f"""
SELECT event_id, ts, user_id, event_type, value, props,
       CAST(user_id AS VARCHAR) || '|' || event_type || '|'
         || CAST(epoch_us(ts) // {W1H} AS VARCHAR) AS dkey
FROM events
QUALIFY COUNT(*) OVER (PARTITION BY dkey) = 1
""",
        "gapfill_locf_1h": f"""
WITH agg AS (
  SELECT event_type, {_BUCKET_1H_NEAREST} AS bucket_us,
         CAST(COUNT(*) AS BIGINT) AS cnt, CAST(SUM(value) AS DOUBLE) AS sum_v
  FROM events WHERE value IS NOT NULL AND ts IS NOT NULL GROUP BY 1, 2
), bounds AS (
  SELECT event_type, MIN(bucket_us) AS lo, MAX(bucket_us) AS hi FROM agg GROUP BY 1
), grid AS (
  SELECT event_type, UNNEST(generate_series(lo, hi, {W1H})) AS bucket_us FROM bounds
), j AS (
  SELECT g.event_type, g.bucket_us, a.cnt, a.sum_v
  FROM grid g LEFT JOIN agg a
    ON g.event_type = a.event_type AND g.bucket_us = a.bucket_us
)
SELECT event_type, bucket_us,
       CAST(COALESCE(cnt, 0) AS BIGINT) AS cnt,
       ROUND(last_value(sum_v IGNORE NULLS) OVER (
         PARTITION BY event_type ORDER BY bucket_us
         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), 6) AS sum_v,
       (cnt IS NULL) AS filled
FROM j
""",
        "gapfill_linear_1h": f"""
WITH agg AS (
  SELECT event_type, {_BUCKET_1H_NEAREST} AS bucket_us,
         CAST(COUNT(*) AS BIGINT) AS cnt, CAST(SUM(value) AS DOUBLE) AS sum_v
  FROM events WHERE value IS NOT NULL AND ts IS NOT NULL GROUP BY 1, 2
), bounds AS (
  SELECT event_type, MIN(bucket_us) AS lo, MAX(bucket_us) AS hi FROM agg GROUP BY 1
), grid AS (
  SELECT event_type, UNNEST(generate_series(lo, hi, {W1H})) AS bucket_us FROM bounds
), j AS (
  SELECT g.event_type, g.bucket_us, a.cnt, a.sum_v
  FROM grid g LEFT JOIN agg a
    ON g.event_type = a.event_type AND g.bucket_us = a.bucket_us
), w AS (
  SELECT event_type, bucket_us, cnt, sum_v,
         last_value(sum_v IGNORE NULLS) OVER (
           PARTITION BY event_type ORDER BY bucket_us
           ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS prev_v,
         last_value(CASE WHEN sum_v IS NOT NULL THEN bucket_us END IGNORE NULLS)
           OVER (PARTITION BY event_type ORDER BY bucket_us
           ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS prev_b,
         first_value(sum_v IGNORE NULLS) OVER (
           PARTITION BY event_type ORDER BY bucket_us
           ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS next_v,
         first_value(CASE WHEN sum_v IS NOT NULL THEN bucket_us END IGNORE NULLS)
           OVER (PARTITION BY event_type ORDER BY bucket_us
           ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS next_b
  FROM j
)
SELECT event_type, bucket_us,
       CAST(COALESCE(cnt, 0) AS BIGINT) AS cnt,
       ROUND(CASE
         WHEN sum_v IS NOT NULL THEN sum_v
         WHEN next_v IS NULL THEN prev_v
         ELSE prev_v + (CAST(bucket_us - prev_b AS DOUBLE) / (next_b - prev_b))
                       * (next_v - prev_v)
       END, 6) AS sum_v,
       (cnt IS NULL) AS filled
FROM w
""",
        "widen_1h": f"""
WITH agg AS (
  SELECT event_type, {_BUCKET_1H_NEAREST} AS bucket_us,
         CAST(COUNT(*) AS BIGINT) AS cnt, CAST(SUM(value) AS DOUBLE) AS sum_v
  FROM events WHERE value IS NOT NULL AND ts IS NOT NULL GROUP BY 1, 2
)
SELECT bucket_us,
       {widen_cols}
FROM agg GROUP BY bucket_us
""",
        "topk_buckets": f"""
SELECT event_type, {_BUCKET_1H_NEAREST} AS bucket_us,
       CAST(COUNT(*) AS BIGINT) AS cnt
FROM events WHERE value IS NOT NULL AND ts IS NOT NULL GROUP BY 1, 2
ORDER BY cnt DESC, bucket_us ASC, event_type ASC LIMIT 10
""",
        "tree_chain_depths": """
WITH o AS (
  SELECT user_id, event_id,
         ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) - 1
           AS self_depth,
         COUNT(*) OVER (PARTITION BY user_id) AS n
  FROM events WHERE user_id IS NOT NULL
)
SELECT user_id, event_id,
       CAST(self_depth AS BIGINT) AS self_depth,
       CAST(n - 1 AS BIGINT) AS max_depth,
       CAST(n - 1 AS BIGINT) AS min_depth,
       CAST(n - 1 AS DOUBLE) AS mean_depth
FROM o
""",
        # exact scaled-int64 sums (quantities integral, prices/discount/tax
        # 2-decimal) — bit-identical doubles on both sides regardless of
        # distributed summation order
        "order_priority_rollup": """
WITH s AS (
  SELECT o.o_orderpriority,
         CAST(ROUND(l.l_quantity) AS BIGINT) AS qty_i,
         CAST(ROUND(l.l_extendedprice * 100) AS BIGINT) AS price_c,
         CAST(ROUND(l.l_discount * 100) AS BIGINT) AS disc_c
  FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
)
SELECT o_orderpriority,
       CAST(COUNT(*) AS BIGINT) AS n_lines,
       CAST(SUM(qty_i) AS DOUBLE) AS sum_qty,
       CAST(SUM(price_c) AS DOUBLE) / 100.0 AS sum_price,
       CAST(SUM(disc_c) AS DOUBLE) / (100.0 * COUNT(*)) AS avg_disc
FROM s GROUP BY 1
""",
        "q1_pricing_summary": """
WITH s AS (
  SELECT l_returnflag, l_linestatus,
         CAST(ROUND(l_quantity) AS BIGINT) AS qty_i,
         CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS price_c,
         CAST(ROUND(l_discount * 100) AS BIGINT) AS disc_c,
         CAST(ROUND(l_tax * 100) AS BIGINT) AS tax_c,
         CAST(ROUND(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)) AS disc_price_s
  FROM lineitem
  WHERE l_shipdate <= TIMESTAMP '1998-09-02'
)
SELECT l_returnflag, l_linestatus,
       CAST(SUM(qty_i) AS DOUBLE) AS sum_qty,
       CAST(SUM(price_c) AS DOUBLE) / 100.0 AS sum_base_price,
       CAST(SUM(disc_price_s) AS DOUBLE) / 10000.0 AS sum_disc_price,
       CAST(SUM(disc_price_s * (100 + tax_c)) AS DOUBLE) / 1000000.0 AS sum_charge,
       CAST(SUM(qty_i) AS DOUBLE) / COUNT(*) AS avg_qty,
       CAST(SUM(price_c) AS DOUBLE) / (100.0 * COUNT(*)) AS avg_price,
       CAST(SUM(disc_c) AS DOUBLE) / (100.0 * COUNT(*)) AS avg_disc,
       CAST(COUNT(*) AS BIGINT) AS count_order
FROM s
GROUP BY 1, 2
""",
        "doc_token_counts": r"""
SELECT doc_id,
       CAST(length(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS BIGINT) AS n_words,
       CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_ws_tokens
FROM (SELECT * REPLACE (COALESCE(text, '') AS text) FROM documents) documents
""",
        "pack_offsets_4096": rf"""
WITH t AS (
  SELECT doc_id,
         CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_ws_tokens
  FROM (SELECT * REPLACE (COALESCE(text, '') AS text) FROM documents) documents
), o AS (
  SELECT doc_id, n_ws_tokens,
         CAST(COALESCE(SUM(n_ws_tokens) OVER (ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
           AS start_tok
  FROM t
)
SELECT doc_id, n_ws_tokens, start_tok,
       CAST(start_tok // {PACK_CAP} AS BIGINT) AS pack_id,
       (start_tok // {PACK_CAP})
         <> ((start_tok + GREATEST(n_ws_tokens, 1) - 1) // {PACK_CAP})
         AS straddles
FROM o
""",
        # deterministic md5-priority sampling: same integer threshold /
        # ordering on both sides, so the exact same rows survive
        "sample_docs_rate_25": rf"""
SELECT doc_id, lang, source FROM documents
WHERE CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))
           AS UBIGINT) < {int(SAMPLE_RATE * 2**64)}
""",
        # data mixing: totals/rates/threshold recomputed in SQL with the
        # same double-op order (f * (0.5 * G) / T_k) and the same
        # truncation/2^64-1 clamp as sampling.rate_threshold
        "mixture_sample_docs": r"""
WITH tot AS (SELECT lang, SUM(n_chars) AS t FROM documents GROUP BY lang),
g AS (SELECT SUM(n_chars) AS gt FROM documents),
r AS (
  SELECT tot.lang,
         LEAST(1.0,
               (CASE tot.lang WHEN 'en' THEN 0.5 WHEN 'de' THEN 0.2
                     WHEN 'zh' THEN 0.2 WHEN 'es' THEN 0.1 END)
               * (0.5 * g.gt) / tot.t) AS rate
  FROM tot, g WHERE tot.lang IN ('en', 'de', 'zh', 'es')
)
SELECT d.doc_id, d.lang, d.source, d.n_chars
FROM documents d JOIN r ON d.lang = r.lang
WHERE CASE WHEN r.rate >= 1.0 THEN TRUE ELSE
  CAST(CAST(concat('0x', substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 16))
            AS UBIGINT) AS HUGEINT)
  < LEAST(CAST(trunc(r.rate * 18446744073709551616.0) AS HUGEINT),
          CAST(18446744073709551615 AS HUGEINT))
END
""",
        "sample_docs_per_source_10": rf"""
SELECT doc_id, source FROM (
  SELECT doc_id, source,
         row_number() OVER (
           PARTITION BY source
           ORDER BY CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)),
                                             1, 16)) AS UBIGINT), doc_id
         ) AS rn
  FROM documents
) WHERE rn <= {SAMPLE_K}
""",
        # seeded global shuffle: identical md5 permutation key on both
        # sides, so shard AND in-shard rank must match value-exactly
        "shuffled_export_docs": rf"""
WITH d AS (
  SELECT doc_id, source, n_chars,
         CAST(concat('0x', substr(md5(concat('{SHUFFLE_SEED}:', doc_id)),
                                  1, 16)) AS UBIGINT) AS prio
  FROM documents
)
SELECT doc_id, source, n_chars,
       CAST(prio % {SHUFFLE_SHARDS} AS BIGINT) AS shard,
       CAST(ROW_NUMBER() OVER (
              PARTITION BY prio % {SHUFFLE_SHARDS}
              ORDER BY prio, doc_id
            ) - 1 AS BIGINT) AS pos
FROM d
""",
        # PSI drift between time halves: add-half smoothing over bins
        # occupied in >=1 period (finite on disjoint supports), identical
        # integer split + bin expression; ROUND 6 for float sum order
        "value_drift_psi": rf"""
WITH e AS (
  SELECT event_type, epoch_us(ts) AS ts_us, value
  FROM events WHERE value IS NOT NULL AND ts IS NOT NULL
), s AS (
  SELECT (MIN(ts_us) + MAX(ts_us)) // 2 AS tmid FROM e
), b AS (
  SELECT event_type,
         CASE WHEN ts_us >= tmid THEN 1 ELSE 0 END AS period,
         LEAST(GREATEST(CAST(FLOOR((value - {float(HIST_LO)}) * {HIST_BINS}
           / ({float(HIST_HI)} - {float(HIST_LO)})) AS BIGINT), 0),
           {HIST_BINS - 1}) AS bin
  FROM e, s
), c AS (
  SELECT event_type, bin,
         SUM(CASE WHEN period = 0 THEN 1 ELSE 0 END) AS ca,
         SUM(CASE WHEN period = 1 THEN 1 ELSE 0 END) AS cb
  FROM b GROUP BY 1, 2
), t AS (
  SELECT event_type, SUM(ca) AS na, SUM(cb) AS nb FROM c GROUP BY 1
)
SELECT c.event_type,
       CAST(any_value(t.na) AS BIGINT) AS n_a,
       CAST(any_value(t.nb) AS BIGINT) AS n_b,
       CASE WHEN any_value(t.na) > 0 AND any_value(t.nb) > 0 THEN
         ROUND(SUM(
           ((ca + 0.5) / (t.na + {HIST_BINS * 0.5})
            - (cb + 0.5) / (t.nb + {HIST_BINS * 0.5}))
           * ln(((ca + 0.5) / (t.na + {HIST_BINS * 0.5}))
                / ((cb + 0.5) / (t.nb + {HIST_BINS * 0.5})))
         ), 6)
       ELSE 0 END AS psi
FROM c JOIN t USING (event_type) GROUP BY c.event_type
""",
        # per-source word-distribution stats; entropy ROUND 6 both sides
        # (float sum order differs between engines)
        "source_word_entropy": r"""
WITH w AS (
  SELECT source, unnest(regexp_extract_all(text, '\S+')) AS word
  FROM (SELECT * REPLACE (COALESCE(text, '') AS text) FROM documents) documents
  WHERE source IS NOT NULL
), c AS (
  SELECT source, word, COUNT(*) AS cnt FROM w GROUP BY 1, 2
), tot AS (
  SELECT source, SUM(cnt) AS n FROM c GROUP BY 1
)
SELECT c.source,
       CAST(any_value(tot.n) AS BIGINT) AS n_words,
       CAST(COUNT(*) AS BIGINT) AS n_distinct,
       ROUND(-SUM((cnt / tot.n) * ln(cnt / tot.n)), 6) AS entropy
FROM c JOIN tot USING (source) GROUP BY c.source
""",
        # A-ES weighted sample: same u (exact double both sides) and
        # pow-key ordering; the float key is not emitted (1-ulp libm noise)
        "sample_docs_weighted_30": r"""
SELECT doc_id, source, n_chars FROM (
  SELECT doc_id, source, n_chars,
         row_number() OVER (
           ORDER BY pow(
             (CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))
                   AS UBIGINT) + 0.5) / 18446744073709551616.0,
             1.0 / n_chars) DESC, doc_id
         ) AS rn
  FROM documents WHERE n_chars > 0
) WHERE rn <= 30
""",
        # exact prefix-filter Jaccard: shingles are word 3-grams over \S+
        # tokens; the engine finds candidates via hashed shingles but
        # VERIFIES with string shingles, so values match SQL exactly
        "ngram_jaccard_pairs": r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\S+') AS w FROM (SELECT * REPLACE (COALESCE(text, '') AS text) FROM documents) documents
), sh AS (
  SELECT doc_id,
         unnest(list_distinct([array_to_string(w[i:i+2], ' ')
                               FOR i IN range(1, len(w) - 1)])) AS shingle
  FROM toks
), sizes AS (
  SELECT doc_id, COUNT(*) AS sz FROM sh GROUP BY doc_id
), inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS ni
  FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT id_a, id_b,
       CAST(ni AS DOUBLE) / (sa.sz + sb.sz - ni) AS jaccard
FROM inter
JOIN sizes sa ON sa.doc_id = id_a
JOIN sizes sb ON sb.doc_id = id_b
WHERE CAST(ni AS DOUBLE) / (sa.sz + sb.sz - ni) >= 0.8
""",
        # M4: the four row_numbers pick the lexicographic-extreme POINTS
        # under the same tie-break the engine uses ((ts,value)/(value,ts))
        "m4_downsample_1h": r"""
WITH e AS (
  SELECT event_type, epoch_us(ts) AS ts_us, value,
         ((epoch_us(ts) // 3600000000) * 3600000000) AS bucket_us
  FROM events WHERE value IS NOT NULL AND ts IS NOT NULL
), r AS (
  SELECT *,
    row_number() OVER (PARTITION BY event_type, bucket_us
                       ORDER BY ts_us, value) AS rf,
    row_number() OVER (PARTITION BY event_type, bucket_us
                       ORDER BY ts_us DESC, value DESC) AS rl,
    row_number() OVER (PARTITION BY event_type, bucket_us
                       ORDER BY value, ts_us) AS rb,
    row_number() OVER (PARTITION BY event_type, bucket_us
                       ORDER BY value DESC, ts_us DESC) AS rt
  FROM e
)
SELECT DISTINCT event_type, bucket_us, ts_us, value
FROM r WHERE 1 IN (rf, rl, rb, rt)
""",
        "doc_quality": r"""
SELECT doc_id,
       CAST(length(text) AS BIGINT) AS n_chars_text,
       CAST(length(regexp_extract_all(text, '[A-Za-z]')) AS DOUBLE)
         / GREATEST(length(text), 1) AS alpha_ratio,
       CAST(length(regexp_extract_all(text, '[0-9]')) AS DOUBLE)
         / GREATEST(length(text), 1) AS digit_ratio,
       CAST(length(regexp_extract_all(text, '[.,;:!?]')) AS DOUBLE)
         / GREATEST(length(text), 1) AS punct_ratio,
       CAST(length(regexp_extract_all(text, '[A-Za-z]')) AS DOUBLE)
         / GREATEST(length(regexp_extract_all(text, '[A-Za-z0-9_]+')), 1)
         AS mean_word_len
FROM (SELECT * REPLACE (COALESCE(text, '') AS text) FROM documents) documents
""",
        "exact_dedup_docs": """
SELECT doc_id, md5(text) AS md5, lang, source, n_chars
FROM (SELECT * REPLACE (COALESCE(text, '') AS text) FROM documents) documents
QUALIFY ROW_NUMBER() OVER (PARTITION BY md5(text) ORDER BY doc_id) = 1
""",
        "embedding_neardup_pairs": """
SELECT a.vec_id AS id_a, b.vec_id AS id_b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.35
""",
        "ann_topk_cosine": """
WITH q AS (
  SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < 5
), s AS (
  SELECT q.qid AS query_id, e.vec_id,
         list_cosine_similarity(q.qe::DOUBLE[], e.embedding::DOUBLE[]) AS c
  FROM q CROSS JOIN embeddings e
), r AS (
  SELECT query_id, vec_id,
         ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY c DESC, vec_id) AS rank
  FROM s
)
SELECT query_id, vec_id, CAST(rank AS BIGINT) AS rank FROM r WHERE rank <= 10
""",
        "asof_join_rollup": f"""
WITH r AS (
  SELECT event_type, {_BUCKET_1H_NEAREST} AS bucket_us,
         CAST(COUNT(*) AS BIGINT) AS cnt
  FROM events WHERE event_id IS NOT NULL AND ts IS NOT NULL GROUP BY 1, 2
)
SELECT e.event_id, e.event_type,
       CAST(r.bucket_us AS DOUBLE) AS asof_bucket_us,
       CAST(r.cnt AS DOUBLE) AS asof_cnt
FROM events e ASOF LEFT JOIN r
  ON e.event_type = r.event_type AND epoch_us(e.ts) >= r.bucket_us
""",
        "asof_join_forward": f"""
WITH r AS (
  SELECT event_type, {_BUCKET_1H_NEAREST} AS bucket_us,
         CAST(COUNT(*) AS BIGINT) AS cnt
  FROM events WHERE event_id IS NOT NULL AND ts IS NOT NULL GROUP BY 1, 2
)
SELECT e.event_id, e.event_type,
       CAST(r.bucket_us AS DOUBLE) AS asof_bucket_us,
       CAST(r.cnt AS DOUBLE) AS asof_cnt
FROM events e ASOF LEFT JOIN r
  ON e.event_type = r.event_type AND epoch_us(e.ts) <= r.bucket_us
""",
        "sliding_window_3h": f"""
WITH r AS (
  SELECT event_type, {_BUCKET_1H_NEAREST} AS bucket_us,
         CAST(COUNT(*) AS BIGINT) AS cnt
  FROM events WHERE value IS NOT NULL AND ts IS NOT NULL GROUP BY 1, 2
)
SELECT event_type, bucket_us, cnt,
       ROUND(CAST(SUM(cnt) OVER (PARTITION BY event_type ORDER BY bucket_us
         ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS DOUBLE), 6)
         AS cnt_w3_sum
FROM r
""",
        "compress_roundtrip_1h": f"""
SELECT event_type,
       {_BUCKET_1H_NEAREST} AS bucket_us,
       ROUND(CAST(SUM(value) AS DOUBLE), 6) AS value
FROM events WHERE value IS NOT NULL AND ts IS NOT NULL GROUP BY 1, 2
""",
        # window = middle half of the bucket span, bounds integer-aligned to
        # the 1h grid exactly as the Ray side derives them from chunk stats
        "range_read_1h": f"""
WITH r AS (
  SELECT event_type,
         {_BUCKET_1H_NEAREST} AS bucket_us,
         ROUND(CAST(SUM(value) AS DOUBLE), 6) AS value
  FROM events WHERE value IS NOT NULL AND ts IS NOT NULL GROUP BY 1, 2
), b AS (
  SELECT MIN(bucket_us) AS mn, MAX(bucket_us) AS mx FROM r
)
SELECT r.event_type, r.bucket_us, r.value
FROM r, b
WHERE r.bucket_us >= b.mn + (((b.mx - b.mn) // (4 * {W1H})) * {W1H})
  AND r.bucket_us <= b.mn + (((3 * (b.mx - b.mn)) // (4 * {W1H})) * {W1H})
""",
        "trace_one_row": _trace_one_row_sql(),
        "ohlc_rate_1h": f"""
WITH e AS (
  -- engine semantics: null samples carry no value for OHLC (dropped
  -- before open/close/cnt — stages/ohlc.py::ohlc_rollup partial)
  SELECT event_type, epoch_us(ts) AS us, value, event_id,
         ((epoch_us(ts) // {W1H}) * {W1H}) AS bucket_us
  FROM events WHERE value IS NOT NULL
), w AS (
  SELECT event_type, bucket_us, us, value,
         first_value(value) OVER win AS open_v,
         last_value(value) OVER (PARTITION BY event_type, bucket_us
           ORDER BY us, event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS close_v,
         first_value(us) OVER win AS open_us,
         last_value(us) OVER (PARTITION BY event_type, bucket_us
           ORDER BY us, event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS close_us
  FROM e
  WINDOW win AS (PARTITION BY event_type, bucket_us ORDER BY us, event_id)
)
SELECT event_type, bucket_us,
       ROUND(MIN(open_v), 6) AS open_v,
       ROUND(MAX(value), 6) AS high_v,
       ROUND(MIN(value), 6) AS low_v,
       ROUND(MIN(close_v), 6) AS close_v,
       CAST(COUNT(*) AS BIGINT) AS cnt,
       ROUND(CASE WHEN MAX(close_us) > MIN(open_us)
             THEN (MIN(close_v) - MIN(open_v)) * 1000000.0
                  / (MAX(close_us) - MIN(open_us))
             ELSE NULL END, 6) AS rate_per_s
FROM w GROUP BY 1, 2
""",
        "sessionize_30m": f"""
WITH o AS (
  SELECT user_id, event_id, epoch_us(ts) AS us,
         lag(epoch_us(ts)) OVER (
           PARTITION BY user_id ORDER BY epoch_us(ts), event_id) AS prev_us
  FROM events
), b AS (
  SELECT user_id, event_id, us,
         CASE WHEN prev_us IS NULL OR us - prev_us > {GAP_30M}
              THEN 1 ELSE 0 END AS brk
  FROM o
), s AS (
  SELECT user_id, us,
         SUM(brk) OVER (PARTITION BY user_id ORDER BY us, event_id
           ROWS UNBOUNDED PRECEDING) AS sess
  FROM b
)
SELECT user_id, CAST(sess AS BIGINT) AS session_id,
       MIN(us) AS session_start_us, MAX(us) AS session_end_us,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM s GROUP BY 1, 2
""",
        "redact_docs": f"""
-- null text propagates (engine RegexRedact contract: null in -> null out,
-- matching SQL regexp_replace(NULL) semantics) — deliberately NOT COALESCEd
SELECT doc_id,
       regexp_replace(text, '{_REDACT_PAT}', '<ENT>', 'g') AS text_redacted,
       CAST(len(regexp_extract_all(text, '{_REDACT_PAT}')) AS BIGINT)
         AS n_redacted
FROM documents
""",
        "doc_repetition": """
WITH w AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM (SELECT * REPLACE (COALESCE(text, '') AS text) FROM documents) documents
)
SELECT doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_words_sep,
       CAST(COUNT(DISTINCT w) AS BIGINT) AS n_distinct_words,
       ROUND(1.0 - CAST(COUNT(DISTINCT w) AS DOUBLE) / COUNT(*), 6)
         AS dup_word_frac
FROM w GROUP BY 1
""",
        "word_topk_docs": """
SELECT w AS word, CAST(COUNT(*) AS BIGINT) AS cnt
FROM (SELECT unnest(string_split(text, ' ')) AS w FROM (SELECT * REPLACE (COALESCE(text, '') AS text) FROM documents) documents)
GROUP BY 1 ORDER BY cnt DESC, word ASC LIMIT 50
""",
        "events_in_sessions": f"""
WITH o AS (
  SELECT user_id, event_id, epoch_us(ts) AS us,
         lag(epoch_us(ts)) OVER (
           PARTITION BY user_id ORDER BY epoch_us(ts), event_id) AS prev_us
  FROM events
), b AS (
  SELECT user_id, event_id, us,
         CASE WHEN prev_us IS NULL OR us - prev_us > {GAP_30M}
              THEN 1 ELSE 0 END AS brk
  FROM o
), sess AS (
  SELECT user_id, us,
         SUM(brk) OVER (PARTITION BY user_id ORDER BY us, event_id
           ROWS UNBOUNDED PRECEDING) AS sid
  FROM b
), s AS (
  SELECT user_id, CAST(sid AS BIGINT) AS session_id,
         MIN(us) AS session_start_us, MAX(us) AS session_end_us
  FROM sess GROUP BY 1, 2
)
SELECT e.event_id, e.user_id, s.session_id
FROM events e JOIN s
  ON e.user_id = s.user_id
 AND epoch_us(e.ts) BETWEEN s.session_start_us AND s.session_end_us
""",
        "counter_increase_1h": f"""
WITH d AS (
  -- engine semantics: null samples are dropped BEFORE deltas, so a
  -- counter bridges across a null gap (stages/ohlc.py::counter_rate)
  SELECT event_type,
         ((epoch_us(ts) // {W1H}) * {W1H}) AS bucket_us,
         value - lag(value) OVER (
           PARTITION BY event_type, ((epoch_us(ts) // {W1H}) * {W1H})
           ORDER BY epoch_us(ts), event_id) AS delta
  FROM events WHERE value IS NOT NULL
)
SELECT event_type, bucket_us,
       CAST(COUNT(*) AS BIGINT) AS n_samples,
       ROUND(CAST(SUM(CASE WHEN delta > 0 THEN delta ELSE 0 END) AS DOUBLE),
             6) AS increase
FROM d GROUP BY 1, 2
""",
        "melt_rollup_1h": f"""
WITH r AS (
  SELECT event_type, {_BUCKET_1H_NEAREST} AS bucket_us,
         CAST(COUNT(*) AS DOUBLE) AS cnt,
         CAST(SUM(value) AS DOUBLE) AS sum_v,
         CAST(MIN(value) AS DOUBLE) AS min_v,
         CAST(MAX(value) AS DOUBLE) AS max_v
  FROM events WHERE value IS NOT NULL AND ts IS NOT NULL GROUP BY 1, 2
)
SELECT event_type, bucket_us, variable, ROUND(value, 6) AS value FROM (
  SELECT event_type, bucket_us, 'cnt' AS variable, cnt AS value FROM r
  UNION ALL
  SELECT event_type, bucket_us, 'sum_v', sum_v FROM r
  UNION ALL
  SELECT event_type, bucket_us, 'min_v', min_v FROM r
  UNION ALL
  SELECT event_type, bucket_us, 'max_v', max_v FROM r
)
""",
        "top3_events_per_type": """
SELECT event_id, event_type, value
FROM events
QUALIFY ROW_NUMBER() OVER (
  PARTITION BY event_type ORDER BY value DESC, event_id) <= 3
""",
        "curate_docs": """
WITH words AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM (SELECT * REPLACE (COALESCE(text, '') AS text) FROM documents) documents
), rep AS (
  SELECT doc_id,
         1.0 - CAST(COUNT(DISTINCT w) AS DOUBLE) / COUNT(*) AS dup_word_frac
  FROM words GROUP BY 1
), scored AS (
  SELECT d.doc_id, d.source, d.text,
         CAST(length(regexp_extract_all(d.text, '[A-Za-z0-9_]+')) AS BIGINT)
           AS n_words,
         r.dup_word_frac
  FROM (SELECT * REPLACE (COALESCE(text, '') AS text) FROM documents) d JOIN rep r USING (doc_id)
), kept AS (
  SELECT * FROM scored WHERE n_words >= 20 AND dup_word_frac <= 0.7
)
SELECT doc_id, source, n_words, ROUND(dup_word_frac, 6) AS dup_word_frac
FROM kept
QUALIFY ROW_NUMBER() OVER (PARTITION BY md5(text) ORDER BY doc_id) = 1
""",
        "value_histogram_20": f"""
SELECT event_type,
       LEAST(GREATEST(CAST(FLOOR((value - {HIST_LO}) * {HIST_BINS}
         / ({HIST_HI} - {HIST_LO})) AS BIGINT), 0), {HIST_BINS - 1}) AS bin,
       CAST(COUNT(*) AS BIGINT) AS cnt
FROM events WHERE value IS NOT NULL
GROUP BY 1, 2
""",
        "hot_user_events": f"""
SELECT event_id, user_id, event_type
FROM events
WHERE user_id IN (
  SELECT user_id FROM events GROUP BY user_id
  HAVING COUNT(*) >= {HOT_USER_MIN_EVENTS}
)
""",
        "ewma_1h": f"""
WITH RECURSIVE r AS (
  SELECT event_type, bucket_us, cnt,
         CAST(ROW_NUMBER() OVER (
           PARTITION BY event_type ORDER BY bucket_us) AS BIGINT) AS rn
  FROM (
    SELECT event_type, {_BUCKET_1H_NEAREST} AS bucket_us,
           CAST(COUNT(*) AS BIGINT) AS cnt
    FROM events WHERE value IS NOT NULL AND ts IS NOT NULL GROUP BY 1, 2
  )
), e AS (
  SELECT event_type, bucket_us, cnt, rn, CAST(cnt AS DOUBLE) AS ew
  FROM r WHERE rn = 1
  UNION ALL
  SELECT r.event_type, r.bucket_us, r.cnt, r.rn,
         (1.0 - {EWMA_ALPHA}) * e.ew + {EWMA_ALPHA} * CAST(r.cnt AS DOUBLE)
  FROM r JOIN e ON r.event_type = e.event_type AND r.rn = e.rn + 1
)
SELECT event_type, bucket_us, cnt, ROUND(ew, 6) AS cnt_ewma FROM e
""",
        "zscore_anomaly_1h": f"""
WITH r AS (
  SELECT event_type, {_BUCKET_1H_NEAREST} AS bucket_us,
         CAST(COUNT(*) AS BIGINT) AS cnt
  FROM events WHERE value IS NOT NULL AND ts IS NOT NULL GROUP BY 1, 2
), w AS (
  SELECT event_type, bucket_us, cnt,
         AVG(CAST(cnt AS DOUBLE)) OVER win AS mu,
         STDDEV_SAMP(CAST(cnt AS DOUBLE)) OVER win AS sd,
         COUNT(cnt) OVER win AS nb
  FROM r
  WINDOW win AS (PARTITION BY event_type ORDER BY bucket_us
                 ROWS BETWEEN {ZSCORE_WINDOW} PRECEDING AND 1 PRECEDING)
)
SELECT event_type, bucket_us, cnt,
       ROUND(CASE WHEN nb >= {ZSCORE_MIN_PERIODS} THEN mu END, 6) AS cnt_mu,
       ROUND(CASE WHEN nb >= {ZSCORE_MIN_PERIODS} THEN sd END, 6) AS cnt_sd,
       ROUND(CASE WHEN nb >= {ZSCORE_MIN_PERIODS} AND sd > 0
             THEN (CAST(cnt AS DOUBLE) - mu) / sd END, 6) AS cnt_z,
       COALESCE(ABS(CASE WHEN nb >= {ZSCORE_MIN_PERIODS} AND sd > 0
                    THEN (CAST(cnt AS DOUBLE) - mu) / sd END)
                > {ZSCORE_THRESHOLD}, FALSE) AS is_anomaly
FROM w
""",
        "time_weighted_avg_1h": f"""
WITH e AS (
  -- engine semantics: null samples dropped BEFORE neighbor pairing
  SELECT event_type, epoch_us(ts) AS us, value, event_id,
         ((epoch_us(ts) // {W1H}) * {W1H}) AS bucket_us
  FROM events WHERE value IS NOT NULL
), w AS (
  SELECT event_type, bucket_us, value,
         LEAD(us) OVER (PARTITION BY event_type, bucket_us
                        ORDER BY us, event_id) - us AS dt
  FROM e
)
SELECT event_type, bucket_us,
       ROUND(CASE WHEN SUM(dt) > 0
             THEN SUM(value * dt) / SUM(dt) END, 6) AS twa,
       CAST(COUNT(*) AS BIGINT) AS n_weighted
FROM w WHERE dt IS NOT NULL GROUP BY 1, 2
""",
        # exact order statistics: quantile_disc = sorted[ceil(q*n)-1],
        # formula-pinned vs the engine incl. the float-ceil edge; values
        # are exact data elements so no ROUND is needed on either side
        "exact_quantiles_value": "\nUNION ALL\n".join(
            f"SELECT CAST({q} AS DOUBLE) AS q,"
            f" CAST(quantile_disc(value, {q}) AS DOUBLE) AS value"
            f" FROM events WHERE value IS NOT NULL"
            for q in QUANTILE_QS
        ),
        "quantiles_by_type": "\nUNION ALL\n".join(
            f"SELECT event_type, CAST({q} AS DOUBLE) AS q,"
            f" CAST(quantile_disc(value, {q}) AS DOUBLE) AS value"
            f" FROM events GROUP BY event_type"
            for q in QUANTILE_QS
        ),
        "heavy_hitter_users": f"""
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS cnt
FROM events WHERE user_id IS NOT NULL
GROUP BY user_id
HAVING COUNT(*) * {HEAVY_K} >
       (SELECT COUNT(*) FROM events WHERE user_id IS NOT NULL)
""",
        "merged_intervals_5m": f"""
WITH iv AS (
  SELECT user_id, epoch_us(ts) AS s, epoch_us(ts) + {IV_WIDTH_US} AS e
  FROM events
), o AS (
  SELECT user_id, s, e,
         MAX(e) OVER (PARTITION BY user_id ORDER BY s, e
                      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS prev_max
  FROM iv
), g AS (
  SELECT *, CASE WHEN prev_max IS NULL OR s > prev_max THEN 1 ELSE 0 END
              AS brk
  FROM o
), i AS (
  SELECT *, SUM(brk) OVER (PARTITION BY user_id ORDER BY s, e
                           ROWS UNBOUNDED PRECEDING) AS island
  FROM g
)
SELECT user_id, CAST(island AS BIGINT) AS island_id,
       MIN(s) AS start_us, MAX(e) AS end_us,
       CAST(COUNT(*) AS BIGINT) AS n_merged
FROM i GROUP BY 1, 2
""",
        "rolling_median_24h": f"""
WITH r AS (
  SELECT event_type, {_BUCKET_1H_NEAREST} AS bucket_us,
         CAST(COUNT(*) AS BIGINT) AS cnt
  FROM events WHERE value IS NOT NULL AND ts IS NOT NULL GROUP BY 1, 2
)
SELECT event_type, bucket_us, cnt,
       CAST(quantile_disc(cnt, 0.5) OVER (
         PARTITION BY event_type ORDER BY bucket_us
         ROWS BETWEEN 23 PRECEDING AND CURRENT ROW) AS DOUBLE) AS cnt_med
FROM r
""",
        "series_corr_pairs": f"""
WITH r AS (
  SELECT event_type, {_BUCKET_1H_NEAREST} AS bucket_us,
         CAST(COUNT(*) AS DOUBLE) AS cnt
  FROM events WHERE value IS NOT NULL AND ts IS NOT NULL GROUP BY 1, 2
)
SELECT a.event_type AS k1, b.event_type AS k2,
       CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(corr(a.cnt, b.cnt), 6) AS r
FROM r a JOIN r b ON a.bucket_us = b.bucket_us
                 AND a.event_type < b.event_type
GROUP BY 1, 2
""",
        "cusum_changepoints_1h": f"""
WITH RECURSIVE r AS (
  SELECT event_type, bucket_us, cnt,
         CAST(ROW_NUMBER() OVER (
           PARTITION BY event_type ORDER BY bucket_us) AS BIGINT) AS rn
  FROM (
    SELECT event_type, {_BUCKET_1H_NEAREST} AS bucket_us,
           CAST(COUNT(*) AS BIGINT) AS cnt
    FROM events WHERE value IS NOT NULL AND ts IS NOT NULL GROUP BY 1, 2
  )
), st AS (
  SELECT event_type, AVG(CAST(cnt AS DOUBLE)) AS mu,
         STDDEV_SAMP(CAST(cnt AS DOUBLE)) AS sd
  FROM r GROUP BY 1
), rj AS (
  SELECT r.*, st.mu, st.sd FROM r JOIN st USING (event_type)
), e AS (
  SELECT event_type, bucket_us, cnt, rn, mu, sd,
         CASE WHEN sd IS NULL THEN NULL
              ELSE GREATEST(0.0, (cnt - mu) - {CUSUM_K_SD} * sd) END AS sp,
         CASE WHEN sd IS NULL THEN NULL
              ELSE GREATEST(0.0, (mu - cnt) - {CUSUM_K_SD} * sd) END AS sm
  FROM rj WHERE rn = 1
  UNION ALL
  SELECT rj.event_type, rj.bucket_us, rj.cnt, rj.rn, rj.mu, rj.sd,
         CASE WHEN rj.sd IS NULL THEN NULL
              ELSE GREATEST(0.0, e.sp + (rj.cnt - rj.mu)
                                 - {CUSUM_K_SD} * rj.sd) END,
         CASE WHEN rj.sd IS NULL THEN NULL
              ELSE GREATEST(0.0, e.sm + (rj.mu - rj.cnt)
                                 - {CUSUM_K_SD} * rj.sd) END
  FROM rj JOIN e ON rj.event_type = e.event_type AND rj.rn = e.rn + 1
)
SELECT event_type, bucket_us, cnt,
       ROUND(sp, 6) AS cnt_cusum_pos, ROUND(sm, 6) AS cnt_cusum_neg,
       COALESCE(sp > {CUSUM_H_SD} * sd OR sm > {CUSUM_H_SD} * sd, FALSE)
         AS is_change
FROM e
""",
        "customers_no_urgent_orders": """
SELECT c_custkey, c_name, c_acctbal
FROM customer c
WHERE NOT EXISTS (
  SELECT 1 FROM orders o
  WHERE o.o_custkey = c.c_custkey AND o.o_orderpriority = '1-URGENT'
)
""",
        "trend_slope_1h": f"""
WITH r AS (
  SELECT event_type, {_BUCKET_1H_NEAREST} AS bucket_us,
         CAST(COUNT(*) AS DOUBLE) AS cnt
  FROM events WHERE value IS NOT NULL AND ts IS NOT NULL GROUP BY 1, 2
), x AS (
  SELECT event_type, cnt,
         (bucket_us - MIN(bucket_us) OVER (PARTITION BY event_type))
           / 3600000000.0 AS xh
  FROM r
)
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(regr_slope(cnt, xh), 6) AS slope,
       ROUND(regr_intercept(cnt, xh), 6) AS intercept
FROM x GROUP BY event_type
""",
        "seasonal_decompose_1h": f"""
WITH r AS (
  SELECT event_type, {_BUCKET_1H_NEAREST} AS bucket_us,
         CAST(COUNT(*) AS BIGINT) AS cnt
  FROM events WHERE value IS NOT NULL AND ts IS NOT NULL GROUP BY 1, 2
), w AS (
  SELECT event_type, bucket_us, cnt,
         CASE WHEN COUNT(*) OVER win = 24
              THEN AVG(CAST(cnt AS DOUBLE)) OVER win END AS trend
  FROM r
  WINDOW win AS (PARTITION BY event_type ORDER BY bucket_us
                 ROWS BETWEEN 11 PRECEDING AND 12 FOLLOWING)
), p AS (
  SELECT *, (bucket_us // {W1H}) % 24 AS phase FROM w
), m AS (
  SELECT event_type, phase, AVG(cnt - trend) AS seasonal
  FROM p WHERE trend IS NOT NULL GROUP BY 1, 2
)
SELECT p.event_type, p.bucket_us, p.cnt, ROUND(p.trend, 6) AS trend,
       ROUND(m.seasonal, 6) AS seasonal,
       ROUND(p.cnt - p.trend - m.seasonal, 6) AS remainder
FROM p LEFT JOIN m USING (event_type, phase)
""",
        "winsorize_values_p05_p95": """
WITH b AS (
  SELECT event_type, quantile_disc(value, 0.05) AS lo,
         quantile_disc(value, 0.95) AS hi
  FROM events GROUP BY event_type
)
SELECT e.event_id, e.event_type, e.value,
       CASE WHEN e.value IS NULL THEN NULL
            ELSE LEAST(GREATEST(e.value, b.lo), b.hi) END AS value_wins
FROM events e JOIN b USING (event_type)
""",
        "value_percent_rank": """
SELECT event_id, event_type, value,
       ROUND(PERCENT_RANK() OVER (
         PARTITION BY event_type ORDER BY value), 6) AS pct_rank
FROM events
""",
        "record_high_1h": f"""
WITH r AS (
  SELECT event_type, {_BUCKET_1H_NEAREST} AS bucket_us,
         CAST(COUNT(*) AS BIGINT) AS cnt
  FROM events WHERE value IS NOT NULL AND ts IS NOT NULL GROUP BY 1, 2
)
SELECT event_type, bucket_us, cnt,
       CAST(MAX(cnt) OVER w AS DOUBLE) AS prev_max,
       CASE WHEN cnt IS NULL THEN FALSE
            ELSE COALESCE(cnt > MAX(cnt) OVER w, TRUE) END AS is_record
FROM r
WINDOW w AS (PARTITION BY event_type ORDER BY bucket_us
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
""",
        "holt_smooth_1h": f"""
WITH RECURSIVE r AS (
  SELECT event_type, bucket_us, cnt,
         CAST(ROW_NUMBER() OVER (
           PARTITION BY event_type ORDER BY bucket_us) AS BIGINT) AS rn
  FROM (
    SELECT event_type, {_BUCKET_1H_NEAREST} AS bucket_us,
           CAST(COUNT(*) AS BIGINT) AS cnt
    FROM events WHERE value IS NOT NULL AND ts IS NOT NULL GROUP BY 1, 2
  )
), e AS (
  SELECT event_type, bucket_us, cnt, rn,
         CAST(cnt AS DOUBLE) AS lvl, CAST(0 AS DOUBLE) AS trd
  FROM r WHERE rn = 1
  UNION ALL
  SELECT r.event_type, r.bucket_us, r.cnt, r.rn,
         {HOLT_A} * r.cnt + {1 - HOLT_A} * (e.lvl + e.trd),
         {HOLT_B} * (({HOLT_A} * r.cnt + {1 - HOLT_A} * (e.lvl + e.trd))
                     - e.lvl) + {1 - HOLT_B} * e.trd
  FROM r JOIN e ON r.event_type = e.event_type AND r.rn = e.rn + 1
)
SELECT event_type, bucket_us, cnt,
       ROUND(lvl, 6) AS level, ROUND(trd, 6) AS trend,
       ROUND(lvl + trd, 6) AS forecast_next
FROM e
""",
        "cohort_retention_weekly": f"""
WITH p AS (
  SELECT DISTINCT user_id,
         (epoch_us(ts) // {COHORT_W_US}) * {COHORT_W_US} AS bucket_us
  FROM events WHERE user_id IS NOT NULL
), f AS (
  SELECT user_id, MIN(bucket_us) AS cohort_us FROM p GROUP BY user_id
)
SELECT f.cohort_us, p.bucket_us,
       CAST(COUNT(DISTINCT p.user_id) AS BIGINT) AS n_users
FROM p JOIN f USING (user_id) GROUP BY 1, 2
""",
        "interarrival_stats_by_type": """
WITH g AS (
  SELECT event_type,
         epoch_us(ts) - LAG(epoch_us(ts)) OVER (
           PARTITION BY event_type ORDER BY epoch_us(ts), event_id) AS gap
  FROM events
)
SELECT event_type, CAST(COUNT(gap) AS BIGINT) AS n_gaps,
       CAST(SUM(gap) AS DOUBLE) / COUNT(gap) AS mean_gap_us,
       CAST(quantile_disc(gap, 0.5) AS DOUBLE) AS q50_gap_us,
       CAST(quantile_disc(gap, 0.95) AS DOUBLE) AS q95_gap_us
FROM g GROUP BY event_type
""",
        "minmax_normalize_values": """
SELECT event_id, event_type, value,
       (value - MIN(value) OVER (PARTITION BY event_type))
         / (MAX(value) OVER (PARTITION BY event_type)
            - MIN(value) OVER (PARTITION BY event_type)) AS value_norm
FROM events
""",
        "latest_event_per_user_asof": """
WITH c AS (
  SELECT (MIN(epoch_us(ts)) + MAX(epoch_us(ts))) // 2 AS cutoff FROM events
), r AS (
  SELECT user_id, event_id, event_type, value, epoch_us(ts) AS event_time_us,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts) DESC, event_id) AS rn
  FROM events, c WHERE epoch_us(ts) <= c.cutoff
)
SELECT user_id, event_id, event_type, value, event_time_us
FROM r WHERE rn = 1
""",
        "user_type_entropy": """
WITH g AS (
  SELECT user_id, event_type, CAST(COUNT(*) AS DOUBLE) AS cnt
  FROM events WHERE user_id IS NOT NULL AND event_type IS NOT NULL
  GROUP BY 1, 2
), a AS (
  SELECT user_id, SUM(cnt) AS n, COUNT(*) AS k, SUM(cnt * ln(cnt)) AS clnc
  FROM g GROUP BY 1
)
SELECT user_id, CAST(n AS BIGINT) AS n_events, CAST(k AS BIGINT) AS n_cats,
       ROUND(CASE WHEN k = 1 THEN 0.0
                  ELSE GREATEST(ln(n) - clnc / n, 0.0) END, 6) AS entropy
FROM a
""",
        "sliding_distinct_users_24h": f"""
WITH p AS (
  SELECT DISTINCT user_id, (epoch_us(ts) // {W1H}) * {W1H} AS b
  FROM events WHERE user_id IS NOT NULL
), grid AS (SELECT DISTINCT (epoch_us(ts) // {W1H}) * {W1H} AS b FROM events)
SELECT g.b AS bucket_us, CAST(COUNT(DISTINCT p.user_id) AS BIGINT)
         AS n_active
FROM grid g LEFT JOIN p
  ON p.b BETWEEN g.b - {(SLIDING_WIN - 1) * W1H} AND g.b
GROUP BY 1
""",
        "growth_accounting_1d": f"""
WITH p AS (
  SELECT DISTINCT user_id, (epoch_us(ts) // {24 * W1H}) * {24 * W1H} AS b
  FROM events WHERE user_id IS NOT NULL
), f AS (SELECT user_id, MIN(b) AS first_b FROM p GROUP BY user_id),
grid AS (
  SELECT DISTINCT (epoch_us(ts) // {24 * W1H}) * {24 * W1H} AS b FROM events
)
SELECT g.b AS bucket_us,
  CAST(COALESCE(SUM(CASE WHEN p.b = f.first_b THEN 1 END), 0) AS BIGINT)
    AS n_new,
  CAST(COALESCE(SUM(CASE WHEN p.b > f.first_b AND pr.user_id IS NOT NULL
                     THEN 1 END), 0) AS BIGINT) AS n_retained,
  CAST(COALESCE(SUM(CASE WHEN p.b > f.first_b AND pr.user_id IS NULL
                     THEN 1 END), 0) AS BIGINT) AS n_resurrected,
  CAST((SELECT COUNT(*) FROM p q
        WHERE q.b = g.b - {24 * W1H}
          AND NOT EXISTS (SELECT 1 FROM p r
                          WHERE r.user_id = q.user_id AND r.b = g.b))
       AS BIGINT) AS n_churned
FROM grid g
LEFT JOIN p ON p.b = g.b
LEFT JOIN f ON f.user_id = p.user_id
LEFT JOIN p pr ON pr.user_id = p.user_id AND pr.b = p.b - {24 * W1H}
GROUP BY g.b
""",
        "funnel_signup_click_purchase": """
WITH s1 AS (
  SELECT user_id, MIN(epoch_us(ts)) AS t1 FROM events
  WHERE event_type = 'signup' AND user_id IS NOT NULL GROUP BY user_id
), s2 AS (
  SELECT e.user_id, MIN(epoch_us(e.ts)) AS t2
  FROM events e JOIN s1 USING (user_id)
  WHERE e.event_type = 'click' AND epoch_us(e.ts) > s1.t1
  GROUP BY e.user_id
), s3 AS (
  SELECT e.user_id, MIN(epoch_us(e.ts)) AS t3
  FROM events e JOIN s2 USING (user_id)
  WHERE e.event_type = 'purchase' AND epoch_us(e.ts) > s2.t2
  GROUP BY e.user_id
)
SELECT 1 AS step, 'signup' AS event_type,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM s1) AS n_users
UNION ALL SELECT 2, 'click', (SELECT COUNT(*) FROM s2)
UNION ALL SELECT 3, 'purchase', (SELECT COUNT(*) FROM s3)
""",
        "type_transition_matrix": """
WITH q AS (
  SELECT user_id, event_type,
         LAG(event_type) OVER (
           PARTITION BY user_id ORDER BY epoch_us(ts), event_id) AS prev
  FROM events WHERE user_id IS NOT NULL
), g AS (
  SELECT prev AS from_type, event_type AS to_type,
         CAST(COUNT(*) AS BIGINT) AS cnt
  FROM q WHERE prev IS NOT NULL GROUP BY 1, 2
)
SELECT from_type, to_type, cnt,
       ROUND(cnt * 1.0 / SUM(cnt) OVER (PARTITION BY from_type), 6) AS p
FROM g
""",
        "autocorr_lag1_1h": f"""
WITH r AS (
  SELECT event_type, {_BUCKET_1H_NEAREST} AS bucket_us,
         CAST(COUNT(*) AS DOUBLE) AS cnt
  FROM events WHERE value IS NOT NULL AND ts IS NOT NULL GROUP BY 1, 2
), l AS (
  SELECT event_type, cnt,
         LAG(cnt, 1) OVER (PARTITION BY event_type ORDER BY bucket_us)
           AS prev
  FROM r
)
SELECT event_type, CAST(COUNT(prev) AS BIGINT) AS n,
       ROUND(corr(cnt, prev), 6) AS acf
FROM l GROUP BY event_type
""",
        "train_val_test_split": f"""
SELECT doc_id, source,
  CASE WHEN CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))
            AS UBIGINT) < {_SPLIT_B1} THEN 'train'
       WHEN CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))
            AS UBIGINT) < {_SPLIT_B2} THEN 'val'
       ELSE 'test' END AS split
FROM documents
""",
        "profile_events": """SELECT 'event_id' AS column, CAST(COUNT(*) AS BIGINT) AS n, CAST(COUNT(*) - COUNT(event_id) AS BIGINT) AS n_null, CAST(MIN(event_id) AS DOUBLE) AS min_v, CAST(MAX(event_id) AS DOUBLE) AS max_v FROM events
UNION ALL
SELECT 'ts' AS column, CAST(COUNT(*) AS BIGINT) AS n, CAST(COUNT(*) - COUNT(ts) AS BIGINT) AS n_null, CAST(MIN(epoch_us(ts)) AS DOUBLE) AS min_v, CAST(MAX(epoch_us(ts)) AS DOUBLE) AS max_v FROM events
UNION ALL
SELECT 'user_id' AS column, CAST(COUNT(*) AS BIGINT) AS n, CAST(COUNT(*) - COUNT(user_id) AS BIGINT) AS n_null, CAST(MIN(user_id) AS DOUBLE) AS min_v, CAST(MAX(user_id) AS DOUBLE) AS max_v FROM events
UNION ALL
SELECT 'event_type' AS column, CAST(COUNT(*) AS BIGINT) AS n, CAST(COUNT(*) - COUNT(event_type) AS BIGINT) AS n_null, NULL AS min_v, NULL AS max_v FROM events
UNION ALL
SELECT 'value' AS column, CAST(COUNT(*) AS BIGINT) AS n, CAST(COUNT(*) - COUNT(value) AS BIGINT) AS n_null, CAST(MIN(value) AS DOUBLE) AS min_v, CAST(MAX(value) AS DOUBLE) AS max_v FROM events""",
        "conversion_lag_stats": """
WITH s1 AS (
  SELECT user_id, MIN(epoch_us(ts)) AS t1 FROM events
  WHERE event_type = 'signup' AND user_id IS NOT NULL GROUP BY user_id
), s2 AS (
  SELECT e.user_id, MIN(epoch_us(e.ts)) AS t2, MAX(s1.t1) AS t1
  FROM events e JOIN s1 USING (user_id)
  WHERE e.event_type = 'purchase' AND epoch_us(e.ts) > s1.t1
  GROUP BY e.user_id
), l AS (SELECT t2 - t1 AS lag FROM s2)
SELECT CAST(COUNT(*) AS BIGINT) AS n_converted,
       CAST(SUM(lag) AS DOUBLE) / COUNT(*) AS mean_lag_us,
       CAST(quantile_disc(lag, 0.5) AS DOUBLE) AS q50_lag_us,
       CAST(quantile_disc(lag, 0.95) AS DOUBLE) AS q95_lag_us
FROM l
""",
        "robust_zscore_values": """
WITH m AS (
  SELECT event_type, quantile_disc(value, 0.5) AS med
  FROM events GROUP BY event_type
), d AS (
  SELECT e.event_type, quantile_disc(ABS(e.value - m.med), 0.5) AS mad
  FROM events e JOIN m USING (event_type)
  WHERE e.value IS NOT NULL GROUP BY e.event_type
)
SELECT e.event_id, e.event_type, e.value,
       ROUND(CASE WHEN d.mad > 0
             THEN (e.value - m.med) / (1.4826 * d.mad) END, 6) AS value_rz
FROM events e JOIN m USING (event_type) JOIN d USING (event_type)
""",
        "activity_gini_1d": f"""
WITH c AS (
  SELECT (epoch_us(ts) // {24 * W1H}) * {24 * W1H} AS bucket_us, user_id,
         CAST(COUNT(*) AS BIGINT) AS cnt
  FROM events WHERE user_id IS NOT NULL GROUP BY 1, 2
), r AS (
  SELECT bucket_us, cnt,
         ROW_NUMBER() OVER (PARTITION BY bucket_us
                            ORDER BY cnt, user_id) AS i
  FROM c
)
SELECT bucket_us, CAST(COUNT(*) AS BIGINT) AS n_entities,
       ROUND(2.0 * SUM(i * cnt) / (COUNT(*) * SUM(cnt))
             - (COUNT(*) + 1.0) / COUNT(*), 6) AS gini
FROM r GROUP BY bucket_us
""",
        # Pinned-golden oracles (below): operators whose semantics are not
        # SQL-expressible (custom 64-bit hash algorithms, MinHash/SimHash
        # banding, the Jaeger/Prometheus fixture chain, the fake multimodal
        # decode). Their results ARE deterministic (fixed seeds/fixtures;
        # tools/make_goldens.py runs each twice and refuses to pin a flaky
        # result), so the oracle is the normalized sf0.01 result committed
        # as parquet under tests/goldens/sf0.01/ — the golden-file strategy
        # the reference itself uses for parser conformance (SURVEY §5).
        **_golden_oracles(),
    }


# Queries whose oracle is a pinned golden parquet (only valid at sf0.01 —
# the driver's correctness scale; the sf0.001 pytest mirror treats them as
# rows-only and tests/test_golden_oracles.py checks them at sf0.01).
GOLDEN_ORACLE_KEYS = (
    "dup_ngram_frac",
    "cross_doc_dup_spans",
    "strip_hot_spans_docs",
    "benchmark_contamination",
    "span_corrupt_docs",
    "source_vocab_jaccard",
    "source_vocab_containment",
    "source_token_richness",
    "doc_fingerprints",
    "simhash_docs",
    "minhash_lsh_pairs",
    "minhash_clusters",
    "simhash_neardup_pairs",
    "lsh_neardup_pairs",
    "lang_id_docs",
    "multimodal_decode_stub",
    "multimodal_decode_wav",
    "multimodal_decode_png",
    "multimodal_decode_jpeg",
    "multimodal_decode_video",
    "telemetry_join_fixture",
    "corpus_end_to_end",
    "ivf_topk_cosine",
    "pq_topk_cosine",
    "approx_distinct_users",
    "lttb_events_200",
    "token_vocab_hist",
    "token_bigram_top100",
)

_GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "tests", "goldens", "sf0.01")


def _golden_oracles() -> dict[str, str]:
    out = {}
    for name in GOLDEN_ORACLE_KEYS:
        path = os.path.join(_GOLDEN_DIR, f"{name}.parquet")
        if os.path.exists(path):
            out[name] = f"SELECT * FROM read_parquet('{path}')"
    return out
