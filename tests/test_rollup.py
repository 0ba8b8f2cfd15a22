"""Rollup correctness vs a DuckDB oracle on the synthetic sequences table."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data

from contest_parsing_ray.sources.ingest import read_sequences
from contest_parsing_ray.stages.rollup import reaggregate, rollup_tiers

TIERS = {"1m": 60_000_000, "5m": 300_000_000, "1h": 3_600_000_000}


def _events_pdf(sequences_dir) -> pd.DataFrame:
    ds = read_sequences(sequences_dir, with_tokens=False)
    return ds.to_pandas()


def _oracle(pdf: pd.DataFrame, width: int, mode: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("events", pdf)
    if mode == "nearest":
        bucket = f"((event_time_us + {width // 2}) // {width}) * {width}"
    else:
        bucket = f"(event_time_us // {width}) * {width}"
    q = f"""
        SELECT source,
               {bucket} AS bucket_us,
               CAST(COUNT(*) AS BIGINT) AS cnt,
               CAST(SUM(n_tok) AS DOUBLE) AS sum_v,
               CAST(MIN(n_tok) AS DOUBLE) AS min_v,
               CAST(MAX(n_tok) AS DOUBLE) AS max_v,
               quantile_cont(CAST(n_tok AS DOUBLE), 0.95) AS p95_v
        FROM events GROUP BY 1, 2 ORDER BY 1, 2
    """
    return con.execute(q).df()


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(["source", "bucket_us"]).reset_index(drop=True)[
        ["source", "bucket_us", "cnt", "sum_v", "min_v", "max_v", "p95_v"]
    ]


@pytest.mark.parametrize("mode", ["nearest", "floor"])
def test_rollup_matches_duckdb(sequences_dir, mode):
    events = read_sequences(sequences_dir, with_tokens=False)
    rollups = rollup_tiers(events, TIERS, value_col="n_tok", bucket_mode=mode)
    pdf = _events_pdf(sequences_dir)
    for name, width in TIERS.items():
        got = _norm(rollups[name].to_pandas())
        want = _norm(_oracle(pdf, width, mode))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_hot_source_spreads_over_exchange(sequences_dir):
    """Skew handling without salt: per-file partial combining shrinks the
    hot source's share (~80% of raw rows, ~37% of partial rows), and the
    (source, bucket_1m) exchange key spreads its partial rows so the
    largest of P=16 partitions holds at most 2/P of them (~7.8%); hashed on
    source alone the largest would hold ~46%."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from contest_parsing_ray.sources.ingest import derive_event_time
    from contest_parsing_ray.stages._shuffle import add_hash_partition
    from contest_parsing_ray.stages.rollup import PartialRollup

    P = 16
    partial = PartialRollup(TIERS, "n_tok")
    raw, per_file = [], []
    for f in sorted(pads.dataset(sequences_dir).files):
        t = derive_event_time(pq.read_table(f, columns=["doc_id", "n_tok", "source"]))
        raw.append(t["source"].to_pandas())
        per_file.append(partial(t))
    partials = pa.concat_tables(per_file)
    raw_share = pd.concat(raw).value_counts(normalize=True).iloc[0]
    hot_share = partials["source"].to_pandas().value_counts(normalize=True).iloc[0]
    assert raw_share > 0.75 and hot_share < raw_share / 2

    def largest_share(cols: list[str]) -> float:
        part = add_hash_partition(partials, cols, P)["__part"].to_numpy()
        return np.bincount(part, minlength=P).max() / len(part)

    assert largest_share(["source", "bucket_1m"]) <= 2 / P
    assert largest_share(["source"]) >= hot_share


def test_hierarchical_floor_reaggregate(sequences_dir):
    events = read_sequences(sequences_dir, with_tokens=False)
    fine = rollup_tiers(
        events, {"1m": TIERS["1m"]}, value_col="n_tok",
        bucket_mode="floor", keep_summary=True,
    )["1m"]
    coarse = reaggregate(fine, TIERS["1h"])
    direct = rollup_tiers(
        events, {"1h": TIERS["1h"]}, value_col="n_tok", bucket_mode="floor"
    )["1h"]
    pd.testing.assert_frame_equal(
        _norm(coarse.to_pandas()), _norm(direct.to_pandas()), check_dtype=False
    )


def test_quantile_summary_compaction_bounded_error():
    from contest_parsing_ray.state.sketches import QuantileSummary

    rng = np.random.default_rng(7)
    vals = rng.pareto(1.5, size=200_000) * 100
    parts = [
        QuantileSummary.of(vals[i : i + 10_000], cap=1024) for i in range(0, len(vals), 10_000)
    ]
    merged = QuantileSummary.merge_all(parts, cap=1024)
    approx = merged.quantile(0.95)
    exact = float(np.quantile(vals, 0.95))
    assert abs(approx - exact) / exact < 0.05


def test_compact_exact_bit_identical_to_general_compact():
    """compact_exact (the unit-weight fast path the tier merge uses) must
    equal QuantileSummary(values).compact(cap) bit-for-bit — values,
    weights, serialized blob — at and around the cap boundary."""
    from contest_parsing_ray.state.sketches import QuantileSummary

    rng = np.random.default_rng(7)
    for n in (0, 1, 512, 4096, 4097, 8193, 100_000):
        vals = rng.normal(size=n) * 100
        fast = QuantileSummary.compact_exact(vals, 4096)
        ref = QuantileSummary(vals.copy()).compact(4096)
        np.testing.assert_array_equal(fast.values, ref.values)
        np.testing.assert_array_equal(fast.weights, ref.weights)
        assert fast.to_bytes() == ref.to_bytes()
        if n:
            assert fast.quantile(0.95) == ref.quantile(0.95)
