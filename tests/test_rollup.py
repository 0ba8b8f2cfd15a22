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


# -- factor-grid partials and the integer-keyed merge -------------------------

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from contest_parsing_ray.config import parse_duration_us  # noqa: E402

HALF_S = 500_000  # every tie instant drawn below is on this grid


def _reference_partials(batch, tiers, mode, cap, checksum):
    """The per-tier group-by PartialRollup ran before the factor grid: one
    bucket column per tier from ``bucket_us`` (or floor), a pandas
    group-by on (key, buckets), each group's values in input-row order."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from contest_parsing_ray.functions.bucketing import bucket_us
    from contest_parsing_ray.state.sketches import QuantileSummary

    batch = batch.filter(pc.and_(batch["v"].is_valid(), batch["ts"].is_valid()))
    batch = batch.filter(pc.invert(pc.is_nan(batch["v"])))
    ts = batch["ts"].to_numpy(zero_copy_only=False).astype(np.int64)
    df = pd.DataFrame(
        {
            "key": batch["key"].to_numpy(zero_copy_only=False),
            "v": batch["v"].to_numpy(zero_copy_only=False).astype(np.float64),
            "ck": batch["ck"].to_numpy(zero_copy_only=False).view(np.uint64),
        }
    )
    bcols = []
    for name, w in tiers.items():
        df[f"bucket_{name}"] = bucket_us(ts, w) if mode == "nearest" else ts // w * w
        bcols.append(f"bucket_{name}")
    rows = []
    for keys, g in df.groupby(["key", *bcols], sort=False):
        vals = g["v"].to_numpy()
        row = {
            "key": str(keys[0]),
            **{c: int(b) for c, b in zip(bcols, keys[1:])},
            "cnt": len(vals),
            "sum_v": float(vals.sum()),
            "min_v": float(vals.min()),
            "max_v": float(vals.max()),
            "qsum": QuantileSummary.of(vals, cap=cap).to_bytes(),
        }
        if checksum:
            with np.errstate(over="ignore"):
                ck = np.sum(g["ck"].to_numpy(), dtype=np.uint64)
                row["ck_v"] = int(ck.view(np.int64))
        rows.append(row)
    cols = ["key", *bcols, "cnt", "sum_v", "min_v", "max_v", "qsum"] + (
        ["ck_v"] if checksum else []
    )
    return pd.DataFrame(rows, columns=cols)


def _sorted_rows(df, tiers):
    keys = ["key", *(f"bucket_{t}" for t in tiers)]
    return df.sort_values(keys, kind="stable").reset_index(drop=True)


def _assert_partials_match(batch, tiers, mode, cap, checksum=True):
    from contest_parsing_ray.stages.rollup import PartialRollup

    got = PartialRollup(
        tiers, "v", "key", "ts", cap, mode,
        checksum_col="ck" if checksum else None,
    )(batch)
    assert got.schema.field("key").type == "string"
    want = _reference_partials(batch, tiers, mode, cap, checksum)
    got = _sorted_rows(got.to_pandas(), tiers)
    want = _sorted_rows(want, tiers)
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)


_TIER_SETS = [("1m",), ("10s", "1m"), ("7s", "90s"), ("1m", "5m", "1h")]


@st.composite
def _rollup_batches(draw):
    import pyarrow as pa

    int_key = draw(st.booleans())
    n = draw(st.integers(0, 60))
    instant = st.one_of(
        # 30 s, 2:30 min and 30:00 min ties (and 3.5 s, 45 s, 5 s) sit on
        # the half-second grid; +-1 us either side of each
        st.builds(
            lambda k, d: k * HALF_S + d,
            st.integers(-20_000, 20_000),
            st.sampled_from([-1, 0, 1]),
        ),
        st.integers(-(10**13), 10**13),
    )
    keys = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    ts = draw(st.lists(st.one_of(instant, st.none()), min_size=n, max_size=n))
    vals = draw(
        st.lists(
            # halves sum exactly in any order
            st.one_of(
                st.integers(-40, 40).map(lambda x: x / 2),
                st.just(float("nan")),
                st.none(),
            ),
            min_size=n,
            max_size=n,
        )
    )
    if draw(st.booleans()):  # an all-filtered batch
        vals = [None if draw(st.booleans()) else float("nan") for _ in vals]
    key_arr = (
        pa.array(keys, type=pa.int64())
        if int_key
        else pa.array(
            [None if k == 3 else f"s{k}" for k in keys], type=pa.string()
        )
    )
    ck = draw(
        st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)
    )
    t = pa.table(
        {
            "key": key_arr,
            "ts": pa.array(ts, type=pa.int64()),
            "v": pa.array(vals, type=pa.float64()),
            "ck": pa.array(ck, type=pa.int64()),
        }
    )
    cut = draw(st.integers(0, n))  # two chunks
    return pa.concat_tables([t.slice(0, cut), t.slice(cut)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    _rollup_batches(),
    st.sampled_from(_TIER_SETS),
    st.sampled_from(["nearest", "floor"]),
    st.sampled_from([2, 4096]),
)
def test_factor_grid_partials_match_per_tier_groupby(batch, tier_set, mode, cap):
    """PartialRollup groups on (key code, factor slice) and derives every
    tier's bucket from the slice; its rows (blob bytes and checksums
    included) must equal a per-tier ``bucket_us`` group-by's, also on
    tie instants, negative instants, null/NaN rows, an all-filtered
    batch, int keys and groups above the cap."""
    tiers = {t: parse_duration_us(t) for t in tier_set}
    _assert_partials_match(batch, tiers, mode, cap)


def test_factor_grid_partials_long_span():
    """1 us grid over +-4e18 us: packing (key, slice) into one int64 would
    overflow, so the rows are ordered with a lexsort instead."""
    import pyarrow as pa

    rng = np.random.default_rng(11)
    n = 400
    ts = rng.integers(-(4 * 10**18), 4 * 10**18, n)
    ts[1::2] = ts[::2] + 1  # neighbours, mostly in one bucket
    batch = pa.table(
        {
            "key": pa.array(rng.choice(["a", "b", "c", "d"], n)),
            "ts": pa.array(ts, type=pa.int64()),
            "v": pa.array(rng.integers(0, 50, n).astype(np.float64)),
            "ck": pa.array(rng.integers(-(2**62), 2**62, n), type=pa.int64()),
        }
    )
    for mode in ("nearest", "floor"):
        _assert_partials_match(batch, {"a": 3, "b": 7}, mode, 4096)


def _canonical_reference(rows, cap, p=0.95):
    """Per (key, bucket) group: merge_all of its blobs in the canonical
    order (cnt, sum_v, min_v, max_v, blob bytes)."""
    from contest_parsing_ray.state.sketches import QuantileSummary

    out = {}
    for (k, b), g in rows.groupby(["source", "bucket_us"]):
        g = g.assign(_blob=g["qsum"]).sort_values(
            ["cnt", "sum_v", "min_v", "max_v", "_blob"], kind="stable"
        )
        merged = QuantileSummary.merge_all(
            [QuantileSummary.from_bytes(x) for x in g["qsum"]], cap=cap
        )
        out[(k, b)] = (merged.quantile(p), merged.to_bytes())
    return out


def test_merge_mixed_exact_and_compacted_blobs_equals_merge_all(sequences_dir):
    """The append's merge input: stored state (compacted blobs where a
    group passed the cap, exact ones elsewhere) followed by fresh exact
    partials. Every group's p95 bits and blob bytes equal
    ``QuantileSummary.merge_all`` over its blobs in canonical order."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from contest_parsing_ray.sources.ingest import derive_event_time
    from contest_parsing_ray.stages.rollup import PartialRollup, _merge_partition

    cap = 64
    partial = PartialRollup({"1h": TIERS["1h"]}, "n_tok", quantile_cap=cap)
    files = sorted(pads.dataset(sequences_dir).files)
    cols = ["source", "bucket_us", "cnt", "sum_v", "min_v", "max_v", "qsum"]
    per_file = [
        partial(
            derive_event_time(pq.read_table(f, columns=["doc_id", "n_tok", "source"]))
        ).rename_columns(cols)
        for f in files
    ]
    state = _merge_partition(
        pa.concat_tables(per_file[:2]), "source", "bucket_us", cap, 0.95, True
    )
    exact = [_is_exact(b) for b in state["qsum"]]
    assert not all(exact) and any(exact)
    rows = pd.concat(
        [state.drop(columns=["p95_v"]), *(t.to_pandas() for t in per_file[2:])],
        ignore_index=True,
    )
    got = _merge_partition(rows, "source", "bucket_us", cap, 0.95, True)
    want = _canonical_reference(rows, cap)
    assert len(got) == len(want)
    for r in got.itertuples():
        p95, blob = want[(r.source, r.bucket_us)]
        assert _bits(r.p95_v) == _bits(p95)
        assert r.qsum == blob


def _is_exact(blob: bytes) -> bool:
    return int(np.frombuffer(blob[8:16], dtype=np.int64)[0]) == 1


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def _tied_rows(compacted: bool):
    """Rows of one group tied on every stat, with different blobs (the
    last one compacted)."""
    from contest_parsing_ray.state.sketches import QuantileSummary

    blobs = [
        QuantileSummary(np.array(v, dtype=np.float64)).to_bytes()
        for v in ([1, 2], [2, 1], [1, 2], [1, 2, 3], [3, 1, 2], [2, 3, 1])
    ]
    blobs.append(QuantileSummary(np.array([1.0, 3.0]), np.array([2.0, 1.0])).to_bytes())
    return pd.DataFrame(
        {
            "source": "s",
            "bucket_us": np.int64(0),
            "cnt": [2, 2, 2, 3, 3, 3, 3],
            "sum_v": [3.0, 3.0, 3.0, 6.0, 6.0, 6.0, 6.0],
            "min_v": [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            "max_v": [2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0],
            "qsum": blobs,
        }
    ).iloc[: 7 if compacted else 6]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.permutations(list(range(7))), st.sampled_from([4096, 4]), st.booleans()
)
def test_merge_tied_rows_blob_bytes_order_free(perm, cap, compacted):
    """Rows tied on every stat but holding different blobs merge to the
    same bytes in any input order: the tie is broken by blob bytes."""
    from contest_parsing_ray.stages.rollup import _merge_partition

    rows = _tied_rows(compacted)
    perm = [i for i in perm if i < len(rows)]
    got = _merge_partition(rows.iloc[perm], "source", "bucket_us", cap, 0.95, True)
    want = _canonical_reference(rows, cap)[("s", 0)]
    assert got["qsum"].iloc[0] == want[1]
    assert _bits(got["p95_v"].iloc[0]) == _bits(want[0])


@st.composite
def _quantile_segments(draw):
    """Segments of 1-40 values laid out with gaps in one flat array: the
    values come from a small set (ties), NaN included, or are any finite
    float."""
    value = st.one_of(
        st.sampled_from([0.0, 1.0, 1.5, 2.0, 7.0, -3.25, 1e300, np.nan]),
        st.floats(allow_nan=False, allow_infinity=False).map(lambda x: x + 0.0),
    )
    segs = draw(st.lists(st.lists(value, min_size=1, max_size=40), min_size=1, max_size=8))
    flat, starts = [], []
    for seg in segs:
        flat += [99.0] * draw(st.integers(0, 3))  # values outside every segment
        starts.append(len(flat))
        flat += seg
    return (
        np.array(flat, dtype=np.float64),
        np.array(starts, dtype=np.int64),
        np.array([len(s) for s in segs], dtype=np.int64),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_quantile_segments(), st.sampled_from([0.0, 0.95, 1.0]))
@example(  # gamma = 0.5 at n = 11, where numpy's two lerp forms round apart
    (
        np.array([0.0] * 9 + [3.45584192064786, 8.216181435011583]),
        np.array([0]),
        np.array([11]),
    ),
    0.95,
)
def test_linear_quantiles_bit_equal_numpy(segments, q):
    """The merge's vectorized p95 equals ``np.quantile(seg, q)`` bit for
    bit on every segment: n = 1, ties, NaN in a segment, q at 0 and 1."""
    from contest_parsing_ray.stages.rollup import _linear_quantiles

    flat, starts, n = segments
    got = _linear_quantiles(flat, starts, n, q)
    want = np.array([np.quantile(flat[s : s + m], q) for s, m in zip(starts, n)])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
