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
    """Above the cap a group's state is gridded: 20 partial states of a
    heavy-tailed sample merge into one state much smaller than the sample,
    and its p95 is within the grid's relative error of the exact p95."""
    from contest_parsing_ray.state import sketches

    rng = np.random.default_rng(7)
    vals = rng.pareto(1.5, size=200_000) * 100
    parts = [
        sketches.merge_pairs(
            np.zeros(10_000, dtype=np.int64), vals[i : i + 10_000],
            np.ones(10_000, dtype=np.int64), np.zeros(1, dtype=bool), 1024,
        )
        for i in range(0, len(vals), 10_000)
    ]
    assert all(p[1][0] for p in parts)  # every part is gridded alone
    n, gridded, v, c = sketches.merge_pairs(
        np.zeros(sum(len(p[2]) for p in parts), dtype=np.int64),
        np.concatenate([p[2] for p in parts]),
        np.concatenate([p[3] for p in parts]),
        np.ones(1, dtype=bool),
        1024,
    )
    assert gridded[0] and c.sum() == len(vals) and n[0] < 2_000
    approx = sketches.linear_quantiles(n, v, c, 0.95)[0]
    exact = float(np.quantile(vals, 0.95))
    assert abs(approx - exact) / exact <= 2.0 ** -(sketches.GRID_BITS + 1)


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
            "qsum": _state_blob(vals, cap),
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


def _grid_ref(x: float) -> float:
    """One value's grid cell midpoint, in scalar Python: the binary
    exponent and the top GRID_BITS mantissa bits kept."""
    import math

    from contest_parsing_ray.state.sketches import GRID_BITS

    a = abs(x)
    if a < np.finfo(np.float64).tiny:
        return 0.0
    if math.isinf(a):
        return x
    m, e = math.frexp(a)
    scale = 2 ** (GRID_BITS + 1)
    return math.copysign(math.ldexp((math.floor(m * scale) + 0.5) / scale, e), x)


def _state_blob(vals, cap, gridded=False) -> bytes:
    """One group's state blob from its values, by the documented layout:
    int64 n, int64 flag (2 exact, 3 gridded), n float64 values ascending,
    n int32 counts; gridded past ``cap`` distinct values (or when asked)."""
    import struct

    vals = np.asarray(vals, dtype=np.float64) + 0.0
    gridded = gridded or len(np.unique(vals)) > cap
    if gridded:
        vals = np.array([_grid_ref(x) for x in vals.tolist()]) + 0.0
    u, c = np.unique(vals, return_counts=True)
    return (
        struct.pack("<qq", len(u), 3 if gridded else 2)
        + u.astype("<f8").tobytes()
        + c.astype("<i4").tobytes()
    )


def _blob_values(blob: bytes) -> tuple[np.ndarray, bool]:
    """A state blob's values, each repeated by its count, and its flag."""
    n, flag = np.frombuffer(blob[:16], dtype="<i8")
    v = np.frombuffer(blob[16 : 16 + 8 * n], dtype="<f8")
    c = np.frombuffer(blob[16 + 8 * n :], dtype="<i4")
    assert len(c) == n and flag in (2, 3)
    return np.repeat(v, c), flag == 3


def _canonical_reference(rows, cap, p=0.95):
    """Per (key, bucket) group: the state of the union of its blobs'
    multisets, gridded when any blob is or past ``cap`` distinct values,
    and the p95 of the (gridded) multiset by ``np.quantile``."""
    out = {}
    for (k, b), g in rows.groupby(["source", "bucket_us"]):
        parts = [_blob_values(x) for x in g["qsum"]]
        vals = np.concatenate([v for v, _ in parts])
        blob = _state_blob(vals, cap, any(f for _, f in parts))
        out[(k, b)] = (float(np.quantile(_blob_values(blob)[0], p)), blob)
    return out


def test_merge_mixed_exact_and_compacted_blobs_equals_merge_all(sequences_dir):
    """The append's merge input: stored state (gridded blobs where a
    group passed the cap, exact ones elsewhere) followed by fresh exact
    partials. Every group's p95 bits and blob bytes equal those of the
    union of its blobs' multisets (:func:`_canonical_reference`)."""
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
    return int(np.frombuffer(blob[8:16], dtype=np.int64)[0]) == 2


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def _tied_rows(gridded: bool):
    """Rows of one group tied on every stat, with different blobs (the
    last one gridded)."""
    blobs = [
        _state_blob(v, 4096)
        for v in ([1, 2], [2, 2], [1, 1], [1, 2, 3], [3, 1, 3], [2, 2, 2])
    ]
    blobs.append(_state_blob([1.0, 1.0, 3.0], 4096, gridded=True))
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
    ).iloc[: 7 if gridded else 6]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.permutations(list(range(7))), st.sampled_from([4096, 4]), st.booleans()
)
def test_merge_tied_rows_blob_bytes_order_free(perm, cap, gridded):
    """Rows tied on every stat but holding different blobs merge to the
    same bytes in any input order: the merged state is the union of the
    blobs' multisets, with no row order in it."""
    from contest_parsing_ray.stages.rollup import _merge_partition

    rows = _tied_rows(gridded)
    perm = [i for i in perm if i < len(rows)]
    got = _merge_partition(rows.iloc[perm], "source", "bucket_us", cap, 0.95, True)
    want = _canonical_reference(rows, cap)[("s", 0)]
    assert got["qsum"].iloc[0] == want[1]
    assert _bits(got["p95_v"].iloc[0]) == _bits(want[0])


@st.composite
def _quantile_groups(draw):
    """1-8 groups of 1-40 values: from a small set (ties) or any finite
    float (zero as +0.0, as the state stores it)."""
    value = st.one_of(
        st.sampled_from([0.0, 1.0, 1.5, 2.0, 7.0, -3.25, 1e300]),
        st.floats(allow_nan=False, allow_infinity=False).map(lambda x: x + 0.0),
    )
    return draw(st.lists(st.lists(value, min_size=1, max_size=40), min_size=1, max_size=8))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_quantile_groups(), st.sampled_from([0.0, 0.95, 1.0]))
@example(  # gamma = 0.5 at n = 11, where numpy's two lerp forms round apart
    [[0.0] * 9 + [3.45584192064786, 8.216181435011583]], 0.95
)
def test_linear_quantiles_bit_equal_numpy(groups, q):
    """p95 read off each group's merged (value, count) pairs equals
    ``np.quantile`` of its values bit for bit: n = 1, ties, q at 0 and 1,
    the values arriving shuffled across the groups."""
    from contest_parsing_ray.state import sketches

    g = np.repeat(np.arange(len(groups)), [len(x) for x in groups])
    v = np.concatenate([np.array(x, dtype=np.float64) for x in groups])
    perm = np.random.default_rng(len(v)).permutation(len(v))
    n, gridded, pv, pc = sketches.merge_pairs(
        g[perm], v[perm], np.ones(len(v), dtype=np.int64),
        np.zeros(len(groups), dtype=bool), 4096,
    )
    assert not gridded.any()
    got = sketches.linear_quantiles(n, pv, pc, q)
    want = np.array([np.quantile(x, q) for x in groups])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@st.composite
def _split_multiset(draw):
    """A multiset of values split into 1-6 parts in random order, and how
    many of the parts merge first (a stored state an append merges the
    rest into)."""
    value = st.one_of(
        st.integers(-6, 40).map(float),
        st.sampled_from([0.5, -0.0, 3.3, 1e300, -1e-310, 2.5e-308]),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    vals = draw(st.lists(value, min_size=1, max_size=60))
    perm = draw(st.permutations(range(len(vals))))
    cuts = draw(
        st.lists(st.integers(1, max(1, len(vals) - 1)), max_size=5, unique=True)
    )
    parts = np.split(np.array(vals)[perm], sorted(c for c in cuts if c < len(vals)))
    first = draw(st.integers(1, len(parts)))
    return vals, parts, first


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_split_multiset(), st.sampled_from([1, 4, 4096]))
def test_state_bytes_independent_of_split_and_merge_order(case, cap):
    """Whatever the split of a multiset into partials and the order and
    stages of the merge, its state is the same bytes: those of the
    multiset's own state, exact (p95 bit-equal to ``np.quantile``) up to
    ``cap`` distinct values and gridded past it, where every stored value
    is a fixed point of the grid and re-merging the state changes
    nothing."""
    import pyarrow as pa

    from contest_parsing_ray.stages.rollup import PartialRollup, _merge_partition
    from contest_parsing_ray.state import sketches

    vals, parts, first = case
    # a tier named "us" emits its bucket as bucket_us
    partial = PartialRollup({"us": 60_000_000}, "v", "key", "ts", cap)
    rows = [
        partial(pa.table({
            "key": ["s"] * len(p),
            "ts": np.zeros(len(p), dtype=np.int64),
            "v": p.astype(np.float64),
        })).to_pandas().rename(columns={"key": "source"})
        for p in parts
    ]

    def merge(df):
        return _merge_partition(df, "source", "bucket_us", cap, 0.95, True)

    stored = merge(pd.concat(rows[:first], ignore_index=True))
    got = merge(pd.concat([stored.drop(columns=["p95_v"]), *rows[first:]],
                          ignore_index=True))
    want = _state_blob(vals, cap)
    assert got["qsum"].iloc[0] == want
    expanded, gridded = _blob_values(want)
    assert gridded == (len(np.unique(np.array(vals) + 0.0)) > cap)
    if gridded:
        u = np.unique(expanded)
        assert sketches.grid_values(u).tolist() == u.tolist()
        assert merge(got.drop(columns=["p95_v"]))["qsum"].iloc[0] == want
    else:
        want_p95 = np.quantile(np.array(vals) + 0.0, 0.95)
        assert _bits(got["p95_v"].iloc[0]) == _bits(want_p95)


@pytest.mark.parametrize("n_values", [0, 1, 3, 5, 6, 100])
def test_blobs_round_trip_and_older_raw_value_blobs_raise(n_values):
    """A blob column decodes to the pairs it was encoded from, also when
    sliced; a raw-value blob (int64 n, int64 flag 1, then the n values:
    the format before (value, count) pairs) raises ``ValueError`` instead
    of decoding as something else."""
    import struct

    import pyarrow as pa

    from contest_parsing_ray.state import sketches

    vals = np.arange(n_values, dtype=np.float64) * 1.5
    blob = _state_blob(vals, 4096)
    col = pa.array([_state_blob([2.0], 4096), blob, blob], type=pa.binary())[1:]
    n, gridded, v, c = sketches.from_blobs(col)
    assert n.tolist() == [n_values] * 2 and not gridded.any()
    assert v.tolist() == vals.tolist() * 2 and c.tolist() == [1] * 2 * n_values
    assert sketches.to_blobs(n, gridded, v, c).equals(col)
    old = struct.pack("<qq", n_values, 1) + vals.astype("<f8").tobytes()
    with pytest.raises(ValueError, match="pair format"):
        sketches.from_blobs(pa.array([blob, old], type=pa.binary()))
    assert [len(x) for x in sketches.from_blobs(pa.array([], type=pa.binary()))] == [0] * 4
