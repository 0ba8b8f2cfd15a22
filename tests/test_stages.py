"""cumulative / gapfill / widen / tree / compress stage tests."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from contest_parsing_ray.functions.bucketing import bucket_us
from contest_parsing_ray.sources.ingest import read_sequences
from contest_parsing_ray.stages.cumulative import cumulative_counts, cumulative_distinct
from contest_parsing_ray.stages.gapfill import gapfill
from contest_parsing_ray.stages.rollup import rollup_tiers
from contest_parsing_ray.stages.tree import tree_depth_stats
from contest_parsing_ray.stages.widen import widen

W1M = 60_000_000


def test_cumulative_counts(sequences_dir):
    ds = read_sequences(sequences_dir, with_tokens=False)
    got = (
        cumulative_counts(ds, W1M, key_col="source")
        .to_pandas()
        .sort_values(["source", "bucket_us"])
        .reset_index(drop=True)
    )
    pdf = ds.to_pandas()
    pdf["bucket_us"] = bucket_us(pdf["event_time_us"].to_numpy(), W1M)
    want = (
        pdf.groupby(["source", "bucket_us"]).size().rename("cnt").reset_index()
        .sort_values(["source", "bucket_us"]).reset_index(drop=True)
    )
    want["running_cnt"] = want.groupby("source")["cnt"].cumsum()
    pd.testing.assert_frame_equal(
        got[["source", "bucket_us", "cnt", "running_cnt"]], want, check_dtype=False
    )


def test_cumulative_distinct(sequences_dir):
    ds = read_sequences(sequences_dir, with_tokens=False)
    # distinct n_tok values per source over time (any value col works)
    got = (
        cumulative_distinct(ds, W1M, key_col="source", value_col="n_tok")
        .to_pandas().sort_values(["source", "bucket_us"]).reset_index(drop=True)
    )
    pdf = ds.to_pandas()
    pdf["bucket_us"] = bucket_us(pdf["event_time_us"].to_numpy(), W1M)
    first = pdf.groupby(["source", "n_tok"])["bucket_us"].min().reset_index()
    want = (
        first.groupby(["source", "bucket_us"]).size().rename("new_distinct").reset_index()
        .sort_values(["source", "bucket_us"]).reset_index(drop=True)
    )
    want["running_distinct"] = want.groupby("source")["new_distinct"].cumsum()
    pd.testing.assert_frame_equal(
        got[["source", "bucket_us", "new_distinct", "running_distinct"]],
        want,
        check_dtype=False,
    )


def _small_rollup(sequences_dir):
    ds = read_sequences(sequences_dir, with_tokens=False)
    return rollup_tiers(ds, {"1m": W1M}, value_col="n_tok")["1m"]


def test_gapfill_locf(sequences_dir):
    r = _small_rollup(sequences_dir)
    filled = gapfill(r, W1M, mode="locf").to_pandas()
    for src, g in filled.groupby("source"):
        g = g.sort_values("bucket_us")
        # complete grid
        diffs = np.diff(g["bucket_us"].to_numpy())
        assert (diffs == W1M).all()
        # the generator leaves gap minutes -> some rows must be filled
        # (gap minutes 37-39 etc. are inside every source's range)
        assert g["filled"].any()
        # filled rows: cnt==0 and value carried from previous observed row
        f = g[g["filled"]]
        assert (f["cnt"] == 0).all()
        obs = g[~g["filled"]].set_index("bucket_us")
        for b, row in f.set_index("bucket_us").iterrows():
            prev_obs = obs.index[obs.index < b]
            assert len(prev_obs) > 0
            assert row["sum_v"] == obs.loc[prev_obs.max(), "sum_v"]


def test_gapfill_linear(sequences_dir):
    r = _small_rollup(sequences_dir)
    filled = gapfill(r, W1M, mode="linear").to_pandas()
    g = filled[filled["source"] == "web-crawl"].sort_values("bucket_us").reset_index(drop=True)
    f_idx = np.flatnonzero(g["filled"].to_numpy())
    assert len(f_idx) > 0
    # linear interpolation between the neighboring observed points
    i = f_idx[0]
    lo = i - 1
    hi = i
    while g["filled"].iloc[hi]:
        hi += 1
    frac = (g["bucket_us"].iloc[i] - g["bucket_us"].iloc[lo]) / (
        g["bucket_us"].iloc[hi] - g["bucket_us"].iloc[lo]
    )
    want = g["sum_v"].iloc[lo] + frac * (g["sum_v"].iloc[hi] - g["sum_v"].iloc[lo])
    assert abs(g["sum_v"].iloc[i] - want) < 1e-6


def test_widen(sequences_dir):
    r = _small_rollup(sequences_dir)
    wide = widen(r, value_cols=("cnt", "sum_v")).to_pandas()
    narrow = r.to_pandas()
    # one row per bucket
    assert wide["bucket_us"].is_unique
    assert len(wide) == narrow["bucket_us"].nunique()
    # spot-check a cell
    row = narrow.iloc[17]
    w = wide[wide["bucket_us"] == row["bucket_us"]].iloc[0]
    assert w[f"{row['source']}-cnt"] == row["cnt"]
    assert w[f"{row['source']}-sum_v"] == row["sum_v"]
    # every (source x agg) column exists
    sources = narrow["source"].unique()
    for s in sources:
        assert f"{s}-cnt" in wide.columns and f"{s}-sum_v" in wide.columns


def test_tree_depth_stats():
    #        a
    #      /   \
    #     b     c
    #    / \
    #   d   e
    spans = pd.DataFrame(
        {
            "trace_id": ["t1"] * 5 + ["t2"] * 2,
            "span_id": ["a", "b", "c", "d", "e", "x", "y"],
            "parent_id": [None, "a", "a", "b", "b", None, "x"],
        }
    )
    ds = ray.data.from_pandas(spans)
    out = tree_depth_stats(ds).to_pandas().set_index("span_id")
    # self depths
    assert out.loc["a", "self_depth"] == 0
    assert out.loc["b", "self_depth"] == 1
    assert out.loc["d", "self_depth"] == 2
    assert out.loc["y", "self_depth"] == 1
    # leaf-depth stats of a's subtree: leaves c(1), d(2), e(2)
    assert out.loc["a", "max_depth"] == 2
    assert out.loc["a", "min_depth"] == 1
    assert abs(out.loc["a", "mean_depth"] - 5 / 3) < 1e-9
    # b's subtree leaves: d,e at depth 2
    assert out.loc["b", "max_depth"] == 2 and out.loc["b", "min_depth"] == 2
    # leaf's stats are its own depth
    assert out.loc["c", "max_depth"] == 1 and out.loc["c", "min_depth"] == 1


def test_compress_roundtrip(sequences_dir):
    from contest_parsing_ray.stages.compress import compress_series, decompress_chunks

    r = _small_rollup(sequences_dir)
    chunks = compress_series(r, value_col="sum_v", chunk_points=64)
    back = decompress_chunks(chunks).to_pandas()
    orig = r.to_pandas()[["source", "bucket_us", "sum_v"]].rename(
        columns={"sum_v": "value"}
    )
    got = back.sort_values(["source", "bucket_us"]).reset_index(drop=True)
    want = orig.sort_values(["source", "bucket_us"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_read_range_prunes_and_trims(sequences_dir, tmp_path):
    """read_range returns exactly the in-window points, decoding only the
    chunks whose [t0, t_last] span overlaps the window."""
    import pyarrow.dataset as pads

    from contest_parsing_ray.stages.compress import compress_series, read_range

    r = _small_rollup(sequences_dir)
    d = str(tmp_path / "chunks")
    # small chunks: the window must prune whole chunks, not just rows
    compress_series(r, value_col="sum_v", chunk_points=16).write_parquet(d)

    orig = r.to_pandas()[["source", "bucket_us", "sum_v"]].rename(
        columns={"sum_v": "value"}
    )
    mn, mx = int(orig["bucket_us"].min()), int(orig["bucket_us"].max())
    lo = mn + (mx - mn) // 4
    hi = mn + 3 * (mx - mn) // 4

    got = read_range(d, lo, hi).to_pandas()
    want = orig[(orig["bucket_us"] >= lo) & (orig["bucket_us"] <= hi)]
    assert 0 < len(want) < len(orig)
    pd.testing.assert_frame_equal(
        got.sort_values(["source", "bucket_us"]).reset_index(drop=True),
        want.sort_values(["source", "bucket_us"]).reset_index(drop=True),
        check_dtype=False,
    )

    # the pushed-down filter skips non-overlapping chunks at the read
    all_chunks = pads.dataset(d).to_table()
    overlapping = ray.data.read_parquet(
        d, filter=(pads.field("t_last") >= lo) & (pads.field("t0") <= hi)
    ).count()
    assert overlapping < all_chunks.num_rows

    # full window = identity; disjoint window = empty
    full = read_range(d, mn, mx).to_pandas()
    assert len(full) == len(orig)
    assert read_range(d, mx + W1M, mx + 2 * W1M).count() == 0


_READ_RANGE_CHILD = """
import json, os, sys, threading
import ray
from ray.data import DataContext

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False
from contest_parsing_ray.stages.compress import read_range

d, lo, hi, limit = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])
out = {}

def run():
    df = read_range(d, lo, hi).to_pandas().sort_values(["source", "bucket_us"])
    out["rows"] = df[["source", "bucket_us", "value"]].values.tolist()

th = threading.Thread(target=run, daemon=True)
th.start()
th.join(limit)
print(json.dumps(out.get("rows")), flush=True)
if th.is_alive():
    # wedged: stop this session's processes; a plain shutdown would let the
    # stuck thread start a fresh session
    ray._private.worker._global_node.kill_all_processes(check_alive=False, wait=True)
else:
    ray.shutdown()
os._exit(0)
"""


def test_read_range_finishes_on_one_cpu_session(tmp_path):
    """read_range on a session with a single CPU: the decode must not hold
    that CPU between batches (an actor pool did, and the read never
    finished). Runs in a subprocess with its own num_cpus=1 Ray session;
    the child gives up after a deadline and reports None."""
    import json
    import os
    import subprocess
    import sys

    import pyarrow.parquet as pq

    from contest_parsing_ray.stages.compress import encode_chunk

    rows, want = [], []
    for src in ("a", "b"):
        ts = np.arange(100, dtype=np.int64) * W1M
        vals = np.arange(100, dtype=np.float64) * 1.5
        for ci, lo in enumerate(range(0, 100, 16)):
            c = encode_chunk(ts[lo : lo + 16], vals[lo : lo + 16])
            c["source"] = src
            c["chunk_id"] = np.int64(ci)
            rows.append(c)
        want += [[src, int(t), float(v)] for t, v in zip(ts, vals) if 20 * W1M <= t <= 60 * W1M]
    d = tmp_path / "chunks"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False),
                   str(d / "chunks-0000.parquet"))

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", _READ_RANGE_CHILD, str(d), str(20 * W1M),
         str(60 * W1M), "90"],
        env=env, capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got is not None, "read_range did not finish on a num_cpus=1 session"
    assert got == want


def test_compress_bitstream_unit():
    from contest_parsing_ray.stages.compress import (
        decode_timestamps,
        decode_values,
        encode_timestamps,
        encode_values,
    )

    rng = np.random.default_rng(3)
    # regular grid with a few irregularities + extreme dod
    ts = np.cumsum(
        np.concatenate([[1_657_000_000_000_000], rng.choice([60_000_000] * 8 + [1, 10**12], size=500)])
    ).astype(np.int64)
    np.testing.assert_array_equal(decode_timestamps(encode_timestamps(ts), len(ts)), ts)

    vals = np.concatenate(
        [rng.normal(100, 5, 200), np.repeat(7.25, 50), [0.0, -0.0, np.inf, -np.inf], rng.pareto(1.1, 100)]
    )
    got = decode_values(encode_values(vals), len(vals))
    np.testing.assert_array_equal(got.view(np.uint64), vals.view(np.uint64))


def test_vectorized_encoders_bit_identical_to_scalar_spec():
    """The vectorized encoders must produce byte-for-byte the same stream
    as the readable per-point spec implementations."""
    from contest_parsing_ray.stages.compress import (
        _encode_timestamps_scalar,
        _encode_values_scalar,
        encode_timestamps,
        encode_values,
    )

    rng = np.random.default_rng(17)
    ts_cases = [
        np.arange(0, 60_000_000 * 300, 60_000_000, dtype=np.int64),  # regular
        np.cumsum(rng.integers(50, 70, 2000)).astype(np.int64),  # jitter
        np.cumsum(rng.integers(0, 2**40, 500)).astype(np.int64),  # wild
        np.array([5], dtype=np.int64),
        np.array([5, -3], dtype=np.int64),
        np.array([0, 2**55, -2**55, 17], dtype=np.int64),
        np.sort(rng.integers(-(2**60), 2**60, 1000)).astype(np.int64),
    ]
    for k, ts in enumerate(ts_cases):
        assert encode_timestamps(ts) == _encode_timestamps_scalar(ts), k

    val_cases = [
        rng.normal(100, 10, 2000),
        np.repeat(rng.normal(0, 1, 20), 100),  # zero-XOR runs
        rng.integers(0, 1000, 1000).astype(float),
        np.array([1.5]),
        np.array([0.0, 0.0, 0.0]),
        np.array([1.0, -1.0, np.inf, -np.inf, np.nan, 1e-300, 1e300]),
        np.full(500, 3.14159),
        rng.pareto(1.1, 500),  # frequent window resets
    ]
    for k, vals in enumerate(val_cases):
        assert encode_values(vals) == _encode_values_scalar(vals), k


def test_encoder_bit_identity_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from contest_parsing_ray.stages.compress import (
        _encode_timestamps_scalar,
        _encode_values_scalar,
        decode_timestamps,
        decode_values,
        encode_timestamps,
        encode_values,
    )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=-(2**55), max_value=2**55),
            min_size=1,
            max_size=200,
        )
    )
    def ts_prop(xs):
        ts = np.array(xs, dtype=np.int64)
        enc = encode_timestamps(ts)
        assert enc == _encode_timestamps_scalar(ts)
        np.testing.assert_array_equal(decode_timestamps(enc, len(ts)), ts)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, width=64) | st.sampled_from([0.0, -0.0, 1.5]),
            min_size=1,
            max_size=200,
        )
    )
    def val_prop(xs):
        vals = np.array(xs, dtype=np.float64)
        enc = encode_values(vals)
        assert enc == _encode_values_scalar(vals)
        np.testing.assert_array_equal(
            decode_values(enc, len(vals)).view(np.uint64), vals.view(np.uint64)
        )

    ts_prop()
    val_prop()


def test_cohort_retention_matches_duckdb():
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data

    from contest_parsing_ray.stages.cumulative import cohort_retention

    rng = np.random.default_rng(37)
    n = 3000
    W = 100
    df = pd.DataFrame({
        "u": rng.choice([f"u{i}" for i in range(150)], n),
        "t": rng.integers(0, 1000, n).astype(np.int64),
    })
    df.loc[rng.integers(0, n, 20), "u"] = None  # null users dropped
    out = cohort_retention(
        ray.data.from_pandas(df).repartition(7), "u", "t", W
    ).to_pandas()
    got = {(r.cohort_us, r.bucket_us): r.n_users for r in out.itertuples()}
    con = duckdb.connect()
    con.register("s", df)
    want = {}
    for c, b, nn in con.execute(f"""
WITH p AS (
  SELECT DISTINCT u, (t // {W}) * {W} AS bucket_us
  FROM s WHERE u IS NOT NULL
), f AS (
  SELECT u, MIN(bucket_us) AS cohort_us FROM p GROUP BY u
)
SELECT f.cohort_us, p.bucket_us, CAST(COUNT(DISTINCT p.u) AS BIGINT)
FROM p JOIN f USING (u) GROUP BY 1, 2""").fetchall():
        want[(c, b)] = nn
    assert got == want
    # diagonal sanity: every cohort is fully present in its own period
    firsts = {c: v for (c, b), v in want.items() if b == c}
    assert all(got[(c, c)] == v for c, v in firsts.items())


def test_key_mix_entropy_matches_duckdb():
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data

    from contest_parsing_ray.stages.histogram import key_mix_entropy

    rng = np.random.default_rng(43)
    n = 2500
    df = pd.DataFrame({
        "u": rng.choice([f"u{i}" for i in range(60)], n),
        "c": rng.choice(["a", "b", "c", "d"], n, p=[0.5, 0.3, 0.15, 0.05]),
    })
    df.loc[:20, "c"] = "a"  # make at least one heavily-skewed user likely
    df = pd.concat([df, pd.DataFrame(
        {"u": ["mono"] * 5, "c": ["a"] * 5})], ignore_index=True)
    out = key_mix_entropy(
        ray.data.from_pandas(df).repartition(6), "u", "c"
    ).to_pandas().set_index("u").sort_index()
    con = duckdb.connect()
    con.register("s", df)
    want = con.execute("""
WITH g AS (
  SELECT u, c, CAST(COUNT(*) AS DOUBLE) AS cnt
  FROM s WHERE u IS NOT NULL AND c IS NOT NULL GROUP BY 1, 2
), a AS (
  SELECT u, SUM(cnt) AS n, COUNT(*) AS k, SUM(cnt * ln(cnt)) AS clnc
  FROM g GROUP BY 1
)
SELECT u, CAST(n AS BIGINT) AS n_events, CAST(k AS BIGINT) AS n_cats,
       CASE WHEN k = 1 THEN 0.0
            ELSE GREATEST(ln(n) - clnc / n, 0.0) END AS entropy
FROM a ORDER BY u""").df().set_index("u").sort_index()
    assert (out["n_events"] == want["n_events"]).all()
    assert (out["n_cats"] == want["n_cats"]).all()
    assert np.allclose(out["entropy"], want["entropy"], atol=1e-9)
    assert out.loc["mono", "entropy"] == 0.0


def test_sliding_distinct_matches_duckdb():
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data

    from contest_parsing_ray.stages.cumulative import sliding_distinct

    rng = np.random.default_rng(47)
    n = 4000
    W, WIN = 100, 24
    df = pd.DataFrame({
        "u": rng.choice([f"u{i}" for i in range(80)], n),
        "t": rng.integers(0, 20_000, n).astype(np.int64),
    })
    df.loc[rng.integers(0, n, 25), "u"] = None
    out = sliding_distinct(
        ray.data.from_pandas(df).repartition(7), "u", "t", W, WIN
    ).to_pandas()
    got = dict(zip(out["bucket_us"], out["n_active"]))
    con = duckdb.connect()
    con.register("s", df)
    want = dict(con.execute(f"""
WITH p AS (
  SELECT DISTINCT u, (t // {W}) * {W} AS b
  FROM s WHERE u IS NOT NULL
), grid AS (SELECT DISTINCT (t // {W}) * {W} AS b FROM s)
SELECT g.b, CAST(COUNT(DISTINCT p.u) AS BIGINT)
FROM grid g LEFT JOIN p ON p.b BETWEEN g.b - {(WIN - 1) * W} AND g.b
GROUP BY 1""").fetchall())
    assert got == want


def test_growth_accounting_matches_duckdb():
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data

    from contest_parsing_ray.stages.cumulative import growth_accounting

    rng = np.random.default_rng(53)
    n = 3000
    W = 100
    df = pd.DataFrame({
        "u": rng.choice([f"u{i}" for i in range(70)], n),
        "t": rng.integers(0, 3000, n).astype(np.int64),
    })
    df.loc[rng.integers(0, n, 15), "u"] = None
    out = growth_accounting(
        ray.data.from_pandas(df).repartition(7), "u", "t", W
    ).to_pandas().set_index("bucket_us")
    con = duckdb.connect()
    con.register("s", df)
    want = con.execute(f"""
WITH p AS (
  SELECT DISTINCT u, (t // {W}) * {W} AS b FROM s WHERE u IS NOT NULL
), f AS (SELECT u, MIN(b) AS first_b FROM p GROUP BY u),
grid AS (SELECT DISTINCT (t // {W}) * {W} AS b FROM s)
SELECT g.b AS bucket_us,
  CAST(COALESCE(SUM(CASE WHEN p.b = f.first_b THEN 1 END), 0) AS BIGINT)
    AS n_new,
  CAST(COALESCE(SUM(CASE WHEN p.b > f.first_b AND pr.u IS NOT NULL
                     THEN 1 END), 0) AS BIGINT) AS n_retained,
  CAST(COALESCE(SUM(CASE WHEN p.b > f.first_b AND pr.u IS NULL
                     THEN 1 END), 0) AS BIGINT) AS n_resurrected,
  CAST((SELECT COUNT(*) FROM p q
        WHERE q.b = g.b - {W}
          AND NOT EXISTS (SELECT 1 FROM p r
                          WHERE r.u = q.u AND r.b = g.b)) AS BIGINT)
    AS n_churned
FROM grid g
LEFT JOIN p ON p.b = g.b
LEFT JOIN f ON f.u = p.u
LEFT JOIN p pr ON pr.u = p.u AND pr.b = p.b - {W}
GROUP BY g.b ORDER BY g.b""").df().set_index("bucket_us")
    pd.testing.assert_frame_equal(out.sort_index(), want.sort_index(),
                                  check_dtype=False)


def test_funnel_matches_duckdb():
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data

    from contest_parsing_ray.stages.cumulative import funnel

    rng = np.random.default_rng(59)
    n = 4000
    df = pd.DataFrame({
        "u": rng.choice([f"u{i}" for i in range(120)], n),
        "c": rng.choice(["signup", "click", "purchase", "view"], n),
        "t": rng.integers(0, 100_000, n).astype(np.int64),
    })
    # a user who purchases BEFORE clicking must not count as step 3
    df = pd.concat([df, pd.DataFrame({
        "u": ["order_matters"] * 3,
        "c": ["purchase", "signup", "click"],
        "t": [10, 20, 30],
    })], ignore_index=True)
    out = funnel(
        ray.data.from_pandas(df).repartition(7), "u", "t", "c",
        ["signup", "click", "purchase"],
    ).to_pandas()
    got = dict(zip(out["step"], out["n_users"]))
    con = duckdb.connect()
    con.register("s", df)
    want = con.execute("""
WITH s1 AS (
  SELECT u, MIN(t) AS t1 FROM s WHERE c = 'signup' GROUP BY u
), s2 AS (
  SELECT e.u, MIN(e.t) AS t2 FROM s e JOIN s1 USING (u)
  WHERE e.c = 'click' AND e.t > s1.t1 GROUP BY e.u
), s3 AS (
  SELECT e.u, MIN(e.t) AS t3 FROM s e JOIN s2 USING (u)
  WHERE e.c = 'purchase' AND e.t > s2.t2 GROUP BY e.u
)
SELECT (SELECT COUNT(*) FROM s1), (SELECT COUNT(*) FROM s2),
       (SELECT COUNT(*) FROM s3)""").fetchone()
    assert (got[1], got[2], got[3]) == want
    assert got[1] >= got[2] >= got[3] > 0


def test_transition_matrix_matches_duckdb():
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data

    from contest_parsing_ray.stages.cumulative import transition_matrix

    rng = np.random.default_rng(61)
    n = 3000
    df = pd.DataFrame({
        "u": rng.choice([f"u{i}" for i in range(50)], n),
        "c": rng.choice(["a", "b", "c"], n),
        "t": rng.integers(0, 50_000, n).astype(np.int64),
        "rid": np.arange(n, dtype=np.int64),
    })
    out = transition_matrix(
        ray.data.from_pandas(df).repartition(6), "u", "t", "c", "rid"
    ).to_pandas()
    got = {(r.from_type, r.to_type): (r.cnt, round(r.p, 9))
           for r in out.itertuples()}
    con = duckdb.connect()
    con.register("s", df)
    want = {}
    for f, t_, c, p in con.execute("""
WITH q AS (
  SELECT u, c, LAG(c) OVER (PARTITION BY u ORDER BY t, rid) AS prev
  FROM s
), g AS (
  SELECT prev AS from_type, c AS to_type, CAST(COUNT(*) AS BIGINT) AS cnt
  FROM q WHERE prev IS NOT NULL GROUP BY 1, 2
)
SELECT from_type, to_type, cnt,
       ROUND(cnt * 1.0 / SUM(cnt) OVER (PARTITION BY from_type), 9) AS p
FROM g""").fetchall():
        want[(f, t_)] = (c, p)
    assert got == want


def test_profile_columns_handcrafted():
    import numpy as np
    import pyarrow as pa
    import ray.data

    from contest_parsing_ray.stages.histogram import profile_columns

    t = pa.table({
        "i": pa.array([3, None, 1, 7], pa.int64()),
        "s": pa.array(["a", None, None, "b"]),
        "f": pa.array([1.5, 2.5, None, -4.0], pa.float64()),
    })
    out = profile_columns(
        ray.data.from_arrow(t).repartition(3), batch_size=2
    ).to_pylist()
    rows = {r["column"]: r for r in out}
    assert rows["i"] == {"column": "i", "n": 4, "n_null": 1,
                         "min_v": 1.0, "max_v": 7.0}
    assert rows["s"]["n_null"] == 2 and rows["s"]["min_v"] is None
    assert rows["f"]["min_v"] == -4.0 and rows["f"]["max_v"] == 2.5


def test_activity_gini_matches_duckdb():
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data

    from contest_parsing_ray.stages.histogram import activity_gini

    rng = np.random.default_rng(79)
    n = 3000
    W = 1000
    df = pd.DataFrame({
        "u": rng.choice([f"u{i}" for i in range(40)], n,
                        p=np.linspace(1, 10, 40) / np.linspace(1, 10, 40).sum()),
        "t": rng.integers(0, 10_000, n).astype(np.int64),
    })
    df.loc[rng.integers(0, n, 10), "u"] = None
    out = activity_gini(
        ray.data.from_pandas(df).repartition(6), "t", "u", W
    ).to_pandas().set_index("bucket_us").sort_index()
    con = duckdb.connect()
    con.register("s", df)
    want = con.execute(f"""
WITH c AS (
  SELECT (t // {W}) * {W} AS b, u, CAST(COUNT(*) AS BIGINT) AS cnt
  FROM s WHERE u IS NOT NULL GROUP BY 1, 2
), r AS (
  SELECT b, cnt,
         ROW_NUMBER() OVER (PARTITION BY b ORDER BY cnt, u) AS i
  FROM c
)
SELECT b, CAST(COUNT(*) AS BIGINT) AS n_entities,
       2.0 * SUM(i * cnt) / (COUNT(*) * SUM(cnt))
         - (COUNT(*) + 1.0) / COUNT(*) AS gini
FROM r GROUP BY b ORDER BY b""").df().set_index("b").sort_index()
    assert (out["n_entities"] == want["n_entities"]).all()
    assert np.allclose(out["gini"], want["gini"], atol=1e-12)
    # uniform case: gini exactly 0
    u = pd.DataFrame({"u": ["a", "b", "c"], "t": [0, 1, 2]})
    g0 = activity_gini(ray.data.from_pandas(u), "t", "u", 1000).to_pandas()
    assert g0["gini"].iloc[0] == 0.0


def test_transition_matrix_null_type_is_a_state():
    """A null event type is its own Markov state (docstring contract) —
    previously crashed in the driver fold on str/None ordering."""
    import pyarrow as pa2

    from contest_parsing_ray.stages.cumulative import transition_matrix

    df = pd.DataFrame({
        "u": [1, 1, 1, 2, 2],
        "ts": [1, 2, 3, 1, 2],
        "et": ["a", None, "b", "a", "b"],
        "eid": [1, 2, 3, 4, 5],
    })
    out = transition_matrix(
        ray.data.from_pandas(df), user_col="u", ts_col="ts",
        type_col="et", order_col="eid",
    ).to_pandas()
    # u1: a->NULL, NULL->b; u2: a->b
    trans = {(f if isinstance(f, str) else None,
              t if isinstance(t, str) else None): c
             for f, t, c in zip(out["from_type"], out["to_type"], out["cnt"])}
    assert trans[("a", None)] == 1
    assert trans[(None, "b")] == 1
    assert trans[("a", "b")] == 1


MASK64 = (1 << 64) - 1


def _checksum_row_loop(rows) -> list[int]:
    out = []
    for toks in rows:
        ck = 0
        for i, t in enumerate(toks):
            ck += (i + 1) * (t + 1)
        out.append(ck & MASK64)
    return out


def test_token_checksum_matches_row_loop_property():
    """token_checksum == a plain row loop of sum((i+1)*(t_i+1)) mod 2^64 on
    drawn list<int32> columns: empty rows, int32 extremes and negative
    tokens, sliced chunks (non-zero offset) and multi-chunk columns."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from contest_parsing_ray.sources.ingest import token_checksum

    typ = pa.list_(pa.int32())
    tok = st.integers(-(2**31), 2**31 - 1) | st.sampled_from(
        [-(2**31), 2**31 - 1, -1, 0]
    )
    chunk = st.tuples(
        st.lists(st.lists(tok, max_size=12), max_size=10),
        st.integers(0, 10),
        st.integers(0, 10),
    )

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(chunk, max_size=4))
    def prop(chunks):
        arrays, rows = [], []
        for rws, lo, n in chunks:
            lo = min(lo, len(rws))
            n = min(n, len(rws) - lo)
            arrays.append(pa.array(rws, typ).slice(lo, n))
            rows += rws[lo : lo + n]
        batch = pa.table({"tokens": pa.chunked_array(arrays, typ)})
        got = token_checksum(batch)["token_ck"].to_numpy().view(np.uint64)
        assert got.tolist() == _checksum_row_loop(rows)

    prop()


def test_token_checksum_null_row_raises():
    """A null token list has no checksum: the kernel raises, as the
    position-array kernel it replaced did (on a negative repeat count)."""
    import pytest

    from contest_parsing_ray.sources.ingest import token_checksum

    for rows in ([[1, 2], None, [3]], [None], [[5], None]):
        with pytest.raises(ValueError):
            token_checksum(pa.table({"tokens": pa.array(rows, pa.list_(pa.int32()))}))
