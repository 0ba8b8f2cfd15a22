"""exact_quantiles: distributed order statistics by histogram refinement.

Oracle is DuckDB ``quantile_disc`` (= sorted[ceil(q*n)-1], verified
formula-identical including the float-ceil edge) plus a direct numpy sort.
max_candidates is forced tiny so the multi-pass refinement loop — not just
the final collect — is what's under test.
"""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import ray.data
from hypothesis import given, settings
from hypothesis import strategies as st

from contest_parsing_ray.stages.quantiles import (
    _order_key,
    exact_quantiles,
    exact_quantiles_by_key,
)

QS = [0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0]


def _oracle(vals: np.ndarray, qs) -> dict[float, float]:
    v = vals[~np.isnan(vals)]
    s = np.sort(v)
    n = len(s)
    # DuckDB quantile_disc: float ceil(q*n), 1-based (pinned empirically)
    return {q: float(s[max(0, int(-(-q * n // 1)) - 1)]) for q in qs}


def _run(vals: np.ndarray, qs=QS, max_candidates=16) -> dict[float, float]:
    ds = ray.data.from_arrow(
        pa.table({"value": pa.array(vals, pa.float64(), from_pandas=True)})
    ).repartition(7)
    t = exact_quantiles(ds, "value", qs, max_candidates=max_candidates,
                        batch_size=37)
    return dict(zip(t["q"].to_pylist(), t["value"].to_pylist()))


def test_order_key_is_monotone():
    v = np.array([-np.inf, -1e300, -2.5, -1e-300, -0.0, 0.0, 1e-300, 2.5,
                  1e300, np.inf])
    k = _order_key(v)
    assert (np.diff(k.astype(object)) >= 0).all()
    # strict except the -0.0/+0.0 pair, which must stay adjacent
    assert k[4] != k[5] and abs(int(k[5]) - int(k[4])) == 1


def test_matches_sort_oracle_multi_pass():
    rng = np.random.default_rng(7)
    vals = np.concatenate([
        rng.normal(0, 1, 4000),
        rng.normal(-50, 0.01, 500),       # tight negative cluster
        np.full(300, 3.25),               # heavy duplicates
        rng.uniform(1e8, 1e9, 200),
    ])
    got = _run(vals)                      # max_candidates=16 << n: refines
    want = _oracle(vals, QS)
    assert got == want


def test_matches_duckdb_with_nulls_and_nans():
    rng = np.random.default_rng(11)
    vals = rng.normal(size=997)
    vals[rng.integers(0, 997, 60)] = np.nan  # engine drops NaN like SQL NULL
    got = _run(vals, qs=[0.25, 0.5, 0.95])
    con = duckdb.connect()
    con.execute(
        "CREATE TABLE t AS SELECT unnest(?) AS value",
        [[None if np.isnan(x) else float(x) for x in vals]],
    )
    for q in [0.25, 0.5, 0.95]:
        d = con.execute(f"SELECT quantile_disc(value, {q}) FROM t").fetchone()[0]
        assert got[q] == d


def test_all_null_column_returns_nulls():
    t_in = np.full(50, np.nan)
    ds = ray.data.from_arrow(
        pa.table({"value": pa.array(t_in, pa.float64(), from_pandas=True)})
    )
    t = exact_quantiles(ds, "value", [0.5, 0.9])
    assert t["value"].null_count == 2 and t.num_rows == 2


def test_single_value_and_tiny_n():
    assert _run(np.array([42.0]), qs=[0.01, 0.5, 1.0]) == {
        0.01: 42.0, 0.5: 42.0, 1.0: 42.0}
    vals = np.array([5.0, -3.0, 5.0])
    assert _run(vals, qs=[0.5, 1.0], max_candidates=1) == _oracle(
        vals, [0.5, 1.0])


def test_large_collect_path_equals_refined_path():
    rng = np.random.default_rng(3)
    vals = rng.exponential(5.0, 3000)
    fast = _run(vals, max_candidates=1_000_000)  # first-pass collect
    slow = _run(vals, max_candidates=8)          # deep refinement
    assert fast == slow == _oracle(vals, QS)


def _run_keyed(keys, vals, qs=(0.25, 0.5, 0.95), max_candidates=16):
    from contest_parsing_ray.stages.quantiles import exact_quantiles_by_key

    ds = ray.data.from_arrow(
        pa.table({
            "k": pa.array(keys),
            "value": pa.array(vals, pa.float64(), from_pandas=True),
        })
    ).repartition(5)
    t = exact_quantiles_by_key(ds, "k", "value", list(qs),
                               max_candidates=max_candidates, batch_size=29)
    return {(k, q): v for k, q, v in zip(t["k"].to_pylist(),
                                         t["q"].to_pylist(),
                                         t["value"].to_pylist())}


def test_keyed_matches_duckdb_group_by():
    rng = np.random.default_rng(5)
    n = 1500
    keys = rng.choice(["a", "b", "c", None], n, p=[0.5, 0.3, 0.1, 0.1]).tolist()
    vals = rng.normal(size=n)
    vals[rng.integers(0, n, 40)] = np.nan
    # one group whose values are ALL null: must still emit NULL quantiles
    keys += ["empty"] * 7
    vals = np.concatenate([vals, np.full(7, np.nan)])
    got = _run_keyed(keys, vals)
    con = duckdb.connect()
    con.execute(
        "CREATE TABLE t AS SELECT unnest(?) AS k, unnest(?) AS value",
        [keys, [None if np.isnan(x) else float(x) for x in vals]],
    )
    want = {}
    for q in (0.25, 0.5, 0.95):
        for k, v in con.execute(
            f"SELECT k, quantile_disc(value, {q}) FROM t GROUP BY k"
        ).fetchall():
            want[(k, q)] = v
    assert got == want


def test_keyed_single_key_equals_global():
    rng = np.random.default_rng(9)
    vals = rng.exponential(2.0, 800)
    keyed = _run_keyed(["only"] * len(vals), vals, qs=QS)
    glob = _run(vals, qs=QS)
    assert {q: v for (_, q), v in keyed.items()} == glob


def test_keyed_int_keys():
    rng = np.random.default_rng(13)
    keys = rng.integers(0, 4, 600).tolist()
    vals = rng.normal(size=600)
    got = _run_keyed(keys, vals, qs=(0.5, 0.99), max_candidates=4)
    for k in set(keys):
        kv = np.sort(vals[np.array(keys) == k])
        for q in (0.5, 0.99):
            assert got[(k, q)] == kv[max(0, int(-(-q * len(kv) // 1)) - 1)]


def test_duplicate_qs_give_one_row_per_distinct_q():
    tbl = pa.table({"k": pa.array(["a", "b", "a"]),
                    "value": pa.array([3.0, 1.0, 2.0])})
    ds = ray.data.from_arrow(tbl)
    qs = [0.5, 0.5, 1.0]
    assert exact_quantiles(ds, "value", qs).to_pydict() == {
        "q": [0.5, 1.0], "value": [2.0, 3.0]}
    assert exact_quantiles_by_key(ds, "k", "value", qs).to_pydict() == {
        "k": ["a", "a", "b", "b"], "q": [0.5, 1.0, 0.5, 1.0],
        "value": [2.0, 3.0, 1.0, 1.0]}
    # zero rows: the global quantile is one null row per distinct q (SQL
    # aggregate without GROUP BY); GROUP BY over no rows has no groups
    empty = ray.data.from_arrow(tbl.slice(0, 0))
    assert exact_quantiles(empty, "value", qs).to_pydict() == {
        "q": [0.5, 1.0], "value": [None, None]}
    assert exact_quantiles_by_key(empty, "k", "value", qs).num_rows == 0


def _disc(vals: list[float], q: float) -> float | None:
    """quantile_disc by a numpy sort, as ``_oracle``; None without values."""
    s = np.sort(np.array([v for v in vals if not np.isnan(v)]))
    return float(s[max(0, int(-(-q * len(s) // 1)) - 1)]) if len(s) else None


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    rows=st.lists(st.tuples(
        st.sampled_from(["a", "b", None]),
        st.one_of(  # ties, NaN, +-inf, -0.0/+0.0 and any magnitude
            st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan,
                             5e-324, 1.7976931348623157e308]),
            st.floats(),
        )), min_size=10, max_size=80),
    qs=st.lists(st.one_of(st.sampled_from([0.5, 1.0]),
                          st.floats(0.0, 1.0, exclude_min=True)),
                min_size=1, max_size=4),
    max_candidates=st.sampled_from([1, 4, 16]),
)
def test_both_functions_match_sort_oracle(rows, qs, max_candidates):
    tbl = pa.table({
        "k": pa.array([k for k, _ in rows], pa.string()),
        "value": pa.array([v for _, v in rows], pa.float64()),
    })
    half = len(rows) // 2
    ds = ray.data.from_arrow([tbl.slice(0, half), tbl.slice(half)])
    dq = sorted(set(qs))
    vals = [v for _, v in rows]

    g = exact_quantiles(ds, "value", qs, max_candidates=max_candidates,
                        batch_size=7)
    assert g["q"].to_pylist() == dq
    assert g["value"].to_pylist() == [_disc(vals, q) for q in dq]

    t = exact_quantiles_by_key(ds, "k", "value", qs,
                               max_candidates=max_candidates, batch_size=7)
    keys = sorted({k for k, _ in rows if k is not None})
    keys += [None] if any(k is None for k, _ in rows) else []
    assert t["k"].to_pylist() == [k for k in keys for _ in dq]
    assert t["q"].to_pylist() == dq * len(keys)
    assert t["value"].to_pylist() == [
        _disc([v for kk, v in rows if kk == k], q) for k in keys for q in dq]


def test_winsorize_by_key_matches_duckdb():
    import duckdb

    from contest_parsing_ray.stages.quantiles import winsorize_by_key

    rng = np.random.default_rng(23)
    n = 1200
    keys = rng.choice(["a", "b"], n).tolist() + ["nullv"] * 3
    vals = np.concatenate([rng.normal(0, 10, n), np.full(3, np.nan)])
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(keys),
        "value": pa.array(vals, pa.float64(), from_pandas=True),
        "rid": pa.array(range(len(keys)), pa.int64()),
    })).repartition(5)
    out = (
        winsorize_by_key(ds, "k", "value", 0.05, 0.95,
                         max_candidates=8, batch_size=41)
        .to_pandas().sort_values("rid").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        "CREATE TABLE t AS SELECT unnest(?) AS k, unnest(?) AS value,"
        " unnest(?) AS rid",
        [keys, [None if np.isnan(x) else float(x) for x in vals],
         list(range(len(keys)))],
    )
    want = con.execute("""
WITH b AS (
  SELECT k, quantile_disc(value, 0.05) AS lo,
         quantile_disc(value, 0.95) AS hi
  FROM t GROUP BY k
)
SELECT t.rid,
       CASE WHEN t.value IS NULL THEN NULL
            ELSE LEAST(GREATEST(t.value, b.lo), b.hi) END AS w
FROM t JOIN b USING (k) ORDER BY t.rid""").df()
    g = out["value_wins"].to_numpy()
    w = want["w"].to_numpy()
    both_nan = np.isnan(g) & np.isnan(w)
    assert (both_nan | (g == w)).all()
    # clipping actually happened at both tails
    assert (out["value_wins"] != out["value"]).sum() > 50


def test_minmax_normalize_matches_duckdb_window():
    import duckdb

    from contest_parsing_ray.stages.quantiles import minmax_normalize_by_key

    rng = np.random.default_rng(29)
    n = 900
    keys = rng.choice(["a", "b"], n).tolist() + ["const"] * 4 + ["onlynull"]
    vals = np.concatenate([rng.normal(0, 100, n), np.full(4, 7.0),
                           [np.nan]])
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(keys),
        "value": pa.array(vals, pa.float64(), from_pandas=True),
        "rid": pa.array(range(len(keys)), pa.int64()),
    })).repartition(5)
    out = (
        minmax_normalize_by_key(ds, "k", "value", batch_size=37)
        .to_pandas().sort_values("rid").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        "CREATE TABLE t AS SELECT unnest(?) AS k, unnest(?) AS value,"
        " unnest(?) AS rid",
        [keys, [None if np.isnan(x) else float(x) for x in vals],
         list(range(len(keys)))],
    )
    want = con.execute("""
SELECT rid,
       (value - MIN(value) OVER (PARTITION BY k))
         / (MAX(value) OVER (PARTITION BY k)
            - MIN(value) OVER (PARTITION BY k)) AS nv
FROM t ORDER BY rid""").df()
    g, w = out["value_norm"].to_numpy(), want["nv"].to_numpy()
    both_nan = np.isnan(g) & np.isnan(w)
    assert (both_nan | (g == w)).all()  # bit-identical, no rounding
    # zero-range key -> SQL 0/0 = NULL on both sides
    assert out[out["k"] == "const"]["value_norm"].isna().all()


def test_robust_zscore_matches_duckdb():
    import duckdb

    from contest_parsing_ray.stages.quantiles import robust_zscore_by_key

    rng = np.random.default_rng(71)
    n = 800
    keys = rng.choice(["a", "b"], n).tolist() + ["const"] * 5
    vals = np.concatenate([rng.standard_cauchy(n) * 10, np.full(5, 3.0)])
    vals[5] = np.nan
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(keys),
        "value": pa.array(vals, pa.float64(), from_pandas=True),
        "rid": pa.array(range(len(keys)), pa.int64()),
    })).repartition(5)
    out = (
        robust_zscore_by_key(ds, "k", "value", max_candidates=16,
                             batch_size=43)
        .to_pandas().sort_values("rid").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        "CREATE TABLE t AS SELECT unnest(?) AS k, unnest(?) AS value,"
        " unnest(?) AS rid",
        [keys, [None if np.isnan(x) else float(x) for x in vals],
         list(range(len(keys)))],
    )
    want = con.execute("""
WITH m AS (
  SELECT k, quantile_disc(value, 0.5) AS med FROM t GROUP BY k
), d AS (
  SELECT t.k, quantile_disc(ABS(t.value - m.med), 0.5) AS mad
  FROM t JOIN m USING (k) WHERE t.value IS NOT NULL GROUP BY t.k
)
SELECT t.rid,
       CASE WHEN d.mad > 0
            THEN (t.value - m.med) / (1.4826 * d.mad) END AS rz
FROM t JOIN m USING (k) JOIN d USING (k) ORDER BY t.rid""").df()
    g, w = out["value_rz"].to_numpy(), want["rz"].to_numpy()
    both_nan = np.isnan(g) & np.isnan(w)
    assert (both_nan | (np.abs(g - w) < 1e-12)).all()
    # zero-MAD key -> all null scores
    assert out[out["k"] == "const"]["value_rz"].isna().all()


def test_minmax_normalize_null_keys_form_group():
    """ADVICE round-3: SQL PARTITION BY groups NULL keys together — they
    must get real min/max bounds, not unconditional NaN."""
    import pandas as pd

    from contest_parsing_ray.stages.quantiles import minmax_normalize_by_key

    df = pd.DataFrame(
        {
            "k": pd.array(["a", "a", None, None, None], dtype=object),
            "value": [0.0, 10.0, 5.0, 15.0, 10.0],
        }
    )
    out = (
        minmax_normalize_by_key(ray.data.from_pandas(df), "k", "value")
        .to_pandas()
    )
    nul = out[out["k"].isna()].sort_values("value")
    # null-key partition bounds are [5, 15]
    assert nul["value_norm"].tolist() == [0.0, 0.5, 1.0]
    a = out[out["k"] == "a"].sort_values("value")
    assert a["value_norm"].tolist() == [0.0, 1.0]
