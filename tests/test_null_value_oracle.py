"""Null-bearing correctness cases the driver's sf tables cannot exercise.

The sf events table has zero nulls in `value`, so the ohlc/counter oracle
alignment (engine drops null samples BEFORE open/close/delta — see
stages/ohlc.py) was previously untested end-to-end. Here a copy of the
sf0.001 events table gets ~5% null values injected and the SAME queries()
entries run against the SAME oracle_sql() strings over it.

Also pins approx_distinct ACCURACY against the exact DuckDB
COUNT(DISTINCT) (the driver's golden-parquet oracle only pins determinism).
"""

from __future__ import annotations

import os
import sys

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
import __ray_entry__ as entrymod

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def null_sf_dir(tmp_path_factory):
    """sf0.001 clone whose events.value is null on a deterministic ~5%."""
    d = tmp_path_factory.mktemp("null_sf")
    t = pq.read_table(os.path.join(SF_DIR, "events.parquet"))
    v = t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
    rng = np.random.default_rng(7)
    mask = rng.random(len(v)) < 0.05
    assert mask.any(), "fixture must actually inject nulls"
    t = t.set_column(
        t.schema.get_field_index("value"),
        "value",
        pa.array(np.where(mask, np.nan, v), from_pandas=False).cast(
            pa.float64()
        ),
    )
    # NaN -> real Arrow nulls (SQL NULL, not float NaN)
    vcol = t["value"].combine_chunks()
    valid = pa.array(~np.isnan(vcol.to_numpy(zero_copy_only=False)))
    t = t.set_column(
        t.schema.get_field_index("value"),
        "value",
        pa.compute.if_else(valid, vcol, pa.scalar(None, pa.float64())),
    )
    pq.write_table(t, str(d / "events.parquet"))
    return str(d)


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype(np.int64)
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype(np.float64).round(9)
    return df.sort_values(list(df.columns), kind="stable").reset_index(
        drop=True
    )


@pytest.mark.parametrize("name", ["ohlc_rate_1h", "counter_increase_1h"])
def test_null_values_match_oracle(null_sf_dir, name):
    got = entrymod.queries()[name](null_sf_dir)
    if not isinstance(got, pd.DataFrame):
        got = got.to_pandas()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{null_sf_dir}/events.parquet')"
    )
    want = con.execute(entrymod.oracle_sql()[name]).df()
    got, want = _normalize(got), _normalize(want)
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(
        got, want, check_dtype=False, atol=1e-9, rtol=1e-9
    )


def test_approx_distinct_accuracy_vs_exact():
    """Per-key HLL estimate within 5% of the exact COUNT(DISTINCT)
    (p=12 -> SE ~1.6%; 5% is ~3 sigma)."""
    got = entrymod.queries()["approx_distinct_users"](SF_DIR)
    if not isinstance(got, pd.DataFrame):
        got = got.to_pandas()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{SF_DIR}/events.parquet')"
    )
    exact = con.execute(
        "SELECT event_type, COUNT(DISTINCT user_id) AS n FROM events "
        "GROUP BY event_type"
    ).df()
    merged = got.merge(exact, on="event_type", how="outer")
    assert not merged.isna().any().any()
    rel = (merged["approx_distinct"] - merged["n"]).abs() / merged["n"]
    assert (rel <= 0.05).all(), merged.to_string()
