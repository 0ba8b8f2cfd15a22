"""Mirror of the driver's correctness gate: run every queries() entry at
sf0.001 and compare against oracle_sql() via DuckDB (row count + sorted
column names + values)."""

from __future__ import annotations

import os
import sys

import duckdb
import numpy as np
import pandas as pd
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
import __ray_entry__ as entrymod

SF_DIR = os.environ.get("MIRROR_SF_DIR", "/root/testdata/sf0.001")
TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def _to_pandas(result):
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    return c


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_bool_dtype(df[c]):
            df[c] = df[c].astype(bool)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype(np.int64)
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype(np.float64).round(9)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


# Golden-parquet oracles are pinned at sf0.01 (the driver's correctness
# scale) — at this module's sf0.001 mirror they are exercised rows-only;
# tests/test_golden_oracles.py compares them against the goldens at sf0.01.
ORACLE_KEYS = sorted(
    set(entrymod.oracle_sql()) - set(entrymod.GOLDEN_ORACLE_KEYS)
)
ROWS_ONLY_KEYS = sorted(set(entrymod.queries().keys()) - set(ORACLE_KEYS))


def test_entry_smoke():
    res = _to_pandas(entrymod.entry())
    assert len(res) > 0
    assert set(res.columns) >= {"event_type", "bucket_us", "cnt", "p95_v"}


@pytest.mark.parametrize("name", ORACLE_KEYS)
def test_query_matches_oracle(con, name):
    got = _normalize(_to_pandas(entrymod.queries()[name](SF_DIR)))
    want = _normalize(con.execute(entrymod.oracle_sql()[name]).df())
    assert list(got.columns) == list(want.columns), (
        f"{name}: columns {list(got.columns)} != {list(want.columns)}"
    )
    assert len(got) == len(want), f"{name}: {len(got)} rows != {len(want)}"
    pd.testing.assert_frame_equal(got, want, check_dtype=False, atol=1e-9, rtol=1e-9)


@pytest.mark.parametrize("name", ROWS_ONLY_KEYS)
def test_rows_only_queries_run(name):
    got = _to_pandas(entrymod.queries()[name](SF_DIR))
    assert got is not None
    assert len(got.columns) > 0


# One query per module whose per-batch stages used to run on actor pools
# (plus doc_token_counts, the first query found wedged that way).
ONE_CPU_QUERIES = [
    "doc_token_counts", "doc_repetition", "curate_docs", "minhash_lsh_pairs",
    "simhash_neardup_pairs", "ngram_jaccard_pairs", "ivf_topk_cosine",
    "pq_topk_cosine", "multimodal_decode_wav", "multimodal_decode_jpeg",
    "multimodal_decode_video",
]

_ONE_CPU_CHILD = """
import json, os, sys, threading
import ray
from ray.data import DataContext

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False
import __ray_entry__

sf_dir, out_dir, limit = sys.argv[1], sys.argv[2], float(sys.argv[3])
done = []

def run():
    for name in sys.argv[4:]:
        res = __ray_entry__.queries()[name](sf_dir)
        df = res.to_pandas() if hasattr(res, "to_pandas") else res
        df.to_parquet(os.path.join(out_dir, name + ".parquet"))
        done.append(name)

th = threading.Thread(target=run, daemon=True)
th.start()
th.join(limit)
print(json.dumps(done), flush=True)
if th.is_alive():
    ray._private.worker._global_node.kill_all_processes(check_alive=False, wait=True)
else:
    ray.shutdown()
os._exit(0)
"""


def test_map_stage_queries_finish_on_one_cpu_session(tmp_path):
    """Every per-batch stage runs as a plain task, so a session with a
    single CPU still runs the upstream read. When these stages ran on actor
    pools, the pool's one actor held that CPU and each of these queries
    never finished. The child runs them all in one ``num_cpus=1`` session
    under one deadline; each must match this 4-CPU session's rows."""
    import json
    import subprocess

    env = dict(os.environ, PYTHONPATH=ROOT + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_CPU_CHILD, SF_DIR, str(tmp_path), "120",
         *ONE_CPU_QUERIES],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    done = json.loads(proc.stdout.strip().splitlines()[-1])
    assert done == ONE_CPU_QUERIES, (
        f"did not finish on a num_cpus=1 session: "
        f"{ONE_CPU_QUERIES[len(done):]}"
    )
    for name in ONE_CPU_QUERIES:
        got = _normalize(pd.read_parquet(tmp_path / f"{name}.parquet"))
        want = _normalize(_to_pandas(entrymod.queries()[name](SF_DIR)))
        pd.testing.assert_frame_equal(got, want, obj=name)
