"""Golden-oracle gate at sf0.01 (the driver's correctness scale).

Each pinned query is re-run here and its normalized result must equal the
committed golden parquet byte-for-byte (tools/make_goldens.py pins the
goldens and refuses nondeterministic results). This is exactly the check
the driver performs via `oracle_sql()`'s `read_parquet(<golden>)` entries.
"""

from __future__ import annotations

import os
import sys

import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
import __ray_entry__ as entrymod

from tools.make_goldens import normalize, to_table

SF_DIR = "/root/testdata/sf0.01"
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens", "sf0.01")

GOLDEN_KEYS = [
    k
    for k in entrymod.GOLDEN_ORACLE_KEYS
    if os.path.exists(os.path.join(GOLDEN_DIR, f"{k}.parquet"))
]


def test_goldens_exist():
    assert set(GOLDEN_KEYS) == set(entrymod.GOLDEN_ORACLE_KEYS), (
        "missing golden files — run from the repo root: PYTHONPATH=. python "
        "tools/make_goldens.py"
    )


@pytest.mark.parametrize("name", GOLDEN_KEYS)
def test_query_matches_golden(ray_session, name):
    got = normalize(to_table(entrymod.queries()[name](SF_DIR)))
    want = pq.read_table(os.path.join(GOLDEN_DIR, f"{name}.parquet"))
    assert got.schema.equals(want.schema), (
        f"{name}: schema drift\n got: {got.schema}\nwant: {want.schema}"
    )
    assert got.equals(want), f"{name}: values differ from pinned golden"
