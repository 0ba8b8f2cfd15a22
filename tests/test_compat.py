"""Regression tests: hash joins whose inputs start with empty blocks.

Round-1 failure: a hash join whose input sequence starts with EMPTY blocks
(typical for the output of another join or group-by, where most partitions
of a small dataset are empty) lost the input's schema inside Ray's native
hash shuffle and crashed with ``ArrowInvalid: No match or multiple matches
for key field reference`` (seen at num_cpus=32, 16 partitions, in the
driver's telemetry_join_fixture run). The engine's join runs on its own
keyed exchange; these pin that empty leading blocks join correctly.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data

from contest_parsing_ray.stages.join import hash_join


def _blocks_dataset(tables: list[pa.Table]) -> ray.data.Dataset:
    ds = ray.data.from_arrow(tables)
    assert ds.num_blocks() == len(tables)
    return ds


def test_native_join_with_empty_leading_blocks():
    schema_l = pa.schema([("k", pa.string()), ("v", pa.int64())])
    schema_r = pa.schema([("k", pa.string()), ("w", pa.int64())])
    # 15 empty blocks FIRST, then the single data block: most of the 8 join
    # partitions see no rows of either side
    left = _blocks_dataset(
        [schema_l.empty_table()] * 15
        + [pa.table({"k": ["a", "b"], "v": [1, 2]}, schema=schema_l)]
    )
    right = _blocks_dataset(
        [schema_r.empty_table()] * 15
        + [pa.table({"k": ["a", "b"], "w": [10, 20]}, schema=schema_r)]
    )
    out = hash_join(
        left, right, on=["k"], how="inner", num_partitions=8
    ).to_pandas()
    assert len(out) == 2
    assert sorted(out.columns) == ["k", "v", "w"]
    pd.testing.assert_frame_equal(
        out.sort_values("k").reset_index(drop=True),
        pd.DataFrame({"k": ["a", "b"], "v": [1, 2], "w": [10, 20]}),
        check_like=True,
    )


def test_chained_joins_with_empty_blocks():
    """Two chained joins — the shape that crashed in round 1."""
    schema_l = pa.schema([("k", pa.string()), ("t", pa.int64())])
    left = _blocks_dataset(
        [schema_l.empty_table()] * 7
        + [pa.table({"k": ["a", "b", "c"], "t": [1, 2, 3]}, schema=schema_l)]
    )
    r1 = ray.data.from_arrow(pa.table({"k": ["a", "b", "c"], "x": [7, 8, 9]}))
    r2 = ray.data.from_arrow(pa.table({"k": ["a", "b", "c"], "y": [4, 5, 6]}))
    j1 = hash_join(left, r1, on=["k"], how="inner", num_partitions=4)
    j2 = hash_join(j1, r2, on=["k"], how="left_outer", num_partitions=4)
    out = j2.to_pandas().sort_values("k").reset_index(drop=True)
    assert list(out["k"]) == ["a", "b", "c"]
    assert list(out["x"]) == [7, 8, 9]
    assert list(out["y"]) == [4, 5, 6]
