"""Gap-fill: materialize empty buckets on the retention grid.

The reference DROPS rows whose bucket has no join partner
(``Joiner.py:117-118`` ``drop_nulls(subset="container")``; README_old.md:8-10
discusses the inner-vs-left tradeoff). The north rule's engine instead
FILLS the grid: every (source, bucket) between a source's first and last
observed bucket exists in the output, with ``filled=True`` marking
synthesized points.

Modes:
- ``locf``   — last observation carried forward for the value columns.
- ``linear`` — linear interpolation between the neighboring observed
  buckets (count stays 0 for filled rows in both modes).

Execution: one keyed exchange on the source over the ROLLUP rows (not raw
events); each partition runs :func:`fill_group_pandas` per source of a
pandas ``groupby``. Rollup rows are tiny (one per bucket), so even years of
1m buckets per source is ~O(10^5-10^6) small rows per group: safely
in-memory and the Python cost is per source, with vectorized pandas
reindexing inside. For sources whose full bucket range exceeds memory,
partition the bucket range and carry the last observed row per boundary
(the per-series encoder in ``compress.py`` carries its previous point the
same way, inside one group).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from ._shuffle import hash_partitioned_map

VALUE_COLS = ("sum_v", "min_v", "max_v", "p95_v")


def gapfill(
    rollup: ray.data.Dataset,
    width_us: int,
    mode: str = "locf",
    key_col: str = "source",
    value_cols: tuple[str, ...] = VALUE_COLS,
) -> ray.data.Dataset:
    """rollup(source, bucket_us, cnt, <value_cols>) → same schema + filled:bool,
    with every grid bucket present per source."""
    if mode not in ("locf", "linear"):
        raise ValueError("mode must be 'locf' or 'linear'")

    def fill(df: pd.DataFrame) -> pd.DataFrame:
        return pd.concat(
            [
                fill_group_pandas(g, width_us, mode, key_col, value_cols)
                for _, g in df.groupby(key_col, sort=False, dropna=False)
            ],
            ignore_index=True,
        )

    return hash_partitioned_map(rollup, [key_col], fill, batch_format="pandas")


def fill_group_pandas(
    g: pd.DataFrame,
    width_us: int,
    mode: str,
    key_col: str = "source",
    value_cols: tuple[str, ...] = VALUE_COLS,
) -> pd.DataFrame:
    """Gap-fill ONE key's rows (shared by the exchange path and the
    driver-side tier writer)."""
    g = g.sort_values("bucket_us", kind="stable")
    lo, hi = int(g["bucket_us"].iloc[0]), int(g["bucket_us"].iloc[-1])
    grid = np.arange(lo, hi + width_us, width_us, dtype=np.int64)
    g = g.set_index("bucket_us").reindex(grid)
    filled = g["cnt"].isna()
    g["cnt"] = g["cnt"].fillna(0).astype(np.int64)
    g[key_col] = g[key_col].ffill().bfill()
    for c in value_cols:
        if c not in g.columns:
            continue
        if mode == "locf":
            g[c] = g[c].ffill()
        else:
            g[c] = g[c].interpolate(method="linear", limit_direction="forward")
    g["filled"] = filled.to_numpy()
    g.index.name = "bucket_us"
    return g.reset_index()
