"""Joins: broadcast (small side) and partitioned hash join (both large).

Reference analogs (SURVEY §2.4):
- J1: traces x metric tables, LEFT on ``(podname, starttime)=(pod,
  measure_time)`` (``Joiner.py:78-120``) — both-large → hash join.
- J4/J5: tiny system-wide metric table joined per bucket
  (``Joiner.py:272-311``, ``TraceInOneRowExploder.py:245-308``) — broadcast.
- J6: depth-stats join-back on spanID (``TreeBuilder.py:58-64``).

Scale rules: the small side is shipped ONCE via ``ray.put`` and merged
inside every ``map_batches`` task (no shuffle, no per-batch reshipping);
the large-large case is the engine's keyed exchange
(``_shuffle.raw_hash_exchange``) with both sides as inputs: equal keys of
the two sides co-locate in one reduce task, which joins them with
``pa.Table.join``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from . import _shuffle


def pin_schema(ds: ray.data.Dataset, schema: pa.Schema) -> ray.data.Dataset:
    """Force every batch to exactly ``schema`` (order, names, types).

    Kills per-block schema drift: Arrow null-typed columns (all-None object
    columns through a pandas stage) are cast to the declared type, missing
    columns materialize as typed nulls, extras are dropped, zero-column
    empty blocks become ``schema.empty_table()``. Use at pipeline
    boundaries whose outputs feed joins/unions."""

    def f(t: pa.Table) -> pa.Table:
        cols = []
        for fld in schema:
            if fld.name in t.column_names:
                c = t[fld.name]
                if c.type != fld.type:
                    c = c.cast(fld.type)
                cols.append(c)
            else:
                cols.append(pa.nulls(len(t), fld.type))
        return pa.Table.from_arrays(
            [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c for c in cols],
            schema=schema,
        )

    return ds.map_batches(f, batch_format="pyarrow")


def broadcast_join(
    large: ray.data.Dataset,
    small: pd.DataFrame,
    on: list[str],
    how: str = "left",
) -> ray.data.Dataset:
    """Join a Dataset against a driver-resident small table. The small side
    goes to the object store once; every task reads it zero-copy."""
    small_ref = ray.put(small)

    # added-column dtypes: empty/unmatched batches must keep them — an
    # all-NaN object column becomes an Arrow NULL-typed column, which
    # downstream joins reject
    added = {
        c: ("string" if str(t) == "object" else str(t))
        for c, t in small.dtypes.items()
        if c not in on
    }

    # plain task pool, NOT an actor pool: the small side is a zero-copy
    # object-store read per task, and an actor here reserves a whole CPU
    # for the DAG's lifetime — on a small cluster that wedges multi-stage
    # pipelines (observed 4-CPU deadlock with 3 chained joins + this stage
    # as an actor pool)
    def join_batch(batch: pd.DataFrame) -> pd.DataFrame:
        sm = ray.get(small_ref)
        out = batch.merge(sm, on=on, how=how)
        for c, t in added.items():
            if str(out[c].dtype) == "object" and out[c].isna().all():
                out[c] = out[c].astype(t)
        return out

    return large.map_batches(join_batch, batch_format="pandas")


def broadcast_semi_join(
    large: ray.data.Dataset,
    keys: ray.data.Dataset,
    on: str,
    anti: bool = False,
) -> ray.data.Dataset:
    """Semi-join (``anti=False``: keep rows whose ``on`` appears in
    ``keys``) / anti-join (``anti=True``: keep rows that don't) against a
    small key set — the shuffle-free filter shape (SQL ``WHERE [NOT]
    EXISTS``).

    The key set is deduplicated, sorted, and shipped ONCE via ``ray.put``;
    every task filters its batches with a vectorized ``searchsorted`` —
    no exchange of the large side at all. Numeric/timestamp keys compare
    exactly; string keys compare by 64-bit buffer hash (collision odds
    ~n²/2⁶⁵ — negligible; swap in the exact array if that ever matters).
    Broadcast-side assumption (same as :func:`broadcast_join`): the
    distinct keys fit driver memory; at 100 TB swap the array for a Bloom
    filter (``stages/dedup.py::ShardedBloom``) at the cost of false
    positives.
    """
    from ._shuffle import hash64_column

    # per-batch local dedup -> tiny driver list (the broadcast side)
    uniq = keys.select_columns([on]).map_batches(
        lambda b: pa.table({on: b[on].combine_chunks().unique()}),
        batch_format="pyarrow",
    )
    # Ray quirk: ZERO-COLUMN empty pandas blocks bypass map_batches UDFs
    # entirely and come back from to_arrow_refs as DataFrames —
    # normalize/skip them
    blocks = []
    for bl in ray.get(uniq.to_arrow_refs()):
        if isinstance(bl, pd.DataFrame):
            if on not in bl.columns:
                continue
            bl = pa.Table.from_pandas(bl[[on]], preserve_index=False)
        if on in bl.column_names:
            blocks.append(bl.select([on]))
    if not blocks:
        # empty key set: EXISTS matches nothing, NOT EXISTS matches all
        return large if anti else large.limit(0)
    key_col = pa.concat_tables(blocks, promote_options="default")[on]
    t = key_col.type
    hashed = pa.types.is_string(t) or pa.types.is_large_string(t) or (
        pa.types.is_binary(t)
    )

    def to_sorted(col):
        # SQL EXISTS semantics: NULL never matches anything — drop null
        # keys from the set (a null would otherwise hash like "" on the
        # hashed path and spuriously match empty-string probes)
        col = col.drop_null()
        if hashed:
            return np.unique(hash64_column(col))
        arr = col.cast(pa.int64()) if pa.types.is_timestamp(t) else col
        return np.unique(arr.to_numpy(zero_copy_only=False))

    key_arr = to_sorted(key_col)
    keys_ref = ray.put(key_arr)

    def filt(batch: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        col = batch[on].combine_chunks()
        if hashed:
            probe = hash64_column(col)
        else:
            pcol = (
                col.cast(pa.int64()) if pa.types.is_timestamp(col.type) else col
            )
            if pcol.null_count:
                # fill nulls with a sentinel so a nullable int64 column
                # keeps its exact integer dtype — to_numpy on a nullable
                # array falls back to float64, which rounds values above
                # 2^53 and can spuriously match/miss; the null rows are
                # masked out below via is_valid regardless of sentinel
                pcol = pcol.fill_null(
                    0 if pa.types.is_integer(pcol.type) else 0.0
                )
            probe = pcol.to_numpy(zero_copy_only=False)
        if len(ks):
            idx = np.minimum(np.searchsorted(ks, probe), len(ks) - 1)
            hit = ks[idx] == probe
        else:
            hit = np.zeros(len(probe), dtype=bool)
        if col.null_count:
            # a null probe row never matches (EXISTS): dropped by semi,
            # kept by anti
            hit &= col.is_valid().to_numpy(zero_copy_only=False)
        mask = ~hit if anti else hit
        return batch.filter(pa.array(mask))

    return large.map_batches(filt, batch_format="pyarrow")


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: list[str],
    how: str = "inner",
    num_partitions: int | None = None,
    right_on: list[str] | None = None,
) -> ray.data.Dataset:
    """Hash-partitioned equi-join of two Datasets: a two-input
    :func:`raw_hash_exchange` whose reduce joins each partition's two sides
    with ``pa.Table.join`` (the call Ray's own join aggregator makes).

    ``how`` is Ray's join type (``inner``, ``left_outer``, ``right_outer``,
    ``full_outer``, ``left_semi``, ...); clashing right-side columns get
    the ``_r`` suffix. Hot join keys should be pre-salted by the caller
    (append a salt col to both sides).
    """
    right_on = list(right_on or on)

    def join_partition(s: int, lt: pa.Table, rt: pa.Table) -> pa.Table:
        # a side none of whose blocks carried a schema joins as its keys only
        if not lt.num_columns:
            lt = _keys_only(rt.schema, right_on, on)
        if not rt.num_columns:
            rt = _keys_only(lt.schema, on, right_on)
        return lt.join(
            rt,
            keys=list(on),
            right_keys=right_on,
            join_type=how.replace("_", " "),
            right_suffix="_r",
        )

    return ray.data.from_arrow_refs(
        _shuffle.raw_hash_exchange(
            [(left, list(on)), (right, right_on)], join_partition, num_partitions
        )
    )


def _keys_only(schema: pa.Schema, keys: list[str], names: list[str]) -> pa.Table:
    return pa.schema(
        [schema.field(k).with_name(n) for k, n in zip(keys, names)]
    ).empty_table()


def align_concat(
    datasets: list[ray.data.Dataset],
    key_cols: list[str],
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """J7: align-concat — full-outer merge-by-key with first-non-null
    coalesce per column (the reference's ``pl.concat(how='align')``,
    ``Joiner.py:331-333``).

    Union all shards, co-locate by key hash, then one vectorized
    groupby-first-non-null per partition."""
    import pyarrow as pa

    all_cols: list[str] = []
    for ds in datasets:
        for c in ds.schema().names:
            if c not in all_cols:
                all_cols.append(c)

    def pad(b: pa.Table) -> pa.Table:
        for c in all_cols:
            if c not in b.column_names:
                b = b.append_column(c, pa.nulls(len(b), type=pa.float64()))
        return b.select(all_cols)

    unioned = None
    for ds in datasets:
        t = ds.map_batches(pad, batch_format="pyarrow")
        unioned = t if unioned is None else unioned.union(t)

    def coalesce(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(key_cols, sort=False).first().reset_index()

    return _shuffle.hash_partitioned_map(
        unioned, key_cols, coalesce, num_partitions=num_partitions,
        batch_format="pandas",
    )
