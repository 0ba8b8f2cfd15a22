"""Round-to-nearest time bucketing (the reference's ``dt.round`` grid).

The reference regularizes every stream's timestamps with Polars
``dt.round(rounding_acc)`` (reference ``MetricsParser.py:118``,
``TracesParser.py:155``, ``LogsParser.py:49``; grid grammar
``meta/wiki/old/rounding-identifiers.md:3-29``). Polars ``dt.round`` maps each
instant to the NEAREST grid boundary with ties (exact half) rounding UP —
verified property-test in ``tests/test_bucketing.py``. For non-negative epoch
microseconds that is exactly ``floor((t + w/2) / w) * w``.

All kernels here are vectorized (numpy / pyarrow.compute) and are meant to be
called inside ``Dataset.map_batches(..., batch_format="pyarrow")``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def bucket_us(ts_us: np.ndarray, width_us: int) -> np.ndarray:
    """Round epoch-microsecond timestamps to the nearest ``width_us`` boundary.

    Ties round up, matching Polars ``dt.round`` (reference
    ``TracesParser.py:155``). Uses floor division, so it is also correct for
    negative timestamps (pre-1970), unlike a truncating ``//`` after ``+w/2``
    would be in C semantics — numpy ``//`` floors, which is what we want.
    """
    w = np.int64(width_us)
    return (np.asarray(ts_us, dtype=np.int64) + w // 2) // w * w


def bucket_array(ts: pa.ChunkedArray | pa.Array, width_us: int) -> pa.Array:
    """Arrow-native version of :func:`bucket_us` for int64 epoch-µs arrays."""
    if isinstance(ts, pa.ChunkedArray):
        ts = ts.combine_chunks()
    arr = ts.cast(pa.int64())
    out = bucket_us(arr.to_numpy(zero_copy_only=False), width_us)
    if arr.null_count:
        return pa.array(out, type=pa.int64(), mask=np.asarray(arr.is_null()))
    return pa.array(out, type=pa.int64())
