"""contest_parsing_ray — a from-scratch Ray-Data-native time-series rollup engine.

Re-expresses the query/data-processing capabilities of the reference
``moniSt13/ConTest-Parsing`` (a single-process Polars pipeline that parses
Jaeger traces + Prometheus metrics + logs, buckets timestamps onto a rounding
grid, and joins/aggregates per ``(entity, bucket)``) as idiomatic
``ray.data.Dataset`` pipelines:

- ``sources/``    — deterministic synthetic sequence tables, Parquet ingest,
                    and conformance parsers for the reference's three stream
                    shapes (Prometheus JSON, Jaeger JSON, structured logs).
- ``functions/``  — pure vectorized kernels (bucketing, scalar string/date
                    functions) used inside ``map_batches``.
- ``stages/``     — the operators: dedup, two-phase rollup,
                    gap-fill, Gorilla/delta-of-delta compression, cumulative
                    aggregates, wide pivots, tree stats, retention writer,
                    text analysis, near-duplicate detection, ANN search.
- ``state/``      — mergeable sketches, lineage manifests.
- ``pipelines/``  — end-to-end compositions (the flagship rollup pipeline).

Nothing in this package calls ``ray.init()``; sessions are owned by the
caller (driver harness, ``bench.py``, or the pytest fixture).
"""

__version__ = "0.2.0"
