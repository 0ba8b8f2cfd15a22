"""Generate golden-parquet oracles for the deterministic rows-only queries.

The driver's correctness gate compares each `queries()` entry against its
`oracle_sql()` string at sf0.01. For operators whose semantics are not
SQL-expressible (custom 64-bit hashes, MinHash/SimHash, the telemetry
fixture chain), the oracle is a PINNED GOLDEN: the deterministic result at
sf0.01, normalized (columns sorted by name, rows sorted by all columns),
committed under tests/goldens/sf0.01/ and served to DuckDB via
`read_parquet('<abs path>')`.

Every golden query is run TWICE here and the normalized results must be
byte-identical — a determinism gate, so a golden can never pin a flaky
result. Regenerate after any intentional semantic change:

    PYTHONPATH=. python tools/make_goldens.py   # from the repo root
"""

from __future__ import annotations

import os
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

GOLDEN_QUERIES = [
    "dup_ngram_frac",
    "cross_doc_dup_spans",
    "strip_hot_spans_docs",
    "benchmark_contamination",
    "span_corrupt_docs",
    "source_vocab_jaccard",
    "source_vocab_containment",
    "source_token_richness",
    "doc_fingerprints",
    "simhash_docs",
    "minhash_lsh_pairs",
    "minhash_clusters",
    "lttb_events_200",
    "token_vocab_hist",
    "token_bigram_top100",
    "simhash_neardup_pairs",
    "lsh_neardup_pairs",
    "lang_id_docs",
    "multimodal_decode_stub",
    "multimodal_decode_wav",
    "multimodal_decode_png",
    "multimodal_decode_jpeg",
    "multimodal_decode_video",
    "telemetry_join_fixture",
    "corpus_end_to_end",
    "ivf_topk_cosine",
    "pq_topk_cosine",
    "approx_distinct_users",
]

SF_DIR = os.environ.get("GOLDEN_SF_DIR", "/root/testdata/sf0.01")
OUT_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests",
    "goldens",
    os.path.basename(SF_DIR.rstrip("/")),
)


def to_table(res) -> pa.Table:
    import pandas as pd
    import ray.data

    if isinstance(res, ray.data.Dataset):
        batches = [
            b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
            for b in res.iter_batches(batch_format="pyarrow")
        ]
        if not batches:
            return pa.schema(res.schema().base_schema).empty_table()
        return pa.concat_tables(batches, promote_options="default")
    if isinstance(res, pd.DataFrame):
        return pa.Table.from_pandas(res, preserve_index=False)
    if isinstance(res, pa.Table):
        return res
    raise TypeError(type(res))


def normalize(t: pa.Table) -> pa.Table:
    t = t.select(sorted(t.column_names))
    if t.num_rows:
        t = t.take(
            pc.sort_indices(t, sort_keys=[(c, "ascending") for c in t.column_names])
        )
    return t.combine_chunks()


def main() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=8, include_dashboard=False,
            ignore_reinit_error=True, logging_level="ERROR", log_to_driver=False,
        )
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entry

    os.makedirs(OUT_DIR, exist_ok=True)
    qs = entry.queries()
    failures = []
    for name in sys.argv[1:] or GOLDEN_QUERIES:
        a = normalize(to_table(qs[name](SF_DIR)))
        b = normalize(to_table(qs[name](SF_DIR)))
        if not a.equals(b):
            failures.append(name)
            print(f"NONDETERMINISTIC: {name} — two runs differ; NOT pinned")
            continue
        path = os.path.join(OUT_DIR, f"{name}.parquet")
        pq.write_table(a, path)
        print(f"pinned {name}: {a.num_rows} rows x {a.num_columns} cols -> {path}")
    if failures:
        raise SystemExit(f"nondeterministic queries: {failures}")


if __name__ == "__main__":
    main()
