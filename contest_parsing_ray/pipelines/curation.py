"""Document-curation pipeline: the standard training-data chain
score → filter → exact-dedup, composed from the engine's text stages.

This is the documents-table counterpart of the telemetry flagship
(``pipelines/telemetry_join.py::process_corpus``): one callable a user
points at a corpus to get the curated keep-set. Every stage is a
streaming ``map_batches`` (scores, filter) or a hash-partitioned exchange
(dedup) — nothing materializes the corpus on the driver.

Filter rules are the public C4/Gopher-style heuristics the text stages
implement (min word count, max duplicate-word fraction); dedup is exact
first-wins on a content hash with a deterministic ``id_col`` tie-break
(the engine's D2 discipline, SURVEY §2.7).
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

from ..stages.dedup import dedup
from ..stages.text import RepetitionScore, TokenCount


def curate_documents(
    docs: ray.data.Dataset,
    min_words: int = 20,
    max_dup_frac: float = 0.7,
    text_col: str = "text",
    id_col: str = "doc_id",
    hash_col: str = "md5",
) -> ray.data.Dataset:
    """docs → curated docs: token-count + repetition scores attached,
    low-quality rows dropped, exact duplicates (by ``hash_col``, computed
    here as md5 of the text when absent) collapsed to the lowest
    ``id_col``."""
    out = docs.map_batches(TokenCount(text_col=text_col), batch_format="pandas")
    out = out.map_batches(
        RepetitionScore(text_col=text_col), batch_format="pyarrow"
    )

    def keep(b: pa.Table) -> pa.Table:
        nw = b["n_words"].to_numpy(zero_copy_only=False)
        dup = b["dup_word_frac"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array((nw >= min_words) & (dup <= max_dup_frac)))

    out = out.map_batches(keep, batch_format="pyarrow")

    schema = docs.schema()  # None when the input is empty/unresolvable
    if schema is None or hash_col not in schema.names:
        import hashlib

        def add_hash(b: pa.Table) -> pa.Table:
            vals = [
                hashlib.md5((t or "").encode()).hexdigest()
                for t in b[text_col].to_pylist()
            ]
            # typed append: an empty batch must not emit a null-typed
            # hash column into the dedup exchange
            return b.append_column(hash_col, pa.array(vals, type=pa.string()))

        out = out.map_batches(add_hash, batch_format="pyarrow")

    return dedup(out, key=hash_col, keep="first", tiebreak_cols=(id_col,))
