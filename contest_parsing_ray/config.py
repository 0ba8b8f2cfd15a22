"""Pipeline configuration.

Reference analog: ``ParseSettings`` (reference ``ParseSettings.py:7-55``) — the
17-knob settings object threaded through every stage. Here the knobs are the
tier widths (the reference's ``rounding_acc`` grid, default "30s",
``ParseSettings.py:17-19``), the aggregate set, dedup keep policy
(reference ``FileConcat.py:22`` keep='none' vs ``Joiner.py:104`` keep-first),
the sketch cap, gap-fill, retention and compression settings and the output
root. Execution choices are not knobs: the tier merge picks driver or
exchange from the partial-state size (``DRIVER_MERGE_BYTES`` in
``pipelines/rollup_pipeline.py``), and hot-key skew needs no knob because
per-batch partial combining plus the (tier, source, bucket) exchange key
spread the hot source (``stages/rollup.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field


# Duration-string grammar of the reference's rounding grid
# (reference ``meta/wiki/old/rounding-identifiers.md:3-29``): <n><unit>,
# unit in ns/us/ms/s/m/h/d/w. We support the sub-week units (calendar units
# mo/q/y are not fixed-width and the reference never uses them).
_UNIT_US = {
    "ns": 1e-3,
    "us": 1,
    "ms": 1_000,
    "s": 1_000_000,
    "m": 60_000_000,
    "h": 3_600_000_000,
    "d": 86_400_000_000,
    "w": 7 * 86_400_000_000,
}


def parse_duration_us(spec: str) -> int:
    """Parse a duration string like '30s', '1m', '5m', '1h' to microseconds.

    Grammar per the reference wiki (``meta/wiki/old/rounding-identifiers.md``).
    """
    spec = spec.strip()
    i = 0
    while i < len(spec) and (spec[i].isdigit() or spec[i] == "."):
        i += 1
    if i == 0 or i == len(spec):
        raise ValueError(f"bad duration spec: {spec!r}")
    num, unit = spec[:i], spec[i:]
    if unit not in _UNIT_US:
        raise ValueError(f"bad duration unit {unit!r} in {spec!r}")
    us = float(num) * _UNIT_US[unit]
    if us != int(us) or us <= 0:
        raise ValueError(f"duration {spec!r} is not a positive whole number of microseconds")
    return int(us)


@dataclass
class PipelineConfig:
    """Knobs for the rollup/downsample/retention pipeline."""

    # Retention tiers (rounding grids). Reference default grid: "30s".
    tiers: tuple[str, ...] = ("1m", "5m", "1h")

    # Dedup policy on doc_id: 'first' (deterministic min-tiebreak; reference
    # Joiner.py:104 unique("spanID")) or 'none' (drop ALL copies of a
    # duplicated key; reference FileConcat.py:22 unique(keep='none')).
    dedup_keep: str = "first"

    # p95 machinery: a group's mergeable state is its sorted (value, count)
    # pairs, exact up to this many DISTINCT values; beyond it the values map
    # onto a fixed relative-error grid (state/sketches.py). Either way the
    # state is a function of the group's values, whatever the merge order.
    quantile_cap: int = 4096

    # Gap-fill mode: 'locf' (last observation carried forward) or 'linear'.
    gapfill_mode: str = "locf"

    # Retention policy per tier (same order as `tiers`): keep-duration spec
    # or None = keep forever. An explicit `retention_now_us` (no wall clock
    # — deterministic) moves a tier's stored watermark up to now - keep; the
    # pipeline drops the merged points below the watermark before it
    # gap-fills and writes, and a run without a clock uses the stored one.
    retention_keep: tuple[str | None, ...] | None = None

    # Compression chunk size (points per Gorilla chunk).
    chunk_points: int = 4096

    # Token ingest: decode the token payload in the dedup scan and checksum
    # it; per-source token-integrity checksums go into the lineage manifest.
    # Either way the deduped sequences table is the same merge-on-read view
    # — the input files stay in place; the pipeline writes per-file deletion
    # vectors (Iceberg/Delta positional-delete style) and the survivors'
    # rollup partials, computed in the same scan, ZERO payload
    # re-encode/re-write (stages/deletion_vector.py), and appends run
    # incrementally. False = rollup-only mode: the scan never reads the
    # tokens column, token_ck is null and the manifests carry no checksums.
    ingest_tokens: bool = True

    # Output
    out_dir: str = "/tmp/cpr_out"

    tier_widths_us: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.tier_widths_us = tuple(parse_duration_us(t) for t in self.tiers)
        if self.dedup_keep not in ("first", "none"):
            raise ValueError("dedup_keep must be 'first' or 'none'")
        if self.gapfill_mode not in ("locf", "linear"):
            raise ValueError("gapfill_mode must be 'locf' or 'linear'")
