"""Structured-log parser + AEL template miner.

Reference: ``LogsParser.py`` — runs the AEL template miner from the public
``logparser`` package over raw ``.log`` files with format
``"<Date> <Time> <Level> <Number>---<LoggingReporter>: <Content>"``
(``:21-37`` S4/ST1, ``minEventCount=2, merge_percent=0.5``), then
normalizes rows: service name from the filename, ``Date+Time → timestamp``
rounded to the grid plus the original, both shifted by a configurable tz
offset (``:44-52`` M11).

The miner here implements the published AEL algorithm (Jiang et al. 2008,
"An Automated Approach for Abstracting Execution Logs to Execution
Events") faithfully:

1. **Anonymize** — mask dynamic fragments (``key=value`` values, uuids,
   hex ids, numbers) with the ``<*>`` parameter token.
2. **Tokenize** — bin anonymized lines by ``(token count, param count)``.
3. **Categorize** — identical anonymized token sequences form one event.
4. **Reconcile** — within a bin, events whose templates differ in at most
   ``merge_percent`` of token positions merge when the merged group holds
   at least ``min_event_count`` events (an un-anonymized dynamic token);
   differing positions become ``<*>``.

Mining runs PER FILE — the reference's parse unit (``parser.parse(
log_file)``) — so event ids are deterministic regardless of batch/task
assignment; equal final templates hash to equal ``event_id`` (FNV-1a),
which is what the downstream cumulative-distinct aggregate
(``Joiner.py:246-252``) consumes.

Engine shape: one plain task per file (files are the natural parallel
unit and the miner needs whole-file context); the line regex compiles
at import, the parser instance holds only parameters, and no state
carries from one file to the next (ST1).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..functions.bucketing import bucket_us

LINE_RE = re.compile(
    r"^(?P<date>\d{4}-\d{2}-\d{2}) (?P<time>\d{2}:\d{2}:\d{2}(?:\.\d+)?) "
    r"(?P<level>[A-Z]+) (?P<number>\d+)---(?P<reporter>\[[^\]]*\]\s*\S+): "
    r"(?P<content>.*)$"
)

PARAM = "<*>"
# anonymize heuristics (AEL step 1): key=value values, then id-ish literals
_KV_RE = re.compile(r"(\w+=)\S+")
_MASKS = [
    re.compile(r"\b[0-9a-fA-F]{8}-[0-9a-fA-F-]{27,}\b"),  # uuid
    re.compile(r"\b0x[0-9a-fA-F]+\b"),  # hex
    re.compile(r"\b\d+(?:\.\d+)?(?:ms|s|us|ns|kb|mb|gb)?\b", re.IGNORECASE),
]


def _anonymize(contents: pd.Series) -> pd.Series:
    s = contents.astype(str)
    s = s.str.replace(_KV_RE, r"\1" + PARAM, regex=True)
    for rx in _MASKS:
        s = s.str.replace(rx, PARAM, regex=True)
    return s


def _fnv64(text: str) -> int:
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8", "ignore"):
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h & 0x7FFFFFFFFFFFFFFF


def mine_event_ids(
    contents: pd.Series,
    merge_percent: float = 0.5,
    min_event_count: int = 2,
    reconcile_cap: int = 256,
) -> np.ndarray:
    """AEL steps 2-4 over one file's anonymized contents → int64 event ids.

    Pairwise reconcile is O(u²) in the bin's UNIQUE template count — log
    vocabularies are tiny, and bins beyond ``reconcile_cap`` uniques skip
    reconciliation (deterministically) rather than going quadratic.
    """
    masked = _anonymize(contents)
    uniq, inv = np.unique(masked.to_numpy(dtype=object), return_inverse=True)
    tokens = [u.split() for u in uniq]
    # tokenize bins: (token count, param count) — np.unique gives the uniq
    # templates in sorted order, so bin membership order is deterministic
    bins: dict[tuple[int, int], list[int]] = {}
    for i, toks in enumerate(tokens):
        key = (len(toks), sum(1 for t in toks if t == PARAM))
        bins.setdefault(key, []).append(i)

    parent = np.arange(len(uniq))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for members in bins.values():
        if len(members) < 2 or len(members) > reconcile_cap:
            continue
        n_tok = len(tokens[members[0]])
        if n_tok == 0:
            continue
        max_diff = merge_percent * n_tok
        # candidate neighbors per template (AEL reconcile)
        neighbors: dict[int, list[int]] = {m: [] for m in members}
        for a in range(len(members)):
            ta = tokens[members[a]]
            for b in range(a + 1, len(members)):
                tb = tokens[members[b]]
                n_diff = sum(1 for x, y in zip(ta, tb) if x != y)
                if 0 < n_diff <= max_diff:
                    neighbors[members[a]].append(members[b])
                    neighbors[members[b]].append(members[a])
        for m, ns in neighbors.items():
            if ns and 1 + len(ns) >= min_event_count:
                for n in ns:
                    ra, rb = find(m), find(n)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)

    # final template per merge component: positionwise agreement else <*>
    roots: dict[int, list[int]] = {}
    for i in range(len(uniq)):
        roots.setdefault(find(i), []).append(i)
    event_id_of_uniq = np.empty(len(uniq), dtype=np.int64)
    for root, members in roots.items():
        base = list(tokens[members[0]])
        for m in members[1:]:
            for pos, tok in enumerate(tokens[m]):
                if base[pos] != tok:
                    base[pos] = PARAM
        eid = _fnv64(" ".join(base))
        event_id_of_uniq[members] = eid
    return event_id_of_uniq[inv]


class LogParser:
    """Per-file stage: one call per FILE (the AEL mining unit), run as a
    plain task. The instance holds only parameters; mining is whole-file,
    so event ids are independent of task/batch assignment (ST1)."""

    def __init__(self, rounding_us: int = 30_000_000, tz_shift_hours: int = 0,
                 merge_percent: float = 0.5, min_event_count: int = 2):
        self.rounding_us = rounding_us
        self.tz_shift_us = tz_shift_hours * 3_600_000_000
        self.merge_percent = merge_percent
        self.min_event_count = min_event_count

    def _parse_file(self, path: str) -> pd.DataFrame:
        # M11: source-servicename from the file name (LogsParser.py:46)
        service = str(path).rsplit("/", 1)[-1].split(".")[0] or "unknown"
        rows = {k: [] for k in ("level", "reporter", "content", "ts_us")}
        with open(path, "r", errors="replace") as f:
            for line in f:
                m = LINE_RE.match(line.rstrip("\n"))
                if not m:
                    continue  # malformed lines skipped (AEL does the same)
                rows["level"].append(m["level"])
                rows["reporter"].append(m["reporter"])
                rows["content"].append(m["content"])
                rows["ts_us"].append(
                    pd.Timestamp(f"{m['date']} {m['time']}").value // 1000
                )
        df = pd.DataFrame(rows)
        out = pd.DataFrame(
            {
                "service": service,
                "level": df["level"],
                "event_id": (
                    mine_event_ids(
                        df["content"], self.merge_percent, self.min_event_count
                    )
                    if len(df)
                    else pd.Series([], dtype=np.int64)
                ),
                "reporter": df["reporter"],
                "content": df["content"],
                "original_timestamp_us": df["ts_us"].astype(np.int64)
                + self.tz_shift_us
                if len(df)
                else pd.Series([], dtype=np.int64),
            }
        )
        ts = (
            out["original_timestamp_us"].to_numpy(dtype=np.int64)
            if len(out)
            else np.array([], dtype=np.int64)
        )
        out["timestamp_us"] = bucket_us(ts, self.rounding_us)
        return out

    def __call__(self, files: pa.Table) -> pd.DataFrame:
        frames = [self._parse_file(p) for p in files["path"].to_pylist()]
        out = pd.concat(frames, ignore_index=True) if frames else pd.DataFrame()
        return out


def read_structured_logs(
    paths: str | list[str],
    rounding_us: int = 30_000_000,
    tz_shift_hours: int = 0,
) -> ray.data.Dataset:
    """One task per log file (the AEL mining unit) → parsed/mined rows."""
    import glob
    import os

    if isinstance(paths, str):
        paths = [paths]
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            files.extend(sorted(glob.glob(os.path.join(p, "*.log"))))
        else:
            files.append(p)
    items = ray.data.from_items(
        [{"path": p} for p in files], override_num_blocks=max(1, len(files))
    )
    return items.map_batches(
        LogParser(rounding_us=rounding_us, tz_shift_hours=tz_shift_hours),
        batch_format="pyarrow",
        batch_size=1,
    )
