"""Per-stage metrics capture (reference @timer analog, SURVEY §2.12 X2/X4).

The reference prints wall-clock per stage (``util/timedecorator.py:1-16``)
and corpus folder sizes (``JoinManager.py:197-223``); the engine captures
the same into the run-metrics dict / lineage manifests.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager


@contextmanager
def stage_timer(metrics: dict, name: str):
    """with stage_timer(m, 'parse'): ...  → m['stage_seconds']['parse']."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        metrics.setdefault("stage_seconds", {})[name] = time.perf_counter() - t0


def corpus_stats(path: str) -> dict:
    """Folder sizes per top-level subdir (X4 analog)."""
    out: dict[str, int] = {}
    if not os.path.isdir(path):
        return out
    for entry in sorted(os.listdir(path)):
        p = os.path.join(path, entry)
        if os.path.isdir(p):
            total = 0
            for root, _, files in os.walk(p):
                for f in files:
                    total += os.path.getsize(os.path.join(root, f))
            out[entry] = total
        else:
            out[entry] = os.path.getsize(p)
    return out
