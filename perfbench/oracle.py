"""Engine-independent oracle for the rollup tiers.

Nothing here imports the engine: the expected tiers are recomputed from the
input parquet files with pyarrow, numpy and pandas only, by formulations that
differ from the engine's own (a per-row token checksum loop instead of
segment sums, a pandas groupby instead of the partial/merge combiners).

What is checked, per tier (1m/5m/1h), against the written output:

- dedup keeps the first row per ``doc_id`` in (file order, row) order;
- ``event_time_us`` is recomputed from ``doc_id`` with the documented
  formula ``minute * 60e6 + (seq * 997003) % 60e6`` and bucketed to the
  nearest grid point, ``(t + w//2) // w * w``;
- every observed (source, bucket) exists exactly once, with ``cnt``,
  ``sum_v``, ``min_v`` and ``max_v`` equal to the oracle's;
- ``p95_v`` equals ``np.quantile(v, 0.95)`` where ``cnt <= cap``; above the
  cap its rank error is within one compaction run, ``ceil(n / (cap/2)) / n``;
- rows with ``filled=True`` have ``cnt == 0`` and are exactly the grid gaps
  between each source's first and last observed bucket;
- each tier manifest's ``total_rows`` equals the rows written, and its
  per-source ``token_checksums`` equal the oracle's per-row
  sum((i+1) * (t_i+1)) totals mod 2**64 (empty when tokens are off).

:func:`self_test` proves the check can fail: it must pass on a copy of an
unmodified output and fail on copies with one perturbed tier value, one
dropped gap-fill row and one altered token checksum.
"""

from __future__ import annotations

import json
import math
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

TIERS = {"1m": 60_000_000, "5m": 300_000_000, "1h": 3_600_000_000}
QUANTILE_CAP = 4096
P = 0.95
SEQ_OFFSET_MULTIPLIER = 997_003
MASK64 = (1 << 64) - 1
MAX_ERRORS = 8


def corpus_rows(files: list[str]) -> pd.DataFrame:
    """One row per input row, in (file order, row) order: file_idx, doc_id,
    source, n_tok and the per-row token checksum (as a Python-int loop over
    rows, each row one dot product — no shared offsets arithmetic)."""
    frames = []
    for fidx, path in enumerate(files):
        t = pq.read_table(path, columns=["doc_id", "source", "n_tok", "tokens"])
        tokens = t["tokens"].combine_chunks()
        vals = tokens.flatten().to_numpy(zero_copy_only=False).astype(np.int64) + 1
        lengths = tokens.value_lengths().to_numpy(zero_copy_only=False)
        ck = np.empty(len(lengths), dtype=np.uint64)
        pos = 0
        for r, n in enumerate(lengths.tolist()):
            seg = vals[pos : pos + n]
            pos += n
            ck[r] = int(np.dot(np.arange(1, n + 1, dtype=np.int64), seg)) & MASK64
        frames.append(
            pd.DataFrame(
                {
                    "file_idx": np.full(len(t), fidx, dtype=np.int32),
                    "doc_id": t["doc_id"].to_pylist(),
                    "source": t["source"].to_pylist(),
                    "n_tok": t["n_tok"].to_numpy(zero_copy_only=False),
                    "token_ck": ck,
                }
            )
        )
    return pd.concat(frames, ignore_index=True)


def load_rows(files: list[str], cache_path: str) -> pd.DataFrame:
    """:func:`corpus_rows`, cached as parquet next to the corpus."""
    if os.path.exists(cache_path):
        return pq.read_table(cache_path).to_pandas()
    rows = corpus_rows(files)
    tmp = cache_path + ".tmp"
    pq.write_table(pa.Table.from_pandas(rows, preserve_index=False), tmp)
    os.replace(tmp, cache_path)
    return rows


class Expected:
    """Oracle tiers for one set of input files (given by file_idx)."""

    def __init__(self, rows: pd.DataFrame, file_idx: list[int]):
        sel = rows[rows["file_idx"].isin(file_idx)]
        order = {f: i for i, f in enumerate(file_idx)}
        sel = sel.assign(_o=sel["file_idx"].map(order)).sort_values(
            "_o", kind="stable"
        )
        kept = sel.drop_duplicates(subset="doc_id", keep="first")
        parts = pc.split_pattern(pa.array(kept["doc_id"], pa.string()), "/")
        minute = pc.cast(pc.list_element(parts, 1), pa.int64()).to_numpy()
        seq = pc.cast(pc.list_element(parts, 2), pa.int64()).to_numpy()
        t = minute * 60_000_000 + (seq * SEQ_OFFSET_MULTIPLIER) % 60_000_000
        self.n_input = len(sel)
        self.n_kept = len(kept)
        self.token_totals: dict[str, int] = {}
        for src, cks in kept.groupby("source")["token_ck"]:
            self.token_totals[str(src)] = sum(int(c) for c in cks) & MASK64
        self.tiers: dict[str, dict] = {}
        base = pd.DataFrame(
            {"source": kept["source"].to_numpy(), "v": kept["n_tok"].to_numpy(np.float64)}
        )
        for name, w in TIERS.items():
            df = base.assign(bucket_us=(t + w // 2) // w * w)
            groups = {}
            for (src, b), v in df.groupby(["source", "bucket_us"])["v"]:
                vs = np.sort(v.to_numpy())
                groups[(str(src), int(b))] = vs
            gaps = {}
            for src in sorted({k[0] for k in groups}):
                bs = sorted(b for s, b in groups if s == src)
                grid = set(range(bs[0], bs[-1] + w, w))
                gaps[src] = grid - set(bs)
            self.tiers[name] = {"groups": groups, "gaps": gaps}


def _read_tier(out_dir: str, name: str) -> pd.DataFrame:
    d = os.path.join(out_dir, "rollup", "data", f"tier={name}")
    df = pads.dataset(d, partitioning="hive").to_table().to_pandas()
    df["source"] = df["source"].astype(str)
    return df


def _rank_error(sorted_v: np.ndarray, q: float) -> float:
    n = len(sorted_v)
    lo = int(np.searchsorted(sorted_v, q, side="left"))
    hi = int(np.searchsorted(sorted_v, q, side="right"))
    target = P * n
    return max(0.0, lo - target, target - hi) / n


def check_tier(df: pd.DataFrame, exp: dict, name: str) -> list[str]:
    errs: list[str] = []
    groups, gaps = exp["groups"], exp["gaps"]
    filled = df["filled"].astype(bool).to_numpy()
    obs = df[~filled]
    keys = list(zip(obs["source"], obs["bucket_us"].astype(np.int64)))
    if len(set(keys)) != len(keys):
        errs.append(f"{name}: duplicate (source, bucket) rows")
    missing = set(groups) - set(keys)
    extra = set(keys) - set(groups)
    if missing:
        errs.append(f"{name}: {len(missing)} oracle buckets missing, e.g. {min(missing)}")
    if extra:
        errs.append(f"{name}: {len(extra)} unexpected buckets, e.g. {min(extra)}")
    cols = {c: obs[c].to_numpy() for c in ("cnt", "sum_v", "min_v", "max_v", "p95_v")}
    for i, k in enumerate(keys):
        vs = groups.get(k)
        if vs is None:
            continue
        want = (len(vs), float(vs.sum()), float(vs[0]), float(vs[-1]))
        got = (int(cols["cnt"][i]), float(cols["sum_v"][i]),
               float(cols["min_v"][i]), float(cols["max_v"][i]))
        if got != want:
            errs.append(f"{name} {k}: cnt/sum/min/max {got} != oracle {want}")
        q = float(cols["p95_v"][i])
        n = len(vs)
        if n <= QUANTILE_CAP:
            if q != float(np.quantile(vs, P)):
                errs.append(f"{name} {k}: p95 {q} != exact {float(np.quantile(vs, P))}")
        else:
            limit = math.ceil(n / (QUANTILE_CAP // 2)) / n
            err = _rank_error(vs, q)
            if err > limit:
                errs.append(f"{name} {k}: p95 rank error {err:.5f} > {limit:.5f}")
        if len(errs) >= MAX_ERRORS:
            return errs
    fill = df[filled]
    if len(fill) and (fill["cnt"].to_numpy() != 0).any():
        errs.append(f"{name}: filled rows with cnt != 0")
    got_gaps: dict[str, set] = {}
    for src, b in zip(fill["source"], fill["bucket_us"].astype(np.int64)):
        got_gaps.setdefault(src, set()).add(int(b))
    for src in sorted(set(gaps) | set(got_gaps)):
        want, got = gaps.get(src, set()), got_gaps.get(src, set())
        if want != got:
            errs.append(
                f"{name} {src}: filled buckets {len(got)} != grid gaps {len(want)}"
            )
    return errs


def check_output(out_dir: str, exp: Expected, with_tokens: bool) -> list[str]:
    """Every mismatch between the written tiers/manifests and the oracle
    (empty list = the output is correct)."""
    errs: list[str] = []
    want_ck = exp.token_totals if with_tokens else {}
    for name in TIERS:
        try:
            df = _read_tier(out_dir, name)
            with open(os.path.join(out_dir, "manifests", f"{name}.json")) as f:
                man = json.load(f)
        except (OSError, ValueError, KeyError) as e:
            errs.append(f"{name}: unreadable output ({type(e).__name__}: {e})")
            continue
        errs += check_tier(df, exp.tiers[name], name)
        if int(man.get("total_rows", -1)) != len(df):
            errs.append(f"{name}: manifest total_rows {man.get('total_rows')} != {len(df)}")
        got_ck = {str(k): int(v) & MASK64 for k, v in man.get("token_checksums", {}).items()}
        if got_ck != want_ck:
            bad = sorted(set(got_ck.items()) ^ set(want_ck.items()))[:2]
            errs.append(f"{name}: token_checksums differ from oracle, e.g. {bad}")
    return errs


def filled_points(out_dir: str) -> int:
    return int(sum(_read_tier(out_dir, n)["filled"].astype(bool).sum() for n in TIERS))


# -- self-test ---------------------------------------------------------------


def _copy_output(out_dir: str, dst: str) -> None:
    shutil.rmtree(dst, ignore_errors=True)
    for sub in (os.path.join("rollup", "data"), "manifests"):
        shutil.copytree(os.path.join(out_dir, sub), os.path.join(dst, sub))


def _tier_files(root: str, name: str) -> list[str]:
    d = os.path.join(root, "rollup", "data", f"tier={name}")
    return sorted(
        os.path.join(dp, f) for dp, _, fs in os.walk(d) for f in fs if f.endswith(".parquet")
    )


def _perturb_value(root: str) -> bool:
    for path in _tier_files(root, "1m"):
        t = pq.read_table(path)
        df = t.to_pandas()
        idx = np.flatnonzero(~df["filled"].astype(bool).to_numpy())
        if len(idx):
            df.loc[df.index[idx[0]], "sum_v"] += 1.0
            pq.write_table(pa.Table.from_pandas(df, schema=t.schema, preserve_index=False), path)
            return True
    return False


def _drop_filled_row(root: str) -> bool:
    for name in TIERS:
        for path in _tier_files(root, name):
            t = pq.read_table(path)
            filled = t["filled"].to_numpy(zero_copy_only=False)
            idx = np.flatnonzero(filled)
            if len(idx):
                keep = np.ones(len(t), dtype=bool)
                keep[idx[0]] = False
                pq.write_table(t.filter(pa.array(keep)), path)
                return True
    return False


def _alter_checksum(root: str) -> bool:
    path = os.path.join(root, "manifests", "1m.json")
    with open(path) as f:
        man = json.load(f)
    cks = man.get("token_checksums") or {}
    if cks:
        src = sorted(cks)[0]
        cks[src] = (int(cks[src]) + 1) & MASK64
    else:
        cks = {"web-crawl": 1}
    man["token_checksums"] = cks
    with open(path, "w") as f:
        json.dump(man, f)
    return True


PERTURBATIONS = {
    "perturbed_tier_value": _perturb_value,
    "dropped_gapfill_row": _drop_filled_row,
    "altered_token_checksum": _alter_checksum,
}


def self_test(out_dir: str, exp: Expected, with_tokens: bool, scratch: str) -> list[str]:
    """Problems with the check itself (empty list = the check passes the
    unmodified output and catches every perturbation)."""
    problems: list[str] = []
    try:
        _copy_output(out_dir, scratch)
        errs = check_output(scratch, exp, with_tokens)
        if errs:
            problems.append(f"unmodified copy failed the check: {errs[0]}")
        for name, perturb in PERTURBATIONS.items():
            _copy_output(out_dir, scratch)
            if not perturb(scratch):
                problems.append(f"{name}: nothing to perturb")
            elif not check_output(scratch, exp, with_tokens):
                problems.append(f"{name}: the check did not detect it")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return problems
