"""Mergeable sketches: the quantile state of the rollups, HyperLogLog and
Count-Min.

min/max/sum/count compose across partial aggregates and across tiers;
quantiles don't (SURVEY §7.6). Partials therefore carry a *quantile state*
per group: its distinct values in ascending order, each with the number of
samples that hold it — sorted (value, count) pairs.

- EXACT (at most ``cap`` distinct values): the pairs are the group's
  multiset itself. A merge unions the pairs and adds the counts of equal
  values, so the state is a function of the multiset alone: the same bytes
  whatever the split into partials, the merge order or the partition
  count. p95 is read from the cumulative counts: numpy's linear quantile
  (DuckDB's ``quantile_cont``) from the two order statistics around its
  virtual index, with numpy's own gamma and lerp arithmetic, so it is
  bit-equal to ``np.quantile`` on the expanded values.
- GRIDDED (more than ``cap`` distinct values): every value is mapped onto a
  fixed relative-error grid, the float's binary exponent and its top
  ``GRID_BITS`` mantissa bits, the cell's midpoint standing for the cell
  (DDSketch's linearly interpolated mapping; Masson, Rim and Lee, VLDB
  2019), and the state carries a gridded flag. The map acts on each value
  alone and maps a midpoint to itself, so grid(A + B) = grid(grid(A) + B);
  and a part never has more distinct values than the union, so a group is
  gridded exactly when its multiset has more than ``cap`` distinct values.
  The state stays a function of the multiset. The map is monotone, so
  every order statistic, and with it p95, is within a relative
  ``2**-(GRID_BITS + 1)`` of the exact one; the state is bounded by the
  grid cells the values span, not by the sample count. The map is exact
  float arithmetic (``frexp``/``ldexp``), so the cells do not depend on
  the host's libm.

Serialized per group as one binary blob, so it rides through Arrow
``binary`` columns between the partial and final aggregation stages and in
the stored tier state: int64 n, int64 flag (2 exact, 3 gridded), n float64
values ascending, n int32 counts. Values are never NaN (a NaN is not a
sample) and a zero is stored as +0.0. The functions below act on every
group of a column at once.

In a stored file (``rollup/state``, ``deduped/partials``) the blob column
``qsum`` is written by ``fsutil.write_parquet`` like every binary column:
zstd, with no min/max statistics (no reader prunes on a blob's bytes) and
no dictionary. The encoding is not part of the format: a file written
with other Parquet settings reads back to the same blobs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# the blob format, recorded in the fingerprints of every output that stores
# these blobs: an out_dir written in another format rebuilds, never merges
PAIR_FORMAT = "value-count-pairs/1"

GRID_BITS = 6  # 64 cells per octave: relative error at most 2**-7
_EXACT, _GRIDDED = 2, 3
_HDR = 16
_PAIR = 12  # float64 value + int32 count
_TINY = np.finfo(np.float64).tiny


def grid_values(v: np.ndarray) -> np.ndarray:
    """Each value's grid cell midpoint: the binary exponent and the top
    ``GRID_BITS`` mantissa bits of ``|v|`` kept, the rest set to the cell
    middle. Idempotent and monotone; infinities stay, zeros and subnormals
    map to +0.0."""
    a = np.abs(v)
    m, e = np.frexp(a)  # a = m * 2**e, m in [0.5, 1)
    scale = float(1 << (GRID_BITS + 1))
    r = np.ldexp((np.floor(m * scale) + 0.5) / scale, e)
    r[a < _TINY] = 0.0
    return np.copysign(r, v) + 0.0


def _pair_heads(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Positions where (g, v), sorted, changes: the first of each run."""
    new = np.ones(len(g), dtype=bool)
    new[1:] = (g[1:] != g[:-1]) | (v[1:] != v[:-1])
    return np.flatnonzero(new)


def order_in_groups(group: np.ndarray, n_groups: int, key: np.ndarray) -> np.ndarray:
    """Permutation that orders rows by (``group``, ``key``), for group ids
    in ``[0, n_groups)``: a sort on the key, then a stable sort on the
    group id (a radix sort on 16-bit ids). Rows tied on both keep no
    particular order."""
    order = np.argsort(key)
    gid = group[order].astype(np.uint16 if n_groups <= 1 << 16 else np.int64)
    return order[np.argsort(gid, kind="stable")]


def merge_pairs(
    group: np.ndarray,
    values: np.ndarray,
    counts: np.ndarray,
    gridded: np.ndarray,
    cap: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The state of every group from its pairs (``group`` id per pair, in
    any order) and whether any of its inputs is gridded (``gridded``, one
    bool per group). Returns the pairs per group, the gridded flag per
    group, and the values and counts (int64), grouped by id and ascending
    within each group, equal values merged."""
    n_groups = len(gridded)
    values = values + 0.0  # -0.0 and 0.0 are one value: store +0.0
    order = order_in_groups(group, n_groups, values)
    g, v = group[order], values[order]
    heads = _pair_heads(g, v)
    g, v = g[heads], v[heads]
    c = (
        np.add.reduceat(counts[order], heads, dtype=np.int64)
        if len(heads)
        else np.zeros(0, dtype=np.int64)
    )
    n = np.bincount(g, minlength=n_groups)
    gridded = gridded | (n > cap)
    if gridded.any():
        on = gridded[g]
        v[on] = grid_values(v[on])
        # the grid is monotone: each group's values stay ascending
        heads = _pair_heads(g, v)
        g, v, c = g[heads], v[heads], np.add.reduceat(c, heads)
        n = np.bincount(g, minlength=n_groups)
    return n, gridded, v, c


def linear_quantiles(
    n: np.ndarray, values: np.ndarray, counts: np.ndarray, q: float
) -> np.ndarray:
    """``np.quantile`` (method 'linear') of every group's expanded values,
    bit-equal, for groups of ``n`` pairs laid out one after another (as
    :func:`merge_pairs` returns them); NaN for a group with no pairs. The
    order statistics around numpy's virtual index are found in the
    cumulative counts, for all groups at once."""
    if not len(values):
        return np.full(len(n), np.nan)
    cum = np.cumsum(counts, dtype=np.int64)
    at = np.zeros(len(n) + 1, dtype=np.int64)
    np.cumsum(n, out=at[1:])
    before = np.concatenate([[0], cum])[at]
    size = before[1:] - before[:-1]
    # numpy's virtual index, gamma and lerp arithmetic
    vi = (size - 1).astype(np.float64) * q
    prev = np.floor(vi)
    above = vi >= size - 1
    prev[above] = -1  # numpy takes the last element there, gamma = vi + 1
    lo = np.where(above, size - 1, prev).astype(np.int64)
    hi = np.where(above, size - 1, lo + 1)
    has = size > 0
    start = before[:-1]

    def stat(k: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(cum, start + np.where(has, k, 0), side="right")
        return values[np.minimum(pos, len(values) - 1)]

    a, b = stat(lo), stat(hi)
    gamma = vi - prev
    diff = b - a
    out = a + diff * gamma
    ge = gamma >= 0.5
    out[ge] = (b - diff * (1 - gamma))[ge]
    out[~has] = np.nan
    return out


def _layout(n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where consecutive blobs of ``n`` pairs keep their fields, in int32
    words (a blob is 4 header words, 2 per value, 1 per count): each
    blob's first word (and the end), and per pair the word of its value's
    low half and of its count."""
    offs = np.zeros(len(n) + 1, dtype=np.int64)
    np.cumsum(_HDR // 4 + 3 * n, out=offs[1:])
    first = np.zeros(len(n), dtype=np.int64)  # global index of a blob's pair 0
    np.cumsum(n[:-1], out=first[1:])
    at = offs[:-1] + _HDR // 4 - first
    j = np.arange(int(n.sum()))
    return offs, np.repeat(at - first, n) + 2 * j, np.repeat(at + 2 * n, n) + j


def to_blobs(
    n: np.ndarray, gridded: np.ndarray, values: np.ndarray, counts: np.ndarray
) -> pa.Array:
    """The blob column of groups of ``n`` pairs laid out one after another:
    one buffer and its offsets, no per-group Python."""
    if len(counts) and int(counts.max()) > np.iinfo(np.int32).max:
        raise OverflowError("a quantile state count does not fit in int32")
    n = np.asarray(n, dtype=np.int64)
    offs, vw, cw = _layout(n)
    if 4 * offs[-1] > np.iinfo(np.int32).max:
        raise OverflowError("quantile state blobs exceed 2 GiB in one column")
    words = np.zeros(offs[-1], dtype="<i4")
    words[offs[:-1]] = n
    words[offs[:-1] + 2] = np.where(gridded, _GRIDDED, _EXACT)
    halves = np.ascontiguousarray(values, dtype="<f8").view("<i4")
    words[vw] = halves[0::2]
    words[vw + 1] = halves[1::2]
    words[cw] = counts
    return pa.Array.from_buffers(
        pa.binary(),
        len(n),
        [None, pa.py_buffer((4 * offs).astype(np.int32)), pa.py_buffer(words)],
    )


def from_blobs(
    blobs: pa.Array,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(pairs per blob, gridded per blob, values, counts) of a blob column,
    the pairs laid out blob after blob. Raises ``ValueError`` on a blob in
    another format."""
    if isinstance(blobs, pa.ChunkedArray):
        blobs = blobs.combine_chunks()
    if blobs.null_count:
        raise ValueError("a quantile state blob is null")
    if not len(blobs):
        none = np.zeros(0, dtype=np.int64)
        return none, none.astype(bool), none.astype(np.float64), none.astype("<i4")
    offs = np.frombuffer(blobs.buffers()[1], dtype=np.int32)[
        blobs.offset : blobs.offset + len(blobs) + 1
    ].astype(np.int64)
    lens = np.diff(offs)
    n = (lens - _HDR) // _PAIR
    ok = (lens >= _HDR) & ((lens - _HDR) % _PAIR == 0)
    if ok.all():
        words = np.frombuffer(
            blobs.buffers()[2], dtype="<i4", count=(offs[-1] - offs[0]) // 4,
            offset=offs[0],
        )
        woffs, vw, cw = _layout(n)
        flag = words[woffs[:-1] + 2]
        ok = (words[woffs[:-1]] == n) & np.isin(flag, (_EXACT, _GRIDDED))
    if not ok.all():
        raise ValueError(
            "qsum blob is not in the (value, count) pair format "
            f"{PAIR_FORMAT!r}: rebuild the state that holds it"
        )
    halves = np.empty((len(vw), 2), dtype="<i4")
    halves[:, 0] = words[vw]
    halves[:, 1] = words[vw + 1]
    return n, flag == _GRIDDED, halves.view("<f8").ravel(), words[cw]


class HyperLogLog:
    """Mergeable approximate-distinct sketch (Flajolet et al. 2007, the
    public HLL algorithm). 2^p byte registers; standard error ~1.04/sqrt(2^p)
    (p=12 -> 4096 B, ~1.6%).

    The scale path for running/global distinct counts: the exact
    first-occurrence plan in ``stages/cumulative.py`` shuffles one row per
    (key, value) pair — at 100 TB the distinct sets themselves become the
    shuffle; per-key HLL partials make the exchange O(keys x 2^p) bytes.
    Deterministic (hash-driven, no RNG): same inputs -> same registers on
    any cluster shape.
    """

    __slots__ = ("p", "m", "reg")

    def __init__(self, p: int = 12, reg: np.ndarray | None = None):
        self.p = p
        self.m = 1 << p
        self.reg = (
            np.zeros(self.m, dtype=np.uint8) if reg is None else
            np.asarray(reg, dtype=np.uint8)
        )

    @staticmethod
    def index_rank(h: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
        """(register index, rank) per hash — the vectorized HLL kernel,
        exposed so callers can bulk-update many registers at once
        (``np.maximum.at(regs2d, (group, idx), rank)``)."""
        h = np.asarray(h, dtype=np.uint64)
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        with np.errstate(over="ignore"):
            w = h << np.uint64(p)  # low 64-p bits, left-aligned
        rank = np.full(len(h), 64 - p + 1, dtype=np.uint8)
        nz = w != 0
        if nz.any():
            wf = w[nz].astype(np.float64)
            # float64 rounding can overshoot the true MSB by one binade
            # (never more): clip the w≈2^64 → log2==64.0 case to 63 FIRST
            # (1<<64 is an undefined C shift), then correct the remaining
            # exact-power overshoot with a defined shift
            msb = np.minimum(np.floor(np.log2(wf)).astype(np.int64), 63)
            too_big = (np.uint64(1) << msb.astype(np.uint64)) > w[nz]
            msb -= too_big
            rank[nz] = np.minimum(63 - msb, 64 - p) + 1
        return idx, rank

    def add_hashes(self, h: np.ndarray) -> "HyperLogLog":
        h = np.asarray(h, dtype=np.uint64)
        if len(h) == 0:
            return self
        idx, rank = self.index_rank(h, self.p)
        np.maximum.at(self.reg, idx, rank)
        return self

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        if other.p != self.p:
            raise ValueError("cannot merge HLLs of different precision")
        np.maximum(self.reg, other.reg, out=self.reg)
        return self

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        e = alpha * m * m / float(np.sum(np.exp2(-self.reg.astype(np.float64))))
        zeros = int(np.count_nonzero(self.reg == 0))
        if e <= 2.5 * m and zeros:
            return m * np.log(m / zeros)  # linear counting, small range
        return e

    def to_bytes(self) -> bytes:
        return self.reg.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "HyperLogLog":
        reg = np.frombuffer(b, dtype=np.uint8)
        p = int(np.log2(len(reg)))
        return cls(p=p, reg=reg.copy())


class CountMinSketch:
    """Mergeable approximate frequency sketch (Cormode & Muthukrishnan
    2005). Estimates overcount by at most eps*N with probability 1-delta
    (width = ceil(e/eps), depth = ceil(ln(1/delta))); merge = elementwise
    add. Deterministic row seeds (no RNG)."""

    __slots__ = ("width", "depth", "table")

    _ROW_SEEDS = np.array(
        [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
         0x27D4EB2F165667C5, 0x85EBCA77C2B2AE63, 0xFF51AFD7ED558CCD],
        dtype=np.uint64,
    )

    def __init__(self, width: int = 2048, depth: int = 4,
                 table: np.ndarray | None = None):
        if depth > len(self._ROW_SEEDS):
            raise ValueError(f"depth <= {len(self._ROW_SEEDS)}")
        self.width = width
        self.depth = depth
        self.table = (
            np.zeros((depth, width), dtype=np.int64) if table is None else
            np.asarray(table, dtype=np.int64).reshape(depth, width)
        )

    def _slots(self, h: np.ndarray) -> np.ndarray:
        from ..stages._shuffle import _splitmix64

        h = np.asarray(h, dtype=np.uint64)
        with np.errstate(over="ignore"):
            mixed = _splitmix64(h[None, :] ^ self._ROW_SEEDS[: self.depth, None])
        return (mixed % np.uint64(self.width)).astype(np.int64)

    def add_hashes(self, h: np.ndarray, counts: np.ndarray | None = None) -> "CountMinSketch":
        if len(h) == 0:
            return self
        slots = self._slots(h)
        c = np.ones(len(h), dtype=np.int64) if counts is None else np.asarray(counts, dtype=np.int64)
        for d in range(self.depth):
            np.add.at(self.table[d], slots[d], c)
        return self

    def estimate_hashes(self, h: np.ndarray) -> np.ndarray:
        if len(h) == 0:
            return np.empty(0, dtype=np.int64)
        slots = self._slots(h)
        ests = np.stack([self.table[d][slots[d]] for d in range(self.depth)])
        return ests.min(axis=0)

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        if (other.width, other.depth) != (self.width, self.depth):
            raise ValueError("cannot merge CMS of different shapes")
        self.table += other.table
        return self

    def to_bytes(self) -> bytes:
        # self-describing: (width, depth) header so from_bytes can never
        # silently reinterpret a differently-shaped sketch
        hdr = np.array([self.width, self.depth], dtype=np.int64)
        return hdr.tobytes() + self.table.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "CountMinSketch":
        hdr = np.frombuffer(b[:16], dtype=np.int64)
        width, depth = int(hdr[0]), int(hdr[1])
        t = np.frombuffer(b[16:], dtype=np.int64).copy()
        if len(t) != width * depth:
            raise ValueError(
                f"CMS blob size {len(t)} != width*depth {width * depth}"
            )
        return cls(width=width, depth=depth, table=t)
