"""Delta-of-delta timestamp + Gorilla XOR value compression (chunked).

New-engine capability per the north rule (the reference has no compression
— its intermediates are whole Parquet/CSV files, ``MetricsParser.py:139-143``);
the algorithm follows the public Gorilla paper (Pelkonen et al., "Gorilla:
A Fast, Scalable, In-Memory Time Series Database", VLDB 2015):

- timestamps: header t0; first delta zigzag-varint; then delta-of-delta D
  encoded '0' (D=0), '10'+7b, '110'+9b, '1110'+12b, '1111'+64b.
- values (float64 bits): first raw 64b; then XOR with previous: '0' (same),
  '10'+meaningful-bits-in-previous-window, '11'+5b leading+6b length+bits.

Chunking: a chunk is <= chunk_points consecutive points of ONE (source)
series, sorted by bucket — the unit of compression AND of resume (SURVEY
§7.6: partition = unit of compression + resume). Encoders are sequential
by nature (prev-timestamp/prev-value state), so ordering is established
per group; Ray Data blocks carry no global order (SURVEY §2.6 O1 note).

Decompression is a stateless per-chunk map → a plain task ``map_batches``
function (each chunk row is independent; no actor pool to hold a CPU).
Exact round-trip is asserted in tests (bit-identical float64 / int64).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data


class BitWriter:
    __slots__ = ("buf", "acc", "nbits")

    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, bits: int) -> None:
        self.acc = (self.acc << bits) | (value & ((1 << bits) - 1))
        self.nbits += bits
        while self.nbits >= 8:
            self.nbits -= 8
            self.buf.append((self.acc >> self.nbits) & 0xFF)
        self.acc &= (1 << self.nbits) - 1

    def getvalue(self) -> bytes:
        if self.nbits:
            return bytes(self.buf) + bytes([(self.acc << (8 - self.nbits)) & 0xFF])
        return bytes(self.buf)


class BitReader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self, bits: int) -> int:
        out = 0
        remaining = bits
        while remaining > 0:
            byte_i, bit_i = divmod(self.pos, 8)
            avail = 8 - bit_i
            take = min(avail, remaining)
            chunk = (self.data[byte_i] >> (avail - take)) & ((1 << take) - 1)
            out = (out << take) | chunk
            self.pos += take
            remaining -= take
        return out


def _zigzag(v: int) -> int:
    return (v << 1) ^ (v >> 63) if v < 0 else v << 1


def _unzigzag(v: int) -> int:
    return (v >> 1) ^ -(v & 1)


def _pack_codes(codes: np.ndarray, nbits: np.ndarray) -> bytes:
    """MSB-first pack of variable-width codes (each <= 64 bits) into bytes.

    Bit-identical to :class:`BitWriter` output (big-endian bit order,
    zero-padded tail) but vectorized: word index + in-word offset per code,
    then an unbuffered scatter-OR into a uint64 stream. A code straddling
    a word boundary contributes its high part to word i and low part to
    word i+1.
    """
    codes = codes.astype(np.uint64)
    nbits = nbits.astype(np.int64)
    if len(codes) == 0:
        return b""
    ends = np.cumsum(nbits)
    total = int(ends[-1])
    starts = ends - nbits
    out = np.zeros((total + 63) // 64 + 1, dtype=np.uint64)
    word = starts >> 6
    off = starts & 63
    width_mask = np.where(
        nbits >= 64,
        np.uint64(0xFFFFFFFFFFFFFFFF),
        (np.uint64(1) << nbits.astype(np.uint64)) - np.uint64(1),
    )
    c = codes & width_mask
    shift1 = 64 - off - nbits  # >= 0: fits in one word; < 0: straddles
    fits = shift1 >= 0
    hi = np.where(
        fits,
        c << np.where(fits, shift1, 0).astype(np.uint64),
        c >> np.where(fits, 0, -shift1).astype(np.uint64),
    )
    lo = np.where(
        fits,
        np.uint64(0),
        c << np.where(fits, 0, 64 + shift1).astype(np.uint64),
    )
    np.bitwise_or.at(out, word, hi)
    np.bitwise_or.at(out, word + 1, lo)
    return out.astype(">u8").tobytes()[: (total + 7) // 8]


def encode_timestamps(ts: np.ndarray) -> bytes:
    """Delta-of-delta encode (vectorized; bit-identical to
    :func:`_encode_timestamps_scalar`, the readable spec — cross-checked in
    tests). Domain: deltas and delta-of-deltas within int64 (always true
    for microsecond timestamps)."""
    ts = ts.astype(np.int64)
    n = len(ts)
    codes = [np.uint64(ts.view(np.uint64)[0])]
    bits = [64]
    if n >= 2:
        deltas = np.diff(ts)
        fd = int(deltas[0])
        codes.append(np.uint64(((fd << 1) ^ (fd >> 63)) & ((1 << 64) - 1)))
        bits.append(64)
    if n <= 2:
        return _pack_codes(np.array(codes), np.array(bits))
    dod = deltas[1:] - deltas[:-1]
    cls = np.select(
        [
            dod == 0,
            (dod >= -63) & (dod <= 64),
            (dod >= -255) & (dod <= 256),
            (dod >= -2047) & (dod <= 2048),
        ],
        [0, 1, 2, 3],
        default=4,
    )
    tag = np.array([0b0, 0b10, 0b110, 0b1110, 0b1111], dtype=np.uint64)[cls]
    tag_bits = np.array([1, 2, 3, 4, 4], dtype=np.int64)[cls]
    pay = np.select(
        [cls == 1, cls == 2, cls == 3],
        [dod + 63, dod + 255, dod + 2047],
        default=0,
    ).astype(np.uint64)
    pay_bits = np.array([0, 7, 9, 12, 64], dtype=np.int64)[cls]
    big = cls == 4  # 64-bit escape: zigzag payload, emitted as 2nd entry
    if big.any():
        d = dod[big]
        pay[big] = ((d << np.int64(1)) ^ (d >> np.int64(63))).view(np.uint64)
    small = ~big
    ncodes = 2 + int(small.sum()) + 2 * int(big.sum())
    out_c = np.empty(ncodes, dtype=np.uint64)
    out_b = np.empty(ncodes, dtype=np.int64)
    out_c[:2], out_b[:2] = codes, bits
    entry_cnt = np.where(big, 2, 1)
    pos = 2 + np.concatenate([[0], np.cumsum(entry_cnt)[:-1]])
    out_c[pos[small]] = (tag[small] << pay_bits[small].astype(np.uint64)) | pay[small]
    out_b[pos[small]] = tag_bits[small] + pay_bits[small]
    out_c[pos[big]] = tag[big]
    out_b[pos[big]] = 4
    out_c[pos[big] + 1] = pay[big]
    out_b[pos[big] + 1] = 64
    return _pack_codes(out_c, out_b)


def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized int.bit_length() for uint64 arrays."""
    bl = np.zeros(len(x), dtype=np.int64)
    v = x.copy()
    for s in (32, 16, 8, 4, 2, 1):
        m = v >= (np.uint64(1) << np.uint64(s))
        bl[m] += s
        v[m] >>= np.uint64(s)
    return bl + (x > 0)


def encode_values(vals: np.ndarray) -> bytes:
    """Gorilla XOR encode (vectorized; bit-identical to
    :func:`_encode_values_scalar`). The leading/tailing-zero window state
    is sequential, but it only CHANGES on '11' control codes — so runs of
    zero-XOR points and runs that fit the current window are emitted as
    vectorized spans, with Python iterations only at window resets."""
    bits_arr = np.ascontiguousarray(vals, dtype=np.float64).view(np.uint64)
    n = len(bits_arr)
    xor = np.concatenate([[np.uint64(0)], bits_arr[1:] ^ bits_arr[:-1]])
    nz = xor != np.uint64(0)
    lead = np.zeros(n, dtype=np.int64)
    tail = np.zeros(n, dtype=np.int64)
    if nz.any():
        x = xor[nz]
        lead[nz] = np.minimum(64 - _bit_length_u64(x), 31)
        tail[nz] = _bit_length_u64(x & (~x + np.uint64(1))) - 1
    code_list = [np.array([bits_arr[0]], dtype=np.uint64)]
    bit_list = [np.array([64], dtype=np.int64)]
    w_lead, w_tail = 65, 0  # 65 = "no previous window"
    i = 1
    while i < n:
        if not nz[i]:
            j = i + int(np.argmax(nz[i:])) if nz[i:].any() else n
            code_list.append(np.zeros(j - i, dtype=np.uint64))
            bit_list.append(np.ones(j - i, dtype=np.int64))
            i = j
            continue
        if not (w_lead <= 64 and lead[i] >= w_lead and tail[i] >= w_tail):
            # '11' + 5b lead + 6b (sig-1), then sig payload bits → new window
            w_lead, w_tail = int(lead[i]), int(tail[i])
            sig = 64 - w_lead - w_tail
            ctrl = (
                (np.uint64(0b11) << np.uint64(11))
                | (np.uint64(w_lead) << np.uint64(6))
                | np.uint64(sig - 1)
            )
            code_list.append(
                np.array([ctrl, xor[i] >> np.uint64(w_tail)], dtype=np.uint64)
            )
            bit_list.append(np.array([13, sig], dtype=np.int64))
            i += 1
            continue
        # span of consecutive non-zero XORs that fit the current window
        run_fit = nz[i:] & (lead[i:] >= w_lead) & (tail[i:] >= w_tail)
        j = i + (int(np.argmin(run_fit)) if not run_fit.all() else len(run_fit))
        sig = 64 - w_lead - w_tail
        seg = xor[i:j]
        if sig + 2 <= 64:
            code_list.append((np.uint64(0b10) << np.uint64(sig)) | (seg >> np.uint64(w_tail)))
            bit_list.append(np.full(j - i, sig + 2, dtype=np.int64))
        else:  # sig 63/64: '10' tag and payload as separate entries
            m = j - i
            cs = np.empty(2 * m, dtype=np.uint64)
            bs = np.empty(2 * m, dtype=np.int64)
            cs[0::2], bs[0::2] = np.uint64(0b10), 2
            cs[1::2], bs[1::2] = seg >> np.uint64(w_tail), sig
            code_list.append(cs)
            bit_list.append(bs)
        i = j
    return _pack_codes(np.concatenate(code_list), np.concatenate(bit_list))


def _encode_timestamps_scalar(ts: np.ndarray) -> bytes:
    """Readable per-point spec of the timestamp bitstream (tests assert the
    vectorized encoder is bit-identical)."""
    w = BitWriter()
    ts = ts.astype(np.int64)
    w.write(int(ts[0]) & ((1 << 64) - 1), 64)
    if len(ts) == 1:
        return w.getvalue()
    first_delta = int(ts[1]) - int(ts[0])
    w.write(_zigzag(first_delta) & ((1 << 64) - 1), 64)
    prev_delta = first_delta
    for i in range(2, len(ts)):
        delta = int(ts[i]) - int(ts[i - 1])
        dod = delta - prev_delta
        prev_delta = delta
        if dod == 0:
            w.write(0, 1)
        elif -63 <= dod <= 64:
            w.write(0b10, 2)
            w.write(dod + 63, 7)
        elif -255 <= dod <= 256:
            w.write(0b110, 3)
            w.write(dod + 255, 9)
        elif -2047 <= dod <= 2048:
            w.write(0b1110, 4)
            w.write(dod + 2047, 12)
        else:
            w.write(0b1111, 4)
            w.write(_zigzag(dod) & ((1 << 64) - 1), 64)
    return w.getvalue()


def decode_timestamps(data: bytes, n: int) -> np.ndarray:
    r = BitReader(data)
    out = np.empty(n, dtype=np.int64)
    t0 = r.read(64)
    if t0 >= 1 << 63:
        t0 -= 1 << 64
    out[0] = t0
    if n == 1:
        return out
    delta = _unzigzag(r.read(64))
    out[1] = out[0] + delta
    for i in range(2, n):
        tag = r.read(1)
        if tag == 0:
            dod = 0
        else:
            tag = (tag << 1) | r.read(1)
            if tag == 0b10:
                dod = r.read(7) - 63
            else:
                tag = (tag << 1) | r.read(1)
                if tag == 0b110:
                    dod = r.read(9) - 255
                else:
                    tag = (tag << 1) | r.read(1)
                    if tag == 0b1110:
                        dod = r.read(12) - 2047
                    else:
                        dod = _unzigzag(r.read(64))
        delta += dod
        out[i] = out[i - 1] + delta
    return out


def _encode_values_scalar(vals: np.ndarray) -> bytes:
    """Readable per-point spec of the value bitstream (tests assert the
    vectorized encoder is bit-identical)."""
    bits = np.ascontiguousarray(vals, dtype=np.float64).view(np.uint64)
    w = BitWriter()
    w.write(int(bits[0]), 64)
    prev = int(bits[0])
    lead, tail = 65, 0  # 65 = "no previous window"
    for i in range(1, len(bits)):
        cur = int(bits[i])
        xor = prev ^ cur
        prev = cur
        if xor == 0:
            w.write(0, 1)
            continue
        cur_lead = 64 - xor.bit_length()
        cur_tail = (xor & -xor).bit_length() - 1
        if cur_lead > 31:  # 5-bit field
            cur_lead = 31
        if lead <= 64 and cur_lead >= lead and cur_tail >= tail:
            w.write(0b10, 2)
            w.write(xor >> tail, 64 - lead - tail)
        else:
            lead, tail = cur_lead, cur_tail
            sig = 64 - lead - tail
            w.write(0b11, 2)
            w.write(lead, 5)
            w.write(sig - 1, 6)  # 1..64 stored as 0..63
            w.write(xor >> tail, sig)
    return w.getvalue()


def decode_values(data: bytes, n: int) -> np.ndarray:
    r = BitReader(data)
    out = np.empty(n, dtype=np.uint64)
    prev = r.read(64)
    out[0] = prev
    lead, tail = 65, 0
    for i in range(1, n):
        tag = r.read(1)
        if tag == 0:
            out[i] = prev
            continue
        tag = (tag << 1) | r.read(1)
        if tag == 0b11:
            lead = r.read(5)
            sig = r.read(6) + 1
            tail = 64 - lead - sig
        sig = 64 - lead - tail
        xor = r.read(sig) << tail
        prev ^= xor
        out[i] = prev
    return out.view(np.float64).copy()


def encode_chunk(ts: np.ndarray, vals: np.ndarray) -> dict:
    return {
        "n_points": np.int64(len(ts)),
        "t0": np.int64(ts[0]),
        "t_last": np.int64(ts[-1]),
        "ts_dod": encode_timestamps(ts),
        "vals_xor": encode_values(vals),
    }


def compress_series(
    rollup: ray.data.Dataset,
    value_col: str = "sum_v",
    key_col: str = "source",
    ts_col: str = "bucket_us",
    chunk_points: int = 4096,
    extra_group_cols: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """rollup points → chunks(source, [extra...], chunk_id, n_points, t0,
    t_last, ts_dod: binary, vals_xor: binary). One series per
    (key, extra...) group; groups co-located by hash partition so several
    tiers compress in ONE execution."""
    from ._shuffle import hash_partitioned_map

    group_cols = [key_col, *extra_group_cols]

    def compress_partition(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for keys, g in df.groupby(group_cols, sort=False):
            if not isinstance(keys, tuple):
                keys = (keys,)
            g = g.sort_values(ts_col, kind="stable")
            ts = g[ts_col].to_numpy(dtype=np.int64)
            vals = g[value_col].to_numpy(dtype=np.float64)
            for ci, lo in enumerate(range(0, len(ts), chunk_points)):
                c = encode_chunk(
                    ts[lo : lo + chunk_points], vals[lo : lo + chunk_points]
                )
                for col, val in zip(group_cols, keys):
                    c[col] = val
                c["chunk_id"] = np.int64(ci)
                rows.append(c)
        cols = [
            *group_cols, "chunk_id", "n_points", "t0", "t_last", "ts_dod", "vals_xor",
        ]
        if not rows:
            return pd.DataFrame(columns=cols)
        return pd.DataFrame(rows)[cols]

    return hash_partitioned_map(
        rollup, group_cols, compress_partition, batch_format="pandas"
    )


def _decompress_batch(batch: pa.Table, key_col: str) -> pa.Table:
    """Decode one batch of chunks into points."""
    keys, ts_out, val_out = [], [], []
    kc = batch[key_col].to_pylist()
    for i in range(len(batch)):
        n = batch["n_points"][i].as_py()
        ts = decode_timestamps(batch["ts_dod"][i].as_py(), n)
        vals = decode_values(batch["vals_xor"][i].as_py(), n)
        keys.extend([kc[i]] * n)
        ts_out.append(ts)
        val_out.append(vals)
    return pa.table(
        {
            key_col: pa.array(keys, type=pa.string()),
            "bucket_us": pa.array(
                np.concatenate(ts_out) if ts_out else np.empty(0, np.int64),
                type=pa.int64(),
            ),
            "value": pa.array(
                np.concatenate(val_out) if val_out else np.empty(0, np.float64),
                type=pa.float64(),
            ),
        }
    )


def decompress_chunks(
    chunks: ray.data.Dataset, key_col: str = "source"
) -> ray.data.Dataset:
    """chunks → points (source, bucket_us, value). The decode is stateless,
    so it runs as plain tasks: no actor pool holds a CPU between batches,
    and the read path finishes on a 1-CPU session."""
    return chunks.map_batches(
        _decompress_batch,
        fn_kwargs={"key_col": key_col},
        batch_format="pyarrow",
        batch_size=64,
    )


def read_range(
    chunk_path: str | list[str],
    lo_us: int,
    hi_us: int,
    key_col: str = "source",
) -> ray.data.Dataset:
    """Time-range query over a compressed chunk store: points with
    ``lo_us <= bucket_us <= hi_us``, decoding ONLY the chunks whose
    ``[t0, t_last]`` span overlaps the window.

    The overlap predicate is pushed into ``read_parquet`` as a pyarrow
    dataset filter, so non-overlapping chunks are pruned from Parquet
    row-group statistics at the READ — at 100 TB a narrow window touches
    a few row groups, not the corpus. Edge chunks (partial overlap) are
    decoded whole and trimmed vectorized. ``chunk_path`` is a chunk
    parquet dir, e.g. ``<out_dir>/chunks/tier=1h`` from the pipeline."""
    import pyarrow.dataset as pads

    lo, hi = int(lo_us), int(hi_us)
    overlap = (pads.field("t_last") >= lo) & (pads.field("t0") <= hi)
    chunks = ray.data.read_parquet(chunk_path, filter=overlap)
    pts = decompress_chunks(chunks, key_col=key_col)

    def trim(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = t["bucket_us"]
        return t.filter(
            pc.and_(pc.greater_equal(b, pa.scalar(lo)), pc.less_equal(b, pa.scalar(hi)))
        )

    return pts.map_batches(trim, batch_format="pyarrow")
