"""Multimodal (image/audio/video) column plumbing + REAL WAV/PNG/JPEG codecs.

Build-brief operator: binary payload columns with typed metadata, decoded /
feature-extracted by per-batch ``map_batches`` stages that run as plain
tasks (each stage is a callable instance built in the driver).

Four decode kernels:

- ``WavDecode`` — a REAL RIFF/PCM WAV parser (stdlib ``struct`` + numpy,
  no external codec): parses fmt/data chunks, decodes PCM8/PCM16/PCM32/
  float32 samples, and emits audio features (duration, RMS, peak,
  zero-crossing rate, DC mean) computed from the actual decoded samples.
- ``PngDecode`` — a REAL PNG decoder (stdlib ``zlib`` + numpy
  unfiltering, all five scanline filters): emits image features
  (dimensions, channels, pixel mean/std/min/max) from the decoded pixels.
- ``JpegDecode`` — a REAL baseline JPEG decoder (pure numpy: Huffman
  entropy decode via a 16-bit-peek LUT, dequantize, einsum IDCT, chroma
  upsample, JFIF YCbCr→RGB): emits the same image features from the
  decoded pixels. Format per the public ITU-T T.81 spec.
- ``DecodeStub`` — the generic opaque-payload stage: deterministic stub
  features hashed from the payload bytes. Kept as the extension point for
  codecs genuinely absent from the container; VIDEO is no longer one of
  them —
  ``stages/video.py`` decodes RIFF/AVI + MJPEG for real on top of
  ``decode_jpeg`` (pure-struct demux, numpy frame decode).

Schema convention:

    payload: binary           -- opaque media bytes
    media_type: string        -- "image/png", "audio/wav", ...
    meta_width/meta_height or meta_sample_rate: int32 (nullable)

Large binary rows need SMALL batch sizes so the payload bytes one decode
task holds fit the worker heap (see the memory-aware sizing note in the
build brief); ``decode_features`` defaults to batch_size=32.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa
import ray.data

from ._shuffle import _splitmix64

FEATURE_DIM = 8


class DecodeStub:
    """Deterministic stub decode stage. Real decoders slot in by replacing
    ``_decode_batch`` (a codec or model loaded once in ``__init__``)."""

    def __init__(self, payload_col: str = "payload"):
        self.payload_col = payload_col

    def _decode_batch(self, payloads: pa.Array) -> np.ndarray:
        """(n, FEATURE_DIM) float32 features — deterministic stub, computed
        buffer-level over the whole batch (no per-row Python)."""
        from ._shuffle import hash64_strings

        row_hash = hash64_strings(payloads)  # one pass over the raw buffer
        with np.errstate(over="ignore"):
            seeds = row_hash[:, None] * (
                np.arange(1, FEATURE_DIM + 1, dtype=np.uint64)[None, :]
            )
            feats = _splitmix64(seeds.ravel()).reshape(-1, FEATURE_DIM)
        return (feats.astype(np.float64) / float(2**64)).astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.payload_col].combine_chunks()
        col = col.cast(pa.large_binary())
        offs = np.frombuffer(col.buffers()[1], dtype=np.int64)[
            col.offset : col.offset + len(col) + 1
        ]
        n_bytes = np.diff(offs)
        feats = self._decode_batch(col)
        batch = batch.drop_columns([self.payload_col])  # decoded: payload dropped
        batch = batch.append_column("n_bytes", pa.array(n_bytes, type=pa.int64()))
        batch = batch.append_column(
            "features",
            pa.FixedSizeListArray.from_arrays(
                pa.array(feats.ravel(), type=pa.float32()), FEATURE_DIM
            ),
        )
        return batch


def decode_features(
    media: ray.data.Dataset,
    payload_col: str = "payload",
    batch_size: int = 32,
) -> ray.data.Dataset:
    """media(payload, media_type, meta_*) → (media_type, meta_*, n_bytes,
    features: fixed_size_list<float32>[8])."""
    return media.map_batches(
        DecodeStub(payload_col=payload_col),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


# ---------------------------------------------------------------------------
# WAV (RIFF/PCM): the one codec implementable from the published container
# format alone — stdlib struct for the chunk headers, numpy for the samples.
# Format reference: the public RIFF/WAVE spec (fmt chunk layout, PCM data).
# ---------------------------------------------------------------------------

_WAV_FORMATS = {1: "pcm", 3: "float"}  # WAVE_FORMAT_PCM / IEEE_FLOAT


def encode_wav_pcm16(
    samples: np.ndarray, sample_rate: int, n_channels: int = 1
) -> bytes:
    """Minimal RIFF/PCM16 writer (test + synthetic-corpus helper).

    ``samples``: int16 array, shape (n,) or (n, n_channels), interleaved on
    write as the spec requires."""
    s = np.asarray(samples, dtype="<i2")
    if s.ndim == 1 and n_channels > 1:
        raise ValueError("multi-channel samples must be (n, ch)")
    if s.ndim == 2:
        n_channels = s.shape[1]
    data = s.reshape(-1).tobytes()
    block_align = 2 * n_channels
    byte_rate = sample_rate * block_align
    fmt = struct.pack(
        "<HHIIHH", 1, n_channels, sample_rate, byte_rate, block_align, 16
    )
    body = (
        b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", len(data)) + data
        + (b"\x00" if len(data) % 2 else b"")
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def decode_wav(payload: bytes) -> tuple[dict, np.ndarray]:
    """RIFF/WAVE → (meta, mono float64 samples in [-1, 1]).

    Walks the chunk list (skipping LIST/fact/etc., honoring the odd-size
    pad byte), reads fmt, and decodes the data chunk with ONE
    ``np.frombuffer`` view — the per-byte work is all numpy. Multi-channel
    audio is averaged to mono for the feature set."""
    if len(payload) < 12 or payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    pos, end = 12, min(len(payload), 8 + struct.unpack("<I", payload[4:8])[0])
    fmt_meta: dict | None = None
    data: bytes | None = None
    while pos + 8 <= end:
        cid = payload[pos : pos + 4]
        (size,) = struct.unpack("<I", payload[pos + 4 : pos + 8])
        body = payload[pos + 8 : pos + 8 + size]
        if cid == b"fmt " and size >= 16:
            af, ch, sr, br, ba, bps = struct.unpack("<HHIIHH", body[:16])
            if af == 0xFFFE and size >= 40:  # WAVE_FORMAT_EXTENSIBLE
                af = struct.unpack("<H", body[24:26])[0]
            fmt_meta = {
                "audio_format": af, "n_channels": ch, "sample_rate": sr,
                "bits_per_sample": bps,
            }
        elif cid == b"data":
            data = body
        pos += 8 + size + (size % 2)  # chunks are word-aligned
    if fmt_meta is None or data is None:
        raise ValueError("missing fmt or data chunk")
    af = fmt_meta["audio_format"]
    bps = fmt_meta["bits_per_sample"]
    if _WAV_FORMATS.get(af) == "float" and bps == 32:
        x = np.frombuffer(data, dtype="<f4").astype(np.float64)
    elif af == 1 and bps == 16:
        x = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    elif af == 1 and bps == 8:  # PCM8 is unsigned, biased at 128
        x = (np.frombuffer(data, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    elif af == 1 and bps == 32:
        x = np.frombuffer(data, dtype="<i4").astype(np.float64) / 2147483648.0
    else:
        raise ValueError(
            f"unsupported WAV encoding: format={af} bits={bps}"
        )
    ch = max(1, fmt_meta["n_channels"])
    if ch > 1:
        x = x[: (len(x) // ch) * ch].reshape(-1, ch).mean(axis=1)
    return fmt_meta, x


class WavDecode:
    """WAV decode + feature stage. Per-row chunk-header parsing
    is unavoidable (RIFF is a per-blob container), but all sample math is
    numpy over the data-chunk buffer. Output columns: sample_rate,
    n_channels, n_samples, duration_s, rms, peak, zcr, dc_mean."""

    def __init__(self, payload_col: str = "payload", strict: bool = True):
        self.payload_col = payload_col
        self.strict = strict  # False: bad payloads yield null features

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.payload_col].combine_chunks()
        n = len(col)
        sr = np.zeros(n, dtype=np.int32)
        ch = np.zeros(n, dtype=np.int32)
        ns = np.zeros(n, dtype=np.int64)
        feats = np.full((n, 4), np.nan)  # rms, peak, zcr, dc_mean
        ok = np.ones(n, dtype=bool)
        for i in range(n):
            payload = col[i].as_py()
            try:
                meta, x = decode_wav(payload)
            except ValueError:
                if self.strict:
                    raise
                ok[i] = False
                continue
            sr[i], ch[i], ns[i] = (
                meta["sample_rate"], meta["n_channels"], len(x)
            )
            if len(x):
                feats[i, 0] = float(np.sqrt(np.mean(x * x)))
                feats[i, 1] = float(np.abs(x).max())
                feats[i, 2] = (
                    float(np.mean(np.signbit(x[1:]) != np.signbit(x[:-1])))
                    if len(x) > 1 else 0.0
                )
                feats[i, 3] = float(x.mean())
        batch = batch.drop_columns([self.payload_col])
        dur = np.divide(
            ns, sr, out=np.zeros(n, dtype=np.float64), where=sr > 0
        )
        cols = {
            "sample_rate": pa.array(sr, mask=~ok),
            "n_channels": pa.array(ch, mask=~ok),
            "n_samples": pa.array(ns, mask=~ok),
            "duration_s": pa.array(dur, mask=~ok),
            "rms": pa.array(feats[:, 0], mask=~ok),
            "peak": pa.array(feats[:, 1], mask=~ok),
            "zcr": pa.array(feats[:, 2], mask=~ok),
            "dc_mean": pa.array(feats[:, 3], mask=~ok),
        }
        for name, arr in cols.items():
            batch = batch.append_column(name, arr)
        return batch


def decode_wav_features(
    media: ray.data.Dataset,
    payload_col: str = "payload",
    strict: bool = True,
    batch_size: int = 32,
) -> ray.data.Dataset:
    """media(payload=WAV bytes, ...) → per-row audio features decoded from
    the REAL samples (see :class:`WavDecode`)."""
    return media.map_batches(
        WavDecode(payload_col=payload_col, strict=strict),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


# ---------------------------------------------------------------------------
# PNG: the second real codec — stdlib ``zlib`` for the DEFLATE stream, numpy
# for unfiltering. Format reference: the public PNG spec (RFC 2083 / W3C
# PNG): 8-byte signature, length-type-data-crc chunks, IHDR/IDAT/IEND,
# per-scanline filter byte (None/Sub/Up/Average/Paeth).
# Supported: bit depth 8, color types 0 (gray), 2 (RGB), 4 (gray+alpha),
# 6 (RGBA), no interlace — the shapes a training-data pipeline normalizes
# to anyway; everything else raises (or nulls, strict=False).
# ---------------------------------------------------------------------------

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
_PNG_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}


def _png_chunk(ctype: bytes, data: bytes) -> bytes:
    import zlib

    return (
        struct.pack(">I", len(data))
        + ctype
        + data
        + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)
    )


def encode_png(arr: np.ndarray, filter_type: int = 0) -> bytes:
    """Minimal PNG writer (test + synthetic-corpus helper).

    ``arr``: uint8, (h, w) gray or (h, w, {2,3,4}) channels. Every scanline
    gets the SAME ``filter_type`` (0..4); filtering is computed vectorized
    from the known pixels (the encode direction has no sequential
    dependence), so the writer doubles as a filter-coverage fixture for the
    decoder."""
    import zlib

    a = np.ascontiguousarray(arr, dtype=np.uint8)
    if a.ndim == 2:
        a = a[:, :, None]
    h, w, c = a.shape
    color_type = {1: 0, 2: 4, 3: 2, 4: 6}[c]
    flat = a.reshape(h, w * c).astype(np.int16)
    left = np.zeros_like(flat)
    left[:, c:] = flat[:, :-c]
    up = np.zeros_like(flat)
    up[1:] = flat[:-1]
    ul = np.zeros_like(flat)
    ul[1:, c:] = flat[:-1, :-c]
    if filter_type == 0:
        filt = flat
    elif filter_type == 1:
        filt = flat - left
    elif filter_type == 2:
        filt = flat - up
    elif filter_type == 3:
        filt = flat - (left + up) // 2
    elif filter_type == 4:
        p = left + up - ul
        pa_, pb, pc_ = np.abs(p - left), np.abs(p - up), np.abs(p - ul)
        pred = np.where(
            (pa_ <= pb) & (pa_ <= pc_), left, np.where(pb <= pc_, up, ul)
        )
        filt = flat - pred
    else:
        raise ValueError(f"bad filter type {filter_type}")
    raw = np.concatenate(
        [np.full((h, 1), filter_type, dtype=np.uint8), (filt % 256).astype(np.uint8)],
        axis=1,
    ).tobytes()
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    return (
        _PNG_SIG
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(raw, 6))
        + _png_chunk(b"IEND", b"")
    )


def decode_png(payload: bytes) -> tuple[dict, np.ndarray]:
    """PNG → (meta, uint8 pixels (h, w, channels)).

    Chunk walk + CRC check, one ``zlib.decompress`` over the concatenated
    IDAT stream, then numpy unfiltering: None is a view, Up is one
    vectorized add per row, Sub is the mod-256 prefix sum (``np.cumsum``
    with ``dtype=uint8`` wraps exactly as the spec requires), Average and
    Paeth vectorize over the channel lanes with the unavoidable sequential
    step along x."""
    import zlib

    if payload[: len(_PNG_SIG)] != _PNG_SIG:
        raise ValueError("not a PNG payload")
    pos = len(_PNG_SIG)
    ihdr = None
    idat = bytearray()
    while pos + 8 <= len(payload):
        (size,) = struct.unpack(">I", payload[pos : pos + 4])
        ctype = payload[pos + 4 : pos + 8]
        data = payload[pos + 8 : pos + 8 + size]
        (crc,) = struct.unpack(
            ">I", payload[pos + 8 + size : pos + 12 + size]
        )
        if zlib.crc32(ctype + data) & 0xFFFFFFFF != crc:
            raise ValueError(f"bad CRC in {ctype!r} chunk")
        if ctype == b"IHDR":
            w, h, depth, color_type, comp, filt_m, interlace = struct.unpack(
                ">IIBBBBB", data
            )
            if depth != 8:
                raise ValueError(f"unsupported bit depth {depth}")
            if color_type not in _PNG_CHANNELS:
                raise ValueError(f"unsupported color type {color_type}")
            if comp != 0 or filt_m != 0:
                raise ValueError("bad compression/filter method")
            if interlace != 0:
                raise ValueError("interlaced PNG not supported")
            ihdr = (w, h, color_type)
        elif ctype == b"IDAT":
            idat.extend(data)
        elif ctype == b"IEND":
            break
        pos += 12 + size
    if ihdr is None or not idat:
        raise ValueError("missing IHDR or IDAT chunk")
    w, h, color_type = ihdr
    c = _PNG_CHANNELS[color_type]
    stride = w * c
    raw = np.frombuffer(zlib.decompress(bytes(idat)), dtype=np.uint8)
    if len(raw) != h * (stride + 1):
        raise ValueError("IDAT size mismatch")
    raw = raw.reshape(h, stride + 1)
    ftypes = raw[:, 0]
    rows = raw[:, 1:]
    if ftypes.max(initial=0) > 4:
        raise ValueError("bad scanline filter byte")
    out = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    # consecutive same-filter runs of None/Sub/Up rows decode as one block
    y = 0
    while y < h:
        ft = ftypes[y]
        if ft in (0, 1):
            y2 = y
            while y2 + 1 < h and ftypes[y2 + 1] == ft:
                y2 += 1
            block = rows[y : y2 + 1]
            if ft == 0:
                out[y : y2 + 1] = block
            else:  # Sub: mod-256 prefix sum along x per channel lane
                lanes = block.reshape(y2 + 1 - y, w, c)
                out[y : y2 + 1] = np.cumsum(lanes, axis=1, dtype=np.uint8).reshape(
                    y2 + 1 - y, stride
                )
            prev = out[y2]
            y = y2 + 1
            continue
        if ft == 2:  # Up
            out[y] = rows[y] + prev
        elif ft == 3:  # Average
            row = rows[y].astype(np.int16).reshape(w, c)
            pv = prev.astype(np.int16).reshape(w, c)
            rec = np.zeros((w, c), dtype=np.int16)
            left = np.zeros(c, dtype=np.int16)
            for x in range(w):
                left = (row[x] + (left + pv[x]) // 2) % 256
                rec[x] = left
            out[y] = rec.astype(np.uint8).reshape(stride)
        else:  # Paeth
            row = rows[y].astype(np.int16).reshape(w, c)
            pv = prev.astype(np.int16).reshape(w, c)
            pvl = np.zeros((w, c), dtype=np.int16)
            pvl[1:] = pv[:-1]
            rec = np.zeros((w, c), dtype=np.int16)
            left = np.zeros(c, dtype=np.int16)
            for x in range(w):
                p = left + pv[x] - pvl[x]
                pa_, pb, pc_ = (
                    np.abs(p - left), np.abs(p - pv[x]), np.abs(p - pvl[x])
                )
                pred = np.where(
                    (pa_ <= pb) & (pa_ <= pc_), left,
                    np.where(pb <= pc_, pv[x], pvl[x]),
                )
                left = (row[x] + pred) % 256
                rec[x] = left
            out[y] = rec.astype(np.uint8).reshape(stride)
        prev = out[y]
        y += 1
    meta = {"width": w, "height": h, "color_type": color_type, "n_channels": c}
    return meta, out.reshape(h, w, c)


class PngDecode:
    """PNG decode + feature stage (mirrors :class:`WavDecode`).

    Output columns: width, height, n_channels, mean_px, std_px, min_px,
    max_px — computed from the actual decoded pixels."""

    def __init__(self, payload_col: str = "payload", strict: bool = True):
        self.payload_col = payload_col
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.payload_col].combine_chunks()
        n = len(col)
        wd = np.zeros(n, dtype=np.int32)
        ht = np.zeros(n, dtype=np.int32)
        ch = np.zeros(n, dtype=np.int32)
        feats = np.full((n, 4), np.nan)  # mean, std, min, max
        ok = np.ones(n, dtype=bool)
        import zlib

        for i in range(n):
            try:
                meta, px = decode_png(col[i].as_py())
            except (ValueError, zlib.error, struct.error):
                if self.strict:
                    raise
                ok[i] = False
                continue
            wd[i], ht[i], ch[i] = meta["width"], meta["height"], meta["n_channels"]
            pf = px.astype(np.float64)
            feats[i] = (pf.mean(), pf.std(), pf.min(), pf.max())
        batch = batch.drop_columns([self.payload_col])
        cols = {
            "width": pa.array(wd, mask=~ok),
            "height": pa.array(ht, mask=~ok),
            "n_channels": pa.array(ch, mask=~ok),
            "mean_px": pa.array(feats[:, 0], mask=~ok),
            "std_px": pa.array(feats[:, 1], mask=~ok),
            "min_px": pa.array(feats[:, 2], mask=~ok),
            "max_px": pa.array(feats[:, 3], mask=~ok),
        }
        for name, arr in cols.items():
            batch = batch.append_column(name, arr)
        return batch


def decode_png_features(
    media: ray.data.Dataset,
    payload_col: str = "payload",
    strict: bool = True,
    batch_size: int = 32,
) -> ray.data.Dataset:
    """media(payload=PNG bytes, ...) → per-row image features decoded from
    the REAL pixels (see :class:`PngDecode`)."""
    return media.map_batches(
        PngDecode(payload_col=payload_col, strict=strict),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def synth_png_payloads(doc_ids: pa.Array | pa.ChunkedArray) -> list[bytes]:
    """Deterministic per-doc PNG payloads (gradient + checker pattern,
    parameters a pure function of the doc_id hash; filter type cycles
    through all five so the corpus exercises every unfilter path)."""
    from ._shuffle import hash64_strings

    h64 = hash64_strings(doc_ids)
    out: list[bytes] = []
    for hv in h64:
        hv = int(hv)
        w = 8 + (hv >> 4) % 25
        h = 8 + (hv >> 12) % 25
        c = (1, 2, 3, 4)[(hv >> 20) % 4]
        yy, xx = np.mgrid[0:h, 0:w]
        base = (xx * ((hv >> 24) % 7 + 1) + yy * ((hv >> 28) % 5 + 1)) % 256
        px = np.stack(
            [(base + 31 * k + ((xx // 4 + yy // 4 + k) % 2) * 64) % 256
             for k in range(c)],
            axis=2,
        ).astype(np.uint8)
        out.append(encode_png(px[:, :, 0] if c == 1 else px, filter_type=hv % 5))
    return out


def synth_wav_payloads(doc_ids: pa.Array | pa.ChunkedArray) -> list[bytes]:
    """Deterministic per-doc WAV payloads (sine + harmonic, parameters a
    pure function of the doc_id hash) — the test/bench corpus generator;
    no external audio data needed."""
    from ._shuffle import hash64_strings

    h = hash64_strings(doc_ids)
    out: list[bytes] = []
    for hv in h:
        hv = int(hv)
        sr = 8000 if hv % 2 else 16000
        n = 400 + (hv >> 8) % 1200
        freq = 110.0 + (hv >> 16) % 3200 / 4.0
        amp = 0.2 + ((hv >> 32) % 700) / 1000.0
        t = np.arange(n, dtype=np.float64) / sr
        x = amp * np.sin(2 * np.pi * freq * t)
        x += 0.25 * amp * np.sin(2 * np.pi * 2 * freq * t)
        out.append(
            encode_wav_pcm16(
                np.clip(x * 32767.0, -32768, 32767).astype(np.int16), sr
            )
        )
    return out


# ---------------------------------------------------------------------------
# JPEG: the third real codec — pure numpy baseline sequential DCT. Format
# reference: the public ITU-T T.81 spec (SOI/DQT/DHT/SOF0/SOS markers,
# Annex K.1 quantization + K.3 Huffman tables, Annex F decode procedures)
# and the JFIF YCbCr convention. Supported: baseline (SOF0), 8-bit, gray or
# YCbCr 4:4:4 / 4:2:0, single interleaved scan, optional restart intervals.
# Progressive (SOF2), arithmetic coding, 12-bit and hierarchical raise —
# they are transcode-time normalizations in a training pipeline anyway.
# Video is real too: stages/video.py demuxes RIFF/AVI and MJPEG-decodes
# sampled frames through decode_jpeg below — no stubs left in multimodal.
# ---------------------------------------------------------------------------

_ZIGZAG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
], dtype=np.int64)

_QT_LUMA = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
], dtype=np.int64).reshape(8, 8)

_QT_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
], dtype=np.int64).reshape(8, 8)

# T.81 Annex K.3 Huffman table specs: (bits[1..16], huffval)
_DC_LUMA_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
_DC_LUMA_VALS = list(range(12))
_DC_CHROMA_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
_DC_CHROMA_VALS = list(range(12))
_AC_LUMA_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D]
_AC_LUMA_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
    0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
    0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
    0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
    0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
    0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
    0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
    0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
    0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
    0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
    0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
    0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
    0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA,
]
_AC_CHROMA_BITS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77]
_AC_CHROMA_VALS = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
    0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
    0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
    0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
    0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
    0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
    0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
    0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
    0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
    0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
    0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA,
]

# orthonormal 8-point DCT-II basis with the JPEG 1/4*C(u)C(v) scaling
# folded in: F = _DCT_T @ f @ _DCT_T.T, f = _DCT_T.T @ F @ _DCT_T
_DCT_X = np.arange(8, dtype=np.float64)
_DCT_T = 0.5 * np.cos((2 * _DCT_X[None, :] + 1) * _DCT_X[:, None] * np.pi / 16.0)
_DCT_T[0] *= 1.0 / np.sqrt(2.0)

_POW2_16 = (1 << np.arange(15, -1, -1)).astype(np.uint32)


def _jpeg_quality_scale(base: np.ndarray, quality: int) -> np.ndarray:
    """IJG quality scaling of a base quantization table (public libjpeg
    convention: scale = 5000/q below 50 else 200-2q, percent of base)."""
    q = min(100, max(1, int(quality)))
    scale = 5000 // q if q < 50 else 200 - 2 * q
    return np.clip((base * scale + 50) // 100, 1, 255).astype(np.int64)


def _huff_codes(bits: list[int], vals: list[int]) -> dict[int, tuple[int, int]]:
    """symbol -> (code, length) per T.81 Annex C canonical assignment."""
    codes: dict[int, tuple[int, int]] = {}
    code = k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            codes[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return codes


def _huff_lut(bits: list[int], vals: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """16-bit-peek decode LUT (lut_sym, lut_len): a code of length L owns
    2^(16-L) consecutive entries; uncovered entries keep length 0 =
    invalid code. One array index replaces the per-bit Annex F walk."""
    lut_sym = np.zeros(1 << 16, dtype=np.int16)
    lut_len = np.zeros(1 << 16, dtype=np.int8)
    code = k = 0
    for length in range(1, 17):
        span = 1 << (16 - length)
        for _ in range(bits[length - 1]):
            start = code << (16 - length)
            lut_sym[start : start + span] = vals[k]
            lut_len[start : start + span] = length
            code += 1
            k += 1
        code <<= 1
    return lut_sym, lut_len


def _fdct_blocks(blocks: np.ndarray) -> np.ndarray:
    """(n, 8, 8) level-shifted pixels -> DCT coefficients, one einsum."""
    return np.einsum("ux,nxy,vy->nuv", _DCT_T, blocks, _DCT_T)


def _idct_blocks(coefs: np.ndarray) -> np.ndarray:
    return np.einsum("xu,nuv,yv->nxy", _DCT_T.T, coefs, _DCT_T.T)


class _BitWriter:
    """MSB-first bit accumulator with JPEG 0xFF byte stuffing."""

    def __init__(self) -> None:
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, length: int) -> None:
        if length == 0:
            return
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            b = (self.acc >> (self.nbits - 8)) & 0xFF
            self.out.append(b)
            if b == 0xFF:
                self.out.append(0x00)
            self.nbits -= 8
            self.acc &= (1 << self.nbits) - 1

    def flush(self) -> bytes:
        if self.nbits:
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)  # pad with 1-bits per spec
        return bytes(self.out)


def _encode_block(
    w: _BitWriter, zz: np.ndarray, pred: int, dc_codes: dict, ac_codes: dict
) -> int:
    """Huffman-encode one zigzagged quantized block; returns the new DC
    predictor. Negative values use the T.81 diminished-radix low bits."""
    dc = int(zz[0])
    diff = dc - pred
    s = int(abs(diff)).bit_length()
    code, length = dc_codes[s]
    w.write(code, length)
    if s:
        w.write(diff if diff > 0 else diff + (1 << s) - 1, s)
    run = 0
    nz = np.nonzero(zz[1:])[0]
    last = int(nz[-1]) + 1 if len(nz) else 0
    for k in range(1, last + 1):
        v = int(zz[k])
        if v == 0:
            run += 1
            continue
        while run > 15:
            w.write(*ac_codes[0xF0])  # ZRL
            run -= 16
        s = int(abs(v)).bit_length()
        code, length = ac_codes[(run << 4) | s]
        w.write(code, length)
        w.write(v if v > 0 else v + (1 << s) - 1, s)
        run = 0
    if last < 63:
        w.write(*ac_codes[0x00])  # EOB
    return dc


def encode_jpeg_baseline(
    arr: np.ndarray, quality: int = 90, subsample: bool = False
) -> bytes:
    """Minimal baseline JFIF writer (test + synthetic-corpus helper).

    ``arr``: uint8 (h, w) gray or (h, w, 3) RGB. ``subsample=True`` writes
    4:2:0 chroma (2x2 luma sampling, box-averaged chroma), else 4:4:4.
    Standard Annex K quantization (IJG quality-scaled) + Huffman tables."""
    a = np.ascontiguousarray(arr, dtype=np.uint8)
    if a.ndim == 2:
        a = a[:, :, None]
    h, w, nc = a.shape
    if nc not in (1, 3):
        raise ValueError("gray or RGB input only")
    gray = nc == 1
    if gray:
        subsample = False

    qt_l = _jpeg_quality_scale(_QT_LUMA, quality)
    qt_c = _jpeg_quality_scale(_QT_CHROMA, quality)

    f = a.astype(np.float64)
    if gray:
        comps = [f[:, :, 0]]
    else:  # JFIF YCbCr
        r, g, b = f[:, :, 0], f[:, :, 1], f[:, :, 2]
        comps = [
            0.299 * r + 0.587 * g + 0.114 * b,
            -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0,
            0.5 * r - 0.418688 * g - 0.081312 * b + 128.0,
        ]

    hs = 2 if subsample else 1  # luma sampling factor
    mcu = 8 * hs
    mw, mh = -(-w // mcu), -(-h // mcu)

    def pad_to(img: np.ndarray, H: int, W: int) -> np.ndarray:
        return np.pad(img, ((0, H - img.shape[0]), (0, W - img.shape[1])),
                      mode="edge")

    planes: list[np.ndarray] = []
    for ci, img in enumerate(comps):
        p = pad_to(img, mh * mcu, mw * mcu)
        if ci > 0 and subsample:  # 2x2 box-average chroma
            ph, pw = p.shape
            p = p.reshape(ph // 2, 2, pw // 2, 2).mean(axis=(1, 3))
        planes.append(p)

    qzz: list[np.ndarray] = []  # per comp: (block_y, block_x, 64)
    for ci, p in enumerate(planes):
        H, W = p.shape
        bl = (p - 128.0).reshape(H // 8, 8, W // 8, 8).transpose(0, 2, 1, 3)
        co = _fdct_blocks(bl.reshape(-1, 8, 8))
        qt = qt_l if ci == 0 else qt_c
        q = np.round(co / qt[None]).astype(np.int64)
        qzz.append(q.reshape(-1, 64)[:, _ZIGZAG].reshape(H // 8, W // 8, 64))

    dc_l = _huff_codes(_DC_LUMA_BITS, _DC_LUMA_VALS)
    ac_l = _huff_codes(_AC_LUMA_BITS, _AC_LUMA_VALS)
    dc_c = _huff_codes(_DC_CHROMA_BITS, _DC_CHROMA_VALS)
    ac_c = _huff_codes(_AC_CHROMA_BITS, _AC_CHROMA_VALS)

    bw = _BitWriter()
    preds = [0] * len(planes)
    for my in range(mh):
        for mx in range(mw):
            if gray:
                preds[0] = _encode_block(bw, qzz[0][my, mx], preds[0], dc_l, ac_l)
                continue
            if subsample:
                for dy in range(2):
                    for dx in range(2):
                        preds[0] = _encode_block(
                            bw, qzz[0][my * 2 + dy, mx * 2 + dx], preds[0],
                            dc_l, ac_l,
                        )
            else:
                preds[0] = _encode_block(bw, qzz[0][my, mx], preds[0], dc_l, ac_l)
            preds[1] = _encode_block(bw, qzz[1][my, mx], preds[1], dc_c, ac_c)
            preds[2] = _encode_block(bw, qzz[2][my, mx], preds[2], dc_c, ac_c)
    scan = bw.flush()

    def seg(marker: int, body: bytes) -> bytes:
        return struct.pack(">HH", marker, len(body) + 2) + body

    out = bytearray(b"\xff\xd8")  # SOI
    out += seg(0xFFE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")
    out += seg(0xFFDB, bytes([0]) + bytes(qt_l.reshape(-1)[_ZIGZAG].astype(np.uint8)))
    if not gray:
        out += seg(0xFFDB, bytes([1]) + bytes(qt_c.reshape(-1)[_ZIGZAG].astype(np.uint8)))
    ncomp = 1 if gray else 3
    sof = struct.pack(">BHHB", 8, h, w, ncomp) + bytes([1, (hs << 4) | hs, 0])
    if not gray:
        sof += bytes([2, 0x11, 1, 3, 0x11, 1])
    out += seg(0xFFC0, sof)

    def dht(tc: int, th: int, bits: list[int], vals: list[int]) -> bytes:
        return seg(0xFFC4, bytes([(tc << 4) | th]) + bytes(bits) + bytes(vals))

    out += dht(0, 0, _DC_LUMA_BITS, _DC_LUMA_VALS)
    out += dht(1, 0, _AC_LUMA_BITS, _AC_LUMA_VALS)
    if not gray:
        out += dht(0, 1, _DC_CHROMA_BITS, _DC_CHROMA_VALS)
        out += dht(1, 1, _AC_CHROMA_BITS, _AC_CHROMA_VALS)
    sos = bytes([ncomp, 1, 0x00])
    if not gray:
        sos += bytes([2, 0x11, 3, 0x11])
    out += seg(0xFFDA, sos + bytes([0, 63, 0]))
    out += scan
    out += b"\xff\xd9"  # EOI
    return bytes(out)


def decode_jpeg(payload: bytes) -> tuple[dict, np.ndarray]:
    """Baseline JFIF -> (meta, uint8 pixels (h, w, channels)).

    Marker walk, then Annex-F entropy decode with a 16-bit-peek Huffman
    LUT over a vectorized sliding-window bit view (the per-symbol work is
    two array lookups, not a per-bit loop), then einsum IDCT per block,
    chroma upsample by replication, JFIF YCbCr -> RGB. Supports SOF0
    baseline, 8-bit, gray or 4:4:4 / 4:2:0 color, optional restart
    intervals; everything else raises ValueError."""
    if len(payload) < 4 or payload[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG payload (missing SOI)")
    pos, n = 2, len(payload)
    qts: dict[int, np.ndarray] = {}
    luts: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    sof = None
    dri = 0
    scan_info = None
    while pos + 4 <= n:
        if payload[pos] != 0xFF:
            raise ValueError("marker desync")
        marker = payload[pos + 1]
        if marker == 0xD9:
            break
        (size,) = struct.unpack(">H", payload[pos + 2 : pos + 4])
        body = payload[pos + 4 : pos + 2 + size]
        if len(body) != size - 2:
            raise ValueError("truncated marker segment")
        pos += 2 + size
        if marker == 0xDB:  # DQT (may hold several tables)
            bp = 0
            while bp < len(body):
                pq, tq = body[bp] >> 4, body[bp] & 0x0F
                if pq != 0:
                    raise ValueError("16-bit quantization not supported")
                qt = np.zeros(64, dtype=np.int64)
                qt[_ZIGZAG] = np.frombuffer(body[bp + 1 : bp + 65], dtype=np.uint8)
                qts[tq] = qt.reshape(8, 8)
                bp += 65
        elif marker == 0xC4:  # DHT (may hold several tables)
            bp = 0
            while bp < len(body):
                tc, th = body[bp] >> 4, body[bp] & 0x0F
                bits = list(body[bp + 1 : bp + 17])
                cnt = sum(bits)
                luts[(tc, th)] = _huff_lut(bits, list(body[bp + 17 : bp + 17 + cnt]))
                bp += 17 + cnt
        elif marker == 0xC0:  # SOF0 baseline sequential
            prec, h, w, ncomp = struct.unpack(">BHHB", body[:6])
            if prec != 8:
                raise ValueError(f"unsupported precision {prec}")
            comps = []
            for i in range(ncomp):
                cid, hv, tq = body[6 + 3 * i : 9 + 3 * i]
                comps.append((cid, hv >> 4, hv & 0x0F, tq))
            sof = (h, w, comps)
        elif marker in (0xC1, 0xC2, 0xC3, 0xC5, 0xC6, 0xC7,
                        0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise ValueError(
                f"non-baseline SOF marker 0xFF{marker:02X} not supported"
            )
        elif marker == 0xDD:  # DRI
            (dri,) = struct.unpack(">H", body[:2])
        elif marker == 0xDA:  # SOS — entropy data follows
            ns = body[0]
            scan_info = [
                (body[1 + 2 * i], body[2 + 2 * i] >> 4, body[2 + 2 * i] & 0x0F)
                for i in range(ns)
            ]
            break
        # APPn / COM: skipped
    if sof is None or scan_info is None:
        raise ValueError("missing SOF0 or SOS")
    h, w, comps = sof
    ncomp = len(comps)
    if ncomp not in (1, 3):
        raise ValueError(f"unsupported component count {ncomp}")
    hmax = max(c[1] for c in comps)
    vmax = max(c[2] for c in comps)
    samp = [(c[1], c[2]) for c in comps]
    if ncomp == 1:
        if samp != [(1, 1)]:
            raise ValueError("gray sampling must be 1x1")
    elif samp not in ([(1, 1)] * 3, [(2, 2), (1, 1), (1, 1)]):
        raise ValueError(f"unsupported sampling {samp}")

    mw = -(-w // (8 * hmax))
    mh = -(-h // (8 * vmax))
    n_mcu = mw * mh

    raw = payload[pos:]
    end = raw.find(b"\xff\xd9")
    raw = raw[: end if end >= 0 else len(raw)]
    if dri:
        # split at RSTn markers (predictors reset per segment)
        segments = []
        cur = bytearray()
        i = 0
        while i < len(raw):
            if raw[i] == 0xFF and i + 1 < len(raw):
                nxt = raw[i + 1]
                if nxt == 0x00:
                    cur.append(0xFF)
                    i += 2
                    continue
                if 0xD0 <= nxt <= 0xD7:
                    segments.append(bytes(cur))
                    cur = bytearray()
                    i += 2
                    continue
            cur.append(raw[i])
            i += 1
        segments.append(bytes(cur))
    else:
        segments = [raw.replace(b"\xff\x00", b"\xff")]

    grids = [
        np.zeros((mh * cv * mw * ch, 64), dtype=np.int64)
        for _, ch, cv, _ in comps
    ]
    tsel = {cs: (td, ta) for cs, td, ta in scan_info}

    mcu_idx = 0
    for seg_bytes in segments:
        bits = np.concatenate([
            np.unpackbits(np.frombuffer(seg_bytes, dtype=np.uint8)),
            np.zeros(32, dtype=np.uint8),
        ])
        peek = (
            np.lib.stride_tricks.sliding_window_view(bits, 16).astype(np.uint32)
            @ _POW2_16
        ).astype(np.int64)
        bpos = 0
        nbits = len(seg_bytes) * 8
        preds = [0] * ncomp
        seg_mcus = min(dri, n_mcu - mcu_idx) if dri else n_mcu
        for _ in range(seg_mcus):
            my, mx = divmod(mcu_idx, mw)
            for ci, (cid, ch, cv, tq) in enumerate(comps):
                td, ta = tsel[cid]
                if (0, td) not in luts or (1, ta) not in luts:
                    raise ValueError("missing Huffman table")
                dc_sym, dc_len = luts[(0, td)]
                ac_sym, ac_len = luts[(1, ta)]
                for by in range(cv):
                    for bx in range(ch):
                        if bpos >= len(peek):
                            raise ValueError("truncated entropy stream")
                        p16 = peek[bpos]
                        L = int(dc_len[p16])
                        if L == 0:
                            raise ValueError("invalid Huffman code (DC)")
                        s = int(dc_sym[p16])
                        bpos += L
                        if s:
                            v = int(peek[min(bpos, len(peek) - 1)]) >> (16 - s)
                            bpos += s
                            if v < (1 << (s - 1)):
                                v -= (1 << s) - 1
                            preds[ci] += v
                        zz = grids[ci][(my * cv + by) * (mw * ch) + mx * ch + bx]
                        zz[0] = preds[ci]
                        k = 1
                        while k < 64:
                            if bpos >= len(peek):
                                raise ValueError("truncated entropy stream")
                            p16 = peek[bpos]
                            L = int(ac_len[p16])
                            if L == 0:
                                raise ValueError("invalid Huffman code (AC)")
                            sym = int(ac_sym[p16])
                            bpos += L
                            if sym == 0x00:  # EOB
                                break
                            run, s = sym >> 4, sym & 0x0F
                            if s == 0:
                                if run != 15:
                                    raise ValueError("bad AC symbol")
                                k += 16
                                continue
                            k += run
                            if k > 63:
                                raise ValueError("AC run overflow")
                            v = int(peek[min(bpos, len(peek) - 1)]) >> (16 - s)
                            bpos += s
                            if v < (1 << (s - 1)):
                                v -= (1 << s) - 1
                            zz[k] = v
                            k += 1
                        if bpos > nbits + 7:
                            raise ValueError("truncated entropy stream")
            mcu_idx += 1
        if mcu_idx >= n_mcu:
            break
    if mcu_idx < n_mcu:
        raise ValueError("truncated scan: not all MCUs decoded")

    planes = []
    for ci, (cid, ch, cv, tq) in enumerate(comps):
        if tq not in qts:
            raise ValueError(f"missing quantization table {tq}")
        co = np.zeros_like(grids[ci], dtype=np.float64)
        co[:, _ZIGZAG] = grids[ci] * qts[tq].reshape(-1)[_ZIGZAG]
        px = _idct_blocks(co.reshape(-1, 8, 8)) + 128.0
        bh_, bw_ = mh * cv, mw * ch
        plane = (
            px.reshape(bh_, bw_, 8, 8).transpose(0, 2, 1, 3).reshape(bh_ * 8, bw_ * 8)
        )
        if (ch, cv) != (hmax, vmax):  # chroma upsample by replication
            plane = np.repeat(np.repeat(plane, vmax // cv, axis=0), hmax // ch, axis=1)
        planes.append(plane[:h, :w])

    if ncomp == 1:
        out = np.clip(np.round(planes[0]), 0, 255).astype(np.uint8)[:, :, None]
        return {"width": w, "height": h, "n_channels": 1,
                "subsampled": False}, out
    y, cb, cr = planes
    rgb = np.stack([
        y + 1.402 * (cr - 128.0),
        y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0),
        y + 1.772 * (cb - 128.0),
    ], axis=2)
    return (
        {"width": w, "height": h, "n_channels": 3, "subsampled": hmax == 2},
        np.clip(np.round(rgb), 0, 255).astype(np.uint8),
    )


class JpegDecode:
    """JPEG decode + feature stage (mirrors :class:`PngDecode`).

    Output columns: width, height, n_channels, subsampled, mean_px,
    std_px, min_px, max_px — computed from the actual decoded pixels."""

    def __init__(self, payload_col: str = "payload", strict: bool = True):
        self.payload_col = payload_col
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.payload_col].combine_chunks()
        n = len(col)
        wd = np.zeros(n, dtype=np.int32)
        ht = np.zeros(n, dtype=np.int32)
        ch = np.zeros(n, dtype=np.int32)
        sub = np.zeros(n, dtype=bool)
        feats = np.full((n, 4), np.nan)  # mean, std, min, max
        ok = np.ones(n, dtype=bool)
        for i in range(n):
            try:
                meta, px = decode_jpeg(col[i].as_py())
            except (ValueError, struct.error):
                if self.strict:
                    raise
                ok[i] = False
                continue
            wd[i], ht[i], ch[i] = meta["width"], meta["height"], meta["n_channels"]
            sub[i] = meta["subsampled"]
            pf = px.astype(np.float64)
            feats[i] = (pf.mean(), pf.std(), pf.min(), pf.max())
        batch = batch.drop_columns([self.payload_col])
        cols = {
            "width": pa.array(wd, mask=~ok),
            "height": pa.array(ht, mask=~ok),
            "n_channels": pa.array(ch, mask=~ok),
            "subsampled": pa.array(sub, mask=~ok),
            "mean_px": pa.array(feats[:, 0], mask=~ok),
            "std_px": pa.array(feats[:, 1], mask=~ok),
            "min_px": pa.array(feats[:, 2], mask=~ok),
            "max_px": pa.array(feats[:, 3], mask=~ok),
        }
        for name, arr in cols.items():
            batch = batch.append_column(name, arr)
        return batch


def decode_jpeg_features(
    media: ray.data.Dataset,
    payload_col: str = "payload",
    strict: bool = True,
    batch_size: int = 32,
) -> ray.data.Dataset:
    """media(payload=JPEG bytes, ...) → per-row image features decoded
    from the REAL pixels (see :class:`JpegDecode`)."""
    return media.map_batches(
        JpegDecode(payload_col=payload_col, strict=strict),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def synth_jpeg_payloads(doc_ids: pa.Array | pa.ChunkedArray) -> list[bytes]:
    """Deterministic per-doc JPEG payloads — smooth clipped gradients
    (JPEG-friendly content), parameters a pure function of the doc_id
    hash; cycles gray/RGB, 4:4:4/4:2:0 and four quality levels so the
    corpus exercises every decode path."""
    from ._shuffle import hash64_strings

    h64 = hash64_strings(doc_ids)
    out: list[bytes] = []
    for hv in h64:
        hv = int(hv)
        w = 16 + (hv >> 4) % 25
        h = 16 + (hv >> 12) % 25
        rgb = (hv >> 20) % 2 == 1
        sub = rgb and ((hv >> 21) % 2 == 1)
        quality = (50, 75, 85, 95)[(hv >> 22) % 4]
        yy, xx = np.mgrid[0:h, 0:w]
        if rgb:
            px = np.stack([
                ((hv >> 24) % 120) + xx * ((hv >> 28) % 4 + 1) + yy,
                ((hv >> 32) % 120) + xx + yy * ((hv >> 36) % 4 + 1),
                ((hv >> 40) % 120) + xx * 2 + yy * 2,
            ], axis=2)
        else:
            px = ((hv >> 24) % 120) + xx * ((hv >> 28) % 4 + 1) + yy[
                :, :
            ] * ((hv >> 32) % 3 + 1)
        px = np.clip(px, 0, 255).astype(np.uint8)
        out.append(encode_jpeg_baseline(px, quality=quality, subsample=sub))
    return out
