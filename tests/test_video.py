"""RIFF/AVI + MJPEG video decode (stages/video.py).

The container parser is pure struct unpacking and the frame codec is the
pure-numpy baseline-JPEG decoder, so every test runs on real bytes: AVI
payloads written by `encode_avi_mjpeg` and frame pixels compared against
the pre-encode source arrays (lossy JPEG -> small tolerance on smooth
gradients)."""

from __future__ import annotations

import struct

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data


def _gradient_frames(n, h=24, w=32, rgb=False, shift=4):
    yy, xx = np.mgrid[0:h, 0:w]
    frames = []
    for t in range(n):
        base = np.clip((xx + t * shift) * 3 + yy, 0, 255)
        if rgb:
            px = np.stack([base, np.clip(base + 30, 0, 255), yy * 4], axis=2)
        else:
            px = base
        frames.append(px.astype(np.uint8))
    return frames


def test_avi_roundtrip_structure_and_pixels():
    from contest_parsing_ray.stages.video import (
        decode_avi_frames, encode_avi_mjpeg, parse_avi,
    )

    frames = _gradient_frames(5, rgb=True)
    avi = encode_avi_mjpeg(frames, fps=25, quality=92)
    meta, views = parse_avi(avi)
    assert meta["width"] == 32 and meta["height"] == 24
    assert meta["n_frames"] == 5 and len(views) == 5
    assert meta["fourcc"] == "MJPG"
    assert meta["usec_per_frame"] == 40000
    # every demuxed chunk is a standalone JPEG
    for v in views:
        assert bytes(v[:2]) == b"\xff\xd8"
    m, decoded = decode_avi_frames(avi, frame_stride=1)
    assert m["n_sampled"] == 5
    for src, dec in zip(frames, decoded):
        assert dec.shape == (24, 32, 3)
        err = np.abs(dec.astype(float) - src.astype(float)).mean()
        assert err < 4.0, err


def test_avi_frame_stride_skips_decode():
    from contest_parsing_ray.stages.video import decode_avi_frames, encode_avi_mjpeg

    frames = _gradient_frames(7)
    avi = encode_avi_mjpeg(frames, fps=10)
    m, decoded = decode_avi_frames(avi, frame_stride=3)
    assert m["n_frames"] == 7 and m["n_sampled"] == 3  # frames 0, 3, 6
    for src, dec in zip(frames[::3], decoded):
        err = np.abs(dec.astype(float).squeeze() - src.astype(float)).mean()
        assert err < 4.0
    with pytest.raises(ValueError):
        decode_avi_frames(avi, frame_stride=0)


def test_avi_rejects_garbage_and_foreign_codec():
    from contest_parsing_ray.stages.video import encode_avi_mjpeg, parse_avi

    with pytest.raises(ValueError):
        parse_avi(b"RIFF\x00\x00\x00\x00WAVE")  # RIFF but not AVI
    with pytest.raises(ValueError):
        parse_avi(b"\x89PNG" + b"\x00" * 40)
    avi = bytearray(encode_avi_mjpeg(_gradient_frames(2), fps=10))
    i = avi.index(b"MJPG")  # strh fourccHandler — flip to a foreign codec
    avi[i : i + 4] = b"H264"
    with pytest.raises(ValueError, match="H264"):
        parse_avi(bytes(avi))
    # truncated mid-chunk: cut into the LAST movi frame's body (idx1 is
    # 8 + 2*16 = 40 trailing bytes; +20 lands inside the final 00dc chunk)
    with pytest.raises(ValueError, match="truncated"):
        whole = encode_avi_mjpeg(_gradient_frames(2), fps=10)
        parse_avi(whole[:-60])


def test_video_stage_batching_invariance_and_motion(ray_session):
    from contest_parsing_ray.stages.video import (
        decode_avi_frames, decode_video_features, synth_avi_payloads,
    )

    ids = pa.array([f"doc-{i}" for i in range(30)])
    payloads = synth_avi_payloads(ids)
    # corpus must exercise gray + RGB and multiple frame counts
    metas = [decode_avi_frames(p)[0] for p in payloads]
    shapes = {decode_avi_frames(p)[1][0].shape[-1] for p in payloads}
    assert shapes == {1, 3}
    assert len({m["n_frames"] for m in metas}) > 1
    media = pd.DataFrame(
        {"doc_id": ids.to_pylist(), "payload": payloads,
         "media_type": "video/x-msvideo"}
    )
    got = {}
    for bs in (7, 30):
        out = (
            decode_video_features(
                ray.data.from_pandas(media), frame_stride=2, batch_size=bs,
            )
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        got[bs] = out
    pd.testing.assert_frame_equal(got[7], got[30])
    out = got[30]
    # translating gradients: motion must be strictly positive whenever
    # more than one frame was sampled
    multi = out[out["n_sampled"] > 1]
    assert len(multi) > 0 and (multi["motion"] > 0).all()
    single = out[out["n_sampled"] == 1]
    assert (single["motion"] == 0).all()
    # stats match a driver-side recompute for one doc
    m0, fr0 = decode_avi_frames(payloads[0], frame_stride=2)
    stack = np.stack([f.astype(np.float64) for f in fr0])
    row0 = out[out["doc_id"] == "doc-0"].iloc[0]
    np.testing.assert_allclose(row0["mean_px"], stack.mean())
    assert row0["n_frames"] == m0["n_frames"]
    # lax mode nulls out broken payloads instead of failing the stage
    media.loc[0, "payload"] = b"not an avi"
    lax = (
        decode_video_features(
            ray.data.from_pandas(media), strict=False, batch_size=30,
        )
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert np.isnan(lax.loc[0, "mean_px"]) and not np.isnan(lax.loc[1, "mean_px"])


def test_synth_avi_deterministic():
    from contest_parsing_ray.stages.video import synth_avi_payloads

    ids = pa.array([f"d{i}" for i in range(12)])
    assert synth_avi_payloads(ids) == synth_avi_payloads(ids)
