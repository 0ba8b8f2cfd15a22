"""Unit tests for the scalar kernel vocabulary (SURVEY §2.8 F1-F10) +
align_concat (J7) + metrics helpers (X2/X4)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from contest_parsing_ray.functions import scalars as F


def test_pod_to_container():
    pods = pa.array(["pod-a-1-abc12-xyz34", "a-b", "single", None])
    got = F.pod_to_container(pods).to_pylist()
    assert got == ["pod-a-1", "", "", None]


def test_epoch_and_timestamp():
    us = F.epoch_seconds_to_us(pa.array(["1657266480", "1657266480.5"]))
    assert us.to_pylist() == [1_657_266_480_000_000, 1_657_266_480_500_000]
    ts = F.us_to_timestamp(us)
    assert str(ts.type) == "timestamp[us]"


def test_concat_date_time():
    got = F.concat_date_time(
        pa.array(["2022-07-08"]), pa.array(["07:48:01"])
    ).to_pylist()
    assert got[0].isoformat().startswith("2022-07-08T07:48:01")


def test_shift_hours():
    assert F.shift_hours(pa.array([0], type=pa.int64()), 2).to_pylist() == [
        7_200_000_000
    ]


def test_if_else_equals():
    col = pa.array(["http.status_code", "other", None])
    vals = pa.array(["200", "x", "y"])
    got = F.if_else_equals(col, "http.status_code", vals).to_pylist()
    assert got == ["200", None, None]


def test_list_join():
    lists = pa.array([["a", "b"], [], ["c"]], type=pa.list_(pa.string()))
    assert F.list_join(lists).to_pylist() == ["a - b", "", "c"]
    nums = pa.array([[1, 2], [3]], type=pa.list_(pa.int64()))
    assert F.list_join(nums, "/").to_pylist() == ["1/2", "3"]


def test_row_mean_non_null():
    a = pa.array([1.0, None, None])
    b = pa.array([3.0, 4.0, None])
    got = F.row_mean_non_null(a, b).to_pylist()
    assert got[0] == 2.0 and got[1] == 4.0 and np.isnan(got[2])


def test_strip_digits():
    assert F.strip_digits(pa.array(["svc-starttime12", "a1b2"])).to_pylist() == [
        "svc-starttime", "ab",
    ]


def test_fill_null_from():
    col = pa.array([1, None, 3])
    tmpl = pa.array([9, 9, 9])
    assert F.fill_null_from(col, tmpl).to_pylist() == [1, 9, 3]


def test_align_concat():
    from contest_parsing_ray.stages.join import align_concat

    a = ray.data.from_pandas(pd.DataFrame({"k": [1, 2], "x": [10.0, 20.0]}))
    b = ray.data.from_pandas(pd.DataFrame({"k": [2, 3], "y": [200.0, 300.0]}))
    got = (
        align_concat([a, b], ["k"], num_partitions=4)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert got["k"].tolist() == [1, 2, 3]
    assert got.loc[1, "x"] == 20.0 and got.loc[1, "y"] == 200.0
    assert np.isnan(got.loc[0, "y"]) and np.isnan(got.loc[2, "x"])
