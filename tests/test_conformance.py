"""Conformance tests against F2-shaped fixtures (FIXTURES.md §F2): tiny
Prometheus/Jaeger/log inputs with hand-computable goldens that pin the
reference's parse-and-join semantics."""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pytest

from contest_parsing_ray.sources.jaeger import read_jaeger_json
from contest_parsing_ray.sources.logs import read_structured_logs
from contest_parsing_ray.sources.prometheus import read_prometheus_json

W30S = 30_000_000
T0 = 1_657_266_480  # 2022-07-08 07:48:00 UTC, on the 30s grid


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("f2")

    # F2a: Prometheus export with quirk rows
    prom = {
        "status": "success",
        "data": {
            "resultType": "matrix",
            "result": [
                {
                    "metric": {
                        "__name__": "container_cpu_usage_seconds_total",
                        "container": "c1", "pod": "pod-a-1",
                        "instance": "i1", "job": "kubernetes-pods",
                    },
                    "values": [[str(T0), "1.5"], [str(T0 + 30), "2.0"],
                               [str(T0 + 44), "3.0"]],
                },
                {  # pause container: repaired then (zero rows) dropped
                    "metric": {
                        "__name__": "container_cpu_usage_seconds_total",
                        "container": "POD", "pod": "pod-a-1-abc12-xyz34",
                        "instance": "i1", "job": "kubernetes-pods",
                    },
                    "values": [[str(T0), "0"], [str(T0 + 30), "4.0"]],
                },
                {  # no pod, no device -> dropped by M6
                    "metric": {"__name__": "container_cpu_usage_seconds_total",
                               "instance": "i1", "job": "kubernetes-pods"},
                    "values": [[str(T0), "9.0"]],
                },
                {  # system-wide row (device, no pod)
                    "metric": {
                        "__name__": "node_network_receive_bytes_total",
                        "device": "eth0", "instance": "i2",
                        "job": "kubernetes-service-endpoints",
                    },
                    "values": [[str(T0), "100.0"], [str(T0 + 30), "200.0"]],
                },
            ],
        },
    }
    with open(d / "metrics.json", "w") as f:
        json.dump(prom, f)

    # F2b: Jaeger export — 3-span tree + an orphan-parent span
    jaeger = {
        "data": [
            {
                "traceID": "t1",
                "spans": [
                    {"spanID": "s1", "operationName": "GET /x",
                     "startTime": (T0 + 1) * 1_000_000 + 934_000, "duration": 9578,
                     "processID": "p1",
                     "tags": [{"key": "http.status_code", "value": "200"},
                              {"key": "other", "value": "x"}],
                     "references": []},
                    {"spanID": "s2", "operationName": "GET /y",
                     "startTime": (T0 + 16) * 1_000_000, "duration": 100,
                     "processID": "p1",
                     "tags": [{"key": "otel.status_code", "value": "500"}],
                     "references": [{"traceID": "t1", "spanID": "s1"}]},
                    {"spanID": "s3", "operationName": "GET /z",
                     "startTime": (T0 + 45) * 1_000_000, "duration": 7,
                     "processID": "p1", "tags": [],
                     "references": [{"traceID": "t1", "spanID": "s2"}]},
                ],
                "processes": {
                    "p1": {"serviceName": "ts-order-service",
                           "tags": [{"key": "hostname", "value": "pod-a-1"}]},
                },
            }
        ]
    }
    with open(d / "traces.json", "w") as f:
        json.dump(jaeger, f)

    # F2c: structured log lines, known per-minute counts
    lines = [
        "2022-07-08 07:48:01.934 INFO 1---[nio-exec-1] c.t.OrderService: created order 42",
        "2022-07-08 07:48:05.000 INFO 1---[nio-exec-1] c.t.OrderService: created order 43",
        "2022-07-08 07:48:20.000 WARN 1---[nio-exec-1] c.t.OrderService: slow query 10ms",
        "2022-07-08 07:48:40.000 ERROR 1---[nio-exec-2] c.t.OrderService: failed order 44",
        "not a log line",
    ]
    with open(d / "ts-order-service.log", "w") as f:
        f.write("\n".join(lines))
    return str(d)


def test_prometheus_parser(fixture_dir):
    ds = read_prometheus_json(os.path.join(fixture_dir, "metrics.json"), W30S)
    df = ds.to_pandas().sort_values(["metric", "original_date_us"]).reset_index(drop=True)
    # survived rows: 3 cpu samples (pod row), 1 repaired pause sample
    # (non-zero), 2 node_network rows; M6 dropped the keyless row
    assert len(df) == 6
    cpu = df[df["metric"] == "container_cpu_usage_seconds_total"]
    assert len(cpu) == 4
    # pause repair: pod-a-1-abc12-xyz34 -> container "pod-a-1"
    repaired = cpu[cpu["pod"] == "pod-a-1-abc12-xyz34"]
    assert list(repaired["container"]) == ["pod-a-1"]
    # bucketing: T0+44 is nearest the T0+30 grid point (524 vs 510/540)
    t44 = cpu[cpu["original_date_us"] == (T0 + 44) * 1_000_000]
    assert list(t44["measure_time_us"]) == [(T0 + 30) * 1_000_000]
    # zero-value row dropped
    assert (cpu["value"] != 0).all()


def test_jaeger_parser(fixture_dir):
    ds = read_jaeger_json(os.path.join(fixture_dir, "traces.json"), W30S)
    df = ds.to_pandas().set_index("span_id")
    assert len(df) == 3
    assert df.loc["s1", "servicename"] == "ts-order-service"
    assert df.loc["s1", "podname"] == "pod-a-1"
    # M8: status from http.status_code or otel.status_code; extra tags do
    # NOT fan out rows
    assert df.loc["s1", "http_status_code"] == "200"
    assert df.loc["s2", "http_status_code"] == "500"
    assert pd.isna(df.loc["s3", "http_status_code"])
    # parent pointers
    assert pd.isna(df.loc["s1", "parent_span_id"])
    assert df.loc["s2", "parent_span_id"] == "s1"
    # M10 bucketing: +1.934s -> T0; +16s -> T0+30; +45s -> T0+60
    assert df.loc["s1", "starttime_us"] == T0 * 1_000_000
    assert df.loc["s2", "starttime_us"] == (T0 + 30) * 1_000_000
    assert df.loc["s3", "starttime_us"] == (T0 + 60) * 1_000_000


def test_log_parser(fixture_dir):
    ds = read_structured_logs(os.path.join(fixture_dir, "ts-order-service.log"), W30S)
    df = ds.to_pandas()
    assert len(df) == 4  # malformed line skipped
    assert set(df["service"]) == {"ts-order-service"}
    assert list(df["level"]) == ["INFO", "INFO", "WARN", "ERROR"]
    # template mining: "created order 42"/"created order 43" share an event_id
    eids = df.set_index("content")["event_id"]
    assert eids["created order 42"] == eids["created order 43"]
    assert eids["created order 42"] != eids["slow query 10ms"]
    # bucketing (nearest-30s, ties up): 01.9->0, 05->0, 20->30, 40->30
    got = (df["timestamp_us"] // 1_000_000 - T0).tolist()
    assert got == [0, 0, 30, 30]


def test_telemetry_join_golden(fixture_dir):
    from contest_parsing_ray.pipelines.telemetry_join import telemetry_join

    spans = read_jaeger_json(os.path.join(fixture_dir, "traces.json"), W30S)
    metrics = read_prometheus_json(os.path.join(fixture_dir, "metrics.json"), W30S)
    logs = read_structured_logs(
        os.path.join(fixture_dir, "ts-order-service.log"), W30S
    )
    out = telemetry_join(spans, metrics, logs, W30S, drop_unmatched=True).to_pandas()
    out = out.set_index("span_id")
    # spans s1 (bucket T0=480) and s2 (510) match pod-a-1 metric buckets;
    # s3 (540, tie 525 rounded up) has NO metric bucket -> dropped by the
    # inner join (the reference's drop_nulls semantics, Joiner.py:117-118)
    assert set(out.index) == {"s1", "s2"}
    # metric value joined: s1 bucket 480 -> 1.5; s2 bucket 510 ->
    # mean(2.0 @T0+30, 3.0 @T0+44) = 2.5
    assert out.loc["s1", "container_cpu_usage_seconds_total"] == 1.5
    assert out.loc["s2", "container_cpu_usage_seconds_total"] == 2.5
    # cumulative log features at s2's bucket (T0+30): all 4 logs bucketed
    # <= T0+30 -> running_all=4, warn=1, error=1, info=2
    assert out.loc["s2", "running_all"] == 4
    assert out.loc["s2", "running_warn"] == 1
    assert out.loc["s2", "running_error"] == 1
    assert out.loc["s2", "running_info"] == 2
    # s1's bucket T0: two INFO logs
    assert out.loc["s1", "running_all"] == 2
    assert out.loc["s1", "running_distinct_events"] == 1
    # system-wide means broadcast onto buckets
    assert out.loc["s1", "systemWide-node_network_receive_bytes_total"] == 100.0
    assert out.loc["s2", "systemWide-node_network_receive_bytes_total"] == 200.0


def test_ael_reconcile_merges_variable_token(tmp_path):
    """AEL reconcile (LogsParser.py:28-29 semantics: merge_percent=0.5,
    minEventCount=2): templates in one bin differing in <= 50% of token
    positions merge into one event (the differing position wildcards),
    while templates differing in more positions stay separate."""
    from contest_parsing_ray.sources.logs import read_structured_logs

    log = tmp_path / "ts-pay-service.log"
    log.write_text(
        "2023-01-01 10:00:00 INFO 1---[ main] a.B: connection to alpha lost\n"
        "2023-01-01 10:00:01 INFO 2---[ main] a.B: connection to beta lost\n"
        "2023-01-01 10:00:02 INFO 3---[ main] a.B: connection to gamma lost\n"
        # same bin (4 tokens, 0 params) but 3/4 tokens differ -> no merge
        "2023-01-01 10:00:03 INFO 4---[ main] a.B: shutdown of gamma node\n"
    )
    df = read_structured_logs(str(log), 30_000_000).to_pandas()
    eids = df.set_index("content")["event_id"]
    assert eids["connection to alpha lost"] == eids["connection to beta lost"]
    assert eids["connection to alpha lost"] == eids["connection to gamma lost"]
    assert eids["shutdown of gamma node"] != eids["connection to alpha lost"]


def test_ael_number_masking_and_determinism(tmp_path):
    """Anonymize step: numeric/hex/uuid/key=value fragments mask to the
    param token BEFORE binning, and two mining runs of the same file give
    identical ids (per-file mining is self-contained)."""
    from contest_parsing_ray.sources.logs import read_structured_logs

    log = tmp_path / "ts-x-service.log"
    log.write_text(
        "2023-01-01 10:00:00 INFO 1---[ main] a.B: took 15ms for user=u1\n"
        "2023-01-01 10:00:01 INFO 2---[ main] a.B: took 3200ms for user=zz\n"
    )
    a = read_structured_logs(str(log), 30_000_000).to_pandas()
    b = read_structured_logs(str(log), 30_000_000).to_pandas()
    assert a["event_id"].nunique() == 1
    assert list(a["event_id"]) == list(b["event_id"])


def test_prometheus_pause_repair_edge_pods():
    """M4 on pause rows whose pod name is missing, empty or has fewer than 3
    dash segments: the repaired container is the pod minus its last two
    segments, else '' (reference split/slice/join)."""
    from contest_parsing_ray.sources.prometheus import _parse_export

    pods = [None, "", "single", "a-b", "a-b-c", "pod-a-1-abc12-xyz34", "a--b"]
    result = []
    for i, pod in enumerate(pods):
        metric = {"__name__": "m", "container": "POD", "device": f"d{i}"}
        if pod is not None:
            metric["pod"] = pod
        result.append({"metric": metric, "values": [[str(T0), "1.0"]]})
    raw = json.dumps({"data": {"result": result}}).encode()
    df = _parse_export(raw, W30S, drop_null=False).sort_values("device")
    assert df["container"].tolist() == ["", "", "", "", "a", "pod-a-1", "a"]
