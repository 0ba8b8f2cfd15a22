"""The `ray job submit` entrypoint (python -m contest_parsing_ray)."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def cli_seq(tmp_path_factory):
    from contest_parsing_ray.sources.synthetic import write_sequences_parquet

    d = tmp_path_factory.mktemp("cli_seq")
    write_sequences_parquet(str(d), n_rows=5_000, seed=11)
    return str(d)


def _run(args):
    env = dict(os.environ, PYTHONPATH=ROOT, RAY_ADDRESS="")
    out = subprocess.run(
        [sys.executable, "-m", "contest_parsing_ray", *args],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_cli_runs_and_resumes(cli_seq, tmp_path):
    out = str(tmp_path / "out")
    m = _run(["--input", cli_seq, "--out", out, "--tiers", "1m,1h"])
    assert set(m["tiers"]) == {"1m", "1h"}
    assert all(t["points"] > 0 for t in m["tiers"].values())
    assert os.path.isdir(os.path.join(out, "rollup"))
    assert os.path.isdir(os.path.join(out, "manifests"))
    # resubmit: lineage manifests short-circuit both tiers
    m2 = _run(["--input", cli_seq, "--out", out, "--tiers", "1m,1h"])
    assert sorted(m2["tiers_skipped_by_resume"]) == ["1h", "1m"]


def test_cli_bad_tier_spec(cli_seq, tmp_path):
    env = dict(os.environ, PYTHONPATH=ROOT, RAY_ADDRESS="")
    r = subprocess.run(
        [sys.executable, "-m", "contest_parsing_ray", "--input", cli_seq,
         "--out", str(tmp_path / "o"), "--tiers", "7x"],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert r.returncode != 0
    assert "7x" in r.stderr
