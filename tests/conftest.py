"""Session-scoped Ray fixture — one ray.init per pytest session."""

from __future__ import annotations

import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    try:
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
    except Exception:
        pass
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sequences_dir(tmp_path_factory):
    """Small deterministic sequences table shared across tests."""
    from contest_parsing_ray.sources.synthetic import write_sequences_parquet

    d = tmp_path_factory.mktemp("seq") / "sequences"
    write_sequences_parquet(str(d), n_rows=10_000, seed=42, num_files=4)
    return str(d)
