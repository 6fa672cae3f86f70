import numpy as np
import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (contract: tests init
    Ray exactly once)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield ray
    ray.shutdown()


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


@pytest.fixture()
def header_reads(monkeypatch):
    """Paths of the shard files whose header was read on its own
    (``state.fs.read_header_bytes``)."""
    from fastparquet_ray.state import fs as fsmod

    reads = []
    real = fsmod.read_header_bytes

    def counting(fs, path, *a, **k):
        if path.endswith(".fprs"):
            reads.append(path)
        return real(fs, path, *a, **k)

    monkeypatch.setattr(fsmod, "read_header_bytes", counting)
    return reads


@pytest.fixture()
def no_ray_data_job(monkeypatch):
    """Make any Ray Data job fail the test: the core's jobs that hand
    no Dataset in or out run on plain Ray tasks."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    def no_job(*a, **k):
        raise AssertionError("a Ray Data job started")

    monkeypatch.setattr(StreamingExecutor, "execute", no_job)
