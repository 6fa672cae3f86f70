"""The codec-plan sampling pass: a stratified, bounded fragment subset
(at most 64 fragment heads, cheaper to read in-process than a Ray Data
job is to start) read in the calling process, with or without a live
Ray session, and the same CodecPlan either way."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fastparquet_ray.plan import (
    _select_fragments,
    sample_fragments,
    train_plan,
)


@pytest.fixture()
def fragments(tmp_path, rng):
    paths = []
    for i in range(6):
        n = 400
        t = pa.table(
            {
                "doc_id": [f"d{i}-{j}" for j in range(n)],
                "tokens": pa.array(
                    [rng.integers(0, 1000, rng.integers(1, 30)).tolist() for _ in range(n)],
                    pa.list_(pa.int32()),
                ),
                "n_tok": pa.array(rng.integers(1, 30, n), pa.int32()),
                "source": pa.array(
                    [["web", "book", "code"][j % 3] for j in range(n)]
                ),
            }
        )
        p = str(tmp_path / f"frag-{i:03d}.parquet")
        pq.write_table(t, p)
        paths.append(p)
    return paths


def test_select_fragments_cap_and_determinism():
    paths = [f"p{i:04d}" for i in range(1000)]
    sel = _select_fragments(paths, cap=64)
    assert len(sel) == 64
    assert sel == _select_fragments(paths, cap=64)
    assert sel[0] == "p0000" and sel[-1] == "p0999"  # spans the range
    assert sel == sorted(sel)
    short = [f"p{i}" for i in range(10)]
    assert _select_fragments(short, cap=64) == short


def test_sample_in_session_starts_no_ray_job(ray_session, fragments, monkeypatch):
    """With Ray live, the sample is still read in the calling process:
    no Ray Data job starts."""
    import ray.data

    def no_job(*a, **k):
        raise AssertionError("sample_fragments started a Ray Data job")

    monkeypatch.setattr(ray.data, "from_arrow", no_job)
    monkeypatch.setattr(ray.data, "read_parquet", no_job)
    sample = sample_fragments(fragments)
    assert sample.num_rows == 6 * 400  # rpf=2000 caps above fragment size


_BARE_SAMPLE = """
import sys
import pyarrow as pa
import ray
from fastparquet_ray.plan import sample_fragments, train_plan

sample = sample_fragments(sys.argv[2:])
assert not ray.is_initialized()
with pa.OSFile(sys.argv[1], "wb") as f, pa.ipc.new_file(f, sample.schema) as w:
    w.write_table(sample)
print(train_plan(sample).to_json())
"""


def test_session_plan_identical_to_bare_process(ray_session, fragments, tmp_path):
    """The sample and plan JSON taken under a live session equal those
    of a process that never started Ray."""
    import os
    import subprocess
    import sys

    ipc = str(tmp_path / "bare.arrow")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo)
    out = subprocess.run(
        [sys.executable, "-c", _BARE_SAMPLE, ipc, *fragments],
        capture_output=True, text=True, env=env, check=True,
    )
    bare = pa.ipc.open_file(ipc).read_all()
    live = sample_fragments(fragments)
    assert live.equals(bare)
    live_plan = train_plan(live)
    assert live_plan.to_json() == out.stdout.strip()
    assert "tokens" in live_plan.specs and "source" in live_plan.specs
