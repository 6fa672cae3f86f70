"""The encode job on plain Ray tasks: no layout starts a Ray Data job,
nor do verify and export; tasks take contiguous runs of input blocks
sized by bytes (``cluster.reducer_count``) and each block still writes
its own shard, decode read tasks follow the same rule, a block read in the
encode task gives the same shard header as one that crossed the object
store, the summary times each driver stage, and the core (everything
but ``functions/`` and ``pipelines/flagship.py``) imports nothing from
the operator surface."""

import ast
import glob
import logging
import os
import subprocess
import sys
import time

import numpy as np
import pyarrow as pa
import pytest

from fastparquet_ray.container import read_header
from fastparquet_ray.data import write_tokens_dataset
from fastparquet_ray.pipelines import encode_pipeline
from fastparquet_ray.plan import CodecPlan
from fastparquet_ray.stages.encode_stage import EncodeShard
from fastparquet_ray.state.manifest import Manifest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_tokens_dataset(
        str(tmp_path_factory.mktemp("fused_src")), 2000, n_fragments=4
    )


def _ones(n: int) -> pa.Buffer:
    return pa.py_buffer(np.packbits(np.ones(n, bool), bitorder="little"))


def _ipc_roundtrip(t: pa.Table) -> pa.Table:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return pa.ipc.open_stream(sink.getvalue()).read_all()


def _header_raw_bytes(table: pa.Table, out: str) -> int:
    os.makedirs(out)
    EncodeShard(plan_json=CodecPlan().to_json(), out_dir=out)(table)
    (shard,) = glob.glob(os.path.join(out, "shard-*.fprs"))
    with open(shard, "rb") as f:
        return read_header(f.read())["raw_bytes"]


def test_raw_bytes_ignore_all_valid_bitmaps(tmp_path):
    """The all-ones bitmaps a parquet read leaves on null-free arrays
    (top level and list child) are not counted, as after Arrow IPC; a
    column with real nulls still counts its bitmap."""
    n = 1000
    vals = pa.array(np.arange(n), pa.int32())
    n_tok = pa.Array.from_buffers(pa.int32(), n, [_ones(n), vals.buffers()[1]])
    offs = pa.array(np.arange(0, 3 * n + 1, 3), pa.int32())
    child_vals = pa.array(np.arange(3 * n), pa.int64())
    child = pa.Array.from_buffers(
        pa.int64(), 3 * n, [_ones(3 * n), child_vals.buffers()[1]]
    )
    tokens = pa.Array.from_buffers(
        pa.list_(pa.int64()), n, [_ones(n), offs.buffers()[1]], children=[child]
    )
    nulls = pa.array([None if i % 5 == 0 else i for i in range(n)], pa.int64())
    t = pa.table({"n_tok": n_tok, "tokens": tokens, "maybe": nulls})
    assert n_tok.buffers()[0] is not None and child.buffers()[0] is not None
    via_ipc = _ipc_roundtrip(t)
    assert via_ipc.column("tokens").chunk(0).values.buffers()[0] is None
    assert t.nbytes > via_ipc.nbytes

    raw = _header_raw_bytes(t, str(tmp_path / "direct"))
    assert raw == _header_raw_bytes(via_ipc, str(tmp_path / "ipc"))
    assert raw == via_ipc.nbytes
    # values plus the bitmap of the column that has nulls
    only_nulls = _header_raw_bytes(pa.table({"maybe": nulls}), str(tmp_path / "n"))
    assert only_nulls == 8 * n + (n + 7) // 8


@pytest.fixture(scope="module")
def sixteen(tmp_path_factory):
    return write_tokens_dataset(
        str(tmp_path_factory.mktemp("sixteen_src")), 1600, n_fragments=16
    )


def test_fresh_encode_packs_files_into_byte_balanced_tasks(
    ray_session, sixteen, tmp_path, monkeypatch, no_ray_data_job
):
    """A plain fresh encode starts no Ray Data job. Its task count is
    ``cluster.reducer_count`` of the input bytes: 16 small files on 4
    CPUs go to 4 tasks of 4 contiguous blocks, and each block (here a
    file) still writes its own shard. The calling process reads no
    input rows and gets back only manifest records."""
    from fastparquet_ray.pipelines import encode as encode_mod

    def no_caller_read(*a, **k):
        raise AssertionError("the calling process read an input block")

    monkeypatch.setattr(encode_mod, "read_block", no_caller_read)
    submitted = []
    real_submit = encode_mod.submit_in_order

    def recording_submit(submit, items, *a, **k):
        submitted.append(list(items))
        return real_submit(submit, items, *a, **k)

    monkeypatch.setattr(encode_mod, "submit_in_order", recording_submit)
    out = str(tmp_path / "enc")
    s = encode_pipeline(sixteen, out, resume=False)
    (runs,) = submitted  # one batch of tasks, one task per run
    assert [[b[0] for b in run] for run in runs] == [
        sixteen[i:i + 4] for i in range(0, 16, 4)
    ]
    assert s["encoded"] == s["partitions"] == len(sixteen)
    recs = Manifest(out).load_records().values()
    assert sorted(r["fragment"] for r in recs) == sorted(sixteen)
    assert len(glob.glob(os.path.join(out, "shard-*.fprs"))) == len(sixteen)


@pytest.mark.parametrize(
    "layout",
    [
        {"cluster_by": "doc_id"},
        {"cluster_by": ["doc_id", "n_tok"]},
        {"partition_by_source": True},
    ],
    ids=["clustered", "zorder", "salted"],
)
def test_exchange_layouts_start_no_ray_data_job(
    ray_session, paths, tmp_path, no_ray_data_job, layout
):
    """The key passes of a clustered or z-order encode (boundary
    sample, profile) and the exchange run on plain Ray tasks too."""
    s = encode_pipeline(paths, str(tmp_path / "enc"), resume=False, **layout)
    assert s["rows"] == 2000 and s["encoded"] == s["partitions"] > 1


@pytest.mark.parametrize("layout", [{}, {"hive_cols": ["source"]}],
                         ids=["plain", "hive"])
def test_verify_and_export_start_no_ray_data_job(
    ray_session, paths, tmp_path, no_ray_data_job, layout
):
    """Verify (both modes) and export (Parquet with its ``_metadata``
    sidecars, and JSON-Lines) run on plain Ray tasks."""
    import pyarrow.parquet as pq

    from fastparquet_ray.pipelines import verify_roundtrip
    from fastparquet_ray.pipelines.export import export_jsonl, export_parquet

    out = str(tmp_path / "enc")
    encode_pipeline(paths, out, resume=False, **layout)
    for mode in ("moments", "exact"):
        res = verify_roundtrip(paths, out, mode=mode)
        assert res["ok"] and res["fingerprint_groups"] == 2000, res
    pq_dir = str(tmp_path / "pq")
    assert export_parquet(out, pq_dir)["rows"] == 2000
    assert pq.read_metadata(pq_dir + "/_metadata").num_rows == 2000
    assert export_jsonl(out, str(tmp_path / "js"))["rows"] == 2000


def test_decode_read_tasks_sized_by_bytes(
    ray_session, sixteen, tmp_path, monkeypatch
):
    """``decode_dataset`` plans its read tasks by the same rule: 16
    small shards on 4 CPUs are 4 read tasks, which give back every
    row."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray

    from fastparquet_ray.pipelines import decode_dataset
    from fastparquet_ray.sources.fprs import FprsDatasource

    out = str(tmp_path / "enc")
    encode_pipeline(sixteen, out, resume=False)
    planned = []
    real = FprsDatasource.get_read_tasks

    def recording(self, parallelism, *a, **k):
        tasks = real(self, parallelism, *a, **k)
        planned.append(len(tasks))
        return tasks

    monkeypatch.setattr(FprsDatasource, "get_read_tasks", recording)
    ds = decode_dataset(out, columns=["doc_id", "n_tok"])
    got = ds.to_arrow_refs()
    assert max(planned) == 4  # a schema probe may plan one task
    t = pa.concat_tables(ray.get(got))
    src = pa.concat_tables([pq.read_table(p) for p in sixteen])
    assert t.num_rows == src.num_rows == 1600
    assert sorted(t["doc_id"].to_pylist()) == sorted(src["doc_id"].to_pylist())
    assert pc.sum(t["n_tok"]).as_py() == pc.sum(src["n_tok"]).as_py()


def test_decode_read_tasks_are_byte_runs(
    ray_session, tmp_path, monkeypatch, header_reads
):
    """One shard 8x the others: each read task takes one
    ``cluster.pack`` run of the shards by raw bytes, not an even share
    by count, names the run's shards as its input files and is planned
    without a shard read; the scan gives back every row."""
    import pyarrow.parquet as pq

    from fastparquet_ray.data import generate_fragment
    from fastparquet_ray.pipelines import decode_dataset
    from fastparquet_ray.pipelines.cluster import pack
    from fastparquet_ray.pipelines.decode import Snapshot
    from fastparquet_ray.sources.fprs import FprsDatasource

    src = tmp_path / "src"
    src.mkdir()
    start = 0
    for i, rows in enumerate([800] + [100] * 7):
        pq.write_table(
            generate_fragment(rows, fragment_idx=i, start_id=start),
            str(src / f"tokens-{i:05d}.parquet"),
        )
        start += rows
    out = str(tmp_path / "enc")
    encode_pipeline(str(src), out, resume=False)
    snap = Snapshot(out)
    assert len(snap.paths) == 8
    runs = pack(snap.paths, [snap.shard(p)["raw_bytes"] for p in snap.paths])
    # by count, 8 shards on 4 CPUs would be 4 tasks of 2
    assert [len(r) for r in runs] != [2, 2, 2, 2]

    planned = []
    real = FprsDatasource.get_read_tasks

    def recording(self, parallelism, *a, **k):
        tasks = real(self, parallelism, *a, **k)
        planned.append([t.metadata.input_files for t in tasks])
        return tasks

    monkeypatch.setattr(FprsDatasource, "get_read_tasks", recording)
    ds = decode_dataset(out, columns=["doc_id"])
    assert planned and all(p == runs for p in planned)
    assert header_reads == []
    ids = [
        i for b in ds.iter_batches(batch_format="pyarrow")
        for i in b["doc_id"].to_pylist()
    ]
    assert len(ids) == len(set(ids)) == 1500


def test_encode_summary_stage_timers(ray_session, paths, tmp_path, caplog):
    t0 = time.perf_counter()
    with caplog.at_level(logging.DEBUG, logger="fastparquet_ray"):
        s = encode_pipeline(paths, str(tmp_path / "enc"), resume=False)
    wall = time.perf_counter() - t0
    st = s["stage_s"]
    assert set(st) == {
        "sample", "train", "fingerprint", "keys", "job", "manifest"
    }
    assert all(v >= 0 for v in st.values())
    assert st["job"] > 0 and st["sample"] > 0 and st["train"] > 0
    assert st["keys"] == 0.0  # no key pass without cluster_by
    assert sum(st.values()) <= wall
    assert any("stage seconds" in r.getMessage() for r in caplog.records)
    # a clustered encode waits for its key pass after planning
    c = encode_pipeline(
        paths, str(tmp_path / "clu"), resume=False, cluster_by="doc_id"
    )
    assert c["stage_s"]["keys"] > 0


def _core_files() -> list[str]:
    pkg = os.path.join(REPO, "fastparquet_ray")
    return [
        f
        for f in glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True)
        if os.sep + "functions" + os.sep not in f
        and not f.endswith(os.path.join("pipelines", "flagship.py"))
    ]


def test_encode_import_skips_pandas():
    """Importing the encode pipeline, as an encode worker does, loads no
    pandas: the clustered key pass, bloom hashing and the export's
    stats frames import it where they use it."""
    code = (
        "import sys\n"
        "import ray\n"
        "import fastparquet_ray.pipelines.encode\n"
        "print('pandas' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=REPO),
    )
    assert out.stdout.strip() == "False"


def test_core_stands_alone():
    """Importing the core loads no ``fastparquet_ray.functions`` module,
    and no core file imports one, even lazily inside a function."""
    code = (
        "import sys\n"
        "import fastparquet_ray.pipelines.encode\n"
        "import fastparquet_ray.pipelines.decode\n"
        "import fastparquet_ray.api\n"
        "print([m for m in sys.modules"
        " if m.startswith('fastparquet_ray.functions')])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=REPO),
    )
    assert out.stdout.strip() == "[]"

    offenders = []
    for f in _core_files():
        with open(f) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                mod = "." * node.level + (node.module or "")
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                mod, names = "", [a.name for a in node.names]
            else:
                continue
            if "functions" in mod.split(".") or any(
                n.startswith("fastparquet_ray.functions") or n == "functions"
                for n in names
            ):
                offenders.append(f"{os.path.relpath(f, REPO)}:{node.lineno}")
    assert not offenders, offenders
