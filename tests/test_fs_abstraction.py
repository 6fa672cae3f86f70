"""Filesystem abstraction (reference S10: fsspec/open_with threading,
/root/reference/fastparquet/api.py:95-103, writer.py:864-869): shard +
manifest I/O must work against non-local filesystems.

Three layers:
1. memory:// — full encode -> manifest -> prune -> decode in-process
   against fsspec's in-memory store (process-local by nature, so no
   Ray workers — the components themselves are exercised for real).
2. file:// URIs through the whole Ray pipeline (URI parsing end-to-end
   across processes).
3. a non-local fsspec filesystem (DirFileSystem) inside Ray read tasks
   via decode_dataset(filesystem=...): the fsspec instance rides into
   each task, as any remote store's does.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fastparquet_ray.container import decode_table
from fastparquet_ray.pipelines import decode_dataset, encode_pipeline
from fastparquet_ray.pipelines.decode import prune_shards, shard_files
from fastparquet_ray.plan import train_plan
from fastparquet_ray.stages.encode_stage import EncodeShard
from fastparquet_ray.state import fs as fsmod
from fastparquet_ray.state.manifest import Manifest


def _table(n=100, seed=0):
    rng = np.random.default_rng(seed)
    return pa.table(
        {
            "doc_id": [f"d{seed}-{i:04d}" for i in range(n)],
            "tokens": pa.array(
                [rng.integers(0, 1000, rng.integers(1, 30)).tolist() for _ in range(n)],
                pa.list_(pa.int32()),
            ),
            "n_tok": pa.array(rng.integers(1, 30, n), pa.int32()),
            "source": pa.array(rng.choice(["web", "wiki"], n)),
        }
    )


def test_memory_fs_encode_decode_verify():
    from fsspec.implementations.memory import MemoryFileSystem

    MemoryFileSystem.store.clear()
    out = "memory://enc_test"
    plan = train_plan(_table(80, seed=1))
    manifest = Manifest(out)
    manifest.write_plan(plan)
    assert manifest.has_plan()
    enc = EncodeShard(plan_json=plan.to_json(), out_dir=out)
    recs = []
    for seed in (1, 2):
        recs.extend(enc(_table(80, seed=seed)).to_pylist())
    manifest.write_records(recs)

    # manifest round-trips + self-certifying shards are found
    assert len(manifest.load_records()) == 2
    assert manifest.finished_ids() == {r["partition_id"] for r in recs}

    # stats pruning + decode through the same fs
    paths = shard_files(out)
    assert len(paths) == 2 and all(p.startswith("memory://") for p in paths)
    assert prune_shards(paths, [("n_tok", ">", 9999)]) == []
    got = []
    for p in paths:
        fs, rp = fsmod.get_fs(p)
        got.append(decode_table(fsmod.read_bytes(fs, rp), manifest.load_plan().tables))
    dec = pa.concat_tables(got).to_pandas().sort_values("doc_id").reset_index(drop=True)
    exp = (
        pa.concat_tables([_table(80, seed=1), _table(80, seed=2)])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert dec["doc_id"].tolist() == exp["doc_id"].tolist()
    assert all(
        list(a) == list(b) for a, b in zip(dec["tokens"], exp["tokens"])
    )

    # resume skip path through the fs
    enc2 = EncodeShard(
        plan_json=plan.to_json(), out_dir=out, finished=manifest.finished_ids()
    )
    rec = enc2(_table(80, seed=1)).to_pylist()[0]
    assert rec["status"] == "skipped"

    # orphan removal through the fs
    removed = manifest.remove_orphan_shards({recs[0]["partition_id"]})
    assert removed == 1 and len(shard_files(out)) == 1
    MemoryFileSystem.store.clear()


def test_file_uri_pipeline(ray_session, tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    t = _table(200, seed=3)
    pq.write_table(t, str(src / "part-0.parquet"))
    out = f"file://{tmp_path}/enc"
    summary = encode_pipeline(f"file://{src}", out)
    assert summary["rows"] == 200
    got = decode_dataset(out).to_pandas().sort_values("doc_id").reset_index(drop=True)
    exp = t.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert got["doc_id"].tolist() == exp["doc_id"].tolist()
    assert got["n_tok"].tolist() == exp["n_tok"].tolist()


def test_wrapped_fsspec_fs_inside_ray_read(ray_session, tmp_path):
    from fsspec.implementations.dirfs import DirFileSystem
    from fsspec.implementations.local import LocalFileSystem

    src = tmp_path / "src"
    src.mkdir()
    t = _table(150, seed=4)
    pq.write_table(t, str(src / "part-0.parquet"))
    encode_pipeline([str(src / "part-0.parquet")], str(tmp_path / "enc"))

    # DirFileSystem is not "local" by protocol: the dataset is named
    # relative to it, and Ray read tasks open the shards through it
    dfs = DirFileSystem(path=str(tmp_path), fs=LocalFileSystem())
    assert not fsmod.is_local(dfs)
    ds = decode_dataset("enc", filesystem=dfs)
    got = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(got) == 150
    exp = t.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert got["doc_id"].tolist() == exp["doc_id"].tolist()
    assert all(list(a) == list(b) for a, b in zip(got["tokens"], exp["tokens"]))


def test_s3compat_raises_on_errors_other_than_missing():
    """A 403 (or any error that does not say the key or bucket is
    missing) raises instead of reading as a missing file; a 404 still
    reads as missing, and makedirs creates a missing bucket only."""
    from botocore.exceptions import ClientError

    from fastparquet_ray.state.s3compat import S3CompatFileSystem

    def error(code):
        return ClientError({"Error": {"Code": code}}, "HeadObject")

    class Stub:
        def __init__(self, code):
            self.code, self.created = code, []

        def head_object(self, **kw):
            raise error(self.code)

        head_bucket = head_object

        def list_objects_v2(self, **kw):
            return {"KeyCount": 0}

        def create_bucket(self, Bucket):
            self.created.append(Bucket)

    fs = S3CompatFileSystem("http://stub.invalid", skip_instance_cache=True)
    fs._client = Stub("403")
    with pytest.raises(ClientError):
        fs.info("bucket/enc/_manifest.jsonl")
    with pytest.raises(ClientError):
        fs.exists("bucket/enc/_manifest.jsonl")
    with pytest.raises(ClientError):
        fs.makedirs("bucket/enc")
    assert fs._client.created == []

    fs._client = Stub("404")
    assert not fs.exists("bucket/enc/_manifest.jsonl")
    with pytest.raises(FileNotFoundError):
        fsmod.stat_key(fs, "bucket/enc/_manifest.jsonl")
    fs.makedirs("bucket/enc")
    assert fs._client.created == ["bucket"]
