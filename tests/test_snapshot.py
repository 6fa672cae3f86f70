"""One metadata snapshot per dataset: listing, counts, stats and reads
of one ``EncodedDataset`` agree with each other, come from the manifest
records (no shard header on a current manifest), and follow the
dataset when a write changes it."""

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fastparquet_ray.api import EncodedDataset
from fastparquet_ray.data import generate_fragment
from fastparquet_ray.pipelines import decode_dataset, encode_pipeline
from fastparquet_ray.pipelines.decode import shard_files
from fastparquet_ray.pipelines.export import (
    consolidate_categories,
    sorted_partitioned_columns,
)
from fastparquet_ray.state import fs as fsmod
from fastparquet_ray.state.manifest import Manifest


@pytest.fixture(scope="module")
def frags(tmp_path_factory):
    d = tmp_path_factory.mktemp("snap_src")
    paths = []
    for i in range(3):
        p = str(d / f"tokens-{i:05d}.parquet")
        pq.write_table(generate_fragment(200, i, start_id=i * 200), p)
        paths.append(p)
    return paths, pa.concat_tables(pq.read_table(p) for p in paths)


@pytest.fixture()
def sidecar_reads(monkeypatch):
    """Names of the dataset sidecars read or tried
    (``state.fs.read_bytes``)."""
    reads = []
    real = fsmod.read_bytes

    def counting(fs, path, length=None):
        name = path.rsplit("/", 1)[-1]
        if name.startswith("_"):
            reads.append(name)
        return real(fs, path, length)

    monkeypatch.setattr(fsmod, "read_bytes", counting)
    return reads


def test_current_manifest_reads_no_header(
    ray_session, frags, tmp_path, header_reads
):
    paths, table = frags
    out = str(tmp_path / "enc")
    encode_pipeline(paths, out, resume=False, cluster_by="doc_id")
    eds = EncodedDataset(out)
    key = table["doc_id"][321].as_py()
    header_reads.clear()
    stats = eds.statistics()
    sorted_partitioned_columns(out)
    consolidate_categories(out)
    assert eds.count() == eds.info["rows"] == table.num_rows
    df = eds.to_pandas(filters=[("doc_id", "==", key)])
    assert df["doc_id"].tolist() == [key]
    assert len(eds.take_range(0, 50)) == 50
    decode_dataset(out)
    assert header_reads == []
    assert len(stats) == len(eds) * len(eds.columns)


def test_take_range_after_clustered_noop_resume(ray_session, frags, tmp_path):
    paths, table = frags
    out = str(tmp_path / "enc")
    encode_pipeline(paths, out, resume=False, cluster_by="doc_id")
    n = table.num_rows
    fresh = EncodedDataset(out).take_range(0, n)
    mid = EncodedDataset(out).take_range(150, 450)
    r = encode_pipeline(paths, out, resume=True, cluster_by="doc_id")
    assert r["skipped"] == r["partitions"] > 1
    recs = Manifest(out).load_records().values()
    assert {x["status"] for x in recs} == {"skipped"}
    eds = EncodedDataset(out)
    pd.testing.assert_frame_equal(eds.take_range(0, n), fresh)
    pd.testing.assert_frame_equal(eds.take_range(150, 450), mid)
    assert len(fresh) == n


def test_statistics_through_explicit_filesystem(
    ray_session, frags, tmp_path, header_reads
):
    from fsspec.implementations.dirfs import DirFileSystem
    from fsspec.implementations.local import LocalFileSystem

    paths, table = frags
    encode_pipeline(paths, str(tmp_path / "enc"), resume=False)
    dfs = DirFileSystem(path=str(tmp_path), fs=LocalFileSystem())
    eds = EncodedDataset("enc", filesystem=dfs)
    header_reads.clear()
    stats = eds.statistics()
    assert header_reads == []
    assert eds.count() == len(eds.to_pandas()) == table.num_rows
    assert len(stats) == len(eds) * len(eds.columns) > 0
    pd.testing.assert_frame_equal(
        stats, EncodedDataset(str(tmp_path / "enc")).statistics()
    )
    # the shard-subset dataset opens through the same filesystem
    assert eds[0:1].count() == stats["rows"].iloc[0]


def test_append_is_seen_by_the_same_dataset(ray_session, frags, tmp_path):
    paths, table = frags
    out = str(tmp_path / "enc")
    encode_pipeline(paths[:2], out, resume=False)
    eds = EncodedDataset(out)
    before = len(eds)
    key = table["doc_id"][500].as_py()  # in the third fragment
    flt = [("doc_id", "==", key)]
    assert eds.to_pandas(filters=flt).empty
    assert eds.count() == 400
    encode_pipeline(paths, out, resume=True)
    assert eds.to_pandas(filters=flt)["doc_id"].tolist() == [key]
    assert len(eds) == eds.info["partitions"] == len(shard_files(out)) > before
    assert eds.count() == eds.info["rows"] == len(eds.to_pandas()) == 600


def test_orphan_shard_counts_as_it_reads(ray_session, frags, tmp_path):
    """A run killed before its manifest write leaves a shard no record
    names: count and info read its header, as to_pandas reads it."""
    paths, table = frags
    out = str(tmp_path / "enc")
    encode_pipeline(paths, out, resume=False)
    manifest = Manifest(out)
    records = list(manifest.load_records().values())
    manifest.write_records(records[1:])
    eds = EncodedDataset(out)
    assert eds.count() == eds.info["rows"] == len(eds.to_pandas())
    assert eds.count() == table.num_rows
    assert len(eds) == len(records)


def test_unchanged_dataset_reads_sidecars_once(
    ray_session, frags, tmp_path, sidecar_reads
):
    paths, table = frags
    out = str(tmp_path / "enc")
    encode_pipeline(paths, out, resume=False, cluster_by="doc_id")
    sidecar_reads.clear()
    eds = EncodedDataset(out)
    ids = table["doc_id"].to_pylist()
    for i in range(200):
        key = ids[(i * 7) % len(ids)]
        df = eds.to_pandas(filters=[("doc_id", "==", key)])
        assert df["doc_id"].tolist() == [key]
    assert eds.count() == len(ids)
    # one read each; _pandas.json is absent (write_index was not set)
    assert sorted(sidecar_reads) == [
        "_manifest.jsonl", "_pandas.json", "_plan.json"
    ]
