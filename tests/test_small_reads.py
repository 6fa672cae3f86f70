"""Materializing reads decode in the driver: ``EncodedDataset.to_pandas``,
``head`` and ``take_row_range`` prune on the column stats in the
manifest records (no shard header is opened), read only the kept
shard bodies and decode them in-process — no Ray Data job — and return
what the streaming ``decode_dataset`` returns."""

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from fastparquet_ray.api import EncodedDataset, write
from fastparquet_ray.container import read_header
from fastparquet_ray.data import generate_fragment
from fastparquet_ray.pipelines import decode_dataset, encode_pipeline
from fastparquet_ray.pipelines.decode import shard_files, take_row_range
from fastparquet_ray.state import fs as fsmod
from fastparquet_ray.state.manifest import Manifest


@pytest.fixture(scope="module")
def clustered(ray_session, tmp_path_factory):
    src = tmp_path_factory.mktemp("small_src")
    paths = []
    for i in range(2):
        p = str(src / f"tokens-{i:05d}.parquet")
        pq.write_table(generate_fragment(1500, i, start_id=i * 1500), p)
        paths.append(p)
    out = str(tmp_path_factory.mktemp("small_enc") / "enc")
    encode_pipeline(paths, out, resume=False, cluster_by="doc_id")
    assert len(shard_files(out)) >= 4
    return out, pa.concat_tables([pq.read_table(p) for p in paths])


@pytest.fixture()
def no_ray_data(monkeypatch):
    def boom(*a, **k):
        raise AssertionError("a Ray Data job was launched")

    monkeypatch.setattr(ray.data, "read_datasource", boom)
    monkeypatch.setattr(ray.data, "from_arrow", boom)


@pytest.fixture()
def body_reads(monkeypatch):
    """Names of the shard files read whole (header probes pass a
    length and are not counted)."""
    reads = []
    real = fsmod.read_bytes

    def counting(fs, path, length=None):
        name = path.rsplit("/", 1)[-1]
        if length is None and name.startswith("shard-") and name.endswith(".fprs"):
            reads.append(name)
        return real(fs, path, length)

    monkeypatch.setattr(fsmod, "read_bytes", counting)
    return reads


@pytest.fixture()
def header_reads(monkeypatch):
    """Names of the shard files whose header was read on its own."""
    reads = []
    real = fsmod.read_header_bytes

    def counting(fs, path, *a, **k):
        name = path.rsplit("/", 1)[-1]
        if name.startswith("shard-") and name.endswith(".fprs"):
            reads.append(name)
        return real(fs, path, *a, **k)

    monkeypatch.setattr(fsmod, "read_header_bytes", counting)
    return reads


def _rows(df: pd.DataFrame, by: str = "doc_id") -> pd.DataFrame:
    df = df.sort_values(by).reset_index(drop=True)
    if "tokens" in df.columns:
        df["tokens"] = df["tokens"].map(list)
    return df


def _assert_same(got: pd.DataFrame, want: pd.DataFrame, by: str = "doc_id"):
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(_rows(got, by), _rows(want, by))


def test_point_lookup_runs_no_ray_job_and_reads_one_shard(
    clustered, no_ray_data, body_reads, header_reads, caplog
):
    out, src = clustered
    eds = EncodedDataset(out)
    key = src["doc_id"][1234].as_py()
    with caplog.at_level(logging.DEBUG, logger="fastparquet_ray"):
        df = eds.to_pandas(filters=[("doc_id", "==", key)])
    assert df["doc_id"].tolist() == [key]
    assert list(df["tokens"][0]) == src["tokens"][1234].as_py()
    assert len(body_reads) == 1
    # pruned on the stats in the manifest records: no header is opened
    assert header_reads == []
    n = len(shard_files(out))
    msgs = [r.getMessage() for r in caplog.records]
    assert any(f"kept 1, pruned {n - 1} of {n} shards" in m for m in msgs)
    assert any(
        f"stats from {n} manifest records, 0 header reads" in m for m in msgs
    )
    assert any("decoded 1 of 1 kept shards" in m for m in msgs)


def test_take_row_range_in_one_shard_runs_no_ray_job(
    clustered, no_ray_data, body_reads
):
    out, src = clustered
    recs = sorted(
        Manifest(out).load_records().values(), key=lambda r: r["key_min"]
    )
    stop = min(int(recs[0]["rows"]), 12)
    got = take_row_range(out, 2, stop, columns=["doc_id", "n_tok"])
    want = (
        src.select(["doc_id", "n_tok"]).to_pandas()
        .sort_values("doc_id").iloc[2:stop].reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)
    assert body_reads == [recs[0]["shard"]]


def test_head_stops_at_the_shard_that_completes_n(
    clustered, no_ray_data, body_reads
):
    out, _ = clustered
    paths = shard_files(out)
    first = paths[0].rsplit("/", 1)[-1]
    n0 = read_header(fsmod.read_header_bytes(*fsmod.get_fs(paths[0])))["num_rows"]
    eds = EncodedDataset(out)
    flt = [("n_tok", ">=", 1)]  # every row matches, no shard is pruned

    h = eds.head(5, columns=["doc_id"], filters=flt)
    assert len(h) == 5 and body_reads == [first]
    body_reads.clear()
    h = eds.head(n0 + 1, filters=flt)
    assert len(h) == n0 + 1 and len(body_reads) == 2
    # the first n rows in sorted shard order
    whole = eds.to_pandas(filters=flt)
    pd.testing.assert_frame_equal(_rows(h), _rows(whole.iloc[: n0 + 1]))


def _match(df: pd.DataFrame, filters) -> pd.Series:
    """The filters evaluated by pandas on an unfiltered read."""
    ops = {
        "==": lambda c, v: c == v,
        "!=": lambda c, v: c != v,
        ">": lambda c, v: c > v,
        "<": lambda c, v: c < v,
        "in": lambda c, v: c.isin(v),
        "contains": lambda c, v: c.map(lambda x: v in list(x)),
    }
    keep = pd.Series(True, index=df.index)
    for col, op, val in filters:
        keep &= ops[op](df[col], val).astype(bool)
    return keep


@pytest.mark.parametrize(
    "kw",
    [
        {},
        {"columns": ["n_tok", "doc_id"]},
        {"columns": ["n_tok", "doc_id"], "filters": [("n_tok", ">", 300)]},
        {"filters": [("source", "in", ["code", "books"])]},
        {"categories": ["source"], "filters": [("n_tok", "<", 100)]},
        {
            "columns": ["source", "tokens", "doc_id"],
            "filters": [("n_tok", "<", 40)],
        },
        {
            "columns": ["tokens", "n_tok", "doc_id"],
            "filters": [("n_tok", ">", 250), ("source", "!=", "web")],
        },
        {"filters": [("tokens", "contains", 5), ("n_tok", "<", 60)]},
        {"categories": ["source"], "filters": [("source", "==", "code")]},
    ],
    ids=[
        "all", "columns", "columns-filter", "in-filter", "categories",
        "filter-not-projected", "two-filters", "contains",
        "categories-filter",
    ],
)
def test_driver_read_matches_decode_dataset(clustered, kw):
    out, _ = clustered
    want = pa.concat_tables(
        decode_dataset(out, **kw).iter_batches(batch_format="pyarrow")
    ).to_pandas()
    got = EncodedDataset(out).to_pandas(**kw)
    assert len(got) > 0
    _assert_same(got, want)
    if "categories" in kw:
        assert isinstance(got["source"].dtype, pd.CategoricalDtype)
    if "filters" in kw:
        # both filtered executors return the rows an unfiltered read
        # holds that match, in the projection's column order
        full = EncodedDataset(out).to_pandas(categories=kw.get("categories"))
        full = full[_match(full, kw["filters"])]
        if "columns" in kw:
            full = full[kw["columns"]]
        _assert_same(got, full)


def test_zero_match_filter_is_empty(clustered, no_ray_data, body_reads):
    out, src = clustered
    eds = EncodedDataset(out)
    # pruned on stats: no shard is read at all
    assert len(eds.to_pandas(filters=[("n_tok", ">", 10**6)])) == 0
    assert len(eds.head(3, filters=[("n_tok", ">", 10**6)])) == 0
    assert body_reads == []
    # inside one shard's key range but absent: the shard is read and
    # the residual filter leaves a typed empty frame
    key = src["doc_id"][10].as_py() + "x"
    df = eds.to_pandas(columns=["doc_id", "n_tok"], filters=[("doc_id", "==", key)])
    assert len(df) == 0 and list(df.columns) == ["doc_id", "n_tok"]
    assert len(body_reads) == 1


def test_zero_match_equals_decode_dataset(clustered):
    out, src = clustered
    key = src["doc_id"][10].as_py() + "x"
    for flt in ([("n_tok", ">", 10**6)], [("doc_id", "==", key)]):
        assert decode_dataset(out, filters=flt).count() == 0
        assert len(EncodedDataset(out).to_pandas(filters=flt)) == 0


def test_bad_filter_still_raises(clustered, no_ray_data):
    eds = EncodedDataset(clustered[0])
    with pytest.raises(ValueError, match="bad filter"):
        eds.to_pandas(filters=[("n_tok", "~", 1)])
    with pytest.raises(ValueError, match="bad filter"):
        eds.head(3, filters=[("n_tok", ">")])


def test_hive_layout_matches_decode_dataset(ray_session, tmp_path):
    n = 300
    rng = np.random.default_rng(3)
    t = pa.table(
        {
            "doc_id": [f"d{i:04d}" for i in range(n)],
            "n_tok": pa.array(rng.integers(1, 50, n), pa.int32()),
            "source": [["web", "book", "code"][i % 3] for i in range(n)],
        }
    )
    p = str(tmp_path / "part-0.parquet")
    pq.write_table(t, p)
    out = str(tmp_path / "enc")
    encode_pipeline([p], out, hive_cols=["source"])
    for kw in (
        {},
        {"filters": [("source", "==", "book")]},
        {"columns": ["doc_id", "source"], "filters": [("n_tok", ">", 20)]},
    ):
        want = decode_dataset(out, **kw).to_pandas()
        got = EncodedDataset(out).to_pandas(**kw)
        assert len(got) > 0
        _assert_same(got, want)
    got = EncodedDataset(out).to_pandas(filters=[("source", "==", "book")])
    assert set(got["source"]) == {"book"} and len(got) == n // 3
    # a projection of partition columns alone keeps every row
    for flt, rows in ((None, n), ([("source", "!=", "web")], 2 * n // 3)):
        kw = {"columns": ["source"], "filters": flt}
        got = EncodedDataset(out).to_pandas(**kw)["source"]
        want = decode_dataset(out, **kw).to_pandas()["source"]
        assert len(got) == rows and sorted(got) == sorted(want)


def test_write_index_restored_by_driver_read(ray_session, tmp_path):
    df = generate_fragment(400, 5).to_pandas().set_index("doc_id")
    out = str(tmp_path / "enc")
    write(out, df, write_index=True)
    got = EncodedDataset(out).to_pandas(filters=[("n_tok", ">", 150)])
    want = df[df["n_tok"] > 150]
    assert got.index.name == "doc_id"
    pd.testing.assert_frame_equal(
        _rows(got.reset_index()), _rows(want.reset_index())
    )
    # the pre-driver to_pandas: Ray batches, then the same index restore
    ray_rows = EncodedDataset(out)._restore_index(pa.concat_tables(
        decode_dataset(out, filters=[("n_tok", ">", 150)])
        .iter_batches(batch_format="pyarrow")
    ).to_pandas())
    _assert_same(got.reset_index(), ray_rows.reset_index())


def test_memory_fs_driver_read():
    """memory:// is process-local, so Ray read tasks cannot see it;
    the driver read can."""
    from fsspec.implementations.memory import MemoryFileSystem

    from fastparquet_ray.plan import train_plan
    from fastparquet_ray.stages.encode_stage import EncodeShard

    MemoryFileSystem.store.clear()
    out = "memory://small_reads"
    parts = [generate_fragment(200, i, start_id=i * 200) for i in range(3)]
    plan = train_plan(parts[0])
    manifest = Manifest(out)
    manifest.write_plan(plan)
    enc = EncodeShard(plan_json=plan.to_json(), out_dir=out)
    manifest.write_records([r for t in parts for r in enc(t).to_pylist()])
    src = pa.concat_tables(parts).to_pandas()
    try:
        eds = EncodedDataset(out)
        _assert_same(eds.to_pandas(), src)
        key = src["doc_id"][321]
        hit = eds.to_pandas(filters=[("doc_id", "==", key)])
        _assert_same(hit, src[src["doc_id"] == key])
        assert len(eds.head(7, columns=["doc_id"])) == 7
    finally:
        MemoryFileSystem.store.clear()


def test_s3compat_driver_read_matches_decode_dataset(ray_session, tmp_path):
    pytest.importorskip("moto")
    pytest.importorskip("boto3")
    from moto.server import ThreadedMotoServer

    from fastparquet_ray.state.s3compat import S3CompatFileSystem

    server = ThreadedMotoServer(port=0)
    server.start()
    try:
        port = server._server.socket.getsockname()[1]
        fs = S3CompatFileSystem(endpoint_url=f"http://127.0.0.1:{port}")
        fs.makedirs("bkt/x")
        p = str(tmp_path / "part-0.parquet")
        pq.write_table(generate_fragment(500, 2), p)
        out = "bkt/enc"
        encode_pipeline([p], out, resume=False, filesystem=fs)
        eds = EncodedDataset(out, filesystem=fs)
        for kw in ({}, {"columns": ["doc_id"], "filters": [("n_tok", "<", 120)]}):
            want = decode_dataset(out, filesystem=fs, **kw).to_pandas()
            _assert_same(eds.to_pandas(**kw), want)
    finally:
        server.stop()
