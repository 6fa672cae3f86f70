"""User-facing API surface (mirrors the reference's
test_api.py usage patterns: open/statistics/head/iter/count)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import fastparquet_ray as fr
from fastparquet_ray.api import EncodedDataset, write
from fastparquet_ray.data import generate_fragment, write_tokens_dataset


@pytest.fixture(scope="module")
def encoded(tmp_path_factory, ray_session):
    src = str(tmp_path_factory.mktemp("api_src"))
    paths = write_tokens_dataset(src, 3000, n_fragments=3)
    out = str(tmp_path_factory.mktemp("api_enc"))
    summary = write(out, paths)
    return paths, out, summary


def test_write_and_info(encoded):
    paths, out, summary = encoded
    ds = EncodedDataset(out)
    assert ds.count() == 3000
    assert set(ds.columns) == {"doc_id", "tokens", "n_tok", "source"}
    info = ds.info
    assert info["rows"] == 3000
    assert info["enc_bytes"] < info["raw_bytes"]


def test_schema_and_dtypes_metadata_only(encoded):
    """reference ParquetFile.schema/.dtypes analogs — resolved from
    the first shard header, no data decode."""
    paths, out, summary = encoded
    ds = EncodedDataset(out)
    sch = ds.schema
    assert isinstance(sch, pa.Schema)
    assert sch.field("tokens").type == pa.list_(pa.int32())
    assert sch.field("doc_id").type in (pa.string(), pa.large_string())
    dt = ds.dtypes
    assert set(dt) == set(ds.columns)
    assert dt["n_tok"] in (np.int32, np.dtype("int32"))


def test_to_pandas_roundtrip(encoded, ray_session):
    paths, out, _ = encoded
    import pyarrow.parquet as pq

    df = EncodedDataset(out).to_pandas().sort_values("doc_id")
    orig = (
        pa.concat_tables([pq.read_table(p) for p in paths])
        .to_pandas()
        .sort_values("doc_id")
    )
    assert (df["doc_id"].to_numpy() == orig["doc_id"].to_numpy()).all()
    assert (df["n_tok"].to_numpy() == orig["n_tok"].to_numpy()).all()


def test_head_iter_stats(encoded, ray_session):
    _, out, _ = encoded
    ds = EncodedDataset(out)
    h = ds.head(7, columns=["doc_id", "n_tok"])
    assert len(h) == 7 and list(h.columns) == ["doc_id", "n_tok"]
    total = sum(b.num_rows for b in ds.iter_batches(columns=["n_tok"]))
    assert total == 3000
    stats = ds.statistics()
    assert (stats[stats["column"] == "n_tok"]["min"] >= 1).all()


def test_write_dataframe_and_verify(ray_session, tmp_path):
    t = generate_fragment(500, 7)
    out = str(tmp_path / "enc")
    summary = write(out, t.to_pandas(), outer="zstd:3")
    assert summary["rows"] == 500
    ds = EncodedDataset(out)
    back = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    orig = t.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert (back["doc_id"] == orig["doc_id"]).all()
    assert all(
        list(a) == list(b)
        for a, b in zip(back["tokens"], orig["tokens"])
    )


def test_column_codec_override(ray_session, tmp_path):
    src = str(tmp_path / "src")
    paths = write_tokens_dataset(src, 500, n_fragments=1)
    out = str(tmp_path / "enc")
    write(out, paths, column_codecs={"n_tok": {"codec": "plain"}})
    import json

    from fastparquet_ray.state.manifest import Manifest

    recs = Manifest(out).load_records()
    codecs = json.loads(next(iter(recs.values()))["codecs"])
    assert codecs["n_tok"] == "plain"


@pytest.mark.parametrize(
    "codecs, named",
    [
        ({"n_tok": {"codec": "dict2"}}, "'n_tok'"),  # decode-only now
        ({"n_tok": {"codec": "nope"}}, "'n_tok'"),
        ({"n_tok": "plain"}, "'n_tok'"),
        ({"doc_id": {"codec": "zrank"}}, "'doc_id'"),
        ({"tokens": {"codec": "rle"}}, "'tokens'"),
        ({"tokens": {"lengths": {"codec": "fsst"}}}, "'tokens.lengths'"),
        ({"tokens": {"values": {"codec": "dict2"}}}, "'tokens.values'"),
        ({"n_tokens": {"codec": "plain"}}, "'n_tokens'"),
    ],
)
def test_column_codecs_checked_before_any_job(tmp_path, codecs, named):
    """A codec the encoder would not obey is refused up front,
    naming the column, before anything is sampled, run or written."""
    paths = write_tokens_dataset(str(tmp_path / "src"), 200, n_fragments=1)
    out = tmp_path / "enc"
    with pytest.raises(ValueError, match=named):
        write(str(out), paths, column_codecs=codecs)
    assert not out.exists()


def test_shard_subset_getitem(ray_session, tmp_path):
    """eds[i] / eds[a:b] -> lazy Dataset over a shard subset
    (reference S4 row-group slicing parity)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fastparquet_ray.api import EncodedDataset
    from fastparquet_ray.pipelines import encode_pipeline

    src = tmp_path / "src"
    src.mkdir()
    for i in range(3):
        pq.write_table(
            pa.table({"doc_id": [f"d{i}-{j}" for j in range(50)],
                      "v": list(range(i * 50, i * 50 + 50))}),
            str(src / f"p{i}.parquet"),
        )
    out = str(tmp_path / "enc")
    encode_pipeline(sorted(str(p) for p in src.glob("*.parquet")), out)
    eds = EncodedDataset(out)
    assert len(eds) == 3
    assert eds[0].count() == 50
    sub = eds[0:2].to_pandas()
    assert len(sub) == 100
    full = eds[:].to_pandas()
    assert len(full) == 150


def test_write_simple_read_simple(tmp_path):
    """Single-file writer/reader (reference S6 parity) — no Ray job,
    works through the fs layer (memory:// too)."""
    import numpy as np
    import pandas as pd

    from fastparquet_ray.api import read_simple, write_simple

    df = pd.DataFrame(
        {
            "k": [f"k{i}" for i in range(500)],
            "v": np.arange(500),
            "price": np.round(np.random.default_rng(1).uniform(0, 9, 500), 2),
        }
    )
    p = str(tmp_path / "one.fprs")
    s = write_simple(p, df)
    assert s["rows"] == 500 and s["enc_bytes"] < s["raw_bytes"]
    back = read_simple(p).to_pandas()
    assert back.equals(df)
    assert read_simple(p, columns=["v"]).column_names == ["v"]

    # memory:// URI
    from fsspec.implementations.memory import MemoryFileSystem

    MemoryFileSystem.store.clear()
    write_simple("memory://ws/one.fprs", df)
    assert read_simple("memory://ws/one.fprs").num_rows == 500
    MemoryFileSystem.store.clear()


def test_write_index_roundtrip(ray_session, tmp_path):
    """write(write_index=True): a named index survives to
    EncodedDataset.to_pandas (reference writer.py:938-953 /
    api.py:556-604); projections that drop the index column fall back
    to a default index; overwrite without write_index clears it."""
    df = pd.DataFrame(
        {"a": np.arange(10, dtype=np.int64),
         "b": np.arange(10)[::-1].astype(np.float64)},
        index=pd.Index(np.arange(100, 110, dtype=np.int64), name="rowid"),
    )
    out = str(tmp_path / "enc_idx")
    fr.write(out, df, write_index=True)
    eds = fr.EncodedDataset(out)
    back = eds.to_pandas().sort_index()
    assert back.index.name == "rowid"
    pd.testing.assert_frame_equal(back, df)
    # projection without the index column: plain frame, no crash
    proj = eds.to_pandas(columns=["a"])
    assert list(proj.columns) == ["a"]
    assert proj.index.name is None
    # overwrite without write_index drops the sidecar
    fr.write(out, df.reset_index(), resume=False)
    back2 = fr.EncodedDataset(out).to_pandas()
    assert back2.index.name is None
    assert "rowid" in back2.columns


def test_write_index_multiindex(ray_session, tmp_path):
    arrays = [["x", "x", "y", "y"], [1, 2, 1, 2]]
    idx = pd.MultiIndex.from_arrays(arrays, names=["grp", None])
    df = pd.DataFrame({"v": [1.0, 2.0, 3.0, 4.0]}, index=idx)
    out = str(tmp_path / "enc_midx")
    fr.write(out, df, write_index=True)
    back = fr.EncodedDataset(out).to_pandas().sort_index()
    assert back.index.names == ["grp", None]
    pd.testing.assert_frame_equal(back, df)


def test_write_simple_index_roundtrip(tmp_path):
    df = pd.DataFrame(
        {"v": [10.5, 20.5, 30.5]},
        index=pd.Index(["a", "b", "c"], name="key"),
    )
    p = str(tmp_path / "one.fprs")
    fr.write_simple(p, df, write_index=True)
    back = fr.read_simple(p).to_pandas()
    assert back.index.name == "key"
    pd.testing.assert_frame_equal(back, df)
    # column projection strips the pandas blob instead of raising
    sub = fr.read_simple(p, columns=["v"]).to_pandas()
    assert sub.index.name is None
