"""Cross-engine compatibility (SURVEY §5 layer 3 — the reference
decodes Impala/Spark-written files, test_read.py:52-84):

- INT96 timestamps (reference E15, converted_types.py:159-162): files
  written with the deprecated INT96 physical type must read and encode
  through the engine losslessly (pyarrow's read path converts INT96 ->
  timestamp; our container then carries it like any timestamp).
- gzip/snappy/zstd-compressed parquet inputs read transparently.
- category consolidation (reference A6) over shard headers.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fastparquet_ray.pipelines import decode_dataset, encode_pipeline


def test_int96_timestamp_input_roundtrips(ray_session, tmp_path):
    ts = pd.date_range("2001-03-04 05:06:07", periods=200, freq="17min")
    t = pa.table({"doc_id": [f"d{i}" for i in range(200)], "ts": ts})
    src = str(tmp_path / "int96.parquet")
    pq.write_table(t, src, use_deprecated_int96_timestamps=True, version="1.0")
    # prove the file really is INT96 on disk
    meta = pq.ParquetFile(src).metadata
    assert meta.row_group(0).column(1).physical_type == "INT96"
    out = str(tmp_path / "enc")
    encode_pipeline([src], out)
    got = decode_dataset(out).to_pandas().sort_values("doc_id")
    exp = t.to_pandas().sort_values("doc_id")
    assert got["ts"].astype("datetime64[ns]").tolist() == exp["ts"].tolist()


def test_compressed_parquet_inputs(ray_session, tmp_path):
    rng = np.random.default_rng(5)
    t = pa.table(
        {
            "doc_id": [f"d{i}" for i in range(300)],
            "v": rng.integers(0, 1000, 300),
        }
    )
    paths = []
    for codec in ("gzip", "snappy", "zstd"):
        p = str(tmp_path / f"in_{codec}.parquet")
        pq.write_table(t, p, compression=codec)
        paths.append(p)
    out = str(tmp_path / "enc")
    summary = encode_pipeline(paths, out)
    assert summary["rows"] == 900
    got = decode_dataset(out).to_pandas()
    assert len(got) == 900
    assert sorted(got["v"].unique()) == sorted(t.column("v").to_numpy().tolist() if False else np.unique(t.column("v").to_numpy()).tolist())


def test_consolidate_categories(ray_session, tmp_path):
    from fastparquet_ray.pipelines.export import consolidate_categories

    src = tmp_path / "src"
    src.mkdir()
    for i in range(2):
        t = pa.table(
            {
                "doc_id": [f"d{i}-{j}" for j in range(100)],
                "cat": [f"c{j % (3 + i * 5)}" for j in range(100)],
            }
        )
        pq.write_table(t, str(src / f"p{i}.parquet"))
    out = str(tmp_path / "enc")
    encode_pipeline(sorted(str(p) for p in src.glob("*.parquet")), out)
    df = consolidate_categories(out)
    row = df[df["column"] == "cat"].iloc[0]
    assert row["max_distinct"] == 8 and row["shards"] == 2


def test_export_parquet_int96(ray_session, tmp_path):
    """times='int96' (reference writer.py:302-307): exported parquet
    stores timestamps as legacy INT96 and pyarrow reads the same
    instants back."""
    import pyarrow.parquet as pq

    import fastparquet_ray as fr
    from fastparquet_ray.pipelines.export import export_parquet

    ts = pd.date_range("2001-05-01", periods=50, freq="h")
    df = pd.DataFrame(
        {"k": np.arange(50, dtype=np.int64), "ts": ts.astype("datetime64[us]")}
    )
    enc = str(tmp_path / "enc96")
    fr.write(enc, df)
    out = str(tmp_path / "pq96")
    s = export_parquet(enc, out, times="int96")
    assert s["exported"] >= 1
    files = sorted(
        str(p) for p in __import__("pathlib").Path(out).rglob("*.parquet")
    )
    pf = pq.ParquetFile(files[0])
    tcol = [
        pf.schema.column(i)
        for i in range(len(pf.schema))
        if pf.schema.column(i).name == "ts"
    ][0]
    assert tcol.physical_type == "INT96"
    back = (
        pq.read_table(files)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert (back["ts"].astype("datetime64[us]") == df["ts"]).all()

    with pytest.raises(ValueError):
        export_parquet(enc, out, times="int32")
