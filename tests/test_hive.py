"""Hive `key=value` partition layout of the OWN shard format (M8
completion, VERDICT r02 #7): write-side partition_on analog, read-side
typed path parsing, partition-value pruning, resume."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from fastparquet_ray.pipelines import decode_dataset, encode_pipeline
from fastparquet_ray.pipelines.decode import prune_shards, shard_files
from fastparquet_ray.pipelines.hive import (
    encode_component,
    parse_hive_parts,
    val_to_typed,
)


def test_val_to_typed():
    assert val_to_typed("7") == 7 and isinstance(val_to_typed("7"), int)
    assert val_to_typed("7.5") == 7.5
    assert val_to_typed("true") is True and val_to_typed("False") is False
    assert val_to_typed("web") == "web"
    assert val_to_typed("__HIVE_DEFAULT_PARTITION__") is None
    assert val_to_typed("2024-01-02") == pd.Timestamp("2024-01-02")
    assert val_to_typed("nan") == "nan"  # left as string, like the ref
    # URL-quoted roundtrip
    comp = encode_component("k", "a/b=c d")
    assert "/" not in comp.split("=", 1)[1]
    assert parse_hive_parts(comp + "/shard-x.fprs") == {"k": "a/b=c d"}


def test_parse_hive_parts_mixed_path():
    assert parse_hive_parts("source=web/year=2024/shard-1.fprs") == {
        "source": "web",
        "year": 2024,
    }
    assert parse_hive_parts("shard-1.fprs") == {}
    assert parse_hive_parts("/plain/dir/shard-1.fprs") == {}


@pytest.fixture()
def hive_encoded(ray_session, tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    n = 300
    rng = np.random.default_rng(3)
    t = pa.table(
        {
            "doc_id": [f"d{i:04d}" for i in range(n)],
            "n_tok": pa.array(rng.integers(1, 50, n), pa.int32()),
            "source": pa.array([["web", "book", "code"][i % 3] for i in range(n)]),
        }
    )
    p = str(src / "part-0.parquet")
    pq.write_table(t, p)
    out = str(tmp_path / "enc")
    encode_pipeline([p], out, resume=True, hive_cols=["source"])
    return p, out, t


def test_hive_roundtrip_reconstructs_partition_column(hive_encoded):
    p, out, t = hive_encoded
    paths = shard_files(out)
    assert len(paths) == 3
    assert all("source=" in sp for sp in paths)
    got = (
        decode_dataset(out)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = t.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(got["source"]) == list(want["source"])
    assert list(got["n_tok"]) == list(want["n_tok"])
    # shards themselves must NOT store the partition column
    from fastparquet_ray.container import read_header

    with open(paths[0], "rb") as f:
        hdr = read_header(f.read(256 * 1024))
    assert "source" not in [c["name"] for c in hdr["columns"]]


def test_hive_filter_prunes_by_path(hive_encoded):
    _, out, t = hive_encoded
    paths = shard_files(out)
    from fastparquet_ray.state import fs as fsmod

    _, root = fsmod.get_fs(out)
    kept = prune_shards(paths, [("source", "==", "web")], root=root)
    assert len(kept) == 1 and "source=web" in kept[0]
    got = decode_dataset(out, filters=[("source", "==", "web")]).to_pandas()
    want = t.to_pandas().query("source == 'web'")
    assert len(got) == len(want)
    assert set(got["source"]) == {"web"}


def test_hive_projection_with_partition_column(hive_encoded):
    _, out, _ = hive_encoded
    got = decode_dataset(out, columns=["doc_id", "source"]).to_pandas()
    assert sorted(got.columns) == ["doc_id", "source"]
    assert set(got["source"]) == {"web", "book", "code"}


def test_hive_resume_noop(hive_encoded):
    p, out, _ = hive_encoded
    summary = encode_pipeline([p], out, resume=True, hive_cols=["source"])
    assert summary["encoded"] == 0
    assert summary["skipped"] == summary["partitions"] == 3


def test_hive_typed_int_partition(ray_session, tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    t = pa.table(
        {
            "doc_id": ["a", "b", "c", "d"],
            "year": pa.array([2023, 2023, 2024, 2024], pa.int64()),
            "v": [1.5, 2.5, 3.5, 4.5],
        }
    )
    p = str(src / "x.parquet")
    pq.write_table(t, p)
    out = str(tmp_path / "enc")
    encode_pipeline([p], out, resume=False, hive_cols=["year"])
    got = decode_dataset(out).to_pandas().sort_values("doc_id")
    assert got["year"].tolist() == [2023, 2023, 2024, 2024]
    assert str(got["year"].dtype).startswith("int")


def test_hive_take_range_attaches_partition_columns(ray_session, tmp_path):
    """take_range returns the hive partition columns, like every other
    reader, and a projection may name them alone."""
    import fastparquet_ray as fr

    src = tmp_path / "src"
    src.mkdir()
    n = 600
    rng = np.random.default_rng(5)
    ids = rng.permutation(n)  # each source holds one doc_id range
    t = pa.table(
        {
            "doc_id": [f"d{i:04d}" for i in ids],
            "n_tok": pa.array(rng.integers(1, 50, n), pa.int32()),
            "source": pa.array([["book", "code", "web"][i * 3 // n] for i in ids]),
        }
    )
    p = str(src / "part-0.parquet")
    pq.write_table(t, p)
    out = str(tmp_path / "enc")
    encode_pipeline([p], out, resume=False, hive_cols=["source"], cluster_by="doc_id")
    eds = fr.EncodedDataset(out)
    want = eds.to_pandas().sort_values("doc_id", ignore_index=True)
    got = eds.take_range(0, 5)
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.iloc[:5], check_dtype=False
    )
    two = eds.take_range(0, 5, columns=["doc_id", "source"])
    assert list(two.columns) == ["doc_id", "source"]
    assert two["source"].tolist() == want["source"][:5].tolist()
    alone = eds.take_range(3, 8, columns=["source"])
    assert alone["source"].tolist() == want["source"][3:8].tolist()


def test_take_range_clustered_hive_is_hive_major(ray_session, tmp_path):
    """cluster_by with hive_cols splits each key bucket into one shard
    per partition, so key ranges overlap ACROSS partitions. take_range
    orders partitions as to_pandas does (by path) and shards by key
    range inside each, so the rows come back sorted by (source,
    doc_id)."""
    import fastparquet_ray as fr

    src = tmp_path / "src"
    src.mkdir()
    n = 600
    rng = np.random.default_rng(5)
    ids = rng.permutation(n)  # the sources interleave in doc_id
    t = pa.table(
        {
            "doc_id": [f"d{i:04d}" for i in ids],
            "n_tok": pa.array(rng.integers(1, 50, n), pa.int32()),
            "source": pa.array([["book", "code", "web"][i % 3] for i in ids]),
        }
    )
    p = str(src / "part-0.parquet")
    pq.write_table(t, p)
    out = str(tmp_path / "enc")
    encode_pipeline([p], out, resume=False, hive_cols=["source"], cluster_by="doc_id")
    eds = fr.EncodedDataset(out)
    want = eds.to_pandas().sort_values(["source", "doc_id"], ignore_index=True)
    pd.testing.assert_frame_equal(
        eds.take_range(0, n).reset_index(drop=True), want, check_dtype=False
    )
    mid = eds.take_range(150, 450, columns=["doc_id", "source"])
    assert mid["doc_id"].tolist() == want["doc_id"][150:450].tolist()
    assert mid["source"].tolist() == want["source"][150:450].tolist()


def test_hive_columns_keep_their_types(ray_session, tmp_path):
    """Partition columns come back at the types the encode recorded in
    ``_plan.json``: a zero-padded string stays a string, an int32 stays
    int32, so both verify modes pass and a string filter prunes and
    matches. A plan without the record decodes as before."""
    import json

    import fastparquet_ray as fr
    from fastparquet_ray.pipelines.verify import verify_roundtrip

    src = tmp_path / "src"
    src.mkdir()
    n = 60
    t = pa.table({
        "doc_id": [f"d{i:03d}" for i in range(n)],
        "zip": [f"{i % 3:03d}" for i in range(n)],
        "k32": pa.array([i % 2 for i in range(n)], pa.int32()),
        "v": pa.array(np.arange(n, dtype=np.float64)),
    })
    p = str(src / "part-0.parquet")
    pq.write_table(t, p)
    out = str(tmp_path / "enc")
    encode_pipeline([p], out, resume=False, hive_cols=["zip", "k32"])
    assert len(shard_files(out)) == 6
    for mode in ("moments", "exact"):
        assert verify_roundtrip(p, out, mode=mode)["ok"], mode

    eds = fr.EncodedDataset(out)
    got = eds.to_pandas().sort_values("doc_id", ignore_index=True)
    assert got["zip"].tolist() == t["zip"].to_pylist()
    assert got["k32"].dtype == np.int32
    schema = eds.dataset().schema()
    assert dict(zip(schema.names, schema.types))["zip"] == pa.string()
    hit = eds.to_pandas(filters=[("zip", "==", "001")])
    assert len(hit) == 20 and set(hit["zip"]) == {"001"}

    plan_path = tmp_path / "enc" / "_plan.json"
    plan = json.loads(plan_path.read_text())
    del plan["hive"]
    plan_path.write_text(json.dumps(plan))
    old = fr.EncodedDataset(out).to_pandas()
    assert old["zip"].dtype == np.int64 and set(old["zip"]) == {0, 1, 2}


def test_hive_columns_in_metadata(ray_session, tmp_path):
    """``columns``, ``schema``, ``dtypes`` and ``info["columns"]`` list
    the partition columns every read returns, after the stored ones and
    at their recorded types; without the record, at the types of the
    first shard's path values."""
    import json

    import fastparquet_ray as fr

    src = tmp_path / "src"
    src.mkdir()
    n = 30
    t = pa.table({
        "doc_id": [f"d{i:03d}" for i in range(n)],
        "zip": [f"{i % 3:03d}" for i in range(n)],
        "k32": pa.array([i % 2 for i in range(n)], pa.int32()),
        "v": pa.array(np.arange(n, dtype=np.float64)),
    })
    p = str(src / "part-0.parquet")
    pq.write_table(t, p)
    out = str(tmp_path / "enc")
    encode_pipeline([p], out, resume=False, hive_cols=["zip", "k32"])

    eds = fr.EncodedDataset(out)
    want = ["doc_id", "v", "zip", "k32"]
    assert eds.columns == eds.info["columns"] == want
    assert list(eds.to_pandas().columns) == want
    assert eds.schema.names == want
    assert eds.schema.field("zip").type == pa.string()
    assert eds.schema.field("k32").type == pa.int32()
    assert eds.dtypes["zip"] == np.object_ and eds.dtypes["k32"] == np.int32

    plan_path = tmp_path / "enc" / "_plan.json"
    plan = json.loads(plan_path.read_text())
    del plan["hive"]
    plan_path.write_text(json.dumps(plan))
    old = fr.EncodedDataset(out)
    assert old.columns == want
    assert old.schema.field("zip").type == pa.int64()
