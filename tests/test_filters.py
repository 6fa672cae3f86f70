"""Predicate pushdown on the shard format: header-stats shard pruning
(reference M2, filter_row_groups api.py:948-999) + residual vectorized
row filters (M3/M4)."""

import glob
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from fastparquet_ray.data import write_tokens_dataset
from fastparquet_ray.pipelines import decode_dataset, encode_pipeline
from fastparquet_ray.pipelines.decode import prune_shards, shard_files


@pytest.fixture(scope="module")
def encoded(tmp_path_factory, ray_session):
    src = str(tmp_path_factory.mktemp("flt_src"))
    paths = write_tokens_dataset(src, 4000, n_fragments=4)
    out = str(tmp_path_factory.mktemp("flt_enc"))
    encode_pipeline(paths, out)
    return paths, out


def expected(paths, pred):
    import pyarrow as pa

    t = pa.concat_tables([pq.read_table(p) for p in paths]).to_pandas()
    return t[pred(t)]


def test_row_filter_matches_pandas(ray_session, encoded):
    paths, out = encoded
    ds = decode_dataset(
        out, columns=["doc_id", "n_tok"], filters=[("n_tok", ">", 500)]
    )
    got = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    exp = (
        expected(paths, lambda t: t["n_tok"] > 500)[["doc_id", "n_tok"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got.equals(exp)


def test_conjunction_and_in(ray_session, encoded):
    paths, out = encoded
    ds = decode_dataset(
        out,
        columns=["doc_id", "source", "n_tok"],
        filters=[("source", "in", ["web", "wiki"]), ("n_tok", "<=", 100)],
    )
    got = ds.to_pandas()
    exp = expected(
        paths,
        lambda t: t["source"].isin(["web", "wiki"]) & (t["n_tok"] <= 100),
    )
    assert len(got) == len(exp)
    assert set(got["source"]) <= {"web", "wiki"}
    assert (got["n_tok"] <= 100).all()


def test_stats_pruning_skips_shards(ray_session, encoded):
    paths, out = encoded
    all_shards = shard_files(out)
    # n_tok max is 2048: an impossible predicate prunes everything
    assert prune_shards(all_shards, [("n_tok", ">", 99999)]) == []
    ds = decode_dataset(out, filters=[("n_tok", ">", 99999)])
    assert ds.count() == 0
    # a satisfiable predicate keeps some shards
    kept = prune_shards(all_shards, [("n_tok", ">=", 1)])
    assert kept == all_shards


def test_filters_via_api(ray_session, encoded):
    from fastparquet_ray.api import EncodedDataset

    paths, out = encoded
    df = EncodedDataset(out).dataset(columns=["n_tok"]).to_pandas()
    n_all = len(df)
    ds = decode_dataset(out, columns=["n_tok"], filters=[("n_tok", "!=", int(df["n_tok"].iloc[0]))])
    assert 0 < ds.count() < n_all + 1


def test_nullable_column_stats_still_prune(ray_session, tmp_path):
    """min/max are computed over VALID values, so shards with nulls
    still participate in stats pruning (r01 skipped stats entirely when
    any null existed)."""
    import pandas as pd
    import pyarrow as pa

    from fastparquet_ray.pipelines import encode_pipeline
    from fastparquet_ray.pipelines.export import shard_statistics

    src = tmp_path / "src"
    src.mkdir()
    for i, lo in enumerate([0, 50]):
        v = [None if j % 7 == 3 else lo + j for j in range(50)]
        pq.write_table(
            pa.table(
                {"doc_id": [f"d{i}-{j}" for j in range(50)],
                 "v": pa.array(v, pa.int64())}
            ),
            str(src / f"p{i}.parquet"),
        )
    out = str(tmp_path / "enc")
    encode_pipeline(sorted(str(p) for p in src.glob("*.parquet")), out)
    shards = shard_files(out)
    assert len(shards) == 2
    kept = prune_shards(shards, [("v", ">", 75)])
    assert len(kept) == 1
    ds = decode_dataset(out, filters=[("v", ">", 75)])
    got = ds.to_pandas()
    assert len(got) == sum(1 for j in range(50) if j % 7 != 3 and 50 + j > 75)
    # distinct hint present in header stats
    stats = shard_statistics(out)
    vstats = stats[stats["column"] == "v"]
    assert (vstats["distinct"].to_numpy() > 0).all()
    assert vstats["null_count"].sum() > 0


NONE_FILTERS = {
    "eq-none": ("n", "==", None),
    "ne-none": ("n", "!=", None),
    "gt-none": ("n", ">", None),
    "in-one-none": ("n", "in", [1, None]),
    "in-none": ("n", "in", [None]),
    "not-in-five": ("n", "not in", [5]),
    "not-in-five-none": ("n", "not in", [5, None]),
}


@pytest.fixture(scope="module")
def nullable_enc(tmp_path_factory, ray_session):
    """Four shards of a nullable int32 column: nulls over 1..49, no
    nulls over 100..149, no nulls over 1..9, and 5 or null; bloom
    filters on."""
    import pyarrow as pa

    src = tmp_path_factory.mktemp("none_src")
    shards = [
        [None if j % 5 == 0 else j for j in range(50)],
        list(range(100, 150)),
        list(range(1, 10)),
        [None if j % 3 else 5 for j in range(30)],
    ]
    for i, v in enumerate(shards):
        pq.write_table(
            pa.table({"doc_id": [f"d{i}-{j}" for j in range(len(v))],
                      "n": pa.array(v, pa.int32())}),
            str(src / f"p{i}.parquet"),
        )
    out = str(tmp_path_factory.mktemp("none_enc"))
    encode_pipeline(
        sorted(str(p) for p in src.glob("*.parquet")), out, bloom_cols=["n"]
    )
    return out


@pytest.mark.parametrize("name", list(NONE_FILTERS))
def test_none_filter_values_prune_like_residual(ray_session, nullable_enc, name):
    """A None filter value prunes (min/max and bloom) to the rows the
    unpruned residual filter gives: none under a comparison, the null
    rows under ``in`` a list holding None, and ``not in`` keeps nulls
    unless the list holds None."""
    import pyarrow as pa

    from fastparquet_ray.api import EncodedDataset
    from fastparquet_ray.pipelines.decode import _residual_rows, read_table

    flt = [NONE_FILTERS[name]]
    whole = read_table(nullable_enc)  # no filter: nothing pruned
    want = whole["doc_id"].take(pa.array(_residual_rows(flt, whole)))
    want = want.to_pylist()
    got = EncodedDataset(nullable_enc).to_pandas(filters=flt)
    assert sorted(got.get("doc_id", [])) == sorted(want)
    got = decode_dataset(nullable_enc, filters=flt).to_pandas()
    assert sorted(got.get("doc_id", [])) == sorted(want)
    if name.startswith("in") or name.startswith("not"):
        assert want
