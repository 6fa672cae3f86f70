"""Full Ray pipeline over non-tokens schemas (mixed scalars /
nullable — FIXTURES F2/F3 through encode_pipeline + decode_dataset,
not just the container)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fastparquet_ray.pipelines import decode_dataset, encode_pipeline


def _mixed_table(rng, n=1200):
    return pa.table(
        {
            "k": pa.array(np.arange(n), pa.int64()),
            "i32": pa.array(rng.integers(-100, 100, n), pa.int32()),
            "f": pa.array(rng.standard_normal(n), pa.float64()),
            "s": pa.array([f"v{i % 13}" for i in range(n)], pa.string()),
            "b": pa.array(rng.integers(0, 2, n).astype(bool)),
            "ts": pa.array(rng.integers(0, 2**40, n), pa.int64()).cast(
                pa.timestamp("us")
            ),
            "maybe": pa.array(
                [None if i % 7 == 0 else i * 1.5 for i in range(n)],
                pa.float64(),
            ),
        }
    )


def test_pipeline_mixed_schema(ray_session, tmp_path, rng):
    t = _mixed_table(rng)
    src = str(tmp_path / "src")
    import os

    os.makedirs(src)
    pq.write_table(t.slice(0, 600), src + "/a.parquet")
    pq.write_table(t.slice(600), src + "/b.parquet")
    out = str(tmp_path / "enc")
    s = encode_pipeline(
        [src + "/a.parquet", src + "/b.parquet"], out, key_column="k"
    )
    assert s["rows"] == 1200
    back = decode_dataset(out).to_pandas().sort_values("k").reset_index(drop=True)
    orig = t.to_pandas().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(back, orig, check_dtype=True)


def test_hll_accuracy(ray_session):
    """HLL distinct estimate within 3% of exact on lineitem keys."""
    import duckdb

    from fastparquet_ray.functions.sketches import distinct_count_approx

    sf_dir = "/root/testdata/sf0.01"
    approx = distinct_count_approx(sf_dir)
    con = duckdb.connect()
    exact = con.execute(
        "SELECT count(DISTINCT l_partkey), count(DISTINCT l_suppkey) "
        f"FROM read_parquet('{sf_dir}/lineitem.parquet')"
    ).fetchone()
    for got, ex in zip(
        [approx["n_part_approx"][0], approx["n_supp_approx"][0]], exact
    ):
        assert abs(got - ex) / ex < 0.03, (got, ex)
