"""Shard container roundtrips across the supported type surface
(mirrors the reference dtype roundtrip matrix,
/root/reference/fastparquet/test/test_output.py:101-130, and the null
handling tests :203-214) — no Ray needed."""

import io

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fastparquet_ray.container import (
    ShardEncoder,
    decode_table,
    partition_id_for,
    read_header,
)
from fastparquet_ray.data import generate_fragment
from fastparquet_ray.plan import CodecPlan, train_plan


def roundtrip(table: pa.Table, plan=None) -> pa.Table:
    specs, tables = ({}, {})
    if plan:
        specs, tables = plan.specs, plan.tables
    blob = ShardEncoder(specs, tables).encode_table(table, "t")
    return decode_table(blob, tables)


def test_tokens_table_roundtrip():
    t = generate_fragment(2000, 0)
    plan = train_plan(t.slice(0, 500))
    out = roundtrip(t, plan)
    assert out.schema == t.schema
    assert out.equals(t)


def test_mixed_scalars_roundtrip(rng):
    # FIXTURES.md F2 shape
    n = 500
    t = pa.table(
        {
            "i32": pa.array(rng.integers(-100, 100, n), pa.int32()),
            "i64": pa.array(rng.integers(-(2**40), 2**40, n), pa.int64()),
            "u16": pa.array(rng.integers(0, 1000, n).astype(np.uint16)),
            "f": pa.array(rng.standard_normal(n), pa.float64()),
            "f32": pa.array(rng.standard_normal(n).astype(np.float32)),
            "hello": pa.array([f"v{i%7}" for i in range(n)], pa.string()),
            "bool": pa.array(rng.integers(0, 2, n).astype(bool)),
            "ts": pa.array(
                rng.integers(0, 2**44, n), pa.int64()
            ).cast(pa.timestamp("us")),
            "date": pa.array(rng.integers(0, 20000, n).astype(np.int32)).cast(
                pa.date32()
            ),
        }
    )
    out = roundtrip(t)
    assert out.schema == t.schema
    assert out.equals(t)


def test_nullable_roundtrip(rng):
    # FIXTURES.md F3 shape
    n = 300
    o = [None if i % 3 == 0 else ["hello", "world"][i % 2] for i in range(n)]
    i = [None if i % 10 == 0 else i for i in range(n)]
    t = pa.table(
        {
            "o": pa.array(o, pa.string()),
            "i": pa.array(i, pa.int64()),
            "allnull": pa.array([None] * n, pa.float64()),
            "nonull": pa.array(rng.standard_normal(n), pa.float64()),
        }
    )
    out = roundtrip(t)
    assert out.equals(t)


def test_float_list_roundtrip(rng):
    # embeddings-shaped column
    vals = rng.standard_normal((50, 64)).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(50), pa.int64()),
            "embedding": pa.array(list(vals), pa.list_(pa.float32())),
        }
    )
    out = roundtrip(t)
    assert out.equals(t)


def test_empty_and_single_row():
    t = generate_fragment(1, 3)
    assert roundtrip(t).equals(t)
    empty = t.slice(0, 0)
    assert roundtrip(empty).num_rows == 0


def test_column_projection():
    t = generate_fragment(500, 0)
    blob = ShardEncoder().encode_table(t, "t")
    out = decode_table(blob, columns=["doc_id", "n_tok"])
    assert out.column_names == ["doc_id", "n_tok"]
    assert out.column("doc_id").to_pylist() == t.column("doc_id").to_pylist()


def test_beats_uncompressed_parquet():
    """Compressed size <= fastparquet-style reference encoding (v1
    uncompressed parquet with dictionary) — BASELINE.md metric 2."""
    t = generate_fragment(5000, 0)
    plan = train_plan(t.slice(0, 1000))
    blob = ShardEncoder(plan.specs, plan.tables).encode_table(t, "t")
    buf = io.BytesIO()
    pq.write_table(t, buf, compression="none", use_dictionary=True)
    assert len(blob) < buf.tell()


def test_partition_id_deterministic():
    t = generate_fragment(100, 0)
    a = partition_id_for(t)
    b = partition_id_for(generate_fragment(100, 0))
    assert a == b
    c = partition_id_for(generate_fragment(100, 1))
    assert a != c
    # stable under slicing/rechunking
    sliced = pa.concat_tables([t.slice(0, 40), t.slice(40)])
    assert partition_id_for(sliced) == a


def test_header_stats():
    t = generate_fragment(500, 0)
    blob = ShardEncoder().encode_table(t, "pid123")
    hdr = read_header(blob)
    assert hdr["partition_id"] == "pid123"
    ncol = {c["name"]: c for c in hdr["columns"]}
    assert ncol["n_tok"]["min"] >= 1
    assert ncol["n_tok"]["max"] <= 2048
    assert hdr["raw_bytes"] > hdr["enc_bytes"]


def test_float_decimal_scaled_int_roundtrip():
    """Fixed-point decimals stored as floats encode as scaled ints
    (bit-exact roundtrip verified per shard; fallback to plain when
    any value would not reproduce)."""
    import numpy as np
    import pyarrow as pa

    from fastparquet_ray.container import ShardEncoder, decode_table, read_header

    rng = np.random.default_rng(21)
    price = np.round(rng.uniform(0, 1000, 5000), 2)  # 2-decimal prices
    t = pa.table({"price": price})
    enc = ShardEncoder()
    blob = enc.encode_table(t, "p")
    hdr = read_header(blob)
    assert hdr["columns"][0]["codec"].startswith("float_dec2")
    assert hdr["columns"][0]["length"] < price.nbytes / 2
    got = decode_table(blob)
    assert got.column("price").to_numpy().view(np.uint64).tolist() == (
        price.view(np.uint64).tolist()
    )

    # random full-precision floats are NOT mis-detected as decimals:
    # they take the byte-shuffle path (r03) or stay plain — never
    # float_dec (which would be lossy for them)
    rand = rng.standard_normal(5000)
    hdr2 = read_header(enc.encode_table(pa.table({"x": rand}), "p2"))
    assert hdr2["columns"][0]["codec"] in ("plain_float", "shuffle_float")

    # -0.0, nulls and float32 cases roundtrip exactly
    vals = pa.array([0.5, -0.0, None, 12.25, 3.75], pa.float64())
    t3 = pa.table({"v": vals})
    got3 = decode_table(enc.encode_table(t3, "p3"))
    assert got3.column("v").to_pylist() == vals.to_pylist()
    f32 = pa.array(np.round(rng.uniform(0, 10, 1000), 1).astype(np.float32))
    got4 = decode_table(enc.encode_table(pa.table({"f": f32}), "p4"))
    assert got4.column("f").combine_chunks().equals(f32)


def test_decimal128_roundtrip():
    """decimal128 columns (reference M5): lossless lo/hi int64 split."""
    from decimal import Decimal

    import pyarrow as pa

    from fastparquet_ray.container import ShardEncoder, decode_table

    vals = pa.array(
        [Decimal("12345.67"), Decimal("-0.01"), None, Decimal("99999999999999.99")],
        pa.decimal128(18, 2),
    )
    t = pa.table({"amount": vals})
    got = decode_table(ShardEncoder().encode_table(t, "p"))
    assert got.schema.equals(t.schema)
    assert got.column("amount").to_pylist() == vals.to_pylist()
