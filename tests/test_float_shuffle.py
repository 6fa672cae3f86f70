"""VERDICT r02 #9 / NEXT #3: byte-shuffle + zstd for measurement
floats that aren't fixed-point decimals — bit-exact roundtrip, chosen
automatically, and smaller than PLAIN + zstd."""

import numpy as np
import pyarrow as pa

from fastparquet_ray.container import (
    ShardEncoder,
    _outer_compress,
    decode_table,
    read_header,
)


def _encode(col: np.ndarray):
    t = pa.table({"doc_id": [f"d{i}" for i in range(col.size)], "v": col})
    blob = ShardEncoder({}, {}).encode_table(t, "p0")
    hdr = read_header(blob)
    info = next(c for c in hdr["columns"] if c["name"] == "v")
    return blob, info, t


def test_gaussian_float64_picks_shuffle_and_beats_plain_zstd():
    rng = np.random.default_rng(5)
    col = rng.normal(loc=3.7, scale=0.01, size=20_000)
    blob, info, t = _encode(col)
    assert info["codec"] == "shuffle_float"
    plain_zstd = len(_outer_compress(col.tobytes(), "zstd", 3))
    assert info["sizes"][0] < plain_zstd
    got = decode_table(blob).column("v").to_numpy()
    assert (got.view(np.uint64) == col.view(np.uint64)).all()  # bit-exact


def test_gaussian_float32_roundtrip_bit_exact():
    rng = np.random.default_rng(6)
    col = rng.normal(size=10_000).astype(np.float32)
    blob, info, _ = _encode(col)
    assert info["codec"] in ("shuffle_float", "plain_float")
    got = decode_table(blob).column("v").to_numpy()
    assert (got.view(np.uint32) == col.view(np.uint32)).all()


def test_nan_inf_roundtrip():
    col = np.array(
        [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, 1e300] * 100,
        dtype=np.float64,
    )
    blob, info, _ = _encode(col)
    got = decode_table(blob).column("v").to_numpy()
    assert (got.view(np.uint64) == col.view(np.uint64)).all()


def test_fixed_point_decimals_still_prefer_scaled_ints():
    rng = np.random.default_rng(7)
    col = np.round(rng.uniform(0, 100, 20_000), 2)  # prices
    _, info, _ = _encode(col)
    assert info["codec"].startswith("float_dec")


def test_nullable_float_shuffle_roundtrip():
    rng = np.random.default_rng(9)
    vals = rng.normal(size=5_000)
    mask = rng.random(5_000) < 0.1
    col = pa.array(np.where(mask, np.nan, vals), pa.float64()).fill_null(None)
    arr = pa.array(
        [None if m else float(v) for m, v in zip(mask, vals)], pa.float64()
    )
    t = pa.table({"doc_id": [f"d{i}" for i in range(5_000)], "v": arr})
    blob = ShardEncoder({}, {}).encode_table(t, "p0")
    got = decode_table(blob).column("v")
    assert got.null_count == int(mask.sum())
    gv = got.to_pandas().to_numpy()
    ok = ~mask
    assert np.allclose(gv[ok], vals[ok], rtol=0, atol=0)
