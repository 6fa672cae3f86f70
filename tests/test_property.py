"""Hypothesis property tests over the codec kernels (SURVEY.md §5
layer 4 randomized style, strengthened with shrinking)."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastparquet_ray.codecs import intcodec as ic
from fastparquet_ray.codecs import strcodec as sc
from fastparquet_ray.codecs.bitpack import pack_bits, unpack_bits
from fastparquet_ray.codecs.fsst import train_fsst
from fastparquet_ray.codecs.rle import rle_decode, rle_encode


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(1, 32),
    st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=300),
)
def test_bitpack_roundtrip(width, values):
    v = (np.array(values, dtype=np.uint64) & ((1 << width) - 1)).astype(
        np.uint32
    )
    assert (unpack_bits(pack_bits(v, width), width, v.size) == v).all()


def _read_lsb_first(buf: bytes, width: int, count: int) -> list[int]:
    """Value i = bits [i*width, (i+1)*width) of ``buf``, LSB first."""
    out = []
    for i in range(count):
        p = i * width
        word = int.from_bytes(buf[p >> 3 : ((p + width + 7) >> 3) + 1], "little")
        out.append((word >> (p & 7)) & ((1 << width) - 1))
    return out


@pytest.mark.parametrize("width", range(1, 33))
def test_unpack_bits_against_bit_reader(width):
    """Both forms of ``unpack_bits`` against a per-value reader: the
    uint32 values, and the add into ``out`` (int64 preloaded with its
    extremes), which wraps mod 2**64 and leaves ``out[count:]`` alone."""
    rng = np.random.default_rng(width)
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    for count in (0, 1, 7, 8, 9, 1023, 1024, 1025, 4097):
        buf = rng.integers(0, 256, (count * width + 7) // 8, np.uint8).tobytes()
        ref = _read_lsb_first(buf, width, count)
        got = unpack_bits(buf, width, count)
        assert got.dtype == np.uint32 and got.tolist() == ref, count
        pre = rng.integers(lo, hi, count + 3, dtype=np.int64, endpoint=True)
        pre[::3], pre[1::3] = hi, lo
        out = pre.copy()
        assert unpack_bits(buf, width, count, out) is out
        want = [
            (p + r + 2**63) % 2**64 - 2**63 for p, r in zip(pre.tolist(), ref)
        ]
        assert out[:count].tolist() == want, count
        assert (out[count:] == pre[count:]).all(), count


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(0, 20),
    st.lists(
        st.tuples(st.integers(0, 2**20 - 1), st.integers(1, 40)),
        min_size=1,
        max_size=60,
    ),
)
def test_rle_runs_roundtrip(width, runs):
    width = max(width, 1)
    vals = np.concatenate(
        [np.full(n, v & ((1 << width) - 1), dtype=np.uint32) for v, n in runs]
    )
    enc = rle_encode(vals, width)
    assert (rle_decode(enc, width, vals.size) == vals).all()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from(list(ic.INT_ENCODERS)),
    st.lists(st.integers(-(2**31), 2**31 - 1), min_size=0, max_size=400),
)
def test_intcodec_roundtrip(codec, values):
    v = np.array(values, dtype=np.int64)
    try:
        blob = ic.INT_ENCODERS[codec](v)
    except ValueError:
        return
    out = ic.decode_any_int(blob)
    assert out.dtype == v.dtype and (out == v).all()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(st.binary(min_size=0, max_size=60), min_size=0, max_size=60))
def test_fsst_roundtrip(strs):
    data = np.frombuffer(b"".join(strs), dtype=np.uint8)
    lengths = np.array([len(s) for s in strs], dtype=np.int64)
    table = train_fsst(lengths, data)
    el, ed = table.encode(lengths, data)
    dl, dd = table.decode(el, ed)
    assert (dl == lengths).all()
    assert dd.tobytes() == data.tobytes()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(st.text(max_size=40), min_size=0, max_size=80))
def test_strcodec_roundtrip(strs):
    arr = pa.array(strs, pa.string())
    l, d = sc.str_to_bufs(arr)
    for blob in [sc.encode_plain_str(l, d), sc.encode_dict_str(l, d)]:
        dl, dd = sc.decode_any_str(blob)
        assert sc.bufs_to_arrow(dl, dd).to_pylist() == strs


# ---- nested container property tests (round 2) ----

_scalar_leaves = st.sampled_from(["int32", "int64", "float64", "string", "bool"])


def _leaf_values(dtype, n, draw):
    if dtype == "int32":
        return draw(st.lists(
            st.one_of(st.none(), st.integers(-(2**31), 2**31 - 1)),
            min_size=n, max_size=n))
    if dtype == "int64":
        return draw(st.lists(
            st.one_of(st.none(), st.integers(-(2**62), 2**62)),
            min_size=n, max_size=n))
    if dtype == "float64":
        return draw(st.lists(
            st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=True)),
            min_size=n, max_size=n))
    if dtype == "bool":
        return draw(st.lists(st.one_of(st.none(), st.booleans()),
                             min_size=n, max_size=n))
    return draw(st.lists(
        st.one_of(st.none(), st.text(max_size=12)), min_size=n, max_size=n))


def _pa_type(dtype):
    return {
        "int32": pa.int32(), "int64": pa.int64(), "float64": pa.float64(),
        "string": pa.string(), "bool": pa.bool_(),
    }[dtype]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_nested_list_roundtrip_property(data):
    """Random nullable list<leaf> columns roundtrip exactly through the
    recursive container path (incl. null lists and null elements)."""
    from fastparquet_ray.container import ShardEncoder, decode_table

    dtype = data.draw(_scalar_leaves)
    n = data.draw(st.integers(0, 40))
    rows = []
    for _ in range(n):
        kind = data.draw(st.integers(0, 3))
        if kind == 0:
            rows.append(None)
        else:
            m = data.draw(st.integers(0, 6))
            rows.append(_leaf_values(dtype, m, data.draw_fn() if False else data.draw)
                        if False else _leaf_values(dtype, m, data.draw))
    arr = pa.array(rows, pa.list_(_pa_type(dtype)))
    t = pa.table({"c": arr})
    got = decode_table(ShardEncoder().encode_table(t, "p"))
    assert got.schema.equals(t.schema)
    assert got.column("c").to_pylist() == arr.to_pylist()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_nested_struct_roundtrip_property(data):
    from fastparquet_ray.container import ShardEncoder, decode_table

    d1 = data.draw(_scalar_leaves)
    d2 = data.draw(_scalar_leaves)
    n = data.draw(st.integers(0, 30))
    v1 = _leaf_values(d1, n, data.draw)
    v2 = _leaf_values(d2, n, data.draw)
    null_rows = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rows = [
        None if nr else {"a": a, "b": b}
        for nr, a, b in zip(null_rows, v1, v2)
    ]
    typ = pa.struct([("a", _pa_type(d1)), ("b", _pa_type(d2))])
    arr = pa.array(rows, typ)
    t = pa.table({"s": arr})
    got = decode_table(ShardEncoder().encode_table(t, "p"))
    assert got.column("s").to_pylist() == arr.to_pylist()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.data())
def test_nested_projection_and_outer_property(data):
    """Projection + outer zstd over mixed nested/flat columns."""
    from fastparquet_ray.container import ShardEncoder, decode_table

    n = data.draw(st.integers(1, 25))
    t = pa.table(
        {
            "k": pa.array([f"k{i}" for i in range(n)]),
            "lst": pa.array(
                [_leaf_values("string", i % 4, data.draw) if i % 5 else None
                 for i in range(n)],
                pa.list_(pa.string()),
            ),
            "v": pa.array(_leaf_values("float64", n, data.draw), pa.float64()),
        }
    )
    blob = ShardEncoder(outer=("zstd", 1)).encode_table(t, "p")
    got = decode_table(blob, columns=["lst", "v"])
    assert got.column_names == ["lst", "v"]
    assert got.column("lst").to_pylist() == t.column("lst").to_pylist()
    a, b = got.column("v").to_pylist(), t.column("v").to_pylist()
    assert len(a) == len(b) and all(
        (x is None and y is None) or x == y or (x != x and y != y)
        for x, y in zip(a, b)
    )


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.data())
def test_nested_map_roundtrip_property(data):
    from fastparquet_ray.container import ShardEncoder, decode_table

    n = data.draw(st.integers(0, 25))
    rows = []
    for _ in range(n):
        kind = data.draw(st.integers(0, 2))
        if kind == 0:
            rows.append(None)
        else:
            m = data.draw(st.integers(0, 4))
            keys = [f"k{j}-{data.draw(st.integers(0, 5))}" for j in range(m)]
            keys = list(dict.fromkeys(keys))  # map keys must be unique
            rows.append(
                [(kk, data.draw(st.one_of(st.none(), st.integers(-100, 100))))
                 for kk in keys]
            )
    arr = pa.array(rows, pa.map_(pa.string(), pa.int64()))
    t = pa.table({"m": arr})
    got = decode_table(ShardEncoder().encode_table(t, "p"))
    assert got.column("m").to_pylist() == arr.to_pylist()


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.data())
def test_large_list_and_deep_nesting_property(data):
    from fastparquet_ray.container import ShardEncoder, decode_table

    n = data.draw(st.integers(0, 15))
    deep = pa.array(
        [
            None
            if data.draw(st.booleans())
            else [
                None
                if data.draw(st.booleans())
                else [data.draw(st.text(max_size=6)) for _ in range(data.draw(st.integers(0, 3)))]
                for _ in range(data.draw(st.integers(0, 3)))
            ]
            for _ in range(n)
        ],
        pa.list_(pa.list_(pa.string())),
    )
    ll = pa.array(
        [[data.draw(st.integers(-50, 50)) for _ in range(data.draw(st.integers(0, 4)))] for _ in range(n)],
        pa.large_list(pa.int32()),
    )
    t = pa.table({"deep": deep, "ll": ll})
    got = decode_table(ShardEncoder().encode_table(t, "p"))
    assert got.column("deep").to_pylist() == deep.to_pylist()
    assert got.column("ll").to_pylist() == ll.to_pylist()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from(["int32", "int64", "uint32", "int16"]),
    st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=400),
    st.integers(0, 399),
)
def test_zrank_shared_roundtrip_property(dtype, values, train_prefix):
    """Shared-rank-table zrank (round 3): any train-prefix/shard
    combination roundtrips bit-identically — values the training
    prefix never saw must survive through the embedded-extras
    escape."""
    info = np.iinfo(dtype)
    v = np.clip(np.array(values, dtype=np.int64), info.min, info.max).astype(
        dtype
    )
    train = v[: max(train_prefix, 1)]
    rt = ic.RankTable(ic.train_rank_table(train))
    h = rt.table_hash()
    blob = ic.encode_zrank_shared(v, rt, h)
    out = ic.decode_any_int(blob, {h: rt.serialize()})
    assert out.dtype == v.dtype and (out == v).all()
