"""``decode_table(blob, rows=idx)`` returns exactly
``decode_table(blob).take(idx)`` for every column codec and kind: the
row-selective decode behind filtered reads. dict2, which no encoder
writes any more, is covered through the golden corpus blob."""

import datetime
import decimal
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from fastparquet_ray.codecs import intcodec as ic
from fastparquet_ray.codecs import strcodec as sc
from fastparquet_ray.codecs.fsst import train_fsst
from fastparquet_ray.container import ShardEncoder, decode_table, read_header

N = 3000
INT_CODECS = list(ic.INT_CANDIDATES)
GOLDEN = os.path.join(os.path.dirname(__file__), "golden_codecs.json")


def _golden_dict2() -> tuple[np.ndarray, bytes]:
    """The golden corpus dict2 case: N int32 values and their blob."""
    with open(GOLDEN) as f:
        case = next(
            c for c in json.load(f)["intcodec"] if c["codec"] == "dict2"
        )
    return np.array(case["values"], case["dtype"]), bytes.fromhex(case["bytes"])


class _GoldenDict2Encoder(ShardEncoder):
    """Writes the golden dict2 blob for the column whose spec asks for
    it; every other column encodes as usual."""

    def _encode_int(self, vnp, spec):
        if (spec or {}).get("codec") == "golden_dict2":
            values, blob = _golden_dict2()
            assert (vnp == values).all()
            return blob
        return super()._encode_int(vnp, spec)


def _shard(outer=None):
    rng = np.random.default_rng(11)
    tok = rng.zipf(1.3, N).clip(max=5000).astype(np.int32)
    words = [f"w{i % 37:03d}-{(i * 7) % 11}" for i in range(N)]
    cols, specs, tables = {}, {}, {}
    for name in INT_CODECS:
        cols[f"i_{name}"] = pa.array(tok)
        specs[f"i_{name}"] = {"codec": name}
    rt = ic.RankTable(ic.train_rank_table(tok[: N // 2]))
    tables[rt.table_hash()] = rt.serialize()
    cols["i_zranks"] = pa.array(tok)
    specs["i_zranks"] = {"codec": "zrank", "table_hash": rt.table_hash()}
    cols["i_dict2"] = pa.array(_golden_dict2()[0])
    specs["i_dict2"] = {"codec": "golden_dict2"}

    lengths, data = sc.str_to_bufs(pa.array(words))
    fsst = train_fsst(lengths, data)
    tables[fsst.table_hash()] = fsst.serialize()
    shared = sorted(set(words[: N // 2]))
    dhash = sc.dict_table_hash([w.encode() for w in shared])
    tables[dhash] = sc._pack_str_list([w.encode() for w in shared])
    for name, spec in {
        "plain": {"codec": "plain"},
        "dict": {"codec": "dict"},
        "dict_shared": {"codec": "dict", "table_hash": dhash},
        "fsst": {"codec": "fsst"},
        "fsst_shared": {"codec": "fsst", "table_hash": fsst.table_hash()},
    }.items():
        cols[f"s_{name}"] = pa.array(words)
        specs[f"s_{name}"] = spec

    lists = np.split(tok, np.sort(rng.choice(N, N - 1, replace=False)))
    cols["l_zranks"] = pa.array(lists, pa.list_(pa.int32()))
    specs["l_zranks"] = {
        "values": {"codec": "zrank", "table_hash": rt.table_hash()}
    }
    cols["l_zrank"] = pa.array(lists, pa.list_(pa.int32()))
    specs["l_zrank"] = {"values": {"codec": "zrank"}}
    cols["l_for"] = pa.array(lists, pa.list_(pa.int64()))
    specs["l_for"] = {"values": {"codec": "for_bp"}}
    # mostly empty lists, runs of them at the miniblock edges
    sizes = np.where(rng.random(N) < 0.7, 0, rng.integers(1, 5, N))
    sizes[1020:1030] = 0
    cols["l_empty"] = pa.array(
        np.split(tok[: sizes.sum()], np.cumsum(sizes)[:-1]),
        pa.list_(pa.int32()),
    )
    specs["l_empty"] = {
        "values": {"codec": "zrank", "table_hash": rt.table_hash()}
    }
    cols["l_float"] = pa.array(
        [v.astype(np.float32) / 7 for v in lists], pa.list_(pa.float32())
    )

    cols["f_dec"] = pa.array(np.round(rng.normal(size=N), 2))
    cols["f_shuffle"] = pa.array(rng.normal(size=N).astype(np.float32))
    # random bits: shuffle + zstd cannot shrink them by 5%, so the
    # encoder keeps them plain (NaN never equals itself, so the parity
    # checks get 0 in its place)
    bits = np.frombuffer(rng.bytes(N * 8), np.float64).copy()
    cols["f_plain"] = pa.array(np.where(np.isnan(bits), 0.0, bits))

    valid = rng.random(N) > 0.2
    cols["n_int"] = pa.array(
        [int(v) if ok else None for v, ok in zip(tok, valid)], pa.int64()
    )
    cols["n_str"] = pa.array(
        [w if ok else None for w, ok in zip(words, valid)]
    )
    cols["n_list"] = pa.array(
        [v.tolist() if ok else None for v, ok in zip(lists, valid)],
        pa.list_(pa.int32()),
    )
    cols["b"] = pa.array(tok % 3 == 0)
    cols["ts"] = pa.array(
        (1_700_000_000_000 + tok.astype(np.int64) * 997).astype(
            "datetime64[ms]"
        )
    )
    cols["d"] = pa.array(
        [datetime.date(2020, 1, 1) + datetime.timedelta(int(v)) for v in tok]
    )
    cols["dec"] = pa.array(
        [decimal.Decimal(int(v)) / 100 if ok else None
         for v, ok in zip(tok, valid)],
        pa.decimal128(12, 2),
    )
    cols["bin"] = pa.array([w.encode() for w in words], pa.binary())
    cols["st"] = pa.array(
        [{"a": int(v), "s": w} for v, w in zip(tok, words)]
    )
    cols["cat"] = pa.array(words).dictionary_encode()
    t = pa.table(cols)
    blob = _GoldenDict2Encoder(specs, tables, outer=outer).encode_table(t, "p")
    return blob, tables


@pytest.fixture(scope="module")
def shard():
    return _shard()


@pytest.fixture(scope="module")
def outer_shard():
    return _shard(outer=("zstd", 3))


def _pick(pick):
    rng = np.random.default_rng(5)
    return {
        "empty": np.empty(0, np.int64),
        "one": np.array([1234]),
        "first-last": np.array([0, N - 1]),
        "edges": np.array([0, 1, 1023, 1024, 1025, 2047, 2048, N - 1]),
        "sparse": np.sort(rng.choice(N, 17, replace=False)),
        "dense": np.flatnonzero(rng.random(N) < 0.6),
        "all": np.arange(N),
    }[pick]


PICKS = ["empty", "one", "first-last", "edges", "sparse", "dense", "all"]


def _assert_rows_equal_take(blob, tables, idx):
    whole = decode_table(blob, tables)
    got = decode_table(blob, tables, rows=idx)
    assert got.schema.equals(whole.schema, check_metadata=True)
    for name in whole.column_names:
        want = whole[name].take(pa.array(idx, pa.int64()))
        assert got[name].equals(want), name


def test_census_codecs_are_covered(shard):
    blob, _ = shard
    used = {c["name"]: c["codec"] for c in read_header(blob)["columns"]}
    for name in [*INT_CODECS, "dict2"]:
        assert used[f"i_{name}"] == name, used
    assert used["i_zranks"] == used["l_zranks"].split("values=")[1][:-1]
    assert {used[f"s_{n}"] for n in ("plain", "dict", "fsst")} == {
        "plain", "dict", "fsst"
    }
    assert used["f_dec"].startswith("float_dec")
    assert used["f_shuffle"] == "shuffle_float"
    assert used["f_plain"] == "plain_float"
    assert used["n_list"] == "nested" and used["st"] == "nested"
    assert used["dec"] == "dec128"


@pytest.mark.parametrize("pick", PICKS)
def test_rows_equal_take(shard, pick):
    _assert_rows_equal_take(*shard, _pick(pick))


@pytest.mark.parametrize("pick", PICKS)
def test_rows_equal_take_outer(outer_shard, pick):
    """Bodies under outer compression are decompressed whole first,
    then decoded at the rows like any other."""
    _assert_rows_equal_take(*outer_shard, _pick(pick))


def test_rows_at_empty_lists(shard):
    blob, tables = shard
    whole = decode_table(blob, tables, columns=["l_empty"])["l_empty"]
    sizes = pc.list_value_length(whole).to_numpy()
    idx = np.sort(np.concatenate([
        np.flatnonzero(sizes == 0)[::50], np.flatnonzero(sizes > 0)[::50],
        np.arange(1018, 1032),
    ]))
    got = decode_table(blob, tables, columns=["l_empty"], rows=idx)
    assert got["l_empty"].equals(whole.take(pa.array(idx)))
    # the kept rows are empty lists only: no value is decoded
    idx = np.flatnonzero(sizes == 0)[:5]
    got = decode_table(blob, tables, columns=["l_empty"], rows=idx)
    assert got["l_empty"].to_pylist() == [[]] * 5


def test_rows_with_projection_and_categories(shard):
    blob, tables = shard
    idx = np.array([3, 9, 400, 2999])
    cols = ["s_dict", "s_fsst", "n_str", "i_zranks"]
    whole = decode_table(blob, tables, columns=cols, categories=cols[:3])
    got = decode_table(
        blob, tables, columns=cols, categories=cols[:3], rows=idx
    )
    assert got.schema.equals(whole.schema)
    for name in cols:
        assert got[name].to_pylist() == whole[name].take(idx).to_pylist()
    empty = decode_table(
        blob, tables, columns=cols, categories=cols[:3], rows=idx[:0]
    )
    assert empty.num_rows == 0 and empty.schema.equals(whole.schema)


@pytest.mark.parametrize("codec", [*INT_CODECS, "zranks", "dict2"])
def test_decode_any_int_take(codec):
    rng = np.random.default_rng(2)
    v = rng.zipf(1.4, 5000).clip(max=900).astype(np.int64)
    tables = None
    if codec == "dict2":
        v, blob = _golden_dict2()
    elif codec == "zranks":
        rt = ic.RankTable(ic.train_rank_table(v[:100]))
        tables = {rt.table_hash(): rt.serialize()}
        blob = ic.encode_zrank_shared(v, rt, rt.table_hash())
    else:
        blob = ic.INT_ENCODERS[codec](v)
    take = np.sort(rng.choice(v.size, 40, replace=False))
    np.testing.assert_array_equal(
        ic.decode_any_int(blob, tables, take=take), v[take]
    )
    assert ic.decode_any_int(blob, tables, take=take[:0]).size == 0


# first and last value, both sides of every miniblock edge, scattered
# values and runs (read in place), and every value (decoded whole)
TAKES = {
    "ends": [0, 4999],
    "edges": [1023, 1024, 2047, 2048, 3071, 3072, 4095, 4096],
    "few": list(range(0, 5000, 97)),
    "many": list(range(1000, 1200)) + list(range(4000, 4100)),
    "all": list(range(5000)),
}


@pytest.mark.parametrize("take", list(TAKES))
@pytest.mark.parametrize("codec", [*INT_CODECS, "zranks", "dict2"])
def test_decode_any_int_take_rows(codec, take):
    """``take=`` decodes only what it needs and still equals the whole
    decode's values there, patches (pfor), runs (rle, dict) and
    shared-table extras (zranks) included."""
    rng = np.random.default_rng(4)
    v = rng.zipf(1.3, 5000).clip(max=70000).astype(np.int64)
    v[2000:2600] = 7  # one long run
    tables = None
    if codec == "dict2":
        v, blob = _golden_dict2()
    elif codec == "zranks":
        rt = ic.RankTable(ic.train_rank_table(v[:100]))
        tables = {rt.table_hash(): rt.serialize()}
        blob = ic.encode_zrank_shared(v, rt, rt.table_hash())
    else:
        blob = ic.INT_ENCODERS[codec](v)
    rows = np.array([r for r in TAKES[take] if r < v.size], np.int64)
    whole = ic.decode_any_int(blob, tables)
    stats = {}
    got = ic.decode_any_int(blob, tables, take=rows, stats=stats)
    assert got.dtype == whole.dtype
    np.testing.assert_array_equal(got, whole[rows])
    if codec in ("zrank", "zranks"):
        dec, full, _ = stats["codes"]
        assert dec == (rows.max() + 1) * (full // v.size) <= full
