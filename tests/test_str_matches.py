"""``==`` / ``in`` on FSST and dictionary string columns compare the
compressed bytes (``decode_shard`` -> ``strcodec.str_matches``): the
rows and values they return equal decode-then-``_residual_rows`` for
every string codec and table mode, escapes, empty strings, non-ASCII
values, nulls and odd probe lists included."""

import numpy as np
import pyarrow as pa
import pytest

from fastparquet_ray.codecs import strcodec as sc
from fastparquet_ray.codecs.fsst import train_fsst
from fastparquet_ray.container import ShardEncoder, decode_table
from fastparquet_ray.pipelines.decode import _residual_rows, decode_shard

N = 2000
# the shared tables are trained on ASCII words only: every other byte
# (non-ASCII, control, the FSST escape code 255's value) is an escape
WORDS = [f"doc/{i % 97:04d}-{(i * 7) % 13}" for i in range(N)]
ODD = ["", "über-straße", "日本語", "\x00\x01", "a", "doc/", "\xff"]
MODES = ["plain", "dict", "dict_shared", "dict_extras", "fsst", "fsst_shared"]


def _values(rng):
    v = list(WORDS)
    for i, s in zip(rng.choice(N, 60, replace=False), ODD * 10):
        v[i] = s
    return v


def _shard(outer=None):
    rng = np.random.default_rng(3)
    values = _values(rng)
    valid = rng.random(N) > 0.15
    ascii_words = [w.encode() for w in WORDS]
    l, d = sc.str_to_bufs(pa.array(WORDS))
    fsst = train_fsst(l, d)
    full = sorted(set(ascii_words) | {s.encode() for s in ODD})
    part = sorted(set(ascii_words[: N // 3]))
    tables = {fsst.table_hash(): fsst.serialize()}
    for t in (full, part):
        tables[sc.dict_table_hash(t)] = sc._pack_str_list(t)
    specs = {
        "plain": {"codec": "plain"},
        "dict": {"codec": "dict"},
        "dict_shared": {"codec": "dict", "table_hash": sc.dict_table_hash(full)},
        "dict_extras": {"codec": "dict", "table_hash": sc.dict_table_hash(part)},
        "fsst": {"codec": "fsst"},
        "fsst_shared": {"codec": "fsst", "table_hash": fsst.table_hash()},
    }
    cols = {}
    for m in MODES:
        cols[m] = pa.array(values)
        cols[f"{m}_null"] = pa.array(
            [v if ok else None for v, ok in zip(values, valid)]
        )
        specs[f"{m}_null"] = specs[m]
    cols["i"] = pa.array(np.arange(N, dtype=np.int64))
    blob = ShardEncoder(specs, tables, outer=outer).encode_table(
        pa.table(cols), "p"
    )
    return blob, tables, values


@pytest.fixture(scope="module", params=[None, ("zstd", 3)], ids=["raw", "outer"])
def shard(request):
    return _shard(request.param)


def _probes(values):
    longest = max(values, key=len)
    return {
        "hit": ("==", WORDS[5]),
        "empty": ("==", ""),
        "non-ascii": ("==", "über-straße"),
        "escape": ("==", "\x00\x01"),
        "escape-byte": ("==", "\xff"),
        "too-long": ("==", longest + "x"),
        "absent": ("==", "doc/9999-1"),
        "prefix": ("==", "doc/"),
        "in": ("in", [WORDS[1], "日本語", "", "nope"]),
        "in-empty": ("in", []),
        "in-dupes": ("in", [WORDS[2], WORDS[2], "a", "a"]),
    }


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("null", ["", "_null"])
def test_compressed_compare_equals_residual(shard, mode, null):
    blob, tables, values = shard
    col = mode + null
    whole = decode_table(blob, tables)
    for name, (op, val) in _probes(values).items():
        flt = [(col, op, val)]
        how = {}
        got = decode_shard(
            blob, "p", tables, [col, "i"], filters=flt, how=how
        )
        rows = _residual_rows(flt, whole.select([col]))
        want = whole.select([col, "i"]).take(pa.array(rows, pa.int64()))
        assert got.equals(want), (col, name)
        assert got.schema.equals(want.schema), (col, name)
        assert "compared compressed" in how[col], (col, how)
        assert how["i"] == {"at rows": 1}, how


def test_compressed_conjunction_and_other_filters(shard):
    blob, tables, values = shard
    flt = [
        ("fsst_null", "in", [WORDS[1], WORDS[3], ""]),
        ("dict_extras", "in", [WORDS[1], WORDS[3], "", WORDS[4]]),
        ("i", ">", 100),
    ]
    whole = decode_table(blob, tables)
    rows = _residual_rows(flt, whole)
    assert rows.size
    got = decode_shard(blob, "p", tables, None, filters=flt)
    assert got.equals(whole.take(pa.array(rows, pa.int64())))
    # a column absent from the projection still filters
    got = decode_shard(blob, "p", tables, ["i"], filters=flt)
    assert got["i"].to_pylist() == rows.tolist()


def test_categories_keep_the_decoded_path(shard):
    blob, tables, _ = shard
    flt = [("fsst", "==", WORDS[5])]
    how = {}
    got = decode_shard(
        blob, "p", tables, ["fsst"], ["fsst"], filters=flt, how=how
    )
    assert "compared compressed" not in how["fsst"]
    assert pa.types.is_dictionary(got["fsst"].type)
    assert set(got["fsst"].to_pylist()) == {WORDS[5]}


def test_encode_one_equals_vectorized_encode():
    rng = np.random.default_rng(9)
    l, d = sc.str_to_bufs(pa.array(WORDS))
    table = train_fsst(l, d)
    alphabet = np.frombuffer(b"doc/0123456789-xyz\x00\xff", np.uint8)
    strs = []
    for _ in range(1000):
        k = int(rng.integers(0, 24))
        pick = rng.random() < 0.5
        src = alphabet if pick else np.arange(256, dtype=np.uint8)
        strs.append(rng.choice(src, k).astype(np.uint8).tobytes())
    strs[:3] = [b"", WORDS[0].encode(), b"\xff" * 9]
    lengths = np.array([len(s) for s in strs], np.int64)
    el, ed = table.encode(lengths, np.frombuffer(b"".join(strs), np.uint8))
    offs = np.concatenate([[0], np.cumsum(el)])
    for i, s in enumerate(strs):
        assert table.encode_one(s) == ed[offs[i] : offs[i + 1]].tobytes(), s
