"""String codec roundtrips: PLAIN / DICT (embedded + shared table) /
FSST (embedded + shared table), incl. escape-heavy and empty inputs.
"""

import numpy as np
import pyarrow as pa
import pytest

from fastparquet_ray.codecs import strcodec as sc
from fastparquet_ray.codecs.fsst import FsstTable, train_fsst


def roundtrip_bytes(strs: list[bytes]):
    data = np.frombuffer(b"".join(strs), dtype=np.uint8)
    lengths = np.array([len(s) for s in strs], dtype=np.int64)
    return lengths, data


def to_list(lengths, data):
    offs = np.concatenate([[0], np.cumsum(lengths)])
    b = data.tobytes()
    return [b[offs[i] : offs[i + 1]] for i in range(len(lengths))]


CASES = [
    ["web/doc-%012d" % i for i in range(500)],
    ["web", "books", "code", "wiki", "forums"] * 100,
    [""],
    ["", "x", ""],
    ["hello"] * 10,
]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_plain_dict_fsst_roundtrip(case):
    vals = CASES[case]
    arr = pa.array(vals, pa.string())
    l, d = sc.str_to_bufs(arr)
    assert sc.bufs_to_arrow(l, d).to_pylist() == vals
    for blob in [
        sc.encode_plain_str(l, d),
        sc.encode_dict_str(l, d),
        sc.encode_fsst_str(l, d, train_fsst(l, d)),
    ]:
        dl, dd = sc.decode_any_str(blob)
        assert sc.bufs_to_arrow(dl, dd).to_pylist() == vals


def test_shared_dict_partial_coverage():
    vals = ["web", "books", "mystery", "web", "other"]
    arr = pa.array(vals)
    l, d = sc.str_to_bufs(arr)
    shared = [b"web", b"books"]
    blob = sc.encode_dict_str(l, d, shared_table=shared)
    tables = {sc.dict_table_hash(shared): sc._pack_str_list(shared)}
    dl, dd = sc.decode_any_str(blob, tables)
    assert sc.bufs_to_arrow(dl, dd).to_pylist() == vals


def test_shared_fsst():
    vals = ["web/doc-%012d" % i for i in range(200)]
    arr = pa.array(vals)
    l, d = sc.str_to_bufs(arr)
    t = train_fsst(l, d)
    blob = sc.encode_fsst_str(l, d, t, shared=True)
    dl, dd = sc.decode_any_str(blob, {t.table_hash(): t.serialize()})
    assert sc.bufs_to_arrow(dl, dd).to_pylist() == vals
    with pytest.raises(KeyError):
        sc.decode_any_str(blob, {})


def test_fsst_escape_heavy(rng):
    strs = [bytes([255] * 5), b"a\xffb", b"\xff", b"\xff\xff\xff"]
    l, d = roundtrip_bytes(strs)
    for table in [train_fsst(l, d), FsstTable([])]:
        el, ed = table.encode(l, d)
        rl, rd = table.decode(el, ed)
        assert to_list(rl, rd) == strs


def test_fsst_random_binary(rng):
    strs = [
        bytes(rng.integers(0, 256, rng.integers(0, 60)).astype(np.uint8))
        for _ in range(300)
    ]
    l, d = roundtrip_bytes(strs)
    t = train_fsst(l, d)
    el, ed = t.encode(l, d)
    rl, rd = t.decode(el, ed)
    assert to_list(rl, rd) == strs


def test_fsst_long_strings(rng):
    words = ["the", "fast", "key", "order", "sort", "merge", "scan"]
    strs = [
        (" ".join(rng.choice(words, rng.integers(50, 150)))).encode()
        for _ in range(100)
    ]
    l, d = roundtrip_bytes(strs)
    t = train_fsst(l, d)
    el, ed = t.encode(l, d)
    assert ed.size < 0.5 * d.size  # compresses word soup well
    rl, rd = t.decode(el, ed)
    assert to_list(rl, rd) == strs


@pytest.mark.parametrize("side", ["frontier", "precompute"])
def test_fsst_encode_paths_match_encode_one(rng, side):
    """On either side of the encode path switch (average length
    ``_PRECOMPUTE_LEN``) a column encodes to each string's
    ``encode_one`` codes, escapes (literal 255s included) too."""
    from fastparquet_ray.codecs import fsst

    words = [b"the", b"fast", b"key", b"order", b"\xff\xfe", b"merge"]
    avg = fsst._PRECOMPUTE_LEN * (0.5 if side == "frontier" else 2)
    strs = []
    for _ in range(40):
        n = int(rng.integers(avg // 2, avg * 3 // 2))
        s = b" ".join(words[i] for i in rng.integers(0, len(words), n // 4))
        strs.append(s + rng.integers(0, 256, n // 8, dtype=np.uint8).tobytes())
    strs[:2] = [b"", b"\xff" * 9]
    l, d = roundtrip_bytes(strs)
    assert (d.size > fsst._PRECOMPUTE_LEN * l.size) == (side == "precompute")
    t = train_fsst(l, d)
    el, ed = t.encode(l, d)
    assert ed.tobytes() == b"".join(t.encode_one(s) for s in strs)
    assert el.tolist() == [len(t.encode_one(s)) for s in strs]
    assert to_list(*t.decode(el, ed)) == strs


def test_fsst_compresses_doc_ids():
    vals = [f"{s}/doc-{i:012d}" for i, s in
            zip(range(2000), ["web", "books", "code", "wiki", "forums"] * 400)]
    arr = pa.array(vals)
    l, d = sc.str_to_bufs(arr)
    t = train_fsst(l, d)
    blob = sc.encode_fsst_str(l, d, t, shared=True)
    raw = d.size + 4 * len(l)
    assert len(blob) < 0.45 * raw
