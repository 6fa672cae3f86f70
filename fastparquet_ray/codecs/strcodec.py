"""Self-describing string-column codecs over ragged (lengths, data)
buffers (zero-copy views of Arrow StringArray offsets/data).

Codecs:

- PLAIN_STR  lengths (intcodec) + raw utf8 bytes — same cost as the
             reference's BYTE_ARRAY len-prefix layout
             (/root/reference/fastparquet/speedups.pyx:55-89).
- DICT_STR   symbol table of distinct strings + RLE/bit-packed indices
             (reference analog: dict page, writer.py:481-517). The
             table may be *embedded* in the blob or *shared* (trained
             once, broadcast to encoder actors, referenced by hash).
- FSST_STR   FSST symbol table (fsst.py) over the byte stream +
             encoded lengths. Table embedded or shared by hash.

Wire format: [u8 codec_id][varint n][codec body]. Shared tables are
resolved through a ``tables`` dict {table_hash: serialized_table}
passed to decode.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .fsst import FsstTable
from .tables import parse_shared
from .intcodec import decode_any_int, encode_plain_int, encode_rle_int
from .rle import rle_decode, rle_encode
from .bitpack import bit_width
from .varint import decode_uvarint, encode_uvarint

__all__ = [
    "str_to_bufs",
    "bufs_to_arrow",
    "encode_plain_str",
    "encode_dict_str",
    "encode_fsst_str",
    "decode_any_str",
    "decode_dict_codes",
    "dict_table_hash",
    "str_matches",
]

_S_PLAIN, _S_DICT, _S_FSST = 16, 17, 18


def str_to_bufs(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Arrow string/binary array -> (lengths int64, data uint8),
    zero-copy-ish (binary shares the identical offsets+data layout)."""
    if pa.types.is_large_string(arr.type):
        arr = arr.cast(pa.string())
    elif pa.types.is_large_binary(arr.type):
        arr = arr.cast(pa.binary())
    if arr.null_count:
        raise ValueError("string codecs require non-null input")
    off = np.frombuffer(arr.buffers()[1], dtype=np.int32)[
        arr.offset : arr.offset + len(arr) + 1
    ].astype(np.int64)
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)[off[0] : off[-1]]
    return np.diff(off), data


def bufs_to_arrow(
    lengths: np.ndarray, data: np.ndarray, binary: bool = False
) -> pa.Array:
    """(lengths, data) -> Arrow string (or binary) array."""
    offsets = np.zeros(lengths.size + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    if binary:
        return pa.Array.from_buffers(
            pa.binary(),
            lengths.size,
            [
                None,
                pa.py_buffer(offsets.tobytes()),
                pa.py_buffer(np.ascontiguousarray(data).tobytes()),
            ],
        )
    return pa.StringArray.from_buffers(
        lengths.size,
        pa.py_buffer(offsets.tobytes()),
        pa.py_buffer(np.ascontiguousarray(data).tobytes()),
    )


def _encode_lengths(lengths: np.ndarray) -> bytes:
    """Pick a cheap int codec for the lengths stream."""
    l32 = lengths.astype(np.int32)
    try:
        body = encode_rle_int(l32)
    except ValueError:
        body = encode_plain_int(l32)
    plain = encode_plain_int(l32)
    if len(plain) < len(body):
        body = plain
    return encode_uvarint(len(body)) + body


def _decode_lengths(buf, pos: int) -> tuple[np.ndarray, int]:
    ln, pos = decode_uvarint(buf, pos)
    out = decode_any_int(bytes(buf[pos : pos + ln]))
    return out.astype(np.int64), pos + ln


def encode_plain_str(lengths: np.ndarray, data: np.ndarray) -> bytes:
    return (
        bytes([_S_PLAIN])
        + encode_uvarint(lengths.size)
        + _encode_lengths(lengths)
        + np.ascontiguousarray(data).tobytes()
    )


def dict_table_hash(table: list[bytes]) -> str:
    h = hashlib.md5()
    for s in table:
        h.update(len(s).to_bytes(4, "little"))
        h.update(s)
    return h.hexdigest()


def _pack_str_list(strings: list[bytes]) -> bytes:
    lens = np.array([len(s) for s in strings], dtype=np.int64)
    return (
        encode_uvarint(len(strings))
        + _encode_lengths(lens)
        + b"".join(strings)
    )


def _unpack_str_list(buf, pos: int) -> tuple[list[bytes], int]:
    n, pos = decode_uvarint(buf, pos)
    lens, pos = _decode_lengths(buf, pos)
    out = []
    for ln in lens.tolist():
        out.append(bytes(buf[pos : pos + ln]))
        pos += ln
    return out, pos


def encode_dict_str(
    lengths: np.ndarray,
    data: np.ndarray,
    shared_table: list[bytes] | None = None,
) -> bytes:
    """Dictionary-encode. With ``shared_table``, indices reference the
    shared table first; unseen values go into an embedded extras list
    (codes >= len(shared_table))."""
    arr = bufs_to_arrow(lengths, data)
    head = bytes([_S_DICT]) + encode_uvarint(lengths.size)
    if shared_table is None:
        denc = pc.dictionary_encode(arr)
        table = [v.as_py().encode() for v in denc.dictionary]
        idx = denc.indices.to_numpy(zero_copy_only=False).astype(np.uint32)
        body = (
            b"\x00"  # embedded table
            + _pack_str_list(table)
        )
        tsize = len(table)
    else:
        tarr = pa.array([s.decode() for s in shared_table], pa.string())
        idx_raw = pc.index_in(arr, value_set=tarr)
        mask = pc.is_null(idx_raw).to_numpy(zero_copy_only=False)
        idx = idx_raw.fill_null(0).to_numpy(zero_copy_only=False).astype(np.uint32)
        extras: list[bytes] = []
        if mask.any():
            missing = pc.filter(arr, pa.array(mask))
            xenc = pc.dictionary_encode(missing)
            extras = [v.as_py().encode() for v in xenc.dictionary]
            xidx = xenc.indices.to_numpy(zero_copy_only=False).astype(np.uint32)
            idx[mask] = len(shared_table) + xidx
        body = (
            b"\x01"  # shared table reference
            + bytes.fromhex(dict_table_hash(shared_table))
            + _pack_str_list(extras)
        )
        tsize = len(shared_table) + len(extras)
    w = bit_width(max(tsize - 1, 0))
    body += bytes([w]) + rle_encode(idx, w)
    return head + body


def encode_fsst_str(
    lengths: np.ndarray,
    data: np.ndarray,
    table: FsstTable,
    shared: bool = False,
) -> bytes:
    enc_lengths, enc_data = table.encode(lengths, data)
    head = bytes([_S_FSST]) + encode_uvarint(lengths.size)
    if shared:
        tbl = b"\x01" + bytes.fromhex(table.table_hash())
    else:
        ser = table.serialize()
        tbl = b"\x00" + encode_uvarint(len(ser)) + ser
    return (
        head
        + tbl
        + _encode_lengths(enc_lengths)
        + np.ascontiguousarray(enc_data).tobytes()
    )


def fsst_floor(lengths: np.ndarray) -> int:
    """A lower bound on ``len(encode_fsst_str(lengths, ..., shared=True))``:
    its header and table reference, then at least one code byte per
    non-empty string."""
    # codec id, varint n, shared-table mode byte, table md5
    head = 2 + len(encode_uvarint(lengths.size)) + 16
    return head + int(np.count_nonzero(lengths))


def _dict_strings(buf: bytes) -> list[bytes]:
    return _unpack_str_list(buf, 0)[0]


def _dict_index(buf: bytes) -> dict[bytes, int]:
    """string -> code; a repeated string keeps its first code, as the
    encoder's ``index_in`` gives it."""
    return {v: i for i, v in reversed(list(enumerate(_dict_strings(buf))))}


def _fsst_table(buf: bytes) -> FsstTable:
    return FsstTable.deserialize(buf)[0]


def _dict_head(buf, pos: int):
    """A DICT_STR body's table part -> (shared table hash or None,
    the embedded strings: the table, or the extras after the shared
    table, position of the code width byte)."""
    mode = buf[pos]
    pos += 1
    thash = None
    if mode != 0:
        thash = buf[pos : pos + 16].hex()
        pos += 16
    strings, pos = _unpack_str_list(buf, pos)
    return thash, strings, pos


def _decode_dict_parts(
    buf, pos: int, n: int, tables: dict[str, bytes] | None,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, list[bytes]]:
    """DICT_STR body -> (codes uint32[n], symbol table) — no gather;
    with ``rows``, the codes at those rows only."""
    thash, strings, pos = _dict_head(buf, pos)
    if thash is not None:
        shared = parse_shared(tables, thash, "dict", _dict_strings)
        strings = shared + strings if strings else shared
    w = buf[pos]
    idx = rle_decode(bytes(buf[pos + 1 :]), w, n, rows)
    return idx, strings


def _fsst_parts(buf, pos: int, tables) -> tuple[FsstTable, np.ndarray, np.ndarray]:
    """FSST_STR body -> (its table, encoded lengths, encoded bytes)."""
    mode = buf[pos]
    pos += 1
    if mode == 0:
        ln, pos = decode_uvarint(buf, pos)
        table, _ = FsstTable.deserialize(buf[pos : pos + ln])
        pos += ln
    else:
        thash = buf[pos : pos + 16].hex()
        pos += 16
        table = parse_shared(tables, thash, "fsst", _fsst_table)
    enc_lengths, pos = _decode_lengths(buf, pos)
    enc_data = np.frombuffer(buf, dtype=np.uint8, offset=pos)[
        : int(enc_lengths.sum())
    ]
    return table, enc_lengths, enc_data


def decode_dict_codes(
    buf: bytes, tables: dict[str, bytes] | None = None
) -> tuple[np.ndarray, list[bytes]] | None:
    """Categorical fast path (reference analog: categories= keeps dict
    codes as pandas categories without materializing labels per row,
    api.py:387-475, core.py:529-549): for a DICT_STR blob return
    (codes, table) directly — the per-row label gather never happens.
    None when the blob isn't dictionary-coded (caller falls back to
    decode + dictionary_encode)."""
    if buf[0] != _S_DICT:
        return None
    n, pos = decode_uvarint(buf, 1)
    return _decode_dict_parts(buf, pos, n, tables)


def _ragged_take(
    lengths: np.ndarray, data: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(lengths, data) of the strings at ``rows`` of ragged buffers."""
    starts = np.cumsum(lengths) - lengths
    sel = lengths[rows]
    return sel, data[ragged_positions(starts[rows], sel)]


def ragged_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The element positions of the ragged slices [starts, starts +
    lengths), concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(int(ends[-1]) if ends.size else 0) + np.repeat(
        starts - (ends - lengths), lengths
    )


def _gather_strings(
    idx: np.ndarray, table: list[bytes]
) -> tuple[np.ndarray, np.ndarray]:
    """(lengths, data) of ``table[idx]``."""
    tl = np.array([len(s) for s in table], dtype=np.int64)
    toff = np.concatenate([[0], np.cumsum(tl)])
    tdata = np.frombuffer(b"".join(table), dtype=np.uint8)
    lengths = tl[idx]
    return lengths, tdata[ragged_positions(toff[idx], lengths)]


def decode_any_str(
    buf: bytes,
    tables: dict[str, bytes] | None = None,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode any string blob -> (lengths, data). ``tables`` maps
    table_hash -> serialized table for shared-table blobs. ``rows``
    (ascending positions) decodes those strings only: PLAIN and FSST
    cut their slices from the (encoded) bytes, DICT_STR reads the
    codes at the rows and gathers the distinct ones it needs."""
    codec = buf[0]
    n, pos = decode_uvarint(buf, 1)
    if codec == _S_PLAIN:
        lengths, pos = _decode_lengths(buf, pos)
        data = np.frombuffer(buf, dtype=np.uint8, offset=pos)[: int(lengths.sum())]
        if rows is None:
            return lengths, data
        return _ragged_take(lengths, data, rows)
    if codec == _S_DICT:
        if rows is None:
            idx, table = _decode_dict_parts(buf, pos, n, tables)
            return _gather_strings(idx, table)
        thash, strings, pos = _dict_head(buf, pos)
        codes = rle_decode(bytes(buf[pos + 1 :]), buf[pos], n, rows)
        need, idx = np.unique(codes, return_inverse=True)
        shared = (
            parse_shared(tables, thash, "dict", _dict_strings) if thash else []
        )
        ns = len(shared)
        sub = [shared[c] if c < ns else strings[c - ns] for c in need.tolist()]
        return _gather_strings(idx, sub)
    if codec == _S_FSST:
        table, enc_lengths, enc_data = _fsst_parts(buf, pos, tables)
        if rows is not None:
            enc_lengths, enc_data = _ragged_take(enc_lengths, enc_data, rows)
        return table.decode(enc_lengths, enc_data)
    raise ValueError(f"unknown string codec id {codec}")


def _ragged_find(
    lengths: np.ndarray, data: np.ndarray, probes: list[bytes]
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ragged buffers equal to one of ``probes`` (distinct),
    ascending, and the probe each equals: only rows of a probe's
    length have their bytes compared."""
    starts = np.cumsum(lengths) - lengths
    hits, which = [], []
    for i, p in enumerate(probes):
        cand = np.flatnonzero(lengths == len(p))
        s = starts[cand]
        # a byte at a time, last first, over the rows still equal
        for k in range(len(p) - 1, -1, -1):
            if not cand.size:
                break
            keep = data[s + k] == p[k]
            cand, s = cand[keep], s[keep]
        hits.append(cand)
        which.append(np.full(cand.size, i, dtype=np.int64))
    if not hits:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    rows, which = np.concatenate(hits), np.concatenate(which)
    order = np.argsort(rows, kind="stable")
    return rows[order], which[order]


def str_matches(
    buf: bytes, tables: dict[str, bytes] | None, probes: list[bytes]
) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a string blob whose value equals one of ``probes``
    (distinct), ascending, and the index of the probe each equals —
    found without decoding the strings. FSST encodes every string on
    its own under one table, so equal strings have equal codes: a
    probe is encoded (``FsstTable.encode_one``) and compared with the
    rows of its encoded length. DICT_STR looks the probes up in its
    table(s) and compares codes; PLAIN compares bytes."""
    codec = buf[0]
    n, pos = decode_uvarint(buf, 1)
    if codec == _S_PLAIN:
        lengths, pos = _decode_lengths(buf, pos)
        data = np.frombuffer(buf, dtype=np.uint8, offset=pos)
        return _ragged_find(lengths, data, probes)
    if codec == _S_FSST:
        table, enc_lengths, enc_data = _fsst_parts(buf, pos, tables)
        return _ragged_find(
            enc_lengths, enc_data, [table.encode_one(p) for p in probes]
        )
    if codec == _S_DICT:
        thash, strings, pos = _dict_head(buf, pos)
        index, ns = {}, 0
        if thash is not None:
            index = parse_shared(tables, thash, "dict", _dict_index)
            ns = len(parse_shared(tables, thash, "dict", _dict_strings))
        extras = {v: ns + i for i, v in enumerate(strings)}
        code_of = {}
        for i, p in enumerate(probes):
            c = index.get(p, extras.get(p))
            if c is not None:
                code_of[c] = i
        if not code_of:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        codes = rle_decode(bytes(buf[pos + 1 :]), buf[pos], n)
        want = np.array(sorted(code_of), dtype=np.int64)
        rows = np.flatnonzero(np.isin(codes, want))
        probe = np.array([code_of[c] for c in want.tolist()], dtype=np.int64)
        return rows, probe[np.searchsorted(want, codes[rows])]
    raise ValueError(f"unknown string codec id {codec}")
