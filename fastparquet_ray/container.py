"""Shard container: one encoded blob per partition of an Arrow table.

Replaces the reference's file/row-group/column-chunk/page nesting
(/root/reference/fastparquet/writer.py:672-695 make_part_file,
:644-669 make_row_group, :414-641 write_column) with a flat layout —
the Ray block is the unit of encoding, so one shard = one "row group":

    magic "FPRS1" | u32 header_len | header JSON | column buffers...

The header carries the serialized Arrow schema, per-column codec ids,
buffer offsets, and min/max/null_count statistics (reference analog:
Statistics thrift, writer.py:502-538). Shared symbol tables are
referenced by hash and resolved from a sidecar (see state/manifest.py).

Columns are encoded by arrow type:
    int / uint / timestamp / date / bool -> intcodec (auto or plan)
    float32/64                           -> float_dec / shuffle / PLAIN
    string                               -> strcodec (plain/dict/fsst)
    list<int*> / list<float*>            -> lengths intcodec + values
Nullable columns store a packed validity bitmap; values are encoded
with nulls filled (0 / ""), restored on decode (Arrow-native nulls
replace the reference's definition levels, writer.py:375-408).
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
from typing import Any

import numpy as np
import pyarrow as pa

from .bloom import bloom_build
from .codecs import intcodec as ic
from .codecs import strcodec as sc
from .codecs.fsst import FsstTable, train_fsst
from .codecs.tables import SharedTables, parse_shared
from .codecs.varint import decode_uvarint, encode_uvarint

MAGIC = b"FPRS1"


# ---------------------------------------------------------------------------
# outer block compression (reference analog: the cramjam codec registry,
# /root/reference/fastparquet/compression.py:8-110 — UNCOMPRESSED/GZIP/
# SNAPPY/.../ZSTD applied per page after the lightweight encoding). Here
# applied per encoded column buffer; pyarrow provides the codecs.


def _outer_compress(buf: bytes, codec: str, level: int | None) -> bytes:
    c = pa.Codec(codec, compression_level=level)
    return c.compress(buf, asbytes=True)


def _outer_decompress(buf: bytes, codec: str, orig_len: int) -> bytes:
    c = pa.Codec(codec)
    return c.decompress(buf, decompressed_size=orig_len, asbytes=True)


# codec-id byte -> name (for lineage records; ids from intcodec/strcodec)
_INT_CODEC_NAMES = {
    0: "plain", 1: "for_bp", 2: "rle", 3: "dict", 4: "delta",
    5: "pfor", 6: "dict2", 7: "for64", 8: "zrank", 9: "zranks",
    10: "zrank", 11: "zranks",
}
_STR_CODEC_NAMES = {16: "plain", 17: "dict", 18: "fsst"}

# ---------------------------------------------------------------------------
# type normalization


def _is_intish(t: pa.DataType) -> bool:
    return (
        pa.types.is_integer(t)
        or pa.types.is_boolean(t)
        or pa.types.is_timestamp(t)
        or pa.types.is_date(t)
        or pa.types.is_time(t)
    )


def _storage_kind(t: pa.DataType) -> str:
    """Top-level column dispatch. "list" is the fast plan-driven path
    for non-null list<int/float> (the flagship tokens layout); every
    other nested shape — list<string>, nullable lists, struct, map —
    goes through the recursive "nested" path (reference analog: Dremel
    assembly of one-level LIST/MAP + struct flattening,
    cencoding.pyx:376-439, schema.py:154-198, core.py:584-595)."""
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return "str"
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return "bytes"
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        vt = t.value_type
        if _is_intish(vt) or pa.types.is_floating(vt):
            return "list"
        return "nested"
    if pa.types.is_struct(t) or pa.types.is_map(t):
        return "nested"
    if _is_intish(t):
        return "int"
    if pa.types.is_floating(t):
        return "float"
    if pa.types.is_decimal(t):
        return "dec128"
    if pa.types.is_dictionary(t):
        return _storage_kind(t.value_type)
    raise TypeError(f"unsupported column type {t}")


def _codec_slots(t: pa.DataType) -> dict[str | None, tuple]:
    """Spec slot (None: the column itself) -> the codecs the encoder
    obeys there (``ShardEncoder`` docstring); other slots obey none."""
    kind = _storage_kind(t)
    if kind == "list":
        vals = ic.INT_CANDIDATES if _is_intish(t.value_type) else ()
        return {"lengths": ic.INT_CANDIDATES, "values": vals}
    strs = tuple(_STR_CODEC_NAMES.values())
    return {"int": {None: ic.INT_CANDIDATES}, "str": {None: strs}}.get(kind, {})


def check_codec_specs(specs: dict, schema: pa.Schema) -> None:
    """Raise ValueError, naming the column and the codec, for a user
    codec spec the encoder would not obey: a column ``schema`` lacks,
    a spec that is not a dict, or a codec its slot does not take."""
    for name, spec in specs.items():
        if name not in schema.names:
            raise ValueError(f"column_codecs: no column {name!r} in the input")
        t = schema.field(name).type
        slots = _codec_slots(t)
        for slot in (None, "lengths", "values"):
            sub = spec if slot is None else spec.get(slot, {})
            if not isinstance(sub, dict):
                raise ValueError(
                    f"column_codecs: {name!r} needs a dict spec like "
                    f"{{'codec': ...}}, not {spec!r}"
                )
            codec, allowed = sub.get("codec"), slots.get(slot, ())
            if codec is not None and codec not in allowed:
                where = name if slot is None else f"{name}.{slot}"
                raise ValueError(
                    f"column_codecs: {where!r} ({t}) takes "
                    f"{list(allowed) or 'no codec'}, not {codec!r}"
                )


def _to_int_np(arr: pa.Array) -> np.ndarray:
    """Arrow numeric-ish array (no nulls) -> numpy int array."""
    t = arr.type
    if pa.types.is_boolean(t):
        return arr.to_numpy(zero_copy_only=False).astype(np.uint8)
    if pa.types.is_timestamp(t) or pa.types.is_date64(t) or pa.types.is_time64(t):
        return arr.cast(pa.int64()).to_numpy()
    if pa.types.is_date32(t) or pa.types.is_time32(t):
        return arr.cast(pa.int32()).to_numpy()
    return arr.to_numpy()


def _float_shuffle_body(vnp: np.ndarray) -> bytes | None:
    """Byte-shuffle + zstd for measurement floats that are NOT
    fixed-point decimals (VERDICT r02 #9 / NEXT #3): transposing the
    value bytes groups the low-entropy sign/exponent bytes into runs
    zstd compresses, while interleaved PLAIN bytes defeat it (the same
    trick as Blosc/HDF5 shuffle — public knowledge). Returns None when
    shuffling doesn't beat PLAIN by >5%."""
    n = vnp.size
    if n < 64:
        return None
    shuf = (
        np.ascontiguousarray(vnp)
        .view(np.uint8)
        .reshape(n, vnp.dtype.itemsize)
        .T
    )
    body = _outer_compress(np.ascontiguousarray(shuf).tobytes(), "zstd", 3)
    if len(body) >= vnp.nbytes * 0.95:
        return None
    return body


def _float_unshuffle(body: bytes, dtype: np.dtype, n: int) -> np.ndarray:
    raw = _outer_decompress(body, "zstd", n * dtype.itemsize)
    return (
        np.frombuffer(raw, dtype=np.uint8)
        .reshape(dtype.itemsize, n)
        .T.copy()
        .view(dtype)
        .ravel()
    )


def _float_decimal_ints(vnp: np.ndarray) -> tuple[np.ndarray, int] | None:
    """Detect fixed-point decimals stored as floats (prices, ratios
    rounded to k places — ubiquitous in real tables; the reference
    reads DECIMAL as scaled floats, converted_types.py:175-188).
    Returns (int64 values, scale k) iff decoding ``ints / 10**k`` back
    through float64 reproduces the ORIGINAL bits for every value (so
    -0.0 / subnormal / rounding corner cases can never leak through
    as approximations); else None."""
    if vnp.dtype not in (np.float64, np.float32):
        return None
    if not np.isfinite(vnp).all():
        return None
    v64 = vnp.astype(np.float64)
    head = v64[:4096]
    for k in range(0, 5):
        scale = 10.0**k
        hi = np.rint(head * scale)
        if np.abs(hi).max(initial=0.0) >= 2**53:
            return None
        if ((hi / scale).astype(vnp.dtype) == head.astype(vnp.dtype)).all():
            ints = np.rint(v64 * scale)
            if np.abs(ints).max(initial=0.0) >= 2**53:
                return None
            back = (ints / scale).astype(vnp.dtype)
            # bitwise equality, not ==: catches -0.0 vs 0.0
            if (back.view(np.uint64 if vnp.dtype == np.float64 else np.uint32)
                    == vnp.view(np.uint64 if vnp.dtype == np.float64 else np.uint32)).all():
                return ints.astype(np.int64), k
            return None
    return None


def _encode_int_auto(values: np.ndarray, codec: str | None) -> bytes:
    """Encode with requested codec (PLAIN fallback on range errors).
    When unset, rank candidates on a bounded head sample and encode the
    full array once with the winner — full trial-encodes of every
    candidate cost ~4x the winning encode on large blocks."""
    if codec:
        try:
            return ic.INT_ENCODERS[codec](values)
        except ValueError:
            return ic.encode_plain_int(values)
    for name in ic.rank_int_codecs(values, ic.INT_CANDIDATES):
        try:
            b = ic.INT_ENCODERS[name](values)
        except ValueError:
            continue
        plain_size = len(ic.encode_plain_int(values[:0])) + values.size * values.dtype.itemsize
        return b if len(b) <= plain_size else ic.encode_plain_int(values)
    return ic.encode_plain_int(values)


# ---------------------------------------------------------------------------
# encode


class ShardEncoder:
    """Encodes pyarrow Tables into shard blobs under a CodecPlan.

    plan: {column: spec} where spec is
        int col:  {"codec": one of ic.INT_CANDIDATES,
                   "table_hash": shared rank table (zrank only)}
        str col:  {"codec": "plain|dict|fsst", "table_hash": str|None}
        list<int> col:   {"lengths": int spec, "values": int spec}
        list<float> col: {"lengths": int spec}
    any of them plus {"bloom": True}. Other kinds (float, binary,
    decimal, nested) take no codec: their encoder picks per shard, as
    for a column without a spec (``check_codec_specs`` holds user specs
    to this). tables: {table_hash: serialized table} for shared
    dict/fsst/rank tables.
    """

    def __init__(
        self,
        plan: dict | None = None,
        tables: dict[str, bytes] | None = None,
        outer: tuple[str, int | None] | None = None,
    ):
        self.plan = plan or {}
        self.tables = SharedTables(tables or {})
        self.outer = outer  # e.g. ("zstd", 3) — block codec over buffers

    def _fsst_table(self, thash: str) -> FsstTable:
        return parse_shared(self.tables, thash, "fsst", sc._fsst_table)

    def _dict_table(self, thash: str) -> list[bytes]:
        return parse_shared(self.tables, thash, "dict", sc._dict_strings)

    def _rank_table(self, thash: str) -> ic.RankTable:
        return parse_shared(self.tables, thash, "rank", ic.RankTable.deserialize)

    def _encode_int(self, vnp: np.ndarray, spec: dict | None) -> bytes:
        """Int body under a spec: zrank with a plan-shared table when
        the spec carries a table_hash, else the per-shard auto path."""
        codec = (spec or {}).get("codec")
        thash = (spec or {}).get("table_hash")
        if codec == "zrank" and thash:
            return ic.encode_zrank_shared(vnp, self._rank_table(thash), thash)
        return _encode_int_auto(vnp, codec)

    def _encode_str(self, arr: pa.Array, spec: dict | None) -> bytes:
        lengths, data = sc.str_to_bufs(arr)
        codec = (spec or {}).get("codec")
        thash = (spec or {}).get("table_hash")
        if codec == "plain":
            return sc.encode_plain_str(lengths, data)
        if codec == "dict":
            shared = self._dict_table(thash) if thash else None
            return sc.encode_dict_str(lengths, data, shared_table=shared)
        if codec == "fsst":
            if thash:
                return sc.encode_fsst_str(
                    lengths, data, self._fsst_table(thash), shared=True
                )
            return sc.encode_fsst_str(lengths, data, train_fsst(lengths, data))
        # auto: smallest of plain/dict/fsst(embedded)
        cands = [
            sc.encode_plain_str(lengths, data),
            sc.encode_dict_str(lengths, data),
            sc.encode_fsst_str(lengths, data, train_fsst(lengths, data)),
        ]
        return min(cands, key=len)

    def _encode_bytes(self, arr: pa.Array) -> bytes:
        """Binary column body: smallest of plain / fsst (the dict codec
        path round-trips through utf8 strings, so it is skipped for
        arbitrary bytes)."""
        lengths, data = sc.str_to_bufs(arr)
        cands = [
            sc.encode_plain_str(lengths, data),
            sc.encode_fsst_str(lengths, data, train_fsst(lengths, data)),
        ]
        return min(cands, key=len)

    def _encode_column(self, arr: pa.Array, spec: dict | None) -> tuple[list[bytes], dict]:
        """Returns (buffers, column header info)."""
        t = arr.type
        if pa.types.is_dictionary(t):
            arr = arr.cast(t.value_type)
            t = arr.type
        info: dict[str, Any] = {}
        null_count = arr.null_count
        info["null_count"] = null_count
        kind = _storage_kind(t)
        if kind == "list" and (null_count or arr.flatten().null_count):
            # nullable lists / null elements take the recursive path
            kind = "nested"
        if kind == "nested":
            body = self._encode_nested(arr)
            info.update(
                {"validity_len": 0, "kind": "nested", "sizes": [len(body)],
                 "codec": "nested"}
            )
            return [b"", body], info
        validity = b""
        valid_mask = None
        if null_count:
            valid_mask = arr.is_valid().to_numpy(zero_copy_only=False)
            validity = np.packbits(valid_mask, bitorder="little").tobytes()
            if pa.types.is_string(t) or pa.types.is_large_string(t):
                arr = arr.fill_null("")
            elif pa.types.is_binary(t) or pa.types.is_large_binary(t):
                arr = arr.fill_null(b"")
            elif pa.types.is_floating(t):
                arr = arr.fill_null(0.0)
            elif pa.types.is_boolean(t):
                arr = arr.fill_null(False)
            else:
                arr = arr.fill_null(0)
        info["validity_len"] = len(validity)
        info["kind"] = kind
        n_valid = len(arr) - null_count
        if kind == "bytes":
            body = self._encode_bytes(arr)
            bufs = [validity, body]
            info["sizes"] = [len(body)]
            info["codec"] = _STR_CODEC_NAMES.get(body[0], "?") if body else "?"
        elif kind == "str":
            body = self._encode_str(arr, spec)
            bufs = [validity, body]
            info["sizes"] = [len(body)]
            info["codec"] = _STR_CODEC_NAMES.get(body[0], "?") if body else "?"
            if spec and spec.get("table_hash"):
                info["table_hash"] = spec["table_hash"]
            if n_valid:
                # stats over VALID values only (nulls are filled with ""
                # for encoding but must not pollute min/max — reference
                # computes stats on null-stripped values, writer.py:502-538)
                src = arr.filter(pa.array(valid_mask)) if null_count else arr
                mm = pa.compute.min_max(src)
                info["min"] = mm["min"].as_py()
                info["max"] = mm["max"].as_py()
                uniq = pa.compute.unique(src)
                info["distinct"] = len(uniq)
                if (spec or {}).get("bloom"):
                    info["bloom"] = bloom_build(
                        uniq.to_numpy(zero_copy_only=False)
                    )
        elif kind == "list":
            arr = arr.cast(pa.list_(t.value_type)) if pa.types.is_large_list(t) else arr
            offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)[
                arr.offset : arr.offset + len(arr) + 1
            ].astype(np.int64)
            lengths = np.diff(offs).astype(np.int32)
            values = arr.flatten()
            if values.null_count:
                raise TypeError("null list elements unsupported")
            lspec = (spec or {}).get("lengths", {})
            vspec = (spec or {}).get("values", {})
            lb = _encode_int_auto(lengths, lspec.get("codec"))
            if pa.types.is_floating(t.value_type):
                vnp = values.to_numpy()
                sb = _float_shuffle_body(vnp)
                if sb is not None:
                    # byte-shuffle + zstd (same trick as flat float
                    # columns) — embedding list<float> payloads
                    vb = b"S" + sb
                    vname = "shuffle_float"
                else:
                    vb = b"F" + np.ascontiguousarray(vnp).tobytes()
                    vname = "plain_float"
                info["float_values"] = str(vnp.dtype)
            else:
                ivals = _to_int_np(values)
                vb = self._encode_int(ivals, vspec)
                vname = _INT_CODEC_NAMES.get(vb[0], "?")
                extras = ic.zranks_extras_count(vb)  # drift signal
                if extras is not None:
                    info["zrank_extras"] = extras
                if ivals.size:
                    # ELEMENT-level stats under DEDICATED keys
                    # (emin/emax — NOT min/max, which scalar consumers
                    # like sorted_partitioned_columns and scalar-op
                    # pruning interpret as row-value stats): range-
                    # prunes "contains" filters, plus an opt-in bloom
                    # over the shard's distinct element ids — parquet's
                    # split-block bloom idea applied to list elements
                    # ("docs containing token X" skips every shard
                    # provably lacking the id)
                    info["emin"] = int(ivals.min())
                    info["emax"] = int(ivals.max())
                    if (spec or {}).get("bloom"):
                        info["bloom"] = bloom_build(np.unique(ivals))
            bufs = [validity, lb, vb]
            info["sizes"] = [len(lb), len(vb)]
            info["codec"] = (
                f"list<lengths={_INT_CODEC_NAMES.get(lb[0], '?')},"
                f"values={vname}>"
            )
        elif kind == "float":
            vnp = arr.to_numpy(zero_copy_only=False)
            info["float_dtype"] = str(vnp.dtype)
            dec = _float_decimal_ints(vnp)
            if dec is not None:
                ints, scale = dec
                body = _encode_int_auto(ints, None)
                if len(body) < vnp.nbytes:
                    info["fdec_scale"] = scale
                    info["codec"] = f"float_dec{scale}+{_INT_CODEC_NAMES.get(body[0], '?')}"
                else:
                    dec = None
            if dec is None:
                body = _float_shuffle_body(vnp)
                if body is not None:
                    info["fshuffle"] = True
                    info["codec"] = "shuffle_float"
                else:
                    body = np.ascontiguousarray(vnp).tobytes()
                    info["codec"] = "plain_float"
            bufs = [validity, body]
            info["sizes"] = [len(body)]
            if n_valid:
                vv = vnp[valid_mask] if null_count else vnp
                lo, hi = np.nanmin(vv), np.nanmax(vv)
                if np.isfinite(lo) and np.isfinite(hi):
                    info["min"] = float(lo)
                    info["max"] = float(hi)
                info["distinct"] = int(np.unique(vv).size)
        elif kind == "dec128":
            # decimal128 (reference M5 decimal, converted_types.py:175-188;
            # here lossless): raw 16-byte LE values split into lo/hi int64
            # streams, each through the int codecs (hi is usually pure
            # sign-extension -> tiny RLE)
            nrows = len(arr)
            data = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
                arr.offset * 2 : (arr.offset + nrows) * 2
            ].reshape(nrows, 2)
            lob = _encode_int_auto(np.ascontiguousarray(data[:, 0]), None)
            hib = _encode_int_auto(np.ascontiguousarray(data[:, 1]), None)
            body = encode_uvarint(len(lob)) + lob + hib
            bufs = [validity, body]
            info["sizes"] = [len(body)]
            info["codec"] = "dec128"
        else:  # int-ish
            vnp = _to_int_np(arr)
            body = self._encode_int(vnp, spec)
            bufs = [validity, body]
            info["sizes"] = [len(body)]
            info["codec"] = _INT_CODEC_NAMES.get(body[0], "?") if body else "?"
            extras = ic.zranks_extras_count(body)  # drift signal
            if extras is not None:
                info["zrank_extras"] = extras
            if (
                pa.types.is_timestamp(t)
                or pa.types.is_date(t)
                or pa.types.is_time(t)
            ):
                # logical type for stats consumers: header min/max are
                # raw ints in this unit, so filter values must be
                # converted before comparison (ADVICE r01)
                info["ltype"] = str(t)
            if n_valid:
                vv = vnp[valid_mask] if null_count else vnp
                info["min"] = int(vv.min())
                info["max"] = int(vv.max())
                uniq = np.unique(vv)
                info["distinct"] = int(uniq.size)
                if (spec or {}).get("bloom"):
                    # temporal ints are in the column unit; filter-time
                    # values pass through the same _coerce_stat_value
                    # unit conversion before hashing (decode.py)
                    info["bloom"] = bloom_build(uniq)
        return bufs, info

    # ---- recursive nested encoding (list<any>, nullable lists, struct,
    # map) — reference analog: Dremel def/rep-level assembly
    # (cencoding.pyx:376-439) and MAP key/value zipping (core.py:584-595);
    # here Arrow offsets/validity replace the level streams entirely.
    # Node wire format:
    #   u8 kind | uvarint n | uvarint validity_len | validity | body
    #   kind 1 str / 2 bytes: uvarint blen + strcodec blob
    #   kind 3 int:           uvarint blen + intcodec blob
    #   kind 4 float:         uvarint dlen + dtype ascii + raw LE
    #   kind 5 list / 7 map:  uvarint llen + intcodec lengths + child node
    #   kind 6 struct:        uvarint nfields + child nodes

    def _encode_nested(self, arr: pa.Array) -> bytes:
        import pyarrow.compute as pc

        t = arr.type
        if pa.types.is_dictionary(t):
            arr = arr.cast(t.value_type)
            t = arr.type
        n = len(arr)
        null_count = arr.null_count
        validity = b""
        if null_count:
            mask = arr.is_valid().to_numpy(zero_copy_only=False)
            validity = np.packbits(mask, bitorder="little").tobytes()
        head = (
            encode_uvarint(n)
            + encode_uvarint(null_count)
            + encode_uvarint(len(validity))
            + validity
        )
        if pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_map(t):
            if pa.types.is_map(t):
                # a map IS a list<struct<key, value>> physically; the
                # list-compute kernels only accept the list form
                kind = 7
                arr = arr.cast(pa.list_(pa.struct([t.key_field, t.item_field])))
            else:
                kind = 5
            lengths = (
                pc.list_value_length(arr).cast(pa.int32()).fill_null(0).to_numpy(
                    zero_copy_only=False
                )
            ).astype(np.int32)
            values = pc.list_flatten(arr)  # valid slots' values only
            child = self._encode_nested(values)
            lb = _encode_int_auto(lengths, None)
            body = encode_uvarint(len(lb)) + lb + child
        elif pa.types.is_struct(t):
            kind = 6
            # children stay full-length; parent validity masks null
            # structs (child values under a null parent are preserved
            # bytes, masked out on decode)
            body = encode_uvarint(t.num_fields)
            for i in range(t.num_fields):
                body += self._encode_nested(arr.field(i))
            body = bytes(body)
        elif pa.types.is_string(t) or pa.types.is_large_string(t):
            kind = 1
            blob = self._encode_str(arr.fill_null("") if null_count else arr, None)
            body = encode_uvarint(len(blob)) + blob
        elif pa.types.is_binary(t) or pa.types.is_large_binary(t):
            kind = 2
            blob = self._encode_bytes(arr.fill_null(b"") if null_count else arr)
            body = encode_uvarint(len(blob)) + blob
        elif pa.types.is_floating(t):
            kind = 4
            vnp = (arr.fill_null(0.0) if null_count else arr).to_numpy(
                zero_copy_only=False
            )
            ds = str(vnp.dtype).encode()
            body = encode_uvarint(len(ds)) + ds + np.ascontiguousarray(vnp).tobytes()
        elif _is_intish(t):
            kind = 3
            if null_count:
                arr = arr.fill_null(False if pa.types.is_boolean(t) else 0)
            vnp = _to_int_np(arr)
            blob = _encode_int_auto(vnp, None)
            body = encode_uvarint(len(blob)) + blob
        else:
            raise TypeError(f"unsupported nested component type {t}")
        return bytes([kind]) + head + body

    def encode_table(self, table: pa.Table, partition_id: str | None = None) -> bytes:
        table = table.combine_chunks()
        cols = []
        buffers: list[bytes] = []
        raw = 0
        for name in table.column_names:
            col = table.column(name)
            arr = col.chunk(0) if col.num_chunks else pa.array([], col.type)
            raw += col.nbytes
            spec = self.plan.get(name)
            bufs, info = self._encode_column(arr, spec)
            if self.outer is not None:
                codec, level = self.outer
                orig_sizes = info["sizes"]
                bodies = [
                    _outer_compress(b, codec, level) for b in bufs[1:]
                ]
                bufs = [bufs[0]] + bodies
                info["outer"] = [codec, level]
                info["outer_sizes"] = orig_sizes
                info["sizes"] = [len(b) for b in bodies]
            info["name"] = name
            info["offset"] = sum(len(b) for b in buffers)
            info["length"] = sum(len(b) for b in bufs)
            cols.append(info)
            buffers.extend(bufs)
        payload = b"".join(buffers)
        header = {
            "version": 1,
            "num_rows": table.num_rows,
            "partition_id": partition_id,
            "schema": base64.b64encode(
                table.schema.serialize().to_pybytes()
            ).decode(),
            "columns": cols,
            "raw_bytes": raw,
            "enc_bytes": len(payload),
        }
        hj = json.dumps(header, separators=(",", ":")).encode()
        return MAGIC + len(hj).to_bytes(4, "little") + hj + payload


# ---------------------------------------------------------------------------
# decode


def _attach_validity(arr: pa.Array, vbuf, null_count: int) -> pa.Array:
    """Attach a validity bitmap to a FLAT (primitive / var-binary)
    array via from_buffers (values at null slots are the encode-side
    fill values)."""
    if not null_count:
        return arr
    return pa.Array.from_buffers(
        arr.type, len(arr), [vbuf] + arr.buffers()[1:], null_count=null_count
    )


def decode_nested(
    buf: bytes, pos: int, t: pa.DataType, tables: dict[str, bytes] | None = None
) -> tuple[pa.Array, int]:
    """Decode one nested node (see ShardEncoder._encode_nested wire
    format) into an Arrow array of type ``t``."""
    want = t
    if pa.types.is_dictionary(t):
        t = t.value_type
    kind = buf[pos]
    pos += 1
    n, pos = decode_uvarint(buf, pos)
    null_count, pos = decode_uvarint(buf, pos)
    vlen, pos = decode_uvarint(buf, pos)
    vbuf = pa.py_buffer(bytes(buf[pos : pos + vlen])) if null_count else None
    pos += vlen
    if kind in (5, 7):  # list / map
        llen, pos = decode_uvarint(buf, pos)
        lengths = ic.decode_any_int(bytes(buf[pos : pos + llen])).astype(np.int64)
        pos += llen
        if kind == 7:
            entry_t = pa.struct([t.key_field, t.item_field])
            child, pos = decode_nested(buf, pos, entry_t, tables)
            plain_t = t
        else:
            child, pos = decode_nested(buf, pos, t.value_type, tables)
            plain_t = pa.list_(t.value_type)
        offsets = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(lengths, out=offsets[1:])
        arr = pa.Array.from_buffers(
            plain_t,
            n,
            [vbuf, pa.py_buffer(offsets.tobytes())],
            null_count=null_count,
            children=[child],
        )
    elif kind == 6:  # struct
        nf, pos = decode_uvarint(buf, pos)
        children = []
        for i in range(nf):
            c, pos = decode_nested(buf, pos, t.field(i).type, tables)
            children.append(c)
        arr = pa.Array.from_buffers(
            pa.struct([t.field(i) for i in range(nf)]),
            n,
            [vbuf],
            null_count=null_count,
            children=children,
        )
    elif kind in (1, 2):  # str / bytes
        blen, pos = decode_uvarint(buf, pos)
        lengths, data = sc.decode_any_str(bytes(buf[pos : pos + blen]), tables)
        pos += blen
        arr = _attach_validity(
            sc.bufs_to_arrow(lengths, data, binary=(kind == 2)), vbuf, null_count
        )
    elif kind == 4:  # float
        dlen, pos = decode_uvarint(buf, pos)
        dt = np.dtype(bytes(buf[pos : pos + dlen]).decode())
        pos += dlen
        vnp = np.frombuffer(buf, dtype=dt, offset=pos, count=n)
        pos += n * dt.itemsize
        arr = _attach_validity(pa.array(vnp), vbuf, null_count)
    elif kind == 3:  # int-ish
        blen, pos = decode_uvarint(buf, pos)
        vals = ic.decode_any_int(bytes(buf[pos : pos + blen]))
        pos += blen
        if pa.types.is_boolean(t):
            arr = pa.array(vals.astype(bool))
        else:
            arr = pa.array(vals).cast(t)
        arr = _attach_validity(arr, vbuf, null_count)
    else:
        raise ValueError(f"unknown nested node kind {kind}")
    if not arr.type.equals(t):
        arr = arr.cast(t)
    if pa.types.is_dictionary(want):
        arr = arr.dictionary_encode()
    return arr, pos


def header_end(blob: bytes) -> int:
    """Offset of the first column body: magic, u32 header length, then
    the header JSON. Raises ValueError on a bad magic."""
    if blob[:5] != MAGIC:
        raise ValueError("bad shard magic")
    return 9 + int.from_bytes(blob[5:9], "little")


def shard_length(head: bytes, header: dict) -> int:
    """Exact file length of the shard whose header blob is ``head`` and
    parsed header ``header``: anything else is a torn or foreign file."""
    return header_end(head) + header["enc_bytes"]


def read_header(blob: bytes) -> dict:
    return json.loads(blob[9 : header_end(blob)])


_STAT_KEYS = (
    "min", "max", "emin", "emax", "ltype", "bloom",
    "kind", "null_count", "distinct", "length", "zrank_extras",
)


def column_stats(header: dict) -> dict:
    """Per-column stats of a parsed shard header: the pruning stats
    (min, max, emin, emax, ltype, bloom) and what ``statistics()``
    reports (kind, null_count, distinct, length, zrank_extras), keys
    the header lacks left out. Manifest records carry the same dict
    (JSON field ``stats``), so no stat of a recorded shard opens its
    header."""
    return {
        c["name"]: {k: c[k] for k in _STAT_KEYS if k in c}
        for c in header["columns"]
    }


@functools.lru_cache(maxsize=64)
def _read_schema(b64: str) -> pa.Schema:
    """A header's serialized schema; the shards of a dataset share it,
    so it is parsed once."""
    return pa.ipc.read_schema(pa.py_buffer(base64.b64decode(b64)))


class ShardHead:
    """A shard blob's header, parsed once for any number of decodes:
    the ``header`` dict, the Arrow ``schema``, ``base`` (offset of the
    first column body) and ``columns`` (column header by name)."""

    def __init__(self, blob: bytes):
        self.base = header_end(blob)
        self.header = json.loads(blob[9 : self.base])
        self.schema = _read_schema(self.header["schema"])
        self.columns = {c["name"]: c for c in self.header["columns"]}

    def bodies(self, blob: bytes, info: dict) -> tuple[bytes, list[bytes]]:
        """(validity bitmap, body buffers) of the column ``info``, outer
        compression undone."""
        start = self.base + info["offset"]
        vlen = info["validity_len"]
        bodies: list[bytes] = []
        p = start + vlen
        for i, sz in enumerate(info["sizes"]):
            b = blob[p : p + sz]
            p += sz
            if "outer" in info:
                b = _outer_decompress(
                    b, info["outer"][0], info["outer_sizes"][i]
                )
            bodies.append(b)
        return blob[start : start + vlen], bodies

    def valid(self, blob: bytes, info: dict) -> np.ndarray | None:
        """The column's validity as a bool mask, None without nulls."""
        if not info["null_count"]:
            return None
        start = self.base + info["offset"]
        vbits = np.frombuffer(
            blob, dtype=np.uint8, count=info["validity_len"], offset=start
        )
        return np.unpackbits(vbits, bitorder="little")[
            : self.header["num_rows"]
        ].astype(bool)


def note_read(how: dict | None, name: str, mode: str, codes=None) -> None:
    """Count one read of column ``name`` under ``mode`` in ``how``
    ({name: {mode: count, "codes": [decompressed, whole, stored]}}),
    adding ZRANK/ZRANKS code-stream bytes (``_read_codes`` stats: the
    bytes of the frames decompressed, of the whole stream decompressed,
    and stored)."""
    if how is None:
        return
    col = how.setdefault(name, {})
    col[mode] = col.get(mode, 0) + 1
    if codes:
        col["codes"] = [a + b for a, b in zip(col.get("codes", (0, 0, 0)), codes)]


def decode_table(
    blob: bytes,
    tables: dict[str, bytes] | None = None,
    columns: list[str] | None = None,
    categories: list[str] | None = None,
    rows: np.ndarray | None = None,
    decoded: dict[str, Any] | None = None,
    head: ShardHead | None = None,
    how: dict | None = None,
) -> pa.Table:
    """``categories``: string columns to return as
    pa.DictionaryArray (reference categories=, api.py:387-475 /
    core.py:529-549). Dictionary-coded shards take the zero-gather
    fast path — codes + symbol table become the DictionaryArray
    directly, so decode memory is O(distinct) for the labels instead
    of O(rows); other codecs decode then dictionary_encode.

    ``rows`` (ascending row positions) keeps only those rows, and
    decodes no more than they need: int columns, list values,
    strings and binaries, and plain and decimal-coded floats decode at
    the rows (``decode_any_int(take=)``, ``decode_any_str(rows=)``);
    list lengths, nested, decimal128 and byte-shuffled float columns
    decode whole and then take; an empty ``rows`` decodes no column
    body. A dictionary-typed result (stored dictionary or
    ``categories``) decodes whole first, so it keeps the shard's full
    dictionary. ``decoded`` maps column names to arrays the caller
    already holds at ``rows``; they take their place in the table as
    given. ``head``: the blob's parsed header, if the caller has it.
    ``how`` counts how each decoded column was read (``note_read``):
    "at rows" or "whole"."""
    head = head or ShardHead(blob)
    schema = head.schema
    n = head.header["num_rows"]
    out_cols = []
    out_fields = []
    for info in head.header["columns"]:
        name = info["name"]
        if columns is not None and name not in columns:
            continue
        field = schema.field(name)
        if decoded is not None and name in decoded:
            arr = decoded[name]
            if not arr.type.equals(field.type):
                field = pa.field(name, arr.type, field.nullable)
            out_cols.append(arr)
            out_fields.append(field)
            continue
        validity, bodies = head.bodies(blob, info)
        kind = info["kind"]
        t = field.type
        if pa.types.is_dictionary(t):
            t = t.value_type
        # a dictionary-typed result keeps the whole shard's dictionary
        # (as a take of the full decode would): decode whole, take last
        dict_out = pa.types.is_dictionary(field.type) or bool(
            categories and name in categories and kind == "str"
        )
        sel = None if dict_out else rows
        at_rows = sel is not None  # False once a kind decoded whole
        codes: dict = {}
        if sel is not None and not sel.size:
            arr = pa.array([], type=field.type if kind == "nested" else t)
        elif kind == "nested":
            arr, _ = decode_nested(bodies[0], 0, field.type, tables)
            at_rows = False
        elif kind == "bytes":
            lengths, data = sc.decode_any_str(bodies[0], tables, sel)
            arr = sc.bufs_to_arrow(lengths, data, binary=True)
            if not arr.type.equals(t):
                arr = arr.cast(t)
        elif kind == "str":
            arr = None
            if categories and name in categories and not info["null_count"]:
                ct = sc.decode_dict_codes(bodies[0], tables)
                if ct is not None:
                    idx, table = ct
                    tl = np.array([len(s) for s in table], dtype=np.int64)
                    dict_vals = sc.bufs_to_arrow(
                        tl, np.frombuffer(b"".join(table), dtype=np.uint8)
                    )
                    arr = pa.DictionaryArray.from_arrays(
                        pa.array(idx.astype(np.int32), pa.int32()), dict_vals
                    )
            if arr is None:
                lengths, data = sc.decode_any_str(bodies[0], tables, sel)
                arr = sc.bufs_to_arrow(lengths, data)
        elif kind == "list":
            lb, vb = bodies[0], bodies[1]
            lengths = ic.decode_any_int(lb, tables).astype(np.int64)
            total = int(lengths.sum())
            vpos = None
            if sel is not None:
                starts = np.cumsum(lengths) - lengths
                lengths = lengths[sel]
                vpos = sc.ragged_positions(starts[sel], lengths)
            if "float_values" in info:
                fdt = np.dtype(info["float_values"])
                if vb[:1] == b"S":
                    values = _float_unshuffle(bytes(vb[1:]), fdt, total)
                else:
                    values = np.frombuffer(vb, dtype=fdt, offset=1)
                if vpos is not None:
                    values = values[vpos]
                varr = pa.array(values, type=t.value_type)
            else:
                vals = ic.decode_any_int(vb, tables, take=vpos, stats=codes)
                varr = pa.array(vals, type=t.value_type)
            offsets = np.zeros(lengths.size + 1, dtype=np.int32)
            np.cumsum(lengths, out=offsets[1:])
            arr = pa.ListArray.from_arrays(
                pa.array(offsets, pa.int32()), varr
            )
        elif kind == "dec128":
            lolen, p2 = decode_uvarint(bodies[0], 0)
            lo = ic.decode_any_int(bytes(bodies[0][p2 : p2 + lolen]))
            hi = ic.decode_any_int(bytes(bodies[0][p2 + lolen :]))
            pairs = np.empty((n, 2), dtype=np.int64)
            pairs[:, 0] = lo
            pairs[:, 1] = hi
            vb = pa.py_buffer(validity) if info["null_count"] else None
            arr = pa.Array.from_buffers(
                t, n, [vb, pa.py_buffer(pairs.tobytes())],
                null_count=info["null_count"],
            )
            at_rows = False
        elif kind == "float":
            if "fdec_scale" in info:
                ints = ic.decode_any_int(bodies[0], take=sel)
                values = (ints / 10.0 ** info["fdec_scale"]).astype(
                    np.dtype(info["float_dtype"])
                )
            elif info.get("fshuffle"):
                values = _float_unshuffle(
                    bodies[0], np.dtype(info["float_dtype"]), n
                )
                at_rows = False
            else:
                values = np.frombuffer(bodies[0], dtype=info["float_dtype"])
                if sel is not None:
                    values = values[sel]
            arr = pa.array(values, type=t)
        else:
            vals = ic.decode_any_int(bodies[0], tables, take=sel, stats=codes)
            if pa.types.is_boolean(t):
                arr = pa.array(vals.astype(bool), type=t)
            else:
                arr = pa.array(vals).cast(t)
        if sel is not None and sel.size and not at_rows:
            arr = arr.take(pa.array(sel))
        if info["null_count"] and kind not in ("nested", "dec128"):
            mask = head.valid(blob, info)
            if sel is not None:
                mask = mask[sel]
            arr = pa.compute.if_else(pa.array(mask), arr, pa.scalar(None, arr.type))
        if pa.types.is_dictionary(field.type) and kind != "nested":
            arr = arr.dictionary_encode()
        if (
            categories
            and name in categories
            and kind == "str"
            and not pa.types.is_dictionary(arr.type)
        ):
            # non-dict-coded shard (plain/fsst) or nullable column:
            # decode then dictionary-encode (gather happens, but the
            # caller still gets the categorical type)
            arr = arr.dictionary_encode()
        if dict_out and rows is not None:
            arr = arr.take(pa.array(rows))
        if pa.types.is_dictionary(arr.type) and not arr.type.equals(field.type):
            # intentional type change from categories= (everything else
            # is cast back to the stored schema by from_arrays below)
            field = pa.field(name, arr.type, field.nullable)
        note_read(how, name, "at rows" if at_rows else "whole", codes.get("codes"))
        out_cols.append(arr)
        out_fields.append(field)
    # reattach schema-level metadata (it rode the IPC-serialized
    # schema): the b'pandas' blob restores a preserved DataFrame index
    # on to_pandas() — reference analog: the pandas JSON key-value in
    # the footer (writer.py:698-770, read back api.py:556-604). Under
    # a column projection the blob may reference dropped index
    # columns, so it is stripped then (pyarrow would raise).
    md = schema.metadata
    if md and b"pandas" in md and columns is not None:
        md = {k: v for k, v in md.items() if k != b"pandas"}
    if not out_cols:
        # no stored column projected (only hive partition columns):
        # keep the row count, which the caller attaches columns to
        n_out = n if rows is None else len(rows)
        return pa.table({"": pa.nulls(n_out)}).select([])
    return pa.Table.from_arrays(
        out_cols, schema=pa.schema(out_fields, metadata=md)
    )


def partition_id_for(table: pa.Table, *, extra: str = "") -> str:
    """Deterministic content-derived partition id: blake2b over the
    FULL block (schema + every column's values and validity), salted
    with ``extra``. Used for idempotent shard naming + resume
    (reference analog: append='overwrite' path keying,
    writer.py:1014-1032).

    The id covers ALL columns, not just a key column: two blocks that
    share key values but differ in any other column get different ids,
    so resume can never keep a stale shard for changed rows, and blocks
    without a key column can never collide (both were real defects —
    ADVICE r01). Cost: one memcpy + hash pass over the block (~GB/s),
    small next to the encode itself and the unavoidable price of
    content-verified resume."""
    table = table.combine_chunks()  # chunking-invariant layout
    h = hashlib.blake2b(digest_size=8)
    h.update(table.num_rows.to_bytes(8, "little"))
    for name in table.column_names:
        col = table.column(name)
        arr = col.chunk(0) if col.num_chunks else pa.array([], col.type)
        h.update(name.encode())
        try:
            _hash_update_array(h, arr)
        except (TypeError, pa.ArrowInvalid, pa.ArrowNotImplementedError):
            # rare/odd layouts: fall back to IPC serialization (a full
            # copy, but only for this column)
            sink = pa.BufferOutputStream()
            with pa.ipc.new_stream(
                sink, pa.schema([pa.field(name, arr.type)])
            ) as w:
                w.write_table(pa.table({name: arr}))
            h.update(memoryview(sink.getvalue()))
    if extra:
        # provenance salt (input fragment path): two IDENTICAL blocks
        # from different input files must stay two shards — pure
        # content addressing silently deduplicated duplicate inputs
        h.update(extra.encode())
    return h.hexdigest()


def _hash_update_array(h, arr: pa.Array) -> None:
    """Feed an array's logical content into a hash via zero-copy buffer
    views (the r01 IPC-serialize approach cost a full extra memcpy pass
    per block, which measurably eats encode bandwidth at high
    parallelism). Values under null slots are excluded via fill, so the
    hash is a function of logical content only."""
    import pyarrow.compute as pc

    t = arr.type
    h.update(str(t).encode())
    h.update(len(arr).to_bytes(8, "little"))
    null_count = arr.null_count
    if null_count:
        mask = arr.is_valid().to_numpy(zero_copy_only=False)
        h.update(np.packbits(mask, bitorder="little"))
    if pa.types.is_dictionary(t):
        _hash_update_array(h, arr.cast(t.value_type))
        return
    if (
        pa.types.is_string(t)
        or pa.types.is_large_string(t)
        or pa.types.is_binary(t)
        or pa.types.is_large_binary(t)
    ):
        if null_count:
            arr = arr.fill_null("" if pa.types.is_string(t) or pa.types.is_large_string(t) else b"")
        lengths, data = sc.str_to_bufs(arr)
        h.update(lengths)  # ndarray: buffer protocol, no copy
        h.update(np.ascontiguousarray(data))
        return
    if pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_map(t):
        if pa.types.is_map(t):
            arr = arr.cast(pa.list_(pa.struct([t.key_field, t.item_field])))
        lengths = (
            pc.list_value_length(arr).cast(pa.int32()).fill_null(0)
            .to_numpy(zero_copy_only=False)
        )
        h.update(np.ascontiguousarray(lengths))
        _hash_update_array(h, pc.list_flatten(arr))
        return
    if pa.types.is_struct(t):
        for i in range(t.num_fields):
            _hash_update_array(h, arr.field(i))
        return
    if pa.types.is_boolean(t):
        v = (arr.fill_null(False) if null_count else arr).to_numpy(
            zero_copy_only=False
        )
        h.update(np.packbits(v, bitorder="little"))
        return
    if _is_intish(t):
        h.update(np.ascontiguousarray(_to_int_np(arr.fill_null(0) if null_count else arr)))
        return
    if pa.types.is_floating(t):
        v = (arr.fill_null(0.0) if null_count else arr).to_numpy(
            zero_copy_only=False
        )
        h.update(np.ascontiguousarray(v))
        return
    if pa.types.is_decimal(t):
        n = len(arr)
        data = np.frombuffer(arr.buffers()[1], dtype=np.uint8)[
            arr.offset * 16 : (arr.offset + n) * 16
        ]
        h.update(data)
        return
    raise TypeError(f"unhashable column type {t}")
