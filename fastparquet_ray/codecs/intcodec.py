"""Self-describing integer-array codecs.

Each ``encode_*`` takes a 1-D numpy integer array and returns bytes that
``decode_any`` can turn back into the exact array (same dtype, same
values). All kernels are numpy-vectorized; Python loops run only over
miniblocks / runs / width-groups, never values.

Codecs, by codec-id byte:

0 PLAIN      raw little-endian bytes (reference analog: encode_plain,
             /root/reference/fastparquet/writer.py:347-353)
1 FOR_BP     frame-of-reference + bit-pack in miniblocks of 1024 values:
             per block [min i64][width u8] headers then byte-aligned
             packed deltas. Delta/miniblock semantics modeled on
             DELTA_BINARY_PACKED which the reference only decodes
             (/root/reference/fastparquet/cencoding.pyx:213-242); the
             encode side is new.
2 RLE_INT    min-subtract then Parquet RLE/bit-pack hybrid
             (cencoding.pyx:190-211 semantics) — wins on runny data.
3 DICT_INT   symbol table + RLE/bit-packed indices (dict pages,
             writer.py:481-517).
4 DELTA      zigzag first differences; the body is a FOR_BP blob, or
             a FOR64 blob when a block of deltas needs > 32 bits.
5 PFOR       patched FOR: per-miniblock width + exception patches.
6 DICT2      frequency-ranked dict; decode-only (no input picks it;
             older shards and the golden corpus hold its bytes).
7 FOR64      FOR_BP's block layout with 64-bit miniblock ranges: a
             block of width <= 32 is bit-packed as in FOR_BP, a wider
             one stores ceil(w/8)-byte deltas. Where FOR_BP succeeds,
             the two blobs differ only in the codec byte.
8 ZRANK      frequency-ranked dict + zstd over the rank codes.
9 ZRANKS     ZRANK over a plan-shared rank table + embedded extras;
             both write one code stream [width u8][varint zlen][zstd].

FOR_BP, FOR64, PFOR and DELTA's body share one miniblock writer and
reader (``_frames``, ``_pack_frames``, ``_unpack_frames``).

``INT_CANDIDATES``: the codecs the planner and the per-shard auto path
trial, in encode-speed order. ``int_sizes`` gives each one's exact blob
size. FOR_BP, FOR64, PFOR, DELTA and RLE_INT are split into a layout
step (frames, block widths, PFOR's exception counts, run geometry) and
a pack step; they, PLAIN and DICT_INT are sized from the layout alone,
so a trial builds only ZRANK's blob.

Wire format: [u8 codec_id][u8 dtype_id][varint n][codec-specific body].
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .bitpack import (
    IN_PLACE_SHARE,
    bit_width,
    bits_at,
    pack_bits,
    unpack_bits,
    unpack_bits_add,
)
from .rle import _scatter_ragged, long_runs, rle_decode, rle_encode, rle_size
from .tables import parse_shared
from .varint import decode_uvarint, encode_uvarint, zigzag_decode, zigzag_encode

__all__ = [
    "encode_plain_int",
    "encode_for_bp",
    "encode_rle_int",
    "encode_dict_int",
    "decode_any_int",
    "INT_CANDIDATES",
    "INT_ENCODERS",
    "int_sizes",
]

MINIBLOCK = 1024  # values per FOR miniblock; 1024*w bits is byte-aligned

_C_PLAIN, _C_FOR, _C_RLE, _C_DICT, _C_DELTA, _C_PFOR, _C_DICT2, _C_FOR64 = (
    0, 1, 2, 3, 4, 5, 6, 7,
)
_C_ZRANK = 8
_C_ZRANKS = 9  # zrank with a plan-shared rank table (+ embedded extras)

_DTYPES = {
    1: np.dtype("<i4"),
    2: np.dtype("<i8"),
    3: np.dtype("<u4"),
    4: np.dtype("<u8"),
    5: np.dtype("<i2"),
    6: np.dtype("<u2"),
    7: np.dtype("<i1"),
    8: np.dtype("<u1"),
}
_DTYPE_IDS = {v: k for k, v in _DTYPES.items()}


def _dtype_id(arr: np.ndarray) -> int:
    dt = arr.dtype.newbyteorder("<")
    if dt not in _DTYPE_IDS:
        raise TypeError(f"unsupported int dtype {arr.dtype}")
    return _DTYPE_IDS[dt]


def _header(codec: int, arr: np.ndarray) -> bytes:
    return bytes([codec, _dtype_id(arr)]) + encode_uvarint(arr.size)


def _le_bytes(a: np.ndarray) -> bytes:
    le = a.astype(a.dtype.newbyteorder("<"), copy=False)
    return np.ascontiguousarray(le).tobytes()


def encode_plain_int(values: np.ndarray) -> bytes:
    v = np.ascontiguousarray(values)
    return _header(_C_PLAIN, v) + _le_bytes(v)


def _vec_bit_widths(maxd: np.ndarray) -> np.ndarray:
    """Vectorized bit_length for uint32 values (exact via frexp: float64
    is exact below 2**53)."""
    return np.frexp(maxd.astype(np.float64))[1].astype(np.uint8)


def _vec_bit_widths_est(d: np.ndarray) -> np.ndarray:
    """Fast per-value bit widths via the float32 exponent field (~3x
    faster than exact frexp on float64). Rounding to float32 can only
    round a value UP across a power-of-two boundary, so the result may
    OVERestimate by 1 at (2^k - epsilon) values and never
    underestimates — safe wherever widths classify values as "fits in
    w bits or becomes an exception" (PFOR): a non-exception value with
    est <= w truly fits, an overestimated value merely becomes an
    unnecessary exception."""
    f = d.astype(np.float32)
    w = (f.view(np.uint32) >> np.uint32(23)).astype(np.int16) - 126
    return np.maximum(w, 0).astype(np.uint8)


# Miniblock layout shared by FOR_BP, FOR64, PFOR (and DELTA's body):
# per-block headers, then the block payloads in block order. A block
# of width w <= 32 holds 1024*w LSB-first packed bits; a wider block
# holds ceil(w/8)-byte little-endian deltas.
_HDR = np.dtype([("min", "<i8"), ("w", "u1")])
_PFOR_HDR = np.dtype(_HDR.descr + [("ne", "<u2")])
_PATCH = np.dtype([("p", "<u2"), ("v", "<u4")])  # PFOR exception


def _no_uint64(v: np.ndarray, name: str) -> None:
    if v.dtype.itemsize == 8 and v.dtype.kind == "u":
        raise ValueError(f"{name}: uint64 unsupported (min may not fit i64)")


def _frames(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pad ``v`` to whole miniblocks with its last value; return the
    per-block minimums and the (nb, MINIBLOCK) deltas from them: uint32
    for dtypes of 4 bytes or fewer (the int32 wrap-around subtraction
    viewed as uint32 is the exact mod-2**32 delta), else uint64."""
    nb = -(-v.size // MINIBLOCK)
    pad = nb * MINIBLOCK - v.size
    if pad:
        v = np.concatenate([v, np.full(pad, v[-1], dtype=v.dtype)])
    m = v.reshape(nb, MINIBLOCK)
    mins = m.min(axis=1)
    sdt, udt = (
        (np.int32, np.uint32) if v.dtype.itemsize <= 4 else (np.int64, np.uint64)
    )
    d = m.astype(sdt, copy=False) - mins.astype(sdt)[:, None]
    return mins, d.view(udt)


def _block_widths(d: np.ndarray) -> np.ndarray:
    """Exact bit width of each block's largest delta (the float64
    frexp trick is exact below 2**53; larger maxima are split 32/32)."""
    mx = d.max(axis=1)
    if d.itemsize == 4 or int(mx.max()) < 1 << 53:
        return _vec_bit_widths(mx)
    hi = (mx >> np.uint64(32)).astype(np.uint32)
    return np.where(
        hi != 0, _vec_bit_widths(hi) + 32, _vec_bit_widths(mx.astype(np.uint32))
    )


# payload bytes of one block by width: a table lookup, several µs
# cheaper per call than np.where on the few blocks of a small array
_BLOCK_BYTES = np.array(
    [
        w * MINIBLOCK // 8 if w <= 32 else (w + 7) // 8 * MINIBLOCK
        for w in range(65)
    ],
    dtype=np.int64,
)


def _byte_pack(d: np.ndarray, w: int) -> np.ndarray:
    """uint64 deltas as ceil(w/8)-byte little-endian values (blocks
    wider than 32 bits)."""
    return np.ascontiguousarray(
        d.reshape(-1, 1).view(np.uint8)[:, : (w + 7) // 8]
    ).reshape(-1)


def _pack_frames(d: np.ndarray, widths: np.ndarray, tails=None) -> bytes:
    """Block payloads of deltas ``d`` at ``widths``, in block order.
    ``tails`` = (bytes, per-block lengths): block i's slice of the bytes
    follows its deltas (PFOR's patches)."""
    uw = np.unique(widths)
    if tails is None and uw.size == 1:  # one width: one pack
        w = int(uw[0])
        return pack_bits(d.ravel(), w) if w <= 32 else _byte_pack(d, w).tobytes()
    sizes = _BLOCK_BYTES[widths]
    lens = sizes if tails is None else sizes + tails[1]
    ends = np.cumsum(lens)
    starts = ends - lens
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    for w, bs in zip(uw.tolist(), _BLOCK_BYTES[uw].tolist()):
        if w == 0:
            continue
        rows = np.flatnonzero(widths == w)
        if w <= 32:
            packed = np.frombuffer(pack_bits(d[rows].ravel(), w), np.uint8)
        else:
            packed = _byte_pack(d[rows], w)
        _scatter_ragged(
            out,
            starts[rows],
            packed,
            np.arange(rows.size, dtype=np.int64) * bs,
            np.full(rows.size, bs, dtype=np.int64),
        )
    if tails is not None:
        tail, tail_lens = tails
        _scatter_ragged(
            out, starts + sizes, tail, np.cumsum(tail_lens) - tail_lens, tail_lens
        )
    return out.tobytes()


def _unpack_frames(payload: np.ndarray, widths, out, tail_lens=None):
    """Inverse of ``_pack_frames``: add the deltas of the blocks laid
    out from ``payload[0]`` into ``out`` (nb, MINIBLOCK) int64, preloaded
    with the block minimums (wraps mod 2**64). ``tail_lens[i]`` bytes
    after block i are skipped (PFOR's patches); the offsets where the
    tails start are returned."""
    nb = widths.size
    w0 = int(widths[0])
    if tail_lens is None and w0 <= 32 and (widths == w0).all():
        # one width, blocks back to back: single fused unpack+add sweep
        unpack_bits_add(payload, w0, nb * MINIBLOCK, out.ravel())
        return
    lens = _BLOCK_BYTES[widths]
    if tail_lens is not None:
        lens = lens + tail_lens
    ends = np.cumsum(lens)
    starts = ends - lens
    uw = np.unique(widths)
    for w, bs in zip(uw.tolist(), _BLOCK_BYTES[uw].tolist()):
        if w == 0:
            continue
        rows = np.flatnonzero(widths == w)
        chunk = np.empty(rows.size * bs, dtype=np.uint8)
        _scatter_ragged(
            chunk,
            np.arange(rows.size, dtype=np.int64) * bs,
            payload,
            starts[rows],
            np.full(rows.size, bs, dtype=np.int64),
        )
        if w <= 32:
            vals = unpack_bits(chunk, w, rows.size * MINIBLOCK)
        else:
            full = np.zeros((rows.size * MINIBLOCK, 8), dtype=np.uint8)
            full[:, : bs // MINIBLOCK] = chunk.reshape(-1, bs // MINIBLOCK)
            vals = full.reshape(-1).view("<i8")
        sel = slice(None) if rows.size == nb else rows
        out[sel] += vals.reshape(rows.size, MINIBLOCK)
    return None if tail_lens is None else ends - tail_lens


def _for_layout(v: np.ndarray, codec: int, widen: bool = False):
    """(codec, mins, deltas, widths) of a FOR_BP or FOR64 blob of ``v``
    (None for the arrays when ``v`` is empty). A block wider than 32
    bits makes FOR_BP raise ValueError or, with ``widen``, turns the
    blob into FOR64."""
    _no_uint64(v, "FOR_BP" if codec == _C_FOR else "FOR64")
    if v.size == 0:
        return codec, None, None, None
    mins, d = _frames(v)
    widths = _block_widths(d)
    # uint32 deltas always fit FOR_BP's 32 bits
    if codec == _C_FOR and d.itemsize == 8 and int(widths.max()) > 32:
        if not widen:
            raise ValueError("FOR_BP: miniblock range exceeds 32 bits")
        codec = _C_FOR64
    return codec, mins, d, widths


def _for_size(v: np.ndarray, widths) -> int:
    """Bytes of a FOR_BP/FOR64 blob of ``v`` with block ``widths``."""
    size = len(_header(_C_FOR, v))
    if widths is None:
        return size
    return size + widths.size * _HDR.itemsize + int(_BLOCK_BYTES[widths].sum())


def _encode_for(v: np.ndarray, codec: int, widen: bool = False) -> bytes:
    """FOR_BP or FOR64 blob of ``v``; both write the same bytes after
    the codec id (``_for_layout``)."""
    v = np.ascontiguousarray(v)
    codec, mins, d, widths = _for_layout(v, codec, widen)
    if mins is None:
        return _header(codec, v)
    hdr = np.zeros(mins.size, dtype=_HDR)
    hdr["min"] = mins
    hdr["w"] = widths
    return _header(codec, v) + hdr.tobytes() + _pack_frames(d, widths)


def encode_for_bp(values: np.ndarray) -> bytes:
    """Frame-of-reference + bit-pack. Raises ValueError when any
    miniblock's value range needs > 32 bits (caller falls back)."""
    return _encode_for(values, _C_FOR)


def encode_for_bp64(values: np.ndarray) -> bytes:
    """Frame-of-reference for FULL 64-bit ranges (timestamp columns
    whose shard range exceeds the 32-bit FOR/PFOR miniblock limit).
    Blocks of width <= 32 bit-pack as in FOR_BP; wider blocks store
    ceil(w/8)-byte little-endian truncated deltas (byte-aligned "byte
    packing": <= 7 wasted bits/value, fully vectorized)."""
    return _encode_for(values, _C_FOR64)


def _rle_frame(v: np.ndarray) -> tuple[int, int]:
    """RLE_INT's (minimum, bit width) of non-empty ``v`` read as int64;
    the width is exact even where the int64 subtraction wraps."""
    v64 = v.astype(np.int64, copy=False) if v.dtype == np.uint64 else v
    mn = int(v64.min())
    mx = int(v64.max()) - mn
    if mx >> 32:
        raise ValueError("RLE_INT: value range exceeds 32 bits")
    return mn, bit_width(mx)


def encode_rle_int(values: np.ndarray) -> bytes:
    """min-subtract + Parquet RLE/bit-pack hybrid over the deltas."""
    v = np.ascontiguousarray(values)
    head = _header(_C_RLE, v)
    if v.size == 0:
        return head
    mn, w = _rle_frame(v)
    deltas = (v.astype(np.int64, copy=False) - mn).astype(np.uint32)
    body = rle_encode(deltas, w)
    return head + mn.to_bytes(8, "little", signed=True) + bytes([w]) + body


def encode_dict_int(values: np.ndarray) -> bytes:
    """Hash-based dictionary (pyarrow dictionary_encode — first-
    occurrence order, deterministic) + RLE/bit-packed indices."""
    import pyarrow as pa
    import pyarrow.compute as pc

    v = np.ascontiguousarray(values)
    head = _header(_C_DICT, v)
    if v.size == 0:
        return head
    denc = pc.dictionary_encode(pa.array(v))
    table = denc.dictionary.to_numpy(zero_copy_only=False).astype(
        v.dtype, copy=False
    )
    idx = denc.indices.to_numpy(zero_copy_only=False).astype(np.uint32)
    w = bit_width(table.size - 1)
    body = rle_encode(idx, w)
    tbytes = _le_bytes(table)
    return head + encode_uvarint(table.size) + bytes([w]) + tbytes + body


def _pfor_layout(v: np.ndarray):
    """(mins, deltas, per-value width estimates, block widths, block
    exception counts) of a PFOR blob of non-empty ``v``: per block, the
    width minimizing packed bits + 6 bytes per exception."""
    mins, d32 = _frames(v)
    nb = mins.size
    if d32.dtype == np.uint64:
        if int(d32.max()) >> 32:
            raise ValueError("PFOR: miniblock range exceeds 32 bits")
        d32 = d32.astype(np.uint32)
    vwidths = _vec_bit_widths_est(d32)  # (nb, MINIBLOCK), may overestimate
    # per-block width histogram via bincount on a combined index
    # (np.add.at is ~10x slower for this shape)
    comb = vwidths.reshape(-1).astype(np.int64)
    comb += np.repeat(np.arange(nb, dtype=np.int64) * 34, MINIBLOCK)
    hist = np.bincount(comb, minlength=nb * 34).reshape(nb, 34).astype(
        np.int32
    )
    n_above = np.cumsum(hist[:, ::-1], axis=1)[:, ::-1]  # >= w
    # exceptions for width w are values with vwidth > w: n_above[:, w+1]
    exc_counts = np.concatenate(
        [n_above[:, 1:], np.zeros((nb, 1), np.int32)], axis=1
    )  # index w -> count(width > w)
    ws = np.arange(34)
    cost = MINIBLOCK * ws // 8 + exc_counts * 6
    wstar = cost[:, :33].argmin(axis=1).astype(np.uint8)
    nexc = exc_counts[np.arange(nb), wstar].astype(np.uint16)
    return mins, d32, vwidths, wstar, nexc


def encode_pfor(values: np.ndarray) -> bytes:
    """Patched frame-of-reference (PFOR, Zukowski et al. 2006 public
    design): per 1024-value miniblock, pick the bit width minimizing
    packed-bits + exception cost; values wider than the chosen width
    are stored as (position u16, value u32) patches. Wins on skewed
    distributions (zipf dict indices) where a naive FOR width is set
    by a handful of outliers per block.

    Layout: header [min i64][w u8][n_exc u16] per block, then per block
    payload [packed 1024*w bits][n_exc * (u16 pos + u32 value)].
    """
    v = np.ascontiguousarray(values)
    _no_uint64(v, "PFOR")
    head = _header(_C_PFOR, v)
    if v.size == 0:
        return head
    mins, d32, vwidths, wstar, nexc = _pfor_layout(v)
    hdr = np.zeros(mins.size, dtype=_PFOR_HDR)
    hdr["min"] = mins
    hdr["w"] = wstar
    hdr["ne"] = nexc
    tails = None
    if nexc.any():
        # main stream: exception values replaced by 0 (patched at
        # decode); patches in block order (np.nonzero is row-major)
        exc_mask = vwidths > wstar[:, None]
        _, exc_cols = np.nonzero(exc_mask)
        exc = np.zeros(exc_cols.size, dtype=_PATCH)
        exc["p"] = exc_cols
        exc["v"] = d32[exc_mask]
        tails = (exc.view(np.uint8), nexc.astype(np.int64) * 6)
        d32 = np.where(exc_mask, 0, d32)
    return head + hdr.tobytes() + _pack_frames(d32, wstar, tails)


def _delta_body(v: np.ndarray) -> np.ndarray:
    """DELTA's FOR input: zigzag first differences of non-empty ``v``."""
    d = np.diff(v.astype(np.int64, copy=False))
    return zigzag_encode(d).astype(np.int64)


def encode_delta(values: np.ndarray) -> bytes:
    """Delta coding for (near-)sorted / smooth sequences: zigzag of
    consecutive differences, then a FOR_BP body (FOR64 when a block of
    zigzag deltas needs more than 32 bits). Reference analog:
    DELTA_BINARY_PACKED, which the reference only decodes
    (cencoding.pyx:213-242); this is the encode side the reference
    lacks. Wins on timestamp and
    monotonically-assigned id columns whose ABSOLUTE range exceeds the
    32-bit FOR miniblock limit but whose deltas are small."""
    v = np.ascontiguousarray(values)
    _no_uint64(v, "DELTA")
    head = _header(_C_DELTA, v)
    if v.size == 0:
        return head
    first = int(v[0]).to_bytes(8, "little", signed=True)
    return head + first + _encode_for(_delta_body(v), _C_FOR, widen=True)


def _write_codes(ranks: np.ndarray, n_codes: int) -> bytes:
    """ZRANK/ZRANKS code stream: [width u8][varint zlen][zstd codes],
    each rank a u16 (u32 above 64k codes)."""
    import pyarrow as pa

    width = 2 if n_codes <= 65536 else 4
    codes = ranks.astype(np.uint16 if width == 2 else np.uint32, copy=False)
    z = pa.Codec("zstd", compression_level=3).compress(codes.tobytes(), asbytes=True)
    return bytes([width]) + encode_uvarint(len(z)) + z


def _read_codes(
    buf, pos: int, n: int, stop: int | None = None, stats: dict | None = None
) -> np.ndarray:
    """The code stream's first ``stop`` codes (default all ``n``): a
    prefix is decompressed as a stream, so nothing past it is. With
    ``stats``, its ``"codes"`` gets (bytes decompressed, bytes of the
    whole decompressed stream, bytes stored)."""
    import pyarrow as pa

    width = buf[pos]
    zlen, pos = decode_uvarint(buf, pos + 1)
    dt = np.uint16 if width == 2 else np.uint32
    if stats is not None:
        stats["codes"] = (min(n if stop is None else stop, n) * width, n * width, zlen)
    if stop is not None and stop < n:
        z = pa.BufferReader(pa.py_buffer(buf)[pos : pos + zlen])
        raw = pa.CompressedInputStream(z, "zstd").read(stop * width)
        return np.frombuffer(raw, dtype=dt)
    raw = pa.Codec("zstd").decompress(
        buf[pos : pos + zlen], decompressed_size=n * width, asbytes=True
    )
    return np.frombuffer(raw, dtype=dt)


def encode_zrank_int(values: np.ndarray) -> bytes:
    """Frequency-ranked dictionary + zstd entropy stage over the rank
    codes: the most frequent value gets code 0, the code stream is
    byte-serialized (u16, u32 above 64k distinct) and zstd-compressed.
    Where a bit-packed dictionary spends a fixed width per code (~=
    log2(distinct) bits/value), the entropy stage reaches the stream's
    ACTUAL zeroth-order entropy plus context repeats — on zipf-like
    token streams (H ~ 4.5 bits vs 12-bit packed codes) this measures
    ~2.9x smaller than a bit-packed frequency-ranked dict. Decode is
    one zstd decompress + one vectorized table gather."""
    v = np.ascontiguousarray(values)
    head = _header(_C_ZRANK, v)
    if v.size == 0:
        return head
    lo = v.min()
    vrange = int(v.max()) - int(lo)
    if vrange <= (1 << 22):
        # bounded domain (token vocabularies): O(n) bincount + O(vocab)
        # rank instead of np.unique's O(n log n) sort — ~4x faster on
        # 10M-value shards
        # offsets taken in v's dtype and read unsigned: exact where the
        # subtraction wraps (uint64 above 2**63, a signed range past the
        # dtype's maximum); adding lo back wraps back the same way
        dense = (v - lo).view(f"u{v.itemsize}").astype(np.intp)
        counts = np.bincount(dense, minlength=vrange + 1)
        present = np.flatnonzero(counts)
        # deterministic ranking: by count desc, value asc on ties
        order = np.lexsort((present, -counts[present]))
        rank_dense = np.zeros(vrange + 1, dtype=np.int64)
        rank_dense[present[order]] = np.arange(present.size)
        ranks = rank_dense[dense]
        table = present[order].astype(v.dtype) + lo
    else:
        u, inv, counts = np.unique(v, return_inverse=True, return_counts=True)
        # deterministic ranking: by count desc, value asc on ties
        order = np.lexsort((u, -counts))
        rank = np.empty(u.size, dtype=np.int64)
        rank[order] = np.arange(u.size)
        ranks = rank[inv]
        table = u[order]
    return (
        head
        + encode_uvarint(table.size)
        + _le_bytes(table)
        + _write_codes(ranks, table.size)
    )


def train_rank_table(values: np.ndarray, cap: int = 1 << 20) -> np.ndarray:
    """Frequency-rank table for zrank-shared: distinct values ordered by
    (count desc, value asc), truncated to ``cap`` entries. Trained once
    at plan time on the stratified sample and broadcast to encoder
    actors (SURVEY.md ST1) — per-shard encodes then reference it by
    hash instead of embedding a fresh ~4B-per-distinct table in every
    shard, and code assignment is stable across the whole corpus."""
    u, counts = np.unique(values, return_counts=True)
    order = np.lexsort((u, -counts))
    return u[order][:cap]


class RankTable:
    """Shared value->rank lookup for zrank-shared encode.

    Holds the rank-ordered value table plus a prebuilt inverse lookup:
    a dense LUT when the value range is bounded (token vocabularies),
    else sorted-array binary search. Built once per encoder actor and
    reused across shards."""

    def __init__(self, table: np.ndarray):
        self.table = np.ascontiguousarray(table)
        self._lut = None
        self._sorted = None
        self._sorted_ranks = None
        if self.table.size:
            t64 = self.table.astype(np.int64)
            tmin, tmax = int(t64.min()), int(t64.max())
            if tmax - tmin <= (1 << 22):
                lut = np.full(tmax - tmin + 1, -1, dtype=np.int64)
                lut[t64 - tmin] = np.arange(self.table.size)
                self._lut = lut
                self._lmin = tmin
            else:
                order = np.argsort(t64, kind="stable")
                self._sorted = t64[order]
                self._sorted_ranks = order

    def lookup(self, v: np.ndarray) -> np.ndarray:
        """Ranks as int64; -1 where the value is not in the table."""
        if not self.table.size:
            return np.full(v.size, -1, dtype=np.int64)
        if self._lut is not None:
            # single upcasting subtract (no separate astype pass)
            dv = v - np.int64(self._lmin)
            if dv.size and 0 <= int(dv.min()) and int(dv.max()) < self._lut.size:
                # fast path — every value inside the LUT window (the
                # norm: the table is trained on the same corpus), one
                # gather, no mask/scatter passes. LUT misses inside
                # the window still return -1 from the sentinel.
                return self._lut[dv]
            out = np.full(dv.size, -1, dtype=np.int64)
            ok = (dv >= 0) & (dv < self._lut.size)
            out[ok] = self._lut[dv[ok]]
            return out
        v64 = v.astype(np.int64, copy=False)
        out = np.full(v64.size, -1, dtype=np.int64)
        idx = np.searchsorted(self._sorted, v64)
        idx_c = np.minimum(idx, self._sorted.size - 1)
        hit = self._sorted[idx_c] == v64
        out[hit] = self._sorted_ranks[idx_c[hit]]
        return out

    def serialize(self) -> bytes:
        t = self.table
        return bytes([_dtype_id(t)]) + encode_uvarint(t.size) + _le_bytes(t)

    @classmethod
    def deserialize(cls, buf: bytes) -> "RankTable":
        return cls(deserialize_rank_values(buf))

    def table_hash(self) -> str:
        import hashlib

        return hashlib.md5(self.serialize()).hexdigest()


def deserialize_rank_values(buf: bytes) -> np.ndarray:
    dt = _DTYPES[buf[0]]
    n, pos = decode_uvarint(buf, 1)
    return np.frombuffer(buf, dtype=dt, count=n, offset=pos)


def zranks_extras_count(blob: bytes) -> int:
    """Number of embedded-extras values in a zrank-shared body — the
    per-shard vocabulary-drift signal (values the plan's rank table
    never saw). Recorded in shard headers so an append job over a
    drifting corpus can decide when to re-train the shared table."""
    if not blob or blob[0] != _C_ZRANKS:
        return 0
    n, pos = decode_uvarint(blob, 2)
    if n == 0:
        return 0
    pos += 16  # table hash
    nx, _ = decode_uvarint(blob, pos)
    return nx


def encode_zrank_shared(values: np.ndarray, rt: RankTable, thash: str) -> bytes:
    """zrank against a plan-shared rank table: codes reference the
    shared table first; values the sample never saw get codes >=
    len(shared) into an embedded extras list (the dict_str escape
    pattern, strcodec.py:148-178). Body: [md5 16B][varint n_extras]
    [extras LE][width u8][varint zlen][zstd codes]."""
    v = np.ascontiguousarray(values)
    head = _header(_C_ZRANKS, v)
    if v.size == 0:
        return head
    ranks = rt.lookup(v)
    n_shared = int(rt.table.size)
    if int(ranks.min()) < 0:  # single reduction; misses are rare
        miss = ranks < 0
        extras = np.unique(v[miss])
        ranks[miss] = n_shared + np.searchsorted(extras, v[miss])
    else:
        extras = np.empty(0, dtype=v.dtype)
    return (
        head
        + bytes.fromhex(thash)
        + encode_uvarint(extras.size)
        + _le_bytes(extras)
        + _write_codes(ranks, n_shared + extras.size)
    )


class _Layout:
    """The layout facts of one array that the candidate sizes share,
    each computed on first use: the FOR frames (FOR_BP, FOR64), the
    long runs (RLE_INT, DICT_INT) and the distinct count (DICT_INT, and
    ZRANK's lower bound)."""

    def __init__(self, v: np.ndarray):
        self.v = v
        self.head = len(_header(_C_PLAIN, v))  # TypeError: no int dtype

    @cached_property
    def for_layout(self):
        return _for_layout(self.v, _C_FOR, widen=True)

    @cached_property
    def runs(self):
        return long_runs(self.v)

    @cached_property
    def distinct(self) -> int:
        return np.unique(self.v).size


def _size_for_bp(L: _Layout) -> int:
    codec, _, _, widths = L.for_layout
    if codec != _C_FOR:
        raise ValueError("FOR_BP: miniblock range exceeds 32 bits")
    return _for_size(L.v, widths)


def _size_for64(L: _Layout) -> int:
    return _for_size(L.v, L.for_layout[3])


def _size_delta(L: _Layout) -> int:
    v = L.v
    _no_uint64(v, "DELTA")
    if v.size == 0:
        return L.head
    zz = _delta_body(v)
    return L.head + 8 + _for_size(zz, _for_layout(zz, _C_FOR, widen=True)[3])


def _size_pfor(L: _Layout) -> int:
    v = L.v
    _no_uint64(v, "PFOR")
    if v.size == 0:
        return L.head
    _, _, _, wstar, nexc = _pfor_layout(v)
    return (
        L.head
        + wstar.size * _PFOR_HDR.itemsize
        + int(_BLOCK_BYTES[wstar].sum())
        + 6 * int(nexc.sum(dtype=np.int64))
    )


def _size_rle(L: _Layout) -> int:
    v = L.v
    if v.size == 0:
        return L.head
    return L.head + 9 + rle_size(L.runs, v.size, _rle_frame(v)[1])


def _size_dict(L: _Layout) -> int:
    v = L.v
    if v.size == 0:
        return L.head
    n_distinct = L.distinct
    return (
        L.head
        + len(encode_uvarint(n_distinct))
        + 1
        + n_distinct * v.itemsize
        + rle_size(L.runs, v.size, bit_width(n_distinct - 1))
    )


# blob sizes from layouts alone; every other candidate is sized by
# encoding it
_SIZES = {
    "plain": lambda L: L.head + L.v.nbytes,
    "for_bp": _size_for_bp,
    "for64": _size_for64,
    "delta": _size_delta,
    "pfor": _size_pfor,
    "rle": _size_rle,
    "dict": _size_dict,
}

def _zrank_floor(L: _Layout) -> int:
    """A lower bound on ZRANK's size: it ships its whole rank table,
    then a width byte and at least one length byte."""
    if L.v.size == 0:
        return L.head
    n = L.distinct
    return L.head + len(encode_uvarint(n)) + n * L.v.itemsize + 2


def int_sizes(
    values: np.ndarray, names, prune: float | None = None
) -> dict[str, int | None]:
    """``len(INT_ENCODERS[name](values))`` for each of ``names``, in
    their order, leaving out a name whose encoder raises ValueError.
    The sized codecs (``_SIZES``) are sized from their layouts with no
    blob built, and first. With ``prune``, zrank maps to None and is
    not encoded when its floor exceeds ``prune`` times a size already
    measured: under a pick that takes the first name within ``prune``
    of the smallest size, it can then neither be picked nor change the
    pick."""
    L = _Layout(np.ascontiguousarray(values))
    names = list(names)
    out: dict[str, int | None] = {}
    for name in sorted(names, key=lambda n: n not in _SIZES):
        try:
            if name in _SIZES:
                out[name] = _SIZES[name](L)
                continue
            if prune is not None and name == "zrank" and out:
                if _zrank_floor(L) > min(out.values()) * prune:
                    out[name] = None
                    continue
            out[name] = len(INT_ENCODERS[name](L.v))
        except ValueError:
            continue
    return {n: out[n] for n in names if n in out}


_AUTO_SAMPLE = 1 << 18  # values used for codec ranking trials


def rank_int_codecs(values: np.ndarray, names) -> list[str]:
    """Rank codec names by encoded size of a bounded head sample
    (deterministic). Callers encode the full array with the first
    ranked codec that succeeds — O(sample) selection cost instead of
    O(n * candidates) full trial-encodes."""
    s = values[:_AUTO_SAMPLE] if values.size > _AUTO_SAMPLE else values
    sizes = int_sizes(s, names)
    return [n for _, n in sorted((b, n) for n, b in sizes.items())]


def _rank_values(buf: bytes, dt: np.dtype) -> np.ndarray:
    return deserialize_rank_values(buf).astype(dt, copy=False)


def _decode_frames(hdr: np.ndarray, payload: np.ndarray, pfor: bool) -> np.ndarray:
    """The (blocks, MINIBLOCK) int64 values of FOR_BP/FOR64/PFOR blocks
    with headers ``hdr`` whose payloads (PFOR patches included) lie
    back to back from ``payload[0]``."""
    nb = hdr.size
    out = np.empty((nb, MINIBLOCK), dtype=np.int64)
    out[:] = hdr["min"][:, None]
    exc_lens = hdr["ne"].astype(np.int64) * 6 if pfor else None
    if exc_lens is None or not exc_lens.any():
        _unpack_frames(payload, hdr["w"], out)
        return out
    exc_starts = _unpack_frames(payload, hdr["w"], out, exc_lens)
    # PFOR patches: one ragged gather of all patch records, then one
    # flat add into the zeros the main stream holds there (a per-block
    # Python loop here cost ~30% of token-heavy decode at ~10k
    # miniblocks per shard)
    ebuf = np.empty(int(exc_lens.sum()), dtype=np.uint8)
    _scatter_ragged(
        ebuf, np.cumsum(exc_lens) - exc_lens, payload, exc_starts, exc_lens
    )
    exc = ebuf.view(_PATCH)
    rows = np.repeat(np.arange(nb, dtype=np.int64), exc_lens // 6)
    out.reshape(-1)[rows * MINIBLOCK + exc["p"]] += exc["v"]
    return out


def _frames_take(
    hdr: np.ndarray, payload: np.ndarray, pfor: bool, take: np.ndarray
) -> np.ndarray:
    """``_decode_frames(hdr, payload, pfor).ravel()[take]`` for blocks
    of at most 32 bits, each value read where it lies (``bits_at``)
    plus its PFOR patch, found by position among the patch records of
    the blocks ``take`` touches."""
    widths = hdr["w"]
    lens = _BLOCK_BYTES[widths]
    if pfor:
        ne = hdr["ne"].astype(np.int64)
        lens = lens + ne * 6
    starts = np.cumsum(lens) - lens
    blk = take // MINIBLOCK
    w = widths[blk]
    d = bits_at(payload, w, starts[blk] * 8 + take % MINIBLOCK * w)
    out = hdr["min"][blk] + d
    # a patched value holds 0 in the bit-packed stream
    cand = np.flatnonzero((d == 0) & (ne[blk] > 0)) if pfor else ()
    if len(cand):
        pb = np.unique(blk[cand])
        plen = ne[pb] * 6
        ebuf = np.empty(int(plen.sum()), dtype=np.uint8)
        _scatter_ragged(
            ebuf, np.cumsum(plen) - plen, payload,
            starts[pb] + _BLOCK_BYTES[widths[pb]], plen,
        )
        exc = ebuf.view(_PATCH)
        # patch positions ascend within a block, blocks ascend
        key = np.repeat(pb, ne[pb]) * MINIBLOCK + exc["p"]
        r = np.minimum(np.searchsorted(key, take[cand]), key.size - 1)
        hit = key[r] == take[cand]
        out[cand[hit]] += exc["v"][r[hit]]
    return out


def decode_any_int(
    buf: bytes,
    tables: dict[str, bytes] | None = None,
    take: np.ndarray | None = None,
    stats: dict | None = None,
) -> np.ndarray:
    """Decode any int blob. ``take`` (value positions) returns only
    those values, decoding no more than it needs. A few of them
    (``IN_PLACE_SHARE``) are read where they lie: by FOR_BP, FOR64 and
    PFOR when no block is wider than 32 bits, and by RLE_INT, DICT_INT
    and DICT2 after a walk of their runs up to the last one
    (``rle_decode(take=)``); more decode whole and then take. ZRANK
    and ZRANKS decompress their code stream up to the last one and
    gather from the shared table and the extras in place. PLAIN reads
    them; DELTA decodes whole and then takes.
    ``stats`` as for ``_read_codes``, filled by ZRANK and ZRANKS."""
    codec = buf[0]
    dt = _DTYPES[buf[1]]
    n, pos = decode_uvarint(buf, 2)
    if n == 0 or (take is not None and not len(take)):
        return np.empty(0, dtype=dt)
    if take is not None:
        take = np.asarray(take, dtype=np.int64)
    if codec == _C_PLAIN:
        v = np.frombuffer(buf, dtype=dt, count=n, offset=pos)
        return v.copy() if take is None else v[take]
    if codec in (_C_FOR, _C_FOR64, _C_PFOR):
        pfor = codec == _C_PFOR
        nb = -(-n // MINIBLOCK)
        hdr = np.frombuffer(
            buf, dtype=_PFOR_HDR if pfor else _HDR, count=nb, offset=pos
        )
        payload = np.frombuffer(buf, dtype=np.uint8, offset=pos + hdr.nbytes)
        if take is not None and take.size * IN_PLACE_SHARE <= n and (
            hdr["w"].max() <= 32
        ):
            return _frames_take(hdr, payload, pfor, take).astype(dt)
        v = _decode_frames(hdr, payload, pfor).ravel()[:n].astype(dt)
        return v if take is None else v[take]
    if codec in (_C_ZRANK, _C_ZRANKS):
        # [varint count][values LE] (ZRANK's table, ZRANKS's extras after
        # the shared table's md5), then the code stream
        shared = None
        if codec == _C_ZRANKS:
            thash = buf[pos : pos + 16].hex()
            shared = parse_shared(tables, thash, "rank", _rank_values, dt)
            pos += 16
        tsize, pos = decode_uvarint(buf, pos)
        table = np.frombuffer(buf, dtype=dt, count=tsize, offset=pos)
        if take is None:
            codes = _read_codes(buf, pos + table.nbytes, n, stats=stats)
            if shared is not None:
                table = np.concatenate([shared, table]) if tsize else shared
            return table[codes]
        codes = _read_codes(
            buf, pos + table.nbytes, n, int(take.max()) + 1, stats
        )[take]
        if shared is None:
            return table[codes]
        out = np.empty(codes.size, dtype=dt)
        extra = codes >= shared.size
        out[~extra] = shared[codes[~extra]]
        out[extra] = table[codes[extra] - shared.size]
        return out
    if codec == _C_RLE:
        mn = int.from_bytes(buf[pos : pos + 8], "little", signed=True)
        w = buf[pos + 8]
        deltas = rle_decode(buf[pos + 9 :], w, n, take)
        return (deltas.astype(np.int64) + mn).astype(dt)
    if codec == _C_DICT:
        tsize, pos = decode_uvarint(buf, pos)
        w = buf[pos]
        pos += 1
        table = np.frombuffer(buf, dtype=dt, count=tsize, offset=pos)
        pos += table.nbytes
        return table[rle_decode(buf[pos:], w, n, take)]
    if codec == _C_DICT2:  # decode-only (module docstring)
        tsize, pos = decode_uvarint(buf, pos)
        table = np.frombuffer(buf, dtype=dt, count=tsize, offset=pos)
        pos += table.nbytes
        blen, pos = decode_uvarint(buf, pos)
        idx = decode_any_int(bytes(buf[pos : pos + blen]), take=take)
        return table[idx]
    if codec == _C_DELTA:
        if take is not None:
            return decode_any_int(buf)[take]
        first = int.from_bytes(buf[pos : pos + 8], "little", signed=True)
        zz = decode_any_int(buf[pos + 8 :]).astype(np.uint64)
        deltas = zigzag_decode(zz)
        out = np.empty(n, dtype=np.int64)
        out[0] = first
        np.cumsum(deltas, out=out[1:])
        out[1:] += first
        return out.astype(dt)
    raise ValueError(f"unknown int codec id {codec}")


# encode-speed order: a slower codec must beat the faster ones by >5%
# encoded size to be chosen (plan._pick_int_codec)
INT_CANDIDATES = (
    "plain", "for_bp", "delta", "pfor", "rle", "dict", "zrank", "for64",
)

INT_ENCODERS = {
    "plain": encode_plain_int,
    "for_bp": encode_for_bp,
    "rle": encode_rle_int,
    "dict": encode_dict_int,
    "delta": encode_delta,
    "pfor": encode_pfor,
    "for64": encode_for_bp64,
    "zrank": encode_zrank_int,
}
