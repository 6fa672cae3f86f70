"""Self-describing integer-array codecs.

Each ``encode_*`` takes a 1-D numpy integer array and returns bytes that
``decode_any`` can turn back into the exact array (same dtype, same
values). All kernels are numpy-vectorized; Python loops run only over
miniblocks / runs / width-groups, never values.

Codecs:

- PLAIN      raw little-endian bytes (reference analog: encode_plain,
             /root/reference/fastparquet/writer.py:347-353)
- FOR_BP     frame-of-reference + bit-pack in miniblocks of 1024 values:
             per block [min i64][width u8] headers then byte-aligned
             packed deltas. Delta/miniblock semantics modeled on
             DELTA_BINARY_PACKED which the reference only decodes
             (/root/reference/fastparquet/cencoding.pyx:213-242); the
             encode side is new.
- RLE_INT    min-subtract then Parquet RLE/bit-pack hybrid
             (cencoding.pyx:190-211 semantics) — wins on runny data.
- DICT_INT   np.unique symbol table + RLE/bit-packed indices
             (reference analog: dict pages, writer.py:481-517).

Wire format: [u8 codec_id][u8 dtype_id][varint n][codec-specific body].
"""

from __future__ import annotations

import numpy as np

from .bitpack import bit_width, pack_bits, unpack_bits, unpack_bits_add
from .rle import rle_decode, rle_encode
from .varint import decode_uvarint, encode_uvarint

__all__ = [
    "encode_plain_int",
    "encode_for_bp",
    "encode_rle_int",
    "encode_dict_int",
    "decode_any_int",
    "INT_ENCODERS",
]

MINIBLOCK = 1024  # values per FOR miniblock; 1024*w bits is byte-aligned

_C_PLAIN, _C_FOR, _C_RLE, _C_DICT, _C_DELTA, _C_PFOR, _C_DICT2, _C_FOR64 = (
    0, 1, 2, 3, 4, 5, 6, 7,
)
_C_ZRANK = 8
_C_ZRANKS = 9  # zrank with a plan-shared rank table (+ embedded extras)
# codecs whose decode ends in a table gather over per-value codes
_TABLE_GATHER = (_C_DICT, _C_DICT2, _C_ZRANK, _C_ZRANKS)

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


def encode_plain_int(values: np.ndarray) -> bytes:
    v = np.ascontiguousarray(values)
    return _header(_C_PLAIN, v) + v.astype(v.dtype.newbyteorder("<")).tobytes()


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


def encode_for_bp(values: np.ndarray) -> bytes:
    """Frame-of-reference + bit-pack. Raises ValueError when any
    miniblock's value range needs > 32 bits (caller falls back)."""
    v = np.ascontiguousarray(values)
    if v.dtype.itemsize == 8 and v.dtype.kind == "u":
        raise ValueError("FOR_BP: uint64 unsupported (min may not fit i64)")
    head = _header(_C_FOR, v)
    n = v.size
    if n == 0:
        return head
    nb = -(-n // MINIBLOCK)
    pad = nb * MINIBLOCK - n
    if pad:
        v = np.concatenate([v, np.full(pad, v[-1], dtype=v.dtype)])
    m = v.reshape(nb, MINIBLOCK)
    mins = m.min(axis=1)
    if v.dtype.itemsize <= 4:
        # int32 wrap-around subtraction viewed as uint32 is the correct
        # mod-2**32 delta; <=32-bit input ranges always fit
        d32 = (m.astype(np.int32, copy=False) - mins.astype(np.int32)[:, None]).view(
            np.uint32
        )
    else:
        d = (m - mins[:, None]).astype(np.uint64)
        if (d >> np.uint64(32)).any():
            raise ValueError("FOR_BP: miniblock range exceeds 32 bits")
        d32 = d.astype(np.uint32)
    widths = _vec_bit_widths(d32.max(axis=1))
    hdr = np.zeros(nb, dtype=[("min", "<i8"), ("w", "u1")])
    hdr["min"] = mins
    hdr["w"] = widths
    uw = np.unique(widths)
    if uw.size == 1:  # common case: one width -> one vectorized pack
        w = int(uw[0])
        payload = pack_bits(d32.ravel(), w) if w else b""
        return head + hdr.tobytes() + payload
    from .rle import _scatter_ragged

    piece_lens = widths.astype(np.int64) * (MINIBLOCK // 8)
    poff = np.concatenate([[0], np.cumsum(piece_lens)])
    out = np.zeros(int(poff[-1]), dtype=np.uint8)
    for w in uw:
        if w == 0:
            continue
        rows = np.flatnonzero(widths == w)
        bs = int(w) * (MINIBLOCK // 8)
        packed = np.frombuffer(pack_bits(d32[rows].ravel(), int(w)), np.uint8)
        _scatter_ragged(
            out,
            poff[rows],
            packed,
            np.arange(rows.size, dtype=np.int64) * bs,
            np.full(rows.size, bs, dtype=np.int64),
        )
    return head + hdr.tobytes() + out.tobytes()


def _bit_widths64(d: np.ndarray) -> np.ndarray:
    """Exact bit widths for uint64 values (split 32/32 so the float64
    frexp trick stays exact)."""
    hi = (d >> np.uint64(32)).astype(np.uint32)
    lo = d.astype(np.uint32)
    return np.where(
        hi != 0,
        _vec_bit_widths(hi).astype(np.int64) + 32,
        _vec_bit_widths(lo).astype(np.int64),
    )


def encode_for_bp64(values: np.ndarray) -> bytes:
    """Frame-of-reference for FULL 64-bit ranges (timestamp columns
    whose shard range exceeds the 32-bit FOR/PFOR miniblock limit and
    previously fell back to PLAIN — NEXT r01 item 4). Miniblocks of
    1024: width <= 32 bit-packs as usual; wider blocks store
    ceil(w/8)-byte little-endian truncated deltas (byte-aligned "byte
    packing": <= 7 wasted bits/value, fully vectorized)."""
    v = np.ascontiguousarray(values)
    if v.dtype.itemsize == 8 and v.dtype.kind == "u":
        raise ValueError("FOR64: uint64 unsupported (min may not fit i64)")
    head = _header(_C_FOR64, v)
    n = v.size
    if n == 0:
        return head
    nb = -(-n // MINIBLOCK)
    pad = nb * MINIBLOCK - n
    if pad:
        v = np.concatenate([v, np.full(pad, v[-1], dtype=v.dtype)])
    m = v.reshape(nb, MINIBLOCK).astype(np.int64, copy=False)
    mins = m.min(axis=1)
    d = (m - mins[:, None]).view(np.uint64)  # mod-2^64 wraparound delta
    widths = _bit_widths64(d.max(axis=1)).astype(np.uint8)
    hdr = np.zeros(nb, dtype=[("min", "<i8"), ("w", "u1")])
    hdr["min"] = mins
    hdr["w"] = widths
    from .rle import _scatter_ragged

    w64 = widths.astype(np.int64)
    piece_lens = np.where(
        w64 <= 32, w64 * (MINIBLOCK // 8), ((w64 + 7) // 8) * MINIBLOCK
    )
    poff = np.concatenate([[0], np.cumsum(piece_lens)])
    out = np.zeros(int(poff[-1]), dtype=np.uint8)
    for w in np.unique(w64):
        if w == 0:
            continue
        rows = np.flatnonzero(w64 == w)
        if w <= 32:
            bs = int(w) * (MINIBLOCK // 8)
            packed = np.frombuffer(
                pack_bits(d[rows].ravel().astype(np.uint32), int(w)), np.uint8
            )
        else:
            wb = int(w + 7) // 8
            bs = wb * MINIBLOCK
            packed = np.ascontiguousarray(
                d[rows].ravel().astype("<u8").view(np.uint8).reshape(-1, 8)[:, :wb]
            ).reshape(-1)
        _scatter_ragged(
            out,
            poff[rows],
            packed,
            np.arange(rows.size, dtype=np.int64) * bs,
            np.full(rows.size, bs, dtype=np.int64),
        )
    return head + hdr.tobytes() + out.tobytes()


def encode_rle_int(values: np.ndarray) -> bytes:
    """min-subtract + Parquet RLE/bit-pack hybrid over the deltas."""
    v = np.ascontiguousarray(values)
    head = _header(_C_RLE, v)
    if v.size == 0:
        return head
    v64 = v.astype(np.int64, copy=False)
    mn = int(v64.min())
    deltas = (v64 - mn).astype(np.uint64)
    mx = int(deltas.max())
    if mx >> 32:
        raise ValueError("RLE_INT: value range exceeds 32 bits")
    w = bit_width(mx)
    body = rle_encode(deltas.astype(np.uint32), w)
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
    tbytes = np.ascontiguousarray(
        table.astype(table.dtype.newbyteorder("<"), copy=False)
    ).tobytes()
    return head + encode_uvarint(table.size) + bytes([w]) + tbytes + body


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
    if v.dtype.itemsize == 8 and v.dtype.kind == "u":
        raise ValueError("PFOR: uint64 unsupported")
    head = _header(_C_PFOR, v)
    n = v.size
    if n == 0:
        return head
    nb = -(-n // MINIBLOCK)
    pad = nb * MINIBLOCK - n
    if pad:
        v = np.concatenate([v, np.full(pad, v[-1], dtype=v.dtype)])
    m = v.reshape(nb, MINIBLOCK)
    mins = m.min(axis=1)
    if v.dtype.itemsize <= 4:
        d32 = (m.astype(np.int32, copy=False) - mins.astype(np.int32)[:, None]).view(
            np.uint32
        )
    else:
        d = (m - mins[:, None]).astype(np.uint64)
        if (d >> np.uint64(32)).any():
            raise ValueError("PFOR: miniblock range exceeds 32 bits")
        d32 = d.astype(np.uint32)
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
    # header
    hdr = np.zeros(nb, dtype=[("min", "<i8"), ("w", "u1"), ("ne", "<u2")])
    hdr["min"] = mins
    hdr["w"] = wstar
    hdr["ne"] = nexc
    # main stream: exception values replaced by 0 (patched at decode)
    exc_mask = vwidths > wstar[:, None]
    d_main = np.where(exc_mask, 0, d32)
    # exceptions in block order (np.nonzero is row-major)
    _, exc_cols = np.nonzero(exc_mask)
    exc_all = np.zeros(exc_cols.size, dtype=[("p", "<u2"), ("v", "<u4")])
    exc_all["p"] = exc_cols
    exc_all["v"] = d32[exc_mask]
    exc_off = np.concatenate([[0], np.cumsum(nexc.astype(np.int64))])
    # assemble with ragged scatters (a per-block Python loop with
    # .tobytes() per piece was the encode hot spot at ~10k miniblocks)
    from .rle import _scatter_ragged

    piece_lens = wstar.astype(np.int64) * (MINIBLOCK // 8) + nexc.astype(np.int64) * 6
    poff = np.concatenate([[0], np.cumsum(piece_lens)])
    out = np.zeros(int(poff[-1]), dtype=np.uint8)
    for w in np.unique(wstar):
        if w == 0:
            continue
        rows = np.flatnonzero(wstar == w)
        bs = int(w) * (MINIBLOCK // 8)
        packed = np.frombuffer(pack_bits(d_main[rows].ravel(), int(w)), np.uint8)
        _scatter_ragged(
            out,
            poff[rows],
            packed,
            np.arange(rows.size, dtype=np.int64) * bs,
            np.full(rows.size, bs, dtype=np.int64),
        )
    if exc_cols.size:
        ebytes = np.frombuffer(exc_all.tobytes(), dtype=np.uint8)
        _scatter_ragged(
            out,
            poff[:-1] + wstar.astype(np.int64) * (MINIBLOCK // 8),
            ebytes,
            exc_off[:-1] * 6,
            nexc.astype(np.int64) * 6,
        )
    return head + hdr.tobytes() + out.tobytes()


def encode_delta(values: np.ndarray) -> bytes:
    """Delta coding for (near-)sorted / smooth sequences: zigzag of
    consecutive differences, then FOR+bit-pack over the (small) zigzag
    deltas. Reference analog: DELTA_BINARY_PACKED, which the reference
    only decodes (/root/reference/fastparquet/cencoding.pyx:213-242);
    this is the encode side the reference lacks. Wins on timestamp and
    monotonically-assigned id columns whose ABSOLUTE range exceeds the
    32-bit FOR miniblock limit but whose deltas are small."""
    v = np.ascontiguousarray(values)
    if v.dtype.itemsize == 8 and v.dtype.kind == "u":
        raise ValueError("DELTA: uint64 unsupported")
    head = _header(_C_DELTA, v)
    n = v.size
    if n == 0:
        return head
    v64 = v.astype(np.int64, copy=False)
    first = int(v64[0])
    from .varint import zigzag_encode

    deltas = np.diff(v64)
    zz = zigzag_encode(deltas)
    try:
        body = encode_for_bp(zz.astype(np.int64))
    except ValueError:
        # wide deltas (e.g. unsorted timestamps): 64-bit miniblock FOR
        body = encode_for_bp64(zz.astype(np.int64))
    return head + first.to_bytes(8, "little", signed=True) + body


def encode_dict2_int(values: np.ndarray) -> bytes:
    """Frequency-ranked dictionary: the most frequent value gets index
    0, so the index stream is small-skewed and the best of
    PFOR / RLE / FOR is chosen for it (self-describing recursive
    blob). Beats plain DICT on zipf-like token streams where rare
    values otherwise force wide indices."""
    import pyarrow as pa
    import pyarrow.compute as pc

    v = np.ascontiguousarray(values)
    head = _header(_C_DICT2, v)
    if v.size == 0:
        return head
    denc = pc.dictionary_encode(pa.array(v))
    table = denc.dictionary.to_numpy(zero_copy_only=False).astype(
        v.dtype, copy=False
    )
    idx = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    counts = np.bincount(idx, minlength=table.size)
    order = np.argsort(-counts, kind="stable")
    rank = np.empty(table.size, dtype=np.int64)
    rank[order] = np.arange(table.size)
    new_idx = rank[idx].astype(np.int32)
    new_table = table[order]
    # pick the index-stream codec on a bounded sample, then encode the
    # full stream ONCE with the winner (full trial-encodes of all three
    # candidates cost ~3x the winning encode on 10M-value token shards)
    body = None
    for name in rank_int_codecs(new_idx, ("rle", "pfor", "for_bp")):
        try:
            body = INT_ENCODERS[name](new_idx)
            break
        except ValueError:
            continue
    if body is None:
        body = encode_plain_int(new_idx)
    tbytes = np.ascontiguousarray(
        new_table.astype(new_table.dtype.newbyteorder("<"), copy=False)
    ).tobytes()
    return (
        head
        + encode_uvarint(new_table.size)
        + tbytes
        + encode_uvarint(len(body))
        + body
    )


def encode_zrank_int(values: np.ndarray) -> bytes:
    """Frequency-ranked dictionary + zstd entropy stage over the rank
    codes: the most frequent value gets code 0, the code stream is
    byte-serialized (u16, u32 above 64k distinct) and zstd-compressed.
    Where DICT2 bit-packs codes at a fixed width (~= log2(distinct)
    bits/value), the entropy stage reaches the stream's ACTUAL
    zeroth-order entropy plus context repeats — on zipf-like token
    streams (H ~ 4.5 bits vs 12-bit packed codes) this measures ~2.9x
    smaller than DICT2. Decode is one zstd decompress + one vectorized
    table gather."""
    import pyarrow as pa

    v = np.ascontiguousarray(values)
    head = _header(_C_ZRANK, v)
    if v.size == 0:
        return head
    vmin = int(v.min())
    vrange = int(v.max()) - vmin
    if vrange <= (1 << 22):
        # bounded domain (token vocabularies): O(n) bincount + O(vocab)
        # rank instead of np.unique's O(n log n) sort — ~4x faster on
        # 10M-value shards
        dense = (v.astype(np.int64) - vmin)
        counts = np.bincount(dense, minlength=vrange + 1)
        present = np.flatnonzero(counts)
        # deterministic ranking: by count desc, value asc on ties
        order = np.lexsort((present, -counts[present]))
        rank_dense = np.zeros(vrange + 1, dtype=np.int64)
        rank_dense[present[order]] = np.arange(present.size)
        n_distinct = present.size
        width = 2 if n_distinct <= 65536 else 4
        codes = rank_dense[dense].astype(
            np.uint16 if width == 2 else np.uint32
        )
        table = (present[order] + vmin).astype(v.dtype)
    else:
        u, inv, counts = np.unique(v, return_inverse=True, return_counts=True)
        # deterministic ranking: by count desc, value asc on ties
        order = np.lexsort((u, -counts))
        rank = np.empty(u.size, dtype=np.int64)
        rank[order] = np.arange(u.size)
        n_distinct = u.size
        width = 2 if n_distinct <= 65536 else 4
        codes = rank[inv].astype(np.uint16 if width == 2 else np.uint32)
        table = u[order]
    z = pa.Codec("zstd", compression_level=3).compress(
        codes.tobytes(), asbytes=True
    )
    tbytes = np.ascontiguousarray(
        table.astype(table.dtype.newbyteorder("<"), copy=False)
    ).tobytes()
    return (
        head
        + encode_uvarint(n_distinct)
        + tbytes
        + bytes([width])
        + encode_uvarint(len(z))
        + z
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
        return (
            bytes([_dtype_id(t)])
            + encode_uvarint(t.size)
            + np.ascontiguousarray(
                t.astype(t.dtype.newbyteorder("<"), copy=False)
            ).tobytes()
        )

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
    import pyarrow as pa

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
    total = n_shared + extras.size
    width = 2 if total <= 65536 else 4
    codes = ranks.astype(np.uint16 if width == 2 else np.uint32)
    z = pa.Codec("zstd", compression_level=3).compress(
        codes.tobytes(), asbytes=True
    )
    xbytes = np.ascontiguousarray(
        extras.astype(extras.dtype.newbyteorder("<"), copy=False)
    ).tobytes()
    return (
        head
        + bytes.fromhex(thash)
        + encode_uvarint(extras.size)
        + xbytes
        + bytes([width])
        + encode_uvarint(len(z))
        + z
    )


_AUTO_SAMPLE = 1 << 18  # values used for codec ranking trials


def rank_int_codecs(values: np.ndarray, names) -> list[str]:
    """Rank codec names by encoded size of a bounded head sample
    (deterministic). Callers encode the full array with the first
    ranked codec that succeeds — O(sample) selection cost instead of
    O(n * candidates) full trial-encodes."""
    s = values[:_AUTO_SAMPLE] if values.size > _AUTO_SAMPLE else values
    sized = []
    for name in names:
        try:
            sized.append((len(INT_ENCODERS[name](s)), name))
        except ValueError:
            continue
    sized.sort()
    return [n for _, n in sized]


def decode_any_int(
    buf: bytes,
    tables: dict[str, bytes] | None = None,
    take: np.ndarray | None = None,
) -> np.ndarray:
    """Decode any int blob. ``take`` (value positions) returns only
    those values: the table-gather codecs (zrank, zrank-shared, dict,
    dict2) pick their codes before the gather, the others decode whole
    and then take."""
    codec = buf[0]
    dt = _DTYPES[buf[1]]
    n, pos = decode_uvarint(buf, 2)
    if n == 0:
        return np.empty(0, dtype=dt)
    if take is not None and codec not in _TABLE_GATHER:
        return decode_any_int(buf, tables)[take]
    if codec == _C_PLAIN:
        return np.frombuffer(buf, dtype=dt, count=n, offset=pos).copy()
    if codec == _C_FOR:
        nb = -(-n // MINIBLOCK)
        hdr = np.frombuffer(
            buf, dtype=[("min", "<i8"), ("w", "u1")], count=nb, offset=pos
        )
        pos += hdr.nbytes
        widths = hdr["w"].astype(np.int64)
        payload = np.frombuffer(buf, dtype=np.uint8, offset=pos)
        out = np.empty((nb, MINIBLOCK), dtype=np.int64)
        out[:] = hdr["min"][:, None]
        uw = np.unique(widths)
        if uw.size == 1:  # one width: single fused unpack+add sweep
            w = int(uw[0])
            if w:
                unpack_bits_add(payload, w, nb * MINIBLOCK, out.ravel())
        else:
            from .rle import _scatter_ragged

            sizes = widths * (MINIBLOCK // 8)
            offsets = np.concatenate([[0], np.cumsum(sizes)])
            for w in uw:
                if w == 0:
                    continue
                rows = np.flatnonzero(widths == w)
                bs = int(w) * (MINIBLOCK // 8)
                chunk = np.empty(rows.size * bs, dtype=np.uint8)
                _scatter_ragged(
                    chunk,
                    np.arange(rows.size, dtype=np.int64) * bs,
                    payload,
                    offsets[rows],
                    np.full(rows.size, bs, dtype=np.int64),
                )
                vals = unpack_bits(chunk, int(w), rows.size * MINIBLOCK)
                out[rows] += vals.reshape(rows.size, MINIBLOCK)
        return out.ravel()[:n].astype(dt)
    if codec == _C_ZRANK:
        import pyarrow as pa

        tsize, pos = decode_uvarint(buf, pos)
        table = np.frombuffer(buf, dtype=dt, count=tsize, offset=pos)
        pos += table.nbytes
        width = buf[pos]
        pos += 1
        zlen, pos = decode_uvarint(buf, pos)
        raw = pa.Codec("zstd").decompress(
            buf[pos : pos + zlen], decompressed_size=n * width, asbytes=True
        )
        codes = np.frombuffer(
            raw, dtype=np.uint16 if width == 2 else np.uint32
        )
        return table[codes if take is None else codes[take]]
    if codec == _C_ZRANKS:
        import pyarrow as pa

        thash = buf[pos : pos + 16].hex()
        pos += 16
        if tables is None or thash not in tables:
            raise KeyError(f"shared rank table {thash} not provided")
        shared = deserialize_rank_values(tables[thash]).astype(dt, copy=False)
        nx, pos = decode_uvarint(buf, pos)
        extras = np.frombuffer(buf, dtype=dt, count=nx, offset=pos)
        pos += extras.nbytes
        width = buf[pos]
        pos += 1
        zlen, pos = decode_uvarint(buf, pos)
        raw = pa.Codec("zstd").decompress(
            buf[pos : pos + zlen], decompressed_size=n * width, asbytes=True
        )
        codes = np.frombuffer(
            raw, dtype=np.uint16 if width == 2 else np.uint32
        )
        table = np.concatenate([shared, extras]) if nx else shared
        return table[codes if take is None else codes[take]]
    if codec == _C_RLE:
        mn = int.from_bytes(buf[pos : pos + 8], "little", signed=True)
        w = buf[pos + 8]
        deltas = rle_decode(buf[pos + 9 :], w, n)
        return (deltas.astype(np.int64) + mn).astype(dt)
    if codec == _C_DICT:
        tsize, pos = decode_uvarint(buf, pos)
        w = buf[pos]
        pos += 1
        table = np.frombuffer(buf, dtype=dt, count=tsize, offset=pos)
        pos += table.nbytes
        idx = rle_decode(buf[pos:], w, n)
        return table[idx if take is None else idx[take]]
    if codec == _C_DICT2:
        tsize, pos = decode_uvarint(buf, pos)
        table = np.frombuffer(buf, dtype=dt, count=tsize, offset=pos)
        pos += table.nbytes
        blen, pos = decode_uvarint(buf, pos)
        idx = decode_any_int(bytes(buf[pos : pos + blen]), take=take)
        return table[idx]
    if codec == _C_PFOR:
        nb = -(-n // MINIBLOCK)
        hdr = np.frombuffer(
            buf,
            dtype=[("min", "<i8"), ("w", "u1"), ("ne", "<u2")],
            count=nb,
            offset=pos,
        )
        pos += hdr.nbytes
        widths = hdr["w"].astype(np.int64)
        nexc = hdr["ne"].astype(np.int64)
        sizes = widths * (MINIBLOCK // 8) + nexc * 6
        offsets = np.concatenate([[0], np.cumsum(sizes)]) + pos
        payload = np.frombuffer(buf, dtype=np.uint8)
        out = np.empty((nb, MINIBLOCK), dtype=np.int64)
        out[:] = hdr["min"][:, None]
        vals32 = np.zeros((nb, MINIBLOCK), dtype=np.uint32)
        from .rle import _scatter_ragged

        for w in np.unique(widths):
            if w == 0:
                continue
            rows = np.flatnonzero(widths == w)
            bs = int(w) * (MINIBLOCK // 8)
            chunk = np.empty(rows.size * bs, dtype=np.uint8)
            _scatter_ragged(
                chunk,
                np.arange(rows.size, dtype=np.int64) * bs,
                payload,
                offsets[rows],
                np.full(rows.size, bs, dtype=np.int64),
            )
            vv = unpack_bits(chunk, int(w), rows.size * MINIBLOCK)
            vals32[rows] = vv.reshape(rows.size, MINIBLOCK)
        # patch exceptions — one ragged gather of all patch records,
        # then one flat scatter (a per-block Python loop here cost ~30%
        # of token-heavy decode at ~10k miniblocks per shard)
        tot_exc = int(nexc.sum())
        if tot_exc:
            exc_starts = offsets[:-1] + widths * (MINIBLOCK // 8)
            exc_lens = nexc * 6
            ebuf = np.empty(tot_exc * 6, dtype=np.uint8)
            _scatter_ragged(
                ebuf,
                np.concatenate([[0], np.cumsum(exc_lens)[:-1]]),
                payload,
                exc_starts,
                exc_lens,
            )
            exc = ebuf.view([("p", "<u2"), ("v", "<u4")])
            rows = np.repeat(np.arange(nb, dtype=np.int64), nexc)
            vals32.reshape(-1)[rows * MINIBLOCK + exc["p"].astype(np.int64)] = exc["v"]
        out += vals32
        return out.ravel()[:n].astype(dt)
    if codec == _C_FOR64:
        from .rle import _scatter_ragged

        nb = -(-n // MINIBLOCK)
        hdr = np.frombuffer(
            buf, dtype=[("min", "<i8"), ("w", "u1")], count=nb, offset=pos
        )
        pos += hdr.nbytes
        w64 = hdr["w"].astype(np.int64)
        piece_lens = np.where(
            w64 <= 32, w64 * (MINIBLOCK // 8), ((w64 + 7) // 8) * MINIBLOCK
        )
        offsets = np.concatenate([[0], np.cumsum(piece_lens)])
        payload = np.frombuffer(buf, dtype=np.uint8, offset=pos)
        d = np.zeros((nb, MINIBLOCK), dtype=np.uint64)
        for w in np.unique(w64):
            if w == 0:
                continue
            rows = np.flatnonzero(w64 == w)
            if w <= 32:
                bs = int(w) * (MINIBLOCK // 8)
            else:
                bs = (int(w) + 7) // 8 * MINIBLOCK
            chunk = np.empty(rows.size * bs, dtype=np.uint8)
            _scatter_ragged(
                chunk,
                np.arange(rows.size, dtype=np.int64) * bs,
                payload,
                offsets[rows],
                np.full(rows.size, bs, dtype=np.int64),
            )
            if w <= 32:
                vals = unpack_bits(chunk, int(w), rows.size * MINIBLOCK).astype(
                    np.uint64
                )
            else:
                wb = (int(w) + 7) // 8
                full = np.zeros((rows.size * MINIBLOCK, 8), dtype=np.uint8)
                full[:, :wb] = chunk.reshape(-1, wb)
                vals = full.reshape(-1).view("<u8")
            d[rows] = vals.reshape(rows.size, MINIBLOCK)
        out = (d + hdr["min"].astype(np.uint64)[:, None]).view(np.int64)
        return out.ravel()[:n].astype(dt)
    if codec == _C_DELTA:
        from .varint import zigzag_decode

        first = int.from_bytes(buf[pos : pos + 8], "little", signed=True)
        zz = decode_any_int(buf[pos + 8 :]).astype(np.uint64)
        deltas = zigzag_decode(zz)
        out = np.empty(n, dtype=np.int64)
        out[0] = first
        np.cumsum(deltas, out=out[1:])
        out[1:] += first
        return out.astype(dt)
    raise ValueError(f"unknown int codec id {codec}")


INT_ENCODERS = {
    "plain": encode_plain_int,
    "for_bp": encode_for_bp,
    "rle": encode_rle_int,
    "dict": encode_dict_int,
    "delta": encode_delta,
    "pfor": encode_pfor,
    "dict2": encode_dict2_int,
    "for64": encode_for_bp64,
    "zrank": encode_zrank_int,
}
