"""Parquet-spec bit packing: values laid out as a contiguous LSB-first
bitstream (width bits per value, little-endian bit order within bytes).

Ground truth is fastparquet's reference decoder (cencoding.pyx:127-167,
read_bitpacked) and its unit vector b"\\x88\\xc6\\xfa" -> [0..7] at
width 3 (test_encoding.py:91-104). Here the kernels are numpy-vectorized
instead of a per-value loop. Whole-byte widths are byte copies and
dtype views. Any other width works on groups of 8 values, which span
exactly ``width`` bytes: value j of every group is one unaligned
``<u8`` lane at a fixed stride, read (or read-modify-written, in
``pack_bits``) in one array pass, so a stream costs 8 passes.
``unpack_bits`` is the one sequential reader (it returns the values or
adds them into an array); ``bits_at`` reads values at arbitrary bit
offsets.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bit_width",
    "pack_bits",
    "unpack_bits",
    "bits_at",
    "IN_PLACE_SHARE",
]

_MAX_WIDTH = 32


def bit_width(max_value: int) -> int:
    """Bits needed to represent ``max_value`` (0 -> 0), cf.
    cencoding.pyx:53-59 width_from_max_int."""
    if max_value < 0:
        raise ValueError("bit_width requires non-negative max_value")
    return int(max_value).bit_length()


def pack_bits(values: np.ndarray, width: int) -> bytes:
    """Pack non-negative ints into an LSB-first bitstream of ``width``
    bits per value. Output is padded with zero bits to a whole byte
    (exactly ``(n*width + 7) // 8`` bytes).

    Fast paths: width % 8 == 0 -> pure byte truncation (memcpy speed);
    otherwise groups of 8 values span exactly ``width`` bytes, built by
    8 vectorized shift/OR passes over uint64 lanes — no per-bit arrays.
    """
    if width == 0:
        return b""
    if not 0 < width <= _MAX_WIDTH:
        raise ValueError(f"width must be in 1..{_MAX_WIDTH}, got {width}")
    v = np.ascontiguousarray(values, dtype="<u4")
    n = v.size
    if n == 0:
        return b""
    out_len = (n * width + 7) // 8
    if width % 8 == 0:
        nb = width // 8
        return np.ascontiguousarray(
            v.view(np.uint8).reshape(n, 4)[:, :nb]
        ).tobytes()
    # pad to a multiple of 8 values; 8 values * width bits == width bytes.
    # Writes go through UNALIGNED STRIDED u64 read-modify-write views
    # over one padded buffer (same trick as unpack_bits; consecutive j
    # windows overlap but the loop is sequential, and within one pass
    # rows are stride-separated) — avoids a per-pass byte-matrix copy.
    g = (n + 7) // 8
    if n % 8:
        v = np.concatenate([v, np.zeros(g * 8 - n, dtype="<u4")])
    lanes = v.reshape(g, 8).astype("<u8")
    stride = width + 8  # +8 slack so the last u64 write stays in-row
    out = np.zeros(g * stride, dtype=np.uint8)
    for j in range(8):
        start_bit = j * width
        p0, r = divmod(start_bit, 8)
        dst = np.ndarray(
            (g,), dtype="<u8", buffer=out, offset=p0, strides=(stride,)
        )
        dst |= lanes[:, j] << np.uint64(r)
    return (
        np.ascontiguousarray(out.reshape(g, stride)[:, :width])
        .tobytes()[:out_len]
    )


def unpack_bits(
    buf: bytes | np.ndarray, width: int, count: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Inverse of pack_bits: read ``count`` values of ``width`` bits from
    an LSB-first bitstream. Returns them as uint32 or, given ``out``
    (int64), adds them into ``out[:count]`` in place (wrapping mod
    2**64, as FOR decode adds deltas to preloaded frame minimums) and
    returns ``out``.

    Widths 8, 16 and 32 are dtype views of the bytes and 24 a 3-byte
    copy. Any other width reads value j of each 8-value group (which
    spans ``width`` bytes) as one lane: an unaligned ``<u8`` view with
    stride ``width`` over a zero-padded copy of the payload, shifted
    and masked in one vectorized pass per lane.
    """
    if count == 0 or width == 0:
        return np.zeros(count, dtype=np.uint32) if out is None else out
    if not 0 < width <= _MAX_WIDTH:
        raise ValueError(f"width must be in 1..{_MAX_WIDTH}, got {width}")
    raw = np.frombuffer(buf, dtype=np.uint8)
    nb = (count * width + 7) // 8
    if raw.size < nb:
        raise ValueError(
            f"buffer too small: need {nb} bytes for "
            f"{count} x {width}-bit values, have {raw.size}"
        )
    if width % 8 == 0:
        if width == 24:
            vals = np.zeros((count, 4), dtype=np.uint8)
            vals[:, :3] = raw[:nb].reshape(count, 3)
            vals = vals.view("<u4").ravel()
        else:
            vals = raw[:nb].view(f"<u{width // 8}")
        if out is None:
            return vals.astype(np.uint32)
        out[:count] += vals
        return out
    g = (count + 7) // 8
    n = min(raw.size, g * width)
    padded = np.zeros(g * width + 8, dtype=np.uint8)  # +8: last u64 read
    padded[:n] = raw[:n]
    mask = np.uint64((1 << width) - 1)
    res = np.empty((g, 8), dtype=np.uint32) if out is None else None
    for j in range(8):
        p0, r = divmod(j * width, 8)
        lanes = np.ndarray(
            (g,), dtype="<u8", buffer=padded, offset=p0, strides=(width,)
        )
        if out is None:
            res[:, j] = (lanes >> np.uint64(r)) & mask
        else:
            tgt = out[j:count:8]  # values j, j+8, ... across groups
            tgt += ((lanes[: tgt.size] >> np.uint64(r)) & mask).view(np.int64)
    return out if res is None else res.ravel()[:count]


_BYTE_SHIFTS = np.arange(0, 40, 8, dtype=np.uint64)

# a take of at most 1/IN_PLACE_SHARE of a stream's values reads them
# with ``bits_at``; a larger one decodes the stream whole and takes.
# Against a whole decode, reading 1/16 of the values in place cost
# 0.6-0.9x on FOR/PFOR blobs and 0.8x on RLE streams, 1/8 cost
# 0.8-1.4x and 1/4 1.2-3.4x (4k-500k values, numpy)
IN_PLACE_SHARE = 16


def bits_at(buf: bytes | np.ndarray, width, bitpos: np.ndarray) -> np.ndarray:
    """The values of an LSB-first bitstream that start at the bit
    offsets ``bitpos`` (any order), ``width`` bits each (one width, or
    one per offset; at most 32): random access without unpacking the
    stream. Returns uint32."""
    bitpos = np.asarray(bitpos, dtype=np.int64)
    if bitpos.size == 0 or not np.any(width):
        return np.zeros(bitpos.size, dtype=np.uint32)
    raw = np.frombuffer(buf, dtype=np.uint8)
    # a value spans at most 5 bytes (32 bits + a 7-bit shift); reads
    # past the end repeat the last byte into bits the mask drops
    idx = np.minimum((bitpos >> 3)[:, None] + np.arange(5), raw.size - 1)
    word = np.bitwise_or.reduce(raw[idx].astype(np.uint64) << _BYTE_SHIFTS, axis=1)
    shift = (bitpos & 7).astype(np.uint64)
    mask = (np.uint64(1) << np.asarray(width, dtype=np.uint64)) - np.uint64(1)
    return ((word >> shift) & mask).astype(np.uint32)
