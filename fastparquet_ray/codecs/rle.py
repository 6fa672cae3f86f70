"""Parquet RLE / bit-packed hybrid codec (encode AND decode).

Format (public Parquet spec; reference decoder
/root/reference/fastparquet/cencoding.pyx:190-211
read_rle_bit_packed_hybrid, RLE runs :22-50, bit-packed runs :127-167):

    stream  := run*
    run     := varint-header body
    header even -> RLE run:        count = header >> 1,
                                   body = value in ceil(width/8) LE bytes
    header odd  -> bit-packed run: groups = header >> 1,
                                   body = groups*8 values, width bits each,
                                   LSB-first

The reference *encoder* only ever emits a single bit-packed run
(cencoding.pyx:272-282 encode_rle_bp); this encoder is a real chooser —
decoded output is what must match.

Encoder strategy (fully vectorized — run-heavy data like token streams
would otherwise cost one Python call per run): values are viewed in
Parquet's natural groups of 8; maximal stretches of uniform groups with
one value become RLE runs (counts quantized to multiples of 8), all
remaining groups are bit-packed in ONE pack_bits call, and the
interleaved stream is assembled with ragged scatters. Mid-stream
bit-packed runs therefore always hold a multiple of 8 values — the
invariant the decoder requires (padding is only valid terminally).
"""

from __future__ import annotations

import numpy as np

from .bitpack import IN_PLACE_SHARE, bits_at, pack_bits, unpack_bits
from .varint import decode_uvarint, encode_uvarint

__all__ = ["rle_encode", "rle_decode"]


def _varint_lens(a: np.ndarray) -> np.ndarray:
    """ULEB128 byte length of each value: ceil(bit_length / 7), min 1
    (bit_length via frexp)."""
    bl = np.frexp(a.astype(np.float64))[1]
    return np.maximum((bl + 6) // 7, 1).astype(np.int64)


def _vec_varint(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ULEB128: returns (bytes matrix (n,5), lengths)."""
    a = arr.astype(np.uint64)
    lens = _varint_lens(a)
    out = np.zeros((a.size, 5), dtype=np.uint8)
    for k in range(5):
        byte = ((a >> np.uint64(7 * k)) & np.uint64(0x7F)).astype(np.uint8)
        cont = (k + 1 < lens).astype(np.uint8) * 0x80
        out[:, k] = byte | cont
    return out, lens


def _scatter_ragged(
    dst: np.ndarray,
    dst_off: np.ndarray,
    src: np.ndarray,
    src_off: np.ndarray,
    lengths: np.ndarray,
) -> None:
    """dst[dst_off[i]:+len[i]] = src[src_off[i]:+len[i]] for all i.

    Large segments copy via direct numpy slices (index-array
    construction costs 4-8 bytes per byte moved — for KB-sized pieces
    a memcpy per segment is far cheaper); many small segments use the
    fused two-repeat + arange fancy index, with int32 indices when
    everything fits (halves index-array traffic)."""
    nz = lengths > 0
    if not nz.any():
        return
    d0 = dst_off[nz].astype(np.int64)
    s0 = src_off[nz].astype(np.int64)
    ln = lengths[nz].astype(np.int64)
    total = int(ln.sum())
    k = ln.size
    if total >= k * 1024:
        for i in range(k):
            d, s, L = d0[i], s0[i], ln[i]
            dst[d : d + L] = src[s : s + L]
        return
    small = total < 2**31 and dst.size < 2**31 and src.size < 2**31
    idt = np.int32 if small else np.int64
    cum = np.concatenate([[0], np.cumsum(ln)[:-1]])
    ar = np.arange(total, dtype=idt)
    dst[np.repeat((d0 - cum).astype(idt), ln) + ar] = src[
        np.repeat((s0 - cum).astype(idt), ln) + ar
    ]


def long_runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, lengths) of the maximal equal runs of length >= 8: the
    only part of the values the hybrid stream's geometry depends on.
    Any one-to-one map of the values (min-subtract, dictionary codes)
    keeps them."""
    change = np.flatnonzero(values[1:] != values[:-1])
    starts = np.concatenate([[0], change + 1]).astype(np.int64)
    lengths = np.diff(np.concatenate([starts, [values.size]]))
    keep = lengths >= 8
    return starts[keep], lengths[keep]


def _pieces(
    runs: tuple[np.ndarray, np.ndarray], n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form piece geometry (parquet-cpp RleEncoder-equivalent):
    each long run's HEAD is trimmed by pad = (gap to the previous run's
    end) % -8 so that every literal (bit-packed) span between runs is a
    whole number of 8-value groups — run starts are aligned, run
    LENGTHS are arbitrary. Returns (is_rle, count, src) per piece in
    stream order [bp_0][rle_0][bp_1]...[bp_k(tail)], empty pieces
    dropped: count is the run length of an RLE piece and the group
    count of a bit-packed one."""
    s, l = runs
    k = s.size
    e = np.concatenate([[0], (s + l)[:-1]])  # previous run end
    pad = (-(s - e)) % 8
    rle_start = s + pad
    rle_count = l - pad  # >= 1
    # literal span [e, rle_start), a multiple of 8; then the terminal one
    tail_start = int((s + l)[-1]) if k else 0
    kinds = np.empty(2 * k + 1, dtype=bool)
    kinds[0::2] = False
    kinds[1::2] = True
    counts = np.empty(2 * k + 1, dtype=np.int64)
    counts[0::2][:k] = (rle_start - e) // 8
    counts[-1] = (n - tail_start + 7) // 8  # terminal groups (padded)
    counts[1::2] = rle_count
    srcs = np.empty(2 * k + 1, dtype=np.int64)
    srcs[0::2][:k] = e
    srcs[-1] = tail_start
    srcs[1::2] = rle_start
    keep = counts > 0
    return kinds[keep], counts[keep], srcs[keep]


def _piece_layout(kinds, counts, width):
    """(headers, body byte lengths) of the pieces."""
    headers = np.where(kinds, counts << 1, (counts << 1) | 1)
    body_lens = np.where(kinds, (width + 7) // 8, counts * width)
    return headers, body_lens.astype(np.int64)


def rle_size(runs: tuple[np.ndarray, np.ndarray], n: int, width: int) -> int:
    """``len(rle_encode(values, width))`` from ``long_runs(values)`` and
    ``n`` alone."""
    if n == 0:
        return 0
    if width == 0:
        return len(encode_uvarint(n << 1))
    kinds, counts, _ = _pieces(runs, n)
    headers, body_lens = _piece_layout(kinds, counts, width)
    return int(_varint_lens(headers.astype(np.uint64)).sum() + body_lens.sum())


def rle_encode(values: np.ndarray, width: int) -> bytes:
    """Encode non-negative ints (< 2**width) into the hybrid stream:
    maximal equal runs of length >= 8 become RLE runs, laid out by
    ``_pieces``; all candidates are accepted, so the geometry is a pure
    array computation and the stream is assembled with ragged
    scatters.
    """
    v = np.ascontiguousarray(values, dtype=np.uint32)
    n = v.size
    if n == 0:
        return b""
    if width == 0:
        return encode_uvarint(n << 1)  # value occupies 0 bytes
    nbytes_val = (width + 7) // 8
    kinds, counts, srcs = _pieces(long_runs(v), n)
    n_pieces = kinds.size
    headers, body_lens = _piece_layout(kinds, counts, width)
    hbytes, hlens = _vec_varint(headers)
    piece_lens = hlens + body_lens
    piece_off = np.concatenate([[0], np.cumsum(piece_lens)])
    out = np.zeros(int(piece_off[-1]), dtype=np.uint8)

    # headers
    _scatter_ragged(
        out,
        piece_off[:-1],
        hbytes.reshape(-1),
        np.arange(n_pieces, dtype=np.int64) * 5,
        hlens,
    )
    body_off = piece_off[:-1] + hlens

    # RLE values (width bytes LE each)
    rle_idx = np.flatnonzero(kinds)
    if rle_idx.size:
        vals32 = v[srcs[rle_idx]].astype("<u4")
        vbytes = vals32.view(np.uint8).reshape(-1, 4)[:, :nbytes_val]
        _scatter_ragged(
            out,
            body_off[rle_idx],
            np.ascontiguousarray(vbytes).reshape(-1),
            np.arange(rle_idx.size, dtype=np.int64) * nbytes_val,
            np.full(rle_idx.size, nbytes_val, dtype=np.int64),
        )

    # literal spans: gather values -> one pack_bits -> scatter payloads
    bp_idx = np.flatnonzero(~kinds)
    if bp_idx.size:
        nvals = counts[bp_idx] * 8
        gather = np.zeros(int(nvals.sum()), dtype=np.uint32)
        gath_off = np.concatenate([[0], np.cumsum(nvals)[:-1]])
        # clip lengths at n for the (possibly padded) terminal span
        real_lens = np.minimum(nvals, n - srcs[bp_idx])
        _scatter_ragged(gather, gath_off, v, srcs[bp_idx], real_lens)
        packed = np.frombuffer(pack_bits(gather, width), dtype=np.uint8)
        bp_byte_lens = (counts[bp_idx] * width).astype(np.int64)
        bp_src_off = np.concatenate([[0], np.cumsum(bp_byte_lens)[:-1]])
        _scatter_ragged(out, body_off[bp_idx], packed, bp_src_off, bp_byte_lens)

    return out.tobytes()


def _walk_runs(buf, width: int, stop: int):
    """Run headers of a hybrid stream, in stream order, up to the run
    that holds value ``stop - 1``: (is_rle, RLE value | bit-packed
    payload byte offset, RLE count | bit-packed group count) lists. A
    thin Python walk: no numpy work per run."""
    raw = memoryview(buf)
    nbytes = (width + 7) // 8
    kinds: list[bool] = []  # True = RLE
    a_vals: list[int] = []  # RLE value | payload byte offset
    b_vals: list[int] = []  # RLE count | bp group count
    pos = 0
    filled = 0
    while filled < stop:
        header, pos = decode_uvarint(raw, pos)
        if header & 1:
            groups = header >> 1
            kinds.append(False)
            a_vals.append(pos)
            b_vals.append(groups)
            pos += groups * width  # groups*8 values * width bits / 8
            filled += groups * 8
        else:
            run = header >> 1
            value = int.from_bytes(raw[pos : pos + nbytes], "little")
            pos += nbytes
            kinds.append(True)
            a_vals.append(value)
            b_vals.append(run)
            filled += run
    return (
        np.array(kinds, dtype=bool),
        np.array(a_vals, dtype=np.int64),
        np.array(b_vals, dtype=np.int64),
    )


def rle_decode(
    buf: bytes, width: int, count: int, take: np.ndarray | None = None
) -> np.ndarray:
    """Decode ``count`` values from the hybrid stream. Returns uint32.

    Two passes: a thin Python walk over run headers (``_walk_runs``),
    then ONE vectorized expansion — np.repeat for all RLE runs, one
    unpack_bits over the gathered bit-packed payloads, ragged scatters
    into the output. Run-heavy streams decode at array speed.

    ``take`` (value positions) returns ``rle_decode(...)[take]``. A
    few (``IN_PLACE_SHARE``) stop the walk at the run holding the last
    one and read a bit-packed value where it lies (``bits_at``), so no
    run is expanded.
    """
    if take is not None:
        take = np.asarray(take, dtype=np.int64)
        if take.size * IN_PLACE_SHARE > count:
            return rle_decode(buf, width, count)[take]
        if not take.size:
            return np.empty(0, dtype=np.uint32)
        kinds, a_arr, b_arr = _walk_runs(buf, width, int(take.max()) + 1)
        nvals = np.where(kinds, b_arr, b_arr * 8)
        starts = np.cumsum(nvals) - nvals
        run = np.searchsorted(starts, take, side="right") - 1
        out = a_arr[run].astype(np.uint32)  # RLE values; bp ones below
        bp = ~kinds[run]
        if bp.any():
            j = take[bp] - starts[run[bp]]
            out[bp] = bits_at(buf, width, a_arr[run[bp]] * 8 + j * width)
        return out
    if count == 0:
        return np.empty(0, dtype=np.uint32)
    kind_arr, a_arr, b_arr = _walk_runs(buf, width, count)
    # pass 2: build ONE stream-ordered (value, count) sequence and
    # expand with a single np.repeat — each RLE run is one seq slot
    # with its count; each bp value is one slot with count 1.
    slots = np.where(kind_arr, 1, b_arr * 8)  # seq slots per piece
    seq_start = np.concatenate([[0], np.cumsum(slots)[:-1]])
    seq_len = int(slots.sum())
    seq_vals = np.empty(seq_len, dtype=np.uint32)
    seq_counts = np.ones(seq_len, dtype=np.int64)
    rle_m = kind_arr
    if rle_m.any():
        seq_vals[seq_start[rle_m]] = a_arr[rle_m].astype(np.uint32)
        seq_counts[seq_start[rle_m]] = b_arr[rle_m]
    bp_m = ~kind_arr
    if bp_m.any():
        srcs = a_arr[bp_m]
        grps = b_arr[bp_m]
        blens = grps * width
        payload = np.empty(int(blens.sum()), dtype=np.uint8)
        rawnp = np.frombuffer(buf, dtype=np.uint8)
        _scatter_ragged(
            payload,
            np.concatenate([[0], np.cumsum(blens)[:-1]]),
            rawnp,
            srcs,
            blens,
        )
        vals = unpack_bits(payload, width, int(grps.sum()) * 8)
        # bp values land in contiguous seq blocks, in stream order
        _scatter_ragged(
            seq_vals,
            seq_start[bp_m],
            vals,
            np.concatenate([[0], np.cumsum(grps * 8)[:-1]]),
            grps * 8,
        )
    out = np.repeat(seq_vals, seq_counts)
    return out[:count]
