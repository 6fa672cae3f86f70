"""FSST-style symbol-table string compression (numpy-vectorized).

Based on the public FSST design (Boncz, Neumann, Leis: "FSST: Fast
Random Access String Compression", VLDB 2020): up to 255 symbols of
1..8 bytes, one output byte per matched symbol, escape byte 255
followed by one literal byte for uncovered input bytes. The reference
repo has no FSST; its closest analog is the dictionary page
(/root/reference/fastparquet/writer.py:481-517) — FSST is required by
the north rule for the string columns (doc_id/source).

Deviations from the paper (documented, still decodes bit-identically by
construction): symbol selection is a single greedy pass over substring
frequencies of a bounded sample (gain = count * len) instead of the
paper's iterated re-counting; encoding uses longest-match (paper uses
it too) found via 8 vectorized searchsorted passes over uint64 windows
plus a frontier (pointer-jumping) walk — no per-byte Python loop.

All functions operate on (lengths: int64[n_strings], data: uint8[total])
ragged string buffers, which map zero-copy onto Arrow StringArray
offsets/data.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .varint import decode_uvarint, encode_uvarint

__all__ = ["FsstTable", "train_fsst"]

ESCAPE = 255
MAX_SYMBOLS = 255
MAX_SYM_LEN = 8

# average string length above which ``FsstTable.encode`` matches at
# every byte at once instead of at the positions its walk visits. The
# crossover grows with the bytes per symbol and the column size:
# measured (numpy, one core) at ~100 B (140 KB) to ~500 B (1 MB) for
# Python source text, ~270 B to ~3 KB for a Zipf mix of 100 words, and
# below 32 B for random bytes. At 256 B no shape measured pays more
# than 2x for the path it gets.
_PRECOMPUTE_LEN = 256

# training: the sample's bytes (a stride sample of whole strings), the
# candidates kept per symbol length, and the rounds (the greedy pass
# plus measured refinements)
_SAMPLE_BYTES = 1 << 17
_LEN_CANDIDATES = 1024
_ROUNDS = 2

_MASKS = np.array(
    [0] + [(1 << (8 * L)) - 1 for L in range(1, 9)], dtype=np.uint64
)


def _windows_u64(data: np.ndarray) -> np.ndarray:
    """Little-endian uint64 read at every byte position (zero-padded),
    copied out of an overlapping (stride 1) view: ``_match`` reads the
    aligned copy ~10% faster than the view itself, and the copy costs
    an eighth of a ``sliding_window_view`` one (numpy, one core)."""
    padded = np.concatenate([data, np.zeros(8, dtype=np.uint8)])
    return np.ndarray((data.size,), "<u8", padded, strides=(1,)).copy()


def _end_dist(lengths: np.ndarray, total: int) -> np.ndarray:
    """Per byte position: distance to the end of its string."""
    ends = np.repeat(np.cumsum(lengths), lengths)
    return ends - np.arange(total, dtype=np.int64)


class FsstTable:
    """Immutable trained symbol table; encode/decode are vectorized."""

    def __init__(self, symbols: list[bytes]):
        if len(symbols) > MAX_SYMBOLS:
            raise ValueError("at most 255 symbols")
        for s in symbols:
            if not 1 <= len(s) <= MAX_SYM_LEN:
                raise ValueError("symbol length must be 1..8")
        self.symbols = symbols
        # decode side: concatenated symbol bytes + offsets + lengths
        self.sym_lens = np.array([len(s) for s in symbols], dtype=np.int64)
        self.sym_offsets = np.concatenate([[0], np.cumsum(self.sym_lens)])
        self.sym_data = np.frombuffer(b"".join(symbols), dtype=np.uint8)
        # encode-side match tables, built on the first _match: a table
        # deserialized to decode a column never needs them
        self._by_len: dict[int, tuple[np.ndarray, np.ndarray]] | None = None
        self._codes: dict[bytes, int] | None = None  # encode_one's map

    def _build_match_tables(self) -> None:
        symbols = self.symbols
        # per length, sorted u64 keys + aligned codes
        by_len = {}
        for L in range(1, MAX_SYM_LEN + 1):
            codes = [i for i, s in enumerate(symbols) if len(s) == L]
            if not codes:
                continue
            keys = np.array(
                [
                    int.from_bytes(symbols[c], "little")
                    for c in codes
                ],
                dtype=np.uint64,
            )
            order = np.argsort(keys)
            by_len[L] = (keys[order], np.array(codes, np.uint8)[order])
        # perfect lookup tables for the 1- and 2-byte tiers: the match
        # becomes a single gather (no searchsorted) — these tiers see
        # the largest active sets since they run last over everything
        # the longer tiers left unmatched. 256 = no-symbol sentinel.
        self._lut1 = np.full(256, 256, dtype=np.int16)
        self._lut2 = np.full(65536, 256, dtype=np.int16)
        for code, s in enumerate(symbols):
            if len(s) == 1:
                self._lut1[s[0]] = code
            elif len(s) == 2:
                self._lut2[int.from_bytes(s, "little")] = code
        self._by_len = by_len  # last: a set _by_len means all are built

    # ---------------- serialization ----------------

    def serialize(self) -> bytes:
        out = [encode_uvarint(len(self.symbols))]
        out.append(bytes(len(s) for s in self.symbols))
        out.extend(self.symbols)
        return b"".join(out)

    @classmethod
    def deserialize(cls, buf: bytes, pos: int = 0) -> tuple["FsstTable", int]:
        n, pos = decode_uvarint(buf, pos)
        lens = list(buf[pos : pos + n])
        pos += n
        syms = []
        for ln in lens:
            syms.append(bytes(buf[pos : pos + ln]))
            pos += ln
        return cls(syms), pos

    def table_hash(self) -> str:
        return hashlib.md5(self.serialize()).hexdigest()

    # ---------------- encode ----------------

    def _match(
        self, w64: np.ndarray, edist: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Longest symbol match at each given window; returns (len, code)
        with len=1/code=ESCAPE where nothing matches. After each length
        tier the active set is compacted to the still-unmatched
        positions, so later tiers probe ever-smaller arrays."""
        if self._by_len is None:
            self._build_match_tables()
        k = w64.size
        best_len = np.zeros(k, dtype=np.int64)
        best_code = np.full(k, ESCAPE, dtype=np.uint8)
        active: np.ndarray | None = None  # None = everything
        for L in range(MAX_SYM_LEN, 0, -1):
            if L not in self._by_len:
                continue
            w = w64 if active is None else w64[active]
            e = edist if active is None else edist[active]
            kk = w & _MASKS[L]
            if L <= 2:
                # perfect-lut tier: one gather instead of searchsorted
                lut = self._lut1 if L == 1 else self._lut2
                cand = lut[kk]  # uint64 fancy-index, no copy
                ok = (cand != 256) & (e >= L)
                hit_codes = cand[ok].astype(np.uint8)
            else:
                keys, codes = self._by_len[L]
                idx = np.searchsorted(keys, kk)
                idx_c = np.minimum(idx, keys.size - 1)
                ok = (keys[idx_c] == kk) & (e >= L)
                hit_codes = codes[idx_c[ok]]
            tgt = np.flatnonzero(ok) if active is None else active[ok]
            best_len[tgt] = L
            best_code[tgt] = hit_codes
            rem = ~ok
            active = (
                np.flatnonzero(rem) if active is None else active[rem]
            )
            if active.size == 0:
                break
        best_len[best_len == 0] = 1  # escapes advance one byte
        return best_len, best_code

    def encode_one(self, s: bytes) -> bytes:
        """``encode`` of the one string ``s``, a position at a time: the
        same longest match, read off the same match tables, so a probe
        gets exactly the codes its string has in a column."""
        codes = self._codes
        if codes is None:
            if self._by_len is None:
                self._build_match_tables()
            codes = {}
            for L, (keys, kcodes) in self._by_len.items():
                if L > 2:  # searchsorted takes the first of equal keys
                    for k, c in zip(keys.tolist(), kcodes.tolist()):
                        codes.setdefault(k.to_bytes(8, "little")[:L], c)
            for L, lut in ((1, self._lut1), (2, self._lut2)):
                for k in np.flatnonzero(lut != 256).tolist():
                    codes[k.to_bytes(L, "little")] = int(lut[k])
            self._codes = codes
        lens = sorted(self._by_len, reverse=True)
        out = bytearray()
        p, n = 0, len(s)
        while p < n:
            for L in lens:
                c = codes.get(s[p : p + L]) if p + L <= n else None
                if c is not None:
                    out.append(c)
                    p += L
                    break
            else:
                out += bytes((ESCAPE, s[p]))
                p += 1
        return bytes(out)

    def encode(
        self, lengths: np.ndarray, data: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Returns (enc_lengths, enc_data)."""
        total = int(data.size)
        nstr = int(lengths.size)
        if total == 0:
            return np.zeros(nstr, dtype=np.int64), np.empty(0, np.uint8)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        w64 = _windows_u64(data)
        if total > _PRECOMPUTE_LEN * nstr:
            # long strings: match at every position at once (few, long
            # frontier iterations would be overhead-bound)
            blen_at, code_at = self._match(w64, _end_dist(lengths, total))
        else:
            blen_at, code_at = None, np.empty(total, dtype=np.uint8)
        # walk every string's frontier a symbol at a time; short strings
        # match only at the positions the walk visits
        visited = np.zeros(total, dtype=bool)
        cur = offsets[:-1].astype(np.int64)
        ends = offsets[1:]
        alive = cur < ends
        while alive.any():
            p = cur[alive]
            if blen_at is None:
                blen, code_at[p] = self._match(w64[p], ends[alive] - p)
            else:
                blen = blen_at[p]
            visited[p] = True
            cur[alive] = p + blen
            alive = cur < ends
        visited = np.flatnonzero(visited)
        codes = code_at[visited]
        is_esc = codes == ESCAPE
        unit_out = np.where(is_esc, 2, 1).astype(np.int64)
        out_off = np.concatenate([[0], np.cumsum(unit_out)])
        out = np.empty(int(out_off[-1]), dtype=np.uint8)
        out[out_off[:-1]] = codes
        out[out_off[:-1][is_esc] + 1] = data[visited[is_esc]]
        # per-string encoded lengths
        vis_bounds = np.searchsorted(visited, offsets)
        enc_lengths = np.diff(out_off[vis_bounds])
        return enc_lengths, out

    # ---------------- decode ----------------

    def decode(
        self, enc_lengths: np.ndarray, enc: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Returns (lengths, data) — exact inverse of encode."""
        total = int(enc.size)
        nstr = int(enc_lengths.size)
        if total == 0:
            return np.zeros(nstr, dtype=np.int64), np.empty(0, np.uint8)
        enc_offsets = np.concatenate([[0], np.cumsum(enc_lengths)])
        unit_pos, esc_u = _parse_units(enc_lengths, enc)
        codes = enc[unit_pos].astype(np.int64)
        sym_lens = self.sym_lens if self.sym_lens.size else np.zeros(1, np.int64)
        out_lens = np.where(esc_u, 1, sym_lens[np.where(esc_u, 0, codes)])
        out_off = np.concatenate([[0], np.cumsum(out_lens)])
        total_out = int(out_off[-1])
        # ragged gather from a combined source space
        combined = np.concatenate([self.sym_data, enc])
        sym_offs = (
            self.sym_offsets if self.sym_offsets.size > 1 else np.zeros(1, np.int64)
        )
        base = np.where(
            esc_u,
            self.sym_data.size + unit_pos + 1,  # literal byte after escape
            sym_offs[np.where(esc_u, 0, codes)],
        )
        # per-byte-position scatter (NEXT r3 #1): each (unit, j) pair
        # with j < out_len writes EXACTLY one output byte, so the 8
        # passes never overlap and need no ordering; the alive set
        # shrinks each pass (escapes and 1-byte symbols drop out after
        # j=0), replacing the repeat + arange + gather index build
        # with total_out scatter work.
        idt = (
            np.int32
            if total_out < 2**31 and combined.size < 2**31
            else np.int64
        )
        out = np.empty(total_out, dtype=np.uint8)
        o = out_off[:-1].astype(idt)
        b = base.astype(idt)
        ln = out_lens
        for j in range(MAX_SYM_LEN):
            if j:
                keep = ln > j
                o, b, ln = o[keep], b[keep], ln[keep]
                if o.size == 0:
                    break
            out[o + j] = combined[b + j]
        # per-string decoded lengths
        ub = np.searchsorted(unit_pos, enc_offsets)
        lengths = np.diff(out_off[ub])
        return lengths, out


def _parse_units(
    enc_lengths: np.ndarray, enc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Parse an encoded stream into its unit positions and escape mask.
    An escape byte's literal may itself be 255, so within a run of 255s
    that starts a string or follows a non-255 byte, the even-offset
    bytes are escapes and the odd ones their literals."""
    total = int(enc.size)
    enc_offsets = np.concatenate([[0], np.cumsum(enc_lengths)])
    is255 = enc == ESCAPE
    prev255 = np.concatenate([[False], is255[:-1]])
    str_start = np.zeros(total, dtype=bool)
    str_start[enc_offsets[:-1][enc_lengths > 0]] = True
    runstart = is255 & (~prev255 | str_start)
    all255 = np.flatnonzero(is255)
    if all255.size:
        rs = runstart[all255]
        run_idx = np.cumsum(rs) - 1
        run_start_pos = all255[np.flatnonzero(rs)][run_idx]
        esc_pos = all255[(all255 - run_start_pos) % 2 == 0]
    else:
        esc_pos = all255
    consumed = np.zeros(total, dtype=bool)
    if esc_pos.size:
        consumed[esc_pos + 1] = True
    unit_pos = np.flatnonzero(~consumed)
    is_esc_unit = np.zeros(total, dtype=bool)
    is_esc_unit[esc_pos] = True
    return unit_pos, is_esc_unit[unit_pos]


def _refine_table(
    table: FsstTable,
    lengths: np.ndarray,
    data: np.ndarray,
) -> tuple[FsstTable, int]:
    """One FSST-paper-style refinement round: encode the sample with
    the current table, count actual symbol usage / escaped bytes /
    adjacent-symbol concatenations, rebuild the table from measured
    gains (gain = count * covered_len). Returns the rebuilt table and
    the sample's encoded size under the current one."""
    el, ed = table.encode(lengths, data)
    if ed.size == 0:
        return table, 0
    unit_pos, esc_u = _parse_units(el, ed)
    codes = ed[unit_pos]
    cands: dict[bytes, int] = {}

    def add(sym: bytes, gain: int):
        if 1 <= len(sym) <= MAX_SYM_LEN:
            cands[sym] = cands.get(sym, 0) + gain

    # existing symbols by measured usage
    sym_codes = codes[~esc_u]
    if sym_codes.size:
        uniq, cnt = np.unique(sym_codes, return_counts=True)
        for c, n in zip(uniq.tolist(), cnt.tolist()):
            add(table.symbols[c], n * len(table.symbols[c]))
    # escaped literals -> single-byte candidates (each escape wastes a byte)
    esc_lits = ed[unit_pos[esc_u] + 1] if esc_u.any() else np.empty(0, np.uint8)
    if esc_lits.size:
        uniq, cnt = np.unique(esc_lits, return_counts=True)
        for b, n in zip(uniq.tolist(), cnt.tolist()):
            add(bytes([b]), n * 2)
    # adjacent symbol pairs within a string -> concatenated candidates
    enc_offsets = np.concatenate([[0], np.cumsum(el)])
    sid = np.searchsorted(enc_offsets[1:], unit_pos, side="right")
    ok = (~esc_u[:-1]) & (~esc_u[1:]) & (sid[:-1] == sid[1:])
    if ok.any():
        pair_keys = codes[:-1][ok].astype(np.int64) * 256 + codes[1:][ok]
        uniq, cnt = np.unique(pair_keys, return_counts=True)
        order = np.argsort(-cnt)[:1024]  # cap pair candidates
        for k, n in zip(uniq[order].tolist(), cnt[order].tolist()):
            sym = table.symbols[k // 256] + table.symbols[k % 256]
            if len(sym) <= MAX_SYM_LEN and n >= 2:
                add(sym, n * len(sym))
    top = sorted(
        cands.items(), key=lambda kv: (-kv[1], len(kv[0]), kv[0])
    )[:MAX_SYMBOLS]
    return FsstTable([s for s, _ in top]), int(ed.size)


def _prefix_counts(w64: np.ndarray, edist: np.ndarray):
    """For L = 1..8 while any window has L bytes left in its string:
    (L, distinct L-byte prefixes as little-endian keys in ascending
    order, their counts), as ``np.unique(..., return_counts=True)`` of
    the masked windows gives them. One sort of the byte-swapped
    (big-endian) windows orders every prefix length at once; only the
    distinct prefixes are re-sorted by key."""
    be = w64.byteswap()
    order = np.argsort(be)
    be, ed = be[order], edist[order]
    for L in range(1, MAX_SYM_LEN + 1):
        k = be[ed >= L] & ~np.uint64((1 << (64 - 8 * L)) - 1)
        if k.size == 0:
            return
        starts = np.flatnonzero(np.concatenate([[True], k[1:] != k[:-1]]))
        counts = np.diff(np.append(starts, k.size))
        uniq = k[starts].byteswap()
        o = np.argsort(uniq)
        yield L, uniq[o], counts[o]


def train_fsst(lengths: np.ndarray, data: np.ndarray) -> FsstTable:
    """Train a symbol table on (a deterministic sample of) the strings.

    Greedy pass (count substring frequencies for lengths 1..8, windows
    never crossing string boundaries, gain = count * len, top
    ``MAX_SYMBOLS``) followed by ``_ROUNDS - 1`` measured refinement
    rounds per the FSST paper (re-encode the sample, count actual
    usage + escapes + adjacent-symbol merges).
    """
    total = int(data.size)
    if total == 0:
        return FsstTable([])
    if total > _SAMPLE_BYTES:
        # deterministic stride sample of whole strings, gathered with
        # one ragged index
        cum = np.cumsum(lengths)
        n_keep = int(np.searchsorted(cum, _SAMPLE_BYTES)) + 1
        stride = max(1, lengths.size // max(n_keep, 1))
        keep = np.arange(0, lengths.size, stride)
        s_lengths = lengths[keep]
        s_cum = np.cumsum(s_lengths)
        src = (cum - lengths)[keep] - (s_cum - s_lengths)
        idx = np.repeat(src, s_lengths)
        s_data = data[idx + np.arange(idx.size, dtype=np.int64)]
        if s_data.size > 4 * _SAMPLE_BYTES:
            s_data = s_data[: 4 * _SAMPLE_BYTES]
            s_lengths = None  # boundaries invalidated; treat as one blob
    else:
        s_lengths, s_data = lengths, data
    if s_lengths is None:
        s_lengths = np.array([s_data.size], dtype=np.int64)
    w64 = _windows_u64(s_data)
    edist = _end_dist(s_lengths, int(s_data.size))
    # candidates (gain = count * len, len, little-endian key), ranked by
    # (gain desc, len asc, symbol bytes desc)
    gains, lens, keys = [], [], []
    for L, uniq, counts in _prefix_counts(w64, edist):
        if uniq.size > _LEN_CANDIDATES:
            top = np.argpartition(counts, -_LEN_CANDIDATES)[-_LEN_CANDIDATES:]
            uniq, counts = uniq[top], counts[top]
        ok = counts >= (2 if L > 1 else 1)
        gains.append(counts[ok].astype(np.int64) * L)
        lens.append(np.full(int(ok.sum()), L, dtype=np.int64))
        keys.append(uniq[ok])
    if gains:
        gains, lens, keys = map(np.concatenate, (gains, lens, keys))
        # a symbol's bytes compare as its byte-swapped key (same length)
        order = np.lexsort((keys.byteswap(), -lens, gains))[::-1][:MAX_SYMBOLS]
        syms = [
            int(k).to_bytes(8, "little")[:L]
            for k, L in zip(keys[order].tolist(), lens[order].tolist())
        ]
    else:
        syms = []
    table = FsstTable(syms)
    for _ in range(_ROUNDS - 1):
        refined, size = _refine_table(table, s_lengths, s_data)
        # keep the refinement only if it actually helps on the sample
        if not refined.symbols:
            break
        _, new_e = refined.encode(s_lengths, s_data)
        if new_e.size >= size:
            break
        table = refined
    return table
