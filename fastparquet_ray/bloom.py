"""Per-shard, per-column bloom filters for equality-predicate shard
pruning.

Min/max header stats (container.py) prune range filters but are
useless for point lookups on columns whose per-shard ranges overlap —
e.g. ``doc_id == X`` over an unclustered corpus touches every shard.
A small bloom filter over each shard's distinct values lets
``prune_shards`` skip shards that provably lack the value, the same
role Parquet's split-block bloom filters play (public spec,
parquet-format BloomFilter.md; the reference fastparquet does not
implement them — this is an improvement, not parity).

Design: classic bloom with double hashing (Kirsch & Mitzenmacher 2006,
public) over a single stable 64-bit value hash (pandas hash_array —
process-independent, str/bytes agree, numeric arrays are
key-independent). m is a power of two targeting ~10 bits per distinct
value, capped at 2^19 bits (64 KB) per column; k = 0.7*m/n clamped to
[1, 7] (~1% false positives at target load, degrading gracefully past
the cap). Filters ride in the JSON shard header (base64), OUTSIDE the
payload, so compression ratios measure data bytes only; they are
opt-in per column (``encode_pipeline(bloom_cols=[...])``) because a
header is read per pruning decision and unique-heavy columns pay
~64 KB per shard.
"""

from __future__ import annotations

import base64

import numpy as np

_CAP_BITS = 1 << 19  # 64 KB per column per shard, max
_MIN_BITS = 1 << 10


def _hash64(values) -> np.ndarray:
    """Stable uint64 hash. Ints (incl. temporal ints in column units)
    hash as an int64 array; everything else as objects (str/bytes
    agree byte-wise in pandas' siphash path — verified)."""
    import pandas as pd

    a = np.asarray(values)
    if a.dtype.kind in "iu":
        a = a.astype(np.int64, copy=False)
    else:
        a = a.astype(object)
    return pd.util.hash_array(a)


def _positions(h: np.ndarray, m: int, i: int) -> np.ndarray:
    h1 = h % np.uint64(m)
    h2 = ((h >> np.uint64(33)) << np.uint64(1)) | np.uint64(1)  # odd step
    return (h1 + np.uint64(i) * h2) % np.uint64(m)


def bloom_build(uniques) -> dict:
    """Bloom dict {"m", "k", "bits"(b64)} over an array of DISTINCT
    values (the caller already computes uniques for header stats)."""
    n = max(1, len(uniques))
    m = 1 << int(np.ceil(np.log2(max(_MIN_BITS, 10 * n))))
    m = min(m, _CAP_BITS)
    k = int(np.clip(round(0.7 * m / n), 1, 7))
    h = _hash64(uniques)
    bits = np.zeros(m >> 3, dtype=np.uint8)
    for i in range(k):
        pos = _positions(h, m, i)
        np.bitwise_or.at(
            bits,
            (pos >> np.uint64(3)).astype(np.int64),
            (np.uint64(1) << (pos & np.uint64(7))).astype(np.uint8),
        )
    return {"m": m, "k": k, "bits": base64.b64encode(bits.tobytes()).decode()}


def bloom_may_contain(bloom: dict, values) -> bool:
    """True iff ANY of ``values`` is possibly in the set (false
    positives possible, false negatives not)."""
    m, k = bloom["m"], bloom["k"]
    bits = np.frombuffer(base64.b64decode(bloom["bits"]), dtype=np.uint8)
    h = _hash64(values)
    ok = np.ones(h.size, dtype=bool)
    for i in range(k):
        pos = _positions(h, m, i)
        byte = bits[(pos >> np.uint64(3)).astype(np.int64)]
        ok &= (byte >> (pos & np.uint64(7)).astype(np.uint8)) & 1 == 1
        if not ok.any():
            return False
    return bool(ok.any())
