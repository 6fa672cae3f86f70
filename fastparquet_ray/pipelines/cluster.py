"""Deterministic range re-layout for clustered / z-order encodes.

``Dataset.sort()`` draws its range boundaries from a per-run random
sample, so two runs over identical input cut blocks differently —
every content-hashed partition id changes, resume never hits, and a
re-run (or a killed run restarted) re-encodes the ENTIRE layout
(round-5 CLI smoke finding; the plain encode path has per-partition
resume, the clustered path silently did not).

This module replaces the sort with a deterministic range-bucket
exchange:

1. boundary pass (summary-scaled): a threshold hash-sample of the
   cluster key — keep values whose deterministic 64-bit hash falls
   under ``samples_per_bucket * n_buckets / total_rows`` of the hash
   space — is sorted on the driver and cut into equal-frequency
   boundaries. Same data => same sample => same boundaries, across
   runs AND across cluster sizes (nothing depends on parallelism).
2. bucket pass: every row gets ``__bucket__ = searchsorted(
   boundaries, key, side='right')`` — buckets are half-open key
   ranges, so shard key ranges stay DISJOINT (the pruning contract).
3. ``exchange(__bucket__, sort_cols)``: one groupby hash exchange
   co-locates each bucket whole; the in-group sort is a vectorized
   Arrow kernel over ~bucket_rows rows. The salted source layout
   (``partition_by_source=True``) runs the same exchange on its salt
   column, without the sort. EncodeShard then splits batches by
   ``__bucket__`` (several groups may share an output block) and
   drops the helper column before hashing, so the partition id is a
   pure function of the bucket's payload — stable across reruns,
   which is what makes clustered resume work.

Scale shape: ONE all-to-all (the groupby), same as the sort it
replaces, plus a key-column-only sample read. Bucket sizing is a pure
function of total_rows (target_buckets), capped at _MAX_BUCKETS so
the driver-side boundary list and sample stay small (64 samples x
65536 buckets ~ 4M keys at the cap). Past ~_MAX_BUCKETS x
_TARGET_BUCKET_ROWS rows (~4e9 at defaults) a single clustering job
should be split into independent key-span sub-jobs (each under the
cap); buckets within a span stay disjoint and span boundaries keep
the global layout disjoint.

Skew note: equal-frequency boundaries bound bucket sizes for keys
with many distinct values (doc ids, Morton keys). A single key value
repeated more often than a bucket target cannot be split further —
such duplicates land in one bucket by construction (ties never
straddle a boundary), which is also what keeps ranges disjoint.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.encode_stage import BUCKET_COL
_SAMPLES_PER_BUCKET = 64
_TARGET_BUCKET_ROWS = 65536
_MIN_SMALL_BUCKETS = 32
_SMALL_BUCKET_ROWS = 500
_MAX_BUCKETS = 65536


def target_buckets(total_rows: int) -> int:
    """Bucket count as a pure function of data size (deterministic
    across runs and cluster sizes): ~_TARGET_BUCKET_ROWS rows per
    bucket on big data; small datasets still get up to
    _MIN_SMALL_BUCKETS buckets so layouts keep enough shards for
    pruning and parallelism."""
    if total_rows <= 0:
        return 1
    big = -(-total_rows // _TARGET_BUCKET_ROWS)
    small = min(_MIN_SMALL_BUCKETS, -(-total_rows // _SMALL_BUCKET_ROWS))
    return int(max(1, min(_MAX_BUCKETS, max(big, small))))


def _key_hash_u64(values: np.ndarray) -> np.ndarray:
    """Deterministic vectorized 64-bit hash (pandas hash_array with
    its fixed default key) — the threshold-sampling coin."""
    return pd.util.hash_array(np.asarray(values), categorize=False)


def total_input_rows(paths: list[str], filesystem=None) -> int:
    """Row count from parquet footers only (no data read)."""
    import pyarrow.parquet as pq

    from ..state import fs as fsmod

    n = 0
    for p in paths:
        fs, rp = fsmod.get_fs(p, filesystem)
        with fs.open(rp, "rb") as f:
            n += pq.ParquetFile(f).metadata.num_rows
    return n


def sample_boundaries(
    keys_ds,
    key_col: str,
    total_rows: int,
    n_buckets: int,
    map_key=None,
) -> np.ndarray:
    """Equal-frequency range boundaries from a deterministic threshold
    hash-sample of ``key_col`` (``map_key`` optionally derives the key
    column first, e.g. the Morton zkey). Returns <= n_buckets - 1
    strictly increasing boundary values; empty => single bucket."""
    if n_buckets <= 1 or total_rows <= 0:
        return np.empty(0, dtype=object)
    p = min(1.0, (_SAMPLES_PER_BUCKET * n_buckets) / total_rows)
    thr = None if p >= 1.0 else np.uint64(int(p * float(2**64)))

    def samp(t: pa.Table) -> pa.Table:
        if map_key is not None:
            t = map_key(t)
        col = t.column(key_col).combine_chunks()
        v = col.to_numpy(zero_copy_only=False)
        if thr is not None:
            v = v[_key_hash_u64(v) < thr]
        return pa.table({key_col: pa.array(v, type=col.type)})

    s = (
        keys_ds.map_batches(samp, batch_format="pyarrow")
        .to_pandas()[key_col]
        .to_numpy()
    )
    if s.size == 0:
        return s
    s = np.sort(s)
    b = int(min(n_buckets, s.size + 1))
    idx = (np.arange(1, b) * s.size) // b
    return np.unique(s[idx])


def exchange(ds, key_col: str, sort_cols=(), drop_cols=()):
    """The one all-to-all of every encode layout (range buckets, z-order
    buckets, salted sources): co-locate each ``key_col`` group with one
    groupby exchange, sort rows inside each group by ``sort_cols`` when
    given (ties beyond them only cost resume hits, never correctness),
    and drop ``drop_cols``. ``key_col`` stays on the output —
    EncodeShard splits merged blocks on it and strips it before
    hashing."""
    sort_cols = list(sort_cols)
    drop_cols = list(drop_cols)

    def finish(g: pa.Table) -> pa.Table:
        keys = [
            (c, "ascending") for c in sort_cols if c in g.column_names
        ]
        if keys and g.num_rows > 1:
            g = g.take(pc.sort_indices(g, sort_keys=keys))
        dc = [c for c in drop_cols if c in g.column_names]
        return g.drop_columns(dc) if dc else g

    return ds.groupby(key_col).map_groups(finish, batch_format="pyarrow")


def bucket_layout(ds, key_col: str, boundaries, sort_cols, drop_cols=()):
    """Assign range buckets (BUCKET_COL) on ``key_col``, then
    ``exchange`` on them, sorting by ``sort_cols`` inside each bucket."""
    import ray

    bnd_ref = ray.put(np.asarray(boundaries))

    def assign(t: pa.Table, _memo={}) -> pa.Table:
        if "b" not in _memo:
            _memo["b"] = ray.get(bnd_ref)
        bnd = _memo["b"]
        v = (
            t.column(key_col)
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
        )
        if bnd.size == 0:
            b = np.zeros(len(v), dtype=np.int32)
        else:
            b = np.searchsorted(bnd, v, side="right").astype(np.int32)
        return t.append_column(BUCKET_COL, pa.array(b, pa.int32()))

    return exchange(
        ds.map_batches(assign, batch_format="pyarrow"),
        BUCKET_COL,
        sort_cols,
        drop_cols,
    )
