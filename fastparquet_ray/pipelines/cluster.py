"""Deterministic range re-layout for clustered / z-order encodes, and
``exchange``, the one all-to-all of the core.

``Dataset.sort()`` draws its range boundaries from a per-run random
sample, so two runs over identical input cut blocks differently: every
content-hashed partition id changes and resume never hits. This module
replaces it with a deterministic range-bucket exchange:

1. boundary pass (summary-scaled), a key pass of plain Ray tasks (one
   per run of blocks, ``pack``; in an encode each reads only the key
   columns): a threshold hash-sample of the cluster key — keep values
   whose deterministic 64-bit hash falls under ``samples_per_bucket *
   n_buckets / total_rows`` of the hash space — is sorted on the
   driver and cut into equal-frequency boundaries. Same data => same
   sample => same boundaries, across runs AND across cluster sizes
   (nothing depends on parallelism). ``start_sample`` submits the
   tasks and cuts later, so an encode overlaps them with planning.
2. bucket pass: every row gets ``__bucket__ = searchsorted(
   boundaries, key, side='right')`` — buckets are half-open key
   ranges, so shard key ranges stay DISJOINT (the pruning contract).
3. ``map_reduce(__bucket__, sort_cols)``: plain Ray tasks. Each map
   task assigns the buckets of a run of input blocks (in an encode, it
   first reads them from their files), concatenates them in order and
   stable-splits the rows over R reducers; each reducer concatenates
   its parts in input-block order and stable-sorts them by (bucket,
   sort_cols), so every bucket lands whole in one reducer, in an order
   fixed by the data alone. In an
   encode the reducer then encodes its rows (``finish``): EncodeShard
   splits them by ``__bucket__`` and drops it before hashing, so the
   partition id is a pure function of the bucket's payload, which is
   what makes clustered resume work, and the reducer returns manifest
   records, not rows. The salted source layout
   (``partition_by_source=True``) runs the same map/reduce on the
   salt, and exact verify on the row fingerprint. ``exchange`` wraps
   it for a Dataset (``bucket_layout``) and returns the sorted blocks.

Scale shape: ONE all-to-all (M map tasks x R parts), plus a
key-column-only sample read (two for z-order: profile, then sample).
M, R and the key-pass task count all come from ``reducer_count``:
max(CPUs, input bytes / target block size), at most one task per
block (M, key passes) or bucket (R). Bucket sizing is a pure function
of total_rows (target_buckets), capped at _MAX_BUCKETS so the
driver-side boundary list and sample stay small (64 samples x 65536
buckets ~ 4M keys at the cap). Past ~_MAX_BUCKETS x _TARGET_BUCKET_ROWS rows (~4e9)
a clustering job should be split into independent key-span sub-jobs;
span boundaries keep the global layout disjoint.

Skew note: equal-frequency boundaries bound bucket sizes for keys
with many distinct values (doc ids, Morton keys). A single key value
repeated more often than a bucket target cannot be split further —
ties never straddle a boundary, which is also what keeps ranges
disjoint.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.encode_stage import BUCKET_COL

_SAMPLES_PER_BUCKET = 64
# Assumes ~0.85 KB rows, as in the tokens table: 65,536 of them are
# ~56 MB, under half the default 128 MiB target block. Buckets are cut
# by rows, not bytes: a wider payload makes bigger buckets, and each
# still stays one block and one shard, as the exchange never splits a
# key.
_TARGET_BUCKET_ROWS = 65536
_MIN_SMALL_BUCKETS = 32
_SMALL_BUCKET_ROWS = 500
_MAX_BUCKETS = 65536
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


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
    keys,
    key_col: str,
    total_rows: int,
    n_buckets: int,
    map_key=None,
    prepare=None,
) -> np.ndarray:
    """Equal-frequency range boundaries from a deterministic threshold
    hash-sample of ``key_col`` (``map_key`` optionally derives the key
    column first, e.g. the Morton zkey). ``keys`` is a Dataset or runs
    of items that ``prepare`` turns into tables (``key_runs``). Returns
    <= n_buckets - 1 strictly increasing boundary values; empty =>
    single bucket."""
    return start_sample(
        keys, key_col, total_rows, n_buckets, map_key, prepare
    )()


def _sample(prepare, map_key, key_col: str, thr, *items) -> pa.Table:
    """Key-pass task: the threshold hash-sample of ``key_col`` over a
    run of items, in order."""
    import pandas as pd

    out = []
    for t in items:
        t = t if prepare is None else prepare(t)
        if map_key is not None:
            t = map_key(t)
        col = t.column(key_col).combine_chunks()
        v = col.to_numpy(zero_copy_only=False)
        if thr is not None:
            # the threshold-sampling coin: pandas' fixed-key hash
            v = v[pd.util.hash_array(v, categorize=False) < thr]
        out.append(pa.table({key_col: pa.array(v, type=col.type)}))
    return pa.concat_tables(out)


def start_sample(
    keys, key_col: str, total_rows: int, n_buckets: int, map_key=None,
    prepare=None,
):
    """``sample_boundaries`` in two steps: submit its tasks now and
    return ``wait()``, which cuts the boundaries from their samples."""
    if n_buckets <= 1 or total_rows <= 0:
        return lambda: np.empty(0, dtype=object)
    import ray

    p = min(1.0, (_SAMPLES_PER_BUCKET * n_buckets) / total_rows)
    thr = None if p >= 1.0 else np.uint64(int(p * float(2**64)))
    task = ray.remote(_sample)
    outs = submit_in_order(
        lambda run: task.remote(prepare, map_key, key_col, thr, *run),
        key_runs(keys),
    )

    def wait() -> np.ndarray:
        parts = ray.get(outs)
        if not parts:
            return np.empty(0, dtype=object)
        s = pa.concat_tables(parts).to_pandas()[key_col].to_numpy()
        if s.size == 0:
            return s
        s = np.sort(s)
        b = int(min(n_buckets, s.size + 1))
        idx = (np.arange(1, b) * s.size) // b
        return np.unique(s[idx])

    return wait


def _split(prepare, key_col: str, n: int, *blocks):
    """Map task: ``prepare`` each of a run of blocks (or build it: the
    encode job's map input is a block to read), concatenate them in
    order, then stable-split the rows into ``n`` parts on the integer
    ``key_col`` by Fibonacci hashing, which spreads consecutive bucket
    ids and salts evenly."""
    t = pa.concat_tables(
        [b if prepare is None else prepare(b) for b in blocks],
        promote_options="default",
    )
    h = t.column(key_col).to_numpy().astype(np.uint64) * _GOLDEN
    part = ((h >> np.uint64(32)) * np.uint64(n)) >> np.uint64(32)
    order = np.argsort(part, kind="stable")
    cuts = np.searchsorted(part, np.arange(1, n), sorter=order)
    parts = [t.take(i) for i in np.split(order, cuts)]
    return parts if n > 1 else parts[0]


def _merge(key_col: str, sort_cols, drop_cols, finish, *parts):
    """Reduce task: concatenate the parts in map order, stable-sort by
    (``key_col``, ``sort_cols``), drop ``drop_cols``, apply ``finish``
    (not to a reducer that received no rows)."""
    t = pa.concat_tables(parts, promote_options="default")
    names = [c for c in (key_col, *sort_cols) if c in t.schema.names]
    keys = [(c, "ascending") for c in names]
    t = t.take(pc.sort_indices(t, sort_keys=keys)).drop_columns(drop_cols)
    t = t if finish is None or not t.num_rows else finish(t)
    return t, t.num_rows


def submit_in_order(submit, items, done=lambda out: out) -> list:
    """``submit(item)`` for each item in order, with at most 2 x Ray
    CPUs of them unfinished at a time (``done(out)`` is the ref that
    completes with a task); returns every task's output, in order."""
    import ray

    limit = 2 * max(1, int(ray.cluster_resources().get("CPU", 1)))
    outs, pending = [], []
    for item in items:
        if len(pending) >= limit:
            _, pending = ray.wait(pending, fetch_local=False)
        outs.append(submit(item))
        pending.append(done(outs[-1]))
    return outs


def block_target() -> int:
    """Ray Data's ``target_max_block_size``: the core's block size."""
    from ray.data import DataContext

    return DataContext.get_current().target_max_block_size


def reducer_count(size: int, n_items: int | None) -> int:
    """The task count of every Ray job of the core: max(Ray CPUs,
    ``size`` bytes / ``block_target()``), at most ``n_items`` (one task
    per item: an input block, a key, a shard). As the exchange's R it
    decides which keys share a reducer, never the rows of a key or
    their order."""
    import ray

    n = max(
        int(ray.cluster_resources().get("CPU", 1)),
        -(-size // block_target()),
    )
    return max(1, min(n, n_items or n))


def pack(items: list, sizes: list[int]) -> list[list]:
    """``items`` cut into ``reducer_count`` contiguous runs of about
    equal bytes (``sizes``), in order: one task per run. An item goes
    to the run its byte midpoint falls in."""
    if not items:
        return []
    n = reducer_count(sum(sizes), len(items))
    total = max(1, sum(sizes))
    runs = [[] for _ in range(n)]
    pre = 0
    for item, size in zip(items, sizes):
        runs[min(n - 1, (2 * pre + size) * n // (2 * total))].append(item)
        pre += size
    return [r for r in runs if r]


def key_runs(keys) -> list[list]:
    """The runs of a key pass: ``keys`` itself when it is a list of
    runs, else the packed blocks of a Dataset (``dataset_blocks``)."""
    return keys if isinstance(keys, list) else pack(*dataset_blocks(keys))


def dataset_blocks(ds) -> tuple[list, list[int]]:
    """The non-empty blocks of the Dataset ``ds`` in input-block
    order, not completion order, with their bytes."""
    ds.context.execution_options.preserve_order = True
    blocks, sizes = [], []
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            # an empty read block may lack the schema
            if meta.num_rows != 0:
                blocks.append(ref)
                sizes.append(meta.size_bytes or 0)
    return blocks, sizes


def map_reduce(
    runs, key_col: str, n: int, sort_cols=(), drop_cols=(),
    prepare=None, finish=None,
) -> list:
    """The one all-to-all of the core (module docstring, step 3): one
    ``_split`` task per run of items (``pack``), submitted in order,
    and ``n`` ``_merge`` tasks. Map tasks ``prepare`` their items and
    split the rows on the integer ``key_col``; reducers concatenate
    their parts in input order, stable-sort by (``key_col``,
    ``sort_cols``), drop ``drop_cols`` and apply ``finish``. Returns
    one (table ref, row count ref) per reducer, none without runs."""
    import ray

    if not runs:
        return []
    split = ray.remote(_split).options(num_returns=n)
    prep = ray.put(prepare)
    maps = submit_in_order(
        lambda run: split.remote(prep, key_col, n, *run), runs,
        done=lambda out: out[0] if n > 1 else out,
    )
    merge = ray.remote(_merge).options(num_returns=2)
    return [
        merge.remote(key_col, sort_cols, drop_cols, finish,
                     *[m[i] if n > 1 else m for m in maps])
        for i in range(n)
    ]


def exchange(
    ds, key_col: str, sort_cols=(), drop_cols=(), prepare=None,
    n_keys: int | None = None,
):
    """``map_reduce`` over the blocks of the Dataset ``ds``, for
    ``bucket_layout``. Returns the non-empty reducer outputs as a
    Dataset whose blocks hold whole keys."""
    import ray
    import ray.data

    blocks, sizes = dataset_blocks(ds)
    outs = map_reduce(
        pack(blocks, sizes), key_col, reducer_count(sum(sizes), n_keys),
        sort_cols, drop_cols, prepare,
    )
    rows = ray.get([r for _, r in outs])
    return ray.data.from_arrow_refs(
        [t for (t, _), k in zip(outs, rows) if k]
    )


def range_bucket(key_col: str, boundaries):
    """The map step of a range-bucket exchange: appends BUCKET_COL,
    the half-open range of ``boundaries`` each row's ``key_col`` falls
    in."""
    bnd = np.asarray(boundaries)

    def assign(t: pa.Table) -> pa.Table:
        b = np.searchsorted(bnd, t.column(key_col).to_numpy(), side="right")
        return t.append_column(BUCKET_COL, pa.array(b.astype(np.int32)))

    return assign


def bucket_layout(ds, key_col: str, boundaries, sort_cols, drop_cols=()):
    """``exchange`` on the range bucket (BUCKET_COL) of ``key_col``,
    assigned in the map step, sorting by ``sort_cols`` inside each."""
    return exchange(
        ds, BUCKET_COL, sort_cols, drop_cols,
        prepare=range_bucket(key_col, boundaries),
        n_keys=len(boundaries) + 1,
    )
