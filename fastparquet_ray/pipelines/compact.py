"""Shard compaction: merge many small shards into target-size ones.

Lakehouse maintenance analog of the reference's dataset-merge surface
(/root/reference/fastparquet/writer.py:1066-1105 merge /
api.py:1246-1283 metadata_from_many — which concatenates row-group
metadata across files); here the data itself is rewritten at the shard
level. Small shards accumulate from salted/hive splits and incremental
appends; at 100 TB a shard-per-tiny-bucket layout pays per-shard
header + symbol-table + open overhead on every read.

Design (plain Ray tasks, resume-safe):

- The frozen CodecPlan is REUSED — codec choice and shared symbol
  tables stay stable, so compaction never changes how values encode,
  only how rows group into shards.
- Bins are formed driver-side from manifest metadata only (one tiny
  row per partition): records ordered by (key_min, partition_id),
  greedily accumulated to ``target_rows``. Single-shard bins are left
  untouched byte-for-byte.
- Each bin is decoded + re-encoded INSIDE one plain Ray task, through
  the encode job's per-worker cache (``job_encoder``: plan tables
  deserialized once per worker process and job); the calling process
  only ever sees manifest records.
- Each merged table is written by the encode step itself
  (``EncodeShard.encode_block``): content-derived shard ids
  (partition_id_for), so the op is idempotent, and the same atomic
  write and manifest record as an encode. The manifest rewrite +
  orphan removal at the end publishes the new layout atomically — a
  killed run leaves the old manifest pointing at the old (still
  present) shards.
"""

from __future__ import annotations

import pyarrow as pa

from ..container import decode_table
from ..state import fs as fsmod
from ..state.manifest import Manifest
from ..stages.encode_stage import job_encoder
from .cluster import submit_in_order


def _compact_bin(job: list, shards: list[str]) -> pa.Table:
    """Task: decode one bin's shards, concat, and write them as ONE
    shard through the encode step (``EncodeShard.encode_block``);
    returns its manifest record."""
    enc = job_encoder(job)
    parts = [
        decode_table(
            fsmod.read_bytes(enc.fs, fsmod.join(enc.fs, enc.root, s)),
            enc.encoder.tables,
        )
        for s in shards
    ]
    return enc.encode_block(pa.concat_tables(parts).combine_chunks())


def compact_shards(
    enc_dir: str,
    target_rows: int = 50_000,
    key_column: str = "doc_id",
    filesystem=None,
) -> dict:
    """Merge small shards into ~``target_rows``-row shards under the
    dataset's frozen plan. Returns a summary dict. Hive ``key=value``
    layouts are rejected (their shard grouping IS the layout)."""
    import ray

    manifest = Manifest(enc_dir, filesystem=filesystem)
    records = manifest.load_records()
    if any("/" in r["shard"] for r in records.values()):
        raise NotImplementedError(
            "compact_shards does not support hive-partitioned layouts"
        )
    plan = manifest.load_plan()

    ordered = sorted(
        records.values(), key=lambda r: (r.get("key_min", ""), r["partition_id"])
    )
    bins: list[list[dict]] = []
    cur: list[dict] = []
    cur_rows = 0
    for r in ordered:
        cur.append(r)
        cur_rows += r["rows"]
        if cur_rows >= target_rows:
            bins.append(cur)
            cur, cur_rows = [], 0
    if cur:
        # fold a trailing undersized bin into its predecessor when that
        # keeps the merge meaningful (more than one shard either way)
        if bins and len(cur) == 1 and len(bins[-1]) > 1:
            bins[-1].extend(cur)
        else:
            bins.append(cur)

    multi = [b for b in bins if len(b) > 1]
    untouched = [r for b in bins if len(b) == 1 for r in b]
    if not multi:
        return {
            "bins": 0,
            "compacted_shards": 0,
            "partitions": len(records),
            "out_dir": enc_dir,
        }

    job = [ray.put({
        "plan_json": plan.to_json(),
        "out_dir": fsmod.for_workers(enc_dir, filesystem),
        "key_column": key_column,
        "filesystem": filesystem,
    })]
    task = ray.remote(_compact_bin)
    outs = submit_in_order(
        lambda b: task.remote(job, [r["shard"] for r in b]), multi
    )
    new_records = [r for t in ray.get(outs) for r in t.to_pylist()]
    # merged shards mix fragments, so no record may vouch for its
    # fragment any more: the next resume takes the content path
    all_records = [
        dict(r, fragment_fp="") for r in [*new_records, *untouched]
    ]
    manifest.write_records(all_records)
    orphans = manifest.remove_orphan_shards(
        {r["partition_id"] for r in all_records}
    )
    return {
        "bins": len(multi),
        "compacted_shards": sum(len(b) for b in multi),
        "partitions": len(all_records),
        "orphans_removed": orphans,
        "rows": int(sum(r["rows"] for r in all_records)),
        "out_dir": enc_dir,
    }


def optimize_layout(
    enc_dir: str,
    out_dir: str,
    cluster_by,
    key_column: str = "doc_id",
) -> dict:
    """Re-layout an EXISTING encoded dataset into a clustered (str
    ``cluster_by``) or Z-ORDERED (list) shard arrangement — the
    OPTIMIZE / OPTIMIZE ZORDER BY operation a table format runs after
    append-heavy ingestion, composed from the engine's own pieces:
    stream-decode to a temporary Parquet spill, then the standard
    encode pipeline with the requested layout, re-using the dataset's
    FROZEN codec plan (compact_shards precedent) so symbol tables —
    and therefore decoded bytes — stay identical across the rewrite.
    Returns the encode summary.

    Scale shape: both hops stream (decode writes one spill file per
    block; encode reads them back pruned to nothing extra); the only
    all-to-all is the layout sort itself. The spill doubles transient
    storage — inherent to any full re-layout (Delta/Iceberg OPTIMIZE
    rewrites files the same way)."""
    import shutil
    import tempfile

    from .decode import decode_dataset
    from .encode import encode_pipeline

    manifest = Manifest(enc_dir)
    plan = manifest.load_plan() if manifest.has_plan() else None
    spill = tempfile.mkdtemp(prefix="fpray_optimize_")
    try:
        # a fresh temp dir with the hive columns in the rows: no
        # sidecar and no resume needed
        decode_dataset(enc_dir).write_parquet(spill)
        return encode_pipeline(
            spill,
            out_dir,
            plan=plan,
            cluster_by=cluster_by,
            key_column=key_column,
            resume=False,
        )
    finally:
        shutil.rmtree(spill, ignore_errors=True)
