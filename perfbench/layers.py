"""Per-layer metrics for the traced run.

The replay calls each layer's public function from outside, over the
run's own inputs and the workload's final encoded dir. The parquet
read, content hash, codec kernels and shard write run serially on one
core in this process; sampling, the cluster exchange, resume and
lookups go through the live Ray session as the pipeline runs them.
Every call is timed as a span, so the per-layer figures and the
exported trace come from the same records.

Which end-to-end figure each layer should move, and on which workload,
is listed in ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import statistics

import pyarrow.parquet as pq
import ray.data

from fastparquet_ray.api import EncodedDataset
from fastparquet_ray.container import (
    ShardEncoder,
    decode_table,
    partition_id_for,
    read_header,
)
from fastparquet_ray.pipelines.cluster import (
    bucket_layout,
    sample_boundaries,
    target_buckets,
    total_input_rows,
)
from fastparquet_ray.pipelines.decode import prune_shards, shard_files
from fastparquet_ray.pipelines.encode import encode_pipeline
from fastparquet_ray.plan import sample_fragments, train_plan
from fastparquet_ray.state import fs as fsmod
from fastparquet_ray.state.manifest import Manifest

from .workloads import check

COLUMNS = ("doc_id", "tokens", "n_tok", "source")
PROBE_KEYS = 5
MB = 1e6


def _timed(tracer, name: str, fn, *args, **kw):
    with tracer.span(name):
        return fn(*args, **kw)


def replay(wl, tracer, work_dir: str) -> dict[str, float]:
    """Time each layer's public call for workload ``wl``, writing only
    under ``work_dir`` and rewriting ``wl.out_dir``'s manifest with the
    same records. Returns every per-layer metric except
    ``verify.exact_s`` and ``trace.overhead_frac``, which come from the
    run itself. Raises CheckFailed when a replayed call returns a wrong
    result."""
    inp, out_dir, T = wl.inp, wl.out_dir, tracer
    m: dict[str, float] = {}

    sample = _timed(T, "plan.sample_fragments", sample_fragments, inp.paths)
    plan = _timed(T, "plan.train_plan", train_plan, sample)
    m["plan.sample_s"] = T.total("plan.sample_fragments")
    m["plan.train_s"] = T.total("plan.train_plan")
    m["plan.sample_rows"] = sample.num_rows

    # single-core serial loop over the fragments
    enc = ShardEncoder(plan.specs, plan.tables, outer=plan.outer)
    fs, root = fsmod.get_fs(work_dir)
    os.makedirs(work_dir, exist_ok=True)
    raw = written = 0
    col_raw = dict.fromkeys(COLUMNS, 0)
    col_bytes = dict.fromkeys(COLUMNS, 0)
    for i, p in enumerate(inp.paths):
        t = _timed(T, "pyarrow.parquet.read_table", pq.read_table, p)
        raw += t.nbytes
        pid = _timed(T, "container.partition_id_for", partition_id_for, t)
        blob = _timed(T, "container.encode_table", enc.encode_table, t, pid)
        _timed(T, "state.fs.atomic_write", fsmod.atomic_write, fs,
               fsmod.join(fs, root, f"shard-{i}.fprs"), blob)
        written += len(blob)
        for c in COLUMNS:
            one = t.select([c])
            b = _timed(T, f"codec.enc.{c}", enc.encode_table, one)
            col_raw[c] += one.nbytes
            col_bytes[c] += read_header(b)["enc_bytes"]
            _timed(T, f"codec.dec.{c}", decode_table, blob, plan.tables,
                   columns=[c])
    m["read.mbps"] = raw / MB / T.total("pyarrow.parquet.read_table")
    m["hash.mbps"] = raw / MB / T.total("container.partition_id_for")
    for c in COLUMNS:
        m[f"codec.enc.{c}.mbps"] = col_raw[c] / MB / T.total(f"codec.enc.{c}")
        m[f"codec.dec.{c}.mbps"] = col_raw[c] / MB / T.total(f"codec.dec.{c}")
        m[f"codec.bytes.{c}"] = col_bytes[c]
    m["write.mbps"] = written / MB / T.total("state.fs.atomic_write")

    # one fresh plain encode in the warm session against the sum of
    # the layers it is made of; the rest is scheduling and transfer
    layer_sum = sum(
        T.total(n) for n in (
            "plan.sample_fragments", "plan.train_plan",
            "pyarrow.parquet.read_table", "container.partition_id_for",
            "container.encode_table", "state.fs.atomic_write",
        )
    )
    fresh = os.path.join(work_dir, "encode")
    s = _timed(T, "replay.encode_pipeline", encode_pipeline, inp.paths,
               fresh, resume=False)
    check(s["rows"] == inp.rows, "replay encode rows")
    m["encode.layer_sum_s"] = layer_sum
    m["encode.gap_s"] = T.total("replay.encode_pipeline") - layer_sum

    # metadata layers over the workload's own encoded dir
    shards = shard_files(out_dir)
    for p in shards:
        sfs, rp = fsmod.get_fs(p)
        with T.span("state.fs.read_header_bytes+container.read_header"):
            read_header(fsmod.read_header_bytes(sfs, rp))
    m["header.read_s"] = T.total(
        "state.fs.read_header_bytes+container.read_header"
    )
    m["header.reads"] = len(shards)

    man = Manifest(out_dir)
    done = _timed(T, "manifest.finished_ids", man.finished_ids)
    recs = man.load_records()
    check(done == set(recs), "finished ids differ from the manifest")
    _timed(T, "manifest.write_records", man.write_records,
           list(recs.values()))
    gone = _timed(T, "manifest.remove_orphan_shards",
                  man.remove_orphan_shards, set(recs))
    check(gone == 0, f"orphan sweep removed {gone} live shards")
    m["manifest.finished_ids_s"] = T.total("manifest.finished_ids")
    m["manifest.write_records_s"] = T.total("manifest.write_records")
    m["manifest.remove_orphans_s"] = T.total("manifest.remove_orphan_shards")

    r = _timed(T, "replay.resume", encode_pipeline, inp.paths, out_dir,
               resume=True, cluster_by=wl.cluster_by)
    check(r["skipped"] == r["partitions"] == len(recs), f"resume {r}")
    m["resume.skip_frac"] = r["skipped"] / r["partitions"]

    # header-stat pruning and the lookup it serves
    _, out_root = fsmod.get_fs(out_dir)
    eds = EncodedDataset(out_dir)
    kept = []
    for k in inp.keys[:PROBE_KEYS]:
        flt = [("doc_id", "==", k)]
        kept.append(len(_timed(T, "pipelines.decode.prune_shards",
                               prune_shards, shards, flt, root=out_root)))
        df = _timed(T, "replay.lookup", eds.to_pandas, filters=flt)
        check(len(df) == 1, f"replay lookup {k!r} rows {len(df)}")
    m["prune.s"] = T.median("pipelines.decode.prune_shards")
    m["prune.kept_frac"] = statistics.mean(kept) / len(shards)
    m["scan.exec_s"] = T.median("replay.lookup") - m["prune.s"]

    # the range-bucket exchange behind cluster_by, on the same input
    rows = total_input_rows(inp.paths)
    with T.span("pipelines.cluster.sample_boundaries"):
        bnd = sample_boundaries(
            ray.data.read_parquet(inp.paths, columns=["doc_id"]), "doc_id",
            rows, target_buckets(rows),
        )
    with T.span("pipelines.cluster.bucket_layout"):
        n = bucket_layout(
            ray.data.read_parquet(inp.paths), "doc_id", bnd,
            sort_cols=["doc_id"],
        ).materialize().count()
    check(n == rows, f"exchange returned {n} rows")
    m["cluster.boundaries_s"] = T.total("pipelines.cluster.sample_boundaries")
    m["cluster.exchange_s"] = T.total("pipelines.cluster.bucket_layout")
    return m
