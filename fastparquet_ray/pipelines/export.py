"""Interop sinks + dataset maintenance:

- export_parquet / export_jsonl: decoded shards -> one Parquet or
  JSON-Lines file PER KEPT SHARD, named after the shard's relative
  path and published atomically (tmp + rename) by plain Ray tasks,
  one per contiguous byte-balanced run of shards (``cluster.pack``,
  no Ray Data job). A rerun skips every
  file that already exists, so a killed export resumes where it died
  (the encode manifest's resume contract extended to the sink).
  ``filters`` prune shards on their stats and select rows exactly as
  ``decode_dataset`` does. Parquet output mirrors hive `key=value`
  dirs (partition columns live in the path, as the reference's
  partition_on layout writes them, writer.py:1066-1105) and gets
  ``_metadata`` + ``_common_metadata`` sidecars last; JSON-Lines
  output is flat, with the hive columns in the rows. Output is
  readable by pyarrow/DuckDB — the cross-engine conformance surface
  (SURVEY.md §5 layer 3).
- shard_statistics: per-shard, per-column min/max/null stats from the
  manifest records (a header only for a shard no record covers), no
  data read (reference A2: statistics(pf), api.py:822-902 reads thrift
  Statistics; ours are copied from the shard header JSON into each
  record).
- merge_manifests: consolidate several encoded dirs into one manifest
  view (reference S8: merge()/metadata_from_many, writer.py:1156-1193,
  util.py:115-213).
"""

from __future__ import annotations

import io
import json
import os
from typing import TYPE_CHECKING

import pyarrow.parquet as pq

from ..state import fs as fsmod
from ..state.manifest import Manifest
from .cluster import pack, submit_in_order
from .decode import Snapshot, decode_shard, snapshot
from .hive import parse_hive_parts

if TYPE_CHECKING:
    import pandas as pd

# the arguments an export dir was first written with: a rerun with
# other arguments would keep the old files next to the new ones. The
# "_" prefix and the extension keep it out of pyarrow's listing,
# DuckDB's "*.json" glob and Ray's read_json.
EXPORT_ARGS = "_export.args"
SIDECARS = ("_metadata", "_common_metadata")


def export_parquet(
    enc_dir: str,
    out_dir: str,
    columns: list[str] | None = None,
    filters=None,
    times: str = "int64",
    filesystem=None,
) -> dict:
    """Write the decoded dataset as a Parquet directory, one file per
    kept shard, then consolidated ``_metadata`` + ``_common_metadata``
    sidecars so single-footer readers (fastparquet/dask convention,
    pyarrow ``parquet_dataset``) open it without listing and reading
    every footer (reference write_common_metadata writer.py:1108-1135).
    Returns ``{"exported", "skipped", "rows", "out_dir"}``.

    ``times``: "int64" (default, modern TIMESTAMP) or "int96"
    (legacy 12-byte Impala/Hive timestamps — reference
    times='int96', writer.py:302-307) for old readers."""
    if times not in ("int64", "int96"):
        raise ValueError(f"times must be int64|int96, got {times!r}")
    return _export(enc_dir, out_dir, "parquet", columns, filters, times,
                   filesystem)


def export_jsonl(
    enc_dir: str,
    out_dir: str,
    columns: list[str] | None = None,
    filters=None,
) -> dict:
    """Write the decoded dataset as flat ``<shard>.json`` JSON-Lines
    files, one per kept shard — the interchange format LLM data
    pipelines pass between curation stages. List columns (token
    arrays) serialize as JSON arrays; `read_jsonl` / DuckDB
    `read_json_auto` read the output back losslessly for integer
    payloads. For floats prefer the Parquet sink (JSON text roundtrips
    are not bit-exact). Returns the summary ``export_parquet`` does."""
    return _export(enc_dir, out_dir, "jsonl", columns, filters, None, None)


def _export_run(fmt, columns, filters, int96, in_fs, hive, out_fs, tables,
                *jobs) -> list[int]:
    """Export task: decode each (shard, relative path, output file) of
    a run with ``decode_shard``, publish it; returns its rows."""
    rows = []
    for path, rel, dst in jobs:
        t = decode_shard(
            fsmod.read_bytes(in_fs, path), path, tables, columns,
            hive=hive, filters=filters,
        )
        if fmt == "jsonl":
            # an empty table would print one blank line
            data = (
                t.to_pandas().to_json(orient="records", lines=True)
                .encode() if t.num_rows else b""
            )
        else:
            # the mirrored key=value dirs carry the partition columns;
            # repeating them in the file makes pyarrow refuse the dataset
            t = t.drop_columns(
                [c for c in parse_hive_parts(rel) if c in t.column_names]
            )
            buf = io.BytesIO()
            pq.write_table(t, buf, use_deprecated_int96_timestamps=int96)
            data = buf.getvalue()
        out_fs.makedirs(dst.rsplit("/", 1)[0], exist_ok=True)
        fsmod.atomic_write(out_fs, dst, data)
        rows.append(t.num_rows)
    return rows


def _export(enc_dir, out_dir, fmt, columns, filters, times, filesystem):
    """The one export path: every kept shard becomes one file named
    after its relative path, written by ``_export_run`` in a Ray task
    per contiguous run of shards of about equal ``raw_bytes``
    (``cluster.pack``); files already present are skipped. An encoded
    dir with no kept shard writes nothing."""
    import ray

    snap = Snapshot(enc_dir, filesystem)
    kept = snap.prune(filters, snap.paths)
    out_fs, out_root = fsmod.get_fs(out_dir, filesystem)
    out_fs.makedirs(out_root, exist_ok=True)
    summary = {"exported": 0, "skipped": 0, "rows": 0, "out_dir": out_dir}
    if not kept:
        return summary
    _claim(out_fs, out_root, {
        "format": fmt, "columns": columns, "filters": filters, "times": times,
    })
    ext = {"parquet": ".parquet", "jsonl": ".json"}[fmt]
    jobs = []
    for p in kept:
        rel = snap.rel(p)
        # JSON-Lines output is flat: the hive values ride in the rows
        name = rel.rsplit("/", 1)[-1] if fmt == "jsonl" else rel
        dst = fsmod.join(out_fs, out_root, name[: -len(".fprs")] + ext)
        if out_fs.exists(dst):
            summary["skipped"] += 1
        else:
            jobs.append((p, rel, dst))

    if jobs:
        task = ray.remote(_export_run)
        args = (fmt, columns, filters, times == "int96", snap.fs, snap.hive,
                out_fs, ray.put(snap.tables))
        outs = submit_in_order(
            lambda run: task.remote(*args, *run),
            pack(jobs, [snap.shard(j[0])["raw_bytes"] for j in jobs]),
        )
        rows = [n for r in ray.get(outs) for n in r]
        summary["exported"] = len(rows)
        summary["rows"] = int(sum(rows))
    # sidecars last, over ALL files present (skipped ones included):
    # a rerun after a kill between the last file and either sidecar
    # publishes both
    if fmt == "parquet" and (jobs or not all(
        out_fs.exists(fsmod.join(out_fs, out_root, n)) for n in SIDECARS
    )):
        write_common_metadata(out_dir, filesystem=filesystem)
    return summary


def _claim(fs, root: str, args: dict) -> None:
    """Record ``args`` as the arguments of the export in ``root`` or,
    when an earlier run recorded others, raise a ValueError naming the
    first that differs. The record is written before any file, so it
    holds for a run killed before its sidecars too."""
    path = fsmod.join(fs, root, EXPORT_ARGS)
    # set values sort: their iteration order varies between processes
    args = json.loads(json.dumps(args, default=lambda v: (
        sorted(v, key=repr) if isinstance(v, (set, frozenset)) else str(v)
    )))
    try:
        old = json.loads(fsmod.read_bytes(fs, path))
    except FileNotFoundError:
        fsmod.atomic_write(fs, path, json.dumps(args).encode())
        return
    for k, v in args.items():
        if old.get(k) != v:
            raise ValueError(
                f"{root} holds an export made with {k}={old.get(k)!r}, "
                f"not {k}={v!r}: rerun with the same arguments or "
                "export into another dir"
            )


def _footers(fs, *files) -> list:
    """Footer task: the parquet footer of each (path, relative path)
    of a run of files, stamped with its relative path."""
    out = []
    for path, rel in files:
        with fs.open(path, "rb") as fh:
            md = pq.read_metadata(fh)
        md.set_file_path(rel)
        out.append(md)
    return out


def write_common_metadata(out_dir: str, filesystem=None) -> dict:
    """Consolidate the footers of every ``*.parquet`` file under
    ``out_dir`` into a ``_metadata`` sidecar (all row groups, each
    stamped with its file's dir-relative path) plus a schema-only
    ``_common_metadata``, the fastparquet/dask one-footer convention
    (reference writer.py:1108-1135 write_common_metadata +
    util.py:115-213 metadata_from_many). A reader then plans the whole
    dataset — row-group pruning included — from ONE footer read
    instead of listing and opening N files: pyarrow consumes it via
    ``pyarrow.dataset.parquet_dataset(out_dir + '/_metadata')``.

    Footer collection is distributed: one ``_footers`` task per
    contiguous run of files of about equal bytes (``cluster.pack``;
    FileMetaData pickles). Only the O(files) footer merge, in sorted
    relative-path order, runs on the driver — the same merge the
    reference performs, on KB-sized thrift objects, never data."""
    import ray

    fs, root = fsmod.get_fs(out_dir, filesystem)
    rootp = root.rstrip("/")
    sizes = {
        p: info["size"]
        for p, info in fs.find(rootp, detail=True).items()
        if p.endswith(".parquet") and not os.path.basename(p).startswith("_")
    }
    if not sizes:
        raise FileNotFoundError(f"no parquet files under {out_dir}")
    # every path starts with rootp + "/": sorted paths are sorted rels
    files = [(p, p[len(rootp):].lstrip("/")) for p in sorted(sizes)]
    task = ray.remote(_footers)
    outs = submit_in_order(
        lambda run: task.remote(fs, *run),
        pack(files, [sizes[p] for p, _ in files]),
    )
    merged, *rest = [md for run in ray.get(outs) for md in run]
    for md in rest:
        merged.append_row_groups(md)
    full, common = io.BytesIO(), io.BytesIO()
    merged.write_metadata_file(full)
    pq.write_metadata(merged.schema.to_arrow_schema(), common)
    for name, buf in zip(SIDECARS, (full, common)):
        fsmod.atomic_write(fs, fsmod.join(fs, rootp, name), buf.getvalue())
    return {
        "files": len(files),
        "row_groups": merged.num_row_groups,
        "rows": merged.num_rows,
    }


def shard_statistics(
    enc_dir: "str | Snapshot", filesystem=None
) -> pd.DataFrame:
    """Per-shard, per-column stats from the dataset's snapshot: the
    manifest records, a header only for a shard no record covers (the
    reference reads footer Statistics the same way)."""
    import pandas as pd

    snap = snapshot(enc_dir, filesystem)
    rows = []
    for path in snap.paths:
        s = snap.shard(path)
        for name, c in s["stats"].items():
            rows.append(
                {
                    "shard": os.path.basename(path),
                    "column": name,
                    "kind": c["kind"],
                    "null_count": c.get("null_count", 0),
                    "min": c.get("min"),
                    "max": c.get("max"),
                    "distinct": c.get("distinct"),
                    "enc_bytes": c["length"],
                    "rows": s["rows"],
                    # vocabulary-drift signal: values this shard had to
                    # escape past the plan-shared zrank table
                    "zrank_extras": c.get("zrank_extras", 0),
                }
            )
    return pd.DataFrame(rows)


def sorted_partitioned_columns(enc_dir: "str | Snapshot") -> pd.DataFrame:
    """Columns whose per-shard [min, max] ranges do not overlap across
    shards — i.e. globally range-partitioned (reference A4:
    sorted_partitioned_columns, api.py:905-945)."""
    import pandas as pd

    stats = shard_statistics(enc_dir)
    out = []
    for col, g in stats.dropna(subset=["min", "max"]).groupby("column"):
        g = g.sort_values("min")
        ok = bool(
            (g["max"].to_numpy()[:-1] <= g["min"].to_numpy()[1:]).all()
        )
        out.append({"column": col, "range_partitioned": ok})
    return pd.DataFrame(out)


def consolidate_categories(enc_dir: "str | Snapshot") -> pd.DataFrame:
    """Per-column maximum distinct-value count across shards
    (reference A6: consolidate_categories merges num_categories across
    row groups into the pandas metadata, writer.py:1138-1153; here the
    distinct hints live in the shard stats). Metadata-only scan."""
    stats = shard_statistics(enc_dir)
    out = (
        stats.dropna(subset=["distinct"])
        .groupby("column", as_index=False)
        .agg(max_distinct=("distinct", "max"), shards=("shard", "nunique"))
    )
    out["max_distinct"] = out["max_distinct"].astype("int64")
    return out.sort_values("column").reset_index(drop=True)


def merge_manifests(enc_dirs: list[str], out_path: str) -> dict:
    """Concatenate the manifests of several encoded dirs into one
    consolidated JSONL (shard paths rewritten relative to their dir),
    returning summary totals."""
    total = {"partitions": 0, "rows": 0, "raw_bytes": 0, "enc_bytes": 0}
    with open(out_path + ".tmp", "w") as f:
        for d in enc_dirs:
            m = Manifest(d)
            for pid, rec in sorted(m.load_records().items()):
                rec = dict(rec)
                rec["shard"] = os.path.join(d, rec["shard"])
                f.write(json.dumps(rec, separators=(",", ":")) + "\n")
                total["partitions"] += 1
                total["rows"] += rec.get("rows", 0)
                total["raw_bytes"] += rec.get("raw_bytes", 0)
                total["enc_bytes"] += rec.get("enc_bytes", 0)
    os.replace(out_path + ".tmp", out_path)
    return total
