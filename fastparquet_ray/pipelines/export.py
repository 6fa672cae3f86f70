"""Interop sink + dataset maintenance:

- export_parquet: decoded shards -> Parquet dataset via
  ds.write_parquet, optionally hive-partitioned by columns (reference
  S5: write(..., partition_on=[...]), writer.py:1066-1105). Output is
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

import json
import os

import pandas as pd

from ..state.manifest import Manifest
from .decode import Snapshot, decode_dataset, snapshot


def export_parquet(
    enc_dir: str,
    out_dir: str,
    columns: list[str] | None = None,
    partition_cols: list[str] | None = None,
    times: str = "int64",
    common_metadata: bool = True,
) -> str:
    """Write the decoded dataset as a Parquet directory (streaming;
    one file per block, hive dirs when partition_cols given).

    ``times``: "int64" (default, modern TIMESTAMP) or "int96"
    (legacy 12-byte Impala/Hive timestamps — reference
    times='int96', writer.py:302-307) for old readers.

    ``common_metadata``: also write consolidated ``_metadata`` +
    ``_common_metadata`` sidecars so single-footer readers
    (fastparquet/dask convention, pyarrow ``parquet_dataset``) open
    the directory without listing+reading every file footer
    (reference write_common_metadata writer.py:1108-1135)."""
    if times not in ("int64", "int96"):
        raise ValueError(f"times must be int64|int96, got {times!r}")
    ds = decode_dataset(enc_dir, columns=columns)
    kw = {}
    if times == "int96":
        kw["use_deprecated_int96_timestamps"] = True
    if partition_cols:
        ds.write_parquet(out_dir, partition_cols=partition_cols, **kw)
    else:
        ds.write_parquet(out_dir, **kw)
    if common_metadata:
        write_common_metadata(out_dir)
    return out_dir


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

    Footer collection is distributed (FileMetaData pickles, so each
    task returns its shard's footer with the file path stamped); only
    the O(files) footer merge runs on the driver — the same merge the
    reference performs, on KB-sized thrift objects, never data."""
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from ..state import fs as fsmod

    fs, root = fsmod.get_fs(out_dir, filesystem)
    rootp = root.rstrip("/")
    files = sorted(
        p
        for p in fs.find(rootp)
        if p.endswith(".parquet") and not os.path.basename(p).startswith("_")
    )
    if not files:
        raise FileNotFoundError(f"no parquet files under {out_dir}")

    fs_for_tasks = filesystem

    def collect(batch: pd.DataFrame) -> pd.DataFrame:
        out = []
        for path, rel in zip(batch["path"], batch["rel"]):
            f, p = fsmod.get_fs(path, fs_for_tasks)
            with f.open(p, "rb") as fh:
                md = pq.read_metadata(fh)
            md.set_file_path(rel)
            out.append({"rel": rel, "md": md})
        return pd.DataFrame(out)

    jobs = [
        {"path": p, "rel": p[len(rootp):].lstrip("/")} for p in files
    ]
    parts = (
        ray.data.from_items(jobs)
        .map_batches(collect, batch_format="pandas", batch_size=256)
        .to_pandas()  # O(files) footers — metadata-scaled, never data
        .sort_values("rel")
    )
    merged = None
    for md in parts["md"]:
        if merged is None:
            merged = md
        else:
            merged.append_row_groups(md)
    import io

    buf = io.BytesIO()
    merged.write_metadata_file(buf)
    fsmod.atomic_write(fs, fsmod.join(fs, rootp, "_metadata"), buf.getvalue())
    buf = io.BytesIO()
    pq.write_metadata(merged.schema.to_arrow_schema(), buf)
    fsmod.atomic_write(
        fs, fsmod.join(fs, rootp, "_common_metadata"), buf.getvalue()
    )
    return {
        "files": len(files),
        "row_groups": merged.num_row_groups,
        "rows": merged.num_rows,
    }


def export_jsonl(
    enc_dir: str,
    out_dir: str,
    columns: list[str] | None = None,
) -> str:
    """Write the decoded dataset as JSON-Lines files (streaming, one
    file per block) — the interchange format LLM data pipelines pass
    between curation stages. List columns (token arrays) serialize as
    JSON arrays; `read_jsonl` / DuckDB `read_json_auto` read the
    output back losslessly for integer payloads. For floats prefer
    the Parquet sink (JSON text roundtrips are not bit-exact)."""
    ds = decode_dataset(enc_dir, columns=columns)
    ds.write_json(out_dir)
    return out_dir


def export_parquet_resumable(
    enc_dir: str,
    out_dir: str,
    columns: list[str] | None = None,
    filesystem=None,
    times: str = "int64",
) -> dict:
    """Kill-resumable interop export: ONE Parquet file PER SHARD with
    a deterministic name mirrored from the shard's relative path,
    published atomically (tmp + rename) — a re-run skips shards whose
    output already exists, so a killed export resumes from where it
    died instead of rewriting the dataset (the encode manifest's
    resume contract extended to the sink; `ds.write_parquet` names
    files per run, so it cannot skip). Hive `key=value` subdirs are
    mirrored verbatim: partition columns survive via the path, and
    pyarrow/DuckDB reconstruct them exactly as they do for the native
    layout."""
    import io

    import pyarrow.parquet as pq
    import ray
    import ray.data

    from ..container import decode_table
    from ..state import fs as fsmod

    if times not in ("int64", "int96"):
        raise ValueError(f"times must be int64|int96, got {times!r}")
    snap = Snapshot(enc_dir, filesystem)
    out_fs, out_root = fsmod.get_fs(out_dir, filesystem)
    out_fs.makedirs(out_root, exist_ok=True)
    jobs: list[dict] = []
    skipped = 0
    for p in snap.paths:
        rel = snap.rel(p)[: -len(".fprs")] + ".parquet"
        dst = fsmod.join(out_fs, out_root, rel)
        if out_fs.exists(dst):
            skipped += 1
            continue
        jobs.append({"src": snap.proto + p, "dst": dst})
    if not jobs:
        # nothing to export, but a run killed between the last shard
        # and either sidecar write still needs both published; an
        # empty encoded dir has no footer to publish
        if skipped and not all(
            out_fs.exists(fsmod.join(out_fs, out_root, name))
            for name in ("_metadata", "_common_metadata")
        ):
            write_common_metadata(out_dir, filesystem=filesystem)
        return {
            "exported": 0, "skipped": skipped, "rows": 0, "out_dir": out_dir
        }

    tables_ref = ray.put(snap.tables)
    cols = columns
    int96 = times == "int96"
    fs_for_tasks = filesystem  # fsspec filesystems pickle into tasks

    def export_shards(batch: pd.DataFrame) -> pd.DataFrame:
        tbls = ray.get(tables_ref)
        rows = []
        for src, dst in zip(batch["src"], batch["dst"]):
            w_fs, w_path = fsmod.get_fs(dst, fs_for_tasks)
            r_fs, r_path = fsmod.get_fs(src, fs_for_tasks)
            t = decode_table(
                fsmod.read_bytes(r_fs, r_path), tbls, columns=cols
            )
            parent = w_path.rsplit("/", 1)[0]
            if parent:
                w_fs.makedirs(parent, exist_ok=True)
            buf = io.BytesIO()
            pq.write_table(t, buf, use_deprecated_int96_timestamps=int96)
            fsmod.atomic_write(w_fs, w_path, buf.getvalue())
            rows.append({"dst": dst, "rows": t.num_rows})
        return pd.DataFrame(rows)

    done = (
        ray.data.from_items(jobs)
        .map_batches(export_shards, batch_format="pandas", batch_size=64)
        .take_all()  # tiny: one row per shard
    )
    # sidecar last, over ALL files present (skipped ones included), so
    # a resumed run that finishes the stragglers refreshes the footer
    write_common_metadata(out_dir, filesystem=filesystem)
    return {
        "exported": len(done),
        "skipped": skipped,
        "rows": int(sum(r["rows"] for r in done)),
        "out_dir": out_dir,
    }


def shard_statistics(
    enc_dir: "str | Snapshot", filesystem=None
) -> pd.DataFrame:
    """Per-shard, per-column stats from the dataset's snapshot: the
    manifest records, a header only for a shard no record covers (the
    reference reads footer Statistics the same way)."""
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
