"""User-facing API mirroring the reference's surface so a fastparquet
user can switch pipelines with minimal changes:

    reference                           this engine
    ---------                           -----------
    write(fn, df, compression=...)      write(out_dir, df, outer=...,
      (writer.py:810-1049)                column_codecs=..., partition_on=...)
    ParquetFile(fn)                     EncodedDataset(out_dir)
      .to_pandas(columns=...)             .to_pandas(columns=...)
      (api.py:387-475)
      .iter_row_groups()                  .iter_batches()
      (api.py:321-337)
      .head(n) (api.py:231-250)           .head(n)
      .count() (api.py:512-525)           .count()
      .statistics (api.py:822-902)        .statistics()
      .info / .columns                    .info / .columns

Every stat, count, listing and read of an ``EncodedDataset`` comes
from one metadata snapshot (``pipelines.decode.Snapshot``: from the
manifest records; header only for a shard no record covers), rebuilt
when a sidecar changes. Materializing reads — ``to_pandas``, ``head``
and ``take_range`` — run in the calling process: shards are pruned on
the snapshot's stats, then the kept ones are read and decoded
serially, with no Ray Data job (the reference answers these
in-process too). ``write`` and ``verify_against`` run plain Ray
tasks; the lazy Datasets from ``dataset()``, ``iter_batches()`` and
``eds[i:j]`` are Ray Data scans (streaming, distributed). Ray must
already be initialised by the caller for those (or Ray will auto-init
a local session on first use).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Any, Iterator

import pandas as pd
import pyarrow as pa

from .container import read_header
from .pipelines.decode import (
    Snapshot, decode_dataset, read_table, take_row_range,
)
from .pipelines.encode import encode_pipeline
from .pipelines.export import shard_statistics
from .pipelines.verify import verify_roundtrip
from .state import fs as fsmod
from .state.manifest import Manifest


def write(
    out_dir: str,
    data: "pd.DataFrame | pa.Table | str | list[str]",
    outer: str | None = None,
    column_codecs: dict | None = None,
    partition_on_source: "bool | str" = False,
    resume: bool = True,
    hive_cols: list[str] | None = None,
    filesystem=None,
    write_index: bool = False,
) -> dict:
    """Encode a table (or existing parquet path(s)) into an encoded
    shard dataset with manifest. Returns the job summary.

    partition_on_source: True -> write-side "local" bucket split
    (source-pure shards, ZERO network exchange — the measured scale
    default; the salted exchange cost ~5x in BENCH r01); pass "shuffle"
    explicitly for the one-shard-per-bucket salted exchange layout.

    write_index: materialize a DataFrame's index as ordinary columns
    and record them in a ``_pandas.json`` sidecar so
    ``EncodedDataset.to_pandas()`` restores the index (reference
    write_index, writer.py:938-953; read back api.py:556-604).
    Ray blocks don't carry pandas schema metadata, so the sidecar —
    not the per-shard Arrow schema — is the contract here."""
    index_meta = None
    if partition_on_source is True:
        partition_on_source = "local"
    elif partition_on_source == "shuffle":
        partition_on_source = True
    tmp = None
    if isinstance(data, (str, list)):
        paths = data
    else:
        if isinstance(data, pd.DataFrame):
            table = pa.Table.from_pandas(data, preserve_index=write_index)
            if write_index:
                pmd = table.schema.pandas_metadata or {}
                idx_cols = [
                    c for c in pmd.get("index_columns", [])
                    if isinstance(c, str)  # RangeIndex descriptors are dicts
                ]
                if idx_cols:
                    names = {
                        c["field_name"]: c["name"]
                        for c in pmd.get("columns", [])
                        if c.get("field_name") in idx_cols
                    }
                    index_meta = {
                        "index_columns": idx_cols,
                        "index_names": [names.get(c) for c in idx_cols],
                    }
        else:
            table = data
        tmp = tempfile.mkdtemp(prefix="fpray_write_")
        paths = [os.path.join(tmp, "input-00000.parquet")]
    try:
        if tmp is not None:
            import pyarrow.parquet as pq

            pq.write_table(table, paths[0], compression="none")
        summary = encode_pipeline(
            paths,
            out_dir,
            resume=resume,
            outer=outer,
            column_codecs=column_codecs,
            partition_by_source=partition_on_source,
            hive_cols=hive_cols,
            filesystem=filesystem,
        )
    finally:
        if tmp is not None:  # the input copy, encoded or refused
            shutil.rmtree(tmp, ignore_errors=True)
    if not isinstance(data, (str, list)):
        import json

        m = Manifest(out_dir, filesystem=filesystem)
        if index_meta is not None:
            fsmod.atomic_write(
                m.fs, m.pandas_path, json.dumps(index_meta).encode()
            )
        else:
            try:  # overwrite without write_index: drop a stale sidecar
                m.fs.rm(m.pandas_path)
            except (FileNotFoundError, OSError):
                pass
    return summary


def write_simple(
    path: str,
    data: "pd.DataFrame | pa.Table",
    outer: str | None = None,
    write_index: bool = False,
) -> dict:
    """Single-file writer (reference S6: write_simple,
    writer.py:773-807): the whole table becomes ONE self-describing
    shard blob — no manifest, no Ray job; for small side tables and
    interchange. Read back with :func:`read_simple`. Any filesystem
    URI works (fs layer). ``write_index`` preserves a DataFrame index
    through the shard header's pandas schema metadata."""
    from .container import ShardEncoder, partition_id_for

    table = (
        pa.Table.from_pandas(data, preserve_index=write_index)
        if isinstance(data, pd.DataFrame)
        else data
    )
    spec = None
    if outer:
        name, _, lvl = outer.partition(":")
        spec = (name, int(lvl) if lvl else None)
    blob = ShardEncoder(outer=spec).encode_table(
        table, partition_id_for(table)
    )
    fs, rp = fsmod.get_fs(path)
    fsmod.atomic_write(fs, rp, blob)
    hdr = read_header(blob)
    return {
        "rows": hdr["num_rows"],
        "raw_bytes": hdr["raw_bytes"],
        "enc_bytes": hdr["enc_bytes"],
        "path": path,
    }


def read_simple(path: str, columns: list[str] | None = None) -> pa.Table:
    """Read a :func:`write_simple` file back into an Arrow table."""
    from .container import decode_table

    fs, rp = fsmod.get_fs(path)
    return decode_table(fsmod.read_bytes(fs, rp), columns=columns)


class EncodedDataset:
    """Reader over an encoded dataset directory (shards + manifest),
    the `ParquetFile` analog."""

    def __init__(self, out_dir: str, filesystem=None):
        self.out_dir = out_dir
        # explicit fsspec instance (e.g. state.s3compat) wins over URI
        # protocol resolution — reference S10 open_with analog
        self.filesystem = filesystem
        self.manifest = Manifest(out_dir, filesystem=filesystem)
        self._snap, self._sidecars = None, None
        if not self._snapshot().paths:
            raise FileNotFoundError(f"no shards under {out_dir}")

    def _snapshot(self) -> Snapshot:
        """The dir's metadata snapshot, rebuilt when the (size, mtime)
        of ``_manifest.jsonl``, ``_plan.json`` or ``_pandas.json``
        changed. Every encode, compact and ``write`` rewrites the
        manifest; an orphan shard (a run killed before its manifest
        write) shows after the next completed write or in a new
        ``EncodedDataset``."""
        m = self.manifest
        key = []
        for path in (m.path, m.plan_path, m.pandas_path):
            try:
                key.append(fsmod.stat_key(m.fs, path))
            except FileNotFoundError:
                key.append(None)
        if key != self._sidecars:
            self._snap = Snapshot(self.out_dir, self.filesystem)
            self._sidecars = key
        return self._snap

    def _shards(self) -> list[dict]:
        snap = self._snapshot()
        return [snap.shard(p) for p in snap.paths]

    # ----- metadata (no data read) -----

    @property
    def columns(self) -> list[str]:
        snap = self._snapshot()
        return list(snap.shard(snap.paths[0])["stats"])

    @property
    def schema(self) -> pa.Schema:
        """Arrow schema from the first shard header (no data read) —
        reference ParquetFile.schema analog (api.py:529-536)."""
        import base64

        hdr = self._first_header()
        return pa.ipc.read_schema(
            pa.py_buffer(base64.b64decode(hdr["schema"]))
        )

    @property
    def dtypes(self) -> dict:
        """column -> pandas dtype, metadata-only — reference
        ParquetFile.dtypes analog (api.py:538-555)."""
        return {
            f.name: f.type.to_pandas_dtype() for f in self.schema
        }

    @property
    def info(self) -> dict:
        shards = self._shards()
        return {
            "partitions": len(shards),
            "rows": sum(s["rows"] for s in shards),
            "raw_bytes": sum(s["raw_bytes"] for s in shards),
            "enc_bytes": sum(s["enc_bytes"] for s in shards),
            "columns": self.columns,
        }

    def _first_header(self) -> dict:
        snap = self._snapshot()
        return read_header(fsmod.read_header_bytes(snap.fs, snap.paths[0]))

    def count(self) -> int:
        return sum(s["rows"] for s in self._shards())

    def statistics(self) -> pd.DataFrame:
        return shard_statistics(self._snapshot())

    # ----- data reads -----

    def dataset(
        self,
        columns: list[str] | None = None,
        filters=None,
        categories: list[str] | None = None,
    ):
        """The underlying ray.data.Dataset (lazy, streaming).
        ``filters``: [(col, op, val)] conjunctions with shard-stats
        pruning (the reference's to_pandas(filters=...) analog,
        api.py:948-999). ``categories``: string columns returned as
        DictionaryArray without a label gather (reference categories=,
        api.py:387-475)."""
        return decode_dataset(
            self._snapshot(), columns=columns, filters=filters,
            categories=categories,
        )

    def to_pandas(
        self, columns: list[str] | None = None, filters=None,
        categories: list[str] | None = None,
    ) -> pd.DataFrame:
        """Full materializing read (the reference's to_pandas
        contract), decoded in this process with no Ray Data job: shards
        are pruned on the snapshot's stats, the kept ones read and
        decoded serially in sorted shard order, then converted through
        Arrow (pyarrow's to_pandas handles ragged list / nested
        columns). Every kept row lands here — stream large scans with
        :meth:`dataset` or :meth:`iter_batches` instead.
        ``categories`` columns come back as pandas.Categorical."""
        snap = self._snapshot()
        t = read_table(snap, columns, filters=filters, categories=categories)
        if t is None:
            return pd.DataFrame()
        return self._restore_index(t.to_pandas(), snap)

    def _restore_index(
        self, df: pd.DataFrame, snap: Snapshot | None = None
    ) -> pd.DataFrame:
        """Re-apply a write(write_index=True) index from the
        ``_pandas.json`` sidecar (of ``snap``, default the current
        snapshot; reference pandas-metadata read-back,
        api.py:556-604). Skipped when a projection dropped the index
        columns."""
        meta = (snap or self._snapshot()).index_meta
        cols = meta.get("index_columns", [])
        if not cols or not set(cols) <= set(df.columns):
            return df
        df = df.set_index(cols)
        df.index.names = meta.get("index_names", [None] * len(cols))
        return df

    def iter_batches(
        self,
        columns: list[str] | None = None,
        batch_size: int | None = None,
        filters=None,
    ) -> Iterator[pa.Table]:
        """Streaming batches (reference S3 iter_row_groups,
        api.py:321-337, including its filters= support)."""
        yield from self.dataset(columns, filters=filters).iter_batches(
            batch_size=batch_size, batch_format="pyarrow"
        )

    def head(
        self, n: int = 5, columns: list[str] | None = None, filters=None
    ) -> pd.DataFrame:
        """First ``n`` matching rows in sorted shard order (reference
        head, api.py:231-250), decoded in this process like
        :meth:`to_pandas`; no shard after the one that completes ``n``
        rows is opened."""
        t = read_table(self._snapshot(), columns, filters=filters, limit=n)
        return pd.DataFrame() if t is None else t.to_pandas()

    def take_range(
        self, start: int, stop: int, columns: list[str] | None = None
    ) -> pd.DataFrame:
        """Rows [start, stop) of the key-sorted corpus by GLOBAL ROW
        POSITION (clustered layouts only): the snapshot's row counts
        and key ranges (from the manifest records) locate the
        overlapping shards, nothing else is decoded (in this process,
        no Ray Data job) — the dataloader-resume primitive."""
        return take_row_range(self._snapshot(), start, stop, columns=columns)

    def __len__(self) -> int:
        return len(self._snapshot().paths)

    def __getitem__(self, key):
        """Shard-subset dataset (reference S4: ParquetFile.__getitem__
        row-group slicing, api.py:251-263) — ``eds[2:5]`` is a lazy
        Dataset over shards 2..4 only."""
        snap = self._snapshot()
        paths = snap.paths[key] if isinstance(key, slice) else [snap.paths[key]]
        return snap.read(paths)

    def verify_against(self, src_paths: list[str] | str) -> dict:
        return verify_roundtrip(src_paths, self.out_dir)


def read_jsonl(path: str, columns: list[str] | None = None):
    """Lazy ray.data.Dataset over JSON-Lines files (a file, a dir, or
    a glob) — the ingest side of ``pipelines.export.export_jsonl``.
    List columns come back as Arrow lists; integer payloads roundtrip
    losslessly. 0-byte files hold no rows and are left out: a filtered
    export writes one as the resume marker of a shard with no kept
    row, and reading it would give a block without a schema."""
    import ray.data

    from .state import fs as fsmod

    fs, root = fsmod.get_fs(path)
    if fs.isdir(root):
        # as Ray lists a dir: recursive, without hidden or "_" files
        listing = {
            p: info
            for p, info in fs.find(root, detail=True).items()
            if not os.path.basename(p).startswith((".", "_"))
        }
    else:
        listing = fs.glob(root, detail=True) or {root: fs.info(root)}
    proto = "" if fsmod.is_local(fs) else path.split("://", 1)[0] + "://"
    files = [
        proto + p
        for p, info in sorted(listing.items())
        if info["type"] == "file" and info["size"]
    ]
    if not files:
        return ray.data.from_items([])
    ds = ray.data.read_json(files)
    if columns:
        ds = ds.select_columns(columns)
    return ds
