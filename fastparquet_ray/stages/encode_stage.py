"""The encode step: ``EncodeShard`` turns one block into shard files
and manifest records, and ``job_encoder`` keeps one of them per job in
each Ray worker process.

The encode job and compaction run plain Ray tasks. Each worker
process builds a job's ``EncodeShard`` (plan parse, shared symbol
tables) on the first task of that job it runs and reuses it for the
job's later tasks (SURVEY.md ST1: the reference reads its dict page
once per column chunk and reuses it across pages, core.py:459-479;
here the trained tables are broadcast once per job and reused across
ALL blocks a worker encodes).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

from ..container import (
    ShardEncoder,
    column_stats,
    partition_id_for,
    read_header,
    shard_length,
)
from ..plan import CodecPlan

# exchange helper columns: the source salt (add_salt_column) and the
# range bucket (pipelines/cluster.py)
SALT_COL = "__salt__"
BUCKET_COL = "__bucket__"

_PRIME = np.uint64(1099511628211)  # FNV prime, used for row fingerprints
# positional weights (wraparound uint64 powers of the prime); position is
# taken mod 4096 — deterministic on both sides of the comparison
_POWERS = np.concatenate(
    [
        np.ones(1, dtype=np.uint64),
        np.cumprod(np.full(4095, _PRIME, dtype=np.uint64)),
    ]
)


class EncodeShard:
    """Encode one Arrow batch -> one shard file + one manifest row.

    Idempotent + resumable: the partition id is a content hash of the
    FULL block (every column — so changed non-key values re-encode
    rather than silently keeping a stale shard), the shard write is
    tmp+rename (atomic), and ids in ``finished`` short-circuit to a
    'skipped' record.
    """

    def __init__(
        self,
        plan_json: str,
        out_dir: str,
        finished: set[str] | None = None,
        key_column: str = "doc_id",
        split_by: list[str] | None = None,
        provenance_col: str | None = None,
        hive_cols: list[str] | None = None,
        filesystem=None,
    ):
        from ..state import fs as fsmod

        plan = CodecPlan.from_json(plan_json)
        self.encoder = ShardEncoder(plan.specs, plan.tables, outer=plan.outer)
        self.out_dir = out_dir
        # out_dir may be a URI (s3://...); resolve once per worker —
        # reference S10 analog: open_with threaded through every write
        # (writer.py:864-869). An explicit ``filesystem`` instance
        # (e.g. state.s3compat for endpoints without an fsspec
        # protocol) is pickled into the job and wins.
        self.fs, self.root = fsmod.get_fs(out_dir, filesystem)
        self.key_column = key_column
        self.split_by = split_by
        # name of the SYNTHETIC read-provenance column to consume as a
        # partition-id salt (None when the user's schema owns a column
        # of that name — then nothing is stripped; ADVICE r02: a bare
        # 'path' check here silently dropped a user-owned column)
        self.provenance_col = provenance_col
        # hive layout (reference partition_on, writer.py:1066-1105):
        # these columns are dropped from the payload and stored in the
        # shard's `key=value` directory path; each incoming batch must
        # be PURE in them (encode_pipeline splits by them upstream)
        self.hive_cols = hive_cols
        self.finished: set[str] = finished or set()

    def encode_block(self, batch: pa.Table) -> pa.Table:
        """One block -> one shard + its manifest record, the block
        taken as it is (``__call__`` first normalizes a block to its
        transported form)."""
        import pyarrow.compute as pc

        # exchange helper columns (source salt, range bucket): split
        # keys only, never payload — dropped BEFORE the content hash so
        # partition ids are pure payload functions
        helpers = [
            c for c in (SALT_COL, BUCKET_COL) if c in batch.column_names
        ]
        if helpers:
            batch = batch.drop_columns(helpers)
        extra = ""
        pcol = self.provenance_col
        if pcol is not None and pcol in batch.column_names:
            # provenance column (the encode job's reader adds it):
            # salts the partition id so duplicate input files don't
            # collapse into one shard; dropped before encoding
            extra = "\x00".join(
                sorted(
                    pc.unique(
                        batch.column(pcol).combine_chunks()
                    ).to_pylist()
                )
            )
            batch = batch.drop_columns([pcol])
        pid = partition_id_for(batch, extra=extra)
        key_range = None
        if self.key_column in batch.column_names and batch.num_rows:
            mm = pc.min_max(batch.column(self.key_column))
            key_range = (str(mm["min"].as_py()), str(mm["max"].as_py()))
        from ..state import fs as fsmod

        subdir = ""
        if self.hive_cols:
            from ..pipelines.hive import encode_component

            comps = []
            for c in self.hive_cols:
                vals = pc.unique(batch.column(c).combine_chunks())
                if len(vals) != 1:
                    raise ValueError(
                        f"hive batch not pure in {c!r}: {len(vals)} values"
                    )
                comps.append(encode_component(c, vals[0].as_py()))
            batch = batch.drop_columns(list(self.hive_cols))
            subdir = "/".join(comps)
            self.fs.makedirs(
                fsmod.join(self.fs, self.root, subdir), exist_ok=True
            )
        shard = f"{subdir}/shard-{pid}.fprs" if subdir else f"shard-{pid}.fprs"
        path = fsmod.join(self.fs, self.root, shard)
        if pid in self.finished and self.fs.exists(path):
            head = fsmod.read_header_bytes(self.fs, path)
            hdr = read_header(head)
            return _manifest_batch(
                pid, shard, batch.num_rows, hdr, "skipped", key_range,
                fragment=extra, shard_bytes=shard_length(head, hdr),
            )
        blob = self.encoder.encode_table(batch, pid)
        fsmod.atomic_write(self.fs, path, blob, suffix=f".{os.getpid()}")
        hdr = read_header(blob)
        return _manifest_batch(
            pid, shard, batch.num_rows, hdr, "encoded", key_range,
            fragment=extra, shard_bytes=len(blob),
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = _as_transported(batch)
        if not self.split_by or not all(
            c in batch.column_names for c in self.split_by
        ):
            return self.encode_block(batch)
        # a block may hold several exchange keys — split so each shard
        # is pure in the split keys (e.g. one (source, salt) bucket)
        import pyarrow.compute as pc

        keys = None
        for c in self.split_by:
            codes = pc.dictionary_encode(
                batch.column(c).combine_chunks()
            ).indices.to_numpy(zero_copy_only=False).astype(np.int64)
            keys = codes if keys is None else keys * 100_003 + codes
        outs = []
        for k in np.unique(keys):
            sub = batch.filter(pa.array(keys == k))
            outs.append(self.encode_block(sub))
        return pa.concat_tables(outs)


# the EncodeShard of the last job this worker process ran a task of
_JOB: dict = {}


def job_encoder(job: list) -> EncodeShard:
    """The ``EncodeShard`` of ``job`` in this worker process. ``job``
    is ``[ref]``, the ``ObjectRef`` of the job's ``EncodeShard``
    keyword arguments (nested, so Ray does not resolve it per task):
    the first task of the job a worker runs builds the encoder, the
    later ones reuse it. A worker keeps one job's encoder."""
    import ray

    (ref,) = job
    if _JOB.get("key") != ref.hex():
        _JOB.clear()
        _JOB.update(key=ref.hex(), enc=EncodeShard(**ray.get(ref)))
    return _JOB["enc"]


def encode_with(job: list, batch: pa.Table) -> pa.Table:
    """Encode ``batch`` with the job's encoder; its manifest records."""
    return job_encoder(job)(batch)


def read_block(
    path: str, row_groups: list[int], columns: list[str] | None = None
) -> pa.Table:
    """Row groups ``row_groups`` of the parquet file at ``path`` (a
    local path or a URI), read in the calling process through
    ``state.fs``, with the types and schema metadata the file's footer
    gives; only ``columns`` when given."""
    import pyarrow.parquet as pq

    from ..state import fs as fsmod

    fs, rp = fsmod.get_fs(path)
    f = pq.ParquetFile(rp, filesystem=fsmod.to_pyarrow_fs(fs))
    return f.read_row_groups(row_groups, columns, use_threads=False)


def _as_transported(batch: pa.Table) -> pa.Table:
    """The block as it reads after crossing the object store. A block
    read in the encode task (the read fuses into it) still carries the
    all-valid bitmaps pyarrow's parquet reader allocates; serializing
    drops them, and shard headers count ``raw_bytes`` as ``nbytes``.
    An Arrow IPC round trip drops exactly what Ray's serializer does,
    so the header is the same however the block arrived, at the cost
    of one copy of the block."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, batch.schema) as w:
        w.write_table(batch)
    return pa.ipc.open_stream(sink.getvalue()).read_all()


def _manifest_batch(
    pid: str, shard: str, rows: int, hdr: dict, status: str,
    key_range: tuple[str, str] | None = None,
    fragment: str = "", shard_bytes: int = 0,
) -> pa.Table:
    """One lineage record per partition (north rule: input fragment /
    key range, codec choice per column, symbol-table hashes, byte
    counts). JSON-encoded detail columns keep the record schema flat.
    ``fragment`` is the block's provenance (NUL-joined input paths);
    ``encode_pipeline`` adds the file's fingerprint, and ``shard_bytes``
    lets a resume check the shard with a stat. ``stats`` holds the
    header's per-column pruning stats (``container.column_stats``), so
    a filtered read prunes without opening the shard."""
    import json

    codecs = {}
    thashes = {}
    for c in hdr.get("columns", []):
        codecs[c["name"]] = c.get("codec", c.get("kind", ""))
        if c.get("table_hash"):
            thashes[c["name"]] = c["table_hash"]
    return pa.table(
        {
            "partition_id": [pid],
            "shard": [shard],
            "rows": [rows],
            "raw_bytes": [hdr.get("raw_bytes", 0)],
            "enc_bytes": [hdr.get("enc_bytes", 0)],
            "status": [status],
            "codecs": [json.dumps(codecs, sort_keys=True)],
            "table_hashes": [json.dumps(thashes, sort_keys=True)],
            # vocabulary-drift signal: values this partition escaped
            # past the plan-shared zrank table (0 when not in use)
            "zrank_extras": [
                sum(c.get("zrank_extras", 0) for c in hdr.get("columns", []))
            ],
            "key_min": [key_range[0] if key_range else ""],
            "key_max": [key_range[1] if key_range else ""],
            "fragment": [fragment],
            "shard_bytes": [shard_bytes],
            "stats": [json.dumps(column_stats(hdr), separators=(",", ":"))],
        }
    )


def _column_row_hashes(col) -> np.ndarray:
    """Per-row uint64 hash of one column (any supported type).
    Vectorized per kind; the generic tail (struct/map/...) stringifies
    — slow but only reached for exotic columns."""
    import pandas as pd
    import pyarrow.compute as pc

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    t = arr.type
    if pa.types.is_dictionary(t):
        arr = arr.cast(t.value_type)
        t = arr.type
    n = len(arr)
    nulls = np.zeros(n, dtype=bool)
    if arr.null_count:
        nulls = ~arr.is_valid().to_numpy(zero_copy_only=False)
    if (pa.types.is_list(t) or pa.types.is_large_list(t)) and (
        pa.types.is_integer(t.value_type) or pa.types.is_floating(t.value_type)
    ) and arr.null_count == 0 and arr.flatten().null_count == 0:
        # positional hash: order inside the list matters (token arrays)
        flat = np.asarray(arr.flatten().to_numpy(zero_copy_only=False))
        flat = (
            flat.view(np.uint64)
            if flat.dtype == np.float64
            else flat.astype(np.uint64)
        )
        lengths = np.asarray(
            pc.list_value_length(arr).to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        pos = np.arange(flat.size, dtype=np.int64) - np.repeat(
            offsets[:-1], lengths
        )
        weighted = flat * _POWERS[pos & 4095]
        th = np.zeros(n, dtype=np.uint64)
        nonempty = lengths > 0
        if nonempty.any():
            th[nonempty] = np.add.reduceat(weighted, offsets[:-1][nonempty])
        return th * _PRIME + np.uint64(0x9E3779B97F4A7C15)
    if pa.types.is_string(t) or pa.types.is_large_string(t) or (
        pa.types.is_binary(t) or pa.types.is_large_binary(t)
    ):
        h = pd.util.hash_array(
            arr.fill_null("" if not pa.types.is_binary(t) else b"")
            .to_pandas()
            .to_numpy(dtype=object)
        ).astype(np.uint64)
    elif pa.types.is_floating(t):
        v = (arr.fill_null(0.0) if arr.null_count else arr).to_numpy(
            zero_copy_only=False
        )
        h = np.ascontiguousarray(v).astype(np.float64).view(np.uint64).copy()
    elif pa.types.is_boolean(t) or pa.types.is_integer(t) or (
        pa.types.is_timestamp(t) or pa.types.is_date(t) or pa.types.is_time(t)
    ):
        from ..container import _to_int_np

        v = _to_int_np(arr.fill_null(0) if arr.null_count else arr)
        h = v.astype(np.int64).view(np.uint64) * _PRIME
    else:
        h = pd.util.hash_array(
            np.array([str(x) for x in arr.to_pylist()], dtype=object)
        ).astype(np.uint64)
    h = h.copy()
    h[nulls] = np.uint64(0xDEAD_BEEF_DEAD_BEEF)
    return h


def row_fingerprints(
    batch: pa.Table,
    key: str = "doc_id",
    list_col: str = "tokens",
    columns: list[str] | None = None,
) -> np.ndarray:
    """Vectorized uint64 per-row fingerprint for distributed roundtrip
    verification (per-row token equality joined on doc_id — BASELINE.md
    correctness gate). Defaults to (key, list_col) when present; falls
    back to EVERY column so generic tables verify too."""
    if columns is None:
        if key in batch.column_names and list_col in batch.column_names:
            columns = [key, list_col]
        else:
            columns = list(batch.column_names)
    h = np.zeros(batch.num_rows, dtype=np.uint64)
    for c in columns:
        h = h * np.uint64(0x100000001B3) ^ _column_row_hashes(batch.column(c))
    return h


def add_salt_column(
    batch: pa.Table, buckets_by_source: dict[str, int], key: str = "doc_id"
) -> pa.Table:
    """Add ``__salt__`` = source_index * 4096 + (hash(doc_id) %
    K(source)), where K grows with the source's sampled frequency —
    bounds the hottest source's partition size (SURVEY.md §4.2 skew
    row). One int key is what ``cluster.exchange`` splits on; two
    sources can share a salt, so shards split on the source too."""
    import pandas as pd

    kh = pd.util.hash_array(
        batch.column(key).to_pandas().to_numpy(dtype=object)
    ).astype(np.uint64)
    src = batch.column("source").to_pandas().to_numpy(dtype=object)
    names = sorted(buckets_by_source)
    name_idx = {s: i for i, s in enumerate(names)}
    # sources absent from the sampled histogram get a bucket index
    # derived from a stable hash of the source string, which spreads
    # unseen sources over the reducers (distinct sources may collide)
    sidx = np.array(
        [
            name_idx[s]
            if s in name_idx
            else len(names)
            + (int(hashlib.md5(str(s).encode()).hexdigest()[:8], 16) % 100_003)
            for s in src
        ],
        dtype=np.uint64,
    )
    k = np.array(
        [buckets_by_source.get(s, 1) for s in src], dtype=np.uint64
    )
    salt = (sidx * 4096 + kh % np.maximum(k, 1)).astype(np.int32)
    return batch.append_column(SALT_COL, pa.array(salt, pa.int32()))
