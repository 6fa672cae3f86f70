"""Decode pipeline: shard files -> decoded Arrow rows, with two
executors over the same per-shard steps.

Mirrors the reference read path (fastparquet ParquetFile.to_pandas,
api.py:387-475). A ``Snapshot`` is one dataset's metadata, read once
(the reference's consolidated ``_metadata``, util.py:115-213, and a
``ParquetFile`` that parses its footer once, api.py:164-190): shard
listing, symbol tables, hive root and every shard's rows, bytes, key
range and column stats, from the manifest records; header only for a
shard no record covers. ``Snapshot.prune`` drops shards on min/max/
bloom stats (reference M2 filter_row_groups/filter_out_stats,
api.py:948-999/761-819). The snapshot's ``tables`` keep every symbol
table parsed once. ``decode_shard`` turns one shard blob into a table,
parsing its header once and decoding only the projected columns (M1,
api.py:433-439). With filters it first finds the matching rows:
``==`` / ``in`` on a string column compare compressed (an FSST column's
probe is encoded with the column's table and compared with the rows of
its encoded length; a dictionary column's probe is looked up in the
table and compared as a code), and every other filter decodes its
column (at the rows still in play) and is evaluated vectorized
(M3/M4). The other projected columns are then decoded at those rows
only (``container.decode_table(rows=)``: a few bit-packed values read
where they lie, runs walked and a code stream decompressed up to the
last row) — nothing more when no row matches.

- ``decode_dataset``: a lazy, streaming ray.data.Dataset for scans:
  its read tasks each decode a contiguous run of kept shards, as many
  tasks as ``cluster.reducer_count`` gives the shards' raw bytes.
- ``read_table``: the kept shards read and decoded serially in the
  calling process, for materializing reads (``to_pandas``, ``head``)
  whose result lands in the driver anyway — no Ray Data job, so a
  pruned point lookup costs one shard read.

Readers take a dataset dir or a ``Snapshot`` of one.
"""

from __future__ import annotations

import json
import logging
from functools import cached_property

from ..codecs.tables import SharedTables
from ..state import fs as fsmod
from ..state.manifest import Manifest, covering_stats

log = logging.getLogger("fastparquet_ray")

# filters are [(col, op, value)] conjunctions, ops as in the reference
# (util.py:411-419): == != > >= < <= in not-in
_OPS = {
    "==", "!=", ">", ">=", "<", "<=", "in", "not in",
    "contains", "contains_any",
}


class Snapshot:
    """One encoded dataset's metadata, each part read on first use and
    kept: ``paths`` (shard files, sorted, relative to ``fs``),
    ``tables``, ``records`` (by shard), ``hive`` (the root of a
    `key=value` layout, else None) and ``shard(path)``. Without
    ``out_dir`` it stands for bare shard paths (stats from headers)."""

    def __init__(self, out_dir: str | None, filesystem=None):
        self.out_dir = out_dir
        self.manifest = out_dir and Manifest(out_dir, filesystem=filesystem)
        self.fs = self.manifest.fs if out_dir else filesystem
        self.root = self.manifest.root.rstrip("/") if out_dir else ""
        self.remote = filesystem is not None or not fsmod.is_local(self.fs)
        # a URI's protocol prefix, which ``shard_files`` keeps
        self.proto = (
            out_dir.split("://", 1)[0] + "://"
            if out_dir and filesystem is None and self.remote
            else ""
        )
        self._shards: dict[str, dict] = {}
        self._from_headers: set[str] = set()
        # per shard: its column stats plus its hive path values
        self._prune_stats: dict[str, dict] = {}

    @cached_property
    def paths(self) -> list[str]:
        return self.manifest.shard_glob()

    @cached_property
    def tables(self) -> SharedTables:
        """The plan's shared tables, each parsed once on first use."""
        m = self.manifest
        return SharedTables(m.load_plan().tables if m.has_plan() else {})

    @cached_property
    def records(self) -> dict[str, dict]:
        recs = self.manifest.load_records() if self.manifest else {}
        return {r["shard"]: r for r in recs.values()}

    @cached_property
    def hive(self) -> str | None:
        from .hive import parse_hive_parts

        hived = any(parse_hive_parts(self.rel(p)) for p in self.paths)
        return self.root if hived else None

    @cached_property
    def index_meta(self) -> dict:
        """The ``_pandas.json`` sidecar ``write(write_index=True)``
        leaves, or {}."""
        try:
            return json.loads(
                fsmod.read_bytes(self.fs, self.manifest.pandas_path)
            )
        except (FileNotFoundError, OSError):
            return {}

    def rel(self, path: str) -> str:
        """A shard path as records name it (relative to the root)."""
        if path.startswith(self.root):
            path = path[len(self.root):]
        return path.lstrip("/")

    def shard(self, path: str) -> dict:
        """``rows``, ``raw_bytes``, ``enc_bytes``, ``key_min``,
        ``key_max`` and per-column ``stats`` (``container.column_stats``)
        of one shard. A record covers its shard when its ``stats``
        carry every stat key (``kind`` marks them); otherwise (a
        legacy record, an orphan shard, no manifest) the header is
        read, once. Headers carry no key range: a shard no record
        names has None."""
        info = self._shards.get(path)
        if info is not None:
            return info
        rec = self.records.get(self.rel(path), {})
        stats = covering_stats(rec)
        if stats is not None:
            rows, raw, enc = rec["rows"], rec["raw_bytes"], rec["enc_bytes"]
        else:
            from ..container import column_stats, read_header

            hdr = read_header(fsmod.read_header_bytes(self.fs, path))
            rows, raw, enc = hdr["num_rows"], hdr["raw_bytes"], hdr["enc_bytes"]
            stats = column_stats(hdr)
            self._from_headers.add(path)
        info = self._shards[path] = {
            "rows": rows, "raw_bytes": raw, "enc_bytes": enc,
            "key_min": rec.get("key_min"), "key_max": rec.get("key_max"),
            "stats": stats,
        }
        return info

    def prune(self, filters, paths: list[str] | None = None) -> list[str]:
        """The shards among ``paths`` (filesystem-relative; default
        every listed shard, raising when there is none) whose column
        stats and hive path values (reference filter_out_cats,
        api.py:1002-1039) may match every filter."""
        from .hive import parse_hive_parts

        if paths is None:
            if not self.paths:
                raise FileNotFoundError(f"no shards under {self.out_dir}")
            paths = self.paths
        if not filters:
            return list(paths)
        for f in filters:
            if len(f) != 3 or f[1] not in _OPS:
                raise ValueError(f"bad filter {f}")
        kept = []
        for p in paths:
            stats = self._prune_stats.get(p)
            if stats is None:
                stats = self._prune_stats[p] = dict(self.shard(p)["stats"])
                for col, val in parse_hive_parts(self.rel(p)).items():
                    # a path value holds for every row: all null or none
                    stats.setdefault(col, {
                        "min": val, "max": val,
                        "null_count": int(val is None),
                    })
            for c, op, v in filters:
                if not _stats_may_match(stats, c, op, v, path=p):
                    break
            else:
                kept.append(p)
        from_headers = sum(p in self._from_headers for p in paths)
        log.debug(
            "prune_shards: kept %d, pruned %d of %d shards for %s "
            "(stats from %d manifest records, %d header reads)",
            len(kept), len(paths) - len(kept), len(paths), filters,
            len(paths) - from_headers, from_headers,
        )
        return kept

    def read(self, paths: list[str], **kw):
        """Lazy ray.data.Dataset over ``paths``: decode runs in
        stateless read tasks (symbol tables are KBs, shipped once with
        the datasource), each over a contiguous run of shards, as many
        as ``cluster.reducer_count`` gives their ``raw_bytes``."""
        from ray._private.auto_init_hook import auto_init_ray

        from ..sources.fprs import read_fprs
        from .cluster import reducer_count

        # Ray Data starts a session on first use; the task count needs
        # the session's CPUs now
        auto_init_ray()
        n = reducer_count(
            sum(self.shard(p)["raw_bytes"] for p in paths), len(paths)
        )
        return read_fprs(
            paths, tables=self.tables, hive=self.hive,
            filesystem=self.fs if self.remote else None,
            override_num_blocks=n, **kw,
        )


def snapshot(out_dir: "str | Snapshot", filesystem=None) -> Snapshot:
    """The metadata snapshot of a dataset dir (plain path or URI); a
    ``Snapshot`` is returned as it is."""
    if isinstance(out_dir, Snapshot):
        return out_dir
    return Snapshot(out_dir, filesystem)


def shard_files(out_dir: str, filesystem=None) -> list[str]:
    """Shard paths under an encoded dataset dir, sorted, including hive
    `key=value` subdirectories (reference M8 layout). URIs keep their
    protocol prefix so downstream opens re-resolve."""
    snap = Snapshot(out_dir, filesystem)
    return [snap.proto + p for p in snap.paths]


def _coerce_stat_value(ltype: str | None, val):
    """Header min/max for temporal columns are raw int64 in the
    column's unit (container._to_int_np); convert a user filter value
    (Timestamp / datetime / date / np.datetime64) to that unit so the
    comparison is int-vs-int (ADVICE r01: comparing a raw int against
    a pd.Timestamp raised TypeError). Returns None when the value
    can't be converted -> caller keeps the shard conservatively."""
    import numpy as np
    import pandas as pd

    if ltype is None or isinstance(val, (int, np.integer)):
        return val
    try:
        if ltype.startswith("timestamp"):
            unit = ltype.split("[", 1)[1].split("]")[0].split(",")[0]
            return int(np.datetime64(pd.Timestamp(val).asm8, unit).astype(np.int64))
        if ltype.startswith("date"):
            unit = "D" if ltype == "date32[day]" else "ms"
            return int(np.datetime64(pd.Timestamp(val).asm8, unit).astype(np.int64))
        if ltype.startswith("time"):
            # floor-divide by one unit-tick: pandas' .value is ALWAYS
            # nanoseconds regardless of as_unit (ADVICE r02 — the old
            # .as_unit(unit).value inflated the filter value 1000x+ on
            # time32[s/ms]/time64[us] and wrongly pruned matching shards)
            unit = ltype.split("[", 1)[1].split("]")[0]
            return int(pd.Timedelta(val) // pd.Timedelta(1, unit))
    except (ValueError, TypeError):
        return None
    return None


def _bloom_may_match(
    s: dict, vals: list, path: str | None = None, col: str | None = None
) -> bool:
    """Point-lookup pruning past min/max: consult the shard's
    per-column bloom filter when one was written
    (encode_pipeline(bloom_cols=[...]) -> container stats path).
    Temporal values were already unit-coerced by the caller, matching
    the encode-side hash domain. Absent bloom -> True; a corrupt one
    keeps the shard too (the conservative answer) and logs a WARNING
    naming the shard and the column."""
    bloom = s.get("bloom")
    if not bloom:
        return True
    from ..bloom import bloom_may_contain

    try:
        return bloom_may_contain(bloom, vals)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        log.warning(
            "corrupt bloom filter in shard %s, column %s: %s: %s; "
            "shard kept", path, col, type(e).__name__, e,
        )
        return True


def _stats_may_match(
    stats: dict, col: str, op: str, val, path: str | None = None
) -> bool:
    """Can a shard whose `col` spans [min, max] contain matches?
    Unknown stats -> conservatively True. ``path`` names the shard in
    the corrupt-bloom warning."""
    s = stats.get(col)
    if op in ("contains", "contains_any"):
        # list-membership ops read the ELEMENT-level stats (emin/emax
        # + bloom over flattened ids) — row-value min/max never apply
        if not s or s.get("emin") is None or s.get("emax") is None:
            return True
        elo, ehi = s["emin"], s["emax"]
        vals = [val] if op == "contains" else list(val)
        vals = [v for v in vals if elo <= v <= ehi]
        if not vals:
            return False
        return _bloom_may_match(s, vals, path, col)
    # a None value matches no row under a comparison (the residual
    # filter's comparison is null there); ``in`` matches the null rows
    # when its list holds None, which needs a null in the shard
    if op == "in" and any(v is None for v in val):
        val = [v for v in val if v is not None]
        nulls = (s or {}).get("null_count")
        if nulls is None or nulls > 0:
            return True
    elif op not in ("in", "not in") and val is None:
        return False
    if not s or s.get("min") is None or s.get("max") is None:
        return True
    lo, hi = s["min"], s["max"]
    ltype = s.get("ltype")
    if ltype is not None:
        if op in ("in", "not in"):
            vals = [_coerce_stat_value(ltype, v) for v in val]
            if any(v is None for v in vals):
                return True
            val = vals
        else:
            val = _coerce_stat_value(ltype, val)
            if val is None:
                return True
    if op == ">":
        return hi > val
    if op == ">=":
        return hi >= val
    if op == "<":
        return lo < val
    if op == "<=":
        return lo <= val
    if op == "==":
        if not lo <= val <= hi:
            return False
        return _bloom_may_match(s, [val], path, col)
    if op == "!=":
        return not (lo == hi == val)
    if op == "in":
        vals = [v for v in val if lo <= v <= hi]
        if not vals:
            return False
        return _bloom_may_match(s, vals, path, col)
    if op == "not in":
        # a null row is kept unless the list holds None
        nulls = s.get("null_count")
        if nulls != 0 and not any(v is None for v in val):
            return True
        return not (lo == hi and lo in val)
    return True


def prune_shards(
    paths: list[str], filters, root: str | None = None, filesystem=None
) -> list[str]:
    """Drop shards whose column stats — or hive partition-path values
    below ``root`` — preclude any match. With ``root``, the stats come
    from the dataset's snapshot (manifest records; a header only for a
    shard no record covers); without, from each shard's header."""
    if not paths:
        return []
    fs = fsmod.get_fs(paths[0], filesystem)[0]
    snap = Snapshot(root.rstrip("/") if root else None, fs)
    rps = [fsmod.get_fs(p, fs)[1] for p in paths]
    kept = set(snap.prune(filters, rps))
    return [p for p, rp in zip(paths, rps) if rp in kept]


def _residual_rows(filters, t):
    """Positions of the rows of ``t`` that satisfy every filter."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    mask = None
    for col, op, val in filters:
        c = t[col]
        if op == "==":
            m = pc.equal(c, val)
        elif op == "!=":
            m = pc.not_equal(c, val)
        elif op == ">":
            m = pc.greater(c, val)
        elif op == ">=":
            m = pc.greater_equal(c, val)
        elif op == "<":
            m = pc.less(c, val)
        elif op == "<=":
            m = pc.less_equal(c, val)
        elif op in ("in", "not in"):
            vt = c.type.value_type if pa.types.is_dictionary(c.type) else c.type
            # an empty set takes the column's type (pyarrow infers null)
            vs = pa.array(list(val), type=None if val else vt)
            m = pc.is_in(c, value_set=vs)
            if op == "not in":
                m = pc.invert(m)
        elif op in ("contains", "contains_any"):
            # list membership: one vectorized flatten + segment-any
            la = c.combine_chunks()
            flat = la.flatten().to_numpy(zero_copy_only=False)
            offs = la.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
            rel = offs - offs[0]  # sliced arrays: rebase offsets
            hit = (
                flat == val
                if op == "contains"
                else np.isin(flat, np.asarray(list(val)))
            )
            cum = np.concatenate([[0], np.cumsum(hit)])
            m = pa.array((cum[rel[1:]] - cum[rel[:-1]]) > 0)
        else:
            raise ValueError(f"unsupported op {op}")
        mask = m if mask is None else pc.and_(mask, m)
    # a null comparison drops the row, as Table.filter does
    return np.flatnonzero(
        pc.fill_null(mask, False).to_numpy(zero_copy_only=False)
    )


def _compressed_rows(blob, head, tables, flt, categories):
    """(rows, the column's values there) of one ``==`` / ``in`` filter
    on a stored string column, found in the compressed domain
    (``strcodec.str_matches``); None where the filter needs the decoded
    column: other ops, non-string probes, and dictionary-typed or
    ``categories`` results. Null rows never match."""
    import pyarrow as pa

    from ..codecs.strcodec import str_matches

    col, op, val = flt
    info = head.columns.get(col)
    if op not in ("==", "in") or info is None or info["kind"] != "str":
        return None
    t = head.schema.field(col).type
    if pa.types.is_dictionary(t) or (categories and col in categories):
        return None
    probes = [val] if op == "==" else list(val)
    if not all(isinstance(v, str) for v in probes):
        return None
    probes = list(dict.fromkeys(probes))
    body = head.bodies(blob, info)[1][0]
    rows, which = str_matches(body, tables, [v.encode() for v in probes])
    valid = head.valid(blob, info)
    if valid is not None:
        keep = valid[rows]
        rows, which = rows[keep], which[keep]
    return rows, pa.array([probes[i] for i in which.tolist()], type=t)


def _filter_rows(blob, head, tables, filters, categories, dec, how):
    """Row positions of the shard matching every filter, and the
    filter columns' values at them: ``==`` / ``in`` on string columns
    compare compressed first, then the other filters decode their
    columns at the surviving rows (all rows when none ran) and are
    evaluated vectorized."""
    import numpy as np

    from ..container import note_read

    rows, vals, rest = None, {}, []
    for f in filters:
        m = _compressed_rows(blob, head, tables, f, categories)
        if m is None:
            rest.append(f)
            continue
        note_read(how, f[0], "compared compressed")
        r, v = m
        if rows is None:
            rows, vals[f[0]] = r, v
            continue
        rows, ia, ib = np.intersect1d(
            rows, r, assume_unique=True, return_indices=True
        )
        vals = {c: a.take(ia) for c, a in vals.items()}
        vals[f[0]] = v.take(ib)
    if rest:
        ft = dec(list(dict.fromkeys(f[0] for f in rest)), rows)
        keep = _residual_rows(rest, ft)
        rows = keep if rows is None else rows[keep]
        vals = {c: a.take(keep) for c, a in vals.items()}
        vals.update({c: ft[c].take(keep) for c in ft.column_names})
    return rows, vals


def decode_shard(
    blob: bytes,
    path: str,
    tables: dict,
    columns: list[str] | None = None,
    categories: list[str] | None = None,
    hive: str | None = None,
    filters=None,
    how: dict | None = None,
):
    """One shard blob -> Arrow table. With ``hive`` (the dataset root),
    `key=value` path components below it become typed partition
    columns, which are not stored in the shard (reference
    paths_to_cats, api.py:700-758). The header is parsed once.

    With ``filters``, ``==`` and ``in`` on a string column compare
    compressed (``_compressed_rows``: FSST and dictionary codes are
    matched without decoding the column); every other filter decodes
    its column at the rows still in play and is evaluated vectorized.
    The other projected columns are decoded at the matching rows only
    (``decode_table(rows=)``), and not at all when no row matches; the
    filter columns' values come from the filtering. ``how`` counts how
    each column was read (``container.note_read``)."""
    from ..container import ShardHead, decode_table
    from .hive import attach_hive_columns, parse_hive_parts

    parts = {}
    if hive is not None:
        root = hive.rstrip("/")
        parts = parse_hive_parts(
            path[len(root):] if path.startswith(root) else path
        )
    head = ShardHead(blob)

    def dec(cols, rows=None, decoded=None):
        stored = None if cols is None else [c for c in cols if c not in parts]
        t = decode_table(
            blob, tables, columns=stored, categories=categories, rows=rows,
            decoded=decoded, head=head, how=how,
        )
        return attach_hive_columns(t, parts, cols) if parts else t

    if filters:
        rows, vals = _filter_rows(
            blob, head, tables, filters, categories, dec, how
        )
        decoded = {
            c: v for c, v in vals.items()
            if c not in parts and (columns is None or c in columns)
        }
        t = dec(columns, rows, decoded)
    else:
        t = dec(columns)
    # stored columns come in stored order, the hive ones after them
    return t if columns is None else t.select(columns)


def decode_dataset(
    out_dir: "str | Snapshot",
    columns: list[str] | None = None,
    concurrency=None,
    filters=None,
    categories: list[str] | None = None,
    filesystem=None,
):
    """ray.data.Dataset over the decoded rows of an encoded dataset.

    ``filters``: conjunction of (col, op, value) tuples; shards whose
    column stats (from the manifest records; a header only for a shard
    no record covers) preclude matches are skipped entirely, and each
    read task decodes only the matching rows of its shard
    (``decode_shard``).

    ``categories``: string columns returned as pa.DictionaryArray
    (reference categories=, api.py:387-475) — dictionary-coded shards
    skip the per-row label gather entirely."""
    import ray.data

    snap = snapshot(out_dir, filesystem)
    paths = snap.prune(filters)
    if not paths:
        import pyarrow as pa

        return ray.data.from_arrow(pa.table({}))
    return snap.read(
        paths, columns=columns, concurrency=concurrency,
        categories=categories, filters=filters,
    )


def _describe_reads(how: dict) -> str:
    """``container.note_read`` counts as text: per column, how many
    shards read it each way, and a ZRANK code stream's bytes."""
    out = []
    for name, modes in how.items():
        ways = ", ".join(
            f"{mode} x{k}" for mode, k in modes.items() if mode != "codes"
        )
        if "codes" in modes:
            dec, whole, stored = modes["codes"]
            ways += (
                f", codes {dec} of {whole} B decompressed "
                f"({stored} B stored)"
            )
        out.append(f"{name} ({ways})")
    return "; ".join(out) or "none"


def read_table(
    out_dir: "str | Snapshot",
    columns: list[str] | None = None,
    filters=None,
    categories: list[str] | None = None,
    filesystem=None,
    limit: int | None = None,
):
    """The rows ``decode_dataset`` yields, decoded serially in the
    calling process: no Ray Data job. Kept shards are read whole and
    concatenated in sorted shard order; with ``limit``, no shard is
    opened after the one that completes ``limit`` rows. Returns None
    when pruning keeps no shard."""
    import pyarrow as pa

    snap = snapshot(out_dir, filesystem)
    paths = snap.prune(filters)
    if not paths:
        return None
    parts, rows, nbytes, how = [], 0, 0, {}
    for rp in paths:
        blob = fsmod.read_bytes(snap.fs, rp)
        nbytes += len(blob)
        t = decode_shard(
            blob, rp, snap.tables, columns, categories, snap.hive, filters,
            how,
        )
        parts.append(t)
        rows += t.num_rows
        if limit is not None and rows >= limit:
            break
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "read_table %s: decoded %d of %d kept shards, %d bytes, %d "
            "rows; columns: %s",
            snap.out_dir, len(parts), len(paths), nbytes, rows,
            _describe_reads(how),
        )
    out = (
        parts[0] if len(parts) == 1
        else pa.concat_tables(parts, promote_options="default")
    )
    return out if limit is None else out.slice(0, limit)


def take_row_range(
    out_dir: "str | Snapshot",
    start: int,
    stop: int,
    columns: list[str] | None = None,
    filesystem=None,
):
    """Random access by GLOBAL ROW POSITION over a clustered layout —
    the dataloader-resume primitive: rows [start, stop) of the
    key-sorted corpus, without a query-time sort and without touching
    any shard outside the range.

    Global order = hive partitions in path order (as ``to_pandas``
    reads them; one partition without ``hive_cols``), inside each the
    shards by key range ascending (a cluster_by encode produces
    disjoint shard key ranges per partition), stored row order within
    a shard. The snapshot's row counts (from the manifest records;
    header only for a shard no record covers) turn positions into
    (shard, local offset) in O(shards) driver arithmetic; only
    overlapping shards are decoded. Raises on a non-clustered layout
    (key ranges overlapping inside one partition make positional
    semantics undefined — use filters instead) and on a shard no
    record names (no key range places it).

    Reference analog: fastparquet's positional head slicing
    (api.py:387-475 row-group selection); this generalizes it to an
    arbitrary [start, stop) over the clustered order."""
    snap = snapshot(out_dir, filesystem)
    shards = [(snap.shard(p), p) for p in snap.prune(None)]
    for s, p in shards:
        if s["key_min"] is None:
            raise ValueError(
                f"take_row_range: no manifest record gives shard {p} "
                "a key range (layouts from cluster_by=... do)"
            )
    # a shard's hive partition dir, "/"-terminated: sorts the
    # partitions as their shards' paths sort
    part = {p: snap.rel(p).rpartition("/")[0] + "/" for _, p in shards}
    shards.sort(
        key=lambda sp: (part[sp[1]], sp[0]["key_min"], sp[0]["key_max"])
    )
    for (a, ap), (b, bp) in zip(shards, shards[1:]):
        if part[ap] == part[bp] and b["key_min"] < a["key_max"]:
            raise ValueError(
                "take_row_range needs disjoint shard key ranges inside "
                f"each partition (shards {snap.rel(ap)} and "
                f"{snap.rel(bp)} overlap) — re-encode with cluster_by"
            )
    total = sum(int(s["rows"]) for s, _ in shards)
    start = max(0, min(int(start), total))
    stop = max(start, min(int(stop), total))

    chosen, off = [], 0
    first_off = None
    for s, p in shards:
        n = int(s["rows"])
        if off + n > start and off < stop:
            if first_off is None:
                first_off = off
            chosen.append(p)
        off += n
        if off >= stop:
            break

    if not chosen:
        # empty slice with the right schema: decode zero rows of the
        # first shard
        chosen, first_off, stop = [shards[0][1]], 0, 0
        start = 0

    import pyarrow as pa

    # decoded in the driver, concatenated in key order: 1-2 shards
    # typically — the concat is shard-sized, not corpus-sized
    t = pa.concat_tables([
        decode_shard(
            fsmod.read_bytes(snap.fs, p), p, snap.tables, columns, hive=snap.hive
        )
        for p in chosen
    ])
    return t.slice(start - first_off, stop - start).to_pandas()
