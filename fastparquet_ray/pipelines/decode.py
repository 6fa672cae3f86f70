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
api.py:948-999/761-819). ``decode_shard`` turns one shard blob into a
table, decoding only the projected columns (M1, api.py:433-439); with
filters it decodes the filter columns first, evaluates the residual
predicate vectorized (M3/M4) to row positions, and decodes the other
projected columns at those rows only — nothing more when no row
matches.

- ``decode_dataset``: a lazy, streaming ray.data.Dataset (one read
  task per kept shard) for scans.
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

    @cached_property
    def paths(self) -> list[str]:
        return self.manifest.shard_glob()

    @cached_property
    def tables(self) -> dict:
        m = self.manifest
        return m.load_plan().tables if m.has_plan() else {}

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
            stats = dict(self.shard(p)["stats"])
            for col, val in parse_hive_parts(self.rel(p)).items():
                stats.setdefault(col, {"min": val, "max": val})
            if all(
                _stats_may_match(stats, c, op, v, path=p)
                for c, op, v in filters
            ):
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
        the datasource)."""
        from ..sources.fprs import read_fprs

        return read_fprs(
            paths, tables=self.tables, hive=self.hive,
            filesystem=self.fs if self.remote else None, **kw,
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
        elif op == "in":
            m = pc.is_in(c, value_set=pa.array(list(val)))
        elif op == "not in":
            m = pc.invert(pc.is_in(c, value_set=pa.array(list(val))))
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


def decode_shard(
    blob: bytes,
    path: str,
    tables: dict,
    columns: list[str] | None = None,
    categories: list[str] | None = None,
    hive: str | None = None,
    filters=None,
):
    """One shard blob -> Arrow table. With ``hive`` (the dataset root),
    `key=value` path components below it become typed partition
    columns, which are not stored in the shard (reference
    paths_to_cats, api.py:700-758).

    With ``filters``, the filter columns are decoded first and the
    residual predicate picks the matching rows; the other projected
    columns are decoded at those rows only (``decode_table(rows=)``),
    and not at all when no row matches."""
    from ..container import decode_table
    from .hive import attach_hive_columns, parse_hive_parts

    parts = {}
    if hive is not None:
        root = hive.rstrip("/")
        parts = parse_hive_parts(
            path[len(root):] if path.startswith(root) else path
        )

    def dec(cols, rows=None, decoded=None):
        stored = None if cols is None else [c for c in cols if c not in parts]
        t = decode_table(
            blob, tables, columns=stored, categories=categories, rows=rows,
            decoded=decoded,
        )
        return attach_hive_columns(t, parts, cols) if parts else t

    if not filters:
        return dec(columns)
    fcols = list(dict.fromkeys(f[0] for f in filters))
    ft = dec(fcols)
    rows = _residual_rows(filters, ft)
    decoded = {
        c: ft[c].take(rows)
        for c in fcols
        if c not in parts and (columns is None or c in columns)
    }
    t = dec(columns, rows, decoded)
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
    parts, rows, nbytes = [], 0, 0
    for rp in paths:
        blob = fsmod.read_bytes(snap.fs, rp)
        nbytes += len(blob)
        t = decode_shard(
            blob, rp, snap.tables, columns, categories, snap.hive, filters
        )
        parts.append(t)
        rows += t.num_rows
        if limit is not None and rows >= limit:
            break
    log.debug(
        "read_table %s: decoded %d of %d kept shards, %d bytes, %d rows",
        snap.out_dir, len(parts), len(paths), nbytes, rows,
    )
    out = pa.concat_tables(parts, promote_options="default")
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

    Global order = every listed shard by key range ascending (a
    cluster_by encode produces disjoint shard key ranges), stored row
    order within a shard. The snapshot's row counts (from the
    manifest records; header only for a shard no record covers) turn
    positions into (shard, local offset) in O(shards) driver
    arithmetic; only overlapping shards are decoded. Raises on a
    non-clustered layout (overlapping key ranges make positional
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
    shards.sort(key=lambda sp: (sp[0]["key_min"], sp[0]["key_max"]))
    for (a, ap), (b, bp) in zip(shards, shards[1:]):
        if b["key_min"] < a["key_max"]:
            raise ValueError(
                "take_row_range needs disjoint shard key ranges "
                f"(shards {snap.rel(ap)} and {snap.rel(bp)} overlap) — "
                "re-encode with cluster_by"
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

    from ..container import decode_table

    # decoded in the driver, concatenated in key order: 1-2 shards
    # typically — the concat is shard-sized, not corpus-sized
    t = pa.concat_tables([
        decode_table(fsmod.read_bytes(snap.fs, p), snap.tables, columns=columns)
        for p in chosen
    ])
    return t.slice(start - first_off, stop - start).to_pandas()
