"""Decode pipeline: shard files -> decoded Arrow rows, with two
executors over the same per-shard steps.

Mirrors the reference read path (fastparquet ParquetFile.to_pandas,
api.py:387-475). ``scan_shards`` resolves a read once: symbol tables
(from the plan sidecar), filter validation and shard pruning on
min/max/bloom stats (reference analog M2
filter_row_groups/filter_out_stats, api.py:948-999/761-819). The stats
come from the manifest records, which carry each shard's header stats
(the reference's consolidated ``_metadata``), so pruning opens no
shard header unless no record covers the shard. ``decode_shard`` turns
one shard blob into a table; column projection is honored at decode
(reference analog M1, api.py:433-439), so unneeded buffers are never
touched. With filters it decodes the filter columns first, evaluates
the residual predicate vectorized (M3/M4) to row positions, and
decodes the other projected columns at those rows only — nothing more
when no row matches.

- ``decode_dataset``: a lazy, streaming ray.data.Dataset (one read
  task per kept shard) for scans.
- ``read_table``: the kept shards read and decoded serially in the
  calling process, for materializing reads (``to_pandas``, ``head``)
  whose result lands in the driver anyway — no Ray Data job, so a
  pruned point lookup costs one shard read.
"""

from __future__ import annotations

import logging
from typing import Any, NamedTuple

from ..state import fs as fsmod
from ..state.manifest import Manifest

log = logging.getLogger("fastparquet_ray")

# filters are [(col, op, value)] conjunctions, ops as in the reference
# (util.py:411-419): == != > >= < <= in not-in
_OPS = {
    "==", "!=", ">", ">=", "<", "<=", "in", "not in",
    "contains", "contains_any",
}


def shard_files(out_dir: str, filesystem=None) -> list[str]:
    """Shard paths under an encoded dataset dir (plain path or URI;
    URIs keep their protocol prefix so downstream opens re-resolve;
    with an explicit ``filesystem`` instance, paths stay fs-relative).
    Includes hive `key=value` subdirectories (reference M8 layout)."""
    manifest = Manifest(out_dir, filesystem=filesystem)
    proto = (
        ""
        if filesystem is not None or fsmod.is_local(manifest.fs)
        else out_dir.split("://", 1)[0] + "://"
    )
    return [proto + p for p in manifest.shard_glob()]


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
    below ``root`` (reference filter_out_cats, api.py:1002-1039) —
    preclude any match. With ``root``, a shard's stats come from the
    manifest record that names it (the reference's consolidated
    ``_metadata``, util.py:115-213); the header is read only for a
    shard no record covers (a manifest written before records carried
    stats, an orphan, a dir without a manifest)."""
    import json

    from ..container import column_stats, read_header
    from .hive import parse_hive_parts

    if not paths:
        return []
    # one dataset, one filesystem: resolve it once, not per shard
    fs = fsmod.get_fs(paths[0], filesystem)[0]
    rootp = root.rstrip("/") if root else None
    recorded = {}
    if rootp:
        recorded = {
            r["shard"]: r["stats"]
            for r in Manifest(rootp, fs).load_records().values()
            if "stats" in r
        }
    kept, from_headers = [], 0
    for p in paths:
        rp = fsmod.get_fs(p, fs)[1]
        rel = rp[len(rootp):] if rootp and rp.startswith(rootp) else rp
        rec = recorded.get(rel.lstrip("/"))
        if rec is not None:
            stats = json.loads(rec)
        else:
            stats = column_stats(read_header(fsmod.read_header_bytes(fs, rp)))
            from_headers += 1
        for col, val in parse_hive_parts(rel).items():
            stats.setdefault(col, {"min": val, "max": val})
        if all(
            _stats_may_match(stats, c, op, v, path=p) for c, op, v in filters
        ):
            kept.append(p)
    log.debug(
        "prune_shards: kept %d, pruned %d of %d shards for %s "
        "(stats from %d manifest records, %d header reads)",
        len(kept), len(paths) - len(kept), len(paths), filters,
        len(paths) - from_headers, from_headers,
    )
    return kept


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


class Scan(NamedTuple):
    """A resolved read: the kept shards (filesystem-relative paths on
    ``fs``), the plan's symbol tables and the hive root (None for a
    flat layout)."""

    fs: Any
    paths: list[str]
    tables: dict
    hive: str | None


def scan_shards(
    out_dir: str,
    filters=None,
    filesystem=None,
) -> Scan:
    """Validate ``filters`` and prune shards on their column stats.
    Shared by both executors."""
    manifest = Manifest(out_dir, filesystem=filesystem)
    tables = {}
    if manifest.has_plan():
        tables = manifest.load_plan().tables
    paths = shard_files(out_dir, filesystem=filesystem)
    if not paths:
        raise FileNotFoundError(f"no shards under {out_dir}")
    fs, root = fsmod.get_fs(out_dir, filesystem)
    rootp = root.rstrip("/")
    if filters:
        for f in filters:
            if len(f) != 3 or f[1] not in _OPS:
                raise ValueError(f"bad filter {f}")
        paths = prune_shards(paths, filters, root=root, filesystem=filesystem)
    rel_paths = [fsmod.get_fs(p, fs)[1] for p in paths]

    from .hive import parse_hive_parts

    # hive layout auto-detect: any shard under a `key=value` dir BELOW
    # the dataset root gets its partition columns reconstructed from
    # the path (M8)
    hive = (
        rootp
        if any(
            parse_hive_parts(rp[len(rootp):] if rp.startswith(rootp) else rp)
            for rp in rel_paths
        )
        else None
    )
    return Scan(fs, rel_paths, tables, hive)


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
    out_dir: str,
    columns: list[str] | None = None,
    concurrency=None,
    filters=None,
    categories: list[str] | None = None,
    filesystem=None,
):
    """ray.data.Dataset over the decoded rows of an encoded dataset.

    ``filters``: conjunction of (col, op, value) tuples; shards whose
    column stats preclude matches are skipped entirely, and each read
    task decodes only the matching rows of its shard (``decode_shard``).

    ``categories``: string columns returned as pa.DictionaryArray
    (reference categories=, api.py:387-475) — dictionary-coded shards
    skip the per-row label gather entirely."""
    import ray.data

    scan = scan_shards(out_dir, filters, filesystem)
    if not scan.paths:
        import pyarrow as pa

        return ray.data.from_arrow(pa.table({}))
    # native datasource: decode happens inside stateless read tasks on
    # the warm worker pool (symbol tables are KBs, shipped once with
    # the serialized datasource) — no actor-pool spin-up cost. (The
    # encode side matches since round 4: a task pool with
    # once-per-worker state via stages.encode_stage.task_state.)
    from ..sources.fprs import read_fprs

    remote = filesystem is not None or not fsmod.is_local(scan.fs)
    return read_fprs(
        scan.paths,
        tables=scan.tables,
        columns=columns,
        concurrency=concurrency,
        filesystem=scan.fs if remote else None,
        hive=scan.hive,
        categories=categories,
        filters=filters,
    )


def read_table(
    out_dir: str,
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

    scan = scan_shards(out_dir, filters, filesystem)
    if not scan.paths:
        return None
    parts, rows, nbytes = [], 0, 0
    for rp in scan.paths:
        blob = fsmod.read_bytes(scan.fs, rp)
        nbytes += len(blob)
        t = decode_shard(
            blob, rp, scan.tables, columns, categories, scan.hive, filters
        )
        parts.append(t)
        rows += t.num_rows
        if limit is not None and rows >= limit:
            break
    log.debug(
        "read_table %s: decoded %d of %d kept shards, %d bytes, %d rows",
        out_dir, len(parts), len(scan.paths), nbytes, rows,
    )
    out = pa.concat_tables(parts, promote_options="default")
    return out if limit is None else out.slice(0, limit)


def take_row_range(
    out_dir: str,
    start: int,
    stop: int,
    columns: list[str] | None = None,
    filesystem=None,
):
    """Random access by GLOBAL ROW POSITION over a clustered layout —
    the dataloader-resume primitive: rows [start, stop) of the
    key-sorted corpus, without a query-time sort and without touching
    any shard outside the range.

    Global order = shards by key_min ascending (a cluster_by encode
    produces disjoint shard key ranges), stored row order within a
    shard (the encode's range sort already ordered rows). The
    manifest's per-shard row counts turn positions into (shard,
    local offset) in O(shards) driver arithmetic; only overlapping
    shards are decoded. Raises on a non-clustered layout (overlapping
    key ranges make positional semantics undefined there — use
    filters instead).

    Reference analog: fastparquet's positional head slicing
    (api.py:387-475 row-group selection); this generalizes it to an
    arbitrary [start, stop) over the clustered order."""
    manifest = Manifest(out_dir, filesystem=filesystem)
    recs = [
        r for r in manifest.load_records().values()
        if r.get("status") == "encoded"
    ]
    if not recs:
        raise FileNotFoundError(f"no encoded shards under {out_dir}")
    if any("key_min" not in r or "key_max" not in r for r in recs):
        raise ValueError(
            "take_row_range needs a clustered layout "
            "(encode_pipeline(cluster_by=...)): shard headers carry "
            "no key ranges"
        )
    recs.sort(key=lambda r: (r["key_min"], r["key_max"]))
    for a, b in zip(recs, recs[1:]):
        if b["key_min"] < a["key_max"]:
            raise ValueError(
                "take_row_range needs disjoint shard key ranges "
                f"(shards {a['shard']} and {b['shard']} overlap) — "
                "re-encode with cluster_by"
            )
    total = sum(int(r["rows"]) for r in recs)
    start = max(0, min(int(start), total))
    stop = max(start, min(int(stop), total))

    chosen, off = [], 0
    first_off = None
    for r in recs:
        n = int(r["rows"])
        if off + n > start and off < stop:
            if first_off is None:
                first_off = off
            chosen.append(r["shard"])
        off += n
        if off >= stop:
            break

    if not chosen:
        # empty slice with the right schema: decode zero rows of the
        # first shard
        chosen, first_off, stop = [recs[0]["shard"]], 0, 0
        start = 0

    tables = manifest.load_plan().tables if manifest.has_plan() else {}
    fs, root = fsmod.get_fs(out_dir, filesystem)
    paths = [f"{root.rstrip('/')}/{s}" for s in chosen]

    import pyarrow as pa

    from ..container import decode_table

    # decoded in the driver, concatenated in key order: 1-2 shards
    # typically — the concat is shard-sized, not corpus-sized
    t = pa.concat_tables([
        decode_table(fsmod.read_bytes(fs, p), tables, columns=columns)
        for p in paths
    ])
    return t.slice(start - first_off, stop - start).to_pandas()
