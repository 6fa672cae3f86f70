"""Codec auto-selection: sample partitions, trial-encode the sample
with each applicable codec, pick the smallest.

Reference analog: `infer_object_encoding` head-sniffing
(/root/reference/fastparquet/writer.py:316-336) and per-column
`compression=` dicts (writer.py:829-860); here the choice is measured
(encoded size on a deterministic sample), so retries are bit-identical
and the plan is recorded in the manifest.

The CodecPlan holds per-column codec specs plus shared symbol tables
(dict tables / FSST tables) trained once on the sample and broadcast
to encoder actors (SURVEY.md ST1) — the scale path: ~KBs shipped via
``ray.put`` once, never re-trained per batch.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .codecs import intcodec as ic
from .codecs import strcodec as sc
from .codecs.fsst import train_fsst

SAMPLE_ROWS_PER_FRAGMENT = 2000
SAMPLE_ROWS_TOTAL = 12_000  # cap: plan cost must not scale with input
SAMPLE_VALUES_CAP = 400_000  # per-column value cap for trial encodes


@dataclass
class CodecPlan:
    """Per-column codec choices + shared symbol tables."""

    specs: dict = field(default_factory=dict)  # column -> spec dict
    tables: dict = field(default_factory=dict)  # hash -> serialized bytes
    # "__source_hist__": sampled rows per source (salted layouts)
    stats: dict = field(default_factory=dict)
    outer: tuple | None = None  # ("zstd", level) block codec, or None

    def to_json(self) -> str:
        return json.dumps(
            {
                "specs": self.specs,
                "tables": {
                    k: base64.b64encode(v).decode() for k, v in self.tables.items()
                },
                "stats": self.stats,
                "outer": list(self.outer) if self.outer else None,
            }
        )

    @classmethod
    def from_json(cls, s: str) -> "CodecPlan":
        d = json.loads(s)
        outer = d.get("outer")
        return cls(
            specs=d["specs"],
            tables={
                k: base64.b64decode(v) for k, v in d["tables"].items()
            },
            stats=d.get("stats", {}),
            outer=tuple(outer) if outer else None,
        )


def _pick_int_codec(values: np.ndarray, outer: tuple | None = None) -> str:
    """Trial-encode the ``ic.INT_CANDIDATES``, pick the smallest
    (deterministic; a slower codec must beat the faster ones by >5%).
    With an ``outer`` block codec configured, candidates are ranked by
    size AFTER outer compression of the sample — the archival choice
    measures what it ships: on the 400k-value perfbench tokens sample
    (seed 1) under zstd:22, plain ships in 148,743 B and wins, while
    without an outer codec zrank wins outright."""
    if values.size == 0:
        return "plain"
    if values.size > SAMPLE_VALUES_CAP:
        values = values[:SAMPLE_VALUES_CAP]

    def shipped(blob: bytes) -> int:
        if outer is None:
            return len(blob)
        codec = pa.Codec(outer[0], compression_level=outer[1])
        return len(codec.compress(blob, asbytes=True))

    sizes: dict[str, int] = {}
    for name in ic.INT_CANDIDATES:
        try:
            sizes[name] = shipped(ic.INT_ENCODERS[name](values))
        except ValueError:
            continue
    best = min(sizes.values())
    return next(n for n, size in sizes.items() if size <= best * 1.05)


def _pick_str_codec(arr: pa.Array) -> tuple[dict, dict[str, bytes]]:
    """Returns (spec, tables) for a string column sample.

    dict: shared table when sampled cardinality is small;
    fsst: shared table otherwise, if it beats plain; else plain.
    """
    lengths, data = sc.str_to_bufs(arr)
    n = len(arr)
    distinct = pc.count_distinct(arr).as_py() if n else 0
    plain_len = len(sc.encode_plain_str(lengths, data))
    out_tables: dict[str, bytes] = {}
    cands: list[tuple[int, dict]] = [(plain_len, {"codec": "plain"})]
    if distinct and distinct <= max(n // 4, 16) and distinct <= 65536:
        table = sorted(
            v.as_py().encode() for v in pc.unique(arr)
        )
        thash = sc.dict_table_hash(table)
        blob = sc.encode_dict_str(lengths, data, shared_table=table)
        out_tables[thash] = sc._pack_str_list(table)
        cands.append((len(blob), {"codec": "dict", "table_hash": thash}))
    if n:
        ftable = train_fsst(lengths, data)
        if ftable.symbols:
            fhash = ftable.table_hash()
            blob = sc.encode_fsst_str(lengths, data, ftable, shared=True)
            out_tables[fhash] = ftable.serialize()
            cands.append((len(blob), {"codec": "fsst", "table_hash": fhash}))
    cands.sort(key=lambda x: x[0])
    spec = cands[0][1]
    used = {spec.get("table_hash")} if spec.get("table_hash") else set()
    return spec, {k: v for k, v in out_tables.items() if k in used}


def _maybe_share_zrank(spec: dict, values: np.ndarray, plan: "CodecPlan") -> dict:
    """When zrank wins a column, train the rank table ONCE on the plan
    sample and share it by hash (NEXT r3 #2): shards reference it via
    ``encode_zrank_shared`` instead of embedding a fresh
    ~4B-per-distinct table each, with an embedded-extras escape for
    values the sample never saw. Ranks are then stable corpus-wide."""
    if spec.get("codec") != "zrank" or values.size == 0:
        return spec
    rt = ic.RankTable(ic.train_rank_table(values))
    h = rt.table_hash()
    plan.tables[h] = rt.serialize()
    return {**spec, "table_hash": h}


SAMPLE_FRAGMENTS_CAP = 64  # stratified fragment subset for the plan


def _select_fragments(paths: list[str], cap: int = SAMPLE_FRAGMENTS_CAP) -> list[str]:
    """Deterministic stratified subset: evenly-spaced fragments across
    the (caller-ordered) path list — a source-ordered corpus therefore
    contributes samples from every region, not just its head. Keeps
    plan cost O(1) in fragment count (800k fragments at 100 TB would
    otherwise each be opened)."""
    if len(paths) <= cap:
        return list(paths)
    step = (len(paths) - 1) / (cap - 1)
    return [paths[round(i * step)] for i in range(cap)]


def _read_fragment_head(
    path: str, rows: int, columns: list[str] | None = None
) -> pa.Table | None:
    """Bounded sample slice of one fragment: ``rows`` rows spread over
    up to 4 evenly-spaced row groups (a source-ordered fragment
    contributes samples from every region, not just its head — VERDICT
    r02 #6), reading only those row groups' leading pages."""
    import pyarrow.parquet as pq

    from .state import fs as fsmod  # lazy: avoids plan<->state cycle

    fs, rp = fsmod.get_fs(path)
    with fs.open(rp, "rb") as fh:
        f = pq.ParquetFile(fh)
        ngr = f.num_row_groups
        if ngr == 0:
            return None
        take = min(4, ngr)
        step = (ngr - 1) / (take - 1) if take > 1 else 0
        rgs = sorted({round(i * step) for i in range(take)})
        per = -(-rows // len(rgs))  # ceil
        parts = []
        for rg in rgs:
            got = 0
            batches = []
            for batch in f.iter_batches(
                batch_size=per, row_groups=[rg], columns=columns
            ):
                batches.append(batch)
                got += batch.num_rows
                if got >= per:
                    break
            if batches:
                parts.append(pa.Table.from_batches(batches).slice(0, per))
        if not parts:
            return None
        return pa.concat_tables(parts).slice(0, rows)


def sample_fragments(
    paths: list[str],
    rows_per_fragment: int | None = None,
    columns: list[str] | None = None,
) -> pa.Table:
    """Deterministic bounded sample for plan training: rows from
    evenly-spaced row groups of an evenly-spaced fragment subset
    (stratified in BOTH dimensions). Read in the calling process, like
    the reference's in-process encoding sniff (infer_object_encoding,
    writer.py:316-336): at most 64 fragment heads, which costs less
    than starting a Ray Data job to read them. ``columns`` prunes at
    the read."""
    sel = _select_fragments(paths)
    if rows_per_fragment is None:
        rows_per_fragment = min(
            SAMPLE_ROWS_PER_FRAGMENT,
            max(200, SAMPLE_ROWS_TOTAL // max(len(sel), 1)),
        )
    parts = []
    for p in sel:
        t = _read_fragment_head(p, rows_per_fragment, columns)
        if t is not None:
            parts.append(t)
    return pa.concat_tables(parts) if parts else pa.table({})


def train_plan(sample: pa.Table, outer: tuple | None = None) -> CodecPlan:
    """Build a CodecPlan from a sampled table. ``outer``: the
    configured block codec — int-codec candidates are then ranked by
    post-outer size (what actually ships)."""
    plan = CodecPlan()
    plan.outer = outer
    sample = sample.combine_chunks()
    for name in sample.column_names:
        col = sample.column(name)
        arr = col.chunk(0) if col.num_chunks else pa.array([], col.type)
        t = arr.type
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            if arr.null_count:
                arr = arr.fill_null("")
            spec, tables = _pick_str_codec(arr)
            plan.specs[name] = spec
            plan.tables.update(tables)
        elif pa.types.is_list(t) or pa.types.is_large_list(t):
            values = arr.flatten()
            vt = t.value_type
            if (
                arr.null_count
                or values.null_count
                or not (pa.types.is_integer(vt) or pa.types.is_floating(vt))
            ):
                # nullable / non-numeric lists go through the recursive
                # container path; codecs chosen per shard (auto)
                plan.specs[name] = {}
                continue
            lengths = pc.list_value_length(arr).cast(pa.int32()).to_numpy()
            spec = {"lengths": {"codec": _pick_int_codec(lengths, outer)}}
            if pa.types.is_integer(vt):
                # float values: shuffle or plain, chosen per shard
                vnp = values.to_numpy()
                spec["values"] = _maybe_share_zrank(
                    {"codec": _pick_int_codec(vnp, outer)}, vnp, plan
                )
            plan.specs[name] = spec
        elif (
            pa.types.is_struct(t)
            or pa.types.is_map(t)
            or pa.types.is_floating(t)
        ):
            # recursive container path, or float_dec / shuffle / plain:
            # codecs chosen per shard (auto)
            plan.specs[name] = {}
        else:
            try:
                from .container import _to_int_np

                if arr.null_count:
                    arr = arr.fill_null(
                        False if pa.types.is_boolean(t) else 0
                    )
                vnp = _to_int_np(arr)
                plan.specs[name] = _maybe_share_zrank(
                    {"codec": _pick_int_codec(vnp, outer)}, vnp, plan
                )
            except (TypeError, pa.ArrowInvalid):
                plan.specs[name] = {}
    # source-skew histogram for the salting stage
    if "source" in sample.column_names:
        vc = sample.column("source").combine_chunks().value_counts()
        plan.stats["__source_hist__"] = {
            str(x["values"]): int(x["counts"]) for x in vc.to_pylist()
        }
    return plan


def measure_drift(plan: "CodecPlan", sample: pa.Table) -> dict[str, float]:
    """Vocabulary-drift measurement for the append-time re-train
    policy (encode_pipeline retrain_on_drift): for every column whose
    stored spec references a SHARED rank table, the fraction of the
    sampled values that table cannot rank (the values that would ship
    as embedded extras in every new shard). A ratio near 0 means the
    stored plan still covers the corpus; a large ratio means the
    vocabulary moved and the plan should re-train. Columns absent from
    the sample or without a shared table are skipped.

    Reference analog: fastparquet has no drift policy — its dictionary
    pages are per-row-group, so drift silently degrades ratio
    (writer.py:602-640); here the shared table makes drift observable.
    """
    out: dict[str, float] = {}
    sample = sample.combine_chunks()
    names = set(sample.column_names)
    for name, spec in plan.specs.items():
        vspec = spec.get("values") if isinstance(spec, dict) else None
        nested = vspec is not None
        target = vspec if nested else (spec if isinstance(spec, dict) else None)
        if not target or not target.get("table_hash"):
            continue
        blob = plan.tables.get(target["table_hash"])
        if blob is None or name not in names:
            continue
        col = sample.column(name)
        arr = col.chunk(0) if col.num_chunks else pa.array([], col.type)
        if nested:
            values = arr.flatten()
            if values.null_count:
                values = values.drop_null()
            vnp = values.to_numpy(zero_copy_only=False)
        else:
            if arr.null_count:
                arr = arr.drop_null()
            from .container import _to_int_np

            try:
                vnp = _to_int_np(arr)
            except (TypeError, pa.ArrowInvalid):
                continue
        if vnp.size == 0:
            continue
        rt = ic.RankTable(ic.deserialize_rank_values(blob))
        out[name] = float((rt.lookup(vnp) == -1).mean())
    return out
