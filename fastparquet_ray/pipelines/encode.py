"""The flagship encode pipeline (SURVEY.md §3.4 lifecycle):

    input_blocks(paths)                     whole row groups per block,
                                            from the parquet footers
    [key pass] cluster_by only:             Ray tasks over the key
      boundary sample | z-order profile     columns, submitted before
                                            planning
    sample_fragments + train_plan           in the driver, bounded
    [key pass] z-order boundary sample      on the Morton key
    one Ray task per run of blocks          cluster.pack: contiguous,
                                            byte-balanced
      per block: read (state.fs) + provenance column
      [layout] salt / range bucket / zkey   the map step
      -> EncodeShard                        no exchange: plain,
                                            "local", hive
      -> or concat, split into R parts      salted, clustered, z-order
    [exchange] R reducers (cluster.map_reduce):
      concat in block order, stable sort
      -> EncodeShard                        the reducer encodes
    -> shard files + manifest records       idempotent per partition

The job, key passes included, runs on plain Ray tasks and starts no
Ray Data job. Every task count (key passes, map tasks, reducers)
comes from ``cluster.reducer_count``: max(Ray CPUs, input bytes /
target block size), at most one task per block (or key). Without an
exchange, each task reads its blocks one at a time, hashes, encodes
and writes each block's shards, and returns manifest records.
With one, the reducer that receives a bucket's rows encodes them, so
the sorted rows never cross the object store again. Each worker
process builds the job's ``EncodeShard`` (plan, shared symbol tables)
once (``stages.encode_stage.job_encoder``). The only driver-side
materialization is the manifest records (one per partition). Resume
prunes finished partition ids before encoding (reference analog:
append='overwrite', writer.py:1014-1032). The summary's ``stage_s``
gives the wall seconds of each stage (sample, train, fingerprint,
``keys`` — the driver's wait for the key passes after planning, 0.0
without ``cluster_by`` —, the Ray job, manifest bookkeeping); it is
also logged at DEBUG.

Resume works at two levels:

- Fragment fingerprints, before any read. ``encode_pipeline``
  fingerprints every input file (normalized path, size, blake2b-128
  over the whole file's bytes — never a footer hash or mtime, which
  miss a same-size rewrite) and stamps it, with a tag of the
  split/key layout, on the manifest records of the blocks read from
  that file. On resume a
  file is reused without being read when every record naming it names
  it alone, carries the same fingerprint and layout tag, and points at
  a shard that exists at the recorded size. When every file is reused,
  no Ray task runs and no shard is opened. A file whose (size,
  mtime) changed while the run read it gets no fingerprint.
- The content hash, for everything else. Partition ids hash each
  block's full content, so a block whose id has a finished shard
  (manifest record or valid orphan from a killed run) is skipped after
  being read. It stays the authority for the exchange layouts
  (``cluster_by``, z-order, ``partition_by_source=True``), for inputs
  whose schema owns a ``path`` column, for manifests written before
  fingerprints, and for any file whose fingerprint changed.

Every file that is read on resume is logged once to the
``fastparquet_ray`` logger with its reason (see
``Manifest.reusable_fragments``, plus ``exchange_layout`` and
``path_column``).

Ray is NEVER initialised here — callers (perfbench / tests / driver)
own the session.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import logging
import time

import pyarrow as pa

from ..container import check_codec_specs
from ..plan import CodecPlan, sample_fragments, train_plan
from ..stages.encode_stage import (
    BUCKET_COL,
    SALT_COL,
    add_salt_column,
    encode_with,
    read_block,
)
from ..state.manifest import Manifest
from .cluster import (
    block_target,
    map_reduce,
    pack,
    range_bucket,
    reducer_count,
    start_sample,
    submit_in_order,
    target_buckets,
)

log = logging.getLogger("fastparquet_ray")

@contextlib.contextmanager
def _timed(stage_s: dict[str, float], stage: str):
    t0 = time.perf_counter()
    try:
        yield
    finally:
        stage_s[stage] += time.perf_counter() - t0


def fingerprint_inputs(paths: list[str]) -> dict[str, tuple]:
    """normalized path -> (stat key taken before hashing, fingerprint)."""
    from ..state import fs as fsmod

    out = {}
    for p in paths:
        fs, rp = fsmod.get_fs(p)
        st = fsmod.stat_key(fs, rp)
        out[rp] = (st, fsmod.file_fingerprint(fs, rp))
    return out


def salt_buckets(plan: CodecPlan) -> dict[str, int]:
    """Salt sub-buckets per source for ``add_salt_column``: 32 buckets
    shared out by sampled source frequency, so the hottest source
    splits over many exchange groups instead of one giant one. A
    source the sample missed gets one bucket in ``add_salt_column``."""
    hist = plan.stats.get("__source_hist__") or {}
    total = sum(hist.values()) or 1
    return {s: max(1, round(32 * c / total)) for s, c in hist.items()}


def resolve_inputs(paths: list[str] | str) -> tuple[list[str], "pa.Schema"]:
    """The input parquet files (a dir, possibly a URI, lists its
    ``*.parquet`` fragments; a single file is one) and the first
    one's Arrow schema, read from its footer."""
    import pyarrow.parquet as pq

    from ..state import fs as fsmod

    if isinstance(paths, str):
        in_fs, in_root = fsmod.get_fs(paths)
        proto = "" if fsmod.is_local(in_fs) else paths.split("://", 1)[0] + "://"
        if in_fs.isdir(in_root):
            paths = sorted(
                proto + p
                for p in in_fs.glob(fsmod.join(in_fs, in_root, "*.parquet"))
            )
        else:
            paths = [paths]
    first_fs, first_rp = fsmod.get_fs(paths[0])
    with first_fs.open(first_rp, "rb") as f:
        return paths, pq.ParquetFile(f).schema_arrow


def encode_pipeline(
    paths: list[str] | str,
    out_dir: str,
    plan: CodecPlan | None = None,
    resume: bool = True,
    partition_by_source: bool | str = False,
    key_column: str = "doc_id",
    outer: str | None = None,
    column_codecs: dict | None = None,
    bloom_cols: list[str] | None = None,
    hive_cols: list[str] | None = None,
    cluster_by: str | None = None,
    retrain_on_drift: float | None = None,
    filesystem=None,
) -> dict:
    """Run the encode job; returns summary metrics (rows, bytes, ratio,
    partitions encoded vs skipped, input fragments reused vs read).

    partition_by_source:
      False     - no source partitioning (zero exchanges)
      True      - salted exchange (cluster.exchange on the salt
                  column): each (source, salt) bucket lands in ONE
                  shard (fewest shards; one all-to-all)
      "local"   - write-side partitioning: every input block splits by
                  source locally and writes one shard per non-empty
                  (block, source) — shards are still source-pure but
                  there are more of them; ZERO network exchange (the
                  scale pattern when co-location isn't required)

    hive_cols: hive `key=value` directory layout (reference
    partition_on, writer.py:1066-1105): each block splits locally by
    these columns, the columns are dropped from the payload and stored
    in the shard path; decode_dataset reconstructs them (M8).

    retrain_on_drift: append-time vocabulary-drift policy (NEXT r4
    #3). When resuming with a stored plan, the (cheap, bounded,
    deterministic) sampling pass runs over the CURRENT inputs and
    measures, per shared-rank-table column, the fraction of sampled
    values the stored table cannot rank. If the worst ratio exceeds
    this threshold the plan re-trains on that sample; the manifest
    sidecar MERGES symbol tables so shards encoded under the old plan
    stay decodable. The summary reports drift_ratio / plan_retrained
    either way. None (default) = manual flow, no extra sampling pass.

    cluster_by: opt-in range sort on this column before encoding
    (reference analog: sorted row-group writes detected by
    sorted_partitioned_columns, api.py:609-628). Shards then hold
    disjoint key ranges, so key filters prune to O(1) shards through
    the header min/max stats. Costs one exchange; mutually
    exclusive with the salted exchange. A LIST of 2-3 columns selects
    Z-ORDER clustering instead (pipelines/zorder.py): the sort key is
    the Morton interleave of the normalized columns, so shards cover
    small hyper-rectangles and the same per-column header stats prune
    MULTI-dimensional filters — same single exchange, plus one cheap
    profile pass for the normalization bounds.
    """
    if cluster_by and partition_by_source is True:
        raise ValueError(
            "cluster_by and partition_by_source=True are mutually "
            "exclusive (two conflicting global layouts)"
        )
    from ..state import fs as fsmod

    # the first input's schema: user codec specs are checked against it
    # before any work, and it tells whether the user owns a "path"
    paths, schema = resolve_inputs(paths)
    if partition_by_source and "source" not in schema.names:
        raise ValueError(
            "partition_by_source splits shards on the 'source' column, "
            "which the input does not have"
        )
    if column_codecs:
        check_codec_specs(column_codecs, schema)
    out_fs, out_root = fsmod.get_fs(out_dir, filesystem)
    out_fs.makedirs(out_root, exist_ok=True)
    manifest = Manifest(out_dir, filesystem=filesystem)
    stage_s = dict.fromkeys(
        ("sample", "train", "fingerprint", "keys", "job", "manifest"), 0.0
    )
    # a clustered or z-order encode reads every file (no fingerprints):
    # its first key pass starts before planning, so worker start-up
    # overlaps the driver's sampling and training
    blocks = keys = None
    if cluster_by:
        blocks = input_blocks(paths)
        keys = _start_keys(blocks, cluster_by, key_column)

    outer_spec = None
    if outer is not None:
        # "zstd" or "zstd:5" — outer block codec over encoded buffers
        # (reference analog: compression.py codec registry, E18)
        name, _, lvl = outer.partition(":")
        outer_spec = (name, int(lvl) if lvl else None)
    drift_ratio = None
    plan_retrained = False
    if plan is None:
        if resume and manifest.has_plan():
            with _timed(stage_s, "manifest"):
                plan = manifest.load_plan()
            if outer_spec is not None:
                plan.outer = outer_spec
            if retrain_on_drift is not None:
                from ..plan import measure_drift

                with _timed(stage_s, "sample"):
                    sample = sample_fragments(paths)
                with _timed(stage_s, "train"):
                    drift = measure_drift(plan, sample)
                    drift_ratio = max(drift.values(), default=0.0)
                    if drift_ratio > retrain_on_drift:
                        plan = train_plan(sample, outer=plan.outer)
                        plan_retrained = True
        else:
            with _timed(stage_s, "sample"):
                sample = sample_fragments(paths)
            with _timed(stage_s, "train"):
                plan = train_plan(sample, outer=outer_spec)
    elif outer_spec is not None:
        plan.outer = outer_spec
    if column_codecs:
        # per-column user override (checked above), reference analog:
        # the per-column compression dict (writer.py:829-860)
        plan.specs.update(column_codecs)
    if bloom_cols:
        # opt-in equality-pruning bloom filters: flag rides in the
        # column spec, built in the container stats path per shard
        for c in bloom_cols:
            plan.specs.setdefault(c, {})["bloom"] = True
    # the partition columns leave the shards: their types ride in the
    # plan sidecar, so readers rebuild them as written
    plan.hive = (
        pa.schema([schema.field(c) for c in hive_cols]) if hive_cols else None
    )
    with _timed(stage_s, "manifest"):
        manifest.write_plan(plan)

    # provenance column salts partition ids so duplicate input files
    # don't collapse into one shard — skipped iff the user's schema
    # already owns a "path" column (then ids are content-only again;
    # the user's column is encoded untouched — ADVICE r02). No
    # provenance under cluster_by: a range sort redistributes rows
    # anyway, so file-identity salting no longer applies (content
    # hashing still makes ids unique and resume-safe)
    user_has_path = "path" in schema.names
    provenance_col = (
        None if user_has_path or cluster_by else "path"
    )

    # fragment fingerprints (module docstring): only exchange-free
    # layouts with a provenance column tie each record to one file
    if cluster_by or partition_by_source is True:
        content_reason = "exchange_layout"
    elif user_has_path:
        content_reason = "path_column"
    else:
        content_reason = None
    norm = [fsmod.get_fs(p)[1] for p in paths]
    fps: dict[str, tuple] = {}
    layout = ""
    if content_reason is None:
        # records reused under another split/key layout would keep
        # that layout's shards; the fourth slot (a since-removed row
        # batch size) stays null so existing records keep their tag
        layout = hashlib.blake2b(
            json.dumps(
                [key_column, partition_by_source, hive_cols, None]
            ).encode(),
            digest_size=4,
        ).hexdigest()
        with _timed(stage_s, "fingerprint"):
            fps = fingerprint_inputs(paths)
    reused: list[dict] = []
    reasons: dict[str, str] = {}
    if resume:
        if fps:
            with _timed(stage_s, "manifest"):
                reused, reasons = manifest.reusable_fragments(
                    {n: fp for n, (_, fp) in fps.items()}, layout
                )
        else:
            reasons = dict.fromkeys(norm, content_reason)
        for frag, why in reasons.items():
            log.info("reading fragment %s: %s", frag, why)
    reused_frags = set(fps) - set(reasons) if resume else set()
    to_read = [p for p, n in zip(paths, norm) if n not in reused_frags]
    records = []
    if to_read:
        ranges = None
        if keys is not None:
            with _timed(stage_s, "keys"):
                ranges = keys()
        with _timed(stage_s, "job"):
            if blocks is None:
                blocks = input_blocks(to_read)
            records = _encode_job(
                blocks, out_dir, manifest, plan, resume=resume,
                partition_by_source=partition_by_source,
                key_column=key_column, hive_cols=hive_cols,
                ranges=ranges, provenance_col=provenance_col,
                filesystem=filesystem,
            )
    # records name their files by provenance string (``provenance``):
    # map it back to the normalized path. A file rewritten while this
    # run read it gets no fingerprint.
    alias = {provenance(p): n for p, n in zip(paths, norm)}
    stable = {
        n
        for p, n in zip(paths, norm)
        if n in fps and n not in reused_frags
        and fsmod.stat_key(*fsmod.get_fs(p)) == fps[n][0]
    }
    for r in records:
        frags = [alias.get(f, f) for f in r["fragment"].split("\x00")]
        single = len(frags) == 1 and frags[0] in stable
        # exchange blocks mix many files: keep their lines short
        r["fragment"] = "\x00".join(frags) if fps else ""
        r["fragment_fp"] = fps[frags[0]][1] if single else ""
        r["layout"] = layout if single else ""
    # a reused record written before records carried every stat key
    # takes them from its shard's header, once
    with _timed(stage_s, "manifest"):
        reused = manifest.with_covering_stats(reused)
    records = [dict(r, status="skipped") for r in reused] + records
    # overwrite semantics: the manifest holds EXACTLY this run's
    # partition set, and shards from older runs over a different input
    # set / block configuration are deleted — otherwise decode would
    # silently return duplicated rows
    with _timed(stage_s, "manifest"):
        manifest.write_records(records)
        orphans = manifest.remove_orphan_shards(
            {r["partition_id"] for r in records}
        )
    log.debug("encode %s stage seconds: %s", out_dir, stage_s)
    encoded = [r for r in records if r["status"] == "encoded"]
    skipped = [r for r in records if r["status"] == "skipped"]
    raw = sum(r["raw_bytes"] for r in records)
    enc = sum(r["enc_bytes"] for r in records)
    return {
        "partitions": len(records),
        "encoded": len(encoded),
        "skipped": len(skipped),
        "orphans_removed": orphans,
        # input files reused from their fingerprints vs read this run
        "fragments_reused": len(reused_frags),
        "fragments_read": len(to_read),
        "rows": int(sum(r["rows"] for r in records)),
        "raw_bytes": int(raw),
        "enc_bytes": int(enc),
        "ratio": (enc / raw) if raw else None,
        # aggregate vocabulary-drift signal (NEXT r4 #3): when this
        # grows across append runs, re-train the plan's shared rank
        # table (encode with resume=False, plan=None)
        "zrank_extras": int(
            sum(r.get("zrank_extras", 0) or 0 for r in records)
        ),
        # retrain_on_drift policy outcome (None/False when the policy
        # was off or no stored plan was being reused)
        "drift_ratio": drift_ratio,
        "plan_retrained": plan_retrained,
        # wall seconds per driver stage (module docstring)
        "stage_s": stage_s,
        "out_dir": out_dir,
    }


def provenance(path: str) -> str:
    """The provenance string of an input file, which salts the
    partition ids of its blocks: a local path exactly as given, a URI
    without its protocol (what Ray Data's ``include_paths`` reports)."""
    return path.split("://", 1)[-1]


def input_blocks(paths: list[str]) -> list[tuple]:
    """The blocks the encode job reads, from the parquet footers: each
    file cut into whole row groups in file order, a new block started
    before the next row group would take the block's uncompressed size
    (the footer's ``total_byte_size``) past ``cluster.block_target()``
    bytes; a row group larger than that is a block of its own. Block
    formation depends only on each file, so partition ids stay stable
    under appends of new files and when only some files are read. Returns
    ``(path, provenance, row groups, rows, bytes)`` per block that
    holds rows, in input order; the path is made fit for a worker
    (``state.fs.for_workers``)."""
    import pyarrow.parquet as pq

    from ..state import fs as fsmod

    target, out = block_target(), []
    for p in paths:
        fs, rp = fsmod.get_fs(p)
        md = pq.read_metadata(rp, filesystem=fsmod.to_pyarrow_fs(fs))
        block = None
        for i in range(md.num_row_groups):
            rg = md.row_group(i)
            if block is None or block[4] + rg.total_byte_size > target:
                block = [fsmod.for_workers(p), provenance(p), [], 0, 0]
                out.append(block)
            block[2].append(i)
            block[3] += rg.num_rows
            block[4] += rg.total_byte_size
    return [tuple(b) for b in out if b[3]]


def _read(block: tuple, provenance_col: str | None, steps=()) -> pa.Table:
    """Map task input: read ``block``, add the provenance column (when
    the layout salts ids with it), then apply the layout's ``steps``
    (the salt, the range bucket or the Morton key) in order."""
    path, prov, row_groups, *_ = block
    t = read_block(path, row_groups)
    if provenance_col is not None:
        t = t.append_column(
            provenance_col, pa.array([prov] * t.num_rows, pa.string())
        )
    for step in steps:
        t = step(t)
    return t


def _read_keys(block: tuple, cols: list[str]) -> pa.Table:
    """Key-pass input: only the key columns of ``block``."""
    path, _, row_groups, *_ = block
    return read_block(path, row_groups, cols)


def _read_encode(read, job: list, *blocks: tuple) -> pa.Table:
    """Exchange-free task: read and encode a run of blocks, one block
    at a time; returns their manifest records, in order."""
    return pa.concat_tables(
        [encode_with(job, read(b)) for b in blocks],
        promote_options="default",
    )


def _start_keys(blocks: list[tuple], cluster_by, key_column: str):
    """Submit the first key pass of a clustered or z-order encode over
    ``blocks`` (the boundary sample, or the z-order profile, whose
    result the boundary sample of the Morton key needs) on plain Ray
    tasks, reading only the key columns. Returns ``wait()``, which
    gives the range layout: its map steps and its exchange (key
    column, sort columns, dropped columns, key count)."""
    # deterministic range buckets (pipelines/cluster.py), not
    # Dataset.sort, whose random boundaries change every partition id
    # per run: shard key ranges stay disjoint (header min/max stats
    # prune a key filter to O(1) shards) and a re-run skips every
    # finished bucket
    runs = pack(blocks, [b[4] for b in blocks])
    total_rows = sum(b[3] for b in blocks)
    n_buckets = target_buckets(total_rows)
    if not isinstance(cluster_by, (list, tuple)):
        bnd = start_sample(
            runs, cluster_by, total_rows, n_buckets,
            prepare=functools.partial(_read_keys, cols=[cluster_by]),
        )

        def wait():
            b = bnd()
            return [range_bucket(cluster_by, b)], (
                BUCKET_COL, [cluster_by, key_column], [], len(b) + 1
            )

        return wait
    # z-order: bucket on the Morton key of 2-3 columns, so the same
    # stats prune filters on every key column
    from .zorder import ZKEY_COL, add_zkey, start_profile

    zcols = [str(c).strip() for c in cluster_by]
    if not 2 <= len(zcols) <= 3:
        raise ValueError(
            f"z-order cluster_by needs 2 or 3 columns, got {zcols!r}"
        )
    read_keys = functools.partial(_read_keys, cols=zcols)
    prof = start_profile(runs, zcols, prepare=read_keys)

    def wait_z():
        zkey = functools.partial(add_zkey, cols=zcols, prof=prof())
        b = start_sample(
            runs, ZKEY_COL, total_rows, n_buckets, map_key=zkey,
            prepare=read_keys,
        )()
        return [zkey, range_bucket(ZKEY_COL, b)], (
            BUCKET_COL, [ZKEY_COL, key_column], [ZKEY_COL], len(b) + 1
        )

    return wait_z


def _encode_job(
    blocks: list[tuple],
    out_dir: str,
    manifest: Manifest,
    plan: CodecPlan,
    *,
    resume: bool,
    partition_by_source: bool | str,
    key_column: str,
    hive_cols: list[str] | None,
    ranges,
    provenance_col: str | None,
    filesystem,
) -> list[dict]:
    """The Ray job over the blocks that must be read (module
    docstring): one map task per run of blocks (``cluster.pack``),
    plus the exchange's reducers, which encode, on the salted,
    clustered and z-order layouts. ``ranges`` is the map steps and
    exchange of a clustered or z-order encode (``_start_keys``).
    Returns one manifest record per partition (encoded, or skipped by
    the content hash)."""
    import ray

    from ..state import fs as fsmod

    if not blocks:
        return []
    # the map steps, the split columns and the exchange (key column,
    # sort columns, dropped columns, key count), if the layout has one
    steps, exch = ranges or ([], None)
    # one shard per bucket: a reducer may hold several buckets, so
    # EncodeShard splits on BUCKET_COL
    split_by = [BUCKET_COL] if exch else []
    if partition_by_source is True:
        # the source salt (add_salt_column) is the exchange key; two
        # sources can share a salt, so each shard splits on the source
        buckets = salt_buckets(plan)
        steps.append(
            functools.partial(add_salt_column, buckets_by_source=buckets)
        )
        split_by += [SALT_COL, "source"]
        exch = (SALT_COL, [], [], sum(buckets.values()))
    elif partition_by_source:
        # "local": EncodeShard splits each block on the source, no
        # exchange
        split_by.insert(0, "source")
    if hive_cols:
        # local split by the hive columns (no exchange); composes with
        # the salt column when a salted layout was also requested
        split_by += list(hive_cols)
    # one put per job: each worker builds the encoder (plan parse,
    # shared symbol tables) on its first task of the job (job_encoder)
    job = [ray.put({
        "plan_json": plan.to_json(),
        "out_dir": fsmod.for_workers(out_dir, filesystem),
        # valid_shard_ids opens the shards no manifest record vouches
        # for: only this content path needs it, to adopt a killed
        # run's orphans
        "finished": manifest.finished_ids() if resume else set(),
        "key_column": key_column,
        "split_by": split_by or None,
        "provenance_col": provenance_col,
        "hive_cols": hive_cols,
        "filesystem": filesystem,
    })]
    read = functools.partial(
        _read, provenance_col=provenance_col, steps=tuple(steps)
    )
    sizes = [b[4] for b in blocks]
    runs = pack(blocks, sizes)
    if exch is None:
        # no exchange: each task reads, hashes, encodes and writes its
        # blocks' shards, and only manifest records leave it
        task = ray.remote(_read_encode)
        outs = submit_in_order(lambda run: task.remote(read, job, *run), runs)
    else:
        # the exchange's reducers encode their sorted rows, which never
        # cross the object store a second time
        key, sort_cols, drop_cols, n_keys = exch
        outs = [
            t for t, _ in map_reduce(
                runs, key, reducer_count(sum(sizes), n_keys),
                sort_cols, drop_cols, prepare=read,
                finish=functools.partial(encode_with, job),
            )
        ]
    # tiny: one record per partition; a reducer that received no rows
    # returns an empty table
    return [r for t in ray.get(outs) if t.num_rows for r in t.to_pylist()]
