"""The flagship encode pipeline (SURVEY.md §3.4 lifecycle):

    sample_fragments + train_plan               in the driver, bounded
    read_parquet(shards)                        one block per file
      -> [layout] cluster.exchange              explicit, optional: salted
                                                source, range or z-order
      -> map_batches(EncodeShard, task pool)    shared symbol tables
      -> shard files + manifest records         idempotent per partition

Without an exchange, the read and the encode fuse into one Ray Data
operator: each task reads one file, hashes, encodes and writes its
shard. The only driver-side materialization is the tiny manifest
dataset (one row per partition). Resume prunes finished partition
ids before encoding (reference analog: append='overwrite',
writer.py:1014-1032). The summary's ``stage_s`` gives the wall
seconds of each stage (sample, train, fingerprint, the Ray Data job,
manifest bookkeeping); it is also logged at DEBUG.

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
  no Ray Data job runs and no shard is opened. A file whose (size,
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
import hashlib
import json
import logging
import time

from ..container import check_codec_specs
from ..data import SOURCES
from ..plan import CodecPlan, sample_fragments, train_plan
from ..stages.encode_stage import (
    BUCKET_COL,
    SALT_COL,
    EncodeShard,
    add_salt_column,
    task_state,
)
from ..state.manifest import Manifest
from .cluster import (
    bucket_layout,
    exchange,
    sample_boundaries,
    target_buckets,
    total_input_rows,
)

log = logging.getLogger("fastparquet_ray")

# The encode batch is ONE Ray block (batch_size=None): block formation
# from identical inputs is deterministic, so content-hashed partition
# ids are stable across runs — the property resume relies on. Shard
# size is governed by the read's block size (DataContext
# target_max_block_size, default 128 MiB — a sane shard size at 100 TB).
DEFAULT_BATCH_ROWS = None


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


def salt_buckets(plan: CodecPlan, proportional: bool) -> dict[str, int]:
    """Salt sub-buckets per source for ``add_salt_column``.
    proportional: 32 buckets shared out by sampled source frequency, so
    the hottest source splits over many exchange groups instead of one
    giant one. Otherwise ONE per source: write-side splitting needs
    source PURITY only, and sub-buckets would merely fragment each
    block into ~32 tiny shards (measured: 2048 vs 320 partitions at
    sf0.1, with the per-shard symbol-table overhead that implies)."""
    hist = plan.stats.get("__source_hist__") or {}
    total = sum(hist.values()) or 1
    buckets = {
        s: max(1, round(32 * c / total)) if proportional else 1
        for s, c in hist.items()
    }
    for s in SOURCES:
        buckets.setdefault(str(s), 1)
    return buckets


def encode_pipeline(
    paths: list[str] | str,
    out_dir: str,
    plan: CodecPlan | None = None,
    resume: bool = True,
    batch_rows: int | None = DEFAULT_BATCH_ROWS,
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
                  bucket locally and writes one shard per non-empty
                  (block, bucket) — shards are still source-pure but
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
    the header min/max stats. Costs one all-to-all sort; mutually
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

    if isinstance(paths, str):
        # a directory (possibly a URI) -> enumerate its parquet
        # fragments; a single file -> one-element list
        in_fs, in_root = fsmod.get_fs(paths)
        proto = "" if fsmod.is_local(in_fs) else paths.split("://", 1)[0] + "://"
        if in_fs.isdir(in_root):
            paths = sorted(
                proto + p
                for p in in_fs.glob(fsmod.join(in_fs, in_root, "*.parquet"))
            )
        else:
            paths = [paths]
    # the first input's schema: user codec specs are checked against it
    # before any work, and it tells whether the user owns a "path"
    import pyarrow.parquet as pq

    first_fs, first_rp = fsmod.get_fs(paths[0])
    with first_fs.open(first_rp, "rb") as f:
        schema = pq.ParquetFile(f).schema_arrow
    if column_codecs:
        check_codec_specs(column_codecs, schema)
    out_fs, out_root = fsmod.get_fs(out_dir, filesystem)
    out_fs.makedirs(out_root, exist_ok=True)
    manifest = Manifest(out_dir, filesystem=filesystem)
    stage_s = dict.fromkeys(
        ("sample", "train", "fingerprint", "job", "manifest"), 0.0
    )

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
        # that layout's shards
        layout = hashlib.blake2b(
            json.dumps(
                [key_column, partition_by_source, hive_cols, batch_rows]
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
        with _timed(stage_s, "job"):
            records = _encode_job(
                to_read, out_dir, manifest, plan, resume=resume,
                batch_rows=batch_rows,
                partition_by_source=partition_by_source,
                key_column=key_column, hive_cols=hive_cols,
                cluster_by=cluster_by, provenance_col=provenance_col,
                filesystem=filesystem,
            )
    # Ray reports a relative input path as given and a URI without its
    # protocol: map either back to the normalized path. A file
    # rewritten while this run read it gets no fingerprint.
    alias = dict(zip(paths, norm)) | dict(zip(norm, norm))
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


def _encode_job(
    paths: list[str],
    out_dir: str,
    manifest: Manifest,
    plan: CodecPlan,
    *,
    resume: bool,
    batch_rows: int | None,
    partition_by_source: bool | str,
    key_column: str,
    hive_cols: list[str] | None,
    cluster_by,
    provenance_col: str | None,
    filesystem,
) -> list[dict]:
    """The Ray Data job over the fragments that must be read: read,
    optional exchange, EncodeShard. Returns one manifest record per
    partition (encoded, or skipped by the content hash)."""
    import ray
    import ray.data

    # valid_shard_ids opens the shards no manifest record vouches for:
    # only this content path needs it, to adopt a killed run's orphans
    finished = manifest.finished_ids() if resume else set()
    finished_ref = ray.put(finished) if finished else None
    # override_num_blocks = one block per input file: block formation
    # then depends ONLY on each file (not the whole input set), so
    # content-addressed partition ids stay stable under APPENDS of new
    # files (reference append mode, writer.py:973-1032) and when only
    # some files are read. Trade-off: upstream files should be written
    # at roughly block size (norm for training-data lakes; our
    # generator and any 128-512 MB layout).
    ds = ray.data.read_parquet(
        paths,
        override_num_blocks=len(paths),
        include_paths=provenance_col is not None,
    )
    cluster_split: list[str] = []
    if cluster_by:
        # DETERMINISTIC range re-layout (pipelines/cluster.py) instead
        # of Dataset.sort: sort's randomly-sampled boundaries change
        # every run, which changed every content-hashed partition id
        # and silently disabled resume for clustered layouts. The
        # bucket exchange costs the same single all-to-all, keeps
        # shard key ranges disjoint (same pruning contract), and makes
        # partition ids a pure function of the data — a re-run (or a
        # killed run restarted) skips finished buckets.
        total_rows = total_input_rows(paths)
        n_buckets = target_buckets(total_rows)
        if isinstance(cluster_by, (list, tuple)):
            # z-order layout: one profile pass (summary-scaled) for
            # the normalization bounds, derive the Morton key, bucket
            # on it — shards land on small hyper-rectangles of the
            # clustered columns and the same header min/max stats
            # prune filters on EVERY key column
            from .zorder import ZKEY_COL, add_zkey, zorder_profile

            zcols = [str(c).strip() for c in cluster_by]
            if not 2 <= len(zcols) <= 3:
                raise ValueError(
                    "z-order cluster_by needs 2 or 3 columns, got "
                    f"{zcols!r}"
                )
            # profile + boundary sample over KEY-COLUMN-ONLY reads:
            # neither pass may pull the heavy payload columns
            prof_ds = ray.data.read_parquet(paths, columns=zcols)
            prof = zorder_profile(prof_ds, zcols)
            bnd = sample_boundaries(
                ray.data.read_parquet(paths, columns=zcols),
                ZKEY_COL,
                total_rows,
                n_buckets,
                map_key=lambda t, _z=zcols, _p=prof: add_zkey(t, _z, _p),
            )
            ds = bucket_layout(
                ds.map_batches(
                    lambda t, _z=zcols, _p=prof: add_zkey(t, _z, _p),
                    batch_format="pyarrow",
                ),
                ZKEY_COL,
                bnd,
                sort_cols=[ZKEY_COL, key_column],
                drop_cols=[ZKEY_COL],
            )
        else:
            # clustered layout: disjoint cluster-key bucket ranges, so
            # key-equality and range filters prune to O(1) shards via
            # the existing header min/max stats — then
            # export.sorted_partitioned_columns reports the column as
            # globally range-partitioned.
            bnd = sample_boundaries(
                ray.data.read_parquet(paths, columns=[cluster_by]),
                cluster_by,
                total_rows,
                n_buckets,
            )
            ds = bucket_layout(
                ds,
                cluster_by,
                bnd,
                sort_cols=[cluster_by, key_column],
            )
        cluster_split = [BUCKET_COL]
        # one shard per bucket: blocks may bundle several buckets, so
        # EncodeShard splits on BUCKET_COL; a row-count batcher would
        # weld disjoint key ranges back together
        batch_rows = None
    if partition_by_source:
        # source salt (add_salt_column); "local" splits each block on it
        # in EncodeShard with no exchange
        buckets = salt_buckets(plan, partition_by_source is True)
        ds = ds.map_batches(
            lambda b: add_salt_column(b, buckets), batch_format="pyarrow"
        )
        if partition_by_source is True:
            ds = exchange(ds, SALT_COL)

    split_by = [SALT_COL] if partition_by_source else None
    if cluster_split:
        split_by = (split_by or []) + cluster_split
    if hive_cols:
        # local split by the hive columns (no exchange); composes with
        # the salt column when a salted layout was also requested
        split_by = (split_by or []) + list(hive_cols)
    kwargs = {
        "plan_json": plan.to_json(),
        "out_dir": out_dir,
        "finished": finished_ref,
        "key_column": key_column,
        "split_by": split_by,
        "provenance_col": provenance_col,
        "hive_cols": hive_cols,
        "filesystem": filesystem,
    }
    # TASK pool with once-per-worker state (task_state): the encoder's
    # plan parse + shared symbol tables build once per worker process,
    # without an actor pool's spin-up. Neither this stage nor the read
    # sets ``concurrency``: with both unset Ray Data fuses them into one
    # ReadParquet->MapBatches operator, so each task reads, hashes,
    # encodes and writes one file's shard and no block crosses the
    # object store (a concurrency on either side splits them again).
    mani_ds = ds.map_batches(
        task_state(lambda: EncodeShard(**kwargs)),
        batch_format="pyarrow",
        batch_size=batch_rows,
        zero_copy_batch=True,
        num_cpus=1,
    )
    return mani_ds.take_all()  # tiny: one row per partition
