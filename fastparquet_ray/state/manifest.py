"""Checkpoint manifest: per-partition lineage records + plan/symbol
sidecars, the engine's resume mechanism.

Reference analogs: the `_metadata` sidecar consolidating row-group
metadata (/root/reference/fastparquet/writer.py:1044-1047,
util.py:115-213 metadata_from_many) and `append='overwrite'`
idempotent partition replacement (writer.py:1014-1032). Here: one
JSONL line per encoded partition (partition id, shard path, codec ids,
symbol-table hashes, byte counts); a killed run resumes by pruning
finished partition ids before encoding (SURVEY.md §3.4).

All I/O goes through state.fs (fsspec), so the encoded dataset can
live on any filesystem/object store (reference S10: open_with
threading, api.py:95-103) — ``out_dir`` may be a plain path or a URI.
"""

from __future__ import annotations

import json
import logging

from ..plan import CodecPlan
from . import fs as fsmod

MANIFEST_NAME = "_manifest.jsonl"
PLAN_NAME = "_plan.json"
PANDAS_NAME = "_pandas.json"  # write(write_index=True) index sidecar

log = logging.getLogger("fastparquet_ray")


def _shard_pid(path: str) -> str:
    name = path.rsplit("/", 1)[-1]
    return name[len("shard-") : -len(".fprs")]


def covering_stats(rec: dict) -> dict | None:
    """A record's column stats (JSON field ``stats``) when they cover
    its shard, i.e. every column carries every key
    ``container.column_stats`` writes (``kind`` marks them); None for a
    record written before records carried them."""
    stats = json.loads(rec["stats"]) if "stats" in rec else None
    if stats is not None and all("kind" in c for c in stats.values()):
        return stats
    return None


class Manifest:
    def __init__(self, out_dir: str, filesystem=None):
        self.out_dir = out_dir
        self.fs, self.root = fsmod.get_fs(out_dir, filesystem)
        self.path = fsmod.join(self.fs, self.root, MANIFEST_NAME)
        self.plan_path = fsmod.join(self.fs, self.root, PLAN_NAME)
        self.pandas_path = fsmod.join(self.fs, self.root, PANDAS_NAME)

    # ----- plan sidecar (includes shared symbol tables) -----

    def has_plan(self) -> bool:
        return self.fs.exists(self.plan_path)

    def write_plan(self, plan: CodecPlan) -> None:
        """Publish the plan sidecar. Symbol tables are MERGED with any
        existing sidecar's tables (old entries kept, new win on hash
        collision — hashes are content-addressed so a collision is the
        same table): an append run with a re-trained plan (vocabulary
        drift) must not orphan the table hashes that already-encoded
        shards reference, or decode of the mixed dataset would fail.
        An existing sidecar that cannot be parsed raises: overwriting
        it would drop tables those shards need."""
        if self.has_plan():
            try:
                old_tables = self.load_plan().tables
            except (ValueError, KeyError, TypeError, AttributeError) as e:
                raise ValueError(
                    f"unreadable plan sidecar {self.plan_path} "
                    f"({type(e).__name__}: {e}); refusing to overwrite "
                    "the symbol tables existing shards decode with"
                ) from e
            if old_tables:
                merged = CodecPlan(
                    specs=plan.specs,
                    tables={**old_tables, **plan.tables},
                    stats=plan.stats,
                    outer=plan.outer,
                )
                fsmod.atomic_write(
                    self.fs, self.plan_path, merged.to_json().encode()
                )
                return
        fsmod.atomic_write(self.fs, self.plan_path, plan.to_json().encode())

    def load_plan(self) -> CodecPlan:
        return CodecPlan.from_json(
            fsmod.read_bytes(self.fs, self.plan_path).decode()
        )

    # ----- per-partition records -----

    def load_records(self) -> dict[str, dict]:
        """partition_id -> last record (later lines win)."""
        out: dict[str, dict] = {}
        if not self.fs.exists(self.path):
            return out
        for line in fsmod.read_bytes(self.fs, self.path).decode().splitlines():
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            out[rec["partition_id"]] = rec
        return out

    def finished_ids(self) -> set[str]:
        """Partitions proven complete: manifest record with the shard
        present at its recorded size, PLUS any valid orphan shard
        (written atomically by a run that was killed before it
        appended its manifest line — shards are content-addressed and
        self-certifying, so mid-run kills lose no finished work)."""
        done = set()
        for pid, rec in self.load_records().items():
            if rec.get("status") in ("encoded", "skipped") and (
                self._shard_intact(rec)
            ):
                done.add(pid)
        done |= self.valid_shard_ids(known=done)
        return done

    def reusable_fragments(
        self, fingerprints: dict[str, str], layout: str
    ) -> tuple[list[dict], dict[str, str]]:
        """Fragment-fingerprint resume: split the input fragments
        (normalized path -> current fingerprint) into the manifest
        records that stand for them without reading them, and
        ``{fragment: reason}`` for every fragment that must be read.
        A fragment is reused only when every record naming it names it
        alone, carries its current fingerprint and ``layout`` tag, and
        points at a shard present at the recorded size (a stat — no
        shard is opened).

        Reasons: ``no_record`` (no fingerprinted record names it alone),
        ``legacy_manifest`` (the manifest predates fingerprints),
        ``digest_changed`` (the file's bytes differ), ``layout_changed``
        (same bytes, different split/key layout), ``shard_missing``
        (a shard is gone or not at its recorded size)."""
        records = list(self.load_records().values())
        legacy = any("fragment_fp" not in r for r in records)
        named: dict[str, list[dict]] = {}
        for r in records:
            for frag in filter(None, r.get("fragment", "").split("\x00")):
                named.setdefault(frag, []).append(r)
        reused: list[dict] = []
        reasons: dict[str, str] = {}
        for frag, fp in fingerprints.items():
            recs = named.get(frag)
            if not recs:
                reasons[frag] = "legacy_manifest" if legacy else "no_record"
            elif any(
                r["fragment"] != frag or not r.get("fragment_fp") for r in recs
            ):
                reasons[frag] = "no_record"
            elif any(r["fragment_fp"] != fp for r in recs):
                reasons[frag] = "digest_changed"
            elif any(r.get("layout") != layout for r in recs):
                reasons[frag] = "layout_changed"
            elif not all(self._shard_intact(r) for r in recs):
                reasons[frag] = "shard_missing"
            else:
                reused.extend(recs)
        return reused, reasons

    def with_covering_stats(self, records: list[dict]) -> list[dict]:
        """``records``, each whose stats do not cover its shard
        (``covering_stats``) given the stats of the shard's header, so
        a resume upgrades a legacy manifest once."""
        from ..container import column_stats, read_header

        out = []
        for rec in records:
            if covering_stats(rec) is None:
                path = fsmod.join(self.fs, self.root, rec["shard"])
                hdr = read_header(fsmod.read_header_bytes(self.fs, path))
                stats = column_stats(hdr)
                rec = dict(rec, stats=json.dumps(stats, separators=(",", ":")))
            out.append(rec)
        return out

    def _shard_intact(self, rec: dict) -> bool:
        """The record's shard exists at its recorded size (one stat;
        records from before sizes were recorded need existence only)."""
        try:
            size = self.fs.size(fsmod.join(self.fs, self.root, rec["shard"]))
        except OSError:
            return False
        return size == rec.get("shard_bytes", size)

    def shard_glob(self) -> list[str]:
        """Every shard file under the dataset root, sorted: top-level
        and inside hive `key=value` partition dirs (one recursive glob
        matches both)."""
        return sorted(
            self.fs.glob(fsmod.join(self.fs, self.root, "**", "shard-*.fprs"))
        )

    def valid_shard_ids(self, known: set[str] = frozenset()) -> set[str]:
        """Scan shard files and validate completeness (magic + header
        parse + exact file length). Atomic publish means a present,
        length-consistent shard is complete. Shards whose file-name id
        is in ``known`` (already proven by the manifest) are not
        opened; a shard that fails validation is logged, not adopted."""
        from ..container import MAGIC, read_header

        out = set()
        for path in self.shard_glob():
            if _shard_pid(path) in known:
                continue
            try:
                with self.fs.open(path, "rb") as f:
                    head = f.read(256 * 1024)
                if head[:5] != MAGIC:
                    raise ValueError("bad shard magic")
                hlen = int.from_bytes(head[5:9], "little")
                if hlen > len(head) - 9:
                    with self.fs.open(path, "rb") as f:
                        head = f.read(9 + hlen)
                hdr = read_header(head)
                expect = 9 + hlen + hdr["enc_bytes"]
                size = self.fs.size(path)
                if size != expect:
                    raise ValueError(f"{size} bytes, header declares {expect}")
                out.add(hdr["partition_id"])
            except (OSError, ValueError, KeyError) as e:
                log.warning("shard %s not adopted: %r", path, e)
        return out

    def write_records(self, records: list[dict]) -> None:
        """Atomically rewrite the manifest to EXACTLY this partition
        set (overwrite semantics, reference append='overwrite'
        writer.py:1014-1032) — stale entries from older runs with a
        different input set/configuration disappear."""
        payload = "".join(
            json.dumps(rec, separators=(",", ":")) + "\n" for rec in records
        )
        fsmod.atomic_write(self.fs, self.path, payload.encode())

    def remove_orphan_shards(self, keep_ids: set[str]) -> int:
        """Delete shard files whose partition id is not in keep_ids
        (left behind by runs over a different input set). Returns the
        number removed."""
        removed = 0
        for path in self.shard_glob():
            if _shard_pid(path) not in keep_ids:
                try:
                    self.fs.rm(path)
                    removed += 1
                except OSError:
                    pass
        return removed
