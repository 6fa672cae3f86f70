"""Pruning and every other stat read the column stats in the manifest
records: over a dataset with a current manifest no shard header is
opened, and a legacy manifest — records without the ``stats`` field,
or with stats written before records carried every stat key — gives
exactly the same answers from the headers."""

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from fastparquet_ray.api import EncodedDataset
from fastparquet_ray.container import column_stats, read_header
from fastparquet_ray.data import generate_fragment
from fastparquet_ray.pipelines import encode_pipeline
from fastparquet_ray.pipelines.compact import compact_shards
from fastparquet_ray.pipelines.decode import prune_shards, shard_files
from fastparquet_ray.pipelines.export import (
    consolidate_categories,
    sorted_partitioned_columns,
)
from fastparquet_ray.state import fs as fsmod
from fastparquet_ray.state.manifest import Manifest

T0 = pd.Timestamp("2024-01-01")


@pytest.fixture(scope="module")
def src(tmp_path_factory):
    d = tmp_path_factory.mktemp("prune_src")
    paths = []
    for i in range(4):
        t = generate_fragment(400, i, start_id=i * 400)
        ts = pa.array(
            (T0 + pd.to_timedelta(np.arange(400) + i * 400, "min")).values,
            pa.timestamp("us"),
        )
        t = t.append_column("ts", ts)
        p = str(d / f"tokens-{i:05d}.parquet")
        pq.write_table(t, p)
        paths.append(p)
    return paths, pa.concat_tables(pq.read_table(p) for p in paths)


LAYOUTS = {
    "plain": {},
    "hive": {"hive_cols": ["source"]},
    "clustered": {"cluster_by": "doc_id"},
    "zorder": {"cluster_by": ["doc_id", "n_tok"]},
    "bloom": {"bloom_cols": ["doc_id", "tokens"]},
}


def _header(out: str, shard: str) -> dict:
    fs, root = fsmod.get_fs(out)
    return read_header(fsmod.read_bytes(fs, fsmod.join(fs, root, shard)))


def _filters(t: pa.Table) -> list:
    ids = t["doc_id"].to_pylist()
    tok = t["tokens"][7].as_py()[0]
    return [
        [("doc_id", "==", ids[5])],
        [("doc_id", "==", ids[5] + "x")],
        [("doc_id", "in", [ids[3], ids[1201]])],
        [("n_tok", ">", pc.max(t["n_tok"]).as_py() - 5)],
        [("n_tok", "<=", 3)],
        [("source", "==", "web")],
        [("source", "not in", ["web", "code"])],
        [("ts", "<", T0 + pd.Timedelta(minutes=100))],
        [("ts", ">=", (T0 + pd.Timedelta(minutes=1500)).to_pydatetime())],
        [("tokens", "contains", tok)],
        [("tokens", "contains_any", [tok, 10**6])],
        [("doc_id", ">", ids[900]), ("n_tok", "<", 50)],
    ]


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_record_stats_prune_like_headers(
    ray_session, src, tmp_path, header_reads, layout
):
    paths, table = src
    out = str(tmp_path / layout)
    encode_pipeline(paths, out, resume=False, **LAYOUTS[layout])
    shards = shard_files(out)
    root = fsmod.get_fs(out)[1]
    manifest = Manifest(out)
    records = list(manifest.load_records().values())
    assert {r["shard"] for r in records} == {
        p[len(root):].lstrip("/") for p in shards
    }
    for r in records:
        stats = json.loads(r["stats"])
        assert stats == column_stats(_header(out, r["shard"]))
        for c in LAYOUTS[layout].get("bloom_cols", []):
            assert stats[c]["bloom"]

    filters = _filters(table)
    header_reads.clear()
    with_stats = [prune_shards(shards, f, root=root) for f in filters]
    assert header_reads == []

    manifest.write_records(
        [{k: v for k, v in r.items() if k != "stats"} for r in records]
    )
    legacy = [prune_shards(shards, f, root=root) for f in filters]
    assert len(header_reads) == len(filters) * len(shards)
    assert with_stats == legacy
    # the filters do prune: parity is not all-shards-kept
    assert sum(len(k) for k in with_stats) < len(filters) * len(shards)
    if layout == "hive":
        # a partition's path value holds for all its rows: `not in`
        # drops the listed partitions from the path alone
        f = [("source", "not in", ["web", "code"])]
        kept = with_stats[filters.index(f)]
        assert kept
        assert not [
            p for p in kept if "/source=web/" in p or "/source=code/" in p
        ]


# the stats keys records carried before they carried every stat
PRUNE_KEYS = ("min", "max", "emin", "emax", "ltype", "bloom")

LEGACY = {
    "no-stats": lambda r: {k: v for k, v in r.items() if k != "stats"},
    "pruning-stats-only": lambda r: dict(r, stats=json.dumps({
        c: {k: s[k] for k in PRUNE_KEYS if k in s}
        for c, s in json.loads(r["stats"]).items()
    })),
}


@pytest.mark.parametrize("legacy", list(LEGACY))
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_legacy_manifest_metadata_parity(
    ray_session, src, tmp_path, header_reads, layout, legacy
):
    """statistics, sorted/category consolidation, count, info and
    pruning answer the same from legacy records (via the headers) as
    from current ones (no header)."""
    paths, table = src
    out = str(tmp_path / layout)
    encode_pipeline(paths, out, resume=False, **LAYOUTS[layout])
    shards = shard_files(out)
    root = fsmod.get_fs(out)[1]
    filters = _filters(table)

    def metadata():
        eds = EncodedDataset(out)
        return (
            eds.statistics(), sorted_partitioned_columns(out),
            consolidate_categories(out), eds.count(), eds.info,
            [prune_shards(shards, f, root=root) for f in filters],
        )

    header_reads.clear()
    current = metadata()
    assert header_reads == []
    stats = current[0]
    assert len(stats) == len(shards) * stats["column"].nunique()
    assert set(stats["kind"]) and stats["enc_bytes"].gt(0).all()
    assert current[3] == table.num_rows == current[4]["rows"]

    manifest = Manifest(out)
    records = list(manifest.load_records().values())
    manifest.write_records([LEGACY[legacy](r) for r in records])
    old = metadata()
    assert header_reads
    for got, want in zip(old[:3], current[:3]):
        pd.testing.assert_frame_equal(got, want)
    assert old[3:] == current[3:]


def test_uncovered_shard_reads_its_header(
    ray_session, src, tmp_path, header_reads
):
    """An orphan shard (no record names it) is pruned from its header;
    the recorded ones are not opened."""
    paths, table = src
    out = str(tmp_path / "enc")
    encode_pipeline(paths, out, resume=False)
    manifest = Manifest(out)
    records = list(manifest.load_records().values())
    manifest.write_records(records[1:])
    shards = shard_files(out)
    root = fsmod.get_fs(out)[1]
    header_reads.clear()
    kept = prune_shards(shards, [("n_tok", ">=", 0)], root=root)
    assert kept == shards
    assert [p.rsplit("/", 1)[-1] for p in header_reads] == [
        records[0]["shard"]
    ]


def test_skip_and_compact_records_carry_stats(ray_session, src, tmp_path):
    paths, _ = src
    out = str(tmp_path / "enc")
    encode_pipeline(paths, out, resume=False, cluster_by="doc_id")
    # cluster_by resumes on the content hash: every record is skipped
    r = encode_pipeline(paths, out, resume=True, cluster_by="doc_id")
    assert r["skipped"] == r["partitions"]
    recs = Manifest(out).load_records().values()
    assert all(json.loads(x["stats"])["doc_id"]["min"] for x in recs)
    c = compact_shards(out, target_rows=800)
    assert c["compacted_shards"] > 0
    for x in Manifest(out).load_records().values():
        hdr = _header(out, x["shard"])
        assert json.loads(x["stats"]) == column_stats(hdr)


@pytest.mark.parametrize("legacy", list(LEGACY))
def test_resume_upgrades_legacy_record_stats(
    ray_session, src, tmp_path, header_reads, legacy
):
    """A record reused from its fragment fingerprint takes the stats of
    its shard's header on resume when its own do not cover the shard,
    so the upgraded manifest answers every stat without a header."""
    paths, _ = src
    out = str(tmp_path / "enc")
    encode_pipeline(paths, out, resume=False)
    manifest = Manifest(out)
    current = list(manifest.load_records().values())
    manifest.write_records([LEGACY[legacy](r) for r in current])
    r = encode_pipeline(paths, out, resume=True)
    assert r["fragments_reused"] == len(paths) and r["fragments_read"] == 0
    records = manifest.load_records()
    assert {p: x["stats"] for p, x in records.items()} == {
        x["partition_id"]: x["stats"] for x in current
    }
    assert all(
        "kind" in c
        for x in records.values() for c in json.loads(x["stats"]).values()
    )
    header_reads.clear()
    stats = EncodedDataset(out).statistics()
    assert header_reads == [] and len(stats)
