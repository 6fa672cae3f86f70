"""Pruning reads column stats from manifest records: a filtered read
over a dataset with a current manifest opens no shard header, and a
manifest without the ``stats`` field (written before records carried
it) prunes to exactly the same shards from the headers."""

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from fastparquet_ray.container import column_stats, read_header
from fastparquet_ray.data import generate_fragment
from fastparquet_ray.pipelines import encode_pipeline
from fastparquet_ray.pipelines.compact import compact_shards
from fastparquet_ray.pipelines.decode import prune_shards, shard_files
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


@pytest.fixture()
def header_reads(monkeypatch):
    reads = []
    real = fsmod.read_header_bytes

    def counting(fs, path, *a, **k):
        if path.endswith(".fprs"):
            reads.append(path)
        return real(fs, path, *a, **k)

    monkeypatch.setattr(fsmod, "read_header_bytes", counting)
    return reads


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
