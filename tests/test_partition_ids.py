"""Partition ids are what resume matches: a change of the provenance
string that salts them, or of how input files are cut into blocks,
re-encodes every existing dataset. The ids of a fixed tiny input are
pinned here to the values earlier releases wrote, and the block rule
for files of several row groups is stated and checked."""

import glob
import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from fastparquet_ray.container import partition_id_for
from fastparquet_ray.pipelines import encode_pipeline
from fastparquet_ray.state.manifest import Manifest

# shard names (shard-<partition id>.fprs) of the input below, given as
# ["src/part-0.parquet", "src/part-1.parquet"]
PINNED = {
    "clustered": ["shard-8f2a3562447d1e05.fprs"],
    "plain": [
        "shard-b233822f6b2bda14.fprs",
        "shard-f3f560af20b62c41.fprs",
    ],
    "salted": [
        "shard-005ea6eaae34b71c.fprs",
        "shard-071399abfca8ebe8.fprs",
        "shard-28b2cc7a1ca08a8a.fprs",
        "shard-525bd6c1bf783e86.fprs",
        "shard-7657868a14b9b015.fprs",
        "shard-7df1e6078abad3b9.fprs",
        "shard-9b376aae1cae7961.fprs",
        "shard-b4768b0a4bff0de9.fprs",
        "shard-b7a7404d369e9c3f.fprs",
        "shard-bc1851b084e96f10.fprs",
        "shard-d1f109c66d029dc1.fprs",
        "shard-d6c6a50ad6341953.fprs",
        "shard-e31e90755177a756.fprs",
        "shard-e5d09913b478dd06.fprs",
    ],
    "hive": [
        "source=books/shard-ea050e5c4266b9b6.fprs",
        "source=books/shard-f5acbc1c9c69489d.fprs",
        "source=code/shard-4645d5488b68941d.fprs",
        "source=code/shard-785cee738be31b88.fprs",
        "source=web/shard-82e4b001203a6867.fprs",
        "source=web/shard-83c9fd4b821748bb.fprs",
    ],
    "zorder": ["shard-ace7ffdbb2b7d6a2.fprs"],
}
LAYOUTS = {
    "clustered": {"cluster_by": "doc_id"},
    "plain": {},
    "salted": {"partition_by_source": True},
    "hive": {"hive_cols": ["source"]},
    "zorder": {"cluster_by": ["doc_id", "n_tok"]},
}


def _write_input(d: str) -> list[str]:
    os.makedirs(d)
    paths = []
    for i in range(2):
        t = pa.table({
            "doc_id": [f"doc-{i}-{j:02d}" for j in range(8)],
            "source": [("web", "code", "books")[(i + j) % 3] for j in range(8)],
            "n_tok": pa.array([(i * 8 + j) % 5 + 1 for j in range(8)], pa.int32()),
            "tokens": pa.array(
                [[j, i, i * j] for j in range(8)], pa.list_(pa.int32())
            ),
        })
        paths.append(os.path.join(d, f"part-{i}.parquet"))
        pq.write_table(t, paths[-1])
    return paths


def _shards(out: str) -> list[str]:
    recs = Manifest(out).load_records().values()
    for r in recs:
        assert r["shard"].rsplit("/", 1)[-1] == f"shard-{r['partition_id']}.fprs"
        assert os.path.isfile(os.path.join(out, r["shard"]))
    return sorted(r["shard"] for r in recs)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_relative_path_ids_are_pinned(ray_session, tmp_path, monkeypatch, layout):
    """Given by relative path, the input keeps the shard names and
    partition ids earlier releases gave it: a file's provenance is
    its path exactly as given, and each small file is one block. The
    Ray workers run in another directory, yet read the input and write
    the shards where the caller's relative paths point."""
    monkeypatch.chdir(tmp_path)
    _write_input("src")
    paths = ["src/part-0.parquet", "src/part-1.parquet"]
    encode_pipeline(paths, "enc", resume=False, **LAYOUTS[layout])
    assert _shards("enc") == PINNED[layout]


def test_absolute_path_ids(ray_session, tmp_path):
    """Given by absolute path, a file's provenance is that path: the
    plain layout gives each file one shard whose id hashes the whole
    file salted with it, and the hive layout one per source value."""
    paths = _write_input(str(tmp_path / "src"))
    want_plain, want_hive = [], []
    for p in paths:
        t = pq.read_table(p)
        want_plain.append(f"shard-{partition_id_for(t, extra=p)}.fprs")
        for v in pc.unique(t["source"]).to_pylist():
            sub = t.filter(pc.equal(t["source"], v))
            want_hive.append(
                f"source={v}/shard-{partition_id_for(sub, extra=p)}.fprs"
            )
    plain, hive = str(tmp_path / "plain"), str(tmp_path / "hive")
    encode_pipeline(paths, plain, resume=False)
    encode_pipeline(paths, hive, resume=False, hive_cols=["source"])
    assert _shards(plain) == sorted(want_plain)
    assert _shards(hive) == sorted(want_hive)
    assert not set(_shards(plain)) & set(PINNED["plain"])


def _digests(out: str) -> dict[str, str]:
    return {
        os.path.relpath(p, out): hashlib.sha256(open(p, "rb").read()).hexdigest()
        for p in glob.glob(out + "/**/*", recursive=True)
        if os.path.isfile(p)
    }


def test_block_rule_packs_whole_row_groups(ray_session, tmp_path):
    """A file is cut into whole row groups in file order, a new block
    started before the next row group would take the block's
    uncompressed size past ``target_max_block_size``; a row group over
    the target is a block of its own. The shards are the same on two
    runs, and a resume skips every one, also when it reads the file."""
    from ray.data import DataContext

    p = str(tmp_path / "rg.parquet")
    n = 300
    pq.write_table(
        pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                  "x": pa.array(np.arange(n, dtype=np.int64) * 7)}),
        p, row_group_size=50, use_dictionary=False, compression="none",
    )
    md = pq.read_metadata(p)
    sizes = {md.row_group(i).total_byte_size for i in range(md.num_row_groups)}
    (rg,) = sizes  # six row groups of one size
    ctx = DataContext.get_current()
    default = ctx.target_max_block_size
    try:
        for target, rows in [(2 * rg + rg // 2, [100] * 3), (rg // 2, [50] * 6)]:
            ctx.target_max_block_size = target
            a, b = str(tmp_path / f"a{target}"), str(tmp_path / f"b{target}")
            s = encode_pipeline([p], a, resume=False)
            assert s["partitions"] == len(rows)
            recs = sorted(
                Manifest(a).load_records().values(),
                key=lambda r: int(r["key_min"]),
            )
            assert [r["rows"] for r in recs] == rows
            assert [int(r["key_min"]) for r in recs] == list(
                np.cumsum([0] + rows[:-1])
            )
            encode_pipeline([p], b, resume=False)
            assert _digests(a) == _digests(b)
            again = encode_pipeline([p], a)
            assert again["skipped"] == again["partitions"] == len(rows)
            assert again["encoded"] == 0
            # without the manifest the file is read again: its blocks
            # find the shards left by the first run
            os.remove(os.path.join(a, "_manifest.jsonl"))
            again = encode_pipeline([p], a)
            assert again["fragments_read"] == 1
            assert again["skipped"] == again["partitions"] == len(rows)
    finally:
        ctx.target_max_block_size = default
