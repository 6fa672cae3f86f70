"""Fragment-fingerprint resume: exchange-free layouts reuse the
manifest records of unchanged input files without reading them; the
content hash stays the authority everywhere else."""

import json
import logging
import os
import shutil

import fsspec.implementations.local as fsspec_local
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fastparquet_ray.data import write_tokens_dataset
from fastparquet_ray.pipelines import decode_dataset, encode_pipeline, verify_roundtrip
from fastparquet_ray.state.manifest import Manifest


@pytest.fixture()
def read_calls(monkeypatch):
    """Count the encode jobs that read input files: every read goes
    through ``encode.input_blocks``, which cuts the files into blocks
    from their footers before any task is submitted."""
    from fastparquet_ray.pipelines import encode as encode_mod

    calls = []
    real = encode_mod.input_blocks

    def counting(paths, *a, **kw):
        calls.append(list(paths))
        return real(paths, *a, **kw)

    monkeypatch.setattr(encode_mod, "input_blocks", counting)
    return calls


def _reasons(caplog) -> dict[str, str]:
    out = {}
    for rec in caplog.records:
        if rec.name == "fastparquet_ray" and rec.msg.startswith("reading fragment"):
            out[rec.args[0]] = rec.args[1]
    return out


def test_same_size_rewrite_reencodes(ray_session, tmp_path):
    """Same size, same footer stats, same mtime: only the full-file
    digest can tell the rewrite apart, and it must re-encode."""
    p = str(tmp_path / "part-0.parquet")
    out = str(tmp_path / "enc")

    def write(v):
        pq.write_table(
            pa.table({"doc_id": ["a", "b", "c"], "v": v}), p,
            compression="none", use_dictionary=False,
        )

    write([10, 20, 30])
    st = os.stat(p)
    stats0 = pq.ParquetFile(p).metadata.row_group(0).column(1).statistics
    encode_pipeline([p], out)
    write([30, 20, 10])  # two equal-width values swapped
    os.utime(p, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert os.path.getsize(p) == st.st_size
    stats1 = pq.ParquetFile(p).metadata.row_group(0).column(1).statistics
    assert (stats1.min, stats1.max) == (stats0.min, stats0.max)

    s = encode_pipeline([p], out)
    assert (s["encoded"], s["skipped"], s["fragments_read"]) == (1, 0, 1)
    got = decode_dataset(out).to_pandas().sort_values("doc_id")
    assert got["v"].tolist() == [30, 20, 10]


def test_identical_files_stay_two_shards(ray_session, tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    a, b = str(src / "a.parquet"), str(src / "b.parquet")
    pq.write_table(pa.table({"doc_id": ["x", "y"], "v": [1, 2]}), a)
    shutil.copyfile(a, b)
    out = str(tmp_path / "enc")
    s1 = encode_pipeline([a, b], out)
    assert s1["partitions"] == s1["encoded"] == 2
    s2 = encode_pipeline([a, b], out)
    assert (s2["skipped"], s2["fragments_reused"], s2["fragments_read"]) == (2, 2, 0)
    assert decode_dataset(out).count() == 4


def test_noop_resume_reads_and_opens_nothing(
    ray_session, tmp_path, read_calls, monkeypatch
):
    paths = write_tokens_dataset(str(tmp_path / "src"), 2000, n_fragments=2)
    out = str(tmp_path / "enc")
    s1 = encode_pipeline(paths, out)
    assert len(read_calls) == 1

    opened = []
    real_open = fsspec_local.LocalFileSystem._open

    def spy(self, path, *a, **kw):
        opened.append(str(path))
        return real_open(self, path, *a, **kw)

    monkeypatch.setattr(fsspec_local.LocalFileSystem, "_open", spy)
    s2 = encode_pipeline(paths, out)
    assert len(read_calls) == 1  # no input file read at all
    assert not [p for p in opened if p.endswith(".fprs")]
    assert s2["fragments_read"] == 0 and s2["fragments_reused"] == 2
    assert s2["skipped"] == s2["partitions"] == s1["partitions"]
    assert s2["enc_bytes"] == s1["enc_bytes"] and s2["ratio"] == s1["ratio"]


@pytest.mark.parametrize("damage", ["delete", "truncate"])
def test_damaged_shard_reencodes(ray_session, tmp_path, caplog, damage):
    """The fingerprint still matches, but the shard is gone or cut
    short: the fragment is read again and its shard rewritten."""
    paths = write_tokens_dataset(str(tmp_path / "src"), 2000, n_fragments=2)
    out = str(tmp_path / "enc")
    s1 = encode_pipeline(paths, out)
    victim = sorted(Manifest(out).load_records().values(), key=lambda r: r["shard"])[0]
    shard = os.path.join(out, victim["shard"])
    if damage == "delete":
        os.remove(shard)
    else:
        os.truncate(shard, os.path.getsize(shard) - 1)
    with caplog.at_level(logging.INFO, logger="fastparquet_ray"):
        s2 = encode_pipeline(paths, out)
    assert (s2["encoded"], s2["skipped"], s2["fragments_read"]) == (1, 1, 1)
    assert list(_reasons(caplog).items()) == [(victim["fragment"], "shard_missing")]
    assert s2["enc_bytes"] == s1["enc_bytes"]
    assert verify_roundtrip(paths, out)["ok"]


@pytest.mark.parametrize(
    "layout", [{"hive_cols": ["source"]}, {"partition_by_source": "local"}]
)
def test_multi_shard_fragments_reused_together(
    ray_session, tmp_path, read_calls, layout
):
    paths = write_tokens_dataset(str(tmp_path / "src"), 2000, n_fragments=2)
    out = str(tmp_path / "enc")
    s1 = encode_pipeline(paths, out, **layout)
    assert s1["partitions"] > 2  # each fragment split into several shards
    recs = Manifest(out).load_records().values()
    assert {r["fragment"] for r in recs} == {os.path.abspath(p) for p in paths}
    s2 = encode_pipeline(paths, out, **layout)
    assert len(read_calls) == 1
    assert (s2["encoded"], s2["fragments_read"]) == (0, 0)
    assert s2["skipped"] == s2["partitions"] == s1["partitions"]


def test_layout_change_rereads(ray_session, tmp_path, caplog):
    """Same bytes under a different split layout must not reuse the
    old layout's shards."""
    paths = write_tokens_dataset(str(tmp_path / "src"), 1000, n_fragments=2)
    out = str(tmp_path / "enc")
    encode_pipeline(paths, out)
    with caplog.at_level(logging.INFO, logger="fastparquet_ray"):
        s = encode_pipeline(paths, out, hive_cols=["source"])
    assert set(_reasons(caplog).values()) == {"layout_changed"}
    assert s["fragments_read"] == 2 and s["encoded"] == s["partitions"] > 2
    assert s["orphans_removed"] == 2
    assert verify_roundtrip(paths, out)["ok"]


@pytest.mark.parametrize(
    "layout",
    [{"cluster_by": "doc_id"}, {"partition_by_source": True}],
    ids=["cluster_by", "salted"],
)
def test_cluster_by_takes_content_path(ray_session, tmp_path, caplog, layout):
    paths = write_tokens_dataset(str(tmp_path / "src"), 2000, n_fragments=2)
    out = str(tmp_path / "enc")
    s1 = encode_pipeline(paths, out, **layout)
    with caplog.at_level(logging.INFO, logger="fastparquet_ray"):
        s2 = encode_pipeline(paths, out, **layout)
    assert set(_reasons(caplog).values()) == {"exchange_layout"}
    assert s2["fragments_read"] == 2 and s2["encoded"] == 0
    assert s2["skipped"] == s1["partitions"]
    assert s2["enc_bytes"] == s1["enc_bytes"]


def test_legacy_manifest_takes_content_path(ray_session, tmp_path, caplog):
    paths = write_tokens_dataset(str(tmp_path / "src"), 2000, n_fragments=2)
    out = str(tmp_path / "enc")
    s1 = encode_pipeline(paths, out)
    man = Manifest(out)
    man.write_records([
        {k: v for k, v in r.items()
         if k not in ("fragment", "fragment_fp", "layout", "shard_bytes")}
        for r in man.load_records().values()
    ])
    with caplog.at_level(logging.INFO, logger="fastparquet_ray"):
        s2 = encode_pipeline(paths, out)
    assert set(_reasons(caplog).values()) == {"legacy_manifest"}
    assert (s2["fragments_read"], s2["encoded"]) == (2, 0)
    assert s2["enc_bytes"] == s1["enc_bytes"]
    # the content-path run stamps fingerprints: the next one reuses
    s3 = encode_pipeline(paths, out)
    assert s3["fragments_read"] == 0 and s3["enc_bytes"] == s1["enc_bytes"]


def test_file_changed_during_run_gets_no_fingerprint(
    ray_session, tmp_path, monkeypatch
):
    from fastparquet_ray.state import fs as fsmod

    paths = write_tokens_dataset(str(tmp_path / "src"), 1000, n_fragments=1)
    out = str(tmp_path / "enc")
    ticks = iter(range(1_000_000))
    monkeypatch.setattr(fsmod, "stat_key", lambda fs, p: (0, next(ticks)))
    encode_pipeline(paths, out)
    recs = list(Manifest(out).load_records().values())
    assert [r["fragment_fp"] for r in recs] == [""]
    monkeypatch.undo()
    assert encode_pipeline(paths, out)["fragments_read"] == 1


def test_invalid_orphan_shard_is_logged(tmp_path, caplog):
    out = tmp_path / "enc"
    out.mkdir()
    bad = out / "shard-0123456789abcdef.fprs"
    bad.write_bytes(b"not a shard")
    with caplog.at_level(logging.WARNING, logger="fastparquet_ray"):
        assert Manifest(str(out)).valid_shard_ids() == set()
    assert str(bad) in caplog.text and "bad shard magic" in caplog.text


def test_failed_orphan_deletion_is_logged(tmp_path, caplog, monkeypatch):
    """An orphan that cannot be deleted is named in a WARNING, with the
    error, and is not counted as removed."""
    out = tmp_path / "enc"
    out.mkdir()
    stuck = out / "shard-00000000000000aa.fprs"
    gone = out / "shard-00000000000000bb.fprs"
    for p in (stuck, gone):
        p.write_bytes(b"x")
    manifest = Manifest(str(out))
    real_rm = manifest.fs.rm

    def rm(path, *a, **kw):
        if path.endswith(stuck.name):
            raise PermissionError("read-only shard")
        return real_rm(path, *a, **kw)

    monkeypatch.setattr(manifest.fs, "rm", rm)
    with caplog.at_level(logging.WARNING, logger="fastparquet_ray"):
        assert manifest.remove_orphan_shards(set()) == 1
    warned = [
        r.getMessage() for r in caplog.records if r.levelno == logging.WARNING
    ]
    assert len(warned) == 1
    assert str(stuck) in warned[0] and "read-only shard" in warned[0]
    assert stuck.exists() and not gone.exists()


def test_manifest_records_carry_shard_size(ray_session, tmp_path):
    paths = write_tokens_dataset(str(tmp_path / "src"), 1000, n_fragments=1)
    out = str(tmp_path / "enc")
    encode_pipeline(paths, out)
    with open(os.path.join(out, "_manifest.jsonl")) as f:
        (rec,) = [json.loads(line) for line in f]
    assert rec["shard_bytes"] == os.path.getsize(os.path.join(out, rec["shard"]))
    size, digest = rec["fragment_fp"].split(":")
    assert int(size) == os.path.getsize(paths[0]) and len(digest) == 32


def test_resume_after_partial_compaction_keeps_rows(
    ray_session, tmp_path, caplog
):
    """Compaction can merge some of a fragment's shards and leave one
    untouched; the untouched record must not vouch for the fragment,
    or the resume would drop the merged shard's rows as an orphan."""
    from fastparquet_ray.pipelines.compact import compact_shards

    src = tmp_path / "src"
    src.mkdir()
    paths = []
    for f in "ab":
        # 100 "web" rows and 5 "code" rows: each fragment splits into
        # two source-pure shards of very different size
        ids = [f"c-{f}-{i:03d}" for i in range(5)] + [
            f"w-{f}-{i:03d}" for i in range(100)
        ]
        p = str(src / f"{f}.parquet")
        pq.write_table(
            pa.table({"doc_id": ids, "source": ["code"] * 5 + ["web"] * 100}), p
        )
        paths.append(p)
    out = str(tmp_path / "enc")
    encode_pipeline(paths, out, partition_by_source="local")
    # bins by key order: [a code, b code, a web] merged, [b web] alone
    s = compact_shards(out, target_rows=100)
    assert (s["bins"], s["compacted_shards"], s["partitions"]) == (1, 3, 2)
    with caplog.at_level(logging.INFO, logger="fastparquet_ray"):
        r = encode_pipeline(paths, out, partition_by_source="local")
    assert set(_reasons(caplog).values()) == {"no_record"}
    assert r["fragments_read"] == 2 and r["rows"] == 210
    assert verify_roundtrip(paths, out)["ok"]
