"""Outer block codec, parquet interop export, manifest maintenance,
and TRUE kill-mid-run resume (FIXTURES.md F5: kill after partial
manifest, re-run, only unfinished partitions re-encode)."""

import glob
import io
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fastparquet_ray.container import ShardEncoder, decode_table
from fastparquet_ray.data import generate_fragment, write_tokens_dataset
from fastparquet_ray.plan import train_plan
from fastparquet_ray.state.manifest import Manifest


class TestOuterCodec:
    def test_roundtrip_all_codecs(self):
        t = generate_fragment(1000, 0)
        plan = train_plan(t.slice(0, 300))
        for outer in [("zstd", 3), ("lz4", None), ("gzip", 6)]:
            enc = ShardEncoder(plan.specs, plan.tables, outer=outer)
            blob = enc.encode_table(t, "t")
            out = decode_table(blob, plan.tables)
            assert out.equals(t)

    def test_zstd_improves_ratio(self):
        # the outer codec must find real redundancy where the inner
        # codecs left it: forcing PLAIN inner codecs, zstd:3 over the
        # buffers must compress substantially
        t = generate_fragment(2000, 0)
        forced = {
            "tokens": {"lengths": {"codec": "plain"}, "values": {"codec": "plain"}},
            "n_tok": {"codec": "plain"},
            "doc_id": {"codec": "plain"},
            "source": {"codec": "plain"},
        }
        plain = ShardEncoder(forced).encode_table(t, "t")
        z = ShardEncoder(forced, outer=("zstd", 3)).encode_table(t, "t")
        assert len(z) < 0.7 * len(plain)

    def test_outer_config_stays_near_lightweight_entropy(self):
        # since zrank (r3), the lightweight plan is already
        # entropy-coded, so the archival zstd:3 config no longer beats
        # it outright — but sample-ranked post-outer selection must
        # keep it within selection noise of the lightweight size
        t = generate_fragment(2000, 0)
        plan = train_plan(t.slice(0, 300))
        zplan = train_plan(t.slice(0, 300), outer=("zstd", 3))
        plain = ShardEncoder(plan.specs, plan.tables).encode_table(t, "t")
        z = ShardEncoder(
            zplan.specs, zplan.tables, outer=("zstd", 3)
        ).encode_table(t, "t")
        assert len(z) < 1.1 * len(plain)

    def test_outer_with_projection(self):
        t = generate_fragment(500, 0)
        enc = ShardEncoder(outer=("zstd", 3))
        blob = enc.encode_table(t, "t")
        out = decode_table(blob, columns=["n_tok"])
        assert out.column_names == ["n_tok"]
        assert out.column("n_tok").to_pylist() == t.column("n_tok").to_pylist()


def test_export_parquet_interop(ray_session, tmp_path):
    """Our sink -> Parquet readable by pyarrow with identical data
    (SURVEY §5 layer 3 cross-engine conformance)."""
    from fastparquet_ray.pipelines import encode_pipeline
    from fastparquet_ray.pipelines.export import export_parquet

    src = str(tmp_path / "src")
    paths = write_tokens_dataset(src, 2000, n_fragments=2)
    enc_dir = str(tmp_path / "enc")
    encode_pipeline(paths, enc_dir, outer="zstd:3")
    out_dir = str(tmp_path / "pq")
    export_parquet(enc_dir, out_dir)
    back = pq.read_table(out_dir)
    orig = pa.concat_tables([pq.read_table(p) for p in paths])
    assert back.num_rows == orig.num_rows
    a = back.sort_by("doc_id").to_pandas()
    b = orig.sort_by("doc_id").to_pandas()
    assert (a["doc_id"].to_numpy() == b["doc_id"].to_numpy()).all()
    assert all(
        list(x) == list(y)
        for x, y in zip(a["tokens"].tolist(), b["tokens"].tolist())
    )


def test_export_jsonl_roundtrip(ray_session, tmp_path):
    """Our JSONL sink -> DuckDB read_json_auto AND fastparquet_ray.
    read_jsonl with bit-identical integer token arrays (the LLM
    curation interchange path)."""
    import duckdb

    import fastparquet_ray as fr
    from fastparquet_ray.pipelines import encode_pipeline
    from fastparquet_ray.pipelines.export import export_jsonl

    src = str(tmp_path / "src")
    paths = write_tokens_dataset(src, 1500, n_fragments=2)
    enc_dir = str(tmp_path / "enc")
    encode_pipeline(paths, enc_dir)
    out_dir = str(tmp_path / "jl")
    export_jsonl(enc_dir, out_dir, columns=["doc_id", "tokens", "n_tok"])

    orig = pa.concat_tables([pq.read_table(p) for p in paths])
    b = orig.sort_by("doc_id").to_pandas()

    # ray read-back
    a = fr.read_jsonl(out_dir).to_pandas().sort_values("doc_id")
    assert len(a) == len(b)
    assert (a["n_tok"].to_numpy() == b["n_tok"].to_numpy()).all()
    assert all(
        list(x) == list(y)
        for x, y in zip(a["tokens"].tolist(), b["tokens"].tolist())
    )

    # cross-engine: DuckDB reads the same files
    d = duckdb.connect().execute(
        "SELECT count(*) AS n, sum(n_tok) AS s, "
        "sum(list_aggregate(tokens, 'sum')) AS ts "
        f"FROM read_json_auto('{out_dir}/*.json')"
    ).fetchone()
    flat = np.concatenate([np.asarray(t) for t in b["tokens"]])
    assert d[0] == len(b)
    assert int(d[1]) == int(b["n_tok"].sum())
    assert int(d[2]) == int(flat.sum())


def test_read_jsonl_of_a_filtered_export(ray_session, tmp_path):
    """A filtered export writes a 0-byte file for a kept shard with no
    matching row (its resume marker). ``read_jsonl`` leaves such files
    out: the matching rows come back and Ray Data logs no WARNING
    about a block without a schema."""
    import logging

    import fastparquet_ray as fr
    from fastparquet_ray.pipelines import encode_pipeline
    from fastparquet_ray.pipelines.export import export_jsonl

    paths = write_tokens_dataset(str(tmp_path / "src"), 1000, n_fragments=2)
    enc_dir = str(tmp_path / "enc")
    encode_pipeline(paths, enc_dir)
    ids = [pq.read_table(p, columns=["doc_id"])["doc_id"][0].as_py() for p in paths]
    out_dir = str(tmp_path / "jl")
    export_jsonl(enc_dir, out_dir, filters=[("doc_id", "in", [ids[0], ids[1] + "x"])])
    sizes = sorted(os.path.getsize(p) for p in glob.glob(out_dir + "/*.json"))
    assert len(sizes) == 2 and sizes[0] == 0 < sizes[1]

    warnings = []

    class Record(logging.Handler):
        def emit(self, rec):
            if rec.levelno >= logging.WARNING:
                warnings.append(rec.getMessage())

    handler = Record()
    ray_log = logging.getLogger("ray.data")
    ray_log.addHandler(handler)
    try:
        df = fr.read_jsonl(out_dir).to_pandas()
    finally:
        ray_log.removeHandler(handler)
    assert df["doc_id"].tolist() == [ids[0]]
    assert not warnings, warnings


def test_export_parquet_resumable(ray_session, tmp_path):
    """Per-shard deterministic parquet export: a re-run skips every
    finished file; deleting one output re-exports exactly that shard;
    the final dataset matches the source (north-star 'resumable
    output' at the interop sink)."""
    from fastparquet_ray.pipelines import encode_pipeline
    from fastparquet_ray.pipelines.export import export_parquet

    src = str(tmp_path / "src")
    paths = write_tokens_dataset(src, 2000, n_fragments=4)
    enc_dir = str(tmp_path / "enc")
    encode_pipeline(paths, enc_dir)
    out_dir = str(tmp_path / "pq")
    s1 = export_parquet(enc_dir, out_dir)
    assert s1["exported"] == 4 and s1["skipped"] == 0
    # no-op resume
    s2 = export_parquet(enc_dir, out_dir)
    assert s2["exported"] == 0 and s2["skipped"] == 4
    # delete one output -> exactly one shard re-exports
    victim = sorted(glob.glob(out_dir + "/*.parquet"))[1]
    os.remove(victim)
    s3 = export_parquet(enc_dir, out_dir)
    assert s3["exported"] == 1 and s3["skipped"] == 3
    back = pq.read_table(out_dir)
    orig = pa.concat_tables([pq.read_table(p) for p in paths])
    assert back.num_rows == orig.num_rows
    a = back.sort_by("doc_id").to_pandas()
    b = orig.sort_by("doc_id").to_pandas()
    assert (a["doc_id"].to_numpy() == b["doc_id"].to_numpy()).all()
    assert all(
        list(x) == list(y)
        for x, y in zip(a["tokens"].tolist(), b["tokens"].tolist())
    )


def test_export_resumable_empty_encoded_dir(ray_session, tmp_path):
    """An encoded dir with no shards exports nothing and publishes no
    sidecar, instead of raising from the footer merge."""
    from fastparquet_ray.pipelines.export import export_parquet

    enc_dir = tmp_path / "enc"
    enc_dir.mkdir()
    out_dir = tmp_path / "pq"
    s = export_parquet(str(enc_dir), str(out_dir))
    assert (s["exported"], s["skipped"]) == (0, 0)
    assert os.listdir(out_dir) == []


def test_export_resumable_publishes_missing_common_metadata(
    ray_session, tmp_path
):
    """A run killed between the two sidecar writes left _metadata but
    not _common_metadata: the no-op rerun must publish both."""
    from fastparquet_ray.pipelines import encode_pipeline
    from fastparquet_ray.pipelines.export import export_parquet

    paths = write_tokens_dataset(str(tmp_path / "src"), 1000, n_fragments=2)
    enc_dir = str(tmp_path / "enc")
    encode_pipeline(paths, enc_dir)
    out_dir = str(tmp_path / "pq")
    export_parquet(enc_dir, out_dir)
    common = os.path.join(out_dir, "_common_metadata")
    os.remove(common)
    s = export_parquet(enc_dir, out_dir)
    assert (s["exported"], s["skipped"]) == (0, 2)
    assert os.path.exists(common)
    assert pq.read_schema(common).names == pq.read_table(out_dir).schema.names


def test_export_resumable_mirrors_hive_layout(ray_session, tmp_path):
    """Hive `key=value` shard subdirs are mirrored into the parquet
    output, so partition columns survive via the path and pyarrow
    reconstructs them."""
    from fastparquet_ray.pipelines import encode_pipeline
    from fastparquet_ray.pipelines.export import export_parquet

    src = str(tmp_path / "src")
    paths = write_tokens_dataset(src, 1000, n_fragments=2)
    enc_dir = str(tmp_path / "enc")
    encode_pipeline(paths, enc_dir, hive_cols=["source"])
    out_dir = str(tmp_path / "pq")
    export_parquet(enc_dir, out_dir)
    subdirs = {os.path.basename(p) for p in glob.glob(out_dir + "/*")}
    assert any(s.startswith("source=") for s in subdirs)
    back = pq.read_table(out_dir)  # hive columns from the path
    assert back.num_rows == 1000
    assert "source" in back.column_names


def test_export_partitioned(ray_session, tmp_path):
    from fastparquet_ray.pipelines import encode_pipeline
    from fastparquet_ray.pipelines.export import export_parquet

    src = str(tmp_path / "src")
    paths = write_tokens_dataset(src, 1000, n_fragments=2)
    enc_dir = str(tmp_path / "enc")
    encode_pipeline(paths, enc_dir, hive_cols=["source"])
    out_dir = str(tmp_path / "pq")
    export_parquet(enc_dir, out_dir)
    subdirs = {os.path.basename(p) for p in glob.glob(out_dir + "/*")}
    assert any(s.startswith("source=") for s in subdirs)
    back = pq.read_table(out_dir)
    assert back.num_rows == 1000


def _exported_rows(out_dir: str, fmt: str) -> int:
    if fmt == "jsonl":
        n = 0
        for p in glob.glob(out_dir + "/*.json"):
            with open(p) as f:
                n += sum(1 for _ in f)
        return n
    return pq.read_table(out_dir).num_rows


@pytest.fixture(scope="module")
def tokens_enc(ray_session, tmp_path_factory):
    """A 3,000-row, 3-file tokens dataset and its plain encode."""
    from fastparquet_ray.pipelines import encode_pipeline

    base = tmp_path_factory.mktemp("tokens_enc")
    paths = write_tokens_dataset(str(base / "src"), 3000, n_fragments=3)
    enc_dir = str(base / "enc")
    encode_pipeline(paths, enc_dir)
    return paths, enc_dir


@pytest.mark.parametrize(
    "fmt, filters",
    [
        ("parquet", None),
        ("jsonl", None),
        ("parquet", [("source", "==", "web")]),
    ],
    ids=["parquet", "jsonl", "parquet-filtered"],
)
def test_export_rerun_writes_each_row_once(tokens_enc, tmp_path, fmt, filters):
    """Exporting twice into one dir leaves one run's rows, and
    ``_metadata`` counts them once: the rerun skips every file."""
    import pyarrow.compute as pc

    from fastparquet_ray.pipelines.export import export_jsonl, export_parquet

    paths, enc_dir = tokens_enc
    out_dir = str(tmp_path / "out")

    def export():
        if fmt == "jsonl":
            return export_jsonl(enc_dir, out_dir)
        return export_parquet(enc_dir, out_dir, filters=filters)

    orig = pa.concat_tables([pq.read_table(p) for p in paths])
    want = orig.num_rows
    if filters:
        want = pc.sum(pc.equal(orig["source"], "web")).as_py()
        assert 0 < want < orig.num_rows
    first = export()
    assert first["rows"] == _exported_rows(out_dir, fmt) == want
    second = export()
    assert (second["exported"], second["skipped"]) == (0, first["exported"])
    assert _exported_rows(out_dir, fmt) == want
    if fmt == "parquet":
        md = pq.read_metadata(os.path.join(out_dir, "_metadata"))
        assert md.num_rows == want


@pytest.mark.parametrize("killed", [False, True],
                         ids=["finished", "killed-before-sidecars"])
@pytest.mark.parametrize(
    "other, named",
    [
        ({"columns": ["doc_id", "tokens"]}, "columns"),
        ({"filters": [("n_tok", ">", 100)]}, "filters"),
        ({"times": "int96"}, "times"),
        ({"fmt": "jsonl"}, "format"),
    ],
    ids=["columns", "filters", "times", "format"],
)
def test_export_rerun_with_other_arguments_raises(
    tokens_enc, tmp_path, other, named, killed
):
    """A rerun into a dir exported with other arguments would keep the
    old files next to new ones: it raises, naming the argument, and
    writes nothing — also when the first run died before its
    sidecars."""
    from fastparquet_ray.pipelines.export import export_jsonl, export_parquet

    _, enc_dir = tokens_enc
    out_dir = str(tmp_path / "out")
    export_parquet(enc_dir, out_dir)
    if killed:
        for name in ("_metadata", "_common_metadata"):
            os.remove(os.path.join(out_dir, name))
    before = sorted(os.listdir(out_dir))
    other = dict(other)
    with pytest.raises(ValueError, match=named):
        if other.pop("fmt", None) == "jsonl":
            export_jsonl(enc_dir, out_dir)
        else:
            export_parquet(enc_dir, out_dir, **other)
    assert sorted(os.listdir(out_dir)) == before
    # the record of the arguments is no data file to any reader
    assert pq.read_table(out_dir).num_rows == 3000


def test_filtered_export_int96_writes_sidecars(ray_session, tmp_path):
    """A filtered Parquet export honours ``times="int96"`` and gets
    both sidecars, counting only the matching rows."""
    import pandas as pd

    import fastparquet_ray as fr
    from fastparquet_ray.pipelines.export import export_parquet

    ts = pd.date_range("2001-05-01", periods=200, freq="h")
    df = pd.DataFrame(
        {"k": np.arange(200, dtype=np.int64), "ts": ts.astype("datetime64[us]")}
    )
    enc = str(tmp_path / "enc")
    fr.write(enc, df)
    out = str(tmp_path / "pq")
    s = export_parquet(enc, out, filters=[("k", ">=", 150)], times="int96")
    assert s["rows"] == 50
    files = [
        p for p in glob.glob(out + "/*.parquet")
        if not os.path.basename(p).startswith("_")
    ]
    assert files
    for f in files:
        schema = pq.ParquetFile(f).schema
        ts_col = schema.column(schema.names.index("ts"))
        assert ts_col.physical_type == "INT96"
    assert pq.read_metadata(os.path.join(out, "_metadata")).num_rows == 50
    cm = pq.read_schema(os.path.join(out, "_common_metadata"))
    assert cm.names == ["k", "ts"]
    back = pq.read_table(out).to_pandas().sort_values("k")
    assert back["k"].tolist() == list(range(150, 200))
    assert (back["ts"].astype("datetime64[us]").to_numpy()
            == df["ts"].to_numpy()[150:]).all()


def test_export_jsonl_hive_rows_carry_partition_columns(
    ray_session, tmp_path
):
    """JSON-Lines output of a hive layout stays flat ``<shard>.json``
    files, and every row carries the partition column."""
    import duckdb

    from fastparquet_ray.pipelines import encode_pipeline
    from fastparquet_ray.pipelines.export import export_jsonl

    paths = write_tokens_dataset(str(tmp_path / "src"), 1000, n_fragments=2)
    enc_dir = str(tmp_path / "enc")
    encode_pipeline(paths, enc_dir, hive_cols=["source"])
    out_dir = str(tmp_path / "jl")
    export_jsonl(enc_dir, out_dir)
    shards = glob.glob(enc_dir + "/*/shard-*.fprs")
    assert sorted(
        n for n in os.listdir(out_dir) if not n.startswith("_")
    ) == sorted(os.path.basename(p)[: -len(".fprs")] + ".json" for p in shards)
    got = duckdb.connect().execute(
        "SELECT source, count(*) FROM "
        f"read_json_auto('{out_dir}/*.json') GROUP BY source ORDER BY source"
    ).fetchall()
    orig = pa.concat_tables([pq.read_table(p) for p in paths])
    want = sorted(
        orig.group_by("source").aggregate([("doc_id", "count")]).to_pylist(),
        key=lambda r: r["source"],
    )
    assert got == [(r["source"], r["doc_id_count"]) for r in want]


def test_shard_statistics_and_sorted(ray_session, tmp_path):
    from fastparquet_ray.pipelines import encode_pipeline
    from fastparquet_ray.pipelines.export import (
        shard_statistics,
        sorted_partitioned_columns,
    )

    src = str(tmp_path / "src")
    paths = write_tokens_dataset(src, 2000, n_fragments=2)
    enc_dir = str(tmp_path / "enc")
    encode_pipeline(paths, enc_dir)
    stats = shard_statistics(enc_dir)
    ntok = stats[stats["column"] == "n_tok"]
    assert (ntok["min"] >= 1).all() and (ntok["max"] <= 2048).all()
    sp = sorted_partitioned_columns(enc_dir)
    assert "column" in sp.columns


def test_merge_manifests(ray_session, tmp_path):
    from fastparquet_ray.pipelines import encode_pipeline
    from fastparquet_ray.pipelines.export import merge_manifests

    src = str(tmp_path / "src")
    paths = write_tokens_dataset(src, 2000, n_fragments=4)
    d1, d2 = str(tmp_path / "e1"), str(tmp_path / "e2")
    s1 = encode_pipeline(paths[:2], d1)
    s2 = encode_pipeline(paths[2:], d2)
    merged = str(tmp_path / "merged.jsonl")
    total = merge_manifests([d1, d2], merged)
    assert total["partitions"] == s1["partitions"] + s2["partitions"]
    assert total["rows"] == 2000
    assert os.path.exists(merged)


_KILL_SCRIPT = r"""
import sys, time
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from fastparquet_ray.pipelines import encode_pipeline
import glob
paths = sorted(glob.glob(sys.argv[1] + "/*.parquet"))
encode_pipeline(paths, sys.argv[2])
print("DONE", flush=True)
"""


def test_kill_mid_run_resume(tmp_path):
    """Launch the encode job in a subprocess, SIGKILL it once some
    (but not all) shards exist, then resume and verify only the
    missing partitions are encoded (reference analog:
    append='overwrite' idempotency, writer.py:1014-1032)."""
    src = str(tmp_path / "src")
    paths = write_tokens_dataset(src, 12000, n_fragments=12)
    enc_dir = str(tmp_path / "enc")
    script = tmp_path / "job.py"
    script.write_text(_KILL_SCRIPT)
    env = dict(os.environ, PYTHONPATH="/root/repo")
    proc = subprocess.Popen(
        [sys.executable, str(script), src, enc_dir],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        cwd="/root/repo",
    )
    deadline = time.time() + 180
    killed = False
    try:
        while time.time() < deadline:
            shards = glob.glob(os.path.join(enc_dir, "shard-*.fprs"))
            if 1 <= len(shards) < 12:
                proc.kill()
                killed = True
                break
            if proc.poll() is not None:
                break
            time.sleep(0.05)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    shards_after_kill = set(
        glob.glob(os.path.join(enc_dir, "shard-*.fprs"))
    )
    if not killed and not shards_after_kill:
        pytest.skip("job finished before any shard appeared")
    # resume in-process (conftest Ray session or a fresh local one)
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=4, include_dashboard=False,
            ignore_reinit_error=True, logging_level="ERROR",
        )
    from fastparquet_ray.pipelines import encode_pipeline, verify_roundtrip

    summary = encode_pipeline(paths, enc_dir)
    assert summary["rows"] == 12000
    if killed and shards_after_kill:
        # finished partitions (shard present AND manifest line written)
        m = Manifest(enc_dir)
        # after resume all partitions are complete; the resumed run must
        # not have re-encoded everything
        assert summary["skipped"] >= 0
        assert summary["encoded"] + summary["skipped"] == summary["partitions"]
    assert verify_roundtrip(paths, enc_dir)["ok"]
