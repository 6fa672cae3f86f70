"""Per-shard bloom filters: unit math (no false negatives, low false
positives, str/bytes/int domains) + end-to-end equality-predicate
shard pruning through encode_pipeline(bloom_cols=...) and
decode_dataset filters."""

import numpy as np
import pandas as pd
import pytest

from fastparquet_ray.bloom import bloom_build, bloom_may_contain
from fastparquet_ray.data import write_tokens_dataset
from fastparquet_ray.pipelines import decode_dataset, encode_pipeline
from fastparquet_ray.pipelines.decode import prune_shards, shard_files


def test_bloom_no_false_negatives_int():
    rng = np.random.default_rng(3)
    vals = np.unique(rng.integers(0, 10**12, 5000).astype(np.int64))
    b = bloom_build(vals)
    for v in vals[:: max(1, vals.size // 100)]:
        assert bloom_may_contain(b, [int(v)])
    assert bloom_may_contain(b, [int(vals[0]), -1])  # any-of semantics


def test_bloom_false_positive_rate_int():
    rng = np.random.default_rng(4)
    vals = np.unique(rng.integers(0, 10**12, 5000).astype(np.int64))
    b = bloom_build(vals)
    probes = rng.integers(10**13, 10**14, 2000).astype(np.int64)
    fp = sum(bloom_may_contain(b, [int(p)]) for p in probes)
    assert fp / probes.size < 0.05  # ~1% target, generous bound


def test_bloom_str_and_bytes_domains():
    vals = np.array([f"doc-{i:06d}" for i in range(1000)], dtype=object)
    b = bloom_build(vals)
    assert bloom_may_contain(b, ["doc-000500"])
    # bytes hash identically to str in the pandas siphash path
    assert bloom_may_contain(b, [b"doc-000500"])
    misses = sum(
        bloom_may_contain(b, [f"nope-{i}"]) for i in range(500)
    )
    assert misses / 500 < 0.05


def test_bloom_degrades_at_cap():
    vals = np.arange(200_000, dtype=np.int64)  # past the 64 KB cap
    b = bloom_build(vals)
    assert b["m"] == 1 << 19
    assert bloom_may_contain(b, [123_456])  # still no false negatives


@pytest.fixture(scope="module")
def encoded_bloom(tmp_path_factory, ray_session):
    src = str(tmp_path_factory.mktemp("bloom_src"))
    paths = write_tokens_dataset(src, 4000, n_fragments=4)
    out = str(tmp_path_factory.mktemp("bloom_enc"))
    encode_pipeline(paths, out, bloom_cols=["doc_id", "source"])
    return paths, out


def test_point_lookup_prunes_shards(ray_session, encoded_bloom):
    import pyarrow.parquet as pq

    paths, out = encoded_bloom
    df = pd.concat([pq.read_table(p).to_pandas() for p in paths])
    shards = shard_files(out)
    assert len(shards) > 1
    # doc_id ranges overlap across fragments (interleaved ids), so
    # min/max alone cannot prune a point lookup to one shard; the
    # bloom must. Probe several ids and require pruning to beat the
    # stats-only baseline on average and never lose rows.
    ids = df["doc_id"].to_numpy()  # string ids
    picks = ids[:: max(1, ids.size // 7)][:7]
    kept_total = 0
    for v in picks:
        v = str(v)
        kept = prune_shards(shards, [("doc_id", "==", v)])
        kept_total += len(kept)
        got = (
            decode_dataset(out, filters=[("doc_id", "==", v)])
            .to_pandas()
        )
        exp = df[df["doc_id"] == v]
        assert len(got) == len(exp)
        assert set(got["doc_id"]) == {v}
    assert kept_total < len(picks) * len(shards)  # bloom pruned some


def test_absent_value_prunes_everything(ray_session, encoded_bloom):
    _, out = encoded_bloom
    shards = shard_files(out)
    # in-range but absent: lexically between real ids, so min/max
    # keeps every shard and ONLY the bloom can prune to zero
    ids = ["forums/doc-999x", "wiki/doc-000zz"]
    assert prune_shards(shards, [("doc_id", "in", ids)]) == []
    assert (
        decode_dataset(out, filters=[("doc_id", "in", ids)]).count() == 0
    )


def test_bloom_in_filter_and_no_bloom_column(ray_session, encoded_bloom):
    import pyarrow.parquet as pq

    paths, out = encoded_bloom
    df = pd.concat([pq.read_table(p).to_pandas() for p in paths])
    two = df["doc_id"].iloc[[0, len(df) // 2]].tolist()
    got = (
        decode_dataset(out, filters=[("doc_id", "in", two)])
        .to_pandas()
        .sort_values("doc_id")
    )
    assert got["doc_id"].tolist() == sorted(two)
    # string column with bloom: equality on a real source value
    src0 = df["source"].iloc[0]
    got2 = decode_dataset(out, filters=[("source", "==", src0)]).count()
    assert got2 == int((df["source"] == src0).sum())


def test_corrupt_bloom_keeps_shard_and_warns(ray_session, encoded_bloom, tmp_path, caplog):
    """A bloom that cannot be read keeps its shard (the conservative
    answer) and logs a WARNING naming the shard and the column."""
    import json
    import logging
    import shutil

    from fastparquet_ray.api import EncodedDataset
    from fastparquet_ray.container import MAGIC

    out = str(tmp_path / "enc")
    shutil.copytree(encoded_bloom[1], out)
    shards = shard_files(out)
    bad = shards[1]
    with open(bad, "rb") as f:
        blob = f.read()
    hlen = int.from_bytes(blob[5:9], "little")
    hdr = json.loads(blob[9 : 9 + hlen])
    col = next(c for c in hdr["columns"] if c["name"] == "doc_id")
    col["bloom"]["bits"] = "not-base64!"
    hj = json.dumps(hdr).encode()
    with open(bad, "wb") as f:
        f.write(MAGIC + len(hj).to_bytes(4, "little") + hj + blob[9 + hlen :])

    ids = ["forums/doc-999x", "wiki/doc-000zz"]  # absent, inside min/max
    with caplog.at_level(logging.WARNING, logger="fastparquet_ray"):
        assert prune_shards(shards, [("doc_id", "in", ids)]) == [bad]
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert any(bad in m and "doc_id" in m for m in warned)
    # the kept shard still decodes, and the residual filter is exact
    assert len(EncodedDataset(out).to_pandas(filters=[("doc_id", "in", ids)])) == 0
