"""The core's one all-to-all (``pipelines.cluster.exchange``) and the
reproducibility it gives every layout: the same input encodes to the
same bytes, shard for shard and manifest line for manifest line."""

import glob
import hashlib
import os

import numpy as np
import pyarrow as pa
import pytest

from fastparquet_ray.data import write_tokens_dataset
from fastparquet_ray.pipelines import encode_pipeline
from fastparquet_ray.pipelines.cluster import exchange, pack, target_buckets
from fastparquet_ray.state.manifest import Manifest


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_tokens_dataset(
        str(tmp_path_factory.mktemp("exchange_src")), 3000, n_fragments=8
    )


def _digests(out: str) -> dict[str, str]:
    return {
        os.path.relpath(p, out): hashlib.sha256(open(p, "rb").read()).hexdigest()
        for p in glob.glob(out + "/**/*", recursive=True)
        if os.path.isfile(p)
    }


@pytest.mark.parametrize(
    "layout",
    [
        {},
        {"partition_by_source": "local"},
        {"partition_by_source": True},
        {"hive_cols": ["source"]},
        {"cluster_by": "doc_id"},
        {"cluster_by": ["doc_id", "n_tok"]},
        {"bloom_cols": ["doc_id"]},
    ],
    ids=["plain", "local", "salted", "hive", "clustered", "zorder", "bloom"],
)
def test_encode_is_byte_reproducible(ray_session, paths, tmp_path, layout):
    """Two encodes of one input write the same files with the same
    bytes, ``_manifest.jsonl`` included: its records are in shard path
    order, not in the order the encode tasks finished."""
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    encode_pipeline(paths, a, resume=False, **layout)
    encode_pipeline(paths, b, resume=False, **layout)
    da, db = _digests(a), _digests(b)
    assert "_manifest.jsonl" in da and len(da) > 3
    assert da == db


def test_tiny_blocks_keep_one_shard_per_bucket(ray_session, paths, tmp_path):
    """A target block size far below one bucket's bytes gives the
    exchange one reducer per bucket, yet every bucket still reaches the
    encoder whole: the clustered encode writes the same shards, one per
    bucket, as at the default block size."""
    from ray.data import DataContext

    ref = str(tmp_path / "ref")
    encode_pipeline(paths, ref, cluster_by="doc_id")
    ctx = DataContext.get_current()
    default = ctx.target_max_block_size
    ctx.target_max_block_size = 16 * 1024
    try:
        small = str(tmp_path / "small")
        s = encode_pipeline(paths, small, cluster_by="doc_id")
    finally:
        ctx.target_max_block_size = default
    records = Manifest(small).load_records().values()
    assert s["partitions"] == len(records) == target_buckets(3000)
    assert min(r["raw_bytes"] for r in records) > 4 * 16 * 1024
    assert _digests(small) == _digests(ref)


def test_pack_cuts_contiguous_byte_balanced_runs(ray_session):
    """The task-count rule on 4 CPUs: max(CPUs, bytes / target) runs,
    never more than the items, each a contiguous slice in order, cut
    where the bytes balance rather than where the counts do."""
    from ray.data import DataContext

    items = list(range(8))
    assert pack(items, [5, 1, 1, 1, 1, 1, 1, 5]) == [
        [0], [1, 2, 3], [4, 5, 6], [7]
    ]
    assert pack(items[:3], [1, 1, 1]) == [[0], [1], [2]]
    assert pack([], []) == []
    # bytes over the target raise the count past the CPUs
    ctx = DataContext.get_current()
    default = ctx.target_max_block_size
    ctx.target_max_block_size = 10
    try:
        assert pack(items, [10] * 8) == [[i] for i in items]
    finally:
        ctx.target_max_block_size = default


def test_exchange_keeps_keys_whole_in_input_order(ray_session):
    """Each output block holds whole keys, sorted by key; inside a key
    the rows keep the order of the input blocks they came from."""
    import ray.data

    rng = np.random.default_rng(0)
    blocks = []
    for i in range(6):
        k = rng.integers(0, 10, 50).astype(np.int32)
        blocks.append(
            pa.table({"k": k, "seq": np.arange(50) + 100 * i, "x": -k})
        )
    ds = ray.data.from_arrow(blocks)
    out = exchange(ds, "k", drop_cols=["x"]).iter_internal_ref_bundles()
    seen, rows = set(), 0
    for b in out:
        for ref in b.block_refs:
            t = ray.get(ref)
            rows += t.num_rows
            assert t.column_names == ["k", "seq"]
            k = t["k"].to_numpy()
            assert (np.diff(k) >= 0).all()
            assert not seen & set(k)  # a key lives in one block only
            seen |= set(k)
            for key in np.unique(k):
                seq = t["seq"].to_numpy()[k == key]
                assert (np.diff(seq) > 0).all()
    want = pa.concat_tables(blocks)
    assert seen == set(want["k"].to_numpy()) and rows == want.num_rows


@pytest.mark.parametrize(
    "layout",
    [
        {"cluster_by": "doc_id"},
        {"partition_by_source": True},
        {"cluster_by": ["doc_id", "n_tok"]},
    ],
)
def test_exchange_layouts_of_an_empty_input(ray_session, tmp_path, layout):
    """An input with no rows runs no map task and writes no shard."""
    import pyarrow.parquet as pq

    p = str(tmp_path / "empty.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array([], pa.string()),
                  "n_tok": pa.array([], pa.int32()),
                  "source": pa.array([], pa.string())}),
        p,
    )
    s = encode_pipeline([p], str(tmp_path / "enc"), resume=False, **layout)
    assert (s["partitions"], s["rows"]) == (0, 0)
