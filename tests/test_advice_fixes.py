"""Regression tests for the round-1 ADVICE findings:

1. partition_id_for must distinguish same-shape blocks with different
   content (the fallback used to hash only names + row count).
2. resume must re-encode a partition whose non-key columns changed
   under the same key values (the id used to cover the key column only,
   so stale shard data survived).
3. shard-stats pruning must work for timestamp filters (raw-int header
   stats vs pd.Timestamp filter values used to raise TypeError).
4. add_salt_column must give distinct unseen sources distinct salt
   buckets (they used to share one overflow bucket).
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from fastparquet_ray.container import partition_id_for
from fastparquet_ray.pipelines import decode_dataset, encode_pipeline
from fastparquet_ray.pipelines.decode import prune_shards, shard_files
from fastparquet_ray.stages.encode_stage import add_salt_column


def test_partition_id_covers_content_without_key_column():
    a = pa.table({"v": [1, 2, 3]})
    b = pa.table({"v": [4, 5, 6]})
    assert partition_id_for(a) != partition_id_for(b)
    # deterministic for identical content
    assert partition_id_for(a) == partition_id_for(pa.table({"v": [1, 2, 3]}))


def test_partition_id_covers_non_key_columns():
    a = pa.table({"doc_id": ["a", "b"], "v": [1, 2]})
    b = pa.table({"doc_id": ["a", "b"], "v": [100, 200]})
    assert partition_id_for(a) != partition_id_for(b)


def test_resume_reencodes_changed_content(ray_session, tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    p = str(src / "part-0.parquet")
    out = str(tmp_path / "enc")
    pq.write_table(pa.table({"doc_id": ["a", "b"], "v": [1, 2]}), p)
    encode_pipeline([p], out, resume=True)
    # same keys, changed values: resume must NOT keep the stale shard
    pq.write_table(pa.table({"doc_id": ["a", "b"], "v": [100, 200]}), p)
    summary = encode_pipeline([p], out, resume=True)
    assert summary["encoded"] == 1 and summary["skipped"] == 0
    got = decode_dataset(out).to_pandas().sort_values("doc_id")
    assert got["v"].tolist() == [100, 200]


def test_timestamp_filter_prunes_and_filters(ray_session, tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    ts = pd.date_range("2024-01-01", periods=100, freq="1h")
    for i in range(2):
        pq.write_table(
            pa.table(
                {
                    "doc_id": [f"d{i}-{j}" for j in range(50)],
                    "ts": pa.array(ts[i * 50 : (i + 1) * 50]),
                }
            ),
            str(src / f"part-{i}.parquet"),
        )
    out = str(tmp_path / "enc")
    encode_pipeline(sorted(str(p) for p in src.glob("*.parquet")), out)
    shards = shard_files(out)
    assert len(shards) == 2
    cut = pd.Timestamp("2024-01-03 02:00:00")  # inside the 2nd shard
    kept = prune_shards(shards, [("ts", ">", cut)])
    assert len(kept) == 1  # first shard pruned by header stats
    got = decode_dataset(out, filters=[("ts", ">", cut)]).to_pandas()
    assert len(got) == int((ts > cut).sum())
    assert got["ts"].min() > cut
    # datetime filter values coerce too (<= keeps both shards: the
    # second shard's min equals the cut exactly)
    assert len(prune_shards(shards, [("ts", "<=", cut.to_pydatetime())])) == 2
    assert prune_shards(shards, [("ts", "<", pd.Timestamp("2000-01-01"))]) == []


def test_unseen_sources_get_distinct_salt_buckets():
    batch = pa.table(
        {
            "doc_id": ["a", "b", "c", "d"],
            "source": ["seen", "newA", "newB", "newA"],
        }
    )
    out = add_salt_column(batch, {"seen": 2})
    salt = out.column("__salt__").to_numpy()
    by_source = {}
    for s, v in zip(batch.column("source").to_pylist(), salt):
        by_source.setdefault(s, set()).add(v // 4096)  # bucket index part
    assert by_source["newA"] != by_source["newB"]
    assert len(by_source["newA"]) == 1  # same unseen source -> same bucket
