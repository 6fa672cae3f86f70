"""The correctness gate must actually FAIL on corrupted data — both
verify modes detect a single flipped token in one shard."""

import glob
import os

import numpy as np
import pytest

from fastparquet_ray.container import decode_table, ShardEncoder, read_header
from fastparquet_ray.data import write_tokens_dataset
from fastparquet_ray.pipelines import encode_pipeline, verify_roundtrip
from fastparquet_ray.state.manifest import Manifest


@pytest.mark.parametrize("mode", ["moments", "exact"])
def test_verify_detects_corruption(ray_session, tmp_path, mode):
    src = str(tmp_path / "src")
    paths = write_tokens_dataset(src, 1000, n_fragments=2)
    out = str(tmp_path / "enc")
    encode_pipeline(paths, out)
    assert verify_roundtrip(paths, out, mode=mode)["ok"]

    # corrupt: decode one shard, flip one token, re-encode in place
    shard = sorted(glob.glob(os.path.join(out, "shard-*.fprs")))[0]
    plan = Manifest(out).load_plan()
    t = decode_table(open(shard, "rb").read(), plan.tables)
    tokens = t.column("tokens").to_pylist()
    tokens[0] = list(tokens[0])
    tokens[0][0] = (tokens[0][0] + 1) % 50257
    import pyarrow as pa

    t2 = t.set_column(
        t.column_names.index("tokens"),
        "tokens",
        pa.array(tokens, pa.list_(pa.int32())),
    )
    hdr = read_header(open(shard, "rb").read())
    enc = ShardEncoder(plan.specs, plan.tables, outer=plan.outer)
    with open(shard, "wb") as f:
        f.write(enc.encode_table(t2, hdr["partition_id"]))

    res = verify_roundtrip(paths, out, mode=mode)
    assert not res["ok"]


def test_generic_table_verify(ray_session, tmp_path):
    """Tables without the tokens schema verify over ALL columns
    (generic per-row fingerprints) — both modes."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fastparquet_ray.pipelines import encode_pipeline, verify_roundtrip

    rng = np.random.default_rng(33)
    t = pa.table(
        {
            "id": pa.array(np.arange(400), pa.int64()),
            "price": np.round(rng.uniform(0, 10, 400), 2),
            "name": [f"n{i%17}" for i in range(400)],
            "ok": pa.array(rng.integers(0, 2, 400).astype(bool)),
            "ts": pa.array(
                pd.date_range("2024-05-01", periods=400, freq="1min")
            ),
        }
    )
    src = str(tmp_path / "g.parquet")
    pq.write_table(t, src)
    out = str(tmp_path / "enc")
    encode_pipeline([src], out)
    for mode in ("moments", "exact"):
        res = verify_roundtrip([src], out, mode=mode)
        assert res["ok"], res

    # negative: corrupt one value in a re-encoded copy and verify
    # against the ORIGINAL source -> must fail
    t2 = t.set_column(
        1, "price", pa.array(t.column("price").to_numpy() + 0.01)
    )
    src2 = str(tmp_path / "g2.parquet")
    pq.write_table(t2, src2)
    out2 = str(tmp_path / "enc2")
    encode_pipeline([src2], out2)
    res = verify_roundtrip([src], out2, mode="moments")
    assert not res["ok"]


def test_generic_hive_table_verify(ray_session, tmp_path):
    """A generic table encoded with a string and an int hive column
    verifies in both modes: the decoded columns come back in the
    source's order, not with the hive columns last."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fastparquet_ray.pipelines import decode_dataset

    t = pa.table({
        "id": pa.array(np.arange(400), pa.int64()),
        "name": [f"n{i % 5}" for i in range(400)],
        "k": pa.array(np.arange(400) % 3, pa.int64()),
        "v": np.round(np.random.default_rng(5).uniform(0, 10, 400), 2),
    })
    src = str(tmp_path / "g.parquet")
    pq.write_table(t, src)
    out = str(tmp_path / "enc")
    encode_pipeline([src], out, hive_cols=["name", "k"])
    for mode in ("moments", "exact"):
        res = verify_roundtrip([src], out, mode=mode)
        assert res["ok"] and res["fingerprint_groups"] == 400, res
    cols = ["id", "name", "k", "v"]
    assert decode_dataset(out, columns=cols).schema().names == cols


def test_verify_empty_encode(ray_session, tmp_path):
    """An input with no rows encodes to no shards, and verifies with 0
    fingerprint groups; a source with rows against that dir is a
    mismatch, not an error."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    empty = str(tmp_path / "empty.parquet")
    pq.write_table(pa.table({"id": pa.array([], pa.int64())}), empty)
    full = str(tmp_path / "full.parquet")
    pq.write_table(pa.table({"id": pa.array([1, 2, 3], pa.int64())}), full)
    out = str(tmp_path / "enc")
    assert encode_pipeline([empty], out)["partitions"] == 0
    for mode in ("moments", "exact"):
        res = verify_roundtrip([empty], out, mode=mode)
        assert res["ok"] and res["fingerprint_groups"] == 0, res
        res = verify_roundtrip([full], out, mode=mode)
        assert not res["ok"] and res["fingerprint_groups"] == 3, res


def test_verify_single_file_src(ray_session, tmp_path):
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fastparquet_ray.pipelines import encode_pipeline, verify_roundtrip

    t = pa.table({"doc_id": ["a", "b"], "v": [1, 2]})
    src = str(tmp_path / "one.parquet")
    pq.write_table(t, src)
    out = str(tmp_path / "enc")
    encode_pipeline([src], out)
    res = verify_roundtrip(src, out)  # single FILE path, not a dir
    assert res["ok"] and res["fingerprint_groups"] == 2


def test_verify_relative_paths_from_another_dir(
    ray_session, tmp_path, monkeypatch
):
    """Relative source paths given from a directory the Ray workers did
    not start in are read where the caller's paths point. The check
    runs in a thread with a deadline, so a verify that cannot find its
    input fails the test instead of hanging it."""
    import threading

    work = tmp_path / "work"
    write_tokens_dataset(str(work / "src"), 400, n_fragments=2)
    monkeypatch.chdir(work)
    paths = ["src/tokens-00000.parquet", "src/tokens-00001.parquet"]
    assert encode_pipeline(paths, "enc", resume=False)["partitions"] == 2
    res = {}

    def run():
        res["moments"] = verify_roundtrip(paths, "enc")
        res["exact"] = verify_roundtrip(paths, "enc", mode="exact")

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(timeout=120)
    assert not t.is_alive(), "verify_roundtrip did not finish in 120 s"
    assert res["moments"]["ok"] and res["exact"]["ok"]
    assert res["exact"]["fingerprint_groups"] == 400
