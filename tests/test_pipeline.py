"""Ray pipeline integration tests (SURVEY.md §5 layer 4): encode ->
decode -> bit-identical verify, resume-after-partial-failure, salted
skew shuffle. Uses the session-scoped Ray fixture."""

import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

from fastparquet_ray.data import SKEWED_WEIGHTS, write_tokens_dataset
from fastparquet_ray.pipelines import (
    decode_dataset,
    encode_pipeline,
    verify_roundtrip,
)
from fastparquet_ray.state.manifest import Manifest


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    src = str(tmp_path_factory.mktemp("tokens_src"))
    paths = write_tokens_dataset(src, 6000, n_fragments=6)
    return src, paths


def test_encode_verify_roundtrip(ray_session, dataset, tmp_path):
    src, paths = dataset
    out = str(tmp_path / "enc")
    summary = encode_pipeline(paths, out)
    assert summary["rows"] == 6000
    assert summary["encoded"] == summary["partitions"] >= 6
    assert summary["ratio"] < 0.6
    res = verify_roundtrip(paths, out)
    assert res["ok"]
    assert res["fingerprint_groups"] == 6000


def test_resume_only_reencodes_missing(ray_session, dataset, tmp_path):
    src, paths = dataset
    out = str(tmp_path / "enc")
    s1 = encode_pipeline(paths, out)
    shards = sorted(glob.glob(os.path.join(out, "shard-*.fprs")))
    removed = shards[:2]
    for s in removed:
        os.remove(s)
    s2 = encode_pipeline(paths, out)
    assert s2["encoded"] == len(removed)
    assert s2["skipped"] == s1["partitions"] - len(removed)
    # third run: everything cached
    s3 = encode_pipeline(paths, out)
    assert s3["encoded"] == 0 and s3["skipped"] == s1["partitions"]
    assert verify_roundtrip(paths, out)["ok"]


def test_manifest_records(ray_session, dataset, tmp_path):
    src, paths = dataset
    out = str(tmp_path / "enc")
    encode_pipeline(paths, out)
    m = Manifest(out)
    recs = m.load_records()
    assert recs
    for rec in recs.values():
        assert rec["status"] == "encoded"
        assert rec["enc_bytes"] < rec["raw_bytes"]
        assert os.path.exists(os.path.join(out, rec["shard"]))
    assert m.has_plan()
    plan = m.load_plan()
    assert "doc_id" in plan.specs and "tokens" in plan.specs


def test_salted_shuffle_bounds_skew(ray_session, tmp_path):
    """FIXTURES.md F5: 95%-hot source must split into multiple
    partitions rather than one giant one."""
    src = str(tmp_path / "skew_src")
    paths = write_tokens_dataset(
        src, 4000, n_fragments=4, weights=SKEWED_WEIGHTS
    )
    out = str(tmp_path / "skew_enc")
    import ray.data as rd

    _prev_push = rd.DataContext.get_current().use_push_based_shuffle
    s = encode_pipeline(paths, out, partition_by_source=True)
    # encode leaves the session DataContext as it found it (no code
    # sets this flag any more; a salted encode must not start to)
    assert rd.DataContext.get_current().use_push_based_shuffle is _prev_push
    assert s["rows"] == 4000
    # the hot source ('web', 95%) must be spread over several shards
    from fastparquet_ray.container import decode_table

    tables = Manifest(out).load_plan().tables
    sizes = {}
    for shard in sorted(glob.glob(os.path.join(out, "shard-*.fprs"))):
        t = decode_table(open(shard, "rb").read(), tables, columns=["source"])
        if t.num_rows == 0:
            continue
        srcs = set(t.column("source").to_pylist())
        assert len(srcs) == 1  # shards are source-pure after the shuffle
        sizes.setdefault(srcs.pop(), []).append(t.num_rows)
    assert len(sizes.get("web", [])) >= 4
    assert max(sizes["web"]) < 4000 * 0.95
    assert verify_roundtrip(paths, out)["ok"]


def test_append_new_fragments(ray_session, tmp_path):
    """Reference append-mode analog (writer.py:973-1032): encoding a
    superset of inputs into the same dir only encodes the NEW
    partitions; old shards are reused byte-for-byte."""
    src = str(tmp_path / "src")
    paths = write_tokens_dataset(src, 3000, n_fragments=3)
    out = str(tmp_path / "enc")
    s1 = encode_pipeline(paths[:2], out)
    s2 = encode_pipeline(paths, out)  # superset: appends fragment 3
    assert s2["skipped"] == s1["partitions"]
    assert s2["encoded"] == s2["partitions"] - s1["partitions"] > 0
    assert s2["rows"] == 3000
    assert verify_roundtrip(paths, out)["ok"]


def test_local_partition_mode(ray_session, tmp_path):
    """Both source layouts give source-pure shards: 'local' (a
    write-side split with ZERO shuffle) and True (the salted exchange).
    Also after a resume appends a fragment whose two sources are
    missing from the plan's histogram and share a salt."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from fastparquet_ray.container import decode_table
    from fastparquet_ray.stages import add_salt_column

    src = str(tmp_path / "src")
    paths = write_tokens_dataset(src, 2000, n_fragments=2)
    t = pq.read_table(paths[0]).slice(0, 300)
    new = ["src277", "src355"]
    salts = add_salt_column(
        pa.table({"doc_id": ["a", "b"], "source": new}), {}
    ).column("__salt__").to_pylist()
    assert salts[0] == salts[1]  # the collision this layout must survive
    t = t.set_column(
        t.schema.get_field_index("doc_id"), "doc_id",
        pc.binary_join_element_wise("x", t.column("doc_id"), ""),
    ).set_column(
        t.schema.get_field_index("source"), "source",
        pa.array([new[i % 2] for i in range(t.num_rows)]),
    )
    os.makedirs(tmp_path / "more")
    extra = str(tmp_path / "more" / "tokens-00002.parquet")
    pq.write_table(t, extra)
    for layout in ("local", True):
        out = str(tmp_path / f"enc_{layout}")
        s = encode_pipeline(paths, out, partition_by_source=layout)
        assert s["rows"] == 2000
        s = encode_pipeline(paths + [extra], out, partition_by_source=layout)
        assert s["rows"] == 2300 and s["encoded"] >= 2, s
        tables = Manifest(out).load_plan().tables
        seen = []
        for shard in glob.glob(os.path.join(out, "shard-*.fprs")):
            t = decode_table(
                open(shard, "rb").read(), tables, columns=["source"]
            )
            sources = set(t.column("source").to_pylist())
            assert len(sources) == 1, (layout, shard, sources)
            seen += sources
        assert set(new) <= set(seen), (layout, seen)
        assert verify_roundtrip(paths + [extra], out)["ok"]


def test_partition_by_source_needs_source_column(tmp_path):
    """Without a 'source' column a source layout fails up front,
    naming the column, before any shard is written."""
    import pyarrow.parquet as pq

    src = tmp_path / "src"
    os.makedirs(src)
    pq.write_table(
        pa.table({"doc_id": ["a", "b"], "n_tok": [1, 2]}),
        str(src / "tokens-00000.parquet"),
    )
    for layout in ("local", True):
        out = str(tmp_path / f"enc_{layout}")
        with pytest.raises(ValueError, match="'source'"):
            encode_pipeline(str(src), out, partition_by_source=layout)
        assert not glob.glob(os.path.join(out, "**", "shard-*"), recursive=True)


def test_decode_projection_streaming(ray_session, dataset, tmp_path):
    src, paths = dataset
    out = str(tmp_path / "enc")
    encode_pipeline(paths, out)
    ds = decode_dataset(out, columns=["doc_id", "n_tok"])
    assert set(ds.schema().names) == {"doc_id", "n_tok"}
    total = 0
    for b in ds.iter_batches(batch_format="pyarrow"):
        total += b.num_rows
        assert pa.types.is_int32(b.schema.field("n_tok").type)
    assert total == 6000


def test_drift_signal_flows_to_summary_and_manifest(ray_session, tmp_path):
    """A plan trained on a vocabulary-poor sample must surface the
    escaped-values count end-to-end: shard headers -> manifest
    lineage -> encode summary (the append-job re-train trigger)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fastparquet_ray.plan import train_plan

    rng = np.random.default_rng(5)
    vals = rng.zipf(1.3, 80_000).clip(1, 8000).astype(np.int32)
    src = str(tmp_path / "drift_src")
    os.makedirs(src)
    rows = []
    for i in range(2000):
        rows.append(vals[i * 40 : (i + 1) * 40])
    t = pa.table(
        {
            "doc_id": pa.array([f"d{i:06d}" for i in range(2000)]),
            "tokens": pa.array([r.tolist() for r in rows], pa.list_(pa.int32())),
            "n_tok": pa.array([40] * 2000, pa.int32()),
            "source": pa.array(["web"] * 2000),
        }
    )
    pq.write_table(t.slice(0, 1000), os.path.join(src, "tokens-00000.parquet"))
    pq.write_table(t.slice(1000), os.path.join(src, "tokens-00001.parquet"))
    # train on a deliberately small slice so later rows carry unseen
    # values (400 rows sees ~1.4k of the corpus's ~3.7k distinct)
    plan = train_plan(t.slice(0, 400))
    assert plan.specs["tokens"]["values"].get("table_hash")
    out = str(tmp_path / "drift_enc")
    s = encode_pipeline(
        [os.path.join(src, f) for f in sorted(os.listdir(src))],
        out,
        plan=plan,
        resume=False,
    )
    assert s["zrank_extras"] > 0
    recs = Manifest(out).load_records().values()
    assert sum(r.get("zrank_extras", 0) for r in recs) == s["zrank_extras"]
    assert verify_roundtrip(
        [os.path.join(src, f) for f in sorted(os.listdir(src))], out
    )["ok"]


def test_append_with_retrained_plan_keeps_old_tables(ray_session, tmp_path):
    """Vocabulary-drift response flow: append new fragments with a
    RE-TRAINED plan (new shared-table hashes). The plan sidecar must
    merge symbol tables so shards encoded under the old plan still
    decode — the whole mixed dataset verifies bit-identical."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fastparquet_ray.plan import train_plan

    rng = np.random.default_rng(9)
    src = str(tmp_path / "ap_src")
    os.makedirs(src)

    def frag(path, vocab_lo, vocab_hi, n=800):
        # zipf-shaped so the plan picks zrank
        vals = (
            rng.zipf(1.3, n * 40).clip(1, vocab_hi - vocab_lo) + vocab_lo - 1
        ).astype(np.int32)
        t = pa.table(
            {
                "doc_id": pa.array([f"{path[-20:]}-{i:05d}" for i in range(n)]),
                "tokens": pa.array(
                    [vals[i * 40 : (i + 1) * 40].tolist() for i in range(n)],
                    pa.list_(pa.int32()),
                ),
                "n_tok": pa.array([40] * n, pa.int32()),
                "source": pa.array(["web"] * n),
            }
        )
        pq.write_table(t, path)
        return t

    p1 = os.path.join(src, "tokens-00000.parquet")
    t1 = frag(p1, 0, 4000)
    out = str(tmp_path / "ap_enc")
    plan_a = train_plan(t1)
    encode_pipeline([p1], out, plan=plan_a, resume=False)
    ha = plan_a.specs["tokens"]["values"].get("table_hash")
    assert ha

    # corpus drifts: new fragment from a disjoint vocabulary range
    p2 = os.path.join(src, "tokens-00001.parquet")
    t2 = frag(p2, 4000, 8000)
    plan_b = train_plan(t2)
    hb = plan_b.specs["tokens"]["values"].get("table_hash")
    assert hb and hb != ha
    s = encode_pipeline([p1, p2], out, plan=plan_b, resume=True)
    assert s["skipped"] >= 1  # old partition not re-encoded

    # sidecar holds BOTH tables; the mixed dataset decodes bit-identical
    tables = Manifest(out).load_plan().tables
    assert ha in tables and hb in tables
    assert verify_roundtrip([p1, p2], out)["ok"]


def test_append_with_unreadable_plan_sidecar_raises(ray_session, tmp_path):
    """A corrupt _plan.json cannot be merged: an append with a
    re-trained plan must fail naming the sidecar instead of replacing
    it and dropping the symbol tables existing shards decode with."""
    import pyarrow.parquet as pq

    from fastparquet_ray.data import generate_fragment
    from fastparquet_ray.plan import train_plan

    paths = []
    for i in range(2):
        p = str(tmp_path / f"tokens-{i:05d}.parquet")
        pq.write_table(generate_fragment(300, i, start_id=i * 300), p)
        paths.append(p)
    out = str(tmp_path / "enc")
    encode_pipeline(paths[:1], out, plan=train_plan(pq.read_table(paths[0])))
    sidecar = os.path.join(out, "_plan.json")
    with open(sidecar, "wb") as f:
        f.write(b'{"specs": {}, "tab')
    plan_b = train_plan(pq.read_table(paths[1]))
    with pytest.raises(ValueError, match="_plan.json"):
        encode_pipeline(paths, out, plan=plan_b, resume=True)
    with open(sidecar, "rb") as f:
        assert f.read() == b'{"specs": {}, "tab'  # left for repair


def test_retrain_on_drift_policy(ray_session, tmp_path):
    """Automatic vocabulary-drift response (retrain_on_drift): an
    append whose vocabulary escapes the stored rank table re-trains
    the plan by itself; a same-vocabulary append does not. Old shards
    stay decodable either way (sidecar table merge)."""
    import pyarrow.parquet as pq

    from fastparquet_ray.plan import measure_drift, sample_fragments

    rng = np.random.default_rng(11)
    src = str(tmp_path / "rd_src")
    os.makedirs(src)

    def frag(path, vocab_lo, vocab_hi, n=800):
        vals = (
            rng.zipf(1.3, n * 40).clip(1, vocab_hi - vocab_lo) + vocab_lo - 1
        ).astype(np.int32)
        t = pa.table(
            {
                "doc_id": pa.array([f"{path[-20:]}-{i:05d}" for i in range(n)]),
                "tokens": pa.array(
                    [vals[i * 40 : (i + 1) * 40].tolist() for i in range(n)],
                    pa.list_(pa.int32()),
                ),
                "n_tok": pa.array([40] * n, pa.int32()),
                "source": pa.array(["web"] * n),
            }
        )
        pq.write_table(t, path)

    p1 = os.path.join(src, "tokens-00000.parquet")
    frag(p1, 0, 4000)
    out = str(tmp_path / "rd_enc")
    s0 = encode_pipeline([p1], out, resume=False)
    assert s0["drift_ratio"] is None  # policy off / fresh train
    ha = Manifest(out).load_plan().specs["tokens"]["values"]["table_hash"]

    # stable append: same vocabulary range -> no retrain, plan kept
    p2 = os.path.join(src, "tokens-00001.parquet")
    frag(p2, 0, 4000)
    s1 = encode_pipeline([p1, p2], out, resume=True, retrain_on_drift=0.2)
    assert s1["plan_retrained"] is False
    assert s1["drift_ratio"] is not None and s1["drift_ratio"] <= 0.2
    assert (
        Manifest(out).load_plan().specs["tokens"]["values"]["table_hash"] == ha
    )

    # drifted append: disjoint vocabulary -> auto retrain, both tables
    # survive in the sidecar, mixed dataset verifies bit-identical
    p3 = os.path.join(src, "tokens-00002.parquet")
    frag(p3, 4000, 8000)
    # sanity: the measurement itself sees the drift
    plan_before = Manifest(out).load_plan()
    drift = measure_drift(plan_before, sample_fragments([p1, p2, p3]))
    assert drift["tokens"] > 0.2
    s2 = encode_pipeline(
        [p1, p2, p3], out, resume=True, retrain_on_drift=0.2
    )
    assert s2["plan_retrained"] is True
    assert s2["drift_ratio"] > 0.2
    assert s2["skipped"] >= 2  # old partitions not re-encoded
    tables = Manifest(out).load_plan().tables
    assert ha in tables  # old table kept for old shards
    assert verify_roundtrip([p1, p2, p3], out)["ok"]


def test_compact_shards(ray_session, tmp_path):
    """Shard compaction (reference merge analog): many small shards
    merge into ~target_rows shards under the frozen plan; the dataset
    still verifies bit-identical, the manifest is rewritten to the new
    layout, old shards are removed, and the op is idempotent."""
    from fastparquet_ray.pipelines.compact import compact_shards

    src = str(tmp_path / "src")
    paths = write_tokens_dataset(src, 6000, n_fragments=12)
    out = str(tmp_path / "enc")
    encode_pipeline(paths, out)
    assert len(glob.glob(os.path.join(out, "shard-*.fprs"))) == 12
    s = compact_shards(out, target_rows=2000)
    assert s["bins"] == 3 and s["compacted_shards"] == 12
    assert s["rows"] == 6000
    shards = glob.glob(os.path.join(out, "shard-*.fprs"))
    assert len(shards) == 3
    recs = Manifest(out).load_records()
    assert len(recs) == 3
    assert {os.path.basename(p) for p in shards} == {
        r["shard"] for r in recs.values()
    }
    assert verify_roundtrip(paths, out)["ok"]
    # idempotent: already at target size
    assert compact_shards(out, target_rows=2000)["bins"] == 0


def test_compact_rejects_hive_layout(ray_session, tmp_path):
    from fastparquet_ray.pipelines.compact import compact_shards

    src = str(tmp_path / "src")
    paths = write_tokens_dataset(src, 1000, n_fragments=2)
    out = str(tmp_path / "enc")
    encode_pipeline(paths, out, hive_cols=["source"])
    with pytest.raises(NotImplementedError):
        compact_shards(out)


def test_cluster_by_gives_disjoint_ranges_and_pruning(ray_session, tmp_path):
    """cluster_by: shards hold disjoint cluster-key ranges (reference
    sorted row-group writes, api.py:609-628), so an equality filter
    decodes exactly ONE shard via header stats pruning."""
    from fastparquet_ray.pipelines.decode import decode_dataset
    from fastparquet_ray.pipelines.export import sorted_partitioned_columns

    src = str(tmp_path / "src")
    paths = write_tokens_dataset(src, 4000, n_fragments=4)
    out = str(tmp_path / "enc")
    s = encode_pipeline(paths, out, cluster_by="doc_id")
    assert s["rows"] == 4000
    assert verify_roundtrip(paths, out)["ok"]
    # disjoint, globally sorted key ranges across shards
    recs = sorted(
        Manifest(out).load_records().values(), key=lambda r: r["key_min"]
    )
    assert len(recs) > 1
    for a, b in zip(recs, recs[1:]):
        assert a["key_max"] <= b["key_min"]
    sp = sorted_partitioned_columns(out)
    assert bool(sp[sp["column"] == "doc_id"]["range_partitioned"].iloc[0])
    # equality filter prunes to exactly one shard
    target = recs[2]["key_min"]
    got = decode_dataset(out, filters=[("doc_id", "==", target)]).to_pandas()
    assert len(got) == 1 and got["doc_id"].iloc[0] == target


def test_clustered_encode_resumes(ray_session, tmp_path):
    """Clustered and z-order layouts must be resume-idempotent: the
    deterministic bucket exchange (pipelines/cluster.py) makes
    partition ids pure functions of the data, so a re-run skips every
    shard instead of re-encoding the whole layout (round-5 smoke
    finding: Dataset.sort's random boundary sampling broke this)."""
    src = str(tmp_path / "src")
    paths = write_tokens_dataset(src, 4000, n_fragments=4)

    out = str(tmp_path / "enc1d")
    s1 = encode_pipeline(paths, out, cluster_by="doc_id")
    assert s1["encoded"] > 0
    s2 = encode_pipeline(paths, out, cluster_by="doc_id")
    assert s2["encoded"] == 0 and s2["skipped"] == s1["encoded"]
    assert s2["orphans_removed"] == 0
    assert verify_roundtrip(paths, out)["ok"]

    outz = str(tmp_path / "encz")
    z1 = encode_pipeline(paths, outz, cluster_by=["source", "n_tok"])
    assert z1["encoded"] > 0
    z2 = encode_pipeline(paths, outz, cluster_by=["source", "n_tok"])
    assert z2["encoded"] == 0 and z2["skipped"] == z1["encoded"]
    assert z2["orphans_removed"] == 0
    assert verify_roundtrip(paths, outz)["ok"]


def test_compact_preserves_clustered_ranges(ray_session, tmp_path):
    """Compacting a clustered dataset keeps shard key ranges disjoint
    (bins are key-ordered and concatenated in key order), so pruned
    point lookups survive compaction."""
    from fastparquet_ray.pipelines.compact import compact_shards

    src = str(tmp_path / "src")
    paths = write_tokens_dataset(src, 4000, n_fragments=8)
    out = str(tmp_path / "enc")
    encode_pipeline(paths, out, cluster_by="doc_id")
    n0 = len(glob.glob(os.path.join(out, "shard-*.fprs")))
    s = compact_shards(out, target_rows=1500)
    assert s["bins"] >= 1
    recs = sorted(
        Manifest(out).load_records().values(), key=lambda r: r["key_min"]
    )
    assert len(recs) < n0
    for a, b in zip(recs, recs[1:]):
        assert a["key_max"] <= b["key_min"]
    assert verify_roundtrip(paths, out)["ok"]
    target = recs[-1]["key_min"]
    got = decode_dataset(
        out, columns=["doc_id"], filters=[("doc_id", "==", target)]
    ).to_pandas()
    assert len(got) == 1
