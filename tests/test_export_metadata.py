"""Consolidated parquet ``_metadata`` / ``_common_metadata`` sidecars
on export (reference writer.py:1108-1135 write_common_metadata +
util.py:115-213 metadata_from_many): a single-footer reader must be
able to plan and read the exported directory from ONE footer."""

import glob
import os

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from fastparquet_ray.data import write_tokens_dataset


def _sorted_pdf(t: pa.Table):
    return t.sort_by("doc_id").to_pandas().reset_index(drop=True)


def test_export_parquet_writes_metadata_sidecars(ray_session, tmp_path):
    from fastparquet_ray.pipelines import encode_pipeline
    from fastparquet_ray.pipelines.export import export_parquet

    src = str(tmp_path / "src")
    paths = write_tokens_dataset(src, 2000, n_fragments=3)
    enc_dir = str(tmp_path / "enc")
    encode_pipeline(paths, enc_dir)
    out_dir = str(tmp_path / "pq")
    export_parquet(enc_dir, out_dir)

    md_path = os.path.join(out_dir, "_metadata")
    cm_path = os.path.join(out_dir, "_common_metadata")
    assert os.path.exists(md_path) and os.path.exists(cm_path)

    # the consolidated footer covers every data file's row groups
    files = [
        p
        for p in glob.glob(out_dir + "/*.parquet")
        if not os.path.basename(p).startswith("_")
    ]
    md = pq.read_metadata(md_path)
    assert md.num_rows == 2000
    assert md.num_row_groups == sum(
        pq.read_metadata(p).num_row_groups for p in files
    )
    # every row group is stamped with its dir-relative file path
    rel = {os.path.basename(p) for p in files}
    stamped = {
        md.row_group(i).column(0).file_path
        for i in range(md.num_row_groups)
    }
    assert stamped == rel

    # _common_metadata carries the schema only
    cm = pq.read_metadata(cm_path)
    assert cm.num_row_groups == 0
    assert cm.schema.to_arrow_schema().names == md.schema.to_arrow_schema().names

    # THE single-footer open: pyarrow plans the whole dataset from
    # _metadata (the fastparquet/dask convention) and reads data
    # identical to the per-file open
    dset = pads.parquet_dataset(md_path)
    a = _sorted_pdf(dset.to_table())
    b = _sorted_pdf(pq.read_table(out_dir))
    assert (a["doc_id"].to_numpy() == b["doc_id"].to_numpy()).all()
    assert (a["n_tok"].to_numpy() == b["n_tok"].to_numpy()).all()
    assert all(
        list(x) == list(y)
        for x, y in zip(a["tokens"].tolist(), b["tokens"].tolist())
    )
    # and row-group pruning information survives: a filtered scan over
    # the one-footer dataset matches a filtered direct read
    flt = dset.to_table(filter=pads.field("n_tok") > 300)
    direct = pq.read_table(out_dir, filters=[("n_tok", ">", 300)])
    assert flt.num_rows == direct.num_rows


def test_export_resumable_writes_and_refreshes_sidecar(
    ray_session, tmp_path
):
    from fastparquet_ray.pipelines import encode_pipeline
    from fastparquet_ray.pipelines.export import export_parquet

    src = str(tmp_path / "src")
    paths = write_tokens_dataset(src, 1500, n_fragments=3)
    enc_dir = str(tmp_path / "enc")
    encode_pipeline(paths, enc_dir)
    out_dir = str(tmp_path / "pq")
    export_parquet(enc_dir, out_dir)
    md_path = os.path.join(out_dir, "_metadata")
    assert pq.read_metadata(md_path).num_rows == 1500

    # kill-between-last-shard-and-sidecar: removing only _metadata and
    # re-running (all shards skip) republishes it
    os.remove(md_path)
    s = export_parquet(enc_dir, out_dir)
    assert s["exported"] == 0 and s["skipped"] == 3
    assert pq.read_metadata(md_path).num_rows == 1500

    # the one-footer open reads the resumable layout too
    dset = pads.parquet_dataset(md_path)
    assert dset.to_table().num_rows == 1500


def test_partitioned_export_sidecar(ray_session, tmp_path):
    """Hive-partitioned output: the consolidated footer spans the
    key=value subdirs with dir-relative paths, and the one-footer open
    reconstructs partition columns from those paths."""
    from fastparquet_ray.pipelines import encode_pipeline
    from fastparquet_ray.pipelines.export import export_parquet

    src = str(tmp_path / "src")
    paths = write_tokens_dataset(src, 1000, n_fragments=2)
    enc_dir = str(tmp_path / "enc")
    encode_pipeline(paths, enc_dir, hive_cols=["source"])
    out_dir = str(tmp_path / "pq")
    export_parquet(enc_dir, out_dir)
    md_path = os.path.join(out_dir, "_metadata")
    md = pq.read_metadata(md_path)
    assert md.num_rows == 1000
    stamped = {
        md.row_group(i).column(0).file_path
        for i in range(md.num_row_groups)
    }
    assert all("source=" in p and "/" in p for p in stamped)
    dset = pads.parquet_dataset(md_path, partitioning="hive")
    t = dset.to_table()
    assert t.num_rows == 1000
    assert "source" in t.column_names
