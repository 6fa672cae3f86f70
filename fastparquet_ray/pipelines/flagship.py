"""Flagship tokens-table pipelines exposed as queries: encode the
deterministic synthetic tokens dataset (FIXTURES.md F1), then answer
aggregates FROM THE DECODED SHARDS — so the DuckDB oracle (which reads
the original parquet) verifies the encode->decode path end-to-end.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..data import ensure_tokens_dataset, tokens_dir_for_sf
from .decode import decode_dataset
from .encode import encode_pipeline
from .verify import verify_roundtrip

TOKENS_BASE = "/tmp/fpray_tokens"


def sf_from_dir(sf_dir: str) -> float:
    m = re.search(r"sf([0-9.]+)", os.path.basename(os.path.normpath(sf_dir)))
    return float(m.group(1)) if m else 0.01


def encoded_dir_for(sf: float) -> str:
    return os.path.join(TOKENS_BASE, f"sf{sf:g}_enc")


def _input_fingerprint(paths: list[str], partition_by_source) -> list:
    """(path, size, mtime_ns) per input. st_mtime_ns: whole-second
    mtime let a same-size rewrite within one second serve stale
    shards (ADVICE r02)."""
    st = [[p, os.path.getsize(p), os.stat(p).st_mtime_ns] for p in paths]
    return st + [["partition_by_source", str(partition_by_source), 0]]


def ensure_encoded(
    sf_dir: str,
    partition_by_source: bool = False,
    cluster_by: str | None = None,
    bloom_cols: list[str] | None = None,
) -> tuple[list[str], str]:
    """Generate (cached) + encode (resumable, cached) the tokens table
    for the scale factor implied by sf_dir. Returns (src_paths, enc_dir).

    Query-harness fast path: a marker records (path, size, mtime) of
    the inputs of the last successful encode; when unchanged, the
    resume no-op (which re-reads and content-hashes every block to
    verify partition ids) is skipped entirely. Content-verified resume
    still guards every real encode run — this only short-circuits
    repeated QUERIES over an identical, already-encoded input set."""
    import json

    sf = sf_from_dir(sf_dir)
    paths = ensure_tokens_dataset(sf, base=TOKENS_BASE)
    suffix = ""
    if cluster_by:
        suffix = (
            "_zorder" if isinstance(cluster_by, (list, tuple))
            else "_clustered"
        )
    out = encoded_dir_for(sf) + suffix
    if bloom_cols:
        # per-column-set dirs: bloom_cols=['doc_id'] and ['tokens']
        # are different layouts and must not thrash one cache
        out += "_bloom_" + "_".join(sorted(bloom_cols))
    marker = os.path.join(out, "_inputs.json")
    fp = _input_fingerprint(paths, partition_by_source)
    if cluster_by:
        fp = [["cluster_by", cluster_by], fp]
    if bloom_cols:
        fp = [["bloom_cols", sorted(bloom_cols)], fp]
    try:
        with open(marker) as f:
            if json.load(f) == fp:
                return paths, out
    except (OSError, ValueError):
        pass
    encode_pipeline(
        paths,
        out,
        resume=True,
        partition_by_source=partition_by_source,
        cluster_by=cluster_by,
        bloom_cols=bloom_cols,
    )
    tmp = marker + ".tmp"
    with open(tmp, "w") as f:
        json.dump(fp, f)
    os.replace(tmp, marker)
    return paths, out


def _assert_prunes(out: str, filters, what: str, over: int = 4) -> None:
    """Raise unless ``filters`` drop a shard of ``out`` (when it has
    more than ``over`` shards), pruning on the manifest records."""
    from .decode import Snapshot

    snap = Snapshot(out)
    kept, n = snap.prune(filters), len(snap.paths)
    if n > over and not len(kept) < n:
        raise AssertionError(f"{what} pruned nothing: {len(kept)}/{n} shards")


def _source_partial(t: pa.Table) -> pa.Table:
    """Arrow-native per-source partial (count + token sum), no pandas."""
    g = t.group_by(["source"]).aggregate(
        [("n_tok", "count"), ("n_tok", "sum")]
    )
    g = g.rename_columns(["source", "n", "sum_tok"])
    return g.set_column(
        2, "sum_tok", g.column("sum_tok").cast(pa.int64())
    )


def tokens_groupby_source(sf_dir: str):
    """Per-source row count and token totals computed FROM DECODED
    SHARDS (oracle reads the source parquet — equality proves the
    roundtrip for source/n_tok)."""
    from ray.data.aggregate import Count, Sum

    _, out = ensure_encoded(sf_dir)
    ds = decode_dataset(out, columns=["source", "n_tok"])

    parts = ds.map_batches(_source_partial, batch_format="pyarrow")
    return parts.groupby("source").aggregate(
        Sum("n", alias_name="n"), Sum("sum_tok", alias_name="sum_tok")
    )


def tokens_checksum(sf_dir: str):
    """Order-insensitive checksum over every decoded token value —
    the strongest SQL-checkable roundtrip invariant (sum + count of the
    flattened token stream)."""
    _, out = ensure_encoded(sf_dir)
    ds = decode_dataset(out, columns=["tokens"])

    def partial(t: pa.Table) -> pa.Table:
        flat = t.column("tokens").combine_chunks().flatten()
        s = pc.sum(flat).as_py() or 0
        return pa.table(
            {"token_sum": [int(s)], "token_cnt": [len(flat)]}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame(
        {
            "token_sum": [int(parts["token_sum"].sum())],
            "token_cnt": [int(parts["token_cnt"].sum())],
        }
    )


def clustered_lookup(sf_dir: str):
    """Key-pruned point lookup over a CLUSTERED layout: encode with
    cluster_by='doc_id' (range sort -> disjoint shard key ranges),
    then an equality filter on the globally-minimal doc_id decodes
    O(1) shards via stats pruning. Oracle: the same row from
    the source parquet by min(doc_id)."""
    from ..state.manifest import Manifest

    _, out = ensure_encoded(sf_dir, cluster_by="doc_id")
    recs = Manifest(out).load_records()
    key = min(r["key_min"] for r in recs.values())
    df = (
        decode_dataset(
            out,
            columns=["doc_id", "n_tok", "source"],
            filters=[("doc_id", "==", key)],
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    return df


def bloom_lookup(sf_dir: str):
    """Point lookup over an UNCLUSTERED layout with per-shard bloom
    filters on doc_id (encode_pipeline(bloom_cols=['doc_id'])):
    doc_id ranges overlap across shards so min/max stats cannot prune
    an equality probe, but the blooms drop every shard that provably
    lacks the key. Asserts real pruning happened (false-positive
    shards tolerated), then decodes the match. Oracle: the same row
    from the source parquet by min(doc_id)."""
    from ..state.manifest import Manifest

    _, out = ensure_encoded(sf_dir, bloom_cols=["doc_id"])
    recs = Manifest(out).load_records()
    key = min(r["key_min"] for r in recs.values())
    _assert_prunes(out, [("doc_id", "==", key)], "bloom", over=1)
    df = (
        decode_dataset(
            out,
            columns=["doc_id", "n_tok", "source"],
            filters=[("doc_id", "==", key)],
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    return df


def row_range_slice(sf_dir: str, start: int = 1234, stop: int = 1334):
    """Positional random access over the CLUSTERED layout: rows
    [start, stop) of the doc_id-sorted corpus via manifest row-count
    arithmetic + decode of only the overlapping shards — the
    'resume the dataloader at example N' primitive. The pos column
    carries the global position so the oracle cross-checks both the
    slice content AND its placement."""
    from .decode import take_row_range

    _, out = ensure_encoded(sf_dir, cluster_by="doc_id")
    df = take_row_range(out, start, stop, columns=["doc_id", "n_tok", "source"])
    df.insert(
        0, "pos", np.arange(start, start + len(df), dtype=np.int64)
    )
    return df


def sorted_detect_files(sf_dir: str):
    """Value-level sorted-column detection per input fragment — the
    oracle-checkable face of A4 (reference statistics/sorted_columns,
    fastparquet api.py:sorted_partitioned_columns): for each fragment,
    the COUNT of adjacent row pairs in order for doc_id and n_tok plus
    the resulting is-sorted verdict. The pair counts make the check
    discriminating (an always-False detector cannot pass).

    Scale shape: one task per fragment (the same per-row-group unit
    the reference scans), each reading only the two probed columns;
    output is fragment-count sized."""
    import ray.data
    import pyarrow.parquet as pq

    sf = sf_from_dir(sf_dir)
    paths = ensure_tokens_dataset(sf, base=TOKENS_BASE)
    ds = ray.data.from_items([{"path": p} for p in sorted(paths)])

    def check(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for p in df["path"]:
            t = pq.read_table(p, columns=["doc_id", "n_tok"])
            d = t.column("doc_id").to_numpy(zero_copy_only=False)
            nt = t.column("n_tok").to_numpy(zero_copy_only=False)
            dp = int(np.sum(d[1:] >= d[:-1]))
            ntp = int(np.sum(nt[1:] >= nt[:-1]))
            out.append(
                (os.path.basename(p), len(d), dp, ntp, dp == len(d) - 1)
            )
        return pd.DataFrame(
            out,
            columns=["file", "n_rows", "doc_sorted_pairs",
                     "ntok_sorted_pairs", "doc_sorted"],
        )

    return (
        ds.map_batches(check, batch_format="pandas")
        .to_pandas()
        .sort_values("file")
        .reset_index(drop=True)
    )


def tokens_roundtrip_summary(sf_dir: str):
    """Full encode + bit-identical verify; one summary row (rows-only
    check: covers what SQL cannot — per-row positional equality)."""
    from ..api import EncodedDataset

    paths, out = ensure_encoded(sf_dir)
    res = verify_roundtrip(paths, out)
    info = EncodedDataset(out).info
    raw, enc = info["raw_bytes"], info["enc_bytes"]
    return pd.DataFrame(
        {
            "rows": [int(res["fingerprint_groups"])],
            "partitions": [info["partitions"]],
            "raw_bytes": [int(raw)],
            "enc_bytes": [int(enc)],
            "ratio": [enc / raw if raw else None],
            "verified_ok": [bool(res["ok"])],
        }
    )


def tokens_export_roundtrip(sf_dir: str):
    """Encoded shards -> decode -> OUR Parquet sink -> read back with
    Ray -> per-source aggregates. The oracle reads the ORIGINAL
    parquet, so equality proves encode -> decode -> parquet-export is
    lossless AND the exported files are standard Parquet."""
    import ray.data
    from ray.data.aggregate import Count, Sum

    from .export import export_parquet

    sf = sf_from_dir(sf_dir)
    _, enc = ensure_encoded(sf_dir)
    out_dir = os.path.join(TOKENS_BASE, f"sf{sf:g}_export_pq")
    if not os.path.isdir(out_dir) or not os.listdir(out_dir):
        export_parquet(enc, out_dir, columns=["doc_id", "n_tok", "source"])
    ds = ray.data.read_parquet(out_dir)

    parts = ds.map_batches(_source_partial, batch_format="pyarrow")
    return parts.groupby("source").aggregate(
        Sum("n", alias_name="n"), Sum("sum_tok", alias_name="sum_tok")
    )


def tokens_export_jsonl_roundtrip(sf_dir: str):
    """Encoded shards -> decode -> JSON-Lines sink -> read back with
    ray.data.read_json -> per-source aggregates INCLUDING the summed
    token stream. The oracle reads the ORIGINAL parquet, so equality
    proves encode -> decode -> JSONL-export keeps the integer token
    arrays lossless through the text format — the interchange path
    LLM curation stages hand each other."""
    import ray.data
    from ray.data.aggregate import Sum

    from ..api import read_jsonl
    from .export import export_jsonl

    sf = sf_from_dir(sf_dir)
    _, enc = ensure_encoded(sf_dir)
    out_dir = os.path.join(TOKENS_BASE, f"sf{sf:g}_export_jsonl")
    if not os.path.isdir(out_dir) or not os.listdir(out_dir):
        export_jsonl(enc, out_dir, columns=["tokens", "n_tok", "source"])
    ds = read_jsonl(out_dir)

    def partial(t: pa.Table) -> pa.Table:
        col = t.column("tokens").combine_chunks()
        flat = col.flatten()
        offs = col.offsets.to_numpy(zero_copy_only=False)
        offs = offs - offs[0]
        vals = flat.to_numpy(zero_copy_only=False).astype(np.int64)
        csum = np.add.reduceat(vals, offs[:-1]) if vals.size else np.zeros(0)
        # reduceat quirk: empty segments repeat the next value — mask
        lens = np.diff(offs)
        csum = np.where(lens > 0, csum, 0).astype(np.int64)
        g = pd.DataFrame(
            {
                "source": t.column("source").to_numpy(zero_copy_only=False),
                "n": np.int64(1),
                "sum_tok": t.column("n_tok")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
                "tok_sum": csum,
            }
        ).groupby("source", as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow")
    return parts.groupby("source").aggregate(
        Sum("n", alias_name="n"),
        Sum("sum_tok", alias_name="sum_tok"),
        Sum("tok_sum", alias_name="tok_sum"),
    )


def nested_roundtrip(sf_dir: str):
    """list<string> through the FULL engine: documents.text is split
    into a words list<string> column, encoded into shards (recursive
    nested container path), decoded, and per-doc word count + first /
    last word are answered FROM THE DECODED SHARDS. The oracle computes
    the same from the raw parquet with string_split — equality proves
    the nested roundtrip (VERDICT r01 item 3)."""
    import glob as _glob

    import ray.data

    sf = sf_from_dir(sf_dir)
    src_dir = os.path.join(TOKENS_BASE, f"sf{sf:g}_nested_src")
    enc_dir = os.path.join(TOKENS_BASE, f"sf{sf:g}_nested_enc")
    if not _glob.glob(os.path.join(src_dir, "*.parquet")):
        docs = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )

        def derive(t: pa.Table) -> pa.Table:
            words = pc.split_pattern(t.column("text").combine_chunks(), " ")
            return pa.table({"doc_id": t.column("doc_id"), "words": words})

        docs.map_batches(derive, batch_format="pyarrow").write_parquet(src_dir)
    paths = sorted(_glob.glob(os.path.join(src_dir, "*.parquet")))
    encode_pipeline(paths, enc_dir, resume=True)
    dds = decode_dataset(enc_dir)

    def report(t: pa.Table) -> pa.Table:
        col = t.column("words").combine_chunks()
        lengths = pc.list_value_length(col).to_numpy().astype(np.int64)
        flat = col.flatten()
        offs = np.zeros(len(col) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offs[1:])
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_words": pa.array(lengths),
                "first_word": flat.take(pa.array(offs[:-1])),
                "last_word": flat.take(pa.array(offs[1:] - 1)),
            }
        )

    return dds.map_batches(report, batch_format="pyarrow")


def events_roundtrip(sf_dir: str):
    """The events table through the FULL engine: encode (delta/for64
    timestamps, float->scaled-int value, nullable dict props) ->
    decode -> per-type aggregates FROM THE DECODED SHARDS. The oracle
    reads the raw parquet — equality proves the roundtrip across the
    container's scalar type surface (timestamps, floats, strings with
    nulls)."""
    import glob as _glob

    from ray.data.aggregate import Max, Min, Sum

    sf = sf_from_dir(sf_dir)
    enc_dir = os.path.join(TOKENS_BASE, f"sf{sf:g}_events_enc")
    src = os.path.join(sf_dir, "events.parquet")
    encode_pipeline([src], enc_dir, resume=True)
    ds = decode_dataset(enc_dir)

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["event_type"]).aggregate(
            [("ts", "min"), ("ts", "max"), ("value", "sum"),
             ("props", "count"), ("event_id", "count")]
        )
        return g.rename_columns(
            ["event_type", "min_ts", "max_ts", "sum_value", "n_props", "n"]
        )

    parts = ds.map_batches(partial, batch_format="pyarrow")
    agg = parts.groupby("event_type").aggregate(
        Min("min_ts", alias_name="min_ts"),
        Max("max_ts", alias_name="max_ts"),
        Sum("sum_value", alias_name="sum_value_raw"),
        Sum("n_props", alias_name="n_props"),
        Sum("n", alias_name="n"),
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "min_ts": t.column("min_ts"),
                "max_ts": t.column("max_ts"),
                "sum_value": pc.round(t.column("sum_value_raw"), 2),
                "n_props": t.column("n_props").cast(pa.int64()),
                "n": t.column("n"),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def hive_partition_counts(sf_dir: str):
    """The tokens table encoded with a hive `source=...` directory
    layout (partition column stored in the PATH, not the payload — M8,
    reference partition_on writer.py:1066-1105), decoded with the
    partition column reconstructed from the path, then aggregated per
    source. The oracle reads the original parquet — equality proves
    the hive write->discover->parse->attach roundtrip."""
    from ray.data.aggregate import Sum

    sf = sf_from_dir(sf_dir)
    paths = ensure_tokens_dataset(sf, base=TOKENS_BASE)
    out = os.path.join(TOKENS_BASE, f"sf{sf:g}_hive_enc")
    encode_pipeline(paths, out, resume=True, hive_cols=["source"])
    ds = decode_dataset(out, columns=["source", "n_tok"])
    parts = ds.map_batches(_source_partial, batch_format="pyarrow")
    return parts.groupby("source").aggregate(
        Sum("n", alias_name="n"), Sum("sum_tok", alias_name="sum_tok")
    )


def shard_stats_report(sf_dir: str):
    """Per-shard per-column statistics from the manifest records
    (reference A2 statistics(); rows-only)."""
    from .export import shard_statistics

    ensure_encoded(sf_dir)
    sf = sf_from_dir(sf_dir)
    df = shard_statistics(encoded_dir_for(sf))
    return df.sort_values(["shard", "column"]).reset_index(drop=True)


def codec_plan_report(sf_dir: str):
    """The auto-selected codec per column (reference analog: per-column
    compression dict, writer.py:829-860) — rows-only."""
    sf = sf_from_dir(sf_dir)
    ensure_encoded(sf_dir)
    from ..state.manifest import Manifest

    plan = Manifest(encoded_dir_for(sf)).load_plan()
    rows = []
    for col, spec in sorted(plan.specs.items()):
        if "lengths" in spec:
            rows.append(
                {
                    "column": col,
                    "codec": f"list<lengths={spec['lengths'].get('codec')},"
                    f"values={spec['values'].get('codec')}>",
                    "shared_table": "",
                }
            )
        else:
            rows.append(
                {
                    "column": col,
                    "codec": str(spec.get("codec", "auto")),
                    "shared_table": str(spec.get("table_hash") or ""),
                }
            )
    return pd.DataFrame(rows)


def zorder_lookup(sf_dir: str, lo: int = 200, hi: int = 400):
    """Multi-dimensional pruned scan over a Z-ORDERED layout: encode
    with cluster_by=["source", "n_tok"] (Morton-interleaved range
    sort — pipelines/zorder.py), then a 2-D filter
    (source == 'books' AND lo <= n_tok <= hi) prunes through the
    SAME per-column header min/max stats a 1-D cluster uses, but now
    BOTH dimensions cut shards (a 1-D source sort leaves every shard
    overlapping the full n_tok range). Asserts real pruning happened,
    then aggregates the survivors per source. Oracle: the same filter
    + aggregate in SQL over the source parquet — equality also proves
    the z-order exchange is row-preserving."""
    _, out = ensure_encoded(sf_dir, cluster_by=["source", "n_tok"])
    filters = [
        ("source", "==", "books"),
        ("n_tok", ">=", lo),
        ("n_tok", "<=", hi),
    ]
    _assert_prunes(out, filters, "z-order")
    t = (
        decode_dataset(out, columns=["source", "n_tok"], filters=filters)
        .map_batches(_source_partial, batch_format="pyarrow")
        .to_pandas()
    )
    out_df = t.groupby("source", as_index=False).agg(
        n=("n", "sum"), sum_tok=("sum_tok", "sum")
    )
    out_df["n"] = out_df["n"].astype("int64")
    out_df["sum_tok"] = out_df["sum_tok"].astype("int64")
    return out_df.sort_values("source").reset_index(drop=True)


def token_bloom_lookup(sf_dir: str, token: int = 4999):
    """Docs CONTAINING a rare token id, pruned by per-shard blooms
    over the FLATTENED tokens column (the parquet split-block bloom
    idea applied to list elements): element min/max cannot prune
    (every shard spans the zipf vocab) but the bloom drops every
    shard provably lacking the id — the inverted-index-free "which
    shards hold token X" primitive a token-corpus store needs. The
    residual row predicate is one vectorized flatten + segment-any
    per batch. Oracle: SQL list_contains over the source parquet."""
    _, out = ensure_encoded(sf_dir, bloom_cols=["tokens"])
    filters = [("tokens", "contains", token)]
    _assert_prunes(out, filters, "token bloom")
    df = (
        decode_dataset(
            out,
            columns=["doc_id", "n_tok", "source"],
            filters=filters,
        )
        .to_pandas()
    )
    if df.empty:  # token absent: every shard pruned
        return pd.DataFrame(
            {"doc_id": pd.Series([], dtype="object"),
             "n_tok": pd.Series([], dtype="int32"),
             "source": pd.Series([], dtype="object")}
        )
    return (
        df[["doc_id", "n_tok", "source"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def token_probe_any(sf_dir: str, tokens: tuple = (4999, 1009)):
    """Docs containing ANY id of a small probe set (the shard-routing
    primitive behind eval-set decontamination sweeps and targeted
    corpus audits): the per-shard element blooms drop shards lacking
    the WHOLE probe set, the residual is one np.isin flatten +
    segment-any. Oracle: SQL list_has_any."""
    _, out = ensure_encoded(sf_dir, bloom_cols=["tokens"])
    filters = [("tokens", "contains_any", list(tokens))]
    _assert_prunes(out, filters, "probe-set bloom")
    df = (
        decode_dataset(
            out,
            columns=["doc_id", "n_tok", "source"],
            filters=filters,
        )
        .to_pandas()
    )
    if df.empty:
        return pd.DataFrame(
            {"doc_id": pd.Series([], dtype="object"),
             "n_tok": pd.Series([], dtype="int32"),
             "source": pd.Series([], dtype="object")}
        )
    return (
        df[["doc_id", "n_tok", "source"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
