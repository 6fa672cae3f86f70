"""Distributed roundtrip verification: per-row token-array equality
joined on doc_id (BASELINE.md correctness gate; reference analog: the
roundtrip assertions in
/root/reference/fastparquet/test/test_output.py:104-130).

Two modes, both fully distributed with no driver-side data rows:

- "moments" (default, the 100TB path): each side streams to 64-bit row
  fingerprints (key + positional token hash) and reduces them to
  order-insensitive multiset moments (count, sum, xor, sum-of-squares
  mod 2**64). Equal moments <=> equal fingerprint multisets (up to a
  ~2**-128 collision bound). NO shuffle at all.
- "exact": tag each side's fingerprints +1/-1 and split them on the
  fingerprint through ``cluster.exchange`` (the core's one all-to-all);
  each reducer counts its distinct fingerprints and those whose tags do
  not sum to zero. Used in tests as the stronger check.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..stages.encode_stage import row_fingerprints
from ..state import fs as fsmod
from .cluster import exchange
from .decode import decode_dataset
from .encode import resolve_inputs


def _moments(ds, key: str, list_col: str) -> dict:
    def part(batch: pa.Table) -> pa.Table:
        h = row_fingerprints(batch, key=key, list_col=list_col)
        return pa.table({
            "cnt": pa.array([len(h)], pa.int64()),
            "sum": [h.sum(dtype=np.uint64)],
            "xor": [np.bitwise_xor.reduce(h)],
            "sq": [(h * h).sum(dtype=np.uint64)],
        })

    df = ds.map_batches(part, batch_format="pyarrow").to_pandas()
    u64 = {c: df[c].to_numpy().astype(np.uint64) for c in ("sum", "xor", "sq")}
    return {
        "cnt": int(df["cnt"].sum()),
        "sum": int(u64["sum"].sum(dtype=np.uint64)),
        "xor": int(np.bitwise_xor.reduce(u64["xor"])),
        "sq": int(u64["sq"].sum(dtype=np.uint64)),
    }


def verify_roundtrip(
    src_paths: list[str] | str,
    out_dir: str,
    key: str = "doc_id",
    list_col: str = "tokens",
    mode: str = "moments",
) -> dict:
    """Compare source parquet vs decoded shards; returns counts."""
    import ray.data

    src_paths, schema = resolve_inputs(src_paths)
    if key in schema.names and list_col in schema.names:
        cols = [key, list_col]  # tokens contract: key + token arrays
    else:
        cols = list(schema.names)  # generic table: fingerprint ALL columns
    # Ray Data's workers resolve relative paths against their own dir
    src = ray.data.read_parquet(
        [fsmod.for_workers(p) for p in src_paths], columns=cols
    )
    dec = decode_dataset(out_dir, columns=cols)

    if mode == "moments":
        a = _moments(src, key, list_col)
        b = _moments(dec, key, list_col)
        ok = a == b
        return {
            "fingerprint_groups": a["cnt"],
            "mismatched_groups": 0 if ok else -1,
            "src_moments": a,
            "dec_moments": b,
            "ok": ok,
        }

    def fp_side(ds, side):
        def fp(batch: pa.Table) -> pa.Table:
            h = row_fingerprints(batch, key=key, list_col=list_col)
            return pa.table({"fp": h, "side": np.full(len(h), side, np.int8)})

        return ds.map_batches(fp, batch_format="pyarrow")

    def balance(t: pa.Table) -> pa.Table:
        _, group = np.unique(t["fp"].to_numpy(), return_inverse=True)
        tags = np.bincount(group, weights=t["side"].to_numpy())
        bad = int(np.count_nonzero(tags))
        return pa.table({"groups": [len(tags)], "bad": [bad]})

    parts = exchange(
        [fp_side(src, +1), fp_side(dec, -1)], "fp", finish=balance
    ).to_pandas()
    total = int(parts["groups"].sum())
    n_bad = int(parts["bad"].sum())
    return {
        "fingerprint_groups": total,
        "mismatched_groups": n_bad,
        "ok": n_bad == 0,
    }
