"""Distributed roundtrip verification: per-row token-array equality
joined on doc_id (BASELINE.md correctness gate; reference analog: the
roundtrip assertions in
/root/reference/fastparquet/test/test_output.py:104-130).

Plain Ray tasks over byte-balanced runs (``cluster.pack``) of source
blocks (``encode.input_blocks``) and shards turn each into 64-bit row
fingerprints (key + positional token hash), tagged +1 / -1 by side:

- "moments" (default, the 100TB path): each task reduces its run to
  per-side order-insensitive multiset moments (count, sum, xor,
  sum-of-squares mod 2**64). Equal moments <=> equal fingerprint
  multisets (up to a ~2**-128 collision bound). NO shuffle at all.
- "exact": ``cluster.map_reduce`` (the one all-to-all) on the
  fingerprint; each reducer counts its distinct fingerprints and those
  whose tags do not sum to zero. Used in tests as the stronger check.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from ..stages.encode_stage import read_block, row_fingerprints
from ..state import fs as fsmod
from .cluster import map_reduce, pack, reducer_count, submit_in_order
from .decode import Snapshot, decode_shard
from .encode import input_blocks, resolve_inputs


def _fingerprints(cols, key, list_col, fs, tables, hive, item) -> pa.Table:
    """The tagged row fingerprints of a source block or a shard path."""
    if isinstance(item, str):
        blob = fsmod.read_bytes(fs, item)
        t, side = decode_shard(blob, item, tables, cols, hive=hive), -1
    else:
        t, side = read_block(item[0], item[2], cols), 1
    h = row_fingerprints(t, key=key, list_col=list_col)
    return pa.table({"fp": h, "side": np.full(len(h), side, np.int8)})


def _moments(prepare, *items) -> np.ndarray:
    """Moments task: count, sum, xor and sum of squares (mod 2**64) of
    a run's fingerprints, one row per side (source, shards)."""
    t = pa.concat_tables([prepare(i) for i in items])
    h, side = t["fp"].to_numpy(), t["side"].to_numpy()
    return np.array([
        [len(x), x.sum(dtype=np.uint64), np.bitwise_xor.reduce(x),
         (x * x).sum(dtype=np.uint64)]
        for x in (h[side == 1], h[side == -1])
    ], np.uint64)


def _balance(t: pa.Table) -> pa.Table:
    _, group = np.unique(t["fp"].to_numpy(), return_inverse=True)
    tags = np.bincount(group, weights=t["side"].to_numpy())
    return pa.table({"groups": [len(tags)], "bad": [np.count_nonzero(tags)]})


def verify_roundtrip(
    src_paths: list[str] | str,
    out_dir: str,
    key: str = "doc_id",
    list_col: str = "tokens",
    mode: str = "moments",
) -> dict:
    """Compare source parquet vs decoded shards; returns counts (0
    groups, ok, for a source with no rows and a dir with no shards)."""
    import ray

    src_paths, schema = resolve_inputs(src_paths)
    if key in schema.names and list_col in schema.names:
        cols = [key, list_col]  # tokens contract: key + token arrays
    else:
        cols = list(schema.names)  # generic table: fingerprint ALL columns
    snap, blocks = Snapshot(out_dir), input_blocks(src_paths)
    sizes = [b[4] for b in blocks]
    sizes += [snap.shard(p)["raw_bytes"] for p in snap.paths]
    runs = pack([*blocks, *snap.paths], sizes)
    prepare = functools.partial(
        _fingerprints, cols, key, list_col, snap.fs, snap.tables, snap.hive
    )

    if mode == "moments":
        task, prep = ray.remote(_moments), ray.put(prepare)
        outs = submit_in_order(lambda run: task.remote(prep, *run), runs)
        m = np.stack([np.zeros((2, 4), np.uint64), *ray.get(outs)])
        add = m.sum(axis=0, dtype=np.uint64)
        add[:, 2] = np.bitwise_xor.reduce(m[:, :, 2], axis=0)  # xor by xor
        names = ("cnt", "sum", "xor", "sq")
        a, b = (dict(zip(names, map(int, r))) for r in add)
        ok = a == b
        return {
            "fingerprint_groups": a["cnt"],
            "mismatched_groups": 0 if ok else -1,
            "src_moments": a,
            "dec_moments": b,
            "ok": ok,
        }

    outs = map_reduce(
        runs, "fp", reducer_count(sum(sizes), None), prepare=prepare,
        finish=_balance,
    )
    # a reducer that received no rows returns no counts
    parts = [t for t in ray.get([t for t, _ in outs]) if t.num_rows]
    n_bad = sum(t["bad"][0].as_py() for t in parts)
    return {
        "fingerprint_groups": sum(t["groups"][0].as_py() for t in parts),
        "mismatched_groups": n_bad,
        "ok": n_bad == 0,
    }
