"""Z-order (Morton) multi-column clustering for the encode pipeline.

`encode_pipeline(cluster_by=[colA, colB, ...])` range-sorts the corpus
on an interleaved-bit key of the normalized column values instead of a
single column. Each output shard then covers a small hyper-rectangle
of the key space, so the EXISTING per-column header min/max stats
prune multi-dimensional filters to a few shards — the Delta/Iceberg
"OPTIMIZE ZORDER BY" layout, rebuilt on plain Ray tasks (one range
sort, the same single exchange a 1-column cluster pays).

Normalization needs one cheap global profile per key column (numeric
min/max, or the sorted distinct table for low-cardinality strings) —
a key pass of plain Ray tasks over the key columns, one tiny partial
per block, merged in the driver. The 64-bit key packs
floor(64 / n_cols) bits per column; keys are DERIVED ONLY (the column
is dropped before encoding, so shards hold exactly the user schema).

Public algorithm (bit interleaving / Morton order); no reference
counterpart — fastparquet writes row groups in input order and prunes
on 1-D statistics only (see SURVEY §2.6).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

ZKEY_COL = "__zkey__"
_MAX_CAT = 65536  # distinct-string cap for categorical key columns


def _spread1(x: np.ndarray) -> np.ndarray:
    """Insert one zero bit between consecutive bits (32 -> 64 bit)."""
    x = x.astype(np.uint64) & np.uint64(0xFFFFFFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << np.uint64(2))) & np.uint64(0x3333333333333333)
    x = (x | (x << np.uint64(1))) & np.uint64(0x5555555555555555)
    return x


def _spread2(x: np.ndarray) -> np.ndarray:
    """Insert two zero bits between consecutive bits (21 -> 63 bit)."""
    x = x.astype(np.uint64) & np.uint64(0x1FFFFF)
    x = (x | (x << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x << np.uint64(2))) & np.uint64(0x1249249249249249)
    return x


def morton_key(cols: list[np.ndarray]) -> np.ndarray:
    """Interleave 2 or 3 normalized integer arrays into one uint64
    Morton key (32 or 21 bits per column)."""
    if len(cols) == 2:
        return _spread1(cols[0]) | (_spread1(cols[1]) << np.uint64(1))
    if len(cols) == 3:
        return (
            _spread2(cols[0])
            | (_spread2(cols[1]) << np.uint64(1))
            | (_spread2(cols[2]) << np.uint64(2))
        )
    raise ValueError("z-order supports 2 or 3 cluster columns")


def _partial(cols: list[str], prepare, *items):
    """Key-pass task: one tiny profile row per key column of each of a
    run of items, in order."""
    import pandas as pd

    rows = []
    for t in items:
        t = t if prepare is None else prepare(t)
        for c in cols:
            v = t.column(c).to_numpy(zero_copy_only=False)
            if v.dtype.kind in "OUS":
                u = np.unique(
                    np.array([x for x in v if x is not None], dtype=object)
                )
                if u.size > _MAX_CAT:
                    raise ValueError(
                        f"z-order column {c!r}: > {_MAX_CAT} distinct "
                        "strings in one block — hash or bucket it first"
                    )
                rows.append((c, "cat", None, None, list(u)))
            else:
                vv = v[~pd.isna(v)]
                if vv.size:
                    rows.append(
                        (c, "num", float(vv.min()), float(vv.max()), None)
                    )
    return pd.DataFrame(rows, columns=["col", "kind", "mn", "mx", "vals"])


def zorder_profile(keys, cols: list[str], prepare=None) -> dict:
    """ONE pass collecting the normalization profile per key column:
    numeric -> global (min, max); string -> the sorted global distinct
    table (capped at _MAX_CAT values — z-ordering a high-cardinality
    string should hash first). ``keys`` is a Dataset or runs of items
    that ``prepare`` turns into tables (``cluster.key_runs``). Partials
    are one tiny row per block; the driver merge is O(blocks +
    distinct)."""
    return start_profile(keys, cols, prepare)()


def start_profile(keys, cols: list[str], prepare=None):
    """``zorder_profile`` in two steps: submit its plain Ray tasks now
    and return ``wait()``, which merges their partials."""
    import pandas as pd
    import ray

    from .cluster import key_runs, submit_in_order

    task = ray.remote(_partial)
    outs = submit_in_order(
        lambda run: task.remote(cols, prepare, *run), key_runs(keys)
    )

    def wait() -> dict:
        parts = ray.get(outs)
        parts = (
            pd.concat(parts, ignore_index=True) if parts
            else _partial(cols, None)
        )
        prof: dict = {}
        for c in cols:
            sub = parts[parts["col"] == c]
            if sub.empty:
                prof[c] = ("num", 0.0, 1.0)
            elif (sub["kind"] == "cat").any():
                vals = sorted(
                    {x for lst in sub["vals"] if lst is not None for x in lst}
                )
                if len(vals) > _MAX_CAT:
                    raise ValueError(
                        f"z-order column {c!r}: {len(vals)} distinct "
                        f"strings exceeds the {_MAX_CAT} cap"
                    )
                prof[c] = ("cat", np.array(vals, dtype=object))
            else:
                prof[c] = (
                    "num", float(sub["mn"].min()), float(sub["mx"].max())
                )
        return prof

    return wait


def add_zkey(t: pa.Table, cols: list[str], prof: dict) -> pa.Table:
    """Append the uint64 Morton key column, normalizing each key
    column into its bit budget via the broadcast profile."""
    bits = 32 if len(cols) == 2 else 21
    top = np.float64((1 << bits) - 1)
    norm = []
    for c in cols:
        v = t.column(c).to_numpy(zero_copy_only=False)
        p = prof[c]
        if p[0] == "cat":
            vals = p[1]
            # nulls sort first (bucket 0) — a stable, documented slot
            filled = np.array(
                [vals[0] if x is None and len(vals) else x for x in v],
                dtype=object,
            )
            rank = np.searchsorted(vals, filled).astype(np.float64)
            denom = max(len(vals) - 1, 1)
            q = rank / denom
        else:
            mn, mx = p[1], p[2]
            if mx <= mn:
                q = np.zeros(len(v), dtype=np.float64)
            else:
                q = (v.astype(np.float64) - mn) / (mx - mn)
            # nulls/NaNs cluster at bucket 0 (profile skipped them, so
            # q is NaN here; uint64-casting NaN is undefined behavior)
            q = np.nan_to_num(q, nan=0.0)
        norm.append(
            np.clip(np.round(q * top), 0, top).astype(np.uint64)
        )
    key = morton_key(norm)
    return t.append_column(ZKEY_COL, pa.array(key, pa.uint64()))
