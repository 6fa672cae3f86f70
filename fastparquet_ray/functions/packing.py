"""Sequence packing — the canonical pretraining data-prep operator:
concatenate the corpus token stream in a deterministic document order
and chunk it into fixed-length training examples (GPT-style
concat-then-chunk; the ragged tail example is dropped).

Scale shape (the segmented-sort / border-fold house recipe):
ONE range sort on doc_id defines the global order; a per-block token
count partial folds to an exclusive prefix sum on the driver
(O(blocks) state); every block then emits its FULL examples directly
— (m, L) reshape of the block's aligned token span, distributed, the
corpus never funnels anywhere — while the <= 2 boundary fragments per
block route to a driver fix-up bounded by blocks x L tokens. No
shuffle beyond the one sort; example_id is globally unique by
construction.

Reference: the reference engine has no packing (it is a file-format
library); this operator exists because the north star is an LLM
training-data pipeline, where packing sits between tokenization and
the dataloader.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# default example length (tokens) of every packing operator; the
# oracle SQL in __ray_entry__.py derives its budget from it too
PACK_LENGTH = 512


def pack_sequences(sf_dir: str, length: int = PACK_LENGTH):
    """Pack the decoded tokens corpus into fixed-``length`` examples.
    Returns a Dataset of (example_id int64, tokens list<int32>), every
    row exactly ``length`` tokens; example k holds global token
    positions [k*length, (k+1)*length) under the doc_id order."""
    import ray
    import ray.data

    from ..pipelines.decode import decode_dataset
    from ..pipelines.flagship import ensure_encoded

    _, enc = ensure_encoded(sf_dir)
    srt = (
        decode_dataset(enc, columns=["doc_id", "tokens"])
        .sort("doc_id")
        .materialize()  # consumed twice: block-sum pull + pack pass
    )

    def block_sums(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"first_doc": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        col = t.column("tokens").combine_chunks()
        offs = col.offsets.to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "first_doc": pa.array(
                    [str(t.column("doc_id")[0])], pa.string()
                ),
                "n": pa.array([int(offs[-1] - offs[0])], pa.int64()),
            }
        )

    # one row per block; blocks sort by first_doc exactly like the
    # global doc_id order (doc_id is unique, blocks are contiguous)
    bs = (
        srt.map_batches(block_sums, batch_format="pyarrow",
                        batch_size=None)
        .to_pandas()
        .sort_values("first_doc")
        .reset_index(drop=True)
    )
    total = int(bs["n"].sum()) if len(bs) else 0
    n_examples = total // length
    cut = n_examples * length  # positions >= cut form the dropped tail
    excl = np.zeros(len(bs), dtype=np.int64)
    if len(bs) > 1:
        np.cumsum(bs["n"].to_numpy()[:-1], out=excl[1:])
    off_ref = ray.put(dict(zip(bs["first_doc"], excl)))

    L = length

    def pack_block(t: pa.Table, _memo={}) -> pa.Table:
        empty = pa.table(
            {
                "example_id": pa.array([], pa.int64()),
                "tokens": pa.array([], pa.list_(pa.int32())),
                "frag_pos": pa.array([], pa.int64()),
                "is_frag": pa.array([], pa.bool_()),
            }
        )
        if t.num_rows == 0:
            return empty
        if "o" not in _memo:
            _memo["o"] = ray.get(off_ref)  # O(blocks) entries
        col = t.column("tokens").combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(
            np.int32
        )
        g0 = _memo["o"][str(t.column("doc_id")[0])]
        g1 = g0 + flat.size
        # the dropped ragged tail: clip this block's span to < cut
        if g0 >= cut:
            return empty
        if g1 > cut:
            flat = flat[: cut - g0]
            g1 = cut
        lo = -(-g0 // L) * L  # first example boundary >= g0
        hi = (g1 // L) * L    # last boundary <= g1
        ex_ids: list[np.ndarray] = []
        toks: list = []
        fpos: list[np.ndarray] = []
        frag: list[np.ndarray] = []
        if hi > lo:  # full examples, emitted distributed
            m = (hi - lo) // L
            body = flat[lo - g0 : hi - g0].reshape(m, L)
            ex_ids.append(np.arange(lo // L, hi // L, dtype=np.int64))
            toks.extend(list(body))
            fpos.append(np.zeros(m, dtype=np.int64))
            frag.append(np.zeros(m, dtype=bool))
        bounds = [(g0, min(lo, g1))] if lo > g0 else []
        if hi < g1 and max(hi, g0) < g1:
            bounds.append((max(hi, g0), g1))
        if lo > hi:  # block strictly inside one example: one fragment
            bounds = [(g0, g1)]
        for a, b in bounds:
            if b <= a:
                continue
            ex_ids.append(
                np.array([a // L], dtype=np.int64)
            )
            toks.append(flat[a - g0 : b - g0])
            fpos.append(np.array([a], dtype=np.int64))
            frag.append(np.array([True]))
        if not ex_ids:
            return empty
        return pa.table(
            {
                "example_id": pa.array(
                    np.concatenate(ex_ids), pa.int64()
                ),
                "tokens": pa.array(
                    [tk for tk in toks], pa.list_(pa.int32())
                ),
                "frag_pos": pa.array(np.concatenate(fpos), pa.int64()),
                "is_frag": pa.array(np.concatenate(frag), pa.bool_()),
            }
        )

    packed = srt.map_batches(
        pack_block, batch_format="pyarrow", batch_size=None
    )
    full = packed.filter(expr="is_frag == False").drop_columns(
        ["frag_pos", "is_frag"]
    )
    # boundary fragments: <= 2 per block -> driver assembly is
    # O(blocks x L) tokens, block-bounded (never corpus-bounded)
    frags = packed.filter(expr="is_frag == True").to_pandas()
    if len(frags):
        import ray.data

        rows_id, rows_tok = [], []
        for eid, sub in frags.groupby("example_id", sort=True):
            parts = [
                np.asarray(x, dtype=np.int32)
                for x in sub.sort_values("frag_pos")["tokens"]
            ]
            joined = np.concatenate(parts)
            if joined.size == L:  # tail fragments short of L: dropped
                rows_id.append(int(eid))
                rows_tok.append(joined)
        if rows_id:
            fix = pa.table(
                {
                    "example_id": pa.array(rows_id, pa.int64()),
                    "tokens": pa.array(
                        [r for r in rows_tok], pa.list_(pa.int32())
                    ),
                }
            )
            full = full.union(ray.data.from_arrow(fix))
    return full


def pack_stats(sf_dir: str, length: int = PACK_LENGTH):
    """Per-example token count + token sum of the PACKED dataset —
    the SQL-checkable invariant of pack_sequences (the oracle derives
    the same numbers from the raw parquet with a window cumsum over
    per-token global positions)."""
    ds = pack_sequences(sf_dir, length=length)

    def stats(t: pa.Table) -> pa.Table:
        col = t.column("tokens").combine_chunks()
        offs = col.offsets.to_numpy(zero_copy_only=False)
        offs = offs - offs[0]
        vals = col.flatten().to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        lens = np.diff(offs)
        sums = (
            np.add.reduceat(vals, offs[:-1])
            if vals.size
            else np.zeros(0, np.int64)
        )
        sums = np.where(lens > 0, sums, 0).astype(np.int64)
        return pa.table(
            {
                "example_id": t.column("example_id"),
                "n_tok": pa.array(lens.astype(np.int64), pa.int64()),
                "tok_sum": pa.array(sums, pa.int64()),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


def pack_bins(sf_dir: str, length: int = PACK_LENGTH):
    """Boundary-respecting packing: each document lands WHOLE in the
    bin its global start offset falls into (example_id =
    exclusive_cumsum(n_tok) // length under the doc_id order) — the
    sequence-length bucketing used when cross-document attention is
    masked and documents must not split. Bin token counts float
    around ``length`` instead of hitting it exactly; returns
    (example_id, n_docs, tok_sum) per bin.

    Scale shape: the SAME one doc_id range sort + O(blocks) exclusive
    prefix fold as pack_sequences; every block emits its (bin, count,
    sum) partials and a bin straddles at most the blocks its docs
    span, so merge_partials finishes the job — no second exchange
    class, no driver corpus state."""
    import ray

    from ..pipelines.decode import decode_dataset
    from ..pipelines.flagship import ensure_encoded
    from .groupagg import merge_partials

    _, enc = ensure_encoded(sf_dir)
    srt = (
        decode_dataset(enc, columns=["doc_id", "n_tok"])
        .sort("doc_id")
        .materialize()
    )

    def block_sums(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"first_doc": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "first_doc": pa.array(
                    [str(t.column("doc_id")[0])], pa.string()
                ),
                "n": pa.array(
                    [int(
                        t.column("n_tok").to_numpy(
                            zero_copy_only=False
                        ).sum()
                    )],
                    pa.int64(),
                ),
            }
        )

    bs = (
        srt.map_batches(block_sums, batch_format="pyarrow",
                        batch_size=None)
        .to_pandas()
        .sort_values("first_doc")
        .reset_index(drop=True)
    )
    excl = np.zeros(len(bs), dtype=np.int64)
    if len(bs) > 1:
        np.cumsum(bs["n"].to_numpy()[:-1], out=excl[1:])
    off_ref = ray.put(dict(zip(bs["first_doc"], excl)))
    L = length

    def partial(t: pa.Table, _memo={}) -> pa.Table:
        empty = pa.table(
            {"example_id": pa.array([], pa.int64()),
             "n_docs": pa.array([], pa.int64()),
             "tok_sum": pa.array([], pa.int64())}
        )
        if t.num_rows == 0:
            return empty
        if "o" not in _memo:
            _memo["o"] = ray.get(off_ref)
        n = t.column("n_tok").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        g0 = _memo["o"][str(t.column("doc_id")[0])]
        prev = g0 + np.cumsum(n) - n
        eid = prev // L
        uniq, inv = np.unique(eid, return_inverse=True)
        return pa.table(
            {
                "example_id": pa.array(uniq, pa.int64()),
                "n_docs": pa.array(
                    np.bincount(inv).astype(np.int64), pa.int64()
                ),
                "tok_sum": pa.array(
                    np.bincount(inv, weights=n).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    out = merge_partials(
        srt.map_batches(partial, batch_format="pyarrow",
                        batch_size=None),
        ["example_id"], {"n_docs": "sum", "tok_sum": "sum"},
    )
    return out.sort_values("example_id").reset_index(drop=True)


def chunk_windows(sf_dir: str, size: int = 128, stride: int = 64):
    """Sliding-window chunking of each document's token array
    (windows start every ``stride`` tokens while inside the doc, the
    last ones truncated at the doc end) — the long-context eval /
    retrieval-indexing chunker. Per-window (doc_id, win_idx, win_len,
    tok_sum) derived fully vectorized from the list offsets + one
    prefix sum per batch; embarrassingly parallel, zero exchanges."""
    from ..pipelines.decode import decode_dataset
    from ..pipelines.flagship import ensure_encoded

    _, enc = ensure_encoded(sf_dir)
    ds = decode_dataset(enc, columns=["doc_id", "tokens"])

    def windows(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], pa.string()),
             "win_idx": pa.array([], pa.int64()),
             "win_len": pa.array([], pa.int64()),
             "tok_sum": pa.array([], pa.int64())}
        )
        if t.num_rows == 0:
            return empty
        col = t.column("tokens").combine_chunks()
        offs = col.offsets.to_numpy(zero_copy_only=False)
        offs = offs - offs[0]
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        lens = np.diff(offs)
        n_win = np.where(lens > 0, (lens - 1) // stride + 1, 0)
        total = int(n_win.sum())
        if total == 0:
            return empty
        doc_i = np.repeat(
            np.arange(lens.size, dtype=np.int64), n_win
        )
        cum = np.zeros(lens.size, dtype=np.int64)
        np.cumsum(n_win[:-1], out=cum[1:])
        widx = np.arange(total, dtype=np.int64) - np.repeat(cum, n_win)
        s = widx * stride
        wlen = np.minimum(s + size, lens[doc_i]) - s
        csum = np.concatenate([[0], np.cumsum(flat)])
        g0 = offs[:-1][doc_i] + s
        tok_sum = csum[g0 + wlen] - csum[g0]
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(ids[doc_i], pa.string()),
                "win_idx": pa.array(widx, pa.int64()),
                "win_len": pa.array(wlen, pa.int64()),
                "tok_sum": pa.array(tok_sum.astype(np.int64), pa.int64()),
            }
        )

    return ds.map_batches(windows, batch_format="pyarrow")


def pack_greedy(sf_dir: str, length: int = PACK_LENGTH):
    """EXACT distributed greedy sequence packing WITHOUT splitting
    documents (first-fit-sequential: docs in doc_id order; a doc that
    would overflow the open example closes it and starts the next;
    oversized docs end up alone) — the masked-attention packing mode.
    Output: one row per example, (example_id, n_docs, tok_sum, n_pad)
    in closing order; the final open example is included.

    Greedy packing is a SEQUENTIAL recurrence, distributed here with
    the transfer-function trick: each block precomputes, for every
    possible carry-in fill s in [0, L+1] (fills past L clamp — any
    doc closes them), how many examples it closes and what fill it
    hands on — an O(L) vector per block, composable on the driver in
    O(blocks x L). Interior examples (opened AND closed inside one
    block) emit distributed; the <= 2 boundary fragments per block
    merge in an O(blocks) driver fix-up keyed by the globally-ordered
    example id. No SQL oracle exists for a sequential recurrence —
    correctness is pytest-pinned against the serial reference
    implementation across block layouts, including multi-block and
    oversized-doc examples."""
    import ray
    import ray.data

    from ..pipelines.decode import decode_dataset
    from ..pipelines.flagship import ensure_encoded

    _, enc = ensure_encoded(sf_dir)
    srt = (
        decode_dataset(enc, columns=["doc_id", "n_tok"])
        .sort("doc_id")
        .materialize()
    )
    L = length

    def _chain_arrays(c: np.ndarray):
        """nxt[j] = doc index closing a FRESH example opened at doc j
        (n if it stays open); bins_from[j] = examples closed by the
        suffix starting fresh at j; endfill_from[j] = trailing fill."""
        n = c.size
        cum = np.cumsum(c)
        base = np.concatenate([[0], cum[:-1]])  # cum[j-1]
        nxt = np.searchsorted(cum, base + L, side="right")
        nxt = np.maximum(nxt, np.arange(n) + 1)  # oversized: alone
        bins_from = np.zeros(n + 1, dtype=np.int64)
        endfill_from = np.zeros(n + 1, dtype=np.int64)
        open_start = np.full(n + 1, n, dtype=np.int64)
        for j in range(n - 1, -1, -1):
            m = nxt[j]
            if m >= n:
                bins_from[j] = 0
                endfill_from[j] = cum[n - 1] - base[j]
                open_start[j] = j
            else:
                bins_from[j] = 1 + bins_from[m]
                endfill_from[j] = endfill_from[m]
                open_start[j] = open_start[m]
        return cum, base, nxt, bins_from, endfill_from, open_start

    def _j1(c: np.ndarray, cum: np.ndarray, s: int) -> int:
        """First doc index closing the CARRY example (start fill s>0);
        c.size if the whole block joins the carry."""
        j = int(np.searchsorted(cum, L - s, side="right"))
        return min(j, c.size)

    def block_f(t: pa.Table) -> pa.Table:
        ecols = {
            "first_doc": pa.array([], pa.string()),
            "total": pa.array([], pa.int64()),
            "closures": pa.array([], pa.list_(pa.int64())),
            "endfill": pa.array([], pa.list_(pa.int64())),
        }
        if t.num_rows == 0:
            return pa.table(ecols)
        c = t.column("n_tok").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        cum, base, nxt, bins_from, endfill_from, _ = _chain_arrays(c)
        closures = np.zeros(L + 2, dtype=np.int64)
        endfill = np.zeros(L + 2, dtype=np.int64)
        for s in range(L + 2):
            if s == 0:
                closures[s] = bins_from[0]
                endfill[s] = endfill_from[0]
                continue
            j1 = _j1(c, cum, min(s, L + 1) if s <= L else 0)
            if s > L:  # any doc closes the carry immediately
                j1 = 0
            if j1 >= c.size:  # whole block joins the carry
                closures[s] = 0
                endfill[s] = -1  # driver computes s + total
            else:
                closures[s] = 1 + bins_from[j1]
                endfill[s] = endfill_from[j1]
        return pa.table(
            {
                "first_doc": pa.array(
                    [str(t.column("doc_id")[0])], pa.string()
                ),
                "total": pa.array([int(cum[-1])], pa.int64()),
                "closures": pa.array([closures.tolist()],
                                     pa.list_(pa.int64())),
                "endfill": pa.array([endfill.tolist()],
                                    pa.list_(pa.int64())),
            }
        )

    bf = (
        srt.map_batches(block_f, batch_format="pyarrow",
                        batch_size=None)
        .to_pandas()
        .sort_values("first_doc")
        .reset_index(drop=True)
    )
    # O(blocks x L) driver composition of the transfer functions
    state: dict[str, tuple[int, int]] = {}
    s, closed = 0, 0
    for _, row in bf.iterrows():
        state[row["first_doc"]] = (s, closed)
        idx = min(s, L + 1)
        cl = int(row["closures"][idx])
        ef = int(row["endfill"][idx])
        closed += cl
        s = s + int(row["total"]) if ef < 0 else ef
    state_ref = ray.put(state)

    def emit(t: pa.Table, _memo={}) -> pa.Table:
        empty = pa.table(
            {"example_id": pa.array([], pa.int64()),
             "n_docs": pa.array([], pa.int64()),
             "tok_sum": pa.array([], pa.int64()),
             "is_frag": pa.array([], pa.bool_())}
        )
        if t.num_rows == 0:
            return empty
        if "o" not in _memo:
            _memo["o"] = ray.get(state_ref)  # O(blocks) entries
        c = t.column("n_tok").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        s, closed = _memo["o"][str(t.column("doc_id")[0])]
        cum, base, nxt, bins_from, endfill_from, open_start = (
            _chain_arrays(c)
        )
        n = c.size
        eid, nd, ts, fr = [], [], [], []
        if s > 0:
            j1 = 0 if s > L else _j1(c, cum, s)
            # carry fragment: docs [0, j1) continue example closed-1?
            # carry example id = closed (it is the currently-open one)
            eid.append(closed)
            nd.append(int(j1))
            ts.append(int(cum[j1 - 1]) if j1 > 0 else 0)
            fr.append(True)
            if j1 >= n:
                return pa.table(
                    {"example_id": pa.array(eid, pa.int64()),
                     "n_docs": pa.array(nd, pa.int64()),
                     "tok_sum": pa.array(ts, pa.int64()),
                     "is_frag": pa.array(fr, pa.bool_())}
                )
            closed += 1
            start = j1
        else:
            start = 0
        # interior examples: walk the nxt chain from `start`
        j = start
        while j < n:
            m = int(nxt[j])
            seg_docs = (m if m < n else n) - j
            seg_sum = int(cum[min(m, n) - 1] - base[j])
            if m < n:  # closes inside this block: full example row
                eid.append(closed)
                nd.append(seg_docs)
                ts.append(seg_sum)
                fr.append(False)
                closed += 1
                j = m
            else:  # trailing open example: fragment
                eid.append(closed)
                nd.append(seg_docs)
                ts.append(seg_sum)
                fr.append(True)
                break
        return pa.table(
            {"example_id": pa.array(eid, pa.int64()),
             "n_docs": pa.array(nd, pa.int64()),
             "tok_sum": pa.array(ts, pa.int64()),
             "is_frag": pa.array(fr, pa.bool_())}
        )

    packed = srt.map_batches(emit, batch_format="pyarrow",
                             batch_size=None)
    full = packed.filter(expr="is_frag == False").drop_columns(
        ["is_frag"]
    )
    # boundary fragments: <= 2 per block, so the fix-up is O(blocks)
    frags = packed.filter(expr="is_frag == True").to_pandas()
    if len(frags):
        fx = (
            frags.groupby("example_id", as_index=False)
            .agg(n_docs=("n_docs", "sum"), tok_sum=("tok_sum", "sum"))
        )
        fx = fx[fx["n_docs"] > 0]
        if len(fx):
            full = full.union(
                ray.data.from_pandas(fx.reset_index(drop=True))
            )

    def with_pad(t: pa.Table) -> pa.Table:
        pad = np.maximum(
            L - t.column("tok_sum").to_numpy(zero_copy_only=False), 0
        ).astype(np.int64)
        return t.append_column("n_pad", pa.array(pad, pa.int64()))

    # stays a Dataset: example count is corpus_tokens / L — data-
    # scaled, never driver state
    return full.map_batches(with_pad, batch_format="pyarrow")


# exact-assert cap for pack_greedy_check: below this many docs the
# serial first-fit reference is re-run on the driver (O(n) numpy loop)
# and compared row-for-row; above it only the associative invariants
# and the conservation summary are checked (the serial recurrence is
# inherently sequential — running it at corpus scale would defeat the
# distributed implementation it verifies).
_GREEDY_CHECK_CAP = 2_000_000


def pack_greedy_check(sf_dir: str, length: int = PACK_LENGTH):
    """SQL-checkable projection of pack_greedy (VERDICT r04 #2): the
    greedy first-fit recurrence itself has no SQL form, but its output
    must conserve the input multiset — every doc lands in exactly one
    example, token totals match, and an example can exceed the length
    budget only as a lone oversized doc. This query (1) runs the
    distributed pack_greedy, (2) folds the associative invariants
    distributed (max multi-doc fill <= L, pad identity), (3) under
    _GREEDY_CHECK_CAP docs additionally re-runs the serial first-fit
    reference on the driver and asserts row-for-row equality (so a
    wrong distributed recurrence surfaces as a query ERROR in the
    driver's correctness record, not a silent hash pass), and (4)
    returns the one-row conservation summary an independent SQL oracle
    reproduces straight from the input table:
    (n_docs_total, tok_sum_total, n_oversized)."""
    import pyarrow.parquet as pq

    from ..pipelines.flagship import ensure_encoded

    L = length
    packed = pack_greedy(sf_dir, length=L)

    def fold(t: pa.Table) -> pa.Table:
        nd = t.column("n_docs").to_numpy(zero_copy_only=False)
        ts = t.column("tok_sum").to_numpy(zero_copy_only=False)
        npad = t.column("n_pad").to_numpy(zero_copy_only=False)
        multi = nd >= 2
        return pa.table(
            {
                "n_examples": pa.array([len(nd)], pa.int64()),
                "n_docs_total": pa.array([int(nd.sum())], pa.int64()),
                "tok_sum_total": pa.array([int(ts.sum())], pa.int64()),
                "n_pad_total": pa.array([int(npad.sum())], pa.int64()),
                "n_oversized": pa.array(
                    [int((ts > L).sum())], pa.int64()
                ),
                "max_multi_fill": pa.array(
                    [int(ts[multi].max()) if multi.any() else 0],
                    pa.int64(),
                ),
                "pad_identity_ok": pa.array(
                    [bool((npad == np.maximum(L - ts, 0)).all())],
                    pa.bool_(),
                ),
            }
        )

    part = packed.map_batches(
        fold, batch_format="pyarrow"
    ).to_pandas()  # O(blocks) rows — summary-scaled driver pull
    n_examples = int(part["n_examples"].sum())
    n_docs_total = int(part["n_docs_total"].sum())
    tok_sum_total = int(part["tok_sum_total"].sum())
    n_pad_total = int(part["n_pad_total"].sum())
    n_oversized = int(part["n_oversized"].sum())
    max_multi_fill = int(part["max_multi_fill"].max()) if len(part) else 0
    # invariant 1: a multi-doc example never exceeds the budget
    if max_multi_fill > L:
        raise ValueError(
            f"pack_greedy: multi-doc example holds {max_multi_fill} "
            f"tokens, budget {L}"
        )
    # invariant 2: n_pad == max(L - tok_sum, 0) on every row
    if not part["pad_identity_ok"].all():
        raise ValueError("pack_greedy: n_pad != max(L - tok_sum, 0)")
    # invariant 3 (capped): row-for-row equality with the serial
    # first-fit reference (same loop as tests/test_packing.py)
    if n_docs_total <= _GREEDY_CHECK_CAP:
        paths, _ = ensure_encoded(sf_dir)
        src = pa.concat_tables(
            [pq.read_table(p, columns=["doc_id", "n_tok"]) for p in paths]
        )
        order = pc.sort_indices(src.column("doc_id"))
        sizes = (
            src.column("n_tok")
            .take(order)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        want_nd, want_ts = [], []
        nd = ts = 0
        for c in sizes.tolist():
            if ts > 0 and ts + c > L:
                want_nd.append(nd)
                want_ts.append(ts)
                nd = ts = 0
            nd += 1
            ts += c
        if nd:
            want_nd.append(nd)
            want_ts.append(ts)
        got = (
            packed.to_pandas()
            .sort_values("example_id")
            .reset_index(drop=True)
        )
        if n_examples != len(want_nd):
            raise ValueError(
                f"pack_greedy: {n_examples} examples, serial reference "
                f"{len(want_nd)}"
            )
        if not (got["example_id"].to_numpy() == np.arange(len(got))).all():
            raise ValueError("pack_greedy: example ids are not 0..n-1")
        if got["n_docs"].tolist() != want_nd:
            raise ValueError("pack_greedy: n_docs differ from the reference")
        if got["tok_sum"].tolist() != want_ts:
            raise ValueError("pack_greedy: tok_sum differs from the reference")
    return pa.table(
        {
            "n_docs_total": pa.array([n_docs_total], pa.int64()),
            "tok_sum_total": pa.array([tok_sum_total], pa.int64()),
            "n_oversized": pa.array([n_oversized], pa.int64()),
        }
    )
