"""Sketch / heavy-aggregate operators for training-data pipelines.

- token_topk: exact top-k most frequent token ids across the corpus —
  per-batch bincount partials (vectorized over the flattened token
  stream) pre-shrink the shuffle to one row per (block, distinct
  token), then a groupby-sum and a tiny global top-k. SQL-checkable
  (unnest + GROUP BY), so oracle-verified.
- distinct_count_approx: HyperLogLog distinct estimate (Flajolet et
  al. 2007, public algorithm) — per-batch 2^p-register partials, a
  #blocks-bounded driver max-merge (registers are 4 KB each), never a
  value shuffle. Approximate by design -> rows-only check; accuracy
  asserted against the exact count in tests.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

from .pool import task_state as _task_state
import pyarrow as pa


def token_topk(sf_dir: str, k: int = 20):
    """Top-k token ids by total occurrence count over the encoded
    corpus (answered FROM DECODED SHARDS like the other tokens
    queries, proving the token stream roundtrip under an aggregate the
    oracle can cross-check). Folds the shared memoized vocab profile
    over sources — with any sibling profile consumer in the same
    session the corpus scan is paid once."""
    agg = (
        _source_token_counts(sf_dir)
        .groupby("tok", sort=False)["n"].sum().reset_index()
    )
    out = agg.sort_values(["n", "tok"], ascending=[False, True]).head(k)
    return out.reset_index(drop=True)


def token_docfreq(sf_dir: str, k: int = 20):
    """Top-k token ids by DOCUMENT frequency (number of documents
    containing the token at least once) — the inverted-index posting
    sizes a retrieval pipeline needs, answered from decoded shards.

    Per batch: each row is one document; (row << 32 | token) keys are
    np.unique'd to collapse within-doc repeats, then a bincount yields
    the block's per-token df partial. One groupby-sum over (token, df)
    rows (vocabulary-sized, not corpus-sized) + the select_k merge of
    token_topk — no all-to-all sort, shuffle bounded by
    blocks x distinct-tokens-per-block."""
    from ..pipelines.decode import decode_dataset
    from ..pipelines.flagship import ensure_encoded

    _, enc = ensure_encoded(sf_dir)
    ds = decode_dataset(enc, columns=["tokens"])

    empty = pa.table(
        {"tok": pa.array([], pa.int64()), "df": pa.array([], pa.int64())}
    )

    def partial(t: pa.Table) -> pa.Table:
        col = t.column("tokens").combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        if flat.size == 0:
            return empty
        offs = col.offsets.to_numpy(zero_copy_only=False)
        row = np.repeat(
            np.arange(len(offs) - 1, dtype=np.int64), np.diff(offs)
        )
        # token ids are vocabulary-bounded (< 2^32): pack (row, tok)
        # into one int64 key so the pair-dedup is a single np.unique
        uk = np.unique((row << np.int64(32)) | flat)
        tok = (uk & np.int64(0xFFFFFFFF)).astype(np.int64)
        cnt = np.bincount(tok)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {"tok": pa.array(nz, pa.int64()),
             "df": pa.array(cnt[nz], pa.int64())}
        )

    from .groupagg import merge_partials

    agg = merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["tok"], {"df": "sum"},
    )
    out = agg.sort_values(["df", "tok"], ascending=[False, True]).head(k)
    return out.reset_index(drop=True)


def tfidf_topk(sf_dir: str, top: int = 3):
    """Top-`top` tokens per source by TF-IDF (tf x ln(N/df)) over the
    decoded token corpus — the term-weighting pass a retrieval /
    data-curation pipeline runs after token counting.

    Scale shape: ONE streaming scan produces the vocabulary-sized
    sufficient statistics — per-(source, token) partials packed as
    source-code<<32|tok np.unique rows carrying BOTH tf (occurrences)
    and dfp (docs-in-block containing tok) — merged at
    sources x vocab cardinality by groupagg.merge_partials (token
    vocabularies are bounded, ~100k-1M entries; sort-mode keeps the
    merge distributed past the driver cap). df derivation (sum of dfp
    over sources) and scoring then run vectorized over the merged
    frame — scalar work relative to the corpus scan. Ranking uses the
    ROUNDED score (6 dp) with token-id tiebreak so the order is
    reproducible across engines (float log differences live ~10
    orders below the rounding)."""
    from ..api import EncodedDataset
    from ..pipelines.decode import decode_dataset
    from ..pipelines.flagship import ensure_encoded
    from .groupagg import merge_partials

    _, enc = ensure_encoded(sf_dir)
    n_docs = EncodedDataset(enc).count()  # metadata-only
    ds = decode_dataset(enc, columns=["source", "tokens"])

    # ONE decode + ONE (source, tok) groupby carries BOTH sufficient
    # statistics: tf (occurrences) and dfp (docs-in-block containing
    # tok). A doc has exactly one source, so df(tok) = sum over sources
    # of dfp — derived from the already-aggregated vocabulary-sized
    # result, not a second corpus scan (halves decode + exchange work).
    def tf_partial(t: pa.Table) -> pa.Table:
        col = t.column("tokens").combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        if flat.size == 0:
            return pa.table(
                {"source": pa.array([], pa.string()),
                 "tok": pa.array([], pa.int64()),
                 "tf": pa.array([], pa.int64()),
                 "dfp": pa.array([], pa.int64())}
            )
        offs = col.offsets.to_numpy(zero_copy_only=False)
        src = t.column("source").to_pandas().to_numpy(dtype=object)
        codes_u, codes = np.unique(src, return_inverse=True)
        lens = np.diff(offs)
        row = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        row_code = codes.astype(np.int64)[row]
        key, cnt = np.unique(
            (row_code << np.int64(32)) | flat, return_counts=True
        )
        # per-doc-unique (row, tok) pairs -> per-(source, tok) doc count
        urt = np.unique((row << np.int64(32)) | flat)
        ucode = codes.astype(np.int64)[(urt >> np.int64(32))]
        dkey, dcnt = np.unique(
            (ucode << np.int64(32)) | (urt & np.int64(0xFFFFFFFF)),
            return_counts=True,
        )
        # dkey aligns with key (same packing); scatter dfp onto key rows
        dfp = np.zeros(key.size, dtype=np.int64)
        pos = np.searchsorted(key, dkey)
        dfp[pos] = dcnt
        return pa.table(
            {
                "source": pa.array(
                    codes_u[(key >> np.int64(32))], pa.string()
                ),
                "tok": pa.array(key & np.int64(0xFFFFFFFF), pa.int64()),
                "tf": pa.array(cnt.astype(np.int64), pa.int64()),
                "dfp": pa.array(dfp, pa.int64()),
            }
        )

    # one vocabulary-cardinality merge (groupagg: ~4x faster than the
    # native hash aggregate at these key counts, sort-mode fallback
    # keeps it distributed at 1M-term vocabularies); df derivation and
    # scoring then run vectorized over the O(sources x vocab) merged
    # frame — scalar work relative to the corpus scan
    tf = merge_partials(
        ds.map_batches(tf_partial, batch_format="pyarrow"),
        ["source", "tok"], {"tf": "sum", "dfp": "sum"},
    )
    dfx = tf.groupby("tok")["dfp"].transform("sum").to_numpy(np.float64)
    score = np.round(
        tf["tf"].to_numpy(np.float64) * np.log(n_docs / dfx), 6
    )
    out = pd.DataFrame(
        {
            "source": tf["source"],
            "tok": tf["tok"].astype("int64"),
            "score": score,
        }
    ).sort_values(
        ["source", "score", "tok"], ascending=[True, False, True],
        kind="mergesort",
    )
    out = out.groupby("source", sort=False).head(top).reset_index(drop=True)
    out["rn"] = out.groupby("source").cumcount().astype(np.int64) + 1
    return out


_HLL_P = 12  # 4096 registers; relative error ~ 1.04/sqrt(m) ~ 1.6%


def _hll_bucket_rank(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shared HLL kernel: hash values -> (register bucket, rank).
    rank = leading zeros of the (64-p)-bit remainder + 1; frexp is
    exact below 2^53 and 64-p = 52 here. The single source of truth
    for HLLPartial and grouped_distinct_approx — their registers must
    stay merge-compatible."""
    h = pd.util.hash_array(vals).astype(np.uint64)
    bucket = (h >> np.uint64(64 - _HLL_P)).astype(np.int64)
    w = h & np.uint64((1 << (64 - _HLL_P)) - 1)
    bl = np.frexp(w.astype(np.float64))[1]
    rank = (64 - _HLL_P) - bl + 1
    return bucket, rank


class HLLPartial:
    """Per-batch HyperLogLog registers over one column's values."""

    def __init__(self, column: str):
        self.column = column
        self.m = 1 << _HLL_P

    def __call__(self, t: pa.Table) -> pa.Table:
        vals = t.column(self.column).to_pandas().to_numpy()
        bucket, rank = _hll_bucket_rank(vals)
        regs = np.zeros(self.m, dtype=np.int64)
        np.maximum.at(regs, bucket, rank)
        return pa.table({"regs": pa.array([regs.astype(np.uint8).tobytes()])})


def _hll_estimate(regs: np.ndarray) -> float:
    m = regs.size
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear-counting small-range fix
    return float(est)


def distinct_count_approx(sf_dir: str):
    """Approximate distinct l_partkey / l_suppkey counts via HLL:
    register partials per batch, #blocks x 4 KB driver merge — the
    constant-memory alternative to the exact groupby in
    distinct_count. Rows-only check (approximate by design; accuracy
    asserted in tests)."""
    import ray.data

    out = {}
    for col in ("l_partkey", "l_suppkey"):
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"), columns=[col]
        )
        parts = ds.map_batches(
            _task_state(lambda col=col: HLLPartial(col)),
            batch_format="pyarrow",
        ).to_pandas()  # one 4 KB row per batch
        regs = np.zeros(1 << _HLL_P, dtype=np.uint8)
        for blob in parts["regs"]:
            regs = np.maximum(regs, np.frombuffer(blob, dtype=np.uint8))
        out[col] = int(round(_hll_estimate(regs)))
    return pd.DataFrame(
        {"n_part_approx": [out["l_partkey"]], "n_supp_approx": [out["l_suppkey"]]}
    )


def quantiles(sf_dir: str, qs=(0.01, 0.25, 0.5, 0.75, 0.99)):
    """EXACT distributed quantiles (percentile_disc semantics: the
    element at 1-based rank max(1, ceil(q*n)) of the sorted column —
    verified to match DuckDB quantile_disc) over orders.o_totalprice,
    WITHOUT a global sort. Rank-selection via histogram partition:

      pass 1: per-block (count, min, max) partials -> driver scalars
      pass 2: per-block 4096-bucket histogram over the global range ->
              driver cumsum locates the bucket holding each target rank
      pass 3: per-block (value, count) uniques restricted to the
              candidate buckets -> driver merges and indexes the exact
              element by within-bucket rank

    Each pass is a streaming column scan with O(buckets)-sized block
    outputs; the driver never sees raw rows, only per-bucket distinct
    values of the ~|qs| candidate buckets. Three cheap column scans
    beat one all-to-all sort at any scale (the select_k pattern of
    sort_topk, generalized to interior ranks). Heavy value repetition
    collapses in the np.unique partials, so skewed columns cost the
    driver one row per distinct candidate value, not per row."""
    qs = list(qs)
    n, rank_value = _rank_select(
        sf_dir, "orders", "o_totalprice",
        lambda n: [max(1, int(np.ceil(q * n))) for q in qs],
    )
    if n == 0:
        return pd.DataFrame({"q": pd.Series(qs, dtype="float64"),
                             "value": pd.Series([np.nan] * len(qs))})
    vals = [rank_value[max(1, int(np.ceil(q * n)))] for q in qs]
    return pd.DataFrame({"q": np.asarray(qs, dtype=np.float64),
                         "value": np.asarray(vals, dtype=np.float64)})


def _cont_ranks_of(qs: list[float]):
    """ranks_fn for percentile_cont: the TWO bracketing 1-based order
    statistics around position (n-1)*q, per q."""

    def ranks_of(n: int) -> list[int]:
        out = []
        for q in qs:
            pos = (n - 1) * q
            out.append(int(np.floor(pos)) + 1)
            out.append(int(np.ceil(pos)) + 1)
        return out

    return ranks_of


def _cont_values(n: int, rank_value: dict, qs: list[float]) -> list[float]:
    """DuckDB quantile_cont lerp: vlo + (pos - floor(pos)) * (vhi - vlo)
    at pos = (n-1)*q. ONE shared implementation — the hash-gate oracles
    of every caller depend on this exact float op order."""
    vals = []
    for q in qs:
        pos = (n - 1) * q
        lo, hi = int(np.floor(pos)) + 1, int(np.ceil(pos)) + 1
        vlo, vhi = rank_value[lo], rank_value[hi]
        vals.append(vlo + (pos - np.floor(pos)) * (vhi - vlo))
    return vals


def quantiles_cont(sf_dir: str, qs=(0.01, 0.25, 0.5, 0.75, 0.99)):
    """Interpolated quantiles (percentile_cont / DuckDB quantile_cont
    semantics: linear interpolation at position (n-1)*q of the sorted
    column) — the same zero-sort histogram rank-selection as
    quantiles(), fetching the TWO bracketing order statistics per q
    and lerping on the driver."""
    qs = list(qs)
    n, rank_value = _rank_select(
        sf_dir, "orders", "o_totalprice", _cont_ranks_of(qs)
    )
    if n == 0:
        return pd.DataFrame({"q": pd.Series(qs, dtype="float64"),
                             "value": pd.Series([np.nan] * len(qs))})
    vals = [round(v, 6) for v in _cont_values(n, rank_value, qs)]
    return pd.DataFrame({"q": np.asarray(qs, dtype=np.float64),
                         "value": np.asarray(vals, dtype=np.float64)})


def _rank_select(sf_dir: str, table: str, col: str, ranks_fn,
                 transform=None):
    """Exact order statistics at arbitrary 1-based ranks over one
    column, by the 3-pass histogram rank-partition selection (see
    quantiles() docstring). ``ranks_fn(n)`` maps the column's non-NaN
    count to the requested ranks. ``transform`` (optional, vectorized
    ndarray -> ndarray) is applied after the NaN filter in every pass,
    so order statistics of a DERIVED quantity (e.g. |x - median| for
    MAD) reuse the same zero-sort machinery without materializing the
    derived column. Returns (n, {rank: value})."""
    import ray.data

    # one parquet read; the selection passes scan the cached column
    # (a single pruned column — object-store scale, spills if needed)
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, f"{table}.parquet"), columns=[col]
    ).materialize()
    return _rank_select_ds(ds, col, ranks_fn, transform=transform)


def _rank_select_ds(ds, col, ranks_fn, transform=None, stats=None):
    """Dataset-input rank selection. ``stats``: optional
    (n, mn, mx) of the TRANSFORMED values — when the caller already
    knows them (e.g. MAD's second selection derives its bounds from
    the first: |x - med| spans [0, max(mx-med, med-mn)]), pass 1 is
    skipped entirely (VERDICT r03 #7 scan fusion)."""
    import ray

    def minmax_partial(t: pa.Table) -> pa.Table:
        v = t.column(col).to_numpy(zero_copy_only=False)
        v = v[~np.isnan(v)]
        if transform is not None:
            v = transform(v)
        if v.size == 0:
            return pa.table(
                {"n": pa.array([], pa.int64()),
                 "mn": pa.array([], pa.float64()),
                 "mx": pa.array([], pa.float64())}
            )
        return pa.table(
            {"n": [int(v.size)], "mn": [float(v.min())], "mx": [float(v.max())]}
        )

    if stats is not None:
        n, mn, mx = stats
    else:
        p1 = ds.map_batches(minmax_partial, batch_format="pyarrow").to_pandas()
        if p1.empty:
            return 0, {}
        n = int(p1["n"].sum())
        mn, mx = float(p1["mn"].min()), float(p1["mx"].max())
    if n == 0:
        return 0, {}
    ranks = sorted(set(ranks_fn(n)))  # 1-based
    if mn == mx:
        return n, {r: mn for r in ranks}

    B = 4096
    scale = B / (mx - mn)

    def bucket_of(v: np.ndarray) -> np.ndarray:
        # identical float math in passes 2 and 3 keeps binning stable
        idx = np.floor((v - mn) * scale).astype(np.int64)
        return np.clip(idx, 0, B - 1)

    def hist_partial(t: pa.Table) -> pa.Table:
        v = t.column(col).to_numpy(zero_copy_only=False)
        v = v[~np.isnan(v)]
        if transform is not None:
            v = transform(v)
        cnt = np.bincount(bucket_of(v), minlength=B) if v.size else np.zeros(B, np.int64)
        nz = np.nonzero(cnt)[0]
        return pa.table(
            {"bucket": pa.array(nz, pa.int64()),
             "cnt": pa.array(cnt[nz].astype(np.int64), pa.int64())}
        )

    p2 = ds.map_batches(hist_partial, batch_format="pyarrow").to_pandas()
    hist = np.zeros(B, dtype=np.int64)
    np.add.at(hist, p2["bucket"].to_numpy(), p2["cnt"].to_numpy())
    cum = np.concatenate([[0], np.cumsum(hist)])  # cum[b] = rows below bucket b
    # bucket holding rank r = first b with cum[b+1] >= r
    cand = sorted({int(np.searchsorted(cum[1:], r)) for r in ranks})
    cand_arr = np.asarray(cand, dtype=np.int64)
    cand_ref = ray.put(cand_arr)

    class CandValues:
        def __init__(self, ref):
            self.cand = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            v = t.column(col).to_numpy(zero_copy_only=False)
            v = v[~np.isnan(v)]
            if transform is not None:
                v = transform(v)
            b = bucket_of(v)
            keep = np.isin(b, self.cand)
            u, c = np.unique(v[keep], return_counts=True)
            return pa.table(
                {"value": pa.array(u, pa.float64()),
                 "cnt": pa.array(c.astype(np.int64), pa.int64())}
            )

    p3 = (
        ds.map_batches(
            _task_state(lambda: CandValues(cand_ref)),
            batch_format="pyarrow",
        )
        .to_pandas()
        .groupby("value", sort=True)["cnt"]
        .sum()
    )
    vals = p3.index.to_numpy()
    out = {}
    for r in ranks:
        b = int(np.searchsorted(cum[1:], r))
        # global cumulative of value x = cum[bucket(x)] (exact rows in
        # buckets below, from the histogram) + rank of x within bucket
        below = cum[b]
        in_bucket = (bucket_of(vals) == b)
        bvals = vals[in_bucket]
        bcnt = p3.to_numpy()[in_bucket]
        bcum = np.cumsum(bcnt)
        k = int(np.searchsorted(bcum, r - below))
        out[r] = float(bvals[k])
    return n, out


def entropy_by_source(sf_dir: str):
    """Shannon entropy (bits) of the token-id distribution per source
    over the decoded corpus — the vocabulary-diversity signal a data
    mixer uses to weight sources. One streaming scan produces
    (source-code << 32 | tok) packed count partials (the tfidf_topk
    recipe); the merged table is vocabulary x sources sized, and the
    entropy H = log2(N) - sum(c*log2 c)/N folds per source on the
    driver. Matches DuckDB's entropy() aggregate (log base 2).
    Shares the memoized vocab-profile scan with nucleus_coverage /
    zipf_slope / kl_divergence."""
    agg = _source_token_counts(sf_dir)
    out = []
    for s, sub in agg.groupby("source", sort=True):
        n = sub["n"].to_numpy(dtype=np.float64)
        total = n.sum()
        h = np.log2(total) - float((n * np.log2(n)).sum()) / total
        out.append((s, round(float(h), 6)))
    return pd.DataFrame(
        {"source": [s for s, _ in out], "ent": [e for _, e in out]}
    )


def inverted_index(sf_dir: str, k: int = 10, min_df: int = 2):
    """Posting lists for the k RAREST tokens (df >= min_df, ties by
    token id) over the decoded corpus — the inverted-index build a
    retrieval pipeline runs, restricted to a bounded slice so the
    output (and the driver merge) stays postings-sized. Pass 1 is the
    token_docfreq partial scan picking the target tokens; pass 2
    re-scans with the broadcast token set and collects (tok, doc_id)
    pairs deduped per document inside each block."""
    import ray

    from ..pipelines.decode import decode_dataset
    from ..pipelines.flagship import ensure_encoded

    _, enc = ensure_encoded(sf_dir)
    ds = decode_dataset(enc, columns=["doc_id", "tokens"])

    def df_partial(t: pa.Table) -> pa.Table:
        col = t.column("tokens").combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        if flat.size == 0:
            return pa.table(
                {"tok": pa.array([], pa.int64()),
                 "df": pa.array([], pa.int64())}
            )
        offs = col.offsets.to_numpy(zero_copy_only=False)
        row = np.repeat(
            np.arange(len(offs) - 1, dtype=np.int64), np.diff(offs)
        )
        uk = np.unique((row << np.int64(32)) | flat)
        tok = (uk & np.int64(0xFFFFFFFF)).astype(np.int64)
        cnt = np.bincount(tok)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {"tok": pa.array(nz, pa.int64()),
             "df": pa.array(cnt[nz], pa.int64())}
        )

    from .groupagg import merge_partials

    dfs = merge_partials(
        ds.map_batches(df_partial, batch_format="pyarrow"),
        ["tok"], {"df": "sum"},
    )
    pick = (
        dfs[dfs["df"] >= min_df]
        .sort_values(["df", "tok"])
        .head(k)["tok"]
        .to_numpy(dtype=np.int64)
    )
    pick_sorted = np.sort(pick)
    pick_ref = ray.put(pick_sorted)

    class CollectPostings:
        def __init__(self, ref):
            self.toks = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            col = t.column("tokens").combine_chunks()
            flat = col.flatten().to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            if flat.size == 0:
                return pa.table(
                    {"tok": pa.array([], pa.int64()),
                     "doc_id": pa.array([], pa.string())}
                )
            offs = col.offsets.to_numpy(zero_copy_only=False)
            row = np.repeat(
                np.arange(len(offs) - 1, dtype=np.int64), np.diff(offs)
            )
            hit = np.isin(flat, self.toks)
            pairs = np.unique(
                (row[hit] << np.int64(32)) | flat[hit]
            )
            docs = t.column("doc_id").to_numpy(zero_copy_only=False)
            return pa.table(
                {"tok": pa.array(
                    pairs & np.int64(0xFFFFFFFF), pa.int64()),
                 "doc_id": pa.array(
                     docs[pairs >> np.int64(32)], pa.string())}
            )

    posts = (
        ds.map_batches(
            _task_state(lambda: CollectPostings(pick_ref)),
            batch_format="pyarrow",
        )
        .to_pandas()  # postings-bounded: k rare tokens only
        .drop_duplicates(["tok", "doc_id"])
    )
    out = (
        posts.sort_values(["tok", "doc_id"])
        .groupby("tok", sort=True)["doc_id"]
        .agg(",".join)
        .reset_index()
        .rename(columns={"doc_id": "postings"})
    )
    out["tok"] = out["tok"].astype("int64")
    return out


def bigram_pmi(sf_dir: str, min_count: int = 5, top: int = 15):
    """Top bigram collocations by pointwise mutual information over
    the decoded token corpus — the phrase-mining pass (PMI =
    ln(P(ab) / (P(a)P(b))), bigrams within a document only, count >=
    ``min_count``). ONE streaming scan emits BOTH unigram and bigram
    count partials (typ-tagged packed keys); the merge is
    vocabulary/bigram-vocabulary sized, and scoring is vectorized on
    the merged frame. Ranking uses the ROUNDED score (6 dp) with
    (a, b) tiebreak so the order reproduces across engines."""
    from ..pipelines.decode import decode_dataset
    from ..pipelines.flagship import ensure_encoded

    _, enc = ensure_encoded(sf_dir)
    ds = decode_dataset(enc, columns=["tokens"])

    empty = pa.table(
        {"typ": pa.array([], pa.int8()),
         "key": pa.array([], pa.int64()),
         "n": pa.array([], pa.int64())}
    )

    def partial(t: pa.Table) -> pa.Table:
        col = t.column("tokens").combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        if flat.size == 0:
            return empty
        offs = col.offsets.to_numpy(zero_copy_only=False)
        offs = offs - offs[0]
        ucnt = np.bincount(flat)
        unz = np.flatnonzero(ucnt)
        # bigrams: consecutive positions within the same row
        last_of_row = np.zeros(flat.size, dtype=bool)
        lens = np.diff(offs)
        ends = offs[1:][lens > 0] - 1
        last_of_row[ends] = True
        a = flat[:-1][~last_of_row[:-1]]
        b = flat[1:][~last_of_row[:-1]]
        bkey, bcnt = np.unique((a << np.int64(32)) | b, return_counts=True)
        return pa.table(
            {"typ": pa.array(
                np.concatenate(
                    [np.zeros(unz.size, np.int8), np.ones(bkey.size, np.int8)]
                ), pa.int8()),
             "key": pa.array(np.concatenate([unz, bkey]), pa.int64()),
             "n": pa.array(
                 np.concatenate([ucnt[unz], bcnt]), pa.int64())}
        )

    from .groupagg import merge_partials

    # bigram partials are corpus-scaled (block token count per
    # block), never driver-sized: go straight to the sort merge —
    # auto's streaming probe would pull blocks to the driver only to
    # bail (measured 3.5 s -> 330 s when it folded them instead)
    agg = merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["typ", "key"], {"n": "sum"}, mode="sort",
    )
    uni = agg[agg["typ"] == 0]
    bi = agg[agg["typ"] == 1]
    n_uni = float(uni["n"].sum())
    n_bi = float(bi["n"].sum())
    ucount = dict(zip(uni["key"].astype("int64"), uni["n"].astype("float64")))
    bi = bi[bi["n"] >= min_count]
    a = (bi["key"].to_numpy(dtype=np.int64) >> np.int64(32))
    b = bi["key"].to_numpy(dtype=np.int64) & np.int64(0xFFFFFFFF)
    ca = np.array([ucount[int(x)] for x in a])
    cb = np.array([ucount[int(x)] for x in b])
    c_ab = bi["n"].to_numpy(dtype=np.float64)
    pmi = np.round(
        np.log((c_ab / n_bi) / ((ca / n_uni) * (cb / n_uni))), 6
    )
    out = pd.DataFrame(
        {"a": a.astype("int64"), "b": b.astype("int64"),
         "n": bi["n"].to_numpy(dtype=np.int64), "pmi": pmi}
    )
    return (
        out.sort_values(["pmi", "a", "b"], ascending=[False, True, True])
        .head(top)
        .reset_index(drop=True)
    )


def mad_value(sf_dir: str, table: str = "events", col: str = "value"):
    """Median absolute deviation (DuckDB mad(): continuous median of
    |x - continuous-median(x)|) — the robust dispersion statistic a
    quality-filter pipeline prefers over stddev on heavy-tailed value
    columns.

    Scale shape: two CHAINED zero-sort rank selections, fused
    (VERDICT r03 #7). The column is NaN-filtered once and cached
    (materialize of a single pruned float column — object-store
    scale, spills if needed), so parquet is read ONCE; min/max + count
    ride that same caching pass as side partials. Selection two's
    bounds are derived, not scanned: |x - med| spans
    [0, max(mx - med, med - mn)] and the count is unchanged, so its
    min/max pass disappears. Total: 1 parquet read + 4 in-memory
    scans (hist + candidates, twice) — was 6 full parquet scans —
    each reducing to scalar-sized partials; no sort, no corpus
    exchange, O(4096) driver state per pass."""
    import ray
    import ray.data

    def med_ranks(n: int) -> list[int]:
        pos = (n - 1) * 0.5
        return [int(np.floor(pos)) + 1, int(np.ceil(pos)) + 1]

    def interp(n: int, rank_value: dict) -> float:
        pos = (n - 1) * 0.5
        lo, hi = int(np.floor(pos)) + 1, int(np.ceil(pos)) + 1
        vlo, vhi = rank_value[lo], rank_value[hi]
        return float(vlo + (pos - np.floor(pos)) * (vhi - vlo))

    raw = ray.data.read_parquet(
        os.path.join(sf_dir, f"{table}.parquet"), columns=[col]
    )

    def clean(t: pa.Table) -> pa.Table:
        v = t.column(col).to_numpy(zero_copy_only=False).astype(
            np.float64, copy=False
        )
        v = v[~np.isnan(v)]
        if v.size == 0:
            return pa.table(
                {col: pa.array([], pa.float64()),
                 "__mn": pa.array([], pa.float64()),
                 "__mx": pa.array([], pa.float64())}
            )
        # per-block min/max ride as two scalar columns padded with
        # NaN — one materializing pass yields the cached clean column
        # AND the pass-1 stats (scan fusion)
        mn = np.full(v.size, np.nan)
        mx = np.full(v.size, np.nan)
        mn[0], mx[0] = v.min(), v.max()
        return pa.table(
            {col: pa.array(v, pa.float64()),
             "__mn": pa.array(mn, pa.float64()),
             "__mx": pa.array(mx, pa.float64())}
        )

    cached = raw.map_batches(clean, batch_format="pyarrow").materialize()
    from ray.data.aggregate import Count, Max, Min

    agg = cached.aggregate(Min("__mn"), Max("__mx"), Count())
    n = int(agg["count()"])
    if n == 0:
        return pd.DataFrame({"med": [np.nan], "mad": [np.nan]})
    mn, mx = float(agg["min(__mn)"]), float(agg["max(__mx)"])
    ds = cached.drop_columns(["__mn", "__mx"])
    n1, rv = _rank_select_ds(ds, col, med_ranks, stats=(n, mn, mx))
    med = interp(n1, rv)
    n2, rv2 = _rank_select_ds(
        ds, col, med_ranks,
        transform=lambda v, m=med: np.abs(v - m),
        stats=(n, 0.0, max(mx - med, med - mn)),
    )
    mad = interp(n2, rv2)
    return pd.DataFrame(
        {"med": [round(med, 6)], "mad": [round(mad, 6)]}
    )


def source_vocab_jaccard(sf_dir: str):
    """Pairwise Jaccard similarity of token-id VOCABULARIES between
    sources — the corpus-overlap matrix a data mixer consults before
    weighting or merging sources (near-identical vocabularies suggest
    near-identical crawls).

    Scale shape: the distinct (source, tok) pairs are exactly the
    rows of the shared memoized vocab profile (occurrence counts
    ignored), so this costs zero extra scans after any profile
    consumer has run. Pairwise intersections run on the merged frame
    with per-source sorted id arrays + np.intersect1d: O(S^2) pairs
    x O(V log V), driver-side because S is small (dozens) and V is
    vocabulary-bounded — the same footprint the output necessarily
    has. Zero-intersection pairs are omitted (matching the SQL
    inner-join shape)."""
    agg = _source_token_counts(sf_dir)
    vocab = {
        s: np.sort(sub["tok"].to_numpy(dtype=np.int64))
        for s, sub in agg.groupby("source", sort=True)
    }
    srcs = sorted(vocab)
    rows = []
    for i, a in enumerate(srcs):
        for b in srcs[i + 1:]:
            inter = np.intersect1d(
                vocab[a], vocab[b], assume_unique=True
            ).size
            if inter == 0:
                continue
            union = vocab[a].size + vocab[b].size - inter
            rows.append((a, b, round(inter / union, 6)))
    return pd.DataFrame(
        {"src_a": [r[0] for r in rows],
         "src_b": [r[1] for r in rows],
         "jaccard": np.array([r[2] for r in rows], dtype=np.float64)}
    )


_VOCAB_PROFILE_CACHE: dict = {}


def _source_token_counts(sf_dir: str) -> pd.DataFrame:
    """(source, tok, n) occurrence counts over the decoded corpus —
    the shared vocabulary-profile input of nucleus_coverage /
    zipf_slope / kl_divergence. One streaming scan of packed
    (source-code << 32 | tok) partials merged by groupagg; the result
    is vocabulary x sources sized (summary-scaled), so it is memoized
    per encoded dir — the three consumers pay ONE corpus scan between
    them instead of three (the inputs are immutable per dir)."""
    from ..pipelines.decode import decode_dataset
    from ..pipelines.flagship import ensure_encoded

    _, enc = ensure_encoded(sf_dir)
    if enc in _VOCAB_PROFILE_CACHE:
        return _VOCAB_PROFILE_CACHE[enc]
    ds = decode_dataset(enc, columns=["source", "tokens"])

    empty = pa.table(
        {"source": pa.array([], pa.string()),
         "tok": pa.array([], pa.int64()),
         "n": pa.array([], pa.int64())}
    )

    def partial(t: pa.Table) -> pa.Table:
        col = t.column("tokens").combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        if flat.size == 0:
            return empty
        offs = col.offsets.to_numpy(zero_copy_only=False)
        src = t.column("source").to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(src)
        row_code = np.repeat(codes.astype(np.int64), np.diff(offs))
        key, cnt = np.unique((row_code << np.int64(32)) | flat,
                             return_counts=True)
        return pa.table(
            {"source": pa.array(uniq[key >> np.int64(32)], pa.string()),
             "tok": pa.array(key & np.int64(0xFFFFFFFF), pa.int64()),
             "n": pa.array(cnt, pa.int64())}
        )

    from .groupagg import merge_partials

    prof = merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source", "tok"], {"n": "sum"},
    )
    _VOCAB_PROFILE_CACHE.clear()  # hold ONE profile (dirs are rare)
    _VOCAB_PROFILE_CACHE[enc] = prof
    return prof


def nucleus_coverage(sf_dir: str, p: float = 0.9):
    """Per-source nucleus size: how many DISTINCT token ids (taken
    most-frequent-first, tok-ascending tie-break) cover >= p of the
    source's total token mass — the vocabulary-concentration signal
    a tokenizer/mixture audit reads (top-p a la nucleus sampling,
    applied to corpus statistics). The minimal prefix length equals
    the count of tokens whose EXCLUSIVE cumulative mass is still
    below p*total, which is how the SQL window oracle states it.
    Per-source fold runs on the merged vocab profile (summary-scaled,
    never corpus-scaled)."""
    agg = _source_token_counts(sf_dir)
    out_s, out_n = [], []
    for s, sub in agg.groupby("source", sort=True):
        n = sub["n"].to_numpy(np.int64)
        tok = sub["tok"].to_numpy(np.int64)
        o = np.lexsort((tok, -n))
        ns = n[o]
        cum = np.cumsum(ns)
        need = int(np.count_nonzero((cum - ns) < p * float(n.sum())))
        out_s.append(s)
        out_n.append(need)
    return pd.DataFrame(
        {"source": out_s, "n_tokens": pd.array(out_n, dtype="int64")}
    )


def zipf_slope(sf_dir: str):
    """Per-source Zipf exponent: the least-squares slope of
    ln(frequency) on ln(rank) over the source's token frequency
    table (rank = most-frequent-first row number, tok tie-break) —
    a corpus-health fingerprint (natural text tracks slope ~= -1;
    synthetic or degenerate sources drift). Closed-form fit on the
    merged vocab profile; 6-dp rounding on both sides absorbs
    summation-order float drift (regression_by_group precedent)."""
    agg = _source_token_counts(sf_dir)
    out_s, out_m = [], []
    for s, sub in agg.groupby("source", sort=True):
        n = sub["n"].to_numpy(np.int64)
        tok = sub["tok"].to_numpy(np.int64)
        o = np.lexsort((tok, -n))
        y = np.log(n[o].astype(np.float64))
        x = np.log(np.arange(1, y.size + 1, dtype=np.float64))
        m = float(y.size)
        denom = m * (x * x).sum() - x.sum() ** 2
        slope = (
            (m * (x * y).sum() - x.sum() * y.sum()) / denom
            if denom != 0.0
            else 0.0
        )
        out_s.append(s)
        out_m.append(round(slope, 6))
    return pd.DataFrame({"source": out_s, "slope": out_m})


def kl_divergence(sf_dir: str):
    """Per-source KL divergence (nats) of the source's token-id
    distribution from the CORPUS distribution — the mixture-weighting
    signal a data curator reads next to entropy_by_source (how far
    each source's unigram profile sits from the blend it feeds).
    KL(p_s || p) = sum_t p_s(t) * ln(p_s(t) / p(t)); p_s(t) > 0
    implies p(t) > 0 (the corpus includes the source), so every term
    is finite. One corpus scan (the shared vocab-profile partials);
    the fold runs on the merged summary-scaled table. 6-dp rounding
    on both sides absorbs summation-order float drift."""
    agg = _source_token_counts(sf_dir)
    gtok = agg.groupby("tok", sort=False)["n"].sum()
    grand = float(agg["n"].sum())
    out_s, out_k = [], []
    for s, sub in agg.groupby("source", sort=True):
        n = sub["n"].to_numpy(np.float64)
        total = n.sum()
        ps = n / total
        p = gtok.loc[sub["tok"]].to_numpy(np.float64) / grand
        out_s.append(s)
        out_k.append(round(float((ps * np.log(ps / p)).sum()), 6))
    return pd.DataFrame({"source": out_s, "kl": out_k})


def vocab_remap_stage(ds, keep: np.ndarray, unk: int = -1):
    """Broadcast-table vocabulary remap stage: token ids present in
    the SORTED ``keep`` table pass through, everything else collapses
    to ``unk`` — the vocabulary-pruning / UNK-folding step a tokenized
    corpus pays before training against a reduced vocab.

    Scale shape: zero exchange. ``keep`` is a small sorted int64
    array captured in the task closure (vocabulary-sized, broadcast
    once per worker by Ray's task serialization); each Arrow batch is
    remapped with one flatten + searchsorted membership test + where,
    and the list column is rebuilt zero-copy on the same offsets."""
    keep = np.sort(np.asarray(keep, dtype=np.int64))

    def remap(t: pa.Table) -> pa.Table:
        col = t.column("tokens").combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        rel = offs - offs[0]
        pos = np.searchsorted(keep, flat)
        member = np.zeros(flat.size, dtype=bool)
        inb = pos < keep.size
        member[inb] = keep[pos[inb]] == flat[inb]
        out = np.where(member, flat, np.int64(unk)).astype(np.int32)
        new_col = pa.ListArray.from_arrays(
            pa.array(rel, pa.int32()), pa.array(out, pa.int32())
        )
        i = t.schema.get_field_index("tokens")
        return t.set_column(i, "tokens", new_col)

    return ds.map_batches(remap, batch_format="pyarrow")


def vocab_remap(sf_dir: str, k: int = 512):
    """Top-k vocabulary remap checksum: remap the decoded token
    stream so only the k globally most frequent token ids survive
    (ties broken by id; everything else -> -1), then report the
    per-source remapped-id sum and UNK count — an aggregate the SQL
    oracle can cross-check, proving the remap end to end.

    The keep table derives from the memoized vocab profile (one
    corpus scan shared with token_topk / nucleus / zipf / kl); the
    remap itself is a second streaming pass through
    vocab_remap_stage over DECODED shards."""
    from ..pipelines.decode import decode_dataset
    from ..pipelines.flagship import ensure_encoded

    prof = _source_token_counts(sf_dir)
    g = prof.groupby("tok", sort=False)["n"].sum().reset_index()
    g = g.sort_values(["n", "tok"], ascending=[False, True]).head(k)
    keep = np.sort(g["tok"].to_numpy(dtype=np.int64))

    _, enc = ensure_encoded(sf_dir)
    ds = vocab_remap_stage(
        decode_dataset(enc, columns=["source", "tokens"]), keep
    )

    empty = pd.DataFrame(
        {"source": pd.Series([], dtype="object"),
         "sum_ids": pd.Series([], dtype="int64"),
         "n_unk": pd.Series([], dtype="int64")}
    )

    def partial(t: pa.Table) -> pd.DataFrame:
        if t.num_rows == 0:
            return empty
        col = t.column("tokens").combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        src = t.column("source").to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(src)
        rid = np.repeat(codes.astype(np.int64), np.diff(offs - offs[0]))
        # bincount's float64 accumulator is exact here: a block's
        # per-source id sum is << 2^53 (merge across blocks is int64)
        sums = np.bincount(
            rid, weights=flat.astype(np.float64), minlength=len(uniq)
        ).astype(np.int64)
        unks = np.bincount(
            rid, weights=(flat == -1).astype(np.float64),
            minlength=len(uniq),
        ).astype(np.int64)
        return pd.DataFrame(
            {"source": uniq, "sum_ids": sums, "n_unk": unks}
        )

    from .groupagg import merge_partials

    out = merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source"], {"sum_ids": "sum", "n_unk": "sum"},
    )
    return out.sort_values("source").reset_index(drop=True)


def token_ffreq(sf_dir: str):
    """Frequency-of-frequency spectrum of the token vocabulary: for
    each occurrence count n, how many DISTINCT token ids appear
    exactly n times in the corpus — the Good-Turing input table and
    the fastest smell test for tokenizer pathologies (a fat n=1 tail
    means under-trained merges; missing small-n mass means synthetic
    or deduplicated text).

    Scale shape: rides the memoized vocab profile (ONE corpus scan
    shared with token_topk / nucleus / zipf / kl / vocab_remap); the
    fold is two np.unique passes over the vocabulary-sized summary —
    never corpus-scaled, zero additional exchange."""
    agg = _source_token_counts(sf_dir)
    g = agg.groupby("tok", sort=False)["n"].sum().to_numpy(np.int64)
    n_occ, n_tokens = np.unique(g, return_counts=True)
    out = pd.DataFrame(
        {"n_occ": n_occ.astype("int64"),
         "n_tokens": n_tokens.astype("int64")}
    )
    return out.sort_values("n_occ").reset_index(drop=True)


def rare_token_docs(sf_dir: str, max_n: int = 2):
    """Per-source count of documents containing at least one RARE
    token (global occurrence count <= max_n) — the 'needs review'
    slice a corpus audit pulls before vocabulary pruning: rare ids
    are disproportionately encoding errors, boilerplate hashes and
    PII-like strings.

    Scale shape: the rare-id table comes off the memoized vocab
    profile (vocabulary-sized); it is broadcast SORTED in the task
    closure (once per worker, never per batch) and each decoded
    Arrow block is flagged with one flatten + searchsorted + prefix-
    sum segment count — no exchange beyond the tiny per-source count
    merge. The empty-list-safe per-row reduction uses cumsum deltas,
    not reduceat (reduceat misreads zero-length segments)."""
    from ..pipelines.decode import decode_dataset
    from ..pipelines.flagship import ensure_encoded

    prof = _source_token_counts(sf_dir)
    g = prof.groupby("tok", sort=False)["n"].sum()
    rare = np.sort(
        g.index.to_numpy(np.int64)[g.to_numpy(np.int64) <= max_n]
    )

    _, enc = ensure_encoded(sf_dir)
    ds = decode_dataset(enc, columns=["source", "tokens"])

    empty = pd.DataFrame(
        {"source": pd.Series([], dtype="object"),
         "n_docs": pd.Series([], dtype="int64")}
    )

    def partial(t: pa.Table) -> pd.DataFrame:
        if t.num_rows == 0:
            return empty
        col = t.column("tokens").combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        rel = offs - offs[0]
        pos = np.searchsorted(rare, flat)
        member = np.zeros(flat.size, dtype=np.int64)
        inb = pos < rare.size
        member[inb] = (rare[pos[inb]] == flat[inb]).astype(np.int64)
        cum = np.concatenate([[0], np.cumsum(member)])
        has = (cum[rel[1:]] - cum[rel[:-1]]) > 0
        src = t.column("source").to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(src)
        cnt = np.bincount(codes[has], minlength=len(uniq)).astype(np.int64)
        keep = cnt > 0
        return pd.DataFrame({"source": uniq[keep], "n_docs": cnt[keep]})

    from .groupagg import merge_partials

    out = merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source"], {"n_docs": "sum"},
    )
    return out.sort_values("source").reset_index(drop=True)


def unigram_logprob(sf_dir: str):
    """Per-source mean unigram log-probability (nats) of the token
    stream under the CORPUS unigram model — the cheapest perplexity
    proxy a data-quality pipeline scores before training (a source
    whose tokens are "surprising" to the blend stands out next to
    entropy_by_source / kl_divergence).

    Scale shape: rides the shared memoized vocab profile (ONE corpus
    scan amortized across all profile consumers); the fold —
    sum_t n_st * ln(freq_t / total) per source — runs on the
    vocabulary x sources summary table, scalar work relative to the
    scan. 6-dp rounding on both sides absorbs summation-order float
    drift (the SQL oracle averages over corpus positions, this fold
    weights the vocab rows; identical sums in exact arithmetic)."""
    agg = _source_token_counts(sf_dir)
    gtok = agg.groupby("tok", sort=False)["n"].sum()
    total = float(agg["n"].sum())
    out_s, out_n, out_lp = [], [], []
    for s, sub in agg.groupby("source", sort=True):
        n = sub["n"].to_numpy(np.float64)
        lp = np.log(gtok.loc[sub["tok"]].to_numpy(np.float64) / total)
        out_s.append(s)
        out_n.append(int(n.sum()))
        out_lp.append(round(float((n * lp).sum() / n.sum()), 6))
    return pd.DataFrame(
        {"source": out_s,
         "n_tokens": pd.array(out_n, dtype="int64"),
         "avg_logprob": pd.array(out_lp, dtype="float64")}
    )


def token_run_stats(sf_dir: str):
    """Per-source run-length structure of the token stream: total
    tokens, number of maximal equal-value runs, and mean run length —
    the statistic that decides whether RLE beats dictionary/bit-pack
    for a partition (the codec planner samples exactly this signal;
    here it is exact, corpus-wide, and oracle-checkable).

    Scale shape: zero exchange beyond a sources-sized partial merge.
    Each block flattens its token lists once; run boundaries are ONE
    vectorized != comparison over the flat stream with row starts
    forced to boundaries (list ends break runs — runs never span
    documents), then a per-source bincount."""
    from ..pipelines.decode import decode_dataset
    from ..pipelines.flagship import ensure_encoded
    from .groupagg import merge_partials

    _, enc = ensure_encoded(sf_dir)
    ds = decode_dataset(enc, columns=["source", "tokens"])

    empty = pd.DataFrame(
        {"source": pd.Series([], dtype="object"),
         "n_tokens": pd.Series([], dtype="int64"),
         "n_runs": pd.Series([], dtype="int64")}
    )

    def partial(t: pa.Table) -> pd.DataFrame:
        if t.num_rows == 0:
            return empty
        col = t.column("tokens").combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False)
        offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        rel = offs - offs[0]
        src = t.column("source").to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(src)
        lens = np.diff(rel)
        if flat.size == 0:
            cnt_tok = np.zeros(len(uniq), dtype=np.int64)
            cnt_run = np.zeros(len(uniq), dtype=np.int64)
        else:
            # a position ENDS a run iff it is the last of its list or
            # differs from its successor; per-row run count = count of
            # run-end positions in the row
            end = np.ones(flat.size, dtype=bool)
            end[:-1] = flat[1:] != flat[:-1]
            # force list boundaries: last element of every non-empty
            # row ends a run regardless of the next row's first value
            last_pos = rel[1:][lens > 0] - 1
            end[last_pos] = True
            cum = np.concatenate([[0], np.cumsum(end)])
            runs_per_row = cum[rel[1:]] - cum[rel[:-1]]
            cnt_tok = np.bincount(
                codes, weights=lens, minlength=len(uniq)
            ).astype(np.int64)
            cnt_run = np.bincount(
                codes, weights=runs_per_row, minlength=len(uniq)
            ).astype(np.int64)
        return pd.DataFrame(
            {"source": uniq, "n_tokens": cnt_tok, "n_runs": cnt_run}
        )

    out = merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source"], {"n_tokens": "sum", "n_runs": "sum"},
    )
    out = out.sort_values("source").reset_index(drop=True)
    out["avg_run_len"] = (
        out["n_tokens"] / out["n_runs"].replace(0, np.nan)
    ).round(6)
    return out


# BM25 constants (Robertson k1/b defaults; +1-inside-ln idf keeps all
# terms positive, the Lucene variant) and the fixed audit query — a
# mid/low-df token mix over the zipf vocab
BM25_K1 = 1.2
BM25_B = 0.75
BM25_QUERY = (97, 251, 1009, 4999)


def bm25_topk(sf_dir: str, top: int = 20):
    """Top-`top` documents by BM25 score against the fixed
    BM25_QUERY token set — the retrieval primitive a curation
    pipeline runs to pull training examples relevant to a probe set
    (tfidf_topk's per-document counterpart).

    Scale shape: two streaming scans of the decoded corpus. Scan 1
    folds the global sufficient statistics (N, total length, per-term
    df) into ONE summary row via per-block partials. Scan 2 scores
    only documents containing >= 1 query term (vectorized equality
    over the flat token stream, bincount per doc), keeps each block's
    top-`top` under the total (rounded-score DESC, doc_id ASC) order,
    and the driver merges blocks x top candidate rows. The corpus is
    never sorted or exchanged; the broadcast is one stats tuple."""
    from ..pipelines.decode import decode_dataset
    from ..pipelines.flagship import ensure_encoded
    from .groupagg import merge_partials

    q_toks = np.asarray(BM25_QUERY, dtype=np.int64)
    _, enc = ensure_encoded(sf_dir)

    # ---- scan 1: N, total token count, df per query term ----
    ds1 = decode_dataset(enc, columns=["tokens", "n_tok"])

    def stats_partial(t: pa.Table) -> pd.DataFrame:
        col = t.column("tokens").combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        rel = offs - offs[0]
        row = np.repeat(
            np.arange(t.num_rows, dtype=np.int64), np.diff(rel)
        )
        d = {"k": np.zeros(1, dtype=np.int64),
             "n": np.array([t.num_rows], dtype=np.int64),
             "tot": np.array(
                 [int(t.column("n_tok").to_numpy().astype(np.int64).sum())],
                 dtype=np.int64,
             )}
        for i, q in enumerate(q_toks):
            d[f"df{i}"] = np.array(
                [int(np.unique(row[flat == q]).size)], dtype=np.int64
            )
        return pd.DataFrame(d)

    st = merge_partials(
        ds1.map_batches(stats_partial, batch_format="pyarrow"),
        ["k"],
        {"n": "sum", "tot": "sum",
         **{f"df{i}": "sum" for i in range(len(q_toks))}},
    )
    n_docs = int(st["n"].iloc[0])
    avgdl = float(st["tot"].iloc[0]) / n_docs if n_docs else 1.0
    idf = np.array(
        [
            np.log(
                (n_docs - int(st[f"df{i}"].iloc[0]) + 0.5)
                / (int(st[f"df{i}"].iloc[0]) + 0.5)
                + 1.0
            )
            for i in range(len(q_toks))
        ],
        dtype=np.float64,
    )

    # ---- scan 2: per-doc tf -> score -> per-block top-k ----
    ds2 = decode_dataset(enc, columns=["doc_id", "tokens", "n_tok"])
    empty = pd.DataFrame(
        {"doc_id": pd.Series([], dtype="object"),
         "score": pd.Series([], dtype="float64")}
    )

    def score_partial(t: pa.Table) -> pd.DataFrame:
        if t.num_rows == 0:
            return empty
        col = t.column("tokens").combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        rel = offs - offs[0]
        row = np.repeat(
            np.arange(t.num_rows, dtype=np.int64), np.diff(rel)
        )
        dl = t.column("n_tok").to_numpy().astype(np.float64)
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avgdl)
        score = np.zeros(t.num_rows, dtype=np.float64)
        hit = np.zeros(t.num_rows, dtype=bool)
        for i in range(len(q_toks)):
            tf = np.bincount(
                row[flat == q_toks[i]], minlength=t.num_rows
            ).astype(np.float64)
            hit |= tf > 0
            score = score + idf[i] * (
                tf * (BM25_K1 + 1.0) / (tf + norm)
            )
        if not hit.any():
            return empty
        doc = t.column("doc_id").to_numpy(zero_copy_only=False)[hit]
        sc = np.round(score[hit], 6)
        o = np.lexsort((doc, -sc))[: min(len(doc), max(top, 64))]
        return pd.DataFrame({"doc_id": doc[o], "score": sc[o]})

    cand = ds2.map_batches(score_partial, batch_format="pyarrow").to_pandas()
    cand = cand.sort_values(
        ["score", "doc_id"], ascending=[False, True], kind="mergesort"
    )
    return cand.head(top).reset_index(drop=True)


def length_band_filter(sf_dir: str, lo_q: float = 0.05, hi_q: float = 0.95):
    """Per-source survivor counts after trimming the corpus to the
    global [p5, p95] sequence-length band — the outlier-length cut a
    training pipeline applies before packing (degenerate short docs
    and truncation-length monsters both skew loss).

    Scale shape: the band thresholds come from the zero-sort 3-pass
    histogram rank selection over the single decoded n_tok column
    (quantile_cont interpolation, DuckDB semantics — identical
    floating lerp on both sides so the integer boundary comparisons
    agree exactly); the filter + per-source count is then one
    streaming scan with the two scalars in the task closure."""
    import ray.data

    from ..pipelines.decode import decode_dataset
    from ..pipelines.flagship import ensure_encoded
    from .groupagg import merge_partials

    _, enc = ensure_encoded(sf_dir)
    col_ds = decode_dataset(enc, columns=["n_tok"]).materialize()

    qs = [lo_q, hi_q]
    n, rank_value = _rank_select_ds(col_ds, "n_tok", _cont_ranks_of(qs))
    if n == 0:
        return pd.DataFrame(
            {"source": pd.Series([], dtype="object"),
             "n": pd.Series([], dtype="int64"),
             "sum_tok": pd.Series([], dtype="int64"),
             "lo": pd.Series([], dtype="float64"),
             "hi": pd.Series([], dtype="float64")}
        )
    band = _cont_values(n, rank_value, qs)
    lo, hi = float(band[0]), float(band[1])

    ds = decode_dataset(enc, columns=["source", "n_tok"])

    def partial(t: pa.Table) -> pd.DataFrame:
        nt = t.column("n_tok").to_numpy().astype(np.float64)
        keep = (nt >= lo) & (nt <= hi)
        src = t.column("source").to_numpy(zero_copy_only=False)[keep]
        codes, uniq = pd.factorize(src)
        return pd.DataFrame(
            {"source": uniq,
             "n": np.bincount(codes, minlength=len(uniq)).astype(np.int64),
             "sum_tok": np.bincount(
                 codes, weights=nt[keep], minlength=len(uniq)
             ).astype(np.int64)}
        )

    out = merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source"], {"n": "sum", "sum_tok": "sum"},
    )
    out = out.sort_values("source").reset_index(drop=True)
    out["lo"] = round(lo, 6)
    out["hi"] = round(hi, 6)
    return out


def grouped_distinct_approx(sf_dir: str):
    """Approximate distinct USERS per event_type via per-group
    HyperLogLog — the grouped form of distinct_count_approx, and the
    constant-memory answer to "unique visitors per action" when the
    per-group user sets no longer fit an exact groupby. Rows-only
    driver check (approximate by design); accuracy vs the exact count
    is pytest-asserted at ~1.6% (4096 registers).

    Scale shape: each block emits one 4 KB register blob PER GROUP IT
    CONTAINS (groups x blocks rows, like any partial aggregate); the
    driver max-merges registers per group — O(groups) memory
    regardless of user cardinality. The registers are a semigroup
    (elementwise max), so the same partials could merge through a
    groupby at huge group counts."""
    import ray.data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "user_id"],
    )
    m = 1 << _HLL_P

    empty = pd.DataFrame(
        {"event_type": pd.Series([], dtype="object"),
         "regs": pd.Series([], dtype="object")}
    )

    def partial(t: pa.Table) -> pd.DataFrame:
        if t.num_rows == 0:
            return empty
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(et)
        bucket, rank = _hll_bucket_rank(uid)
        regs = np.zeros((len(uniq), m), dtype=np.int64)
        np.maximum.at(regs, (codes, bucket), rank)
        return pd.DataFrame(
            {"event_type": uniq,
             "regs": [r.astype(np.uint8).tobytes() for r in regs]}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out_t, out_n = [], []
    for et, sub in parts.groupby("event_type", sort=True):
        regs = np.zeros(m, dtype=np.uint8)
        for blob in sub["regs"]:
            regs = np.maximum(regs, np.frombuffer(blob, dtype=np.uint8))
        out_t.append(et)
        out_n.append(int(round(_hll_estimate(regs))))
    return pd.DataFrame(
        {"event_type": out_t,
         "n_users_approx": pd.array(out_n, dtype="int64")}
    )


def _tdigest_compress(means: np.ndarray, weights: np.ndarray,
                      delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Merge sorted (mean, weight) centroids into at most ~delta
    clusters using the t-digest size bound (Dunning & Ertl, public
    algorithm; k1 scale): a growing cluster absorbs the next centroid
    while its weight stays under the local limit
    4·N·q(1−q)/delta, which squeezes clusters toward the tails so
    extreme quantiles stay sharp. Vectorized preparation, one
    O(centroids) fold (centroids, never rows)."""
    total = float(weights.sum())
    out_m, out_w = [], []
    cur_m, cur_w = float(means[0]), float(weights[0])
    cum = 0.0  # weight fully to the left of the current cluster
    for i in range(1, means.size):
        w = float(weights[i])
        q = (cum + cur_w / 2.0) / total
        lim = 4.0 * total * q * (1.0 - q) / delta
        if cur_w + w <= max(lim, 1.0):
            cur_m += (means[i] - cur_m) * (w / (cur_w + w))
            cur_w += w
        else:
            out_m.append(cur_m)
            out_w.append(cur_w)
            cum += cur_w
            cur_m, cur_w = float(means[i]), w
    out_m.append(cur_m)
    out_w.append(cur_w)
    return np.asarray(out_m), np.asarray(out_w)


def quantiles_tdigest(sf_dir: str, qs=(0.01, 0.25, 0.5, 0.75, 0.99),
                      delta: float = 200.0):
    """Approximate quantiles of events.value via a merging t-digest —
    the mergeable-sketch companion to the HLL family: per-block
    digests are O(delta) centroids regardless of row count, the
    driver merge is O(blocks x delta), and rank error concentrates
    away from the tails by construction. Rows-only driver check
    (approximate by design); rank accuracy vs the exact quantiles is
    pytest-asserted.

    Scale shape: one streaming scan; each block sorts ITS OWN values
    once (block-bounded memory) and compresses to <= ~delta
    centroids; no exchange — the centroid partials stream to a
    driver-side sorted merge + final compression. Contrast with
    quantiles()/quantiles_cont(): those are EXACT via 3 histogram
    passes; the digest pays ONE pass and answers every q after."""
    import ray.data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["value"]
    )

    empty = pd.DataFrame(
        {"mean": pd.Series([], dtype="float64"),
         "weight": pd.Series([], dtype="float64")}
    )

    def partial(t: pa.Table) -> pd.DataFrame:
        v = t.column("value").to_numpy(zero_copy_only=False)
        v = np.sort(v[~np.isnan(v)])
        if v.size == 0:
            return empty
        m, w = _tdigest_compress(
            v, np.ones(v.size, dtype=np.float64), delta
        )
        return pd.DataFrame({"mean": m, "weight": w})

    cents = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if cents.empty:
        return pd.DataFrame({"q": list(qs), "value_approx": np.nan})
    o = np.argsort(cents["mean"].to_numpy(), kind="mergesort")
    m, w = _tdigest_compress(
        cents["mean"].to_numpy()[o], cents["weight"].to_numpy()[o], delta
    )
    # quantile lookup: centroid k covers cumulative-weight midpoint
    # (cum_k + w_k/2); linear interpolation between midpoints
    cum = np.cumsum(w) - w / 2.0
    total = w.sum()
    vals = []
    for q in qs:
        target = q * total
        vals.append(round(float(np.interp(target, cum, m)), 6))
    return pd.DataFrame(
        {"q": np.asarray(qs, dtype=np.float64),
         "value_approx": np.asarray(vals, dtype=np.float64)}
    )
