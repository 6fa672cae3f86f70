"""Deduplication operators over the documents table — exact, MinHash+
LSH near-dup, SimHash, n-gram Jaccard verification. The reference has
no dedup (SURVEY.md §2.8); these are the training-data-pipeline ops
the north star requires, built on the canonical Ray patterns:
hash -> groupby for exact; shingle -> minhash -> band-bucket groupby ->
candidate pairs -> verify for near-dup.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pandas as pd

from .pool import task_state as _task_state

_SEED = np.uint64(0x9E3779B97F4A7C15)
_PRIME = np.uint64(1099511628211)


def _docs(sf_dir: str, columns=None):
    import ray.data

    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=columns
    )


# 128-bit content key for dedup shuffles: two independent vectorized
# 64-bit siphashes (pandas hash_array, stable across processes). The
# shuffle is keyed on these 16 bytes instead of the full text, so the
# exchange moves ~key+id-sized rows, not the corpus (VERDICT r02 #2).
# Collision odds at 2^-128 make hash-grouping ≡ text-grouping.
_HK1 = "fpray_dedup_h1_a"  # hash_array keys must be exactly 16 chars
_HK2 = "fpray_dedup_h2_b"


def _text_hash128(texts) -> tuple[np.ndarray, np.ndarray]:
    obj = np.asarray(texts, dtype=object)
    h1 = pd.util.hash_array(obj, hash_key=_HK1).view(np.int64)
    h2 = pd.util.hash_array(obj, hash_key=_HK2).view(np.int64)
    return h1, h2


def dedup_exact(sf_dir: str):
    """Exact dedup: keep the smallest doc_id per distinct text (SURVEY
    §2.8). Returns one row per distinct text with the survivor id and
    duplicate count.

    Scale shape: duplicates collapse block-locally first (Arrow
    group_by on the 128-bit text hash), then ONE exchange keyed on the
    16-byte hash — the text rides as payload at most once per (block,
    distinct text) and is never a shuffle key. Identical texts make any
    group representative valid, so Min(text) is exact."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Min, Sum

    ds = _docs(sf_dir, ["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        h1, h2 = _text_hash128(t.column("text").to_pandas().to_numpy(dtype=object))
        tt = pa.table(
            {
                "h1": h1,
                "h2": h2,
                "doc_id": t.column("doc_id"),
                "text": t.column("text"),
            }
        )
        g = tt.group_by(["h1", "h2"]).aggregate(
            [("doc_id", "min"), ("doc_id", "count"), ("text", "min")]
        )
        return g.rename_columns(["h1", "h2", "keep_id", "n", "text"])

    parts = ds.map_batches(partial, batch_format="pyarrow")
    agg = parts.groupby(["h1", "h2"]).aggregate(
        Min("keep_id", alias_name="keep_id"),
        Sum("n", alias_name="n_dups"),
        Min("text", alias_name="text"),
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "text": t.column("text"),
                "keep_id": t.column("keep_id").cast(pa.int64()),
                "n_dups": t.column("n_dups").cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def corpus_clean(sf_dir: str):
    """The composed training-data cleaning pipeline: exact dedup (keep
    the smallest doc_id per distinct text) -> quality heuristics
    (word-count bounds + average word length band, same rules as
    textops.quality_filter) -> per-source survivor counts.

    Scale shape: per-row features (words, chars, source) are computed
    BEFORE the exchange and packed into a doc_id-prefixed tag string,
    so the one shuffle is keyed on the 16-byte text hash and moves
    ~60-byte rows — never the text (VERDICT r02 #2). Min(tag) ==
    the min-doc_id survivor's features (zero-padded id prefix)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Min, Sum

    ds = _docs(sf_dir, ["doc_id", "text", "source", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pandas().to_numpy(dtype=object)
        h1, h2 = _text_hash128(texts)
        words = pc.add(pc.count_substring(t.column("text"), " "), 1).cast(
            pa.int64()
        )
        # survivor tag: zero-padded doc_id sorts lexicographically like
        # the integer (doc_id >= 0), so Min picks the min-id row; \x00
        # separators and source LAST make parsing unambiguous
        tag = pc.binary_join_element_wise(
            pc.utf8_lpad(
                pc.cast(t.column("doc_id"), pa.string()), 20, padding="0"
            ),
            pc.cast(words, pa.string()),
            pc.cast(t.column("n_chars").cast(pa.int64()), pa.string()),
            t.column("source"),
            "\x00",
        )
        tt = pa.table({"h1": h1, "h2": h2, "tag": tag})
        g = tt.group_by(["h1", "h2"]).aggregate(
            [("tag", "min"), ("tag", "count")]
        )
        return g.rename_columns(["h1", "h2", "tag", "n"])

    parts = ds.map_batches(partial, batch_format="pyarrow")
    agg = parts.groupby(["h1", "h2"]).aggregate(
        Min("tag", alias_name="tag"), Sum("n", alias_name="n")
    )

    def quality_counts(t: pa.Table) -> pa.Table:
        parts_ = pc.split_pattern(t.column("tag"), "\x00", max_splits=3)
        flat = parts_.combine_chunks().flatten() if isinstance(
            parts_, pa.ChunkedArray
        ) else parts_.flatten()
        f = flat.to_numpy(zero_copy_only=False).reshape(-1, 4)
        words = f[:, 1].astype(np.int64)
        chars = f[:, 2].astype(np.int64)
        source = f[:, 3]
        awl = chars / np.maximum(words, 1)
        keep = (words >= 10) & (words <= 2000) & (awl >= 3.0) & (awl <= 12.0)
        kept = pa.table({"source": pa.array(source[keep], pa.string())})
        g = kept.group_by(["source"]).aggregate([("source", "count")])
        return g.rename_columns(["source", "n_kept"])

    survivors = agg.map_batches(quality_counts, batch_format="pyarrow")
    out = survivors.groupby("source").aggregate(Sum("n_kept", alias_name="n_kept"))

    def finish(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.schema.get_field_index("n_kept"),
            "n_kept",
            t.column("n_kept").cast(pa.int64()),
        )

    return out.map_batches(finish, batch_format="pyarrow")


def _word_shingles(texts: list[str], k: int = 3) -> list[np.ndarray]:
    """Per text: uint64 hashes of word k-shingles. Shingle hashing is
    vectorized (pandas hash_array, stable across processes); only the
    shingle-string construction is per doc. split(' ') exactly — the
    same tokenization DuckDB's string_split uses, so the exact-Jaccard
    oracle reproduces the verify step bit for bit."""
    all_shingles: list[str] = []
    counts: list[int] = []
    for t in texts:
        words = t.split(" ")
        if len(words) < k:
            sh = [" ".join(words)] if words else []
        else:
            sh = [" ".join(words[i : i + k]) for i in range(len(words) - k + 1)]
        all_shingles.extend(sh)
        counts.append(len(sh))
    if all_shingles:
        hs = pd.util.hash_array(
            np.array(all_shingles, dtype=object)
        ).astype(np.uint64)
    else:
        hs = np.empty(0, dtype=np.uint64)
    out = []
    pos = 0
    for c in counts:
        out.append(np.unique(hs[pos : pos + c]))
        pos += c
    return out


class MinHasher:
    """k=64 minhash signatures via universal hashing over shingle
    hashes — vectorized per doc; the permutation constants are built
    once per actor. When ``bands``/``rows_per_band`` are given the
    actor FUSES banding: it emits the exploded (bkey, doc_id) LSH
    bucket rows directly as an Arrow table, so the 512 B/doc signature
    bytes never cross a stage boundary and no per-row
    frombuffer/tobytes loop runs (VERDICT r03 #6 Arrow-native port;
    A/B numbers in NEXT.md)."""

    def __init__(
        self,
        num_hashes: int = 64,
        shingle_k: int = 3,
        bands: int | None = None,
        rows_per_band: int | None = None,
    ):
        rng = np.random.default_rng(42)
        self.a = rng.integers(1, 2**61, num_hashes, dtype=np.uint64) | np.uint64(1)
        self.b = rng.integers(0, 2**61, num_hashes, dtype=np.uint64)
        self.k = shingle_k
        self.num = num_hashes
        if bands is not None:
            assert bands * rows_per_band == num_hashes
        self.bands = bands
        self.rpb = rows_per_band

    def signature(self, shingles: np.ndarray) -> np.ndarray:
        if shingles.size == 0:
            return np.full(self.num, np.iinfo(np.uint64).max, dtype=np.uint64)
        # (num_hashes, n_shingles) universal hashes, row-min
        vals = (
            self.a[:, None] * shingles[None, :] + self.b[:, None]
        )  # uint64 wraparound
        return vals.min(axis=1)

    def _sig_matrix(self, texts: list) -> np.ndarray:
        shingles = _word_shingles(texts, self.k)
        return np.stack([self.signature(s) for s in shingles])

    def __call__(self, t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"bkey": pa.array([], pa.int64()),
                 "doc_id": pa.array([], pa.int64())}
            )
        sig = self._sig_matrix(t.column("text").to_pylist())
        doc_ids = (
            t.column("doc_id").combine_chunks().cast(pa.int64()).to_numpy()
        )
        n = sig.shape[0]
        bks = np.empty((n, self.bands), dtype=np.int64)
        for b in range(self.bands):
            chunk = sig[:, b * self.rpb : (b + 1) * self.rpb]
            h = chunk.sum(axis=1, dtype=np.uint64)  # wraparound ok
            bks[:, b] = (
                (h * np.uint64(131) + np.uint64(b)) % np.uint64(2**63)
            ).astype(np.int64)
        return pa.table(
            {"bkey": pa.array(bks.reshape(-1), pa.int64()),
             "doc_id": pa.array(np.repeat(doc_ids, self.bands), pa.int64())}
        )


# above this size an LSH bucket emits star pairs (each member paired
# with the bucket's min id) instead of all pairs: a degenerate bucket
# of N near-identical docs yields N-1 candidates, not N^2/2, and the
# star still spans the duplicate cluster (what dedup consumes is the
# connected component; VERDICT r02 #3)
MAX_BUCKET_ALL_PAIRS = 64


def _multi_bucket_keys(
    ds, key_col: str, weight_col: str | None = None
) -> np.ndarray:
    """EXACT multi-member bucket discovery WITHOUT a per-group
    aggregate. Ray's groupby().aggregate() pays ~0.7 ms of per-group
    apply overhead (measured: 60k distinct keys = 40 s on 16 CPUs),
    which is unusable at bucket-key cardinality. Instead: ONE
    vectorized range sort, then a per-block np.unique pass — a key is
    multi-member iff its within-block count >= 2 OR it is a
    block-boundary key (first/last of a sorted block: the only way a
    bucket can span blocks, since sorted runs are contiguous). The
    driver receives only candidate multi-keys plus 2 keys per block
    and resolves boundary counts by summation — exact. ~100x faster
    than the aggregate at sf0.1 cardinalities.

    ``weight_col``: rows are pre-collapsed (key, count) partials
    rather than one row per member — membership counts are the SUM of
    weights, shrinking the sort exchange by the input's per-block
    duplication factor."""
    srt = ds.sort(key_col)

    def summarize(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_numpy(zero_copy_only=False)
        if keys.size == 0:
            return pa.table(
                {"key": pa.array([], pa.int64()),
                 "n": pa.array([], pa.int64())}
            )
        if weight_col is None:
            u, c = np.unique(keys, return_counts=True)
        else:
            w = t.column(weight_col).to_numpy(zero_copy_only=False)
            u, inv = np.unique(keys, return_inverse=True)
            c = np.bincount(inv, weights=w).astype(np.int64)
        keep = (c >= 2) | (u == keys[0]) | (u == keys[-1])
        return pa.table(
            {"key": pa.array(u[keep], pa.int64()),
             "n": pa.array(c[keep].astype(np.int64), pa.int64())}
        )

    parts = srt.map_batches(
        summarize, batch_format="pyarrow", batch_size=None
    ).to_pandas()  # bounded: multi-keys + 2 keys per block
    if parts.empty:
        return np.empty(0, dtype=np.int64)
    tot = parts.groupby("key", sort=True)["n"].sum()
    return np.asarray(tot.index[tot.to_numpy() >= 2], dtype=np.int64)


def _pairs_in_buckets(ds, key_col: str, star_cap: int | None = None):
    """Distinct candidate pairs from same-bucket co-membership.
    ``ds``: columns [key_col int64, doc_id int64]. Buckets are almost
    all singletons in both LSH banding and prefix filtering, so the
    expensive per-group apply is run ONLY on true multi-member buckets:
    _multi_bucket_keys (sort + vectorized pass) finds them, a broadcast
    searchsorted filter keeps their rows, and groupby().map_groups
    touches just those groups. ``star_cap``: past this bucket size emit
    star pairs against the min id instead of all pairs (LSH semantics;
    None = exact all-pairs). Returns a Dataset of distinct
    (id_a, id_b); None when no bucket has 2 members."""
    import ray

    multi = _multi_bucket_keys(ds, key_col)
    if multi.size == 0:
        return None
    multi_ref = ray.put(multi)  # sorted int64, bounded by true buckets

    class KeepBuckets:
        def __init__(self, ref):
            self.keys = ray.get(ref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            v = df[key_col].to_numpy()
            idx = np.searchsorted(self.keys, v)
            idx[idx == self.keys.size] = 0
            return df[self.keys[idx] == v]

    bucket_rows = ds.map_batches(
        _task_state(lambda: KeepBuckets(multi_ref)),
        batch_format="pandas",
    )

    def _run_pairs(run_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        run = np.unique(run_ids)
        m = run.size
        if m < 2:
            e = np.empty(0, np.int64)
            return e, e
        if star_cap is not None and m > star_cap:
            return np.full(m - 1, run[0], dtype=np.int64), run[1:]
        iu = np.triu_indices(m, 1)
        return run[iu[0]], run[iu[1]]

    # Pair expansion WITHOUT a per-group apply: after the range sort a
    # bucket's rows are contiguous, so each block expands its INTERIOR
    # runs (keys that are neither the block's first nor last key — such
    # a key lives entirely in this block) with vectorized triu combos,
    # and routes first/last-key rows to a driver fix-up bounded by
    # 2 keys x bucket-size per block. A key interior anywhere is never
    # a block edge anywhere (equal keys are globally contiguous), so
    # each bucket is expanded exactly once — replacing the former
    # groupby().map_groups whose ~0.7 ms/group apply dominated the
    # pipeline at 10k+ bucket cardinality (measured 12 s -> <1 s at
    # sf0.1), and removing the cross-block duplicate residue with it.
    def block_pair_expand(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_numpy(zero_copy_only=False)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        empty = pa.table(
            {"id_a": pa.array([], pa.int64()),
             "id_b": pa.array([], pa.int64()),
             "bkey": pa.array([], pa.int64()),
             "bid": pa.array([], pa.int64()),
             "is_bnd": pa.array([], pa.int8())}
        )
        if keys.size == 0:
            return empty
        order = np.lexsort((ids, keys))
        keys, ids = keys[order], ids[order]
        starts = np.flatnonzero(
            np.concatenate([[True], keys[1:] != keys[:-1]])
        )
        ends = np.concatenate([starts[1:], [keys.size]])
        edge = (keys[starts] == keys[0]) | (keys[starts] == keys[-1])
        pa_l, pb_l = [], []
        for s, e in zip(starts[~edge], ends[~edge]):
            a, b = _run_pairs(ids[s:e])
            if a.size:
                pa_l.append(a)
                pb_l.append(b)
        bmask = np.zeros(keys.size, dtype=bool)
        for s, e in zip(starts[edge], ends[edge]):
            bmask[s:e] = True
        id_a = np.concatenate(pa_l) if pa_l else np.empty(0, np.int64)
        id_b = np.concatenate(pb_l) if pb_l else np.empty(0, np.int64)
        nb = int(bmask.sum())
        return pa.table(
            {
                "id_a": pa.array(
                    np.concatenate([id_a, np.full(nb, -1, np.int64)]),
                    pa.int64(),
                ),
                "id_b": pa.array(
                    np.concatenate([id_b, np.full(nb, -1, np.int64)]),
                    pa.int64(),
                ),
                "bkey": pa.array(
                    np.concatenate(
                        [np.full(id_a.size, -1, np.int64), keys[bmask]]
                    ),
                    pa.int64(),
                ),
                "bid": pa.array(
                    np.concatenate(
                        [np.full(id_a.size, -1, np.int64), ids[bmask]]
                    ),
                    pa.int64(),
                ),
                # explicit marker: bucket keys span the full int64
                # range (hash views), so no key value can be a sentinel
                "is_bnd": pa.array(
                    np.concatenate(
                        [np.zeros(id_a.size, np.int8), np.ones(nb, np.int8)]
                    ),
                    pa.int8(),
                ),
            }
        )

    # materialize(): consumed twice (pair split + boundary gather) and
    # again twice by the verify tail; candidate-bounded, spillable.
    expanded = (
        bucket_rows.sort(key_col)
        .map_batches(block_pair_expand, batch_format="pyarrow")
        .materialize()
    )

    # boundary fix-up: rows of block-edge keys, bounded by
    # 2 keys/block x bucket size — scalar-sized next to the pair set
    bnd = (
        expanded.filter(expr="is_bnd == 1")
        .select_columns(["bkey", "bid"])
        .to_pandas()
    )
    fix_a, fix_b = [], []
    if not bnd.empty:
        bk = bnd["bkey"].to_numpy()
        bi = bnd["bid"].to_numpy()
        o = np.lexsort((bi, bk))
        bk, bi = bk[o], bi[o]
        st = np.flatnonzero(np.concatenate([[True], bk[1:] != bk[:-1]]))
        en = np.concatenate([st[1:], [bk.size]])
        for s, e in zip(st, en):
            a, b = _run_pairs(bi[s:e])
            if a.size:
                fix_a.append(a)
                fix_b.append(b)
    import ray.data

    pairs_ds = expanded.filter(expr="is_bnd == 0").select_columns(
        ["id_a", "id_b"]
    )
    if fix_a:
        fix = pa.table(
            {
                "id_a": pa.array(np.concatenate(fix_a), pa.int64()),
                "id_b": pa.array(np.concatenate(fix_b), pa.int64()),
            }
        )
        pairs_ds = pairs_ds.union(ray.data.from_arrow(fix))

    # near-distinct across buckets (a pair sharing 2+ bucket keys):
    # sort so duplicates are contiguous, per-block drop_duplicates;
    # block-straddle residue is dropped by the caller's final
    # driver-side drop_duplicates.
    return (
        pairs_ds.sort(["id_a", "id_b"])
        .map_batches(lambda df: df.drop_duplicates(), batch_format="pandas")
        .materialize()
    )


def minhash_lsh_pairs(
    sf_dir: str,
    bands: int = 16,
    rows_per_band: int = 4,
    jaccard_threshold: float = 0.5,
):
    """MinHash+LSH near-duplicate candidate pairs, verified with exact
    shingle Jaccard. Pipeline: minhash (actor pool) -> explode to
    (bkey, doc_id) where bkey mixes (band, band_hash) into one int64 —
    a bkey collision merges two buckets, which only ADDS candidates
    (recall preserved; the exact verify rejects false ones) ->
    _pairs_in_buckets (sort-based multi-bucket discovery + star-capped
    pairing on true buckets only) -> distinct pairs AS A DATASET ->
    distributed verify (candidate-id semi-join computes shingles inside
    map_batches; pair Jaccard vectorized over the pair dataset with a
    candidate-bounded broadcast map). The pair set never lands on the
    driver — only the unique candidate-id list and the final verified
    output do (VERDICT r02 #3)."""
    import ray
    import ray.data

    ds = _docs(sf_dir, ["doc_id", "text"])
    # task pool with once-per-worker state (task_state): the
    # hasher's permutation constants build per worker, and the stage
    # skips the per-query actor-pool spin-up (~2 s/stage at 32 cpus)
    buckets = ds.map_batches(
        _task_state(
            lambda: MinHasher(
                bands=bands,
                rows_per_band=rows_per_band,
                num_hashes=bands * rows_per_band,
            )
        ),
        batch_format="pyarrow",
        batch_size=4096,
    )
    cand_ds = _pairs_in_buckets(
        buckets, "bkey", star_cap=MAX_BUCKET_ALL_PAIRS
    )
    if cand_ds is None:
        return _empty_pairs()
    return _verify_candidate_pairs(sf_dir, cand_ds, 3, jaccard_threshold)


def _empty_pairs() -> pd.DataFrame:
    return pd.DataFrame(
        {"id_a": pd.Series([], dtype="int64"),
         "id_b": pd.Series([], dtype="int64"),
         "jaccard": pd.Series([], dtype="float64")}
    )


def _verify_candidate_pairs(
    sf_dir: str, cand_ds, k: int, jaccard_threshold: float
) -> pd.DataFrame:
    """Exact-Jaccard verification of a candidate-pair Dataset (shared
    tail of minhash_lsh_pairs and ngram_jaccard_pairs): semi-join the
    corpus on the candidate DOC ids to shingle only candidates, then
    verify pair Jaccard vectorized over the pair dataset with a
    candidate-bounded broadcast shingle map. The pair set never lands
    on the driver — only the unique candidate-id list and the final
    verified output do (VERDICT r02 #3)."""
    import ray
    import ray.data

    # unique candidate DOC ids (far smaller than the pair set): needed
    # on the driver to broadcast the shingle semi-join's id filter
    cand_ids = set(
        cand_ds.map_batches(
            lambda t: pa.table(
                {
                    "doc_id": pa.concat_arrays(
                        [
                            t.column("id_a").combine_chunks().cast(pa.int64()),
                            t.column("id_b").combine_chunks().cast(pa.int64()),
                        ]
                    )
                }
            ),
            batch_format="pyarrow",
        ).unique("doc_id")
    )
    if not cand_ids:
        return _empty_pairs()
    ids_ref = ray.put(cand_ids)

    class CandidateShingles:
        def __init__(self, ref):
            self.ids = ray.get(ref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            df = df[df["doc_id"].isin(self.ids)]
            if df.empty:
                return pd.DataFrame(
                    {"doc_id": pd.Series([], dtype="int64"),
                     "sh": pd.Series([], dtype=object)}
                )
            shingles = _word_shingles(df["text"].tolist(), k)
            return pd.DataFrame(
                {"doc_id": df["doc_id"].to_numpy(),
                 "sh": [s.tobytes() for s in shingles]}
            )

    sh_df = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(
            _task_state(lambda: CandidateShingles(ids_ref)),
            batch_format="pandas",
        )
        .to_pandas()  # candidate-bounded, not corpus-bounded
    )
    smap_ref = ray.put(dict(zip(sh_df["doc_id"], sh_df["sh"])))

    class VerifyJaccard:
        def __init__(self, ref):
            self.smap = {
                d: np.frombuffer(b, dtype=np.uint64)
                for d, b in ray.get(ref).items()
            }

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            jac = []
            smap = self.smap
            for a, b in zip(df["id_a"], df["id_b"]):
                sa, sb = smap[int(a)], smap[int(b)]
                if sb.size < sa.size:
                    sa, sb = sb, sa
                # both sides are np.unique-sorted: one searchsorted
                # beats intersect1d's concat+sort per pair
                idx = np.searchsorted(sb, sa)
                idx[idx == sb.size] = 0
                inter = int(np.count_nonzero(sb[idx] == sa))
                union = sa.size + sb.size - inter
                jac.append(inter / union if union else 1.0)
            return df.assign(jaccard=jac)

    verified = (
        cand_ds.map_batches(
            _task_state(lambda: VerifyJaccard(smap_ref)),
            batch_format="pandas",
            batch_size=16384,
        )
        .filter(expr=f"jaccard >= {jaccard_threshold}")
        .to_pandas()  # OUTPUT-bounded: verified near-dup pairs only
    )
    if verified.empty:
        return _empty_pairs()
    return (
        verified.drop_duplicates(["id_a", "id_b"])  # block-straddle residue
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )


def ngram_jaccard_pairs(
    sf_dir: str,
    k: int = 3,
    jaccard_threshold: float = 0.5,
    df_table_size: int = 32768,
):
    """EXACT n-gram (word k-shingle) Jaccard similarity join via
    prefix filtering — the AllPairs/PPJoin family (Bayardo et al.
    WWW'07; Xiao et al. WWW'08; public literature — the reference has
    no similarity join). Unlike minhash_lsh_pairs (probabilistic
    recall, star-capped buckets) the output is EXACTLY the pairs with
    Jaccard >= t, so the DuckDB all-pairs oracle holds unconditionally:

      pass 1: shingle -> shingle document-frequency heavy hitters
              (per-batch partial counts -> tiny groupby-sum -> top-M
              -> broadcast; the token_topk shape)
      pass 2: per-doc PREFIX emission under the global (df, hash)
              order — if J(A,B) >= t the sets must share an element
              inside both prefixes of length |S| - ceil(t*|S|) + 1,
              so indexing only prefixes loses no true pair
      pass 3: groupby prefix-shingle -> all-pairs per group ->
              distinct -> exact-Jaccard verify (shared tail with
              minhash_lsh_pairs)

    Scale notes: only shingles with df >= 2 can ever form a bucket, and
    the broadcast table is top-M of those (absent = df 1 — ties with
    every other rare shingle, order stays total via the hash
    tiebreak; ANY consistent global order keeps the filter exact, df
    order just minimizes candidates). Docs are shingled twice
    (recompute beats materializing corpus-sized shingle bytes in the
    object store at 100 TB). A cluster of n true near-identical docs
    inherently yields ~n^2/2 OUTPUT pairs — that is the exact
    semantics; use minhash_lsh_pairs for capped cluster-level dedup.
    """
    import ray
    import ray.data

    docs = _docs(sf_dir, ["doc_id", "text"])

    # ---- pass 1: document frequency of shingles (df >= 2, top-M) ----
    def df_partial(df: pd.DataFrame) -> pd.DataFrame:
        sh = _word_shingles(df["text"].tolist(), k)
        if not sh:
            return pd.DataFrame(
                {"sh": pd.Series([], dtype="uint64"),
                 "n": pd.Series([], dtype="int64")}
            )
        allh = np.concatenate(sh) if sh else np.empty(0, np.uint64)
        uniq, cnt = np.unique(allh, return_counts=True)
        return pd.DataFrame({"sh": uniq, "n": cnt.astype(np.int64)})

    # per-block exact partial counts, capped at top-M per block, merged
    # on the driver (blocks x M rows). NO Ray groupby here: the df
    # table only fixes a global ORDER — any one broadcast table is a
    # consistent (hence lossless) order, and per-group aggregate
    # overhead at shingle cardinality is prohibitive (see
    # _multi_bucket_keys). df over-/under-counting in the tail merely
    # shifts candidate-set size, never correctness.
    def block_topm(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if t.num_rows <= df_table_size:
            return t
        idx = pc.select_k_unstable(
            t, df_table_size, [("n", "descending"), ("sh", "ascending")]
        )
        return t.take(idx)

    parts = (
        docs.map_batches(df_partial, batch_format="pandas", batch_size=4096)
        .map_batches(block_topm, batch_format="pyarrow")
        .to_pandas()
    )
    parts = (
        parts.groupby("sh", sort=False)["n"].sum().reset_index()
    )
    parts = parts[parts["n"] >= 2]
    parts = parts.sort_values(
        ["n", "sh"], ascending=[False, True]
    ).head(df_table_size)
    df_keys = np.sort(parts["sh"].to_numpy().astype(np.uint64))
    order = np.argsort(parts["sh"].to_numpy().astype(np.uint64), kind="stable")
    df_vals = parts["n"].to_numpy()[order].astype(np.int64)
    df_ref = ray.put((df_keys, df_vals))

    # ---- pass 2: prefix emission under the (df, hash) global order ----
    class PrefixEmit:
        def __init__(self, ref):
            self.keys, self.vals = ray.get(ref)

        def _df_of(self, sh: np.ndarray) -> np.ndarray:
            out = np.ones(sh.size, dtype=np.int64)
            if self.keys.size:
                idx = np.searchsorted(self.keys, sh)
                idx[idx == self.keys.size] = 0
                hit = self.keys[idx] == sh
                out[hit] = self.vals[idx[hit]]
            return out

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            shingles = _word_shingles(df["text"].tolist(), k)
            out_sh: list[np.ndarray] = []
            out_id: list[np.ndarray] = []
            for did, sh in zip(df["doc_id"].to_numpy(), shingles):
                s = sh.size
                if s == 0:
                    continue
                p = s - int(np.ceil(jaccard_threshold * s)) + 1
                o = np.lexsort((sh, self._df_of(sh)))
                pref = sh[o[:p]]
                out_sh.append(pref)
                out_id.append(np.full(pref.size, did, dtype=np.int64))
            if not out_sh:
                return pd.DataFrame(
                    {"sh": pd.Series([], dtype="int64"),
                     "doc_id": pd.Series([], dtype="int64")}
                )
            return pd.DataFrame(
                {
                    # int64 view: groupby keys hash identically either way
                    "sh": np.concatenate(out_sh).view(np.int64),
                    "doc_id": np.concatenate(out_id),
                }
            )

    prefixes = docs.map_batches(
        _task_state(lambda: PrefixEmit(df_ref)),
        batch_format="pandas",
        batch_size=4096,
    )

    # ---- pass 3: bucket all-pairs (exact: NO star cap) -> distinct.
    # Prefix buckets are overwhelmingly singletons (rarest-first
    # order); _pairs_in_buckets runs the per-group apply only on true
    # multi-doc buckets via the sort-based discovery pass.
    cand_ds = _pairs_in_buckets(prefixes, "sh", star_cap=None)
    if cand_ds is None:
        return _empty_pairs()
    return _verify_candidate_pairs(sf_dir, cand_ds, k, jaccard_threshold)


class SimHasher:
    """64-bit SimHash over single-space word tokens. The word hash is
    the first 8 bytes of md5 — chosen so the DuckDB oracle can compute
    the EXACT same function in SQL (hash-verified, not rows-only).
    Stateful actor: the word->hash cache persists across batches
    (SURVEY ST1 pattern); bit votes stay vectorized via reduceat."""

    def __init__(self):
        import hashlib

        self._md5 = hashlib.md5
        self._cache: dict[str, int] = {}

    def _hash_words(self, words: np.ndarray) -> np.ndarray:
        uniq, inv = np.unique(words, return_inverse=True)
        cache = self._cache
        md5 = self._md5
        vals = np.empty(uniq.size, dtype=np.uint64)
        for i, w in enumerate(uniq):
            h = cache.get(w)
            if h is None:
                h = int(md5(w.encode()).hexdigest()[:16], 16)
                cache[w] = h
            vals[i] = h
        return vals[inv]

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].tolist()
        # split(' ') exactly (not split()): matches SQL string_split
        word_lists = [t.split(" ") for t in texts]
        counts = np.array([len(w) for w in word_lists], dtype=np.int64)
        all_words = np.array(
            [w for ws in word_lists for w in ws], dtype=object
        )
        out = np.zeros(len(df), dtype=np.uint64)
        if all_words.size:
            hs = self._hash_words(all_words)
            bits = (
                (hs[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
            ).astype(np.int64)
            nz = counts > 0
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            sums = np.add.reduceat(bits, starts[nz], axis=0)
            votes = sums * 2 - counts[nz][:, None]
            simbits = (votes > 0).astype(np.uint64)
            weights = np.uint64(1) << np.arange(64, dtype=np.uint64)
            out[nz] = (simbits * weights).sum(axis=1, dtype=np.uint64)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                # hex string: avoids uint64/int64 comparator wraparound
                "simhash": [f"{int(v):016x}" for v in out],
            }
        )


def simhash(sf_dir: str):
    ds = _docs(sf_dir, ["doc_id", "text"])
    return ds.map_batches(
        _task_state(SimHasher), batch_format="pandas", batch_size=4096
    )


def embedding_neardup(sf_dir: str, threshold: float = 0.0, top_k: int = 10):
    """Embedding-cosine near-duplicate candidates within each label
    group (label plays the LSH-bucket role so the pair space stays
    bounded; a skewed label needs sub-bucketing at scale). Vectorized:
    per-group normalized matmul, per-group partial top-k, tiny global
    merge — the driver only ever sees k rows per group.

    Returns the ``top_k`` most similar pairs with sim >= threshold as
    (id_a, id_b) — deterministic and SQL-expressible, so this query is
    oracle-verified (r01 was rows-only AND returned 0 rows because the
    synthetic corpus has no pairs above 0.95)."""
    import ray.data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding", "label"],
    )

    def _truncate_exact(s, lo, hi, k):
        """Keep exactly the top-k of (sim desc, lo asc, hi asc) — the
        same TOTAL order the one-shot path sorts by, so dropping the
        rest can never change the global answer even when the k-th
        similarity is tied (the degenerate all-identical bucket: every
        sim == 1.0 and the winners are decided purely by ids)."""
        if s.size <= k:
            return s, lo, hi
        kth = np.partition(s, s.size - k)[s.size - k]  # k-th largest
        better = s > kth
        nb = int(better.sum())
        tie = np.flatnonzero(s == kth)
        t_order = np.lexsort((hi[tie], lo[tie]))[: k - nb]
        keep = np.concatenate([np.flatnonzero(better), tie[t_order]])
        return s[keep], lo[keep], hi[keep]

    def group_topk(g: pd.DataFrame) -> pd.DataFrame:
        # skewed-label safety (VERDICT r02): the similarity matrix is
        # computed in TILE x n blocks with a running exact top-k merge,
        # so a degenerate label group costs O(TILE * n) peak memory
        # instead of materializing the full n x n matrix. Results are
        # EXACT (identical to the one-shot matmul), so the SQL oracle
        # holds.
        TILE = 2048
        ids = g["vec_id"].to_numpy()
        m = np.stack(g["embedding"].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        mn = m / norms
        n = len(ids)
        best_s = np.empty(0)
        best_lo = np.empty(0, dtype="int64")
        best_hi = np.empty(0, dtype="int64")
        for i0 in range(0, n, TILE):
            i1 = min(i0 + TILE, n)
            block = mn[i0:i1] @ mn[i0:].T  # rows i0..i1 vs cols i0..n
            ii, jj = np.nonzero(block >= threshold)
            keep = jj > ii  # strict upper triangle in global indices
            ii, jj = ii[keep], jj[keep]
            s = block[ii, jj]
            a, b = ids[ii + i0], ids[jj + i0]
            lo = np.minimum(a, b).astype("int64")
            hi = np.maximum(a, b).astype("int64")
            s, lo, hi = _truncate_exact(s, lo, hi, top_k)
            best_s = np.concatenate([best_s, s])
            best_lo = np.concatenate([best_lo, lo])
            best_hi = np.concatenate([best_hi, hi])
            best_s, best_lo, best_hi = _truncate_exact(
                best_s, best_lo, best_hi, top_k
            )
        order = np.lexsort((best_hi, best_lo, -best_s))[:top_k]
        return pd.DataFrame(
            {"id_a": best_lo[order],
             "id_b": best_hi[order],
             "sim": best_s[order]}
        )

    parts = ds.groupby("label").map_groups(group_topk, batch_format="pandas")
    df = parts.to_pandas()  # k rows per label group only
    if df.empty:
        return pd.DataFrame(
            {"id_a": pd.Series([], dtype="int64"),
             "id_b": pd.Series([], dtype="int64")}
        )
    df = df.sort_values(
        ["sim", "id_a", "id_b"], ascending=[False, True, True]
    ).head(top_k)
    return df[["id_a", "id_b"]].reset_index(drop=True)


_NGRAM_P = np.uint64(1099511628211)  # FNV prime, odd -> equal-content
_NGRAM_MIX = np.uint64(0xBF58476D1CE4E5B9)  # splitmix64 finalizer step


def _window_hashes(flat: np.ndarray, offs: np.ndarray, w: int):
    """Vectorized w-token window hashes over a ragged token stream:
    one sliding_window_view across the WHOLE flat array, then a mask
    keeps positions whose window stays inside a single document
    (doc-of(p) == doc-of(p+w-1) via two searchsorted passes). Returns
    (hashes uint64, doc_index int64 per valid window position).
    Equal windows always hash equal (polynomial in an odd multiplier
    mod 2^64 + splitmix mixing); distinct-window collisions are
    ~#windows^2 / 2^64 — negligible against the oracle at test scale."""
    if flat.size < w:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    # wraparound mod 2^64 is the hash definition — silence the
    # overflow warning numpy raises on intentional uint64 wrap.
    # O(n) prefix-sum form of the same polynomial (bit-identical to
    # the naive window sum): with S_k = sum_{t<k} flat[t] * p^t,
    # hash(i) = (S_{i+w} - S_i) * p^{-i}; p is odd, so p^{-1} exists
    # mod 2^64 — replaces the O(n*w) sliding-window product and its
    # n x w temp (measured 6x on 6M tokens at w=8).
    with np.errstate(over="ignore"):
        n = flat.size
        f = flat.astype(np.uint64)
        m = n - w + 1
        pv = np.empty(n, dtype=np.uint64)
        pv[0] = 1
        if n > 1:
            np.cumprod(
                np.full(n - 1, _NGRAM_P, dtype=np.uint64), out=pv[1:]
            )
        pinv = np.uint64(pow(int(_NGRAM_P), -1, 1 << 64))
        piv = np.empty(m, dtype=np.uint64)
        piv[0] = 1
        if m > 1:
            np.cumprod(
                np.full(m - 1, pinv, dtype=np.uint64), out=piv[1:]
            )
        s = np.empty(n + 1, dtype=np.uint64)
        s[0] = 0
        np.cumsum(f * pv, out=s[1:])
        h = (s[w:] - s[:m]) * piv
        h = (h ^ (h >> np.uint64(31))) * _NGRAM_MIX
        h ^= h >> np.uint64(27)
    pos = np.arange(h.size, dtype=np.int64)
    d0 = np.searchsorted(offs, pos, side="right")
    d1 = np.searchsorted(offs, pos + w - 1, side="right")
    keep = d0 == d1
    return h[keep], (d0[keep] - 1).astype(np.int64)


def dup_ngram_spans(sf_dir: str, w: int = 8):
    """Cross-document duplicated n-gram span detection over the token
    corpus — the windowed approximation of exact substring dedup (the
    suffix-array method of Lee et al. 2021, public literature; windows
    of w tokens at stride 1 catch every duplicated span of length
    >= w). Per document: total window count and how many of its window
    positions carry content that also appears in ANOTHER document.

    Scale shape: window hashing is one vectorized sliding pass per
    block (no per-doc loop); pass A emits per-doc-UNIQUE (hash, doc)
    rows — the corpus x w exchange every substring-dedup method pays —
    and the sort-based _multi_bucket_keys finds hashes with >= 2
    distinct docs; pass B recomputes window hashes per block
    (recompute beats materializing corpus x w hash bytes) and counts
    membership in the broadcast duplicated-hash set. The broadcast is
    bounded by truly-duplicated content; a corpus where duplicated
    spans themselves are object-store-sized would join distributedly
    instead (relational.hash_join shape)."""
    import ray
    import ray.data

    from ..pipelines.decode import decode_dataset
    from ..pipelines.flagship import ensure_encoded

    _, enc = ensure_encoded(sf_dir)
    ds = decode_dataset(enc, columns=["doc_id", "tokens"])

    def _flat(t: pa.Table):
        col = t.column("tokens").combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False)
        offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        # sliced ListArrays carry a nonzero offset base while
        # flatten() compacts to zero-base — re-base so window->doc
        # searchsorted attribution stays correct (matches bigram_pmi)
        offs = offs - offs[0]
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return flat, offs, ids

    def hash_doc_pairs(t: pa.Table) -> pa.Table:
        flat, offs, ids = _flat(t)
        h, di = _window_hashes(flat, offs, w)
        if h.size == 0:
            return pa.table(
                {"h": pa.array([], pa.int64()),
                 "n": pa.array([], pa.int64())}
            )
        # per-doc UNIQUE hash rows: weights over these equal
        # DISTINCT-doc counts (each doc contributes a given hash at
        # most once, and a doc lives in exactly one block). lexsort +
        # adjacent-diff mask beats np.unique(axis=0) ~5x (no
        # void-dtype view); the (doc, hash) pairs then pre-collapse to
        # per-block (hash, n_docs) partials so in-block duplication
        # never reaches the sort exchange — only key multiplicity
        # ships, never doc identity.
        hs = h.view(np.int64)
        # hash-PRIMARY lexsort: the (hash, doc) dedup mask and the
        # per-hash run-length counts are then both adjacent-diff
        # passes over the same single sort — no second sort for the
        # (hash, n_docs) collapse
        order = np.lexsort((di, hs))
        hs, dsort = hs[order], di[order]
        keep = np.concatenate(
            [[True], (hs[1:] != hs[:-1]) | (dsort[1:] != dsort[:-1])]
        )
        hk = hs[keep]
        starts = np.flatnonzero(
            np.concatenate([[True], hk[1:] != hk[:-1]])
        )
        return pa.table(
            {"h": pa.array(hk[starts], pa.int64()),
             "n": pa.array(
                 np.diff(np.append(starts, hk.size)).astype(np.int64),
                 pa.int64(),
             )}
        )

    pairs = ds.map_batches(hash_doc_pairs, batch_format="pyarrow")
    dup_keys = _multi_bucket_keys(pairs, "h", weight_col="n")  # >= 2 docs
    dup_ref = ray.put(np.sort(dup_keys))

    class CountDups:
        def __init__(self, ref):
            self.dups = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            flat, offs, ids = _flat(t)
            h, di = _window_hashes(flat, offs, w)
            nwin = np.maximum(np.diff(offs) - w + 1, 0).astype(np.int64)
            keep_doc = nwin > 0
            if h.size == 0:
                return pa.table(
                    {"doc_id": pa.array(ids[keep_doc]),
                     "n_windows": pa.array(nwin[keep_doc], pa.int64()),
                     "n_dup": pa.array(
                         np.zeros(int(keep_doc.sum()), np.int64), pa.int64()
                     )}
                )
            hs = h.view(np.int64)
            isdup = np.zeros(hs.size, dtype=bool)
            if self.dups.size:
                idx = np.searchsorted(self.dups, hs)
                idx[idx == self.dups.size] = 0
                isdup = self.dups[idx] == hs
            ndup = np.bincount(
                di[isdup], minlength=len(ids)
            ).astype(np.int64)
            return pa.table(
                {"doc_id": pa.array(ids[keep_doc]),
                 "n_windows": pa.array(nwin[keep_doc], pa.int64()),
                 "n_dup": pa.array(ndup[keep_doc], pa.int64())}
            )

    return ds.map_batches(
        _task_state(lambda: CountDups(dup_ref)),
        batch_format="pyarrow",
    )


def dedup_clusters(sf_dir: str, jaccard_threshold: float = 0.5):
    """Near-duplicate CLUSTERS: connected components over the verified
    MinHash+LSH pair graph — the final step of a corpus dedup pass
    (keep one representative per component, drop the rest). Returns
    (doc_id, cluster_id = component-min doc_id) for every document in
    at least one verified near-dup pair.

    Scale shape: the pair graph is OUTPUT-bounded (star-capped LSH +
    exact verify), so components usually resolve with the driver
    union-find; mode="auto" switches to the distributed
    large-star/small-star path past the driver edge cap (tests assert
    both modes agree). Oracle: exact all-pairs Jaccard edges + a
    recursive-CTE min-label closure in DuckDB."""
    from .graph import connected_components

    pairs = minhash_lsh_pairs(sf_dir, jaccard_threshold=jaccard_threshold)
    return connected_components(pairs, mode="auto")


def decontaminate(sf_dir: str, w: int = 8, mod: int = 29):
    """Eval-set decontamination: flag TRAIN documents that share any
    w-token n-gram with the EVAL split (here the deterministic
    doc_id % mod == 0 subset stands in for a held-out benchmark) —
    the n-gram-overlap contamination check public LLM training
    pipelines run before training (GPT-3 appendix C / Lee et al.
    2021, public literature).

    Scale shape: ZERO exchanges. Pass A scans only eval rows
    (filtered in-block at the decode) and reduces them to a distinct
    window-hash set collected and broadcast once via ray.put — an
    eval set is small by definition, so the broadcast is KB-MB scale
    regardless of corpus size. Pass B streams the corpus once:
    per-block vectorized sliding-window hashes (_window_hashes) +
    sorted-membership searchsorted against the broadcast set, folding
    to per-doc (n_windows, n_hits) rows for contaminated train docs —
    the eval set plays the broadcast side of a semi-join. Hash
    collisions ~#windows^2/2^64 (see _window_hashes); the oracle
    compares literal token windows."""
    import ray

    from ..pipelines.decode import decode_dataset
    from ..pipelines.flagship import ensure_encoded

    _, enc = ensure_encoded(sf_dir)
    ds = decode_dataset(enc, columns=["doc_id", "tokens"])
    m = np.int64(mod)

    def _flat(t: pa.Table):
        col = t.column("tokens").combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False)
        offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        # sliced ListArrays: re-base offsets to flatten()'s zero base
        offs = offs - offs[0]
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        # doc ids are "source/doc-NNNNNNNNNNNN" strings; the split is
        # on the numeric suffix so SQL reproduces it with right()+CAST
        num = pd.Series(ids).str[-12:].astype(np.int64).to_numpy()
        return flat, offs, ids, num

    def eval_hashes(t: pa.Table) -> pa.Table:
        # row-filter to the eval split BEFORE windowing: hashing then
        # touches ~1/mod of the block's tokens, not all of them
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        num = pd.Series(ids).str[-12:].astype(np.int64).to_numpy()
        t = t.filter(pa.array((num % m) == 0))
        flat, offs, _ids, _num = _flat(t)
        h, _di = _window_hashes(flat, offs, w)
        h = np.unique(h.view(np.int64)) if h.size else np.empty(0, np.int64)
        return pa.table({"h": pa.array(h, pa.int64())})

    ev = ds.map_batches(eval_hashes, batch_format="pyarrow").to_pandas()
    ev_ref = ray.put(np.unique(ev["h"].to_numpy(dtype=np.int64)))

    # task pool, not an actor pool: the broadcast eval set is fetched
    # once per WORKER through the zero-copy object store (per-process
    # memo), and tasks skip the per-query actor spin-up cost
    def hits(t: pa.Table, _memo={}) -> pa.Table:
        if "e" not in _memo:
            _memo["e"] = ray.get(ev_ref)  # sorted distinct eval hashes
        evh = _memo["e"]
        flat, offs, ids, num = _flat(t)
        h, di = _window_hashes(flat, offs, w)
        empty = pa.table(
            {"doc_id": pa.array([], pa.string()),
             "n_windows": pa.array([], pa.int64()),
             "n_hits": pa.array([], pa.int64())}
        )
        if h.size == 0:
            return empty
        pos = np.searchsorted(evh, h.view(np.int64))
        pos[pos == evh.size] = 0
        hit = (
            (evh[pos] == h.view(np.int64))
            if evh.size
            else np.zeros(h.size, bool)
        )
        ndoc = len(offs) - 1
        nwin = np.maximum(np.diff(offs) - w + 1, 0).astype(np.int64)
        nhit = np.bincount(
            di, weights=hit.astype(np.float64), minlength=ndoc
        ).astype(np.int64)
        keep = (nhit > 0) & ((num % m) != 0)
        if not keep.any():
            return empty
        return pa.table(
            {"doc_id": pa.array(ids[keep], pa.string()),
             "n_windows": pa.array(nwin[keep], pa.int64()),
             "n_hits": pa.array(nhit[keep], pa.int64())}
        )

    return ds.map_batches(hits, batch_format="pyarrow")


# --------------------------------------------------------------------
# Edit-distance similarity join (Ed-Join family)
# --------------------------------------------------------------------

def _qgram_sets(buf: np.ndarray, offs: np.ndarray, q: int,
                positional: bool = False):
    """Per-doc q-gram values over a concatenated byte buffer.
    ``buf``: uint8 concat of all keys; ``offs``: int64 doc offsets
    (len n_docs+1). Default: (doc_idx, gram) int64 arrays, per-doc
    DEDUPLICATED; ``positional=True``: (doc_idx, gram, pos) with every
    occurrence kept and its within-key byte position. Grams are the
    little-endian uint32 view of the q-byte window (q must be 4).
    One vectorized pass — no per-doc loop."""
    assert q == 4
    lens = np.diff(offs)
    cnt = np.maximum(lens - q + 1, 0)
    total = int(cnt.sum())
    if total == 0 or buf.size < q:
        e = np.empty(0, np.int64)
        return (e, e, e) if positional else (e, e)
    doc_idx = np.repeat(np.arange(lens.size, dtype=np.int64), cnt)
    cum = np.zeros(lens.size, dtype=np.int64)
    np.cumsum(cnt[:-1], out=cum[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(cum, cnt)
    starts = np.repeat(offs[:-1], cnt) + within
    swv = np.lib.stride_tricks.sliding_window_view(buf, q)
    grams = (
        np.ascontiguousarray(swv[starts])
        .view(np.uint32)
        .ravel()
        .astype(np.int64)
    )
    if positional:
        return doc_idx, grams, within
    # per-doc distinct: sort by (doc, gram), drop adjacent dups
    o = np.lexsort((grams, doc_idx))
    d, g = doc_idx[o], grams[o]
    keep = np.ones(d.size, dtype=bool)
    keep[1:] = (d[1:] != d[:-1]) | (g[1:] != g[:-1])
    return d[keep], g[keep]


def _levenshtein_pairs(A, la, B, lb) -> np.ndarray:
    """Unit-cost Levenshtein distance for P (a, b) pairs at once.
    ``A``/``B``: (P, Lmax) uint8 padded char matrices, ``la``/``lb``
    true lengths. Classic DP; the row recurrence is sequential in the
    column index, so the loops run over the (small, <= prefix_chars)
    string dims while every operation vectorizes over the pair axis P
    — O(La*Lb) numpy ops regardless of P."""
    P, LA = A.shape
    LB = B.shape[1]
    v = np.broadcast_to(
        np.arange(LA + 1, dtype=np.int32), (P, LA + 1)
    ).copy()
    out = la.astype(np.int32).copy()  # lb == 0 -> dist = la
    for j in range(1, LB + 1):
        nv = np.empty_like(v)
        nv[:, 0] = j
        sub = A != B[:, j - 1][:, None]
        for i in range(1, LA + 1):
            nv[:, i] = np.minimum(
                np.minimum(nv[:, i - 1] + 1, v[:, i] + 1),
                v[:, i - 1] + sub[:, i - 1],
            )
        v = nv
        done = lb == j
        if done.any():
            out[done] = v[done, la[done]]
    return out


def _levenshtein_pairs_banded(A, la, B, lb, k: int) -> np.ndarray:
    """Thresholded Levenshtein: EXACT distance when <= k, clamped to
    k+1 otherwise (cells with |i - j| > k can never sit on a <= k
    path, so only the 2k+1-wide diagonal band is computed — O(Lb * k)
    numpy ops over the pair axis instead of O(Lb * La)). Band column
    c represents i = j + c - k."""
    P = A.shape[0]
    if P == 0:
        return np.empty(0, np.int32)
    LB = int(lb.max()) if lb.size else 0
    W = 2 * k + 1
    BIG = np.int32(k + 1)
    cs = np.arange(W, dtype=np.int64)
    # j = 0 row: D[0][i] = i for valid i = c - k >= 0
    i0 = cs - k
    v = np.where(
        (i0 >= 0) & (i0 <= la[:, None]), i0, BIG
    ).astype(np.int32)
    out = np.minimum(la.astype(np.int32), BIG)  # lb == 0 -> dist = la
    jj = np.arange(1, LB + 1)
    for j in jj:
        nv = np.full((P, W), BIG, dtype=np.int32)
        bj = B[:, j - 1]
        for c in range(W):
            i = j + c - k
            if i < 0:
                continue
            if i == 0:
                nv[:, c] = min(j, k + 1)
                continue
            if i - 1 >= A.shape[1]:
                continue  # i > la for every pair: stays BIG
            # D[j][i] = min(D[j-1][i]+1, D[j][i-1]+1, D[j-1][i-1]+sub)
            up = v[:, c + 1] + 1 if c + 1 < W else np.full(P, BIG + 1)
            left = nv[:, c - 1] + 1 if c > 0 else np.full(P, BIG + 1)
            sub = (A[:, i - 1] != bj).astype(np.int32) + v[:, c]
            cell = np.minimum(np.minimum(up, left), sub)
            # out-of-string columns stay BIG
            valid = i <= la
            nv[:, c] = np.where(valid, np.minimum(cell, BIG), BIG)
        v = nv
        done = lb == j
        if done.any():
            c_fin = la[done] - j + k
            inband = (c_fin >= 0) & (c_fin < W)
            res = np.full(int(done.sum()), BIG, dtype=np.int32)
            di = np.flatnonzero(done)
            res[inband] = v[di[inband], c_fin[inband]]
            out[done] = res
    return np.minimum(out, BIG)


def editdist_neardup(
    sf_dir: str,
    k: int = 2,
    q: int = 4,
    prefix_chars: int = 40,
    df_table_size: int = 32768,
):
    """EXACT edit-distance similarity join on the normalized key
    ``lower(text[:prefix_chars])``: all pairs (id_a < id_b) with
    levenshtein(key_a, key_b) <= k, via q-gram prefix filtering — the
    Ed-Join family (Gravano et al. VLDB'01 count filter; Xiao, Wang &
    Lin VLDB'08 Ed-Join; public literature — the reference has no
    similarity join). Like ngram_jaccard_pairs the DuckDB all-pairs
    oracle holds unconditionally: candidate generation is provably
    complete, then every candidate is verified with the exact DP.

    Distance semantics: unit-cost Levenshtein over the UTF-8 BYTES of
    the key — exactly DuckDB's levenshtein() (verified: it scores
    cafe/café as 2, i.e. bytewise), which keeps the whole filter
    chain consistent at the byte level with no multibyte special
    cases.

    Completeness argument (POSITIONAL q-gram count filter — Ed-Join
    Lemma 1): one byte edit destroys <= q positional grams per side
    and shifts survivors by <= k, so ed(a,b) <= k forces a MATCHING
    pair (content equal, |pos_a - pos_b| <= k) inside both docs'
    q*k+1-long prefixes of their positional gram arrays sorted under
    a global content order. Positions matter: on corpora built from
    a small word vocabulary every gram CONTENT is frequent, but
    (gram, position) stays selective — measured 1.04M -> 147k
    candidates (and 23 -> 3.7 s end-to-end) on the sf0.1 testdata
    documents. Bucketing realizes
    the shifted match with one-sided emission: each selected gram
    lands in buckets (gram, pos + d) for d in 0..k, so any pair
    within shift k shares a bucket via one side's d=0 key. The
    filter only binds when the longer key has > q*(k+1) - 1 bytes;
    every doc with a shorter key ALSO lands in one reserved bucket
    (if the longer side of a pair is that short, so is the other:
    lengths differ by <= k). Global order = (df ascending, gram,
    pos) with a broadcast top-M df table, rarest-first — absent
    grams tie at df 1, any consistent content order stays lossless
    (ngram_jaccard_pairs precedent). The verify DP is banded
    (|i - j| <= k), exact for every distance <= k.

    Scale shape: per-doc fan-out is <= q*k + 1 prefix grams (9 at the
    defaults); buckets are keyed on the RAREST grams so bucket sizes
    stay small by construction; candidates stay a Dataset through the
    distinct; the verify tail is candidate-bounded and the DP kernel
    vectorizes over the pair axis."""
    import ray
    import ray.data

    docs = _docs(sf_dir, ["doc_id", "text"])
    short_cap = q * (k + 1) - 1  # keys this short skip the gram filter
    SPECIAL = np.int64(-2)  # grams are uint32 >= 0: no collision

    def _keys(texts: pd.Series):
        keyser = texts.str.slice(0, prefix_chars).str.lower()
        raw = [s.encode("utf-8") for s in keyser]
        lens = np.array([len(b) for b in raw], dtype=np.int64)
        return raw, lens

    # ---- pass 1: gram document frequency (top-M, rarest-first order)
    def df_partial(df: pd.DataFrame) -> pd.DataFrame:
        raw, lens = _keys(df["text"])
        buf = np.frombuffer(b"".join(raw), dtype=np.uint8)
        offs = np.zeros(len(raw) + 1, dtype=np.int64)
        np.cumsum(lens, out=offs[1:])
        _, grams = _qgram_sets(buf, offs, q)
        if grams.size == 0:
            return pd.DataFrame(
                {"g": pd.Series([], dtype="int64"),
                 "n": pd.Series([], dtype="int64")}
            )
        uniq, cnt = np.unique(grams, return_counts=True)
        return pd.DataFrame({"g": uniq, "n": cnt.astype(np.int64)})

    def block_topm(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if t.num_rows <= df_table_size:
            return t
        idx = pc.select_k_unstable(
            t, df_table_size, [("n", "descending"), ("g", "ascending")]
        )
        return t.take(idx)

    parts = (
        docs.map_batches(df_partial, batch_format="pandas", batch_size=4096)
        .map_batches(block_topm, batch_format="pyarrow")
        .to_pandas()
    )
    parts = parts.groupby("g", sort=False)["n"].sum().reset_index()
    parts = parts[parts["n"] >= 2]
    parts = parts.sort_values(["n", "g"], ascending=[False, True]).head(
        df_table_size
    )
    df_keys = np.sort(parts["g"].to_numpy().astype(np.int64))
    order = np.argsort(parts["g"].to_numpy().astype(np.int64), kind="stable")
    df_vals = parts["n"].to_numpy()[order].astype(np.int64)
    df_ref = ray.put((df_keys, df_vals))

    # ---- pass 2: prefix emission (q*k+1 rarest grams per doc) ------
    class PrefixEmit:
        def __init__(self, ref):
            self.keys, self.vals = ray.get(ref)

        def _df_of(self, g: np.ndarray) -> np.ndarray:
            out = np.ones(g.size, dtype=np.int64)
            if self.keys.size:
                idx = np.searchsorted(self.keys, g)
                idx[idx == self.keys.size] = 0
                hit = self.keys[idx] == g
                out[hit] = self.vals[idx[hit]]
            return out

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            raw, lens = _keys(df["text"])
            ids = df["doc_id"].to_numpy().astype(np.int64)
            buf = np.frombuffer(b"".join(raw), dtype=np.uint8)
            offs = np.zeros(len(raw) + 1, dtype=np.int64)
            np.cumsum(lens, out=offs[1:])
            d, g, p = _qgram_sets(buf, offs, q, positional=True)
            out_g: list[np.ndarray] = []
            out_id: list[np.ndarray] = []
            if d.size:
                dfv = self._df_of(g)
                # within-doc rank under (df, gram, pos): keep the
                # q*k+1 rarest POSITIONAL gram occurrences
                o = np.lexsort((p, g, dfv, d))
                ds_, gs_, ps_ = d[o], g[o], p[o]
                seg_start = np.ones(ds_.size, dtype=bool)
                seg_start[1:] = ds_[1:] != ds_[:-1]
                starts = np.flatnonzero(seg_start)
                seg_id = np.cumsum(seg_start) - 1
                rank = np.arange(ds_.size, dtype=np.int64) - starts[seg_id]
                keep = rank < (q * k + 1)
                kd, kg, kp = ds_[keep], gs_[keep], ps_[keep]
                # one bucket key per shift d in [0..k]: two grams with
                # content equal and |pos_a - pos_b| <= k land in a
                # common (gram, pos+d) bucket (d = 0 is the index
                # role, d >= 1 the probe role — one-sided shifts
                # suffice because the pair is checked from both ends)
                for dd in range(k + 1):
                    # (gram << 16 | pos) fits int64 for any sane
                    # prefix_chars; a wrap collision would only add
                    # candidates (the DP verifies every pair anyway)
                    out_g.append(kg * np.int64(1 << 16) + (kp + dd))
                    out_id.append(ids[kd])
            special = lens <= short_cap
            if special.any():
                out_g.append(np.full(int(special.sum()), SPECIAL))
                out_id.append(ids[special])
            if not out_g:
                return pd.DataFrame(
                    {"sh": pd.Series([], dtype="int64"),
                     "doc_id": pd.Series([], dtype="int64")}
                )
            return pd.DataFrame(
                {"sh": np.concatenate(out_g),
                 "doc_id": np.concatenate(out_id)}
            )

    prefixes = docs.map_batches(
        _task_state(lambda: PrefixEmit(df_ref)),
        batch_format="pandas",
        batch_size=4096,
    )

    # ---- pass 3: bucket pairs -> distinct -> exact DP verify -------
    cand_ds = _pairs_in_buckets(prefixes, "sh", star_cap=None)
    empty = pd.DataFrame(
        {
            "id_a": pd.Series([], dtype="int64"),
            "id_b": pd.Series([], dtype="int64"),
            "dist": pd.Series([], dtype="int64"),
        }
    )
    if cand_ds is None:
        return empty
    cand_ids = set(
        cand_ds.map_batches(
            lambda t: pa.table(
                {
                    "doc_id": pa.concat_arrays(
                        [
                            t.column("id_a").combine_chunks().cast(pa.int64()),
                            t.column("id_b").combine_chunks().cast(pa.int64()),
                        ]
                    )
                }
            ),
            batch_format="pyarrow",
        ).unique("doc_id")
    )
    if not cand_ids:
        return empty
    ids_ref = ray.put(cand_ids)

    class CandidateKeys:
        def __init__(self, ref):
            self.ids = ray.get(ref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            df = df[df["doc_id"].isin(self.ids)]
            if df.empty:
                return pd.DataFrame(
                    {"doc_id": pd.Series([], dtype="int64"),
                     "key": pd.Series([], dtype=object)}
                )
            raw, _ = _keys(df["text"])
            return pd.DataFrame(
                {"doc_id": df["doc_id"].to_numpy(), "key": raw}
            )

    key_df = (
        docs.map_batches(
            _task_state(lambda: CandidateKeys(ids_ref)),
            batch_format="pandas",
        )
        .to_pandas()  # candidate-bounded, not corpus-bounded
    )
    kmap_ref = ray.put(dict(zip(key_df["doc_id"], key_df["key"])))

    class VerifyEd:
        def __init__(self, ref):
            self.kmap = ray.get(ref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            kmap = self.kmap
            a_keys = [kmap[int(i)] for i in df["id_a"]]
            b_keys = [kmap[int(i)] for i in df["id_b"]]
            la = np.array([len(b) for b in a_keys], dtype=np.int64)
            lb = np.array([len(b) for b in b_keys], dtype=np.int64)
            # length filter: |la-lb| > k can never verify
            cand = np.abs(la - lb) <= k
            dist = np.full(len(df), k + 1, dtype=np.int64)
            if cand.any():
                ai = np.flatnonzero(cand)
                lmax = int(max(la[ai].max(), lb[ai].max(), 1))
                A = np.zeros((ai.size, lmax), dtype=np.uint8)
                B = np.full((ai.size, lmax), 255, dtype=np.uint8)
                for r, i in enumerate(ai):
                    A[r, : la[i]] = np.frombuffer(a_keys[i], np.uint8)
                    B[r, : lb[i]] = np.frombuffer(b_keys[i], np.uint8)
                dist[ai] = _levenshtein_pairs_banded(
                    A, la[ai], B, lb[ai], k
                ).astype(np.int64)
            return df.assign(dist=dist)

    verified = (
        cand_ds.map_batches(
            _task_state(lambda: VerifyEd(kmap_ref)),
            batch_format="pandas",
            batch_size=16384,
        )
        .filter(expr=f"dist <= {k}")
        .to_pandas()  # OUTPUT-bounded: verified near-dup pairs only
    )
    if verified.empty:
        return empty
    return (
        verified.drop_duplicates(["id_a", "id_b"])
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )


def doc_dup_profile(sf_dir: str):
    """Per-source duplication accounting: document count, distinct
    text count and the duplicate rate (1 - distinct/docs) — the
    mixture-report row a curation pipeline publishes per source
    before dedup. Scale shape: the block partial collapses to
    distinct (h1, h2, source) rows plus a per-source doc count, so
    the ONE exchange is keyed on the 16-byte text hash and moves one
    row per (block, distinct text, source) — the text itself never
    leaves the scan (dedup_exact precedent)."""
    from ray.data.aggregate import Sum

    ds = _docs(sf_dir, ["text", "source"])

    def partial(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pandas().to_numpy(dtype=object)
        h1, h2 = _text_hash128(texts)
        tt = pa.table(
            {"h1": h1, "h2": h2, "source": t.column("source")}
        )
        g = tt.group_by(["h1", "h2", "source"]).aggregate(
            [("source", "count")]
        )
        return g.rename_columns(["h1", "h2", "source", "n"])

    parts = ds.map_batches(partial, batch_format="pyarrow")
    # one exchange: global per-(text, source) doc counts
    agg = parts.groupby(["h1", "h2", "source"]).aggregate(
        Sum("n", alias_name="n")
    )

    def fold(t: pa.Table) -> pa.Table:
        # each (h1, h2, source) row is globally unique here: distinct
        # contribution = 1 per row, docs contribution = n
        g = t.group_by(["source"]).aggregate(
            [("n", "sum"), ("n", "count")]
        )
        return g.rename_columns(["source", "docs", "distinct"])

    from .groupagg import merge_partials

    prof = merge_partials(
        agg.map_batches(fold, batch_format="pyarrow"),
        ["source"], {"docs": "sum", "distinct": "sum"},
    )
    prof = prof.sort_values("source").reset_index(drop=True)
    prof["dup_rate"] = np.round(
        1.0 - prof["distinct"].to_numpy(np.float64)
        / prof["docs"].to_numpy(np.float64),
        6,
    )
    return pd.DataFrame(
        {
            "source": prof["source"],
            "docs": prof["docs"].astype("int64"),
            "n_distinct": prof["distinct"].astype("int64"),
            "dup_rate": prof["dup_rate"],
        }
    )


def common_prefixes(sf_dir: str, w: int = 8, min_docs: int = 2):
    """Boilerplate-prefix detection: token prefixes of length ``w``
    shared by >= ``min_docs`` documents (headers, license banners,
    templated openings — the stuff prefix-dedup strips before
    training). Returns (prefix, n_docs) with the prefix rendered as a
    canonical '-'-joined id string.

    Scale shape: one streaming scan; each block gathers its >=w-token
    rows into a (k, w) int32 matrix, counts in-block duplicates via a
    void-view np.unique (no per-row hashing loop), and emits
    (prefix-bytes, n) partials — block-distinct-prefix sized. The
    merged table is then thresholded; only content ACTUALLY shared
    across documents survives to the driver, the same
    duplicated-content bound dup_ngram_spans relies on."""
    from ..pipelines.decode import decode_dataset
    from ..pipelines.flagship import ensure_encoded

    _, enc = ensure_encoded(sf_dir)
    ds = decode_dataset(enc, columns=["tokens"])

    empty = pd.DataFrame(
        {"k": pd.Series([], dtype="object"),
         "n_docs": pd.Series([], dtype="int64")}
    )

    def partial(t: pa.Table) -> pd.DataFrame:
        if t.num_rows == 0:
            return empty
        col = t.column("tokens").combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int32)
        offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        rel = offs - offs[0]
        lens = np.diff(rel)
        starts = rel[:-1][lens >= w]
        if starts.size == 0:
            return empty
        mat = np.ascontiguousarray(
            flat[starts[:, None] + np.arange(w, dtype=np.int64)]
        )
        keys = mat.view(np.dtype((np.void, w * 4)))[:, 0]
        u, c = np.unique(keys, return_counts=True)
        return pd.DataFrame(
            {"k": [v.tobytes() for v in u],
             "n_docs": c.astype(np.int64)}
        )

    from .groupagg import merge_partials

    agg = merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["k"], {"n_docs": "sum"},
    )
    agg = agg[agg["n_docs"] >= min_docs]
    pref = [
        "-".join(str(x) for x in np.frombuffer(k, dtype=np.int32))
        for k in agg["k"]
    ]
    out = pd.DataFrame(
        {"prefix": pref, "n_docs": agg["n_docs"].to_numpy()}
    )
    return (
        out.sort_values(["n_docs", "prefix"], ascending=[False, True])
        .reset_index(drop=True)
    )
