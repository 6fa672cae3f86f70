"""Similarity search over the embeddings table.

- brute-force cosine top-k: the baseline — numpy matmul per batch
  against a broadcast query matrix (ray.put once, read per actor).
- IVF-bucketed variant: coarse k-means-ish centroids from a sample,
  batches route vectors to nearest centroid, search probes only the
  closest buckets — the 100TB scale path (bounded candidate set).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

from .pool import task_state as _task_state


def _emb(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )


# pin (materialize) a repeatedly-scanned dataset only while its
# metadata size estimate stays under this fraction of the cluster's
# object store — past that, re-reading pruned parquet per pass beats
# forcing the store into spill for the whole run
_PIN_FRACTION = 0.25


def _should_pin(ds) -> bool:
    """True when ``ds`` (by metadata estimate, no execution) fits in
    _PIN_FRACTION of the cluster object store; unknown sizes never
    pin."""
    import ray

    try:
        est = ds.size_bytes()
        cap = ray.cluster_resources().get("object_store_memory", 0.0)
    except Exception:
        return False
    return bool(est and cap and est <= _PIN_FRACTION * cap)


def _query_vector(sf_dir: str) -> tuple[int, np.ndarray]:
    """Deterministic query: the embedding of the smallest vec_id.

    The min is a distributed single-column reduce (Dataset.min over the
    pruned vec_id column) and the one matching row is fetched with a
    predicate-pushdown read (row-group pruning) — the r01 version
    materialized the whole embeddings file on the driver."""
    import pyarrow.parquet as pq
    import ray.data

    path = os.path.join(sf_dir, "embeddings.parquet")
    qid = int(ray.data.read_parquet(path, columns=["vec_id"]).min("vec_id"))
    t = pq.read_table(
        path, columns=["vec_id", "embedding"], filters=[("vec_id", "==", qid)]
    )
    q = np.array(t.column("embedding")[0].as_py(), dtype=np.float64)
    return qid, q


def ann_topk(sf_dir: str, k: int = 10):
    """Brute-force cosine top-k against the deterministic query vector.
    Per-batch partial top-k (numpy matmul) then a tiny global merge —
    no full sort of the corpus."""
    import ray

    qid, q = _query_vector(sf_dir)
    qn = q / (np.linalg.norm(q) or 1.0)
    q_ref = ray.put(qn)

    class Scorer:
        def __init__(self, ref, k):
            self.q = ray.get(ref)
            self.k = k

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
            norms = np.linalg.norm(m, axis=1)
            norms[norms == 0] = 1.0
            sim = (m @ self.q) / norms
            order = np.argsort(-sim, kind="stable")[: self.k]
            return pd.DataFrame(
                {
                    "vec_id": df["vec_id"].to_numpy()[order],
                    "sim": np.round(sim[order], 6),
                }
            )

    partials = _emb(sf_dir).map_batches(
        _task_state(lambda: Scorer(q_ref, k)),
        batch_format="pandas",
        batch_size=8192,
    )
    df = partials.to_pandas()
    df = df.sort_values(["sim", "vec_id"], ascending=[False, True]).head(k)
    # only ids are oracle-compared: DuckDB computes cosine in float32,
    # numpy in float64 — the top-k SET is stable, the 7th decimal isn't
    return df[["vec_id"]].reset_index(drop=True)


def ann_topk_ivf(sf_dir: str, k: int = 10, n_centroids: int = 8, n_probe: int = 2):
    """IVF variant: centroids from a deterministic sample; only the
    n_probe closest buckets are scanned. Results may differ from exact
    top-k (approximate by design) — rows-only check."""
    import ray

    qid, q = _query_vector(sf_dir)
    qn = q / (np.linalg.norm(q) or 1.0)

    # deterministic centroid init: n_centroids * 16 vectors STRATIFIED
    # across fragments and row groups (plan.sample_fragments — the same
    # distributed bounded-sample pass the codec plan uses; a
    # source-ordered corpus would otherwise train centroids on one
    # source, VERDICT r02 #6), then 5 Lloyd iterations on the sample
    from ..plan import sample_fragments

    n_sample = n_centroids * 16
    head = sample_fragments(
        [os.path.join(sf_dir, "embeddings.parquet")],
        rows_per_fragment=n_sample,
        columns=["embedding"],
    )
    sample = np.stack(
        head.column("embedding").to_numpy(zero_copy_only=False)
    ).astype(np.float64)
    cent = sample[:n_centroids].copy()
    for _ in range(5):
        d = ((sample[:, None, :] - cent[None, :, :]) ** 2).sum(-1)
        assign = d.argmin(1)
        for c in range(n_centroids):
            pts = sample[assign == c]
            if len(pts):
                cent[c] = pts.mean(0)
    probe = np.argsort(((cent - q) ** 2).sum(1))[:n_probe]
    cent_ref = ray.put((cent, set(int(p) for p in probe), qn))

    class IvfScorer:
        def __init__(self, ref, k):
            self.cent, self.probe, self.q = ray.get(ref)
            self.k = k

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
            d = ((m[:, None, :] - self.cent[None, :, :]) ** 2).sum(-1)
            bucket = d.argmin(1)
            keep = np.isin(bucket, list(self.probe))
            if not keep.any():
                return pd.DataFrame(
                    {"vec_id": pd.Series([], dtype="int64"),
                     "sim": pd.Series([], dtype="float64")}
                )
            m = m[keep]
            ids = df["vec_id"].to_numpy()[keep]
            norms = np.linalg.norm(m, axis=1)
            norms[norms == 0] = 1.0
            sim = (m @ self.q) / norms
            order = np.argsort(-sim, kind="stable")[: self.k]
            return pd.DataFrame(
                {"vec_id": ids[order], "sim": np.round(sim[order], 6)}
            )

    partials = _emb(sf_dir).map_batches(
        _task_state(lambda: IvfScorer(cent_ref, k)),
        batch_format="pandas",
        batch_size=8192,
    )
    df = partials.to_pandas()
    df = df.sort_values(["sim", "vec_id"], ascending=[False, True]).head(k)
    return df.reset_index(drop=True)


def embedding_centroids(sf_dir: str):
    """Per-label mean embedding (the vector aggregate behind k-means /
    class prototypes), returned LONG — one (label, pos, mean) row per
    vector dimension — so the result is plain scalars the SQL oracle
    can cross-check (unnest + generate_subscripts per position).

    Scale shape: per-batch scatter-add partials (np.add.at of the
    (rows x dim) float64 matrix onto per-label accumulators) emit
    labels x dim sum rows per block; ONE groupby-sum over
    (label, pos) — labels x dim cardinality, never rows — and a
    closed-form mean finish. The canonical sufficient-statistic
    aggregate, same family as analytics.stats_moments."""
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["label", "embedding"],
    )

    def partial(t: pa.Table) -> pa.Table:
        col = t.column("embedding").combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False)
        if flat.size == 0:
            return pa.table(
                {"label": pa.array([], pa.int64()),
                 "pos": pa.array([], pa.int64()),
                 "s": pa.array([], pa.float64()),
                 "n": pa.array([], pa.int64())}
            )
        offs = col.offsets.to_numpy(zero_copy_only=False)
        dim = int(offs[1] - offs[0])
        mat = flat.astype(np.float64).reshape(-1, dim)
        labels = t.column("label").to_numpy(zero_copy_only=False)
        uniq, codes = np.unique(labels, return_inverse=True)
        sums = np.zeros((uniq.size, dim), dtype=np.float64)
        np.add.at(sums, codes, mat)
        cnt = np.bincount(codes).astype(np.int64)
        return pa.table(
            {
                "label": pa.array(
                    np.repeat(uniq.astype(np.int64), dim), pa.int64()
                ),
                "pos": pa.array(
                    np.tile(np.arange(1, dim + 1, dtype=np.int64), uniq.size),
                    pa.int64(),
                ),
                "s": pa.array(sums.ravel(), pa.float64()),
                "n": pa.array(np.repeat(cnt, dim), pa.int64()),
            }
        )

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby(
        ["label", "pos"]
    ).aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n"))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "label": df["label"].astype("int64"),
                "pos": df["pos"].astype("int64"),
                "mean": np.round(
                    df["s"].to_numpy() / df["n"].to_numpy(), 6
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pandas")


def kmeans_embeddings(
    sf_dir: str, k: int = 8, iters: int = 3, pin: bool | None = None
):
    """Distributed Lloyd's k-means over the embedding column — the
    canonical ITERATIVE Ray pattern: centroids broadcast via ray.put,
    each iteration is ONE streaming map_batches emitting per-centroid
    sufficient statistics (count, vector sum, within-cluster squared
    distance), merged on the driver at k x dim cardinality, centroids
    updated closed-form. Deterministic init: the k hash-smallest
    vec_ids (md5 parity with the sampling family), so every run and
    engine version converges identically.

    Rows-only driver check (iterative, no SQL form); pytest pins the
    result against a serial numpy reference on the same data. Scale
    shape: per-iteration cost = one corpus scan + a k x dim broadcast;
    empty clusters keep their previous centroid (standard Lloyd
    fallback). Returns per-cluster size and inertia plus the centroid
    checksum so the output is summary-scaled.

    ``pin`` (VERDICT r04 #4): the table is scanned iters+1 times, so
    caching it in the object store saves repeated parquet reads — but
    pinning the full (column-pruned) corpus is only safe when it fits
    comfortably. pin=None auto-decides from the dataset's metadata
    size estimate vs cluster object-store capacity (_PIN_FRACTION);
    past the gate each iteration re-creates the pruned parquet read
    and streams, leaving the object store free. Both modes are
    pytest-pinned to the same serial reference."""
    import ray
    import ray.data

    from .sampling import _md5_u64

    if pin is None:
        pin = _should_pin(_emb(sf_dir))
    if pin:
        cached = _emb(sf_dir).materialize()  # scanned iters+1 times
        scan = lambda: cached  # noqa: E731
    else:
        scan = lambda: _emb(sf_dir)  # fresh pruned read per pass  # noqa: E731
    ds = scan()

    # ---- deterministic seeds: k hash-smallest vec_ids (select-k) ----
    def seed_part(df: pd.DataFrame) -> pd.DataFrame:
        h = _md5_u64(df["vec_id"].to_numpy())
        o = np.lexsort((df["vec_id"].to_numpy(), h))[:k]
        out = df.iloc[o][["vec_id", "embedding"]].copy()
        out["h"] = h[o]
        return out

    cand = (
        ds.map_batches(seed_part, batch_format="pandas")
        .to_pandas()
        .sort_values(["h", "vec_id"])
        .head(k)
    )
    k = min(k, len(cand))  # fewer rows than clusters: clamp
    cent = np.stack(
        [np.asarray(e, dtype=np.float64) for e in cand["embedding"]]
    )

    for _ in range(max(1, int(iters))):
        cref = ray.put(cent)

        def stats(df: pd.DataFrame, _memo={}) -> pd.DataFrame:
            if "c" not in _memo:
                _memo["c"] = ray.get(cref)  # k x dim, tiny
            c = _memo["c"]
            if df.empty:
                return pd.DataFrame(
                    {"cl": pd.Series([], dtype="int64"),
                     "n": pd.Series([], dtype="int64"),
                     "sse": pd.Series([], dtype="float64"),
                     **{f"s{j}": pd.Series([], dtype="float64")
                        for j in range(c.shape[1])}}
                )
            x = np.stack(
                [np.asarray(e, dtype=np.float64) for e in df["embedding"]]
            )
            d2 = (
                (x * x).sum(1)[:, None]
                - 2.0 * (x @ c.T)
                + (c * c).sum(1)[None, :]
            )
            a = d2.argmin(1)
            n = np.bincount(a, minlength=k).astype(np.int64)
            s = np.zeros_like(c)
            np.add.at(s, a, x)
            sse = np.bincount(a, weights=d2[np.arange(len(a)), a],
                              minlength=k)
            rows = {"cl": np.arange(k, dtype=np.int64), "n": n,
                    "sse": sse}
            for j in range(c.shape[1]):
                rows[f"s{j}"] = s[:, j]
            return pd.DataFrame(rows)

        parts = (
            scan()
            .map_batches(stats, batch_format="pandas")
            .to_pandas()
            .groupby("cl", as_index=False)
            .sum()  # k x (dim+2) — summary-scaled driver merge
        )
        n = parts["n"].to_numpy(np.float64)
        s = parts[[f"s{j}" for j in range(cent.shape[1])]].to_numpy()
        nz = n > 0
        cent = np.where(nz[:, None], s / np.maximum(n, 1)[:, None], cent)
        sizes = parts["n"].to_numpy(np.int64)
        inertia = parts["sse"].to_numpy(np.float64)

    return pd.DataFrame(
        {"cluster": np.arange(k, dtype=np.int64),
         "size": sizes,
         "inertia": np.round(inertia, 4),
         "centroid_norm": np.round(np.linalg.norm(cent, axis=1), 6)}
    )
