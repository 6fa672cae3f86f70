"""Text-analysis operators over the documents table: token counting,
quality scoring, document fingerprinting, language-ID — the
training-data-pipeline companions to the encode engine. All are
vectorized map_batches stages; stateful ones (lang-ID profiles) are
actor classes.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd

from .pool import task_state as _task_state
import pyarrow as pa


def _docs(sf_dir: str, columns=None):
    import ray.data

    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=columns
    )


def token_count(sf_dir: str):
    """Whitespace token count per document (oracle-matching definition:
    words = spaces + 1). Vectorized pandas str ops."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        n_words = (df["text"].str.count(" ") + 1).astype("int64")
        return pd.DataFrame({"doc_id": df["doc_id"], "n_words": n_words})

    return ds.map_batches(fn, batch_format="pandas")


class BpeishCounter:
    """BPE-ish regex token counting — the regex is compiled ONCE per
    actor (the stateful-stage pattern, SURVEY ST1 / ray_guide). The
    pattern is RE2-compatible so the DuckDB oracle can run the exact
    same one."""

    PATTERN = r" ?[a-z]+| ?[0-9]+| ?[^ a-z0-9]+"

    def __init__(self):
        import re

        self.pat = re.compile(self.PATTERN)

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        n = [len(self.pat.findall(t)) for t in df["text"].tolist()]
        return pd.DataFrame(
            {"doc_id": df["doc_id"], "n_bpe": pd.Series(n, dtype="int64")}
        )


def token_count_bpe(sf_dir: str):
    ds = _docs(sf_dir, ["doc_id", "text"])
    return ds.map_batches(
        _task_state(BpeishCounter), batch_format="pandas", batch_size=4096
    )


def quality_score(sf_dir: str):
    """Per-source quality aggregates: doc length, word count, average
    word length (reference has no analog; core training-data op).
    Pre-aggregated per batch before the tiny groupby."""
    from ray.data.aggregate import Sum

    ds = _docs(sf_dir, ["source", "text", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # Arrow-native partial aggregation (no pandas hop)
        words = pc.add(
            pc.count_substring(t.column("text"), " "), 1
        ).cast(pa.int64())
        t2 = pa.table(
            {
                "source": t.column("source"),
                "chars": t.column("n_chars").cast(pa.int64()),
                "words": words,
            }
        )
        g = t2.group_by(["source"]).aggregate(
            [("chars", "sum"), ("words", "sum"), ("chars", "count")]
        )
        return g.rename_columns(["source", "sum_chars", "sum_words", "n"])

    parts = ds.map_batches(partial, batch_format="pyarrow")
    agg = parts.groupby("source").aggregate(
        Sum("sum_chars", alias_name="sum_chars"),
        Sum("sum_words", alias_name="sum_words"),
        Sum("n", alias_name="n"),
    )
    df = agg.to_pandas()
    df["avg_chars"] = df["sum_chars"] / df["n"]
    df["avg_words"] = df["sum_words"] / df["n"]
    return df[["source", "avg_chars", "avg_words", "n"]]


def fingerprint(sf_dir: str):
    """Content fingerprint per document (md5, matching DuckDB's md5()
    for the oracle). Distributed via map_batches; the per-row hash loop
    is the hash itself, not pipeline overhead."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        fp = [
            hashlib.md5(t.encode()).hexdigest() for t in df["text"].tolist()
        ]
        return pd.DataFrame({"doc_id": df["doc_id"], "fp": fp})

    return ds.map_batches(fn, batch_format="pandas")


def _pair_sims(a: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
    """Character-set Jaccard for row-aligned frames (matches DuckDB's
    jaccard(s1, s2)); the per-row set work IS the similarity kernel."""
    sim = []
    for x_t, y_t in zip(a["text"], b["text"]):
        x, y = set(x_t), set(y_t)
        sim.append(len(x & y) / len(x | y) if (x | y) else 1.0)
    return pd.DataFrame(
        {
            "id_a": a["doc_id"].to_numpy(),
            "id_b": b["doc_id"].to_numpy(),
            "sim": sim,
        }
    )


_EMPTY_PAIRS = {
    "id_a": pd.Series([], dtype="int64"),
    "id_b": pd.Series([], dtype="int64"),
    "sim": pd.Series([], dtype="float64"),
}


def adjacent_similarity(sf_dir: str):
    """Character-set Jaccard similarity between consecutive documents
    (definition matches DuckDB's jaccard(s1, s2) so the oracle can
    verify a similarity computation end-to-end).

    Distributed: after the range-partitioning sort on doc_id, every
    block computes its intra-block consecutive pairs in parallel; the
    one missing pair per block boundary is reconstructed from each
    block's (first, last) rows — an O(#blocks) driver fix-up, never a
    scan of the data (the r01 version streamed the entire sorted
    dataset through the driver)."""
    import ray.data

    # materialize() pins ONE sorted block layout in the object store
    # (distributed, spillable — never the driver): the intra-pair pass
    # and the boundary-row pass below must see identical block slicing,
    # and two executions of a lazy sort may not slice identically
    ds = _docs(sf_dir, ["doc_id", "text"]).sort("doc_id").materialize()

    def intra(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) < 2:
            return pd.DataFrame(_EMPTY_PAIRS)
        return _pair_sims(
            df.iloc[:-1].reset_index(drop=True),
            df.iloc[1:].reset_index(drop=True),
        )

    pairs_ds = ds.map_batches(intra, batch_format="pandas")

    # block boundary rows: one record per block with its first/last row
    def bounds(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {c: pd.Series([], dtype=df[c].dtype if c in df else object)
                 for c in ["first_id", "first_text", "last_id", "last_text"]}
            )
        return pd.DataFrame(
            {
                "first_id": [df["doc_id"].iloc[0]],
                "first_text": [df["text"].iloc[0]],
                "last_id": [df["doc_id"].iloc[-1]],
                "last_text": [df["text"].iloc[-1]],
            }
        )

    b = (
        ds.map_batches(bounds, batch_format="pandas")
        .to_pandas()  # O(#blocks) rows only
        .sort_values("first_id")
        .reset_index(drop=True)
    )
    if len(b) > 1:
        prev = pd.DataFrame(
            {"doc_id": b["last_id"].iloc[:-1], "text": b["last_text"].iloc[:-1]}
        ).reset_index(drop=True)
        nxt = pd.DataFrame(
            {"doc_id": b["first_id"].iloc[1:], "text": b["first_text"].iloc[1:]}
        ).reset_index(drop=True)
        boundary = _pair_sims(prev, nxt)
    else:
        boundary = pd.DataFrame(_EMPTY_PAIRS)
    if len(boundary):
        return pairs_ds.union(ray.data.from_pandas(boundary))
    return pairs_ds


def quality_filter(sf_dir: str):
    """Corpus cleaning: drop documents failing quality heuristics
    (too short, too long, degenerate average word length — the
    Gopher/C4-style rule shape) and report per-source survivor counts.
    One streaming pass: metrics + filter + partial counts inside
    map_batches, tiny final groupby. Oracle-verified (the rules are
    pure SQL)."""
    from ray.data.aggregate import Sum

    ds = _docs(sf_dir, ["source", "text", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        words = pc.add(pc.count_substring(t.column("text"), " "), 1).cast(
            pa.int64()
        )
        chars = t.column("n_chars").cast(pa.int64())
        awl = pc.divide(pc.cast(chars, pa.float64()), pc.cast(words, pa.float64()))
        keep = pc.and_(
            pc.and_(pc.greater_equal(words, 10), pc.less_equal(words, 2000)),
            pc.and_(pc.greater_equal(awl, 3.0), pc.less_equal(awl, 12.0)),
        )
        kept = pa.table({"source": t.column("source")}).filter(keep)
        g = kept.group_by(["source"]).aggregate([("source", "count")])
        return g.rename_columns(["source", "n_kept"])

    parts = ds.map_batches(partial, batch_format="pyarrow")
    return parts.groupby("source").aggregate(Sum("n_kept", alias_name="n_kept"))


class LangId:
    """Heuristic language ID from character n-gram profiles — a
    stateful actor stage: profiles are built once per actor in
    __init__ (SURVEY.md ST1 pattern). Deterministic; rows-only check
    (the heuristic is not SQL-expressible)."""

    PROFILES = {
        "en": "the and of to in is that it was for on are with as",
        "es": "el la de que y en los se del las un por con una",
        "de": "der die und in den von zu das mit sich des auf",
        "fr": "le de la et les des en un du une que est pour",
        "zh": "的 一 是 在 不 了 有 和 人 这 中 大 为 上",
    }

    def __init__(self):
        self.grams = {}
        for lang, words in self.PROFILES.items():
            g = set()
            for w in words.split():
                s = f" {w} "
                g.update(s[i : i + 2] for i in range(len(s) - 1))
            self.grams[lang] = g

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        preds = []
        for text in df["text"].tolist():
            t = f" {text[:200].lower()} "
            bigrams = {t[i : i + 2] for i in range(len(t) - 1)}
            scores = {
                lang: len(bigrams & g) / max(len(g), 1)
                for lang, g in self.grams.items()
            }
            preds.append(max(sorted(scores), key=lambda k: scores[k]))
        return pd.DataFrame({"doc_id": df["doc_id"], "lang_pred": preds})


def lang_id(sf_dir: str):
    ds = _docs(sf_dir, ["doc_id", "text"])
    return ds.map_batches(
        _task_state(LangId), batch_format="pandas", batch_size=4096
    )


def normalized_dedup(sf_dir: str):
    """Per-source document counts before/after NORMALIZED exact dedup
    (lowercase + whitespace collapse + trim) — the text-cleaning
    variant of dedup_exact that catches trivially-reformatted copies.

    Scale shape (the corpus_clean recipe): normalization and the
    128-bit (source, normalized-text) hash happen block-locally, the
    one exchange is keyed on the 16-byte hash (never the text), and
    the distinct count folds per source from one row per distinct
    key. Hash-grouping ≡ text-grouping modulo 2^-128 collisions, so
    the SQL count(DISTINCT ...) oracle holds."""
    from ray.data.aggregate import Min, Sum

    from .dedup import _text_hash128

    ds = _docs(sf_dir, ["source", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        norm = (
            df["text"]
            .str.replace(r"\s+", " ", regex=True)
            .str.strip()
            .str.lower()
        )
        key = (df["source"] + "\x00" + norm).to_numpy(dtype=object)
        h1, h2 = _text_hash128(key)
        g = pd.DataFrame({"h1": h1, "h2": h2, "source": df["source"],
                          "n": 1})
        return g.groupby(["h1", "h2"], as_index=False).agg(
            source=("source", "min"), n=("n", "sum")
        )

    parts = ds.map_batches(partial, batch_format="pandas")
    agg = parts.groupby(["h1", "h2"]).aggregate(
        Min("source", alias_name="source"), Sum("n", alias_name="n")
    )

    def fold(t: pa.Table) -> pa.Table:
        g = t.group_by(["source"]).aggregate(
            [("source", "count"), ("n", "sum")]
        )
        return g.rename_columns(["source", "n_norm", "n"])

    from .groupagg import merge_partials

    out = merge_partials(
        agg.map_batches(fold, batch_format="pyarrow"),
        ["source"], {"n_norm": "sum", "n": "sum"},
    )
    out = out.sort_values("source").reset_index(drop=True)
    return out[["source", "n", "n_norm"]].astype(
        {"n": "int64", "n_norm": "int64"}
    )


def repetition_ratio(sf_dir: str, threshold: float = 0.15):
    """Gopher-style repetition signal (Rae et al. 2021, public): per
    document, the TOP word-bigram fraction (count of the most frequent
    bigram / total bigrams); per source, the document count, how many
    exceed ``threshold``, and the mean ratio. Repetitive boilerplate
    (the top quality-filter kill in web corpora) shows up as a heavy
    top-bigram share.

    Scale shape: one streaming pass; per block the bigrams are
    factorized EXACTLY (pandas factorize — no hash-collision risk
    against the oracle), packed (doc, code) keys collapse through one
    np.unique, and per-doc max/total fold to per-source scalar
    partials. The exchange is sources-sized. Oracle: the identical
    bigram expansion via DuckDB string_split + list slicing."""
    from .groupagg import merge_partials

    ds = _docs(sf_dir, ["source", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "source": pd.Series([], dtype="object"),
                "n_docs": pd.Series([], dtype="int64"),
                "n_repetitive": pd.Series([], dtype="int64"),
                "sum_ratio": pd.Series([], dtype="float64"),
            }
        )
        if df.empty:
            return empty
        texts = df["text"].tolist()
        bgs: list[str] = []
        nbg = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            ws = t.split(" ")
            n = max(len(ws) - 1, 0)
            nbg[i] = n
            if n:
                bgs.extend(
                    ws[j] + " " + ws[j + 1] for j in range(n)
                )
        keep = nbg > 0  # docs with < 2 words have no ratio (oracle too)
        if not keep.any():
            return empty
        codes, _ = pd.factorize(np.asarray(bgs, dtype=object))
        doc_idx = np.repeat(np.arange(len(texts)), nbg)
        packed = (doc_idx.astype(np.int64) << np.int64(32)) | codes.astype(
            np.int64
        )
        u, c = np.unique(packed, return_counts=True)
        udoc = (u >> np.int64(32)).astype(np.int64)
        # u is sorted, so per-doc runs are contiguous: reduceat max
        starts = np.flatnonzero(
            np.concatenate([[True], udoc[1:] != udoc[:-1]])
        )
        mx = np.maximum.reduceat(c, starts)
        docs = udoc[starts]
        ratio = mx / nbg[docs]
        src = df["source"].to_numpy()[docs]
        out = pd.DataFrame(
            {
                "source": src,
                "n_docs": np.ones(docs.size, dtype=np.int64),
                "n_repetitive": (ratio > threshold).astype(np.int64),
                "sum_ratio": ratio,
            }
        )
        return (
            out.groupby("source", as_index=False, sort=False)
            .agg(
                n_docs=("n_docs", "sum"),
                n_repetitive=("n_repetitive", "sum"),
                sum_ratio=("sum_ratio", "sum"),
            )
        )

    agg = merge_partials(
        ds.map_batches(partial, batch_format="pandas"),
        ["source"],
        {"n_docs": "sum", "n_repetitive": "sum", "sum_ratio": "sum"},
    )
    agg["mean_ratio"] = np.round(agg["sum_ratio"] / agg["n_docs"], 6)
    return (
        agg[["source", "n_docs", "n_repetitive", "mean_ratio"]]
        .sort_values("source")
        .reset_index(drop=True)
    )


# PII patterns shared VERBATIM between the Ray operator and the
# DuckDB oracle (RE2-compatible: no lookaround/backrefs, so python re
# and DuckDB's RE2 match identically; parity pytest-verified on
# adversarial strings). Replacement order is email -> ipv4 -> phone
# on BOTH sides; counts are per-pattern over the ORIGINAL text.
PII_PATTERNS = [
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
     "<EMAIL>"),
    ("ipv4", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("phone", r"\+\d[\d\-]{7,}\d", "<PHONE>"),
]


class PiiScrubber:
    """Compiled-regex redaction state, built once per worker
    (task-state stage): the curation pass C4/Dolma-style pipelines
    run before publishing a corpus."""

    def __init__(self):
        import re

        self.pats = [
            (name, re.compile(pat), repl)
            for name, pat, repl in PII_PATTERNS
        ]

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].tolist()
        red: list[str] = []
        counts = {name: np.zeros(len(texts), dtype=np.int64)
                  for name, _, _ in self.pats}
        for i, t in enumerate(texts):
            s = t
            for name, rx, repl in self.pats:
                counts[name][i] = len(rx.findall(t))
                s = rx.sub(repl, s)
            red.append(s)
        out = pd.DataFrame(
            {"doc_id": df["doc_id"].to_numpy(), "text_redacted": red}
        )
        for name, _, _ in self.pats:
            out[f"n_{name}"] = counts[name]
        return out


def pii_scrub(sf_dir: str):
    """Redact emails / IPv4s / phone numbers from every document and
    count the hits per category — output is the full redacted corpus
    (value-hash-checked against DuckDB's regexp_replace chain), a
    pure per-row stage with zero exchanges."""
    import ray.data

    ds = _docs(sf_dir, ["doc_id", "text"])
    return ds.map_batches(
        _task_state(PiiScrubber), batch_format="pandas",
        batch_size=4096,
    )


# byte -> character-class lookup (0 other, 1 alpha, 2 digit, 3 space).
# ASCII-class counts at the BYTE level equal character-level counts
# for any valid UTF-8 input: multi-byte sequences use only bytes
# >= 0x80, which never collide with the ASCII classes below.
_CHARCLASS_LUT = np.zeros(256, dtype=np.uint8)
_CHARCLASS_LUT[ord("A"):ord("Z") + 1] = 1
_CHARCLASS_LUT[ord("a"):ord("z") + 1] = 1
_CHARCLASS_LUT[ord("0"):ord("9") + 1] = 2
for _b in b" \t\n\r":
    _CHARCLASS_LUT[_b] = 3
del _b


def charclass_profile(sf_dir: str) -> pd.DataFrame:
    """Per-source character-class census (alpha / digit / whitespace
    counts) — the raw material of byte-level corpus quality checks
    (mojibake, number-dump and markup detection).

    Scale shape: zero exchange for the census itself. Each Arrow
    batch is classified as ONE flat uint8 view of the string data
    buffer through a 256-entry lookup table (no per-row or per-char
    Python), folded to (source x class) counts with a single
    bincount on a packed source*4+class key; partials merge through
    groupagg (sources x 3 rows total)."""
    ds = _docs(sf_dir, ["source", "text"])

    empty = pd.DataFrame(
        {"source": pd.Series([], dtype="object"),
         "n_alpha": pd.Series([], dtype="int64"),
         "n_digit": pd.Series([], dtype="int64"),
         "n_space": pd.Series([], dtype="int64")}
    )

    def partial(t: pa.Table) -> pd.DataFrame:
        if t.num_rows == 0:
            return empty
        col = t.column("text").combine_chunks()
        buf = col.buffers()[2]
        if buf is None:
            return empty
        # StringArray exposes no .offsets property — read the offsets
        # buffer directly (int32 for string, int64 for large_string),
        # honoring the array's slice offset
        odt = np.int64 if pa.types.is_large_string(col.type) else np.int32
        offs = np.frombuffer(col.buffers()[1], dtype=odt)[
            col.offset:col.offset + len(col) + 1
        ].astype(np.int64)
        data = np.frombuffer(buf, dtype=np.uint8)
        flat = data[offs[0]:offs[-1]]
        rel = offs - offs[0]
        src = t.column("source").to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(src)
        rid = np.repeat(codes.astype(np.int64), np.diff(rel))
        cls = _CHARCLASS_LUT[flat].astype(np.int64)
        cnt = np.bincount(rid * 4 + cls, minlength=len(uniq) * 4)
        cnt = cnt.reshape(len(uniq), 4)
        return pd.DataFrame(
            {
                "source": uniq,
                "n_alpha": cnt[:, 1].astype("int64"),
                "n_digit": cnt[:, 2].astype("int64"),
                "n_space": cnt[:, 3].astype("int64"),
            }
        )

    from .groupagg import merge_partials

    out = merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source"], {"n_alpha": "sum", "n_digit": "sum", "n_space": "sum"},
    )
    return out.sort_values("source").reset_index(drop=True)


def quality_topp(sf_dir: str, p: float = 0.9):
    """Top-p quality selection: keep only documents whose word count
    sits at or above the corpus p-quantile (quantile_disc semantics —
    the value at rank ceil(p*N)), report per-source kept counts — the
    'take the best decile' curation step between scoring and mixture
    assembly.

    Scale shape: the text column is read ONCE — a narrow
    (source, words) projection is materialized (doc-count-scaled, two
    small columns, object-store spillable), then (a) per-block
    (words, n) value-count partials merge into the exact threshold
    (the exchange is value-range bounded: distinct word counts, never
    docs) and (b) one stateless filter-count pass over the cached
    projection. No sort, no corpus exchange."""
    import pyarrow.compute as pc

    ds = _docs(sf_dir, ["source", "text"])

    def words_of(t: pa.Table) -> pa.Table:
        w = pc.add(pc.count_substring(t.column("text"), " "), 1)
        return pa.table(
            {"source": t.column("source"), "words": w.cast(pa.int64())}
        )

    proj = ds.map_batches(words_of, batch_format="pyarrow").materialize()

    def vc(t: pa.Table) -> pa.Table:
        u, c = np.unique(
            t.column("words").to_numpy(zero_copy_only=False),
            return_counts=True,
        )
        return pa.table(
            {"words": pa.array(u, pa.int64()),
             "n": pa.array(c.astype(np.int64), pa.int64())}
        )

    from .groupagg import merge_partials

    counts = merge_partials(
        proj.map_batches(vc, batch_format="pyarrow"), ["words"], {"n": "sum"}
    ).sort_values("words")
    total = int(counts["n"].sum())
    rank = max(1, int(np.ceil(p * total)))
    cum = counts["n"].cumsum().to_numpy()
    thr = int(counts["words"].to_numpy()[np.searchsorted(cum, rank)])

    def kept(t: pa.Table) -> pa.Table:
        m = pc.greater_equal(t.column("words"), thr)
        f = t.filter(m)
        return (
            f.group_by(["source"])
            .aggregate([("words", "count")])
            .rename_columns(["source", "n_docs"])
        )

    out = merge_partials(
        proj.map_batches(kept, batch_format="pyarrow"),
        ["source"], {"n_docs": "sum"},
    )
    return out.sort_values("source").reset_index(drop=True)


def top_bigrams_text(sf_dir: str, top: int = 5):
    """Most frequent word bigrams per source over documents.text —
    the collocation profile a corpus audit reads next to bigram_pmi
    (which works on token ids; this one works on raw text before
    tokenization). Ranking is (count DESC, w1, w2) with a row_number
    column so the per-source top-`top` set is total-ordered.

    Scale shape: block-local C-level split (pandas .str.split) +
    adjacent pairing over the flattened word stream with row-boundary
    masking (a doc's last word never pairs into the next doc), then
    per-(source, w1, w2) partials merged at bigram-vocabulary
    cardinality (merge_partials sort mode keeps that merge
    distributed when the vocabulary outgrows the driver); the final
    per-source top-k runs on the merged summary frame."""
    from .groupagg import merge_partials

    ds = _docs(sf_dir, ["source", "text"])

    empty = pd.DataFrame(
        {"source": pd.Series([], dtype="object"),
         "w1": pd.Series([], dtype="object"),
         "w2": pd.Series([], dtype="object"),
         "n": pd.Series([], dtype="int64")}
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return empty
        wl = df["text"].str.split(" ")
        lens = wl.str.len().to_numpy(np.int64)
        if lens.sum() < 2:
            return empty
        flat = np.concatenate(wl.to_numpy())
        ends = np.cumsum(lens)
        valid = np.ones(flat.size - 1, dtype=bool)
        valid[ends[:-1] - 1] = False  # no pair across doc boundary
        src = np.repeat(
            df["source"].to_numpy(), lens
        )[:-1][valid]
        g = pd.DataFrame(
            {"source": src,
             "w1": flat[:-1][valid],
             "w2": flat[1:][valid],
             "n": 1}
        )
        return g.groupby(
            ["source", "w1", "w2"], as_index=False
        ).agg(n=("n", "sum"))

    agg = merge_partials(
        ds.map_batches(partial, batch_format="pandas"),
        ["source", "w1", "w2"], {"n": "sum"},
    )
    agg = agg.sort_values(
        ["source", "n", "w1", "w2"],
        ascending=[True, False, True, True],
        kind="mergesort",
    ).reset_index(drop=True)
    agg["rn"] = agg.groupby("source", sort=False).cumcount() + 1
    out = agg[agg["rn"] <= top].reset_index(drop=True)
    out["n"] = out["n"].astype("int64")
    out["rn"] = out["rn"].astype("int64")
    return out
