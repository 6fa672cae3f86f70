"""Round-4 third-continuation operators: token_run_stats, bm25_topk,
unigram_logprob, length_band_filter over the flagship tokens corpus;
dense_rank_day / cume_dist_value / first_last_event window ops (incl.
forced block straddles) and the full outer join."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def _tokens_glob():
    from fastparquet_ray.pipelines.flagship import ensure_encoded

    paths, _ = ensure_encoded(SF)
    return paths[0].rsplit("/", 1)[0] + "/*.parquet"


# ---------------------------------------------------------------- tokens ops


def test_token_run_stats_vs_duckdb(ray_session):
    from fastparquet_ray.functions.sketches import token_run_stats

    glob = _tokens_glob()
    got = token_run_stats(SF)
    exp = duckdb.connect().execute(
        "SELECT source, CAST(sum(len(tokens)) AS BIGINT) AS n_tokens, "
        "CAST(sum(len(list_filter(list_zip(tokens, tokens[2:]), "
        "p -> p[1] IS DISTINCT FROM p[2]))) AS BIGINT) AS n_runs "
        f"FROM read_parquet('{glob}') GROUP BY source ORDER BY source"
    ).df()
    assert got["source"].tolist() == exp["source"].tolist()
    assert got["n_tokens"].tolist() == exp["n_tokens"].tolist()
    assert got["n_runs"].tolist() == exp["n_runs"].tolist()
    # runs must actually compress: zipf+geometric corpus has mean
    # run length well above 1
    assert (got["avg_run_len"] > 1.5).all()


def test_token_run_stats_doc_boundary(ray_session):
    """Adjacent docs where one ends with the token the next starts
    with: runs must NOT span documents."""
    from fastparquet_ray.functions import sketches

    # direct check of the boundary semantics via the SQL definition
    glob = _tokens_glob()
    con = duckdb.connect()
    # count flat-stream runs ignoring boundaries vs per-doc runs: the
    # corpus is zipf-heavy (token 0 everywhere), so the two MUST
    # differ — proving the test data exercises the boundary case the
    # engine forces via end[last_pos] = True
    per_doc = con.execute(
        "SELECT sum(len(list_filter(list_zip(tokens, tokens[2:]), "
        "p -> p[1] IS DISTINCT FROM p[2]))) "
        f"FROM read_parquet('{glob}')"
    ).fetchone()[0]
    t = con.execute(
        f"SELECT unnest(tokens) AS tok FROM read_parquet('{glob}')"
    ).df()["tok"].to_numpy()
    flat_runs = 1 + int(np.count_nonzero(t[1:] != t[:-1]))
    assert flat_runs < per_doc  # boundaries add runs
    got = sketches.token_run_stats(SF)
    assert int(got["n_runs"].sum()) == int(per_doc)


def test_bm25_topk_vs_duckdb(ray_session):
    from fastparquet_ray.functions.sketches import bm25_topk

    glob = _tokens_glob()
    got = bm25_topk(SF, top=15)
    exp = duckdb.connect().execute(
        "WITH s AS (SELECT CAST(count(*) AS DOUBLE) AS n, "
        f"CAST(sum(n_tok) AS DOUBLE) AS tot FROM read_parquet('{glob}')), "
        "tf AS (SELECT doc_id, CAST(n_tok AS DOUBLE) AS dl, "
        "CAST(len(list_filter(tokens, x -> x = 97)) AS DOUBLE) AS tf0, "
        "CAST(len(list_filter(tokens, x -> x = 251)) AS DOUBLE) AS tf1, "
        "CAST(len(list_filter(tokens, x -> x = 1009)) AS DOUBLE) AS tf2, "
        "CAST(len(list_filter(tokens, x -> x = 4999)) AS DOUBLE) AS tf3 "
        f"FROM read_parquet('{glob}')), "
        "d AS (SELECT count(*) FILTER (tf0 > 0) AS df0, "
        "count(*) FILTER (tf1 > 0) AS df1, "
        "count(*) FILTER (tf2 > 0) AS df2, "
        "count(*) FILTER (tf3 > 0) AS df3 FROM tf) "
        "SELECT doc_id, round("
        "ln((s.n - d.df0 + 0.5) / (d.df0 + 0.5) + 1.0) * "
        "(tf0 * (1.2 + 1.0) / (tf0 + 1.2 * (1.0 - 0.75 + 0.75 * dl / (s.tot / s.n)))) + "
        "ln((s.n - d.df1 + 0.5) / (d.df1 + 0.5) + 1.0) * "
        "(tf1 * (1.2 + 1.0) / (tf1 + 1.2 * (1.0 - 0.75 + 0.75 * dl / (s.tot / s.n)))) + "
        "ln((s.n - d.df2 + 0.5) / (d.df2 + 0.5) + 1.0) * "
        "(tf2 * (1.2 + 1.0) / (tf2 + 1.2 * (1.0 - 0.75 + 0.75 * dl / (s.tot / s.n)))) + "
        "ln((s.n - d.df3 + 0.5) / (d.df3 + 0.5) + 1.0) * "
        "(tf3 * (1.2 + 1.0) / (tf3 + 1.2 * (1.0 - 0.75 + 0.75 * dl / (s.tot / s.n))))"
        ", 6) AS score FROM tf, s, d "
        "WHERE tf0 > 0 OR tf1 > 0 OR tf2 > 0 OR tf3 > 0 "
        "ORDER BY score DESC, doc_id LIMIT 15"
    ).df()
    assert got["doc_id"].tolist() == exp["doc_id"].tolist()
    np.testing.assert_allclose(got["score"], exp["score"], atol=1e-6)


def test_unigram_logprob_vs_duckdb(ray_session):
    from fastparquet_ray.functions.sketches import unigram_logprob

    glob = _tokens_glob()
    got = unigram_logprob(SF)
    exp = duckdb.connect().execute(
        "WITH flat AS (SELECT source, unnest(tokens) AS tok FROM "
        f"read_parquet('{glob}')), "
        "freq AS (SELECT tok, count(*) AS n FROM flat GROUP BY tok), "
        "tot AS (SELECT CAST(sum(n) AS DOUBLE) AS total FROM freq) "
        "SELECT source, count(*) AS n_tokens, "
        "round(avg(ln(freq.n / tot.total)), 6) AS avg_logprob "
        "FROM flat JOIN freq USING (tok) CROSS JOIN tot "
        "GROUP BY source ORDER BY source"
    ).df()
    assert got["source"].tolist() == exp["source"].tolist()
    assert got["n_tokens"].tolist() == exp["n_tokens"].tolist()
    np.testing.assert_allclose(
        got["avg_logprob"], exp["avg_logprob"], atol=1e-6
    )


def test_length_band_filter_vs_duckdb(ray_session):
    from fastparquet_ray.functions.sketches import length_band_filter

    glob = _tokens_glob()
    got = length_band_filter(SF)
    exp = duckdb.connect().execute(
        "WITH q AS (SELECT "
        "quantile_cont(CAST(n_tok AS DOUBLE), 0.05) AS lo, "
        "quantile_cont(CAST(n_tok AS DOUBLE), 0.95) AS hi FROM "
        f"read_parquet('{glob}')) "
        "SELECT source, count(*) AS n, "
        "CAST(sum(n_tok) AS BIGINT) AS sum_tok, "
        "round(any_value(q.lo), 6) AS lo, round(any_value(q.hi), 6) AS hi "
        f"FROM read_parquet('{glob}'), q "
        "WHERE n_tok >= q.lo AND n_tok <= q.hi "
        "GROUP BY source ORDER BY source"
    ).df()
    assert got["source"].tolist() == exp["source"].tolist()
    assert got["n"].tolist() == exp["n"].tolist()
    assert got["sum_tok"].tolist() == exp["sum_tok"].tolist()
    np.testing.assert_allclose(got["lo"], exp["lo"], atol=1e-6)
    np.testing.assert_allclose(got["hi"], exp["hi"], atol=1e-6)
    # the band must actually trim (5% off each tail)
    total = duckdb.connect().execute(
        f"SELECT count(*) FROM read_parquet('{glob}')"
    ).fetchone()[0]
    assert got["n"].sum() < total


# ------------------------------------------------------------- window / join


@pytest.fixture(scope="module")
def ev_dir(tmp_path_factory):
    """Events with heavy same-day ties + multi-day users, plus the
    documents/embeddings pair for the full outer join (partial id
    overlap so both unmatched directions occur)."""
    d = tmp_path_factory.mktemp("r4e_sf")
    rng = np.random.default_rng(7)
    n = 4000
    base = pd.Timestamp("2024-03-01")
    # 12 users, ~20 days, events clustered so days straddle blocks
    ts = base + pd.to_timedelta(
        np.sort(rng.integers(0, 20 * 86_400, n)) * 1_000_000
        + rng.integers(0, 1_000_000, n),
        unit="us",
    )
    events = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "ts": ts.astype("datetime64[us]"),
            "user_id": np.concatenate(
                [rng.integers(0, 12, n - 2), np.array([700, 701])]
            ).astype(np.int64),
            "event_type": rng.choice(["view", "click", "error"], n),
            "value": np.round(rng.normal(10, 4, n), 4),
        }
    )
    pq.write_table(
        pa.Table.from_pandas(events), d / "events.parquet",
        row_group_size=256,
    )
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(600, dtype=np.int64),
            "source": rng.choice(
                [f"src{i}" for i in range(10)], 600
            ),
        }
    )
    pq.write_table(
        pa.Table.from_pandas(docs), d / "documents.parquet",
        row_group_size=128,
    )
    emb = pd.DataFrame(
        {
            "vec_id": np.arange(300, 900, dtype=np.int64),
            "label": rng.integers(0, 10, 600).astype(np.int32),
        }
    )
    pq.write_table(
        pa.Table.from_pandas(emb), d / "embeddings.parquet",
        row_group_size=128,
    )
    return str(d)


def _duck(ev_dir):
    con = duckdb.connect()
    for t in ["events", "documents", "embeddings"]:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{ev_dir}/{t}.parquet')"
        )
    return con


def test_dense_rank_day_vs_duckdb(ray_session, ev_dir):
    from fastparquet_ray.functions.analytics import dense_rank_day

    got = (
        dense_rank_day(ev_dir)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    exp = _duck(ev_dir).execute(
        "SELECT event_id, user_id, CAST(dense_rank() OVER ("
        "PARTITION BY user_id ORDER BY date_trunc('day', ts)) "
        "AS BIGINT) AS dr FROM events ORDER BY event_id"
    ).df()
    assert got["dr"].tolist() == exp["dr"].tolist()
    assert got["user_id"].tolist() == exp["user_id"].tolist()


def test_dense_rank_day_straddling_blocks(ray_session, ev_dir):
    """Tiny blocks force users AND days to span many sorted blocks:
    the O(blocks) border chain must heal the distinct-day offsets
    (incl. the double-counted boundary day)."""
    from ray.data import DataContext

    from fastparquet_ray.functions.analytics import dense_rank_day

    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 8 * 1024
    try:
        got = (
            dense_rank_day(ev_dir)
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
    finally:
        ctx.target_max_block_size = old
    exp = _duck(ev_dir).execute(
        "SELECT event_id, CAST(dense_rank() OVER ("
        "PARTITION BY user_id ORDER BY date_trunc('day', ts)) "
        "AS BIGINT) AS dr FROM events ORDER BY event_id"
    ).df()
    assert got["dr"].tolist() == exp["dr"].tolist()


def test_cume_dist_vs_duckdb(ray_session, ev_dir):
    from fastparquet_ray.functions.analytics import cume_dist_value

    got = (
        cume_dist_value(ev_dir)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    exp = _duck(ev_dir).execute(
        "SELECT event_id, ROUND(cume_dist() OVER ("
        "PARTITION BY user_id ORDER BY value, event_id), 6) AS cd "
        "FROM events ORDER BY event_id"
    ).df()
    np.testing.assert_allclose(got["cd"], exp["cd"], atol=1e-6)


def test_first_last_event_vs_duckdb(ray_session, ev_dir):
    from fastparquet_ray.functions.analytics import first_last_event

    got = first_last_event(ev_dir)
    exp = _duck(ev_dir).execute(
        "SELECT user_id, "
        "first(event_type ORDER BY ts, event_id) AS first_type, "
        "last(event_type ORDER BY ts, event_id) AS last_type, "
        "count(*) AS n FROM events GROUP BY user_id ORDER BY user_id"
    ).df()
    assert got["user_id"].tolist() == exp["user_id"].tolist()
    assert got["first_type"].tolist() == exp["first_type"].tolist()
    assert got["last_type"].tolist() == exp["last_type"].tolist()
    assert got["n"].tolist() == exp["n"].tolist()
    # single-event users: first == last
    one = got[got["n"] == 1]
    assert (one["first_type"] == one["last_type"]).all()


def test_full_outer_join_vs_duckdb(ray_session, ev_dir):
    from fastparquet_ray.functions.relational import full_outer_join

    got = full_outer_join(ev_dir)
    exp = _duck(ev_dir).execute(
        "SELECT coalesce(d.source, '(none)') AS source, "
        "CAST(coalesce(e.label, -1) AS BIGINT) AS label, "
        "count(*) AS n FROM "
        "(SELECT doc_id, source FROM documents WHERE source IN "
        "('src0','src1','src2','src3','src4')) d "
        "FULL OUTER JOIN "
        "(SELECT vec_id, label FROM embeddings WHERE label < 3) e "
        "ON d.doc_id = e.vec_id GROUP BY 1, 2 ORDER BY source, label"
    ).df()
    assert got["source"].tolist() == exp["source"].tolist()
    assert got["label"].tolist() == exp["label"].tolist()
    assert got["n"].tolist() == exp["n"].tolist()
    # both unmatched directions must be present in the fixture
    assert (got["source"] == "(none)").any()  # right-only rows
    assert (got["label"] == -1).any()  # left-only rows


def test_percent_rank_cume_dist_shared_engine(ray_session, ev_dir):
    """The refactored shared engine serves both scalings."""
    from fastparquet_ray.functions.analytics import percent_rank_value

    got = (
        percent_rank_value(ev_dir)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    exp = _duck(ev_dir).execute(
        "SELECT event_id, ROUND(percent_rank() OVER ("
        "PARTITION BY user_id ORDER BY value, event_id), 6) AS pr "
        "FROM events ORDER BY event_id"
    ).df()
    np.testing.assert_allclose(got["pr"], exp["pr"], atol=1e-6)


def test_interarrival_stats_vs_duckdb(ray_session, ev_dir):
    from fastparquet_ray.functions.analytics import interarrival_stats

    got = interarrival_stats(ev_dir)
    exp = _duck(ev_dir).execute(
        "SELECT user_id, count(*) AS n, "
        "round(CAST(epoch_us(max(ts)) - epoch_us(min(ts)) AS DOUBLE) "
        "/ 1000000.0 / (count(*) - 1), 6) AS avg_gap_s "
        "FROM events GROUP BY user_id HAVING count(*) >= 2 "
        "ORDER BY user_id"
    ).df()
    assert got["user_id"].tolist() == exp["user_id"].tolist()
    assert got["n"].tolist() == exp["n"].tolist()
    np.testing.assert_allclose(got["avg_gap_s"], exp["avg_gap_s"], atol=1e-6)


def _transitions_sql(con):
    return con.execute(
        "SELECT event_type AS from_type, nxt AS to_type, count(*) AS n "
        "FROM (SELECT event_type, lead(event_type) OVER ("
        "PARTITION BY user_id ORDER BY ts, event_id) AS nxt FROM events) "
        "WHERE nxt IS NOT NULL GROUP BY 1, 2 ORDER BY from_type, to_type"
    ).df()


def test_event_transitions_vs_duckdb(ray_session, ev_dir):
    from fastparquet_ray.functions.analytics import event_transitions

    got = event_transitions(ev_dir)
    exp = _transitions_sql(_duck(ev_dir))
    assert got["from_type"].tolist() == exp["from_type"].tolist()
    assert got["to_type"].tolist() == exp["to_type"].tolist()
    assert got["n"].tolist() == exp["n"].tolist()


def test_event_transitions_straddling_blocks(ray_session, ev_dir):
    """Tiny blocks: boundary pairs (last row of block i -> first row
    of block i+1, same user) must be recovered by the O(blocks) edge
    stitch — with 8 KB blocks nearly every block boundary splits a
    user, so a missing stitch shifts many counts."""
    from ray.data import DataContext

    from fastparquet_ray.functions.analytics import event_transitions

    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 8 * 1024
    try:
        got = event_transitions(ev_dir)
    finally:
        ctx.target_max_block_size = old
    exp = _transitions_sql(_duck(ev_dir))
    assert got["n"].tolist() == exp["n"].tolist()
    assert int(got["n"].sum()) == int(exp["n"].sum())


def test_top_bigrams_text_vs_duckdb(ray_session, ev_dir):
    """documents fixture has single-word sources? No — synthesize on
    the shared sf0.001 testdata documents table instead (real text)."""
    from fastparquet_ray.functions.textops import top_bigrams_text

    got = top_bigrams_text(SF, top=4)
    exp = duckdb.connect().execute(
        "WITH w AS (SELECT source, string_split(text, ' ') AS ws FROM "
        f"read_parquet('{SF}/documents.parquet')), "
        "b AS (SELECT source, unnest(list_zip(ws, ws[2:])) AS p FROM w), "
        "c AS (SELECT source, p[1] AS w1, p[2] AS w2, count(*) AS n "
        "FROM b WHERE p[2] IS NOT NULL GROUP BY 1, 2, 3), "
        "r AS (SELECT source, w1, w2, n, row_number() OVER ("
        "PARTITION BY source ORDER BY n DESC, w1, w2) AS rn FROM c) "
        "SELECT source, w1, w2, n, rn FROM r WHERE rn <= 4 "
        "ORDER BY source, rn"
    ).df()
    got = got.sort_values(["source", "rn"]).reset_index(drop=True)
    assert got["source"].tolist() == exp["source"].tolist()
    assert got["w1"].tolist() == exp["w1"].tolist()
    assert got["w2"].tolist() == exp["w2"].tolist()
    assert got["n"].tolist() == exp["n"].tolist()


def test_weighted_sample_vs_duckdb(ray_session, ev_dir):
    from fastparquet_ray.functions.sampling import weighted_sample

    got = weighted_sample(SF, k=12)
    exp = duckdb.connect().execute(
        "SELECT doc_id, source, round(ln(CAST(('0x' || "
        "substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))::UBIGINT "
        "AS DOUBLE) / 18446744073709551616.0) "
        "/ greatest(n_chars, 1), 6) AS es_key FROM "
        f"read_parquet('{SF}/documents.parquet') "
        "ORDER BY es_key DESC, doc_id LIMIT 12"
    ).df()
    assert got["doc_id"].tolist() == exp["doc_id"].tolist()
    np.testing.assert_allclose(got["es_key"], exp["es_key"], atol=1e-6)
    # weighting sanity: the sampled docs skew long (the A-ES property)
    med_all = duckdb.connect().execute(
        "SELECT median(n_chars) FROM "
        f"read_parquet('{SF}/documents.parquet')"
    ).fetchone()[0]
    med_got = duckdb.connect().execute(
        "SELECT median(n_chars) FROM "
        f"read_parquet('{SF}/documents.parquet') "
        f"WHERE doc_id IN ({','.join(str(i) for i in got['doc_id'])})"
    ).fetchone()[0]
    assert med_got > med_all


def test_rolling_dau_vs_duckdb(ray_session, ev_dir):
    from fastparquet_ray.functions.analytics import rolling_dau

    got = rolling_dau(ev_dir)
    exp = _duck(ev_dir).execute(
        "WITH p AS (SELECT DISTINCT epoch_us(ts) // 86400000000 "
        "AS day, user_id FROM events), "
        "d AS (SELECT DISTINCT day FROM p) "
        "SELECT d.day, count(DISTINCT CASE WHEN p.day = d.day "
        "THEN p.user_id END) AS dau, "
        "count(DISTINCT p.user_id) AS wau "
        "FROM d JOIN p ON p.day BETWEEN d.day - 6 AND d.day "
        "GROUP BY d.day ORDER BY d.day"
    ).df()
    assert got["day"].tolist() == exp["day"].tolist()
    assert got["dau"].tolist() == exp["dau"].tolist()
    assert got["wau"].tolist() == exp["wau"].tolist()


def test_rolling_dau_gap_intervals(ray_session, tmp_path):
    """A user with active-day gaps just inside/outside the window:
    gap == window keeps one interval alive, gap == window+1 splits it
    (the interval-union correctness knife-edge)."""
    from fastparquet_ray.functions.analytics import rolling_dau

    base = pd.Timestamp("2024-01-01")
    rows = []
    # user 1: days 0 and 6 (gap 6 < 7 -> one interval covering 0..12)
    # user 2: days 0 and 8 (gap 8 > 6 -> two intervals, day 7 uncovered)
    for u, dd in [(1, 0), (1, 6), (2, 0), (2, 8)]:
        rows.append((len(rows), base + pd.Timedelta(days=dd), u))
    ev = pd.DataFrame(rows, columns=["event_id", "ts", "user_id"])
    ev["ts"] = ev["ts"].astype("datetime64[us]")
    ev["event_type"] = "view"
    ev["value"] = 1.0
    d = tmp_path / "dau"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(ev), d / "events.parquet")
    got = rolling_dau(str(d)).set_index("day")
    base_day = int(ev["ts"].astype("int64").min() // 86_400_000_000)
    # observed days: 0, 6, 8 (relative)
    assert got.loc[base_day]["wau"] == 2          # both active day 0
    assert got.loc[base_day + 6]["wau"] == 2      # u1 (days 0,6), u2 (day 0)
    assert got.loc[base_day + 8]["wau"] == 2      # u1 (day 6 in range), u2
    assert got.loc[base_day + 8]["dau"] == 1      # only u2 on day 8


def test_grouped_distinct_approx_accuracy(ray_session, ev_dir):
    """Per-group HLL estimate within ~5% of the exact per-group
    distinct user count (4096 registers -> ~1.6% typical error)."""
    from fastparquet_ray.functions.sketches import grouped_distinct_approx

    got = grouped_distinct_approx(ev_dir).set_index("event_type")
    exp = _duck(ev_dir).execute(
        "SELECT event_type, count(DISTINCT user_id) AS n FROM events "
        "GROUP BY event_type ORDER BY event_type"
    ).df().set_index("event_type")
    assert sorted(got.index) == sorted(exp.index)
    for et in exp.index:
        e, g = int(exp.loc[et, "n"]), int(got.loc[et, "n_users_approx"])
        assert abs(g - e) <= max(2, 0.05 * e), (et, e, g)


def test_quantiles_tdigest_accuracy(ray_session, ev_dir):
    """t-digest estimates within 1.5% RANK error of exact quantiles
    (value tolerance derived by evaluating exact quantiles at
    q +/- 0.015)."""
    from fastparquet_ray.functions.sketches import quantiles_tdigest

    qs = (0.01, 0.25, 0.5, 0.75, 0.99)
    got = quantiles_tdigest(ev_dir, qs=qs)
    con = _duck(ev_dir)
    for q, v in zip(got["q"], got["value_approx"]):
        lo_q, hi_q = max(q - 0.015, 0.0), min(q + 0.015, 1.0)
        lo, hi = con.execute(
            f"SELECT quantile_cont(value, {lo_q}), "
            f"quantile_cont(value, {hi_q}) FROM events"
        ).fetchone()
        assert lo - 1e-9 <= v <= hi + 1e-9, (q, v, lo, hi)


def test_tdigest_compress_invariants():
    """Pure-kernel check: compression preserves total weight and mean,
    stays sorted, and shrinks the tail clusters (k1 bound)."""
    from fastparquet_ray.functions.sketches import _tdigest_compress

    rng = np.random.default_rng(3)
    v = np.sort(rng.normal(0, 1, 5000))
    m, w = _tdigest_compress(v, np.ones(v.size), 100.0)
    assert w.sum() == 5000
    np.testing.assert_allclose((m * w).sum() / w.sum(), v.mean(), atol=1e-9)
    assert (np.diff(m) >= 0).all()
    # the 4*N*q*(1-q)/delta bound yields O(delta * ln N) clusters
    # (tail clusters bottom out at weight 1): far below the row count
    assert m.size < 5 * 100
    # tail clusters carry less weight than the middle ones
    assert w[0] < w[w.size // 2] and w[-1] < w[w.size // 2]


# ----------------------------------------------------------------- z-order


def test_morton_kernel_bit_patterns():
    from fastparquet_ray.pipelines.zorder import morton_key, _spread1

    a = np.array([0b1011], dtype=np.uint64)
    assert int(_spread1(a)[0]) == 0b1000101  # bits at even positions
    k = morton_key([np.array([0b11], np.uint64), np.array([0b01], np.uint64)])
    # x bits at even, y bits at odd: x=3 (1,1), y=1 (0,1) -> 0b0111
    assert int(k[0]) == 0b0111
    # 3-column variant round-trips low bits
    k3 = morton_key([np.array([1], np.uint64), np.array([1], np.uint64),
                     np.array([1], np.uint64)])
    assert int(k3[0]) == 0b111


def test_zorder_layout_prunes_both_dims(ray_session, tmp_path):
    """Z-order on (source, n_tok): a 2-D filter must prune shards AND
    decode bit-identical rows; a doc_id-ordered (unclustered) layout
    of the same data cannot prune the n_tok dimension."""
    import duckdb

    from fastparquet_ray.data import write_tokens_dataset
    from fastparquet_ray.pipelines.decode import (
        decode_dataset,
        prune_shards,
        shard_files,
    )
    from fastparquet_ray.pipelines.encode import encode_pipeline

    src = tmp_path / "src"
    paths = write_tokens_dataset(str(src), 12000, n_fragments=8, seed=5)
    zdir = tmp_path / "enc_z"
    encode_pipeline(paths, str(zdir), cluster_by=["source", "n_tok"])
    filters = [("source", "==", "books"),
               ("n_tok", ">=", 100), ("n_tok", "<=", 300)]
    shards = shard_files(str(zdir))
    kept = prune_shards(shards, filters)
    assert len(shards) >= 6
    assert len(kept) < len(shards), (len(kept), len(shards))
    got = (
        decode_dataset(str(zdir), columns=["doc_id", "n_tok"],
                       filters=filters)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    exp = duckdb.connect().execute(
        "SELECT doc_id, n_tok FROM "
        f"read_parquet('{src}/*.parquet') "
        "WHERE source = 'books' AND n_tok BETWEEN 100 AND 300 "
        "ORDER BY doc_id"
    ).df()
    assert got["doc_id"].tolist() == exp["doc_id"].tolist()
    assert got["n_tok"].tolist() == exp["n_tok"].tolist()
    # full roundtrip unchanged by the exchange: row counts match
    assert (
        decode_dataset(str(zdir), columns=["doc_id"]).count() == 12000
    )


def test_zorder_categorical_profile(ray_session, tmp_path):
    """String key column normalizes by its sorted distinct table; the
    profile pass and key derivation agree across blocks."""
    import ray.data

    from fastparquet_ray.pipelines.zorder import (
        add_zkey, zorder_profile,
    )

    t = pa.table(
        {"s": pa.array(["b", "a", "c", "a"]),
         "x": pa.array([1.0, 2.0, 3.0, 4.0])}
    )
    ds = ray.data.from_arrow(t)
    prof = zorder_profile(ds, ["s", "x"])
    assert prof["s"][0] == "cat"
    assert list(prof["s"][1]) == ["a", "b", "c"]
    assert prof["x"] == ("num", 1.0, 4.0)
    out = add_zkey(t, ["s", "x"], prof)
    k = out.column("__zkey__").to_numpy()
    # same (s, x) always maps to the same key; distinct inputs differ
    assert len(set(k)) == 4


def test_morton_kernel_inverse_property():
    """Property: de-interleaving the Morton key recovers both inputs
    exactly over random 32-bit values (hypothesis-style sweep)."""
    from fastparquet_ray.pipelines.zorder import morton_key

    rng = np.random.default_rng(13)
    a = rng.integers(0, 1 << 32, 2000).astype(np.uint64)
    b = rng.integers(0, 1 << 32, 2000).astype(np.uint64)
    k = morton_key([a, b])

    def unspread(x):
        x = x & np.uint64(0x5555555555555555)
        x = (x | (x >> np.uint64(1))) & np.uint64(0x3333333333333333)
        x = (x | (x >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        x = (x | (x >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
        x = (x | (x >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
        x = (x | (x >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
        return x

    np.testing.assert_array_equal(unspread(k), a)
    np.testing.assert_array_equal(unspread(k >> np.uint64(1)), b)


def test_zorder_null_values_stable(ray_session):
    """Nulls in z-order key columns get the stable bucket-0 slot
    (review fix): no undefined uint64 casts, no TypeError on None
    strings, keys deterministic."""
    import ray.data

    from fastparquet_ray.pipelines.zorder import add_zkey, zorder_profile

    t = pa.table(
        {"s": pa.array(["b", None, "a", "b"]),
         "x": pa.array([1.0, 2.0, None, 4.0])}
    )
    prof = zorder_profile(ray.data.from_arrow(t), ["s", "x"])
    assert list(prof["s"][1]) == ["a", "b"]
    out1 = add_zkey(t, ["s", "x"], prof).column("__zkey__").to_numpy()
    out2 = add_zkey(t, ["s", "x"], prof).column("__zkey__").to_numpy()
    np.testing.assert_array_equal(out1, out2)  # deterministic
    # null string ranks as bucket 0 == rank of 'a'; null x as value-min
    assert out1[2] <= out1[0]


def test_token_list_bloom_prunes_and_filters(ray_session, tmp_path):
    """Per-shard blooms over FLATTENED list elements: a rare token
    prunes most shards, and the residual contains-filter returns
    exactly the docs holding it (vs DuckDB list_contains)."""
    import duckdb

    from fastparquet_ray.data import write_tokens_dataset
    from fastparquet_ray.pipelines.decode import (
        decode_dataset, prune_shards, shard_files,
    )
    from fastparquet_ray.pipelines.encode import encode_pipeline

    src = tmp_path / "src"
    paths = write_tokens_dataset(str(src), 8000, n_fragments=8, seed=9)
    enc = tmp_path / "enc_tb"
    encode_pipeline(paths, str(enc), bloom_cols=["tokens"])
    con = duckdb.connect()
    # pick a token appearing in exactly one doc (rarest)
    tok = con.execute(
        "SELECT tok FROM (SELECT unnest(tokens) AS tok FROM "
        f"read_parquet('{src}/*.parquet')) GROUP BY tok "
        "ORDER BY count(*), tok LIMIT 1"
    ).fetchone()[0]
    filters = [("tokens", "contains", int(tok))]
    shards = shard_files(str(enc))
    kept = prune_shards(shards, filters)
    assert len(shards) >= 8
    assert len(kept) < len(shards), (len(kept), len(shards))
    got = (
        decode_dataset(str(enc), columns=["doc_id", "n_tok"],
                       filters=filters)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    exp = con.execute(
        "SELECT doc_id, n_tok FROM "
        f"read_parquet('{src}/*.parquet') "
        f"WHERE list_contains(tokens, {int(tok)}) ORDER BY doc_id"
    ).df()
    assert got["doc_id"].tolist() == exp["doc_id"].tolist()
    assert got["n_tok"].tolist() == exp["n_tok"].tolist()


def test_kmeans_embeddings_vs_serial(ray_session):
    """Distributed Lloyd's iterations match a serial numpy reference
    on the same data and deterministic seeds (block-order float drift
    only)."""
    import pyarrow.parquet as pq_

    from fastparquet_ray.functions.sampling import _md5_u64
    from fastparquet_ray.functions.similarity import kmeans_embeddings

    k, iters = 8, 3
    got = kmeans_embeddings(SF, k=k, iters=iters)
    t = pq_.read_table(f"{SF}/embeddings.parquet",
                       columns=["vec_id", "embedding"])
    vid = t.column("vec_id").to_numpy()
    x = np.stack([np.asarray(e, dtype=np.float64)
                  for e in t.column("embedding").to_pylist()])
    h = _md5_u64(vid)
    o = np.lexsort((vid, h))[:k]
    cent = x[o].copy()
    for _ in range(iters):
        d2 = ((x * x).sum(1)[:, None] - 2.0 * (x @ cent.T)
              + (cent * cent).sum(1)[None, :])
        a = d2.argmin(1)
        n = np.bincount(a, minlength=k)
        sse = np.bincount(a, weights=d2[np.arange(len(a)), a],
                          minlength=k)
        s = np.zeros_like(cent)
        np.add.at(s, a, x)
        nz = n > 0
        cent = np.where(nz[:, None], s / np.maximum(n, 1)[:, None], cent)
    assert got["size"].tolist() == n.tolist()
    np.testing.assert_allclose(got["inertia"], sse, rtol=1e-9, atol=1e-4)
    np.testing.assert_allclose(
        got["centroid_norm"], np.linalg.norm(cent, axis=1), atol=1e-6
    )
    assert got["size"].sum() == len(vid)
    # scale path (VERDICT r04 #4): pin=False re-creates the pruned
    # parquet read every iteration — no materialize() pins the corpus
    # in the object store — and must agree with the pinned mode
    unpinned = kmeans_embeddings(SF, k=k, iters=iters, pin=False)
    assert unpinned["size"].tolist() == got["size"].tolist()
    np.testing.assert_allclose(
        unpinned["inertia"], got["inertia"], rtol=1e-9, atol=1e-4
    )
    np.testing.assert_allclose(
        unpinned["centroid_norm"], got["centroid_norm"], atol=1e-9
    )


def test_should_pin_gate(ray_session):
    """_should_pin: small datasets pin, corpus-scaled estimates and
    unknown sizes never do."""
    from fastparquet_ray.functions.similarity import _should_pin

    class Fake:
        def __init__(self, n):
            self.n = n

        def size_bytes(self):
            return self.n

    import ray

    cap = ray.cluster_resources().get("object_store_memory", 0)
    assert cap > 0
    assert _should_pin(Fake(1024)) is True
    assert _should_pin(Fake(int(cap))) is False
    assert _should_pin(Fake(0)) is False  # unknown -> stream


def test_contains_any_prunes_and_filters(ray_session, tmp_path):
    """contains_any: probe-set shard routing through the element
    blooms; residual np.isin matches DuckDB list_has_any."""
    import duckdb

    from fastparquet_ray.data import write_tokens_dataset
    from fastparquet_ray.pipelines.decode import (
        decode_dataset, prune_shards, shard_files,
    )
    from fastparquet_ray.pipelines.encode import encode_pipeline

    src = tmp_path / "src"
    paths = write_tokens_dataset(str(src), 8000, n_fragments=8, seed=21)
    enc = tmp_path / "enc_ca"
    encode_pipeline(paths, str(enc), bloom_cols=["tokens"])
    con = duckdb.connect()
    toks = [r[0] for r in con.execute(
        "SELECT tok FROM (SELECT unnest(tokens) AS tok FROM "
        f"read_parquet('{src}/*.parquet')) GROUP BY tok "
        "ORDER BY count(*), tok LIMIT 2"
    ).fetchall()]
    filters = [("tokens", "contains_any", [int(t) for t in toks])]
    shards = shard_files(str(enc))
    kept = prune_shards(shards, filters)
    assert len(kept) < len(shards)
    got = (
        decode_dataset(str(enc), columns=["doc_id"], filters=filters)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    exp = con.execute(
        "SELECT doc_id FROM "
        f"read_parquet('{src}/*.parquet') "
        f"WHERE list_has_any(tokens, {[int(t) for t in toks]}) "
        "ORDER BY doc_id"
    ).df()
    assert got["doc_id"].tolist() == exp["doc_id"].tolist()


@pytest.mark.parametrize("dist", ["lognormal", "constant", "bimodal"])
def test_tdigest_adversarial_distributions(dist):
    """Kernel-level rank-error bound on heavy-tailed / degenerate /
    bimodal data: merged two-level digests (block partials -> final
    compress, mirroring the operator) keep every probe quantile
    within 2% rank error."""
    from fastparquet_ray.functions.sketches import _tdigest_compress

    rng = np.random.default_rng(17)
    n = 40000
    if dist == "lognormal":
        v = rng.lognormal(0, 2, n)
    elif dist == "constant":
        v = np.full(n, 3.14)
    else:
        v = np.concatenate(
            [rng.normal(-100, 1, n // 2), rng.normal(100, 1, n // 2)]
        )
    sv = np.sort(v)
    # simulate 8 blocks -> per-block digests -> merged final digest
    ms, ws = [], []
    for blk in np.array_split(v, 8):
        m, w = _tdigest_compress(
            np.sort(blk), np.ones(blk.size), 200.0
        )
        ms.append(m)
        ws.append(w)
    m = np.concatenate(ms)
    w = np.concatenate(ws)
    o = np.argsort(m, kind="mergesort")
    m, w = _tdigest_compress(m[o], w[o], 200.0)
    cum = np.cumsum(w) - w / 2.0
    total = w.sum()
    for q in (0.01, 0.25, 0.5, 0.75, 0.99):
        est = float(np.interp(q * total, cum, m))
        # rank INTERVAL of the estimate (ties span a range: exact
        # estimates on constant data must count as zero error)
        rl = np.searchsorted(sv, est, side="left") / n
        rr = np.searchsorted(sv, est, side="right") / n
        err = 0.0 if rl <= q <= rr else min(abs(q - rl), abs(q - rr))
        assert err <= 0.02, (dist, q, est, rl, rr)


def test_rolling_dau_straddling_blocks(ray_session, ev_dir):
    """Tiny blocks force (user, day) pairs AND runs to straddle many
    sorted blocks: duplicate-pair and overlap corrections must heal
    both the dau counts and the interval-union coverage exactly."""
    from ray.data import DataContext

    from fastparquet_ray.functions.analytics import rolling_dau

    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 4 * 1024
    try:
        got = rolling_dau(ev_dir)
    finally:
        ctx.target_max_block_size = old
    exp = _duck(ev_dir).execute(
        "WITH p AS (SELECT DISTINCT epoch_us(ts) // 86400000000 "
        "AS day, user_id FROM events), "
        "d AS (SELECT DISTINCT day FROM p) "
        "SELECT d.day, count(DISTINCT CASE WHEN p.day = d.day "
        "THEN p.user_id END) AS dau, "
        "count(DISTINCT p.user_id) AS wau "
        "FROM d JOIN p ON p.day BETWEEN d.day - 6 AND d.day "
        "GROUP BY d.day ORDER BY d.day"
    ).df()
    assert got["day"].tolist() == exp["day"].tolist()
    assert got["dau"].tolist() == exp["dau"].tolist()
    assert got["wau"].tolist() == exp["wau"].tolist()


def test_optimize_layout_zorder(ray_session, tmp_path):
    """OPTIMIZE ZORDER composition: unclustered encode -> re-layout
    into z-order under the frozen plan; decoded rows identical, 2-D
    filters prune shards."""
    import duckdb

    from fastparquet_ray.data import write_tokens_dataset
    from fastparquet_ray.pipelines.compact import optimize_layout
    from fastparquet_ray.pipelines.decode import (
        decode_dataset, prune_shards, shard_files,
    )
    from fastparquet_ray.pipelines.encode import encode_pipeline

    src = tmp_path / "src"
    paths = write_tokens_dataset(str(src), 10000, n_fragments=6, seed=3)
    enc = tmp_path / "enc"
    encode_pipeline(paths, str(enc))
    out = tmp_path / "encz"
    s = optimize_layout(str(enc), str(out), ["source", "n_tok"])
    assert s["rows"] == 10000
    filters = [("source", "==", "code"),
               ("n_tok", ">=", 50), ("n_tok", "<=", 200)]
    shards = shard_files(str(out))
    kept = prune_shards(shards, filters)
    assert len(kept) < len(shards)
    got = (
        decode_dataset(str(out), columns=["doc_id", "n_tok"],
                       filters=filters)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    exp = duckdb.connect().execute(
        "SELECT doc_id, n_tok FROM "
        f"read_parquet('{src}/*.parquet') "
        "WHERE source = 'code' AND n_tok BETWEEN 50 AND 200 "
        "ORDER BY doc_id"
    ).df()
    assert got["doc_id"].tolist() == exp["doc_id"].tolist()
    assert got["n_tok"].tolist() == exp["n_tok"].tolist()


def test_bag_set_ops_vs_duckdb(ray_session, tmp_path):
    """INTERSECT ALL / EXCEPT ALL multiplicities vs DuckDB on a small
    synthetic orders table with controlled per-key counts."""
    from fastparquet_ray.functions.relational import (
        except_all_counts, intersect_all_counts,
    )

    rng = np.random.default_rng(5)
    n = 3000
    orders = pd.DataFrame(
        {"o_orderkey": np.arange(n, dtype=np.int64),
         "o_custkey": rng.integers(0, 80, n).astype(np.int64),
         "o_orderstatus": rng.choice(["F", "O", "P"], n,
                                     p=[0.4, 0.4, 0.2]),
         "o_totalprice": rng.uniform(1, 9, n).round(2),
         "o_orderpriority": ["x"] * n}
    )
    d = tmp_path / "bag"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(orders), d / "orders.parquet",
                   row_group_size=256)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW orders AS SELECT * FROM "
        f"read_parquet('{d}/orders.parquet')"
    )
    for fn, op in ((intersect_all_counts, "INTERSECT ALL"),
                   (except_all_counts, "EXCEPT ALL")):
        got = fn(str(d))
        exp = con.execute(
            "SELECT o_custkey, count(*) AS n FROM ("
            "SELECT o_custkey FROM orders WHERE o_orderstatus = 'F' "
            f"{op} "
            "SELECT o_custkey FROM orders WHERE o_orderstatus = 'O'"
            ") GROUP BY o_custkey ORDER BY o_custkey"
        ).df()
        assert got["o_custkey"].tolist() == exp["o_custkey"].tolist()
        assert got["n"].tolist() == exp["n"].tolist()


def test_optimize_layout_keeps_hive_columns(ray_session, tmp_path):
    """OPTIMIZE of a hive layout: the spill flattens the partition
    column into the rows, so the re-layout keeps every row and the
    column."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fastparquet_ray.data import write_tokens_dataset
    from fastparquet_ray.pipelines.compact import optimize_layout
    from fastparquet_ray.pipelines.decode import decode_dataset
    from fastparquet_ray.pipelines.encode import encode_pipeline

    paths = write_tokens_dataset(str(tmp_path / "src"), 3000, n_fragments=3)
    enc = str(tmp_path / "enc")
    encode_pipeline(paths, enc, hive_cols=["source"])
    out = str(tmp_path / "opt")
    s = optimize_layout(enc, out, "doc_id")
    assert s["rows"] == 3000
    got = decode_dataset(out, columns=["doc_id", "source"]).to_pandas()
    orig = pa.concat_tables([pq.read_table(p) for p in paths])
    assert len(got) == 3000
    assert sorted(zip(got["doc_id"], got["source"])) == sorted(
        zip(orig["doc_id"].to_pylist(), orig["source"].to_pylist())
    )
