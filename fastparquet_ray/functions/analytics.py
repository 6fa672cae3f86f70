"""Windowed-analytics and OLAP operators Ray Data lacks natively,
composed from map_batches partials + small groupbys per the documented
composition rules (ray_guide: pre-aggregate before the exchange; keep
the driver to scalar/merge work only).

Partitioning assumptions (documented per the build brief):
- window_rank: co-location by user_id — ONE hash exchange via
  groupby(user_id); a per-batch partial prunes every block to its
  per-user top-k BEFORE the exchange, so the shuffle carries at most
  k rows per (block, user) regardless of corpus size.
- window_lag / running_sum: ONE range sort on (user_id, ts,
  event_id) — no group co-location, so hot users simply span sorted
  blocks — healed by an O(blocks) border fold on the driver.
- rollup / pivot / moments: grouping keys are low-cardinality, so the
  exchange after the per-batch partials is a few-hundred-row groupby;
  all subtotal/pivot/variance math happens on the tiny merged result.
- grouped_quantiles: zero all-to-all — three streaming column scans
  (count/min-max, per-group histogram, candidate-bucket uniques), the
  rank-partition selection of sketches.quantiles generalized to a
  group key. Driver state is O(groups x buckets), never rows.
- left_outer_join: Ray Data's native hash-shuffle join partitions both
  sides by key hash; preserved-but-unmatched left rows surface as NULL
  right columns and aggregate to zero counts downstream.

Reference analogs: the reference engine exposes filtering + groupby
through pandas after materialization (fastparquet api.py:356-475
to_pandas surface); these operators are the distributed counterparts a
100 TB corpus needs, with the same user-visible semantics DuckDB/SQL
defines (each has an oracle_sql entry).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

from .pool import task_state as _task_state
import pyarrow as pa


def _read(sf_dir: str, table: str, columns=None):
    import ray.data

    return ray.data.read_parquet(
        os.path.join(sf_dir, f"{table}.parquet"), columns=columns
    )


# --------------------------------------------------------------------
# window functions: row_number / lag over a partition key
# --------------------------------------------------------------------

def window_rank(sf_dir: str, k: int = 3):
    """row_number() OVER (PARTITION BY user_id ORDER BY ts DESC,
    event_id DESC), keeping each user's k most recent events.

    Scale shape: a per-batch partial first prunes every block to its
    own per-user top-k (a block can contribute at most k rows per user
    to the sort), then ONE range sort on (user_id, ts DESC, event_id
    DESC) — no group co-location, so hot users simply span sorted
    blocks — and a vectorized per-block rank pass. A user straddling
    blocks gets its rank offset (count of the user's rows in earlier
    blocks, the running_sum border recipe with a count fold) from an
    O(blocks) border frame; rows ranked past k are dropped
    block-locally. The sort payload is bounded by k x users x
    blocks-touching-that-user, never the event count."""
    import ray
    import ray.data

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["user_id", "ts", "event_id"],
            ascending=[True, False, False],
            kind="mergesort",
        )
        return df.groupby("user_id", sort=False).head(k)

    srt = (
        ds.map_batches(prune, batch_format="pandas")
        .sort(["user_id", "ts", "event_id"], descending=[False, True, True])
        .materialize()  # consumed twice: border pull + rank pass
    )

    def edge_counts(df: pd.DataFrame) -> pd.DataFrame:
        cols = {
            "user_id": pd.Series([], dtype="int64"),
            "seg_n": pd.Series([], dtype="int64"),
            "seg_ts": pd.Series([], dtype="datetime64[us]"),
            "seg_eid": pd.Series([], dtype="int64"),
            "blk_ts": pd.Series([], dtype="datetime64[us]"),
            "blk_eid": pd.Series([], dtype="int64"),
            "is_first": pd.Series([], dtype="bool"),
            "is_last": pd.Series([], dtype="bool"),
        }
        if df.empty:
            return pd.DataFrame(cols)
        u = df["user_id"].to_numpy()
        start = np.ones(len(df), dtype=bool)
        start[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(start)
        ends = np.concatenate([starts[1:], [len(df)]])
        first_i, last_i = 0, len(starts) - 1
        take = sorted({first_i, last_i})
        return pd.DataFrame(
            {
                "user_id": u[starts[take]].astype("int64"),
                "seg_n": (ends - starts)[take].astype("int64"),
                "seg_ts": df["ts"].iloc[starts[take]].reset_index(
                    drop=True
                ),
                "seg_eid": df["event_id"].to_numpy()[starts[take]].astype(
                    "int64"
                ),
                "blk_ts": pd.Series(
                    [df["ts"].iloc[0]] * len(take), dtype=df["ts"].dtype
                ),
                "blk_eid": np.full(
                    len(take), df["event_id"].iloc[0], dtype=np.int64
                ),
                "is_first": np.array(
                    [i == first_i for i in take], dtype=bool
                ),
                "is_last": np.array(
                    [i == last_i for i in take], dtype=bool
                ),
            }
        )

    # O(2 x blocks) edge rows — never events or users
    bd = (
        srt.map_batches(edge_counts, batch_format="pandas", batch_size=None)
        .to_pandas()
    )
    offsets: dict[tuple, int] = {}
    if len(bd):
        # block order within a user == order of the SEGMENTS' first
        # rows under the DESC sort (contiguous key runs)
        bd = bd.sort_values(
            ["user_id", "seg_ts", "seg_eid"],
            ascending=[True, False, False],
            kind="mergesort",
        ).reset_index(drop=True)
        u = bd["user_id"].to_numpy()
        newkey = np.ones(len(bd), dtype=bool)
        newkey[1:] = u[1:] != u[:-1]
        contrib = np.where(
            bd["is_last"].to_numpy(), bd["seg_n"].to_numpy(), 0
        )
        cum = np.cumsum(contrib)
        before = cum - contrib
        key_base = pd.Series(
            np.where(newkey, before, np.nan)
        ).ffill().to_numpy()
        off = (before - key_base).astype(np.int64)
        want = bd["is_first"].to_numpy() & ~newkey
        for i in np.flatnonzero(want):
            offsets[
                (
                    int(u[i]),
                    bd["blk_ts"].iloc[i],
                    int(bd["blk_eid"].iloc[i]),
                )
            ] = int(off[i])
    # broadcast is O(straddling blocks) entries — block-count-bounded
    off_ref = ray.put(offsets)

    empty = pd.DataFrame(
        {
            "event_id": pd.Series([], dtype="int64"),
            "user_id": pd.Series([], dtype="int64"),
            "rn": pd.Series([], dtype="int64"),
        }
    )

    def block_ranks(df: pd.DataFrame, _memo={}) -> pd.DataFrame:
        if df.empty:
            return empty
        if "o" not in _memo:
            _memo["o"] = ray.get(off_ref)  # O(straddling blocks), tiny
        u = df["user_id"].to_numpy()
        start = np.ones(len(df), dtype=bool)
        start[1:] = u[1:] != u[:-1]
        seg_id = np.cumsum(start) - 1
        starts = np.flatnonzero(start)
        rn = np.arange(len(df), dtype=np.int64) - starts[seg_id] + 1
        off = _memo["o"].get(
            (
                int(u[0]),
                df["ts"].iloc[0],
                int(df["event_id"].iloc[0]),
            )
        )
        if off:
            rn = np.where(seg_id == 0, rn + off, rn)
        keep = rn <= k
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy()[keep].astype(
                    "int64"
                ),
                "user_id": u[keep].astype("int64"),
                "rn": rn[keep],
            }
        )

    return srt.map_batches(
        block_ranks, batch_format="pandas", batch_size=None
    )


def window_lag(sf_dir: str):
    """lag(value) OVER (PARTITION BY user_id ORDER BY ts, event_id):
    per-user delta between consecutive event values (rows with no
    predecessor are dropped, matching SQL's NULL-lag filter).

    Segmented-sort execution: ONE range sort on (user_id, ts,
    event_id) — no group co-location is needed, so a hot user simply
    spans several sorted blocks — then a VECTORIZED per-block delta
    over adjacent same-user rows. A user straddling two sorted
    blocks misses exactly one delta (the later block's first row),
    restored from an O(2 x blocks) border frame on the driver: the
    nearest earlier same-user block-LAST row is the true global
    predecessor, since sorted blocks are contiguous runs. No
    per-group dispatch, no carry exchange; driver state is bounded
    by BLOCK count, never users or events."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    import ray.data

    empty = pd.DataFrame(
        {
            "event_id": pd.Series([], dtype="int64"),
            "user_id": pd.Series([], dtype="int64"),
            "delta": pd.Series([], dtype="float64"),
        }
    )

    srt = (
        ds.sort(["user_id", "ts", "event_id"])
        .materialize()  # consumed twice: border pull + delta pass
    )

    def block_deltas(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) < 2:
            return empty
        u = df["user_id"].to_numpy()
        v = df["value"].to_numpy()
        emit = u[1:] == u[:-1]
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy()[1:][emit].astype(
                    "int64"
                ),
                "user_id": u[1:][emit].astype("int64"),
                "delta": np.round((v[1:] - v[:-1])[emit], 6),
            }
        )

    def border_rows(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df.assign(pos=pd.Series([], dtype="int8"))
        out = df.iloc[[0, len(df) - 1]].copy()
        out["pos"] = np.array([0, 1], dtype=np.int8)  # 0 = first, 1 = last
        return out

    # batch_size=None = one batch per materialized block, so both
    # passes see identical boundaries; the pull is O(2 x blocks)
    # border rows, never events or users
    bd = (
        srt.map_batches(border_rows, batch_format="pandas", batch_size=None)
        .to_pandas()
    )
    fix = empty
    if len(bd):
        # order ties (a single-row block emits the same row as first
        # AND last) with first BEFORE last so an f-row never pairs
        # with its own l-copy
        bd = bd.sort_values(
            ["user_id", "ts", "event_id", "pos"], kind="mergesort"
        ).reset_index(drop=True)
        u = bd["user_id"].to_numpy()
        newkey = np.ones(len(bd), dtype=bool)
        newkey[1:] = u[1:] != u[:-1]
        idx = np.arange(len(bd))
        last_l = np.where(bd["pos"].to_numpy() == 1, idx, -1)
        # per-user running max of l-row indices = nearest earlier
        # last-row of the same user; vectorized per-segment cummax
        # via np.maximum.accumulate with a per-segment bias (segments
        # can never leak into each other: bias step > index range)
        seg = np.cumsum(newkey) - 1
        STEP = np.int64(len(bd) + 1)
        biased = last_l + seg * STEP
        cm = np.maximum.accumulate(biased) - seg * STEP
        pred = np.empty(len(bd), dtype=np.int64)
        pred[0] = -1
        pred[1:] = np.where(newkey[1:], -1, cm[:-1])
        pred = np.where(pred < 0, -1, pred)
        is_f = bd["pos"].to_numpy() == 0
        want = is_f & (pred >= 0)
        if want.any():
            pi = pred[want]
            fix = pd.DataFrame(
                {
                    "event_id": bd["event_id"].to_numpy()[want].astype(
                        "int64"
                    ),
                    "user_id": u[want].astype("int64"),
                    "delta": np.round(
                        bd["value"].to_numpy()[want]
                        - bd["value"].to_numpy()[pi],
                        6,
                    ),
                }
            )

    out = srt.map_batches(
        block_deltas, batch_format="pandas", batch_size=None
    )
    if len(fix):
        out = out.union(ray.data.from_pandas(fix))
    return out


def lead_value(sf_dir: str):
    """lead(value) OVER (PARTITION BY user_id ORDER BY ts, event_id):
    each event paired with its user's NEXT event value (rows with no
    successor are dropped, matching SQL's NULL-lead filter) — the
    forward mirror of window_lag on the same segmented-sort engine:
    ONE range sort, a vectorized per-block adjacent pass, and an
    O(2 x blocks) border frame healing the one successor a
    block-straddling user misses (the nearest LATER same-user
    block-FIRST row). Driver state stays bounded by block count."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    import ray.data

    empty = pd.DataFrame(
        {
            "event_id": pd.Series([], dtype="int64"),
            "user_id": pd.Series([], dtype="int64"),
            "next_value": pd.Series([], dtype="float64"),
        }
    )

    srt = (
        ds.sort(["user_id", "ts", "event_id"])
        .materialize()  # consumed twice: border pull + lead pass
    )

    def block_leads(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) < 2:
            return empty
        u = df["user_id"].to_numpy()
        v = df["value"].to_numpy()
        emit = u[1:] == u[:-1]
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy()[:-1][emit].astype(
                    "int64"
                ),
                "user_id": u[:-1][emit].astype("int64"),
                "next_value": v[1:][emit],
            }
        )

    def border_rows(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df.assign(pos=pd.Series([], dtype="int8"))
        out = df.iloc[[0, len(df) - 1]].copy()
        out["pos"] = np.array([0, 1], dtype=np.int8)  # 0 = first, 1 = last
        return out

    bd = (
        srt.map_batches(border_rows, batch_format="pandas", batch_size=None)
        .to_pandas()
    )
    fix = empty
    if len(bd):
        # REVERSED global order: "nearest later first-row" becomes
        # "nearest earlier" in the reversed frame, so the same
        # per-segment cummax recipe as window_lag applies with the
        # f/l roles swapped; a row's own f-copy sits after its l-copy
        # here, so the strict cm[:-1] lookback can never self-pair
        bd = (
            bd.sort_values(
                ["user_id", "ts", "event_id", "pos"], kind="mergesort"
            )
            .iloc[::-1]
            .reset_index(drop=True)
        )
        u = bd["user_id"].to_numpy()
        newkey = np.ones(len(bd), dtype=bool)
        newkey[1:] = u[1:] != u[:-1]
        idx = np.arange(len(bd))
        last_f = np.where(bd["pos"].to_numpy() == 0, idx, -1)
        seg = np.cumsum(newkey) - 1
        STEP = np.int64(len(bd) + 1)
        biased = last_f + seg * STEP
        cm = np.maximum.accumulate(biased) - seg * STEP
        succ = np.empty(len(bd), dtype=np.int64)
        succ[0] = -1
        succ[1:] = np.where(newkey[1:], -1, cm[:-1])
        succ = np.where(succ < 0, -1, succ)
        is_l = bd["pos"].to_numpy() == 1
        want = is_l & (succ >= 0)
        if want.any():
            si = succ[want]
            fix = pd.DataFrame(
                {
                    "event_id": bd["event_id"].to_numpy()[want].astype(
                        "int64"
                    ),
                    "user_id": u[want].astype("int64"),
                    "next_value": bd["value"].to_numpy()[si],
                }
            )

    out = srt.map_batches(
        block_leads, batch_format="pandas", batch_size=None
    )
    if len(fix):
        out = out.union(ray.data.from_pandas(fix))
    return out


def percent_rank_value(sf_dir: str):
    """percent_rank() OVER (PARTITION BY user_id ORDER BY value,
    event_id) — every event's within-user rank position scaled to
    [0, 1] (single-event users get 0, SQL semantics). The event_id
    tiebreak makes the order total, so percent_rank ==
    (row_number - 1) / (n_user - 1) with no tie plateau to heal.

    Scale shape (window_rank recipe + a count fold): ONE range sort
    on (user_id, value, event_id), vectorized per-block rank pass;
    rank offsets for block-straddling users come from the O(blocks)
    border frame. The denominator n_user is block-local for users
    fully inside one block; a straddling user's EVERY segment is an
    edge segment of some block (middle blocks are single-user), so
    the border frame also yields straddler totals — both driver
    dicts stay block-count-bounded, never user-bounded."""

    def scale(rn: np.ndarray, cnt: np.ndarray) -> np.ndarray:
        return np.where(cnt > 1, (rn - 1) / np.maximum(cnt - 1, 1), 0.0)

    return _user_rank_scaled(sf_dir, "pr", scale)


def cume_dist_value(sf_dir: str):
    """cume_dist() OVER (PARTITION BY user_id ORDER BY value,
    event_id) — the fraction of the user's events at or below this
    one. The event_id tiebreak makes the order total (every peer
    group is a singleton), so cume_dist == row_number / n_user
    exactly; the engine is percent_rank's segmented sort with the
    same O(blocks) border offsets + straddler totals, only the final
    scaling differs."""

    def scale(rn: np.ndarray, cnt: np.ndarray) -> np.ndarray:
        return rn / np.maximum(cnt, 1)

    return _user_rank_scaled(sf_dir, "cd", scale)


def _user_rank_scaled(sf_dir: str, out_col: str, scale):
    """Shared engine for percent_rank / cume_dist over (PARTITION BY
    user_id ORDER BY value, event_id): segmented range sort +
    vectorized block rank pass + O(blocks) border offsets and
    straddler totals; ``scale(rn, cnt)`` maps the healed row number
    and partition size to the window value."""
    import ray
    import ray.data

    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    srt = (
        ds.sort(["user_id", "value", "event_id"])
        .materialize()  # consumed twice: border pull + rank pass
    )

    def edge_counts(df: pd.DataFrame) -> pd.DataFrame:
        cols = {
            "user_id": pd.Series([], dtype="int64"),
            "seg_n": pd.Series([], dtype="int64"),
            "seg_val": pd.Series([], dtype="float64"),
            "seg_eid": pd.Series([], dtype="int64"),
            "blk_val": pd.Series([], dtype="float64"),
            "blk_eid": pd.Series([], dtype="int64"),
            "is_first": pd.Series([], dtype="bool"),
        }
        if df.empty:
            return pd.DataFrame(cols)
        u = df["user_id"].to_numpy()
        start = np.ones(len(df), dtype=bool)
        start[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(start)
        ends = np.concatenate([starts[1:], [len(df)]])
        first_i, last_i = 0, len(starts) - 1
        take = sorted({first_i, last_i})
        return pd.DataFrame(
            {
                "user_id": u[starts[take]].astype("int64"),
                "seg_n": (ends - starts)[take].astype("int64"),
                "seg_val": df["value"].to_numpy()[starts[take]],
                "seg_eid": df["event_id"].to_numpy()[starts[take]].astype(
                    "int64"
                ),
                "blk_val": np.full(len(take), df["value"].iloc[0]),
                "blk_eid": np.full(
                    len(take), df["event_id"].iloc[0], dtype=np.int64
                ),
                "is_first": np.array(
                    [i == first_i for i in take], dtype=bool
                ),
            }
        )

    # O(2 x blocks) edge rows — never events or users
    bd = (
        srt.map_batches(edge_counts, batch_format="pandas", batch_size=None)
        .to_pandas()
    )
    offsets: dict[tuple, int] = {}
    totals: dict[int, int] = {}
    if len(bd):
        bd = bd.sort_values(
            ["user_id", "seg_val", "seg_eid"], kind="mergesort"
        ).reset_index(drop=True)
        u = bd["user_id"].to_numpy()
        newkey = np.ones(len(bd), dtype=bool)
        newkey[1:] = u[1:] != u[:-1]
        seg_n = bd["seg_n"].to_numpy()
        cum = np.cumsum(seg_n)
        before = cum - seg_n
        key_base = pd.Series(
            np.where(newkey, before, np.nan)
        ).ffill().to_numpy()
        off = (before - key_base).astype(np.int64)
        want = bd["is_first"].to_numpy() & ~newkey
        for i in np.flatnonzero(want):
            offsets[
                (
                    int(u[i]),
                    float(bd["blk_val"].iloc[i]),
                    int(bd["blk_eid"].iloc[i]),
                )
            ] = int(off[i])
        # straddler totals: a user in >= 2 blocks has ALL its segments
        # in bd (its middle blocks are single-user); single-bd-row
        # users get their true block-local count anyway
        straddle = u[~newkey]
        if straddle.size:
            tot = (
                bd[np.isin(u, straddle)]
                .groupby("user_id", sort=False)["seg_n"]
                .sum()
            )
            totals = {int(k): int(v) for k, v in tot.items()}
    # broadcast is O(straddling blocks) entries — block-count-bounded
    off_ref = ray.put((offsets, totals))

    empty = pd.DataFrame(
        {
            "event_id": pd.Series([], dtype="int64"),
            "user_id": pd.Series([], dtype="int64"),
            out_col: pd.Series([], dtype="float64"),
        }
    )

    def block_pr(df: pd.DataFrame, _memo={}) -> pd.DataFrame:
        if df.empty:
            return empty
        if "o" not in _memo:
            _memo["o"] = ray.get(off_ref)  # O(blocks) entries, tiny
        offs, tots = _memo["o"]
        u = df["user_id"].to_numpy()
        start = np.ones(len(df), dtype=bool)
        start[1:] = u[1:] != u[:-1]
        seg_id = np.cumsum(start) - 1
        starts = np.flatnonzero(start)
        ends = np.concatenate([starts[1:], [len(df)]])
        rn = np.arange(len(df), dtype=np.int64) - starts[seg_id] + 1
        off = offs.get(
            (
                int(u[0]),
                float(df["value"].iloc[0]),
                int(df["event_id"].iloc[0]),
            )
        )
        if off:
            rn = np.where(seg_id == 0, rn + off, rn)
        cnt = (ends - starts)[seg_id].astype(np.int64)
        if tots:
            seg_u = u[starts]
            seg_tot = np.array(
                [tots.get(int(x), 0) for x in seg_u], dtype=np.int64
            )
            cnt = np.where(seg_tot[seg_id] > 0, seg_tot[seg_id], cnt)
        val = scale(rn, cnt)
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy().astype("int64"),
                "user_id": u.astype("int64"),
                out_col: np.round(val, 6),
            }
        )

    return srt.map_batches(
        block_pr, batch_format="pandas", batch_size=None
    )


# --------------------------------------------------------------------
# OLAP: rollup / pivot / statistical moments
# --------------------------------------------------------------------

def _flag_status_fine(sf_dir: str) -> pd.DataFrame:
    """Finest-granularity (l_returnflag, l_linestatus) count + sum(qty)
    aggregate: per-batch pandas partials -> one tiny groupby. The ONLY
    level that touches data; rollup/cube subtotals derive from it."""
    from ray.data.aggregate import Sum

    ds = _read(
        sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            n=("l_quantity", "size"), sum_qty=("l_quantity", "sum")
        )
        return g

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("n", alias_name="n"), Sum("sum_qty", alias_name="sum_qty"))
        .to_pandas()  # |flags| x |statuses| rows — scalar-sized
    )


def _subtotal(fine: pd.DataFrame, keys: list[str]) -> pd.DataFrame:
    """One CUBE/ROLLUP level from the finest result (algebraic sums);
    grouped-out key columns become SQL-style NULLs."""
    all_keys = ["l_returnflag", "l_linestatus"]
    if keys:
        lvl = fine.groupby(keys, as_index=False).agg(
            n=("n", "sum"), sum_qty=("sum_qty", "sum")
        )
    else:
        lvl = pd.DataFrame(
            {"n": [fine["n"].sum()], "sum_qty": [fine["sum_qty"].sum()]}
        )
    for k in all_keys:
        if k not in keys:
            lvl[k] = None
    return lvl[all_keys + ["n", "sum_qty"]]


def _finish_levels(levels: list[pd.DataFrame]) -> pd.DataFrame:
    out = pd.concat(levels, ignore_index=True)
    out["n"] = out["n"].astype("int64")
    out["sum_qty"] = out["sum_qty"].astype("float64").round(3)
    return out


def rollup_agg(sf_dir: str):
    """GROUP BY ROLLUP(l_returnflag, l_linestatus): count + sum(qty)
    at three granularities (flag+status, flag, grand total).

    Only the FINEST level touches data (per-batch pandas partials ->
    one tiny groupby); the coarser subtotal levels are derived from
    the finest result on the driver — count/sum are algebraic, so the
    rollup costs one exchange of ~|flag x status| rows total."""
    fine = _flag_status_fine(sf_dir)
    return _finish_levels(
        [
            _subtotal(fine, ["l_returnflag", "l_linestatus"]),
            _subtotal(fine, ["l_returnflag"]),
            _subtotal(fine, []),
        ]
    )


def cube_agg(sf_dir: str):
    """GROUP BY CUBE(l_returnflag, l_linestatus): all four grouping
    sets, derived from the same single-exchange finest aggregate as
    rollup_agg (the extra status-only level is another driver-side
    fold of the tiny result)."""
    fine = _flag_status_fine(sf_dir)
    return _finish_levels(
        [
            _subtotal(fine, ["l_returnflag", "l_linestatus"]),
            _subtotal(fine, ["l_returnflag"]),
            _subtotal(fine, ["l_linestatus"]),
            _subtotal(fine, []),
        ]
    )


_PIVOT_LANGS = ["de", "en", "es", "fr", "zh"]


def pivot_counts(sf_dir: str):
    """Pivot: document count per source, one column per language
    (wide layout from a long groupby). Per-batch (source, lang) count
    partials -> one tiny groupby-sum -> driver-side pivot of the
    |sources| x |langs| result. The pivoted column set is the fixed
    language vocabulary, so schema is deterministic."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["source", "lang"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["source", "lang"], as_index=False).size()
        return g.rename(columns={"size": "n"})

    long = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(["source", "lang"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    wide = long.pivot_table(
        index="source", columns="lang", values="n", fill_value=0
    ).reset_index()
    for lang in _PIVOT_LANGS:
        if lang not in wide.columns:
            wide[lang] = 0
    out = pd.DataFrame({"source": wide["source"]})
    for lang in _PIVOT_LANGS:
        out[f"n_{lang}"] = wide[lang].astype("int64")
    return out


def stats_moments(sf_dir: str):
    """Per-group sample stddev and Pearson correlation via algebraic
    sufficient statistics: per-batch partials (n, Σx, Σx², Σy, Σy²,
    Σxy) per l_returnflag -> groupby-sum of six scalars per group ->
    closed-form finish on the driver. ONE exchange of |groups| x
    |blocks| six-number rows — the textbook one-pass shape for
    variance/correlation at any scale (float64 is safe here: Σx² ~
    3e14 at sf0.01 carries ~8 guard digits past the rounding)."""
    from ray.data.aggregate import Sum

    ds = _read(
        sf_dir, "lineitem", ["l_returnflag", "l_extendedprice", "l_quantity"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df["l_extendedprice"].to_numpy()
        y = df["l_quantity"].to_numpy()
        g = pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "n": 1.0,
                "sx": x,
                "sxx": x * x,
                "sy": y,
                "syy": y * y,
                "sxy": x * y,
            }
        )
        return g.groupby("l_returnflag", as_index=False).sum()

    agg = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("l_returnflag")
        .aggregate(
            *[
                Sum(c, alias_name=c)
                for c in ["n", "sx", "sxx", "sy", "syy", "sxy"]
            ]
        )
        .to_pandas()
    )
    n = agg["n"].to_numpy()
    vx = (agg["sxx"] - agg["sx"] ** 2 / n) / (n - 1)
    vy = (agg["syy"] - agg["sy"] ** 2 / n) / (n - 1)
    cov = (agg["sxy"] - agg["sx"] * agg["sy"] / n) / (n - 1)
    return pd.DataFrame(
        {
            "l_returnflag": agg["l_returnflag"],
            "n": n.astype(np.int64),
            "std_price": np.round(np.sqrt(vx), 3),
            "corr_pq": np.round(cov / np.sqrt(vx * vy), 6),
        }
    )


# --------------------------------------------------------------------
# grouped exact quantiles (rank-partition selection per group)
# --------------------------------------------------------------------

def grouped_quantiles(sf_dir: str, qs=(0.5, 0.9)):
    """EXACT per-group quantiles (quantile_disc semantics) of
    orders.o_totalprice grouped by o_orderpriority — see
    _grouped_qdisc for the three-pass zero-sort machinery (shared
    with winsorized_mean)."""
    gcol, vcol = "o_orderpriority", "o_totalprice"
    # one parquet read; all three passes scan the cached two columns
    ds = _read(sf_dir, "orders", [gcol, vcol]).materialize()
    return _grouped_qdisc(ds, gcol, vcol, list(qs))


def _grouped_qdisc(ds, gcol: str, vcol: str, qs: list[float]):
    """EXACT per-group quantiles (quantile_disc semantics: the
    ceil(q*n)-th smallest value, 1-indexed) WITHOUT a sort and
    WITHOUT materializing any group: sketches.quantiles' histogram
    rank-partition selection, keyed by a low-cardinality group column.

      pass 1: per-(block, group) count/min/max partials
      pass 2: per-(block, group) 2048-bucket histograms over each
              group's own range
      pass 3: per-(block, group) (value, count) uniques restricted to
              that group's candidate buckets

    Every pass is a streaming scan emitting O(groups x buckets) rows
    per block; the driver merges per-group scalars only. Groups never
    co-locate, so a 20 TB group costs the same driver memory as a 2 MB
    one. ``ds`` should be materialized by the caller so the three
    passes scan cached blocks. Returns (gcol, q, value) rows."""
    import ray

    def p1(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(gcol, as_index=False)[vcol].agg(["count", "min", "max"])
        return g.rename(columns={"count": "n", "min": "mn", "max": "mx"})

    stats = (
        ds.map_batches(p1, batch_format="pandas")
        .to_pandas()
        .groupby(gcol)
        .agg(n=("n", "sum"), mn=("mn", "min"), mx=("mx", "max"))
    )
    groups = list(stats.index)
    B = 2048
    # per-group binning params, broadcast once to the histogram actors
    params = {
        g: (float(stats.loc[g, "mn"]), float(stats.loc[g, "mx"]))
        for g in groups
    }
    ranks = {
        g: [max(1, int(np.ceil(q * int(stats.loc[g, "n"])))) for q in qs]
        for g in groups
    }

    def bucket_of(v: np.ndarray, mn: float, mx: float) -> np.ndarray:
        if mx == mn:
            return np.zeros(v.shape, dtype=np.int64)
        idx = np.floor((v - mn) * (B / (mx - mn))).astype(np.int64)
        return np.clip(idx, 0, B - 1)

    params_ref = ray.put(params)

    class Hist:
        def __init__(self, ref):
            self.params = ray.get(ref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            outs = []
            for g, sub in df.groupby(gcol, sort=False):
                mn, mx = self.params[g]
                v = sub[vcol].to_numpy()
                v = v[~np.isnan(v)]
                cnt = np.bincount(bucket_of(v, mn, mx), minlength=B)
                nz = np.nonzero(cnt)[0]
                outs.append(
                    pd.DataFrame(
                        {gcol: g, "bucket": nz, "cnt": cnt[nz].astype(np.int64)}
                    )
                )
            if not outs:
                return pd.DataFrame(
                    {
                        gcol: pd.Series([], dtype="object"),
                        "bucket": pd.Series([], dtype="int64"),
                        "cnt": pd.Series([], dtype="int64"),
                    }
                )
            return pd.concat(outs, ignore_index=True)

    p2 = ds.map_batches(
        _task_state(lambda: Hist(params_ref)),
        batch_format="pandas",
    ).to_pandas()

    cums, cands = {}, {}
    for g in groups:
        hist = np.zeros(B, dtype=np.int64)
        sub = p2[p2[gcol] == g]
        np.add.at(hist, sub["bucket"].to_numpy(), sub["cnt"].to_numpy())
        cum = np.concatenate([[0], np.cumsum(hist)])
        cums[g] = cum
        cands[g] = sorted(
            {int(np.searchsorted(cum[1:], r)) for r in ranks[g]}
        )

    cand_ref = ray.put({g: np.asarray(c, dtype=np.int64) for g, c in cands.items()})

    class CandValues:
        def __init__(self, pref, cref):
            self.params = ray.get(pref)
            self.cands = ray.get(cref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            outs = []
            for g, sub in df.groupby(gcol, sort=False):
                mn, mx = self.params[g]
                v = sub[vcol].to_numpy()
                v = v[~np.isnan(v)]
                b = bucket_of(v, mn, mx)
                keep = np.isin(b, self.cands[g])
                u, c = np.unique(v[keep], return_counts=True)
                outs.append(
                    pd.DataFrame({gcol: g, "value": u, "cnt": c.astype(np.int64)})
                )
            if not outs:
                return pd.DataFrame(
                    {
                        gcol: pd.Series([], dtype="object"),
                        "value": pd.Series([], dtype="float64"),
                        "cnt": pd.Series([], dtype="int64"),
                    }
                )
            return pd.concat(outs, ignore_index=True)

    p3 = (
        ds.map_batches(
            _task_state(lambda: CandValues(params_ref, cand_ref)),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby([gcol, "value"], sort=True)["cnt"]
        .sum()
        .reset_index()
    )

    rows = []
    for g in groups:
        sub = p3[p3[gcol] == g]
        vals = sub["value"].to_numpy()
        cnts = sub["cnt"].to_numpy()
        mn, mx = params[g]
        cum = cums[g]
        for q, r in zip(qs, ranks[g]):
            b = int(np.searchsorted(cum[1:], r))
            in_bucket = bucket_of(vals, mn, mx) == b
            bvals = vals[in_bucket]
            bcum = np.cumsum(cnts[in_bucket])
            k = int(np.searchsorted(bcum, r - cum[b]))
            rows.append((g, float(q), float(bvals[k])))
    return pd.DataFrame(rows, columns=[gcol, "q", "value"])


def winsorized_mean(sf_dir: str, lo: float = 0.05, hi: float = 0.95):
    """Per-group WINSORIZED mean of events.value by event_type:
    values below the group's p05 (quantile_disc) clamp up to it,
    values above p95 clamp down, then the mean — the outlier-robust
    location estimate a metrics pipeline reports instead of a raw
    mean that one fat-fingered event can drag.

    Scale shape: the clamp bounds come from _grouped_qdisc's
    three-pass zero-sort rank selection (O(groups x buckets) driver
    state); the winsorized mean itself is one more streaming pass —
    per-(block, group) clipped sum/count partials with the tiny
    bounds dict captured in the task closure (broadcast once per
    worker), merged by groupagg. Nothing group-sized ever
    co-locates. 6-dp rounding on both sides absorbs summation-order
    float drift (regression_by_group precedent)."""
    gcol, vcol = "event_type", "value"
    ds = _read(sf_dir, "events", [gcol, vcol]).materialize()
    qd = _grouped_qdisc(ds, gcol, vcol, [lo, hi])
    bounds = {
        g: (float(sub.loc[sub["q"] == lo, "value"].iloc[0]),
            float(sub.loc[sub["q"] == hi, "value"].iloc[0]))
        for g, sub in qd.groupby(gcol)
    }

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for g, sub in df.groupby(gcol, sort=False):
            b_lo, b_hi = bounds[g]
            v = sub[vcol].to_numpy(np.float64)
            v = v[~np.isnan(v)]
            outs.append((g, np.clip(v, b_lo, b_hi).sum(), v.size))
        return pd.DataFrame(outs, columns=[gcol, "s", "n"])

    from .groupagg import merge_partials

    out = merge_partials(
        ds.map_batches(partial, batch_format="pandas"),
        [gcol], {"s": "sum", "n": "sum"},
    )
    out["wmean"] = (out["s"] / out["n"]).round(6)
    return (
        out[[gcol, "wmean"]]
        .sort_values(gcol)
        .reset_index(drop=True)
    )


def corr_matrix(sf_dir: str):
    """Pairwise Pearson correlations of lineitem's four numeric
    measures (quantity, extendedprice, discount, tax) — the feature-
    redundancy screen run before fitting anything on tabular columns.

    Scale shape: ONE streaming pass computing the closed-form
    sufficient statistics (n, per-column sums, upper-triangle
    cross-product matrix X'X) per block — a 4x4 matmul per batch,
    zero exchange; the driver folds blocks x 15 scalars and solves
    corr(i,j) = (n*Sxy - Sx*Sy) / sqrt((n*Sxx - Sx^2)(n*Syy - Sy^2)).
    6-dp rounding absorbs float summation-order drift vs the
    oracle's streaming corr()."""
    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    ds = _read(sf_dir, "lineitem", cols)
    pairs = [(i, j) for i in range(len(cols)) for j in range(i + 1, len(cols))]

    def partial(t: pa.Table) -> pd.DataFrame:
        X = np.column_stack(
            [t.column(c).to_numpy(zero_copy_only=False) for c in cols]
        ).astype(np.float64)
        row = {"n": np.int64(X.shape[0])}
        s = X.sum(axis=0)
        xtx = X.T @ X
        for i, c in enumerate(cols):
            row[f"s{i}"] = s[i]
            row[f"ss{i}{i}"] = xtx[i, i]
        for i, j in pairs:
            row[f"ss{i}{j}"] = xtx[i, j]
        return pd.DataFrame([row])

    agg = ds.map_batches(partial, batch_format="pyarrow").to_pandas().sum()
    n = float(agg["n"])

    def var_term(i: int) -> float:
        # n*Sxx - Sx^2 cancels catastrophically on a constant column
        # (residual ~ n*eps relative, NOT exact 0): clamp anything
        # below a relative threshold to true zero-variance
        v = n * agg[f"ss{i}{i}"] - agg[f"s{i}"] ** 2
        return v if v > 1e-9 * n * agg[f"ss{i}{i}"] else 0.0

    rows = []
    for i, j in pairs:
        num = n * agg[f"ss{i}{j}"] - agg[f"s{i}"] * agg[f"s{j}"]
        den = np.sqrt(var_term(i) * var_term(j))
        # a constant column has zero variance: SQL corr() is NULL there
        rows.append(
            (cols[i], cols[j], round(num / den, 6) if den else np.nan)
        )
    out = pd.DataFrame(rows, columns=["col_a", "col_b", "r"])
    return out.sort_values(["col_a", "col_b"]).reset_index(drop=True)


# --------------------------------------------------------------------
# left outer join (native hash-shuffle, unmatched rows preserved)
# --------------------------------------------------------------------

def left_outer_join(sf_dir: str):
    """Per-customer order count + revenue INCLUDING zero-order
    customers: customer LEFT OUTER JOIN orders via Ray Data's native
    hash-shuffle join (both sides partitioned by key hash across
    aggregator actors; unmatched left rows surface with NULL right
    columns), then per-batch count/sum partials -> groupby-sum.
    count() over the NULL o_orderkey of an unmatched customer is 0 and
    its revenue coalesces to 0, matching SQL LEFT JOIN + GROUP BY.

    The post-join aggregate runs as per-batch partials merged by
    groupagg.merge_partials (customer cardinality: Ray's hash
    aggregate paid ~4 s of fixed per-key cost at 15k keys; the
    partial-merge path is ~4x faster and scale-safe via its sort
    mode)."""
    from .groupagg import merge_partials
    from .relational import join_partitions

    cust = _read(sf_dir, "customer", ["c_custkey"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
    nparts = join_partitions(cust, orders)
    j = cust.join(
        orders,
        join_type="left_outer",
        num_partitions=nparts,
        on=("c_custkey",),
        right_on=("o_custkey",),
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("c_custkey", as_index=False).agg(
            n_orders=("o_orderkey", "count"),
            total=("o_totalprice", "sum"),
        )
        g["total"] = g["total"].fillna(0.0)
        return g

    parts = j.map_batches(partial, batch_format="pandas")
    agg = merge_partials(
        parts, ["c_custkey"], {"n_orders": "sum", "total": "sum"}
    )
    return pd.DataFrame(
        {
            "c_custkey": agg["c_custkey"].astype("int64"),
            "n_orders": agg["n_orders"].astype("int64"),
            "total": agg["total"].astype("float64").round(3),
        }
    ).sort_values("c_custkey").reset_index(drop=True)


def regression_by_group(sf_dir: str):
    """SQL linear-regression aggregates per group (regr_slope /
    regr_intercept of l_quantity on l_extendedprice, plus covar_pop)
    — the two-column fit a data-quality pass runs to spot degenerate
    feature relationships. Mergeable sufficient statistics: per-batch
    sums of (n, x, y, xy, x^2) collapse each block to one row per
    group, merged by groupagg, and the closed-form fit runs on the
    tiny merged frame. Raw float64 sums agree with the oracle at the
    6-dp rounding on this data (verified); corpora with extreme
    dynamic range would center on a broadcast first-pass mean
    instead."""
    from .groupagg import merge_partials

    ds = _read(
        sf_dir, "lineitem", ["l_returnflag", "l_extendedprice", "l_quantity"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df["l_extendedprice"].to_numpy(np.float64)
        y = df["l_quantity"].to_numpy(np.float64)
        g = pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "n": 1.0,
                "sx": x,
                "sy": y,
                "sxy": x * y,
                "sxx": x * x,
            }
        )
        return g.groupby("l_returnflag", as_index=False).sum()

    ops = {c: "sum" for c in ["n", "sx", "sy", "sxy", "sxx"]}
    m = merge_partials(
        ds.map_batches(partial, batch_format="pandas"), ["l_returnflag"], ops
    ).sort_values("l_returnflag")
    n = m["n"].to_numpy()
    sx, sy = m["sx"].to_numpy(), m["sy"].to_numpy()
    sxy, sxx = m["sxy"].to_numpy(), m["sxx"].to_numpy()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = sy / n - slope * (sx / n)
    covar = (sxy - sx * sy / n) / n
    return pd.DataFrame(
        {
            "l_returnflag": m["l_returnflag"].to_numpy(),
            "slope": np.round(slope, 6),
            "intercept": np.round(intercept, 6),
            "covar_pq": np.round(covar, 6),
        }
    ).reset_index(drop=True)


def argmax_per_group(sf_dir: str):
    """max_by / arg-max surface: for each l_returnflag, the row holding
    the maximum l_extendedprice (smallest l_orderkey on price ties —
    the deterministic tiebreak both engines can state). Per-block
    candidate rows (one per group per block, a vectorized sort + head)
    merge on the driver at |groups| x |blocks| rows — the select_k
    shape with k=1 per group, no exchange at all."""
    ds = _read(
        sf_dir, "lineitem", ["l_returnflag", "l_extendedprice", "l_orderkey"]
    )

    def candidates(df: pd.DataFrame) -> pd.DataFrame:
        s = df.sort_values(
            ["l_returnflag", "l_extendedprice", "l_orderkey"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        return s.groupby("l_returnflag", sort=False).head(1)

    parts = ds.map_batches(candidates, batch_format="pandas").to_pandas()
    out = (
        parts.sort_values(
            ["l_returnflag", "l_extendedprice", "l_orderkey"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        .groupby("l_returnflag", sort=False)
        .head(1)
        .sort_values("l_returnflag")
        .reset_index(drop=True)
    )
    return pd.DataFrame(
        {
            "l_returnflag": out["l_returnflag"],
            "price": out["l_extendedprice"].astype("float64"),
            "l_orderkey": out["l_orderkey"].astype("int64"),
        }
    )


def running_sum(sf_dir: str):
    """sum(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
    ROWS UNBOUNDED PRECEDING): per-user cumulative sum — the running
    balance / cumulative-exposure window every event pipeline needs.

    Segmented-sort execution: ONE range sort on (user_id, ts,
    event_id) — no group co-location is needed, so a hot user simply
    spans several sorted blocks — then a vectorized segmented cumsum
    per block. A user straddling blocks needs a per-block offset =
    the sum of the user's rows in EARLIER blocks; those are resolved
    from an O(blocks) border frame of edge-segment sums and broadcast
    as a dict keyed by each block's first-row identity (ts, event_id)
    — bounded by block count, never by users or events."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    import ray
    import ray.data

    empty = pd.DataFrame(
        {
            "event_id": pd.Series([], dtype="int64"),
            "user_id": pd.Series([], dtype="int64"),
            "run_sum": pd.Series([], dtype="float64"),
        }
    )

    srt = ds.sort(["user_id", "ts", "event_id"]).materialize()

    def _segments(df: pd.DataFrame):
        u = df["user_id"].to_numpy()
        start = np.ones(len(df), dtype=bool)
        start[1:] = u[1:] != u[:-1]
        return u, start

    def edge_sums(df: pd.DataFrame) -> pd.DataFrame:
        cols = {
            "user_id": pd.Series([], dtype="int64"),
            "seg_sum": pd.Series([], dtype="float64"),
            "seg_ts": pd.Series([], dtype=df["ts"].dtype),
            "seg_eid": pd.Series([], dtype="int64"),
            "blk_ts": pd.Series([], dtype=df["ts"].dtype),
            "blk_eid": pd.Series([], dtype="int64"),
            "is_first": pd.Series([], dtype="bool"),
            "is_last": pd.Series([], dtype="bool"),
        }
        if df.empty:
            return pd.DataFrame(cols)
        u, start = _segments(df)
        v = df["value"].to_numpy()
        starts = np.flatnonzero(start)
        cs = np.concatenate([[0.0], np.cumsum(v)])
        ends = np.concatenate([starts[1:], [len(df)]])
        sums = cs[ends] - cs[starts]
        first_i, last_i = 0, len(starts) - 1
        take = sorted({first_i, last_i})
        return pd.DataFrame(
            {
                "user_id": u[starts[take]].astype("int64"),
                "seg_sum": sums[take].astype("float64"),
                # SEGMENT first row: orders blocks within a user (the
                # block's own first row can belong to another user
                # with an unrelated ts range)
                "seg_ts": df["ts"].iloc[starts[take]].reset_index(
                    drop=True
                ),
                "seg_eid": df["event_id"].to_numpy()[starts[take]].astype(
                    "int64"
                ),
                # BLOCK identity: the block's first row (ts, event_id)
                "blk_ts": pd.Series(
                    [df["ts"].iloc[0]] * len(take), dtype=df["ts"].dtype
                ),
                "blk_eid": np.full(
                    len(take), df["event_id"].iloc[0], dtype=np.int64
                ),
                "is_first": np.array(
                    [i == first_i for i in take], dtype=bool
                ),
                "is_last": np.array(
                    [i == last_i for i in take], dtype=bool
                ),
            }
        )

    # O(2 x blocks) edge-segment rows — never events or users
    bd = (
        srt.map_batches(edge_sums, batch_format="pandas", batch_size=None)
        .to_pandas()
    )
    offsets: dict[tuple, float] = {}
    if len(bd):
        # block order within a user == order of the SEGMENTS' first
        # rows (sorted blocks are contiguous key runs)
        bd = bd.sort_values(
            ["user_id", "seg_ts", "seg_eid"], kind="mergesort"
        ).reset_index(drop=True)
        u = bd["user_id"].to_numpy()
        newkey = np.ones(len(bd), dtype=bool)
        newkey[1:] = u[1:] != u[:-1]
        # contribution of an earlier block to this user = its LAST
        # segment's sum (the only segment touching later blocks)
        contrib = np.where(
            bd["is_last"].to_numpy(), bd["seg_sum"].to_numpy(), 0.0
        )
        cum = np.cumsum(contrib)
        before = cum - contrib  # cumulative of strictly-earlier rows
        # forward-fill each user's starting cumulative (NaN-ffill, not
        # a running max: segment sums can be negative)
        key_base = pd.Series(
            np.where(newkey, before, np.nan)
        ).ffill().to_numpy()
        off = before - key_base
        want = bd["is_first"].to_numpy() & ~newkey
        for i in np.flatnonzero(want):
            # key on (user, block-first ts, block-first event_id)
            offsets[
                (
                    int(u[i]),
                    bd["blk_ts"].iloc[i],
                    int(bd["blk_eid"].iloc[i]),
                )
            ] = float(off[i])
    # broadcast is O(straddling blocks) entries — block-count-bounded
    off_ref = ray.put(offsets)

    def block_runs(df: pd.DataFrame, _memo={}) -> pd.DataFrame:
        if df.empty:
            return empty
        if "o" not in _memo:
            _memo["o"] = ray.get(off_ref)  # O(straddling blocks), tiny
        u, start = _segments(df)
        v = df["value"].to_numpy()
        cs = np.cumsum(v)
        starts = np.flatnonzero(start)
        seg_id = np.cumsum(start) - 1
        base = np.concatenate([[0.0], cs])[starts][seg_id]
        run = cs - base
        off = _memo["o"].get(
            (
                int(u[0]),
                df["ts"].iloc[0],
                int(df["event_id"].iloc[0]),
            )
        )
        if off:
            run = np.where(seg_id == 0, run + off, run)
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy().astype("int64"),
                "user_id": u.astype("int64"),
                "run_sum": np.round(run, 6),
            }
        )

    return srt.map_batches(
        block_runs, batch_format="pandas", batch_size=None
    )


def histogram(sf_dir: str, bins: int = 20):
    """Fixed-width histogram of documents.n_chars over the GLOBAL
    [min, max] range: pass 1 is the metadata-cheap min/max aggregate,
    pass 2 streams integer bin assignment + per-block bincount
    partials merged by a vocabulary-sized (= bins) final sum. Bin
    edges use pure int64 arithmetic — (x - lo) * bins // (hi - lo + 1)
    — so the oracle reproduces them exactly with no float edges."""
    from ray.data.aggregate import Max, Min

    ds = _read(sf_dir, "documents", ["n_chars"])
    mm = ds.aggregate(Min("n_chars"), Max("n_chars"))
    lo, hi = int(mm["min(n_chars)"]), int(mm["max(n_chars)"])
    span = hi - lo + 1

    def partial(t: pa.Table) -> pa.Table:
        x = t.column("n_chars").to_numpy(zero_copy_only=False)
        if x.size == 0:
            return pa.table(
                {"bin": pa.array([], pa.int64()),
                 "n": pa.array([], pa.int64())}
            )
        b = (x - lo) * bins // span
        counts = np.bincount(b, minlength=bins)
        nz = np.flatnonzero(counts)
        return pa.table(
            {"bin": pa.array(nz, pa.int64()),
             "n": pa.array(counts[nz], pa.int64())}
        )

    from .groupagg import merge_partials

    out = merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["bin"], {"n": "sum"},
    )
    return out.sort_values("bin").reset_index(drop=True)


def tz_hourly_activity(sf_dir: str, tz: str = "America/New_York"):
    """Events per LOCAL-time hour-of-day: the stored naive ts is a UTC
    instant; convert to ``tz`` (DST-aware, via the Arrow timezone
    cast — reference analog: tz metadata round-trip,
    util.py:300-315 / dataframe.py:246-254) and fold per-block
    (hour, count, sum) partials into <= 24 rows. One streaming pass,
    Arrow-native, vocabulary-sized merge."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["ts", "value"])
    local_t = pa.timestamp("us", tz=tz)

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"hour": pa.array([], pa.int64()),
             "n": pa.array([], pa.int64()),
             "sum_value": pa.array([], pa.float64())}
        )
        if t.num_rows == 0:
            return empty
        ts = t.column("ts").combine_chunks()
        if ts.type.tz is None:
            ts = pc.assume_timezone(ts, "UTC")
        hr = pc.hour(ts.cast(local_t)).to_numpy(zero_copy_only=False)
        val = t.column("value").to_numpy(zero_copy_only=False)
        n = np.bincount(hr, minlength=24)
        sv = np.bincount(hr, weights=val, minlength=24)
        nz = np.flatnonzero(n)
        return pa.table(
            {"hour": pa.array(nz, pa.int64()),
             "n": pa.array(n[nz], pa.int64()),
             "sum_value": pa.array(sv[nz], pa.float64())}
        )

    from .groupagg import merge_partials

    out = merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["hour"], {"n": "sum", "sum_value": "sum"},
    )
    out["sum_value"] = np.round(out["sum_value"], 6)
    return out.sort_values("hour").reset_index(drop=True)


def ntile(sf_dir: str, k: int = 10):
    """NTILE(k) OVER (ORDER BY o_totalprice, o_orderkey) folded to
    per-bucket (count, avg) — equal-frequency bucketing WITHOUT a
    global sort. The bucket boundaries are exact order statistics at
    the SQL NTILE cumulative sizes (first n%k buckets one row larger),
    found by the histogram rank-partition of sketches._rank_select;
    one more streaming scan then bins every row against the boundary
    VALUES. Rows tied WITH a boundary value can straddle buckets, so
    they are emitted as (orderkey, value) residue rows — bounded by
    the boundary values' multiplicity, never the corpus — and ranked
    exactly on the driver from per-block count-below partials.

    The two-column read is materialized ONCE and every selection pass
    plus the final binning scan run over the cached blocks (the
    mad_value scan fusion): 4 parquet reads -> 1 read + 4 in-memory
    scans."""
    from .sketches import _rank_select_ds

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"]).materialize()

    def ends_of(n: int) -> np.ndarray:
        base, rem = divmod(n, k)
        sizes = np.full(k, base, dtype=np.int64)
        sizes[:rem] += 1
        return np.cumsum(sizes)

    n, rank_value = _rank_select_ds(
        ds, "o_totalprice",
        lambda n: [int(r) for r in ends_of(n)[:-1]],
    )
    if n == 0:
        return pd.DataFrame(
            {"bucket": pd.Series([], dtype="int64"),
             "n": pd.Series([], dtype="int64"),
             "avg_price": pd.Series([], dtype="float64")}
        )
    ends = ends_of(n)
    vs = np.asarray([rank_value[int(r)] for r in ends[:-1]])  # sorted
    uv = np.unique(vs)

    def partial(t: pa.Table) -> pa.Table:
        p = t.column("o_totalprice").to_numpy(zero_copy_only=False)
        okey = t.column("o_orderkey").to_numpy(zero_copy_only=False)
        left = np.searchsorted(vs, p, side="left")
        right = np.searchsorted(vs, p, side="right")
        clear = left == right
        nb = np.bincount(left[clear], minlength=k)
        sb = np.bincount(left[clear], weights=p[clear], minlength=k)
        nz = np.flatnonzero(nb)
        typ = [np.zeros(nz.size, np.int8)]
        key = [nz.astype(np.int64)]
        cnt = [nb[nz].astype(np.int64)]
        val = [sb[nz]]
        # count-below partials per distinct boundary value
        less = np.searchsorted(np.sort(p), uv, side="left")
        typ.append(np.ones(uv.size, np.int8))
        key.append(np.arange(uv.size, dtype=np.int64))
        cnt.append(less.astype(np.int64))
        val.append(np.zeros(uv.size))
        # boundary-tied residue rows
        tied = ~clear
        if tied.any():
            vidx = np.searchsorted(uv, p[tied])
            typ.append(np.full(tied.sum(), 2, np.int8))
            key.append(okey[tied].astype(np.int64))
            cnt.append(vidx.astype(np.int64))
            val.append(p[tied].astype(np.float64))
        return pa.table(
            {"typ": pa.array(np.concatenate(typ), pa.int8()),
             "key": pa.array(np.concatenate(key), pa.int64()),
             "cnt": pa.array(np.concatenate(cnt), pa.int64()),
             "val": pa.array(np.concatenate(val), pa.float64())}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    nbuck = np.zeros(k, dtype=np.int64)
    sbuck = np.zeros(k, dtype=np.float64)
    b0 = parts[parts["typ"] == 0]
    np.add.at(nbuck, b0["key"].to_numpy(), b0["cnt"].to_numpy())
    np.add.at(sbuck, b0["key"].to_numpy(), b0["val"].to_numpy())
    b1 = parts[parts["typ"] == 1]
    below = np.zeros(uv.size, dtype=np.int64)
    np.add.at(below, b1["key"].to_numpy(), b1["cnt"].to_numpy())
    b2 = parts[parts["typ"] == 2]
    for vi, sub in b2.groupby("cnt", sort=False):
        okeys = np.sort(sub["key"].to_numpy())
        ranks = below[int(vi)] + 1 + np.arange(okeys.size, dtype=np.int64)
        bk = np.searchsorted(ends, ranks, side="left")
        np.add.at(nbuck, bk, 1)
        # all rows share the tied value; accumulate once per row
        np.add.at(sbuck, bk, float(sub["val"].iloc[0]))
    keep = nbuck > 0
    return pd.DataFrame(
        {"bucket": (np.flatnonzero(keep) + 1).astype("int64"),
         "n": nbuck[keep],
         "avg_price": np.round(sbuck[keep] / nbuck[keep], 6)}
    )


def zscore_outliers(sf_dir: str, z: float = 2.0):
    """Per-user z-score outlier events (|value - mean_u| > z * sd_u,
    sample stddev) — the anomaly-flagging pass over an event stream.
    Two streaming scans: (n, Σv, Σv²) partials per user merged to the
    grouped-aggregate footprint, then a broadcast (user -> mean, sd)
    filter scan. No exchange ever carries event rows."""
    import ray

    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def stat_partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy()
        g = pd.DataFrame(
            {"user_id": df["user_id"], "n": 1.0, "s": v, "ss": v * v}
        )
        return g.groupby("user_id", as_index=False).sum()

    from .groupagg import merge_partials

    st = merge_partials(
        ds.map_batches(stat_partial, batch_format="pandas"),
        ["user_id"], {"n": "sum", "s": "sum", "ss": "sum"},
    ).sort_values("user_id")
    n = st["n"].to_numpy()
    s = st["s"].to_numpy()
    ss = st["ss"].to_numpy()
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = s / n
        var = (ss - s * s / n) / np.maximum(n - 1, 1)
    sd = np.sqrt(np.maximum(var, 0.0))
    ok = (n >= 2) & (sd > 0)
    users = st["user_id"].to_numpy(dtype=np.int64)[ok]
    ref = ray.put((users, mean[ok], sd[ok]))

    class Flag:
        def __init__(self, r):
            self.users, self.mean, self.sd = ray.get(r)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            if self.users.size == 0:
                return pd.DataFrame(
                    {
                        "event_id": np.empty(0, np.int64),
                        "user_id": np.empty(0, np.int64),
                        "z": np.empty(0, np.float64),
                    }
                )
            pos = np.searchsorted(self.users, df["user_id"].to_numpy())
            pos = np.clip(pos, 0, len(self.users) - 1)
            hit = self.users[pos] == df["user_id"].to_numpy()
            zs = np.where(
                hit,
                (df["value"].to_numpy() - self.mean[pos]) / self.sd[pos],
                0.0,
            )
            keep = hit & (np.abs(zs) > z)
            return pd.DataFrame(
                {
                    "event_id": df["event_id"].to_numpy()[keep].astype(
                        "int64"
                    ),
                    "user_id": df["user_id"].to_numpy()[keep].astype(
                        "int64"
                    ),
                    "z": np.round(zs[keep], 6),
                }
            )

    return ds.map_batches(
        _task_state(lambda: Flag(ref)), batch_format="pandas",
    )


def cohort_retention(sf_dir: str, week_secs: int = 604_800):
    """Week-over-week user retention over the events stream: for each
    epoch week w, how many users active in w were also active in w+1 —
    the cohort health metric every engagement pipeline reports.

    Scale shape: ONE exchange. Per-batch distinct (user, week)
    partials fold through groupagg.merge_partials (driver mode at
    test scale, sort mode past the row cap) to the users x weeks
    activity matrix — the exact footprint the retention computation
    needs and no more (events never ship whole). The week-over-week
    fold is then a vectorized membership test on packed
    (user << 20 | week) keys: (u, w) retained iff key+1 is present,
    valid because epoch weeks fit 20 bits so w+1 can never roll into
    the next user's key space. Weeks-sized output."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])
    wk_ns = np.int64(week_secs) * 1_000_000_000

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        ns = df["ts"].astype("int64") * (
            1000 if df["ts"].dtype == "datetime64[us]" else 1
        )
        out = pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "wk": (ns // wk_ns).astype("int64"),
                "n": np.int64(1),
            }
        )
        return out.drop_duplicates(["user_id", "wk"])

    from .groupagg import merge_partials

    uw = merge_partials(
        ds.map_batches(pairs, batch_format="pandas"),
        ["user_id", "wk"], {"n": "sum"},
    )
    u = uw["user_id"].to_numpy(dtype=np.int64)
    w = uw["wk"].to_numpy(dtype=np.int64)
    key = np.sort((u << np.int64(20)) | w)  # epoch weeks < 2^20
    nxt = np.isin(key + 1, key, assume_unique=True)
    wk_vals = (key & np.int64((1 << 20) - 1))
    uniq_w, inv = np.unique(wk_vals, return_inverse=True)
    active = np.bincount(inv)
    retained = np.bincount(inv, weights=nxt.astype(np.float64)).astype(
        np.int64
    )
    return pd.DataFrame(
        {
            "wk": uniq_w.astype("int64"),
            "active": active.astype("int64"),
            "retained": retained,
            "rate": np.round(retained / active, 6),
        }
    )


def new_users_weekly(sf_dir: str, week_secs: int = 604_800):
    """Weekly new-user arrivals + cumulative user count: each user's
    FIRST event timestamp, bucketed to epoch weeks, counted per week,
    with a running total — the growth curve every activity pipeline
    reports.

    Scale shape: ONE per-user min aggregate. Per-block (user, min ts)
    partials fold through groupagg.merge_partials (driver mode at
    test scale, sort mode past the row cap); the week bucketing,
    counting and cumulative sum then run over the users-sized summary
    (weeks-sized output). Events never ship whole; no window
    exchange — the cumsum is over a weeks-length array."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])
    wk_us = np.int64(week_secs) * 1_000_000

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].astype("int64") // (
            1 if df["ts"].dtype == "datetime64[us]" else 1000
        )
        out = pd.DataFrame(
            {"user_id": df["user_id"].astype("int64"), "mn": us}
        )
        return out.groupby("user_id", sort=False)["mn"].min().reset_index()

    from .groupagg import merge_partials

    fs = merge_partials(
        ds.map_batches(partial, batch_format="pandas"),
        ["user_id"], {"mn": "min"},
    )
    wk = (fs["mn"].to_numpy(dtype=np.int64) // wk_us)
    uniq_w, cnt = np.unique(wk, return_counts=True)
    return pd.DataFrame(
        {
            "week": uniq_w.astype("int64"),
            "n_new": cnt.astype("int64"),
            "cum_users": np.cumsum(cnt).astype("int64"),
        }
    )


def mutual_information(sf_dir: str):
    """Mutual information (nats) between documents.source and
    documents.lang — the 'is my language mix confounded with my
    source mix' audit a mixture designer runs before reweighting:
    MI = sum_{s,l} p(s,l) * ln(p(s,l) / (p(s) p(l))).

    Scale shape: one streaming scan of two low-cardinality columns
    producing per-block (source, lang, n) partials; the merged
    contingency table is sources x langs sized, so marginals and the
    MI fold are driver-trivial. 6-dp rounding on both sides absorbs
    float summation-order drift (kl_divergence precedent)."""
    ds = _read(sf_dir, "documents", ["source", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["source", "lang"]).aggregate([("lang", "count")])
        return g.rename_columns(["source", "lang", "n"])

    from .groupagg import merge_partials

    c = merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source", "lang"], {"n": "sum"},
    )
    n = c["n"].to_numpy(np.float64)
    total = n.sum()
    ns = c.groupby("source")["n"].transform("sum").to_numpy(np.float64)
    nl = c.groupby("lang")["n"].transform("sum").to_numpy(np.float64)
    mi = float(((n / total) * np.log((n * total) / (ns * nl))).sum())
    return pd.DataFrame({"mi": [round(mi, 6)]})


def first_last_event(sf_dir: str):
    """Per-user first and last event_type under (ts, event_id) order,
    plus the event count — the session-boundary summary (entry page /
    exit page) every engagement report starts from.

    Scale shape: an ordered aggregate made ASSOCIATIVE by packing the
    order key into a lexicographically sortable string (zero-padded
    ts-microseconds : zero-padded event_id : event_type) — min of the
    packed key IS the argmin row, so per-block partials collapse each
    block to <= 1 row per (block, user) and merge through
    groupagg.merge_partials min/max like any sum. No sort, no window
    pass, no carry chain; the unpack runs on the O(users) merged
    frame."""
    from .groupagg import merge_partials

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    empty = pd.DataFrame(
        {"user_id": pd.Series([], dtype="int64"),
         "first_k": pd.Series([], dtype="object"),
         "last_k": pd.Series([], dtype="object"),
         "n": pd.Series([], dtype="int64")}
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return empty
        us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = df["event_id"].to_numpy().astype(np.int64)
        u = df["user_id"].to_numpy().astype(np.int64)
        # numeric lexsort picks the block argmin/argmax rows per user;
        # packed keys are built only for those <= 2 x users rows
        o = np.lexsort((eid, us, u))
        uo = u[o]
        start = np.ones(uo.size, dtype=bool)
        start[1:] = uo[1:] != uo[:-1]
        firsts = o[np.flatnonzero(start)]
        lasts = o[np.concatenate([np.flatnonzero(start)[1:], [uo.size]]) - 1]
        cnt = np.diff(np.concatenate(
            [np.flatnonzero(start), [uo.size]]
        )).astype(np.int64)

        def pack(idx: np.ndarray) -> np.ndarray:
            et = df["event_type"].to_numpy()[idx].astype("U")
            # +2^62 keeps the decimal rendering non-negative (pre-1970
            # timestamps would otherwise sort lexicographically wrong)
            # and fits int64; 20 digits hold the full range of both
            # fields — no truncation at any event_id scale
            ts_k = (us[idx] + np.int64(1 << 62)).astype("U20")
            k = np.char.add(
                np.char.add(np.char.zfill(ts_k, 20), ":"),
                np.char.zfill(eid[idx].astype("U20"), 20),
            )
            return np.char.add(np.char.add(k, ":"), et)

        return pd.DataFrame(
            {"user_id": uo[start],
             "first_k": pack(firsts),
             "last_k": pack(lasts),
             "n": cnt}
        )

    agg = merge_partials(
        ds.map_batches(partial, batch_format="pandas"),
        ["user_id"],
        {"first_k": "min", "last_k": "max", "n": "sum"},
    )
    out = pd.DataFrame(
        {"user_id": agg["user_id"].astype("int64"),
         "first_type": agg["first_k"].str.split(":", n=2).str[2],
         "last_type": agg["last_k"].str.split(":", n=2).str[2],
         "n": agg["n"].astype("int64")}
    )
    return out.sort_values("user_id").reset_index(drop=True)


_DAY_US = 86_400_000_000


def dense_rank_day(sf_dir: str):
    """dense_rank() OVER (PARTITION BY user_id ORDER BY
    date_trunc('day', ts)) — each event labeled with its user's
    "nth distinct active day", the engagement-streak primitive.
    Unlike row_number, ties (same-day events) share a rank and the
    next day advances by exactly one.

    Scale shape (the segmented-sort family): ONE range sort on
    (user_id, day, event_id) — no group co-location, hot users simply
    span sorted blocks — then a vectorized per-block dense-rank pass.
    A straddling user's rank offset (distinct days in its earlier
    blocks) folds from the O(blocks) border frame: every segment of a
    straddling user is an edge segment of some block, and
    consecutive segments can share at most the boundary day, so a
    running (union size, last day) chain per user heals both the
    offset and the double-counted straddling day."""
    import ray
    import ray.data

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def with_day(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        out = df[["event_id", "user_id"]].copy()
        out["day"] = us // _DAY_US
        return out

    srt = (
        ds.map_batches(with_day, batch_format="pandas")
        .sort(["user_id", "day", "event_id"])
        .materialize()  # consumed twice: border pull + rank pass
    )

    edge_cols = {
        "user_id": pd.Series([], dtype="int64"),
        "nd": pd.Series([], dtype="int64"),
        "fday": pd.Series([], dtype="int64"),
        "lday": pd.Series([], dtype="int64"),
        "feid": pd.Series([], dtype="int64"),
        "blk_day": pd.Series([], dtype="int64"),
        "blk_eid": pd.Series([], dtype="int64"),
        "is_first": pd.Series([], dtype="bool"),
    }

    def edge_days(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(edge_cols)
        u = df["user_id"].to_numpy()
        d = df["day"].to_numpy()
        e = df["event_id"].to_numpy()
        start = np.ones(len(df), dtype=bool)
        start[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(start)
        ends = np.concatenate([starts[1:], [len(df)]])
        first_i, last_i = 0, len(starts) - 1
        take = sorted({first_i, last_i})
        rows = []
        for i in take:
            dseg = d[starts[i]:ends[i]]
            rows.append(
                (int(u[starts[i]]),
                 1 + int(np.count_nonzero(np.diff(dseg))),
                 int(dseg[0]), int(dseg[-1]), int(e[starts[i]]),
                 int(d[0]), int(e[0]), i == first_i)
            )
        return pd.DataFrame(rows, columns=list(edge_cols))

    # O(2 x blocks) edge rows — never events or users
    bd = (
        srt.map_batches(edge_days, batch_format="pandas", batch_size=None)
        .to_pandas()
    )
    offsets: dict[tuple, int] = {}
    if len(bd):
        bd = bd.sort_values(
            ["user_id", "fday", "feid"], kind="mergesort"
        ).reset_index(drop=True)
        prev_user = None
        union_n = 0
        prev_l = None
        for row in bd.itertuples(index=False):
            if row.user_id != prev_user:
                prev_user, union_n, prev_l = row.user_id, 0, None
            overlap = 1 if prev_l is not None and prev_l == row.fday else 0
            if row.is_first and union_n > 0:
                # block-first continuation segment: its local rank 1
                # is day fday, already counted iff it straddles
                offsets[
                    (int(row.user_id), int(row.blk_day), int(row.blk_eid))
                ] = union_n - overlap
            union_n += row.nd - overlap
            prev_l = row.lday
    # broadcast is O(straddling blocks) entries — block-count-bounded
    off_ref = ray.put(offsets)

    empty = pd.DataFrame(
        {"event_id": pd.Series([], dtype="int64"),
         "user_id": pd.Series([], dtype="int64"),
         "dr": pd.Series([], dtype="int64")}
    )

    def block_dr(df: pd.DataFrame, _memo={}) -> pd.DataFrame:
        if df.empty:
            return empty
        if "o" not in _memo:
            _memo["o"] = ray.get(off_ref)  # O(straddling blocks), tiny
        u = df["user_id"].to_numpy()
        d = df["day"].to_numpy()
        start = np.ones(len(df), dtype=bool)
        start[1:] = u[1:] != u[:-1]
        seg_id = np.cumsum(start) - 1
        starts = np.flatnonzero(start)
        newday = start.copy()
        newday[1:] |= d[1:] != d[:-1]
        nd_cum = np.cumsum(newday)
        dr = nd_cum - nd_cum[starts[seg_id]] + 1
        off = _memo["o"].get(
            (int(u[0]), int(d[0]), int(df["event_id"].iloc[0]))
        )
        if off:
            dr = np.where(seg_id == 0, dr + off, dr)
        return pd.DataFrame(
            {"event_id": df["event_id"].to_numpy().astype("int64"),
             "user_id": u.astype("int64"),
             "dr": dr.astype("int64")}
        )

    return srt.map_batches(block_dr, batch_format="pandas", batch_size=None)


def interarrival_stats(sf_dir: str):
    """Per-user mean inter-event gap in seconds — the cadence metric
    behind churn / engagement models. The telescoping identity
    avg(ts_i - ts_{i-1}) == (max ts - min ts) / (n - 1) turns a
    window-lag aggregate into plain min/max/count partials: zero
    sort, zero window pass, one users-sized merge."""
    from .groupagg import merge_partials

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    empty = pd.DataFrame(
        {"user_id": pd.Series([], dtype="int64"),
         "mn": pd.Series([], dtype="int64"),
         "mx": pd.Series([], dtype="int64"),
         "n": pd.Series([], dtype="int64")}
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return empty
        us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        g = pd.DataFrame(
            {"user_id": df["user_id"].to_numpy().astype(np.int64),
             "mn": us, "mx": us}
        )
        return g.groupby("user_id", as_index=False).agg(
            mn=("mn", "min"), mx=("mx", "max"), n=("mx", "size")
        )

    agg = merge_partials(
        ds.map_batches(partial, batch_format="pandas"),
        ["user_id"], {"mn": "min", "mx": "max", "n": "sum"},
    )
    agg = agg[agg["n"] >= 2].sort_values("user_id").reset_index(drop=True)
    d = (agg["mx"] - agg["mn"]).to_numpy(np.float64)
    gap = d / 1_000_000.0 / (agg["n"].to_numpy(np.float64) - 1.0)
    return pd.DataFrame(
        {"user_id": agg["user_id"].astype("int64"),
         "n": agg["n"].astype("int64"),
         "avg_gap_s": np.round(gap, 6)}
    )


def event_transitions(sf_dir: str):
    """Global next-event transition counts: for every consecutive
    (by ts, event_id) event pair of a user, count (from_type ->
    to_type) — the Markov transition matrix behind funnel and
    path-analysis dashboards, a lead() window folded to a
    types x types summary.

    Scale shape (segmented-sort family): ONE range sort on (user_id,
    ts, event_id), block-local vectorized pairing (adjacent rows of
    the same user), partials merged at types^2 cardinality. Pairs
    that straddle a block boundary are recovered on the driver from
    the O(blocks) edge frame (each block's first/last row), added as
    at most blocks-1 extra transitions."""
    import ray
    import ray.data

    from .groupagg import merge_partials

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    srt = (
        ds.sort(["user_id", "ts", "event_id"])
        .materialize()  # consumed twice: partial pass + edge pull
    )

    empty = pd.DataFrame(
        {"from_type": pd.Series([], dtype="object"),
         "to_type": pd.Series([], dtype="object"),
         "n": pd.Series([], dtype="int64")}
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) < 2:
            return empty
        u = df["user_id"].to_numpy()
        et = df["event_type"].to_numpy()
        same = u[1:] == u[:-1]
        if not same.any():
            return empty
        g = pd.DataFrame(
            {"from_type": et[:-1][same], "to_type": et[1:][same], "n": 1}
        )
        return g.groupby(["from_type", "to_type"], as_index=False).agg(
            n=("n", "sum")
        )

    edge_cols = {
        "fu": pd.Series([], dtype="int64"),
        "fts": pd.Series([], dtype="int64"),
        "feid": pd.Series([], dtype="int64"),
        "ftype": pd.Series([], dtype="object"),
        "lu": pd.Series([], dtype="int64"),
        "ltype": pd.Series([], dtype="object"),
    }

    def edges(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(edge_cols)
        us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        return pd.DataFrame(
            {"fu": [int(df["user_id"].iloc[0])],
             "fts": [int(us[0])],
             "feid": [int(df["event_id"].iloc[0])],
             "ftype": [df["event_type"].iloc[0]],
             "lu": [int(df["user_id"].iloc[-1])],
             "ltype": [df["event_type"].iloc[-1]]}
        )

    parts = srt.map_batches(partial, batch_format="pandas", batch_size=None)
    agg = merge_partials(
        parts, ["from_type", "to_type"], {"n": "sum"}
    )
    # O(blocks) edge rows: one per block — boundary pairs resolve here
    bd = (
        srt.map_batches(edges, batch_format="pandas", batch_size=None)
        .to_pandas()
    )
    if len(bd) > 1:
        bd = bd.sort_values(["fu", "fts", "feid"], kind="mergesort")
        lu = bd["lu"].to_numpy()
        fu = bd["fu"].to_numpy()
        cont = lu[:-1] == fu[1:]
        if cont.any():
            extra = pd.DataFrame(
                {"from_type": bd["ltype"].to_numpy()[:-1][cont],
                 "to_type": bd["ftype"].to_numpy()[1:][cont],
                 "n": 1}
            )
            agg = (
                pd.concat([agg, extra], ignore_index=True)
                .groupby(["from_type", "to_type"], as_index=False)
                .agg(n=("n", "sum"))
            )
    agg["n"] = agg["n"].astype("int64")
    return agg.sort_values(["from_type", "to_type"]).reset_index(drop=True)


def rolling_dau(sf_dir: str, window_days: int = 7):
    """Daily active users + trailing-``window_days`` active users
    (DAU / WAU) per observed day — THE engagement dashboard primitive,
    and a rolling COUNT DISTINCT, which no plain window aggregate
    expresses (distinct does not decompose over sliding frames).

    Scale shape (fully distributed — NO user-scaled driver state):
    blocks collapse locally to distinct (day, user) pairs, ONE range
    sort on (user_id, day) co-locates each user's active days, and
    every sorted block emits two DAYS-SCALED partials — per-day
    first-occurrence counts (dau) and interval-union diff deltas
    (+1 at each run start, -1 past run end + window - 1; runs are
    maximal day sequences with gaps < window). A pair or a run
    straddling a block boundary is healed by O(blocks) driver
    corrections (duplicate-pair -1; pairwise-consecutive overlap
    subtraction — exact because chained run intervals have sorted
    starts AND ends, so any point is covered by a contiguous set of
    runs). The final merge is days-scaled; one cumsum over the
    sorted delta days yields every day's trailing distinct count."""
    from .groupagg import merge_partials

    w = int(window_days)
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    pair_empty = pd.DataFrame(
        {"user_id": pd.Series([], dtype="int64"),
         "day": pd.Series([], dtype="int64")}
    )

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pair_empty
        us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        g = pd.DataFrame(
            {"user_id": df["user_id"].to_numpy().astype(np.int64),
             "day": us // _DAY_US}
        )
        return g.drop_duplicates(["user_id", "day"])

    srt = (
        ds.map_batches(pair_partial, batch_format="pandas")
        .sort(["user_id", "day"])
        .materialize()  # consumed twice: partials + border pull
    )

    out_empty = pd.DataFrame(
        {"day": pd.Series([], dtype="int64"),
         "dn": pd.Series([], dtype="int64"),
         "dd": pd.Series([], dtype="int64")}
    )

    def _dedup_runs(u: np.ndarray, d: np.ndarray):
        """Adjacent-duplicate mask + run boundaries over sorted
        (user, day) rows; returns (keep, run_start_idx, run_end_idx)
        into the DEDUPED arrays."""
        keep = np.ones(u.size, dtype=bool)
        keep[1:] = (u[1:] != u[:-1]) | (d[1:] != d[:-1])
        uu, dd_ = u[keep], d[keep]
        newrun = np.ones(uu.size, dtype=bool)
        newrun[1:] = (uu[1:] != uu[:-1]) | (dd_[1:] - dd_[:-1] > w - 1)
        starts = np.flatnonzero(newrun)
        ends = np.concatenate([starts[1:], [uu.size]]) - 1
        return uu, dd_, starts, ends

    def block_partial(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return out_empty
        u = df["user_id"].to_numpy()
        d = df["day"].to_numpy()
        uu, dd_, starts, ends = _dedup_runs(u, d)
        days, dn = np.unique(dd_, return_counts=True)
        delta_day = np.concatenate([dd_[starts], dd_[ends] + w])
        delta = np.concatenate(
            [np.ones(starts.size, np.int64), -np.ones(ends.size, np.int64)]
        )
        out = pd.DataFrame(
            {"day": np.concatenate([days, delta_day]),
             "dn": np.concatenate([dn, np.zeros(delta.size, np.int64)]),
             "dd": np.concatenate([np.zeros(days.size, np.int64), delta])}
        )
        return out.groupby("day", as_index=False).agg(
            dn=("dn", "sum"), dd=("dd", "sum")
        )

    # block-boundary facts reduce to the block's first/last (user,
    # day): the first run of a block STARTS at its first row (so its
    # start day == d0) and the last run ENDS at its last row (end day
    # == dl) — no extra run fields needed
    edge_cols = {
        "u0": pd.Series([], dtype="int64"),
        "d0": pd.Series([], dtype="int64"),
        "ul": pd.Series([], dtype="int64"),
        "dl": pd.Series([], dtype="int64"),
    }

    def edges(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(edge_cols)
        u = df["user_id"].to_numpy()
        d = df["day"].to_numpy()
        return pd.DataFrame(
            {"u0": [int(u[0])], "d0": [int(d[0])],
             "ul": [int(u[-1])], "dl": [int(d[-1])]}
        )

    parts = srt.map_batches(
        block_partial, batch_format="pandas", batch_size=None
    )
    # O(blocks) edge rows — never pairs or users
    bd = (
        srt.map_batches(edges, batch_format="pandas", batch_size=None)
        .to_pandas()
    )
    corr_day, corr_dn, corr_dd = [], [], []
    if len(bd) > 1:
        bd = bd.sort_values(
            ["u0", "d0", "ul", "dl"], kind="mergesort"
        ).reset_index(drop=True)
        for i in range(len(bd) - 1):
            a, b = bd.iloc[i], bd.iloc[i + 1]
            if a["ul"] != b["u0"]:
                continue
            if a["dl"] == b["d0"]:
                # same (user, day) pair counted in both blocks
                corr_day.append(int(b["d0"]))
                corr_dn.append(-1)
                corr_dd.append(0)
            # consecutive runs of one user across the boundary: when
            # the next block's first run (starting at its first row,
            # day b.d0) starts inside the previous block's last
            # covered window (ending day a.dl + w - 1), subtract the
            # overlap [b.d0, a.dl + w - 1] once
            if b["d0"] - a["dl"] <= w - 1:
                corr_day.extend([int(b["d0"]), int(a["dl"]) + w])
                corr_dn.extend([0, 0])
                corr_dd.extend([-1, 1])
    agg = merge_partials(parts, ["day"], {"dn": "sum", "dd": "sum"})
    if corr_day:
        agg = (
            pd.concat(
                [agg, pd.DataFrame(
                    {"day": corr_day, "dn": corr_dn, "dd": corr_dd}
                )],
                ignore_index=True,
            )
            .groupby("day", as_index=False)
            .agg(dn=("dn", "sum"), dd=("dd", "sum"))
        )
    if agg.empty:
        return pd.DataFrame(
            {"day": pd.Series([], dtype="int64"),
             "dau": pd.Series([], dtype="int64"),
             "wau": pd.Series([], dtype="int64")}
        )
    agg = agg.sort_values("day").reset_index(drop=True)
    dday = agg["day"].to_numpy(np.int64)
    cum = np.cumsum(agg["dd"].to_numpy(np.int64))
    obs_mask = agg["dn"].to_numpy(np.int64) > 0
    obs = dday[obs_mask]
    # wau(day) = sum of deltas at delta-days <= day
    pos = np.searchsorted(dday, obs, side="right") - 1
    return pd.DataFrame(
        {"day": obs,
         "dau": agg["dn"].to_numpy(np.int64)[obs_mask],
         "wau": cum[pos].astype(np.int64)}
    )
