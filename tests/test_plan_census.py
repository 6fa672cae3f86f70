"""Planner census: which codec ``train_plan`` picks on the tokens table,
and one input on which each integer candidate wins. Every candidate the
planner trials must win somewhere, or it is dead weight in every plan
(dict2 never won and is now decode-only). The tokens rows are in file
and in ``doc_id``-sorted order, since sort order decides which integer
codec wins (Column Partition and Permutation for Run Length Encoding,
SIGMOD'20)."""

import hashlib
import logging

import numpy as np
import pyarrow as pa
import pytest

from fastparquet_ray.codecs import intcodec as ic
from fastparquet_ray.codecs import strcodec as sc
from fastparquet_ray.data import generate_fragment
from fastparquet_ray.plan import _pick_int_codec, _pick_str_codec, train_plan

# (rows per fragment, fragments, outer) -> picks for
# (doc_id, n_tok, source, tokens lengths, tokens values); the string
# and zrank picks carry a shared table
CENSUS = {
    (400, 1, None): ("fsst", "rle", "dict", "rle", "zrank"),
    (400, 1, ("zstd", 3)): ("fsst", "rle", "dict", "rle", "zrank"),
    (2000, 3, None): ("fsst", "pfor", "dict", "pfor", "zrank"),
    (2000, 3, ("zstd", 3)): ("fsst", "for_bp", "dict", "for_bp", "zrank"),
}

# sha256 of the plan's JSON per (case, order), as the plan was before
# the int trial was sized from layouts and FSST training got its floor:
# a faster trial must give the same bytes, symbol tables included. The
# two outer-zstd cases changed once, when the rank codes became byte
# planes: zrank then ships smaller than for_bp for token values and
# wins, and its shared rank table joins the plan.
PLAN_SHA256 = {
    (400, 1, None, "file"): "cdce3f5ac175a99f3aa2f4a8fc7c7814c9f05e93f13ed5963c5c110ea49d5cfa",
    (400, 1, None, "doc_id"): "f7356f7a8f59a5d2f485e5ec21093a38933fadd7f28f836e1520d3f7f031c6d7",
    (400, 1, ("zstd", 3), "file"): "d3c684d1064f9ba0180fe8c5316a664aa2e7c3a5da8fcc7e7623aa4f4360563f",
    (400, 1, ("zstd", 3), "doc_id"): "73a690468f6e58aa7ad93fd4e793041ef25163e178ef6a1b52137a916f4f132c",
    (2000, 3, None, "file"): "6144286cc0c5664c496b40f101723e836563610550a26253dd75c5ea2af40e2a",
    (2000, 3, None, "doc_id"): "c4a32fdcf79a27e15128bbbc743a49c123a2503beacd173710d22150de4f99d2",
    (2000, 3, ("zstd", 3), "file"): "c23fe03ae8df5338f8746fd26951a1b73d3546fb5ccca28773232c2a36317f45",
    (2000, 3, ("zstd", 3), "doc_id"): "22342b4055096e16868de748741cbe0d8f05cd5a7a05480531c1ee72f26b2817",
}


def _tokens(rows: int, frags: int) -> pa.Table:
    return pa.concat_tables(
        generate_fragment(rows, i, start_id=i * rows) for i in range(frags)
    )


@pytest.mark.parametrize("order", ["file", "doc_id"])
@pytest.mark.parametrize("case", list(CENSUS), ids=str)
def test_tokens_census(case, order):
    rows, frags, outer = case
    t = _tokens(rows, frags)
    if order == "doc_id":
        t = t.sort_by("doc_id")
    plan = train_plan(t, outer=outer)
    s = plan.specs
    picks = (
        s["doc_id"]["codec"], s["n_tok"]["codec"], s["source"]["codec"],
        s["tokens"]["lengths"]["codec"], s["tokens"]["values"]["codec"],
    )
    assert picks == CENSUS[case]
    shared = [s["doc_id"], s["source"], s["tokens"]["values"]]
    assert [bool(x.get("table_hash")) for x in shared] == [
        True, True, picks[-1] == "zrank"
    ]
    assert set(plan.tables) == {
        x["table_hash"] for x in shared if "table_hash" in x
    }
    # the only sample statistic anything reads: the salting histogram
    assert list(plan.stats) == ["__source_hist__"]
    assert sum(plan.stats["__source_hist__"].values()) == t.num_rows
    digest = hashlib.sha256(plan.to_json().encode()).hexdigest()
    assert digest == PLAN_SHA256[case + (order,)]


def test_fsst_trained_only_where_it_can_win(monkeypatch):
    """``source`` (12 distinct values) goes to dict without an FSST
    trial: FSST's floor of one byte per string is above dict's size.
    ``doc_id``, where FSST wins, is trained. Without the floor the
    picks and tables are the same."""
    t = _tokens(2000, 3)
    cols = {c: t.column(c).combine_chunks() for c in ("source", "doc_id")}
    got = {c: _pick_str_codec(a) for c, a in cols.items()}
    assert got["source"][0]["codec"] == "dict"
    assert got["source"][2]["fsst"] is None
    assert got["doc_id"][0]["codec"] == "fsst"
    assert got["doc_id"][2]["fsst"] < got["doc_id"][2]["plain"]
    monkeypatch.setattr(sc, "fsst_floor", lambda lengths: 0)
    for c, a in cols.items():
        spec, tables, sizes = _pick_str_codec(a)
        assert (spec, tables) == got[c][:2]
        assert sizes["fsst"] is not None


def test_train_plan_logs_each_column(caplog):
    """One DEBUG line per column: candidate sizes, the candidates a
    bound skipped, the pick and the seconds."""
    t = _tokens(400, 1)
    with caplog.at_level(logging.DEBUG, logger="fastparquet_ray"):
        train_plan(t)
    lines = {
        m.split(":")[0].split()[-1]: m
        for m in (r.getMessage() for r in caplog.records)
        if m.startswith("train_plan column ")
    }
    assert sorted(lines) == sorted(t.column_names)
    assert "skipped=['fsst'] pick=dict" in lines["source"]
    assert "lengths sizes={'plain'" in lines["tokens"]
    assert "values sizes=" in lines["tokens"]
    assert lines["n_tok"].endswith(" s") and "pick=rle" in lines["n_tok"]


def _candidate_inputs() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(0)
    n = 32 * 1024
    for64 = rng.integers(0, 16, n)
    # one miniblock spans 40 bits: FOR/PFOR/RLE cannot take it, and
    # per-miniblock widths beat DELTA's one extra bit per value
    for64[:1024] = rng.integers(0, 2**40, 1024)
    return {
        "plain": rng.integers(-(2**62), 2**62, n),
        "for_bp": rng.integers(0, 2**20, n).astype(np.int32),
        "delta": np.cumsum(rng.integers(0, 100, n)) + 10**12,
        "pfor": np.where(
            rng.random(n) < 0.01, 2**30, rng.integers(0, 2**16, n)
        ).astype(np.int32),
        "rle": np.repeat(rng.integers(0, 1000, n // 100), 100).astype(np.int32),
        "dict": rng.choice(np.array([-(10**9), 0, 10**9, 2 * 10**9]), n),
        "zrank": rng.zipf(1.3, n).clip(1, 4000).astype(np.int32),
        "for64": for64,
    }


def test_every_int_candidate_wins_somewhere():
    inputs = _candidate_inputs()
    assert list(inputs) == list(ic.INT_CANDIDATES)
    assert set(ic.INT_ENCODERS) == set(ic.INT_CANDIDATES)
    for name, values in inputs.items():
        assert _pick_int_codec(values)[0] == name


def test_float_columns_get_no_spec():
    """The encoder picks float_dec / shuffle / plain for floats per
    shard, so the plan records nothing for them; a list of floats keeps
    only its lengths pick."""
    rng = np.random.default_rng(8)
    n = 5_000
    t = pa.table({
        "gauss": rng.normal(size=n),
        "price": np.round(rng.uniform(0, 9, n), 2),
        "f32": rng.normal(size=n).astype(np.float32),
        "lf": pa.array(
            [[v] * (i % 3 + 1) for i, v in enumerate(rng.normal(size=n))],
            pa.list_(pa.float64()),
        ),
    })
    plan = train_plan(t)
    lf = plan.specs.pop("lf")
    assert plan.specs == {"gauss": {}, "price": {}, "f32": {}}
    assert list(lf) == ["lengths"]
    assert lf["lengths"]["codec"] in ic.INT_CANDIDATES
    assert plan.stats == {} and plan.tables == {}
