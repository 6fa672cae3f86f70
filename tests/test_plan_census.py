"""Planner census: which codec ``train_plan`` picks on the tokens table,
and one input on which each integer candidate wins. Every candidate the
planner trials must win somewhere, or it is dead weight in every plan
(dict2 never won and is now decode-only). The tokens rows are in file
and in ``doc_id``-sorted order, since sort order decides which integer
codec wins (Column Partition and Permutation for Run Length Encoding,
SIGMOD'20)."""

import numpy as np
import pyarrow as pa
import pytest

from fastparquet_ray.codecs import intcodec as ic
from fastparquet_ray.data import generate_fragment
from fastparquet_ray.plan import _pick_int_codec, train_plan

# (rows per fragment, fragments, outer) -> picks for
# (doc_id, n_tok, source, tokens lengths, tokens values); the string
# and zrank picks carry a shared table
CENSUS = {
    (400, 1, None): ("fsst", "rle", "dict", "rle", "zrank"),
    (400, 1, ("zstd", 3)): ("fsst", "rle", "dict", "rle", "for_bp"),
    (2000, 3, None): ("fsst", "pfor", "dict", "pfor", "zrank"),
    (2000, 3, ("zstd", 3)): ("fsst", "for_bp", "dict", "for_bp", "for_bp"),
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
        assert _pick_int_codec(values) == name


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
