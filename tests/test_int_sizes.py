"""``intcodec.int_sizes`` is the planner's int trial: for every
candidate it must give exactly the size of the blob the encoder
writes, and leave out exactly the candidates whose encoder raises
ValueError, on every dtype and every block-boundary length."""

import numpy as np
import pytest

from fastparquet_ray.codecs import intcodec as ic
from fastparquet_ray.plan import PICK_MARGIN, _pick

from test_plan_census import _candidate_inputs

DTYPES = ["i1", "u1", "i2", "u2", "i4", "u4", "i8", "u8"]
LENGTHS = [0, 1, 7, 8, 9, 1023, 1024, 1025, 3000]


def _blob_sizes(values, names=ic.INT_CANDIDATES) -> dict[str, int]:
    """The sizes by building every blob, as the trial used to."""
    out = {}
    for name in names:
        try:
            out[name] = len(ic.INT_ENCODERS[name](values))
        except ValueError:
            continue
    return out


def _inputs() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(21)
    out = {}
    for dt in DTYPES:
        info = np.iinfo(dt)
        for n in LENGTHS:
            out[f"{dt}-full-{n}"] = rng.integers(
                info.min, info.max, n, dtype=dt, endpoint=True
            )
            out[f"{dt}-small-{n}"] = rng.integers(0, 5, n).astype(dt)
            out[f"{dt}-equal-{n}"] = np.full(n, info.max, dtype=dt)
            out[f"{dt}-runs-{n}"] = np.repeat(
                rng.integers(0, 100, n), rng.integers(1, 30, n)
            )[:n].astype(dt)
    out["range-40-bits"] = rng.integers(0, 2**40, 5000)
    out["range-64-bits"] = np.array([-(2**63), 2**63 - 1] * 600)
    out["one-wide-block"] = np.concatenate(
        [rng.integers(0, 16, 4096), rng.integers(0, 2**40, 1024)]
    )
    out["u64-above-2**63"] = rng.integers(
        2**63, 2**64 - 1, 5000, dtype=np.uint64, endpoint=True
    )
    out["sorted-ids"] = np.cumsum(rng.integers(0, 100, 5000)) + 10**12
    for name, v in _candidate_inputs().items():
        out[f"census-{name}"] = v
    return out


INPUTS = _inputs()


@pytest.mark.parametrize("key", list(INPUTS))
def test_int_sizes_are_blob_sizes(key):
    v = INPUTS[key]
    assert ic.int_sizes(v, ic.INT_CANDIDATES) == _blob_sizes(v)


def test_int_sizes_keep_name_order_and_subsets():
    v = INPUTS["census-pfor"]
    names = ["zrank", "plain", "dict", "for64"]
    assert list(ic.int_sizes(v, names)) == names
    for name in ic.INT_CANDIDATES:
        assert ic.int_sizes(v, [name]) == _blob_sizes(v, [name])


@pytest.mark.parametrize("key", list(INPUTS))
def test_pruned_trial_keeps_the_pick(key):
    """A candidate skipped by its lower bound (None) was never the pick
    and its bound really was above the margin of a measured size."""
    v = INPUTS[key]
    if v.size == 0:
        return
    full = _blob_sizes(v)
    pruned = ic.int_sizes(v, ic.INT_CANDIDATES, prune=PICK_MARGIN)
    assert _pick(pruned) == _pick(full)
    best = min(x for x in pruned.values() if x is not None)
    for name, size in pruned.items():
        if size is None:
            assert full[name] > best * PICK_MARGIN
        else:
            assert size == full[name]


def test_prune_skips_zrank_on_unique_ids():
    """A unique-id column ships its whole zrank table, so zrank is
    bounded out without a trial encode."""
    v = np.arange(50_000, dtype=np.int64) * 7 + 10**9
    sizes = ic.int_sizes(v, ic.INT_CANDIDATES, prune=PICK_MARGIN)
    assert sizes["zrank"] is None
    assert _pick(sizes) == _pick(_blob_sizes(v))


@pytest.mark.parametrize(
    "key", ["i4-runs-3000", "u8-full-1025", "census-zrank", "census-delta"]
)
def test_rank_int_codecs_order(key):
    """The per-shard auto path ranks by (size, name), as it did when it
    built every blob."""
    v = INPUTS[key]
    want = [n for _, n in sorted((b, n) for n, b in _blob_sizes(v).items())]
    assert ic.rank_int_codecs(v, ic.INT_CANDIDATES) == want


def test_int_sizes_reject_non_int_dtypes():
    with pytest.raises(TypeError):
        ic.int_sizes(np.zeros(4, np.float64), ic.INT_CANDIDATES)


def test_zrank_takes_uint64_above_the_signed_range():
    """A narrow uint64 range above 2**63 ranks by offsets from its
    minimum (the offsets used to go through int64 and fail)."""
    v = np.uint64(2**64 - 100) + np.arange(3000, dtype=np.uint64) % 7
    for enc in (ic.encode_zrank_int, ic.encode_plain_int):
        out = ic.decode_any_int(enc(v))
        assert out.dtype == v.dtype and (out == v).all()
    assert ic.train_rank_table(v)[0] == v[0]
