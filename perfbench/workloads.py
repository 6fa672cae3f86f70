"""Seeded inputs and the three workloads.

Every workload drives the public API in a closed loop, one op at a
time, and checks each op's output against the source. An op that
raises or fails a check counts as failed; nothing is skipped.

- ``tokens-fresh``: op = fresh ``encode_pipeline(resume=False)`` into
  an empty dir (plan sampling included), then a full
  ``decode_dataset`` scan that consumes every row.
- ``tokens-resume``: the base fragments are encoded once during setup.
  Op = a no-op resume plus an append of the extra fragments, both
  timed, then an untimed rollback to the base paths that must remove
  exactly the appended shards.
- ``clustered-lookup``: setup encodes with ``cluster_by="doc_id"``;
  op = one seeded ``doc_id == k`` lookup through
  ``EncodedDataset.to_pandas(filters=...)``.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq

from fastparquet_ray.api import EncodedDataset
from fastparquet_ray.data import generate_fragment, write_tokens_dataset
from fastparquet_ray.pipelines.decode import decode_dataset
from fastparquet_ray.pipelines.encode import encode_pipeline

from .tracing import op_clock

# 16 fragments of 3,125 rows (the sf0.1 fragment size): 50,000 rows,
# about 43 MB of raw Arrow data. Small enough that every workload gets
# several timed ops inside one run.
FRAGMENTS = 16
ROWS_PER_FRAGMENT = 3125
EXTRA_FRAGMENTS = 2
CLUSTER_SHARDS = 32  # cluster_by's bucket count for 50,000 rows
SF = FRAGMENTS * ROWS_PER_FRAGMENT / 2_000_000
LOOKUP_KEYS = 256


class CheckFailed(Exception):
    pass


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Inputs:
    paths: list[str]
    extra_paths: list[str]
    rows: int
    extra_rows: int
    raw_bytes: int
    n_tok_sum: int
    keys: list[str]
    tokens: dict[str, list[int]]


def make_inputs(data_dir: str, seed: int) -> Inputs:
    """Write the seeded base and extra fragments, read each back once
    (warms the page cache) and keep what the output checks need."""
    rows = FRAGMENTS * ROWS_PER_FRAGMENT
    paths = write_tokens_dataset(
        os.path.join(data_dir, "base"), rows, n_fragments=FRAGMENTS,
        seed=seed, overwrite=True,
    )
    extra_dir = os.path.join(data_dir, "extra")
    os.makedirs(extra_dir, exist_ok=True)
    extra_paths = []
    for j in range(EXTRA_FRAGMENTS):
        idx = FRAGMENTS + j
        t = generate_fragment(
            ROWS_PER_FRAGMENT, fragment_idx=idx, seed=seed,
            start_id=rows + j * ROWS_PER_FRAGMENT,
        )
        p = os.path.join(extra_dir, f"tokens-{idx:05d}.parquet")
        pq.write_table(t, p, compression="none")
        extra_paths.append(p)
    for p in extra_paths:
        pq.read_table(p)
    src = pq.read_table(paths)
    check(src.num_rows == rows, f"generated {src.num_rows} rows, want {rows}")
    pick = np.random.default_rng([seed, 1]).choice(
        rows, LOOKUP_KEYS, replace=False
    )
    sample = src.select(["doc_id", "tokens"]).take(pick).to_pydict()
    return Inputs(
        paths=paths,
        extra_paths=extra_paths,
        rows=rows,
        extra_rows=EXTRA_FRAGMENTS * ROWS_PER_FRAGMENT,
        raw_bytes=src.nbytes,
        n_tok_sum=int(pc.sum(src["n_tok"]).as_py()),
        keys=sample["doc_id"],
        tokens=dict(zip(sample["doc_id"], sample["tokens"])),
    )


class Workload:
    name = ""
    cluster_by: str | None = None

    def __init__(self, inputs: Inputs, work_dir: str, tracer):
        self.inp = inputs
        self.work = work_dir
        self.tracer = tracer
        self.out_dir = ""  # encoded dir the verify and replay read
        self.ratio = 0.0
        self.detail: dict[str, list[float]] = {}

    def prepare(self) -> None:
        """Untimed set-up before the warm-up op."""

    def op(self, i: int) -> dict:
        """One op; returns its ``op_clock`` (timed wall and CPU
        seconds). ``i < 0`` is the warm-up. Raises on a failed output
        check."""
        raise NotImplementedError

    def _encode(self, paths, out_dir, **kw) -> dict:
        with self.tracer.span("pipelines.encode.encode_pipeline"):
            return encode_pipeline(paths, out_dir, **kw)

    def _note(self, name: str, value: float, i: int) -> None:
        if i >= 0:
            self.detail.setdefault(name, []).append(value)


class TokensFresh(Workload):
    name = "tokens-fresh"

    def __init__(self, *a):
        super().__init__(*a)
        self.enc_bytes = None

    def op(self, i: int) -> dict:
        if self.out_dir:
            shutil.rmtree(self.out_dir)
        self.out_dir = os.path.join(self.work, f"fresh-{i + 1}")
        with op_clock() as clock:
            t0 = time.perf_counter()
            s = self._encode(self.inp.paths, self.out_dir, resume=False)
            t1 = time.perf_counter()
            rows = n_tok = 0
            with self.tracer.span("pipelines.decode.decode_dataset"):
                for b in decode_dataset(self.out_dir).iter_batches(
                    batch_format="pyarrow", batch_size=None
                ):
                    rows += b.num_rows
                    n_tok += pc.sum(b["n_tok"]).as_py() or 0
            t2 = time.perf_counter()
        check(s["partitions"] == s["encoded"] == FRAGMENTS,
              f"encode summary {s['partitions']}/{s['encoded']}")
        check(s["rows"] == rows == self.inp.rows, f"rows {s['rows']}/{rows}")
        check(n_tok == self.inp.n_tok_sum, "decoded n_tok sum differs")
        if self.enc_bytes is None:
            self.enc_bytes = s["enc_bytes"]
            self.ratio = s["ratio"]
        check(s["enc_bytes"] == self.enc_bytes, "enc_bytes changed")
        self._note("encode_s", t1 - t0, i)
        self._note("decode_s", t2 - t1, i)
        return clock


class TokensResume(Workload):
    name = "tokens-resume"

    def __init__(self, *a):
        super().__init__(*a)
        self.base = None
        self.appended = None

    def prepare(self) -> None:
        self.out_dir = os.path.join(self.work, "resume")
        s = self._encode(self.inp.paths, self.out_dir, resume=False)
        check(s["encoded"] == FRAGMENTS, f"base encoded {s['encoded']}")
        self.base = s
        self.ratio = s["ratio"]

    def op(self, i: int) -> dict:
        inp, n = self.inp, FRAGMENTS
        with op_clock() as clock:
            t0 = time.perf_counter()
            noop = self._encode(inp.paths, self.out_dir, resume=True)
            t1 = time.perf_counter()
            app = self._encode(
                inp.paths + inp.extra_paths, self.out_dir, resume=True
            )
            t2 = time.perf_counter()
        back = self._encode(inp.paths, self.out_dir, resume=True)
        check((noop["skipped"], noop["encoded"], noop["orphans_removed"])
              == (n, 0, 0), f"no-op resume {noop}")
        check((app["skipped"], app["encoded"], app["partitions"])
              == (n, EXTRA_FRAGMENTS, n + EXTRA_FRAGMENTS),
              f"append {app}")
        check(app["rows"] == inp.rows + inp.extra_rows, "append rows")
        check((back["skipped"], back["orphans_removed"])
              == (n, EXTRA_FRAGMENTS), f"rollback {back}")
        check(noop["enc_bytes"] == back["enc_bytes"]
              == self.base["enc_bytes"], "base enc_bytes changed")
        if self.appended is None:
            self.appended = app["enc_bytes"]
        check(app["enc_bytes"] == self.appended, "append enc_bytes changed")
        self._note("resume_noop_s", t1 - t0, i)
        self._note("append_s", t2 - t1, i)
        return clock


class ClusteredLookup(Workload):
    name = "clustered-lookup"
    cluster_by = "doc_id"

    def prepare(self) -> None:
        self.out_dir = os.path.join(self.work, "clustered")
        t0 = time.perf_counter()
        s = self._encode(
            self.inp.paths, self.out_dir, resume=False, cluster_by="doc_id"
        )
        self.detail["cold_encode_s"] = [time.perf_counter() - t0]
        check(s["rows"] == self.inp.rows, f"clustered rows {s['rows']}")
        check(s["partitions"] == CLUSTER_SHARDS,
              f"clustered shards {s['partitions']}")
        self.ratio = s["ratio"]
        self.eds = EncodedDataset(self.out_dir)

    def op(self, i: int) -> dict:
        key = self.inp.keys[i % len(self.inp.keys)]
        with op_clock() as clock:
            with self.tracer.span("api.EncodedDataset.to_pandas"):
                df = self.eds.to_pandas(filters=[("doc_id", "==", key)])
        check(len(df) == 1, f"lookup {key!r} returned {len(df)} rows")
        check(df["doc_id"].iloc[0] == key, f"lookup {key!r} wrong row")
        check(list(df["tokens"].iloc[0]) == self.inp.tokens[key],
              f"lookup {key!r} tokens differ from the source")
        return clock


WORKLOADS = {w.name: w for w in (TokensFresh, TokensResume, ClusteredLookup)}
