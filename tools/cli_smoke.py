"""Scripted end-to-end CLI smoke (VERDICT r04 #6): drive the whole
verb surface on a fresh dir and assert the manifest / resume / layout
invariants that unit tests cover only piecewise:

    gen -> encode --column-codecs with a bad codec (refused, no shard)
        -> encode (plain) -> re-encode (fingerprint resume, no read)
        -> encode --cluster-by --bloom -> verify --exact -> stats
        -> optimize -> verify --exact (optimized layout)
        -> decode (idempotent rerun + single-file repair)
        -> decode --filter --times int96 twice (rerun changes nothing)
        -> decode --filter doc_id==<key> (a point lookup: one row)
        -> decode --format jsonl

Each verb runs as its own `python -m fastparquet_ray` process (its own
Ray session), exactly as a user would invoke it.

Usage: python tools/cli_smoke.py [workdir]   (default: mktemp)
Exits non-zero on the first failed invariant; prints one PASS line per
stage and a final JSON summary.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys
import tempfile
import time

import pyarrow.compute as pc
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_proc(args: list[str]) -> subprocess.CompletedProcess:
    """Run one CLI verb, whatever its exit code."""
    env = dict(os.environ, PYTHONPATH=REPO)
    return subprocess.run(
        [sys.executable, "-m", "fastparquet_ray", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )


def cli(args: list[str]) -> str:
    """Run one CLI verb; return its stdout."""
    proc = run_proc(args)
    if proc.returncode != 0:
        print(proc.stdout[-2000:])
        print(proc.stderr[-4000:])
        raise SystemExit(f"FAIL: {' '.join(args)} rc={proc.returncode}")
    return proc.stdout


def run(args: list[str]) -> dict:
    """Run one CLI verb; return its final JSON line."""
    t0 = time.time()
    line = [
        ln for ln in cli(args).strip().splitlines() if ln.startswith("{")
    ]
    out = json.loads(line[-1]) if line else {}
    print(f"PASS  {args[0]:<8s} {time.time() - t0:5.1f}s  {out}")
    return out


def main() -> None:
    work = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(
        prefix="fpray_smoke_"
    )
    os.makedirs(work, exist_ok=True)
    src = os.path.join(work, "src")
    enc = os.path.join(work, "enc")
    opt = os.path.join(work, "opt")
    pqd = os.path.join(work, "pq")
    jld = os.path.join(work, "jl")

    g = run(["gen", src, "--rows", "4000", "--fragments", "4"])
    assert g["rows"] == 4000, g

    # a codec the encoder would not obey fails up front, naming
    # the column, before any shard is written
    t0 = time.time()
    bad = os.path.join(work, "bad")
    p = run_proc(["encode", src, bad, "--column-codecs",
                  json.dumps({"n_tok": {"codec": "nope"}})])
    assert p.returncode != 0 and "n_tok" in p.stderr, p.stderr[-2000:]
    assert not glob.glob(bad + "/**/shard-*.fprs", recursive=True)
    print(f"PASS  encode   {time.time() - t0:5.1f}s  bad codec refused")

    # plain layout: a re-encode reuses every input file from its
    # fingerprint — no Ray Data read, nothing re-encoded
    plain = os.path.join(work, "plain")
    p1 = run(["encode", src, plain])
    p2 = run(["encode", src, plain])
    assert p2["skipped"] == p2["partitions"] == p1["partitions"], p2
    assert p2["fragments_read"] == 0 and p2["encoded"] == 0, p2

    e = run(
        [
            "encode", src, enc,
            "--cluster-by", "doc_id,n_tok",
            "--bloom", "tokens",
        ]
    )
    assert e["rows"] == 4000 and e["encoded"] > 0, e
    assert e["ratio"] < 0.2, e  # lightweight codecs must actually bite

    # encode rerun = pure resume: nothing re-encodes
    e2 = run(["encode", src, enc, "--cluster-by", "doc_id,n_tok",
              "--bloom", "tokens"])
    assert e2["encoded"] == 0 and e2["skipped"] == e["encoded"], e2

    v = run(["verify", src, enc, "--exact"])
    assert v["ok"] and v["mismatched_groups"] == 0, v

    # one table row per (shard, column), one shard per manifest record
    t0 = time.time()
    rows = [ln.split() for ln in cli(["stats", enc]).strip().splitlines()[1:]]
    pairs = {(r[1], r[2]) for r in rows}
    shards = {shard for shard, _ in pairs}
    with open(os.path.join(enc, "_manifest.jsonl")) as f:
        records = [json.loads(ln) for ln in f if ln.strip()]
    assert len(pairs) == len(rows) == len(shards) * len(
        {col for _, col in pairs}
    ), rows
    assert shards == {os.path.basename(r["shard"]) for r in records}, shards
    print(f"PASS  stats    {time.time() - t0:5.1f}s  "
          f"{len(shards)} shards x {len(rows) // len(shards)} columns")

    o = run(["optimize", enc, opt, "--cluster-by", "source,n_tok"])
    v2 = run(["verify", src, opt, "--exact"])
    assert v2["ok"], (o, v2)

    d1 = run(["decode", opt, pqd])
    n_files = len(
        [
            p
            for p in glob.glob(pqd + "/**/*.parquet", recursive=True)
            if not os.path.basename(p).startswith("_")
        ]
    )
    assert d1["exported"] == n_files and d1["rows"] == 4000, d1
    assert os.path.exists(os.path.join(pqd, "_metadata")), (
        "consolidated _metadata sidecar missing"
    )
    # idempotent rerun: everything skips
    d2 = run(["decode", opt, pqd])
    assert d2["exported"] == 0 and d2["skipped"] == n_files, d2
    # single-file repair: delete one output, exactly one re-exports
    victim = sorted(
        p
        for p in glob.glob(pqd + "/**/*.parquet", recursive=True)
        if not os.path.basename(p).startswith("_")
    )[0]
    os.remove(victim)
    d3 = run(["decode", opt, pqd])
    assert d3["exported"] == 1 and d3["skipped"] == n_files - 1, d3
    assert os.path.exists(victim), "repaired file not republished"

    # a filtered INT96 export is resumable too: the rerun rewrites no
    # file and _metadata counts the matching rows once
    fpq = os.path.join(work, "pq_web")
    web = sum(
        pc.sum(pc.equal(pq.read_table(p, columns=["source"])["source"],
                        "web")).as_py()
        for p in glob.glob(src + "/*.parquet")
    )
    f1 = run(["decode", opt, fpq, "--filter", "source==web",
              "--times", "int96"])
    assert f1["rows"] == web and f1["exported"] > 0, (f1, web)

    def listing() -> dict:
        return {
            p: (st.st_size, st.st_mtime_ns)
            for p in glob.glob(fpq + "/**/*", recursive=True)
            for st in [os.stat(p)]
        }

    before = listing()
    f2 = run(["decode", opt, fpq, "--filter", "source==web",
              "--times", "int96"])
    assert f2["exported"] == 0 and f2["skipped"] == f1["exported"], f2
    assert listing() == before, "rerun changed the export dir"
    md = pq.read_metadata(os.path.join(fpq, "_metadata"))
    assert md.num_rows == web, (md.num_rows, web)

    # a point lookup on the doc_id-clustered dataset exports exactly
    # the one row with that key
    key = pq.read_table(sorted(glob.glob(src + "/*.parquet"))[-1],
                        columns=["doc_id"])["doc_id"][7].as_py()
    lk = os.path.join(work, "pq_key")
    k1 = run(["decode", enc, lk, "--filter", f"doc_id=={key}"])
    got = [
        r
        for p in glob.glob(lk + "/**/*.parquet", recursive=True)
        if not os.path.basename(p).startswith("_")
        for r in pq.read_table(p).to_pylist()
    ]
    assert k1["rows"] == 1 and [r["doc_id"] for r in got] == [key], (k1, got)

    run(["decode", opt, jld, "--format", "jsonl"])
    n_rows = 0
    for p in glob.glob(jld + "/*.json*"):
        with open(p) as f:
            n_rows += sum(1 for _ in f)
    assert n_rows == 4000, n_rows

    print(json.dumps({"smoke": "ok", "workdir": work, "stages": 17}))


if __name__ == "__main__":
    main()
