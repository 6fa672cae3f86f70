"""Benchmark of fastparquet_ray against its public API.

    python3 perfbench/run.py --workload tokens-fresh --seed 1 \
        --seconds 12 --trace 0

Run from the repository root. Inputs are generated from ``--seed``,
ops run one at a time for ``--seconds`` after an untimed warm-up op,
and every op's output is checked. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; with ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones (see README.md). The line before
it carries the workload's own figures under their descriptive names.
Everything the run writes lives under ``perfbench/.work`` and, apart
from the trace file, is removed when it ends.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "perfbench", ".work")
NUM_CPUS = 4
OBJECT_STORE_BYTES = 1_000_000_000
# Ray's socket paths (<temp>/session_<stamp>_<pid>/sockets/plasma_store)
# must fit AF_UNIX's 107 bytes, which leaves 43 for the temp dir
RAY_TEMP = os.path.join(ROOT, ".pbray")
RAY_TEMP_MAX = 43
MIN_OPS = 3
# workload timings also reported as raw input MB per second
RATES = {
    "encode_s": "encode_mbps",
    "decode_s": "decode_mbps",
    "cold_encode_s": "cold_encode_mbps",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def start_ray() -> str:
    """Start the benchmark's own local Ray session; returns its
    session dir."""
    import ray

    ctx = ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        log_to_driver=False,
        logging_level=logging.ERROR,
        _temp_dir=RAY_TEMP if len(RAY_TEMP) <= RAY_TEMP_MAX else None,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    return ctx.address_info["session_dir"]


def measure(wl, seconds: float, tracer, trace: bool):
    """Closed loop: one op at a time until ``seconds`` have passed and
    at least MIN_OPS ops ran. With ``trace``, every other op runs with
    spans off, for the tracing-overhead figure; without it, none
    records spans. Returns the clocks of the ops with and without
    spans, the ops attempted and the ops failed."""
    clocks = {True: [], False: []}
    failed = 0
    end = time.perf_counter() + seconds
    i = 0
    while i < MIN_OPS or time.perf_counter() < end:
        tracer.enabled = trace and i % 2 == 0
        tracer.op = i
        try:
            clocks[tracer.enabled].append(wl.op(i))
        except Exception:
            failed += 1
            traceback.print_exc()
        i += 1
    tracer.enabled, tracer.op = trace, None
    return clocks[True], clocks[False], i, failed


def percentile_name(n: int) -> tuple[str, int] | None:
    """Highest of p90/p75/p50 with at least ten samples beyond it."""
    for q in (90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return f"p{q}", q
    return None


def run(args) -> tuple[dict, dict]:
    """One run of one workload; returns the detail figures and the
    result object. Everything it started or wrote, except a traced
    run's span file, is gone when it returns or raises."""
    from perfbench import workloads
    from perfbench.tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}"
        )
    data_dir = os.path.join(WORK, "data", f"sf{workloads.SF:g}-seed{args.seed}")
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    tracer = Tracer(enabled=bool(args.trace))
    session = None
    try:
        inputs = workloads.make_inputs(data_dir, args.seed)
        session = start_ray()
        wl = workloads.WORKLOADS[args.workload](inputs, run_dir, tracer)
        wl.prepare()
        wl.op(-1)  # warm-up, part of set-up
        setup_s = time.perf_counter() - T_START

        traced, untraced, attempted, failed = measure(
            wl, args.seconds, tracer, trace=bool(args.trace)
        )
        # the exact mode's shuffle costs 7-11 s here against 1-3 s for
        # the moments mode, so only the traced run, which reports
        # verify.exact_s, pays for it
        with tracer.span("pipelines.verify.verify_roundtrip"):
            from fastparquet_ray.pipelines.verify import verify_roundtrip

            v = verify_roundtrip(
                inputs.paths, wl.out_dir,
                mode="exact" if args.trace else "moments",
            )
        if not v["ok"] or v["fingerprint_groups"] != inputs.rows:
            print(f"verify_roundtrip failed: {v}", file=sys.stderr)
            failed += 1
        walls = [c["wall"] for c in traced + untraced]
        cpus = [c["cpu"] for c in traced + untraced]
        if not walls:
            raise RuntimeError(f"all {attempted} timed ops failed")
        per_layer = {}
        if args.trace:
            from perfbench.layers import replay

            per_layer = replay(wl, tracer, os.path.join(run_dir, "replay"))
            per_layer["verify.exact_s"] = tracer.total(
                "pipelines.verify.verify_roundtrip"
            )
            per_layer["trace.overhead_frac"] = (
                statistics.median(c["wall"] for c in traced)
                / statistics.median(c["wall"] for c in untraced) - 1
            )
            os.makedirs(WORK, exist_ok=True)
            tracer.dump(os.path.join(
                WORK, f"trace-{args.workload}-seed{args.seed}.jsonl"
            ))
    finally:
        if session is not None:
            import ray

            ray.shutdown()
            shutil.rmtree(session, ignore_errors=True)
            latest = os.path.join(os.path.dirname(session), "session_latest")
            if os.path.islink(latest) and not os.path.exists(latest):
                os.unlink(latest)
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(data_dir, ignore_errors=True)
        for d in (RAY_TEMP, os.path.dirname(data_dir), WORK):
            try:
                os.rmdir(d)
            except OSError:
                pass  # not empty: another run still uses it

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    op_p50_ms = statistics.median(walls) * 1e3
    op_cpu_s = statistics.mean(cpus)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "input_rows": inputs.rows,
        "raw_bytes": inputs.raw_bytes,
        "ops": attempted,
        "ops_failed_frac": failed / attempted,
        "setup_s": setup_s,
        "ratio": wl.ratio,
        "peak_rss_mb": peak_rss_mb,
        "verify": v,
        "op_p50_ms": op_p50_ms,
        "op_cpu_s": op_cpu_s,
        "op_ms": [round(w * 1e3, 1) for w in walls],
        "op_cpu": [round(c, 3) for c in cpus],
    }
    for name, vals in wl.detail.items():
        med = statistics.median(vals)
        if name in RATES:
            detail[RATES[name]] = inputs.raw_bytes / 1e6 / med
        else:
            detail[name] = med
    if isinstance(wl, workloads.ClusteredLookup):
        detail["lookup_p50_ms"] = op_p50_ms
        tail = percentile_name(len(walls))
        if tail:
            cut = statistics.quantiles(walls, n=100)[tail[1] - 1]
            detail[f"lookup_{tail[0]}_ms"] = cut * 1e3
    if args.trace:
        values = per_layer
    else:
        values = {
            "setup_s": setup_s,
            "op_cpu_s": op_cpu_s,
            "ratio": wl.ratio,
            "peak_rss_mb": peak_rss_mb,
        }
    # the verify counts as one more attempted check
    result = {
        "correct": failed == 0,
        "attempted": attempted + 1,
        "failed": failed,
        "metrics": with_units(values, "per_layer" if args.trace else "end_to_end"),
    }
    return detail, result


def with_units(values: dict, section: str) -> dict:
    """Attach each metric's unit from BENCHMARK.json, which must name
    exactly the metrics the run measured."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = {m["name"]: m["unit"] for m in json.load(f)[section]}
    if set(declared) != set(values):
        raise RuntimeError(
            f"{section} metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(values))}, "
            f"undeclared {sorted(set(values) - set(declared))}"
        )
    return {
        k: {"value": float(values[k]), "unit": declared[k]} for k in declared
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "fastparquet_ray")):
        print(f"fastparquet_ray not found under {ROOT}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Ray workers inherit the driver's environment but not its
    # sys.path: without the repo on PYTHONPATH, every task fails to
    # import fastparquet_ray unless the driver starts in the repo root
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, ROOT)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"  # no reporting home
    detail, result = run(args)
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
