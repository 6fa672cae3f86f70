"""CLI entry points: the `ray job submit`-able surface.

    python -m fastparquet_ray encode  SRC_DIR OUT_DIR [--outer zstd:3]
                                      [--partition-by-source] [--no-resume]
                                      [--hive-cols col1,col2]
    python -m fastparquet_ray decode  ENC_DIR OUT_DIR [--columns a,b]
                                      [--filter "col>value"] [--times int96]
                                      [--format jsonl]
    python -m fastparquet_ray verify  SRC_DIR ENC_DIR [--exact]
    python -m fastparquet_ray stats   ENC_DIR
    python -m fastparquet_ray gen     OUT_DIR --rows N [--fragments K] [--skewed]

Owns the Ray session (guarded init), per the driver contract: library
code never calls ray.init; CLI scripts and perfbench do.
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _parse_filter(expr: str, types: dict):
    """'col>=value' -> (col, op, value); longest ops first. The value
    stays the string given for a column ``types`` (column -> Arrow
    type) records as a string, so ``zip==001`` keeps its zeros; any
    other column's value is parsed by ``val_to_typed``."""
    from .pipelines.hive import is_string, val_to_typed

    for op in ("==", "!=", ">=", "<=", ">", "<"):
        if op in expr:
            col, _, raw = expr.partition(op)
            col, raw = col.strip(), raw.strip()
            t = types.get(col)
            keep = t is not None and is_string(t)
            return col, op, raw if keep else val_to_typed(raw)
    raise SystemExit(f"bad --filter {expr!r} (ops: == != > >= < <=)")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="fastparquet_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    enc = sub.add_parser("encode")
    enc.add_argument("src")
    enc.add_argument("out")
    enc.add_argument("--outer", default=None)
    enc.add_argument(
        "--partition-by-source",
        action="store_true",
        help="source-pure shards via zero-exchange write-side split",
    )
    enc.add_argument(
        "--partition-shuffle",
        action="store_true",
        help="salted exchange: ONE shard per (source, salt) "
        "bucket (costs an all-to-all exchange)",
    )
    enc.add_argument("--no-resume", action="store_true")
    enc.add_argument(
        "--hive-cols",
        default=None,
        help="comma-separated columns stored as hive key=value dirs "
        "instead of shard payload (M8 layout)",
    )
    enc.add_argument(
        "--cluster-by",
        default=None,
        help="range-sort on this column before encoding: shards get "
        "disjoint key ranges, so key filters prune to O(1) shards "
        "(costs one all-to-all sort). Comma-separated 2-3 columns "
        "select Z-ORDER clustering (Morton-interleaved sort key; "
        "multi-dimensional filters prune on every listed column)",
    )
    enc.add_argument(
        "--retrain-on-drift",
        type=float,
        default=None,
        metavar="RATIO",
        help="append-time policy: re-train the stored codec plan when "
        "the sampled fraction of values escaping its shared rank "
        "tables exceeds RATIO (old shards stay decodable via "
        "sidecar table merge)",
    )
    enc.add_argument(
        "--column-codecs",
        default=None,
        help="per-column codec override as JSON, e.g. "
        '\'{"n_tok": {"codec": "rle"}, "tokens": {"values": '
        '{"codec": "zrank"}}}\' (reference per-column compression= '
        "dicts, writer.py:829-860)",
    )
    enc.add_argument(
        "--bloom",
        default=None,
        help="comma-separated columns to write per-shard bloom "
        "filters for (equality/IN shard pruning on point lookups)",
    )

    dec = sub.add_parser("decode")
    dec.add_argument("enc")
    dec.add_argument("out")
    dec.add_argument("--columns", default=None)
    dec.add_argument(
        "--filter",
        action="append",
        default=None,
        help="predicate col<op>value (ops: == != > >= < <=), repeatable; "
        "prunes shards by header stats / hive path values",
    )
    dec.add_argument(
        "--times",
        default="int64",
        choices=["int64", "int96"],
        help="timestamp physical type in the exported parquet; int96 "
        "= legacy Impala/Hive 12-byte timestamps",
    )
    dec.add_argument(
        "--format",
        default="parquet",
        choices=["parquet", "jsonl"],
        help="output format; jsonl = JSON-Lines interchange files "
        "(integer payloads lossless; --times does not apply)",
    )

    ver = sub.add_parser("verify")
    ver.add_argument("src")
    ver.add_argument("enc")
    ver.add_argument("--exact", action="store_true")

    st = sub.add_parser("stats")
    st.add_argument("enc")

    cp = sub.add_parser(
        "compact",
        help="merge small shards into ~target-rows shards under the "
        "frozen plan (reference merge analog)",
    )
    cp.add_argument("enc")
    cp.add_argument("--target-rows", type=int, default=50_000)

    op = sub.add_parser(
        "optimize",
        help="re-layout an encoded dataset: range-clustered (one "
        "column) or Z-ORDERED (comma-separated 2-3 columns) shards "
        "under the frozen plan",
    )
    op.add_argument("enc")
    op.add_argument("out")
    op.add_argument("--cluster-by", required=True)
    op.add_argument("--key-column", default="doc_id")

    gen = sub.add_parser("gen")
    gen.add_argument("out")
    gen.add_argument("--rows", type=int, required=True)
    gen.add_argument("--fragments", type=int, default=8)
    gen.add_argument("--skewed", action="store_true")

    args = p.parse_args(argv)

    if args.cmd == "gen":
        from .data import DEFAULT_WEIGHTS, SKEWED_WEIGHTS, write_tokens_dataset

        paths = write_tokens_dataset(
            args.out,
            args.rows,
            n_fragments=args.fragments,
            weights=SKEWED_WEIGHTS if args.skewed else DEFAULT_WEIGHTS,
        )
        print(json.dumps({"files": len(paths), "rows": args.rows}))
        return 0

    codecs = None
    if args.cmd == "encode" and args.column_codecs:
        from .container import check_codec_specs
        from .pipelines.encode import resolve_inputs

        # a refused override costs no Ray start
        codecs = json.loads(args.column_codecs)
        check_codec_specs(codecs, resolve_inputs(args.src)[1])

    _init_ray()
    import ray

    try:
        if args.cmd == "encode":
            from .pipelines.encode import encode_pipeline

            pbs = (
                True
                if args.partition_shuffle
                else ("local" if args.partition_by_source else False)
            )
            summary = encode_pipeline(
                args.src,
                args.out,
                resume=not args.no_resume,
                outer=args.outer,
                partition_by_source=pbs,
                hive_cols=args.hive_cols.split(",") if args.hive_cols else None,
                cluster_by=(
                    [c.strip() for c in args.cluster_by.split(",")]
                    if args.cluster_by and "," in args.cluster_by
                    else args.cluster_by
                ),
                retrain_on_drift=args.retrain_on_drift,
                column_codecs=codecs,
                bloom_cols=args.bloom.split(",") if args.bloom else None,
            )
            print(json.dumps(summary))
        elif args.cmd == "decode":
            cols = args.columns.split(",") if args.columns else None
            filters = None
            if args.filter:
                from .api import EncodedDataset

                # hive columns at their recorded types, stored ones at
                # the first shard's
                types = {f.name: f.type for f in EncodedDataset(args.enc).schema}
                filters = [_parse_filter(f, types) for f in args.filter]
            from .pipelines.export import export_jsonl, export_parquet

            if args.format == "jsonl":
                s = export_jsonl(args.enc, args.out, columns=cols, filters=filters)
            else:
                s = export_parquet(
                    args.enc, args.out, columns=cols, filters=filters,
                    times=args.times,
                )
            print(json.dumps(s))
        elif args.cmd == "verify":
            from .pipelines.verify import verify_roundtrip

            res = verify_roundtrip(
                args.src, args.enc, mode="exact" if args.exact else "moments"
            )
            print(json.dumps(res))
            return 0 if res["ok"] else 1
        elif args.cmd == "stats":
            from .pipelines.export import shard_statistics

            print(shard_statistics(args.enc).to_string())
        elif args.cmd == "compact":
            from .pipelines.compact import compact_shards

            print(json.dumps(compact_shards(args.enc, args.target_rows)))
        elif args.cmd == "optimize":
            from .pipelines.compact import optimize_layout

            cb = (
                [c.strip() for c in args.cluster_by.split(",")]
                if "," in args.cluster_by
                else args.cluster_by
            )
            print(
                json.dumps(
                    optimize_layout(
                        args.enc, args.out, cb,
                        key_column=args.key_column,
                    )
                )
            )
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
