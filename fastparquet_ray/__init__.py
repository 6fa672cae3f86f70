"""fastparquet_ray — a Ray-native per-column lightweight-compression
engine (dict, RLE/bit-pack, FSST, frame-of-reference) with codec
auto-selection, rebuilt from scratch against the capabilities of the
fastparquet reference (/root/reference, studied in SURVEY.md).

Layout:
    codecs/     numpy codec kernels (varint, bitpack, RLE, FOR, dict, FSST)
    plan.py     per-column stats sampling + codec auto-selection
    container.py shard container format (encoded columns + header)
    data.py     deterministic synthetic tokens-table generator
    pipelines/  encode / verify / export on plain Ray tasks, decode
    stages/     the per-block encode step, block reader, fingerprints
    state/      checkpoint manifest (per-partition lineage records)
    functions/  text analysis, dedup, similarity-search operators
"""

__version__ = "0.1.0"


def __getattr__(name):
    # lazy re-export of the user API (api.py pulls in the Ray pipelines;
    # keep `import fastparquet_ray` cheap for codec-only users)
    if name in (
        "write", "EncodedDataset", "write_simple", "read_simple",
        "read_jsonl",
    ):
        from . import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
