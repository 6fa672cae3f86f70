"""Hive ``key=value`` partition-path support for the engine's own
shard format (SURVEY.md M8 — the reference parses partition dirs into
typed columns and filters on them: val_to_num
/root/reference/fastparquet/util.py:59-95, paths_to_cats
api.py:700-758, filter_out_cats api.py:1002-1039).

Write side: encode_pipeline(hive_cols=[...]) splits each block by the
partition columns, DROPS them from the encoded payload, and stores the
value in the shard's directory path — the reference's partition_on
layout (writer.py:1066-1105); the columns' Arrow fields are recorded
once, in ``_plan.json``. Read side: every reader discovers the
``key=value`` components and turns them back into columns of the
recorded types (``partition_values``), attached as constant columns
per shard; filters on partition columns prune whole shards from the
path alone.
"""

from __future__ import annotations

import urllib.parse
from typing import NamedTuple

HIVE_NULL = "__HIVE_DEFAULT_PARTITION__"  # hive's own null sentinel


class Hive(NamedTuple):
    """A `key=value` layout: the dataset ``root`` its partition dirs
    sit below, and the Arrow type of each partition column as the
    encode recorded it (``fields``; empty for a dataset encoded before
    the types were recorded)."""

    root: str
    fields: dict


def encode_component(col: str, value) -> str:
    """One ``col=value`` path component; value URL-quoted so '/', '='
    and friends can't corrupt the path."""
    if value is None:
        return f"{col}={HIVE_NULL}"
    return f"{col}={urllib.parse.quote(str(value), safe='')}"


def val_to_typed(raw: str):
    """Parse a partition-path value string to the narrowest sensible
    type: None / bool / int / float / ISO timestamp / string
    (reference val_to_num semantics, util.py:59-95 — int before float
    before timestamp, leaving non-parsable strings untouched)."""
    s = urllib.parse.unquote(raw)
    if s == HIVE_NULL:
        return None
    if s in ("true", "True", "TRUE"):
        return True
    if s in ("false", "False", "FALSE"):
        return False
    try:
        return int(s)
    except ValueError:
        pass
    try:
        # reject inf/nan spellings the reference also leaves as strings
        f = float(s)
        if s.lower() not in ("inf", "-inf", "nan", "infinity", "-infinity"):
            return f
    except ValueError:
        pass
    if len(s) >= 8 and s[:4].isdigit():
        import pandas as pd

        try:
            return pd.Timestamp(s)
        except ValueError:
            pass
    return s


def _components(path: str) -> dict[str, str]:
    """The ``key=value`` directory components of a shard path, values
    as written (URL-quoted)."""
    out = {}
    for comp in path.split("/")[:-1]:  # exclude the filename
        if "=" in comp and not comp.startswith("."):
            key, _, raw = comp.partition("=")
            if key:
                out[key] = raw
    return out


def parse_hive_parts(path: str) -> dict[str, object]:
    """``key=value`` directory components of a shard path, parsed to
    typed values; empty dict for a flat layout."""
    return {k: val_to_typed(raw) for k, raw in _components(path).items()}


def is_string(t) -> bool:
    import pyarrow as pa

    if pa.types.is_dictionary(t):
        t = t.value_type
    return pa.types.is_string(t) or pa.types.is_large_string(t)


def partition_values(path: str, fields: dict) -> dict:
    """The partition values of a shard path as Arrow scalars. A column
    recorded in ``fields`` as a string takes the path string as
    written; any other column takes ``val_to_typed``'s value (the
    reference's val_to_num, util.py:59-95), cast to its recorded type
    when it has one."""
    import pyarrow as pa

    out = {}
    for key, raw in _components(path).items():
        t = fields.get(key)
        if t is not None and is_string(t):
            s = urllib.parse.unquote(raw)
            val = pa.scalar(None if s == HIVE_NULL else s)
        else:
            val = pa.scalar(val_to_typed(raw))
        out[key] = val if t is None else val.cast(t)
    return out


def attach_hive_columns(table, parts: dict, columns: list[str] | None = None):
    """Append constant partition columns (``partition_values``) to a
    decoded batch (only those requested when a projection is given)."""
    import pyarrow as pa

    for col, val in parts.items():
        if columns is not None and col not in columns:
            continue
        if col in table.column_names:
            continue  # stored column wins over the path
        table = table.append_column(
            col, pa.array([val.as_py()] * table.num_rows, val.type)
        )
    return table
