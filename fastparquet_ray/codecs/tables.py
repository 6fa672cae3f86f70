"""Shared symbol tables as readers and encoders hold them: a dict
{table_hash: serialized table} (the plan sidecar's ``tables``), which a
``SharedTables`` extends with every table parsed on first use."""

from __future__ import annotations


class SharedTables(dict):
    """A ``tables`` dict that keeps each table it has parsed, keyed by
    hash and parse: one parse per table, however many shards or lookups
    read it. Pickles as the plain dict; a copy parses afresh."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.parsed: dict = {}

    def __reduce__(self):
        return SharedTables, (dict(self),)


def parse_shared(tables, thash: str, what: str, parse, *args):
    """``parse(tables[thash], *args)``, kept in ``tables`` when it is a
    ``SharedTables``. Raises KeyError naming the ``what`` table when
    ``tables`` lacks it."""
    if tables is None or thash not in tables:
        raise KeyError(f"shared {what} table {thash} not provided")
    cache = getattr(tables, "parsed", None)
    if cache is None:
        return parse(tables[thash], *args)
    key = (thash, parse, *args)
    out = cache.get(key)
    if out is None:
        out = cache[key] = parse(tables[thash], *args)
    return out
