"""Ray Data datasource over the shards of an encoded dataset, the
engine's scan path (reference analog: ParquetFile + to_pandas,
/root/reference/fastparquet/api.py:95-162/387-475).

It is planned from a ``pipelines.decode.Snapshot`` alone: its read
tasks are the ``cluster.pack`` runs of the kept shards by
``raw_bytes``, as every Ray job of the core is cut, and their
metadata (rows, bytes, paths) comes from the snapshot, so no shard
file is opened or stat'ed to plan a scan. A task reads its shards
through ``state.fs`` on the snapshot's filesystem (the fsspec
instance rides into the task) and yields one ``decode_shard`` table
per shard; Ray Data retries a failed task from its lineage.
"""

from __future__ import annotations

import functools

from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask


class FprsDatasource(Datasource):
    def __init__(
        self,
        snap,
        paths: list[str],
        columns: list[str] | None = None,
        categories: list[str] | None = None,
        filters=None,
    ):
        from ..pipelines.cluster import pack

        self.runs = pack(paths, [snap.shard(p)["raw_bytes"] for p in paths])
        self._meta = [
            BlockMetadata(
                # filters keep an unknown share of the rows
                num_rows=None if filters else sum(
                    snap.shard(p)["rows"] for p in run
                ),
                size_bytes=sum(snap.shard(p)["raw_bytes"] for p in run),
                input_files=run,
                exec_stats=None,
            )
            for run in self.runs
        ]
        self._read = functools.partial(
            _read_run, snap.fs, snap.tables, columns, categories, snap.hive,
            filters,
        )

    def estimate_inmemory_data_size(self) -> int:
        return sum(m.size_bytes for m in self._meta)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        return [
            ReadTask(functools.partial(self._read, run), meta)
            for run, meta in zip(self.runs, self._meta)
        ]


def _read_run(fs, tables, columns, categories, hive, filters, run):
    """Read task: each shard of ``run`` decoded into one table."""
    from ..pipelines.decode import decode_shard
    from ..state import fs as fsmod

    for path in run:
        yield decode_shard(
            fsmod.read_bytes(fs, path), path, tables, columns, categories,
            hive, filters,
        )
