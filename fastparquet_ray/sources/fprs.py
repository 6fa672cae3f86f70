"""Ray Data datasource for .fprs shard files — the engine's native
read path (reference analog: ParquetFile + to_pandas,
/root/reference/fastparquet/api.py:95-162/387-475, re-expressed as a
FileBasedDatasource so shards stream through the normal read operator
with column projection at decode and lineage-based retry for free;
``pipelines.decode.Snapshot.read`` sizes its read tasks by bytes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ray.data.datasource import FileBasedDatasource

if TYPE_CHECKING:
    import pyarrow


class FprsDatasource(FileBasedDatasource):
    _FILE_EXTENSIONS = ["fprs"]

    def __init__(
        self,
        paths,
        tables: dict[str, bytes] | None = None,
        columns: list[str] | None = None,
        hive: str | None = None,
        categories: list[str] | None = None,
        filters=None,
        **kwargs,
    ):
        super().__init__(paths, **kwargs)
        self._tables = tables or {}
        self._columns = columns
        self._categories = categories
        self._filters = filters
        # hive = dataset ROOT path: `key=value` components BELOW it are
        # partition dirs (None disables hive parsing)
        self._hive = hive

    def _read_stream(
        self, f: "pyarrow.NativeFile", path: str
    ) -> Iterator["pyarrow.Table"]:
        from ..pipelines.decode import decode_shard

        yield decode_shard(
            f.readall(), path, self._tables, self._columns,
            self._categories, self._hive, self._filters,
        )


def read_fprs(
    paths: list[str] | str,
    tables: dict[str, bytes] | None = None,
    columns: list[str] | None = None,
    concurrency=None,
    filesystem=None,
    hive: str | None = None,
    categories: list[str] | None = None,
    filters=None,
    override_num_blocks: int | None = None,
):
    """ray.data Dataset over shard files: each shard is decoded whole,
    by one of ``override_num_blocks`` read tasks that each take a
    contiguous run of the shards (default: Ray Data's count).
    ``filesystem`` may be an fsspec filesystem (wrapped for pyarrow) or
    a pyarrow FileSystem — reference S10 remote-FS analog. ``hive``
    (the dataset root path) parses `key=value` components below it
    into typed partition columns; ``filters`` keeps only the matching
    rows of each shard (``pipelines.decode.decode_shard``)."""
    import ray.data

    if filesystem is not None and not hasattr(filesystem, "type_name"):
        # fsspec -> pyarrow wrapper (Ray Data wants pyarrow.fs)
        from ..state.fs import to_pyarrow_fs

        filesystem = to_pyarrow_fs(filesystem)
    return ray.data.read_datasource(
        FprsDatasource(
            paths, tables=tables, columns=columns, hive=hive,
            categories=categories, filters=filters, filesystem=filesystem,
        ),
        concurrency=concurrency,
        override_num_blocks=override_num_blocks,
    )
