"""Filesystem abstraction for shard + manifest I/O.

Reference analog: fastparquet threads an ``open_with`` callable and
fsspec filesystem through every read/write so datasets live on any
object store (/root/reference/fastparquet/api.py:95-103 ``open_with``,
writer.py:864-869). Here every component that touches shard or
manifest bytes resolves the filesystem from the path URI via fsspec:

    /data/enc            -> local filesystem (the default, unchanged)
    file:///data/enc     -> local via the fsspec path
    s3://bucket/enc      -> S3 (same code path, no sandbox test)
    memory://enc         -> in-process store (unit tests)

Components ship the URI string across Ray task/actor boundaries and
re-resolve per process (fsspec instances are picklable, but resolving
from the URI is cheaper and avoids stale connection state). Note that
``memory://`` is process-local by nature — it exercises the full
abstraction in-process; multi-process pipelines need a shared store
(local dir, NFS, S3, ...).

Writes use ``atomic_write``: tmp + rename on filesystems with real
rename (local), direct single-shot write elsewhere (object stores
publish a key atomically on close — the reference relies on the same
property when targeting S3).
"""

from __future__ import annotations

import posixpath
from typing import Any

import fsspec


def get_fs(path: str, filesystem: Any = None) -> tuple[Any, str]:
    """Resolve (fsspec filesystem, root-relative path) for a path or
    URI. An explicit ``filesystem`` wins (path stripped of protocol)."""
    if filesystem is not None:
        return filesystem, filesystem._strip_protocol(path)
    fs, p = fsspec.core.url_to_fs(path)
    return fs, p


def for_workers(path: str, filesystem: Any = None) -> str:
    """``path`` as a Ray worker must be given it: a relative local path
    made absolute, since a worker's working directory need not be the
    caller's. URIs and paths on an explicit ``filesystem`` pass as
    they are."""
    if "://" in path or filesystem is not None:
        return path
    import os

    return os.path.abspath(path)


def is_local(fs: Any) -> bool:
    proto = fs.protocol
    if isinstance(proto, (tuple, list)):
        return "file" in proto or "local" in proto
    return proto in ("file", "local")


def join(fs: Any, *parts: str) -> str:
    if is_local(fs):
        import os

        return os.path.join(*parts)
    return posixpath.join(*parts)


def atomic_write(fs: Any, path: str, data: bytes, suffix: str = "") -> None:
    """All-or-nothing publish of ``data`` at ``path``. Local: tmp file
    + os-level rename (crash leaves only a .tmp). Object stores /
    memory: one-shot put — the key appears only when the write
    completes, which is the same atomicity the tmp+rename dance buys
    locally."""
    if is_local(fs):
        tmp = f"{path}.tmp{suffix}"
        with fs.open(tmp, "wb") as f:
            f.write(data)
        import os

        os.replace(tmp, path)
    else:
        with fs.open(path, "wb") as f:
            f.write(data)


def read_bytes(fs: Any, path: str, length: int | None = None) -> bytes:
    with fs.open(path, "rb") as f:
        return f.read() if length is None else f.read(length)


def read_header_bytes(fs: Any, path: str, probe: int = 256 * 1024) -> bytes:
    """Complete shard-header blob: one probe read, re-read at the
    length the prefix declares when the header outgrows the probe
    (bloom-filter columns can push headers past 256 KB). Raises
    ValueError on a file without the shard magic."""
    from ..container import header_end

    head = read_bytes(fs, path, probe)
    need = header_end(head)
    if len(head) < need:
        head = read_bytes(fs, path, need)
    return head


def file_fingerprint(fs: Any, path: str, chunk: int = 1 << 20) -> str:
    """``"<size>:<blake2b-128 hex>"`` over the WHOLE file's bytes. A
    footer hash or mtime would miss a same-size in-place rewrite whose
    footer stats did not change; the full digest cannot. Reads into one
    reused buffer, so hashing a large file allocates nothing per
    chunk."""
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    buf = bytearray(chunk)
    view = memoryview(buf)
    size = 0
    with fs.open(path, "rb") as f:
        while n := f.readinto(buf):
            h.update(view[:n])
            size += n
    return f"{size}:{h.hexdigest()}"


def stat_key(fs: Any, path: str) -> tuple:
    """(size, modification stamp) — changes whenever the file is
    rewritten. Local files use ``st_mtime_ns`` (whole-second or float
    mtimes miss a same-size rewrite inside one tick)."""
    if is_local(fs):
        import os

        st = os.stat(path)
        return (st.st_size, st.st_mtime_ns)
    info = fs.info(path)
    stamp = info.get("mtime") or info.get("LastModified") or info.get("ETag")
    return (info.get("size"), str(stamp))


def to_pyarrow_fs(fs: Any):
    """Wrap an fsspec filesystem for the pyarrow.parquet calls that
    read input files (footers, row groups); shards are read through
    the fsspec instance itself. Local filesystems pass through as
    native pyarrow LocalFileSystem (faster, zero wrapping)."""
    import pyarrow.fs as pafs

    if is_local(fs):
        return pafs.LocalFileSystem()
    return pafs.PyFileSystem(pafs.FSSpecHandler(fs))
