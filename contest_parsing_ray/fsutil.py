"""pyarrow.fs resolution — one place that turns a user-facing path/URI into
``(FileSystem, fs-internal path)`` so every file op in the engine works the
same against local disks and object stores (``s3://...``-style URIs).

SURVEY S1's own recommendation: drive discovery and the metadata file ops
through ``pyarrow.fs`` instead of ``os`` so a multi-node cluster can point
the pipeline at a shared object store. Local plain paths resolve to
``LocalFileSystem`` with unchanged behavior.

pyarrow FileSystem objects are picklable, so a resolved filesystem can be
captured by Ray tasks/actors directly.

:func:`write_parquet` is the engine's one writer of the Parquet files it
stores (deletion vectors, rollup partials, tier data and state, chunks):
the encoding of those files is decided here and nowhere else.
"""

from __future__ import annotations

import posixpath

import pyarrow as pa
from pyarrow import fs as pafs


def is_uri(path: str) -> bool:
    return "://" in path


def resolve_fs(path: str) -> tuple[pafs.FileSystem, str]:
    """``(filesystem, fs_path)`` for a plain local path or a filesystem URI.

    ``file:///x`` and ``/x`` both resolve to ``LocalFileSystem`` + ``/x``;
    ``s3://bucket/key`` resolves to ``S3FileSystem`` + ``bucket/key``.
    """
    if is_uri(path):
        return pafs.FileSystem.from_uri(path)
    return pafs.LocalFileSystem(), path


def join_path(base: str, *parts: str) -> str:
    """Join path components, preserving a URI scheme on ``base``."""
    return posixpath.join(base, *parts)


def file_infos(
    path: str, recursive: bool = True
) -> tuple[pafs.FileSystem, list[pafs.FileInfo]]:
    """List a directory (files only when recursive) via the resolved
    filesystem; returns the filesystem and FileInfo entries sorted by path.
    A non-directory path returns its own single FileInfo."""
    fsys, p = resolve_fs(path)
    info = fsys.get_file_info(p)
    if info.type == pafs.FileType.Directory:
        sel = pafs.FileSelector(p, recursive=recursive)
        infos = sorted(fsys.get_file_info(sel), key=lambda i: i.path)
    elif info.type == pafs.FileType.NotFound:
        infos = []
    else:
        infos = [info]
    return fsys, infos


def write_parquet(table: pa.Table, path: str) -> None:
    """Write one Parquet file the engine stores; the only such writer.

    The file is written tmp-then-move (the tmp name is hidden, so a
    dataset read of the directory never picks it up), so a reader never
    sees a half-written file and a rewrite replaces the old one in one
    step. The encoding follows each column's type:

    - binary and large-binary columns are opaque serialized payloads (the
      ``qsum`` quantile-state blobs, the chunks' ``ts_dod`` and
      ``vals_xor``): zstd, no min/max statistics (no reader can prune on
      a blob's byte order, and Parquet would store them twice per page)
      and no dictionary (the blobs hardly repeat);
    - every other column: snappy, statistics and dictionary, so range
      reads keep their pushdown on ``bucket_us`` and ``source``.

    The settings name top-level columns, which are the leaf columns of
    the engine's flat tables."""
    import pyarrow.parquet as pq

    blobs = {
        f.name for f in table.schema
        if pa.types.is_binary(f.type) or pa.types.is_large_binary(f.type)
    }
    fsys, p = resolve_fs(path)
    head, name = posixpath.split(p)
    fsys.create_dir(head, recursive=True)
    tmp = posixpath.join(head, f".{name}.tmp")
    plain = [c for c in table.column_names if c not in blobs]
    pq.write_table(
        table, tmp, filesystem=fsys,
        compression={c: "zstd" if c in blobs else "snappy"
                     for c in table.column_names},
        write_statistics=plain,
        use_dictionary=plain,
    )
    fsys.move(tmp, p)
