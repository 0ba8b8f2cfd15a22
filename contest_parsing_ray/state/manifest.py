"""Per-partition lineage manifests for checkpoint/resume.

The reference's only "resume" story is that every stage writes intermediates
per service and ``__clear_output`` rm -rf's them on rerun
(``JoinManager.py:189-195``) — a full recompute. The engine instead records,
per output partition (tier x source), what was computed from which input:

    manifests/<tier>.json = {
      "input_fingerprint": <hash of input file paths+sizes+mtimes>,
      "config_fingerprint": <hash of the knobs that affect the output>,
      "partitions": {"<source>": {"rows": n, "checksum": h}},
      "completed": true,
    }

``h`` is the first 48 bits of a sha256 over the written partition's column
names, types and values in row order (``stages.retention.partition_stats``):
any changed value or row order changes it, and the chunking of the rows
does not.

On resume, a tier whose manifest matches the current input+config
fingerprint is skipped wholesale; per-partition rows/checksums give the
audit trail (metrics lineage). Every JSON manifest of the engine (the
tier manifests and the deletion-vector build's ``dv_manifest.json``) is
written and read by :func:`write_manifest` / :func:`read_manifest`.
Writes are atomic: tmp file + move (a true
rename on local/posix filesystems; object stores get copy+delete, which is
still safe here because readers treat a missing/partial manifest as
"rebuild").

All file ops go through ``pyarrow.fs`` (``..fsutil``), so ``out_dir`` and
the input root may be plain local paths or ``s3://``-style URIs.
"""

from __future__ import annotations

import hashlib
import json
import posixpath

from pyarrow import fs as pafs

from ..fsutil import file_infos, resolve_fs


def _mtime_s(info: pafs.FileInfo) -> int:
    mt = info.mtime_ns
    return int(mt // 1_000_000_000) if mt is not None else 0


def fingerprint_input(path: str, files: dict[str, str]) -> str:
    """Stable fingerprint of the input: file names (relative to ``path``)
    + sizes (+ mtime), over the listing of :func:`input_file_fingerprints`."""
    _, root = resolve_fs(path)
    entries = [f"{posixpath.relpath(p, root)}:{files[p]}" for p in sorted(files)]
    return hashlib.sha256("\n".join(entries).encode()).hexdigest()[:32]


def parquet_input_files(path: str, files: dict[str, str]) -> list[str]:
    """The parquet input among ``files`` (the listing of ``path``), sorted:
    pyarrow's dataset discovery rule, so no path component below ``path``
    may start with ``_`` or ``.`` (``_SUCCESS``, ``.crc`` sidecars,
    ``_temporary/``). The order is the keep='first' tie-break."""
    _, root = resolve_fs(path)
    return sorted(
        p for p in files
        if not any(
            c.startswith(("_", ".")) for c in posixpath.relpath(p, root).split("/")
            if c != "."
        )
    )


def fingerprint_config(cfg_dict: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg_dict, sort_keys=True, default=str).encode()
    ).hexdigest()[:32]


def write_manifest(path: str, manifest: dict) -> None:
    """Write one JSON manifest file atomically: tmp file, then move."""
    fsys, p = resolve_fs(path)
    fsys.create_dir(posixpath.dirname(p), recursive=True)
    with fsys.open_output_stream(p + ".tmp") as f:
        f.write(json.dumps(manifest, indent=1, sort_keys=True).encode())
    fsys.move(p + ".tmp", p)


def read_manifest(path: str) -> dict | None:
    """The JSON manifest file at ``path``, or None when it is missing or
    unreadable (the caller then rebuilds)."""
    fsys, p = resolve_fs(path)
    try:
        with fsys.open_input_stream(p) as f:
            return json.loads(f.read().decode())
    except (FileNotFoundError, OSError, json.JSONDecodeError):
        return None


def clear_dir(path: str) -> None:
    """Reference __clear_output analog (JoinManager.py:189-195), scoped to
    one tier directory, used when a stale/partial output must be replaced."""
    fsys, p = resolve_fs(path)
    if fsys.get_file_info(p).type == pafs.FileType.Directory:
        fsys.delete_dir(p)


def input_file_fingerprints(path: str) -> dict[str, str]:
    """The one listing of the input: per-file fingerprints (size:mtime)
    keyed by fs path, every file under ``path``. The input fingerprint
    (:func:`fingerprint_input`), the parquet file list
    (:func:`parquet_input_files`) and incremental append (a prior build
    whose recorded files are all unchanged can be extended by processing
    only the new files) all come from it."""
    _, infos = file_infos(path, recursive=True)
    return {i.path: f"{i.size}:{_mtime_s(i)}" for i in infos if i.is_file}
