"""Database persistence: JSON-lines dump and restore.

The paper's store is a server database that naturally survives the
crawler process; the embedded store gains the same property through an
explicit dump format (version 3) -- a manifest plus one file per
relation.  The manifest pins each relation's column order, row count
and first row; a relation file holds its rows as JSON arrays of values
in that order -- the stored tuples themselves, a few thousand to a
line -- so neither side pays for column names or per-row encoder calls.

A dump is a whole database or one *segment* of a chain: a segment
holds the rows each relation gained since the segment it extends
(``since``), and names that segment's stamp (``after``).  A relation
whose segment starts at row 0 is written whole and replaces what the
chain held before it -- the shape of a relation that saw a keyed
overwrite.  Restores check every line of every segment against the
manifests, the chain's links and the current schema before the first
insert, so a torn, foreign, reordered or older-format dump fails loudly
instead of silently corrupting a crawl.
"""

from __future__ import annotations

import json
import pathlib
from collections.abc import Mapping, Sequence
from typing import Any

from repro.errors import StorageError
from repro.storage.database import Database
from repro.storage.schema import Row

__all__ = [
    "dump_database",
    "load_database",
    "dump_state",
    "load_state",
]

_MANIFEST = "manifest.json"
_FORMAT_VERSION = 3
_STATE_FORMAT_VERSION = 1
_CHUNK_ROWS = 4096
"""Rows per line of a relation file (one ``json.dumps`` call each)."""

PathLike = str | pathlib.Path


def dump_database(
    database: Database,
    directory: PathLike,
    stamp: Any = None,
    after: Any = None,
    since: Mapping[str, int] | None = None,
    pages: Mapping[str, list[Row]] | None = None,
    relations: Sequence[str] | None = None,
) -> int:
    """Write the relations to ``directory``; returns the rows written.

    ``stamp`` (any JSON value) is recorded in the manifest for
    :func:`load_database` to compare -- a checkpoint passes its save
    ordinal.  A segment of a chain names the stamp of the segment it
    extends as ``after`` and writes each relation from row
    ``since[name]`` on (from row 0 -- whole -- for a relation ``since``
    does not name).  ``relations`` names the relations to write
    (default: every one).  ``pages`` (:func:`~repro.storage.schema.page_rows`
    of the stored pages) replaces the stored page relations; the
    database's validation checks it first.  The manifest is written
    last: without it there is no dump.
    """
    pages = pages or {}
    if database.validate:
        for name, rows in pages.items():
            database[name].schema.validate_rows(rows)
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    since = since or {}
    written: dict[str, dict[str, Any]] = {}
    total = 0
    for name in relations or database.relations:
        relation = database[name]
        columns = relation.schema.column_names
        start = since.get(name, 0)
        records = pages[name] if name in pages else relation.rows()[start:]
        with (directory / f"{name}.jsonl").open("w", encoding="utf-8") as out:
            for chunk in range(0, len(records), _CHUNK_ROWS):
                out.write(json.dumps(
                    records[chunk:chunk + _CHUNK_ROWS],
                    separators=(",", ":"),
                ))
                out.write("\n")
        written[name] = {
            "rows": len(records), "start": start, "columns": list(columns),
        }
        total += len(records)
    manifest = {
        "format_version": _FORMAT_VERSION,
        "stamp": stamp,
        "after": after,
        "relations": written,
    }
    (directory / _MANIFEST).write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    return total


def _read_manifest(directory: pathlib.Path) -> dict[str, Any]:
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        raise StorageError(f"no manifest in {directory}")
    try:
        manifest: dict[str, Any] = json.loads(
            manifest_path.read_text(encoding="utf-8")
        )
    except ValueError as error:
        raise StorageError(f"corrupt manifest in {directory}") from error
    if manifest.get("format_version") != _FORMAT_VERSION:
        raise StorageError(
            f"unsupported dump format {manifest.get('format_version')!r}: "
            f"this build reads only version {_FORMAT_VERSION}, dump the "
            "database again with it"
        )
    return manifest


def _read_rows(path: pathlib.Path, name: str, width: int) -> list[Row]:
    rows: list[Row] = []
    try:
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                chunk = json.loads(line)
                # checked here too: a target that does not validate
                # would store a short or long record as it came
                if (
                    type(chunk) is not list
                    or set(map(type, chunk)) - {list}
                    or set(map(len, chunk)) - {width}
                ):
                    raise ValueError("not rows of the manifest's width")
                rows.extend(map(tuple, chunk))
    except ValueError as error:
        raise StorageError(
            f"relation {name!r}: corrupt dump file {path.name} ({error})"
        ) from error
    return rows


def load_database(
    directories: PathLike | Sequence[PathLike],
    into: Database | None = None,
    stamp: Any = None,
) -> Database:
    """Restore a database dumped by :func:`dump_database`.

    ``directories`` is one dump, or a chain of segments oldest first:
    the first extends nothing, each later one names the stamp of the
    one before it, and a relation's rows in a segment start where the
    chain before it ends -- or at row 0, replacing them.  With a
    ``stamp``, a chain whose newest segment carries a different one is
    refused.  Every file is read and checked before the first row is
    inserted; rows go into ``into`` (default: a fresh
    :class:`Database`) as tuples, one ``bulk_insert`` per relation, so
    its validation and key uniqueness apply.
    """
    if isinstance(directories, (str, pathlib.Path)):
        directories = [directories]
    segments = list(map(pathlib.Path, directories))
    if not segments:
        raise StorageError("no dump to load: the chain is empty")
    database = Database() if into is None else into
    chain: dict[str, list[Row]] = {}
    previous: Any = None
    for directory in segments:
        manifest = _read_manifest(directory)
        if (
            directory == segments[-1] and stamp is not None
            and manifest.get("stamp") != stamp
        ):
            raise StorageError(
                f"dump in {directory} is stamped {manifest.get('stamp')!r}, "
                f"expected {stamp!r}"
            )
        if manifest.get("after") != previous:
            raise StorageError(
                f"dump in {directory} extends {manifest.get('after')!r}, "
                f"the chain before it ends at {previous!r}"
            )
        previous = manifest.get("stamp")
        for name, info in manifest["relations"].items():
            relation = database[name]  # raises on unknown relation
            columns = relation.schema.column_names
            if info.get("columns") != list(columns):
                raise StorageError(
                    f"relation {name!r}: dump columns {info.get('columns')} "
                    f"do not match the current schema {list(columns)}"
                )
            held = chain.get(name, [])
            if info["start"] not in (0, len(held)):
                raise StorageError(
                    f"relation {name!r}: dump in {directory} starts at row "
                    f"{info['start']}, the chain before it holds {len(held)}"
                )
            path = directory / f"{name}.jsonl"
            rows: list[Row] = []
            if path.exists():
                rows = _read_rows(path, name, len(columns))
            elif info["rows"]:
                raise StorageError(f"missing dump file for {name!r}")
            if len(rows) != info["rows"]:
                raise StorageError(
                    f"relation {name!r}: expected {info['rows']} rows, "
                    f"found {len(rows)}"
                )
            if info["start"] == 0:  # written whole: replaces the chain's
                chain[name] = rows
            else:
                held.extend(rows)
    for name, rows in chain.items():
        if rows:
            database[name].bulk_insert(rows)
    return database


def dump_state(
    state: dict[str, Any],
    directory: str | pathlib.Path,
    kind: str = "state",
) -> pathlib.Path:
    """Write an arbitrary JSON-serializable state blob (versioned).

    Component snapshots that are not relational -- crawl checkpoints,
    frontier/dedup/host-state dumps -- persist through this so they get
    the same loud version checking as the database dump format.  The
    write goes through a temp file + rename so a crash mid-write never
    leaves a truncated state file behind.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{kind}.json"
    payload = {
        "format_version": _STATE_FORMAT_VERSION,
        "kind": kind,
        "state": state,
    }
    temp = path.with_suffix(".json.tmp")
    temp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    temp.replace(path)
    return path


def load_state(
    directory: str | pathlib.Path, kind: str = "state"
) -> dict[str, Any]:
    """Restore a state blob written by :func:`dump_state`."""
    path = pathlib.Path(directory) / f"{kind}.json"
    if not path.exists():
        raise StorageError(f"no {kind!r} state file in {directory}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as error:
        raise StorageError(f"corrupt {kind!r} state file {path}") from error
    if payload.get("format_version") != _STATE_FORMAT_VERSION:
        raise StorageError(
            f"unsupported state format {payload.get('format_version')!r}"
        )
    if payload.get("kind") != kind:
        raise StorageError(
            f"state file holds {payload.get('kind')!r}, expected {kind!r}"
        )
    state: dict[str, Any] = payload["state"]
    return state
