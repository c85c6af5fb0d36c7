"""Database persistence: JSON-lines dump and restore.

The paper's store is a server database that naturally survives the
crawler process; the embedded store gains the same property through an
explicit dump format (version 2) -- a manifest plus one file per
relation.  The manifest pins each relation's column order and row
count; a relation file holds its rows as JSON arrays of values in that
order -- the stored tuples themselves, a few thousand to a line -- so
neither side pays for column names or per-row encoder calls.  Restores check every line against the
manifest and the current schema, so a torn, foreign or older-format dump
fails loudly instead of silently corrupting a crawl.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

from repro.errors import StorageError
from repro.storage.database import Database, Relation
from repro.storage.schema import Row

__all__ = [
    "dump_database",
    "load_database",
    "dump_state",
    "load_state",
]

_MANIFEST = "manifest.json"
_FORMAT_VERSION = 2
_STATE_FORMAT_VERSION = 1
_CHUNK_ROWS = 4096
"""Rows per line of a relation file (one ``json.dumps`` call each)."""


def dump_database(
    database: Database, directory: str | pathlib.Path, stamp: Any = None
) -> int:
    """Write every relation to ``directory``; returns the row count.

    ``stamp`` (any JSON value) is recorded in the manifest for
    :func:`load_database` to compare -- a checkpoint passes its save
    ordinal.  The manifest is written last: without it there is no dump.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    relations: dict[str, dict[str, Any]] = {}
    total = 0
    for name, relation in database.relations.items():
        columns = relation.schema.column_names
        records = relation.rows()
        with (directory / f"{name}.jsonl").open("w", encoding="utf-8") as out:
            for start in range(0, len(records), _CHUNK_ROWS):
                out.write(json.dumps(
                    records[start:start + _CHUNK_ROWS],
                    separators=(",", ":"),
                ))
                out.write("\n")
        relations[name] = {"rows": len(records), "columns": list(columns)}
        total += len(records)
    manifest = {
        "format_version": _FORMAT_VERSION,
        "stamp": stamp,
        "relations": relations,
    }
    (directory / _MANIFEST).write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    return total


def load_database(
    directory: str | pathlib.Path,
    into: Database | None = None,
    stamp: Any = None,
) -> Database:
    """Restore a database dumped by :func:`dump_database`.

    Rows go into ``into`` (default: a fresh :class:`Database`) as tuples
    through ``bulk_insert``, so its validation and key uniqueness apply.
    Every file is read and checked against the manifest before the
    first row is inserted.  With a ``stamp``, a dump that carries a
    different one is refused.
    """
    directory = pathlib.Path(directory)
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        raise StorageError(f"no manifest in {directory}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as error:
        raise StorageError(f"corrupt manifest in {directory}") from error
    if manifest.get("format_version") != _FORMAT_VERSION:
        raise StorageError(
            f"unsupported dump format {manifest.get('format_version')!r}: "
            f"this build reads only version {_FORMAT_VERSION}, dump the "
            "database again with it"
        )
    if stamp is not None and manifest.get("stamp") != stamp:
        raise StorageError(
            f"dump in {directory} is stamped {manifest.get('stamp')!r}, "
            f"expected {stamp!r}"
        )
    database = Database() if into is None else into
    loaded: list[tuple[Relation, list[Row]]] = []
    for name, info in manifest["relations"].items():
        relation = database.table(name)  # raises on unknown relation
        columns = relation.schema.column_names
        if info.get("columns") != list(columns):
            raise StorageError(
                f"relation {name!r}: dump columns {info.get('columns')} "
                f"do not match the current schema {list(columns)}"
            )
        path = directory / f"{name}.jsonl"
        if not path.exists():
            if info["rows"]:
                raise StorageError(f"missing dump file for {name!r}")
            continue
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
                        or set(map(len, chunk)) - {len(columns)}
                    ):
                        raise ValueError("not rows of the manifest's width")
                    rows.extend(map(tuple, chunk))
        except ValueError as error:
            raise StorageError(
                f"relation {name!r}: corrupt dump file {path.name} ({error})"
            ) from error
        if len(rows) != info["rows"]:
            raise StorageError(
                f"relation {name!r}: expected {info['rows']} rows, "
                f"found {len(rows)}"
            )
        loaded.append((relation, rows))
    for relation, rows in loaded:
        relation.bulk_insert(rows)
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
