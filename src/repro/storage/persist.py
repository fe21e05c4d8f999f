"""Disk persistence for LBS databases.

A deployable LBS stores its database on disk and keeps serving it across
restarts.  This module covers three paths there:

* :func:`save_database` / :func:`load_database` — the portable image format:
  every page file becomes ``<name>.pages`` (the concatenation of its padded
  page images, exactly what would sit on the LBS's disk), the header becomes
  ``header.bin``, and ``manifest.json`` records the page size, per-file page
  counts, per-page payload sizes and SHA-256 checksums.  Both directions
  stream page by page, so saving or loading never materialises a whole file
  image in memory, and ``load_database(..., store_backend=...)`` loads
  straight onto any page-store backend.
* :func:`clone_database` — re-home a built database onto another backend
  (the engine uses this to serve a RAM-built database from mmap/SQLite).
* :func:`stream_node_database` — build a page database directly from a
  streaming iterable of node records without ever holding the network in
  memory; the out-of-core benchmarks feed the continental-scale generators
  of :mod:`repro.network.generators` through this.

Note that the mmap and SQLite page stores are themselves durable: a database
built with ``store_backend="sqlite"`` in a kept directory can be reopened
with :func:`open_page_store` without this module's manifest round trip (the
manifest adds integrity checksums and backend independence on top).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..exceptions import StorageError
from .database import Database
from .record import decode_float32, decode_varint, encode_float32, encode_varint
from .stores import PathLike

#: Name of the manifest written alongside the page files.
MANIFEST_NAME = "manifest.json"
#: Name of the header image.
HEADER_NAME = "header.bin"
#: Manifest format version (bumped on incompatible layout changes; 2 stores
#: region records column by column).
MANIFEST_VERSION = 2


def _checksum(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def save_database(database: Database, directory: Union[str, Path]) -> Path:
    """Write ``database`` to ``directory``; returns the manifest path.

    The directory is created if needed.  Existing files of a previous save are
    overwritten; unrelated files are left alone.  Pages are written one at a
    time, so saving an out-of-core database never loads it into memory.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    database.flush()

    manifest: Dict[str, object] = {
        "version": MANIFEST_VERSION,
        "page_size": database.page_size,
        "header": {
            "file": HEADER_NAME,
            "bytes": database.header_size_bytes,
            "sha256": _checksum(database.header),
        },
        "files": {},
    }
    (directory / HEADER_NAME).write_bytes(database.header)

    for page_file in database.files():
        file_name = f"{page_file.name}.pages"
        hasher = hashlib.sha256()
        used_bytes: List[int] = []
        with open(directory / file_name, "wb") as handle:
            for page_number in range(page_file.num_pages):
                image = page_file.read_page(page_number)
                handle.write(image)
                hasher.update(image)
                used_bytes.append(page_file.page_used_bytes(page_number))
        manifest["files"][page_file.name] = {
            "file": file_name,
            "num_pages": page_file.num_pages,
            "used_bytes": used_bytes,
            "sha256": hasher.hexdigest(),
        }

    manifest_path = directory / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    return manifest_path


def load_database(
    directory: Union[str, Path],
    verify: bool = True,
    store_backend: Optional[str] = None,
    store_dir: Optional[PathLike] = None,
) -> Database:
    """Load a database previously written by :func:`save_database`.

    ``verify=True`` (the default) checks every SHA-256 recorded in the
    manifest and raises :class:`StorageError` on any mismatch.
    ``store_backend``/``store_dir`` choose the page-store backend the loaded
    database lives on (default: the usual backend-resolution seams), so a
    saved image can be loaded straight into an out-of-core store — pages
    stream from the image file into the store one at a time.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise StorageError(f"no database manifest found in {directory}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise StorageError(f"corrupt database manifest: {error}") from error
    if manifest.get("version") != MANIFEST_VERSION:
        raise StorageError(
            f"unsupported manifest version {manifest.get('version')!r} "
            f"(expected {MANIFEST_VERSION})"
        )

    page_size = int(manifest["page_size"])
    database = Database(page_size, store_backend=store_backend, store_dir=store_dir)

    header_info = manifest["header"]
    header = (directory / header_info["file"]).read_bytes()
    if verify and _checksum(header) != header_info["sha256"]:
        raise StorageError("header checksum mismatch; the database files were modified")
    database.set_header(header)

    for name, info in sorted(manifest["files"].items()):
        image_path = directory / info["file"]
        if not image_path.exists():
            raise StorageError(f"missing page file image {info['file']!r}")
        num_pages = int(info["num_pages"])
        expected_bytes = num_pages * page_size
        actual_bytes = image_path.stat().st_size
        if actual_bytes != expected_bytes:
            raise StorageError(
                f"page file {name!r} has {actual_bytes} bytes, expected {expected_bytes}"
            )
        used_bytes: List[int] = [int(value) for value in info["used_bytes"]]
        if len(used_bytes) != num_pages:
            raise StorageError(f"manifest for {name!r} lists the wrong number of pages")
        page_file = database.create_file(name)
        hasher = hashlib.sha256()
        with open(image_path, "rb") as handle:
            for used in used_bytes:
                image = handle.read(page_size)
                if verify:
                    hasher.update(image)
                page_file.store.append_page(image[:used])
        if verify and hasher.hexdigest() != info["sha256"]:
            raise StorageError(f"checksum mismatch for page file {name!r}")
        page_file.flush()
    return database


def clone_database(
    database: Database,
    store_backend: Optional[str] = None,
    store_dir: Optional[PathLike] = None,
) -> Database:
    """A bit-identical copy of ``database`` on another page-store backend.

    Pages stream from the source store into the destination store one at a
    time, so re-homing a database onto mmap/SQLite (the engine's
    ``store_backend=`` path) does not materialise it in memory.
    """
    database.flush()
    clone = Database(database.page_size, store_backend=store_backend, store_dir=store_dir)
    clone.set_header(database.header)
    for page_file in database.files():
        target = clone.create_file(page_file.name)
        for payload in page_file.store.iter_payloads():
            target.store.append_page(payload)
        target.flush()
    return clone


#: One streaming node record: ``(node_id, x, y, [(neighbor, weight), ...])``.
NodeRecord = Tuple[int, float, float, List[Tuple[int, float]]]


def stream_node_database(
    records: Iterable[NodeRecord],
    page_size: int,
    store_backend: Optional[str] = None,
    store_dir: Optional[PathLike] = None,
    payload_pad: int = 0,
    data_file: str = "data",
) -> Tuple[Database, int]:
    """Build a page database directly from streaming node records.

    Each record packs into the ``data_file`` page file as a self-contained
    binary record (varint node id and degree, float32 coordinates and
    weights), optionally zero-padded to at least ``payload_pad`` bytes — the
    out-of-core benchmarks use the pad to give each node a realistic
    region-payload footprint.  Only the current tail page is ever resident,
    so a continental-scale network streams onto an mmap/SQLite store with
    O(1) memory.  Returns ``(database, node_count)``; the header records the
    node count for reopening consumers.
    """
    database = Database(page_size, store_backend=store_backend, store_dir=store_dir)
    data = database.create_file(data_file)
    count = 0
    for node_id, x, y, neighbors in records:
        parts = [
            encode_varint(node_id),
            encode_float32(x),
            encode_float32(y),
            encode_varint(len(neighbors)),
        ]
        for neighbor, weight in neighbors:
            parts.append(encode_varint(neighbor))
            parts.append(encode_float32(weight))
        record = b"".join(parts)
        if payload_pad and len(record) < payload_pad:
            record += b"\x00" * (payload_pad - len(record))
        data.append_record_packed(record)
        count += 1
    database.set_header(
        encode_varint(count) + encode_varint(page_size) + encode_varint(payload_pad)
    )
    database.flush()
    return database, count


def iter_node_records(
    database: Database, data_file: str = "data"
) -> Iterator[NodeRecord]:
    """Stream the node records back out of a :func:`stream_node_database` DB.

    Pages are read one at a time from the backing store, so a reopened
    out-of-core database iterates with the same O(1) residency it was built
    with.  The header's ``payload_pad`` tells the decoder how far to skip
    past each record's zero padding.
    """
    header = database.header
    _, offset = decode_varint(header)
    _, offset = decode_varint(header, offset)
    payload_pad, _ = decode_varint(header, offset)
    page_file = database.file(data_file)
    for page_number in range(page_file.num_pages):
        payload = page_file.read_page(page_number)[: page_file.page_used_bytes(page_number)]
        offset = 0
        while offset < len(payload):
            start = offset
            node_id, offset = decode_varint(payload, offset)
            x = decode_float32(payload, offset)
            y = decode_float32(payload, offset + 4)
            offset += 8
            degree, offset = decode_varint(payload, offset)
            neighbors: List[Tuple[int, float]] = []
            for _ in range(degree):
                neighbor, offset = decode_varint(payload, offset)
                neighbors.append((neighbor, decode_float32(payload, offset)))
                offset += 4
            if payload_pad:
                offset = max(offset, start + payload_pad)
            yield node_id, x, y, neighbors
