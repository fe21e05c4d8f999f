"""Paged storage substrate: pages, record codecs, page files and databases."""

from .compression import (
    delta_decode_ids,
    delta_encode_ids,
    quantize_weights,
    zigzag_decode,
    zigzag_encode,
)
from .database import Database
from .page import DEFAULT_PAGE_SIZE, Page
from .pagefile import PageFile
from .persist import (
    clone_database,
    iter_node_records,
    load_database,
    save_database,
    stream_node_database,
)
from .stores import (
    ENV_STORE_BACKEND,
    ENV_STORE_DIR,
    STORE_BACKENDS,
    MemoryPageStore,
    MmapPageStore,
    PageStore,
    SqlitePageStore,
    open_page_store,
    resolve_store_options,
    store_backend_scope,
    store_file_name,
    temporary_store_directory,
)
from .record import (
    RecordReader,
    RecordWriter,
    decode_float32,
    decode_varint,
    encode_float32,
    encode_float64,
    encode_uint32,
    encode_varint,
)

__all__ = [
    "DEFAULT_PAGE_SIZE",
    "ENV_STORE_BACKEND",
    "ENV_STORE_DIR",
    "STORE_BACKENDS",
    "Database",
    "MemoryPageStore",
    "MmapPageStore",
    "Page",
    "PageFile",
    "PageStore",
    "RecordReader",
    "RecordWriter",
    "SqlitePageStore",
    "clone_database",
    "decode_float32",
    "decode_varint",
    "delta_decode_ids",
    "delta_encode_ids",
    "encode_float32",
    "encode_float64",
    "encode_uint32",
    "encode_varint",
    "iter_node_records",
    "load_database",
    "open_page_store",
    "quantize_weights",
    "resolve_store_options",
    "save_database",
    "store_backend_scope",
    "store_file_name",
    "stream_node_database",
    "temporary_store_directory",
    "zigzag_decode",
    "zigzag_encode",
]
