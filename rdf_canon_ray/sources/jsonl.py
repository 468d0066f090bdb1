"""JSONL (newline-delimited JSON) source/sink — the interchange format
corpora usually arrive in before parquet conversion.

Writer: the bucketed layout of ``state.store`` (one ``data.jsonl`` per
hash bucket, one ingest-time shuffle) published through ``store.sink``
— the same resumable-output doctrine as the parquet sinks: partition
contents are a pure function of the key, independent of block order, so
reruns and consumers can address partitions deterministically.

Reader: ``ray.data.read_json`` over the partition directory (newline-
delimited JSON is Ray's native JSON flavor) — streaming, splittable,
schema inferred per block.
"""

from __future__ import annotations

import ray.data as rd

from ..state import store


def write_jsonl_partitioned(
    ds: rd.Dataset,
    out_dir: str,
    key_cols: list[str],
    num_buckets: int = 64,
) -> str:
    """Write ``ds`` as hash-partitioned JSONL under ``out_dir``,
    published through ``store.sink``.  Rows land in bucket
    ``hash(key) % num_buckets`` (``store.write_buckets``) regardless of
    input block order.  A non-empty ``out_dir`` is refused: a sink must
    never silently leave old data in place of what it claims to have
    written (cache callers wrap the sink in ``store.cached``)."""

    def write(rows, file: str) -> None:
        rows.sort_values(key_cols, kind="mergesort").to_json(
            file, orient="records", lines=True, force_ascii=False
        )

    return store.sink(
        out_dir,
        lambda tmp: store.write_buckets(ds, tmp, key_cols, num_buckets, write, "jsonl"),
    )


def read_jsonl(path: str) -> rd.Dataset:
    """Streaming JSONL read over a partition directory (or single file)."""
    return rd.read_json(path, file_extensions=["jsonl"])
