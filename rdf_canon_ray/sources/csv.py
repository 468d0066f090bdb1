"""CSV source/sink — the lowest-common-denominator interchange format.

Same partitioned-sink doctrine as ``sources.jsonl``: the bucketed layout
of ``state.store`` (one ``data.csv`` per hash bucket), published through
``store.sink``, partition contents a pure function of the key so reruns
and consumers address partitions deterministically regardless of input
block order.

Reader: ``ray.data.read_csv`` over the partition directory — streaming
and splittable; pass ``schema_overrides`` (pyarrow types) when CSV's
type inference must not guess (e.g. zero-padded id strings).
"""

from __future__ import annotations

import ray.data as rd

from ..state import store


def write_csv_partitioned(
    ds: rd.Dataset,
    out_dir: str,
    key_cols: list[str],
    num_buckets: int = 64,
) -> str:
    """Write ``ds`` as hash-partitioned CSV under ``out_dir``, published
    through ``store.sink`` (a non-empty ``out_dir`` is refused).  Rows
    land in bucket ``hash(key) % num_buckets`` (``store.write_buckets``)
    and are key-sorted inside each part, so the layout is independent of
    input block order."""

    def write(rows, file: str) -> None:
        rows.sort_values(key_cols, kind="mergesort").to_csv(file, index=False)

    return store.sink(
        out_dir,
        lambda tmp: store.write_buckets(ds, tmp, key_cols, num_buckets, write, "csv"),
    )


def read_csv(path: str, schema_overrides=None) -> rd.Dataset:
    """Streaming CSV read over a partition directory (or single file).

    ``schema_overrides``: optional dict of column → pyarrow type,
    forwarded as an Arrow ``convert_options`` column_types mapping."""
    kwargs = {}
    if schema_overrides:
        from pyarrow import csv as pacsv

        kwargs["convert_options"] = pacsv.ConvertOptions(
            column_types=schema_overrides
        )
    return rd.read_csv(path, file_extensions=["csv"], **kwargs)
