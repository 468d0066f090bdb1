"""CSV source/sink — the lowest-common-denominator interchange format.

Same partitioned-sink doctrine as ``sources.jsonl``: hash-partitioned
layout (``part=N/data.csv``), published through ``state.store``, partition
contents a pure function of the key so reruns and consumers address
partitions deterministically regardless of input block order.

Reader: ``ray.data.read_csv`` over the partition directory — streaming
and splittable; pass ``schema_overrides`` (pyarrow types) when CSV's
type inference must not guess (e.g. zero-padded id strings).
"""

from __future__ import annotations

import os

import pandas as pd
import ray.data as rd

from ..stages.shuffle import add_bucket, map_buckets
from ..state import store


def write_csv_partitioned(
    ds: rd.Dataset,
    out_dir: str,
    key_cols: list[str],
    num_buckets: int = 64,
) -> str:
    """Write ``ds`` as hash-partitioned CSV under ``out_dir``, published
    through ``state.store`` (a non-empty ``out_dir`` is refused).  Rows
    land in ``part=hash(key) % num_buckets`` and are key-sorted inside
    each part, so the layout is independent of input block order."""
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        raise FileExistsError(
            f"write_csv_partitioned: {out_dir} already exists and is "
            "non-empty — remove it (or write elsewhere) first"
        )

    def build(tmp: str) -> None:
        def write_bucket(group: pd.DataFrame) -> pd.DataFrame:
            b = int(group["_bucket"].iloc[0])
            pdir = os.path.join(tmp, f"part={b}")
            os.makedirs(pdir, exist_ok=True)
            group.drop(columns=["_bucket"]).sort_values(
                key_cols, kind="mergesort"
            ).to_csv(os.path.join(pdir, "data.csv"), index=False)
            return pd.DataFrame({"bucket": [b], "rows": [len(group)]})

        map_buckets(
            ds.map_batches(
                lambda b: add_bucket(b, key_cols, num_buckets),
                batch_format="pandas",
                batch_size=32768,
            ),
            num_buckets,
            write_bucket,
        ).count()

    return store.publish(out_dir, build)


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
