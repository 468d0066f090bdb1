"""JSONL (newline-delimited JSON) source/sink — the interchange format
corpora usually arrive in before parquet conversion.

Writer: hash-partitioned layout (``part=N/data.jsonl``, one ingest-time
shuffle) published through ``state.store`` — the same resumable-output
doctrine as the parquet sinks: partition contents are a pure function of
the key, independent of block order, so reruns and consumers can address
partitions deterministically.

Reader: ``ray.data.read_json`` over the partition directory (newline-
delimited JSON is Ray's native JSON flavor) — streaming, splittable,
schema inferred per block.
"""

from __future__ import annotations

import os

import pandas as pd
import ray.data as rd

from ..stages.shuffle import add_bucket, map_buckets
from ..state import store


def write_jsonl_partitioned(
    ds: rd.Dataset,
    out_dir: str,
    key_cols: list[str],
    num_buckets: int = 64,
) -> str:
    """Write ``ds`` as hash-partitioned JSONL under ``out_dir``,
    published through ``state.store``.  Rows land in
    ``part=hash(key) % num_buckets`` regardless of input block order.
    A non-empty ``out_dir`` is refused: a sink must never silently
    leave old data in place of what it claims to have written (cache
    callers wrap the sink in ``store.cached``)."""
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        raise FileExistsError(
            f"write_jsonl_partitioned: {out_dir} already exists and is "
            "non-empty — remove it (or write elsewhere) first"
        )

    def build(tmp: str) -> None:
        def write_bucket(group: pd.DataFrame) -> pd.DataFrame:
            b = int(group["_bucket"].iloc[0])
            pdir = os.path.join(tmp, f"part={b}")
            os.makedirs(pdir, exist_ok=True)
            group.drop(columns=["_bucket"]).sort_values(
                key_cols, kind="mergesort"
            ).to_json(
                os.path.join(pdir, "data.jsonl"),
                orient="records",
                lines=True,
                force_ascii=False,
            )
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


def read_jsonl(path: str) -> rd.Dataset:
    """Streaming JSONL read over a partition directory (or single file)."""
    return rd.read_json(path, file_extensions=["jsonl"])
