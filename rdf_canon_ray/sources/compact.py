"""Small-file compaction for Parquet directories.

A streaming engine writing one file per block leaves thousands of tiny
files at 100 TB — each later scan pays per-file open/footer costs, and
object stores throttle on request counts.  ``compact_dir`` merges a
directory's files into ~``target_bytes`` outputs:

* the merge PLAN derives from file sizes alone (no data read);
* each output file is written by one Ray task that streams its input
  row groups through a ``ParquetWriter`` (bounded memory — never a
  whole group of files at once);
* input order is preserved (files are planned in sorted name order,
  row groups in file order), so order-dependent layouts (e.g. the
  sorted zone-map export) stay sorted;
* the output directory is published through ``store.sink``, which
  refuses a non-empty ``dst``, like the other sinks.

This is one of the few places raw ``ray.remote`` tasks are the right
tool: the unit of work is "exactly these N files → one output file",
a file-granularity contract the Dataset API cannot express.
"""

from __future__ import annotations

import os
from typing import List

import pyarrow.parquet as pq
import ray

from ..state import store


def plan_groups(src: str, target_bytes: int) -> List[List[str]]:
    """Greedy size-based grouping of ``src``'s parquet files (sorted
    name order, sizes from stat — no data read)."""
    names = sorted(
        n for n in os.listdir(src) if n.endswith(".parquet")
    )
    groups: List[List[str]] = []
    cur: List[str] = []
    cur_sz = 0
    for n in names:
        sz = os.path.getsize(os.path.join(src, n))
        if cur and cur_sz + sz > target_bytes:
            groups.append(cur)
            cur, cur_sz = [], 0
        cur.append(n)
        cur_sz += sz
    if cur:
        groups.append(cur)
    return groups


@ray.remote
def _merge_group(src: str, names: List[str], out_path: str) -> int:
    """Stream every row group of ``names`` into one output file."""
    writer = None
    rows = 0
    try:
        for n in names:
            f = pq.ParquetFile(os.path.join(src, n))
            for rg in range(f.metadata.num_row_groups):
                t = f.read_row_group(rg)
                if writer is None:
                    writer = pq.ParquetWriter(out_path, t.schema)
                writer.write_table(t)
                rows += t.num_rows
    finally:
        if writer is not None:
            writer.close()
    return rows


def compact_dir(
    src: str, dst: str, target_bytes: int = 128 << 20
) -> dict:
    """Compact ``src``'s parquet files into ``dst`` (~``target_bytes``
    per output).  Returns {files_in, files_out, rows}.  Non-parquet
    sidecars (manifests, indexes) are NOT copied — compaction changes
    file boundaries, so per-file metadata must be rebuilt by the layout
    that owns it."""
    groups = plan_groups(src, target_bytes)
    width = len(str(max(len(groups) - 1, 0)))
    rows = 0

    def build(tmp: str) -> None:
        nonlocal rows
        futs = [
            _merge_group.remote(
                src, g, os.path.join(tmp, f"part-{i:0{width}d}.parquet")
            )
            for i, g in enumerate(groups)
        ]
        rows = sum(ray.get(futs))

    store.sink(dst, build)
    return {
        "files_in": sum(len(g) for g in groups),
        "files_out": len(groups),
        "rows": rows,
    }
