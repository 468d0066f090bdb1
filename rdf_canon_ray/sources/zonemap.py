"""Zone-map data skipping: sorted Parquet export + manifest-pruned
range reads.

The storage-level half of scan pruning at 100 TB: write the table ONCE
globally sorted on the query axis (Ray's native sample-based range
sort → each output file owns a key range), record every file's
min/max key in a manifest, and answer range queries by reading ONLY
the files whose zone overlaps — the same data-skipping contract as
Parquet row-group stats / Iceberg manifests, expressed at file
granularity so the pruning decision costs one small JSON read instead
of touching every footer.

* ``zone_export(ds, path, key)`` — sort, write, stat each file's
  footer (no data read), publish with the zones in the manifest.
* ``zone_read(path, lo, hi)``   — prune via manifest, exact residual
  filter inside ``map_batches`` (file zones overlap at the edges, so
  the filter is REQUIRED for exactness; pruned/total file counts are
  metrics-reported as ``zonemap_files_read`` / ``zonemap_files_total``).

Keys are stored in the manifest as epoch-microsecond integers for
timestamp axes and as-is for integer axes.
"""

from __future__ import annotations

import os
from typing import Tuple

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import ray.data as rd

from ..state import metrics, store


def _key_to_int(v) -> int:
    """Manifest encoding: timestamps → epoch µs, ints pass through."""
    if isinstance(v, (np.datetime64, pd.Timestamp)):
        return int(pd.Timestamp(v).value // 1000)
    try:
        import datetime

        if isinstance(v, datetime.datetime):
            return int(pd.Timestamp(v).value // 1000)
    except ImportError:  # pragma: no cover
        pass
    return int(v)


def zone_export(
    ds: rd.Dataset, path: str, key: str, input_tag: str | None = None
) -> str:
    """Globally sort ``ds`` on ``key`` and publish it as a pruned-read
    layout (``state.store``): Parquet files + a manifest whose ``zones``
    hold each file's [min, max] key (taken from the Parquet footer
    statistics — no data pages are read).  Idempotent per (path,
    input): the manifest fingerprint is ``input_tag`` if given, else
    row count + schema, and a changed input REBUILDS the layout instead
    of silently serving the stale sorted copy.

    Cost note: pass ``input_tag`` whenever the caller can fingerprint
    its input cheaply (file sizes/mtimes, a corpus tag…).  Without it
    the fingerprint is ``ds.count()``, which executes the full input
    pipeline on EVERY call — even when the manifest already matches,
    because row count is the only evidence we have.  It is computed
    exactly once per call."""
    if input_tag is not None:
        fingerprint = input_tag
    else:
        fingerprint = f"{ds.count()}|{','.join(sorted(ds.schema().names))}"

    def build(tmp: str) -> dict:
        ds.sort(key).write_parquet(tmp)
        zones = []
        for name in sorted(os.listdir(tmp)):
            if not name.endswith(".parquet"):
                continue
            md = pq.read_metadata(os.path.join(tmp, name))
            fmin, fmax = None, None
            idx = md.schema.to_arrow_schema().get_field_index(key)
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(idx).statistics
                if st is None or not st.has_min_max:  # pragma: no cover
                    raise ValueError(f"no statistics for {key} in {name}")
                lo, hi = _key_to_int(st.min), _key_to_int(st.max)
                fmin = lo if fmin is None else min(fmin, lo)
                fmax = hi if fmax is None else max(fmax, hi)
            if fmin is not None:
                zones.append({"file": name, "min": fmin, "max": fmax})
        return {"key": key, "zones": zones}

    return store.cached(path, fingerprint, build)


def _manifest(path: str) -> dict:
    man = store.manifest(path)
    if man is None:
        raise FileNotFoundError(f"{path} is not a zone_export layout")
    return man


def zone_select(path: str, lo: int, hi: int) -> Tuple[list, int]:
    """Files whose [min, max] zone intersects [lo, hi) + total count."""
    zones = _manifest(path)["zones"]
    keep = [
        os.path.join(path, z["file"])
        for z in zones
        if z["max"] >= lo and z["min"] < hi
    ]
    return keep, len(zones)


def zone_read(path: str, lo: int, hi: int) -> rd.Dataset:
    """Manifest-pruned range read of [lo, hi) (epoch-µs / int key
    space): only overlapping files are opened; an exact residual filter
    removes edge rows the coarse file zones let through."""
    key = _manifest(path)["key"]
    files, total = zone_select(path, lo, hi)
    metrics.incr("zonemap_files_total", total)
    metrics.incr("zonemap_files_read", len(files))
    # no zone overlaps: the residual filter empties one file instead, so
    # the result keeps the layout's columns and dtypes
    files = files or sorted(
        os.path.join(path, n) for n in os.listdir(path) if n.endswith(".parquet")
    )[:1]

    def residual(batch: pd.DataFrame) -> pd.DataFrame:
        k = batch[key]
        if np.issubdtype(k.dtype, np.datetime64):
            kv = k.astype("datetime64[us]").astype(np.int64)
        else:
            kv = k.astype(np.int64)
        return batch[(kv >= lo) & (kv < hi)]

    return store.read(files).map_batches(
        residual, batch_format="pandas", batch_size=None
    )
