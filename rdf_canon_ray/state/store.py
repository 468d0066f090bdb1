"""Persisted directories: how a cache, layout or store is built,
published, judged fresh and recovered after a crash.

Every on-disk directory the package reuses across runs goes through
this module, so the rules below hold for all of them:

* ``build(tmp)`` writes into ``path + ".tmp"`` (a leftover from a dead
  run is dropped first).  A ``build`` that raises leaves the published
  directory untouched and no ``.tmp`` behind.
* The manifest ``_store.json`` — ``{"format": FORMAT, "fingerprint":
  …, **extra}`` — is written into ``tmp`` LAST, so a directory whose
  manifest reads back is complete.  ``build`` may return the extra
  fields (zone ranges, list row counts, a node count …); they never
  override ``format`` or ``fingerprint``.
* Publish is a swap: ``path`` → ``path.stale``, ``tmp`` → ``path``,
  remove ``.stale``.  POSIX cannot replace a directory atomically; a
  crash between the two renames leaves the last good copy at
  ``.stale``, and ``cached`` restores it before judging freshness.
* A store is read back with ``read(files, columns)`` over the part
  files its caller lists (from its layout or its manifest), never by
  reading the directory: no footer of a file it does not need is
  opened.  The manifest name starts with ``_``, so Arrow's own
  directory reads (``pq.read_table(path)``) skip it too.

One driver owns a path at a time; concurrent builders of the same path
are not coordinated (the last swap wins).
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Callable, Optional

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from ..util import plan_partitions

FORMAT = 1
MANIFEST = "_store.json"


def manifest(path: str) -> Optional[dict]:
    """The manifest of the directory at ``path``; None when it is
    missing, unreadable, truncated or written under another FORMAT."""
    try:
        with open(os.path.join(path, MANIFEST)) as f:
            m = json.load(f)
    except (OSError, ValueError):
        return None
    return m if isinstance(m, dict) and m.get("format") == FORMAT else None


def publish(
    path: str, build: Callable[[str], Optional[dict]], fingerprint=None
) -> str:
    """Build into ``path + ".tmp"``, write the manifest last, swap it in
    at ``path``.  No freshness check: sinks and per-bucket outputs that
    always write use this directly.  With neither a fingerprint nor
    extra fields there is nothing to record and no manifest is written,
    so a plain sink's output holds only its data."""
    tmp, stale = path + ".tmp", path + ".stale"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        extra = build(tmp) or {}
        if fingerprint is not None or extra:
            with open(os.path.join(tmp, MANIFEST), "w") as f:
                json.dump({**extra, "format": FORMAT, "fingerprint": fingerprint}, f)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if os.path.isdir(path):
        shutil.rmtree(stale, ignore_errors=True)
        os.rename(path, stale)
    os.rename(tmp, path)
    shutil.rmtree(stale, ignore_errors=True)
    return path


def cached(path: str, fingerprint, build: Callable[[str], Optional[dict]]) -> str:
    """``path`` as is when its manifest records ``fingerprint`` (``build``
    is not called); otherwise ``publish`` a rebuild.  A last good copy
    left at ``.stale`` by a crash mid-swap is restored first."""
    stale = path + ".stale"
    if not os.path.isdir(path) and os.path.isdir(stale):
        os.rename(stale, path)
    m = manifest(path)
    # compare in JSON form: tuples in the caller's value read back as lists
    if m is not None and m.get("fingerprint") == json.loads(json.dumps(fingerprint)):
        return path
    return publish(path, build, fingerprint)


def stat_files(files: dict) -> list:
    """Metadata-only input fingerprint ``[[name, size, mtime_ns], …]``
    of ``{name: file path}``, sorted by name (one ``os.stat`` per file,
    no data read): a file rewritten in place changes it."""
    out = []
    for name, p in sorted(files.items()):
        st = os.stat(p)
        out.append([name, st.st_size, st.st_mtime_ns])
    return out


def read(files, columns=None) -> rd.Dataset:
    """The parquet ``files`` as a Dataset of pandas blocks: one map task
    per planned block of contiguous files (``plan_partitions``), each
    reading its files with ``pq.read_table(columns=columns)`` — no
    partition column is added and no other footer is opened.  No files
    give a consumable 0-row Dataset with no columns."""
    if not files:
        return rd.from_items([])

    def read_files(batch: pd.DataFrame) -> pd.DataFrame:
        return pa.concat_tables(
            [pq.read_table(p, columns=columns) for p in batch["path"]]
        ).to_pandas()

    return rd.from_items(
        [{"path": p} for p in files],
        override_num_blocks=plan_partitions(len(files)),
    ).map_batches(read_files, batch_format="pandas", batch_size=None)
