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
* A sink (``sink``) refuses a non-empty target: it must never leave
  old data in place of what it claims to have written.  Cache callers
  wrap a sink in ``cached``.

The bucketed layout — one ``part=<b>/data.<ext>`` file per non-empty
hash bucket ``b`` — is spelled here and nowhere else:

* ``write_buckets`` hashes rows on their key with the exchange's own
  prepare (``shuffle.with_buckets``, the hash of ``shuffle.add_bucket``),
  so at the same bucket count, bucket ``b`` of a layout holds exactly
  the keys the exchange sends to bucket ``b``; each bucket's rows go to
  one file.
* ``parts`` lists a layout back as bucket → part file, in bucket order;
  ``split_parts`` cuts it into the base and the refresh delta (buckets
  with ``b % delta_mod == 0``).  Keyed partitions are the unit of
  refresh: a store mirrors its base's buckets, so merging a refreshed
  delta is a union.
* ``map_files`` runs a function over listed part files in planned
  blocks, one map task per block of contiguous files
  (``plan_partitions``); ``read`` and ``bucket_store`` are built on it,
  and only a store build runs as one wave (``util.planned``).
* A store (``bucket_store``) is resumable per part.  Each ``part=<b>``
  dir is published by ``cached`` with its own manifest, fingerprinted
  on the one base file it mirrors; the store-level manifest, on all the
  base files, is removed before a rebuild and written after every part
  has succeeded.  The store dir is updated in place: a rebuild rewrites
  only the parts whose base file changed or that a crash or a failed
  part left unpublished, and drops the parts of buckets gone from the
  base.  A part that fails does not stop the others; the build raises
  afterwards, naming the failed buckets.  A non-empty target holding
  anything but the store's own entries is refused, like a sink's.

One driver owns a path at a time; concurrent builders of the same path
are not coordinated (the last swap wins).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import traceback
from typing import Callable, Optional

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from ..stages.shuffle import map_buckets, with_buckets
from ..util import plan_partitions, planned

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


def _write_manifest(path: str, fingerprint, extra=None) -> None:
    with open(os.path.join(path, MANIFEST), "w") as f:
        json.dump({**(extra or {}), "format": FORMAT, "fingerprint": fingerprint}, f)


def _fresh(path: str, fingerprint) -> bool:
    m = manifest(path)
    # compare in JSON form: tuples in the caller's value read back as lists
    return m is not None and m.get("fingerprint") == json.loads(json.dumps(fingerprint))


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
            _write_manifest(tmp, fingerprint, extra)
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
    if _fresh(path, fingerprint):
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


def sink(path: str, build: Callable[[str], Optional[dict]]) -> str:
    """``publish`` for a sink: a non-empty ``path`` is refused (and
    left untouched) before anything is built."""
    if os.path.isdir(path) and os.listdir(path):
        raise FileExistsError(
            f"{path} already exists and is non-empty — remove it (or "
            "write elsewhere) first"
        )
    return publish(path, build)


# a part dir, or the leftover of a crashed publish of one
_PART_ENTRY = re.compile(r"part=(\d+)(\.tmp|\.stale)?")


def _part_file(root: str, bucket: int, ext: str = "parquet") -> str:
    return os.path.join(root, f"part={bucket}", f"data.{ext}")


def write_buckets(
    ds: rd.Dataset,
    root: str,
    keys,
    num_buckets: int,
    write_file: Callable[[pd.DataFrame, str], None],
    ext: str = "parquet",
) -> None:
    """Write ``ds`` as a bucketed layout under ``root``: rows hashed on
    ``keys`` into ``num_buckets`` buckets, and ``write_file(rows, file)``
    called once per non-empty bucket with its rows (no ``_bucket``
    column) and ``part=<b>/data.<ext>``."""

    def write_bucket(group: pd.DataFrame) -> pd.DataFrame:
        b = int(group["_bucket"].iloc[0])
        file = _part_file(root, b, ext)
        os.makedirs(os.path.dirname(file), exist_ok=True)
        write_file(group.drop(columns=["_bucket"]), file)
        return pd.DataFrame({"bucket": [b], "rows": [len(group)]})

    map_buckets(with_buckets(ds, keys, num_buckets), num_buckets, write_bucket).count()


def parts(root: str) -> dict:
    """bucket → parquet part file of the bucketed layout at ``root``, in
    bucket order: published ``part=<b>`` dirs only, not the ``.tmp`` or
    ``.stale`` leftovers of a crashed part publish."""
    found = (_PART_ENTRY.fullmatch(d) for d in os.listdir(root))
    return {b: _part_file(root, b) for b in sorted(int(m[1]) for m in found if m and not m[2])}


def split_parts(root: str, delta_mod: int) -> tuple:
    """``(base, delta)`` of the layout at ``root``, each bucket → part
    file in bucket order: bucket ``b`` is in the refresh delta when
    ``b % delta_mod == 0``, in the base otherwise."""
    base, delta = {}, {}
    for b, p in parts(root).items():
        (delta if b % delta_mod == 0 else base)[b] = p
    return base, delta


def map_files(files, fn: Callable[[pd.DataFrame], object]) -> rd.Dataset:
    """``fn`` over the ``files`` (a list of paths, or bucket → path) in
    planned blocks: one map task per block of contiguous files
    (``plan_partitions``), blocks in ``files`` order.  ``fn`` gets the
    block as one pandas batch with a ``path`` column, plus ``bucket``
    when ``files`` is a dict."""
    if isinstance(files, dict):
        rows = [{"bucket": b, "path": p} for b, p in files.items()]
    else:
        rows = [{"path": p} for p in files]
    return rd.from_items(
        rows, override_num_blocks=plan_partitions(len(rows))
    ).map_batches(fn, batch_format="pandas", batch_size=None)


def read(files, columns=None) -> rd.Dataset:
    """The parquet ``files`` (as ``map_files`` takes them) as a Dataset
    of pandas blocks, each planned block's files read with
    ``pq.read_table(columns=columns)`` — no partition column is added
    and no other footer is opened.  No files give a consumable 0-row
    Dataset with no columns."""
    if not files:
        return rd.from_items([])

    def read_files(batch: pd.DataFrame) -> pd.DataFrame:
        return pa.concat_tables(
            [pq.read_table(p, columns=columns) for p in batch["path"]]
        ).to_pandas()

    return map_files(files, read_files)


def bucket_store(path: str, base: dict, make_part_table) -> str:
    """Persisted per-bucket store at ``path`` over the ``base`` part
    files (bucket → file of a bucketed layout), mirroring its buckets.
    Only when the store is (re)built, ``make_part_table()`` runs on the
    driver and returns the per-file function: part file → that bucket's
    rows as an Arrow table, written to the store's own part file.
    Fingerprinted on the base files themselves, so a layout rewritten in
    place invalidates the store instead of feeding a stale base into an
    incremental merge; each part is fingerprinted on its own base file,
    so a rebuild rewrites only the parts that are stale or missing."""
    fingerprint = stat_files(base)
    if _fresh(path, fingerprint):
        return path
    names = os.listdir(path) if os.path.isdir(path) else []
    entries = {n: _PART_ENTRY.fullmatch(n) for n in names if n != MANIFEST}
    foreign = sorted(n for n, m in entries.items() if m is None)
    if foreign:
        raise FileExistsError(
            f"{path} holds {foreign[:3]}, which no store wrote — remove it "
            "(or write elsewhere) first"
        )
    os.makedirs(path, exist_ok=True)
    if MANIFEST in names:
        os.remove(os.path.join(path, MANIFEST))
    for n, m in entries.items():
        if int(m[1]) not in base:
            shutil.rmtree(os.path.join(path, n))
    part_table = make_part_table()

    def write_block(batch: pd.DataFrame) -> pd.DataFrame:
        errors = []
        for p, b in zip(batch["path"], batch["bucket"]):
            try:
                cached(
                    os.path.dirname(_part_file(path, int(b))),
                    stat_files({p: p}),
                    lambda tmp: pq.write_table(part_table(p), os.path.join(tmp, "data.parquet")),
                )
                errors.append("")
            except Exception:
                # report after the map, so every other part is still published
                errors.append(traceback.format_exc())
        return pd.DataFrame({"bucket": batch["bucket"], "error": errors})

    # P write tasks, each returning one small row per file: bounded
    written = planned(map_files(base, write_block)).iter_rows()
    failed = [r for r in written if r["error"]]
    if failed:
        raise RuntimeError(
            f"store {path}: buckets {sorted(int(r['bucket']) for r in failed)} failed; "
            f"every other part is published. First failure:\n{failed[0]['error']}"
        )
    _write_manifest(path, fingerprint)
    return path
