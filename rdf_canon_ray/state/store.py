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
* The manifest name starts with ``_``: Arrow and Ray Data parquet reads
  skip ``_``-prefixed files, so ``read_parquet(path)`` over a store
  never sees it.

One driver owns a path at a time; concurrent builders of the same path
are not coordinated (the last swap wins).
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Callable, Optional

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
