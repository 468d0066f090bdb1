"""N-Quads ⇄ Ray Data: distributed reader and canonical writer.

The reference delegates N-Quads I/O to oxttl in its tests; here it is a
first-class source/sink (SURVEY.md §2.4 "Sources / sinks").

Reader: ``read_text`` (streaming, line-splittable) → vectorized parse in
``map_batches`` → ``QUADS_SCHEMA`` table (``graph_id`` = serialized graph
term, "" for the default graph).

Writer: canonical corpus emission must not depend on Ray's
nondeterministic block order, so the graphs are sorted by ``graph_id``
(range shuffle) and each block writes one text part file named by its
first/last graph id.  ``_index.json`` is the authoritative part order
(file-name order matches it except for keys sharing a 48-byte prefix —
see ``_part_name``).
"""

from __future__ import annotations

import os
from typing import List, Optional

import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..core import nquads as nq
from ..core.terms import DEFAULT, IRI
from ..state import metrics
from ..transcripts.extract import quads_table


def _parse_batch(batch: pa.Table, lenient: bool = False) -> pa.Table:
    pairs = []
    n_bad = 0
    for line in batch["text"].to_pylist():
        if lenient:
            try:
                q = nq.parse_line(line)
            except ValueError:
                n_bad += 1
                continue
        else:
            q = nq.parse_line(line)
        if q is None:
            continue
        g_kind, g = q[7], q[8]
        if g_kind == DEFAULT:
            gid = ""
        elif g_kind == IRI:
            gid = "<" + g + ">"
        else:
            gid = "_:" + g
        pairs.append((gid, q))
    if n_bad:
        metrics.incr("nquads_malformed_lines", n_bad)
    return quads_table(pairs)


def _parse_batch_lenient(batch: pa.Table) -> pa.Table:
    return _parse_batch(batch, lenient=True)


def read_nquads(paths: str | List[str], lenient: bool = False) -> rd.Dataset:
    """N-Quads file(s) → ``QUADS_SCHEMA`` Dataset.

    ``lenient=True`` is the dirty-ingest mode a web-scale crawl needs:
    malformed statement lines are SKIPPED and counted on the metrics
    actor (``nquads_malformed_lines``) instead of failing the read —
    strict mode (the default, matching the reference CLI's error
    behavior) raises on the first bad line."""
    return rd.read_text(paths).map_batches(
        _parse_batch_lenient if lenient else _parse_batch,
        batch_format="pyarrow",
        batch_size=65536,
    )


def _part_name(first: str, last: str) -> str:
    """Collision-safe part filename: lowercase-hex of the first key's
    UTF-8 bytes (byte order == hex order) truncated to a filesystem-safe
    length, plus a 64-bit hash of the raw first/last keys so distinct
    blocks cannot share a name.

    ORDERING CONTRACT: ``_index.json`` is the sole authoritative part
    order.  Lexicographic listing of part names is best-effort only —
    two blocks whose first keys share a 48-byte prefix order by the
    hash tag, not by key — so consumers must read the manifest (as
    ``read_canonical_nquads`` does) rather than sort the directory."""
    import hashlib

    prefix = first.encode("utf-8").hex()[:96]
    tag = hashlib.md5(
        first.encode("utf-8") + b"\x00" + last.encode("utf-8")
    ).hexdigest()[:16]
    return f"part-{prefix}-{tag}.nq"


def write_canonical_nquads(
    graphs_ds: rd.Dataset,
    out_dir: str,
    doc_column: str = "canon_nquads",
    key_column: str = "graph_id",
) -> List[str]:
    """Canonical-graphs table → ordered text part files under ``out_dir``.

    Deterministic layout regardless of block order: global sort on the
    graph key, then each block writes one part file named by the
    collision-safe hex encoding of its first key suffixed with a hash of
    the raw first/last keys (see ``_part_name``).  The ``_index.json``
    manifest records the AUTHORITATIVE part order; the returned list is
    in corpus order and consumers must follow the manifest rather than
    directory listing order."""
    import json

    os.makedirs(out_dir, exist_ok=True)

    def write_block(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame({"path": [], "rows": [], "first_key": []})
        first = str(batch[key_column].iloc[0])
        last = str(batch[key_column].iloc[-1])
        path = os.path.join(out_dir, _part_name(first, last))
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            for doc in batch[doc_column]:
                f.write(doc)
        os.replace(tmp, path)
        return pd.DataFrame(
            {"path": [path], "rows": [len(batch)], "first_key": [first]}
        )

    parts = (
        graphs_ds.sort(key_column)
        .map_batches(write_block, batch_format="pandas")
        .to_pandas()
        .sort_values("first_key")  # authoritative order: the key itself
    )
    ordered = parts["path"].tolist()
    with open(os.path.join(out_dir, "_index.json"), "w") as f:
        json.dump({"parts": [os.path.basename(p) for p in ordered]}, f)
    return ordered
