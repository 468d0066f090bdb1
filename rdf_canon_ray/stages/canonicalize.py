"""Per-graph RDFC-1.0 canonicalization as a Ray Data grouped transform.

The unit of work is one conversation subgraph (``graph_id``); the RDFC-1.0
state is function-local per group, mirroring the reference's
per-invocation ``CanonicalizationState`` (`/root/reference/src/canon.rs:208`)
— two graphs never share issuer state, which is exactly why this operator
is embarrassingly parallel.

``canonicalize_graphs(quads_ds)`` hash-buckets the quads by ``graph_id``
and runs one bucketed exchange (``stages.shuffle.exchange_buckets``) —
the one all-to-all shuffle of the KG pipeline; ``exchange_conversations``
is the flagship's fused form of it: transcript rows cross the exchange
and ``canonicalize_transcripts`` (extract → link → RDFC-1.0) runs once
per block.  Graphs whose HNDQ cost exceeds the call limit are routed to
``status="quarantined"`` instead of failing the job (the reference's
``HndqCallLimitExceeded`` made recoverable,
`/root/reference/src/error.rs:14-15`).
"""

from __future__ import annotations

import json
from typing import Callable, Optional

import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..core.canon import (
    CanonicalizationError,
    HndqCallLimitExceeded,
    canonicalize_quads_with_map,
)
from ..core.terms import BNODE, DEFAULT, IRI, LITERAL
from ..transcripts.extract import EntityLinker, extract_mentions_arrow
from ..util import stage_instance

# canonical-graph row schema (canonicalize_one's dict): declared
# explicitly so empty buckets never infer null-typed columns
_GRAPH_SCHEMA = pa.schema(
    [
        ("graph_id", pa.string()),
        ("canon_nquads", pa.string()),
        ("label_map", pa.string()),
        ("n_quads", pa.int64()),
        ("n_bnodes", pa.int64()),
        ("status", pa.string()),
        ("error", pa.string()),
    ]
)

REL_IDX = "urn:rel:idx"
REL_NEXT = "urn:rel:next"
REL_PART_OF = "urn:rel:partOf"
REL_IN_CONV = "urn:rel:inConversation"
SESSION_LABEL = "session"


def iter_graph_tuples(df: pd.DataFrame):
    """Yield ``(graph_id, quad_tuples)`` per graph from a flat quads
    DataFrame — column arrays are materialized ONCE for the whole frame
    and sliced per graph (pandas per-group ``__getitem__`` was ~36% of
    kernel wall time)."""
    import numpy as np

    if len(df) == 0:
        return
    order = np.argsort(df["graph_id"].to_numpy(), kind="stable")
    gids = df["graph_id"].to_numpy()[order]
    has_g = "g_kind" in df.columns
    names = ["s_kind", "s", "p", "o_kind", "o", "o_dt", "o_lang"]
    if has_g:
        names += ["g_kind", "g"]
    cols = [df[c].to_numpy()[order] for c in names]
    bounds = np.flatnonzero(gids[1:] != gids[:-1]) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(gids)]])
    for a, b in zip(starts, ends):
        if has_g:
            tuples = [
                (int(sk), s, p, int(ok), o, dt or "", lang or "", int(gk), g or "")
                for sk, s, p, ok, o, dt, lang, gk, g in zip(
                    *(c[a:b] for c in cols)
                )
            ]
        else:
            tuples = [
                (int(sk), s, p, int(ok), o, dt or "", lang or "", DEFAULT, "")
                for sk, s, p, ok, o, dt, lang in zip(*(c[a:b] for c in cols))
            ]
        yield gids[a], tuples


def add_structure_quads(quads: list, conv_id: str) -> list:
    """Conversation-structure quads built once the group is assembled:
    session hub + stable turn chain.

    Turn nodes are ordered by ``(idx, label)`` — the stable turn ordering
    of the assembly invariant (ties broken by the text-hash label, and
    duplicate turns have already collapsed to one node under set
    semantics).
    """
    turns = sorted(
        {
            (int(q[4]), q[1])
            for q in quads
            if q[2] == REL_IDX and q[0] == BNODE and q[3] == LITERAL
        }
    )
    conv_iri = "urn:conv:" + conv_id
    extra = [
        (BNODE, SESSION_LABEL, REL_IN_CONV, IRI, conv_iri, "", "", DEFAULT, "")
    ]
    for _idx, label in turns:
        extra.append(
            (BNODE, label, REL_PART_OF, BNODE, SESSION_LABEL, "", "", DEFAULT, "")
        )
    for (_, a), (_, b) in zip(turns, turns[1:]):
        extra.append((BNODE, a, REL_NEXT, BNODE, b, "", "", DEFAULT, ""))
    return quads + extra


def canonicalize_one(
    graph_id: str,
    quads: list,
    hash_name: str = "sha256",
    hndq_call_limit: Optional[int] = None,
    structure: bool = False,
) -> dict:
    """Canonicalize one subgraph → one result row (dict).

    ``structure=True`` adds the KG conversation-structure quads (session
    hub + turn chain) before canonicalization; generic RDF datasets pass
    ``False`` and are canonicalized exactly as given.  ``quads`` is a
    list of core 9-tuples (``iter_graph_tuples``)."""
    if structure:
        quads = add_structure_quads(quads, graph_id)
    n_bnodes = len(
        {q[1] for q in quads if q[0] == BNODE}
        | {q[4] for q in quads if q[3] == BNODE}
        | {q[8] for q in quads if q[7] == BNODE}  # bnode graph names
    )
    try:
        doc, label_map = canonicalize_quads_with_map(
            quads, hash_name=hash_name, hndq_call_limit=hndq_call_limit
        )
        status, err = "ok", ""
    except HndqCallLimitExceeded as e:
        doc, label_map, status, err = "", {}, "quarantined", str(e)
    except CanonicalizationError as e:  # pragma: no cover - defensive
        doc, label_map, status, err = "", {}, "error", str(e)
    return {
        "graph_id": graph_id,
        "canon_nquads": doc,
        "label_map": json.dumps(label_map, sort_keys=True),
        "n_quads": len(quads),
        "n_bnodes": n_bnodes,
        "status": status,
        "error": err,
    }


def canonicalize_graphs(
    quads_ds: rd.Dataset,
    hash_name: str = "sha256",
    hndq_call_limit: Optional[int] = None,
    num_buckets: int = 64,
    structure: bool = False,
) -> rd.Dataset:
    """Generic per-graph RDFC-1.0 canonicalization shuffle.

    Graphs are hash-bucketed (``num_buckets`` ≈ 4× total cores at scale)
    and exchanged into one block per core (``bucketed_map_groups``);
    each bucket's graphs go to the RDFC-1.0 kernel one by one
    (``iter_graph_tuples``).  Skewed/poisoned graphs are bounded by
    ``hndq_call_limit`` and land in the quarantine status instead of
    stalling the stage.
    """
    from .shuffle import bucketed_map_groups

    def run_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        rows = [
            canonicalize_one(gid, tuples, hash_name, hndq_call_limit, structure)
            for gid, tuples in iter_graph_tuples(bucket)
        ]
        return pd.DataFrame(rows)

    return bucketed_map_groups(
        quads_ds, ["graph_id"], run_bucket, num_buckets=num_buckets
    )


def canonicalize_bucket(
    mentions: pd.DataFrame,
    maps_ref,
    hash_name: str = "sha256",
    hndq_call_limit: Optional[int] = None,
) -> pa.Table:
    """Mentions holding whole conversations → link → per-graph 9-tuples
    → RDFC-1.0 (with the conversation-structure quads) → one row per
    graph.  Fed by ``canonicalize_transcripts`` on every
    transcript-fed path, and directly by the partitioned-linker
    exchange, whose mentions carry pre-resolved keys.

    Output is an ARROW table with ``_GRAPH_SCHEMA``: the canonical
    documents are ~0.5 GB of strings at sf0.1 — Arrow blocks store and
    ship them zero-copy through the object store, where pandas object
    columns would pickle (measured ~0.7 s off the sf0.1 headline)."""
    quads = stage_instance(EntityLinker, maps_ref=maps_ref)(mentions)
    rows = [
        canonicalize_one(gid, tuples, hash_name, hndq_call_limit, structure=True)
        for gid, tuples in iter_graph_tuples(quads)
    ]
    return pa.table(
        {c: [r[c] for r in rows] for c in _GRAPH_SCHEMA.names},
        schema=_GRAPH_SCHEMA,
    )


def canonicalize_transcripts(
    transcripts: pa.Table,
    maps_ref,
    hash_name: str = "sha256",
    hndq_call_limit: Optional[int] = None,
) -> pa.Table:
    """The flagship kernel call, shared by every transcript-fed path
    (the shuffle's bucket blocks, the partitioned part tasks, the store
    build, the incremental delta and the resumable buckets): Arrow
    transcript rows holding whole conversations →
    ``extract_mentions_arrow`` → ``canonicalize_bucket`` →
    ``_GRAPH_SCHEMA`` rows.  Extraction runs here, inside the parallel
    kernel tasks, where the data crosses into Python anyway."""
    mentions = extract_mentions_arrow(transcripts).to_pandas()
    return canonicalize_bucket(mentions, maps_ref, hash_name, hndq_call_limit)


def exchange_conversations(
    ds: rd.Dataset,
    kernel: Callable[[pa.Table], pa.Table],
    num_buckets: int,
) -> rd.Dataset:
    """The shuffle flagship's exchange: rows keyed by ``conv_id``
    (transcript rows, or resolved mentions on the partitioned-linker
    path) are bucketed by conversation and exchanged into one block per
    core, and ``kernel`` runs ONCE per Arrow block over all of its
    conversations.  A conversation never straddles a block, so the
    kernel's per-call fixed cost (linker frame builds, Arrow out) is
    paid per core, not per bucket.

    On the broadcast-linker path the exchange carries transcript rows
    (``_EXTRACT_COLS`` only): the same bytes as the mentions extracted
    from them (kgbench, 3000 conversations: 1.97 MB of transcript rows
    against 2.02 MB of mentions), and extraction moves into the
    parallel block tasks.  Link maps are broadcast (``ray.put``) and
    deserialized once per worker process (``util.stage_instance``)."""
    from .shuffle import exchange_buckets, with_buckets

    def run_block(block: pa.Table) -> pa.Table:
        if block.num_rows == 0:
            return _GRAPH_SCHEMA.empty_table()
        return kernel(block)

    bucketed = with_buckets(ds, ["conv_id"], num_buckets)
    return exchange_buckets(bucketed, num_buckets).map_batches(
        run_block, batch_format="pyarrow", batch_size=None
    )
