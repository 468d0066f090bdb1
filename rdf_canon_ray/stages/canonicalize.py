"""Per-graph RDFC-1.0 canonicalization as a Ray Data grouped transform.

The unit of work is one subgraph (``graph_id``: a conversation on the
KG paths, a dataset or named graph on the generic ones); the RDFC-1.0
state is function-local per graph, mirroring the reference's
per-invocation ``CanonicalizationState`` (`/root/reference/src/canon.rs:208`)
— two graphs never share issuer state, which is exactly why this operator
is embarrassingly parallel.

Every Ray path reaches RDFC-1.0 through ONE kernel over ONE quad
representation: ``canonicalize_quads`` takes a ``QUADS_SCHEMA`` Arrow
table, renders it to serialization templates per distinct string
(``_template_columns``: IRIs, literals and graph names) and hands each
graph's template slice to ``core.canon.canonicalize_templates``, so the
data stays columnar until that one crossing into Python.  The KG paths
wrap it (``canonicalize_linked``) to add the conversation-structure
quads, built columnar from the ``idx`` rows (``structure_quads``).

``exchange_conversations`` is the one exchange: rows are bucketed by a
key and exchanged into one block per core, and a kernel runs once per
block.  ``canonicalize_graphs`` runs the generic kernel on it keyed by
``graph_id`` (N-Quads corpora, conformance, the HNDQ stress corpus);
the flagship runs ``canonicalize_transcripts`` (extract → link →
RDFC-1.0) keyed by ``conv_id``.  Graphs whose HNDQ cost exceeds the
call limit are routed to ``status="quarantined"`` instead of failing
the job (the reference's ``HndqCallLimitExceeded`` made recoverable,
`/root/reference/src/error.rs:14-15`).

``iter_graph_tuples`` and ``add_structure_quads`` are the 9-tuple forms
of the same steps, kept for kgbench's single-process replay and as the
tests' reference.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..core.canon import (
    CanonicalizationError,
    HndqCallLimitExceeded,
    canonicalize_templates,
)
from ..core.terms import BNODE, DEFAULT, IRI, LITERAL, term_to_string
from ..transcripts.extract import (
    EntityLinker,
    extract_mentions_arrow,
    quad_rows,
)
from ..util import stage_instance

# canonical-graph row schema (``_graph_row``'s dict): declared
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
    DataFrame (``QUADS_SCHEMA`` columns) — column arrays are
    materialized ONCE for the whole frame and sliced per graph.  Kept
    for kgbench's replay and as the tests' reference; every Ray path
    renders templates columnar (``canonicalize_quads``)."""
    if len(df) == 0:
        return
    order = np.argsort(df["graph_id"].to_numpy(), kind="stable")
    gids = df["graph_id"].to_numpy()[order]
    names = ["s_kind", "s", "p", "o_kind", "o", "o_dt", "o_lang", "g_kind", "g"]
    cols = [df[c].to_numpy()[order] for c in names]
    bounds = np.flatnonzero(gids[1:] != gids[:-1]) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(gids)]])
    for a, b in zip(starts, ends):
        tuples = [
            (int(sk), s, p, int(ok), o, dt or "", lang or "", int(gk), g or "")
            for sk, s, p, ok, o, dt, lang, gk, g in zip(*(c[a:b] for c in cols))
        ]
        yield gids[a], tuples


def add_structure_quads(quads: list, conv_id: str) -> list:
    """Conversation-structure quads built once the group is assembled:
    session hub + stable turn chain.

    Turn nodes are ordered by ``(idx, label)`` — the stable turn ordering
    of the assembly invariant (ties broken by the text-hash label, and
    duplicate turns have already collapsed to one node under set
    semantics).  ``structure_quads`` builds the same quads columnar for
    every Ray path; this 9-tuple form is kept for kgbench's replay and
    as the tests' reference.
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


def _graph_row(
    graph_id: str,
    templates: list,
    hash_name: str,
    hndq_call_limit: Optional[int],
) -> dict:
    """One graph's serialization templates → its ``_GRAPH_SCHEMA`` row.
    ``n_quads`` counts the templates before dedup; ``n_bnodes`` is the
    size of the label map, or of the blank node set when the graph is
    quarantined."""
    try:
        doc, label_map = canonicalize_templates(
            templates, hash_name=hash_name, hndq_call_limit=hndq_call_limit
        )
        status, err = "ok", ""
    except HndqCallLimitExceeded as e:
        doc, label_map, status, err = "", {}, "quarantined", str(e)
    except CanonicalizationError as e:  # pragma: no cover - defensive
        doc, label_map, status, err = "", {}, "error", str(e)
    if status == "ok":
        n_bnodes = len(label_map)
    else:  # a None static is a bnode slot
        n_bnodes = len(
            {t[1] for t in templates if t[0] is None}
            | {t[4] for t in templates if t[3] is None}
            | {t[6] for t in templates if t[5] is None}
        )
    return {
        "graph_id": graph_id,
        "canon_nquads": doc,
        "label_map": json.dumps(label_map, sort_keys=True),
        "n_quads": len(templates),
        "n_bnodes": n_bnodes,
        "status": status,
        "error": err,
    }


def canonicalize_graphs(
    quads_ds: rd.Dataset,
    hash_name: str = "sha256",
    hndq_call_limit: Optional[int] = None,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Generic per-graph RDFC-1.0 canonicalization of a ``QUADS_SCHEMA``
    dataset: graphs are hash-bucketed by ``graph_id`` (``num_buckets``
    ≈ 4× total cores at scale) and exchanged into one block per core
    (``exchange_conversations``), and ``canonicalize_quads`` runs once
    per block.  Graphs are canonicalized exactly as given (named graphs
    honored, no structure quads).  Skewed/poisoned graphs are bounded by
    ``hndq_call_limit`` and land in the quarantine status instead of
    stalling the stage."""

    def kernel(block: pa.Table) -> pa.Table:
        return canonicalize_quads(block, hash_name, hndq_call_limit)

    return exchange_conversations(quads_ds, "graph_id", kernel, num_buckets)


def structure_quads(quads: pa.Table) -> pa.Table:
    """``add_structure_quads`` for every graph of a ``QUADS_SCHEMA``
    table at once, columnar: per graph the session hub, then a
    ``partOf`` edge per distinct turn and the ``next`` chain, turns
    ordered by ``(idx, label)`` (the ``idx`` rows' integer object, then
    their subject label)."""
    idx = quads.filter(pc.equal(quads["p"], REL_IDX))
    turns = (
        pa.table({"g": idx["graph_id"], "idx": pc.cast(idx["o"], pa.int64()),
                  "label": idx["s"]})
        .group_by(["g", "idx", "label"])
        .aggregate([])
        .sort_by([("g", "ascending"), ("idx", "ascending"), ("label", "ascending")])
    )
    gids = pc.unique(quads["graph_id"])
    out = [
        quad_rows(gids, BNODE, SESSION_LABEL, REL_IN_CONV, IRI,
                  pc.binary_join_element_wise("urn:conv:", gids, "")),
        quad_rows(turns["g"], BNODE, turns["label"], REL_PART_OF, BNODE,
                  SESSION_LABEL),
    ]
    if turns.num_rows > 1:
        a, b = turns.slice(0, turns.num_rows - 1), turns.slice(1)
        same = pc.equal(a["g"], b["g"])
        out.append(quad_rows(a["g"].filter(same), BNODE, a["label"].filter(same),
                             REL_NEXT, BNODE, b["label"].filter(same)))
    return pa.concat_tables(out)


def _codes(col, order=None) -> tuple:
    """(row codes as numpy, Arrow dictionary) of a string column, the
    codes taken in ``order`` when given."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = pc.dictionary_encode(col)
    codes = enc.indices.to_numpy().astype(np.int64)
    return (codes if order is None else codes[order]), enc.dictionary


def _objects(values: pa.Array) -> np.ndarray:
    return values.to_numpy(zero_copy_only=False)


def _wrap(values: pa.Array, left: str, right: str) -> np.ndarray:
    return _objects(pc.binary_join_element_wise(left, values, right, ""))


def _literals(
    quads: pa.Table, order: np.ndarray, rows: np.ndarray, o: np.ndarray, o_values
) -> np.ndarray:
    """``term_to_string`` once per distinct ``(o, o_dt, o_lang)`` of the
    literal ``rows`` (positions in ``order``; their ``o`` codes are
    ``o``), one entry per row."""
    dt, dt_values = _codes(quads["o_dt"], order)
    lang, lang_values = _codes(quads["o_lang"], order)
    pair = np.unique(dt[rows] * len(lang_values) + lang[rows], return_inverse=True)[1]
    _, first, back = np.unique(
        o * (int(pair.max()) + 1) + pair, return_index=True, return_inverse=True
    )
    at = rows[first]
    dt_obj, lang_obj = _objects(dt_values), _objects(lang_values)
    rendered = np.empty(len(at), dtype=object)
    rendered[:] = [
        term_to_string(LITERAL, v, d, g)
        for v, d, g in zip(o_values[o[first]], dt_obj[dt[at]], lang_obj[lang[at]])
    ]
    return rendered[back]


def _graph_names(quads: pa.Table, order: np.ndarray) -> tuple:
    """The graph-slot template parts ``(g_static, g)`` of every row in
    ``order``: rendered once per distinct ``(g_kind, g)`` ("" for the
    default graph, `` <g>`` for an IRI, None for a bnode slot)."""
    g, g_values = _codes(quads["g"], order)
    g_kind = quads["g_kind"].to_numpy()[order]
    _, first, back = np.unique(g * 4 + g_kind, return_index=True, return_inverse=True)
    names = _objects(g_values)[g[first]]
    rendered = np.empty(len(first), dtype=object)
    rendered[:] = [
        "" if k == DEFAULT else " <" + v + ">" if k == IRI else None
        for k, v in zip(g_kind[first], names)
    ]
    return rendered[back], names[back]


def _template_columns(quads: pa.Table) -> tuple:
    """The serialization templates of a ``QUADS_SCHEMA`` table
    (non-null columns) as numpy object columns ``s_static, s, mid,
    o_static, o, g_static, g`` (``core.canon._quad_template``; a None
    static is a bnode slot), rows sorted stably by ``graph_id``, plus
    the sorted graph ids and each row's graph number.

    Each string column crosses once per DISTINCT value: it is
    dictionary-encoded, IRI brackets and predicates are rendered over
    the dictionary with Arrow concatenation, literals with
    ``term_to_string`` and graph names per distinct ``(g_kind, g)``,
    and rows take their objects from it, so equal strings are one
    Python object (its hash is computed once).  The integer codes and
    kinds are put in graph order first, so each object column is
    gathered once."""
    g, g_values = _codes(quads["graph_id"])
    by_name = pc.sort_indices(g_values)
    rank = np.empty(len(g_values), np.int64)
    rank[by_name.to_numpy()] = np.arange(len(g_values))
    key = rank[g]
    order = np.argsort(key, kind="stable")
    s, s_values = _codes(quads["s"], order)
    p, p_values = _codes(quads["p"], order)
    o, o_values = _codes(quads["o"], order)
    o_obj = _objects(o_values)
    o_kind = quads["o_kind"].to_numpy()[order]
    s_iri = quads["s_kind"].to_numpy()[order] == IRI
    s_st = np.where(s_iri, _wrap(s_values, "<", ">")[s], None)
    o_st = np.where(o_kind == IRI, _wrap(o_values, "<", ">")[o], None)
    lit = np.flatnonzero(o_kind == LITERAL)
    if len(lit):
        o_st[lit] = _literals(quads, order, lit, o[lit], o_obj)
    cols = [s_st, _objects(s_values)[s], _wrap(p_values, " <", "> ")[p], o_st, o_obj[o],
            *_graph_names(quads, order)]
    return _objects(g_values.take(by_name)), key[order], cols


def canonicalize_quads(
    quads: pa.Table,
    hash_name: str = "sha256",
    hndq_call_limit: Optional[int] = None,
) -> pa.Table:
    """The one kernel of every Ray path: a ``QUADS_SCHEMA`` table →
    serialization templates (``_template_columns``) → the template
    kernel (``core.canon.canonicalize_templates``) on each graph's
    slice → ``_GRAPH_SCHEMA`` rows in ``graph_id`` order."""
    if quads.num_rows == 0:
        return _GRAPH_SCHEMA.empty_table()
    gids, key, cols = _template_columns(quads)
    bounds = np.flatnonzero(key[1:] != key[:-1]) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(key)]])
    rows = [
        _graph_row(gid, list(zip(*(c[a:b] for c in cols))), hash_name, hndq_call_limit)
        for gid, a, b in zip(gids, starts, ends)
    ]
    return pa.table(
        {c: [r[c] for r in rows] for c in _GRAPH_SCHEMA.names},
        schema=_GRAPH_SCHEMA,
    )


def canonicalize_linked(
    quads: pa.Table,
    hash_name: str = "sha256",
    hndq_call_limit: Optional[int] = None,
) -> pa.Table:
    """The KG wrapper of ``canonicalize_quads``: a table of conversation
    quads (``EntityLinker._quads_arrow``, or the skewed corpus's turn
    quads) plus their conversation-structure quads
    (``structure_quads``) → ``_GRAPH_SCHEMA`` rows."""
    return canonicalize_quads(
        pa.concat_tables([quads, structure_quads(quads)]), hash_name, hndq_call_limit
    )


def canonicalize_bucket(
    mentions,
    maps_ref,
    hash_name: str = "sha256",
    hndq_call_limit: Optional[int] = None,
) -> pa.Table:
    """Arrow mentions holding whole conversations → link
    (``EntityLinker._quads_arrow``) → ``canonicalize_linked`` → one row
    per graph.  Fed by ``canonicalize_transcripts`` on every
    transcript-fed path, and directly by the partitioned-linker
    exchange, whose mentions carry pre-resolved keys.

    Output is an ARROW table with ``_GRAPH_SCHEMA``: the canonical
    documents are ~0.5 GB of strings at sf0.1 — Arrow blocks store and
    ship them zero-copy through the object store, where pandas object
    columns would pickle (measured ~0.7 s off the sf0.1 headline)."""
    linker = stage_instance(EntityLinker, maps_ref=maps_ref)
    return canonicalize_linked(linker._quads_arrow(mentions), hash_name, hndq_call_limit)


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
    return canonicalize_bucket(
        extract_mentions_arrow(transcripts), maps_ref, hash_name, hndq_call_limit
    )


def exchange_conversations(
    ds: rd.Dataset,
    key: str,
    kernel: Callable[[pa.Table], pa.Table],
    num_buckets: int,
) -> rd.Dataset:
    """The one canonicalization exchange: rows are bucketed by ``key``
    (``conv_id`` on the flagship: transcript rows, or resolved mentions
    on the partitioned-linker path; ``graph_id`` for quads tables) and
    exchanged into one block per core, and ``kernel`` runs ONCE per
    Arrow block over all of its graphs.  A graph never straddles a
    block, so the kernel's per-call fixed cost (linker frame builds,
    Arrow out) is paid per core, not per bucket.

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
        return kernel(block.drop_columns(["_bucket"]))

    bucketed = with_buckets(ds, [key], num_buckets)
    return exchange_buckets(bucketed, num_buckets).map_batches(
        run_block, batch_format="pyarrow", batch_size=None
    )
