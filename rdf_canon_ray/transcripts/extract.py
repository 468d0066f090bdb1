"""Mention detection, triple extraction and entity linking over transcript
batches — one kernel of each, shared by every flagship path.

* ``extract_mentions_arrow`` — role filter + RE2 mention detection over
  the ``text`` column; emits one mention row per detected pattern with a
  deterministic per-turn blank-node label ``t<idx>-<hash64(text)>`` (so
  duplicate turns collapse to the same turn node under RDF set
  semantics).
* ``EntityLinker`` — resolves mention surfaces to canonical entity IRIs
  against broadcast dimension arrays (``build_link_maps``; ``ray.put``
  once, deserialized once per worker process).  Ambiguous part names
  resolve deterministically to the MINIMUM matching ``p_partkey`` — the
  rule the DuckDB oracle reproduces.  Emits the flat quads table as
  Arrow (``_quads_arrow``, the flagship kernel's input), the triples,
  the entity-mention projection or a scored link table.

The quads table (``QUADS_SCHEMA``) is the one quad representation of
every Ray path: the flat 9-tuple term layout of
``rdf_canon_ray.core.terms`` plus a ``graph_id`` partition key.  The
linker's quads sit in the default graph (one RDF graph per
conversation, ``quad_rows``); the N-Quads source, conformance and the
stress corpora build theirs with ``quads_table``.  The pandas forms
(``extract_mentions_batch``, ``EntityLinker.__call__``) serve kgbench's
single-process replay.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..core.terms import BNODE, DEFAULT, IRI, LITERAL

REL = "urn:rel:"
ENT = "urn:e:"
XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"

RE_USER = re.compile(
    r"^Hello, I am (?P<cust>Customer#\d+)\. Please review order ord-(?P<okey>\d+) from (?P<date>\d{4}-\d{2}-\d{2})\.$"
)
RE_ASSISTANT = re.compile(
    r"^Order ord-(?P<okey>\d+) is (?P<status>\w+) at priority (?P<prio>.+?) with total (?P<total>[0-9.]+)\.$"
)
RE_ITEM = re.compile(
    r'^item (?P<ln>\d+): part "(?P<pname>[^"]+)" brand (?P<brand>\S+) from supplier "(?P<sname>[^"]+)" qty (?P<qty>\d+)$'
)

MENTION_COLS = ["conv_id", "turn_idx", "turn_label", "role", "mtype", "a", "b", "c", "d"]

# the transcript columns extraction reads (tool/ts never leave storage)
_EXTRACT_COLS = ["conv_id", "turn_idx", "role", "text"]


def extract_mentions_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """pandas-in, pandas-out entry over ``extract_mentions_arrow``, for
    kgbench's replay of the partitioned path."""
    table = pa.Table.from_pandas(batch[_EXTRACT_COLS], preserve_index=False)
    return extract_mentions_arrow(table).to_pandas()


# (role, RE2 pattern, mtype, struct fields, mention slots)
_ARROW_SPECS = [
    ("user", RE_USER.pattern, "order_open", ["cust", "okey"], ["a", "b"]),
    (
        "assistant",
        RE_ASSISTANT.pattern,
        "order_status",
        ["okey", "status", "prio"],
        ["a", "b", "c"],
    ),
    (
        "tool",
        RE_ITEM.pattern,
        "item",
        ["pname", "brand", "sname", "qty"],
        ["a", "b", "c", "d"],
    ),
]


_MENTION_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("turn_label", pa.string()),
        ("role", pa.string()),
        ("mtype", pa.string()),
        ("a", pa.string()),
        ("b", pa.string()),
        ("c", pa.string()),
        ("d", pa.string()),
    ]
)


def extract_mentions_arrow(batch) -> pa.Table:
    """Arrow-native mention extraction: role filter + RE2
    ``pc.extract_regex`` (C++ vectorized, ~3× pandas ``str.extract``);
    output stays an Arrow table end to end — only the text column
    crosses into pandas, for the stable label hash. Used with
    ``batch_format="pyarrow"``."""
    outs = []
    role_arr = batch["role"]
    for role, pattern, mtype, fields, slots in _ARROW_SPECS:
        sub = batch.filter(pc.equal(role_arr, role))
        if sub.num_rows == 0:
            continue
        ext = pc.extract_regex(sub["text"], pattern=pattern)
        valid = pc.is_valid(ext)
        if not pc.any(valid).as_py():
            continue
        sub = sub.filter(valid)
        ext = ext.filter(valid)
        n = sub.num_rows
        labels = turn_labels(
            sub["turn_idx"].to_pandas(), sub["text"].to_pandas()
        )
        cols = {
            "conv_id": pc.cast(sub["conv_id"], pa.string()),
            "turn_idx": pc.cast(sub["turn_idx"], pa.int32()),
            "turn_label": pa.array(labels, pa.string()),
            "role": pa.array([role] * n, pa.string()),
            "mtype": pa.array([mtype] * n, pa.string()),
        }
        for field, slot in zip(fields, slots):
            cols[slot] = pc.cast(pc.struct_field(ext, field), pa.string())
        for slot in ("a", "b", "c", "d"):
            if slot not in cols:
                cols[slot] = pa.array([""] * n, pa.string())
        outs.append(
            pa.table({name: cols[name] for name in MENTION_COLS})
        )
    if not outs:
        return _MENTION_SCHEMA.empty_table()
    return pa.concat_tables(
        [t.cast(_MENTION_SCHEMA) for t in outs]
    )


def turn_labels(turn_idx: pd.Series, text: pd.Series) -> pd.Series:
    """Deterministic per-turn bnode labels: t<idx>-<16-hex hash of text>.

    ``hash_pandas_object`` with the default fixed key is stable across
    processes and runs, so labels agree between workers."""
    h = pd.util.hash_pandas_object(text, index=False)
    return (
        "t"
        + turn_idx.astype(str).to_numpy(dtype=object)
        + "-"
        + np.char.mod("%016x", h.to_numpy())
    )


def build_link_maps(sf_dir: str) -> dict:
    """Dimension lookup arrays for entity linking (driver side,
    broadcast): resolved column → (surface keys, values), both Arrow.

    part resolution: ``"p_name|p_brand"`` → MIN(p_partkey); part names
    are intentionally ambiguous in the corpus, the min-key rule is the
    deterministic tie-break the oracle replicates.  ``part_cnt`` is the
    candidate-set size for the link score (1/n_candidates)."""
    import os

    import pyarrow.parquet as pq

    def read(table, cols):
        return pq.read_table(os.path.join(sf_dir, f"{table}.parquet"), columns=cols)

    def lookup(keys, vals):
        return (
            pc.cast(keys, pa.string()).combine_chunks(),
            pc.cast(vals, pa.int64()).combine_chunks(),
        )

    cust = read("customer", ["c_custkey", "c_name"])
    part = (
        read("part", ["p_partkey", "p_name", "p_brand"])
        .group_by(["p_name", "p_brand"])
        .aggregate([("p_partkey", "min"), ("p_partkey", "count")])
    )
    part_surface = pc.binary_join_element_wise(part["p_name"], part["p_brand"], "|")
    supp = read("supplier", ["s_suppkey", "s_name"])
    return {
        "cust_key": lookup(cust["c_name"], cust["c_custkey"]),
        "part_key": lookup(part_surface, part["p_partkey_min"]),
        "part_cnt": lookup(part_surface, part["p_partkey_count"]),
        "supp_key": lookup(supp["s_name"], supp["s_suppkey"]),
    }


_RESOLVED_COLS = ["cust_key", "part_key", "part_cnt", "supp_key"]


def resolve_mentions_partitioned(
    mentions_ds, sf_dir: str, num_buckets: int | None = None
):
    """Mentions + resolved entity keys via CO-PARTITIONED hash joins on
    the surface keys — the above-the-gate linker path where the
    dimension tables are too large to broadcast (``build_link_maps``
    reads every dimension row to the driver and ``ray.put``s the result;
    at 100 TB the customer/part/supplier dims stream instead).

    Semantics match the broadcast lookup arrays exactly: part surfaces
    resolve to MIN(p_partkey) per (p_name, p_brand) with the candidate
    count attached (one small grouped aggregate on the dim side);
    customer/supplier names are unique by construction, so a plain left
    join is the broadcast lookup.  Output: the mention rows plus nullable
    ``cust_key/part_key/part_cnt/supp_key`` columns (NaN = unresolved),
    which ``EntityLinker.resolve`` prefers over its lookup arrays."""
    import os

    import ray.data as rd

    from ..stages.joins import hash_join
    from ..stages.shuffle import grouped_agg
    from ..util import default_buckets

    nb = num_buckets or default_buckets()

    def pad(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        # float64 everywhere: the left joins NaN-pad unresolved keys, so
        # the key dtype would otherwise differ between blocks
        for c in _RESOLVED_COLS:
            out[c] = out[c].astype(np.float64) if c in out.columns else np.nan
        return out[MENTION_COLS + _RESOLVED_COLS]

    # one materialized pass: three filtered branches below would
    # otherwise re-run extraction once per reference
    ments = mentions_ds.materialize()

    def subset(mtype: str):
        def f(batch: pd.DataFrame) -> pd.DataFrame:
            return batch[batch["mtype"] == mtype]

        return ments.map_batches(f, batch_format="pandas", batch_size=32768)

    cust_dim = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name"],
    ).map_batches(
        lambda b: pd.DataFrame(
            {"a": b["c_name"], "cust_key": b["c_custkey"]}
        ),
        batch_format="pandas",
        batch_size=32768,
    )
    part_raw = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_name", "p_brand"],
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "a": b["p_name"],
                "b": b["p_brand"],
                "part_key": b["p_partkey"],
                "part_cnt": np.ones(len(b), np.int64),
            }
        ),
        batch_format="pandas",
        batch_size=32768,
    )
    part_dim = grouped_agg(
        part_raw, ["a", "b"], {"part_key": "min", "part_cnt": "sum"}, nb
    )
    supp_dim = rd.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_name"],
    ).map_batches(
        lambda b: pd.DataFrame(
            {"c": b["s_name"], "supp_key": b["s_suppkey"]}
        ),
        batch_format="pandas",
        batch_size=32768,
    )

    opened = hash_join(
        subset("order_open"), cust_dim, on="a", how="left", num_buckets=nb
    )
    items = hash_join(
        subset("item"), part_dim, on=["a", "b"], how="left", num_buckets=nb
    )
    items = hash_join(items, supp_dim, on="c", how="left", num_buckets=nb)
    status = subset("order_status")

    branches = [
        ds.map_batches(pad, batch_format="pandas", batch_size=32768)
        for ds in (opened, status, items)
    ]
    out = branches[0]
    for b in branches[1:]:
        out = out.union(b)
    return out


QUAD_COLS = ["graph_id", "s_kind", "s", "p", "o_kind", "o", "o_dt", "o_lang",
             "g_kind", "g"]
QUADS_SCHEMA = pa.schema(
    [(c, pa.uint8() if c.endswith("_kind") else pa.string()) for c in QUAD_COLS]
)


def quad_rows(graph_id, s_kind: int, s, p: str, o_kind: int, o, o_dt: str = ""):
    """``QUADS_SCHEMA`` rows in the default graph, one per ``graph_id``:
    ``s`` and ``o`` are Arrow columns or one string for every row; the
    rest is constant."""
    n = len(graph_id)

    def col(v, t=pa.string()):
        if isinstance(v, (pa.Array, pa.ChunkedArray)):
            return v
        return pa.repeat(pa.scalar(v, t), n)

    return pa.table(
        [graph_id, col(s_kind, pa.uint8()), col(s), col(p),
         col(o_kind, pa.uint8()), col(o), col(o_dt), col(""),
         col(DEFAULT, pa.uint8()), col("")],
        schema=QUADS_SCHEMA,
    )


def quads_table(pairs) -> pa.Table:
    """``QUADS_SCHEMA`` table of ``(graph_id, Quad)`` pairs, one row per
    pair in their order."""
    cols = list(zip(*((gid, *q) for gid, q in pairs))) or [()] * len(QUAD_COLS)
    return pa.table(
        [pa.array(c, t) for c, t in zip(cols, QUADS_SCHEMA.types)],
        schema=QUADS_SCHEMA,
    )


_TRIPLES_SCHEMA = pa.schema(
    [("conv_id", pa.string()), ("subj", pa.string()),
     ("pred", pa.string()), ("obj", pa.string())]
)
_MENTION_IRI_SCHEMA = pa.schema(
    [("conv_id", pa.string()), ("entity_iri", pa.string())]
)
_LINKS_SCHEMA = pa.schema(
    [("conv_id", pa.string()), ("surface", pa.string()),
     ("entity_iri", pa.string()), ("score", pa.float64())]
)


_SURFACE = {  # resolved column → the mention slots its surface joins
    "cust_key": ("a",),
    "part_key": ("a", "b"),
    "part_cnt": ("a", "b"),
    "supp_key": ("c",),
}


def _column(batch, name: str):
    """Column ``name`` of a pandas or Arrow batch as Arrow (NaN → null),
    or None when the batch has no such column."""
    if isinstance(batch, pd.DataFrame):
        if name not in batch.columns:
            return None
        return pa.array(batch[name], from_pandas=True)
    return batch[name] if name in batch.column_names else None


def _of_type(batch: pa.Table, mtype: str):
    """The ``mtype`` mention rows of ``batch``, or None if there are none."""
    mask = pc.equal(batch["mtype"], mtype)
    return batch.filter(mask) if pc.any(mask).as_py() else None


def _iri(prefix: str, keys) -> pa.Array:
    return pc.binary_join_element_wise(prefix, pc.cast(keys, pa.string()), "")


def _order_iris(batch: pa.Table):
    conv = pc.cast(batch["conv_id"], pa.string())
    okey = pc.replace_substring_regex(conv, pattern="^conv-", replacement="")
    return conv, _iri(ENT + "order:", okey)


class EntityLinker:
    """Mentions → quads, triples, entity mentions or scored links, all
    through one resolver (``resolve``).

    The ``*_arrow`` emitters take and return Arrow tables: ``_quads_arrow``
    feeds the bucket kernel (``stages.canonicalize``), the others the
    ``batch_format="pyarrow"`` link stages.  ``_quads`` (also
    ``__call__``) is ``_quads_arrow`` as pandas, for kgbench's replay
    (``iter_graph_tuples``)."""

    def __init__(self, maps_ref):
        self.maps = maps_ref if isinstance(maps_ref, dict) else ray.get(maps_ref)

    def resolve(self, batch, col: str):
        """``col`` (one of ``_RESOLVED_COLS``) for every row of the pandas
        or Arrow ``batch`` as int64, null = unresolved.

        A pre-resolved column wins when the batch carries one
        (``resolve_mentions_partitioned`` attached it via co-partitioned
        hash joins — the above-the-gate path where the dimension tables
        are too large to broadcast); otherwise the mention surface is
        looked up in the broadcast arrays (C++ ``index_in`` + ``take``)."""
        pre = _column(batch, col)
        if pre is not None:
            return pc.cast(pre, pa.int64())
        keys, vals = self.maps[col]
        surface = pc.binary_join_element_wise(
            *(_column(batch, c) for c in _SURFACE[col]), "|"
        )
        return pc.take(vals, pc.index_in(surface, value_set=keys))

    def _lookup(self, sub, col: str):
        """(found mask, resolved ``col`` of the found rows) for ``sub``."""
        keys = self.resolve(sub, col)
        found = pc.is_valid(keys)
        return found, keys.filter(found)

    def _quads_arrow(self, batch: pa.Table) -> pa.Table:
        """The flat quads table (``QUADS_SCHEMA``) of the mention rows:
        per row its turn node's role, idx literal and order mention, then
        per mention type the resolved entity edges and mentions, and the
        order's status and priority literals."""
        if batch.num_rows == 0:
            return QUADS_SCHEMA.empty_table()
        conv = pc.cast(batch["conv_id"], pa.string())
        # "conv-<k>" → "<k>"
        order_iri = _iri(ENT + "order:", pc.utf8_slice_codeunits(conv, 5))
        tl = batch["turn_label"]
        turns = pa.table({"conv": conv, "tl": tl, "order": order_iri})
        out = [
            # turn metadata: role + idx literal (idx drives the turn chain
            # of the conversation-structure quads)
            quad_rows(conv, BNODE, tl, REL + "role", LITERAL, batch["role"]),
            quad_rows(conv, BNODE, tl, REL + "idx", LITERAL,
                      pc.cast(batch["turn_idx"], pa.string()), XSD_INT),
            quad_rows(conv, BNODE, tl, REL + "mentions", IRI, order_iri),
        ]

        def link(sub, at, col, kind, pred):
            # order → entity edge plus the turn's mention of the entity
            found, keys = self._lookup(sub, col)
            at = at.filter(found)
            iris = _iri(ENT + kind, keys)
            out.append(quad_rows(at["conv"], IRI, at["order"], REL + pred, IRI, iris))
            out.append(quad_rows(at["conv"], BNODE, at["tl"], REL + "mentions", IRI, iris))

        mtype = batch["mtype"]
        sel = pc.equal(mtype, "order_open")
        if pc.any(sel).as_py():
            link(batch.filter(sel), turns.filter(sel), "cust_key", "cust:", "placedBy")

        sel = pc.equal(mtype, "order_status")
        if pc.any(sel).as_py():
            sub, at = batch.filter(sel), turns.filter(sel)
            out.append(quad_rows(at["conv"], IRI, at["order"], REL + "status",
                                 LITERAL, pc.cast(sub["b"], pa.string())))
            out.append(quad_rows(at["conv"], IRI, at["order"], REL + "priority",
                                 LITERAL, pc.cast(sub["c"], pa.string())))

        sel = pc.equal(mtype, "item")
        if pc.any(sel).as_py():
            sub, at = batch.filter(sel), turns.filter(sel)
            link(sub, at, "part_key", "part:", "hasPart")
            link(sub, at, "supp_key", "supp:", "suppliedBy")

        return pa.concat_tables(out)

    def _quads(self, batch) -> pd.DataFrame:
        if isinstance(batch, pd.DataFrame):
            batch = pa.Table.from_pandas(batch, preserve_index=False)
        return self._quads_arrow(batch).to_pandas()

    __call__ = _quads

    def _triples_arrow(self, batch: pa.Table) -> pa.Table:
        """IRI-subject triples only (conv_id, subj, pred, obj),
        per-batch distinct — skips the turn-node quad rows entirely
        (~3.5× fewer rows than the full quads table)."""
        if batch.num_rows == 0:
            return _TRIPLES_SCHEMA.empty_table()
        pieces = []

        def piece(conv_a, subj_a, pred, obj_a):
            n = len(obj_a)
            pieces.append(
                pa.table(
                    {
                        "conv_id": conv_a,
                        "subj": subj_a,
                        "pred": pa.array([pred] * n, pa.string()),
                        "obj": obj_a,
                    }
                ).cast(_TRIPLES_SCHEMA)
            )

        def link(sub, col, kind, pred):
            conv, order_iri = _order_iris(sub)
            found, keys = self._lookup(sub, col)
            piece(conv.filter(found), order_iri.filter(found), REL + pred,
                  _iri(ENT + kind, keys))

        sub = _of_type(batch, "order_open")
        if sub is not None:
            link(sub, "cust_key", "cust:", "placedBy")

        sub = _of_type(batch, "order_status")
        if sub is not None:
            conv, order_iri = _order_iris(sub)
            piece(conv, order_iri, REL + "status", pc.cast(sub["b"], pa.string()))
            piece(conv, order_iri, REL + "priority", pc.cast(sub["c"], pa.string()))

        sub = _of_type(batch, "item")
        if sub is not None:
            link(sub, "part_key", "part:", "hasPart")
            link(sub, "supp_key", "supp:", "suppliedBy")

        if not pieces:
            return _TRIPLES_SCHEMA.empty_table()
        out = pa.concat_tables(pieces)
        # per-batch DISTINCT (the combiner before the global shuffle)
        return out.group_by(_TRIPLES_SCHEMA.names).aggregate([])

    def _mention_rows_arrow(self, batch: pa.Table) -> pa.Table:
        """(conv_id, entity_iri) per entity mention — exactly the object
        multiset of the ``urn:rel:mentions`` quads, WITHOUT expanding the
        7-quad-per-row table first (the entity-aggregate queries only
        need this projection; ~3× less work and shuffle volume)."""
        if batch.num_rows == 0:
            return _MENTION_IRI_SCHEMA.empty_table()
        pieces = []

        def piece(conv_a, iri_a):
            pieces.append(
                pa.table({"conv_id": conv_a, "entity_iri": iri_a}).cast(
                    _MENTION_IRI_SCHEMA
                )
            )

        def link(sub, col, kind):
            conv = pc.cast(sub["conv_id"], pa.string())
            found, keys = self._lookup(sub, col)
            piece(conv.filter(found), _iri(ENT + kind, keys))

        piece(*_order_iris(batch))
        sub = _of_type(batch, "order_open")
        if sub is not None:
            link(sub, "cust_key", "cust:")
        sub = _of_type(batch, "item")
        if sub is not None:
            link(sub, "part_key", "part:")
            link(sub, "supp_key", "supp:")
        return pa.concat_tables(pieces)

    def _links_arrow(self, batch: pa.Table) -> pa.Table:
        """Scored link table: one row per entity mention surface with its
        resolved IRI and an ambiguity score = 1 / |candidate set|."""
        if batch.num_rows == 0:
            return _LINKS_SCHEMA.empty_table()
        pieces = []

        def link(sub, col, kind, surface, score=None):
            found, keys = self._lookup(sub, col)
            if score is None:
                score = pa.array(np.ones(sub.num_rows, np.float64))
            pieces.append(
                pa.table(
                    {
                        "conv_id": pc.cast(sub["conv_id"], pa.string()).filter(found),
                        "surface": pc.cast(surface, pa.string()).filter(found),
                        "entity_iri": _iri(ENT + kind, keys),
                        "score": pc.filter(score, found),
                    }
                ).cast(_LINKS_SCHEMA)
            )

        sub = _of_type(batch, "order_open")
        if sub is not None:
            link(sub, "cust_key", "cust:", sub["a"])

        sub = _of_type(batch, "item")
        if sub is not None:
            cnt = pc.cast(self.resolve(sub, "part_cnt"), pa.float64())
            link(sub, "part_key", "part:",
                 pc.binary_join_element_wise(sub["a"], sub["b"], "|"),
                 pc.divide(1.0, cnt))
            link(sub, "supp_key", "supp:", sub["c"])

        if not pieces:
            return _LINKS_SCHEMA.empty_table()
        return pa.concat_tables(pieces)
