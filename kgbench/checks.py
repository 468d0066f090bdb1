"""Output checks that do not trust the program: expected graph sizes are
derived from the base tables with DuckDB, canonical documents are
compared across paths by digest, and a seeded sample must be a fixed
point of parse → canonicalize."""

from __future__ import annotations

import hashlib
import random

# quads = 14 + 7·lineitems + 2·distinct tool texts and
# bnodes = 3 + distinct tool texts per conversation (the formulas behind
# kg.canonical_sizes); a tool text is determined by
# (line number, part name, brand, supplier name, integer quantity)
_SIZES_SQL = """
WITH per_order AS (
  SELECT l_orderkey AS okey, COUNT(*) AS L,
         COUNT(DISTINCT (l_linenumber, p_name, p_brand, s_name,
                         CAST(l_quantity AS BIGINT))) AS d
  FROM read_parquet('{sf}/lineitem.parquet') l
  JOIN read_parquet('{sf}/part.parquet') p ON l_partkey = p_partkey
  JOIN read_parquet('{sf}/supplier.parquet') s ON l_suppkey = s_suppkey
  GROUP BY 1
)
SELECT 'conv-' || o_orderkey AS graph_id,
       14 + 7 * COALESCE(L, 0) + 2 * COALESCE(d, 0) AS n_quads,
       3 + COALESCE(d, 0) AS n_bnodes
FROM read_parquet('{sf}/orders.parquet') o LEFT JOIN per_order ON o_orderkey = okey
"""


def derived_sizes(sf_dir: str) -> dict:
    """graph_id → (n_quads, n_bnodes) from the base tables."""
    import duckdb

    con = duckdb.connect()
    try:
        rows = con.execute(_SIZES_SQL.format(sf=sf_dir)).fetchall()
    finally:
        con.close()
    return {g: (int(q), int(b)) for g, q, b in rows}


def doc_hash(doc: str) -> str:
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def graph_rows(table) -> dict:
    """graph_id → row dict of an output table; duplicated ids map to
    ``None`` so they count as failures."""
    cols = [c for c in ("graph_id", "canon_nquads", "n_quads", "n_bnodes", "status")
            if c in table.column_names]
    out: dict = {}
    for row in table.select(cols).to_pylist():
        gid = row["graph_id"]
        out[gid] = None if gid in out else row
    return out


def failed_graphs(rows: dict, expected: dict) -> set:
    """Graph ids that are missing, duplicated, unexpected, of the wrong
    size, or not canonicalized (no poison is planted in the corpus, so
    a quarantined graph fails too)."""
    bad = {g for g in expected if rows.get(g) is None}
    bad |= set(rows) - set(expected)
    for gid, row in rows.items():
        if row is None or gid not in expected:
            continue
        if (row["n_quads"], row["n_bnodes"]) != expected[gid]:
            bad.add(gid)
        if row["status"] != "ok":
            bad.add(gid)
        elif "canon_nquads" in row and not row["canon_nquads"]:
            bad.add(gid)
    return bad


def doc_hashes(rows: dict) -> dict:
    return {g: doc_hash(r["canon_nquads"]) for g, r in rows.items() if r is not None}


def digest(hashes: dict) -> str:
    """One digest over sorted (graph_id, sha256 of the document)."""
    h = hashlib.sha256()
    for gid in sorted(hashes):
        h.update(f"{gid}\t{hashes[gid]}\n".encode())
    return h.hexdigest()


def mismatched(a: dict, b: dict, ids=None) -> set:
    """Ids (default: union of both) whose document hashes differ."""
    ids = set(a) | set(b) if ids is None else ids
    return {g for g in ids if a.get(g) != b.get(g)}


def fixed_point_failures(docs: dict, seed: int, k: int = 32) -> set:
    """On a seeded sample of canonical documents, ids for which
    canonicalize(parse(doc)) != doc."""
    from rdf_canon_ray.core import canonicalize, nquads

    ids = sorted(g for g, d in docs.items() if d)
    sample = random.Random(seed).sample(ids, min(k, len(ids)))
    return {g for g in sample if canonicalize(nquads.parse(docs[g])) != docs[g]}

