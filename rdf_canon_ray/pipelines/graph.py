"""Graph analytics over the extracted knowledge graph.

The KG side of the engine (``pipelines.kg``) stops at canonicalization
and per-entity counts; this module adds the classic downstream step a
KG-construction pipeline feeds: link-analysis over the entity
co-mention graph.

* ``comention_edges`` — undirected distinct edge list: two entities are
  connected iff some conversation mentions both.  TWO bucketed
  exchanges total: (conv bucket: dedup mentions + pandas-vectorized
  self-merge pair expansion) → (distinct (e1, e2)).  Pair expansion is
  O(k²) in a conversation's entity count — bounded here by construction
  (orders have ≤ 7 lineitems → ≤ ~16 entities); ``max_conv_entities``
  caps k deterministically (lexicographically-first) for adversarial
  corpora.
* ``pagerank`` — fixed-iteration damped PageRank, mean-1 normalized
  (init rank = 1, update r = 0.15 + 0.85·Σ r/deg) so values stay O(1)
  and round cleanly.  Two execution modes, chosen by a node-count gate
  exactly like ``dedup_clean``'s drop-set:
    - adjacency-resident broadcast mode (node table ≤
      ``RESIDENT_GRAPH_MAX_NODES``): the graph is packed ONCE into
      per-node in-edge lists (one bucketed exchange keyed by dst,
      exact dedup inside the bucket), after which every iteration is
      a MAP-ONLY pass — the rank/deg vector ships via ``ray.put``
      (node-scale, gated) and per-batch segment sums
      (``np.add.reduceat`` over the flattened lists) produce the new
      ranks with zero shuffle.  This is the GraphX/Pregel
      resident-graph pattern on Ray Data.
    - partitioned mode (the no-gate fallback): ranks stay a Dataset;
      each iteration is a bucketed hash join (edges ⋈ ranks on src)
      plus a grouped sum on dst — the message exchange expressed on the
      shuffle backbone.  Costs 2 exchanges/iteration but never holds a
      node-scale table anywhere.
  The oracle replays the identical fixed iterations as chained SQL
  CTEs, rounding half-even to 6 dp on both sides.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ..stages.joins import hash_join
from ..stages.shuffle import bucketed_map_groups, cogroup, distinct, grouped_agg
from ..state import store
from ..transcripts.extract import EntityLinker, extract_mentions_arrow
from ..util import default_buckets, stage_instance
from .kg import _link_batches, transcripts_parquet

DAMPING = 0.85
TELEPORT = 0.15

# Broadcast↔partitioned gates.  Resident graph (pagerank, BFS): node
# table size.  Triangles: node table AND edge list must both fit.
RESIDENT_GRAPH_MAX_NODES = 500_000
TRIANGLE_NODE_BROADCAST_MAX = 2_000_000
TRIANGLE_EDGE_BROADCAST_MAX = 50_000_000

# Process-level singleton caches (the standing pattern for seconds-long
# shared intermediates): every graph query in a driver run re-derives
# the same co-mention pair table / packed adjacency from the same
# corpus — extraction + the packing exchanges dominate each query, so
# the MATERIALIZED intermediates are cached per (sf_dir, cap) and the
# second query onward is iterations-only.  Object-store blocks back the
# cached Datasets; keys are absolute paths, so distinct corpora never
# collide.  At 100 TB the same role is played by persisting the edge
# table next to the corpus (write once, analyze many).
_PAIRS_CACHE: dict = {}
_ADJ_CACHE: dict = {}
_ENC_CACHE: dict = {}


def _corpus_tag(sf_dir: str) -> tuple:
    """Cache-key component tying the process-level graph caches to the
    transcript corpus CONTENT, not just its path: (name, size, mtime)
    of every cache file — metadata-only stats, no data read.  An
    in-place regeneration of the corpus changes the tag and the stale
    pair/adjacency/encoded entries stop matching (the zonemap
    fingerprint fix, applied to the in-memory caches)."""
    d = transcripts_parquet(sf_dir)
    files = {n: os.path.join(d, n) for n in os.listdir(d)}
    return tuple(map(tuple, store.stat_files(files)))


def _cache_put(cache: dict, key: tuple, val):
    """Insert evicting same-(path, cap) entries with a DIFFERENT corpus
    tag — a regenerated corpus must not leave its predecessor's
    node/edge-scale materialized Datasets pinned in the process."""
    for k in [k for k in cache if k[:2] == key[:2] and k != key]:
        del cache[k]
    cache[key] = val


_ADJ_STORE_V = 2  # v2: Arrow list<int32> adjacency blocks


def _adjacency_store_dir(
    sf_dir: str, max_conv_entities: Optional[int],
    cache_root: str = "/tmp/rcr_cache",
) -> str:
    tag = os.path.basename(os.path.normpath(sf_dir))
    cap = "all" if max_conv_entities is None else str(max_conv_entities)
    return os.path.join(cache_root, tag, f"adjacency_{cap}")


def _persist_resident_graph(
    store_dir: str, enc: rd.Dataset, nodes: np.ndarray, deg: np.ndarray,
    fingerprint: dict,
) -> None:
    """Write the ENCODED adjacency + dense-id node table to disk (the
    ``canonical_store`` pattern): packing the co-mention graph is 3
    exchanges + extraction (~12 s at sf0.1) and dominates every cold
    graph query; the persisted artifact makes a cold-session
    pagerank/BFS iterations-only.  Layout: ``adjacency/`` parquet of
    (code int64, srcs list<int>), ``nodes.parquet`` with row i = dense
    id i; the manifest's fingerprint is ``_adjacency_fingerprint`` (a
    regenerated corpus rebuilds instead of serving stale edges) and its
    ``n`` field the node count."""

    def build(tmp: str) -> dict:
        enc.write_parquet(os.path.join(tmp, "adjacency"))
        pd.DataFrame({"node": nodes, "deg": deg}).to_parquet(
            os.path.join(tmp, "nodes.parquet")
        )
        return {"n": int(len(nodes))}

    store.publish(store_dir, build, fingerprint)


def _adjacency_fingerprint(sf_dir: str) -> dict:
    """Store layout version + the transcript-corpus stat fingerprint."""
    return {"v": _ADJ_STORE_V, "corpus": [list(t) for t in _corpus_tag(sf_dir)]}


def _load_resident_graph(store_dir: str, fingerprint: dict):
    """(enc, nodes, deg) from a fingerprint-matching on-disk store, the
    sentinel ``"gate"`` when the store says the graph exceeds
    ``RESIDENT_GRAPH_MAX_NODES`` (callers skip straight to the
    partitioned path without packing), or None when there is no usable
    store."""
    manifest = store.manifest(store_dir)
    if manifest is None or manifest["fingerprint"] != fingerprint:
        return None
    if manifest["n"] > RESIDENT_GRAPH_MAX_NODES:
        return "gate"
    if not os.path.isfile(os.path.join(store_dir, "nodes.parquet")):
        # gate-only manifest (written when the graph exceeded a smaller
        # gate): no data to load — rebuild under this one
        return None
    ndf = pd.read_parquet(os.path.join(store_dir, "nodes.parquet"))
    # Arrow blocks, materialized once: every PageRank/BFS round maps them
    # with batch_format="pyarrow", so pandas blocks would convert per round
    enc = rd.read_parquet(os.path.join(store_dir, "adjacency")).materialize()
    return (
        enc,
        ndf["node"].to_numpy(),
        ndf["deg"].to_numpy(np.float64),
    )


def _resident_graph(sf_dir: str, max_conv_entities: Optional[int]):
    """(encoded adjacency, nodes, deg) for the resident-graph iteration
    family, cached per (sf_dir, cap) at two levels: in-process
    (pagerank and BFS in the same process share one pack + encode) and
    on disk (``_persist_resident_graph`` — a cold session reads the
    packed+encoded graph back instead of re-running the 3-exchange
    build).  Returns None above the node gate (callers fall back to
    their partitioned mode)."""
    key = (os.path.abspath(sf_dir), max_conv_entities, _corpus_tag(sf_dir))
    hit = _ENC_CACHE.get(key)
    if hit is not None:
        return hit if len(hit[1]) <= RESIDENT_GRAPH_MAX_NODES else None
    fingerprint = _adjacency_fingerprint(sf_dir)
    store_dir = _adjacency_store_dir(sf_dir, max_conv_entities)
    loaded = _load_resident_graph(store_dir, fingerprint)
    if loaded == "gate":
        return None
    if loaded is not None:
        _cache_put(_ENC_CACHE, key, loaded)
        return loaded
    adj = _packed_adjacency(sf_dir, max_conv_entities)
    n = adj.count()
    if n > RESIDENT_GRAPH_MAX_NODES:
        # persist the gate decision too: the next cold session skips the
        # pack entirely instead of re-building just to re-decide
        store.publish(store_dir, lambda tmp: {"n": int(n)}, fingerprint)
        return None
    deg_df = adj.select_columns(["node", "deg"]).to_pandas()
    rg = _encoded_adjacency(adj, deg_df)
    _cache_put(_ENC_CACHE, key, rg)
    _persist_resident_graph(store_dir, rg[0], rg[1], rg[2], fingerprint)
    return rg


# --- compact entity codes for the graph exchanges --------------------
#
# Every mention entity IRI is `urn:e:<kind>:<int key>` with kind ∈
# {order, cust, part, supp}; the graph-side exchanges (pair expansion,
# mirror, adjacency pack) carry MILLIONS of them, and a ~35-byte Python
# string per endpoint is 3-5× the bytes and far more object-store/
# serialize cost than one int64.  The code is derived arithmetically —
# kind_id << 40 | key (keys are < 2^40 at any scale this corpus
# reaches; 2^40 ≈ 1.1e12 orders ≫ a 100 TB corpus's key space) — so no
# broadcast dictionary is needed and decode is a vectorized string
# concat at the (node-scale) output edge.

_ENT_KINDS = ("order", "cust", "part", "supp")
_ENT_PREFIX = np.asarray(
    ["urn:e:" + k + ":" for k in _ENT_KINDS], dtype=object
)  # matches transcripts.extract.ENT
_CODE_KEY_MASK = (1 << 40) - 1


def _encode_mentions(batch) -> pd.DataFrame:
    """Arrow mention batch → (conv_id, ecode int64), batch-deduped."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ext = pc.extract_regex(
        batch["entity_iri"],
        r"^urn:e:(?P<k>order|cust|part|supp):(?P<key>[0-9]+)$",
    )
    if batch.num_rows and pc.any(pc.is_null(ext)).as_py():
        raise ValueError(
            "unrecognized entity IRI shape in mention batch — the "
            "arithmetic entity coding covers urn:e:<kind>:<int> only"
        )
    kind = pc.struct_field(ext, "k").to_pandas().to_numpy(dtype=object)
    key = (
        pc.cast(pc.struct_field(ext, "key"), pa.int64())
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    if len(key) and int(key.max()) >= (1 << 40):
        raise ValueError(
            "entity key >= 2^40 would bleed into the code's kind bits — "
            "widen the arithmetic entity coding"
        )
    kid = np.select(
        [kind == k for k in _ENT_KINDS],
        np.arange(len(_ENT_KINDS), dtype=np.int64),
        default=-1,
    ).astype(np.int64)
    out = pd.DataFrame(
        {
            "conv_id": batch["conv_id"].to_pandas(),
            "ecode": (kid << np.int64(40)) | key,
        }
    )
    return out.drop_duplicates()


def _decode_codes(codes: np.ndarray) -> np.ndarray:
    """int64 entity codes → IRI object-string array (vectorized)."""
    codes = np.asarray(codes, np.int64)
    kid = (codes >> np.int64(40)).astype(np.int64)
    key = codes & np.int64(_CODE_KEY_MASK)
    return np.char.add(
        _ENT_PREFIX[kid].astype("U"), key.astype("U")
    ).astype(object)


def _conv_pairs_expanded(
    sf_dir: str, max_conv_entities: Optional[int]
) -> rd.Dataset:
    """(c1 < c2) co-mention pairs as int64 entity CODES, deduped per
    conversation (one bucketed exchange: the conv bucket owns every
    mention of its conversations, so the global (conv, entity) dedup
    happens in-bucket before expansion).  Materialized + cached per
    (sf_dir, cap).  Code order ≠ IRI string order; consumers that
    expose string edges re-orient after decoding
    (``comention_edges``)."""
    key = (os.path.abspath(sf_dir), max_conv_entities, _corpus_tag(sf_dir))
    hit = _PAIRS_CACHE.get(key)
    if hit is not None:
        return hit
    ments = _link_batches(sf_dir, None, "_mention_rows_arrow")

    projected = ments.map_batches(
        _encode_mentions, batch_format="pyarrow", batch_size=32768
    )

    def expand(bucket: pd.DataFrame) -> pd.DataFrame:
        return _expand_conv_pairs(bucket, max_conv_entities)

    out = bucketed_map_groups(
        projected, ["conv_id"], expand, default_buckets()
    ).materialize()
    _cache_put(_PAIRS_CACHE, key, out)
    return out


def _empty_pairs() -> pd.DataFrame:
    return pd.DataFrame(
        {"c1": pd.Series([], dtype=np.int64), "c2": pd.Series([], dtype=np.int64)}
    )


def _expand_conv_pairs(
    bucket: pd.DataFrame, max_conv_entities: Optional[int]
) -> pd.DataFrame:
    """(conv_id, ecode) rows → distinct (c1 < c2) pair rows.  Shared by
    the exchange path (``_conv_pairs_expanded``) and the per-partition
    incremental store builder (``comention_store``)."""
    bucket = bucket.drop_duplicates()
    if max_conv_entities is not None:
        # the cap contract is lexicographically-first by IRI —
        # decode for the sort key only (cap paths are small/tests)
        b = bucket.assign(_iri=_decode_codes(bucket["ecode"].to_numpy()))
        bucket = (
            b.sort_values(["conv_id", "_iri"])
            .groupby("conv_id", sort=False)
            .head(max_conv_entities)
            .drop(columns=["_iri"])
        )
    # triu expansion on sorted segments: emits exactly the k·(k−1)/2
    # ordered pairs per conversation (a pandas self-merge builds 2×
    # the rows and filters half away)
    b = bucket.sort_values(["conv_id", "ecode"], kind="mergesort")
    conv = b["conv_id"].to_numpy()
    code = b["ecode"].to_numpy(np.int64)
    starts = np.flatnonzero(np.r_[True, conv[1:] != conv[:-1]])
    ends = np.r_[starts[1:], len(conv)]
    triu_cache: dict = {}
    az: list = []
    bz: list = []
    for s, e in zip(starts, ends):
        k = e - s
        if k < 2:
            continue
        iu_ju = triu_cache.get(k)
        if iu_ju is None:
            iu_ju = np.triu_indices(k, 1)
            triu_cache[k] = iu_ju
        seg = code[s:e]
        az.append(seg[iu_ju[0]])
        bz.append(seg[iu_ju[1]])
    if not az:
        return _empty_pairs()
    return pd.DataFrame(
        {"c1": np.concatenate(az), "c2": np.concatenate(bz)}
    ).drop_duplicates()


def comention_edges(
    sf_dir: str, max_conv_entities: Optional[int] = None
) -> rd.Dataset:
    """Undirected distinct co-mention edges (e1 < e2, IRI string
    order): code pairs dedup in their (c1, c2) bucket, then decode +
    re-orient to string order map-side (each unordered pair exists
    exactly once, so the swap is per-row local)."""
    pairs = distinct(
        _conv_pairs_expanded(sf_dir, max_conv_entities),
        ["c1", "c2"],
        default_buckets(),
    )

    def decode(batch: pd.DataFrame) -> pd.DataFrame:
        a = _decode_codes(batch["c1"].to_numpy())
        b = _decode_codes(batch["c2"].to_numpy())
        swap = b < a
        return pd.DataFrame(
            {"e1": np.where(swap, b, a), "e2": np.where(swap, a, b)}
        )

    return pairs.map_batches(
        decode, batch_format="pandas", batch_size=65536
    )


def _partition_pairs(path: str, maps_ref) -> pd.DataFrame:
    """Distinct (c1, c2) co-mention pairs for ONE conv-partitioned
    transcript file — map-only (the bucket owns whole conversations, so
    per-conversation dedup + expansion never crosses the file)."""
    import pyarrow.parquet as pq

    # stage_instance / extract_mentions_arrow are imported at MODULE
    # scope: this function runs inside worker-shipped UDFs, where an
    # import executed in the body fails when the driver cwd != repo
    # root (CLAUDE.md hard rule; cloudpickle registers the module).
    tbl = pq.read_table(
        path, columns=["conv_id", "turn_idx", "role", "text"]
    )
    linker = stage_instance(EntityLinker, maps_ref=maps_ref)
    ments = linker._mention_rows_arrow(extract_mentions_arrow(tbl))
    return _expand_conv_pairs(_encode_mentions(ments), None)


def _partition_pairs_batches(maps_ref):
    """Batch fn: part file paths → their distinct (c1, c2) pairs.  Loops
    over EVERY descriptor row (operator fusion can bundle the 1-row
    descriptors; an iloc[0]-only read would silently drop the other
    buckets' pairs); an empty batch gives an empty typed frame."""

    def process(batch: pd.DataFrame) -> pd.DataFrame:
        out = [_partition_pairs(p, maps_ref) for p in batch["path"]]
        return pd.concat(out, ignore_index=True) if out else _empty_pairs()

    return process


def comention_store(
    sf_dir: str,
    num_buckets: int = 128,
    delta_mod: int = 8,
    cache_root: str = "/tmp/rcr_cache",
) -> str:
    """Persisted co-mention pair table over the BASE conversations
    (conv buckets with ``b % delta_mod != 0``), mirroring
    ``kg.canonical_store``: each base bucket's distinct (c1, c2) code
    pairs land in the store's bucket ``b`` part file, written once with
    a corpus-content fingerprint.  At 100 TB this is the standing edge
    table next to the conversation log — a graph refresh touches only
    the delta buckets (VERDICT r04 #6)."""
    from .kg import _link_maps_ref, transcripts_parquet_partitioned

    tag = os.path.basename(os.path.normpath(sf_dir))
    out_dir = os.path.join(
        cache_root, tag, f"comention_store_{num_buckets}_d{delta_mod}"
    )
    root = transcripts_parquet_partitioned(sf_dir, num_buckets, cache_root)
    base, _ = store.split_parts(root, delta_mod)

    def make_part_table():
        maps_ref = _link_maps_ref(sf_dir)
        return lambda path: pa.Table.from_pandas(
            _partition_pairs(path, maps_ref), preserve_index=False
        )

    return store.bucket_store(out_dir, base, make_part_table)


def comention_incremental(
    sf_dir: str, num_buckets: int = 128, delta_mod: int = 8
) -> rd.Dataset:
    """Incremental co-mention edge list: pairs from the DELTA buckets
    (``b % delta_mod == 0`` — 'newly arrived conversations') are
    computed map-only over the partitioned transcript layout and merged
    with the persisted base pair store; one global distinct finishes the
    union (pairs seen in both generations collapse).  Output equals a
    full ``comention_edges`` rebuild (same SQL oracle; byte-equality in
    pytest) at a refresh cost of O(delta) extraction instead of
    O(corpus)."""
    from .kg import _link_maps_ref, transcripts_parquet_partitioned

    store_dir = comention_store(sf_dir, num_buckets, delta_mod)
    _, delta = store.split_parts(
        transcripts_parquet_partitioned(sf_dir, num_buckets), delta_mod
    )
    delta_ds = store.map_files(delta, _partition_pairs_batches(_link_maps_ref(sf_dir)))
    pairs = distinct(
        store.read(store.parts(store_dir)).union(delta_ds),
        ["c1", "c2"],
        default_buckets(),
    )

    def decode(batch: pd.DataFrame) -> pd.DataFrame:
        a = _decode_codes(batch["c1"].to_numpy())
        b = _decode_codes(batch["c2"].to_numpy())
        swap = b < a
        return pd.DataFrame(
            {"e1": np.where(swap, b, a), "e2": np.where(swap, a, b)}
        )

    return pairs.map_batches(
        decode, batch_format="pandas", batch_size=65536
    )


def _packed_adjacency(
    sf_dir: str, max_conv_entities: Optional[int]
) -> rd.Dataset:
    """Per-node in-edge lists over the symmetric graph: one row per
    node — (node, srcs list<str>, deg int64).  The dst bucket owns every
    (dst, src) row, so global edge dedup AND packing happen in the same
    single exchange; deg(node) = len(srcs) because the graph is
    symmetric.  Materialized + cached per (sf_dir, cap)."""
    key = (os.path.abspath(sf_dir), max_conv_entities, _corpus_tag(sf_dir))
    hit = _ADJ_CACHE.get(key)
    if hit is not None:
        return hit
    pairs = _conv_pairs_expanded(sf_dir, max_conv_entities)

    def mirror(batch: pd.DataFrame) -> pd.DataFrame:
        a = pd.DataFrame({"dst": batch["c2"], "src": batch["c1"]})
        b = pd.DataFrame({"dst": batch["c1"], "src": batch["c2"]})
        return pd.concat([a, b], ignore_index=True)

    sym = pairs.map_batches(mirror, batch_format="pandas", batch_size=32768)

    def pack(bucket: pd.DataFrame) -> pd.DataFrame:
        # vectorized list packing: sort by dst, split the src array at
        # group boundaries (views, no Python list-append per edge)
        b = bucket.drop_duplicates().sort_values("dst", kind="mergesort")
        dst = b["dst"].to_numpy()
        src = b["src"].to_numpy()
        starts = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
        ends = np.r_[starts[1:], len(dst)]
        return pd.DataFrame(
            {
                "node": dst[starts],
                "srcs": np.split(src, starts[1:]),
                "deg": (ends - starts).astype(np.int64),
            }
        )

    out = bucketed_map_groups(
        sym, ["dst"], pack, default_buckets()
    ).materialize()
    _cache_put(_ADJ_CACHE, key, out)
    return out


def pagerank(
    sf_dir: str,
    iterations: int = 5,
    max_conv_entities: Optional[int] = None,
) -> rd.Dataset:
    """Fixed-iteration PageRank over the co-mention graph →
    (entity_iri, rank) with rank rounded half-even to 6 dp."""
    rg = _resident_graph(sf_dir, max_conv_entities)
    if rg is not None:
        return _pagerank_iterate(*rg, iterations)
    return _pagerank_partitioned(sf_dir, iterations, max_conv_entities)


_ADJ_SCHEMA = pa.schema(
    [("code", pa.int64()), ("srcs", pa.list_(pa.int32()))]
)


def _adjacency_table(codes, lens: np.ndarray, flat: np.ndarray) -> pa.Table:
    """Encoded-adjacency block as an ARROW table: ``srcs`` is a
    ``list<int32>`` built directly from (offsets, flat values) — no
    per-row Python list objects, zero-copy through the object store
    and byte-stable through the parquet adjacency store."""
    offsets = np.zeros(len(lens) + 1, np.int64)
    np.cumsum(lens, out=offsets[1:])
    srcs = pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()), pa.array(flat, pa.int32())
    )
    return pa.table(
        {"code": pa.array(np.asarray(codes, np.int64)), "srcs": srcs},
        schema=_ADJ_SCHEMA,
    )


def _flatten_srcs(batch: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(codes, flat neighbor ids, offsets) from an encoded-adjacency
    Arrow block — ``offsets`` are normalized row boundaries into
    ``flat`` (length = rows + 1).  Replaces the per-row
    ``np.asarray(list)`` loop that dominated resident iterations."""
    lst = batch.column("srcs").combine_chunks()
    offs = lst.offsets.to_numpy().astype(np.int64)
    flat = lst.flatten().to_numpy(zero_copy_only=False)
    codes = batch.column("code").to_numpy()
    return codes, flat, offs - offs[0]


def _encoded_adjacency(
    adj: rd.Dataset, deg_df: pd.DataFrame
) -> tuple[rd.Dataset, np.ndarray, np.ndarray]:
    """Dictionary-encode the packed adjacency ONCE: nodes → dense int32
    ids, so every subsequent iteration gathers with plain numpy fancy
    indexing instead of hash-probing ~2|E| keys per round.  Two encode
    paths by node dtype: int64 entity CODES (the production co-mention
    graph — a sorted array + ``searchsorted``, no Python objects cross
    the wire) and object strings (generic/test graphs — the pandas
    reindex map).  Returns (encoded adjacency with (code, srcs int32
    list), node IRI strings in dense-id order, degrees in dense-id
    order)."""
    nodes_raw = deg_df["node"].to_numpy()
    deg = deg_df["deg"].to_numpy().astype(np.float64)
    if nodes_raw.dtype.kind in "iu":
        codes = nodes_raw.astype(np.int64)
        nodes = _decode_codes(codes)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        lookup_ref = ray.put((sorted_codes, order.astype(np.int64)))

        def encode(batch: pd.DataFrame) -> pa.Table:
            sc, inv = ray.get(lookup_ref)
            lens = np.asarray([len(x) for x in batch["srcs"]], np.int64)
            flat = np.concatenate(
                [np.asarray(x, dtype=np.int64) for x in batch["srcs"]]
            )
            dense = inv[np.searchsorted(sc, flat)].astype(np.int32)
            node_codes = batch["node"].to_numpy(np.int64)
            return _adjacency_table(
                inv[np.searchsorted(sc, node_codes)], lens, dense
            )

    else:
        nodes = nodes_raw
        code_s = pd.Series(np.arange(len(nodes), dtype=np.int64), index=nodes)
        code_ref = ray.put(code_s)

        def encode(batch: pd.DataFrame) -> pa.Table:
            s: pd.Series = ray.get(code_ref)
            lens = np.asarray([len(x) for x in batch["srcs"]], np.int64)
            flat = np.concatenate(
                [np.asarray(x, dtype=object) for x in batch["srcs"]]
            )
            dense = s.reindex(flat).to_numpy().astype(np.int32)
            node_codes = s.reindex(batch["node"].to_numpy()).to_numpy(
                np.int64
            )
            return _adjacency_table(node_codes, lens, dense)

    enc = adj.map_batches(
        encode, batch_format="pandas", batch_size=8192
    ).materialize()
    return enc, nodes, deg


# --- object-store tree reduce for resident-iteration vectors ---------
#
# Each resident iteration (pagerank step, BFS relaxation) emits one
# (code, value) row per node, codes DISJOINT across blocks (the encoded
# adjacency holds each node exactly once).  Instead of collecting that
# node-scale table to the driver every round (`to_pandas` + re-scatter
# + `ray.put`), the blocks reduce INSIDE the object store: scatter
# tasks build dense partial vectors from ≤fan-in blocks, combine tasks
# fold partials pairwise, and the final ObjectRef feeds the next
# round's map directly — the driver only ever holds refs (plus one
# 1-byte convergence flag for BFS) until the last iteration.

@ray.remote
def _dense_scatter(n: int, init: float, col: str, *blocks) -> np.ndarray:
    import pyarrow as pa

    vec = np.full(int(n), init, np.float64)
    for b in blocks:
        if isinstance(b, pa.Table):
            # column-selective: converts only the two needed columns,
            # where to_pandas() would convert the whole block once per
            # block per iteration
            codes = b.column("code").to_numpy().astype(np.int64)
            vals = b.column(col).to_numpy().astype(np.float64)
        else:
            codes = b["code"].to_numpy().astype(np.int64)
            vals = b[col].to_numpy(np.float64)
        vec[codes] = vals
    return vec


@ray.remote
def _combine_vecs(op: str, *vecs) -> np.ndarray:
    out = vecs[0].copy()
    for v in vecs[1:]:
        if op == "sum":
            out += v  # disjoint scatters over a 0-init: add == union
        else:
            np.minimum(out, v, out=out)
    return out


@ray.remote
def _div_vecs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a / b


@ray.remote
def _vecs_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.array_equal(a, b))


def _tree_reduce_blocks(
    out_ds: rd.Dataset, n: int, op: str, col: str, fanin: int = 8
):
    """ObjectRef to the dense length-``n`` vector folded from
    ``out_ds``'s (code, value) blocks — nothing lands on the driver."""
    refs = [
        r
        for bundle in out_ds.iter_internal_ref_bundles()
        for r in bundle.block_refs
    ]
    init = 0.0 if op == "sum" else np.inf
    if not refs:  # empty graph: no updates, the init vector stands
        return ray.put(np.full(int(n), init, np.float64))
    parts = [
        _dense_scatter.remote(n, init, col, *refs[i : i + fanin])
        for i in range(0, len(refs), fanin)
    ]
    while len(parts) > 1:
        parts = [
            _combine_vecs.remote(op, *parts[i : i + fanin])
            for i in range(0, len(parts), fanin)
        ]
    return parts[0]


def _pagerank_iterate(
    enc: rd.Dataset, nodes: np.ndarray, deg: np.ndarray, iterations: int
) -> rd.Dataset:
    n = len(nodes)
    rank_ref = ray.put(np.ones(n, np.float64))
    deg_ref = ray.put(deg)

    for _ in range(iterations):
        # contribution each node sends along every out-edge — computed
        # in the object store, never ray.get on the driver
        sends = _div_vecs.remote(rank_ref, deg_ref)

        def step(batch: pa.Table, sends=sends) -> pa.Table:
            v: np.ndarray = ray.get(sends)
            codes, flat, offs = _flatten_srcs(batch)
            # adjacency rows always have deg ≥ 1, so reduceat over the
            # row-start offsets is exact (no empty segments)
            sums = np.add.reduceat(v[flat], offs[:-1])
            return pa.table(
                {"code": codes, "r": TELEPORT + DAMPING * sums}
            )

        out = enc.map_batches(step, batch_format="pyarrow", batch_size=8192)
        rank_ref = _tree_reduce_blocks(out, n, "sum", "r")

    ranks = ray.get(rank_ref)  # the ONLY driver-side vector fetch
    return rd.from_pandas(
        pd.DataFrame(
            {
                "entity_iri": nodes,
                "rank": np.round(ranks, 6),
            }
        )
    )


def bfs_depths(
    sf_dir: str,
    max_depth: int = 4,
    max_conv_entities: Optional[int] = None,
) -> rd.Dataset:
    """Single-source BFS levels over the co-mention graph (the iterative
    traversal family: reachability / shortest hops).  Seed = the
    max-degree entity (ties → lexicographically smallest).  Two modes
    behind the same node-count gate as ``pagerank``:
      - resident broadcast (node table ≤ ``RESIDENT_GRAPH_MAX_NODES``):
        the adjacency packs ONCE, then each of the ``max_depth`` rounds
        is a MAP-ONLY min-plus relaxation (new_depth(v) = min(depth(v),
        1 + min depth over in-neighbors)) with the node-scale depth
        vector broadcast via ``ray.put`` — zero per-iteration shuffle.
      - partitioned fallback (``_bfs_partitioned``): depths stay a
        frontier-scale Dataset; each round is one bucketed hash join
        (edges ⋈ depths on src) + one grouped min on dst — no
        node-scale state anywhere.
    Converges level-by-level, so round r finalizes every node at BFS
    distance ≤ r.  Output: (entity_iri, depth ≤ max_depth) for reached
    nodes only; the oracle replays it as a bounded recursive CTE."""
    rg = _resident_graph(sf_dir, max_conv_entities)
    if rg is None:
        return _bfs_partitioned(sf_dir, max_depth, max_conv_entities)
    enc, nodes, deg = rg
    # seed = max-degree node, ties → lexicographically smallest
    seed = nodes[
        pd.DataFrame({"n": nodes, "d": deg})
        .sort_values(["d", "n"], ascending=[False, True], kind="mergesort")
        .index[0]
    ]
    depth_ref = ray.put(np.where(nodes == seed, 0.0, np.inf))

    for _ in range(max_depth):

        def step(batch: pa.Table, dref=depth_ref) -> pa.Table:
            d: np.ndarray = ray.get(dref)
            codes, flat, offs = _flatten_srcs(batch)
            mins = np.minimum.reduceat(d[flat], offs[:-1])
            return pa.table(
                {"code": codes, "d": np.minimum(d[codes], mins + 1.0)}
            )

        out = enc.map_batches(step, batch_format="pyarrow", batch_size=8192)
        new_ref = _tree_reduce_blocks(out, len(nodes), "min", "d")
        # convergence check in the object store; only 1 bool lands here
        if ray.get(_vecs_equal.remote(new_ref, depth_ref)):
            break  # frontier exhausted before max_depth
        depth_ref = new_ref

    depth = ray.get(depth_ref)  # the ONLY driver-side vector fetch
    m = np.isfinite(depth)
    return rd.from_pandas(
        pd.DataFrame(
            {
                "entity_iri": nodes[m],
                "depth": depth[m].astype(np.int64),
            }
        )
    )


def triangle_counts(
    sf_dir: str,
    max_conv_entities: Optional[int] = None,
    wedge_budget_floor: int = 2_000_000,
) -> rd.Dataset:
    """Per-node triangle counts + local clustering coefficient over the
    co-mention graph, via DEGREE-ORIENTED wedge generation (the
    standard scalable triangle algorithm: orient every edge from its
    lower-(deg, id) endpoint to the higher one, generate wedges only at
    a node's out-list — total wedge volume O(m^1.5) instead of
    Σ deg² — then close them against the oriented edge list).
    Lexicographic wedge generation would blow up on hub entities (a
    supplier mentioned in thousands of conversations makes deg² wedges);
    orientation caps out-degrees at ~√m.

    Two execution modes behind the same gate pattern as ``pagerank``:
      - broadcast (when the node table fits
        ``TRIANGLE_NODE_BROADCAST_MAX`` AND the edge list fits
        ``TRIANGLE_EDGE_BROADCAST_MAX``): degree map + sorted int64 edge-key
        array ship via ``ray.put`` and the wedge stream never crosses
        the wire (membership is an in-task searchsorted).
      - partitioned (above either gate): no
        node- or edge-scale driver/broadcast state anywhere — degrees
        attach to both endpoints through co-partitioned hash joins, the
        wedge stream is generated in the corner's bucket and closed by
        a second co-partitioned exchange keyed on the closing edge
        (a, b), with per-bucket corner pre-counts so the final exchange
        carries node-scale partials only.

    Output: (entity_iri, n_triangles, clustering) for every node in at
    least one triangle; clustering = 2·T / (deg·(deg−1)), half-even
    6 dp.  Counts and clustering are orientation-INVARIANT, so the
    engine orients by (deg, code) while the SQL oracle orients by
    (deg, iri) — both are total orders over the same nodes."""
    # consume the int64 CODE pairs directly — comention_edges' decoded
    # strings would only be re-dictionary-encoded here
    edges = distinct(
        _conv_pairs_expanded(sf_dir, max_conv_entities),
        ["c1", "c2"],
        default_buckets(),
    ).materialize()

    def both_ends(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "node": np.concatenate(
                    [
                        batch["c1"].to_numpy(np.int64),
                        batch["c2"].to_numpy(np.int64),
                    ]
                ),
                "deg": np.ones(2 * len(batch), np.int64),
            }
        )

    # materialize once: the gate's count() and the chosen path's
    # to_pandas()/join would otherwise each re-execute the exchange
    deg = grouped_agg(
        edges.map_batches(both_ends, batch_format="pandas"),
        ["node"],
        {"deg": "sum"},
        default_buckets(),
    ).materialize()
    if (
        deg.count() > TRIANGLE_NODE_BROADCAST_MAX
        or edges.count() > TRIANGLE_EDGE_BROADCAST_MAX
    ):
        return _triangles_partitioned(edges, deg)
    deg_df = deg.to_pandas()
    # Dense-encode: order dense ids by (deg, code) so the orientation
    # relation u≺v becomes plain integer < — every exchange from here
    # on carries small ints, and the dense lookup is one searchsorted.
    deg_df = deg_df.sort_values(["deg", "node"], kind="mergesort").reset_index(
        drop=True
    )
    nodes_arr = deg_df["node"].to_numpy(np.int64)  # entity codes
    deg_arr = deg_df["deg"].to_numpy().astype(np.int64)
    order = np.argsort(nodes_arr, kind="stable")
    lookup_ref = ray.put((nodes_arr[order], order.astype(np.int64)))

    def orient(batch: pd.DataFrame) -> pd.DataFrame:
        sc, inv = ray.get(lookup_ref)
        c1 = inv[np.searchsorted(sc, batch["c1"].to_numpy(np.int64))]
        c2 = inv[np.searchsorted(sc, batch["c2"].to_numpy(np.int64))]
        return pd.DataFrame(
            {
                "u": np.minimum(c1, c2).astype(np.int64),
                "v": np.maximum(c1, c2).astype(np.int64),
            }
        )

    oriented = edges.map_batches(
        orient, batch_format="pandas", batch_size=32768
    ).materialize()

    # Close wedges with DRIVER-PLANNED, wedge-balanced tasks: the
    # oriented edge SET already ships broadcast as one sorted int64 key
    # array (u·n + v; edge-scale — 8 bytes/edge, gated by the edge
    # constant alongside the node map), and that same array
    # IS the (u, v)-sorted edge list — so instead of re-shuffling the
    # edges into u-hash buckets (whose wedge volume is wildly skewed: a
    # hub's C(outdeg, 2) wedges all land in one task), the driver walks
    # the per-u segment boundaries, sums each segment's wedge count,
    # and emits tasks capped at ~equal wedge budgets.  A single hub
    # whose wedge count exceeds the budget is SPLIT across sub-tasks by
    # triangular-pair index range (corner partials already bincount-
    # merge), bounding the max task at scale.  One fewer exchange AND
    # no stragglers.
    n_codes = len(nodes_arr)
    odf = oriented.select_columns(["u", "v"]).to_pandas()
    ekeys = np.sort(
        odf["u"].to_numpy().astype(np.int64) * n_codes
        + odf["v"].to_numpy().astype(np.int64)
    )
    ekeys_ref = ray.put(ekeys)

    seg_starts = np.flatnonzero(
        np.r_[True, (ekeys[1:] // n_codes) != (ekeys[:-1] // n_codes)]
    )
    seg_ends = np.r_[seg_starts[1:], len(ekeys)]
    seg_k = (seg_ends - seg_starts).astype(np.int64)
    seg_w = seg_k * (seg_k - 1) // 2
    total_wedges = int(seg_w.sum())
    if total_wedges == 0:
        return rd.from_pandas(
            pd.DataFrame(
                {
                    "entity_iri": pd.Series([], dtype=object),
                    "n_triangles": pd.Series([], dtype=np.int64),
                    "clustering": pd.Series([], dtype=np.float64),
                }
            )
        )
    budget = max(wedge_budget_floor, total_wedges // default_buckets() + 1)
    tasks: list = []
    run_s, run_w = -1, 0
    for s, e, w in zip(seg_starts, seg_ends, seg_w):
        if w > budget:
            if run_s >= 0:
                tasks.append({"s": int(run_s), "e": int(s), "plo": -1, "phi": -1})
                run_s, run_w = -1, 0
            nsub = -(-w // budget)
            step = -(-w // nsub)
            for lo in range(0, int(w), int(step)):
                tasks.append(
                    {
                        "s": int(s),
                        "e": int(e),
                        "plo": int(lo),
                        "phi": int(min(lo + step, w)),
                    }
                )
            continue
        if run_s < 0:
            run_s = s
        run_w += int(w)
        if run_w >= budget:
            tasks.append({"s": int(run_s), "e": int(e), "plo": -1, "phi": -1})
            run_s, run_w = -1, 0
    if run_s >= 0:
        tasks.append(
            {"s": int(run_s), "e": int(seg_ends[-1]), "plo": -1, "phi": -1}
        )

    def wedge_close_corners(batch: pd.DataFrame) -> pd.DataFrame:
        # All-numpy wedge kernel: the wedge stream is Σ C(outdeg, 2) —
        # BILLIONS at scale even degree-oriented (dense conversation
        # cliques overlap at hub entities), so per-wedge cost must be
        # nanoseconds: per-u triangular pair indices (cached by k),
        # vectorized searchsorted membership against the broadcast key
        # array, and one bincount per ~4M-wedge buffer.  A pandas
        # self-merge here is ~80× slower and holds the whole task's
        # wedge frame in memory at once.
        keys: np.ndarray = ray.get(ekeys_ref)
        total = np.zeros(n_codes, np.int64)
        triu_cache: dict = {}
        buf: list = []
        buf_n = 0

        def flush():
            nonlocal buf, buf_n
            if buf:
                total.__iadd__(
                    np.bincount(np.concatenate(buf), minlength=n_codes)
                )
                buf, buf_n = [], 0

        def close(un: int, vx: np.ndarray, vy: np.ndarray):
            nonlocal buf_n
            wkey = vx * n_codes + vy
            pos = np.searchsorted(keys, wkey).clip(max=len(keys) - 1)
            hit = keys[pos] == wkey
            nhit = int(hit.sum())
            if nhit:
                total[un] += nhit
                buf.append(vx[hit])
                buf.append(vy[hit])
                buf_n += 2 * nhit
                if buf_n >= 4_000_000:
                    flush()

        for _, t in batch.iterrows():
            s, e, plo, phi = int(t["s"]), int(t["e"]), int(t["plo"]), int(t["phi"])
            if plo < 0:
                # run of whole u-segments
                u = keys[s:e] // n_codes
                v = keys[s:e] % n_codes
                starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
                ends = np.r_[starts[1:], len(u)]
                for a, b in zip(starts, ends):
                    k = b - a
                    if k < 2:
                        continue
                    iu_ju = triu_cache.get(k)
                    if iu_ju is None:
                        iu_ju = np.triu_indices(k, 1)
                        triu_cache[k] = iu_ju
                    vs = v[a:b]
                    close(int(u[a]), vs[iu_ju[0]], vs[iu_ju[1]])
            else:
                # split hub: pairs [plo, phi) of ONE u's triangular
                # index space, row-major ((i, j) with i < j)
                vs = keys[s:e] % n_codes
                un = int(keys[s] // n_codes)
                k = e - s
                row_lens = np.arange(k - 1, 0, -1, dtype=np.int64)
                cum = np.zeros(k, np.int64)
                np.cumsum(row_lens, out=cum[1:])
                r0 = int(np.searchsorted(cum, plo, "right")) - 1
                r1 = int(np.searchsorted(cum, phi, "left"))
                counts = row_lens[r0:r1]
                i_idx = np.repeat(np.arange(r0, r1, dtype=np.int64), counts)
                within = np.arange(len(i_idx), dtype=np.int64) - np.repeat(
                    cum[r0:r1] - cum[r0], counts
                )
                j_idx = i_idx + 1 + within
                lo, hi = plo - int(cum[r0]), phi - int(cum[r0])
                close(un, vs[i_idx[lo:hi]], vs[j_idx[lo:hi]])
        flush()
        nz = np.flatnonzero(total)
        return pd.DataFrame(
            {
                "code": nz.astype(np.int64),
                "n_triangles": total[nz].astype(np.int64),
            }
        )

    # one block per task descriptor, and MATERIALIZE the partials:
    # without the barrier, operator fusion with the downstream
    # exchange's 32768-row prepare bundles all the one-row task
    # descriptors into a single task and the wedge kernels run
    # sequentially (measured 5× slower — the standing fusion trap)
    partials = (
        rd.from_items(tasks, override_num_blocks=len(tasks))
        .map_batches(wedge_close_corners, batch_format="pandas", batch_size=1)
        .materialize()
    )
    counts = grouped_agg(
        partials, ["code"], {"n_triangles": "sum"}, default_buckets()
    )

    decode_ref = ray.put((nodes_arr, deg_arr))

    def clustering(batch: pd.DataFrame) -> pd.DataFrame:
        nodes, degs = ray.get(decode_ref)
        c = batch["code"].to_numpy().astype(np.int64)
        d = degs[c].astype(np.float64)
        t = batch["n_triangles"].to_numpy().astype(np.float64)
        return pd.DataFrame(
            {
                "entity_iri": _decode_codes(nodes[c]),
                "n_triangles": batch["n_triangles"],
                "clustering": np.round(2.0 * t / (d * (d - 1.0)), 6),
            }
        )

    return counts.map_batches(
        clustering, batch_format="pandas", batch_size=32768
    )


def _triangles_partitioned(edges: rd.Dataset, deg: rd.Dataset) -> rd.Dataset:
    """Triangle counts with NO node- or edge-scale broadcast/driver
    state — the 100-TB path.  Same degree orientation as the broadcast
    kernel (u ≺ v iff (deg(u), u) < (deg(v), v)), expressed entirely on
    the shuffle backbone:

      1. degrees attach to BOTH endpoints via two co-partitioned hash
         joins (the degree table streams, never ``ray.put``);
      2. orientation is a map-only per-row comparison;
      3. wedges are generated in the corner's u-bucket (out-lists sorted
         by (deg, iri), triu pair expansion — O(m^1.5) total) and flow
         into a second exchange keyed on the CLOSING edge (a, b), where
         they meet the oriented edge list co-partitioned on the same
         key: an in-bucket merge closes them, and corner counts
         pre-aggregate in-bucket so the final exchange carries
         node-scale partials only;
      4. clustering attaches the degree back with one more
         co-partitioned join.

    Every exchange is bucketed by key hash; skew is bounded by the
    orientation (out-degree ≤ ~√m) exactly as in the broadcast path.
    Verified equal to the broadcast kernel in
    ``tests/test_graph.py::test_triangles_partitioned_matches_broadcast``."""
    d1 = deg.map_batches(
        lambda b: b.rename(columns={"node": "c1", "deg": "d1"}),
        batch_format="pandas",
    )
    d2 = deg.map_batches(
        lambda b: b.rename(columns={"node": "c2", "deg": "d2"}),
        batch_format="pandas",
    )
    j = hash_join(edges, d1, on="c1", num_buckets=default_buckets())
    j = hash_join(j, d2, on="c2", num_buckets=default_buckets())

    def orient(batch: pd.DataFrame) -> pd.DataFrame:
        e1, e2 = batch["c1"].to_numpy(), batch["c2"].to_numpy()
        a1, a2 = batch["d1"].to_numpy(), batch["d2"].to_numpy()
        swap = (a2 < a1) | ((a2 == a1) & (e2 < e1))
        return pd.DataFrame(
            {
                "u": np.where(swap, e2, e1),
                "v": np.where(swap, e1, e2),
                "dv": np.where(swap, a1, a2),
            }
        )

    oriented = j.map_batches(
        orient, batch_format="pandas", batch_size=32768
    ).materialize()  # feeds both the wedge pass and the close pass

    def gen_wedges(bucket: pd.DataFrame) -> pd.DataFrame:
        # out-lists sorted by (deg, iri): pair (i < j) then IS the
        # oriented closing edge candidate (a ≺ b by construction)
        b = bucket.sort_values(["u", "dv", "v"], kind="mergesort")
        u = b["u"].to_numpy(np.int64)
        v = b["v"].to_numpy(np.int64)
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        ends = np.r_[starts[1:], len(u)]
        triu_cache: dict = {}
        corners: list = []
        az: list = []
        bz: list = []
        for s, e in zip(starts, ends):
            k = e - s
            if k < 2:
                continue
            iu_ju = triu_cache.get(k)
            if iu_ju is None:
                iu_ju = np.triu_indices(k, 1)
                triu_cache[k] = iu_ju
            vs = v[s:e]
            corners.append(np.full(len(iu_ju[0]), u[s], np.int64))
            az.append(vs[iu_ju[0]])
            bz.append(vs[iu_ju[1]])
        if not corners:
            return pd.DataFrame(
                {
                    "a": pd.Series([], dtype=np.int64),
                    "b": pd.Series([], dtype=np.int64),
                    "corner": pd.Series([], dtype=np.int64),
                }
            )
        return pd.DataFrame(
            {
                "a": np.concatenate(az),
                "b": np.concatenate(bz),
                "corner": np.concatenate(corners),
            }
        )

    wedges = bucketed_map_groups(
        oriented, ["u"], gen_wedges, default_buckets()
    )

    # Close in-bucket: wedges and oriented edge keys co-partition on the
    # closing edge (a, b); matches are triangles, and each bucket emits
    # CORNER PARTIAL COUNTS (node, t), not per-triangle rows.
    def close_count(w: pd.DataFrame, e: pd.DataFrame) -> pd.DataFrame:
        m = w.merge(e, on=["a", "b"])  # edge keys distinct → semi join
        if len(m) == 0:  # (a side with no rows at all has its keys only)
            m = pd.DataFrame(columns=["corner", "a", "b"])
        vc = pd.Series(
            np.concatenate([m["corner"], m["a"], m["b"]]), dtype=np.int64
        ).value_counts()
        return pd.DataFrame(
            {"node": vc.index.to_numpy(np.int64), "t": vc.to_numpy(np.int64)}
        )

    partials = cogroup(
        wedges,
        oriented.map_batches(
            lambda b: pd.DataFrame({"a": b["u"], "b": b["v"]}),
            batch_format="pandas",
        ),
        ["a", "b"],
        close_count,
        default_buckets(),
    )
    counts = grouped_agg(
        partials, ["node"], {"t": "sum"}, default_buckets()
    )
    final = hash_join(counts, deg, on="node", num_buckets=default_buckets())

    def clustering(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch["deg"].to_numpy().astype(np.float64)
        t = batch["t"].to_numpy().astype(np.float64)
        return pd.DataFrame(
            {
                "entity_iri": _decode_codes(batch["node"].to_numpy()),
                "n_triangles": batch["t"].to_numpy(),
                "clustering": np.round(2.0 * t / (d * (d - 1.0)), 6),
            }
        )

    return final.map_batches(
        clustering, batch_format="pandas", batch_size=32768
    )


def _sym_edges(sf_dir: str, max_conv_entities: Optional[int]) -> rd.Dataset:
    """Symmetric (src, dst) edge table — both directions of every
    distinct co-mention edge."""
    edges = comention_edges(sf_dir, max_conv_entities)

    def mirror(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.concat(
            [
                batch.rename(columns={"e1": "src", "e2": "dst"}),
                batch.rename(columns={"e2": "src", "e1": "dst"})[
                    ["src", "dst"]
                ],
            ],
            ignore_index=True,
        )[["src", "dst"]]

    return edges.map_batches(mirror, batch_format="pandas", batch_size=32768)


def _bfs_partitioned(
    sf_dir: str, max_depth: int, max_conv_entities: Optional[int]
) -> rd.Dataset:
    """BFS on the shuffle backbone — no node-scale driver/broadcast
    state.  The depth table starts as the single seed row and stays
    reached-set-scale; each round is one bucketed hash join (edges ⋈
    depths on src → candidate depth d+1 at dst) + one grouped min over
    (previous depths ∪ candidates).  Min-plus relaxation is monotone
    and idempotent, so running exactly ``max_depth`` rounds yields the
    same result as the broadcast path's early-exit loop."""
    from ..stages.shuffle import single_bucket_merge

    sym = _sym_edges(sf_dir, max_conv_entities).materialize()

    def ones(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"node": batch["src"], "deg": np.ones(len(batch), np.int64)}
        )

    deg = grouped_agg(
        sym.map_batches(ones, batch_format="pandas"),
        ["node"],
        {"deg": "sum"},
        default_buckets(),
    )

    def local_top1(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(
            ["deg", "node"], ascending=[False, True], kind="mergesort"
        ).head(1)

    seed_df = single_bucket_merge(
        deg.map_batches(local_top1, batch_format="pandas"), local_top1
    ).to_pandas()
    seed = seed_df["node"].iloc[0]

    depths = rd.from_pandas(
        pd.DataFrame({"node": [seed], "d": np.asarray([0], np.int64)})
    )
    for _ in range(max_depth):
        msgs = hash_join(
            sym,
            depths.map_batches(
                lambda b: b.rename(columns={"node": "src"}),
                batch_format="pandas",
            ),
            on="src",
            num_buckets=default_buckets(),
        ).map_batches(
            lambda b: pd.DataFrame(
                {
                    "node": b["dst"],
                    "d": b["d"].to_numpy(np.int64) + np.int64(1),
                }
            ),
            batch_format="pandas",
        )
        depths = grouped_agg(
            depths.union(msgs), ["node"], {"d": "min"}, default_buckets()
        ).materialize()

    return depths.map_batches(
        lambda b: pd.DataFrame(
            {"entity_iri": b["node"], "depth": b["d"].astype(np.int64)}
        ),
        batch_format="pandas",
    )


def _pagerank_partitioned(
    sf_dir: str, iterations: int, max_conv_entities: Optional[int]
) -> rd.Dataset:
    """No node-scale state anywhere: degree-annotated symmetric edge
    table materialized once, then per iteration one bucketed hash join
    (edges ⋈ ranks on src) + one grouped sum on dst."""
    sym = _sym_edges(sf_dir, max_conv_entities)

    def ones(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"src": batch["src"], "deg": np.ones(len(batch), np.int64)}
        )

    deg = grouped_agg(
        sym.map_batches(ones, batch_format="pandas"),
        ["src"],
        {"deg": "sum"},
        default_buckets(),
    ).materialize()
    ewd = hash_join(sym, deg, on="src", num_buckets=default_buckets())
    ewd = ewd.materialize()

    def init(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"src": batch["src"], "r": np.ones(len(batch), np.float64)}
        )

    ranks_ds = deg.map_batches(init, batch_format="pandas")
    for _ in range(iterations):
        joined = hash_join(
            ewd, ranks_ds, on="src", num_buckets=default_buckets()
        )

        def contrib(batch: pd.DataFrame) -> pd.DataFrame:
            w = batch["r"].to_numpy() / batch["deg"].to_numpy()
            return pd.DataFrame({"node": batch["dst"], "w": w})

        summed = grouped_agg(
            joined.map_batches(
                contrib, batch_format="pandas", batch_size=32768
            ),
            ["node"],
            {"w": "sum"},
            default_buckets(),
        )

        def damp(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "src": batch["node"],
                    "r": TELEPORT + DAMPING * batch["w"].to_numpy(),
                }
            )

        ranks_ds = summed.map_batches(
            damp, batch_format="pandas"
        ).materialize()

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "entity_iri": batch["src"],
                "rank": np.round(batch["r"].to_numpy(), 6),
            }
        )

    return ranks_ds.map_batches(finish, batch_format="pandas")


def comention_pmi(
    sf_dir: str,
    min_convs: int = 3,
    max_conv_entities: Optional[int] = None,
) -> rd.Dataset:
    """PMI-weighted co-mention edges: association strength between two
    entities = ln((n12/N) / ((n1/N)(n2/N))) over conversation
    co-occurrence — the weighting step that turns the raw co-mention
    graph into a knowledge-graph edge-confidence signal (hub entities
    co-occur with everything; PMI discounts them).

    Scale shape: one conv-bucket pass owns each conversation's mention
    set, dedups it, expands pairs and pre-counts per bucket (combiner);
    one grouped-sum exchange yields exact pair counts; per-entity
    conversation counts reduce the same way and attach via two
    co-partitioned hash joins (entity-scale, never broadcast); N is one
    tiny distinct-count.  Output: (e1, e2, n_convs ≥ ``min_convs``,
    pmi rounded 6dp)."""
    from ..stages.shuffle import distinct as distinct_x

    ments = _link_batches(sf_dir, None, "_mention_rows_arrow")

    def project(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"conv_id": batch["conv_id"], "entity_iri": batch["entity_iri"]}
        ).drop_duplicates()

    projected = ments.map_batches(
        project, batch_format="pandas", batch_size=32768
    ).materialize()  # feeds the pair pass, the entity pass and N

    def pair_counts(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.drop_duplicates()
        if max_conv_entities is not None:
            b = (
                b.sort_values(["conv_id", "entity_iri"])
                .groupby("conv_id", sort=False)
                .head(max_conv_entities)
            )
        m = b.merge(b, on="conv_id")
        m = m[m["entity_iri_x"] < m["entity_iri_y"]]
        return (
            m.groupby(["entity_iri_x", "entity_iri_y"], sort=False)
            .size()
            .reset_index(name="n12")
            .rename(columns={"entity_iri_x": "e1", "entity_iri_y": "e2"})
        )

    pc = grouped_agg(
        bucketed_map_groups(
            projected, ["conv_id"], pair_counts, default_buckets()
        ),
        ["e1", "e2"],
        {"n12": "sum"},
        default_buckets(),
    )

    def ent_counts(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.drop_duplicates()
        return (
            b.groupby("entity_iri", sort=False)
            .size()
            .reset_index(name="ne")
        )

    ec = grouped_agg(
        bucketed_map_groups(
            projected, ["conv_id"], ent_counts, default_buckets()
        ),
        ["entity_iri"],
        {"ne": "sum"},
        default_buckets(),
    ).materialize()  # joined twice

    n_convs = float(
        distinct_x(
            projected.map_batches(
                lambda b: b[["conv_id"]], batch_format="pandas"
            ),
            ["conv_id"],
            num_buckets=16,
        ).count()
    )

    cand = pc.map_batches(
        lambda b: b[b["n12"] >= min_convs], batch_format="pandas"
    )
    j1 = hash_join(
        cand.map_batches(
            lambda b: b.rename(columns={"e1": "entity_iri"}),
            batch_format="pandas",
        ),
        ec,
        on="entity_iri",
        num_buckets=default_buckets(),
    ).map_batches(
        lambda b: b.rename(columns={"entity_iri": "e1", "ne": "n1"}),
        batch_format="pandas",
    )
    j2 = hash_join(
        j1.map_batches(
            lambda b: b.rename(columns={"e2": "entity_iri"}),
            batch_format="pandas",
        ),
        ec,
        on="entity_iri",
        num_buckets=default_buckets(),
    ).map_batches(
        lambda b: b.rename(columns={"entity_iri": "e2", "ne": "n2"}),
        batch_format="pandas",
    )

    def score(b: pd.DataFrame) -> pd.DataFrame:
        n12 = b["n12"].to_numpy(np.float64)
        n1 = b["n1"].to_numpy(np.float64)
        n2 = b["n2"].to_numpy(np.float64)
        pmi = np.round(
            np.log((n12 / n_convs) / ((n1 / n_convs) * (n2 / n_convs))), 6
        )
        return pd.DataFrame(
            {
                "e1": b["e1"],
                "e2": b["e2"],
                "n_convs": b["n12"].astype(np.int64),
                "pmi": pmi,
            }
        )

    return j2.map_batches(score, batch_format="pandas", batch_size=32768)
