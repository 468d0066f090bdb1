"""Flagship pipeline: transcripts → triples → canonical graphs → entities.

Ray-Data-first lifecycle (SURVEY.md §3.4):

    read_parquet(transcripts, _EXTRACT_COLS)  # or build_transcripts (map-only)
    → bucketed exchange on conv_id            # THE shuffle, one block/core
    → canonicalize_transcripts                # extract + link + RDFC-1.0
                                              #   once per block

The CLI run (``run_kg_pipeline``) writes its graphs as a store over the
conversation layout (``store.bucket_store``, resumable per part) and
publishes the triple table and the canonical N-Quads corpus beside it.

The exchange carries transcript rows, so extraction runs inside the
parallel block tasks.  The link views (triples, links, mention counts)
extract map-only (``mentions_dataset``), and so does the partitioned
linker, which resolves surfaces with cogroups before its exchange and
so needs mentions first.

The partitioned and incremental paths run the same kernel call
(``canonicalize_transcripts``) map-only over the conv-bucket layout.  The
layout itself belongs to ``state/store.py``: ``store.write_buckets``
writes it (hashed by the exchange's own prepare, like
``shuffle.add_bucket``), ``store.parts`` / ``store.split_parts`` list
it back as base and refresh delta, and ``store.map_files`` runs the
kernel once per planned block of part files (one block per core).  A
graph store (``_graph_store``: the incremental base and the CLI output)
runs it once per file, since each file is one store part.

Cross-partition entity canonicalization: entity IRIs are already
corpus-canonical (linking resolves surfaces to keys), so the cross-graph
step is a groupby-aggregate over entity IRIs (mention counts / degree),
not a join.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from ..stages.canonicalize import (
    _GRAPH_SCHEMA,
    canonicalize_bucket,
    canonicalize_graphs,
    canonicalize_transcripts,
    exchange_conversations,
)
from ..transcripts.extract import (
    _EXTRACT_COLS,
    EntityLinker,
    build_link_maps,
    extract_mentions_arrow,
    quads_table,
)
from ..state import store
from ..transcripts.gen import (
    build_transcripts,
    source_fingerprint,
    transcripts_parquet,
)
from ..util import default_buckets, planned, stage_instance

# Driver-side serial floor: the dimension-table reads behind
# build_link_maps and the ray.put of the result are identical across
# repeated runs in one session — cache the broadcast ref per sf_dir so
# only the first run pays them.
_LINK_MAPS_REF: dict = {}


def _link_maps_ref(sf_dir: str):
    ref = _LINK_MAPS_REF.get(sf_dir)
    if ref is None:
        ref = _LINK_MAPS_REF[sf_dir] = ray.put(build_link_maps(sf_dir))
    return ref


# Entity-linker dimension gate: below it, the dimension tables ship as
# broadcast lookup arrays (build_link_maps — one driver read + ray.put); above
# it, mention surfaces resolve via co-partitioned hash joins instead
# (resolve_mentions_partitioned) and NO node-scale dictionary ever lands on
# the driver.  The check is parquet-footer row counts — metadata only.
LINKER_BROADCAST_MAX = 5_000_000


def _linker_cardinality(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    return sum(
        pq.read_metadata(os.path.join(sf_dir, f"{t}.parquet")).num_rows
        for t in ("customer", "part", "supplier")
    )


_EMPTY_MAPS_REF: dict = {}


def _empty_maps_ref():
    """Broadcast ref of EMPTY link maps for the partitioned-linker path:
    the resolver reads the pre-resolved key columns, so the maps are
    never consulted — but the linker cache still wants a ref-keyed maps
    object."""
    ref = _EMPTY_MAPS_REF.get("ref")
    if ref is None:
        ref = _EMPTY_MAPS_REF["ref"] = ray.put({})
    return ref


def _use_partitioned_linker(sf_dir: str) -> bool:
    return _linker_cardinality(sf_dir) > LINKER_BROADCAST_MAX


def _extract_input(
    sf_dir: str, transcripts: Optional[rd.Dataset] = None
) -> rd.Dataset:
    """The transcript columns extraction reads (``_EXTRACT_COLS``):
    pruned at the read, or projected from the caller's dataset, so
    tool/ts never leave storage or cross an exchange."""
    if transcripts is None:
        return rd.read_parquet(transcripts_parquet(sf_dir), columns=_EXTRACT_COLS)
    return transcripts.select_columns(_EXTRACT_COLS)


def mentions_dataset(sf_dir: str, transcripts: Optional[rd.Dataset] = None) -> rd.Dataset:
    """Extracted mention rows, map-only: they feed the link views
    (triples, links, mention counts) and the partitioned linker.  The
    canonical-graph paths extract inside their kernel call instead
    (``canonicalize_transcripts``)."""
    # Stateless tasks (not an actor pool): tasks scale to every free core
    # immediately — an autoscaling pool ramps too slowly for a
    # seconds-long stage. Arrow-native RE2 extraction; zero-copy input.
    return _extract_input(sf_dir, transcripts).map_batches(
        extract_mentions_arrow, batch_format="pyarrow", batch_size=8192
    )


def _link_batches(
    sf_dir: str, transcripts, emitter: str, partitioned: bool = False
) -> rd.Dataset:
    """Stateless link stage running one of the linker's Arrow emitters
    (``_triples_arrow``/``_mention_rows_arrow``/``_links_arrow``):
    extraction emits Arrow, linking stays Arrow (C++ ``index_in``
    lookups), and the exchange prepare is zero-copy.  The linker is
    built once per worker process (``util.stage_instance``), tasks
    scale instantly.  ``partitioned`` resolves the surfaces with
    co-partitioned hash joins first, and the emitter reads the
    pre-resolved key columns instead of broadcast maps."""
    if partitioned:
        maps_ref = _empty_maps_ref()
        mentions = _resolved_mentions(sf_dir, transcripts)
    else:
        maps_ref = _link_maps_ref(sf_dir)
        mentions = mentions_dataset(sf_dir, transcripts)

    def emit(batch):
        linker = stage_instance(EntityLinker, maps_ref=maps_ref)
        return getattr(linker, emitter)(batch)

    return mentions.map_batches(emit, batch_format="pyarrow", batch_size=8192)


def _resolved_mentions(sf_dir: str, transcripts) -> rd.Dataset:
    from ..transcripts.extract import resolve_mentions_partitioned

    return resolve_mentions_partitioned(
        mentions_dataset(sf_dir, transcripts), sf_dir, default_buckets()
    )


def links_dataset(
    sf_dir: str, transcripts: Optional[rd.Dataset] = None
) -> rd.Dataset:
    return _link_batches(
        sf_dir, transcripts, "_links_arrow", _use_partitioned_linker(sf_dir)
    )


def triples_dataset(
    sf_dir: str, transcripts: Optional[rd.Dataset] = None
) -> rd.Dataset:
    """Distinct extracted (conv_id, subj, pred, obj) IRI/literal triples —
    the SQL-oracle-checked extraction product.  The linker emits triples
    directly (no turn-node quad rows), per-batch dedup acts as the
    combiner, and a bucketed shuffle finishes the global DISTINCT."""
    from ..stages.shuffle import distinct

    projected = _link_batches(
        sf_dir, transcripts, "_triples_arrow", _use_partitioned_linker(sf_dir)
    )
    return distinct(projected, ["conv_id", "subj", "pred", "obj"])


def canonical_labels_dataset(
    sf_dir: str, transcripts: Optional[rd.Dataset] = None
) -> rd.Dataset:
    """Exploded issued-identifier maps — the reference's ``issue*`` API
    surface (`/root/reference/src/api.rs:328-459`) as a table:
    (graph_id, input_label, canon_label)."""
    import json

    import pandas as pd

    graphs = canonical_graphs_dataset(sf_dir, transcripts)

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        gids, ins, outs = [], [], []
        for gid, lm in zip(batch["graph_id"], batch["label_map"]):
            for k, v in json.loads(lm).items():
                gids.append(gid)
                ins.append(k)
                outs.append(v)
        return pd.DataFrame(
            {"graph_id": gids, "input_label": ins, "canon_label": outs}
        )

    return graphs.map_batches(explode, batch_format="pandas")


def canonical_sizes(sf_dir: str) -> rd.Dataset:
    """Relational-invariant view of the flagship output: per graph, the
    quad/bnode counts and canonicalization status.  Both counts derive
    from the base tables (quads = 14 + 7·lineitems + 2·distinct tool
    texts; bnodes = 3 + distinct tool texts), so DuckDB can oracle-check
    the whole flagship assembly without reimplementing RDFC-1.0."""
    import pandas as pd

    graphs = canonical_graphs_dataset(sf_dir)

    def project(batch):
        return batch.select(["graph_id", "n_quads", "n_bnodes", "status"])

    return graphs.map_batches(project, batch_format="pyarrow", batch_size=8192)


def label_invariants(sf_dir: str) -> rd.Dataset:
    """Per-graph invariants of the issued-label maps (``issue*`` API):
    label count equals the graph's blank-node count (derivable from base
    tables), every canonical label matches ``c14n<i>``, and the issued
    set is exactly ``{c14n0..c14n(n-1)}`` (``seq_ok``)."""
    import re

    import pandas as pd

    from ..stages.shuffle import bucketed_map_groups

    labels = canonical_labels_dataset(sf_dir)
    pat = re.compile(r"^c14n\d+$")

    def per_graph(bucket: pd.DataFrame) -> pd.DataFrame:
        out = {"conv_id": [], "n_labels": [], "n_c14n": [], "seq_ok": []}
        for gid, sub in bucket.groupby("graph_id", sort=False):
            canon = sub["canon_label"].tolist()
            n = len(canon)
            out["conv_id"].append(gid)
            out["n_labels"].append(n)
            out["n_c14n"].append(sum(1 for c in canon if pat.match(c)))
            out["seq_ok"].append(set(canon) == {f"c14n{i}" for i in range(n)})
        df = pd.DataFrame(out)
        df["n_labels"] = df["n_labels"].astype("int64")
        df["n_c14n"] = df["n_c14n"].astype("int64")
        df["seq_ok"] = df["seq_ok"].astype(bool)
        return df

    return bucketed_map_groups(
        labels, ["graph_id"], per_graph, num_buckets=default_buckets()
    )


def scored_links_dataset(sf_dir: str) -> rd.Dataset:
    """Distinct scored links (conv_id, surface, entity_iri, score):
    the ambiguity score is 1 / |candidate set| for part surfaces (names
    are intentionally ambiguous; min-partkey resolution), 1.0 for
    customer/supplier surfaces — SQL-derivable from the dimension
    tables, so the scoring surface is oracle-checked."""
    import pandas as pd

    from ..stages.shuffle import distinct

    links = links_dataset(sf_dir)

    def round_score(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        out["score"] = out["score"].round(6)
        return out

    return distinct(
        links.map_batches(round_score, batch_format="pandas", batch_size=32768),
        ["conv_id", "surface", "entity_iri", "score"],
    )


def distinct_links_dataset(
    sf_dir: str, transcripts: Optional[rd.Dataset] = None
) -> rd.Dataset:
    """Distinct (conv_id, surface, entity_iri) resolved entity links —
    SQL-oracle-checkable (score dropped; ambiguity scores are in
    ``links_dataset``)."""
    from ..stages.shuffle import distinct

    links = links_dataset(sf_dir, transcripts).drop_columns(["score"])
    return distinct(links, ["conv_id", "surface", "entity_iri"])


def canonical_graphs_dataset(
    sf_dir: str,
    transcripts: Optional[rd.Dataset] = None,
    hash_name: str = "sha256",
    hndq_call_limit: Optional[int] = None,
) -> rd.Dataset:
    """Per-conversation canonical graphs via the fused fast path: the
    all-to-all exchange moves the transcript rows (``_EXTRACT_COLS``; a
    caller's dataset is projected to them), and extraction, linking and
    RDFC-1.0 run post-shuffle in one kernel call per block
    (``canonicalize_transcripts``).  (The generic quads-table path is
    ``stages.canonicalize.canonicalize_graphs``, used by the N-Quads
    CLI, conformance and the stress corpora.)

    Above ``LINKER_BROADCAST_MAX`` dimension rows the mention surfaces
    resolve via co-partitioned hash joins BEFORE the conversation
    exchange, so that exchange moves the resolved mentions, and the
    bucket kernel runs dict-free — no driver-side dimension state
    (pytest pins byte-equality with the broadcast path)."""
    if _use_partitioned_linker(sf_dir):
        empty_ref = _empty_maps_ref()

        def link_resolved(block):
            return canonicalize_bucket(block, empty_ref, hash_name, hndq_call_limit)

        return exchange_conversations(
            _resolved_mentions(sf_dir, transcripts),
            "conv_id",
            link_resolved,
            default_buckets(),
        )
    maps_ref = _link_maps_ref(sf_dir)

    def extract_and_link(block):
        return canonicalize_transcripts(block, maps_ref, hash_name, hndq_call_limit)

    # one wave: the exchange holds all its input before the P bucket tasks
    return planned(exchange_conversations(
        _extract_input(sf_dir, transcripts), "conv_id", extract_and_link,
        default_buckets(),
    ))


def scaled_transcripts_parquet(
    sf_dir: str, factor: int = 2, cache_root: str = "/tmp/rcr_cache"
) -> str:
    """Deterministic ``factor``× replication of the transcript corpus
    (replica i gets conv_id suffix ``x<i>``, making every replica a
    distinct conversation graph with identical content).  Used by the
    scaling protocol: at a fixed corpus size, a faster engine shows
    *worse* N→4N ratios against the constant serial floor, so the
    scaling evidence runs the same job on a corpus where parallel work
    dominates — without any external data."""
    import pandas as pd

    tag = os.path.basename(os.path.normpath(sf_dir)) + f"x{factor}"

    def dup(batch: pd.DataFrame) -> pd.DataFrame:
        outs = [batch]
        for i in range(1, factor):
            b = batch.copy()
            b["conv_id"] = b["conv_id"] + f"x{i}"
            outs.append(b)
        return pd.concat(outs, ignore_index=True)

    return store.cached(
        os.path.join(cache_root, tag, "transcripts"),
        {"factor": factor, "input": source_fingerprint(sf_dir)},
        lambda tmp: rd.read_parquet(transcripts_parquet(sf_dir, cache_root))
        .map_batches(dup, batch_format="pandas", batch_size=32768)
        .write_parquet(tmp),
    )


def transcripts_parquet_partitioned(
    sf_dir: str,
    num_buckets: int = 128,
    cache_root: str = "/tmp/rcr_cache",
    factor: int = 1,
) -> str:
    """Transcript cache partitioned by conversation hash bucket — the
    production storage layout for conversation logs (one shuffle paid at
    ingest, then every downstream run is conv-co-located and map-only).
    One parquet file per bucket (``store.write_buckets``).  ``factor``
    ingests the deterministic replicated corpus (scaling protocol)."""
    tag = os.path.basename(os.path.normpath(sf_dir))
    if factor > 1:
        tag += f"x{factor}"
    out_dir = os.path.join(cache_root, tag, f"transcripts_by_conv_{num_buckets}")

    def build(tmp: str) -> None:
        source = (
            rd.read_parquet(scaled_transcripts_parquet(sf_dir, factor, cache_root))
            if factor > 1
            else build_transcripts(sf_dir)
        )
        # one wave: the build is a finished plan of P-bounded stages
        store.write_buckets(
            planned(source),
            tmp,
            ["conv_id"],
            num_buckets,
            lambda rows, file: rows.to_parquet(file, index=False),
        )

    return store.cached(
        out_dir,
        {
            "num_buckets": num_buckets,
            "factor": factor,
            "input": source_fingerprint(sf_dir),
        },
        build,
    )


def _canonicalize_part_files(
    maps_ref, hash_name: str, hndq_call_limit: Optional[int]
):
    """Batch fn: conv-bucket part file paths → canonical graph rows.
    The batch's part files are read as one table, and the kernel call
    (``canonicalize_transcripts``) runs ONCE over it: its per-call
    fixed cost is paid per batch, not per file (the map-only flagship
    shared by the partitioned, store-build and incremental paths)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    def process(batch: pd.DataFrame) -> pa.Table:
        if len(batch) == 0:
            return _GRAPH_SCHEMA.empty_table()
        transcripts = pa.concat_tables(
            [pq.read_table(p, columns=_EXTRACT_COLS) for p in batch["path"]]
        )
        return canonicalize_transcripts(
            transcripts, maps_ref, hash_name, hndq_call_limit
        )

    return process


def _graph_store(
    out_dir: str,
    files: dict,
    sf_dir: str,
    hash_name: str,
    hndq_call_limit: Optional[int],
) -> str:
    """The canonical graphs of the conversation layout's part ``files``
    (bucket → file) as a store at ``out_dir``, one store part per file
    (``store.bucket_store``: resumable per part, refuses a foreign
    non-empty ``out_dir``)."""

    def make_part_table():
        process = _canonicalize_part_files(
            _link_maps_ref(sf_dir), hash_name, hndq_call_limit
        )
        return lambda path: process(pd.DataFrame({"path": [path]}))

    return store.bucket_store(out_dir, files, make_part_table)


def canonical_graphs_partitioned(
    sf_dir: str,
    num_buckets: int = 128,
    hash_name: str = "sha256",
    hndq_call_limit: Optional[int] = None,
    factor: int = 1,
) -> rd.Dataset:
    """Map-only flagship over conv-bucket-partitioned transcript storage:
    each task reads a contiguous block of bucket files, extracts, links,
    and canonicalizes their conversations in one kernel call — ZERO
    all-to-all at query time (the shuffle was paid once at ingest). This
    is the 100 TB-scale layout: partition count scales with the corpus,
    tasks scale with the cluster."""
    root = transcripts_parquet_partitioned(sf_dir, num_buckets, factor=factor)
    process = _canonicalize_part_files(
        _link_maps_ref(sf_dir), hash_name, hndq_call_limit
    )
    # one wave: the whole plan is P ≤ cores part tasks
    return planned(store.map_files(store.parts(root), process))


def canonical_store(
    sf_dir: str,
    num_buckets: int = 128,
    delta_mod: int = 8,
    hash_name: str = "sha256",
    cache_root: str = "/tmp/rcr_cache",
) -> str:
    """Persisted canonical-graph store over the BASE conversations
    (conv buckets with ``b % delta_mod != 0``): each base bucket's
    canonical rows land in the store's bucket ``b`` part file
    (``_graph_store``), mirroring the transcript layout, written
    once and reused by every incremental refresh.  At 100 TB this is
    the standing canonical corpus next to the conversation log; the
    delta buckets play 'newly arrived conversations'."""
    tag = os.path.basename(os.path.normpath(sf_dir))
    # hash_name is part of the cache key: a sha256 store must never be
    # served to a sha384 incremental merge
    out_dir = os.path.join(
        cache_root, tag, f"canon_store_{num_buckets}_d{delta_mod}_{hash_name}"
    )
    root = transcripts_parquet_partitioned(sf_dir, num_buckets, cache_root)
    base, _ = store.split_parts(root, delta_mod)
    return _graph_store(out_dir, base, sf_dir, hash_name, None)


def _canonical_delta(
    sf_dir: str, num_buckets: int, delta_mod: int, hash_name: str
) -> rd.Dataset:
    """Canonical graphs of the DELTA buckets (``b % delta_mod == 0``),
    map-only, in bucket order (``store.map_files``)."""
    _, delta = store.split_parts(
        transcripts_parquet_partitioned(sf_dir, num_buckets), delta_mod
    )
    process = _canonicalize_part_files(_link_maps_ref(sf_dir), hash_name, None)
    return store.map_files(delta, process)


def canonical_incremental(
    sf_dir: str,
    num_buckets: int = 128,
    delta_mod: int = 8,
    hash_name: str = "sha256",
) -> rd.Dataset:
    """Incremental flagship canonicalization: the conversations in the
    DELTA buckets (``b % delta_mod == 0`` — the 'new arrivals') are
    canonicalized map-only and merged with the persisted canonical
    store of everything else (``canonical_store``).  Because the store
    mirrors the conv-bucket layout and bucket sets are disjoint, the
    merge is a pure union (the ``snapshot_upsert`` shape with no
    conflicting keys) — a refresh costs O(delta), not O(corpus),
    exactly like ``dedup_incremental``.

    Output: the merged (graph_id, n_quads, n_bnodes, status) sizes
    view over the FULL corpus — equal to a from-scratch rebuild, so it
    shares ``kg_canonical_sizes``'s derivable SQL oracle; byte-level
    equality of the merged canonical documents is pinned in pytest."""
    store_dir = canonical_store(sf_dir, num_buckets, delta_mod, hash_name)
    delta_ds = _canonical_delta(sf_dir, num_buckets, delta_mod, hash_name)
    cols = ["graph_id", "n_quads", "n_bnodes", "status"]

    def project(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[cols]

    # batch_size=None on the delta side keeps the planned delta blocks:
    # a row batch size would fuse every delta block into one task.  The
    # union of the two map-only reads runs as one wave.
    return planned(store.read(store.parts(store_dir), cols).union(
        delta_ds.map_batches(project, batch_format="pandas", batch_size=None)
    ))


def canonical_incremental_full(
    sf_dir: str,
    num_buckets: int = 128,
    delta_mod: int = 8,
) -> rd.Dataset:
    """Full-row merged store ∪ delta (canon_nquads, label_map, …) for
    the byte-equality pytest against the from-scratch rebuild."""
    store_dir = canonical_store(sf_dir, num_buckets, delta_mod)
    delta_ds = _canonical_delta(sf_dir, num_buckets, delta_mod, "sha256")
    return planned(store.read(store.parts(store_dir)).union(delta_ds))


def entity_mention_counts(sf_dir: str) -> rd.Dataset:
    """Cross-partition entity canonicalization stats: mentions per entity
    IRI across all conversations (groupby-aggregate shuffle on the
    canonical key).  Projects the linker's mention-IRI rows directly —
    never expands the 7-quad-per-mention table (same multiset as the
    ``urn:rel:mentions`` quads, ~3× less work and exchange volume)."""
    import numpy as np
    import pandas as pd

    from ..stages.shuffle import grouped_agg

    ments = _link_batches(sf_dir, None, "_mention_rows_arrow")

    def project(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "entity_iri": batch["entity_iri"],
                "n_mentions": np.ones(len(batch), np.int64),
            }
        )

    projected = ments.map_batches(project, batch_format="pandas", batch_size=32768)
    return grouped_agg(projected, ["entity_iri"], {"n_mentions": "sum"})


def entity_degree(sf_dir: str) -> rd.Dataset:
    """Cross-partition entity resolution stat #2: number of DISTINCT
    conversations mentioning each entity (distinct shuffle then grouped
    count — the groupby-aggregate-on-canonical-key pattern).  Uses the
    linker's direct mention-IRI projection (see entity_mention_counts);
    the oracle names the graph key ``conv_id``→``graph_id``."""
    import numpy as np
    import pandas as pd

    from ..stages.shuffle import distinct, grouped_agg

    ments = _link_batches(sf_dir, None, "_mention_rows_arrow")

    def project(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"graph_id": batch["conv_id"], "entity_iri": batch["entity_iri"]}
        ).drop_duplicates()

    pairs = distinct(
        ments.map_batches(project, batch_format="pandas", batch_size=32768),
        ["graph_id", "entity_iri"],
    )

    def ones(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "entity_iri": batch["entity_iri"],
                "n_convs": np.ones(len(batch), np.int64),
            }
        )

    return grouped_agg(
        pairs.map_batches(ones, batch_format="pandas"),
        ["entity_iri"],
        {"n_convs": "sum"},
    )


def hard_graphs(sf_dir: str = "", n_graphs: int = 400) -> rd.Dataset:
    """HNDQ stress corpus: symmetric bnode cycles (every node shares the
    same first-degree hash, forcing the N-degree gossip-path search on
    every graph). Deterministic; sf_dir unused. Returns per-graph status
    + label counts — all must canonicalize ok under the default call
    limit (cycle HNDQ cost is linear, unlike the quarantined clique)."""
    from ..core.terms import BNODE, make_quad

    cycles = [(f"cycle{3 + g % 6}-{g}", 3 + g % 6) for g in range(n_graphs)]  # lengths 3..8
    quads = quads_table(
        (gid, make_quad(BNODE, f"n{i}", "urn:rel:next", BNODE, f"n{(i + 1) % n}"))
        for gid, n in cycles
        for i in range(n)
    )
    return canonicalize_graphs(rd.from_arrow(quads), num_buckets=16)


def run_kg_resumable(
    sf_dir: str,
    output_root: str,
    num_buckets: int = 128,
    hndq_call_limit: Optional[int] = None,
) -> str:
    """The flagship's resumable sink: the canonical graphs of every
    conversation bucket as a store at ``output_root/graphs``, one
    ``store.bucket_store`` part per part file of the conversation layout
    (the ``num_buckets`` cache the partitioned and incremental paths
    read).  A rerun rewrites only the parts that a crash or a failure
    left unpublished or whose layout file changed; a failed part does
    not stop the others.  Returns the store dir (list it with
    ``store.parts``)."""
    root = transcripts_parquet_partitioned(sf_dir, num_buckets)
    return _graph_store(
        os.path.join(output_root, "graphs"), store.parts(root), sf_dir,
        "sha256", hndq_call_limit,
    )


def run_kg_pipeline(
    sf_dir: str,
    output_root: Optional[str] = None,
    hndq_call_limit: Optional[int] = None,
    write_nquads: bool = True,
) -> rd.Dataset:
    """End-to-end flagship run. When ``output_root`` is given, writes

    * ``graphs/``           — the resumable canonical-graph store
      (``run_kg_resumable``),
    * ``triples/``          — the Parquet triple table,
    * ``canonical_nquads/`` — the ordered canonical N-Quads corpus,

    and returns the canonical graphs Dataset read back from the store.
    ``triples/`` and ``canonical_nquads/`` are published whole
    (``store.publish``), so a rerun replaces them instead of adding to
    them.  Without ``output_root`` it returns the shuffle flagship's
    Dataset."""
    if not output_root:
        return canonical_graphs_dataset(sf_dir, hndq_call_limit=hndq_call_limit)
    from ..sources.nquads import write_canonical_nquads

    graphs_dir = run_kg_resumable(sf_dir, output_root, hndq_call_limit=hndq_call_limit)
    store.publish(os.path.join(output_root, "triples"), triples_dataset(sf_dir).write_parquet)
    graphs = store.read(store.parts(graphs_dir))
    if write_nquads:

        def write_corpus(tmp: str) -> None:
            write_canonical_nquads(graphs, tmp)

        store.publish(os.path.join(output_root, "canonical_nquads"), write_corpus)
    return graphs


def conv_stats(sf_dir: str) -> rd.Dataset:
    """Structural statistics of the transcript corpus itself (the
    input_hint table): per conversation — turn count, tool-turn count,
    distinct-role count.  One combiner-first exchange keyed on conv_id
    (a conversation's turns span blocks: user/assistant rows come from
    order batches, tool rows from lineitem batches).  The oracle
    recomputes every value from the RELATIONAL ground truth the
    generator encodes (n_turns = 2 + |lineitems|), closing the loop on
    transcript-corpus ↔ source-table parity.  Output: (conv_id,
    n_turns, n_tool_turns, n_roles)."""
    from ..stages.shuffle import grouped_agg

    ts = rd.read_parquet(
        transcripts_parquet(sf_dir), columns=["conv_id", "role"]
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        role = batch["role"].to_numpy(dtype=object)
        t = pd.DataFrame(
            {
                "conv_id": batch["conv_id"],
                "n_turns": np.ones(len(batch), np.int64),
                "n_tool_turns": (role == "tool").astype(np.int64),
                "has_user": (role == "user").astype(np.int64),
                "has_assistant": (role == "assistant").astype(np.int64),
                "has_tool": (role == "tool").astype(np.int64),
            }
        )
        g = t.groupby("conv_id", sort=False).agg(
            n_turns=("n_turns", "sum"),
            n_tool_turns=("n_tool_turns", "sum"),
            has_user=("has_user", "max"),
            has_assistant=("has_assistant", "max"),
            has_tool=("has_tool", "max"),
        )
        return g.reset_index()

    merged = grouped_agg(
        ts.map_batches(partial, batch_format="pandas", batch_size=65536),
        ["conv_id"],
        {
            "n_turns": "sum",
            "n_tool_turns": "sum",
            "has_user": "max",
            "has_assistant": "max",
            "has_tool": "max",
        },
        num_buckets=32,
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "conv_id": b["conv_id"],
                "n_turns": b["n_turns"].astype(np.int64),
                "n_tool_turns": b["n_tool_turns"].astype(np.int64),
                "n_roles": (
                    b["has_user"] + b["has_assistant"] + b["has_tool"]
                ).astype(np.int64),
            }
        )

    return merged.map_batches(finish, batch_format="pandas")


def role_transitions(sf_dir: str) -> rd.Dataset:
    """Dialogue-structure analytics over the transcript corpus: the
    global role-transition matrix — for every adjacent turn pair in a
    conversation's (turn_idx, text) order, count (prev_role → role).
    The conv bucket owns a conversation's turns (they arrive from
    different source batches), sorts them once and shifts — the same
    per-key ordered kernel as sessionization.  The oracle recomputes
    the matrix from RELATIONAL ground truth (role sequence = user,
    assistant, tool × |lineitems|), closing the transcript ↔ table
    loop like ``conv_stats``.  Output: (r1, r2, n_transitions)."""
    from ..stages.shuffle import bucketed_map_groups, grouped_agg

    ts = rd.read_parquet(
        transcripts_parquet(sf_dir),
        columns=["conv_id", "turn_idx", "role", "text"],
    )

    def per_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.sort_values(
            ["conv_id", "turn_idx", "text"], kind="mergesort"
        )
        g = b.groupby("conv_id", sort=False)
        prev = g["role"].shift(1)
        m = prev.notna()
        t = pd.DataFrame(
            {
                "r1": prev[m].to_numpy(dtype=object),
                "r2": b.loc[m, "role"].to_numpy(dtype=object),
                "n_transitions": np.ones(int(m.sum()), np.int64),
            }
        )
        return t.groupby(["r1", "r2"], sort=False).sum().reset_index()

    return grouped_agg(
        bucketed_map_groups(ts, ["conv_id"], per_bucket, num_buckets=16),
        ["r1", "r2"],
        {"n_transitions": "sum"},
        num_buckets=2,
    )


def tool_latency(sf_dir: str) -> rd.Dataset:
    """Agent-telemetry latency: per conversation, seconds between the
    assistant turn and the FIRST tool call (ordered by ts then
    turn_idx) — the responsiveness metric an agent-infra dashboard
    tracks.  One conv-keyed exchange; the per-conversation resolve is
    a vectorized grouped min.  Conversations without tool calls are
    absent (inner semantics).  The oracle recomputes the latency from
    the relational ground truth the generator encodes (tool ts =
    l_shipdate + 60·l_linenumber, assistant ts = o_orderdate + 60 s).
    Output: (conv_id, latency_s)."""
    from ..stages.shuffle import bucketed_map_groups

    ts = rd.read_parquet(
        transcripts_parquet(sf_dir), columns=["conv_id", "role", "ts"]
    )

    def per_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        a = (
            bucket[bucket["role"] == "assistant"]
            .groupby("conv_id", sort=False)["ts"]
            .min()
        )
        t = (
            bucket[bucket["role"] == "tool"]
            .groupby("conv_id", sort=False)["ts"]
            .min()
        )
        j = pd.concat({"a": a, "t": t}, axis=1).dropna()
        lat = (
            j["t"].astype("datetime64[us]").astype(np.int64)
            - j["a"].astype("datetime64[us]").astype(np.int64)
        ) // 1_000_000
        return pd.DataFrame(
            {"conv_id": j.index.to_numpy(), "latency_s": lat.to_numpy(np.int64)}
        )

    return bucketed_map_groups(ts, ["conv_id"], per_bucket, num_buckets=16)


def render_conversations(sf_dir: str) -> rd.Dataset:
    """SFT-data rendering: assemble each conversation into one training
    document — turns ordered by (turn_idx, text), each rendered as
    ``role: text`` and joined with newlines.  The conv bucket owns a
    conversation's turns; the in-bucket assembly is a vectorized
    string-concat + per-conv join (no Python loop over turns beyond
    the final ''.join of each conv's ≤9 pieces).  Text carries
    newlines, so the driver compare is rows-only; byte-level equality
    against an independent pandas rendering is pinned in pytest.
    Output: (conv_id, text, n_turns)."""
    from ..stages.shuffle import bucketed_map_groups

    ts = rd.read_parquet(
        transcripts_parquet(sf_dir), columns=["conv_id", "turn_idx", "role", "text"]
    )

    def per_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.sort_values(
            ["conv_id", "turn_idx", "text"], kind="mergesort"
        )
        piece = b["role"].to_numpy(dtype=object) + ": " + b["text"].to_numpy(
            dtype=object
        )
        g = pd.DataFrame({"conv_id": b["conv_id"].to_numpy(), "p": piece}).groupby(
            "conv_id", sort=False
        )["p"]
        rendered = g.agg("\n".join)
        counts = g.size()
        return pd.DataFrame(
            {
                "conv_id": rendered.index.to_numpy(),
                "text": rendered.to_numpy(dtype=object),
                "n_turns": counts.to_numpy(np.int64),
            }
        )

    return bucketed_map_groups(ts, ["conv_id"], per_bucket, num_buckets=16)
