"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module:
nothing here (or in the library) calls ``ray.init`` / ``ray.shutdown``.

``queries()`` exposes one entry per implemented operator/pipeline from
SURVEY.md §2; ``oracle_sql()`` provides the DuckDB-checkable subset.
Non-SQL-expressible operators (RDFC-1.0 canonicalization itself, minhash
sketches, …) are rows-only checked here and bit-exactly checked against
the W3C conformance suite + reference fixtures in ``tests/``.
"""

from __future__ import annotations

import os
import sys

from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from rdf_canon_ray.runtime import ensure_importable

ensure_importable()

SF_SMOKE = "/root/testdata/sf0.001"


def _sliding_sql(slide_min: int, n_windows: int) -> str:
    """Sliding-window oracle for any (slide, window/slide) pair."""
    return f"""
WITH g AS (
  SELECT event_type, value,
         time_bucket(INTERVAL {slide_min} MINUTE, ts) AS grid
  FROM events
), rep AS (
  SELECT event_type, value,
         grid - (j * INTERVAL {slide_min} MINUTE) AS window_start
  FROM (SELECT *, UNNEST(generate_series(0, {n_windows - 1})) AS j FROM g)
)
SELECT event_type, window_start,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       ROUND(SUM(value), 6) AS sum_value
FROM rep GROUP BY 1, 2
"""


def entry() -> Any:
    """Flagship pipeline at sf0.001: transcripts → extraction → linking →
    per-graph RDFC-1.0 canonicalization. Returns the canonical-graphs
    Dataset (one row per conversation)."""
    from rdf_canon_ray.pipelines import kg

    return kg.canonical_graphs_dataset(SF_SMOKE)


def _w3c_conformance(sf_dir: str) -> Any:
    """Distributed W3C rdfc10 conformance run (fixture-driven; sf_dir
    unused), aggregated to oracle-checkable per-kind pass counts: the
    DuckDB oracle pins (kind, n_tests, n_passed) to the manifest totals,
    so a value-hash match proves 86/86."""
    from rdf_canon_ray.pipelines.conformance import conformance_summary

    return conformance_summary(sf_dir)


def _hard_graphs(sf_dir: str) -> Any:
    """HNDQ stress cycles projected to the invariant view (graph_id,
    n_quads, n_bnodes, status) — all derivable in SQL from the cycle
    construction, so the stress run is oracle-checked end to end."""
    from rdf_canon_ray.pipelines import kg

    ds = kg.hard_graphs(sf_dir)

    def project(batch):
        return batch[["graph_id", "n_quads", "n_bnodes", "status"]]

    return ds.map_batches(project, batch_format="pandas", batch_size=4096)


def _skewed_graphs(sf_dir: str) -> Any:
    """Zipf-skewed + unicode-torture transcript corpus (synthetic,
    deterministic; sf_dir unused): canonicalization under conv_id skew."""
    from rdf_canon_ray.transcripts.gen_skewed import skewed_canonical_graphs

    return skewed_canonical_graphs(sf_dir)


def _partitioned_sizes(sf_dir: str) -> Any:
    """Invariant view of the MAP-ONLY flagship path (conv-partitioned
    storage): same derivable (graph_id, n_quads, n_bnodes, status)
    formulas as ``kg_canonical_sizes``, so the zero-shuffle production
    layout is oracle-checked end to end, not only byte-compared to the
    shuffle path in pytest."""
    from rdf_canon_ray.pipelines import kg

    ds = kg.canonical_graphs_partitioned(sf_dir)

    def project(batch):
        return batch.select(["graph_id", "n_quads", "n_bnodes", "status"])

    return ds.map_batches(project, batch_format="pyarrow", batch_size=8192)


def _skewed_sizes(sf_dir: str) -> Any:
    """Invariant view of the skewed run, oracle-checked against the
    generator's persisted per-conversation turn counts."""
    from rdf_canon_ray.transcripts.gen_skewed import skewed_canonical_sizes

    return skewed_canonical_sizes(sf_dir)


def queries() -> dict[str, Callable[[str], Any]]:
    from rdf_canon_ray.pipelines import analytics, corpus, graph, kg

    return {
        # --- Round-5 rotation (documented in COVERAGE.md): the driver
        # samples the FIRST 50 keys for its side-by-side oracle check.
        # Rounds 1-4 always sampled the kg + analytics head, so the
        # dedup/ANN/multimodal/web/text families never appeared in any
        # CORRECTNESS_r*.json. This ordering keeps 10 kg/canonical
        # sentinels up front, then fills the sample with those families.
        # Per-family groupings below are unchanged otherwise.
        # 10 sentinels:
        "w3c_conformance": _w3c_conformance,
        "kg_triples": lambda sf: kg.triples_dataset(sf),
        "kg_canonical_graphs": lambda sf: kg.canonical_graphs_dataset(sf),
        "kg_canonical_sizes": lambda sf: kg.canonical_sizes(sf),
        "kg_canonical_partitioned_sizes": _partitioned_sizes,
        "kg_canonical_incremental": lambda sf: kg.canonical_incremental(sf),
        "rdfc_labels": lambda sf: kg.label_invariants(sf),
        "kg_skewed_sizes": _skewed_sizes,
        "conv_stats": kg.conv_stats,
        "kg_pagerank": lambda sf: graph.pagerank(sf),
        # dedup family (never driver-checked before round 5)
        "dedup_exact": corpus.dedup_exact,
        "dedup_minhash_pairs": corpus.minhash_pairs,
        "dedup_minhash_groups": corpus.minhash_groups,
        "dedup_simhash_pairs": corpus.simhash_pairs,
        "dedup_ngram_jaccard": corpus.ngram_jaccard_pairs,
        "dedup_embedding_pairs": corpus.embedding_near_dups,
        "dedup_clean": corpus.dedup_clean,
        "leakage_safe_split": corpus.leakage_safe_split,
        "curate_corpus": corpus.curate_corpus,
        "curated_split_counts": corpus.curated_split_counts,
        "containment_pairs": corpus.containment_pairs,
        "corpus_diff": corpus.corpus_diff,
        "snapshot_upsert": corpus.snapshot_upsert,
        "uniform_sample": corpus.uniform_sample,
        "lang_source_chi2": corpus.lang_source_chi2,
        "dedup_incremental": corpus.dedup_incremental,
        # similarity search family (never driver-checked before round 5)
        "ann_topk": corpus.ann_topk,
        "ann_knn_join": corpus.knn_refset,
        "ann_lsh_topk": corpus.ann_lsh_topk,
        "ann_ivf_topk": corpus.ann_ivf_topk,
        "ann_ivf_persisted": corpus.ann_ivf_persisted,
        "embed_quantized": corpus.embed_quantized,
        "label_centroids": corpus.label_centroids,
        "embed_zscore": corpus.embedding_zscore_checksums,
        "embed_covariance": corpus.embed_covariance,
        # multimodal plumbing family (never driver-checked before round 5)
        "media_features": corpus.media_feature_table,
        "media_feature_sums": corpus.media_feature_sums,
        "media_resized": corpus.media_resized,
        "media_resized_sums": corpus.media_resized_sums,
        "media_frames": corpus.media_frames,
        "media_audio_resampled": corpus.media_audio_resampled,
        "media_stats": corpus.media_stats,
        "media_dhash": corpus.media_dhash,
        "media_dhash_pairs": corpus.media_dhash_pairs,
        # web-text curation family (never driver-checked before round 5)
        "pii_redact": corpus.pii_redact,
        "line_dedup": corpus.line_dedup,
        "web_domain_stats": corpus.web_domain_stats,
        # text-analysis picks to round out the 50-row sample
        "tfidf_top_terms": analytics.tfidf_top_terms,
        "token_stats": corpus.token_stats,
        "pack_sequences": corpus.pack_sequences,
        # --- end of driver sample window ---
        # text analysis family (remainder)
        "chunk_documents": corpus.chunk_documents,
        "quality_scores": corpus.quality_scores,
        "lang_id": corpus.lang_id,
        "fingerprints": corpus.fingerprints,
        "hash_split": corpus.hash_split,
        "repetition_stats": corpus.repetition_stats,
        "decontaminate": corpus.decontaminate,
        "stratified_sample": corpus.stratified_sample,
        "mix_sources": corpus.mix_sources,
        "weighted_sample": corpus.weighted_sample,
        "top_quality_docs": corpus.top_quality_docs,
        "shuffle_order": corpus.shuffle_order,
        # knowledge-graph construction family (SURVEY.md §2.1-2.2)
        "kg_entity_mentions": lambda sf: kg.entity_mention_counts(sf),
        "kg_links": lambda sf: kg.distinct_links_dataset(sf),
        "kg_links_scored": lambda sf: kg.scored_links_dataset(sf),
        "kg_canonical_sha384": lambda sf: kg.canonical_graphs_dataset(
            sf, hash_name="sha384"
        ),
        "kg_canonical_partitioned": lambda sf: kg.canonical_graphs_partitioned(sf),
        "rdfc_label_maps": lambda sf: kg.canonical_labels_dataset(sf),
        "kg_skewed_graphs": _skewed_graphs,
        "kg_entity_degree": lambda sf: kg.entity_degree(sf),
        "kg_comention_edges": lambda sf: graph.comention_edges(sf),
        "kg_comention_incremental": lambda sf: graph.comention_incremental(
            sf
        ),
        "kg_comention_pmi": lambda sf: graph.comention_pmi(sf),
        "kg_bfs_depths": lambda sf: graph.bfs_depths(sf),
        "role_transitions": kg.role_transitions,
        "tool_latency": kg.tool_latency,
        "conv_rendered": kg.render_conversations,
        "kg_triangles": lambda sf: graph.triangle_counts(sf),
        "rdfc_hard_graphs": _hard_graphs,
        # relational / wide-op family (§2.4 aggregations, joins, sorts)
        "pricing_summary": analytics.pricing_summary,
        "top_customers": analytics.top_customers,
        "events_hourly": analytics.events_hourly,
        "events_hourly_users": analytics.events_hourly_users,
        "event_type_overlap": analytics.event_type_overlap,
        "audience_setops": analytics.audience_setops,
        "events_type_ntile": analytics.events_type_ntile,
        "events_winsorized": analytics.events_winsorized,
        "weekly_active_users": analytics.weekly_active_users,
        "events_global_rownum": analytics.events_global_rownum,
        "global_value_median": analytics.global_value_median,
        "events_hourly_filled": analytics.events_hourly_filled,
        "events_hourly_incremental": analytics.events_hourly_incremental,
        "source_token_entropy": analytics.source_token_entropy,
        "events_ts_pruned": analytics.events_ts_pruned,
        "events_debounced": analytics.events_debounced,
        "docs_by_source": analytics.docs_by_source,
        "docs_by_source_jsonl": analytics.docs_by_source_jsonl,
        "docs_by_source_csv": analytics.docs_by_source_csv,
        "orders_by_nation": analytics.orders_by_nation,
        "local_supplier_volume": analytics.local_supplier_volume,
        "shipping_priority": analytics.shipping_priority,
        "events_prev": analytics.events_prev,
        "events_running_total": analytics.events_running_total,
        "events_moving_avg": analytics.events_moving_avg,
        "source_len_token_corr": analytics.source_len_token_corr,
        "customer_order_counts": analytics.customer_order_counts,
        "events_type_pivot": analytics.events_type_pivot,
        "orders_rollup": analytics.orders_rollup,
        "length_quartiles": analytics.length_quartiles,
        "value_quantiles": analytics.value_quantiles,
        "funnel_completions": analytics.funnel_completions,
        "props_k_stats": analytics.props_k_stats,
        "latest_event_per_user": analytics.latest_event_per_user,
        "docs_above_avg": analytics.docs_above_avg,
        "orders_priority_share": analytics.orders_priority_share,
        "events_dow_hour": analytics.events_dow_hour,
        "user_retention": analytics.user_retention,
        "user_top_event_type": analytics.user_top_event_type,
        "heavy_hitters": analytics.heavy_hitters,
        "monthly_revenue_growth": analytics.monthly_revenue_growth,
        "top_bigram_pmi": analytics.top_bigram_pmi,
        "fuzzy_name_pairs": corpus.fuzzy_name_pairs,
        "customers_no_urgent_orders": analytics.customers_no_urgent_orders,
        "events_value_percentile": analytics.events_value_percentile,
        "search_topk": analytics.search_topk,
        "search_bm25": analytics.search_bm25,
        "doc_unigram_xent": analytics.doc_unigram_xent,
        "events_cube": analytics.events_cube,
        "orders_profile": analytics.orders_profile,
        "orders_price_rank": analytics.orders_price_rank,
        "documents_profile": analytics.documents_profile,
        "events_value_mad": analytics.events_value_mad,
        "normalized_text_keys": analytics.normalized_text_keys,
        "orders_automobile": analytics.orders_automobile,
        "orders_automobile_bloom": analytics.orders_automobile_bloom,
        "events_sessions": analytics.events_sessions,
        "events_sliding": analytics.events_sliding,
        "events_sliding30": lambda sf: analytics.events_sliding(
            sf, window_s=1800, slide_s=600
        ),
        "top_terms": analytics.top_terms,
        "doc_freq": analytics.doc_freq,
        "token_zipf_alpha": analytics.token_zipf_alpha,
        "dup_trigram_stats": analytics.dup_trigram_stats,
        "bpe_pair_counts": analytics.bpe_pair_counts,
        "inverted_index": analytics.inverted_index,
        "distinct_terms_by_source": analytics.distinct_terms_by_source,
        "approx_distinct_terms": analytics.approx_distinct_terms,
        "events_price_band": analytics.events_price_band,
        "events_price_floor": analytics.events_price_floor,
        "quality_filtered": analytics.quality_filtered,
        "length_quantiles": analytics.length_quantiles,
    }


def oracle_sql() -> dict[str, str]:
    from rdf_canon_ray.pipelines.conformance import REF_TESTS
    from rdf_canon_ray.pipelines.corpus import (
        media_corpus_parquet,
        web_corpus_parquet,
    )
    from rdf_canon_ray.stages.webtext import EMAIL_RE, IPV4_RE, PHONE_RE
    from rdf_canon_ray.stages.text import _LANG_PROFILES, _STOP_EN
    from rdf_canon_ray.transcripts.gen_skewed import skewed_lengths_parquet

    media_pq = media_corpus_parquet()  # same parquet the media queries read
    web_pq = web_corpus_parquet()  # same parquet the web-curation queries read
    skew_pq = skewed_lengths_parquet()  # generator ground truth for skew
    # counted by DuckDB at check time: building the registry never
    # opens the reference checkout, and checking this oracle without it
    # fails naming the manifest path
    conf_manifest = os.path.join(REF_TESTS, "manifest.jsonld")
    stop_list = ", ".join(f"'{w}'" for w in sorted(_STOP_EN))
    lang_counts = {
        lang: " + ".join(
            f"(CASE WHEN strpos(lower(text), '{g}') > 0 THEN 1 ELSE 0 END)"
            for g in sorted(prof)
        )
        for lang, prof in _LANG_PROFILES.items()
    }
    # first lang (profile insertion order) at the max wins; 0 → 'unk'
    lang_order = list(_LANG_PROFILES)
    lang_case = " ".join(
        f"WHEN n_{lang} = mx THEN '{lang}'" for lang in lang_order
    )
    # per-order tool-turn ground truth: L = lineitem rows, d = distinct
    # tool-turn texts (text is a function of these five fields)
    per_order = """
per_order AS (
  SELECT l_orderkey AS okey, COUNT(*) AS L,
         COUNT(DISTINCT (l_linenumber, p_name, p_brand, s_name,
                         CAST(l_quantity AS BIGINT))) AS d
  FROM lineitem
  JOIN part ON l_partkey = p_partkey
  JOIN supplier ON l_suppkey = s_suppkey
  GROUP BY 1
)"""
    part_resolved = """
part_resolved AS (
  SELECT p_name, p_brand, MIN(p_partkey) AS pk FROM part GROUP BY 1, 2
)"""
    # (conv, entity) mention pairs — shared by the degree / co-mention /
    # pagerank oracles (mirrors the linker's entity IRI scheme)
    mention_m = """
m AS (
  SELECT 'conv-' || o_orderkey AS conv_id, 'urn:e:cust:' || o_custkey AS entity_iri
  FROM orders
  UNION ALL
  SELECT 'conv-' || o_orderkey, 'urn:e:order:' || o_orderkey FROM orders
  UNION ALL
  SELECT 'conv-' || l_orderkey, 'urn:e:order:' || l_orderkey FROM lineitem
  UNION ALL
  SELECT 'conv-' || l_orderkey, 'urn:e:part:' || pr.pk
  FROM lineitem l
  JOIN part p ON l.l_partkey = p.p_partkey
  JOIN part_resolved pr ON p.p_name = pr.p_name AND p.p_brand = pr.p_brand
  UNION ALL
  SELECT 'conv-' || l_orderkey, 'urn:e:supp:' || l_suppkey FROM lineitem
),
me AS (SELECT DISTINCT conv_id, entity_iri FROM m),
ed AS (
  SELECT DISTINCT a.entity_iri AS e1, b.entity_iri AS e2
  FROM me a JOIN me b
    ON a.conv_id = b.conv_id AND a.entity_iri < b.entity_iri
)"""
    # fixed-iteration PageRank: chained CTEs replay the engine's exact
    # update r = 0.15 + 0.85 * SUM(r_src / deg_src), mean-1 init
    pr_iters = 5
    pr_chain = "".join(
        f""",
pr{i + 1} AS (
  SELECT e.dst AS node, 0.15 + 0.85 * SUM(p.r / g.d) AS r
  FROM edges e
  JOIN pr{i} p ON e.src = p.node
  JOIN deg g ON e.src = g.src
  GROUP BY e.dst
)"""
        for i in range(pr_iters)
    )
    extra = {
        "w3c_conformance": f"""
SELECT kind, COUNT(*) AS n_tests, COUNT(*) AS n_passed
FROM (
  SELECT CASE unnest(entries) ->> 'type'
           WHEN 'rdfc:RDFC10EvalTest' THEN 'eval'
           WHEN 'rdfc:RDFC10MapTest' THEN 'map'
           ELSE 'negative' END AS kind
  FROM read_json('{conf_manifest}', columns = {{entries: 'JSON[]'}})
)
GROUP BY kind
""",
        "kg_skewed_sizes": f"""
SELECT conv_id AS graph_id,
       CAST(6 * n_turns AS BIGINT) AS n_quads,
       CAST(n_turns + 1 AS BIGINT) AS n_bnodes,
       'ok' AS status
FROM read_parquet('{skew_pq}')
""",
        "rdfc_hard_graphs": """
SELECT 'cycle' || CAST(3 + (g % 6) AS VARCHAR) || '-' || CAST(g AS VARCHAR)
         AS graph_id,
       CAST(3 + (g % 6) AS BIGINT) AS n_quads,
       CAST(3 + (g % 6) AS BIGINT) AS n_bnodes,
       'ok' AS status
FROM generate_series(0, 399) t(g)
""",
        "kg_canonical_partitioned_sizes": f"""
WITH {per_order}
SELECT 'conv-' || o_orderkey AS graph_id,
       CAST(14 + 7 * COALESCE(L, 0) + 2 * COALESCE(d, 0) AS BIGINT) AS n_quads,
       CAST(3 + COALESCE(d, 0) AS BIGINT) AS n_bnodes,
       'ok' AS status
FROM orders LEFT JOIN per_order ON o_orderkey = okey
""",
        "kg_canonical_sizes": f"""
WITH {per_order}
SELECT 'conv-' || o_orderkey AS graph_id,
       CAST(14 + 7 * COALESCE(L, 0) + 2 * COALESCE(d, 0) AS BIGINT) AS n_quads,
       CAST(3 + COALESCE(d, 0) AS BIGINT) AS n_bnodes,
       'ok' AS status
FROM orders LEFT JOIN per_order ON o_orderkey = okey
""",
        # incremental refresh (persisted base store ∪ new-conversation
        # delta) must equal a from-scratch rebuild — same derivable
        # invariants as kg_canonical_sizes over the FULL corpus
        "kg_canonical_incremental": f"""
WITH {per_order}
SELECT 'conv-' || o_orderkey AS graph_id,
       CAST(14 + 7 * COALESCE(L, 0) + 2 * COALESCE(d, 0) AS BIGINT) AS n_quads,
       CAST(3 + COALESCE(d, 0) AS BIGINT) AS n_bnodes,
       'ok' AS status
FROM orders LEFT JOIN per_order ON o_orderkey = okey
""",
        "rdfc_labels": f"""
WITH {per_order}
SELECT 'conv-' || o_orderkey AS conv_id,
       CAST(3 + COALESCE(d, 0) AS BIGINT) AS n_labels,
       CAST(3 + COALESCE(d, 0) AS BIGINT) AS n_c14n,
       TRUE AS seq_ok
FROM orders LEFT JOIN per_order ON o_orderkey = okey
""",
        "events_sessions": """
WITH e AS (
  SELECT event_id, user_id, ts,
         CASE WHEN ts - LAG(ts) OVER (
                PARTITION BY user_id ORDER BY ts, event_id
              ) > INTERVAL 1800 SECOND THEN 1 ELSE 0 END AS brk
  FROM events
)
SELECT event_id, user_id,
       CAST(SUM(brk) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
       ) AS BIGINT) AS session_idx
FROM e
""",
        "events_sliding": _sliding_sql(15, 4),
        "events_sliding30": _sliding_sql(10, 3),
        "events_price_band": """
SELECT e.event_id, CAST(COUNT(*) AS BIGINT) AS n_parts
FROM events e JOIN part p
  ON p.p_retailprice >= 100 * e.value - 5
 AND p.p_retailprice <  100 * e.value + 5
GROUP BY 1
""",
        "events_price_floor": """
WITH pp AS (
  SELECT p_retailprice AS price, MAX(p_partkey) AS pk
  FROM part GROUP BY 1
)
SELECT e.event_id,
       COALESCE(pp.pk, -1) AS floor_partkey,
       COALESCE(ROUND(pp.price, 4), -1.0) AS floor_price
FROM events e ASOF LEFT JOIN pp ON pp.price <= 100 * e.value
""",
        "doc_freq": """
SELECT term, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
FROM (
  SELECT doc_id, UNNEST(regexp_extract_all(text, '\\S+')) AS term
  FROM documents
)
GROUP BY term
""",
        "inverted_index": """
WITH p AS (
  SELECT DISTINCT doc_id, term FROM (
    SELECT doc_id, UNNEST(regexp_extract_all(text, '\\S+')) AS term
    FROM documents
  )
), r AS (
  SELECT doc_id, term,
         ROW_NUMBER() OVER (PARTITION BY term ORDER BY doc_id) AS rn
  FROM p
)
SELECT term, CAST(COUNT(*) AS BIGINT) AS df,
       string_agg(CASE WHEN rn <= 10000 THEN CAST(doc_id AS VARCHAR) END,
                  ',' ORDER BY doc_id) AS postings
FROM r GROUP BY term
""",
        "distinct_terms_by_source": """
SELECT source, CAST(COUNT(DISTINCT term) AS BIGINT) AS distinct_terms
FROM (
  SELECT source, UNNEST(regexp_extract_all(text, '\\S+')) AS term
  FROM documents
)
GROUP BY source
""",
        "tfidf_top_terms": """
WITH terms AS (
  SELECT doc_id, UNNEST(regexp_extract_all(text, '\\S+')) AS term
  FROM documents
), tf AS (
  SELECT doc_id, term, COUNT(*) AS tf FROM terms GROUP BY 1, 2
), df AS (
  SELECT term, COUNT(DISTINCT doc_id) AS df FROM terms GROUP BY 1
), n AS (SELECT COUNT(*) AS n FROM documents),
scored AS (
  SELECT tf.doc_id, tf.term, tf.tf * ln(CAST(n.n AS DOUBLE) / df.df) AS s
  FROM tf JOIN df USING (term) CROSS JOIN n
), ranked AS (
  SELECT doc_id, term, s,
         ROW_NUMBER() OVER (
           PARTITION BY doc_id ORDER BY s DESC, term
         ) AS "rank"
  FROM scored
)
SELECT doc_id, CAST("rank" AS BIGINT) AS "rank", term, ROUND(s, 6) AS score
FROM ranked WHERE "rank" <= 3
""",
        "top_terms": """
SELECT term, CAST(COUNT(*) AS BIGINT) AS n
FROM (SELECT UNNEST(regexp_extract_all(text, '\\S+')) AS term FROM documents)
GROUP BY term
ORDER BY n DESC, term ASC
LIMIT 100
""",
        # OLS slope of ln(freq) on ln(rank) over the top-100 terms;
        # regr_slope(y, x) = covar_pop/var_pop == the numpy normal-eq
        # form, ties ranked (n DESC, term) on both sides, 6 dp
        "token_zipf_alpha": """
WITH c AS (
  SELECT term, COUNT(*) AS n
  FROM (SELECT UNNEST(regexp_extract_all(text, '\\S+')) AS term FROM documents)
  GROUP BY term
), r AS (
  SELECT n, ROW_NUMBER() OVER (ORDER BY n DESC, term ASC) AS rnk FROM c
)
SELECT round_even(regr_slope(ln(CAST(n AS DOUBLE)), ln(CAST(rnk AS DOUBLE))), 6)
         AS alpha,
       CAST(COUNT(*) AS BIGINT) AS n_terms
FROM r WHERE rnk <= 100
""",
        # first BPE merge iteration: within-word adjacent char pairs
        # weighted by corpus word counts, top-k merge candidates
        "bpe_pair_counts": """
WITH wc AS (
  SELECT word, COUNT(*) AS c
  FROM (SELECT UNNEST(regexp_extract_all(text, '\\S+')) AS word FROM documents)
  GROUP BY word
), ch AS (
  SELECT c, string_split(word, '') AS s FROM wc
), p AS (
  SELECT c, UNNEST(list_transform(
           list_zip(s[1:len(s)-1], s[2:len(s)]), z -> z[1] || z[2])) AS pair
  FROM ch WHERE len(s) >= 2
)
SELECT pair, CAST(SUM(c) AS BIGINT) AS n
FROM p GROUP BY pair
ORDER BY n DESC, pair ASC
LIMIT 20
""",
        # duplicate-span signal: distinct word trigrams per doc
        # (list_zip of three equal-length slices), document frequency
        # per trigram, dup = appears in >= 2 documents
        "dup_trigram_stats": """
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS t FROM documents
), tri AS (
  SELECT doc_id, list_distinct(list_transform(
           list_zip(t[1:len(t)-2], t[2:len(t)-1], t[3:len(t)]),
           z -> z[1] || ' ' || z[2] || ' ' || z[3])) AS tris
  FROM toks WHERE len(t) >= 3
), x AS (
  SELECT doc_id, UNNEST(tris) AS tri FROM tri
), df AS (
  SELECT tri, COUNT(*) AS d FROM x GROUP BY tri
)
SELECT x.doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_tri,
       CAST(SUM(CASE WHEN df.d >= 2 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup,
       round_even(CAST(SUM(CASE WHEN df.d >= 2 THEN 1 ELSE 0 END) AS DOUBLE)
             / COUNT(*), 6) AS dup_frac
FROM x JOIN df USING (tri)
GROUP BY x.doc_id
""",
        "quality_scores": f"""
WITH q AS (
  SELECT doc_id,
         GREATEST(LENGTH(text), 1) AS n_chars,
         regexp_extract_all(lower(text), '[a-z0-9]+(?:''[a-z]+)?') AS toks,
         CAST(LENGTH(regexp_extract_all(text, '[^\\w\\s]')) AS DOUBLE)
           / GREATEST(LENGTH(text), 1) AS punct_ratio,
         CAST(LENGTH(regexp_extract_all(text, '[A-Z]')) AS DOUBLE)
           / GREATEST(LENGTH(text), 1) AS upper_ratio
  FROM documents
), r AS (
  SELECT doc_id, n_chars, punct_ratio, upper_ratio,
         CAST(LENGTH(list_filter(toks, t -> t IN ({stop_list}))) AS DOUBLE)
           / GREATEST(LENGTH(toks), 1) AS stop_ratio,
         COALESCE(list_avg(list_transform(toks, t -> LENGTH(t))), 0.0)
           AS mean_token_len
  FROM q
)
SELECT doc_id,
       round_even(stop_ratio, 6) AS stop_ratio,
       round_even(punct_ratio, 6) AS punct_ratio,
       round_even(upper_ratio, 6) AS upper_ratio,
       round_even(mean_token_len, 6) AS mean_token_len,
       round_even((LEAST(n_chars, 500) / 500.0
              + LEAST(GREATEST(mean_token_len - 2.0, 0), 5) / 5.0
              + 1.0 - LEAST(GREATEST(punct_ratio, 0), 0.5) * 2
              + LEAST(GREATEST(stop_ratio, 0), 0.4) / 0.4) / 4.0, 6)
         AS quality
FROM r
""",
        "lang_id": f"""
WITH c AS (
  SELECT doc_id,
         {", ".join(f"{expr} AS n_{lang}" for lang, expr in lang_counts.items())}
  FROM documents
), m AS (
  SELECT doc_id, {", ".join(f"n_{lang}" for lang in lang_order)},
         GREATEST({", ".join(f"n_{lang}" for lang in lang_order)}) AS mx
  FROM c
)
SELECT doc_id,
       CASE WHEN mx = 0 THEN 'unk' {lang_case} END AS lang_pred
FROM m
""",
        "fingerprints": """
WITH d AS (
  SELECT doc_id, text, LENGTH(text) AS n FROM documents
)
SELECT doc_id,
       substr(md5(text), 1, 16) AS content_hash,
       CAST(list_min(list_transform(
         generate_series(1, n - 15),
         s -> list_reduce(
                list_transform(generate_series(s, s + 15),
                               j -> CAST(unicode(substr(text, j, 1)) AS HUGEINT)),
                (a, b) -> (a * 257 + b) % 2305843009213693951)
       )) AS UBIGINT) AS rolling_min_fp
FROM d
""",
        "dedup_simhash_pairs": """
WITH toks AS (
  SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS w
  FROM (
    SELECT doc_id, UNNEST(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
    FROM documents
  ) GROUP BY doc_id, term
),
th AS (SELECT doc_id, term, w, md5(term) AS h FROM toks),
bits AS (
  SELECT doc_id, bb.b AS b,
         SUM(CASE WHEN ((('0x' || substr(h, 2 * (7 - bb.b // 8) + 1, 2))::INT
                         >> (bb.b % 8)) & 1) = 1 THEN w ELSE -w END) AS acc
  FROM th CROSS JOIN (SELECT UNNEST(range(0, 64)) AS b) bb
  GROUP BY doc_id, bb.b
),
fpbytes AS (
  SELECT doc_id, (7 - b // 8) AS byte_i,
         CAST(SUM(CASE WHEN acc > 0 THEN (1 << (b % 8)) ELSE 0 END) AS INT) AS byte_v
  FROM bits GROUP BY doc_id, byte_i
),
fp AS (
  SELECT doc_id, list(byte_v ORDER BY byte_i) AS bytes FROM fpbytes GROUP BY doc_id
),
pairs AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b,
         CAST(list_sum(list_transform(range(1, 9),
              i -> bit_count(xor(a.bytes[i], b.bytes[i])))) AS BIGINT) AS hamming
  FROM fp a JOIN fp b ON a.doc_id < b.doc_id
)
SELECT id_a, id_b, hamming FROM pairs WHERE hamming <= 3
""",
        "dedup_ngram_jaccard": """
WITH d AS (
  SELECT doc_id, text,
         regexp_extract_all(text, '\\S+') AS w
  FROM documents
), s AS (
  SELECT doc_id,
         CASE WHEN LENGTH(w) < 3
              THEN [text]
              ELSE list_distinct(list_transform(
                     generate_series(1, LENGTH(w) - 2),
                     i -> w[i] || ' ' || w[i + 1] || ' ' || w[i + 2]))
         END AS sh
  FROM d
), p AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b,
         CAST(LENGTH(list_intersect(a.sh, b.sh)) AS DOUBLE)
           / (LENGTH(a.sh) + LENGTH(b.sh)
              - LENGTH(list_intersect(a.sh, b.sh))) AS j
  FROM s a JOIN s b ON a.doc_id < b.doc_id
)
SELECT id_a, id_b, ROUND(j, 6) AS jaccard FROM p WHERE j >= 0.5
""",
        "media_stats": f"""
SELECT kind,
       CAST(SUM(OCTET_LENGTH(payload)) AS BIGINT) AS total_bytes,
       CAST(COUNT(*) AS BIGINT) AS n
FROM read_parquet('{media_pq}')
GROUP BY kind
""",
        "media_frames": f"""
WITH v AS (
  SELECT media_id, width AS W, height AS H, duration_ms,
         duration_ms // 1000 AS nf,
         LEAST(8, GREATEST(1, duration_ms // 1000)) AS n,
         hex(payload) AS hx
  FROM read_parquet('{media_pq}')
  WHERE kind = 'video' AND duration_ms > 0
), f AS (
  SELECT media_id, W, H, duration_ms, nf, n, hx,
         UNNEST(generate_series(0, n - 1)) AS i,
         UNNEST(list_transform(generate_series(0, n - 1),
                               j -> (j * nf) // n)) AS src
  FROM v
)
SELECT media_id,
       CAST(i AS INTEGER) AS frame_idx,
       CAST(FLOOR(i * (CAST(duration_ms AS DOUBLE) / n)) AS INTEGER) AS ts_ms,
       CAST(W * H AS BIGINT) AS frame_len,
       CAST(list_sum(list_transform(generate_series(0, W * H - 1),
              b -> CAST(('0x' || substr(hx, 2 * (10 + src * W * H + b) + 1, 2))
                        AS INT)))
            AS BIGINT) AS frame_sum
FROM f
""",
        "media_audio_resampled": f"""
WITH a AS (
  SELECT media_id, hex(payload) AS hx,
         OCTET_LENGTH(payload) - 44 AS nd
  FROM read_parquet('{media_pq}')
  WHERE kind = 'audio'
)
SELECT media_id,
       CAST((nd + 3) // 4 AS BIGINT) AS n_samples,
       CAST(list_sum(list_transform(generate_series(0, (nd + 3) // 4 - 1),
              i -> CAST(('0x' || substr(hx, 2 * (44 + i * 4) + 1, 2)) AS INT)))
            AS BIGINT) AS sample_sum
FROM a
""",
        "media_resized_sums": f"""
WITH img AS (
  SELECT media_id, width AS W, height AS H, hex(payload) AS hx,
         9 + LENGTH(CAST(width AS VARCHAR)) + LENGTH(CAST(height AS VARCHAR))
           AS hdr
  FROM read_parquet('{media_pq}')
  WHERE kind = 'image'
)
SELECT media_id,
       CAST(6 AS BIGINT) AS out_w,
       CAST(4 AS BIGINT) AS out_h,
       CAST(list_sum(list_transform(generate_series(0, 71), k ->
         CAST(('0x' || substr(hx,
            2 * (hdr
                 + 3 * ((((k // 18) * H) // 4) * W + (((k % 18) // 3) * W) // 6)
                 + (k % 3)) + 1,
            2)) AS INT)))
         AS BIGINT) AS pixel_sum
FROM img
""",
    }
    ngram8 = " || ' ' || ".join(
        "w[i]" if j == 0 else f"w[i + {j}]" for j in range(8)
    )
    shingle8 = f"""
         CASE WHEN LENGTH(w) = 0 THEN []
              WHEN LENGTH(w) < 8 THEN [array_to_string(w, ' ')]
              ELSE list_distinct(list_transform(
                     generate_series(1, LENGTH(w) - 7), i -> {ngram8}))
         END"""
    # brute-force char-5-shingle Jaccard — valid as a minhash oracle only
    # in the recall-1.0 regime (t=0.8, b=32/r=4 LSH + m-band prefilter;
    # recall proven 1.0 vs brute force in tests/test_operators.py)
    extra["dedup_minhash_pairs"] = """
WITH d AS (
  SELECT doc_id, text, LENGTH(text) AS n FROM documents
), s AS (
  SELECT doc_id,
         CASE WHEN n < 5 THEN [text]
              ELSE list_distinct(list_transform(
                     generate_series(1, n - 4), i -> substr(text, i, 5)))
         END AS sh
  FROM d
), p AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b,
         CAST(LENGTH(list_intersect(a.sh, b.sh)) AS DOUBLE)
           / (LENGTH(a.sh) + LENGTH(b.sh)
              - LENGTH(list_intersect(a.sh, b.sh))) AS j
  FROM s a JOIN s b ON a.doc_id < b.doc_id
)
SELECT id_a, id_b, ROUND(j, 6) AS jaccard FROM p WHERE ROUND(j, 6) >= 0.8
"""
    # incremental pass = full brute force restricted to pairs touching
    # the new shard (id_b >= split; id_a < id_b so id_b is the new side)
    extra["dedup_incremental"] = """
WITH d AS (
  SELECT doc_id, text, LENGTH(text) AS n FROM documents
), s AS (
  SELECT doc_id,
         CASE WHEN n < 5 THEN [text]
              ELSE list_distinct(list_transform(
                     generate_series(1, n - 4), i -> substr(text, i, 5)))
         END AS sh
  FROM d
), p AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b,
         CAST(LENGTH(list_intersect(a.sh, b.sh)) AS DOUBLE)
           / (LENGTH(a.sh) + LENGTH(b.sh)
              - LENGTH(list_intersect(a.sh, b.sh))) AS j
  FROM s a JOIN s b ON a.doc_id < b.doc_id
  WHERE b.doc_id >= 400
)
SELECT id_a, id_b, ROUND(j, 6) AS jaccard FROM p WHERE ROUND(j, 6) >= 0.8
"""
    # connected components over the (oracle-valid) char-5 pair set:
    # recursive-CTE closure, min-id representative per member node
    extra["dedup_minhash_groups"] = """
WITH RECURSIVE d AS (
  SELECT doc_id, text, LENGTH(text) AS n FROM documents
), s AS (
  SELECT doc_id,
         CASE WHEN n < 5 THEN [text]
              ELSE list_distinct(list_transform(
                     generate_series(1, n - 4), i -> substr(text, i, 5)))
         END AS sh
  FROM d
), p AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b
  FROM s a JOIN s b ON a.doc_id < b.doc_id
  WHERE ROUND(CAST(LENGTH(list_intersect(a.sh, b.sh)) AS DOUBLE)
          / (LENGTH(a.sh) + LENGTH(b.sh)
             - LENGTH(list_intersect(a.sh, b.sh))), 6) >= 0.8
), e AS (
  SELECT id_a AS u, id_b AS v FROM p
  UNION
  SELECT id_b, id_a FROM p
), reach(u, v) AS (
  SELECT u, v FROM e
  UNION
  SELECT r.u, e.v FROM reach r JOIN e ON r.v = e.u WHERE e.v <> r.u
)
SELECT u AS doc_id, LEAST(u, MIN(v)) AS rep_id FROM reach GROUP BY u
"""
    extra["shuffle_order"] = """
SELECT doc_id,
       CAST(ROW_NUMBER() OVER (
         ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id
       ) - 1 AS BIGINT) AS shuffle_rank
FROM documents
"""
    extra["stratified_sample"] = """
WITH ranked AS (
  SELECT doc_id, source,
         ROW_NUMBER() OVER (
           PARTITION BY source
           ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id
         ) AS sample_rank
  FROM documents
)
SELECT doc_id, source, CAST(sample_rank AS BIGINT) AS sample_rank
FROM ranked WHERE sample_rank <= 10
"""
    extra["weighted_sample"] = """
WITH keyed AS (
  SELECT doc_id, source, n_chars,
         -ln((('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 13))::BIGINT)
             / 4503599627370496.0) / n_chars AS k
  FROM documents
)
SELECT doc_id, source, n_chars, round_even(k, 6) AS samp_key
FROM keyed
ORDER BY k, doc_id
LIMIT 100
"""
    extra["mix_sources"] = """
WITH cnt AS (SELECT source, COUNT(*) AS c FROM documents GROUP BY source),
q AS (
  SELECT source,
         LEAST(c, CAST(floor(
             (CAST(substr(source, 4) AS INT) + 1) / 210.0 * 300
         ) AS BIGINT)) AS quota
  FROM cnt
),
ranked AS (
  SELECT doc_id, source,
         ROW_NUMBER() OVER (
           PARTITION BY source
           ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id
         ) AS sample_rank
  FROM documents
)
SELECT r.doc_id, r.source, CAST(r.sample_rank AS BIGINT) AS sample_rank
FROM ranked r JOIN q ON q.source = r.source
WHERE r.sample_rank <= q.quota
"""
    extra["hash_split"] = """
SELECT doc_id,
       CASE WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 2) <= 'cd'
              THEN 'train'
            WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 2) <= 'e7'
              THEN 'val'
            ELSE 'test' END AS split
FROM documents
"""
    extra["decontaminate"] = f"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS w FROM documents
), sh AS (
  SELECT doc_id, {shingle8} AS sh FROM w
), bench AS (
  SELECT LIST(g) AS gs FROM (
    SELECT DISTINCT UNNEST(sh) AS g FROM sh
    WHERE doc_id IN (SELECT doc_id FROM documents ORDER BY doc_id LIMIT 10)
  )
)
SELECT doc_id,
       LENGTH(list_intersect(sh, gs)) > 0 AS contaminated
FROM sh, bench
"""
    # features are content-byte chunk sums, so the per-row feature sum
    # equals the byte sum of the decoded content region: PPM pixels
    # (after the ASCII header), WAV samples (after the 44-byte header),
    # or the first RCRV video frame (after the 10-byte header).
    # web-text curation: both engines are RE2, so the patterns are shared
    # verbatim (stages/webtext.py defines them once).
    extra["pii_redact"] = f"""
SELECT doc_id,
  CAST(len(regexp_extract_all(text, '{EMAIL_RE}')) AS BIGINT) AS n_email,
  CAST(len(regexp_extract_all(text, '{PHONE_RE}')) AS BIGINT) AS n_phone,
  CAST(len(regexp_extract_all(text, '{IPV4_RE}')) AS BIGINT) AS n_ip,
  regexp_replace(regexp_replace(regexp_replace(text,
      '{EMAIL_RE}', '[EMAIL]', 'g'),
      '{PHONE_RE}', '[PHONE]', 'g'),
      '{IPV4_RE}', '[IP]', 'g') AS redacted
FROM read_parquet('{web_pq}')
"""
    extra["line_dedup"] = f"""
WITH web AS (SELECT * FROM read_parquet('{web_pq}')),
lines AS (SELECT unnest(string_split(text, chr(10))) AS line FROM web),
freq AS (SELECT line FROM lines GROUP BY line HAVING COUNT(*) >= 5),
fl AS (SELECT coalesce(list(line), []) AS fls FROM freq)
SELECT w.doc_id,
  CAST(len(string_split(w.text, chr(10))) AS BIGINT) AS n_lines,
  CAST(len(list_filter(string_split(w.text, chr(10)),
           ln -> NOT list_contains(fl.fls, ln))) AS BIGINT) AS n_kept,
  coalesce(list_aggregate(list_filter(string_split(w.text, chr(10)),
           ln -> NOT list_contains(fl.fls, ln)), 'string_agg', chr(10)),
           '') AS clean_text
FROM web w CROSS JOIN fl
"""
    extra["web_domain_stats"] = f"""
SELECT regexp_extract(url, 'https://([^/]+)/', 1) AS domain,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(len(regexp_extract_all(text, '{EMAIL_RE}'))
              + len(regexp_extract_all(text, '{PHONE_RE}'))
              + len(regexp_extract_all(text, '{IPV4_RE}'))) AS BIGINT)
         AS n_pii
FROM read_parquet('{web_pq}')
GROUP BY 1
"""
    extra["media_feature_sums"] = f"""
WITH m AS (
  SELECT media_id, kind, hex(payload) AS hx,
         CASE WHEN kind = 'image'
                THEN 9 + LENGTH(CAST(width AS VARCHAR))
                       + LENGTH(CAST(height AS VARCHAR))
              WHEN kind = 'audio' THEN 44
              ELSE 10 END AS off,
         CASE WHEN kind = 'video' THEN 10 + width * height
              ELSE OCTET_LENGTH(payload) END AS stop
  FROM read_parquet('{media_pq}')
)
SELECT media_id, kind, TRUE AS decoded,
       CAST(list_sum(list_transform(generate_series(off, stop - 1),
              b -> CAST(('0x' || substr(hx, 2 * b + 1, 2)) AS INT)))
            AS BIGINT) AS feature_sum
FROM m
"""
    # dHash: gray(y,x) = r+g+b at the floor-grid sample (sy=(y*H)//8,
    # sx=(x*W)//9) — exactly stages.multimodal.dhash_ppm's sampling
    _gL = " + ".join(
        "CAST(('0x' || substr(hx, 2 * ((hdr + 3 * ((((k // 8) * H) // 8) * W"
        f" + (((k % 8) * W) // 9))) + {c}) + 1, 2)) AS INT)"
        for c in range(3)
    )
    _gR = " + ".join(
        "CAST(('0x' || substr(hx, 2 * ((hdr + 3 * ((((k // 8) * H) // 8) * W"
        f" + ((((k % 8) + 1) * W) // 9))) + {c}) + 1, 2)) AS INT)"
        for c in range(3)
    )
    # the WHERE guard keeps the oracle aligned with the engine when a
    # payload is NOT a canonical encode_ppm product: image_dhash skips
    # undecodable payloads (metrics-counted), so the oracle must skip
    # them too.  Guard = exact canonical header + exact pixel length;
    # a non-canonical-but-still-decodable PPM (comments, padding) would
    # be hashed by the engine and excluded here — the synth corpus
    # contains none, and the asymmetry is documented in COVERAGE.md.
    extra["media_dhash"] = f"""
WITH img AS (
  SELECT media_id, width AS W, height AS H, hex(payload) AS hx,
         9 + LENGTH(CAST(width AS VARCHAR)) + LENGTH(CAST(height AS VARCHAR))
           AS hdr
  FROM read_parquet('{media_pq}')
  WHERE kind = 'image'
    AND OCTET_LENGTH(payload)
        = 9 + LENGTH(CAST(width AS VARCHAR)) + LENGTH(CAST(height AS VARCHAR))
          + 3 * width * height
    AND substr(hex(payload), 1,
               2 * (9 + LENGTH(CAST(width AS VARCHAR))
                      + LENGTH(CAST(height AS VARCHAR))))
        = hex('P6' || chr(10) || CAST(width AS VARCHAR) || ' '
              || CAST(height AS VARCHAR) || chr(10) || '255' || chr(10))
), bits AS (
  SELECT media_id,
         list_transform(generate_series(0, 63), k ->
           CASE WHEN {_gL} > {_gR} THEN 1 ELSE 0 END) AS b
  FROM img
)
SELECT media_id,
       array_to_string(list_transform(generate_series(0, 15), n ->
         substr('0123456789abcdef',
                1 + 8 * b[4 * n + 1] + 4 * b[4 * n + 2]
                  + 2 * b[4 * n + 3] + b[4 * n + 4], 1)), '') AS dhash
FROM bits
"""
    # image near-dup pairs: recompute every dHash from payload bytes
    # (the media_dhash CTE), then exact hamming via bit_count(xor) —
    # the banded-LSH engine path is recall-1.0 for hamming <= 7, so
    # the all-pairs SQL is an equivalent spec, not an approximation
    extra["media_dhash_pairs"] = f"""
WITH h AS (
  SELECT media_id, CAST('0x' || dhash AS UBIGINT) AS h
  FROM ({extra["media_dhash"]}) d
)
SELECT a.media_id AS media_id_a, b.media_id AS media_id_b,
       CAST(bit_count(xor(a.h, b.h)) AS BIGINT) AS hamming
FROM h a JOIN h b ON a.media_id < b.media_id
WHERE bit_count(xor(a.h, b.h)) <= 7
"""
    extra["repetition_stats"] = """
WITH base AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS w,
         LENGTH(regexp_extract_all(text, '\\S+')) AS nw
  FROM documents
), g2 AS (
  SELECT doc_id,
         UNNEST(list_transform(generate_series(1, nw - 1),
                               i -> w[i] || ' ' || w[i + 1])) AS g
  FROM base WHERE nw >= 2
), c2 AS (
  SELECT doc_id, MAX(c) AS mx, SUM(c) AS tot
  FROM (SELECT doc_id, g, COUNT(*) AS c FROM g2 GROUP BY 1, 2) GROUP BY 1
), g3 AS (
  SELECT doc_id,
         UNNEST(list_transform(generate_series(1, nw - 2),
                               i -> w[i] || ' ' || w[i + 1] || ' ' || w[i + 2]))
           AS g
  FROM base WHERE nw >= 3
), c3 AS (
  SELECT doc_id, MAX(c) AS mx, SUM(c) AS tot
  FROM (SELECT doc_id, g, COUNT(*) AS c FROM g3 GROUP BY 1, 2) GROUP BY 1
)
SELECT b.doc_id,
       round_even(COALESCE(CAST(c2.mx AS DOUBLE) / c2.tot, 0.0), 6)
         AS top_bigram_frac,
       round_even(COALESCE(CAST(c3.mx AS DOUBLE) / c3.tot, 0.0), 6)
         AS top_trigram_frac,
       round_even(CASE WHEN nw = 0 THEN 0.0
                       ELSE 1.0 - CAST(LENGTH(list_distinct(w)) AS DOUBLE) / nw
                  END, 6) AS dup_word_frac
FROM base b
LEFT JOIN c2 ON b.doc_id = c2.doc_id
LEFT JOIN c3 ON b.doc_id = c3.doc_id
"""
    extra["pack_sequences"] = """
WITH t AS (
  SELECT doc_id,
         CAST(LENGTH(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tok,
         CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 4)) AS BIGINT)
           % 16 AS pack_bucket
  FROM documents
), c AS (
  SELECT doc_id, pack_bucket,
         COALESCE(SUM(n_tok) OVER (
           PARTITION BY pack_bucket ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
         ), 0) AS start_tok
  FROM t
)
SELECT doc_id, pack_bucket,
       CAST(start_tok // 256 AS BIGINT) AS seq_idx,
       CAST(start_tok % 256 AS BIGINT) AS tok_offset
FROM c
"""
    extra["dedup_clean"] = """
WITH RECURSIVE d AS (
  SELECT doc_id, text, regexp_extract_all(text, '\\S+') AS w FROM documents
), s AS (
  SELECT doc_id,
         CASE WHEN LENGTH(w) < 3
              THEN [text]
              ELSE list_distinct(list_transform(
                     generate_series(1, LENGTH(w) - 2),
                     i -> w[i] || ' ' || w[i + 1] || ' ' || w[i + 2]))
         END AS sh
  FROM d
), p AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b
  FROM s a JOIN s b ON a.doc_id < b.doc_id
  WHERE CAST(LENGTH(list_intersect(a.sh, b.sh)) AS DOUBLE)
          / (LENGTH(a.sh) + LENGTH(b.sh)
             - LENGTH(list_intersect(a.sh, b.sh))) >= 0.5
), e AS (
  SELECT id_a AS u, id_b AS v FROM p
  UNION
  SELECT id_b, id_a FROM p
), reach(u, v) AS (
  SELECT u, v FROM e
  UNION
  SELECT r.u, e.v FROM reach r JOIN e ON r.v = e.u WHERE e.v <> r.u
), rep AS (
  SELECT u AS doc_id, LEAST(u, MIN(v)) AS rep_id FROM reach GROUP BY u
)
SELECT doc_id FROM documents
WHERE doc_id NOT IN (SELECT doc_id FROM rep WHERE rep_id < doc_id)
"""
    # same word-3-gram group closure as dedup_clean, but the groups key a
    # cluster-coherent split instead of a drop-set
    extra["leakage_safe_split"] = """
WITH RECURSIVE d AS (
  SELECT doc_id, text, regexp_extract_all(text, '\\S+') AS w FROM documents
), s AS (
  SELECT doc_id,
         CASE WHEN LENGTH(w) < 3
              THEN [text]
              ELSE list_distinct(list_transform(
                     generate_series(1, LENGTH(w) - 2),
                     i -> w[i] || ' ' || w[i + 1] || ' ' || w[i + 2]))
         END AS sh
  FROM d
), p AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b
  FROM s a JOIN s b ON a.doc_id < b.doc_id
  WHERE CAST(LENGTH(list_intersect(a.sh, b.sh)) AS DOUBLE)
          / (LENGTH(a.sh) + LENGTH(b.sh)
             - LENGTH(list_intersect(a.sh, b.sh))) >= 0.5
), e AS (
  SELECT id_a AS u, id_b AS v FROM p
  UNION
  SELECT id_b, id_a FROM p
), reach(u, v) AS (
  SELECT u, v FROM e
  UNION
  SELECT r.u, e.v FROM reach r JOIN e ON r.v = e.u WHERE e.v <> r.u
), rep AS (
  SELECT u AS doc_id, LEAST(u, MIN(v)) AS rep_id FROM reach GROUP BY u
), k AS (
  SELECT doc.doc_id, COALESCE(r.rep_id, doc.doc_id) AS skey
  FROM documents doc LEFT JOIN rep r ON doc.doc_id = r.doc_id
)
SELECT doc_id,
       CASE WHEN substr(md5(CAST(skey AS VARCHAR)), 1, 2) <= 'cd'
              THEN 'train'
            WHEN substr(md5(CAST(skey AS VARCHAR)), 1, 2) <= 'e7'
              THEN 'val'
            ELSE 'test' END AS split
FROM k
"""
    extra["curate_corpus"] = f"""
WITH RECURSIVE kq AS (
  SELECT doc_id FROM ({extra["quality_scores"]}) t WHERE quality >= 0.5
),
w8 AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS w FROM documents
),
sh8 AS (
  SELECT doc_id,
         CASE WHEN LENGTH(w) = 0 THEN []
              WHEN LENGTH(w) < 8 THEN [array_to_string(w, ' ')]
              ELSE list_distinct(list_transform(
                     generate_series(1, LENGTH(w) - 7),
                     i -> w[i] || ' ' || w[i + 1] || ' ' || w[i + 2] || ' '
                          || w[i + 3] || ' ' || w[i + 4] || ' ' || w[i + 5]
                          || ' ' || w[i + 6] || ' ' || w[i + 7]))
         END AS sh
  FROM w8
),
bench AS (
  SELECT LIST(g) AS gs FROM (
    SELECT DISTINCT UNNEST(sh) AS g FROM sh8
    WHERE doc_id IN (SELECT doc_id FROM documents ORDER BY doc_id LIMIT 10)
  )
),
dc AS (
  SELECT s.doc_id FROM sh8 s JOIN kq ON s.doc_id = kq.doc_id CROSS JOIN bench
  WHERE LENGTH(list_intersect(s.sh, gs)) = 0
),
d3 AS (
  SELECT d.doc_id, d.text, regexp_extract_all(d.text, '\\S+') AS w
  FROM documents d JOIN dc ON d.doc_id = dc.doc_id
),
s3 AS (
  SELECT doc_id,
         CASE WHEN LENGTH(w) < 3 THEN [text]
              ELSE list_distinct(list_transform(
                     generate_series(1, LENGTH(w) - 2),
                     i -> w[i] || ' ' || w[i + 1] || ' ' || w[i + 2]))
         END AS sh
  FROM d3
),
p AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b
  FROM s3 a JOIN s3 b ON a.doc_id < b.doc_id
  WHERE CAST(LENGTH(list_intersect(a.sh, b.sh)) AS DOUBLE)
          / (LENGTH(a.sh) + LENGTH(b.sh)
             - LENGTH(list_intersect(a.sh, b.sh))) >= 0.5
),
e AS (SELECT id_a AS u, id_b AS v FROM p UNION SELECT id_b, id_a FROM p),
reach(u, v) AS (
  SELECT u, v FROM e
  UNION
  SELECT r.u, e.v FROM reach r JOIN e ON r.v = e.u WHERE e.v <> r.u
),
rep AS (SELECT u AS doc_id, LEAST(u, MIN(v)) AS rep_id FROM reach GROUP BY u)
SELECT dc.doc_id FROM dc
WHERE dc.doc_id NOT IN (SELECT doc_id FROM rep WHERE rep_id < doc_id)
"""
    extra["uniform_sample"] = """
SELECT doc_id, md5(CAST(doc_id AS VARCHAR)) AS sample_key
FROM documents
ORDER BY sample_key, doc_id
LIMIT 100
"""
    extra["lang_source_chi2"] = """
WITH c AS (
  SELECT lang, source, COUNT(*) AS n FROM documents GROUP BY 1, 2
), l AS (
  SELECT lang, SUM(n) AS nl FROM c GROUP BY 1
), s AS (
  SELECT source, SUM(n) AS ns FROM c GROUP BY 1
), t AS (
  SELECT CAST(SUM(n) AS DOUBLE) AS nt FROM c
), g AS (
  SELECT COALESCE(c.n, 0) AS obs, l.nl * s.ns / t.nt AS expd
  FROM l CROSS JOIN s CROSS JOIN t
  LEFT JOIN c ON c.lang = l.lang AND c.source = s.source
)
SELECT CAST((SELECT COUNT(*) FROM c) AS BIGINT) AS n_cells,
       round_even(SUM((obs - expd) * (obs - expd) / expd), 4) AS chi2
FROM g
"""
    # snapshot B derives deterministically from documents; FULL OUTER
    # diff classifies ids
    extra["corpus_diff"] = """
WITH a AS (
  SELECT doc_id, md5(text) AS h_a FROM documents
), b AS (
  SELECT doc_id,
         CASE WHEN doc_id % 7 = 0 THEN md5(text || ' v2')
              ELSE md5(text) END AS h_b
  FROM documents WHERE doc_id % 13 <> 0
  UNION ALL
  SELECT doc_id + 1000000, md5(text) FROM documents WHERE doc_id % 11 = 0
)
SELECT COALESCE(a.doc_id, b.doc_id) AS doc_id,
       CASE WHEN a.doc_id IS NULL THEN 'added'
            WHEN b.doc_id IS NULL THEN 'removed'
            ELSE 'changed' END AS status
FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id
WHERE a.doc_id IS NULL OR b.doc_id IS NULL OR a.h_a <> b.h_b
"""
    # MERGE INTO applied = the target snapshot (same derivation rule as
    # corpus_diff: % 13 delete, % 7 edit, % 11 insert under id + 1e6)
    extra["snapshot_upsert"] = """
WITH merged AS (
  SELECT doc_id,
         CASE WHEN doc_id % 7 = 0 THEN md5(text || ' v2')
              ELSE md5(text) END AS merged_hash
  FROM documents WHERE doc_id % 13 <> 0
  UNION ALL
  SELECT doc_id + 1000000, md5(text) FROM documents WHERE doc_id % 11 = 0
)
SELECT doc_id, merged_hash FROM merged
"""
    # brute-force overlap coefficient over the same word-3 shingle sets
    extra["containment_pairs"] = """
WITH d AS (
  SELECT doc_id, text, regexp_extract_all(text, '\\S+') AS w FROM documents
), s AS (
  SELECT doc_id,
         CASE WHEN LENGTH(w) < 3
              THEN [text]
              ELSE list_distinct(list_transform(
                     generate_series(1, LENGTH(w) - 2),
                     i -> w[i] || ' ' || w[i + 1] || ' ' || w[i + 2]))
         END AS sh
  FROM d
), p AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b,
         round_even(
           CAST(LENGTH(list_intersect(a.sh, b.sh)) AS DOUBLE)
             / LEAST(LENGTH(a.sh), LENGTH(b.sh)), 6) AS overlap
  FROM s a JOIN s b ON a.doc_id < b.doc_id
)
SELECT id_a, id_b, overlap FROM p WHERE overlap >= 0.8
"""
    # composition of the two oracle texts above — same curated set,
    # same cluster-coherent split keys
    extra["curated_split_counts"] = f"""
SELECT s.split, CAST(COUNT(*) AS BIGINT) AS n_docs
FROM ({extra["leakage_safe_split"]}) s
JOIN ({extra["curate_corpus"]}) c ON s.doc_id = c.doc_id
GROUP BY s.split
"""
    extra["label_centroids"] = """
SELECT CAST(label AS BIGINT) AS label, CAST(d.i AS BIGINT) AS dim,
       round_even(SUM(CAST(embedding[d.i] AS DOUBLE)) / COUNT(*), 6) AS centroid
FROM embeddings
CROSS JOIN (SELECT UNNEST(range(1, 65)) AS i) d
GROUP BY label, d.i
"""
    extra["embed_zscore"] = """
WITH sums AS (
  SELECT d.i AS dim,
         SUM(CAST(embedding[d.i] AS DOUBLE)) AS sx,
         SUM(CAST(embedding[d.i] AS DOUBLE) * CAST(embedding[d.i] AS DOUBLE)) AS sxx,
         COUNT(*) AS n
  FROM embeddings CROSS JOIN (SELECT UNNEST(range(1, 65)) AS i) d
  GROUP BY d.i
),
stats AS (
  SELECT dim, sx / n AS mu,
         sqrt(sxx / n - (sx / n) * (sx / n)) AS sigma
  FROM sums
)
SELECT e.vec_id,
       round_even(SUM((CAST(e.embedding[s.dim] AS DOUBLE) - s.mu) / s.sigma), 6)
         AS zsum
FROM embeddings e CROSS JOIN stats s
GROUP BY e.vec_id
"""
    extra["embed_covariance"] = """
WITH ij AS (
  SELECT a.i AS i, b.j AS j
  FROM (SELECT UNNEST(range(1, 65)) AS i) a
  CROSS JOIN (SELECT UNNEST(range(1, 65)) AS j) b
  WHERE a.i <= b.j
),
s AS (
  SELECT ij.i, ij.j,
         SUM(CAST(embedding[ij.i] AS DOUBLE)
             * CAST(embedding[ij.j] AS DOUBLE)) AS sxy,
         SUM(CAST(embedding[ij.i] AS DOUBLE)) AS sx,
         SUM(CAST(embedding[ij.j] AS DOUBLE)) AS sy,
         COUNT(*) AS n
  FROM embeddings CROSS JOIN ij
  GROUP BY ij.i, ij.j
)
SELECT CAST(i AS BIGINT) AS i, CAST(j AS BIGINT) AS j,
       round_even((sxy - sx * sy / n) / n, 6) AS cov
FROM s
"""
    extra["embed_quantized"] = """
WITH e AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings
), m AS (
  SELECT vec_id, v,
         list_max(list_transform(v, x -> abs(x))) AS mx
  FROM e
), q AS (
  SELECT vec_id, mx,
         list_transform(v, x -> CAST(round_even(x * 127.0
                / CASE WHEN mx = 0 THEN 1.0 ELSE mx END, 0) AS BIGINT)) AS qv
  FROM m
)
SELECT vec_id,
       round_even(mx / 127.0, 6) AS scale,
       CAST(list_sum(qv) AS BIGINT) AS qsum,
       CAST(list_min(qv) AS BIGINT) AS qmin,
       CAST(list_max(qv) AS BIGINT) AS qmax
FROM q
"""
    extra["ann_knn_join"] = """
WITH r AS (
  SELECT vec_id AS nn_id, CAST(embedding AS DOUBLE[]) AS rv
  FROM embeddings ORDER BY vec_id LIMIT 200
), scored AS (
  SELECT e.vec_id, r.nn_id,
         list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), r.rv) AS s
  FROM embeddings e CROSS JOIN r
), ranked AS (
  SELECT vec_id, nn_id, s,
         ROW_NUMBER() OVER (
           PARTITION BY vec_id ORDER BY s DESC, nn_id ASC
         ) AS rank
  FROM scored
)
SELECT vec_id, rank, nn_id, ROUND(s, 6) AS score
FROM ranked WHERE rank <= 5
"""
    extra["kg_links_scored"] = """
WITH part_ct AS (
  SELECT p_name, p_brand, MIN(p_partkey) AS pk, COUNT(*) AS cnt
  FROM part GROUP BY 1, 2
),
t AS (
  SELECT 'conv-' || o_orderkey AS conv_id, c_name AS surface,
         'urn:e:cust:' || c_custkey AS entity_iri,
         CAST(1.0 AS DOUBLE) AS score
  FROM orders JOIN customer ON o_custkey = c_custkey
  UNION ALL
  SELECT 'conv-' || l_orderkey, p.p_name || '|' || p.p_brand,
         'urn:e:part:' || pc2.pk,
         round_even(CAST(1.0 AS DOUBLE) / pc2.cnt, 6)
  FROM lineitem l
  JOIN part p ON l_partkey = p_partkey
  JOIN part_ct pc2 ON p.p_name = pc2.p_name AND p.p_brand = pc2.p_brand
  UNION ALL
  SELECT 'conv-' || l_orderkey, s_name, 'urn:e:supp:' || l_suppkey,
         CAST(1.0 AS DOUBLE)
  FROM lineitem JOIN supplier ON l_suppkey = s_suppkey
)
SELECT DISTINCT conv_id, surface, entity_iri, score FROM t
"""
    extra["quality_filtered"] = (
        "SELECT doc_id, quality FROM ("
        + extra["quality_scores"]
        + ") t WHERE quality >= 0.5"
    )
    extra["top_quality_docs"] = (
        'SELECT source, doc_id, quality, CAST("rank" AS BIGINT) AS "rank" '
        "FROM (SELECT d.source, q.doc_id, q.quality, ROW_NUMBER() OVER ("
        "PARTITION BY d.source ORDER BY q.quality DESC, q.doc_id"
        ') AS "rank" FROM ('
        + extra["quality_scores"]
        + ') q JOIN documents d USING (doc_id)) WHERE "rank" <= 5'
    )
    base = {
        "kg_triples": f"""
WITH {part_resolved},
t AS (
  SELECT 'conv-' || o_orderkey AS conv_id, 'urn:e:order:' || o_orderkey AS subj,
         'urn:rel:placedBy' AS pred, 'urn:e:cust:' || o_custkey AS obj FROM orders
  UNION ALL
  SELECT 'conv-' || o_orderkey, 'urn:e:order:' || o_orderkey, 'urn:rel:status',
         o_orderstatus FROM orders
  UNION ALL
  SELECT 'conv-' || o_orderkey, 'urn:e:order:' || o_orderkey, 'urn:rel:priority',
         o_orderpriority FROM orders
  UNION ALL
  SELECT 'conv-' || l_orderkey, 'urn:e:order:' || l_orderkey, 'urn:rel:hasPart',
         'urn:e:part:' || pr.pk
  FROM lineitem l
  JOIN part p ON l.l_partkey = p.p_partkey
  JOIN part_resolved pr ON p.p_name = pr.p_name AND p.p_brand = pr.p_brand
  UNION ALL
  SELECT 'conv-' || l_orderkey, 'urn:e:order:' || l_orderkey, 'urn:rel:suppliedBy',
         'urn:e:supp:' || l_suppkey FROM lineitem
)
SELECT DISTINCT conv_id, subj, pred, obj FROM t
""",
        "kg_entity_mentions": f"""
WITH {part_resolved},
m AS (
  SELECT 'urn:e:cust:' || o_custkey AS entity_iri FROM orders
  UNION ALL
  SELECT 'urn:e:order:' || o_orderkey FROM orders
  UNION ALL
  SELECT 'urn:e:order:' || o_orderkey FROM orders
  UNION ALL
  SELECT 'urn:e:order:' || l_orderkey FROM lineitem
  UNION ALL
  SELECT 'urn:e:part:' || pr.pk
  FROM lineitem l
  JOIN part p ON l.l_partkey = p.p_partkey
  JOIN part_resolved pr ON p.p_name = pr.p_name AND p.p_brand = pr.p_brand
  UNION ALL
  SELECT 'urn:e:supp:' || l_suppkey FROM lineitem
)
SELECT entity_iri, COUNT(*) AS n_mentions FROM m GROUP BY entity_iri
""",
        "kg_comention_edges": f"""
WITH {part_resolved},
{mention_m}
SELECT e1, e2 FROM ed
""",
        # (store ∪ delta) must equal the full rebuild — same oracle
        "kg_comention_incremental": f"""
WITH {part_resolved},
{mention_m}
SELECT e1, e2 FROM ed
""",
        "kg_comention_pmi": f"""
WITH {part_resolved},
{mention_m},
pc AS (
  SELECT a.entity_iri AS e1, b.entity_iri AS e2, COUNT(*) AS n12
  FROM me a JOIN me b
    ON a.conv_id = b.conv_id AND a.entity_iri < b.entity_iri
  GROUP BY 1, 2
),
ecnt AS (SELECT entity_iri, COUNT(*) AS ne FROM me GROUP BY 1),
nc AS (SELECT CAST(COUNT(DISTINCT conv_id) AS DOUBLE) AS n FROM me)
SELECT pc.e1, pc.e2, CAST(pc.n12 AS BIGINT) AS n_convs,
       round_even(ln((pc.n12 / nc.n)
                     / ((c1.ne / nc.n) * (c2.ne / nc.n))), 6) AS pmi
FROM pc
JOIN ecnt c1 ON pc.e1 = c1.entity_iri
JOIN ecnt c2 ON pc.e2 = c2.entity_iri
CROSS JOIN nc
WHERE pc.n12 >= 3
""",
        # tool ts = l_shipdate + 60·l_linenumber; assistant ts =
        # o_orderdate + 60 s (generator ground truth)
        "tool_latency": """
SELECT 'conv-' || o.o_orderkey AS conv_id,
       CAST(FLOOR((epoch_us(MIN(l.l_shipdate
                       + INTERVAL (60 * l.l_linenumber) SECOND))
             - epoch_us(o.o_orderdate + INTERVAL 60 SECOND))
            / 1000000) AS BIGINT) AS latency_s
FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
GROUP BY o.o_orderkey, o.o_orderdate
""",
        # role sequence per conv = user, assistant, tool × |lineitems|
        "role_transitions": """
WITH l AS (
  SELECT l_orderkey, COUNT(*) AS cnt FROM lineitem GROUP BY 1
), c AS (
  SELECT o_orderkey, COALESCE(l.cnt, 0) AS cnt
  FROM orders LEFT JOIN l ON o_orderkey = l.l_orderkey
)
SELECT * FROM (
  SELECT 'user' AS r1, 'assistant' AS r2,
         CAST(COUNT(*) AS BIGINT) AS n_transitions FROM c
  UNION ALL
  SELECT 'assistant', 'tool',
         CAST(COUNT(*) FILTER (WHERE cnt > 0) AS BIGINT) FROM c
  UNION ALL
  SELECT 'tool', 'tool',
         CAST(SUM(GREATEST(cnt - 1, 0)) AS BIGINT) FROM c
)
WHERE n_transitions > 0
""",
        "conv_stats": """
SELECT 'conv-' || o_orderkey AS conv_id,
       CAST(2 + COALESCE(l.cnt, 0) AS BIGINT) AS n_turns,
       CAST(COALESCE(l.cnt, 0) AS BIGINT) AS n_tool_turns,
       CAST(CASE WHEN COALESCE(l.cnt, 0) > 0 THEN 3 ELSE 2 END AS BIGINT)
         AS n_roles
FROM orders o LEFT JOIN (
  SELECT l_orderkey, COUNT(*) AS cnt FROM lineitem GROUP BY l_orderkey
) l ON o.o_orderkey = l.l_orderkey
""",
        "kg_bfs_depths": f"""
WITH RECURSIVE {part_resolved},
{mention_m},
edges AS (
  SELECT e1 AS src, e2 AS dst FROM ed
  UNION ALL
  SELECT e2, e1 FROM ed
),
deg AS (SELECT src AS node, COUNT(*) AS d FROM edges GROUP BY src),
seed AS (SELECT node FROM deg ORDER BY d DESC, node LIMIT 1),
bfs(node, depth) AS (
  SELECT node, 0 FROM seed
  UNION
  SELECT e.dst, b.depth + 1
  FROM bfs b JOIN edges e ON e.src = b.node
  WHERE b.depth < 4
)
SELECT node AS entity_iri, CAST(MIN(depth) AS BIGINT) AS depth
FROM bfs GROUP BY node
""",
        "kg_pagerank": f"""
WITH {part_resolved},
{mention_m},
edges AS (
  SELECT e1 AS src, e2 AS dst FROM ed
  UNION ALL
  SELECT e2, e1 FROM ed
),
deg AS (SELECT src, COUNT(*) AS d FROM edges GROUP BY src),
pr0 AS (SELECT src AS node, CAST(1.0 AS DOUBLE) AS r FROM deg){pr_chain}
SELECT node AS entity_iri, round_even(r, 6) AS "rank" FROM pr{pr_iters}
""",
        "kg_triangles": f"""
WITH {part_resolved},
{mention_m},
deg AS (
  SELECT node, COUNT(*) AS d FROM (
    SELECT e1 AS node FROM ed UNION ALL SELECT e2 FROM ed
  ) GROUP BY node
),
oe AS (
  SELECT CASE WHEN (d1.d < d2.d) OR (d1.d = d2.d AND e.e1 < e.e2)
              THEN e.e1 ELSE e.e2 END AS u,
         CASE WHEN (d1.d < d2.d) OR (d1.d = d2.d AND e.e1 < e.e2)
              THEN e.e2 ELSE e.e1 END AS v
  FROM ed e
  JOIN deg d1 ON d1.node = e.e1
  JOIN deg d2 ON d2.node = e.e2
),
oev AS (SELECT u, v, d.d AS dv FROM oe JOIN deg d ON d.node = oe.v),
w AS (
  SELECT o1.u AS a,
         CASE WHEN (o1.dv < o2.dv) OR (o1.dv = o2.dv AND o1.v < o2.v)
              THEN o1.v ELSE o2.v END AS bu,
         CASE WHEN (o1.dv < o2.dv) OR (o1.dv = o2.dv AND o1.v < o2.v)
              THEN o2.v ELSE o1.v END AS bv
  FROM oev o1 JOIN oev o2 ON o1.u = o2.u AND o1.v < o2.v
),
tri AS (
  SELECT a, w.bu AS b, w.bv AS c
  FROM w JOIN oe ON oe.u = w.bu AND oe.v = w.bv
),
corner AS (
  SELECT a AS node FROM tri
  UNION ALL SELECT b FROM tri
  UNION ALL SELECT c FROM tri
),
tc AS (SELECT node, COUNT(*) AS t FROM corner GROUP BY node)
SELECT tc.node AS entity_iri, CAST(tc.t AS BIGINT) AS n_triangles,
       round_even(2.0 * tc.t / (deg.d * (deg.d - 1.0)), 6) AS clustering
FROM tc JOIN deg ON deg.node = tc.node
""",
        "kg_entity_degree": f"""
WITH {part_resolved},
m AS (
  SELECT 'conv-' || o_orderkey AS conv_id, 'urn:e:cust:' || o_custkey AS entity_iri
  FROM orders
  UNION ALL
  SELECT 'conv-' || o_orderkey, 'urn:e:order:' || o_orderkey FROM orders
  UNION ALL
  SELECT 'conv-' || l_orderkey, 'urn:e:order:' || l_orderkey FROM lineitem
  UNION ALL
  SELECT 'conv-' || l_orderkey, 'urn:e:part:' || pr.pk
  FROM lineitem l
  JOIN part p ON l.l_partkey = p.p_partkey
  JOIN part_resolved pr ON p.p_name = pr.p_name AND p.p_brand = pr.p_brand
  UNION ALL
  SELECT 'conv-' || l_orderkey, 'urn:e:supp:' || l_suppkey FROM lineitem
)
SELECT entity_iri, COUNT(DISTINCT conv_id) AS n_convs FROM m GROUP BY entity_iri
""",
        "kg_links": f"""
WITH {part_resolved},
t AS (
  SELECT 'conv-' || o_orderkey AS conv_id, c_name AS surface,
         'urn:e:cust:' || c_custkey AS entity_iri
  FROM orders JOIN customer ON o_custkey = c_custkey
  UNION ALL
  SELECT 'conv-' || l_orderkey, p.p_name || '|' || p.p_brand,
         'urn:e:part:' || pr.pk
  FROM lineitem l
  JOIN part p ON l.l_partkey = p.p_partkey
  JOIN part_resolved pr ON p.p_name = pr.p_name AND p.p_brand = pr.p_brand
  UNION ALL
  SELECT 'conv-' || l_orderkey, s_name, 'urn:e:supp:' || l_suppkey
  FROM lineitem JOIN supplier ON l_suppkey = s_suppkey
)
SELECT DISTINCT conv_id, surface, entity_iri FROM t
""",
        "pricing_summary": """
SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_quantity), 4) AS sum_qty,
       ROUND(SUM(l_extendedprice), 4) AS sum_base_price,
       ROUND(SUM(l_extendedprice * (1 - l_discount)), 4) AS sum_disc_price,
       COUNT(*) AS count_order,
       ROUND(SUM(l_quantity) / COUNT(*), 6) AS avg_qty
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
""",
        "top_customers": """
SELECT c_custkey, ROUND(revenue, 4) AS revenue, c_name
FROM (
  SELECT o_custkey AS c_custkey, SUM(o_totalprice) AS revenue
  FROM orders GROUP BY o_custkey
) r JOIN customer USING (c_custkey)
ORDER BY revenue DESC, c_custkey ASC
LIMIT 10
""",
        "events_debounced": """
SELECT event_id FROM (
  SELECT event_id, event_type, ts,
         LAG(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS pt,
         LAG(ts) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS pts
  FROM events
)
WHERE pt IS NULL OR pt <> event_type
   OR epoch_us(ts) - epoch_us(pts) > 60000000
""",
        "events_ts_pruned": """
WITH b AS (
  SELECT epoch_us(MIN(ts)) AS mn, epoch_us(MAX(ts)) AS mx FROM events
), sel AS (
  SELECT mn + CAST(FLOOR(0.25 * (mx - mn)) AS BIGINT) AS lo,
         mn + CAST(FLOOR(0.30 * (mx - mn)) AS BIGINT) AS hi
  FROM b
)
SELECT event_id, ts, value
FROM events, sel
WHERE epoch_us(ts) >= lo AND epoch_us(ts) < hi
""",
        "source_token_entropy": """
WITH tok AS (
  SELECT source, UNNEST(regexp_extract_all(text, '\\S+')) AS term
  FROM documents
), st AS (
  SELECT source, term, COUNT(*) AS c FROM tok GROUP BY 1, 2
), ns AS (
  SELECT source, SUM(c) AS n FROM st GROUP BY 1
), g AS (
  SELECT term, SUM(cg) AS cg FROM (SELECT term, c AS cg FROM st) GROUP BY 1
), tot AS (
  SELECT CAST(SUM(c) AS DOUBLE) AS nn FROM st
)
SELECT st.source, CAST(ns.n AS BIGINT) AS n_tokens,
       round_even(SUM(-(CAST(st.c AS DOUBLE) / ns.n)
                       * ln(CAST(st.c AS DOUBLE) / ns.n)), 6) AS entropy,
       round_even(SUM((CAST(st.c AS DOUBLE) / ns.n)
                       * ln((CAST(st.c AS DOUBLE) / ns.n)
                            / (CAST(g.cg AS DOUBLE) / tot.nn))), 6)
         AS kl_vs_corpus
FROM st
JOIN ns ON st.source = ns.source
JOIN g ON st.term = g.term
CROSS JOIN tot
GROUP BY st.source, ns.n
""",
        "events_hourly_filled": """
WITH c AS (
  SELECT event_type, date_trunc('hour', ts) AS h,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
), b AS (
  SELECT MIN(h) AS mn, MAX(h) AS mx FROM c
), hrs AS (
  SELECT UNNEST(generate_series(mn, mx, INTERVAL 1 HOUR)) AS h FROM b
), t AS (
  SELECT DISTINCT event_type FROM events
)
SELECT t.event_type, hrs.h AS window_start,
       COALESCE(c.n, 0) AS n_events
FROM t CROSS JOIN hrs
LEFT JOIN c ON c.event_type = t.event_type AND c.h = hrs.h
""",
        "global_value_median": """
SELECT CAST(COUNT(*) AS BIGINT) AS n,
       round_even(quantile_disc(value, 0.5), 6) AS median
FROM events
""",
        "events_global_rownum": """
SELECT event_id,
       ROW_NUMBER() OVER (ORDER BY ts, event_id) AS rn
FROM events
""",
        "weekly_active_users": """
WITH du AS (
  SELECT DISTINCT date_trunc('day', ts) AS d, user_id FROM events
), b AS (
  SELECT MAX(d) AS mx FROM du
), rep AS (
  SELECT du.d + INTERVAL (i.i) DAY AS day, du.user_id
  FROM du CROSS JOIN (SELECT UNNEST(range(0, 7)) AS i) i
)
SELECT rep.day, CAST(COUNT(DISTINCT rep.user_id) AS BIGINT) AS n_users
FROM rep, b
WHERE rep.day <= b.mx
GROUP BY rep.day
""",
        "events_winsorized": """
WITH q AS (
  SELECT event_type,
         quantile_disc(value, 0.01) AS lo,
         quantile_disc(value, 0.99) AS hi
  FROM events GROUP BY event_type
)
SELECT e.event_id,
       round_even(LEAST(GREATEST(e.value, q.lo), q.hi), 6) AS value_w
FROM events e JOIN q ON e.event_type = q.event_type
""",
        "event_type_overlap": """
WITH ut AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT a.event_type AS t1, b.event_type AS t2,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM ut a JOIN ut b
  ON a.user_id = b.user_id AND a.event_type < b.event_type
GROUP BY 1, 2
""",
        "audience_setops": """
WITH a AS (SELECT DISTINCT user_id FROM events WHERE event_type = 'purchase'),
     b AS (SELECT DISTINCT user_id FROM events WHERE event_type = 'error')
SELECT 'intersect' AS op, user_id
FROM (SELECT user_id FROM a INTERSECT SELECT user_id FROM b)
UNION ALL
SELECT 'except' AS op, user_id
FROM (SELECT user_id FROM a EXCEPT SELECT user_id FROM b)
""",
        "events_type_ntile": """
SELECT event_id,
       CAST(NTILE(4) OVER (
         PARTITION BY event_type ORDER BY value, event_id
       ) AS BIGINT) AS tile
FROM events
""",
        "events_hourly_users": """
SELECT event_type, date_trunc('hour', ts) AS window_start,
       CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM events
GROUP BY 1, 2
""",
        "events_hourly": """
SELECT user_id, event_type, date_trunc('hour', ts) AS window_start,
       COUNT(*) AS n_events, ROUND(SUM(value), 6) AS sum_value
FROM events
GROUP BY user_id, event_type, date_trunc('hour', ts)
""",
        # chunked-arrival state maintenance must equal the batch result
        "events_hourly_incremental": """
SELECT user_id, event_type, date_trunc('hour', ts) AS window_start,
       COUNT(*) AS n_events, ROUND(SUM(value), 6) AS sum_value
FROM events
GROUP BY user_id, event_type, date_trunc('hour', ts)
""",
        "docs_by_source": """
SELECT source, COUNT(*) AS n_docs, CAST(SUM(n_chars) AS BIGINT) AS total_chars
FROM documents GROUP BY source
""",
        "docs_by_source_jsonl": """
SELECT source, COUNT(*) AS n_docs, CAST(SUM(n_chars) AS BIGINT) AS total_chars
FROM documents GROUP BY source
""",
        "docs_by_source_csv": """
SELECT source, COUNT(*) AS n_docs, CAST(SUM(n_chars) AS BIGINT) AS total_chars
FROM documents GROUP BY source
""",
        "length_quantiles": """
SELECT source,
       CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS p50,
       CAST(quantile_disc(n_chars, 0.9) AS BIGINT) AS p90,
       CAST(quantile_disc(n_chars, 0.99) AS BIGINT) AS p99
FROM documents GROUP BY source
""",
        "orders_by_nation": """
SELECT n_name, COUNT(*) AS n_orders, ROUND(SUM(o_totalprice), 4) AS revenue
FROM orders
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name
""",
        "shipping_priority": """
SELECT l_orderkey,
       round_even(SUM(l_extendedprice * (1 - l_discount)), 4) AS revenue,
       o_orderdate
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < TIMESTAMP '1998-06-01'
  AND l_shipdate > TIMESTAMP '1998-06-01'
GROUP BY l_orderkey, o_orderdate
ORDER BY revenue DESC, o_orderdate, l_orderkey
LIMIT 10
""",
        "local_supplier_volume": """
SELECT n_name, ROUND(SUM(l_extendedprice * (1 - l_discount)), 4) AS revenue
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation   ON s_nationkey = n_nationkey
JOIN region   ON n_regionkey = r_regionkey
WHERE c_nationkey = s_nationkey
  AND r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1995-01-01'
  AND o_orderdate <  TIMESTAMP '1997-01-01'
GROUP BY n_name
""",
        "events_moving_avg": """
SELECT event_id, user_id,
       round_even(AVG(value) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS BETWEEN 2 PRECEDING AND CURRENT ROW
       ), 6) AS mavg
FROM events
""",
        "events_running_total": """
SELECT event_id, user_id,
       ROUND(SUM(value) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
       ), 6) AS running_total
FROM events
""",
        "source_len_token_corr": """
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
       round_even(
         (COUNT(*) * SUM(x * y) - SUM(x) * SUM(y))
         / SQRT((COUNT(*) * SUM(x * x) - SUM(x) * SUM(x))
                * (COUNT(*) * SUM(y * y) - SUM(y) * SUM(y))),
         6
       ) AS corr_len_tokens
FROM (
  SELECT source,
         CAST(n_chars AS DOUBLE) AS x,
         CAST(len(regexp_extract_all(text, '\\S+')) AS DOUBLE) AS y
  FROM documents
)
GROUP BY source
""",
        "customer_order_counts": """
SELECT c_custkey, c_mktsegment,
       CAST(COALESCE(o.n_orders, 0) AS BIGINT) AS n_orders
FROM customer
LEFT JOIN (
  SELECT o_custkey, COUNT(*) AS n_orders FROM orders GROUP BY o_custkey
) o ON c_custkey = o_custkey
""",
        "events_type_pivot": """
SELECT user_id,
       CAST(SUM(CASE WHEN event_type = 'click'    THEN 1 ELSE 0 END) AS BIGINT) AS n_click,
       CAST(SUM(CASE WHEN event_type = 'error'    THEN 1 ELSE 0 END) AS BIGINT) AS n_error,
       CAST(SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase,
       CAST(SUM(CASE WHEN event_type = 'signup'   THEN 1 ELSE 0 END) AS BIGINT) AS n_signup,
       CAST(SUM(CASE WHEN event_type = 'view'     THEN 1 ELSE 0 END) AS BIGINT) AS n_view,
       CAST(COUNT(*) AS BIGINT) AS n_total
FROM events
GROUP BY user_id
""",
        "orders_rollup": """
SELECT COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
       COALESCE(o_orderstatus, 'ALL') AS o_orderstatus,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       ROUND(SUM(o_totalprice), 4) AS revenue
FROM orders
GROUP BY ROLLUP (o_orderpriority, o_orderstatus)
""",
        "length_quartiles": """
SELECT doc_id, source, n_chars,
       CAST(NTILE(4) OVER (
         PARTITION BY source ORDER BY n_chars, doc_id
       ) AS BIGINT) AS tile
FROM documents
""",
        "latest_event_per_user": """
SELECT user_id, event_id, ts, event_type, value FROM (
  SELECT user_id, event_id, ts, event_type, value,
         ROW_NUMBER() OVER (
           PARTITION BY user_id ORDER BY ts DESC, event_id DESC
         ) AS rn
  FROM events
) WHERE rn = 1
""",
        "docs_above_avg": """
WITH m AS (
  SELECT source, SUM(n_chars) / COUNT(*) AS mu, COUNT(*) AS n
  FROM documents GROUP BY source
)
SELECT d.source, CAST(m.n AS BIGINT) AS n_docs,
       CAST(SUM(CASE WHEN d.n_chars > m.mu THEN 1 ELSE 0 END) AS BIGINT)
         AS n_above,
       round_even(m.mu, 6) AS mean_chars
FROM documents d JOIN m ON d.source = m.source
GROUP BY d.source, m.n, m.mu
""",
        "orders_priority_share": """
SELECT o_orderpriority,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       round_even(SUM(o_totalprice), 4) AS revenue,
       round_even(SUM(o_totalprice) / SUM(SUM(o_totalprice)) OVER (), 6)
         AS share
FROM orders GROUP BY o_orderpriority
""",
        "events_dow_hour": """
SELECT CAST(EXTRACT(isodow FROM ts) - 1 AS BIGINT) AS dow,
       CAST(EXTRACT(hour FROM ts) AS BIGINT) AS hour,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       round_even(SUM(value), 4) AS sum_value
FROM events GROUP BY 1, 2
""",
        "user_retention": """
WITH w AS (
  SELECT DISTINCT user_id,
         CAST(FLOOR(epoch(ts) / 604800) AS BIGINT) AS week
  FROM events
),
c AS (SELECT user_id, MIN(week) AS cohort_week FROM w GROUP BY user_id)
SELECT c.cohort_week, w.week - c.cohort_week AS week_offset,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM w JOIN c ON w.user_id = c.user_id
GROUP BY 1, 2
""",
        "user_top_event_type": """
SELECT user_id, top_event_type, n FROM (
  SELECT user_id, event_type AS top_event_type,
         CAST(COUNT(*) AS BIGINT) AS n,
         ROW_NUMBER() OVER (
           PARTITION BY user_id ORDER BY COUNT(*) DESC, event_type
         ) AS rn
  FROM events GROUP BY user_id, event_type
) WHERE rn = 1
""",
        "heavy_hitters": """
WITH t AS (
  SELECT UNNEST(regexp_extract_all(text, '\\S+')) AS term FROM documents
),
n AS (SELECT COUNT(*) AS total FROM t)
SELECT term, CAST(COUNT(*) AS BIGINT) AS n
FROM t, n GROUP BY term, n.total
HAVING COUNT(*) > n.total / 256.0
""",
        "monthly_revenue_growth": """
WITH m AS (
  SELECT CAST(EXTRACT(year FROM o_orderdate) * 100
              + EXTRACT(month FROM o_orderdate) AS BIGINT) AS month,
         SUM(o_totalprice) AS rev
  FROM orders GROUP BY 1
)
SELECT month, round_even(rev, 4) AS revenue,
       round_even(
         (rev - LAG(rev) OVER (ORDER BY month))
           / LAG(rev) OVER (ORDER BY month), 6
       ) AS growth
FROM m
""",
        "top_bigram_pmi": """
WITH t AS (
  SELECT regexp_extract_all(text, '\\S+') AS toks FROM documents
),
u AS (SELECT UNNEST(toks) AS term FROM t),
uc AS (SELECT term, COUNT(*) AS c FROM u GROUP BY term),
nt AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM u),
b AS (
  SELECT UNNEST(list_zip(toks[1:len(toks)-1], toks[2:len(toks)])) AS pr
  FROM t WHERE len(toks) >= 2
),
bc AS (SELECT pr[1] AS w1, pr[2] AS w2, COUNT(*) AS c12 FROM b GROUP BY 1, 2),
nb AS (SELECT CAST(SUM(c12) AS DOUBLE) AS n FROM bc)
SELECT w1, w2, CAST(c12 AS BIGINT) AS n_pair,
       round_even(
         ln((c12 / nb.n) / ((u1.c / nt.n) * (u2.c / nt.n))), 6
       ) AS pmi
FROM bc CROSS JOIN nt CROSS JOIN nb
JOIN uc u1 ON bc.w1 = u1.term
JOIN uc u2 ON bc.w2 = u2.term
WHERE c12 >= 5
ORDER BY pmi DESC, w1, w2
LIMIT 50
""",
        "fuzzy_name_pairs": """
WITH n AS (SELECT DISTINCT c_name FROM customer)
SELECT a.c_name AS name_a, b.c_name AS name_b
FROM n a JOIN n b ON a.c_name < b.c_name
WHERE levenshtein(a.c_name, b.c_name) = 1
""",
        "customers_no_urgent_orders": """
SELECT CAST(c_custkey AS BIGINT) AS c_custkey, c_name,
       CAST(c_nationkey AS BIGINT) AS c_nationkey
FROM customer c
WHERE NOT EXISTS (
  SELECT 1 FROM orders o
  WHERE o.o_custkey = c.c_custkey AND o.o_orderpriority = '1-URGENT'
)
""",
        "events_value_percentile": """
SELECT event_id, event_type, value,
       round_even(
         PERCENT_RANK() OVER (PARTITION BY event_type ORDER BY value), 6
       ) AS pct_rank
FROM events
""",
        "search_topk": """
WITH d AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS toks FROM documents
),
p AS (SELECT DISTINCT doc_id, UNNEST(toks) AS term FROM d),
dfr AS (SELECT term, COUNT(*) AS df FROM p GROUP BY term),
q AS (SELECT term, df FROM dfr ORDER BY df DESC, term LIMIT 3),
n AS (SELECT CAST(COUNT(*) AS DOUBLE) AS nd FROM documents),
tf AS (
  SELECT u.doc_id, u.term, COUNT(*) AS tf
  FROM (SELECT doc_id, UNNEST(toks) AS term FROM d) u
  JOIN q ON u.term = q.term
  GROUP BY u.doc_id, u.term
),
s AS (
  SELECT tf.doc_id, SUM(tf.tf * ln(n.nd / q.df)) AS score
  FROM tf JOIN q ON tf.term = q.term CROSS JOIN n
  GROUP BY tf.doc_id
)
SELECT doc_id, round_even(score, 6) AS score
FROM s ORDER BY score DESC, doc_id LIMIT 10
""",
        # BM25 (Lucene idf): same deterministic query terms; the 6dp
        # round_even absorbs summation-order and ln 1-ulp differences
        "search_bm25": """
WITH d AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS toks FROM documents
),
p AS (SELECT DISTINCT doc_id, UNNEST(toks) AS term FROM d),
dfr AS (SELECT term, COUNT(*) AS df FROM p GROUP BY term),
q AS (SELECT term, df FROM dfr ORDER BY df DESC, term LIMIT 3),
st AS (
  SELECT CAST(COUNT(*) AS DOUBLE) AS nd,
         CAST(SUM(LENGTH(toks)) AS DOUBLE) / COUNT(*) AS avgdl
  FROM d
),
dl AS (SELECT doc_id, CAST(LENGTH(toks) AS DOUBLE) AS dl FROM d),
tf AS (
  SELECT u.doc_id, u.term, CAST(COUNT(*) AS DOUBLE) AS tf
  FROM (SELECT doc_id, UNNEST(toks) AS term FROM d) u
  JOIN q ON u.term = q.term
  GROUP BY u.doc_id, u.term
),
s AS (
  SELECT tf.doc_id,
         SUM(ln((st.nd - q.df + 0.5) / (q.df + 0.5) + 1.0)
             * tf.tf * (1.2 + 1.0)
             / (tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * dl.dl / st.avgdl))
         ) AS score
  FROM tf JOIN q ON tf.term = q.term
       JOIN dl ON tf.doc_id = dl.doc_id
       CROSS JOIN st
  GROUP BY tf.doc_id
)
SELECT doc_id, round_even(score, 6) AS score
FROM s ORDER BY score DESC, doc_id LIMIT 10
""",
        "doc_unigram_xent": """
WITH d AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS toks FROM documents
),
u AS (SELECT doc_id, UNNEST(toks) AS term FROM d),
c AS (SELECT term, CAST(COUNT(*) AS DOUBLE) AS c FROM u GROUP BY term),
tot AS (SELECT CAST(COUNT(*) AS DOUBLE) AS total FROM u),
tf AS (
  SELECT doc_id, term, CAST(COUNT(*) AS DOUBLE) AS tf FROM u GROUP BY 1, 2
),
dl AS (SELECT doc_id, CAST(LENGTH(toks) AS DOUBLE) AS dl FROM d)
SELECT tf.doc_id,
       round_even(SUM(tf.tf * -ln(c.c / tot.total)) / ANY_VALUE(dl.dl), 6)
         AS xent
FROM tf JOIN c USING (term) JOIN dl USING (doc_id) CROSS JOIN tot
GROUP BY tf.doc_id
""",
        "orders_price_rank": """
SELECT o_orderpriority, o_orderkey,
       ROUND(o_totalprice, 4) AS o_totalprice, price_rank
FROM (
  SELECT o_orderpriority, o_orderkey, o_totalprice,
         RANK() OVER (
           PARTITION BY o_orderpriority
           ORDER BY o_totalprice DESC
         ) AS price_rank
  FROM orders
)
WHERE price_rank <= 3
""",
        "documents_profile": """
SELECT 'doc_id' AS col, COUNT(*) AS n, COUNT(*)-COUNT(doc_id) AS n_null,
  COUNT(DISTINCT doc_id) AS n_distinct,
  round_even(CAST(MIN(doc_id) AS DOUBLE),6) AS min_v,
  round_even(CAST(MAX(doc_id) AS DOUBLE),6) AS max_v,
  round_even(SUM(CAST(doc_id AS DOUBLE))/COUNT(doc_id),6) AS mean_v
FROM documents
UNION ALL SELECT 'n_chars', COUNT(*), COUNT(*)-COUNT(n_chars),
  COUNT(DISTINCT n_chars),
  round_even(CAST(MIN(n_chars) AS DOUBLE),6),
  round_even(CAST(MAX(n_chars) AS DOUBLE),6),
  round_even(SUM(CAST(n_chars AS DOUBLE))/COUNT(n_chars),6)
FROM documents
UNION ALL SELECT 'lang', COUNT(*), COUNT(*)-COUNT(lang),
  COUNT(DISTINCT lang), 0.0, 0.0, 0.0 FROM documents
UNION ALL SELECT 'source', COUNT(*), COUNT(*)-COUNT(source),
  COUNT(DISTINCT source), 0.0, 0.0, 0.0 FROM documents
""",
        "orders_profile": """
SELECT 'o_orderkey' AS col, COUNT(*) AS n, COUNT(*)-COUNT(o_orderkey) AS n_null,
  COUNT(DISTINCT o_orderkey) AS n_distinct,
  round_even(CAST(MIN(o_orderkey) AS DOUBLE),6) AS min_v,
  round_even(CAST(MAX(o_orderkey) AS DOUBLE),6) AS max_v,
  round_even(SUM(CAST(o_orderkey AS DOUBLE))/COUNT(o_orderkey),6) AS mean_v FROM orders
UNION ALL SELECT 'o_custkey', COUNT(*), COUNT(*)-COUNT(o_custkey), COUNT(DISTINCT o_custkey),
  round_even(CAST(MIN(o_custkey) AS DOUBLE),6), round_even(CAST(MAX(o_custkey) AS DOUBLE),6),
  round_even(SUM(CAST(o_custkey AS DOUBLE))/COUNT(o_custkey),6) FROM orders
UNION ALL SELECT 'o_totalprice', COUNT(*), COUNT(*)-COUNT(o_totalprice), COUNT(DISTINCT o_totalprice),
  round_even(CAST(MIN(o_totalprice) AS DOUBLE),6), round_even(CAST(MAX(o_totalprice) AS DOUBLE),6),
  round_even(SUM(o_totalprice)/COUNT(o_totalprice),6) FROM orders
UNION ALL SELECT 'o_orderdate', COUNT(*), COUNT(*)-COUNT(o_orderdate), COUNT(DISTINCT o_orderdate),
  round_even(CAST(epoch_us(MIN(o_orderdate)) AS DOUBLE),6),
  round_even(CAST(epoch_us(MAX(o_orderdate)) AS DOUBLE),6), 0.0 FROM orders
UNION ALL SELECT 'o_orderstatus', COUNT(*), COUNT(*)-COUNT(o_orderstatus),
  COUNT(DISTINCT o_orderstatus), 0.0, 0.0, 0.0 FROM orders
UNION ALL SELECT 'o_orderpriority', COUNT(*), COUNT(*)-COUNT(o_orderpriority),
  COUNT(DISTINCT o_orderpriority), 0.0, 0.0, 0.0 FROM orders
""",
        "events_cube": """
SELECT COALESCE(event_type, 'ALL') AS event_type,
       COALESCE(CAST(dw AS VARCHAR), 'ALL') AS dow,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       round_even(SUM(value), 4) AS sum_value
FROM (
  SELECT event_type,
         CAST(EXTRACT(isodow FROM ts) - 1 AS BIGINT) AS dw, value
  FROM events
)
GROUP BY CUBE (event_type, dw)
""",
        "events_value_mad": """
WITH m AS (
  SELECT event_type, median(value) AS med FROM events GROUP BY event_type
)
SELECT e.event_type,
       round_even(ANY_VALUE(m.med), 6) AS median_value,
       round_even(median(abs(e.value - m.med)), 6) AS mad,
       CAST(COUNT(*) AS BIGINT) AS n
FROM events e JOIN m ON e.event_type = m.event_type
GROUP BY e.event_type
""",
        "props_k_stats": """
WITH x AS (
  SELECT event_type,
         CAST(regexp_extract(props, '"k":\\s*(-?\\d+)', 1) AS BIGINT) AS k
  FROM events
  WHERE regexp_matches(props, '"k":\\s*(-?\\d+)')
)
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_with_k,
       CAST(SUM(k) AS BIGINT) AS sum_k,
       round_even(SUM(k) / COUNT(*), 6) AS mean_k
FROM x GROUP BY event_type
""",
        "funnel_completions": """
WITH s AS (
  SELECT user_id, MIN(ts) AS signup_ts FROM events
  WHERE event_type = 'signup' GROUP BY user_id
),
c AS (
  SELECT e.user_id, MIN(e.ts) AS click_ts
  FROM events e JOIN s ON e.user_id = s.user_id
  WHERE e.event_type = 'click' AND e.ts > s.signup_ts
  GROUP BY e.user_id
),
p AS (
  SELECT e.user_id, MIN(e.ts) AS purchase_ts
  FROM events e JOIN c ON e.user_id = c.user_id
  WHERE e.event_type = 'purchase' AND e.ts > c.click_ts
  GROUP BY e.user_id
)
SELECT s.user_id, s.signup_ts, c.click_ts, p.purchase_ts
FROM s JOIN c ON s.user_id = c.user_id JOIN p ON c.user_id = p.user_id
""",
        "value_quantiles": """
WITH b AS (
  SELECT event_type, CAST(floor(32 * log2(value)) AS BIGINT) AS bin
  FROM events
)
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_events,
       round_even(pow(2.0, (quantile_disc(bin, 0.5) + 0.5) / 32.0), 6) AS p50_est,
       round_even(pow(2.0, (quantile_disc(bin, 0.9) + 0.5) / 32.0), 6) AS p90_est,
       round_even(pow(2.0, (quantile_disc(bin, 0.99) + 0.5) / 32.0), 6) AS p99_est
FROM b
GROUP BY event_type
""",
        "normalized_text_keys": """
SELECT doc_id,
       CAST(len(trim(regexp_replace(lower(text), '[ \\t\\n\\r\\f\\v]+', ' ', 'g'), ' ')) AS BIGINT)
         AS norm_len,
       md5(trim(regexp_replace(lower(text), '[ \\t\\n\\r\\f\\v]+', ' ', 'g'), ' ')) AS norm_key
FROM documents
""",
        "events_prev": """
SELECT event_id, user_id,
       COALESCE(
         LAG(event_id) OVER (PARTITION BY user_id ORDER BY ts, event_id),
         -1
       ) AS prev_event_id
FROM events
""",
        "orders_automobile": """
SELECT o_orderkey, o_custkey, ROUND(o_totalprice, 4) AS o_totalprice
FROM orders
WHERE o_custkey IN (
  SELECT c_custkey FROM customer WHERE c_mktsegment = 'AUTOMOBILE'
)
""",
        # bloom prefilter + exact join must equal the plain semi join
        "orders_automobile_bloom": """
SELECT o_orderkey, o_custkey, ROUND(o_totalprice, 4) AS o_totalprice
FROM orders
WHERE o_custkey IN (
  SELECT c_custkey FROM customer WHERE c_mktsegment = 'AUTOMOBILE'
)
""",
        "dedup_exact": """
SELECT md5(text) AS content_hash, MIN(doc_id) AS doc_id, COUNT(*) AS n_dups
FROM documents GROUP BY text
""",
        "token_stats": """
SELECT doc_id,
       LENGTH(text) AS n_chars_obs,
       LENGTH(regexp_extract_all(text, '\\S+')) AS n_ws_tokens,
       LENGTH(regexp_extract_all(text, '[A-Za-z0-9]+(''[a-z]+)?'))
         AS n_word_tokens
FROM documents
""",
        # a start is kept only if the PREVIOUS window (at s - stride)
        # did not already reach end-of-doc: s = 0 OR s + (chunk -
        # stride) < len — mirrors the engine's break-after-final-window
        "chunk_documents": """
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS t FROM documents
), starts AS (
  SELECT doc_id, t,
         UNNEST(generate_series(0, GREATEST(len(t) - 1, 0), 24)) AS s
  FROM toks WHERE len(t) > 0
)
SELECT doc_id,
       CAST(s // 24 AS BIGINT) AS chunk_idx,
       CAST(LEAST(32, len(t) - s) AS BIGINT) AS n_tokens,
       array_to_string(list_slice(t, s + 1, s + 32), ' ') AS chunk_text
FROM starts
WHERE s = 0 OR s + 8 < len(t)
""",
        "ann_topk": """
WITH q AS (
  SELECT vec_id, embedding FROM embeddings ORDER BY vec_id LIMIT 8
), qq AS (
  SELECT ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS query_id,
         CAST(embedding AS DOUBLE[]) AS qv
  FROM q
), scored AS (
  SELECT qq.query_id, e.vec_id,
         list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), qq.qv) AS s
  FROM embeddings e CROSS JOIN qq
), ranked AS (
  SELECT query_id, vec_id, s,
         ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY s DESC, vec_id ASC)
           AS rank
  FROM scored
)
SELECT query_id, rank, vec_id, ROUND(s, 6) AS score
FROM ranked WHERE rank <= 10
""",
    }
    base.update(extra)
    return base
