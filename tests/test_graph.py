"""Entity co-mention graph analytics: edges + fixed-iteration PageRank."""

import numpy as np
import pandas as pd
import ray.data as rd

from rdf_canon_ray.pipelines import graph
from rdf_canon_ray.state import store as persisted

SF = "/root/testdata/sf0.001"


def test_pagerank_star_graph_hand_computed(ray_session):
    # star K1,3: center c with leaves l1..l3; 2 iterations by hand:
    #   r1(c) = .15 + .85*3 = 2.7          r1(l) = .15 + .85/3
    #   r2(c) = .15 + .85*3*r1(l) = 1.255  r2(l) = .15 + .85*2.7/3 = .915
    adj = rd.from_pandas(
        pd.DataFrame(
            {
                "node": ["c", "l1", "l2", "l3"],
                "srcs": [["l1", "l2", "l3"], ["c"], ["c"], ["c"]],
                "deg": np.array([3, 1, 1, 1], np.int64),
            }
        )
    )
    deg_df = pd.DataFrame(
        {"node": ["c", "l1", "l2", "l3"], "deg": np.array([3, 1, 1, 1])}
    )
    out = (
        graph._pagerank_iterate(*graph._encoded_adjacency(adj, deg_df), 2)
        .to_pandas()
        .set_index("entity_iri")["rank"]
    )
    assert out["c"] == 1.255
    assert out["l1"] == out["l2"] == out["l3"] == 0.915


def test_comention_edges_symmetric_free_and_distinct(ray_session):
    edges = graph.comention_edges(SF).to_pandas()
    assert (edges["e1"] < edges["e2"]).all()
    assert not edges.duplicated(["e1", "e2"]).any()
    assert len(edges) > 0


def test_pagerank_broadcast_matches_partitioned(ray_session, monkeypatch, spy):
    calls = spy(graph, "_pagerank_partitioned")
    bc = (
        graph.pagerank(SF, iterations=3)
        .to_pandas()
        .sort_values("entity_iri")
        .reset_index(drop=True)
    )
    assert calls == []
    monkeypatch.setattr(graph, "RESIDENT_GRAPH_MAX_NODES", 0)
    part = (
        graph.pagerank(SF, iterations=3)
        .to_pandas()
        .sort_values("entity_iri")
        .reset_index(drop=True)
    )
    assert len(calls) == 1
    assert bc["entity_iri"].tolist() == part["entity_iri"].tolist()
    # identical math, different float summation order → equal to well
    # below the 6 dp rounding both paths apply
    np.testing.assert_allclose(
        bc["rank"].to_numpy(), part["rank"].to_numpy(), atol=2e-6
    )
    # mean-1 normalization: ranks are O(1) and average near 1
    assert 0.5 < bc["rank"].mean() < 1.5


def test_bfs_broadcast_matches_partitioned(ray_session, monkeypatch, spy):
    calls = spy(graph, "_bfs_partitioned")
    bc = (
        graph.bfs_depths(SF, max_depth=3)
        .to_pandas()
        .sort_values("entity_iri")
        .reset_index(drop=True)
    )
    assert calls == []
    monkeypatch.setattr(graph, "RESIDENT_GRAPH_MAX_NODES", 0)
    part = (
        graph.bfs_depths(SF, max_depth=3)
        .to_pandas()
        .sort_values("entity_iri")
        .reset_index(drop=True)
    )
    assert len(calls) == 1
    assert bc["entity_iri"].tolist() == part["entity_iri"].tolist()
    assert bc["depth"].tolist() == part["depth"].tolist()
    assert (bc["depth"] == 0).sum() == 1  # exactly one seed


def test_triangle_counts_vs_set_intersection(ray_session):
    got = (
        graph.triangle_counts(SF)
        .to_pandas()
        .sort_values("entity_iri")
        .reset_index(drop=True)
    )
    # independent ground truth: per-node triangles = Σ_{(a,b)∈E}
    # |N(a)∩N(b)| distributed to the three corners, via adjacency sets
    edges = graph.comention_edges(SF).to_pandas()
    adj = {}
    for a, b in edges.itertuples(index=False):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    tri = {}
    for a, b in edges.itertuples(index=False):
        for c in adj[a] & adj[b]:
            for n in (a, b, c):
                tri[n] = tri.get(n, 0) + 1
    # each triangle's (a,b,c) is seen via its 3 edges → counted 3× per corner
    exp = {n: t // 3 for n, t in tri.items()}
    assert dict(zip(got["entity_iri"], got["n_triangles"])) == exp
    assert (got["clustering"] > 0).all() and (got["clustering"] <= 1).all()


def test_triangles_partitioned_matches_broadcast(ray_session, monkeypatch, spy):
    # the 100-TB path (no node-/edge-scale broadcast anywhere) must
    # produce the exact same counts as the broadcast kernel — verified
    # at sf0.01 per the round-3 brief, once through each gate alone
    sf = "/root/testdata/sf0.01"
    key = lambda df: (
        df.to_pandas()
        .sort_values("entity_iri")
        .reset_index(drop=True)
    )
    calls = spy(graph, "_triangles_partitioned")
    bc = key(graph.triangle_counts(sf))
    assert calls == []
    for gate in ("TRIANGLE_NODE_BROADCAST_MAX", "TRIANGLE_EDGE_BROADCAST_MAX"):
        with monkeypatch.context() as m:
            m.setattr(graph, gate, 0)
            part = key(graph.triangle_counts(sf))
        assert len(calls) == 1, gate
        calls.clear()
        pd.testing.assert_frame_equal(bc, part)


def test_mix_sources_quotas(ray_session):
    import duckdb

    sf = "/root/testdata/sf0.01"
    from rdf_canon_ray.pipelines import corpus

    out = corpus.mix_sources(sf).to_pandas()
    counts = duckdb.sql(
        f"SELECT source, COUNT(*) AS c FROM read_parquet('{sf}/documents.parquet') GROUP BY 1"
    ).df()
    got = out.groupby("source").size()
    import numpy as np

    for _, row in counts.iterrows():
        n = int(row["source"].removeprefix("src"))
        quota = min(int(row["c"]), int(np.floor((n + 1) / 210.0 * 300)))
        assert got.get(row["source"], 0) == quota
    # rank is 1..quota per source
    assert (out.groupby("source")["sample_rank"].max() == got).all()


def test_pagerank_cap_is_deterministic(ray_session):
    a = graph.comention_edges(SF, max_conv_entities=3).to_pandas()
    b = graph.comention_edges(SF, max_conv_entities=3).to_pandas()
    key = lambda d: sorted(map(tuple, d.to_numpy()))
    assert key(a) == key(b)
    full = graph.comention_edges(SF).to_pandas()
    assert len(a) < len(full)


def test_adjacency_store_cold_load_equality(ray_session):
    """The persisted encoded-adjacency store (VERDICT r04 #4) must give
    byte-identical pagerank/BFS when loaded cold (in-process caches
    cleared), and rebuild when the transcript corpus changes."""
    import json
    import os
    import shutil

    store = graph._adjacency_store_dir(SF, None)
    shutil.rmtree(store, ignore_errors=True)
    # the persist happens on BUILD — drop the in-process cache so this
    # test is order-independent (earlier tests may have packed SF)
    graph._ENC_CACHE.clear()
    a = graph.pagerank(SF).to_pandas().sort_values("entity_iri").reset_index(drop=True)
    manifest = persisted.manifest(store)
    assert manifest is not None
    assert manifest["fingerprint"]["v"] == graph._ADJ_STORE_V
    # simulate a cold session: drop every in-process cache
    graph._ENC_CACHE.clear()
    graph._ADJ_CACHE.clear()
    graph._PAIRS_CACHE.clear()
    b = graph.pagerank(SF).to_pandas().sort_values("entity_iri").reset_index(drop=True)
    assert a.equals(b)
    bfs_a = graph.bfs_depths(SF).to_pandas().sort_values("entity_iri").reset_index(drop=True)
    graph._ENC_CACHE.clear()
    bfs_b = graph.bfs_depths(SF).to_pandas().sort_values("entity_iri").reset_index(drop=True)
    assert bfs_a.equals(bfs_b)
    # stale fingerprint → loader refuses (rebuild path)
    bad = dict(manifest, fingerprint=[["tampered", 0, 0]])
    with open(os.path.join(store, persisted.MANIFEST), "w") as f:
        json.dump(bad, f)
    assert graph._load_resident_graph(
        store, graph._adjacency_fingerprint(SF)
    ) is None
    shutil.rmtree(store, ignore_errors=True)


def test_triangle_hub_split_equals_whole_segments(ray_session):
    """Wedge-balanced task planning (VERDICT r04 #5): forcing a tiny
    wedge budget makes every hub's out-list split across pair-range
    sub-tasks; corner partials must bincount-merge to the same counts
    as the unsplit run."""
    a = (
        graph.triangle_counts(SF)
        .to_pandas()
        .sort_values("entity_iri")
        .reset_index(drop=True)
    )
    b = (
        graph.triangle_counts(SF, wedge_budget_floor=25)
        .to_pandas()
        .sort_values("entity_iri")
        .reset_index(drop=True)
    )
    assert a.equals(b)
    assert a["n_triangles"].sum() > 0


def test_comention_incremental_equals_full_rebuild(ray_session):
    """Incremental graph refresh (VERDICT r04 #6): persisted base pair
    store ∪ delta-bucket pairs == full comention_edges rebuild; the
    store holds only non-delta buckets (refresh cost O(delta))."""
    import os

    key = lambda d: sorted(map(tuple, d.to_numpy()))
    full = graph.comention_edges(SF).to_pandas()
    inc = graph.comention_incremental(SF, num_buckets=16, delta_mod=4).to_pandas()
    assert key(full) == key(inc)
    store = graph.comention_store(SF, num_buckets=16, delta_mod=4)
    parts = [d for d in os.listdir(store) if d.startswith("part=")]
    assert parts and all(int(p.split("=")[1]) % 4 != 0 for p in parts)


def test_comention_store_builds_under_its_cache_root(ray_session, tmp_path):
    """The store AND the transcript layout it reads land under the
    caller's ``cache_root`` (the layout used to go to the default root
    whatever the caller passed), with the same parts as the default
    root's store."""
    import os

    import pyarrow.parquet as pq

    root = str(tmp_path)
    store = graph.comention_store(SF, num_buckets=16, delta_mod=4, cache_root=root)
    assert store.startswith(root)
    assert os.path.isdir(os.path.join(root, "sf0.001", "transcripts_by_conv_16"))
    default = graph.comention_store(SF, num_buckets=16, delta_mod=4)
    parts = sorted(d for d in os.listdir(store) if d.startswith("part="))
    assert parts == sorted(d for d in os.listdir(default) if d.startswith("part="))
    for d in parts:
        a, b = (
            pq.read_table(os.path.join(s, d, "data.parquet")).to_pandas()
            for s in (store, default)
        )
        assert sorted(map(tuple, a.to_numpy())) == sorted(map(tuple, b.to_numpy()))


def test_partition_pairs_batch_fn_on_empty_batch():
    """A zero-row descriptor batch gives an empty typed pair frame (it
    used to index the empty result list and raise IndexError)."""
    out = graph._partition_pairs_batches(None)(
        pd.DataFrame({"path": pd.Series([], dtype=object)})
    )
    assert len(out) == 0 and list(out.columns) == ["c1", "c2"]
    assert (out.dtypes == np.int64).all()
