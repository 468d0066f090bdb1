"""Self-tests of the benchmark's input generators and metric catalogue.

    python3 -m pytest kgbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import os

from kgbench import corpus, metrics, run

N = 300


def _digests(d: str) -> dict:
    out = {}
    for f in sorted(os.listdir(d)):
        with open(os.path.join(d, f), "rb") as fh:
            out[f] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_sf_corpus_same_seed_is_byte_identical(tmp_path):
    a = corpus.write_sf_corpus(str(tmp_path / "a"), 5, N)
    b = corpus.write_sf_corpus(str(tmp_path / "b"), 5, N)
    assert _digests(a) == _digests(b)
    assert sorted(_digests(a)) == sorted(
        f"{t}.parquet"
        for t in ("region", "nation", "customer", "supplier", "part", "orders", "lineitem")
    )


def test_sf_corpus_two_seeds_differ(tmp_path):
    a = _digests(corpus.write_sf_corpus(str(tmp_path), 5, N))
    b = _digests(corpus.write_sf_corpus(str(tmp_path), 6, N))
    assert a["orders.parquet"] != b["orders.parquet"]
    assert a["lineitem.parquet"] != b["lineitem.parquet"]


def test_corpus_dir_names_carry_seed_and_size(tmp_path):
    d = corpus.write_sf_corpus(str(tmp_path), 5, N)
    assert os.path.basename(d) == f"kg_s5_n{N}" == corpus.corpus_name(5, N)


def test_sf_corpus_shape(tmp_path):
    import pyarrow.parquet as pq

    d = corpus.write_sf_corpus(str(tmp_path), 5, N)
    orders = pq.read_table(os.path.join(d, "orders.parquet"))
    li = pq.read_table(os.path.join(d, "lineitem.parquet"))
    assert orders.num_rows == N
    assert len(set(orders["o_orderkey"].to_pylist())) == N
    assert set(li["l_orderkey"].to_pylist()) <= set(orders["o_orderkey"].to_pylist())
    assert 3 * N < li.num_rows < 5 * N


def test_sf_corpus_matches_recorded_sf01_shape(tmp_path):
    """Per-graph size and value shapes of the sf0.1 tables the generator
    is fitted to (README.md, "Corpus shape"): lineitems per order mean 4.0
    with ~1.8% empty orders, 64 part names over 25 brands, 50.0 quads and
    7.0 blank nodes per graph, lineitem rows not grouped by order."""
    import statistics

    import pyarrow.parquet as pq

    from kgbench import checks

    d = corpus.write_sf_corpus(str(tmp_path), 11, 3000)
    sizes = list(checks.derived_sizes(d).values())
    assert abs(statistics.mean(q for q, _ in sizes) - 50.0) < 1.0
    assert abs(statistics.mean(b for _, b in sizes) - 7.0) < 0.15
    assert 0.01 < sum(b == 3 for _, b in sizes) / len(sizes) < 0.03
    part = pq.read_table(os.path.join(d, "part.parquet"))
    assert len(set(part["p_name"].to_pylist())) == 64
    assert len(set(part["p_brand"].to_pylist())) == 25
    okeys = pq.read_table(os.path.join(d, "lineitem.parquet"))["l_orderkey"].to_pylist()
    assert okeys != sorted(okeys)


def test_no_conversation_reaches_hndq(tmp_path):
    """Two tool turns of one conversation with the same line number, part
    name, brand and supplier but different quantities would share a
    first-degree hash; the sf0.1-sized dimension tables keep that away."""
    import pyarrow.parquet as pq

    d = corpus.write_sf_corpus(str(tmp_path), 9, 3000)
    li = pq.read_table(os.path.join(d, "lineitem.parquet")).to_pylist()
    part = {r["p_partkey"]: (r["p_name"], r["p_brand"])
            for r in pq.read_table(os.path.join(d, "part.parquet")).to_pylist()}
    qty: dict = {}
    for r in li:
        key = (r["l_orderkey"], r["l_linenumber"], part[r["l_partkey"]], r["l_suppkey"])
        qty.setdefault(key, set()).add(r["l_quantity"])
    assert all(len(q) == 1 for q in qty.values())


def test_benchmark_json_matches_catalogue():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER
    ]
