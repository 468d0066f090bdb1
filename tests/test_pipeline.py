"""Pipeline-level tests over the sf0.001 testdata (Ray session-scoped)."""

import json

import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def transcripts(ray_session):
    from rdf_canon_ray.pipelines import kg

    return kg.build_transcripts(SF).materialize()


def test_transcript_schema_and_invariant(transcripts):
    df = transcripts.to_pandas()
    assert list(df.columns) == ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
    assert str(df["turn_idx"].dtype) == "int32"
    assert df["text"].str.len().gt(0).all()
    # per-turn text equality under stable turn ordering: assembling the
    # conversation twice (different row orders) yields identical turn text
    # sequences under the stable (turn_idx, text) sort.
    a = df.sort_values(["conv_id", "turn_idx", "text"], kind="mergesort")
    b = (
        df.sample(frac=1.0, random_state=7)
        .sort_values(["conv_id", "turn_idx", "text"], kind="mergesort")
    )
    assert (a["text"].to_numpy() == b["text"].to_numpy()).all()


def test_extraction_precision_recall(transcripts):
    """Extraction P/R vs relational ground truth must be ≥ 0.95 (it is
    exactly 1.0 by construction — any drop is a regression)."""
    import duckdb

    from rdf_canon_ray.pipelines import kg

    got = kg.triples_dataset(SF, transcripts).to_pandas()
    con = duckdb.connect()
    for t in ["orders", "lineitem", "customer", "part", "supplier"]:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    exp = con.execute(
        """
        WITH part_resolved AS (
          SELECT p_name, p_brand, MIN(p_partkey) AS pk FROM part GROUP BY 1,2
        ), t AS (
          SELECT 'conv-'||o_orderkey conv_id, 'urn:e:order:'||o_orderkey subj,
                 'urn:rel:placedBy' pred, 'urn:e:cust:'||o_custkey obj FROM orders
          UNION ALL SELECT 'conv-'||o_orderkey, 'urn:e:order:'||o_orderkey,
                 'urn:rel:status', o_orderstatus FROM orders
          UNION ALL SELECT 'conv-'||o_orderkey, 'urn:e:order:'||o_orderkey,
                 'urn:rel:priority', o_orderpriority FROM orders
          UNION ALL SELECT 'conv-'||l_orderkey, 'urn:e:order:'||l_orderkey,
                 'urn:rel:hasPart', 'urn:e:part:'||pr.pk
            FROM lineitem l JOIN part p ON l_partkey=p_partkey
            JOIN part_resolved pr ON p.p_name=pr.p_name AND p.p_brand=pr.p_brand
          UNION ALL SELECT 'conv-'||l_orderkey, 'urn:e:order:'||l_orderkey,
                 'urn:rel:suppliedBy', 'urn:e:supp:'||l_suppkey FROM lineitem
        ) SELECT DISTINCT * FROM t
        """
    ).df()
    gset = set(map(tuple, got.to_numpy()))
    eset = set(map(tuple, exp.to_numpy()))
    precision = len(gset & eset) / len(gset)
    recall = len(gset & eset) / len(eset)
    assert precision >= 0.95 and recall >= 0.95
    assert precision == 1.0 and recall == 1.0


def test_canonical_graphs_deterministic(transcripts):
    from rdf_canon_ray.pipelines import kg

    g1 = (
        kg.canonical_graphs_dataset(SF, transcripts)
        .to_pandas()
        .sort_values("graph_id")
        .reset_index(drop=True)
    )
    assert (g1["status"] == "ok").all()
    assert g1["canon_nquads"].str.len().gt(0).all()
    # canonical labels are c14nN
    lm = json.loads(g1.iloc[0]["label_map"])
    assert all(v.startswith("c14n") for v in lm.values())
    # determinism across executions (block order may differ)
    g2 = (
        kg.canonical_graphs_dataset(SF, transcripts)
        .to_pandas()
        .sort_values("graph_id")
        .reset_index(drop=True)
    )
    assert g1["canon_nquads"].equals(g2["canon_nquads"])
    # the 6-column inline transcripts (tool, ts included) give the same
    # documents as the 4-column cached read
    assert list(transcripts.schema().names) == [
        "conv_id", "turn_idx", "role", "text", "tool", "ts"
    ]
    cached = (
        kg.canonical_graphs_dataset(SF)
        .to_pandas()
        .sort_values("graph_id")
        .reset_index(drop=True)
    )
    assert g1["graph_id"].equals(cached["graph_id"])
    assert g1["canon_nquads"].equals(cached["canon_nquads"])


def test_partitioned_path_matches_shuffle_path(ray_session, tmp_path):
    """The map-only partitioned-storage path and the generic shuffle path
    produce identical canonical documents."""
    from rdf_canon_ray.pipelines import kg

    a = (
        kg.canonical_graphs_partitioned(SF, num_buckets=16)
        .to_pandas()
        .sort_values("graph_id")
        .reset_index(drop=True)
    )
    b = (
        kg.canonical_graphs_dataset(SF)
        .to_pandas()
        .sort_values("graph_id")
        .reset_index(drop=True)
    )
    assert a["canon_nquads"].equals(b["canon_nquads"])
    assert (a["status"] == "ok").all()


def test_conv_layout_buckets_hash_like_add_bucket(ray_session, tmp_path):
    """Every conversation of the conv-bucket layout sits in the part
    that ``shuffle.add_bucket`` names for it: the layout hashes exactly
    like the exchange, and callers (a refresh delta computed from
    conversation ids, say) may rely on that."""
    import os

    import pyarrow.parquet as pq

    from rdf_canon_ray.pipelines import kg
    from rdf_canon_ray.stages.shuffle import add_bucket

    root = kg.transcripts_parquet_partitioned(SF, 16, cache_root=str(tmp_path))
    parts = [d for d in os.listdir(root) if d.startswith("part=")]
    assert len(parts) > 1
    n_convs = 0
    for d in parts:
        ids = pq.read_table(os.path.join(root, d, "data.parquet"), columns=["conv_id"])
        ids = ids.to_pandas().drop_duplicates()
        assert (add_bucket(ids, ["conv_id"], 16)["_bucket"] == int(d.split("=")[1])).all()
        n_convs += len(ids)
    assert n_convs == kg.build_transcripts(SF).to_pandas()["conv_id"].nunique()


def _operators(ds) -> list:
    """Ray's per-operator stats of ``ds``, after consuming it."""

    def flat(summary):
        for parent in summary.parents:
            yield from flat(parent)
        yield from summary.operators_stats

    for _ in ds.iter_batches(batch_size=None):
        pass
    return list(flat(ds._get_stats_summary()))


def _tasks_of(ops: list, fn_name: str) -> int:
    """Tasks run by the (possibly fused) map operator of ``fn_name``,
    read from a consumed Dataset's ``_operators`` (a Union that names
    it runs no tasks)."""
    import re

    counts = [
        int(m.group(1))
        for op in ops
        if f"MapBatches({fn_name})" in op.operator_name
        and (m := re.search(r"(\d+) tasks executed", op.block_execution_summary_str))
    ]
    assert len(counts) == 1, counts
    return counts[0]


def test_flagship_stages_run_planned_task_counts(ray_session):
    """Task counts follow ``util.plan_partitions``, not the upstream
    block count: the flagship bucket stage runs one task per planned
    block of buckets, and the partitioned path, the incremental delta
    stages and the store reads one task per planned block of part
    files."""
    import os

    from rdf_canon_ray.pipelines import graph, kg
    from rdf_canon_ray.util import cluster_cpus, default_buckets, plan_partitions

    cores = cluster_cpus()
    shuffle_ops = _operators(kg.canonical_graphs_dataset(SF))
    assert _tasks_of(shuffle_ops, "run_block") == plan_partitions(default_buckets())
    # extraction runs inside the bucket tasks, not as a stage before the
    # exchange (where fusion with the prepare made it one serial task)
    assert not [
        op.operator_name
        for op in shuffle_ops
        if "MapBatches(extract_mentions_arrow)" in op.operator_name
    ]
    assert _tasks_of(_operators(kg.canonical_graphs_partitioned(SF, 16)), "process") == min(
        16, cores
    )
    root = kg.transcripts_parquet_partitioned(SF, 16)
    n_delta = sum(
        int(d.split("=")[1]) % 4 == 0 for d in os.listdir(root) if d.startswith("part=")
    )
    n_base = sum(
        d.startswith("part=") for d in os.listdir(kg.canonical_store(SF, 16, delta_mod=4))
    )
    ops = _operators(kg.canonical_incremental(SF, 16, delta_mod=4))
    assert not [op.operator_name for op in ops if "ReadParquet" in op.operator_name]
    assert _tasks_of(ops, "read_files") == plan_partitions(n_base)
    assert _tasks_of(ops, "process") == min(n_delta, cores)
    comention = _operators(graph.comention_incremental(SF, 16, delta_mod=4))
    assert _tasks_of(comention, "process") == min(n_delta, cores)


def test_incremental_merge_equals_full_rebuild(ray_session):
    """Persisted base store ∪ delta canonicalization == from-scratch
    rebuild, byte-for-byte on the canonical documents."""
    from rdf_canon_ray.pipelines import kg

    merged = (
        kg.canonical_incremental_full(SF, num_buckets=16, delta_mod=4)
        .to_pandas()
        .sort_values("graph_id")
        .reset_index(drop=True)
    )
    full = (
        kg.canonical_graphs_dataset(SF)
        .to_pandas()
        .sort_values("graph_id")
        .reset_index(drop=True)
    )
    # the store side adds no column (a hive ``part`` column, say) that
    # the delta side and the rebuild lack
    assert list(merged.columns) == list(full.columns)
    assert merged["graph_id"].tolist() == full["graph_id"].tolist()
    assert merged["canon_nquads"].equals(full["canon_nquads"])
    assert merged["n_quads"].tolist() == full["n_quads"].tolist()
    # and the delta really is a strict subset of the work: the store
    # covers only the non-delta buckets
    import os

    store = kg.canonical_store(SF, num_buckets=16, delta_mod=4)
    parts = [d for d in os.listdir(store) if d.startswith("part=")]
    assert all(int(p.split("=")[1]) % 4 != 0 for p in parts)
    assert 0 < len(parts) < 16


def test_canonical_store_rebuilds_on_stale_fingerprint(ray_session, tmp_path):
    """The store records an input fingerprint of the base partition
    files (size+mtime); touching a base bucket in place must trigger a
    rebuild instead of serving the stale store (ADVICE r04 #1), and the
    rebuild rewrites only that bucket's part."""
    import json
    import os

    from rdf_canon_ray.pipelines import kg
    from rdf_canon_ray.pipelines.kg import transcripts_parquet_partitioned
    from rdf_canon_ray.state.store import parts

    def mtimes():
        return {b: os.stat(f).st_mtime_ns for b, f in parts(store).items()}

    cache = str(tmp_path / "cache")
    store = kg.canonical_store(SF, num_buckets=16, delta_mod=4, cache_root=cache)
    mf = os.path.join(store, "_store.json")
    assert os.path.isfile(mf)
    with open(mf) as f:
        fp0 = json.load(f)["fingerprint"]
    # cache hit: same input → same dir, manifest untouched
    assert kg.canonical_store(SF, num_buckets=16, delta_mod=4, cache_root=cache) == store
    # simulate an in-place layout regeneration: bump one base file's mtime
    before = mtimes()
    root = transcripts_parquet_partitioned(SF, 16, cache)
    base_file = os.path.join(root, "part=1", "data.parquet")
    st = os.stat(base_file)
    os.utime(base_file, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))
    store2 = kg.canonical_store(SF, num_buckets=16, delta_mod=4, cache_root=cache)
    with open(os.path.join(store2, "_store.json")) as f:
        fp1 = json.load(f)["fingerprint"]
    assert fp1 != fp0  # rebuilt against the new layout fingerprint
    # only the part mirroring the touched base file was rewritten
    after = mtimes()
    assert list(after) == list(before) and 1 in before
    assert {b for b in after if after[b] != before[b]} == {1}


def test_transcript_caches_rebuild_on_changed_input(ray_session, tmp_path):
    """Rewriting a source table the transcripts are built from rebuilds
    both the flat transcript cache and the conv-partitioned layout (they
    used to be served as fresh whenever the directory was non-empty)."""
    import os
    import shutil

    import pyarrow.parquet as pq

    from rdf_canon_ray.pipelines import kg

    sf = str(tmp_path / "sf0.001")
    shutil.copytree(SF, sf)
    cache = str(tmp_path / "cache")

    def n_convs(path):
        return len(pq.read_table(path, columns=["conv_id"])["conv_id"].unique())

    flat0 = n_convs(kg.transcripts_parquet(sf, cache))
    part0 = n_convs(kg.transcripts_parquet_partitioned(sf, 8, cache))
    assert flat0 == part0 > 0
    orders = pq.read_table(os.path.join(sf, "orders.parquet"))
    pq.write_table(orders.slice(0, orders.num_rows // 2), os.path.join(sf, "orders.parquet"))
    flat1 = n_convs(kg.transcripts_parquet(sf, cache))
    part1 = n_convs(kg.transcripts_parquet_partitioned(sf, 8, cache))
    assert flat1 == part1 < flat0


def test_quarantine_poison_graph(ray_session):
    """A poison clique graph is quarantined; healthy graphs still pass."""
    import ray.data as rd

    from rdf_canon_ray.core import BNODE, IRI, make_quad
    from rdf_canon_ray.stages.canonicalize import canonicalize_graphs
    from rdf_canon_ray.transcripts.extract import quads_table

    # a directed K8 over blank nodes: its HNDQ search overruns the call
    # limit (tests/test_canon_properties.py pins K8 raising on its own)
    clique = [
        make_quad(BNODE, f"k{i}", "urn:rel:link", BNODE, f"k{j}")
        for i in range(8)
        for j in range(8)
        if i != j
    ]
    quads = quads_table(
        [("poison", q) for q in clique]
        + [("healthy", make_quad(IRI, "urn:s", "urn:p", BNODE, "x"))]
    )
    ds = rd.from_arrow(quads)
    out = canonicalize_graphs(ds, num_buckets=4).to_pandas()
    by = out.set_index("graph_id")
    assert by.loc["poison", "status"] == "quarantined"
    assert by.loc["healthy", "status"] == "ok"
    assert "_:c14n0" in by.loc["healthy", "canon_nquads"]


def test_run_kg_pipeline_end_to_end(ray_session, tmp_path):
    """Flagship runner with all three sinks: resumable graph partitions,
    triple parquet, ordered canonical N-Quads corpus."""
    import os

    import ray.data as rd

    from rdf_canon_ray.pipelines import kg

    out = str(tmp_path / "full")
    graphs = kg.run_kg_pipeline(SF, output_root=out)
    df = graphs.to_pandas()
    assert len(df) == 1500 and (df["status"] == "ok").all()

    tri = rd.read_parquet(os.path.join(out, "triples")).to_pandas()
    assert len(tri) == 15388

    nq_dir = os.path.join(out, "canonical_nquads")
    parts = sorted(os.listdir(nq_dir))
    assert parts
    text = "".join(
        open(os.path.join(nq_dir, p), encoding="utf-8").read() for p in parts
    )
    assert text.count("\n") == sum(
        doc.count("\n") for doc in df["canon_nquads"]
    )
    # corpus ordered by graph_id: first line belongs to conv-0
    assert "<urn:conv:conv-0>" in text.split("\n", 40)[0] or "urn:e:order:0" in text.split("\n", 1)[0]


def test_cli_kg_rerun_rewrites_nothing(ray_session, tmp_path):
    """``python -m rdf_canon_ray kg SF OUT`` run twice: the second run
    finds every graph part published and rewrites none, and the triple
    table and the N-Quads corpus are replaced, not appended to."""
    import os

    import ray.data as rd

    from rdf_canon_ray.__main__ import main
    from rdf_canon_ray.state import store

    out = str(tmp_path / "kg")
    graphs = os.path.join(out, "graphs")

    def snapshot():
        return {f: os.stat(f).st_mtime_ns for f in store.parts(graphs).values()}

    assert main(["kg", SF, out]) == 0
    first = snapshot()
    assert main(["kg", SF, out]) == 0
    assert first and snapshot() == first
    assert rd.read_parquet(os.path.join(out, "triples")).count() == 15388
    # the sort's block bounds (so the part names) vary per run: no part
    # of the first run may linger outside the index
    nq = os.path.join(out, "canonical_nquads")
    with open(os.path.join(nq, "_index.json")) as f:
        listed = json.load(f)["parts"]
    assert sorted(listed) == sorted(set(os.listdir(nq)) - {"_index.json"})


def test_cli_canonicalize_and_issue(tmp_path):
    """CLI surface: ``canonicalize`` and ``issue`` print what the core
    library returns for the same file, and the printed document is a
    fixed point (run in-process; neither command starts Ray)."""
    import contextlib
    import io

    from rdf_canon_ray.__main__ import main
    from rdf_canon_ray.core import canonicalize, nquads
    from rdf_canon_ray.core.canon import issue

    path = tmp_path / "in.nq"
    path.write_text(
        "_:e0 <http://example.com/#p> _:e1 .\n"
        "_:e1 <http://example.com/#p> _:e2 .\n"
        "_:e2 <http://example.com/#p> _:e0 .\n"
        '_:e0 <http://example.com/#q> "x\\ty"@en <http://example.com/g> .\n'
        '_:e3 <http://example.com/#r> "7"^^<http://www.w3.org/2001/XMLSchema#integer> _:e1 .\n',
        encoding="utf-8",
    )
    quads = nquads.parse_file(str(path))

    def run(*argv) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(list(argv)) == 0
        return buf.getvalue()

    for hash_name in ("sha256", "sha384"):
        doc = run("canonicalize", str(path), "--hash", hash_name)
        assert doc == canonicalize(quads, hash_name)
        assert canonicalize(nquads.parse(doc), hash_name) == doc
        assert doc.count("\n") == 5
    labels = json.loads(run("issue", str(path)))
    assert labels == issue(quads)
    assert sorted(labels.values()) == [f"c14n{i}" for i in range(4)]


def test_cli_canonicalize_out_writes_one_document_per_graph(ray_session, tmp_path):
    """``canonicalize IN.nq --out DIR`` (read_nquads → canonicalize_graphs
    → write_canonical_nquads): the part files, read in ``_index.json``
    order, hold per ``graph_id`` in key order what ``core.canonicalize``
    returns for that graph's quads."""
    import contextlib
    import io
    import os

    from rdf_canon_ray.__main__ import main
    from rdf_canon_ray.core import canonicalize, nquads
    from rdf_canon_ray.core.terms import DEFAULT, IRI

    path = tmp_path / "in.nq"
    path.write_text(
        "_:a <urn:p> _:b .\n"
        "_:b <urn:p> _:a .\n"
        '_:a <urn:label> "zero"@en .\n'
        "_:e0 <urn:next> _:e1 <urn:g1> .\n"
        '_:e1 <urn:size> "2"^^<http://www.w3.org/2001/XMLSchema#integer> <urn:g1> .\n'
        '_:e0 <urn:text> "tab\\there \\"q\\" \\u0001 \\U0001F680" <urn:g1> .\n'
        "_:x <urn:p> <urn:o> _:g .\n"
        "_:x <urn:p> _:y _:g .\n",
        encoding="utf-8",
    )
    graphs = {}
    for q in nquads.parse_file(str(path)):
        gid = "" if q[7] == DEFAULT else f"<{q[8]}>" if q[7] == IRI else f"_:{q[8]}"
        graphs.setdefault(gid, []).append(q)
    assert sorted(graphs) == ["", "<urn:g1>", "_:g"]

    out = tmp_path / "corpus"
    for hash_name in ("sha256", "sha384"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["canonicalize", str(path), "--hash", hash_name,
                         "--out", str(out / hash_name)]) == 0
        parts = json.load(open(out / hash_name / "_index.json"))["parts"]
        got = "".join(
            open(os.path.join(out, hash_name, p), encoding="utf-8").read() for p in parts
        )
        assert got == "".join(canonicalize(graphs[g], hash_name) for g in sorted(graphs))


def test_partitioned_linker_matches_broadcast(ray_session, monkeypatch):
    """Entity-linker dimension gate (VERDICT r04 #3): above
    LINKER_BROADCAST_MAX, mention surfaces resolve via co-partitioned
    hash joins with NO driver dicts — byte-equal canon docs, identical
    triples and scored links on both sides of the threshold."""
    from rdf_canon_ray.pipelines import kg

    def run():
        canon = (
            kg.canonical_graphs_dataset(SF)
            .to_pandas()
            .sort_values("graph_id")
            .reset_index(drop=True)
        )
        key = lambda d: sorted(map(tuple, d.to_numpy()))
        links = kg.links_dataset(SF).to_pandas()
        links["score"] = links["score"].round(6)
        return canon, key(kg.triples_dataset(SF).to_pandas()), key(links)

    dims = kg._linker_cardinality(SF)
    monkeypatch.setattr(kg, "LINKER_BROADCAST_MAX", dims)
    assert not kg._use_partitioned_linker(SF)
    a, ta, la = run()
    monkeypatch.setattr(kg, "LINKER_BROADCAST_MAX", dims - 1)
    assert kg._use_partitioned_linker(SF)
    b, tb, lb = run()
    assert a["graph_id"].equals(b["graph_id"])
    assert a["canon_nquads"].equals(b["canon_nquads"])
    assert ta == tb
    assert la == lb
