"""N-Quads source → distributed canonicalization → ordered corpus sink
round trip over small N-Quads datasets built in code."""

import os

import pytest


def test_canonical_corpus_sink(ray_session, tmp_path):
    import pandas as pd
    import ray.data as rd

    from rdf_canon_ray.core import canonicalize, nquads
    from rdf_canon_ray.sources.nquads import read_nquads, write_canonical_nquads
    from rdf_canon_ray.stages.canonicalize import canonicalize_graphs

    # build a small corpus: three datasets as three graphs — a blank-node
    # cycle, named graphs (one a blank node) with typed and tagged
    # literals, and two isomorphic 2-cycles (their hashes tie, so the
    # n-degree search runs)
    docs = {
        "cycle.nq": "_:a <urn:p> _:b .\n_:b <urn:p> _:c .\n"
        '_:c <urn:p> _:a .\n_:a <urn:q> "x" .\n',
        "named.nq": "_:e0 <urn:next> _:e1 <urn:g1> .\n"
        "_:e1 <urn:rest> <urn:nil> <urn:g1> .\n"
        '_:e0 <urn:label> "zero"@en .\n'
        '_:e1 <urn:size> "2"^^<http://www.w3.org/2001/XMLSchema#integer> _:g .\n',
        "twins.nq": "_:x <urn:p> _:y .\n_:y <urn:p> _:x .\n"
        "_:z <urn:p> _:w .\n_:w <urn:p> _:z .\n",
    }
    fixtures = list(docs)
    for f, text in docs.items():
        (tmp_path / f).write_text(text, encoding="utf-8")
    rows = []
    for f in fixtures:
        quads = nquads.parse_file(str(tmp_path / f))
        for q in quads:
            rows.append(
                {
                    "graph_id": f,
                    "s_kind": q[0],
                    "s": q[1],
                    "p": q[2],
                    "o_kind": q[3],
                    "o": q[4],
                    "o_dt": q[5],
                    "o_lang": q[6],
                    "g_kind": q[7],
                    "g": q[8],
                }
            )
    ds = rd.from_pandas(pd.DataFrame(rows))
    graphs = canonicalize_graphs(ds, num_buckets=2)

    out_dir = str(tmp_path / "corpus")
    paths = write_canonical_nquads(graphs, out_dir)
    assert paths and all(os.path.exists(p) for p in paths)

    # concatenating part files in lexicographic order reproduces the
    # per-graph canonical docs in graph_id order
    whole = "".join(open(p, encoding="utf-8").read() for p in paths)
    expected = "".join(
        canonicalize(nquads.parse_file(str(tmp_path / f)))
        for f in sorted(fixtures)
    )
    assert whole == expected


def test_read_nquads_graph_ids(ray_session, mixed_nquads):
    from rdf_canon_ray.sources.nquads import read_nquads

    df = read_nquads(mixed_nquads).to_pandas()
    # named graphs become their serialized term; default graph ""
    assert "" in set(df["graph_id"])
    named = {g for g in df["graph_id"] if g}
    assert all(g.startswith("<") for g in named)


def test_sink_names_collision_free(ray_session, tmp_path):
    """Part names must be collision-free and order-preserving for keys
    whose sanitized forms would collide ('<urn:a b>' vs '<urn:a_b>'),
    and the written corpus must reproduce key order."""
    import json

    import pandas as pd
    import ray.data as rd

    from rdf_canon_ray.sources.nquads import _part_name, write_canonical_nquads

    a = _part_name("<urn:a b>", "<urn:a b>")
    b = _part_name("<urn:a_b>", "<urn:a_b>")
    assert a != b
    assert (a < b) == ("<urn:a b>" < "<urn:a_b>")  # hex prefix keeps order
    # same first key, different last key → still distinct names
    assert _part_name("k", "k1") != _part_name("k", "k2")

    df = pd.DataFrame(
        {
            "graph_id": ["<urn:a_b>", "<urn:a b>"],
            "canon_nquads": ["doc-underscore\n", "doc-space\n"],
        }
    )
    out_dir = str(tmp_path / "collide")
    paths = write_canonical_nquads(rd.from_pandas(df), out_dir)
    whole = "".join(open(p, encoding="utf-8").read() for p in paths)
    assert whole == "doc-space\ndoc-underscore\n"  # '<urn:a b>' < '<urn:a_b>'
    idx = json.load(open(f"{out_dir}/_index.json"))
    assert idx["parts"] == [os.path.basename(p) for p in paths]


def test_jsonl_roundtrip_preserves_rows(ray_session, tmp_path):
    """JSONL sink + source round trip: identical rows, deterministic
    partition contents regardless of input block order."""
    import pandas as pd
    import ray.data as rd

    from rdf_canon_ray.sources.jsonl import read_jsonl, write_jsonl_partitioned

    df = pd.DataFrame(
        {
            "doc_id": range(100),
            "source": [f"s{i % 3}" for i in range(100)],
            "text": [f"doc {i} with unicode é🚀" for i in range(100)],
        }
    )
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    write_jsonl_partitioned(rd.from_pandas(df), out1, ["doc_id"], num_buckets=4)
    # different block structure, same rows
    write_jsonl_partitioned(
        rd.from_pandas(df).repartition(7), out2, ["doc_id"], num_buckets=4
    )
    a = read_jsonl(out1).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = read_jsonl(out2).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a[["doc_id", "source", "text"]].equals(df)
    assert a.equals(b)
    import os

    for part in sorted(os.listdir(out1)):
        assert open(f"{out1}/{part}/data.jsonl", "rb").read() == open(
            f"{out2}/{part}/data.jsonl", "rb"
        ).read()


def test_csv_roundtrip_preserves_rows(ray_session, tmp_path):
    """CSV sink + source round trip: identical rows, deterministic
    partition bytes regardless of input block order, and
    schema_overrides pin column types against CSV inference."""
    import os

    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from rdf_canon_ray.sources.csv import read_csv, write_csv_partitioned

    df = pd.DataFrame(
        {
            "doc_id": range(100),
            "source": [f"s{i % 3}" for i in range(100)],
            "n_chars": [i * 7 % 450 for i in range(100)],
        }
    )
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    write_csv_partitioned(rd.from_pandas(df), out1, ["doc_id"], num_buckets=4)
    write_csv_partitioned(
        rd.from_pandas(df).repartition(7), out2, ["doc_id"], num_buckets=4
    )
    a = read_csv(out1).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = read_csv(out2).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a[["doc_id", "source", "n_chars"]].equals(df)
    assert a.equals(b)
    for part in sorted(os.listdir(out1)):
        assert open(f"{out1}/{part}/data.csv", "rb").read() == open(
            f"{out2}/{part}/data.csv", "rb"
        ).read()
    # overrides force string ids through the round trip
    typed = read_csv(out1, schema_overrides={"source": pa.string()})
    assert typed.schema().base_schema.field("source").type == pa.string()


def test_compact_dir_preserves_rows_and_order(ray_session, tmp_path):
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from rdf_canon_ray.sources.compact import compact_dir, plan_groups

    src = str(tmp_path / "many")
    df = pd.DataFrame({"k": np.arange(5000, dtype=np.int64)})
    rd.from_pandas(df).repartition(10).sort("k").write_parquet(src)
    n_in = len([f for f in __import__("os").listdir(src) if f.endswith(".parquet")])
    assert n_in >= 4

    dst = str(tmp_path / "few")
    # target sized to force real merging but >1 output
    sizes = sum(
        __import__("os").path.getsize(f"{src}/{f}")
        for f in __import__("os").listdir(src)
        if f.endswith(".parquet")
    )
    stats = compact_dir(src, dst, target_bytes=sizes // 3)
    assert stats["files_in"] == n_in
    assert 1 < stats["files_out"] < n_in
    assert stats["rows"] == 5000
    # content identical and global order preserved (src was sorted)
    got = pq.read_table(dst).to_pandas()
    assert got["k"].tolist() == sorted(df["k"].tolist())


def test_compact_dir_refuses_nonempty_dst(tmp_path):
    """A non-empty ``dst`` is refused and left untouched (compaction used
    to return stats for output it then threw away)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rdf_canon_ray.sources.compact import compact_dir

    src, dst = tmp_path / "src", tmp_path / "dst"
    src.mkdir()
    dst.mkdir()
    pq.write_table(pa.table({"k": [1, 2]}), str(src / "a.parquet"))
    (dst / "keep.parquet").write_bytes(b"old output")
    with pytest.raises(FileExistsError, match="non-empty"):
        compact_dir(str(src), str(dst))
    assert os.listdir(dst) == ["keep.parquet"]
    assert (dst / "keep.parquet").read_bytes() == b"old output"
    assert not os.path.exists(str(dst) + ".tmp")
