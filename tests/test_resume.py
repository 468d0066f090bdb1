"""Resume contract of the flagship's resumable sink (``kg.run_kg_resumable``
→ ``store.bucket_store`` over the conversation layout): a rerun after a
crash or a failed part rewrites only the parts left unpublished, a
layout at another bucket count rewrites every part, and a target the
store did not write is refused."""

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rdf_canon_ray.state import store

SF = "/root/testdata/sf0.001"


def _mtimes(root: str) -> dict:
    return {b: os.stat(f).st_mtime_ns for b, f in store.parts(root).items()}


def _sorted_rows(ds):
    return ds.to_pandas().sort_values("graph_id").reset_index(drop=True)


def test_resume_skips_completed_partitions(ray_session, tmp_path):
    """A crash after a full run (two parts gone, one of them left as a
    half-published ``.tmp``, and no store manifest): the rerun rewrites
    only those two parts and the output equals the shuffle flagship."""
    from rdf_canon_ray.pipelines import kg

    out = str(tmp_path / "kgout")
    graphs = kg.run_kg_resumable(SF, out, num_buckets=16)
    assert graphs == os.path.join(out, "graphs")
    before = _mtimes(graphs)
    assert sorted(before) == list(range(16))

    shutil.rmtree(os.path.join(graphs, "part=3"))
    os.rename(os.path.join(graphs, "part=11"), os.path.join(graphs, "part=11.tmp"))
    os.remove(os.path.join(graphs, store.MANIFEST))
    assert 11 not in store.parts(graphs)  # a leftover is not a part

    assert kg.run_kg_resumable(SF, out, num_buckets=16) == graphs
    after = _mtimes(graphs)
    assert sorted(after) == list(range(16))
    assert not os.path.exists(os.path.join(graphs, "part=11.tmp"))
    assert store.manifest(graphs) is not None
    assert {b for b in after if after[b] != before.get(b)} == {3, 11}

    got = _sorted_rows(store.read(store.parts(graphs)))
    assert len(got) == 1500 and (got["status"] == "ok").all()
    exp = _sorted_rows(kg.canonical_graphs_dataset(SF))
    assert got[list(exp.columns)].equals(exp)


def test_failed_bucket_does_not_stop_the_others(ray_session, tmp_path):
    """A part that raises is reported after the build, naming its
    bucket, once every other part is published; a rerun rewrites only
    the failed part and then marks the store complete."""
    base = {}
    for b in range(6):
        base[b] = str(tmp_path / f"in{b}.parquet")
        pq.write_table(pa.table({"b": [b] * 3}), base[b])
    path = str(tmp_path / "store")

    def make_part_table(bad=None):
        def part_table(p):
            t = pq.read_table(p)
            if t["b"][0].as_py() == bad:
                raise ValueError("injected")
            return t

        return lambda: part_table

    with pytest.raises(RuntimeError, match=r"buckets \[4\] failed(.|\n)*injected"):
        store.bucket_store(path, base, make_part_table(bad=4))
    assert list(store.parts(path)) == [0, 1, 2, 3, 5]
    assert store.manifest(path) is None
    before = _mtimes(path)

    store.bucket_store(path, base, make_part_table())
    after = _mtimes(path)
    assert list(after) == list(range(6))
    assert {b for b in after if after[b] != before.get(b)} == {4}
    assert store.manifest(path)["fingerprint"] == store.stat_files(base)
    assert pq.read_table(store.parts(path)[4])["b"].to_pylist() == [4] * 3


def test_other_bucket_count_rewrites_every_part(ray_session, tmp_path):
    """A store built over the 8-bucket layout is not reused for the
    16-bucket one: every part is rewritten from the new layout's file,
    so no stale rows are mixed in."""
    from rdf_canon_ray.pipelines import kg

    out = str(tmp_path / "kgout")
    graphs = kg.run_kg_resumable(SF, out, num_buckets=8)
    before = _mtimes(graphs)
    kg.run_kg_resumable(SF, out, num_buckets=16)
    after = _mtimes(graphs)
    assert sorted(after) == list(range(16))
    assert all(after[b] != before[b] for b in before)
    layout = store.parts(kg.transcripts_parquet_partitioned(SF, 16))
    for b, f in store.parts(graphs).items():
        part_manifest = store.manifest(os.path.dirname(f))
        assert part_manifest["fingerprint"] == store.stat_files({layout[b]: layout[b]})
    got = store.read(store.parts(graphs)).to_pandas()
    assert len(got) == 1500 and got["graph_id"].is_unique


def test_foreign_target_is_refused(ray_session, tmp_path):
    """A non-empty target holding anything the store did not write is
    refused before any part is built, and left as it was."""
    from rdf_canon_ray.pipelines import kg

    out = tmp_path / "kgout"
    (out / "graphs").mkdir(parents=True)
    (out / "graphs" / "notes.txt").write_text("mine")
    with pytest.raises(FileExistsError, match="notes.txt"):
        kg.run_kg_resumable(SF, str(out), num_buckets=16)
    assert os.listdir(out / "graphs") == ["notes.txt"]
    assert (out / "graphs" / "notes.txt").read_text() == "mine"
