"""Kill/resume test: a failed run leaves completed partitions; the rerun
skips them (mtime-stable) and completes the output."""

import os

import pytest

SF = "/root/testdata/sf0.001"


def test_resume_skips_completed_partitions(ray_session, tmp_path):
    from rdf_canon_ray.pipelines import kg
    from rdf_canon_ray.state.lineage import completed_buckets, read_output

    out = str(tmp_path / "kgout")
    # first run: inject failures in two buckets → run aborts partway
    with pytest.raises(Exception):
        kg.run_kg_resumable(
            SF, out, num_buckets=8, _fail_buckets={2, 5}
        )
    done_after_fail = completed_buckets(os.path.join(out, "graphs"))
    assert 2 not in done_after_fail and 5 not in done_after_fail
    assert len(done_after_fail) >= 1  # some partitions completed

    mtimes = {
        b: os.path.getmtime(os.path.join(out, "graphs", f"bucket={b}"))
        for b in done_after_fail
    }

    # resume without failure injection: completes the remaining buckets
    summary = kg.run_kg_resumable(SF, out, num_buckets=8)
    assert set(summary["bucket"]) == set(range(8))
    skipped = set(summary[summary["status"] == "skipped"]["bucket"])
    assert skipped == done_after_fail
    for b in done_after_fail:  # untouched partitions
        assert (
            os.path.getmtime(os.path.join(out, "graphs", f"bucket={b}"))
            == mtimes[b]
        )

    # final output is complete and matches the in-memory pipeline
    got = read_output(os.path.join(out, "graphs")).to_pandas()
    assert len(got) == 1500
    assert (got["status"] == "ok").all()

    expect = kg.canonical_graphs_dataset(SF).to_pandas()
    a = got.sort_values("graph_id")["canon_nquads"].reset_index(drop=True)
    b = expect.sort_values("graph_id")["canon_nquads"].reset_index(drop=True)
    assert a.equals(b)


def test_stale_lineage_not_skipped(ray_session, tmp_path):
    """Partitions from a different bucket count or input are rewritten,
    not silently mixed into the output."""
    from rdf_canon_ray.pipelines import kg
    from rdf_canon_ray.state.lineage import completed_buckets

    out = str(tmp_path / "kgout2")
    kg.run_kg_resumable(SF, out, num_buckets=4)
    root = os.path.join(out, "graphs")
    assert completed_buckets(root, num_buckets=4, input_tag=SF) == set(range(4))
    # different bucket count or input → stale, nothing skippable
    assert completed_buckets(root, num_buckets=8, input_tag=SF) == set()
    assert completed_buckets(root, num_buckets=4, input_tag="/other") == set()

    # a rerun under a different bucket count rewrites every partition
    summary = kg.run_kg_resumable(SF, out, num_buckets=8)
    assert (summary["status"] == "written").all()


def test_failed_bucket_does_not_stop_the_others(ray_session, tmp_path):
    """A bucket_fn failure is raised after the run, once every other
    bucket has completed and been published, so a rerun redoes only the
    failed bucket."""
    import pandas as pd
    import ray.data as rd

    from rdf_canon_ray.stages.shuffle import add_bucket
    from rdf_canon_ray.state.lineage import completed_buckets, resumable_bucket_run

    df = pd.DataFrame({"k": range(400), "v": range(400)})
    bad = int(add_bucket(df.iloc[:1], ["k"], 8)["_bucket"].iloc[0])

    def bucket_fn(group: pd.DataFrame) -> pd.DataFrame:
        if (add_bucket(group.iloc[:1], ["k"], 8)["_bucket"] == bad).all():
            raise ValueError("injected")
        return group

    out = str(tmp_path / "runs")
    with pytest.raises(RuntimeError, match="injected"):
        resumable_bucket_run(rd.from_pandas(df), ["k"], bucket_fn, out, num_buckets=8)
    assert completed_buckets(out, num_buckets=8) == set(range(8)) - {bad}

    summary = resumable_bucket_run(rd.from_pandas(df), ["k"], lambda g: g, out, num_buckets=8)
    assert summary.loc[summary["status"] == "written", "bucket"].tolist() == [bad]
