"""Contract of the persisted-directory primitive (``state/store.py``),
one case per rule.  Only the ``store.read`` cases start Ray."""

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rdf_canon_ray.state import store


class Builder:
    """A build callback that counts its calls.  It owns ``tmp`` outright
    and recreates it, as a writer that clears its target may."""

    def __init__(self, value=1):
        self.calls = 0
        self.value = value

    def __call__(self, tmp):
        self.calls += 1
        shutil.rmtree(tmp)
        os.makedirs(tmp)
        pq.write_table(pa.table({"x": [self.value] * 3}), os.path.join(tmp, "part-0.parquet"))
        return {"rows": 3}


def _x(path):
    return pq.read_table(os.path.join(path, "part-0.parquet"))["x"].to_pylist()


def test_hit_never_calls_build(tmp_path):
    path = str(tmp_path / "s")
    b = Builder()
    assert store.cached(path, [["a", 1, 2]], b) == path
    assert store.cached(path, (("a", 1, 2),), b) == path  # tuples read back as lists
    assert b.calls == 1
    m = store.manifest(path)
    assert m["fingerprint"] == [["a", 1, 2]] and m["rows"] == 3


def test_changed_fingerprint_rebuilds(tmp_path):
    path = str(tmp_path / "s")
    store.cached(path, "v1", Builder(1))
    b2 = Builder(2)
    store.cached(path, "v2", b2)
    assert b2.calls == 1 and _x(path) == [2, 2, 2]
    assert store.manifest(path)["fingerprint"] == "v2"
    assert not os.path.exists(path + ".stale")


@pytest.mark.parametrize("damage", ["truncated", "format"])
def test_bad_manifest_rebuilds(tmp_path, damage):
    path = str(tmp_path / "s")
    store.cached(path, "fp", Builder())
    mf = os.path.join(path, store.MANIFEST)
    if damage == "truncated":
        text = open(mf).read()
        open(mf, "w").write(text[: len(text) // 2])
    else:
        json.dump({"format": store.FORMAT + 1, "fingerprint": "fp"}, open(mf, "w"))
    assert store.manifest(path) is None
    b = Builder()
    store.cached(path, "fp", b)
    assert b.calls == 1 and store.manifest(path)["fingerprint"] == "fp"


def test_leftover_tmp_is_discarded(tmp_path):
    path = str(tmp_path / "s")
    os.makedirs(path + ".tmp")
    open(os.path.join(path + ".tmp", "junk.parquet"), "w").write("dead run")
    store.cached(path, "fp", Builder())
    assert not os.path.exists(path + ".tmp")
    assert sorted(os.listdir(path)) == [store.MANIFEST, "part-0.parquet"]


def test_stale_copy_is_restored_then_hits(tmp_path):
    path = str(tmp_path / "s")
    store.cached(path, "fp", Builder(7))
    os.rename(path, path + ".stale")  # crash between the two renames
    b = Builder(8)
    assert store.cached(path, "fp", b) == path
    assert b.calls == 0 and _x(path) == [7, 7, 7]
    assert not os.path.exists(path + ".stale")


def test_failed_build_keeps_old_dir(tmp_path):
    path = str(tmp_path / "s")
    store.cached(path, "v1", Builder(1))

    def boom(tmp):
        open(os.path.join(tmp, "half.parquet"), "w").write("partial")
        raise RuntimeError("build died")

    with pytest.raises(RuntimeError, match="build died"):
        store.cached(path, "v2", boom)
    assert _x(path) == [1, 1, 1]
    assert store.manifest(path)["fingerprint"] == "v1"
    assert not os.path.exists(path + ".tmp")


def test_parquet_read_ignores_manifest(tmp_path):
    path = str(tmp_path / "s")
    store.publish(path, Builder(5), "fp")
    assert os.path.isfile(os.path.join(path, store.MANIFEST))
    assert pq.read_table(path)["x"].to_pylist() == [5, 5, 5]


def test_stat_files_tracks_rewrites(tmp_path):
    f = tmp_path / "t.parquet"
    f.write_text("one")
    a = store.stat_files({"t": str(f)})
    f.write_text("three")
    b = store.stat_files({"t": str(f)})
    assert a[0][0] == "t" and a != b


def test_plain_publish_writes_no_manifest(tmp_path):
    path = str(tmp_path / "sink")
    store.publish(path, lambda tmp: open(os.path.join(tmp, "data.csv"), "w").close())
    assert os.listdir(path) == ["data.csv"]


def _parts(tmp_path, n=5):
    """``n`` part files of 3 rows each, in a hive-style layout."""
    files = []
    for b in range(n):
        d = tmp_path / f"part={b}"
        d.mkdir()
        files.append(str(d / "data.parquet"))
        pq.write_table(
            pa.table({"k": [b] * 3, "v": [f"{b}.{i}" for i in range(3)], "w": [0.5] * 3}),
            files[-1],
        )
    return files


def test_read_runs_one_task_per_planned_block(ray_session, tmp_path):
    import re

    from rdf_canon_ray.util import cluster_cpus, plan_partitions

    files = _parts(tmp_path, cluster_cpus() + 1)  # files share blocks
    stats = store.read(files).materialize().stats()
    tasks = re.search(r"MapBatches\(read_files\): (\d+) tasks executed", stats).group(1)
    assert int(tasks) == plan_partitions(len(files)) < len(files)


@pytest.mark.parametrize("columns", [None, ["v", "k"]])
def test_read_equals_file_order_concat(ray_session, tmp_path, columns):
    """Rows and columns equal the concatenated files in file order, and
    ``columns`` prunes; no hive partition column is added."""
    import ray.data as rd

    files = _parts(tmp_path)[::-1]
    exp = pa.concat_tables([pq.read_table(f, columns=columns) for f in files]).to_pandas()
    ctx = rd.DataContext.get_current()
    keep, ctx.execution_options.preserve_order = ctx.execution_options.preserve_order, True
    try:
        got = store.read(files, columns).to_pandas()
    finally:
        ctx.execution_options.preserve_order = keep
    assert list(got.columns) == (columns or ["k", "v", "w"])
    assert got.equals(exp)


def test_read_of_no_files_is_empty(ray_session):
    """No files: a 0-row Dataset with no columns that every consumer
    takes."""
    ds = store.read([])
    assert ds.count() == 0
    assert ds.to_pandas().shape == (0, 0)
    assert list(ds.iter_batches(batch_size=None)) == []


def test_parts_lists_buckets_in_bucket_order(tmp_path):
    files = _parts(tmp_path, 12)  # part=10 lists after part=9, not part=1
    os.makedirs(tmp_path / "_other")
    assert list(store.parts(str(tmp_path)).values()) == files
    base, delta = store.split_parts(str(tmp_path), 4)
    assert list(delta) == [0, 4, 8]
    assert list(base) == [b for b in range(12) if b % 4]
    assert base[10] == files[10]


def test_only_the_store_spells_the_bucketed_layout():
    """The bucketed layout (its part names, its planned file map) lives
    in ``state/store.py`` alone; every other module goes through it."""
    import pathlib

    owner = pathlib.Path(store.__file__).resolve()
    pkg = owner.parents[1]
    banned = ("part=", "bucket=", "override_num_blocks=plan_partitions")
    hits = [
        f"{p.relative_to(pkg)}: {word}"
        for p in sorted(pkg.rglob("*.py"))
        if p != owner
        for word in banned
        if word in p.read_text()
    ]
    assert hits == []
