"""Finished flagship plans run as one wave (``util.planned``): every task
of a planned ``store.map_files`` stage and of a planned
``shuffle.map_buckets`` stage is running at the same time, also on a
small object store, where Ray Data's per-operator reservation would
otherwise start each stage's first task alone.  Only the flagship plans
and the store build are planned: the building blocks, and every plan
composed from them elsewhere, keep the reservation whatever the order
of a union's inputs.  The conversation layout build is planned too:
it is a finished plan the library builds end to end."""

import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]

_WAVE_SCRIPT = """
import faulthandler, os, sys, time, uuid
faulthandler.dump_traceback_later({dump_s}, exit=False)
sys.path.insert(0, {repo!r})
import pandas as pd
import ray
import ray.data as rd
from ray.data import DataContext
ray.init(address="local", num_cpus=4, include_dashboard=False,
         object_store_memory=10**9)
from rdf_canon_ray.stages import shuffle
from rdf_canon_ray.state import store
from rdf_canon_ray.util import plan_partitions, planned

P = plan_partitions(4)
ROOT = {root!r}


def meet(stage):
    # a bounded barrier: wait until P tasks of this stage have started,
    # and report how many had when it let go
    d = os.path.join(ROOT, stage)
    os.makedirs(d, exist_ok=True)
    open(os.path.join(d, uuid.uuid4().hex), "w").close()
    deadline = time.monotonic() + {wait_s}
    while len(os.listdir(d)) < P and time.monotonic() < deadline:
        time.sleep(0.02)
    return len(os.listdir(d))


files = planned(store.map_files(
    [f"f{{i}}" for i in range(P)],
    lambda batch: pd.DataFrame({{"met": [meet("files")] * len(batch)}}),
)).to_pandas()

ds = rd.from_items([{{"_bucket": b}} for b in range(P)])
buckets = planned(shuffle.map_buckets(
    ds, P, lambda group: pd.DataFrame({{"met": [meet("buckets")]}})
)).to_pandas()

print("MET", P, sorted(files["met"]), sorted(buckets["met"]))
print("RESERVATION", ds.context.op_resource_reservation_enabled,
      DataContext.get_current().op_resource_reservation_enabled)
ray.shutdown()
"""


def test_planned_stages_start_every_task_at_once(tmp_path):
    timeout = 300
    script = _WAVE_SCRIPT.format(
        dump_s=timeout - 30, repo=str(REPO), root=str(tmp_path), wait_s=30
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
        env={k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"},
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        out, err = proc.communicate()
    assert "MET" in out, f"exit {proc.returncode}; stderr tail:\n{err[-4000:]}"
    # every task met all of its stage's tasks at the barrier
    assert "MET 4 [4, 4, 4, 4] [4, 4, 4, 4]" in out, out
    # neither the caller's Dataset nor the global context was changed
    assert "RESERVATION True True" in out, out


SF = "/root/testdata/sf0.001"


def _reserves(ds) -> bool:
    return ds.context.op_resource_reservation_enabled


def test_only_flagship_plans_are_planned(ray_session, tmp_path, monkeypatch):
    """The flag is set on the finished flagship plans alone; building
    blocks and the other pipelines' unions (``graph.comention_incremental``,
    ``store.read(...).union(...)`` as in ``events_hourly_incremental``)
    keep the reservation, in either union order.  The conversation
    layout build hands ``store.write_buckets`` a planned plan; the csv
    sink, which feeds it a caller's plan, does not.  Nothing is
    executed here but the cached layout and store builds and one small
    csv sink."""
    import ray.data as rd
    from ray.data import DataContext

    from rdf_canon_ray.pipelines import graph, kg
    from rdf_canon_ray.sources.csv import write_csv_partitioned
    from rdf_canon_ray.stages import shuffle
    from rdf_canon_ray.state import store

    for ds in (
        kg.canonical_graphs_dataset(SF),
        kg.canonical_sizes(SF),
        kg.canonical_graphs_partitioned(SF, 16),
        kg.canonical_incremental(SF, 16, delta_mod=4),
        kg.canonical_incremental_full(SF, 16, delta_mod=4),
    ):
        assert not _reserves(ds)

    parts = store.parts(kg.canonical_store(SF, 16, delta_mod=4))
    stored = store.read(parts)
    plain = rd.from_items([{"_bucket": b} for b in range(4)])
    for ds in (
        stored,
        store.map_files(parts, lambda batch: batch),
        shuffle.exchange_buckets(plain, 4),
        shuffle.map_buckets(plain, 4, lambda group: group),
        stored.union(plain),
        plain.union(stored),
        graph.comention_incremental(SF, 16, delta_mod=4),
    ):
        assert _reserves(ds)

    reserves = []
    write_buckets = store.write_buckets

    def spy(ds, *args, **kwargs):
        reserves.append(_reserves(ds))
        return write_buckets(ds, *args, **kwargs)

    monkeypatch.setattr(store, "write_buckets", spy)
    kg.transcripts_parquet_partitioned(SF, 4, str(tmp_path / "cache"))
    write_csv_partitioned(
        rd.from_items([{"k": i} for i in range(8)]), str(tmp_path / "csv"), ["k"], 4
    )
    assert reserves == [False, True]
    assert DataContext.get_current().op_resource_reservation_enabled
