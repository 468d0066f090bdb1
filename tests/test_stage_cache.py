"""The one stateful-stage idiom: ``util.stage_fn`` / ``util.stage_instance``
(a stateless task over one bounded per-process instance cache), and a
guard that actor pools do not come back."""

import gc
import os
import pathlib
import subprocess
import sys
import uuid
import weakref

import pandas as pd
import ray
import ray.data as rd

from rdf_canon_ray.util import stage_fn, stage_instance

REPO = pathlib.Path(__file__).resolve().parents[1]
SF = "/root/testdata/sf0.001"


class _Counted:
    built = 0

    def __init__(self, ref=None, n=0):
        type(self).built += 1
        self.ref, self.n = ref, n

    def __call__(self, batch):
        return (self, batch)


def test_same_key_builds_once():
    _Counted.built = 0
    ref = ray.ObjectRef.from_random()
    a = stage_instance(_Counted, ref=ref, n=1)
    b = stage_instance(_Counted, n=1, ref=ray.ObjectRef(ref.binary()))
    assert a is b and _Counted.built == 1
    fn = stage_fn(_Counted, ref=ref, n=1)
    assert fn.__name__ == "_Counted"
    assert fn("batch") == (a, "batch") and _Counted.built == 1


def test_new_ref_or_kwarg_rebuilds_and_releases_the_old_instance():
    _Counted.built = 0
    first = stage_instance(_Counted, ref=ray.ObjectRef.from_random(), n=1)
    gone = weakref.ref(first)
    del first
    second = stage_instance(_Counted, ref=ray.ObjectRef.from_random(), n=1)
    gc.collect()
    assert gone() is None and _Counted.built == 2
    gone = weakref.ref(second)
    del second
    stage_instance(_Counted, ref=None, n=2)
    gc.collect()
    assert gone() is None and _Counted.built == 3


def _scorer_a():
    class Scorer:
        def __init__(self, ref):
            self.kind = "a"

    return Scorer


def _scorer_b():
    class Scorer:
        def __init__(self, ref):
            self.kind = "b"

    return Scorer


def test_nested_classes_with_one_name_never_share_an_instance():
    ref = ray.ObjectRef.from_random()
    a = stage_instance(_scorer_a(), ref=ref)
    b = stage_instance(_scorer_b(), ref=ref)
    assert (a.kind, b.kind) == ("a", "b")
    # neither evicts the other: each class keeps its own entry
    assert stage_instance(_scorer_a(), ref=ref) is a
    assert stage_instance(_scorer_b(), ref=ref) is b


def test_no_actor_pool_wiring_in_the_package():
    banned = (
        "default_pool", "fn_constructor_kwargs", "concurrency=", "ActorPoolStrategy"
    )
    hits = [
        f"{p.relative_to(REPO)}: {word}"
        for p in sorted((REPO / "rdf_canon_ray").rglob("*.py"))
        for word in banned
        if word in p.read_text()
    ]
    assert hits == []


def test_stage_fn_builds_once_per_worker_process(ray_session):
    """The cache is per PROCESS, not per task: package modules and UDFs
    ship by value, so a module-level dict would be unpickled afresh with
    every task."""

    class Probe:
        def __init__(self, tag):
            self.token = uuid.uuid4().hex

        def __call__(self, batch):
            return pd.DataFrame({"pid": [os.getpid()], "token": [self.token]})

    out = (
        rd.range(64, override_num_blocks=16)
        .map_batches(stage_fn(Probe, tag="x"), batch_format="pandas", batch_size=None)
        .to_pandas()
    )
    assert len(out) == 16
    assert out["token"].nunique() == out["pid"].nunique()


_WEDGE_SCRIPT = """
import faulthandler, sys
faulthandler.dump_traceback_later({dump_s}, exit=False)
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         object_store_memory=300 * 2**20)
from rdf_canon_ray.pipelines import corpus
from rdf_canon_ray.transcripts import gen
rows = sum(
    len(b)
    for b in gen.build_transcripts({sf!r}).iter_batches(
        batch_size=None, batch_format="pandas"
    )
)
a = corpus.curate_corpus({sf!r}).to_pandas()
b = corpus.curate_corpus({sf!r}).to_pandas()
assert rows > 0 and len(a) > 0
assert sorted(a["doc_id"]) == sorted(b["doc_id"])
print("DONE", rows, len(a))
ray.shutdown()
"""


def test_former_actor_pool_stages_finish_on_two_cpus():
    """The stages that wedged as autoscaling actor pools on a small
    cluster (``gen.build_transcripts``'s turn stages, ``_Curator`` run
    twice) finish on a fresh ``num_cpus=2`` session."""
    timeout = 300
    script = _WEDGE_SCRIPT.format(dump_s=timeout - 30, repo=str(REPO), sf=SF)
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
    assert "DONE" in out, f"exit {proc.returncode}; stderr tail:\n{err[-4000:]}"
