"""Cluster-adaptive sizing helpers and the one idiom for stateful stages.

Stages size themselves off the actual cluster so the same code scales
from a laptop to N nodes.  A stage that carries state (a broadcast
dimension table, precomputed coefficients) is a class run as a
stateless task through ``stage_fn``: the instance is built once per
worker process and reused by every later task there, so tasks scale to
every free core at once and no actor pool has to ramp up or reserve
workers.
"""

from __future__ import annotations

import sys
import threading
import types

import ray
import ray.data as rd


def cluster_cpus(default: int = 8) -> int:
    try:
        if ray.is_initialized():
            return int(ray.cluster_resources().get("CPU", default))
    except Exception:
        pass
    return default


def plan_partitions(n_units: int) -> int:
    """The one partition plan: how many blocks (and so tasks) a stage of
    ``n_units`` independent units — hash buckets, part files — runs as.
    One block per core: every core gets work, and each task pays the
    per-call fixed cost of its kernel once over a large input."""
    return max(1, min(n_units, cluster_cpus()))


def planned(ds: rd.Dataset) -> rd.Dataset:
    """A private deep copy of ``ds`` that runs with Ray Data's per-operator
    object-store reservation off.  The reservation sizes a stage's first
    task at 2 × ``target_max_block_size`` until an output returns, which
    on a small store runs that task alone.  The flag drops object-store
    backpressure for the whole execution of the copy and of all derived
    from it, so call it only on a finished plan whose stages the cores
    bound, never on a building block (deep: derived Datasets share one
    context object)."""
    ds = rd.Dataset.copy(ds, _deep_copy=True)
    ds.context.op_resource_reservation_enabled = False
    return ds


def default_buckets(mult: int = 4, floor: int = 32, ceil: int = 1024) -> int:
    """Shuffle bucket count ≈ mult × cores, bounded. More buckets than
    cores keeps every core busy through the tail; the ceiling bounds
    per-bucket scheduling overhead."""
    return max(floor, min(ceil, mult * cluster_cpus()))


# Package modules ship to workers BY VALUE (``runtime.ensure_importable``),
# so a module-level dict here would be unpickled afresh with every task and
# never hit.  The instances live in a registry module in ``sys.modules``
# instead, which every task of a worker process shares.
_REGISTRY = "_rdf_canon_ray_stage_instances"


def _registry() -> types.ModuleType:
    reg = sys.modules.get(_REGISTRY)
    if reg is None:
        new = types.ModuleType(_REGISTRY)
        new.by_class, new.lock = {}, threading.RLock()
        reg = sys.modules.setdefault(_REGISTRY, new)
    return reg


def stage_instance(cls, **kw):
    """``cls(**kw)``, built once per process and key.

    At most one instance per stage class stays alive: a new key replaces
    (and releases) the old one, so the broadcast tables of earlier
    queries do not pile up in long-lived workers.  The class is named by
    ``__module__``/``__qualname__`` (classes ship by value, so identity
    differs per task, and two nested classes may share ``__name__``); the
    key is the kwargs, with ObjectRefs by ``.hex()`` so the entry never
    pins a broadcast object, and other values compared by ``==``."""
    reg = _registry()
    name = (cls.__module__, cls.__qualname__)
    key = tuple(
        sorted(
            (k, v.hex() if isinstance(v, ray.ObjectRef) else v)
            for k, v in kw.items()
        )
    )
    with reg.lock:
        hit = reg.by_class.get(name)
        if hit is None or hit[0] != key:
            reg.by_class.pop(name, None)  # release the old one before building
            hit = reg.by_class[name] = (key, cls(**kw))
    return hit[1]


def stage_fn(cls, **kw):
    """Batch function for ``map_batches``: runs the per-process
    ``stage_instance(cls, **kw)`` on each batch (a stateless task, where
    ``cls`` itself would start an actor pool).  ObjectRefs in ``kw`` are
    fetched by ``cls.__init__`` on the worker."""

    def run(batch):
        return stage_instance(cls, **kw)(batch)

    # Ray names the operator after the function: keep the stage's name
    run.__name__ = run.__qualname__ = cls.__name__
    return run
