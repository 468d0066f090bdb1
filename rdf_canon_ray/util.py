"""Cluster-adaptive sizing helpers.

Fixed pool sizes silently cap scaling: an actor pool of (1, 8) runs
identically on 8 and 32 CPUs.  Stages size themselves off the actual
cluster so the same code scales from a laptop to N nodes.
"""

from __future__ import annotations


def cluster_cpus(default: int = 8) -> int:
    try:
        import ray

        if ray.is_initialized():
            return int(ray.cluster_resources().get("CPU", default))
    except Exception:
        pass
    return default


def default_pool(cap: int | None = None) -> tuple:
    """Autoscaling actor-pool bounds (min 1, max ≈ cluster CPUs)."""
    n = cluster_cpus()
    if cap is not None:
        n = min(n, cap)
    return (1, max(2, n))


def plan_partitions(n_units: int) -> int:
    """The one partition plan: how many blocks (and so tasks) a stage of
    ``n_units`` independent units — hash buckets, part files — runs as.
    One block per core: every core gets work, and each task pays the
    per-call fixed cost of its kernel once over a large input."""
    return max(1, min(n_units, cluster_cpus()))


def default_buckets(mult: int = 4, floor: int = 32, ceil: int = 1024) -> int:
    """Shuffle bucket count ≈ mult × cores, bounded. More buckets than
    cores keeps every core busy through the tail; the ceiling bounds
    per-bucket scheduling overhead."""
    return max(floor, min(ceil, mult * cluster_cpus()))
