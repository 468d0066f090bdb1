"""Shared benchmark plumbing: timing, spans, the Ray session, the
program-cache redirect, Ray operator stats and provenance."""

from __future__ import annotations

import contextlib
import hashlib
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from .metrics import OP_STATS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets at
# <temp>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store.
_RAY_SOCKET_SUFFIX = 66


def median(xs) -> float:
    return float(statistics.median(xs))


class Spans:
    """In-memory span recorder: name, start, end, parent (and the
    trace id every span of one run shares).  Disabled, ``span`` is a
    no-op, so untraced runs pay nothing."""

    def __init__(self, enabled: bool, trace_id: str):
        self.enabled = enabled
        self.trace_id = trace_id
        self.rows: list = []
        self._stack: list = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        row = {
            "id": len(self.rows),
            "trace": self.trace_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self._t0,
            "end": None,
            **attrs,
        }
        self.rows.append(row)
        self._stack.append(row["id"])
        try:
            yield row
        finally:
            self._stack.pop()
            row["end"] = time.perf_counter() - self._t0

    def totals(self) -> dict:
        """Summed duration per span name."""
        out: dict = {}
        for r in self.rows:
            out[r["name"]] = out.get(r["name"], 0.0) + r["end"] - r["start"]
        return out

    def export(self) -> list:
        """Spans with self time (duration minus the time covered by
        direct children)."""
        child = [0.0] * len(self.rows)
        for r in self.rows:
            if r["parent"] is not None:
                child[r["parent"]] += r["end"] - r["start"]
        return [
            dict(r, self_s=r["end"] - r["start"] - child[r["id"]]) for r in self.rows
        ]


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def ray_cpus() -> int:
    """Ray CPU count: the cores this process may run on, at most 4 —
    never a fixed default that oversubscribes a small host."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def ray_temp_dir(work: str) -> tuple:
    """(dir, owned_outside_checkout): Ray's temp dir inside the
    checkout when the socket paths fit, else a short private temp dir
    that the run removes again."""
    inside = os.path.join(work, "ray")
    if len(inside) + _RAY_SOCKET_SUFFIX <= 107:
        return inside, False
    return tempfile.mkdtemp(prefix="kgb-", dir="/tmp"), True


@contextlib.contextmanager
def ray_session(work: str, num_cpus: int):
    """Start a private single-node Ray session; yields its init time.
    ``ray.shutdown`` runs on every exit path."""
    import logging

    import ray

    tmp, outside = ray_temp_dir(work)
    os.makedirs(tmp, exist_ok=True)
    # workers import the package from the checkout, not from a
    # by-value pickle of the driver's modules
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH", "")) if p
    )
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    t0 = time.perf_counter()
    try:
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            object_store_memory=1_000_000_000,
            log_to_driver=False,
            logging_level=logging.WARNING,
            _temp_dir=tmp,
        )
        import ray.data as rd

        ctx = rd.DataContext.get_current()
        ctx.enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        yield time.perf_counter() - t0
    finally:
        ray.shutdown()
        if outside:
            shutil.rmtree(tmp, ignore_errors=True)


def redirect_program_cache(cache_root: str) -> None:
    """Point the default ``cache_root`` of the program's persisted
    caches and stores at ``cache_root``.  Several callers
    (``canonical_graphs_partitioned``, ``canonical_store``,
    ``canonical_incremental``) do not pass a root down, so rebinding the
    default is the only way to keep every write inside the checkout."""
    from rdf_canon_ray.pipelines import kg
    from rdf_canon_ray.transcripts import gen

    for fn in (
        gen.transcripts_parquet,
        kg.transcripts_parquet_partitioned,
        kg.canonical_store,
    ):
        code = fn.__code__
        names = code.co_varnames[: code.co_argcount]
        defaults = list(fn.__defaults__ or ())
        if "cache_root" not in names[len(names) - len(defaults):]:
            continue
        defaults[names.index("cache_root") - (len(names) - len(defaults))] = cache_root
        fn.__defaults__ = tuple(defaults)


# --- Ray Data operator stats ---------------------------------------------

_EXCHANGE = re.compile(r"^(Sort|Aggregate|Repartition|RandomShuffle|HashShuffle|Shuffle|Join)")
_SOURCE = re.compile(r"^(Read|FromItems|FromPandas|FromArrow|Input)")
_TASKS = re.compile(r"(\d+) tasks executed")

STAT_FIELDS = [name for name, _, _ in OP_STATS]


def _flatten(summary) -> list:
    """Operator stats in execution order, upstream first."""
    out = []
    for parent in summary.parents:
        out.extend(_flatten(parent))
    out.extend(summary.operators_stats)
    return out


def _op_row(op) -> dict:
    def get(field, key):
        d = getattr(op, field, None) or {}
        return float(d.get(key, 0) or 0)

    m = _TASKS.search(getattr(op, "block_execution_summary_str", "") or "")
    tasks = int(m.group(1)) if m else int(get("task_rows", "count"))
    return {
        "tasks": tasks,
        "wall_sum_s": get("wall_time", "sum"),
        "wall_max_s": get("wall_time", "max"),
        "cpu_sum_s": get("cpu_time", "sum"),
        "udf_sum_s": get("udf_time", "sum"),
        "peak_heap_mb": get("memory", "max"),
        "rows_out": get("output_num_rows", "sum"),
        "bytes_out": get("output_size_bytes", "sum"),
    }


def operator_roles(ds, roles_of) -> dict:
    """Per-role operator table of a consumed Dataset, read from Ray's
    stats summary (``_get_stats_summary``).  ``roles_of(names)`` maps the
    flattened operator names (execution order) to stable role names, so
    Ray's fused operator strings never leak into metric names.  Returns
    ``{}`` when the stats API is unavailable."""
    try:
        flat = _flatten(ds._get_stats_summary())
    except Exception as e:  # stats are private API: degrade, don't fail
        print(f"operator stats unavailable: {e!r}", file=sys.stderr)
        return {}
    names = [op.operator_name for op in flat]
    out: dict = {}
    for op, role in zip(flat, roles_of(names)):
        if role is None:
            continue
        row = _op_row(op)
        acc = out.setdefault(role, dict.fromkeys(STAT_FIELDS, 0.0)
                             | {"start": float("inf"), "end": 0.0, "names": []})
        for k in STAT_FIELDS:
            acc[k] = max(acc[k], row[k]) if k in ("wall_max_s", "peak_heap_mb") else acc[k] + row[k]
        # active interval of the role on the driver's monotonic clock
        acc["start"] = min(acc["start"], float(getattr(op, "earliest_start_time", 0) or 0))
        acc["end"] = max(acc["end"], float(getattr(op, "latest_end_time", 0) or 0))
        acc["names"].append(op.operator_name)
    for acc in out.values():
        mean = acc["wall_sum_s"] / acc["tasks"] if acc["tasks"] else 0.0
        acc["skew"] = acc["wall_max_s"] / mean if mean else 0.0
    if "exchange" in out and "bucket" in out:
        # critical path through the exchange: from the last upstream
        # output to the first bucket task (sort map + reduce + scheduling)
        up = max((out[r]["end"] for r in ("read", "extract") if r in out),
                 default=out["bucket"]["start"])
        out["exchange"]["critical_s"] = out["bucket"]["start"] - up
    return out


def shuffle_roles(names: list) -> list:
    """Roles of a one-exchange plan: source, upstream map (extract),
    the all-to-all (exchange), the post-exchange map (bucket)."""
    ex = [i for i, n in enumerate(names) if _EXCHANGE.match(n)]
    roles = []
    for i, n in enumerate(names):
        if ex and ex[0] <= i <= ex[-1]:
            roles.append("exchange")
        elif ex and i > ex[-1]:
            roles.append("bucket")
        elif _SOURCE.match(n):
            roles.append("read")
        else:
            roles.append("extract")
    return roles


def map_only_roles(names: list) -> list:
    """Roles of a map-only plan over part-file descriptors: parquet
    reads of a persisted store are ``store_read``; every other map is a
    ``part`` task."""
    return [
        "store_read" if n.startswith("ReadParquet")
        else None if _SOURCE.match(n) or n.startswith("Union")
        else "part"
        for n in names
    ]


# --- provenance ----------------------------------------------------------


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over the program's Python sources — identifies the code
    under test where the checkout carries no git metadata."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "rdf_canon_ray")
    for dirpath, dirnames, files in sorted(os.walk(pkg)):
        dirnames.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(workload: str, seed: int, size: int, num_cpus) -> dict:
    import pyarrow

    try:
        import ray

        ray_version = ray.__version__
    except ImportError:
        ray_version = "absent"
    return {
        "workload": workload,
        "seed": seed,
        "corpus_size": size,
        "affinity_cores": len(os.sched_getaffinity(0)),
        "ray_num_cpus": num_cpus,
        "ray_version": ray_version,
        "pyarrow_version": pyarrow.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "source_sha256": source_digest(),
        "host": platform.machine(),
    }
