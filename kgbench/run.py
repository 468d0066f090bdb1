"""Benchmark entry point.

    python3 kgbench/run.py --workload kg_shuffle --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Everything else (Ray and progress logs, a provenance line, a summary)
goes to stderr.  The full report — provenance, metrics, check detail,
operator table and spans — is written to
``.kgbench_out/<workload>-s<seed>-t<trace>.json``.  Inputs, program
caches and Ray's temp dir live in ``.kgbench_work/`` and are removed on
exit.  A watchdog dumps every thread's stack and exits non-zero if a run
wedges.
"""

from __future__ import annotations

import argparse
import contextlib
import faulthandler
import json
import os
import shutil
import signal
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WATCHDOG_S = 165

WORKLOADS = ("kg_shuffle", "kg_partitioned")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args, work: str) -> dict:
    """Run one workload with its scratch files under ``work``; returns
    the full report."""
    from kgbench import kgflow
    from kgbench.common import Spans, provenance, ray_cpus
    from kgbench.metrics import END_TO_END, PER_LAYER, result_metrics

    spans = Spans(bool(args.trace), f"{args.workload}-s{args.seed}")
    out = kgflow.run(args.workload, args.seed, args.seconds, bool(args.trace), work, spans)
    names = [m[0] for m in (PER_LAYER if args.trace else END_TO_END)]
    values = out["per_layer"] if args.trace else out["end_to_end"]
    result = {
        "correct": out["failed"] == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": result_metrics(values, names),
    }
    report = {
        "provenance": provenance(args.workload, args.seed, kgflow.N_ORDERS, ray_cpus()),
        "result": result,
        "setup": out["setup"],
        "passes": out.get("passes"),
        "detail": out.get("detail"),
        "counts": out.get("counts"),
        "operators": out.get("operators"),
        "spans": spans.export(),
    }
    out_dir = os.path.join(ROOT, ".kgbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1, default=str)
    return report


def _descendants(pid: int) -> list:
    """Pids of every live descendant process of ``pid``."""
    children: dict = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(d))
    out, todo = [], [pid]
    while todo:
        kids = children.get(todo.pop(), [])
        out += kids
        todo += kids
    return out


def _fire_watchdog() -> None:
    """Stack dump of every thread, then kill the Ray processes this run
    started, wait for them, and exit 1."""
    faulthandler.dump_traceback(all_threads=True)
    procs = _descendants(os.getpid())
    for pid in procs:
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)
    for pid in procs:
        for _ in range(50):
            with contextlib.suppress(ChildProcessError, OSError):
                os.waitpid(pid, os.WNOHANG)
            if not os.path.exists(f"/proc/{pid}"):
                break
            time.sleep(0.05)
    os._exit(1)


def main(argv=None) -> int:
    args = _parse(argv)
    # a wedged run (e.g. a scheduling deadlock, as the autoscaling actor
    # pools of the transcript build can produce) becomes a failed run
    # inside the 180 s limit: the timer thread dumps stacks and stops the
    # Ray processes; faulthandler's own thread is the backstop when the
    # interpreter lock is never released
    timer = threading.Timer(WATCHDOG_S, _fire_watchdog)
    timer.daemon = True
    timer.start()
    faulthandler.dump_traceback_later(WATCHDOG_S + 8, exit=True)
    if not os.path.isdir(os.path.join(ROOT, "rdf_canon_ray")):
        print("rdf_canon_ray/ not found: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    work = os.path.join(ROOT, ".kgbench_work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    # before anything imports ray: its import and its workers write temp
    # files, and those must stay inside the checkout too
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    tempfile.tempdir = None
    try:
        with contextlib.redirect_stdout(sys.stderr):
            report = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report["provenance"]), file=sys.stderr)
    print(json.dumps(report["detail"], default=str)[:2000], file=sys.stderr)
    timer.cancel()
    faulthandler.cancel_dump_traceback_later()
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
