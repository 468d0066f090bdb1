"""Resumable partitioned output with per-partition lineage.

"Resumable from checkpoint" for a batch pipeline means: output is laid
out as one directory per key-range partition, each published through
``state.store`` (its manifest — input, bucket count, keys, row counts —
is the completion marker), so a rerun after a crash

  1. lists completed partitions (cheap metadata scan),
  2. filters them out of the *input* before the shuffle (no recompute,
     no reshuffle of finished work),
  3. processes only the remaining buckets.

The partition key is the same hash bucket used by the engine's bucketed
shuffles — one partitioning decision reused across stages.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Callable, Sequence, Set

import pandas as pd
import ray.data as rd

from ..stages.shuffle import add_bucket, map_buckets
from . import store


def _published_buckets(out_root: str) -> dict:
    """bucket id → manifest of every published ``bucket=N`` partition."""
    out = {}
    if not os.path.isdir(out_root):
        return out
    for name in os.listdir(out_root):
        b = name[len("bucket="):]
        if name.startswith("bucket=") and b.isdigit():
            m = store.manifest(os.path.join(out_root, name))
            if m is not None:
                out[int(b)] = m
    return out


def completed_buckets(
    out_root: str,
    num_buckets: int | None = None,
    input_tag: str | None = None,
) -> Set[int]:
    """Published buckets whose fingerprint matches the current run.
    When ``num_buckets``/``input_tag`` are given, a partition written
    under a different bucket count or input is NOT treated as complete
    (it would silently mix stale rows into the output) — it gets
    rewritten instead."""
    want = {"num_buckets": num_buckets, "input": input_tag}
    return {
        b
        for b, m in _published_buckets(out_root).items()
        if all(v is None or m["fingerprint"].get(k) == v for k, v in want.items())
    }


def read_output(out_root: str) -> rd.Dataset:
    parts = [
        os.path.join(out_root, f"bucket={b}", "part.parquet")
        for b in sorted(_published_buckets(out_root))
    ]
    return store.read(parts)


def resumable_bucket_run(
    ds: rd.Dataset,
    keys: Sequence[str],
    bucket_fn: Callable[[pd.DataFrame], pd.DataFrame],
    out_root: str,
    num_buckets: int = 64,
    input_tag: str = "",
) -> pd.DataFrame:
    """Run ``bucket_fn`` per hash bucket, writing each bucket's result as
    an atomic parquet partition; buckets already marked complete are
    skipped at the *input filter*, before any shuffle work.

    A failing ``bucket_fn`` does not stop the other buckets: they all
    complete and publish, then a RuntimeError names the failed buckets
    (a rerun redoes only those).

    Returns the run summary (bucket, rows, status, seconds) including
    previously-completed partitions (status="skipped")."""
    keys = list(keys)
    os.makedirs(out_root, exist_ok=True)
    done = completed_buckets(out_root, num_buckets=num_buckets, input_tag=input_tag)

    def prepare(batch: pd.DataFrame):
        # a generator: a batch whose buckets are all done yields nothing,
        # never a zero-row block
        out = add_bucket(batch, keys, num_buckets)
        if done:
            out = out[~out["_bucket"].isin(done)]
        if len(out):
            yield out

    def run_and_write(group: pd.DataFrame) -> pd.DataFrame:
        bucket = int(group["_bucket"].iloc[0])
        t0 = time.time()
        try:
            result = bucket_fn(group.drop(columns=["_bucket"]))
        except Exception:
            # buckets run in parallel tasks: report the failure after the
            # run, so every other bucket still completes and is published
            return pd.DataFrame(
                {
                    "bucket": [bucket],
                    "rows": [-1],
                    "status": ["failed: " + traceback.format_exc()],
                    "seconds": [round(time.time() - t0, 3)],
                }
            )

        def build(tmp: str) -> dict:
            result.to_parquet(os.path.join(tmp, "part.parquet"), index=False)
            return {
                "bucket": bucket,
                "rows_in": int(len(group)),
                "rows_out": int(len(result)),
                "wall_sec": round(time.time() - t0, 3),
            }

        store.publish(
            os.path.join(out_root, f"bucket={bucket}"),
            build,
            {"input": input_tag, "keys": keys, "num_buckets": num_buckets},
        )
        return pd.DataFrame(
            {
                "bucket": [bucket],
                "rows": [len(result)],
                "status": ["written"],
                "seconds": [round(time.time() - t0, 3)],
            }
        )

    summary = map_buckets(
        ds.map_batches(prepare, batch_format="pandas", batch_size=32768),
        num_buckets,
        run_and_write,
    ).to_pandas()
    if len(summary):
        failed = summary[summary["status"].str.startswith("failed")]
        if len(failed):
            raise RuntimeError(
                f"buckets {sorted(failed['bucket'])} failed; every other "
                f"bucket is published. First failure:\n"
                f"{failed['status'].iloc[0]}"
            )
    skipped = pd.DataFrame(
        {
            "bucket": sorted(done),
            "rows": [-1] * len(done),
            "status": ["skipped"] * len(done),
            "seconds": [0.0] * len(done),
        }
    )
    return pd.concat([summary, skipped], ignore_index=True)
