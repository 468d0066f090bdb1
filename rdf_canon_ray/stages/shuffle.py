"""Bucketed shuffle primitives — scalable replacements for per-group ops.

Ray Data's ``groupby(keys).aggregate(...)`` / ``map_groups`` pay a
per-group Python cost (~ms); with millions of tiny groups (distinct
triples, per-entity counts, per-conversation graphs) that dominates
wall-time.  The scalable idiom used throughout this engine is:

    1. map_batches: local combine (drop_duplicates / partial aggregate)
       + add ``_bucket = hash64(keys) % num_buckets`` (``with_buckets``)
    2. ``exchange_buckets``: ONE range sort on ``_bucket`` with explicit
       boundaries into ``util.plan_partitions(num_buckets)`` blocks (one
       per core), each holding whole buckets in bucket order
    3. a per-block loop hands each bucket to the vectorized pandas
       combine (``map_buckets``), or a kernel that takes whole
       conversations runs once over the block (the flagship)

Operators over TWO inputs (joins, anti-joins, attach-by-key) use
``cogroup``: both sides go through the same three steps as Arrow IPC
payloads, and the bucket function gets each side as its own DataFrame,
so neither side is padded to the other's columns, widened, or run to
learn its schema.

``num_buckets`` bounds shuffle fan-in and is the hash granularity: pick
~4× total cores (``util.default_buckets``).  The task count is the
plan's, not the upstream block count Ray's sampled sort would follow.
Hashing uses ``pd.util.hash_pandas_object`` with its fixed default key,
deterministic across processes — two workers always agree on a row's
bucket.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
from ray.data.block import BlockAccessor

from ..util import plan_partitions

DEFAULT_NUM_BUCKETS = 64  # static fallback; call sites may pass
                          # util.default_buckets() for cluster-adaptive


def add_bucket(
    batch: pd.DataFrame, keys: Sequence[str], num_buckets: int
) -> pd.DataFrame:
    h = pd.util.hash_pandas_object(batch[list(keys)], index=False).to_numpy()
    batch = batch.copy()
    batch["_bucket"] = (h % np.uint64(num_buckets)).astype(np.int32)
    return batch


def with_buckets(
    ds: rd.Dataset,
    keys: Sequence[str],
    num_buckets: int,
    local_combine: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
    batch_size: int = 32768,
) -> rd.Dataset:
    """Step 1: ``ds`` plus ``_bucket = hash64(keys) % num_buckets``,
    after an optional per-batch ``local_combine``."""
    keys = list(keys)
    if local_combine is None:
        # Zero-copy pre-shuffle path: only the key columns cross into
        # pandas for hashing; every other column stays Arrow through the
        # exchange (no full-table pandas round trip before the sort).
        def prepare(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return batch.append_column(
                    "_bucket", pa.array([], pa.int32())
                )
            h = pd.util.hash_pandas_object(
                batch.select(keys).to_pandas(), index=False
            ).to_numpy()
            b = (h % np.uint64(num_buckets)).astype(np.int32)
            return batch.append_column("_bucket", pa.array(b))

        return ds.map_batches(
            prepare, batch_format="pyarrow", batch_size=batch_size
        )

    def prepare_pd(batch: pd.DataFrame) -> pd.DataFrame:
        batch = local_combine(batch)
        if len(batch) == 0:
            out = batch.copy()
            out["_bucket"] = pd.Series([], dtype=np.int32)
            return out
        return add_bucket(batch, keys, num_buckets)

    return ds.map_batches(
        prepare_pd, batch_format="pandas", batch_size=batch_size
    )


def exchange_buckets(ds: rd.Dataset, num_buckets: int) -> rd.Dataset:
    """Step 2, the one bucket exchange: ``ds`` carries ``_bucket`` in
    ``[0, num_buckets)``; the result has ``plan_partitions(num_buckets)``
    blocks, each a contiguous run of WHOLE buckets sorted by ``_bucket``
    (some may be empty).  The range boundaries are explicit, so the
    block count follows the plan, not the upstream block count that
    Ray's sampled sort would use."""
    p = plan_partitions(num_buckets)
    if p == 1:
        # Ray reads an empty boundary list as "sample one partition per
        # input block": gather into one block instead
        one = ds.repartition(1)
        return one if num_buckets == 1 else one.sort("_bucket")
    return ds.sort(
        "_bucket", boundaries=[num_buckets * i // p for i in range(1, p)]
    )


def map_buckets(
    ds: rd.Dataset,
    num_buckets: int,
    fn: Callable[[pd.DataFrame], pd.DataFrame],
) -> rd.Dataset:
    """Steps 2-3 for a dataset that already carries ``_bucket``:
    ``exchange_buckets``, then ``fn`` once per bucket, in bucket order,
    on that bucket's rows as one DataFrame (``_bucket`` included, so
    partition writers can name their output by it)."""

    def loop(block):
        # registers Ray's pandas tensor dtype, which the Arrow → pandas
        # conversion of a tensor column (embeddings) needs: a worker that
        # has only run this loop has not imported it yet
        import ray.air.util.tensor_extensions.pandas  # noqa: F401

        acc = BlockAccessor.for_block(block)
        if acc.num_rows() == 0:
            return
        b = acc.to_numpy("_bucket")
        edges = np.concatenate(
            [[0], np.flatnonzero(b[1:] != b[:-1]) + 1, [len(b)]]
        )
        # zero-row results are dropped unless the whole block has no
        # other (one then carries the schema): Ray logs a size error for
        # every zero-row pandas block with a string column
        last_empty, any_rows = None, False
        for lo, hi in zip(edges[:-1], edges[1:]):
            group = acc.slice(int(lo), int(hi), copy=False)
            out = fn(BlockAccessor.for_block(group).to_pandas())
            if len(out):
                any_rows = True
                yield out
            else:
                last_empty = out
        if not any_rows and last_empty is not None:
            yield last_empty

    return exchange_buckets(ds, num_buckets).map_batches(
        loop, batch_format=None, batch_size=None
    )


def bucketed_map_groups(
    ds: rd.Dataset,
    keys: Sequence[str],
    bucket_fn: Callable[[pd.DataFrame], pd.DataFrame],
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    local_combine: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
    batch_size: int = 32768,
) -> rd.Dataset:
    """Generic bucketed shuffle: all rows sharing ``keys`` meet in one
    bucket; ``bucket_fn`` sees the bucket as one DataFrame (without the
    ``_bucket`` column) and returns its combined result."""
    return map_buckets(
        with_buckets(ds, keys, num_buckets, local_combine, batch_size),
        num_buckets,
        lambda group: bucket_fn(group.drop(columns=["_bucket"])),
    )


def cogroup(
    left: rd.Dataset,
    right: rd.Dataset,
    keys: Sequence[str],
    fn: Callable[[pd.DataFrame, pd.DataFrame], pd.DataFrame],
    num_buckets: int,
    batch_size: int = 32768,
) -> rd.Dataset:
    """The two-sided exchange: rows of ``left`` and ``right`` that share
    ``keys`` meet in one bucket, and ``fn(l, r)`` runs once per bucket,
    in bucket order, on each side's rows as its own DataFrame, with that
    side's columns at their own dtypes.

    Each input batch rides the exchange as one ``(_bucket, _side,
    _payload)`` row per bucket, the payload an Arrow IPC stream of the
    batch's rows in that bucket.  Empty buckets get a payload too, so
    ``fn`` sees the other side's columns (zero rows) where only one side
    has rows; a side with no rows at all arrives as its key columns
    only, typed like the other side's.  Both sides share one block
    schema without padding, and neither input runs to learn its schema.
    Keys hash by ``add_bucket``'s rule with numeric keys as float64, so
    an int64 key meets an equal float64 key."""
    keys = list(keys)

    def tagger(side: int):
        def tag(batch: pa.Table) -> pa.Table:
            k = batch.select(keys).to_pandas()
            for c in keys:
                if k[c].dtype.kind in "iuf":
                    k[c] = k[c].astype(np.float64)
            b = add_bucket(k, keys, num_buckets)["_bucket"].to_numpy()
            rows = batch.take(np.argsort(b, kind="stable"))
            edges = np.r_[0, np.cumsum(np.bincount(b, minlength=num_buckets))]
            payloads = []
            for lo, hi in zip(edges[:-1], edges[1:]):
                sink = pa.BufferOutputStream()
                with pa.ipc.new_stream(sink, rows.schema) as w:
                    w.write_table(rows.slice(lo, hi - lo))
                payloads.append(sink.getvalue().to_pybytes())
            return pa.table(
                {
                    "_bucket": pa.array(np.arange(num_buckets, dtype=np.int32)),
                    "_side": pa.array(np.full(num_buckets, side, np.int8)),
                    "_payload": pa.array(payloads, pa.binary()),
                }
            )

        return tag

    def run(bucket: pd.DataFrame) -> pd.DataFrame:
        side = bucket["_side"].to_numpy()
        payloads = bucket["_payload"].to_numpy()
        # (batches of one side may disagree on a column's type, e.g. an
        # all-null column arrives as Arrow null)
        l, r = (
            pa.concat_tables(
                [pa.ipc.open_stream(p).read_all() for p in payloads[side == s]],
                promote_options="permissive",
            ).to_pandas()
            if (side == s).any()
            else None
            for s in (0, 1)
        )
        # a side with no rows anywhere carries no schema: it gets the
        # other side's key columns, empty
        return fn(r[keys].iloc[:0] if l is None else l,
                  l[keys].iloc[:0] if r is None else r)

    tagged = left.map_batches(
        tagger(0), batch_format="pyarrow", batch_size=batch_size
    ).union(
        right.map_batches(tagger(1), batch_format="pyarrow", batch_size=batch_size)
    )
    return map_buckets(tagged, num_buckets, run)


def single_bucket_merge(
    ds: rd.Dataset,
    merge_fn: Callable[[pd.DataFrame], pd.DataFrame],
    batch_size: int = 65536,
) -> rd.Dataset:
    """Funnel a (pre-reduced, small) dataset into ONE task and apply
    ``merge_fn`` to the whole thing — the final merge of a two-level
    top-k / global-reduce.  Callers MUST have already shrunk the stream
    (per-batch local top-k / partial aggregate); this stage is the tiny
    tail, not the wide body."""

    def const_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        out["_bucket"] = np.zeros(len(out), np.int32)
        return out

    return map_buckets(
        ds.map_batches(const_bucket, batch_format="pandas", batch_size=batch_size),
        1,
        lambda group: merge_fn(group.drop(columns=["_bucket"])),
    )


def distinct(
    ds: rd.Dataset,
    keys: Sequence[str],
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    batch_size: int = 32768,
) -> rd.Dataset:
    """Exact multi-column DISTINCT: per-batch Arrow group_by dedup
    (zero-copy C++ combiner) then bucketed global drop_duplicates."""
    keys = list(keys)

    def local(batch: pa.Table) -> pa.Table:
        return batch.select(keys).group_by(keys).aggregate([])

    def combine(bucket: pd.DataFrame) -> pd.DataFrame:
        return bucket.drop_duplicates()

    deduped = ds.map_batches(
        local, batch_format="pyarrow", batch_size=batch_size
    )
    return bucketed_map_groups(
        deduped, keys, combine, num_buckets, batch_size=batch_size
    )


def grouped_agg(
    ds: rd.Dataset,
    keys: Sequence[str],
    aggs: Dict[str, str],
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    batch_size: int = 32768,
) -> rd.Dataset:
    """Scalable grouped aggregation: per-batch pandas partial aggregate,
    then bucketed merge of partials.  ``aggs`` maps column → one of
    ``sum | count | min | max`` (count re-aggregates as sum of partial
    counts)."""
    keys = list(keys)
    # re-aggregation function for merging partials
    merge_aggs = {c: ("sum" if a == "count" else a) for c, a in aggs.items()}

    def local(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(keys, sort=False, observed=True).agg(aggs).reset_index()
        return g

    def combine(bucket: pd.DataFrame) -> pd.DataFrame:
        return (
            bucket.groupby(keys, sort=False, observed=True)
            .agg(merge_aggs)
            .reset_index()
        )

    return bucketed_map_groups(
        ds, keys, combine, num_buckets, local_combine=local, batch_size=batch_size
    )


def per_key_map_groups(
    ds: rd.Dataset,
    key: str,
    group_fn: Callable[[str, pd.DataFrame], pd.DataFrame],
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    batch_size: int = 32768,
) -> rd.Dataset:
    """Apply ``group_fn(key_value, group_df)`` once per key value, but pay
    Ray's per-group cost only once per *bucket*: inside each bucket a
    pandas groupby loop dispatches the per-key calls (µs each)."""

    def run_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        outs: List[pd.DataFrame] = [
            group_fn(k, sub) for k, sub in bucket.groupby(key, sort=False)
        ]
        return pd.concat(outs, ignore_index=True)

    return bucketed_map_groups(
        ds, [key], run_bucket, num_buckets, batch_size=batch_size
    )
