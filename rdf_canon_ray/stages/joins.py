"""Join family, Ray-Data-first (SURVEY.md §2.4 "Joins / lookups").

* ``broadcast_join``  — small side shipped once via ``ray.put``, pandas
  merge per batch. No shuffle. The right tool whenever one side fits the
  object store (dimension tables, vocabularies, blocklists).
* ``hash_join``       — both sides large: one two-sided exchange
  (``shuffle.cogroup``), pandas merge per bucket; each side keeps its
  own dtypes (only the side an outer merge NaN-fills has its ints
  widened to float64).  ``partitioned_anti_join`` and ``range_join``
  share the exchange.  A hot key hashes to ONE bucket no matter how
  many buckets exist; a small side belongs in ``broadcast_join``.
* ``asof_prev``       — ordered per-key operator (previous row by time):
  bucket by key, sort within bucket, vectorized shift per key. The same
  shape implements merge_asof/range joins (sort + ``pd.merge_asof`` in
  the bucket).
* ``semi_join_filter`` — broadcast key set, vectorized ``isin`` inside
  ``map_batches``.
* ``anti_join``       — one gate (``ANTI_JOIN_BROADCAST_MAX``): a small
  right side ships as a broadcast key set, a large one co-partitions
  with the left side (``partitioned_anti_join``).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from ..state import metrics
from ..util import default_buckets
from .shuffle import bucketed_map_groups, cogroup


def broadcast_join(
    ds: rd.Dataset,
    small_df: pd.DataFrame,
    on: Sequence[str] | str,
    how: str = "inner",
) -> rd.Dataset:
    ref = ray.put(small_df)

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(ray.get(ref), on=on, how=how)

    return ds.map_batches(merge, batch_format="pandas", batch_size=32768)


def hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: Sequence[str] | str,
    how: str = "inner",
    num_buckets: int = 64,
) -> rd.Dataset:
    """Partitioned hash join: rows from both sides meet in their key's
    bucket (``cogroup``); pandas merge runs per bucket."""
    keys: List[str] = [on] if isinstance(on, str) else list(on)

    def merge_bucket(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        overlap = (set(l.columns) & set(r.columns)) - set(keys)
        if overlap:
            raise ValueError(f"non-key column collision: {sorted(overlap)}")
        # an unmatched row NaN-fills the other side's columns: widen the
        # padded side's ints in every bucket, so all blocks share a schema
        if how in ("right", "outer"):
            l = _widen_ints(l, keys)
        if how in ("left", "outer"):
            r = _widen_ints(r, keys)
        return l.merge(r, on=keys, how=how)

    return cogroup(left, right, keys, merge_bucket, num_buckets)


def _widen_ints(df: pd.DataFrame, keys: Sequence[str]) -> pd.DataFrame:
    ints = [c for c in df.columns if c not in keys and df[c].dtype.kind in "iu"]
    return df.astype(dict.fromkeys(ints, np.float64))


def asof_prev(
    ds: rd.Dataset,
    key: str,
    ts_col: str,
    value_cols: Sequence[str],
    num_buckets: int = 32,
) -> rd.Dataset:
    """For every row: the previous row's values within the same ``key``,
    ordered by ``ts_col`` (ties broken by the value columns for
    determinism). Emits the input columns plus ``prev_<col>``."""
    value_cols = list(value_cols)

    def per_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.sort_values(
            [key, ts_col] + value_cols, kind="mergesort"
        ).reset_index(drop=True)
        g = b.groupby(key, sort=False)
        for c in value_cols:
            b["prev_" + c] = g[c].shift(1)
        return b

    return bucketed_map_groups(ds, [key], per_bucket, num_buckets)


def semi_join_filter(ds: rd.Dataset, col: str, keys_ref) -> rd.Dataset:
    """Keep rows whose ``col`` is in the broadcast key set."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        keys = ray.get(keys_ref)
        return batch[batch[col].isin(keys)]

    return ds.map_batches(fn, batch_format="pandas", batch_size=32768)


# Anti-join gate: a right side of at most this many rows ships as one
# broadcast key set; a larger one co-partitions with the left side.
ANTI_JOIN_BROADCAST_MAX = 1_000_000


def anti_join(left: rd.Dataset, right: rd.Dataset, on: str) -> rd.Dataset:
    """Keep ``left`` rows whose ``on`` value does not appear in
    ``right``.  At most ``ANTI_JOIN_BROADCAST_MAX`` right rows: the key
    set ships via ``ray.put`` and the filter is a map-only ``isin``;
    above it, ``partitioned_anti_join`` with no driver-side set."""
    right = right.materialize()  # the gate and the join read it once
    if right.count() > ANTI_JOIN_BROADCAST_MAX:
        return partitioned_anti_join(left, right, on, default_buckets())
    keys_ref = ray.put(set(right.to_pandas()[on].tolist()))

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[~batch[on].isin(ray.get(keys_ref))]

    return left.map_batches(fn, batch_format="pandas", batch_size=32768)


def partitioned_anti_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: Sequence[str] | str,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Anti join for a LARGE right side: keep left rows whose key does
    not appear in ``right``.  Both sides co-partition by key hash (the
    right side ships only its key columns), and an ``isin`` filter runs
    per bucket — no driver-side key set, unlike ``anti_join``'s broadcast
    path."""
    on_cols: List[str] = [on] if isinstance(on, str) else list(on)

    def bucket_fn(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        if len(on_cols) == 1:
            return l.loc[~l[on_cols[0]].isin(r[on_cols[0]])]
        m = l.merge(r, on=on_cols, how="left", indicator=True)
        return m.loc[m["_merge"] == "left_only", list(l.columns)]

    return cogroup(
        left,
        right.map_batches(
            lambda b: b[on_cols].drop_duplicates(), batch_format="pandas"
        ),
        on_cols,
        bucket_fn,
        num_buckets,
    )


def broadcast_asof_floor(
    ds: rd.Dataset,
    probe_col: str,
    axis_vals: np.ndarray,
    payload: np.ndarray,
    out_key: str,
    out_val: str,
    scale: float = 1.0,
    missing_key: int = -1,
    missing_val: float = -1.0,
) -> rd.Dataset:
    """As-of (nearest-below) join against a broadcast sorted axis: for
    every row, the greatest ``axis_vals`` entry ≤ ``scale·probe_col``
    and its payload. The dimension side ships once via ``ray.put`` as a
    sorted array; each batch is one vectorized ``searchsorted`` — the
    map-only shape for dimension-side as-of joins (big-big keyed as-of
    is ``asof_prev``'s bucket-sort shape).  Ties on the axis must be
    pre-aggregated by the caller (e.g. max payload per axis value).

    Emits the input columns plus ``out_key`` (payload, ``missing_key``
    when no axis value qualifies) and ``out_val`` (the matched axis
    value, ``missing_val`` when none)."""
    order = np.argsort(axis_vals, kind="stable")
    ref = ray.put(
        (
            np.asarray(axis_vals, np.float64)[order],
            np.asarray(payload)[order],
        )
    )

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        axis, pay = ray.get(ref)
        probe = batch[probe_col].to_numpy(dtype=np.float64) * scale
        idx = np.searchsorted(axis, probe, side="right") - 1
        ok = idx >= 0
        out = batch.copy()
        key = np.full(len(batch), missing_key, dtype=pay.dtype)
        val = np.full(len(batch), missing_val, np.float64)
        key[ok] = pay[idx[ok]]
        val[ok] = axis[idx[ok]]
        out[out_key] = key
        out[out_val] = val
        return out

    return ds.map_batches(fn, batch_format="pandas", batch_size=32768)


def range_join(
    left: rd.Dataset,
    right: rd.Dataset,
    left_val: str,
    right_val: str,
    radius: float,
    num_buckets: int = 64,
) -> rd.Dataset:
    """1-D range (interval) join: pairs where
    ``right_val ∈ [left_val - radius, left_val + radius)``.

    Distributed shape: the value axis is cut into grid cells of width
    ``radius``; every right row lands in its single cell, every left row
    replicates to the ≤3 cells its window overlaps, cells hash into
    buckets, and the exact window predicate filters inside the bucket —
    no all-pairs comparison, bounded ×3 replication of one side, and the
    pattern generalizes to time-interval and as-of joins."""
    w = float(radius)

    def cells_left(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch[left_val].to_numpy(dtype=np.float64)
        lo = np.floor((v - w) / w).astype(np.int64)
        hi = np.floor((v + w) / w).astype(np.int64)
        frames = []
        for off in range(3):  # window width 2w spans at most 3 w-cells
            cell = lo + off
            keep = cell <= hi
            frames.append(batch.loc[keep].assign(_cell=cell[keep]))
        return pd.concat(frames, ignore_index=True)

    def cells_right(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch[right_val].to_numpy(dtype=np.float64)
        return batch.assign(_cell=np.floor(v / w).astype(np.int64))

    def merge_bucket(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        overlap = (set(l.columns) & set(r.columns)) - {"_cell"}
        if overlap:
            raise ValueError(f"column collision: {sorted(overlap)}")
        m = l.merge(r, on="_cell").drop(columns=["_cell"])
        if len(m) == 0:
            return m
        v = m[left_val].to_numpy(dtype=np.float64)
        rv = m[right_val].to_numpy(dtype=np.float64)
        return m.loc[(rv >= v - w) & (rv < v + w)]

    return cogroup(
        left.map_batches(cells_left, batch_format="pandas"),
        right.map_batches(cells_right, batch_format="pandas"),
        ["_cell"],
        merge_bucket,
        num_buckets,
    )


def _bloom_hashes(
    values: pd.Series, n_bits: int, k: int
) -> "np.ndarray":
    """k Kirsch-Mitzenmacher bit positions per value, shape (k, n):
    pos_i = (h1 + i·h2) mod n_bits with h1 = the pandas 64-bit column
    hash and h2 an odd derivative — both sides of a join MUST present
    the key at the same dtype (the hash is dtype-sensitive, same
    contract as ``hash_join``'s bucket hash)."""
    h1 = pd.util.hash_pandas_object(values, index=False).to_numpy().astype(
        np.uint64
    )
    h2 = (h1 >> np.uint64(33)) | np.uint64(1)
    i = np.arange(k, dtype=np.uint64)[:, None]
    return ((h1[None, :] + i * h2[None, :]) % np.uint64(n_bits)).astype(
        np.int64
    )


def build_bloom(
    ds: rd.Dataset, col: str, n_bits: int = 1 << 20, k: int = 4
):
    """Distributed Bloom-filter build over ``ds[col]`` → an object-store
    ref to the packed bitset (``n_bits/8`` bytes — 128 KiB at the
    default, a broadcastable constant regardless of key cardinality).
    Per-batch partial bitsets OR-merge through ``single_bucket_merge``;
    only fixed-size bitsets cross the wire, never keys."""
    from .shuffle import single_bucket_merge

    nbytes = n_bits // 8

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        bits = np.zeros(nbytes, np.uint8)
        if len(batch):
            pos = _bloom_hashes(batch[col], n_bits, k).ravel()
            np.bitwise_or.at(
                bits, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8)
            )
        return pd.DataFrame({"bits": [bits.tobytes()]})

    def merge(b: pd.DataFrame) -> pd.DataFrame:
        stacked = np.stack(
            [np.frombuffer(x, np.uint8) for x in b["bits"]]
        )
        return pd.DataFrame(
            {"bits": [np.bitwise_or.reduce(stacked, axis=0).tobytes()]}
        )

    merged = single_bucket_merge(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        merge,
    ).to_pandas()
    if len(merged) == 0:
        # empty key set → all-zero filter (prunes everything), not a crash
        return ray.put(np.zeros(nbytes, np.uint8))
    return ray.put(np.frombuffer(merged["bits"].iloc[0], np.uint8))


def bloom_prefilter(
    ds: rd.Dataset, col: str, bits_ref, n_bits: int = 1 << 20, k: int = 4
) -> rd.Dataset:
    """Map-only Bloom probe: drop rows whose key is definitely absent
    from the set the filter was built over.  NO false negatives (every
    true match survives); false positives pass through and MUST be
    removed by the exact join that follows — the standard shuffle-volume
    reducer for large⋈large joins at 100 TB (the exchange then carries
    only probable matches).  Kept/total row counts are metrics-reported
    (``bloom_kept`` / ``bloom_seen``)."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        bits: np.ndarray = ray.get(bits_ref)
        if not len(batch):
            return batch
        pos = _bloom_hashes(batch[col], n_bits, k)
        hit = (
            (bits[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
        ).all(axis=0)
        metrics.incr("bloom_seen", len(batch))
        metrics.incr("bloom_kept", int(hit.sum()))
        return batch[hit.astype(bool)]

    return ds.map_batches(fn, batch_format="pandas", batch_size=32768)
