"""Relational/analytic operators over the testdata tables — the wide-op
family (grouped aggregation, broadcast join, sort/top-k, windowed events)
expressed Ray-Data-first with SQL oracles.

Patterns on display (SURVEY.md §2.4):
- partial aggregation inside ``map_batches`` before the (bucketed)
  grouped merge — no raw-row shuffle;
- small-side broadcast join (``ray.put`` once, dict lookup per batch);
- global sort only on already-aggregated small results;
- tumbling event-time windows as grouped aggregation on a computed
  window key (Ray Data has no watermarks; the ordering assumption is
  "event time is the ``ts`` column, windows are closed at read time").
"""

from __future__ import annotations

import glob
import os
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..stages.shuffle import grouped_agg, single_bucket_merge
from ..state import store
from ..util import stage_fn


def _read(sf_dir: str, table: str, columns=None) -> rd.Dataset:
    return rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


def _footer_minmax(sf_dir: str, table: str, col: str):
    """(min, max) of ``col`` from the Parquet footer row-group
    statistics — deterministic bounds with no data pages read (the
    same values SQL's MIN/MAX over the table derives)."""
    md = pq.read_metadata(os.path.join(sf_dir, f"{table}.parquet"))
    idx = md.schema.to_arrow_schema().get_field_index(col)
    mn = mx = None
    for rg in range(md.num_row_groups):
        st = md.row_group(rg).column(idx).statistics
        mn = st.min if mn is None else min(mn, st.min)
        mx = st.max if mx is None else max(mx, st.max)
    return mn, mx


def pricing_summary(sf_dir: str) -> rd.Dataset:
    """TPC-H Q1-style pricing summary over lineitem (shipdate cutoff).
    Columns named to match the oracle exactly."""
    li = _read(
        sf_dir,
        "lineitem",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
    )
    cutoff = np.datetime64("1998-09-02")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["l_shipdate"].to_numpy() <= cutoff]
        disc_price = b["l_extendedprice"] * (1 - b["l_discount"])
        t = pd.DataFrame(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "sum_qty": b["l_quantity"],
                "sum_base_price": b["l_extendedprice"],
                "sum_disc_price": disc_price,
                "count_order": np.ones(len(b), np.int64),
            }
        )
        return (
            t.groupby(["l_returnflag", "l_linestatus"], sort=False)
            .sum()
            .reset_index()
        )

    partials = li.map_batches(partial, batch_format="pandas", batch_size=65536)
    merged = grouped_agg(
        partials,
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": "sum",
            "sum_base_price": "sum",
            "sum_disc_price": "sum",
            "count_order": "sum",
        },
        num_buckets=4,
    )

    def finalize(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["avg_qty"] = (batch["sum_qty"] / batch["count_order"]).round(6)
        for c in ("sum_qty", "sum_base_price", "sum_disc_price"):
            batch[c] = batch[c].round(4)
        return batch

    return merged.map_batches(finalize, batch_format="pandas")


def top_customers(sf_dir: str, k: int = 10) -> rd.Dataset:
    """Top-k customers by total order value: grouped sum over orders +
    broadcast join to customer names + global sort/limit on the small
    aggregate."""
    cust_tbl = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_name"]
    )
    name_ref = ray.put(
        dict(zip(cust_tbl["c_custkey"].to_pylist(), cust_tbl["c_name"].to_pylist()))
    )
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = (
            batch.groupby("o_custkey", sort=False)["o_totalprice"]
            .sum()
            .reset_index()
        )
        g.columns = ["c_custkey", "revenue"]
        return g

    partials = orders.map_batches(partial, batch_format="pandas", batch_size=65536)
    merged = grouped_agg(partials, ["c_custkey"], {"revenue": "sum"}, num_buckets=16)

    class AttachName:
        def __init__(self, ref):
            self.names = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            batch = batch.copy()
            batch["c_name"] = batch["c_custkey"].map(self.names)
            batch["revenue"] = batch["revenue"].round(4)
            return batch

    named = merged.map_batches(
        stage_fn(AttachName, ref=name_ref), batch_format="pandas"
    )
    top = named.sort(["revenue", "c_custkey"], descending=[True, False]).limit(k)
    return top


def events_hourly(sf_dir: str) -> rd.Dataset:
    """Tumbling 1-hour windows per (user, event_type): count + value sum.
    Window key computed per batch; grouped merge is the only shuffle."""
    ev = _read(
        sf_dir, "events", columns=["user_id", "event_type", "ts", "value"]
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        t = pd.DataFrame(
            {
                "user_id": batch["user_id"],
                "event_type": batch["event_type"],
                "window_start": batch["ts"].dt.floor("h"),
                "n_events": np.ones(len(batch), np.int64),
                "sum_value": batch["value"],
            }
        )
        return (
            t.groupby(["user_id", "event_type", "window_start"], sort=False)
            .sum()
            .reset_index()
        )

    partials = ev.map_batches(partial, batch_format="pandas", batch_size=65536)
    merged = grouped_agg(
        partials,
        ["user_id", "event_type", "window_start"],
        {"n_events": "sum", "sum_value": "sum"},
        num_buckets=16,
    )
    return merged.map_batches(
        lambda b: b.assign(sum_value=b["sum_value"].round(6)),
        batch_format="pandas",
    )


def orders_by_nation(sf_dir: str) -> rd.Dataset:
    """Partitioned hash join (orders ⋈ customer on custkey — both sides
    shuffled) + broadcast nation lookup + grouped aggregate."""
    from ..stages.joins import broadcast_join, hash_join

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]).map_batches(
        lambda b: b.rename(columns={"o_custkey": "c_custkey"}),
        batch_format="pandas",
    )
    customer = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    joined = hash_join(orders, customer, on="c_custkey", num_buckets=32)

    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    ).to_pandas()
    nation = nation.rename(columns={"n_nationkey": "c_nationkey"})
    named = broadcast_join(joined, nation, on="c_nationkey")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        t = pd.DataFrame(
            {
                "n_name": batch["n_name"],
                "n_orders": np.ones(len(batch), np.int64),
                "revenue": batch["o_totalprice"],
            }
        )
        return t.groupby("n_name", sort=False).sum().reset_index()

    partials = named.map_batches(partial, batch_format="pandas", batch_size=65536)
    merged = grouped_agg(
        partials, ["n_name"], {"n_orders": "sum", "revenue": "sum"}, num_buckets=4
    )
    return merged.map_batches(
        lambda b: b.assign(revenue=b["revenue"].round(4)), batch_format="pandas"
    )


def local_supplier_volume(
    sf_dir: str,
    region: str = "ASIA",
    date_lo: str = "1995-01-01",
    date_hi: str = "1997-01-01",
) -> rd.Dataset:
    """TPC-H Q5-shaped multi-way join: revenue by nation where the
    customer and the line item's supplier sit in the SAME nation of one
    region, over a date window.  Six tables, composed scale-first:

    * date filter applied at the pruned orders read (rows drop before
      any exchange);
    * TWO partitioned hash joins for the fact-fact edges (orders ⋈
      customer on custkey, then ⋈ lineitem on orderkey — both sides
      corpus-scale at 100 TB, so they must shuffle, and each join keys
      one exchange);
    * supplier→nation, nation→(name, region) ship as broadcast dicts
      (dimension-scale; supplier is 1/10 000 of lineitem in TPC-H
      ratios) — the same-nation predicate and the region filter then
      run map-only;
    * revenue partials combine per batch before one tiny grouped sum.

    Output: (n_name, revenue) with revenue = Σ extprice·(1−discount)
    rounded to 4 dp."""
    from ..stages.joins import hash_join

    lo = pd.Timestamp(date_lo)
    hi = pd.Timestamp(date_hi)

    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(
        lambda b: b.loc[
            (b["o_orderdate"] >= lo) & (b["o_orderdate"] < hi),
            ["o_orderkey", "o_custkey"],
        ].rename(columns={"o_custkey": "c_custkey"}),
        batch_format="pandas",
        batch_size=65536,
    )
    customer = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    ord_cust = hash_join(orders, customer, on="c_custkey", num_buckets=16)

    lineitem = _read(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    right = ord_cust.map_batches(
        lambda b: pd.DataFrame(
            {"l_orderkey": b["o_orderkey"], "c_nationkey": b["c_nationkey"]}
        ),
        batch_format="pandas",
    ).materialize()  # feeds the Bloom build AND the join
    # Bloom prefilter before the big exchange: only ~30% of orders
    # survive the date window, so ~70% of lineitem rows are guaranteed
    # non-matching — drop them map-side for 128 KiB of broadcast bits
    # (false positives pass and the exact join removes them)
    from ..stages.joins import bloom_prefilter, build_bloom

    bits_ref = build_bloom(right, "l_orderkey")
    fact = hash_join(
        bloom_prefilter(lineitem, "l_orderkey", bits_ref),
        right,
        on="l_orderkey",
        num_buckets=32,
    )

    supp_tbl = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"],
    )
    nat_tbl = pq.read_table(os.path.join(sf_dir, "nation.parquet")).to_pandas()
    reg_tbl = pq.read_table(os.path.join(sf_dir, "region.parquet")).to_pandas()
    nat = nat_tbl.merge(
        reg_tbl, left_on="n_regionkey", right_on="r_regionkey"
    )
    region_nations = nat.loc[nat["r_name"] == region]
    dims_ref = ray.put(
        {
            "supp_nation": dict(
                zip(
                    supp_tbl["s_suppkey"].to_pylist(),
                    supp_tbl["s_nationkey"].to_pylist(),
                )
            ),
            "nation_name": dict(
                zip(region_nations["n_nationkey"], region_nations["n_name"])
            ),
        }
    )

    class RevenuePartial:
        """Same-nation + region predicates map-only off broadcast dims,
        then a per-batch revenue combiner."""

        def __init__(self, ref):
            dims = ray.get(ref)
            self.supp_nation = dims["supp_nation"]
            self.nation_name = dims["nation_name"]

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            s_nat = batch["l_suppkey"].map(self.supp_nation)
            keep = (s_nat == batch["c_nationkey"]) & s_nat.isin(
                self.nation_name
            )
            sub = batch.loc[keep]
            t = pd.DataFrame(
                {
                    "n_name": s_nat[keep].map(self.nation_name),
                    "revenue": sub["l_extendedprice"]
                    * (1.0 - sub["l_discount"]),
                }
            )
            return t.groupby("n_name", sort=False).sum().reset_index()

    partials = fact.map_batches(
        stage_fn(RevenuePartial, ref=dims_ref),
        batch_format="pandas",
        batch_size=65536,
    )
    merged = grouped_agg(partials, ["n_name"], {"revenue": "sum"}, num_buckets=4)
    return merged.map_batches(
        lambda b: b.assign(revenue=b["revenue"].round(4)),
        batch_format="pandas",
    )


def events_running_total(sf_dir: str) -> rd.Dataset:
    """Cumulative window: per-user running sum of ``value`` in
    (ts, event_id) order — the unbounded-preceding window function.
    One user-keyed bucketed exchange; the per-user ordered cumsum is a
    vectorized pandas kernel inside the bucket (per-user state never
    crosses tasks; the partitioning assumption is one user's history
    fits a task, the same contract as sessionization).  Output:
    (event_id, user_id, running_total)."""
    from ..stages.shuffle import bucketed_map_groups

    events = _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])

    def run_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        run = b.groupby("user_id", sort=False)["value"].cumsum()
        return pd.DataFrame(
            {
                "event_id": b["event_id"].to_numpy(),
                "user_id": b["user_id"].to_numpy(),
                "running_total": run.round(6).to_numpy(),
            }
        )

    return bucketed_map_groups(events, ["user_id"], run_bucket, num_buckets=16)


def source_len_token_corr(sf_dir: str) -> rd.Dataset:
    """Per-source Pearson correlation of document length (chars) vs
    token count via MERGEABLE moment partials: each batch emits
    (n, Σx, Σy, Σxy, Σx², Σy²) per source, one tiny grouped sum, and
    the closed-form correlation at the end — the single-pass
    sufficient-statistics pattern every distributed stats engine uses
    (no per-row data crosses the exchange).  Output: (source, n_docs,
    corr_len_tokens rounded 6dp)."""
    docs = _read(sf_dir, "documents", columns=["source", "text", "n_chars"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        x = batch["n_chars"].to_numpy(np.float64)
        y = batch["text"].str.split().str.len().to_numpy(np.float64)
        t = pd.DataFrame(
            {
                "source": batch["source"],
                "n_docs": np.ones(len(batch), np.int64),
                "sx": x,
                "sy": y,
                "sxy": x * y,
                "sxx": x * x,
                "syy": y * y,
            }
        )
        return t.groupby("source", sort=False).sum().reset_index()

    partials = docs.map_batches(partial, batch_format="pandas", batch_size=8192)
    merged = grouped_agg(
        partials,
        ["source"],
        {c: "sum" for c in ["n_docs", "sx", "sy", "sxy", "sxx", "syy"]},
        num_buckets=4,
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        n = b["n_docs"].to_numpy(np.float64)
        cov = n * b["sxy"] - b["sx"] * b["sy"]
        vx = n * b["sxx"] - b["sx"] ** 2
        vy = n * b["syy"] - b["sy"] ** 2
        corr = cov / np.sqrt(vx * vy)
        return pd.DataFrame(
            {
                "source": b["source"],
                "n_docs": b["n_docs"].astype(np.int64),
                "corr_len_tokens": np.round(corr, 6),
            }
        )

    return merged.map_batches(finish, batch_format="pandas")


def customer_order_counts(sf_dir: str) -> rd.Dataset:
    """LEFT OUTER join coverage: every customer with its order count,
    zero-order customers preserved.  Orders pre-aggregate to one row
    per custkey (combiner + tiny grouped sum) BEFORE the join, so the
    outer join's right side is key-cardinality-sized, then a
    partitioned left join attaches counts.  Output:
    (c_custkey, c_mktsegment, n_orders)."""
    from ..stages.joins import hash_join

    counts = grouped_agg(
        _read(sf_dir, "orders", columns=["o_custkey"]).map_batches(
            lambda b: b.assign(n_orders=np.int64(1))
            .groupby("o_custkey", sort=False)
            .sum()
            .reset_index()
            .rename(columns={"o_custkey": "c_custkey"}),
            batch_format="pandas",
            batch_size=65536,
        ),
        ["c_custkey"],
        {"n_orders": "sum"},
        num_buckets=8,
    )
    customer = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    joined = hash_join(customer, counts, on="c_custkey", how="left", num_buckets=8)
    return joined.map_batches(
        lambda b: b.assign(n_orders=b["n_orders"].fillna(0).astype(np.int64)),
        batch_format="pandas",
    )


EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def events_type_pivot(sf_dir: str) -> rd.Dataset:
    """PIVOT/crosstab: one row per user with a count column per event
    type.  The pivot happens in the per-batch combiner (vectorized
    crosstab against the fixed category set), so the exchange carries
    one partial row per (user × batch) with 5 int columns — never the
    raw events.  Output: (user_id, n_click, n_error, n_purchase,
    n_signup, n_view, n_total)."""
    events = _read(sf_dir, "events", columns=["user_id", "event_type"])
    cols = [f"n_{t}" for t in EVENT_TYPES]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        ct = pd.crosstab(batch["user_id"], batch["event_type"])
        ct = ct.reindex(columns=list(EVENT_TYPES), fill_value=0)
        ct.columns = cols
        return ct.reset_index()

    partials = events.map_batches(partial, batch_format="pandas", batch_size=65536)
    merged = grouped_agg(
        partials, ["user_id"], {c: "sum" for c in cols}, num_buckets=8
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        for c in cols:
            out[c] = out[c].astype(np.int64)
        out["n_total"] = out[cols].sum(axis=1)
        return out

    return merged.map_batches(finish, batch_format="pandas")


def orders_rollup(sf_dir: str) -> rd.Dataset:
    """ROLLUP / grouping-sets aggregate: order count + revenue at three
    levels — (priority, status), (priority, ALL), (ALL, ALL).  The
    corpus-scale pass happens ONCE (per-batch partials → grouped merge
    at the finest level); the coarser levels re-aggregate the
    key-cardinality-sized base, so each extra grouping set costs one
    tiny exchange, not another scan.  Rolled-up keys carry the sentinel
    'ALL' (driver-friendly vs SQL NULL semantics)."""
    orders = _read(
        sf_dir, "orders", columns=["o_orderpriority", "o_orderstatus", "o_totalprice"]
    )
    keys = ["o_orderpriority", "o_orderstatus"]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        t = pd.DataFrame(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "o_orderstatus": batch["o_orderstatus"],
                "n_orders": np.ones(len(batch), np.int64),
                "revenue": batch["o_totalprice"],
            }
        )
        return t.groupby(keys, sort=False).sum().reset_index()

    partials = orders.map_batches(partial, batch_format="pandas", batch_size=65536)
    base = grouped_agg(
        partials, keys, {"n_orders": "sum", "revenue": "sum"}, num_buckets=4
    )
    lvl1 = grouped_agg(
        base.map_batches(
            lambda b: b.assign(o_orderstatus="ALL"), batch_format="pandas"
        ),
        keys,
        {"n_orders": "sum", "revenue": "sum"},
        num_buckets=2,
    )
    lvl0 = grouped_agg(
        lvl1.map_batches(
            lambda b: b.assign(o_orderpriority="ALL"), batch_format="pandas"
        ),
        keys,
        {"n_orders": "sum", "revenue": "sum"},
        num_buckets=1,
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(
            n_orders=b["n_orders"].astype(np.int64),
            revenue=b["revenue"].round(4),
        )

    return base.union(lvl1).union(lvl0).map_batches(finish, batch_format="pandas")


def events_cube(sf_dir: str) -> rd.Dataset:
    """GROUP BY CUBE (event_type, day-of-week): all four grouping sets.
    The corpus-scale pass happens once to the finest (type, dow) cells;
    every other set re-aggregates the cell table (≤ |types|·7 rows), so
    CUBE costs three extra TINY exchanges, not three scans.  Rolled-up
    keys carry the sentinel 'ALL' (dow is stringified for a uniform
    column type).  Output: (event_type, dow, n_events, sum_value 4dp)."""
    events = _read(sf_dir, "events", columns=["event_type", "ts", "value"])
    keys = ["event_type", "dow"]
    aggs = {"n_events": "sum", "sum_value": "sum"}

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        t = pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "dow": batch["ts"].dt.dayofweek.astype(np.int64).astype(str),
                "n_events": np.ones(len(batch), np.int64),
                "sum_value": batch["value"],
            }
        )
        return t.groupby(keys, sort=False).sum().reset_index()

    partials = events.map_batches(partial, batch_format="pandas", batch_size=65536)
    # materialize(): base/lvl_t feed multiple union branches, and Ray Data
    # re-executes a shared ancestor once PER REFERENCE — without pinning,
    # the corpus scan would run 4x.  The cell tables are ≤ |types|·7 rows.
    base = grouped_agg(partials, keys, aggs, num_buckets=2).materialize()
    lvl_t = grouped_agg(
        base.map_batches(lambda b: b.assign(dow="ALL"), batch_format="pandas"),
        keys,
        aggs,
        num_buckets=2,
    ).materialize()
    lvl_d = grouped_agg(
        base.map_batches(
            lambda b: b.assign(event_type="ALL"), batch_format="pandas"
        ),
        keys,
        aggs,
        num_buckets=2,
    )
    lvl_0 = grouped_agg(
        lvl_t.map_batches(
            lambda b: b.assign(event_type="ALL"), batch_format="pandas"
        ),
        keys,
        aggs,
        num_buckets=1,
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(
            n_events=b["n_events"].astype(np.int64),
            sum_value=b["sum_value"].round(4),
        )

    return (
        base.union(lvl_t).union(lvl_d).union(lvl_0)
        .map_batches(finish, batch_format="pandas")
    )


def events_value_mad(sf_dir: str) -> rd.Dataset:
    """Robust statistics per group: interpolated median and median
    absolute deviation of ``value`` per event_type — the outlier-robust
    fit step of anomaly filters.  Exact medians need the partition
    co-located: one exchange keyed on event_type, then vectorized
    per-group medians in-bucket (the loop is over the handful of GROUPS,
    never rows).  Output: (event_type, median_value, mad, n)."""
    from ..stages.shuffle import bucketed_map_groups

    events = _read(sf_dir, "events", columns=["event_type", "value"])

    def mad(bucket: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for t, sub in bucket.groupby("event_type", sort=False):
            m = sub["value"].median()
            rows.append(
                (
                    t,
                    round(float(m), 6),
                    round(float((sub["value"] - m).abs().median()), 6),
                    np.int64(len(sub)),
                )
            )
        return pd.DataFrame(
            rows, columns=["event_type", "median_value", "mad", "n"]
        )

    return bucketed_map_groups(events, ["event_type"], mad, num_buckets=8)


def length_quartiles(sf_dir: str, tiles: int = 4) -> rd.Dataset:
    """NTILE window: assign each document its length quartile within
    its source (the bucketing step of curriculum/quality binning).
    One source-keyed exchange; the tile assignment is exact NTILE
    semantics (first ``n % tiles`` tiles get the extra row), vectorized
    per source.  Output: (doc_id, source, n_chars, tile)."""
    from ..stages.shuffle import bucketed_map_groups

    docs = _read(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])

    def run_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.sort_values(
            ["source", "n_chars", "doc_id"], kind="mergesort"
        )
        r = b.groupby("source", sort=False).cumcount().to_numpy()
        n = b.groupby("source", sort=False)["doc_id"].transform("size").to_numpy()
        base, rem = n // tiles, n % tiles
        cut = rem * (base + 1)
        tile = np.where(
            r < cut,
            r // np.maximum(base + 1, 1),
            rem + (r - cut) // np.maximum(base, 1),
        ) + 1
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(),
                "source": b["source"].to_numpy(dtype=object),
                "n_chars": b["n_chars"].to_numpy(),
                "tile": tile.astype(np.int64),
            }
        )

    return bucketed_map_groups(docs, ["source"], run_bucket, num_buckets=8)


def normalized_text_keys(sf_dir: str) -> rd.Dataset:
    """Scalar string-function chain: casefold + whitespace-collapse +
    strip, then an md5 content key of the normalized text — the
    canonical-form step ahead of exact dedup.  Pure map-only (no
    exchange); vectorized pandas str kernels, md5 per row on the
    id-scale digest column only.  Output: (doc_id, norm_len,
    norm_key)."""
    import hashlib

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def norm(batch: pd.DataFrame) -> pd.DataFrame:
        # explicit ASCII whitespace class + strip(' ') so Python re and
        # DuckDB RE2 agree byte-for-byte (\s differs on unicode spaces)
        t = (
            batch["text"]
            .str.lower()
            .str.replace(r"[ \t\n\r\f\v]+", " ", regex=True)
            .str.strip(" ")
        )
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "norm_len": t.str.len().astype(np.int64),
                "norm_key": [
                    hashlib.md5(s.encode()).hexdigest() for s in t
                ],
            }
        )

    return docs.map_batches(norm, batch_format="pandas", batch_size=8192)


def value_quantiles(sf_dir: str, res: int = 32) -> rd.Dataset:
    """Approximate quantiles over an UNBOUNDED positive float domain
    via log-scale histogram sketch: bin = floor(res·log2(v)) — a
    mergeable fixed-cardinality summary (≤ res·64 cells per key no
    matter the corpus size; relative error ≤ 2^(1/res)−1 ≈ 2.2% at
    res=32).  Complements ``length_quantiles`` (exact, bounded int
    domain): per-batch binned counts → one tiny grouped sum → quantile
    from the cumulative histogram.  Binning is deterministic, so the
    DuckDB oracle replays it exactly (quantile_disc over the bin
    multiset, same representative-point formula).  Output:
    (event_type, n_events, p50_est, p90_est, p99_est)."""
    from ..stages.shuffle import per_key_map_groups

    events = _read(sf_dir, "events", columns=["event_type", "value"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        bins = np.floor(
            res * np.log2(batch["value"].to_numpy(np.float64))
        ).astype(np.int64)
        t = pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "bin": bins,
                "cnt": np.ones(len(batch), np.int64),
            }
        )
        return t.groupby(["event_type", "bin"], sort=False).sum().reset_index()

    partials = events.map_batches(partial, batch_format="pandas", batch_size=65536)
    hist = grouped_agg(
        partials, ["event_type", "bin"], {"cnt": "sum"}, num_buckets=4
    )

    def quant(key, sub: pd.DataFrame) -> pd.DataFrame:
        sub = sub.sort_values("bin")
        c = sub["cnt"].to_numpy(np.int64)
        bins = sub["bin"].to_numpy(np.int64)
        n = int(c.sum())
        cum = np.cumsum(c)
        out = {"event_type": key, "n_events": n}
        for q, name in ((0.5, "p50_est"), (0.9, "p90_est"), (0.99, "p99_est")):
            k = int(np.ceil(q * n))
            b = int(bins[np.searchsorted(cum, k)])
            out[name] = round(2.0 ** ((b + 0.5) / res), 6)
        return pd.DataFrame([out])

    return per_key_map_groups(hist, "event_type", quant, num_buckets=4)


def funnel_completions(sf_dir: str) -> rd.Dataset:
    """Ordered-sequence pattern matching (the funnel / MATCH_RECOGNIZE
    family): users who completed signup → click → purchase strictly in
    time order, with each step's earliest qualifying timestamp
    (click after the first signup, purchase after that click).  One
    user-keyed exchange; the three-step resolution is vectorized
    grouped-min + merge + filter inside the bucket — per-user event
    history never leaves its bucket.  Output: (user_id, signup_ts,
    click_ts, purchase_ts), completers only."""
    from ..stages.shuffle import bucketed_map_groups

    events = _read(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    def resolve(bucket: pd.DataFrame) -> pd.DataFrame:
        def step(etype: str, after: pd.Series | None) -> pd.Series:
            sub = bucket.loc[bucket["event_type"] == etype, ["user_id", "ts"]]
            if after is not None:
                lim = sub["user_id"].map(after)
                sub = sub.loc[sub["ts"] > lim]
            return sub.groupby("user_id")["ts"].min()

        s = step("signup", None)
        c = step("click", s)
        p = step("purchase", c)
        out = (
            pd.concat(
                {"signup_ts": s, "click_ts": c, "purchase_ts": p}, axis=1
            )
            .dropna()
            .reset_index()
        )
        return out[["user_id", "signup_ts", "click_ts", "purchase_ts"]]

    return bucketed_map_groups(events, ["user_id"], resolve, num_buckets=16)


def props_k_stats(sf_dir: str) -> rd.Dataset:
    """Semi-structured column handling: extract the ``k`` field from
    the flat-JSON ``props`` column (vectorized RE2 extraction — the
    fast path for known-schema JSON; DuckDB replays the identical
    pattern) and aggregate per event type.  Output: (event_type,
    n_with_k, sum_k, mean_k rounded 6dp)."""
    events = _read(sf_dir, "events", columns=["event_type", "props"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        k = pd.to_numeric(
            batch["props"].str.extract(r'"k":\s*(-?\d+)', expand=False),
            errors="coerce",
        )
        ok = k.notna()
        t = pd.DataFrame(
            {
                "event_type": batch.loc[ok, "event_type"],
                "n_with_k": np.ones(int(ok.sum()), np.int64),
                "sum_k": k[ok].astype(np.int64),
            }
        )
        return t.groupby("event_type", sort=False).sum().reset_index()

    partials = events.map_batches(partial, batch_format="pandas", batch_size=65536)
    merged = grouped_agg(
        partials, ["event_type"], {"n_with_k": "sum", "sum_k": "sum"}, num_buckets=2
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(
            n_with_k=b["n_with_k"].astype(np.int64),
            sum_k=b["sum_k"].astype(np.int64),
            mean_k=(b["sum_k"] / b["n_with_k"]).round(6),
        )

    return merged.map_batches(finish, batch_format="pandas")


def latest_event_per_user(sf_dir: str) -> rd.Dataset:
    """Grouped ARGMAX (the LAST_VALUE window family): each user's most
    recent event row, ties on ts broken by highest event_id.  The
    combiner keeps one row per user per batch, so the exchange carries
    |users|×|batches| rows at most — never the event stream.  Output:
    (user_id, event_id, ts, event_type, value)."""
    from ..stages.shuffle import bucketed_map_groups

    events = _read(
        sf_dir, "events", columns=["user_id", "event_id", "ts", "event_type", "value"]
    )

    def keep_latest(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        return b.groupby("user_id", sort=False).tail(1)

    return bucketed_map_groups(
        events,
        ["user_id"],
        keep_latest,
        num_buckets=8,
        local_combine=keep_latest,
    )


def docs_above_avg(sf_dir: str) -> rd.Dataset:
    """Correlated-aggregate filter (fit → broadcast → filter): per
    source, how many documents are strictly longer than the source's
    mean length.  Pass 1 is a tiny (Σ, n) exchange; the means broadcast
    via ``ray.put``; pass 2 is a map-only filter + count partial and a
    second tiny grouped sum — the corpus never shuffles.  Output:
    (source, n_docs, n_above, mean_chars rounded 6dp)."""
    import ray

    docs = _read(sf_dir, "documents", columns=["source", "n_chars"])

    def sums(batch: pd.DataFrame) -> pd.DataFrame:
        t = pd.DataFrame(
            {
                "source": batch["source"],
                "s": batch["n_chars"].astype(np.int64),
                "n": np.ones(len(batch), np.int64),
            }
        )
        return t.groupby("source", sort=False).sum().reset_index()

    stats = (
        grouped_agg(
            docs.map_batches(sums, batch_format="pandas", batch_size=65536),
            ["source"],
            {"s": "sum", "n": "sum"},
            num_buckets=2,
        )
        .to_pandas()
    )
    means = dict(zip(stats["source"], stats["s"] / stats["n"]))
    means_ref = ray.put(means)

    class AboveMean:
        def __init__(self, ref):
            self.means = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            mu = batch["source"].map(self.means)
            t = pd.DataFrame(
                {
                    "source": batch["source"],
                    "n_docs": np.ones(len(batch), np.int64),
                    "n_above": (
                        batch["n_chars"].to_numpy(np.float64) > mu.to_numpy()
                    ).astype(np.int64),
                }
            )
            return t.groupby("source", sort=False).sum().reset_index()

    partials = docs.map_batches(
        stage_fn(AboveMean, ref=means_ref),
        batch_format="pandas",
        batch_size=65536,
    )
    merged = grouped_agg(
        partials, ["source"], {"n_docs": "sum", "n_above": "sum"}, num_buckets=2
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(
            n_docs=b["n_docs"].astype(np.int64),
            n_above=b["n_above"].astype(np.int64),
            mean_chars=b["source"].map(means).round(6),
        )

    return merged.map_batches(finish, batch_format="pandas")


def orders_priority_share(sf_dir: str) -> rd.Dataset:
    """Ratio-to-report window: each priority's share of total revenue.
    One corpus-scale pass to the per-priority aggregate (5 rows); the
    total and the shares derive from that aggregate in one in-bucket
    pass (num_buckets=1 over 5 rows — not a corpus-scale sort).
    Output: (o_orderpriority, n_orders, revenue, share rounded 6dp)."""
    from ..stages.shuffle import bucketed_map_groups

    orders = _read(sf_dir, "orders", columns=["o_orderpriority", "o_totalprice"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        t = pd.DataFrame(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "n_orders": np.ones(len(batch), np.int64),
                "revenue": batch["o_totalprice"],
            }
        )
        return t.groupby("o_orderpriority", sort=False).sum().reset_index()

    partials = orders.map_batches(partial, batch_format="pandas", batch_size=65536)
    base = grouped_agg(
        partials,
        ["o_orderpriority"],
        {"n_orders": "sum", "revenue": "sum"},
        num_buckets=2,
    ).map_batches(lambda b: b.assign(_one=0), batch_format="pandas")

    def share(bucket: pd.DataFrame) -> pd.DataFrame:
        total = bucket["revenue"].sum()
        return pd.DataFrame(
            {
                "o_orderpriority": bucket["o_orderpriority"],
                "n_orders": bucket["n_orders"].astype(np.int64),
                "revenue": bucket["revenue"].round(4),
                "share": (bucket["revenue"] / total).round(6),
            }
        )

    return bucketed_map_groups(base, ["_one"], share, num_buckets=1)


def events_dow_hour(sf_dir: str) -> rd.Dataset:
    """Datetime-function heatmap: event counts + value sums per
    (day-of-week Mon=0, hour-of-day) — EXTRACT parity with the SQL
    side (isodow−1 / hour).  Combiner collapses each batch to ≤ 168
    cells before one tiny grouped sum.  Output: (dow, hour, n_events,
    sum_value rounded 4dp)."""
    events = _read(sf_dir, "events", columns=["ts", "value"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        t = pd.DataFrame(
            {
                "dow": batch["ts"].dt.dayofweek.astype(np.int64),
                "hour": batch["ts"].dt.hour.astype(np.int64),
                "n_events": np.ones(len(batch), np.int64),
                "sum_value": batch["value"],
            }
        )
        return t.groupby(["dow", "hour"], sort=False).sum().reset_index()

    partials = events.map_batches(partial, batch_format="pandas", batch_size=65536)
    merged = grouped_agg(
        partials, ["dow", "hour"], {"n_events": "sum", "sum_value": "sum"}, num_buckets=2
    )
    return merged.map_batches(
        lambda b: b.assign(
            n_events=b["n_events"].astype(np.int64),
            sum_value=b["sum_value"].round(4),
        ),
        batch_format="pandas",
    )


def user_retention(sf_dir: str) -> rd.Dataset:
    """Cohort retention analysis: users are cohorted by the epoch-week of
    their first event; each (cohort_week, week_offset) cell counts the
    distinct users of that cohort active offset weeks later.  One
    bucketed exchange on user_id (local combiner reduces each batch to
    distinct (user, week) rows, so the exchange carries user-weeks, not
    events); each user lives wholly in one bucket, so the in-bucket
    distinct-user count is exact and the second exchange carries only
    ≤ weeks² cells.  Output: (cohort_week, week_offset, n_users)."""
    from ..stages.shuffle import bucketed_map_groups

    events = _read(sf_dir, "events", columns=["user_id", "ts"])

    def user_weeks(batch: pd.DataFrame) -> pd.DataFrame:
        secs = batch["ts"].to_numpy().astype("datetime64[s]").astype(np.int64)
        t = pd.DataFrame(
            {"user_id": batch["user_id"], "week": secs // 604800}
        )
        return t.drop_duplicates()

    def cohort_cells(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.drop_duplicates()
        cohort = b.groupby("user_id", sort=False)["week"].transform("min")
        t = pd.DataFrame(
            {
                "cohort_week": cohort.to_numpy(np.int64),
                "week_offset": (b["week"] - cohort).to_numpy(np.int64),
                "n_users": np.ones(len(b), np.int64),
            }
        )
        return (
            t.groupby(["cohort_week", "week_offset"], sort=False)
            .sum()
            .reset_index()
        )

    cells = bucketed_map_groups(
        events,
        ["user_id"],
        cohort_cells,
        num_buckets=8,
        local_combine=user_weeks,
    )
    merged = grouped_agg(
        cells,
        ["cohort_week", "week_offset"],
        {"n_users": "sum"},
        num_buckets=2,
    )
    return merged.map_batches(
        lambda b: b.assign(n_users=b["n_users"].astype(np.int64)),
        batch_format="pandas",
    )


def user_top_event_type(sf_dir: str) -> rd.Dataset:
    """Grouped MODE (most-frequent value per key): each user's most
    common event_type, ties broken lexicographically.  The combiner
    collapses each batch to (user, type) partial counts, so the single
    exchange carries at most |users|×|types| rows per batch — never the
    event stream.  Output: (user_id, top_event_type, n)."""
    from ..stages.shuffle import bucketed_map_groups

    events = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        t = batch[["user_id", "event_type"]].copy()
        t["n"] = np.ones(len(t), np.int64)
        return (
            t.groupby(["user_id", "event_type"], sort=False)
            .sum()
            .reset_index()
        )

    def argmax(bucket: pd.DataFrame) -> pd.DataFrame:
        m = (
            bucket.groupby(["user_id", "event_type"], sort=False)["n"]
            .sum()
            .reset_index()
        )
        m = m.sort_values(
            ["user_id", "n", "event_type"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        top = m.groupby("user_id", sort=False).head(1)
        return top.rename(columns={"event_type": "top_event_type"}).assign(
            n=lambda d: d["n"].astype(np.int64)
        )

    return bucketed_map_groups(
        events,
        ["user_id"],
        argmax,
        num_buckets=8,
        local_combine=partial,
    )


def heavy_hitters(sf_dir: str, capacity: int = 256) -> rd.Dataset:
    """Exact heavy hitters via the classic two-pass sketch→verify scheme:
    pass 1 compresses each batch's term histogram to a Misra-Gries
    summary of ``capacity`` counters (subtract the (c+1)-th largest
    count, keep positives) and merges the summaries in one tiny bucket —
    MG summaries are mergeable with the same N/c error bound (Agarwal et
    al., "Mergeability of Summaries"), so every term with true frequency
    > N/c survives as a candidate.  Pass 2 broadcasts the ≤ c candidates
    and computes their EXACT corpus counts plus the total token count as
    a combiner-first grouped sum, then filters count > N/c.  The full
    term table never shuffles in either pass.  Output: (term, n), exact,
    whitespace tokenizer (parity with ``top_terms``)."""
    from ..stages.shuffle import bucketed_map_groups

    docs = _read(sf_dir, "documents", columns=["text"])

    def mg_partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].str.split().explode().dropna()
        vc = toks.value_counts()
        if len(vc) > capacity:
            vc = vc - vc.iloc[capacity]
            vc = vc[vc > 0]
        out = pd.DataFrame(
            {
                "term": vc.index.to_numpy(dtype=object),
                "n": vc.to_numpy(np.int64),
                "is_total": np.zeros(len(vc), np.int8),
            }
        )
        total = pd.DataFrame(
            {"term": [""], "n": [np.int64(len(toks))], "is_total": [np.int8(1)]}
        )
        out = pd.concat([out, total], ignore_index=True)
        out["_k"] = np.zeros(len(out), np.int8)
        return out

    def mg_merge(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.drop(columns=["_k"])
        total = int(b.loc[b["is_total"] == 1, "n"].sum())
        vc = (
            b.loc[b["is_total"] == 0]
            .groupby("term", sort=False)["n"]
            .sum()
            .sort_values(ascending=False)
        )
        if len(vc) > capacity:
            vc = vc - vc.iloc[capacity]
            vc = vc[vc > 0]
        return pd.DataFrame(
            {"term": vc.index.to_numpy(dtype=object), "total": total}
        )

    sketch = bucketed_map_groups(
        docs.map_batches(mg_partial, batch_format="pandas", batch_size=2048),
        ["_k"],
        mg_merge,
        num_buckets=1,
    ).to_pandas()
    candidates = set(sketch["term"])
    total_tokens = int(sketch["total"].iloc[0]) if len(sketch) else 0
    cand_ref = ray.put(candidates)

    class CandidateCount:
        def __init__(self, ref):
            self.cands = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            toks = batch["text"].str.split().explode().dropna()
            vc = toks[toks.isin(self.cands)].value_counts()
            return pd.DataFrame(
                {
                    "term": vc.index.to_numpy(dtype=object),
                    "n": vc.to_numpy(np.int64),
                }
            )

    partials = docs.map_batches(
        stage_fn(CandidateCount, ref=cand_ref),
        batch_format="pandas",
        batch_size=2048,
    )
    exact = grouped_agg(partials, ["term"], {"n": "sum"}, num_buckets=2)
    threshold = total_tokens / capacity

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        out = b.loc[b["n"] > threshold].copy()
        out["n"] = out["n"].astype(np.int64)
        return out[["term", "n"]]

    return exact.map_batches(finish, batch_format="pandas")


def monthly_revenue_growth(sf_dir: str) -> rd.Dataset:
    """Time-series growth (LAG window on an aggregate): monthly order
    revenue plus month-over-month pct change.  One corpus-scale pass
    ends at the per-month aggregate (tens of rows); the ordered shift
    runs in a single tiny bucket — never a corpus-scale sort.  Output:
    (month=yyyymm, revenue rounded 4dp, growth rounded 6dp, NULL for
    the first month)."""
    from ..stages.shuffle import bucketed_map_groups

    orders = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        month = (
            batch["o_orderdate"].dt.year * 100 + batch["o_orderdate"].dt.month
        ).astype(np.int64)
        t = pd.DataFrame({"month": month, "revenue": batch["o_totalprice"]})
        return t.groupby("month", sort=False).sum().reset_index()

    partials = orders.map_batches(partial, batch_format="pandas", batch_size=65536)
    merged = grouped_agg(partials, ["month"], {"revenue": "sum"}, num_buckets=2)
    base = merged.map_batches(
        lambda b: b.assign(_one=np.zeros(len(b), np.int8)), batch_format="pandas"
    )

    def growth(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.sort_values("month").reset_index(drop=True)
        prev = b["revenue"].shift(1)
        return pd.DataFrame(
            {
                "month": b["month"].astype(np.int64),
                "revenue": b["revenue"].round(4),
                "growth": ((b["revenue"] - prev) / prev).round(6),
            }
        )

    return bucketed_map_groups(base, ["_one"], growth, num_buckets=1)


def top_bigram_pmi(
    sf_dir: str, min_count: int = 5, k: int = 50
) -> rd.Dataset:
    """Collocation mining: top-k adjacent word pairs by pointwise mutual
    information, restricted to pairs seen ≥ ``min_count`` times.  Two
    combiner-first counting exchanges (unigrams; bigrams), then the
    filtered bigram table joins unigram counts twice via the
    co-partitioned hash join (no vocab broadcast — the vocabulary is
    corpus-scale at 100 TB), and the PMI top-k reduces per-bucket before
    one tiny final merge.  ln/division order mirrors the SQL oracle
    exactly.  Output: (w1, w2, n_pair, pmi rounded 6dp)."""
    from ..stages.joins import hash_join

    docs = _read(sf_dir, "documents", columns=["text"])

    def uni_partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["text"].str.split().explode().dropna().value_counts()
        return pd.DataFrame(
            {"term": vc.index.to_numpy(dtype=object), "cu": vc.to_numpy(np.int64)}
        )

    # materialize(): uni is referenced 3x (scalar sum + both joins) and bg
    # 2x; Ray Data re-executes a shared ancestor once per reference, so
    # without pinning the corpus-scale token explode + 64-bucket exchange
    # would run 3x.  The pinned tables are vocabulary-scale, not corpus.
    uni = grouped_agg(
        docs.map_batches(uni_partial, batch_format="pandas", batch_size=2048),
        ["term"],
        {"cu": "sum"},
        num_buckets=64,
    ).materialize()

    def bg_partial(batch: pd.DataFrame) -> pd.DataFrame:
        e = batch["text"].reset_index(drop=True).str.split().explode().dropna()
        nxt = e.groupby(level=0).shift(-1)
        m = nxt.notna()
        t = pd.DataFrame(
            {
                "w1": e[m].to_numpy(dtype=object),
                "w2": nxt[m].to_numpy(dtype=object),
                "c12": np.ones(int(m.sum()), np.int64),
            }
        )
        return t.groupby(["w1", "w2"], sort=False).sum().reset_index()

    bg = grouped_agg(
        docs.map_batches(bg_partial, batch_format="pandas", batch_size=2048),
        ["w1", "w2"],
        {"c12": "sum"},
        num_buckets=64,
    ).materialize()

    def _scalar_sum(ds: rd.Dataset, col: str) -> float:
        parts = ds.map_batches(
            lambda b: pd.DataFrame({"s": [np.int64(b[col].sum())]}),
            batch_format="pandas",
            batch_size=65536,
        ).to_pandas()
        return float(parts["s"].sum())

    n_tokens = _scalar_sum(uni, "cu")
    n_bigrams = _scalar_sum(bg, "c12")

    cand = bg.map_batches(
        lambda b: b.loc[b["c12"] >= min_count], batch_format="pandas"
    )
    j1 = hash_join(
        cand.map_batches(
            lambda b: b.rename(columns={"w1": "term"}), batch_format="pandas"
        ),
        uni,
        on="term",
        num_buckets=16,
    ).map_batches(
        lambda b: b.rename(columns={"term": "w1", "cu": "c1"}),
        batch_format="pandas",
    )
    j2 = hash_join(
        j1.map_batches(
            lambda b: b.rename(columns={"w2": "term"}), batch_format="pandas"
        ),
        uni,
        on="term",
        num_buckets=16,
    ).map_batches(
        lambda b: b.rename(columns={"term": "w2", "cu": "c2"}),
        batch_format="pandas",
    )

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        c12 = batch["c12"].to_numpy(np.float64)
        c1 = batch["c1"].to_numpy(np.float64)
        c2 = batch["c2"].to_numpy(np.float64)
        pmi = np.round(
            np.log((c12 / n_bigrams) / ((c1 / n_tokens) * (c2 / n_tokens))), 6
        )
        return pd.DataFrame(
            {
                "w1": batch["w1"].to_numpy(dtype=object),
                "w2": batch["w2"].to_numpy(dtype=object),
                "n_pair": batch["c12"].astype(np.int64),
                "pmi": pmi,
            }
        )

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(
            ["pmi", "w1", "w2"], ascending=[False, True, True], kind="mergesort"
        ).head(k)

    scored = j2.map_batches(score, batch_format="pandas").map_batches(
        local_topk, batch_format="pandas", batch_size=65536
    )
    return single_bucket_merge(scored, local_topk)


def customers_no_urgent_orders(sf_dir: str) -> rd.Dataset:
    """NOT EXISTS / anti-semi-join at table scale: customers that never
    placed a 1-URGENT order.  Both sides co-partition by key hash
    (``partitioned_anti_join``) — the predicate pushes to the right
    side's read and the keys pre-dedup per batch, so the exchange
    carries filtered key cardinality, and no driver-side key set exists
    at any point.  Output: (c_custkey, c_name, c_nationkey)."""
    from ..stages.joins import partitioned_anti_join

    cust = _read(
        sf_dir, "customer", columns=["c_custkey", "c_name", "c_nationkey"]
    )
    okeys = _read(
        sf_dir, "orders", columns=["o_custkey", "o_orderpriority"]
    ).map_batches(
        lambda b: b.loc[
            b["o_orderpriority"] == "1-URGENT", ["o_custkey"]
        ].rename(columns={"o_custkey": "c_custkey"}).drop_duplicates(),
        batch_format="pandas",
        batch_size=65536,
    )
    out = partitioned_anti_join(cust, okeys, on="c_custkey", num_buckets=16)
    # the table stores c_nationkey as int32; the query's schema (and its
    # oracle) has BIGINT
    return out.map_batches(
        lambda b: b.assign(c_nationkey=b["c_nationkey"].astype(np.int64)),
        batch_format="pandas",
    )


def events_value_percentile(sf_dir: str) -> rd.Dataset:
    """PERCENT_RANK window at corpus scale: each event's percentile of
    ``value`` within its event_type (rank ties share a rank, single-row
    partitions get 0, matching SQL).  Partition-co-located bucketing —
    one exchange keyed on event_type; the rank math is vectorized
    in-bucket.  Output: (event_id, event_type, value, pct_rank 6dp)."""
    from ..stages.shuffle import bucketed_map_groups

    events = _read(sf_dir, "events", columns=["event_id", "event_type", "value"])

    def prank(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby("event_type", sort=False)["value"]
        r = g.rank(method="min")
        n = g.transform("size")
        pct = np.where(
            n.to_numpy() > 1,
            (r.to_numpy() - 1.0) / (n.to_numpy() - 1.0),
            0.0,
        )
        return pd.DataFrame(
            {
                "event_id": bucket["event_id"],
                "event_type": bucket["event_type"],
                "value": bucket["value"],
                "pct_rank": np.round(pct, 6),
            }
        )

    return bucketed_map_groups(events, ["event_type"], prank, num_buckets=8)


def events_prev(sf_dir: str) -> rd.Dataset:
    """As-of/previous-row operator: for each event, the previous event id
    of the same user in time order (bucketed per-user ordered shift)."""
    from ..stages.joins import asof_prev

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    out = asof_prev(ev, key="user_id", ts_col="ts", value_cols=["event_id"])
    return out.map_batches(
        lambda b: pd.DataFrame(
            {
                "event_id": b["event_id"],
                "user_id": b["user_id"],
                "prev_event_id": b["prev_event_id"].fillna(-1).astype("int64"),
            }
        ),
        batch_format="pandas",
    )


def orders_automobile(sf_dir: str) -> rd.Dataset:
    """Semi join: orders whose customer is in the AUTOMOBILE segment
    (broadcast key-set filter, no shuffle)."""
    import ray

    from ..stages.joins import semi_join_filter

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    ).to_pandas()
    keys = set(cust.loc[cust["c_mktsegment"] == "AUTOMOBILE", "c_custkey"])
    keys_ref = ray.put(keys)
    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    out = semi_join_filter(orders, "o_custkey", keys_ref)
    return out.map_batches(
        lambda b: b.assign(o_totalprice=b["o_totalprice"].round(4)),
        batch_format="pandas",
    )


def docs_by_source(sf_dir: str) -> rd.Dataset:
    """documents grouped by source: count + char sum (exact ints)."""
    return _docs_by_source_ds(
        _read(sf_dir, "documents", columns=["source", "n_chars"])
    )


def docs_by_source_jsonl(sf_dir: str) -> rd.Dataset:
    """Same aggregation through a FULL JSONL round trip: the documents
    table is written once to hash-partitioned JSONL (interchange-format
    sink) and read back with the streaming JSONL source — sharing
    ``docs_by_source``'s oracle, so the sink+source pair is value-hash
    checked end to end."""
    from ..sources.jsonl import read_jsonl, write_jsonl_partitioned

    return _docs_by_source_ds(
        read_jsonl(_docs_interchange_cache(sf_dir, "jsonl", write_jsonl_partitioned))
    )


def docs_by_source_csv(sf_dir: str) -> rd.Dataset:
    """Same aggregation through a FULL CSV round trip (partitioned CSV
    sink → streaming CSV source), sharing ``docs_by_source``'s oracle —
    value-hash checks the third interchange format end to end."""
    from ..sources.csv import read_csv, write_csv_partitioned

    return _docs_by_source_ds(
        read_csv(_docs_interchange_cache(sf_dir, "csv", write_csv_partitioned))
    )


def _docs_interchange_cache(sf_dir: str, fmt: str, write) -> str:
    """The documents table written once per input fingerprint by the
    partitioned ``write`` sink, cached under ``docs_<fmt>_16``."""
    from .corpus import _input_fingerprint

    tag = os.path.basename(os.path.normpath(sf_dir))

    def build(tmp: str) -> None:
        write(
            _read(sf_dir, "documents", columns=["doc_id", "source", "n_chars"]),
            tmp,
            key_cols=["doc_id"],
            num_buckets=16,
        )

    return store.cached(
        f"/tmp/rcr_cache/{tag}/docs_{fmt}_16",
        _input_fingerprint(sf_dir, "documents"),
        build,
    )


def _docs_by_source_ds(docs: rd.Dataset) -> rd.Dataset:
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        t = batch.assign(n_docs=np.ones(len(batch), np.int64))
        return (
            t.groupby("source", sort=False)
            .agg(n_docs=("n_docs", "sum"), total_chars=("n_chars", "sum"))
            .reset_index()
        )

    partials = docs.map_batches(partial, batch_format="pandas", batch_size=65536)
    return grouped_agg(
        partials, ["source"], {"n_docs": "sum", "total_chars": "sum"}, num_buckets=4
    )


def events_sessions(sf_dir: str, gap_seconds: int = 1800) -> rd.Dataset:
    """Gap-based sessionization — the streaming-window operator family's
    stateful member: per user, events ordered by (ts, event_id) start a
    new session when the gap to the previous event exceeds
    ``gap_seconds``.  Bucketed by user (all of a user's events meet in
    one bucket), vectorized diff+cumsum inside the bucket — the same
    shape scales to billions of events because session state never
    crosses the user partition key.

    Output: (event_id, user_id, session_idx) with session_idx counting
    the user's sessions from 0 in time order."""
    from ..stages.shuffle import bucketed_map_groups

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    gap = np.timedelta64(gap_seconds, "s")

    def per_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.sort_values(
            ["user_id", "ts", "event_id"], kind="mergesort"
        ).reset_index(drop=True)
        ts = b["ts"].to_numpy()
        user = b["user_id"].to_numpy()
        new_user = np.empty(len(b), dtype=bool)
        new_user[0] = True
        new_user[1:] = user[1:] != user[:-1]
        gap_break = np.empty(len(b), dtype=bool)
        gap_break[0] = False
        gap_break[1:] = (ts[1:] - ts[:-1]) > gap
        new_session = new_user | gap_break
        # per-user session index: global cumsum minus the user's base
        sess = np.cumsum(new_session)
        base = pd.Series(sess).where(new_user).ffill().to_numpy()
        return pd.DataFrame(
            {
                "event_id": b["event_id"].to_numpy(),
                "user_id": user,
                "session_idx": (sess - base).astype(np.int64),
            }
        )

    return bucketed_map_groups(ev, ["user_id"], per_bucket, num_buckets=64)


def top_terms(sf_dir: str, k: int = 100) -> rd.Dataset:
    """Corpus term frequency top-k: flat_map words → per-batch
    value_counts (combiner) → bucketed grouped sum → per-bucket top-k →
    single tiny final merge.  The full term table never leaves the
    cluster; only ≤ k rows per bucket reach the final merge."""
    docs = _read(sf_dir, "documents", columns=["text"])

    def explode_count(batch: pd.DataFrame) -> pd.DataFrame:
        vc = (
            batch["text"].str.split().explode().value_counts()
        )
        return pd.DataFrame(
            {"term": vc.index.to_numpy(dtype=object), "n": vc.to_numpy(np.int64)}
        )

    counts = grouped_agg(
        docs.map_batches(explode_count, batch_format="pandas", batch_size=2048),
        ["term"],
        {"n": "sum"},
        num_buckets=64,
    )

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(
            ["n", "term"], ascending=[False, True], kind="mergesort"
        ).head(k)

    pruned = counts.map_batches(
        local_topk, batch_format="pandas", batch_size=65536
    )

    def final(bucket: pd.DataFrame) -> pd.DataFrame:
        return bucket.sort_values(
            ["n", "term"], ascending=[False, True], kind="mergesort"
        ).head(k)[["term", "n"]]

    return single_bucket_merge(pruned, final)


def token_zipf_alpha(sf_dir: str, k: int = 100) -> rd.Dataset:
    """Zipf-law slope of the corpus term-frequency distribution — the
    corpus-health monitor a pretraining pipeline tracks per snapshot
    (natural text sits near slope −1; template/spam-heavy crawls
    flatten or steepen it).  OLS slope of ln(freq) on ln(rank) over the
    top-``k`` terms (rank ties → term ascending, matching
    ``top_terms``).  Scale shape: identical to ``top_terms`` (combiner
    counts → bucketed sum → per-bucket top-k → one tiny merge); the
    regression runs on ≤ k rows in the final task.

    Output: one row (alpha rounded 6dp, n_terms)."""
    docs = _read(sf_dir, "documents", columns=["text"])

    def explode_count(batch: pd.DataFrame) -> pd.DataFrame:
        # findall(\S+) == the oracle's RE2 tokenization
        vc = batch["text"].str.findall(r"\S+").explode().value_counts()
        return pd.DataFrame(
            {"term": vc.index.to_numpy(dtype=object), "n": vc.to_numpy(np.int64)}
        )

    counts = grouped_agg(
        docs.map_batches(explode_count, batch_format="pandas", batch_size=2048),
        ["term"],
        {"n": "sum"},
        num_buckets=64,
    )

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(
            ["n", "term"], ascending=[False, True], kind="mergesort"
        ).head(k)

    pruned = counts.map_batches(
        local_topk, batch_format="pandas", batch_size=65536
    )

    def fit(bucket: pd.DataFrame) -> pd.DataFrame:
        top = bucket.sort_values(
            ["n", "term"], ascending=[False, True], kind="mergesort"
        ).head(k)
        y = np.log(top["n"].to_numpy(np.float64))
        x = np.log(np.arange(1, len(top) + 1, dtype=np.float64))
        xm, ym = x.mean(), y.mean()
        slope = ((x - xm) * (y - ym)).sum() / ((x - xm) ** 2).sum()
        return pd.DataFrame(
            {
                "alpha": [round(float(slope), 6)],
                "n_terms": np.asarray([len(top)], np.int64),
            }
        )

    return single_bucket_merge(pruned, fit)


def dup_trigram_stats(sf_dir: str) -> rd.Dataset:
    """Per-document duplicate-span signal (Lee et al., "Deduplicating
    Training Data Makes Language Models Better"): the fraction of a
    document's distinct word trigrams that also occur in at least one
    OTHER document.  Fully co-partitioned — no trigram vocabulary ever
    ships broadcast: per-batch distinct (doc, trigram) rows (grouped
    shift, no per-token Python), one grouped count per trigram, one
    partitioned hash join back on the trigram key, one doc-keyed
    re-aggregate.  Documents with < 3 tokens have no trigrams and are
    absent (inner semantics).

    Output: (doc_id, n_tri, n_dup, dup_frac rounded 6dp)."""
    from ..stages.joins import hash_join
    from ..util import default_buckets

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def tri_rows(batch: pd.DataFrame) -> pd.DataFrame:
        toks = (
            batch.set_index("doc_id")["text"].str.findall(r"\S+").explode()
        )
        df = toks.reset_index()
        df.columns = ["doc_id", "tok"]
        df = df[df["tok"].notna()]
        g = df.groupby("doc_id", sort=False)["tok"]
        tri = df["tok"] + " " + g.shift(-1) + " " + g.shift(-2)
        out = pd.DataFrame(
            {"doc_id": df["doc_id"].to_numpy(), "tri": tri.to_numpy()}
        )
        return out[out["tri"].notna()].drop_duplicates()

    tris = docs.map_batches(
        tri_rows, batch_format="pandas", batch_size=2048
    ).materialize()  # feeds both the count exchange and the join

    def ones(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"tri": batch["tri"], "d": np.ones(len(batch), np.int64)}
        )

    tri_df = grouped_agg(
        tris.map_batches(ones, batch_format="pandas", batch_size=32768),
        ["tri"],
        {"d": "sum"},
        num_buckets=default_buckets(),
    )
    joined = hash_join(tris, tri_df, on="tri", num_buckets=default_buckets())

    def contrib(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "n_tri": np.ones(len(batch), np.int64),
                "n_dup": (batch["d"].to_numpy() >= 2).astype(np.int64),
            }
        )

    agg = grouped_agg(
        joined.map_batches(contrib, batch_format="pandas", batch_size=32768),
        ["doc_id"],
        {"n_tri": "sum", "n_dup": "sum"},
        num_buckets=32,
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        n_tri = batch["n_tri"].to_numpy(np.int64)
        n_dup = batch["n_dup"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "n_tri": n_tri,
                "n_dup": n_dup,
                "dup_frac": np.round(
                    n_dup.astype(np.float64) / n_tri.astype(np.float64), 6
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pandas", batch_size=32768)


def bpe_pair_counts(sf_dir: str, k: int = 20) -> rd.Dataset:
    """First BPE merge iteration — the tokenizer-training primitive:
    corpus-weighted counts of adjacent character pairs within words,
    top-``k`` merge candidates by (count desc, pair asc).  Scale shape:
    per-batch word value_counts collapse to the batch vocabulary, char
    pairs expand per DISTINCT word (vocabulary-scale, not token-scale),
    a bucketed grouped sum merges pair partials, and the top-k funnels
    through per-bucket pruning + one tiny merge.

    Output: (pair, n)."""
    from ..stages.shuffle import single_bucket_merge

    docs = _read(sf_dir, "documents", columns=["text"])

    def pair_partial(batch: pd.DataFrame) -> pd.DataFrame:
        # findall(\S+) matches the oracle's RE2 tokenization exactly
        # (str.split() also splits on \x0b etc.)
        wc = batch["text"].str.findall(r"\S+").explode().value_counts()
        pairs: dict = {}
        for word, c in wc.items():
            for a, b in zip(word, word[1:]):
                key = a + b
                pairs[key] = pairs.get(key, 0) + c
        return pd.DataFrame(
            {
                "pair": np.asarray(list(pairs.keys()), dtype=object),
                "n": np.asarray(list(pairs.values()), np.int64),
            }
        )

    counts = grouped_agg(
        docs.map_batches(pair_partial, batch_format="pandas", batch_size=2048),
        ["pair"],
        {"n": "sum"},
        num_buckets=16,
    )

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(
            ["n", "pair"], ascending=[False, True], kind="mergesort"
        ).head(k)

    pruned = counts.map_batches(
        local_topk, batch_format="pandas", batch_size=65536
    )

    def final(bucket: pd.DataFrame) -> pd.DataFrame:
        return bucket.sort_values(
            ["n", "pair"], ascending=[False, True], kind="mergesort"
        ).head(k)[["pair", "n"]]

    return single_bucket_merge(pruned, final)


def quality_filtered(sf_dir: str, threshold: float = 0.5) -> rd.Dataset:
    """Quality-gate composition: score every document (QualityScore
    stage) and keep docs at or above the threshold — the standard
    training-data filter step, streaming end to end.

    Output: (doc_id, quality)."""
    from ..pipelines.corpus import quality_scores

    scored = quality_scores(sf_dir)

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.loc[
            batch["quality"] >= threshold, ["doc_id", "quality"]
        ]

    return scored.map_batches(keep, batch_format="pandas", batch_size=8192)


def events_sliding(
    sf_dir: str, window_s: int = 3600, slide_s: int = 900
) -> rd.Dataset:
    """Sliding event-time windows (default 1 h length, 15 min slide):
    every event lands in the ``window_s // slide_s`` windows covering
    it, emitted as partial aggregates inside ``map_batches`` (the
    combiner) before one bucketed grouped merge — the same
    replicate-then-aggregate shape a streaming engine uses, with window
    close at read time.  ``window_s`` must be a multiple of ``slide_s``
    (the replication factor is derived, not hardcoded).

    Output: (event_type, window_start, n_events, sum_value)."""
    if window_s % slide_s != 0:
        raise ValueError(
            f"window_s={window_s} must be a multiple of slide_s={slide_s}"
        )
    n_windows = window_s // slide_s
    ev = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        ts = batch["ts"].to_numpy()
        grid = ts.astype("datetime64[s]").astype(np.int64) // slide_s * slide_s
        frames = []
        for j in range(n_windows):
            start = (grid - j * slide_s).astype("datetime64[s]").astype("datetime64[us]")
            frames.append(
                pd.DataFrame(
                    {
                        "event_type": batch["event_type"].to_numpy(dtype=object),
                        "window_start": start,
                        "n_events": np.ones(len(batch), np.int64),
                        "sum_value": batch["value"].to_numpy(),
                    }
                )
            )
        rep = pd.concat(frames, ignore_index=True)
        g = (
            rep.groupby(["event_type", "window_start"], sort=False)
            .agg(n_events=("n_events", "sum"), sum_value=("sum_value", "sum"))
            .reset_index()
        )
        return g

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        out["sum_value"] = out["sum_value"].round(6)
        return out

    merged = grouped_agg(
        ev.map_batches(partial, batch_format="pandas", batch_size=32768),
        ["event_type", "window_start"],
        {"n_events": "sum", "sum_value": "sum"},
        num_buckets=32,
    )
    return merged.map_batches(finish, batch_format="pandas", batch_size=32768)


def tfidf_top_terms(sf_dir: str, k: int = 3) -> rd.Dataset:
    """Per-document top-k TF-IDF terms, fully CO-PARTITIONED on term —
    the raw whitespace vocabulary of a web-scale corpus is billions of
    terms (typos, URLs), NOT a tokenizer vocab, so the
    document-frequency table is never collected or broadcast (same
    stance as ``doc_unigram_xent``): documents explode to exact
    (doc_id, term, tf) rows (each batch holds whole docs), the df table
    streams into a partitioned hash join on term, scores compute
    map-side with a per-batch local top-k combiner (valid because
    (doc, term) rows are unique — global top-k under the total order
    (score desc, term asc) = top-k of the union of local top-ks), and
    one doc-keyed exchange picks the winners.

    Output: (doc_id, rank 1-based, term, score[6dp])."""
    from ..stages.joins import hash_join
    from ..stages.shuffle import bucketed_map_groups
    from ..util import default_buckets
    from .corpus import _docs

    n_docs = _read(sf_dir, "documents", columns=["doc_id"]).count()

    def tf_table(batch: pd.DataFrame) -> pd.DataFrame:
        exploded = (
            batch.set_index("doc_id")["text"].str.findall(r"\S+").explode()
        )
        tf = (
            exploded.reset_index()
            .groupby(["doc_id", "text"], sort=False)
            .size()
            .rename("tf")
            .reset_index()
            .rename(columns={"text": "term"})
        )
        return tf[tf["term"].notna()]

    tf = _docs(sf_dir).map_batches(
        tf_table, batch_format="pandas", batch_size=8192
    )
    joined = hash_join(
        tf, doc_freq(sf_dir), on="term", num_buckets=default_buckets()
    )

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "term": batch["term"].to_numpy(dtype=object),
                "score": batch["tf"].to_numpy(np.float64)
                * np.log(float(n_docs) / batch["df"].to_numpy(np.float64)),
            }
        )
        return (
            out.sort_values(
                ["doc_id", "score", "term"],
                ascending=[True, False, True],
                kind="mergesort",
            )
            .groupby("doc_id", sort=False)
            .head(k)
        )

    pruned = joined.map_batches(
        local_topk, batch_format="pandas", batch_size=32768
    )

    def final_topk(bucket: pd.DataFrame) -> pd.DataFrame:
        top = (
            bucket.sort_values(
                ["doc_id", "score", "term"],
                ascending=[True, False, True],
                kind="mergesort",
            )
            .groupby("doc_id", sort=False)
            .head(k)
        )
        top = top.copy()
        top["rank"] = top.groupby("doc_id", sort=False).cumcount() + 1
        return pd.DataFrame(
            {
                "doc_id": top["doc_id"].to_numpy(),
                "rank": top["rank"].to_numpy(np.int64),
                "term": top["term"].to_numpy(dtype=object),
                "score": top["score"].round(6).to_numpy(),
            }
        )

    return bucketed_map_groups(
        pruned, ["doc_id"], final_topk, num_buckets=default_buckets()
    )


def length_quantiles(sf_dir: str) -> rd.Dataset:
    """Distributed EXACT quantiles over a bounded integer domain:
    per-source p50/p90/p99 of document length via histogram partials —
    each batch emits (source, n_chars) counts, one bucketed grouped sum
    merges them, and the quantile reads off the cumulative histogram.
    No sort, no per-group materialization of raw rows: the shuffle
    moves at most |domain|×|sources| histogram cells regardless of
    corpus size — the scale shape for percentile monitoring at 100 TB
    (for unbounded/float domains, bucket the domain first).

    Quantile convention matches DuckDB ``quantile_disc``:
    sorted[ceil(q·n) − 1]."""
    import math

    from ..stages.shuffle import bucketed_map_groups

    docs = _read(sf_dir, "documents", columns=["source", "n_chars"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = (
            batch.groupby(["source", "n_chars"], sort=False)
            .size()
            .rename("cnt")
            .reset_index()
        )
        g["cnt"] = g["cnt"].astype("int64")
        return g

    hist = grouped_agg(
        docs.map_batches(partial, batch_format="pandas", batch_size=32768),
        ["source", "n_chars"],
        {"cnt": "sum"},
        num_buckets=16,
    )

    QS = (("p50", 0.5), ("p90", 0.9), ("p99", 0.99))

    def per_source(bucket: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for src, sub in bucket.groupby("source", sort=False):
            sub = sub.sort_values("n_chars")
            vals = sub["n_chars"].to_numpy()
            cum = sub["cnt"].to_numpy().cumsum()
            n = int(cum[-1])
            row = {"source": src}
            for name, q in QS:
                target = math.ceil(q * n)
                row[name] = int(vals[np.searchsorted(cum, target)])
            rows.append(row)
        out = pd.DataFrame(rows)
        for name, _ in QS:
            out[name] = out[name].astype("int64")
        return out

    return bucketed_map_groups(hist, ["source"], per_source, num_buckets=8)


def events_price_floor(sf_dir: str) -> rd.Dataset:
    """Value-axis as-of join: for every event, the greatest part retail
    price ≤ 100·value and the part carrying it (max p_partkey among
    price ties, pre-aggregated).  The part price axis is a dimension —
    broadcast once, sorted, one vectorized ``searchsorted`` per batch
    (map-only; the keyed big-big as-of shape is ``asof_prev``).

    Output: (event_id, floor_partkey, floor_price) with -1/-1.0 when no
    price qualifies."""
    from ..stages.joins import broadcast_asof_floor

    part = pq.read_table(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_retailprice"],
    ).to_pandas()
    # deterministic tie rule the oracle replicates: max partkey per price
    pp = part.groupby("p_retailprice")["p_partkey"].max().reset_index()

    ev = _read(sf_dir, "events", columns=["event_id", "value"])
    joined = broadcast_asof_floor(
        ev,
        probe_col="value",
        axis_vals=pp["p_retailprice"].to_numpy(np.float64),
        payload=pp["p_partkey"].to_numpy(np.int64),
        out_key="floor_partkey",
        out_val="floor_price",
        scale=100.0,
    )

    def project(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": batch["event_id"].to_numpy(),
                "floor_partkey": batch["floor_partkey"].to_numpy(),
                "floor_price": batch["floor_price"].round(4).to_numpy(),
            }
        )

    return joined.map_batches(project, batch_format="pandas", batch_size=32768)


def doc_freq(sf_dir: str) -> rd.Dataset:
    """Term document frequency (the IDF denominator for TF-IDF-based
    quality filters): distinct (doc, term) pairs per batch (combiner),
    then one bucketed grouped count per term."""
    from ..stages.shuffle import grouped_agg

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def explode_distinct(batch: pd.DataFrame) -> pd.DataFrame:
        pairs = (
            batch.set_index("doc_id")["text"].str.split().explode()
        )
        df = pairs.reset_index()
        df.columns = ["doc_id", "term"]
        df = df.drop_duplicates()
        return pd.DataFrame(
            {"term": df["term"].to_numpy(dtype=object),
             "df": np.ones(len(df), np.int64)}
        )

    return grouped_agg(
        docs.map_batches(
            explode_distinct, batch_format="pandas", batch_size=2048
        ),
        ["term"],
        {"df": "sum"},
        num_buckets=32,
    )


def inverted_index(sf_dir: str, max_postings: int = 10000) -> rd.Dataset:
    """Inverted index build: term → document-frequency + sorted postings
    list (the retrieval-side artifact a search/RAG pipeline derives from
    a corpus).  Distinct (term, doc) pairs per batch (combiner), one
    bucketed exchange keyed by term, postings assembled in-bucket.

    Postings are CSV strings of ascending doc_ids, capped at
    ``max_postings`` entries per term (stop-word terms have
    corpus-scale postings — one row must not hold the corpus; real
    indexes shard those, here the cap keeps the row bounded while
    ``df`` stays the TRUE distinct count).  Output:
    (term, df, postings)."""
    from ..stages.shuffle import bucketed_map_groups

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def explode_distinct(batch: pd.DataFrame) -> pd.DataFrame:
        pairs = batch.set_index("doc_id")["text"].str.split().explode()
        df = pairs.reset_index()
        df.columns = ["doc_id", "term"]
        return df.drop_duplicates()

    pairs = docs.map_batches(
        explode_distinct, batch_format="pandas", batch_size=2048
    )

    def build(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.drop_duplicates().sort_values(
            ["term", "doc_id"], kind="mergesort"
        )
        g = b.groupby("term", sort=False)["doc_id"]
        df_true = g.size()
        postings = g.agg(
            lambda x: ",".join(map(str, x.iloc[:max_postings]))
        )
        return pd.DataFrame(
            {
                "term": df_true.index.to_numpy(dtype=object),
                "df": df_true.to_numpy().astype(np.int64),
                "postings": postings.to_numpy(dtype=object),
            }
        )

    return bucketed_map_groups(pairs, ["term"], build, num_buckets=32)


def _query_df_terms(docs: rd.Dataset, n_query_terms: int) -> pd.DataFrame:
    """Shared retrieval scaffolding (search_topk / search_bm25): exact
    document frequencies via a combiner-first exchange (a doc lives
    wholly in one batch row, so per-batch distinct-doc counts are exact
    partials), then the ``n_query_terms`` highest-df terms — the
    deterministic, SQL-derivable query — through per-bucket top-k
    pruning and one tiny merge.  Returns a (term, df) DataFrame."""

    def df_partial(batch: pd.DataFrame) -> pd.DataFrame:
        pairs = batch.set_index("doc_id")["text"].str.split().explode()
        t = pairs.reset_index()
        t.columns = ["doc_id", "term"]
        t = t.drop_duplicates()
        vc = t["term"].value_counts()
        return pd.DataFrame(
            {"term": vc.index.to_numpy(dtype=object), "df": vc.to_numpy(np.int64)}
        )

    dfs = grouped_agg(
        docs.map_batches(df_partial, batch_format="pandas", batch_size=2048),
        ["term"],
        {"df": "sum"},
        num_buckets=32,
    )

    def local_top(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(
            ["df", "term"], ascending=[False, True], kind="mergesort"
        ).head(n_query_terms)

    return single_bucket_merge(
        dfs.map_batches(local_top, batch_format="pandas"), local_top
    ).to_pandas()


def _topk_score_merge(scored: rd.Dataset, k: int) -> rd.Dataset:
    """Final retrieval top-k: merge the per-batch ≤k candidates in one
    tiny bucket, ordered (score desc, doc_id asc)."""

    def final(bucket: pd.DataFrame) -> pd.DataFrame:
        return bucket.sort_values(
            ["score", "doc_id"], ascending=[False, True], kind="mergesort"
        ).head(k)

    return single_bucket_merge(scored, final)


def search_topk(sf_dir: str, n_query_terms: int = 3, k: int = 10) -> rd.Dataset:
    """Retrieval query over the corpus: score every document against a
    query by TF-IDF (score = Σ_t tf(t,d)·ln(N/df(t))) and return the
    top-k.  The query here is the ``n_query_terms`` highest-df terms
    (deterministic, derivable in SQL).  Scale shape: the document
    frequencies reduce through a combiner-first exchange with per-bucket
    top-k pruning (never the vocabulary to the driver beyond the query
    terms); the query's (term → idf) map broadcasts; scoring is a
    MAP-ONLY pass (a document's tokens live in its own row); the final
    top-k merges ≤ k rows per batch in one tiny bucket.  Output:
    (doc_id, score rounded 6dp)."""
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    n_docs = float(docs.count())

    qterms = _query_df_terms(docs, n_query_terms)
    idf = {
        t: np.log(n_docs / d) for t, d in zip(qterms["term"], qterms["df"])
    }
    idf_ref = ray.put(idf)

    class Scorer:
        def __init__(self, ref):
            self.idf = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            toks = batch.set_index("doc_id")["text"].str.split().explode()
            hit = toks[toks.isin(self.idf)]
            if len(hit) == 0:
                return pd.DataFrame(
                    {
                        "doc_id": pd.Series([], dtype=batch["doc_id"].dtype),
                        "score": pd.Series([], dtype=np.float64),
                    }
                )
            g = hit.reset_index()
            g.columns = ["doc_id", "term"]
            c = g.groupby(["doc_id", "term"], sort=False).size().reset_index(
                name="tf"
            )
            c["w"] = c["tf"].to_numpy(np.float64) * c["term"].map(self.idf)
            s = c.groupby("doc_id", sort=False)["w"].sum().reset_index()
            s["w"] = np.round(s["w"].to_numpy(np.float64), 6)
            s = s.rename(columns={"w": "score"})
            return s.sort_values(
                ["score", "doc_id"], ascending=[False, True], kind="mergesort"
            ).head(k)

    scored = docs.map_batches(
        stage_fn(Scorer, ref=idf_ref),
        batch_format="pandas",
        batch_size=2048,
    )

    return _topk_score_merge(scored, k)


def _source_term_pairs(sf_dir: str, batch_size: int = 2048) -> rd.Dataset:
    """Batch-deduped (source, term) pairs from documents.text."""
    docs = _read(sf_dir, "documents", columns=["source", "text"])

    def explode_distinct(batch: pd.DataFrame) -> pd.DataFrame:
        pairs = batch.set_index("source")["text"].str.split().explode()
        df = pairs.reset_index()
        df.columns = ["source", "term"]
        return df.drop_duplicates()

    return docs.map_batches(
        explode_distinct, batch_format="pandas", batch_size=batch_size
    )


def distinct_terms_by_source(sf_dir: str) -> rd.Dataset:
    """Exact per-source vocabulary size: COUNT(DISTINCT term) per
    source.  Batch-level dedup combiner → bucketed global distinct on
    (source, term) → partial counts → tiny grouped sum, so the exchange
    carries unique pairs, never raw token streams.  The exact anchor for
    the HLL sketch in ``approx_distinct_terms``.  Output:
    (source, distinct_terms)."""
    from ..stages.shuffle import distinct, grouped_agg

    uniq = distinct(_source_term_pairs(sf_dir), ["source", "term"])
    counts = grouped_agg(uniq, ["source"], {"term": "count"}, num_buckets=4)

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "source": batch["source"],
                "distinct_terms": batch["term"].astype(np.int64),
            }
        )

    return counts.map_batches(finish, batch_format="pandas")


def approx_distinct_terms(sf_dir: str, p: int = 12) -> rd.Dataset:
    """Per-source approximate vocabulary size via a mergeable
    HyperLogLog sketch (stages/sketch.py): per-batch fixed-size register
    partials, one tiny keyed exchange, elementwise-max merge.  At
    100 TB the exchange is |sources| × 4 KiB blocks regardless of
    corpus size — the monitoring-side counterpart of the exact
    ``distinct_terms_by_source`` (rows-only here; pytest bounds the
    relative error against the exact oracle-checked companion).
    Output: (source, approx_distinct)."""
    from ..stages.sketch import approx_distinct

    return approx_distinct(
        _source_term_pairs(sf_dir), "source", "term", p=p, num_buckets=4
    )


def events_price_band(sf_dir: str, scale: float = 100.0, radius: float = 5.0) -> rd.Dataset:
    """Range-join instance: for each event, count the parts whose retail
    price falls in the half-open band [100·value − 5, 100·value + 5).
    Grid-cell replicated join (stages.joins.range_join) + grouped count;
    events with no parts in band are absent (inner semantics).

    Output: (event_id, n_parts)."""
    from ..stages.joins import range_join
    from ..stages.shuffle import grouped_agg

    ev = _read(sf_dir, "events", columns=["event_id", "value"])

    def scaled(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": batch["event_id"].to_numpy(),
                "v": (batch["value"].to_numpy(dtype=np.float64) * scale),
            }
        )

    parts = _read(sf_dir, "part", columns=["p_partkey", "p_retailprice"])
    pairs = range_join(
        ev.map_batches(scaled, batch_format="pandas", batch_size=8192),
        parts,
        left_val="v",
        right_val="p_retailprice",
        radius=radius,
    )

    def ones(batch: pd.DataFrame) -> pd.DataFrame:
        # event_id rides the join's schema union as float64; restore
        return pd.DataFrame(
            {
                "event_id": batch["event_id"].to_numpy().astype(np.int64),
                "n_parts": np.ones(len(batch), np.int64),
            }
        )

    return grouped_agg(
        pairs.map_batches(ones, batch_format="pandas", batch_size=32768),
        ["event_id"],
        {"n_parts": "sum"},
        num_buckets=32,
    )


def profile_columns(
    ds: rd.Dataset,
    numeric_cols: Sequence[str],
    other_cols: Sequence[str] = (),
    epoch_cols: Sequence[str] = (),
    num_buckets: int = 16,
) -> rd.Dataset:
    """Data-quality column profile — the ingest validation gate every
    100 TB pipeline runs before training: per column row count, null
    count, EXACT distinct count, and (numeric/timestamp columns) min,
    max and mean rounded half-even to 6 dp.

    Scale shape: one corpus pass of per-batch stat partials funneled
    through the tiny ``single_bucket_merge`` (≤ |cols| rows per batch),
    plus one pass emitting per-batch-distinct (col, repr) pairs through
    the bucketed distinct exchange (the only wide step — it carries
    Σ per-batch distinct values, combiner-deduped before the wire) and
    a grouped count.  No driver-side value set at any point; the two
    result tables are |cols| rows and join in one tiny bucket.

    ``epoch_cols`` are timestamps profiled on the epoch-microsecond
    axis (min/max exact in a double; mean is NOT computed — the µs
    epoch sum exceeds 2^53 and would be summation-order-dependent).
    ``other_cols`` (strings) get count/null/distinct with 0.0
    sentinels for min/max/mean.  Output: (col, n, n_null, n_distinct,
    min_v, max_v, mean_v), one row per profiled column."""
    from ..stages.joins import hash_join
    from ..stages.shuffle import distinct as distinct_x
    from ..stages.shuffle import grouped_agg

    numeric_cols = list(numeric_cols)
    other_cols = list(other_cols)
    epoch_cols = list(epoch_cols)
    all_cols = numeric_cols + epoch_cols + other_cols

    def stat_partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in numeric_cols + epoch_cols:
            s = batch[c]
            if c in epoch_cols:
                s = s.astype("datetime64[us]").astype(np.int64).where(
                    batch[c].notna()
                )
            v = s.dropna().to_numpy(dtype=np.float64)
            rows.append(
                (
                    c,
                    np.int64(len(batch)),
                    np.int64(len(batch) - len(v)),
                    float(v.sum()) if len(v) else 0.0,
                    float(v.min()) if len(v) else np.inf,
                    float(v.max()) if len(v) else -np.inf,
                )
            )
        for c in other_cols:
            nn = int(batch[c].notna().sum())
            rows.append(
                (c, np.int64(len(batch)), np.int64(len(batch) - nn), 0.0, np.inf, -np.inf)
            )
        return pd.DataFrame(
            rows, columns=["col", "n", "n_null", "s", "mn", "mx"]
        )

    stats = grouped_agg(
        ds.map_batches(stat_partial, batch_format="pandas", batch_size=32768),
        ["col"],
        {"n": "sum", "n_null": "sum", "s": "sum", "mn": "min", "mx": "max"},
        num_buckets=2,
    )

    def pair_partial(batch: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for c in all_cols:
            u = batch[c].dropna().unique()
            # vectorized stringification — only injectivity per column
            # matters for distinct counting, not a canonical format
            frames.append(
                pd.DataFrame(
                    {
                        "col": np.full(len(u), c, dtype=object),
                        "v": np.asarray(u).astype(str).astype(object),
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    def ones(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"col": batch["col"], "n_distinct": np.ones(len(batch), np.int64)}
        )

    dcounts = grouped_agg(
        distinct_x(
            ds.map_batches(
                pair_partial, batch_format="pandas", batch_size=32768
            ),
            ["col", "v"],
            num_buckets=num_buckets,
        ).map_batches(ones, batch_format="pandas"),
        ["col"],
        {"n_distinct": "sum"},
        num_buckets=2,
    )

    joined = hash_join(stats, dcounts, on="col", num_buckets=2)
    mean_cols = frozenset(numeric_cols)
    stat_cols = frozenset(numeric_cols + epoch_cols)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        has_stats = b["col"].isin(stat_cols).to_numpy()
        has_mean = b["col"].isin(mean_cols).to_numpy()
        denom = (b["n"] - b["n_null"]).to_numpy(dtype=np.float64)
        mean = np.divide(
            b["s"].to_numpy(), denom, out=np.zeros(len(b)), where=denom > 0
        )
        return pd.DataFrame(
            {
                "col": b["col"],
                "n": b["n"].astype(np.int64),
                "n_null": b["n_null"].astype(np.int64),
                "n_distinct": b["n_distinct"].astype(np.int64),
                "min_v": np.round(np.where(has_stats, b["mn"], 0.0), 6),
                "max_v": np.round(np.where(has_stats, b["mx"], 0.0), 6),
                "mean_v": np.round(np.where(has_mean, mean, 0.0), 6),
            }
        )

    return joined.map_batches(finish, batch_format="pandas", batch_size=1024)


def orders_profile(sf_dir: str) -> rd.Dataset:
    """Column profile of the orders table (see ``profile_columns``)."""
    orders = _read(sf_dir, "orders")
    return profile_columns(
        orders,
        numeric_cols=["o_orderkey", "o_custkey", "o_totalprice"],
        epoch_cols=["o_orderdate"],
        other_cols=["o_orderstatus", "o_orderpriority"],
    )


def events_moving_avg(sf_dir: str, frame: int = 3) -> rd.Dataset:
    """Bounded ROWS-frame window: per-user moving average of ``value``
    over the current row and the ``frame − 1`` preceding events in
    (ts, event_id) order — SQL's ROWS BETWEEN n PRECEDING AND CURRENT
    ROW, the frame type that complements the unbounded running total
    and the RANGE-style time windows already covered.  One user-keyed
    bucketed exchange; inside the bucket a vectorized pandas
    groupby-rolling kernel (min_periods=1 so the warm-up rows average
    what exists).  Output: (event_id, user_id, mavg rounded 6dp)."""
    from ..stages.shuffle import bucketed_map_groups

    events = _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])

    def run_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        m = (
            b.groupby("user_id", sort=False)["value"]
            .rolling(frame, min_periods=1)
            .mean()
            .reset_index(drop=True)
        )
        return pd.DataFrame(
            {
                "event_id": b["event_id"].to_numpy(),
                "user_id": b["user_id"].to_numpy(),
                "mavg": m.round(6).to_numpy(),
            }
        )

    return bucketed_map_groups(events, ["user_id"], run_bucket, num_buckets=16)


def events_hourly_users(sf_dir: str) -> rd.Dataset:
    """Windowed EXACT distinct count: unique active users per
    (event_type, 1-hour window) — the COUNT(DISTINCT) streaming metric
    tumbling counts can't give.  Shape: per-batch (type, window, user)
    dedup in the Arrow combiner, one bucketed distinct exchange keyed on
    the triple (the only wide step — it carries batch-deduped triples,
    not events), then a combiner-first grouped count of the surviving
    rows.  Output: (event_type, window_start, n_users)."""
    from ..stages.shuffle import distinct as distinct_x

    ev = _read(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    def keyed(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "window_start": batch["ts"].dt.floor("h"),
                "user_id": batch["user_id"],
            }
        ).drop_duplicates()

    triples = distinct_x(
        ev.map_batches(keyed, batch_format="pandas", batch_size=65536),
        ["event_type", "window_start", "user_id"],
        num_buckets=16,
    )

    def ones(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "window_start": batch["window_start"],
                "n_users": np.ones(len(batch), np.int64),
            }
        )

    return grouped_agg(
        triples.map_batches(ones, batch_format="pandas"),
        ["event_type", "window_start"],
        {"n_users": "sum"},
        num_buckets=8,
    )


def orders_automobile_bloom(sf_dir: str) -> rd.Dataset:
    """Same semi join as ``orders_automobile``, executed with the
    100 TB large⋈large shape: a distributed Bloom build over the
    AUTOMOBILE customer keys (fixed 128 KiB bitset broadcast — never a
    driver-side key set), a MAP-ONLY Bloom prefilter on orders that
    drops definite non-matches before any exchange, then the exact
    partitioned hash join removing Bloom false positives.  The shuffle
    carries only probable matches; kept/seen counts are
    metrics-reported.  Output: (o_orderkey, o_custkey, o_totalprice)."""
    from ..stages.joins import bloom_prefilter, build_bloom, hash_join

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    keys = cust.map_batches(
        lambda b: pd.DataFrame(
            {
                "o_custkey": b.loc[
                    b["c_mktsegment"] == "AUTOMOBILE", "c_custkey"
                ].to_numpy(dtype=np.int64)
            }
        ),
        batch_format="pandas",
        batch_size=32768,
    ).materialize()  # feeds both the Bloom build and the exact join
    bits_ref = build_bloom(keys, "o_custkey")
    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    probable = bloom_prefilter(orders, "o_custkey", bits_ref)
    joined = hash_join(probable, keys, on="o_custkey", num_buckets=16)
    return joined.map_batches(
        lambda b: pd.DataFrame(
            {
                "o_orderkey": b["o_orderkey"].astype(np.int64),
                "o_custkey": b["o_custkey"].astype(np.int64),
                "o_totalprice": b["o_totalprice"].round(4),
            }
        ),
        batch_format="pandas",
    )


def events_hourly_filled(sf_dir: str) -> rd.Dataset:
    """Gap-filled hourly counts: every (event_type, hour) cell on the
    complete time spine between the corpus's first and last hour, with
    0 where no events landed — the densification step dashboards and
    forecasting features need after any windowed aggregate.  The
    corpus-scale pass ends at the (type, hour) count table; the spine
    cross-product (types × hours, output-scale) builds and left-fills
    inside ONE tiny bucket.  Output: (event_type, window_start,
    n_events)."""
    ev = _read(sf_dir, "events", columns=["event_type", "ts"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        t = pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "window_start": batch["ts"].dt.floor("h"),
                "n_events": np.ones(len(batch), np.int64),
            }
        )
        return (
            t.groupby(["event_type", "window_start"], sort=False)
            .sum()
            .reset_index()
        )

    counts = grouped_agg(
        ev.map_batches(partial, batch_format="pandas", batch_size=65536),
        ["event_type", "window_start"],
        {"n_events": "sum"},
        num_buckets=8,
    )

    def fill(b: pd.DataFrame) -> pd.DataFrame:
        spine_h = pd.date_range(
            b["window_start"].min(), b["window_start"].max(), freq="h"
        )
        types = np.sort(b["event_type"].unique())
        spine = pd.MultiIndex.from_product(
            [types, spine_h], names=["event_type", "window_start"]
        )
        out = (
            b.set_index(["event_type", "window_start"])
            .reindex(spine, fill_value=0)
            .reset_index()
        )
        out["n_events"] = out["n_events"].astype(np.int64)
        # date_range builds an ns-resolution spine; the events axis is µs
        out["window_start"] = out["window_start"].astype("datetime64[us]")
        return out

    return single_bucket_merge(counts, fill)


def source_token_entropy(sf_dir: str) -> rd.Dataset:
    """Distribution-shift metrics per source: Shannon entropy of each
    source's token distribution and its KL divergence from the corpus
    distribution — the curation signal for 'this slice's language is
    drifting from the mix'.  Scale shape: one combiner-first exchange
    to the (source, term) count table (the only corpus-scale step);
    corpus term totals reduce from THAT table and join back
    co-partitioned on term (vocabulary-scale, never broadcast); the
    per-source totals and the grand total are source-cardinality /
    scalar broadcasts.  Contribution terms −p·ln p and p·ln(p/q)
    compute map-only and sum per source.  Output: (source, n_tokens,
    entropy, kl_vs_corpus) rounded 6dp."""
    from ..stages.joins import hash_join

    docs = _read(sf_dir, "documents", columns=["source", "text"])

    def tok_partial(batch: pd.DataFrame) -> pd.DataFrame:
        e = batch.set_index("source")["text"].str.split().explode().dropna()
        t = e.reset_index()
        t.columns = ["source", "term"]
        t["c"] = np.ones(len(t), np.int64)
        return t.groupby(["source", "term"], sort=False).sum().reset_index()

    st = grouped_agg(
        docs.map_batches(tok_partial, batch_format="pandas", batch_size=2048),
        ["source", "term"],
        {"c": "sum"},
        num_buckets=64,
    ).materialize()  # referenced 3x (totals, corpus totals, join left)

    ns_df = (
        grouped_agg(
            st.map_batches(
                lambda b: b[["source", "c"]], batch_format="pandas"
            ),
            ["source"],
            {"c": "sum"},
            num_buckets=2,
        )
        .to_pandas()
        .set_index("source")["c"]
    )
    n_total = float(ns_df.sum())
    ns_ref = ray.put(ns_df)

    g = grouped_agg(
        st.map_batches(
            lambda b: b[["term", "c"]].rename(columns={"c": "cg"}),
            batch_format="pandas",
        ),
        ["term"],
        {"cg": "sum"},
        num_buckets=64,
    )
    joined = hash_join(st, g, on="term", num_buckets=64)

    def contrib(batch: pd.DataFrame) -> pd.DataFrame:
        ns: pd.Series = ray.get(ns_ref)
        n_s = ns.reindex(batch["source"].to_numpy()).to_numpy(np.float64)
        p = batch["c"].to_numpy(np.float64) / n_s
        q = batch["cg"].to_numpy(np.float64) / n_total
        t = pd.DataFrame(
            {
                "source": batch["source"],
                "ent": -p * np.log(p),
                "kl": p * np.log(p / q),
            }
        )
        return t.groupby("source", sort=False).sum().reset_index()

    sums = grouped_agg(
        joined.map_batches(contrib, batch_format="pandas", batch_size=32768),
        ["source"],
        {"ent": "sum", "kl": "sum"},
        num_buckets=2,
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        ns: pd.Series = ray.get(ns_ref)
        return pd.DataFrame(
            {
                "source": b["source"],
                "n_tokens": ns.reindex(b["source"].to_numpy())
                .to_numpy()
                .astype(np.int64),
                "entropy": np.round(b["ent"].to_numpy(), 6),
                "kl_vs_corpus": np.round(b["kl"].to_numpy(), 6),
            }
        )

    return sums.map_batches(finish, batch_format="pandas", batch_size=1024)


def events_ts_pruned(sf_dir: str) -> rd.Dataset:
    """Range query through the zone-map layout (``sources.zonemap``):
    events is exported ONCE globally sorted on ts with a per-file
    min/max manifest (idempotent per sf_dir), then a deterministic
    5%-of-timespan window (starting at the 25% point) reads ONLY the
    files whose zone overlaps — storage-level data skipping, the scan
    side of the pruning story (`read_parquet(columns=...)` prunes
    columns; this prunes FILES along the sort axis).  An exact residual
    filter inside the read guarantees correctness at zone edges.
    Output: (event_id, ts, value)."""
    import math

    from ..sources import zonemap

    tag = os.path.basename(os.path.normpath(sf_dir))
    path = f"/tmp/rcr_cache/{tag}/events_by_ts"
    # no isdir guard: zone_export's own fingerprint check must run so a
    # regenerated source rebuilds the layout; the tag is the source
    # file's (size, mtime) — metadata-only, no data scan
    src = os.path.join(sf_dir, "events.parquet")
    st = os.stat(src)
    zonemap.zone_export(
        _read(sf_dir, "events", columns=["event_id", "ts", "value"]),
        path,
        "ts",
        input_tag=f"{src}|{st.st_size}|{int(st.st_mtime_ns)}",
    )
    # deterministic bounds from the SOURCE footer stats (same min/max
    # the SQL side derives with MIN/MAX over the table)
    mn_ts, mx_ts = _footer_minmax(sf_dir, "events", "ts")
    mn = int(pd.Timestamp(mn_ts).value // 1000)
    mx = int(pd.Timestamp(mx_ts).value // 1000)
    span = mx - mn
    lo = mn + math.floor(0.25 * span)
    hi = mn + math.floor(0.30 * span)
    return zonemap.zone_read(path, lo, hi)


def events_debounced(sf_dir: str, window_s: int = 60) -> rd.Dataset:
    """Stream compaction / debounce: drop an event when the SAME user's
    previous event (in (ts, event_id) order) had the same type within
    ``window_s`` seconds — the telemetry-cleaning step that collapses
    double-fires before sessionization.  One user-keyed exchange; the
    LAG comparison is a vectorized per-user shift inside the bucket
    (same partitioning contract as running totals / sessionization).
    Output: (event_id) of the kept events."""
    from ..stages.shuffle import bucketed_map_groups

    ev = _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])
    gap_us = np.int64(window_s * 1_000_000)

    def run_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        g = b.groupby("user_id", sort=False)
        prev_type = g["event_type"].shift(1)
        prev_ts = g["ts"].shift(1)
        gap = b["ts"].astype("datetime64[us]").astype(np.int64) - prev_ts.astype(
            "datetime64[us]"
        ).astype(np.int64)
        keep = (
            prev_type.isna()
            | (prev_type != b["event_type"])
            | (gap > gap_us)
        )
        return pd.DataFrame({"event_id": b.loc[keep, "event_id"].to_numpy()})

    return bucketed_map_groups(ev, ["user_id"], run_bucket, num_buckets=16)


def documents_profile(sf_dir: str) -> rd.Dataset:
    """Column profile of the documents table (see ``profile_columns``).
    ``text`` is excluded: exact distinct over full document bodies is
    the job of ``dedup_exact`` (hash-based), not a profile scan."""
    docs = _read(
        sf_dir, "documents", columns=["doc_id", "n_chars", "lang", "source"]
    )
    return profile_columns(
        docs,
        numeric_cols=["doc_id", "n_chars"],
        other_cols=["lang", "source"],
    )


def events_hourly_incremental(sf_dir: str, chunks: int = 4) -> rd.Dataset:
    """Incremental materialized-view maintenance: the hourly aggregate
    is built by processing the event stream in ``chunks`` simulated
    ARRIVALS, each merged into a persisted parquet state (read state ∪
    new partials → grouped re-sum → write next state) — the
    streaming-ingest shape where yesterday's aggregate never recomputes
    when today's shard lands.  State size is aggregate-cardinality, not
    event-cardinality; every merge is one bounded exchange.  The final
    state equals the batch ``events_hourly`` result exactly (same
    oracle).  Output: (user_id, event_type, window_start, n_events,
    sum_value rounded 6dp)."""
    import shutil
    import tempfile

    keys = ["user_id", "event_type", "window_start"]
    aggs = {"n_events": "sum", "sum_value": "sum"}
    ev = _read(
        sf_dir, "events", columns=["event_id", "user_id", "event_type", "ts", "value"]
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        t = pd.DataFrame(
            {
                "user_id": batch["user_id"],
                "event_type": batch["event_type"],
                "window_start": batch["ts"].dt.floor("h"),
                "n_events": np.ones(len(batch), np.int64),
                "sum_value": batch["value"],
            }
        )
        return t.groupby(keys, sort=False).sum().reset_index()

    root = tempfile.mkdtemp(prefix="rcr_hourly_inc_", dir="/tmp")
    state = None  # the part files of the last merged state
    try:
        for i in range(chunks):
            arrival = ev.map_batches(
                lambda b, i=i: b[b["event_id"] % chunks == i],
                batch_format="pandas",
                batch_size=65536,
            )
            partials = arrival.map_batches(
                partial, batch_format="pandas", batch_size=65536
            )
            if state is None:
                merged = grouped_agg(partials, keys, aggs, num_buckets=16)
            else:
                merged = grouped_agg(
                    store.read(state).union(partials), keys, aggs, num_buckets=16
                )
            nxt = os.path.join(root, f"state_{i}")
            merged.write_parquet(nxt)
            state = sorted(glob.glob(os.path.join(nxt, "*.parquet")))
        out = (
            store.read(state)
            .map_batches(
                lambda b: b.assign(
                    n_events=b["n_events"].astype(np.int64),
                    sum_value=b["sum_value"].round(6),
                ),
                batch_format="pandas",
                batch_size=None,
            )
            .materialize()
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out


def orders_price_rank(sf_dir: str, k: int = 3) -> rd.Dataset:
    """Top-N per group WITH TIES — RANK() semantics (equal values share
    a rank; the next rank skips), keeping rank ≤ ``k`` orders by price
    within each priority class.  One priority-keyed exchange; the rank
    is a vectorized dense comparison inside the bucket (ties detected
    by value equality on the sorted column, no per-row loop).  Output:
    (o_orderpriority, o_orderkey, o_totalprice, price_rank)."""
    from ..stages.shuffle import bucketed_map_groups

    orders = _read(
        sf_dir, "orders", columns=["o_orderpriority", "o_orderkey", "o_totalprice"]
    )

    def run_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.sort_values(
            ["o_orderpriority", "o_totalprice", "o_orderkey"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        # RANK() = position within group − position within the tie run
        # + 1: members of a tie run all inherit the run's first
        # position (sorted ⇒ equal values are adjacent within a group)
        pos = b.groupby("o_orderpriority", sort=False).cumcount().to_numpy()
        tie_pos = (
            b.groupby(["o_orderpriority", "o_totalprice"], sort=False)
            .cumcount()
            .to_numpy()
        )
        rank = pos - tie_pos + 1
        out = b.assign(
            price_rank=rank.astype(np.int64),
            o_totalprice=b["o_totalprice"].round(4),
        )
        return out[out["price_rank"] <= k][
            ["o_orderpriority", "o_orderkey", "o_totalprice", "price_rank"]
        ]

    return bucketed_map_groups(
        orders, ["o_orderpriority"], run_bucket, num_buckets=4
    )


def event_type_overlap(sf_dir: str) -> rd.Dataset:
    """Audience-overlap matrix: for every pair of event types, the EXACT
    number of users active in both — the co-visitation signal behind
    segment analysis.  Per-user bucket owns the user's distinct type
    set (≤ |types|), expands ordered pairs and pre-counts per bucket;
    one tiny grouped sum ends the pipeline at |types|² rows.  Output:
    (t1 < t2, n_users)."""
    from ..stages.shuffle import bucketed_map_groups, grouped_agg

    ev = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def project(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.drop_duplicates()

    projected = ev.map_batches(project, batch_format="pandas", batch_size=65536)

    def pair_counts(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.drop_duplicates()
        m = b.merge(b, on="user_id")
        m = m[m["event_type_x"] < m["event_type_y"]]
        return (
            m.groupby(["event_type_x", "event_type_y"], sort=False)
            .size()
            .reset_index(name="n_users")
            .rename(columns={"event_type_x": "t1", "event_type_y": "t2"})
        )

    return grouped_agg(
        bucketed_map_groups(projected, ["user_id"], pair_counts, num_buckets=16),
        ["t1", "t2"],
        {"n_users": "sum"},
        num_buckets=2,
    )


def events_winsorized(
    sf_dir: str, lo_q: float = 0.01, hi_q: float = 0.99
) -> rd.Dataset:
    """Winsorization fit-transform: clip ``value`` to the exact
    per-type [p01, p99] band — the outlier treatment robust feature
    pipelines apply before scaling.  FIT: one type-keyed exchange
    computes exact ``quantile_disc`` bounds per type (values of one
    type co-located, same contract as ``events_value_mad``); the
    |types|-row clip table broadcasts.  TRANSFORM: map-only clip over
    the stream.  Output: (event_id, value_w rounded 6dp)."""
    import ray

    from ..stages.shuffle import bucketed_map_groups

    ev = _read(sf_dir, "events", columns=["event_type", "value"])

    def fit(bucket: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for t, sub in bucket.groupby("event_type", sort=False):
            v = np.sort(sub["value"].to_numpy(np.float64))
            n = len(v)
            lo = v[max(int(np.ceil(lo_q * n)) - 1, 0)]
            hi = v[max(int(np.ceil(hi_q * n)) - 1, 0)]
            rows.append((t, lo, hi))
        return pd.DataFrame(rows, columns=["event_type", "lo", "hi"])

    clip = (
        bucketed_map_groups(ev, ["event_type"], fit, num_buckets=4)
        .to_pandas()
        .set_index("event_type")
    )
    clip_ref = ray.put(clip)

    full = _read(sf_dir, "events", columns=["event_id", "event_type", "value"])

    def transform(batch: pd.DataFrame) -> pd.DataFrame:
        c: pd.DataFrame = ray.get(clip_ref)
        lo = c["lo"].reindex(batch["event_type"].to_numpy()).to_numpy()
        hi = c["hi"].reindex(batch["event_type"].to_numpy()).to_numpy()
        v = batch["value"].to_numpy(np.float64)
        return pd.DataFrame(
            {
                "event_id": batch["event_id"].to_numpy(),
                "value_w": np.round(np.clip(v, lo, hi), 6),
            }
        )

    return full.map_batches(transform, batch_format="pandas", batch_size=65536)


def weekly_active_users(sf_dir: str, window_days: int = 7) -> rd.Dataset:
    """Rolling DISTINCT over time — trailing ``window_days``-day active
    users per calendar day (the WAU metric): a user active on day d
    counts toward days d..d+6, and each day reports the EXACT distinct
    count of its trailing window.  Shape: batch-deduped (day, user)
    pairs → map-only ×``window_days`` replication (shifting the day,
    the replicate-then-aggregate trick sliding windows use) → one
    distinct exchange on (day, user) → combiner-first count per day;
    days beyond the corpus's last day are dropped (bounds from the
    parquet footer, no extra scan).  Output: (day, n_users)."""
    from ..stages.shuffle import distinct as distinct_x
    from ..stages.shuffle import grouped_agg

    _, mx_ts = _footer_minmax(sf_dir, "events", "ts")
    max_day = pd.Timestamp(mx_ts).floor("D").to_datetime64()

    ev = _read(sf_dir, "events", columns=["user_id", "ts"])

    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        t = pd.DataFrame(
            {"day": batch["ts"].dt.floor("D"), "user_id": batch["user_id"]}
        ).drop_duplicates()
        reps = [
            t.assign(day=t["day"] + pd.Timedelta(days=i))
            for i in range(window_days)
        ]
        out = pd.concat(reps, ignore_index=True).drop_duplicates()
        out = out[out["day"].to_numpy() <= max_day]
        # Timedelta addition promotes to ns; the events axis is µs
        return out.assign(day=out["day"].astype("datetime64[us]"))

    du = distinct_x(
        ev.map_batches(pairs, batch_format="pandas", batch_size=65536),
        ["day", "user_id"],
        num_buckets=16,
    )

    def ones(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"day": b["day"], "n_users": np.ones(len(b), np.int64)}
        )

    return grouped_agg(
        du.map_batches(ones, batch_format="pandas"),
        ["day"],
        {"n_users": "sum"},
        num_buckets=4,
    )


def events_global_rownum(sf_dir: str) -> rd.Dataset:
    """GLOBAL window function without a global sort: 1-based
    ROW_NUMBER() over the whole event stream in (ts, event_id) order,
    via the repo's standing two-level-offsets pattern.  The hour of
    ``ts`` is a RANGE key (hours order exactly like timestamps), so:
    per-batch counts per hour → tiny hour-count table prefix-sums on
    the driver and broadcasts → one hour-keyed exchange sorts each
    hour locally and adds its base.  Each task sorts one hour's
    events — corpus/|hours| rows, never the stream.  Output:
    (event_id, rn)."""
    import ray

    from ..stages.shuffle import bucketed_map_groups, grouped_agg

    ev = _read(sf_dir, "events", columns=["event_id", "ts"])

    def keyed(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": batch["event_id"],
                "ts": batch["ts"],
                "hb": batch["ts"].dt.floor("h"),
            }
        )

    kd = ev.map_batches(keyed, batch_format="pandas", batch_size=65536)

    counts = (
        grouped_agg(
            kd.map_batches(
                lambda b: pd.DataFrame(
                    {"hb": b["hb"], "n": np.ones(len(b), np.int64)}
                ),
                batch_format="pandas",
            ),
            ["hb"],
            {"n": "sum"},
            num_buckets=8,
        )
        .to_pandas()
        .sort_values("hb")
    )
    base = (counts["n"].cumsum() - counts["n"]).to_numpy()
    # integer epoch keys: numpy datetime64 and pd.Timestamp don't hash
    # equal, so the broadcast dict is keyed on epoch ns
    base_ref = ray.put(
        {
            int(pd.Timestamp(h).value): int(b)
            for h, b in zip(counts["hb"], base)
        }
    )

    def rank_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        bases = ray.get(base_ref)
        outs = []
        for hb, sub in bucket.groupby("hb", sort=False):
            b = sub.sort_values(["ts", "event_id"], kind="mergesort")
            outs.append(
                pd.DataFrame(
                    {
                        "event_id": b["event_id"].to_numpy(),
                        "rn": bases[int(pd.Timestamp(hb).value)]
                        + np.arange(1, len(b) + 1, dtype=np.int64),
                    }
                )
            )
        return pd.concat(outs, ignore_index=True)

    return bucketed_map_groups(kd, ["hb"], rank_bucket, num_buckets=32)


# Collect gate of ``global_value_median``: a candidate bin of at most
# this many values reaches the driver; a larger one is narrowed again.
MEDIAN_COLLECT_MAX = 100_000


def global_value_median(sf_dir: str) -> rd.Dataset:
    """EXACT global selection without a sort: the discrete median of
    ``value`` over the whole stream (quantile_disc convention —
    sorted[ceil(n/2)−1]) found by iterative histogram narrowing: each
    round one map-only binned-count pass over the stream locates the
    256th of the current range holding the target rank, until the
    candidate range's population fits ``MEDIAN_COLLECT_MAX``; only then
    do the few surviving values reach the driver for the exact pick.
    O(log_256(spread)) full scans, never a shuffle, never a
    corpus-scale collect — the classic distributed selection
    algorithm.  Output: one row (n, median)."""
    ev = _read(sf_dir, "events", columns=["value"])

    def count_range(lo: float, hi: float) -> "tuple":
        # binned counts of values in [lo, hi); values outside counted
        # separately so ranks stay global
        nb = 256
        width = (hi - lo) / nb

        def partial(batch: pd.DataFrame) -> pd.DataFrame:
            v = batch["value"].to_numpy(np.float64)
            below = int((v < lo).sum())
            inside = v[(v >= lo) & (v < hi)]
            bins = np.minimum(
                ((inside - lo) / width).astype(np.int64), nb - 1
            )
            c = np.bincount(bins, minlength=nb)
            row = {"below": np.int64(below), "n": np.int64(len(v))}
            for i in range(nb):
                row[f"b{i}"] = np.int64(c[i])
            return pd.DataFrame([row])

        agg = (
            ev.map_batches(partial, batch_format="pandas", batch_size=65536)
            .map_batches(
                lambda b: pd.DataFrame([b.sum(axis=0)]),
                batch_format="pandas",
                batch_size=8192,
            )
            .to_pandas()
            .sum(axis=0)
        )
        counts = np.array([int(agg[f"b{i}"]) for i in range(nb)], np.int64)
        return int(agg["below"]), int(agg["n"]), counts, width

    # initial range from footer stats (no data pass); nextafter (not an
    # absolute epsilon) keeps v == max strictly inside [lo, hi) at any
    # magnitude
    mn, mx = _footer_minmax(sf_dir, "events", "value")
    lo, hi = float(mn), float(np.nextafter(np.float64(mx), np.inf))

    below, n, counts, width = count_range(lo, hi)
    k = int(np.ceil(0.5 * n))  # 1-based global target rank
    for _ in range(8):  # 256^8 spread — always enough
        cum = below + np.cumsum(counts)
        j = int(np.searchsorted(cum, k))
        in_bin = int(counts[j])
        if in_bin <= MEDIAN_COLLECT_MAX:
            # collect by the SAME bin assignment the counting pass used
            # — a range predicate on the bin edges disagrees with the
            # floor-division binning within an ulp of an edge
            def in_bin_j(
                b: pd.DataFrame, L=lo, H=hi, W=width, J=j
            ) -> pd.DataFrame:
                v = b["value"].to_numpy(np.float64)
                inside = (v >= L) & (v < H)
                bins = np.minimum(
                    ((v[inside] - L) / W).astype(np.int64), 255
                )
                out = b.loc[inside]
                return out.loc[bins == J]

            vals = (
                ev.map_batches(
                    in_bin_j, batch_format="pandas", batch_size=65536
                )
                .to_pandas()["value"]
                .to_numpy(np.float64)
            )
            rank_in_bin = k - (below + int(np.cumsum(counts)[j]) - in_bin)
            med = float(np.partition(vals, rank_in_bin - 1)[rank_in_bin - 1])
            return rd.from_pandas(
                pd.DataFrame(
                    {
                        "n": [np.int64(n)],
                        "median": [np.round(med, 6)],
                    }
                )
            )
        lo, hi = lo + j * width, lo + (j + 1) * width
        below, _, counts, width = count_range(lo, hi)
    raise RuntimeError("selection failed to narrow")  # pragma: no cover


def audience_setops(
    sf_dir: str, t1: str = "purchase", t2: str = "error"
) -> rd.Dataset:
    """Distributed SET OPERATIONS on user audiences — INTERSECT (users
    active in both ``t1`` and ``t2`` events) and EXCEPT (in ``t1`` but
    never ``t2``) in ONE pass: batch-level dedup of (user_id, is_t1)
    membership pairs, then a single user-keyed exchange owns each
    user's two membership bits and classifies it.  No driver-side
    sets; the exchange carries at most 2 rows per active user.
    Output: (op ∈ {'intersect','except'}, user_id)."""
    from ..stages.shuffle import bucketed_map_groups

    ev = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def member(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["event_type"].isin([t1, t2])]
        return pd.DataFrame(
            {
                "user_id": b["user_id"],
                "is_t1": (b["event_type"] == t1).to_numpy(),
            }
        ).drop_duplicates()

    pairs = ev.map_batches(member, batch_format="pandas", batch_size=65536)

    def classify(bucket: pd.DataFrame) -> pd.DataFrame:
        m = bucket.drop_duplicates().groupby("user_id", sort=False)["is_t1"]
        agg = m.agg(["max", "min", "count"])
        in_t1 = agg["max"].to_numpy()
        both = in_t1 & (agg["count"].to_numpy() > 1)
        only_t1 = in_t1 & (agg["min"].to_numpy())
        users = agg.index.to_numpy(np.int64)
        return pd.DataFrame(
            {
                "op": ["intersect"] * int(both.sum())
                + ["except"] * int(only_t1.sum()),
                "user_id": np.concatenate([users[both], users[only_t1]]),
            }
        )

    return bucketed_map_groups(pairs, ["user_id"], classify, num_buckets=16)


def events_type_ntile(sf_dir: str, k: int = 4) -> rd.Dataset:
    """NTILE(k) window function — per-type quartile assignment over
    ``value`` with SQL NTILE semantics (the first ``n % k`` tiles get
    the extra row), tie-broken by event_id.  One type-keyed exchange
    co-locates each type (same contract as ``events_winsorized``); the
    tile index is computed vectorized from the sort position.  Output:
    (event_id, tile 1-based)."""
    from ..stages.shuffle import bucketed_map_groups

    ev = _read(sf_dir, "events", columns=["event_id", "event_type", "value"])

    def tiles(bucket: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, sub in bucket.groupby("event_type", sort=False):
            s = sub.sort_values(["value", "event_id"], kind="mergesort")
            n = len(s)
            pos = np.arange(n, dtype=np.int64)
            big, rem = n // k + 1, n % k
            in_big = pos < big * rem
            tile = np.where(
                in_big, pos // big, rem + (pos - big * rem) // max(n // k, 1)
            )
            outs.append(
                pd.DataFrame(
                    {
                        "event_id": s["event_id"].to_numpy(np.int64),
                        "tile": tile + 1,
                    }
                )
            )
        return pd.concat(outs, ignore_index=True)

    return bucketed_map_groups(ev, ["event_type"], tiles, num_buckets=4)


def search_bm25(
    sf_dir: str,
    n_query_terms: int = 3,
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
) -> rd.Dataset:
    """BM25 retrieval (Lucene idf variant) — the production ranking
    function next to ``search_topk``'s plain TF-IDF:
    score(d) = Σ_t ln((N−df+0.5)/(df+0.5)+1) · tf·(k1+1) /
    (tf + k1·(1−b+b·dl/avgdl)).  Same scale shape as ``search_topk``
    (combiner-first df exchange → broadcast query idf map → MAP-ONLY
    scoring → tiny top-k merge) plus one extra scalar aggregate for
    avgdl (per-batch token-count partials → one sum).  Query = the
    ``n_query_terms`` highest-df terms (deterministic, derivable in
    SQL).  Output: (doc_id, score rounded 6dp)."""
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    n_docs = float(docs.count())

    def tok_count(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"n_tok": [int(batch["text"].str.split().str.len().sum())]}
        )

    total_tokens = (
        docs.map_batches(tok_count, batch_format="pandas", batch_size=2048)
        .sum("n_tok")
    )
    avgdl = float(total_tokens) / n_docs

    qterms = _query_df_terms(docs, n_query_terms)
    idf = {
        t: np.log((n_docs - d + 0.5) / (d + 0.5) + 1.0)
        for t, d in zip(qterms["term"], qterms["df"])
    }
    idf_ref = ray.put(idf)

    class Scorer:
        def __init__(self, ref):
            self.idf = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            tok_lists = batch["text"].str.split()
            dl = pd.Series(
                tok_lists.str.len().to_numpy(np.float64),
                index=batch["doc_id"].to_numpy(),
            )
            toks = pd.Series(
                tok_lists.to_numpy(), index=batch["doc_id"].to_numpy()
            ).explode()
            hit = toks[toks.isin(self.idf)]
            if len(hit) == 0:
                return pd.DataFrame(
                    {
                        "doc_id": pd.Series([], dtype=batch["doc_id"].dtype),
                        "score": pd.Series([], dtype=np.float64),
                    }
                )
            g = hit.reset_index()
            g.columns = ["doc_id", "term"]
            c = g.groupby(["doc_id", "term"], sort=False).size().reset_index(
                name="tf"
            )
            tf = c["tf"].to_numpy(np.float64)
            norm = c["doc_id"].map(dl).to_numpy(np.float64) / avgdl
            c["w"] = (
                c["term"].map(self.idf).to_numpy(np.float64)
                * tf
                * (k1 + 1.0)
                / (tf + k1 * (1.0 - b + b * norm))
            )
            s = c.groupby("doc_id", sort=False)["w"].sum().reset_index()
            s["score"] = np.round(s["w"].to_numpy(np.float64), 6)
            return s[["doc_id", "score"]].sort_values(
                ["score", "doc_id"], ascending=[False, True], kind="mergesort"
            ).head(k)

    scored = docs.map_batches(
        stage_fn(Scorer, ref=idf_ref),
        batch_format="pandas",
        batch_size=2048,
    )

    return _topk_score_merge(scored, k)


def doc_unigram_xent(sf_dir: str) -> rd.Dataset:
    """Per-document unigram-LM cross-entropy — the perplexity-filter
    signal pretraining curation pipelines compute per document (here
    the LM is the corpus's own unigram distribution, so no external
    model): xent(d) = (1/|d|) Σ_t tf(t,d) · −ln(count(t)/total).
    Scale shape: term counts reduce through one combiner-first exchange
    (the vocabulary is NEVER broadcast); per-doc (doc_id, term, tf, dl)
    partials join the count table CO-PARTITIONED on term (partitioned
    hash join, both sides stream); contributions re-aggregate per doc
    in a second exchange.  Output: (doc_id, xent rounded 6dp)."""
    from ..stages.joins import hash_join
    from ..stages.shuffle import bucketed_map_groups
    from ..util import default_buckets

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def term_partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].str.split().explode()
        vc = toks.value_counts()
        return pd.DataFrame(
            {"term": vc.index.to_numpy(dtype=object), "c": vc.to_numpy(np.int64)}
        )

    # materialize: `counts` feeds BOTH the total sum and the join —
    # each reference re-executes the corpus scan otherwise (see the
    # shared-aggregate rule; it's vocab-scale, cheap to pin)
    counts = grouped_agg(
        docs.map_batches(term_partial, batch_format="pandas", batch_size=2048),
        ["term"],
        {"c": "sum"},
        num_buckets=32,
    ).materialize()
    total = float(counts.sum("c"))

    def tf_table(batch: pd.DataFrame) -> pd.DataFrame:
        tok_lists = batch["text"].str.split()
        dl = pd.Series(
            tok_lists.str.len().to_numpy(np.float64),
            index=batch["doc_id"].to_numpy(),
        )
        toks = pd.Series(
            tok_lists.to_numpy(), index=batch["doc_id"].to_numpy()
        ).explode()
        g = toks.reset_index()
        g.columns = ["doc_id", "term"]
        c = g.groupby(["doc_id", "term"], sort=False).size().reset_index(
            name="tf"
        )
        c["dl"] = c["doc_id"].map(dl).to_numpy(np.float64)
        return c

    tf = docs.map_batches(tf_table, batch_format="pandas", batch_size=2048)
    joined = hash_join(tf, counts, on="term", num_buckets=default_buckets())

    def contrib(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "num": batch["tf"].to_numpy(np.float64)
                * -np.log(batch["c"].to_numpy(np.float64) / total),
                "dl": batch["dl"].to_numpy(np.float64),
            }
        )

    parts = joined.map_batches(contrib, batch_format="pandas", batch_size=32768)

    def per_doc(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby("doc_id", sort=False).agg(
            num=("num", "sum"), dl=("dl", "max")
        )
        return pd.DataFrame(
            {
                "doc_id": g.index.to_numpy(np.int64),
                "xent": np.round(
                    g["num"].to_numpy(np.float64) / g["dl"].to_numpy(np.float64),
                    6,
                ),
            }
        )

    return bucketed_map_groups(parts, ["doc_id"], per_doc, num_buckets=16)


def shipping_priority(
    sf_dir: str,
    segment: str = "BUILDING",
    cutoff: str = "1998-06-01",
    k: int = 10,
) -> rd.Dataset:
    """TPC-H Q3-shaped query: top-k unshipped orders by revenue for one
    market segment — the second canonical multi-join benchmark shape
    next to Q5 (``local_supplier_volume``).  Scale-first composition:
    both date filters drop rows AT THE SCAN; the segment customer list
    joins orders co-partitioned on custkey (customer is corpus-scale at
    100 TB — no broadcast); lineitem revenue pre-aggregates per batch
    BEFORE its orderkey-partitioned join; the grouped sum completes
    in-bucket (orderkey-keyed) with per-bucket top-k pruning before one
    tiny merge.  Output: (l_orderkey, revenue 4dp, o_orderdate)."""
    from ..stages.joins import hash_join
    from ..stages.shuffle import bucketed_map_groups

    d = pd.Timestamp(cutoff)

    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(
        lambda b: b.loc[b["o_orderdate"] < d].rename(
            columns={"o_custkey": "c_custkey"}
        ),
        batch_format="pandas",
        batch_size=65536,
    )
    customer = _read(
        sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]
    ).map_batches(
        lambda b: b.loc[b["c_mktsegment"] == segment, ["c_custkey"]],
        batch_format="pandas",
        batch_size=65536,
    )
    ord_f = hash_join(orders, customer, on="c_custkey", num_buckets=16)

    li = _read(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def rev_partial(b: pd.DataFrame) -> pd.DataFrame:
        s = b.loc[b["l_shipdate"] > d]
        rev = s["l_extendedprice"].to_numpy(np.float64) * (
            1.0 - s["l_discount"].to_numpy(np.float64)
        )
        return (
            pd.DataFrame(
                {
                    "l_orderkey": s["l_orderkey"].to_numpy(np.int64),
                    "revenue": rev,
                }
            )
            .groupby("l_orderkey", sort=False)["revenue"]
            .sum()
            .reset_index()
        )

    li_p = li.map_batches(rev_partial, batch_format="pandas", batch_size=65536)

    joined = hash_join(
        li_p,
        ord_f.map_batches(
            lambda b: b.rename(columns={"o_orderkey": "l_orderkey"})[
                ["l_orderkey", "o_orderdate"]
            ],
            batch_format="pandas",
        ),
        on="l_orderkey",
        num_buckets=16,
    )

    def top_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        g = (
            bucket.groupby(["l_orderkey", "o_orderdate"], sort=False)["revenue"]
            .sum()
            .reset_index()
        )
        g["revenue"] = np.round(g["revenue"].to_numpy(np.float64), 4)
        return g[["l_orderkey", "revenue", "o_orderdate"]].sort_values(
            ["revenue", "o_orderdate", "l_orderkey"],
            ascending=[False, True, True],
            kind="mergesort",
        ).head(k)

    pruned = bucketed_map_groups(joined, ["l_orderkey"], top_bucket, num_buckets=8)

    def final(bucket: pd.DataFrame) -> pd.DataFrame:
        return bucket.sort_values(
            ["revenue", "o_orderdate", "l_orderkey"],
            ascending=[False, True, True],
            kind="mergesort",
        ).head(k)

    return single_bucket_merge(pruned, final)
