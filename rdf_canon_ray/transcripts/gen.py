"""Deterministic synthetic conversation-transcript generation.

Produces the ``input_hint`` table — ``(conv_id: string, turn_idx: int32,
role: string, text: string, tool: string, ts: timestamp[us])`` — as a pure,
seeded-free *function of the TPC-H-ish testdata tables*, so every text
mention has relational ground truth and extraction P/R is measurable (and
SQL-oracle-checkable by DuckDB over the same parquet).

One conversation per order (``conv_id = conv-<o_orderkey>``):

    turn 0 (user):       "Hello, I am <c_name>. Please review order
                          ord-<okey> from <YYYY-MM-DD>."
    turn 1 (assistant):  "Order ord-<okey> is <status> at priority <prio>
                          with total <%.2f>."
    turn 1+l_linenumber (tool=lookup_item):
                         "item <ln>: part \"<p_name>\" brand <p_brand>
                          from supplier \"<s_name>\" qty <int qty>"

``turn_idx`` may carry ties (duplicate ``(l_orderkey, l_linenumber)``
exist in the data, like parallel tool calls in an agent transcript);
downstream assembly orders turns by the stable key ``(turn_idx, text)``,
preserving per-turn text equality.

Scale design: generation is MAP-ONLY — two ``map_batches`` unioned, no
shuffle. The small dimension tables (customer, part, supplier) are
broadcast once via ``ray.put`` and read once per worker process by the
stage's ``__init__`` (``util.stage_fn``), never re-shipped per batch.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..state import store
from ..util import stage_fn

# the sf_dir tables build_transcripts reads
_SOURCE_TABLES = ("orders", "lineitem", "customer", "part", "supplier")

TRANSCRIPT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)


def _customer_map(sf_dir: str) -> dict:
    t = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_name"]
    )
    return dict(zip(t["c_custkey"].to_pylist(), t["c_name"].to_pylist()))


def _part_maps(sf_dir: str):
    t = pq.read_table(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_name", "p_brand"],
    )
    keys = t["p_partkey"].to_pylist()
    names = t["p_name"].to_pylist()
    brands = t["p_brand"].to_pylist()
    by_key = {k: (n, b) for k, n, b in zip(keys, names, brands)}
    return by_key


def _supplier_map(sf_dir: str) -> dict:
    t = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_name"]
    )
    return dict(zip(t["s_suppkey"].to_pylist(), t["s_name"].to_pylist()))


class OrderTurns:
    """Stateful stage: holds the broadcast customer map; emits the two
    header turns per order."""

    def __init__(self, customer_ref):
        self.cust = ray.get(customer_ref)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        okey = batch["o_orderkey"].to_numpy()
        conv = np.char.add("conv-", okey.astype(str))
        ordtok = np.char.add("ord-", okey.astype(str))
        cname = batch["o_custkey"].map(self.cust).to_numpy(dtype=object)
        date = batch["o_orderdate"].dt.strftime("%Y-%m-%d").to_numpy(dtype=object)

        user_text = (
            "Hello, I am "
            + pd.Series(cname, dtype=object)
            + ". Please review order "
            + ordtok
            + " from "
            + date
            + "."
        )
        asst_text = (
            "Order "
            + pd.Series(ordtok, dtype=object)
            + " is "
            + batch["o_orderstatus"].to_numpy(dtype=object)
            + " at priority "
            + batch["o_orderpriority"].to_numpy(dtype=object)
            + " with total "
            + batch["o_totalprice"].map("{:.2f}".format).to_numpy(dtype=object)
            + "."
        )
        n = len(batch)
        out = pd.DataFrame(
            {
                "conv_id": np.concatenate([conv, conv]),
                "turn_idx": np.concatenate(
                    [np.zeros(n, np.int32), np.ones(n, np.int32)]
                ),
                "role": ["user"] * n + ["assistant"] * n,
                "text": pd.concat(
                    [user_text, asst_text], ignore_index=True
                ).to_numpy(dtype=object),
                "tool": [""] * (2 * n),
                "ts": np.concatenate(
                    [
                        batch["o_orderdate"].to_numpy(),
                        batch["o_orderdate"].to_numpy() + np.timedelta64(60, "s"),
                    ]
                ),
            }
        )
        return out


class ItemTurns:
    """Stateful stage: broadcast part/supplier maps; one tool turn per
    lineitem row."""

    def __init__(self, part_ref, supplier_ref):
        self.part = ray.get(part_ref)
        self.supp = ray.get(supplier_ref)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        okey = batch["l_orderkey"].to_numpy()
        ln = batch["l_linenumber"].to_numpy()
        pinfo = batch["l_partkey"].map(self.part)
        pname = pinfo.str[0].to_numpy(dtype=object)
        pbrand = pinfo.str[1].to_numpy(dtype=object)
        sname = batch["l_suppkey"].map(self.supp).to_numpy(dtype=object)
        qty = batch["l_quantity"].to_numpy().astype(np.int64)

        text = (
            "item "
            + pd.Series(ln.astype(str), dtype=object)
            + ': part "'
            + pname
            + '" brand '
            + pbrand
            + ' from supplier "'
            + sname
            + '" qty '
            + qty.astype(str)
        )
        return pd.DataFrame(
            {
                "conv_id": np.char.add("conv-", okey.astype(str)),
                "turn_idx": (ln + 1).astype(np.int32),
                "role": "tool",
                "text": text.to_numpy(dtype=object),
                "tool": "lookup_item",
                "ts": batch["l_shipdate"].to_numpy()
                + ln.astype("timedelta64[s]") * 60,
            }
        )


def build_transcripts(sf_dir: str) -> rd.Dataset:
    """Transcript Dataset for one scale factor. Map-only: no shuffle."""
    cust_ref = ray.put(_customer_map(sf_dir))
    part_ref = ray.put(_part_maps(sf_dir))
    supp_ref = ray.put(_supplier_map(sf_dir))

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=[
            "o_orderkey",
            "o_custkey",
            "o_orderstatus",
            "o_totalprice",
            "o_orderdate",
            "o_orderpriority",
        ],
    )
    lineitem = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=[
            "l_orderkey",
            "l_linenumber",
            "l_partkey",
            "l_suppkey",
            "l_quantity",
            "l_shipdate",
        ],
    )
    header = orders.map_batches(
        stage_fn(OrderTurns, customer_ref=cust_ref),
        batch_format="pandas",
        batch_size=8192,
    )
    items = lineitem.map_batches(
        stage_fn(ItemTurns, part_ref=part_ref, supplier_ref=supp_ref),
        batch_format="pandas",
        batch_size=8192,
    )
    return header.union(items)


def source_fingerprint(sf_dir: str) -> list:
    """Stat fingerprint of the tables ``build_transcripts`` reads: every
    transcript-derived cache is stale once one of them is rewritten."""
    return store.stat_files(
        {t: os.path.join(sf_dir, f"{t}.parquet") for t in _SOURCE_TABLES}
    )


def transcripts_parquet(sf_dir: str, cache_root: str = "/tmp/rcr_cache") -> str:
    """Materialize (once per input fingerprint) the transcripts table for
    ``sf_dir`` to parquet; returns the directory (``state.store``)."""
    tag = os.path.basename(os.path.normpath(sf_dir))
    return store.cached(
        os.path.join(cache_root, tag, "transcripts"),
        source_fingerprint(sf_dir),
        lambda tmp: build_transcripts(sf_dir).write_parquet(tmp),
    )
