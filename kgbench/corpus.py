"""Seeded input generator for the benchmark: ``write_sf_corpus`` makes an
sf-style directory of TPC-H-shaped parquet tables (region, nation,
customer, supplier, part, orders, lineitem) with the columns and value
shapes the transcript generator and the entity linker read — one
conversation per order — as a pure function of ``(seed, size)``.

The seed changes keys, names and order; the amount of work is fixed by
the size, so two seeds cost the same to process.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# value shapes follow the sf-style tables the program is run on (sf0.1
# figures in README.md, "Corpus shape"): 8 x 8 part-name words, 25 brands,
# six part types, uniform statuses and priorities
_ADJ = ["blue", "cold", "hot", "large", "new", "old", "red", "small"]
_NOUN = ["anvil", "bolt", "gear", "gizmo", "plate", "ring", "rod", "widget"]
_TYPE = ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"]
_STATUS = ["F", "O", "P"]
_PRIO = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_SEGMENT = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_EPOCH = np.datetime64("1995-01-01", "us")
# customer, supplier and part row counts of an sf0.1 corpus: the orders
# are a sample, the dimension tables are whole.  Small dimension tables
# would let two tool turns of one conversation resolve to the same part
# and supplier at the same line number, putting HNDQ on the KG path.
_DIMENSIONS = (15_000, 1_000, 20_000)
_DAY_US = 86_400_000_000


def corpus_name(seed: int, n_orders: int) -> str:
    """Directory basename: seed and size in the name, because the
    program's transcript caches are keyed on the basename alone."""
    return f"kg_s{seed}_n{n_orders}"


def _write(table: pa.Table, path: str) -> None:
    pq.write_table(table, path, compression="snappy")


def write_sf_corpus(root: str, seed: int, n_orders: int) -> str:
    """Write the sf-style corpus for ``(seed, n_orders)`` under ``root``
    and return its directory.  Byte-identical for equal arguments."""
    rng = np.random.default_rng(seed)
    out = os.path.join(root, corpus_name(seed, n_orders))
    tmp = out + ".tmp"
    os.makedirs(tmp, exist_ok=True)

    n_cust, n_supp, n_part = _DIMENSIONS

    _write(
        pa.table(
            {
                "r_regionkey": pa.array(range(5), pa.int32()),
                "r_name": ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"],
            }
        ),
        os.path.join(tmp, "region.parquet"),
    )
    _write(
        pa.table(
            {
                "n_nationkey": pa.array(range(25), pa.int32()),
                "n_name": [f"NATION_{i}" for i in range(25)],
                "n_regionkey": pa.array([i % 5 for i in range(25)], pa.int32()),
            }
        ),
        os.path.join(tmp, "nation.parquet"),
    )
    _write(
        pa.table(
            {
                "c_custkey": pa.array(np.arange(n_cust), pa.int64()),
                "c_name": [f"Customer#{k:09d}" for k in range(n_cust)],
                "c_nationkey": pa.array(rng.integers(0, 25, n_cust), pa.int32()),
                "c_acctbal": np.round(rng.uniform(-999, 9999, n_cust), 2),
                "c_mktsegment": [_SEGMENT[i] for i in rng.integers(0, 5, n_cust)],
            }
        ),
        os.path.join(tmp, "customer.parquet"),
    )
    _write(
        pa.table(
            {
                "s_suppkey": pa.array(np.arange(n_supp), pa.int64()),
                "s_name": [f"Supplier#{k:09d}" for k in range(n_supp)],
                "s_nationkey": pa.array(rng.integers(0, 25, n_supp), pa.int32()),
                "s_acctbal": np.round(rng.uniform(-999, 9999, n_supp), 2),
            }
        ),
        os.path.join(tmp, "supplier.parquet"),
    )
    # part names repeat on purpose (64 names, 25 brands): the linker's
    # min-partkey tie-break and link scores see real ambiguity
    adj = rng.integers(0, len(_ADJ), n_part)
    noun = rng.integers(0, len(_NOUN), n_part)
    _write(
        pa.table(
            {
                "p_partkey": pa.array(np.arange(n_part), pa.int64()),
                "p_name": [f"{_ADJ[a]} {_NOUN[b]}" for a, b in zip(adj, noun)],
                "p_brand": [f"Brand#{b}" for b in rng.integers(1, 26, n_part)],
                "p_type": [_TYPE[i] for i in rng.integers(0, len(_TYPE), n_part)],
                "p_size": pa.array(rng.integers(1, 51, n_part), pa.int32()),
                "p_retailprice": np.round(900 + (np.arange(n_part) % 1000) * 0.1, 2),
            }
        ),
        os.path.join(tmp, "part.parquet"),
    )

    # order keys: a seed-sampled subset of a 50x wider key space (as a
    # 3000-order sample of sf0.1's 150000 keys), so two seeds share few
    # conversation ids
    okeys = np.sort(rng.choice(50 * n_orders, n_orders, replace=False))
    odays = rng.integers(0, 2400, n_orders)
    _write(
        pa.table(
            {
                "o_orderkey": pa.array(okeys, pa.int64()),
                "o_custkey": pa.array(rng.integers(0, n_cust, n_orders), pa.int64()),
                "o_orderstatus": [_STATUS[i] for i in rng.integers(0, 3, n_orders)],
                "o_totalprice": np.round(rng.uniform(1000, 500000, n_orders), 2),
                "o_orderdate": pa.array(_EPOCH + odays * _DAY_US, pa.timestamp("us")),
                "o_orderpriority": [_PRIO[i] for i in rng.integers(0, 5, n_orders)],
            }
        ),
        os.path.join(tmp, "orders.parquet"),
    )

    # lineitems per order ~ Poisson(4) (about 1.8% of orders have none);
    # line numbers 1..7 drawn independently, so (order, line) ties occur
    # like in the source data — parallel tool calls in a transcript
    per = rng.poisson(4.0, n_orders)
    n_li = int(per.sum())
    # lineitem rows in random order, as in the source table: an order's
    # tool turns are scattered through the transcript file
    l_okey = rng.permutation(np.repeat(okeys, per))
    l_days = rng.integers(1, 2500, n_li)
    qty = rng.integers(1, 51, n_li).astype(np.float64)
    _write(
        pa.table(
            {
                "l_orderkey": pa.array(l_okey, pa.int64()),
                "l_partkey": pa.array(rng.integers(0, n_part, n_li), pa.int64()),
                "l_suppkey": pa.array(rng.integers(0, n_supp, n_li), pa.int64()),
                "l_linenumber": pa.array(rng.integers(1, 8, n_li), pa.int32()),
                "l_quantity": qty,
                "l_extendedprice": np.round(rng.uniform(900, 105000, n_li), 2),
                "l_discount": np.round(rng.integers(0, 11, n_li) / 100, 2),
                "l_tax": np.round(rng.integers(0, 9, n_li) / 100, 2),
                "l_returnflag": [("A", "N", "R")[i] for i in rng.integers(0, 3, n_li)],
                "l_linestatus": [("F", "O")[i] for i in rng.integers(0, 2, n_li)],
                "l_shipdate": pa.array(_EPOCH + l_days * _DAY_US, pa.timestamp("us")),
            }
        ),
        os.path.join(tmp, "lineitem.parquet"),
    )
    if os.path.isdir(out):
        import shutil

        shutil.rmtree(out)
    os.rename(tmp, out)
    return out

