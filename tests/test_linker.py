"""Ray-free unit tests of the entity resolver shared by every linker
emitter: broadcast lookup arrays and pre-resolved key columns must agree."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rdf_canon_ray.pipelines import kg
from rdf_canon_ray.stages.canonicalize import _GRAPH_SCHEMA, canonicalize_bucket
from rdf_canon_ray.transcripts.extract import (
    MENTION_COLS,
    QUAD_COLS,
    EntityLinker,
    build_link_maps,
)

O1, O2 = "urn:e:order:1", "urn:e:order:2"
CUST, PART, SUPP = "urn:e:cust:1", "urn:e:part:3", "urn:e:supp:11"
REL = "urn:rel:"


@pytest.fixture(scope="module")
def maps(tmp_path_factory):
    d = tmp_path_factory.mktemp("dims")
    pd.DataFrame({"c_custkey": [1, 2], "c_name": ["Customer#1", "Customer#2"]}).to_parquet(
        d / "customer.parquet"
    )
    # "Bolt|B1" is ambiguous: keys 7 and 3 → MIN = 3, candidate count 2
    pd.DataFrame(
        {
            "p_partkey": [7, 3, 5],
            "p_name": ["Bolt", "Bolt", "Nut"],
            "p_brand": ["B1", "B1", "B1"],
        }
    ).to_parquet(d / "part.parquet")
    pd.DataFrame({"s_suppkey": [11], "s_name": ["Supp#1"]}).to_parquet(
        d / "supplier.parquet"
    )
    return build_link_maps(str(d))


def _mentions() -> pd.DataFrame:
    # conv-1 resolves everything; conv-2's customer, part and supplier
    # are all unknown to the dimension tables
    rows = [
        ("conv-1", 0, "t0-a", "user", "order_open", "Customer#1", "1", "", ""),
        ("conv-1", 1, "t1-a", "assistant", "order_status", "1", "F", "1-URGENT", ""),
        ("conv-1", 2, "t2-a", "tool", "item", "Bolt", "B1", "Supp#1", "4"),
        ("conv-2", 0, "t0-b", "user", "order_open", "Customer#999", "2", "", ""),
        ("conv-2", 2, "t2-b", "tool", "item", "Gear", "B1", "Supp#404", "1"),
    ]
    df = pd.DataFrame(rows, columns=MENTION_COLS)
    df["turn_idx"] = df["turn_idx"].astype(np.int32)
    return df


def _pre_resolved() -> pd.DataFrame:
    # the shape resolve_mentions_partitioned emits: NaN = unresolved
    df = _mentions()
    df["cust_key"] = [1.0, np.nan, np.nan, np.nan, np.nan]
    df["part_key"] = [np.nan, np.nan, 3.0, np.nan, np.nan]
    df["part_cnt"] = [np.nan, np.nan, 2.0, np.nan, np.nan]
    df["supp_key"] = [np.nan, np.nan, 11.0, np.nan, np.nan]
    return df


@pytest.fixture(params=["maps", "pre_resolved"])
def linked(request, maps):
    """(linker, mentions frame): resolution through the broadcast maps,
    or through pre-resolved key columns with no maps at all."""
    if request.param == "maps":
        return EntityLinker(maps), _mentions()
    return EntityLinker({}), _pre_resolved()


def _arrow(df: pd.DataFrame) -> pa.Table:
    return pa.Table.from_pandas(df, preserve_index=False)


def test_resolve_min_key_and_nulls(linked):
    linker, df = linked
    item = df[df["mtype"] == "item"]
    assert linker.resolve(item, "part_key").to_pylist() == [3, None]
    assert linker.resolve(item, "part_cnt").to_pylist() == [2, None]
    assert linker.resolve(_arrow(item), "supp_key").to_pylist() == [11, None]
    opened = df[df["mtype"] == "order_open"]
    assert linker.resolve(_arrow(opened), "cust_key").to_pylist() == [1, None]


def test_quads_emit_only_resolved_entities(linked):
    linker, df = linked
    q = linker._quads(df)
    assert list(q.columns) == QUAD_COLS
    assert linker(df).equals(q)
    edges = {
        (g, p, o)
        for g, p, o in zip(q["graph_id"], q["p"], q["o"])
        if p in (REL + "placedBy", REL + "hasPart", REL + "suppliedBy")
    }
    assert edges == {
        ("conv-1", REL + "placedBy", CUST),
        ("conv-1", REL + "hasPart", PART),
        ("conv-1", REL + "suppliedBy", SUPP),
    }
    mentioned = q[q["p"] == REL + "mentions"]
    assert sorted(mentioned.loc[mentioned["graph_id"] == "conv-2", "o"]) == [O2, O2]
    assert sorted(mentioned.loc[mentioned["graph_id"] == "conv-1", "o"]) == sorted(
        [O1, O1, O1, CUST, PART, SUPP]
    )


def test_triples_emit_only_resolved_entities(linked):
    linker, df = linked
    t = linker._triples_arrow(_arrow(df)).to_pandas()
    assert set(map(tuple, t.to_numpy())) == {
        ("conv-1", O1, REL + "placedBy", CUST),
        ("conv-1", O1, REL + "status", "F"),
        ("conv-1", O1, REL + "priority", "1-URGENT"),
        ("conv-1", O1, REL + "hasPart", PART),
        ("conv-1", O1, REL + "suppliedBy", SUPP),
    }


def test_links_score_ambiguous_part(linked):
    linker, df = linked
    links = linker._links_arrow(_arrow(df)).to_pandas()
    assert sorted(map(tuple, links.to_numpy())) == [
        ("conv-1", "Bolt|B1", PART, 0.5),
        ("conv-1", "Customer#1", CUST, 1.0),
        ("conv-1", "Supp#1", SUPP, 1.0),
    ]


def test_mention_rows_emit_only_resolved_entities(linked):
    linker, df = linked
    m = linker._mention_rows_arrow(_arrow(df)).to_pandas()
    assert sorted(map(tuple, m.to_numpy())) == sorted(
        [("conv-1", O1)] * 3
        + [("conv-2", O2)] * 2
        + [("conv-1", CUST), ("conv-1", PART), ("conv-1", SUPP)]
    )


def test_zero_row_mentions(maps):
    linker = EntityLinker(maps)
    empty = _mentions().iloc[:0]
    q = linker(empty)
    assert len(q) == 0 and list(q.columns) == QUAD_COLS
    for emit in (linker._triples_arrow, linker._links_arrow, linker._mention_rows_arrow):
        assert emit(_arrow(empty)).num_rows == 0
    out = canonicalize_bucket(_arrow(empty), maps)
    assert out.num_rows == 0 and out.schema == _GRAPH_SCHEMA


def test_zero_row_part_file(maps, tmp_path):
    path = tmp_path / "data.parquet"
    schema = pa.schema(
        [("conv_id", pa.string()), ("turn_idx", pa.int32()),
         ("role", pa.string()), ("text", pa.string())]
    )
    pq.write_table(schema.empty_table(), path)
    process = kg._canonicalize_part_files(maps, "sha256", None)
    out = process(pd.DataFrame({"path": [str(path)]}))
    assert out.num_rows == 0 and out.schema == _GRAPH_SCHEMA
    assert process(pd.DataFrame({"path": []})).schema == _GRAPH_SCHEMA


def test_canonicalize_bucket_both_resolutions_agree(maps):
    a = canonicalize_bucket(_arrow(_mentions()), maps)
    b = canonicalize_bucket(_arrow(_pre_resolved()), {})
    assert a.schema == _GRAPH_SCHEMA and a.num_rows == 2
    assert a.equals(b)
    assert set(a["status"].to_pylist()) == {"ok"}
