"""Ray-free differential pins of the Arrow quads kernel.

* The flagship kernel call: the columnar path
  (``EntityLinker._quads_arrow`` → ``structure_quads`` → Arrow-rendered
  templates → ``canonicalize_templates`` per graph) must give the same
  ``_GRAPH_SCHEMA`` rows, all seven columns, as the 9-tuple path
  (``EntityLinker.__call__`` → ``iter_graph_tuples`` →
  ``add_structure_quads`` → ``canonicalize_quads_with_map``).
* The generic kernel (``canonicalize_quads``) on the rendering the
  flagship never exercises: IRI, blank-node and default graph names,
  language-tagged, typed and ``xsd:string`` literals, control and
  astral characters, and duplicate quads."""

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from rdf_canon_ray.core.canon import (
    HndqCallLimitExceeded,
    canonicalize_quads_with_map,
    issue,
)
from rdf_canon_ray.core.terms import BNODE, DEFAULT, IRI, LITERAL, XSD_STRING, make_quad
from rdf_canon_ray.core.trace import CanonTrace
from rdf_canon_ray.stages.canonicalize import (
    _GRAPH_SCHEMA,
    add_structure_quads,
    canonicalize_bucket,
    canonicalize_quads,
    canonicalize_transcripts,
    iter_graph_tuples,
)
from rdf_canon_ray.transcripts.extract import (
    MENTION_COLS,
    XSD_INT,
    EntityLinker,
    build_link_maps,
    extract_mentions_batch,
    quads_table,
)


@pytest.fixture(scope="module")
def maps(tmp_path_factory):
    d = tmp_path_factory.mktemp("dims")
    pd.DataFrame({"c_custkey": [1, 2], "c_name": ["Customer#1", "Customer#2"]}).to_parquet(
        d / "customer.parquet"
    )
    pd.DataFrame(
        {"p_partkey": [7, 3, 5], "p_name": ["Bolt", "Bolt", "Nut"], "p_brand": ["B1", "B1", "B1"]}
    ).to_parquet(d / "part.parquet")
    pd.DataFrame({"s_suppkey": [11, 12], "s_name": ["Supp#1", "Supp#2"]}).to_parquet(
        d / "supplier.parquet"
    )
    return build_link_maps(str(d))


PRIORITY = 'say "hi" \\ then\x01bell'


def _mentions() -> pd.DataFrame:
    rows = [
        # conv-9 first: blocks are not sorted by conversation
        ("conv-9", 1, "t1-c", "assistant", "order_status", "9", "O", PRIORITY, ""),
        ("conv-1", 0, "t0-a", "user", "order_open", "Customer#1", "1", "", ""),
        ("conv-9", 0, "t0-c", "user", "order_open", "Customer#2", "9", "", ""),
        ("conv-1", 1, "t1-a", "assistant", "order_status", "1", "F", "1-URGENT", ""),
        # a duplicate turn (same label): one turn node
        ("conv-1", 1, "t1-a", "assistant", "order_status", "1", "F", "1-URGENT", ""),
        # tied turn_idx: two turns at idx 2, ordered by label
        ("conv-1", 2, "t2-b", "tool", "item", "Bolt", "B1", "Supp#1", "4"),
        ("conv-1", 2, "t2-a", "tool", "item", "Nut", "B1", "Supp#404", "1"),
        # unresolved customer, part and supplier
        ("conv-5", 0, "t0-d", "user", "order_open", "Customer#999", "5", "", ""),
        ("conv-5", 2, "t2-d", "tool", "item", "Gear", "B9", "Supp#9", "2"),
        ("conv-9", 3, "t3-c", "tool", "item", "Bolt", "B1", "Supp#2", "7"),
    ]
    df = pd.DataFrame(rows, columns=MENTION_COLS)
    df["turn_idx"] = df["turn_idx"].astype(np.int32)
    return df


def _pre_resolved(maps) -> pd.DataFrame:
    """The same mentions as ``resolve_mentions_partitioned`` emits them:
    float key columns, NaN = unresolved."""
    df = _mentions()
    linker = EntityLinker(maps)
    for col in ("cust_key", "part_key", "part_cnt", "supp_key"):
        keys = linker.resolve(df, col).to_pandas()
        df[col] = keys.astype(np.float64).where(df["mtype"].isin(
            ["order_open"] if col == "cust_key" else ["item"]), np.nan)
    return df


def _hndq_conversation() -> pd.DataFrame:
    """Two tool turns at the same idx with equal part and supplier, in
    mid-chain: their first-degree hashes are equal."""
    rows = [
        ("conv-7", 0, "t0-h", "user", "order_open", "Customer#1", "7", "", ""),
        ("conv-7", 1, "t1-h", "tool", "item", "Bolt", "B1", "Supp#1", "1"),
        ("conv-7", 1, "t1-i", "tool", "item", "Bolt", "B1", "Supp#1", "2"),
        ("conv-7", 2, "t2-h", "assistant", "order_status", "7", "F", "2-HIGH", ""),
    ]
    df = pd.DataFrame(rows, columns=MENTION_COLS)
    df["turn_idx"] = df["turn_idx"].astype(np.int32)
    return df


def _legacy(mentions: pd.DataFrame, maps, limit=None) -> list:
    """The 9-tuple path, one row per graph."""
    rows = []
    for gid, quads in iter_graph_tuples(EntityLinker(maps)(mentions)):
        quads = add_structure_quads(quads, gid)
        bnodes = {v for q in quads for k, v in ((q[0], q[1]), (q[3], q[4]), (q[7], q[8])) if k == BNODE}
        try:
            doc, labels = canonicalize_quads_with_map(quads, hndq_call_limit=limit)
            status, err = "ok", ""
        except HndqCallLimitExceeded as e:
            doc, labels, status, err = "", {}, "quarantined", str(e)
        rows.append({
            "graph_id": gid, "canon_nquads": doc,
            "label_map": json.dumps(labels, sort_keys=True),
            "n_quads": len(quads), "n_bnodes": len(bnodes),
            "status": status, "error": err,
        })
    return rows


def _new(mentions, maps, limit=None) -> list:
    out = canonicalize_bucket(pa.Table.from_pandas(mentions, preserve_index=False), maps,
                              hndq_call_limit=limit)
    assert out.schema == _GRAPH_SCHEMA
    return out.to_pylist()


@pytest.mark.parametrize("resolution", ["maps", "pre_resolved"])
def test_columnar_path_matches_tuple_path(maps, resolution):
    mentions = _mentions() if resolution == "maps" else _pre_resolved(maps)
    link_maps = maps if resolution == "maps" else {}
    got = _new(mentions, link_maps)
    assert got == _legacy(mentions, link_maps)
    assert [r["graph_id"] for r in got] == ["conv-1", "conv-5", "conv-9"]
    assert {r["status"] for r in got} == {"ok"}
    # the escaped priority literal, rendered once by term_to_string
    assert '"say \\"hi\\" \\\\ then\\u0001bell"' in got[2]["canon_nquads"]


def test_hndq_conversation_and_quarantine(maps):
    mentions = pd.concat([_mentions(), _hndq_conversation()], ignore_index=True)
    quads = dict(iter_graph_tuples(EntityLinker(maps)(mentions)))["conv-7"]
    trace = CanonTrace()
    issue(add_structure_quads(quads, "conv-7"), trace=trace)
    assert [sorted(g["identifier list"]) for g in trace.shared_groups] == [["t1-h", "t1-i"]]

    assert _new(mentions, maps) == _legacy(mentions, maps)
    got = _new(mentions, maps, limit=0)
    assert got == _legacy(mentions, maps, limit=0)
    status = {r["graph_id"]: r["status"] for r in got}
    assert status == {"conv-1": "ok", "conv-5": "ok", "conv-7": "quarantined", "conv-9": "ok"}
    quarantined = next(r for r in got if r["graph_id"] == "conv-7")
    assert quarantined["n_bnodes"] == 5 and quarantined["n_quads"] > 0


def test_empty_block(maps):
    empty = _mentions().iloc[:0]
    assert _new(empty, maps) == _legacy(empty, maps) == []


def test_transcripts_match_tuple_path(maps):
    text = {
        "user": "Hello, I am Customer#1. Please review order ord-{k} from 1995-01-02.",
        "assistant": "Order ord-{k} is F at priority 1-URGENT with total 12.50.",
        "tool": 'item 1: part "Bolt" brand B1 from supplier "Supp#1" qty {q}',
    }
    rows = []
    for k in (3, 1, 2):
        for idx, role in enumerate(("user", "assistant", "tool", "tool")):
            rows.append((f"conv-{k}", idx, role, text[role].format(k=k, q=idx)))
    rows.append(("conv-1", 5, "assistant", "no mention here"))
    df = pd.DataFrame(rows, columns=["conv_id", "turn_idx", "role", "text"])
    df["turn_idx"] = df["turn_idx"].astype(np.int32)
    got = canonicalize_transcripts(pa.Table.from_pandas(df, preserve_index=False), maps)
    assert got.to_pylist() == _legacy(extract_mentions_batch(df), maps)
    assert got.num_rows == 3


TORTURE = 'tab\there "q" back\\slash nl\n ctrl\x01\x1f\x7f astral \U0001F680\U0001D11E'


def _datasets() -> dict:
    """Per ``graph_id`` the quads of one dataset."""
    return {
        "default": [
            make_quad(BNODE, "a", "urn:p", BNODE, "b"),
            make_quad(BNODE, "b", "urn:p", BNODE, "a"),
            make_quad(BNODE, "a", "urn:label", LITERAL, "zero", "", "en"),
            make_quad(BNODE, "a", "urn:label", LITERAL, "zero", "", "en"),
            make_quad(BNODE, "a", "urn:label", LITERAL, "zero", "", "en-GB"),
            make_quad(BNODE, "b", "urn:text", LITERAL, TORTURE),
            make_quad(BNODE, "b", "urn:text", LITERAL, TORTURE, XSD_STRING),
        ],
        "iri_graphs": [
            make_quad(BNODE, "e0", "urn:next", BNODE, "e1", "", "", IRI, "urn:g1"),
            make_quad(BNODE, "e1", "urn:size", LITERAL, "2", XSD_INT, "", IRI, "urn:g1"),
            make_quad(BNODE, "e1", "urn:size", LITERAL, "2", "", "", IRI, "urn:g1"),
            make_quad(BNODE, "e0", "urn:text", LITERAL, TORTURE, "", "de-CH", IRI, "urn:g2"),
            make_quad(IRI, "urn:s", "urn:size", LITERAL, "2", XSD_INT, "", IRI, "urn:g2"),
            make_quad(IRI, "urn:s", "urn:size", LITERAL, "2", XSD_INT, "", IRI, "urn:g2"),
        ],
        "bnode_graphs": [
            make_quad(BNODE, "x", "urn:p", IRI, "urn:o", "", "", BNODE, "g"),
            make_quad(BNODE, "x", "urn:p", BNODE, "y", "", "", BNODE, "g"),
            make_quad(BNODE, "x", "urn:p", BNODE, "y", "", "", BNODE, "g"),
            make_quad(BNODE, "y", "urn:p", BNODE, "x", "", "", BNODE, "h"),
            # an IRI graph name and a literal spelled like a bnode label
            make_quad(BNODE, "x", "urn:p", IRI, "urn:o", "", "", IRI, "g"),
            make_quad(BNODE, "y", "urn:q", LITERAL, "g", "", "", DEFAULT, ""),
        ],
    }


@pytest.mark.parametrize("hash_name", ["sha256", "sha384"])
def test_quads_kernel_matches_tuple_adapter(hash_name):
    datasets = _datasets()
    # rows interleaved across graphs: the kernel sorts them stably
    pairs = [
        (gid, quads[i])
        for i in range(max(map(len, datasets.values())))
        for gid, quads in reversed(datasets.items())
        if i < len(quads)
    ]
    got = canonicalize_quads(quads_table(pairs), hash_name)
    assert got.schema == _GRAPH_SCHEMA
    rows = got.to_pylist()
    assert [r["graph_id"] for r in rows] == sorted(datasets)
    for row in rows:
        quads = datasets[row["graph_id"]]
        doc, labels = canonicalize_quads_with_map(quads, hash_name)
        bnodes = {v for q in quads for k, v in ((q[0], q[1]), (q[3], q[4]), (q[7], q[8]))
                  if k == BNODE}
        assert row == {
            "graph_id": row["graph_id"], "canon_nquads": doc,
            "label_map": json.dumps(labels, sort_keys=True),
            "n_quads": len(quads), "n_bnodes": len(bnodes),
            "status": "ok", "error": "",
        }
    docs = {r["graph_id"]: r["canon_nquads"] for r in rows}
    # duplicates and the xsd:string twin collapse; the rest is rendered
    assert docs["default"].count("\n") == 5 and "XMLSchema#string" not in docs["default"]
    assert '"zero"@en ' in docs["default"] and '"zero"@en-GB ' in docs["default"]
    assert '\\t' in docs["default"] and "\\u0001\\u001F\\u007F" in docs["default"]
    assert "\U0001F680\U0001D11E" in docs["default"]
    assert docs["iri_graphs"].count("\n") == 5 and '@de-CH <urn:g2> .' in docs["iri_graphs"]
    assert '"2"^^<http://www.w3.org/2001/XMLSchema#integer> <urn:g1> .' in docs["iri_graphs"]
    assert docs["bnode_graphs"].count("\n") == 5 and "<urn:o> <g> ." in docs["bnode_graphs"]
