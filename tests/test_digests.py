"""Exact-digest unit tests pinning internal operators to the reference's
hex values (`/root/reference/src/canon.rs:1165-1426`) — catches
serialization/escaping drift before it reaches the conformance suite."""

import pytest

from rdf_canon_ray.core.canon import (
    HndqCallCounter,
    IdentifierIssuer,
    _State,
    issue,
)
from rdf_canon_ray.core.terms import BNODE, IRI, make_quad

P = "http://example.com/#p"
Q = "http://example.com/#q"
R = "http://example.com/#r"
S = "http://example.com/#s"
T = "http://example.com/#t"
U = "http://example.com/#u"


def bq(s_kind, s, p, o_kind, o):
    return make_quad(s_kind, s, p, o_kind, o)


def test_issue_identifier():
    iss = IdentifierIssuer("c14n")
    assert iss.issue("b0") == "c14n0"
    assert iss.issue("b1") == "c14n1"
    assert iss.issue("b99") == "c14n2"
    assert iss.issue("xyz") == "c14n3"
    assert iss.issue("xyz") == "c14n3"
    assert iss.issue("b99") == "c14n2"
    assert iss.issue("b1") == "c14n1"
    assert iss.issue("b0") == "c14n0"


def test_h1dq_unique_hashes():
    quads = [
        bq(IRI, P, Q, BNODE, "e0"),
        bq(IRI, P, R, BNODE, "e1"),
        bq(BNODE, "e0", S, IRI, U),
        bq(BNODE, "e1", T, IRI, U),
    ]
    st = _State(quads, "sha256")
    assert (
        st.hash_first_degree_quads("e0")
        == "21d1dd5ba21f3dee9d76c0c00c260fa6f5d5d65315099e553026f4828d0dc77a"
    )
    assert (
        st.hash_first_degree_quads("e1")
        == "6fa0b9bdb376852b5743ff39ca4cbf7ea14d34966b2828478fbf222e7c764473"
    )


_SHARED = [
    bq(IRI, P, Q, BNODE, "e0"),
    bq(IRI, P, Q, BNODE, "e1"),
    bq(BNODE, "e0", P, BNODE, "e2"),
    bq(BNODE, "e1", P, BNODE, "e3"),
    bq(BNODE, "e2", R, BNODE, "e3"),
]


def test_h1dq_shared_hashes():
    st = _State(_SHARED, "sha256")
    shared = "3b26142829b8887d011d779079a243bd61ab53c3990d550320a17b59ade6ba36"
    assert st.hash_first_degree_quads("e0") == shared
    assert st.hash_first_degree_quads("e1") == shared
    assert (
        st.hash_first_degree_quads("e2")
        == "15973d39de079913dac841ac4fa8c4781c0febfba5e83e5c6e250869587f8659"
    )
    assert (
        st.hash_first_degree_quads("e3")
        == "7e790a99273eed1dc57e43205d37ce232252c85b26ca4a6ff74ff3b5aea7bccd"
    )


def test_hash_related_blank_node():
    st = _State([], "sha256")
    st.canonical_issuer.issued["e2"] = "c14n0"
    got = st.hash_related_blank_node("e2", P, IdentifierIssuer("b"), "o")
    assert got == "29cf7e22790bc2ed395b81b3933e5329fc7b25390486085cac31ce7252ca60fa"


def test_hash_n_degree_quads():
    st = _State(_SHARED, "sha256")
    hash_to_bnodes = {}
    for n in sorted(st.mention_map):
        hash_to_bnodes.setdefault(st.hash_first_degree_quads(n), []).append(n)
    for h in sorted(hash_to_bnodes):
        ids = hash_to_bnodes[h]
        if len(ids) == 1:
            st.canonical_issuer.issue(ids[0])
    shared_groups = {h: ids for h, ids in hash_to_bnodes.items() if len(ids) > 1}
    results = []
    for h in sorted(shared_groups):
        for n in shared_groups[h]:
            if st.canonical_issuer.get(n) is not None:
                continue
            temp = IdentifierIssuer("b")
            temp.issue(n)
            results.append(st.hash_n_degree_quads(n, temp, HndqCallCounter()))
    results.sort(key=lambda r: r[0])
    assert results[0][0] == "2c0b377baf86f6c18fed4b0df6741290066e73c932861749b172d1e5560f5045"
    assert results[1][0] == "fbc300de5afafd97a4b9ee1e72b57754dcdcb7ebb724789ac6a94a5b82a48d30"


def test_issue_end_to_end_shared():
    mapping = issue(_SHARED)
    assert set(mapping.values()) == {"c14n0", "c14n1", "c14n2", "c14n3"}


def test_graph_api_wrappers():
    """Triples-only API parity (`src/api.rs:91-94,367-370,911-915`)."""
    from rdf_canon_ray.core.canon import (
        canonicalize_graph,
        issue_graph,
        relabel_graph,
        serialize_graph,
        sort_graph,
    )

    triples = [
        bq(BNODE, "x", P, BNODE, "y"),
        bq(BNODE, "y", Q, IRI, U),
    ]
    m = issue_graph(triples)
    assert set(m.values()) == {"c14n0", "c14n1"}
    doc = canonicalize_graph(triples)
    assert doc.endswith(" .\n") and "_:c14n0" in doc
    rel = relabel_graph(triples, m)
    assert {t[1] for t in rel} == set(m.values()) - {m["y"]} | {m["x"], m["y"]}
    assert serialize_graph(sort_graph(rel)) == doc


def test_per_node_counter():
    from rdf_canon_ray.core.canon import (
        HndqCallLimitExceeded,
        PerNodeHndqCallCounter,
    )

    c = PerNodeHndqCallCounter(limit=2)
    c.add_node("a"); c.add_node("a"); c.add_node("b")
    with pytest.raises(HndqCallLimitExceeded):
        c.add_node("a")


def test_canonicalization_trace():
    """Structured trace covers the spec log points (engine analogue of
    the reference's YAML debug logger, src/logger.rs)."""
    from rdf_canon_ray.core.canon import issue
    from rdf_canon_ray.core.trace import CanonTrace

    tr = CanonTrace()
    mapping = issue(_SHARED, trace=tr)
    assert tr.final_map == mapping
    assert set(tr.mention_map) == {"e0", "e1", "e2", "e3"}
    assert len(tr.h1dq) == 4
    assert len(tr.unique_assignments) == 2  # e2, e3 unique hashes
    assert len(tr.shared_groups) == 1      # e0/e1 share a hash
    g = tr.shared_groups[0]
    assert g["identifier list"] == ["e0", "e1"]
    assert len(g["ca.5.2"]) == 2
    yaml_text = tr.to_yaml()
    assert "ca.2:" in yaml_text and "Hash First Degree Quads" in yaml_text
    assert "issued identifiers map" in yaml_text


def test_golden_trace_parity_with_reference_logs():
    """Semantic parity with the reference's four golden YAML traces
    (tests/rdfc10_supplement/*.log.yml, produced by src/logger.rs).
    Asserted per trace: every per-bnode H1DQ hash and nquads SET, every
    HNDQ group hash, and the final issued-identifiers map.  (Byte
    parity of list ORDER is out of scope: the reference's lines follow
    oxrdf's internal index order, which its own suite never asserts.)"""
    import os

    import yaml

    from rdf_canon_ray.core import nquads
    from rdf_canon_ray.core.canon import issue
    from rdf_canon_ray.core.trace import CanonTrace

    root = "/root/reference/tests"
    sup = os.path.join(root, "rdfc10_supplement")
    if not os.path.isdir(sup):
        pytest.fail(f"reference checkout missing: {sup} does not exist")
    checked = 0
    for name in sorted(os.listdir(sup)):
        case = name.split(".")[0]  # test024
        with open(os.path.join(sup, name)) as f:
            golden = yaml.safe_load(f)["ca"]
        quads = nquads.parse_file(os.path.join(root, "rdfc10", f"{case}-in.nq"))
        tr = CanonTrace()
        mapping = issue(quads, trace=tr)
        # ca.6 — final issued identifiers map, exact
        assert golden["ca.6"]["issued identifiers map"] == mapping, case
        # ca.2 — bnode → mention quad SET per identifier
        gold_mm = {
            k: sorted(v) for k, v in golden["ca.2"]["Bnode to quads"].items()
        }
        ours_mm = {k: sorted(v) for k, v in tr.mention_map.items()}
        assert gold_mm == ours_mm, case
        # ca.3 — per-identifier H1DQ hash + nquads set
        gold_h1 = {
            e["identifier"]: (e["h1dq"]["hash"], sorted(e["h1dq"]["nquads"]))
            for e in golden["ca.3"]["with"]
        }
        ours_h1 = {
            e["identifier"]: (e["h1dq"]["hash"], sorted(e["h1dq"]["nquads"]))
            for e in tr.h1dq
        }
        assert gold_h1 == ours_h1, case
        # ca.5 — shared-hash groups: per-group identifier list + the
        # top-level HNDQ result hashes (golden: hndq.6/hash per entry)
        # golden entries without "hndq" are identifiers that were already
        # canonically issued when their turn came (spec 5.2 skip) — our
        # trace records only the ones that actually ran HNDQ
        gold_groups = {
            g["hash"]: (
                sorted(g["identifier list"]),
                sorted(
                    e["hndq"]["hndq.6"]["hash"]
                    for e in g["ca.5.2"]["with"]
                    if "hndq" in e
                ),
            )
            for g in (golden["ca.5"].get("with") or [])
        }
        ours_groups = {
            g["hash"]: (
                sorted(g["identifier list"]),
                sorted(r["hndq hash"] for r in g["ca.5.2"]),
            )
            for g in tr.shared_groups
        }
        assert gold_groups == ours_groups, case
        checked += 1
    assert checked == 4
