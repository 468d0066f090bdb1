"""Byte goldens of the RDFC-1.0 kernel on symmetric blank-node graphs.

Ray-free, and every input is built in code.  Symmetric graphs put many
blank nodes into one first-degree hash group, so their labels come from
Hash N-Degree Quads (4.8), the step the W3C suite covers and nothing
else on a checkout without that suite does:

* directed and undirected cycles of length 3-14 (at 11 or more nodes in
  one group the temporary labels reach ``b10``, where 4.4.3 step 5.3.1
  reads them in lexicographic, not numeric, order);
* the same cycles with a blank-node graph name per edge (the graph
  position of Hash Related Blank Node hashes no predicate);
* the cycles inside one blank-node graph;
* unions of two cycles, directed complete bipartite graphs K(a,b), and
  ladders.

Both entries to the kernel must match: the quad-tuple adapter
(``canonicalize_quads_with_map``) and the Arrow quads kernel
(``stages.canonicalize.canonicalize_quads``), which renders the same
templates columnar.

``GOLDEN`` holds, per graph and per hash function (sha256, sha384), the
first 16 hex digits of the sha256 of the canonical document followed by
its label map (JSON, sorted keys).  It was generated from the kernel
that passed the W3C suite (86/86) and the reference's golden traces, so
these tests pin that the kernel does not drift from it; they cannot
prove conformance on their own.
"""

import hashlib
import json

import pytest

from rdf_canon_ray.core import BNODE, make_quad
from rdf_canon_ray.core.canon import canonicalize_quads_with_map
from rdf_canon_ray.stages.canonicalize import canonicalize_quads
from rdf_canon_ray.transcripts.extract import quads_table

NEXT = "urn:p:next"
RUNG = "urn:p:rung"
LINK = "urn:p:link"


def _names(prefix: str, n: int):
    # a label order that differs from walk order
    return [f"{prefix}{(i * 5) % n}" if n % 5 else f"{prefix}{i}" for i in range(n)]


def _edges(pairs, pred=NEXT, graph=None):
    return [
        make_quad(BNODE, a, pred, BNODE, b, "", "", *((BNODE, graph(i)) if graph else ()))
        for i, (a, b) in enumerate(pairs)
    ]


def _ring(labels):
    n = len(labels)
    return [(labels[i], labels[(i + 1) % n]) for i in range(n)]


def _corpus() -> dict:
    graphs = {}
    for n in range(3, 15):
        ring = _ring(_names("v", n))
        graphs[f"cycle_directed_{n}"] = _edges(ring)
        graphs[f"cycle_undirected_{n}"] = _edges(ring + [(b, a) for a, b in ring])
        graphs[f"cycle_edge_graphs_{n}"] = _edges(ring, graph=lambda i: f"e{i}")
        graphs[f"cycle_in_one_graph_{n}"] = _edges(ring, graph=lambda i: "g")
    for a, b in [(3, 3), (3, 4), (4, 4), (3, 5), (5, 5), (4, 6), (6, 6), (3, 7), (7, 7), (5, 8)]:
        graphs[f"two_cycles_{a}_{b}"] = _edges(_ring(_names("x", a)) + _ring(_names("y", b)))
    for a, b in [(1, 2), (2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (1, 5), (4, 4)]:
        graphs[f"bipartite_{a}_{b}"] = _edges(
            [(f"a{i}", f"b{j}") for i in range(a) for j in range(b)], LINK
        )
    for n in range(2, 8):
        top, bottom = _names("t", n), _names("u", n)
        rails = [(r[i], r[i + 1]) for r in (top, bottom) for i in range(n - 1)]
        graphs[f"ladder_{n}"] = _edges(rails) + _edges(zip(top, bottom), RUNG)
    return graphs


CORPUS = _corpus()
HASHES = ["sha256", "sha384"]


def _digest(quads, hash_name: str) -> str:
    doc, labels = canonicalize_quads_with_map(quads, hash_name=hash_name)
    blob = doc + json.dumps(labels, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _arrow_digest(quads, hash_name: str) -> str:
    """The same digest through the Arrow quads kernel every Ray path
    runs (``canonicalize_quads`` over a ``QUADS_SCHEMA`` table)."""
    (row,) = canonicalize_quads(quads_table(("g", q) for q in quads), hash_name).to_pylist()
    assert row["status"] == "ok" and row["n_quads"] == len(quads)
    blob = row["canon_nquads"] + row["label_map"]
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


GOLDEN = {
    "bipartite_1_2": ["f6317dc89b16291f", "f6317dc89b16291f"],
    "bipartite_1_5": ["6fb66a978481304a", "6fb66a978481304a"],
    "bipartite_2_2": ["72a01ce4397944ed", "72a01ce4397944ed"],
    "bipartite_2_3": ["bb07a4294b2dfa27", "bb07a4294b2dfa27"],
    "bipartite_2_4": ["d89a912bde40fef0", "d89a912bde40fef0"],
    "bipartite_3_3": ["d5197a87f86a3ba3", "a6a4785f4b7357b1"],
    "bipartite_3_4": ["19482046e89f41c7", "19482046e89f41c7"],
    "bipartite_4_4": ["ab675bfdae7ccdf2", "8717596e925f730e"],
    "cycle_directed_10": ["eb9f587c9e6d3fc6", "9686d723f5049bc4"],
    "cycle_directed_11": ["fbe914b476183dfa", "93d35d6cd8f3bcff"],
    "cycle_directed_12": ["ccf81a30e370101d", "904fe1dba5681b0d"],
    "cycle_directed_13": ["075e746de1b137b9", "54eecd8fbef2f0ba"],
    "cycle_directed_14": ["e27cd92b163f93c0", "acad1ba1df0a92b3"],
    "cycle_directed_3": ["13e4311311a63c60", "04bd31434cdbaed5"],
    "cycle_directed_4": ["37848cb241eca216", "9a06c8ddef4c46fc"],
    "cycle_directed_5": ["733cdd218572d763", "0e9b218566dac10e"],
    "cycle_directed_6": ["4862ae7e1bd0be66", "a4e860d5601b9288"],
    "cycle_directed_7": ["331bda138a0c8822", "41c45a6f7c8f82f0"],
    "cycle_directed_8": ["87a23f3d0b253bce", "770995e61b6ba65c"],
    "cycle_directed_9": ["9481c35d87759e01", "82820c387810106d"],
    "cycle_edge_graphs_10": ["6e3b8ecfe893575b", "50e83cdd9275198c"],
    "cycle_edge_graphs_11": ["28b4edd6645da957", "5453610de3f3615c"],
    "cycle_edge_graphs_12": ["b93dabaf9e8a117f", "4bda0ccad510f117"],
    "cycle_edge_graphs_13": ["15709672a29ea2ec", "d99b8b6b433a830d"],
    "cycle_edge_graphs_14": ["90f2abf2ec2c18b5", "f272b020d775f1a5"],
    "cycle_edge_graphs_3": ["6b6983299528f920", "eb0b12c39e00ec6f"],
    "cycle_edge_graphs_4": ["d15e7730bdb9d875", "02c3f3721a703ccd"],
    "cycle_edge_graphs_5": ["8586091f66ea01b0", "915c1a3a445a10fa"],
    "cycle_edge_graphs_6": ["78d00738bbe50689", "2b03b9635f4c4161"],
    "cycle_edge_graphs_7": ["04eb75e1aaacf717", "35103f1800c06e69"],
    "cycle_edge_graphs_8": ["18c6fcdb7b3231f4", "9c080b45ba6cebdd"],
    "cycle_edge_graphs_9": ["457f32babcbcfa6c", "bfa5d59180a20987"],
    "cycle_in_one_graph_10": ["b45482f332662186", "b45482f332662186"],
    "cycle_in_one_graph_11": ["c686eb9a5fdf8dc6", "c686eb9a5fdf8dc6"],
    "cycle_in_one_graph_12": ["e0371f6f36e90a90", "e0371f6f36e90a90"],
    "cycle_in_one_graph_13": ["837086a688fafaa5", "837086a688fafaa5"],
    "cycle_in_one_graph_14": ["dbbf11ca10be1f7e", "dbbf11ca10be1f7e"],
    "cycle_in_one_graph_3": ["14350f9304c7daee", "14350f9304c7daee"],
    "cycle_in_one_graph_4": ["231b67a15350165b", "231b67a15350165b"],
    "cycle_in_one_graph_5": ["c424eceb3aae66d1", "c424eceb3aae66d1"],
    "cycle_in_one_graph_6": ["d192b4eb351cd9db", "d192b4eb351cd9db"],
    "cycle_in_one_graph_7": ["a576222c840ce883", "a576222c840ce883"],
    "cycle_in_one_graph_8": ["04e6f9c3911932b5", "04e6f9c3911932b5"],
    "cycle_in_one_graph_9": ["66d04cdb88642fc2", "66d04cdb88642fc2"],
    "cycle_undirected_10": ["5c5398451f683025", "5c5398451f683025"],
    "cycle_undirected_11": ["b1dd5c75df4ff4a5", "b1dd5c75df4ff4a5"],
    "cycle_undirected_12": ["cb305fa7debc0317", "cb305fa7debc0317"],
    "cycle_undirected_13": ["ba5ab5d41f8866ef", "ba5ab5d41f8866ef"],
    "cycle_undirected_14": ["030284c8a5fce956", "030284c8a5fce956"],
    "cycle_undirected_3": ["3744ded3b48a42cc", "3744ded3b48a42cc"],
    "cycle_undirected_4": ["5736df42e2187272", "5736df42e2187272"],
    "cycle_undirected_5": ["19e83fc2110c9ee2", "19e83fc2110c9ee2"],
    "cycle_undirected_6": ["091a1a3ea8b54cab", "091a1a3ea8b54cab"],
    "cycle_undirected_7": ["19bb42f9e74ca6a6", "19bb42f9e74ca6a6"],
    "cycle_undirected_8": ["69db96fcc1f9a68c", "69db96fcc1f9a68c"],
    "cycle_undirected_9": ["b0ec774ddeed2be7", "b0ec774ddeed2be7"],
    "ladder_2": ["d2887297630ac41a", "8aff9c2ea920b72f"],
    "ladder_3": ["7657de4a9f6b6f1b", "4d2fae89993f4635"],
    "ladder_4": ["2472644dca7f65f1", "2803d0b6bf67cad4"],
    "ladder_5": ["7d004b1a68c540d6", "49edf99c12d94ed7"],
    "ladder_6": ["93b0b03c7721840e", "b371b5d67b053867"],
    "ladder_7": ["8d46e3a9b77772c7", "12b1c3e32e9400fd"],
    "two_cycles_3_3": ["5d13e0e68352e3fe", "5f0855505ab73ec7"],
    "two_cycles_3_4": ["f5253653eba9afd8", "1ce02a477db3f1e7"],
    "two_cycles_3_5": ["cb765482ad447c45", "c03f872179aae4b4"],
    "two_cycles_3_7": ["db8580dd8c5615b4", "44d1b20067da2569"],
    "two_cycles_4_4": ["26c05542dc1ffa67", "d989407d75332b3f"],
    "two_cycles_4_6": ["1591e1dafcac84eb", "83dcbe981dcdb2f6"],
    "two_cycles_5_5": ["8b105ae6a142e869", "4e02dba4c9354320"],
    "two_cycles_5_8": ["7fbf668bd34ac8eb", "fb3c7d52748aef3b"],
    "two_cycles_6_6": ["3c44adc4e9937dd0", "d08ebb9ab436ec74"],
    "two_cycles_7_7": ["19ffa9aa1a830553", "46f9d35793d6f4c1"],
}


def test_golden_covers_the_corpus():
    assert sorted(GOLDEN) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_canonical_document_and_labels_match_golden(name):
    got = [_digest(CORPUS[name], h) for h in HASHES]
    assert got == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_arrow_quads_kernel_matches_golden(name):
    got = [_arrow_digest(CORPUS[name], h) for h in HASHES]
    assert got == GOLDEN[name]
