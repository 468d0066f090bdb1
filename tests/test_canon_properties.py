"""Ray-free properties of the RDFC-1.0 kernel (``core/canon.py``).

No fixture files: every input is built in code, so the suite runs on a
checkout without the W3C test files.  It pins what must hold for any
input — duplicate quads change nothing, the canonical document is a
fixed point, the label map is a bijection onto ``c14n0..k-1``, and
first-degree labelling follows the spec's hash order — plus one family
of HNDQ inputs: isomorphic bnode cycles and directed cliques on both
sides of the call limit.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdf_canon_ray.core import (
    BNODE,
    DEFAULT,
    IRI,
    LITERAL,
    HndqCallLimitExceeded,
    canonicalize,
    issue,
    make_quad,
    nquads,
)
from rdf_canon_ray.core.canon import canonicalize_quads_with_map
from rdf_canon_ray.core.terms import _LIT_ESCAPE, quad_to_string

HASHES = ["sha256", "sha384"]

# literal text drawn from every escape class of the serializer
# (ECHARs, \\uXXXX controls, DEL) plus plain ASCII and astral text
_ESCAPED = "".join(chr(c) for c in _LIT_ESCAPE)
_lex = st.text(alphabet=st.sampled_from(_ESCAPED + "ab é🚀"), max_size=6)


@st.composite
def _quad(draw, bnodes):
    b = st.sampled_from(bnodes)
    iri = st.sampled_from(["urn:x", "urn:y"])
    s = draw(st.one_of(b.map(lambda v: (BNODE, v)), iri.map(lambda v: (IRI, v))))
    p = draw(st.sampled_from(["urn:p", "urn:q"]))
    kind = draw(st.sampled_from([BNODE, IRI, LITERAL]))
    dt = lang = ""
    if kind == BNODE:
        o = draw(b)
    elif kind == IRI:
        o = draw(iri)
    else:
        o = draw(_lex)
        tag = draw(st.sampled_from(["", "lang", "dt"]))
        lang = "en" if tag == "lang" else ""
        dt = "urn:dt" if tag == "dt" else ""
    g = draw(
        st.sampled_from(
            [(DEFAULT, ""), (IRI, "urn:g"), (BNODE, bnodes[0])]
        )
    )
    return (s[0], s[1], p, kind, o, dt, lang, g[0], g[1])


@st.composite
def _dataset(draw, max_bnodes=5, max_quads=10):
    """A small dataset: up to ``max_bnodes`` blank nodes (small enough
    that any shared-hash group finishes under the call limit), IRIs,
    literals with datatypes and languages, default/IRI/bnode graphs."""
    n = draw(st.integers(1, max_bnodes))
    bnodes = [f"n{i}" for i in range(n)]
    return draw(st.lists(_quad(bnodes), min_size=1, max_size=max_quads))


def _bnodes(quads) -> set:
    out = set()
    for q in quads:
        out.update(v for k, v in ((q[0], q[1]), (q[3], q[4]), (q[7], q[8])) if k == BNODE)
    return out


@settings(max_examples=150, deadline=None)
@given(_dataset(), st.randoms(use_true_random=False))
def test_duplicate_quads_change_nothing(quads, rng):
    doc, labels = canonicalize_quads_with_map(quads)
    noisy = quads + [rng.choice(quads) for _ in range(rng.randint(1, len(quads)))]
    rng.shuffle(noisy)
    assert canonicalize_quads_with_map(noisy) == (doc, labels)


@settings(max_examples=150, deadline=None)
@given(_dataset(), st.sampled_from(HASHES))
def test_canonical_document_is_a_fixed_point(quads, hash_name):
    doc = canonicalize(quads, hash_name)
    assert canonicalize(nquads.parse(doc), hash_name) == doc


@pytest.mark.parametrize("hash_name", HASHES)
@settings(max_examples=150, deadline=None)
@given(quads=_dataset())
def test_label_map_is_a_bijection_onto_c14n(quads, hash_name):
    labels = issue(quads, hash_name)
    assert set(labels) == _bnodes(quads)
    assert sorted(labels.values()) == sorted(f"c14n{i}" for i in range(len(labels)))


def _h1dq(quads, n: str, hash_name: str) -> str:
    """Spec 4.6, written out independently of the kernel: each distinct
    quad, once per position in which it mentions ``n`` (the blank node
    to quads map of 4.4.3), with ``n`` as ``_:a`` and every other bnode
    as ``_:z``, serialized; the lines sorted, joined and hashed."""

    def ref(kind, v):
        return (kind, "a" if v == n else "z") if kind == BNODE else (kind, v)

    lines = []
    for q in set(quads):
        s, o, g = ref(q[0], q[1]), ref(q[3], q[4]), ref(q[7], q[8])
        line = quad_to_string((s[0], s[1], q[2], o[0], o[1], q[5], q[6], g[0], g[1]))
        mentions = sum(k == BNODE and v == n for k, v in ((q[0], q[1]), (q[3], q[4]), (q[7], q[8])))
        lines += [line + " .\n"] * mentions
    return hashlib.new(hash_name, "".join(sorted(lines)).encode()).hexdigest()


@pytest.mark.parametrize("hash_name", HASHES)
@settings(max_examples=150, deadline=None)
@given(quads=_dataset())
def test_unique_first_degree_hashes_issue_in_hash_order(quads, hash_name):
    """When every blank node's first-degree hash is unique, the labels
    follow the spec alone: ``c14n<i>`` goes to the node with the i-th
    smallest hash."""
    hashes = {n: _h1dq(quads, n, hash_name) for n in _bnodes(quads)}
    if len(set(hashes.values())) < len(hashes):
        return  # a shared hash: the N-degree step decides
    order = sorted(hashes, key=hashes.get)
    assert issue(quads, hash_name) == {n: f"c14n{i}" for i, n in enumerate(order)}


# --- one HNDQ family, built in code -------------------------------------
# Every node of a directed bnode cycle, and of a directed clique, has the
# same first-degree hash, so each one goes through Hash N-Degree Quads.


def _cycle(labels):
    n = len(labels)
    return [
        make_quad(BNODE, labels[i], "urn:rel:next", BNODE, labels[(i + 1) % n])
        for i in range(n)
    ]


def _clique(n: int):
    return [
        make_quad(BNODE, f"k{i}", "urn:rel:link", BNODE, f"k{j}")
        for i in range(n)
        for j in range(n)
        if i != j
    ]


@pytest.mark.parametrize("n", range(3, 9))
def test_relabelled_rotated_and_reversed_cycles_canonicalize_equal(n):
    base = canonicalize(_cycle([f"v{i}" for i in range(n)]))
    rng = random.Random(n)
    for r in range(n):
        # a twin under fresh labels (so label order is not walk order),
        # listed from node r, quads shuffled
        names = rng.sample([f"x{i}" for i in range(100)], n)
        twin = _cycle(names[r:] + names[:r])
        rng.shuffle(twin)
        assert canonicalize(twin) == base
        # the same cycle walked the other way round
        assert canonicalize(_cycle(names[::-1])) == base
    assert base.count("\n") == n


@pytest.mark.parametrize("n", [4, 5])
def test_small_cliques_finish_under_the_default_limit(n):
    doc, labels = canonicalize_quads_with_map(_clique(n))
    assert sorted(labels.values()) == sorted(f"c14n{i}" for i in range(n))
    assert doc.count("\n") == n * (n - 1)


@pytest.mark.parametrize("n", [7, 8])
def test_large_cliques_exceed_the_call_limit(n):
    with pytest.raises(HndqCallLimitExceeded):
        canonicalize(_clique(n))
