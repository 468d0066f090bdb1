"""N-Quads parser/serializer unit + property tests."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from rdf_canon_ray.core import canonicalize, nquads
from rdf_canon_ray.core.terms import (
    BNODE,
    DEFAULT,
    IRI,
    LITERAL,
    make_quad,
    quad_to_line,
    term_to_string,
)


def test_parse_basic():
    q = nquads.parse_line('<urn:s> <urn:p> "x" .')
    assert q == (IRI, "urn:s", "urn:p", LITERAL, "x", "", "", DEFAULT, "")
    q = nquads.parse_line("_:a <urn:p> _:b <urn:g> .")
    assert q == (BNODE, "a", "urn:p", BNODE, "b", "", "", IRI, "urn:g")
    q = nquads.parse_line('<urn:s> <urn:p> "x"@en-US .')
    assert q[6] == "en-US"
    q = nquads.parse_line('<urn:s> <urn:p> "1"^^<urn:dt> _:g .')
    assert q[5] == "urn:dt" and q[7] == BNODE and q[8] == "g"


def test_unescape():
    assert nquads.unescape(r"a\tbA\U0001F303") == "a\tbA\U0001F303"
    assert nquads.unescape(r"\\n") == "\\n"


def test_escape_roundtrip_controls():
    lex = "".join(chr(c) for c in range(0x20)) + '\x7f"\\'
    line = quad_to_line(make_quad(IRI, "urn:s", "urn:p", LITERAL, lex))
    parsed = nquads.parse_line(line)
    assert parsed[4] == lex


def test_xsd_string_suppressed():
    t = term_to_string(
        LITERAL, "x", "http://www.w3.org/2001/XMLSchema#string", ""
    )
    assert t == '"x"'


def test_xsd_string_literal_is_the_simple_literal():
    """RDF 1.1: ``"a"^^xsd:string`` and ``"a"`` are one term, so the
    dataset holds one quad."""
    doc = (
        '_:x <urn:p> "a" .\n'
        '_:x <urn:p> "a"^^<http://www.w3.org/2001/XMLSchema#string> .\n'
    )
    quads = nquads.parse(doc)
    assert quads[0] == quads[1]
    assert canonicalize(quads) == '_:c14n0 <urn:p> "a" .\n'


_lit = st.text(
    alphabet=st.characters(max_codepoint=0x2FFFF, exclude_categories=("Cs",)),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(_lit)
def test_literal_roundtrip(lex):
    line = quad_to_line(make_quad(IRI, "urn:s", "urn:p", LITERAL, lex))
    assert nquads.parse_line(line)[4] == lex


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False))
def test_canonicalize_invariant_under_relabel_and_shuffle(rng):
    """Canonical output is invariant under bnode renaming + quad order."""
    quads = [
        make_quad(BNODE, "x0", "urn:p", BNODE, "x1"),
        make_quad(BNODE, "x1", "urn:p", BNODE, "x2"),
        make_quad(BNODE, "x2", "urn:q", BNODE, "x0"),
        make_quad(BNODE, "x0", "urn:q", LITERAL, "v"),
        make_quad(IRI, "urn:s", "urn:r", BNODE, "x2", "", "", BNODE, "x1"),
    ]
    base = canonicalize(quads)
    names = ["x0", "x1", "x2"]
    renamed = names[:]
    rng.shuffle(renamed)
    ren = dict(zip(names, renamed))

    def rn(q):
        s_kind, s, p, o_kind, o, dt, lang, g_kind, g = q
        return (
            s_kind,
            ren.get(s, s) if s_kind == BNODE else s,
            p,
            o_kind,
            ren.get(o, o) if o_kind == BNODE else o,
            dt,
            lang,
            g_kind,
            ren.get(g, g) if g_kind == BNODE else g,
        )

    shuffled = [rn(q) for q in quads]
    rng.shuffle(shuffled)
    assert canonicalize(shuffled) == base


def test_crlf_and_cr_line_endings():
    """CRLF / bare-CR files are legal per the W3C EOL production."""
    from rdf_canon_ray.core import nquads

    q = nquads.parse("<urn:s> <urn:p> <urn:o> .\r\n")
    assert len(q) == 1 and q[0][1] == "urn:s"
    q2 = nquads.parse("<urn:s> <urn:p> <urn:o> .\r<urn:a> <urn:b> <urn:c> .")
    assert len(q2) == 2
    assert nquads.parse_line("<urn:s> <urn:p> <urn:o> .\r")[2] == "urn:p"


def test_n_bnodes_counts_graph_name_bnodes():
    from rdf_canon_ray.core.terms import BNODE, IRI, LITERAL
    from rdf_canon_ray.stages.canonicalize import canonicalize_quads
    from rdf_canon_ray.transcripts.extract import quads_table

    quads = [
        (BNODE, "b0", "urn:p", LITERAL, "v", "", "", BNODE, "g0"),
    ]
    (row,) = canonicalize_quads(quads_table(("g", q) for q in quads)).to_pylist()
    assert row["n_bnodes"] == 2  # subject bnode + graph-name bnode
    assert row["status"] == "ok"


def test_read_nquads_lenient_skips_and_counts(ray_session, tmp_path):
    from rdf_canon_ray.sources.nquads import read_nquads
    from rdf_canon_ray.state import metrics

    p = tmp_path / "dirty.nq"
    p.write_text(
        '<http://e/a> <http://e/p> "x" .\n'
        "this is not an nquads line\n"
        '<http://e/b> <http://e/p> "y" .\n'
        "<http://e/c> <http://e/p> MALFORMED\n"
    )
    before = metrics.read().get("nquads_malformed_lines", 0)
    got = read_nquads(str(p), lenient=True).to_pandas()
    assert len(got) == 2
    assert metrics.read().get("nquads_malformed_lines", 0) == before + 2
    # strict mode still fails fast on the same input
    import pytest

    with pytest.raises(Exception):
        read_nquads(str(p)).to_pandas()
