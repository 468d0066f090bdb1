"""RDF quad data model and canonical N-Quads serialization.

A quad is a plain 9-tuple for speed in the per-graph hot path:

    (s_kind, s, p, o_kind, o, o_dt, o_lang, g_kind, g)

with term kinds ``IRI=0, BNODE=1, LITERAL=2, DEFAULT=3``.  The same flat
layout is used as Arrow columns in the distributed quads table (see
``rdf_canon_ray.stages``), so a row of the Arrow table zips directly into
a core quad with no conversion layer.

Canonical N-Quads serialization reproduces the reference's output format
(zkp-ld/rdf-canon delegates to oxrdf ``Quad::to_string()``; semantics
evidenced by `/root/reference/tests/rdfc10/test060-in.nq` vs
`test060-rdfc10.nq`):

* IRIs are emitted raw between ``<`` ``>`` (no escaping).
* Blank nodes are ``_:label``.
* Literal lexical forms escape ``\b \t \n \f \r " \\`` as ECHARs, the
  remaining C0 controls and U+007F as uppercase-hex ``\\uXXXX``, and emit
  everything else (including astral chars) as raw UTF-8.
* ``xsd:string`` datatypes are suppressed; language tags appended as
  ``@lang``; other datatypes as ``^^<iri>``.
* The default graph is omitted (triple form).
"""

from __future__ import annotations

from typing import Tuple

IRI = 0
BNODE = 1
LITERAL = 2
DEFAULT = 3

XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"

Quad = Tuple[int, str, str, int, str, str, str, int, str]


def make_quad(
    s_kind: int,
    s: str,
    p: str,
    o_kind: int,
    o: str,
    o_dt: str = "",
    o_lang: str = "",
    g_kind: int = DEFAULT,
    g: str = "",
) -> Quad:
    return (s_kind, s, p, o_kind, o, o_dt, o_lang, g_kind, g)


# --- canonical literal escaping ------------------------------------------
# ECHAR escapes per canonical N-Quads; other C0 controls + DEL as \uXXXX
# (uppercase hex).  Built once; str.translate is the fast path.
_LIT_ESCAPE = {}
for _cp in range(0x20):
    _LIT_ESCAPE[_cp] = "\\u%04X" % _cp
_LIT_ESCAPE[0x08] = "\\b"
_LIT_ESCAPE[0x09] = "\\t"
_LIT_ESCAPE[0x0A] = "\\n"
_LIT_ESCAPE[0x0C] = "\\f"
_LIT_ESCAPE[0x0D] = "\\r"
_LIT_ESCAPE[0x22] = '\\"'
_LIT_ESCAPE[0x5C] = "\\\\"
_LIT_ESCAPE[0x7F] = "\\u007F"


def term_to_string(kind: int, value: str, dt: str = "", lang: str = "") -> str:
    """Serialize one term in canonical N-Quads form."""
    if kind == IRI:
        return "<" + value + ">"
    if kind == BNODE:
        return "_:" + value
    if kind == LITERAL:
        out = '"' + value.translate(_LIT_ESCAPE) + '"'
        if lang:
            return out + "@" + lang
        if dt and dt != XSD_STRING:
            return out + "^^<" + dt + ">"
        return out
    raise ValueError(f"cannot serialize term kind {kind}")


def quad_to_string(q: Quad) -> str:
    """Quad in canonical N-Quads form WITHOUT the terminating `` .\\n``.

    Mirrors oxrdf ``Quad::to_string()`` used by the reference at
    `src/canon.rs:545` and `src/canon.rs:1142` (sort key) — callers append
    ``" .\\n"`` for the line form.
    """
    s_kind, s, p, o_kind, o, o_dt, o_lang, g_kind, g = q
    subj = ("<" + s + ">") if s_kind == IRI else ("_:" + s)
    obj = term_to_string(o_kind, o, o_dt, o_lang)
    if g_kind == DEFAULT:
        return subj + " <" + p + "> " + obj
    gname = ("<" + g + ">") if g_kind == IRI else ("_:" + g)
    return subj + " <" + p + "> " + obj + " " + gname


def quad_to_line(q: Quad) -> str:
    return quad_to_string(q) + " .\n"
