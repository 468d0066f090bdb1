"""N-Quads text parser / writer.

The reference library delegates N-Quads parsing to ``oxttl`` as a
dev-dependency (`/root/reference/Cargo.toml:24`, used in tests at
`/root/reference/src/lib.rs:116-119`); this engine owns its own parser
because it is a real source format here (fixtures + canonical output
round-trips).  Grammar subset per W3C N-Quads: IRIREF, blank node label,
literal with ``^^``/``@``, UCHAR (``\\uXXXX``/``\\UXXXXXXXX``) and ECHAR
unescaping, comments, blank lines.
"""

from __future__ import annotations

import re
from typing import Iterable, List

from .terms import BNODE, DEFAULT, IRI, LITERAL, XSD_STRING, Quad, quad_to_line

_ECHAR = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}

_ESCAPE_RE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)")


def _unescape_repl(m: re.Match) -> str:
    body = m.group(1)
    c = body[0]
    if c == "u" or c == "U":
        return chr(int(body[1:], 16))
    try:
        return _ECHAR[c]
    except KeyError:
        raise ValueError(f"invalid escape \\{body}") from None


def unescape(s: str) -> str:
    if "\\" not in s:
        return s
    return _ESCAPE_RE.sub(_unescape_repl, s)


# One statement: subject predicate object [graph] .
_IRIREF = r"<((?:[^<>\"{}|^`\\\x00-\x20]|\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8})*)>"
_BNODE_LABEL = r"_:([^\s<>\"]+)"
_STRING = r'"((?:[^"\\\n\r]|\\.)*)"'
_LANGTAG = r"@([a-zA-Z]+(?:-[a-zA-Z0-9]+)*)"

_SUBJECT = rf"(?:{_IRIREF}|{_BNODE_LABEL})"
_OBJECT = rf"(?:{_IRIREF}|{_BNODE_LABEL}|{_STRING}(?:\^\^{_IRIREF}|{_LANGTAG})?)"

_STMT_RE = re.compile(
    rf"^[ \t]*{_SUBJECT}[ \t]+{_IRIREF}[ \t]+{_OBJECT}"
    rf"(?:[ \t]+{_SUBJECT})?[ \t]*\.[ \t]*(?:#.*)?$"
)


def parse_line(line: str) -> Quad | None:
    """Parse one N-Quads statement line; None for blank/comment lines.

    A trailing ``\\r`` is accepted (CRLF files are legal per the W3C
    EOL production)."""
    if line.endswith("\r"):
        line = line[:-1]
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    m = _STMT_RE.match(line)
    if not m:
        raise ValueError(f"invalid N-Quads statement: {line!r}")
    (s_iri, s_bn, p_iri, o_iri, o_bn, o_lex, o_dt, o_lang, g_iri, g_bn) = m.groups()

    if s_iri is not None:
        s_kind, s = IRI, unescape(s_iri)
    else:
        s_kind, s = BNODE, s_bn

    p = unescape(p_iri)

    if o_iri is not None:
        o_kind, o, dt, lang = IRI, unescape(o_iri), "", ""
    elif o_bn is not None:
        o_kind, o, dt, lang = BNODE, o_bn, "", ""
    else:
        o_kind = LITERAL
        o = unescape(o_lex)
        dt = unescape(o_dt) if o_dt is not None else ""
        if dt == XSD_STRING:  # a simple literal (RDF 1.1): one term
            dt = ""
        lang = o_lang or ""

    if g_iri is not None:
        g_kind, g = IRI, unescape(g_iri)
    elif g_bn is not None:
        g_kind, g = BNODE, g_bn
    else:
        g_kind, g = DEFAULT, ""

    return (s_kind, s, p, o_kind, o, dt, lang, g_kind, g)


def parse(text: str) -> List[Quad]:
    quads: List[Quad] = []
    # W3C EOL production: \n, \r\n and bare \r all end a statement
    for line in re.split(r"\r\n|\n|\r", text):
        q = parse_line(line)
        if q is not None:
            quads.append(q)
    return quads


def parse_file(path: str) -> List[Quad]:
    with open(path, encoding="utf-8") as f:
        return parse(f.read())


def write(quads: Iterable[Quad]) -> str:
    """Quads → N-Quads document text in given order (no sorting)."""
    return "".join(quad_to_line(q) for q in quads)
