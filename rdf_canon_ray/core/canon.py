"""RDFC-1.0 (W3C RDF Dataset Canonicalization) — pure-Python per-graph core.

Implements the same algorithm the reference implements in Rust
(`/root/reference/src/canon.rs`; spec step numbers quoted below), as a
pure library with no Ray dependency: one call canonicalizes one dataset
(= one per-conversation subgraph in the distributed engine).  The
distributed layer (``stages/canonicalize.py``) calls it after one
bucketed exchange on the graph key (``shuffle.exchange_buckets``), once
per graph of each exchanged block — two graphs never share state,
exactly mirroring the reference's per-invocation
``CanonicalizationState`` (`src/canon.rs:208`).

Every caller shares ONE kernel, ``canonicalize_templates``: it takes a
dataset as serialization templates (``_quad_template``: the non-bnode
parts pre-rendered, a ``None`` static marking a blank node) and runs
dedup → H1DQ / HNDQ → render.  Every Ray path renders its templates
columnar from an Arrow quads table
(``stages.canonicalize.canonicalize_quads``);
``canonicalize_quads_with_map`` (and so ``canonicalize``) is the
adapter for lists of quad tuples.

Behavioral parity notes (each verified against the reference source):

* All "code point ordered" iterations use Python ``sorted()`` on ``str``,
  which matches Rust ``BTreeMap``/``sort()`` byte order on UTF-8.
* Step 5.3.1 recovers existing identifiers "in the order of the
  temporarily issued identifiers" by inverting the temp map through a
  ``BTreeMap`` keyed on the issued label (`src/canon.rs:434-448`) — i.e.
  *lexicographic* order of ``b0, b1, b10, b2…``, which deviates from pure
  numeric issuance order at ≥10 temporaries.  We reproduce that exactly.
* The HNDQ call counter increments on every HNDQ entry and errors once
  ``count > limit`` (default 4000; `src/counter.rs:4,35-42`).
* HNDQ path pruning compares after *every* path append with
  ``len(path) >= len(chosen) and path >= chosen`` (`src/canon.rs:978-981,
  1057-1060`); the chosen permutation's issuer replaces the working
  issuer (`src/canon.rs:1099`).
"""

from __future__ import annotations

import hashlib
from itertools import permutations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .terms import (
    BNODE,
    DEFAULT,
    IRI,
    Quad,
    quad_to_line,
    quad_to_string,
    term_to_string,
)

DEFAULT_HNDQ_CALL_LIMIT = 4000
CANONICAL_PREFIX = "c14n"


class CanonicalizationError(Exception):
    """Base error (mirrors `src/error.rs:4-22`)."""


class QuadsNotExist(CanonicalizationError):
    pass


class CanonicalIdentifierNotExist(CanonicalizationError):
    pass


class HndqCallLimitExceeded(CanonicalizationError):
    def __init__(self, limit: int):
        super().__init__(f"HNDQ call limit ({limit}) exceeded")
        self.limit = limit


class HndqCallCounter:
    """Global HNDQ call counter (mirrors ``SimpleHndqCallCounter``,
    `src/counter.rs:12-56`): poison-dataset defense."""

    __slots__ = ("count", "limit")

    def __init__(self, limit: Optional[int] = None):
        self.count = 0
        self.limit = DEFAULT_HNDQ_CALL_LIMIT if limit is None else limit

    def add(self) -> None:
        self.count += 1
        if self.count > self.limit:
            raise HndqCallLimitExceeded(self.limit)


class IdentifierIssuer:
    """Spec §4.5 issue-identifier state (`src/canon.rs:96-181`).

    ``issued`` is insertion-ordered (Python dict), recording issuance
    order — significant for canonical labeling.
    """

    __slots__ = ("prefix", "counter", "issued")

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.counter = 0
        self.issued: Dict[str, str] = {}

    def clone(self) -> "IdentifierIssuer":
        c = IdentifierIssuer(self.prefix)
        c.counter = self.counter
        c.issued = dict(self.issued)
        return c

    def get(self, existing: str) -> Optional[str]:
        return self.issued.get(existing)

    def issue(self, existing: str) -> str:
        got = self.issued.get(existing)
        if got is not None:
            return got
        new = f"{self.prefix}{self.counter}"
        self.issued[existing] = new
        self.counter += 1
        return new


def _hash(hash_name: str, data: str) -> str:
    h = hashlib.new(hash_name)
    h.update(data.encode("utf-8"))
    return h.hexdigest()  # lowercase hex, matching base16ct::lower


def dedup_quads(quads: Iterable[Quad]) -> List[Quad]:
    """Exact set-dedup preserving first occurrence (oxrdf ``Dataset``
    set semantics, `src/api.rs:287,559`)."""
    seen = set()
    out = []
    for q in quads:
        if q not in seen:
            seen.add(q)
            out.append(q)
    return out


def _quad_template(q: Quad) -> tuple:
    """Precomputed serialization template for one quad: every non-bnode
    part is rendered ONCE (IRI brackets, literal escaping) so the hot
    loops (H1DQ per mentioning bnode, final doc render) only substitute
    bnode labels.  ``(s_static, s, " <p> ", o_static, o, g_static, g)``
    — a ``None`` static marks a bnode slot; ``g_static`` carries its
    leading space (empty for the default graph).  Rendering is
    injective on the quads ``nquads.parse`` produces (it drops an
    ``xsd:string`` datatype, which serializes as none), so deduplicating
    templates deduplicates quads.  Every Ray path renders the same
    tuples columnar (``stages.canonicalize._template_columns``)."""
    s_kind, s, p, o_kind, o, o_dt, o_lang, g_kind, g = q
    s_st = "<" + s + ">" if s_kind == IRI else None
    o_st = term_to_string(o_kind, o, o_dt, o_lang) if o_kind != BNODE else None
    if g_kind == DEFAULT:
        g_st = ""
    elif g_kind == IRI:
        g_st = " <" + g + ">"
    else:
        g_st = None
    return (s_st, s, " <" + p + "> ", o_st, o, g_st, g)


def _template_string(t: tuple) -> str:
    """A template with its own blank node labels: ``quad_to_string``."""
    s_st, s, mid, o_st, o, g_st, g = t
    return (
        (s_st if s_st is not None else "_:" + s)
        + mid
        + (o_st if o_st is not None else "_:" + o)
        + (g_st if g_st is not None else " _:" + g)
    )


class _State:
    """Spec §4.2 canonicalization state (`src/canon.rs:17-89`) over the
    serialization templates of a dataset's quads (``_quad_template``)."""

    __slots__ = (
        "mention_map",
        "canonical_issuer",
        "h1dq_cache",
        "hash_name",
        "templates",
    )

    def __init__(self, quads: Sequence[Quad], hash_name: str):
        self._index([_quad_template(q) for q in quads], hash_name)

    @classmethod
    def of_templates(cls, templates: List[tuple], hash_name: str) -> "_State":
        state = cls.__new__(cls)
        state._index(templates, hash_name)
        return state

    def _index(self, templates: List[tuple], hash_name: str) -> None:
        self.hash_name = hash_name
        self.canonical_issuer = IdentifierIssuer(CANONICAL_PREFIX)
        self.h1dq_cache: Dict[str, str] = {}
        # 4.4.3 step 2: blank node → mention quads. A quad is appended once
        # per bnode component position (subject, object, graph), so a quad
        # like ``_:a <p> _:a`` appears twice in ``_:a``'s list
        # (`src/canon.rs:44-76`).  Entries are serialization TEMPLATES
        # (see ``_quad_template``); a ``None`` static is a bnode slot.
        self.templates = templates
        mention: Dict[str, List[tuple]] = {}
        for t in templates:
            if t[0] is None:
                mention.setdefault(t[1], []).append(t)
            if t[3] is None:
                mention.setdefault(t[4], []).append(t)
            if t[5] is None:
                mention.setdefault(t[6], []).append(t)
        self.mention_map = mention

    # --- 4.6 Hash First Degree Quads (`src/canon.rs:491-580`) ---------
    def hash_first_degree_quads(self, n: str) -> str:
        cached = self.h1dq_cache.get(n)
        if cached is not None:
            return cached
        entries = self.mention_map.get(n)
        if entries is None:
            raise QuadsNotExist(n)
        lines = []
        for s_st, s, mid, o_st, o, g_st, g in entries:
            subj = s_st if s_st is not None else ("_:a" if s == n else "_:z")
            obj = o_st if o_st is not None else ("_:a" if o == n else "_:z")
            if g_st is None:
                g_st = " _:a" if g == n else " _:z"
            lines.append(subj + mid + obj + g_st + " .\n")
        lines.sort()
        digest = _hash(self.hash_name, "".join(lines))
        self.h1dq_cache[n] = digest
        return digest

    def h1dq_lines(self, n: str) -> List[str]:
        """The H1DQ serializations for ``n`` in MENTION order (pre-sort)
        — the ``nquads`` field of the reference's YAML trace
        (`src/logger.rs`; golden files in tests/rdfc10_supplement).
        Trace-only; the hash path above sorts before digesting."""
        out = []
        for s_st, s, mid, o_st, o, g_st, g in self.mention_map[n]:
            subj = s_st if s_st is not None else ("_:a" if s == n else "_:z")
            obj = o_st if o_st is not None else ("_:a" if o == n else "_:z")
            if g_st is None:
                g_st = " _:a" if g == n else " _:z"
            out.append(subj + mid + obj + g_st + " .")
        return out

    # --- 4.7 Hash Related Blank Node (`src/canon.rs:602-654`) ---------
    def hash_related_blank_node(
        self, related: str, predicate: str, issuer: IdentifierIssuer, position: str
    ) -> str:
        if position == "g":
            inp = position
        else:
            inp = position + "<" + predicate + ">"
        cid = self.canonical_issuer.get(related)
        if cid is not None:
            ident = "_:" + cid
        else:
            iid = issuer.get(related)
            if iid is not None:
                ident = "_:" + iid
            else:
                ident = self.hash_first_degree_quads(related)
        return _hash(self.hash_name, inp + ident)

    # --- 4.8 Hash N-Degree Quads (`src/canon.rs:686-1126`) ------------
    def hash_n_degree_quads(
        self,
        identifier: str,
        path_issuer: IdentifierIssuer,
        counter: HndqCallCounter,
    ) -> Tuple[str, IdentifierIssuer]:
        counter.add()
        issuer = path_issuer.clone()

        entries = self.mention_map.get(identifier)
        if entries is None:
            raise QuadsNotExist(identifier)

        # Step 3: Hn — related-hash → related bnode identifiers.  A
        # ``None`` static is a bnode; the predicate is ``mid`` unwrapped.
        h_n: Dict[str, List[str]] = {}
        for s_st, s, mid, o_st, o, g_st, g in entries:
            if s_st is None and s != identifier:
                h = self.hash_related_blank_node(s, mid[2:-2], issuer, "s")
                h_n.setdefault(h, []).append(s)
            if o_st is None and o != identifier:
                h = self.hash_related_blank_node(o, mid[2:-2], issuer, "o")
                h_n.setdefault(h, []).append(o)
            if g_st is None and g != identifier:
                h = self.hash_related_blank_node(g, mid[2:-2], issuer, "g")
                h_n.setdefault(h, []).append(g)

        data_to_hash: List[str] = []
        # Step 5: related hashes in code point order.
        for related_hash in sorted(h_n):
            blank_node_list = h_n[related_hash]
            data_to_hash.append(related_hash)
            chosen_path = ""
            chosen_issuer: Optional[IdentifierIssuer] = None

            # 5.4: every permutation of the related bnode list.
            for perm in permutations(blank_node_list):
                issuer_copy = issuer.clone()
                path_parts: List[str] = []
                path_len = 0
                recursion_list: List[str] = []
                skip = False

                # 5.4.4
                for related in perm:
                    cid = self.canonical_issuer.get(related)
                    if cid is not None:
                        path_parts.append("_:" + cid)
                    else:
                        if issuer_copy.get(related) is None:
                            recursion_list.append(related)
                        path_parts.append("_:" + issuer_copy.issue(related))
                    # 5.4.4.3 prune after every append.
                    if chosen_path:
                        path = "".join(path_parts)
                        if len(path) >= len(chosen_path) and path >= chosen_path:
                            skip = True
                            break
                if skip:
                    continue

                # 5.4.5 recursion
                for related in recursion_list:
                    rhash, rissuer = self.hash_n_degree_quads(
                        related, issuer_copy, counter
                    )
                    path_parts.append("_:" + issuer_copy.issue(related))
                    path_parts.append("<" + rhash + ">")
                    issuer_copy = rissuer
                    if chosen_path:
                        path = "".join(path_parts)
                        if len(path) >= len(chosen_path) and path >= chosen_path:
                            skip = True
                            break
                if skip:
                    continue

                # 5.4.6
                path = "".join(path_parts)
                if not chosen_path or path < chosen_path:
                    chosen_path = path
                    chosen_issuer = issuer_copy

            data_to_hash.append(chosen_path)
            if chosen_issuer is not None:
                issuer = chosen_issuer

        return _hash(self.hash_name, "".join(data_to_hash)), issuer


def _templates(quads: Iterable[Quad]) -> List[tuple]:
    return [_quad_template(q) for q in quads]


def _dedup(templates: Iterable[tuple]) -> List[tuple]:
    """Set semantics (oxrdf ``Dataset``, `src/api.rs:287,559`), first
    occurrence kept: templates are injective on quads."""
    return list(dict.fromkeys(templates))


def issue(
    quads: Iterable[Quad],
    hash_name: str = "sha256",
    hndq_call_limit: Optional[int] = None,
    trace=None,
) -> Dict[str, str]:
    """4.4 Canonicalization Algorithm → issued-identifiers map
    (input blank node label → ``c14nN``); `src/canon.rs:196-480`.

    ``trace``: optional ``core.trace.CanonTrace`` collecting the spec log
    points (the engine's analogue of the reference's YAML debug logger,
    `src/logger.rs`); zero overhead when None."""
    state = _State.of_templates(_dedup(_templates(quads)), hash_name)
    return _issue(state, hndq_call_limit, trace)


def _issue(
    state: _State, hndq_call_limit: Optional[int], trace=None
) -> Dict[str, str]:
    """Steps 3-5 of 4.4.3 over an indexed state."""
    counter = HndqCallCounter(hndq_call_limit)

    if trace is not None:
        trace.mention_map = {
            n: [_template_string(t) + " ." for t in entries]
            for n, entries in sorted(state.mention_map.items())
        }

    # Step 3: H1DQ for every mentioned bnode, grouped by hash.
    hash_to_bnodes: Dict[str, List[str]] = {}
    for n in sorted(state.mention_map):
        h = state.hash_first_degree_quads(n)
        hash_to_bnodes.setdefault(h, []).append(n)
        if trace is not None:
            trace.h1dq.append(
                {
                    "identifier": n,
                    "h1dq": {
                        "log point": "Hash First Degree Quads function (4.6.3).",
                        "nquads": state.h1dq_lines(n),
                        "hash": h,
                    },
                }
            )

    # Step 4: unique hashes get canonical ids immediately, hash order.
    remaining: Dict[str, List[str]] = {}
    for h in sorted(hash_to_bnodes):
        ids = hash_to_bnodes[h]
        if len(ids) > 1:
            remaining[h] = ids
            continue
        cid = state.canonical_issuer.issue(ids[0])
        if trace is not None:
            trace.unique_assignments.append(
                {"identifier": ids[0], "hash": h, "canonical label": cid}
            )

    # Step 5: shared-hash groups, hash order.
    for h in sorted(remaining):
        hash_path_list: List[Tuple[str, IdentifierIssuer]] = []
        for n in remaining[h]:
            if state.canonical_issuer.get(n) is not None:
                continue
            temp = IdentifierIssuer("b")
            temp.issue(n)
            hash_path_list.append(state.hash_n_degree_quads(n, temp, counter))
        # 5.3: results ordered by hash.
        hash_path_list.sort(key=lambda r: r[0])
        group_trace = None
        if trace is not None:
            group_trace = {
                "hash": h,
                "identifier list": list(remaining[h]),
                "ca.5.2": [
                    {"hndq hash": rh, "issuer": dict(ri.issued)}
                    for rh, ri in hash_path_list
                ],
                "ca.5.3.1": [],
            }
            trace.shared_groups.append(group_trace)
        for _rhash, rissuer in hash_path_list:
            # 5.3.1 — reference quirk: existing identifiers recovered via a
            # BTreeMap keyed on the *issued* temp label, i.e. lexicographic
            # b0 < b1 < b10 < b2 … (`src/canon.rs:434-448`).
            for _issued, existing in sorted(
                ((v, k) for k, v in rissuer.issued.items())
            ):
                cid = state.canonical_issuer.issue(existing)
                if group_trace is not None:
                    group_trace["ca.5.3.1"].append(
                        {"existing identifier": existing, "cid": cid}
                    )

    result = dict(state.canonical_issuer.issued)
    if trace is not None:
        trace.final_map = dict(result)
    return result


def relabel(quads: Iterable[Quad], mapping: Dict[str, str]) -> List[Quad]:
    """Substitute canonical labels; error when a bnode is missing from the
    map (`src/api.rs:611-619,801-810`).  Order-preserving (the quads-list
    variant `src/api.rs:723-731`); callers wanting set semantics dedup."""
    out: List[Quad] = []
    for q in quads:
        s_kind, s, p, o_kind, o, o_dt, o_lang, g_kind, g = q
        if s_kind == BNODE:
            try:
                s = mapping[s]
            except KeyError:
                raise CanonicalIdentifierNotExist(q[1]) from None
        if o_kind == BNODE:
            try:
                o = mapping[o]
            except KeyError:
                raise CanonicalIdentifierNotExist(q[4]) from None
        if g_kind == BNODE:
            try:
                g = mapping[g]
            except KeyError:
                raise CanonicalIdentifierNotExist(q[8]) from None
        out.append((s_kind, s, p, o_kind, o, o_dt, o_lang, g_kind, g))
    return out


def sort_quads(quads: Iterable[Quad]) -> List[Quad]:
    """Order quads by their canonical N-Quads string, code point order
    (`src/api.rs:859-863`)."""
    return sorted(quads, key=quad_to_string)


def serialize(quads: Iterable[Quad]) -> str:
    """Spec §5 serialization: sort by quad string, one `` .\\n``-terminated
    line each, concatenated (`src/canon.rs:1140-1147`).

    Serializes each quad once: sorting the serialized strings is
    equivalent to sorting quads by their string (same key)."""
    strs = sorted(quad_to_string(q) for q in dedup_quads(quads))
    if not strs:
        return ""
    return " .\n".join(strs) + " .\n"


def canonicalize(
    quads: Iterable[Quad],
    hash_name: str = "sha256",
    hndq_call_limit: Optional[int] = None,
) -> str:
    """End-to-end: issue → relabel → serialize (`src/api.rs:183-190`)."""
    return canonicalize_quads_with_map(
        quads, hash_name=hash_name, hndq_call_limit=hndq_call_limit
    )[0]


class PerNodeHndqCallCounter(HndqCallCounter):
    """Per-blank-node-identifier call counter (mirrors
    ``PerNodeHndqCallCounter``, `src/counter.rs:58-114` — declared by the
    reference though its public API wires only the global one)."""

    def __init__(self, limit: Optional[int] = None):
        super().__init__(limit)
        self.per_node: Dict[str, int] = {}

    def add_node(self, identifier: str) -> None:
        n = self.per_node.get(identifier, 0) + 1
        self.per_node[identifier] = n
        if n > self.limit:
            raise HndqCallLimitExceeded(self.limit)


# --- Graph (triples-only) and quads-list wrappers, mirroring the
# reference's full public surface (`src/api.rs`): a graph is lifted into
# a dataset whose quads all use the default graph (`src/api.rs:506-511`).
def canonicalize_graph(
    triples: Iterable[Quad],
    hash_name: str = "sha256",
    hndq_call_limit: Optional[int] = None,
) -> str:
    """`canonicalize_graph` (`src/api.rs:91-94`): input triples (quads
    with DEFAULT graph); output canonical N-Triples text."""
    quads = [(t[0], t[1], t[2], t[3], t[4], t[5], t[6], DEFAULT, "") for t in triples]
    return canonicalize(quads, hash_name=hash_name, hndq_call_limit=hndq_call_limit)


def issue_graph(
    triples: Iterable[Quad],
    hash_name: str = "sha256",
    hndq_call_limit: Optional[int] = None,
) -> Dict[str, str]:
    """`issue_graph` (`src/api.rs:367-370,501-512`)."""
    quads = [(t[0], t[1], t[2], t[3], t[4], t[5], t[6], DEFAULT, "") for t in triples]
    return issue(quads, hash_name=hash_name, hndq_call_limit=hndq_call_limit)


def relabel_graph(triples: Iterable[Quad], mapping: Dict[str, str]) -> List[Quad]:
    """`relabel_graph` (`src/api.rs:667-675`)."""
    return relabel(triples, mapping)


def sort_graph(triples: Iterable[Quad]) -> List[Quad]:
    """`sort_graph` (`src/api.rs:911-915`)."""
    return sort_quads(triples)


def serialize_graph(triples: Iterable[Quad]) -> str:
    """`serialize_graph` (`src/canon.rs:1149-1156`)."""
    return serialize(triples)


def canonicalize_quads_with_map(
    quads: Iterable[Quad],
    hash_name: str = "sha256",
    hndq_call_limit: Optional[int] = None,
) -> Tuple[str, Dict[str, str]]:
    """Canonical document plus the issued-identifiers map of a list of
    quads: the adapter onto ``canonicalize_templates`` for quad tuples
    (it serves ``canonicalize``, the CLI's single-dataset path and
    kgbench's replay)."""
    return canonicalize_templates(_templates(quads), hash_name, hndq_call_limit)


def canonicalize_templates(
    templates: Iterable[tuple],
    hash_name: str = "sha256",
    hndq_call_limit: Optional[int] = None,
) -> Tuple[str, Dict[str, str]]:
    """The per-graph kernel: serialization templates of one dataset's
    quads (``_quad_template``; Ray paths render them columnar) →
    dedup → H1DQ / HNDQ → canonical document plus the issued-identifiers
    map (the join key for cross-graph entity canonicalization)."""
    state = _State.of_templates(_dedup(templates), hash_name)
    mapping = _issue(state, hndq_call_limit)
    # Serialize directly with label substitution — one pass instead of
    # relabel-then-reserialize (relabeled quads stay a set: substitution
    # is injective on distinct quads given a bijective label map).  The
    # templates already hold every non-bnode part rendered; only
    # canonical labels are substituted here.  A missing label raises
    # like ``relabel`` does.
    strs = []
    try:
        for s_st, s, mid, o_st, o, g_st, g in state.templates:
            subj = s_st if s_st is not None else "_:" + mapping[s]
            obj = o_st if o_st is not None else "_:" + mapping[o]
            if g_st is None:
                g_st = " _:" + mapping[g]
            strs.append(subj + mid + obj + g_st)
    except KeyError as e:  # pragma: no cover - defensive parity
        raise CanonicalIdentifierNotExist(e.args[0]) from None
    strs.sort()
    doc = (" .\n".join(strs) + " .\n") if strs else ""
    return doc, mapping
