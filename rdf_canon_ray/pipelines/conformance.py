"""W3C rdfc10 conformance as a *distributed* pipeline: every manifest
test dataset becomes one graph in a single quads Dataset; one bucketed
canonicalization shuffle runs them all; results compare against the
broadcast golden outputs.

This is the generic-graph path (named graphs honored, no KG structure
quads) — the same operator chain a user would run over arbitrary
N-Quads corpora.
"""

from __future__ import annotations

import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..core import nquads
from ..stages.canonicalize import canonicalize_graphs
from ..transcripts.extract import quads_table

REF_TESTS = "/root/reference/tests"


def _load_manifest():
    with open(os.path.join(REF_TESTS, "manifest.jsonld")) as f:
        return json.load(f)["entries"]


def conformance_quads() -> tuple:
    """All manifest inputs as one ``QUADS_SCHEMA`` table + expectations."""
    pairs = []
    expect = {}
    for e in _load_manifest():
        tid = e["id"].lstrip("#")
        alg = (e.get("hashAlgorithm") or "SHA256").lower().replace("-", "")
        quads = nquads.parse_file(os.path.join(REF_TESTS, e["action"]))
        pairs.extend((tid, q) for q in quads)
        if e["type"] == "rdfc:RDFC10EvalTest":
            with open(os.path.join(REF_TESTS, e["result"]), encoding="utf-8") as f:
                expect[tid] = {"kind": "eval", "golden": f.read(), "alg": alg,
                               "n_quads": len(quads)}
        elif e["type"] == "rdfc:RDFC10MapTest":
            with open(os.path.join(REF_TESTS, e["result"])) as f:
                expect[tid] = {
                    "kind": "map",
                    "golden": json.dumps(json.load(f), sort_keys=True),
                    "alg": alg,
                    "n_quads": len(quads),
                }
        else:
            expect[tid] = {"kind": "negative", "golden": "", "alg": alg,
                           "n_quads": len(quads)}
    return quads_table(pairs), expect


def run_conformance(sf_dir: str = "") -> rd.Dataset:
    """(sf_dir ignored — fixture-driven.) Returns one row per manifest
    entry: (test_id, kind, passed)."""
    quads, expect = conformance_quads()
    # empty-input tests (test001) have no quads → handled driver-side
    expect_ref = ray.put(expect)

    sha256_ids = {t for t, e in expect.items() if e["alg"] == "sha256"}
    sha384_ids = set(expect) - sha256_ids
    results = []
    for alg, ids in [("sha256", sha256_ids), ("sha384", sha384_ids)]:
        sub = quads.filter(pc.is_in(quads["graph_id"], pa.array(sorted(ids), pa.string())))
        if not sub.num_rows:
            continue
        out = canonicalize_graphs(rd.from_arrow(sub), hash_name=alg, num_buckets=8)

        def check(batch: pd.DataFrame) -> pd.DataFrame:
            exp = ray.get(expect_ref)
            res = [
                (
                    gid,
                    exp[gid]["kind"],
                    bool(
                        status == "ok" and doc == exp[gid]["golden"]
                        if exp[gid]["kind"] == "eval"
                        else status == "ok" and lm == exp[gid]["golden"]
                        if exp[gid]["kind"] == "map"
                        else status == "quarantined"
                    ),
                )
                for gid, doc, lm, status in zip(
                    batch["graph_id"],
                    batch["canon_nquads"],
                    batch["label_map"],
                    batch["status"],
                )
            ]
            return pd.DataFrame(res, columns=["test_id", "kind", "passed"])

        results.append(out.map_batches(check, batch_format="pandas").to_pandas())

    got = pd.concat(results, ignore_index=True)
    # entries with zero quads never reach the shuffle; they pass iff the
    # golden output is empty (the spec's empty-dataset case).
    seen = set(got["test_id"])
    extra = []
    for tid, e in expect.items():
        if tid in seen:
            continue
        if e["kind"] == "eval":
            ok = e["golden"] == ""
        elif e["kind"] == "map":
            ok = e["golden"] == "{}"
        else:
            ok = False
        extra.append((tid, e["kind"], ok))
    if extra:
        got = pd.concat(
            [got, pd.DataFrame(extra, columns=["test_id", "kind", "passed"])],
            ignore_index=True,
        )
    return rd.from_pandas(got.sort_values("test_id").reset_index(drop=True))


def conformance_summary(sf_dir: str = "") -> rd.Dataset:
    """Per-kind pass counts — the oracle-checkable view of the 86-test
    run: DuckDB asserts (kind, n_tests, n_passed) against the manifest's
    own per-kind totals, so a hash match means every test passed."""
    results = run_conformance(sf_dir).to_pandas()
    agg = (
        results.groupby("kind", sort=True)
        .agg(n_tests=("passed", "size"), n_passed=("passed", "sum"))
        .reset_index()
    )
    agg["n_tests"] = agg["n_tests"].astype("int64")
    agg["n_passed"] = agg["n_passed"].astype("int64")
    return rd.from_pandas(agg)


_EARL_PREFIXES = """\
@prefix dc:   <http://purl.org/dc/terms/> .
@prefix foaf: <http://xmlns.com/foaf/0.1/> .
@prefix doap: <http://usefulinc.com/ns/doap#> .
@prefix earl: <http://www.w3.org/ns/earl#> .
@prefix xsd:  <http://www.w3.org/2001/XMLSchema#> .
"""

_EARL_PROJECT = "https://example.org/rdf-canon-ray"
_EARL_ASSERTOR = "https://example.org/rdf-canon-ray#assertor"
_W3C_TEST_BASE = "https://w3c.github.io/rdf-canon/tests/manifest#"


def write_earl_report(
    results: pd.DataFrame, path: str, date: str = "2026-01-01"
) -> str:
    """Serialize conformance results as a W3C EARL/Turtle report — the
    reference emits the same artifact shape from its test harness
    (`/root/reference/src/lib.rs:206-272`,
    `/root/reference/tests/rust-zkp-ld-earl.ttl`)."""
    parts = [
        _EARL_PREFIXES,
        f"<> foaf:primaryTopic <{_EARL_PROJECT}> ;\n"
        f'  dc:issued "{date}"^^xsd:date .\n',
        f"<{_EARL_PROJECT}> a doap:Project ;\n"
        '  doap:name "rdf-canon-ray" ;\n'
        '  doap:programming-language "Python" ;\n'
        "  doap:implements <https://www.w3.org/TR/rdf-canon/> .\n",
        f"<{_EARL_ASSERTOR}> a earl:Assertor .\n",
    ]
    for _, r in results.sort_values("test_id").iterrows():
        outcome = "earl:passed" if bool(r["passed"]) else "earl:failed"
        parts.append(
            "[ a               earl:Assertion ;\n"
            f"  earl:assertedBy <{_EARL_ASSERTOR}> ;\n"
            f"  earl:subject    <{_EARL_PROJECT}> ;\n"
            f"  earl:test       <{_W3C_TEST_BASE}{r['test_id']}> ;\n"
            "  earl:result     [ a            earl:TestResult ;\n"
            f"                    earl:outcome {outcome} ;\n"
            f'                    dc:date      "{date}T00:00:00Z"^^xsd:dateTime\n'
            "                  ] ;\n"
            "  earl:mode     earl:automatic\n"
            "] .\n"
        )
    doc = "\n".join(parts)
    with open(path, "w", encoding="utf-8") as f:
        f.write(doc)
    return path
