"""Driver-contract smoke: every ``queries()`` entry must execute at
sf0.001 and return a well-formed result; deterministic queries must be
stable across two runs (the driver hash-compares values, so instability
is a correctness failure even without an oracle)."""

import sys

import pytest

sys.path.insert(0, "/root/repo")

SF = "/root/testdata/sf0.001"

# queries whose output is fully deterministic (checked for run-to-run
# byte stability here; the oracle-checked ones are verified against
# DuckDB by tools/check_oracles.py and the driver)
DETERMINISTIC = [
    "kg_canonical_graphs",
    "dedup_minhash_pairs",
    "dedup_simhash_pairs",
    "ann_lsh_topk",
    "ann_ivf_topk",
    "media_features",
]


def _to_pandas(res):
    return res.to_pandas() if hasattr(res, "to_pandas") else res


@pytest.fixture(scope="module")
def registry(ray_session):
    import __ray_entry__ as e

    return e.queries(), e.oracle_sql()


def test_every_query_runs_at_sf0001(registry):
    qs, _ = registry
    failures = []
    for name, fn in qs.items():
        try:
            df = _to_pandas(fn(SF))
            assert len(df.columns) > 0
            assert len(df) >= 0
        except Exception as ex:  # pragma: no cover - failure reporting
            failures.append(f"{name}: {ex}")
    assert not failures, "\n".join(failures)


def test_oracle_keys_subset_of_queries(registry):
    qs, osql = registry
    assert set(osql) <= set(qs)


def _query_families() -> dict:
    """``queries()`` keys grouped by the ``# <name> family`` comments of
    its dict literal; the keys before the first such comment are the kg
    sentinels."""
    import inspect
    import re

    import __ray_entry__ as e

    body = inspect.getsource(e.queries)
    families: dict[str, list] = {}
    current = "kg sentinels"
    for line in body.splitlines():
        fam = re.match(r"\s*#\s*(.+?) family\b", line)
        if fam:
            current = fam.group(1)
        key = re.match(r'\s*"([^"]+)":', line)
        if key:
            families.setdefault(current, []).append(key.group(1))
    return families


def test_every_query_family_has_an_oracle(registry):
    """Each ``queries()`` family has at least one oracle-checked member,
    so no family is verified by smoke runs alone."""
    qs, osql = registry
    families = _query_families()
    assert sorted(k for keys in families.values() for k in keys) == sorted(qs)
    bare = sorted(f for f, keys in families.items() if not set(keys) & set(osql))
    assert not bare, f"families without an oracle-checked member: {bare}"


def test_no_duplicate_registry_keys():
    """AST-level guard: a duplicate key in any dict literal inside
    queries()/oracle_sql() silently keeps only the LAST value (bit us in
    round 3), and a key repeated across the base/extra dicts that
    oracle_sql() merges silently overrides. Python can't catch either at
    runtime, so scan the source."""
    import ast

    src = open("/root/repo/__ray_entry__.py").read()
    tree = ast.parse(src)
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in ("queries", "oracle_sql")):
            continue
        seen: dict[str, int] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Dict):
                keys = [k.value for k in node.keys if isinstance(k, ast.Constant)]
                # within-literal duplicates
                dups = sorted({k for k in keys if keys.count(k) > 1})
                assert not dups, f"{fn.name}: duplicate keys in one dict: {dups}"
                # across-literal duplicates (base.update(extra) pattern)
                for k in keys:
                    seen[k] = seen.get(k, 0) + 1
        cross = sorted(k for k, n in seen.items() if n > 1)
        assert not cross, f"{fn.name}: key registered in more than one dict: {cross}"


def test_driver_sample_window_covers_rotated_families():
    """Round-5 rotation pin: the first 50 queries() keys (the driver's
    CORRECTNESS sample) must contain the whole dedup/similarity/
    multimodal/web families plus the kg sentinels (COVERAGE.md)."""
    import ast

    src = open("/root/repo/__ray_entry__.py").read()
    tree = ast.parse(src)
    first50: list[str] = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "queries":
            for node in ast.walk(fn):
                if isinstance(node, ast.Dict) and len(node.keys) > 50:
                    first50 = [
                        k.value for k in node.keys if isinstance(k, ast.Constant)
                    ][:50]
    assert first50, "queries() dict literal not found"
    must = {
        "w3c_conformance", "kg_canonical_sizes", "kg_canonical_incremental",
        "rdfc_labels", "kg_canonical_partitioned_sizes",
        "dedup_exact", "dedup_minhash_pairs", "dedup_minhash_groups",
        "dedup_simhash_pairs", "dedup_ngram_jaccard", "dedup_clean",
        "curate_corpus", "dedup_incremental", "ann_topk", "ann_knn_join",
        "ann_ivf_topk", "embed_covariance", "media_feature_sums",
        "media_dhash", "media_dhash_pairs", "pii_redact", "line_dedup",
        "web_domain_stats", "tfidf_top_terms",
    }
    missing = must - set(first50)
    assert not missing, f"rotated families fell out of the sample window: {missing}"


@pytest.mark.parametrize("name", DETERMINISTIC)
def test_deterministic_queries_stable(registry, name):
    qs, _ = registry
    a = _to_pandas(qs[name](SF))
    b = _to_pandas(qs[name](SF))
    cols = sorted(a.columns)
    a = a[cols].astype(str).sort_values(cols).reset_index(drop=True)
    b = b[cols].astype(str).sort_values(cols).reset_index(drop=True)
    assert a.equals(b), f"{name} unstable across runs"
