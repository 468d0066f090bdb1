"""Driver-style correctness check: run every queries() entry and compare
row count, schema and sorted values against oracle_sql() via DuckDB.

Usage: python tools/check_oracles.py [sf_dir] [name ...]
"""

import sys
import time

import duckdb
import pandas as pd
import ray

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def check(con, name: str, fn, sf: str, sql) -> bool:
    """Run one query and compare it with its oracle ``sql`` (rows-only
    when None); True when it passes."""
    t0 = time.time()
    got = fn(sf)
    if hasattr(got, "to_pandas"):
        got = got.to_pandas()
    t_ray = time.time() - t0
    if sql is None:
        print(f"{name}: rows={len(got)} (rows-only, {t_ray:.1f}s)")
        return True
    exp = con.execute(sql).df()
    g, x = normalize(got), normalize(exp)
    ok_rows = len(g) == len(x)
    ok_cols = list(g.columns) == list(x.columns)
    # a value hash of the result is dtype-sensitive (int64 3 != float64
    # 3.0) — a silent cast here is how docs_by_source slipped through
    # in round 1, so dtype inequality is a failure, not a fix-up
    dtype_pair = (
        [str(d) for d in g.dtypes],
        [str(d) for d in x.dtypes],
    )
    ok_dtypes = ok_cols and dtype_pair[0] == dtype_pair[1]
    ok_vals = False
    if ok_rows and ok_cols:
        try:
            numcols = [c for c in g.columns if pd.api.types.is_numeric_dtype(g[c])]
            for c in numcols:
                x[c] = x[c].astype(g[c].dtype)
            ok_vals = g.equals(x) or (g.round(9).equals(x.round(9)))
        except Exception as ex:
            print("  compare error:", ex)
    ok = ok_rows and ok_cols and ok_dtypes and ok_vals
    if ok_vals and not ok_dtypes:
        print(f"  dtype mismatch (engine vs oracle): {dtype_pair}")
    print(
        f"{name}: {'OK' if ok else 'MISMATCH'} rows {len(g)}/{len(x)} cols {list(g.columns)} vs {list(x.columns)} ({t_ray:.1f}s)"
    )
    if not ok and ok_rows and ok_cols:
        diff = g.compare(x) if g.shape == x.shape else None
        if diff is not None and len(diff):
            print(diff.head(5))
    return ok


def main():
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)
    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )

    qs, osql = e.queries(), e.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        # one query's crash (a missing input file, say) is that query's
        # failure, not the end of the run
        try:
            failures += not check(con, name, fn, sf, osql.get(name))
        except Exception as ex:
            failures += 1
            print(f"{name}: ERROR {type(ex).__name__}: {ex}")
    print("FAILURES:", failures)
    return failures


if __name__ == "__main__":
    rc = main()
    ray.shutdown()
    sys.exit(1 if rc else 0)
