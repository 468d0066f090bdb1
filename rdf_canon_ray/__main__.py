"""Command-line entry points: ``python -m rdf_canon_ray <command>``.

A reference (zkp-ld/rdf-canon) user consumes a library API; this CLI
adds the operational wrappers around the same operators:

    canonicalize IN.nq [--hash sha256|sha384] [--out DIR]
        One N-Quads dataset → canonical N-Quads on stdout (small
        inputs, pure-core path) or, with --out, the distributed
        per-graph pipeline writing an ordered canonical corpus.
    issue IN.nq
        Canonical label map (input label → c14nN) as JSON on stdout.
    conformance [--earl OUT.ttl]
        Distributed W3C rdfc10 run; prints per-kind pass counts and
        optionally writes the EARL/Turtle report.
    kg SF_DIR OUT_DIR
        Flagship transcript→KG run with resumable partitioned output.

The CLI owns its Ray session (guarded init; library code never calls
ray.init — see CLAUDE.md).
"""

from __future__ import annotations

import argparse
import json
import sys


_OWNS_SESSION = False


def _ensure_ray():
    global _OWNS_SESSION
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)
        _OWNS_SESSION = True
    return ray


def cmd_canonicalize(args) -> int:
    from .core import canonicalize, nquads

    if args.out:
        _ensure_ray()
        from .sources.nquads import read_nquads, write_canonical_nquads
        from .stages.canonicalize import canonicalize_graphs

        ds = read_nquads(args.input)
        graphs = canonicalize_graphs(ds, hash_name=args.hash)
        paths = write_canonical_nquads(graphs, args.out)
        print(f"{len(paths)} part files -> {args.out}", file=sys.stderr)
        return 0
    quads = nquads.parse_file(args.input)
    sys.stdout.write(canonicalize(quads, hash_name=args.hash))
    return 0


def cmd_issue(args) -> int:
    from .core import nquads
    from .core.canon import issue

    quads = nquads.parse_file(args.input)
    json.dump(issue(quads, hash_name=args.hash), sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def cmd_conformance(args) -> int:
    _ensure_ray()
    from .pipelines.conformance import run_conformance, write_earl_report

    results = run_conformance().to_pandas()
    n, ok = len(results), int(results["passed"].sum())
    for kind, sub in results.groupby("kind"):
        print(f"{kind}: {int(sub['passed'].sum())}/{len(sub)}")
    print(f"total: {ok}/{n}")
    if args.earl:
        write_earl_report(results, args.earl)
        print(f"EARL report -> {args.earl}", file=sys.stderr)
    return 0 if ok == n else 1


def cmd_kg(args) -> int:
    _ensure_ray()
    from .pipelines.kg import run_kg_pipeline

    graphs = run_kg_pipeline(args.sf_dir, output_root=args.out_dir)
    print(f"{graphs.count()} canonical graphs -> {args.out_dir}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="rdf_canon_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("canonicalize", help="canonical N-Quads for a dataset")
    c.add_argument("input")
    c.add_argument("--hash", default="sha256", choices=["sha256", "sha384"])
    c.add_argument("--out", default=None, help="distributed corpus output dir")
    c.set_defaults(fn=cmd_canonicalize)

    i = sub.add_parser("issue", help="canonical label map as JSON")
    i.add_argument("input")
    i.add_argument("--hash", default="sha256", choices=["sha256", "sha384"])
    i.set_defaults(fn=cmd_issue)

    f = sub.add_parser("conformance", help="W3C rdfc10 suite")
    f.add_argument("--earl", default=None, help="write EARL/Turtle report")
    f.set_defaults(fn=cmd_conformance)

    k = sub.add_parser("kg", help="flagship transcript->KG run")
    k.add_argument("sf_dir")
    k.add_argument("out_dir")
    k.set_defaults(fn=cmd_kg)

    args = p.parse_args(argv)
    rc = args.fn(args)
    # only tear down a session this CLI created (callers — tests, other
    # drivers — own theirs)
    if _OWNS_SESSION:
        import ray

        ray.shutdown()
    return rc


if __name__ == "__main__":
    sys.exit(main())
