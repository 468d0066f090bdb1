"""The two knowledge-graph workloads over a seeded sf-style corpus.

``kg_shuffle``: the flagship ``kg.canonical_graphs_dataset`` — the one
all-to-all path (mentions exchange, then the bucket kernel).
``kg_partitioned``: the map-only ``kg.canonical_graphs_partitioned`` over
the conversation-bucket layout, plus the incremental refresh
``kg.canonical_incremental`` against a ``kg.canonical_store`` built in
set-up.  Both consume their Dataset through ``iter_batches``.
"""

from __future__ import annotations

import importlib
import os
import shutil
import time

from . import checks, corpus
from .common import (
    map_only_roles,
    median,
    operator_roles,
    ray_cpus,
    ray_session,
    redirect_program_cache,
    shuffle_roles,
    timed,
)
from .metrics import per_layer

N_ORDERS = 3000
NUM_BUCKETS = 128  # conversation-bucket layout of the partitioned path
DELTA_MOD = 8  # buckets b % 8 == 0 are the refresh's new arrivals
SETUP_REPS = 3
_EXTRACT_COLS = ["conv_id", "turn_idx", "role", "text"]
_OUT_COLS = ["graph_id", "canon_nquads", "n_quads", "n_bnodes", "status"]


def _consume(ds) -> "pa.Table":
    """Pull every output block to the driver as Arrow."""
    import pyarrow as pa

    cols = None
    parts = []
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        cols = cols or [c for c in _OUT_COLS if c in b.column_names]
        parts.append(b.select(cols))
    return pa.concat_tables(parts) if parts else pa.table({})


def _build_and_consume(make) -> tuple:
    """(Dataset, output table): the pipeline call and the consumption of
    its result, timed together."""
    ds = make()
    return ds, _consume(ds)


def _delta_ids(conv_ids) -> set:
    """Conversation ids in the refresh delta: the layout's buckets with
    ``b % DELTA_MOD == 0``, hashed by the program's own bucketing."""
    import pandas as pd

    from rdf_canon_ray.stages.shuffle import add_bucket

    df = add_bucket(pd.DataFrame({"conv_id": list(conv_ids)}), ["conv_id"], NUM_BUCKETS)
    return set(df.loc[df["_bucket"] % DELTA_MOD == 0, "conv_id"])


class KgWorkload:
    def __init__(self, name: str, seed: int, work: str, spans):
        self.name = name
        self.work = work
        self.spans = spans
        self.cache_root = os.path.join(work, "cache")
        self.sf = corpus.write_sf_corpus(os.path.join(work, "data"), seed, N_ORDERS)
        self.expected = checks.derived_sizes(self.sf)
        self.delta = _delta_ids(self.expected)

    # -- program calls ---------------------------------------------------
    def setup_once(self) -> dict:
        """One cold set-up from an empty program cache for this corpus,
        then the first pass over it (``warm_s``), which on ``kg_shuffle``
        is where the broadcast link maps are built."""
        from rdf_canon_ray.pipelines import kg
        from rdf_canon_ray.transcripts import gen

        shutil.rmtree(os.path.join(self.cache_root, os.path.basename(self.sf)),
                      ignore_errors=True)
        # the per-session cache of the broadcast link-map ref: every cold
        # set-up pays for the dimension-table reads and the ray.put
        getattr(kg, "_LINK_MAPS_REF", {}).pop(self.sf, None)
        t = dict.fromkeys(("transcripts_s", "layout_s", "store_build_s"), 0.0)
        sp = self.spans.span
        if self.name == "kg_shuffle":
            with sp("setup.transcripts"):
                t["transcripts_s"], self.transcripts = timed(gen.transcripts_parquet, self.sf)
        else:
            with sp("setup.layout"):
                t["layout_s"], self.layout = timed(
                    kg.transcripts_parquet_partitioned, self.sf, NUM_BUCKETS)
            with sp("setup.store_build"):
                t["store_build_s"], _ = timed(
                    kg.canonical_store, self.sf, NUM_BUCKETS, DELTA_MOD)
        with sp("setup.warm"):
            t["warm_s"] = self.run_pass("main")[0]
        return t

    def main_ds(self):
        from rdf_canon_ray.pipelines import kg

        if self.name == "kg_shuffle":
            return kg.canonical_graphs_dataset(self.sf)
        return kg.canonical_graphs_partitioned(self.sf, NUM_BUCKETS)

    def refresh_ds(self):
        from rdf_canon_ray.pipelines import kg

        if self.name == "kg_shuffle":
            import ray.data as rd

            return kg.canonical_graphs_dataset(
                self.sf, transcripts=rd.read_parquet(self.delta_path))
        return kg.canonical_incremental(self.sf, NUM_BUCKETS, DELTA_MOD)

    def write_delta_transcripts(self) -> None:
        """Benchmark input for the shuffle refresh: the transcript rows
        of the delta conversations, as one parquet file."""
        import pyarrow as pa
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        t = pq.read_table(self.transcripts, columns=_EXTRACT_COLS)
        t = t.filter(pc.is_in(t["conv_id"], pa.array(sorted(self.delta))))
        self.delta_path = os.path.join(self.work, "delta_transcripts.parquet")
        pq.write_table(t, self.delta_path)

    # -- timed run ---------------------------------------------------------
    def run_pass(self, which: str, roles=None):
        make = self.main_ds if which == "main" else self.refresh_ds
        with self.spans.span(f"pass.{which}"):
            t, (ds, table) = timed(_build_and_consume, make)
        ops = operator_roles(ds, roles) if roles else {}
        return t, table, ops


def _check(w: KgWorkload, mains: list, refreshes: list, seed: int,
           cross_paths: bool) -> tuple:
    """(attempted, failed graph count, detail) over every pass; with
    ``cross_paths`` on ``kg_partitioned``, also the three-path digest."""
    attempted, failed, detail = 0, 0, {}
    first = None
    for table in mains:
        rows = checks.graph_rows(table)
        bad = checks.failed_graphs(rows, w.expected)
        hashes = checks.doc_hashes(rows)
        if first is None:
            first = hashes
            bad |= checks.fixed_point_failures(
                {g: r["canon_nquads"] for g, r in rows.items() if r}, seed)
        bad |= checks.mismatched(first, hashes)  # passes must agree
        attempted += len(w.expected)
        failed += len(bad)
    detail["digest"] = checks.digest(first)
    for table in refreshes:
        rows = checks.graph_rows(table)
        if w.name == "kg_shuffle":
            expected = {g: w.expected[g] for g in w.delta}
            bad = checks.failed_graphs(rows, expected)
            bad |= checks.mismatched(first, checks.doc_hashes(rows), w.delta)
        else:  # sizes view over the full corpus
            expected = w.expected
            bad = checks.failed_graphs(rows, expected)
        attempted += len(expected)
        failed += len(bad)
    if cross_paths and w.name == "kg_partitioned":
        # one digest across all three paths on this corpus: the shuffle
        # flagship reading the layout, the partitioned pass, and the
        # refresh's merged store ∪ delta documents
        import ray.data as rd

        from rdf_canon_ray.pipelines import kg

        others = {
            "shuffle": kg.canonical_graphs_dataset(
                w.sf, transcripts=rd.read_parquet(w.layout, columns=_EXTRACT_COLS)),
            "refresh": kg.canonical_incremental_full(w.sf, NUM_BUCKETS, DELTA_MOD),
        }
        for name, ds in others.items():
            hashes = checks.doc_hashes(checks.graph_rows(_consume(ds)))
            detail[f"digest_{name}"] = checks.digest(hashes)
            failed += len(checks.mismatched(first, hashes))
            attempted += len(w.expected)
    return attempted, failed, detail


def _replay(w: KgWorkload) -> dict:
    """Single-process replay of the bucket kernel on the same corpus,
    one span per public call: extract (the workload's own kernel) →
    link → iter_graph_tuples →
    add_structure_quads → canonicalize_quads_with_map, then parse and
    issue (with a CanonTrace) on the canonical output."""
    import pyarrow.parquet as pq

    from rdf_canon_ray.core import nquads
    from rdf_canon_ray.core.canon import canonicalize_quads_with_map, issue
    from rdf_canon_ray.core.trace import CanonTrace
    from rdf_canon_ray.stages.canonicalize import add_structure_quads, iter_graph_tuples
    from rdf_canon_ray.transcripts.extract import (
        EntityLinker,
        build_link_maps,
        extract_mentions_arrow,
        extract_mentions_batch,
    )

    if w.name == "kg_partitioned":  # the layout's part files
        chunks = [pq.read_table(os.path.join(w.layout, d, "data.parquet"))
                  for d in sorted(os.listdir(w.layout)) if d.startswith("part=")]
    else:  # the transcript cache, cut at conversation boundaries
        t = pq.read_table(w.transcripts).sort_by("conv_id")
        ids = t["conv_id"].to_numpy(zero_copy_only=False)
        starts = [i for i in range(len(ids)) if i == 0 or ids[i] != ids[i - 1]]
        cuts = starts[:: -(-len(starts) // 8)] + [len(ids)]  # 8 chunks
        chunks = [t.slice(a, b - a) for a, b in zip(cuts, cuts[1:])]

    sp = w.spans.span
    counts = dict(mentions=0, quads=0, bnodes=0, hndq_groups=0, graphs=0)
    docs = {}
    linker = EntityLinker(build_link_maps(w.sf))
    with sp("replay"):
        for i, chunk in enumerate(chunks):
            with sp("chunk", index=i):
                # only the workload's own extraction path: Arrow extract,
                # then the pandas batch the exchange hands the bucket; or
                # the part task's pandas read, then pandas extract
                if w.name == "kg_shuffle":
                    with sp("extract_arrow"):
                        mentions = extract_mentions_arrow(chunk.select(_EXTRACT_COLS))
                    with sp("to_pandas"):
                        mentions = mentions.to_pandas()
                else:
                    with sp("to_pandas"):
                        df = chunk.to_pandas()
                    with sp("extract_pandas"):
                        mentions = extract_mentions_batch(df)
                counts["mentions"] += len(mentions)
                with sp("link"):
                    quads = linker(mentions)
                with sp("marshal"):
                    graphs = list(iter_graph_tuples(quads))
                with sp("structure"):
                    graphs = [(g, add_structure_quads(q, g)) for g, q in graphs]
                with sp("rdfc"):
                    out = [(g, canonicalize_quads_with_map(q)[0]) for g, q in graphs]
                with sp("parse"):
                    parsed = [nquads.parse(doc) for _, doc in out]
                with sp("issue"):
                    for q in parsed:
                        tr = CanonTrace()
                        issue(q, trace=tr)
                        counts["hndq_groups"] += len(tr.shared_groups)
                        counts["bnodes"] += len(tr.final_map)
                counts["graphs"] += len(out)
                counts["quads"] += sum(len(q) for _, q in graphs)
                docs.update((g, checks.doc_hash(d)) for g, d in out)
    counts["docs"] = docs
    return counts


def run(name: str, seed: int, seconds: float, trace: bool, work: str, spans) -> dict:
    import_s, _ = timed(importlib.import_module, "rdf_canon_ray")
    w = KgWorkload(name, seed, work, spans)
    ncpu = ray_cpus()
    roles = shuffle_roles if name == "kg_shuffle" else map_only_roles
    with ray_session(work, ncpu) as ray_init_s:
        redirect_program_cache(w.cache_root)
        reps = [w.setup_once() for _ in range(1 if trace else SETUP_REPS)]
        setup = {k: median(r[k] for r in reps) for k in reps[0]}
        setup.update(import_s=import_s, ray_init_s=ray_init_s)
        if name == "kg_shuffle":
            w.write_delta_transcripts()
        # one-off phases plus the median cold set-up (sum per repetition)
        setup_s = import_s + ray_init_s + median(sum(r.values()) for r in reps)

        mains, refreshes, t_main, t_refresh = [], [], [], []
        out = {"setup": setup}
        if trace:
            t0, table, _ = w.run_pass("main")
            # the traced pass's time includes reading the operator stats
            t1, (_, traced, ops) = timed(w.run_pass, "main", roles)
            _, refresh, r_ops = w.run_pass("refresh", roles)
            mains, refreshes = [table, traced], [refresh]
            ops.update({k: v for k, v in r_ops.items() if k == "store_read"})
            out["operators"] = ops
            out["trace_times"] = (t0, t1)
        else:
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline or len(t_main) < 3:
                t, table, _ = w.run_pass("main")
                t_main.append(t)
                mains.append(table)
                t, table, _ = w.run_pass("refresh")
                t_refresh.append(t)
                refreshes.append(table)
        # the three-path digest costs two extra jobs: traced runs only
        attempted, failed, detail = _check(w, mains, refreshes, seed, trace)
    out.update(attempted=attempted, failed=failed, detail=detail)
    if trace:
        counts = _replay(w)
        replay_docs = counts.pop("docs")
        rows = checks.graph_rows(mains[-1])
        bad = checks.mismatched(checks.doc_hashes(rows), replay_docs)
        out["failed"] += len(bad)
        out["attempted"] += len(w.expected)
        counts["quarantined"] = sum(
            r["status"] == "quarantined" for r in rows.values() if r)
        out["counts"] = counts
        out["per_layer"] = per_layer(out, spans, counts)
    else:
        n = len(w.expected)
        out["end_to_end"] = {
            "graphs_per_s": n / median(t_main),
            "refresh_s": median(t_refresh),
            "setup_s": setup_s,
        }
        out["passes"] = {"main_s": t_main, "refresh_s": t_refresh}
    return out

