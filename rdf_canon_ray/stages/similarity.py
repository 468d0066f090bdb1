"""Similarity search over embedding columns (``list<float>``).

* ``cosine_topk``  — brute-force cosine top-k: the query matrix is
  broadcast once (``ray.put``), every batch does one float64 matmul
  against it, emits its local top-k per query, and a final bucketed
  per-query merge keeps the global top-k.  This is the exact baseline.
* ``lsh_cosine_topk`` — the scale path: random-hyperplane signatures
  bucket vectors; only the query's bucket (and optionally neighboring
  probes) is scanned.  Approximate; recall grows with ``n_probes``.
* ``embedding_near_dup_pairs`` — near-duplicate vector pairs
  (cosine ≥ threshold) via the same hyperplane bucketing.

Determinism: scores are float64, ties broken by ascending vec id.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from ..state import metrics, store
from ..util import stage_fn
from .shuffle import bucketed_map_groups, map_buckets


def _normalize(m: np.ndarray) -> np.ndarray:
    m = m.astype(np.float64)
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _topk_idx(col: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Exact top-k indices by (score desc, id asc), boundary-tie-safe in
    O(n): an O(n) partition finds the k-th score, every candidate at or
    above it (ALL boundary ties included) is kept, and only that small
    candidate set pays the lexsort — unlike bare argpartition, which
    picks arbitrarily among k-th-boundary ties."""
    kk = min(k, len(col))
    if kk == 0:
        return np.empty(0, dtype=np.int64)
    kth = -np.partition(-col, kk - 1)[kk - 1]
    cand = np.flatnonzero(col >= kth)
    order = np.lexsort((ids[cand], -col[cand]))[:kk]
    return cand[order]


def _probe_dim(ds: rd.Dataset, vec_col: str) -> int:
    """Vector dimensionality from the schema when it carries it
    (fixed_size_list), falling back to a single-row read otherwise."""
    try:
        import pyarrow as pa

        field = ds.schema().base_schema.field(vec_col)
        if pa.types.is_fixed_size_list(field.type):
            return field.type.list_size
    except Exception:
        pass
    return len(ds.take(1)[0][vec_col])


class BatchTopK:
    """Per-batch exact scores → local top-k rows per query."""

    def __init__(self, queries_ref, k: int, id_col: str, vec_col: str):
        q = ray.get(queries_ref) if not isinstance(queries_ref, np.ndarray) else queries_ref
        self.qn = _normalize(np.asarray(q))
        self.k = k
        self.id_col = id_col
        self.vec_col = vec_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        vecs = np.stack(batch[self.vec_col].to_numpy())
        ids = batch[self.id_col].to_numpy()
        sims = _normalize(vecs) @ self.qn.T  # (n, q)
        k = min(self.k, sims.shape[0])
        out_q, out_id, out_s = [], [], []
        for qi in range(sims.shape[1]):
            col = sims[:, qi]
            idx = _topk_idx(col, ids, k)
            out_q.append(np.full(k, qi, np.int64))
            out_id.append(ids[idx])
            out_s.append(col[idx])
        return pd.DataFrame(
            {
                "query_id": np.concatenate(out_q),
                "vec_id": np.concatenate(out_id),
                "score": np.concatenate(out_s),
            }
        )


def cosine_topk(
    ds: rd.Dataset,
    queries: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    num_buckets: int = 16,
) -> rd.Dataset:
    """Exact brute-force cosine top-k for each query vector.
    Output: (query_id, rank, vec_id, score[rounded 6dp])."""
    qref = ray.put(np.asarray(queries, dtype=np.float64))
    local = ds.map_batches(
        stage_fn(
            BatchTopK, queries_ref=qref, k=k, id_col=id_col, vec_col=vec_col
        ),
        batch_format="pandas",
        batch_size=4096,
    )

    def merge(bucket: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for qid, sub in bucket.groupby("query_id", sort=False):
            sub = sub.sort_values(
                ["score", "vec_id"], ascending=[False, True], kind="mergesort"
            ).head(k)
            sub = sub.assign(rank=np.arange(1, len(sub) + 1, dtype=np.int64))
            outs.append(sub)
        out = pd.concat(outs, ignore_index=True)
        out["score"] = out["score"].round(6)
        return out[["query_id", "rank", "vec_id", "score"]]

    return bucketed_map_groups(local, ["query_id"], merge, num_buckets=num_buckets)


# ------------------------------------------------------------------ LSH
class HyperplaneSigner:
    """Random-hyperplane signature (sign bits → integer bucket)."""

    def __init__(self, planes_ref, id_col: str, vec_col: str):
        p = ray.get(planes_ref) if not isinstance(planes_ref, np.ndarray) else planes_ref
        self.planes = np.asarray(p, dtype=np.float64)  # (n_bits, d)
        self.id_col = id_col
        self.vec_col = vec_col

    def bucket_of(self, vecs: np.ndarray) -> np.ndarray:
        signs = (vecs @ self.planes.T) >= 0  # (n, bits)
        weights = (1 << np.arange(signs.shape[1], dtype=np.int64))
        return signs.astype(np.int64) @ weights

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        vecs = np.stack(batch[self.vec_col].to_numpy()).astype(np.float64)
        out = pd.DataFrame(
            {
                self.id_col: batch[self.id_col].to_numpy(),
                "bucket": self.bucket_of(vecs),
            }
        )
        out[self.vec_col] = list(vecs)
        return out


def make_planes(dim: int, n_bits: int = 8, seed: int = 99) -> np.ndarray:
    rng = np.random.RandomState(seed)
    return rng.normal(size=(n_bits, dim))


def lsh_cosine_topk(
    ds: rd.Dataset,
    queries: np.ndarray,
    k: int = 10,
    n_bits: int = 8,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    seed: int = 99,
) -> rd.Dataset:
    """Approximate top-k: scan only vectors sharing the query's
    hyperplane bucket. Output schema matches ``cosine_topk`` (+ bucket).
    """
    queries = np.asarray(queries, dtype=np.float64)
    dim = queries.shape[1]
    planes = make_planes(dim, n_bits, seed)
    planes_ref = ray.put(planes)
    signer = HyperplaneSigner(planes, id_col, vec_col)
    qbuckets = signer.bucket_of(queries)
    qn = _normalize(queries)
    qref = ray.put(qn)
    qb_ref = ray.put(qbuckets)

    signed = ds.map_batches(
        stage_fn(
            HyperplaneSigner, planes_ref=planes_ref, id_col=id_col, vec_col=vec_col
        ),
        batch_format="pandas",
        batch_size=4096,
    )

    def scan_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        qn_local = ray.get(qref)
        qb_local = ray.get(qb_ref)
        outs = []
        for bval, sub in bucket.groupby("bucket", sort=False):
            q_idx = np.flatnonzero(qb_local == bval)
            if len(q_idx) == 0:
                continue
            vecs = _normalize(np.stack(sub[vec_col].to_numpy()))
            ids = sub[id_col].to_numpy()
            sims = vecs @ qn_local[q_idx].T
            for j, qi in enumerate(q_idx):
                col = sims[:, j]
                idx = _topk_idx(col, ids, k)
                outs.append(
                    pd.DataFrame(
                        {
                            "query_id": np.full(len(idx), qi, np.int64),
                            "rank": np.arange(1, len(idx) + 1, dtype=np.int64),
                            "vec_id": ids[idx],
                            "score": np.round(col[idx], 6),
                        }
                    )
                )
        if not outs:
            return pd.DataFrame(
                {
                    "query_id": pd.Series([], dtype="int64"),
                    "rank": pd.Series([], dtype="int64"),
                    "vec_id": pd.Series([], dtype="int64"),
                    "score": pd.Series([], dtype="float64"),
                }
            )
        return pd.concat(outs, ignore_index=True)

    return bucketed_map_groups(signed, ["bucket"], scan_bucket, num_buckets=16)


def train_ivf_centroids(
    sample: np.ndarray, n_lists: int = 16, n_iters: int = 10
) -> np.ndarray:
    """Deterministic spherical k-means on a driver-side sample: init =
    first ``n_lists`` sample rows (no RNG), fixed iteration count.  At
    corpus scale the sample is a `ds.limit(...)` pull — training stays a
    small driver-side step, assignment/search stay distributed."""
    c = _normalize(sample[:n_lists].copy())
    xs = _normalize(sample)
    for _ in range(n_iters):
        assign = (xs @ c.T).argmax(axis=1)
        for j in range(n_lists):
            sel = xs[assign == j]
            if len(sel):
                c[j] = sel.mean(axis=0)
        c = _normalize(c)
    return c


def ivf_cosine_topk(
    ds: rd.Dataset,
    queries: np.ndarray,
    k: int = 10,
    n_lists: int = 16,
    n_probes: int = 4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    train_sample: int = 1024,
) -> rd.Dataset:
    """IVF approximate top-k: vectors are assigned to their nearest
    centroid's inverted list (grouped shuffle on the list id); each query
    scans only its ``n_probes`` closest lists.  Output schema matches
    ``cosine_topk``; recall grows with ``n_probes`` (== n_lists ⇒ exact).
    """
    queries = np.asarray(queries, dtype=np.float64)
    centroids, assigned = _train_and_assign(
        ds, n_lists, train_sample, id_col, vec_col
    )
    return _ivf_probe_and_scan(
        assigned, centroids, queries, k, n_probes, id_col, vec_col
    )


def _train_and_assign(ds, n_lists, train_sample, id_col, vec_col):
    """Shared centroid training + list assignment (one definition so
    the in-memory and persisted-index paths can never drift apart)."""
    sample = np.stack(
        [r[vec_col] for r in ds.limit(train_sample).take(train_sample)]
    ).astype(np.float64)
    centroids = train_ivf_centroids(sample, n_lists)
    cref = ray.put(centroids)
    assigned = ds.map_batches(
        stage_fn(_AssignList, cref=cref, id_col=id_col, vec_col=vec_col),
        batch_format="pandas",
        batch_size=4096,
    )
    return centroids, assigned


class _AssignList:
    """Vector → nearest-centroid inverted-list assignment (centroids
    broadcast once per worker process)."""

    def __init__(self, cref, id_col, vec_col):
        self.c = ray.get(cref) if not isinstance(cref, np.ndarray) else cref
        self.id_col = id_col
        self.vec_col = vec_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        vecs = np.stack(batch[self.vec_col].to_numpy()).astype(np.float64)
        lists = (_normalize(vecs) @ self.c.T).argmax(axis=1)
        out = pd.DataFrame(
            {self.id_col: batch[self.id_col].to_numpy(), "ivf_list": lists}
        )
        out[self.vec_col] = list(vecs)
        return out


def _ivf_probe_and_scan(
    assigned: rd.Dataset,
    centroids: np.ndarray,
    queries: np.ndarray,
    k: int,
    n_probes: int,
    id_col: str,
    vec_col: str,
) -> rd.Dataset:
    """Shared IVF query phase: probe selection → per-list scan →
    per-query global merge (shape shared by the in-memory and the
    persisted-index paths)."""
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    probes = np.argsort(-(qn @ centroids.T), axis=1)[:, :n_probes]
    qref = ray.put(qn)
    probes_ref = ray.put(probes)

    def scan(bucket: pd.DataFrame) -> pd.DataFrame:
        qn_l = ray.get(qref)
        probes_l = ray.get(probes_ref)
        outs = []
        for lst, sub in bucket.groupby("ivf_list", sort=False):
            q_idx = np.flatnonzero((probes_l == lst).any(axis=1))
            if len(q_idx) == 0:
                continue
            vecs = _normalize(np.stack(sub[vec_col].to_numpy()))
            ids = sub[id_col].to_numpy()
            sims = vecs @ qn_l[q_idx].T
            for j, qi in enumerate(q_idx):
                col = sims[:, j]
                idx = _topk_idx(col, ids, k)
                outs.append(
                    pd.DataFrame(
                        {
                            "query_id": np.full(len(idx), qi, np.int64),
                            "vec_id": ids[idx],
                            "score": col[idx],
                        }
                    )
                )
        if not outs:
            return pd.DataFrame(
                {
                    "query_id": pd.Series([], dtype="int64"),
                    "vec_id": pd.Series([], dtype="int64"),
                    "score": pd.Series([], dtype="float64"),
                }
            )
        return pd.concat(outs, ignore_index=True)

    partial = bucketed_map_groups(assigned, ["ivf_list"], scan, num_buckets=8)

    def merge(bucket: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for qid, sub in bucket.groupby("query_id", sort=False):
            sub = sub.sort_values(
                ["score", "vec_id"], ascending=[False, True], kind="mergesort"
            ).head(k)
            sub = sub.assign(rank=np.arange(1, len(sub) + 1, dtype=np.int64))
            outs.append(sub)
        out = pd.concat(outs, ignore_index=True)
        out["score"] = out["score"].round(6)
        return out[["query_id", "rank", "vec_id", "score"]]

    return bucketed_map_groups(partial, ["query_id"], merge, num_buckets=4)


def ivf_index_build(
    ds: rd.Dataset,
    out_dir: str,
    n_lists: int = 16,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    train_sample: int = 1024,
) -> str:
    """Persist an IVF index: ``centroids.parquet`` + one
    ``list=N/data.parquet`` partition per NON-EMPTY inverted list,
    published through ``state.store`` with ``n_lists`` and ``lists``
    (list id → rows, the query side's corruption check — absence of a
    manifested partition fails loudly) in the manifest.  Idempotent,
    but a published index is VALIDATED against ``n_lists`` before
    reuse, and a non-empty ``out_dir`` that is not a published index is
    refused: the path is caller-chosen, so it can never silently serve
    a different geometry or replace someone else's directory.  Build
    once, query many — queries read only their probed partitions, so
    query I/O scales with n_probes/n_lists of the corpus, not the
    corpus."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    existing = store.manifest(out_dir)
    if existing is not None:
        if existing.get("n_lists") != n_lists:
            raise ValueError(
                f"existing IVF index at {out_dir} has "
                f"{existing.get('n_lists')} lists, requested n_lists={n_lists} — "
                "remove it or use a different path"
            )
        return out_dir
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        raise FileExistsError(
            f"{out_dir} is non-empty and not an IVF index — remove it "
            "or use a different path"
        )

    def build(tmp: str) -> dict:
        centroids, assigned = _train_and_assign(
            ds, n_lists, train_sample, id_col, vec_col
        )
        pq.write_table(
            pa.table(
                {
                    "list_id": pa.array(np.arange(n_lists), pa.int64()),
                    "centroid": pa.array(
                        [c.tolist() for c in centroids], pa.list_(pa.float64())
                    ),
                }
            ),
            os.path.join(tmp, "centroids.parquet"),
        )

        def write_list(group: pd.DataFrame) -> pd.DataFrame:
            lst = int(group["ivf_list"].iloc[0])
            pdir = os.path.join(tmp, f"list={lst}")
            os.makedirs(pdir, exist_ok=True)
            group.drop(columns=["_bucket"]).sort_values(
                id_col, kind="mergesort"
            ).to_parquet(os.path.join(pdir, "data.parquet"), index=False)
            return pd.DataFrame({"list_id": [lst], "rows": [len(group)]})

        # the inverted list id is already a bucket id in [0, n_lists)
        written = map_buckets(
            assigned.add_column("_bucket", lambda b: b["ivf_list"]),
            n_lists,
            write_list,
        ).to_pandas()
        lists = {
            str(int(l)): int(r)
            for l, r in sorted(zip(written["list_id"], written["rows"]))
        }
        return {"n_lists": n_lists, "lists": lists}

    return store.publish(out_dir, build)


def ivf_cosine_topk_persisted(
    index_dir: str,
    queries: np.ndarray,
    k: int = 10,
    n_probes: int = 4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> rd.Dataset:
    """IVF query against a PERSISTED index with partition pruning: only
    the probed lists' parquet partitions are read — the build-once
    query-many shape for ANN at corpus scale.  Output is byte-identical
    to ``ivf_cosine_topk`` built from the same data (same centroids,
    same scan/merge)."""
    import os

    import pyarrow.parquet as pq

    cent_tbl = pq.read_table(os.path.join(index_dir, "centroids.parquet"))
    order = np.argsort(cent_tbl["list_id"].to_numpy())
    centroids = np.stack(cent_tbl["centroid"].to_pylist())[order]

    qn = _normalize(np.asarray(queries, dtype=np.float64))
    probes = np.argsort(-(qn @ centroids.T), axis=1)[:, :n_probes]
    probed = sorted(set(int(x) for x in probes.ravel()))
    # the build's manifest is the authority on which lists exist:
    # a probed list IN the manifest whose partition file is gone is a
    # corrupt/partial index and must fail loudly — silently skipping a
    # probed partition would be an unreported recall loss (lists absent
    # from the manifest were legitimately empty at build time)
    published = store.manifest(index_dir)
    if published is None:
        raise FileNotFoundError(
            f"IVF index {index_dir} has no manifest — not a valid "
            "index (rebuild with ivf_index_build)"
        )
    manifest = {int(k): v for k, v in published["lists"].items()}
    missing = [
        n for n in probed
        if n in manifest
        and not os.path.exists(
            os.path.join(index_dir, f"list={n}", "data.parquet")
        )
    ]
    if missing:
        raise FileNotFoundError(
            f"IVF index {index_dir} is corrupt: manifested list "
            f"partitions {missing} are missing their data files"
        )
    files = [
        os.path.join(index_dir, f"list={n}", "data.parquet")
        for n in probed
        if n in manifest
    ]
    if not files:
        raise FileNotFoundError(
            f"IVF index {index_dir} has no partitions for probed lists "
            f"{probed} — index built from an empty dataset?"
        )
    return _ivf_probe_and_scan(
        store.read(files), centroids, queries, k, n_probes, id_col, vec_col
    )


def embedding_near_dup_pairs(
    ds: rd.Dataset,
    threshold: float = 0.95,
    n_bits: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    seed: int = 7,
    num_buckets: int = 16,
    bucket_cap: int = 2000,
) -> rd.Dataset:
    """Vector near-dup pairs (cosine ≥ threshold) within hyperplane
    buckets. Output: (id_a, id_b, score).  Buckets above ``bucket_cap``
    are skipped with the dropped pair count reported via metrics."""
    metrics.ensure()
    dim = _probe_dim(ds, vec_col)
    planes_ref = ray.put(make_planes(dim, n_bits, seed))
    signed = ds.map_batches(
        stage_fn(
            HyperplaneSigner, planes_ref=planes_ref, id_col=id_col, vec_col=vec_col
        ),
        batch_format="pandas",
        batch_size=4096,
    )

    def pairs(bucket: pd.DataFrame) -> pd.DataFrame:
        outs = []
        dropped = 0
        for _, sub in bucket.groupby("bucket", sort=False):
            if len(sub) < 2:
                continue
            if len(sub) > bucket_cap:
                n = len(sub)
                dropped += n * (n - 1) // 2
                continue
            ids = sub[id_col].to_numpy()
            order = np.argsort(ids)
            ids = ids[order]
            vecs = _normalize(np.stack(sub[vec_col].to_numpy()))[order]
            sims = vecs @ vecs.T
            ia, ib = np.triu_indices(len(ids), k=1)
            keep = sims[ia, ib] >= threshold
            outs.append(
                pd.DataFrame(
                    {
                        "id_a": ids[ia[keep]],
                        "id_b": ids[ib[keep]],
                        "score": np.round(sims[ia[keep], ib[keep]], 6),
                    }
                )
            )
        metrics.incr("embedding_neardup_pairs_dropped", dropped)
        if not outs:
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype="int64"),
                    "id_b": pd.Series([], dtype="int64"),
                    "score": pd.Series([], dtype="float64"),
                }
            )
        return pd.concat(outs, ignore_index=True)

    return bucketed_map_groups(signed, ["bucket"], pairs, num_buckets=num_buckets)


def quantize_embeddings_int8(
    ds: rd.Dataset,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> rd.Dataset:
    """Symmetric per-vector int8 quantization (the compression step in
    front of ANN at corpus scale: 4× smaller than float32, 8× than
    float64; cosine search dequantizes with one scale multiply).
    Map-only and fully vectorized: ``q = round_even(x·127 / max|x|)``.

    Output: (id, scale[6dp], q list<int8>) plus the oracle-checkable
    summary columns qsum/qmin/qmax."""

    def quant(batch: pd.DataFrame) -> pd.DataFrame:
        vecs = np.stack(batch[vec_col].to_numpy()).astype(np.float64)
        mx = np.abs(vecs).max(axis=1, keepdims=True)
        safe = np.where(mx == 0, 1.0, mx)
        # x·127/mx (this exact expression — the SQL oracle replays the
        # same IEEE op order; x/(mx/127) rounds differently)
        q = np.round(vecs * 127.0 / safe).astype(np.int8)
        q[np.broadcast_to(mx == 0, q.shape)] = 0
        return pd.DataFrame(
            {
                id_col: batch[id_col].to_numpy(),
                "scale": np.round(mx[:, 0] / 127.0, 6),
                "q": list(q),
                "qsum": q.astype(np.int64).sum(axis=1),
                "qmin": q.min(axis=1).astype(np.int64),
                "qmax": q.max(axis=1).astype(np.int64),
            }
        )

    return ds.map_batches(quant, batch_format="pandas", batch_size=4096)


def knn_join(
    ds: rd.Dataset,
    ref_ids: np.ndarray,
    ref_vecs: np.ndarray,
    k: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> rd.Dataset:
    """KNN join against a broadcast reference set: for EVERY row of
    ``ds``, the top-k most-similar vectors from ``ref_vecs`` (cosine,
    ties by ascending ref id).  Map-only — the reference matrix ships
    once via ``ray.put`` and each batch does one matmul, so the operator
    scales with the corpus while the reference set (a benchmark, a
    centroid book, a dedup target) stays the small side.

    Output: (vec_id, rank, nn_id, score[rounded 6dp])."""
    order = np.argsort(ref_ids)
    ref_ids = np.asarray(ref_ids)[order]
    rn = _normalize(np.asarray(ref_vecs, dtype=np.float64)[order])
    ref = ray.put((ref_ids, rn))

    def per_batch(batch: pd.DataFrame) -> pd.DataFrame:
        ids_r, rn_l = ray.get(ref)
        vecs = _normalize(np.stack(batch[vec_col].to_numpy()))
        ids = batch[id_col].to_numpy()
        sims = vecs @ rn_l.T  # (n, m)
        n, kk = len(ids), min(k, sims.shape[1])
        # top-k per row with (score desc, ref id asc) tie-break: ref
        # columns are pre-sorted by ref id, so a STABLE full argsort on
        # -sims resolves exact score ties by ascending nn_id — unlike
        # argpartition, which picks arbitrarily at the k-th boundary.
        idx = np.argsort(-sims, axis=1, kind="stable")[:, :kk]
        return pd.DataFrame(
            {
                "vec_id": np.repeat(ids, kk),
                "rank": np.tile(np.arange(1, kk + 1, dtype=np.int64), n),
                "nn_id": ids_r[idx].ravel(),
                "score": np.round(
                    np.take_along_axis(sims, idx, axis=1), 6
                ).ravel(),
            }
        )

    return ds.map_batches(
        per_batch, batch_format="pandas", batch_size=2048
    )
