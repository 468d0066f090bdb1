"""Deduplication family over document corpora.

Exact and near-dup operators, each expressed Ray-Data-first:

* ``exact_dedup``      — content-hash partition + per-group min-id keep.
* ``minhash_lsh_pairs``/``minhash_dup_groups`` — shingle → minhash
  signature → banded LSH buckets → candidate pairs (with band-match
  counts) → exact-Jaccard verification via a bucketed text join →
  verified pairs.
* ``dup_groups_from_pairs`` — distributed connected components by
  iterated min-label propagation (one bucketed join + grouped min per
  round).
* ``simhash_pairs``    — 64-bit simhash, 16-bit band blocking, Hamming
  verification.

Scale notes (the partitioning assumptions each operator relies on):
- signature/banding stages are map-only; the shuffles are the bucketed
  groupbys on (band_id, band_hash) and (id_a, id_b) — bounded fan-in,
  skew-safe because identical band hashes ARE the near-dup signal.
- pair verification joins both texts onto each candidate pair with two
  partitioned hash joins (pairs and documents co-bucketed on the doc
  id).  Nothing is materialized on the driver and no full-corpus
  broadcast exists on the path; when verified survivors are known to be
  sparse, a broadcast survivor-id semi-filter on the text side is a
  further (optional) pruning, not a correctness requirement.
- the band-match count ``m`` (number of LSH bands in which a pair
  collides) is computed for free by summing per-bucket partial counts,
  and prunes candidates before the text join: for threshold t ≥ 0.7
  with 32 bands of 4 rows, a true pair (j ≥ t) misses ``m ≥ 2`` with
  probability < 2e-6, while sub-threshold collisions are ~4× less
  likely to survive.  For lower thresholds the filter degrades to
  ``m ≥ 1`` (= plain LSH candidacy) to protect recall.
- connected components for groups: min-label propagation over the pair
  edge list, iterated to fixpoint; each round is one partitioned hash
  join (labels onto edges) plus one bucketed grouped min, and the only
  per-round materialization is the label table (one row per node that
  appears in a duplicate pair — output-scale, not corpus-scale).
- every bounded bucket (LSH candidate cap, simhash bucket skip) reports
  its drop count through ``state.metrics`` — no silent recall caps.
"""

from __future__ import annotations

import hashlib
import numpy as np
import pandas as pd
import ray.data as rd

from ..state import metrics
from ..util import stage_fn, stage_instance
from .shuffle import bucketed_map_groups, cogroup, grouped_agg

_MERSENNE = (1 << 61) - 1


def _md5_hex(s: str) -> str:
    return hashlib.md5(s.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------- exact
def _content_hash_batch(
    batch: pd.DataFrame, id_col: str = "doc_id", text_col: str = "text"
) -> pd.DataFrame:
    hashes = batch[text_col].map(_md5_hex)
    if len(batch) == 0:
        # an empty object column carries no type: Arrow would read null
        hashes = hashes.astype("string")
    return pd.DataFrame(
        {
            "content_hash": hashes,
            id_col: batch[id_col].to_numpy(),
            "n_dups": np.ones(len(batch), np.int64),
        }
    )


def exact_dedup(
    ds: rd.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_buckets: int = 64,
) -> rd.Dataset:
    """Exact dedup: md5(text) → grouped min(id). Returns one row per
    distinct content: ``(doc_id=min id, content_hash, n_dups)``."""
    import functools

    hashed = ds.map_batches(
        functools.partial(_content_hash_batch, id_col=id_col, text_col=text_col),
        batch_format="pandas",
        batch_size=8192,
    )
    return grouped_agg(
        hashed,
        ["content_hash"],
        {id_col: "min", "n_dups": "sum"},
        num_buckets=num_buckets,
    )


# -------------------------------------------------------------- minhash
def _shingle_set(text: str, k: int, mode: str) -> set:
    if mode == "word":
        w = text.split()
        if len(w) < k:
            return {text}
        return {" ".join(w[i : i + k]) for i in range(len(w) - k + 1)}
    if len(text) < k:
        return {text}
    return {text[i : i + k] for i in range(len(text) - k + 1)}


_FNV = np.uint64(1099511628211)
_FNV_OFFSET = np.uint64(14695981039346656037)


def _shingle_hashes(text: str, k: int, mode: str = "char") -> np.ndarray:
    """64-bit hashes of the unique k-shingles.

    Char mode is fully vectorized: UTF-8 byte windows × a polynomial
    rolling hash in natural uint64 wraparound (any deterministic 64-bit
    hash serves minhash; the md5-per-shingle Python loop was ~100× the
    cost of the rest of the signature). Word mode (few shingles per doc)
    keeps md5."""
    if mode == "word":
        shingles = _shingle_set(text, k, mode)
        return np.fromiter(
            (
                int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "big")
                for s in shingles
            ),
            dtype=np.uint64,
            count=len(shingles),
        )
    data = text.encode("utf-8")
    if len(data) < k:
        return np.array(
            [int.from_bytes(hashlib.md5(data).digest()[:8], "big")],
            dtype=np.uint64,
        )
    b = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    windows = np.lib.stride_tricks.sliding_window_view(b, k)
    powers = np.empty(k, dtype=np.uint64)
    acc = np.uint64(1)
    with np.errstate(over="ignore"):  # uint64 wraparound is intended
        for i in range(k - 1, -1, -1):
            powers[i] = acc
            acc = acc * _FNV
        h = (windows * powers[None, :]).sum(axis=1, dtype=np.uint64)
    return np.unique(h)


class MinHasher:
    """Per-doc minhash signatures (n_perm universal hashes, vectorized
    over each doc's shingle set). Hash parameters derive from a fixed
    seed → identical across workers and runs."""

    def __init__(
        self,
        id_col: str = "doc_id",
        text_col: str = "text",
        n_perm: int = 128,
        shingle_k: int = 5,
        shingle_mode: str = "char",
        seed: int = 1234,
    ):
        rng = np.random.RandomState(seed)
        self.a = (
            rng.randint(1, _MERSENNE, size=n_perm, dtype=np.int64)
            .astype(np.uint64)
        )
        self.b = (
            rng.randint(0, _MERSENNE, size=n_perm, dtype=np.int64)
            .astype(np.uint64)
        )
        self.id_col = id_col
        self.text_col = text_col
        self.n_perm = n_perm
        self.k = shingle_k
        self.mode = shingle_mode

    def signature(self, text: str) -> np.ndarray:
        x = _shingle_hashes(text, self.k, self.mode)
        # (n_shingles, n_perm) universal hashing in uint64 modular space
        hv = (x[:, None] * self.a[None, :] + self.b[None, :]) % np.uint64(
            _MERSENNE
        )
        return hv.min(axis=0)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({self.id_col: batch[self.id_col].to_numpy()})
        if len(batch) == 0:
            out["sig"] = pd.Series([], dtype=object)
            return out
        sigs = np.stack([self.signature(t) for t in batch[self.text_col]])
        out["sig"] = list(sigs)
        return out


class BandEmitter:
    """Signature → (band_id, band_hash, doc_id) rows for LSH blocking.

    Band hashes are a vectorized FNV-style fold of each band's r
    signature slots in uint64 wraparound — one (n_docs, n_bands) array
    op per batch instead of a per-doc-per-band digest loop.  Any
    deterministic mixing works: candidacy only uses band-hash equality,
    and unequal bands colliding is ~2^-64."""

    def __init__(self, id_col: str = "doc_id", n_bands: int = 32, n_perm: int = 128):
        assert n_perm % n_bands == 0
        self.id_col = id_col
        self.n_bands = n_bands
        self.rows_per_band = n_perm // n_bands

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame(
                {
                    "band_id": pd.Series([], dtype=np.int32),
                    "band_hash": pd.Series([], dtype=np.int64),
                    self.id_col: pd.Series([], dtype="int64"),
                }
            )
        sig = np.stack(batch["sig"].to_numpy()).astype(np.uint64, copy=False)
        n = sig.shape[0]
        chunks = sig.reshape(n, self.n_bands, self.rows_per_band)
        with np.errstate(over="ignore"):
            acc = np.full((n, self.n_bands), _FNV_OFFSET, dtype=np.uint64)
            for j in range(self.rows_per_band):
                acc = (acc ^ chunks[:, :, j]) * _FNV
        return pd.DataFrame(
            {
                "band_id": np.tile(
                    np.arange(self.n_bands, dtype=np.int32), n
                ),
                "band_hash": acc.reshape(-1).view(np.int64),
                self.id_col: np.repeat(batch[self.id_col].to_numpy(), self.n_bands),
            }
        )


def _pairs_from_buckets(
    bucket: pd.DataFrame,
    id_col: str,
    bucket_cap: int = 200,
    min_new_id: int | None = None,
) -> pd.DataFrame:
    """Within each (band_id, band_hash) group emit candidate id pairs
    with per-group multiplicity 1 (summed downstream into the band-match
    count).  Groups larger than ``bucket_cap`` are truncated — the
    dropped candidate count is reported via metrics, never silent.

    ``min_new_id`` is the incremental-dedup pruning hook: pairs whose
    larger id is below it (old×old — both docs already deduped) are
    dropped HERE, before the match-sum/attach/verify exchanges, so an
    incremental pass pays only for pairs touching the new shard."""
    outs_a, outs_b = [], []
    dropped = 0
    for _, sub in bucket.groupby(["band_id", "band_hash"], sort=False):
        if len(sub) < 2:
            continue
        ids = np.unique(sub[id_col].to_numpy())
        if len(ids) > bucket_cap:  # safety valve on degenerate buckets
            n = len(ids)
            if min_new_id is not None:
                # incremental mode: truncation must PREFER new-shard
                # (high) ids — keeping the sorted-smallest could evict
                # every new id and then skip the group as old-only,
                # silently losing new-document duplicate pairs.  Keep
                # all new ids (the valve is for degenerate OLD-heavy
                # buckets) plus old ids up to the cap.
                new = ids[ids >= min_new_id]
                old = ids[: len(ids) - len(new)]
                kept = np.concatenate(
                    [old[: max(bucket_cap - len(new), 0)], new]
                )
            else:
                kept = ids[:bucket_cap]
            m = len(kept)
            dropped += n * (n - 1) // 2 - m * (m - 1) // 2
            ids = kept
        if min_new_id is not None and (len(ids) == 0 or ids[-1] < min_new_id):
            continue  # ids sorted: whole group is old×old
        ia, ib = np.triu_indices(len(ids), k=1)
        outs_a.append(ids[ia])
        outs_b.append(ids[ib])
    metrics.incr("minhash_lsh_candidates_dropped", dropped)
    if not outs_a:
        return pd.DataFrame(
            {
                "id_a": pd.Series([], dtype="int64"),
                "id_b": pd.Series([], dtype="int64"),
                "m": pd.Series([], dtype="int64"),
            }
        )
    out = pd.DataFrame(
        {"id_a": np.concatenate(outs_a), "id_b": np.concatenate(outs_b)}
    )
    if min_new_id is not None:
        # id_a < id_b, so a pair touches the new shard iff id_b is new
        out = out[out["id_b"].to_numpy() >= min_new_id]
    # partial band-match count within this shuffle bucket
    return (
        out.groupby(["id_a", "id_b"], sort=False)
        .size()
        .rename("m")
        .reset_index()
    )


class JaccardVerifier:
    """Exact character/word-shingle Jaccard over text-joined candidate
    pairs.  Runs after the two text hash-joins, so each batch carries
    ``text_a``/``text_b`` inline — no broadcast state.  A per-batch
    shingle cache amortizes docs that appear in many pairs (bucketed
    joins co-locate a doc's pairs)."""

    def __init__(
        self,
        shingle_k: int = 5,
        shingle_mode: str = "char",
        threshold: float = 0.8,
    ):
        self.k = shingle_k
        self.mode = shingle_mode
        self.threshold = threshold

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        # ids leave as int64, whatever the corpus id dtype
        out = pd.DataFrame(
            {
                "id_a": batch["id_a"].to_numpy().astype(np.int64),
                "id_b": batch["id_b"].to_numpy().astype(np.int64),
            }
        )
        if len(batch) == 0:
            out["jaccard"] = pd.Series([], dtype=float)
            return out
        cache: dict = {}

        def shingles(doc_id, text):
            s = cache.get(doc_id)
            if s is None:
                s = cache[doc_id] = _shingle_set(text, self.k, self.mode)
            return s

        jac = []
        for a, b, ta, tb in zip(
            batch["id_a"], batch["id_b"], batch["text_a"], batch["text_b"]
        ):
            sa, sb = shingles(a, ta), shingles(b, tb)
            inter = len(sa & sb)
            jac.append(inter / (len(sa) + len(sb) - inter))
        out["jaccard"] = np.round(jac, 6)
        return out[out["jaccard"] >= self.threshold]


def _min_band_matches(threshold: float, n_bands: int, rows_per_band: int) -> int:
    """Largest safe band-match prefilter: require m ≥ 2 only when a true
    pair at the threshold collides per band with probability high enough
    that missing twice is negligible (P[Binomial(b, t^r) < 2] < 1e-5)."""
    p = threshold**rows_per_band
    q = 1.0 - p
    p_miss = q**n_bands + n_bands * p * q ** (n_bands - 1)
    return 2 if p_miss < 1e-5 else 1


def minhash_lsh_pairs(
    ds: rd.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_perm: int = 128,
    n_bands: int = 32,
    shingle_k: int = 5,
    shingle_mode: str = "char",
    threshold: float = 0.8,
    num_buckets: int = 64,
    texts: rd.Dataset | None = None,
    sigs: rd.Dataset | None = None,
    min_new_id: int | None = None,
) -> rd.Dataset:
    """Verified near-duplicate pairs (id_a < id_b, jaccard ≥ threshold).

    Fully distributed in three bucketed exchanges: (1) band buckets →
    candidate-pair partials, (2) key id_a — band-match sum, m_min filter
    and text_a attach fused into one exchange (pair partials and the
    text table co-bucketed on the same key), (3) key id_b — text_b
    attach + exact-Jaccard verification inside the bucket.  No
    driver-side materialization and no full-corpus broadcast anywhere on
    the path; the text table is shuffled once per text-bearing exchange
    (the inherent cost of exact verification at corpus scale).

    ``texts`` defaults to ``ds`` itself (must expose id_col/text_col);
    doc ids are integers.

    Incremental mode: pass ``sigs`` (a precomputed/persisted signature
    table — id_col + ``sig`` list column — e.g. the already-deduped
    corpus's cached signatures unioned with the new shard's fresh ones)
    to skip signature computation, and ``min_new_id`` to prune old×old
    candidate pairs at emission so only pairs touching the new shard
    flow through the match-sum/attach/verify exchanges.
    """
    metrics.ensure()  # driver-owned counter actor for drop reporting
    if texts is None:
        texts = ds
    if sigs is None:
        sigs = ds.map_batches(
            stage_fn(
                MinHasher,
                id_col=id_col,
                text_col=text_col,
                n_perm=n_perm,
                shingle_k=shingle_k,
                shingle_mode=shingle_mode,
            ),
            batch_format="pandas",
            batch_size=256,  # signature compute dominates: many small tasks
        )
    bands = sigs.map_batches(
        stage_fn(BandEmitter, id_col=id_col, n_bands=n_bands, n_perm=n_perm),
        batch_format="pandas",
        batch_size=1024,
    )
    # NOTE: the prepare fuses with the signature/banding maps, and the
    # fused operator bundles input rows up to the LARGEST batch_size in
    # the chain — a 32768-row prepare would collapse a small corpus into
    # ONE signature task (and one sort partition → one bucket task).
    # 256 docs per bundle keeps the expensive signature stage wide.
    partial = bucketed_map_groups(
        bands,
        ["band_id", "band_hash"],
        lambda bucket: _pairs_from_buckets(
            bucket, id_col, min_new_id=min_new_id
        ),
        num_buckets=num_buckets,
        batch_size=256,
    )
    m_min = _min_band_matches(threshold, n_bands, n_perm // n_bands)

    # Exchange 2 (key = id_a): band-match sum + m_min filter + text_a
    # attach happen in ONE exchange — pair partials and the text table
    # meet on the same key, so no separate grouped_agg shuffle and no
    # extra hash-join exchange.
    def texts_as(key: str, col: str) -> rd.Dataset:
        # 8192-row batches: fusion bundles rows up to the largest
        # batch_size in a chain (see the NOTE above)
        return texts.map_batches(
            lambda b: pd.DataFrame({key: b[id_col], col: b[text_col]}),
            batch_format="pandas",
            batch_size=8192,
        )

    def lookup(t: pd.DataFrame, key: str, col: str) -> pd.Series:
        return pd.Series(t[col].to_numpy(), index=t[key].to_numpy())

    def sum_filter_attach(p: pd.DataFrame, t: pd.DataFrame) -> pd.DataFrame:
        if len(p) == 0:  # (a side with no rows at all has its keys only)
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype="int64"),
                    "id_b": pd.Series([], dtype="int64"),
                    "text_a": pd.Series([], dtype=object),
                }
            )
        g = p.groupby(["id_a", "id_b"], sort=False)["m"].sum().reset_index()
        g = g[g["m"] >= m_min].drop(columns=["m"])
        return g.assign(text_a=g["id_a"].map(lookup(t, "id_a", "text_a")))

    with_a = cogroup(
        partial,
        texts_as("id_a", "text_a"),
        ["id_a"],
        sum_filter_attach,
        num_buckets,
        batch_size=8192,
    )

    # Exchange 3 (key = id_b): attach text_b and verify inside the bucket
    verifier_kw = dict(
        shingle_k=shingle_k, shingle_mode=shingle_mode, threshold=threshold
    )

    def attach_verify(p: pd.DataFrame, t: pd.DataFrame) -> pd.DataFrame:
        if len(p) == 0:
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype="int64"),
                    "id_b": pd.Series([], dtype="int64"),
                    "jaccard": pd.Series([], dtype=float),
                }
            )
        joined = p.assign(text_b=p["id_b"].map(lookup(t, "id_b", "text_b")))
        return stage_instance(JaccardVerifier, **verifier_kw)(joined)

    return cogroup(
        with_a,
        texts_as("id_b", "text_b"),
        ["id_b"],
        attach_verify,
        num_buckets,
        batch_size=8192,
    )


def dup_groups_from_pairs(
    pairs: rd.Dataset,
    num_buckets: int = 64,
    max_rounds: int = 50,
    jump_after: int = 8,
) -> rd.Dataset:
    """Connected components over verified near-dup pairs → one row per
    member node with its min-id representative: ``(doc_id, rep_id)``.

    Distributed min-label propagation: every node starts labeled with
    its own id; each round joins current labels onto the (bidirectional)
    edge list and takes the grouped min of {own label} ∪ {neighbor
    labels}.  From round ``jump_after`` on, a pointer-jumping shortcut
    (``label ← label[label]``, one extra self-join per round) makes
    convergence O(log diameter), so chain-shaped clusters deeper than
    ``max_rounds`` still converge; if the loop is somehow exhausted
    anyway the function RAISES rather than returning wrong components.
    The per-round materialization is the label table, which is
    output-scale (nodes touching a duplicate pair), never corpus-scale.
    """
    from .joins import hash_join

    def bi_edges(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": np.concatenate(
                    [batch["id_a"].to_numpy(), batch["id_b"].to_numpy()]
                ),
                "dst": np.concatenate(
                    [batch["id_b"].to_numpy(), batch["id_a"].to_numpy()]
                ),
            }
        )

    edges = pairs.map_batches(
        bi_edges, batch_format="pandas", batch_size=32768
    ).materialize()
    if edges.count() == 0:
        return rd.from_pandas(
            pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "rep_id": pd.Series([], dtype="int64"),
                }
            )
        )

    def init_labels(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["src"].to_numpy()
        return pd.DataFrame({"doc_id": ids, "label": ids})

    labels = grouped_agg(
        edges.map_batches(init_labels, batch_format="pandas", batch_size=32768),
        ["doc_id"],
        {"label": "min"},
        num_buckets=num_buckets,
    ).materialize()

    def min_label(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby("doc_id", sort=False)
        new = g["cand"].min()
        old = bucket.loc[bucket["is_cur"] == 1].set_index("doc_id")["cand"]
        out = new.rename("label").reset_index()
        out["changed"] = (
            new.to_numpy() < old.reindex(new.index).to_numpy()
        ).astype(np.int8)
        return out

    def shortcut(lab: rd.Dataset) -> rd.Dataset:
        # pointer jumping: label ← label[label].  Labels only decrease
        # and every label value is a node id present in the table, so
        # the inner self-join is total and monotone.
        as_key = lab.map_batches(
            lambda b: pd.DataFrame(
                {"label": b["doc_id"].to_numpy(), "_ll": b["label"].to_numpy()}
            ),
            batch_format="pandas",
            batch_size=32768,
        )
        j = hash_join(lab, as_key, on="label", num_buckets=num_buckets)
        return j.map_batches(
            lambda b: pd.DataFrame(
                {
                    "doc_id": b["doc_id"].to_numpy().astype(np.int64),
                    "label": b["_ll"].to_numpy().astype(np.int64),
                }
            ),
            batch_format="pandas",
            batch_size=32768,
        )

    converged = False
    for rnd in range(max_rounds):
        lab_src = labels.map_batches(
            lambda b: pd.DataFrame(
                {"src": b["doc_id"].to_numpy(), "label": b["label"].to_numpy()}
            ),
            batch_format="pandas",
            batch_size=32768,
        )
        prop = hash_join(edges, lab_src, on="src", num_buckets=num_buckets)
        cand = prop.map_batches(
            lambda b: pd.DataFrame(
                {
                    "doc_id": b["dst"].to_numpy().astype(np.int64),
                    "cand": b["label"].to_numpy().astype(np.int64),
                    "is_cur": np.zeros(len(b), np.int8),
                }
            ),
            batch_format="pandas",
            batch_size=32768,
        ).union(
            labels.map_batches(
                lambda b: pd.DataFrame(
                    {
                        "doc_id": b["doc_id"].to_numpy(),
                        "cand": b["label"].to_numpy(),
                        "is_cur": np.ones(len(b), np.int8),
                    }
                ),
                batch_format="pandas",
                batch_size=32768,
            )
        )
        new_labels = bucketed_map_groups(
            cand, ["doc_id"], min_label, num_buckets=num_buckets
        ).materialize()
        n_changed = new_labels.sum("changed") or 0
        labels = new_labels.map_batches(
            lambda b: b[["doc_id", "label"]],
            batch_format="pandas",
            batch_size=32768,
        ).materialize()
        if n_changed == 0:
            converged = True
            break
        if rnd + 1 >= jump_after:
            labels = shortcut(labels).materialize()
    if not converged:
        metrics.incr("dup_groups_unconverged_rounds", 1)
        raise RuntimeError(
            f"dup_groups_from_pairs did not converge in {max_rounds} "
            f"rounds (with pointer jumping from round {jump_after}); "
            "components would be incorrect — refusing to return them"
        )

    return labels.map_batches(
        lambda b: pd.DataFrame(
            {"doc_id": b["doc_id"].to_numpy(), "rep_id": b["label"].to_numpy()}
        ),
        batch_format="pandas",
        batch_size=32768,
    )


# -------------------------------------------------------------- simhash
def _md5_64_local(s: str) -> int:
    """Big-endian first 8 bytes of md5 — equals int(md5_hex[:16], 16)."""
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "big")


class SimHasher:
    """64-bit simhash over word tokens.

    Token hash = big-endian first 8 bytes of ``md5(token)`` — chosen so
    the whole fingerprint computation is REPLAYABLE in SQL (DuckDB
    md5 + hex byte extraction), which is what upgrades
    ``dedup_simhash_pairs`` from rows-only to a value-hash-checked
    oracle query."""

    def __init__(self, id_col: str = "doc_id", text_col: str = "text"):
        import re

        self.id_col = id_col
        self.text_col = text_col
        self.word_re = re.compile(r"[A-Za-z0-9]+")
        # token → hash: md5 is Python-level work per UNIQUE token,
        # amortized over every batch of the worker process that holds
        # this stage (Zipf vocabulary → near-total hit rate after warmup)
        self.token_hash: dict = {}

    _SHIFTS = np.arange(64, dtype=np.uint64)

    def simhash(self, text: str) -> np.uint64:
        toks = self.word_re.findall(text.lower())
        if not toks:
            return np.uint64(0)
        counts = pd.Series(toks, dtype=object).value_counts()
        cache = self.token_hash
        h = np.fromiter(
            (
                cache.get(t) or cache.setdefault(t, _md5_64_local(t))
                for t in counts.index
            ),
            dtype=np.uint64,
            count=len(counts),
        )
        w = counts.to_numpy(np.int64)
        bits = (h[:, None] >> self._SHIFTS[None, :]) & np.uint64(1)
        acc = (np.where(bits == 1, 1, -1) * w[:, None]).sum(axis=0)
        out = np.uint64(0)
        for i in np.flatnonzero(acc > 0):
            out |= np.uint64(1) << np.uint64(i)
        return out

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                self.id_col: batch[self.id_col].to_numpy(),
                "simhash": [self.simhash(t) for t in batch[self.text_col]],
            }
        )


def simhash_pairs(
    ds: rd.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_hamming: int = 3,
    num_buckets: int = 64,
    bucket_cap: int = 500,
) -> rd.Dataset:
    """Near-dup pairs by simhash: block on each of the four 16-bit bands
    (pigeonhole: hamming ≤ 3 ⇒ at least one band identical), verify
    Hamming distance ≤ ``max_hamming`` within candidate buckets.

    The 4-band blocking only guarantees recall for distances ≤ 3, so
    larger ``max_hamming`` values are rejected rather than silently
    under-recalled.  Buckets above ``bucket_cap`` are skipped with the
    dropped-candidate count reported via metrics."""
    if not 0 <= max_hamming <= 3:
        raise ValueError(
            f"max_hamming={max_hamming}: 4x16-bit band blocking only "
            "guarantees recall for hamming <= 3"
        )
    metrics.ensure()
    sigs = ds.map_batches(
        stage_fn(SimHasher, id_col=id_col, text_col=text_col),
        batch_format="pandas",
        batch_size=512,
    )

    def emit_bands(batch: pd.DataFrame) -> pd.DataFrame:
        sh = batch["simhash"].to_numpy().astype(np.uint64)
        ids = batch[id_col].to_numpy()
        frames = []
        for band in range(4):
            chunk = (sh >> np.uint64(band * 16)) & np.uint64(0xFFFF)
            frames.append(
                pd.DataFrame(
                    {
                        "band_id": np.full(len(ids), band, np.int32),
                        "band_hash": chunk.astype("int64"),
                        id_col: ids,
                        "simhash": sh,
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    bands = sigs.map_batches(emit_bands, batch_format="pandas")

    def pairs(bucket: pd.DataFrame) -> pd.DataFrame:
        outs = []
        dropped = 0
        for _, sub in bucket.groupby(["band_id", "band_hash"], sort=False):
            if len(sub) < 2:
                continue
            if len(sub) > bucket_cap:
                n = len(sub)
                dropped += n * (n - 1) // 2
                continue
            ids = sub[id_col].to_numpy()
            shs = sub["simhash"].to_numpy().astype(np.uint64)
            order = np.argsort(ids)
            ids, shs = ids[order], shs[order]
            ia, ib = np.triu_indices(len(ids), k=1)
            x = shs[ia] ^ shs[ib]
            ham = np.array([bin(int(v)).count("1") for v in x], np.int64)
            keep = ham <= max_hamming
            outs.append(
                pd.DataFrame(
                    {
                        "id_a": ids[ia[keep]],
                        "id_b": ids[ib[keep]],
                        "hamming": ham[keep],
                    }
                )
            )
        metrics.incr("simhash_candidates_dropped", dropped)
        if not outs:
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype="int64"),
                    "id_b": pd.Series([], dtype="int64"),
                    "hamming": pd.Series([], dtype="int64"),
                }
            )
        return pd.concat(outs, ignore_index=True).drop_duplicates(
            subset=["id_a", "id_b"]
        )

    cand = bucketed_map_groups(
        bands, ["band_id", "band_hash"], pairs, num_buckets=num_buckets
    )
    from .shuffle import bucketed_map_groups as bmg

    return bmg(
        cand,
        ["id_a", "id_b"],
        lambda b: b.drop_duplicates(subset=["id_a", "id_b"]),
        num_buckets=num_buckets,
    )


# ----------------------------------------------------- edit-distance-1
def _del_variants_block(vals: np.ndarray) -> tuple[list, list]:
    """Deletion-1 neighborhood, vectorized per length group: values are
    grouped by length, viewed as (n, L) char matrices, and each of the L
    single-column deletions is taken for the whole group at once (no
    per-string Python loop)."""
    keys: list = []
    owners: list = []
    lens = np.fromiter((len(x) for x in vals), dtype=np.int64, count=len(vals))
    for L in np.unique(lens):
        grp = vals[lens == L]
        if L == 0:
            continue
        if L == 1:
            keys.extend([""] * len(grp))
            owners.extend(grp.tolist())
            continue
        mat = np.array(grp, dtype=f"U{L}").view("U1").reshape(len(grp), L)
        for i in range(int(L)):
            var = (
                np.ascontiguousarray(np.delete(mat, i, axis=1))
                .view(f"U{L - 1}")
                .ravel()
            )
            keys.extend(var.tolist())
            owners.extend(grp.tolist())
    return keys, owners


def _verify_ed1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact Levenshtein==1 verdict for candidate pairs, vectorized per
    (len_a, len_b) group.  Same length → exactly one substitution;
    length off by one → the shorter equals the longer with one char
    deleted (prefix match to the first mismatch, then shifted suffix
    match)."""
    la = np.fromiter((len(x) for x in a), dtype=np.int64, count=len(a))
    lb = np.fromiter((len(x) for x in b), dtype=np.int64, count=len(b))
    ok = np.zeros(len(a), dtype=bool)
    for L1, L2 in {(x, y) for x, y in zip(la.tolist(), lb.tolist())}:
        m = (la == L1) & (lb == L2)
        if abs(L1 - L2) > 1 or max(L1, L2) == 0:
            continue
        ga, gb = a[m], b[m]
        if L1 == L2:
            ma = np.array(ga, dtype=f"U{L1}").view("U1").reshape(len(ga), L1)
            mb = np.array(gb, dtype=f"U{L2}").view("U1").reshape(len(gb), L2)
            ok[m] = (ma != mb).sum(axis=1) == 1
        else:
            lo, hi = (ga, gb) if L1 < L2 else (gb, ga)
            Ls = min(L1, L2)
            ms = (
                np.array(lo, dtype=f"U{max(Ls,1)}").view("U1").reshape(len(lo), max(Ls, 1))
                if Ls
                else np.empty((len(lo), 0), dtype="U1")
            )
            ml = np.array(hi, dtype=f"U{Ls + 1}").view("U1").reshape(len(hi), Ls + 1)
            if Ls == 0:
                ok[m] = True  # "" vs single char
                continue
            eq = ms == ml[:, :Ls]
            all_match = eq.all(axis=1)  # deletion of the last char
            p = np.argmax(~eq, axis=1)
            # suffix_all[r, j] = all_{j' >= j} (long[j'+1] == short[j'])
            shifted = ml[:, 1:] == ms
            suffix_all = np.minimum.accumulate(shifted[:, ::-1], axis=1)[:, ::-1]
            ok[m] = all_match | suffix_all[np.arange(len(lo)), p]
    return ok


def ed1_pairs(
    ds: rd.Dataset,
    col: str,
    num_buckets: int = 32,
    group_cap: int = 1024,
) -> rd.Dataset:
    """All unordered pairs of distinct ``col`` values at Levenshtein
    distance exactly 1, via deletion-neighborhood blocking — the
    entity-resolution fuzzy-match kernel.  Blocking is COMPLETE for
    ED ≤ 1: a substitution pair shares the variant with the differing
    position deleted from both; an indel pair's shorter string is itself
    a deletion variant of the longer (each value also blocks on itself).
    Pipeline: distinct values → deletion-key expansion (vectorized per
    length group) → bucketed per-key pairing (keys with more than
    ``group_cap`` values are dropped and metrics-reported, never silent)
    → pair-level distinct → exact vectorized ED==1 verify.  Output:
    (name_a, name_b) with name_a < name_b."""
    from .shuffle import distinct

    metrics.ensure()
    vals = distinct(ds, [col], num_buckets=num_buckets)

    def expand(batch: pd.DataFrame) -> pd.DataFrame:
        s = batch[col].to_numpy(dtype=object)
        keys, owners = _del_variants_block(s)
        return pd.DataFrame(
            {
                "key": np.concatenate(
                    [s, np.asarray(keys, dtype=object)]
                ),
                "val": np.concatenate(
                    [s, np.asarray(owners, dtype=object)]
                ),
            }
        )

    keyed = vals.map_batches(expand, batch_format="pandas", batch_size=8192)

    def pairs_in_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.drop_duplicates()
        sizes = b.groupby("key", sort=False)["val"].transform("size")
        over = sizes > group_cap
        if over.any():
            n_over = b.loc[over, "key"].nunique()
            metrics.incr("ed1_groups_dropped", int(n_over))
            b = b.loc[~over]
        m = b.merge(b, on="key")
        m = m.loc[m["val_x"] < m["val_y"], ["val_x", "val_y"]]
        return m.drop_duplicates().rename(
            columns={"val_x": "name_a", "val_y": "name_b"}
        )

    cand = bucketed_map_groups(
        keyed, ["key"], pairs_in_bucket, num_buckets=num_buckets
    )

    def verify(b: pd.DataFrame) -> pd.DataFrame:
        b = b.drop_duplicates()
        if len(b) == 0:
            return b
        keep = _verify_ed1(
            b["name_a"].to_numpy(dtype=object),
            b["name_b"].to_numpy(dtype=object),
        )
        return b.loc[keep]

    return bucketed_map_groups(
        cand, ["name_a", "name_b"], verify, num_buckets=num_buckets
    )


def containment_pairs(
    docs: rd.Dataset,
    threshold: float = 0.8,
    shingle_k: int = 3,
    posting_cap: int = 2000,
    num_buckets: int = 64,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> rd.Dataset:
    """Overlap-coefficient near-dup pairs: |A∩B| / min(|A|, |B|) ≥
    ``threshold`` over word-``shingle_k`` shingle sets — the asymmetric
    copying detector (a quoted paragraph inside a much longer document
    scores high here but LOW on Jaccard, so minhash-LSH blocking would
    miss it).

    Blocking is an EXACT shingle-hash inverted index: any pair at
    overlap ≥ t > 0 shares ≥ 1 shingle, so grouping docs per shingle
    hash loses nothing (hash collisions only ADD candidates; the
    verifier is exact).  Per-shingle postings above ``posting_cap``
    (stop-shingles) are dropped and metrics-counted
    (``containment_postings_dropped``) — the documented approximation
    at corpus scale; at test scale nothing caps.  Shape: shingle-hash
    exchange → per-group pair expansion (triangular, vectorized) →
    distinct pairs → two co-partitioned text joins → exact verify.
    Output: (id_a, id_b, overlap rounded 6dp)."""
    from .joins import hash_join
    from .shuffle import bucketed_map_groups, distinct

    def emit(batch: pd.DataFrame) -> pd.DataFrame:
        hs, ds = [], []
        for d, t in zip(batch[id_col], batch[text_col]):
            h = _shingle_hashes(t, shingle_k, "word")
            hs.append(h)
            ds.append(np.full(len(h), d, dtype=np.int64))
        return pd.DataFrame(
            {
                "h": np.concatenate(hs) if hs else np.array([], np.uint64),
                "doc_id": np.concatenate(ds) if ds else np.array([], np.int64),
            }
        )

    postings = docs.map_batches(emit, batch_format="pandas", batch_size=1024)

    def expand(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.drop_duplicates().sort_values("h", kind="mergesort")
        h = b["h"].to_numpy()
        d = b["doc_id"].to_numpy()
        starts = np.flatnonzero(np.r_[True, h[1:] != h[:-1]])
        ends = np.r_[starts[1:], len(h)]
        sizes = ends - starts
        n_dropped = int((sizes > posting_cap).sum())
        if n_dropped:
            metrics.incr("containment_postings_dropped", n_dropped)
        pa_, pb_ = [], []
        triu_cache: dict = {}
        for s, e in zip(starts, ends):
            k = e - s
            if k < 2 or k > posting_cap:
                continue
            iu = triu_cache.get(k)
            if iu is None:
                iu = np.triu_indices(k, 1)
                triu_cache[k] = iu
            grp = np.sort(d[s:e])
            pa_.append(grp[iu[0]])
            pb_.append(grp[iu[1]])
        if not pa_:
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype=np.int64),
                    "id_b": pd.Series([], dtype=np.int64),
                }
            )
        return pd.DataFrame(
            {"id_a": np.concatenate(pa_), "id_b": np.concatenate(pb_)}
        ).drop_duplicates()

    cand = distinct(
        bucketed_map_groups(postings, ["h"], expand, num_buckets),
        ["id_a", "id_b"],
        num_buckets,
    )

    def tag(col_from: str, col_to: str):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    col_to: b[id_col].to_numpy(),
                    "text_" + col_to[-1]: b[text_col].to_numpy(dtype=object),
                }
            )

        return fn

    docs_a = docs.map_batches(tag(id_col, "id_a"), batch_format="pandas")
    docs_b = docs.map_batches(tag(id_col, "id_b"), batch_format="pandas")
    j = hash_join(cand, docs_a, on="id_a", num_buckets=num_buckets)
    j = hash_join(j, docs_b, on="id_b", num_buckets=num_buckets)

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "id_a": batch["id_a"].to_numpy().astype(np.int64),
                "id_b": batch["id_b"].to_numpy().astype(np.int64),
            }
        )
        if len(batch) == 0:
            out["overlap"] = pd.Series([], dtype=float)
            return out
        cache: dict = {}

        def sh(doc_id, text):
            s = cache.get(doc_id)
            if s is None:
                s = cache[doc_id] = _shingle_set(text, shingle_k, "word")
            return s

        ov = []
        for a, b, ta, tb in zip(
            batch["id_a"], batch["id_b"], batch["text_a"], batch["text_b"]
        ):
            sa, sb = sh(a, ta), sh(b, tb)
            ov.append(len(sa & sb) / min(len(sa), len(sb)))
        out["overlap"] = np.round(ov, 6)
        return out[out["overlap"] >= threshold]

    return j.map_batches(verify, batch_format="pandas", batch_size=8192)
