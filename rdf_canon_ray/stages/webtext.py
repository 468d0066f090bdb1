"""Web-text curation operators: PII redaction + boilerplate line dedup.

Real web-scale training corpora need two scrubbing passes the
``documents`` word-soup table cannot exercise (its text has no PII and
no line structure), so this module ships its own deterministic
multi-line corpus (``synth_web_table``) persisted to parquet exactly
like the media corpus — queries and their DuckDB oracles read the SAME
rows.

* ``PiiRedactor`` — vectorized RE2 redaction (emails / phones / IPv4)
  via ``pyarrow.compute`` string kernels, zero-copy Arrow batches.
  DuckDB's regexp functions are RE2 too, so the oracle replays the
  identical patterns with ``regexp_replace(..., 'g')``.
* ``line_frequencies`` / ``remove_boilerplate`` — CCNet-style
  boilerplate removal: count every line occurrence across the corpus
  (per-batch partial counts → one bucketed grouped sum), broadcast the
  frequent-line set (small by construction: lines with freq ≥ T are
  bounded by corpus/T, in practice nav/footer boilerplate), then a
  map-only filter rebuilds each document from its surviving lines.
  This is the standard web-pipeline shape (CCNet, RefinedWeb): the
  heavy pass is a single grouped count; the document rewrite never
  shuffles.
"""

from __future__ import annotations

from typing import Set

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from .shuffle import DEFAULT_NUM_BUCKETS, bucketed_map_groups, cogroup, grouped_agg

# RE2 patterns, shared verbatim with the DuckDB oracles (both engines
# are RE2, so match semantics are identical by construction).
EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PHONE_RE = r"\+1 555-[0-9]{3}-[0-9]{4}"
IPV4_RE = r"\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b"


# ---------------------------------------------------------------------------
# deterministic synthetic web corpus
# ---------------------------------------------------------------------------

_WORDS = (
    "alpha beta gamma delta epsilon zeta eta theta iota kappa press "
    "release board quarterly update launch metric growth users product "
    "market signal noise budget review charter north pipeline batch "
    "stream window table column filter merge sort index shard replica"
).split()

_BOILER = [
    "Subscribe to our newsletter for weekly updates.",
    "Copyright 2024 Example Corp. All rights reserved.",
    "Cookie policy: this site uses cookies.",
    "Home | About | Products | Contact",
    "Share this article on social media.",
    "Terms of service apply to all content.",
    "Sign in to continue reading.",
    "Advertisement",
    "Related articles you may have missed.",
    "Back to top",
]


def synth_web_table(n_docs: int = 2000, seed: int = 7) -> pa.Table:
    """Multi-line web-ish documents with injected PII tokens and heavy
    boilerplate lines.  Fully deterministic (seeded numpy RNG, no
    wall-clock); ~5-25 lines per doc; every boilerplate line lands in
    far more than ``freq_threshold`` documents, content lines are
    effectively unique word-soup."""
    rng = np.random.default_rng(seed)
    doc_ids, urls, texts, sources = [], [], [], []
    n_boiler = len(_BOILER)
    for i in range(n_docs):
        n_content = int(rng.integers(3, 20))
        lines = [_BOILER[int(rng.integers(0, n_boiler))]]
        for _ in range(n_content):
            words = rng.choice(_WORDS, size=int(rng.integers(4, 10)))
            line = " ".join(words.tolist())
            r = rng.random()
            if r < 0.12:
                line += (
                    f" contact user{int(rng.integers(0, 500))}"
                    f"@mail{int(rng.integers(0, 20))}.example.com"
                )
            elif r < 0.20:
                line += (
                    f" call +1 555-{int(rng.integers(0, 1000)):03d}"
                    f"-{int(rng.integers(0, 10000)):04d}"
                )
            elif r < 0.26:
                line += (
                    f" from 10.{int(rng.integers(0, 256))}"
                    f".{int(rng.integers(0, 256))}.{int(rng.integers(0, 256))}"
                )
            lines.append(line)
        lines.append(_BOILER[int(rng.integers(0, n_boiler))])
        doc_ids.append(i)
        urls.append(
            f"https://site{int(rng.integers(0, 40))}.example.org/page/{i}"
        )
        texts.append("\n".join(lines))
        sources.append(f"crawl-{int(rng.integers(0, 4))}")
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.int64()),
            "url": pa.array(urls, pa.string()),
            "text": pa.array(texts, pa.string()),
            "source": pa.array(sources, pa.string()),
        }
    )


# ---------------------------------------------------------------------------
# PII redaction
# ---------------------------------------------------------------------------

class PiiRedactor:
    """Count and redact PII spans — pure Arrow compute (RE2 kernels),
    zero-copy in and out.  Counts are taken on the ORIGINAL text;
    replacements apply sequentially email → phone → IPv4 (the oracle
    nests ``regexp_replace`` in the same order)."""

    def __init__(self, id_col: str = "doc_id", text_col: str = "text"):
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch[self.text_col]
        n_email = pc.count_substring_regex(text, EMAIL_RE)
        n_phone = pc.count_substring_regex(text, PHONE_RE)
        n_ip = pc.count_substring_regex(text, IPV4_RE)
        red = pc.replace_substring_regex(text, EMAIL_RE, "[EMAIL]")
        red = pc.replace_substring_regex(red, PHONE_RE, "[PHONE]")
        red = pc.replace_substring_regex(red, IPV4_RE, "[IP]")
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "n_email": pc.cast(n_email, pa.int64()),
                "n_phone": pc.cast(n_phone, pa.int64()),
                "n_ip": pc.cast(n_ip, pa.int64()),
                "redacted": red,
            }
        )


def redact_pii(ds: rd.Dataset, id_col: str = "doc_id",
               text_col: str = "text") -> rd.Dataset:
    return ds.map_batches(
        PiiRedactor(id_col=id_col, text_col=text_col),
        batch_format="pyarrow",
        batch_size=4096,
    )


# ---------------------------------------------------------------------------
# boilerplate line dedup
# ---------------------------------------------------------------------------

def line_frequencies(
    ds: rd.Dataset,
    text_col: str = "text",
    num_buckets: int = DEFAULT_NUM_BUCKETS,
) -> rd.Dataset:
    """Global line-occurrence counts: per-batch explode + partial count
    (the combiner collapses each batch to its distinct lines before the
    exchange), then one bucketed grouped sum.  Shuffle volume is
    distinct-lines-per-batch, not total lines."""

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        lines = batch[text_col].str.split("\n").explode()
        part = lines.value_counts()
        return pd.DataFrame(
            {"line": part.index.to_numpy(), "n": part.to_numpy().astype(np.int64)}
        )

    exploded = ds.map_batches(explode, batch_format="pandas", batch_size=4096)
    return grouped_agg(exploded, ["line"], {"n": "sum"}, num_buckets)


def _remove_boilerplate_partitioned(
    ds: rd.Dataset,
    hot: rd.Dataset,
    id_col: str,
    text_col: str,
    num_buckets: int,
) -> rd.Dataset:
    """Boilerplate rewrite with NO driver-side / broadcast line set —
    the 100-TB path: documents explode to (doc, idx, line) rows, hot
    lines co-partition with them on the line key (an in-bucket anti
    membership marks each line kept/dropped; every line row survives so
    per-doc totals stay exact), and one doc-keyed exchange reassembles
    each document from its kept lines in original order.  Verified
    equal to the broadcast path in
    ``tests/test_webtext.py::test_remove_boilerplate_partitioned_matches``."""

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        split = batch[text_col].str.split("\n")
        n = split.str.len().to_numpy(np.int64)
        return pd.DataFrame(
            {
                id_col: np.repeat(batch[id_col].to_numpy(), n),
                "_idx": (
                    np.arange(int(n.sum()), dtype=np.int64)
                    - np.repeat(np.cumsum(n) - n, n)
                ),
                "line": np.concatenate(
                    [np.asarray(x, dtype=object) for x in split]
                )
                if len(batch)
                else np.asarray([], dtype=object),
            }
        )

    def mark(l: pd.DataFrame, hot_lines: pd.DataFrame) -> pd.DataFrame:
        return l.assign(_kept=~l["line"].isin(hot_lines["line"]))

    marked = cogroup(
        ds.map_batches(explode, batch_format="pandas", batch_size=4096),
        hot,
        ["line"],
        mark,
        num_buckets,
        batch_size=4096,
    )

    def reassemble(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.sort_values([id_col, "_idx"], kind="mergesort")
        g = b.groupby(id_col, sort=False)
        sizes = g.size()
        kept = (
            b.loc[b["_kept"]]
            .groupby(id_col, sort=False)["line"]
            .agg("\n".join)
        )
        return pd.DataFrame(
            {
                id_col: sizes.index.to_numpy(np.int64),
                "n_lines": sizes.to_numpy(np.int64),
                "n_kept": g["_kept"].sum().to_numpy(np.int64),
                "clean_text": kept.reindex(
                    sizes.index, fill_value=""
                ).to_numpy(),
            }
        )

    return bucketed_map_groups(marked, [id_col], reassemble, num_buckets)


# Hot-line gate of ``remove_boilerplate``: at most this many frequent
# lines ship as a broadcast set; more rewrite co-partitioned.
BOILERPLATE_BROADCAST_MAX = 1_000_000


def remove_boilerplate(
    ds: rd.Dataset,
    freq_threshold: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_buckets: int = DEFAULT_NUM_BUCKETS,
) -> rd.Dataset:
    """Drop every line that appears ≥ ``freq_threshold`` times in the
    corpus, rebuild each document from its surviving lines (original
    order).  Two modes behind a hot-set size gate (the ``dedup_clean``
    pattern): at or under ``BOILERPLATE_BROADCAST_MAX`` hot lines the
    set ships via ``ray.put`` and the rewrite is map-only; above it the
    rewrite runs co-partitioned on the line key with no driver-side set
    anywhere."""
    freq = line_frequencies(ds, text_col, num_buckets)
    hot_ds = freq.filter(
        expr=f"n >= {int(freq_threshold)}"
    ).materialize()
    if hot_ds.count() > BOILERPLATE_BROADCAST_MAX:
        return _remove_boilerplate_partitioned(
            ds, hot_ds, id_col, text_col, num_buckets
        )
    hot = set(hot_ds.to_pandas()["line"])
    hot_ref = ray.put(hot)

    def rewrite(batch: pd.DataFrame) -> pd.DataFrame:
        drop: Set[str] = ray.get(hot_ref)
        split = batch[text_col].str.split("\n")
        exploded = split.explode()
        keep_mask = ~exploded.isin(drop)
        kept = exploded[keep_mask]
        clean = kept.groupby(level=0).agg("\n".join)
        n_kept = keep_mask.groupby(level=0).sum()
        out = pd.DataFrame(
            {
                id_col: batch[id_col].to_numpy(),
                "n_lines": split.str.len().astype(np.int64).to_numpy(),
                "n_kept": n_kept.reindex(batch.index, fill_value=0)
                .astype(np.int64)
                .to_numpy(),
                "clean_text": clean.reindex(batch.index, fill_value="")
                .to_numpy(),
            }
        )
        return out

    return ds.map_batches(rewrite, batch_format="pandas", batch_size=4096)
