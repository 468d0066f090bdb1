"""Adversarial synthetic transcripts: Zipf-skewed conversation lengths,
hot conversations, unicode/control-char text (FIXTURES.md §A synthesis
requirements).

Deterministic (seeded numpy, no wall clock). Exercises:
* conv_id skew — a few conversations with 10³ turns next to thousands of
  tiny ones (stragglers in the canonicalization shuffle);
* canonical N-Quads escaping — text carries quotes, backslashes,
  newlines, C0 controls and astral unicode that must survive
  byte-identical into the canonical document;
* turn-idx ties (parallel tool turns).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..core.terms import BNODE, IRI, LITERAL
from .extract import XSD_INT, quad_rows, turn_labels

_UNICODE_SPICE = [
    "",
    ' with "quotes"',
    " and back\\slash",
    " plus new\nline",
    " tab\there",
    " ctrl\x01\x1f",
    " astral 🌃🚀",
    " accents é∞ὃ",
]


def build_skewed_transcripts(
    n_convs: int = 2000,
    hot_convs: int = 3,
    hot_len: int = 1500,
    seed: int = 20240817,
) -> pd.DataFrame:
    rng = np.random.RandomState(seed)
    # Zipf-ish lengths, clipped; a few explicit hot conversations
    lengths = np.clip(rng.zipf(2.0, size=n_convs), 2, 60)
    lengths[:hot_convs] = hot_len

    conv_ids, turn_idx, roles, texts, tools, ts = [], [], [], [], [], []
    base_ts = np.datetime64("2025-01-01T00:00:00", "us")
    for c in range(n_convs):
        n = int(lengths[c])
        cid = f"sk{c}"
        ent = int(rng.randint(0, 500))
        for t in range(n):
            role = ("user", "assistant", "tool")[t % 3]
            spice = _UNICODE_SPICE[int(rng.randint(0, len(_UNICODE_SPICE)))]
            texts.append(
                f"turn {t} of {cid} mentions entity ent-{ent + t % 7}{spice}"
            )
            conv_ids.append(cid)
            turn_idx.append(t)
            roles.append(role)
            tools.append("lookup" if role == "tool" else "")
            ts.append(base_ts + np.timedelta64(c * 100000 + t, "s"))
    return pd.DataFrame(
        {
            "conv_id": conv_ids,
            "turn_idx": pd.array(turn_idx, dtype="int32"),
            "role": roles,
            "text": texts,
            "tool": tools,
            "ts": ts,
        }
    )


def skewed_quads(batch: pd.DataFrame) -> pa.Table:
    """Extraction for the skewed corpus (``QUADS_SCHEMA`` rows): each
    turn becomes a turn bnode carrying role, idx and its full text as a
    literal (escaping torture), plus a mention link for the ``ent-N``
    pattern."""
    labels = pa.array(turn_labels(batch["turn_idx"], batch["text"]), pa.string())
    ent = batch["text"].str.extract(r"mentions entity (ent-\d+)")[0]
    conv = pa.array(batch["conv_id"], pa.string())

    def col(values):
        return pa.array(values, pa.string())

    return pa.concat_tables([
        quad_rows(conv, BNODE, labels, "urn:rel:role", LITERAL, col(batch["role"])),
        quad_rows(conv, BNODE, labels, "urn:rel:idx", LITERAL,
                  col(batch["turn_idx"].astype(str)), XSD_INT),
        quad_rows(conv, BNODE, labels, "urn:rel:text", LITERAL, col(batch["text"])),
        quad_rows(conv, BNODE, labels, "urn:rel:mentions", IRI, col("urn:e:" + ent)),
    ])


def skewed_lengths_parquet(
    path: str = "/tmp/rcr_cache/skewed_conv_lengths_v1.parquet",
) -> str:
    """Persist the generator's ground-truth per-conversation turn counts
    so the DuckDB oracle can pin the skewed canonicalization output:
    every quad is per-turn (role/idx/text/mentions = 4) plus structure
    (session hub 1 + partOf n + next n−1), so n_quads = 6·n_turns and
    n_bnodes = n_turns + 1 — checked per graph without reimplementing
    RDFC-1.0 in SQL."""
    import os

    import pyarrow.parquet as pq

    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        counts = (
            build_skewed_transcripts()
            .groupby("conv_id", sort=True)
            .size()
            .rename("n_turns")
            .reset_index()
        )
        counts["n_turns"] = counts["n_turns"].astype("int64")
        tmp = path + ".tmp"
        pq.write_table(
            pa.Table.from_pandas(counts, preserve_index=False), tmp
        )
        os.replace(tmp, path)
    return path


def skewed_canonical_sizes(sf_dir: str = "") -> rd.Dataset:
    """Oracle-checkable invariant view of the skewed flagship run:
    (graph_id, n_quads, n_bnodes, status) — see skewed_lengths_parquet
    for the derivation the SQL side replays."""

    def project(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[["graph_id", "n_quads", "n_bnodes", "status"]]

    return skewed_canonical_graphs(sf_dir).map_batches(
        project, batch_format="pandas", batch_size=8192
    )


def skewed_canonical_graphs(sf_dir: str = "", num_buckets: int = 32) -> rd.Dataset:
    """(sf_dir unused — fully synthetic.) Canonical graphs for the
    skewed corpus: its turn quads are KG conversation quads, so each
    exchanged block runs the KG kernel (``canonicalize_linked``: the
    structure quads, then RDFC-1.0)."""
    from ..stages.canonicalize import canonicalize_linked, exchange_conversations

    df = build_skewed_transcripts()
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    quads = ds.map_batches(skewed_quads, batch_format="pandas", batch_size=16384)
    return exchange_conversations(quads, "graph_id", canonicalize_linked, num_buckets)
