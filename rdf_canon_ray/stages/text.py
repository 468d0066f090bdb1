"""Text-analysis operators over document corpora (training-data pipeline).

All stages are vectorized ``map_batches`` transforms; the ones holding
compiled state (regexes, stopword tables) are callable classes, run as
stateless tasks built once per worker process (``util.stage_fn``).  Designed for the ``documents`` table
(``doc_id, text, lang, source, n_chars``) but generic over any
``(id_col, text_col)`` pair.

Operators:
* ``TokenStats``   — token/char counts: whitespace tokens + word-regex
                     (BPE-ish) tokens (SQL-oracle-checkable).
* ``QualityScore`` — length / punctuation / stopword / uppercase ratios
                     and a composite quality score.
* ``LangId``       — character-frequency n-gram heuristic language ID.
* ``Fingerprint``  — 64-bit document fingerprint (stable hash) + rolling-
                     hash shingle fingerprint for near-dup prefiltering.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd

from . import vhash

WORD_RE = re.compile(r"[A-Za-z0-9]+(?:'[a-z]+)?")

_STOP_EN = {
    "the", "and", "of", "a", "to", "in", "is", "it", "that", "for",
    "on", "with", "as", "was", "at", "by", "an", "be", "this", "are",
}


class TokenStats:
    """Whitespace + word-regex token counting (vectorized)."""

    def __init__(self, id_col: str = "doc_id", text_col: str = "text"):
        self.id_col = id_col
        self.text_col = text_col
        self.word_re = WORD_RE

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        text = batch[self.text_col]
        return pd.DataFrame(
            {
                self.id_col: batch[self.id_col].to_numpy(),
                "n_chars_obs": text.str.len().astype("int64"),
                "n_ws_tokens": text.str.split().str.len().fillna(0).astype("int64"),
                "n_word_tokens": text.str.count(self.word_re).astype("int64"),
            }
        )


class QualityScore:
    """Heuristic document quality: ratios a filtering pipeline thresholds
    on. Composite score = mean of the four [0,1] subscores."""

    def __init__(self, id_col: str = "doc_id", text_col: str = "text"):
        self.id_col = id_col
        self.text_col = text_col
        self.punct_re = re.compile(r"[^\w\s]")
        self.upper_re = re.compile(r"[A-Z]")

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        text = batch[self.text_col]
        n_chars = text.str.len().clip(lower=1)
        tokens = text.str.lower().str.findall(WORD_RE)
        n_tok = tokens.str.len().clip(lower=1)
        stop_ratio = tokens.map(
            lambda ws: sum(1 for w in ws if w in _STOP_EN)
        ) / n_tok
        punct_ratio = text.str.count(self.punct_re) / n_chars
        upper_ratio = text.str.count(self.upper_re) / n_chars
        mean_tok_len = tokens.map(
            lambda ws: float(np.mean([len(w) for w in ws])) if ws else 0.0
        )
        len_score = (n_chars.clip(upper=500) / 500.0).astype(float)
        tok_score = ((mean_tok_len - 2.0).clip(0, 5) / 5.0).astype(float)
        punct_score = (1.0 - punct_ratio.clip(0, 0.5) * 2).astype(float)
        stop_score = stop_ratio.clip(0, 0.4) / 0.4
        return pd.DataFrame(
            {
                self.id_col: batch[self.id_col].to_numpy(),
                "stop_ratio": stop_ratio.astype(float).round(6),
                "punct_ratio": punct_ratio.astype(float).round(6),
                "upper_ratio": upper_ratio.astype(float).round(6),
                "mean_token_len": mean_tok_len.round(6),
                "quality": (
                    (len_score + tok_score + punct_score + stop_score) / 4.0
                ).round(6),
            }
        )


# Character-trigram profiles for a tiny deterministic language-ID
# heuristic. Real deployments swap a fastText-style model into this same
# stage; the Ray plumbing (``util.stage_fn``, batched scoring) is identical.
_LANG_PROFILES = {
    "en": {"the", " th", "he ", "ing", "ng ", "and", "nd ", " an", "ion", " of"},
    "de": {"en ", "er ", "ch ", "der", " de", "ein", "sch", "die", "und", " un"},
    "fr": {"es ", "le ", " de", "de ", "ent", " le", "la ", " la", "ion", "re "},
    "es": {" de", "de ", "os ", "la ", " la", "el ", " el", "as ", "ión", "que"},
}


class LangId:
    """N-gram-overlap language ID over the text column."""

    def __init__(self, id_col: str = "doc_id", text_col: str = "text"):
        self.id_col = id_col
        self.text_col = text_col
        self.profiles = {k: frozenset(v) for k, v in _LANG_PROFILES.items()}

    def _score(self, text: str) -> str:
        t = text.lower()
        grams = {t[i : i + 3] for i in range(len(t) - 2)}
        best, best_n = "unk", 0
        for lang, prof in self.profiles.items():
            n = len(grams & prof)
            if n > best_n:
                best, best_n = lang, n
        return best

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                self.id_col: batch[self.id_col].to_numpy(),
                "lang_pred": batch[self.text_col].map(self._score),
            }
        )


def _md5_64(s: str) -> int:
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "big")


class Fingerprint:
    """Stable 64-bit content fingerprint (md5 prefix, hex) + a rolling-
    hash (Rabin-Karp style) min-fingerprint over character shingles."""

    def __init__(
        self,
        id_col: str = "doc_id",
        text_col: str = "text",
        shingle: int = 16,
        base: int = 257,
        mod: int = (1 << 61) - 1,
    ):
        self.id_col = id_col
        self.text_col = text_col
        self.k = shingle
        self.base = base
        self.mod = mod
        self.basek = pow(base, shingle - 1, mod)
        self._powers = np.array(
            [pow(base, shingle - 1 - j, mod) for j in range(shingle)],
            dtype=np.uint64,
        )

    def _rolling_min(self, text: str) -> int:
        """Min over all k-char windows of the polynomial hash
        Σ cp_j · base^(k-1-j) mod (2^61−1), vectorized: sliding windows
        of codepoints × a power vector split into 30-bit halves so every
        intermediate fits uint64 exactly (cp < 2^21, power-half < 2^31,
        window sums < 2^56), with the Mersenne fold 2^61 ≡ 1 closing the
        high half.  Bit-identical to the scalar Rabin-Karp recurrence
        (and to the SQL list_reduce oracle)."""
        k, mod = self.k, self.mod
        if len(text) < k:
            return _md5_64(text)
        cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(
            np.uint64
        )
        win = np.lib.stride_tricks.sliding_window_view(cp, k)
        lo = self._powers & np.uint64((1 << 30) - 1)
        hi = self._powers >> np.uint64(30)
        s_lo = (win * lo[None, :]).sum(axis=1, dtype=np.uint64)  # < 2^55
        s_hi = (win * hi[None, :]).sum(axis=1, dtype=np.uint64)  # < 2^56
        # (s_hi·2^30) mod M with s_hi = u·2^31 + v:  u·2^61 + v·2^30 ≡ u + v·2^30
        u = s_hi >> np.uint64(31)
        v = s_hi & np.uint64((1 << 31) - 1)
        h = (u + (v << np.uint64(30)) + s_lo) % np.uint64(mod)  # sum < 2^62
        return int(h.min())

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        text = batch[self.text_col]
        return pd.DataFrame(
            {
                self.id_col: batch[self.id_col].to_numpy(),
                "content_hash": text.map(lambda t: "%016x" % _md5_64(t)),
                "rolling_min_fp": text.map(self._rolling_min).astype("uint64"),
            }
        )


class HashSplit:
    """Deterministic train/val/test assignment by content-stable hash:
    the first two hex chars of ``md5(str(id))`` give 256 buckets; split
    boundaries are hex-string thresholds, so the assignment is
    reproducible anywhere (including in SQL) and independent of row
    order, partitioning, or cluster size — the property a 100 TB
    train/val split must have."""

    def __init__(
        self,
        id_col: str = "doc_id",
        boundaries: tuple = (("train", "cd"), ("val", "e7"), ("test", "ff")),
    ):
        # ("cd","e7","ff") ≈ 80.1% / 10.2% / 9.8% of the 256 buckets
        self.id_col = id_col
        self.boundaries = tuple(boundaries)

    def assign(self, key: str) -> str:
        h = hashlib.md5(key.encode("utf-8")).hexdigest()[:2]
        for name, upper in self.boundaries:
            if h <= upper:
                return name
        return self.boundaries[-1][0]

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        # vectorized md5 (stages.vhash): the 2-hex-char bucket is the
        # digest's first byte; string compare h <= upper == byte compare
        b0 = vhash.md5_u64be(batch[self.id_col].to_numpy()) >> np.uint64(56)
        conds = [b0 <= np.uint64(int(u, 16)) for _, u in self.boundaries]
        split = np.select(
            conds,
            [n for n, _ in self.boundaries],
            default=self.boundaries[-1][0],
        )
        return pd.DataFrame(
            {
                self.id_col: batch[self.id_col].to_numpy(),
                "split": split.astype(object),
            }
        )


class Decontaminate:
    """Benchmark-contamination flagging: a document is contaminated when
    it shares any word ``n``-gram with the benchmark set.  The benchmark
    shingle set is the broadcast small side (``ray.put`` once, read in
    ``__init__`` once per worker) — the standard decontamination shape
    for corpus-scale filtering."""

    def __init__(self, bench_ref, n: int = 8, id_col: str = "doc_id",
                 text_col: str = "text"):
        import ray

        self.bench = (
            ray.get(bench_ref) if not isinstance(bench_ref, (set, frozenset))
            else bench_ref
        )
        self.n = n
        self.id_col = id_col
        self.text_col = text_col

    @staticmethod
    def shingles(text: str, n: int) -> set:
        w = text.split()
        if len(w) < n:
            return {" ".join(w)} if w else set()
        return {" ".join(w[i : i + n]) for i in range(len(w) - n + 1)}

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        flags = [
            not self.shingles(t, self.n).isdisjoint(self.bench)
            for t in batch[self.text_col]
        ]
        return pd.DataFrame(
            {
                self.id_col: batch[self.id_col].to_numpy(),
                "contaminated": np.asarray(flags, dtype=bool),
            }
        )


class RepetitionStats:
    """Gopher-style intra-document repetition signals: the fraction of
    all word n-grams taken by the single most frequent one (n = 2, 3)
    and the duplicate-word fraction.  High values mark boilerplate /
    degenerate generations that quality filters drop."""

    def __init__(self, id_col: str = "doc_id", text_col: str = "text"):
        self.id_col = id_col
        self.text_col = text_col

    @staticmethod
    def _top_frac(words: list, n: int) -> float:
        if len(words) < n:
            return 0.0
        from collections import Counter

        grams = Counter(
            tuple(words[i : i + n]) for i in range(len(words) - n + 1)
        )
        total = sum(grams.values())
        return grams.most_common(1)[0][1] / total

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        rows = {
            self.id_col: batch[self.id_col].to_numpy(),
            "top_bigram_frac": [],
            "top_trigram_frac": [],
            "dup_word_frac": [],
        }
        for t in batch[self.text_col]:
            w = t.split()
            rows["top_bigram_frac"].append(round(self._top_frac(w, 2), 6))
            rows["top_trigram_frac"].append(round(self._top_frac(w, 3), 6))
            rows["dup_word_frac"].append(
                round(1.0 - len(set(w)) / len(w), 6) if w else 0.0
            )
        out = pd.DataFrame(rows)
        for c in ["top_bigram_frac", "top_trigram_frac", "dup_word_frac"]:
            out[c] = out[c].astype(float)
        return out
