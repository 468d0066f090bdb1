"""Multimodal columns: opaque binary payloads + typed metadata, with
REAL pure-numpy decode for three self-describing formats:

* image — binary PPM (``P6``): ASCII header + raw RGB bytes,
* audio — WAV, 8-bit unsigned PCM mono (44-byte canonical header),
* video — a documented micro-container ``RCRV``: 4-byte magic +
  3×uint16-LE (width, height, n_frames) + n_frames grayscale frames of
  ``width*height`` bytes each.

No external decoder library is required: headers are parsed and pixel /
sample bytes lifted with numpy alone, which also makes every kernel
oracle-checkable byte-for-byte from the payload in SQL.  Payloads that
do not decode (foreign formats, corrupt bytes) fall back to a
deterministic sha256-derived feature stub with ``decoded=False`` —
the pipeline degrades, it does not fail.

PIL, when importable, is available as an ALTERNATIVE image decode path
behind an explicit ``use_pil=True`` flag only — the default path must
stay environment-independent so the DuckDB oracles (which recompute the
pixel math from payload bytes) hold on every machine.

Ray-side shape: stateless ``map_batches`` tasks (``util.stage_fn``)
with small ``batch_size`` (payload bytes dominate block memory),
zero-copy Arrow batches, per-process setup in ``__init__``.
"""

from __future__ import annotations

import hashlib
import io
import struct

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..util import stage_fn

try:  # optional alternative decode path, see module docstring
    from PIL import Image as _PIL_Image  # pragma: no cover
except ImportError:
    _PIL_Image = None

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("kind", pa.string()),        # image | audio | video
        ("payload", pa.binary()),     # encoded bytes (PPM / WAV / RCRV)
        ("width", pa.int32()),        # image dims / video frame dims; 0 for audio
        ("height", pa.int32()),
        ("duration_ms", pa.int32()),  # audio/video; 0 for images
    ]
)

_RCRV_MAGIC = b"RCRV"
_RCRV_HEADER = 10  # magic(4) + 3 × uint16-LE


# ------------------------------------------------------------- codecs
def encode_ppm(img: np.ndarray) -> bytes:
    """(h, w, 3) uint8 → binary PPM (P6)."""
    h, w = img.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + np.ascontiguousarray(
        img, dtype=np.uint8
    ).tobytes()


def decode_ppm(payload: bytes) -> np.ndarray | None:
    """Binary PPM (P6, maxval 255) → (h, w, 3) uint8, or None."""
    if not payload.startswith(b"P6"):
        return None
    vals, i, n = [], 2, len(payload)
    while len(vals) < 3 and i < n:
        c = payload[i]
        if c in b" \t\r\n":
            i += 1
        elif c == ord("#"):  # comment to end of line
            while i < n and payload[i] not in b"\r\n":
                i += 1
        elif ord("0") <= c <= ord("9"):
            j = i
            while j < n and ord("0") <= payload[j] <= ord("9"):
                j += 1
            vals.append(int(payload[i:j]))
            i = j
        else:
            return None
    if len(vals) < 3 or vals[2] != 255 or i >= n:
        return None
    i += 1  # exactly one whitespace byte after maxval
    w, h = vals[0], vals[1]
    if w <= 0 or h <= 0 or len(payload) - i != w * h * 3:
        return None
    return np.frombuffer(payload, np.uint8, count=w * h * 3, offset=i).reshape(
        h, w, 3
    )


def encode_wav(samples: np.ndarray, rate: int = 8000) -> bytes:
    """uint8 samples → WAV (PCM 8-bit unsigned mono), 44-byte header."""
    data = np.ascontiguousarray(samples, dtype=np.uint8).tobytes()
    return (
        b"RIFF"
        + struct.pack("<I", 36 + len(data))
        + b"WAVEfmt "
        + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate, 1, 8)
        + b"data"
        + struct.pack("<I", len(data))
        + data
    )


def decode_wav(payload: bytes) -> np.ndarray | None:
    """WAV (PCM 8-bit unsigned mono) → uint8 sample array, or None."""
    if len(payload) < 44 or payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        return None
    fmt = struct.unpack("<IHHIIHH", payload[16:36])
    if payload[12:16] != b"fmt " or fmt[1] != 1 or fmt[2] != 1 or fmt[6] != 8:
        return None
    if payload[36:40] != b"data":
        return None
    n = struct.unpack("<I", payload[40:44])[0]
    if len(payload) - 44 != n:
        return None
    return np.frombuffer(payload, np.uint8, count=n, offset=44)


def encode_rcrv(frames: np.ndarray) -> bytes:
    """(n_frames, h, w) uint8 grayscale frames → RCRV container."""
    nf, h, w = frames.shape
    return (
        _RCRV_MAGIC
        + struct.pack("<HHH", w, h, nf)
        + np.ascontiguousarray(frames, dtype=np.uint8).tobytes()
    )


def decode_rcrv(payload: bytes) -> np.ndarray | None:
    """RCRV container → (n_frames, h, w) uint8, or None."""
    if len(payload) < _RCRV_HEADER or payload[:4] != _RCRV_MAGIC:
        return None
    w, h, nf = struct.unpack("<HHH", payload[4:_RCRV_HEADER])
    if w <= 0 or h <= 0 or nf <= 0:
        return None
    if len(payload) - _RCRV_HEADER != w * h * nf:
        return None
    return np.frombuffer(
        payload, np.uint8, count=w * h * nf, offset=_RCRV_HEADER
    ).reshape(nf, h, w)


def resize_nearest(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Nearest-neighbor resize with floor-grid sampling
    (``src_y = (y * H) // out_h``) — pure integer math, reproducible in
    SQL from the payload bytes."""
    h, w = img.shape[:2]
    yi = (np.arange(out_h, dtype=np.int64) * h) // out_h
    xi = (np.arange(out_w, dtype=np.int64) * w) // out_w
    return img[yi][:, xi]


# ------------------------------------------------------- synth corpus
def synth_media_table(
    n: int = 256, seed: int = 5, n_near_dups: int = 24
) -> pa.Table:
    """Deterministic synthetic media corpus with DECODABLE payloads:
    PPM images (16–32 px), 8-bit PCM WAV audio (8 kHz), RCRV video
    (8×8 grayscale frames, 1 fps).  ``width``/``height``/``duration_ms``
    metadata columns are truthful for the encoded content.

    ``n_near_dups`` appends perceptual NEAR-DUPLICATE image variants
    (media_ids continue after ``n``): every 3rd variant is a pixel-exact
    re-encode of an earlier image (dHash hamming 0), the rest get a
    uniform +6 brightness shift (dHash is gradient-sign based, so only
    saturated pixels flip bits → small nonzero hamming) — the planted
    positives the image near-dup operator and its oracle detect."""
    rng = np.random.RandomState(seed)
    kinds = np.array(["image", "audio", "video"])[rng.randint(0, 3, n)]
    payloads, widths, heights, durations = [], [], [], []
    base_images: list = []  # (array, w, h) of image rows, in order
    for kind in kinds:
        if kind == "image":
            w, h = int(rng.randint(16, 33)), int(rng.randint(16, 33))
            img = rng.randint(0, 256, (h, w, 3)).astype(np.uint8)
            base_images.append((img, w, h))
            payloads.append(encode_ppm(img))
            widths.append(w)
            heights.append(h)
            durations.append(0)
        elif kind == "audio":
            ns = int(rng.randint(2000, 24000))
            payloads.append(
                encode_wav(rng.randint(0, 256, ns).astype(np.uint8))
            )
            widths.append(0)
            heights.append(0)
            durations.append(ns * 1000 // 8000)
        else:  # video: 1 fps, 1..8 frames of 8×8 grayscale
            nf = int(rng.randint(1, 9))
            payloads.append(
                encode_rcrv(rng.randint(0, 256, (nf, 8, 8)).astype(np.uint8))
            )
            widths.append(8)
            heights.append(8)
            durations.append(nf * 1000)
    kinds_all = list(kinds)
    for v in range(min(n_near_dups, len(base_images))):
        img, w, h = base_images[v]
        if v % 3 == 0:
            var = img  # pixel-exact re-encode → hamming 0
        else:
            var = np.clip(img.astype(np.int16) + 6, 0, 255).astype(
                np.uint8
            )
        kinds_all.append("image")
        payloads.append(encode_ppm(var))
        widths.append(w)
        heights.append(h)
        durations.append(0)
    return pa.table(
        {
            "media_id": pa.array(np.arange(len(kinds_all)), pa.int64()),
            "kind": pa.array(kinds_all),
            "payload": pa.array(payloads, pa.binary()),
            "width": pa.array(np.asarray(widths, np.int32)),
            "height": pa.array(np.asarray(heights, np.int32)),
            "duration_ms": pa.array(np.asarray(durations, np.int32)),
        }
    )


# ------------------------------------------------------------ features
def _chunk_sums(content: np.ndarray, dim: int) -> np.ndarray:
    """Coarse content profile: byte ``j`` contributes to chunk
    ``(j * dim) // n`` — ``dim`` contiguous spans whose sums partition
    the total byte sum exactly (the oracle checks that total)."""
    x = np.asarray(content, np.int64).ravel()
    n = x.size
    if n == 0:
        return np.zeros(dim, np.float32)
    idx = (np.arange(n, dtype=np.int64) * dim) // n
    return np.bincount(idx, weights=x, minlength=dim).astype(np.float32)


def _sha_fallback(payload: bytes, dim: int) -> np.ndarray:
    """Deterministic feature stub for UNdecodable payloads: the sha256
    digest bytes tiled to ``dim`` floats (legacy stub math, kept so
    foreign-format corpora still flow with ``decoded=False``)."""
    h = hashlib.sha256(payload).digest()
    return np.resize(np.frombuffer(h, np.uint8).astype(np.float32), dim)


class MediaFeatureExtractor:
    """Stateful stage: decode payloads and emit fixed-size feature
    vectors (content-byte chunk sums).  Small ``batch_size`` is
    mandatory — payload bytes dominate block memory.

    ``use_pil=True`` switches image decode to PIL when importable
    (alternative path only; the default is the pure-numpy decoder so
    results stay environment-independent — see module docstring)."""

    def __init__(self, feature_dim: int = 64, use_pil: bool = False):
        self.feature_dim = feature_dim
        self.use_pil = bool(use_pil) and _PIL_Image is not None

    def _content(self, kind: str, payload: bytes) -> np.ndarray | None:
        if kind == "image":
            if self.use_pil:  # pragma: no cover - PIL absent here
                try:
                    img = _PIL_Image.open(io.BytesIO(payload)).convert("RGB")
                    return np.asarray(img, dtype=np.uint8).ravel()
                except Exception:
                    return None
            img = decode_ppm(payload)
            return None if img is None else img.ravel()
        if kind == "audio":
            return decode_wav(payload)
        if kind == "video":
            frames = decode_rcrv(payload)
            return None if frames is None else frames[0].ravel()
        return None

    def __call__(self, batch: pa.Table) -> pa.Table:
        kinds = batch["kind"].to_pylist()
        payloads = batch["payload"].to_pylist()
        feats, ok = [], []
        for kind, payload in zip(kinds, payloads):
            content = self._content(kind, payload)
            if content is None:
                feats.append(_sha_fallback(payload, self.feature_dim))
                ok.append(False)
            else:
                feats.append(_chunk_sums(content, self.feature_dim))
                ok.append(True)
        return pa.table(
            {
                "media_id": batch["media_id"],
                "kind": batch["kind"],
                "feature": pa.array(
                    [f.tolist() for f in feats], pa.list_(pa.float32())
                ),
                "decoded": pa.array(ok, pa.bool_()),
            }
        )


def media_features(
    ds: rd.Dataset, feature_dim: int = 64, use_pil: bool = False
) -> rd.Dataset:
    return ds.map_batches(
        stage_fn(MediaFeatureExtractor, feature_dim=feature_dim, use_pil=use_pil),
        batch_format="pyarrow",
        batch_size=64,          # large binary rows → small batches
        num_cpus=1,
    )


# -------------------------------------------------------------- resize
class ImageResizer:
    """Stateful resize stage: decode PPM → nearest-neighbor resample
    (floor grid, integer math — SQL-reproducible) → re-encode PPM.
    Undecodable image payloads keep the legacy deterministic
    byte-resample stub with ``resized=False``."""

    def __init__(self, width: int = 64, height: int = 64, use_pil: bool = False):
        self.width = width
        self.height = height
        self.use_pil = bool(use_pil) and _PIL_Image is not None

    def _resize(self, payload: bytes) -> bytes | None:
        if self.use_pil:  # pragma: no cover - PIL absent here
            try:
                img = _PIL_Image.open(io.BytesIO(payload)).convert("RGB")
                arr = np.asarray(img, dtype=np.uint8)
            except Exception:
                return None
        else:
            arr = decode_ppm(payload)
            if arr is None:
                return None
        return encode_ppm(resize_nearest(arr, self.width, self.height))

    def _stub(self, payload: bytes) -> bytes:
        n = self.width * self.height
        if not payload:
            return b"\x00" * n
        reps = (n // len(payload)) + 1
        return (payload * reps)[:n]

    def __call__(self, batch: pa.Table) -> pa.Table:
        kinds = batch["kind"].to_pylist()
        payloads = batch["payload"].to_pylist()
        out_payloads, ok = [], []
        for kind, payload in zip(kinds, payloads):
            resized = self._resize(payload) if kind == "image" else None
            if resized is None:
                out_payloads.append(self._stub(payload) if kind == "image" else b"")
                ok.append(False)
            else:
                out_payloads.append(resized)
                ok.append(True)
        return pa.table(
            {
                "media_id": batch["media_id"],
                "kind": batch["kind"],
                "payload": pa.array(out_payloads, pa.binary()),
                "width": pa.array([self.width] * len(kinds), pa.int32()),
                "height": pa.array([self.height] * len(kinds), pa.int32()),
                "resized": pa.array(ok, pa.bool_()),
            }
        )


def resize_images(
    ds: rd.Dataset, width: int = 64, height: int = 64, use_pil: bool = False
) -> rd.Dataset:
    return ds.map_batches(
        stage_fn(ImageResizer, width=width, height=height, use_pil=use_pil),
        batch_format="pyarrow",
        batch_size=64,
    )


# --------------------------------------------------------------- audio
class AudioResampler:
    """Stateful audio stage: decode WAV (8-bit PCM mono) → integer
    decimation by ``factor`` (keep every factor-th sample — the exact,
    oracle-checkable resample; production swaps in a polyphase filter)
    → re-encode WAV at ``rate // factor``.  Non-audio rows pass through
    untouched with ``resampled=False``; undecodable audio keeps its
    payload with ``resampled=False``."""

    def __init__(self, factor: int = 4, rate_in: int = 8000):
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        self.factor = factor
        self.rate_out = rate_in // factor

    def __call__(self, batch: pa.Table) -> pa.Table:
        kinds = batch["kind"].to_pylist()
        payloads = batch["payload"].to_pylist()
        out_payloads, ok, n_samples = [], [], []
        for kind, payload in zip(kinds, payloads):
            samples = decode_wav(payload) if kind == "audio" else None
            if samples is None:
                out_payloads.append(payload)
                ok.append(False)
                n_samples.append(0)
            else:
                kept = samples[:: self.factor]
                out_payloads.append(encode_wav(kept, rate=self.rate_out))
                ok.append(True)
                n_samples.append(len(kept))
        return pa.table(
            {
                "media_id": batch["media_id"],
                "kind": batch["kind"],
                "payload": pa.array(out_payloads, pa.binary()),
                "n_samples": pa.array(n_samples, pa.int64()),
                "resampled": pa.array(ok, pa.bool_()),
            }
        )


def resample_audio(ds: rd.Dataset, factor: int = 4) -> rd.Dataset:
    return ds.map_batches(
        stage_fn(AudioResampler, factor=factor),
        batch_format="pyarrow",
        batch_size=64,
    )


# -------------------------------------------------------------- frames
def sample_frames(
    ds: rd.Dataset, fps_target: float = 1.0, max_frames: int = 8
) -> rd.Dataset:
    """Frame sampling for video rows: one output row per sampled frame
    at ``fps_target`` (capped at ``max_frames`` and the frames actually
    present), deterministic timestamps from ``duration_ms``, REAL frame
    bytes decoded from the RCRV container.  Undecodable video payloads
    fall back to the legacy deterministic payload-slice stub so foreign
    corpora still flow."""

    def explode(batch: pa.Table) -> pa.Table:
        media_ids, frame_idx, ts_ms, blobs = [], [], [], []
        for mid, kind, payload, dur in zip(
            batch["media_id"].to_pylist(),
            batch["kind"].to_pylist(),
            batch["payload"].to_pylist(),
            batch["duration_ms"].to_pylist(),
        ):
            if kind != "video" or dur <= 0:
                continue
            n = min(max_frames, max(1, int(dur / 1000 * fps_target)))
            frames = decode_rcrv(payload)
            if frames is not None:
                n = min(n, len(frames))
            step = dur / n
            for i in range(n):
                media_ids.append(mid)
                frame_idx.append(i)
                ts_ms.append(int(i * step))
                if frames is not None:
                    # source frame AT the emitted timestamp: sample i
                    # maps to native frame (i·nf)//n, so bytes and ts_ms
                    # stay aligned when n < nf (equals i when n == nf)
                    blobs.append(frames[(i * len(frames)) // n].tobytes())
                else:  # legacy stub slice for undecodable payloads
                    a = (i * 37) % max(1, len(payload))
                    blobs.append(payload[a : a + 64])
        return pa.table(
            {
                "media_id": pa.array(media_ids, pa.int64()),
                "frame_idx": pa.array(frame_idx, pa.int32()),
                "ts_ms": pa.array(ts_ms, pa.int32()),
                "frame": pa.array(blobs, pa.binary()),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow", batch_size=64)


# --------------------------------------------------------------- stats
def media_size_stats(ds: rd.Dataset) -> rd.Dataset:
    """Pure-Arrow metadata aggregation (no payload touch): per kind,
    count + total payload bytes. Column pruning means the payload column
    only flows because byte length needs it; a parquet source would push
    a `binary_length` projection instead."""

    def stats(batch: pa.Table) -> pa.Table:
        length = pc.binary_length(batch["payload"])
        t = pa.table({"kind": batch["kind"], "bytes": length})
        return (
            t.group_by("kind").aggregate([("bytes", "sum"), ("kind", "count")])
            .rename_columns(["kind", "total_bytes", "n"])
        )

    partials = ds.map_batches(stats, batch_format="pyarrow", batch_size=256)
    from .shuffle import grouped_agg

    return grouped_agg(
        partials, ["kind"], {"total_bytes": "sum", "n": "sum"}, num_buckets=4
    )


# --------------------------------------------------- perceptual hashing
def dhash_ppm(img: np.ndarray) -> str:
    """Difference hash (dHash) over a decoded image: floor-grid sample
    a 9-wide × 8-tall luminance grid (``resize_nearest`` sampling, so
    the exact bytes are reproducible in SQL), set bit ``8y+x`` when
    ``gray[y,x] > gray[y,x+1]``, emit 16 lowercase hex chars (MSB-first
    nibbles).  Integer-exact; only the SIGN of each horizontal
    luminance gradient survives, so the hash is invariant to uniform
    brightness shifts that don't saturate uint8 (and robust, not
    invariant, to small local edits) — the near-duplicate signal."""
    h, w = img.shape[:2]
    yi = (np.arange(8, dtype=np.int64) * h) // 8
    xi = (np.arange(9, dtype=np.int64) * w) // 9
    g = img[yi][:, xi].astype(np.int64).sum(axis=2)
    bits = (g[:, :-1] > g[:, 1:]).astype(np.int64).ravel()
    vals = bits.reshape(16, 4) @ np.array([8, 4, 2, 1], np.int64)
    return "".join("0123456789abcdef"[v] for v in vals)


def image_dhash(ds: rd.Dataset) -> rd.Dataset:
    """Perceptual fingerprint stage: PPM images → (media_id, dhash).
    Non-image rows are dropped; undecodable image payloads are skipped
    and metrics-counted (`dhash_undecodable`) rather than given a fake
    hash — a perceptual hash of bytes that aren't pixels is noise.
    Output: (media_id, dhash 16-hex-char)."""
    from ..state import metrics

    def hashes(batch: pa.Table) -> pa.Table:
        kinds = batch["kind"].to_pylist()
        ids = batch["media_id"].to_pylist()
        out_id, out_hash, skipped = [], [], 0
        for i, kind in enumerate(kinds):
            if kind != "image":
                continue
            img = decode_ppm(batch["payload"][i].as_py())
            if img is None:
                skipped += 1
                continue
            out_id.append(ids[i])
            out_hash.append(dhash_ppm(img))
        if skipped:
            metrics.incr("dhash_undecodable", skipped)
        return pa.table(
            {
                "media_id": pa.array(out_id, pa.int64()),
                "dhash": pa.array(out_hash, pa.string()),
            }
        )

    return ds.map_batches(hashes, batch_format="pyarrow", batch_size=64)
