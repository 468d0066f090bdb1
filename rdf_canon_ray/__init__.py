"""rdf_canon_ray — Ray-Data-native knowledge-graph construction engine.

A brand-new engine with the query/data-processing capabilities of
zkp-ld/rdf-canon (RDFC-1.0 canonicalization), re-expressed Ray-Data-first:
transcript Parquet → triple extraction → per-graph canonicalization →
entity resolution → partitioned Parquet triple tables, plus the
training-data operators a 100 TB corpus pipeline needs (dedup families,
similarity search, text analysis, multimodal plumbing).

Layout:
    core/        pure-Python RDFC-1.0 kernel (no Ray)
    transcripts/ synthetic transcript generation + triple extraction
    stages/      Ray Data batch/group transforms (canonicalize, dedup, …)
    sources/     N-Quads + Parquet readers/writers
    pipelines/   end-to-end pipelines (flagship KG build, analytics)
    state/       persisted stores (store.py: build, publish, fingerprint,
                 crash recovery, per-part resume), metrics
"""

__version__ = "0.1.0"

# Register every package module for cloudpickle by-value serialization at
# import time, so UDFs defined here run on Ray workers regardless of the
# driver's cwd/PYTHONPATH — including when users import the library
# directly (not via __ray_entry__).
from . import runtime as _runtime

_runtime.ensure_importable()
