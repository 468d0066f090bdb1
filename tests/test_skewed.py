"""Skew + escaping torture: Zipf conversation lengths, hot conversations,
unicode/control chars surviving byte-identical through canonicalization."""

import numpy as np


def test_skewed_corpus_canonicalizes(ray_session):
    from rdf_canon_ray.core import nquads
    from rdf_canon_ray.transcripts.gen_skewed import (
        build_skewed_transcripts,
        skewed_canonical_graphs,
    )

    df = build_skewed_transcripts(n_convs=300, hot_convs=2, hot_len=800)
    assert df.groupby("conv_id").size().max() == 800

    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from rdf_canon_ray.stages.canonicalize import canonicalize_linked, exchange_conversations
    from rdf_canon_ray.transcripts.gen_skewed import skewed_quads

    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    quads = ds.map_batches(skewed_quads, batch_format="pandas", batch_size=8192)
    out = exchange_conversations(quads, "graph_id", canonicalize_linked, 8).to_pandas()
    assert len(out) == 300
    assert (out["status"] == "ok").all()

    # per-turn text equality: every source text round-trips byte-identical
    # through canonical N-Quads escaping (parse the docs back).
    texts_by_conv = df.groupby("conv_id")["text"].apply(set)
    checked = 0
    for _, row in out.head(50).iterrows():
        got = {
            q[4]
            for q in nquads.parse(row["canon_nquads"])
            if q[2] == "urn:rel:text"
        }
        assert got == texts_by_conv[row["graph_id"]]
        checked += 1
    assert checked == 50

    # determinism under skew
    out2 = exchange_conversations(quads, "graph_id", canonicalize_linked, 8).to_pandas()
    a = out.sort_values("graph_id")["canon_nquads"].reset_index(drop=True)
    b = out2.sort_values("graph_id")["canon_nquads"].reset_index(drop=True)
    assert a.equals(b)


def test_hash_join_hot_key_and_unmatched_left(ray_session):
    """A hot key (20k rows on one key) joins exactly like a pandas
    merge, and a left join keeps an unmatched left row once."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from rdf_canon_ray.stages.joins import hash_join

    left = pd.DataFrame(
        {
            "k": np.concatenate(
                [np.zeros(20000, np.int64), np.arange(1, 1001)]
            ),
            "v": np.arange(21000),
        }
    )
    right = pd.DataFrame({"k": np.arange(0, 1001), "name": [f"n{i}" for i in range(1001)]})
    r_ds = rd.from_pandas(right)

    key = lambda d: d[["k", "v", "name"]].sort_values(["k", "v"]).reset_index(drop=True)
    joined = key(hash_join(rd.from_pandas(left), r_ds, on="k", num_buckets=8).to_pandas())
    assert len(joined) == 21000
    assert joined.equals(key(left.merge(right, on="k")))

    left2 = pd.DataFrame({"k": [0, 0, 9999], "v": [1, 2, 3]})
    lj = hash_join(
        rd.from_pandas(left2), r_ds, on="k", how="left", num_buckets=4
    ).to_pandas()
    assert len(lj) == 3
    assert lj[lj["k"] == 9999]["name"].isna().all()


def test_range_join_exact_window(ray_session):
    """Grid-cell range join returns exactly the brute-force half-open
    window pairs, each pair once."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from rdf_canon_ray.stages.joins import range_join

    rng = np.random.RandomState(3)
    left = pd.DataFrame({"lid": np.arange(300), "lv": rng.uniform(0, 100, 300)})
    right = pd.DataFrame({"rid": np.arange(500), "rv": rng.uniform(0, 100, 500)})
    r = 2.5
    got = (
        range_join(rd.from_pandas(left), rd.from_pandas(right), "lv", "rv", r)
        .to_pandas()
        .sort_values(["lid", "rid"])
        .reset_index(drop=True)
    )
    lv = left.set_index("lid")["lv"]
    expect = []
    for lid, v in lv.items():
        hits = right[(right["rv"] >= v - r) & (right["rv"] < v + r)]
        for rid in hits["rid"]:
            expect.append((lid, rid))
    exp = pd.DataFrame(expect, columns=["lid", "rid"]).sort_values(
        ["lid", "rid"]
    ).reset_index(drop=True)
    got_pairs = got[["lid", "rid"]].astype("int64").reset_index(drop=True)
    assert got_pairs.equals(exp)
    assert len(exp) > 0
