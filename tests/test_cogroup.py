"""The two-sided exchange (``stages/shuffle.cogroup``) and the joins on it:
each side keeps its own columns and dtypes through the exchange, each
input runs once, and degenerate inputs (one side absent from a bucket,
no match at all, zero rows) work."""

import pathlib

import numpy as np
import pandas as pd
import ray.data as rd

from rdf_canon_ray.stages import shuffle
from rdf_canon_ray.stages.joins import hash_join, partitioned_anti_join

LEFT = pd.DataFrame({"k": np.arange(40, dtype=np.int64), "lv": np.arange(40) * 10})
RIGHT = pd.DataFrame({"k": np.arange(0, 80, 2, dtype=np.int64), "rv": np.arange(40)})


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_joins_keep_int64_columns(ray_session):
    left, right = rd.from_pandas(LEFT), rd.from_pandas(RIGHT)
    inner = hash_join(left, right, on="k", num_buckets=4).to_pandas()
    assert len(inner) == 20
    assert inner.dtypes.to_dict() == {
        "k": np.int64, "lv": np.int64, "rv": np.int64
    }
    outer_left = hash_join(left, right, on="k", how="left", num_buckets=4).to_pandas()
    assert len(outer_left) == 40
    # the left side keeps its ints; the right side's are NaN where a
    # left row finds no match, so float64 in every bucket
    assert outer_left.dtypes.to_dict() == {
        "k": np.int64, "lv": np.int64, "rv": np.float64
    }
    anti = partitioned_anti_join(left, right, on="k", num_buckets=4).to_pandas()
    assert sorted(anti["k"]) == list(range(1, 40, 2))
    assert anti.dtypes.to_dict() == {"k": np.int64, "lv": np.int64}


def test_hash_join_runs_each_input_once(ray_session, tmp_path):
    """Building the join runs nothing; consuming it runs each input's
    upstream once, every row exactly once."""
    log = tmp_path / "calls.txt"

    def counted(side: str):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            with open(log, "a") as f:
                f.write(f"{side} {len(batch)}\n")
            return batch

        return fn

    left = rd.from_pandas(LEFT).repartition(3).map_batches(
        counted("l"), batch_format="pandas"
    )
    right = rd.from_pandas(RIGHT).map_batches(
        counted("r"), batch_format="pandas"
    )
    joined = hash_join(left, right, on="k", num_buckets=4)
    assert not log.exists()
    assert len(joined.to_pandas()) == 20
    rows = {"l": 0, "r": 0}
    for line in log.read_text().splitlines():
        side, n = line.split()
        rows[side] += int(n)
    assert rows == {"l": len(LEFT), "r": len(RIGHT)}


def test_cogroup_hands_fn_the_other_sides_empty_columns(ray_session):
    left = rd.from_pandas(LEFT)
    right = rd.from_pandas(pd.DataFrame({"k": [1000], "name": ["x"]}))

    def describe(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n_l": [len(l)],
                "n_r": [len(r)],
                "r_cols": [",".join(f"{c}:{t}" for c, t in r.dtypes.items())],
            }
        )

    seen = shuffle.cogroup(left, right, ["k"], describe, 8).to_pandas()
    lonely = seen[(seen["n_l"] > 0) & (seen["n_r"] == 0)]
    assert len(lonely) > 0
    assert set(lonely["r_cols"]) == {"k:int64,name:object"}
    assert seen["n_l"].sum() == len(LEFT) and seen["n_r"].sum() == 1


def test_left_join_keeps_right_columns_without_a_match(ray_session):
    right = rd.from_pandas(pd.DataFrame({"k": [1000], "rv": [7], "s": ["x"]}))
    out = hash_join(
        rd.from_pandas(LEFT), right, on="k", how="left", num_buckets=4
    ).to_pandas()
    assert list(out.columns) == ["k", "lv", "rv", "s"]
    assert len(out) == len(LEFT)
    assert out["rv"].isna().all() and out["s"].isna().all()
    assert _sorted(out[["k", "lv"]]).equals(LEFT)


def test_zero_row_input_on_either_side(ray_session):
    full = rd.from_pandas(LEFT)
    empty = rd.from_pandas(RIGHT).filter(expr="k < 0")
    for left, right in ((full, empty), (empty, full)):
        assert len(hash_join(left, right, on="k", num_buckets=4).to_pandas()) == 0
    kept = hash_join(full, empty, on="k", how="left", num_buckets=4).to_pandas()
    assert _sorted(kept[["k", "lv"]]).equals(LEFT)
    anti = partitioned_anti_join(full, empty, on="k", num_buckets=4).to_pandas()
    assert _sorted(anti).equals(LEFT)
    assert len(partitioned_anti_join(empty, full, on="k", num_buckets=4).to_pandas()) == 0


def test_only_shuffle_spells_the_side_column():
    """The side tag of a two-sided exchange lives in ``stages/shuffle.py``
    alone; every other module goes through ``cogroup``."""
    owner = pathlib.Path(shuffle.__file__).resolve()
    pkg = owner.parents[1]
    hits = [
        str(p.relative_to(pkg))
        for p in sorted(pkg.rglob("*.py"))
        if p != owner and '"_side"' in p.read_text()
    ]
    assert hits == []
