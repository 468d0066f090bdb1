"""Web-text curation: PII redaction + boilerplate line dedup."""

import pandas as pd
import pyarrow as pa
import ray.data as rd

from rdf_canon_ray.stages import webtext


def _tiny_ds():
    rows = {
        "doc_id": [0, 1, 2, 3],
        "text": [
            "HEADER\nalpha beta reach me at a.b@x.co now\nHEADER",
            "HEADER\ncall +1 555-123-4567 or ping 10.0.0.1\nunique line",
            "HEADER\nHEADER\nHEADER",
            "totally unique\nno boilerplate here",
        ],
    }
    return rd.from_arrow(pa.table(rows)), rows


def test_pii_redactor_counts_and_replacement(ray_session):
    ds, rows = _tiny_ds()
    out = (
        webtext.redact_pii(ds)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["n_email"].tolist() == [1, 0, 0, 0]
    assert out["n_phone"].tolist() == [0, 1, 0, 0]
    assert out["n_ip"].tolist() == [0, 1, 0, 0]
    assert "[EMAIL]" in out["redacted"][0] and "a.b@x.co" not in out["redacted"][0]
    assert "[PHONE]" in out["redacted"][1] and "[IP]" in out["redacted"][1]
    # non-PII text rides through untouched
    assert out["redacted"][3] == rows["text"][3]


def test_remove_boilerplate_order_and_empty(ray_session):
    ds, rows = _tiny_ds()
    out = (
        webtext.remove_boilerplate(ds, freq_threshold=3)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # HEADER appears 6 times >= 3 → dropped everywhere, order preserved
    assert out["clean_text"][0] == "alpha beta reach me at a.b@x.co now"
    assert out["clean_text"][1] == "call +1 555-123-4567 or ping 10.0.0.1\nunique line"
    # all-boilerplate doc collapses to empty, counts reflect it
    assert out["clean_text"][2] == "" and out["n_kept"][2] == 0
    assert out["n_lines"].tolist() == [3, 3, 3, 2]
    # untouched doc keeps every line
    assert out["clean_text"][3] == rows["text"][3]


def test_remove_boilerplate_partitioned_matches(ray_session, monkeypatch, spy):
    # the above-gate path (no driver-side line set) must match the
    # broadcast rewrite exactly — on the real synthetic web corpus
    ds = rd.from_arrow(webtext.synth_web_table(400))
    key = lambda d: (
        d.to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    calls = spy(webtext, "_remove_boilerplate_partitioned")
    bc = key(webtext.remove_boilerplate(ds, freq_threshold=5))
    assert calls == []
    monkeypatch.setattr(webtext, "BOILERPLATE_BROADCAST_MAX", 0)
    part = key(webtext.remove_boilerplate(ds, freq_threshold=5))
    assert len(calls) == 1
    pd.testing.assert_frame_equal(bc, part)


def test_synth_web_table_deterministic():
    a = webtext.synth_web_table(50)
    b = webtext.synth_web_table(50)
    assert a.equals(b)
    texts = a.column("text").to_pylist()
    # boilerplate first+last line by construction; PII present somewhere
    assert all(t.split("\n")[0] in webtext._BOILER for t in texts)
    joined = "\n".join(texts)
    assert "@mail" in joined and "+1 555-" in joined
