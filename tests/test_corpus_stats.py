"""Corpus stats: line counts, frequent-line removal (both physical
plans), n-gram counts, exact global top-k."""

from collections import Counter

import pyarrow as pa
import pytest
import ray

from snorkel_ray.stages.corpus_stats import (
    line_counts,
    ngram_counts,
    remove_frequent_lines,
    top_ngrams,
)

DOCS = [
    "cookie banner\nreal content one\ncookie banner",
    "cookie banner\nreal content two",
    "nav bar\nreal content three\nnav bar",
    "nav bar\nunique line here",
    "only original text",
]


def _ds(blocks=3):
    t = pa.table({"doc_id": list(range(len(DOCS))), "text": DOCS})
    return ray.data.from_arrow(t).repartition(blocks)


def test_line_counts_exact():
    out = line_counts(_ds(), "text").to_pandas().set_index("line")
    # "cookie banner": 3 occurrences (twice in doc0) across 2 docs
    assert out.loc["cookie banner", "n_occurrences"] == 3
    assert out.loc["cookie banner", "n_docs"] == 2
    assert out.loc["nav bar", "n_docs"] == 2
    assert out.loc["nav bar", "n_occurrences"] == 3
    assert out.loc["only original text", "n_docs"] == 1
    # total lines preserved
    assert out.n_occurrences.sum() == sum(len(d.split("\n")) for d in DOCS)


def test_remove_frequent_lines_broadcast():
    out = (remove_frequent_lines(_ds(), "text", min_docs=2, stats=True)
           .to_pandas().sort_values("doc_id"))
    assert out.text.tolist() == [
        "real content one", "real content two", "real content three",
        "unique line here", "only original text"]
    assert out.n_removed_lines.tolist() == [2, 1, 2, 1, 0]
    assert out.n_kept_lines.tolist() == [1, 1, 1, 1, 1]


def test_remove_frequent_lines_shuffle_parity():
    # broadcast_limit=0 forces the explode + hash-semi-join plan;
    # results must match the broadcast plan exactly
    a = (remove_frequent_lines(_ds(), "text", min_docs=2, stats=True)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    b = (remove_frequent_lines(_ds(), "text", min_docs=2, stats=True,
                               broadcast_limit=0)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    cols = ["doc_id", "text", "n_kept_lines", "n_removed_lines"]
    assert a[cols].equals(b[cols].astype(a[cols].dtypes))


def test_remove_frequent_lines_no_frequent():
    out = (remove_frequent_lines(_ds(), "text", min_docs=99)
           .to_pandas().sort_values("doc_id"))
    assert out.text.tolist() == DOCS


def test_ngram_counts_exact():
    out = ngram_counts(_ds(), "text", n=2).to_pandas()
    got = dict(zip(out.ngram, out.n))
    expect: Counter = Counter()
    for d in DOCS:
        ws = [w for w in __import__("re").split(r"[^a-z0-9]+", d.lower()) if w]
        expect.update(" ".join(ws[i:i + 2]) for i in range(len(ws) - 1))
    assert got == dict(expect)
    with pytest.raises(ValueError):
        ngram_counts(_ds(), "text", n=0)


def test_top_ngrams_exact_and_partition_invariant():
    def brute(n, k):
        c: Counter = Counter()
        for d in DOCS:
            ws = [w for w in __import__("re").split(r"[^a-z0-9]+", d.lower()) if w]
            c.update(" ".join(ws[i:i + n]) for i in range(len(ws) - n + 1))
        return sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    for blocks in (1, 4):
        t = top_ngrams(_ds(blocks), "text", n=1, k=5)
        got = list(zip(t.column("ngram").to_pylist(), t.column("n").to_pylist()))
        assert got == brute(1, 5)


def test_line_counts_null_text_rows():
    """Null text rows must count as empty documents, not TypeError
    (ADVICE r3: set(None) crashed the partial)."""
    t = pa.table({"doc_id": [0, 1, 2],
                  "text": pa.array(["a\nb", None, "a"], pa.string())})
    ds = ray.data.from_arrow(t).repartition(2)
    out = line_counts(ds, "text").to_pandas().set_index("line")
    assert out.loc["a", "n_docs"] == 2
    assert out.loc["b", "n_occurrences"] == 1

    cleaned = (remove_frequent_lines(ds, "text", min_docs=2, stats=True)
               .to_pandas().sort_values("doc_id"))
    # "a" is frequent (2 docs); the null row becomes an empty doc
    assert cleaned.text.tolist() == ["b", "", ""]


def test_ngram_counts_null_text():
    t = pa.table({"doc_id": [0, 1], "text": pa.array(["a b", None])})
    ds = ray.data.from_arrow(t)
    out = ngram_counts(ds, "text", n=1).to_pandas().set_index("ngram")
    assert out.loc["a", "n"] == 1 and out.loc["b", "n"] == 1


def test_tfidf_scores(ray_session):
    import math

    import ray.data as rd

    from snorkel_ray.stages.corpus_stats import tfidf_scores

    docs = rd.from_items([
        {"doc_id": 0, "text": "data data query"},
        {"doc_id": 1, "text": "fast sort"},
        {"doc_id": 2, "text": "nothing relevant"},
        {"doc_id": 3, "text": "data fast data fast"},
    ])
    out = (tfidf_scores(docs, ["data", "fast", "absent"])
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    idf_d = round(math.log(4 / 2) * 1e6) / 1e6  # df(data)=2, N=4
    idf_f = idf_d                               # df(fast)=2
    assert out["score"].tolist() == [
        2 * idf_d, idf_f, 0.0, 2 * idf_d + 2 * idf_f]
    # a term absent from the corpus contributes nothing (df=0)
    # a term listed twice counts once (its df is not counted twice)
    again = (tfidf_scores(docs, ["data", "fast", "absent", "data"])
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert again["score"].tolist() == out["score"].tolist()
    # "" is refused (no token is empty); a ValueError, unlike an assert,
    # survives python -O
    with pytest.raises(ValueError, match="reserved"):
        tfidf_scores(docs, ["data", ""])

