"""Every keyless partial aggregate runs on ``state.resources.fold_blocks``
and every keyed one on ``state.resources.fold_by_key``: each gives the
same result on a materialized Dataset and on its lazy twin, and keeps
its result on the edge inputs — no rows at all, only empty blocks, and
a schema-less empty block next to typed ones."""

import math

import numpy as np
import pyarrow as pa
import pytest

from .test_label_model import _lazy

_WORDS = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta"]
_INIT = np.eye(4, dtype=np.float32)[:2]


def _table(n: int) -> pa.Table:
    rng = np.random.default_rng(3)
    return pa.table({
        "id": pa.array(np.arange(n), pa.int64()),
        "x": pa.array(rng.normal(size=n)),
        "k": pa.array([f"k{i % 7}" for i in range(n)]),
        "L": pa.array([[int(v) for v in rng.integers(-1, 2, 3)] for _ in range(n)],
                      pa.list_(pa.int8())),
        "cand_stable_id": pa.array([str(i) for i in range(n)]),
        "p": pa.array(rng.random(n)),
        "text": pa.array([" ".join(_WORDS[(i + j * (i % 3 + 1)) % 7] for j in range(9))
                          for i in range(n)]),
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "between_text": pa.array([["w x", "y", "w z"][i % 3] for i in range(n)]),
        "gap": pa.array([i % 4 for i in range(n)], pa.int64()),
        "subj_text": pa.array(["A"] * n), "obj_text": pa.array(["b c"] * n),
        "pre_text": pa.array(["p q"] * n), "pred": pa.array(["", "born_in"] * (n // 2)),
        "embedding": pa.array([list(v) for v in rng.normal(size=(n, 4)).astype(np.float32)],
                              pa.list_(pa.float32())),
    })


_GOLD = pa.table({"cand_stable_id": [str(i) for i in range(0, 40, 2)],
                  "label": [1 if i % 4 else -1 for i in range(0, 40, 2)]})


def _bloom_bits(ds):
    from snorkel_ray.stages.decontaminate import build_eval_bloom

    return build_eval_bloom(ds, "text", n=3, n_items_hint=1000).bits


def _empty_bloom_bits():
    from snorkel_ray.stages.decontaminate import BloomFilter

    return BloomFilter(1000).bits


def _tfidf(ds):
    from snorkel_ray.stages.corpus_stats import tfidf_scores

    return sorted(tfidf_scores(ds, ["alpha", "eta", "zzz"]).to_pandas()
                  .itertuples(index=False, name=None))


def _score_vs_gold(ds):
    from snorkel_ray.stages.evaluate import score_vs_gold

    # the error lists follow block order, which a lazy chain does not fix
    return {k: sorted(v) if k.endswith("_ids") else v
            for k, v in score_vs_gold(ds, _GOLD).items()}


def _run(name, ds):
    """``name``'s result on ``ds`` (a Dataset-valued one collected)."""
    from snorkel_ray.stages import (corpus_stats, decontaminate, evaluate, features,
                                    label_model, sampling, similarity, sketches,
                                    structure)

    calls = {
        "pattern_counts": lambda: label_model.pattern_counts(ds),
        "approx_quantiles": lambda: sketches.approx_quantiles(ds, "x", [0.1, 0.5, 0.9]),
        "approx_distinct": lambda: sketches.approx_distinct(ds, "k"),
        "heavy_hitters": lambda: sketches.heavy_hitters(ds, "k", k=3),
        "lf_moments": lambda: structure.lf_moments(ds),
        "score_vs_gold": lambda: _score_vs_gold(ds),
        "top_ngrams": lambda: corpus_stats.top_ngrams(ds, "text", 2, 5),
        "tfidf_scores": lambda: _tfidf(ds),
        "collect_eval_ngrams": lambda: decontaminate.collect_eval_ngrams(ds, "text", n=3),
        "eval_ngram_hashes": lambda: decontaminate.eval_ngram_hashes(ds, "text", n=3),
        "build_eval_bloom": lambda: _bloom_bits(ds),
        "bottom_k_sample": lambda: sampling.bottom_k_sample(ds, "id", 5),
        "build_feature_vocab": lambda: features.build_feature_vocab(ds),
        "kmeans_fit_full": lambda: similarity.kmeans_fit_full(
            ds, n_centroids=2, n_iter=2, init=_INIT, exact_sizes=True),
    }
    return calls[name]()


# each function's result on an input with no rows
_NO_ROWS = {
    "pattern_counts": lambda: pa.table({"pattern": pa.array([], pa.binary()),
                                        "n": pa.array([], pa.int64())}),
    "approx_quantiles": lambda: [math.nan] * 3,
    "approx_distinct": lambda: np.float64(0.0),
    "heavy_hitters": lambda: pa.table({"k": pa.array([], pa.string()),
                                       "n": pa.array([], pa.int64()),
                                       "err": pa.array([], pa.int64())}),
    "lf_moments": lambda: {"n": 0, "fire": np.zeros(0), "agree": np.zeros((0, 0)),
                           "cofire": np.zeros((0, 0))},
    "score_vs_gold": lambda: {"tp": 0, "fp": 0, "tn": 0, "fn": 0, "precision": 0.0,
                              "recall": 0.0, "f1": 0.0, "tp_ids": [], "fp_ids": [],
                              "fn_ids": []},
    "top_ngrams": lambda: pa.table({"ngram": pa.array([], pa.string()),
                                    "n": pa.array([], pa.int64())}),
    "tfidf_scores": lambda: [],
    "collect_eval_ngrams": lambda: [],
    "eval_ngram_hashes": lambda: np.zeros(0, np.uint64),
    "build_eval_bloom": _empty_bloom_bits,
    "bottom_k_sample": lambda: _table(40).slice(0, 0),
    "build_feature_vocab": lambda: {},
    "kmeans_fit_full": lambda: (_INIT, {"iterations": 1, "max_shift_per_iter": [0.0],
                                        "cluster_sizes": [0, 0],
                                        "cluster_sizes_exact": True}),
}


def _canon(x):
    """A comparable form: types and schemas count, NaN equals NaN."""
    if isinstance(x, pa.Table):
        return ("table", str(x.schema), x.to_pylist())
    if isinstance(x, np.ndarray):
        return ("ndarray", str(x.dtype), x.shape, x.tolist())
    if isinstance(x, dict):
        return ("dict", [(k, _canon(v)) for k, v in sorted(x.items())])
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, [_canon(v) for v in x])
    if isinstance(x, float) and math.isnan(x):
        return ("nan",)
    return (type(x).__name__, x)


@pytest.mark.parametrize("name", sorted(_NO_ROWS))
def test_fold_is_the_same_on_lazy_and_edge_inputs(ray_session, name):
    import ray.data as rd

    t = _table(40)
    halves = [t.slice(0, 20), t.slice(20)]
    ds = rd.from_arrow(halves).materialize()
    want = _canon(_run(name, ds))
    assert _canon(_run(name, _lazy(ds))) == want
    # a schema-less empty block among typed ones contributes nothing
    assert _canon(_run(name, rd.from_arrow([halves[0], pa.table({}), halves[1]]))) == want
    no_rows = _canon(_NO_ROWS[name]())
    assert _canon(_run(name, rd.from_arrow(t.slice(0, 0)))) == no_rows
    assert _canon(_run(name, rd.from_arrow([t.slice(0, 0)] * 3))) == no_rows


# --- keyed folds: every ported combiner runs on ``resources.fold_by_key`` ---

def _keyed_table(n: int) -> pa.Table:
    nan = float("nan")
    vals = [1.0, 2.0, nan, None, -0.0, 0.0, 2.0]
    rng = np.random.default_rng(5)
    return pa.table({
        "id": pa.array(np.arange(n), pa.int64()),
        "k": pa.array([f"k{i % 3}" for i in range(n)]),
        "v": pa.array([vals[(i * 5) % 7] for i in range(n)], pa.float64()),
        "x": pa.array(rng.normal(size=n)),
        "y": pa.array(rng.normal(size=n)),
        "url": pa.array([f"https://WWW.S{i % 3}.com/p/{i % 5}#f" for i in range(n)]),
        "entity_key": pa.array([f"e{i % 6}" for i in range(n)]),
        "qid": pa.array([["", "Q1", "Q2"][i % 3] for i in range(n)]),
    })


def _run_keyed(name, ds):
    """``name``'s rows on ``ds``, in a canonical order."""
    from snorkel_ray.stages import canonicalize, reshape, urls

    calls = {
        "grouped_rank": lambda: reshape.grouped_rank(ds, "k", "v", out="r", dense_out="d"),
        "grouped_quantiles": lambda: reshape.grouped_quantiles(ds, "k", "v", [0.25, 0.5]),
        "grouped_mode": lambda: reshape.grouped_mode(ds, "k", "v", count_out="n"),
        "grouped_corr": lambda: reshape.grouped_corr(ds, "k", "x", "y"),
        "grouped_count_distinct": lambda: reshape.grouped_count_distinct(ds, "k", "v"),
        "domain_stats": lambda: urls.domain_stats(ds),
        "canonical_entity_map": lambda: canonicalize.canonical_entity_map(ds),
    }
    return sorted((_canon(r) for r in calls[name]().take_all()), key=repr)


@pytest.mark.parametrize("name", ["grouped_rank", "grouped_quantiles", "grouped_mode",
                                  "grouped_corr", "grouped_count_distinct", "domain_stats",
                                  "canonical_entity_map"])
def test_keyed_fold_is_the_same_on_lazy_and_edge_inputs(ray_session, name):
    """The keyed twin of the test above: NaN, NULL and signed zeros in
    ``v``, two blocks.  With no rows every function returns no rows,
    except ``canonical_entity_map``, which raises ``KeyError`` (it did
    so before its combiner moved to ``fold_by_key``, too)."""
    import ray.data as rd

    t = _keyed_table(42)
    halves = [t.slice(0, 21), t.slice(21)]
    ds = rd.from_arrow(halves).materialize()
    want = _run_keyed(name, ds)
    assert want
    assert _run_keyed(name, _lazy(ds)) == want
    assert _run_keyed(name, rd.from_arrow([halves[0], pa.table({}), halves[1]])) == want
    for empty in (rd.from_arrow(t.slice(0, 0)), rd.from_arrow([t.slice(0, 0)] * 3)):
        if name == "canonical_entity_map":
            with pytest.raises(KeyError):
                _run_keyed(name, empty)
        else:
            assert _run_keyed(name, empty) == []


# --- a null STRING key over several blocks, through every ported stage ---

def _null_key_blocks() -> list[pa.Table]:
    """Three blocks with a null string key in each (Ray 2.49's own sort
    raises comparing None with a string)."""
    rows = pa.table({
        "k": ["a", None, "a", None, "b", "a", "c", None],
        "p": ["x", "y", "x", "x", "y", "y", "x", "y"],
        "v": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        "w": [2.0, 1.0, 4.0, 3.0, 6.0, 8.0, 7.0, 5.0],
        "ts": pa.array([np.datetime64("2024-01-01T05", "us") + np.timedelta64(9 * i, "h")
                        for i in range(8)], pa.timestamp("us")),
    })
    return [rows.slice(0, 3), rows.slice(3, 3), rows.slice(6)]


_NULL_KEY_SQL = {
    "grouped_count_distinct": "SELECT k, count(DISTINCT v) FROM t GROUP BY k",
    "grouped_corr": "SELECT k, round(corr(v, w), 9) FROM t GROUP BY k",
    "pivot_table": "SELECT k, count(*) FILTER (WHERE p = 'x'), count(*) FILTER (WHERE p = 'y') "
                   "FROM t GROUP BY k",
    "tumbling_window_counts": "SELECT k, date_trunc('day', ts), count(*), sum(v) FROM t "
                              "GROUP BY k, date_trunc('day', ts)",
    "rollup_aggregate": "SELECT CASE WHEN grouping(k) = 1 THEN 'ALL' ELSE k END, "
                        "CASE WHEN grouping(p) = 1 THEN 'ALL' ELSE p END, count(*), sum(v) "
                        "FROM t GROUP BY ROLLUP (k, p)",
    "grouped_zscore": "SELECT *, (v - avg(v) OVER w) / stddev_samp(v) OVER w FROM t "
                      "WINDOW w AS (PARTITION BY k)",
    "grouped_string_agg": "SELECT k, string_agg(p, ',' ORDER BY p) FROM t GROUP BY k",
    "grouped_rank": "SELECT *, rank() OVER (PARTITION BY k ORDER BY v) FROM t",
    "grouped_quantiles": "SELECT k, quantile_cont(v, 0.5) FROM t GROUP BY k",
}


@pytest.mark.parametrize("name", sorted(_NULL_KEY_SQL))
def test_ported_aggregate_keeps_a_null_string_key_like_duckdb(ray_session, name):
    """Each stage whose keyed step runs on ``fold_by_key`` or
    ``by_key`` keeps a null string key as a group of its own over three
    blocks, as DuckDB does.  The target block size is lowered inside
    the test, so every keyed pass (rank's and quantiles' fine table
    too) ends in several blocks."""
    import duckdb
    import pandas as pd
    import ray.data as rd
    from ray.data import DataContext

    from snorkel_ray.stages import reshape, rollup, windows

    ds = rd.from_arrow(_null_key_blocks())
    calls = {
        "grouped_count_distinct": lambda: reshape.grouped_count_distinct(ds, "k", "v"),
        "grouped_corr": lambda: reshape.grouped_corr(ds, "k", "v", "w"),
        "pivot_table": lambda: reshape.pivot_table(ds, "k", "p", ["x", "y"]),
        "tumbling_window_counts": lambda: windows.tumbling_window_counts(
            ds, key="k", ts="ts", value="v"),
        "rollup_aggregate": lambda: rollup.rollup_aggregate(
            ds, ["k", "p"], {"n": ("count", "v"), "s": ("sum", "v")}),
        "grouped_zscore": lambda: reshape.grouped_zscore(ds, "k", "v"),
        "grouped_string_agg": lambda: reshape.grouped_string_agg(ds, "k", "p"),
        "grouped_rank": lambda: reshape.grouped_rank(ds, "k", "v"),
        "grouped_quantiles": lambda: reshape.grouped_quantiles(ds, "k", "v", [0.5]),
    }

    def norm(rows):
        return sorted((tuple(pd.Timestamp(x).isoformat() if hasattr(x, "year")
                             else round(x, 9) if isinstance(x, float) else x for x in r)
                       for r in rows), key=repr)

    ctx = DataContext.get_current()
    block_size = ctx.target_max_block_size
    ctx.target_max_block_size = 64
    try:
        got = calls[name]().take_all()
    finally:
        ctx.target_max_block_size = block_size
    t = pa.concat_tables(_null_key_blocks())  # noqa: F841 — read by DuckDB
    want = duckdb.sql(_NULL_KEY_SQL[name]).fetchall()
    assert any(r[0] is None for r in want)
    assert norm(tuple(r.values()) for r in got) == norm(want)

