"""Featurizer + shared feature vocabulary (SURVEY.md §2.10 featurizers, T3).

Reference: ``FeatureAnnotator(f=get_span_feats)`` generates string
feature names per candidate (``snorkel/features/`` treedlib/ddlib
paths) and upserts them into a global ``FeatureKey`` DB table under a
lock — a shared mutable index.  Recast as the two-pass pattern
(SURVEY.md T3): pass 1 flat-maps feature names and builds the vocab
with a groupby-count (keeping the top ``max_vocab``), pass 2 broadcasts
the small name→id dict and emits per-candidate sparse id lists.  No
lock, no shared mutable state.

The default feature generator is a ddlib-flavored light set: between
unigrams/bigrams, span word shapes, gap bucket, left/right window
unigrams.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np
import pyarrow as pa

FeatureFn = Callable[[dict], Iterator[str]]


def default_candidate_features(row: dict) -> Iterator[str]:
    between = row["between_text"].split()
    for w in between:
        yield f"BETW_{w}"
    for a, b in zip(between, between[1:]):
        yield f"BETW_BG_{a}_{b}"
    yield f"GAP_{min(int(row['gap']), 10)}"
    subj = row["subj_text"]
    obj = row["obj_text"]
    yield f"SUBJ_SHAPE_{'T' if subj[:1].isupper() else 'l'}{len(subj.split())}"
    yield f"OBJ_SHAPE_{'T' if obj[:1].isupper() else 'l'}{len(obj.split())}"
    pre = row["pre_text"].split()
    for w in pre[-2:]:
        yield f"LEFT_{w}"
    if row.get("pred"):
        yield f"PRED_{row['pred']}"


_FEAT_COLS = ("between_text", "gap", "subj_text", "obj_text", "pre_text", "pred")


def _feature_rows(batch: pa.Table, feature_fn) -> list[dict]:
    """Row dicts for ``feature_fn``: the DEFAULT fn reads only
    ``_FEAT_COLS`` (cheap projection); a CUSTOM fn sees every column
    (round-4 review: the hard-coded projection broke any extension fn
    reading other candidate columns)."""
    if feature_fn is default_candidate_features:
        return batch.select(list(_FEAT_COLS)).to_pylist()
    return batch.to_pylist()


def build_feature_vocab(candidates, *, feature_fn: FeatureFn = default_candidate_features,
                        max_vocab: int = 100_000, min_count: int = 1) -> dict[str, int]:
    """Pass 1: distributed name counting → driver-side id assignment
    (ids ordered by (-count, name): deterministic)."""
    from ray.data.aggregate import Sum

    from ..state.resources import fold_blocks

    def _names(batch: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for row in _feature_rows(batch, feature_fn):
            for name in feature_fn(row):
                counts[name] = counts.get(name, 0) + 1
        ks = list(counts)
        return pa.table({"name": pa.array(ks, pa.string()),
                         "n": pa.array([counts[k] for k in ks], pa.int64())})

    import pyarrow.compute as pc

    agg = (candidates.map_batches(_names, batch_format="pyarrow")
           .groupby("name").aggregate(Sum("n", alias_name="n")))
    # top-max_vocab via per-block partial top-k + driver merge
    # (``state.resources.fold_blocks``; the corpus_stats.top_ngrams
    # shape): a distributed sort+limit would append a second AllToAll
    # over the distinct-name table purely to take the cap
    def _take_k(t: pa.Table) -> pa.Table:
        cnt = np.asarray(t.column("n"))
        names = np.asarray(t.column("name"))
        order = np.lexsort((names, -cnt))[:max_vocab]
        return t.take(pa.array(order))

    def _partial(b: pa.Table) -> pa.Table:
        return _take_k(b.filter(pc.greater_equal(b.column("n"), min_count)))

    def _merge(buf: pa.Table | None, b: pa.Table) -> pa.Table:
        buf = b if buf is None else pa.concat_tables([buf, b])
        return _take_k(buf) if buf.num_rows > 2 * max_vocab else buf

    buf = fold_blocks(agg, _partial, _merge, None)
    if buf is None or buf.num_rows == 0:
        return {}
    buf = _take_k(buf)
    return {name: i for i, name in enumerate(buf.column("name").to_pylist())}


def featurize(candidates, vocab: dict[str, int], *,
              feature_fn: FeatureFn = default_candidate_features,
              batch_size: int | None = None):
    """Pass 2: broadcast vocab → per-candidate sorted feature-id lists
    (the reference's sparse Feature EAV rows become one list<int32>
    column).  A ``stateful_map`` stage: elastic tasks fetch the vocab
    once per worker process (CLAUDE.md rules 2-3: an actor pool would
    cap the fused chain, and a fixed batch_size would re-batch it)."""
    import ray

    from ..state.resources import stateful_map

    v_ref = ray.put(vocab)

    def build():
        local_vocab = ray.get(v_ref)

        def _featurize(batch: pa.Table) -> pa.Table:
            feats = []
            for row in _feature_rows(batch, feature_fn):
                ids = {local_vocab[n] for n in feature_fn(row) if n in local_vocab}
                feats.append(sorted(ids))
            return batch.append_column(
                "feature_ids", pa.array(feats, pa.list_(pa.int32())))

        return _featurize

    # one put per call, so the ref also keys this call's feature_fn
    return stateful_map(candidates, build, key=v_ref.hex(),
                        batch_size=batch_size)
