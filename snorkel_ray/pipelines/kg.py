"""Flagship end-to-end KG-construction pipeline (north star).

pages → [filter lang] → html_to_text → sentences → candidates
(broadcast alias dict) → labeling functions → entity linking →
(triple, vote-pattern) partials → label-model fit on their counts →
score the partials → dedup/sort/write triples.  LF application and
linking run on elastic tasks, or as actor pools when the caller sets
``concurrency`` (``state.resources.stateful_map``).

This module is the ONE definition of the flagship: the labeled chain
(``_kb_broadcasts`` → ``_labeled_chain`` with ``_labeled_params`` as
its checkpoint fingerprint) and the tail ``_triples``.
``run_kg_pipeline`` streams both; ``state.sharded.run_kg_pipeline_sharded``
runs the labeled chain per input shard and then the same ``_triples``,
so sharded == streaming by construction.

Checkpointed stages: ``labeled`` (one ``_skip_or_build`` step, as each
shard of the sharded runner takes); the tail is one pass over it.

Reference lifecycle being recast: SURVEY.md §3 E1/E2 (parse → extract
→ label → supervise → score), with the RDBMS replaced by Dataset
lineage + per-stage parquet checkpoints.

One pass, one exact fit: ``p`` depends only on a row's vote pattern,
so the triple combiner and the label model's statistic are one
partial aggregate (SUDAF's shared state).  Control leaves the Ray Data
DAG once, for the tiny EM fit on the partials' pattern counts
(SURVEY.md A4); the weights ride back by closure capture.
"""

from __future__ import annotations

import os
import warnings

import pyarrow as pa
import pyarrow.compute as pc

from ..stages.candidates import extract_candidates_fused
from ..stages.extract import extract_docs
from ..stages.label_model import fit_label_model, lf_stats, pattern_counts
from ..stages.labeling import apply_lfs
from ..stages.linking import build_link_index
from ..stages.materialize import link_candidates, triple_partials, triples_from_partials
from ..state.checkpoint import CODE_VERSION, _skip_or_build, fingerprint
from ..state.resources import broadcast_key


def _kb_broadcasts(alias_table: pa.Table, facts):
    """→ (alias_ref, kb_ref, kb_fp): the alias table and KB put once in
    the object store, plus ``kb_fp``, a content digest of both.  They
    determine candidates, DS-LF votes AND linking, so ``kb_fp`` must
    fold into every stage fingerprint — otherwise an edited KB with an
    unchanged input_fingerprint would silently serve stale checkpoints."""
    import ray

    alias_ref = ray.put(alias_table)
    kb_ref = ray.put({"facts": [tuple(f) for f in (facts or [])],
                      "link_index": build_link_index(alias_table)}) if facts else None
    kb_fp = fingerprint(broadcast_key(alias_table),
                        sorted(tuple(f) for f in (facts or [])))
    return alias_ref, kb_ref, kb_fp


def _labeled_params(lang, cooccur_pred, cooccur_gap, kb_fp) -> dict:
    """Fingerprint params of the labeled stage (``CODE_VERSION``
    versions the chain itself)."""
    return {"lang": lang, "lfs": "kg_v1", "cooccur_pred": cooccur_pred,
            "cooccur_gap": cooccur_gap, "kb_fp": kb_fp}


def _labeled_chain(pages, alias_ref, kb_ref, lang, cooccur_pred, cooccur_gap,
                   concurrency=None, giant_page_bytes=None):
    """pages → lang filter → extract_docs → extract_candidates_fused →
    apply_lfs: the flagship's labeled chain, used by the streaming and
    the sharded runner alike.

    The fused docs→candidates map (sentence split + tokenize + pair in
    one map fn) skips the Arrow list<string> sentence columns the
    separate sentence stage built only to be to_pylist()-ed back (the
    tokenizer-stage scaling fix, BASELINE.md "Per-stage scaling audit").
    An explicit ``concurrency`` runs LF application as an actor pool
    of that size; the fused map stays on tasks.  With
    ``giant_page_bytes`` set, oversized pages run the same chain in
    their own single-row-batch stream, unioned before the labeled
    output."""

    def _lang_filter(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b.column("lang"), lang))

    def _chain(pages_ds, batch_size=None):
        return apply_lfs(
            extract_candidates_fused(
                extract_docs(
                    pages_ds.map_batches(_lang_filter, batch_format="pyarrow"),
                    # giant-page routing must bound the PARSE stage too,
                    # not just the candidate stage
                    batch_size=batch_size,
                ),
                alias_ref,
                cooccur_pred=cooccur_pred,
                cooccur_gap=cooccur_gap,
                batch_size=batch_size,
            ),
            kb_ref,
            concurrency=concurrency,
        )

    if giant_page_bytes is None:
        return _chain(pages)
    from ..stages.skew import split_by_row_size

    normal, giant = split_by_row_size(pages, "html", max_bytes=giant_page_bytes)
    return _chain(normal).union(_chain(giant, batch_size=1))


def _triples(linked, threshold, out_dir=None):
    """The flagship's tail, shared by both runners: linked rows →
    (triple, vote-pattern) partials, the only pin → exact EM fit on
    their pattern counts → score the partials → best witness per
    triple.  → (triples Dataset, model, partials).

    After the pin, the counts and the per-block scoring and witness
    pick are plain tasks over the pinned blocks
    (``label_model.pattern_counts``,
    ``materialize.triples_from_partials``): no Ray Data job runs
    unless the final dedup goes distributed or ``out_dir`` is written."""
    parts = triple_partials(linked).materialize()
    model = fit_label_model(pattern_counts(parts))
    triples = triples_from_partials(parts, model, threshold=threshold, out_dir=out_dir)
    return triples, model, parts


def _canonicalize(linked, pin: bool):
    """Re-key subj/obj qids through the canonical entity map (groupby
    on normalized entity keys + connected components through shared
    qids).  A dictionary linker already anchors every linked key, so
    this only helps corpora with colliding/unlinked surface forms —
    hence opt-in.  ``linked`` has two consumers (the edge view and
    apply_mapping): ``pin`` it when no stage parquet backs it."""
    from ..stages.canonicalize import canonical_entity_map
    from ..stages.joins import apply_mapping

    def _edges_view(b: pa.Table) -> pa.Table:
        return pa.table({
            "entity_key": pa.concat_arrays([
                b.column("subj_key").combine_chunks(),
                b.column("obj_key").combine_chunks()]),
            "qid": pa.concat_arrays([
                b.column("subj_qid").combine_chunks(),
                b.column("obj_qid").combine_chunks()]),
        })

    if pin:
        linked = linked.materialize()
    cmap = canonical_entity_map(
        linked.map_batches(_edges_view, batch_format="pyarrow")).materialize()

    # apply_mapping broadcasts the map when it fits and falls back to a
    # keyed join when it doesn't (no driver dict of entity keys)
    for side in ("subj", "obj"):
        linked = apply_mapping(linked, cmap, f"{side}_key", "entity_key",
                               "canonical_id", f"_{side}_canon",
                               default_col=f"{side}_qid")

    def _swap(b: pa.Table) -> pa.Table:
        for side in ("subj", "obj"):
            b = b.set_column(b.schema.get_field_index(f"{side}_qid"),
                             f"{side}_qid", b.column(f"_{side}_canon"))
        return b.drop_columns(["_subj_canon", "_obj_canon"])

    return linked.map_batches(_swap, batch_format="pyarrow")


def run_kg_pipeline(
    pages,
    alias_table: pa.Table,
    facts: list[tuple[str, str, str]] | None = None,
    *,
    lang: str = "en",
    threshold: float = 0.5,
    checkpoint_dir: str | None = None,
    out_dir: str | None = None,
    input_fingerprint: str = "pages",
    concurrency=None,
    cooccur_pred: str | None = None,
    cooccur_gap: int = 3,
    fit_sample_rows: int | None = None,
    canonicalize: bool = False,
    diagnostics: bool = False,
    giant_page_bytes: int | None = None,
):
    """→ (triples Dataset, info dict). Ray must already be initialised
    by the caller (driver contract: this function never calls
    ray.init).

    One exact label-model fit over the whole corpus, in one pass of
    the pages: the fit, the scoring and the triple dedup run on
    (triple, vote-pattern) partials of the linked rows (``_triples``);
    no row-level dataset is pinned.  ``fit_sample_rows`` is deprecated
    and ignored, with a ``DeprecationWarning``.  ``concurrency`` runs
    LF application and linking as actor pools of that size.
    ``checkpoint_dir``: the labeled chain is checkpointed there and
    skipped on a rerun with a matching fingerprint.  ``info``: the
    ``model`` (EM health and the ``patterns``/``rows`` it saw),
    ``stages`` (the labeled manifest's ``stage``/``skipped``/``rows``/
    ``wall_sec`` when checkpointed) and, with ``diagnostics``,
    ``lf_stats`` and ``coverage`` from the partials.

    ``giant_page_bytes``: when set, pages whose ``html`` payload
    exceeds it are routed through their own stream with single-row
    batches (north rule: giant pages handled with explicit routing) —
    one 100 MB page then occupies one task instead of straggling a
    whole block of normal pages.  Both streams run the identical fused
    chain and union before linking."""
    if fit_sample_rows is not None:
        warnings.warn("run_kg_pipeline: fit_sample_rows is ignored; the label "
                      "model is always fit exactly on the whole corpus",
                      DeprecationWarning, stacklevel=2)
    alias_ref, kb_ref, kb_fp = _kb_broadcasts(alias_table, facts)

    def _build():
        return _labeled_chain(pages, alias_ref, kb_ref, lang, cooccur_pred,
                              cooccur_gap, concurrency=concurrency,
                              giant_page_bytes=giant_page_bytes)

    if checkpoint_dir is None:
        labeled, stages = _build(), []
    else:
        import ray.data as rd

        params = {**_labeled_params(lang, cooccur_pred, cooccur_gap, kb_fp),
                  "giant_page_bytes": giant_page_bytes}
        final = os.path.join(checkpoint_dir, "labeled")
        m = _skip_or_build(
            final,
            fingerprint(input_fingerprint, "labeled", sorted(params.items()),
                        CODE_VERSION),
            _build,
            {"stage": "labeled", "params": {k: repr(v) for k, v in params.items()}})
        stages = [{k: m.get(k) for k in ("stage", "skipped", "rows", "wall_sec")}]
        labeled = rd.read_parquet(final)
    linked = link_candidates(labeled, alias_ref, concurrency=concurrency)
    if canonicalize:
        linked = _canonicalize(linked, pin=checkpoint_dir is None)
    triples, model, parts = _triples(linked, threshold, out_dir=out_dir)

    info = {"model": model, "stages": stages}
    if diagnostics:
        from ..stages.evaluate import candidate_coverage
        from ..stages.labeling import LFApplier

        lf_names = LFApplier(None).lf_names
        info["lf_stats"] = lf_stats(parts, lf_names).to_pandas().to_dict("records")
        info["coverage"] = candidate_coverage(parts)
    return triples, info
