"""Flagship end-to-end KG-construction pipeline (north star).

pages → [filter lang] → html_to_text → sentences → candidates (actor
pool, broadcast alias dict) → labeling functions → label-model fit
(streaming pattern-count sufficient stats + driver EM) → marginal
scoring → entity linking (actor pool) → dedup/sort/write triples.

This module is the ONE definition of the flagship's labeled chain
(``_kb_broadcasts`` → ``_labeled_chain`` with ``_labeled_params`` as
its checkpoint fingerprint).  ``run_kg_pipeline`` streams it;
``state.sharded.run_kg_pipeline_sharded`` runs the same functions per
input shard, so sharded == streaming by construction.

Reference lifecycle being recast: SURVEY.md §3 E1/E2 (parse → extract
→ label → supervise → score), with the RDBMS replaced by Dataset
lineage + per-stage parquet checkpoints.

Control leaves the Ray Data DAG exactly once: the tiny EM fit between
the pattern-count aggregate and the scoring map (SURVEY.md A4 —
driver-side fit over K≲10-dim statistics, weights broadcast back by
closure capture).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..stages.candidates import extract_candidates_fused
from ..stages.extract import extract_docs
from ..stages.label_model import fit_label_model, pattern_counts, score_marginals
from ..stages.labeling import apply_lfs
from ..stages.linking import build_link_index
from ..stages.materialize import link_candidates, materialize_triples
from ..state.checkpoint import CheckpointedPipeline, fingerprint
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
    An explicit ``concurrency`` requests bounded actor pools; the
    elastic-task default ignores it.  With ``giant_page_bytes`` set,
    oversized pages run the same chain in their own single-row-batch
    stream, unioned before the labeled output."""
    as_tasks = concurrency is None

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
            as_tasks=as_tasks,
        )

    if giant_page_bytes is None:
        return _chain(pages)
    from ..stages.skew import split_by_row_size

    normal, giant = split_by_row_size(pages, "html", max_bytes=giant_page_bytes)
    return _chain(normal).union(_chain(giant, batch_size=1))


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
    fit_sample_fraction: float | None = None,
    canonicalize: bool = False,
    diagnostics: bool = False,
    giant_page_bytes: int | None = None,
):
    """→ (triples Dataset, info dict). Ray must already be initialised
    by the caller (driver contract: this function never calls
    ray.init).

    ``giant_page_bytes``: when set, pages whose ``html`` payload
    exceeds it are routed through their own stream with single-row
    batches (north rule: giant pages handled with explicit routing) —
    one 100 MB page then occupies one task instead of straggling a
    whole block of normal pages.  Both streams run the identical fused
    chain and union before labeling stats."""
    alias_ref, kb_ref, kb_fp = _kb_broadcasts(alias_table, facts)
    cp = CheckpointedPipeline(checkpoint_dir, input_fingerprint)
    labeled, fp = cp.stage(
        "labeled",
        {**_labeled_params(lang, cooccur_pred, cooccur_gap, kb_fp),
         "giant_page_bytes": giant_page_bytes},
        lambda: _labeled_chain(pages, alias_ref, kb_ref, lang, cooccur_pred,
                               cooccur_gap, concurrency=concurrency,
                               giant_page_bytes=giant_page_bytes),
    )
    if fit_sample_rows is not None or fit_sample_fraction is not None:
        # one-pass mode: fit the label model on a bounded sample, then
        # the single full streaming pass scores — no mid-pipeline
        # materialization. This is the 100 TB shape; the default 2-pass
        # keeps exact full-corpus fit.
        #
        # fit_sample_rows uses limit() — a PREFIX: cheapest (the fit
        # pass stops reading early) but biased when the corpus is
        # sorted/clustered by site or topic. fit_sample_fraction uses a
        # seeded random_sample — unbiased, at the cost of the fit pass
        # scanning the whole corpus. Pick by how your input is laid out
        # (same tradeoff family as fit_centroids/detect_hot_keys,
        # round-1 verdict item 7).
        if fit_sample_fraction is not None:
            fit_input = labeled.random_sample(fit_sample_fraction, seed=41)
            if fit_sample_rows is not None:
                fit_input = fit_input.limit(fit_sample_rows)
        else:
            fit_input = labeled.limit(fit_sample_rows)
        counts = pattern_counts(fit_input)
    else:
        if checkpoint_dir is None:
            # two consumers (stats + scoring) — pin the small/medium
            # test dataset rather than recomputing the chain twice; at
            # scale the parquet checkpoint IS the materialization.
            labeled = labeled.materialize()
        counts = pattern_counts(labeled)
    model = fit_label_model(counts)

    scored = score_marginals(labeled, model)
    linked = link_candidates(scored, alias_ref, concurrency=concurrency)
    linked, fp2 = cp.stage(
        "scored_linked",
        {"threshold": threshold, "kb_fp": kb_fp,
         # the fitted model (hence every p) depends on the sample mode
         "fit_sample_rows": fit_sample_rows,
         "fit_sample_fraction": fit_sample_fraction},
        lambda: linked, prev_fp=fp) if checkpoint_dir else (linked, fp)

    if canonicalize:
        # groupby on normalized entity keys + connected-component merge
        # (north star). With a dictionary linker every linked key is
        # already qid-anchored, so this re-labels only keys whose
        # clusters merge through shared qids — enable for corpora with
        # colliding/unlinked surface forms; off by default because the
        # dictionary path already canonicalizes and the CC shuffles the
        # (small) distinct-edge table.
        from ..stages.canonicalize import canonical_entity_map

        def _edges_view(b: pa.Table) -> pa.Table:
            return pa.table({
                "entity_key": pa.concat_arrays([
                    b.column("subj_key").combine_chunks(),
                    b.column("obj_key").combine_chunks()]),
                "qid": pa.concat_arrays([
                    b.column("subj_qid").combine_chunks(),
                    b.column("obj_qid").combine_chunks()]),
            })

        if checkpoint_dir is None:
            # two consumers (edge view + the apply_mapping/triples
            # pass) — pin once; with a checkpoint the stage parquet IS
            # the materialization (round-4 review: the score+link chain
            # re-executed and the edge shuffle hit the live chain)
            linked = linked.materialize()
        cmap = canonical_entity_map(
            linked.map_batches(_edges_view, batch_format="pyarrow")).materialize()

        # apply the canonical map WITHOUT a driver dict proportional to
        # distinct entity keys (round-1 verdict item 6): apply_mapping
        # broadcasts the map through the object store when it fits and
        # falls back to a hash join when it doesn't; the vectorized
        # pandas .map replaces the old row-at-a-time substitution.
        from ..stages.joins import apply_mapping

        def _swap(col_old: str, col_new: str):
            def _f(b: pa.Table) -> pa.Table:
                i = b.schema.get_field_index(col_old)
                b = b.set_column(i, col_old, b.column(col_new))
                return b.drop_columns([col_new])

            return _f

        linked = apply_mapping(linked, cmap, "subj_key", "entity_key",
                               "canonical_id", "_subj_canon",
                               default_col="subj_qid")
        linked = linked.map_batches(_swap("subj_qid", "_subj_canon"),
                                    batch_format="pyarrow")
        linked = apply_mapping(linked, cmap, "obj_key", "entity_key",
                               "canonical_id", "_obj_canon",
                               default_col="obj_qid")
        linked = linked.map_batches(_swap("obj_qid", "_obj_canon"),
                                    batch_format="pyarrow")

    triples = materialize_triples(linked, threshold=threshold, out_dir=None)
    if checkpoint_dir:
        triples, _ = cp.stage(
            "triples", {"threshold": threshold,
                        "canonicalize": canonicalize},
            lambda: triples, prev_fp=fp2)
    if out_dir is not None:
        from ..state.checkpoint import atomic_write_parquet

        triples = atomic_write_parquet(triples, out_dir)

    info = {"model": model, "stages": cp.summary()}
    if diagnostics:
        from ..stages.evaluate import candidate_coverage
        from ..stages.label_model import lf_stats
        from ..stages.labeling import LFApplier

        lf_names = LFApplier(None).lf_names
        info["lf_stats"] = lf_stats(labeled, lf_names).to_pandas().to_dict("records")
        info["coverage"] = candidate_coverage(labeled)
    return triples, info
