"""Triple materialization: link → partials → filter → dedup → sort → Parquet.

``triple_partials`` folds each block's linked rows into one row per
(triple, vote pattern) with a count ``n``; the label model fits on
those counts and scores only the partials.

Reference analogs: candidate uniqueness via DB UNIQUE constraints
(``snorkel/models/candidate.py`` ≈L60 — here D1/D2 hash-partition +
per-group max-p witness) and the deterministic ``ORDER BY id`` fetches
(``snorkel/annotations.py`` ≈L100 — here one final sort O5, the only
place output determinism demands ordering).

Dedup is two-phase to survive skew (hot entities own ~30% of mentions):
a per-batch combiner keeps one max-p row per triple key BEFORE the
hash shuffle, so the all-to-all moves at most (distinct triples ×
blocks) rows, not the full candidate stream.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schemas import TRIPLES
from .linking import LinkerActor

TRIPLE_KEY = ["subj_qid", "pred", "obj_qid"]


class _BothLinker(LinkerActor):
    """Links both argument keys per batch (subj_ / obj_ prefixes)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        sq, ss = self.link_keys(batch.column("subj_key").to_pylist())
        oq, os_ = self.link_keys(batch.column("obj_key").to_pylist())
        batch = batch.append_column("subj_qid", pa.array(sq, pa.string()))
        batch = batch.append_column("subj_link_score", pa.array(ss, type=pa.float32()))
        batch = batch.append_column("obj_qid", pa.array(oq, pa.string()))
        batch = batch.append_column("obj_link_score", pa.array(os_, type=pa.float32()))
        return batch


def link_candidates(scored, alias_ref, *, concurrency=None, batch_size: int | None = None):
    """Append subj_qid/obj_qid (+ link scores) to scored candidates:
    elastic tasks with a per-worker-process linker (the alias link
    index is small), or an actor pool of ``concurrency`` when it is
    set."""
    from ..state.resources import broadcast_key, stateful_map

    return stateful_map(scored, lambda: _BothLinker(alias_ref), key=broadcast_key(alias_ref),
                        concurrency=concurrency, batch_size=batch_size)


# dedup identity: the qid when linked, the SURFACE TEXT when not —
# distinct unlinked facts must not collapse under the shared "" qid
# (round-4 review: ('', pred, '') keyed every unlinked triple)
DEDUP_KEY = ["_dk_subj", "pred", "_dk_obj"]
_WITNESS_ORDER = DEDUP_KEY + ["p", "url", "sent_stable_id"]
_WITNESS_DIR = ["ascending"] * 3 + ["descending"] + ["ascending"] * 2
# deterministic output order; subj/obj break ties among unlinked rows
_OUT_ORDER = TRIPLE_KEY + ["subj", "obj"]


def _dedup_keys(t: pa.Table, subj: str = "subj", obj: str = "obj") -> pa.Table:
    """The ``DEDUP_KEY`` columns of ``t``: per side the qid when
    linked, "t:" + the surface text when not; both sides "" when
    ``pred`` is "" (not a triple: such rows group by their other keys
    alone)."""
    pred = t.column("pred")
    no_pred = pc.equal(pred, "")

    def side(qid: str, text: str):
        q = t.column(qid)
        dk = pc.if_else(pc.not_equal(q, ""), q,
                        pc.binary_join_element_wise("t:", t.column(text), ""))
        return pc.if_else(no_pred, "", dk)

    return pa.table({"_dk_subj": side("subj_qid", subj), "pred": pred,
                     "_dk_obj": side("obj_qid", obj)})


def _best_witness(t: pa.Table) -> pa.Table:
    """One row per dedup key: max p, ties broken by (url,
    sent_stable_id) — DETERMINISTIC regardless of block arrival order
    (a bare idxmax picks whichever tied witness arrived first and makes
    reruns differ in the witness columns).  Also the per-batch
    combiner of ``materialize_triples``."""
    from ..state.resources import first_rows

    if not t.num_rows:
        return t
    keys = _dedup_keys(t)
    order = pc.sort_indices(
        pa.Table.from_arrays(keys.columns + [t.column(c) for c in _WITNESS_ORDER[3:]],
                             names=_WITNESS_ORDER),
        sort_keys=list(zip(_WITNESS_ORDER, _WITNESS_DIR))).to_numpy()
    return t.take(first_rows(keys, order)[0])


# a triple partial keeps the triple, its witness and its votes; ``n``
# (appended) counts the linked rows it stands for
_PART_COLS = ["subj_text", "pred", "obj_text", "subj_qid", "obj_qid",
              "url", "sent_stable_id", "L"]


def _partials_batch(batch: pa.Table) -> pa.Table:
    """One row per (dedup key, vote pattern) — the min (url,
    sent_stable_id) row, first arrival on a tie — with the group's size
    ``n``; ``pred == ""`` rows group by pattern alone.  Kept rows stay
    in arrival order, so a (p, url, sent) tie later still goes to the
    row that arrived first."""
    from ..state.resources import first_rows
    from .label_model import vote_matrix

    batch = batch.select(_PART_COLS)
    keys = _dedup_keys(batch, "subj_text", "obj_text").append_column(
        "_pat", pa.array([v.tobytes() for v in vote_matrix(batch)], pa.binary()))
    order = pc.sort_indices(batch, sort_keys=[("url", "ascending"),
                                              ("sent_stable_id", "ascending")]).to_numpy()
    rows, n = first_rows(keys, order)
    by_row = np.argsort(rows)
    return batch.take(rows[by_row]).append_column("n", pa.array(n[by_row], pa.int64()))


def triple_partials(linked):
    """Linked candidates → (triple, vote-pattern) partials, the one
    per-block aggregate behind both the label model's ``n``-weighted
    pattern counts and the triple combiner.  ``p`` is a function of the
    pattern alone, so the best witness of a triple is the best of its
    per-pattern bests: ``materialize_triples`` on the scored partials
    picks the witness it picks from the scored rows."""
    return linked.map_batches(_partials_batch, batch_format="pyarrow")


def _dedup_distributed(combined):
    """The distributed final dedup: one best witness per dedup key by
    ``_best_witness``'s rule — max p, then url, then sent_stable_id,
    then first arrival — through ``resources.top_by_key``, whose
    merge shuffles only the combined partials (CLAUDE.md perf rule 5:
    no per-group ``map_groups``).  The ``DEDUP_KEY`` columns are
    appended for the shuffle and dropped after it."""
    from ..state.resources import top_by_key

    def _keyed(b: pa.Table) -> pa.Table:
        k = _dedup_keys(b)
        return b.append_column("_dk_subj", k.column("_dk_subj")) \
            .append_column("_dk_obj", k.column("_dk_obj"))

    order = list(zip(_WITNESS_ORDER, _WITNESS_DIR))[3:]
    return top_by_key(combined.map_batches(_keyed, batch_format="pyarrow"), DEDUP_KEY, order) \
        .drop_columns(["_dk_subj", "_dk_obj"])


# the final dedup of the combined partials runs on the driver up to
# this many rows (a distinct-triple set that fits driver memory), and
# distributed beyond it — a 10^12-doc KG's does not fit a driver
_DRIVER_DEDUP_ROWS = 5_000_000


def _project(batch: pa.Table, threshold: float) -> pa.Table:
    """Scored rows with ``p >= threshold`` and a ``pred``, as
    ``TRIPLES`` columns."""
    keep = pc.and_(pc.greater_equal(batch.column("p"), threshold),
                   pc.not_equal(batch.column("pred"), ""))
    return batch.filter(keep).select(
        ["subj_text", "pred", "obj_text", "subj_qid", "obj_qid", "p", "url",
         "sent_stable_id"]).rename_columns(TRIPLES.names)


def _final_dedup(refs: list, rows: int, out_dir: str | None):
    """The final phase of the two-phase dedup: per-block witness
    tables (``refs``, ``rows`` in all) → one deduped, sorted triples
    Dataset, written to ``out_dir`` when given.

    Up to ``_DRIVER_DEDUP_ROWS``: the tables come to the DRIVER for
    the final dedup+sort in Arrow.  No AllToAll of any kind — measured
    on this Ray version, even a ``repartition(1)`` appended to a live
    map chain forces bulk materialization of the whole upstream
    through the object store (58s plan → 209s at 4 CPUs).  Beyond it:
    the distributed path — the best witness per triple key
    (``_dedup_distributed``) and a range sort."""
    import ray
    import ray.data as rd

    if not rows:  # schema-stable empty result
        out = rd.from_arrow(TRIPLES.empty_table())
    elif rows <= _DRIVER_DEDUP_ROWS:
        best = _best_witness(pa.concat_tables([t for t in ray.get(refs) if t.num_rows]))
        out = rd.from_arrow(best.take(pc.sort_indices(
            best, sort_keys=[(c, "ascending") for c in _OUT_ORDER])))
    else:
        out = _dedup_distributed(rd.from_arrow_refs(refs)).sort(_OUT_ORDER)
    if out_dir is not None:
        from ..state.checkpoint import atomic_write_parquet

        atomic_write_parquet(out, out_dir)
        out = rd.read_parquet(out_dir)
    return out


def materialize_triples(linked, *, threshold: float = 0.5, out_dir: str | None = None):
    """scored+linked candidates → deduped, sorted triples Dataset
    (written to ``out_dir`` when given; partitioned parquet).

    Dedup is two-phase: a per-batch combiner first (keeps one max-p
    witness per triple key per batch), so at most (distinct triples ×
    blocks) rows survive to the final phase (``_final_dedup``), which
    switches on their row count (round-2 verdict item 2: the caller
    should not have to know whether the distinct-triple set fits a
    driver).  The combined witnesses are materialized either way (they
    are consumed in full next), so the ``count()`` is a metadata read,
    not an extra pass."""
    # batch_size MUST stay None: a fixed batch_size here re-batches the
    # live fused chain (buffer + split between operators) and measured
    # 5x wall time on the 40k-page bench (1.9s -> 10.2s at 32 CPUs) —
    # per-block combining dedups nearly as well with zero rebatching
    # (CLAUDE.md perf rule 3)
    combined = linked.map_batches(lambda b: _best_witness(_project(b, threshold)),
                                  batch_format="pyarrow").materialize()
    return _final_dedup(combined.to_arrow_refs(), combined.count(), out_dir)


def _witness_block(block, theta: np.ndarray, pi: float, threshold: float):
    """One block of triple partials → (its scored, projected best
    witnesses, their row count)."""
    from ray.data.block import BlockAccessor

    from .label_model import append_p

    t = _best_witness(_project(
        append_p(BlockAccessor.for_block(block).to_arrow(), theta, pi), threshold))
    return t, t.num_rows


@functools.cache
def _witness_task():
    import ray

    return ray.remote(num_returns=2)(_witness_block)


def triples_from_partials(parts, model: dict, *, threshold: float = 0.5,
                          out_dir: str | None = None):
    """Pinned (triple, vote-pattern) partials + the fitted label model
    → the triples of ``materialize_triples(score_marginals(parts,
    model), ...)``, with no Ray Data job: one plain task per block
    (``state.resources.block_tasks``) scores, projects and keeps the
    block's best witnesses, and returns them with their row count, so
    the final dedup's driver/distributed switch is decided before any
    table is fetched (SUDAF's mergeable partials, as
    ``label_model.pattern_counts`` merges its counts)."""
    import ray

    from ..state.resources import block_tasks

    theta = np.asarray(model["theta"], dtype=np.float64)
    refs, rows = [], 0
    for ref, n in block_tasks(parts, _witness_task(), theta, float(model["pi"]), threshold):
        rows += ray.get(n)
        refs.append(ref)
    return _final_dedup(refs, rows, out_dir)


def evaluate_triples(got: pa.Table, golden: pa.Table) -> dict:
    """P/R/F1 on distinct (subj_qid, pred, obj_qid) sets — the
    north-rule gate (reference ``MentionScorer`` /
    ``binary_scores_from_counts``, ``snorkel/learning/utils.py``
    ≈L40–250). Driver-side: triple sets are small after dedup."""

    def keyset(t: pa.Table) -> set:
        return set(zip(*(t.column(c).to_pylist() for c in TRIPLE_KEY)))

    g, e = keyset(got), keyset(golden)
    tp = len(g & e)
    p = tp / len(g) if g else 0.0
    r = tp / len(e) if e else 0.0
    f1 = 2 * p * r / (p + r) if (p + r) else 0.0
    return {"tp": tp, "fp": len(g - e), "fn": len(e - g),
            "precision": p, "recall": r, "f1": f1}
