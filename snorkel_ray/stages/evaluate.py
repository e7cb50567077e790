"""Scoring, gold labels, marginal persistence, split assignment.

Reference mappings (SURVEY.md):
- A7 ``MentionScorer`` / ``binary_scores_from_counts`` / ``error_analysis``
  (``snorkel/learning/utils.py`` ≈L40–250): P/R/F1 over scored
  candidates vs gold, returning the TP/FP/TN/FN candidate-id sets.
- J2/S10 gold-label join (``snorkel/db_helpers.py`` ≈L1–50): gold rows
  keyed by ``cand_stable_id`` — here a broadcast semi-join when gold is
  small (the normal case) instead of a shuffle join.
- S9 ``save_marginals`` / ``load_marginals`` (``snorkel/annotations.py``
  ≈L300–360): parquet round-trip.
- O3 train/dev/test split: deterministic hash(url) bucketing — the
  reference's ``split`` int column assigned at extraction.
- A8 ``candidate_coverage`` / ``training_set_summary_stats``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.ids import hash64


# ---------------------------------------------------------------------------
# O3: split assignment
# ---------------------------------------------------------------------------

def assign_split(ds, *, key: str = "url", buckets: tuple[float, float, float] = (0.8, 0.1, 0.1),
                 seed: int = 9):
    """Append int32 ``split`` (0=train, 1=dev, 2=test) by deterministic
    hash of ``key`` — stable across runs and partitionings."""
    cum = np.cumsum(buckets) / sum(buckets)

    def _assign(b: pa.Table) -> pa.Table:
        # string keys (urls) are distinct per row, so a per-DISTINCT
        # memo buys nothing; one C blake2b per row is the floor for a
        # process-stable string hash (sampling.knuth_hash covers the
        # vectorized INT-id case)
        keys = b.column(key).to_pylist()
        u = np.array([(hash64(f"{seed}:{k}") % 10_000) / 10_000 for k in keys])
        split = np.searchsorted(cum, u, side="right").astype(np.int32)
        split = np.minimum(split, len(buckets) - 1)
        return b.append_column("split", pa.array(split, pa.int32()))

    return ds.map_batches(_assign, batch_format="pyarrow")


def filter_split(ds, split: int):
    return ds.map_batches(
        lambda b: b.filter(pc.equal(b.column("split"), split)),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# S9: marginal persistence
# ---------------------------------------------------------------------------

def save_marginals(scored, path: str):
    scored.select_columns(["cand_stable_id", "p"]).write_parquet(path)


def load_marginals(path: str):
    import ray.data as rd

    return rd.read_parquet(path)


# ---------------------------------------------------------------------------
# J2 + A7: gold join & scoring
# ---------------------------------------------------------------------------

def score_vs_gold(scored, gold: pa.Table, *, threshold: float = 0.5) -> dict:
    """P/R/F1 + error sets vs a gold table (cand_stable_id, label∈{-1,1}).

    Gold is the small side (reference loads it into a dict too): it
    ships once with the per-block partial and is joined there — a
    no-shuffle semi-join; the confusion counts and error sets are
    summed on the driver (``state.resources.fold_blocks``)."""
    from ..state.resources import fold_blocks

    g = dict(zip(gold.column("cand_stable_id").to_pylist(),
                 gold.column("label").to_pylist()))

    def _confusion(b: pa.Table) -> dict:
        ids = b.column("cand_stable_id").to_pylist()
        p = b.column("p").to_numpy(zero_copy_only=False)
        tp = fp = tn = fn = 0
        tp_ids, fp_ids, fn_ids = [], [], []
        for cid, prob in zip(ids, p):
            y = g.get(cid)
            if y is None:
                continue
            pred = 1 if prob >= threshold else -1
            if pred == 1 and y == 1:
                tp += 1
                tp_ids.append(cid)
            elif pred == 1 and y == -1:
                fp += 1
                fp_ids.append(cid)
            elif pred == -1 and y == 1:
                fn += 1
                fn_ids.append(cid)
            else:
                tn += 1
        return {"tp": tp, "fp": fp, "tn": tn, "fn": fn,
                "tp_ids": tp_ids, "fp_ids": fp_ids, "fn_ids": fn_ids}

    def _add(acc: dict, part: dict) -> dict:
        for c in acc:  # error sets are bounded by error count (ref semantics)
            acc[c] += part[c]
        return acc

    acc = fold_blocks(scored, _confusion, _add,
                      {"tp": 0, "fp": 0, "tn": 0, "fn": 0,
                       "tp_ids": [], "fp_ids": [], "fn_ids": []})
    tp, fp, tn, fn = acc["tp"], acc["fp"], acc["tn"], acc["fn"]
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return {"tp": tp, "fp": fp, "tn": tn, "fn": fn,
            "precision": prec, "recall": rec, "f1": f1,
            "tp_ids": acc["tp_ids"], "fp_ids": acc["fp_ids"],
            "fn_ids": acc["fn_ids"]}


# ---------------------------------------------------------------------------
# A8: corpus summary stats
# ---------------------------------------------------------------------------

def candidate_coverage(labeled) -> dict:
    """Fraction of candidates with ≥1 non-abstain vote, plus totals —
    a count-weighted sum over the label model's pattern table."""
    from .label_model import _pattern_matrix, pattern_counts

    Lp, w = _pattern_matrix(pattern_counts(labeled))
    n = int(w.sum())
    covered = int(w @ (Lp != 0).any(axis=1))
    return {"n_candidates": n, "n_covered": covered,
            "coverage": covered / n if n else 0.0}
