"""Skew-aware keyed plans (SURVEY.md §4, A9).

North rule: "skew from hot entities and giant pages is handled with
salted keys and explicit repartitioning".  A plain
``groupby(key).count()`` ships every row of a hot key to one reducer;
with one entity owning ~30% of mentions (the planted-KB case) that
reducer becomes the job.  A keyed aggregate here needs no salt:
``resources.fold_by_key`` combines every block before its one sort,
so a hot key ships at most one row per block, which is all a salted
(key, salt) partial bought.  What stays is per-key ORDERED work, which
does not combine: ``auto_pre_split_chunk`` routes a hot key of the
window family to its two-level chunked plan, ``grouped_topk`` keeps a
block's best k per group before the sort, and ``split_by_row_size``
isolates giant rows.
"""

from __future__ import annotations

import pyarrow as pa


def auto_pre_split_chunk(ds, key: str, ts: str, *,
                         min_width: "pd.Timedelta | None" = None,
                         sample_fraction: float = 0.05,
                         sample_cap: int = 100_000,
                         hot_fraction: float = 0.01,
                         target_chunks: int = 128,
                         seed: int = 23) -> str | None:
    """Pick the default physical plan for the keyed window / as-of
    family (round-3 verdict item 2 — hot-key safety must not be
    opt-in): one seeded random sample of ``(key, ts)``; if any key
    exceeds ``hot_fraction`` of sampled rows, return a time-chunk
    width string (sampled ts span / ``target_chunks``, floored to
    ``min_width``) that routes the caller to its two-level
    hot-key-safe plan; else ``None`` — the single-group plan is safe
    and cheaper (one shuffle instead of two).

    Deterministic (seeded) so repeated runs pick the same plan.  A hot
    key the sample misses still computes CORRECTLY on the single-group
    plan — this probe is a performance guard, not a correctness one.
    Returns ``None`` for non-timestamp ``ts`` (the chunked plans floor
    by ``pd.Timedelta``) and for degenerate zero-span samples."""
    import pandas as pd

    sample = (ds.select_columns([key, ts])
              .random_sample(sample_fraction, seed=seed)
              .limit(sample_cap).to_pandas())
    if len(sample) < 1000:  # tiny input: sampling noise dominates
        sample = ds.select_columns([key, ts]).limit(sample_cap).to_pandas()
    if not len(sample):
        return None
    counts = sample[key].value_counts()
    if not len(counts) or counts.iloc[0] / len(sample) <= hot_fraction:
        return None
    if not pd.api.types.is_datetime64_any_dtype(sample[ts]):
        return None
    span = sample[ts].max() - sample[ts].min()
    width = span / target_chunks
    if min_width is not None and width < min_width:
        width = min_width
    if width <= pd.Timedelta(0):
        return None
    if width > span / 2:
        # fewer than ~2 chunks would exist: the two-level plan
        # degenerates to the single-group plan plus overhead (round-4
        # review) — decline to chunk
        return None
    return f"{int(width.value)}ns"


def salted_count(ds, key: str, *, count_alias: str = "n"):
    """groupby(key).count() that survives hot keys → Dataset (key,
    ``count_alias``): one ``fold_by_key``, whose per-block combine
    ships at most one row per key per block to its sort."""
    from ..state.resources import fold_by_key

    return fold_by_key(ds, [key], {count_alias: "count"})


def split_by_row_size(ds, column: str, max_bytes: int = 1 << 20):
    """Giant-row isolation (north rule: "giant pages ... handled with
    salted keys and explicit repartitioning").

    → (normal_ds, giant_ds): rows whose ``column`` payload exceeds
    ``max_bytes`` are routed to their own stream, to be processed with
    single-row batches / a dedicated pool so one 100 MB page cannot
    straggle a 2000-row block.  Both sides are plain filtered views —
    no shuffle; the caller unions the processed outputs.
    """
    import pyarrow.compute as pc

    def _len(b: pa.Table):
        col = b.column(column)
        return pc.binary_length(col)

    def _small(b: pa.Table) -> pa.Table:
        return b.filter(pc.less_equal(_len(b), max_bytes))

    def _giant(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater(_len(b), max_bytes))

    return (ds.map_batches(_small, batch_format="pyarrow"),
            ds.map_batches(_giant, batch_format="pyarrow"))


def grouped_topk(ds, group_col: str | list[str], order_cols: list[str],
                 *, descending: list[bool] | None = None, k: int = 2):
    """Per-group top-k rows (single or composite group key), skew-safe:
    ``resources.top_by_key`` keeps each block's top k per group before
    its one sort, so the shuffle moves at most k × groups × blocks rows
    and a hot group's full row set never lands in one reducer.  Nulls
    sort last in either direction.

    ``order_cols`` must totally order rows within a group (append a
    unique id to break ties) or the first row to arrive wins a tie."""
    from ..state.resources import top_by_key

    if descending is None:
        descending = [True] * len(order_cols)
    keys = [group_col] if isinstance(group_col, str) else list(group_col)
    return top_by_key(ds, keys, [(c, "descending" if d else "ascending")
                                 for c, d in zip(order_cols, descending)], k)
