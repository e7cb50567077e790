"""Skew-aware aggregation: salted two-phase groupby (SURVEY.md §4, A9).

North rule: "skew from hot entities and giant pages is handled with
salted keys and explicit repartitioning".  A plain
``groupby(key).count()`` ships every row of a hot key to one reducer;
with one entity owning ~30% of mentions (the planted-KB case) that
reducer becomes the job.  The salted pattern:

1. [map]      append ``salt = hash(row) % S`` for hot keys only
              (cold keys keep salt 0 — no extra reduce rows);
2. [shuffle]  groupby (key, salt) → partial aggregates, ≤ S rows per
              hot key, spread over S reducers;
3. [shuffle]  groupby key over the TINY partial table → final.

Hot keys come from a driver-side sample (cheap, approximate — a key
missed by the sample still works, just unsalted).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def detect_hot_keys(ds, key: str, *, sample_fraction: float = 0.05,
                    sample_cap: int = 100_000,
                    hot_fraction: float = 0.01, seed: int = 23) -> set:
    """Driver-side RANDOM sample → keys exceeding ``hot_fraction`` of
    sampled rows.  ``random_sample``, not ``limit``: a prefix of input
    sorted/clustered by key sees only the first keys and misses hot
    keys living later in the stream (round-1 verdict item 7).  The
    fixed fraction needs no ``count()`` pass; ``sample_cap`` bounds
    driver memory.  A missed hot key still aggregates correctly —
    just unsalted."""
    sample = (ds.select_columns([key]).random_sample(sample_fraction, seed=seed)
              .limit(sample_cap).to_pandas()[key])
    if len(sample) < 1000:  # tiny input: sampling noise dominates — scan it all
        sample = ds.select_columns([key]).limit(sample_cap).to_pandas()[key]
    counts = sample.value_counts()
    return set(counts[counts / max(len(sample), 1) > hot_fraction].index)


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


def salted_count(ds, key: str, *, salt_buckets: int = 16,
                 hot_keys: set | None = None, count_alias: str = "n"):
    """groupby(key).count() that survives hot keys.

    → Dataset (key, n). Two-phase: (key, salt) partials then key final.
    """
    from ray.data.aggregate import Sum

    if hot_keys is None:
        hot_keys = detect_hot_keys(ds, key)

    import ray

    hot_ref = ray.put(hot_keys)

    def _salt(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        hot = ray.get(hot_ref)
        n = batch.num_rows
        salts = np.zeros(n, dtype=np.int32)
        if hot:
            # vectorized: membership via pc.is_in, salt = row index mod
            # buckets (uniform spread by construction — the salt only
            # routes partials, any even assignment is correct; the old
            # per-row hash64 loop ran on every hot-key occurrence,
            # i.e. on the MOST frequent rows)
            mask = pc.is_in(batch.column(key),
                            value_set=pa.array(sorted(hot))).to_numpy(
                zero_copy_only=False)
            mask = np.asarray(mask, dtype=bool)
            salts[mask] = np.arange(n, dtype=np.int64)[mask] % salt_buckets
        return pa.table({key: batch.column(key),
                         "_salt": pa.array(salts, pa.int32()),
                         "_one": pa.array(np.ones(n, np.int64), pa.int64())})

    partial = (ds.map_batches(_salt, batch_format="pyarrow")
               .groupby([key, "_salt"])
               .aggregate(Sum("_one", alias_name="_partial")))
    final = partial.groupby(key).aggregate(Sum("_partial", alias_name=count_alias))
    return final


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
    a per-BATCH partial top-k per group first (vectorized pandas sort +
    head inside ``map_batches``), so the shuffle moves at most
    k × groups × blocks rows, then a final per-group head over the tiny
    partial table.  A hot group's full row set never lands in one
    reducer — only its k-row partials do.

    ``order_cols`` must totally order rows within a group (append a
    unique id to break ties) or the result is nondeterministic."""
    import pandas as pd

    if descending is None:
        descending = [True] * len(order_cols)
    asc = [not d for d in descending]

    def _partial(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        if not len(df):
            return b
        out = (df.sort_values(order_cols, ascending=asc, kind="mergesort")
               .groupby(group_col, sort=False).head(k))
        return pa.Table.from_pandas(out, preserve_index=False)

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(order_cols, ascending=asc,
                             kind="mergesort").head(k)

    partial = ds.map_batches(_partial, batch_format="pyarrow")
    return partial.groupby(group_col).map_groups(_final,
                                                 batch_format="pandas")

