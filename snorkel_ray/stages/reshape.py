"""Reshaping / normalization transforms: pivot (long → wide) and
per-group standardization.

Brief-mandated query-coverage family (reference analog: the dense
label-matrix assembly of ``snorkel/annotations.py`` ≈L60 — a
long-(candidate, lf, value) to wide-matrix pivot done there in
scipy.sparse on one machine).

* :func:`pivot_table` — SQL ``count/sum FILTER (WHERE col = cat)``
  as two bounded shuffles: ONE fine ``groupby(index, pivot)`` over the
  input (this is the only pass over the data), then a wide-partial +
  ``groupby(index).sum`` over the FINE table (rows = distinct (index,
  pivot) pairs ≪ input).  Categories must be an explicit bounded list
  — at 100 TB an unbounded pivot column is a schema explosion, so
  discovery is the caller's (cheap, fine-table) problem.
* :func:`grouped_zscore` — two-pass standardization: per-key
  mean/std (one aggregate shuffle) broadcast back via the count-gated
  ``apply_mapping`` (broadcast under its limit, hash join above) and
  applied vectorized.  The moment table is one row per key.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["pivot_table", "grouped_zscore", "grouped_corr",
           "grouped_string_agg", "grouped_count_distinct",
           "grouped_argmax", "grouped_rank", "grouped_ntile",
           "melt", "grouped_mode"]


def pivot_table(ds, index: str, pivot: str, categories: list[str], *,
                value: str | None = None, agg: str = "count",
                prefix: str = "n_"):
    """Wide table: one row per ``index``, one ``prefix<category>``
    column per category holding count (``agg='count'``) or
    ``sum(value)`` (``agg='sum'``) of the rows with that pivot value.
    Unlisted pivot values are dropped; absent combinations are 0."""
    from ray.data.aggregate import Count, Sum

    if agg not in ("count", "sum"):
        raise ValueError(f"agg must be 'count' or 'sum', got {agg!r}")
    if agg == "sum" and value is None:
        raise ValueError("agg='sum' requires a value column")

    fine_agg = (Count(alias_name="_v") if agg == "count"
                else Sum(value, alias_name="_v"))
    fine = ds.groupby([index, pivot]).aggregate(fine_agg)

    cats = list(categories)
    zero = 0 if agg == "count" else 0.0
    vtype = pa.int64() if agg == "count" else pa.float64()

    def _widen(b: pa.Table) -> pa.Table:
        piv = np.asarray(b.column(pivot), dtype=object)
        vals = np.asarray(b.column("_v"))
        cols = {index: b.column(index)}
        keep = np.zeros(b.num_rows, dtype=bool)
        for c in cats:
            m = piv == c
            keep |= m
            cols[prefix + c] = pa.array(np.where(m, vals, zero), vtype)
        return pa.table(cols).filter(pa.array(keep))

    wide = fine.map_batches(_widen, batch_format="pyarrow")
    return wide.groupby(index).aggregate(
        *[Sum(prefix + c, alias_name=prefix + c) for c in cats])


def grouped_zscore(ds, key: str, value: str, *, out: str = "zscore",
                   ddof: int = 1):
    """Append ``out`` = (value − mean_key) / std_key (sample std by
    default, matching SQL ``stddev_samp``).  Keys with undefined or
    zero std get null."""
    from ray.data.aggregate import Mean, Std

    from .joins import apply_mapping

    stats = ds.groupby(key).aggregate(
        Mean(value, alias_name="_mu"),
        Std(value, ddof=ddof, alias_name="_sd"))
    stats = stats.materialize()

    with_mu = apply_mapping(ds, stats, key, key, "_mu", "_mu")
    with_both = apply_mapping(with_mu, stats, key, key, "_sd", "_sd")

    def _z(b: pa.Table) -> pa.Table:
        v = np.asarray(b.column(value), dtype=np.float64)
        mu = np.asarray(b.column("_mu"), dtype=np.float64)
        sd = np.asarray(b.column("_sd"), dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (v - mu) / sd
        z = np.where(np.isfinite(z), z, np.nan)
        return (b.drop_columns(["_mu", "_sd"])
                .append_column(out, pa.array(z, pa.float64(),
                                             mask=~np.isfinite(z))))

    return with_both.map_batches(_z, batch_format="pyarrow")


def grouped_corr(ds, key: str, x: str, y: str, *, out: str = "corr"):
    """Per-key Pearson correlation, two-pass for numerical stability
    (the one-pass sum-of-products formula cancels catastrophically on
    large-magnitude columns): pass 1 aggregates per-key means (one
    shuffle) and broadcasts them back via the count-gated
    ``apply_mapping``; pass 2 sums CENTERED co-moments per key (one
    more bounded shuffle over 3 doubles/key/block after the per-batch
    combiner).  Matches SQL ``corr(x, y)``.  Keys with zero variance
    or < 2 rows get null."""
    from ray.data.aggregate import Mean, Sum

    from .joins import apply_mapping

    means = ds.groupby(key).aggregate(
        Mean(x, alias_name="_mx"), Mean(y, alias_name="_my")).materialize()
    with_m = apply_mapping(ds, means, key, key, "_mx", "_mx")
    with_m = apply_mapping(with_m, means, key, key, "_my", "_my")

    def _moments(b: pa.Table) -> pa.Table:
        import pandas as pd

        xa = np.asarray(b.column(x), dtype=np.float64)
        ya = np.asarray(b.column(y), dtype=np.float64)
        mx = np.asarray(b.column("_mx"), dtype=np.float64)
        my = np.asarray(b.column("_my"), dtype=np.float64)
        dx, dy = xa - mx, ya - my
        df = pd.DataFrame({key: b.column(key).to_pandas(),
                           "_cxy": dx * dy, "_cxx": dx * dx,
                           "_cyy": dy * dy})
        g = df.groupby(key, as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (with_m.map_batches(_moments, batch_format="pyarrow")
           .groupby(key).aggregate(Sum("_cxy", alias_name="_cxy"),
                                   Sum("_cxx", alias_name="_cxx"),
                                   Sum("_cyy", alias_name="_cyy")))

    def _finish(b: pa.Table) -> pa.Table:
        cxy = np.asarray(b.column("_cxy"))
        cxx = np.asarray(b.column("_cxx"))
        cyy = np.asarray(b.column("_cyy"))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = cxy / np.sqrt(cxx * cyy)
        return (b.drop_columns(["_cxy", "_cxx", "_cyy"])
                .append_column(out, pa.array(r, pa.float64(),
                                             mask=~np.isfinite(r))))

    return agg.map_batches(_finish, batch_format="pyarrow")


def grouped_string_agg(ds, key: str, value: str, *, sep: str = ",",
                       order_by: list[str] | None = None,
                       out: str = "agg",
                       pre_split_chunks: int | None = None,
                       seed: int = 17):
    """SQL ``string_agg(value, sep ORDER BY ...)`` per key.

    Default plan: one group per key.  The OUTPUT row is the whole
    group's concatenation, so the RESULT must fit a reducer no matter
    the plan — but with ``pre_split_chunks=N`` (round-4 verdict item 4,
    the last ordered-per-key op without hot-key safety) no reducer ever
    SORTS a full hot group: rows are range-partitioned into N chunks of
    the leading order column (boundaries from a seeded sample — type-
    agnostic, unlike a KLL sketch, so string order keys work), each
    (key, chunk) group sorts and concatenates independently, and a
    per-key pass of ≤ N partial strings joins them in chunk order.
    Boundary assignment is ``side='right'`` searchsorted, so equal
    order values co-locate and chunk order composes with within-chunk
    order into the exact global order.  Costs one count + one sampled
    scan at plan-build time (same trade as the window family's auto
    probe); order_by columns must be non-null in this plan."""
    import pandas as pd

    order = order_by or [value]

    if pre_split_chunks is not None and pre_split_chunks > 1:
        return _string_agg_chunked(ds, key, value, order=order, sep=sep,
                                   out=out, num_chunks=pre_split_chunks,
                                   seed=seed)

    def _agg(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order, kind="mergesort")
        return pd.DataFrame({key: [g[key].iloc[0]],
                             out: [sep.join(g[value].astype(str))]})

    return ds.groupby(key).map_groups(_agg, batch_format="pandas")


def _string_agg_chunked(ds, key: str, value: str, *, order: list[str],
                        sep: str, out: str, num_chunks: int, seed: int):
    """Two-level ordered string_agg (see :func:`grouped_string_agg`)."""
    import ray
    import pandas as pd

    ocol = order[0]
    n = ds.count()
    sample_rows = max(num_chunks * 64, 4096)
    if n == 0:
        boundaries: list = []
    else:
        frac = min(1.0, sample_rows * 1.25 / n)
        s = (ds.select_columns([ocol]).random_sample(frac, seed=seed)
             .limit(sample_rows).to_pandas()[ocol])
        if len(s) < min(n, num_chunks):  # pathological under-sample
            s = ds.select_columns([ocol]).limit(sample_rows).to_pandas()[ocol]
        if s.isna().any():  # same contract the per-batch guard enforces
            raise ValueError(
                "grouped_string_agg(pre_split_chunks=...): null order "
                "values are not range-partitionable — fill or filter "
                "upstream, or use the default single-group plan")
        sv = s.sort_values(kind="mergesort").to_numpy()
        boundaries = []
        for j in range(1, num_chunks):
            v = sv[min(int(len(sv) * j / num_chunks), len(sv) - 1)]
            if not boundaries or v > boundaries[-1]:
                boundaries.append(v)
    b_ref = ray.put(np.asarray(boundaries, dtype=object))

    def _assign(b: pa.Table) -> pa.Table:
        bl = ray.get(b_ref)
        vals = b.column(ocol).to_pylist()
        if any(v is None or (isinstance(v, float) and v != v)
               for v in vals):  # NaN is unordered too (round-5 review)
            raise ValueError(
                "grouped_string_agg(pre_split_chunks=...): null/NaN "
                "order values are not range-partitionable — fill or "
                "filter upstream, or use the default single-group plan")
        ch = (np.searchsorted(bl, np.asarray(vals, dtype=object),
                              side="right").astype(np.int64)
              if len(bl) else np.zeros(b.num_rows, np.int64))
        return b.append_column("_chunk", pa.array(ch, pa.int64()))

    def _agg1(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order, kind="mergesort")
        return pd.DataFrame({key: [g[key].iloc[0]],
                             "_chunk": [g["_chunk"].iloc[0]],
                             "_part": [sep.join(g[value].astype(str))]})

    parts = (ds.map_batches(_assign, batch_format="pyarrow")
             .groupby([key, "_chunk"])
             .map_groups(_agg1, batch_format="pandas"))

    def _agg2(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("_chunk", kind="mergesort")
        return pd.DataFrame({key: [g[key].iloc[0]],
                             out: [sep.join(g["_part"])]})

    return parts.groupby(key).map_groups(_agg2, batch_format="pandas")


def grouped_count_distinct(ds, key: str | list[str], value: str, *,
                           out: str = "n_distinct"):
    """Exact SQL ``count(DISTINCT value)`` per key (single column or a
    composite key list), skew-safe in three vectorized steps:

    1. per-batch ``drop_duplicates`` on (key, value) — a free combiner
       that shrinks the shuffle to each block's distinct pairs;
    2. ``groupby(key, value).count()`` — the dedup shuffle, keyed on
       the PAIR so a celebrity key's values spread across reducers;
    3. ``groupby(key).count()`` over the pair table (rows = distinct
       pairs, already ≪ input).

    No per-group Python, no driver set — both shuffles carry only
    distinct pairs.  NULL values are ignored (SQL ``count(DISTINCT)``
    semantics — review r5: the pair groupby would otherwise count the
    null group as a distinct value) — dropped by an ARROW validity
    filter, not pandas ``dropna``, so a genuine float NaN survives and
    counts as one distinct value exactly as SQL counts it; a key whose
    values are ALL null is absent from the output (SQL would emit it
    with count 0 — the same documented divergence as
    :func:`grouped_quantiles`)."""
    import pandas as pd
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    keys = [key] if isinstance(key, str) else list(key)

    def _local(b: pa.Table) -> pa.Table:
        b = b.select([*keys, value])
        b = b.filter(pc.is_valid(b.column(value)))
        df = b.to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    pairs = (ds.map_batches(_local, batch_format="pyarrow")
             .groupby([*keys, value]).aggregate(Count(alias_name="_c"))
             .drop_columns(["_c", value]))
    return pairs.groupby(keys if len(keys) > 1 else keys[0]) \
        .aggregate(Count(alias_name=out))


def _fine_counts(ds, key: str, value: str, *, keep_nulls: bool):
    """The FINE table shared by rank, quantiles and mode: per-batch
    (key, value) count partials (free combiner), then
    ``groupby(key, value).sum`` → one ``_n`` row per DISTINCT pair.
    ``keep_nulls`` keeps a null value as its own pair (rank); the
    others drop nulls (SQL ignores them)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def _partial(b: pa.Table) -> pa.Table:
        if not keep_nulls:
            b = b.filter(pc.is_valid(b.column(value)))
        df = (b.select([key, value]).to_pandas()
              .groupby([key, value], sort=False, dropna=False)
              .size().reset_index(name="_c"))
        return pa.Table.from_pandas(df, preserve_index=False)

    return (ds.map_batches(_partial, batch_format="pyarrow")
            .groupby([key, value]).aggregate(Sum("_c", alias_name="_n")))


def grouped_rank(ds, key: str, value: str, *, out: str = "rank",
                 dense_out: str | None = None,
                 percent_out: str | None = None,
                 cume_out: str | None = None,
                 descending: bool = False):
    """Exact SQL ``rank() OVER (PARTITION BY key ORDER BY value)``
    (and optionally ``dense_rank()``, ``percent_rank()`` =
    (rank−1)/(N−1), ``cume_dist()`` = running-count/N — all four are
    functions of the fine table alone) without sorting any full
    group:

    1. per-batch (key, value) count partials (free combiner), then
       ``groupby(key, value).sum`` — the FINE table, one row per
       distinct pair;
    2. per-key rank prefix over the fine table only (rows = distinct
       values per key ≪ input for real value columns; a hot key costs
       O(its distinct values), not O(its rows)):
       ``rank = cumsum(count) - count + 1``, ``dense = 1..n``;
    3. ranks map back to rows via a composite (key, value) broadcast
       / hash lookup (``apply_mapping``) — both sides build the
       composite with the SAME arrow cast, so float formatting can
       never diverge.

    ``row_number()`` is deliberately NOT offered through this plan: a
    unique tie-break makes the fine table as big as the input — use
    ``grouped_topk`` / ``grouped_argmax`` for bounded-k needs."""
    import pandas as pd
    import pyarrow.compute as pc

    from snorkel_ray.stages.joins import apply_mapping

    sep = pa.scalar("\x1f")

    def _canon(col):
        # the fine table crosses a pandas hop (timestamp[us] comes back
        # as [ns]) while the raw-row side never does; canonicalize
        # temporal columns to int64 microseconds BEFORE the string cast
        # so both sides stringify identically (ADVICE r3 — without this
        # every lookup missed and ranks were silently null)
        t = col.type
        if pa.types.is_timestamp(t):
            return pc.cast(pc.cast(col, pa.timestamp("us", tz=t.tz)),
                           pa.int64())
        if pa.types.is_date(t):
            return pc.cast(pc.cast(col, pa.timestamp("us")), pa.int64())
        if pa.types.is_time(t):
            return pc.cast(pc.cast(col, pa.time64("us")), pa.int64())
        return col

    def _composite(b: pa.Table) -> pa.Array:
        return pc.binary_join_element_wise(
            pc.cast(_canon(b.column(key)), pa.string()),
            pc.cast(_canon(b.column(value)), pa.string()), sep)

    fine = _fine_counts(ds, key, value, keep_nulls=True)

    int_cols = [out] + ([dense_out] if dense_out else [])
    float_cols = ([percent_out] if percent_out else []) \
        + ([cume_out] if cume_out else [])
    rank_cols = int_cols + float_cols

    def _rank(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.sort_values(value, kind="mergesort",
                           ascending=not descending)
             .reset_index(drop=True))
        c = g["_n"].to_numpy()
        run = np.cumsum(c)
        n_rows = run[-1] if len(run) else 0
        g[out] = (run - c + 1).astype("int64")
        if dense_out is not None:
            g[dense_out] = np.arange(1, len(g) + 1, dtype="int64")
        if percent_out is not None:
            g[percent_out] = (g[out] - 1) / max(n_rows - 1, 1)
        if cume_out is not None:
            g[cume_out] = run / max(n_rows, 1)
        return g.drop(columns=["_n"])

    ranks = fine.groupby(key).map_groups(_rank, batch_format="pandas")

    def _key_ranks(b: pa.Table) -> pa.Table:
        t = pa.table({"_ck": _composite(b)})
        for c in rank_cols:
            t = t.append_column(c, b.column(c))
        return t

    # materialized once: every apply_mapping pass gates on its count,
    # and without this the whole fine+rank pipeline would re-execute
    # per pass
    mapping = ranks.map_batches(_key_ranks,
                                batch_format="pyarrow").materialize()

    def _add_ck(b: pa.Table) -> pa.Table:
        return b.append_column("_ck", _composite(b))

    rows = ds.map_batches(_add_ck, batch_format="pyarrow")
    for c in rank_cols:
        rows = apply_mapping(rows, mapping, "_ck", "_ck", c, c)

    def _cast_clean(b: pa.Table) -> pa.Table:
        b = b.drop_columns(["_ck"])
        for c in int_cols:
            i = b.schema.get_field_index(c)
            b = b.set_column(i, c, pc.cast(b.column(c), pa.int64()))
        for c in float_cols:
            i = b.schema.get_field_index(c)
            b = b.set_column(i, c, pc.cast(b.column(c), pa.float64()))
        return b

    return rows.map_batches(_cast_clean, batch_format="pyarrow")


def grouped_argmax(ds, key: str | list[str], order_cols: list[str], *,
                   descending: list[bool] | None = None):
    """The single best row per key — single column or composite list
    (SQL ``row_number() OVER (PARTITION
    BY key ORDER BY ...) = 1``): thin wrapper over the skew-safe
    ``grouped_topk(k=1)`` — per-batch partial winners first, so a hot
    key ships one row per block, never its full group.

    ``order_cols`` must totally order rows within a key (append a
    unique id) or the winner is nondeterministic."""
    from snorkel_ray.stages.skew import grouped_topk

    return grouped_topk(ds, key, order_cols,
                        descending=descending, k=1)


def grouped_quantiles(ds, key: str, value: str, qs: list[float], *,
                      out_names: list[str] | None = None,
                      disc: bool = False):
    """Exact per-key ``quantile_cont`` (linear interpolation, SQL /
    numpy 'linear' definition) — or ``percentile_disc`` when
    ``disc=True``: the smallest value whose cumulative distribution
    reaches q, i.e. the EXACT stored value at 1-based rank
    ``ceil(q·n)``, so results hash against a SQL oracle with no
    rounding at all — WITHOUT sorting any full group — the
    same fine-table trick as :func:`grouped_rank`:

    1. per-batch (key, value) count partials → ``groupby(key,
       value).sum`` — one row per DISTINCT pair;
    2. per-key interpolation over the fine table's cumulative counts
       (value at 0-based rank r = first fine row whose running count
       exceeds r, via ``searchsorted``) — a hot key costs O(its
       distinct values), never its row count.

    → Dataset (key, one float64 column per requested quantile).
    Null values are ignored (SQL ``quantile_cont`` semantics); a key
    whose values are ALL null is absent from the output (SQL would
    emit it with null quantiles — the one documented divergence)."""
    import pandas as pd

    out_names = out_names or [f"q{int(round(q * 100))}" for q in qs]
    if len(out_names) != len(qs):
        raise ValueError("out_names must match qs")

    fine = _fine_counts(ds, key, value, keep_nulls=False)

    def _quant(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(value, kind="mergesort")
        vals = g[value].to_numpy(dtype=np.float64)
        cum = np.cumsum(g["_n"].to_numpy())
        n = int(cum[-1])
        row = {key: [g[key].iloc[0]]}
        for q, name in zip(qs, out_names):
            if disc:
                r = max(int(np.ceil(q * n)) - 1, 0)
                row[name] = [vals[np.searchsorted(cum, r, side="right")]]
                continue
            pos = q * (n - 1)
            i = int(np.floor(pos))
            frac = pos - i
            lo = vals[np.searchsorted(cum, i, side="right")]
            hi = vals[np.searchsorted(cum, min(i + 1, n - 1), side="right")]
            row[name] = [lo + (hi - lo) * frac]
        return pd.DataFrame(row)

    return fine.groupby(key).map_groups(_quant, batch_format="pandas")


def histogram_fixed_width(ds, value: str, *, lo: float, hi: float,
                          n_buckets: int, bucket_col: str = "bucket",
                          count_col: str = "n"):
    """Equal-width histogram (SQL ``width_bucket`` semantics): bucket
    1..n for ``lo ≤ v < hi``, 0 below, n+1 at/above ``hi``; nulls
    dropped.  One streaming pass: per-batch ``np.bincount`` partials
    (n+2 rows per block, the combiner) → one tiny
    ``groupby(bucket).sum``.  The bucket index is computed as
    ``floor((v − lo) · n / (hi − lo))`` in float64 — state the same
    expression in a SQL oracle and the two agree bit-for-bit."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    if not (hi > lo) or n_buckets < 1:
        raise ValueError("need hi > lo and n_buckets >= 1")
    nb = int(n_buckets)

    def _partial(b: pa.Table) -> pa.Table:
        col = b.column(value)
        col = col.filter(pc.is_valid(col)) if col.null_count else col
        v = np.asarray(col, dtype=np.float64)
        idx = np.floor((v - lo) * nb / (hi - lo)).astype(np.int64) + 1
        idx = np.clip(idx, 0, nb + 1)
        counts = np.bincount(idx, minlength=nb + 2)
        return pa.table({bucket_col: pa.array(np.arange(nb + 2), pa.int64()),
                         count_col: pa.array(counts, pa.int64())})

    return (ds.map_batches(_partial, batch_format="pyarrow")
            .groupby(bucket_col).aggregate(Sum(count_col,
                                               alias_name=count_col)))


def grouped_ntile(ds, key: str, value: str, n: int, *,
                  out: str = "bucket", descending: bool = False):
    """SQL ``NTILE(n) OVER (PARTITION BY key ORDER BY value)`` without
    sorting any full group — for a TOTAL per-key order (``value``
    unique within each key: SQL NTILE splits a tie bucket by physical
    order, which no engine makes deterministic; with a unique order
    key, ``rank() == row_number()`` and NTILE's
    remainder-to-first-buckets rule has the exact piecewise form):

        q, rem = divmod(N_key, n)          # first rem buckets get q+1
        bucket = ceil(rank / (q+1))                 if rank <= rem*(q+1)
                 rem + ceil((rank - rem*(q+1)) / q) otherwise

    (The tempting one-liner ``floor((rank-1)*n/N)+1`` spreads the
    remainder across buckets and diverges from SQL whenever
    N mod n >= 2 — caught by the DuckDB parity test.)

    Reuses :func:`grouped_rank`'s fine-table rank (a hot key costs its
    distinct values, not its rows) plus a one-row-per-key count
    attached via the count-gated ``apply_mapping``; the bucket math is
    integer and vectorized, so the oracle hash can never drift."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    from snorkel_ray.stages.joins import apply_mapping

    ranked = grouped_rank(ds, key, value, out="_ntile_rank",
                          descending=descending)
    sizes = ds.groupby(key).aggregate(Count(alias_name="_ntile_n"))
    ranked = apply_mapping(ranked, sizes, key, key, "_ntile_n", "_ntile_n")

    def _bucket(b: pa.Table) -> pa.Table:
        r = b.column("_ntile_rank").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        N = b.column("_ntile_n").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        q, rem = N // n, N % n
        cut = rem * (q + 1)  # rows living in the (q+1)-sized buckets
        bucket = np.where(
            r <= cut,
            (r - 1) // np.maximum(q + 1, 1) + 1,
            rem + (r - cut - 1) // np.maximum(q, 1) + 1)
        return (b.drop_columns(["_ntile_rank", "_ntile_n"])
                .append_column(out, pa.array(bucket, pa.int64())))

    return ranked.map_batches(_bucket, batch_format="pyarrow")


def melt(ds, id_vars: list[str], value_vars: list[str], *,
         var_name: str = "variable", value_name: str = "value",
         value_type=None):
    """Wide → long (SQL ``UNPIVOT`` / pandas ``melt``): one output row
    per (input row, value column), carrying ``id_vars`` plus the column
    name in ``var_name`` and its value cast to a common ``value_type``
    (default float64 — UNPIVOT requires one value type; pass e.g.
    ``pa.string()`` for text columns).

    Purely row-local: a per-batch ``map_batches`` that stacks one
    slice per value column (the constant name column is a take over a
    zeros index — no per-row Python), so it streams with ZERO shuffle
    at any scale.  Output size is ``len(value_vars)`` × input — prune
    ``id_vars`` at the read."""
    vt = value_type if value_type is not None else pa.float64()

    def _melt(b: pa.Table) -> pa.Table:
        zeros = pa.array(np.zeros(b.num_rows, dtype=np.int64))
        parts = []
        for v in value_vars:
            cols = {c: b.column(c) for c in id_vars}
            cols[var_name] = pa.array([v], pa.string()).take(zeros)
            cols[value_name] = b.column(v).cast(vt)
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return ds.map_batches(_melt, batch_format="pyarrow")


def grouped_mode(ds, key: str, value: str, *, out: str = "mode",
                 count_out: str | None = None):
    """Per-key most frequent value (SQL ``mode()``), ties broken by the
    SMALLEST value so the result is deterministic (SQL's ``mode()``
    leaves ties unspecified — the oracle must spell the same
    ``row_number() OVER (ORDER BY count DESC, value ASC)`` rule).

    Plan: per-batch (key, value) count partials → ``groupby(key,
    value).sum`` (one row per DISTINCT pair — the fine-table bound of
    :func:`grouped_quantiles`) → skew-safe ``grouped_topk(k=1)`` on
    (count DESC, value ASC) over the fine table.  A hot key costs its
    distinct values, never its rows.  Nulls are ignored (SQL mode
    semantics); an all-null key is absent from the output."""
    from snorkel_ray.stages.skew import grouped_topk

    fine = _fine_counts(ds, key, value, keep_nulls=False)
    win = grouped_topk(fine, key, ["_n", value],
                       descending=[True, False], k=1)

    def _shape(b: pa.Table) -> pa.Table:
        cols = {key: b.column(key), out: b.column(value)}
        if count_out:
            cols[count_out] = b.column("_n")
        return pa.table(cols)

    return win.map_batches(_shape, batch_format="pyarrow")
