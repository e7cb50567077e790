"""Reshaping / normalization transforms: pivot (long → wide) and
per-group standardization.

Brief-mandated query-coverage family (reference analog: the dense
label-matrix assembly of ``snorkel/annotations.py`` ≈L60 — a
long-(candidate, lf, value) to wide-matrix pivot done there in
scipy.sparse on one machine).

* :func:`pivot_table` — SQL ``count/sum FILTER (WHERE col = cat)``
  as two bounded ``fold_by_key`` shuffles: ONE fine fold on (index,
  pivot) over the input (this is the only pass over the data), then a
  wide-partial fold on index over the FINE table (rows = distinct
  (index, pivot) pairs ≪ input).  Categories must be an explicit
  bounded list — at 100 TB an unbounded pivot column is a schema explosion, so
  discovery is the caller's (cheap, fine-table) problem.
* :func:`grouped_zscore` — one ``by_key`` pass: every row of a key in
  one block, and one kernel computes each key's exact two-pass mean
  and M2 with ``np.add.reduceat`` over the group starts and applies
  the z-score to the rows in place.  A hot key's rows share one block.

Every per-key step of this module (string_agg, rank, quantiles,
zscore) is a block kernel on ``resources.by_key``: segmented numpy or
Arrow over the group starts, never pandas per group.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

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
    Unlisted pivot values are dropped; absent combinations are 0, and
    so is a combination whose values are all null (SQL
    ``coalesce(sum(value) FILTER (...), 0)``); a NaN value makes its
    sum NaN."""
    from ..state.resources import fold_by_key

    if agg not in ("count", "sum"):
        raise ValueError(f"agg must be 'count' or 'sum', got {agg!r}")
    if agg == "sum" and value is None:
        raise ValueError("agg='sum' requires a value column")

    fine = fold_by_key(ds, [index, pivot],
                       {"_v": "count" if agg == "count" else ("sum", value)})

    cats = list(categories)
    zero = pa.scalar(0, pa.int64()) if agg == "count" else pa.scalar(0.0, pa.float64())

    def _widen(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_in(b.column(pivot),
                              value_set=pa.array(cats, b.schema.field(pivot).type)))
        vals = pc.fill_null(pc.cast(b.column("_v"), zero.type), zero)
        return pa.table({index: b.column(index), **{
            prefix + c: pc.if_else(pc.equal(b.column(pivot), c), vals, zero) for c in cats}})

    return fold_by_key(fine, [index], {prefix + c: "sum" for c in cats}, _widen)


def grouped_zscore(ds, key: str, value: str, *, out: str = "zscore",
                   ddof: int = 1):
    """Append ``out`` = (value − mean_key) / std_key (sample std by
    default, matching SQL ``stddev_samp``).  A null value is skipped;
    a key with undefined, zero or NaN std gets null for every row (a
    NaN value makes its key's moments NaN)."""
    from ..state.resources import by_key, group_of

    def _z(b: pa.Table, starts: np.ndarray) -> pa.Table:
        v = pc.cast(b.column(value), pa.float64()).to_numpy(zero_copy_only=False)
        g = group_of(starts, b.num_rows)
        ok = pc.is_valid(b.column(value)).to_numpy(zero_copy_only=False)
        n = np.add.reduceat(ok.astype(np.int64), starts)
        with np.errstate(divide="ignore", invalid="ignore"):
            mu = np.add.reduceat(np.where(ok, v, 0.0), starts) / n
            d = np.where(ok, v - mu[g], 0.0)
            sd = np.sqrt(np.add.reduceat(d * d, starts) / (n - ddof))
            z = d / sd[g]
        bad = ~ok | ~np.isfinite(z)
        return b.append_column(out, pa.array(np.where(bad, 0.0, z), pa.float64(), mask=bad))

    return by_key(ds, [key], _z)


def grouped_corr(ds, key: str, x: str, y: str, *, out: str = "corr"):
    """Per-key Pearson correlation, two-pass for numerical stability
    (the one-pass sum-of-products formula cancels catastrophically on
    large-magnitude columns): pass 1 aggregates per-key means (one
    shuffle) and broadcasts them back via the count-gated
    ``apply_mapping``; pass 2 sums CENTERED co-moments per key
    (``fold_by_key``: one more bounded shuffle over 3 doubles/key/block).
    Matches SQL ``corr(x, y)``.  Keys with zero variance or < 2 rows get
    null."""
    from ..state.resources import fold_by_key
    from .joins import apply_mapping

    means = fold_by_key(ds, [key], {"_mx": ("mean", x), "_my": ("mean", y)}).materialize()
    with_m = apply_mapping(ds, means, key, key, "_mx", "_mx")
    with_m = apply_mapping(with_m, means, key, key, "_my", "_my")

    def _moments(b: pa.Table) -> pa.Table:
        xa = np.asarray(b.column(x), dtype=np.float64)
        ya = np.asarray(b.column(y), dtype=np.float64)
        mx = np.asarray(b.column("_mx"), dtype=np.float64)
        my = np.asarray(b.column("_my"), dtype=np.float64)
        # a null x or y adds nothing to the sums it is in (as NaN it
        # would make its key's merged sum NaN)
        dx, dy = (np.where(np.isnan(d), 0.0, d) for d in (xa - mx, ya - my))
        return pa.table({key: b.column(key), "_cxy": dx * dy,
                         "_cxx": dx * dx, "_cyy": dy * dy})

    agg = fold_by_key(with_m, [key], {"_cxy": "sum", "_cxx": "sum", "_cyy": "sum"},
                      _moments)

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
    probe); order_by columns must be non-null in this plan.

    Both plans are ``by_key`` passes of :func:`_join_strings`: a NULL
    value is skipped and a key with no other value gets NULL (SQL); a
    non-string value is spelled as Python's ``str`` spells it (a float
    ``1.0`` reads ``1.0``, as in SQL)."""
    from ..state.resources import by_key

    order = order_by or [value]

    if pre_split_chunks is not None and pre_split_chunks > 1:
        return _string_agg_chunked(ds, key, value, order=order, sep=sep,
                                   out=out, num_chunks=pre_split_chunks,
                                   seed=seed)

    return by_key(ds, [key], _join_strings([key], value, out, sep), order)


def _join_strings(keys: list[str], value: str, out: str, sep: str):
    """A ``by_key`` kernel: one row per group, ``keys`` then ``out``,
    the group's non-null ``value``s (as ``str``) joined by ``sep`` in
    row order; NULL for a group with none (SQL ``string_agg``)."""

    def _join(b: pa.Table, starts: np.ndarray) -> pa.Table:
        v = b.column(value).combine_chunks()
        if not pa.types.is_string(v.type):
            v = pa.array([None if x is None else str(x) for x in v.to_pylist()], pa.string())
        ok = v.is_valid()
        n = np.add.reduceat(ok.to_numpy(zero_copy_only=False).astype(np.int32), starts)
        lists = pa.ListArray.from_arrays(
            pa.array(np.concatenate([[0], np.cumsum(n)]), pa.int32()), v.filter(ok),
            mask=pa.array(n == 0))
        return pa.table({**{k: b.column(k).take(starts) for k in keys},
                         out: pc.binary_join(lists, sep)})

    return _join


def _string_agg_chunked(ds, key: str, value: str, *, order: list[str],
                        sep: str, out: str, num_chunks: int, seed: int):
    """Two-level ordered string_agg (see :func:`grouped_string_agg`)."""
    import ray

    from ..state.resources import by_key

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

    parts = by_key(ds.map_batches(_assign, batch_format="pyarrow"), [key, "_chunk"],
                   _join_strings([key, "_chunk"], value, "_part", sep), order)
    return by_key(parts, [key], _join_strings([key], "_part", out, sep), ["_chunk"])


def grouped_count_distinct(ds, key: str | list[str], value: str, *,
                           out: str = "n_distinct"):
    """Exact SQL ``count(DISTINCT value)`` per key (single column or a
    composite key list), skew-safe in two vectorized steps:

    1. the distinct (key, value) pairs (``fold_by_key`` with no
       aggregate): each block ships only its distinct pairs to a dedup
       shuffle keyed on the PAIR, so a celebrity key's values spread
       across reducers;
    2. a keyed ``count`` (``fold_by_key``) over the pair table (rows =
       distinct pairs, already ≪ input).

    No per-group Python, no driver set — both shuffles carry only
    distinct pairs.  NULL values are ignored (SQL ``count(DISTINCT)``
    semantics — review r5: the pair groupby would otherwise count the
    null group as a distinct value) — dropped by an Arrow validity
    filter, so a genuine float NaN survives and counts as one distinct
    value exactly as SQL counts it; a key whose values are ALL null is
    absent from the output (SQL would emit it with count 0 — the same
    documented divergence as :func:`grouped_quantiles`)."""
    from ..state.resources import fold_by_key

    keys = [key] if isinstance(key, str) else list(key)
    pairs = fold_by_key(
        ds, [*keys, value], {},
        lambda b: b.select([*keys, value]).filter(pc.is_valid(b.column(value))))
    return fold_by_key(pairs, keys, {out: "count"})


def _fine_counts(ds, key: str, value: str, *, keep_nulls: bool):
    """The FINE table shared by rank, quantiles and mode: one row per
    DISTINCT (key, value) pair with its row count ``_n``
    (``fold_by_key``).  A NaN value is a value of its own, apart from
    null.  ``keep_nulls`` keeps a null value as its own pair (rank);
    the others drop nulls (SQL ignores them)."""
    from ..state.resources import fold_by_key

    def _cols(b: pa.Table) -> pa.Table:
        if not keep_nulls:
            b = b.filter(pc.is_valid(b.column(value)))
        return b.select([key, value])

    return fold_by_key(ds, [key, value], {"_n": "count"}, _cols)


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

    1. the FINE table (:func:`_fine_counts`), one row per distinct
       (key, value) pair with its count, and on it, in Arrow, the
       composite (key, value) string ``_ck`` the rows are looked up by;
    2. per-key rank prefix over the fine table only (rows = distinct
       values per key ≪ input for real value columns; a hot key costs
       O(its distinct values), not O(its rows)): one ``by_key`` kernel,
       ``rank = cumsum(count) - count + 1``, ``dense = 1..n`` over each
       group's segment; values order as in SQL — NaN above every
       number, NULL last in both directions;
    3. ranks map back to rows via ``_ck`` (``apply_mapping``, a
       broadcast / hash lookup) — both sides build it with the SAME
       Arrow cast from the same Arrow types, so float formatting can
       never diverge.

    ``row_number()`` is deliberately NOT offered through this plan: a
    unique tie-break makes the fine table as big as the input — use
    ``grouped_topk`` / ``grouped_argmax`` for bounded-k needs."""
    from snorkel_ray.stages.joins import apply_mapping

    from ..state.resources import by_key, group_bounds

    def _part(col) -> pa.Array:
        # the fine table and the rows must spell a value alike, whatever
        # unit or width each arrived in, so both sides cast to one type
        # first: temporal → int64 µs, float → double, with -0.0 as 0.0
        # (SQL ties them; the fold keys -0.0 as 0.0)
        t = col.type
        if pa.types.is_timestamp(t):
            col = pc.cast(pc.cast(col, pa.timestamp("us", tz=t.tz)), pa.int64())
        elif pa.types.is_date(t):
            col = pc.cast(pc.cast(col, pa.timestamp("us")), pa.int64())
        elif pa.types.is_time(t):
            col = pc.cast(pc.cast(col, pa.time64("us")), pa.int64())
        elif pa.types.is_floating(t):
            col = pc.add(pc.cast(col, pa.float64()), 0.0)
        # "v<value>", or "n" for null: a null never collides
        return pc.fill_null(pc.binary_join_element_wise(
            "v", pc.cast(col, pa.string()), ""), "n")

    def _add_ck(b: pa.Table) -> pa.Table:
        return b.append_column("_ck", pc.binary_join_element_wise(
            _part(b.column(key)), _part(b.column(value)), "\x1f"))

    int_cols = [out] + ([dense_out] if dense_out else [])
    float_cols = ([percent_out] if percent_out else []) \
        + ([cume_out] if cume_out else [])
    rank_cols = int_cols + float_cols

    def _rank(b: pa.Table, starts: np.ndarray) -> pa.Table:
        # a group arrives in ascending order: numbers, NaN, then its
        # null; descending reverses all but the null (NaN comes first)
        pos = np.arange(b.num_rows)
        first, end = group_bounds(starts, b.num_rows)
        if descending:
            last = end - 1 - pc.is_null(b.column(value)).to_numpy(zero_copy_only=False)[end - 1]
            b = b.take(np.where(pos <= last, first + last - pos, pos))
        c = b.column("_n").to_numpy()
        run = np.cumsum(c)
        run -= (run - c)[first]
        n_rows = run[end - 1]
        cols = {out: run - c + 1, dense_out: pos - first + 1,
                percent_out: (run - c) / np.maximum(n_rows - 1, 1),
                cume_out: run / np.maximum(n_rows, 1)}
        return pa.table({"_ck": _add_ck(b).column("_ck"),
                         **{c: v for c, v in cols.items() if c is not None}})

    mapping = by_key(_fine_counts(ds, key, value, keep_nulls=True), [key], _rank, [value])
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

    1. the fine table (:func:`_fine_counts`) — one row per DISTINCT
       pair with its count;
    2. per-key interpolation over the fine table's cumulative counts
       (value at 0-based rank r = first fine row whose running count
       exceeds r, via ``searchsorted``) — a hot key costs O(its
       distinct values), never its row count.

    → Dataset (key, one float64 column per requested quantile).
    Null values are ignored (SQL ``quantile_cont`` semantics); a key
    whose values are ALL null is absent from the output (SQL would
    emit it with null quantiles — the one documented divergence)."""
    from ..state.resources import by_key

    out_names = out_names or [f"q{int(round(q * 100))}" for q in qs]
    if len(out_names) != len(qs):
        raise ValueError("out_names must match qs")

    fine = _fine_counts(ds, key, value, keep_nulls=False)

    def _quant(b: pa.Table, starts: np.ndarray) -> pa.Table:
        # the fine table's cumulative counts rise strictly over the
        # block, so a group's r-th row (0-based) is a searchsorted of
        # r plus the rows of the groups before it
        vals = pc.cast(b.column(value), pa.float64()).to_numpy(zero_copy_only=False)
        c = b.column("_n").to_numpy()
        cum = np.cumsum(c)
        base = cum[starts] - c[starts]
        n = cum[np.append(starts[1:], b.num_rows) - 1] - base

        def at(r):
            return vals[np.searchsorted(cum, base + r, side="right")]

        cols = {key: b.column(key).take(starts)}
        for q, name in zip(qs, out_names):
            if disc:
                cols[name] = at(np.maximum(np.ceil(q * n).astype(np.int64) - 1, 0))
                continue
            pos = q * (n - 1)
            i = np.floor(pos).astype(np.int64)
            lo, hi = at(i), at(np.minimum(i + 1, n - 1))
            cols[name] = lo + (hi - lo) * (pos - i)
        return pa.table(cols)

    return by_key(fine, [key], _quant, [value])


def histogram_fixed_width(ds, value: str, *, lo: float, hi: float,
                          n_buckets: int, bucket_col: str = "bucket",
                          count_col: str = "n"):
    """Equal-width histogram (SQL ``width_bucket`` semantics): bucket
    1..n for ``lo ≤ v < hi``, 0 below, n+1 at/above ``hi``; nulls
    dropped.  One streaming pass: per-batch ``np.bincount`` partials
    (n+2 rows per block, the combiner) → one tiny keyed sum
    (``fold_by_key``).  The bucket index is computed as
    ``floor((v − lo) · n / (hi − lo))`` in float64 — state the same
    expression in a SQL oracle and the two agree bit-for-bit."""
    from ..state.resources import fold_by_key

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

    return fold_by_key(ds, [bucket_col], {count_col: "sum"}, _partial)


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
    from snorkel_ray.stages.joins import apply_mapping

    from ..state.resources import fold_by_key

    ranked = grouped_rank(ds, key, value, out="_ntile_rank",
                          descending=descending)
    sizes = fold_by_key(ds, [key], {"_ntile_n": "count"})
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

    Plan: the fine table (:func:`_fine_counts`: one row per DISTINCT
    (key, value) pair with its count — the bound of
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
