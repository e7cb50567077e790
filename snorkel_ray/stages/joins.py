"""Scale-aware key→value mapping application (broadcast or shuffle).

The reference resolves every lookup through SQLAlchemy FK traversal
(``snorkel/models/candidate.py`` ≈L100); here the two physical plans a
distributed engine actually needs are made explicit:

- **broadcast**: the mapping fits comfortably in the object store →
  ``ray.put`` once, vectorized pandas ``Series.map`` inside
  ``map_batches``.  Zero shuffle; every task reads the same plasma
  object (shared per node, NOT re-shipped per batch).
- **shuffle**: the mapping is itself huge (e.g. a canonical-entity map
  over 10^12 docs' distinct keys) → hash join via ``Dataset.join``,
  both sides shuffled on the key.

``apply_mapping`` picks automatically by counting the mapping side
(cheap: the mapping is always the small derived table of the two), with
an explicit ``broadcast_limit`` override.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

DEFAULT_BROADCAST_LIMIT = 2_000_000  # rows; ~100 MB of short strings


def semi_join(ds, keys, key_col: str, keys_col: str | None = None, *,
              anti: bool = False,
              broadcast_limit: int = DEFAULT_BROADCAST_LIMIT):
    """Keep rows of ``ds`` whose ``key_col`` appears (semi) / does not
    appear (anti) in ``keys`` — the blocklist/allowlist filter every
    100 TB pipeline needs without paying a full join's payload
    shuffle.

    ``keys``: a Dataset / Arrow table / pandas frame; ``keys_col``
    names its key column (defaults to ``key_col``).  Small key sets
    broadcast (``ray.put`` once, vectorized ``pc.is_in`` per batch —
    zero shuffle); big ones route through ``apply_mapping``'s hash
    join and filter on match validity."""
    import ray
    import ray.data as rd

    keys_col = keys_col or key_col
    if isinstance(keys, pa.Table):
        keys = rd.from_arrow(keys)
    elif isinstance(keys, pd.DataFrame):
        keys = rd.from_pandas(keys)
    keys = keys.materialize()
    n = keys.count()

    import pyarrow.compute as pc

    if n <= broadcast_limit:
        if n == 0:
            if anti:
                return ds
            return ds.map_batches(lambda b: b.slice(0, 0),
                                  batch_format="pyarrow")
        kdf = keys.select_columns([keys_col]).to_pandas()[keys_col]
        vs_ref = ray.put(pa.array(kdf.unique()))

        def _filter(b: pa.Table) -> pa.Table:
            mask = pc.is_in(b.column(key_col), value_set=ray.get(vs_ref))
            if anti:
                mask = pc.invert(mask)
            return b.filter(mask)

        return ds.map_batches(_filter, batch_format="pyarrow")

    from ray.data.aggregate import Count

    distinct = keys.groupby(keys_col).aggregate(Count(alias_name="_sj"))
    marked = apply_mapping(ds, distinct, key_col, keys_col, "_sj", "_sj",
                           broadcast_limit=broadcast_limit)

    def _post(b: pa.Table) -> pa.Table:
        mask = pc.is_valid(b.column("_sj"))
        if anti:
            mask = pc.invert(mask)
        return b.filter(mask).drop_columns(["_sj"])

    return marked.map_batches(_post, batch_format="pyarrow")


def asof_join(left, right, key: str, ts: str, value_cols: list[str], *,
              rename: dict[str, str] | None = None,
              pre_split_chunk: str | None = "auto",
              direction: str = "backward"):
    """As-of join: attach to every left row the right row with the
    greatest ``ts`` ≤ the left row's ``ts`` (``direction='backward'``,
    the default) or the smallest ``ts`` ≥ it (``'forward'`` — next
    event, e.g. time-to-next-click) within the same ``key`` (DuckDB
    ``ASOF LEFT JOIN`` semantics with ``>=`` resp. ``<=`` — the
    standard time-series enrichment the Dataset API lacks).  Both
    directions are inclusive at equal timestamps and share every plan
    below; forward mirrors the per-group sort order and fill direction
    (bfill, reverse chunk scan).

    Plan: tag both sides, union, ONE hash-partitioned groupby on the
    key, per-group time sort + forward-fill of the right values onto
    left rows — no row-by-row probing, no repeated right-side scans.
    At equal timestamps the right row wins first (inclusive match),
    matching DuckDB.  ``right`` must be unique per (key, ts) — ties
    there have no defined winner on either engine; pre-aggregate.

    Default partitioning: one key's rows fit a reducer (same contract
    as the default sliding/session windows).  ``pre_split_chunk``
    (e.g. "1D") switches to the hot-key-safe two-level plan: per
    ``(key, time-chunk)`` groups fill within-chunk matches; each
    chunk's LAST right row becomes a boundary summary, a per-key scan
    over the summary table (O(#chunks) rows per key, ≪ events)
    computes every chunk's carry-in, and unmatched left rows get it
    via ``apply_mapping`` on (key, chunk) — a celebrity key's full
    history never sorts in one reducer.  Exact: a left row with no
    within-chunk match joins the latest right row of any earlier
    chunk, which is by construction that chunk's summary row."""
    import pyarrow.compute as pc

    from .windows import _resolve_chunk

    if direction not in ("backward", "forward"):
        raise ValueError(f"direction must be 'backward' or 'forward', "
                         f"got {direction!r}")

    # probe the LEFT (big) side only; a hot key on the small right
    # side alone cannot blow a reducer
    pre_split_chunk = _resolve_chunk(left, key, ts, pre_split_chunk)

    rename = rename or {c: c for c in value_cols}
    out_cols = [rename[c] for c in value_cols]

    def _pa_type(t):
        # Dataset.schema() yields numpy/python types for pandas-backed
        # blocks; normalize to arrow (object columns are strings here)
        if isinstance(t, pa.DataType):
            return t
        try:
            return pa.from_numpy_dtype(np.dtype(t))
        except (TypeError, pa.lib.ArrowNotImplementedError):
            return pa.string()

    lschema = left.schema()
    rschema = right.schema()
    left_names = lschema.names
    ltype = {n: _pa_type(t) for n, t in zip(lschema.names, lschema.types)}
    rtype = {n: _pa_type(t) for n, t in zip(rschema.names, rschema.types)}
    # integer right values ride the pandas group stages AS STRINGS:
    # null-padding + ffill upcasts int columns to float64, which
    # corrupts values ≥ 2^53 (round-4 review — the same id-corruption
    # mode apply_mapping already guards); strings survive exactly and
    # _restore_types casts them back
    _carry_type = {c: (pa.string() if pa.types.is_integer(rtype[c])
                       else rtype[c]) for c in value_cols}

    def _tag_left(b: pa.Table) -> pa.Table:
        t = b
        for c, oc in zip(value_cols, out_cols):
            t = t.append_column("_r_" + oc,
                                pa.nulls(b.num_rows, _carry_type[c]))
        return t.append_column("_side", pa.array(
            np.ones(b.num_rows, np.int8), pa.int8()))

    def _tag_right(b: pa.Table) -> pa.Table:
        cols = {key: b.column(key), ts: b.column(ts)}
        for c in left_names:
            if c not in (key, ts):
                cols[c] = pa.nulls(b.num_rows, ltype[c])
        for c, oc in zip(value_cols, out_cols):
            col = b.column(c)
            cols["_r_" + oc] = (pc.cast(col, pa.string())
                                if _carry_type[c] == pa.string()
                                and col.type != pa.string() else col)
        cols["_side"] = pa.array(np.zeros(b.num_rows, np.int8), pa.int8())
        return pa.table({c: cols[c] for c in
                         left_names + ["_r_" + oc for oc in out_cols]
                         + ["_side"]})

    def _reorder(b: pa.Table) -> pa.Table:
        want = left_names + ["_r_" + oc for oc in out_cols] + ["_side"]
        return pa.table({c: b.column(c) for c in want})

    tagged = (left.map_batches(_tag_left, batch_format="pyarrow")
              .map_batches(_reorder, batch_format="pyarrow")
              .union(right.map_batches(_tag_right, batch_format="pyarrow")))

    def _restore_types(b: pa.Table) -> pa.Table:
        # pandas upcast the null-padded left int columns to float64
        # through the group stage; cast back (values are integral).
        # Out columns restore to the RIGHT side's original types too
        # (ints come back from the string carry; float32/timestamps
        # from their pandas-widened forms)
        import pyarrow.compute as pc

        cols = {}
        for c in left_names:
            col = b.column(c)
            cols[c] = pc.cast(col, ltype[c]) if col.type != ltype[c] else col
        for c, oc in zip(value_cols, out_cols):
            col = b.column(oc)
            cols[oc] = (pc.cast(col, rtype[c])
                        if col.type != rtype[c] else col)
        return pa.table(cols)

    if pre_split_chunk is not None:
        return _asof_chunked(tagged, key, ts, out_cols, pre_split_chunk,
                             _restore_types, direction)

    fwd = direction == "forward"

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        # backward: right first at equal ts, ffill down.
        # forward: right AFTER left at equal ts, bfill up — both
        # inclusive matches.
        g = g.sort_values([ts, "_side"],
                          ascending=[True, not fwd], kind="mergesort")
        for oc in out_cols:
            g["_r_" + oc] = (g["_r_" + oc].bfill() if fwd
                             else g["_r_" + oc].ffill())
        out = g[g["_side"] == 1].drop(columns=["_side"])
        return out.rename(columns={"_r_" + oc: oc for oc in out_cols})

    merged = tagged.groupby(key).map_groups(_merge, batch_format="pandas")
    return merged.map_batches(_restore_types, batch_format="pyarrow")


def _asof_chunked(tagged, key: str, ts: str, out_cols: list[str],
                  pre_split_chunk: str, restore_types,
                  direction: str = "backward"):
    """Two-level as-of plan over the tagged union (see ``asof_join``).

    Level 1 (groups bounded by chunk width × event rate): within-chunk
    ffill; left rows split into settled ('done') vs pre-first-right
    ('head'); one 'ctx' summary per chunk with right rows (its last
    right values) and one 'need' marker per chunk with heads.
    Level 2 (O(#chunks) rows per key): per-key scan of ctx/need rows
    in chunk order — each need chunk's carry = the latest ctx of a
    STRICTLY earlier chunk ('need' sorts before 'ctx' within a chunk,
    so a chunk's own summary never fills its heads).  Heads then pick
    up the carry via ``apply_mapping`` on the (key, chunk) composite
    (broadcast under its limit, hash join above).

    ``direction='forward'`` is the exact time-mirror: within-chunk
    bfill, 'head' = left rows AFTER the chunk's last right, 'ctx' =
    the chunk's FIRST right row, and the level-2 scan runs in reverse
    chunk order so a need chunk's carry is the earliest ctx of a
    strictly LATER chunk."""
    import pyarrow.compute as pc

    from .windows import _chunk_map, _ck_map

    fwd = direction == "forward"
    rcols = ["_r_" + oc for oc in out_cols]

    def _l1(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([ts, "_side"],
                          ascending=[True, not fwd], kind="mergesort")
        side = g["_side"].to_numpy()
        if fwd:
            # a right row at-or-after (positional reverse cumsum)
            g["_seen"] = np.cumsum((side == 0)[::-1])[::-1] > 0
        else:
            g["_seen"] = np.cumsum(side == 0) > 0
        for rc in rcols:
            g[rc] = g[rc].bfill() if fwd else g[rc].ffill()
        left_rows = g[g["_side"] == 1]
        done = left_rows[left_rows["_seen"]].copy()
        done["_role"] = "done"
        head = left_rows[~left_rows["_seen"]].copy()
        head[rcols] = None
        head["_role"] = "head"
        parts = [done, head]
        rights = g[g["_side"] == 0]
        if len(rights):
            # the chunk's boundary right row: last for backward
            # (carry-out), first for forward (carry-back)
            ctx = rights.iloc[[0 if fwd else -1]].copy()
            ctx["_role"] = "ctx"
            parts.append(ctx)
        if len(head):
            need = head.iloc[[0]].copy()
            need["_role"] = "need"
            parts.append(need)
        return pd.concat(parts, ignore_index=True).drop(columns=["_seen"])

    def _l2(g: pd.DataFrame) -> pd.DataFrame:
        # 'need' (0) sorts before 'ctx' (1) within a chunk: heads must
        # not see their own chunk's summary.  Forward scans chunks in
        # REVERSE order so ffill carries a later chunk's first right
        # back to earlier need chunks.
        g = g.copy()
        g["_rs"] = (g["_role"] == "ctx").astype(int)
        g = g.sort_values(["_chunk", "_rs"],
                          ascending=[not fwd, True], kind="mergesort")
        for rc in rcols:
            g[rc] = g[rc].ffill()
        need = g[g["_role"] == "need"]
        out = need[[key, "_chunk"] + rcols].copy()
        return out

    staged = (tagged.map_batches(_chunk_map(ts, pd.Timedelta(pre_split_chunk)),
                                 batch_format="pyarrow")
              .groupby([key, "_chunk"])
              .map_groups(_l1, batch_format="pandas")
              .materialize())  # consumed by done/head/boundary splits

    def _role(want):
        def _f(b: pa.Table) -> pa.Table:
            return b.filter(pc.is_in(b.column("_role"),
                                     value_set=pa.array(list(want))))

        return _f

    done = staged.map_batches(_role({"done"}), batch_format="pyarrow")
    heads = staged.map_batches(_role({"head"}), batch_format="pyarrow")
    boundary = staged.map_batches(_role({"ctx", "need"}),
                                  batch_format="pyarrow")
    carry = boundary.groupby(key).map_groups(_l2, batch_format="pandas")

    heads = heads.map_batches(_ck_map(key), batch_format="pyarrow") \
        .drop_columns(rcols)
    carry = carry.map_batches(_ck_map(key), batch_format="pyarrow").materialize()
    for rc in rcols:
        heads = apply_mapping(heads, carry, "_ck", "_ck", rc, rc)

    def _clean(b: pa.Table) -> pa.Table:
        keep = [c for c in b.schema.names
                if c not in ("_role", "_chunk", "_ck", "_side")]
        t = pa.table({c: b.column(c) for c in keep})
        return t.rename_columns([c[3:] if c.startswith("_r_") else c
                                 for c in t.schema.names])

    filled = heads.map_batches(_clean, batch_format="pyarrow")
    done = done.map_batches(_clean, batch_format="pyarrow")
    return (done.union(filled)
            .map_batches(restore_types, batch_format="pyarrow"))


def range_join(left, intervals, key: str, ts: str, start: str, end: str, *,
               value_cols: list[str] | None = None,
               chunk: str | float | None = None,
               broadcast_limit: int = DEFAULT_BROADCAST_LIMIT):
    """Interval/range join: one output row per (left row, interval)
    pair with the same ``key`` and ``start ≤ ts ≤ end`` (inclusive,
    SQL ``JOIN ... ON ts BETWEEN start AND end`` semantics; left rows
    with no match are dropped).  The Dataset API has no non-equi join —
    this is the standard rewrite to an equi join.

    Two physical plans:

    - **broadcast** (interval table ≤ ``broadcast_limit`` rows): the
      intervals ship once via ``ray.put``; each left batch does one
      vectorized pandas merge on ``key`` + a between-filter.  Zero
      shuffle.
    - **chunk-replicated** (big interval tables; requires ``chunk``,
      e.g. ``"1h"`` for timestamps or a number for numeric axes): left
      rows get ``_chunk = ts // chunk``; each interval is replicated to
      every chunk it overlaps; one inner ``Dataset.join`` on
      ``(key, _chunk)`` + the between-filter.  Exact and dup-free —
      each left row lives in exactly one chunk.  Replication factor is
      ``interval_length / chunk + 1``: pick ``chunk`` near the typical
      interval length, and keep intervals bounded (an unbounded
      interval would replicate everywhere — cap upstream).
    """
    import ray
    import ray.data as rd

    if isinstance(intervals, pa.Table):
        intervals = rd.from_arrow(intervals)
    elif isinstance(intervals, pd.DataFrame):
        intervals = rd.from_pandas(intervals)
    intervals = intervals.materialize()

    ischema = intervals.schema()
    if value_cols is None:
        value_cols = [c for c in ischema.names if c not in (key, start, end)]
    n = intervals.count()

    if n == 0:
        return left.map_batches(lambda b: b.slice(0, 0),
                                batch_format="pyarrow")

    iv_cols = [start, end] + value_cols

    def _check_collisions(left_names) -> None:
        # a shared name would be silently suffixed "_iv" by the merge
        # and the between-filter would read the LEFT column (ADVICE r3)
        clash = set(left_names) & set(iv_cols)
        if clash:
            raise ValueError(
                f"range_join: left columns {sorted(clash)} collide with "
                "interval start/end/value columns — rename one side")

    if n <= broadcast_limit:
        idf = (intervals
               .select_columns([key, start, end] + value_cols)
               .to_pandas())
        iv_ref = ray.put(idf)

        def _probe(b: pa.Table) -> pa.Table:
            _check_collisions(b.schema.names)
            iv = ray.get(iv_ref)
            df = b.to_pandas()
            m = df.merge(iv, on=key, how="inner",
                         suffixes=("", "_iv"))
            m = m[(m[ts] >= m[start]) & (m[ts] <= m[end])]
            return pa.Table.from_pandas(m, preserve_index=False)

        return left.map_batches(_probe, batch_format="pyarrow")

    if chunk is None:
        raise ValueError(
            f"interval table has {n} rows (> broadcast_limit "
            f"{broadcast_limit}); the chunk-replicated plan needs "
            "an explicit chunk width")

    def _axis_int(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
        # timestamps → int64 µs (unit-normalized so a ns-unit parquet
        # and a µs chunk width can't silently mis-chunk); numerics
        # pass through
        if pa.types.is_timestamp(col.type):
            import pyarrow.compute as pc

            return pc.cast(pc.cast(col, pa.timestamp("us")),
                           pa.int64()).to_numpy(zero_copy_only=False)
        return col.to_numpy(zero_copy_only=False)

    chunk_w = (int(pd.Timedelta(chunk).value // 1000)  # ns → µs
               if isinstance(chunk, str) else chunk)

    def _left_chunk(b: pa.Table) -> pa.Table:
        _check_collisions(b.schema.names)
        c = _axis_int(b.column(ts)) // chunk_w
        return b.append_column("_chunk", pa.array(c.astype(np.int64)))

    def _expand(b: pa.Table) -> pa.Table:
        c0 = _axis_int(b.column(start)) // chunk_w
        c1 = _axis_int(b.column(end)) // chunk_w
        reps = np.maximum(c1 - c0 + 1, 0).astype(np.int64)
        idx = np.repeat(np.arange(len(reps)), reps)
        # chunk id within each interval's replicated run
        offs = np.arange(len(idx)) - np.repeat(
            np.cumsum(reps) - reps, reps)
        t = b.select([key, start, end] + value_cols).take(pa.array(idx))
        return t.append_column(
            "_chunk", pa.array(c0[idx] + offs, pa.int64()))

    lt = left.map_batches(_left_chunk, batch_format="pyarrow")
    iv = intervals.map_batches(_expand, batch_format="pyarrow")

    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    joined = lt.join(iv, join_type="inner",
                     num_partitions=max(2, min(32, cpus)),
                     on=(key, "_chunk"), right_on=(key, "_chunk"))

    def _between(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        mask = pc.and_(pc.greater_equal(b.column(ts), b.column(start)),
                       pc.less_equal(b.column(ts), b.column(end)))
        return b.filter(mask).drop_columns(["_chunk"])

    return joined.map_batches(_between, batch_format="pyarrow")


def apply_mapping(ds, mapping, key_col: str, map_key: str, map_value: str,
                  out_col: str, *, default_col: str | None = None,
                  broadcast_limit: int = DEFAULT_BROADCAST_LIMIT,
                  num_partitions: int = 32):
    """Append ``out_col`` = mapping[ds[key_col]] to ``ds``.

    ``mapping`` is a Dataset (or pyarrow Table / pandas DataFrame) with
    columns ``map_key`` → ``map_value``.  Rows whose key is absent get
    ``ds[default_col]`` when given, else null.

    Broadcast path when the mapping has ≤ ``broadcast_limit`` rows,
    hash-join shuffle path otherwise (partitioning assumption: keys
    hash-distribute evenly; salt upstream if one key dominates).

    PRECONDITION: ``map_key`` must be unique in ``mapping`` — the
    broadcast path raises on duplicates; the shuffle (left-outer join)
    path would silently MULTIPLY matching rows instead (round-4
    review), so pre-aggregate the mapping.  Note: a key mapped to a
    NULL value is indistinguishable from an absent key — with
    ``default_col`` both get the default (coalesce semantics).
    """
    import ray
    import ray.data as rd

    if isinstance(mapping, pa.Table):
        mapping = rd.from_arrow(mapping)
    elif isinstance(mapping, pd.DataFrame):
        mapping = rd.from_pandas(mapping)

    # count() + consume would otherwise execute the mapping's lineage
    # twice; the mapping lives in the object store either way
    mapping = mapping.materialize()
    n = mapping.count()
    if n == 0:
        # empty Datasets lose their columns through to_pandas (known
        # ray 2.49 pitfall) — short-circuit: everything maps to default
        def _empty(b: pa.Table) -> pa.Table:
            col = (b.column(default_col) if default_col is not None
                   else pa.nulls(b.num_rows))
            return b.append_column(out_col, col)

        return ds.map_batches(_empty, batch_format="pyarrow")
    if n <= broadcast_limit:
        mdf = mapping.select_columns([map_key, map_value]).to_pandas()
        vals_src = mdf[map_value]
        # pin the output arrow type: the per-batch rebuild otherwise
        # INFERS from Python objects, and a uint64 id ≥ 2^63 makes
        # pyarrow try int64 → OverflowError (caught by the curation
        # hash-range-id test)
        out_type = None
        try:
            out_type = pa.from_numpy_dtype(np.dtype(str(vals_src.dtype)))
        except (TypeError, pa.lib.ArrowNotImplementedError):
            pass
        if pd.api.types.is_integer_dtype(vals_src.dtype):
            # nullable-int lookup values: a plain int64 Series.map
            # upcasts to float64 when any key misses (NaN), silently
            # corrupting ids ≥ 2^53 — the stated 10^12-doc hash-id
            # design target (round-2 ADVICE item 2). The masked
            # extension array keeps misses as pd.NA at full precision.
            nullable = {"int8": "Int8", "int16": "Int16", "int32": "Int32",
                        "int64": "Int64", "uint8": "UInt8", "uint16": "UInt16",
                        "uint32": "UInt32", "uint64": "UInt64"}
            vals_src = vals_src.astype(nullable[str(vals_src.dtype)])
        lookup = pd.Series(vals_src.array
                           if hasattr(vals_src, "array")
                           else vals_src.values,
                           index=mdf[map_key].values)
        if not lookup.index.is_unique:
            raise ValueError(
                "apply_mapping: mapping has duplicate keys — "
                "pre-aggregate to one row per key (Series.map would "
                "raise here; the shuffle plan would silently multiply "
                "rows)")
        lookup_ref = ray.put(lookup)

        def _apply(b: pa.Table) -> pa.Table:
            lookup = ray.get(lookup_ref)
            keys = b.column(key_col).to_pandas()
            vals = keys.map(lookup)
            if default_col is not None:
                vals = vals.fillna(b.column(default_col).to_pandas())
            return b.append_column(
                out_col, pa.Array.from_pandas(vals, type=out_type))

        return ds.map_batches(_apply, batch_format="pyarrow")

    # shuffle path: left outer hash join on the key (mapping columns
    # renamed to private names so they can never collide with ds's).
    # Partition count is clamped to the session CPUs: the hash-shuffle
    # aggregator pool otherwise starves task operators on small
    # sessions (the actor-pool deadlock pitfall — observed as a hang on
    # the 4-CPU test fixture with 32 partitions).
    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    nparts = max(2, min(num_partitions, cpus))
    renamed = mapping.map_batches(
        lambda b: pa.table({"__map_key": b.column(map_key),
                            out_col: b.column(map_value)}),
        batch_format="pyarrow")
    joined = ds.join(renamed, join_type="left_outer",
                     num_partitions=nparts,
                     on=(key_col,), right_on=("__map_key",))

    import pyarrow.compute as pc

    def _finish(b: pa.Table) -> pa.Table:
        if default_col is not None:
            i = b.schema.get_field_index(out_col)
            b = b.set_column(i, out_col,
                             pc.coalesce(b.column(out_col), b.column(default_col)))
        if "__map_key" in b.schema.names:
            b = b.drop_columns(["__map_key"])
        return b

    return joined.map_batches(_finish, batch_format="pyarrow")
