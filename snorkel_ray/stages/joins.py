"""Scale-aware joins: key→value lookups, semi/anti filters, as-of and
range joins.  The reference resolves every lookup through SQLAlchemy FK
traversal (``snorkel/models/candidate.py`` ≈L100); here the two
physical plans a distributed engine actually needs are made explicit:

- **broadcast**: the small side fits comfortably in the object store →
  ``ray.put`` once, a vectorized Arrow lookup (``pc.index_in`` /
  ``pc.is_in``) inside ``map_batches``.  Zero shuffle; every task reads
  the same plasma object (shared per node, NOT re-shipped per batch).
- **shuffle**: the small side is itself huge (e.g. a canonical-entity
  map over 10^12 docs' distinct keys) → ``resources.join_by_key``, one
  ``by_key`` shuffle of both sides cut at the same sampled boundaries.

Each operation picks by counting its small side (cheap: it is always
the derived table of the two) against ``broadcast_limit``, and both
plans give the same rows, NULL keys included.
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
    shuffle.  SQL ``EXISTS`` / ``NOT EXISTS``: a NULL key never
    matches, so anti keeps a NULL-keyed row and semi drops it.

    ``keys``: a Dataset / Arrow table / pandas frame; ``keys_col``
    names its key column (defaults to ``key_col``).  Small key sets
    broadcast (``ray.put`` once, vectorized ``pc.is_in`` per batch —
    zero shuffle); big ones run ``join_by_key``'s left semi / left
    anti join."""
    import pyarrow.compute as pc
    import ray

    from ..state.resources import join_by_key

    keys_col = keys_col or key_col
    keys = _dataset(keys).materialize()
    n = keys.count()
    if n > broadcast_limit:
        return join_by_key(ds, keys.select_columns([keys_col]), key_col, keys_col,
                           how="left anti" if anti else "left semi")
    if not n:
        return ds if anti else ds.map_batches(lambda b: b.slice(0, 0), batch_format="pyarrow")
    vs_ref = ray.put(pc.unique(pc.drop_null(_rows(keys, [keys_col]).column(0))))

    def _filter(b: pa.Table) -> pa.Table:
        mask = pc.is_in(b.column(key_col), value_set=ray.get(vs_ref))
        return b.filter(pc.invert(mask) if anti else mask)

    return ds.map_batches(_filter, batch_format="pyarrow")


def _dataset(t):
    """``t`` (a Dataset, Arrow table or pandas frame) as a Dataset."""
    import ray.data as rd

    if isinstance(t, pa.Table):
        return rd.from_arrow(t)
    if isinstance(t, pd.DataFrame):
        return rd.from_pandas(t)
    return t


def _rows(ds, cols: list[str]) -> pa.Table:
    """The columns ``cols`` of a pinned, non-empty Dataset as one Arrow
    table (pandas would widen an int column holding a null to float64)."""
    import ray

    return pa.concat_tables([t.select(cols) for t in ray.get(ds.to_arrow_refs()) if t.num_rows],
                            promote_options="permissive").combine_chunks()


def _last_at_or_before(mask: np.ndarray) -> np.ndarray:
    """Per position, the index of the last ``True`` at or before it
    (-1: none)."""
    return np.maximum.accumulate(np.where(mask, np.arange(len(mask)), -1))


def _first_at_or_after(mask: np.ndarray) -> np.ndarray:
    """Per position, the index of the first ``True`` at or after it
    (``len(mask)``: none)."""
    return len(mask) - 1 - _last_at_or_before(mask[::-1])[::-1]


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
    below; forward is the time-mirror (descending sort, reverse chunk
    scan).  The match is a ROW: a matched right row whose value is
    null attaches null — it does not fall through to an older row.

    Plan: tag both sides, union, ONE keyed sort on the key
    (``resources.by_key``, ordered on ``ts``); per block one fill
    (``_fill``) gathers each left row's matched right row over the
    block's key segments — no row-by-row probing, no repeated
    right-side scans.  At equal timestamps the right row matches
    (inclusive), matching DuckDB.  ``right`` must be unique per
    (key, ts) — ties there have no defined winner on either engine;
    pre-aggregate.  A null key matches nothing (SQL equality, as
    DuckDB's ASOF join): its left rows attach null.

    Default partitioning: one key's rows fit a reducer (same contract
    as the default sliding/session windows).  ``pre_split_chunk``
    (e.g. "1D") switches to the hot-key-safe ``windows._carry_plan``:
    per ``(key, time-chunk)`` the same fill settles every left row
    with an in-chunk match, and the chunk's boundary right row (its
    last; its first for forward) is its carry row.  Every other left
    row matches, by construction, the boundary row of the nearest
    strictly earlier (later) chunk that has one.  A celebrity key's
    full history never sorts in one reducer."""
    import pyarrow.compute as pc

    from ..state.resources import arrow_schema, by_key, group_bounds
    from .windows import _carry_plan, _gather, _resolve_chunk

    if direction not in ("backward", "forward"):
        raise ValueError(f"direction must be 'backward' or 'forward', "
                         f"got {direction!r}")

    # probe the LEFT (big) side only; a hot key on the small right
    # side alone cannot blow a reducer
    pre_split_chunk = _resolve_chunk(left, key, ts, pre_split_chunk)

    rename = rename or {c: c for c in value_cols}
    out_cols = [rename[c] for c in value_cols]
    rcols = ["_r_" + oc for oc in out_cols]

    lschema, rschema = arrow_schema(left), arrow_schema(right)
    left_names = lschema.names
    ltype = dict(zip(lschema.names, lschema.types))
    rtype = dict(zip(rschema.names, rschema.types))

    # both sides tag into ONE column order (union needs it): the left
    # columns, then the right values, then ``_side`` (0 right, 1 left)
    def _tag_left(b: pa.Table) -> pa.Table:
        cols = {c: b.column(c) for c in left_names}
        for c, rc in zip(value_cols, rcols):
            cols[rc] = pa.nulls(b.num_rows, rtype[c])
        cols["_side"] = pa.array(np.ones(b.num_rows, np.int8), pa.int8())
        return pa.table(cols)

    def _tag_right(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column(key)))  # a null key matches nothing
        cols = {c: (b.column(c) if c in (key, ts)
                    else pa.nulls(b.num_rows, ltype[c])) for c in left_names}
        for c, rc in zip(value_cols, rcols):
            cols[rc] = b.column(c)
        cols["_side"] = pa.array(np.zeros(b.num_rows, np.int8), pa.int8())
        return pa.table(cols)

    tagged = (left.map_batches(_tag_left, batch_format="pyarrow")
              .union(right.map_batches(_tag_right, batch_format="pyarrow")))

    def _finish(b: pa.Table) -> pa.Table:
        # out columns take the RIGHT side's types, left columns keep
        # theirs (a union of pandas blocks may have widened either)
        return pa.table({**{c: b.column(c).cast(ltype[c]) for c in left_names},
                         **{oc: b.column(rc).cast(rtype[c])
                            for c, oc, rc in zip(value_cols, out_cols, rcols)}})

    fwd = direction == "forward"

    def _fill(b: pa.Table, starts: np.ndarray) -> tuple[pa.Table, np.ndarray]:
        # → (b with every row's rcols gathered from its matched right
        # row, each row's match position or -1), b ordered on (key
        # segments, ts).  A right row is unique per (key, ts), so a run
        # of rows tied on ts holds at most one: every row of the run
        # matches the last right row at or before the run's end
        # (backward) or the first at or after its start (forward), in
        # its own key segment
        first, end = group_bounds(starts, b.num_rows)
        right = b.column("_side").to_numpy() == 0
        t = b.column(ts)
        tie = np.ones(b.num_rows, bool)
        tie[1:] = pc.fill_null(pc.not_equal(t.slice(1), t.slice(0, b.num_rows - 1)),
                               True).to_numpy(zero_copy_only=False)
        tie[starts] = True
        runs = np.flatnonzero(tie)
        size = np.diff(np.append(runs, b.num_rows))
        if fwd:
            src = _first_at_or_after(right)[np.repeat(runs, size)]
            src = np.where(src < end, src, -1)
        else:
            src = _last_at_or_before(right)[np.repeat(np.append(runs[1:], b.num_rows) - 1,
                                                      size)]
            src = np.where(src >= first, src, -1)
        for rc in rcols:
            b = b.set_column(b.schema.get_field_index(rc), rc, _gather(b.column(rc), src))
        return b, src

    if pre_split_chunk is None:
        def _merge(b: pa.Table, starts: np.ndarray) -> pa.Table:
            b, _ = _fill(b, starts)
            return b.filter(pc.equal(b.column("_side"), 1))

        return (by_key(tagged, [key], _merge, [ts])
                .map_batches(_finish, batch_format="pyarrow"))

    def _level1(b: pa.Table, starts: np.ndarray) -> pa.Table:
        b, src = _fill(b, starts)
        left = b.column("_side").to_numpy() == 1
        # the carry row is the match of the chunk's last row in time
        # (its first for forward): its boundary right row, or (no right
        # row) that edge row itself, a left row whose rcols are null
        edge = starts if fwd else np.append(starts[1:], b.num_rows) - 1
        has = src[edge] >= 0
        role = np.concatenate([np.where(src[left] >= 0, "done", "head"),
                               np.full(len(edge), "carry")])
        return (b.take(np.concatenate([np.flatnonzero(left), np.where(has, src[edge], edge)]))
                .append_column("_role", pa.array(role))
                .append_column("_has", pa.array(np.concatenate([np.zeros(left.sum(), bool),
                                                                has]))))

    def _scan(c: pa.Table, starts: np.ndarray) -> pa.Table:
        # a chunk's carry-in is the carry-out of the nearest strictly
        # earlier chunk of its key that has one (later for forward)
        first, end = group_bounds(starts, c.num_rows)
        has = c.column("_has").to_numpy(zero_copy_only=False)
        if fwd:
            src = np.append(_first_at_or_after(has), c.num_rows)[1:]
            src = np.where(src < end, src, -1)
        else:
            src = np.append(-1, _last_at_or_before(has))[:-1]
            src = np.where(src >= first, src, -1)
        return pa.table({key: c.column(key), "_chunk": c.column("_chunk"),
                         **{"_in" + rc: _gather(c.column(rc), src) for rc in rcols}})

    def _apply(b: pa.Table) -> pa.Table:
        for rc in rcols:
            b = b.set_column(b.schema.get_field_index(rc), rc,
                             b.column("_in" + rc))
        return b.drop_columns(["_in" + rc for rc in rcols])

    return (_carry_plan(tagged, key, ts, pd.Timedelta(pre_split_chunk),
                        _level1, _scan, _apply)
            .map_batches(_finish, batch_format="pyarrow"))


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
      every chunk it overlaps; one inner ``join_by_key`` on
      ``(key, _chunk)`` + the between-filter.  Exact and dup-free —
      each left row lives in exactly one chunk.  Replication factor is
      ``interval_length / chunk + 1``: pick ``chunk`` near the typical
      interval length, and keep intervals bounded (an unbounded
      interval would replicate everywhere — cap upstream).
    """
    import ray

    from ..state.resources import join_by_key

    intervals = _dataset(intervals).materialize()
    if value_cols is None:
        value_cols = [c for c in intervals.schema().names if c not in (key, start, end)]
    n = intervals.count()
    if n == 0:
        return left.map_batches(lambda b: b.slice(0, 0), batch_format="pyarrow")

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
        iv_ref = ray.put(intervals.select_columns([key, start, end] + value_cols).to_pandas())

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

    joined = join_by_key(left.map_batches(_left_chunk, batch_format="pyarrow"),
                         intervals.map_batches(_expand, batch_format="pyarrow"),
                         [key, "_chunk"])

    def _between(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        mask = pc.and_(pc.greater_equal(b.column(ts), b.column(start)),
                       pc.less_equal(b.column(ts), b.column(end)))
        return b.filter(mask).drop_columns(["_chunk"])

    return joined.map_batches(_between, batch_format="pyarrow")


def apply_mapping(ds, mapping, key_col: str, map_key: str, map_value: str,
                  out_col: str, *, default_col: str | None = None,
                  broadcast_limit: int = DEFAULT_BROADCAST_LIMIT):
    """Append ``out_col`` = mapping[ds[key_col]] to ``ds``.

    ``mapping`` is a Dataset (or pyarrow Table / pandas DataFrame) with
    columns ``map_key`` → ``map_value``.  Rows whose key is absent get
    ``ds[default_col]`` when given, else null.  A lookup, not a join: a
    NULL key is a key of its own (as in ``by_key`` and ``GROUP BY``), so
    a NULL ``key_col`` takes the mapping's NULL key, and NaN takes NaN.

    Broadcast path when the mapping has ≤ ``broadcast_limit`` rows
    (``pc.index_in`` against one ``ray.put`` table), else
    ``join_by_key``'s left outer join on the keys' never-NULL
    ``_sort_pair`` columns (assumption: no one key holds most rows).

    PRECONDITION: ``map_key`` must be unique in ``mapping``; both plans
    raise ``ValueError`` on a duplicate, so pre-aggregate the mapping.
    Note: a key mapped to a NULL value is indistinguishable from an
    absent key — with ``default_col`` both get the default (coalesce
    semantics).
    """
    import pyarrow.compute as pc
    import ray

    from ..state.resources import _sort_pair, join_by_key

    # pinned: counted, then read (the object store holds it either way)
    mapping = _dataset(mapping).materialize()
    n = mapping.count()

    def _default(b: pa.Table, vals) -> pa.Table:
        if default_col is not None:
            d = b.column(default_col)
            vals = d if pa.types.is_null(vals.type) else pc.coalesce(vals, d.cast(vals.type))
        return b.append_column(out_col, vals)

    if n == 0:  # every key is absent
        return ds.map_batches(lambda b: _default(b, pa.nulls(b.num_rows)),
                              batch_format="pyarrow")
    if n <= broadcast_limit:
        lut = _rows(mapping, [map_key, map_value])
        if pc.count_distinct(lut.column(map_key), mode="all").as_py() != n:
            raise ValueError("apply_mapping: mapping has duplicate keys — "
                             "pre-aggregate to one row per key")
        lut_ref = ray.put(lut)

        def _apply(b: pa.Table) -> pa.Table:
            lut = ray.get(lut_ref)
            # a null key takes the mapping's null key (index_in matches nulls)
            return _default(b, lut.column(map_value).take(
                pc.index_in(b.column(key_col), value_set=lut.column(map_key).chunk(0))))

        return ds.map_batches(_apply, batch_format="pyarrow")

    def _paired(t: pa.Table, key) -> pa.Table:
        flag, val = _sort_pair(key)
        return t.append_column("_mk_flag", flag).append_column("_mk_val", val)

    joined = join_by_key(
        ds.map_batches(lambda b: _paired(b, b.column(key_col)), batch_format="pyarrow"),
        mapping.map_batches(lambda b: _paired(pa.table({"_mk_out": b.column(map_value)}),
                                              b.column(map_key)), batch_format="pyarrow"),
        ["_mk_flag", "_mk_val"], how="left outer", _one_right=True)
    return joined.map_batches(
        lambda b: _default(b.drop_columns(["_mk_flag", "_mk_val", "_mk_out"]),
                           b.column("_mk_out")), batch_format="pyarrow")
