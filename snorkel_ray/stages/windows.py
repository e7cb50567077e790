"""Window operators over event-shaped tables (SURVEY.md §2.9 note).

The reference has NO streaming concepts (strictly batch); these ops
exist because the brief's engine must cover event-log processing at
scale.  Per the Ray Data model (no watermarks/event-time runtime), a
window is a deterministic batch computation over an ordered, keyed log.

Every per-key ordered op is a block kernel on ``resources.by_key``:
its range-partitioned sort (plain Ray tasks) puts every row of a key
into one block sorted on (key, ts, event_id), and the kernel evaluates every
key of the block at once over its segments (the textbook window plan:
sort once on (partition, order), then evaluate each frame over the
segments of the sorted run).  No op calls pandas per group: lag/lead
is a shifted ``take`` masked at group starts, the rolling mean a
w-term masked sum, the running sum a per-group ``np.cumsum``
(``_running``), the time-range sum a ``searchsorted`` per row, and
sessions ``np.{minimum,maximum,add}.reduceat`` over run starts.

Partitioning contracts (hot-key story, round-1 verdict item 9):

- **tumbling**: no per-key group at all — the window id is a vectorized
  ``floor(ts, width)`` inside the fold's block step, then a keyed fold
  (``fold_by_key``) on ``(key, window_start)``.  A celebrity key spreads across its windows;
  one (key, window) cell is bounded by width × event rate.
- **session**: ``pre_split_chunk`` floors events into coarse time
  chunks (≫ gap), sessionizes per ``(key, chunk)`` — bounded groups —
  then merges adjacent sessions across chunk boundaries on the SESSION
  table (≪ events).  Both levels run the same vectorized run split
  (``start − cummax(end) > gap`` against the previous row): within-chunk
  sessions are already > gap apart, so only boundary splits rejoin.
- **lag / sliding mean / time-range sum**: per-key ordered ops.  The
  single-group plan (``_per_key``) puts a key's whole history in one
  block; ``pre_split_chunk`` switches to the shared two-level hot-key
  plan ``_context_plan``: per ``(key, chunk)`` the op's ``compute``
  runs and its ``split`` marks HEAD rows (output may depend on an
  earlier/later chunk) and CONTEXT rows (the boundary rows other
  chunks' heads depend on); every other row settles.  A per-key fix-up
  recomputes the heads over heads ∪ context only — O(#chunks × window)
  rows per key, never the key's full history in one group.
- **cumulative sum / as-of join** (``joins.asof_join``): a row
  settles from its own chunk plus ONE carry-in summarizing all earlier
  chunks, so they share the second skeleton, ``_carry_plan``: one
  carry row per (key, chunk), a per-key scan over those rows only,
  the carry-in joined back on the (key, chunk) composite.

Nulls follow SQL: a null key is one partition (``PARTITION BY``), the
additive windows (cumulative and time-range sum) skip null values, and
a result is null only while its frame holds no non-null value
(``_running_sum``, a running non-null count — not a cumsum over NaN,
which poisons every later row).

Ordering identity is ``(ts, event_id)`` (``_order``); exactly one
event per key per (ts, event_id) is assumed.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..state.resources import group_bounds, group_of


def _resolve_chunk(events, key: str, ts: str, pre_split_chunk,
                   *, min_width: pd.Timedelta | None = None):
    """``"auto"`` (the default everywhere in this family, round-3
    verdict item 2) probes for hot keys and returns a chunk width only
    when one exists; explicit ``None`` forces the single-group plan,
    an explicit width forces the two-level plan.

    COST: the probe executes the input pipeline once at plan-build
    time (a seeded random sample of (key, ts)).  When the input is an
    expensive map chain and the caller already knows the skew shape,
    pass ``None`` or an explicit width to skip the probe — correctness
    never depends on it."""
    if pre_split_chunk == "auto":
        from .skew import auto_pre_split_chunk

        return auto_pre_split_chunk(events, key, ts, min_width=min_width)
    return pre_split_chunk


def _chunk_map(ts: str, chunk: pd.Timedelta):
    """Batch map appending ``_chunk = floor(ts, chunk)``: the time
    chunk of every two-level plan."""

    def _add_chunk(b: pa.Table) -> pa.Table:
        c = b.column(ts).to_pandas().dt.floor(chunk)
        return b.append_column("_chunk", pa.Array.from_pandas(c))

    return _add_chunk


def _ck_map(key: str):
    """Batch map appending ``_ck``, the (key, chunk) composite string
    ``_carry_plan`` joins the carry-in back on.  The key enters as its
    sort pair (``resources._sort_pair``), with ``-0.0`` read as ``0.0``,
    so a null key and a NaN key each have a composite of their own,
    as they have a group of their own in ``by_key``."""
    from ..state.resources import _sort_pair

    def _ck(b: pa.Table) -> pa.Table:
        flag, k = _sort_pair(b.column(key))
        if pa.types.is_floating(k.type):
            k = pc.add(k, pa.scalar(0.0, k.type))
        c = pc.cast(b.column("_chunk"), pa.int64())
        return b.append_column("_ck", pc.binary_join_element_wise(
            *(pc.cast(x, pa.string()) for x in (flag, k, c)), "\x1f"))

    return _ck


def _order(ts: str) -> list[str]:
    """The ordering identity (ts, event_id) as ``by_key``'s ``order``
    (a table without ``event_id`` orders on ``ts`` alone)."""
    return [ts, "event_id"]


def _set(b: pa.Table, name: str, col) -> pa.Table:
    """``b`` with column ``name`` replaced by ``col``, or appended."""
    i = b.schema.get_field_index(name)
    return b.append_column(name, col) if i < 0 else b.set_column(i, name, col)


def _gather(col, src: np.ndarray):
    """``col``'s values at positions ``src``, null where ``src`` < 0."""
    return col.take(pa.array(np.maximum(src, 0), mask=src < 0))


def _floats(b: pa.Table, name: str) -> np.ndarray:
    """Column ``name`` as float64 numpy, null read as NaN."""
    return pc.cast(b.column(name), pa.float64()).to_numpy()


def _running(x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The running sum of ``x`` within every group of a block, added
    in row order from each group's first value: exactly ``np.cumsum``
    per group.  A group longer than ``big`` rows takes one
    ``np.cumsum``; the shorter ones step together, one position at a
    time, so a block costs at most rows / big + big numpy calls."""
    n, big = len(x), 64
    ends = np.append(starts[1:], n)
    sizes = ends - starts
    out = x.copy()
    for a, e in zip(starts[sizes > big], ends[sizes > big]):
        np.cumsum(x[a:e], out=out[a:e])
    short, size = starts[sizes <= big], sizes[sizes <= big]
    for p in range(1, size.max(initial=1)):
        at = short[size > p] + p
        out[at] += out[at - 1]
    return out


def _running_sum(v: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """SQL's running ``SUM`` per group: NaN (null) values are skipped,
    and the sum is NaN only while no non-null value has been seen."""
    ok = ~np.isnan(v)
    seen = _running(ok.astype(np.int64), starts) > 0
    return np.where(seen, _running(np.where(ok, v, 0.0), starts), np.nan)


def _per_key(events, key: str, ts: str, compute):
    """Single-group plan: every block of the keyed sort is ordered on
    (key, ts, event_id), and ``compute(block, starts)`` returns it with
    the output column set."""
    from ..state.resources import by_key

    return by_key(events, [key], compute, _order(ts))


def _context_plan(events, key: str, ts: str, chunk: pd.Timedelta,
                  compute, split):
    """The two-level hot-key plan of every per-key ordered op: two
    ``by_key`` passes on ``(key, _chunk)``, nothing pinned.

    1. Per ``(key, chunk)`` group: ``compute(block, starts)``, then
       ``split(block, starts)`` → (head, ctx) boolean masks (the block
       still holds ``_chunk``).  Non-head rows are settled ('done');
       heads are provisional; ctx rows are the chunk's boundary rows
       that other chunks' heads depend on.  Heads and ctx rows leave
       with a null ``_chunk``, so level 2 holds them in one group per
       key, while a done row stays in its own (key, chunk) group.
    2. Done rows pass through.  Per ``key`` over heads ∪ ctx only:
       collapse head/ctx double emissions, recompute, keep the
       corrected heads.

    The double emissions collapse per (group, uid), an int64 from the
    row's chunk and its position in the (key, chunk) group — NOT by
    the order columns: deduping on those silently collapsed distinct
    rows that tie on ts when no event_id column exists.  The uid is
    the last order column of level 2, so a row's two copies sit side
    by side there.  (The chunk number fills its high 32 bits, the
    position its low 32.)"""
    from ..state.resources import by_key

    def _level1(b: pa.Table, starts: np.ndarray) -> pa.Table:
        b = compute(b, starts)
        head, ctx = split(b, starts)
        first, _ = group_bounds(starts, b.num_rows)
        since = b.column("_chunk").to_numpy() - np.datetime64(0, "ns")
        uid = ((since // chunk.to_timedelta64()) << 32) + (np.arange(b.num_rows) - first)
        idx = np.concatenate([np.flatnonzero(~head), np.flatnonzero(head),
                              np.flatnonzero(ctx)])
        role = np.repeat(np.array(["done", "head", "ctx"]),
                         [(~head).sum(), head.sum(), ctx.sum()])
        b = b.take(idx)
        return (_set(b, "_chunk", pc.if_else(pa.array(role == "done"), b.column("_chunk"),
                                             None))
                .append_column("_role", pa.array(role))
                .append_column("_w_uid", pa.array(uid[idx])))

    def _level2(b: pa.Table, starts: np.ndarray) -> pa.Table:
        edge = pc.not_equal(b.column("_role"), "done").to_numpy(zero_copy_only=False)
        done = b.filter(pa.array(~edge)).drop_columns(["_chunk", "_role", "_w_uid"])
        if not edge.any():
            return done
        # the edge rows are whole groups; renumber their starts
        starts = (np.cumsum(edge) - 1)[starts[edge[starts]]]
        b = b.filter(pa.array(edge))
        uid = b.column("_w_uid").to_numpy()
        new = np.ones(b.num_rows, bool)
        new[1:] = uid[1:] != uid[:-1]
        new[starts] = True
        keep = np.flatnonzero(new)
        head = np.logical_or.reduceat(
            pc.equal(b.column("_role"), "head").to_numpy(zero_copy_only=False), keep)
        g = b.take(keep).drop_columns(["_chunk", "_role", "_w_uid"])
        fixed = compute(g, (np.cumsum(new) - 1)[starts]).filter(pa.array(head))
        return pa.concat_tables([done, fixed])

    return by_key(by_key(events.map_batches(_chunk_map(ts, chunk), batch_format="pyarrow"),
                         [key, "_chunk"], _level1, _order(ts)),
                  [key, "_chunk"], _level2, [*_order(ts), "_w_uid"])


def _carry_plan(events, key: str, ts: str, chunk: pd.Timedelta,
                level1, scan, apply):
    """The two-level hot-key plan of every single-carry keyed op
    (cumulative sum, both as-of directions).

    1. Per ``(key, chunk)`` group, one block kernel on ``by_key``
       (ordered on ts, event_id): ``level1(block, starts)`` computes
       the in-chunk result and marks every row's ``_role``: ``done``
       (the row is settled) or ``head`` (it needs the carry-in), plus
       exactly one ``carry`` row per group holding the chunk's
       carry-out; ``_chunk`` stays.
    2. Per ``key`` over the carry rows only (O(#chunks) rows), ordered
       on ``_chunk``: ``scan(block, starts)`` returns ``key``,
       ``_chunk`` and the carry-in columns — each chunk's EXCLUSIVE
       carry-in.
    3. Every carry-in column joins onto the heads on the (key, chunk)
       composite via ``joins.apply_mapping`` (broadcast under its
       limit, ``join_by_key`` above); ``apply(b)`` folds it in.

    Roles are an explicit column, never a sentinel value: a null
    carry-out is legal (a chunk of null values, a null right value)."""
    from ..state.resources import by_key
    from .joins import apply_mapping

    def _role(role: str, drop: list[str]):
        def _filter(b: pa.Table) -> pa.Table:
            return b.filter(pc.equal(b.column("_role"), role)).drop_columns(drop)

        return _filter

    staged = by_key(events.map_batches(_chunk_map(ts, chunk), batch_format="pyarrow"),
                    [key, "_chunk"], level1, _order(ts)) \
        .materialize()  # consumed three times: done, heads, carry
    done = staged.map_batches(_role("done", ["_role", "_chunk"]),
                              batch_format="pyarrow")
    carry = by_key(staged.map_batches(_role("carry", ["_role"]), batch_format="pyarrow"),
                   [key], scan, ["_chunk"]) \
        .map_batches(_ck_map(key), batch_format="pyarrow").materialize()
    if carry.count() == 0:  # no (key, chunk) group, so no head either
        return done
    heads = (staged.map_batches(_role("head", ["_role"]), batch_format="pyarrow")
             .map_batches(_ck_map(key), batch_format="pyarrow"))
    for c in carry.columns():
        if c not in (key, "_chunk", "_ck"):
            heads = apply_mapping(heads, carry, "_ck", "_ck", c, c)
    fixed = heads.map_batches(
        lambda b: apply(b.drop_columns(["_chunk", "_ck"])),
        batch_format="pyarrow")
    return done.union(fixed)


def _row_split(k: int, lead: bool = False):
    """``split`` of the row-count ops: a row settles once it has its k
    in-chunk predecessors (successors for ``lead``).  The chunk's
    first k rows are heads and its last k rows context for the next
    chunk — mirrored for ``lead``."""

    def _split(b: pa.Table, starts: np.ndarray):
        first, end = group_bounds(starts, b.num_rows)
        idx = np.arange(b.num_rows)
        head, tail = idx - first < k, idx >= end - k
        return (tail, head) if lead else (head, tail)

    return _split


def tumbling_window_counts(events, *, key: str = "user_id", ts: str = "ts",
                           value: str = "value", width: str = "1D"):
    """Per-key tumbling windows → (key, window_start, n_events,
    sum_value).  No single-group sort anywhere: window assignment is a
    vectorized floor per batch, aggregation a hash groupby on the
    composite (key, window) cell (``fold_by_key``)."""
    from ..state.resources import fold_by_key

    delta = pd.Timedelta(width)

    def _assign(b: pa.Table) -> pa.Table:
        t = b.column(ts).to_pandas().dt.floor(delta)
        return pa.table({
            key: b.column(key),
            "window_start": pa.Array.from_pandas(t),
            value: b.column(value),
        })

    return fold_by_key(events, [key, "window_start"],
                       {"n_events": "count", "sum_value": ("sum", value)}, _assign)


def session_windows(events, *, key: str = "user_id", ts: str = "ts",
                    gap: str = "30min",
                    pre_split_chunk: str | None = "auto"):
    """Sessionize per key: a new session starts when the gap since the
    previous event exceeds ``gap`` → (key, session_start, session_end,
    n_events).

    Default: one group per key (all the key's events sort in one
    reducer).  ``pre_split_chunk`` (e.g. "1D", must be ≫ gap) switches
    to the hot-key-safe two-level plan: per-(key, time-chunk)
    sessionize, then a per-key merge over the much smaller session
    table."""
    from ..state.resources import by_key

    delta = pd.Timedelta(gap).to_timedelta64()
    pre_split_chunk = _resolve_chunk(events, key, ts, pre_split_chunk,
                                     min_width=2 * pd.Timedelta(gap))

    def _runs(start: str, end: str, n_events: str | None):
        # a run ends where the next start is > gap past the max end so
        # far in its key (for events start == end, so this is the plain
        # ts diff): one block kernel, the runs' starts feed reduceat
        def _kernel(b: pa.Table, starts: np.ndarray) -> pa.Table:
            s, e = b.column(start).to_numpy(), b.column(end).to_numpy()
            # the max end so far per key: a cummax over (key, rank of end)
            u = np.unique(e)
            lift = group_of(starts, b.num_rows) * len(u)
            top = u[np.maximum.accumulate(np.searchsorted(u, e) + lift) - lift]
            new = np.zeros(b.num_rows, bool)
            new[1:] = (s[1:] - top[:-1]) > delta
            new[starts] = True
            runs = np.flatnonzero(new)
            n = (np.add.reduceat(b.column(n_events).to_numpy(), runs) if n_events
                 else np.diff(np.append(runs, b.num_rows)))
            return pa.table({
                key: b.column(key).take(runs),
                "session_start": pa.array(np.minimum.reduceat(s, runs),
                                          b.schema.field(start).type),
                "session_end": pa.array(np.maximum.reduceat(e, runs),
                                        b.schema.field(end).type),
                "n_events": pa.array(n, pa.int64())})

        return _kernel

    _sess = _runs(ts, ts, None)
    if pre_split_chunk is None:
        return by_key(events, [key], _sess, [ts])

    chunk = pd.Timedelta(pre_split_chunk)
    if chunk <= delta:
        raise ValueError(f"pre_split_chunk {pre_split_chunk} must exceed gap {gap}")

    # the cummax over all earlier sessions is the current run's max
    # end: every earlier run ended more than gap before it
    per_chunk = by_key(events.map_batches(_chunk_map(ts, chunk), batch_format="pyarrow"),
                       [key, "_chunk"], _sess, [ts])
    return by_key(per_chunk, [key], _runs("session_start", "session_end", "n_events"),
                  ["session_start"])


def lag_column(events, *, key: str = "user_id", ts: str = "ts",
               value: str = "value", n: int = 1, out: str | None = None,
               lead: bool = False,
               pre_split_chunk: str | None = "auto"):
    """Per-key LAG/LEAD: attach each row's value from ``n`` events
    earlier (``lead=True``: later) in (ts, event_id) order — SQL
    ``LAG(value, n) OVER (PARTITION BY key ORDER BY ts)``.  Null where
    no such event exists.

    Default: one group per key.  ``pre_split_chunk`` (e.g. "1D")
    switches to the shared two-level plan (``_context_plan``): rows
    with ≥ n in-chunk predecessors (successors for lead) settle in the
    per-(key, chunk) pass; each chunk's boundary n rows become
    context, and the per-key fix-up touches only O(#chunks × n)
    rows."""
    out = out or (f"lead_{value}" if lead else f"lag_{value}")
    shift = -n if lead else n
    pre_split_chunk = _resolve_chunk(events, key, ts, pre_split_chunk)

    def _lag(b: pa.Table, starts: np.ndarray) -> pa.Table:
        first, end = group_bounds(starts, b.num_rows)
        src = np.arange(b.num_rows) - shift
        return _set(b, out, _gather(b.column(value),
                                    np.where((src >= first) & (src < end), src, -1)))

    if pre_split_chunk is None:
        return _per_key(events, key, ts, _lag)
    return _context_plan(events, key, ts, pd.Timedelta(pre_split_chunk),
                         _lag, _row_split(n, lead))


def sliding_window_mean(events, *, key: str = "user_id", ts: str = "ts",
                        value: str = "value", window: int = 3,
                        pre_split_chunk: str | None = "auto"):
    """Per-key trailing N-event rolling mean (order: ts, then event_id
    if present — deterministic) → original rows + ``rolling_mean``.

    Default: one group per key (the key's whole history sorts in one
    reducer — fine when no key is pathological).  ``pre_split_chunk``
    (e.g. "1D") switches to the shared two-level plan
    (``_context_plan``):

    1. Per ``(key, time-chunk)`` group: sort, compute the rolling mean.
       Rows with ≥ window−1 in-chunk predecessors are SETTLED (their
       window never crosses the chunk boundary).  The chunk's first
       window−1 rows are heads, its last window−1 rows context.
    2. Per ``key`` group over (heads ∪ context) only — O(#chunks ×
       window) rows per key, ≪ events: sort, recompute, keep the
       corrected heads.

    Exact: a head's window−1 predecessors span at most window−1
    chunks back, and from each chunk at most its window−1 most recent
    events — all present in that chunk's context tail, so the level-2
    subsequence contains every true predecessor and no impostor
    between them (any event time-between two of the last window−1
    events IS one of them).

    The mean is a direct sum of each row's window terms (no running
    difference to lose precision), so a block costs O(rows × window).
    """
    pre_split_chunk = _resolve_chunk(events, key, ts, pre_split_chunk)

    def _roll(b: pa.Table, starts: np.ndarray) -> pa.Table:
        # a masked sum of the window's terms, oldest first; null values
        # are skipped, a frame of nulls only is null (min_periods=1)
        first, _ = group_bounds(starts, b.num_rows)
        v = _floats(b, value)
        total, count = np.zeros(b.num_rows), np.zeros(b.num_rows)
        for lag in range(window - 1, -1, -1):
            src = np.arange(b.num_rows) - lag
            term = np.where(src >= first, v[np.maximum(src, 0)], np.nan)
            ok = ~np.isnan(term)
            total += np.where(ok, term, 0.0)
            count += ok
        mean = np.where(count > 0, total / np.maximum(count, 1), np.nan)
        return _set(b, "rolling_mean", pa.array(mean, from_pandas=True))

    if pre_split_chunk is None:
        return _per_key(events, key, ts, _roll)
    return _context_plan(events, key, ts, pd.Timedelta(pre_split_chunk),
                         _roll, _row_split(window - 1))


def cumulative_sum(events, *, key: str = "user_id", ts: str = "ts",
                   value: str = "value", out: str = "cum_value",
                   pre_split_chunk: str | None = "auto"):
    """Per-key running total in (ts, event_id) order — SQL
    ``SUM(value) OVER (PARTITION BY key ORDER BY ts)``: null values
    are skipped, and the total is null until the first non-null one.

    Default: one group per key (in-memory sort + running sum).
    ``pre_split_chunk`` (e.g. "1D") switches to the hot-key-safe
    ``_carry_plan`` — every row settles with ONE additive carry: all
    rows are heads, a chunk's carry-out is its total (its last row's
    running sum), and its carry-in, the running sum of the earlier
    chunks' totals, adds to each row's within-chunk running sum.

    Exact for float64 up to addition reassociation ACROSS chunks (the
    carry is added as one term instead of element-wise); within a
    chunk the accumulation order matches the single-group path.
    """
    pre_split_chunk = _resolve_chunk(events, key, ts, pre_split_chunk)

    def _cum(b: pa.Table, starts: np.ndarray) -> pa.Table:
        return _set(b, out, pa.array(_running_sum(_floats(b, value), starts),
                                     from_pandas=True))

    if pre_split_chunk is None:
        return _per_key(events, key, ts, _cum)

    def _level1(b: pa.Table, starts: np.ndarray) -> pa.Table:
        # every row is a head; each group's last row is its carry row
        last = np.append(starts[1:], b.num_rows) - 1
        role = np.repeat(np.array(["head", "carry"]), [b.num_rows, len(last)])
        return (_cum(b, starts).take(np.concatenate([np.arange(b.num_rows), last]))
                .append_column("_role", pa.array(role)))

    def _scan(c: pa.Table, starts: np.ndarray) -> pa.Table:
        # each chunk's carry-in: the running sum of the earlier chunks'
        # totals (a key's first chunk gets null)
        first, _ = group_bounds(starts, c.num_rows)
        prev = np.arange(c.num_rows) - 1
        total = np.where(prev >= first, _floats(c, out)[np.maximum(prev, 0)], np.nan)
        return pa.table({key: c.column(key), "_chunk": c.column("_chunk"),
                         "_carry": pa.array(_running_sum(total, starts), from_pandas=True)})

    def _apply(b: pa.Table) -> pa.Table:
        own, carry = (pc.cast(b.column(c), pa.float64()) for c in (out, "_carry"))
        fixed = pc.if_else(pc.is_null(own), carry,
                           pc.add(own, pc.coalesce(carry, 0.0)))
        return (b.set_column(b.schema.get_field_index(out), out, fixed)
                .drop_columns(["_carry"]))

    return _carry_plan(events, key, ts, pd.Timedelta(pre_split_chunk),
                       _level1, _scan, _apply)


def time_range_sum(events, *, key: str = "user_id", ts: str = "ts",
                   value: str = "value", width: str = "1h",
                   out: str = "range_sum",
                   pre_split_chunk: str | None = "auto"):
    """Per-key TIME-RANGE rolling sum — SQL ``SUM(value) OVER
    (PARTITION BY key ORDER BY ts RANGE BETWEEN INTERVAL width
    PRECEDING AND CURRENT ROW)``: each row sums every row of its key
    with ``ts ∈ [row.ts − width, row.ts]`` (inclusive both ends; rows
    sharing the exact ts are peers and all included, per SQL RANGE
    semantics — ties need no tiebreak column).  Null values are
    skipped; a row whose frame holds no non-null value gets null.

    Default ``"auto"`` probes for hot keys (min chunk width = 16 × the
    window width).  The chunked plan is the shared ``_context_plan``
    with time slices instead of row counts: rows further than
    ``width`` from their chunk's start settle in the per-(key, chunk)
    pass; each chunk's trailing ``width`` of rows is context; the
    per-key fix-up recomputes only the heads over (heads ∪ context).
    Exact because a head's window spans at most one chunk back when
    chunk ≥ width (enforced)."""
    wid = pd.Timedelta(width)

    def _rsum(b: pa.Table, starts: np.ndarray) -> pa.Table:
        # per group: the frame [lo, hi) of every row by one searchsorted
        # over a (group, rank of ts) composite, summed as the difference
        # of two running sums (each starting at the group, as a plain
        # cumsum per group would)
        first, _ = group_bounds(starts, b.num_rows)
        t = b.column(ts).to_numpy()
        v = _floats(b, value)
        ok = ~np.isnan(v)  # nulls skip, as in _running_sum
        cs = _running(np.where(ok, v, 0.0), starts)
        cn = _running(ok.astype(np.int64), starts)
        u = np.unique(t)
        lift = group_of(starts, b.num_rows) * (len(u) + 1)
        at = np.searchsorted(u, t) + lift
        back = np.searchsorted(u, t - wid.to_timedelta64(), side="left")
        lo = np.searchsorted(at, back + lift, side="left")
        hi = np.searchsorted(at, at, side="right")  # include ts peers

        def upto(k, run):  # the group's running value before row k
            return np.where(k > first, run[np.maximum(k - 1, 0)], 0)

        n = upto(hi, cn) - upto(lo, cn)
        got = np.where(n > 0, upto(hi, cs) - upto(lo, cs), np.nan)
        return _set(b, out, pa.array(got, from_pandas=True))

    # auto: a chunk must be MUCH wider than the window or the
    # boundary set (fraction ~2*width/chunk of every key's rows) eats
    # the gain — min 16x; the probe's span/2 guard then falls back to
    # the single-group plan when the window is wide relative to the
    # data's time span (chunking cannot help there)
    pre_split_chunk = _resolve_chunk(events, key, ts, pre_split_chunk,
                                     min_width=16 * wid)
    if pre_split_chunk is None:
        return _per_key(events, key, ts, _rsum)

    chunk = pd.Timedelta(pre_split_chunk)
    if chunk < wid:
        raise ValueError(
            f"pre_split_chunk {pre_split_chunk} must be >= width {width}")

    def _split(b: pa.Table, starts: np.ndarray):
        t, start = b.column(ts).to_numpy(), b.column("_chunk").to_numpy()
        # heads: window may cross back; ctx: the next chunk's deps
        return ((t - start) < wid.to_timedelta64(),
                t >= start + (chunk - wid).to_timedelta64())

    return _context_plan(events, key, ts, chunk, _rsum, _split)
