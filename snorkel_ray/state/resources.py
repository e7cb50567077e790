"""Broadcast-state stages and actor-pool sizing against the live Ray
session.

``stateful_map`` is the one place a broadcast-state stage (alias
index, LF set, compiled patterns, a parser model) is run either on
elastic tasks — the default, because a pool caps everything fused into
it (CLAUDE.md rule 2) — or, with ``concurrency`` set, as an actor pool.

``block_tasks`` is the one walk of a Dataset's blocks with plain Ray
tasks: a small per-block statistic of a pinned Dataset then costs no
Ray Data job (CLAUDE.md perf rule 7).

Every aggregate runs on one of three folds (SUDAF's accumulate +
merge); nothing outside this module calls Ray's own ``aggregate``.
``fold_blocks`` runs every keyless partial aggregate on that walk: a
partial per block, merged on the driver in block order.
``combine_by_key`` / ``fold_by_key`` are the keyed half: one Arrow
``group_by`` per block with every aggregate of a query at once (sum,
min, max, ``COUNT(*)``, mean; rollup's ``{out: (op, source)}`` spec),
merged by the same ``group_by`` over ``by_key``, the one keyed sort
(every row of a key in one block, then one vectorized kernel per
block over the block's group starts).  ``top_by_key`` merges its Arrow
first-k-per-group kernel (``first_rows``) there too, and so do the
per-key ordered ops of ``stages/windows.py``, the as-of join and
``join_by_key``, the one equi-join (both sides in one ``by_key``).

``by_key`` is a shuffle of plain Ray tasks, not a Ray Data ``sort``:
a map task per block (on the ``block_tasks`` walk; the folds run their
per-block step there), P reduce partitions with P = ceil(map-output
bytes / ``DataContext.target_max_block_size``) placed by sampled
boundaries, and one reduce task per non-empty partition that runs the
kernel.  Its result is eager and every block of it carries the
kernel's schema (no column-less empty block).

A pooled stage that reserves every CPU starves the task-based stages
(reads, stateless maps) — on a 4-CPU test session two pools at min=2
deadlock the whole pipeline (observed; the streaming executor does not
reclaim pre-started pool actors).  Rule: each pool gets at most
``frac`` of session CPUs, min 1, and pools always leave ≥1 CPU free
for task operators (``pool_concurrency``).
"""

from __future__ import annotations

import functools

_CACHE_CAP = 4


def broadcast_key(obj) -> str:
    """Stable cache key for a broadcast object held in a worker-process
    instance cache.  ObjectRefs key by their (globally unique) hex; bare
    objects key by a CONTENT fingerprint — ``id()`` values are reused
    after GC, so two different alias tables could collide on a
    long-lived worker and serve a stale compiled state (round-1 ADVICE).
    Broadcast payloads here are small (alias dicts, KB fact lists), so
    hashing them is cheap relative to the state build they gate."""
    import hashlib

    if obj is None:
        return "none"
    if hasattr(obj, "hex"):  # ray.ObjectRef
        return obj.hex()
    h = hashlib.blake2b(digest_size=16)
    try:
        import pyarrow as pa

        if isinstance(obj, pa.Table):
            h.update(str(obj.schema).encode())
            # combine_chunks first: Array.buffers() returns the PARENT
            # buffers and ignores slice offset/length, so two different
            # slices of one table would otherwise hash identically and
            # cross-serve cached state (round-4 review); after combine
            # the arrays are re-materialized with offset 0
            for batch in obj.combine_chunks().to_batches():
                for col in batch.columns:
                    h.update(f"{col.offset}:{len(col)}".encode())
                    for buf in col.buffers():
                        if buf is not None:
                            h.update(buf)
            return "pa:" + h.hexdigest()
    except ImportError:
        pass
    h.update(repr(obj).encode())
    return "py:" + h.hexdigest()


def pool_concurrency(frac: float = 0.25) -> tuple[int, int]:
    """(min, max) actor-pool size for one stage: max = frac × session
    CPUs clamped to [1, cpus - 1]; min = half of max so pools ramp
    immediately on big sessions (autoscale-from-1 wastes seconds of a
    short job) while a 4-CPU session still floors at 1."""
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    except Exception:
        cpus = 4
    hi = max(1, min(int(cpus * frac), cpus - 1))
    # NOTE: a 1-CPU session necessarily gets (1, 1) — the pool takes
    # the only CPU, so mixing a pooled stage with task stages there
    # can starve; light-state stages default to tasks precisely so a
    # pool is always an explicit caller choice
    return (max(1, hi // 2), hi)


# per-worker-process instances of ``stateful_map`` stages: one bounded
# dict per stage, so two stages keyed by the same broadcast (the
# candidate extractor and the linker both key by the alias table) never
# serve each other's callable, and one stage's churn never evicts the
# instances of the stages fused next to it
_STAGE_CACHES: dict[str, dict] = {}


def _stage_instance(stage: str, key, build):
    """This worker process's callable for (``stage``, ``key``).  It is
    module-level on purpose: cloudpickle ships a nested task function
    by value, together with a COPY of each module global it names, so
    a cache dict named inside the task closure starts empty in every
    task; a module function travels by reference and reaches the
    worker's real ``_STAGE_CACHES``.

    Each stage's cache is bounded: everything is evicted when a new key
    would exceed the cap (pipelines reuse one broadcast per stage, so
    the working set is tiny; unbounded growth across many pipelines on
    a long-lived worker is the failure mode)."""
    cache = _STAGE_CACHES.setdefault(stage, {})
    inst = cache.get(key)
    if inst is None:
        if len(cache) >= _CACHE_CAP:
            cache.clear()
        inst = cache[key] = build()
    return inst


class _Pooled:
    """Actor-pool form of ``stateful_map``: ``build()`` runs once per
    actor."""

    def __init__(self, build):
        self.fn = build()

    def __call__(self, batch):
        return self.fn(batch)


def stateful_map(ds, build, *, key=None, concurrency=None, batch_size=None):
    """``ds.map_batches`` of the callable ``build()`` returns (pyarrow
    batches), built once per worker process (tasks, the default) or
    once per actor (``concurrency`` set: an actor pool of that size).

    ``key`` must capture everything the built state depends on besides
    the stage itself (``broadcast_key`` of a broadcast, the options);
    a worker serves one stage's callable for equal keys.  The stage
    namespace is ``build``'s qualified name, taken on the driver."""
    if concurrency is not None:
        return ds.map_batches(_Pooled, fn_constructor_args=(build,),
                              batch_format="pyarrow", batch_size=batch_size,
                              concurrency=concurrency)
    stage = f"{build.__module__}.{build.__qualname__}"

    def _task(batch):
        return _stage_instance(stage, key, build)(batch)

    return ds.map_batches(_task, batch_format="pyarrow", batch_size=batch_size)


# plain block tasks in flight at once: enough to keep the next task
# queued while the driver merges, few enough that a lazy input's blocks
# are freed as they are consumed
_IN_FLIGHT = 4


def block_tasks(ds, task, *args):
    """Yield ``task.remote(block_ref, *args)`` for every non-empty
    block of ``ds``, in block order: one plain Ray task per block, no
    Ray Data operator.

    The blocks come from ``iter_internal_ref_bundles``, so a
    materialized Dataset runs no Ray Data job at all and a lazy one
    streams through its chain once.  Each block ref is dropped once its
    task is submitted, and at most ``_IN_FLIGHT`` tasks are submitted
    ahead of the consumer, which must ``ray.get`` (part of) each
    yielded result before it asks for the next — so a lazy input pins
    nothing row-proportional."""
    from collections import deque

    pending: deque = deque()
    for bundle in ds.iter_internal_ref_bundles():
        for block_ref, meta in bundle.blocks:
            if meta.num_rows == 0:
                continue
            pending.append(task.remote(block_ref, *args))
            if len(pending) >= _IN_FLIGHT:
                yield pending.popleft()
    yield from pending


def _fold_block(block, partial):
    from ray.data.block import BlockAccessor

    return partial(BlockAccessor.for_block(block).to_arrow())


@functools.cache
def _remote(fn, num_returns: int = 1):
    """``fn`` as a plain Ray task with ``num_returns`` results."""
    import ray

    return ray.remote(num_returns=num_returns)(fn)


def fold_blocks(ds, partial, merge, acc):
    """A keyless decomposable aggregate of ``ds`` (SUDAF's accumulate +
    merge): ``partial(block)`` runs on every non-empty block as a
    ``pyarrow.Table``, one plain task per block (``block_tasks``), and
    may return any picklable object; the driver folds
    ``acc = merge(acc, result)`` in block order and returns ``acc``.

    ``partial`` is put in the object store once, so what its closure
    captures (a vocab, centroids, a gold map) ships once per call, not
    once per task.  Empty blocks are never passed to ``partial``, so
    an input with no rows returns ``acc`` unchanged."""
    import ray

    fn = ray.put(partial)
    for ref in block_tasks(ds, _remote(_fold_block), fn):
        acc = merge(acc, ray.get(ref))
    return acc


def _sql_keys(t, keys: list[str]):
    """``t`` with ``-0.0`` read as ``0.0``, and every NaN payload as one
    NaN, in every float key column: SQL groups each pair as one key,
    Arrow's ``group_by`` does not."""
    import pyarrow as pa
    import pyarrow.compute as pc

    for k in keys:
        if pa.types.is_floating(t.schema.field(k).type):
            col = t.column(k)
            t = t.set_column(t.schema.get_field_index(k), k, pc.if_else(
                pc.is_nan(col), pa.scalar(float("nan"), col.type),
                pc.add(col, pa.scalar(0.0, col.type))))
    return t


_OPS = ("sum", "min", "max", "count", "mean")


def _op(v) -> str:
    """The op of an ``aggs`` value: an op, or an (op, source) pair."""
    return v if isinstance(v, str) else v[0]


def _steps(aggs: dict, merge: bool = False) -> list[tuple]:
    """``aggs`` as ``_group`` steps (output, Arrow op, source): the
    block step, or with ``merge`` the merge of its partials.  A value
    of ``aggs`` is an op on the column of its own name, or an (op,
    source) pair.  ``count`` is ``COUNT(*)``, summed in the merge;
    ``mean`` travels as its sum and the count of valid values
    (``_n_<output>``), divided by ``_finish``."""
    steps = []
    for out, v in aggs.items():
        op, src = _op(v), (out if isinstance(v, str) else v[1])
        if op not in _OPS:
            raise ValueError(f"keyed ops are {', '.join(_OPS)}, got {v!r} for {out!r}")
        if merge:
            steps.append((out, op if op in ("min", "max") else "sum", out))
            if op == "mean":
                steps.append((f"_n_{out}", "sum", f"_n_{out}"))
        elif op == "count":
            steps.append((out, "count_all", None))
        elif op == "mean":
            steps += [(out, "sum", src), (f"_n_{out}", "count", src)]
        else:
            steps.append((out, op, src))
    return steps


def _finish(t, aggs: dict):
    """``t`` with every mean divided out of its merged (sum, count):
    float64, and NULL for a group with no valid value (SQL ``avg``)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    for out, v in aggs.items():
        if _op(v) == "mean":
            mean = pc.divide(pc.cast(t.column(out), pa.float64()),
                             pc.cast(t.column(f"_n_{out}"), pa.float64()))
            t = t.set_column(t.schema.get_field_index(out), out, mean) \
                .drop_columns([f"_n_{out}"])
    return t


def _group_by(t, keys: list[str], specs: list):
    """``t.group_by(keys).aggregate(specs)`` on SQL's keys
    (``_sql_keys``) → (the key columns, the grouped table).  Arrow 16's
    grouper splits a group that spans more than 32 rows while a key
    column holds nulls (a bool key beside an all-null float key gives
    2 groups for 33 equal rows), so a key with nulls is grouped by its
    null-free ``_sort_pair`` and read back with ``first``."""
    import pyarrow as pa

    t = _sql_keys(t, keys)
    by, picks = [], []
    for i, k in enumerate(keys):
        col = t.column(k)
        if col.null_count and not pa.types.is_null(col.type):
            for p, c in zip(("flag", "val"), _sort_pair(col)):
                by.append(f"_group{i}_{p}")
                t = t.append_column(by[-1], c)
            picks.append(f"{k}_first")
        else:
            by.append(k)
            picks.append(k)
    g = t.group_by(by, use_threads=False).aggregate(
        [*specs, *((k, "first") for k, pick in zip(keys, picks) if pick != k)])
    return [g.column(pick) for pick in picks], g


def _group(t, keys: list[str], steps: list[tuple]):
    """One Arrow ``group_by(keys)`` of ``t`` → keys, then one column
    per step (output, op, source) in order; the op is Arrow's ``sum``,
    ``min``, ``max``, ``count`` (valid values of the source) or
    ``count_all`` (rows), and a float key's ``-0.0`` is ``0.0`` and
    every NaN one NaN (``_sql_keys``).  NaN follows SQL (DuckDB), where it sorts above
    every number: a sum or max is NaN once any value is, a min only
    when every value is (Arrow's min and max skip NaN, and give ±inf
    for an all-NaN group)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    specs, picks = {}, []
    for _, op, src in steps:
        name, flag = "count_all" if op == "count_all" else f"{src}_{op}", None
        specs[name] = ([], op) if op == "count_all" else (src, op)
        if op in ("min", "max") and pa.types.is_floating(t.schema.field(src).type):
            flag_op = "any" if op == "max" else "all"
            if f"_nan_{src}" not in t.column_names:
                t = t.append_column(f"_nan_{src}", pc.is_nan(t.column(src)))
            flag = f"_nan_{src}_{flag_op}"
            specs[flag] = (f"_nan_{src}", flag_op)
        picks.append((name, flag))
    cols, g = _group_by(t, keys, list(specs.values()))
    for name, flag in picks:
        v = g.column(name)
        if flag is not None:
            v = pc.if_else(g.column(flag), pa.scalar(float("nan"), v.type), v)
        cols.append(v)
    return pa.Table.from_arrays(cols, names=[*keys, *(out for out, _, _ in steps)])


def combine_by_key(ds, keys: list[str], aggs: dict, cols=None):
    """The per-block step of a keyed decomposable aggregate (SUDAF's
    accumulate): every block becomes ``cols(block)`` (default: the
    ``keys`` and source columns as they are), then one Arrow
    ``group_by(keys)``.  ``aggs`` maps an output column to ``"sum"``,
    ``"min"``, ``"max"``, ``"count"`` (``COUNT(*)``) or ``"mean"`` of
    the column of that name, or to an (op, source) pair — rollup's
    ``{out: (op, src)}`` spec; ``{}`` keeps the distinct keys.  The
    columns come out keys first, then ``aggs`` in order (a mean as its
    partial sum, followed by its valid count ``_n_<out>``), so each
    block ships one row per distinct key to whatever shuffle follows.
    A null key is a group of its own (SQL ``GROUP BY``); NaN follows
    SQL (``_group``)."""
    return ds.map_batches(_combiner(list(keys), aggs, cols), batch_format="pyarrow")


def _combiner(keys: list[str], aggs: dict, cols):
    """``combine_by_key``'s block step as a function of one block."""
    steps = _steps(aggs)
    srcs = list(dict.fromkeys(src for _, op, src in steps if op != "count_all"))

    def _combine(b):
        return _group(cols(b) if cols is not None else b.select([*keys, *srcs]), keys, steps)

    return _combine


@functools.cache
def _any_value(t):
    """A valid scalar of Arrow type ``t`` (a zero or an empty string)
    to stand in for a null in a sort column."""
    import pyarrow as pa

    for v in (pa.scalar(0, pa.int8()), pa.scalar(0), pa.scalar(""), pa.scalar(b"")):
        try:
            return v.cast(t)
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
            pass
    raise TypeError(f"a key of type {t} cannot be sorted")


def _sort_pair(col):
    """A key column as the (flag, value) pair Ray's range partitioning
    sorts on: the flag is 0 for a value, 1 for NaN, 2 for null, and the
    value has NaN and null filled in.  Ray 2.49 compares a null string
    with a string (``TypeError``) and reads a null float as NaN, so
    sorting on the raw key can raise, or split a group of a later key
    column across blocks."""
    import pyarrow as pa
    import pyarrow.compute as pc

    flag = pc.multiply(pc.cast(pc.is_null(col), pa.int8()), pa.scalar(2, pa.int8()))
    val = col
    if pa.types.is_floating(col.type):
        nan = pc.fill_null(pc.is_nan(col), False)
        flag = pc.add(flag, pc.cast(nan, pa.int8()))
        val = pc.if_else(nan, _any_value(col.type), col)
    return flag, pc.fill_null(val, _any_value(col.type))


def _sorted(t, names: list[str], order):
    """``t`` stably sorted on ``names``, then the ``order`` columns it
    holds (ascending, nulls last)."""
    import pyarrow.compute as pc

    by = [*names, *(c for c in order if c in t.column_names)]
    return t.take(pc.sort_indices(t, sort_keys=[(c, "ascending") for c in by]))


# sort-pair rows sampled from every map output to place the partition
# boundaries; each stands for (its block's rows / its block's samples)
_SAMPLES = 64


def _keyed_map(block, keys, names, order, step):
    """``by_key``'s map step on one block: ``step`` (if any), the sort
    pairs appended, sorted on (pairs, ``order``) → (the table, (rows,
    bytes, evenly spaced sample of its pair rows, schema))."""
    import numpy as np
    from ray.data.block import BlockAccessor

    t = BlockAccessor.for_block(block).to_arrow()
    if step is not None:
        t = step(t)
    for name, col in zip(names, (c for k in keys for c in _sort_pair(t.column(k)))):
        t = t.append_column(name, col)
    t = _sorted(t, names, order)
    pick = np.unique(np.linspace(0, t.num_rows - 1, min(t.num_rows, _SAMPLES)).astype(np.int64))
    return t, (t.num_rows, t.nbytes, t.select(names).take(pick), t.schema)


def _keyed_split(t, bounds, names):
    """One sorted map output cut into ``len(bounds) + 1`` slices, then
    their row counts: a row goes to the slice of the last boundary at
    or below it (a row equal to a boundary goes right), so every map
    output cuts a key alike."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    n = len(bounds)
    both = pa.concat_tables([bounds, t.select(names)], promote_options="permissive")
    # Arrow's sort is stable: a boundary sorts before the rows equal to
    # it, and the rows of ``t`` keep their (sorted) order, so each row's
    # slice is the count of boundaries before it, non-decreasing down ``t``
    is_bound = pc.sort_indices(both, sort_keys=[(c, "ascending") for c in names]) \
        .to_numpy() < n
    cuts = np.searchsorted(np.cumsum(is_bound)[~is_bound], np.arange(n + 2))
    return (*(t.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])), np.diff(cuts))


def _keyed_reduce(kernel, names, order, *parts):
    """One partition of ``by_key``: its slices concatenated in input
    block order, sorted stably on (pairs, ``order``), ``kernel`` run
    over the group starts → (the kernel's table, its rows)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    t = parts[0] if len(parts) == 1 else \
        _sorted(pa.concat_tables(parts, promote_options="permissive"), names, order)
    new = np.zeros(t.num_rows, bool)
    new[:1] = True
    for name in names:
        col = t.column(name)
        new[1:] |= pc.not_equal(col.slice(1), col.slice(0, len(col) - 1)) \
            .to_numpy(zero_copy_only=False)
    out = kernel(t.drop_columns(names), np.flatnonzero(new))
    return out, out.num_rows


def _partitions(maps, infos, p: int, names):
    """The refs of the ``p`` key-range partitions of the sorted map
    outputs ``maps`` (each partition's slices in input block order;
    an empty partition left out), cut at ``p - 1`` boundaries placed at
    the weighted quantiles of the map outputs' (rows, bytes, sample,
    schema) ``infos``."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    samples = pa.concat_tables([s for _, _, s, _ in infos], promote_options="permissive")
    weight = np.concatenate([np.full(len(s), r / len(s)) for r, _, s, _ in infos])
    at = pc.sort_indices(samples, sort_keys=[(c, "ascending") for c in names]).to_numpy()
    cum = np.cumsum(weight[at])
    bounds = samples.take(at[np.searchsorted(cum, cum[-1] * np.arange(1, p) / p)])
    cut = [_remote(_keyed_split, p + 1).remote(t, bounds, names) for t in maps]
    sizes = np.array(ray.get([c[-1] for c in cut]))
    return [[c[i] for c, n in zip(cut, sizes[:, i]) if n]
            for i in range(p) if sizes[:, i].any()]


def group_bounds(starts, n: int):
    """Per row of a ``by_key`` block of ``n`` rows with group starts
    ``starts``: the position of its group's first row, and of the row
    after its group's last."""
    import numpy as np

    ends = np.append(starts[1:], n)
    sizes = ends - starts
    return np.repeat(starts, sizes), np.repeat(ends, sizes)


def group_of(starts, n: int):
    """Per row of a ``by_key`` block of ``n`` rows with group starts
    ``starts``: its group's index in the block."""
    import numpy as np

    return np.searchsorted(starts, np.arange(n), side="right") - 1


def by_key(ds, keys: list[str], kernel, order=(), *, _step=None):
    """Every row of a key in one block, in (``keys``, ``order``) order:
    ``kernel(block, starts)`` runs once per output block, and
    ``starts`` holds the positions of the block's group starts (a numpy
    array, ``0`` first).  A kernel evaluates every group of its block
    at once over those segments (segmented numpy or Arrow, never pandas
    per group) and returns a ``pyarrow.Table``.

    A shuffle of plain Ray tasks, no Ray Data operator (Exoshuffle's
    map → split → reduce):
    - map: one task per non-empty block (``block_tasks``) appends the
      ``_sort_pair`` columns of ``keys`` and sorts the block on (pairs,
      ``order``); only its rows, bytes and a sample of its pair rows
      reach the driver;
    - partitions: P = ceil(map-output bytes / Ray's
      ``DataContext.target_max_block_size``), at least 1 and at most
      the number of map outputs.  With P > 1 the driver places P − 1
      boundaries at the samples' weighted quantiles and one task per
      map output cuts its sorted table into P slices;
    - reduce: one task per non-empty partition concatenates its slices
      in input block order, sorts them again stably, and runs
      ``kernel`` on the block without the pair columns.

    A null key is a group of its own, and so is NaN; groups come in key
    order (value, NaN, null), within a block and across blocks.  With
    ``order`` (column names, ascending, nulls last; a name the block
    lacks is skipped) a group's rows come in that order.  Every sort is
    stable and slices are joined in input block order, so rows that tie
    on both reach ``kernel`` in the order they arrived.

    The result is eager: it is a Dataset of the reduce outputs, built
    when ``by_key`` is called.  That holds no more rows at once than
    the barrier of Ray's own sort did.  No empty partition runs a
    reduce, so ``kernel`` never sees an empty block and every output
    block carries its schema; an empty output is dropped unless all
    are (then one is kept).  An input with no rows gives an empty
    Dataset.  ``_step`` (private: the folds' per-block accumulate) runs
    on every block in the map task."""
    keys, order = list(keys), list(order)
    names = [f"_sort{i}_{p}" for i in range(len(keys)) for p in ("flag", "val")]
    return _keyed_reduces(*_keyed_maps(ds, keys, names, order, _step), kernel, names, order)


def _keyed_maps(ds, keys, names, order, step):
    """``by_key``'s map step over the blocks of ``ds`` → (the refs of its
    non-empty map outputs, their (rows, bytes, sample, schema))."""
    import ray

    step = None if step is None else ray.put(step)
    maps, infos = [], []
    for table, info in block_tasks(ds, _remote(_keyed_map, 2), keys, names, order, step):
        got = ray.get(info)
        if got[0]:
            maps.append(table)
            infos.append(got)
    return maps, infos


def _keyed_reduces(maps, infos, kernel, names, order):
    """``by_key``'s partitions and reduce over the map outputs ``maps``
    (emptied here: the object store frees each once its reader is done)."""
    import pyarrow as pa
    import ray
    import ray.data as rd
    from ray.data import DataContext

    if not maps:
        return rd.from_arrow(pa.table({}))
    size = sum(s for _, s, _, _ in infos)
    p = max(1, min(len(maps), -(-size // (DataContext.get_current().target_max_block_size or size))))
    parts = [list(maps)] if p == 1 else _partitions(maps, infos, p, names)
    maps.clear()
    fn = ray.put(kernel)
    outs = [_remote(_keyed_reduce, 2).remote(fn, names, order, *refs) for refs in parts]
    del parts
    got = ray.get([rows for _, rows in outs])
    return rd.from_arrow_refs([t for (t, _), n in zip(outs, got) if n] or [outs[0][0]])


def fold_by_key(ds, keys: list[str], aggs: dict, cols=None):
    """A keyed decomposable aggregate: :func:`combine_by_key`'s block
    step in ``by_key``'s map tasks, then the one keyed merge, ``by_key``
    with the same Arrow ``group_by``
    over the partials (SUDAF's merge: a count is summed, a mean's sum
    and count are summed, then divided) → keys, then ``aggs`` in order,
    with Ray's types (int64 counts, float64 means, a min or max in its
    source's type).  ``{}`` is ``SELECT DISTINCT keys``.  NULL and NaN
    follow SQL (DuckDB): a null value adds nothing, a sum, mean or max
    is NaN once any value is, a min only when every value is; a null
    key is a group of its own.

    With no ``keys`` it is SQL's keyless aggregate, folded on the
    driver (``fold_blocks``) into a one-row Dataset; an input with no
    rows gives that row too: a count 0, every other value NULL."""
    import pyarrow as pa

    keys = list(keys)
    steps = _steps(aggs, merge=True)

    def _merge(b):
        return _finish(_group(b, keys, steps), aggs)

    if keys:
        return by_key(ds, keys, lambda b, starts: _merge(b),
                      _step=_combiner(keys, aggs, cols))
    import ray.data as rd

    parts = fold_blocks(ds, _combiner(keys, aggs, cols), lambda acc, p: [*acc, p], [])
    return rd.from_arrow(_merge(pa.concat_tables(parts)) if parts else pa.table(
        {out: [0 if _op(v) == "count" else None] for out, v in aggs.items()}))


def first_rows(keys, order, k=1):
    """The first ``k`` rows of every distinct row of ``keys`` (a
    ``pyarrow.Table``) in ``order`` (a stable sort's indices), and per
    row its group's size, both in ``order``'s order.  ``k`` is an int
    or, per row of ``keys``, an array.  Arrow groups strings by their
    bytes (pandas factorizes an object string with an embedded NUL as
    if cut there), keeps a null key, and a NaN key, as a group of its
    own, and reads ``-0.0`` as ``0.0`` (``_sql_keys``)."""
    import numpy as np
    import pyarrow as pa

    ranks = _group_by(keys.take(order).append_column("_rank", pa.array(np.arange(len(order)))),
                      keys.column_names, [("_rank", "list")])[1] \
        .column("_rank_list").combine_chunks()
    offsets = ranks.offsets.to_numpy()
    sizes = np.diff(offsets)
    rank = ranks.flatten().to_numpy()
    # each group's ranks ascend, so a row's place in its list is its
    # place in the group
    place = np.arange(len(rank)) - np.repeat(offsets[:-1] - offsets[0], sizes)
    keep = place < (k if np.isscalar(k) else np.asarray(k)[order[rank]])
    first, n = rank[keep], np.repeat(sizes, sizes)[keep]
    by_rank = np.argsort(first)
    return order[first[by_rank]], n[by_rank]


def top_by_key(ds, keys: list[str], order: list[tuple[str, str]], k: int | str = 1):
    """The best ``k`` rows per distinct ``keys`` (SQL ``row_number()
    OVER (PARTITION BY keys ORDER BY order) <= k``), every column kept:
    ``order`` is a list of (column, ``"ascending"``/``"descending"``)
    — Arrow's sort keys, nulls last.  ``k`` is an int, or the name of
    a column that holds each key's own k.  A mergeable aggregate (SUDAF):
    the best k of a union are the best k of each part's best k, so
    every block keeps its best k per key (``first_rows``) and
    ``by_key`` picks again among those.  Rows that tie on
    ``order`` go to the one that arrived first."""
    import pyarrow.compute as pc

    keys = list(keys)

    def _top(t):
        if not t.num_rows:
            return t
        kk = k if isinstance(k, int) else t.column(k).to_numpy()
        return t.take(first_rows(t.select(keys),
                                 pc.sort_indices(t, sort_keys=order).to_numpy(), kk)[0])

    return by_key(ds, keys, lambda b, starts: _top(b), _step=_top)


_HOWS = ("inner", "left outer", "left semi", "left anti")


def arrow_schema(ds):
    """The schema of Dataset ``ds`` as a ``pyarrow.Schema`` (no columns
    when Ray knows none); a column Ray types as a Python object (a
    pandas block's) reads as a string."""
    import pyarrow as pa

    s = ds.schema()
    return pa.schema([] if s is None else [
        (n, t if isinstance(t, pa.DataType) else pa.string()) for n, t in zip(s.names, s.types)])


def join_by_key(left, right, on, right_on=None, how: str = "inner", *, _one_right=False):
    """SQL's equi-join of Datasets ``left`` and ``right`` on the columns
    ``on`` of ``left`` = ``right_on`` of ``right`` (default ``on``);
    ``how`` is ``"inner"``, ``"left outer"``, ``"left semi"`` (EXISTS)
    or ``"left anti"`` (NOT EXISTS).  The output holds the left
    columns, then (inner, left outer) the right non-key columns; a name
    on both sides raises.  A NULL key never matches; NaN matches NaN,
    as in DuckDB.

    One ``by_key`` shuffle of both sides, cut at the same sampled
    boundaries.  The map tasks tag each block (``_jside``: 0 right, 1
    left, so a group's right rows come first; a right key takes its
    left name; a NULL-keyed right row, and for inner or semi a
    NULL-keyed left row, is dropped) and report its schema (a side
    with no rows reads ``arrow_schema``).  The kernel builds every
    group's (left row, right row) index pairs in segmented numpy and
    gathers them with ``take``, so a list payload rides along (Arrow's
    own join refuses one).  ``_one_right`` (private: ``apply_mapping``)
    raises ``ValueError`` when a key has more than one right row."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    if how not in _HOWS:
        raise ValueError(f"how must be one of {', '.join(_HOWS)}, got {how!r}")
    on, right_on = ([c] if isinstance(c, str) else list(c)
                    for c in (on, on if right_on is None else right_on))
    if len(right_on) != len(on):
        raise ValueError("on and right_on must name as many columns")
    pairs = how in ("inner", "left outer")
    names = [f"_sort{i}_{p}" for i in range(len(on)) for p in ("flag", "val")]

    def _tag(t, side):
        if not side or how in ("inner", "left semi"):
            for k in on if side else right_on:
                t = t.filter(pc.is_valid(t.column(k)))
        if not side:
            pay = [c for c in t.column_names if pairs and c not in right_on]
            t = t.select([*right_on, *pay]).rename_columns([*on, *pay])
        return t.append_column("_jside", pa.array(np.full(t.num_rows, side, np.int8)))

    def _columns(infos, ds, keys):
        s = pa.unify_schemas([i[3] for i in infos], promote_options="permissive") \
            if infos else arrow_schema(ds)
        return [f for f in s if f.name not in {*names, "_jside", *keys}]

    maps, infos = _keyed_maps(left, on, names, ["_jside"], lambda t: _tag(t, 1))
    rmaps, rinfos = _keyed_maps(right, on, names, ["_jside"], lambda t: _tag(t, 0))
    lcols = _columns(infos, left, ())
    rcols = _columns(rinfos, right, on if rinfos else right_on) if pairs else []
    clash = {f.name for f in lcols} & {f.name for f in rcols}
    if clash:
        raise ValueError(f"join_by_key: columns {sorted(clash)} are on both sides")
    out = pa.schema([*lcols, *rcols])
    if not maps or not rmaps and how in ("inner", "left semi"):
        return rd.from_arrow(out.empty_table())
    maps += rmaps
    del rmaps

    def _kernel(b, starts):
        right = b.column("_jside").to_numpy() == 0
        per_group = np.add.reduceat(right.astype(np.int64), starts)
        if _one_right and per_group.max() > 1:
            raise ValueError("mapping has duplicate keys — pre-aggregate to one row per key")
        li = np.flatnonzero(~right)
        g = group_of(starts, b.num_rows)[li]
        match = per_group[g]
        if not pairs:
            lsrc = li[(match > 0) == (how == "left semi")]
        else:
            reps = match if how == "inner" else np.maximum(match, 1)
            lsrc = np.repeat(li, reps)
            at = np.arange(len(lsrc)) - np.repeat(np.cumsum(reps) - reps, reps)
            rsrc = np.where(np.repeat(match, reps) > 0, np.repeat(starts[g], reps) + at, -1)
            rsrc = pa.array(np.maximum(rsrc, 0), mask=rsrc < 0)

        def _take(f, src):
            col = b.column(f.name) if f.name in b.column_names else pa.nulls(b.num_rows, f.type)
            return col.take(src).cast(f.type)

        return pa.Table.from_arrays([*(_take(f, lsrc) for f in lcols),
                                     *(_take(f, rsrc) for f in rcols)], schema=out)

    return _keyed_reduces(maps, infos + rinfos, _kernel, names, ["_jside"])
