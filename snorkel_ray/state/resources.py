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
per-key ordered ops of ``stages/windows.py`` and the as-of join.

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
def _fold_task():
    import ray

    return ray.remote(_fold_block)


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
    for ref in block_tasks(ds, _fold_task(), fn):
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
    g = _sql_keys(t, keys).group_by(keys, use_threads=False).aggregate(list(specs.values()))
    cols = [g.column(k) for k in keys]
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


def by_key(ds, keys: list[str], kernel, order=()):
    """Every row of a key in one block, in (``keys``, ``order``) order:
    ``kernel(block, starts)`` runs once per block of the sorted
    ``ds`` (``batch_size=None``), and ``starts`` holds the positions
    of the block's group starts (a numpy array, ``0`` first).  A
    kernel evaluates every group of its block at once over those
    segments (segmented numpy or Arrow, never pandas per group) and
    returns a ``pyarrow.Table``.

    ``sort`` on the ``_sort_pair`` columns of ``keys`` (appended for
    the shuffle only) puts every row of a key into one block, the
    guarantee Ray's own ``map_groups`` relies on; a null key is a
    group of its own, and so is NaN.  With ``order`` (column names,
    ascending, nulls last; a name the block lacks is skipped) every
    block is sorted again in place on (keys, ``order``).  Arrow's sorts
    are stable and Ray's reduce step concatenates the map outputs in
    the order the sort received its input blocks, so rows that tie on
    both reach ``kernel`` in the order they arrived.

    Ray 2.49's ``map_batches`` passes an empty block on without calling
    its UDF, so ``kernel`` never sees one, and the column-less empty
    block the sort emits for an empty range partition reaches the
    output as it is (Ray logs it as a schema change); every block with
    rows carries the kernel's schema."""
    import numpy as np
    import pyarrow.compute as pc

    keys, order = list(keys), list(order)
    names = [f"_sort{i}_{p}" for i in range(len(keys)) for p in ("flag", "val")]

    def _with_sort(b):
        for name, col in zip(names, (c for k in keys for c in _sort_pair(b.column(k)))):
            b = b.append_column(name, col)
        return b

    def _run(b):
        if order:
            by = [*names, *(c for c in order if c in b.column_names)]
            b = b.take(pc.sort_indices(b, sort_keys=[(c, "ascending") for c in by]))
        new = np.zeros(b.num_rows, bool)
        new[:1] = True
        for name in names:
            col = b.column(name)
            new[1:] |= pc.not_equal(col.slice(1), col.slice(0, len(col) - 1)) \
                .to_numpy(zero_copy_only=False)
        return kernel(b.drop_columns(names), np.flatnonzero(new))

    return (ds.map_batches(_with_sort, batch_format="pyarrow").sort(names)
            .map_batches(_run, batch_format="pyarrow", batch_size=None))


def fold_by_key(ds, keys: list[str], aggs: dict, cols=None):
    """A keyed decomposable aggregate: :func:`combine_by_key`, then the
    one keyed merge, ``by_key`` with the same Arrow ``group_by``
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
        return by_key(combine_by_key(ds, keys, aggs, cols), keys,
                      lambda b, starts: _merge(b))
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

    ranks = _sql_keys(keys, keys.column_names).take(order) \
        .append_column("_rank", pa.array(np.arange(len(order)))) \
        .group_by(keys.column_names, use_threads=False).aggregate([("_rank", "list")]) \
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

    return by_key(ds.map_batches(_top, batch_format="pyarrow"), keys,
                  lambda b, starts: _top(b))
