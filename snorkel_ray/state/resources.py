"""Broadcast-state stages and actor-pool sizing against the live Ray
session.

``stateful_map`` is the one place a broadcast-state stage (alias
index, LF set, compiled patterns, a parser model) is run either on
elastic tasks — the default, because a pool caps everything fused into
it (CLAUDE.md rule 2) — or, with ``concurrency`` set, as an actor pool.

``block_tasks`` is the one walk of a Dataset's blocks with plain Ray
tasks: a small per-block statistic of a pinned Dataset then costs no
Ray Data job (CLAUDE.md perf rule 7).

``fold_blocks`` runs every keyless partial aggregate on that walk: a
partial per block, merged on the driver in block order.
``combine_by_key`` / ``fold_by_key`` are the keyed half: one Arrow
``group_by`` per block, merged by one Ray Data ``groupby``.

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


def combine_by_key(ds, keys: list[str], aggs: dict[str, str], cols=None):
    """The per-block step of a keyed decomposable aggregate (SUDAF's
    accumulate): every block becomes ``cols(block)`` (default: the
    ``keys`` and ``aggs`` columns as they are), then one Arrow
    ``group_by(keys)`` with ``aggs`` — output column → ``"sum"``,
    ``"min"`` or ``"max"`` of that column; ``{}`` keeps the distinct
    keys.  A count is the sum of a column of ones.  The columns come
    out keys first, then ``aggs`` in order, so each block ships one row
    per distinct key to whatever shuffle follows.  A null key is a
    group of its own (SQL ``GROUP BY``; Ray 2.49's sort-based merge
    raises on a null STRING key once it samples partition boundaries,
    so filter those in ``cols`` where they can occur); a float NaN
    stays NaN."""
    if set(aggs.values()) - {"sum", "min", "max"}:
        raise ValueError(f"keyed ops are sum, min and max, got {aggs}")
    keys = list(keys)
    names = [*keys, *(f"{c}_{op}" for c, op in aggs.items())]

    def _combine(b):
        t = cols(b) if cols is not None else b.select([*keys, *aggs])
        g = t.group_by(keys, use_threads=False).aggregate(list(aggs.items()))
        return g.select(names).rename_columns([*keys, *aggs])

    return ds.map_batches(_combine, batch_format="pyarrow")


def fold_by_key(ds, keys: list[str], aggs: dict[str, str], cols=None):
    """A keyed decomposable aggregate: :func:`combine_by_key`, then one
    ``groupby(keys)`` that merges the block partials with the same op
    (SUDAF's merge) → keys, then ``aggs`` in order.  ``{}`` is
    ``SELECT DISTINCT keys``.  Ray's ``Sum``/``Min``/``Max`` skip a NaN
    partial as if it were null, so where a value can be NaN, ``cols``
    decides what it adds (the result would depend on the blocks)."""
    from ray.data.aggregate import Count, Max, Min, Sum

    merge = {"sum": Sum, "min": Min, "max": Max}
    grouped = combine_by_key(ds, keys, aggs, cols).groupby(list(keys))
    if not aggs:
        return grouped.aggregate(Count(alias_name="_fold_n")) \
            .drop_columns(["_fold_n"])
    return grouped.aggregate(*[merge[op](c, alias_name=c)
                               for c, op in aggs.items()])
