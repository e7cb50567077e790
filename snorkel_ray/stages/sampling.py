"""Deterministic sampling operators for large corpora.

A 100-TB pipeline needs samples that are (a) reproducible across runs
and resumes, (b) computable in one streaming pass with no shuffle, and
(c) auditable by an external system. All operators here key off a
**Knuth multiplicative hash of an integer id column**

    h(id) = ((id + seed) * 2654435761) mod 2^32

which is exactly replicable in ANSI SQL (`((id + seed) * 2654435761) %
4294967296`), so every sample is oracle-checkable — unlike RNG-based
``ds.random_sample`` whose stream depends on block boundaries.

Operators:

* :func:`hash_sample` — Bernoulli-style fraction sample (keep iff
  ``h(id) < fraction * 2^32``). One streaming filter; the same row set
  regardless of partitioning, ordering, or resume point.
* :func:`bottom_k_sample` — uniform-without-replacement fixed-size
  sample: the k rows with the smallest hash. Per-batch partial
  bottom-k + tiny driver merge — the distributed, deterministic
  equivalent of reservoir sampling (no shuffle; ships k rows/batch).
* :func:`stratified_sample` — bottom-k per group via the skew-safe
  :func:`~snorkel_ray.stages.skew.grouped_topk` plan (a hot group
  ships only k-row partials).
* :func:`split_by_hash` — deterministic train/valid/test assignment
  from hash ranges (the scale-stable version of the reference's
  random split assignment, ``snorkel/models/candidate.py`` ≈split
  field usage).

No direct reference analog beyond the split field; brief-mandated
training-data-pipeline family.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = [
    "KNUTH",
    "knuth_hash",
    "hash_sample",
    "bottom_k_sample",
    "stratified_sample",
    "split_by_hash",
]

KNUTH = 2654435761          # Knuth's multiplicative constant (2^32 / phi)
_MOD = np.uint64(1) << np.uint64(32)


def knuth_hash(ids: np.ndarray, seed: int = 0) -> np.ndarray:
    """((id + seed) * 2654435761) mod 2^32 as uint64 — SQL-replicable
    and exact for any NON-NEGATIVE int64 id (the product is taken mod
    2^64 first, which equals the mathematical product mod 2^32 after
    the final reduction).  Negative ids are rejected: numpy's uint64
    wrap yields the non-negative residue while SQL ``%`` returns a
    negative remainder, so the oracle replica would silently select a
    different row set (round-4 review)."""
    x = np.asarray(ids)
    if np.issubdtype(x.dtype, np.signedinteger) and len(x) and x.min() < 0:
        raise ValueError("knuth_hash: negative ids are not supported "
                         "(the documented SQL replica diverges there)")
    x = x.astype(np.uint64)
    with np.errstate(over="ignore"):
        x = (x + np.uint64(seed)) * np.uint64(KNUTH)
    return x % _MOD


def hash_sample(ds, id_col: str, fraction: float, *, seed: int = 0):
    """Deterministic fraction sample: keep iff
    ``knuth_hash(id) < fraction * 2^32``. Streaming filter, no state.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0,1], got {fraction}")
    threshold = np.uint64(int(fraction * float(_MOD)))

    def _keep(b: pa.Table) -> pa.Table:
        h = knuth_hash(np.asarray(b.column(id_col)), seed)
        return b.filter(pa.array(h < threshold))

    return ds.map_batches(_keep, batch_format="pyarrow")


def bottom_k_sample(ds, id_col: str, k: int, *, seed: int = 0) -> pa.Table:
    """The k rows with the smallest ``(hash, id)`` — a uniform
    without-replacement sample, identical no matter how the data is
    partitioned. Per-block partial bottom-k, then a driver merge over
    ≤ k rows per block (``state.resources.fold_blocks``; the same
    partial-top-k shape as ``similarity.brute_force_topk``). Returns an
    in-memory ``pyarrow.Table`` (a sample is small by definition); on
    an input with no rows, its columns with no rows."""
    from ..state.resources import arrow_schema, fold_blocks

    def _take_k(t: pa.Table) -> pa.Table:
        h = np.asarray(t.column("_h"))
        ids = np.asarray(t.column(id_col))
        order = np.lexsort((ids, h))[:k]
        return t.take(pa.array(order))

    def _partial(b: pa.Table) -> pa.Table:
        h = knuth_hash(np.asarray(b.column(id_col)), seed)
        return _take_k(b.append_column("_h", pa.array(h, pa.uint64())))

    def _merge(buf: pa.Table | None, b: pa.Table) -> pa.Table:
        buf = b if buf is None else pa.concat_tables([buf, b])
        # compact: never hold > 4k+k rows
        return _take_k(buf) if buf.num_rows > 4 * k else buf

    buf = fold_blocks(ds, _partial, _merge, None)
    if buf is None:  # no rows: the input's columns with none of its rows
        return arrow_schema(ds).empty_table()
    return _take_k(buf).drop_columns(["_h"])


def stratified_sample(ds, group_col: str, id_col: str, k_per_group: int,
                      *, seed: int = 0):
    """Bottom-k-by-hash per group: a deterministic stratified sample
    with exactly ``min(k, group_size)`` rows per group. Skew-safe via
    :func:`~snorkel_ray.stages.skew.grouped_topk` (per-batch partials;
    a hot group never lands whole in one reducer). Returns a Dataset
    with the ``_h`` hash column dropped."""
    from .skew import grouped_topk

    def _hash(b: pa.Table) -> pa.Table:
        h = knuth_hash(np.asarray(b.column(id_col)), seed)
        return b.append_column("_h", pa.array(h, pa.uint64()))

    hashed = ds.map_batches(_hash, batch_format="pyarrow")
    top = grouped_topk(hashed, group_col, ["_h", id_col],
                       descending=[False, False], k=k_per_group)

    def _drop(b: pa.Table) -> pa.Table:
        return b.drop_columns(["_h"])

    return top.map_batches(_drop, batch_format="pyarrow")


def split_by_hash(ds, id_col: str, fractions: dict[str, float],
                  *, seed: int = 0, split_col: str = "split"):
    """Append a deterministic split label: the hash range [0, 2^32) is
    carved into consecutive intervals sized by ``fractions`` (must sum
    to 1). Every row gets exactly one label, stable across runs,
    partitionings, and resumes."""
    names = list(fractions)
    fracs = np.array([fractions[n] for n in names], dtype=np.float64)
    if fracs.min() < 0 or abs(fracs.sum() - 1.0) > 1e-9:
        raise ValueError("fractions must be non-negative and sum to 1")
    bounds = np.floor(np.cumsum(fracs) * float(_MOD)).astype(np.uint64)
    bounds[-1] = _MOD  # close the last interval exactly

    def _assign(b: pa.Table) -> pa.Table:
        h = knuth_hash(np.asarray(b.column(id_col)), seed)
        idx = np.searchsorted(bounds, h, side="right")
        labels = np.asarray(names, dtype=object)[idx]
        return b.append_column(split_col,
                               pa.array(labels.tolist(), pa.string()))

    return ds.map_batches(_assign, batch_format="pyarrow")


def pack_documents(ds, *, column: str = "text", token_budget: int = 2048,
                   id_column: str = "doc_id", count_tokens=None):
    """Sequence packing for pretraining batches: greedily first-fit
    documents into packs of ≤ ``token_budget`` whitespace tokens
    (pass ``count_tokens`` for a real tokenizer's counts), appending
    ``n_tokens`` / ``pack_id`` / ``pack_slot`` columns.

    Packing is PER BLOCK on purpose: a globally optimal bin packing is
    NP-hard and needs a global shuffle, while per-block greedy first-fit
    wastes only O(1/blocks) of the budget at corpus scale and keeps the
    operator a streaming map.  ``pack_id`` is globally unique and
    deterministic (block content hash + local pack index), so re-runs
    and lineage reconstruction produce identical assignments.
    Documents longer than the budget get a singleton pack (truncation
    is the trainer's policy decision, not the packer's).
    """
    import hashlib

    if count_tokens is None:
        def count_tokens(t: str) -> int:
            return len(t.split()) if t else 0

    def _pack(b: pa.Table) -> pa.Table:
        texts = b.column(column).to_pylist()
        n_tok = np.fromiter((count_tokens(t) for t in texts),
                            dtype=np.int64, count=len(texts))
        ids = b.column(id_column).to_pylist()
        tag = hashlib.blake2b(
            ("\x1f".join(str(i) for i in ids)).encode(),
            digest_size=8).hexdigest()
        # greedy first-fit decreasing over open bins (bounded: bins
        # close once they cannot fit the smallest remaining doc)
        order = np.argsort(-n_tok, kind="stable")
        bins: list[int] = []        # remaining capacity per open pack
        assign = np.zeros(len(texts), dtype=np.int64)
        slot = np.zeros(len(texts), dtype=np.int32)
        counts: list[int] = []
        for i in order:
            need = int(n_tok[i])
            placed = False
            for p, cap in enumerate(bins):
                if need <= cap:
                    bins[p] = cap - need
                    assign[i] = p
                    slot[i] = counts[p]
                    counts[p] += 1
                    placed = True
                    break
            if not placed:
                bins.append(max(token_budget - need, 0))
                counts.append(1)
                assign[i] = len(bins) - 1
                slot[i] = 0
        pack_ids = [f"{tag}:{p}" for p in assign]
        return (b.append_column("n_tokens", pa.array(n_tok, pa.int64()))
                .append_column("pack_id", pa.array(pack_ids, pa.string()))
                .append_column("pack_slot", pa.array(slot, pa.int32())))

    return ds.map_batches(_pack, batch_format="pyarrow")


def proportional_sample(ds, key: str, id_col: str,
                        targets: dict[str, int], *, seed: int = 0):
    """Data-mixing sampler (domain re-weighting for pretraining): keep
    EXACTLY ``targets[key]`` rows per key — the per-key bottom-k by
    ``(knuth_hash(id), id)``, so the draw is uniform within a key,
    without replacement, deterministic, partition-invariant, and
    SQL-replicable (``row_number() OVER (PARTITION BY key ORDER BY
    hash, id) <= k``).  Keys absent from ``targets`` are dropped; a
    target larger than the key's population keeps every row.

    Plan (skew-safe): ``resources.top_by_key`` with each key's target
    as its k — every block keeps its per-key bottom-k (a hot key ships
    ≤ k rows per block, never its population), one sort merges them.
    Compose with a counts groupby upstream to derive ``targets`` from
    fractions.
    """
    import pyarrow.compute as pc

    from ..state.resources import top_by_key

    names = pa.array(list(targets))
    ks = pa.array([int(v) for v in targets.values()], pa.int64())

    def _ranked(b: pa.Table) -> pa.Table:
        idx = pc.index_in(b.column(key), value_set=names.cast(b.schema.field(key).type))
        keep = pc.is_valid(idx)
        b = b.filter(keep)
        return (b.append_column("_h", pa.array(knuth_hash(np.asarray(b.column(id_col)), seed),
                                               pa.uint64()))
                .append_column("_k", ks.take(idx.filter(keep))))

    return top_by_key(ds.map_batches(_ranked, batch_format="pyarrow"), [key],
                      [("_h", "ascending"), (id_col, "ascending")], "_k") \
        .drop_columns(["_h", "_k"])
