"""Benchmark decontamination for LLM training corpora.

A training-data pipeline must drop (or at least flag) documents that
overlap a held-out evaluation set, or downstream benchmark numbers are
meaningless. The standard public recipe (GPT-3 appendix C, PaLM,
Llama: word n-gram overlap) has two sides:

  eval side  -> the benchmark documents (small by construction: at
                most thousands of docs / MBs) -> their word n-grams
  train side -> flag every document sharing >= ``min_hits`` n-grams

Scale shape (100 TB train corpus, MB-scale eval set):

- The EVAL side is derived once, distributed, and then broadcast with
  ``ray.put`` — one object-store copy read zero-copy by every task,
  never re-shipped per batch.
- The TRAIN side is a single streaming ``map_batches`` pass: no
  shuffle, no materialization, trivially resumable.
- Three membership structures, by eval-set size:
    * ``needles``  — raw n-gram strings, substring containment
      (``pyarrow.compute.match_substring`` per needle). Exact and
      SQL-checkable; right for <= ~1k needles.
    * ``hash_set`` — sorted uint64 n-gram hashes, ``searchsorted``
      membership. Exact w.r.t. the tokenizer; right up to ~10^8
      n-grams (800 MB broadcast).
    * ``bloom``    — :class:`BloomFilter` over the hashes: ``m`` bits
      bound the broadcast no matter the eval size, with a quantified
      false-POSITIVE rate (never false negatives — over-flagging is
      the safe direction for decontamination).

The hash/bloom paths share dedup's batch-vectorized shingling
(one blake2b per distinct word per batch), so train-side tokenization
is identical to the near-dup operators'.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from snorkel_ray.stages.dedup import _shingle_hashes_batch

__all__ = [
    "BloomFilter",
    "collect_eval_ngrams",
    "eval_ngram_hashes",
    "build_eval_bloom",
    "flag_contaminated",
    "decontaminate",
]


# ---------------------------------------------------------------------------
# Bloom filter over uint64 n-gram hashes
# ---------------------------------------------------------------------------

def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain constants)."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return x


class BloomFilter:
    """Mergeable Bloom filter over uint64 item hashes.

    Sized from ``(n_items, fpp)`` with the standard optimal formulas
    ``m = -n ln p / (ln 2)^2`` and ``k = (m/n) ln 2``. The ``k`` probe
    positions are derived double-hashing-style from two splitmix64
    mixes of the item hash — fully vectorized, no Python loop per item.

    Membership can produce false positives (rate ~``fpp``) but never
    false negatives, so decontamination built on it over-flags and
    never silently keeps a contaminated document.

    Merge is bitwise OR, which makes per-batch partial filters a valid
    distributed build (see :func:`build_eval_bloom`).
    """

    def __init__(self, n_items: int, fpp: float = 1e-3, *, _bits=None):
        if _bits is not None:
            self.bits = _bits
            self.k = max(1, int(round((_bits.size * 64 / max(n_items, 1))
                                      * np.log(2))))
            self.m = _bits.size * 64
            return
        n_items = max(int(n_items), 1)
        m = int(np.ceil(-n_items * np.log(fpp) / (np.log(2) ** 2)))
        m = max(64, ((m + 63) // 64) * 64)
        self.m = m
        self.k = max(1, int(round((m / n_items) * np.log(2))))
        self.bits = np.zeros(m // 64, dtype=np.uint64)

    def _positions(self, hashes: np.ndarray) -> np.ndarray:
        """(len(hashes), k) bit positions via double hashing."""
        h = np.asarray(hashes, dtype=np.uint64)
        h1 = _splitmix64(h)
        h2 = _splitmix64(h ^ np.uint64(0xA5A5A5A5A5A5A5A5)) | np.uint64(1)
        ks = np.arange(self.k, dtype=np.uint64)
        with np.errstate(over="ignore"):
            pos = h1[:, None] + ks[None, :] * h2[:, None]
        return (pos % np.uint64(self.m)).astype(np.uint64)

    def add_hashes(self, hashes: np.ndarray) -> None:
        if len(hashes) == 0:
            return
        pos = self._positions(hashes).ravel()
        word, bit = pos >> np.uint64(6), pos & np.uint64(63)
        np.bitwise_or.at(self.bits, word.astype(np.int64),
                         np.uint64(1) << bit)

    def contains_hashes(self, hashes: np.ndarray) -> np.ndarray:
        """Boolean mask: all k probe bits set."""
        if len(hashes) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(np.asarray(hashes, dtype=np.uint64))
        word, bit = pos >> np.uint64(6), pos & np.uint64(63)
        probes = (self.bits[word.astype(np.int64)]
                  >> bit) & np.uint64(1)
        return probes.all(axis=1)

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        if other.m != self.m or other.k != self.k:
            raise ValueError("cannot merge differently-sized Bloom filters")
        self.bits |= other.bits
        return self

    @property
    def fill_ratio(self) -> float:
        return float(np.unpackbits(self.bits.view(np.uint8)).mean())


# ---------------------------------------------------------------------------
# eval-side derivation
# ---------------------------------------------------------------------------

def _ngram_strings(text: str, n: int) -> list[str]:
    words = text.split()
    if len(words) < n:
        return [" ".join(words)] if words else []
    return [" ".join(words[i:i + n]) for i in range(len(words) - n + 1)]


def collect_eval_ngrams(ds, text_col: str, *, n: int = 8,
                        max_ngrams: int = 100_000) -> list[str]:
    """Distinct space-joined word n-grams of a (small) eval Dataset.

    Each block's distinct n-grams are merged into one set on the
    driver (``state.resources.fold_blocks``) — the result is
    driver-sized by contract (it becomes broadcast needles), so a
    groupby shuffle here would only cap the fused chain.  The set is
    bounded by ``max_ngrams`` (raises above it);
    for eval sets too big for that, use :func:`eval_ngram_hashes` /
    :func:`build_eval_bloom` instead.
    """
    from ..state.resources import fold_blocks

    def _explode(b: pa.Table) -> set[str]:
        out: set[str] = set()
        for t in b.column(text_col).to_pylist():
            if t:
                out.update(_ngram_strings(t, n))
        return out

    def _union(seen: set[str], part: set[str]) -> set[str]:
        seen |= part
        if len(seen) > max_ngrams:
            raise ValueError(
                f"eval n-gram set exceeds max_ngrams={max_ngrams}; "
                "use eval_ngram_hashes/build_eval_bloom for large eval sets")
        return seen

    return sorted(fold_blocks(ds, _explode, _union, set()))


def eval_ngram_hashes(ds, text_col: str, *, n: int = 8) -> np.ndarray:
    """Sorted distinct uint64 n-gram hashes of the eval set (per-block
    distinct partials unioned on the driver, which holds only the
    distinct set — bounded by the eval corpus size)."""
    from ..state.resources import fold_blocks

    def _hashes(b: pa.Table) -> np.ndarray:
        return np.unique(np.concatenate(
            _shingle_hashes_batch(b.column(text_col).to_pylist(), n)))

    return fold_blocks(ds, _hashes, np.union1d, np.zeros(0, dtype=np.uint64))


def build_eval_bloom(ds, text_col: str, *, n: int = 8,
                     n_items_hint: int = 1_000_000,
                     fpp: float = 1e-3) -> BloomFilter:
    """Distributed Bloom build: each block produces a partial filter,
    merged on the driver by OR (``state.resources.fold_blocks``) — the
    driver never sees the n-grams, only ``m/8``-byte bitsets."""
    from ..state.resources import fold_blocks

    def _partial(b: pa.Table) -> BloomFilter:
        bf = BloomFilter(n_items_hint, fpp)
        bf.add_hashes(np.concatenate(
            _shingle_hashes_batch(b.column(text_col).to_pylist(), n)))
        return bf

    return fold_blocks(ds, _partial, BloomFilter.merge, BloomFilter(n_items_hint, fpp))


# ---------------------------------------------------------------------------
# train-side flagging
# ---------------------------------------------------------------------------

def flag_contaminated(ds, text_col: str, *, needles: list[str] | None = None,
                      hash_set: np.ndarray | None = None,
                      bloom: BloomFilter | None = None,
                      n: int = 8, min_hits: int = 1,
                      flag_col: str = "contaminated"):
    """Append a boolean ``flag_col``: does the document overlap the
    eval set? Exactly one of ``needles`` / ``hash_set`` / ``bloom``
    selects the membership structure (see module docstring for the
    size regimes). One streaming pass; the eval structure is put in
    the object store ONCE and read zero-copy by every task.

    ``needles`` flags on raw substring containment (n-gram boundaries
    ignored — slightly over-flags across word boundaries, and is the
    semantics a SQL ``contains()`` oracle can replicate exactly);
    ``hash_set``/``bloom`` count distinct tokenized-n-gram hits and
    flag at ``min_hits``.
    """
    import ray

    if sum(x is not None for x in (needles, hash_set, bloom)) != 1:
        raise ValueError("pass exactly one of needles / hash_set / bloom")

    if needles is not None:
        ref = ray.put(list(needles))

        def _flag(b: pa.Table) -> pa.Table:
            ns = ray.get(ref)
            col = b.column(text_col)
            mask = np.zeros(b.num_rows, dtype=bool)
            for needle in ns:
                if needle:
                    mask |= np.asarray(
                        pc.match_substring(col, needle), dtype=bool)
            return b.append_column(flag_col, pa.array(mask))

        return ds.map_batches(_flag, batch_format="pyarrow")

    ref = ray.put(bloom if bloom is not None
                  else np.asarray(hash_set, dtype=np.uint64))
    use_bloom = bloom is not None

    def _flag(b: pa.Table) -> pa.Table:
        struct = ray.get(ref)
        hs = _shingle_hashes_batch(b.column(text_col).to_pylist(), n)
        flags = np.zeros(b.num_rows, dtype=bool)
        for i, h in enumerate(hs):
            if h.size == 0:
                continue
            h = np.unique(h)  # hits = DISTINCT overlapping n-grams
            if use_bloom:
                hits = int(struct.contains_hashes(h).sum())
            else:
                idx = np.searchsorted(struct, h)
                idx[idx >= struct.size] = 0
                hits = int((struct[idx] == h).sum()) if struct.size else 0
            flags[i] = hits >= min_hits
        return b.append_column(flag_col, pa.array(flags))

    return ds.map_batches(_flag, batch_format="pyarrow")


def decontaminate(ds, text_col: str, **kwargs):
    """Drop contaminated documents (flag + filter in one fused chain)."""
    flag_col = kwargs.setdefault("flag_col", "contaminated")
    flagged = flag_contaminated(ds, text_col, **kwargs)

    def _keep(b: pa.Table) -> pa.Table:
        kept = b.filter(pc.invert(b.column(flag_col)))
        return kept.drop_columns([flag_col])

    return flagged.map_batches(_keep, batch_format="pyarrow")
