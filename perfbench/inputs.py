"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its arguments: the same seed
gives byte-identical inputs.  Inputs are built in the single driver
process (no Ray tasks), so generation time does not depend on how the
session schedules work.  Each generator also returns what the output
checks need (planted truth); that part never reaches the program.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def write_parquet_files(table: pa.Table, out_dir: str, files: int) -> list[str]:
    """Split ``table`` into ``files`` contiguous row ranges, one parquet
    file each, so the reader's block count is fixed by the input."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    n = table.num_rows
    for k in range(files):
        lo, hi = k * n // files, (k + 1) * n // files
        path = os.path.join(out_dir, f"part-{k:03d}.parquet")
        pq.write_table(table.slice(lo, hi - lo), path)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# kg_stream / kg_sharded: the synthetic pages corpus with a planted KB
# ---------------------------------------------------------------------------

def pages_table(n: int, seed: int) -> tuple[pa.Table, dict, pa.Table]:
    """Pages ``[0, n)`` rendered on the driver by ``synth``'s per-page
    plan for ``seed``, over the planted KB of ``synth.DEFAULT_SEED``.
    → (pages table, KB, planted triples).

    The KB is the same for every seed: its random fact mix sets how
    many candidates a page yields, and changed the pipeline's work by
    ~16% between seeds; the pages themselves still differ per seed."""
    from snorkel_ray import synth

    kb = synth.build_kb(synth.DEFAULT_SEED)
    plans = [synth.plan_page(i, kb, seed) for i in range(n)]
    ts = (np.arange(n, dtype=np.int64) + int(synth.EPOCH.timestamp())) * 1_000_000
    table = pa.table({
        "url": pa.array([p["url"] for p in plans], pa.string()),
        "warc_ts": pa.array(ts, pa.timestamp("us")),
        "html": pa.array([synth.render_html(p) for p in plans], pa.binary()),
        "text": pa.array([""] * n, pa.string()),
        "lang": pa.array([p["lang"] for p in plans], pa.string()),
    })
    planted = sorted({t for p in plans for t in p["expected"]})
    expected = pa.table(dict(zip(("subj_qid", "pred", "obj_qid"),
                                 map(list, zip(*planted)))))
    return table, kb, expected


# ---------------------------------------------------------------------------
# events_keyed: skewed, out-of-order event log
# ---------------------------------------------------------------------------

EVENT_EPOCH_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z
CATEGORIES = ["click", "view", "cart", "buy"]


def events_table(n: int, users: int, seed: int, *, hot_share: float = 0.2,
                 zipf_a: float = 1.5, span_hours: int = 24) -> pa.Table:
    """``n`` events over ``span_hours``: user ``u00000`` owns
    ``hot_share`` of the rows, the rest follow a Zipf tail over
    ``users - 1`` keys.  Per-key row counts depend only on the sizes,
    so every seed gives the same key skew; the seed draws the times,
    values and categories.  Rows arrive in a random order, not in event
    time order.  ``event_id`` is unique, so ``(ts, event_id)`` orders
    every key's events totally."""
    rng = np.random.default_rng([seed, 0xE7])
    hot = round(hot_share * n)
    w = 1.0 / np.arange(1, users) ** zipf_a
    share = (n - hot) * w / w.sum()
    counts = np.floor(share).astype(np.int64)
    counts[np.argsort(counts - share)[: n - hot - counts.sum()]] += 1
    uid = rng.permutation(np.repeat(np.arange(users), np.concatenate([[hot], counts])))
    ts = EVENT_EPOCH_US + rng.integers(0, span_hours * 3_600_000_000, n)
    value = np.round(rng.normal(50.0, 15.0, n), 3)
    cat = rng.integers(0, len(CATEGORIES), n)
    names = np.array([f"u{u:05d}" for u in range(users)], dtype=object)
    return pa.table({
        "event_id": pa.array(rng.permutation(n).astype(np.int64)),
        "user_id": pa.array(names[uid], pa.string()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "value": pa.array(value, pa.float64()),
        "category": pa.array(np.array(CATEGORIES, dtype=object)[cat], pa.string()),
    })


# ---------------------------------------------------------------------------
# dedup_near: planted exact duplicates, near-dup clusters and edit chains
# ---------------------------------------------------------------------------

VOCAB = 50_000


def _words(rng, k: int) -> list[str]:
    return [f"w{x}" for x in rng.integers(0, VOCAB, k)]


def near_dup_corpus(seed: int, *, singles: int, clusters: int,
                    cluster_size: int, chains: int, chain_len: int,
                    exact_copies: int, words: int = 120) -> tuple[pa.Table, np.ndarray]:
    """Documents ``(doc_id int64, text string)`` in a shuffled order,
    plus ``group[i]``: the planted near-duplicate group of row ``i``.

    - singles: unrelated random documents (each its own group);
    - clusters: a template plus ``cluster_size - 1`` variants with one
      or two words replaced (3-word-shingle Jaccard to the template
      ≥ 0.9);
    - chains: a template edited step by step, two words per step, at
      positions that move along the text.  Documents one or two steps
      apart share ≥ 0.8 of their shingles, three steps apart < 0.8, so
      a chain is one component whose diameter is about
      ``chain_len / 2``;
    - exact_copies: byte-identical copies of randomly chosen documents
      above (they join the copied document's group).
    """
    rng = np.random.default_rng([seed, 0xD0])
    texts: list[str] = []
    group: list[int] = []
    g = 0
    for _ in range(singles):
        texts.append(" ".join(_words(rng, words)))
        group.append(g)
        g += 1
    for _ in range(clusters):
        base = _words(rng, words)
        texts.append(" ".join(base))
        group.append(g)
        for _ in range(cluster_size - 1):
            v = list(base)
            for p in rng.choice(words, size=int(rng.integers(1, 3)), replace=False):
                v[p] = _words(rng, 1)[0]
            texts.append(" ".join(v))
            group.append(g)
        g += 1
    stride = words // 2
    for _ in range(chains):
        cur = _words(rng, words)
        texts.append(" ".join(cur))
        group.append(g)
        for step in range(1, chain_len):
            cur = list(cur)
            p = (5 * step) % stride
            cur[p] = _words(rng, 1)[0]
            cur[p + stride] = _words(rng, 1)[0]
            texts.append(" ".join(cur))
            group.append(g)
        g += 1
    src = rng.integers(0, len(texts), exact_copies)
    for s in src:
        texts.append(texts[s])
        group.append(group[s])
    n = len(texts)
    order = rng.permutation(n)
    # ids are distinct but not dense or ordered like the groups
    ids = rng.choice(10 * n, size=n, replace=False).astype(np.int64)
    table = pa.table({
        "doc_id": pa.array(ids),
        "text": pa.array([texts[i] for i in order], pa.string()),
    })
    return table, np.asarray(group, dtype=np.int64)[order]
