"""Corpus-level frequency statistics: line counts, frequent-line
(boilerplate) removal, global n-gram counts and top-k.

Brief-mandated training-data-pipeline family (no direct reference
analog; nearest ancestry is the corpus-statistics side of
``snorkel/annotations.py`` ≈L300 aggregate helpers).  The shapes are
the CCNet / C4-style cleanup steps every web-scale corpus needs:

* :func:`line_counts` — per-line occurrence + document frequency.
  Per-BATCH partial counts (a combiner: each batch emits one row per
  distinct line, not one per occurrence) before the single global
  ``groupby().sum()`` — the shuffle moves distinct-lines-per-block,
  not total lines.  A document's lines never span batches (the split
  happens inside its row), so per-row dedup makes the summed partials
  an EXACT distinct-document count.
* :func:`remove_frequent_lines` — drop every line occurring in ≥
  ``min_docs`` documents (navigation chrome, cookie banners,
  boilerplate).  The frequent-line set is derived distributed; its
  application routes through :func:`~snorkel_ray.stages.joins.semi_join`
  semantics: broadcast (``ray.put`` once, per-batch set membership)
  while it fits, explode + hash semi-join + regroup above that.
* :func:`ngram_counts` / :func:`top_ngrams` — global word-n-gram
  frequencies with the same partial-count combiner, and an exact
  global top-k via per-batch partial top-k + tiny driver merge (the
  ``bottom_k_sample`` / ``brute_force_topk`` shape: no global sort).

Tokenization is ``[^a-z0-9]+``-split of the lowercased text — chosen
to be exactly replicable in ANSI SQL (``string_split_regex``) so every
operator here is oracle-checkable.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .joins import DEFAULT_BROADCAST_LIMIT

__all__ = [
    "line_counts",
    "remove_frequent_lines",
    "ngram_counts",
    "top_ngrams",
    "tfidf_scores",
]

_TOKEN_RE = re.compile(r"[^a-z0-9]+")



def _tokens(text: str) -> list[str]:
    # null text tokenizes as empty (same guard family as line_counts'
    # fill_null — round-4 review: ngram_counts crashed on None.lower())
    return [w for w in _TOKEN_RE.split(text.lower()) if w] if text else []


def line_counts(ds, column: str = "text", sep: str = "\n"):
    """Dataset of ``(line, n_occurrences, n_docs)`` over the corpus.

    One streaming pass: per-batch ``value_counts`` partials (distinct
    lines per batch) → one bounded ``fold_by_key`` sum.
    """
    from ..state.resources import fold_by_key

    def _partial(b: pa.Table) -> pa.Table:
        # null text rows count as empty documents (split of a null is
        # null and set(None) would TypeError — ADVICE r3)
        split = pc.split_pattern(
            pc.fill_null(b.column(column), ""), sep)
        flat = split.combine_chunks().flatten() if isinstance(
            split, pa.ChunkedArray) else split.flatten()
        occ = Counter(flat.to_pylist())
        docs = Counter()
        for lines in split.to_pylist():
            docs.update(set(lines))
        keys = list(occ)
        return pa.table({
            "line": pa.array(keys, pa.string()),
            "n_occurrences": pa.array([occ[k] for k in keys], pa.int64()),
            "n_docs": pa.array([docs[k] for k in keys], pa.int64()),
        })

    return fold_by_key(ds, ["line"], {"n_occurrences": "sum", "n_docs": "sum"}, _partial)


def remove_frequent_lines(ds, column: str = "text", sep: str = "\n", *,
                          min_docs: int = 2, stats: bool = False,
                          broadcast_limit: int = DEFAULT_BROADCAST_LIMIT):
    """Remove every line appearing in ≥ ``min_docs`` distinct documents.

    Returns ``ds`` with ``column`` rewritten to the kept lines joined
    by ``sep``; with ``stats=True`` also appends ``n_kept_lines`` /
    ``n_removed_lines`` int64 columns (handy for oracle checks and
    removal-rate monitoring).

    SCALE NOTE: the above-``broadcast_limit`` path regroups per
    DOCUMENT (one ``by_key`` pass; the kernel unpickles each
    document's payload once) and ships each row's payload once
    per line — workable, but prefer raising ``min_docs`` (the frequent
    set shrinks fast) or projecting to (id, text) first so the
    broadcast path applies; a fully fold-back-local above-limit plan
    is future work.

    The frequent set is computed distributed by :func:`line_counts`.
    Application: broadcast membership test while the set has ≤
    ``broadcast_limit`` rows (the realistic boilerplate case — the
    set shrinks as ``min_docs`` grows); above that, lines are hashed
    and membership arrives via a hash semi-join on a 64-bit line hash
    (explode → join → regroup is unnecessary: the mark can be joined
    onto the per-batch EXPLODED line table and folded back locally,
    because a document's lines stay inside its row).  The above-limit
    path trades one extra shuffle of the distinct-line table for
    never collecting it.
    """
    import ray

    counts = line_counts(ds, column, sep)
    frequent = counts.filter(
        expr=f"n_docs >= {int(min_docs)}").select_columns(["line"])
    frequent = frequent.materialize()
    n = frequent.count()

    if n <= broadcast_limit:
        freq_ref = ray.put(
            set() if n == 0 else
            set(frequent.to_pandas()["line"]))

        def _clean(b: pa.Table) -> pa.Table:
            freq = ray.get(freq_ref)
            texts = b.column(column).to_pylist()
            out, kept_n, rem_n = [], [], []
            for t in texts:
                lines = (t or "").split(sep)
                kept = [ln for ln in lines if ln not in freq]
                out.append(sep.join(kept))
                kept_n.append(len(kept))
                rem_n.append(len(lines) - len(kept))
            i = b.schema.get_field_index(column)
            b = b.set_column(i, column, pa.array(out, pa.string()))
            if stats:
                b = (b.append_column("n_kept_lines", pa.array(kept_n, pa.int64()))
                     .append_column("n_removed_lines", pa.array(rem_n, pa.int64())))
            return b

        return ds.map_batches(_clean, batch_format="pyarrow")

    # scale path: mark each document row with its frequent lines via a
    # keyed lookup against the (huge) frequent set — ds explodes to a
    # (row_uid, line) table, joins, and regroups per row_uid locally.
    from ..state.resources import by_key
    from .joins import apply_mapping

    marked = frequent.map_batches(
        lambda b: b.append_column("_freq", pa.array(
            np.ones(b.num_rows, np.int8), pa.int8())),
        batch_format="pyarrow")

    def _explode(b: pa.Table) -> pa.Table:
        # a globally unique row uid (block uuid + row index) keys the
        # regroup; the full row payload rides along as a struct so no
        # second pass over ds is needed.  NOTE: this ships every row's
        # payload once per LINE; for wide rows project down to
        # (id, text) before this path and re-attach payloads by id.
        import hashlib
        import pickle

        rows = b.to_pylist()
        uid, idx, lines, blobs = [], [], [], []
        # DETERMINISTIC row uid = (row content hash, occurrence index
        # of that content within the batch): a uuid made the task's
        # output nondeterministic under lineage reconstruction
        # (round-4 review), and a per-BLOCK tag made byte-identical
        # blocks collide.  Identical documents in DIFFERENT blocks can
        # still share a uid — _regroup is copy-count-aware and emits
        # one identical output row per merged copy, so that collision
        # costs nothing.
        blobs_all = [pickle.dumps(row) for row in rows]
        occ: dict = {}
        for r, row in enumerate(rows):
            # the row rides as one opaque bytes value, whose hash
            # is also its uid
            blob = blobs_all[r]
            h = hashlib.blake2b(blob, digest_size=8).hexdigest()
            k = occ.get(h, 0)
            occ[h] = k + 1
            row_uid = f"{h}:{k}"
            for j, ln in enumerate((row[column] or "").split(sep)):
                uid.append(row_uid)
                idx.append(j)
                lines.append(ln)
                blobs.append(blob)
        return pa.table({"_uid": pa.array(uid, pa.string()),
                         "_idx": pa.array(idx, pa.int64()),
                         "line": pa.array(lines, pa.string()),
                         "_blob": pa.array(blobs, pa.binary())})

    exploded = ds.map_batches(_explode, batch_format="pyarrow")
    joined = apply_mapping(exploded, marked, "line", "line", "_freq",
                           "_freq", broadcast_limit=broadcast_limit)

    def _regroup(t: pa.Table, starts: np.ndarray) -> pa.Table:
        # a group is one uid's rows in _idx order.  copies = identical
        # documents merged under one uid (cross-block hash collision by
        # construction is only possible for byte-identical rows): every
        # _idx appears exactly `copies` times with identical lines —
        # reconstruct once, emit per copy
        import pickle

        from ..state.resources import group_of

        idx = t.column("_idx").to_numpy()
        g = group_of(starts, t.num_rows)
        one = np.ones(t.num_rows, bool)
        one[1:] = idx[1:] != idx[:-1]
        one[starts] = True
        kept = one & pc.is_null(t.column("_freq")).to_numpy(zero_copy_only=False)
        n_one, n_kept, copies = (np.bincount(g[m], minlength=len(starts))
                                 for m in (one, kept, idx == 0))
        lines = pa.ListArray.from_arrays(
            pa.array(np.concatenate([[0], np.cumsum(n_kept)]), pa.int32()),
            t.column("line").combine_chunks().filter(pa.array(kept)))
        texts = pc.binary_join(lines, sep).to_pylist()
        out = []
        for i, (blob, text) in enumerate(zip(t.column("_blob").take(starts).to_pylist(), texts)):
            row = dict(pickle.loads(blob))
            row[column] = text
            if stats:
                row["n_kept_lines"] = int(n_kept[i])
                row["n_removed_lines"] = int(n_one[i] - n_kept[i])
            out += [row] * max(int(copies[i]), 1)
        return pa.Table.from_pylist(out)

    return by_key(joined, ["_uid"], _regroup, ["_idx"])


def ngram_counts(ds, column: str = "text", n: int = 2):
    """Global word-``n``-gram counts: per-batch ``Counter`` partials
    (one row per distinct n-gram per batch) → one ``fold_by_key`` sum.
    Tokens are the ``[^a-z0-9]+`` split of the lowercased text."""
    from ..state.resources import fold_by_key

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def _partial(b: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in b.column(column).to_pylist():
            ws = _tokens(t)
            c.update(" ".join(ws[i:i + n]) for i in range(len(ws) - n + 1))
        keys = list(c)
        return pa.table({"ngram": pa.array(keys, pa.string()),
                         "n": pa.array([c[k] for k in keys], pa.int64())})

    return fold_by_key(ds, ["ngram"], {"n": "sum"}, _partial)


def top_ngrams(ds, column: str = "text", n: int = 2, k: int = 20) -> pa.Table:
    """Exact global top-``k`` n-grams by ``(count desc, ngram asc)``.

    No global sort: each block of the summed count table keeps its
    partial top-k, and the driver merges ≤ k rows per block
    (``state.resources.fold_blocks``; the ``bottom_k_sample`` shape).
    Returns an in-memory ``pa.Table`` (k rows by definition)."""
    from ..state.resources import fold_blocks

    counts = ngram_counts(ds, column, n)

    def _take_k(t: pa.Table) -> pa.Table:
        cnt = np.asarray(t.column("n"))
        grams = np.asarray(t.column("ngram"))
        order = np.lexsort((grams, -cnt))[:k]
        return t.take(pa.array(order))

    def _merge(buf: pa.Table | None, b: pa.Table) -> pa.Table:
        buf = b if buf is None else pa.concat_tables([buf, b])
        return _take_k(buf) if buf.num_rows > 4 * k else buf

    buf = fold_blocks(counts, _take_k, _merge, None)
    if buf is None:
        return pa.table({"ngram": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    return _take_k(buf)


def tfidf_scores(ds, terms: list[str], *, column: str = "text",
                 id_column: str = "doc_id", idf_micro: int = 1_000_000):
    """Distributed TF-IDF relevance score per document for a fixed
    query-term list — the keyword-relevance ranking / topical
    up-sampling step of a curation pipeline (score docs against a
    domain term list, filter or re-weight by the result).

    Two streaming passes, NO shuffle:

    1. **DF pass**: each block counts its member docs per query term
       plus its doc count; the driver sums the k + 1 counts per block
       (``state.resources.fold_blocks``).
    2. **score pass**: ``idf`` is quantized to integer micros
       (``round(ln(N/df) · 1e6)``) so the per-doc score
       ``Σ tf(term) · idf_micro(term)`` is an INTEGER sum — float
       addition order can never move the result, which keeps the
       stringified-hash oracle comparison exact regardless of SQL
       aggregation order.  The returned ``score`` is
       ``micros / 1e6`` (one exact division).

    Terms absent from the corpus (df = 0) contribute nothing; a term
    listed twice counts once.
    Tokenization is the module's SQL-replicable ``[^a-z0-9]+`` split.
    → Dataset (``id_column``, ``score`` float64)."""
    import math

    from ..functions.exprs import duck_round
    from ..state.resources import fold_blocks

    terms = list(dict.fromkeys(terms))  # a repeated term counts once
    if not all(terms):
        # no token is empty, so "" could only ever score nothing
        raise ValueError("empty-string query terms are reserved")

    def _df_partial(b: pa.Table) -> np.ndarray:
        toks = [set(_tokens(t)) for t in b.column(column).to_pylist()]
        # last entry: the block's doc count
        return np.array([sum(1 for s in toks if term in s) for term in terms]
                        + [len(toks)], dtype=np.int64)

    dfs = fold_blocks(ds, _df_partial, np.add, np.zeros(len(terms) + 1, np.int64))
    df_tot = {t: 0 for t in terms}
    for t, d in zip(terms, dfs):
        df_tot[t] += int(d)
    n_docs = int(dfs[-1])

    idf_i = {t: int(duck_round(math.log(n_docs / df_tot[t]) * idf_micro, 0))
             for t in terms if df_tot[t] > 0 and n_docs > 0}

    def _score(b: pa.Table) -> pa.Table:
        scores = []
        for t in b.column(column).to_pylist():
            cnt = Counter(_tokens(t))
            micros = 0
            for term in terms:
                i = idf_i.get(term)
                if i is not None:
                    micros += cnt.get(term, 0) * i
            scores.append(micros / float(idf_micro))
        return pa.table({id_column: b.column(id_column),
                         "score": pa.array(scores, pa.float64())})

    return ds.map_batches(_score, batch_format="pyarrow")
