"""Distributed entity-mention detection over sentences.

Reference analog: ``Ngrams`` + ``DictionaryMatch`` applied per sentence
(``snorkel/candidates.py`` ≈L20–90, ``snorkel/matchers.py`` ≈L80–150),
i.e. the CDR tutorial's dictionary-tagging path.  The alias dictionary
is the *small side* of the lookup (SURVEY.md J4/T2): the driver
``ray.put``s the alias table ONCE, each worker (or pool actor) builds
its token-trie index once, never per batch, and every batch does a
pure in-memory sweep — no shuffle, no per-batch reship.

Matching spec: left-to-right greedy longest-match over the token
sequence (casefolded token tuples), which equals the reference's
``longest_match_only`` suppression for non-overlapping dictionaries.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.ids import construct_stable_id, normalize_entity_key


def build_alias_index(alias_table: pa.Table) -> dict:
    """alias table (alias, entity_qid, prior) → token index.

    Returns ``{"index": {token_tuple: (qid, prior, alias)}, "max_len": n,
    "first_tokens": set}``.  Ties on the same surface resolve by max
    prior then lexicographic qid (deterministic).
    """
    from .sentences import tokenize

    index: dict[tuple[str, ...], tuple[str, float, str]] = {}
    max_len = 1
    first = set()
    aliases = alias_table.column("alias").to_pylist()
    qids = alias_table.column("entity_qid").to_pylist()
    priors = alias_table.column("prior").to_pylist()
    for alias, qid, prior in zip(aliases, qids, priors):
        words, _ = tokenize(alias)
        key = tuple(w.casefold() for w in words)
        if not key:
            continue
        cur = index.get(key)
        # higher prior wins; ties break to the smaller qid (deterministic)
        if cur is None or prior > cur[1] or (prior == cur[1] and qid < cur[0]):
            index[key] = (qid, float(prior), alias)
        max_len = max(max_len, len(key))
        first.add(key[0])
    return {"index": index, "max_len": max_len, "first_tokens": first}


class MentionDetector:
    """Batch stage behind ``detect_mentions``.  ``alias_ref`` is a
    ``ray.ObjectRef`` to the alias table (zero-copy shared per node) or
    the table itself (tests)."""

    def __init__(self, alias_ref):
        import ray

        table = ray.get(alias_ref) if not isinstance(alias_ref, pa.Table) else alias_ref
        idx = build_alias_index(table)
        self.index = idx["index"]
        self.max_len = idx["max_len"]
        self.first_tokens = idx["first_tokens"]

    def _scan(self, words: list[str], folded: list[str]) -> list[tuple[int, int]]:
        """→ [(word_start, word_end_inclusive)] greedy longest-match
        (also the mention sweep of ``candidates.CandidateExtractor``)."""
        out = []
        i, L = 0, len(words)
        while i < L:
            if folded[i] not in self.first_tokens:
                i += 1
                continue
            hit = None
            for n in range(min(self.max_len, L - i), 0, -1):
                if tuple(folded[i : i + n]) in self.index:
                    hit = (i, i + n - 1)
                    break
            if hit:
                out.append(hit)
                i = hit[1] + 1
            else:
                i += 1
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        urls = batch.column("url").to_pylist()
        sent_idxs = batch.column("sent_idx").to_numpy(zero_copy_only=False)
        abs_starts = batch.column("abs_char_start").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        words_col = batch.column("words").to_pylist()
        offs_col = batch.column("char_offsets").to_pylist()

        o = {k: [] for k in ("span_stable_id", "doc_id", "url", "sent_idx", "char_start",
                             "char_end", "word_start", "word_end", "text", "mention_type",
                             "entity_key")}
        for r in range(len(urls)):
            words = words_col[r]
            if not words:
                continue
            folded = [w.casefold() for w in words]
            offs = offs_col[r]
            for ws, we in self._scan(words, folded):
                cs = offs[ws]
                ce = offs[we] + len(words[we])
                text = texts[r][cs:ce]
                a0 = int(abs_starts[r])
                o["span_stable_id"].append(construct_stable_id(urls[r], "span", a0 + cs, a0 + ce))
                o["doc_id"].append(doc_ids[r])
                o["url"].append(urls[r])
                o["sent_idx"].append(int(sent_idxs[r]))
                o["char_start"].append(cs)
                o["char_end"].append(ce)
                o["word_start"].append(ws)
                o["word_end"].append(we)
                o["text"].append(text)
                o["mention_type"].append("entity")
                o["entity_key"].append(normalize_entity_key(text))

        return pa.table(
            {
                "span_stable_id": pa.array(o["span_stable_id"], pa.string()),
                "doc_id": pa.array(np.asarray(o["doc_id"], dtype=np.uint64), pa.uint64()),
                "url": pa.array(o["url"], pa.string()),
                "sent_idx": pa.array(o["sent_idx"], pa.int32()),
                "char_start": pa.array(o["char_start"], pa.int32()),
                "char_end": pa.array(o["char_end"], pa.int32()),
                "word_start": pa.array(o["word_start"], pa.int32()),
                "word_end": pa.array(o["word_end"], pa.int32()),
                "text": pa.array(o["text"], pa.string()),
                "mention_type": pa.array(o["mention_type"], pa.string()),
                "entity_key": pa.array(o["entity_key"], pa.string()),
            }
        )


def detect_mentions(sentences, alias_ref, *, concurrency=None, batch_size: int | None = None):
    """sentences → mentions: elastic tasks with a per-worker alias
    index (light state, CLAUDE.md rule 2), or an actor pool of
    ``concurrency`` when it is set."""
    from ..state.resources import broadcast_key, stateful_map

    return stateful_map(sentences, lambda: MentionDetector(alias_ref),
                        key=broadcast_key(alias_ref), concurrency=concurrency,
                        batch_size=batch_size)
