"""Candidate (subj, pred, obj) extraction, fused per sentence.

Reference: ``CandidateExtractor`` (``snorkel/candidates.py`` ≈L90–220)
runs matchers over candidate spaces per sentence, takes the
``itertools.product`` across arities, filters self/nested relations and
inserts unique Candidate rows keyed by their Span args.  Here the whole
thing is ONE shuffle-free ``map_batches`` stage over sentences: each
worker builds the alias token index once (the table is broadcast once
via ``ray.put``; ``state.resources.stateful_map``), detects mentions
and pairs them within the sentence in the same pass — mentions never
need to be co-located by a groupby because they are born co-located.

Pairing spec:
- ordered pairs with subj strictly before obj (templates and English
  relational phrasing are left-to-right; the reverse direction yields
  near-zero trigger hits and doubles candidate volume at 10^12 docs);
- self-relations and nested/overlapping spans are dropped (reference
  ``self_relations=False, nested_relations=False`` defaults);
- token gap capped at ``max_gap`` (candidate-volume control at scale);
- ``pred`` = first trigger match over the between-text ("" if none).

Sentence context is denormalized into the candidate row (SURVEY.md J1):
LFs read columns, never join back to sentences.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.ids import normalize_entity_key
from ..functions.predicates import detect_predicate
from .mentions import MentionDetector

CANDIDATE_COLUMNS = [
    "cand_stable_id", "doc_id", "url", "sent_idx", "sent_stable_id", "pred",
    "subj_text", "subj_key", "subj_word_start", "subj_word_end",
    "obj_text", "obj_key", "obj_word_start", "obj_word_end",
    "gap", "between_text", "pre_text", "sent_text",
]


class CandidateExtractor(MentionDetector):
    """Mention sweep (``MentionDetector._scan``) + in-sentence pairing."""

    def __init__(self, alias_ref, *, max_gap: int = 12,
                 cooccur_pred: str | None = None, cooccur_gap: int = 3,
                 both_orders: bool = False):
        super().__init__(alias_ref)
        self.max_gap = max_gap
        # optional generic predicate for trigger-less nearby pairs —
        # used by corpora without a trigger lexicon (e.g. co-occurrence
        # KGs); None disables it (flagship default).
        self.cooccur_pred = cooccur_pred
        self.cooccur_gap = cooccur_gap
        # both_orders=True also emits the obj-before-subj candidate
        # (reference generates the full product of spaces; its
        # symmetric_relations flag prunes mirror duplicates). Forward
        # only by default: English relational phrasing is left-to-right
        # and the built-in LF set is direction-aware-forward; doubling
        # candidate volume at 10^12 docs needs direction-aware LFs.
        self.both_orders = both_orders

    def _process_sentence(self, o: dict, doc_id, url: str, sent_idx: int,
                          sid: str, a0: int, text: str, words: list[str],
                          offs: list[int]) -> None:
        """Pairing core for ONE sentence — shared by the sentence-table
        path (``__call__``) and the fused docs path
        (``extract_candidates_fused``)."""
        if len(words) < 2:
            return
        folded = [w.casefold() for w in words]
        ments = self._scan(words, folded)
        if len(ments) < 2:
            return
        # per-mention span/text/key computed ONCE (the emit closure in
        # the pair loop used to re-derive offsets and re-normalize keys
        # already computed for the self-relation check — round-4 review)
        spans = []
        for ws, we in ments:
            cs, ce = offs[ws], offs[we] + len(words[we])
            mtext = text[cs:ce]
            spans.append((ws, we, cs, ce, mtext, normalize_entity_key(mtext)))

        def emit(a, b, pred, gap, between, pre, direction):
            a_ws, a_we, a_cs, a_ce, a_text, a_key = a
            b_ws, b_we, b_cs, b_ce, b_text, b_key = b
            lo_cs = min(a_cs, b_cs)
            hi_ce = max(a_ce, b_ce)
            o["cand_stable_id"].append(
                f"{url}::cand:{a0 + lo_cs}:{a0 + hi_ce}:"
                f"{pred or 'none'}:{direction}"
            )
            o["doc_id"].append(doc_id)
            o["url"].append(url)
            o["sent_idx"].append(sent_idx)
            o["sent_stable_id"].append(sid)
            o["pred"].append(pred)
            o["subj_text"].append(a_text)
            o["subj_key"].append(a_key)
            o["subj_word_start"].append(a_ws)
            o["subj_word_end"].append(a_we)
            o["obj_text"].append(b_text)
            o["obj_key"].append(b_key)
            o["obj_word_start"].append(b_ws)
            o["obj_word_end"].append(b_we)
            o["gap"].append(gap)
            o["between_text"].append(between)
            o["pre_text"].append(pre)
            o["sent_text"].append(text)

        for si in range(len(spans)):
            subj = spans[si]
            pre = " ".join(folded[:subj[0]])  # mentions are in order:
            for oi in range(si + 1, len(spans)):  # min(a_ws,b_ws) = sws
                obj = spans[oi]
                gap = obj[0] - subj[1] - 1
                if gap < 0 or gap > self.max_gap:
                    continue
                # self-relations (same normalized entity) are dropped
                # (reference self_relations=False default)
                if subj[5] == obj[5]:
                    continue
                between = " ".join(folded[subj[1] + 1:obj[0]])
                pred = detect_predicate(between)
                if not pred and self.cooccur_pred and gap <= self.cooccur_gap:
                    pred = self.cooccur_pred
                emit(subj, obj, pred, gap, between, pre, "f")
                if self.both_orders:
                    emit(obj, subj, pred, gap, between, pre, "r")

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        urls = batch.column("url").to_pylist()
        sent_idxs = batch.column("sent_idx").to_numpy(zero_copy_only=False)
        sids = batch.column("sent_stable_id").to_pylist()
        abs_starts = batch.column("abs_char_start").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        words_col = batch.column("words").to_pylist()
        offs_col = batch.column("char_offsets").to_pylist()

        o: dict[str, list] = {k: [] for k in CANDIDATE_COLUMNS}
        for r in range(len(urls)):
            self._process_sentence(o, doc_ids[r], urls[r], int(sent_idxs[r]),
                                   sids[r], int(abs_starts[r]), texts[r],
                                   words_col[r], offs_col[r])

        return self._to_table(o)

    def process_docs(self, batch: pa.Table) -> pa.Table:
        """FUSED docs → candidates: split + tokenize + pair inside one
        batch fn, never constructing the intermediate Arrow
        ``list<string>`` sentence columns (they were built only to be
        ``to_pylist()``-ed right back in the fused chain — measured as
        the stage that stops scaling past ~16 workers, BASELINE.md
        round-2 audit).  The standalone sentence table path remains for
        consumers that need it."""
        from ..functions.ids import construct_stable_id
        from .sentences import split_sentences, tokenize

        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        urls = batch.column("url").to_pylist()
        texts = batch.column("text").to_pylist()
        o: dict[str, list] = {k: [] for k in CANDIDATE_COLUMNS}
        for did, url, text in zip(doc_ids, urls, texts):
            for idx, (abs_start, sent) in enumerate(split_sentences(text)):
                words, offs = tokenize(sent)
                sid = construct_stable_id(url, "sentence", abs_start,
                                          abs_start + len(sent))
                self._process_sentence(o, did, url, idx, sid, abs_start,
                                       sent, words, offs)
        return self._to_table(o)

    @staticmethod
    def _to_table(o: dict) -> pa.Table:
        return pa.table(
            {
                "cand_stable_id": pa.array(o["cand_stable_id"], pa.string()),
                "doc_id": pa.array(np.asarray(o["doc_id"], dtype=np.uint64), pa.uint64()),
                "url": pa.array(o["url"], pa.string()),
                "sent_idx": pa.array(o["sent_idx"], pa.int32()),
                "sent_stable_id": pa.array(o["sent_stable_id"], pa.string()),
                "pred": pa.array(o["pred"], pa.string()),
                "subj_text": pa.array(o["subj_text"], pa.string()),
                "subj_key": pa.array(o["subj_key"], pa.string()),
                "subj_word_start": pa.array(o["subj_word_start"], pa.int32()),
                "subj_word_end": pa.array(o["subj_word_end"], pa.int32()),
                "obj_text": pa.array(o["obj_text"], pa.string()),
                "obj_key": pa.array(o["obj_key"], pa.string()),
                "obj_word_start": pa.array(o["obj_word_start"], pa.int32()),
                "obj_word_end": pa.array(o["obj_word_end"], pa.int32()),
                "gap": pa.array(o["gap"], pa.int32()),
                "between_text": pa.array(o["between_text"], pa.string()),
                "pre_text": pa.array(o["pre_text"], pa.string()),
                "sent_text": pa.array(o["sent_text"], pa.string()),
            }
        )


def extract_candidates_fused(docs, alias_ref, *, max_gap: int = 12,
                             cooccur_pred: str | None = None,
                             cooccur_gap: int = 3, both_orders: bool = False,
                             batch_size: int | None = None):
    """docs (url, doc_id, text) → candidates in ONE map stage:
    sentence split + tokenize + mention scan + pairing fused, skipping
    the intermediate Arrow sentence table entirely.  Same output rows
    as ``extract_candidates(split_docs_to_sentences(docs), ...)`` —
    asserted by test_pipeline's fused-parity test.  Elastic tasks
    only: the alias index is light state, and a pool would cap the
    whole extract→candidates→LFs chain fused into this stage."""
    from ..state.resources import broadcast_key, stateful_map

    kwargs = {"max_gap": max_gap, "cooccur_pred": cooccur_pred,
              "cooccur_gap": cooccur_gap, "both_orders": both_orders}
    return stateful_map(
        docs, lambda: CandidateExtractor(alias_ref, **kwargs).process_docs,
        key=(broadcast_key(alias_ref), *kwargs.values()), batch_size=batch_size)


def extract_candidates(sentences, alias_ref, *, max_gap: int = 12,
                       cooccur_pred: str | None = None, cooccur_gap: int = 3,
                       both_orders: bool = False,
                       concurrency=None, batch_size: int | None = None):
    """sentences → candidates; an actor pool when ``concurrency`` is
    set, elastic tasks otherwise (``state.resources.stateful_map``)."""
    from ..state.resources import broadcast_key, stateful_map

    kwargs = {"max_gap": max_gap, "cooccur_pred": cooccur_pred,
              "cooccur_gap": cooccur_gap, "both_orders": both_orders}
    return stateful_map(
        sentences, lambda: CandidateExtractor(alias_ref, **kwargs),
        key=(broadcast_key(alias_ref), *kwargs.values()),
        concurrency=concurrency, batch_size=batch_size)
