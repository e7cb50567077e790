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

The fused docs path (``process_docs``) is columnar: after a per-doc
``split_sentences``, every sentence that is ASCII and holds no NUL
(all synth and benchmark sentences) is tokenized, scanned, paired and
turned into the 18 columns by Arrow kernels over the whole block
(``_fast_rows``); Python runs only the greedy longest-match over the
alias first-token hits.  Any other sentence goes through the
per-sentence ``_process_sentence``, which the sentence-table path
(``__call__``) also runs and which is the oracle the fast path is
tested against row for row, order included (tests/test_candidates.py)
— change the two together.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.ids import (ASCII_SPACE, construct_stable_id, normalize_entity_key,
                             normalize_entity_keys_ascii)
from ..functions.predicates import TRIGGERS, detect_predicate
from .mentions import MentionDetector

# ``sentences.tokenize``'s pattern for an ASCII sentence, in RE2 with
# Python's ASCII classes spelled out (``\w`` = ``[0-9A-Za-z_]``, ``\s``
# = ``ASCII_SPACE``); the group is one token
_W = "0-9A-Za-z_"
_TOKEN_RE2 = rf"([{_W}]+(?:[-'][{_W}]+)*|[^{_W}{ASCII_SPACE}])"


def _join_ranges(values: pa.Array, starts: np.ndarray, ends: np.ndarray,
                 sep: str) -> pa.Array:
    """Row i: ``sep.join(values[starts[i]:ends[i]])``."""
    lens = ends - starts
    offs = np.concatenate([[0], np.cumsum(lens)])
    idx = np.repeat(starts - offs[:-1], lens) + np.arange(offs[-1])
    return pc.binary_join(pa.ListArray.from_arrays(pa.array(offs, pa.int32()),
                                                   values.take(pa.array(idx, pa.int64()))), sep)


def _digits(v: np.ndarray) -> pa.Array:
    """Integers as decimal strings (``str(int)``)."""
    return pc.cast(pa.array(v, pa.int64()), pa.string())


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
        self._first_arr = pa.array(sorted(self.first_tokens), pa.string())
        self._alias_keys = pa.array(sorted(" ".join(k) for k in self.index), pa.string())
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
        """FUSED docs → candidates: split, tokenize and pair inside one
        batch fn, never building the Arrow ``list<string>`` sentence
        columns of the standalone sentence table.

        Sentences are split per doc in Python (``split_sentences``);
        everything after that is columnar over the block's sentences
        (``_fast_rows``) for every sentence that is ASCII and holds no
        NUL.  Any other sentence runs ``_process_sentence``, which is
        also the oracle the fast path is tested against.  Rows come out
        in the per-sentence order: doc, sentence, subj, obj, each ``r``
        row right after its ``f`` row."""
        from .sentences import split_sentences, tokenize

        doc_ids = pc.cast(batch.column("doc_id").combine_chunks(), pa.uint64())
        urls = batch.column("url").combine_chunks()
        s_doc, s_idx, s_abs, s_text = [], [], [], []
        for d, text in enumerate(batch.column("text").to_pylist()):
            for idx, (abs_start, sent) in enumerate(split_sentences(text)):
                s_doc.append(d)
                s_idx.append(idx)
                s_abs.append(abs_start)
                s_text.append(sent)
        sents = pa.array(s_text, pa.string())
        fast = pc.and_(pc.string_is_ascii(sents),
                       pc.invert(pc.match_substring(sents, "\x00"))).to_numpy(zero_copy_only=False)
        f_sent = np.flatnonzero(fast)
        s_doc, s_idx, s_abs = (np.asarray(v, np.int64) for v in (s_doc, s_idx, s_abs))
        out, row_sent = self._fast_rows(sents.take(f_sent), s_doc[f_sent], s_idx[f_sent],
                                        s_abs[f_sent], doc_ids, urls)
        row_sent = f_sent[row_sent]
        slow = np.flatnonzero(~fast)
        if len(slow):
            o: dict[str, list] = {k: [] for k in CANDIDATE_COLUMNS}
            slow_sent = []
            for s in slow.tolist():
                sent, d, a0 = s_text[s], int(s_doc[s]), int(s_abs[s])
                url = urls[d].as_py()
                words, offs = tokenize(sent)
                before = len(o["doc_id"])
                self._process_sentence(o, doc_ids[d].as_py(), url, int(s_idx[s]),
                                       construct_stable_id(url, "sentence", a0, a0 + len(sent)),
                                       a0, sent, words, offs)
                slow_sent += [s] * (len(o["doc_id"]) - before)
            # a sentence's rows all come from one path, so a stable sort
            # on the sentence restores the per-sentence order
            order = np.argsort(np.concatenate([row_sent, slow_sent]), kind="stable")
            out = pa.concat_tables([out, self._to_table(o)]).take(order)
        return out

    def _fast_rows(self, sents: pa.Array, s_doc, s_idx, s_abs, doc_ids: pa.Array,
                   urls: pa.Array) -> tuple[pa.Table, np.ndarray]:
        """``_process_sentence`` over ASCII, NUL-free ``sents`` (with
        their doc row, index and doc offset), in Arrow → (candidate
        rows, the position in ``sents`` of each row's sentence).

        Tokenize: one RE2 pass wraps every token in NULs, so splitting
        on NUL gives alternating gap/token pieces per sentence and the
        offsets are cumulative piece lengths.  Only sentences with two
        or more first-token hits reach Python, for the greedy
        longest-match over their hit positions; pairs, texts, keys,
        predicates and ids are built over integer indices."""
        n = len(sents)
        pieces = pc.split_pattern(
            pc.replace_substring_regex(sents, _TOKEN_RE2, "\x00\\1\x00"), "\x00")
        flat = pieces.flatten()
        p_off = pieces.offsets.to_numpy().astype(np.int64)
        p_off -= p_off[0]
        n_tok = (np.diff(p_off) - 1) // 2
        tok_first = np.concatenate([[0], np.cumsum(n_tok)])
        tok_sent = np.repeat(np.arange(n), n_tok)
        # token t of sentence s is piece p_off[s] + 2t + 1
        tok_piece = p_off[tok_sent] + 2 * (np.arange(tok_first[-1]) - tok_first[tok_sent]) + 1
        plen = pc.binary_length(flat).to_numpy().astype(np.int64)
        cum = np.concatenate([[0], np.cumsum(plen)])
        tok_off = cum[tok_piece] - cum[p_off[tok_sent]]
        folded = pc.utf8_lower(flat.take(tok_piece))

        hit = pc.is_in(folded, value_set=self._first_arr).to_numpy(zero_copy_only=False)
        g = np.flatnonzero(hit & (np.bincount(tok_sent[hit], minlength=n) >= 2)[tok_sent])
        m_ws, m_we = self._scan_hits(folded, g, tok_first[tok_sent[g] + 1])

        # pairs (i, j), i before j in one sentence, in (i, j) order
        m_sent = tok_sent[m_ws]
        pi, pj = [], []
        for dist in range(1, len(m_ws)):
            same = np.flatnonzero(m_sent[dist:] == m_sent[:-dist])
            if not len(same):
                break
            pi.append(same)
            pj.append(same + dist)
        pi = np.concatenate(pi) if pi else np.zeros(0, np.int64)
        pj = np.concatenate(pj) if pj else np.zeros(0, np.int64)
        m_text = _join_ranges(flat, tok_piece[m_ws], tok_piece[m_we] + 1, "")
        m_key = normalize_entity_keys_ascii(m_text)
        key_code = pc.dictionary_encode(m_key).indices.to_numpy()
        gap = m_ws[pj] - m_we[pi] - 1
        keep = (gap <= self.max_gap) & (key_code[pi] != key_code[pj])
        order = np.lexsort((pj[keep], pi[keep]))
        pi, pj, gap = pi[keep][order], pj[keep][order], gap[keep][order]

        between = _join_ranges(folded, m_we[pi] + 1, m_ws[pj], " ")
        names = ["", *TRIGGERS]
        code = np.zeros(len(pi), np.int64)
        for k, rgx in enumerate(TRIGGERS.values(), 1):
            todo = np.flatnonzero(code == 0)
            if not len(todo):
                break
            found = pc.match_substring_regex(between.take(todo), rgx.pattern)
            code[todo[found.to_numpy(zero_copy_only=False)]] = k
        if self.cooccur_pred:
            names.append(self.cooccur_pred)
            code[(code == 0) & (gap <= self.cooccur_gap)] = len(names) - 1

        # rows: one per pair, or an f row then an r row per pair
        if self.both_orders:
            rp = np.repeat(np.arange(len(pi)), 2)
            a = np.stack([pi, pj], 1).reshape(-1)
            b = np.stack([pj, pi], 1).reshape(-1)
            direction = pa.array(["f", "r"] * len(pi), pa.string())
        else:
            rp, a, b, direction = np.arange(len(pi)), pi, pj, "f"
        row_sent = m_sent[a]
        doc = s_doc[row_sent]
        url = urls.take(doc)
        a0 = s_abs[row_sent]
        sent_text = sents.take(row_sent)
        sent_end = a0 + pc.binary_length(sent_text).to_numpy()
        m_wsr = m_ws - tok_first[m_sent]
        m_wer = m_we - tok_first[m_sent]
        pred = pa.array(names, pa.string()).take(code[rp])
        cand_id = pc.binary_join_element_wise(
            url, "::cand:", _digits(a0 + tok_off[m_ws[pi]][rp]), ":",
            _digits(a0 + (tok_off + plen[tok_piece])[m_we[pj]][rp]), ":",
            pa.array([nm or "none" for nm in names], pa.string()).take(code[rp]), ":",
            direction, "")
        sid = pc.binary_join_element_wise(url, "::sentence:", _digits(a0), ":",
                                          _digits(sent_end), "")
        pre = _join_ranges(folded, tok_first[m_sent[pi]], m_ws[pi], " ")
        return pa.table({
            "cand_stable_id": cand_id,
            "doc_id": doc_ids.take(doc),
            "url": url,
            "sent_idx": pa.array(s_idx[row_sent], pa.int32()),
            "sent_stable_id": sid,
            "pred": pred,
            "subj_text": m_text.take(a),
            "subj_key": m_key.take(a),
            "subj_word_start": pa.array(m_wsr[a], pa.int32()),
            "subj_word_end": pa.array(m_wer[a], pa.int32()),
            "obj_text": m_text.take(b),
            "obj_key": m_key.take(b),
            "obj_word_start": pa.array(m_wsr[b], pa.int32()),
            "obj_word_end": pa.array(m_wer[b], pa.int32()),
            "gap": pa.array(gap[rp], pa.int32()),
            "between_text": between.take(rp),
            "pre_text": pre.take(rp),
            "sent_text": sent_text,
        }), row_sent

    def _scan_hits(self, folded: pa.Array, g: np.ndarray, end: np.ndarray):
        """``MentionDetector._scan`` over the hit positions ``g`` only
        (global token indices of alias first tokens; ``end``: the end
        of each one's sentence) → (first, last) global token index of
        each mention, in order.  The alias lookups run in Arrow: an
        ASCII token holds no whitespace, so a space-joined n-gram
        stands for its token tuple."""
        longest = np.zeros(len(g), np.int64)
        for k in range(1, self.max_len + 1):
            ok = np.flatnonzero(g + k <= end)
            grams = _join_ranges(folded, g[ok], g[ok] + k, " ")
            found = pc.is_in(grams, value_set=self._alias_keys).to_numpy(zero_copy_only=False)
            longest[ok[found]] = k
        ws, we = [], []
        cursor = 0
        for gi, k in zip(g.tolist(), longest.tolist()):
            if k and gi >= cursor:  # a match not inside the previous mention
                ws.append(gi)
                we.append(gi + k - 1)
                cursor = gi + k
        return np.asarray(ws, np.int64), np.asarray(we, np.int64)

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
