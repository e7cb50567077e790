"""Tagger hook + pretagged candidate extraction (SURVEY.md M1 fn-hook, M7).

Reference: ``CorpusParser(parser=..., fn=tagger)`` writes
``entity_types`` / ``entity_cids`` onto Sentences at parse time
(``snorkel/parser/corpus_parser.py`` ≈L20), and
``PretaggedCandidateExtractor`` (``snorkel/candidates.py`` ≈L220–300)
builds candidates from those arrays with no matchers — the CDR
biomedical flow (SURVEY.md §3 E2).

Here: ``tag_sentences`` applies a user tagger callable per sentence
(words → parallel ``entity_types``/``entity_cids`` arrays, "O" = no
entity), and ``extract_pretagged_candidates`` pairs maximal same-type
runs, one candidate per (subj_type, obj_type) pair occurrence — a
stateless per-sentence map, same shuffle-free shape as the dictionary
extractor.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa

from ..functions.ids import normalize_entity_key

Tagger = Callable[[list[str]], tuple[list[str], list[str]]]


def tag_sentences(sentences, tagger: Tagger, *, batch_size: int | None = None):
    """Append entity_types / entity_cids list columns via ``tagger``."""

    def _tag(batch: pa.Table) -> pa.Table:
        words_col = batch.column("words").to_pylist()
        types_out, cids_out = [], []
        for words in words_col:
            types, cids = tagger(words)
            if len(types) != len(words) or len(cids) != len(words):
                raise ValueError("tagger must return arrays parallel to words")
            types_out.append(types)
            cids_out.append(cids)
        return (batch
                .append_column("entity_types", pa.array(types_out,
                                                        pa.list_(pa.string())))
                .append_column("entity_cids", pa.array(cids_out,
                                                       pa.list_(pa.string()))))

    return sentences.map_batches(_tag, batch_format="pyarrow", batch_size=batch_size)


def add_token_tags(sentences, tagger: Callable[[list[str]], tuple[list[str], list[str]]],
                   *, batch_size: int | None = None):
    """Populate the reference Sentence model's ``pos_tags`` /
    ``ner_tags`` token-annotation arrays (``snorkel/models/context.py``
    ≈L100–220) via a pluggable tagger: ``tagger(words) -> (pos_tags,
    ner_tags)``, both parallel to ``words``.  Downstream,
    ``RegexMatchEach(attrib='ner_tags')`` / ``PersonMatcher`` etc. run
    on the real arrays (round-1 verdict item 10).  Stateless tasks —
    move to ``state.resources.stateful_map`` with ``concurrency`` (an
    actor pool) when the tagger loads a heavy model."""

    def _tag(batch: pa.Table) -> pa.Table:
        words_col = batch.column("words").to_pylist()
        pos_out, ner_out = [], []
        for words in words_col:
            pos, ner = tagger(words)
            if len(pos) != len(words) or len(ner) != len(words):
                raise ValueError("tagger must return arrays parallel to words")
            pos_out.append(pos)
            ner_out.append(ner)
        return (batch
                .append_column("pos_tags", pa.array(pos_out, pa.list_(pa.string())))
                .append_column("ner_tags", pa.array(ner_out, pa.list_(pa.string()))))

    return sentences.map_batches(_tag, batch_format="pyarrow", batch_size=batch_size)


def add_lemmas(sentences, lemmatizer: Callable[[str], str] | None = None,
               *, batch_size: int | None = None):
    """Populate the reference Sentence model's ``lemmas``
    token-annotation array (``snorkel/models/context.py`` ≈L100–220)
    so ``attrib='lemmas'`` matchers (reference ``matchers.py``
    ≈L150–230) run on a real column.  Default lemmatizer is the
    built-in suffix stemmer (casefold + porter-lite — no spaCy/nltk in
    this env; a model lemmatizer slots in via ``lemmatizer`` or an
    actor-pool tagger stage).  Distinct-word memoization per batch:
    one stem per vocabulary entry, not per occurrence."""
    if lemmatizer is None:
        from ..functions.matchers import porter_lite_stem

        def lemmatizer(w: str) -> str:  # noqa: F811 - documented default
            return porter_lite_stem(w.casefold())

    def _lem(batch: pa.Table) -> pa.Table:
        words_col = batch.column("words").to_pylist()
        memo: dict[str, str] = {}
        out = []
        for words in words_col:
            lem = []
            for w in words:
                got = memo.get(w)
                if got is None:
                    got = memo[w] = lemmatizer(w)
                lem.append(got)
            out.append(lem)
        return batch.append_column("lemmas",
                                   pa.array(out, pa.list_(pa.string())))

    return sentences.map_batches(_lem, batch_format="pyarrow",
                                 batch_size=batch_size)


def rule_token_tagger(person_lexicon: frozenset | None = None,
                      location_lexicon: frozenset | None = None,
                      titlecase_person_fallback: bool = False):
    """Deterministic rule-based tagger factory (no NLP models in this
    env — SURVEY.md §0): POS by shape (CD numbers, NNP TitleCase, NN
    otherwise, punctuation as itself), NER by lexicon membership.
    ``titlecase_person_fallback`` additionally tags mid-sentence
    TitleCase tokens PERSON — high recall, low precision; off by
    default (it would tag "Tuesday" a person)."""
    import re as _re

    num = _re.compile(r"[0-9][0-9,.]*")
    cap = _re.compile(r"[A-Z][\w.'-]*")
    punct = _re.compile(r"\W")
    persons = person_lexicon or frozenset()
    locations = location_lexicon or frozenset()

    def _tag(words: list[str]) -> tuple[list[str], list[str]]:
        pos, ner = [], []
        for i, w in enumerate(words):
            f = w.casefold()
            if num.fullmatch(w):
                pos.append("CD")
            elif punct.fullmatch(w):
                pos.append(w)
            elif cap.fullmatch(w):
                pos.append("NNP")
            else:
                pos.append("NN")
            if f in persons:
                ner.append("PERSON")
            elif f in locations:
                ner.append("LOCATION")
            elif titlecase_person_fallback and i > 0 and cap.fullmatch(w):
                ner.append("PERSON")
            else:
                ner.append("O")
        return pos, ner

    return _tag


def _runs(types: list[str]) -> list[tuple[int, int, str]]:
    """Maximal runs of identical non-'O' tags → (start, end_incl, type)."""
    out = []
    i, n = 0, len(types)
    while i < n:
        t = types[i]
        if t and t != "O":
            j = i
            while j + 1 < n and types[j + 1] == t:
                j += 1
            out.append((i, j, t))
            i = j + 1
        else:
            i += 1
    return out


def extract_pretagged_candidates(tagged, subj_type: str, obj_type: str, *,
                                 pred: str = "", max_gap: int = 12,
                                 batch_size: int | None = None):
    """Tagged sentences → candidate rows pairing subj_type × obj_type
    runs (subject first in sentence order; reference filters
    self-relations — same here via cid equality)."""

    def _extract(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        urls = batch.column("url").to_pylist()
        sent_idxs = batch.column("sent_idx").to_numpy(zero_copy_only=False)
        sids = batch.column("sent_stable_id").to_pylist()
        abs_starts = batch.column("abs_char_start").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        words_col = batch.column("words").to_pylist()
        offs_col = batch.column("char_offsets").to_pylist()
        types_col = batch.column("entity_types").to_pylist()
        cids_col = batch.column("entity_cids").to_pylist()

        cols = {k: [] for k in
                ("cand_stable_id", "doc_id", "url", "sent_idx", "sent_stable_id",
                 "pred", "subj_text", "subj_key", "subj_cid", "subj_word_start",
                 "subj_word_end", "obj_text", "obj_key", "obj_cid",
                 "obj_word_start", "obj_word_end", "gap", "between_text",
                 "pre_text", "sent_text")}
        for r in range(len(urls)):
            words, offs, text = words_col[r], offs_col[r], texts[r]
            runs = _runs(types_col[r])
            subs = [x for x in runs if x[2] == subj_type]
            objs = [x for x in runs if x[2] == obj_type]
            folded = [w.casefold() for w in words]
            a0 = int(abs_starts[r])
            for sws, swe, _ in subs:
                for ows, owe, _ in objs:
                    if ows <= swe:  # subject first
                        continue
                    gap = ows - swe - 1
                    if gap > max_gap:
                        continue
                    s_cid = cids_col[r][sws]
                    o_cid = cids_col[r][ows]
                    if s_cid and s_cid == o_cid:  # self-relation
                        continue
                    s_cs, s_ce = offs[sws], offs[swe] + len(words[swe])
                    o_cs, o_ce = offs[ows], offs[owe] + len(words[owe])
                    cols["cand_stable_id"].append(
                        f"{urls[r]}::cand:{a0 + s_cs}:{a0 + o_ce}:{pred or 'none'}")
                    cols["doc_id"].append(doc_ids[r])
                    cols["url"].append(urls[r])
                    cols["sent_idx"].append(int(sent_idxs[r]))
                    cols["sent_stable_id"].append(sids[r])
                    cols["pred"].append(pred)
                    cols["subj_text"].append(text[s_cs:s_ce])
                    cols["subj_key"].append(normalize_entity_key(text[s_cs:s_ce]))
                    cols["subj_cid"].append(s_cid)
                    cols["subj_word_start"].append(sws)
                    cols["subj_word_end"].append(swe)
                    cols["obj_text"].append(text[o_cs:o_ce])
                    cols["obj_key"].append(normalize_entity_key(text[o_cs:o_ce]))
                    cols["obj_cid"].append(o_cid)
                    cols["obj_word_start"].append(ows)
                    cols["obj_word_end"].append(owe)
                    cols["gap"].append(gap)
                    cols["between_text"].append(" ".join(folded[swe + 1 : ows]))
                    cols["pre_text"].append(" ".join(folded[:sws]))
                    cols["sent_text"].append(text)

        return pa.table(
            {
                "cand_stable_id": pa.array(cols["cand_stable_id"], pa.string()),
                "doc_id": pa.array(np.asarray(cols["doc_id"], np.uint64), pa.uint64()),
                "url": pa.array(cols["url"], pa.string()),
                "sent_idx": pa.array(cols["sent_idx"], pa.int32()),
                "sent_stable_id": pa.array(cols["sent_stable_id"], pa.string()),
                "pred": pa.array(cols["pred"], pa.string()),
                "subj_text": pa.array(cols["subj_text"], pa.string()),
                "subj_key": pa.array(cols["subj_key"], pa.string()),
                "subj_cid": pa.array(cols["subj_cid"], pa.string()),
                "subj_word_start": pa.array(cols["subj_word_start"], pa.int32()),
                "subj_word_end": pa.array(cols["subj_word_end"], pa.int32()),
                "obj_text": pa.array(cols["obj_text"], pa.string()),
                "obj_key": pa.array(cols["obj_key"], pa.string()),
                "obj_cid": pa.array(cols["obj_cid"], pa.string()),
                "obj_word_start": pa.array(cols["obj_word_start"], pa.int32()),
                "obj_word_end": pa.array(cols["obj_word_end"], pa.int32()),
                "gap": pa.array(cols["gap"], pa.int32()),
                "between_text": pa.array(cols["between_text"], pa.string()),
                "pre_text": pa.array(cols["pre_text"], pa.string()),
                "sent_text": pa.array(cols["sent_text"], pa.string()),
            }
        )

    return tagged.map_batches(_extract, batch_format="pyarrow", batch_size=batch_size)
