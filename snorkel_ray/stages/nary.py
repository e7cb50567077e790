"""N-ary candidate extraction (arity ≥ 2) — reference
``candidate_subclass(name, ['a','b','c'], cardinality=k)`` +
``CandidateExtractor(cls, [cspaces], [matchers])`` take a LIST of
candidate spaces and matchers, one per argument, and emit the filtered
``itertools.product`` across arities (``snorkel/candidates.py``
≈L90–220, ``snorkel/models/candidate.py`` ≈L1–180).  The binary
flagship extractor (stages/candidates.py) hard-codes subj/obj; this
module is the general form: per-arg matchers over one shared span
enumeration, product across args, reference filters
(``self_relations`` / ``nested_relations`` / ``symmetric_relations``),
one ``struct`` column per argument (SURVEY.md §1.2: dynamic arity →
struct columns + type tag).

Same physical shape as the binary path: a shuffle-free per-sentence
``map_batches`` — argument spans are born co-located in their sentence,
so no join/groupby ever happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
import pyarrow as pa

from ..functions.ids import normalize_entity_key
from ..functions.matchers import Matcher, Ngrams, Span


@dataclass(frozen=True)
class CandidateClass:
    """Schema tag for a relation type (reference ``candidate_subclass``:
    dynamically creates a table with one Span FK per arg; here it names
    the struct columns)."""

    name: str
    arg_names: tuple[str, ...]
    cardinality: int = 2  # label-model cardinality (k classes)


def candidate_subclass(name: str, arg_names: list[str],
                       cardinality: int = 2) -> CandidateClass:
    if len(arg_names) < 2:
        raise ValueError("candidate_subclass needs >= 2 argument names")
    return CandidateClass(name, tuple(arg_names), cardinality)


_ARG_STRUCT = pa.struct([
    ("text", pa.string()), ("key", pa.string()),
    ("word_start", pa.int32()), ("word_end", pa.int32()),
    ("char_start", pa.int32()), ("char_end", pa.int32()),
])


def _spans_overlap(a: Span, b: Span) -> bool:
    return not (a.word_end < b.word_start or b.word_end < a.word_start)


class NaryCandidateExtractor:
    """Per-sentence n-ary extraction: enumerate spans once per sentence,
    run each argument's matcher over them, emit the filtered product.

    Reference filter semantics (defaults match ``CandidateExtractor``):
    - ``self_relations=False``: drop tuples where two args are the SAME
      span;
    - ``nested_relations=False``: drop tuples where any two arg spans
      overlap;
    - ``symmetric_relations=False``: for args with identical matchers a
      mirror tuple duplicates the relation — require sentence order
      (word_start strictly increasing across equal-matcher arg slots).
    """

    def __init__(self, cand_class: CandidateClass, matchers: list[Matcher],
                 *, space: Ngrams | None = None, self_relations: bool = False,
                 nested_relations: bool = False, symmetric_relations: bool = False,
                 max_candidates_per_sentence: int = 200):
        if len(matchers) != len(cand_class.arg_names):
            raise ValueError("one matcher per candidate argument")
        self.cand_class = cand_class
        self.matchers = matchers
        self.space = space or Ngrams(n_max=3)
        self.self_relations = self_relations
        self.nested_relations = nested_relations
        self.symmetric_relations = symmetric_relations
        # combinatorial-blowup guard: an adversarial sentence with m
        # matches per arg yields m^n tuples; cap and move on (documented
        # volume control — the reference has no such guard and OOMs)
        self.max_per_sentence = max_candidates_per_sentence
        # arg slots sharing one matcher object are interchangeable →
        # symmetric dedup applies within those groups
        self._same_matcher = [
            [j for j in range(len(matchers)) if matchers[j] is matchers[i]]
            for i in range(len(matchers))
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        A = len(self.cand_class.arg_names)
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        urls = batch.column("url").to_pylist()
        sent_idxs = batch.column("sent_idx").to_numpy(zero_copy_only=False)
        sids = batch.column("sent_stable_id").to_pylist()
        abs_starts = batch.column("abs_char_start").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        words_col = batch.column("words").to_pylist()
        offs_col = batch.column("char_offsets").to_pylist()
        names = batch.schema.names
        pos_col = batch.column("pos_tags").to_pylist() if "pos_tags" in names else None
        ner_col = batch.column("ner_tags").to_pylist() if "ner_tags" in names else None
        lem_col = batch.column("lemmas").to_pylist() if "lemmas" in names else None

        out = {"cand_stable_id": [], "doc_id": [], "url": [], "sent_idx": [],
               "sent_stable_id": [], "pred": [], "sent_text": []}
        arg_rows: list[list[dict]] = [[] for _ in range(A)]

        for r in range(len(urls)):
            words, offs, text = words_col[r], offs_col[r], texts[r]
            spans = list(self.space(
                words, offs, text,
                pos_tags=pos_col[r] if pos_col else None,
                ner_tags=ner_col[r] if ner_col else None,
                lemmas=lem_col[r] if lem_col else None))
            per_arg = [m.apply(spans) for m in self.matchers]
            if any(not s for s in per_arg):
                continue
            a0 = int(abs_starts[r])
            emitted = 0
            for combo in product(*per_arg):
                if emitted >= self.max_per_sentence:
                    break
                ok = True
                for i in range(A):
                    for j in range(i + 1, A):
                        si, sj = combo[i], combo[j]
                        if si.word_start == sj.word_start and si.word_end == sj.word_end:
                            if not self.self_relations:
                                ok = False
                        elif _spans_overlap(si, sj):
                            if not self.nested_relations:
                                ok = False
                        if not ok:
                            break
                    if not ok:
                        break
                if ok and not self.symmetric_relations:
                    # within each equal-matcher slot group, require
                    # sentence order (kills mirror duplicates)
                    for i in range(A):
                        group = self._same_matcher[i]
                        if len(group) > 1 and i == group[0]:
                            # STRICTLY increasing full span keys: a bare
                            # word_start sort let equal-start mirror
                            # tuples (e.g. 'New' vs 'New York') emit in
                            # both orders (round-4 review)
                            keys = [(combo[j].word_start,
                                     combo[j].word_end,
                                     combo[j].char_start) for j in group]
                            if any(keys[x] >= keys[x + 1]
                                   for x in range(len(keys) - 1)):
                                ok = False
                                break
                if not ok:
                    continue
                emitted += 1
                parts = ":".join(f"{a0 + s.char_start}-{a0 + s.char_end}"
                                 for s in combo)
                out["cand_stable_id"].append(
                    f"{urls[r]}::cand:{self.cand_class.name}:{parts}")
                out["doc_id"].append(doc_ids[r])
                out["url"].append(urls[r])
                out["sent_idx"].append(int(sent_idxs[r]))
                out["sent_stable_id"].append(sids[r])
                out["pred"].append(self.cand_class.name)
                out["sent_text"].append(text)
                for i, s in enumerate(combo):
                    arg_rows[i].append({
                        "text": s.text, "key": normalize_entity_key(s.text),
                        "word_start": s.word_start, "word_end": s.word_end,
                        "char_start": s.char_start, "char_end": s.char_end,
                    })

        cols = {
            "cand_stable_id": pa.array(out["cand_stable_id"], pa.string()),
            "doc_id": pa.array(np.asarray(out["doc_id"], np.uint64), pa.uint64()),
            "url": pa.array(out["url"], pa.string()),
            "sent_idx": pa.array(out["sent_idx"], pa.int32()),
            "sent_stable_id": pa.array(out["sent_stable_id"], pa.string()),
            "pred": pa.array(out["pred"], pa.string()),
        }
        for i, an in enumerate(self.cand_class.arg_names):
            cols[an] = pa.array(arg_rows[i], _ARG_STRUCT)
        cols["sent_text"] = pa.array(out["sent_text"], pa.string())
        return pa.table(cols)


import itertools as _it

_NARY_CALL_SEQ = _it.count()


def extract_nary_candidates(sentences, cand_class: CandidateClass,
                            matchers: list[Matcher], *, space: Ngrams | None = None,
                            self_relations: bool = False,
                            nested_relations: bool = False,
                            symmetric_relations: bool = False,
                            batch_size: int | None = None):
    """sentences Dataset → n-ary candidate Dataset (struct col per arg).
    Elastic tasks with a per-worker-process extractor, same as the
    binary path."""
    import os

    from ..state.resources import stateful_map

    kwargs = dict(space=space, self_relations=self_relations,
                  nested_relations=nested_relations,
                  symmetric_relations=symmetric_relations)
    # matcher objects have no content fingerprint; a per-call token
    # (driver pid + sequence) is unique across calls and constant
    # across this call's tasks — no stale-cache collisions, full reuse
    # within the stage
    key = (cand_class, f"{os.getpid()}:{next(_NARY_CALL_SEQ)}")
    return stateful_map(
        sentences, lambda: NaryCandidateExtractor(cand_class, matchers, **kwargs),
        key=key, batch_size=batch_size)


def extract_pretagged_nary(tagged, cand_class: CandidateClass,
                           arg_types: list[str], *, batch_size: int | None = None):
    """Pretagged path parity (reference
    ``PretaggedCandidateExtractor`` generalized to arity n): build
    n-ary candidates from ``entity_types`` runs, one arg per requested
    type, sentence-ordered product with the same overlap filter."""
    from .pretagged import _runs

    if len(arg_types) != len(cand_class.arg_names):
        raise ValueError("one entity type per candidate argument")

    def _extract(batch: pa.Table) -> pa.Table:
        A = len(arg_types)
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        urls = batch.column("url").to_pylist()
        sent_idxs = batch.column("sent_idx").to_numpy(zero_copy_only=False)
        sids = batch.column("sent_stable_id").to_pylist()
        abs_starts = batch.column("abs_char_start").to_numpy(zero_copy_only=False)
        texts = batch.column("texts" if "texts" in batch.schema.names else "text"
                             ).to_pylist()
        words_col = batch.column("words").to_pylist()
        offs_col = batch.column("char_offsets").to_pylist()
        types_col = batch.column("entity_types").to_pylist()

        out = {"cand_stable_id": [], "doc_id": [], "url": [], "sent_idx": [],
               "sent_stable_id": [], "pred": [], "sent_text": []}
        arg_rows: list[list[dict]] = [[] for _ in range(A)]
        for r in range(len(urls)):
            words, offs, text = words_col[r], offs_col[r], texts[r]
            runs = _runs(types_col[r])
            per_arg = [[x for x in runs if x[2] == t] for t in arg_types]
            if any(not x for x in per_arg):
                continue
            a0 = int(abs_starts[r])
            for combo in product(*per_arg):
                # disjoint + sentence-ordered (runs of one type never
                # overlap; cross-type overlap impossible by construction)
                if any(combo[i + 1][0] <= combo[i][1] for i in range(A - 1)):
                    continue
                parts = []
                for ws, we, _ in combo:
                    cs, ce = offs[ws], offs[we] + len(words[we])
                    parts.append(f"{a0 + cs}-{a0 + ce}")
                out["cand_stable_id"].append(
                    f"{urls[r]}::cand:{cand_class.name}:{':'.join(parts)}")
                out["doc_id"].append(doc_ids[r])
                out["url"].append(urls[r])
                out["sent_idx"].append(int(sent_idxs[r]))
                out["sent_stable_id"].append(sids[r])
                out["pred"].append(cand_class.name)
                out["sent_text"].append(text)
                for i, (ws, we, _) in enumerate(combo):
                    cs, ce = offs[ws], offs[we] + len(words[we])
                    arg_rows[i].append({
                        "text": text[cs:ce], "key": normalize_entity_key(text[cs:ce]),
                        "word_start": ws, "word_end": we,
                        "char_start": cs, "char_end": ce,
                    })

        cols = {
            "cand_stable_id": pa.array(out["cand_stable_id"], pa.string()),
            "doc_id": pa.array(np.asarray(out["doc_id"], np.uint64), pa.uint64()),
            "url": pa.array(out["url"], pa.string()),
            "sent_idx": pa.array(out["sent_idx"], pa.int32()),
            "sent_stable_id": pa.array(out["sent_stable_id"], pa.string()),
            "pred": pa.array(out["pred"], pa.string()),
        }
        for i, an in enumerate(cand_class.arg_names):
            cols[an] = pa.array(arg_rows[i], _ARG_STRUCT)
        cols["sent_text"] = pa.array(out["sent_text"], pa.string())
        return pa.table(cols)

    return tagged.map_batches(_extract, batch_format="pyarrow",
                              batch_size=batch_size)
