"""The fused candidate map: the columnar fast path of
``CandidateExtractor.process_docs`` against the per-sentence
``_process_sentence`` it falls back to, table-equal with row order
included."""

import hypothesis.strategies as st
import pyarrow as pa
from hypothesis import given, settings

from snorkel_ray.functions.ids import (construct_stable_id, doc_id_of_url,
                                       normalize_entity_key, normalize_entity_keys_ascii)
from snorkel_ray.stages.candidates import CANDIDATE_COLUMNS, CandidateExtractor
from snorkel_ray.stages.extract import html_to_text
from snorkel_ray.stages.sentences import split_sentences, tokenize
from snorkel_ray.synth import alias_table, build_kb, plan_page, render_html

_ALIAS_NAMES = ["Acme", "Acme Corp", "ACME Corporation", "Globex", "Bob Lee", "J. Smith",
                "x-acme", "Acme's", "R2D2", "_under_score", "Zürich", "Bob", "Lee"]
ALIASES = pa.table({
    "alias": _ALIAS_NAMES,
    "entity_qid": [f"Q{i}" for i in range(len(_ALIAS_NAMES))],
    "prior": pa.array([1.0] * len(_ALIAS_NAMES), pa.float32()),
})
# every option the fast path has to mirror, with a small max_gap
OPTIONS = [{}] + [{"cooccur_pred": c, "both_orders": b, "max_gap": 3, "cooccur_gap": 2}
                  for c in (None, "near") for b in (False, True)]
EXTRACTORS = [CandidateExtractor(ALIASES, **o) for o in OPTIONS]


def _docs(texts: list[str]) -> pa.Table:
    urls = [f"https://t.test/{i}" for i in range(len(texts))]
    return pa.table({"url": urls,
                     "doc_id": pa.array([doc_id_of_url(u) for u in urls], pa.uint64()),
                     "text": texts})


def _per_sentence(ex: CandidateExtractor, docs: pa.Table) -> pa.Table:
    """The oracle: ``_process_sentence`` on every sentence, in order."""
    o = {k: [] for k in CANDIDATE_COLUMNS}
    for did, url, text in zip(*(docs.column(c).to_pylist() for c in ("doc_id", "url", "text"))):
        for idx, (a0, sent) in enumerate(split_sentences(text)):
            words, offs = tokenize(sent)
            ex._process_sentence(o, did, url, idx,
                                 construct_stable_id(url, "sentence", a0, a0 + len(sent)),
                                 a0, sent, words, offs)
    return ex._to_table(o)


def _assert_same(ex: CandidateExtractor, docs: pa.Table) -> None:
    got, want = ex.process_docs(docs), _per_sentence(ex, docs)
    assert got.schema == want.schema
    assert got.to_pylist() == want.to_pylist()
    assert got.equals(want)


_words = st.sampled_from([
    "Acme", "ACME", "aCmE", "Acme Corp", "acme corp.", "ACME Corporation", "Globex",
    "globex's", "Bob Lee", "BOB lee", "J. Smith", "j smith", "x-acme", "X-Acme", "acme's",
    "Acme's", "x--acme", "acme-", "R2D2", "r2d2", "_under_score", "acme_1", "1acme", "Bob",
    "Lee", "Corp.", "Inc.", "Dr.", "St.", "e.g.", "founded by", "based in", "acquired",
    "ceo of", "works for", "lies within", "the", "a", "and", "of", ",", "(", ")", "\"", "'",
    "-", "--", ";", "!", "?", "...", "\x7f",
])
_odd = st.sampled_from(["Zürich", "café", "naïve", "Ａcme", "\x00", "a\x00b", "Acme\x00"])
_space = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e",
                          "\x1f", " \x1f ", ". ", "! ", "? ", "\n"])
_text = st.lists(st.tuples(st.one_of(_words, _words, _words, _odd), _space), max_size=30) \
    .map(lambda parts: "".join(w + s for w, s in parts))


@given(st.lists(_text, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_fast_path_equals_per_sentence_path(texts):
    """Differential over generated blocks that mix ASCII sentences
    (alias surface forms in any case, hyphen/apostrophe tokens, digits
    and ``_``, every ASCII whitespace, abbreviations, trigger phrases)
    with non-ASCII and NUL sentences: every option set gives the
    per-sentence path's table, row order included."""
    docs = _docs(texts)
    for ex in EXTRACTORS:
        _assert_same(ex, docs)


def test_mixed_block_takes_both_paths_in_order():
    """One block whose fast and fallback sentences interleave: the
    fallback runs exactly on the non-ASCII and NUL sentences, and their
    rows land between the fast rows of the sentences around them."""
    docs = _docs([
        "Acme was founded by Bob Lee. Zürich acquired Acme Corp and Globex.",
        "Globex is based in R2D2.\nBob\x00 works for Acme and Globex. J. Smith joined Acme.",
        "nothing here",
        "Ａcme acquired Globex. Acme's ceo of x-acme acquired Globex.",
    ])
    for ex in EXTRACTORS:
        seen = []
        per_sentence = ex._process_sentence
        ex._process_sentence = lambda o, *a: seen.append(a[-3]) or per_sentence(o, *a)
        try:
            got = ex.process_docs(docs)
        finally:
            del ex._process_sentence
        assert seen == ["Zürich acquired Acme Corp and Globex.",
                        "Bob\x00 works for Acme and Globex.",
                        "Ａcme acquired Globex."]
        assert got.equals(_per_sentence(ex, docs))
        sents = got.column("sent_text").to_pylist()
        assert seen[0] in sents and sents[0].isascii() and sents[-1].isascii()


def test_synth_sentences_take_the_fast_path():
    """No sentence of the synth corpus (every language) falls back: a
    fast path that quietly gives up everywhere still passes the
    differential tests above."""
    kb = build_kb(42)
    docs = _docs([html_to_text(render_html(plan_page(i, kb, 42))) for i in range(300)])
    for opts in OPTIONS[:1] + OPTIONS[-1:]:
        ex = CandidateExtractor(alias_table(kb), **opts)
        want = _per_sentence(ex, docs)

        def fallback(*a):
            raise AssertionError(f"synth sentence left the fast path: {a[-3]!r}")

        ex._process_sentence = fallback
        got = ex.process_docs(docs)
        assert got.num_rows > 500 and got.equals(want)


@given(st.text(alphabet=st.characters(max_codepoint=127), max_size=40))
@settings(max_examples=300, deadline=None)
def test_ascii_entity_keys_equal_normalize_entity_key(text):
    got = normalize_entity_keys_ascii(pa.array([text], pa.string())).to_pylist()
    assert got == [normalize_entity_key(text)]
