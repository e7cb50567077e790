"""Text-analysis operators: language-ID, quality scoring, token
counting, document fingerprinting.

Brief-mandated family (no direct reference analog; nearest ancestry is
the LF helper string utilities, ``snorkel/lf_helpers.py`` ≈L1–150).
All are stateless vectorized ``map_batches`` stages; the language-ID
profile table and stopword sets are compiled once per worker.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa

_WORD_RE = re.compile(r"\w+", re.UNICODE)
# BPE-ish fallback tokenizer: words, numbers, or single non-space chars
_BPE_RE = re.compile(r"\w+(?:'\w+)?|[^\w\s]", re.UNICODE)

# tiny n-gram/stopword profiles for a deterministic heuristic lang-id —
# intentionally simple, vocabulary-level (public-knowledge stopwords)
_LANG_MARKERS: dict[str, frozenset] = {
    "en": frozenset("the and of to in is was for with that on as are at".split()),
    "de": frozenset("der die das und ist von zu mit den im für auf ein eine".split()),
    "es": frozenset("el la los las de y en que un una es por con para".split()),
    "fr": frozenset("le la les de et un une est dans pour que des au".split()),
    "it": frozenset("il lo la gli le di e che un una per con del della".split()),
    "pt": frozenset("o os as de e que um uma não com para por mais".split()),
    "nl": frozenset("de het een en van dat is op te met voor zijn niet".split()),
    "sv": frozenset("och att det som en på är av för med den till inte".split()),
}

_STOPWORDS_EN = _LANG_MARKERS["en"] | frozenset("a an it this by be or".split())


def detect_lang(text: str) -> str:
    """Heuristic language-ID: stopword-marker voting, CJK codepoint
    check for zh; 'und' when nothing matches."""
    for ch in text[:200]:
        if "一" <= ch <= "鿿":
            return "zh"
    words = _WORD_RE.findall(text.lower()[:2000])
    if not words:
        return "und"
    best, best_n = "und", 0
    for lang, markers in _LANG_MARKERS.items():
        n = sum(1 for w in words if w in markers)
        if n > best_n:
            best, best_n = lang, n
    return best if best_n >= max(1, len(words) // 50) else "und"


def quality_features(text: str) -> tuple[float, float, float, int, float]:
    """(stopword_ratio, punct_ratio, mean_word_len, n_words, score).
    Deterministic quality heuristic in [0,1]: rewards stopword presence
    and sane word lengths, penalizes punctuation soup."""
    return _quality_from_words(text, _WORD_RE.findall(text.lower()))


def _quality_from_words(text: str, words: list[str]):
    """quality_features over an already-tokenized (lowered) word list
    so the analyzer tokenizes each document once, not once per
    feature family."""
    n = len(words)
    if n == 0:
        return 0.0, 0.0, 0.0, 0, 0.0
    stop = sum(1 for w in words if w in _STOPWORDS_EN) / n
    punct = sum(1 for c in text if not c.isalnum() and not c.isspace()) / max(len(text), 1)
    mwl = sum(map(len, words)) / n
    score = max(0.0, min(1.0, 0.5 * min(stop / 0.3, 1.0)
                         + 0.3 * (1.0 - min(punct / 0.2, 1.0))
                         + 0.2 * (1.0 if 3.0 <= mwl <= 8.0 else 0.0)))
    return stop, punct, mwl, n, score


def count_tokens(text: str) -> tuple[int, int]:
    """(whitespace_tokens, bpe_ish_tokens)."""
    ws = len(text.split())
    bpe = len(_BPE_RE.findall(text))
    return ws, bpe


def _fingerprint_from_words(words: list[str], window: int) -> int:
    """min rolling-window hash over word n-grams, computed from an
    already-tokenized word list: one memoized blake2b per DISTINCT
    word + a vectorized position-mixed combine (dedup.py's shingle
    kernel) instead of one blake2b per n-gram — the n-gram hashing was
    the hot loop of the analyzer (n_words digests per document)."""
    if not words:
        return 0
    from .dedup import _combine_shingles, _word_hash

    wh = np.fromiter((_word_hash(w) for w in words), dtype=np.uint64,
                     count=len(words))
    return int(_combine_shingles(wh, window).min())


def fingerprint64(text: str, window: int = 8) -> int:
    """Winnowing-style document fingerprint: min rolling-window hash of
    word 8-grams (robust to local edits; deterministic)."""
    return _fingerprint_from_words(_WORD_RE.findall(text.lower()), window)


# exactly the chars the scalar kernel counts: (not isalnum and not
# isspace) — CPython's \w is isalnum|underscore and \s is isspace, so
# [^\w\s] plus underscore is the identical class, evaluated in one C
# regex scan instead of a per-char Python loop
_PUNCT_RE = re.compile(r"[^\w\s]|_", re.UNICODE)
_CJK_RE = re.compile("[一-鿿]")
_LANG_NAMES = list(_LANG_MARKERS)


def analyze_batch(texts: list) -> dict[str, np.ndarray]:
    """Vectorized batch analyzer, parity-equal per text to the scalar
    kernels above (round-3 verdict item 5 — the per-row loop paid a
    Python dict lookup per word occurrence).  ONE tokenization per doc
    shared by every feature family, ONE ``pd.factorize`` over the batch
    vocabulary, per-DISTINCT-word stopword/length/hash lookups, then
    segmented ``np.add.reduceat`` per-doc sums.  Null texts behave as
    empty strings."""
    import pandas as pd

    from .dedup import _combine_shingles, _word_hash

    n_docs = len(texts)
    raw = [t or "" for t in texts]
    lowered = [t.lower() for t in raw]
    words_per = [_WORD_RE.findall(tl) for tl in lowered]
    lens = np.fromiter((len(w) for w in words_per), dtype=np.int64,
                       count=n_docs)
    offs = np.concatenate([[0], np.cumsum(lens)])
    ne = lens > 0
    total = int(lens.sum())

    stop_cnt = np.zeros(n_docs, np.int64)
    len_sum = np.zeros(n_docs, np.int64)
    fps = np.zeros(n_docs, np.uint64)
    if total:
        all_words = [w for ws in words_per for w in ws]
        codes, uniques = pd.factorize(np.asarray(all_words, dtype=object))
        u_stop = np.fromiter((w in _STOPWORDS_EN for w in uniques),
                             dtype=np.int64, count=len(uniques))
        u_len = np.fromiter((len(w) for w in uniques), dtype=np.int64,
                            count=len(uniques))
        u_hash = np.fromiter((_word_hash(w) for w in uniques),
                             dtype=np.uint64, count=len(uniques))
        starts = offs[:-1][ne]
        stop_cnt[ne] = np.add.reduceat(u_stop[codes], starts)
        len_sum[ne] = np.add.reduceat(u_len[codes], starts)
        flat_hash = u_hash[codes]
        for i in np.flatnonzero(ne):
            fps[i] = _combine_shingles(
                flat_hash[offs[i]:offs[i + 1]], 8).min()

    nf = np.maximum(lens.astype(np.float64), 1.0)
    stop = np.where(ne, stop_cnt / nf, 0.0)
    mwl = np.where(ne, len_sum / nf, 0.0)
    # scalar kernel returns all-zero features (incl. punct) for
    # zero-word texts, so mask the punct scan the same way
    punct = np.fromiter(
        (len(_PUNCT_RE.findall(t)) / max(len(t), 1) if w else 0.0
         for t, w in zip(raw, ne)),
        dtype=np.float64, count=n_docs)
    score = np.where(ne, np.clip(
        0.5 * np.minimum(stop / 0.3, 1.0)
        + 0.3 * (1.0 - np.minimum(punct / 0.2, 1.0))
        + 0.2 * ((mwl >= 3.0) & (mwl <= 8.0)), 0.0, 1.0), 0.0)

    # --- lang-id over the first-2000-LOWERED-chars token stream (the
    # scalar kernel lowercases the full text before slicing; reuse the
    # full tokenization when no truncation happened)
    lang_words = [words_per[i] if len(lowered[i]) <= 2000
                  else _WORD_RE.findall(lowered[i][:2000])
                  for i in range(n_docs)]
    llens = np.fromiter((len(w) for w in lang_words), dtype=np.int64,
                        count=n_docs)
    lne = llens > 0
    marker_counts = np.zeros((n_docs, len(_LANG_NAMES)), np.int64)
    if int(llens.sum()):
        lflat = [w for ws in lang_words for w in ws]
        lcodes, luniq = pd.factorize(np.asarray(lflat, dtype=object))
        umark = np.stack(
            [np.fromiter((w in _LANG_MARKERS[lg] for w in luniq),
                         dtype=np.int64, count=len(luniq))
             for lg in _LANG_NAMES], axis=1)  # (distinct, n_langs)
        loffs = np.concatenate([[0], np.cumsum(llens)])
        marker_counts[lne] = np.add.reduceat(
            umark[lcodes], loffs[:-1][lne], axis=0)
    best_idx = marker_counts.argmax(axis=1)  # first max = dict order
    best_n = marker_counts.max(axis=1)
    thresh = np.maximum(1, llens // 50)
    langs = np.where(best_n >= thresh,
                     np.asarray(_LANG_NAMES, dtype=object)[best_idx],
                     "und")
    cjk = np.fromiter((_CJK_RE.search(t[:200]) is not None for t in raw),
                      dtype=bool, count=n_docs)
    langs[cjk] = "zh"

    return {
        "lang_pred": langs,
        "stopword_ratio": stop,
        "punct_ratio": punct,
        "mean_word_len": mwl,
        "n_words": lens,
        "quality": score,
        "ws_tokens": np.fromiter((len(t.split()) for t in raw),
                                 dtype=np.int64, count=n_docs),
        "bpe_tokens": np.fromiter((len(_BPE_RE.findall(t)) for t in raw),
                                  dtype=np.int64, count=n_docs),
        "fingerprint": fps,
    }


class TextAnalyzer:
    """Batch stage appending lang_pred / quality / token counts /
    fingerprint columns to any table with ``text`` (vectorized batch
    kernel; see :func:`analyze_batch`)."""

    def __init__(self, column: str = "text"):
        self.column = column

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = analyze_batch(batch.column(self.column).to_pylist())
        out = batch
        for name, arr in feats.items():
            typ = (pa.string() if arr.dtype == object
                   else pa.uint64() if arr.dtype == np.uint64
                   else pa.int64() if arr.dtype == np.int64
                   else pa.float64())
            out = out.append_column(name, pa.array(arr, typ))
        return out


def analyze_text(ds, *, column: str = "text", batch_size: int | None = None,
                 concurrency=None):
    """Default: elastic tasks with a per-worker analyzer — the state
    (compiled regex profiles) is light, and an actor pool would cap
    whatever chain this fuses into (CLAUDE.md rule 2).  Set
    ``concurrency`` for an actor pool (e.g. if a model-backed analyzer
    replaces the heuristics)."""
    from ..state.resources import stateful_map

    return stateful_map(ds, lambda: TextAnalyzer(column), key=column,
                        concurrency=concurrency, batch_size=batch_size)
