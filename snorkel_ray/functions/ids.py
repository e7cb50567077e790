"""Stable ids and entity-key normalization.

Reference: ``construct_stable_id`` / ``split_stable_id`` in
``snorkel/models/context.py`` ≈L400–440 build the deterministic global
keys ``"<docname>::<type>:<absstart>:<absend>"`` that make reruns
reproducible; the DB UNIQUE constraints over them absorb duplicates.
Here the same string keys are the hash-partition / dedup keys, and
``doc_id`` is a content-free 64-bit hash of the url (stable across runs
and partitionings — never a row index).
"""

from __future__ import annotations

import hashlib
import unicodedata

# the ASCII characters Python's ``str.split()`` and ``\s`` treat as
# whitespace, as an RE2 class body
ASCII_SPACE = r" \t\n\r\x0b\x0c\x1c-\x1f"
# characters ``normalize_entity_key`` strips at the edges
_KEY_STRIP = " \t\n'\"`,;:!?()[]"


def doc_id_of_url(url: str) -> int:
    """Deterministic uint64 id for a url (blake2b-8; no PYTHONHASHSEED)."""
    return int.from_bytes(hashlib.blake2b(url.encode("utf-8"), digest_size=8).digest(), "big")


def construct_stable_id(url: str, span_type: str, abs_start: int, abs_end: int) -> str:
    return f"{url}::{span_type}:{abs_start}:{abs_end}"


def split_stable_id(stable_id: str) -> tuple[str, str, int, int]:
    parent, rest = stable_id.rsplit("::", 1)
    span_type, start, end = rest.rsplit(":", 2)
    return parent, span_type, int(start), int(end)


def normalize_entity_key(text: str) -> str:
    """Canonicalization key (SURVEY.md M15): NFKC, casefold, strip
    punctuation at the edges, collapse internal whitespace, drop dots in
    abbreviations ("Acme Corp." == "acme corp")."""
    s = unicodedata.normalize("NFKC", text).casefold()
    s = s.replace(".", "")
    s = " ".join(s.split())
    return s.strip(_KEY_STRIP)


def normalize_entity_keys_ascii(texts):
    """``normalize_entity_key`` over an Arrow string array of ASCII
    texts, in Arrow: NFKC is the identity on ASCII and ``utf8_lower``
    equals ``casefold`` there; after the whitespace collapse every
    edge whitespace is a space, which ``_KEY_STRIP`` holds, so one
    trim does both of Python's strips."""
    import pyarrow.compute as pc

    s = pc.replace_substring(pc.utf8_lower(texts), ".", "")
    s = pc.replace_substring_regex(s, f"[{ASCII_SPACE}]+", " ")
    return pc.utf8_trim(s, _KEY_STRIP)


def hash64(s: str) -> int:
    return int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "big")
