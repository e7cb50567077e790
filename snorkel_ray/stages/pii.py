"""PII redaction: regex scrubbing of emails / IPv4 addresses / phone
numbers from a text column.

Brief-mandated training-data-pipeline family (no direct reference
analog; nearest ancestry is the regex machinery of
``snorkel/matchers.py`` ≈L60–140).  A stateless vectorized
``map_batches`` stage: patterns compile once per worker process (the
same elastic-task + per-worker-cache shape as ``analyze_text`` —
CLAUDE.md rule 2: an actor pool would cap whatever chain this fuses
into).  Patterns are deliberately RE2-compatible (no backreferences,
no lookaround) so the scrub is replicable in DuckDB
``regexp_replace(..., 'g')`` and therefore oracle-checkable.

Redaction order is fixed (email → ipv4 → phone): the phone pattern
could otherwise eat digit runs inside an address.  ``redact_pii``
appends optional per-kind match-count columns for removal-rate
monitoring; counting is ``subn`` on the already-required pass, not a
second scan.
"""

from __future__ import annotations

import re

import pyarrow as pa

__all__ = ["PII_PATTERNS", "redact_pii", "PiiRedactor"]

# ordered: email first (contains dots+digits), then ipv4, then the
# greedier phone pattern over what remains
PII_PATTERNS: dict[str, tuple[str, str]] = {
    "email": (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    "ipv4": (r"\b(?:\d{1,3}\.){3}\d{1,3}\b", "<IP>"),
    "phone": (r"\+?\d{1,3}[-. ]\(?\d{2,4}\)?[-. ]\d{3,4}(?:[-. ]\d{2,4})?",
              "<PHONE>"),
}


class PiiRedactor:
    """Callable batch stage: rewrites ``column`` with PII replaced and
    (``stats=True``) appends ``n_<kind>`` int64 count columns."""

    def __init__(self, column: str = "text",
                 patterns: dict[str, tuple[str, str]] | None = None,
                 stats: bool = False):
        self.column = column
        self.stats = stats
        src = patterns if patterns is not None else PII_PATTERNS
        self.compiled = [(k, re.compile(p), repl)
                         for k, (p, repl) in src.items()]

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.column).to_pylist()
        counts = {k: [] for k, _, _ in self.compiled}
        out = []
        for t in texts:
            for k, rx, repl in self.compiled:
                t, n = rx.subn(repl, t)
                counts[k].append(n)
            out.append(t)
        i = batch.schema.get_field_index(self.column)
        batch = batch.set_column(i, self.column, pa.array(out, pa.string()))
        if self.stats:
            for k, _, _ in self.compiled:
                batch = batch.append_column(
                    f"n_{k}", pa.array(counts[k], pa.int64()))
        return batch


def redact_pii(ds, column: str = "text", *,
               patterns: dict[str, tuple[str, str]] | None = None,
               stats: bool = False, batch_size: int | None = None):
    """Scrub PII from ``column``; see :class:`PiiRedactor`."""
    from ..state.resources import stateful_map

    # insertion ORDER is part of the redactor's semantics (phone can
    # eat digit runs inside an address), so the cache key must keep it
    # (round-4 review: sorting let two differently-ordered pattern
    # dicts share one worker-cached redactor)
    key = (column, stats,
           tuple(patterns.items()) if patterns is not None else None)
    return stateful_map(ds, lambda: PiiRedactor(column, patterns, stats), key=key,
                        batch_size=batch_size)
