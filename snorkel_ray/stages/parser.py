"""Parser plug-in protocol (SURVEY.md M1/M2/T1 + §2.10 parser hook).

Reference: ``CorpusParser(parser=Spacy(), fn=tagger)``
(``snorkel/parser/corpus_parser.py`` ≈L20) accepts any parser object
and an optional per-sentence post-hook; heavyweight parsers load their
model once per ``UDF`` process (``snorkel/udf.py`` ≈L60–100).

Here a Parser is any object with:

- ``heavy: bool`` — True → actor pool (model loaded once per actor in
  ``__init__``), False → elastic tasks (the parser ships in the task
  closure);
- ``__call__(docs_batch: pa.Table) -> pa.Table`` mapping the docs
  schema to the sentences schema (``schemas.SENTENCES``).

``RuleParser`` (the default, and the only one available in this
environment — no spaCy/CoreNLP installed) wraps the deterministic
rule-based splitter/tokenizer.  A spaCy-style parser slots in by
setting ``heavy=True`` and loading the model in ``__init__`` — the
pipeline code below needs no change (reference parity for M2/M3 at the
protocol level; the models themselves are out of environment scope).
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

import pyarrow as pa

from .sentences import sentences_batch


@runtime_checkable
class Parser(Protocol):
    heavy: bool

    def __call__(self, docs_batch: pa.Table) -> pa.Table: ...


class RuleParser:
    """Deterministic rule-based parser (SURVEY.md M4) with an optional
    per-sentence-batch tagger hook ``fn`` (the ``CorpusParser(fn=...)``
    surface — e.g. ``pretagged.tag_sentences``-style taggers)."""

    heavy = False

    def __init__(self, fn: Callable[[pa.Table], pa.Table] | None = None):
        self.fn = fn

    def __call__(self, docs_batch: pa.Table) -> pa.Table:
        out = sentences_batch(docs_batch)
        return self.fn(out) if self.fn is not None else out


def parse_docs(docs, parser: Parser | None = None, *, batch_size: int | None = None,
               concurrency=None):
    """docs Dataset → sentences Dataset through any Parser plug-in."""
    if parser is None:
        parser = RuleParser()
    if getattr(parser, "heavy", False):
        # heavy state is built ONCE PER ACTOR via a builder callable:
        # zero-arg parser classes build in __init__ (the protocol
        # default); parsers with constructor arguments must provide
        # build_per_actor() returning a configured instance — the old
        # bare type(parser)() silently re-instantiated with defaults,
        # dropping the model choice / fn hook (round-4 review)
        builder = getattr(parser, "build_per_actor", None)
        if builder is None:
            import inspect

            cls = type(parser)
            required = [
                p.name for p in inspect.signature(cls).parameters.values()
                if p.default is p.empty
                and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD,
                               p.KEYWORD_ONLY)]
            if required:
                raise TypeError(
                    f"heavy parser {cls.__name__} takes required "
                    f"constructor args {required}; provide a "
                    "build_per_actor() method returning the configured "
                    "instance so each actor can build its own state")
            builder = cls

        from ..state.resources import pool_concurrency, stateful_map

        return stateful_map(docs, builder, concurrency=concurrency or pool_concurrency(),
                            batch_size=batch_size)

    # light parser: the object itself ships in the task closure (small
    # by contract — heavy=False means no model payload)
    def _parse(batch: pa.Table) -> pa.Table:
        return parser(batch)

    return docs.map_batches(_parse, batch_format="pyarrow", batch_size=batch_size)
