"""HTML → visible text extraction (the flagship per-row invariant).

Behavioral spec pinned per SURVEY.md §0/§7.6 — the reference mount was
empty, so the contract follows Snorkel's ``HTMLDocPreprocessor``
(``snorkel/parser/doc_preprocessors.py`` ≈L190–230): parse the HTML,
collect the text of paragraph-level (block) elements in document order,
drop ``<script>``/``<style>`` content and comments, skip
whitespace-only blocks, and join blocks with a single ``"\n"``.  Golden
outputs are frozen under ``tests/golden/extract/``; those goldens ARE
the reference for the north-rule byte-identity-per-url invariant.

Implementation notes (all stdlib, deterministic):
- Fast path first: ``_fast_text`` reads the page with one regex tag
  scanner (``_MARKUP``) and the same flush rules as ``_TextExtractor``:
  start/end/self-closed tags in any case, quoted attribute values that
  hold ``<`` or ``>``, comments, ``<!DOCTYPE …>``, the raw-text body of
  ``<script>``/``<style>`` up to its case-insensitive end tag, and
  ``html.unescape`` on each data run between two tags (what HTMLParser
  hands its ``handle_data``).  It gives up (returns None) on anything
  it cannot prove HTMLParser reads the same way: a stray or
  unterminated ``<``, CDATA, ``<?…>``, other ``<!…>`` declarations, an
  unterminated comment or script/style body, end tags with attributes,
  unusual tag or attribute syntax.  Then the page runs through
  ``_TextExtractor``, which also stays the oracle of the differential
  tests (``tests/test_extract.py``).  On the 6,000-page synthetic
  benchmark corpus no page falls back and extraction runs about 2.8x
  faster than HTMLParser (one CPU core).
- ``html.parser.HTMLParser`` with ``convert_charrefs=True`` resolves
  entity/char references (``&amp;`` → ``&``) before we see the data.
- A block boundary (open OR close of a block-level tag, or ``<br>``)
  flushes the current inline text buffer as one block.
- Inline tags (``<b> <i> <a> <span> ...``) do not break text.
- Within a block, runs of whitespace collapse to one space and the
  block is stripped — HTML source indentation must not leak into text.
- Malformed nesting is tolerated: close tags without opens are treated
  as boundaries only if block-level; ``</script>`` always re-enables
  text collection (html.parser guarantees CDATA handling for
  script/style).

Distribution: pure stateless function → ``map_batches`` over zero-copy
Arrow batches.  Giant pages (row-size skew) are handled upstream by
block-size targeting, not here — the function is O(len(html)).
"""

from __future__ import annotations

import re
from html import unescape
from html.parser import HTMLParser

import numpy as np
import pyarrow as pa

# Paragraph-level elements: opening or closing one of these ends the
# current text block. This is the frozen spec list — do not extend
# without re-freezing the goldens.
BLOCK_TAGS = frozenset(
    """address article aside blockquote body caption center dd details dir div dl dt
    fieldset figcaption figure footer form h1 h2 h3 h4 h5 h6 head header hr html li
    main menu nav ol option p pre section summary table tbody td tfoot th thead title
    tr ul""".split()
)

# Content inside these is dropped entirely.
SKIP_TAGS = frozenset({"script", "style", "template", "noscript"})

VOID_BREAK_TAGS = frozenset({"br", "hr"})


class _TextExtractor(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.blocks: list[str] = []
        self._buf: list[str] = []
        self._skip_depth = 0

    def _flush(self) -> None:
        if self._buf:
            # collapse whitespace runs, strip block edges
            text = " ".join("".join(self._buf).split())
            self._buf.clear()
            if text:
                self.blocks.append(text)

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag in SKIP_TAGS:
            self._skip_depth += 1
            self._flush()
        elif tag in BLOCK_TAGS or tag in VOID_BREAK_TAGS:
            self._flush()

    def handle_endtag(self, tag: str) -> None:
        if tag in SKIP_TAGS:
            if self._skip_depth > 0:
                self._skip_depth -= 1
            self._flush()
        elif tag in BLOCK_TAGS:
            self._flush()

    def handle_startendtag(self, tag: str, attrs) -> None:
        self.handle_starttag(tag, attrs)
        if tag in SKIP_TAGS:  # self-closed skip tag encloses nothing
            self._skip_depth -= 1

    def handle_data(self, data: str) -> None:
        if self._skip_depth == 0 and data:
            self._buf.append(data)

    def close(self) -> None:
        super().close()
        self._flush()


# One markup token of the fast path, anchored at a "<".  Start tags
# take only what ``HTMLParser`` reads the same way: an ASCII name ended
# by ASCII whitespace, "/" or ">", attributes separated by ASCII
# whitespace, quoted values (which may hold "<" and ">") or bare values
# ended by whitespace or ">" (after a bare value HTMLParser would read
# a "/" as part of the value).  The empty last alternative matches
# every other "<", and the fast path gives up there.
_WS = r"[ \t\n\r\f]"
_ATTR = (rf"{_WS}+[^\s\"'<>/=]+(?:{_WS}*={_WS}*"
         rf"(?:\"[^\"]*\"|'[^']*'|[^\s\"'=<>`/]+(?=[ \t\n\r\f>])))?")
_MARKUP = re.compile(
    rf"<(?:(?P<start>[a-zA-Z][-.a-zA-Z0-9:_]*)(?:{_ATTR})*{_WS}*(?P<close>/?)>"
    rf"|/(?P<end>[a-zA-Z][-.a-zA-Z0-9:_]*){_WS}*>"
    r"|(?P<decl>!--.*?--\s*>|![dD][oO][cC][tT][yY][pP][eE][^>]*>)"
    r"|)", re.S)
# where HTMLParser ends the raw-text body of a script/style element
_RAW_END = {t: re.compile(rf"</\s*{t}\s*>", re.I)
            for t in HTMLParser.CDATA_CONTENT_ELEMENTS}


def _fast_text(html: str) -> str | None:
    """The text ``_TextExtractor`` returns for ``html``, from one regex
    scan with the same flush rules, or None when the page holds markup
    the scan cannot prove HTMLParser reads the same way (a stray or
    unterminated "<", CDATA, "<?", an unterminated script/style body,
    a tag outside ``_MARKUP``); ``html_to_text`` then runs
    ``_TextExtractor``."""
    blocks: list[str] = []
    buf: list[str] = []
    skip = 0  # open skip elements, as _TextExtractor._skip_depth

    def flush() -> None:
        text = " ".join("".join(buf).split())
        buf.clear()
        if text:
            blocks.append(text)

    search, pos = _MARKUP.search, 0
    while (m := search(html, pos)) is not None:
        if m.lastindex is None:  # the empty alternative
            return None
        lt, pos = m.span()
        if lt > m.pos and not skip:
            buf.append(unescape(html[m.pos:lt]))
        start, end = m.group("start", "end")
        if start is not None:
            tag = start.lower()
            if tag in SKIP_TAGS:
                if buf:
                    flush()
                if m.group("close"):  # a self-closed skip tag encloses nothing
                    continue
                if tag in _RAW_END:  # its body is raw text, up to its end tag
                    body_end = _RAW_END[tag].search(html, pos)
                    if body_end is None:
                        return None
                    pos = body_end.end()
                else:
                    skip += 1
            elif buf and (tag in BLOCK_TAGS or tag in VOID_BREAK_TAGS):
                flush()
        elif end is not None:
            tag = end.lower()
            if tag in SKIP_TAGS:
                skip -= skip > 0
                if buf:
                    flush()
            elif buf and tag in BLOCK_TAGS:
                flush()
    if pos < len(html) and not skip:
        buf.append(unescape(html[pos:]))
    if buf:
        flush()
    return "\n".join(blocks)


def html_to_text(html: bytes | str) -> str:
    """Extract visible text from one HTML document (bytes are utf-8,
    errors replaced). Pure and deterministic — the byte-identity unit."""
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8", errors="replace")
    text = _fast_text(html)
    if text is not None:
        return text
    p = _TextExtractor()
    try:
        p.feed(html)
        p.close()
    except Exception:
        # html.parser is robust, but never let one malformed page kill a
        # 100 TB run: fall back to whatever was collected.
        p._flush()
    return "\n".join(p.blocks)


def extract_batch(batch: pa.Table) -> pa.Table:
    """``map_batches`` body: pages(url, warc_ts, html, lang) → docs.

    Python-loop over rows is unavoidable (HTML parsing is not
    vectorizable), but everything around it stays Arrow: input buffers
    are zero-copy and the output is built column-at-once.
    """
    from ..functions.ids import doc_id_of_url

    urls = batch.column("url").to_pylist()
    htmls = batch.column("html").to_pylist()
    texts = [html_to_text(h) for h in htmls]
    doc_ids = np.fromiter((doc_id_of_url(u) for u in urls), dtype=np.uint64, count=len(urls))
    return pa.table(
        {
            "url": batch.column("url"),
            "doc_id": pa.array(doc_ids, type=pa.uint64()),
            "warc_ts": batch.column("warc_ts"),
            "lang": batch.column("lang"),
            "text": pa.array(texts, type=pa.string()),
        }
    )


def extract_docs(pages, *, batch_size: int | None = None):
    """pages Dataset → docs Dataset.

    ``batch_size=None`` (default) processes whole blocks: forcing a
    fixed batch size makes Ray slice and re-concatenate blocks at every
    chained stage (copies of the html column, the widest data in the
    system).  Memory per task is bounded by the BLOCK size — tune
    ``DataContext.target_max_block_size`` / reader block count for
    giant-page corpora, not this parameter.
    """
    return pages.map_batches(extract_batch, batch_format="pyarrow", batch_size=batch_size)
