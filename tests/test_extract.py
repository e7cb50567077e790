"""Byte-identity tests for the flagship extractor (FIXTURES.md F5).

The frozen goldens in tests/golden/extract_goldens.json ARE the
reference for the north-rule per-url byte-identity invariant
(SURVEY.md §0: the reference mount was empty; the pinned extractor
spec stands in)."""

import json
import os

import hypothesis.strategies as st
from hypothesis import given, settings

from snorkel_ray.stages.extract import _fast_text, _TextExtractor, html_to_text
from snorkel_ray.synth import build_kb, expected_text, plan_page, render_html

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "extract_goldens.json")


def test_golden_corpus_byte_identity():
    with open(GOLDEN) as f:
        cases = json.load(f)
    assert len(cases) >= 30
    for name, case in cases.items():
        got = html_to_text(case["html"])
        assert got == case["text"], f"extractor drift on golden case {name!r}"


def test_synth_corpus_byte_identity():
    kb = build_kb(42)
    for i in range(300):
        plan = plan_page(i, kb, 42)
        assert html_to_text(render_html(plan)) == expected_text(plan), f"page {i}"


def test_goldens_and_synth_pages_take_the_fast_path():
    """Every golden and every synth page is read by the regex fast path
    itself, not by the HTMLParser fallback: a fast path that quietly
    gives up everywhere still passes the byte-identity tests above."""
    with open(GOLDEN) as f:
        cases = json.load(f)
    for name, case in cases.items():
        assert _fast_text(case["html"]) == case["text"], name
    kb = build_kb(42)
    for i in range(300):
        plan = plan_page(i, kb, 42)
        html = render_html(plan).decode()
        assert _fast_text(html) == expected_text(plan), f"page {i}"


def _parser_text(html: str) -> str:
    p = _TextExtractor()
    p.feed(html)
    p.close()
    return "\n".join(p.blocks)


# generated HTML for the fast-path differential tests
_names = st.sampled_from(["p", "div", "b", "i", "span", "a", "br", "hr", "li", "h1", "td",
                          "table", "title", "template", "noscript", "pre", "img", "em",
                          "body", "head", "my-el", "x:y"])
_cased = st.builds(lambda s, flips: "".join(c.upper() if f else c for c, f in zip(s, flips)),
                   _names, st.lists(st.booleans(), min_size=8, max_size=8))
_ws = st.text(" \t\n\r\f", max_size=2)
_ws1 = st.text(" \t\n\r\f", min_size=1, max_size=2)
_text = st.lists(st.sampled_from(list("ab z;#&='\"/>\n\t") + [
    "\x00", "é", "\xa0", "\x0b", "\x1c", "&amp;", "&lt;", "&#46;", "&#x27;", "&amp",
    "&bogus;", "&#", "&gt"]), max_size=6).map("".join)
_quoted = st.one_of(
    st.sampled_from(["", "<p>fake</p>", "a > b", "it's", "</script>", "x&amp;y"]).map(
        lambda v: f'"{v}"'),
    st.sampled_from(["", "<p>fake</p>", 'say "hi"', "a<b", "</div>"]).map(lambda v: f"'{v}'"))
_attr_name = st.sampled_from(["class", "data-x", "href", "disabled", "id", "A"])
_attr = st.one_of(
    _attr_name,
    st.builds(lambda n, a, b, v: f"{n}{a}={b}{v}", _attr_name, _ws, _ws, _quoted))
_bare = st.builds(lambda n, v: f"{n}={v}", _attr_name, st.sampled_from(["x", "1", "a.b", "#f00"]))


@st.composite
def _start_tag(draw, name=_cased):
    attrs = "".join(draw(_ws1) + a for a in draw(st.lists(_attr, max_size=2)))
    if draw(st.booleans()):  # a bare value, then whitespace or ">" (never "/")
        attrs += draw(_ws1) + draw(_bare)
        return f"<{draw(name)}{attrs}{draw(_ws1)}{draw(st.sampled_from(['', '/']))}>" \
            if draw(st.booleans()) else f"<{draw(name)}{attrs}>"
    return f"<{draw(name)}{attrs}{draw(_ws)}{draw(st.sampled_from(['', '', '/']))}>"


_raw_body = st.lists(st.sampled_from(["x", "a < b", "</div>", "<p>", "</scriptx>", "</stylex",
                                      "&amp;", " ", "<!--", "'</style'", "</noscript>",
                                      "<template>"]), max_size=4)


@st.composite
def _raw_element(draw):
    tag = draw(st.sampled_from(["script", "style", "SCRIPT", "Style"]))
    return (f"<{tag}{draw(_ws)}>" + "".join(draw(_raw_body))
            + f"</{tag.swapcase()}{draw(_ws)}>")


_fragment = st.one_of(
    _text,
    _start_tag(),
    st.builds(lambda n, w: f"</{n}{w}>", _cased, _ws),
    st.builds(lambda body, end: f"<!--{body}{end}", st.sampled_from(
        ["", " hidden ", "<p>x</p>", " a -- b ", "-"]), st.sampled_from(["-->", "-- >", "--\n>"])),
    st.sampled_from(["<!DOCTYPE html>", "<!doctype html>", "<!DocType x y>",
                     "<script src='x'/>", "<style/>", "<noscript />", "<TEMPLATE a='<b>'/>"]),
    _raw_element(),
)
_noise = st.sampled_from([
    "<", "< p>", "<![CDATA[x<p>]]>", "<?xml v?>", "<!x>", "</>", "</ p>", "<p", "<!--",
    "<script>x", '<a b="c>', "<a x=y/>", '<a x="1"y="2">', "<p\xa0class=x>", "</p foo>",
    "<a ==b>", "a<b", "<p\x0b>", "<a b='c'/ >", "<!doctype", "</p", "<a x= >",
    "<template x=y/>"])


@given(st.lists(_fragment, max_size=12).map("".join))
@settings(max_examples=400, deadline=None)
def test_fast_path_reads_well_formed_html_like_html_parser(html):
    """Differential: on generated HTML that stays inside the fast
    path's grammar (quoted attributes holding < and >, entities,
    comments, DOCTYPE, mixed-case and self-closed tags, script/style
    bodies holding </div> or </scriptx, unclosed tags, nested blocks)
    the fast path answers, and answers what HTMLParser does."""
    assert _fast_text(html) == _parser_text(html)


@given(st.tuples(st.lists(_fragment, max_size=6), _noise, st.lists(_fragment, max_size=6))
       .map(lambda t: "".join(t[0]) + t[1] + "".join(t[2])))
@settings(max_examples=400, deadline=None)
def test_fast_path_gives_up_or_agrees_on_any_html(html):
    """Differential with markup outside the grammar mixed in (stray
    "<", CDATA, "<?", unterminated tags/comments/script bodies): the
    fast path either gives up or returns HTMLParser's text, and
    html_to_text returns HTMLParser's text either way."""
    fast = _fast_text(html)
    assert fast is None or fast == _parser_text(html)
    assert html_to_text(html) == _parser_text(html)


def test_fast_path_gives_up_on_markup_it_cannot_prove():
    for html in ["a < b", "<![CDATA[x]]><p>y</p>", "<?xml v?><p>y</p>", "<p>unterminated <b",
                 "<script>never closed", "<!-- open", '<a x="1"y="2">t</a>', "<a href=x/>t",
                 "<template x=y/><p>hidden</p>"]:
        assert _fast_text(html) is None, html
        assert html_to_text(html) == _parser_text(html), html


def test_nul_passes_through_like_html_parser():
    html = "<p>Acme\x00 Corp</p><p a='\x00'>x\x00</p>"
    assert _fast_text(html) == _parser_text(html) == "Acme\x00 Corp\nx\x00"


def test_bytes_input_utf8():
    assert html_to_text("<p>café</p>".encode()) == "café"
    # invalid utf-8 must not raise
    assert "caf" in html_to_text(b"<p>caf\xff\xe9</p>")


def test_giant_page():
    kb = build_kb(42)
    plan = plan_page(0, kb, 42)  # i % 997 == 0 -> giant
    assert plan["giant"]
    text = html_to_text(render_html(plan))
    assert text == expected_text(plan)
    assert text.count("\n") >= 100


def test_expected_triples_generator_frozen():
    """Drift guard: the planted-truth generator is part of the golden
    contract (SURVEY.md §0 — it IS the reference); any change to
    synth.py that alters the planted facts must consciously re-freeze
    this hash (and bump SYNTH_VERSION)."""
    import hashlib

    from snorkel_ray.synth import expected_triples

    g = expected_triples(1000, 42)
    canon = "\n".join(
        f"{a}|{b}|{c}"
        for a, b, c in zip(*[g.column(c).to_pylist()
                             for c in ("subj_qid", "pred", "obj_qid")])
    )
    assert hashlib.sha256(canon.encode()).hexdigest() == \
        "30e3e821591aac0ad65acb6c4546dea18610b5a60c8ebbb42c5ff374039881da"
