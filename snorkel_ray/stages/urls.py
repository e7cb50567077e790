"""URL canonicalization + per-domain statistics.

Brief-mandated webtext family (no reference analog; the nearest
ancestry is the doc-id normalization of ``snorkel/parser.py`` ≈L40).
URL dedup/normalization is the first step of every web-crawl pipeline:
the same page arrives as ``http://WWW.Site.com/a?utm_source=x#frag``
and ``https://site.com/a`` and must collapse before content dedup.

The normalization is a FIXED chain of RE2-compatible regex rewrites
(each replicable 1:1 in DuckDB ``regexp_replace``/``lower`` — that is
deliberate: it keeps the operator oracle-checkable):

1. strip the ``#fragment``;
2. drop tracking query params (``utm_*``, ``fbclid``, ``gclid``) —
   position-aware so a literal ``&`` in a query-less path is never
   touched;
3. strip a trailing dangling ``?`` (left by (1)/(2));
4. lowercase the ``scheme://host[:port]`` prefix (path case is
   preserved — paths are case-sensitive);
5. drop a ``www.`` host prefix;
6. drop a trailing ``/``.

Default ports (``:80``/``:443``) are intentionally NOT stripped — at
crawl scale they are rare and ambiguous with explicit-port mirrors.

All stages are stateless vectorized-per-batch ``map_batches`` maps
(regexes compile once per worker process via the module-level
constants), so the operator streams.
"""

from __future__ import annotations

import re

import pyarrow as pa

__all__ = ["normalize_url", "normalize_urls", "extract_domain",
           "domain_stats"]

_FRAG = re.compile(r"#.*$")
# tracking-param removal that can never touch a literal '&' outside a
# query: leading run keeps the '?', middle params drop with their '&'
# (applied to the substring AFTER the first '?' only — round-4 ADVICE:
# the bare pattern also stripped a literal '&utm_x=...' in a QUERY-LESS
# path like https://a.co/a&utm_x=2; the oracle SQL s2b mirrors the same
# first-'?' split), a lone/last param drops with its '?'
_TRACK_LEAD = re.compile(r"\?(?:(?:utm_[a-z]+|fbclid|gclid)=[^&#]*&)+")
_TRACK_MID = re.compile(r"&(?:utm_[a-z]+|fbclid|gclid)=[^&#]*")
_TRACK_END = re.compile(r"\?(?:utm_[a-z]+|fbclid|gclid)=[^&#]*$")
_DANGLE_Q = re.compile(r"\?$")
_PREFIX = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*")
_WWW = re.compile(r"^([a-z][a-z0-9+.-]*://)www\.")
_SLASH = re.compile(r"/$")
_HOST = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*://(?:www\.)?([^/:?#]+)")


def normalize_url(u: str) -> str:
    """Apply the six-step canonicalization chain to one URL."""
    u = _FRAG.sub("", u)
    u = _TRACK_LEAD.sub("?", u, count=1)  # oracle s2a is non-global
    qi = u.find("?")
    if qi >= 0:  # mid-params exist only inside a query
        u = u[:qi] + _TRACK_MID.sub("", u[qi:])
    u = _TRACK_END.sub("", u)
    u = _DANGLE_Q.sub("", u)  # '?#frag' leaves a bare trailing '?' 
    m = _PREFIX.match(u)
    if m:
        u = m.group(0).lower() + u[m.end():]
    u = _WWW.sub(r"\1", u)
    u = _SLASH.sub("", u)
    return u


def extract_domain(u: str) -> str:
    """Lowercased registrable host (``www.`` stripped); '' when the
    input doesn't look like an absolute URL."""
    m = _HOST.match(u)
    return m.group(1).lower() if m else ""


def normalize_urls(ds, url_col: str = "url", *,
                   out_col: str | None = None,
                   domain_col: str | None = "domain"):
    """Rewrite ``url_col`` (or append ``out_col``) with the canonical
    form; optionally append the extracted ``domain_col``."""
    target = out_col or url_col

    def _norm(b: pa.Table) -> pa.Table:
        urls = b.column(url_col).to_pylist()
        normed = [normalize_url(u) for u in urls]
        i = b.schema.get_field_index(target)
        col = pa.array(normed, pa.string())
        b = b.set_column(i, target, col) if i >= 0 else \
            b.append_column(target, col)
        if domain_col:
            # domain comes from the CANONICAL url (host already
            # lowercased, www-stripped)
            doms = pa.array([extract_domain(u) for u in normed], pa.string())
            j = b.schema.get_field_index(domain_col)
            b = b.set_column(j, domain_col, doms) if j >= 0 else \
                b.append_column(domain_col, doms)
        return b

    return ds.map_batches(_norm, batch_format="pyarrow")


def domain_stats(ds, url_col: str = "url"):
    """Per-domain crawl stats: page count + distinct canonical URLs.
    The page count per ``(domain, url)`` is one keyed fold
    (``fold_by_key``: per-block partials, one bounded two-key groupby),
    then one more per domain — the URL table never collects
    anywhere."""
    from ..state.resources import fold_by_key

    per_url = fold_by_key(
        normalize_urls(ds, url_col), ["domain", "url"], {"n": "count"},
        lambda b: pa.table({"domain": b.column("domain"), "url": b.column(url_col)}))
    return fold_by_key(per_url, ["domain"],
                       {"n_unique_urls": "count", "n_pages": ("sum", "n")})
