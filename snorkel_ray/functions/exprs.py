"""Scalar function library over pyarrow.compute (SURVEY.md §2.8).

The reference scatters these (case-fold in ``matchers.py`` ≈L95, PTB
unescape in ``corenlp.py`` ≈L250, slugify in ``models/context.py``
≈L410, span joins in ``context.py`` ≈L300); here they are explicit
vectorized kernels usable inside any ``map_batches``.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# ---------------------------------------------------------------------------
# string
# ---------------------------------------------------------------------------

def casefold(arr):
    return pc.utf8_lower(arr)


def collapse_ws(arr):
    return pc.replace_substring_regex(arr, r"\s+", " ")


def slugify(arr):
    """lowercase, non-alnum runs → '-' (stable-id style)."""
    out = pc.replace_substring_regex(pc.utf8_lower(arr), r"[^a-z0-9]+", "-")
    return pc.replace_substring_regex(out, r"^-|-$", "")


_PTB_UNESCAPE = [("-LRB-", "("), ("-RRB-", ")"), ("-LSB-", "["), ("-RSB-", "]"),
                 ("-LCB-", "{"), ("-RCB-", "}")]


def ptb_unescape(arr):
    """PTB bracket token unescape (reference ``corenlp.py`` ≈L250)."""
    for tok, rep in _PTB_UNESCAPE:
        arr = pc.replace_substring(arr, tok, rep)
    return arr


# ---------------------------------------------------------------------------
# list / array
# ---------------------------------------------------------------------------

def list_slice(arr, start: int, stop: int):
    return pc.list_slice(arr, start, stop)


def tokens_join(list_arr, sep: str = " "):
    """list<string> → string join (reference ``get_span`` semantics)."""
    return pc.binary_join(list_arr, sep)


# ---------------------------------------------------------------------------
# math
# ---------------------------------------------------------------------------

def duck_round(v: float | None, nd: int) -> float | None:
    """Bit-exact replica of DuckDB's ``round(DOUBLE, s)``:
    ``std::round(v * 10^s) / 10^s`` with half-away-from-zero ties.

    The contract gate stringifies values, so the Ray side must round
    EXACTLY like the oracle SQL. DuckDB's double round is scale-then-
    round (NOT correctly rounded in decimal), so neither Python
    ``round()`` (correctly-rounded half-even) nor ``pc.round`` matches
    it everywhere — fuzz: 744/20006 mismatches at 6 decimals on 1e9-
    magnitude doubles for Python round, 0 for this replica. Python
    round's half-even further disagrees with SQL round on exact decimal
    ties (0.125 → 0.12 vs 0.13; round-2 ADVICE item 5)."""
    import math

    if v is None or v != v or v in (math.inf, -math.inf):
        return v
    p = math.pow(10.0, nd)
    x = v * p
    ax = abs(x)
    if ax >= 2.0 ** 52:  # already integral at double precision
        return x / p
    f = math.floor(ax)
    r = f + 1.0 if ax - f >= 0.5 else f
    return math.copysign(r, x) / p


def duck_round_np(arr, nd: int) -> np.ndarray:
    """Vectorized :func:`duck_round` (same scale-then-half-away
    semantics, element-wise) for hot paths that round WHOLE columns —
    e.g. ``brute_force_topk(round_digits=...)`` rounds every cosine
    before the partial top-k selection.  Parity with the scalar is
    pinned by a hypothesis test."""
    x = np.asarray(arr, dtype=np.float64)
    p = 10.0 ** nd
    xs = x * p
    ax = np.abs(xs)
    f = np.floor(ax)
    r = np.where(ax - f >= 0.5, f + 1.0, f)
    with np.errstate(invalid="ignore"):
        # ax >= 2^52: already integral at double precision (matches the
        # scalar's early return); NaN fails the comparison and
        # propagates through copysign identically either way
        out = np.where(ax >= 2.0 ** 52, xs, np.copysign(r, xs)) / p
    return out


def safe_div(num, den):
    n = np.asarray(num, dtype=np.float64)
    d = np.asarray(den, dtype=np.float64)
    return np.divide(n, d, out=np.zeros_like(n), where=d != 0)


# ---------------------------------------------------------------------------
# json (testdata ``events.props`` precedent; reference pickled
# ``Document.meta`` becomes a JSON string column)
# ---------------------------------------------------------------------------

def json_extract(arr, key: str):
    """Extract a top-level key from a JSON-string column → string array
    ('' when missing). stdlib json per value (columnar in/out)."""
    vals = arr.to_pylist() if hasattr(arr, "to_pylist") else list(arr)
    out = []
    for v in vals:
        try:
            d = json.loads(v) if v else {}
            got = d.get(key, "")
            out.append("" if got is None else str(got))
        except (json.JSONDecodeError, TypeError, AttributeError):
            out.append("")
    return pa.array(out, pa.string())


def json_extract_double(arr, key: str):
    """Missing/unparseable keys come back NULL (not NaN) so a Mean
    aggregate skips them exactly as SQL ``avg`` skips NULL (round-4
    review: NaN poisoned the whole group's mean)."""
    vals = arr.to_pylist() if hasattr(arr, "to_pylist") else list(arr)
    out = np.full(len(vals), np.nan)
    mask = np.ones(len(vals), dtype=bool)  # True = null
    for i, v in enumerate(vals):
        try:
            d = json.loads(v) if v else {}
            if key in d and d[key] is not None:
                out[i] = float(d[key])
                mask[i] = False
        except (json.JSONDecodeError, TypeError, ValueError):
            pass
    return pa.array(out, pa.float64(), mask=mask)
