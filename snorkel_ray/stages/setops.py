"""SQL set operations (INTERSECT / EXCEPT, distinct semantics) on
Datasets.

Reference analog: the union/difference bookkeeping the snorkel
pipeline does when combining candidate extractions across sessions
(``snorkel/candidates.py`` ≈L120 — set arithmetic over candidate key
sets); re-expressed as Ray Data plans.

Plan shape (both ops): the LEFT side is reduced to distinct keys with
one ``fold_by_key`` (shuffle moves distinct-keys-per-block, not rows —
the fold pre-combines each block before its sort), then the RIGHT side
rides :func:`snorkel_ray.stages.joins.semi_join`'s count-gated plan:
small right sides broadcast (``ray.put`` once, vectorized ``pc.is_in``
per batch — zero extra shuffle), large ones ``join_by_key``.  Nothing
materializes the full input on the driver.

ALL keys — single or multi column — are composed into one string key
per row (validity-tagged, length-prefixed concat, collision-free) on
BOTH sides, so the join machinery stays single-column AND SQL set-op
NULL semantics hold: NULL matches NULL in INTERSECT/EXCEPT (unlike a
plain equality semi-join, whose ``pc.is_in`` never matches null).  The
original columns are carried through and the composed key dropped at
the end.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["intersect_distinct", "except_distinct"]

_SK = "__setop_key"


def _compose_key(cols: list[str]):
    """Per-batch composed BINARY key: each field becomes ``n`` when
    NULL else ``v<len>:<value>`` (validity tag OUT OF BAND, so no
    value — not even one spelling a null sentinel — can collide with
    NULL), fields joined with ``|``; the length prefix makes values
    containing the separator unambiguous.  Field bytes are the raw
    payload for binary columns (digest/fingerprint keys must NOT be
    cast to utf8 — non-UTF8 payloads raise; review r5) and the string
    cast otherwise, with floats normalized by ``+0.0`` first so
    ``-0.0`` composes equal to ``0.0`` as SQL equality demands."""

    def _f(b: pa.Table) -> pa.Table:
        parts = []
        for c in cols:
            col = b.column(c)
            t = col.type
            if pa.types.is_floating(t):
                col = pc.add(col, pa.scalar(0.0, t))
            if (pa.types.is_binary(t) or pa.types.is_large_binary(t)
                    or pa.types.is_fixed_size_binary(t)):
                s = pc.cast(col, pa.binary())
            else:
                s = pc.cast(pc.cast(col, pa.string()), pa.binary())
            s = pc.fill_null(s, b"")
            ln = pc.cast(pc.cast(pc.binary_length(s), pa.string()),
                         pa.binary())
            tagged = pc.binary_join_element_wise(
                pa.array([b"v"] * len(b), pa.binary()), ln, s, b":")
            parts.append(pc.if_else(pc.is_null(col),
                                    pa.scalar(b"n", pa.binary()), tagged))
        key = parts[0] if len(parts) == 1 else \
            pc.binary_join_element_wise(*parts, b"|")
        return b.append_column(_SK, key)

    return _f


def _distinct(ds, cols: list[str]):
    """Distinct rows over ``cols``: one ``fold_by_key``, which combines
    per block before the shuffle."""
    from ..state.resources import fold_by_key

    return fold_by_key(ds, cols, {})


def _setop(left, right, cols, right_cols, *, anti: bool):
    from snorkel_ray.stages.joins import semi_join

    right_cols = right_cols or cols
    if len(right_cols) != len(cols):
        raise ValueError("left/right column lists must have equal length")

    # single-column keys ride the SAME composed-key path: a raw
    # equality semi-join (pc.is_in) never matches NULL, but SQL
    # INTERSECT/EXCEPT treat NULL as equal to NULL (review r5)
    out = _distinct(left.select_columns(cols), cols)
    out = out.map_batches(_compose_key(cols), batch_format="pyarrow")
    rkeys = right.select_columns(right_cols) \
        .map_batches(_compose_key(right_cols), batch_format="pyarrow") \
        .select_columns([_SK])
    out = semi_join(out, rkeys, _SK, _SK, anti=anti)
    return out.drop_columns([_SK])


def intersect_distinct(left, right, cols: list[str],
                       right_cols: list[str] | None = None):
    """``SELECT DISTINCT cols FROM left INTERSECT SELECT right_cols
    FROM right`` — distinct left keys that also appear on the right."""
    return _setop(left, right, cols, right_cols, anti=False)


def except_distinct(left, right, cols: list[str],
                    right_cols: list[str] | None = None):
    """``SELECT DISTINCT cols FROM left EXCEPT SELECT right_cols FROM
    right`` — distinct left keys absent from the right."""
    return _setop(left, right, cols, right_cols, anti=True)
