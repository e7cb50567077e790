"""Multi-level (ROLLUP-style) aggregation from shared partials.

Brief-mandated query-coverage family (reference analog: the grouped
coverage/summary statistics of ``snorkel/annotations.py`` ≈L300, which
recompute each level from scratch).  The scale point of this operator
is that the FINE-grain aggregate is computed from the input exactly
once; every coarser level re-aggregates the fine TABLE (cardinality =
distinct key combinations, ≪ input rows), so adding levels costs no
extra pass over the data — the SQL ``GROUP BY ROLLUP`` plan.  Every
level is one ``resources.fold_by_key`` (the fine level over the input,
each coarser one over the fine table, the grand total keyless), and
``spec`` is its ``{out_col: (op, src_col)}`` form as it stands.

Only aggregates that re-aggregate from the fine table are supported
(count/sum/min/max — count re-aggregates as sum, the others as
themselves); a mean is expressed as sum + count and divided by the
caller.
"""

from __future__ import annotations

import pyarrow as pa

__all__ = ["rollup_aggregate", "cube_aggregate", "grouping_sets_aggregate"]

_REAGG = {"count": "sum", "sum": "sum", "min": "min", "max": "max"}


def rollup_aggregate(ds, keys: list[str], spec: dict[str, tuple[str, str]],
                     *, all_label: str = "ALL"):
    """``GROUP BY ROLLUP(*keys)``: one row set per prefix of ``keys``
    (fine → grand total), grouped-out key columns filled with
    ``all_label`` (string keys assumed; an explicit label instead of
    NULL keeps results sortable and oracle-hashable).

    ``spec``: ``{out_col: (op, src_col)}`` with op ∈ count/sum/min/max.
    One pass over ``ds`` (the fine groupby); levels re-aggregate the
    fine table.
    """
    groupings = [keys[:cut] for cut in range(len(keys) - 1, -1, -1)]
    return _multi_level(ds, keys, groupings, spec, all_label)


def cube_aggregate(ds, keys: list[str], spec: dict[str, tuple[str, str]],
                   *, all_label: str = "ALL"):
    """``GROUP BY CUBE(*keys)``: one row set per SUBSET of ``keys``
    (2^k groupings — fine, every partial margin, grand total), missing
    key columns filled with ``all_label``.  Same one-pass plan as
    ROLLUP: only the fine groupby touches the input; all other
    groupings re-aggregate the fine table.  ``len(keys)`` must stay
    small (2^k unions) — which it is for any sane CUBE."""
    from itertools import combinations

    groupings = []
    for r in range(len(keys) - 1, -1, -1):
        for kept in combinations(keys, r):
            groupings.append(list(kept))
    return _multi_level(ds, keys, groupings, spec, all_label)


def grouping_sets_aggregate(ds, keys: list[str],
                            groupings: list[list[str]],
                            spec: dict[str, tuple[str, str]],
                            *, all_label: str = "ALL"):
    """``GROUP BY GROUPING SETS(groupings)``: exactly one row set per
    requested grouping (each a subset of ``keys``), grouped-out key
    columns filled with ``all_label``.  Same one-pass plan as
    ROLLUP/CUBE: ONE fine groupby over the input computes the partials;
    every requested grouping re-aggregates that (distinct-keys-sized)
    fine table — so N grouping sets cost one input pass, not N."""
    if not groupings:
        raise ValueError("groupings must be non-empty")
    canon = []
    for g in groupings:
        extra = set(g) - set(keys)
        if extra:
            raise ValueError(f"grouping set {g!r} not a subset of keys: "
                             f"{sorted(extra)}")
        canon.append([k for k in keys if k in set(g)])
    if len({tuple(g) for g in canon}) != len(canon):
        raise ValueError("duplicate grouping sets (SQL would emit "
                         "duplicate rows; dedupe the request)")
    include_fine = any(len(g) == len(keys) for g in canon)
    rest = [g for g in canon if len(g) != len(keys)]
    return _multi_level(ds, keys, rest, spec, all_label,
                        include_fine=include_fine)


def _multi_level(ds, keys, groupings, spec, all_label, *,
                 include_fine: bool = True):
    """Shared ROLLUP/CUBE engine: ONE fine groupby over the input,
    then one re-aggregation of the (materialized, distinct-keys-sized)
    fine table per coarser grouping, unioned with grouped-out key
    columns filled with ``all_label``."""
    from ..state.resources import fold_by_key

    if not keys:
        raise ValueError("keys must be non-empty")
    for op, _ in spec.values():
        if op not in _REAGG:
            raise ValueError(f"unsupported aggregate op {op!r}")

    fine = fold_by_key(ds, keys, spec).materialize()  # every level reads it
    reagg = {name: _REAGG[op] for name, (op, _) in spec.items()}

    value_cols = list(spec)

    def _with_all(missing):
        def _f(b: pa.Table) -> pa.Table:
            for k in missing:
                i = b.schema.get_field_index(k)
                filled = pa.array([all_label] * b.num_rows, pa.string())
                if i >= 0:
                    b = b.set_column(i, k, filled)
                else:
                    b = b.append_column(k, filled)
            cols = keys + value_cols
            return pa.table({c: b.column(c) for c in cols})

        return _f

    levels = []
    if include_fine:
        levels.append(fine.map_batches(_with_all([]),
                                       batch_format="pyarrow"))
    for kept in groupings:
        missing = [k for k in keys if k not in kept]
        # the grand total (``kept`` empty) is the keyless fold; over an
        # empty input it is SQL's row, COUNT(*) of nothing (0) and the
        # rest NULL, which ``spec`` itself gives
        lvl = fold_by_key(fine, kept, reagg if kept or fine.count() else spec)
        levels.append(lvl.map_batches(_with_all(missing),
                                      batch_format="pyarrow"))

    out = levels[0]
    for lvl in levels[1:]:
        out = out.union(lvl)
    return out
