"""``resources.join_by_key`` against DuckDB, on the multi-partition
path of its keyed shuffle."""

import math

import numpy as np
import pyarrow as pa
import pytest

_SQL = {
    "inner": "SELECT l.*, r.rv, r.rpay FROM l JOIN r ON l.k1 = r.rk1 AND l.k2 = r.rk2",
    "left outer": "SELECT l.*, r.rv, r.rpay FROM l LEFT JOIN r "
                  "ON l.k1 = r.rk1 AND l.k2 = r.rk2",
    "left semi": "SELECT * FROM l WHERE EXISTS "
                 "(SELECT 1 FROM r WHERE r.rk1 = l.k1 AND r.rk2 = l.k2)",
    "left anti": "SELECT * FROM l WHERE NOT EXISTS "
                 "(SELECT 1 FROM r WHERE r.rk1 = l.k1 AND r.rk2 = l.k2)",
}


def _sides():
    """Many-to-many two-column keys under different names on each side,
    with a NULL and a NaN in the float key, a NULL string key, and a
    list payload on both sides."""
    rng = np.random.default_rng(7)
    k1 = [None if i % 17 == 0 else math.nan if i % 13 == 0 else float(i % 9)
          for i in rng.integers(0, 400, 600)]
    k2 = [None if i % 23 == 0 else f"s{i % 3}" for i in range(600)]
    left = pa.table({"k1": k1, "k2": k2, "lv": pa.array(range(600), pa.int64()),
                     "lpay": [[f"w{i % 4}"] * (i % 3) for i in range(600)]})
    r1 = [None if i % 11 == 0 else math.nan if i % 7 == 0 else float(i % 12)
          for i in range(90)]
    right = pa.table({"rk1": r1, "rk2": [f"s{i % 4}" if i % 19 else None for i in range(90)],
                      "rv": pa.array(range(90), pa.int32()),
                      "rpay": [list(range(i % 4)) for i in range(90)]})
    return left, right


def _rows(table) -> list:
    """Rows as sortable tuples: lists as tuples, NaN and NULL spelled."""
    def val(v):
        if isinstance(v, list):
            return tuple(v)
        if isinstance(v, float) and math.isnan(v):
            return "NaN"
        return "NULL" if v is None else v

    return sorted((tuple(repr(val(v)) for v in row.values()) for row in table.to_pylist()))


def _blocks(t, n):
    import ray.data as rd

    step = -(-t.num_rows // n)
    return rd.from_arrow([t.slice(i, step) for i in range(0, t.num_rows, step)])


@pytest.mark.parametrize("how", list(_SQL))
def test_join_by_key_matches_duckdb_across_partitions(ray_session, how):
    import duckdb
    import ray
    from ray.data import DataContext

    from snorkel_ray.state.resources import join_by_key

    l, r = _sides()
    ctx = DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = 4 << 10
    try:
        out = join_by_key(_blocks(l, 6), _blocks(r, 3), ["k1", "k2"], ["rk1", "rk2"], how=how)
        assert out.num_blocks() > 1  # the shuffle cut the sides into P > 1 partitions
        got = pa.concat_tables(ray.get(out.to_arrow_refs()))
    finally:
        ctx.target_max_block_size = saved
    want = duckdb.sql(_SQL[how]).arrow()
    assert got.schema.names == want.schema.names
    assert got.schema == pa.schema([*l.schema, *(f for f in r.schema if f.name in got.schema.names)])
    assert len(want) > 0 and _rows(got) == _rows(want)


@pytest.mark.parametrize("how", list(_SQL))
def test_join_by_key_with_an_empty_side_keeps_its_schema(ray_session, how):
    import ray
    import ray.data as rd

    from snorkel_ray.state.resources import join_by_key

    l, r = _sides()
    names = [*l.column_names, *(["rv", "rpay"] if how in ("inner", "left outer") else [])]
    for left, right, rows in ((l.slice(0, 0), r, 0),
                              (l, r.slice(0, 0), l.num_rows if how in ("left outer",
                                                                        "left anti") else 0)):
        out = join_by_key(rd.from_arrow(left), rd.from_arrow(right), ["k1", "k2"],
                          ["rk1", "rk2"], how=how)
        got = pa.concat_tables(ray.get(out.to_arrow_refs()))
        assert got.schema.names == names and got.num_rows == rows
        if "rpay" in names:
            assert got.schema.field("rpay").type == r.schema.field("rpay").type
            assert got.column("rv").null_count == rows


def test_join_by_key_rejects_a_column_on_both_sides(ray_session):
    import ray.data as rd

    from snorkel_ray.state.resources import join_by_key

    a = rd.from_arrow(pa.table({"k": [1], "v": [1]}))
    with pytest.raises(ValueError, match="both sides"):
        join_by_key(a, a, "k")
    with pytest.raises(ValueError, match="how"):
        join_by_key(a, a, "k", how="full outer")
