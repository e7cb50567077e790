"""Pivot (long→wide) and grouped z-score."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from snorkel_ray.stages.reshape import grouped_zscore, pivot_table


def _events():
    t = pa.table({
        "uid": [1, 1, 1, 2, 2, 3],
        "kind": ["a", "a", "b", "b", "c", "a"],
        "v": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
    })
    return ray.data.from_arrow(t).repartition(3)


def test_pivot_counts():
    out = (pivot_table(_events(), "uid", "kind", ["a", "b"])
           .to_pandas().sort_values("uid").reset_index(drop=True))
    assert out.uid.tolist() == [1, 2, 3]
    assert out.n_a.tolist() == [2, 0, 1]
    assert out.n_b.tolist() == [1, 1, 0]
    # unlisted category "c" dropped, but uid 2 still present via "b"
    assert "n_c" not in out.columns


def test_pivot_sum():
    out = (pivot_table(_events(), "uid", "kind", ["a", "c"],
                       value="v", agg="sum")
           .to_pandas().sort_values("uid").reset_index(drop=True))
    assert out.n_a.tolist() == [3.0, 0.0, 6.0]
    assert out.n_c.tolist() == [0.0, 5.0, 0.0]
    with pytest.raises(ValueError):
        pivot_table(_events(), "uid", "kind", ["a"], agg="sum")
    with pytest.raises(ValueError):
        pivot_table(_events(), "uid", "kind", ["a"], agg="median")


def test_pivot_sum_nan_across_blocks_matches_duckdb(ray_session):
    """``agg="sum"`` over NaN and NULL values spread across blocks:
    a cell is NaN once any of its values is (Ray's own ``Sum`` merge
    skipped a block's NaN partial), an all-NULL cell is 0, like
    DuckDB's ``coalesce(sum(v) FILTER (...), 0)``."""
    import duckdb

    nan = float("nan")
    t = pa.table({"uid": [1, 1, 2, 2, 3, 3, 1, 2, 3],
                  "kind": ["a", "b", "a", "b", "a", "a", "a", "b", "b"],
                  "v": [nan, 1.0, 2.0, None, 3.0, 4.0, 5.0, None, 6.0]})
    ds = ray.data.from_arrow([t.slice(i, 3) for i in range(0, 9, 3)])
    got = (pivot_table(ds, "uid", "kind", ["a", "b"], value="v", agg="sum")
           .to_pandas().sort_values("uid"))
    want = duckdb.sql("SELECT uid, coalesce(sum(v) FILTER (WHERE kind = 'a'), 0) AS n_a, "
                      "coalesce(sum(v) FILTER (WHERE kind = 'b'), 0) AS n_b "
                      "FROM t GROUP BY uid ORDER BY uid").df()
    assert got.uid.tolist() == want.uid.tolist()
    for c in ("n_a", "n_b"):
        np.testing.assert_array_equal(got[c].to_numpy(), want[c].to_numpy())


def test_grouped_zscore_matches_pandas():
    out = (grouped_zscore(_events(), "uid", "v").to_pandas()
           .sort_values(["uid", "v"]).reset_index(drop=True))
    df = _events().to_pandas().sort_values(["uid", "v"]).reset_index(drop=True)
    expect = df.groupby("uid")["v"].transform(
        lambda s: (s - s.mean()) / s.std(ddof=1))
    got = out["zscore"]
    # singleton group (uid 3) has undefined std -> null
    assert got.iloc[-1] != got.iloc[-1] or pd.isna(got.iloc[-1])
    np.testing.assert_allclose(got[:-1].astype(float),
                               expect[:-1].astype(float), rtol=1e-12)


def test_grouped_corr_matches_pandas():
    import ray as _ray

    rng = np.random.default_rng(3)
    n = 2000
    k = rng.integers(0, 5, n)
    x = rng.normal(1000.0, 200.0, n)
    y = 3.0 * x + rng.normal(0, 150.0, n)
    t = pa.table({"k": k, "x": x, "y": y})
    ds = _ray.data.from_arrow(t).repartition(6)
    from snorkel_ray.stages.reshape import grouped_corr

    out = (grouped_corr(ds, "k", "x", "y").to_pandas()
           .sort_values("k").reset_index(drop=True))
    df = pd.DataFrame({"k": k, "x": x, "y": y})
    expect = df.groupby("k").apply(
        lambda g: g.x.corr(g.y), include_groups=False)
    np.testing.assert_allclose(out["corr"], expect.values, rtol=1e-12)
    # degenerate: constant column -> null
    tiny = _ray.data.from_arrow(pa.table(
        {"k": ["a", "a"], "x": [1.0, 1.0], "y": [1.0, 2.0]}))
    z = grouped_corr(tiny, "k", "x", "y").to_pandas()
    assert pd.isna(z["corr"]).all()
    # a NULL key is a group of its own, and an int key stays int (SQL)
    import duckdb

    t = pa.table({"k": pa.array([None if i % 5 == 0 else i % 3 for i in range(40)],
                                pa.int64()), "x": x[:40], "y": y[:40]})
    got = grouped_corr(_ray.data.from_arrow([t.slice(0, 20), t.slice(20)]),
                       "k", "x", "y").take_all()
    want = duckdb.sql("SELECT k, corr(x, y) FROM t GROUP BY k").fetchall()
    assert sorted(((r["k"], round(r["corr"], 12)) for r in got), key=repr) == \
        sorted(((k, round(c, 12)) for k, c in want), key=repr)


def test_grouped_string_agg_ordered():
    import ray as _ray

    from snorkel_ray.stages.reshape import grouped_string_agg

    t = pa.table({"k": ["a", "b", "a", "a", "b"],
                  "v": ["z", "m", "x", "y", "n"]})
    ds = _ray.data.from_arrow(t).repartition(3)
    out = (grouped_string_agg(ds, "k", "v", sep="|").to_pandas()
           .sort_values("k").reset_index(drop=True))
    assert out.k.tolist() == ["a", "b"]
    assert out["agg"].tolist() == ["x|y|z", "m|n"]


@pytest.mark.parametrize("value", ["v", "f"])
def test_grouped_string_agg_skips_null_values_like_duckdb(ray_session, value):
    """A NULL value is skipped, and a key whose values are all NULL
    gets NULL (SQL ``string_agg``), on both plans; a float is spelled
    as DuckDB spells it."""
    import duckdb
    import ray.data as rd

    from snorkel_ray.stages.reshape import grouped_string_agg

    t = pa.table({"k": [1, 2, 1, 1, 2], "v": ["b", None, None, "a", None],
                  "f": [2.5, None, None, 1.0, None], "o": [2, 1, 3, 1, 2]})
    want = sorted(duckdb.sql(f"SELECT k, string_agg({value}, ',' ORDER BY o) FROM t "
                             "GROUP BY k").fetchall())
    assert want == [(1, "a,b" if value == "v" else "1.0,2.5"), (2, None)]
    ds = rd.from_arrow([t.slice(0, 2), t.slice(2)])
    for chunks in (None, 2):
        got = grouped_string_agg(ds, "k", value, order_by=["o"], pre_split_chunks=chunks)
        assert sorted((r["k"], r["agg"]) for r in got.take_all()) == want


def test_grouped_zscore_nan_key_is_null_like_duckdb(ray_session):
    """A NaN value makes its key's moments NaN: every z of that key is
    NULL, wherever the NaN's block falls (DuckDB's two-pass z is NaN
    there, spelled NULL here like every non-finite z; its
    ``stddev_samp`` refuses a NaN input).  A NULL value is skipped."""
    import duckdb
    import ray.data as rd

    nan = float("nan")
    t = pa.table({"k": [1, 2, 1, 1, 2, 1, 2, 1, 2],
                  "v": [1.0, 5.0, nan, 2.0, 7.0, 4.0, None, 3.0, 9.0]})
    want = duckdb.sql("""
        SELECT k, v, (v - mu) / sqrt(sum((v - mu) * (v - mu)) OVER w / (count(v) OVER w - 1))
        FROM (SELECT k, v, avg(v) OVER (PARTITION BY k) AS mu FROM t)
        WINDOW w AS (PARTITION BY k)""").fetchall()
    assert [z for k, _, z in want if k == 1 and z is not None and z == z] == []
    ds = rd.from_arrow([t.slice(0, 3), t.slice(3, 3), t.slice(6)])
    got = [(r["k"], r["v"], r["zscore"]) for r in grouped_zscore(ds, "k", "v").take_all()]

    def norm(rows):
        return sorted(((k, "nan" if v != v else v,
                        None if z is None or z != z else round(z, 12)) for k, v, z in rows),
                      key=repr)

    assert norm(got) == norm(want)


def test_grouped_count_distinct_matches_pandas():
    from snorkel_ray.stages.reshape import grouped_count_distinct

    rng = np.random.default_rng(11)
    df = pd.DataFrame({"k": rng.integers(0, 4, 500),
                       "u": rng.integers(0, 30, 500)})
    ds = ray.data.from_pandas(df).repartition(5)
    out = (grouped_count_distinct(ds, "k", "u", out="n")
           .to_pandas().sort_values("k").reset_index(drop=True))
    ref = (df.groupby("k")["u"].nunique()
           .reset_index().rename(columns={"u": "n"}))
    assert out.k.tolist() == ref.k.tolist()
    assert out.n.tolist() == ref.n.tolist()


def test_grouped_count_distinct_composite_key():
    from snorkel_ray.stages.reshape import grouped_count_distinct

    rng = np.random.default_rng(12)
    df = pd.DataFrame({"k1": rng.integers(0, 3, 400),
                       "k2": rng.choice(["x", "y"], 400),
                       "u": rng.integers(0, 25, 400)})
    ds = ray.data.from_pandas(df).repartition(4)
    out = (grouped_count_distinct(ds, ["k1", "k2"], "u", out="n")
           .to_pandas().sort_values(["k1", "k2"]).reset_index(drop=True))
    ref = (df.groupby(["k1", "k2"])["u"].nunique()
           .reset_index().rename(columns={"u": "n"}))
    assert out.k1.tolist() == ref.k1.tolist()
    assert out.k2.tolist() == ref.k2.tolist()
    assert out.n.tolist() == ref.n.tolist()


def test_grouped_count_distinct_ignores_nulls():
    # SQL count(DISTINCT v) ignores NULL values — review r5: the pair
    # groupby used to count the null group as a distinct value
    from snorkel_ray.stages.reshape import grouped_count_distinct

    t = pa.table({"k": ["a", "a", "a", "b"],
                  "v": pa.array([1, None, 2, None], pa.int64())})
    out = (grouped_count_distinct(ray.data.from_arrow(t), "k", "v",
                                  out="n")
           .to_pandas().sort_values("k").reset_index(drop=True))
    # key 'b' (all-null values) is absent — documented divergence,
    # same as grouped_quantiles
    assert out.k.tolist() == ["a"]
    assert out.n.tolist() == [2]


def test_grouped_argmax_ties_deterministic():
    from snorkel_ray.stages.reshape import grouped_argmax

    t = pa.table({"k": ["a", "a", "a", "b", "b"],
                  "score": [5.0, 9.0, 9.0, 1.0, 1.0],
                  "id": [3, 2, 1, 10, 9]})
    ds = ray.data.from_arrow(t).repartition(3)
    out = (grouped_argmax(ds, "k", ["score", "id"],
                          descending=[True, False])
           .to_pandas().sort_values("k").reset_index(drop=True))
    # max score wins; score ties break to the LOWEST id
    assert out.k.tolist() == ["a", "b"]
    assert out.id.tolist() == [1, 9]


def test_grouped_rank_matches_pandas():
    from snorkel_ray.stages.reshape import grouped_rank

    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "k": rng.integers(0, 4, 400),
        "id": np.arange(400),
        # coarse values so ties are common (rank != dense_rank)
        "v": rng.integers(0, 20, 400).astype("float64") / 4.0})
    ds = ray.data.from_pandas(df).repartition(5)
    out = (grouped_rank(ds, "k", "v", out="r", dense_out="dr")
           .to_pandas().sort_values("id").reset_index(drop=True))
    g = df.groupby("k")["v"]
    ref_r = g.rank(method="min").astype("int64")
    ref_dr = g.rank(method="dense").astype("int64")
    assert out.r.tolist() == ref_r.tolist()
    assert out.dr.tolist() == ref_dr.tolist()


def test_grouped_rank_percent_and_cume():
    from snorkel_ray.stages.reshape import grouped_rank

    df = pd.DataFrame({"k": ["a"] * 5 + ["b"],
                       "id": range(6),
                       "v": [1.0, 2.0, 2.0, 3.0, 3.0, 7.0]})
    ds = ray.data.from_pandas(df).repartition(2)
    out = (grouped_rank(ds, "k", "v", out="r", percent_out="pr",
                        cume_out="cd")
           .to_pandas().sort_values("id").reset_index(drop=True))
    assert out.r.tolist() == [1, 2, 2, 4, 4, 1]
    assert out.pr.tolist() == [0.0, 0.25, 0.25, 0.75, 0.75, 0.0]
    assert out.cd.tolist() == [0.2, 0.6, 0.6, 1.0, 1.0, 1.0]


def test_grouped_rank_descending():
    from snorkel_ray.stages.reshape import grouped_rank

    df = pd.DataFrame({"k": ["a"] * 4, "id": range(4),
                       "v": [1.0, 3.0, 3.0, 2.0]})
    ds = ray.data.from_pandas(df).repartition(2)
    out = (grouped_rank(ds, "k", "v", out="r", descending=True)
           .to_pandas().sort_values("id").reset_index(drop=True))
    ref = df.groupby("k")["v"].rank(method="min",
                                    ascending=False).astype("int64")
    assert out.r.tolist() == ref.tolist()


@pytest.mark.parametrize("descending", [False, True])
def test_grouped_rank_nan_null_and_ties_match_duckdb(descending):
    """SQL order: NaN above every number, NULL last in both directions,
    ``-0.0`` tied with ``0.0`` — over several blocks, so a key's NaN and
    NULL rows reach the fine table from different blocks."""
    import duckdb

    from snorkel_ray.stages.reshape import grouped_rank

    nan = float("nan")
    # the smallest case: NaN ranks 3 and NULL 4 ascending
    t = pa.table({"k": [1, 1, 1, 1], "v": pa.array([nan, None, 2.0, 1.0])})
    got = grouped_rank(ray.data.from_arrow(t), "k", "v",
                       descending=descending).to_pandas()
    assert got["rank"].tolist() == ([1, 4, 2, 3] if descending else [3, 4, 2, 1])

    vals = [nan, None, 2.0, 1.0, -0.0, 0.0, 2.0, nan, None, 1.0, 5.0]
    rows = [(i % 3 if i % 7 else None, vals[i % len(vals)]) for i in range(60)]
    t = pa.table({"id": pa.array(range(len(rows)), pa.int64()),
                  "k": pa.array([r[0] for r in rows], pa.int64()),
                  "v": pa.array([r[1] for r in rows], pa.float64())})
    ds = ray.data.from_arrow([t.slice(i, 8) for i in range(0, len(rows), 8)])
    got = (grouped_rank(ds, "k", "v", out="r", dense_out="dr", percent_out="pr",
                        cume_out="cd", descending=descending)
           .to_pandas().sort_values("id"))
    order = "DESC" if descending else "ASC"
    w = f"OVER (PARTITION BY k ORDER BY v {order})"
    want = duckdb.sql(f"SELECT id, rank() {w}, dense_rank() {w}, percent_rank() {w}, "
                      f"cume_dist() {w} FROM t ORDER BY id").fetchall()
    assert list(zip(got.id, got.r, got.dr, got.pr, got.cd)) == want


def test_grouped_rank_timestamp_value():
    """Non-float value dtype: timestamp[us] crosses the fine-table
    pandas hop as [ns]; without canonical casting every composite-key
    lookup missed and ranks came back null (ADVICE r3)."""
    from snorkel_ray.stages.reshape import grouped_rank

    ts = pd.to_datetime([
        "2024-01-01 00:00:00.000001", "2024-01-02", "2024-01-02",
        "2024-01-03", "2024-02-01", "2024-01-15"], format="mixed")
    df = pd.DataFrame({"k": ["a"] * 4 + ["b"] * 2,
                       "id": range(6)})
    t = pa.table({"k": pa.array(df.k), "id": pa.array(df.id),
                  "v": pa.array(ts).cast(pa.timestamp("us"))})
    ds = ray.data.from_arrow(t).repartition(3)
    out = (grouped_rank(ds, "k", "v", out="r", dense_out="dr")
           .to_pandas().sort_values("id").reset_index(drop=True))
    assert out.r.notna().all()
    assert out.r.tolist() == [1, 2, 2, 4, 2, 1]
    assert out.dr.tolist() == [1, 2, 2, 3, 2, 1]


def test_grouped_quantiles_matches_numpy():
    from snorkel_ray.stages.reshape import grouped_quantiles

    rng = np.random.default_rng(8)
    df = pd.DataFrame({
        "k": rng.integers(0, 5, 700),
        # coarse grid so the fine table is genuinely smaller than rows
        "v": rng.integers(0, 40, 700).astype("float64") / 8.0})
    ds = ray.data.from_pandas(df).repartition(4)
    out = (grouped_quantiles(ds, "k", "v", [0.25, 0.5, 0.75])
           .to_pandas().sort_values("k").reset_index(drop=True))
    for q, col in [(0.25, "q25"), (0.5, "q50"), (0.75, "q75")]:
        ref = df.groupby("k")["v"].quantile(q, interpolation="linear")
        assert np.allclose(out[col].to_numpy(), ref.to_numpy(), atol=0), \
            (col, out[col].tolist(), ref.tolist())
    # single-row group edge
    one = ray.data.from_pandas(pd.DataFrame({"k": ["x"], "v": [3.5]}))
    o = grouped_quantiles(one, "k", "v", [0.25, 0.75]).to_pandas()
    assert o.q25.iloc[0] == o.q75.iloc[0] == 3.5


def test_grouped_quantiles_ignores_nulls():
    """SQL quantile_cont ignores NULL values; the fine table must too
    (round-4 review: nulls used to count as data and shift positions)."""
    from snorkel_ray.stages.reshape import grouped_quantiles

    t = pa.table({"k": ["a", "a", "a", "b"],
                  "v": pa.array([1.0, 2.0, None, 5.0], pa.float64())})
    ds = ray.data.from_arrow(t).repartition(2)
    out = (grouped_quantiles(ds, "k", "v", [0.5])
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert out.q50.tolist() == [1.5, 5.0]


def test_histogram_fixed_width():
    from snorkel_ray.stages.reshape import histogram_fixed_width

    vals = [0.0, -1.0, 2.5, 5.0, 9.99, 10.0, 42.0, None]
    t = pa.table({"v": pa.array(vals, pa.float64())})
    ds = ray.data.from_arrow(t).repartition(3)
    out = (histogram_fixed_width(ds, "v", lo=0.0, hi=10.0, n_buckets=4)
           .to_pandas().set_index("bucket").n)
    # -1 -> 0; 0 -> 1; 2.5 -> 2; 5 -> 3; 9.99 -> 4; 10, 42 -> 5
    assert out.to_dict() == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 2}


def test_string_agg_chunked_matches_plain(ray_session):
    """Round-4 verdict item 4: the two-level range-chunked string_agg
    must equal the single-group plan exactly — including when one key
    dominates (the hot key the chunked plan exists for) and when chunk
    boundaries land on tied order values."""
    import ray.data as rd

    from snorkel_ray.stages.reshape import grouped_string_agg

    rows = [{"k": "hot", "v": f"x{i % 37:02d}", "o": i % 37}
            for i in range(500)]
    rows += [{"k": f"cold{j}", "v": f"y{j}", "o": j} for j in range(10)]
    ds = rd.from_items(rows).repartition(8)

    plain = (grouped_string_agg(ds, "k", "v", order_by=["o", "v"],
                                out="agg")
             .to_pandas().sort_values("k").reset_index(drop=True))
    for nc in (2, 5, 16, 1000):  # more chunks than rows is legal
        chunked = (grouped_string_agg(ds, "k", "v", order_by=["o", "v"],
                                      out="agg", pre_split_chunks=nc)
                   .to_pandas().sort_values("k").reset_index(drop=True))
        assert chunked.equals(plain), f"num_chunks={nc}"


def test_string_agg_chunked_string_order_and_null_guard(ray_session):
    import pytest
    import ray.data as rd

    from snorkel_ray.stages.reshape import grouped_string_agg

    rows = [{"k": 1, "v": w} for w in ["pear", "apple", "fig", "plum"]]
    out = grouped_string_agg(rd.from_items(rows), "k", "v",
                             pre_split_chunks=3).to_pandas()
    assert out["agg"].iloc[0] == "apple,fig,pear,plum"

    bad = rd.from_items([{"k": 1, "v": "a"}, {"k": 1, "v": None}])
    with pytest.raises(Exception, match="null order"):
        grouped_string_agg(bad, "k", "v", pre_split_chunks=2).to_pandas()


def test_grouped_ntile_matches_sql(ray_session):
    """The closed form floor((rank-1)*n/N)+1 equals SQL NTILE's
    remainder-to-first-buckets rule on every (N, n) shape."""
    import duckdb
    import ray.data as rd

    from snorkel_ray.stages.reshape import grouped_ntile

    rows = []
    for k, sz in [("a", 7), ("b", 5), ("c", 1), ("d", 12)]:
        rows += [{"k": k, "v": i * 10} for i in range(sz)]
    for n in (1, 2, 3, 4, 5):
        got = (grouped_ntile(rd.from_items(rows).repartition(4),
                             "k", "v", n)
               .to_pandas().sort_values(["k", "v"]).reset_index(drop=True))
        ref = duckdb.sql(
            "SELECT k, v, ntile($n) OVER (PARTITION BY k ORDER BY v) b "
            "FROM (SELECT unnest($ks) k, unnest($vs) v) ORDER BY k, v",
            params={"n": n, "ks": [r["k"] for r in rows],
                    "vs": [r["v"] for r in rows]}).df()
        assert got["bucket"].tolist() == ref["b"].tolist(), f"n={n}"


def test_melt_matches_pandas(ray_session):
    import pandas as pd
    import ray.data as rd

    from snorkel_ray.stages.reshape import melt

    df = pd.DataFrame({"id": [1, 2, 3], "tag": ["a", "b", "c"],
                       "x": [1.5, 2.5, 3.5], "y": [10, 20, 30]})
    got = (melt(rd.from_pandas(df).repartition(2), ["id", "tag"],
                ["x", "y"])
           .to_pandas().sort_values(["id", "variable"])
           .reset_index(drop=True))
    exp = (df.melt(id_vars=["id", "tag"], value_vars=["x", "y"])
           .astype({"value": "float64"})
           .sort_values(["id", "variable"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, exp)

    # string mode: non-numeric value columns need an explicit type
    import pyarrow as pa
    sgot = (melt(rd.from_pandas(df), ["id"], ["tag"],
                 value_type=pa.string())
            .to_pandas().sort_values("id").reset_index(drop=True))
    assert sgot.value.tolist() == ["a", "b", "c"]


def test_grouped_mode_matches_sql_tie_rule(ray_session):
    """Ties broken by SMALLEST value — the deterministic rule the
    oracle spells with row_number(); includes an all-null key (absent)
    and a null value inside a group (ignored)."""
    import duckdb
    import pandas as pd
    import ray.data as rd

    from snorkel_ray.stages.reshape import grouped_mode

    df = pd.DataFrame({
        "k": ["a", "a", "a", "b", "b", "b", "b", "c", "c"],
        "v": ["y", "x", "y", "q", "p", "q", "p", None, "z"]})
    got = (grouped_mode(rd.from_pandas(df).repartition(3), "k", "v",
                        count_out="n")
           .to_pandas().sort_values("k").reset_index(drop=True))
    exp = duckdb.sql("""
        SELECT k, v AS mode, CAST(n AS BIGINT) AS n FROM (
            SELECT k, v, count(*) AS n, row_number() OVER (
                PARTITION BY k ORDER BY count(*) DESC, v ASC) AS rn
            FROM df WHERE v IS NOT NULL GROUP BY k, v)
        WHERE rn = 1 ORDER BY k""").df()
    pd.testing.assert_frame_equal(got, exp)
    # 'b' has the 2-2 tie: p < q wins
    assert got.set_index("k").loc["b", "mode"] == "p"


def test_grouped_count_distinct_counts_nan_but_not_null():
    # SQL count(DISTINCT v): NULL ignored, NaN IS a value (review r5:
    # pandas dropna conflated the two)
    from snorkel_ray.stages.reshape import grouped_count_distinct

    t = pa.table({"k": ["a", "a", "a", "a"],
                  "v": pa.array([1.0, float("nan"), None, 2.0],
                                pa.float64())})
    out = grouped_count_distinct(ray.data.from_arrow(t), "k", "v",
                                 out="n").to_pandas()
    assert out.n.tolist() == [3]


def test_grouped_quantiles_disc_exact_stored_value():
    # percentile_disc: smallest value whose cume_dist >= q — an EXACT
    # stored value (rank ceil(q*n)), never interpolated
    from snorkel_ray.stages.reshape import grouped_quantiles

    t = pa.table({"k": ["a"] * 4 + ["b"] * 3,
                  "v": [10.0, 20.0, 30.0, 40.0, 1.0, 2.0, 3.0]})
    ds = ray.data.from_arrow(t).repartition(3)
    out = (grouped_quantiles(ds, "k", "v", [0.5, 0.25],
                             out_names=["p50", "p25"], disc=True)
           .to_pandas().sort_values("k").reset_index(drop=True))
    # n=4: ceil(.5*4)=2nd -> 20, ceil(.25*4)=1st -> 10
    # n=3: ceil(.5*3)=2nd -> 2, ceil(.25*3)=1st -> 1
    assert out.p50.tolist() == [20.0, 2.0]
    assert out.p25.tolist() == [10.0, 1.0]
