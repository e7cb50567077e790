"""Window operators + HLL sketch tests."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _events(ray_session):
    import ray.data as rd

    base = pd.Timestamp("2024-01-01 00:00:00")
    rows = []
    # user 1: two sessions (gap > 30min), user 2: one session
    for mins in [0, 10, 20, 90, 95]:
        rows.append({"user_id": 1, "ts": base + pd.Timedelta(minutes=mins),
                     "value": 1.0, "event_id": len(rows)})
    for mins in [5, 15]:
        rows.append({"user_id": 2, "ts": base + pd.Timedelta(minutes=mins),
                     "value": 2.0, "event_id": len(rows)})
    return rd.from_pandas(pd.DataFrame(rows))


def test_session_windows(ray_session):
    from snorkel_ray.stages.windows import session_windows

    out = session_windows(_events(ray_session), gap="30min").to_pandas()
    per_user = out.groupby("user_id").size().to_dict()
    assert per_user == {1: 2, 2: 1}
    u1 = out[out["user_id"] == 1].sort_values("session_start")
    assert u1["n_events"].tolist() == [3, 2]


def test_tumbling_and_sliding(ray_session):
    from snorkel_ray.stages.windows import sliding_window_mean, tumbling_window_counts

    win = tumbling_window_counts(_events(ray_session), width="1h").to_pandas()
    u1 = win[win["user_id"] == 1].sort_values("window_start")
    assert u1["n_events"].tolist() == [3, 2]

    roll = sliding_window_mean(_events(ray_session), window=2).to_pandas()
    u2 = roll[roll["user_id"] == 2].sort_values("ts")
    assert np.allclose(u2["rolling_mean"].tolist(), [2.0, 2.0])


def test_hll_accuracy(ray_session):
    import ray.data as rd

    from snorkel_ray.stages.sketches import HLL, approx_distinct

    n = 20000
    ds = rd.from_items([{"k": f"key-{i % 5000}"} for i in range(n)])
    est = approx_distinct(ds, "k", p=12)
    assert abs(est - 5000) / 5000 < 0.05
    # mergeability == adding everything to one sketch
    a, b = HLL(10), HLL(10)
    a.add_batch(range(0, 1000))
    b.add_batch(range(500, 1500))
    one = HLL(10)
    one.add_batch(range(0, 1500))
    assert np.array_equal(a.merge(b).registers, one.registers)


def test_session_presplit_matches_plain(ray_session):
    """Chunked (hot-key-safe) sessionize must equal the single-group
    plan exactly — including sessions spanning chunk boundaries."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from snorkel_ray.stages.windows import session_windows

    rng = np.random.default_rng(7)
    base = pd.Timestamp("2024-01-01")
    rows = []
    for uid in range(5):
        t = base
        for _ in range(300):
            # mix of intra-session gaps (<30min) and session breaks,
            # some gaps straddling midnight chunk boundaries
            t = t + pd.Timedelta(minutes=int(rng.integers(1, 90)))
            rows.append({"user_id": uid, "ts": t})
    ds = rd.from_pandas(pd.DataFrame(rows)).repartition(4)

    plain = session_windows(ds, gap="30min").to_pandas()
    chunked = session_windows(ds, gap="30min", pre_split_chunk="1D").to_pandas()
    key = ["user_id", "session_start", "session_end", "n_events"]
    a = plain[key].sort_values(key).reset_index(drop=True)
    b = chunked[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_tumbling_hot_key_no_single_group(ray_session):
    """One key owning 10^5 events: tumbling windows never form a
    per-key group (vectorized window assignment + hash agg), so the
    celebrity key cannot OOM a reducer (round-1 verdict item 9)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from snorkel_ray.stages.windows import tumbling_window_counts

    n = 100_000
    ts = pd.Timestamp("2024-01-01") + pd.to_timedelta(
        np.arange(n) * 90, unit="s")  # ~104 days of one hot user
    df = pd.DataFrame({"user_id": np.zeros(n, np.int64), "ts": ts,
                       "value": np.ones(n)})
    out = tumbling_window_counts(rd.from_pandas(df).repartition(8),
                                 width="1D").to_pandas()
    assert out["n_events"].sum() == n
    assert (out["n_events"] <= 24 * 40 + 1).all()  # bounded per window


def test_fit_centroids_survives_sorted_input(ray_session):
    """Input sorted by cluster: a prefix 'sample' would see one cluster
    only; random_sample must recover all three (round-1 verdict item 7)."""
    import numpy as np
    import ray.data as rd

    from snorkel_ray.stages.similarity import fit_centroids

    rng = np.random.default_rng(0)
    centers = np.eye(3, 16, dtype=np.float32) * 10
    rows = []
    for c in range(3):  # SORTED by cluster: all of c=0 first
        for _ in range(3000):
            rows.append({"embedding": (centers[c] +
                                       rng.normal(0, .1, 16)).astype(np.float32).tolist()})
    ds = rd.from_items(rows).repartition(8)
    C = fit_centroids(ds, n_centroids=3, sample_rows=512)
    # every true center must have a learned centroid nearby (cosine > .9)
    Cn = C / np.linalg.norm(C, axis=1, keepdims=True)
    for c in range(3):
        t = centers[c] / np.linalg.norm(centers[c])
        assert (Cn @ t).max() > 0.9, f"cluster {c} not represented"


def test_detect_hot_keys_survives_sorted_input(ray_session):
    """Hot key living at the END of a key-sorted input must still be
    detected (a prefix sample would miss it entirely)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from snorkel_ray.stages.skew import detect_hot_keys

    cold = [f"cold_{i}" for i in range(30_000)]          # unique, first
    hot = ["zzz_hot"] * 10_000                            # 25%, last
    ds = rd.from_arrow(pa.table({"k": cold + hot})).repartition(8)
    keys = detect_hot_keys(ds, "k", hot_fraction=0.05)
    assert "zzz_hot" in keys


def test_ivf_assigned_matches_unassigned(ray_session):
    """Persisted centroid assignment (build once, query many) must give
    the same results as per-query routing (round-1 verdict: IVF)."""
    import numpy as np
    import ray.data as rd

    from snorkel_ray.stages.similarity import (assign_centroids,
                                               fit_centroids, ivf_topk)

    rng = np.random.default_rng(1)
    rows = [{"vec_id": i, "embedding": rng.normal(0, 1, 16).astype(np.float32).tolist()}
            for i in range(400)]
    ds = rd.from_items(rows).repartition(4).materialize()
    cents = fit_centroids(ds, n_centroids=4, sample_rows=256)
    q = np.asarray(rows[7]["embedding"], np.float32)

    direct = ivf_topk(ds, q, cents, k=5, nprobe=2).to_pandas()
    indexed = assign_centroids(ds, cents).materialize()
    via_index = ivf_topk(indexed, q, cents, k=5, nprobe=2,
                         assigned=True).to_pandas()
    a = direct.sort_values("vec_id").reset_index(drop=True)
    b = via_index.sort_values("vec_id").reset_index(drop=True)
    assert a["vec_id"].tolist() == b["vec_id"].tolist()
    assert np.allclose(a["cosine"], b["cosine"])


def test_sliding_presplit_matches_plain(ray_session):
    """Round-2 verdict item 3: the two-level sliding plan (per-chunk
    rolling + boundary fix-up) must equal the single-group plan
    exactly — including heads whose window reaches back across
    MULTIPLE sparse chunks (< window-1 events per chunk)."""
    import ray.data as rd

    from snorkel_ray.stages.windows import sliding_window_mean

    rng = np.random.default_rng(11)
    base = pd.Timestamp("2024-01-01")
    rows = []
    eid = 0
    for uid in range(4):
        t = base
        # bursty: dense runs then multi-day gaps, so some chunks hold
        # a single event and a window-5 head must chase 2+ chunks back
        for _ in range(200):
            t = t + pd.Timedelta(minutes=int(rng.integers(1, 3000)))
            rows.append({"user_id": uid, "ts": t,
                         "value": float(rng.uniform(0, 10)), "event_id": eid})
            eid += 1
    ds = rd.from_pandas(pd.DataFrame(rows)).repartition(4)

    plain = sliding_window_mean(ds, window=5).to_pandas()
    chunked = sliding_window_mean(ds, window=5,
                                  pre_split_chunk="1D").to_pandas()
    a = plain.sort_values("event_id").reset_index(drop=True)
    b = chunked.sort_values("event_id").reset_index(drop=True)
    assert len(a) == len(b) == len(rows)
    pd.testing.assert_series_equal(a["rolling_mean"], b["rolling_mean"])


def test_sliding_presplit_bounds_group_size(ray_session):
    """A celebrity key's full history must never sort in one reducer:
    level-2 groups of the shared context plan hold only boundary rows,
    at most 2·(window−1)·#chunks of them."""
    import ray.data as rd

    from snorkel_ray.stages import windows as W

    n, window = 5000, 3  # one hot key, 144 events/chunk at 10-min spacing
    base = pd.Timestamp("2024-01-01")
    df = pd.DataFrame({
        "user_id": 1,
        "ts": [base + pd.Timedelta(minutes=10 * i) for i in range(n)],
        "value": np.arange(n, dtype=np.float64),
        "event_id": np.arange(n),
    })
    ds = rd.from_pandas(df).repartition(8)

    def _stamp(g):  # every row records the size of the group it saw
        g["group_rows"] = len(g)

    out = W._context_plan(ds, "user_id", "ts", pd.Timedelta("1D"), _stamp,
                          W._row_split(window - 1)).to_pandas()
    out = out.sort_values("event_id").reset_index(drop=True)
    assert len(out) == n
    day = out["ts"].dt.floor("1D")
    n_chunks = day.nunique()
    is_head = out.groupby(day).cumcount() < window - 1
    bound = 2 * (window - 1) * n_chunks
    assert bound < n
    assert out.loc[is_head, "group_rows"].max() <= bound
    assert out.loc[~is_head, "group_rows"].max() <= 144  # one chunk

    out = W.sliding_window_mean(ds, window=window,
                                pre_split_chunk="1D").to_pandas()
    # correctness: trailing mean of consecutive ints is the middle value
    out = out.sort_values("event_id").reset_index(drop=True)
    assert out["rolling_mean"].iloc[0] == 0.0
    assert out["rolling_mean"].iloc[10] == 9.0  # mean(8, 9, 10)
    assert (out["rolling_mean"].iloc[2:].to_numpy()
            == np.arange(1, n - 1, dtype=np.float64)).all()
    assert len(out) == n


def test_kll_quantiles_accuracy_and_merge(ray_session):
    """Mergeable KLL quantile sketch (round-2 verdict item 5): <1%
    rank error vs exact on skewed data, merge(partials) within the
    same bound."""
    import ray.data as rd

    from snorkel_ray.stages.sketches import KLL, approx_quantiles

    rng = np.random.default_rng(5)
    data = rng.lognormal(3, 2, 120_000)
    sorted_d = np.sort(data)

    parts = []
    for chunk in np.array_split(data, 10):
        s = KLL(256)
        s.add_batch(chunk)
        parts.append(s)
    merged = parts[0]
    for p in parts[1:]:
        merged = merged.merge(p)
    assert merged.n == len(data)
    for q in (0.01, 0.25, 0.5, 0.75, 0.99):
        rank = np.searchsorted(sorted_d, merged.quantile(q)) / len(data)
        assert abs(rank - q) < 0.01, (q, rank)

    # distributed wrapper over a Dataset
    ds = rd.from_pandas(pd.DataFrame({"v": data})).repartition(6)
    ests = approx_quantiles(ds, "v", [0.5, 0.9])
    for q, est in zip([0.5, 0.9], ests):
        rank = np.searchsorted(sorted_d, est) / len(data)
        assert abs(rank - q) < 0.01, (q, rank)


def test_ivf_partitioned_read_prunes(ray_session, tmp_path):
    """write_ivf_index + ivf_topk_partitioned (round-2 verdict item 6):
    only the nprobe probed partitions' files are opened (read-level
    pruning, via ds.input_files) and results equal the
    assigned=True filter path."""
    import ray.data as rd

    import glob

    from snorkel_ray.stages.similarity import (_norm, assign_centroids,
                                               fit_centroids,
                                               ivf_partition_files, ivf_topk,
                                               ivf_topk_partitioned,
                                               write_ivf_index)

    rng = np.random.default_rng(9)
    vecs = rng.standard_normal((400, 16)).astype(np.float32)
    ds = rd.from_pandas(pd.DataFrame({
        "vec_id": np.arange(400), "embedding": list(map(list, vecs))}))
    cents = fit_centroids(ds, n_centroids=8, sample_rows=400)
    idx_path = str(tmp_path / "ivf")
    write_ivf_index(ds, cents, idx_path)

    q = vecs[7]
    # read-level pruning: the file list covers ONLY probed partitions,
    # and is a strict subset of the files on disk
    C = _norm(np.asarray(cents, dtype=np.float32))
    Q = _norm(np.atleast_2d(q))
    probe = set(np.argsort(-(Q @ C.T), axis=1)[:, :2].reshape(-1).tolist())
    files = ivf_partition_files(idx_path, q, cents, nprobe=2)
    assert files, "expected at least one probed partition file"
    for f in files:
        assert any(f"centroid_id={c}/" in f for c in probe), f
    all_files = glob.glob(f"{idx_path}/centroid_id=*/*.parquet")
    assert len(files) < len(all_files)

    pruned = ivf_topk_partitioned(idx_path, q, cents, k=5, nprobe=2)

    assigned = assign_centroids(ds, cents).materialize()
    direct = ivf_topk(assigned, q, cents, k=5, nprobe=2,
                      assigned=True).to_pandas()
    got = pruned.to_pandas()
    a = direct.sort_values("vec_id").reset_index(drop=True)
    b = got.sort_values("vec_id").reset_index(drop=True)
    assert a["vec_id"].tolist() == b["vec_id"].tolist()
    assert np.allclose(a["cosine"], b["cosine"])


def test_lag_lead_column(ray_session):
    import ray.data as rd

    from snorkel_ray.stages.windows import lag_column

    base = pd.Timestamp("2024-01-01")
    df = pd.DataFrame({
        "user_id": [1, 1, 1, 2],
        "ts": [base, base + pd.Timedelta("1min"), base + pd.Timedelta("2min"),
               base],
        "value": [10.0, 20.0, 30.0, 5.0],
        "event_id": [0, 1, 2, 3],
    })
    lag = (lag_column(rd.from_pandas(df), n=1).to_pandas()
           .sort_values("event_id")["lag_value"].tolist())
    assert pd.isna(lag[0]) and lag[1] == 10.0 and lag[2] == 20.0
    assert pd.isna(lag[3])  # other key
    lead = (lag_column(rd.from_pandas(df), n=1, lead=True).to_pandas()
            .sort_values("event_id")["lead_value"].tolist())
    assert lead[0] == 20.0 and lead[1] == 30.0 and pd.isna(lead[2])


def test_lag_presplit_matches_plain(ray_session):
    """Chunked lag/lead must equal the single-group plan exactly,
    including predecessors spanning multiple sparse chunks."""
    import ray.data as rd

    from snorkel_ray.stages.windows import lag_column

    rng = np.random.default_rng(17)
    base = pd.Timestamp("2024-01-01")
    rows, eid = [], 0
    for uid in range(3):
        t = base
        for _ in range(150):
            t = t + pd.Timedelta(minutes=int(rng.integers(1, 4000)))
            rows.append({"user_id": uid, "ts": t,
                         "value": float(rng.uniform(0, 10)),
                         "event_id": eid})
            eid += 1
    ds = rd.from_pandas(pd.DataFrame(rows)).repartition(4)

    for kw in ({"n": 2}, {"n": 1, "lead": True}):
        col = "lead_value" if kw.get("lead") else "lag_value"
        plain = (lag_column(ds, **kw).to_pandas()
                 .sort_values("event_id").reset_index(drop=True))
        chunked = (lag_column(ds, pre_split_chunk="1D", **kw).to_pandas()
                   .sort_values("event_id").reset_index(drop=True))
        assert len(plain) == len(chunked) == len(rows)
        eq = ((plain[col] == chunked[col])
              | (plain[col].isna() & chunked[col].isna()))
        assert eq.all(), (kw, int((~eq).sum()))


def test_cumulative_sum_plain_and_chunked_parity(ray_session):
    """cumsum default plan matches pandas groupby-cumsum; the chunked
    plan matches it to float tolerance (one additive carry term) —
    including sparse chunks and a key whose history spans many
    chunks."""
    import ray.data as rd

    from snorkel_ray.stages.windows import cumulative_sum

    rng = np.random.default_rng(7)
    base = pd.Timestamp("2024-01-01")
    rows = []
    eid = 0
    for uid in range(4):
        t = base
        for _ in range(150):
            t = t + pd.Timedelta(minutes=int(rng.integers(1, 4000)))
            rows.append({"user_id": uid, "ts": t,
                         "value": float(rng.uniform(0, 10)), "event_id": eid})
            eid += 1
    df = pd.DataFrame(rows)
    ds = rd.from_pandas(df).repartition(4)

    expect = df.sort_values(["ts", "event_id"]).copy()
    expect["cum_value"] = expect.groupby("user_id")["value"].cumsum()
    expect = expect.sort_values("event_id").reset_index(drop=True)

    plain = (cumulative_sum(ds).to_pandas()
             .sort_values("event_id").reset_index(drop=True))
    pd.testing.assert_series_equal(plain["cum_value"], expect["cum_value"])

    chunked = (cumulative_sum(ds, pre_split_chunk="1D").to_pandas()
               .sort_values("event_id").reset_index(drop=True))
    assert len(chunked) == len(expect)
    np.testing.assert_allclose(chunked["cum_value"], expect["cum_value"],
                               rtol=1e-12)


def _null_events(seed: int) -> pd.DataFrame:
    """Events for the SQL-null tests: every user's first value is
    null, so is the first and last value of every (user, day) chunk,
    user 2 has an all-null day, and user "ex" is the hand case
    [1, NULL, 2, 3] at 0/10/20/200 min."""
    rng = np.random.default_rng(seed)
    base = pd.Timestamp("2024-01-01")
    rows = []
    for uid in range(3):
        t = base
        for _ in range(150):
            t = t + pd.Timedelta(minutes=int(rng.integers(5, 400)))
            v = None if rng.random() < 0.2 else float(rng.uniform(0, 10))
            rows.append({"user_id": f"u{uid}", "ts": t, "value": v})
    rows += [{"user_id": "ex", "ts": base + pd.Timedelta(minutes=m), "value": v}
             for m, v in [(0, 1.0), (10, None), (20, 2.0), (200, 3.0)]]
    df = pd.DataFrame(rows)
    df["event_id"] = np.arange(len(df))
    day = df["ts"].dt.floor("1D")
    grp = df.groupby(["user_id", day])["ts"]
    edge = ((df["ts"] == grp.transform("min")) | (df["ts"] == grp.transform("max"))
            | (df["ts"] == df.groupby("user_id")["ts"].transform("min")))
    whole_day = (df["user_id"] == "u2") & (day == base + pd.Timedelta("3D"))
    df.loc[(edge | whole_day) & (df["user_id"] != "ex"), "value"] = np.nan
    return df


def _assert_sql_equal(got: pd.DataFrame, exp: pd.DataFrame, col: str) -> None:
    got = got.sort_values("event_id").reset_index(drop=True)
    assert len(got) == len(exp)
    assert (got[col].isna() == exp[col].isna()).all(), \
        got[got[col].isna() != exp[col].isna()].head().to_dict("records")
    ok = exp[col].notna()
    np.testing.assert_allclose(got.loc[ok, col], exp.loc[ok, col], rtol=1e-9)


@pytest.mark.filterwarnings("error::FutureWarning")
def test_cumulative_sum_nulls_match_duckdb(ray_session):
    """Nulls follow SQL on both plans: a null value is skipped, and
    the running total is null only before the first non-null value
    (DuckDB ``SUM(value) OVER (PARTITION BY user_id ORDER BY ts)``)."""
    import duckdb
    import pyarrow as pa
    import ray.data as rd

    from snorkel_ray.stages.windows import cumulative_sum

    df = _null_events(3)
    t = pa.Table.from_pandas(df)
    exp = duckdb.sql("""
        SELECT event_id, user_id, SUM(value) OVER (
            PARTITION BY user_id ORDER BY ts, event_id
            ROWS UNBOUNDED PRECEDING) AS cum_value
        FROM t ORDER BY event_id""").df()
    assert exp.loc[exp.user_id == "ex", "cum_value"].tolist() == [1, 1, 3, 6]
    assert exp["cum_value"].isna().sum() >= 3  # the leading nulls
    ds = rd.from_pandas(df).repartition(4)
    for chunk in (None, "1D"):
        _assert_sql_equal(cumulative_sum(ds, pre_split_chunk=chunk).to_pandas(),
                          exp, "cum_value")


def test_time_range_sum_nulls_match_duckdb(ray_session):
    """``time_range_sum`` skips null values on both plans; a row whose
    1h frame holds only nulls gets null (DuckDB ``RANGE BETWEEN
    INTERVAL 1 HOUR PRECEDING AND CURRENT ROW``)."""
    import duckdb
    import pyarrow as pa
    import ray.data as rd

    from snorkel_ray.stages.windows import time_range_sum

    df = _null_events(5)
    t = pa.Table.from_pandas(df.assign(ts=df["ts"].astype("datetime64[us]")))
    exp = duckdb.sql("""
        SELECT event_id, user_id, SUM(value) OVER (
            PARTITION BY user_id ORDER BY ts
            RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
            AS range_sum
        FROM t ORDER BY event_id""").df()
    assert exp.loc[exp.user_id == "ex", "range_sum"].tolist() == [1, 1, 3, 3]
    assert exp["range_sum"].isna().sum() >= 3
    ds = rd.from_pandas(df).repartition(4)
    for chunk in (None, "1D"):
        _assert_sql_equal(time_range_sum(ds, width="1h", pre_split_chunk=chunk)
                          .to_pandas(), exp, "range_sum")


def test_space_saving_exact_and_approx(ray_session):
    """Capacity >= distinct: exact counts, zero err.  Tiny capacity on
    a skewed stream: the true heavy hitter is still reported and its
    count bound (n - err <= true <= n) holds."""
    import pandas as pd
    import ray.data as rd

    from snorkel_ray.stages.sketches import SpaceSaving, heavy_hitters

    rng = np.random.default_rng(9)
    vals = np.concatenate([
        np.full(500, 7), rng.integers(100, 400, 1500)]).astype("int64")
    rng.shuffle(vals)
    df = pd.DataFrame({"x": vals})
    ds = rd.from_pandas(df).repartition(6)

    exact = heavy_hitters(ds, "x", k=5, capacity=1000).to_pandas()
    ref = (df.x.value_counts().reset_index()
           .sort_values(["count", "x"], ascending=[False, True]).head(5))
    assert exact.x.tolist() == ref.x.tolist()
    assert exact.n.tolist() == ref["count"].tolist()
    assert (exact["err"] == 0).all()

    approx = heavy_hitters(ds, "x", k=3, capacity=16).to_pandas()
    assert approx.x.iloc[0] == 7          # guarantee: count > N/capacity
    top = approx.iloc[0]
    assert top.n - top.err <= 500 <= top.n

    # merge: splitting a stream across two sketches loses no hitter
    a, b = SpaceSaving(16), SpaceSaving(16)
    for v in vals[:1000]:
        a.update(int(v))
    for v in vals[1000:]:
        b.update(int(v))
    m = a.merge(b)
    assert m.topk(1)[0][0] == 7


def test_hot_key_auto_routes_to_chunked_plan():
    """Round-3 verdict item 2: a plain (default) call on a corpus where
    one key dominates must pick the two-level plan automatically — and
    produce exactly the single-group plan's results."""
    import pandas as pd
    import ray

    from snorkel_ray.stages.skew import auto_pre_split_chunk
    from snorkel_ray.stages.windows import (
        cumulative_sum,
        lag_column,
        session_windows,
        sliding_window_mean,
    )

    rng = np.random.default_rng(31)
    n_hot, n_cold = 4000, 400
    ts = (pd.Timestamp("2024-03-01")
          + pd.to_timedelta(np.sort(rng.integers(0, 3_000_000, n_hot)), unit="s"))
    cold_ts = (pd.Timestamp("2024-03-01")
               + pd.to_timedelta(rng.integers(0, 3_000_000, n_cold), unit="s"))
    df = pd.DataFrame({
        "user_id": ["celebrity"] * n_hot + [f"u{i % 40}" for i in range(n_cold)],
        "ts": list(ts) + list(cold_ts),
        "event_id": np.arange(n_hot + n_cold),
        "value": rng.normal(0, 1, n_hot + n_cold),
    })
    ds = ray.data.from_pandas(df).repartition(6)

    # the probe must fire: one key owns >90% of rows
    width = auto_pre_split_chunk(ds, "user_id", "ts")
    assert width is not None

    for plain_fn, kw in [
        (sliding_window_mean, dict(window=4)),
        (lag_column, dict(n=2)),
        (cumulative_sum, {}),
        (session_windows, dict(gap="30min")),
    ]:
        auto = plain_fn(ds, **kw).to_pandas()
        single = plain_fn(ds, pre_split_chunk=None, **kw).to_pandas()
        sort_cols = [c for c in ("user_id", "ts", "event_id",
                                 "session_start") if c in auto.columns]
        a = auto.sort_values(sort_cols).reset_index(drop=True)
        s = single.sort_values(sort_cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            a[sorted(a.columns)], s[sorted(s.columns)],
            check_like=True, check_dtype=False,
            atol=1e-9, rtol=1e-9)


def test_asof_auto_hot_key_parity():
    import pandas as pd
    import ray

    from snorkel_ray.stages.joins import asof_join

    rng = np.random.default_rng(9)
    n = 3000
    left = pd.DataFrame({
        "user_id": ["hot"] * n,
        "ts": (pd.Timestamp("2024-01-01")
               + pd.to_timedelta(np.sort(rng.integers(0, 10_000_000, n)), unit="s")),
        "event_id": np.arange(n),
    })
    right = pd.DataFrame({
        "user_id": ["hot"] * 50,
        "ts": (pd.Timestamp("2024-01-01")
               + pd.to_timedelta(np.sort(rng.choice(10_000_000, 50, replace=False)), unit="s")),
        "price": rng.normal(100, 5, 50),
    })
    lds = ray.data.from_pandas(left).repartition(4)
    rds = ray.data.from_pandas(right)

    auto = (asof_join(lds, rds, "user_id", "ts", ["price"])
            .to_pandas().sort_values("event_id").reset_index(drop=True))
    single = (asof_join(lds, rds, "user_id", "ts", ["price"],
                        pre_split_chunk=None)
              .to_pandas().sort_values("event_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(auto[sorted(auto.columns)],
                                  single[sorted(single.columns)],
                                  check_like=True, check_dtype=False)


def test_time_range_sum_matches_brute_force():
    """Time-range rolling sum: inclusive [t-width, t] frame, ts peers
    all included (SQL RANGE semantics), plain == chunked."""
    import pandas as pd
    import ray

    from snorkel_ray.stages.windows import time_range_sum

    rng = np.random.default_rng(11)
    n = 400
    secs = np.sort(rng.integers(0, 40_000, n))
    secs[5] = secs[6] = secs[7]          # planted ts ties
    df = pd.DataFrame({
        "user_id": [f"u{i % 3}" for i in range(n)],
        "ts": pd.Timestamp("2024-05-01") + pd.to_timedelta(secs, unit="s"),
        "event_id": np.arange(n),
        "value": rng.normal(0, 1, n),
    })
    wid = pd.Timedelta("1h")

    def brute(df):
        out = []
        for _, r in df.iterrows():
            m = (df.user_id == r.user_id) & (df.ts >= r.ts - wid) & (df.ts <= r.ts)
            out.append(df.value[m].sum())
        return np.array(out)

    want = brute(df)
    ds = ray.data.from_pandas(df).repartition(5)
    got = (time_range_sum(ds, width="1h", pre_split_chunk=None)
           .to_pandas().sort_values("event_id"))
    assert np.allclose(got.range_sum.to_numpy(), want, atol=1e-9)

    chunked = (time_range_sum(ds, width="1h", pre_split_chunk="2h")
               .to_pandas().sort_values("event_id"))
    assert np.allclose(chunked.range_sum.to_numpy(), want, atol=1e-9)

    import pytest
    with pytest.raises(Exception, match=">= width"):
        time_range_sum(ds, width="1h", pre_split_chunk="30min").to_pandas()


def test_chunked_plans_keep_tied_ts_rows_without_event_id():
    """Round-4 review: the level-2 head/ctx dedup keyed on (ts) used to
    collapse DISTINCT rows that tie on ts when no event_id column
    exists.  Row identity is now a per-row uid — chunked output must
    have exactly the input row count and (for the time-range sum)
    exactly the single-group values."""
    import pandas as pd
    import ray

    from snorkel_ray.stages.windows import (
        cumulative_sum,
        sliding_window_mean,
        time_range_sum,
    )

    # many tied timestamps right at chunk boundaries, NO event_id
    base = pd.Timestamp("2024-06-01")
    rows = []
    for d in range(6):
        t0 = base + pd.Timedelta(days=d)
        rows += [(t0, 1.0), (t0, 2.0), (t0, 4.0),        # boundary ties
                 (t0 + pd.Timedelta("3h"), 8.0)]
    df = pd.DataFrame(rows, columns=["ts", "value"])
    df["user_id"] = "hot"
    ds = ray.data.from_pandas(df).repartition(3)

    out = (time_range_sum(ds, width="1h", pre_split_chunk="1D")
           .to_pandas())
    assert len(out) == len(df)
    single = (time_range_sum(ds, width="1h", pre_split_chunk=None)
              .to_pandas())
    a = sorted(zip(out.ts, out.value, out.range_sum))
    b = sorted(zip(single.ts, single.value, single.range_sum))
    assert a == b
    # tied rows are peers: each boundary trio sums to 7.0
    trio = out[out.value == 1.0]
    assert (trio.range_sum == 7.0).all()

    # sliding mean: chunked keeps every row (values among ties are
    # order-dependent either way; the row-loss is the bug under test)
    slid = (sliding_window_mean(ds, window=3, pre_split_chunk="1D")
            .to_pandas())
    assert len(slid) == len(df)
    assert slid.rolling_mean.notna().all()


def test_auto_probe_declines_degenerate_chunking():
    """A window wide relative to the data span must fall back to the
    single-group plan (chunking would put ~everything in the boundary
    set), and non-timestamp ts must decline too."""
    import pandas as pd
    import ray

    from snorkel_ray.stages.skew import auto_pre_split_chunk

    n = 3000
    df = pd.DataFrame({
        "user_id": ["hot"] * n,
        "ts": pd.Timestamp("2024-01-01")
        + pd.to_timedelta(np.arange(n), unit="s"),  # 50-minute span
        "value": np.ones(n),
    })
    ds = ray.data.from_pandas(df)
    # min_width 16h >> span/2 -> decline
    assert auto_pre_split_chunk(ds, "user_id", "ts",
                                min_width=pd.Timedelta("16h")) is None
    # numeric ts -> decline
    df2 = df.assign(ts=np.arange(n, dtype=np.float64))
    assert auto_pre_split_chunk(
        ray.data.from_pandas(df2), "user_id", "ts") is None


# the chunk helpers and the skeleton functions allowed to use them
_CHUNK_USERS = {
    "_chunk_map": {"windows._context_plan", "windows._carry_plan",
                   "windows.session_windows"},
    "_ck_map": {"windows._carry_plan"},
}


def _chunk_refs(src: str, module: str) -> set[tuple[str, str]]:
    """(helper, enclosing top-level function) for every reference to a
    chunk helper in one module's source, imports included; the
    helpers' own definitions are not references."""
    import ast

    out = set()
    for top in ast.parse(src).body:
        owner = f"{module}.{getattr(top, 'name', '<module>')}"
        for node in ast.walk(top):
            names = ([node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute)
                     else [a.name for a in node.names]
                     if isinstance(node, ast.ImportFrom) else [])
            out |= {(n, owner) for n in names if n in _CHUNK_USERS}
    return out


def test_chunked_plans_are_the_two_skeletons():
    """A keyed op chunks only through ``windows._context_plan`` or
    ``windows._carry_plan`` (``session_windows`` merges sessions, not
    rows): a third hand-rolled two-level plan, in ``joins.py`` too,
    fails here (CLAUDE.md)."""
    import os

    import snorkel_ray

    probe = ("from .windows import _chunk_map, _ck_map\n"
             "def plan(ds):\n    return ds.map_batches(_ck_map('k'))\n")
    assert _chunk_refs(probe, "joins") == {
        ("_chunk_map", "joins.<module>"), ("_ck_map", "joins.<module>"),
        ("_ck_map", "joins.plan")}
    root = os.path.dirname(snorkel_ray.__file__)
    bad = set()
    for dirpath, _, files in os.walk(root):
        for f in files:
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                refs = _chunk_refs(open(path).read(), f[:-3])
                bad |= {(n, o) for n, o in refs if o not in _CHUNK_USERS[n]}
    assert not bad, sorted(bad)
