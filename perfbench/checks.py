"""Output checks, independent of the code under test.

Each check takes the generated input's planted truth or an oracle
computed by DuckDB on the same table, and the program's output as a
plain Arrow table, and returns ``None`` when the output is right or a
one-line reason when it is not.  Checks run untimed.
"""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

MIN_PRECISION = MIN_RECALL = 0.95
REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# kg: precision/recall against planted triples; equal triple tables
# ---------------------------------------------------------------------------

def check_triples(got: pa.Table, expected: pa.Table) -> str | None:
    key = ["subj_qid", "pred", "obj_qid"]
    g = set(zip(*(got.column(c).to_pylist() for c in key)))
    e = set(zip(*(expected.column(c).to_pylist() for c in key)))
    if not g or not e:
        return f"empty triple set: got {len(g)}, expected {len(e)}"
    tp = len(g & e)
    p, r = tp / len(g), tp / len(e)
    if p < MIN_PRECISION or r < MIN_RECALL:
        return f"precision {p:.4f} / recall {r:.4f} below {MIN_PRECISION}"
    return None


def sort_all(t: pa.Table) -> pa.Table:
    return t.sort_by([(c, "ascending") for c in t.column_names])


def check_same_table(got: pa.Table, ref: pa.Table, what: str) -> str | None:
    if got.column_names != ref.column_names:
        return f"{what}: columns {got.column_names} != {ref.column_names}"
    if not sort_all(got).equals(sort_all(ref.cast(got.schema))):
        return f"{what}: {got.num_rows} rows differ from the {ref.num_rows} reference rows"
    return None


# ---------------------------------------------------------------------------
# events_keyed: DuckDB oracles over the same event table
# ---------------------------------------------------------------------------

def events_oracles(events: pa.Table, *, tumble_us: int, gap_us: int,
                   window: int, categories: list[str]) -> dict[str, pa.Table]:
    con = duckdb.connect()
    con.register("ev", events)
    q = {}
    q["tumbling"] = f"""
        SELECT user_id, epoch_us(ts) // {tumble_us} * {tumble_us} AS window_us,
               count(*) AS n, sum(value) AS v
        FROM ev GROUP BY ALL"""
    q["session"] = f"""
        WITH o AS (
          SELECT user_id, ts, event_id, epoch_us(ts) - lag(epoch_us(ts)) OVER w AS d
          FROM ev WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
        s AS (
          SELECT user_id, ts, event_id, sum(CASE WHEN d IS NULL OR d > {gap_us} THEN 1 ELSE 0 END)
                 OVER (PARTITION BY user_id ORDER BY ts, event_id
                       ROWS UNBOUNDED PRECEDING) AS sid
          FROM o)
        SELECT user_id, epoch_us(min(ts)) AS start_us, epoch_us(max(ts)) AS end_us,
               count(*) AS n
        FROM s GROUP BY user_id, sid"""
    q["lag"] = """
        SELECT event_id, lag(value) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS v
        FROM ev"""
    q["sliding"] = f"""
        SELECT event_id, avg(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
               ROWS BETWEEN {window - 1} PRECEDING AND CURRENT ROW) AS v
        FROM ev"""
    q["zscore"] = """
        SELECT event_id, CASE WHEN sd > 0 THEN (value - mu) / sd END AS v
        FROM (SELECT event_id, value,
                     avg(value) OVER (PARTITION BY user_id) AS mu,
                     stddev_samp(value) OVER (PARTITION BY user_id) AS sd FROM ev)"""
    q["count_distinct"] = """
        SELECT user_id, count(DISTINCT category) AS n FROM ev GROUP BY user_id"""
    cols = ", ".join(f"count(*) FILTER (WHERE category = '{c}') AS n_{c}"
                     for c in categories)
    q["pivot"] = f"SELECT user_id, {cols} FROM ev GROUP BY user_id"
    try:
        return {k: con.execute(v).arrow() for k, v in q.items()}
    finally:
        con.close()


def _as_us(col) -> pa.Array:
    return pc.cast(pc.cast(col, pa.timestamp("us")), pa.int64())


def events_view(op: str, out: pa.Table) -> pa.Table:
    """The program's output of ``op`` in its oracle's columns."""
    if op == "tumbling":
        return pa.table({"user_id": out["user_id"], "window_us": _as_us(out["window_start"]),
                         "n": pc.cast(out["n_events"], pa.int64()),
                         "v": pc.cast(out["sum_value"], pa.float64())})
    if op == "session":
        return pa.table({"user_id": out["user_id"],
                         "start_us": _as_us(out["session_start"]),
                         "end_us": _as_us(out["session_end"]),
                         "n": pc.cast(out["n_events"], pa.int64())})
    value_col = {"lag": "lag_value", "sliding": "rolling_mean", "zscore": "zscore"}
    if op in value_col:
        return pa.table({"event_id": pc.cast(out["event_id"], pa.int64()),
                         "v": pc.cast(out[value_col[op]], pa.float64())})
    if op == "count_distinct":
        return pa.table({"user_id": out["user_id"],
                         "n": pc.cast(out["n_distinct"], pa.int64())})
    if op == "pivot":
        return pa.table({c: out[c] if c == "user_id" else pc.cast(out[c], pa.int64())
                         for c in out.column_names})
    raise ValueError(op)


def check_against_oracle(op: str, got: pa.Table, oracle: pa.Table) -> str | None:
    """Exact match on keys and integer columns; float columns within a
    relative tolerance (summation order differs between engines)."""
    if got.num_rows != oracle.num_rows:
        return f"{op}: {got.num_rows} rows, oracle has {oracle.num_rows}"
    oracle = oracle.select(got.column_names)
    g, o = sort_all_keys(got), sort_all_keys(oracle.cast(got.schema))
    for name in got.column_names:
        a, b = g[name], o[name]
        if pa.types.is_floating(a.type):
            av = a.to_numpy(zero_copy_only=False)
            bv = b.to_numpy(zero_copy_only=False)
            an, bn = np.isnan(av), np.isnan(bv)
            if (an != bn).any():
                return f"{op}.{name}: nulls differ from the oracle"
            ok = np.isclose(av[~an], bv[~bn], rtol=REL_TOL, atol=REL_TOL)
            if not ok.all():
                return f"{op}.{name}: {int((~ok).sum())} values differ from the oracle"
        elif not a.equals(b):
            return f"{op}.{name}: values differ from the oracle"
    return None


def sort_all_keys(t: pa.Table) -> pa.Table:
    """Sort on every non-float column: the keys of every oracle table."""
    keys = [c for c in t.column_names if not pa.types.is_floating(t[c].type)]
    return t.sort_by([(c, "ascending") for c in keys])


# ---------------------------------------------------------------------------
# dedup_near: planted duplicate groups
# ---------------------------------------------------------------------------

def check_exact_dedup(docs: pa.Table, kept: pa.Table) -> str | None:
    """One survivor per distinct text, each an unchanged input row."""
    texts = kept["text"].to_pylist()
    n_distinct = len(set(docs["text"].to_pylist()))
    if len(texts) != n_distinct or len(set(texts)) != len(texts):
        return f"exact_dedup kept {len(texts)} rows for {n_distinct} distinct texts"
    by_id = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    for i, t in zip(kept["doc_id"].to_pylist(), texts):
        if by_id.get(i) != t:
            return f"exact_dedup row {i} is not an input row"
    return None


def expected_clusters(docs: pa.Table, group: np.ndarray, kept_ids) -> dict:
    """doc id → lexicographically smallest id (as a string) of the kept
    documents in its planted group."""
    gid = dict(zip(docs["doc_id"].to_pylist(), group.tolist()))
    label: dict[int, str] = {}
    for i in kept_ids:
        s = str(i)
        g = gid[i]
        if g not in label or s < label[g]:
            label[g] = s
    return {i: label[gid[i]] for i in kept_ids}


def check_clusters(clusters: pa.Table, expected: dict) -> str | None:
    got = dict(zip(clusters["doc_id"].to_pylist(), clusters["cluster"].to_pylist()))
    if got.keys() != expected.keys():
        return f"minhash_dedup labelled {len(got)} ids, expected {len(expected)}"
    wrong = sum(got[i] != c for i, c in expected.items())
    if wrong:
        return f"minhash_dedup: {wrong} ids outside their planted cluster"
    return None
