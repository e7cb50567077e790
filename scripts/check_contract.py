"""Local replica of the driver's correctness gate: run every
__ray_entry__.queries() entry at sf0.01 and compare against
oracle_sql() via DuckDB (row count + sorted-column value equality).

Every ``ok`` line also shows the query's Ray-side wall seconds and
the value hash of its canonicalized result, so two runs (say, before
and after a change) can be compared for identical results, rows-only
queries included.

Usage: python scripts/check_contract.py [sf_dir] [--only q1,q2,...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def to_df(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    raise TypeError(type(res))


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    sort_cols = list(df.columns)
    df = df.sort_values(sort_cols).reset_index(drop=True)
    return df


def value_hash(df: pd.DataFrame) -> str:
    """Strict value hash over the canonicalized frame — mirrors the
    driver's gate (which hashes sorted-column values, so a float64
    19525.0 vs int64 19525 MUST count as a mismatch; round-1 verdict)."""
    import hashlib

    h = hashlib.sha256()
    for c in df.columns:
        h.update(c.encode())
        h.update(df[c].astype(str).str.cat(sep="\x1f").encode())
    return h.hexdigest()


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    issues = []
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        issues.append(f"schema: ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}")
        return issues
    if len(ray_df) != len(sql_df):
        issues.append(f"rows: ray={len(ray_df)} sql={len(sql_df)}")
        return issues
    a, b = canon(ray_df), canon(sql_df)
    for c in a.columns:
        av, bv = a[c], b[c]
        # The driver hashes stringified values per sorted column: round-1
        # evidence — int64 19525 vs float64 19525.0 FAILED ('19525' !=
        # '19525.0') while float32 0.37 vs float64 0.37 PASSED (both
        # str to '0.37').  Mirror that exactly: numpy shortest-repr
        # string equality, no dtype leniency, no tolerance.
        ok = (av.astype(str) == bv.astype(str)).all()
        if not ok:
            bad = [(x, y) for x, y in zip(av.astype(str), bv.astype(str)) if x != y][:3]
            issues.append(f"values differ in column {c}: {bad}")
    if not issues and value_hash(a) != value_hash(b):
        issues.append("value hash mismatch")
    return issues


def main() -> int:
    args = list(sys.argv[1:])
    only: set[str] | None = None
    if "--only" in args:
        i = args.index("--only")
        only = set(args[i + 1].split(","))
        del args[i:i + 2]
    sf_dir = args[0] if args else "/root/testdata/sf0.01"

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as em

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    qs, oracles = em.queries(), em.oracle_sql()
    if only is not None:
        unknown = sorted(only - set(qs))
        if unknown:  # a typo must not yield a green '0/0 passed' run
            print(f"FAIL --only names not in queries(): {unknown}")
            return 1
    n_fail = n_run = 0
    for name, fn in qs.items():
        if only is not None and name not in only:
            continue
        n_run += 1
        t0 = time.perf_counter()
        try:
            ray_df = to_df(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        stamp = f"[{time.perf_counter() - t0:.2f}s {value_hash(canon(ray_df))}]"
        if name not in oracles:
            print(f"ok   {name}: rows-only ({len(ray_df)} rows) {stamp}")
            continue
        try:
            sql_df = con.execute(oracles[name]).df()
        except Exception as e:
            print(f"FAIL {name}: oracle raised {e}")
            n_fail += 1
            continue
        issues = compare(name, ray_df, sql_df)
        if issues:
            print(f"FAIL {name}: {'; '.join(issues)}")
            print("  ray:", ray_df.head(3).to_dict("records"))
            print("  sql:", sql_df.head(3).to_dict("records"))
            n_fail += 1
        else:
            print(f"ok   {name}: {len(ray_df)} rows match oracle {stamp}")
    ray.shutdown()
    print(f"\n{n_run - n_fail}/{n_run} passed")
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
