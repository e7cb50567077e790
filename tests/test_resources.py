"""``state.resources.stateful_map``: the one task/pool fork of every
broadcast-state stage, and the structure rule that keeps it the only
one; likewise ``block_tasks``, the one walk of a Dataset's blocks,
``fold_blocks``, the one driver merge of per-block partials,
``fold_by_key``, the one per-block combiner of a keyed aggregate,
``top_by_key``, the one per-key best-row pick, and ``by_key``, the one
keyed sort under them and the per-key ordered ops; and the rule that
every aggregate runs on those three folds."""

import ast
import os

import numpy as np
import pyarrow as pa

import snorkel_ray

_POOL_KWARGS = {"concurrency", "fn_constructor_args", "fn_constructor_kwargs"}


def _forks(src: str) -> list[str]:
    """Hand-rolled task/pool forks in one module's source: a
    ``map_batches`` call given a pool argument, or an ``as_tasks``
    parameter/argument."""
    out = []
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "map_batches":
            out += [f"map_batches({k.arg}=) at line {node.lineno}"
                    for k in node.keywords if k.arg in _POOL_KWARGS]
        elif isinstance(node, ast.arg) and node.arg == "as_tasks":
            out.append(f"as_tasks parameter at line {node.lineno}")
        elif isinstance(node, ast.keyword) and node.arg == "as_tasks":
            out.append(f"as_tasks= at line {node.value.lineno}")
    return out


def test_only_stateful_map_forks_tasks_and_pools():
    """A stage that needs a pool calls ``stateful_map``; it never
    passes pool arguments to ``map_batches`` itself and has no
    ``as_tasks`` switch (CLAUDE.md rule 2)."""
    assert len(_forks("def f(ds, as_tasks=1):\n"
                      "    g(as_tasks=0)\n"
                      "    ds.map_batches(C, fn_constructor_kwargs={})\n")) == 3
    root = os.path.dirname(snorkel_ray.__file__)
    allowed = os.path.join(root, "state", "resources.py")
    bad = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            path = os.path.join(dirpath, f)
            if f.endswith(".py") and path != allowed:
                found = _forks(open(path).read())
                if found:
                    bad[os.path.relpath(path, root)] = found
    assert not bad, bad
    assert _forks(open(allowed).read())  # the one fork is where the rule says


def _block_walks(src: str) -> list[str]:
    """Hand-rolled walks of a Dataset's blocks in one module's source:
    any use of ``iter_internal_ref_bundles``."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.Attribute) and node.attr == "iter_internal_ref_bundles"]


def test_only_block_tasks_walks_blocks():
    """A per-block statistic over a Dataset's blocks calls
    ``block_tasks``; no other module walks ``iter_internal_ref_bundles``
    itself (CLAUDE.md perf rule 7)."""
    assert _block_walks("for b in ds.iter_internal_ref_bundles():\n    pass\n")
    root = os.path.dirname(snorkel_ray.__file__)
    allowed = os.path.join(root, "state", "resources.py")
    bad = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            path = os.path.join(dirpath, f)
            if f.endswith(".py") and path != allowed:
                found = _block_walks(open(path).read())
                if found:
                    bad[os.path.relpath(path, root)] = found
    assert not bad, bad
    assert len(_block_walks(open(allowed).read())) == 1


def _driver_merges(src: str) -> list[str]:
    """Hand-rolled driver merges of a Dataset's partials in one
    module's source: any ``.iter_batches(`` or ``.take_all(`` call."""
    return [f"{node.func.attr} at line {node.lineno}" for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("iter_batches", "take_all")]


def test_only_fold_blocks_merges_partials():
    """A keyless partial aggregate calls ``fold_blocks``; no module
    (``__ray_entry__.py`` included) pulls partials back through
    ``iter_batches`` or ``take_all`` itself.
    The one exception is the discriminative model's training iterator,
    which streams rows to SGD and merges nothing."""
    assert len(_driver_merges("for b in ds.map_batches(f).iter_batches():\n    pass\n"
                              "rows = ds.take_all()\n"
                              "ds.iter_batches\n")) == 2
    pkg = os.path.dirname(snorkel_ray.__file__)
    repo = os.path.dirname(pkg)
    exempt = {os.path.join("snorkel_ray", "stages", "disc_model.py"): 1}
    sources = [os.path.join(dirpath, f) for dirpath, _, files in os.walk(pkg)
               for f in files if f.endswith(".py")]
    sources.append(os.path.join(repo, "__ray_entry__.py"))
    bad = {}
    for path in sources:
        rel = os.path.relpath(path, repo)
        found = _driver_merges(open(path).read())
        if len(found) != exempt.get(rel, 0):
            bad[rel] = found
    assert not bad, bad


def test_fold_blocks_merges_every_non_empty_block_in_order(ray_session):
    """``fold_blocks`` folds one partial per non-empty block, in block
    order on a materialized input, and the same partials on its lazy
    twin; the partial's closure state ships with it."""
    import ray.data as rd

    from snorkel_ray.state.resources import fold_blocks

    def block(lo, hi):
        return pa.table({"x": pa.array(range(lo, hi), pa.int64())})

    offset = 1000
    ds = rd.from_arrow([block(0, 3), block(3, 3), pa.table({}), block(3, 7), block(7, 8)])
    firsts = [fold_blocks(d, lambda b: [b.column("x")[0].as_py() + offset],
                          lambda acc, p: acc + p, [])
              for d in (ds, ds.map_batches(lambda b: b, batch_format="pyarrow"))]
    assert firsts[0] == [1000, 1003, 1007]
    # a lazy chain's blocks arrive in the order its executor emits them
    assert sorted(firsts[1]) == firsts[0]
    assert fold_blocks(rd.from_arrow(block(0, 0)), len, max, -1) == -1


_COMBINER_CALLS = {"groupby", "group_by", "drop_duplicates"}


def _nested_combiners(src: str, module: str) -> set[str]:
    """``module.outer/inner`` for every function nested in a top-level
    ``def`` (a ``def`` or a ``lambda``, at any depth; named by its
    outermost nested function) that calls ``.groupby(``,
    ``.group_by(`` or ``.drop_duplicates(``."""
    found = set()

    def visit(node, outer, inner):
        for ch in ast.iter_child_nodes(node):
            if isinstance(ch, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(ch, "name", "<lambda>")
                visit(ch, *((name, None) if outer is None else (outer, inner or name)))
                continue
            if inner and isinstance(ch, ast.Call) and isinstance(ch.func, ast.Attribute) \
                    and ch.func.attr in _COMBINER_CALLS:
                found.add(f"{module}.{outer}/{inner}")
            visit(ch, outer, inner)

    visit(ast.parse(src), None, None)
    return found


def test_only_fold_by_key_combines_by_key():
    """A keyed partial aggregate calls ``combine_by_key`` or
    ``fold_by_key``; no nested function in ``snorkel_ray/`` or
    ``__ray_entry__.py`` hand-writes its per-block combiner with a
    pandas ``groupby``/``drop_duplicates`` or an Arrow ``group_by``,
    and no keyed kernel groups its block again (``by_key`` hands it the
    group starts)."""
    probe = ("def f(ds):\n"
             "    def g(b):\n"
             "        return b.to_pandas().groupby('k').sum()\n"
             "    h = lambda b: b.group_by(['k'])\n"
             "    return ds.groupby('k').count()\n"
             "def e(b):\n"
             "    return b.drop_duplicates()\n")
    assert _nested_combiners(probe, "m") == {"m.f/g", "m.f/<lambda>"}
    pkg = os.path.dirname(snorkel_ray.__file__)
    repo = os.path.dirname(pkg)
    sources = [os.path.join(dirpath, f) for dirpath, _, files in os.walk(pkg)
               for f in files if f.endswith(".py") and f != "resources.py"]
    sources.append(os.path.join(repo, "__ray_entry__.py"))
    found = set()
    for path in sources:
        found |= _nested_combiners(open(path).read(),
                                   os.path.basename(path)[:-len(".py")])
    assert found == set()


def test_fold_by_key_sums_mins_maxes_and_distincts_with_a_null_key(ray_session):
    """``fold_by_key`` merges the block partials with the op it used in
    the block; a null key is a group of its own, in the block and across
    blocks; ``{}`` keeps the distinct keys; ``cols`` builds the key and
    value columns."""
    import ray.data as rd

    from snorkel_ray.state.resources import fold_by_key

    def block(keys, vals):
        return pa.table({"k": pa.array(keys, pa.int64()), "v": pa.array(vals, pa.int64())})

    ds = rd.from_arrow([block([1, None, 1], [1, 2, 3]), pa.table({}),
                        block([None, 2, 1], [4, 5, -6]), block([], []),
                        block([3, None], [7, 8])])

    def rows(out):
        return sorted((tuple(r.values()) for r in out.take_all()), key=repr)

    assert rows(fold_by_key(ds, ["k"], {"v": "sum"})) == \
        [(1, -2), (2, 5), (3, 7), (None, 14)]
    assert rows(fold_by_key(ds, ["k"], {"v": "min"})) == \
        [(1, -6), (2, 5), (3, 7), (None, 2)]
    assert rows(fold_by_key(ds, ["k"], {"v": "max"})) == \
        [(1, 3), (2, 5), (3, 7), (None, 8)]
    assert rows(fold_by_key(ds, ["k"], {})) == [(1,), (2,), (3,), (None,)]
    n = fold_by_key(ds, ["k"], {"n": "sum", "top": "max"},
                    lambda b: pa.table({"k": b.column("k"), "n": [1] * b.num_rows,
                                        "top": b.column("v")}))
    assert rows(n) == [(1, 3, 3), (2, 1, 5), (3, 1, 7), (None, 3, 8)]
    assert list(n.schema().names) == ["k", "n", "top"]


def _null_string_key_blocks():
    """Three blocks with a null STRING key in each: Ray 2.49's own
    sort raises comparing it with a string."""
    import ray.data as rd

    return rd.from_arrow([pa.table({"k": ["a", None, "a"], "v": [1, 2, 3]}),
                          pa.table({"k": [None, "b", "a"], "v": [4, 5, 6]}),
                          pa.table({"k": ["c", None], "v": [7, 8]})])


def _rows(ds):
    return sorted((tuple(r.values()) for r in ds.take_all()), key=repr)


def test_keyed_merge_keeps_a_null_string_key(ray_session):
    """``fold_by_key`` and ``top_by_key`` keep a null string key as a
    group of its own over several blocks."""
    from snorkel_ray.state.resources import fold_by_key, top_by_key

    ds = _null_string_key_blocks()
    assert _rows(fold_by_key(ds, ["k"], {"v": "sum"})) == \
        [("a", 10), ("b", 5), ("c", 7), (None, 14)]
    assert _rows(fold_by_key(ds, ["k"], {})) == [("a",), ("b",), ("c",), (None,)]
    assert _rows(top_by_key(ds, ["k"], [("v", "descending")])) == \
        [("a", 6), ("b", 5), ("c", 7), (None, 8)]


def test_fold_by_key_nan_null_and_signed_zero_match_duckdb(ray_session):
    """sum/min/max/mean/count over a float column with NaN, NULL,
    ``-0.0`` and ``0.0`` spread over 5 blocks equal DuckDB's, keyed and
    keyless, in the ``{col: op}`` and the ``{out: (op, source)}`` form:
    a sum, mean or max is NaN once any value is, a min only when every
    value is, NULL adds nothing (an all-NULL mean is NULL), a count is
    ``COUNT(*)``; a ``-0.0`` key is the ``0.0`` key."""
    import math

    import duckdb
    import ray.data as rd

    from snorkel_ray.state.resources import fold_by_key

    nan = float("nan")
    vals = [nan, None, 2.0, 1.0, -0.0, 0.0, 2.0, nan, None, -1.5, nan, 3.0]
    keys = [1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 6, None]
    t = pa.table({"k": pa.array(keys, pa.int64()), "v": pa.array(vals, pa.float64()),
                  "fk": pa.array([None if k is None else -0.0 if k % 2 else 0.0
                                  for k in keys], pa.float64())})
    ds = rd.from_arrow([t.take(list(range(i, len(keys), 5))) for i in range(5)])

    def norm(rows):  # NaN compares equal to itself, -0.0 to 0.0
        return sorted([tuple("nan" if isinstance(x, float) and math.isnan(x) else x
                             for x in r) for r in rows], key=repr)

    sql = {"sum": "sum(v)", "min": "min(v)", "max": "max(v)", "mean": "avg(v)",
           "count": "count(*)"}
    for op, agg in sql.items():
        want = duckdb.sql(f"SELECT k, {agg} FROM t GROUP BY k").fetchall()
        assert norm(_rows(fold_by_key(ds, ["k"], {"v": op}))) == norm(want), op
    spec = {"n": "count", "s": ("sum", "v"), "a": ("mean", "v"), "lo": ("min", "v")}
    sql = "count(*), sum(v), avg(v), min(v)"
    want = duckdb.sql(f"SELECT fk, {sql} FROM t GROUP BY fk").fetchall()
    assert norm(_rows(fold_by_key(ds, ["fk"], spec))) == norm(want)
    want = duckdb.sql(f"SELECT {sql} FROM t").fetchall()
    assert norm(_rows(fold_by_key(ds, [], spec))) == norm(want)
    empty = duckdb.sql(f"SELECT {sql} FROM t WHERE k > 99").fetchall()
    assert _rows(fold_by_key(rd.from_arrow(t.slice(0, 0)), [], spec)) == empty \
        == [(0, None, None, None)]
    want = duckdb.sql("SELECT fk, sum(v), count(*) FROM t GROUP BY fk").fetchall()
    got = fold_by_key(ds, ["fk"], {"v": "sum", "n": "sum"},
                      lambda b: b.select(["fk", "v"]).append_column(
                          "n", pa.array([1] * b.num_rows, pa.int64())))
    assert norm(_rows(got)) == norm(want)


def test_keyed_group_keeps_a_group_with_null_keys_whole(ray_session):
    """A group of 40 equal rows whose keys are a bool and an all-null
    float stays one group in the block step and in ``first_rows``
    (Arrow 16's ``group_by`` splits it past 32 rows)."""
    import ray.data as rd

    from snorkel_ray.state.resources import combine_by_key, first_rows

    t = pa.table({"b": [True] * 40 + [False] * 5,
                  "v": pa.array([None] * 40 + [1.0] * 5, pa.float64())})
    assert _rows(combine_by_key(rd.from_arrow(t), ["b", "v"], {"n": "count"})) == \
        [(False, 1.0, 5), (True, None, 40)]
    idx, sizes = first_rows(t, np.arange(t.num_rows))
    assert idx.tolist() == [0, 40] and sizes.tolist() == [40, 5]


def _block_tables(ds) -> list[pa.Table]:
    """The output blocks of ``ds``, one table each."""
    import ray

    return [ray.get(ref) for ref in ds.to_arrow_refs()]


def test_keyed_sort_blocks_carry_the_kernel_schema(ray_session):
    """Every output block of ``fold_by_key`` and ``by_key`` over 5
    one-row blocks carries the kernel's schema: no sort column leaks
    out, and no empty partition leaves a column-less block behind."""
    import ray.data as rd

    from snorkel_ray.state.resources import by_key, fold_by_key

    ds = rd.from_arrow([pa.table({"k": [k], "v": [float(k)]}) for k in (3, 1, 3, 0, 2)])

    def _sizes(b, starts):
        return pa.table({"k": b.column("k").take(starts),
                         "n": np.diff(np.append(starts, b.num_rows))})

    for out, names in ((fold_by_key(ds, ["k"], {"v": "sum"}), ["k", "v"]),
                       (by_key(ds, ["k"], _sizes), ["k", "n"])):
        blocks = _block_tables(out)
        assert blocks and all(b.column_names == names and b.num_rows for b in blocks), blocks
        assert sorted(r for b in blocks for r in b.column("k").to_pylist()) == [0, 1, 2, 3]


def test_keyed_ops_on_an_empty_input_give_an_empty_dataset(ray_session):
    """``by_key``, ``fold_by_key`` and ``top_by_key`` over an input with
    no rows give a Dataset with no rows that counts and converts."""
    import ray.data as rd

    from snorkel_ray.state.resources import by_key, fold_by_key, top_by_key

    empty = pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.float64())})
    for ds in (rd.from_arrow(empty), rd.from_arrow([empty, pa.table({})]),
               rd.from_arrow(pa.table({"k": [1], "v": [1.0]})).filter(lambda r: r["k"] > 1)):
        for out in (by_key(ds, ["k"], lambda b, starts: b),
                    fold_by_key(ds, ["k"], {"v": "sum", "n": "count"}),
                    top_by_key(ds, ["k"], [("v", "descending")], k=2)):
            assert out.count() == 0
            assert len(out.to_pandas()) == 0


def _keyed_input():
    """A random 600-row table (a string key with nulls, an int, a float
    key with NaN and NULL, ts ties broken by ``event_id``) and the same
    rows cut into 7 blocks."""
    rng = np.random.default_rng(5)
    n = 600
    k = [None if r < 0.05 else f"k{r * 40:.0f}" for r in rng.random(n)]
    f = [None if r < 0.1 else float("nan") if r < 0.2 else float(int(r * 8))
         for r in rng.random(n)]
    t = pa.table({"k": k, "c": rng.integers(0, 3, n), "f": pa.array(f, pa.float64()),
                  "ts": rng.integers(0, 5, n), "event_id": rng.permutation(n)})
    cuts = np.sort(rng.choice(np.arange(1, n), 6, replace=False))
    return t, [t.slice(a, b - a) for a, b in zip([0, *cuts], [*cuts, n])]


def _sort_rank(v):
    """A key value's place in ``by_key``'s sort: value, NaN, null."""
    return (2, 0) if v is None else (1, 0) if v != v else (0, v)


def test_by_key_kernel_sees_each_group_whole_once_in_order(ray_session):
    """Random multi-block inputs, a one- and a two-column key (a
    string with nulls and an int), a float key with NaN and NULL, ts
    ties broken by ``event_id``: the kernel sees every group whole,
    exactly once, its rows in ``order`` and the groups of a block in
    key order (value, NaN, null) — against a pandas oracle that groups
    on labels (pandas merges NaN with null)."""
    import pandas as pd
    import ray.data as rd

    from snorkel_ray.state.resources import by_key

    t, parts = _keyed_input()
    ds = rd.from_arrow(parts)

    def _groups(b, starts):
        assert starts[0] == 0 and (np.diff(starts) > 0).all()
        ends = np.append(starts[1:], b.num_rows)
        return pa.table({"key": [repr([_sort_rank(b.column(c)[i].as_py()) for c in keys])
                                 for i in starts],
                         "ids": [b.column("event_id").slice(a, e - a).to_pylist()
                                 for a, e in zip(starts, ends)]})

    df = t.to_pandas()
    for keys in (["k"], ["k", "c"], ["f"]):
        labels = [repr([_sort_rank(v) for v in row])
                  for row in zip(*(t.column(c).to_pylist() for c in keys))]
        want = {lab: g.sort_values(["ts", "event_id"])["event_id"].tolist()
                for lab, g in df.assign(_lab=labels).groupby("_lab", sort=False)}
        blocks = _block_tables(by_key(ds, keys, _groups, ["ts", "event_id"]))
        got = [(lab, ids) for b in blocks
               for lab, ids in zip(b.column("key").to_pylist(), b.column("ids").to_pylist())]
        assert len(got) == len({lab for lab, _ in got}), keys  # each group once
        assert dict(got) == want, keys  # whole, in (ts, event_id) order
        for b in blocks:  # the groups of a block in key order
            ranks = [ast.literal_eval(lab) for lab in b.column("key").to_pylist()]
            assert ranks == sorted(ranks), keys


def test_by_key_output_is_the_same_in_any_partitioning_and_blocking(ray_session):
    """Forcing several reduce partitions (a tiny
    ``target_max_block_size``) gives the rows, group starts and row
    order of the one-partition run, and so does the same input in one
    block instead of seven."""
    import ray.data as rd
    from ray.data import DataContext

    from snorkel_ray.state.resources import by_key

    t, blocks = _keyed_input()

    def _marked(b, starts):
        start = np.zeros(b.num_rows, bool)
        start[starts] = True
        return b.append_column("start", pa.array(start))

    def run(parts, keys):
        out = _block_tables(by_key(rd.from_arrow(parts), keys, _marked, ["ts", "event_id"]))
        return len(out), repr(pa.concat_tables(out).to_pylist())

    ctx = DataContext.get_current()
    for keys in (["k"], ["k", "c"], ["f"]):
        n_one, one = run(blocks, keys)
        saved = ctx.target_max_block_size
        ctx.target_max_block_size = 4096
        try:
            n_many, many = run(blocks, keys)
        finally:
            ctx.target_max_block_size = saved
        assert n_one == 1 and n_many > 1, (keys, n_one, n_many)
        assert many == one, keys
        assert run([t], keys)[1] == one, keys


def test_keyed_ops_on_a_pinned_input_run_no_ray_data_operator(ray_session, monkeypatch):
    """``by_key``, ``fold_by_key`` and ``top_by_key`` over a
    materialized input call neither ``Dataset.sort`` nor
    ``Dataset.map_batches``: the shuffle is plain Ray tasks."""
    import ray.data as rd
    from ray.data import Dataset

    from snorkel_ray.state.resources import by_key, fold_by_key, top_by_key

    _, blocks = _keyed_input()
    ds = rd.from_arrow(blocks).materialize()
    called = []
    for name in ("sort", "map_batches"):
        orig = getattr(Dataset, name)
        monkeypatch.setattr(Dataset, name, lambda self, *a, _n=name, _f=orig, **kw:
                            called.append(_n) or _f(self, *a, **kw))
    outs = [by_key(ds, ["k"], lambda b, starts: b, ["ts"]),
            fold_by_key(ds, ["k", "c"], {"ts": "sum", "n": "count"}),
            top_by_key(ds, ["k"], [("ts", "descending")], k=2)]
    monkeypatch.undo()
    assert called == []
    assert [o.count() for o in outs] == \
        [600, len({(r["k"], r["c"]) for r in pa.concat_tables(blocks).to_pylist()}),
         sum(min(2, n) for n in pa.concat_tables(blocks).group_by("k")
             .aggregate([([], "count_all")]).column("count_all").to_pylist())]


def test_top_by_key_keeps_k_best_and_first_arrival_on_ties(ray_session):
    """``top_by_key`` keeps the best k rows per key in any blocking
    (nulls last), takes each key's k from a column, and gives a tie on
    the order columns to the row that arrived first."""
    import ray.data as rd

    from snorkel_ray.state.resources import top_by_key

    t = pa.table({"k": ["x", "y", "x", "x", "y", "x", "z"],
                  "p": [0.5, 0.9, 0.7, 0.7, 0.1, None, 0.3],
                  "id": list(range(7)),
                  "kk": [2, 1, 2, 2, 1, 2, 3]})
    order = [("p", "descending")]
    for sizes in ([7], [4, 3], [4, 2, 1]):  # the tied rows 2, 3 share a block
        starts = [sum(sizes[:i]) for i in range(len(sizes))]
        ds = rd.from_arrow([t.slice(a, n) for a, n in zip(starts, sizes)])

        def best(k):
            return _rows(top_by_key(ds, ["k"], order, k=k).select_columns(["k", "id"]))

        assert best(2) == [("x", 2), ("x", 3), ("y", 1), ("y", 4), ("z", 6)], sizes
        assert best(1) == [("x", 2), ("y", 1), ("z", 6)], sizes
        assert best("kk") == [("x", 2), ("x", 3), ("y", 1), ("z", 6)], sizes


def _best_row_picks(src: str, module: str) -> set[tuple[str, str]]:
    """(kind, ``module.function``) for every top-level ``def`` of a
    module (``<module>`` for its top level) that pickles a row payload
    (kind ``pickle``: ``pickle.dumps``/``base64.b64encode``), calls
    ``.map_groups(`` (``map_groups``) or imports ``ray.data.aggregate``
    (``aggregate``)."""
    found = set()
    for top in ast.parse(src).body:
        name = f"{module}.{getattr(top, 'name', '<module>')}"
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                f = node.func
                if isinstance(f.value, ast.Name) and \
                        (f.value.id, f.attr) in {("pickle", "dumps"), ("base64", "b64encode")}:
                    found.add(("pickle", name))
                elif f.attr == "map_groups":
                    found.add(("map_groups", name))
            elif isinstance(node, ast.ImportFrom) and node.module == "ray.data.aggregate" \
                    or isinstance(node, ast.Import) and \
                    any(a.name == "ray.data.aggregate" for a in node.names):
                found.add(("aggregate", name))
    return found


def test_only_top_by_key_picks_best_rows():
    """A per-key best-row pick calls ``resources.top_by_key`` and every
    keyed op runs on ``resources.by_key``: no module in ``snorkel_ray/``
    (``__ray_entry__.py`` included) squeezes a pickled row into an
    aggregate value, calls ``map_groups`` or imports
    ``ray.data.aggregate``.  The one exemption is
    ``remove_frequent_lines``, whose documents ride through its
    regroup as pickled rows."""
    probe = ("import pickle\n"
             "from ray.data.aggregate import Min\n"
             "def f(rows):\n"
             "    import base64\n"
             "    return [base64.b64encode(pickle.dumps(r)) for r in rows]\n"
             "def g(ds):\n"
             "    import ray.data.aggregate\n"
             "    return ds.groupby('k').map_groups(len)\n")
    assert _best_row_picks(probe, "m") == {
        ("pickle", "m.f"), ("aggregate", "m.<module>"),
        ("aggregate", "m.g"), ("map_groups", "m.g")}
    exempt = {("pickle", "corpus_stats.remove_frequent_lines")}
    found = set()
    for path in _program_sources():
        found |= _best_row_picks(open(path).read(), os.path.basename(path)[:-len(".py")])
    assert found - exempt == set()
    assert found == exempt  # the exemption is still in use


def _program_sources() -> list[str]:
    """Every ``.py`` file of ``snorkel_ray/``, and ``__ray_entry__.py``."""
    pkg = os.path.dirname(snorkel_ray.__file__)
    return [*(os.path.join(dirpath, f) for dirpath, _, files in os.walk(pkg)
              for f in files if f.endswith(".py")),
            os.path.join(os.path.dirname(pkg), "__ray_entry__.py")]


def _ray_aggregates(src: str, module: str) -> list[str]:
    """``module.function:line`` (``<module>`` outside a top-level
    ``def``) for every Ray ``.aggregate(`` call — any ``.aggregate(``
    but Arrow's ``.group_by(...).aggregate(`` — and every
    ``ray.data.aggregate`` import of a module."""
    found = []
    for top in ast.parse(src).body:
        name = f"{module}.{getattr(top, 'name', '<module>')}"
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "aggregate" \
                    and not (isinstance(node.func.value, ast.Call)
                             and isinstance(node.func.value.func, ast.Attribute)
                             and node.func.value.func.attr == "group_by") \
                    or isinstance(node, ast.ImportFrom) and node.module == "ray.data.aggregate" \
                    or isinstance(node, ast.Import) and \
                    any(a.name == "ray.data.aggregate" for a in node.names):
                found.append(f"{name}:{node.lineno}")
    return found


def test_every_aggregate_runs_on_the_folds():
    """Every aggregate calls ``fold_blocks``, ``fold_by_key`` or
    ``top_by_key``: no module in ``snorkel_ray/`` (``resources.py`` and
    ``__ray_entry__.py`` included) calls Ray's ``.aggregate(`` or
    imports ``ray.data.aggregate``.  The folds' own Arrow
    ``group_by(...).aggregate(`` is not Ray's."""
    probe = ("from ray.data.aggregate import Count\n"
             "def f(ds):\n"
             "    import ray.data.aggregate\n"
             "    return ds.groupby('k').aggregate(Count())\n"
             "def g(t):\n"
             "    return t.group_by('k').aggregate([('v', 'sum')]), t.aggregate()\n")
    assert _ray_aggregates(probe, "m") == ["m.<module>:1", "m.f:3", "m.f:4", "m.g:6"]
    found = [site for path in _program_sources()
             for site in _ray_aggregates(open(path).read(),
                                         os.path.basename(path)[:-len(".py")])]
    assert found == []


def _join_settings(src: str, module: str) -> list[str]:
    """``module.function:line`` for every call that passes a
    ``join_type=`` keyword (a Dataset join; ``str.join`` takes none) or
    a ``num_partitions=`` keyword."""
    return [f"{module}.{getattr(top, 'name', '<module>')}:{node.lineno}"
            for top in ast.parse(src).body for node in ast.walk(top)
            if isinstance(node, ast.Call)
            and any(k.arg in ("join_type", "num_partitions") for k in node.keywords)]


def test_every_join_runs_on_join_by_key():
    """Every equi-join calls ``resources.join_by_key`` on the one keyed
    shuffle: no module in ``snorkel_ray/`` (or ``__ray_entry__.py``)
    calls a Dataset ``.join(join_type=...)``, and no call sets a
    ``num_partitions`` (``by_key`` sizes its partitions from bytes)."""
    probe = ("def f(a, b):\n"
             "    j = a.join(b, join_type='inner', on=('k',))\n"
             "    return ', '.join(['x']), j.repartition(num_partitions=4), g(num_partitions=2)\n")
    assert _join_settings(probe, "m") == ["m.f:2", "m.f:3", "m.f:3"]
    found = [site for path in _program_sources()
             for site in _join_settings(open(path).read(),
                                        os.path.basename(path)[:-len(".py")])]
    assert found == []


def _builds(log_dir):
    """→ one (pid, tag) per ``build()`` that ran."""
    return [line.split() for f in os.listdir(log_dir)
            for line in open(os.path.join(log_dir, f))]


def _logged(log_dir, tag):
    """Record this build's worker pid; → a map that stamps ``tag``."""
    with open(os.path.join(log_dir, f"{os.getpid()}.log"), "a") as fh:
        fh.write(f"{os.getpid()} {tag}\n")
    return lambda b: b.append_column(tag, pa.array([tag] * b.num_rows))


def test_tasks_build_once_per_worker_process_and_stage(ray_session, tmp_path):
    """Task form: one ``build()`` per (worker process, stage, key), not
    one per task or batch — and two stages with the same key in one
    fused map each get their own callable."""
    import ray.data as rd

    from snorkel_ray.state.resources import stateful_map

    log = str(tmp_path)

    def first(ds):
        return stateful_map(ds, lambda: _logged(log, "a"), key="k")

    def second(ds):
        return stateful_map(ds, lambda: _logged(log, "b"), key="k")

    ds = rd.from_items([{"x": i} for i in range(120)]).repartition(24)
    out = second(first(ds)).to_pandas()
    assert len(out) == 120
    assert set(out["a"]) == {"a"} and set(out["b"]) == {"b"}
    builds = _builds(str(tmp_path))
    assert len(builds) == len({tuple(b) for b in builds}), builds  # once each
    assert len(builds) < 24, builds  # fewer than one per block


def test_pool_builds_once_per_actor(ray_session, tmp_path):
    import ray.data as rd

    from snorkel_ray.state.resources import stateful_map

    ds = rd.from_items([{"x": i} for i in range(60)]).repartition(12)
    log = str(tmp_path)
    out = stateful_map(ds, lambda: _logged(log, "a"), concurrency=(1, 1)).to_pandas()
    assert len(out) == 60 and set(out["a"]) == {"a"}
    assert len(_builds(str(tmp_path))) == 1


def _vocab_fetched(log_dir, vocab):
    _logged(log_dir, "vocab")
    return vocab


class _LoggedVocab(dict):
    """A vocab whose every deserialization — one per ``ray.get`` in a
    worker — records the worker's pid."""

    def __reduce__(self):
        return _vocab_fetched, (self.log_dir, dict(self))


def test_featurize_fetches_vocab_once_per_worker_process(ray_session, tmp_path):
    """``featurize`` is a ``stateful_map`` stage: its vocab is fetched
    once per worker process, not once per task (a cache dict named in
    the task closure would ship as a fresh copy with every task)."""
    import ray.data as rd

    from snorkel_ray.stages.features import featurize

    row = {"between_text": "w x", "gap": 1, "subj_text": "A",
           "obj_text": "b", "pre_text": "p q", "pred": ""}
    ds = rd.from_items([dict(row, i=i) for i in range(120)]).repartition(24)
    vocab = _LoggedVocab({"GAP_1": 0, "BETW_w": 1, "NOPE": 2})
    vocab.log_dir = str(tmp_path)
    out = featurize(ds, vocab).to_pandas()
    assert len(out) == 120
    assert all(list(f) == [0, 1] for f in out["feature_ids"])
    fetches = _builds(str(tmp_path))
    assert fetches, "the vocab was never fetched in a worker"
    assert len(fetches) == len({tuple(f) for f in fetches}), fetches
    assert len(fetches) < 24, fetches
