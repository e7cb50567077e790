"""``state.resources.stateful_map``: the one task/pool fork of every
broadcast-state stage, and the structure rule that keeps it the only
one; likewise ``block_tasks``, the one walk of a Dataset's blocks."""

import ast
import os

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
