"""Label-model recovery on synthetic matrices (FIXTURES.md F3 — direct
port of the reference's strongest unit-test idea,
test/learning/test_gen_learning.py)."""

import numpy as np
import pyarrow as pa

from snorkel_ray.stages.label_model import fit_label_model, posterior


def synth_L(n=10000, K=10, seed=3):
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.55, 0.95, K)  # true accuracies
    beta = rng.uniform(0.2, 0.6, K)  # propensities (y-independent)
    y = rng.choice([-1, 1], n)
    fires = rng.random((n, K)) < beta
    correct = rng.random((n, K)) < alpha
    L = np.where(fires, np.where(correct, y[:, None], -y[:, None]), 0).astype(np.int8)
    return L, y, alpha, beta


def counts_table(L):
    mat = (L + 1).astype(np.uint8)
    patterns, counts = np.unique(mat, axis=0, return_counts=True)
    return pa.table(
        {
            "pattern": pa.array([p.tobytes() for p in patterns], pa.binary()),
            "n": pa.array(counts.astype(np.int64), pa.int64()),
        }
    )


def test_recovers_accuracies_and_separates():
    L, y, alpha, beta = synth_L()
    model = fit_label_model(counts_table(L))
    # accuracy recovery within ±0.05 (F3 gate)
    assert np.max(np.abs(model["alpha"] - alpha)) < 0.05, (model["alpha"], alpha)
    # propensity recovery (fire rates)
    theta = model["theta"]
    fire = 0.5 * (theta[:, 0, 0] + theta[:, 0, 2] + theta[:, 1, 0] + theta[:, 1, 2])
    assert np.max(np.abs(fire - beta)) < 0.05
    # marginal quality: AUC > 0.9
    p = posterior(L, theta, model["pi"])
    order = np.argsort(p)
    ranks = np.empty(len(p))
    ranks[order] = np.arange(len(p))
    pos = y == 1
    auc = (ranks[pos].mean() - (pos.sum() - 1) / 2) / (~pos).sum()
    assert auc > 0.9, auc
    # posterior parity with weighted majority vote on high-signal rows
    strong = np.abs(L.sum(axis=1)) >= 3
    agree = np.sign(p[strong] - 0.5) == np.sign(L[strong].sum(axis=1))
    assert agree.mean() > 0.95


def test_empty_and_degenerate():
    empty = pa.table({"pattern": pa.array([], pa.binary()), "n": pa.array([], pa.int64())})
    m = fit_label_model(empty)
    assert m["pi"] == 0.5
    # single all-abstain pattern
    one = pa.table({"pattern": pa.array([bytes([1, 1, 1])], pa.binary()),
                    "n": pa.array([5], pa.int64())})
    m = fit_label_model(one)
    p = posterior(np.zeros((2, 3), np.int8), m["theta"], m["pi"])
    assert np.all(np.isfinite(p))


def test_categorical_label_model_recovery(ray_session):
    """k=3 synthetic recovery (the reference's categorical
    GenerativeModel test idea, SURVEY.md §5): known per-LF accuracies
    and propensities must be recovered within ±0.05, and posterior
    argmax must beat the best single LF."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from snorkel_ray.stages.label_model import (fit_label_model_cat,
                                                pattern_counts,
                                                posterior_cat)

    rng = np.random.default_rng(5)
    C, K, n = 3, 5, 20_000
    acc = np.array([0.85, 0.75, 0.7, 0.65, 0.6])
    fire = np.array([0.7, 0.6, 0.8, 0.5, 0.4])
    pi_true = np.array([0.5, 0.3, 0.2])
    y = rng.choice(C, size=n, p=pi_true) + 1
    L = np.zeros((n, K), dtype=np.int8)
    for k in range(K):
        fires = rng.random(n) < fire[k]
        correct = rng.random(n) < acc[k]
        wrong = np.where(y == 1, rng.choice([2, 3], n),
                         np.where(y == 2, rng.choice([1, 3], n), rng.choice([1, 2], n)))
        L[:, k] = np.where(fires, np.where(correct, y, wrong), 0)

    off = pa.array(np.arange(0, (n + 1) * K, K, dtype=np.int32))
    tbl = pa.table({"L": pa.ListArray.from_arrays(
        off, pa.array(L.reshape(-1), pa.int8()))})
    ds = rd.from_arrow(tbl).repartition(8)

    model = fit_label_model_cat(pattern_counts(ds), cardinality=C)
    theta, pi = model["theta"], model["pi"]
    assert np.allclose(np.sort(pi)[::-1], pi_true, atol=0.05)
    for k in range(K):
        fire_hat = 1.0 - theta[k, :, 0]  # P(fire | y=c)
        acc_hat = np.array([theta[k, c, c + 1] for c in range(C)]) / \
            np.maximum(fire_hat, 1e-9)
        assert abs(float((acc_hat * pi).sum() / pi.sum()) - acc[k]) < 0.05, \
            (k, acc_hat, acc[k])
        assert abs(float((fire_hat * pi).sum() / pi.sum()) - fire[k]) < 0.05

    post = posterior_cat(L, theta, pi)
    model_acc = float((post.argmax(axis=1) + 1 == y).mean())
    best_lf = max(float(((L[:, k] == y) | (L[:, k] == 0)).mean()) for k in range(K))
    assert model_acc > 0.8
    # posterior argmax beats every single LF's fire-accuracy
    for k in range(K):
        fired = L[:, k] != 0
        lf_acc = float((L[fired, k] == y[fired]).mean())
        assert model_acc > lf_acc - 0.02


def test_model_save_load_roundtrip(ray_session, tmp_path):
    """Fitted weights persist to .npz and score identically after
    reload (resume a scoring run without refitting)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from snorkel_ray.stages.label_model import (fit_label_model, load_model,
                                                pattern_counts, posterior,
                                                save_model, score_marginals)

    rng = np.random.default_rng(2)
    n, K = 2000, 4
    L = rng.choice([-1, 0, 1], size=(n, K), p=[0.2, 0.5, 0.3]).astype(np.int8)
    off = pa.array(np.arange(0, (n + 1) * K, K, dtype=np.int32))
    ds = rd.from_arrow(pa.table({"L": pa.ListArray.from_arrays(
        off, pa.array(L.reshape(-1), pa.int8()))})).repartition(4).materialize()

    model = fit_label_model(pattern_counts(ds))
    p = str(tmp_path / "model.npz")
    save_model(model, p)
    loaded = load_model(p)
    assert np.allclose(loaded["theta"], model["theta"])
    a = score_marginals(ds, model).to_pandas()["p"]
    b = score_marginals(ds, loaded).to_pandas()["p"]
    assert np.allclose(sorted(a), sorted(b))


def test_em_reports_convergence():
    """Both fits return the EM health: iterations run, a converged
    flag and the final log-likelihood."""
    from snorkel_ray.stages.label_model import fit_label_model_cat

    counts = counts_table(synth_L()[0])
    model = fit_label_model(counts)
    assert model["converged"] is True
    assert 1 < model["n_iter_run"] < 200
    assert np.isfinite(model["log_likelihood"]) and model["log_likelihood"] < 0
    one = fit_label_model(counts, n_iter=1)
    assert one["converged"] is False and one["n_iter_run"] == 1
    # the categorical fit reports through the same loop (class 2 = -1)
    L = synth_L()[0]
    cat_counts = counts_table(np.where(L == -1, 2, L).astype(np.int8))
    cat = fit_label_model_cat(cat_counts, cardinality=2)
    assert cat["converged"] is True and 1 < cat["n_iter_run"] < 300
    assert fit_label_model_cat(cat_counts, cardinality=2, n_iter=1)["converged"] is False


def _l_dataset(L, blocks):
    import ray.data as rd

    n, K = L.shape
    off = pa.array(np.arange(0, (n + 1) * K, K, dtype=np.int32))
    return rd.from_arrow(pa.table({"L": pa.ListArray.from_arrays(
        off, pa.array(L.reshape(-1), pa.int8()))})).repartition(blocks).materialize()


def test_diagnostics_match_per_row_numpy(ray_session):
    """lf_stats and candidate_coverage are derived from the pattern
    table; over a multi-block dataset they must equal the direct
    per-row computation on the full matrix."""
    from snorkel_ray.stages.evaluate import candidate_coverage
    from snorkel_ray.stages.label_model import lf_stats

    rng = np.random.default_rng(11)
    n, K = 3000, 5
    L = rng.choice([-1, 0, 1], size=(n, K), p=[0.25, 0.5, 0.25]).astype(np.int8)
    L[:40] = 0  # some all-abstain rows
    ds = _l_dataset(L, 6)
    assert ds.num_blocks() >= 4

    nz = L != 0
    others = nz.sum(axis=1)[:, None] - nz
    disagree = (L == 1).any(axis=1) & (L == -1).any(axis=1)
    want = {"coverage": nz.mean(axis=0),
            "overlap": (nz & (others > 0)).mean(axis=0),
            "conflict": (nz & disagree[:, None]).mean(axis=0)}
    got = lf_stats(ds, [f"lf{k}" for k in range(K)]).to_pandas()
    for col, v in want.items():
        np.testing.assert_allclose(got[col].to_numpy(), v, rtol=0, atol=1e-12)

    cov = candidate_coverage(ds)
    covered = int(nz.any(axis=1).sum())
    assert cov == {"n_candidates": n, "n_covered": covered, "coverage": covered / n}


def test_categorical_pattern_counts_round_trip(ray_session):
    """Categorical votes {0..k} share the binary table's vote + 1
    encoding: decoding the patterns, repeated by their counts, gives
    back the vote rows."""
    from snorkel_ray.stages.label_model import _pattern_matrix, pattern_counts

    rng = np.random.default_rng(4)
    L = rng.integers(0, 4, size=(500, 3)).astype(np.int8)
    Lp, w = _pattern_matrix(pattern_counts(_l_dataset(L, 4)))
    assert w.sum() == len(L)
    back = np.repeat(Lp, w, axis=0)
    want = np.unique(L, axis=0, return_counts=True)
    np.testing.assert_array_equal(np.unique(back, axis=0), want[0])
    np.testing.assert_array_equal(w, want[1])


def _lazy(ds):
    """The same rows behind a Ray Data operator that has not run."""
    return ds.map_batches(lambda b: b, batch_format="pyarrow")


def _weighted_dataset(L, n_col, blocks):
    import ray.data as rd

    n, K = L.shape
    off = pa.array(np.arange(0, (n + 1) * K, K, dtype=np.int32))
    tbl = pa.table({"L": pa.ListArray.from_arrays(off, pa.array(L.reshape(-1), pa.int8())),
                    "n": pa.array(n_col, pa.int64())})
    return rd.from_arrow(tbl).repartition(blocks).materialize()


def test_pattern_counts_lazy_equals_materialized(ray_session):
    """One code path for both inputs: a lazy chain and its materialized
    twin give identical tables for binary and categorical votes,
    n-weighted partials, an empty Dataset and a schema-less empty
    block next to typed ones."""
    import ray.data as rd

    from snorkel_ray.stages.label_model import pattern_counts

    rng = np.random.default_rng(8)
    binary = rng.choice([-1, 0, 1], size=(2000, 4)).astype(np.int8)
    categorical = rng.integers(0, 4, size=(1500, 3)).astype(np.int8)
    weights = rng.integers(1, 9, size=800)
    empty = rd.from_arrow(pa.table({"L": pa.array([], pa.list_(pa.int8()))}))
    typed = _l_dataset(binary[:300], 2)
    cases = {
        "binary": _l_dataset(binary, 5),
        "categorical": _l_dataset(categorical, 3),
        "weighted": _weighted_dataset(binary[:800], weights, 4),
        "empty": empty,
        "schema-less block": rd.from_arrow(
            [pa.table({})] + [ray_session.get(r) for r in typed.to_arrow_refs()]),
    }
    for name, ds in cases.items():
        got, lazy = pattern_counts(ds), pattern_counts(_lazy(ds))
        assert got.equals(lazy), name
        assert got.schema == pa.schema([("pattern", pa.binary()), ("n", pa.int64())]), name
    assert pattern_counts(cases["empty"]).num_rows == 0
    assert pattern_counts(cases["weighted"]).column("n").to_numpy().sum() == weights.sum()
    assert pattern_counts(cases["schema-less block"]).equals(pattern_counts(typed))


def test_pattern_counts_runs_no_ray_data_job_on_a_materialized_input(ray_session, monkeypatch):
    """On a materialized Dataset the counts are plain per-block tasks:
    no Ray Data operator and no streaming executor, and the same holds
    for every ``fold_blocks`` aggregate (a KLL sketch here).  A lazy
    input is streamed through its chain exactly once."""
    import ray.data as rd
    from ray.data._internal.plan import ExecutionPlan

    from snorkel_ray.stages.label_model import pattern_counts
    from snorkel_ray.stages.sketches import approx_quantiles

    rng = np.random.default_rng(9)
    ds = _l_dataset(rng.choice([-1, 0, 1], size=(1000, 3)).astype(np.int8), 4)
    lazy = _lazy(ds)
    want = pattern_counts(ds)
    values = rd.from_arrow(pa.table({"v": rng.normal(size=3000)})).repartition(3).materialize()
    want_q = approx_quantiles(values, "v", [0.1, 0.5, 0.9])

    executors = []
    create = ExecutionPlan.create_executor
    monkeypatch.setattr(ExecutionPlan, "create_executor",
                        lambda self: executors.append(self) or create(self))

    def forbidden(*a, **k):
        raise AssertionError("a fold ran a Ray Data operator")

    with monkeypatch.context() as m:
        m.setattr(rd.Dataset, "map_batches", forbidden)
        m.setattr(rd.Dataset, "iter_batches", forbidden)
        assert pattern_counts(ds).equals(want)
        assert approx_quantiles(values, "v", [0.1, 0.5, 0.9]) == want_q
    assert executors == []
    assert pattern_counts(lazy).equals(want)
    assert len(executors) == 1


def test_diagnostics_are_the_same_on_lazy_inputs(ray_session):
    """lf_stats and candidate_coverage read the same pattern table from
    a lazy chain as from its materialized twin."""
    from snorkel_ray.stages.evaluate import candidate_coverage
    from snorkel_ray.stages.label_model import lf_stats

    rng = np.random.default_rng(12)
    L = rng.choice([-1, 0, 1], size=(1200, 4), p=[0.2, 0.6, 0.2]).astype(np.int8)
    ds = _l_dataset(L, 3)
    names = [f"lf{k}" for k in range(4)]
    assert lf_stats(_lazy(ds), names).equals(lf_stats(ds, names))
    assert candidate_coverage(_lazy(ds)) == candidate_coverage(ds)
