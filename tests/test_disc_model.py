"""Disc-model handoff (SURVEY.md §2.10) + DictionaryMatch stemmer."""

import numpy as np


def _scored_ds(n=6000, seed=3):
    import ray.data as rd

    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, 3)).astype(np.float32)
    true_w = np.array([2.0, -1.5, 0.5])
    z = X @ true_w + 0.2
    p_true = 1 / (1 + np.exp(-z))
    # label-model marginals = noisy soft targets around the truth
    p = np.clip(p_true + rng.normal(0, 0.05, n), 0.01, 0.99).astype(np.float32)
    y = (rng.random(n) < p_true).astype(np.int8)
    rows = [{"f0": float(X[i, 0]), "f1": float(X[i, 1]), "f2": float(X[i, 2]),
             "p": float(p[i]), "y": int(y[i])} for i in range(n)]
    bayes_acc = float(((z > 0).astype(np.int8) == y).mean())
    return rd.from_items(rows).repartition(8), y, bayes_acc


def test_training_batches_stream_shapes(ray_session):
    from snorkel_ray.stages.disc_model import training_batches

    ds, _, _ = _scored_ds(1000)
    total = 0
    for b in training_batches(ds, ["f0", "f1", "f2"], batch_size=256,
                              framework="numpy"):
        assert b["X"].shape[1] == 3 and b["X"].dtype == np.float32
        assert b["p"].shape[0] == b["X"].shape[0]
        total += len(b["p"])
    assert total == 1000


def test_numpy_logreg_noise_aware_training(ray_session):
    """Streaming SGD on marginal soft targets must recover a model that
    predicts the TRUE labels well (the reference NoiseAwareModel
    promise: train on marginals, generalize to gold)."""
    from snorkel_ray.stages.disc_model import NumpyLogisticRegression

    ds, y, bayes_acc = _scored_ds()
    m = NumpyLogisticRegression(3, epochs=6, lr=0.5)
    hist = m.train(ds, ["f0", "f1", "f2"])
    assert hist["loss_per_epoch"][-1] < hist["loss_per_epoch"][0]

    scored = m.predict_proba(ds, ["f0", "f1", "f2"]).to_pandas()
    pred = (scored["p_disc"] > 0.5).astype(int)
    acc = float((pred.to_numpy() == scored["y"].to_numpy()).mean())
    # within 2 points of the Bayes-optimal (true-weight) classifier —
    # the labels are sampled from p_true, so Bayes itself is ~0.83 here
    assert acc > bayes_acc - 0.02, (acc, bayes_acc)


def test_numpy_logreg_rejects_a_feature_count_mismatch():
    """A feature list of the wrong length raises ``ValueError`` before
    any pass over the data (an ``assert`` vanishes under ``-O``)."""
    import pytest

    from snorkel_ray.stages.disc_model import NumpyLogisticRegression

    with pytest.raises(ValueError, match="2 feature columns for a model of 3"):
        NumpyLogisticRegression(3).train(None, ["f0", "f1"])


def test_dictionary_match_stemmer():
    from snorkel_ray.functions.matchers import (DictionaryMatch, Ngrams,
                                                porter_lite_stem)

    assert porter_lite_stem("cats") == "cat"
    assert porter_lite_stem("running") == "run"
    assert porter_lite_stem("caused") == "caus"

    text = "running cats caused stories"
    words = text.split(" ")
    offs = [0, 8, 13, 20]
    spans = list(Ngrams(n_max=1)(words, offs, text))

    plain = DictionaryMatch(["cat", "cause"])
    assert not plain.apply(spans)  # inflected forms miss without stemming
    stemmed = DictionaryMatch(["cat", "cause"], stemmer="porter")
    got = {s.text for s in stemmed.apply(spans)}
    assert got == {"cats", "caused"}
