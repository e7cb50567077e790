"""Discriminative-model training hook (SURVEY.md §2.10 "disc models").

Reference: ``NoiseAwareModel`` subclasses (``SparseLogisticRegression``,
``LogisticRegression``, ``reRNN`` — ``snorkel/learning/disc_models/``,
TensorFlow) train on the label model's MARGINALS as soft targets
(noise-aware cross-entropy).  TF/Torch are absent from this env
(SURVEY.md §0), so the deliverable here is the promised data-handoff
surface plus a pure-numpy noise-aware logistic regression that
exercises it end-to-end:

- ``training_batches`` streams (features, marginals) batches off a
  scored Dataset — ``iter_torch_batches`` when torch is importable
  (gated), numpy ``iter_batches`` otherwise.  This is the
  Ray-Train-ready boundary: a torch trainer consumes the exact same
  iterator.
- ``NumpyLogisticRegression`` is the minimal ``NoiseAwareModel``: SGD
  on soft-target cross-entropy, one streaming pass per epoch, never
  materializing the dataset.
"""

from __future__ import annotations

import numpy as np


def training_batches(scored, feature_cols: list[str], *, p_col: str = "p",
                     batch_size: int = 4096, framework: str = "auto"):
    """Yield training dicts {"X": float32 (n, d), "p": float32 (n,)}
    from a scored Dataset (marginals column + numeric feature columns).

    ``framework="torch"`` yields torch tensors via
    ``Dataset.iter_torch_batches`` (requires torch — raises
    ImportError otherwise, the documented env gate); "numpy" (or
    "auto" without torch) streams zero-copy numpy batches."""
    cols = list(feature_cols) + [p_col]
    ds = scored.select_columns(cols)
    if framework == "auto":
        try:
            import torch  # noqa: F401

            framework = "torch"
        except ImportError:
            framework = "numpy"
    if framework == "torch":
        import torch  # raises ImportError when absent — caller gates

        for b in ds.iter_torch_batches(batch_size=batch_size, dtypes=torch.float32):
            X = torch.stack([b[c] for c in feature_cols], dim=1)
            yield {"X": X, "p": b[p_col]}
        return
    for b in ds.iter_batches(batch_size=batch_size, batch_format="numpy"):
        X = np.stack([np.asarray(b[c], dtype=np.float32) for c in feature_cols],
                     axis=1)
        yield {"X": X, "p": np.asarray(b[p_col], dtype=np.float32)}


class NumpyLogisticRegression:
    """Noise-aware logistic regression (reference ``NoiseAwareModel``
    loss: cross-entropy against soft marginal targets, ``snorkel/
    learning/disc_learning.py`` ≈L1–120) trained by streaming SGD over
    ``training_batches`` — each epoch is ONE pass over the Dataset, no
    driver materialization."""

    def __init__(self, n_features: int, *, lr: float = 0.5, l2: float = 1e-4,
                 epochs: int = 5, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.w = rng.normal(0, 0.01, n_features).astype(np.float64)
        self.b = 0.0
        self.lr = lr
        self.l2 = l2
        self.epochs = epochs
        self.n_features = n_features

    def _forward(self, X: np.ndarray) -> np.ndarray:
        z = X @ self.w + self.b
        return 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))

    def train(self, scored, feature_cols: list[str], *, p_col: str = "p",
              batch_size: int = 4096) -> dict:
        if len(feature_cols) != self.n_features:
            raise ValueError(f"{len(feature_cols)} feature columns for a model of "
                             f"{self.n_features} features")
        losses = []
        for _ in range(self.epochs):
            total, rows = 0.0, 0
            for batch in training_batches(scored, feature_cols, p_col=p_col,
                                          batch_size=batch_size,
                                          framework="numpy"):
                X, p = batch["X"].astype(np.float64), batch["p"].astype(np.float64)
                if not len(p):
                    continue
                q = self._forward(X)
                grad_z = (q - p) / len(p)  # d(soft-CE)/dz
                self.w -= self.lr * (X.T @ grad_z + self.l2 * self.w)
                self.b -= self.lr * float(grad_z.sum())
                eps = 1e-9
                total += float(-(p * np.log(q + eps)
                                 + (1 - p) * np.log(1 - q + eps)).sum())
                rows += len(p)
            losses.append(total / max(rows, 1))
        return {"loss_per_epoch": losses, "w": self.w.copy(), "b": self.b}

    def predict_proba(self, scored, feature_cols: list[str], *,
                      batch_size: int | None = None):
        """Append ``p_disc`` to the Dataset (stateless broadcast-weights
        map, same shape as the label model's scoring stage)."""
        import pyarrow as pa

        w, b = self.w.copy(), float(self.b)

        def _score(t: pa.Table) -> pa.Table:
            X = np.stack(
                [t.column(c).to_numpy(zero_copy_only=False) for c in feature_cols],
                axis=1).astype(np.float64)
            z = X @ w + b
            p = 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))
            return t.append_column("p_disc",
                                   pa.array(p.astype(np.float32), pa.float32()))

        return scored.map_batches(_score, batch_format="pyarrow",
                                  batch_size=batch_size)
