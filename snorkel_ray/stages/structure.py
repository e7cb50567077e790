"""LF dependency structure learning (SURVEY.md A6).

Reference: ``DependencySelector.select(L, threshold)``
(``snorkel/learning/structure/gen_learning.py`` ≈L1–300) learns LF-LF
dependency edges via pseudolikelihood + L1 over the full matrix.
Recast per SURVEY.md: only second-moment statistics are needed — the
K×K agreement/co-fire matrices are per-block numpy partials summed on
the driver (``state.resources.fold_blocks``), and the selection rule
runs there too.

Selection rule (deterministic): for each LF pair (j, k), excess
agreement beyond independence
``dep_jk = |P(λ_j = λ_k ≠ 0) − P_indep|`` normalized by co-fire rate;
pairs above ``threshold`` are reported as dependencies.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .label_model import vote_matrix


def _moments_batch(batch: pa.Table) -> dict:
    M = vote_matrix(batch).astype(np.float64)
    n, K = M.shape
    nz = (M != 0).astype(np.float64)
    # agree via one K x K matmul per distinct label value: the old
    # (n, K, K) boolean broadcast materialized rows x K^2 temporaries
    # (~GBs per default block at K ~ 40 — round-4 review); this stays
    # O(n*K + K^2)
    agree = np.zeros((K, K))
    # one matmul per DISTINCT nonzero vote value PRESENT in the batch —
    # not a hard-coded (-1, 1): a custom LF emitting any other int8
    # label (e.g. categorical 2) must count as agreement, not silently
    # contribute zero (round-4 ADVICE).  V distinct values cost
    # O(n*K*V + V*K^2); binary batches still do exactly two matmuls.
    for v in np.unique(M[M != 0]):
        Nv = (M == v).astype(np.float64)
        agree += Nv.T @ Nv
    cofire = nz.T @ nz
    return {"n": n, "fire": nz.sum(axis=0), "agree": agree, "cofire": cofire}


def _add_moments(acc: dict, m: dict) -> dict:
    if not len(m["fire"]):  # K = 0: no LF voted in this block
        return acc
    if not len(acc["fire"]):
        return m
    return {k: acc[k] + m[k] for k in acc}


def lf_moments(labeled) -> dict:
    """→ {"n", "fire"[K], "agree"[K,K], "cofire"[K,K]} — per-block
    partials summed on the driver in block order; payload is O(K²)
    floats per block regardless of corpus size."""
    from ..state.resources import fold_blocks

    return fold_blocks(labeled, _moments_batch, _add_moments,
                       {"n": 0, "fire": np.zeros(0), "agree": np.zeros((0, 0)),
                        "cofire": np.zeros((0, 0))})


def select_dependencies(labeled, *, threshold: float = 0.2,
                        alpha=None) -> list[tuple[int, int, float]]:
    """→ [(j, k, score)] for j < k whose observed agreement exceeds the
    conditionally-independent expectation.

    The null matters: two ACCURATE independent LFs agree well above
    1/2 (both track y), so raw agreement over-reports dependencies.
    With per-LF accuracies ``alpha`` (e.g. from ``fit_label_model``)
    the null is ``a_j·a_k + (1−a_j)(1−a_k)`` — agreement explained by
    the shared latent label; without, 0.5 is used (adequate only for
    weak LFs). Driver-side over A6 moments."""
    m = lf_moments(labeled)
    n, fire, agree, cofire = m["n"], m["fire"], m["agree"], m["cofire"]
    K = len(fire)
    if n == 0 or K == 0:
        return []
    a = np.full(K, 0.5) if alpha is None else np.asarray(alpha, dtype=np.float64)
    out = []
    for j in range(K):
        for k in range(j + 1, K):
            cf = cofire[j, k]
            if cf < max(5.0, 0.001 * n):
                continue
            p_agree = agree[j, k] / cf
            null = a[j] * a[k] + (1 - a[j]) * (1 - a[k])
            score = abs(p_agree - null) * (cf / n) ** 0.5 * 2
            if score > threshold:
                out.append((j, k, round(float(score), 4)))
    return sorted(out, key=lambda t: -t[2])
