"""Generative label model as a streaming groupby-aggregate + driver fit.

Reference: ``GenerativeModel`` (``snorkel/learning/gen_learning.py``
≈L40–700) fits per-LF accuracies by SGD over a Gibbs-sampled factor
graph (numbskull) holding the FULL label matrix in driver memory, then
``marginals(L)`` scores each candidate.  That cannot stream at 10^12
candidates.  Recast (BASELINE.json north star): the sufficient
statistics of the independent-LF model are the COUNTS OF DISTINCT VOTE
PATTERNS — with K LFs there are at most 3^K patterns and in practice a
few hundred, so:

1. [task/block]   per-block partial counts: pattern bytes -> n
2. [driver]       streamed merge into global pattern counts (rows ≤
                  patterns × blocks, NOT candidates)
3. [driver]       exact EM over the weighted patterns (numpy) —
                  identical result to EM over all rows
4. [map_batches]  posteriors per row with the learned weights
                  captured in the task closure (broadcast once)

The flagship folds candidate rows into (triple, vote-pattern) partials
with a count ``n`` (``materialize.triple_partials``); ``pattern_counts``
weights rows by ``n``, and step 4 scores the partials only.

One pattern table feeds everything: ``pattern_counts`` stores
``vote + 1`` as one byte per LF, which covers binary votes {-1, 0, +1}
and categorical votes {0..k} alike.  The binary and the categorical
fit share one EM loop (``_em``) and one log-joint (``_log_joint``);
the LF diagnostics (``lf_stats``, ``evaluate.candidate_coverage``) are
weighted sums over the same table, not extra passes over ``L``.

P/R ≥ 0.95 tolerance absorbs Gibbs-vs-EM estimator drift (SURVEY.md A4).

Model: class prior π and a class-conditional vote table
θ[k, c, v] = P(λ_k = v | y = c) — per-LF accuracy AND abstain
propensity per class.  Posterior:
P(y = c | λ) ∝ π_c · Π_k θ[k, c, λ_k].
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

_BINARY_VOTES = (-1, 0, 1)


def vote_matrix(batch: pa.Table) -> np.ndarray:
    """The ``L`` list<int8> column of a batch as an (n, K) int8 matrix."""
    L = batch.column("L")
    flat = np.asarray(L.combine_chunks().flatten() if isinstance(L, pa.ChunkedArray)
                      else L.flatten(), dtype=np.int8)
    n = batch.num_rows
    return flat.reshape(n, flat.size // n if n else 0)


# ---------------------------------------------------------------------------
# 1+2: pattern-count sufficient statistics
# ---------------------------------------------------------------------------

def _pattern_counts_batch(batch: pa.Table) -> pa.Table:
    if batch.num_rows == 0:
        return pa.table({"pattern": pa.array([], pa.binary()), "n": pa.array([], pa.int64())})
    mat = (vote_matrix(batch) + 1).astype(np.uint8)  # vote v -> byte v + 1
    patterns, inv = np.unique(mat, axis=0, return_inverse=True)
    w = batch.column("n").to_numpy() if "n" in batch.schema.names else None
    counts = np.bincount(inv.reshape(-1), weights=w, minlength=len(patterns))
    return pa.table(
        {
            "pattern": pa.array([p.tobytes() for p in patterns], pa.binary()),
            "n": pa.array(counts.astype(np.int64), pa.int64()),
        }
    )


def _count_block(block) -> pa.Table:
    from ray.data.block import BlockAccessor

    return _pattern_counts_batch(BlockAccessor.for_block(block).to_arrow())


@functools.cache
def _count_task():
    import ray

    return ray.remote(_count_block)


def pattern_counts(labeled) -> "pa.Table":
    """labeled Dataset (with L column) → tiny driver-side table of
    (pattern bytes, count), one byte ``vote + 1`` per LF, sorted by
    pattern; a row counts ``n`` times when the Dataset has an ``n``
    column (``triple_partials``).

    A decomposable partial + merge (SUDAF; SURVEY.md A2/A3): one small
    remote task per block (``_pattern_counts_batch``), whose
    O(#patterns) result is merged into a driver dict.  The tasks come
    from ``state.resources.block_tasks``, so a materialized Dataset
    (the flagship's pinned partials) runs no Ray Data job at all, a
    lazy one streams through its chain once, and a lazy input pins
    nothing row-proportional.  Not a Dataset all-to-all (an AllToAll
    appended to a live map chain costs seconds of fixed shuffle setup
    for kilobytes of data) and not ``to_pandas()``."""
    import ray

    from ..state.resources import block_tasks

    acc: dict[bytes, int] = {}
    for ref in block_tasks(labeled, _count_task()):
        t = ray.get(ref)
        for p, n in zip(t.column("pattern").to_pylist(), t.column("n").to_pylist()):
            acc[p] = acc.get(p, 0) + n
    keys = sorted(acc)
    return pa.table({"pattern": pa.array(keys, pa.binary()),
                     "n": pa.array([acc[k] for k in keys], pa.int64())})


def _pattern_matrix(counts: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """Pattern table → (P, K) int8 votes and (P,) int64 counts."""
    raw = counts.column("pattern").to_pylist()
    if not raw:
        return np.zeros((0, 0), np.int8), np.zeros(0, np.int64)
    mat = np.frombuffer(b"".join(raw), dtype=np.uint8).reshape(len(raw), -1)
    return mat.astype(np.int8) - 1, counts.column("n").to_numpy().astype(np.int64)


# ---------------------------------------------------------------------------
# 3: driver-side EM over weighted patterns
# ---------------------------------------------------------------------------

def _log_joint(L: np.ndarray, theta: np.ndarray, pi: np.ndarray, values) -> np.ndarray:
    """log P(y = c, λ) for every row of an (n, K) vote matrix → (n, C);
    ``values`` names the vote axis of θ[k, c, v]."""
    if L.size and L.shape[1] != theta.shape[0]:
        # without this the K-mismatch surfaces as an opaque matmul
        # ValueError inside a Ray task (round-4 review); K=0 means the
        # model was fit on ZERO pattern rows
        raise ValueError(
            f"posterior: vote matrix has K={L.shape[1]} LFs but the "
            f"model was fit with K={theta.shape[0]}")
    lt = np.log(np.maximum(theta, 1e-300))
    logp = np.tile(np.log(np.maximum(pi, 1e-300))[None, :], (L.shape[0], 1))
    for vi, v in enumerate(values):
        logp = logp + (L == v) @ lt[:, :, vi]
    return logp


def _softmax(logp: np.ndarray) -> np.ndarray:
    e = np.exp(logp - logp.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _em(Lp: np.ndarray, w: np.ndarray, q: np.ndarray, values, *, n_iter: int,
        tol: float, smooth: float, pi_floor: float):
    """Exact class-conditional EM over weighted patterns: (P, K) votes
    ``Lp`` with counts ``w`` and initial soft labels ``q`` (P, C) →
    (θ[K, C, len(values)], π[C], health dict).  The health dict holds
    ``n_iter_run``, ``converged`` (relative log-likelihood change below
    ``tol``), the final ``log_likelihood``, and what the fit saw: the
    number of distinct ``patterns`` and the ``rows`` they count."""
    K, C = Lp.shape[1], q.shape[1]
    w = w.astype(np.float64)
    V = [(Lp == v) for v in values]
    theta = np.full((K, C, len(values)), 1.0 / len(values))
    pi = np.full(C, 1.0 / C)
    ll, ll_old, it, converged = 0.0, -np.inf, 0, False
    while it < n_iter and not converged:
        it += 1
        wq = w[:, None] * q
        for vi in range(len(values)):
            theta[:, :, vi] = V[vi].T @ wq + smooth
        theta /= theta.sum(axis=2, keepdims=True)
        pi = np.clip((wq.sum(axis=0) + smooth) / (w.sum() + C * smooth), pi_floor, 1.0)
        pi = pi / pi.sum()
        logp = _log_joint(Lp, theta, pi, values)
        m = logp.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(logp - m).sum(axis=1))
        q = np.exp(logp - lse[:, None])
        ll = float(w @ lse)
        converged = abs(ll - ll_old) < tol * max(1.0, abs(ll_old))
        ll_old = ll
    return theta, pi, {"n_iter_run": it, "converged": bool(converged),
                       "log_likelihood": ll, "patterns": len(w),
                       "rows": int(w.sum())}


_NO_FIT = {"n_iter_run": 0, "converged": False, "log_likelihood": 0.0,
           "patterns": 0, "rows": 0}


def fit_label_model(counts: pa.Table, *, n_iter: int = 200, tol: float = 1e-9,
                    smooth: float = 0.2) -> dict:
    """Exact EM on pattern counts for the class-conditional model
    P(λ_k = v | y), v ∈ {-1, 0, +1} — LF accuracy AND propensity per
    class.  The propensity term is load-bearing (SURVEY.md §7 hard part
    (b)): with accuracy-only parameters the all-one-class solution is a
    global optimum (a "wrong" LF flips sign instead of penalizing), and
    negative-evidence LFs that abstain on positives collapse.  Here an
    LF that fires only on one class is itself evidence.

    Returns {"theta": float64[K, 2, 3] with P(λ=v|y), "pi": float,
    "alpha": float64[K] accuracies for reporting, plus the EM health
    ``n_iter_run``/``converged``/``log_likelihood`` and the
    ``patterns``/``rows`` it was fit on} — a few hundred
    floats; broadcast by closure capture into the scoring stage.
    """
    Lp, w = _pattern_matrix(counts)
    if not len(w):
        return {"theta": np.zeros((0, 2, 3)), "pi": 0.5, "alpha": np.array([]), **_NO_FIT}
    K = Lp.shape[1]
    # init: signed majority vote as soft labels, P(y=+1 | pattern)
    q = 1.0 / (1.0 + np.exp(-1.5 * Lp.sum(axis=1)))
    theta, pi_c, health = _em(Lp, w, np.stack([1.0 - q, q], axis=1), _BINARY_VOTES,
                              n_iter=n_iter, tol=tol, smooth=smooth, pi_floor=1e-6)
    pi = float(pi_c[1])

    # Identifiability (label switching): orient so that LFs agree with
    # their own votes better than chance on average — the reference's
    # LF-accuracy-prior convention (gen_learning.py LF_prior).
    fire_pos = theta[:, 1, 2] + theta[:, 1, 0]  # P(fire | y=+1)
    fire_neg = theta[:, 0, 2] + theta[:, 0, 0]
    acc_pos = np.divide(theta[:, 1, 2], fire_pos, out=np.full(K, 0.5), where=fire_pos > 1e-12)
    acc_neg = np.divide(theta[:, 0, 0], fire_neg, out=np.full(K, 0.5), where=fire_neg > 1e-12)
    mean_acc = float(np.mean(0.5 * (acc_pos + acc_neg)))
    if mean_acc < 0.5:
        theta = theta[:, ::-1, :]
        pi = 1.0 - pi
        acc_pos, acc_neg = 1 - acc_neg, 1 - acc_pos
    alpha = 0.5 * (acc_pos + acc_neg)
    return {"theta": theta, "pi": pi, "alpha": alpha, **health}


# ---------------------------------------------------------------------------
# 4: broadcast scoring (marginals)
# ---------------------------------------------------------------------------

def posterior(L: np.ndarray, theta: np.ndarray, pi: float) -> np.ndarray:
    """P(y=+1 | λ) for an (n, K) int8 vote matrix — reference
    ``GenerativeModel.marginals`` ≈L600–700, closed form under the
    class-conditional categorical model."""
    return _softmax(_log_joint(L, theta, np.array([1.0 - pi, pi]), _BINARY_VOTES))[:, 1]


def score_marginals(labeled, model: dict, *, batch_size: int | None = None):
    """Append float32 ``p`` to every labeled candidate row (stateless
    map; weights ride in the serialized closure once)."""
    theta = np.asarray(model["theta"], dtype=np.float64)
    pi = float(model["pi"])
    return labeled.map_batches(lambda b: append_p(b, theta, pi), batch_format="pyarrow",
                               batch_size=batch_size)


def append_p(batch: pa.Table, theta: np.ndarray, pi: float) -> pa.Table:
    """``batch`` with float32 ``p`` = P(y = +1 | its votes) appended."""
    p = posterior(vote_matrix(batch), theta, pi) if batch.num_rows else np.array([])
    return batch.append_column("p", pa.array(p.astype(np.float32), pa.float32()))


def save_model(model: dict, path: str) -> None:
    """Persist fitted label-model weights (binary or categorical) —
    the reference pickles ``GenerativeModel`` via its save/load
    (``snorkel/learning/gen_learning.py`` ≈L700); here a plain .npz so
    a later run can score without refitting (resume-friendly)."""
    np.savez(path,
             theta=np.asarray(model["theta"]),
             pi=np.asarray(model["pi"]),
             alpha=np.asarray(model.get("alpha", [])),
             cardinality=np.asarray(model.get("cardinality", 2)))


def load_model(path: str) -> dict:
    with np.load(path) as z:
        out = {"theta": z["theta"], "cardinality": int(z["cardinality"])}
        pi = z["pi"]
        out["pi"] = float(pi) if pi.ndim == 0 else pi
        if z["alpha"].size:
            out["alpha"] = z["alpha"]
        return out


# ---------------------------------------------------------------------------
# Categorical (cardinality k > 2) label model — reference
# ``GenerativeModel`` + ``candidate_subclass(..., cardinality=k)``
# support multi-class throughout (snorkel/learning/gen_learning.py
# ≈L40–600, snorkel/models/candidate.py ≈L1–180; the reference test
# suite has a categorical variant, SURVEY.md §5).  Votes follow the
# reference's categorical convention: λ ∈ {0, 1..k}, 0 = abstain.
# Same pattern table, EM loop and log-joint as the binary model.
# ---------------------------------------------------------------------------


def fit_label_model_cat(counts: pa.Table, cardinality: int, *, n_iter: int = 300,
                        tol: float = 1e-9, smooth: float = 0.2) -> dict:
    """Exact EM on pattern counts, y ∈ {1..k}: class prior π_c and
    class-conditional vote table θ[lf, c, v] = P(λ=v | y=c) with
    v ∈ {0..k} — accuracy AND per-class propensity, the same
    degeneracy-free parameterization as the binary model (an LF that
    fires only on one class is itself evidence).

    Label anchoring: q is initialized from the vote-count majority
    (class c anchored to vote value c), and a greedy post-fit
    permutation maximizes Σ_lf θ[lf, c, c] to undo any residual
    label switching.

    Returns {"theta": float64[K, k, k+1], "pi": float64[k],
    "cardinality": k, plus the EM health ``n_iter_run``/``converged``/
    ``log_likelihood`` and the ``patterns``/``rows`` it was fit on}."""
    C = int(cardinality)
    Lp, w = _pattern_matrix(counts)
    if not len(w):
        return {"theta": np.zeros((0, C, C + 1)), "pi": np.full(C, 1.0 / C),
                "cardinality": C, **_NO_FIT}

    # init: soft majority vote anchored to vote values
    votes_per_class = np.stack([(Lp == c + 1).sum(axis=1) for c in range(C)], axis=1)
    q = np.exp(1.5 * (votes_per_class - votes_per_class.max(axis=1, keepdims=True)))
    q /= q.sum(axis=1, keepdims=True)  # (P, C)
    theta, pi, health = _em(Lp, w, q, range(C + 1), n_iter=n_iter, tol=tol,
                            smooth=smooth, pi_floor=1e-9)

    # greedy permutation: re-anchor class index c to the vote value it
    # best explains (undoes residual label switching)
    score = theta[:, :, 1:].sum(axis=0)  # (C classes, C vote values)
    perm = np.empty(C, dtype=np.int64)
    for _ in range(C):  # first maximum in row-major order wins ties
        c, v = np.unravel_index(np.argmax(score), score.shape)
        perm[v] = c
        score[c, :] = score[:, v] = -np.inf
    return {"theta": theta[:, perm, :], "pi": pi[perm], "cardinality": C, **health}


def posterior_cat(L: np.ndarray, theta: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """(n, K) votes in {0..k} → (n, k) class posteriors (reference
    categorical ``GenerativeModel.marginals``)."""
    return _softmax(_log_joint(L, theta, pi, range(theta.shape[1] + 1)))


def score_marginals_cat(labeled, model: dict, *, batch_size: int | None = None):
    """Append ``p_cat`` (list<float32>, per-class posterior) and
    ``y_hat`` (int32 argmax class in 1..k) to every labeled row."""
    theta = np.asarray(model["theta"], dtype=np.float64)
    pi = np.asarray(model["pi"], dtype=np.float64)
    C = int(model["cardinality"])

    def _score(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        post = posterior_cat(vote_matrix(batch), theta, pi) if n else np.zeros((0, C))
        y_hat = post.argmax(axis=1).astype(np.int32) + 1
        off = pa.array(np.arange(0, (n + 1) * C, C, dtype=np.int32))
        pcol = pa.ListArray.from_arrays(
            off, pa.array(post.reshape(-1).astype(np.float32), pa.float32()))
        batch = batch.append_column("p_cat", pcol)
        return batch.append_column("y_hat", pa.array(y_hat, pa.int32()))

    return labeled.map_batches(_score, batch_format="pyarrow", batch_size=batch_size)


# ---------------------------------------------------------------------------
# LF diagnostics (SURVEY.md A2: coverage / overlap / conflict)
# ---------------------------------------------------------------------------

def lf_stats(labeled, lf_names: list[str]) -> "pa.Table":
    """Per-LF coverage/overlap/conflict (reference ``lf_stats``
    semantics) as count-weighted sums over the pattern table — no pass
    over ``L`` of its own."""
    Lp, w = _pattern_matrix(pattern_counts(labeled))
    K = len(lf_names)
    if not len(w):
        Lp = np.zeros((0, K), np.int8)
    elif Lp.shape[1] != K:
        raise ValueError(f"lf_stats: L has {Lp.shape[1]} LFs but {K} names were given")
    nz = Lp != 0
    others = nz.sum(axis=1)[:, None] - nz  # how many OTHER LFs labeled each pattern
    disagree = (Lp == 1).any(axis=1) & (Lp == -1).any(axis=1)
    n = max(int(w.sum()), 1)
    return pa.table(
        {
            "lf_name": pa.array(list(lf_names), pa.string()),
            "coverage": pa.array((w @ nz) / n, pa.float64()),
            "overlap": pa.array((w @ (nz & (others > 0))) / n, pa.float64()),
            "conflict": pa.array((w @ (nz & disagree[:, None])) / n, pa.float64()),
        }
    )
