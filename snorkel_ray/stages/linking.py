"""Entity-link scoring with a shared alias dictionary.

North-star stage (BASELINE.json): "entity-link scoring with a shared
alias dictionary hosted in an actor pool".  Reference ancestry is the
CDR tutorial's CTD dictionaries captured in matcher closures
(``snorkel/matchers.py`` ≈L80–150, SURVEY.md T2/J4) — a per-process
copy there; here the table is ``ray.put`` ONCE and each worker builds
its normalized-key index once (zero-copy plasma read per node, never
re-shipped per batch): per task process by default, per actor when
``concurrency`` asks for the pool (``state.resources.stateful_map``).

Link rule (deterministic): normalized surface key → candidate
(qid, prior) list; best prior wins, ties by smaller qid; unknown keys
get qid "" and link_score 0.  This is a broadcast lookup "join" — the
small side moves, the mention stream never shuffles.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.ids import normalize_entity_key


def build_link_index(alias_table: pa.Table) -> dict[str, tuple[str, float]]:
    """normalized alias → (qid, prior); best-prior-then-min-qid ties."""
    idx: dict[str, tuple[str, float]] = {}
    for alias, qid, prior in zip(
        alias_table.column("alias").to_pylist(),
        alias_table.column("entity_qid").to_pylist(),
        alias_table.column("prior").to_pylist(),
    ):
        key = normalize_entity_key(alias)
        cur = idx.get(key)
        if cur is None or prior > cur[1] or (prior == cur[1] and qid < cur[0]):
            idx[key] = (qid, float(prior))
    return idx


class LinkerActor:
    """Batch stage behind ``link_mentions`` (and, with both prefixes,
    ``materialize.link_candidates``) over any table with an
    ``entity_key`` column; appends ``qid`` and ``link_score``."""

    def __init__(self, alias_ref, key_column: str = "entity_key",
                 out_prefix: str = ""):
        import ray

        table = alias_ref if isinstance(alias_ref, pa.Table) else ray.get(alias_ref)
        self.index = build_link_index(table)
        self.key_column = key_column
        self.out_prefix = out_prefix

    def link_keys(self, keys: list[str]) -> tuple[list[str], np.ndarray]:
        # keys within a batch repeat heavily (few distinct entities per
        # corpus slice): resolve the uniques once, then broadcast via
        # pandas factorize-take — much cheaper than a per-row dict loop.
        import pandas as pd

        # null keys factorize to code -1, which would WRAP to the last
        # unique's qid (round-4 review) — treat None as the unlinkable
        # empty key instead
        s = pd.Series(["" if k is None else k for k in keys], dtype=object)
        codes, uniques = pd.factorize(s, sort=False)
        u_qid = np.empty(len(uniques), dtype=object)
        u_score = np.zeros(len(uniques), dtype=np.float32)
        for i, k in enumerate(uniques):
            hit = self.index.get(k)
            if hit is None:
                u_qid[i] = ""
            else:
                u_qid[i] = hit[0]
                u_score[i] = hit[1]
        if len(uniques) == 0:
            return [], np.zeros(0, dtype=np.float32)
        return u_qid[codes].tolist(), u_score[codes]

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch.column(self.key_column).to_pylist()
        qids, scores = self.link_keys(keys)
        p = self.out_prefix
        batch = batch.append_column(f"{p}qid", pa.array(qids, pa.string()))
        batch = batch.append_column(f"{p}link_score", pa.array(scores, type=pa.float32()))
        return batch


def link_mentions(mentions, alias_ref, *, concurrency=None, batch_size: int = 4096):
    """mentions → + ``qid``/``link_score``: elastic tasks with a
    per-worker link index (light state, CLAUDE.md rule 2), or an actor
    pool of ``concurrency`` when it is set."""
    from ..state.resources import broadcast_key, stateful_map

    return stateful_map(mentions, lambda: LinkerActor(alias_ref),
                        key=broadcast_key(alias_ref), concurrency=concurrency,
                        batch_size=batch_size)
