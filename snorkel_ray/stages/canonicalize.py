"""Entity canonicalization: normalized keys → alias-cluster merge.

North-star stage: "canonicalization runs as a groupby on normalized
entity keys with connected-component merge".  No direct reference
analog (SURVEY.md A9) — the reference's nearest mechanism is the
implicit case-folding in ``DictionaryMatch`` and stable-id slugify.

Graph: bipartite surface-key ↔ qid edges from the linker.  Two keys
sharing a qid (alias variants) must land in one cluster; chains
key–qid–key–qid can be arbitrarily long in adversarial dictionaries, so
the merge is iterative min-label propagation over the DISTINCT edge
table (much smaller than the mention stream), each round one
keyed min (``fold_by_key``) + ``apply_mapping`` lookups — no driver
union-find, converges in O(log(longest chain)) rounds; ``max_iter``
bounds it (normalized keys keep real clusters shallow; SURVEY.md §7
hard part (c)).

Unlinked keys (qid == "") become singleton clusters ``C:<key>``.
"""

from __future__ import annotations

import pyarrow as pa


def union_find_labels(edges_df, src: str = "src", dst: str = "dst"):
    """Driver-side union-find over a small edge DataFrame → DataFrame
    (node, label=min member).  The O(E α(E)) path for edge tables that
    fit the driver — the distributed label propagation below is the
    huge-edge-set regime."""
    import pandas as pd

    parent: dict = {}

    def find(x):
        r = x
        while parent[r] != r:
            r = parent[r]
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    for a, b in zip(edges_df[src], edges_df[dst]):
        for n in (a, b):
            if n not in parent:
                parent[n] = n
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    nodes = list(parent)
    return pd.DataFrame({"node": nodes, "label": [find(n) for n in nodes]})


def connected_components(edges, src: str = "src", dst: str = "dst",
                         *, max_iter: int = 64,
                         driver_threshold: int = 2_000_000):
    """edges Dataset (two string cols) → Dataset (node, label) where
    label = lexicographic min node id in the component.

    Edge sets up to ``driver_threshold`` rows short-circuit to driver
    union-find (exact, no shuffle rounds; callers pass the DISTINCT
    edge table which is ≪ the corpus); larger sets run distributed
    NODE-label propagation WITH POINTER JUMPING: each round, every
    node's label becomes the min over itself and both endpoints' labels
    of its incident edges (both endpoints' labels looked up, then one
    exploded ``fold_by_key`` min), then labels chase
    one level of indirection (label := label[label]), which doubles the
    propagation distance per round → convergence in O(log diameter)
    rounds instead of O(diameter).  Every round ends with an exact
    changed-row count (a keyless ``fold_blocks`` sum over the label
    table, ≪ edges); the loop stops when a round changes nothing.  The round-2
    fixed-4-round variant silently split any component with diameter
    > 4 (round-2 ADVICE item 3) — ``max_iter`` is now a safety rail
    (2^64 hops at 64 rounds) and overrunning it RAISES rather than
    returning corrupt clusters.  Tables ``materialize()``d between
    rounds (stacked lazy shuffle rounds deadlocked a 4-CPU session).
    A label lookup broadcasts under ``apply_mapping``'s row limit and
    runs ``join_by_key`` (P from bytes, no partition count) above it.
    """
    import operator

    import ray.data as rd

    from ..state.resources import fold_blocks, fold_by_key

    edges = edges.materialize()  # consumed by count + either CC path
    if edges.count() <= driver_threshold:
        df = edges.select_columns([src, dst]).to_pandas()
        return rd.from_pandas(union_find_labels(df, src, dst))

    from .joins import apply_mapping

    def _init_nodes(b: pa.Table) -> pa.Table:
        n = pa.concat_arrays([b.column(src).combine_chunks(),
                              b.column(dst).combine_chunks()])
        return pa.table({"node": n, "lbl": n})

    labels = fold_by_key(edges, ["node"], {"lbl": "min"}, _init_nodes).materialize()

    for _ in range(max_iter):
        # 1) neighbor-min: attach current labels to both endpoints, then
        #    each node takes the min over (own label, neighbor labels)
        e = apply_mapping(edges, labels, src, "node", "lbl", "_src_lbl")
        e = apply_mapping(e, labels, dst, "node", "lbl", "_dst_lbl")

        def _cands(b: pa.Table) -> pa.Table:
            node = pa.concat_arrays([b.column(src).combine_chunks(),
                                     b.column(dst).combine_chunks()])
            lbl = pa.concat_arrays([b.column("_dst_lbl").combine_chunks(),
                                    b.column("_src_lbl").combine_chunks()])
            return pa.table({"node": node, "lbl": lbl})

        cand = e.map_batches(_cands, batch_format="pyarrow").union(labels)
        new_labels = fold_by_key(cand, ["node"], {"lbl": "min"}).materialize()

        # 2) pointer jump: lbl := min(lbl, lbl[lbl]) — labels are node
        #    ids, so chasing them through the label table halves the
        #    remaining path length each round
        jumped = apply_mapping(new_labels, new_labels, "lbl", "node",
                               "lbl", "_jump")

        def _take_jump(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            j = pc.coalesce(b.column("_jump"), b.column("lbl"))
            return pa.table({"node": b.column("node"),
                             "lbl": pc.min_element_wise(b.column("lbl"), j)})

        new_labels = (jumped.map_batches(_take_jump, batch_format="pyarrow")
                      .materialize())

        # 3) exact convergence check: count nodes whose label changed
        with_old = apply_mapping(new_labels, labels, "node", "node",
                                 "lbl", "_old")

        def _changed(b: pa.Table) -> int:
            import pyarrow.compute as pc

            return pc.sum(pc.cast(pc.not_equal(b.column("lbl"), b.column("_old")),
                                  pa.int64())).as_py() or 0

        changed = fold_blocks(with_old, _changed, operator.add, 0)
        labels = new_labels
        if changed == 0:
            break
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_iter} rounds — "
            "returning partial labels would silently corrupt clusters")

    return labels.map_batches(
        lambda b: pa.table({"node": b.column("node"), "label": b.column("lbl")}),
        batch_format="pyarrow")


def canonical_entity_map(linked_mentions):
    """linked mentions/candidates (entity_key, qid) → Dataset
    (entity_key, canonical_id): qid-anchored clusters for LINKED keys.

    Keys that only ever appear unlinked (qid == "") are ABSENT from
    the map — attach them with ``joins.apply_mapping(...,
    default_col=<key column>)`` so they fall back to themselves, as
    ``pipelines/kg.py`` does (round-4 review: the docstring used to
    promise C:<key> singleton rows that were never emitted)."""
    import pyarrow.compute as pc

    from ..state.resources import fold_by_key

    def _edges(b: pa.Table) -> pa.Table:
        t = b.filter(pc.not_equal(b.column("qid"), ""))
        # qid nodes carry a \x00 prefix, surface keys \x01: the
        # component min-label is ALWAYS a prefixed qid, for every
        # possible key charset (a bare "!" prefix lost to keys starting
        # with space/control chars < 0x21 — round-4 review)
        return pa.table({
            "src": pc.binary_join_element_wise("\x00", t.column("qid"), ""),
            "dst": pc.binary_join_element_wise("\x01", t.column("entity_key"), "")})

    # the distinct edges: mentions repeat the same (qid, key) edge
    # constantly, so each block ships only its distinct edges to the
    # edge shuffle (CLAUDE.md perf rule 1 — don't feed the AllToAll the
    # full mention stream when a tiny distinct set suffices)
    distinct = fold_by_key(linked_mentions, ["src", "dst"], {}, _edges)
    comp = connected_components(distinct)

    def _to_map(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        is_key = pc.starts_with(b.column("node"), "\x01")
        t = b.filter(is_key)
        # strip the one-char node prefixes; the min label is a
        # \x00-prefixed qid by construction (every edge has a qid src)
        return pa.table({
            "entity_key": pc.utf8_slice_codeunits(t.column("node"), 1),
            "canonical_id": pc.utf8_slice_codeunits(t.column("label"), 1)})

    return comp.map_batches(_to_map, batch_format="pyarrow")
