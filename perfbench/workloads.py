"""The four benchmark workloads.

Each workload generates its inputs from the seed (``make_inputs``), runs one
timed operation the way a user of the program would (``run``), checks
the result against planted truth or an oracle (``check``), and has a
traced twin (``traced``) that calls the same public functions of
``snorkel_ray`` one layer at a time, materializing the result at every
boundary, so each layer's time can be read from outside the program.
The traced twin's output must equal ``run``'s.
"""

from __future__ import annotations

import importlib
import os
import shutil
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import checks, inputs

# Per-layer metrics.  Times are the self time of the span of that name;
# counts are recorded at the same boundary.
LAYERS_KG = ["read", "extract", "candidates", "labeling", "label_model.counts",
             "label_model.fit", "label_model.score", "linking", "materialize"]
LAYERS_SHARDED = ["sharded.write", "sharded.readback", "sharded.resume"]
LAYERS_EVENTS = ["skew.probe", "windows.tumbling", "windows.session",
                 "windows.lag", "windows.sliding", "reshape.zscore",
                 "reshape.count_distinct", "reshape.pivot"]
LAYERS_DEDUP = ["dedup.exact", "dedup.signatures", "dedup.lsh", "dedup.verify",
                "canonicalize.cc", "joins.apply_mapping"]
ALL_LAYERS = LAYERS_KG + LAYERS_SHARDED + LAYERS_EVENTS + LAYERS_DEDUP
COUNTS = {
    "read.rows": "count", "labeling.coverage": "ratio",
    "label_model.counts_rows_in": "count", "label_model.patterns": "count",
    "linking.linked_frac": "ratio", "materialize.triples": "count",
    "materialize.yield": "ratio", "sharded.mb_written": "MB",
    "sharded.files": "count", "sharded.shards_skipped": "count",
    "skew.chunked": "count", "windows.groups": "count",
    "windows.rows_out": "count", "dedup.exact_dups": "count",
    "dedup.candidate_pairs": "count", "dedup.verified_edges": "count",
    "dedup.verify_yield": "ratio", "canonicalize.components": "count",
}
# counts that must be identical across runs of one seed: a physical
# plan flip shows up here as a changed count, not as noise
EXACT_COUNTS = ["skew.chunked", "windows.groups", "dedup.candidate_pairs",
                "dedup.verified_edges", "canonicalize.components",
                "materialize.triples"]


def layer_metric(span: str) -> str:
    """``extract`` → ``extract.s``; ``label_model.fit`` → ``label_model.fit_s``."""
    return f"{span}_s" if "." in span else f"{span}.s"


def collect(ds) -> pa.Table:
    """Execute ``ds`` and bring its rows to the driver as one table."""
    import ray

    tables = [t if isinstance(t, pa.Table) else pa.Table.from_pandas(t, preserve_index=False)
              for t in ray.get(ds.to_arrow_refs())]
    return pa.concat_tables([t for t in tables if t.num_columns],
                            promote_options="default").combine_chunks()


def read(paths: list[str]):
    """The input files as one Dataset, one block per file."""
    import ray.data as rd

    return rd.read_parquet(paths, override_num_blocks=len(paths))


@dataclass
class State:
    dir: str
    paths: list[str]
    records: int
    data: dict = field(default_factory=dict)


class Workload:
    name = ""
    modules: list[str] = []
    layers: list[str] = []  # root spans of the traced twin of ``run``

    def __init__(self, size: dict):
        self.size = size

    def make_inputs(self, seed: int, work: str) -> State:
        raise NotImplementedError

    def warm_up(self, state: State) -> None:
        """Spawn a worker, import the layers the workload calls in it and
        read every input byte once."""
        modules = self.modules

        def _touch(b: pa.Table) -> pa.Table:
            for m in modules:
                importlib.import_module(m)
            return pa.table({"rows": [b.num_rows]})

        read(state.paths).map_batches(_touch, batch_format="pyarrow").materialize()

    def run(self, state: State):
        raise NotImplementedError

    def check(self, state: State, out) -> str | None:
        raise NotImplementedError

    def traced(self, state: State, tracer):
        raise NotImplementedError

    def same_output(self, a, b) -> str | None:
        """Outputs are one table, or a dict of named tables."""
        if isinstance(a, dict):
            return next(filter(None, (checks.check_same_table(a[k], b[k], k)
                                      for k in a)), None)
        return checks.check_same_table(a, b, self.name)

    def teardown(self, state: State) -> None:
        shutil.rmtree(state.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# kg_stream / kg_sharded
# ---------------------------------------------------------------------------

LANG = "en"
THRESHOLD = 0.5
NUM_SHARDS = 4


def _lang_filter(b: pa.Table) -> pa.Table:
    return b.filter(pc.equal(b.column("lang"), LANG))


def _broadcasts(alias: pa.Table, facts):
    """The alias table and KB as ``run_kg_pipeline`` broadcasts them."""
    import ray

    from snorkel_ray.stages.linking import build_link_index

    return ray.put(alias), ray.put({"facts": [tuple(f) for f in facts],
                                    "link_index": build_link_index(alias)})


def _kg_counts(tracer, labeled: pa.Table, linked: pa.Table, triples: pa.Table,
               counts: pa.Table) -> None:
    votes = labeled["L"].combine_chunks()
    flat = np.asarray(votes.flatten(), dtype=np.int8).reshape(len(votes), -1)
    tracer.count("labeling.coverage",
                 float((flat != 0).any(axis=1).mean()) if len(votes) else 0.0)
    tracer.count("label_model.counts_rows_in", int(pc.sum(counts["n"]).as_py() or 0))
    tracer.count("label_model.patterns", counts.num_rows)
    both = pc.and_(pc.not_equal(linked["subj_qid"], ""), pc.not_equal(linked["obj_qid"], ""))
    tracer.count("linking.linked_frac",
                 pc.sum(pc.cast(both, pa.int64())).as_py() / max(linked.num_rows, 1))
    tracer.count("materialize.triples", triples.num_rows)
    tracer.count("materialize.yield", triples.num_rows / max(linked.num_rows, 1))


class KgStream(Workload):
    """``run_kg_pipeline`` in one-pass mode: the label model is fitted on
    a prefix of the labeled candidates, then one streaming pass scores,
    links and materializes."""

    name = "kg_stream"
    modules = ["snorkel_ray.stages.extract", "snorkel_ray.stages.candidates",
               "snorkel_ray.stages.labeling", "snorkel_ray.stages.label_model",
               "snorkel_ray.stages.materialize"]
    layers = LAYERS_KG

    def make_inputs(self, seed: int, work: str) -> State:
        from snorkel_ray import synth

        n = self.size["pages"]
        table, kb, expected = inputs.pages_table(n, seed)
        paths = inputs.write_parquet_files(table, os.path.join(work, "pages"),
                                           self.size["files"])
        return State(work, paths, n, {"alias": synth.alias_table(kb),
                                      "facts": kb["facts"], "expected": expected})

    def run(self, state: State):
        from snorkel_ray.pipelines.kg import run_kg_pipeline

        triples, _ = run_kg_pipeline(read(state.paths), state.data["alias"],
                                     state.data["facts"], lang=LANG,
                                     threshold=THRESHOLD,
                                     fit_sample_rows=self.size["fit_rows"])
        return collect(triples)

    def check(self, state: State, out) -> str | None:
        return checks.check_triples(out, state.data["expected"])

    def traced(self, state: State, tracer):
        from snorkel_ray.stages.candidates import extract_candidates_fused
        from snorkel_ray.stages.extract import extract_docs
        from snorkel_ray.stages.label_model import (fit_label_model, pattern_counts,
                                                    score_marginals)
        from snorkel_ray.stages.labeling import apply_lfs
        from snorkel_ray.stages.materialize import link_candidates, materialize_triples

        alias_ref, kb_ref = _broadcasts(state.data["alias"], state.data["facts"])
        # the one-pass fit reads a prefix of the LAZY labeled chain, so
        # its span also holds the chain's work for that prefix
        with tracer.span("label_model.counts"):
            lazy = apply_lfs(extract_candidates_fused(
                extract_docs(read(state.paths).map_batches(
                    _lang_filter, batch_format="pyarrow")), alias_ref), kb_ref)
            counts = pattern_counts(lazy.limit(self.size["fit_rows"]))
        with tracer.span("label_model.fit"):
            model = fit_label_model(counts)
        with tracer.span("read"):
            pages = read(state.paths).materialize()
        tracer.count("read.rows", pages.count())
        with tracer.span("extract"):
            docs = extract_docs(pages.map_batches(_lang_filter, batch_format="pyarrow")
                                ).materialize()
        with tracer.span("candidates"):
            cands = extract_candidates_fused(docs, alias_ref).materialize()
        with tracer.span("labeling"):
            labeled = apply_lfs(cands, kb_ref).materialize()
        with tracer.span("label_model.score"):
            scored = score_marginals(labeled, model).materialize()
        with tracer.span("linking"):
            linked = link_candidates(scored, alias_ref).materialize()
        with tracer.span("materialize"):
            triples = collect(materialize_triples(linked, threshold=THRESHOLD))
        _kg_counts(tracer, collect(labeled), collect(linked), triples, counts)
        return triples


class KgSharded(KgStream):
    """``run_kg_pipeline_sharded`` over the same corpus into a fresh
    root: labeled shards and manifests are written, the label model is
    fitted on the full corpus, and the triples are written."""

    name = "kg_sharded"
    modules = KgStream.modules + ["snorkel_ray.state.sharded"]
    layers = ["read", "extract", "candidates", "labeling", "sharded.write",
              "sharded.readback", "label_model.counts", "label_model.fit",
              "label_model.score", "linking", "materialize"]

    def _root(self, state: State) -> str:
        """A fresh output root; all of them go with the set-up's dir."""
        k = state.data["roots"] = state.data.get("roots", 0) + 1
        return os.path.join(state.dir, f"root{k}")

    def _run_sharded(self, state: State, root: str):
        from snorkel_ray.state.sharded import run_kg_pipeline_sharded

        triples, report = run_kg_pipeline_sharded(
            None, state.data["alias"], state.data["facts"], root=root,
            num_shards=NUM_SHARDS, lang=LANG, threshold=THRESHOLD,
            input_paths=state.paths)
        return collect(triples), report

    def run(self, state: State):
        return self._run_sharded(state, self._root(state))[0]

    def check(self, state: State, out) -> str | None:
        bad = checks.check_triples(out, state.data["expected"])
        if bad:
            return bad
        # the streaming runner on the same corpus must find the same triples
        if "stream" not in state.data:
            state.data["stream"] = KgStream.run(self, state)
        key = ["subj_qid", "pred", "obj_qid"]
        return checks.check_same_table(out.select(key), state.data["stream"].select(key),
                                       "sharded vs streaming triples")

    def traced(self, state: State, tracer):
        import ray.data as rd
        from pyarrow.fs import LocalFileSystem

        from snorkel_ray.stages.candidates import extract_candidates_fused
        from snorkel_ray.stages.extract import extract_docs
        from snorkel_ray.stages.label_model import (fit_label_model, pattern_counts,
                                                    score_marginals)
        from snorkel_ray.stages.labeling import apply_lfs
        from snorkel_ray.stages.materialize import link_candidates, materialize_triples
        from snorkel_ray.state.checkpoint import fingerprint
        from snorkel_ray.state.resources import broadcast_key
        from snorkel_ray.state.sharded import (run_sharded_stage, shard_input_token,
                                               shard_paths)

        alias, facts = state.data["alias"], state.data["facts"]
        alias_ref, kb_ref = _broadcasts(alias, facts)
        root = self._root(state)
        # per shard, one layer at a time (the runner streams these into
        # its shard write); the shard list and parameters match
        # run_kg_pipeline_sharded's, so its fingerprints match too
        shards, rows = [], 0
        for i, group in enumerate(shard_paths(state.paths, NUM_SHARDS)):
            with tracer.span("read"):
                ds = rd.read_parquet(group, filesystem=LocalFileSystem()).materialize()
            rows += ds.count()
            with tracer.span("extract"):
                docs = extract_docs(ds.map_batches(_lang_filter, batch_format="pyarrow")
                                    ).materialize()
            with tracer.span("candidates"):
                cands = extract_candidates_fused(docs, alias_ref).materialize()
            with tracer.span("labeling"):
                labeled = apply_lfs(cands, kb_ref).materialize()
            shards.append((i, labeled, shard_input_token(group)))
        tracer.count("read.rows", rows)
        kb_fp = fingerprint(broadcast_key(alias), sorted(tuple(f) for f in facts))
        with tracer.span("sharded.write"):
            dirs, _ = run_sharded_stage(
                None, root, "labeled", lambda ds: ds, num_shards=NUM_SHARDS,
                params={"lang": LANG, "lfs": "kg_v1", "cooccur_pred": None,
                        "cooccur_gap": 3, "kb_fp": kb_fp},
                input_fingerprint="pages", shards=shards)
        files = sorted(os.path.join(d, f) for d in dirs for f in os.listdir(d)
                       if f.endswith(".parquet"))
        with tracer.span("sharded.readback"):
            labeled = rd.read_parquet(files).materialize()
        with tracer.span("label_model.counts"):
            counts = pattern_counts(labeled)
        with tracer.span("label_model.fit"):
            model = fit_label_model(counts)
        with tracer.span("label_model.score"):
            scored = score_marginals(labeled, model).materialize()
        with tracer.span("linking"):
            linked = link_candidates(scored, alias_ref).materialize()
        with tracer.span("materialize"):
            triples = collect(materialize_triples(
                linked, threshold=THRESHOLD, out_dir=os.path.join(root, "triples")))
        written = [os.path.join(dp, f) for sub in ("labeled", "triples")
                   for dp, _, fs in os.walk(os.path.join(root, sub)) for f in fs]
        tracer.count("sharded.files", sum(f.endswith(".parquet") for f in written))
        tracer.count("sharded.mb_written", sum(os.path.getsize(f) for f in written) / 2**20)
        _kg_counts(tracer, collect(labeled), collect(linked), triples, counts)
        # a second call on the same root: every shard's manifest matches
        with tracer.span("sharded.resume"):
            resumed, report = self._run_sharded(state, root)
        tracer.count("sharded.shards_skipped",
                     sum(bool(m.get("skipped")) for m in report["shards"]))
        bad = checks.check_same_table(resumed, triples, "resumed triples")
        if bad or tracer.counts["sharded.shards_skipped"] != len(shards):
            raise AssertionError(bad or "resume recomputed shards: the traced "
                                 "shard fingerprints drifted from the runner's")
        return triples


# ---------------------------------------------------------------------------
# events_keyed
# ---------------------------------------------------------------------------

TUMBLE = "1h"
GAP = "2h"
SLIDING_WINDOW = 3
# an explicit width forces sliding's two-level (chunked) plan, whose
# staged table is materialize()d; "auto" would pick ~128 chunks per key
# here and take most of the run
SLIDING_CHUNK = "4h"


class EventsKeyed(Workload):
    """Keyed window and reshape operators over a skewed, out-of-order
    event log, each checked against DuckDB on the same table."""

    name = "events_keyed"
    modules = ["snorkel_ray.stages.windows", "snorkel_ray.stages.reshape",
               "snorkel_ray.stages.skew", "snorkel_ray.stages.joins"]
    layers = ["read"] + LAYERS_EVENTS

    def make_inputs(self, seed: int, work: str) -> State:
        n = self.size["events"]
        table = inputs.events_table(n, self.size["users"], seed)
        paths = inputs.write_parquet_files(table, os.path.join(work, "events"),
                                           self.size["files"])
        return State(work, paths, n, {"events": table})

    def _ops(self, chunk="auto"):
        from snorkel_ray.stages import reshape, windows

        cats = inputs.CATEGORIES
        return {
            "tumbling": lambda ev: windows.tumbling_window_counts(ev, width=TUMBLE),
            "session": lambda ev: windows.session_windows(ev, gap=GAP,
                                                          pre_split_chunk=chunk),
            "lag": lambda ev: windows.lag_column(ev, pre_split_chunk=None),
            "sliding": lambda ev: windows.sliding_window_mean(
                ev, window=SLIDING_WINDOW, pre_split_chunk=SLIDING_CHUNK),
            "zscore": lambda ev: reshape.grouped_zscore(ev, "user_id", "value"),
            "count_distinct": lambda ev: reshape.grouped_count_distinct(
                ev, "user_id", "category"),
            "pivot": lambda ev: reshape.pivot_table(ev, "user_id", "category", cats),
        }

    def run(self, state: State):
        ev = read(state.paths).materialize()
        return {op: collect(fn(ev)) for op, fn in self._ops().items()}

    def check(self, state: State, out) -> str | None:
        import pandas as pd

        if "oracle" not in state.data:
            state.data["oracle"] = checks.events_oracles(
                state.data["events"], tumble_us=pd.Timedelta(TUMBLE).value // 1000,
                gap_us=pd.Timedelta(GAP).value // 1000, window=SLIDING_WINDOW,
                categories=inputs.CATEGORIES)
        for op, oracle in state.data["oracle"].items():
            bad = checks.check_against_oracle(op, checks.events_view(op, out[op]), oracle)
            if bad:
                return bad
        return None

    def traced(self, state: State, tracer):
        import pandas as pd

        from snorkel_ray.stages.skew import auto_pre_split_chunk

        with tracer.span("read"):
            ev = read(state.paths).materialize()
        tracer.count("read.rows", ev.count())
        # what session_windows(pre_split_chunk="auto") probes for itself
        with tracer.span("skew.probe"):
            chunk = auto_pre_split_chunk(ev, "user_id", "ts",
                                         min_width=2 * pd.Timedelta(GAP))
        tracer.count("skew.chunked", int(chunk is not None))
        out = {}
        for op, fn in self._ops(chunk).items():
            span = ("reshape." if op in ("zscore", "count_distinct", "pivot")
                    else "windows.") + op
            with tracer.span(span):
                out[op] = collect(fn(ev))
        tracer.count("windows.groups", len(set(out["lag"]["user_id"].to_pylist())))
        tracer.count("windows.rows_out", sum(out[op].num_rows for op in
                                             ("tumbling", "session", "lag", "sliding")))
        return out


# ---------------------------------------------------------------------------
# dedup_near
# ---------------------------------------------------------------------------

NUM_PERM, SHINGLE_K, BANDS, JACCARD, MINHASH_SEED = 64, 3, 16, 0.8, 17


def _ids_str(b: pa.Table) -> pa.Table:
    return pa.table({"doc_id": b.column("doc_id"),
                     "id_str": pc.cast(b.column("doc_id"), pa.string())})


def _edge_str(b: pa.Table) -> pa.Table:
    return pa.table({"src": pc.cast(b.column("a"), pa.string()),
                     "dst": pc.cast(b.column("b"), pa.string())})


class DedupNear(Workload):
    """``exact_dedup`` then ``minhash_dedup(driver_cc_threshold=0)`` over
    a corpus with planted exact copies, near-dup clusters and long
    near-dup edit chains, checked against the planted groups.
    ``connected_components`` still applies its own ``driver_threshold``,
    so the components come from driver union-find, not distributed
    label propagation."""

    name = "dedup_near"
    modules = ["snorkel_ray.stages.dedup", "snorkel_ray.stages.canonicalize",
               "snorkel_ray.stages.joins"]
    layers = ["read"] + LAYERS_DEDUP

    def make_inputs(self, seed: int, work: str) -> State:
        s = self.size
        table, group = inputs.near_dup_corpus(
            seed, singles=s["singles"], clusters=s["clusters"],
            cluster_size=s["cluster_size"], chains=s["chains"],
            chain_len=s["chain_len"], exact_copies=s["exact_copies"])
        paths = inputs.write_parquet_files(table, os.path.join(work, "docs"), s["files"])
        return State(work, paths, table.num_rows, {"docs": table, "group": group})

    def run(self, state: State):
        from snorkel_ray.stages.dedup import exact_dedup, minhash_dedup

        kept = exact_dedup(read(state.paths), "text").materialize()
        clusters = minhash_dedup(kept, "text", "doc_id", num_perm=NUM_PERM,
                                 shingle_k=SHINGLE_K, bands=BANDS, threshold=JACCARD,
                                 seed=MINHASH_SEED, driver_cc_threshold=0)
        return {"kept": collect(kept), "clusters": collect(clusters)}

    def check(self, state: State, out) -> str | None:
        docs = state.data["docs"]
        bad = checks.check_exact_dedup(docs, out["kept"])
        if bad:
            return bad
        expected = checks.expected_clusters(docs, state.data["group"],
                                            out["kept"]["doc_id"].to_pylist())
        return checks.check_clusters(out["clusters"], expected)

    def traced(self, state: State, tracer):
        from snorkel_ray.stages.canonicalize import connected_components
        from snorkel_ray.stages.dedup import (exact_dedup, lsh_bucket_pairs,
                                              minhash_signatures, verify_pairs_jaccard)
        from snorkel_ray.stages.joins import apply_mapping

        with tracer.span("read"):
            docs = read(state.paths).materialize()
        n = docs.count()
        tracer.count("read.rows", n)
        with tracer.span("dedup.exact"):
            kept = exact_dedup(docs, "text").materialize()
        tracer.count("dedup.exact_dups", n - kept.count())
        # minhash_dedup's body, one layer at a time
        with tracer.span("dedup.signatures"):
            sigs = minhash_signatures(kept, "text", "doc_id", num_perm=NUM_PERM,
                                      shingle_k=SHINGLE_K, seed=MINHASH_SEED).materialize()
        with tracer.span("dedup.lsh"):
            pairs = lsh_bucket_pairs(sigs, "doc_id", bands=BANDS, dedup=False,
                                     pin_exploded=True).materialize()
        n_pairs = pairs.count()
        with tracer.span("dedup.verify"):
            edges = verify_pairs_jaccard(kept, pairs, "text", "doc_id",
                                         shingle_k=SHINGLE_K,
                                         threshold=JACCARD).materialize()
        n_edges = edges.count()
        tracer.count("dedup.candidate_pairs", n_pairs)
        tracer.count("dedup.verified_edges", n_edges)
        tracer.count("dedup.verify_yield", n_edges / max(n_pairs, 1))
        # driver_cc_threshold=0 sends every non-empty edge set here; the
        # default driver_threshold then picks union-find, as in the runner
        with tracer.span("canonicalize.cc"):
            comp = connected_components(
                edges.map_batches(_edge_str, batch_format="pyarrow")).materialize()
        tracer.count("canonicalize.components",
                     len(set(collect(comp)["label"].to_pylist())))
        with tracer.span("joins.apply_mapping"):
            ids = kept.select_columns(["doc_id"]).map_batches(_ids_str,
                                                              batch_format="pyarrow")
            clusters = collect(apply_mapping(ids, comp, "id_str", "node", "label",
                                             "cluster", default_col="id_str")
                               .select_columns(["doc_id", "cluster"]))
        return {"kept": collect(kept), "clusters": clusters}


WORKLOADS = {w.name: w for w in (KgStream, KgSharded, EventsKeyed, DedupNear)}

# Input sizes.  "full" is what the benchmark measures; "tiny" keeps the
# same shape for the smoke tests.
SIZES = {
    "full": {
        "kg_stream": {"pages": 6000, "files": 12, "fit_rows": 4000},
        "kg_sharded": {"pages": 6000, "files": 12, "fit_rows": 4000},
        "events_keyed": {"events": 4000, "users": 20, "files": 4},
        "dedup_near": {"singles": 150, "clusters": 30, "cluster_size": 5,
                       "chains": 1, "chain_len": 260, "exact_copies": 75,
                       "files": 4},
    },
    "tiny": {
        "kg_stream": {"pages": 300, "files": 2, "fit_rows": 300},
        "kg_sharded": {"pages": 300, "files": 4, "fit_rows": 300},
        "events_keyed": {"events": 600, "users": 12, "files": 2},
        "dedup_near": {"singles": 40, "clusters": 6, "cluster_size": 4,
                       "chains": 1, "chain_len": 30, "exact_copies": 10,
                       "files": 2},
    },
}
