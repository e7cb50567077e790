"""E2E golden triples, resume, mentions/linking/canonicalization — the
Ray-session-backed tests (SURVEY.md §5 items 3/4)."""

import json
import os
import sys

import pandas as pd
import pyarrow as pa
import pytest

from snorkel_ray.pipelines.kg import run_kg_pipeline
from snorkel_ray.stages.materialize import evaluate_triples
from snorkel_ray.synth import alias_table, build_kb, expected_triples, pages_dataset

N_PAGES = 300
SEED = 42


@pytest.fixture(scope="module")
def kb():
    return build_kb(SEED)


def test_e2e_golden_triples(ray_session, kb):
    triples, info = run_kg_pipeline(pages_dataset(N_PAGES, SEED), alias_table(kb),
                                    kb["facts"])
    got = pa.Table.from_pandas(triples.to_pandas())
    res = evaluate_triples(got, expected_triples(N_PAGES, SEED))
    assert res["precision"] >= 0.95, res
    assert res["recall"] >= 0.95, res


def _sorted(triples) -> pd.DataFrame:
    return triples.to_pandas().sort_values(["subj_qid", "pred", "obj_qid"]) \
        .reset_index(drop=True)


def test_resume_skips_and_is_identical(ray_session, kb, tmp_path, monkeypatch):
    """The labeled stage is the one checkpoint: a rerun with a matching
    manifest never calls the labeled chain, reports the stage's rows
    and wall time, and gives identical triples."""
    from snorkel_ray.pipelines import kg

    ckpt = str(tmp_path / "ckpt")
    os.makedirs(ckpt)
    args = (pages_dataset(150, SEED), alias_table(kb), kb["facts"])
    calls = []
    chain = kg._labeled_chain
    monkeypatch.setattr(kg, "_labeled_chain",
                        lambda *a, **kw: calls.append(1) or chain(*a, **kw))

    t1, i1 = run_kg_pipeline(*args, checkpoint_dir=ckpt)
    df1 = _sorted(t1)
    [s1] = i1["stages"]
    assert s1["stage"] == "labeled" and s1["skipped"] is False
    assert s1["rows"] > len(df1) > 0 and s1["wall_sec"] > 0
    assert calls == [1]

    # simulate a killed run resuming: the manifest matches -> skip
    t2, i2 = run_kg_pipeline(*args, checkpoint_dir=ckpt)
    assert i2["stages"] == [{**s1, "skipped": True}]
    assert calls == [1]  # the chain was never built again
    assert df1.equals(_sorted(t2))

    # killed between the data rename and the manifest write: rebuilt
    os.remove(os.path.join(ckpt, "labeled", "_manifest.json"))
    t3, i3 = run_kg_pipeline(*args, checkpoint_dir=ckpt)
    assert i3["stages"][0]["skipped"] is False and calls == [1, 1]
    assert df1.equals(_sorted(t3))

    # threshold is not a labeled param: the tail reruns on the parquet
    # and matches a streaming run at that threshold
    t4, i4 = run_kg_pipeline(*args, checkpoint_dir=ckpt, threshold=0.6)
    assert i4["stages"][0]["skipped"] is True and calls == [1, 1]
    monkeypatch.setattr(kg, "_labeled_chain", chain)
    t5, i5 = run_kg_pipeline(*args, threshold=0.6)
    assert i5["stages"] == []
    assert _sorted(t4).equals(_sorted(t5))


def test_pool_form_runs_lfs_and_linking_as_pools(ray_session, kb, monkeypatch):
    """``concurrency`` reaches both the LF stage and the linking stage
    of the flagship as actor pools, and the triples equal the default
    (elastic-task) run's."""
    from ray.data import Dataset

    seen = []
    orig = Dataset.map_batches

    def spy(self, fn, *a, **kw):
        build = (kw.get("fn_constructor_args") or (None,))[0]
        seen.append((getattr(build, "__qualname__", ""), kw.get("concurrency")))
        return orig(self, fn, *a, **kw)

    monkeypatch.setattr(Dataset, "map_batches", spy)
    args = (pages_dataset(120, SEED), alias_table(kb), kb["facts"])
    base, _ = run_kg_pipeline(*args)
    assert all(c is None for _, c in seen), seen
    seen.clear()
    pooled, _ = run_kg_pipeline(*args, concurrency=(1, 1))
    pools = {q.split(".")[0]: c for q, c in seen if c is not None}
    assert pools == {"apply_lfs": (1, 1), "link_candidates": (1, 1)}, seen
    pd.testing.assert_frame_equal(pooled.to_pandas(), base.to_pandas())


def test_mentions_and_linking(ray_session, kb):
    import ray

    from snorkel_ray.stages.extract import extract_docs
    from snorkel_ray.stages.linking import link_mentions
    from snorkel_ray.stages.mentions import detect_mentions
    from snorkel_ray.stages.sentences import split_docs_to_sentences

    pages = pages_dataset(60, SEED)
    alias_ref = ray.put(alias_table(kb))
    sents = split_docs_to_sentences(extract_docs(pages))
    mentions = detect_mentions(sents, alias_ref)
    linked = link_mentions(mentions, alias_ref)
    df = linked.to_pandas()
    assert len(df) > 50
    # every dictionary mention must link (dict-driven detection)
    assert (df["qid"] != "").all()
    # spans are offset-exact against their sentence text
    s_df = sents.to_pandas().set_index(["url", "sent_idx"])
    for _, r in df.head(100).iterrows():
        sent_text = s_df.loc[(r["url"], r["sent_idx"])]["text"]
        assert sent_text[r["char_start"]:r["char_end"]] == r["text"]


def test_linker_collision_tiebreak(ray_session, kb):
    from snorkel_ray.stages.linking import build_link_index

    idx = build_link_index(alias_table(kb))
    # "Springfield" collides (place owns it, org has prior 0.2)
    qid, prior = idx["springfield"]
    place_qid = next(e["qid"] for e in kb["entities"]
                     if e["type"] == "place" and e["name"] == "Springfield")
    assert qid == place_qid and prior == 1.0


def test_canonicalize_connected_components(ray_session):
    import ray.data as rd

    from snorkel_ray.stages.canonicalize import canonical_entity_map

    rows = [
        {"entity_key": "acme corp", "qid": "Q1"},
        {"entity_key": "acme corporation", "qid": "Q1"},
        {"entity_key": "acme", "qid": "Q1"},
        {"entity_key": "globex", "qid": "Q2"},
        {"entity_key": "unlinked thing", "qid": ""},
    ]
    ds = rd.from_items(rows)
    out = canonical_entity_map(ds).to_pandas().set_index("entity_key")["canonical_id"]
    assert out["acme corp"] == out["acme corporation"] == out["acme"] == "Q1"
    assert out["globex"] == "Q2"
    assert "unlinked thing" not in out.index  # unlinked stay out of the map


def test_canonicalize_and_diagnostics_modes(ray_session, kb):
    triples, info = run_kg_pipeline(pages_dataset(120, SEED), alias_table(kb),
                                    kb["facts"], canonicalize=True,
                                    diagnostics=True)
    got = pa.Table.from_pandas(triples.to_pandas())
    res = evaluate_triples(got, expected_triples(120, SEED))
    assert res["precision"] >= 0.95 and res["recall"] >= 0.95
    assert info["coverage"]["coverage"] > 0.9
    names = [r["lf_name"] for r in info["lf_stats"]]
    assert "lf_trigger" in names and "lf_negation" in names


def test_fused_candidates_parity(ray_session, monkeypatch):
    """extract_candidates_fused(docs) must emit exactly the rows of
    extract_candidates(split_docs_to_sentences(docs)), in the same
    order — the fused path skips the intermediate Arrow sentence
    columns, nothing else (order included: the triple partials break
    witness ties by arrival order)."""
    from ray.data import DataContext

    from snorkel_ray.stages.candidates import extract_candidates, \
        extract_candidates_fused
    from snorkel_ray.stages.extract import extract_docs
    from snorkel_ray.stages.sentences import split_docs_to_sentences
    from snorkel_ray.synth import alias_table, build_kb, pages_dataset

    monkeypatch.setattr(DataContext.get_current().execution_options, "preserve_order", True)
    kb = build_kb(42)
    at = alias_table(kb)
    docs = extract_docs(pages_dataset(120, 42)).materialize()

    via_sentences = extract_candidates(split_docs_to_sentences(docs), at).to_pandas()
    fused = extract_candidates_fused(docs, at).to_pandas()
    assert len(fused) == len(via_sentences) > 0
    pd.testing.assert_frame_equal(fused, via_sentences)


def test_cc_distributed_path_matches_union_find(ray_session):
    """Both connected-components regimes (driver union-find below the
    threshold, distributed label propagation above) must label chains
    identically."""
    import ray.data as rd

    from snorkel_ray.stages.canonicalize import connected_components

    edges = [{"src": f"n{i}", "dst": f"n{i+1}"} for i in range(6)] + \
        [{"src": "x1", "dst": "x2"}, {"src": "z9", "dst": "z8"}]
    ds = rd.from_items(edges).repartition(3)
    small = connected_components(ds).to_pandas().set_index("node")["label"]
    dist = connected_components(ds, driver_threshold=0, max_iter=6) \
        .to_pandas().set_index("node")["label"]
    for n in small.index:
        assert small[n] == dist[n], n
    assert small["n6"] == "n0" and small["x2"] == "x1" and small["z8"] == "z8"


def test_giant_page_routing_preserves_output(ray_session, kb):
    """giant_page_bytes routes oversized pages through single-row
    batches; the triple set must be identical to the unrouted run."""
    base, _ = run_kg_pipeline(pages_dataset(150, SEED), alias_table(kb),
                              kb["facts"])
    routed, _ = run_kg_pipeline(pages_dataset(150, SEED), alias_table(kb),
                                kb["facts"], giant_page_bytes=600)
    a = base.to_pandas().sort_values(["subj_qid", "pred", "obj_qid"]) \
        .reset_index(drop=True)
    b = routed.to_pandas().sort_values(["subj_qid", "pred", "obj_qid"]) \
        .reset_index(drop=True)
    assert len(a) == len(b) > 0
    assert a[["subj_qid", "pred", "obj_qid"]].equals(
        b[["subj_qid", "pred", "obj_qid"]])


def test_default_path_pins_no_row_level_table(ray_session, kb, monkeypatch):
    """The default path fits, scores and dedups on (triple,
    vote-pattern) partials: every Dataset it materialize()s is the
    partials or the combined triples, never a row-level labeled or
    linked table.  The deprecated fit_sample_rows changes nothing."""
    from ray.data import Dataset

    from snorkel_ray.schemas import TRIPLES
    from snorkel_ray.stages.materialize import _PART_COLS

    pinned: list[list[str]] = []
    orig = Dataset.materialize

    def spy(self, *a, **kw):
        out = orig(self, *a, **kw)
        pinned.append(sorted(out.schema().names))
        return out

    monkeypatch.setattr(Dataset, "materialize", spy)
    triples, info = run_kg_pipeline(pages_dataset(120, SEED), alias_table(kb),
                                    kb["facts"])
    got = triples.to_pandas()
    parts, combined = sorted(_PART_COLS + ["n"]), sorted(TRIPLES.names)
    assert parts in pinned, pinned
    for cols in pinned:
        assert cols in (parts, combined), f"pinned a row-level table: {cols}"
    model = info["model"]
    assert model["patterns"] >= 1 and model["rows"] > len(got) > 0

    with pytest.warns(DeprecationWarning, match="fit_sample_rows"):
        again, _ = run_kg_pipeline(pages_dataset(120, SEED), alias_table(kb),
                                   kb["facts"], fit_sample_rows=10)
    pd.testing.assert_frame_equal(again.to_pandas(), got)


def test_cc_distributed_long_chain_converges(ray_session):
    """Round-2 ADVICE item 3: the distributed CC used a fixed 4 rounds
    of one-hop propagation and silently split components with diameter
    > 4. Pointer jumping + the changed-count exit must label a
    41-node path (diameter 40) exactly, in O(log d) rounds."""
    import pandas as pd
    import ray.data as rd

    from snorkel_ray.stages.canonicalize import (connected_components,
                                                 union_find_labels)

    nodes = [f"n{i:03d}" for i in range(41)]
    edf = pd.DataFrame({"src": nodes[:-1], "dst": nodes[1:]})
    dist = (connected_components(rd.from_pandas(edf).repartition(3),
                                 driver_threshold=0)
            .to_pandas().set_index("node")["label"].to_dict())
    exact = union_find_labels(edf, "src", "dst") \
        .set_index("node")["label"].to_dict()
    assert dist == exact
    assert all(v == "n000" for v in dist.values())


def test_checkpoint_invalidates_on_kb_change(ray_session, tmp_path):
    """Round-4 review: the labeled checkpoint fingerprints the alias
    table and facts KB — editing either must recompute, not silently
    serve stale parquet."""
    from snorkel_ray.pipelines.kg import run_kg_pipeline
    from snorkel_ray.synth import alias_table, build_kb, pages_dataset

    kb = build_kb(42)
    root = str(tmp_path / "cp")
    _, info1 = run_kg_pipeline(pages_dataset(120, 42), alias_table(kb),
                               kb["facts"], checkpoint_dir=root)
    assert all(not s["skipped"] for s in info1["stages"])

    # unchanged rerun skips everything
    _, info2 = run_kg_pipeline(pages_dataset(120, 42), alias_table(kb),
                               kb["facts"], checkpoint_dir=root)
    assert all(s["skipped"] for s in info2["stages"])

    # a fact edit invalidates the labeled stage
    facts2 = list(kb["facts"]) + [("Qx", "born_in", "Qy")]
    _, info3 = run_kg_pipeline(pages_dataset(120, 42), alias_table(kb),
                               facts2, checkpoint_dir=root)
    assert all(not s["skipped"] for s in info3["stages"])


def test_linker_null_keys(ray_session):
    """Null entity keys must link to '' (unlinked), not wrap to the
    batch's last factorized key (round-4 review)."""
    import ray

    from snorkel_ray.stages.linking import LinkerActor
    from snorkel_ray.synth import alias_table, build_kb

    linker = LinkerActor(ray.put(alias_table(build_kb(42))))
    real_key = None
    for k in linker.index:
        real_key = k
        break
    qids, _ = linker.link_keys([real_key, None, real_key])
    assert qids[0] != "" and qids[1] == "" and qids[2] == qids[0]
    assert linker.link_keys([None, None])[0] == ["", ""]


_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KG_GOLDEN = os.path.join(_ROOT, "tests", "golden", "kg_pipeline_sf0.01.json")


def test_kg_pipeline_contract_matches_golden(ray_session):
    """The flagship contract query (``q_kg_pipeline_sf`` at sf0.01: 90
    triples, all-ASCII docs, ``cooccur_pred="near"``) gives the frozen
    triples under the driver gate's strict stringified value hash
    (``scripts/check_contract.py``'s ``canon`` + ``value_hash``)."""
    sys.path[:0] = [_ROOT, os.path.join(_ROOT, "scripts")]
    try:
        import __ray_entry__ as entry
        from check_contract import canon, to_df, value_hash
    finally:
        del sys.path[:2]

    with open(KG_GOLDEN) as f:
        golden = json.load(f)
    df = canon(to_df(entry.q_kg_pipeline_sf("/root/testdata/sf0.01")))
    assert {c: str(t) for c, t in df.dtypes.items()} == golden["dtypes"]
    assert {c: df[c].astype(str).tolist() for c in df.columns} == golden["columns"]
    assert len(df) == golden["rows"] == 90
    assert value_hash(df) == golden["value_hash"]
