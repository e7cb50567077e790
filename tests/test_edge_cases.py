"""Edge-case hardening: empty corpora, empty dictionaries, all-filtered
inputs — a 100 TB run will contain every degenerate slice."""

import pyarrow as pa

from snorkel_ray.pipelines.kg import run_kg_pipeline
from snorkel_ray.synth import alias_table, build_kb, pages_dataset


def _empty_alias():
    return pa.table({"alias": pa.array([], pa.string()),
                     "entity_qid": pa.array([], pa.string()),
                     "prior": pa.array([], pa.float32())})


def test_empty_alias_dict(ray_session):
    kb = build_kb(42)
    triples, _ = run_kg_pipeline(pages_dataset(30, 42), _empty_alias(), kb["facts"])
    assert triples.count() == 0
    # schema-stable empty result (Ray's to_pandas drops columns for
    # empty datasets; the DATASET schema is the contract surface)
    assert {"subj", "pred", "obj", "subj_qid", "obj_qid", "p"} <= \
        set(triples.schema().names)


def test_all_pages_filtered_by_lang(ray_session):
    kb = build_kb(42)
    triples, _ = run_kg_pipeline(pages_dataset(30, 42), alias_table(kb),
                                 kb["facts"], lang="xx")  # matches nothing
    assert triples.count() == 0


def test_empty_corpus_with_checkpoint(ray_session, tmp_path):
    kb = build_kb(42)
    ckpt = str(tmp_path / "ckpt")
    t1, i1 = run_kg_pipeline(pages_dataset(30, 42), alias_table(kb), kb["facts"],
                             lang="xx", checkpoint_dir=ckpt)
    assert t1.count() == 0
    t2, i2 = run_kg_pipeline(pages_dataset(30, 42), alias_table(kb), kb["facts"],
                             lang="xx", checkpoint_dir=ckpt)
    assert t2.count() == 0
    assert all(s["skipped"] for s in i2["stages"])


def test_single_page_corpus(ray_session):
    kb = build_kb(42)
    triples, _ = run_kg_pipeline(pages_dataset(1, 42), alias_table(kb), kb["facts"])
    assert triples.count() >= 0  # must simply not crash


def test_unicode_heavy_pages(ray_session):
    import ray.data as rd

    from snorkel_ray.stages.extract import extract_docs
    from snorkel_ray.stages.sentences import split_docs_to_sentences

    pages = pa.table({
        "url": ["u1", "u2"],
        "warc_ts": pa.array([0, 1], pa.timestamp("us")),
        "html": ["<p>中文测试 émojis 🎉 ümlaut.</p>".encode(),
                 b"<p>\xff\xfe broken bytes</p>"],
        "text": ["", ""],
        "lang": ["en", "en"],
    })
    sents = split_docs_to_sentences(extract_docs(rd.from_arrow(pages))).to_pandas()
    assert len(sents) >= 1
    for _, r in sents.iterrows():
        for w, o in zip(r["words"], r["char_offsets"]):
            assert r["text"][o : o + len(w)] == w


def test_new_ops_empty_inputs(ray_session):
    """Round-2 operators must survive empty inputs (schema-stable, no
    crash): n-ary extraction, categorical pattern counts, apply_mapping,
    session pre-split, simhash pairs."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from snorkel_ray.functions.matchers import DictionaryMatch
    from snorkel_ray.stages.joins import apply_mapping
    from snorkel_ray.stages.label_model import (fit_label_model_cat,
                                                pattern_counts)
    from snorkel_ray.stages.nary import candidate_subclass, \
        extract_nary_candidates
    from snorkel_ray.stages.windows import session_windows

    empty_sents = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.uint64()), "url": pa.array([], pa.string()),
        "sent_idx": pa.array([], pa.int32()),
        "sent_stable_id": pa.array([], pa.string()),
        "abs_char_start": pa.array([], pa.int32()),
        "text": pa.array([], pa.string()),
        "words": pa.array([], pa.list_(pa.string())),
        "char_offsets": pa.array([], pa.list_(pa.int32())),
    }))
    cls = candidate_subclass("P", ["a", "b"])
    m = DictionaryMatch(["x"])
    assert extract_nary_candidates(empty_sents, cls, [m, m]).count() == 0

    empty_l = rd.from_arrow(pa.table({"L": pa.array([], pa.list_(pa.int8()))}))
    model = fit_label_model_cat(pattern_counts(empty_l), cardinality=3)
    assert model["theta"].shape[0] == 0

    base = rd.from_items([{"k": "a"}, {"k": "b"}])
    emap = pd.DataFrame({"key": [], "val": []})
    out = apply_mapping(base, emap, "k", "key", "val", "v").to_pandas()
    assert len(out) == 2 and out["v"].isna().all()

    empty_ev = rd.from_arrow(pa.table({
        "user_id": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us"))}))
    assert session_windows(empty_ev, pre_split_chunk="1D").count() == 0


def test_apply_mapping_shuffle_path_matches_broadcast(ray_session):
    """Force the hash-join regime (broadcast_limit=0) and compare with
    the broadcast regime — both must produce identical mappings,
    including default fills for missing keys."""
    import pandas as pd
    import ray.data as rd

    from snorkel_ray.stages.joins import apply_mapping

    ds = rd.from_items([{"k": f"k{i % 7}", "fallback": f"F{i}"}
                        for i in range(100)]).repartition(4)
    mapping = pd.DataFrame({"key": [f"k{i}" for i in range(5)],  # k5/k6 missing
                            "val": [f"V{i}" for i in range(5)]})

    def run(limit):
        out = apply_mapping(ds, mapping.copy(), "k", "key", "val", "v",
                            default_col="fallback",
                            broadcast_limit=limit).to_pandas()
        return out.sort_values(["k", "fallback"]).reset_index(drop=True)

    bcast = run(10_000)
    joined = run(0)
    assert len(bcast) == len(joined) == 100
    pd.testing.assert_frame_equal(bcast[["k", "v"]], joined[["k", "v"]])
    # missing keys fell back to the row's own column in both regimes
    assert (bcast.loc[bcast["k"].isin(["k5", "k6"]), "v"].str.startswith("F")).all()

    # a lookup: a NULL key is a key of its own in both plans
    import pyarrow as pa
    import ray

    nulls = rd.from_arrow(pa.table({"k": ["a", None, "b"], "i": [0, 1, 2]}))
    for limit in (10_000, 0):
        got = apply_mapping(nulls, pa.table({"key": ["a", None], "val": [10, 20]}),
                            "k", "key", "val", "v", broadcast_limit=limit)
        got = pa.concat_tables(ray.get(got.to_arrow_refs()))
        assert got.sort_by("i").column("v").to_pylist() == [10, 20, None], limit


def test_apply_mapping_shuffle_path_raises_on_duplicate_keys(ray_session):
    """Above ``broadcast_limit`` a duplicate mapping key raises, as the
    broadcast plan does, instead of multiplying the matching rows."""
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from snorkel_ray.stages.joins import apply_mapping

    ds = rd.from_arrow(pa.table({"k": ["a", "b", "c"]}))
    dup = pa.table({"key": ["a", "b", "a"], "val": [1, 2, 3]})
    for limit in (10_000, 0):
        with pytest.raises(ValueError, match="duplicate keys"):
            apply_mapping(ds, dup, "k", "key", "val", "v", broadcast_limit=limit).materialize()


def test_apply_mapping_keeps_int_values_above_2_53(ray_session):
    """An int64 value above 2^53 in a mapping that also maps a key to
    NULL comes out exact and int64 (a pandas lookup widened it to
    float64), with and without ``default_col``; a key absent from the
    mapping and a null key get NULL or the default."""
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from snorkel_ray.stages.joins import apply_mapping

    ds = rd.from_arrow(pa.table({"k": ["a", "b", "c", None],
                                 "d": pa.array([1, 2, 3, 4], pa.int64())}))
    mapping = pa.table({"key": ["a", "b"], "val": pa.array([2**60 + 1, None], pa.int64())})
    for default, want in ((None, [2**60 + 1, None, None, None]),
                          ("d", [2**60 + 1, 2, 3, 4])):
        out = apply_mapping(ds, mapping, "k", "key", "val", "v", default_col=default)
        assert out.schema().base_schema.field("v").type == pa.int64()
        got = {r["k"]: r["v"] for r in out.take_all()}
        assert got == dict(zip(["a", "b", "c", None], want)), got
    # a null key takes the mapping's null key; a duplicate key raises
    out = apply_mapping(ds, pa.table({"key": ["a", None], "val": [1, 2]}), "k", "key", "val", "v")
    assert {r["k"]: r["v"] for r in out.take_all()} == {"a": 1, "b": None, "c": None, None: 2}
    with pytest.raises(ValueError, match="duplicate keys"):
        apply_mapping(ds, pa.table({"key": ["a", "a"], "val": [1, 2]}), "k", "key", "val", "v")


def test_asof_join_empty_right(ray_session):
    """No right rows at all: every left row survives with a null
    attachment (LEFT join semantics)."""
    import pandas as pd
    import ray.data as rd

    from snorkel_ray.stages.joins import asof_join

    base = pd.Timestamp("2024-01-01")
    left = rd.from_pandas(pd.DataFrame({
        "id": [1, 2], "k": ["a", "b"], "ts": [base, base]}))
    right = rd.from_pandas(pd.DataFrame({
        "k": pd.array([], dtype="str"),
        "ts": pd.array([], dtype="datetime64[ns]"),
        "px": pd.array([], dtype="float64")}))
    out = asof_join(left, right, "k", "ts", ["px"]).to_pandas()
    assert len(out) == 2
    assert out["px"].isna().all()


def test_carry_plan_empty_inputs(ray_session):
    """The chunked carry plan with no (key, chunk) group at all, and
    with an empty right side: no error, LEFT join semantics kept."""
    import pandas as pd
    import ray.data as rd

    from snorkel_ray.stages.joins import asof_join
    from snorkel_ray.stages.windows import cumulative_sum

    none = pd.DataFrame({"k": pd.array([], dtype="str"),
                         "ts": pd.array([], dtype="datetime64[ns]"),
                         "px": pd.array([], dtype="float64")})
    assert len(cumulative_sum(rd.from_pandas(none), key="k", value="px",
                              pre_split_chunk="1D").to_pandas()) == 0
    empty = rd.from_pandas(none)
    assert len(asof_join(rd.from_pandas(none[["k", "ts"]]), empty, "k", "ts",
                         ["px"], pre_split_chunk="1D").to_pandas()) == 0
    left = rd.from_pandas(pd.DataFrame({
        "id": [1, 2], "k": ["a", "b"],
        "ts": pd.to_datetime(["2024-01-01", "2024-01-03"])}))
    for direction in ("backward", "forward"):
        out = asof_join(left, empty, "k", "ts", ["px"], direction=direction,
                        pre_split_chunk="1D").to_pandas()
        assert sorted(out["id"]) == [1, 2] and out["px"].isna().all()


def test_grouped_topk_k_exceeds_group(ray_session):
    import pandas as pd
    import ray.data as rd

    from snorkel_ray.stages.skew import grouped_topk

    df = pd.DataFrame({"g": ["x", "x", "y"], "v": [1, 2, 3],
                       "id": [0, 1, 2]})
    out = grouped_topk(rd.from_pandas(df), "g", ["v", "id"],
                       k=10).to_pandas()
    assert len(out) == 3  # k larger than any group: everything kept


def test_kll_empty_and_single(ray_session):
    import math

    from snorkel_ray.stages.sketches import KLL

    s = KLL(64)
    assert math.isnan(s.quantile(0.5))
    s.add_batch([42.0])
    assert s.quantile(0.0) == s.quantile(1.0) == 42.0
    merged = KLL(64).merge(s)
    assert merged.quantile(0.5) == 42.0 and merged.n == 1


def test_round4_third_review_guards(ray_session, tmp_path):
    """Regression batch for the third review pass."""
    import json
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pytest
    import ray.data as rd

    # 1. broadcast_key: two slices of one parent table must NOT collide
    from snorkel_ray.state.resources import broadcast_key

    parent = pa.table({"k": list(range(100)), "v": ["x"] * 100})
    assert broadcast_key(parent.slice(0, 10)) != broadcast_key(parent.slice(0, 20))
    assert broadcast_key(parent.slice(0, 10)) == broadcast_key(parent.slice(0, 10))

    # 2. canonicalize: a surface key sorting before '!' still resolves
    # to the qid anchor
    from snorkel_ray.stages.canonicalize import canonical_entity_map

    m = (canonical_entity_map(rd.from_items([
        {"entity_key": " acme corp", "qid": "Q42"},
        {"entity_key": "acme", "qid": "Q42"},
    ])).to_pandas().set_index("entity_key").canonical_id)
    assert m[" acme corp"] == "Q42" and m["acme"] == "Q42"

    # 3. SpaceSaving merge: split heavy hitter survives via min-credit
    from snorkel_ray.stages.sketches import SpaceSaving

    a, b = SpaceSaving(2), SpaceSaving(2)
    for _ in range(6):
        a.update("hot")
    a.update("x"); a.update("x"); a.update("x")
    a.update("y")          # evicts -> a at capacity, min known
    for _ in range(6):
        b.update("hot")
    b.update("z"); b.update("z"); b.update("z")
    merged = a.merge(b)
    assert "hot" in merged.counts  # true count 12 must be present

    # 4. corrupt manifest -> recompute, not JSONDecodeError
    from snorkel_ray.state.checkpoint import _skip_or_build

    final = str(tmp_path / "ckpt" / "s1")

    def build():
        return rd.from_items([{"a": 1}, {"a": 2}])

    m = _skip_or_build(final, "fp1", build, {"stage": "s1"})
    assert m["rows"] == 2 and m["skipped"] is False
    mpath = f"{final}/_manifest.json"
    with open(mpath, "w") as f:
        f.write('{"fingerprint": "tru')  # truncated write
    m2 = _skip_or_build(final, "fp1", build, {"stage": "s1"})
    assert m2["skipped"] is False and m2["rows"] == 2  # recomputed
    assert json.load(open(mpath))["fingerprint"] == "fp1"
    assert rd.read_parquet(final).count() == 2
    assert _skip_or_build(final, "fp1", build, {"stage": "s1"})["skipped"] is True

    # 5. hash-shard fallback invalidates on input size change
    from snorkel_ray.state.sharded import run_sharded_stage

    def build(sds):
        return sds

    p1 = rd.from_pandas(pd.DataFrame({"doc_id": range(10),
                                      "url": [f"u{i}" for i in range(10)]}))
    root2 = str(tmp_path / "shards")
    _, m1 = run_sharded_stage(p1, root2, "st", build, num_shards=2)
    p2 = rd.from_pandas(pd.DataFrame({"doc_id": range(14),
                                      "url": [f"u{i}" for i in range(14)]}))
    _, m2 = run_sharded_stage(p2, root2, "st", build, num_shards=2)
    assert all(not m["skipped"] for m in m2)  # stale manifests rejected

    # 6. negative ids rejected by the hash sampler
    from snorkel_ray.stages.sampling import knuth_hash

    with pytest.raises(ValueError, match="negative"):
        knuth_hash(np.array([-5, 3], dtype=np.int64))
