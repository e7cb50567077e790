"""Distributed vs driver-side materialize paths + lf_stats + LSH pairs."""

import numpy as np
import pyarrow as pa
import pytest


def _linked_ds(ray_session):
    import ray.data as rd

    rows = []
    rng = np.random.default_rng(3)
    for i in range(400):
        k = i % 25
        rows.append({
            "pred": "rel", "subj_text": f"S{k}", "obj_text": f"O{k}",
            "subj_qid": f"Q{k}", "obj_qid": f"R{k}",
            "p": float(rng.uniform(0.3, 1.0)),
            "url": f"u{i}", "sent_stable_id": f"s{i}",
        })
    return rd.from_items(rows).repartition(8)


def _final_dedup_on(monkeypatch, driver: bool) -> None:
    """Force ``materialize_triples``' final dedup onto the driver path
    or the distributed path, whatever the row count."""
    from snorkel_ray.stages import materialize

    monkeypatch.setattr(materialize, "_DRIVER_DEDUP_ROWS", 10**12 if driver else -1)


def test_small_and_distributed_dedup_agree(ray_session, monkeypatch):
    from snorkel_ray.stages.materialize import materialize_triples

    ds = _linked_ds(ray_session)

    _final_dedup_on(monkeypatch, driver=True)
    small = materialize_triples(ds.map_batches(_rename, batch_format="pyarrow"),
                                threshold=0.5).to_pandas()
    _final_dedup_on(monkeypatch, driver=False)
    dist = materialize_triples(ds.map_batches(_rename, batch_format="pyarrow"),
                               threshold=0.5).to_pandas()
    small_s = small.sort_values(["subj_qid", "pred", "obj_qid"]).reset_index(drop=True)
    dist_s = dist.sort_values(["subj_qid", "pred", "obj_qid"]).reset_index(drop=True)
    assert small_s[["subj_qid", "pred", "obj_qid", "p"]].equals(
        dist_s[["subj_qid", "pred", "obj_qid", "p"]])
    # exactly one row per key, max p kept
    assert small_s.groupby(["subj_qid", "pred", "obj_qid"]).size().max() == 1


def test_materialize_auto_switch(ray_session, monkeypatch):
    """The final dedup routes on the combined partial count: the
    default ``_DRIVER_DEDUP_ROWS`` → driver path, a count above it →
    distributed path, identical output either way (round-2 verdict
    item 2)."""
    from snorkel_ray.stages import materialize

    ds = _linked_ds(ray_session)
    calls = []
    dist_plan = materialize._dedup_distributed
    monkeypatch.setattr(materialize, "_dedup_distributed",
                        lambda *a: calls.append(1) or dist_plan(*a))

    def run():
        out = materialize.materialize_triples(
            ds.map_batches(_rename, batch_format="pyarrow"),
            threshold=0.5).to_pandas()
        return out.sort_values(["subj_qid", "pred", "obj_qid"]) \
            .reset_index(drop=True)

    auto_small = run()  # count << 5M → driver path
    assert calls == []
    monkeypatch.setattr(materialize, "_DRIVER_DEDUP_ROWS", 1)
    auto_dist = run()  # count > 1 → distributed path
    assert calls == [1]
    cols = ["subj_qid", "pred", "obj_qid", "p", "url", "sent_stable_id"]
    assert auto_small[cols].equals(auto_dist[cols])
    assert auto_small.groupby(["subj_qid", "pred", "obj_qid"]).size().max() == 1


def _rename(b: pa.Table) -> pa.Table:
    # materialize_triples projects from candidate-style columns
    return pa.table({
        "pred": b.column("pred"),
        "subj_text": b.column("subj_text"),
        "obj_text": b.column("obj_text"),
        "subj_qid": b.column("subj_qid"),
        "obj_qid": b.column("obj_qid"),
        "p": b.column("p"),
        "url": b.column("url"),
        "sent_stable_id": b.column("sent_stable_id"),
    })


def test_lf_stats(ray_session):
    import ray.data as rd

    from snorkel_ray.stages.label_model import lf_stats

    rows = [
        {"cand_stable_id": "a", "L": [1, -1, 0]},
        {"cand_stable_id": "b", "L": [1, 0, 0]},
        {"cand_stable_id": "c", "L": [0, 0, 0]},
        {"cand_stable_id": "d", "L": [-1, -1, 0]},
    ]
    out = lf_stats(rd.from_items(rows), ["lf_a", "lf_b", "lf_c"])
    df = out.to_pandas().set_index("lf_name")
    cov = dict(zip(df.index, df["coverage"]))
    assert abs(cov["lf_a"] - 0.75) < 1e-9
    assert abs(cov["lf_b"] - 0.5) < 1e-9
    assert cov["lf_c"] == 0.0
    conf = dict(zip(df.index, df["conflict"]))
    assert abs(conf["lf_a"] - 0.25) < 1e-9  # row 'a' has both signs


def test_lsh_bucket_pairs_standalone(ray_session):
    import ray.data as rd

    from snorkel_ray.stages.dedup import lsh_bucket_pairs, minhash_signatures

    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa " * 3)
    rows = [{"doc_id": 1, "text": base}, {"doc_id": 2, "text": base},
            {"doc_id": 3, "text": "totally different words entirely here now"}]
    sigs = minhash_signatures(rd.from_items(rows), "text", "doc_id",
                              num_perm=32, shingle_k=3)
    pairs = lsh_bucket_pairs(sigs, "doc_id", bands=8).to_pandas()
    got = {tuple(sorted((a, b))) for a, b in zip(pairs["a"], pairs["b"])}
    assert (1, 2) in got
    assert not any(3 in p for p in got)
    # dedup=True must not emit duplicate pairs
    assert len(pairs) == len(pairs.drop_duplicates(["a", "b"]))


def test_unlinked_triples_do_not_collapse(ray_session, monkeypatch):
    """Round-4 review: distinct facts whose entities are all unlinked
    (qid '') used to collapse under the shared ('', pred, '') dedup
    key — the small and distributed paths must both keep them apart,
    keyed by surface text."""
    import pandas as pd
    import ray.data as rd

    from snorkel_ray.stages.materialize import materialize_triples

    rows = pd.DataFrame({
        "subj_text": ["Alice", "Bob", "Alice"],
        "pred": ["born_in"] * 3,
        "obj_text": ["Paris", "Tokyo", "Paris"],
        "subj_qid": [""] * 3,
        "obj_qid": [""] * 3,
        "p": [0.9, 0.8, 0.7],
        "url": ["u1", "u2", "u3"],
        "sent_stable_id": ["s1", "s2", "s3"],
    })
    ds = rd.from_pandas(rows).repartition(2)
    for driver in (True, False):
        _final_dedup_on(monkeypatch, driver)
        out = (materialize_triples(ds, threshold=0.5)
               .to_pandas().sort_values(["subj", "obj"]).reset_index(drop=True))
        assert len(out) == 2, (driver, out)
        assert out.subj.tolist() == ["Alice", "Bob"]
        # max-p witness survives for the duplicated fact
        assert out[out.subj == "Alice"].url.tolist() == ["u1"]


def test_distributed_dedup_matches_small_path(ray_session, monkeypatch):
    """The vectorized Min-aggregate distributed plan must emit exactly
    the driver-merge plan's rows (values AND deterministic order)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from snorkel_ray.stages.materialize import materialize_triples

    rng = np.random.default_rng(4)
    n = 300
    rows = pd.DataFrame({
        "subj_text": [f"e{i % 40}" for i in range(n)],
        "pred": [("likes", "knows")[i % 2] for i in range(n)],
        "obj_text": [f"e{(i * 7) % 23}" for i in range(n)],
        "subj_qid": [f"Q{i % 40}" for i in range(n)],
        "obj_qid": [f"Q{(i * 7) % 23}" for i in range(n)],
        "p": rng.uniform(0.4, 1.0, n).round(3),
        "url": [f"u{i % 9}" for i in range(n)],
        "sent_stable_id": [f"s{i}" for i in range(n)],
    })
    ds = rd.from_pandas(rows).repartition(5)
    _final_dedup_on(monkeypatch, driver=True)
    small = materialize_triples(ds, threshold=0.5).to_pandas()
    _final_dedup_on(monkeypatch, driver=False)
    dist = materialize_triples(ds, threshold=0.5).to_pandas()
    pd.testing.assert_frame_equal(small.reset_index(drop=True),
                                  dist.reset_index(drop=True))


def _labeled_blocks(n_blocks=5, rows=600, K=8, seed=11):
    """Labeled candidate blocks (pre-linking) drawn from a true
    8-LF model with 0.95 accuracy, so high-agreement vote patterns
    saturate to the same float32 p.  10 entities in two surface forms
    each, 3 of them missing from the alias table (unlinked ``t:``
    keys); ``pred == ""`` rows; few (url, sent) slots, so one triple
    has many witnesses in one sentence.  A url lives in one block, as
    a page does in the flagship.  A last hand-made block holds an
    arrival-order tie."""
    from snorkel_ray.functions.ids import normalize_entity_key

    rng = np.random.default_rng(seed)
    names = [f"Entity {c}" for c in "ABCDEFGHIJ"]
    blocks = []
    for b in range(n_blocks):
        y = rng.choice([-1, 1], rows)
        fires = rng.random((rows, K)) < 0.7
        right = rng.random((rows, K)) < 0.95
        L = np.where(fires, np.where(right, y[:, None], -y[:, None]), 0)
        text = {}
        for side in ("subj", "obj"):
            idx, upper = rng.integers(10, size=rows), rng.random(rows) < 0.5
            text[side] = [names[i].upper() if u else names[i]
                          for i, u in zip(idx, upper)]
        blocks.append(pa.table({
            "subj_text": text["subj"], "obj_text": text["obj"],
            "subj_key": [normalize_entity_key(t) for t in text["subj"]],
            "obj_key": [normalize_entity_key(t) for t in text["obj"]],
            "pred": rng.choice(["born_in", "works_for", ""], rows,
                               p=[0.45, 0.45, 0.1]).tolist(),
            "url": [f"b{b}u{i}" for i in rng.integers(8, size=rows)],
            "sent_stable_id": [f"s{i}" for i in rng.integers(3, size=rows)],
            "L": pa.array([list(r) for r in L.astype(np.int8)],
                          pa.list_(pa.int8())),
        }))
    # one triple whose best witness is decided by arrival order alone:
    # two saturated patterns, and the min (url, sent) in both of them
    # (rows 3 and 4) arrives after the other pattern's first row
    sat, sat2 = [1] * K, [1] * (K - 1) + [0]
    blocks.append(pa.table({
        "subj_text": ["Entity A", "Entity A", "ENTITY A", "Entity A"],
        "obj_text": ["Entity B"] * 4,
        "subj_key": ["entity a"] * 4, "obj_key": ["entity b"] * 4,
        "pred": ["born_in"] * 4,
        "url": ["a/u9", "a/u9", "a/u0", "a/u0"],
        "sent_stable_id": ["s0"] * 4,
        "L": pa.array([sat2, sat, sat, sat2], pa.list_(pa.int8())),
    }))
    alias = pa.table({"alias": names[:7],
                      "entity_qid": [f"Q{i}" for i in range(7)],
                      "prior": pa.array([1.0] * 7, pa.float32())})
    return blocks, alias


def _ipc_bytes(ds) -> bytes:
    import ray

    t = pa.concat_tables(ray.get(ds.to_arrow_refs())).combine_chunks()
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


@pytest.mark.parametrize("driver", [True, False])
def test_triples_tail_equals_row_level_plan(ray_session, monkeypatch, driver):
    """kg._triples (link → (triple, vote-pattern) partials → fit on
    their n-weighted counts → score the partials → best witness) must
    give byte-identical triples to the row-level plan: fit on every
    labeled row, score every row, link, materialize — on either final
    dedup path."""
    import ray
    import ray.data as rd

    from snorkel_ray.pipelines import kg
    from snorkel_ray.stages.label_model import (fit_label_model, pattern_counts,
                                                score_marginals)
    from snorkel_ray.stages.materialize import (_dedup_keys, link_candidates,
                                                materialize_triples)

    _final_dedup_on(monkeypatch, driver)
    blocks, alias = _labeled_blocks()
    labeled = rd.from_arrow(blocks)
    ref_model = fit_label_model(pattern_counts(labeled))
    linked = link_candidates(score_marginals(labeled, ref_model), alias).materialize()
    ref = materialize_triples(linked, threshold=0.5)

    # the data holds every case the tail has to get right
    lt = pa.concat_tables(ray.get(linked.to_arrow_refs()))
    df = lt.to_pandas()
    dk = _dedup_keys(lt, "subj_text", "obj_text")
    df["_dk_subj"], df["_dk_obj"] = dk["_dk_subj"].to_pylist(), dk["_dk_obj"].to_pylist()
    df = df[df["pred"] != ""]
    df["pat"] = df["L"].map(lambda v: bytes(np.asarray(v, np.int8) + 1))
    assert df.loc[df["p"] == np.float32(1.0), "pat"].nunique() >= 2  # p ties
    assert (df["subj_qid"] == "").any() and df["_dk_subj"].str.startswith("t:").any()
    wit = df[df["p"] >= 0.5].groupby(["_dk_subj", "pred", "_dk_obj", "p", "url",
                                       "sent_stable_id"])["subj_text"].nunique()
    assert (wit > 1).any()  # tied witnesses that differ in the output
    won = ref.to_pandas().query("url == 'a/u0'")
    assert won["subj"].tolist() == ["ENTITY A"] and won["p"].tolist() == [1.0]

    got, model, parts = kg._triples(link_candidates(labeled, alias), 0.5)
    assert _ipc_bytes(got) == _ipc_bytes(ref)
    assert np.array_equal(model["theta"], ref_model["theta"])
    assert model["pi"] == ref_model["pi"]
    assert model["rows"] == sum(b.num_rows for b in blocks) > parts.count()
    assert model["patterns"] >= 20


@pytest.mark.parametrize("n_blocks", [1, 3])
def test_witness_is_independent_of_blocking(ray_session, monkeypatch, n_blocks):
    """At equal p the witness is the min (url, sent_stable_id) TUPLE on
    both final dedup paths, however the rows are blocked — also when a
    url or sentence id holds a control character that sorts below the
    old ``\\x1f`` key separator."""
    import pandas as pd
    import ray.data as rd

    from snorkel_ray.stages.materialize import materialize_triples

    def row(k, url, sent):
        return {"subj_text": f"S{k}", "pred": "rel", "obj_text": f"O{k}",
                "subj_qid": f"Q{k}", "obj_qid": f"R{k}", "p": 0.9,
                "url": url, "sent_stable_id": sent}

    # per triple: (the tuple-min witness, a rival), rivals blocked first
    pairs = [(row(0, "a", "s"), row(0, "a\x05", "s")),
             (row(1, "b", "s"), row(1, "b", "s\x01")),
             (row(2, "c", "s\x02"), row(2, "c\x1e", "s"))]
    want = pd.DataFrame([w for w, _ in pairs])[["url", "sent_stable_id"]]
    rivals = pa.Table.from_pylist([r for _, r in pairs])
    winners = pa.Table.from_pylist([w for w, _ in pairs])
    tables = ([pa.concat_tables([rivals, winners])] if n_blocks == 1 else
              [rivals, winners.slice(0, 2), winners.slice(2)])
    for driver in (True, False):
        _final_dedup_on(monkeypatch, driver)
        out = materialize_triples(rd.from_arrow(tables), threshold=0.5).to_pandas()
        pd.testing.assert_frame_equal(
            out[["url", "sent_stable_id"]].reset_index(drop=True), want,
            obj=f"witness (driver={driver}, blocks={n_blocks})")


def test_nul_in_text_keeps_triples_apart_in_partials():
    """Two unlinked triples whose subject text differs only after a NUL
    (the extractor keeps a NUL of the page) are two partials, not one;
    pandas' factorize once read both as "Acme"."""
    from snorkel_ray.stages.materialize import _partials_batch

    batch = pa.table({
        "subj_text": ["Acme\x00 Corp", "Acme", "Acme\x00 Corp"],
        "pred": ["founded_by"] * 3, "obj_text": ["Bob"] * 3,
        "subj_qid": [""] * 3, "obj_qid": ["Q1"] * 3,
        "url": ["u2", "u1", "u3"], "sent_stable_id": ["s"] * 3,
        "L": pa.array([[1, 0]] * 3, pa.list_(pa.int8())),
    })
    out = _partials_batch(batch)
    assert out.column("subj_text").to_pylist() == ["Acme\x00 Corp", "Acme"]
    assert out.column("n").to_pylist() == [2, 1]
    assert out.column("url").to_pylist() == ["u2", "u1"]


@pytest.mark.parametrize("rival_first", [True, False])
def test_nul_in_text_keeps_triples_apart_on_the_driver(ray_session, monkeypatch, rival_first):
    """The driver's final dedup keeps two unlinked triples that differ
    only after a NUL apart, and picks the min-url witness of a tie
    whatever the arrival order when the urls differ only after a NUL."""
    import ray.data as rd

    from snorkel_ray.stages.materialize import materialize_triples

    def row(subj, url):
        return {"subj_text": subj, "pred": "rel", "obj_text": "O", "subj_qid": "",
                "obj_qid": "R", "p": 0.9, "url": url, "sent_stable_id": "s"}

    rows = [row("Acme\x00 Corp", "u\x00b"), row("Acme", "u"), row("Acme\x00 Corp", "u")]
    if not rival_first:
        rows = rows[::-1]
    _final_dedup_on(monkeypatch, True)
    out = materialize_triples(rd.from_arrow([pa.Table.from_pylist([r]) for r in rows]),
                              threshold=0.5).take_all()
    assert [r["subj"] for r in out] == ["Acme", "Acme\x00 Corp"]
    assert [r["url"] for r in out] == ["u", "u"]


def test_separator_in_text_keeps_triples_apart(ray_session, monkeypatch):
    """Two unlinked triples whose surface texts, joined with a "\\x1f"
    separator, spell the same string are two triples on both final
    dedup paths (the distributed key once joined its fields with
    "\\x1f" and kept one of them)."""
    import ray.data as rd

    from snorkel_ray.stages.materialize import materialize_triples

    def row(subj, obj):
        return {"subj_text": subj, "pred": "rel", "obj_text": obj, "subj_qid": "",
                "obj_qid": "", "p": 0.9, "url": "u", "sent_stable_id": "s"}

    ds = rd.from_arrow(pa.Table.from_pylist(
        [row("a\x1frel\x1ft:b", "c"), row("a", "b\x1frel\x1ft:c"),
         row("a\x00", "b"), row("a", "\x00b")]))
    for driver in (True, False):
        _final_dedup_on(monkeypatch, driver)
        out = materialize_triples(ds, threshold=0.5).take_all()
        assert sorted((r["subj"], r["obj"]) for r in out) == [
            ("a", "\x00b"), ("a", "b\x1frel\x1ft:c"), ("a\x00", "b"),
            ("a\x1frel\x1ft:b", "c")], driver


def test_triples_tail_runs_no_ray_data_job_after_the_pin(ray_session, monkeypatch):
    """Once ``kg._triples`` has pinned the partials, the counts, the
    scoring and the per-block witness pick are plain tasks: no
    streaming executor starts.  Forcing the distributed final dedup
    (``_DRIVER_DEDUP_ROWS = 0``) gives the same triples, byte for
    byte."""
    import ray.data as rd
    from ray.data._internal.plan import ExecutionPlan

    from snorkel_ray.pipelines import kg
    from snorkel_ray.stages import materialize

    executors, pins = [], []
    create = ExecutionPlan.create_executor
    monkeypatch.setattr(ExecutionPlan, "create_executor",
                        lambda self: executors.append(self) or create(self))
    pin = rd.Dataset.materialize

    def spy(self):
        out = pin(self)
        pins.append(len(executors))
        return out

    monkeypatch.setattr(rd.Dataset, "materialize", spy)
    blocks, alias = _labeled_blocks()
    got, _, parts = kg._triples(materialize.link_candidates(rd.from_arrow(blocks), alias), 0.5)
    assert pins == [len(executors)] and parts.num_blocks() > 1
    want = _ipc_bytes(got)

    calls = []
    dedup = materialize._dedup_distributed
    monkeypatch.setattr(materialize, "_dedup_distributed",
                        lambda *a: calls.append(1) or dedup(*a))
    monkeypatch.setattr(materialize, "_DRIVER_DEDUP_ROWS", 0)
    dist, _, _ = kg._triples(materialize.link_candidates(rd.from_arrow(blocks), alias), 0.5)
    assert calls == [1] and _ipc_bytes(dist) == want


@pytest.mark.parametrize("driver", [True, False])
def test_empty_triples_keep_the_schema(ray_session, monkeypatch, driver):
    """A tail that keeps no triple returns an empty Dataset with the
    ``TRIPLES`` schema on either final dedup path."""
    import ray.data as rd

    from snorkel_ray.pipelines import kg
    from snorkel_ray.schemas import TRIPLES
    from snorkel_ray.stages.materialize import link_candidates

    _final_dedup_on(monkeypatch, driver)
    blocks, alias = _labeled_blocks(n_blocks=2, rows=50)
    got, _, _ = kg._triples(link_candidates(rd.from_arrow(blocks), alias), 1.5)
    assert got.count() == 0
    assert got.schema().base_schema == TRIPLES
