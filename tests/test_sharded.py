"""Shard-level resume tests (north rule: per-partition lineage +
counters; FIXTURES.md F7 generalized to the shard dimension)."""

import json
import os
import shutil

import pyarrow as pa
import pytest

from snorkel_ray.state.sharded import _hash_shards, run_kg_pipeline_sharded
from snorkel_ray.synth import alias_table, build_kb, expected_triples, pages_dataset


def test_shard_partition_is_complete_and_disjoint(ray_session):
    pages = pages_dataset(100, 42)
    shards = _hash_shards(pages, "url", 4)
    urls = []
    for _, ds, _ in shards:
        urls.extend(ds.to_pandas()["url"].tolist())
    assert len(urls) == 100 and len(set(urls)) == 100


def test_sharded_pipeline_and_resume(ray_session, tmp_path):
    kb = build_kb(42)
    root = str(tmp_path / "sharded")
    args = (pages_dataset(150, 42), alias_table(kb), kb["facts"])

    t1, r1 = run_kg_pipeline_sharded(*args, root=root, num_shards=3)
    df1 = t1.to_pandas()
    assert all(not m["skipped"] for m in r1["shards"])
    # per-shard manifests carry lineage + counters
    for m in r1["shards"]:
        assert m["rows"] > 0 and m["wall_sec"] > 0 and m["rows_per_sec"] > 0
        mp = os.path.join(root, "labeled", f"shard={m['shard']}", "_manifest.json")
        assert json.load(open(mp))["fingerprint"] == m["fingerprint"]

    # full rerun: every shard skips, output identical
    t2, r2 = run_kg_pipeline_sharded(*args, root=root, num_shards=3)
    assert all(m["skipped"] for m in r2["shards"])
    assert t2.to_pandas().equals(df1)

    # kill-mid-run simulation: delete shard 1 and 2 -> only those rerun
    shutil.rmtree(os.path.join(root, "labeled", "shard=1"))
    shutil.rmtree(os.path.join(root, "labeled", "shard=2"))
    t3, r3 = run_kg_pipeline_sharded(*args, root=root, num_shards=3)
    flags = {m["shard"]: m["skipped"] for m in r3["shards"]}
    assert flags == {0: True, 1: False, 2: False}
    assert t3.to_pandas().equals(df1)

    # quality: the sharded path matches the planted goldens too
    got = set(zip(df1["subj_qid"], df1["pred"], df1["obj_qid"]))
    exp_t = expected_triples(150, 42)
    exp = set(zip(*(exp_t.column(c).to_pylist()
                    for c in ("subj_qid", "pred", "obj_qid"))))
    assert len(got & exp) / max(len(exp), 1) >= 0.95
    assert len(got & exp) / max(len(got), 1) >= 0.95


def test_triples_outdir_rerun_overwrites_not_appends(ray_session, tmp_path):
    """Round-1 ADVICE (high): write_parquet uses per-run unique
    filenames, so a naive second write to the same out_dir APPENDS a
    duplicate part-file set.  materialize_triples must replace."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from snorkel_ray.stages.materialize import materialize_triples

    rows = [{"pred": "rel", "subj_text": "S", "obj_text": "O",
             "subj_qid": f"Q{i % 5}", "obj_qid": f"R{i % 5}", "p": 0.9,
             "url": f"u{i}", "sent_stable_id": f"s{i}"} for i in range(50)]
    out_dir = str(tmp_path / "triples")
    for _ in range(2):
        materialize_triples(rd.from_items(rows), threshold=0.5, out_dir=out_dir)
    on_disk = pq.read_table(out_dir)
    assert on_disk.num_rows == 5  # 5 distinct triple keys, no duplicates


def test_sharded_recovers_from_manifestless_final_dir(ray_session, tmp_path):
    """Round-1 ADVICE (medium): a run killed between os.replace and the
    manifest write leaves shard=i without _manifest.json; the rerun must
    recompute it instead of crashing with ENOTEMPTY."""
    kb = build_kb(42)
    root = str(tmp_path / "sharded2")
    args = (pages_dataset(60, 42), alias_table(kb), kb["facts"])

    t1, _ = run_kg_pipeline_sharded(*args, root=root, num_shards=2)
    df1 = t1.to_pandas()
    # simulate the kill: drop the manifest but keep the data files
    os.remove(os.path.join(root, "labeled", "shard=0", "_manifest.json"))
    t2, r2 = run_kg_pipeline_sharded(*args, root=root, num_shards=2)
    flags = {m["shard"]: m["skipped"] for m in r2["shards"]}
    assert flags == {0: False, 1: True}
    assert t2.to_pandas().equals(df1)


def test_shard_fingerprint_tracks_file_group(ray_session, tmp_path):
    """Round-1 ADVICE (medium): with file-range sharding, changing the
    input file list shifts the round-robin assignment; manifests keyed
    only on (stage, idx, params) would silently skip stale shards."""
    import pyarrow.parquet as pq

    from snorkel_ray.state.sharded import run_sharded_stage, shard_paths, \
        shard_input_token
    import ray.data as rd

    d = tmp_path / "in"
    d.mkdir()
    for i in range(4):
        pq.write_table(pa.table({"x": [i] * 10}), str(d / f"f{i}.parquet"))

    def build(ds):
        return ds

    def run(paths):
        groups = shard_paths(paths, 2)
        shards = [(i, rd.read_parquet(g), shard_input_token(g))
                  for i, g in enumerate(groups)]
        return run_sharded_stage(None, str(tmp_path / "out"), "s", build,
                                 num_shards=2, shards=shards)

    paths = [str(d / f"f{i}.parquet") for i in range(4)]
    _, m1 = run(paths)
    assert all(not m["skipped"] for m in m1)
    # same file list -> all skip
    _, m2 = run(paths)
    assert all(m["skipped"] for m in m2)
    # drop one file -> round-robin shifts -> affected shards recompute
    _, m3 = run(paths[:3])
    assert any(not m["skipped"] for m in m3)


@pytest.mark.parametrize("cooccur_pred", [None, "near"])
def test_sharded_matches_streaming_triples(ray_session, tmp_path, cooccur_pred):
    """The shard-resumable plan must emit the SAME triple set as the
    streaming flagship on identical input (the resume machinery is
    partitioning, not semantics) — also with the chain's co-occurrence
    knob set as ``__ray_entry__.py`` sets it."""
    from snorkel_ray.pipelines.kg import run_kg_pipeline

    kb = build_kb(42)
    pages = pages_dataset(200, 42)
    stream, _ = run_kg_pipeline(pages_dataset(200, 42), alias_table(kb),
                                kb["facts"], cooccur_pred=cooccur_pred)
    shard, _ = run_kg_pipeline_sharded(pages, alias_table(kb), kb["facts"],
                                       root=str(tmp_path / "p"), num_shards=3,
                                       cooccur_pred=cooccur_pred)
    key = ["subj_qid", "pred", "obj_qid"]
    a = stream.to_pandas()[key].sort_values(key).reset_index(drop=True)
    b = shard.to_pandas()[key].sort_values(key).reset_index(drop=True)
    assert len(a) == len(b) > 0
    assert a.equals(b)


def test_sharded_minhash_equals_streaming(ray_session, tmp_path):
    """Round-3 verdict item 8: per-shard signature persistence + one
    global banding pass must produce exactly the streaming clusters,
    and a rerun must skip every signature shard."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from snorkel_ray.stages.dedup import minhash_dedup
    from snorkel_ray.state.sharded import run_minhash_dedup_sharded

    base = ("the quick brown fox jumps over the lazy dog while rain "
            "falls on the quiet town and markets open slowly")
    rows = []
    for i in range(40):
        if i % 4 == 0:
            rows.append({"doc_id": i, "text": base})          # dup family
        elif i % 4 == 1:
            rows.append({"doc_id": i, "text": base.replace("rain", f"snow")})
        else:
            rows.append({"doc_id": i,
                         "text": f"unique document {i} about topic "
                                 f"{i * 7} with words nobody repeats "
                                 f"{i * 13} {i * 17} {i * 19}"})
    t = pa.table({"doc_id": [r["doc_id"] for r in rows],
                  "text": [r["text"] for r in rows]})
    paths = []
    for s in range(3):
        p = str(tmp_path / f"docs{s}.parquet")
        pq.write_table(t.slice(s * 14, 14), p)
        paths.append(p)
    pages = rd.read_parquet(paths)

    def norm(cl):
        df = cl.to_pandas()
        # cluster LABELS may differ between plans; compare the grouping
        groups = df.groupby("cluster")["doc_id"].apply(
            lambda s: tuple(sorted(s)))
        return sorted(groups.tolist())

    stream = minhash_dedup(pages, "text", "doc_id")
    root = str(tmp_path / "dd")
    sharded, manifests = run_minhash_dedup_sharded(
        pages, root, num_shards=3, input_paths=paths)
    assert norm(stream) == norm(sharded)
    assert all(not m["skipped"] for m in manifests)

    rerun, manifests2 = run_minhash_dedup_sharded(
        pages, root, num_shards=3, input_paths=paths)
    assert all(m["skipped"] for m in manifests2)
    assert norm(rerun) == norm(stream)

    # hash-shard fallback (no input_paths) agrees too
    mem, _ = run_minhash_dedup_sharded(
        pages, str(tmp_path / "dd2"), num_shards=2)
    assert norm(mem) == norm(stream)


def test_sharded_kb_edit_invalidates_shards(ray_session, tmp_path):
    """Round-5 review: the sharded runner's checkpoint fingerprint must
    cover the broadcast KB inputs (alias table + facts), exactly as the
    streaming pipeline's kb_fp does — an edited fact set with unchanged
    pages must RERUN every shard, not skip to stale labeled output."""
    kb = build_kb(42)
    root = str(tmp_path / "kbfp")
    pages = pages_dataset(60, 42)

    _, r1 = run_kg_pipeline_sharded(pages, alias_table(kb), kb["facts"],
                                    root=root, num_shards=2)
    assert all(not m["skipped"] for m in r1["shards"])

    # same pages, same KB -> all skip
    _, r2 = run_kg_pipeline_sharded(pages, alias_table(kb), kb["facts"],
                                    root=root, num_shards=2)
    assert all(m["skipped"] for m in r2["shards"])

    # same pages, EDITED facts -> every shard must rerun
    facts_edit = list(kb["facts"])[:-1]
    _, r3 = run_kg_pipeline_sharded(pages, alias_table(kb), facts_edit,
                                    root=root, num_shards=2)
    assert all(not m["skipped"] for m in r3["shards"])
