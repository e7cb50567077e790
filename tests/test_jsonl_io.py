"""JSONL source/sink: round trip, malformed-line tolerance, meta
passthrough, max_docs."""

import json
import os

import pyarrow as pa
import ray

from snorkel_ray.sources.readers import read_jsonl_docs, write_jsonl


def test_roundtrip(tmp_path):
    t = pa.table({"url": ["a", "b"],
                  "text": ["hello\nworld", 'quote " and \\ slash'],
                  "extra": [1, 2]})
    out_dir = str(tmp_path / "out")
    manifest = write_jsonl(ray.data.from_arrow(t), out_dir).to_pandas()
    assert manifest.n_rows.sum() == 2
    assert all(p.endswith(".jsonl") for p in manifest.path)

    back = read_jsonl_docs(out_dir).to_pandas().sort_values("url")
    assert back.url.tolist() == ["a", "b"]
    # text survives the JSON escape cycle byte-exact
    assert back.text.tolist() == ["hello\nworld", 'quote " and \\ slash']
    assert [json.loads(m)["extra"] for m in back.meta_json] == [1, 2]


def test_malformed_lines_skipped_and_max_docs(tmp_path):
    p = tmp_path / "x.jsonl"
    p.write_text('{"url": "u1", "text": "t1"}\n'
                 'not json at all\n'
                 '\n'
                 '{"url": "u2", "text": "t2"}\n'
                 '{"url": "u3", "text": "t3"}\n')
    out = read_jsonl_docs(str(p)).to_pandas()
    assert sorted(out.url) == ["u1", "u2", "u3"]
    capped = read_jsonl_docs(str(p), max_docs=2).to_pandas()
    assert len(capped) <= 2


def test_write_jsonl_columns_subset(tmp_path):
    t = pa.table({"a": [1], "b": ["x"], "c": [2.5]})
    out_dir = str(tmp_path / "sub")
    write_jsonl(ray.data.from_arrow(t), out_dir, columns=["a", "b"])
    line = json.loads(open(os.path.join(
        out_dir, os.listdir(out_dir)[0])).read())
    assert line == {"a": 1, "b": "x"}


def test_write_jsonl_rerun_replaces_not_accumulates(tmp_path):
    """Deterministic content-hash shard names (ADVICE r3): a second
    run into the same directory replaces the previous shards — the
    reader must see exactly one copy of the data, and a stale shard
    from a different earlier dataset must be cleared."""
    out_dir = str(tmp_path / "rerun")
    t1 = pa.table({"url": ["a"], "text": ["old data"]})
    write_jsonl(ray.data.from_arrow(t1), out_dir)

    t2 = pa.table({"url": ["b", "c"], "text": ["x", "y"]})
    write_jsonl(ray.data.from_arrow(t2), out_dir)
    write_jsonl(ray.data.from_arrow(t2), out_dir)  # identical re-run

    back = read_jsonl_docs(out_dir).to_pandas()
    assert sorted(back.url) == ["b", "c"]  # no dup, no stale "a"

    import pytest
    with pytest.raises(FileExistsError):
        write_jsonl(ray.data.from_arrow(t2), out_dir, overwrite=False)


def test_write_jsonl_salt_shards(ray_session, tmp_path):
    """Round-4 verdict item 8: byte-identical blocks collapse to one
    shard by default (documented), but salt_shards=True restores block
    multiplicity with deterministic -<j> copies."""
    import glob
    import os

    import ray.data as rd

    from snorkel_ray.sources.readers import write_jsonl

    rows = [{"doc_id": 1, "text": "same"}]
    # 8 byte-identical blocks: their writer tasks share one content
    # name, so each must use a tmp file of its own
    ds = rd.from_items(rows).union(*(rd.from_items(rows) for _ in range(7)))

    d1 = str(tmp_path / "plain")
    m1 = write_jsonl(ds, d1).to_pandas()
    assert len(glob.glob(os.path.join(d1, "part-*.jsonl"))) == 1
    assert len(m1) == 1

    d2 = str(tmp_path / "salted")
    m2 = write_jsonl(ds, d2, salt_shards=True).to_pandas()
    files = sorted(glob.glob(os.path.join(d2, "part-*.jsonl")))
    assert len(files) == 8 and len(m2) == 8
    # multiplicity survives on disk: every copy holds the same line
    import json

    lines = [json.loads(open(f).read()) for f in files]
    assert lines == [{"doc_id": 1, "text": "same"}] * 8
    assert not glob.glob(os.path.join(d2, ".part-*.tmp"))


def test_publish_identical_bytes_race(tmp_path, monkeypatch):
    """Two writers of byte-identical blocks share one content name.
    Force both to have written their tmp before either renames: with
    a shared tmp name the second rename finds no file
    (FileNotFoundError); with per-writer tmp names both publish."""
    import threading

    from snorkel_ray.sources import readers

    barrier = threading.Barrier(2)
    real_replace = os.replace

    def _replace_after_both_wrote(src, dst):
        barrier.wait(timeout=30)
        real_replace(src, dst)

    monkeypatch.setattr(readers.os, "replace", _replace_after_both_wrote)
    out_dir = str(tmp_path)
    paths, errors = [], []

    def _writer():
        try:
            paths.append(readers._publish(out_dir, "part-x.jsonl", b"same\n"))
        except Exception as e:  # surfaced by the asserts below
            errors.append(e)

    threads = [threading.Thread(target=_writer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert paths == [os.path.join(out_dir, "part-x.jsonl")] * 2
    assert open(paths[0], "rb").read() == b"same\n"
    assert os.listdir(out_dir) == ["part-x.jsonl"]


def test_read_jsonl_skips_non_dict_json(tmp_path):
    """Round-5 review: 'null', numbers and arrays are valid JSON but
    not records — crawl junk must be skipped, not crash obj.get."""
    p = tmp_path / "junk.jsonl"
    p.write_text('{"url": "u1", "text": "t1"}\n'
                 'null\n'
                 '[1, 2, 3]\n'
                 '"just a string"\n'
                 '42\n'
                 '{"url": "u2", "text": "t2"}\n')
    out = read_jsonl_docs(str(p)).to_pandas()
    assert sorted(out.url) == ["u1", "u2"]


def test_write_jsonl_empty_dataset_schema_stable(ray_session, tmp_path):
    """Round-5 review: a zero-row input never runs the writer, and a
    bare .to_pandas() loses the manifest columns — salt mode raised
    KeyError 'path'.  Must return an empty (path, n_rows) manifest."""
    import ray.data as rd

    empty = rd.from_items([{"url": "x", "text": "y"}]).filter(
        lambda r: False)
    for salt in (False, True):
        d = str(tmp_path / f"empty-{salt}")
        m = write_jsonl(empty, d, salt_shards=salt)
        # NB: assert on Dataset.schema(), not .to_pandas() — Ray's
        # to_pandas drops the columns of any zero-row dataset
        assert [f.name for f in m.schema().base_schema] == \
            ["path", "n_rows"]
        assert m.count() == 0


def test_write_jsonl_clears_orphaned_tmp(tmp_path):
    """Round-5 review: a killed run can leave '.part-*.jsonl.tmp'; a
    rerun must clear them (the atomic rename only replaces a tmp of
    identical content)."""
    import glob

    out_dir = str(tmp_path / "orphan")
    os.makedirs(out_dir)
    # an older shared tmp name and a per-writer (pid-uuid) tmp name
    orphans = [os.path.join(out_dir, ".part-deadbeef.jsonl.tmp"),
               os.path.join(out_dir, ".part-deadbeef.jsonl.123-abc.tmp")]
    for orphan in orphans:
        open(orphan, "w").write('{"half": "written')
    t = pa.table({"url": ["a"], "text": ["x"]})
    write_jsonl(ray.data.from_arrow(t), out_dir)
    assert not any(os.path.exists(o) for o in orphans)
    assert not glob.glob(os.path.join(out_dir, ".part-*.tmp"))
