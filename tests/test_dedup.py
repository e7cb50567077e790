"""Dedup operator tests on crafted collision sets (SURVEY.md §5.1)."""

import numpy as np
import ray
import pyarrow as pa
import pytest

from snorkel_ray.stages.dedup import (
    _MinHashParams,
    _shingle_hashes,
    ngram_jaccard,
    simhash64,
)


def test_minhash_estimates_jaccard():
    params = _MinHashParams(256, seed=17)
    a = "the quick brown fox jumps over the lazy dog again and again today"
    b = "the quick brown fox jumps over the lazy cat again and again today"
    sa = params.signature(_shingle_hashes(a, 3))
    sb = params.signature(_shingle_hashes(b, 3))
    est = float((sa == sb).mean())
    true = ngram_jaccard(a, b, 3)
    assert abs(est - true) < 0.15
    # identical docs agree exactly
    assert (params.signature(_shingle_hashes(a, 3)) == sa).all()


def test_simhash_locality():
    a = "the quick brown fox jumps over the lazy dog " * 5
    b = a.replace("lazy", "sleepy")
    c = "completely different words about astronomy telescopes and galaxies nebulae"
    ha, hb, hc = simhash64(a), simhash64(b), simhash64(c)
    d_ab = bin(ha ^ hb).count("1")
    d_ac = bin(ha ^ hc).count("1")
    assert d_ab < d_ac
    assert simhash64(a) == ha  # deterministic


def test_ngram_jaccard_bounds():
    assert ngram_jaccard("a b c", "a b c") == 1.0
    assert ngram_jaccard("", "") == 1.0
    assert ngram_jaccard("a b c d e", "v w x y z") == 0.0


@pytest.fixture()
def dup_docs(ray_session):
    import ray.data as rd

    base = ("the quick brown fox jumps over the lazy dog while rain falls "
            "on the quiet town and markets open slowly near the river")
    rows = [
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": base},  # exact dup of 1
        {"doc_id": 3, "text": base.replace("rain", "snow")},  # near-dup of 1
        {"doc_id": 4, "text": "unrelated text about telescopes galaxies and "
                              "astronomy research papers published yearly"},
        {"doc_id": 5, "text": base},  # another exact dup
    ]
    return rd.from_items(rows)


def test_exact_dedup(dup_docs):
    from snorkel_ray.stages.dedup import exact_dedup

    kept = exact_dedup(dup_docs, "text", keep_key="doc_id").to_pandas()
    assert sorted(kept["doc_id"]) == [1, 3, 4]  # min doc_id survives per text


def test_minhash_dedup_clusters(dup_docs):
    from snorkel_ray.stages.dedup import minhash_dedup

    out = minhash_dedup(dup_docs, "text", "doc_id", num_perm=64, bands=16,
                        threshold=0.5).to_pandas()
    m = dict(zip(out["doc_id"], out["cluster"]))
    assert len(m) == 5  # every doc assigned
    assert m[1] == m[2] == m[5]  # exact dups cluster
    assert m[4] != m[1]  # unrelated stays apart
    assert m[3] == m[1]  # near-dup joins at threshold 0.5


def test_verify_pairs_jaccard_large_plan_matches_small(dup_docs):
    """The large plan (two hash-partitioned groupbys; forced with
    ``broadcast_ids_limit=0``) keeps the same edges with the same
    Jaccard as the default broadcast plan, duplicate pairs included."""
    import itertools

    import ray.data as rd

    from snorkel_ray.stages.dedup import verify_pairs_jaccard

    ids = [1, 2, 3, 4, 5]
    pairs = rd.from_items([{"a": a, "b": b} for a, b in itertools.combinations(ids, 2)]
                          + [{"a": 1, "b": 3}])

    def edges(**limits):
        out = verify_pairs_jaccard(dup_docs, pairs, "text", "doc_id",
                                   threshold=0.5, **limits).to_pandas()
        return sorted(zip(out["a"], out["b"], out["jaccard"]))

    small = edges()
    assert {(a, b) for a, b, _ in small} == {
        ("1", "2"), ("1", "3"), ("1", "5"), ("2", "3"), ("2", "5"), ("3", "5")}
    assert edges(broadcast_ids_limit=0) == small


def test_simhash_near_dup_pairs(dup_docs):
    from snorkel_ray.stages.dedup import simhash_near_dup_pairs

    pairs = simhash_near_dup_pairs(dup_docs, "text", "doc_id", max_hamming=6).to_pandas()
    got = {tuple(sorted((a, b))) for a, b in zip(pairs["a"], pairs["b"])}
    assert (1, 2) in got and (1, 5) in got and (2, 5) in got
    assert not any(4 in p for p in got)


def test_embedding_near_dup(ray_session):
    import ray.data as rd

    from snorkel_ray.stages.dedup import embedding_near_dup_pairs

    rng = np.random.default_rng(0)
    v1 = rng.standard_normal(32).astype(np.float32)
    v2 = v1 + rng.standard_normal(32).astype(np.float32) * 0.01  # near-dup
    v3 = rng.standard_normal(32).astype(np.float32)
    ds = rd.from_items([
        {"vec_id": 1, "embedding": v1.tolist()},
        {"vec_id": 2, "embedding": v2.tolist()},
        {"vec_id": 3, "embedding": v3.tolist()},
    ])
    pairs = embedding_near_dup_pairs(ds, "embedding", "vec_id",
                                     threshold=0.95).to_pandas()
    got = {tuple(sorted((a, b))) for a, b in zip(pairs["a"], pairs["b"])}
    assert (1, 2) in got
    assert not any(3 in p for p in got)


def test_exact_dedup_keep_key_ties(ray_session):
    """Round-2 ADVICE item 1: two byte-identical rows (same text AND
    same doc_id — a re-ingested file) must collapse to ONE survivor;
    the old keep_key==winner value filter kept both."""
    import ray.data as rd

    from snorkel_ray.stages.dedup import exact_dedup

    rows = [
        {"doc_id": "d1", "text": "xxx"},
        {"doc_id": "d1", "text": "xxx"},  # identical physical copy
        {"doc_id": "d2", "text": "xxx"},
        {"doc_id": "d3", "text": "yyy"},
    ]
    kept = exact_dedup(rd.from_items(rows).repartition(2), "text",
                       keep_key="doc_id").to_pandas()
    assert len(kept) == 2
    assert sorted(kept["doc_id"]) == ["d1", "d3"]

    # distinct rows tying on keep_key: exactly one survives, chosen
    # deterministically (full-row fingerprint ordering) across reruns
    rows2 = [
        {"doc_id": "d1", "text": "xxx", "extra": "a"},
        {"doc_id": "d1", "text": "xxx", "extra": "b"},
    ]
    picks = set()
    for _ in range(2):
        out = exact_dedup(rd.from_items(rows2), "text",
                          keep_key="doc_id").to_pandas()
        assert len(out) == 1
        picks.add(out["extra"].iloc[0])
    assert len(picks) == 1  # deterministic winner


def test_exact_dedup_survivor_independent_of_blocking(ray_session):
    """A string keep_key may hold chars below the 0x1f separator of the
    Min key ("a" vs "a\x05").  The batch-local pick must order them as
    the Min does, or one block keeps a different row than three."""
    import ray.data as rd

    from snorkel_ray.stages.dedup import exact_dedup

    rows = [{"id": 1, "k": "a", "text": "same"},
            {"id": 2, "k": "a\x05", "text": "same"},
            {"id": 3, "k": "a\x1fz", "text": "same"}]
    kept = {}
    for blocks in (1, 3):
        out = exact_dedup(rd.from_items(rows, override_num_blocks=blocks),
                          "text", keep_key="k").to_pandas()
        assert len(out) == 1
        kept[blocks] = int(out["id"].iloc[0])
    # keep_key is compared as a string, no separator: "a" is the least
    assert kept == {1: 1, 3: 1}


def test_exact_dedup_int_keep_key_ordering(ray_session):
    """Integer keep_keys (incl. negatives) must order numerically, not
    lexicographically, through the composite string sort key."""
    import ray.data as rd

    from snorkel_ray.stages.dedup import exact_dedup

    rows = [{"doc_id": k, "text": "t"} for k in [10, 9, -3, 200]]
    out = exact_dedup(rd.from_items(rows), "text", keep_key="doc_id").to_pandas()
    assert out["doc_id"].tolist() == [-3]


def test_lsh_pairs_preserve_large_int_ids(ray_session):
    """Round-2 ADVICE item 2: ids >= 2^53 must survive the anchor
    mapping without a float64 round-trip (the old pandas lookup
    upcast and silently dropped/merged edges)."""
    import ray.data as rd

    from snorkel_ray.stages.dedup import lsh_bucket_pairs, minhash_signatures

    big = 2 ** 53
    dup = ("the quick brown fox jumps over the lazy dog while rain falls "
           "on the quiet town near the river")
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([big + 1, big + 2, big + 3, big + 100], pa.int64()),
        "text": pa.array([dup, dup, dup,
                          "entirely different words about telescopes galaxies "
                          "astronomy research papers published yearly"]),
    }))
    sigs = minhash_signatures(ds, "text", "doc_id", num_perm=32)
    pairs = lsh_bucket_pairs(sigs, "doc_id", bands=8).to_pandas()
    got = sorted((int(a), int(b)) for a, b in zip(pairs["a"], pairs["b"]))
    # 3-member bucket: full pairs since round 4 (anchor edges plus the
    # member-member pair), all ids exact above 2^53
    assert got == [(big + 1, big + 2), (big + 1, big + 3),
                   (big + 2, big + 3)]


def test_shingle_batch_parity():
    """_shingle_hashes_batch must equal _shingle_hashes per text."""
    from snorkel_ray.stages.dedup import _shingle_hashes_batch

    texts = ["hello world foo bar baz", "", "a b",
             "one two three four five six seven eight nine ten eleven twelve",
             "repeated repeated repeated words words"]
    for k in (1, 3, 9):
        batch = _shingle_hashes_batch(texts, k)
        for t, got in zip(texts, batch):
            assert np.array_equal(_shingle_hashes(t, k), got), (t, k)


def test_pos_mix_no_period8_collision():
    """Round-2 ADVICE item 4: the old 8-entry mix table made positions
    j and j+8 share a multiplier, so swapping two words 8 apart
    collided systematically for shingle k > 8. Distinct splitmix64
    constants per position must break that."""
    from snorkel_ray.stages.dedup import _pos_mix

    mix = _pos_mix(64)
    assert len(set(mix.tolist())) == 64  # all distinct, no cycling

    words = [f"w{i}" for i in range(10)]
    swapped = list(words)
    swapped[0], swapped[8] = swapped[8], swapped[0]
    h1 = _shingle_hashes(" ".join(words), 10)
    h2 = _shingle_hashes(" ".join(swapped), 10)
    assert not np.array_equal(h1, h2)


def test_exact_dedup_no_keep_key(ray_session):
    """keep_key=None rides the same vectorized Min-aggregate plan:
    exactly one survivor per distinct text, including byte-identical
    full-row copies."""
    import ray.data as rd

    from snorkel_ray.stages.dedup import exact_dedup

    rows = [{"doc_id": i % 4, "text": f"t{i % 3}"} for i in range(12)]
    out = exact_dedup(rd.from_items(rows).repartition(3),
                      "text").to_pandas()
    assert sorted(out.text.tolist()) == ["t0", "t1", "t2"]


def test_simhash_batch_parity():
    """simhash64_batch must equal the scalar reference per text, with
    hypothesis-grade corner cases: empty, None, punctuation-only,
    repeated words, unicode, single word, long docs."""
    from snorkel_ray.stages.dedup import simhash64, simhash64_batch

    texts = [
        "", None, "!!! ???", "word", "word word word",
        "the quick brown fox jumps over the lazy dog",
        "The QUICK brown FOX", "naïve café résumé déjà vu",
        " ".join(f"tok{i % 37}" for i in range(500)),
        "a b c d e f g h i j k l m n o p q r s t u v w x y z",
    ]
    got = simhash64_batch(texts)
    want = [0 if t is None else simhash64(t) for t in texts]
    assert got.tolist() == want
    assert simhash64_batch([]).tolist() == []
    assert simhash64_batch(["", None]).tolist() == [0, 0]


def test_guards_from_round4_review(dup_docs):
    """Precondition guards: bands must divide num_perm; simhash blocks
    must beat max_hamming (auto-picked by default); null text hashes
    as empty instead of crashing; empty embedding input yields an
    empty pair table."""
    import ray.data as rd

    from snorkel_ray.stages.dedup import (
        add_content_hash,
        embedding_near_dup_pairs,
        minhash_dedup,
        simhash_near_dup_pairs,
    )

    with pytest.raises(Exception, match="must divide"):
        minhash_dedup(dup_docs, "text", "doc_id",
                      num_perm=32, bands=64).to_pandas()
    with pytest.raises(ValueError, match="pigeonhole"):
        simhash_near_dup_pairs(dup_docs, "text", "doc_id",
                               max_hamming=6, blocks=4)

    t = pa.table({"doc_id": [1, 2], "text": pa.array(["a", None])})
    hashed = add_content_hash(ray.data.from_arrow(t), "text").to_pandas()
    assert hashed.content_hash.notna().all()

    empty = rd.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32()))}))
    assert embedding_near_dup_pairs(empty, "embedding", "vec_id").count() == 0


def test_lsh_small_bucket_full_pairs(ray_session):
    """Round-4 review: anchor-only edges lose member-member pairs in
    buckets of >= 3 when the min-id anchor is the odd one out.  Small
    buckets (3..cap) now emit all pairs; cap=2 reproduces the old
    anchor-only behavior."""
    import ray.data as rd

    from snorkel_ray.stages.dedup import lsh_bucket_pairs

    # num_perm=4, bands=2 (r=2): docs 10/11 share band 0 with doc 1
    # but NOT band 1 — the only bucket holding (10, 11) also holds 1
    def sig(b0a, b0b, b1a, b1b):
        return np.array([b0a, b0b, b1a, b1b], dtype=np.uint64)

    t = pa.table({
        "doc_id": pa.array([1, 10, 11], pa.int64()),
        "sig": pa.array([sig(5, 6, 70, 71).tolist(),
                         sig(5, 6, 80, 81).tolist(),
                         sig(5, 6, 90, 91).tolist()],
                        pa.list_(pa.uint64())),
    })
    sigs = rd.from_arrow(t).repartition(2)

    full = lsh_bucket_pairs(sigs, "doc_id", bands=2).to_pandas()
    got = set(map(tuple, full[["a", "b"]].itertuples(index=False)))
    assert (10, 11) in got and (1, 10) in got and (1, 11) in got

    anchor_only = lsh_bucket_pairs(sigs, "doc_id", bands=2,
                                   full_pairs_bucket_cap=2).to_pandas()
    got2 = set(map(tuple, anchor_only[["a", "b"]].itertuples(index=False)))
    assert (10, 11) not in got2 and (1, 10) in got2 and (1, 11) in got2


def test_exact_dedup_identical_blocks(ray_session):
    """Round-4 ADVICE medium (determinism under lineage
    reconstruction): the winner plan must not rely on per-run batch
    tags.  The structural hazard case: byte-identical rows arriving in
    byte-IDENTICAL blocks (a doubly-ingested input file) — any
    batch-content tag collides there — must still collapse to exactly
    one survivor, byte-deterministically across reruns."""
    import ray.data as rd

    from snorkel_ray.stages.dedup import exact_dedup

    block = [{"doc_id": 7, "text": "same file twice"},
             {"doc_id": 9, "text": "same file twice"},
             {"doc_id": 2, "text": "only here"}]
    ds = rd.from_items(block).union(rd.from_items(block))
    outs = []
    for _ in range(2):
        out = exact_dedup(ds, "text", keep_key="doc_id").to_pandas()
        outs.append(out.sort_values("doc_id").reset_index(drop=True))
    assert outs[0]["doc_id"].tolist() == [2, 7]
    assert outs[0].equals(outs[1])


def test_exact_dedup_preserves_uint64_ids(ray_session):
    """The decode stage rebuilds rows from pickled payloads with the
    input's EXACT schema: a uint64 id >= 2^63 must round-trip (naive
    from_pylist inference overflows int64 — CLAUDE.md pitfall)."""
    import pyarrow as pa
    import ray.data as rd

    from snorkel_ray.stages.dedup import exact_dedup

    big = 2**63 + 11
    t = pa.table({"doc_id": pa.array([big, big + 1, 5], pa.uint64()),
                  "text": ["a", "a", "b"]})
    out = exact_dedup(rd.from_arrow(t), "text", keep_key="doc_id")
    got = out.to_pandas().sort_values("text").reset_index(drop=True)
    assert got["doc_id"].tolist() == [big, 5]
    assert out.schema().base_schema.field("doc_id").type == pa.uint64()


def test_exact_dedup_empty_input(ray_session):
    """Schema-less empty input passes through (the decode stage needs a
    schema; there is nothing to dedup)."""
    import ray.data as rd

    from snorkel_ray.stages.dedup import exact_dedup

    assert exact_dedup(rd.from_items([]), "text",
                       keep_key="doc_id").count() == 0


def test_bucket_pair_kernel_matches_a_python_loop():
    """``lsh_bucket_pairs``' vectorized kernel emits the same (a, b)
    multiset as the per-bucket loop it replaced: the min-id anchor
    edges of every bucket of 2+ rows, plus every pair of distinct ids
    in buckets of 3..cap rows, over random buckets with repeated ids."""
    from collections import Counter

    from snorkel_ray.stages.dedup import _bucket_pairs

    rng = np.random.default_rng(5)
    for trial in range(60):
        sizes = rng.integers(1, 11, rng.integers(1, 30))
        groups = [sorted(rng.integers(0, 40, s).tolist()) for s in sizes]
        t = pa.table({"doc": pa.array([d for g in groups for d in g], pa.int64())})
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        for cap in (2, 5, 8):
            want = Counter()
            for g in groups:
                if len(g) > 1:
                    want.update((g[0], d) for d in g if d != g[0])
                if 3 <= len(g) <= cap:
                    ids = sorted(set(g))
                    want.update((x, y) for i, x in enumerate(ids) for y in ids[i + 1:])
            got = _bucket_pairs(t, starts, cap)
            assert Counter(zip(got["a"].to_pylist(), got["b"].to_pylist())) == want, (trial, cap)


def test_jaccard_kernel_matches_python_sets():
    """The vectorized set kernel both verify plans score with equals
    ``len(A & B) / len(A | B)`` of Python sets (1.0 for two empty
    sets), duplicates within a list included."""
    from snorkel_ray.stages.dedup import _jaccard

    rng = np.random.default_rng(7)
    lists = [[rng.integers(0, 12, rng.integers(0, 9)).tolist() for _ in range(300)]
             for _ in range(2)]
    sa, sb = (pa.array(ls, pa.list_(pa.uint64())) for ls in lists)
    want = [1.0 if not (set(x) | set(y)) else len(set(x) & set(y)) / len(set(x) | set(y))
            for x, y in zip(*lists)]
    assert _jaccard(sa, sb).tolist() == want


def test_simhash_pairs_are_every_pair_within_max_hamming(ray_session):
    """With more bands than ``max_hamming`` every pair within it shares
    a band, so the output is exactly the pairs of the scalar
    reference ``simhash64`` within ``max_hamming`` bits, each once."""
    import ray.data as rd

    from snorkel_ray.stages.dedup import simhash_near_dup_pairs

    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(30)]
    base = [" ".join(rng.choice(words, 12)) for _ in range(8)]
    texts = [b if i % 3 else " ".join(b.split()[:-1] + [str(rng.choice(words))])
             for i, b in enumerate(base * 4)]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": texts})
    got = simhash_near_dup_pairs(rd.from_arrow([t.slice(0, 13), t.slice(13)]),
                                 "text", "doc_id", max_hamming=5).take_all()
    h = [simhash64(x) for x in texts]
    want = sorted((i, j, bin(h[i] ^ h[j]).count("1")) for i in range(len(h))
                  for j in range(i + 1, len(h)) if bin(h[i] ^ h[j]).count("1") <= 5)
    assert len(want) > len(texts)
    assert sorted((r["a"], r["b"], r["hamming"]) for r in got) == want
