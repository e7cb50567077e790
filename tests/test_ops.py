"""similarity / text-analysis / multimodal / exprs operator tests."""

import numpy as np
import pyarrow as pa
import pytest

from snorkel_ray.functions import exprs
from snorkel_ray.stages.text_analysis import (
    count_tokens,
    detect_lang,
    fingerprint64,
    quality_features,
)


def test_detect_lang():
    assert detect_lang("the cat and the dog are in the house") == "en"
    assert detect_lang("der Hund und die Katze sind in dem Haus") == "de"
    assert detect_lang("el perro y el gato en la casa") == "es"
    assert detect_lang("中文文本测试") == "zh"
    assert detect_lang("") == "und"
    assert detect_lang("xyzzy qwerty plugh") == "und"


def test_quality_and_tokens():
    s, p, m, n, score = quality_features("The cat sat on the mat with a hat.")
    assert n == 9 and s > 0.3 and score > 0.5
    assert quality_features("")[4] == 0.0
    assert count_tokens("a b c") == (3, 3)
    assert count_tokens("a, b!") == (2, 4)  # punctuation splits bpe-ish
    assert fingerprint64("x y z") == fingerprint64("x y z") != fingerprint64("x y w")


def test_exprs():
    arr = pa.array(["  A  B ", "c-d"])
    assert exprs.casefold(arr).to_pylist() == ["  a  b ", "c-d"]
    assert exprs.collapse_ws(arr).to_pylist() == [" A B ", "c-d"]
    assert exprs.slugify(pa.array(["Hello, World!"])).to_pylist() == ["hello-world"]
    assert exprs.ptb_unescape(pa.array(["-LRB-x-RRB-"])).to_pylist() == ["(x)"]
    assert exprs.json_extract(pa.array(['{"k": 3}', "{}", "bad"]), "k").to_pylist() == \
        ["3", "", ""]
    assert exprs.json_extract_double(pa.array(['{"k": 3.5}']), "k").to_pylist() == [3.5]
    assert exprs.tokens_join(pa.array([["a", "b"]], pa.list_(pa.string()))).to_pylist() \
        == ["a b"]
    assert np.allclose(exprs.safe_div([1, 1], [2, 0]), [0.5, 0.0])


def test_brute_force_topk(ray_session):
    import ray.data as rd

    from snorkel_ray.stages.similarity import brute_force_topk

    rng = np.random.default_rng(1)
    vecs = rng.standard_normal((50, 16)).astype(np.float32)
    ds = rd.from_items([{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(50)])
    out = brute_force_topk(ds, vecs[7], k=5).to_pandas()
    assert len(out) == 5
    assert out.iloc[0]["vec_id"] == 7  # self is nearest
    assert abs(out.iloc[0]["cosine"] - 1.0) < 1e-5
    # exact agreement with numpy
    sims = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)) @ \
        (vecs[7] / np.linalg.norm(vecs[7]))
    want = set(np.argsort(-sims)[:5].tolist())
    assert set(out["vec_id"]) == want


def test_ivf_topk_recall(ray_session):
    import ray.data as rd

    from snorkel_ray.stages.similarity import fit_centroids, ivf_topk

    rng = np.random.default_rng(2)
    vecs = rng.standard_normal((200, 16)).astype(np.float32)
    ds = rd.from_items([{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(200)])
    cents = fit_centroids(ds, n_centroids=8, sample_rows=200)
    out = ivf_topk(ds, vecs[3], cents, k=5, nprobe=8).to_pandas()  # nprobe=all -> exact
    assert out.iloc[0]["vec_id"] == 3


def test_multimodal_stub(ray_session):
    import ray.data as rd

    from snorkel_ray.stages.multimodal import decode_images, sample_frames

    rows = [{"media_id": f"m{i}", "mime": "image/fake",
             "payload": bytes([i] * 32), "meta_json": "{}"} for i in range(6)]
    ds = rd.from_items(rows)
    dec = decode_images(ds, fake=True, concurrency=(1, 2)).to_pandas()
    assert len(dec) == 6
    assert (dec["width"] == 8).all()
    assert all(len(p) == 8 * 8 * 3 for p in dec["pixels"])
    # deterministic: same payload -> same pixels
    dec2 = decode_images(ds, fake=True, concurrency=(1, 2)).to_pandas()
    assert (np.stack(dec.sort_values("media_id")["pixels"].to_numpy())
            == np.stack(dec2.sort_values("media_id")["pixels"].to_numpy())).all()

    frames = sample_frames(ds, n_frames=3, concurrency=(1, 2)).to_pandas()
    assert len(frames) == 18
    assert set(frames["frame_idx"]) == {0, 1, 2}


def test_image_decoder_requires_fake_without_pillow():
    import pytest

    from snorkel_ray.stages.multimodal import ImageDecoder, _try_import_pillow

    if _try_import_pillow() is None:
        with pytest.raises(NotImplementedError):
            ImageDecoder(fake=False)


def test_split_by_row_size(ray_session):
    import ray.data as rd
    import pyarrow as pa

    from snorkel_ray.stages.skew import split_by_row_size

    rows = [{"url": f"u{i}", "html": (b"x" * (10_000 if i % 5 == 0 else 100))}
            for i in range(20)]
    ds = rd.from_items(rows)
    small, giant = split_by_row_size(ds, "html", max_bytes=1000)
    s, g = small.to_pandas(), giant.to_pandas()
    assert len(s) == 16 and len(g) == 4
    assert all(len(h) <= 1000 for h in s["html"])
    assert all(len(h) > 1000 for h in g["html"])
    # no rows lost
    assert sorted(list(s["url"]) + list(g["url"])) == sorted(r["url"] for r in rows)


def test_salted_count_matches_plain(ray_session):
    import ray.data as rd

    from snorkel_ray.stages.skew import salted_count

    rows = [{"k": "hot"} for _ in range(500)] + \
           [{"k": f"cold{i}"} for i in range(50)]
    out = salted_count(rd.from_items(rows), "k", salt_buckets=8,
                       hot_keys={"hot"}).to_pandas().set_index("k")["n"]
    assert out["hot"] == 500
    assert out["cold7"] == 1 and len(out) == 51


def test_duck_round_matches_duckdb():
    """duck_round must replicate DuckDB round(DOUBLE, s) bit-exactly —
    the contract gate stringifies values, so the Ray side has to round
    exactly like the oracle SQL (round-2 ADVICE item 5: Python round()
    is half-even and disagrees on decimal ties like 0.125)."""
    import random

    import duckdb

    from snorkel_ray.functions.exprs import duck_round

    random.seed(3)
    vals = ([random.uniform(-1e9, 1e9) for _ in range(5000)]
            + [2.675, 0.125, -0.125, 0.0078125, -2.5,
               0.49999999999999994, 1e15 + 0.5, 1e-9, 0.0, -0.0])
    con = duckdb.connect()
    con.execute("CREATE TABLE t(v DOUBLE)")
    con.executemany("INSERT INTO t VALUES (?)", [(v,) for v in vals])
    for nd in (2, 4, 6):
        db = [r[0] for r in
              con.execute(f"SELECT round(v, {nd}) FROM t").fetchall()]
        for v, expect in zip(vals, db):
            assert duck_round(v, nd) == expect, (v, nd)
    # half-even Python round would get these wrong vs SQL round
    assert duck_round(0.125, 2) == 0.13
    assert duck_round(-0.125, 2) == -0.13
    assert duck_round(None, 2) is None


def test_grouped_topk(ray_session):
    """Per-group top-k: partial top-k per batch + tiny final merge;
    must equal a global sort + per-group head, deterministically."""
    import pandas as pd
    import ray.data as rd

    from snorkel_ray.stages.skew import grouped_topk

    rng = np.random.default_rng(4)
    df = pd.DataFrame({
        "g": rng.integers(0, 5, 500),
        "v": rng.integers(0, 50, 500),   # many ties -> id tiebreak matters
        "id": np.arange(500),
    })
    out = grouped_topk(rd.from_pandas(df).repartition(8), "g", ["v", "id"],
                       descending=[True, False], k=3).to_pandas()
    expect = (df.sort_values(["v", "id"], ascending=[False, True])
              .groupby("g", sort=False).head(3))
    a = out.sort_values(["g", "v", "id"],
                        ascending=[True, False, True]).reset_index(drop=True)
    b = expect.sort_values(["g", "v", "id"],
                           ascending=[True, False, True]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a[["g", "v", "id"]], b[["g", "v", "id"]])


def test_semi_and_anti_join_both_paths(ray_session):
    """semi_join: broadcast path (key set fits) and hash-join path
    (broadcast_limit forces the shuffle) must agree; anti inverts."""
    import pandas as pd
    import ray.data as rd

    from snorkel_ray.stages.joins import semi_join

    left = rd.from_pandas(pd.DataFrame({
        "k": np.arange(100), "v": np.arange(100) * 2})).repartition(4)
    keys = rd.from_pandas(pd.DataFrame({"kk": [3, 7, 7, 50, 99, 200]}))

    def got(ds):
        df = ds.to_pandas()
        # empty Datasets can lose their columns through to_pandas
        # (known ray 2.49 pitfall) — treat that as the empty result
        return sorted(df["k"].tolist()) if "k" in df.columns else []

    semi_b = got(semi_join(left, keys, "k", "kk"))
    assert semi_b == [3, 7, 50, 99]
    semi_s = got(semi_join(left, keys, "k", "kk", broadcast_limit=1))
    assert semi_s == semi_b
    anti_b = got(semi_join(left, keys, "k", "kk", anti=True))
    assert len(anti_b) == 96 and 3 not in anti_b
    anti_s = got(semi_join(left, keys, "k", "kk", anti=True,
                           broadcast_limit=1))
    assert anti_s == anti_b

    # empty key set: semi -> nothing, anti -> everything
    empty = rd.from_pandas(pd.DataFrame({"kk": pd.array([], dtype="int64")}))
    assert got(semi_join(left, empty, "k", "kk")) == []
    assert len(got(semi_join(left, empty, "k", "kk", anti=True))) == 100


def test_asof_join_semantics(ray_session):
    """Backward as-of join: greatest right ts <= left ts per key,
    INCLUSIVE at equal timestamps, null when no prior right row."""
    import pandas as pd
    import ray.data as rd

    from snorkel_ray.stages.joins import asof_join

    base = pd.Timestamp("2024-01-01")
    T = lambda m: base + pd.Timedelta(minutes=m)
    left = rd.from_pandas(pd.DataFrame({
        "id": [1, 2, 3, 4, 5],
        "k": ["a", "a", "a", "b", "b"],
        "ts": [T(0), T(10), T(20), T(5), T(6)],
    })).repartition(2)
    right = rd.from_pandas(pd.DataFrame({
        "k": ["a", "a", "b"],
        "ts": [T(10), T(15), T(6)],   # id=2 matches EQUAL ts 10
        "px": [1.0, 2.0, 9.0],
    })).repartition(2)

    out = (asof_join(left, right, "k", "ts", ["px"],
                     rename={"px": "last_px"})
           .to_pandas().sort_values("id").reset_index(drop=True))
    assert out["id"].tolist() == [1, 2, 3, 4, 5]
    got = out["last_px"].tolist()
    assert pd.isna(got[0])          # no prior right row
    assert got[1] == 1.0            # inclusive equal-ts match
    assert got[2] == 2.0            # most recent of two priors
    assert pd.isna(got[3])          # b@5 before b@6
    assert got[4] == 9.0            # equal ts on key b
    assert out["id"].dtype == np.int64  # left dtypes restored


def test_asof_join_chunked_matches_plain(ray_session):
    """pre_split_chunk two-level as-of plan must equal the single-group
    plan exactly — including chunks with no right rows (carry chases
    several chunks back) and left rows before any right row."""
    import pandas as pd
    import ray.data as rd

    from snorkel_ray.stages.joins import asof_join

    rng = np.random.default_rng(13)
    base = pd.Timestamp("2024-01-01")
    lrows, rrows = [], []
    eid = 0
    for uid in range(4):
        t = base
        for _ in range(200):
            t = t + pd.Timedelta(minutes=int(rng.integers(1, 4000)))
            lrows.append({"id": eid, "k": f"u{uid}", "ts": t})
            eid += 1
            if rng.random() < 0.15:  # sparse right side
                rrows.append({"k": f"u{uid}",
                              "ts": t + pd.Timedelta(seconds=30),
                              "px": float(rng.uniform(0, 100))})
    left = rd.from_pandas(pd.DataFrame(lrows)).repartition(4)
    right = rd.from_pandas(pd.DataFrame(rrows)).repartition(3)

    plain = asof_join(left, right, "k", "ts", ["px"]) \
        .to_pandas().sort_values("id").reset_index(drop=True)
    chunked = asof_join(left, right, "k", "ts", ["px"],
                        pre_split_chunk="1D") \
        .to_pandas().sort_values("id").reset_index(drop=True)
    assert len(plain) == len(chunked) == len(lrows)
    eq = ((plain["px"] == chunked["px"])
          | (plain["px"].isna() & chunked["px"].isna()))
    assert eq.all()
    assert plain["px"].isna().sum() > 0  # the no-prior-right case occurs


def test_range_join_both_plans(ray_session):
    """range_join: broadcast plan and chunk-replicated plan must both
    equal the pandas between-merge reference, including an interval
    spanning many chunks, a point interval, and an unmatched key."""
    import pandas as pd
    import ray.data as rd

    from snorkel_ray.stages.joins import range_join

    rng = np.random.default_rng(7)
    left = pd.DataFrame({
        "k": rng.integers(0, 5, 300),
        "t": rng.integers(0, 1000, 300).astype("int64"),
        "v": np.arange(300)})
    iv = pd.DataFrame({
        "k": [0, 0, 1, 2, 3, 9],
        "s": pd.array([10, 500, 0, 100, 950, 0], dtype="int64"),
        "e": pd.array([50, 600, 1000, 100, 2000, 10], dtype="int64"),
        "tag": list("abcdef")})
    ref = left.merge(iv, on="k")
    ref = ref[(ref.t >= ref.s) & (ref.t <= ref.e)]

    def key(df):
        return sorted(zip(df.v.tolist(), df.tag.tolist()))

    lds = rd.from_pandas(left).repartition(4)
    bcast = range_join(lds, iv, "k", "t", "s", "e").to_pandas()
    assert key(bcast) == key(ref)

    chunked = range_join(lds, iv, "k", "t", "s", "e",
                         chunk=64, broadcast_limit=0).to_pandas()
    assert key(chunked) == key(ref)

    # empty interval table -> empty result
    empty = pd.DataFrame({"k": pd.array([], dtype="int64"),
                          "s": pd.array([], dtype="int64"),
                          "e": pd.array([], dtype="int64")})
    assert range_join(lds, empty, "k", "t", "s", "e").count() == 0


def test_kmeans_fit_full_recovers_blobs(ray_session):
    """Distributed Lloyd on 3 well-separated spherical blobs must
    converge to one centroid per blob (every blob's members agree on a
    cluster, clusters distinct) and report shrinking shifts."""
    import ray.data as rd

    from snorkel_ray.stages.similarity import assign_centroids, kmeans_fit_full

    rng = np.random.default_rng(5)
    centers = np.array([[10, 0, 0], [0, 10, 0], [0, 0, 10]], dtype=np.float32)
    X = np.concatenate([
        c + rng.normal(0, 0.3, (50, 3)).astype(np.float32) for c in centers])
    t = pa.table({
        "vec_id": pa.array(np.arange(150)),
        "embedding": pa.array([list(map(float, v)) for v in X],
                              pa.list_(pa.float32()))})
    ds = rd.from_arrow(t).repartition(4)

    C, info = kmeans_fit_full(ds, n_centroids=3, n_iter=8, seed=5)
    assert C.shape == (3, 3)
    assert sorted(info["cluster_sizes"]) == [50, 50, 50]

    got = assign_centroids(ds, C).to_pandas().sort_values("vec_id")
    a = got.centroid_id.to_numpy()
    blobs = [set(a[i * 50:(i + 1) * 50]) for i in range(3)]
    assert all(len(b) == 1 for b in blobs)          # each blob pure
    assert len(set.union(*blobs)) == 3              # all clusters used
    # converging: last recorded shift no larger than the first
    assert info["max_shift_per_iter"][-1] <= info["max_shift_per_iter"][0]


def test_range_join_timestamp_axis(ray_session):
    """Timestamp ts/start/end columns chunk correctly (unit-normalized
    to microseconds) through the distributed plan."""
    import pandas as pd
    import ray.data as rd

    from snorkel_ray.stages.joins import range_join

    base = pd.Timestamp("2026-01-01")
    left = pd.DataFrame({
        "k": [1, 1, 1, 2],
        "t": [base, base + pd.Timedelta("36h"),
              base + pd.Timedelta("10D"), base + pd.Timedelta("1h")],
        "row": [0, 1, 2, 3]})
    iv = pd.DataFrame({
        "k": [1, 2],
        "s": [base, base + pd.Timedelta("2h")],
        "e": [base + pd.Timedelta("3D"), base + pd.Timedelta("4h")],
        "tag": ["w1", "w2"]})
    lds = rd.from_pandas(left).repartition(2)
    out = range_join(lds, iv, "k", "t", "s", "e",
                     chunk="1D", broadcast_limit=0).to_pandas()
    # rows 0,1 fall in k=1's 3-day window; row 2 outside; row 3's key-2
    # window starts after it
    assert sorted(out.row.tolist()) == [0, 1]
    assert set(out.tag) == {"w1"}


def test_kmeans_zero_iter_and_exact_sizes(ray_session):
    """n_iter=0 returns the warm start without NameError, and
    exact_sizes=True reports assignment counts under the FINAL
    centroids (ADVICE r3: sizes lagged one iteration)."""
    import ray.data as rd

    from snorkel_ray.stages.similarity import kmeans_fit_full

    rng = np.random.default_rng(7)
    X = np.concatenate([
        [10, 0, 0] + rng.normal(0, 0.2, (40, 3)),
        [0, 10, 0] + rng.normal(0, 0.2, (20, 3))]).astype(np.float32)
    t = pa.table({"embedding": pa.array(
        [list(map(float, v)) for v in X], pa.list_(pa.float32()))})
    ds = rd.from_arrow(t).repartition(3)

    C0, info0 = kmeans_fit_full(ds, n_centroids=2, n_iter=0, seed=7)
    assert C0.shape == (2, 3)
    assert info0["iterations"] == 0
    assert info0["cluster_sizes"] == [0, 0]  # no pass ran
    assert info0["cluster_sizes_exact"] is False

    C, info = kmeans_fit_full(ds, n_centroids=2, n_iter=6, seed=7,
                              exact_sizes=True)
    assert info["cluster_sizes_exact"] is True
    assert sorted(info["cluster_sizes"]) == [20, 40]


def test_range_join_collision_raises(ray_session):
    """A left column sharing a name with an interval start/end/value
    column must raise instead of silently joining against the wrong
    side (ADVICE r3)."""
    import pytest
    import ray.data as rd

    from snorkel_ray.stages.joins import range_join

    left = rd.from_arrow(pa.table({
        "k": ["a"], "t": [5.0], "e": [99.0]}))  # "e" collides with end
    iv = pa.table({"k": ["a"], "s": [0.0], "e": [10.0], "tag": ["x"]})

    # the raise happens inside a Ray task -> surfaces as RayTaskError
    with pytest.raises(Exception, match="collide"):
        range_join(left, iv, "k", "t", "s", "e").to_pandas()
    with pytest.raises(Exception, match="collide"):
        range_join(left, iv, "k", "t", "s", "e", chunk=1.0,
                   broadcast_limit=0).to_pandas()


def test_analyze_batch_parity_with_scalar_kernels():
    """The vectorized batch analyzer must emit exactly the scalar
    reference values for every column and every corner-case text."""
    from snorkel_ray.stages.text_analysis import (
        analyze_batch,
        count_tokens,
        detect_lang,
        fingerprint64,
        quality_features,
    )

    texts = [
        "", None, "!!! ??? ***", "word",
        "The cat sat on the mat with a hat.",
        "der Hund und die Katze sind in dem Haus",
        "el perro y el gato en la casa",
        "中文文本测试 plus some english the and of",
        "under_score text_with punct; naïve café",
        " ".join(f"w{i % 13}" for i in range(300)),
        "x " * 1500 + "le la les de et un une est dans pour",  # >2000 chars
    ]
    got = analyze_batch(texts)
    for i, t in enumerate(texts):
        s = t or ""
        stop, punct, mwl, n, score = quality_features(s)
        ws, bpe = count_tokens(s)
        assert got["lang_pred"][i] == detect_lang(s), (i, t)
        assert got["stopword_ratio"][i] == stop
        assert got["punct_ratio"][i] == punct
        assert got["mean_word_len"][i] == mwl
        assert got["n_words"][i] == n
        assert got["quality"][i] == score
        assert got["ws_tokens"][i] == ws
        assert got["bpe_tokens"][i] == bpe
        assert int(got["fingerprint"][i]) == fingerprint64(s)


def test_image_decoder_real_branch_with_stub_pillow():
    """With a (stub) PIL module importable, fake=False must route
    through the REAL decode branch: open -> convert('RGB') ->
    resize(thumb) pixels, width/height = the ORIGINAL image size
    (round-3 verdict item 4: the branch used to be a comment)."""
    import sys
    import types

    import pyarrow as pa

    from snorkel_ray.stages.multimodal import ImageDecoder

    class _StubImg:
        def __init__(self, payload):
            self.payload = payload
            self.size = (640, 480)
            self.calls = []

        def convert(self, mode):
            assert mode == "RGB"
            self.calls.append("convert")
            return self

        def resize(self, wh):
            self.calls.append(("resize", wh))
            self._wh = wh
            return self

        def __array__(self, dtype=None, copy=None):
            w, h = self._wh
            # deterministic: pixel = first payload byte everywhere
            return np.full((h, w, 3), self.payload[0], dtype=np.uint8)

    stub_image_mod = types.SimpleNamespace(
        open=lambda bio: _StubImg(bio.read()))
    stub_pil = types.ModuleType("PIL")
    stub_pil.Image = stub_image_mod
    sys.modules["PIL"] = stub_pil
    try:
        dec = ImageDecoder(fake=False, thumb=4)
        assert dec.pillow is stub_image_mod
        batch = pa.table({
            "media_id": ["a", "b"],
            "payload": [bytes([7] * 16), bytes([9] * 16)],
        })
        out = dec(batch)
        assert out.column("width").to_pylist() == [640, 640]
        assert out.column("height").to_pylist() == [480, 480]
        px = out.column("pixels").to_pylist()
        assert px[0] == [7] * (4 * 4 * 3)
        assert px[1] == [9] * (4 * 4 * 3)
    finally:
        del sys.modules["PIL"]


def test_semantic_dedup_within_cluster(ray_session):
    """SemDeDup: near-identical vectors inside a k-means cluster
    collapse to the MIN-id representative; distinct vectors survive."""
    import ray.data as rd

    from snorkel_ray.stages.similarity import semantic_dedup

    rng = np.random.default_rng(3)
    vecs, ids = [], []
    centers = np.array([[10, 0, 0], [0, 10, 0], [0, 0, 10]], np.float32)
    vid = 0
    for c in centers:
        for j in range(10):
            base = c + rng.normal(0, 0.5, 3).astype(np.float32)
            vecs.append(base)
            ids.append(vid); vid += 1
            if j < 3:  # three rows get a near-duplicate (tiny jitter)
                vecs.append(base + rng.normal(0, 1e-4, 3).astype(np.float32))
                ids.append(vid); vid += 1
    t = pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array([list(map(float, v)) for v in vecs],
                                        pa.list_(pa.float32()))})
    ds = rd.from_arrow(t).repartition(4)

    out = (semantic_dedup(ds, n_centroids=3, threshold=0.999999, seed=5)
           .to_pandas().sort_values("vec_id").reset_index(drop=True))
    assert len(out) == len(ids)
    # each jittered pair collapses: the even (earlier) id is kept, the
    # following near-dup maps to it
    dup_pairs = [(i, i + 1) for i in range(0, vid, 1)
                 if i + 1 < vid and
                 np.allclose(vecs[i], vecs[i + 1], atol=1e-3)]
    assert len(dup_pairs) == 9
    rep = dict(zip(out.vec_id, out.rep))
    keep = dict(zip(out.vec_id, out.keep))
    for a, b in dup_pairs:
        assert rep[b] == a and keep[a] and not keep[b]
    # determinism
    out2 = (semantic_dedup(ds, n_centroids=3, threshold=0.999999, seed=5)
            .to_pandas().sort_values("vec_id").reset_index(drop=True))
    assert out.equals(out2)


def test_asof_join_preserves_big_int_values(ray_session):
    """Round-4 review: integer right-side value columns used to ride
    the pandas group stage as float64, corrupting ids >= 2^53; they
    now carry as strings and restore to the exact original type."""
    import pandas as pd
    import ray.data as rd

    from snorkel_ray.stages.joins import asof_join

    left = pd.DataFrame({
        "k": ["a", "a", "a"],
        "t": pd.to_datetime(["2024-01-01 01:00", "2024-01-01 02:00",
                             "2024-01-01 00:30"]),
    })
    right = pd.DataFrame({
        "k": ["a", "a"],
        "t": pd.to_datetime(["2024-01-01 00:00", "2024-01-01 01:30"]),
        "big_id": np.array([2**53 + 1, 2**63 + 7], dtype=np.uint64),
    })
    for chunked in (None, "1h"):
        out = (asof_join(rd.from_pandas(left), rd.from_pandas(right),
                         "k", "t", ["big_id"], pre_split_chunk=chunked)
               .to_pandas().sort_values("t").reset_index(drop=True))
        vals = [int(v) for v in out.big_id]
        assert vals == [2**53 + 1, 2**53 + 1, 2**63 + 7], (chunked, vals)


def test_duck_round_np_parity_hypothesis():
    """Vectorized duck_round_np must agree element-wise with the scalar
    duck_round (which is itself pinned against DuckDB) — including
    ties, negatives, subnormals, huge magnitudes, inf and NaN."""
    import math

    from hypothesis import given, settings, strategies as st

    from snorkel_ray.functions.exprs import duck_round, duck_round_np

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              width=64), min_size=1, max_size=50),
           st.integers(min_value=0, max_value=8))
    def check(vals, nd):
        got = duck_round_np(vals, nd)
        for v, g in zip(vals, got):
            want = duck_round(v, nd)
            if want is not None and math.isnan(want):
                assert math.isnan(g)
            else:
                assert g == want or (g == 0.0 and want == 0.0), (v, nd, g, want)

    check()
    # the documented decimal-tie disagreement cases stay pinned
    assert duck_round_np([0.125], 2)[0] == 0.13
    assert duck_round_np([-0.125], 2)[0] == -0.13


def test_brute_force_topk_rounded_boundary(ray_session):
    """round_digits selects on (rounded cosine DESC, id ASC) INSIDE the
    partials: a row whose raw cosine ranks past k but whose rounded
    value ties the kth bucket with a smaller id must be in the top-k
    (round-4 ADVICE: any raw-cosine fetch margin can miss it)."""
    import duckdb
    import ray.data as rd

    from snorkel_ray.stages.similarity import brute_force_topk

    rng = np.random.default_rng(3)
    # 1-d embeddings: cosine is sign(v), so craft near-ties directly in
    # 2-d instead — many vectors at nearly identical angles produce
    # dense rounded-cosine collisions at 2 decimals
    n = 400
    angles = rng.uniform(0.0, 0.3, n)
    vecs = np.stack([np.cos(angles), np.sin(angles)], axis=1).astype(np.float32)
    ids = rng.permutation(n)
    ds = rd.from_items([{"vec_id": int(ids[i]),
                         "embedding": vecs[i].tolist()} for i in range(n)])
    q = np.array([1.0, 0.0], dtype=np.float32)
    out = brute_force_topk(ds.repartition(8), q, k=10,
                           round_digits=2).to_pandas()

    # oracle: full cosine in numpy, DuckDB-rounded, ORDER BY r DESC, id
    sims = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)) @ q
    ref = duckdb.sql(
        "SELECT id FROM (SELECT unnest($ids) AS id, round(unnest($s), 2) AS r) "
        "ORDER BY r DESC, id LIMIT 10",
        params={"ids": [int(x) for x in ids],
                "s": [float(x) for x in sims]}).fetchall()
    assert out["vec_id"].tolist() == [r[0] for r in ref]


def test_brute_force_topk_rounded_nan_and_null_guard(ray_session):
    """Round-5 review: a NaN cosine (degenerate vector) must rank last
    without raggeding the output columns; null ids raise."""
    import pytest
    import ray.data as rd

    from snorkel_ray.stages.similarity import brute_force_topk

    vecs = [[1.0, 0.0], [0.9, 0.1], [float("nan"), 0.0], [0.0, 1.0]]
    ds = rd.from_items([{"vec_id": i, "embedding": v}
                        for i, v in enumerate(vecs)])
    out = brute_force_topk(ds, np.array([1.0, 0.0], np.float32), k=2,
                           round_digits=2).to_pandas()
    assert out["vec_id"].tolist() == [0, 1]  # NaN row ranked last

    bad = rd.from_items([{"vec_id": None, "embedding": [1.0, 0.0]}])
    with pytest.raises(Exception, match="null ids"):
        brute_force_topk(bad, np.array([1.0, 0.0], np.float32), k=1,
                         round_digits=2).to_pandas()


def test_asof_join_forward_semantics(ray_session):
    """Forward as-of join (r5): SMALLEST right ts >= left ts per key,
    inclusive at equal timestamps, null when no later right row."""
    import pandas as pd
    import ray.data as rd

    from snorkel_ray.stages.joins import asof_join

    base = pd.Timestamp("2024-01-01")
    T = lambda m: base + pd.Timedelta(minutes=m)
    left = rd.from_pandas(pd.DataFrame({
        "id": [1, 2, 3, 4, 5],
        "k": ["a", "a", "a", "b", "b"],
        "ts": [T(0), T(10), T(20), T(5), T(7)],
    })).repartition(2)
    right = rd.from_pandas(pd.DataFrame({
        "k": ["a", "a", "b"],
        "ts": [T(10), T(15), T(6)],
        "px": [1.0, 2.0, 9.0],
    })).repartition(2)

    out = (asof_join(left, right, "k", "ts", ["px"],
                     rename={"px": "next_px"}, direction="forward")
           .to_pandas().sort_values("id").reset_index(drop=True))
    got = out["next_px"].tolist()
    assert got[0] == 1.0            # earliest later right (10 over 15)
    assert got[1] == 1.0            # inclusive equal-ts match
    assert pd.isna(got[2])          # nothing at-or-after 20
    assert got[3] == 9.0            # b@5 -> b@6
    assert pd.isna(got[4])          # b@7 after the only right
    assert out["id"].dtype == np.int64

    import pytest
    with pytest.raises(ValueError):
        asof_join(left, right, "k", "ts", ["px"], direction="nearest")


def _asof_matches_duckdb(direction: str, seed: int) -> None:
    """Plain plan, chunked plan and DuckDB's native ASOF LEFT JOIN
    must agree on sparse data where the carry chases matches several
    chunks away, with null right values: a null-valued match attaches
    null and never falls through to an older (newer) right row.  Two
    hand-built keys put a null right row at a chunk boundary — "hb"
    for backward, "hf" its forward mirror — each left row there
    expecting [5.0, null, null]."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from snorkel_ray.stages.joins import asof_join

    rng = np.random.default_rng(seed)
    base = pd.Timestamp("2024-01-01")
    lrows, rrows = [], []
    eid = 0
    for uid in range(4):
        t = base
        for _ in range(200):
            t = t + pd.Timedelta(minutes=int(rng.integers(1, 4000)))
            lrows.append({"id": eid, "k": f"u{uid}", "ts": t})
            eid += 1
            if rng.random() < 0.15:
                px = None if rng.random() < 0.3 else float(rng.uniform(0, 100))
                rrows.append({"k": f"u{uid}",
                              "ts": t + pd.Timedelta(seconds=30), "px": px})
    h = pd.Timedelta("1h")
    fwd_t = base + pd.Timedelta("2D") + 20 * h
    rrows += [{"k": "hb", "ts": base, "px": 5.0},
              {"k": "hb", "ts": base + 2 * h, "px": None},
              {"k": "hf", "ts": fwd_t, "px": 5.0},
              {"k": "hf", "ts": fwd_t - 2 * h, "px": None}]
    hand = {"hb": [base + h, base + 3 * h, base + 30 * h],
            "hf": [fwd_t - h, fwd_t - 3 * h, fwd_t - 30 * h]}
    for k, times in hand.items():
        for t in times:
            lrows.append({"id": eid, "k": k, "ts": t})
            eid += 1
    ldf, rdf = pd.DataFrame(lrows), pd.DataFrame(rrows)
    left = rd.from_pandas(ldf).repartition(4)
    right = rd.from_pandas(rdf).repartition(3)

    lt, rt = pa.Table.from_pandas(ldf), pa.Table.from_pandas(rdf)
    op = "<=" if direction == "forward" else ">="
    exp = duckdb.sql(f"""
        SELECT l.id, l.k, r.px FROM lt l
        ASOF LEFT JOIN rt r ON l.k = r.k AND l.ts {op} r.ts
        ORDER BY l.id""").df()
    mirror = "hf" if direction == "forward" else "hb"
    want = exp.loc[exp["k"] == mirror, "px"].tolist()
    assert want[0] == 5.0 and pd.isna(want[1]) and pd.isna(want[2]), want

    for chunk in (None, "1D"):
        got = (asof_join(left, right, "k", "ts", ["px"],
                         direction=direction, pre_split_chunk=chunk)
               .to_pandas().sort_values("id").reset_index(drop=True))
        assert len(got) == len(exp)
        eq = ((got["px"] == exp["px"])
              | (got["px"].isna() & exp["px"].isna()))
        assert eq.all(), f"mismatch with pre_split_chunk={chunk}: " \
                         f"{got[~eq].head().to_dict('records')}"
    # the no-match case and the null-valued match both occur
    assert exp["px"].isna().sum() > 0
    assert rdf["px"].isna().sum() > 2


@pytest.mark.filterwarnings("error::FutureWarning")
def test_asof_join_forward_chunked_matches_duckdb(ray_session):
    """Forward chunked plan vs plain plan vs DuckDB ``l.ts <= r.ts``."""
    _asof_matches_duckdb("forward", 29)


@pytest.mark.filterwarnings("error::FutureWarning")
def test_asof_join_backward_chunked_matches_duckdb(ray_session):
    """Backward chunked plan vs plain plan vs DuckDB ``l.ts >= r.ts``."""
    _asof_matches_duckdb("backward", 13)
