"""Pretagged extraction (M7), featurizer+vocab (T3), dependency
selection (A6) tests."""

import numpy as np
import pyarrow as pa


def _sentences_ds(ray_session):
    import ray.data as rd

    from snorkel_ray.stages.extract import extract_batch
    from snorkel_ray.stages.sentences import sentences_batch

    pages = pa.table({
        "url": ["u1"],
        "warc_ts": pa.array([0], pa.timestamp("us")),
        "html": [b"<p>Aspirin causes severe headaches sometimes.</p>"],
        "lang": ["en"],
    })
    docs = extract_batch(pages)
    return rd.from_arrow(sentences_batch(docs))


def chem_disease_tagger(words):
    chems = {"aspirin"}
    diseases = {"headaches"}
    types, cids = [], []
    for w in words:
        lw = w.casefold()
        if lw in chems:
            types.append("CHEM")
            cids.append("C1")
        elif lw in diseases:
            types.append("DIS")
            cids.append("D1")
        else:
            types.append("O")
            cids.append("")
    return types, cids


def test_pretagged_extraction(ray_session):
    from snorkel_ray.stages.pretagged import extract_pretagged_candidates, tag_sentences

    tagged = tag_sentences(_sentences_ds(ray_session), chem_disease_tagger)
    cands = extract_pretagged_candidates(tagged, "CHEM", "DIS",
                                         pred="causes").to_pandas()
    assert len(cands) == 1
    c = cands.iloc[0]
    assert c["subj_text"] == "Aspirin" and c["obj_text"] == "headaches"
    assert c["subj_cid"] == "C1" and c["obj_cid"] == "D1"
    assert c["between_text"] == "causes severe"
    assert c["pred"] == "causes"


def test_feature_vocab_and_featurize(ray_session):
    import ray.data as rd

    from snorkel_ray.stages.features import build_feature_vocab, featurize

    rows = [
        {"between_text": "was founded by", "gap": 3, "subj_text": "Acme Corp",
         "obj_text": "Bob Smith", "pre_text": "", "pred": "founded_by"},
        {"between_text": "was founded by", "gap": 3, "subj_text": "Globex",
         "obj_text": "Ann Lee", "pre_text": "yesterday the firm", "pred": "founded_by"},
        {"between_text": "never acquired", "gap": 2, "subj_text": "Acme",
         "obj_text": "Globex", "pre_text": "", "pred": "acquired"},
    ]
    ds = rd.from_items(rows)
    vocab = build_feature_vocab(ds)
    assert "BETW_founded" in vocab and "PRED_acquired" in vocab
    # ids deterministic: most frequent first, ties lexicographic
    vocab2 = build_feature_vocab(ds)
    assert vocab == vocab2
    out = featurize(ds, vocab).to_pandas()
    assert all(len(f) > 0 for f in out["feature_ids"])
    # rows 0 and 1 share the BETW trigram features
    f0, f1, f2 = (set(x) for x in out["feature_ids"])
    assert vocab["BETW_founded"] in f0 and vocab["BETW_founded"] in f1
    assert vocab["BETW_founded"] not in f2


def test_dependency_selector(ray_session):
    import ray.data as rd

    from snorkel_ray.stages.structure import select_dependencies

    rng = np.random.default_rng(4)
    n = 3000
    y = rng.choice([-1, 1], n)

    def noisy_lf(acc):  # accuracy-`acc` LF firing at 0.7
        fires = rng.random(n) < 0.7
        correct = rng.random(n) < acc
        return np.where(fires, np.where(correct, y, -y), 0)

    lf0 = noisy_lf(0.75)
    lf1 = lf0.copy()  # exact copy: dependent
    lf2 = noisy_lf(0.75)  # independent, same accuracy
    L = np.stack([lf0, lf1, lf2], axis=1).astype(np.int8)
    ds = rd.from_items([{"cand_stable_id": str(i), "L": L[i].tolist()}
                        for i in range(n)])
    deps = select_dependencies(ds, threshold=0.3, alpha=[0.75, 0.75, 0.75])
    pairs = {(j, k) for j, k, _ in deps}
    assert (0, 1) in pairs
    assert (0, 2) not in pairs and (1, 2) not in pairs


def test_agreement_counts_nonbinary_votes(ray_session):
    """Round-4 ADVICE: the agreement kernel iterates the distinct
    nonzero vote values present — a categorical LF emitting 2 must
    count as agreement, not silently contribute zero."""
    import pyarrow as pa

    from snorkel_ray.stages.structure import _moments_batch

    L = [[2, 2], [2, 2], [0, 2], [1, 2]]
    batch = pa.table({"L": pa.array(L, pa.list_(pa.int8()))})
    agree = _moments_batch(batch)["agree"]  # K=2 -> 2x2
    # pairs agreeing on value 2: rows 0,1 -> agree[0,1] == 2
    assert agree[0, 1] == 2.0
    # self-agreement diagonals count every nonzero vote (LF0 fires on
    # 3 rows: 2,2,1; LF1 on all 4)
    assert agree[0, 0] == 3.0 and agree[1, 1] == 4.0
