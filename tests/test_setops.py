"""Set operations (INTERSECT/EXCEPT distinct) and GROUPING SETS."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from snorkel_ray.stages.rollup import grouping_sets_aggregate
from snorkel_ray.stages.setops import except_distinct, intersect_distinct


def _ds(rows, cols):
    return ray.data.from_arrow(
        pa.table({c: [r[i] for r in rows] for i, c in enumerate(cols)})
    ).repartition(2)


def test_intersect_single_col_distinct():
    left = _ds([(1,), (2,), (2,), (3,)], ["k"])
    right = _ds([(2,), (3,), (3,), (4,)], ["k"])
    out = intersect_distinct(left, right, ["k"]).to_pandas()
    assert sorted(out["k"]) == [2, 3]


def test_except_single_col_distinct():
    left = _ds([(1,), (2,), (2,), (3,)], ["k"])
    right = _ds([(2,), (4,)], ["k"])
    out = except_distinct(left, right, ["k"]).to_pandas()
    assert sorted(out["k"]) == [1, 3]


def test_except_empty_right_keeps_distinct_left():
    left = _ds([(1,), (1,), (2,)], ["k"])
    right = _ds([(9,)], ["k"]).filter(lambda r: False)
    out = except_distinct(left, right, ["k"]).to_pandas()
    assert sorted(out["k"]) == [1, 2]


def test_intersect_multi_col_composed_key():
    left = _ds([(1, "a"), (1, "b"), (2, "a"), (2, "a")], ["k", "s"])
    right = _ds([(1, "b"), (2, "a"), (3, "a")], ["k", "s"])
    out = intersect_distinct(left, right, ["k", "s"]).to_pandas()
    got = sorted(map(tuple, out[["k", "s"]].values.tolist()))
    assert got == [(1, "b"), (2, "a")]


def test_multi_col_key_no_separator_collision():
    # ("a|b", "c") vs ("a", "b|c") must NOT collide: the composed key
    # is length-prefixed per field
    left = _ds([("a|b", "c")], ["x", "y"])
    right = _ds([("a", "b|c")], ["x", "y"])
    out = intersect_distinct(left, right, ["x", "y"]).to_pandas()
    assert len(out) == 0


def test_intersect_different_right_col_names():
    left = _ds([(1,), (2,)], ["k"])
    right = _ds([(2,), (3,)], ["j"])
    out = intersect_distinct(left, right, ["k"], ["j"]).to_pandas()
    assert sorted(out["k"]) == [2]


def test_setop_column_count_mismatch_raises():
    left = _ds([(1,)], ["k"])
    right = _ds([(1, 2)], ["a", "b"])
    with pytest.raises(ValueError):
        intersect_distinct(left, right, ["k"], ["a", "b"])


def _gs_input():
    return _ds([("x", "p", 1.0), ("x", "q", 2.0),
                ("y", "p", 4.0), ("y", "p", 8.0)], ["a", "b", "v"])


def test_grouping_sets_exact_without_fine():
    out = grouping_sets_aggregate(
        _gs_input(), ["a", "b"], [["a"], ["b"], []],
        {"n": ("count", ""), "s": ("sum", "v")}) \
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    expect = pd.DataFrame([
        {"a": "ALL", "b": "ALL", "n": 4, "s": 15.0},
        {"a": "ALL", "b": "p", "n": 3, "s": 13.0},
        {"a": "ALL", "b": "q", "n": 1, "s": 2.0},
        {"a": "x", "b": "ALL", "n": 2, "s": 3.0},
        {"a": "y", "b": "ALL", "n": 2, "s": 12.0},
    ])
    pd.testing.assert_frame_equal(
        out[["a", "b", "n", "s"]].astype({"n": "int64"}), expect)


def test_grouping_sets_includes_fine_when_requested():
    out = grouping_sets_aggregate(
        _gs_input(), ["a", "b"], [["b", "a"]],  # order canonicalized
        {"n": ("count", "")}).to_pandas()
    got = sorted(map(tuple, out[["a", "b", "n"]].values.tolist()))
    assert got == [("x", "p", 1), ("x", "q", 1), ("y", "p", 2)]


def test_grouping_sets_validation():
    with pytest.raises(ValueError):
        grouping_sets_aggregate(_gs_input(), ["a", "b"], [],
                                {"n": ("count", "")})
    with pytest.raises(ValueError):
        grouping_sets_aggregate(_gs_input(), ["a", "b"], [["z"]],
                                {"n": ("count", "")})
    with pytest.raises(ValueError):
        grouping_sets_aggregate(_gs_input(), ["a", "b"],
                                [["a"], ["a"]], {"n": ("count", "")})


def test_setops_null_matches_null_like_sql():
    # SQL INTERSECT/EXCEPT treat NULL as equal to NULL (unlike a plain
    # equality join) — review r5: the single-column fast path used to
    # ride pc.is_in, which never matches null
    left = ray.data.from_arrow(
        pa.table({"a": pa.array([1, None, 2, 2], pa.int64())}))
    right = ray.data.from_arrow(
        pa.table({"a": pa.array([None, 2], pa.int64())}))
    exc = except_distinct(left, right, ["a"]).to_pandas()["a"].tolist()
    assert exc == [1]
    inter = intersect_distinct(left, right, ["a"]).to_pandas()
    got = sorted(inter["a"].tolist(), key=lambda v: (v != v, v))
    assert got[0] == 2 and got[1] != got[1]  # {2, NULL}


def test_setops_null_never_collides_with_sentinel_strings():
    # a genuine string value can never compose to the same key as NULL
    # (validity tag is out of band) — review r5
    left = ray.data.from_arrow(pa.table({
        "a": pa.array([None, "v1:x"], pa.string()), "b": ["x", "x"]}))
    right = ray.data.from_arrow(pa.table({
        "a": pa.array(["\x00null", "n"], pa.string()), "b": ["x", "x"]}))
    assert intersect_distinct(left, right, ["a", "b"]).count() == 0
    assert except_distinct(left, right, ["a", "b"]).count() == 2


def test_setops_binary_digest_keys():
    # digest/fingerprint columns must not be cast to utf8 (review r5:
    # non-UTF8 payloads raised ArrowInvalid in the composed key)
    left = ray.data.from_arrow(pa.table({
        "h": pa.array([b"\xde\xad\xbe\xef", b"\x00\x01", None],
                      pa.binary())}))
    right = ray.data.from_arrow(pa.table({
        "h": pa.array([b"\xde\xad\xbe\xef", None], pa.binary())}))
    got = intersect_distinct(left, right, ["h"]).to_pandas()["h"]
    assert sorted(got.tolist(), key=str) == [None, b"\xde\xad\xbe\xef"]


def test_setops_signed_zero_matches_sql():
    # SQL float equality: -0.0 = 0.0 (review r5: the string cast
    # composed them differently)
    left = ray.data.from_arrow(
        pa.table({"x": pa.array([-0.0, 1.0], pa.float64())}))
    right = ray.data.from_arrow(
        pa.table({"x": pa.array([0.0], pa.float64())}))
    assert intersect_distinct(left, right, ["x"]).count() == 1


def test_setops_distinct_collapses_signed_zero_and_nan_payloads_across_blocks():
    # the distinct step groups on the raw float column (``_setop``), not
    # on the normalized key: -0.0 / 0.0 and two NaN payloads sit in
    # different blocks, and Ray's hash aggregate must still collapse
    # each pair, or INTERSECT/EXCEPT would return duplicate rows
    nan_a, nan_b = np.array([0x7FF8000000000000, 0x7FF8000000000001],
                            np.uint64).view(np.float64)
    assert nan_a.tobytes() != nan_b.tobytes()
    left = ray.data.from_arrow([
        pa.table({"x": pa.array([-0.0, nan_a], pa.float64())}),
        pa.table({"x": pa.array([0.0, nan_b], pa.float64())})])
    right = ray.data.from_arrow(pa.table({"x": pa.array([0.0], pa.float64())}))
    inter = intersect_distinct(left, right, ["x"]).to_pandas()["x"].tolist()
    assert len(inter) == 1 and inter[0] == 0.0
    exc = except_distinct(left, right, ["x"]).to_pandas()["x"].tolist()
    assert len(exc) == 1 and np.isnan(exc[0])


from hypothesis import given, settings
from hypothesis import strategies as st

_adversarial = st.one_of(
    st.none(),
    st.text(alphabet="nv|:0x\x00", max_size=5))


@given(st.lists(st.tuples(_adversarial, _adversarial),
                min_size=1, max_size=25))
@settings(max_examples=200, deadline=None)
def test_compose_key_injective_on_adversarial_strings(rows):
    # the composed key must be equal IFF the tuples are equal, even for
    # values spelled from the encoding's own alphabet (n, v, |, :)
    from snorkel_ray.stages.setops import _SK, _compose_key

    t = pa.table({"a": pa.array([r[0] for r in rows], pa.string()),
                  "b": pa.array([r[1] for r in rows], pa.string())})
    keys = _compose_key(["a", "b"])(t).column(_SK).to_pylist()
    for i in range(len(rows)):
        for j in range(len(rows)):
            assert (keys[i] == keys[j]) == (rows[i] == rows[j])


@given(st.lists(st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0, 1.5, float("nan"), float("inf")])),
    min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_compose_key_float_sql_equality(vals):
    # SQL key equality: -0.0 = 0.0, NaN groups with NaN, NULL with NULL
    from snorkel_ray.stages.setops import _SK, _compose_key

    def sql_eq(x, y):
        if x is None or y is None:
            return x is None and y is None
        if x != x or y != y:
            return x != x and y != y
        return x == y

    t = pa.table({"x": pa.array(vals, pa.float64())})
    keys = _compose_key(["x"])(t).column(_SK).to_pylist()
    for i in range(len(vals)):
        for j in range(len(vals)):
            assert (keys[i] == keys[j]) == sql_eq(vals[i], vals[j])
