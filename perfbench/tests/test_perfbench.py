"""Smoke tests of the benchmark itself.

    python -m pytest perfbench/tests -q

The checker tests need no Ray session.  The workload tests run
``perfbench/run.py`` in fresh processes at tiny input size (a few
minutes in all).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np
import pyarrow as pa
import pytest

from perfbench import checks, inputs, session
from perfbench.workloads import EXACT_COUNTS, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _run(workload: str, trace: int, cwd: str = ROOT, seed: int = 5):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return p


def _result(p) -> dict:
    assert p.returncode == 0, p.stderr[-3000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# checkers reject a wrong answer (the checker's input is corrupted, never
# the program)
# ---------------------------------------------------------------------------

def test_triples_check_rejects_missing_and_extra_triples():
    _, _, expected = inputs.pages_table(200, 3)
    assert checks.check_triples(expected, expected) is None
    assert checks.check_triples(expected.slice(0, expected.num_rows // 2), expected)
    wrong = pa.table({"subj_qid": ["Q999"] * expected.num_rows,
                      "pred": expected["pred"], "obj_qid": expected["obj_qid"]})
    assert checks.check_triples(pa.concat_tables([expected, wrong]), expected)
    assert checks.check_same_table(expected.slice(1), expected, "t")


def test_events_oracle_check_rejects_a_changed_value():
    events = inputs.events_table(500, 8, 3)
    oracles = checks.events_oracles(events, tumble_us=3_600_000_000,
                                    gap_us=7_200_000_000, window=3,
                                    categories=inputs.CATEGORIES)
    for op, oracle in oracles.items():
        assert checks.check_against_oracle(op, oracle, oracle) is None, op
        col = oracle.column_names[-1]
        vals = oracle[col].to_pylist()
        i = next(k for k, v in enumerate(vals) if v is not None)
        vals[i] = vals[i] + 1
        bad = oracle.set_column(oracle.num_columns - 1, col,
                                pa.array(vals, oracle[col].type))
        assert checks.check_against_oracle(op, bad, oracle), op
        assert checks.check_against_oracle(op, oracle.slice(1), oracle), op


def test_dedup_checks_reject_wrong_survivors_and_clusters():
    docs, group = inputs.near_dup_corpus(3, singles=10, clusters=3, cluster_size=3,
                                         chains=1, chain_len=8, exact_copies=4)
    texts = docs["text"].to_pylist()
    first = {}
    for i, t in zip(docs["doc_id"].to_pylist(), texts):
        first.setdefault(t, i)
    keep = [i for i, t in zip(docs["doc_id"].to_pylist(), texts) if first[t] == i]
    kept = docs.filter(pa.array(np.isin(docs["doc_id"].to_numpy(), keep)))
    assert checks.check_exact_dedup(docs, kept) is None
    assert checks.check_exact_dedup(docs, kept.slice(1))
    assert checks.check_exact_dedup(docs, docs)  # copies not removed
    expected = checks.expected_clusters(docs, group, keep)
    good = pa.table({"doc_id": list(expected), "cluster": list(expected.values())})
    assert checks.check_clusters(good, expected) is None
    labels = list(expected.values())
    labels[0] = "merged"
    bad = pa.table({"doc_id": list(expected), "cluster": labels})
    assert checks.check_clusters(bad, expected)


def test_inputs_repeat_for_a_seed():
    assert inputs.events_table(300, 6, 9).equals(inputs.events_table(300, 6, 9))
    a, ga = inputs.near_dup_corpus(9, singles=5, clusters=2, cluster_size=3,
                                   chains=1, chain_len=6, exact_copies=2)
    b, gb = inputs.near_dup_corpus(9, singles=5, clusters=2, cluster_size=3,
                                   chains=1, chain_len=6, exact_copies=2)
    assert a.equals(b) and (ga == gb).all()
    assert inputs.pages_table(50, 9)[0].equals(inputs.pages_table(50, 9)[0])


# ---------------------------------------------------------------------------
# every workload at tiny size: all metrics present with their units,
# outputs correct, exact counts repeating across two traced runs
# ---------------------------------------------------------------------------

def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _leftovers() -> set[str]:
    """Files a run must remove: its work dir and Ray's session dir."""
    return set(glob.glob(os.path.join(ROOT, ".bench_work", "run-*"))
               + glob.glob(os.path.join(tempfile.gettempdir(), "pb-*")))


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().decode("utf-8", "replace")
    except OSError:
        return ""


def _ray_processes() -> set[int]:
    """Live Ray daemons and workers on this machine, whatever their parent."""
    return {int(n) for n in os.listdir("/proc") if n.isdigit()
            and (_cmdline(int(n)).startswith("ray::") or "/ray/" in _cmdline(int(n)))}


def test_an_orphan_stays_below_the_run():
    """A process whose parent exits first (as a Ray worker does when the
    raylet goes before it) is still found, so the run can wait for it."""
    code = (
        "import os, subprocess, time\n"
        "from perfbench import session\n"
        "session.adopt_orphans()\n"
        "mid = subprocess.Popen(['sh', '-c', 'sleep 30 & echo $!'],\n"
        "                       stdout=subprocess.PIPE, text=True)\n"
        "orphan = int(mid.stdout.readline())\n"
        "mid.wait()\n"
        "time.sleep(0.2)\n"
        "found = orphan in session.descendants(os.getpid())\n"
        "os.kill(orphan, 9)\n"
        "os.waitpid(orphan, 0)\n"
        "print(found)\n")
    p = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                       capture_output=True, text=True, timeout=60)
    assert p.returncode == 0, p.stderr
    assert p.stdout.split() == ["True"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_tiny(workload):
    before, ray_before = _leftovers(), _ray_processes()
    r = _result(_run(workload, 0))
    assert _leftovers() <= before
    assert not _ray_processes() - ray_before, "a Ray process outlived the run"
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 2
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in r["metrics"].items()} == units
    assert all(v["value"] > 0 for v in r["metrics"].values())

    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    traced = [_result(_run(workload, 1)) for _ in range(2)]
    for t in traced:
        assert t["correct"] and t["failed"] == 0
        assert {k: v["unit"] for k, v in t["metrics"].items()} == units
    for name in EXACT_COUNTS:
        assert traced[0]["metrics"][name] == traced[1]["metrics"][name], name


def test_a_killed_measuring_process_leaves_nothing_running():
    """Ray's driver can abort on an internal check, which runs no
    ``finally``; the run must still stop every Ray process, remove its
    files and print no result."""
    before, ray_before = _leftovers(), _ray_processes()
    p = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "events_keyed", "--seed", "5",
         "--seconds", "60", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    measuring, deadline = None, time.monotonic() + 120
    while measuring is None and time.monotonic() < deadline:
        for pid in session.descendants(p.pid):
            # a task or actor worker is up: a child of the raylet
            if "--work-dir" in _cmdline(pid) and any(
                    _cmdline(c).startswith("ray::") for c in session.descendants(pid)):
                measuring = pid
        time.sleep(0.2)
    assert measuring is not None, "no Ray worker came up under the measuring process"
    os.kill(measuring, signal.SIGKILL)
    out, err = p.communicate(timeout=120)
    assert p.returncode != 0 and not out.strip(), err[-3000:]
    assert _leftovers() <= before
    assert not _ray_processes() - ray_before, "a Ray process outlived the run"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run("kg_stream", 0, cwd=str(tmp_path))
    assert p.returncode != 0
    assert not p.stdout.strip()
