"""Spill-stress evidence run (round-4 verdict item 6): the flagship KG
pipeline and the shard-resumable minhash dedup at multi-GiB synthetic
scale under a DELIBERATELY SMALL object store, so Ray's spill path —
not RAM headroom — carries the working set.  Records wall time,
pages/s, object-store spill counters, and verifies a mid-run-killed
sharded dedup resumes (finished shards skip).

The 100x-scale claim should rest on a memory-pressure measurement, not
design reading: at 100 TB every stage's working set exceeds any node's
object store, so "streams + spills + resumes, no OOM" is the property
under test.  Results are recorded in BASELINE.md.

Usage:
    python scripts/spill_stress.py [n_pages] [object_store_gb]
Defaults: 3_000_000 pages (~9 GiB of html), 4 GiB object store.
The sharded-dedup phase runs as subprocesses of this script (the first
one SIGKILLed mid-run) so the resume evidence is a real process death.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

_IS_CHILD = "--minhash-child" in sys.argv
N_PAGES = (int(sys.argv[1]) if len(sys.argv) > 1 and not _IS_CHILD
           else 3_000_000)
OBJ_GB = (float(sys.argv[2]) if len(sys.argv) > 2 and not _IS_CHILD
          else 4.0)
WORK = "/tmp/graft_spill"
# 32 logical CPUs on a box that has them; a smaller box starts no more
# workers than it has cores
CPUS = min(32, os.cpu_count() or 1)


def spill_stats() -> dict:
    """Last 'Spilled X MiB, Y objects' line from the live session's
    raylet log (ray's memory_summary API needs grpc, absent here)."""
    import glob

    import ray

    try:
        session = ray._private.worker._global_node.get_session_dir_path()
    except Exception:
        session = "/tmp/ray/session_latest"
    spilled_mib = spilled_objects = 0
    for path in glob.glob(os.path.join(session, "logs", "raylet*.out")):
        try:
            with open(path, errors="replace") as f:
                for m in re.finditer(r"Spilled (\d+) MiB, (\d+) objects",
                                     f.read()):
                    spilled_mib = max(spilled_mib, int(m.group(1)))
                    spilled_objects = max(spilled_objects, int(m.group(2)))
        except OSError:
            continue
    return {"spilled_mib": spilled_mib, "spilled_objects": spilled_objects}


def ensure_pages(path: str) -> None:
    marker = path + ".done"
    if os.path.exists(marker):
        return
    from snorkel_ray.synth import pages_dataset

    tmp = path + ".tmp"
    for p in (tmp, path):
        if os.path.exists(p):
            shutil.rmtree(p)
    os.makedirs(tmp, exist_ok=True)
    pages_dataset(N_PAGES, 42).write_parquet(tmp)
    os.replace(tmp, path)
    with open(marker, "w") as f:
        f.write("ok")


def phase_flagship() -> dict:
    import ray

    ray.init(address="local", num_cpus=CPUS, include_dashboard=False,
             logging_level="ERROR",
             object_store_memory=int(OBJ_GB * 2**30))
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import ray.data as rd

    from snorkel_ray.pipelines.kg import run_kg_pipeline
    from snorkel_ray.synth import alias_table, build_kb

    pages_path = os.path.join(WORK, f"pages_{N_PAGES}")
    t0 = time.perf_counter()
    ensure_pages(pages_path)
    gen_sec = time.perf_counter() - t0

    kb = build_kb(42)
    at = alias_table(kb)
    bytes_on_disk = sum(
        os.path.getsize(os.path.join(pages_path, f))
        for f in os.listdir(pages_path))

    t0 = time.perf_counter()
    pages = rd.read_parquet(pages_path)
    triples, _info = run_kg_pipeline(pages, at, kb["facts"])
    n_triples = triples.count()
    wall = time.perf_counter() - t0
    out = {"phase": "flagship", "n_pages": N_PAGES,
           "parquet_gib": round(bytes_on_disk / 2**30, 2),
           "gen_sec": round(gen_sec, 1),
           "object_store_gb": OBJ_GB,
           "wall_sec": round(wall, 1),
           "pages_per_sec": round(N_PAGES / wall, 1),
           "n_triples": n_triples, **spill_stats()}
    ray.shutdown()
    return out


def phase_minhash_child(root: str) -> None:
    """Child entry: run the sharded minhash to completion (or death)."""
    import ray

    ray.init(address="local", num_cpus=CPUS, include_dashboard=False,
             logging_level="ERROR",
             object_store_memory=int(OBJ_GB * 2**30))
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import ray.data as rd

    from snorkel_ray.state.sharded import run_minhash_dedup_sharded

    docs_path = os.path.join(WORK, f"docs_{N_PAGES}")
    paths = sorted(os.path.join(docs_path, f)
                   for f in os.listdir(docs_path)
                   if f.endswith(".parquet"))
    # docs (EXTRACTED text — pages.text is empty by schema; minhash on
    # it degenerates to one giant cluster) — the realistic curation
    # input.  docs is consumed by the global step's Jaccard
    # verification; the signature phase shards via input_paths.
    docs = rd.read_parquet(docs_path).select_columns(["url", "text"])
    clusters, manifests = run_minhash_dedup_sharded(
        docs, root, column="text", id_column="url", num_shards=8,
        num_perm=32, bands=8, threshold=0.8, input_paths=paths)
    n = clusters.count()
    print(json.dumps({"clusters_rows": n,
                      "skipped": [m.get("skipped", False)
                                  for m in manifests],
                      **spill_stats()}))
    ray.shutdown()


def ensure_docs() -> None:
    """Persist the extracted-docs corpus (url, text) once — the
    realistic near-dedup input; reused across runs like the pages."""
    docs_path = os.path.join(WORK, f"docs_{N_PAGES}")
    marker = docs_path + ".done"
    if os.path.exists(marker):
        return
    import ray

    ray.init(address="local", num_cpus=CPUS, include_dashboard=False,
             logging_level="ERROR",
             object_store_memory=int(OBJ_GB * 2**30))
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import ray.data as rd

    from snorkel_ray.stages.extract import extract_docs

    tmp = docs_path + ".tmp"
    for p in (tmp, docs_path):
        if os.path.exists(p):
            shutil.rmtree(p)
    os.makedirs(tmp, exist_ok=True)
    pages = rd.read_parquet(os.path.join(WORK, f"pages_{N_PAGES}"))
    extract_docs(pages).select_columns(["url", "text"]).write_parquet(tmp)
    os.replace(tmp, docs_path)
    with open(marker, "w") as f:
        f.write("ok")
    ray.shutdown()


def phase_minhash() -> dict:
    """Run sharded minhash twice: first run SIGKILLed mid-run, second
    must skip the finished shards and complete."""
    ensure_docs()
    root = os.path.join(WORK, "minhash_sharded")
    if os.path.exists(root):
        shutil.rmtree(root)

    cmd = [sys.executable, os.path.abspath(__file__), "--minhash-child",
           root, str(N_PAGES), str(OBJ_GB)]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    # let some (not all) shards finish, then kill the process hard
    kill_after = float(os.environ.get("GRAFT_SPILL_KILL_SEC", "90"))
    time.sleep(kill_after)
    killed = p.poll() is None
    if killed:
        p.send_signal(signal.SIGKILL)
        p.wait()
    shards_done_at_kill = _count_done_shards(root)

    t0 = time.perf_counter()
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    resume_sec = time.perf_counter() - t0
    child = json.loads(out.stdout.strip().splitlines()[-1])
    return {"phase": "minhash_sharded_resume",
            "killed_first_run": killed,
            "kill_after_sec": kill_after,
            "shards_done_at_kill": shards_done_at_kill,
            "resumed_skipped_shards": sum(child["skipped"]),
            "total_shards": len(child["skipped"]),
            "resume_wall_sec": round(resume_sec, 1),
            "clusters_rows": child["clusters_rows"],
            "spilled_mib_resume_run": child["spilled_mib"]}


def _count_done_shards(root: str) -> int:
    stage = os.path.join(root, "minhash_sigs")
    if not os.path.isdir(stage):
        return 0
    return sum(1 for d in os.listdir(stage)
               if os.path.isfile(os.path.join(stage, d, "_manifest.json")))


if __name__ == "__main__":
    if "--minhash-child" in sys.argv:
        i = sys.argv.index("--minhash-child")
        root = sys.argv[i + 1]
        N_PAGES = int(sys.argv[i + 2])
        OBJ_GB = float(sys.argv[i + 3])
        phase_minhash_child(root)
        sys.exit(0)
    os.makedirs(WORK, exist_ok=True)
    results = [phase_flagship()]
    print(json.dumps(results[0]))
    results.append(phase_minhash())
    print(json.dumps(results[1]))
