"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout of the repository.  One run starts a
fresh Ray session sized to ``nproc``, generates the workload's inputs
from the seed, sets up several times, measures the workload's
operation for ``--seconds`` (at least twice), checks every
output, stops the session and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The measuring is done by a child process; this one only starts it,
and once it has ended, however it ended, waits for every process
below it to exit (killing what does not) and removes the run's files.
Ray's driver can abort on an internal check, which skips every
``finally`` in the process that owns the session, and the Ray
processes would then outlive the run.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` also runs
the traced twin of the operation and reports the per-layer metrics.
Exits non-zero without a result when the program is not in the
current directory or the measuring process fails.  See BENCHMARK.json
for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

SETUP_REPS = 5
MIN_ITERATIONS = 2
WORK_DIR = ".bench_work"
# a run must end within 180 s: the measuring process gets this long,
# then SIGTERM, then SIGKILL after STOP_TIMEOUT_S, then the sweep
CHILD_TIMEOUT_S = 150.0
STOP_TIMEOUT_S = 10.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; tiny is for the smoke tests")
    # set by the supervising process for the measuring one
    p.add_argument("--work-dir", help=argparse.SUPPRESS)
    p.add_argument("--ray-dir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(wl, seed: int, work: str, tracer):
    """Generate the inputs and warm the workers up, ``SETUP_REPS`` times
    from scratch (the first also pays the worker's imports).
    → (state, seconds of each set-up)."""
    times, state = [], None
    for rep in range(SETUP_REPS):
        if state is not None:
            wl.teardown(state)
        t0 = time.perf_counter()
        with tracer.span("setup.input"):
            state = wl.make_inputs(seed, os.path.join(work, f"setup{rep}"))
        with tracer.span("setup.warmup"):
            wl.warm_up(state)
        times.append(time.perf_counter() - t0)
    return state, times


def _measure(wl, state, seconds: float):
    """Run the operation until ``seconds`` have passed and at least
    ``MIN_ITERATIONS`` ran; → (wall times, outputs, errors, peak RSS)."""
    from perfbench.session import PeakRss

    walls, outs, errors = [], [], []
    with PeakRss() as rss:
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               or len(walls) + len(errors) < MIN_ITERATIONS):
            t0 = time.perf_counter()
            try:
                out = wl.run(state)
            except Exception:
                errors.append(traceback.format_exc())
                continue
            walls.append(time.perf_counter() - t0)
            outs.append(out)
    return walls, outs, errors, rss.peak


def _layer_metrics(wl, tracer, wall_median: float, calib_s: float) -> dict:
    from perfbench.workloads import ALL_LAYERS, COUNTS, layer_metric

    # a layer this workload does not call gets an empty span: its value
    # is the boundary timer's own cost
    for name in ALL_LAYERS:
        if not any(s["name"] == name for s in tracer.spans):
            with tracer.span(name):
                pass
    self_s = tracer.self_times()
    metrics = {layer_metric(n): (self_s[n], "s") for n in ALL_LAYERS}
    metrics.update({k: (tracer.counts.get(k, 0), unit) for k, unit in COUNTS.items()})
    setup = {n: statistics.median(s["end"] - s["start"] for s in tracer.spans
                                  if s["name"] == n)
             for n in ("setup.input", "setup.warmup")}
    metrics["setup.input_s"] = (setup["setup.input"], "s")
    metrics["setup.warmup_s"] = (setup["setup.warmup"], "s")
    metrics["box.calib_s"] = (calib_s, "s")
    metrics["trace.overhead_s"] = (tracer.total(wl.layers) - wall_median, "s")
    return metrics


def run(args) -> dict | None:
    """The measuring process: one run in ``args.work_dir``, with Ray's
    session files in ``args.ray_dir``."""
    root = os.getcwd()
    sys.path.insert(0, root)
    from perfbench import session, workloads
    from perfbench.tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return None
    wl = workloads.WORKLOADS[args.workload](workloads.SIZES[args.size][args.workload])
    tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        ray_init_s = session.start_ray(args.ray_dir, root)
        state, setup_reps = _setup(wl, args.seed, args.work_dir, tracer)
        walls, outs, errors, peak = _measure(wl, state, args.seconds)
        # box-speed control and checks run untimed, after the measurement
        import bench

        calib_s = bench._calibration_sec(repeats=1)["calib_sec"]
        failures = [bad for bad in (wl.check(state, o) for o in outs) if bad]
        if args.trace:
            try:
                bad = wl.same_output(wl.traced(state, tracer), outs[0]) if outs else None
            except Exception:
                bad = traceback.format_exc()
            if bad:
                failures.append(f"traced run: {bad}")
    finally:
        session.stop_ray()
    if args.trace:
        tracer.write(os.path.join(root, WORK_DIR, f"trace-{tracer.run_id}.json"))

    print(f"{args.workload} ray_init_s={ray_init_s:.3f} calib_s={calib_s:.3f} "
          f"walls_s={[round(w, 3) for w in walls]} "
          f"setup_reps_s={[round(t, 3) for t in setup_reps]}", file=sys.stderr)
    for msg in errors + failures:
        print(msg, file=sys.stderr)
    if not walls:
        return None
    wall = statistics.median(walls)
    attempted = len(walls) + len(errors) + (1 if args.trace else 0)
    failed = len(errors) + len(failures)
    if args.trace:
        metrics = _layer_metrics(wl, tracer, wall, calib_s)
        metrics["session.ray_init_s"] = (ray_init_s, "s")
    else:
        metrics = {"wall_s": (wall, "s"),
                   "records_per_s": (state.records / wall, "1/s"),
                   "peak_rss_mb": (peak / 2**20, "MB"),
                   "setup_s": (statistics.median(setup_reps), "s")}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def supervise(argv: list[str]) -> int:
    """Run the measuring process, then stop whatever it left behind and
    remove the run's files; → exit code.  Its result line is passed on
    only when it exited cleanly."""
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "snorkel_ray")):
        print("run from the root of a checkout: ./snorkel_ray not found",
              file=sys.stderr)
        return 1
    sys.path.insert(0, root)
    from perfbench import session

    # every process the run starts stays below this one, even once its
    # own parent has exited, so the sweep below finds it
    session.adopt_orphans()
    work = os.path.join(root, WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(work)
    # Ray's socket paths must stay under the AF_UNIX limit, which a deep
    # checkout would pass: its session files go to a short private dir
    ray_dir = tempfile.mkdtemp(prefix="pb-")
    child, out = None, None
    try:
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), *argv,
             "--work-dir", work, "--ray-dir", ray_dir],
            stdout=subprocess.PIPE, text=True)
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"the measuring process ran past {CHILD_TIMEOUT_S:.0f} s; stopped",
              file=sys.stderr)
    finally:
        if child is not None and child.poll() is None:
            child.terminate()
            try:
                child.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        session.wait_for_descendants(STOP_TIMEOUT_S)
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_dir, ignore_errors=True)
    if child.returncode != 0 or out is None:
        print(f"the measuring process ended with code {child.returncode}; "
              "no result", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a stopped run still cleans up: SIGTERM unwinds through the finally
    # blocks that stop the measuring process, Ray, and remove the run's
    # files (once the session is up, ray.init's own handler does the same)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = _parse(argv)
    if args.work_dir is None:
        return supervise(argv)
    result = run(args)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
