"""The Ray session a benchmark run owns, and the processes it starts.

Parallelism is pinned, not detected: ``num_cpus`` is what ``nproc``
prints and the object store has a fixed size, so the task count of a
query does not follow free memory.  ``nproc`` honours
``OMP_NUM_THREADS``, which can make it smaller than the number of CPUs
the process may run on.  Peak memory is read from ``/proc``
(``psutil`` is not a dependency of the program).
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import threading
import time

OBJECT_STORE_BYTES = 512 * 1024 * 1024


def _read(path: str) -> str | None:
    try:
        with open(path, "rb") as f:
            return f.read().decode("utf-8", "replace")
    except OSError:
        return None


def _ppid_and_state(pid: int) -> tuple[int, str] | None:
    stat = _read(f"/proc/{pid}/stat")
    if stat is None:
        return None
    # the command name may hold spaces and parentheses; fields after the
    # last ')' are fixed
    rest = stat.rsplit(")", 1)[1].split()
    return int(rest[1]), rest[0]


def descendants(root: int) -> list[int]:
    """Live (non-zombie) descendant pids of ``root``."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        info = _ppid_and_state(int(name))
        if info is not None and info[1] != "Z":
            children.setdefault(info[0], []).append(int(name))
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


def _cmdline(pid: int) -> str:
    return _read(f"/proc/{pid}/cmdline") or ""


def _is_ray_worker(pid: int) -> bool:
    """A task or actor worker: renamed ``ray::<task>`` once it runs,
    ``python .../default_worker.py`` before that."""
    argv = _cmdline(pid).split("\0")
    return argv[0].startswith("ray::") or (
        len(argv) > 1 and argv[1].endswith("default_worker.py"))


def _rss_bytes(pid: int) -> int:
    statm = _read(f"/proc/{pid}/statm")
    return int(statm.split()[1]) * os.sysconf("SC_PAGE_SIZE") if statm else 0


def driver_and_workers_rss() -> int:
    """Summed RSS of this process plus the Ray worker processes below it
    that hold a task or actor.  Idle pooled workers (``ray::IDLE``) are
    left out: how many of them Ray keeps alive varies from run to run."""
    return _rss_bytes(os.getpid()) + sum(
        _rss_bytes(p) for p in descendants(os.getpid())
        if _is_ray_worker(p) and not _cmdline(p).startswith("ray::IDLE"))


class PeakRss:
    """Samples :func:`driver_and_workers_rss` on a thread until stopped."""

    def __init__(self, interval_s: float = 0.05):
        self.interval_s = interval_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, driver_and_workers_rss())
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, driver_and_workers_rss())


_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of every process below it.  Ray's
    workers are children of the raylet; one that outlives the raylet is
    then re-parented here instead of to init, so that
    :func:`descendants` (and :func:`wait_for_descendants`) still see it."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(err)}")


def _reap() -> None:
    """Collect the exit status of every child that has ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def start_ray(temp_dir: str, code_root: str) -> float:
    """Start a fresh local session pinned to ``nproc`` CPUs and a fixed
    object store, with its files under ``temp_dir``; → seconds it took.
    Workers import the program from ``code_root``."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (code_root, os.environ.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    import ray
    from ray.data import DataContext

    nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                               check=True).stdout)
    ray.init(address="local", num_cpus=nproc,
             object_store_memory=OBJECT_STORE_BYTES,
             include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, _temp_dir=temp_dir)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    # Ray Data starts its actors and more worker processes on its first
    # jobs; start them here, inside the session's start-up, so that each
    # set-up that follows does the same work
    ray.data.range(2, override_num_blocks=2).map_batches(lambda b: b).materialize()
    _wait_until_no_new_processes()
    return time.perf_counter() - t0


def _wait_until_no_new_processes() -> None:
    """Return once the set of processes below this one has not changed
    for a second (or after 15 s)."""
    quiet_s, deadline = 1.0, time.monotonic() + 15.0
    last, since = None, time.monotonic()
    while time.monotonic() < deadline:
        now = set(descendants(os.getpid()))
        if now != last:
            last, since = now, time.monotonic()
        elif time.monotonic() - since >= quiet_s:
            return
        time.sleep(0.1)


def wait_for_descendants(timeout_s: float) -> None:
    """Wait until every process below this one has exited; whatever
    outlives ``timeout_s`` is killed."""
    deadline = time.monotonic() + timeout_s
    while descendants(os.getpid()) and time.monotonic() < deadline:
        _reap()
        time.sleep(0.1)
    for pid in descendants(os.getpid()):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while descendants(os.getpid()) and time.monotonic() < deadline + 10:
        _reap()
        time.sleep(0.1)
    _reap()


def stop_ray(timeout_s: float = 30.0) -> None:
    """Shut the session down and wait until every process below this
    one has exited."""
    import ray

    ray.shutdown()
    wait_for_descendants(timeout_s)
