"""Per-stage checkpoint manifests → mid-pipeline resume (north rule).

The reference's only checkpoint is the RDBMS itself — every
``UDFRunner.apply`` commits ORM rows and ``clear=True`` wipes a stage
(``snorkel/udf.py`` ≈L40–150).  Here each stage writes partitioned
Parquet under ``<root>/<stage>/`` plus ``_manifest.json`` recording the
stage's FINGERPRINT (hash of input fingerprint + stage name + params +
code version), row count and counters.  A rerun recomputes a stage only
when its fingerprint changed; otherwise it re-opens the parquet
(lineage-accurate skip).  Writes are atomic: data lands in
``<stage>.tmp/`` and is renamed over the final dir before the manifest
is written, so a killed run can never leave a half-stage that passes
the fingerprint check (FIXTURES.md F7).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field

CODE_VERSION = "3"  # bump to invalidate all checkpoints on semantic change


def _ensure_parquet_dir(tmp: str, ds) -> None:
    """``write_parquet`` of an EMPTY dataset writes nothing at all (not
    even the directory) — a resumed run would then fail to read the
    checkpoint.  Materialize an empty parquet file with the dataset's
    schema (or a zero-column one when the schema is unknowable)."""
    if os.path.exists(tmp) and any(f.endswith(".parquet") for f in os.listdir(tmp)):
        return
    os.makedirs(tmp, exist_ok=True)
    import pyarrow as pa
    import pyarrow.parquet as pq

    try:
        s = ds.schema(fetch_if_missing=True)
        base = getattr(s, "base_schema", None)
        schema = base if isinstance(base, pa.Schema) else \
            pa.schema(list(zip(s.names, s.types)))
    except Exception:
        schema = pa.schema([])
    pq.write_table(schema.empty_table(), os.path.join(tmp, "empty.parquet"))


def atomic_write_parquet(ds, out_dir: str):
    """Overwrite-safe parquet write: data lands in ``<out_dir>.tmp`` and
    replaces the final dir in one rename.  ``write_parquet`` alone uses
    per-run unique filenames, so writing twice to the same dir APPENDS a
    full duplicate part-file set — a resumed/repeated run would silently
    double the persisted artifact (round-1 ADVICE, verified on ray
    2.49.2).  Returns a Dataset re-opened from the final dir."""
    import ray.data as rd

    tmp = out_dir.rstrip("/") + ".tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    ds.write_parquet(tmp)
    _ensure_parquet_dir(tmp, ds)
    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    os.replace(tmp, out_dir)
    return rd.read_parquet(out_dir)


def atomic_stage_write(ds, final: str) -> int:
    """Shared atomic stage write (round-5 review: CheckpointedPipeline
    and the sharded runner carried drifting copies): write to
    ``<final>.tmp`` on an EXPLICIT LocalFileSystem (concurrent driver
    threads race pyarrow/fsspec filesystem inference — the documented
    fsspec-http crash the sharded copy fixed and this copy had not),
    count rows from the written file metadata (no recompute), clear +
    rename into place.  → row count."""
    import pyarrow.parquet as pq

    from pyarrow.fs import LocalFileSystem

    tmp = final + ".tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    ds.write_parquet(tmp, filesystem=LocalFileSystem())
    _ensure_parquet_dir(tmp, ds)
    rows = 0
    for f in os.listdir(tmp):
        if f.endswith(".parquet"):
            rows += pq.ParquetFile(os.path.join(tmp, f)).metadata.num_rows
    if os.path.exists(final):
        shutil.rmtree(final)
    os.replace(tmp, final)
    return rows


def write_manifest(path: str, payload: dict) -> None:
    """Atomic manifest write (tmp + rename): a run killed mid-write
    must leave either no manifest or a complete one — a truncated
    ``_manifest.json`` used to make every subsequent resume raise
    ``JSONDecodeError`` instead of recomputing (round-4 review)."""
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=1)
    os.replace(tmp, path)


def load_manifest(path: str) -> dict | None:
    """Manifest read that treats corrupt/unreadable JSON as absent
    (the stage recomputes) instead of crashing the resume."""
    if not os.path.exists(path):
        return None
    try:
        with open(path) as f:
            return json.load(f)
    except (json.JSONDecodeError, OSError):
        return None


def fingerprint(*parts: object) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(repr(p).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _skip_or_build(final: str, fp: str, build, fields: dict) -> dict:
    """THE skip-or-build step of every checkpointed stage dir (the
    streaming stages and each shard of the sharded runners).

    A ``_manifest.json`` whose fingerprint equals ``fp`` means the dir
    is complete: return it with ``skipped=True``.  Otherwise clear a
    stale or manifest-less dir (a run killed between the data rename
    and the manifest write leaves one), run ``build()`` → Dataset,
    write it atomically and record ``fp``, ``fields``, row count and
    timing in the manifest.  → the manifest dict."""
    mpath = os.path.join(final, "_manifest.json")
    m = load_manifest(mpath)  # corrupt/truncated -> recompute
    if m is not None and m.get("fingerprint") == fp:
        return {**m, "skipped": True}
    if os.path.exists(final):
        shutil.rmtree(final)
    t0 = time.perf_counter()
    rows = atomic_stage_write(build(), final)
    wall = time.perf_counter() - t0
    m = {"fingerprint": fp, **fields, "rows": rows,
         "wall_sec": round(wall, 3),
         "rows_per_sec": round(rows / wall, 1) if wall > 0 else None,
         "code_version": CODE_VERSION, "skipped": False}
    write_manifest(mpath, m)
    return m


@dataclass
class StageResult:
    name: str
    fingerprint: str
    path: str | None
    rows: int | None
    skipped: bool


@dataclass
class CheckpointedPipeline:
    """Orchestrates a linear chain of Dataset stages with skip-on-match.

    ``root=None`` disables checkpointing entirely (stages just run);
    used by unit tests and by purely-streaming invocations.
    """

    root: str | None
    input_fingerprint: str
    log: list[StageResult] = field(default_factory=list)

    def stage(self, name: str, params: dict, build, prev_fp: str | None = None):
        """Run (or skip) one stage.

        ``build()`` must return a ``ray.data.Dataset``. Returns
        ``(dataset, stage_fingerprint)``. When checkpointing is on, the
        returned dataset reads from the stage's parquet dir — i.e. the
        stage is a pipeline barrier, which is exactly what makes it a
        resume point.
        """
        import ray.data as rd

        fp = fingerprint(prev_fp or self.input_fingerprint, name, sorted(params.items()),
                         CODE_VERSION)
        if self.root is None:
            ds = build()
            self.log.append(StageResult(name, fp, None, None, False))
            return ds, fp

        final = os.path.join(self.root, name)
        m = _skip_or_build(final, fp, build, {
            "stage": name, "params": {k: repr(v) for k, v in params.items()}})
        self.log.append(StageResult(name, fp, final, m["rows"], m["skipped"]))
        return rd.read_parquet(final), fp

    def summary(self) -> list[dict]:
        return [{"stage": r.name, "skipped": r.skipped, "rows": r.rows} for r in self.log]
