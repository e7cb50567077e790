"""Document source adapters (SURVEY.md S1–S7).

Reference: ``snorkel/parser/doc_preprocessors.py`` — generator classes
yielding ``(Document, text)`` in the driver.  Here every source is a
Ray Data read composed with a vectorized decode step, producing the
uniform docs-ish schema ``(url, doc_id, text, meta_json)``.  ``max_docs``
(S1's cap) maps to ``.limit(n)`` — applied BEFORE the decode map so the
read prunes.
"""

from __future__ import annotations

import json
import os
import xml.etree.ElementTree as ET

import numpy as np
import pyarrow as pa

from ..functions.ids import doc_id_of_url


def _docs_table(names: list[str], texts: list[str], metas: list[str] | None = None) -> pa.Table:
    ids = np.fromiter((doc_id_of_url(n) for n in names), dtype=np.uint64, count=len(names))
    return pa.table(
        {
            "url": pa.array(names, pa.string()),
            "doc_id": pa.array(ids, pa.uint64()),
            "text": pa.array(texts, pa.string()),
            "meta_json": pa.array(metas or ["{}"] * len(names), pa.string()),
        }
    )


def read_tsv_docs(path: str | list[str], *, max_docs: int | None = None):
    """S2 ``TSVDocPreprocessor``: one doc per line ``name\\ttext``."""
    import ray.data as rd

    ds = rd.read_text(path)
    if max_docs is not None:
        ds = ds.limit(max_docs)

    def _parse(batch: pa.Table) -> pa.Table:
        names, texts = [], []
        for line in batch.column("text").to_pylist():
            if not line.strip():
                continue
            name, _, body = line.partition("\t")
            names.append(name)
            texts.append(body)
        return _docs_table(names, texts)

    return ds.map_batches(_parse, batch_format="pyarrow")


def read_text_docs(paths: str | list[str], *, max_docs: int | None = None):
    """S3 ``TextDocPreprocessor``: one doc per file."""
    import ray.data as rd

    ds = rd.read_binary_files(paths, include_paths=True)
    if max_docs is not None:
        ds = ds.limit(max_docs)

    def _decode(batch: pa.Table) -> pa.Table:
        paths_ = batch.column("path").to_pylist()
        names = [os.path.splitext(os.path.basename(p))[0] for p in paths_]
        texts = [bytes(b).decode("utf-8", errors="replace")
                 for b in batch.column("bytes").to_pylist()]
        return _docs_table(names, texts)

    return ds.map_batches(_decode, batch_format="pyarrow")


def read_csv_paths_docs(csv_path: str, *, column: str = "path",
                        max_docs: int | None = None):
    """S4 ``CSVPathsPreprocessor``: a CSV of file paths → one doc per
    referenced file (paths resolved inside the map — distributed open)."""
    import ray.data as rd

    paths = rd.read_csv(csv_path)
    if max_docs is not None:
        paths = paths.limit(max_docs)

    def _open(batch: pa.Table) -> pa.Table:
        names, texts = [], []
        for p in batch.column(column).to_pylist():
            with open(p, "rb") as f:
                texts.append(f.read().decode("utf-8", errors="replace"))
            names.append(os.path.splitext(os.path.basename(p))[0])
        return _docs_table(names, texts)

    return paths.map_batches(_open, batch_format="pyarrow")


def read_html_docs(paths: str | list[str], *, max_docs: int | None = None):
    """S6 ``HTMLDocPreprocessor`` over files (the flagship pages path
    reads parquet instead; this adapter covers directory-of-.html)."""
    import ray.data as rd

    from ..stages.extract import html_to_text

    ds = rd.read_binary_files(paths, include_paths=True)
    if max_docs is not None:
        ds = ds.limit(max_docs)

    def _decode(batch: pa.Table) -> pa.Table:
        paths_ = batch.column("path").to_pylist()
        names = [os.path.splitext(os.path.basename(p))[0] for p in paths_]
        texts = [html_to_text(bytes(b)) for b in batch.column("bytes").to_pylist()]
        return _docs_table(names, texts)

    return ds.map_batches(_decode, batch_format="pyarrow")


def read_xml_multidocs(paths: str | list[str], *, doc_xpath: str = ".//document",
                       id_xpath: str = "id", text_xpath: str = "text",
                       max_docs: int | None = None):
    """S7 ``XMLMultiDocPreprocessor``: one XML file → many docs.
    stdlib ElementTree (no lxml in env); xpaths are ET-limited paths."""
    import ray.data as rd

    ds = rd.read_binary_files(paths, include_paths=True)

    def _explode(batch: pa.Table) -> pa.Table:
        names, texts, metas = [], [], []
        for path, raw in zip(batch.column("path").to_pylist(),
                             batch.column("bytes").to_pylist()):
            root = ET.fromstring(bytes(raw).decode("utf-8", errors="replace"))
            for i, el in enumerate(root.findall(doc_xpath)):
                did = el.findtext(id_xpath) or ""
                txt = " ".join(t.strip() for t in el.find(text_xpath).itertext()) \
                    if el.find(text_xpath) is not None else ""
                # id-less docs get basename#index: a shared bare
                # basename gave DISTINCT docs identical url/doc_id,
                # conflating them in every downstream dedup/join
                # (round-5 review)
                names.append(did or f"{os.path.basename(path)}#{i}")
                texts.append(txt)
                metas.append(json.dumps({"source_file": os.path.basename(path)}))
        return _docs_table(names, texts, metas)

    out = ds.map_batches(_explode, batch_format="pyarrow")
    if max_docs is not None:
        out = out.limit(max_docs)
    return out


def read_jsonl_docs(path: str | list[str], *,
                    name_field: str = "url", text_field: str = "text",
                    max_docs: int | None = None):
    """JSONL corpus source (the de-facto web-crawl interchange format:
    one JSON object per line).  Beyond the reference's S-family
    (nearest: S2 TSV, ``snorkel/parser/doc_preprocessors.py`` ≈L40) —
    webtext pipelines ingest JSONL shards, so this engine must too.

    Lines are parsed with stdlib ``json`` inside ``map_batches`` (the
    decode is distributed); every non-name/text field rides along in
    ``meta_json``.  Malformed lines are skipped, not fatal — a 100-TB
    crawl always has a few."""
    import ray.data as rd

    ds = rd.read_text(path)
    if max_docs is not None:
        ds = ds.limit(max_docs)

    def _parse(batch: pa.Table) -> pa.Table:
        names, texts, metas = [], [], []
        for line in batch.column("text").to_pylist():
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(obj, dict):
                continue  # valid JSON but not a record ('null', arrays
                #           — crawl junk); skip per the contract above
            names.append(str(obj.get(name_field, "")))
            texts.append(str(obj.get(text_field, "")))
            metas.append(json.dumps(
                {k: v for k, v in obj.items()
                 if k not in (name_field, text_field)},
                sort_keys=True))
        return _docs_table(names, texts, metas)

    return ds.map_batches(_parse, batch_format="pyarrow")


def _publish(out_dir: str, name: str, payload: bytes) -> str:
    """Write ``payload`` to ``out_dir/name`` atomically: a tmp file of
    this writer's own, then ``os.replace``.  Two writers whose blocks
    serialize to the same bytes share the content name, and a shared
    tmp name could be renamed away under the second writer."""
    import uuid

    path = os.path.join(out_dir, name)
    tmp = os.path.join(out_dir, f".{name}.{os.getpid()}-{uuid.uuid4().hex}.tmp")
    with open(tmp, "wb") as f:
        f.write(payload)
    os.replace(tmp, path)
    return path


def write_jsonl(ds, out_dir: str, *, columns: list[str] | None = None,
                overwrite: bool = True, salt_shards: bool = False):
    """JSONL sink: one shard file per block, named by the shard's
    CONTENT HASH (``part-<blake2b(payload)>.jsonl``), written via
    temp+rename.  Determinism is the idempotence mechanism (ADVICE
    r3 — uuid names meant a Ray task retry / lineage re-execution
    left a second copy of the shard behind):

    - a task retry re-serializes the same block → same name → the
      rename replaces the half/duplicate file instead of adding one;
    - a re-run into an existing directory first CLEARS previous
      ``part-*.jsonl`` shards (``overwrite=True``, default) or raises
      ``FileExistsError`` (``overwrite=False``) — it never appends.

    Caveat (default): two distinct blocks with byte-identical
    serialized content collapse to one shard (their rows are identical,
    but multiplicity across blocks is lost).  ``salt_shards=True``
    (round-4 verdict item 8) restores multiplicity: the tasks still
    write content-named files (so retry idempotence is untouched), and
    the DRIVER then re-materializes the j-th manifest occurrence of a
    collapsed name as its own copy ``part-<digest>-<j>.jsonl`` — the
    manifest has exactly one row per logical block, so the fixup is
    deterministic.  Columns default to all; values must be
    JSON-serializable (timestamps stringify)."""
    import glob as _glob
    import hashlib as _hashlib
    import os as _os

    _os.makedirs(out_dir, exist_ok=True)
    stale = _glob.glob(_os.path.join(out_dir, "part-*.jsonl"))
    if stale and not overwrite:
        raise FileExistsError(
            f"write_jsonl: {out_dir} already holds {len(stale)} "
            "shard(s); pass overwrite=True to replace them")
    # also clear orphaned '.part-*.tmp' writer files from a killed run
    for p in stale + _glob.glob(_os.path.join(out_dir, ".part-*.tmp")):
        _os.remove(p)

    def _write(batch: pa.Table) -> pa.Table:
        cols = columns or batch.schema.names
        rows = pa.table({c: batch.column(c) for c in cols}).to_pylist()
        payload = "".join(
            json.dumps(r, default=str, sort_keys=True) + "\n"
            for r in rows).encode()
        digest = _hashlib.blake2b(payload, digest_size=16).hexdigest()
        path = _publish(out_dir, f"part-{digest}.jsonl", payload)
        return pa.table({"path": pa.array([path], pa.string()),
                         "n_rows": pa.array([len(rows)], pa.int64())})

    # consume the manifest so the write executes; return it for audit.
    import ray.data as rd

    mdf = ds.map_batches(_write, batch_format="pyarrow").to_pandas()
    if mdf.empty:
        import pandas as pd

        # zero-row input: _write never ran; an empty to_pandas() loses
        # even the column names (round-5 review: salt mode raised
        # KeyError 'path') — return a schema-stable empty manifest
        mdf = pd.DataFrame({"path": pd.Series([], dtype=str),
                            "n_rows": pd.Series([], dtype="int64")})
    if salt_shards:
        # restore block multiplicity: copy the j-th occurrence of a
        # collapsed content name to its own file (driver-side; the
        # manifest is one row per logical block by construction)
        import shutil as _shutil

        out_paths, seen = [], {}
        for p in mdf["path"]:
            k = seen.get(p, 0)
            seen[p] = k + 1
            if k == 0:
                out_paths.append(p)
            else:
                root, ext = _os.path.splitext(p)
                q = f"{root}-{k}{ext}"
                _shutil.copyfile(p, q)
                out_paths.append(q)
        mdf = mdf.assign(path=out_paths)
    else:
        # byte-identical blocks collapse to ONE shard (same content
        # hash) — dedup their manifest rows so the audit matches the
        # directory instead of double-counting (round-4 review)
        mdf = mdf.drop_duplicates("path")
    mdf = mdf.reset_index(drop=True)
    # explicit schema: rd.from_pandas on a ZERO-ROW object-dtype frame
    # drops the columns entirely (round-5 review)
    mt = pa.Table.from_pandas(
        mdf, schema=pa.schema([("path", pa.string()),
                               ("n_rows", pa.int64())]),
        preserve_index=False)
    return rd.from_arrow(mt).materialize()


def read_parquet_pruned(path: str | list[str], *, columns: list[str] | None = None,
                        filter=None, **kwargs):
    """Column- AND predicate-pruned parquet read (round-3 verdict item
    6 — selective WHERE clauses used to run in ``map_batches`` after
    the read).  ``filter`` is a ``pyarrow.dataset`` expression (e.g.
    ``pyarrow.dataset.field("n_chars") > 300``) evaluated INSIDE the
    scan: row groups whose min/max statistics exclude the predicate
    are skipped entirely and non-matching rows never leave storage —
    at 100 TB a date-range filter this way reads a fraction of the
    bytes the post-read filter pays for."""
    import ray.data as rd

    return rd.read_parquet(path, columns=columns, filter=filter, **kwargs)
