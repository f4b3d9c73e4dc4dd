"""Out-of-core columnar dataset store: encode once, memory-map forever.

Every hot path in the engine — the compiled evaluator's stacked mask
product, the chunked scan path, presorted tree building — reduces to
sequential scans over a few flat arrays.  This module stores those
arrays on disk, one aligned ``.npy`` file per column (``X`` / ``y`` /
``sensitive`` / each per-row extra), plus a JSON manifest carrying
dtypes, shapes, and the dataset's content fingerprint.  Opening a store
yields a :class:`ColumnarDataset` whose columns are read-only
``np.memmap`` views: solves stream blocks straight off the maps and
never materialize the matrix, so dataset size is bounded by disk, not
RAM.

The manifest records the **same fingerprint** ``Dataset.fingerprint``
(v2) computes in memory: the encoder streams the identical
``tag|dtype|shape|bytes`` framing through SHA1 block by block.  A
columnar-opened dataset therefore keys the persistent fit and solution
stores identically to its in-memory twin — an encode → solve → re-solve
round trip through :class:`repro.store.SolutionCache` costs zero fits.

Corruption discipline matches :class:`repro.store.CacheStore`: a
missing, truncated, or inconsistent store **warns and refuses to open**
(:class:`ColumnarFormatError`) — it never returns wrong counts.  The
manifest is untrusted input: every field is type-checked, and each
column must live in the file the writer names for its tag, before any
column is opened.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import warnings
from dataclasses import dataclass, field

import numpy as np

from .schema import Dataset

__all__ = [
    "ColumnarDataset",
    "ColumnarFormatError",
    "ColumnarWriter",
    "encode_dataset",
    "encode_scenario",
    "open_columnar",
]

FORMAT = "repro-columnar/v1"
MANIFEST_NAME = "manifest.json"

# default rows per encode/fingerprint block — bounds encoder memory to
# O(block × columns) regardless of store size
DEFAULT_CHUNK_ROWS = 65_536

# chunk metadata keys iter_scenario_chunks injects per chunk; they
# describe the chunking, not the rows, and never reach the store
_CHUNK_META = ("chunk_start", "chunk_rows", "total_rows")


class ColumnarFormatError(RuntimeError):
    """A columnar store is missing, corrupt, or inconsistent."""


def _refuse(root, reason):
    warnings.warn(
        f"columnar store at {root} refused: {reason}",
        RuntimeWarning,
        stacklevel=3,
    )
    raise ColumnarFormatError(f"{root}: {reason}")


# -- fingerprint streaming ----------------------------------------------------


def _stream_digest_array(digest, tag, arr, chunk_rows=DEFAULT_CHUNK_ROWS):
    """Feed ``arr`` into ``digest`` with ``Dataset._digest_array`` framing.

    The frame is ``tag|dtype|shape|bytes``; the byte payload is streamed
    in row blocks so the full array is never resident.  Blocks of a
    C-contiguous array concatenate to exactly ``arr.tobytes()``, which
    keeps this bit-identical to the in-memory framing.
    """
    digest.update(f"{tag}|{arr.dtype.str}|{arr.shape}|".encode())
    if arr.ndim == 0:
        digest.update(np.ascontiguousarray(arr).tobytes())
        return
    for start in range(0, len(arr), chunk_rows):
        block = np.ascontiguousarray(arr[start:start + chunk_rows])
        digest.update(block.tobytes())


def streaming_fingerprint(name, sensitive_attribute, columns,
                          chunk_rows=DEFAULT_CHUNK_ROWS):
    """``Dataset.fingerprint`` (v2) computed in bounded memory.

    ``columns`` maps tag → array for ``X`` / ``y`` / ``sensitive`` and
    any per-row extras (already tagged ``extra:<key>``).  The digest is
    bit-identical to the in-memory method because the framing, the
    ordering (core columns first, extras sorted by key), and the header
    bytes are the same.
    """
    digest = hashlib.sha1()
    digest.update(b"dataset-fingerprint-v2\x00")
    digest.update(name.encode() + b"\x00")
    digest.update(sensitive_attribute.encode() + b"\x00")
    for tag in ("X", "y", "sensitive"):
        _stream_digest_array(digest, tag, columns[tag], chunk_rows)
    for tag in sorted(k for k in columns if k.startswith("extra:")):
        _stream_digest_array(digest, tag, columns[tag], chunk_rows)
    return digest.hexdigest()


# -- encoder ------------------------------------------------------------------


def _check_chunk_rows(chunk_rows):
    if isinstance(chunk_rows, bool) \
            or not isinstance(chunk_rows, (int, np.integer)) or chunk_rows < 1:
        raise ValueError(f"chunk_rows must be an int >= 1, got {chunk_rows!r}")
    return int(chunk_rows)


class ColumnarWriter:
    """Stream rows into a columnar store with bounded memory.

    Columns are pre-allocated ``.npy`` memory maps sized for the full
    row count; :meth:`append` copies one block of rows in, and
    :meth:`finalize` computes the streaming fingerprint, then writes
    the manifest (atomically, tmp + rename — a store without a
    manifest never opens, so a crashed encode can never be mistaken
    for a complete one).

    Per-row extras are discovered from the first appended block; every
    later block must carry the same keys.  Only numeric/bool ndarray
    extras can be stored — an object-dtype extra has no stable on-disk
    bytes and raises.
    """

    def __init__(self, root, n_rows, *, name, sensitive_attribute="group",
                 group_names=(), feature_names=(), task="", metadata=None,
                 chunk_rows=DEFAULT_CHUNK_ROWS):
        if n_rows < 1:
            raise ValueError(f"n_rows must be >= 1, got {n_rows}")
        self.chunk_rows = _check_chunk_rows(chunk_rows)
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.n_rows = int(n_rows)
        self.name = name
        self.sensitive_attribute = sensitive_attribute
        self.group_names = tuple(group_names)
        self.feature_names = tuple(feature_names)
        self.task = task
        self.metadata = dict(metadata or {})
        self._maps = {}      # tag -> writable open_memmap
        self._cursor = 0
        self._finalized = False

    @staticmethod
    def _column_file(tag):
        if tag.startswith("extra:"):
            return f"extra_{tag[len('extra:'):]}.npy"
        return f"{tag}.npy"

    def _create(self, tag, dtype, shape):
        path = self.root / self._column_file(tag)
        self._maps[tag] = np.lib.format.open_memmap(
            path, mode="w+", dtype=dtype, shape=shape,
        )

    def _open_columns(self, X, extras):
        if X.ndim != 2:
            raise ValueError(f"X must be 2-d, got shape {X.shape}")
        self._create("X", np.float64, (self.n_rows, X.shape[1]))
        self._create("y", np.int64, (self.n_rows,))
        self._create("sensitive", np.int64, (self.n_rows,))
        for key, arr in sorted(extras.items()):
            if arr.dtype == object:
                raise ValueError(
                    f"extras[{key!r}] has object dtype; columnar stores "
                    f"hold fixed-width columns only — convert it to a "
                    f"numeric/bool ndarray or move it to metadata"
                )
            self._create(f"extra:{key}", arr.dtype,
                         (self.n_rows,) + arr.shape[1:])

    def append(self, X, y, sensitive, extras=None):
        """Copy one block of rows into the store at the write cursor."""
        if self._finalized:
            raise RuntimeError("writer already finalized")
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        sensitive = np.asarray(sensitive, dtype=np.int64)
        extras = {
            key: np.asarray(value) for key, value in (extras or {}).items()
        }
        if not self._maps:
            self._open_columns(X, extras)
        rows = len(y)
        if len(X) != rows or len(sensitive) != rows:
            raise ValueError("X, y, sensitive blocks must have equal lengths")
        if sensitive.min(initial=0) < 0 or (
                self.group_names
                and sensitive.max(initial=0) >= len(self.group_names)):
            raise ValueError("sensitive codes out of range for group_names")
        stop = self._cursor + rows
        if stop > self.n_rows:
            raise ValueError(
                f"append overflows the store: {stop} > {self.n_rows} rows"
            )
        expected = {k[len("extra:"):] for k in self._maps if
                    k.startswith("extra:")}
        if set(extras) != expected:
            raise ValueError(
                f"extras keys changed mid-stream: expected "
                f"{sorted(expected)}, got {sorted(extras)}"
            )
        self._maps["X"][self._cursor:stop] = X
        self._maps["y"][self._cursor:stop] = y
        self._maps["sensitive"][self._cursor:stop] = sensitive
        for key, arr in extras.items():
            if len(arr) != rows:
                raise ValueError(
                    f"extras[{key!r}] block has {len(arr)} rows, "
                    f"expected {rows}"
                )
            self._maps[f"extra:{key}"][self._cursor:stop] = arr
        self._cursor = stop

    def finalize(self):
        """Flush columns, fingerprint, write the manifest."""
        if self._finalized:
            raise RuntimeError("writer already finalized")
        if self._cursor != self.n_rows:
            raise ValueError(
                f"store incomplete: {self._cursor} of {self.n_rows} rows "
                f"appended"
            )
        if not self._maps:
            raise ValueError("no rows appended")
        for arr in self._maps.values():
            arr.flush()
        fingerprint = streaming_fingerprint(
            self.name, self.sensitive_attribute, self._maps,
            chunk_rows=self.chunk_rows,
        )
        manifest = {
            "format": FORMAT,
            "name": self.name,
            "sensitive_attribute": self.sensitive_attribute,
            "group_names": list(self.group_names),
            "feature_names": list(self.feature_names),
            "task": self.task,
            "n_rows": self.n_rows,
            "n_features": int(self._maps["X"].shape[1]),
            "fingerprint": fingerprint,
            "columns": {
                tag: {
                    "file": self._column_file(tag),
                    "dtype": arr.dtype.str,
                    "shape": list(arr.shape),
                }
                for tag, arr in sorted(self._maps.items())
            },
            "metadata": self.metadata,
        }
        tmp = self.root / (MANIFEST_NAME + ".tmp")
        tmp.write_text(json.dumps(manifest, indent=1, sort_keys=True))
        os.replace(tmp, self.root / MANIFEST_NAME)
        self._maps.clear()
        self._finalized = True
        return manifest


def _split_extras(extras, n):
    """Partition a ``Dataset.extras`` dict into per-row columns + metadata.

    Mirrors the fingerprint's classification: length-``n`` ndarrays are
    per-row columns; str/bytes/dict/scalars are metadata (kept in the
    manifest when JSON-serializable, dropped with a warning otherwise);
    length-``n`` lists/tuples would be hashed as object arrays in
    memory, which a fixed-width column cannot reproduce — they raise.
    """
    columns, metadata = {}, {}
    for key, value in extras.items():
        if isinstance(value, np.ndarray) and value.ndim >= 1 \
                and len(value) == n:
            columns[key] = value
            continue
        if isinstance(value, (list, tuple)) and len(value) == n:
            raise ValueError(
                f"extras[{key!r}] is a length-{n} {type(value).__name__}; "
                f"it would be fingerprinted as an object array, which a "
                f"columnar store cannot reproduce — convert it to a "
                f"numeric/bool ndarray first"
            )
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            warnings.warn(
                f"extras[{key!r}] is not JSON-serializable metadata; "
                f"dropped from the columnar manifest",
                RuntimeWarning,
                stacklevel=3,
            )
            continue
        metadata[key] = value
    return columns, metadata


def encode_dataset(dataset, root, *, chunk_rows=DEFAULT_CHUNK_ROWS):
    """Encode an in-memory :class:`Dataset` into a columnar store.

    Returns the manifest dict.  The stored fingerprint equals
    ``dataset.fingerprint()`` — verified cheaply by the caller if
    desired via :meth:`ColumnarDataset.fingerprint` after reopening.
    """
    n = len(dataset)
    columns, metadata = _split_extras(dataset.extras, n)
    writer = ColumnarWriter(
        root, n,
        name=dataset.name,
        sensitive_attribute=dataset.sensitive_attribute,
        group_names=dataset.group_names,
        feature_names=dataset.feature_names,
        task=dataset.task,
        metadata=metadata,
        chunk_rows=chunk_rows,
    )
    for start in range(0, n, writer.chunk_rows):
        stop = min(start + writer.chunk_rows, n)
        writer.append(
            dataset.X[start:stop], dataset.y[start:stop],
            dataset.sensitive[start:stop],
            {k: v[start:stop] for k, v in columns.items()},
        )
    return writer.finalize()


def encode_scenario(name, root, n=None, seed=0, *,
                    chunk_rows=DEFAULT_CHUNK_ROWS, **overrides):
    """Stream a scenario family straight into a columnar store.

    Generation blocks flow through :func:`iter_scenario_chunks` into
    the writer — the full matrix is never materialized, so encoding a
    ``hundred_million_row`` store needs O(chunk) feature memory.  The
    result is row-for-row and fingerprint-identical to
    ``encode_dataset(load_scenario(name, n, seed), root)``.
    """
    from .scenarios import SCENARIOS, iter_scenario_chunks

    chunk_rows = _check_chunk_rows(chunk_rows)
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        from .scenarios import available_scenarios

        raise KeyError(
            f"unknown scenario {name!r}; known: {available_scenarios()}"
        ) from None
    n = scenario.n_default if n is None else int(n)
    writer = None
    for chunk in iter_scenario_chunks(name, n=n, seed=seed,
                                      chunk_size=chunk_rows, **overrides):
        columns, metadata = _split_extras(chunk.extras, len(chunk))
        if writer is None:
            for key in _CHUNK_META:
                metadata.pop(key, None)
            writer = ColumnarWriter(
                root, n,
                name=chunk.name,
                sensitive_attribute=chunk.sensitive_attribute,
                group_names=chunk.group_names,
                feature_names=chunk.feature_names,
                task=chunk.task,
                metadata=metadata,
                chunk_rows=chunk_rows,
            )
        writer.append(chunk.X, chunk.y, chunk.sensitive, columns)
    return writer.finalize()


# -- opening ------------------------------------------------------------------


@dataclass
class ColumnarDataset(Dataset):
    """A :class:`Dataset` whose columns are read-only memory maps.

    Construct via :func:`open_columnar`.  All `Dataset` semantics hold
    (the compiled kernels, binders, and fitters see ordinary float64/
    int64 arrays).  ``subset`` with a **slice** returns view-backed
    plain ``Dataset`` objects (no rows copied); fancy indexing copies,
    as everywhere in numpy.  ``fingerprint()`` returns the manifest's
    stored digest — computed at encode time with the identical framing
    — in O(1).
    """

    root: pathlib.Path | None = None
    manifest: dict = field(default_factory=dict)

    def fingerprint(self):
        if self.manifest.get("fingerprint"):
            return self.manifest["fingerprint"]
        return super().fingerprint()

    def verify_fingerprint(self, chunk_rows=DEFAULT_CHUNK_ROWS):
        """Recompute the streaming fingerprint and compare to the manifest."""
        columns = {"X": self.X, "y": self.y, "sensitive": self.sensitive}
        n = len(self)
        for key, value in self.extras.items():
            if isinstance(value, np.ndarray) and value.ndim >= 1 \
                    and len(value) == n:
                columns[f"extra:{key}"] = value
        got = streaming_fingerprint(
            self.name, self.sensitive_attribute, columns,
            chunk_rows=chunk_rows,
        )
        return got == self.manifest.get("fingerprint", got)

    def iter_chunks(self, chunk_size=DEFAULT_CHUNK_ROWS):
        """Yield contiguous row-slice subsets (views, nothing copied)."""
        chunk_size = int(chunk_size)
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        for start in range(0, len(self), chunk_size):
            yield self.subset(slice(start, min(start + chunk_size,
                                               len(self))))


def _check_manifest(root, manifest):
    """Refuse a manifest that is not shaped like the writer's output.

    The manifest is untrusted input: a field of the wrong type must be
    refused by name, not crash the reader, and a column may only live
    in the bare file name the writer gives its tag — otherwise a store
    could open another file's rows under its own fingerprint.
    """
    if not isinstance(manifest, dict):
        _refuse(root, f"manifest is a {type(manifest).__name__}, "
                      f"not an object")
    if manifest.get("format") != FORMAT:
        _refuse(root, f"unsupported format {manifest.get('format')!r} "
                      f"(expected {FORMAT!r})")
    required = {"name", "n_rows", "columns", "fingerprint",
                "sensitive_attribute"}
    missing = required - set(manifest)
    if missing:
        _refuse(root, f"manifest missing keys {sorted(missing)}")
    n_rows = manifest["n_rows"]
    if type(n_rows) is not int or n_rows < 1:
        _refuse(root, f"manifest n_rows {n_rows!r} is not an int >= 1")
    digest = manifest["fingerprint"]
    if not (isinstance(digest, str) and len(digest) == 40
            and set(digest) <= set("0123456789abcdef")):
        _refuse(root, f"manifest fingerprint {digest!r} is not a "
                      f"40-character hex digest")
    for key in ("name", "sensitive_attribute", "task"):
        if not isinstance(manifest.get(key, ""), str):
            _refuse(root, f"manifest {key} is not a string")
    for key in ("group_names", "feature_names"):
        names = manifest.get(key, [])
        if not isinstance(names, list) \
                or not all(isinstance(v, str) for v in names):
            _refuse(root, f"manifest {key} is not a list of strings")
    if not isinstance(manifest.get("metadata", {}), dict):
        _refuse(root, "manifest metadata is not an object")
    if not isinstance(manifest["columns"], dict):
        _refuse(root, "manifest columns is not an object")
    for tag, spec in manifest["columns"].items():
        if not isinstance(spec, dict):
            _refuse(root, f"column {tag}: spec is not an object")
        expected = ColumnarWriter._column_file(tag)
        if spec.get("file") != expected \
                or os.path.basename(expected) != expected:
            _refuse(root, f"column {tag}: file {spec.get('file')!r} is "
                          f"not the writer's bare name {expected!r}")
        shape = spec.get("shape")
        if not isinstance(spec.get("dtype"), str) or not (
                isinstance(shape, list)
                and all(type(s) is int for s in shape)):
            _refuse(root, f"column {tag}: dtype must be a string and "
                          f"shape a list of ints")


def _open_column(root, manifest, tag, spec):
    path = root / spec["file"]
    if not path.is_file():
        _refuse(root, f"column file {spec['file']!r} is missing")
    try:
        arr = np.load(path, mmap_mode="r")
    except Exception as exc:
        _refuse(root, f"column file {path.name} unreadable: {exc}")
    if arr.dtype.str != spec["dtype"] or list(arr.shape) != spec["shape"]:
        _refuse(
            root,
            f"column {tag}: file is {arr.dtype.str}{arr.shape}, manifest "
            f"says {spec['dtype']}{tuple(spec['shape'])}",
        )
    if len(arr) != manifest["n_rows"]:
        _refuse(root, f"column {tag} has {len(arr)} rows, store declares "
                      f"{manifest['n_rows']}")
    return arr


def open_columnar(root, *, verify=False):
    """Open a columnar store as a :class:`ColumnarDataset`.

    Raises :class:`ColumnarFormatError` (after a ``RuntimeWarning``)
    when the manifest is malformed, or the manifest or any column file
    is missing, truncated, or inconsistent with the manifest — a
    damaged store refuses to open rather than ever producing wrong
    counts.  ``verify=True`` additionally re-streams the fingerprint
    over the column bytes and refuses on mismatch (a full-content
    check; costs one read pass).  Files the manifest does not name
    (such as the index files that stores written before 5.0.0 carry)
    are never read.
    """
    root = pathlib.Path(root)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        _refuse(root, "no manifest (not a columnar store, or encode "
                      "did not complete)")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (ValueError, OSError) as exc:
        _refuse(root, f"manifest unreadable: {exc}")
    _check_manifest(root, manifest)
    columns = {}
    specs = manifest["columns"]
    for tag in ("X", "y", "sensitive"):
        if tag not in specs:
            _refuse(root, f"manifest has no {tag} column")
        columns[tag] = _open_column(root, manifest, tag, specs[tag])
    if columns["X"].ndim != 2 or columns["X"].dtype != np.float64:
        _refuse(root, "X must be a 2-d float64 column")
    for tag in ("y", "sensitive"):
        if columns[tag].ndim != 1 or columns[tag].dtype != np.int64:
            _refuse(root, f"{tag} must be a 1-d int64 column")
    extras = dict(manifest.get("metadata", {}))
    for tag, spec in specs.items():
        if tag.startswith("extra:"):
            extras[tag[len("extra:"):]] = _open_column(
                root, manifest, tag, spec,
            )
    try:
        data = ColumnarDataset(
            name=manifest["name"],
            X=columns["X"],
            y=columns["y"],
            sensitive=columns["sensitive"],
            group_names=tuple(manifest.get("group_names", ())),
            sensitive_attribute=manifest["sensitive_attribute"],
            feature_names=tuple(manifest.get("feature_names", ())),
            task=manifest.get("task", ""),
            extras=extras,
            root=root,
            manifest=manifest,
        )
    except ValueError as exc:  # e.g. group_names too short for the codes
        _refuse(root, str(exc))
    if verify and not data.verify_fingerprint():
        _refuse(root, "fingerprint mismatch: column bytes do not hash to "
                      "the manifest fingerprint")
    return data

