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

Two index structures are computed **once at encode time** (in
bounded-memory chunks) and themselves memory-mapped, so work that every
consumer would otherwise redo per run is amortized into the encode:

``group_order.npy`` / ``group_offsets.npy``
    A stable group-sorted row index plus an offsets table —
    ``group_order[group_offsets[g]:group_offsets[g+1]]`` lists the rows
    of group ``g`` in original order (the per-group index the spec
    binder and auditors rebuild per run).
``feature_order.npy``
    The per-feature stable argsort of ``X`` — exactly the array
    :class:`repro.ml.tree.PresortedDataset` computes per fit, so tree
    training on a full columnar matrix skips the sort entirely
    (:func:`sidecar_order`).

The manifest records the **same fingerprint** ``Dataset.fingerprint``
(v2) computes in memory: the encoder streams the identical
``tag|dtype|shape|bytes`` framing through SHA1 block by block.  A
columnar-opened dataset therefore keys the persistent fit/eval/solution
stores identically to its in-memory twin — an encode → solve → re-solve
round trip through :class:`repro.store.SolutionCache` costs zero fits.

Corruption discipline matches :class:`repro.store.CacheStore`: a
missing, truncated, or inconsistent store **warns and refuses to open**
(:class:`ColumnarFormatError`) — it never returns wrong counts.
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
    "mmap_source",
    "sidecar_order",
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


class ColumnarWriter:
    """Stream rows into a columnar store with bounded memory.

    Columns are pre-allocated ``.npy`` memory maps sized for the full
    row count; :meth:`append` copies one block of rows in, and
    :meth:`finalize` computes the sidecars and the streaming
    fingerprint, then writes the manifest (atomically, tmp + rename —
    a store without a manifest never opens, so a crashed encode can
    never be mistaken for a complete one).

    Per-row extras are discovered from the first appended block; every
    later block must carry the same keys.  Only numeric/bool ndarray
    extras can be stored — an object-dtype extra has no stable on-disk
    bytes and raises.
    """

    def __init__(self, root, n_rows, *, name, sensitive_attribute="group",
                 group_names=(), feature_names=(), task="", metadata=None,
                 feature_order=True, chunk_rows=DEFAULT_CHUNK_ROWS):
        if n_rows < 1:
            raise ValueError(f"n_rows must be >= 1, got {n_rows}")
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.n_rows = int(n_rows)
        self.name = name
        self.sensitive_attribute = sensitive_attribute
        self.group_names = tuple(group_names)
        self.feature_names = tuple(feature_names)
        self.task = task
        self.metadata = dict(metadata or {})
        self.feature_order = bool(feature_order)
        self.chunk_rows = int(chunk_rows)
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

    def _write_group_sidecars(self):
        """Group-sorted row index + offsets via a two-pass counting sort.

        Pass 1 counts rows per group in chunks; pass 2 fills the order
        with per-group cursors.  The sort is stable (rows within a
        group keep original order) and needs O(chunk + n_groups)
        working memory beyond the output map.
        """
        sens = self._maps["sensitive"]
        n_groups = len(self.group_names)
        if n_groups == 0:
            for start in range(0, self.n_rows, self.chunk_rows):
                block_max = int(sens[start:start + self.chunk_rows].max())
                n_groups = max(n_groups, block_max + 1)
        counts = np.zeros(n_groups, dtype=np.int64)
        for start in range(0, self.n_rows, self.chunk_rows):
            block = sens[start:start + self.chunk_rows]
            if block.min(initial=0) < 0 or block.max(initial=0) >= n_groups:
                raise ValueError(
                    "sensitive codes out of range for group_names"
                )
            counts += np.bincount(block, minlength=n_groups)
        offsets = np.zeros(n_groups + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        order = np.lib.format.open_memmap(
            self.root / "group_order.npy", mode="w+",
            dtype=np.int64, shape=(self.n_rows,),
        )
        cursors = offsets[:-1].copy()
        for start in range(0, self.n_rows, self.chunk_rows):
            block = np.asarray(sens[start:start + self.chunk_rows])
            rows = np.arange(start, start + len(block), dtype=np.int64)
            for g in range(n_groups):
                members = rows[block == g]
                order[cursors[g]:cursors[g] + len(members)] = members
                cursors[g] += len(members)
        order.flush()
        np.save(self.root / "group_offsets.npy", offsets)
        return {"group_order": "group_order.npy",
                "group_offsets": "group_offsets.npy"}

    def _write_feature_order(self):
        """Per-feature stable argsort of ``X``, one column at a time.

        Column ``f`` of the sidecar equals column ``f`` of
        ``np.argsort(X, axis=0, kind="mergesort")`` — an axis-0 argsort
        is computed per column independently, so sorting one column at
        a time is bitwise identical while bounding working memory to
        one column plus its index vector.
        """
        Xmap = self._maps["X"]
        d = Xmap.shape[1]
        out = np.lib.format.open_memmap(
            self.root / "feature_order.npy", mode="w+",
            dtype=np.int64, shape=(self.n_rows, d),
        )
        for f in range(d):
            col = np.ascontiguousarray(Xmap[:, f])
            out[:, f] = np.argsort(col, kind="mergesort")
        out.flush()
        return {"feature_order": "feature_order.npy"}

    def finalize(self):
        """Flush columns, build sidecars, fingerprint, write the manifest."""
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
        sidecars = self._write_group_sidecars()
        if self.feature_order:
            sidecars.update(self._write_feature_order())
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
            "sidecars": sidecars,
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


def encode_dataset(dataset, root, *, feature_order=True,
                   chunk_rows=DEFAULT_CHUNK_ROWS):
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
        feature_order=feature_order,
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


def encode_scenario(name, root, n=None, seed=0, *, feature_order=True,
                    chunk_rows=DEFAULT_CHUNK_ROWS, **overrides):
    """Stream a scenario family straight into a columnar store.

    Generation blocks flow through :func:`iter_scenario_chunks` into
    the writer — the full matrix is never materialized, so encoding a
    ``hundred_million_row`` store needs O(chunk) feature memory (plus
    the per-column argsort pass at finalize).  The result is
    row-for-row and fingerprint-identical to
    ``encode_dataset(load_scenario(name, n, seed), root)``.
    """
    from .scenarios import SCENARIOS, iter_scenario_chunks

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
                feature_order=feature_order,
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
    int64 arrays); additionally the encode-time sidecars are exposed:

    - :attr:`group_order` / :attr:`group_offsets` — stable group-sorted
      row index (``group_rows(g)`` slices one group's rows, a view);
    - :attr:`feature_order` — the per-feature argsort consumed by the
      presorted tree builder via :func:`sidecar_order` (``None`` when
      the store was encoded with ``feature_order=False``).

    ``subset`` with a **slice** returns view-backed plain ``Dataset``
    objects (no rows copied); fancy indexing copies, as everywhere in
    numpy.  ``fingerprint()`` returns the manifest's stored digest —
    computed at encode time with the identical framing — in O(1).
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

    def _sidecar(self, key):
        cache = self.__dict__.setdefault("_sidecar_cache", {})
        if key not in cache:
            rel = self.manifest.get("sidecars", {}).get(key)
            if rel is None:
                cache[key] = None
            else:
                path = self.root / rel
                try:
                    cache[key] = np.load(path, mmap_mode="r")
                except Exception as exc:
                    _refuse(self.root, f"sidecar {rel} unreadable: {exc}")
        return cache[key]

    @property
    def group_order(self):
        order = self._sidecar("group_order")
        if order is None:
            _refuse(self.root, "store has no group_order sidecar")
        return order

    @property
    def group_offsets(self):
        offsets = self._sidecar("group_offsets")
        if offsets is None:
            _refuse(self.root, "store has no group_offsets sidecar")
        return offsets

    @property
    def feature_order(self):
        return self._sidecar("feature_order")

    def group_rows(self, group):
        """Row indices of one group (name or code), original order — a view."""
        if isinstance(group, str):
            try:
                group = self.group_names.index(group)
            except ValueError:
                raise KeyError(
                    f"unknown group {group!r}; known: {self.group_names}"
                ) from None
        offsets = self.group_offsets
        return self.group_order[offsets[group]:offsets[group + 1]]

    def iter_chunks(self, chunk_size=DEFAULT_CHUNK_ROWS):
        """Yield contiguous row-slice subsets (views, nothing copied)."""
        chunk_size = int(chunk_size)
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        for start in range(0, len(self), chunk_size):
            yield self.subset(slice(start, min(start + chunk_size,
                                               len(self))))


def _open_column(root, manifest, tag, spec):
    path = root / spec.get("file", "")
    if not path.is_file():
        _refuse(root, f"column file {spec.get('file')!r} is missing")
    try:
        arr = np.load(path, mmap_mode="r")
    except Exception as exc:
        _refuse(root, f"column file {path.name} unreadable: {exc}")
    if arr.dtype.str != spec.get("dtype") \
            or list(arr.shape) != list(spec.get("shape", [])):
        _refuse(
            root,
            f"column {tag}: file is {arr.dtype.str}{arr.shape}, manifest "
            f"says {spec.get('dtype')}{tuple(spec.get('shape', []))}",
        )
    if len(arr) != manifest["n_rows"]:
        _refuse(root, f"column {tag} has {len(arr)} rows, store declares "
                      f"{manifest['n_rows']}")
    return arr


def open_columnar(root, *, verify=False):
    """Open a columnar store as a :class:`ColumnarDataset`.

    Raises :class:`ColumnarFormatError` (after a ``RuntimeWarning``)
    when the manifest or any column file is missing, truncated, or
    inconsistent with the manifest — a damaged store refuses to open
    rather than ever producing wrong counts.  ``verify=True``
    additionally re-streams the fingerprint over the column bytes and
    refuses on mismatch (a full-content check; costs one read pass).
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
    if manifest.get("format") != FORMAT:
        _refuse(root, f"unsupported format {manifest.get('format')!r} "
                      f"(expected {FORMAT!r})")
    required = {"name", "n_rows", "columns", "fingerprint",
                "sensitive_attribute"}
    missing = required - set(manifest)
    if missing:
        _refuse(root, f"manifest missing keys {sorted(missing)}")
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
    if verify and not data.verify_fingerprint():
        _refuse(root, "fingerprint mismatch: column bytes do not hash to "
                      "the manifest fingerprint")
    return data


# -- zero-copy plumbing -------------------------------------------------------


def mmap_source(arr):
    """Resolve ``(path, dtype_str, shape, offset)`` for an mmap-backed array.

    Walks the ``.base`` chain to the root :class:`np.memmap` (plain
    views over a map — ``np.asarray``, row slices — resolve to their
    backing file).  Returns ``None`` unless ``arr`` is a C-contiguous
    window of a file-backed map, so callers can branch:
    :func:`sidecar_order` uses it to recognise the store's full
    ``X.npy`` and serve its encode-time presort.

    Only the root map's ``.offset`` is trusted — numpy propagates the
    attribute unadjusted through slicing, so the byte offset of ``arr``
    itself is recovered with pointer arithmetic against the root.
    """
    if not isinstance(arr, np.ndarray) or not arr.flags["C_CONTIGUOUS"]:
        return None
    base = arr
    while isinstance(base.base, np.ndarray):
        base = base.base
    if not isinstance(base, np.memmap):
        return None
    filename = getattr(base, "filename", None)
    if filename is None:
        return None
    delta = arr.ctypes.data - base.ctypes.data
    if delta < 0 or delta + arr.nbytes > base.nbytes:
        return None
    return (str(filename), arr.dtype.str, arr.shape,
            int(base.offset) + int(delta))


_ORDER_CACHE = {}


def sidecar_order(X):
    """The encode-time presort for a **full** columnar feature matrix.

    Returns the memory-mapped ``feature_order`` sidecar when ``X`` is
    (a view over) the complete ``X.npy`` of a store that has one, else
    ``None`` and the caller argsorts as before.  Partial views return
    ``None`` — the argsort of a subset is not a subset of the argsort.
    """
    try:
        source = mmap_source(X)
        if source is None:
            return None
        path, dtype_str, shape, offset = source
        path = pathlib.Path(path)
        if path.name != "X.npy" or dtype_str != "<f8" or len(shape) != 2:
            return None
        base = X
        while isinstance(base.base, np.ndarray):
            base = base.base
        if shape != base.shape or offset != int(base.offset):
            return None  # a window, not the full matrix
        order_path = path.parent / "feature_order.npy"
        stat = order_path.stat()
        key = (str(order_path), stat.st_mtime_ns, stat.st_size)
        if key not in _ORDER_CACHE:
            _ORDER_CACHE.clear()  # one live store at a time is the norm
            _ORDER_CACHE[key] = np.load(order_path, mmap_mode="r")
        order = _ORDER_CACHE[key]
        if order.shape != shape or order.dtype != np.int64:
            return None
        return order
    except Exception:
        return None
