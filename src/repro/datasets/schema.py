"""Dataset container shared by all benchmark dataset generators.

A :class:`Dataset` bundles the model-ready feature matrix, binary labels,
and the sensitive attribute as integer group codes, together with the
human-readable names needed by grouping functions and reports.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..ml.base import check_binary_labels

__all__ = ["Dataset"]


@dataclass
class Dataset:
    """A tabular binary-classification dataset with a sensitive attribute.

    Attributes
    ----------
    name : str
        Dataset identifier (``"adult"``, ``"compas"``, ...).
    X : ndarray (n, d)
        Model-ready (encoded, scaled) feature matrix.
    y : ndarray (n,)
        Binary labels in {0, 1}.
    sensitive : ndarray (n,)
        Integer group code per row (index into ``group_names``).
    group_names : tuple of str
        Names of the demographic groups, e.g. ``("Male", "Female")``.
    sensitive_attribute : str
        Name of the sensitive attribute (``"sex"``, ``"race"``, ...).
    feature_names : tuple of str
        Column names of ``X``.
    task : str
        One-line description of the prediction task.
    """

    name: str
    X: np.ndarray
    y: np.ndarray
    sensitive: np.ndarray
    group_names: tuple = ()
    sensitive_attribute: str = "group"
    feature_names: tuple = ()
    task: str = ""
    extras: dict = field(default_factory=dict)

    @staticmethod
    def _coerce(arr, dtype):
        """Coerce to ``dtype`` without touching already-conforming arrays.

        An ndarray of the right dtype is returned by identity — this is
        what keeps ``np.memmap``-backed columns (the out-of-core
        columnar store, :mod:`repro.datasets.columnar`) memory-mapped
        instead of silently materialized, and what lets the zero-copy
        helpers resolve a column back to its backing file.
        """
        if isinstance(arr, np.ndarray) and arr.dtype == dtype:
            return arr
        return np.asarray(arr, dtype=dtype)

    def __post_init__(self):
        self.X = self._coerce(self.X, np.float64)
        y = self.y if isinstance(self.y, np.ndarray) else np.asarray(self.y)
        # a float label other than 0.0/1.0 is refused, not truncated
        self.y = (check_binary_labels(y) if y.dtype.kind == "f"
                  else self._coerce(y, np.int64))
        self.sensitive = self._coerce(self.sensitive, np.int64)
        n = len(self.X)
        if len(self.y) != n or len(self.sensitive) != n:
            raise ValueError("X, y, sensitive must have equal lengths")
        if self.group_names and self.sensitive.max(initial=0) >= len(self.group_names):
            raise ValueError("sensitive codes exceed group_names")

    def __len__(self):
        return len(self.y)

    @property
    def n_features(self):
        return self.X.shape[1]

    @property
    def n_groups(self):
        if self.group_names:
            return len(self.group_names)
        return int(self.sensitive.max()) + 1

    def _slice_extra(self, key, value, idx, n):
        """Slice one ``extras`` entry along the row axis when it is per-row.

        Any length-``n`` sequence — ndarray, list, or tuple — is a
        per-row role (``is_val``, ``label_flipped``, ...) and must be
        sliced with the rows; silently copying it whole would misalign
        the role in the subset.  Strings/bytes and mappings are metadata
        even at length ``n``.  Other length-``n`` sequence types are
        ambiguous (we cannot tell role from metadata) and raise.
        """
        if isinstance(value, np.ndarray):
            if value.ndim >= 1 and len(value) == n:
                return value[idx]
            return value
        if isinstance(value, (str, bytes, dict)):
            return value
        try:
            length = len(value)
        except TypeError:
            return value
        if length != n:
            return value
        if isinstance(value, (list, tuple)):
            positions = np.arange(n)[idx]
            if positions.ndim == 0:
                positions = positions.reshape(1)
            return type(value)(value[int(i)] for i in positions)
        raise TypeError(
            f"extras[{key!r}] is a length-{n} {type(value).__name__}; "
            f"cannot tell whether it is per-row (needs slicing) or "
            f"metadata — convert it to an ndarray/list/tuple (per-row) "
            f"or a dict/str (metadata)"
        )

    def subset(self, idx):
        """Return a new Dataset restricted to the rows in ``idx``.

        Per-row entries in ``extras`` (length-``n`` ndarrays, lists, or
        tuples, e.g. the scenario registry's ``is_val`` /
        ``label_flipped`` roles) are sliced along with the rows;
        scalar/metadata entries are copied as-is.  A length-``n``
        sequence of an unrecognized type raises rather than silently
        misaligning (see :meth:`_slice_extra`).

        View vs copy follows numpy's indexing rules: a **slice** ``idx``
        yields view-backed columns — on memory-mapped datasets nothing
        is read or materialized, which is how the columnar backend's
        contiguous train/val/test splits stay out-of-core.  Fancy
        indexing (an integer or boolean array, e.g. a stratified
        permutation split) necessarily copies the selected rows; there
        is no view of a non-contiguous row set in numpy, so permutation
        splits of a memmap-backed dataset cost one materialization of
        the selected rows.
        """
        n = len(self)
        extras = {
            key: self._slice_extra(key, value, idx, n)
            for key, value in self.extras.items()
        }
        return Dataset(
            name=self.name,
            X=self.X[idx],
            y=self.y[idx],
            sensitive=self.sensitive[idx],
            group_names=self.group_names,
            sensitive_attribute=self.sensitive_attribute,
            feature_names=self.feature_names,
            task=self.task,
            extras=extras,
        )

    @staticmethod
    def _digest_array(digest, tag, arr):
        """Feed one array into ``digest`` with an unambiguous framing.

        The frame is ``tag|dtype|shape|bytes``: without the dtype/shape
        prefix, a reshaped or retyped array with identical raw bytes
        (e.g. ``X.reshape(-1)`` or an int64 view of the same buffer)
        would collide with the original, and without the tag separator
        two adjacent arrays could trade a boundary byte unnoticed.
        """
        arr = np.ascontiguousarray(arr)
        if arr.dtype == object:
            # object arrays have no stable buffer; hash a repr instead
            digest.update(f"{tag}|object|{arr.shape}|".encode())
            digest.update(repr(arr.tolist()).encode())
            return
        digest.update(f"{tag}|{arr.dtype.str}|{arr.shape}|".encode())
        digest.update(arr.tobytes())

    def fingerprint(self):
        """Stable content hash of the dataset (rows, labels, groups, roles).

        The serving layer's model registry and the solution cache key
        results on ``SpecSet.canonical() × Dataset.fingerprint()`` so
        that canonically-equivalent requests on the same data dedup to
        one solve.  Version 2 of the hash frames every array with its
        dtype and shape (a reshaped/retyped ``X`` with identical bytes
        no longer collides) and folds in per-row ``extras`` (two
        datasets differing only in their ``is_val`` split role no
        longer collide).  Non-per-row metadata extras stay outside the
        hash — they do not change which rows the model sees.
        """
        n = len(self)
        digest = hashlib.sha1()
        digest.update(b"dataset-fingerprint-v2\x00")
        digest.update(self.name.encode() + b"\x00")
        digest.update(self.sensitive_attribute.encode() + b"\x00")
        self._digest_array(digest, "X", self.X)
        self._digest_array(digest, "y", self.y)
        self._digest_array(digest, "sensitive", self.sensitive)
        for key in sorted(self.extras):
            value = self.extras[key]
            if isinstance(value, (str, bytes, dict)):
                continue
            if isinstance(value, np.ndarray):
                if value.ndim >= 1 and len(value) == n:
                    self._digest_array(digest, f"extra:{key}", value)
                continue
            if isinstance(value, (list, tuple)) and len(value) == n:
                self._digest_array(
                    digest, f"extra:{key}", np.asarray(value, dtype=object)
                )
        return digest.hexdigest()

    def group_mask(self, group):
        """Boolean mask for a group given by name or integer code."""
        if isinstance(group, str):
            try:
                group = self.group_names.index(group)
            except ValueError:
                raise KeyError(
                    f"unknown group {group!r}; known: {self.group_names}"
                ) from None
        return self.sensitive == group

    def base_rates(self):
        """``P(y=1 | group)`` per group, as a dict keyed by group name."""
        out = {}
        for code in range(self.n_groups):
            mask = self.sensitive == code
            name = self.group_names[code] if self.group_names else str(code)
            out[name] = float(self.y[mask].mean()) if mask.any() else float("nan")
        return out
