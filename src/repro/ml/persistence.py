"""Model persistence: save and load fitted estimators.

A downstream user who tunes a fair model wants to ship it.  Estimators are
plain-Python objects with numpy state, so pickle is sufficient; these
helpers add a versioned envelope and a round-trip check so an incompatible
library version fails loudly instead of mis-predicting.

The envelope is deliberately forward-tolerant: a *newer* format version
still fails loudly (the payload layout itself may have changed), but
unknown **extra** keys written by a newer minor revision — or by callers
like :meth:`FairModel.save`, which embeds its own format version and the
spec's canonical string — produce a :class:`RuntimeWarning` and are
otherwise ignored, so registry evict/reload round-trips keep working
across revisions.
"""

from __future__ import annotations

import pickle
import warnings

__all__ = ["save_model", "load_model", "ModelFormatError"]

_MAGIC = "repro-model"
_FORMAT_VERSION = 1

#: envelope keys this revision knows how to interpret; anything else in a
#: loaded envelope warns (not crashes) — see :func:`load_model`
_KNOWN_ENVELOPE_KEYS = frozenset(
    {"magic", "format_version", "library_version", "class", "model", "extra"}
)


class ModelFormatError(Exception):
    """The file is not a repro model envelope (or an incompatible one)."""


def save_model(model, path, extra=None):
    """Serialize a fitted estimator (or a ``FairModel``) to ``path``.

    ``extra`` is an optional JSON-ish dict of caller metadata embedded in
    the envelope (e.g. :meth:`FairModel.save`'s format version and spec
    canonical string); it rides along without affecting ``load_model``'s
    return value and can be read back with ``with_envelope=True``.
    """
    # import here: repro/__init__ imports repro.ml, so a top-level import
    # of the package version would be circular
    from .. import __version__

    envelope = {
        "magic": _MAGIC,
        "format_version": _FORMAT_VERSION,
        "library_version": __version__,
        "class": type(model).__name__,
        "model": model,
    }
    if extra:
        envelope["extra"] = dict(extra)
    with open(path, "wb") as fh:
        pickle.dump(envelope, fh)


def load_model(path, with_envelope=False):
    """Load a model saved by :func:`save_model`.

    Unknown envelope keys (written by a newer revision) warn and are
    skipped; with ``with_envelope=True`` the return value is
    ``(model, envelope)`` so callers can inspect the ``extra`` metadata.

    Raises
    ------
    ModelFormatError
        If the file lacks the envelope or uses a newer format version.
    """
    with open(path, "rb") as fh:
        try:
            envelope = pickle.load(fh)
        except Exception as exc:
            raise ModelFormatError(f"not a repro model file: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("magic") != _MAGIC:
        raise ModelFormatError("not a repro model file (bad envelope)")
    if envelope["format_version"] > _FORMAT_VERSION:
        raise ModelFormatError(
            f"model format v{envelope['format_version']} is newer than this "
            f"library supports (v{_FORMAT_VERSION})"
        )
    unknown = sorted(set(envelope) - _KNOWN_ENVELOPE_KEYS)
    if unknown:
        warnings.warn(
            f"model envelope in {path!r} carries unknown key(s) {unknown} "
            f"(written by a newer revision?); ignoring them",
            RuntimeWarning,
            stacklevel=2,
        )
    if with_envelope:
        return envelope["model"], envelope
    return envelope["model"]
