"""Model serialization: a single ``.npz`` per saved object, format version 1.

Every archive holds ``format_version`` plus the arrays its object's
``to_arrays`` returns; ``from_arrays`` reads them back. Arrays round-trip
bit-exactly through ``np.savez``; schemas ride along as JSON.
"""
from __future__ import annotations

import contextlib
import os
import tempfile
import zipfile
from typing import Callable

import numpy as np

from ..core import ValidationError
from .base import ClassifierModel, scalar_int
from .kinds import model_class

FORMAT_VERSION = 1


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "wb", **kwargs):
    """Write-temp-then-rename so partial files never appear.

    Yields a file object on a temp file beside ``path``; on a clean exit
    the temp file replaces ``path``, on any error it is removed.
    """
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_archive(obj, path: str) -> None:
    """Write ``obj.to_arrays()`` and the format version as one ``.npz``."""
    with atomic_open(path) as fh:
        np.savez(fh, format_version=np.asarray(FORMAT_VERSION), **obj.to_arrays())


def load_archive(path: str, from_arrays: Callable, what: str):
    """``from_arrays`` over the archive at ``path``.

    A file that ``np.load`` does not open as an npz archive, a member whose
    bytes fail their checksum, a newer format version, or an archive that
    lacks a key ``from_arrays`` reads (another type's archive), raises
    ValidationError; so does any check ``from_arrays`` makes. Each message
    names ``path``.
    """
    try:
        data = np.load(path, allow_pickle=False)
    except (EOFError, ValueError, zipfile.BadZipFile):
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValidationError(f"{path} is not a {what} archive: not an npz file")
    with data:
        # Members are read lazily, and numpy parses a member's header before
        # its checksum is checked at the end; check every checksum first.
        bad = data.zip.testzip()
        if bad is not None:
            raise ValidationError(f"{path} is a corrupt {what} archive ({bad} fails its checksum)")
        try:
            version = scalar_int(data, "format_version")
            if version != FORMAT_VERSION:
                raise ValidationError(f"unsupported format version {version}")
            return from_arrays(data)
        except KeyError as e:
            raise ValidationError(f"{path} is not a {what} archive ({e.args[0]})") from None
        except ValidationError as e:
            raise ValidationError(f"{path}: {e}") from None


def save_model(model: ClassifierModel, path: str) -> None:
    save_archive(model, path)


def load_model(path: str) -> ClassifierModel:
    def from_arrays(data):
        try:
            cls = model_class(str(data["kind"]))
        except ValidationError as e:
            raise ValidationError(f"not a model archive ({e})") from None
        return cls.from_arrays(data)

    return load_archive(path, from_arrays, "model")
