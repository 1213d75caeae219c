"""Output files written whole or not at all."""

import os
from contextlib import contextmanager

from .errors import DataError


@contextmanager
def replacing(path, mode="w"):
    """Open a temporary file beside ``path`` for the block to write, then move
    it over ``path`` with ``os.replace``.

    If anything fails, the temporary file is removed and ``path`` is left as
    it was; an OSError names ``path``, not the temporary file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.remove(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError):
            exc.filename, exc.filename2 = path, None
        raise


@contextmanager
def writing(path):
    """Turn an OSError from the file writes in the block into a one-line
    DataError naming the file (``path`` if the error names none)."""
    try:
        yield
    except OSError as exc:
        raise DataError(
            f"cannot write {exc.filename or path}: {exc.strerror}") from None
