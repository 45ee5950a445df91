"""Small file helpers: atomic writes, text reads and content fingerprints."""

import contextlib
import hashlib
import os

from .errors import FormatError


@contextlib.contextmanager
def atomic_write(path, mode="w"):
    """Write to a temp file next to `path` and rename on success.

    The temp file is created with mode 0o666, so the process umask decides
    the output's permissions as it would for a plain `open`. On any
    exception the temp file is removed, so a failed command never leaves a
    partial output behind.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode) as handle:
            yield handle
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise


def read_text(path) -> str:
    """A UTF-8 text file's contents, read with universal newlines.

    Bytes that are not UTF-8 raise FormatError, not UnicodeDecodeError.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc


def sha256_file(path):
    """Hex SHA-256 of a file's bytes; used to fingerprint matrix files."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
