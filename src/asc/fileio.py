"""Small file helpers: atomic writes, text and JSON reads."""

import contextlib
import json
import os

from .errors import FormatError


@contextlib.contextmanager
def atomic_write(path, mode="w"):
    """Write to a temp file next to `path` and rename on success.

    The temp file is created with mode 0o666, so the process umask decides
    the output's permissions as it would for a plain `open`. On any
    exception the temp file is removed, so a failed command never leaves a
    partial output behind. An OSError it raises names `path`, never the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    try:
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, mode) as handle:
                yield handle
            os.replace(tmp_path, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror or str(exc), os.fspath(path)) from exc


def read_text(path) -> str:
    """A UTF-8 text file's contents, read with universal newlines.

    Bytes that are not UTF-8 raise FormatError, not UnicodeDecodeError.
    """
    with open(path, "rb") as handle:
        return _decode_text(handle.read(), path)


def _decode_text(data: bytes, path) -> str:
    """`data`, the bytes of file `path`, decoded as `read_text` reads that file."""
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; a key given twice raises ValueError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def parse_json_object(data: bytes, path, version: int, what: str) -> dict:
    """The JSON object in UTF-8 `data`, no key repeated, with `version` exactly the int
    `version`; anything else raises FormatError naming the document as `what`."""
    try:
        obj = json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # ValueError: not UTF-8, not JSON, a repeated key, or an integer beyond the
        # interpreter's digit limit; RecursionError: nesting deeper than the decoder can follow
        raise FormatError(f"{path}: unparseable {what} ({exc})") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: {what} is not a JSON object")
    found = obj.get("version")
    if type(found) is not int or found != version:
        raise FormatError(f"{path}: unknown {what} version {found!r}")
    return obj


def require_keys(obj, keys, what: str, optional=()) -> dict:
    """`obj`, refused with FormatError naming it as `what` unless it is a JSON
    object holding every one of `keys`, any of `optional` and nothing else."""
    if not isinstance(obj, dict):
        raise FormatError(f"{what}: not a JSON object")
    missing = set(keys) - set(obj)
    if missing:
        raise FormatError(f"{what}: missing fields {sorted(missing)}")
    unknown = set(obj) - set(keys) - set(optional)
    if unknown:
        raise FormatError(f"{what}: unknown fields {sorted(unknown)}")
    return obj

