"""The on-disk artifact protocol every persisted file goes through.

Profiles, models, observation shards, plan artifacts, schedules and
BENCH reports are read back by later runs, often by *other* processes.
A plain ``open(path, "w")`` truncates the target before the first byte
is written, so a crash or a racing writer leaves a torn file.  Writes
here land in a temp file *in the same directory* (same filesystem, so
the rename is atomic) and :func:`os.replace` swaps it in: readers see
the previous complete file or the new one, never a prefix.  Names are
claimed with one exclusive create, whole-file JSON reads turn a torn
file into the caller's named error, JSONL reads skip torn lines, and
store directories open behind a versioned meta file.  Only the
mechanism lives here; each caller keeps its own policy (accepted
versions, error class, race handling).
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from contextlib import contextmanager, suppress
from typing import Collection, Iterator

from repro.errors import ConfigurationError

__all__ = ["atomic_open", "atomic_write_json", "atomic_write_text",
           "claim_exclusive", "open_versioned_dir", "read_json_lines",
           "read_json_object", "remove_files", "safe_name"]


@contextmanager
def atomic_open(
    path: str | os.PathLike, mode: str = "w", *, encoding: str = "utf-8"
) -> Iterator:
    """Yield a sibling temp file of ``path`` opened in ``mode`` (``"w"``
    or ``"wb"``); rename it over ``path`` when the block exits cleanly.

    When the block raises, the temp file is removed and the previous
    content of ``path`` is left untouched.
    """
    if mode not in ("w", "wb"):
        raise ValueError(f"atomic_open mode must be 'w' or 'wb', not {mode!r}")
    path = os.fspath(path)
    encoding = None if mode == "wb" else encoding
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp",
        dir=os.path.dirname(path) or ".",
    )
    try:
        with os.fdopen(fd, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp_path, path)
    except BaseException:
        remove_files(tmp_path)
        raise


def atomic_write_text(
    path: str | os.PathLike, text: str, *, encoding: str = "utf-8"
) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    Examples
    --------
    >>> import os, tempfile
    >>> from repro.utils.atomic import atomic_write_text
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     target = os.path.join(tmp, "out.txt")
    ...     atomic_write_text(target, "payload\\n")
    ...     open(target).read()
    'payload\\n'
    """
    with atomic_open(path, "w", encoding=encoding) as fh:
        fh.write(text)


def atomic_write_json(
    payload: object,
    path: str | os.PathLike,
    *,
    indent: int | None = 2,
    sort_keys: bool = True,
) -> None:
    """Serialize ``payload`` and write it atomically.

    Serialization happens *before* the temp file is opened: an
    unserializable payload raises without a single byte reaching the
    filesystem, so the previous good file survives even the earliest
    failure mode.
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    atomic_write_text(path, text)


def claim_exclusive(path: str | os.PathLike) -> bool:
    """Create ``path`` empty with one exclusive create; ``False`` when
    it already exists (another writer holds the name)."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def remove_files(*paths: str | os.PathLike) -> int:
    """Best-effort unlink; returns how many of ``paths`` were removed."""
    removed = 0
    for path in paths:
        with suppress(OSError):
            os.unlink(path)
            removed += 1
    return removed


def read_json_object(
    path: str | os.PathLike,
    error: type[Exception] = ConfigurationError,
    what: str = "JSON file",
) -> dict:
    """Parse the whole file at ``path`` as one JSON object.

    A torn, empty, non-UTF-8 or non-object file raises ``error`` (the
    caller's named class) naming ``what`` and the path.  A missing file
    raises :class:`FileNotFoundError` unchanged.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(
            f"{what} {os.fspath(path)!s} is torn or not valid JSON: {exc}"
        ) from None
    if not isinstance(data, dict):
        raise error(f"{what} {os.fspath(path)!s}: expected a JSON object")
    return data


def read_json_lines(path: str | os.PathLike) -> Iterator[dict]:
    """The JSON objects of a JSONL file, one per line.  Blank, torn and
    non-object lines are skipped, so a hand edit or a torn legacy line
    never poisons the rest of the file."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                yield record


def open_versioned_dir(
    path: str | os.PathLike, meta_file: str, fresh_meta: dict, *,
    versions: Collection[object], what: str, create: bool = True,
) -> None:
    """Open (or create) a versioned store directory.

    ``path`` is created when missing and ``create`` is true.  A missing
    ``meta_file`` inside it is written from ``fresh_meta``; an existing
    one must be a JSON object whose ``"version"`` (``None`` when absent)
    is in ``versions``.  Every refusal is a
    :class:`~repro.errors.ConfigurationError` naming ``what``.
    """
    path = os.fspath(path)
    if not os.path.isdir(path):
        if os.path.exists(path):
            raise ConfigurationError(
                f"{what} path {path!r} exists but is not a directory"
            )
        if not create:
            raise ConfigurationError(f"{what} {path!r} does not exist")
        os.makedirs(path, exist_ok=True)
    meta_path = os.path.join(path, meta_file)
    if not os.path.exists(meta_path):
        atomic_write_json(fresh_meta, meta_path)
        return
    meta = read_json_object(meta_path, ConfigurationError, f"{what} meta")
    version = meta.get("version")
    if version not in versions:
        raise ConfigurationError(
            f"{what} {path!r} has version {version!r}; this build reads "
            f"version {fresh_meta.get('version')!r}"
        )


_UNSAFE_NAME_CHARS = re.compile(r"[^A-Za-z0-9._-]")


def safe_name(value: object, max_len: int, default: str = "") -> str:
    """Filesystem-safe token of ``value`` for artifact and shard names:
    unsafe characters become ``-``, the result is cut to ``max_len`` and
    trimmed of dots and dashes at both ends; empty becomes ``default``.

    >>> safe_name("../host name/", 64), safe_name("///", 48, "x")
    ('host-name', 'x')
    """
    # strip(".-") is the char-set form on purpose: trim any run of dots
    # and dashes from both ends, not the literal prefix/suffix ".-"
    token = _UNSAFE_NAME_CHARS.sub("-", str(value))[:max_len]
    return token.strip(".-") or default  # noqa: B005
