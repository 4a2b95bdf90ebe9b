"""Line reader shared by the fixture, config and manifest loaders."""

from __future__ import annotations

from pathlib import Path
from typing import Iterator


def content_lines(path: Path, error: type[Exception]) -> Iterator[tuple[str, str]]:
    """Yield ``(where, line)``, ``where`` being ``path:lineno``, for each
    stripped line that is not blank or a ``#`` comment; raise ``error`` if
    the file cannot be read."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    name = str(path)  # formatting a Path per line costs twice as much
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield f"{name}:{lineno}", line


def key_values(path: Path, error: type[Exception]) -> Iterator[tuple[str, str, str]]:
    """Yield ``(where, key, value)`` per ``key = value`` line, in file order
    (repeated keys included); raise ``error`` for a line without ``=``."""
    for where, line in content_lines(path, error):
        key, sep, value = line.partition("=")
        if not sep:
            raise error(f"{where}: expected key = value")
        yield where, key.strip(), value.strip()
