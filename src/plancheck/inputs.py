"""The input boundary: every file loader reads its lines and fields through here.

A ValueError raised while a line is parsed names ``path:lineno`` and keeps its
type; ``_field``/``_items`` check the JSON types of a decoded line's fields.
This module imports nothing from the package, so every module can use it.
"""
from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

_REQUIRED = object()
_STR, _LIST = frozenset({str}), frozenset({list})
_INT, _NUMBER = frozenset({int}), frozenset({int, float})


@contextmanager
def numbered_lines(path: str | Path) -> Iterator[Iterator[str]]:
    """Iterate over the stripped non-blank lines of ``path``; a ValueError
    raised in the ``with`` block while a line is current gets ``path:lineno: ``
    prefixed to its message (one raised after the last line does not)."""
    lineno = None

    def lines() -> Iterator[str]:
        nonlocal lineno
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            if line.strip():
                yield line.strip()
        lineno = None

    try:
        yield lines()
    except ValueError as exc:
        if lineno is not None:
            exc.args = (f"{path}:{lineno}: {exc}",)
        raise


def _field(obj, key: str, kinds: frozenset, default=_REQUIRED):
    """``obj[key]``, whose type must be one of ``kinds``; an optional key that
    is absent or null gives ``default``."""
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object, got {obj!r}")
    value = obj.get(key)
    if value is None:
        if default is not _REQUIRED:
            return default
        if key not in obj:
            raise ValueError(f"missing {key!r}")
    if type(value) not in kinds:
        raise ValueError(f"mistyped {key!r}: {value!r}")
    return value


def _items(obj, key: str, kinds: frozenset, default=_REQUIRED):
    """A list field whose items' types are all in ``kinds``."""
    items = _field(obj, key, _LIST, default)
    if items is not None and not set(map(type, items)) <= kinds:
        raise ValueError(f"mistyped {key!r}: {items!r}")
    return items
